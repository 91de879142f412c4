//! Cross-crate integration: the full PARMONC pipeline (rng → runner →
//! stats → files) against closed-form answers.

use parmonc::prelude::{Exchange, Parmonc, RealizeFn};
use parmonc_apps::{GaltonWatson, PiEstimator};
use parmonc_sde::{EulerScheme, OutputGrid, PaperDiffusion};
use parmonc_testkit::TempDir;

fn tempdir(name: &str) -> TempDir {
    TempDir::new(&format!("e2e-{name}"))
}

#[test]
fn pi_estimate_is_covered_by_its_error_bar() {
    let dir = tempdir("pi");
    let report = Parmonc::builder(1, 1)
        .max_sample_volume(400_000)
        .processors(4)
        .output_dir(&dir)
        .run(PiEstimator)
        .unwrap();
    let mean = report.summary.means[0];
    let eps = report.summary.abs_errors[0];
    // 3-sigma interval: misses with probability ~0.3%.
    assert!(
        (mean - std::f64::consts::PI).abs() <= eps + 0.01,
        "pi = {mean} ± {eps}"
    );
    // eps at L = 400k for Var = 16 p (1-p) ≈ 2.70: 3*1.64/632 ≈ 0.0078.
    assert!(eps < 0.01, "eps {eps}");
}

#[test]
fn diffusion_means_match_analytic_solution() {
    // The paper's performance-test workload (scaled) through the real
    // parallel runner, checked against E xi(t) = xi(0) + C t.
    let problem = PaperDiffusion::default();
    let scheme = EulerScheme::new(problem, 0.1 / 5.0, OutputGrid::new(50, 5));
    let grid = scheme.grid();
    let h = scheme.h();
    let difftraj = RealizeFn::new(move |rng, out| scheme.realize_into(rng, out));

    let dir = tempdir("diffusion");
    let report = Parmonc::builder(50, 2)
        .max_sample_volume(2_000)
        .processors(4)
        .exchange(Exchange::EveryRealization)
        .output_dir(&dir)
        .run(difftraj)
        .unwrap();

    for i in [0usize, 24, 49] {
        let t = grid.time(i, h);
        for j in 0..2 {
            let mean = report.summary.mean(i, j);
            let eps = report.summary.abs_error(i, j);
            let exact = problem.exact_mean(j, t);
            assert!(
                (mean - exact).abs() <= eps + 0.05,
                "t={t} j={j}: {mean} ± {eps} vs {exact}"
            );
        }
    }
    // Variance grows like D^2 t: later rows have larger error bars.
    assert!(report.summary.abs_error(49, 0) > report.summary.abs_error(0, 0));
}

#[test]
fn parallel_and_serial_runs_agree_within_error_bars() {
    // M = 1 and M = 4 use different processor streams, so estimates
    // differ — but both must cover the truth and each other within
    // combined 3-sigma bounds.
    let run = |m: usize, name: &str| {
        let dir = tempdir(name);
        Parmonc::builder(1, 1)
            .max_sample_volume(100_000)
            .processors(m)
            .output_dir(&dir)
            .run(PiEstimator)
            .unwrap()
    };
    let serial = run(1, "serial");
    let parallel = run(4, "parallel");
    assert_eq!(serial.total_volume, parallel.total_volume);
    let diff = (serial.summary.means[0] - parallel.summary.means[0]).abs();
    let bound = serial.summary.abs_errors[0] + parallel.summary.abs_errors[0];
    assert!(diff <= bound + 0.01, "diff {diff} > bound {bound}");
}

#[test]
fn branching_extinction_probability_end_to_end() {
    let gw = GaltonWatson::new(1.5, 150, 50_000);
    let dir = tempdir("branching");
    let report = Parmonc::builder(1, 2)
        .max_sample_volume(20_000)
        .processors(4)
        .output_dir(&dir)
        .run(gw)
        .unwrap();
    let q_exact = gw.exact_extinction_probability();
    let q_est = report.summary.means[0];
    let eps = report.summary.abs_errors[0];
    assert!(
        (q_est - q_exact).abs() <= eps + 0.01,
        "q = {q_est} ± {eps} vs {q_exact}"
    );
}

#[test]
fn rng_streams_feed_workloads_deterministically() {
    // The whole stack is a pure function of (seqnum, M, maxsv).
    let run = |name: &str| {
        let dir = tempdir(name);
        Parmonc::builder(1, 1)
            .max_sample_volume(10_000)
            .processors(3)
            .seqnum(9)
            .output_dir(&dir)
            .run(PiEstimator)
            .unwrap()
    };
    let a = run("det-a");
    let b = run("det-b");
    assert_eq!(a.summary.means, b.summary.means);
    assert_eq!(a.summary.variances, b.summary.variances);
    assert_eq!(a.worker_volumes, b.worker_volumes);
}

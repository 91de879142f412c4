//! Variance reduction composed with the PARMONC machinery: the VR
//! estimators draw from real leapfrogged realization streams, and a
//! VR-enhanced `Realize` routine runs through the parallel runner.

use parmonc::prelude::{Parmonc, RealizeFn};
use parmonc_rng::{StreamHierarchy, StreamId, UniformSource};
use parmonc_vr::antithetic::plain_estimate;
use parmonc_vr::{antithetic_estimate, normal_tail_probability, stratified_estimate};

fn stream() -> parmonc_rng::RealizationStream {
    StreamHierarchy::default()
        .realization_stream(StreamId::new(3, 1, 4))
        .unwrap()
}

#[test]
fn antithetic_on_realization_streams() {
    let mut s = stream();
    let acc = antithetic_estimate(&mut s, 50_000, |rng| rng.next_f64().exp());
    let truth = std::f64::consts::E - 1.0;
    assert!((acc.mean() - truth).abs() <= acc.abs_error() + 1e-3);
}

#[test]
fn stratified_on_realization_streams() {
    let mut s = stream();
    let est = stratified_estimate(&mut s, 8, 10_000, |rng| rng.next_f64().exp());
    let truth = std::f64::consts::E - 1.0;
    assert!((est.mean - truth).abs() <= est.abs_error() + 1e-3);
}

#[test]
fn importance_sampling_on_realization_streams() {
    let mut s = stream();
    let acc = normal_tail_probability(&mut s, 4.0, 200_000);
    let exact = parmonc_vr::importance::normal_tail_exact(4.0);
    assert!(
        (acc.mean() - exact).abs() < 0.05 * exact,
        "{} vs {exact}",
        acc.mean()
    );
}

#[test]
fn antithetic_realize_routine_through_the_runner() {
    // Each PARMONC realization is itself an antithetic *pair*: the
    // user routine draws u, evaluates f(u) and f(1-u), and returns the
    // pair average. The runner sees a realization with ~5x smaller
    // standard deviation at the same per-realization cost class.
    let dir = parmonc_testkit::TempDir::new("vr-runner");

    let antithetic_exp = RealizeFn::new(
        |rng: &mut parmonc_rng::RealizationStream, out: &mut [f64]| {
            let u = rng.next_f64();
            out[0] = 0.5 * (u.exp() + (1.0 - u).exp());
        },
    );
    let report = Parmonc::builder(1, 1)
        .max_sample_volume(50_000)
        .processors(4)
        .output_dir(&dir)
        .run(antithetic_exp)
        .unwrap();

    let truth = std::f64::consts::E - 1.0;
    assert!(
        (report.summary.means[0] - truth).abs() <= report.summary.abs_errors[0] + 1e-3,
        "{} vs {truth}",
        report.summary.means[0]
    );
    // Compare against the plain estimator's variance at equal L.
    let mut s = stream();
    let plain = plain_estimate(&mut s, 50_000, |rng: &mut dyn UniformSource| {
        rng.next_f64().exp()
    });
    assert!(
        report.summary.variances[0] < 0.1 * plain.variance(),
        "antithetic realize variance {} vs plain {}",
        report.summary.variances[0],
        plain.variance()
    );
}

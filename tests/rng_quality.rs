//! RNG quality from the integration side: the statistical battery run
//! over the *stream types the runner actually hands to user code*, not
//! just the raw generator, plus the inter-stream guarantees that make
//! formula (5) valid.

use parmonc_rng::{LeapConfig, StreamHierarchy, StreamId};
use parmonc_rngtest::battery::{run_battery, run_cross_stream_battery, Scale};
use parmonc_rngtest::crossstream;

const ALPHA: f64 = 1e-3;

#[test]
fn realization_stream_passes_the_battery() {
    // The exact object a `Realize` routine draws from.
    let mut stream = StreamHierarchy::default()
        .realization_stream(StreamId::new(1, 2, 3))
        .unwrap();
    let report = run_battery(&mut stream, ALPHA, Scale::Standard);
    assert!(report.all_pass(), "{report}");
}

#[test]
fn cross_stream_battery_on_default_hierarchy() {
    let report = run_cross_stream_battery(&StreamHierarchy::default(), ALPHA, Scale::Standard);
    assert!(report.all_pass(), "{report}");
}

#[test]
fn streams_across_experiments_are_independent_too() {
    // seqnum isolation: experiment 0 and experiment 1 streams.
    let h = StreamHierarchy::default();
    let mut a = h.realization_stream(StreamId::new(0, 0, 0)).unwrap();
    let mut b = h.realization_stream(StreamId::new(1, 0, 0)).unwrap();
    let n = 100_000;
    let mut sum_ab = 0.0;
    let mut sum_a = 0.0;
    let mut sum_b = 0.0;
    for _ in 0..n {
        let x = a.next_f64();
        let y = b.next_f64();
        sum_a += x;
        sum_b += y;
        sum_ab += x * y;
    }
    let nf = n as f64;
    let cov = sum_ab / nf - (sum_a / nf) * (sum_b / nf);
    // Var(U)·correlation/n scale: 3 sigma ≈ 3/(12·sqrt(n)).
    assert!(cov.abs() < 3.0 / (12.0 * nf.sqrt()) + 1e-4, "cov {cov}");
}

#[test]
fn hundreds_of_processor_streams_have_uniform_grand_mean() {
    let h = StreamHierarchy::default();
    let r = crossstream::test_grand_mean(&h, 256, 1_000);
    assert!(r.passes(ALPHA), "{r:?}");
}

#[test]
fn custom_genparam_hierarchy_still_passes_cross_tests() {
    // A user overriding the leaps with genparam must keep independence
    // (as long as the leaps nest).
    let cfg = LeapConfig::new(100, 80, 40).unwrap();
    let h = StreamHierarchy::new(cfg);
    let r = crossstream::test_cross_correlation(&h, 0, 1, 100_000);
    assert!(r.passes(ALPHA), "{r:?}");
    let r = crossstream::test_cross_uniformity(&h, 0, 1, 160_000, 16);
    assert!(r.passes(ALPHA), "{r:?}");
}

#[test]
fn kernel_normals_have_normal_cells_moments_and_tails() {
    // 10⁶ normals from the in-crate Box–Muller kernel, drawn the way
    // the SDE path draws them, against N(0, 1): χ² over 64 equiprobable
    // cells of Φ(z), the first four moments, the within-pair
    // correlation, and the |z| > 4 tail count.
    use parmonc_rng::distributions::fill_standard_normal;
    use parmonc_rngtest::special::{normal_sf, normal_two_sided};
    use parmonc_rngtest::uniformity::chi2_equal_cells;

    let mut stream = StreamHierarchy::default()
        .realization_stream(StreamId::new(1, 2, 3))
        .unwrap();
    let n = 1_000_000usize;
    let mut z = vec![0.0f64; n];
    fill_standard_normal(&mut stream, &mut z);
    assert_eq!(stream.drawn(), n as u64);
    let nf = n as f64;

    let mut cells = [0u64; 64];
    for &x in &z {
        let p = 1.0 - normal_sf(x);
        cells[((p * 64.0) as usize).min(63)] += 1;
    }
    let (stat, p_value) = chi2_equal_cells(&cells);
    assert!(p_value > ALPHA, "chi2 = {stat}, p = {p_value}");

    // Sampling sd of the k-th raw moment of N(0,1): sqrt(Var(Z^k)/n)
    // with Var Z = 1, Var Z² = 2, Var Z³ = 15, Var Z⁴ = 96.
    let moment = |k: i32| z.iter().map(|x| x.powi(k)).sum::<f64>() / nf;
    for (k, expected, var) in [(1, 0.0, 1.0), (2, 1.0, 2.0), (3, 0.0, 15.0), (4, 3.0, 96.0)] {
        let dev = (moment(k) - expected) / (var / nf).sqrt();
        assert!(normal_two_sided(dev) > ALPHA, "moment {k} off by {dev} sd");
    }

    // The two variates of one transform: products have mean 0, sd 1.
    let pairs = nf / 2.0;
    let cov = z.chunks_exact(2).map(|p| p[0] * p[1]).sum::<f64>() / pairs;
    let dev = cov * pairs.sqrt();
    assert!(normal_two_sided(dev) > ALPHA, "pair correlation {dev} sd");

    // P(|Z| > 4) = 6.334·10⁻⁵: a binomial count, mean 63.3, sd 7.96.
    let p_tail = 6.334_248_366_623_984e-5;
    let tail = z.iter().filter(|x| x.abs() > 4.0).count() as f64;
    let dev = (tail - nf * p_tail) / (nf * p_tail * (1.0 - p_tail)).sqrt();
    assert!(dev.abs() < 3.3, "{tail} values beyond 4 sd ({dev} sd off)");
}

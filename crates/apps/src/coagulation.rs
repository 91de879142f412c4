//! Direct simulation Monte Carlo for Smoluchowski coagulation — paper
//! Section 2.1 cites "solving the Boltzmann and Smoluchowski's
//! equations" among the method's classic applications (and Marchenko's
//! own group used MONC for exactly this).
//!
//! The model: `n0` monomers in a well-mixed volume; any pair coalesces
//! at constant rate (`K(i, j) = K` — the constant kernel). With `k`
//! clusters present the total coalescence rate is `K·k(k−1)/2`; each
//! event reduces the cluster count by one.
//!
//! For the constant kernel the mean-field Smoluchowski solution gives
//! the expected cluster count in closed form:
//! `E N(t) ≈ n0 / (1 + K n0 t / 2)` (exact as `n0 → ∞`), which the
//! tests compare against. One realization records the cluster count at
//! `points` observation times (a `points × 1` matrix), normalized by
//! `n0`.

use parmonc::{RealizationStream, Realize};
use parmonc_rng::distributions::exponential;
use parmonc_rng::UniformSource;

/// Constant-kernel coagulation workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantKernelCoagulation {
    /// Initial number of monomers `n0`.
    pub initial_clusters: u64,
    /// Pairwise coalescence rate `K` (scaled so that `K·n0` is O(1):
    /// the natural Marcus–Lushnikov normalization).
    pub kernel: f64,
    /// Observation horizon `T`.
    pub horizon: f64,
    /// Number of equally spaced observation times.
    pub points: usize,
}

impl ConstantKernelCoagulation {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics unless `initial_clusters ≥ 2`, `kernel > 0`,
    /// `horizon > 0` and `points > 0`.
    #[must_use]
    pub fn new(initial_clusters: u64, kernel: f64, horizon: f64, points: usize) -> Self {
        assert!(initial_clusters >= 2, "need at least two clusters");
        assert!(kernel > 0.0, "kernel must be positive");
        assert!(horizon > 0.0, "horizon must be positive");
        assert!(points > 0, "need observation times");
        Self {
            initial_clusters,
            kernel,
            horizon,
            points,
        }
    }

    /// The `i`-th observation time (0-based).
    #[must_use]
    pub fn observation_time(&self, i: usize) -> f64 {
        (i + 1) as f64 * self.horizon / self.points as f64
    }

    /// Mean-field cluster count fraction `N(t)/n0 = 1/(1 + K n0 t/2)`.
    #[must_use]
    pub fn mean_field_fraction(&self, t: f64) -> f64 {
        1.0 / (1.0 + self.kernel * self.initial_clusters as f64 * t / 2.0)
    }

    /// Runs one Marcus–Lushnikov trajectory, writing `N(t_i)/n0` into
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != points`.
    pub fn simulate_into<R: UniformSource + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(out.len(), self.points, "one output entry per time");
        let n0 = self.initial_clusters as f64;
        let mut clusters = self.initial_clusters;
        let mut t = 0.0f64;
        let mut next_obs = 0usize;
        loop {
            // With k clusters the next coalescence is exponential with
            // rate K·k(k−1)/2 (Marcus–Lushnikov process).
            let k = clusters as f64;
            let rate = self.kernel * k * (k - 1.0) / 2.0;
            let t_next = if rate > 0.0 {
                t + exponential(rng, rate)
            } else {
                f64::INFINITY
            };
            while next_obs < self.points && self.observation_time(next_obs) <= t_next {
                out[next_obs] = clusters as f64 / n0;
                next_obs += 1;
            }
            if next_obs >= self.points {
                return;
            }
            t = t_next;
            clusters -= 1;
        }
    }
}

impl Realize for ConstantKernelCoagulation {
    /// Output: `points × 1` matrix of `N(t_i)/n0`.
    fn realize(&self, rng: &mut RealizationStream, out: &mut [f64]) {
        self.simulate_into(rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmonc_rng::Lcg128;
    use parmonc_stats::MatrixAccumulator;

    fn model() -> ConstantKernelCoagulation {
        // K·n0 = 1: gelation-free, O(1) dynamics on [0, 8].
        ConstantKernelCoagulation::new(1_000, 1e-3, 8.0, 8)
    }

    fn estimate(m: &ConstantKernelCoagulation, trials: usize) -> MatrixAccumulator {
        let mut rng = Lcg128::new();
        let mut acc = MatrixAccumulator::new(m.points, 1).unwrap();
        let mut out = vec![0.0; m.points];
        for _ in 0..trials {
            m.simulate_into(&mut rng, &mut out);
            acc.add(&out).unwrap();
        }
        acc
    }

    #[test]
    fn tracks_mean_field_solution() {
        let m = model();
        let acc = estimate(&m, 2_000);
        let s = acc.summary();
        for i in 0..m.points {
            let t = m.observation_time(i);
            let mean = s.mean(i, 0);
            let mf = m.mean_field_fraction(t);
            // Finite-size correction is O(1/n0) = 0.1%; MC noise tiny.
            assert!(
                (mean - mf).abs() < 0.01 * mf + 0.003,
                "t={t}: {mean} vs {mf}"
            );
        }
    }

    #[test]
    fn cluster_count_is_monotone_decreasing() {
        let m = model();
        let mut rng = Lcg128::new();
        let mut out = vec![0.0; m.points];
        for _ in 0..100 {
            m.simulate_into(&mut rng, &mut out);
            for w in out.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "coagulation cannot create clusters");
            }
            assert!(out.iter().all(|f| *f > 0.0 && *f <= 1.0));
        }
    }

    #[test]
    fn halving_time_matches_theory() {
        // N(t)/n0 = 1/2 at t = 2/(K n0) = 2.0 for our parameters.
        let m = model();
        let acc = estimate(&m, 2_000);
        let s = acc.summary();
        // observation index for t = 2.0 is i = 1 (t_i = (i+1)).
        let frac = s.mean(1, 0);
        assert!((frac - 0.5).abs() < 0.01, "N(2)/n0 = {frac}");
    }

    #[test]
    fn single_pair_coalesces_eventually() {
        let m = ConstantKernelCoagulation::new(2, 10.0, 50.0, 1);
        let mut rng = Lcg128::new();
        let mut out = [0.0];
        let mut saw_merged = false;
        for _ in 0..50 {
            m.simulate_into(&mut rng, &mut out);
            if (out[0] - 0.5).abs() < 1e-12 {
                saw_merged = true;
            }
        }
        assert!(saw_merged, "K=10 over T=50 almost surely coalesces");
    }

    #[test]
    fn realize_interface() {
        use parmonc::Realize;
        use parmonc_rng::{StreamHierarchy, StreamId};
        let m = model();
        let mut s = StreamHierarchy::default()
            .realization_stream(StreamId::new(0, 0, 0))
            .unwrap();
        let mut out = vec![0.0; m.points];
        m.realize(&mut s, &mut out);
        assert!(out.iter().all(|f| *f > 0.0));
    }

    #[test]
    #[should_panic(expected = "at least two clusters")]
    fn rejects_single_cluster() {
        let _ = ConstantKernelCoagulation::new(1, 1.0, 1.0, 1);
    }
}

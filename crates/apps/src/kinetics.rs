//! Stochastic chemical kinetics via the Gillespie stochastic
//! simulation algorithm (SSA) — the "modeling the chemical reactions"
//! domain of paper Section 2.1.
//!
//! The model is an immigration–death process (production/degradation of
//! one species):
//!
//! ```text
//! ∅ → X   at rate k_prod          (zeroth order production)
//! X → ∅   at rate k_deg · #X      (first order degradation)
//! ```
//!
//! The exact solution is Poissonian at all times:
//! `#X(t) ~ Poisson(m(t))` with
//! `m(t) = (k_prod/k_deg)(1 − e^{−k_deg t}) + n₀ e^{−k_deg t}` for a
//! deterministic initial count `n₀` (exactly Poisson when `n₀ = 0`),
//! so both the mean and the variance of the copy number are known in
//! closed form — ideal for validating the whole estimator pipeline.
//!
//! One realization records the copy number at `points` equally spaced
//! observation times as a `points × 1` matrix.

use parmonc::{RealizationStream, Realize};
use parmonc_rng::distributions::exponential;
use parmonc_rng::UniformSource;

/// The immigration–death SSA workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImmigrationDeath {
    /// Production rate `k_prod` (molecules per unit time).
    pub k_prod: f64,
    /// Per-molecule degradation rate `k_deg`.
    pub k_deg: f64,
    /// Initial copy number `n₀`.
    pub initial: u64,
    /// Observation horizon `T`.
    pub horizon: f64,
    /// Number of equally spaced observation times (matrix rows).
    pub points: usize,
}

impl ImmigrationDeath {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics unless `k_prod > 0`, `k_deg > 0`, `horizon > 0` and
    /// `points > 0`.
    #[must_use]
    pub fn new(k_prod: f64, k_deg: f64, initial: u64, horizon: f64, points: usize) -> Self {
        assert!(k_prod > 0.0, "production rate must be positive");
        assert!(k_deg > 0.0, "degradation rate must be positive");
        assert!(horizon > 0.0, "horizon must be positive");
        assert!(points > 0, "need at least one observation time");
        Self {
            k_prod,
            k_deg,
            initial,
            horizon,
            points,
        }
    }

    /// The `i`-th observation time (0-based): `(i+1)·T/points`.
    #[must_use]
    pub fn observation_time(&self, i: usize) -> f64 {
        (i + 1) as f64 * self.horizon / self.points as f64
    }

    /// Exact mean copy number at time `t`.
    #[must_use]
    pub fn exact_mean(&self, t: f64) -> f64 {
        let decay = (-self.k_deg * t).exp();
        self.k_prod / self.k_deg * (1.0 - decay) + self.initial as f64 * decay
    }

    /// Exact variance of the copy number at time `t`
    /// (`= mean` when `n₀ = 0`; in general
    /// `(k/γ)(1−e^{−γt}) + n₀ e^{−γt}(1−e^{−γt})`).
    #[must_use]
    pub fn exact_variance(&self, t: f64) -> f64 {
        let decay = (-self.k_deg * t).exp();
        self.k_prod / self.k_deg * (1.0 - decay) + self.initial as f64 * decay * (1.0 - decay)
    }

    /// The stationary mean `k_prod / k_deg`.
    #[must_use]
    pub fn stationary_mean(&self) -> f64 {
        self.k_prod / self.k_deg
    }

    /// Runs one exact SSA trajectory, writing the copy number at each
    /// observation time into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != points`.
    pub fn simulate_into<R: UniformSource + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.points,
            "output must have one entry per time"
        );
        let mut t = 0.0f64;
        let mut n = self.initial;
        let mut next_obs = 0usize;

        loop {
            let a_prod = self.k_prod;
            let a_deg = self.k_deg * n as f64;
            let a_total = a_prod + a_deg;
            // Exponential waiting time to the next reaction.
            let dt = exponential(rng, a_total);
            let t_next = t + dt;

            // Record every observation time the jump passes over.
            while next_obs < self.points && self.observation_time(next_obs) <= t_next {
                out[next_obs] = n as f64;
                next_obs += 1;
            }
            if next_obs >= self.points {
                return;
            }
            t = t_next;
            // Choose the reaction.
            if rng.next_f64() * a_total < a_prod {
                n += 1;
            } else {
                n -= 1; // a_deg > 0 implies n > 0 here
            }
        }
    }
}

impl Realize for ImmigrationDeath {
    /// Output: `points × 1` matrix of copy numbers at the observation
    /// times.
    fn realize(&self, rng: &mut RealizationStream, out: &mut [f64]) {
        self.simulate_into(rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmonc_rng::Lcg128;
    use parmonc_stats::MatrixAccumulator;

    fn model() -> ImmigrationDeath {
        ImmigrationDeath::new(10.0, 1.0, 0, 5.0, 10)
    }

    fn estimate(m: &ImmigrationDeath, trials: usize) -> MatrixAccumulator {
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
    fn mean_matches_exact_transient() {
        let m = model();
        let acc = estimate(&m, 20_000);
        let s = acc.summary();
        for i in 0..m.points {
            let t = m.observation_time(i);
            let mean = s.mean(i, 0);
            let exact = m.exact_mean(t);
            let tol = 4.0 * (m.exact_variance(t) / 20_000.0).sqrt() + 0.02;
            assert!((mean - exact).abs() < tol, "t={t}: {mean} vs {exact}");
        }
    }

    #[test]
    fn variance_is_poissonian() {
        // With n0 = 0 the copy number is exactly Poisson: Var = mean.
        let m = model();
        let acc = estimate(&m, 20_000);
        let s = acc.summary();
        let last = m.points - 1;
        let t = m.observation_time(last);
        let var = s.variances[last];
        assert!(
            (var - m.exact_variance(t)).abs() < 0.08 * m.exact_variance(t) + 0.1,
            "var {var} vs {}",
            m.exact_variance(t)
        );
    }

    #[test]
    fn relaxes_to_stationary_mean() {
        // By t = 5/k_deg the transient is gone: mean ≈ k/γ = 10.
        let m = model();
        let acc = estimate(&m, 5_000);
        let s = acc.summary();
        let mean_last = s.mean(m.points - 1, 0);
        assert!((mean_last - m.stationary_mean()).abs() < 0.3, "{mean_last}");
    }

    #[test]
    fn deterministic_initial_decays() {
        // Start far above stationarity: mean decays toward k/γ.
        let m = ImmigrationDeath::new(2.0, 1.0, 100, 3.0, 6);
        let acc = estimate(&m, 4_000);
        let s = acc.summary();
        let first = s.mean(0, 0);
        let last = s.mean(5, 0);
        assert!(first > last, "{first} -> {last}");
        let exact_last = m.exact_mean(m.observation_time(5));
        assert!((last - exact_last).abs() < 1.0, "{last} vs {exact_last}");
    }

    #[test]
    fn copy_numbers_are_non_negative_integers() {
        let m = model();
        let mut rng = Lcg128::new();
        let mut out = vec![0.0; m.points];
        for _ in 0..200 {
            m.simulate_into(&mut rng, &mut out);
            for &x in &out {
                assert!(x >= 0.0 && x.fract() == 0.0, "bad copy number {x}");
            }
        }
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
        assert!(out.iter().all(|x| *x >= 0.0));
    }

    #[test]
    #[should_panic(expected = "production rate")]
    fn rejects_zero_production() {
        let _ = ImmigrationDeath::new(0.0, 1.0, 0, 1.0, 1);
    }
}

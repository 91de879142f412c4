//! The generalized Euler method (paper formula (9)) with trajectory
//! recording on an output grid.

use parmonc_rng::distributions::fill_standard_normal;
use parmonc_rng::UniformSource;

use crate::{euler_update, Sde};

/// Standard normals drawn per refill in [`EulerScheme::realize_into`]:
/// one chunk of [`fill_standard_normal`], i.e. 128 steps.
const NORMAL_BLOCK: usize = 256;

/// The output grid of the performance test: record the state at
/// `t_i = i · stride · h` for `i = 1..=points`.
///
/// For the paper's setup `h = 10⁻⁶`, `points = 1000`, `stride = 10⁵`
/// (so `t_i = i · 0.1`, final time 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputGrid {
    /// Number of recorded time points (`nrow` of the realization
    /// matrix).
    pub points: usize,
    /// Integrator steps between consecutive recorded points.
    pub stride: usize,
}

impl OutputGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if `points` or `stride` is zero.
    #[must_use]
    pub fn new(points: usize, stride: usize) -> Self {
        assert!(points > 0, "need at least one output point");
        assert!(stride > 0, "stride must be positive");
        Self { points, stride }
    }

    /// Total number of integrator steps (`points * stride`).
    #[must_use]
    pub fn total_steps(&self) -> usize {
        self.points * self.stride
    }

    /// The time of output point `i` (0-based) for mesh `h`:
    /// `t = (i + 1) · stride · h`.
    #[must_use]
    pub fn time(&self, i: usize, h: f64) -> f64 {
        ((i + 1) * self.stride) as f64 * h
    }
}

/// Euler integrator bound to an SDE, a mesh size and an output grid.
///
/// # Examples
///
/// ```
/// use parmonc_rng::Lcg128;
/// use parmonc_sde::{EulerScheme, OutputGrid, PaperDiffusion};
///
/// // A laptop-scale version of the paper's run: 100 points, h = 1e-3.
/// let scheme = EulerScheme::new(PaperDiffusion::default(), 1e-3, OutputGrid::new(100, 10));
/// let mut rng = Lcg128::new();
/// let mut out = vec![0.0; 100 * 2];
/// scheme.realize_into(&mut rng, &mut out);
/// assert!(out.iter().all(|x| x.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct EulerScheme<S> {
    sde: S,
    h: f64,
    grid: OutputGrid,
}

impl<S> EulerScheme<S> {
    /// Binds `sde` to mesh `h` and the output `grid`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not strictly positive.
    pub fn new(sde: S, h: f64, grid: OutputGrid) -> Self {
        assert!(h > 0.0, "mesh size must be positive, got {h}");
        Self { sde, h, grid }
    }

    /// The bound SDE.
    pub fn sde(&self) -> &S {
        &self.sde
    }

    /// The mesh size `h`.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// The output grid.
    pub fn grid(&self) -> OutputGrid {
        self.grid
    }
}

impl<S: Sde<2>> EulerScheme<S> {
    /// Simulates one trajectory, writing the `points × 2` realization
    /// matrix (row-major: `out[2*i] = ξ₁(t_i)`, `out[2*i+1] = ξ₂(t_i)`)
    /// — the paper's `difftraj` routine.
    ///
    /// Bit for bit the trajectory of `points · stride` calls of
    /// [`euler_step`](crate::euler_step), and the same
    /// `2 · points · stride` base random numbers in the same order — but
    /// the normals are drawn a block at a time through
    /// [`fill_standard_normal`] (batched uniforms, vectorised
    /// transform). They do not depend on the state, so pre-drawing them
    /// is valid for every [`Sde`]; drift and diffusion are still
    /// evaluated per step from the current state.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != points * 2`.
    pub fn realize_into<R: UniformSource + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.grid.points * 2,
            "output buffer must be points x 2"
        );
        let mut x = self.sde.initial();
        let sqrt_h = self.h.sqrt();
        let mut normals = [0.0f64; NORMAL_BLOCK];
        let mut rows = out.chunks_exact_mut(2);
        let mut steps_left = self.grid.total_steps();
        let mut steps_to_row = self.grid.stride;
        while steps_left > 0 {
            // The last block is cut to the steps that remain, so exactly
            // the step-by-step loop's draws are made.
            let steps = steps_left.min(NORMAL_BLOCK / 2);
            let normals = &mut normals[..2 * steps];
            fill_standard_normal(rng, normals);
            for z in normals.chunks_exact(2) {
                euler_update(&self.sde, &mut x, self.h, sqrt_h, &[z[0], z[1]]);
                steps_to_row -= 1;
                if steps_to_row == 0 {
                    rows.next()
                        .expect("one row per stride steps")
                        .copy_from_slice(&x);
                    steps_to_row = self.grid.stride;
                }
            }
            steps_left -= steps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler_step;
    use crate::problems::{GeometricBrownian, OrnsteinUhlenbeck, PaperDiffusion};
    use parmonc_rng::{Lcg128, StreamHierarchy, StreamId};
    use parmonc_testkit::prelude::*;

    /// The step-by-step loop `realize_into` used to be, and must equal.
    fn realize_step_by_step<S: Sde<2>, R: UniformSource>(
        scheme: &EulerScheme<S>,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut x = scheme.sde.initial();
        let sqrt_h = scheme.h.sqrt();
        let mut out = Vec::with_capacity(scheme.grid.points * 2);
        for _ in 0..scheme.grid.points {
            for _ in 0..scheme.grid.stride {
                euler_step(&scheme.sde, &mut x, scheme.h, sqrt_h, rng);
            }
            out.extend_from_slice(&x);
        }
        out
    }

    /// Block path ≡ step loop, bit for bit, on a raw generator and on a
    /// realization stream (whose equality covers `drawn()` and the
    /// generator state).
    fn assert_block_path_equals_step_loop<S: Sde<2> + Clone>(
        sde: &S,
        points: usize,
        stride: usize,
        skip: u128,
    ) -> Result<(), TestCaseError> {
        let scheme = EulerScheme::new(sde.clone(), 1e-3, OutputGrid::new(points, stride));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut block_rng = Lcg128::new();
        block_rng.jump(skip);
        let mut step_rng = block_rng.clone();
        let mut out = vec![0.0; points * 2];
        scheme.realize_into(&mut block_rng, &mut out);
        let expected = realize_step_by_step(&scheme, &mut step_rng);
        prop_assert_eq!(bits(&out), bits(&expected));
        prop_assert_eq!(block_rng.state(), step_rng.state());

        let mut block_stream = StreamHierarchy::default()
            .realization_stream(StreamId::new(1, 2, skip as u64))
            .unwrap();
        let mut step_stream = block_stream.clone();
        scheme.realize_into(&mut block_stream, &mut out);
        let expected = realize_step_by_step(&scheme, &mut step_stream);
        prop_assert_eq!(bits(&out), bits(&expected));
        prop_assert_eq!(block_stream.drawn(), (2 * points * stride) as u64);
        prop_assert_eq!(block_stream, step_stream);
        Ok(())
    }

    /// All three problem types: constant coefficients, and the two with
    /// state-dependent drift and diffusion.
    fn assert_on_every_problem(
        points: usize,
        stride: usize,
        skip: u128,
    ) -> Result<(), TestCaseError> {
        assert_block_path_equals_step_loop(&PaperDiffusion::default(), points, stride, skip)?;
        assert_block_path_equals_step_loop(&GeometricBrownian::default(), points, stride, skip)?;
        assert_block_path_equals_step_loop(&OrnsteinUhlenbeck::default(), points, stride, skip)
    }

    proptest! {
        /// Random grids: stride 1, strides that do not divide the
        /// 128-step block, totals far below and far above one block.
        #[test]
        fn block_path_equals_step_loop(
            points in 1usize..40,
            stride in 1usize..40,
            skip in 0u128..10_000,
        ) {
            assert_on_every_problem(points, stride, skip)?;
        }
    }

    #[test]
    fn block_path_equals_step_loop_around_one_block() {
        // 2·points·stride just below, equal to and just above one block
        // of normals, with the block boundary inside, on and between
        // output rows; and the benchmark's 1000 × 20 grid.
        let steps = NORMAL_BLOCK / 2;
        for (points, stride) in [
            (1, steps - 1),
            (1, steps),
            (1, steps + 1),
            (steps - 1, 1),
            (steps, 1),
            (steps + 1, 1),
            (2, steps / 2),
            (3, steps / 2 + 1),
            (7, 37),
            (1000, 20),
        ] {
            assert_on_every_problem(points, stride, 0)
                .unwrap_or_else(|e| panic!("points={points} stride={stride}: {e}"));
        }
    }

    #[test]
    fn grid_arithmetic() {
        let g = OutputGrid::new(1000, 100_000);
        assert_eq!(g.total_steps(), 100_000_000); // the paper's 10^8
        assert!((g.time(0, 1e-6) - 0.1).abs() < 1e-12);
        assert!((g.time(999, 1e-6) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one output point")]
    fn grid_rejects_zero_points() {
        let _ = OutputGrid::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn grid_rejects_zero_stride() {
        let _ = OutputGrid::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "mesh size must be positive")]
    fn scheme_rejects_zero_h() {
        let _ = EulerScheme::new(PaperDiffusion::default(), 0.0, OutputGrid::new(1, 1));
    }

    #[test]
    fn trajectory_mean_tracks_drift() {
        // Over many trajectories the recorded mean at t must approach
        // ξ0 + C t (exact for this linear SDE even at finite h).
        let problem = PaperDiffusion::default();
        let c = problem.drift_vector();
        let scheme = EulerScheme::new(problem, 1e-2, OutputGrid::new(10, 10)); // t_i = 0.1 i
        let mut rng = Lcg128::new();
        let trials = 4000;
        let mut sums = [0.0; 20];
        let mut out = vec![0.0; 20];
        for _ in 0..trials {
            scheme.realize_into(&mut rng, &mut out);
            for (s, o) in sums.iter_mut().zip(&out) {
                *s += o;
            }
        }
        for i in 0..10 {
            let t = scheme.grid().time(i, scheme.h());
            let mean1 = sums[2 * i] / trials as f64;
            let mean2 = sums[2 * i + 1] / trials as f64;
            // Standard error ≈ D sqrt(t)/sqrt(trials) ≈ 0.016 at t=1.
            assert!((mean1 - c[0] * t).abs() < 0.1, "t={t} mean1={mean1}");
            assert!((mean2 - c[1] * t).abs() < 0.1, "t={t} mean2={mean2}");
        }
    }

    #[test]
    fn deterministic_for_fixed_stream() {
        let scheme = EulerScheme::new(PaperDiffusion::default(), 1e-3, OutputGrid::new(5, 7));
        let mut out1 = vec![0.0; 10];
        let mut out2 = vec![0.0; 10];
        scheme.realize_into(&mut Lcg128::new(), &mut out1);
        scheme.realize_into(&mut Lcg128::new(), &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    #[should_panic(expected = "points x 2")]
    fn wrong_buffer_size_panics() {
        let scheme = EulerScheme::new(PaperDiffusion::default(), 1e-3, OutputGrid::new(5, 1));
        let mut out = vec![0.0; 4];
        scheme.realize_into(&mut Lcg128::new(), &mut out);
    }
}

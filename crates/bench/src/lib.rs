//! Shared helpers for the benchmark harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod harness;
pub mod hotpath;

use parmonc_sde::{EulerScheme, OutputGrid, PaperDiffusion};

/// A laptop-scale version of the paper's diffusion workload: same
/// 2-D linear SDE and 1000×2 output matrix, but a coarser mesh so one
/// realization costs milliseconds instead of 7.7 s.
///
/// `steps_per_point` plays the paper's `stride = 10^5`; with the
/// default 20 the realization costs ≈ 20 000 Euler steps.
#[derive(Debug, Clone)]
pub struct ScaledDiffusion {
    scheme: EulerScheme<PaperDiffusion>,
}

impl ScaledDiffusion {
    /// Output rows (the paper's 1000 time points).
    pub const POINTS: usize = 1000;

    /// Creates the workload with the given per-point stride.
    #[must_use]
    pub fn new(steps_per_point: usize) -> Self {
        // Keep the final time at 100 like the paper: h = 0.1/stride.
        let h = 0.1 / steps_per_point as f64;
        Self {
            scheme: EulerScheme::new(
                PaperDiffusion::default(),
                h,
                OutputGrid::new(Self::POINTS, steps_per_point),
            ),
        }
    }

    /// The underlying scheme.
    #[must_use]
    pub fn scheme(&self) -> &EulerScheme<PaperDiffusion> {
        &self.scheme
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_diffusion_shape() {
        let w = ScaledDiffusion::new(5);
        assert_eq!(w.scheme().grid().points, 1000);
        assert_eq!(w.scheme().grid().total_steps(), 5000);
        // Final time stays 100 like the paper.
        let t_end = w.scheme().grid().time(999, w.scheme().h());
        assert!((t_end - 100.0).abs() < 1e-9);
    }
}

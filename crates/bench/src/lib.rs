//! Shared helpers for the benchmark harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod harness;
pub mod hotpath;

use std::time::Duration;

use parmonc::{Exchange, Parmonc, ParmoncError, RealizeFn};
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

/// Runs the paper's performance-test program (the Section 4 listing)
/// at laptop scale, optionally with the run monitor attached, and
/// returns the full report.
///
/// # Errors
///
/// Propagates runner errors.
pub fn run_diffusion_threads_report(
    l: u64,
    processors: usize,
    steps_per_point: usize,
    output_dir: &std::path::Path,
    monitor: bool,
) -> Result<parmonc::RunReport, ParmoncError> {
    let workload = ScaledDiffusion::new(steps_per_point);
    let scheme = workload.scheme().clone();
    let difftraj = RealizeFn::new(move |rng, out| scheme.realize_into(rng, out));
    let mut builder = Parmonc::builder(ScaledDiffusion::POINTS, 2)
        .max_sample_volume(l)
        .processors(processors)
        .exchange(Exchange::EveryRealization)
        .averaging_period(Duration::ZERO)
        .output_dir(output_dir);
    if monitor {
        builder = builder.monitor();
    }
    builder.run(difftraj)
}

/// Runs the paper's performance-test program (the Section 4 listing)
/// at laptop scale and returns `(T_comp_seconds, mean_tau_seconds)`.
///
/// # Errors
///
/// Propagates runner errors.
pub fn run_diffusion_threads(
    l: u64,
    processors: usize,
    steps_per_point: usize,
    output_dir: &std::path::Path,
) -> Result<(f64, f64), ParmoncError> {
    let report = run_diffusion_threads_report(l, processors, steps_per_point, output_dir, false)?;
    Ok((
        report.elapsed.as_secs_f64(),
        report.mean_time_per_realization,
    ))
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

    #[test]
    fn thread_harness_runs() {
        let dir = std::env::temp_dir().join(format!("parmonc-benchlib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (t_comp, tau) = run_diffusion_threads(8, 2, 2, &dir).unwrap();
        assert!(t_comp > 0.0);
        assert!(tau > 0.0);
    }
}

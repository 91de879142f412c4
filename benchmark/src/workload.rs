//! The four workloads: which realization routine, which exchange mode,
//! which transport the two-rank arm uses, and how many realizations.

use std::path::Path;

use parmonc::{Exchange, Parmonc, ParmoncBuilder, RealizationStream, Realize};
use parmonc_sde::{EulerScheme, OutputGrid, PaperDiffusion};

/// Output points of the SDE path (the paper's 1000 time points).
const SDE_POINTS: usize = 1000;
/// Euler steps between output points: 20 000 steps per realization.
const SDE_STRIDE: usize = 20;
/// Mesh size: the final time stays 100 as in the paper.
const SDE_H: f64 = 0.1 / SDE_STRIDE as f64;

/// Which user routine simulates one realization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routine {
    /// 1000×2 Euler path of the paper's diffusion, 20 steps per point.
    Sde,
    /// 1×1, a single `next_f64`.
    Free,
    /// 1000×2 filled by one `fill_f64` of 2 000 draws.
    Matrix,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// Why this workload exists (one line, printed in the report).
    pub why: &'static str,
    /// The realization routine.
    pub routine: Routine,
    /// When subtotals are shipped.
    pub exchange: Exchange,
    /// Whether the two-rank arm runs over loopback TCP, not threads.
    pub tcp: bool,
    /// Sample volume L of one run.
    pub volume: u64,
    /// Realizations per replay block (one span covers this many calls).
    pub block: usize,
}

/// The benchmark's workloads. The volumes make one (m=1, m=2) pair of
/// runs last about a second on the two-core box the benchmark was sized
/// on: many short repetitions are steadier there than a few long ones
/// (`benchmark/README.md`, "Sizing").
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sde_strict_threads",
        why: "the paper's section 4 program: sde and normal draws do nearly all the work, so \
              exchange and codec changes must not move it",
        routine: Routine::Sde,
        exchange: Exchange::EveryRealization,
        tcp: false,
        volume: 800,
        block: 64,
    },
    Workload {
        name: "free_strict_threads",
        why: "near-free realization under strict exchange: only runtime overhead (positioning, \
              clocks, 64-byte encode, mpi send/recv, absorb) is left to time",
        routine: Routine::Free,
        exchange: Exchange::EveryRealization,
        tcp: false,
        volume: 2_000_000,
        block: 4096,
    },
    Workload {
        name: "free_periodic_threads",
        why: "the recommended periodic mode sends one final subtotal, so it bypasses the exchange \
              plane: exchange, codec and transport changes must not move it",
        routine: Routine::Free,
        exchange: Exchange::Periodic,
        tcp: false,
        volume: 6_000_000,
        block: 4096,
    },
    Workload {
        name: "matrix_strict_tcp",
        why: "32 KB subtotals through encode, frame, loopback socket, decode and merge after \
              every realization, and the bulk fill_f64 draw path beside the scalar one",
        routine: Routine::Matrix,
        exchange: Exchange::EveryRealization,
        tcp: true,
        volume: 50_000,
        block: 64,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Realization matrix shape `(nrow, ncol)`.
    pub fn shape(&self) -> (usize, usize) {
        match self.routine {
            Routine::Free => (1, 1),
            Routine::Sde | Routine::Matrix => (SDE_POINTS, 2),
        }
    }

    /// Integrator steps per realization (0 off the SDE workload).
    pub fn steps_per_realization(&self) -> u64 {
        match self.routine {
            Routine::Sde => (SDE_POINTS * SDE_STRIDE) as u64,
            Routine::Free | Routine::Matrix => 0,
        }
    }

    /// The run configuration every arm shares; the caller adds the
    /// transport. No monitor, no spans, no fault plan; `pass_period`
    /// stays at its 600 s default, so a periodic run sends only the
    /// final subtotal.
    pub fn builder(
        &self,
        seqnum: u64,
        processors: usize,
        volume: u64,
        dir: &Path,
    ) -> ParmoncBuilder {
        let (nrow, ncol) = self.shape();
        Parmonc::builder(nrow, ncol)
            .max_sample_volume(volume)
            .seqnum(seqnum)
            .processors(processors)
            .exchange(self.exchange)
            .output_dir(dir)
    }

    /// The analytic mean of matrix cell `cell` (row-major): 0.5 for the
    /// uniform routines, `ξ(0) + C·t` for the SDE.
    pub fn exact_mean(&self, cell: usize) -> f64 {
        match self.routine {
            Routine::Free | Routine::Matrix => 0.5,
            Routine::Sde => {
                let t = OutputGrid::new(SDE_POINTS, SDE_STRIDE).time(cell / 2, SDE_H);
                PaperDiffusion::default().exact_mean(cell % 2, t)
            }
        }
    }
}

/// [`Routine::Free`]: one base random number.
#[derive(Debug, Clone, Copy)]
pub struct Free;

impl Realize for Free {
    fn realize(&self, rng: &mut RealizationStream, out: &mut [f64]) {
        out[0] = rng.next_f64();
    }
}

/// [`Routine::Matrix`]: the whole matrix from one bulk fill.
#[derive(Debug, Clone, Copy)]
pub struct Matrix;

impl Realize for Matrix {
    fn realize(&self, rng: &mut RealizationStream, out: &mut [f64]) {
        rng.fill_f64(out);
    }
}

/// [`Routine::Sde`]: the paper's `difftraj` at laptop scale.
#[derive(Debug, Clone)]
pub struct SdePath(EulerScheme<PaperDiffusion>);

impl SdePath {
    /// The scheme with the benchmark's mesh and output grid.
    pub fn new() -> Self {
        Self(EulerScheme::new(
            PaperDiffusion::default(),
            SDE_H,
            OutputGrid::new(SDE_POINTS, SDE_STRIDE),
        ))
    }
}

impl Realize for SdePath {
    fn realize(&self, rng: &mut RealizationStream, out: &mut [f64]) {
        self.0.realize_into(rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(Workload::find(w.name).unwrap().name, w.name);
        }
        assert!(Workload::find("nope").is_none());
    }

    #[test]
    fn sde_exact_mean_follows_the_drift() {
        let w = Workload::find("sde_strict_threads").unwrap();
        // Row 9 is t = 1.0: ξ(0) + C·t = (1.5, -0.5).
        assert!((w.exact_mean(18) - 1.5).abs() < 1e-12);
        assert!((w.exact_mean(19) + 0.5).abs() < 1e-12);
        assert_eq!(w.steps_per_realization(), 20_000);
    }
}

//! A call-compatible shim for the paper's C API (Section 3.2).
//!
//! The paper's main program is
//!
//! ```c
//! parmoncc(difftraj, &nrow, &ncol, &maxsv, &res, &seqnum,
//!          &perpass, &peraver);
//! ```
//!
//! [`parmoncc`] mirrors that argument list one-for-one (with `perpass`
//! and `peraver` in *minutes*, as in the paper), so the Section 4
//! listing ports mechanically.
//!
//! # A veneer, not a second runner
//!
//! `parmoncc` contains no simulation logic of its own: it maps its
//! eight arguments onto a [`Parmonc`] builder chain and calls
//! [`ParmoncBuilder::run`](crate::ParmoncBuilder::run) — nothing more.
//! A `parmoncc(...)` call and the equivalent builder chain (same shape,
//! volume, `seqnum`, periods, and `default_processors()` processor
//! count) therefore produce *bit-identical* estimates: same RNG stream
//! assignment, same formula-(5) averaging, same `RunReport.summary`.
//! The `compat_and_builder_reports_are_bit_identical` test pins this
//! down.
//!
//! New code should prefer [`crate::prelude`] and the [`Parmonc`]
//! builder, which add the knobs the C API never had (deadline, error
//! target, exchange mode, output dir, and the
//! [`Transport`](crate::Transport) backend selector).

use std::time::Duration;

use crate::config::Resume;
use crate::error::ParmoncError;
use crate::realize::Realize;
use crate::runner::{Parmonc, RunReport};

/// Runs a simulation with the paper's `parmoncc` argument list.
///
/// `res` follows the paper: `0` = new simulation, `1` = resume the
/// previous one (any other value is rejected). `perpass`/`peraver` are
/// in minutes. Results go to `parmonc_data/` under the current working
/// directory, exactly like the original.
///
/// # Errors
///
/// Returns [`ParmoncError::Config`] for an invalid `res` and
/// propagates all runner errors.
///
/// # Examples
///
/// ```no_run
/// use parmonc::compat::parmoncc;
/// use parmonc::RealizeFn;
///
/// let difftraj = RealizeFn::new(|rng, out| {
///     for entry in out.iter_mut() {
///         *entry = rng.next_f64();
///     }
/// });
/// // The paper's Section 4 listing:
/// let report = parmoncc(difftraj, 1000, 2, 1_000_000_000, 1, 2, 10, 20)?;
/// # let _ = report;
/// # Ok::<(), parmonc::ParmoncError>(())
/// ```
#[allow(clippy::too_many_arguments)] // the paper's signature, verbatim
pub fn parmoncc<R>(
    realization: R,
    nrow: usize,
    ncol: usize,
    maxsv: u64,
    res: i32,
    seqnum: u64,
    perpass: u64,
    peraver: u64,
) -> Result<RunReport, ParmoncError>
where
    R: Realize + Sync,
{
    let resume = match res {
        0 => Resume::New,
        1 => Resume::Resume,
        other => {
            return Err(ParmoncError::Config(format!(
                "res must be 0 (new) or 1 (resume), got {other}"
            )))
        }
    };
    Parmonc::builder(nrow, ncol)
        .max_sample_volume(maxsv)
        .resume(resume)
        .seqnum(seqnum)
        .processors(default_processors())
        .pass_period(Duration::from_secs(perpass * 60))
        .averaging_period(Duration::from_secs(peraver * 60))
        .run(realization)
}

/// The "MPI world size" of the shim: the paper's program inherits it
/// from `mpirun`; we inherit it from the host's available parallelism.
#[must_use]
pub fn default_processors() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realize::RealizeFn;
    use parmonc_testkit::TempDir;
    use std::sync::Mutex;

    /// Serializes the tests that change the process-wide current
    /// directory (the shim always writes to `parmonc_data/` under cwd).
    static CWD_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `body` with cwd set to a fresh scratch directory, restoring
    /// the original cwd afterwards.
    fn in_scratch_cwd<T>(tag: &str, body: impl FnOnce() -> T) -> (TempDir, T) {
        let dir = TempDir::new(&format!("compat-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let prev = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let out = body();
        std::env::set_current_dir(prev).unwrap();
        (dir, out)
    }

    #[test]
    fn rejects_invalid_res_flag() {
        let r = RealizeFn::new(|_rng: &mut crate::RealizationStream, out: &mut [f64]| {
            out[0] = 1.0;
        });
        let err = parmoncc(r, 1, 1, 10, 2, 0, 10, 20).unwrap_err();
        assert!(err.to_string().contains("res must be 0"));
    }

    #[test]
    fn default_processors_is_positive() {
        assert!(default_processors() >= 1);
    }

    #[test]
    fn shim_runs_a_simulation_in_cwd_style_dir() {
        let _guard = CWD_LOCK.lock().unwrap();
        let (dir, result) = in_scratch_cwd("smoke", || {
            parmoncc(
                RealizeFn::new(|rng, out| out[0] = rng.next_f64()),
                1,
                1,
                2_000,
                0,
                0,
                10,
                20,
            )
        });
        let report = result.unwrap();
        assert_eq!(report.total_volume, 2_000);
        assert!((report.summary.means[0] - 0.5).abs() < 0.05);
        assert!(dir.join("parmonc_data/results/func.dat").is_file());
    }

    #[test]
    fn compat_and_builder_reports_are_bit_identical() {
        // The shim is a veneer: for the same fixed seed (seqnum) and
        // shape, its report must be *bit-identical* to the equivalent
        // builder call — not merely statistically close.
        let _guard = CWD_LOCK.lock().unwrap();
        let difftraj = || {
            RealizeFn::new(|rng: &mut crate::RealizationStream, out: &mut [f64]| {
                out[0] = rng.next_f64();
                out[1] = out[0] * out[0];
            })
        };
        let (_, shim) = in_scratch_cwd("veneer-shim", || {
            parmoncc(difftraj(), 1, 2, 3_000, 0, 7, 10, 20).unwrap()
        });
        let (_, built) = in_scratch_cwd("veneer-builder", || {
            Parmonc::builder(1, 2)
                .max_sample_volume(3_000)
                .resume(Resume::New)
                .seqnum(7)
                .processors(default_processors())
                .pass_period(Duration::from_secs(10 * 60))
                .averaging_period(Duration::from_secs(20 * 60))
                .run(difftraj())
                .unwrap()
        });
        // Every deterministic field of the report matches exactly;
        // only wall-clock timing fields may differ between the runs.
        assert_eq!(shim.summary, built.summary);
        assert_eq!(shim.total_volume, built.total_volume);
        assert_eq!(shim.new_volume, built.new_volume);
        assert_eq!(shim.resumed_volume, built.resumed_volume);
        assert_eq!(shim.processors, built.processors);
        assert_eq!(shim.worker_volumes, built.worker_volumes);
        assert_eq!(shim.lost_workers, built.lost_workers);
        assert_eq!(shim.reassigned_realizations, built.reassigned_realizations);
    }
}

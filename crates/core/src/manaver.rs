//! The `manaver` command (paper Section 3.4): manual averaging of the
//! subtotal sample moments left on disk by a terminated job.
//!
//! When a cluster job is killed, the last periodic save-point on rank 0
//! may lag behind what the workers actually simulated — but each worker
//! kept rewriting its own cumulative subtotal file. `manaver` merges the
//! baseline (results of completed previous runs; absent, and so empty,
//! after a fresh `res = 0` start) with every worker subtotal file,
//! rewrites `func.dat`/`func_ci.dat`/`func_log.dat` and the checkpoint,
//! and removes the worker files.

use std::path::Path;

use parmonc_stats::report::LogReport;
use parmonc_stats::MatrixSummary;

use crate::error::ParmoncError;
use crate::files::ResultsDir;

/// Outcome of a manual averaging pass.
#[derive(Debug)]
pub struct ManaverReport {
    /// The averaged estimates after folding in the worker subtotals.
    pub summary: MatrixSummary,
    /// Total sample volume after averaging.
    pub total_volume: u64,
    /// Volume recovered from worker files (beyond the baseline).
    pub recovered_volume: u64,
    /// Number of worker files folded in.
    pub workers_found: usize,
}

/// Runs manual averaging in `output_dir` (which must contain
/// `parmonc_data/`).
///
/// # Errors
///
/// * [`ParmoncError::NothingToResume`] — no `parmonc_data` directory;
/// * [`ParmoncError::NoWorkerData`] — no worker subtotal files to fold
///   in (a rank writes its first one 500 ms into its loop, so a job
///   killed sooner leaves none);
/// * I/O, parse and shape errors from the files layer.
pub fn manaver(output_dir: impl AsRef<Path>) -> Result<ManaverReport, ParmoncError> {
    let dir = ResultsDir::open(output_dir)?;
    let subtotals = dir.load_worker_subtotals()?;
    if subtotals.is_empty() {
        return Err(ParmoncError::NoWorkerData {
            dir: dir.root().to_path_buf(),
        });
    }

    let (_, first) = &subtotals[0];
    let mut total = dir.baseline(first.acc.shape())?;
    let baseline_volume = total.count();

    let mut compute_seconds = 0.0;
    for (_, sub) in &subtotals {
        total.merge(&sub.acc)?;
        compute_seconds += sub.compute_seconds;
    }
    let recovered = total.count() - baseline_volume;

    let summary = total.summary();
    let mean_time = if recovered == 0 {
        0.0
    } else {
        compute_seconds / recovered as f64
    };
    // seqnum is unknown to manaver (it post-processes a dead job); the
    // journal's last record is the best available provenance.
    let seqnum = dir.read_experiments()?.last().map_or(0, |rec| rec.seqnum);
    let log = LogReport {
        sample_volume: total.count(),
        mean_time_per_realization: mean_time,
        eps_max: summary.eps_max,
        rho_max: summary.rho_max,
        sigma2_max: summary.sigma2_max,
        processors: subtotals.len(),
        seqnum,
    };
    dir.save_point(&summary, &log, &total)?;
    dir.clear_worker_subtotals()?;

    Ok(ManaverReport {
        summary,
        total_volume: total.count(),
        recovered_volume: recovered,
        workers_found: subtotals.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Subtotal;
    use parmonc_stats::MatrixAccumulator;

    fn tempdir(name: &str) -> parmonc_testkit::TempDir {
        let dir = parmonc_testkit::TempDir::new(&format!("manaver-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn subtotal(values: &[f64], secs: f64) -> Subtotal {
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        for v in values {
            acc.add(&[*v]).unwrap();
        }
        Subtotal {
            acc,
            compute_seconds: secs,
        }
    }

    #[test]
    fn errors_without_data_dir() {
        let dir = tempdir("nodir");
        assert!(matches!(
            manaver(dir.join("missing")),
            Err(ParmoncError::NothingToResume { .. })
        ));
    }

    #[test]
    fn errors_without_worker_files() {
        let dir = tempdir("noworkers");
        ResultsDir::create(&dir).unwrap();
        assert!(matches!(
            manaver(&dir),
            Err(ParmoncError::NoWorkerData { .. })
        ));
    }

    #[test]
    fn averages_worker_files_without_baseline() {
        let dir = tempdir("fresh");
        let rd = ResultsDir::create(&dir).unwrap();
        rd.save_worker_subtotal(0, &subtotal(&[1.0, 3.0], 2.0))
            .unwrap();
        rd.save_worker_subtotal(1, &subtotal(&[5.0], 1.0)).unwrap();
        let report = manaver(&dir).unwrap();
        assert_eq!(report.total_volume, 3);
        assert_eq!(report.recovered_volume, 3);
        assert_eq!(report.workers_found, 2);
        assert!((report.summary.means[0] - 3.0).abs() < 1e-12);
        // Worker files consumed; checkpoint written.
        assert!(rd.load_worker_subtotals().unwrap().is_empty());
        assert_eq!(rd.load_checkpoint().unwrap().unwrap().count(), 3);
    }

    #[test]
    fn averages_on_top_of_baseline() {
        let dir = tempdir("baseline");
        let rd = ResultsDir::create(&dir).unwrap();
        let mut baseline = MatrixAccumulator::new(1, 1).unwrap();
        for _ in 0..10 {
            baseline.add(&[2.0]).unwrap();
        }
        rd.save_baseline(&baseline).unwrap();
        rd.save_worker_subtotal(0, &subtotal(&[4.0, 4.0], 1.0))
            .unwrap();
        let report = manaver(&dir).unwrap();
        assert_eq!(report.total_volume, 12);
        assert_eq!(report.recovered_volume, 2);
        // mean = (10*2 + 2*4)/12
        assert!((report.summary.means[0] - 28.0 / 12.0).abs() < 1e-12);
    }

    /// State files get no directory fsync, so a lost rename leaves a
    /// worker's older generation in place. `manaver` then gives exactly
    /// the baseline merged with that generation: stale, never wrong.
    #[test]
    fn a_stale_worker_file_averages_to_its_own_generation() {
        let dir = tempdir("stale");
        let rd = ResultsDir::create(&dir).unwrap();
        let baseline = subtotal(&[0.3, 1.7, -2.9], 0.0).acc;
        rd.save_baseline(&baseline).unwrap();
        let older = subtotal(&[0.1, 0.7], 1.0);
        rd.save_worker_subtotal(0, &subtotal(&[0.1, 0.7, 0.2], 1.5))
            .unwrap();
        rd.save_worker_subtotal(0, &older).unwrap();
        let report = manaver(&dir).unwrap();
        let mut expected = baseline;
        expected.merge(&older.acc).unwrap();
        let total = rd.load_checkpoint().unwrap().unwrap();
        assert_eq!((total.count(), report.recovered_volume), (5, 2));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(total.sums()), bits(expected.sums()));
        assert_eq!(bits(total.sums_sq()), bits(expected.sums_sq()));
        assert_eq!(report.summary, expected.summary());
    }

    #[test]
    fn rejects_baseline_shape_mismatch() {
        let dir = tempdir("shape");
        let rd = ResultsDir::create(&dir).unwrap();
        rd.save_baseline(&MatrixAccumulator::new(2, 2).unwrap())
            .unwrap();
        rd.save_worker_subtotal(0, &subtotal(&[1.0], 0.5)).unwrap();
        assert!(matches!(
            manaver(&dir),
            Err(ParmoncError::ResumeShapeMismatch { .. })
        ));
    }

    #[test]
    fn manaver_then_resume_is_consistent() {
        // Simulate a crashed job: baseline + worker files; manaver must
        // produce a checkpoint a subsequent res=1 run can consume.
        let dir = tempdir("resume-chain");
        let rd = ResultsDir::create(&dir).unwrap();
        rd.save_worker_subtotal(0, &subtotal(&[1.0, 2.0, 3.0], 1.0))
            .unwrap();
        manaver(&dir).unwrap();
        let loaded = rd.load_checkpoint().unwrap().unwrap();
        assert_eq!(loaded.count(), 3);
        assert_eq!(loaded.sums()[0], 6.0);
    }
}

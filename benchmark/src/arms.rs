//! One whole job of a workload: the single-rank arm, or the two-rank
//! arm over threads or loopback TCP. Wall time is taken around the
//! whole `.run()` call, set-up and final save included.

use std::path::Path;
use std::time::{Duration, Instant};

use parmonc::{NetOptions, ParmoncError, Realize, RunReport, Transport};

use crate::check::Observed;
use crate::workload::Workload;

/// How long the TCP worker waits for the collector to publish its
/// address before giving the run up as failed.
const ADDR_WAIT: Duration = Duration::from_secs(10);

/// One finished run: its wall time and what it produced (or why it
/// did not).
#[derive(Debug)]
pub struct Run {
    /// Wall seconds around the whole run.
    pub wall_s: f64,
    /// The run's outputs, or the error that ended it.
    pub outcome: Result<Observed, String>,
}

/// Runs one job of `processors` ranks (1 or 2) and `volume`
/// realizations in `dir`, which is wiped first.
pub fn run_once<R: Realize + Sync>(
    w: &Workload,
    realize: &R,
    seqnum: u64,
    processors: usize,
    volume: u64,
    dir: &Path,
) -> Run {
    let _ = std::fs::remove_dir_all(dir);
    let (wall_s, report) = if processors == 2 && w.tcp {
        run_tcp(w, realize, seqnum, volume, dir)
    } else {
        let started = Instant::now();
        let report = w
            .builder(seqnum, processors, volume, dir)
            .transport(Transport::Threads)
            .run(realize);
        (started.elapsed().as_secs_f64(), report)
    };
    Run {
        wall_s,
        outcome: report.map_err(|e| e.to_string()).and_then(observe),
    }
}

/// The two-rank arm over loopback TCP: a collector thread listening on
/// an ephemeral port and one worker thread that dials it. Timed from
/// spawning the collector to its `join()`.
fn run_tcp<R: Realize + Sync>(
    w: &Workload,
    realize: &R,
    seqnum: u64,
    volume: u64,
    dir: &Path,
) -> (f64, Result<RunReport, ParmoncError>) {
    let collector_dir = dir.join("collector");
    let worker_dir = dir.join("worker");
    std::thread::scope(|scope| {
        let started = Instant::now();
        let collector = scope.spawn(|| {
            w.builder(seqnum, 2, volume, &collector_dir)
                .net(NetOptions::listen("127.0.0.1:0"))
                .run(realize)
        });
        let worker = scope.spawn(|| {
            let addr = wait_for_addr(&collector_dir)?;
            w.builder(seqnum, 2, volume, &worker_dir)
                .net(NetOptions::join(addr))
                .run_worker(realize)
        });
        let report = collector.join().expect("the collector thread panicked");
        let wall_s = started.elapsed().as_secs_f64();
        let worker = worker.join().expect("the worker thread panicked");
        (wall_s, report.and_then(|r| worker.map(|()| r)))
    })
}

/// Polls for `parmonc_data/collector.addr`, the file a collector bound
/// to port 0 publishes its address in.
fn wait_for_addr(collector_dir: &Path) -> Result<String, ParmoncError> {
    let path = collector_dir.join("parmonc_data").join("collector.addr");
    let deadline = Instant::now() + ADDR_WAIT;
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        if Instant::now() >= deadline {
            return Err(ParmoncError::Config(format!(
                "the collector never wrote {}",
                path.display()
            )));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn observe(report: RunReport) -> Result<Observed, String> {
    let path = report.results_dir.checkpoint_path();
    let checkpoint =
        std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(Observed {
        new_volume: report.new_volume,
        lost_workers: report.lost_workers.len(),
        reassigned: report.reassigned_realizations,
        means: report.summary.means,
        abs_errors: report.summary.abs_errors,
        checkpoint,
    })
}

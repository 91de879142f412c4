//! Shared by the chaos, conformance and observability integration
//! tests; no one test binary calls every helper.
#![allow(dead_code)]

use parmonc::{StreamHierarchy, StreamId};
use parmonc_stats::{MatrixAccumulator, MatrixSummary};

/// The outcome oracle (Lubachevsky's criterion): what a run whose
/// routine fills its `nrow × ncol` output with `next_f64` draws must
/// report, bit for bit, if rank `r` contributed its first
/// `worker_volumes[r]` realization streams of experiment `seqnum` — the
/// serial merge of those streams in rank order. It holds whatever
/// befell the run (a crash, drops, a reassignment: subtotals are
/// cumulative, so a degraded run is the same estimator over the streams
/// it reports), and however many subtotals crossed.
pub fn serial_merge(seqnum: u64, shape: (usize, usize), worker_volumes: &[u64]) -> MatrixSummary {
    let mut total = MatrixAccumulator::new(shape.0, shape.1).unwrap();
    for (rank, &volume) in worker_volumes.iter().enumerate() {
        total
            .merge(&rank_streams(seqnum, shape, rank, volume))
            .unwrap();
    }
    total.summary()
}

/// What rank `rank` accumulates over its first `volume` realization
/// streams of experiment `seqnum` under the `next_f64` routine: its
/// cumulative subtotal — its state file's contents — after `volume`
/// realizations.
pub fn rank_streams(
    seqnum: u64,
    (nrow, ncol): (usize, usize),
    rank: usize,
    volume: u64,
) -> MatrixAccumulator {
    let mut acc = MatrixAccumulator::new(nrow, ncol).unwrap();
    let mut out = vec![0.0; nrow * ncol];
    let mut cursor = StreamHierarchy::default()
        .cursor(StreamId::new(seqnum, rank as u64, 0))
        .unwrap();
    for _ in 0..volume {
        let mut stream = cursor.next_stream().unwrap();
        out.fill_with(|| stream.next_f64());
        acc.add(&out).unwrap();
    }
    acc
}

/// Parses a run's full event trace (every line schema-validated by
/// construction of [`parmonc_obs::schema::parse_line`]).
pub fn trace_events(report: &parmonc::RunReport) -> Vec<parmonc_obs::Event> {
    let path = report.results_dir.run_metrics_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    text.lines()
        .map(|line| {
            parmonc_obs::schema::parse_line(line)
                .unwrap_or_else(|e| panic!("invalid trace line {line:?}: {e}"))
        })
        .collect()
}

/// Asserts that a monitored run's report carries the summary its own
/// trace file folds to — the live fold saw every line the file holds,
/// and lost none — and that `run_completed` reports exactly rank 0's
/// `message_received` lines.
pub fn assert_live_fold_matches_the_trace(report: &parmonc::RunReport) {
    use parmonc_obs::{EventKind, MonitorSummary};

    let events = trace_events(report);
    let live = report.monitor.as_ref().expect("monitored run");
    assert_eq!(live.dropped_events, 0, "the trace lost lines");
    assert_eq!(*live, MonitorSummary::from_events(&events));

    let received = events.iter().filter_map(|e| match e.kind {
        EventKind::MessageReceived { bytes, .. } if e.rank == Some(0) => Some(bytes),
        _ => None,
    });
    let rank0 = (received.clone().count() as u64, received.sum::<u64>());
    let completed = events.iter().find_map(|e| match e.kind {
        EventKind::RunCompleted {
            messages, bytes, ..
        } => Some((messages, bytes)),
        _ => None,
    });
    assert_eq!(completed, Some(rank0));
    assert!(rank0.0 > 0, "rank 0 received nothing");
}

/// Asserts the process backend left nothing behind: no live worker
/// children of this process, no zombies, and no `parmonc-ipc-*` socket
/// directories belonging to this PID.
pub fn assert_no_orphans() {
    let me = std::process::id();
    let mut orphans = Vec::new();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Field 4 of /proc/pid/stat (after the parenthesized comm) is
        // the parent PID.
        let Some(after_comm) = stat.rsplit(')').next() else {
            continue;
        };
        let mut fields = after_comm.split_whitespace();
        let _state = fields.next();
        let Some(ppid) = fields.next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if ppid != me {
            continue;
        }
        // Our only children are re-executed workers; any survivor with
        // the worker environment is an orphan.
        let environ = std::fs::read(format!("/proc/{pid}/environ")).unwrap_or_default();
        if environ
            .split(|&b| b == 0)
            .any(|kv| kv.starts_with(b"PARMONC_WORKER_SOCKET="))
        {
            orphans.push(pid);
        }
    }
    assert!(orphans.is_empty(), "orphaned worker processes: {orphans:?}");

    let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&format!("parmonc-ipc-{me}-")))
        })
        .map(|e| e.path())
        .collect();
    assert!(
        leftovers.is_empty(),
        "socket dirs not removed: {leftovers:?}"
    );
}

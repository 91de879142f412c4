//! Transport conformance: the thread, process, and TCP backends must
//! be observationally equivalent.
//!
//! Because every rank completes exactly its assigned quota of
//! leapfrogged RNG streams, the estimates are *bit-identical* across
//! backends for the same configuration and seed — message timing and
//! ordering never enter the averaging. These tests pin that down, plus
//! the lifecycle guarantees of the process backend: every worker
//! process is reaped and the socket directory removed, even after a
//! fault-injected run.
//!
//! The TCP backend's workers run here as in-process threads dialing
//! the collector over loopback — the wire conversation is the real
//! one, only the hosts are simulated. Its extra guarantees (elastic
//! mid-run joins stay bit-identical; a joiner after budget
//! reassignment is rejected cleanly) are covered at the end.
//!
//! # Re-execution discipline
//!
//! `Transport::Processes` re-executes the current binary — here, this
//! libtest binary with a `[test_fn_name, "--exact"]` filter — so each
//! process-backend test function runs *again* inside every worker up to
//! the point where `run()` diverts into the worker loop. Three rules
//! follow:
//!
//! * output directories must be deterministic (no PID suffixes), or the
//!   workers would rebuild a different `RunConfig` than the parent;
//! * destructive setup (`remove_dir_all`) must be skipped in workers
//!   ([`parmonc::ipc::is_worker`]);
//! * in a test that runs both backends, the process run must come
//!   first, so workers divert before reaching the thread run.

mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use common::{
    assert_live_fold_matches_the_trace, assert_no_orphans, rank_streams, serial_merge, trace_events,
};
use parmonc::prelude::{
    Exchange, NetOptions, Parmonc, ParmoncBuilder, RealizeFn, RunReport, Transport,
};
use parmonc_faults::FaultPlan;

/// Serializes the tests in this binary: each spawns child processes of
/// this same test process, so the no-orphan scan below must not see a
/// sibling test's (legitimate) workers.
static SEQ: Mutex<()> = Mutex::new(());

fn uniform() -> impl parmonc::Realize + Sync {
    RealizeFn::new(|rng, out| {
        for o in out.iter_mut() {
            *o = rng.next_f64();
        }
    })
}

/// A deterministic scratch dir (workers must rebuild the parent's exact
/// `RunConfig`, so no PID suffix), wiped only in the parent.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parmonc-conformance-{name}"));
    if !parmonc::ipc::is_worker() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    dir
}

/// A builder pre-wired for this libtest binary: the re-executed workers
/// get `[test_fn, "--exact"]` so they run exactly the spawning test.
fn builder_for(test_fn: &str, nrow: usize, ncol: usize) -> ParmoncBuilder {
    Parmonc::builder(nrow, ncol).worker_args([test_fn, "--exact"])
}

/// The set of event kinds in a run's monitor trace, every line
/// validated against the schema.
fn trace_kinds(report: &RunReport) -> BTreeSet<&'static str> {
    let path = report.results_dir.run_metrics_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    text.lines()
        .map(|line| {
            parmonc_obs::schema::validate_line(line)
                .unwrap_or_else(|e| panic!("schema violation in {line:?}: {e}"))
        })
        .collect()
}

/// Same config + seed on both backends: bit-identical estimates and the
/// same monitor event vocabulary. The process run comes first (see the
/// module docs) and must leave no orphans.
#[test]
fn process_and_thread_backends_agree() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let configure = |b: ParmoncBuilder, dir: &str| {
        b.max_sample_volume(2_000)
            .processors(4)
            .seqnum(5)
            .exchange(Exchange::EveryRealization)
            .monitor()
            .output_dir(scratch(dir))
    };
    let processes = configure(
        builder_for("process_and_thread_backends_agree", 1, 2),
        "agree-processes",
    )
    .transport(Transport::Processes)
    .run(uniform())
    .unwrap();
    let threads = configure(
        builder_for("process_and_thread_backends_agree", 1, 2),
        "agree-threads",
    )
    .transport(Transport::Threads)
    .run(uniform())
    .unwrap();

    // Bit-identical estimates: the full averaged summary, not a
    // tolerance comparison.
    assert_eq!(processes.summary, threads.summary);
    assert_eq!(processes.total_volume, threads.total_volume);
    assert_eq!(processes.new_volume, threads.new_volume);
    assert_eq!(processes.worker_volumes, threads.worker_volumes);
    assert!(processes.lost_workers.is_empty());
    assert!(threads.lost_workers.is_empty());

    // The process vocabulary is the thread vocabulary plus membership
    // and per-link wire telemetry (timing may reorder events, but both
    // backends must surface the same *kinds* of observability): the
    // children join through the lease handshake like any TCP worker,
    // and a shared-memory run has no wire to measure.
    let mut process_kinds = trace_kinds(&processes);
    assert!(
        process_kinds.remove("worker_joined"),
        "join events recorded"
    );
    assert!(process_kinds.remove("worker_left"), "leave events recorded");
    assert!(
        process_kinds.remove("wire_stats"),
        "socket backend must flush its wire counters on shutdown"
    );
    assert_eq!(process_kinds, trace_kinds(&threads));

    // Worker-side sinks flushed cleanly on exit: nothing was silently
    // dropped, locally or on the forwarding path.
    let summary = processes.monitor.as_ref().expect("monitored run");
    assert_eq!(summary.dropped_events, 0);
    assert_eq!(summary.forwarded_dropped_events, 0);
    assert_eq!(summary.workers_joined, 3);
    assert_eq!(summary.workers_left, 3);

    assert_no_orphans();
}

/// A fault-injected process run — one rank crashed, messages dropped —
/// still completes at full volume and still reaps every worker.
#[test]
fn faulted_process_run_shuts_down_cleanly() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let report = builder_for("faulted_process_run_shuts_down_cleanly", 1, 1)
        .max_sample_volume(2_000)
        .processors(4)
        .seqnum(3)
        .exchange(Exchange::EveryRealization)
        .faults(FaultPlan::new(7).crash_rank(2, 20).drop_fraction(0.05))
        .heartbeat_period(Duration::from_millis(10))
        .liveness_timeout(Duration::from_millis(300))
        .monitor()
        .transport(Transport::Processes)
        .output_dir(scratch("faulted-processes"))
        .run(uniform())
        .unwrap();

    assert!(
        report.new_volume >= 2_000,
        "volume {} must reach the target",
        report.new_volume
    );
    assert!(
        report.lost_workers.contains(&2),
        "expected rank 2 lost, got {:?}",
        report.lost_workers
    );
    assert!(report.reassigned_realizations > 0);

    // Even under injected faults the surviving workers flush their
    // sinks (and wire counters) on exit, and nothing was silently
    // dropped by a worker-side sink on the way out.
    assert!(
        trace_kinds(&report).contains("wire_stats"),
        "fault-injected run still flushed wire counters on exit"
    );
    let summary = report.monitor.as_ref().expect("monitored run");
    assert_eq!(summary.dropped_events, 0);
    assert_eq!(summary.forwarded_dropped_events, 0);

    assert_no_orphans();
}

/// The launcher's failure path: children that never reach the `run()`
/// call that launched them (here, a libtest filter matching no test)
/// exit without joining. The launch fails fast — well inside the join
/// deadline — with every child reaped and the socket directory gone.
#[test]
fn failed_launch_reaps_every_child() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let started = std::time::Instant::now();
    let err = builder_for("no_such_test_function", 1, 1)
        .max_sample_volume(100)
        .processors(3)
        .transport(Transport::Processes)
        .output_dir(scratch("failed-launch"))
        .run(uniform())
        .unwrap_err();
    assert!(
        matches!(err, parmonc::ParmoncError::Io { .. }),
        "expected the launch itself to fail, got: {err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("exited") && msg.contains("0 of 2 joined"),
        "expected the exited-before-joining diagnosis, got: {msg}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "a failed launch must not sit out the join deadline ({:?})",
        started.elapsed()
    );
    assert_no_orphans();
}

/// The process backend honors resumption exactly like the thread
/// backend: on top of an identical thread-backend baseline run, a
/// `Resume::Resume` continuation on the process backend produces a
/// report bit-identical to a thread-backend continuation.
///
/// The baseline runs are guarded with [`parmonc::ipc::is_worker`]: a
/// re-executed worker must fall through straight to the (single)
/// process-backend `run()` call so it diverts with the continuation's
/// config, not the baseline's. A test function may contain only one
/// process-backend run for exactly this reason.
#[test]
fn process_backend_resumes_bit_identically() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    use parmonc::prelude::Resume;
    let run = |transport: Transport, dir: &'static str, resume: Resume, seqnum: u64| {
        builder_for("process_backend_resumes_bit_identically", 1, 1)
            .max_sample_volume(1_000)
            .processors(3)
            .seqnum(seqnum)
            .resume(resume)
            .transport(transport)
            .output_dir(scratch_keep(dir))
            .run(uniform())
            .unwrap()
    };
    if !parmonc::ipc::is_worker() {
        // Wipe once (scratch_keep never wipes: the continuation must
        // see the baseline's results), then lay down identical
        // thread-backend baselines for both continuations.
        for dir in ["resume-processes", "resume-threads"] {
            let _ = std::fs::remove_dir_all(scratch_keep(dir));
        }
        let _ = run(Transport::Threads, "resume-processes", Resume::New, 1);
        let _ = run(Transport::Threads, "resume-threads", Resume::New, 1);
    }
    let p = run(Transport::Processes, "resume-processes", Resume::Resume, 2);
    let t = run(Transport::Threads, "resume-threads", Resume::Resume, 2);

    assert_eq!(p.total_volume, 2_000);
    assert_eq!(p.resumed_volume, 1_000);
    assert_eq!(p.summary, t.summary);
    assert_eq!(p.total_volume, t.total_volume);
    assert_eq!(p.resumed_volume, t.resumed_volume);

    assert_no_orphans();
}

/// Like [`scratch`] but never wipes — for multi-run resumption tests
/// that wipe once themselves.
fn scratch_keep(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("parmonc-conformance-{name}"))
}

/// Waits for a TCP collector to record its bound address in
/// `parmonc_data/collector.addr` (the ephemeral-port discovery path).
fn wait_for_addr(dir: &std::path::Path) -> String {
    let path = dir.join("parmonc_data").join("collector.addr");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "collector never wrote {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Same config + seed over TCP (remote workers dialing loopback) and
/// threads: bit-identical estimates, and the TCP trace's vocabulary is
/// exactly the thread run's plus the membership events.
#[test]
fn tcp_and_thread_backends_agree() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let configure = |b: ParmoncBuilder, dir: PathBuf| {
        b.max_sample_volume(2_000)
            .processors(3)
            .seqnum(5)
            .exchange(Exchange::EveryRealization)
            .monitor()
            .output_dir(dir)
    };
    let collector_dir = scratch("tcp-agree-collector");
    let collector = {
        let dir = collector_dir.clone();
        std::thread::spawn(move || {
            configure(Parmonc::builder(1, 2), dir)
                .net(NetOptions::listen("127.0.0.1:0"))
                .run(uniform())
        })
    };
    let addr = wait_for_addr(&collector_dir);
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            // Each worker writes to its own directory, as a remote
            // host would (the config digest does not cover paths).
            let dir = scratch(&format!("tcp-agree-worker{i}"));
            std::thread::spawn(move || {
                configure(Parmonc::builder(1, 2), dir)
                    .net(NetOptions::join(addr))
                    .run_worker(uniform())
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    let tcp = collector.join().unwrap().unwrap();
    let threads = configure(Parmonc::builder(1, 2), scratch("tcp-agree-threads"))
        .transport(Transport::Threads)
        .run(uniform())
        .unwrap();

    assert_eq!(tcp.summary, threads.summary);
    assert_eq!(tcp.total_volume, threads.total_volume);
    assert_eq!(tcp.new_volume, threads.new_volume);
    assert_eq!(tcp.worker_volumes, threads.worker_volumes);
    assert!(tcp.lost_workers.is_empty());

    // The TCP vocabulary is the thread vocabulary plus membership and
    // per-link wire telemetry.
    let mut tcp_kinds = trace_kinds(&tcp);
    assert!(tcp_kinds.remove("worker_joined"), "join events recorded");
    assert!(tcp_kinds.remove("worker_left"), "leave events recorded");
    assert!(tcp_kinds.remove("wire_stats"), "wire counters recorded");
    assert_eq!(tcp_kinds, trace_kinds(&threads));
    // Forwarded worker events reach the live fold as they reach the file.
    assert_live_fold_matches_the_trace(&tcp);

    let summary = tcp.monitor.expect("monitored run");
    assert_eq!(summary.workers_joined, 2);
    assert_eq!(summary.workers_left, 2);
}

/// Elastic membership: a worker that joins well after the run started
/// is dealt its untouched leapfrog stream range, so the estimate is
/// bit-identical to an equivalent fixed-membership (thread) run.
#[test]
fn mid_run_tcp_joiner_keeps_estimates_bit_identical() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let configure = |b: ParmoncBuilder, dir: PathBuf| {
        b.max_sample_volume(1_500)
            .processors(3)
            .seqnum(9)
            .monitor()
            .output_dir(dir)
    };
    let collector_dir = scratch("tcp-midjoin-collector");
    let collector = {
        let dir = collector_dir.clone();
        std::thread::spawn(move || {
            configure(Parmonc::builder(2, 1), dir)
                .net(NetOptions::listen("127.0.0.1:0"))
                .run(uniform())
        })
    };
    let addr = wait_for_addr(&collector_dir);
    let spawn_worker = |i: usize, delay: Duration| {
        let addr = addr.clone();
        let dir = scratch(&format!("tcp-midjoin-worker{i}"));
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            configure(Parmonc::builder(2, 1), dir)
                .net(NetOptions::join(addr))
                .run_worker(uniform())
        })
    };
    // The first worker joins immediately; the second long after the
    // collector has finished its own quota and is waiting on finals.
    let prompt = spawn_worker(0, Duration::ZERO);
    let late = spawn_worker(1, Duration::from_millis(400));
    prompt.join().unwrap().unwrap();
    late.join().unwrap().unwrap();
    let tcp = collector.join().unwrap().unwrap();

    let threads = configure(Parmonc::builder(2, 1), scratch("tcp-midjoin-threads"))
        .transport(Transport::Threads)
        .run(uniform())
        .unwrap();

    assert!(tcp.lost_workers.is_empty(), "lost: {:?}", tcp.lost_workers);
    assert_eq!(tcp.worker_volumes, threads.worker_volumes);
    assert_eq!(tcp.total_volume, threads.total_volume);
    assert_eq!(tcp.summary, threads.summary);
    let summary = tcp.monitor.expect("monitored run");
    assert_eq!(summary.workers_joined, 2);
}

/// A fault-injected TCP run — one remote worker crashes mid-quota and
/// a fraction of messages are dropped — still completes at full
/// volume: the lost rank's budget is reassigned over the wire exactly
/// as on the in-process backends.
#[test]
fn faulted_tcp_run_completes_at_full_volume() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let configure = |b: ParmoncBuilder, dir: PathBuf| {
        b.max_sample_volume(2_000)
            .processors(3)
            .seqnum(6)
            .exchange(Exchange::EveryRealization)
            .faults(FaultPlan::new(11).crash_rank(2, 20).drop_fraction(0.05))
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(300))
            .output_dir(dir)
    };
    let collector_dir = scratch("tcp-faulted-collector");
    let collector = {
        let dir = collector_dir.clone();
        std::thread::spawn(move || {
            configure(Parmonc::builder(1, 1), dir)
                .net(NetOptions::listen("127.0.0.1:0"))
                .run(uniform())
        })
    };
    let addr = wait_for_addr(&collector_dir);
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let dir = scratch(&format!("tcp-faulted-worker{i}"));
            std::thread::spawn(move || {
                configure(Parmonc::builder(1, 1), dir)
                    .net(NetOptions::join(addr))
                    .run_worker(uniform())
            })
        })
        .collect();
    for w in workers {
        // The crashed worker's loop also returns cleanly: the crash is
        // its *silence*, which the collector must detect remotely.
        w.join().unwrap().unwrap();
    }
    let report = collector.join().unwrap().unwrap();

    assert!(
        report.new_volume >= 2_000,
        "volume {} must reach the target",
        report.new_volume
    );
    assert!(
        report.lost_workers.contains(&2),
        "expected rank 2 lost, got {:?}",
        report.lost_workers
    );
    assert!(report.reassigned_realizations > 0);
}

/// A worker that dials in after its stream range's budget was
/// reassigned (the slot went quiet past the liveness timeout) is
/// rejected cleanly — admitting it would double-count realizations —
/// and the run still completes at full volume without it.
#[test]
fn tcp_joiner_after_budget_reassignment_is_rejected() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let configure = |b: ParmoncBuilder, dir: PathBuf| {
        b.max_sample_volume(3_000)
            .processors(2)
            .seqnum(4)
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(200))
            .output_dir(dir)
    };
    // Slow realizations keep the collector busy long enough for the
    // unjoined slot to be declared lost mid-run.
    let slow = || {
        RealizeFn::new(|rng, out| {
            std::thread::sleep(Duration::from_micros(500));
            for o in out.iter_mut() {
                *o = rng.next_f64();
            }
        })
    };
    let collector_dir = scratch("tcp-exhausted-collector");
    let collector = {
        let dir = collector_dir.clone();
        std::thread::spawn(move || {
            configure(Parmonc::builder(1, 1), dir)
                .net(NetOptions::listen("127.0.0.1:0"))
                .run(slow())
        })
    };
    let addr = wait_for_addr(&collector_dir);
    // Wait past the liveness timeout so the never-joined slot's budget
    // has been reassigned (to the collector itself), then try to join.
    std::thread::sleep(Duration::from_millis(600));
    let err = configure(Parmonc::builder(1, 1), scratch("tcp-exhausted-worker"))
        .net(NetOptions::join(addr))
        .run_worker(slow())
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("rejected") && msg.contains("BudgetExhausted"),
        "expected a clean budget rejection, got: {msg}"
    );

    let report = collector.join().unwrap().unwrap();
    assert_eq!(
        report.new_volume, 3_000,
        "the collector absorbed the budget"
    );
    assert_eq!(report.lost_workers, vec![1]);
}

/// The full resilience story in one run: a worker's link is severed
/// mid-run by the fault plane and heals via the seeded reconnect, the
/// collector itself crashes (scripted) mid-run, and a second collector
/// process resumes the session with `resume_listen` — same epoch, same
/// leases, accumulation restarted from the original baseline. The
/// surviving workers rejoin, re-send their cumulative subtotals
/// (idempotent under replace-then-sum), and the run completes with
/// estimates *bit-identical* to a fault-free thread-backend run — even
/// from an older generation of rank 0's state file.
#[test]
fn severed_and_collector_crashed_tcp_run_resumes_bit_identically() {
    crashed_tcp_run_resumes_bit_identically("tcp-resume", true);
}

/// [`severed_and_collector_crashed_tcp_run_resumes_bit_identically`]
/// as the crash leaves it: rank 0 crashed before its first state file
/// was due, so the resumed rank 0 starts from nothing.
#[test]
fn collector_crashed_before_its_first_state_file_resumes_bit_identically() {
    crashed_tcp_run_resumes_bit_identically("tcp-resume-bare", false);
}

/// The run of the two tests above, in directories named from `name`;
/// with `older_rank0_file`, rank 0's state file is an older generation
/// put in place before the resume.
fn crashed_tcp_run_resumes_bit_identically(name: &str, older_rank0_file: bool) {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    use parmonc::ParmoncError;
    let configure = |b: ParmoncBuilder, dir: PathBuf| {
        b.max_sample_volume(3_000)
            .processors(3)
            .seqnum(7)
            .exchange(Exchange::EveryRealization)
            .monitor()
            .output_dir(dir)
    };
    // Generous retry budget: the workers must ride out the whole
    // collector outage (crash detection + restart) on their backoff.
    let tuned_join = |addr: String| {
        NetOptions::join(addr)
            .reconnect_attempts(200)
            .reconnect_base_delay(Duration::from_millis(10))
            .reconnect_max_delay(Duration::from_millis(100))
    };
    let collector_dir = scratch(&format!("{name}-collector"));
    // Worker 1's link is severed at its 40th frame (it reconnects and
    // rejoins on its own); the collector crashes after 50 of its own
    // realizations — early enough that both workers are mid-quota.
    let crashing_plan = || FaultPlan::new(13).sever_connection(1, 40).crash_rank(0, 50);
    let collector = {
        let dir = collector_dir.clone();
        std::thread::spawn(move || {
            configure(Parmonc::builder(1, 2), dir)
                .faults(crashing_plan())
                .net(NetOptions::listen("127.0.0.1:0"))
                .run(uniform())
        })
    };
    let addr = wait_for_addr(&collector_dir);
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let dir = scratch(&format!("{name}-worker{i}"));
            std::thread::spawn(move || {
                configure(Parmonc::builder(1, 2), dir)
                    .faults(crashing_plan())
                    .net(tuned_join(addr))
                    .run_worker(uniform())
            })
        })
        .collect();

    // The first collector incarnation dies by script...
    let err = collector.join().unwrap().unwrap_err();
    assert!(
        matches!(err, ParmoncError::CollectorCrashed { .. }),
        "expected the scripted collector crash, got: {err}"
    );
    // A fresh session writes no baseline (an absent one is empty, which
    // the resume reads), and rank 0 crashed long before its first state
    // file was due, one file period into its loop.
    let rd = parmonc::ResultsDir::open(&collector_dir).unwrap();
    assert!(
        !rd.baseline_path().exists(),
        "a fresh session wrote a baseline"
    );
    assert!(
        rd.load_worker_subtotals()
            .unwrap()
            .iter()
            .all(|(rank, _)| *rank != 0),
        "rank 0 wrote a state file 50 realizations into its loop"
    );
    // A state file's rename gets no directory fsync, so after a power
    // loss a rank's file may hold any generation it wrote before the
    // crash, not the newest. Put an older one in rank 0's place: its
    // subtotal at 25 of the 50 realizations it reached. That is stale,
    // never wrong: the resume replays the same coordinates from there.
    if older_rank0_file {
        let older = parmonc::messages::Subtotal {
            acc: rank_streams(7, (1, 2), 0, 25),
            compute_seconds: 0.0,
        };
        rd.save_worker_subtotal(0, &older).unwrap();
    }
    // ... and a second one resumes the session on the same address and
    // output directory, with a crash-free plan. The workers' reconnect
    // backoff covers the gap.
    let resumed = {
        let dir = collector_dir.clone();
        let addr = addr.clone();
        std::thread::spawn(move || {
            configure(Parmonc::builder(1, 2), dir)
                .net(NetOptions::resume_listen(addr))
                .run(uniform())
        })
    };
    for w in workers {
        w.join().unwrap().unwrap();
    }
    let tcp = resumed.join().unwrap().unwrap();

    let threads = configure(Parmonc::builder(1, 2), scratch(&format!("{name}-threads")))
        .transport(Transport::Threads)
        .run(uniform())
        .unwrap();

    assert!(tcp.lost_workers.is_empty(), "lost: {:?}", tcp.lost_workers);
    assert_eq!(
        tcp.summary, threads.summary,
        "estimates must survive the crash bit-identically"
    );
    assert_eq!(tcp.total_volume, threads.total_volume);
    assert_eq!(tcp.worker_volumes, threads.worker_volumes);

    // The resumed trace records the resume and the workers' rejoins.
    let kinds = trace_kinds(&tcp);
    assert!(kinds.contains("collector_resumed"), "kinds: {kinds:?}");
    assert!(kinds.contains("worker_reconnected"), "kinds: {kinds:?}");
}

/// Span tracing is pure observability: turning it on must not move a
/// single bit of the estimate on any backend. One config runs traced
/// over processes, TCP, and threads, plus an untraced thread baseline —
/// all four reports must be bit-identical, and only the traced runs may
/// carry span events.
#[test]
fn span_tracing_keeps_estimates_bit_identical_across_backends() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let configure = |b: ParmoncBuilder, dir: PathBuf| {
        b.max_sample_volume(2_000)
            .processors(3)
            .seqnum(5)
            .exchange(Exchange::EveryRealization)
            .monitor()
            .output_dir(dir)
    };
    // The (single) process-backend run comes first: re-executed workers
    // divert here before reaching the thread and TCP runs below.
    let traced_processes = configure(
        builder_for(
            "span_tracing_keeps_estimates_bit_identical_across_backends",
            1,
            2,
        ),
        scratch("spans-processes"),
    )
    .trace_spans()
    .transport(Transport::Processes)
    .run(uniform())
    .unwrap();

    let plain = configure(Parmonc::builder(1, 2), scratch("spans-plain"))
        .transport(Transport::Threads)
        .run(uniform())
        .unwrap();
    let traced_threads = configure(Parmonc::builder(1, 2), scratch("spans-threads"))
        .trace_spans()
        .transport(Transport::Threads)
        .run(uniform())
        .unwrap();

    // Traced TCP run: span tracing is the *collector's* choice — the
    // workers never set the flag and pick it up from the handshake
    // grant.
    let collector_dir = scratch("spans-tcp-collector");
    let collector = {
        let dir = collector_dir.clone();
        std::thread::spawn(move || {
            configure(Parmonc::builder(1, 2), dir)
                .trace_spans()
                .net(NetOptions::listen("127.0.0.1:0"))
                .run(uniform())
        })
    };
    let addr = wait_for_addr(&collector_dir);
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let dir = scratch(&format!("spans-tcp-worker{i}"));
            std::thread::spawn(move || {
                configure(Parmonc::builder(1, 2), dir)
                    .net(NetOptions::join(addr))
                    .run_worker(uniform())
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    let traced_tcp = collector.join().unwrap().unwrap();

    for traced in [&traced_processes, &traced_threads, &traced_tcp] {
        assert_eq!(traced.summary, plain.summary);
        assert_eq!(traced.total_volume, plain.total_volume);
        assert_eq!(traced.worker_volumes, plain.worker_volumes);
    }

    // Spans present exactly where tracing was requested...
    for traced in [&traced_processes, &traced_threads, &traced_tcp] {
        let kinds = trace_kinds(traced);
        assert!(kinds.contains("span_started"), "kinds: {kinds:?}");
        assert!(kinds.contains("span_ended"), "kinds: {kinds:?}");
    }
    assert!(!trace_kinds(&plain).contains("span_started"));

    // ... and the TCP collector's trace carries *worker* spans too:
    // grant-propagated tracing made the remote ranks record their
    // phases, forwarded onto the collector's one run clock.
    let worker_spans = trace_events(&traced_tcp)
        .iter()
        .filter(|e| {
            matches!(e.kind, parmonc_obs::EventKind::SpanStarted { .. })
                && e.rank.is_some_and(|r| r > 0)
        })
        .count();
    assert!(worker_spans > 0, "no forwarded worker spans in TCP trace");

    // A launched child joins through the same handshake, so its events
    // too arrive on the collector's run clock (the raw local stamp kept
    // alongside) and stay monotone per rank — not on each child's own
    // clock, offset by its spawn latency.
    let process_events = trace_events(&traced_processes);
    for rank in [1usize, 2] {
        let forwarded: Vec<&parmonc_obs::Event> = process_events
            .iter()
            .filter(|e| e.rank == Some(rank) && e.raw_time_s.is_some())
            .collect();
        assert!(
            forwarded.len() >= 4,
            "rank {rank}: only {} forwarded events carry raw_time_s",
            forwarded.len()
        );
        for pair in forwarded.windows(2) {
            assert!(
                pair[1].time_s >= pair[0].time_s,
                "rank {rank}: aligned clock went backwards ({} -> {})",
                pair[0].time_s,
                pair[1].time_s
            );
        }
    }
    // Every event a launched child forwarded decoded on the collector,
    // span phases included: none was dropped on the way to the trace.
    let summary = traced_processes.monitor.as_ref().expect("monitored");
    assert_eq!(summary.forwarded_dropped_events, 0);

    assert_no_orphans();
}

/// Deterministic injected clock skew over TCP: each worker's monitor
/// clock is offset by a known amount, and the collector must fold the
/// forwarded events back onto its own run clock. Normalized timestamps
/// stay monotone per rank, the raw local timestamp is preserved
/// alongside, and the recovered per-link offset matches the injected
/// skew within the handshake's estimation bound. The estimates are
/// untouched — skew is a clock property, never a payload one.
#[test]
fn tcp_clock_skew_is_normalized_on_the_collector() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let configure = |b: ParmoncBuilder, dir: PathBuf| {
        b.max_sample_volume(2_000)
            .processors(3)
            .seqnum(5)
            .exchange(Exchange::EveryRealization)
            .monitor()
            .output_dir(dir)
    };
    const SKEWS: [f64; 2] = [0.75, -0.5];
    let collector_dir = scratch("tcp-skew-collector");
    let collector = {
        let dir = collector_dir.clone();
        std::thread::spawn(move || {
            configure(Parmonc::builder(1, 2), dir)
                .trace_spans()
                .net(NetOptions::listen("127.0.0.1:0"))
                .run(uniform())
        })
    };
    let addr = wait_for_addr(&collector_dir);
    let workers: Vec<_> = SKEWS
        .iter()
        .enumerate()
        .map(|(i, &skew)| {
            let addr = addr.clone();
            let dir = scratch(&format!("tcp-skew-worker{i}"));
            std::thread::spawn(move || {
                configure(Parmonc::builder(1, 2), dir)
                    .clock_skew(skew)
                    .net(NetOptions::join(addr))
                    .run_worker(uniform())
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    let tcp = collector.join().unwrap().unwrap();

    let threads = configure(Parmonc::builder(1, 2), scratch("tcp-skew-threads"))
        .transport(Transport::Threads)
        .run(uniform())
        .unwrap();
    assert_eq!(tcp.summary, threads.summary, "skew must not touch payloads");
    assert_eq!(tcp.total_volume, threads.total_volume);

    // On loopback the RTT-symmetric estimate is tight; the admission
    // seed (one handshake leg) bounds the transient before the first
    // probe lands.
    const OFFSET_BOUND_S: f64 = 0.25;
    let events = trace_events(&tcp);
    let mut recovered_skews = Vec::new();
    for rank in [1usize, 2] {
        let forwarded: Vec<&parmonc_obs::Event> = events
            .iter()
            .filter(|e| e.rank == Some(rank) && e.raw_time_s.is_some())
            .collect();
        assert!(
            forwarded.len() >= 4,
            "rank {rank}: only {} forwarded events carry raw_time_s",
            forwarded.len()
        );
        // Normalized timestamps are monotone per rank even though the
        // worker's raw clock is offset.
        for pair in forwarded.windows(2) {
            assert!(
                pair[1].time_s >= pair[0].time_s,
                "rank {rank}: normalized clock went backwards ({} -> {})",
                pair[0].time_s,
                pair[1].time_s
            );
        }
        // raw − normalized recovers the injected skew of whichever
        // worker holds this rank (lease order is not deterministic, so
        // match the multiset below rather than the pairing here).
        let offsets: Vec<f64> = forwarded
            .iter()
            .map(|e| e.raw_time_s.unwrap() - e.time_s)
            .collect();
        let mean = offsets.iter().sum::<f64>() / offsets.len() as f64;
        for o in &offsets {
            assert!(
                (o - mean).abs() <= OFFSET_BOUND_S,
                "rank {rank}: offset wandered beyond the bound: {o} vs mean {mean}"
            );
        }
        recovered_skews.push(mean);
    }
    recovered_skews.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut expected = SKEWS;
    expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (got, want) in recovered_skews.iter().zip(expected) {
        assert!(
            (got - want).abs() <= OFFSET_BOUND_S,
            "recovered skew {got} differs from injected {want}"
        );
    }
}

/// Runs one collector and `m − 1` workers over loopback TCP, all
/// configured by `configure` (which must not set the output directory:
/// each side gets its own under `name`).
fn run_over_tcp(
    name: &str,
    m: usize,
    configure: impl Fn() -> ParmoncBuilder + Send + Sync,
) -> RunReport {
    let collector_dir = scratch(&format!("{name}-collector"));
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            configure()
                .output_dir(collector_dir.clone())
                .net(NetOptions::listen("127.0.0.1:0"))
                .run(uniform())
        });
        let addr = wait_for_addr(&collector_dir);
        let workers: Vec<_> = (1..m)
            .map(|i| {
                let (addr, configure) = (addr.clone(), &configure);
                let dir = scratch(&format!("{name}-worker{i}"));
                scope.spawn(move || {
                    configure()
                        .output_dir(dir)
                        .net(NetOptions::join(addr))
                        .run_worker(uniform())
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        collector.join().unwrap().unwrap()
    })
}

/// Strict exchange *offers* a subtotal after every realization; what
/// becomes of the offer depends on the substrate and on the exchange
/// governor. On threads a shipped subtotal lands in a register the
/// receiver reads when it looks, so at τ ≈ 0 nearly every one is
/// superseded unread; on every substrate the governor withholds, at the
/// source, the offers whose exchange would cost the rank more than an
/// eighth of its time. None of that may reach the estimate. Each case —
/// threads at m = 2, 4 and 7, loopback TCP at m = 2, and 32 KB
/// subtotals on threads and over TCP — must reproduce, bit for bit,
/// the serial merge of the ranks' streams in rank order.
///
/// The same holds for the timing blocks a routine this short is run in
/// (up to 64 realizations between two clock reads): a prime volume,
/// which no block length divides on any rank, at m = 1, 2 and 3, under
/// strict and periodic exchange, on threads and over TCP, comes out
/// exact in volume and in every bit.
#[test]
fn latest_wins_exchange_matches_the_serial_merge() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    const SEQNUM: u64 = 11;
    const SMALL: ((usize, usize), u64) = ((1, 2), 140_000);
    const LARGE: ((usize, usize), u64) = ((1000, 2), 4_000);
    const PRIME: ((usize, usize), u64) = ((1, 2), 100_003);
    const STRICT: Exchange = Exchange::EveryRealization;
    for ((shape, volume), m, tcp, exchange) in [
        (SMALL, 2, false, STRICT),
        (SMALL, 4, false, STRICT),
        (SMALL, 7, false, STRICT),
        (SMALL, 2, true, STRICT),
        (LARGE, 2, false, STRICT),
        (LARGE, 2, true, STRICT),
        (PRIME, 1, false, STRICT),
        (PRIME, 1, false, Exchange::Periodic),
        (PRIME, 2, false, Exchange::Periodic),
        (PRIME, 3, false, STRICT),
        (PRIME, 3, false, Exchange::Periodic),
        (PRIME, 2, true, Exchange::Periodic),
        (PRIME, 3, true, STRICT),
    ] {
        let what = format!("{shape:?}, m = {m}, tcp: {tcp}, {exchange:?}");
        let configure = || {
            Parmonc::builder(shape.0, shape.1)
                .max_sample_volume(volume)
                .processors(m)
                .seqnum(SEQNUM)
                .exchange(exchange)
        };
        let name = format!("latest-{}-{volume}-{m}-{tcp}-{exchange:?}", shape.0);
        let report = if tcp {
            run_over_tcp(&name, m, configure)
        } else {
            configure()
                .output_dir(scratch(&name))
                .run(uniform())
                .unwrap()
        };
        let quotas: Vec<u64> = {
            let config = configure().build().unwrap();
            (0..m).map(|rank| config.quota(rank)).collect()
        };
        assert_eq!(report.worker_volumes, quotas, "{what}");
        assert_eq!(report.new_volume, volume, "{what}");
        assert!(report.lost_workers.is_empty(), "{what}");
        assert_eq!(
            report.summary,
            serial_merge(SEQNUM, shape, &quotas),
            "{what}: against the serial merge"
        );
    }
}

/// How many tag-1 `message_sent` and `message_received` events a
/// monitored run's trace holds.
fn subtotal_traffic(events: &[parmonc_obs::Event]) -> (usize, usize) {
    use parmonc_obs::EventKind;

    let subtotal = parmonc::messages::TAG_SUBTOTAL.0;
    let sent = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MessageSent { tag, .. } if tag == subtotal))
        .count();
    let received = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MessageReceived { tag, .. } if tag == subtotal))
        .count();
    (sent, received)
}

/// How many times rank 0 refreshed the collector's snapshot of its own
/// subtotal: each refresh, the final one included, carries a progress
/// event.
fn rank0_refreshes(events: &[parmonc_obs::Event]) -> usize {
    use parmonc_obs::EventKind;

    events
        .iter()
        .filter(|e| e.rank == Some(0) && matches!(e.kind, EventKind::Realizations { .. }))
        .count()
}

/// Strict exchange at τ ≈ 0 under the monitor: every shipped subtotal
/// is a `message_sent`, every delivery a `message_received`. The
/// worker's quota minus one, minus what was sent, is what the governor
/// withheld at the source; sent minus received is what the register
/// superseded unread — and the collector's backlog of subtotals cannot
/// outgrow the world. Rank 0 runs the same loop under the same governor:
/// refreshing its own snapshot is its exchange, and most of its offers
/// are withheld too.
#[test]
fn latest_wins_exchange_is_accounted_for_in_the_trace() {
    use parmonc_obs::EventKind;

    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let report = Parmonc::builder(1, 2)
        .max_sample_volume(60_000)
        .processors(2)
        .exchange(Exchange::EveryRealization)
        .monitor()
        .output_dir(scratch("latest-monitored"))
        .run(uniform())
        .unwrap();
    assert_eq!(report.new_volume, 60_000);
    // `trace_events` validates every line against the schema.
    let events = trace_events(&report);
    let (sent, received) = subtotal_traffic(&events);
    // The worker offers one subtotal per realization but its last (the
    // final travels under its own tag); with the monitor on, shipping
    // one costs far more than eight of these realizations.
    assert!(
        1 <= received && received <= sent && sent < 30_000 - 1,
        "{received} received of {sent} sent"
    );
    let deepest = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::QueueHighWater { depth } => Some(depth),
            _ => None,
        })
        .max()
        .expect("rank 0 received something");
    assert!(deepest <= 2, "a backlog of {deepest} in a world of two");
    let refreshes = rank0_refreshes(&events);
    assert!(
        (1..30_000).contains(&refreshes),
        "rank 0 refreshed {refreshes} times in a quota of 30 000"
    );
}

/// A link severed while the governor is withholding. The severance is
/// scripted for rank 1's 50 000th realization of 70 000 — a frame
/// ordinal a governed worker at τ ≈ 0 never comes near, which is why
/// link faults key on the rank's progress and not on its frame count:
/// the plan means the same outage whether 69 999 subtotals cross or a
/// few hundred. The next frame the worker starts breaks the link, the
/// seeded reconnect heals it, nobody is lost, and the estimate is the
/// serial merge of the ranks' streams.
#[test]
fn tcp_link_severed_while_the_governor_withholds_heals() {
    use parmonc_obs::EventKind;

    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    const SEQNUM: u64 = 17;
    const VOLUME: u64 = 140_000;
    const AFTER: u64 = 50_000;
    let report = run_over_tcp("severed-withholding", 2, || {
        Parmonc::builder(1, 2)
            .max_sample_volume(VOLUME)
            .processors(2)
            .seqnum(SEQNUM)
            .exchange(Exchange::EveryRealization)
            .faults(FaultPlan::new(3).sever_connection(1, AFTER))
            .monitor()
    });
    assert!(report.lost_workers.is_empty(), "{:?}", report.lost_workers);
    assert_eq!(report.new_volume, VOLUME);
    assert_eq!(report.worker_volumes, [VOLUME / 2, VOLUME / 2]);
    assert_eq!(
        report.summary,
        serial_merge(SEQNUM, (1, 2), &report.worker_volumes)
    );
    let events = trace_events(&report);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerReconnected { .. })),
        "the trace never recorded the rejoin"
    );
    let (_, received) = subtotal_traffic(&events);
    assert!(
        (received as u64) < AFTER,
        "{received} subtotals crossed: the governor withheld nothing?"
    );
}

/// A routine whose calls alternate between nanoseconds and 5 ms — the
/// worst case for a block length learned from the last block. Growth is
/// capped at doubling and a block that outlasts its 0.5 µs falls back
/// to one realization, so no block holds two long calls: the time-gated
/// checks (here the heartbeat) run late by at most one of them, nobody
/// is declared lost, and the reported mean time per realization still
/// accounts for the ranks' loop time.
#[test]
fn timing_blocks_keep_the_heartbeat_under_a_routine_with_rare_long_calls() {
    use parmonc_obs::EventKind;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    const LONG: Duration = Duration::from_millis(5);
    const HEARTBEAT: Duration = Duration::from_millis(20);
    const VOLUME: u64 = 120;
    let long_nanos = AtomicU64::new(0);
    let alternating = RealizeFn::new(|rng, out| {
        if rng.id().realization % 2 == 1 {
            let started = Instant::now();
            std::thread::sleep(LONG);
            long_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        out[0] = rng.next_f64();
    });
    let report = Parmonc::builder(1, 1)
        .max_sample_volume(VOLUME)
        .processors(2)
        .heartbeat_period(HEARTBEAT)
        .liveness_timeout(Duration::from_millis(500))
        .monitor()
        .output_dir(scratch("rare-long-calls"))
        .run(alternating)
        .unwrap();
    assert_eq!(report.new_volume, VOLUME);
    assert!(report.lost_workers.is_empty());

    let heartbeat = parmonc::messages::TAG_HEARTBEAT.0;
    let beats: Vec<f64> = trace_events(&report)
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MessageSent { tag, .. } if tag == heartbeat))
        .map(|e| e.time_s)
        .collect();
    assert!(beats.len() >= 3, "{} heartbeats in ≈ 150 ms", beats.len());
    // One long call late at most; the other three are the box's noise.
    let bound = (HEARTBEAT + 4 * LONG).as_secs_f64();
    for pair in beats.windows(2) {
        assert!(pair[1] - pair[0] <= bound, "heartbeats at {pair:?}");
    }

    // Every long call lies inside a timed interval, and the intervals
    // hold little else.
    let timed = report.mean_time_per_realization * VOLUME as f64;
    let long = Duration::from_nanos(long_nanos.load(Ordering::Relaxed)).as_secs_f64();
    assert!(
        long <= timed && timed <= 1.1 * long,
        "{timed} s timed against {long} s of long calls"
    );
}

/// The paper's regime is preserved: when the user's routine takes far
/// longer than eight times what shipping a subtotal costs (the paper's
/// τ is 7.7 s), the governor withholds nothing and the worker ships
/// exactly one subtotal per realization but its last. Shipping costs
/// tens of microseconds here and 300 µs would do on a quiet machine;
/// τ is 20 ms because the cost is *measured*, so a rank descheduled
/// for more than τ ÷ 8 between its two clock reads would withhold an
/// offer — on a shared CI box that takes a 2.5 ms stall landing in a
/// few hundred microseconds of the run. Rank 0 is no exception: it
/// refreshes its own snapshot after every realization.
#[test]
fn strict_exchange_ships_every_realization_when_the_routine_is_slow() {
    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    const QUOTA: usize = 12;
    let slow = RealizeFn::new(|rng, out| {
        std::thread::sleep(Duration::from_millis(20));
        out[0] = rng.next_f64();
    });
    let report = Parmonc::builder(1, 1)
        .max_sample_volume(2 * QUOTA as u64)
        .processors(2)
        .exchange(Exchange::EveryRealization)
        .monitor()
        .output_dir(scratch("paper-regime"))
        .run(slow)
        .unwrap();
    assert_eq!(report.new_volume, 2 * QUOTA as u64);
    let events = trace_events(&report);
    let (sent, received) = subtotal_traffic(&events);
    assert_eq!(sent, QUOTA - 1, "every offer but the final's ships");
    assert!(1 <= received && received <= sent);
    assert_eq!(rank0_refreshes(&events), QUOTA);
}

/// Work reassigned to the collector while it waits for finals is
/// simulated by the same loop as its own quota was, every gate live.
/// Rank 0's own quota costs nothing here and is done at once; rank 1
/// crashes after three realizations and is declared lost 200 ms later,
/// so the realizations it owed — 997 or a few more, if the governor
/// withheld its last offers; half a millisecond each — land on a
/// collector that is waiting. While it absorbs them it keeps writing
/// save-points (one per 20 ms; the run's last comes after) and rewrites
/// its own state file, where it used to write nothing until the whole
/// extension was simulated; and it simulates them on its own stream
/// coordinates past its quota, so the estimate is the serial merge of
/// rank 0's coordinates `0 .. quota + extra` and the prefix rank 1
/// delivered.
#[test]
fn work_reassigned_to_the_waiting_collector_is_simulated_under_every_gate() {
    use parmonc_obs::{EventKind, SpanPhase};

    let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    const SEQNUM: u64 = 13;
    const QUOTA: u64 = 1_000;
    const CRASH_AFTER: u64 = 3;
    let routine = RealizeFn::new(|rng, out| {
        let id = rng.id();
        if id.processor != 0 || id.realization >= QUOTA {
            std::thread::sleep(Duration::from_micros(500));
        }
        out[0] = rng.next_f64();
    });
    let report = Parmonc::builder(1, 1)
        .max_sample_volume(2 * QUOTA)
        .processors(2)
        .seqnum(SEQNUM)
        .exchange(Exchange::EveryRealization)
        .faults(FaultPlan::new(5).crash_rank(1, CRASH_AFTER))
        .averaging_period(Duration::from_millis(20))
        .heartbeat_period(Duration::from_millis(20))
        .liveness_timeout(Duration::from_millis(200))
        .monitor()
        .trace_spans()
        .output_dir(scratch("absorbed-while-waiting"))
        .run(routine)
        .unwrap();
    assert_eq!(report.lost_workers, vec![1]);
    assert_eq!(report.new_volume, 2 * QUOTA);
    let delivered = report.worker_volumes[1];
    assert!((1..=CRASH_AFTER).contains(&delivered), "{delivered}");
    assert_eq!(report.worker_volumes[0], 2 * QUOTA - delivered);

    assert_eq!(
        report.summary,
        serial_merge(SEQNUM, (1, 1), &report.worker_volumes)
    );

    // Rank 0's events, in the order it emitted them, from the
    // reassignment to the final offer that ends the absorption.
    let events: Vec<_> = trace_events(&report)
        .into_iter()
        .filter(|e| e.rank == Some(0))
        .skip_while(|e| !matches!(e.kind, EventKind::WorkReassigned { to_worker: 0, .. }))
        .collect();
    let progress = |e: &parmonc_obs::Event| match e.kind {
        EventKind::Realizations { completed, .. } => Some(completed),
        _ => None,
    };
    let end = events
        .iter()
        .position(|e| progress(e) == Some(2 * QUOTA - delivered))
        .expect("the absorption ends with a final offer");
    let absorption = &events[..end];
    let passes = absorption
        .iter()
        .filter(|e| matches!(e.kind, EventKind::AveragingPass { .. }))
        .count();
    assert!(passes >= 5, "{passes} save-points in ≈ 0.5 s of absorption");
    // A state-file rewrite is a `checkpoint` span under the open
    // realization batch (a save-point's is under a `collector_merge`),
    // and one with offers still to come is not the one the loop ends on.
    let batches: BTreeSet<u64> = absorption
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SpanStarted {
                span,
                phase: SpanPhase::RealizationBatch,
                ..
            } => Some(span),
            _ => None,
        })
        .collect();
    let rewrite = absorption
        .iter()
        .position(|e| match e.kind {
            EventKind::SpanStarted {
                parent: Some(parent),
                phase: SpanPhase::Checkpoint,
                ..
            } => batches.contains(&parent),
            _ => false,
        })
        .expect("rank 0 rewrote its state file while absorbing");
    assert!(
        absorption[rewrite..].iter().any(|e| progress(e).is_some()),
        "the rewrite was not the last thing the absorption did"
    );
}

//! Chaos integration: seeded fault matrices driven through three
//! engines — the real-thread runner (`mpi_*` tests), the loopback TCP
//! backend with scripted link severance (`tcp_*` tests), and the
//! process backend, which inherits that resilience through the launcher
//! (`proc_*` tests) — plus the resume-after-crash and
//! framing-robustness satellites. CI runs the prefixes as separate
//! matrix jobs.

mod common;

use common::{serial_merge, trace_events};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

use parmonc::messages::Subtotal;
use parmonc::prelude::{Exchange, NetOptions, Parmonc, RealizeFn, Resume, RunReport, Transport};
use parmonc_faults::{mutate_bytes, FaultPlan, Mutation};
use parmonc_mpi::bytes::Bytes;
use parmonc_stats::MatrixAccumulator;
use parmonc_testkit::TempDir;

fn tempdir(name: &str) -> TempDir {
    TempDir::new(&format!("chaos-{name}"))
}

fn uniform() -> impl parmonc::Realize + Sync {
    RealizeFn::new(|rng, out| {
        for o in out.iter_mut() {
            *o = rng.next_f64();
        }
    })
}

/// Validates every line of a run's monitor trace against the schema
/// and returns the set of event kinds it contains.
fn validated_kinds(report: &RunReport) -> BTreeSet<&'static str> {
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

/// The acceptance demo: a monitored 8-rank run with one worker crashed
/// mid-run and 5 % of messages dropped still completes, reassigns the
/// lost budget to survivors (on their own fresh streams — never reusing
/// a leapfrog stream), lands within the reported error bars of the
/// fault-free run, and is the serial merge of the streams it reports.
#[test]
fn mpi_chaos_demo_survives_crash_and_drops() {
    let (faulted_dir, healthy_dir) = (tempdir("demo-faulted"), tempdir("demo-healthy"));
    let chaotic = Parmonc::builder(1, 1)
        .max_sample_volume(4_000)
        .processors(8)
        .seqnum(3)
        .exchange(Exchange::EveryRealization)
        .faults(FaultPlan::new(2024).crash_rank(3, 25).drop_fraction(0.05))
        .heartbeat_period(Duration::from_millis(10))
        .liveness_timeout(Duration::from_millis(150))
        .monitor()
        .output_dir(&faulted_dir)
        .run(uniform())
        .unwrap();
    let healthy = Parmonc::builder(1, 1)
        .max_sample_volume(4_000)
        .processors(8)
        .seqnum(3)
        .exchange(Exchange::EveryRealization)
        .output_dir(&healthy_dir)
        .run(uniform())
        .unwrap();

    // The run completed and the dead rank's budget was made up.
    assert!(
        chaotic.lost_workers.contains(&3),
        "{:?}",
        chaotic.lost_workers
    );
    assert!(chaotic.reassigned_realizations > 0);
    assert!(
        chaotic.new_volume >= 4_000,
        "volume {} must reach the target",
        chaotic.new_volume
    );

    // Both estimates agree with truth and with each other within the
    // combined reported stochastic error bars.
    let (mf, ef) = (chaotic.summary.means[0], chaotic.summary.abs_errors[0]);
    let (mh, eh) = (healthy.summary.means[0], healthy.summary.abs_errors[0]);
    assert!((mf - 0.5).abs() <= ef, "faulted mean {mf} ± {ef}");
    assert!((mh - 0.5).abs() <= eh, "healthy mean {mh} ± {eh}");
    assert!((mf - mh).abs() <= ef + eh, "{mf} ± {ef} vs {mh} ± {eh}");
    assert!(chaotic.worker_volumes[3] <= 25);
    assert_eq!(
        chaotic.summary,
        serial_merge(3, (1, 1), &chaotic.worker_volumes)
    );

    // The monitor saw the faults, and the whole trace is schema-valid.
    let summary = chaotic.monitor.as_ref().expect("monitored run");
    assert!(summary.faults_injected >= 1);
    assert!(summary.workers_lost >= 1);
    assert!(summary.reassigned_realizations > 0);
    let kinds = validated_kinds(&chaotic);
    for kind in ["fault_injected", "worker_lost", "work_reassigned"] {
        assert!(kinds.contains(kind), "trace never recorded {kind}");
    }
}

/// The CI chaos matrix, real-thread half: eight seeded fault plans,
/// each crashing one rank and dropping 5 % of messages, must all
/// complete at full volume with unbiased estimates — each the serial
/// merge of the streams it reports, bit for bit. The plan does not
/// choose the runner: these runs are timed in blocks, governed and
/// latest-wins like any other.
#[test]
fn mpi_chaos_matrix_eight_seeds() {
    for seed in 0..8u64 {
        let victim = 1 + (seed as usize % 3);
        let dir = tempdir(&format!("matrix-{seed}"));
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(800)
            .processors(4)
            .seqnum(seed)
            .exchange(Exchange::EveryRealization)
            .faults(
                FaultPlan::new(seed)
                    .crash_rank(victim, 5)
                    .drop_fraction(0.05),
            )
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(100))
            .output_dir(&dir)
            .run(uniform())
            .unwrap();
        assert!(
            report.lost_workers.contains(&victim),
            "seed {seed}: lost {:?}",
            report.lost_workers
        );
        assert!(
            report.new_volume >= 800,
            "seed {seed}: {}",
            report.new_volume
        );
        assert!(
            (report.summary.means[0] - 0.5).abs() < 0.06,
            "seed {seed}: mean {}",
            report.summary.means[0]
        );
        assert!(report.worker_volumes[victim] <= 5, "seed {seed}");
        assert_eq!(
            report.summary,
            serial_merge(seed, (1, 1), &report.worker_volumes),
            "seed {seed}"
        );
    }
}

/// A crash between the realizations of a timed block, with a superseded
/// subtotal in the slot. Rank 1's routine is one draw, so it runs in
/// blocks of up to 64 and its subtotals are governed; rank 0's first
/// realization does not return before rank 1's last one has begun, so
/// rank 0 does not look at its inbox while rank 1 runs to a crash point
/// no block length divides — nearly every subtotal rank 1 shipped is
/// superseded unread, and the newest is all that is left of the rank
/// when the collector looks. It counts in full, the rest of the quota is
/// made up, and the estimate is the serial merge of what the report says
/// contributed.
#[test]
fn mpi_crash_mid_block_leaves_its_newest_subtotal_in_the_slot() {
    use parmonc_obs::EventKind;
    use std::sync::atomic::{AtomicBool, Ordering};

    const SEQNUM: u64 = 6;
    const QUOTA: u64 = 300_000;
    const AFTER: u64 = 200_003;
    let victim_at_its_last = AtomicBool::new(false);
    let routine = RealizeFn::new(|rng, out| {
        match rng.id() {
            id if id.processor == 1 && id.realization == AFTER - 1 => {
                victim_at_its_last.store(true, Ordering::Release);
            }
            id if id.processor == 0 && id.realization == 0 => {
                while !victim_at_its_last.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            _ => {}
        }
        out[0] = rng.next_f64();
    });
    let dir = tempdir("crash-mid-block");
    let report = Parmonc::builder(1, 1)
        .max_sample_volume(2 * QUOTA)
        .processors(2)
        .seqnum(SEQNUM)
        .exchange(Exchange::EveryRealization)
        .faults(FaultPlan::new(4).crash_rank(1, AFTER))
        .heartbeat_period(Duration::from_millis(10))
        .liveness_timeout(Duration::from_millis(100))
        .monitor()
        .output_dir(&dir)
        .run(routine)
        .unwrap();
    assert_eq!(report.lost_workers, vec![1]);
    assert_eq!(report.new_volume, 2 * QUOTA);
    let delivered = report.worker_volumes[1];
    assert!(delivered <= AFTER, "{delivered} delivered");
    assert_eq!(delivered + report.reassigned_realizations, QUOTA);
    assert_eq!(
        report.summary,
        serial_merge(SEQNUM, (1, 1), &report.worker_volumes)
    );

    let events = trace_events(&report);
    let subtotal = parmonc::messages::TAG_SUBTOTAL.0;
    let sent = events
        .iter()
        .filter(|e| {
            e.rank == Some(1)
                && matches!(e.kind, EventKind::MessageSent { tag, .. } if tag == subtotal)
        })
        .count() as u64;
    let received = events
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::MessageReceived { source: 1, tag, .. } if tag == subtotal)
        })
        .count() as u64;
    // Under a plan as without one: far fewer subtotals than
    // realizations leave the rank, and fewer still are ever read.
    assert!(
        1 <= received && received < sent && sent < AFTER - 1,
        "{received} received of {sent} sent in {AFTER} realizations"
    );
    // The crash was the scripted one, and what the rank had last
    // published when it died is what counted.
    assert!(events.iter().any(|e| e.rank == Some(1)
        && matches!(
            &e.kind,
            EventKind::FaultInjected { fault, detail: Some(AFTER) } if fault == "rank_crash"
        )));
    let last_published = events.iter().rev().find_map(|e| match e.kind {
        EventKind::Realizations { completed, .. } if e.rank == Some(1) => Some(completed),
        _ => None,
    });
    assert_eq!(last_published, Some(delivered));
}

/// Blocks until the collector under `dir` publishes its bound address
/// in `parmonc_data/collector.addr` (the ephemeral-port discovery path).
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

/// The CI chaos matrix, TCP half: seeded plans sever each worker's link
/// mid-run (at its first frame once it has done that many
/// realizations); the seeded reconnect/backoff heals every outage, the run
/// completes at full volume with no workers declared lost, and the
/// collector's trace records the rejoins.
#[test]
fn tcp_chaos_matrix_severed_links_heal() {
    for seed in 0..4u64 {
        let plan = move || {
            FaultPlan::new(seed)
                .sever_connection(1, 8 + seed)
                .sever_connection(2, 20 + seed)
        };
        let collector_dir = tempdir(&format!("tcp-matrix-c{seed}"));
        let collector = {
            let dir = collector_dir.to_path_buf();
            std::thread::spawn(move || {
                Parmonc::builder(1, 1)
                    .max_sample_volume(900)
                    .processors(3)
                    .seqnum(seed)
                    .exchange(Exchange::EveryRealization)
                    .faults(plan())
                    .monitor()
                    .net(NetOptions::listen("127.0.0.1:0"))
                    .output_dir(dir)
                    .run(uniform())
            })
        };
        let addr = wait_for_addr(&collector_dir);
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let addr = addr.clone();
                let dir = tempdir(&format!("tcp-matrix-w{seed}-{i}"));
                std::thread::spawn(move || {
                    Parmonc::builder(1, 1)
                        .max_sample_volume(900)
                        .processors(3)
                        .seqnum(seed)
                        .exchange(Exchange::EveryRealization)
                        .faults(plan())
                        .net(NetOptions::join(addr))
                        .output_dir(&dir)
                        .run_worker(uniform())
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        let report = collector.join().unwrap().unwrap();
        assert!(
            report.lost_workers.is_empty(),
            "seed {seed}: lost {:?}",
            report.lost_workers
        );
        assert!(
            report.new_volume >= 900,
            "seed {seed}: volume {}",
            report.new_volume
        );
        assert!(
            (report.summary.means[0] - 0.5).abs() < 0.06,
            "seed {seed}: mean {}",
            report.summary.means[0]
        );
        let kinds = validated_kinds(&report);
        assert!(
            kinds.contains("worker_reconnected"),
            "seed {seed}: trace never recorded a rejoin: {kinds:?}"
        );
    }
}

/// Process-backend chaos: the launcher's children speak the lease
/// protocol, so a scripted severance of worker 1's link heals on the
/// seeded reconnect instead of costing the worker — nobody is declared
/// lost, the volume is full, the trace records the rejoin, and the
/// estimate is bit-identical to a fault-free thread run.
///
/// One process-backend run per test function, and it comes first: the
/// launched children re-execute this libtest binary with
/// `[test_fn, "--exact"]`, rebuild the same configuration (hence the
/// PID-free directory, wiped only in the parent) and divert into the
/// worker loop inside that first `run()`.
#[test]
fn proc_severed_link_heals() {
    let scratch = |name: &str| {
        let dir = std::env::temp_dir().join(format!("parmonc-chaos-proc-{name}"));
        if !parmonc::ipc::is_worker() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir
    };
    let configure = |dir: PathBuf| {
        Parmonc::builder(1, 2)
            .max_sample_volume(900)
            .processors(3)
            .seqnum(4)
            .exchange(Exchange::EveryRealization)
            .monitor()
            .output_dir(dir)
    };
    let healed = configure(scratch("severed"))
        .faults(FaultPlan::new(21).sever_connection(1, 8))
        .worker_args(["proc_severed_link_heals", "--exact"])
        .transport(Transport::Processes)
        .run(uniform())
        .unwrap();
    let healthy = configure(scratch("threads")).run(uniform()).unwrap();

    assert!(
        healed.lost_workers.is_empty(),
        "a severed link must heal, not cost the worker: lost {:?}",
        healed.lost_workers
    );
    assert_eq!(healed.new_volume, 900);
    assert_eq!(healed.worker_volumes, healthy.worker_volumes);
    assert_eq!(
        healed.summary, healthy.summary,
        "estimates must survive the severance bit-identically"
    );
    let kinds = validated_kinds(&healed);
    assert!(
        kinds.contains("worker_reconnected"),
        "trace never recorded the rejoin: {kinds:?}"
    );

    common::assert_no_orphans();
}

/// Resume-after-crash satellite: a run whose primary checkpoint is
/// torn mid-write resumes from the last-good backup generation, reports
/// the recovery, and keeps the total volume monotone.
#[test]
fn mpi_torn_checkpoint_resume_chain() {
    let dir = tempdir("torn-resume");
    let first = Parmonc::builder(1, 1)
        .max_sample_volume(400)
        .processors(2)
        .seqnum(0)
        .exchange(Exchange::EveryRealization)
        // Save on every collector pass so the run leaves several
        // rotated checkpoint generations behind.
        .averaging_period(Duration::ZERO)
        .output_dir(&dir)
        .run(uniform())
        .unwrap();
    assert!(!first.checkpoint_recovered);

    // Tear the primary checkpoint the way an interrupted write would:
    // keep only the first half, so the integrity footer is gone. The
    // rotated backup from the previous save generation stays intact.
    let rd = parmonc::ResultsDir::open(&dir).unwrap();
    assert!(rd.checkpoint_backup_path().exists(), "no backup generation");
    let good = std::fs::read_to_string(rd.checkpoint_path()).unwrap();
    std::fs::write(rd.checkpoint_path(), &good[..good.len() / 2]).unwrap();

    let resumed = Parmonc::builder(1, 1)
        .max_sample_volume(400)
        .processors(2)
        .seqnum(1)
        .resume(Resume::Resume)
        .monitor()
        .output_dir(&dir)
        .run(uniform())
        .unwrap();
    assert!(resumed.checkpoint_recovered, "backup was not used");
    // The backup holds some last-good generation: never more than the
    // first run produced, and the chain's volume stays monotone.
    assert!(resumed.resumed_volume >= 1 && resumed.resumed_volume <= 400);
    assert_eq!(resumed.total_volume, resumed.resumed_volume + 400);
    let summary = resumed.monitor.as_ref().expect("monitored run");
    assert_eq!(summary.checkpoint_recoveries, 1);
    assert!(validated_kinds(&resumed).contains("checkpoint_recovered"));
}

/// Framing satellite: a subtotal frame mutated by a seeded bit-flip or
/// truncation must decode to a clean error or to some valid subtotal —
/// never panic, never tear down the collector.
#[test]
fn mpi_framing_survives_mutated_frames() {
    let mut acc = MatrixAccumulator::new(3, 2).unwrap();
    acc.add(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
    acc.add(&[-1.0, 0.5, 0.0, 2.0, 8.0, 1.0]).unwrap();
    let frame = Subtotal {
        acc,
        compute_seconds: 12.75,
    }
    .encode()
    .to_vec();

    let mut decoded_ok = 0u32;
    let mut rejected = 0u32;
    for seed in 0..256u64 {
        let mut bytes = frame.clone();
        let mutation = mutate_bytes(seed, &mut bytes);
        match Subtotal::decode(Bytes::from(bytes)) {
            Ok(_) => decoded_ok += 1,
            Err(_) => rejected += 1,
        }
        // Truncations below the fixed header can never decode.
        if let Mutation::Truncate { len } = mutation {
            if len < 32 {
                assert!(rejected > 0);
            }
        }
    }
    assert_eq!(decoded_ok + rejected, 256);
    // Both outcomes occur across the seed sweep: flips inside an f64
    // payload yield a (garbage but well-formed) subtotal, truncations
    // are rejected — the collector must survive either.
    assert!(rejected > 0, "no mutation was rejected");
    assert!(decoded_ok > 0, "every mutation was rejected");
}

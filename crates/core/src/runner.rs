//! The parallel runner: the `parmoncc`/`parmoncf` engine
//! (paper Sections 2.2, 3.2).
//!
//! Every rank simulates realizations on its own leapfrogged processor
//! subsequence; rank 0 additionally plays the collector, draining
//! asynchronously arriving subtotal messages, averaging them by
//! formula (5) every `peraver`, and saving the result files as periodic
//! save-points. Workers ship their *cumulative* sums every `perpass`
//! (or after every realization in the performance-test mode) and always
//! finish with a final message, so the run terminates deterministically
//! when the total sample volume reaches `maxsv` or the wall-clock
//! deadline passes.

// Lint levels are inherited: this covers `collector` and `worker` too.
#![warn(clippy::too_many_lines, clippy::too_many_arguments)]

mod collector;
mod worker;

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parmonc_faults::{FaultHandle, FaultKind};
use parmonc_ipc::{LeaseSnapshot, ListenOptions, TcpCollectorTransport};
use parmonc_mpi::Transport as Comm;
use parmonc_mpi::{Communicator, MpiError, World};
use parmonc_obs::{
    EventKind, JsonlSink, MemorySink, MetricsSink, Monitor, MonitorSummary, RunMode, RunTransport,
    SpanEmitter, SpanPhase,
};
use parmonc_rng::{RealizationStream, StreamCursor, StreamHierarchy, StreamId};
use parmonc_stats::{MatrixAccumulator, MatrixSummary};

use self::collector::{rank0_loop, Averaged, Collector};
pub(crate) use self::worker::socket_worker;
use self::worker::worker_loop;
use crate::config::{Exchange, ParmoncBuilder, Resume, RunConfig, Transport};
use crate::error::{IoContext, ParmoncError};
use crate::files::{ExperimentRecord, ResultsDir};
use crate::messages::Subtotal;
use crate::realize::Realize;

/// Entry point type: `Parmonc::builder(nrow, ncol)` starts configuring
/// a run, mirroring the argument list of `parmoncc`.
#[derive(Debug)]
pub struct Parmonc;

impl Parmonc {
    /// Starts building a run for realizations shaped `nrow × ncol`.
    #[must_use]
    pub fn builder(nrow: usize, ncol: usize) -> ParmoncBuilder {
        ParmoncBuilder::new(nrow, ncol)
    }
}

/// What a completed run reports back (everything `func_log.dat`
/// records, plus handles for inspection).
#[derive(Debug)]
pub struct RunReport {
    /// Averaged estimates with errors — the contents of
    /// `func.dat`/`func_ci.dat`.
    pub summary: MatrixSummary,
    /// Total sample volume on disk after the run (previous + new).
    pub total_volume: u64,
    /// Realizations simulated by *this* run.
    pub new_volume: u64,
    /// Volume inherited from the resumed previous simulation.
    pub resumed_volume: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Mean compute time per realization, seconds (the paper's τ_ζ):
    /// the ranks' timed intervals, summed, over the new volume. An
    /// interval covers one realization — `out` zeroed, the stream
    /// positioned, the user's routine, the accumulate — when that takes
    /// 4 µs or more; a shorter routine is timed in blocks of up to
    /// 1 024 such realizations between one pair of clock reads.
    pub mean_time_per_realization: f64,
    /// Number of processors used.
    pub processors: usize,
    /// Per-worker realization counts (index = rank).
    pub worker_volumes: Vec<u64>,
    /// The results directory of the run.
    pub results_dir: ResultsDir,
    /// Folded monitor trace of the run; `Some` only when the run was
    /// built with [`ParmoncBuilder::monitor`]. The full event trace is
    /// at `parmonc_data/monitor/run_metrics.jsonl`.
    pub monitor: Option<MonitorSummary>,
    /// Ranks the collector declared dead during the run (empty on a
    /// healthy run). Their last received cumulative subtotals are kept
    /// in the estimate; their unfinished budget was reassigned.
    pub lost_workers: Vec<usize>,
    /// Realizations moved between ranks by fault recovery (the sum of
    /// all `work_reassigned` events).
    pub reassigned_realizations: u64,
    /// Whether the resume baseline had to be read from the last-good
    /// backup generation because the primary checkpoint was corrupt.
    pub checkpoint_recovered: bool,
}

/// Validates resume preconditions and returns the baseline accumulator
/// plus whether it was recovered from the backup checkpoint generation.
fn resume_baseline(
    config: &RunConfig,
    dir: &ResultsDir,
) -> Result<(MatrixAccumulator, bool), ParmoncError> {
    match config.resume {
        Resume::New => Ok((MatrixAccumulator::new(config.nrow, config.ncol)?, false)),
        Resume::Resume => {
            let (previous, recovered) =
                dir.load_checkpoint_recovering()?
                    .ok_or_else(|| ParmoncError::NothingToResume {
                        dir: dir.root().to_path_buf(),
                    })?;
            if previous.shape() != (config.nrow, config.ncol) {
                return Err(ParmoncError::ResumeShapeMismatch {
                    on_disk: previous.shape(),
                    requested: (config.nrow, config.ncol),
                });
            }
            // The paper requires a fresh "experiments" subsequence on
            // resumption, otherwise the new realizations would repeat
            // the old base random numbers.
            if dir
                .read_experiments()?
                .iter()
                .any(|rec| rec.seqnum == config.seqnum)
            {
                return Err(ParmoncError::SeqnumAlreadyUsed {
                    seqnum: config.seqnum,
                });
            }
            Ok((previous, recovered))
        }
    }
}

/// The references every rank's loop reads and none of them owns — what
/// used to travel as seven positional arguments.
struct RunCtx<'a, R: ?Sized> {
    config: &'a RunConfig,
    hierarchy: &'a StreamHierarchy,
    dir: &'a ResultsDir,
    realize: &'a R,
    /// The rank's own monitor: the run's on rank 0 and on thread
    /// workers, the forwarding one on a socket worker.
    monitor: &'a Monitor,
    faults: &'a FaultHandle,
    start: Instant,
}

impl<R: ?Sized> RunCtx<'_, R> {
    /// Whether the run's wall-clock budget, if it has one, was spent
    /// by `now`.
    fn deadline_passed(&self, now: Instant) -> bool {
        self.config
            .deadline
            .is_some_and(|d| now.duration_since(self.start) >= d)
    }

    /// Records that a scripted fault took `rank` down after `after`
    /// realizations.
    fn record_crash(&self, rank: usize, after: u64) {
        self.monitor.emit(
            Some(rank),
            EventKind::FaultInjected {
                fault: FaultKind::RankCrash.as_str().to_string(),
                detail: Some(after),
            },
        );
        self.faults.note_crash(after);
    }
}

/// Runs the simulation. This is the body behind
/// [`ParmoncBuilder::run`](crate::config::ParmoncBuilder::run).
///
/// With [`Transport::Processes`], this call is also the worker-side
/// entry point: a launched worker process runs the user program up to
/// this call, where the `PARMONC_WORKER_SOCKET` environment diverts it
/// into the worker loop and the process exits without returning — so
/// the re-executed user `main` continues past `run()` in the parent
/// only.
///
/// The match below only *constructs the world*; one driver then runs
/// the ranks over it, whatever it is made of.
///
/// # Errors
///
/// Propagates configuration, resume, I/O and transport errors.
pub fn run<R>(config: RunConfig, realize: R) -> Result<RunReport, ParmoncError>
where
    R: Realize + Sync,
{
    if config.transport == Transport::Processes {
        if let Some(info) = parmonc_ipc::worker_env() {
            let code = match socket_worker(&config, &realize, Some(&info)) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("parmonc worker: {e}");
                    1
                }
            };
            std::process::exit(code);
        }
    }
    let start = Instant::now();
    let transport = match config.transport {
        Transport::Threads => RunTransport::Threads,
        Transport::Processes => RunTransport::Processes,
        Transport::Tcp if config.listen_addr.is_none() => {
            return Err(ParmoncError::Config(
                "the TCP transport needs a listen address on the collector: use \
                 .net(NetOptions::listen(\"host:port\")) (workers use \
                 .net(NetOptions::join(addr)) + run_worker)"
                    .into(),
            ));
        }
        Transport::Tcp => RunTransport::Tcp,
    };
    let setup = prepare(&config, transport)?;
    let ctx = RunCtx {
        config: &config,
        hierarchy: &setup.hierarchy,
        dir: &setup.dir,
        realize: &realize,
        monitor: &setup.monitor,
        faults: &setup.faults,
        start,
    };
    let baseline = setup.baseline.clone();
    let mut collector = match config.transport {
        // Ranks are scoped OS threads over the `parmonc-mpi` mailbox
        // world: rank 0 stays here, ranks 1.. go to the driver's scope.
        Transport::Threads => {
            let mut locals = World::communicators_faulted(
                config.processors,
                setup.monitor.clone(),
                setup.faults.clone(),
            )?;
            let comm = locals.remove(0);
            drive(&ctx, baseline, None, comm, locals, |comm| {
                drop(comm);
                Ok(())
            })
        }
        // The launcher returns once every child has joined; the grant
        // told each its rank, quota and flags. No address (the
        // socket is private to the run) and no crash–resume (a crashed
        // parent orphans nothing).
        Transport::Processes => {
            let opts = listen_options(&config, &setup, String::new(), None, None);
            let world = parmonc_ipc::launch(opts, config.worker_args.clone())
                .io_ctx("launching worker processes")?;
            drive(&ctx, baseline, None, world, Vec::new(), |mut world| {
                world.shutdown().io_ctx("shutting down worker processes")
            })
        }
        Transport::Tcp => {
            let (world, resume_own) = listen(&config, &setup)?;
            drive(
                &ctx,
                baseline,
                resume_own,
                world,
                Vec::new(),
                |mut world| world.shutdown().io_ctx("shutting down the TCP listener"),
            )
        }
    }?;
    let elapsed = start.elapsed();
    // The final averaging pass is one more save-point. It always runs
    // (unlike the in-loop ones, which only fire when `averaging_period`
    // elapses), so every monitored run records at least one
    // averaging_pass and one save_point event.
    let spans = SpanEmitter::new(&setup.monitor, 0, config.trace_spans);
    let averaged = collector.save_point(&ctx, &spans)?;
    setup.dir.clear_worker_subtotals()?;
    Ok(finish(&config, setup, elapsed, collector, averaged))
}

/// What a socket world — listening on TCP or launched — is opened
/// with: everything its grants will tell the workers.
fn listen_options(
    config: &RunConfig,
    setup: &RunSetup,
    addr: String,
    resume: Option<LeaseSnapshot>,
    persist: Option<PathBuf>,
) -> ListenOptions {
    ListenOptions {
        addr,
        size: config.processors,
        monitor: setup.monitor.clone(),
        faults: setup.faults.clone(),
        config_digest: config.wire_digest(),
        quotas: (1..config.processors).map(|m| config.quota(m)).collect(),
        io_timeout: config.tcp_io_timeout,
        resume,
        persist,
        trace_spans: config.trace_spans,
        parents: Vec::new(),
    }
}

/// Everything both backends set up before any rank starts simulating.
struct RunSetup {
    faults: FaultHandle,
    dir: ResultsDir,
    monitor: Monitor,
    memory: Option<Arc<MemorySink>>,
    baseline: MatrixAccumulator,
    resumed_volume: u64,
    checkpoint_recovered: bool,
    hierarchy: StreamHierarchy,
}

/// The rank-0-side preamble shared by both backends: results
/// directory, monitor plane, resume baseline, experiment journal.
fn prepare(config: &RunConfig, transport: RunTransport) -> Result<RunSetup, ParmoncError> {
    let faults = config.faults.build();
    let dir = ResultsDir::create(&config.output_dir)?.with_faults(faults.clone());

    // The monitor is disabled (a no-op) unless the builder opted in, in
    // which case events stream to `monitor/run_metrics.jsonl` and into
    // an in-memory sink that feeds the end-of-run summary. It is built
    // before the baseline is loaded so a backup-checkpoint recovery is
    // itself observable.
    let (monitor, memory) = if config.monitor {
        let sink = JsonlSink::create(dir.run_metrics_path())
            .io_ctx("creating monitor/run_metrics.jsonl")?;
        let memory = Arc::new(MemorySink::new());
        // The metrics plane derives counters/gauges/histograms from the
        // same event stream and periodically renders Prometheus text;
        // it adds no call sites of its own.
        let metrics = MetricsSink::new().with_prometheus_output(dir.metrics_prom_path());
        let monitor: Monitor = Monitor::new(vec![
            Box::new(sink),
            Box::new(Arc::clone(&memory)),
            Box::new(metrics),
        ]);
        (monitor, Some(memory))
    } else {
        (Monitor::disabled(), None)
    };
    monitor.emit(
        None,
        EventKind::RunStarted {
            mode: RunMode::Threads,
            processors: config.processors,
            max_sample_volume: config.max_sample_volume,
            seqnum: Some(config.seqnum),
            nrow: Some(config.nrow),
            ncol: Some(config.ncol),
            transport: Some(transport),
        },
    );

    let (baseline, checkpoint_recovered) = if config.resume_collector {
        // A crash-resume continues the *same* experiment, so the
        // accumulation restarts from the original baseline — never the
        // checkpoint, which is baseline + the workers' latest
        // cumulative subtotals: those are exactly what the surviving
        // workers are about to re-send, and loading them here would
        // double-count every one.
        let baseline = dir
            .load_baseline()?
            .ok_or_else(|| ParmoncError::NothingToResume {
                dir: dir.root().to_path_buf(),
            })?;
        if baseline.shape() != (config.nrow, config.ncol) {
            return Err(ParmoncError::ResumeShapeMismatch {
                on_disk: baseline.shape(),
                requested: (config.nrow, config.ncol),
            });
        }
        (baseline, false)
    } else {
        resume_baseline(config, &dir)?
    };
    let resumed_volume = baseline.count();
    if checkpoint_recovered {
        monitor.emit(
            None,
            EventKind::CheckpointRecovered {
                volume: resumed_volume,
            },
        );
    }

    // A crash-resume continues the journal entry the crashed run
    // already wrote, and the worker subtotal files *are* the recovery
    // state — only a fresh session starts the books over.
    if !config.resume_collector {
        dir.append_experiment(&ExperimentRecord {
            seqnum: config.seqnum,
            max_sample_volume: config.max_sample_volume,
            processors: config.processors,
            resumed: config.resume == Resume::Resume,
            volume_before: resumed_volume,
        })?;
        dir.save_baseline(&baseline)?;
        dir.clear_worker_subtotals()?;
    }

    Ok(RunSetup {
        faults,
        dir,
        monitor,
        memory,
        baseline,
        resumed_volume,
        checkpoint_recovered,
        hierarchy: StreamHierarchy::new(config.leaps),
    })
}

/// The TCP backend's world: bind the listener, record the actually
/// bound address in `parmonc_data/collector.addr`, and — on a
/// crash-resume — hand back rank 0's own saved progress.
///
/// Unlike the process backend nobody is spawned here: every worker
/// rank starts life as an *unleased* slot. Remote workers started with
/// [`ParmoncBuilder::run_worker`](crate::config::ParmoncBuilder::run_worker)
/// dial in and lease slots; slots that never join go quiet past the
/// liveness timeout and their budget is reassigned exactly as if a
/// launched worker had died — the estimate stays bit-identical either
/// way because stream coordinates are fixed by `(seqnum, rank)`.
fn listen(
    config: &RunConfig,
    setup: &RunSetup,
) -> Result<(TcpCollectorTransport, Option<Subtotal>), ParmoncError> {
    // Crash-resume: reload the crashed session's lease table so the
    // listener comes back with the same epoch, every lease a worker
    // holds is recognized on rejoin, and the sequence dedup state
    // carries over. Rank 0's own progress comes back from its worker
    // subtotal file, exactly like any other rank's.
    let resume = if config.resume_collector {
        let path = setup.dir.lease_table_path();
        let text = setup
            .dir
            .load_lease_table()?
            .ok_or_else(|| ParmoncError::NothingToResume {
                dir: setup.dir.root().to_path_buf(),
            })?;
        let snapshot =
            LeaseSnapshot::decode(&text).ok_or_else(|| ParmoncError::CorruptCheckpoint {
                path,
                reason: "unparseable lease table".into(),
            })?;
        Some(snapshot)
    } else {
        None
    };
    let resumed_leases = resume
        .as_ref()
        .map(|s| s.ever_leased.iter().filter(|leased| **leased).count());
    let resume_own = if config.resume_collector {
        setup
            .dir
            .load_worker_subtotals()?
            .into_iter()
            .find(|(idx, _)| *idx == 0)
            .map(|(_, sub)| sub)
    } else {
        None
    };
    let addr = config
        .listen_addr
        .clone()
        .expect("run() refuses a TCP collector without a listen address");
    let persist = Some(setup.dir.lease_table_path());
    let transport =
        TcpCollectorTransport::listen(listen_options(config, setup, addr, resume, persist))
            .io_ctx("binding the collector TCP listener")?;
    if let Some(leases) = resumed_leases {
        setup.monitor.emit(
            Some(0),
            EventKind::CollectorResumed {
                epoch: format!("{:016x}", transport.epoch()),
                leases,
            },
        );
    }
    setup
        .dir
        .write_collector_addr(&transport.local_addr().to_string())?;
    Ok((transport, resume_own))
}

/// The one collector driver: rank 0's loop and `locals` (the thread
/// world's ranks 1.., none for a socket world) each run on a scoped
/// thread, and the world is torn down as soon as rank 0's loop returns
/// — before the workers are joined and before the report is folded. The
/// order matters twice: a thread worker still simulating when rank 0
/// gives up (an aborted run) winds down only when rank 0's mailbox
/// closes, and a socket world's teardown joins its readers, so every
/// forwarded worker event is in the sinks — and every child reaped —
/// whatever the outcome.
///
/// Rank 0 gets a thread of its own, started *first*, and the calling
/// thread only joins — the arrangement the thread backend always had.
/// Running rank 0 on the calling thread instead measured up to twice
/// the wall time on two-rank thread runs of a few milliseconds (on
/// tmpfs as on ext4; the repository benchmark's `setup_s` +35–45 %,
/// `sde_strict_threads` realizations/s −6 %): on the two-vCPU box a
/// spawner that stays busy leaves the ranks sharing a core for a good
/// part of so short a run.
fn drive<C: Comm + Send, R: Realize + Sync>(
    ctx: &RunCtx<'_, R>,
    baseline: MatrixAccumulator,
    resume_own: Option<Subtotal>,
    comm: C,
    locals: Vec<Communicator>,
    teardown: impl FnOnce(C) -> Result<(), ParmoncError> + Send,
) -> Result<Collector, ParmoncError> {
    // Shared slots: the first error raised inside a rank wins, and
    // rank 0 leaves the collector it built.
    let failure: Mutex<Option<ParmoncError>> = Mutex::new(None);
    let collected: Mutex<Option<Collector>> = Mutex::new(None);
    let fail = |e: ParmoncError| {
        let mut slot = failure
            .lock()
            .expect("the slot is never held across a panic");
        slot.get_or_insert(e);
    };
    std::thread::scope(|scope| {
        let mut handles = vec![scope.spawn(|| {
            let mut comm = comm;
            match rank0_loop(ctx, &mut comm, baseline, resume_own) {
                Ok(collector) => {
                    *collected.lock().expect("only rank 0 writes it") = Some(collector)
                }
                Err(e) => fail(e),
            }
            // A panicking rank 0 unwinds through `comm` instead, which
            // tears the world down just the same.
            teardown(comm).unwrap_or_else(fail);
        })];
        handles.extend(locals.into_iter().map(|comm| {
            scope.spawn(|| {
                worker_loop(ctx, comm, ctx.config.trace_spans).unwrap_or_else(fail);
            })
        }));
        for h in handles {
            if h.join().is_err() {
                fail(ParmoncError::Mpi(MpiError::RankPanicked {
                    rank: usize::MAX,
                    message: "a rank panicked".into(),
                }));
            }
        }
    });
    match failure.into_inner().expect("every rank has been joined") {
        Some(e) => Err(e),
        None => Ok(collected
            .into_inner()
            .expect("every rank has been joined")
            .expect("rank 0 always produces collector state on success")),
    }
}

/// The rank-0-side epilogue: folds the final averaging pass and the
/// collector's bookkeeping into the report.
fn finish(
    config: &RunConfig,
    setup: RunSetup,
    elapsed: Duration,
    collector: Collector,
    averaged: Averaged,
) -> RunReport {
    let RunSetup {
        dir,
        monitor,
        memory,
        resumed_volume,
        checkpoint_recovered,
        ..
    } = setup;
    let Collector { state, live, .. } = collector;
    let Averaged {
        total,
        summary,
        mean_time,
        ..
    } = averaged;
    let new_volume = state.new_volume();

    let worker_volumes: Vec<u64> = state
        .latest
        .iter()
        .map(|s| s.as_ref().map_or(0, |s| s.acc.count()))
        .collect();

    let monitor_summary = memory.map(|memory| {
        // Count the collector's inbound traffic from the trace itself,
        // so run_completed agrees with the message_received lines.
        let (messages, bytes) = memory
            .snapshot()
            .iter()
            .fold((0u64, 0u64), |(m, b), ev| match ev.kind {
                EventKind::MessageReceived { bytes, .. } if ev.rank == Some(0) => {
                    (m + 1, b + bytes)
                }
                _ => (m, b),
            });
        monitor.emit(
            None,
            EventKind::RunCompleted {
                realizations: new_volume,
                t_comp_seconds: elapsed.as_secs_f64(),
                messages,
                bytes,
            },
        );
        let dropped = monitor.flush();
        let mut summary = MonitorSummary::from_events(&memory.snapshot());
        summary.dropped_events = dropped;
        summary
    });

    RunReport {
        total_volume: total.count(),
        new_volume,
        resumed_volume,
        summary,
        elapsed,
        mean_time_per_realization: mean_time,
        processors: config.processors,
        worker_volumes,
        results_dir: dir,
        monitor: monitor_summary,
        lost_workers: live.lost,
        reassigned_realizations: live.reassigned,
        checkpoint_recovered,
    }
}

/// How often, at most, a rank rewrites its on-disk subtotal file.
const WORKER_FILE_PERIOD: Duration = Duration::from_millis(500);

/// How often, at most, a simulating rank looks at its inbox. Looking
/// pulls the cache lines the senders write across the die, and the
/// senders then pay to get them back — on every realization, if every
/// realization looks. At any realization time above this (the paper's
/// are milliseconds) every realization still looks; below it the
/// newest subtotal of each sender is read this often and the ones in
/// between are superseded unread, which formula (5) cannot tell apart.
/// EXPERIMENTS.md (PR 17) has the sweep: the step is between 0 and
/// 2 µs, a gentle slope beyond.
const INBOX_POLL_PERIOD: Duration = Duration::from_micros(2);

/// Exchange may cost a rank at most one part in this many of its time.
/// EXPERIMENTS.md (PR 19) has the sweep on `matrix_strict_tcp`: 1 is no
/// governor at all in effect, 4 to 32 is a plateau, and 8 sits in it.
const EXCHANGE_COST_MULTIPLE: u32 = 8;

/// How long, at least, the realizations between one pair of clock reads
/// should last together. A clock read costs 39–41 ns and the time-gated
/// bookkeeping behind the second one ≈ 10 ns, so at this value timing
/// and bookkeeping cost a rank at most ≈ 1/32 of its time, and a
/// routine of 4 µs or more is still timed call by call. It is the
/// smallest value of the swept 0.5–8 µs that meets that budget, and
/// reaches ≈ 98 % of the best serial rate of the sweep
/// (docs/performance.md, "Timing blocks").
///
/// A stop, an extension or the deadline is seen at a block boundary:
/// for a routine of steady speed at most this plus one call late.
const TIMING_BLOCK: Duration = Duration::from_micros(4);

/// The most realizations one pair of clock reads may cover: room to
/// fill [`TIMING_BLOCK`] with realizations down to ≈ 4 ns (the free
/// 1 × 1 one is ≈ 7 ns). A block is sized from the speed the block
/// before it measured, so a routine that turns slow in between delays
/// every time-gated check by at most this many of its calls: the worst
/// case is 1 024 × the longest call, ≈ 1 s for a routine that jumps
/// from nanoseconds to 1 ms a call.
const MAX_TIMING_BLOCK: u64 = 1024;

/// Decides when a rank's next *non-final* subtotal is due, so that
/// exchange costs the rank at most one part in
/// [`EXCHANGE_COST_MULTIPLE`] of its time.
///
/// A rank *offers* a cumulative subtotal after every realization that
/// its exchange mode makes due; the governor withholds an offer only
/// in favour of a newer one from the same rank — subtotals are
/// cumulative and the collector does replace-then-sum, so formula (5)
/// cannot tell a withheld subtotal from one it merged and then
/// replaced. The contract:
///
/// * the first offer is always due, and the final subtotal is never
///   asked about — it always ships;
/// * after a subtotal ships at `sent_at`, the next is due at
///   `sent_at + min(EXCHANGE_COST_MULTIPLE × cost, cap)`, where `cost`
///   is what exchange adds: everything the runtime did between the end
///   of the timed block that shipped and the start of the next one —
///   encode, the send *including any time blocked in a socket write*,
///   the inbox look and the time-gated bookkeeping; on rank 0, whose
///   offer refreshes the collector's snapshot of it in place, the copy
///   and whatever collecting its poll did. Accumulating, zeroing and
///   stream positioning are inside the timed blocks, so they are
///   compute, not exchange. A congested link or a slow collector
///   lengthens the interval by itself — back-pressure is followed, not
///   configured;
/// * so with a realization time τ ≥ `EXCHANGE_COST_MULTIPLE × cost`
///   (the paper's 7.7 s, and anything above a few tens of µs on
///   threads) every offer ships, exactly `quota − 1` non-finals;
/// * `cap` is the heartbeat period: no interval between shipped
///   subtotals exceeds it by more than one realization, so the
///   liveness plane sees the same cadence as before.
///
/// Both instants it is fed are clock reads the loop takes anyway (the
/// pair around each timed block); the governor never reads a clock.
#[derive(Debug)]
struct ExchangeGovernor {
    cap: Duration,
    /// When the last subtotal shipped, until the next realization's
    /// start prices it.
    unpriced: Option<Instant>,
    /// `None` until the first shipped subtotal has been priced.
    not_before: Option<Instant>,
}

impl ExchangeGovernor {
    fn new(cap: Duration) -> Self {
        Self {
            cap,
            unpriced: None,
            not_before: None,
        }
    }

    /// Whether an offer made at `now` (a timed block's second clock
    /// read) ships.
    fn due(&self, now: Instant) -> bool {
        self.not_before.is_none_or(|t| now >= t)
    }

    /// A subtotal offered at `now` has been sent.
    fn shipped(&mut self, now: Instant) {
        self.unpriced = Some(now);
    }

    /// A timed block started at `t0` (its first clock read): prices
    /// the iteration that shipped.
    fn realization_starts(&mut self, t0: Instant) {
        if let Some(sent_at) = self.unpriced.take() {
            let cost = t0.duration_since(sent_at);
            let hold = cost.saturating_mul(EXCHANGE_COST_MULTIPLE).min(self.cap);
            self.not_before = Some(sent_at + hold);
        }
    }
}

/// How many realizations the next timed block runs, given that the last
/// one ran `block` of them in `elapsed`: as many as fit [`TIMING_BLOCK`]
/// at the rate just measured, at most twice the last block and at most
/// [`MAX_TIMING_BLOCK`].
///
/// So the first block of every loop is one realization; a routine that
/// takes [`TIMING_BLOCK`] or longer stays at one, where the loop reads
/// the clock around every realization; and one block that outlasts
/// [`TIMING_BLOCK`] — a rare long call — sends the stride straight back
/// toward one.
fn next_block(block: u64, elapsed: Duration) -> u64 {
    let fit = TIMING_BLOCK.as_nanos() * u128::from(block) / elapsed.as_nanos().max(1);
    u64::try_from(fit)
        .unwrap_or(u64::MAX)
        .clamp(1, (2 * block).min(MAX_TIMING_BLOCK))
}

/// One rank's simulation, owned by whoever runs [`simulate_quota`] on
/// it: how far it is to go, what it has accumulated, where its next
/// stream starts, the stream and the buffer the user's routine is
/// handed, how many realizations the next pair of clock reads covers,
/// and the emitter of the rank's spans. The loop can be left and
/// entered again on the same value and carries on at the next stream
/// coordinate.
struct RealizationLoop {
    rank: usize,
    /// Realizations this rank is to have simulated in all: its dealt
    /// quota, grown by whatever a poll reports reassigned to it.
    quota: u64,
    /// The rank's cumulative subtotal; `own.acc.count()` realizations
    /// are done.
    own: Subtotal,
    cursor: StreamCursor,
    /// The one stream every realization is handed, overwritten in place
    /// by the cursor before each call (a copy in a local while a block
    /// runs).
    stream: RealizationStream,
    out: Vec<f64>,
    /// Realizations in the next timed block; see [`next_block`].
    block: u64,
    spans: SpanEmitter,
}

impl RealizationLoop {
    /// Starts `rank` from `resumed` — the subtotal a crashed session of
    /// the same experiment left in the rank's state file — or from
    /// nothing, with the cursor at the first realization not in it: the
    /// exact coordinates the crashed run would have simulated next, so
    /// the continuation is bit-identical. (A stale file merely replays
    /// some realizations; same coordinates, same values, replaced not
    /// summed.)
    ///
    /// One incremental cursor instead of a fresh three-level leapfrog
    /// positioning (three 128-bit modpows) per realization: advancing
    /// to the next realization stream is a single 128-bit multiply and
    /// yields bit-identical streams (see `parmonc_rng::StreamCursor`),
    /// written into the loop's one stream. That stream starts as the
    /// rank's coordinate 0, which is in capacity whenever the cursor's
    /// start is; the first step overwrites it before any routine sees
    /// it.
    fn new<R: ?Sized>(
        ctx: &RunCtx<'_, R>,
        rank: usize,
        resumed: Option<Subtotal>,
        spans: &SpanEmitter,
    ) -> Result<Self, ParmoncError> {
        let config = ctx.config;
        let own = match resumed {
            Some(own) => own,
            None => Subtotal {
                acc: MatrixAccumulator::new(config.nrow, config.ncol)?,
                compute_seconds: 0.0,
            },
        };
        let sp_position = spans.start(SpanPhase::StreamPosition, None);
        let cursor =
            ctx.hierarchy
                .cursor(StreamId::new(config.seqnum, rank as u64, own.acc.count()))?;
        let stream =
            ctx.hierarchy
                .realization_stream(StreamId::new(config.seqnum, rank as u64, 0))?;
        spans.end(sp_position, SpanPhase::StreamPosition);
        Ok(Self {
            rank,
            quota: config.quota(rank),
            own,
            cursor,
            stream,
            out: vec![0.0f64; config.nrow * config.ncol],
            block: 1,
            spans: spans.clone(),
        })
    }

    /// Realizations simulated so far.
    fn done(&self) -> u64 {
        self.own.acc.count()
    }

    /// Rewrites the rank's on-disk state file — what `manaver` and a
    /// crash-resume read — under a `checkpoint` span.
    fn save_state(&self, dir: &ResultsDir, parent_span: u64) -> Result<(), ParmoncError> {
        let sp_ck = self.spans.start(SpanPhase::Checkpoint, Some(parent_span));
        dir.save_worker_state(self.rank, &self.own.acc, self.own.compute_seconds)?;
        self.spans.end(sp_ck, SpanPhase::Checkpoint);
        Ok(())
    }

    /// The one realization body: runs the next block — at most up to
    /// `stop_at` realizations done in all (the quota, or a scripted
    /// crash point before it), which must be further than the rank has
    /// got — into `own` between one pair of clock reads, and books the
    /// interval as compute time. Returns the read before the first
    /// realization is zeroed and positioned and the read after the
    /// last one is accumulated.
    ///
    /// Every realization lies inside exactly one timed interval and
    /// keeps every per-realization check (`out` zeroed, the cursor's
    /// capacity check, `add`'s shape and non-finite checks), and the
    /// same streams are added in the same order whatever the block
    /// length: the volume and the estimate do not depend on it. The
    /// first block of every pass through the loop and every block of a
    /// routine that takes [`TIMING_BLOCK`] or longer is a block of one.
    /// Everything time-gated in the caller — the `due` rule, the inbox
    /// poll, liveness, heartbeat, averaging, the deadline — runs once
    /// per block against the second read.
    ///
    /// Nothing inside the loop reads a clock, so the stream and the
    /// cursor can stay in registers from one realization to the next.
    /// One loop with one call site per step rather than a peeled
    /// first or last iteration: a block of one and a block of a
    /// thousand run the same code (docs/performance.md, "Timing
    /// blocks").
    fn simulate_block<R: Realize + ?Sized>(
        &mut self,
        realize: &R,
        stop_at: u64,
    ) -> Result<(Instant, Instant), ParmoncError> {
        let n = self.block.min(stop_at - self.done());
        // The cursor and the stream as locals for the block: `out`'s
        // `memset` cannot write to them, so they stay in registers across
        // iterations instead of going through `self` around every call.
        // An error ends the rank, so that path does not write them back.
        let (mut cursor, mut stream) = (self.cursor.clone(), self.stream.clone());
        let out = self.out.as_mut_slice();
        let acc = &mut self.own.acc;
        let t0 = Instant::now();
        for _ in 0..n {
            out.fill(0.0);
            cursor.next_into(&mut stream)?;
            realize.realize(&mut stream, out);
            acc.add(out)?;
        }
        let now = Instant::now();
        (self.cursor, self.stream) = (cursor, stream);
        let elapsed = now.duration_since(t0);
        self.own.compute_seconds += elapsed.as_secs_f64();
        self.block = next_block(n, elapsed);
        Ok((t0, now))
    }
}

/// What a rank's poll found: an order to stop and/or extra realizations
/// reassigned to it from a lost rank.
#[derive(Debug, Default)]
struct Control {
    stop: bool,
    extra: u64,
}

/// What [`simulate_quota`] asks of the rank it runs on. A [`Worker`]
/// ships its subtotals upstream and takes orders from rank 0; [`Rank0`]
/// is the collector they arrive at, and its own subtotal enters formula
/// (5) exactly as any other rank's does.
trait Role {
    /// Takes the rank's cumulative subtotal as of `now`. An offer is
    /// contact with rank 0: the heartbeat cadence restarts from it.
    fn offer(&mut self, own: &Subtotal, now: Instant, is_final: bool) -> Result<(), ParmoncError>;

    /// Tells rank 0 this rank is alive, through a stretch without such
    /// contact. Rank 0 has nobody to tell.
    fn heartbeat(&mut self) -> Result<(), ParmoncError> {
        Ok(())
    }

    /// Looks at the inbox and does whatever else the rank owes the run
    /// between realizations.
    fn poll(&mut self, own: &Subtotal, now: Instant) -> Result<Control, ParmoncError>;
}

/// The progress event ahead of every offer. Skips event construction
/// (and the timestamp it takes) entirely when no monitor sink is
/// attached — this runs once per realization in the strictest exchange
/// mode.
fn report_progress(monitor: &Monitor, rank: usize, own: &Subtotal) {
    if monitor.is_enabled() {
        monitor.emit(
            Some(rank),
            EventKind::Realizations {
                completed: own.acc.count(),
                compute_seconds: own.compute_seconds,
            },
        );
    }
}

/// The simulation loop common to every rank: simulate up to the quota,
/// offering the cumulative subtotal to `role` whenever the exchange mode
/// and the governor make one due, rewriting the rank's state file at
/// most every [`WORKER_FILE_PERIOD`], heartbeating through quiet
/// stretches, and growing the quota when a poll reports reassigned work
/// (extension realizations run on this rank's *own* stream coordinates
/// past its original quota, so no leapfrog subsequence is ever reused).
/// It ends with the state file and a final offer. Entered again on the
/// same `sim` — rank 0 does, when work lands on it while it waits for
/// finals — it picks the extension up from its first poll and carries on
/// from the next coordinate, every gate live.
///
/// Returns `Some(n)` when a fault scripted for after `n` realizations
/// crashed the rank first — after exactly `n`, whatever the block
/// length: the crash is recorded, nothing final is written or offered,
/// and the caller lets the rank vanish. A fault plan changes nothing
/// else about how the loop simulates, offers or sends.
fn simulate_quota<R: Realize + ?Sized>(
    ctx: &RunCtx<'_, R>,
    sim: &mut RealizationLoop,
    role: &mut impl Role,
) -> Result<Option<u64>, ParmoncError> {
    let (config, faults) = (ctx.config, ctx.faults);
    let crash_after = faults.crash_after(sim.rank);
    // One `due` rule: strict exchange is periodic exchange with a zero
    // period, and the governor holds either to its share.
    let period = match config.exchange {
        Exchange::EveryRealization => Duration::ZERO,
        Exchange::Periodic => config.pass_period,
    };
    let mut governor = ExchangeGovernor::new(config.heartbeat_period);
    let mut last_pass = Instant::now();
    let mut last_contact = last_pass;
    let mut last_file_write: Option<Instant> = None;
    // The currently open realization-batch span (0 between batches or
    // with spans off — `start`/`end` treat 0 as "nothing open").
    let mut batch_span: u64 = 0;
    // The second clock read of the block before, and when
    // the inbox is next looked at: on the first iteration, then once
    // per period — and always before deciding the quota is done (an
    // extension may be waiting).
    let mut now = last_pass;
    let mut next_poll = now;
    loop {
        // What the rank's scripted link faults are keyed on, told before
        // anything below writes a frame.
        faults.note_progress(sim.rank, sim.done());
        if sim.done() >= sim.quota || now >= next_poll {
            let ctl = role.poll(&sim.own, now)?;
            next_poll = now + INBOX_POLL_PERIOD;
            sim.quota += ctl.extra;
            if ctl.stop {
                break;
            }
        }
        if sim.done() >= sim.quota || ctx.deadline_passed(now) {
            break;
        }
        if let Some(after) = crash_after.filter(|&n| sim.done() >= n) {
            ctx.record_crash(sim.rank, after);
            return Ok(Some(after));
        }
        if sim.spans.is_enabled() && batch_span == 0 {
            batch_span = sim.spans.start(SpanPhase::RealizationBatch, None);
        }
        // Two clock reads per block, around the whole block.
        // Every time-gated check below reuses `now` via
        // `duration_since`, which is pure arithmetic — clock reads used
        // to dominate the runtime's per-realization overhead.
        // The crash point bounds the block, so it is met exactly.
        let stop_at = sim.quota.min(crash_after.unwrap_or(u64::MAX));
        let (t0, read) = sim.simulate_block(ctx.realize, stop_at)?;
        now = read;
        governor.realization_starts(t0);

        let due = now.duration_since(last_pass) >= period && governor.due(now);
        if due && sim.done() < sim.quota {
            let sp_send = sim.spans.start(SpanPhase::SubtotalSend, Some(batch_span));
            report_progress(ctx.monitor, sim.rank, &sim.own);
            role.offer(&sim.own, now, false)?;
            sim.spans.end(sp_send, SpanPhase::SubtotalSend);
            last_contact = now;
            if last_file_write.is_none_or(|t| now.duration_since(t) >= WORKER_FILE_PERIOD) {
                sim.save_state(ctx.dir, batch_span)?;
                last_file_write = Some(now);
            } else {
                // An iteration that also rewrote the state file is not
                // priced: that fsync is the save-point's cost, not
                // exchange's, and eight times its milliseconds would
                // withhold subtotals the paper's regime must ship.
                governor.shipped(now);
            }
            sim.spans.end(batch_span, SpanPhase::RealizationBatch);
            batch_span = 0;
            last_pass = now;
        }
        if now.duration_since(last_contact) >= config.heartbeat_period {
            role.heartbeat()?;
            last_contact = now;
        }
    }

    sim.save_state(ctx.dir, batch_span)?;
    let sp_send = sim.spans.start(SpanPhase::SubtotalSend, Some(batch_span));
    report_progress(ctx.monitor, sim.rank, &sim.own);
    role.offer(&sim.own, now, true)?;
    sim.spans.end(sp_send, SpanPhase::SubtotalSend);
    sim.spans.end(batch_span, SpanPhase::RealizationBatch);
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realize::RealizeFn;
    use std::path::PathBuf;

    pub(super) fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("parmonc-runner-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    pub(super) fn uniform_mean(
    ) -> RealizeFn<impl Fn(&mut parmonc_rng::RealizationStream, &mut [f64])> {
        RealizeFn::new(|rng, out| {
            for o in out.iter_mut() {
                *o = rng.next_f64();
            }
        })
    }

    /// What `rank` accumulates over its first `upto` stream coordinates
    /// of experiment `seqnum` under `routine`: every stream positioned
    /// from scratch, every `out` zeroed.
    pub(super) fn rank_pass_with(
        routine: &dyn Realize,
        seqnum: u64,
        rank: usize,
        (nrow, ncol): (usize, usize),
        upto: u64,
    ) -> MatrixAccumulator {
        let h = StreamHierarchy::default();
        let mut acc = MatrixAccumulator::new(nrow, ncol).unwrap();
        let mut out = vec![0.0; nrow * ncol];
        for r in 0..upto {
            let mut stream = h
                .realization_stream(StreamId::new(seqnum, rank as u64, r))
                .unwrap();
            out.fill(0.0);
            routine.realize(&mut stream, &mut out);
            acc.add(&out).unwrap();
        }
        acc
    }

    /// [`rank_pass_with`] under [`uniform_mean`].
    pub(super) fn rank_pass(
        seqnum: u64,
        rank: usize,
        shape: (usize, usize),
        upto: u64,
    ) -> MatrixAccumulator {
        rank_pass_with(&uniform_mean(), seqnum, rank, shape, upto)
    }

    /// The outcome oracle of a run of `routine`, whatever befell it: the
    /// serial merge, in rank order, of the first `volumes[rank]` streams
    /// of every rank — what the report says contributed.
    pub(super) fn serial_merge_with(
        routine: &dyn Realize,
        seqnum: u64,
        shape: (usize, usize),
        volumes: &[u64],
    ) -> MatrixSummary {
        let mut total = MatrixAccumulator::new(shape.0, shape.1).unwrap();
        for (rank, &volume) in volumes.iter().enumerate() {
            total
                .merge(&rank_pass_with(routine, seqnum, rank, shape, volume))
                .unwrap();
        }
        total.summary()
    }

    /// [`serial_merge_with`] under [`uniform_mean`].
    pub(super) fn serial_merge(
        seqnum: u64,
        shape: (usize, usize),
        volumes: &[u64],
    ) -> MatrixSummary {
        serial_merge_with(&uniform_mean(), seqnum, shape, volumes)
    }

    #[test]
    fn single_processor_run_estimates_uniform_mean() {
        let dir = tempdir("single");
        let report = Parmonc::builder(2, 2)
            .max_sample_volume(4000)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.total_volume, 4000);
        assert_eq!(report.new_volume, 4000);
        assert_eq!(report.resumed_volume, 0);
        assert_eq!(report.worker_volumes, vec![4000]);
        for m in &report.summary.means {
            assert!((m - 0.5).abs() < 0.03, "mean {m}");
        }
        assert!(report.summary.eps_max > 0.0);
    }

    #[test]
    fn multi_processor_volume_is_exact() {
        let dir = tempdir("multi");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(1003)
            .processors(4)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.total_volume, 1003);
        assert_eq!(report.worker_volumes.iter().sum::<u64>(), 1003);
        assert_eq!(report.worker_volumes.len(), 4);
        // Quota balancing: 251, 251, 251, 250.
        assert_eq!(*report.worker_volumes.iter().max().unwrap(), 251);
    }

    #[test]
    fn parallel_run_matches_merged_streams_deterministically() {
        // The estimate must be a pure function of (seqnum, M, maxsv):
        // run twice and compare bitwise.
        let d1 = tempdir("det1");
        let d2 = tempdir("det2");
        let r1 = Parmonc::builder(2, 1)
            .max_sample_volume(500)
            .processors(3)
            .seqnum(5)
            .output_dir(&d1)
            .run(uniform_mean())
            .unwrap();
        let r2 = Parmonc::builder(2, 1)
            .max_sample_volume(500)
            .processors(3)
            .seqnum(5)
            .output_dir(&d2)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(r1.summary.means, r2.summary.means);
        assert_eq!(r1.summary.variances, r2.summary.variances);
    }

    #[test]
    fn files_exist_after_run() {
        let dir = tempdir("files");
        let report = Parmonc::builder(2, 2)
            .max_sample_volume(100)
            .processors(2)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let rd = &report.results_dir;
        assert!(rd.func_path().is_file());
        assert!(rd.func_ci_path().is_file());
        assert!(rd.func_log_path().is_file());
        assert!(rd.checkpoint_path().is_file());
        assert!(rd.journal_path().is_file());
        // Worker files are folded into the checkpoint on clean exit.
        assert!(rd.load_worker_subtotals().unwrap().is_empty());
    }

    #[test]
    fn resume_accumulates_previous_results() {
        let dir = tempdir("resume");
        let first = Parmonc::builder(1, 1)
            .max_sample_volume(600)
            .processors(2)
            .seqnum(0)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let second = Parmonc::builder(1, 1)
            .max_sample_volume(400)
            .processors(2)
            .seqnum(1)
            .resume(Resume::Resume)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(second.resumed_volume, 600);
        assert_eq!(second.new_volume, 400);
        assert_eq!(second.total_volume, 1000);
        // The resumed mean is the volume-weighted average of both runs.
        let expected = (first.summary.means[0] * 600.0
            + (second.total_volume as f64 * second.summary.means[0]
                - first.summary.means[0] * 600.0))
            / 1000.0;
        assert!((second.summary.means[0] - expected).abs() < 1e-12);
        // And the error bound shrank with the larger volume.
        assert!(second.summary.eps_max < first.summary.eps_max);
    }

    #[test]
    fn resume_requires_existing_results() {
        let dir = tempdir("resume-missing");
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .resume(Resume::Resume)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap_err();
        assert!(matches!(err, ParmoncError::NothingToResume { .. }));
    }

    #[test]
    fn resume_rejects_reused_seqnum() {
        let dir = tempdir("resume-seqnum");
        Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .seqnum(3)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .seqnum(3)
            .resume(Resume::Resume)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap_err();
        assert!(matches!(err, ParmoncError::SeqnumAlreadyUsed { seqnum: 3 }));
    }

    #[test]
    fn resume_rejects_shape_change() {
        let dir = tempdir("resume-shape");
        Parmonc::builder(2, 2)
            .max_sample_volume(10)
            .seqnum(0)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let err = Parmonc::builder(3, 2)
            .max_sample_volume(10)
            .seqnum(1)
            .resume(Resume::Resume)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap_err();
        assert!(matches!(err, ParmoncError::ResumeShapeMismatch { .. }));
    }

    #[test]
    fn every_realization_exchange_mode_works() {
        let dir = tempdir("strict");
        let report = Parmonc::builder(1, 2)
            .max_sample_volume(300)
            .processors(4)
            .exchange(Exchange::EveryRealization)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.total_volume, 300);
        for m in &report.summary.means {
            assert!((m - 0.5).abs() < 0.1);
        }
    }

    #[test]
    fn deadline_stops_early() {
        let dir = tempdir("deadline");
        let slow = RealizeFn::new(|rng, out| {
            std::thread::sleep(Duration::from_millis(5));
            out[0] = rng.next_f64();
        });
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(1_000_000)
            .processors(2)
            .deadline(Duration::from_millis(150))
            .output_dir(&dir)
            .run(slow)
            .unwrap();
        assert!(report.new_volume > 0, "some realizations completed");
        assert!(
            report.new_volume < 1_000_000,
            "deadline must stop the run early"
        );
        // A slow routine is timed call by call, so the deadline is
        // compared after every call: a realization that starts has seen
        // fewer than 150 ÷ 5 finish before it, on either rank.
        assert!(
            report.worker_volumes.iter().all(|&v| v <= 30),
            "{:?}: a rank ran past the deadline by more than one realization",
            report.worker_volumes
        );
        // The files still reflect what was simulated.
        assert!(report.results_dir.checkpoint_path().is_file());
    }

    /// A free routine is timed in blocks, and still every realization
    /// lies inside one timed interval: each rank's compute time is
    /// positive and no more than the run's wall.
    #[test]
    fn mean_time_per_realization_is_positive() {
        let dir = tempdir("tau");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(200_003)
            .processors(3)
            .monitor()
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert!(report.mean_time_per_realization > 0.0);
        assert!(report.elapsed > Duration::ZERO);
        let summary = report.monitor.expect("monitored run");
        for rank in 0..3 {
            let seconds = summary.ranks[&rank].compute_seconds;
            assert!(
                0.0 < seconds && seconds <= report.elapsed.as_secs_f64(),
                "rank {rank}: {seconds} s of {:?}",
                report.elapsed
            );
        }
    }

    #[test]
    fn invalid_error_target_rejected() {
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .target_abs_error(0.0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("target_abs_error"));
    }

    /// Drives an [`ExchangeGovernor`] through `n` iterations of the
    /// simulation loop on synthetic instants: the user's routine takes
    /// `tau`, and the runtime work after it `cost(i)` when iteration
    /// `i` ships and nothing when it withholds. Returns the offsets
    /// (from the loop's start) of the offers that shipped.
    fn governed_offers(
        n: u32,
        tau: Duration,
        cap: Duration,
        cost: impl Fn(u32) -> Duration,
    ) -> Vec<Duration> {
        let start = Instant::now();
        let mut governor = ExchangeGovernor::new(cap);
        let mut shipped = Vec::new();
        let mut t0 = start;
        for i in 0..n {
            governor.realization_starts(t0);
            let now = t0 + tau;
            t0 = now;
            if governor.due(now) {
                governor.shipped(now);
                shipped.push(now.duration_since(start));
                t0 += cost(i);
            }
        }
        shipped
    }

    const HEARTBEAT: Duration = Duration::from_millis(250);

    #[test]
    fn governor_ships_every_offer_when_the_routine_outlasts_its_share() {
        let cost = Duration::from_micros(5);
        // τ = 8 × cost exactly is the boundary, and it is inside.
        for tau in [cost * EXCHANGE_COST_MULTIPLE, Duration::from_secs(8)] {
            let shipped = governed_offers(1_000, tau, HEARTBEAT, |_| cost);
            assert_eq!(shipped.len(), 1_000, "τ = {tau:?}");
        }
    }

    #[test]
    fn governor_holds_a_free_routine_to_its_share() {
        // τ ≪ cost (the synthetic clock needs τ > 0 to advance through
        // a hold): one offer in every 8 × cost of wall ships.
        let (tau, cost) = (Duration::from_micros(1), Duration::from_micros(20));
        let n = 100_000;
        let shipped = governed_offers(n, tau, HEARTBEAT, |_| cost);
        let exchange = cost * shipped.len() as u32;
        let total = tau * n + exchange;
        assert!(
            exchange <= total / EXCHANGE_COST_MULTIPLE + cost,
            "{exchange:?} of {total:?} went to exchange ({} shipped)",
            shipped.len()
        );
        assert!(shipped.len() > 1, "and it is not starved either");
        // An exchange that costs nothing is never held.
        let frozen = governed_offers(1_000, Duration::ZERO, HEARTBEAT, |_| Duration::ZERO);
        assert_eq!(frozen.len(), 1_000);
    }

    #[test]
    fn governor_caps_a_stall_at_the_heartbeat_period() {
        // One send blocks for a second (a full socket buffer): the
        // next offer is due a heartbeat period after it, not 8 s.
        let tau = Duration::from_millis(1);
        let stall = |i: u32| {
            if i == 0 {
                Duration::from_secs(1)
            } else {
                Duration::from_micros(10)
            }
        };
        let shipped = governed_offers(2_000, tau, HEARTBEAT, stall);
        assert_eq!(shipped[0], tau, "the first realization is always due");
        // Offers are only made after a realization, so the stall itself
        // (longer than the cap) passes before the next one.
        assert_eq!(shipped[1], tau + Duration::from_secs(1) + tau);
        for pair in shipped.windows(2).skip(1) {
            assert!(pair[1] - pair[0] <= HEARTBEAT + tau, "{pair:?}");
        }
        // A stall shorter than the cap ÷ 8 is followed, not capped.
        let brief = |i: u32| Duration::from_millis(if i == 0 { 10 } else { 0 });
        let shipped = governed_offers(200, tau, HEARTBEAT, brief);
        assert_eq!(shipped[1] - shipped[0], Duration::from_millis(80));
    }

    /// Feeds [`next_block`] a routine that takes `per(i)` on its
    /// `i`-th call; returns the length of every block run until
    /// `calls` calls are done.
    fn strides(calls: u64, per: impl Fn(u64) -> Duration) -> Vec<u64> {
        let (mut done, mut block, mut lens) = (0, 1, Vec::new());
        while done < calls {
            let n = block.min(calls - done);
            let elapsed = (done..done + n).map(&per).sum();
            lens.push(n);
            done += n;
            block = next_block(n, elapsed);
        }
        lens
    }

    #[test]
    fn timing_block_stays_one_for_a_routine_that_fills_it() {
        // sde_strict_threads' 120 µs, the paper's 7.7 s — and the
        // boundary itself, which is inside.
        for tau in [
            TIMING_BLOCK,
            Duration::from_micros(120),
            Duration::from_millis(7_700),
        ] {
            let lens = strides(1_000, |_| tau);
            assert!(lens.iter().all(|&n| n == 1), "τ = {tau:?}");
        }
    }

    #[test]
    fn timing_block_grows_by_doubling_to_what_fits_and_no_further() {
        // A 2 ns routine would fit 2 000 times: doubling, then the cap.
        let lens = strides(10_000, |_| Duration::from_nanos(2));
        assert_eq!(
            lens[..12],
            [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1024]
        );
        assert!(lens.iter().all(|&n| n <= MAX_TIMING_BLOCK));
        // A 7 ns routine (the free routine's loop) fits 571 times, and
        // settles there.
        let lens = strides(10_000, |_| Duration::from_nanos(7));
        assert_eq!(lens[10..14], [571, 571, 571, 571]);
        // matrix_strict_tcp's 0.9 µs fits four times.
        let lens = strides(1_000, |_| Duration::from_nanos(900));
        assert_eq!(lens[..6], [1, 2, 4, 4, 4, 4]);
        // A clock that did not advance reads as "everything fits".
        assert_eq!(next_block(4, Duration::ZERO), 8);
        // The quota's tail is run exactly, whatever the stride.
        assert_eq!(lens.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn timing_block_returns_to_one_after_one_long_block() {
        // Every 1 500th call — a period above the cap — takes 5 ms: the
        // block that holds it is followed by a block of one, and no
        // block holds two of them.
        let long = |i: u64| i % 1_500 == 1_499;
        let per = |i: u64| {
            if long(i) {
                Duration::from_millis(5)
            } else {
                Duration::from_nanos(3)
            }
        };
        let lens = strides(30_000, per);
        let mut first = 0;
        for pair in lens.windows(2) {
            let held = (first..first + pair[0]).filter(|&i| long(i)).count();
            assert!(held <= 1, "{held} long calls in the block at call {first}");
            if held == 1 {
                assert_eq!(pair[1], 1, "after the block at call {first}");
            }
            first += pair[0];
        }
        assert_eq!(
            lens.iter().max(),
            Some(&MAX_TIMING_BLOCK),
            "and it grows back"
        );
    }

    #[test]
    fn timing_block_bounds_how_late_a_gate_is_seen() {
        // At a steady τ below the block, a block never outlasts
        // TIMING_BLOCK — a gate is seen at most that plus one call late
        // — and never holds more than the cap.
        for nanos in [1, 2, 7, 60, 900, 3_999] {
            let tau = Duration::from_nanos(nanos);
            let lens = strides(200_000, |_| tau);
            assert!(
                lens.iter()
                    .all(|&n| n <= MAX_TIMING_BLOCK && tau * n as u32 <= TIMING_BLOCK),
                "τ = {tau:?}"
            );
        }
        // A routine that turns slow mid-stride: the block sized from
        // its fast calls is the one that runs late, by at most the cap
        // times its longest call, and the next block is one call.
        let turn = 5_000;
        let per = |i: u64| Duration::from_nanos(if i < turn { 2 } else { 1_000_000 });
        let lens = strides(turn + 2_000, per);
        let (mut first, mut straddled) = (0, None);
        for (k, &n) in lens.iter().enumerate() {
            if first < turn && turn < first + n {
                straddled = Some(k);
            }
            first += n;
        }
        let k = straddled.expect("a block runs across the turn");
        assert!(lens[k] <= MAX_TIMING_BLOCK);
        assert_eq!(lens[k + 1], 1);
    }

    #[test]
    fn m1_equals_sum_of_stream_contributions() {
        // With M=2 the estimate uses processor streams 0 and 1;
        // verify against manually accumulating those same streams.
        let dir = tempdir("crosscheck");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(100)
            .processors(2)
            .seqnum(7)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();

        let h = StreamHierarchy::default();
        let mut manual = MatrixAccumulator::new(1, 1).unwrap();
        for rank in 0..2u64 {
            for r in 0..50u64 {
                let mut s = h.realization_stream(StreamId::new(7, rank, r)).unwrap();
                manual.add(&[s.next_f64()]).unwrap();
            }
        }
        let expected = manual.summary();
        assert!((report.summary.means[0] - expected.means[0]).abs() < 1e-15);
    }

    /// A role with nobody to talk to: its next poll hands out whatever
    /// extension is pending.
    struct Alone {
        pending: u64,
    }

    impl Role for Alone {
        fn offer(&mut self, _: &Subtotal, _: Instant, _: bool) -> Result<(), ParmoncError> {
            Ok(())
        }

        fn heartbeat(&mut self) -> Result<(), ParmoncError> {
            Ok(())
        }

        fn poll(&mut self, _: &Subtotal, _: Instant) -> Result<Control, ParmoncError> {
            Ok(Control {
                stop: false,
                extra: std::mem::take(&mut self.pending),
            })
        }
    }

    /// Hands `drive` the loop of rank `RANK` of `config`, started from
    /// `resumed` and running `realize`, with nothing around it: no
    /// monitor, no spans.
    fn drive_loop(
        config: &RunConfig,
        resumed: Option<Subtotal>,
        realize: &(dyn Realize + 'static),
        drive: impl FnOnce(&RunCtx<'_, dyn Realize>, &mut RealizationLoop),
    ) {
        let faults = config.faults.build();
        let ctx: RunCtx<'_, dyn Realize> = RunCtx {
            config,
            hierarchy: &StreamHierarchy::new(config.leaps),
            dir: &ResultsDir::create(&config.output_dir).unwrap(),
            realize,
            monitor: &Monitor::disabled(),
            faults: &faults,
            start: Instant::now(),
        };
        let spans = SpanEmitter::disabled();
        let mut sim = RealizationLoop::new(&ctx, RANK, resumed, &spans).unwrap();
        drive(&ctx, &mut sim);
    }

    const SEQNUM: u64 = 3;
    const RANK: usize = 1;

    /// The loop, driven directly: started from a state of `K`
    /// realizations (what a crash-resume hands rank 0), run to the quota,
    /// then entered again for an extension. What it accumulated is one
    /// pass over stream coordinates `0 .. quota + extra`, bit for bit —
    /// no coordinate is used twice or skipped across a resume or a
    /// re-entry.
    #[test]
    fn loop_resumed_and_reentered_walks_each_coordinate_once() {
        const K: u64 = 7;
        const EXTRA: u64 = 13;
        let config = Parmonc::builder(1, 2)
            .max_sample_volume(301)
            .processors(3)
            .seqnum(SEQNUM)
            .exchange(Exchange::EveryRealization)
            .output_dir(tempdir("loop-direct"))
            .build()
            .unwrap();
        let quota = config.quota(RANK);
        let one_pass = |upto| rank_pass(SEQNUM, RANK, (1, 2), upto);
        let resumed = Subtotal {
            acc: one_pass(K),
            compute_seconds: 0.0,
        };
        drive_loop(&config, Some(resumed), &uniform_mean(), |ctx, sim| {
            let mut role = Alone { pending: 0 };
            let crashed = simulate_quota(ctx, sim, &mut role).unwrap();
            assert_eq!((crashed, &sim.own.acc), (None, &one_pass(quota)));
            role.pending = EXTRA;
            let crashed = simulate_quota(ctx, sim, &mut role).unwrap();
            assert_eq!(crashed, None);
            assert_eq!(sim.own.acc, one_pass(quota + EXTRA));
            assert_eq!(sim.quota, quota + EXTRA);
        });
    }

    /// A fault plan does not change how the loop runs: a free routine
    /// is timed in blocks under one too, and the scripted crash point
    /// bounds the block that would run past it — the rank stops after
    /// exactly that many realizations, a number no block length divides.
    #[test]
    fn scripted_crash_is_met_exactly_by_a_loop_running_in_blocks() {
        use parmonc_faults::{FaultKind, FaultPlan};
        const AFTER: u64 = 1_000_003;
        let config = Parmonc::builder(1, 2)
            .max_sample_volume(3 * AFTER + 300)
            .processors(3)
            .seqnum(SEQNUM)
            .exchange(Exchange::EveryRealization)
            .faults(FaultPlan::new(1).crash_rank(RANK, AFTER))
            .output_dir(tempdir("loop-crash"))
            .build()
            .unwrap();
        assert!(config.quota(RANK) > AFTER);
        drive_loop(&config, None, &uniform_mean(), |ctx, sim| {
            let crashed = simulate_quota(ctx, sim, &mut Alone { pending: 0 }).unwrap();
            assert_eq!((crashed, sim.done()), (Some(AFTER), AFTER));
            // The stride the loop had reached when the crash point cut
            // its last block short: doubling from one, then blocks of
            // what fits TIMING_BLOCK, at most 1 024.
            assert!(sim.block > 1, "the loop ran blocks of {}", sim.block);
            let records = ctx.faults.records();
            assert_eq!(records.len(), 1);
            assert_eq!(
                (records[0].kind, records[0].detail),
                (FaultKind::RankCrash, Some(AFTER))
            );
        });
    }

    /// Two routines that leave the stream they were handed in a state
    /// the next realization must not inherit: one draws a
    /// data-dependent count, the other also replaces the stream
    /// wholesale with one of another hierarchy on every tenth call.
    fn unruly_routines() -> [Box<dyn Realize + Send + Sync>; 2] {
        let foreign = StreamHierarchy::new(parmonc_rng::LeapConfig::new(12, 8, 4).unwrap());
        let counted = RealizeFn::new(|rng, out: &mut [f64]| {
            let k = rng.next_u64() % 17;
            for _ in 0..k {
                out[0] += rng.next_f64();
            }
            out[1] = k as f64;
        });
        let replaced = RealizeFn::new(move |rng, out: &mut [f64]| {
            let k = rng.next_u64() % 5;
            if rng.id().realization % 10 == 9 {
                *rng = foreign.realization_stream(StreamId::new(1, 2, k)).unwrap();
            }
            out[0] = rng.next_f64();
            out[1] = rng.next_f64() + k as f64;
        });
        [Box::new(counted), Box::new(replaced)]
    }

    /// The loop's one stream is overwritten whole before every call:
    /// under blocks of up to 1 024, what a routine does to it — draws of
    /// its own choosing, or a foreign stream in its place — leaves every
    /// later realization as it would be on a fresh stream, bit for bit
    /// against the serial merge, for one rank driven directly and for a
    /// whole run.
    #[test]
    fn routines_that_disturb_their_stream_match_the_serial_merge() {
        for (i, routine) in unruly_routines().iter().enumerate() {
            let config = Parmonc::builder(1, 2)
                .max_sample_volume(60_003)
                .processors(3)
                .seqnum(SEQNUM)
                .exchange(Exchange::EveryRealization)
                .output_dir(tempdir(&format!("loop-unruly-{i}")))
                .build()
                .unwrap();
            let quota = config.quota(RANK);
            drive_loop(&config, None, routine, |ctx, sim| {
                let crashed = simulate_quota(ctx, sim, &mut Alone { pending: 0 }).unwrap();
                assert_eq!(crashed, None);
                assert!(sim.block > 1, "routine {i} ran blocks of {}", sim.block);
                let expected = rank_pass_with(routine, SEQNUM, RANK, (1, 2), quota);
                assert_eq!(sim.own.acc, expected, "routine {i}");
            });
            let report = Parmonc::builder(1, 2)
                .max_sample_volume(60_003)
                .processors(3)
                .seqnum(SEQNUM)
                .output_dir(tempdir(&format!("run-unruly-{i}")))
                .run(routine)
                .unwrap();
            let expected = serial_merge_with(routine, SEQNUM, (1, 2), &report.worker_volumes);
            assert_eq!(report.summary.means, expected.means, "routine {i}");
            assert_eq!(report.summary.variances, expected.variances, "routine {i}");
        }
    }

    /// Capacity is checked at every step as before: a rank resumed at
    /// the last coordinate its processor subsequence holds simulates
    /// that one realization and then fails with the cursor's
    /// out-of-capacity error, as a fresh stream per realization did.
    #[test]
    fn loop_fails_at_the_end_of_a_small_processor_subsequence() {
        let leaps = parmonc_rng::LeapConfig::new(12, 8, 4).unwrap();
        let last = leaps.realizations() - 1;
        let config = Parmonc::builder(1, 2)
            .max_sample_volume(301)
            .processors(3)
            .seqnum(SEQNUM)
            .leaps(leaps)
            .output_dir(tempdir("loop-capacity"))
            .build()
            .unwrap();
        assert!(config.quota(RANK) > last + 1);
        // Only the count of the resumed state matters here.
        let resumed = Subtotal {
            acc: rank_pass(SEQNUM, RANK, (1, 2), last),
            compute_seconds: 0.0,
        };
        drive_loop(&config, Some(resumed), &uniform_mean(), |ctx, sim| {
            let err = simulate_quota(ctx, sim, &mut Alone { pending: 0 }).unwrap_err();
            assert!(
                matches!(
                    err,
                    ParmoncError::Hierarchy(parmonc_rng::HierarchyError::OutOfCapacity {
                        level: "realization",
                        index,
                        capacity,
                    }) if index == last + 1 && capacity == last + 1
                ),
                "{err:?}"
            );
            assert_eq!(sim.done(), last + 1);
        });
    }
}

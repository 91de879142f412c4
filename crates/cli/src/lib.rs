//! Shared plumbing for the PARMONC command-line tools.
//!
//! The paper ships two stand-alone executables (Sections 3.4, 3.5):
//!
//! * `genparam ne np nr` — writes `parmonc_genparam.dat` with
//!   user-chosen leap exponents;
//! * `manaver` — re-averages the subtotal files of a terminated job.
//!
//! This crate provides their argument parsing as a library (so it is
//! testable) and the binaries as thin wrappers; it also ships
//! `parmonc-demo`, a small driver that runs the bundled workloads, and
//! `parmonc-trace`, a post-hoc analyzer for monitor jsonl traces
//! (summary, histogram quantiles, convergence trajectories, and
//! run-to-run comparison).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use parmonc::{ParmoncError, Transport};
use parmonc_obs::{Event, EventKind, EventSink, MetricsSink, MonitorSummary, SpanPhase};

/// Maps a runtime error to the tool's process exit code, so batch
/// scripts and schedulers can react to *why* a job failed — retry a
/// [`ParmoncError::WorkerLost`] run, restore from backup on a
/// [`ParmoncError::CorruptCheckpoint`], give up on bad configuration.
///
/// Code 0 is success and 1 is reserved for usage errors (bad command
/// line), so runtime failures start at 2:
///
/// | code | error |
/// |-----:|-------|
/// | 2 | invalid configuration |
/// | 3 | I/O failure |
/// | 4 | unparseable result file |
/// | 5 | nothing to resume |
/// | 6 | seqnum already used |
/// | 7 | no worker data to average |
/// | 8 | resume shape mismatch |
/// | 9 | corrupt checkpoint (primary and backup) |
/// | 10 | worker lost under `fail_on_worker_loss` |
/// | 11 | message-passing failure |
/// | 12 | other internal error |
/// | 13 | collector crashed (scripted); restart with `--resume-listen` |
#[must_use]
pub fn exit_code_for(err: &ParmoncError) -> u8 {
    match err {
        ParmoncError::Config(_) => 2,
        ParmoncError::Io { .. } => 3,
        ParmoncError::Parse { .. } => 4,
        ParmoncError::NothingToResume { .. } => 5,
        ParmoncError::SeqnumAlreadyUsed { .. } => 6,
        ParmoncError::NoWorkerData { .. } => 7,
        ParmoncError::ResumeShapeMismatch { .. } => 8,
        ParmoncError::CorruptCheckpoint { .. } => 9,
        ParmoncError::WorkerLost { .. } => 10,
        ParmoncError::Mpi(_) => 11,
        ParmoncError::Stats(_) | ParmoncError::Hierarchy(_) => 12,
        ParmoncError::CollectorCrashed { .. } => 13,
    }
}

/// Parsed `genparam` arguments: the three leap exponents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenparamArgs {
    /// Exponent of the "experiments" leap.
    pub ne: u32,
    /// Exponent of the "processors" leap.
    pub np: u32,
    /// Exponent of the "realizations" leap.
    pub nr: u32,
}

/// Parses `genparam ne np nr`.
///
/// # Errors
///
/// Returns a usage string if the argument count or values are
/// malformed (range validation happens in
/// [`parmonc::genparam::write_genparam`]).
pub fn parse_genparam_args<I, S>(args: I) -> Result<GenparamArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let values: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
    if values.len() != 3 {
        return Err(format!(
            "usage: genparam ne np nr   (got {} arguments)",
            values.len()
        ));
    }
    let parse = |name: &str, v: &str| -> Result<u32, String> {
        v.parse::<u32>()
            .map_err(|_| format!("{name} must be a non-negative integer, got {v:?}"))
    };
    Ok(GenparamArgs {
        ne: parse("ne", &values[0])?,
        np: parse("np", &values[1])?,
        nr: parse("nr", &values[2])?,
    })
}

/// Parsed `manaver` arguments: the working directory (defaults to
/// `.`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManaverArgs {
    /// Directory containing `parmonc_data/`.
    pub dir: PathBuf,
}

/// Parses `manaver [dir]`.
///
/// # Errors
///
/// Returns a usage string on more than one argument.
pub fn parse_manaver_args<I, S>(args: I) -> Result<ManaverArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let values: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
    match values.len() {
        0 => Ok(ManaverArgs {
            dir: PathBuf::from("."),
        }),
        1 => Ok(ManaverArgs {
            dir: PathBuf::from(&values[0]),
        }),
        n => Err(format!("usage: manaver [dir]   (got {n} arguments)")),
    }
}

/// The demo workloads `parmonc-demo` can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemoWorkload {
    /// π by rejection sampling.
    Pi,
    /// 1-D slab transport.
    Transport,
    /// M/M/1 queue.
    Queue,
}

/// Parsed `parmonc-demo` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct DemoArgs {
    /// Which workload.
    pub workload: DemoWorkload,
    /// Total sample volume.
    pub volume: u64,
    /// Processor count.
    pub processors: usize,
    /// Output directory.
    pub dir: PathBuf,
    /// Whether to record a run-monitor trace
    /// (`parmonc_data/monitor/run_metrics.jsonl`) and print the
    /// end-of-run summary table.
    pub monitor: bool,
    /// Which message-passing substrate carries the run
    /// (`--transport threads|processes|tcp`, default threads).
    pub transport: Transport,
    /// TCP collector mode: the address to listen on (`--listen`).
    /// Implies `--transport tcp`.
    pub listen: Option<String>,
    /// TCP worker mode: the collector address to dial (`--join`).
    /// Implies `--transport tcp`; the process runs the worker loop
    /// instead of a full collector run.
    pub join: Option<String>,
    /// TCP collector crash-resume: re-listen on this address and
    /// resume the crashed session from the persisted lease table and
    /// last save-point (`--resume-listen`). Implies `--transport tcp`.
    pub resume_listen: Option<String>,
    /// Whether to record causal tracing spans (`--spans`; implies
    /// `--monitor` on the collector side) for `parmonc-trace timeline`
    /// and `critical-path`.
    pub spans: bool,
    /// Deterministic clock skew (seconds) injected into this worker's
    /// monitor timestamps (`--skew-s`; TCP worker mode only) to
    /// exercise the clock-alignment plane.
    pub skew_s: f64,
}

/// Parses
/// `parmonc-demo <pi|transport|queue> [volume] [processors] [dir] [--monitor]
/// [--transport threads|processes|tcp] [--listen host:port]
/// [--join host:port]`. The flags may appear anywhere; `--listen` and
/// `--join` each imply `--transport tcp` (collector and worker mode
/// respectively; see `docs/cluster.md`).
///
/// The hidden `--parmonc-worker` re-execution marker (appended by the
/// process transport when it self-execs workers) is stripped before
/// parsing, so a worker re-parse sees the same positional arguments as
/// the parent.
///
/// # Errors
///
/// Returns a usage string for unknown workloads or malformed numbers.
pub fn parse_demo_args<I, S>(args: I) -> Result<DemoArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    const USAGE: &str = "usage: parmonc-demo <pi|transport|queue> [volume] [processors] [dir] \
                         [--monitor] [--spans] [--transport threads|processes|tcp] \
                         [--listen host:port] [--join host:port] [--resume-listen host:port] \
                         [--skew-s seconds]";
    let mut values: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
    values.retain(|v| v != parmonc::ipc::WORKER_FLAG);
    let mut transport = Transport::Threads;
    while let Some(pos) = values.iter().position(|v| v == "--transport") {
        let Some(choice) = values.get(pos + 1) else {
            return Err(format!("--transport requires a value\n{USAGE}"));
        };
        transport = match choice.as_str() {
            "threads" => Transport::Threads,
            "processes" => Transport::Processes,
            "tcp" => Transport::Tcp,
            other => {
                return Err(format!(
                    "unknown transport {other:?} (expected threads, processes, or tcp)\n{USAGE}"
                ))
            }
        };
        values.drain(pos..=pos + 1);
    }
    let mut addr_flag = |flag: &str| -> Result<Option<String>, String> {
        let mut addr = None;
        while let Some(pos) = values.iter().position(|v| v == flag) {
            let Some(value) = values.get(pos + 1) else {
                return Err(format!("{flag} requires an address\n{USAGE}"));
            };
            addr = Some(value.clone());
            values.drain(pos..=pos + 1);
        }
        Ok(addr)
    };
    let listen = addr_flag("--listen")?;
    let join = addr_flag("--join")?;
    let resume_listen = addr_flag("--resume-listen")?;
    if [&listen, &join, &resume_listen]
        .iter()
        .filter(|a| a.is_some())
        .count()
        > 1
    {
        return Err(format!(
            "--listen (collector), --join (worker), and --resume-listen (collector restart) \
             are mutually exclusive\n{USAGE}"
        ));
    }
    if listen.is_some() || join.is_some() || resume_listen.is_some() {
        transport = Transport::Tcp;
    } else if transport == Transport::Tcp {
        return Err(format!(
            "--transport tcp needs --listen (collector), --join (worker), or --resume-listen \
             (collector restart)\n{USAGE}"
        ));
    }
    let mut skew_s = 0.0f64;
    while let Some(pos) = values.iter().position(|v| v == "--skew-s") {
        let Some(value) = values.get(pos + 1) else {
            return Err(format!("--skew-s requires a value in seconds\n{USAGE}"));
        };
        skew_s = value
            .parse::<f64>()
            .map_err(|_| format!("--skew-s must be a number of seconds, got {value:?}"))?;
        values.drain(pos..=pos + 1);
    }
    let before = values.len();
    values.retain(|v| v != "--monitor");
    let monitor = values.len() < before;
    let before = values.len();
    values.retain(|v| v != "--spans");
    let spans = values.len() < before;
    // Spans are monitor events; asking for them is asking for the
    // monitor.
    let monitor = monitor || spans;
    let Some(first) = values.first() else {
        return Err(USAGE.to_string());
    };
    let workload = match first.as_str() {
        "pi" => DemoWorkload::Pi,
        "transport" => DemoWorkload::Transport,
        "queue" => DemoWorkload::Queue,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let volume = match values.get(1) {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("volume must be an integer, got {v:?}"))?,
        None => 100_000,
    };
    let processors = match values.get(2) {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("processors must be an integer, got {v:?}"))?,
        None => 4,
    };
    let dir = values
        .get(3)
        .map_or_else(|| PathBuf::from("parmonc-demo-out"), PathBuf::from);
    Ok(DemoArgs {
        workload,
        volume,
        processors,
        dir,
        monitor,
        transport,
        listen,
        join,
        resume_listen,
        spans,
        skew_s,
    })
}

/// A `parmonc-trace` subcommand, parsed by [`parse_trace_args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCommand {
    /// Fold the trace into the end-of-run summary table.
    Summary {
        /// Path of the jsonl trace.
        trace: PathBuf,
    },
    /// Replay the trace through the metrics plane and print the
    /// quantiles of every derived histogram.
    Quantiles {
        /// Path of the jsonl trace.
        trace: PathBuf,
    },
    /// Print the `(n, mean, err)` error-bar trajectory of every tracked
    /// functional.
    Convergence {
        /// Path of the jsonl trace.
        trace: PathBuf,
    },
    /// Compare two traces: event vocabulary and final estimates.
    Compare {
        /// First trace.
        a: PathBuf,
        /// Second trace.
        b: PathBuf,
    },
    /// Reconstruct the per-rank span timeline (a Gantt view over the
    /// corrected run clock) from `span_started`/`span_ended` events.
    Timeline {
        /// Path of the jsonl trace.
        trace: PathBuf,
    },
    /// Walk the span graph backwards from the outcome and print the
    /// dependency-ordered critical path: which rank and phase the run
    /// spent its wall time on.
    CriticalPath {
        /// Path of the jsonl trace.
        trace: PathBuf,
    },
}

/// Parses
/// `parmonc-trace <summary|quantiles|convergence> <trace.jsonl>` or
/// `parmonc-trace compare <run-a.jsonl> <run-b.jsonl>`.
///
/// # Errors
///
/// Returns a usage string on unknown subcommands or wrong arity.
pub fn parse_trace_args<I, S>(args: I) -> Result<TraceCommand, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    const USAGE: &str =
        "usage: parmonc-trace <summary|quantiles|convergence|timeline|critical-path> \
         <trace.jsonl>\n\
         \u{20}      parmonc-trace compare <run-a.jsonl> <run-b.jsonl>";
    let values: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
    let Some(cmd) = values.first() else {
        return Err(USAGE.to_string());
    };
    let one = |name: &str| -> Result<PathBuf, String> {
        match values.len() {
            2 => Ok(PathBuf::from(&values[1])),
            n => Err(format!(
                "{name} takes exactly one trace file (got {} arguments)\n{USAGE}",
                n - 1
            )),
        }
    };
    match cmd.as_str() {
        "summary" => Ok(TraceCommand::Summary {
            trace: one("summary")?,
        }),
        "quantiles" => Ok(TraceCommand::Quantiles {
            trace: one("quantiles")?,
        }),
        "convergence" => Ok(TraceCommand::Convergence {
            trace: one("convergence")?,
        }),
        "timeline" => Ok(TraceCommand::Timeline {
            trace: one("timeline")?,
        }),
        "critical-path" => Ok(TraceCommand::CriticalPath {
            trace: one("critical-path")?,
        }),
        "compare" => match values.len() {
            3 => Ok(TraceCommand::Compare {
                a: PathBuf::from(&values[1]),
                b: PathBuf::from(&values[2]),
            }),
            n => Err(format!(
                "compare takes exactly two trace files (got {} arguments)\n{USAGE}",
                n - 1
            )),
        },
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}

/// A failure while loading a monitor trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error text.
        message: String,
    },
    /// A line failed schema validation (the trace is corrupt or from an
    /// incompatible producer) — `parmonc-trace` refuses to analyze it.
    InvalidLine {
        /// The offending path.
        path: PathBuf,
        /// 1-based line number.
        line_no: usize,
        /// The validator's diagnosis.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, message } => write!(f, "reading {}: {message}", path.display()),
            Self::InvalidLine {
                path,
                line_no,
                message,
            } => write!(
                f,
                "{}:{line_no}: invalid trace line: {message}",
                path.display()
            ),
        }
    }
}

/// Process exit code for a [`TraceError`]: 2 for I/O failures, 3 for
/// schema-invalid traces (0 is success, 1 is reserved for usage
/// errors, 4 for a [`compare_traces`] mismatch).
#[must_use]
pub fn trace_exit_code(err: &TraceError) -> u8 {
    match err {
        TraceError::Io { .. } => 2,
        TraceError::InvalidLine { .. } => 3,
    }
}

/// Exit code of `parmonc-trace compare` when the traces differ.
pub const TRACE_MISMATCH_EXIT: u8 = 4;

/// Reads a monitor jsonl trace, validating every line against the
/// documented schema.
///
/// # Errors
///
/// [`TraceError::Io`] if the file cannot be read, or
/// [`TraceError::InvalidLine`] (with a 1-based line number) on the
/// first schema violation.
pub fn read_trace(path: &Path) -> Result<Vec<Event>, TraceError> {
    let text = std::fs::read_to_string(path).map_err(|e| TraceError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            parmonc_obs::schema::parse_line(line).map_err(|message| TraceError::InvalidLine {
                path: path.to_path_buf(),
                line_no: i + 1,
                message,
            })
        })
        .collect()
}

/// `parmonc-trace summary`: folds the events into the same table a
/// monitored run prints at exit.
#[must_use]
pub fn trace_summary(events: &[Event]) -> String {
    let mut out = format!("{} events\n", events.len());
    out.push_str(&MonitorSummary::from_events(events).render_table());
    out
}

/// `parmonc-trace quantiles`: replays the trace through the metrics
/// plane ([`MetricsSink`]) and tabulates every derived histogram's
/// p50/p90/p99 (quantiles carry the documented ≤ 5 % relative error of
/// the log-bucketed scheme).
#[must_use]
pub fn trace_quantiles(events: &[Event]) -> String {
    let sink = MetricsSink::new();
    for event in events {
        sink.record(event);
    }
    let registry = sink.registry();
    let names = registry.histogram_names();
    if names.is_empty() {
        return "no histogram samples in trace\n".to_string();
    }
    let mut out = format!(
        "{:<42} {:>8} {:>11} {:>11} {:>11} {:>11}\n",
        "histogram", "count", "p50", "p90", "p99", "max"
    );
    for name in names {
        let h = registry.histogram(&name).expect("name came from registry");
        let q = |p: f64| {
            h.quantile(p)
                .map_or_else(|| "-".to_string(), |v| format!("{v:.4e}"))
        };
        let _ = writeln!(
            out,
            "{name:<42} {:>8} {:>11} {:>11} {:>11} {:>11}",
            h.count(),
            q(0.50),
            q(0.90),
            q(0.99),
            h.max()
                .map_or_else(|| "-".to_string(), |v| format!("{v:.4e}")),
        );
    }
    out
}

/// The last recorded `(n, mean, err)` of each functional in a trace;
/// `mean`/`err` are `None` in a snapshot that reports cadence without
/// values, which the schema allows.
type FinalEstimates = BTreeMap<u64, (u64, Option<f64>, Option<f64>)>;

/// Per-functional `(n, mean, err)` history, in trace order.
type Trajectories = BTreeMap<u64, Vec<(u64, Option<f64>, Option<f64>)>>;

fn final_estimates(events: &[Event]) -> FinalEstimates {
    let mut last = FinalEstimates::new();
    for event in events {
        if let EventKind::MetricsSnapshot {
            functional,
            n,
            mean,
            err,
        } = event.kind
        {
            last.insert(functional, (n, mean, err));
        }
    }
    last
}

/// `parmonc-trace convergence`: the `(n, mean, err)` trajectory of
/// every functional that appears in `metrics_snapshot` events, plus the
/// `target_precision_reached` declaration when present.
#[must_use]
pub fn trace_convergence(events: &[Event]) -> String {
    let mut trajectories = Trajectories::new();
    let mut target: Option<(u64, f64, f64)> = None;
    for event in events {
        match event.kind {
            EventKind::MetricsSnapshot {
                functional,
                n,
                mean,
                err,
            } => trajectories
                .entry(functional)
                .or_default()
                .push((n, mean, err)),
            EventKind::TargetPrecisionReached {
                n,
                eps_max,
                target: t,
            } => {
                target = Some((n, eps_max, t));
            }
            _ => {}
        }
    }
    if trajectories.is_empty() {
        return "no metrics_snapshot events in trace\n".to_string();
    }
    let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.6e}"));
    let mut out = String::new();
    for (functional, points) in &trajectories {
        let _ = writeln!(
            out,
            "functional {functional} ({} observations)",
            points.len()
        );
        let _ = writeln!(out, "  {:>12} {:>14} {:>14}", "n", "mean", "err");
        for (n, mean, err) in points {
            let _ = writeln!(out, "  {n:>12} {:>14} {:>14}", fmt(*mean), fmt(*err));
        }
    }
    match target {
        Some((n, eps_max, t)) => {
            let _ = writeln!(
                out,
                "target precision reached at n {n} (eps_max {eps_max:.3e} <= target {t:.3e})"
            );
        }
        None => out.push_str("no precision target declared\n"),
    }
    out
}

/// The outcome of [`compare_traces`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceComparison {
    /// Human-readable comparison report.
    pub report: String,
    /// Whether the traces agree (same vocabulary, same final volume,
    /// consistent final estimates).
    pub matches: bool,
}

/// `parmonc-trace compare`: checks that two runs of the same experiment
/// speak the same event vocabulary and agree on the outcome — equal
/// final realization counts, and final per-functional estimates
/// consistent within their combined error bars (skipped when a side
/// carries cadence-only snapshots).
#[must_use]
pub fn compare_traces(a: &[Event], b: &[Event]) -> TraceComparison {
    let mut report = String::new();
    let mut matches = true;

    let kinds = |events: &[Event]| -> BTreeSet<&'static str> {
        events.iter().map(|e| e.kind.name()).collect()
    };
    let (ka, kb) = (kinds(a), kinds(b));
    if ka == kb {
        let _ = writeln!(report, "event kinds: identical ({} kinds)", ka.len());
    } else {
        matches = false;
        let only_a: Vec<_> = ka.difference(&kb).copied().collect();
        let only_b: Vec<_> = kb.difference(&ka).copied().collect();
        let _ = writeln!(
            report,
            "event kinds differ: only in a: {only_a:?}, only in b: {only_b:?}"
        );
    }

    let completed = |events: &[Event]| {
        events.iter().rev().find_map(|e| match e.kind {
            EventKind::RunCompleted { realizations, .. } => Some(realizations),
            _ => None,
        })
    };
    match (completed(a), completed(b)) {
        (Some(va), Some(vb)) if va == vb => {
            let _ = writeln!(report, "final realizations: {va} == {vb}");
        }
        (Some(va), Some(vb)) => {
            matches = false;
            let _ = writeln!(report, "final realizations differ: {va} vs {vb}");
        }
        (va, vb) => {
            matches = false;
            let _ = writeln!(
                report,
                "run_completed missing: a: {va:?}, b: {vb:?} (truncated trace?)"
            );
        }
    }

    let (ea, eb) = (final_estimates(a), final_estimates(b));
    let mut compared = 0usize;
    for (functional, (na, ma, erra)) in &ea {
        let Some((nb, mb, errb)) = eb.get(functional) else {
            continue;
        };
        let (Some(ma), Some(mb)) = (ma, mb) else {
            continue;
        };
        compared += 1;
        let bar = erra.unwrap_or(0.0) + errb.unwrap_or(0.0);
        if (ma - mb).abs() <= bar {
            let _ = writeln!(
                report,
                "functional {functional}: {ma:.6e} (n {na}) vs {mb:.6e} (n {nb}) — consistent within ± {bar:.3e}"
            );
        } else {
            matches = false;
            let _ = writeln!(
                report,
                "functional {functional}: {ma:.6e} vs {mb:.6e} exceeds combined error bar {bar:.3e}"
            );
        }
    }
    if compared == 0 {
        report.push_str(
            "final estimate values absent from at least one trace; volumes compared only\n",
        );
    }

    report.push_str(if matches {
        "traces match\n"
    } else {
        "traces differ\n"
    });
    TraceComparison { report, matches }
}

/// One completed span recovered from a trace: who did what, when, on
/// the collector's corrected run clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedSpan {
    /// Emitting rank (span events always carry one).
    pub rank: usize,
    /// The phase the span brackets.
    pub phase: SpanPhase,
    /// Start, seconds on the corrected run clock.
    pub start_s: f64,
    /// End, seconds on the corrected run clock.
    pub end_s: f64,
}

/// Pairs `span_started`/`span_ended` events into closed spans. Returns
/// the closed spans (trace order) and the count of spans that never
/// closed (a crashed rank, or a truncated trace).
#[must_use]
pub fn closed_spans(events: &[Event]) -> (Vec<ClosedSpan>, usize) {
    let mut open: BTreeMap<u64, (usize, SpanPhase, f64)> = BTreeMap::new();
    let mut closed = Vec::new();
    for event in events {
        match event.kind {
            EventKind::SpanStarted { span, phase, .. } => {
                open.insert(span, (event.rank.unwrap_or(0), phase, event.time_s));
            }
            EventKind::SpanEnded { span, .. } => {
                if let Some((rank, phase, start_s)) = open.remove(&span) {
                    closed.push(ClosedSpan {
                        rank,
                        phase,
                        start_s,
                        // A skew-corrected stream can place an end a
                        // hair before its start; clamp so durations
                        // never go negative.
                        end_s: event.time_s.max(start_s),
                    });
                }
            }
            _ => {}
        }
    }
    (closed, open.len())
}

/// `parmonc-trace timeline`: a per-rank Gantt view of the span stream.
/// Every rank gets its closed spans in start order, each with a bar
/// positioned on the shared corrected run clock, so cross-host phases
/// line up visually.
#[must_use]
pub fn trace_timeline(events: &[Event]) -> String {
    let (spans, unclosed) = closed_spans(events);
    if spans.is_empty() {
        return "no spans in trace (run with span tracing enabled to record them)\n".to_string();
    }
    let t_min = spans
        .iter()
        .map(|s| s.start_s)
        .fold(f64::INFINITY, f64::min);
    let t_max = spans
        .iter()
        .map(|s| s.end_s)
        .fold(f64::NEG_INFINITY, f64::max);
    let range = (t_max - t_min).max(f64::MIN_POSITIVE);
    const WIDTH: usize = 40;
    let mut by_rank: BTreeMap<usize, Vec<&ClosedSpan>> = BTreeMap::new();
    for span in &spans {
        by_rank.entry(span.rank).or_default().push(span);
    }
    let mut out = format!(
        "{} spans across {} ranks, window {t_min:.3}s .. {t_max:.3}s\n",
        spans.len(),
        by_rank.len()
    );
    if unclosed > 0 {
        let _ = writeln!(out, "WARNING: {unclosed} spans never closed");
    }
    for (rank, mut rank_spans) in by_rank {
        rank_spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        let _ = writeln!(out, "rank {rank}");
        for span in rank_spans {
            let from = (((span.start_s - t_min) / range) * WIDTH as f64) as usize;
            let to = (((span.end_s - t_min) / range) * WIDTH as f64).ceil() as usize;
            let (from, to) = (from.min(WIDTH - 1), to.clamp(from + 1, WIDTH));
            let bar: String = (0..WIDTH)
                .map(|i| if i >= from && i < to { '#' } else { '.' })
                .collect();
            let _ = writeln!(
                out,
                "  {:<18} {:>9.3}s {:>9.3}s {:>9.3}s |{bar}|",
                span.phase.as_str(),
                span.start_s,
                span.end_s,
                span.end_s - span.start_s,
            );
        }
    }
    out
}

/// One step of a [`CriticalPathReport`], in forward time order. Steps
/// tile the window exactly: each starts where the previous ended.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathStep {
    /// The rank the step is attributed to; `None` for the pre-span
    /// startup stretch.
    pub rank: Option<usize>,
    /// The span phase, or a synthetic label (`"wait"` between spans,
    /// `"startup"` before the first).
    pub label: String,
    /// Step start, corrected run clock.
    pub start_s: f64,
    /// Step end, corrected run clock.
    pub end_s: f64,
}

/// The outcome of [`trace_critical_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathReport {
    /// The dependency-ordered steps from run start to the anchor.
    pub steps: Vec<CriticalPathStep>,
    /// Sum of the step durations.
    pub total_s: f64,
    /// The analyzed window: run start to the anchor event.
    pub wall_s: f64,
    /// Human-readable rendering.
    pub report: String,
}

/// `parmonc-trace critical-path`: walks the span stream *backwards*
/// from the run's outcome (`target_precision_reached` when present,
/// otherwise the last event) to the run start, at each point following
/// the span that was still in flight — the work the outcome was
/// actually waiting on. Stretches covered by no span are attributed to
/// `wait` (the collector idling on its inbox) or `startup`. The steps
/// tile the window exactly, so their sum equals the analyzed wall time
/// by construction — the interesting output is *where* that time went,
/// summarized per rank/phase with the dominant contributor named.
#[must_use]
pub fn trace_critical_path(events: &[Event]) -> CriticalPathReport {
    let (spans, _) = closed_spans(events);
    let run_start = events
        .iter()
        .find_map(|e| matches!(e.kind, EventKind::RunStarted { .. }).then_some(e.time_s))
        .unwrap_or_else(|| {
            events
                .iter()
                .map(|e| e.time_s)
                .fold(f64::INFINITY, f64::min)
        });
    let anchor = events
        .iter()
        .find_map(|e| {
            matches!(e.kind, EventKind::TargetPrecisionReached { .. }).then_some(e.time_s)
        })
        .unwrap_or_else(|| {
            events
                .iter()
                .map(|e| e.time_s)
                .fold(f64::NEG_INFINITY, f64::max)
        });
    // NaN timestamps must also land here, hence the partial_cmp form.
    let has_window = anchor.partial_cmp(&run_start) == Some(std::cmp::Ordering::Greater);
    if events.is_empty() || !has_window {
        return CriticalPathReport {
            steps: Vec::new(),
            total_s: 0.0,
            wall_s: 0.0,
            report: "trace has no analyzable window (empty or zero-length)\n".to_string(),
        };
    }

    let mut steps: Vec<CriticalPathStep> = Vec::new();
    let mut cursor = anchor;
    // Each iteration strictly lowers `cursor` (covering spans start
    // strictly before it; gap hops land on a strictly earlier end), so
    // the walk terminates; the cap is sheer paranoia against a
    // pathological trace.
    let mut budget = 2 * spans.len() + 16;
    while cursor > run_start && budget > 0 {
        budget -= 1;
        // The span in flight at `cursor` — latest-starting, so the
        // innermost (a subtotal_send wins over its realization_batch).
        let covering = spans
            .iter()
            .filter(|s| s.start_s < cursor && s.end_s >= cursor)
            .max_by(|a, b| a.start_s.total_cmp(&b.start_s));
        if let Some(span) = covering {
            let from = span.start_s.max(run_start);
            steps.push(CriticalPathStep {
                rank: Some(span.rank),
                label: span.phase.as_str().to_string(),
                start_s: from,
                end_s: cursor,
            });
            cursor = from;
            continue;
        }
        // Nothing in flight: hop to the nearest earlier completion and
        // book the gap as waiting (attributed to the collector, whose
        // inbox the run blocks on between spans).
        let earlier = spans
            .iter()
            .filter(|s| s.end_s < cursor)
            .max_by(|a, b| a.end_s.total_cmp(&b.end_s));
        match earlier {
            Some(span) if span.end_s > run_start => {
                steps.push(CriticalPathStep {
                    rank: Some(0),
                    label: "wait".to_string(),
                    start_s: span.end_s,
                    end_s: cursor,
                });
                cursor = span.end_s;
            }
            _ => {
                steps.push(CriticalPathStep {
                    rank: None,
                    label: "startup".to_string(),
                    start_s: run_start,
                    end_s: cursor,
                });
                cursor = run_start;
            }
        }
    }
    steps.reverse();

    let wall_s = anchor - run_start;
    let total_s: f64 = steps.iter().map(|s| s.end_s - s.start_s).sum();
    let mut by_owner: BTreeMap<String, f64> = BTreeMap::new();
    for step in &steps {
        let owner = match step.rank {
            Some(rank) => format!("rank {rank} {}", step.label),
            None => step.label.clone(),
        };
        *by_owner.entry(owner).or_default() += step.end_s - step.start_s;
    }
    let mut out = format!(
        "critical path: {} steps over {wall_s:.3}s (run start {run_start:.3}s -> anchor {anchor:.3}s)\n",
        steps.len()
    );
    for step in &steps {
        let _ = writeln!(
            out,
            "  {:>9.3}s .. {:>9.3}s {:>9.3}s  {}",
            step.start_s,
            step.end_s,
            step.end_s - step.start_s,
            match step.rank {
                Some(rank) => format!("rank {rank}  {}", step.label),
                None => step.label.clone(),
            },
        );
    }
    let _ = writeln!(out, "path total {total_s:.3}s of {wall_s:.3}s wall");
    if let Some((owner, seconds)) = by_owner
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(k, v)| (k.clone(), *v))
    {
        let _ = writeln!(
            out,
            "dominated by {owner}: {seconds:.3}s ({:.0}% of the window)",
            100.0 * seconds / wall_s
        );
    }
    CriticalPathReport {
        steps,
        total_s,
        wall_s,
        report: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        let cases: Vec<(ParmoncError, u8)> = vec![
            (ParmoncError::Config("bad".into()), 2),
            (
                ParmoncError::NothingToResume {
                    dir: PathBuf::from("/tmp"),
                },
                5,
            ),
            (ParmoncError::SeqnumAlreadyUsed { seqnum: 3 }, 6),
            (
                ParmoncError::CorruptCheckpoint {
                    path: PathBuf::from("checkpoint.dat"),
                    reason: "bad checksum".into(),
                },
                9,
            ),
            (
                ParmoncError::WorkerLost {
                    rank: 2,
                    received_realizations: 10,
                },
                10,
            ),
        ];
        for (err, code) in &cases {
            assert_eq!(exit_code_for(err), *code, "{err}");
        }
        // Codes 0 (success) and 1 (usage) are never produced, and no
        // two runtime classes collide.
        let codes: std::collections::BTreeSet<u8> =
            cases.iter().map(|(e, _)| exit_code_for(e)).collect();
        assert_eq!(codes.len(), cases.len());
        assert!(codes.iter().all(|&c| c >= 2));
    }

    #[test]
    fn genparam_happy_path() {
        let a = parse_genparam_args(["115", "98", "43"]).unwrap();
        assert_eq!(
            a,
            GenparamArgs {
                ne: 115,
                np: 98,
                nr: 43
            }
        );
    }

    #[test]
    fn genparam_wrong_arity() {
        assert!(parse_genparam_args(["1", "2"])
            .unwrap_err()
            .contains("usage"));
        assert!(parse_genparam_args(["1", "2", "3", "4"]).is_err());
    }

    #[test]
    fn genparam_bad_number() {
        let err = parse_genparam_args(["x", "98", "43"]).unwrap_err();
        assert!(err.contains("ne"));
    }

    #[test]
    fn manaver_defaults_to_cwd() {
        assert_eq!(
            parse_manaver_args(Vec::<String>::new()).unwrap().dir,
            PathBuf::from(".")
        );
        assert_eq!(
            parse_manaver_args(["/tmp/run"]).unwrap().dir,
            PathBuf::from("/tmp/run")
        );
        assert!(parse_manaver_args(["a", "b"]).is_err());
    }

    #[test]
    fn demo_parsing() {
        let a = parse_demo_args(["pi"]).unwrap();
        assert_eq!(a.workload, DemoWorkload::Pi);
        assert_eq!(a.volume, 100_000);
        assert_eq!(a.processors, 4);
        assert!(!a.monitor);

        let a = parse_demo_args(["queue", "5000", "8", "/tmp/q"]).unwrap();
        assert_eq!(a.workload, DemoWorkload::Queue);
        assert_eq!(a.volume, 5000);
        assert_eq!(a.processors, 8);
        assert_eq!(a.dir, PathBuf::from("/tmp/q"));

        assert!(parse_demo_args(Vec::<String>::new()).is_err());
        assert!(parse_demo_args(["juggling"]).is_err());
        assert!(parse_demo_args(["pi", "lots"]).is_err());
    }

    #[test]
    fn demo_monitor_flag_anywhere() {
        for args in [
            vec!["pi", "--monitor"],
            vec!["--monitor", "pi"],
            vec!["pi", "1000", "--monitor", "2"],
        ] {
            let a = parse_demo_args(args).unwrap();
            assert!(a.monitor);
            assert_eq!(a.workload, DemoWorkload::Pi);
        }
        // The flag alone is not a workload.
        assert!(parse_demo_args(["--monitor"]).is_err());
    }

    #[test]
    fn demo_spans_and_skew_flags() {
        let a = parse_demo_args(["pi"]).unwrap();
        assert!(!a.spans);
        assert_eq!(a.skew_s, 0.0);

        // --spans implies --monitor: spans are monitor events.
        let a = parse_demo_args(["pi", "--spans"]).unwrap();
        assert!(a.spans);
        assert!(a.monitor);

        let a = parse_demo_args(["--skew-s", "1.5", "pi", "1000", "2"]).unwrap();
        assert_eq!(a.skew_s, 1.5);
        assert_eq!(a.volume, 1000);
        assert!(parse_demo_args(["pi", "--skew-s"]).is_err());
        assert!(parse_demo_args(["pi", "--skew-s", "soon"]).is_err());
    }

    #[test]
    fn demo_transport_flag() {
        let a = parse_demo_args(["pi"]).unwrap();
        assert_eq!(a.transport, Transport::Threads);

        let a = parse_demo_args(["pi", "--transport", "processes"]).unwrap();
        assert_eq!(a.transport, Transport::Processes);

        // Anywhere, and positionals still line up around it.
        let a = parse_demo_args(["--transport", "threads", "queue", "5000", "8"]).unwrap();
        assert_eq!(a.transport, Transport::Threads);
        assert_eq!(a.workload, DemoWorkload::Queue);
        assert_eq!(a.volume, 5000);
        assert_eq!(a.processors, 8);

        assert!(parse_demo_args(["pi", "--transport"]).is_err());
        assert!(parse_demo_args(["pi", "--transport", "carrier-pigeon"]).is_err());
    }

    #[test]
    fn demo_tcp_flags() {
        // --listen selects TCP collector mode.
        let a = parse_demo_args(["pi", "--listen", "0.0.0.0:7070"]).unwrap();
        assert_eq!(a.transport, Transport::Tcp);
        assert_eq!(a.listen.as_deref(), Some("0.0.0.0:7070"));
        assert_eq!(a.join, None);

        // --join selects TCP worker mode, anywhere among positionals.
        let a = parse_demo_args(["--join", "collector:7070", "queue", "5000", "8"]).unwrap();
        assert_eq!(a.transport, Transport::Tcp);
        assert_eq!(a.join.as_deref(), Some("collector:7070"));
        assert_eq!(a.workload, DemoWorkload::Queue);
        assert_eq!(a.volume, 5000);
        assert_eq!(a.processors, 8);

        // Explicit --transport tcp is fine alongside an address.
        let a = parse_demo_args(["pi", "--transport", "tcp", "--listen", "127.0.0.1:0"]).unwrap();
        assert_eq!(a.transport, Transport::Tcp);

        // --resume-listen restarts a crashed collector session.
        let a = parse_demo_args(["pi", "--resume-listen", "0.0.0.0:7070"]).unwrap();
        assert_eq!(a.transport, Transport::Tcp);
        assert_eq!(a.resume_listen.as_deref(), Some("0.0.0.0:7070"));
        assert_eq!(a.listen, None);

        // ... but meaningless without one, and the three modes exclude
        // each other.
        assert!(parse_demo_args(["pi", "--transport", "tcp"]).is_err());
        assert!(parse_demo_args(["pi", "--listen"]).is_err());
        assert!(parse_demo_args(["pi", "--join"]).is_err());
        assert!(parse_demo_args(["pi", "--resume-listen"]).is_err());
        assert!(parse_demo_args(["pi", "--listen", "0.0.0.0:1", "--join", "h:1"]).is_err());
        assert!(
            parse_demo_args(["pi", "--listen", "0.0.0.0:1", "--resume-listen", "h:1"]).is_err()
        );
    }

    #[test]
    fn demo_strips_worker_marker() {
        // A re-executed worker sees the parent's argv plus the hidden
        // marker; parsing must come out identical.
        let a = parse_demo_args(["pi", "1000", "2", parmonc::ipc::WORKER_FLAG]).unwrap();
        let b = parse_demo_args(["pi", "1000", "2"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_arg_parsing() {
        assert_eq!(
            parse_trace_args(["summary", "t.jsonl"]).unwrap(),
            TraceCommand::Summary {
                trace: PathBuf::from("t.jsonl")
            }
        );
        assert_eq!(
            parse_trace_args(["compare", "a.jsonl", "b.jsonl"]).unwrap(),
            TraceCommand::Compare {
                a: PathBuf::from("a.jsonl"),
                b: PathBuf::from("b.jsonl"),
            }
        );
        assert_eq!(
            parse_trace_args(["timeline", "t.jsonl"]).unwrap(),
            TraceCommand::Timeline {
                trace: PathBuf::from("t.jsonl")
            }
        );
        assert_eq!(
            parse_trace_args(["critical-path", "t.jsonl"]).unwrap(),
            TraceCommand::CriticalPath {
                trace: PathBuf::from("t.jsonl")
            }
        );
        for bad in [
            vec![],
            vec!["summary"],
            vec!["summary", "a", "b"],
            vec!["compare", "a"],
            vec!["unknown", "t.jsonl"],
        ] {
            assert!(parse_trace_args(bad).unwrap_err().contains("usage"));
        }
    }

    /// A tiny synthetic but schema-complete trace of a 2-processor run.
    fn sample_events() -> Vec<Event> {
        use parmonc_obs::RunMode;
        let ev = Event::at;
        vec![
            ev(
                0.0,
                None,
                EventKind::RunStarted {
                    mode: RunMode::Threads,
                    processors: 2,
                    max_sample_volume: 100,
                    seqnum: Some(1),
                    nrow: Some(1),
                    ncol: Some(1),
                    transport: Some(parmonc_obs::RunTransport::Threads),
                },
            ),
            ev(
                0.5,
                Some(1),
                EventKind::Realizations {
                    completed: 50,
                    compute_seconds: 0.4,
                },
            ),
            ev(
                0.6,
                Some(1),
                EventKind::MessageSent {
                    dest: 0,
                    tag: 1,
                    bytes: 64,
                },
            ),
            ev(
                0.6,
                Some(0),
                EventKind::MessageReceived {
                    source: 1,
                    tag: 1,
                    bytes: 64,
                    queue_depth: 0,
                },
            ),
            ev(
                0.7,
                Some(0),
                EventKind::MetricsSnapshot {
                    functional: 0,
                    n: 50,
                    mean: Some(0.51),
                    err: Some(0.02),
                },
            ),
            ev(
                1.0,
                Some(0),
                EventKind::MetricsSnapshot {
                    functional: 0,
                    n: 100,
                    mean: Some(0.5),
                    err: Some(0.01),
                },
            ),
            ev(
                1.0,
                Some(0),
                EventKind::TargetPrecisionReached {
                    n: 100,
                    eps_max: 0.01,
                    target: 0.02,
                },
            ),
            ev(
                1.1,
                None,
                EventKind::RunCompleted {
                    realizations: 100,
                    t_comp_seconds: 1.1,
                    messages: 1,
                    bytes: 64,
                },
            ),
        ]
    }

    fn write_trace(name: &str, events: &[Event]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("parmonc-trace-{name}-{}.jsonl", std::process::id()));
        let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn read_trace_round_trips_and_rejects_garbage() {
        let events = sample_events();
        let path = write_trace("roundtrip", &events);
        let back = read_trace(&path).unwrap();
        assert_eq!(back.len(), events.len());
        assert_eq!(back[0].kind.name(), "run_started");

        std::fs::write(&path, "{\"v\":1,\"kind\":\"bogus\",\"time_s\":0}\n").unwrap();
        match read_trace(&path).unwrap_err() {
            TraceError::InvalidLine { line_no, .. } => assert_eq!(line_no, 1),
            other => panic!("expected InvalidLine, got {other:?}"),
        }
        let missing = path.with_extension("missing");
        assert!(matches!(
            read_trace(&missing).unwrap_err(),
            TraceError::Io { .. }
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_summary_and_quantiles_render() {
        let events = sample_events();
        let summary = trace_summary(&events);
        assert!(summary.contains("8 events"));
        assert!(summary.contains("target precision reached"));
        let quantiles = trace_quantiles(&events);
        assert!(quantiles.contains("parmonc_message_bytes"));
        assert!(quantiles.contains("p99"));
        assert!(trace_quantiles(&[]).contains("no histogram samples"));
    }

    #[test]
    fn trace_convergence_lists_trajectory() {
        let out = trace_convergence(&sample_events());
        assert!(out.contains("functional 0 (2 observations)"));
        assert!(out.contains("target precision reached at n 100"));
        assert!(trace_convergence(&[]).contains("no metrics_snapshot"));
    }

    /// A synthetic span stream on one corrected run clock: rank 0
    /// positions + merges, rank 1 batches + sends, with waiting gaps.
    fn span_events() -> Vec<Event> {
        use parmonc_obs::RunMode;
        let mut v = vec![Event::at(
            0.0,
            None,
            EventKind::RunStarted {
                mode: RunMode::Threads,
                processors: 2,
                max_sample_volume: 100,
                seqnum: None,
                nrow: None,
                ncol: None,
                transport: Some(parmonc_obs::RunTransport::Tcp),
            },
        )];
        let mut add = |id: u64, rank: usize, phase: SpanPhase, t0: f64, t1: f64| {
            v.push(Event::at(
                t0,
                Some(rank),
                EventKind::SpanStarted {
                    span: id,
                    parent: None,
                    phase,
                },
            ));
            v.push(Event::at(
                t1,
                Some(rank),
                EventKind::SpanEnded { span: id, phase },
            ));
        };
        add(1, 0, SpanPhase::StreamPosition, 0.0, 0.1);
        add(2, 1, SpanPhase::RealizationBatch, 0.1, 0.6);
        add(3, 1, SpanPhase::SubtotalSend, 0.55, 0.6);
        add(4, 0, SpanPhase::CollectorMerge, 0.7, 0.9);
        v.push(Event::at(
            1.0,
            Some(0),
            EventKind::TargetPrecisionReached {
                n: 100,
                eps_max: 0.01,
                target: 0.02,
            },
        ));
        v
    }

    #[test]
    fn timeline_renders_per_rank_gantt() {
        let out = trace_timeline(&span_events());
        assert!(out.contains("8 spans") || out.contains("4 spans"), "{out}");
        assert!(out.contains("rank 0"));
        assert!(out.contains("rank 1"));
        assert!(out.contains("subtotal_send"));
        assert!(out.contains("collector_merge"));
        assert!(out.contains('#'));
        assert!(trace_timeline(&sample_events()).contains("no spans"));
    }

    #[test]
    fn critical_path_tiles_the_run_window_exactly() {
        let path = trace_critical_path(&span_events());
        // The steps cover run start to the anchor with no gap or
        // overlap, so the total equals the wall time by construction.
        assert!((path.wall_s - 1.0).abs() < 1e-9);
        assert!((path.total_s - path.wall_s).abs() < 1e-9, "{}", path.report);
        assert!(!path.steps.is_empty());
        assert!((path.steps[0].start_s - 0.0).abs() < 1e-9);
        assert!((path.steps.last().unwrap().end_s - 1.0).abs() < 1e-9);
        for pair in path.steps.windows(2) {
            assert!(
                (pair[0].end_s - pair[1].start_s).abs() < 1e-9,
                "steps must be contiguous: {pair:?}"
            );
        }
        // The longest stretch was rank 1's realization batch; the
        // in-flight walk hops from the merge back through the send into
        // the batch, crossing ranks along real dependencies.
        assert!(path
            .report
            .contains("dominated by rank 1 realization_batch"));
        assert!(path.report.contains("wait"));

        // Span-free traces degrade gracefully.
        let empty = trace_critical_path(&[]);
        assert_eq!(empty.steps.len(), 0);
        let no_spans = trace_critical_path(&sample_events());
        assert!((no_spans.total_s - no_spans.wall_s).abs() < 1e-9);
    }

    #[test]
    fn closed_spans_pairs_and_counts_unclosed() {
        let mut events = span_events();
        let (spans, unclosed) = closed_spans(&events);
        assert_eq!(spans.len(), 4);
        assert_eq!(unclosed, 0);
        // Drop the last span_ended: its span never closes.
        let pos = events
            .iter()
            .rposition(|e| matches!(e.kind, EventKind::SpanEnded { .. }))
            .unwrap();
        events.remove(pos);
        let (spans, unclosed) = closed_spans(&events);
        assert_eq!(spans.len(), 3);
        assert_eq!(unclosed, 1);
        assert!(trace_timeline(&events).contains("1 spans never closed"));
    }

    #[test]
    fn compare_traces_verdicts() {
        let events = sample_events();
        let same = compare_traces(&events, &events);
        assert!(same.matches, "{}", same.report);
        assert!(same.report.contains("event kinds: identical"));
        assert!(same.report.contains("traces match"));

        // Dropping the run_completed event truncates the trace.
        let truncated = &events[..events.len() - 1];
        let cmp = compare_traces(&events, truncated);
        assert!(!cmp.matches);
        assert!(cmp.report.contains("only in a"));

        // An estimate outside the combined error bars is a mismatch.
        let mut shifted = events.clone();
        if let EventKind::MetricsSnapshot { mean, .. } = &mut shifted[5].kind {
            *mean = Some(0.9);
        }
        let cmp = compare_traces(&events, &shifted);
        assert!(!cmp.matches);
        assert!(cmp.report.contains("exceeds combined error bar"));
    }
}

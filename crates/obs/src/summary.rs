//! Run aggregation: folds a monitor event stream into a
//! [`MonitorSummary`] as the events arrive, and renders from it both
//! the table printed by `parmonc-demo` and `fig2_threads` and the
//! Prometheus text of `monitor/metrics.prom`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use crate::event::{Event, EventKind, RunMode, RunTransport, SpanPhase};
use crate::metrics::{render_exposition, LogHistogram, Scalars};
use crate::monitor::EventSink;

/// Per-rank aggregates extracted from a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    /// Realizations completed (last cumulative `realizations` report).
    pub realizations: u64,
    /// Seconds spent computing realizations (last cumulative report).
    pub compute_seconds: f64,
    /// Messages this rank sent.
    pub messages_sent: u64,
    /// Payload bytes this rank sent.
    pub bytes_sent: u64,
}

/// Everything the end-of-run summary table needs, folded from one
/// monitor trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorSummary {
    /// Which engine produced the trace.
    pub mode: Option<RunMode>,
    /// Which transport substrate carried rank traffic (absent for
    /// simulated runs and pre-transport traces).
    pub transport: Option<RunTransport>,
    /// Processor count from `run_started`.
    pub processors: Option<usize>,
    /// Target sample volume from `run_started`.
    pub max_sample_volume: Option<u64>,
    /// Total events in the trace.
    pub events: u64,
    /// Per-rank aggregates, keyed by rank.
    pub ranks: BTreeMap<usize, RankStats>,
    /// Messages received across all ranks.
    pub messages_received: u64,
    /// Payload bytes received across all ranks.
    pub bytes_received: u64,
    /// Messages rank 0, the collector, received — the `messages` its
    /// `run_completed` reports.
    pub collector_messages_received: u64,
    /// Payload bytes rank 0 received — `run_completed`'s `bytes`.
    pub collector_bytes_received: u64,
    /// Largest receive-queue depth seen anywhere.
    pub max_queue_depth: u64,
    /// Number of collector averaging passes.
    pub averaging_passes: u64,
    /// Total seconds spent in averaging passes.
    pub averaging_seconds: f64,
    /// `eps_max` from the last averaging pass that carried one.
    pub final_eps_max: Option<f64>,
    /// Largest snapshot age any averaging pass observed.
    pub max_snapshot_age_seconds: Option<f64>,
    /// Number of save-points written.
    pub save_points: u64,
    /// Total seconds spent writing save-points.
    pub save_seconds: f64,
    /// Realizations from `run_completed`.
    pub total_realizations: Option<u64>,
    /// The paper's `T_comp` from `run_completed`.
    pub t_comp_seconds: Option<f64>,
    /// Faults the deterministic fault plane injected.
    pub faults_injected: u64,
    /// Workers the collector declared dead.
    pub workers_lost: u64,
    /// Realizations reassigned from dead workers to survivors.
    pub reassigned_realizations: u64,
    /// Elastic-membership joins (TCP backend): workers that completed
    /// the handshake and were leased a rank.
    pub workers_joined: u64,
    /// Elastic-membership departures (TCP backend): connections that
    /// closed, whether by worker exit, crash, or run shutdown.
    pub workers_left: u64,
    /// Leased workers that re-attached after a broken connection or a
    /// collector restart (TCP backend).
    pub workers_reconnected: u64,
    /// Collector restarts that resumed an interrupted run from the
    /// persisted lease table and checkpoint (TCP backend).
    pub collector_resumes: u64,
    /// Frames rejected because the sender died (or the fault plane cut
    /// the link) mid-write.
    pub torn_frames: u64,
    /// Resumes recovered from a `.bak` checkpoint generation.
    pub checkpoint_recoveries: u64,
    /// Convergence snapshots (`metrics_snapshot`) in the trace.
    pub metrics_snapshots: u64,
    /// The `(n, eps_max, target)` of the `target_precision_reached`
    /// event, if the run declared one.
    pub target_precision: Option<(u64, f64, f64)>,
    /// Trace lines the sinks failed to write (full disk etc.) — set by
    /// the caller from [`crate::Monitor::flush`], since dropped lines
    /// are by definition not in the event list.
    pub dropped_events: u64,
    /// Tracing spans closed (`span_ended` events).
    pub spans_closed: u64,
    /// Seconds per span phase, summed over spans whose start and end
    /// both appear in the trace (corrected run clock): each rank's spans
    /// in their order, then the ranks in rank order, so that how ranks
    /// interleave cannot change a bit.
    pub span_seconds: BTreeMap<&'static str, f64>,
    /// `wire_stats` events in the trace — one per torn-down socket
    /// link end.
    pub wire_links: u64,
    /// Frames read across all socket links.
    pub wire_frames_in: u64,
    /// Bytes read across all socket links.
    pub wire_bytes_in: u64,
    /// Frames written across all socket links.
    pub wire_frames_out: u64,
    /// Bytes written across all socket links.
    pub wire_bytes_out: u64,
    /// Reconnect dials across all links.
    pub reconnect_dials: u64,
    /// Duplicate frames dropped by exactly-once dedup across all links.
    pub dedup_dropped_frames: u64,
    /// Events forwarding workers' sinks failed to write (reported in
    /// their `wire_stats`) — far-side trace truncation, distinct from
    /// this process's own `dropped_events`.
    pub forwarded_dropped_events: u64,
    /// Spans whose other half has not arrived yet, by id — at most
    /// [`MAX_OPEN_SPANS`] of them, so lost halves cannot grow the fold
    /// without bound.
    open_spans: BTreeMap<u64, OpenSpan>,
    // What only `metrics.prom` shows, keyed by what each series'
    // label carries: (family, tag), fault, phase series, link, and
    // (family, functional) for the last estimate values.
    messages_by_tag: BTreeMap<(&'static str, u32), u64>,
    faults_by_name: BTreeMap<String, u64>,
    spans_by_phase: BTreeMap<&'static str, u64>,
    /// Link → its summed `wire_stats` counts, in [`WIRE_SERIES`] order.
    links: BTreeMap<usize, [u64; 7]>,
    estimates: BTreeMap<(&'static str, u64), f64>,
    // The last averaging pass's (or snapshot's) volume, the last pass's
    // `time_s`, and the last `eps_max` a pass or declaration gave.
    sample_volume: Option<u64>,
    run_time_seconds: Option<f64>,
    eps_max: Option<f64>,
    /// Heartbeat source → `time_s` of its last tag-4 delivery.
    last_heartbeat: BTreeMap<usize, f64>,
    /// Samples by histogram family and by the rank of the event that
    /// produced them; see [`MonitorSummary::histograms`].
    histograms: BTreeMap<(&'static str, Option<usize>), LogHistogram>,
    /// [`MonitorSummary::span_seconds`] by phase and rank.
    span_seconds_by_rank: BTreeMap<(&'static str, Option<usize>), f64>,
}

/// Cap on held span halves: beyond this, the stalest id is evicted so a
/// trace with lost halves cannot grow the fold without bound.
const MAX_OPEN_SPANS: usize = 4096;

/// The runner's heartbeat message tag (`parmonc::messages`): tag-4
/// deliveries time the heartbeat gaps.
const TAG_HEARTBEAT: u32 = 4;

/// The counter families of a `wire_stats` event's counts, in field
/// order. The first four are rendered for every link, the rest only
/// when non-zero.
const WIRE_SERIES: [&str; 7] = [
    "parmonc_wire_frames_in_total",
    "parmonc_wire_bytes_in_total",
    "parmonc_wire_frames_out_total",
    "parmonc_wire_bytes_out_total",
    "parmonc_reconnect_dials_total",
    "parmonc_dedup_dropped_frames_total",
    "parmonc_forwarded_events_dropped_total",
];

/// The half of a span the fold has seen.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OpenSpan {
    /// `span_started` at this time.
    Started(f64),
    /// `span_ended` at this time, before its start arrived.
    Ended(f64, SpanPhase),
}

/// How many events the live fold takes between `metrics.prom`
/// rewrites (it is also rewritten at every flush).
const WRITE_EVERY: u64 = 256;

/// The live fold a monitored run attaches next to its jsonl sink: the
/// run's [`MonitorSummary`], folded as events arrive, and optionally
/// its Prometheus text, rewritten every 256 events and at every flush.
#[derive(Debug)]
pub struct SummarySink {
    fold: Mutex<MonitorSummary>,
    prom_path: Option<PathBuf>,
}

impl SummarySink {
    /// An empty fold that writes its exposition to `prom_path`, if
    /// given.
    #[must_use]
    pub fn new(prom_path: Option<PathBuf>) -> Self {
        Self {
            fold: Mutex::default(),
            prom_path,
        }
    }

    /// The summary folded so far.
    ///
    /// # Panics
    ///
    /// If a thread panicked while folding an event into it.
    pub fn lock(&self) -> MutexGuard<'_, MonitorSummary> {
        self.fold.lock().expect("summary fold poisoned")
    }

    /// Rewrites `metrics.prom`, if the sink has one. Write errors are
    /// ignored: the exposition is advisory and must never fail a run
    /// (trace-line loss, by contrast, is counted by the jsonl sink).
    fn write_prom(&self, fold: &MonitorSummary) {
        if let Some(path) = &self.prom_path {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let _ = std::fs::write(path, fold.render_prometheus());
        }
    }
}

impl EventSink for SummarySink {
    fn record(&self, event: &Event) {
        let mut fold = self.lock();
        fold.record(event);
        if fold.events.is_multiple_of(WRITE_EVERY) {
            self.write_prom(&fold);
        }
    }

    fn flush(&self) {
        self.write_prom(&self.lock());
    }
}

impl MonitorSummary {
    /// Folds a trace into a summary: [`Self::record`] over every event.
    /// Delivery order changes only which batches the realization-time
    /// samples cover (each is what a rank's report was the first to
    /// show), the heartbeat gaps (between consecutive arrivals), the
    /// last-value fields and gauges, and the last bits of sums.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = Self::default();
        for event in events {
            s.record(event);
        }
        s
    }

    /// Folds one more event in. A monitored run attaches the fold as a
    /// sink ([`SummarySink`]), so its summary is ready when the run
    /// ends and the run holds no trace; `parmonc-trace summary` folds a
    /// trace file the same way.
    pub fn record(&mut self, event: &Event) {
        self.events += 1;
        match &event.kind {
            EventKind::RunStarted {
                mode,
                processors,
                max_sample_volume,
                transport,
                ..
            } => {
                self.mode = Some(*mode);
                self.transport = *transport;
                self.processors = Some(*processors);
                self.max_sample_volume = Some(*max_sample_volume);
            }
            EventKind::Realizations {
                completed,
                compute_seconds,
            } => {
                if let Some(rank) = event.rank {
                    let stats = self.ranks.entry(rank).or_default();
                    // Only a report past the rank's furthest one shows
                    // new work: a batch of `dn` realizations in `dt`
                    // seconds. A late, stale report adds nothing.
                    let dn = completed.saturating_sub(stats.realizations);
                    let dt = compute_seconds - stats.compute_seconds;
                    stats.realizations = stats.realizations.max(*completed);
                    if compute_seconds.is_finite() {
                        stats.compute_seconds = stats.compute_seconds.max(*compute_seconds);
                    }
                    if dn > 0 && dt >= 0.0 {
                        // The batch's mean per-realization compute time.
                        self.observe("parmonc_realization_seconds", event.rank, dt / dn as f64);
                    }
                }
            }
            EventKind::MessageSent { tag, bytes, .. } => {
                if let Some(rank) = event.rank {
                    let stats = self.ranks.entry(rank).or_default();
                    stats.messages_sent += 1;
                    stats.bytes_sent += bytes;
                }
                let key = ("parmonc_messages_sent_total", *tag);
                *self.messages_by_tag.entry(key).or_default() += 1;
                self.observe("parmonc_message_bytes", event.rank, *bytes as f64);
            }
            EventKind::MessageReceived {
                source,
                tag,
                bytes,
                queue_depth,
            } => {
                self.messages_received += 1;
                self.bytes_received += bytes;
                self.max_queue_depth = self.max_queue_depth.max(*queue_depth);
                if event.rank == Some(0) {
                    self.collector_messages_received += 1;
                    self.collector_bytes_received += bytes;
                }
                let key = ("parmonc_messages_received_total", *tag);
                *self.messages_by_tag.entry(key).or_default() += 1;
                self.observe("parmonc_queue_depth", event.rank, *queue_depth as f64);
                if *tag == TAG_HEARTBEAT {
                    if let Some(prev) = self.last_heartbeat.insert(*source, event.time_s) {
                        self.observe(
                            "parmonc_heartbeat_gap_seconds",
                            event.rank,
                            event.time_s - prev,
                        );
                    }
                }
            }
            EventKind::QueueHighWater { depth } => {
                self.max_queue_depth = self.max_queue_depth.max(*depth);
            }
            EventKind::AveragingPass {
                volume,
                duration_seconds,
                eps_max,
                max_snapshot_age_seconds,
            } => {
                self.averaging_passes += 1;
                self.averaging_seconds += duration_seconds;
                if eps_max.is_some() {
                    self.final_eps_max = *eps_max;
                    self.eps_max = *eps_max;
                }
                if let Some(age) = max_snapshot_age_seconds {
                    self.max_snapshot_age_seconds =
                        Some(self.max_snapshot_age_seconds.map_or(*age, |m| m.max(*age)));
                    self.observe("parmonc_snapshot_age_seconds", event.rank, *age);
                }
                self.observe(
                    "parmonc_averaging_pass_seconds",
                    event.rank,
                    *duration_seconds,
                );
                self.sample_volume = Some(*volume);
                self.run_time_seconds = Some(event.time_s);
            }
            EventKind::SavePoint {
                duration_seconds, ..
            } => {
                self.save_points += 1;
                self.save_seconds += duration_seconds;
                self.observe("parmonc_save_point_seconds", event.rank, *duration_seconds);
            }
            EventKind::RunCompleted {
                realizations,
                t_comp_seconds,
                ..
            } => {
                self.total_realizations = Some(*realizations);
                self.t_comp_seconds = Some(*t_comp_seconds);
            }
            EventKind::FaultInjected { fault, .. } => {
                self.faults_injected += 1;
                *self.faults_by_name.entry(fault.clone()).or_default() += 1;
            }
            EventKind::WorkerLost { .. } => {
                self.workers_lost += 1;
            }
            EventKind::WorkReassigned { realizations, .. } => {
                self.reassigned_realizations += realizations;
            }
            EventKind::CheckpointRecovered { .. } => {
                self.checkpoint_recoveries += 1;
            }
            EventKind::MetricsSnapshot {
                functional,
                n,
                mean,
                err,
            } => {
                self.metrics_snapshots += 1;
                self.sample_volume = Some(*n);
                for (family, value) in [
                    ("parmonc_estimate_mean", mean),
                    ("parmonc_estimate_err", err),
                ] {
                    if let Some(value) = value {
                        self.estimates.insert((family, *functional), *value);
                    }
                }
            }
            EventKind::TargetPrecisionReached { n, eps_max, target } => {
                self.target_precision = Some((*n, *eps_max, *target));
                self.eps_max = Some(*eps_max);
            }
            EventKind::WorkerJoined { .. } => {
                self.workers_joined += 1;
            }
            EventKind::WorkerLeft { .. } => {
                self.workers_left += 1;
            }
            EventKind::WorkerReconnected { .. } => {
                self.workers_reconnected += 1;
            }
            EventKind::CollectorResumed { .. } => {
                self.collector_resumes += 1;
            }
            EventKind::TornFrame { .. } => {
                self.torn_frames += 1;
            }
            // Span pairing by id is order-tolerant: whichever half
            // arrives first waits in the table for the other, so skewed
            // multi-host delivery order cannot change the per-phase
            // totals.
            EventKind::SpanStarted { span, .. } => match self.open_spans.remove(span) {
                Some(OpenSpan::Ended(end_s, phase)) => {
                    self.add_span(phase, event.rank, end_s - event.time_s);
                }
                _ => self.hold_open_span(*span, OpenSpan::Started(event.time_s)),
            },
            EventKind::SpanEnded { span, phase } => {
                self.spans_closed += 1;
                *self.spans_by_phase.entry(phase.series()).or_default() += 1;
                match self.open_spans.remove(span) {
                    Some(OpenSpan::Started(start_s)) => {
                        self.add_span(*phase, event.rank, event.time_s - start_s);
                    }
                    _ => self.hold_open_span(*span, OpenSpan::Ended(event.time_s, *phase)),
                }
            }
            EventKind::WireStats {
                link,
                frames_in,
                bytes_in,
                frames_out,
                bytes_out,
                dials,
                dedup_dropped,
                events_dropped,
            } => {
                self.wire_links += 1;
                self.wire_frames_in += frames_in;
                self.wire_bytes_in += bytes_in;
                self.wire_frames_out += frames_out;
                self.wire_bytes_out += bytes_out;
                self.reconnect_dials += dials;
                self.dedup_dropped_frames += dedup_dropped;
                self.forwarded_dropped_events += events_dropped;
                let counts = [
                    frames_in,
                    bytes_in,
                    frames_out,
                    bytes_out,
                    dials,
                    dedup_dropped,
                    events_dropped,
                ];
                let sums = self.links.entry(*link).or_default();
                for (sum, count) in sums.iter_mut().zip(counts) {
                    *sum += count;
                }
            }
        }
    }

    /// Files one sample under its histogram family and the rank whose
    /// event produced it.
    fn observe(&mut self, family: &'static str, rank: Option<usize>, value: f64) {
        self.histograms
            .entry((family, rank))
            .or_default()
            .observe(value);
    }

    /// Adds one paired span's duration to its phase's total and to the
    /// span-duration histogram.
    fn add_span(&mut self, phase: SpanPhase, rank: Option<usize>, duration: f64) {
        let phase = phase.as_str();
        *self.span_seconds_by_rank.entry((phase, rank)).or_default() += duration.max(0.0);
        let ranks = self
            .span_seconds_by_rank
            .range((phase, None)..=(phase, Some(usize::MAX)));
        self.span_seconds
            .insert(phase, ranks.map(|(_, seconds)| seconds).sum());
        if duration >= 0.0 {
            self.observe("parmonc_span_seconds", rank, duration);
        }
    }

    /// Holds a span's first half until its other one arrives, evicting
    /// the stalest id past [`MAX_OPEN_SPANS`]: a lost half must not pin
    /// memory forever.
    fn hold_open_span(&mut self, span: u64, half: OpenSpan) {
        self.open_spans.insert(span, half);
        if self.open_spans.len() > MAX_OPEN_SPANS {
            self.open_spans.pop_first();
        }
    }

    /// Every histogram family the trace gave a sample, in name order:
    /// realization and span times, message sizes, queue depths,
    /// heartbeat gaps, averaging-pass and save-point durations, and
    /// snapshot ages.
    ///
    /// A family's samples are kept per rank — the rank of the event
    /// that produced each — and merge here in rank order. Each rank's
    /// events come from one thread at a time (its own loop, or the one
    /// reader that forwards its link), so every sink sees them in the
    /// same order, even where two ranks' events reach the jsonl file
    /// and the live fold interleaved differently. So the floating-point
    /// sums, which depend on the order they are added in, come out the
    /// same in the live fold and in the fold of the file.
    #[must_use]
    pub fn histograms(&self) -> Vec<(&'static str, LogHistogram)> {
        let mut out: Vec<(&'static str, LogHistogram)> = Vec::new();
        for ((family, _), h) in &self.histograms {
            match out.last_mut() {
                Some((name, merged)) if name == family => merged.merge(h),
                _ => out.push((family, h.clone())),
            }
        }
        out
    }

    /// Renders the Prometheus text exposition of the fold — the
    /// contents of `parmonc_data/monitor/metrics.prom`; the series are
    /// listed in `docs/observability.md`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        const COUNTER: &str = "counter";
        const GAUGE: &str = "gauge";
        let mut scalars = Scalars::new();
        let mut add = |name: String, ty: &'static str, value: f64| {
            scalars.entry(name).or_insert((ty, 0.0)).1 += value;
        };
        // A trace holds one run: it starts, completes and reaches its
        // target at most once.
        let runs_started = u64::from(self.mode.is_some());
        let runs_completed = u64::from(self.total_realizations.is_some());
        let target_precisions_reached = u64::from(self.target_precision.is_some());
        let realizations: u64 = self.ranks.values().map(|r| r.realizations).sum();
        for (name, n) in [
            ("parmonc_runs_started_total", runs_started),
            ("parmonc_runs_completed_total", runs_completed),
            ("parmonc_realizations_total", realizations),
            ("parmonc_averaging_passes_total", self.averaging_passes),
            ("parmonc_save_points_total", self.save_points),
            ("parmonc_workers_lost_total", self.workers_lost),
            (
                "parmonc_reassigned_realizations_total",
                self.reassigned_realizations,
            ),
            (
                "parmonc_checkpoint_recoveries_total",
                self.checkpoint_recoveries,
            ),
            (
                "parmonc_target_precision_reached_total",
                target_precisions_reached,
            ),
            ("parmonc_workers_joined_total", self.workers_joined),
            ("parmonc_workers_left_total", self.workers_left),
            (
                "parmonc_workers_reconnected_total",
                self.workers_reconnected,
            ),
            ("parmonc_collector_resumes_total", self.collector_resumes),
            ("parmonc_torn_frames_total", self.torn_frames),
        ] {
            if n > 0 {
                add(name.into(), COUNTER, n as f64);
            }
        }
        if self.ranks.values().any(|r| r.messages_sent > 0) {
            let bytes: u64 = self.ranks.values().map(|r| r.bytes_sent).sum();
            add("parmonc_bytes_sent_total".into(), COUNTER, bytes as f64);
        }
        if self.messages_received > 0 {
            let bytes = self.bytes_received as f64;
            add("parmonc_bytes_received_total".into(), COUNTER, bytes);
        }
        for ((family, tag), n) in &self.messages_by_tag {
            // Message tags are tiny integers; anything past 9 is one
            // `other` series.
            let label = if *tag <= 9 {
                tag.to_string()
            } else {
                "other".into()
            };
            add(format!("{family}{{tag=\"{label}\"}}"), COUNTER, *n as f64);
        }
        for (fault, n) in &self.faults_by_name {
            let name = format!("parmonc_faults_injected_total{{fault=\"{fault}\"}}");
            add(name, COUNTER, *n as f64);
        }
        for (series, n) in &self.spans_by_phase {
            add((*series).into(), COUNTER, *n as f64);
        }
        for (link, sums) in &self.links {
            for (i, (family, n)) in WIRE_SERIES.iter().zip(sums).enumerate() {
                if i < 4 || *n > 0 {
                    add(format!("{family}{{link=\"{link}\"}}"), COUNTER, *n as f64);
                }
            }
        }
        let (target_volume, target) = self
            .target_precision
            .map(|(n, _, target)| (n, target))
            .unzip();
        for (name, value) in [
            ("parmonc_processors", self.processors.map(|m| m as f64)),
            (
                "parmonc_max_sample_volume",
                self.max_sample_volume.map(|l| l as f64),
            ),
            (
                "parmonc_queue_high_water",
                (self.max_queue_depth > 0).then_some(self.max_queue_depth as f64),
            ),
            (
                "parmonc_sample_volume",
                self.sample_volume.map(|n| n as f64),
            ),
            ("parmonc_run_time_seconds", self.run_time_seconds),
            ("parmonc_eps_max", self.eps_max),
            (
                "parmonc_total_realizations",
                self.total_realizations.map(|n| n as f64),
            ),
            ("parmonc_t_comp_seconds", self.t_comp_seconds),
            (
                "parmonc_target_precision_volume",
                target_volume.map(|n| n as f64),
            ),
            ("parmonc_eps_target", target),
        ] {
            if let Some(value) = value {
                add(name.into(), GAUGE, value);
            }
        }
        if let Some(transport) = self.transport {
            // Prometheus info-style gauge: the transport rides as a
            // label, the value is always 1.
            add(transport.series().into(), GAUGE, 1.0);
        }
        for ((family, functional), value) in &self.estimates {
            let name = format!("{family}{{functional=\"{functional}\"}}");
            add(name, GAUGE, *value);
        }
        render_exposition(&scalars, &self.histograms())
    }

    /// Renders the human-readable summary table printed at the end of
    /// monitored runs.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run monitor summary ({} events)", self.events);
        if let (Some(mode), Some(m)) = (self.mode, self.processors) {
            let _ = write!(out, "  mode {} | processors {m}", mode.as_str());
            if let Some(transport) = self.transport {
                let _ = write!(out, " | transport {}", transport.as_str());
            }
            out.push('\n');
        }
        if let Some(n) = self.total_realizations {
            let _ = write!(out, "  realizations {n}");
            if let Some(t) = self.t_comp_seconds {
                let _ = write!(out, " | T_comp {t:.3} s");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  messages received {} | bytes {} | max queue depth {}",
            self.messages_received, self.bytes_received, self.max_queue_depth
        );
        let _ = write!(
            out,
            "  averaging passes {} ({:.3} s) | save-points {} ({:.3} s)",
            self.averaging_passes, self.averaging_seconds, self.save_points, self.save_seconds
        );
        if let Some(eps) = self.final_eps_max {
            let _ = write!(out, " | eps_max {eps:.3e}");
        }
        out.push('\n');
        if let Some(age) = self.max_snapshot_age_seconds {
            let _ = writeln!(out, "  max snapshot age {age:.3} s");
        }
        if let Some((n, eps, target)) = self.target_precision {
            let _ = writeln!(
                out,
                "  target precision reached at n {n} (eps_max {eps:.3e} <= target {target:.3e})"
            );
        }
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} trace line(s) dropped (write failures) — trace is incomplete",
                self.dropped_events
            );
        }
        if self.forwarded_dropped_events > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} forwarded event(s) dropped by worker-side sinks — \
                 remote traces are incomplete",
                self.forwarded_dropped_events
            );
        }
        if self.wire_links > 0 {
            let _ = writeln!(
                out,
                "  wire ({} link ends): frames in/out {}/{} | bytes in/out {}/{} | \
                 dials {} | dedup-dropped {}",
                self.wire_links,
                self.wire_frames_in,
                self.wire_frames_out,
                self.wire_bytes_in,
                self.wire_bytes_out,
                self.reconnect_dials,
                self.dedup_dropped_frames
            );
        }
        if self.spans_closed > 0 {
            let _ = write!(out, "  spans closed {}", self.spans_closed);
            if !self.span_seconds.is_empty() {
                let _ = write!(out, " | time by phase:");
                for phase in crate::event::SpanPhase::ALL {
                    if let Some(seconds) = self.span_seconds.get(phase) {
                        let _ = write!(out, " {phase} {seconds:.3} s");
                    }
                }
            }
            out.push('\n');
        }
        if self.workers_joined > 0 || self.workers_left > 0 {
            let _ = writeln!(
                out,
                "  workers joined {} | workers left {}",
                self.workers_joined, self.workers_left
            );
        }
        if self.workers_reconnected > 0 || self.collector_resumes > 0 || self.torn_frames > 0 {
            let _ = writeln!(
                out,
                "  workers reconnected {} | collector resumes {} | torn frames {}",
                self.workers_reconnected, self.collector_resumes, self.torn_frames
            );
        }
        if self.faults_injected > 0
            || self.workers_lost > 0
            || self.reassigned_realizations > 0
            || self.checkpoint_recoveries > 0
        {
            let _ = writeln!(
                out,
                "  faults injected {} | workers lost {} | reassigned {} | checkpoint recoveries {}",
                self.faults_injected,
                self.workers_lost,
                self.reassigned_realizations,
                self.checkpoint_recoveries
            );
        }
        if !self.ranks.is_empty() {
            let _ = writeln!(
                out,
                "  {:>4}  {:>14}  {:>12}  {:>9}  {:>12}",
                "rank", "realizations", "compute_s", "msgs_sent", "bytes_sent"
            );
            for (rank, stats) in &self.ranks {
                let _ = writeln!(
                    out,
                    "  {rank:>4}  {:>14}  {:>12.4}  {:>9}  {:>12}",
                    stats.realizations,
                    stats.compute_seconds,
                    stats.messages_sent,
                    stats.bytes_sent
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_prometheus_text;

    fn ev(time_s: f64, rank: Option<usize>, kind: EventKind) -> Event {
        Event::at(time_s, rank, kind)
    }

    /// The value of one series in an exposition.
    fn sample(text: &str, series: &str) -> Option<f64> {
        text.lines()
            .filter(|line| !line.starts_with('#'))
            .find_map(|line| {
                let (name, value) = line.rsplit_once(' ')?;
                (name == series).then(|| value.parse().unwrap())
            })
    }

    fn histogram(s: &MonitorSummary, name: &str) -> Option<LogHistogram> {
        s.histograms()
            .into_iter()
            .find_map(|(family, h)| (family == name).then_some(h))
    }

    /// The fold without its realization-time samples, the one thing
    /// arrival order may change: a sample is the batch a rank's report
    /// was the first to show, so which reports arrive first decides how
    /// the batches are cut.
    fn without_batches(mut s: MonitorSummary) -> MonitorSummary {
        s.histograms
            .retain(|(family, _), _| *family != "parmonc_realization_seconds");
        s
    }

    #[test]
    fn folds_a_small_trace() {
        let events = vec![
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
                    transport: Some(RunTransport::Processes),
                },
            ),
            ev(
                0.5,
                Some(1),
                EventKind::Realizations {
                    completed: 40,
                    compute_seconds: 0.4,
                },
            ),
            ev(
                1.0,
                Some(1),
                EventKind::Realizations {
                    completed: 60,
                    compute_seconds: 0.9,
                },
            ),
            ev(
                0.5,
                Some(1),
                EventKind::MessageSent {
                    dest: 0,
                    tag: 1,
                    bytes: 48,
                },
            ),
            ev(
                0.6,
                Some(0),
                EventKind::MessageReceived {
                    source: 1,
                    tag: 1,
                    bytes: 48,
                    queue_depth: 2,
                },
            ),
            ev(0.6, Some(0), EventKind::QueueHighWater { depth: 3 }),
            ev(
                0.7,
                Some(0),
                EventKind::AveragingPass {
                    volume: 60,
                    duration_seconds: 0.01,
                    eps_max: Some(0.05),
                    max_snapshot_age_seconds: Some(0.2),
                },
            ),
            ev(
                0.7,
                Some(0),
                EventKind::SavePoint {
                    volume: 60,
                    duration_seconds: 0.002,
                },
            ),
            ev(
                1.1,
                None,
                EventKind::RunCompleted {
                    realizations: 100,
                    t_comp_seconds: 1.1,
                    messages: 1,
                    bytes: 48,
                },
            ),
        ];
        let s = MonitorSummary::from_events(&events);
        assert_eq!(s.mode, Some(RunMode::Threads));
        assert_eq!(s.transport, Some(RunTransport::Processes));
        assert_eq!(s.processors, Some(2));
        assert_eq!(s.ranks[&1].realizations, 60);
        assert_eq!(s.ranks[&1].messages_sent, 1);
        assert_eq!(s.ranks[&1].bytes_sent, 48);
        assert_eq!(s.messages_received, 1);
        assert_eq!(s.max_queue_depth, 3);
        assert_eq!(s.averaging_passes, 1);
        assert_eq!(s.save_points, 1);
        assert_eq!(s.final_eps_max, Some(0.05));
        assert_eq!(s.max_snapshot_age_seconds, Some(0.2));
        assert_eq!(s.total_realizations, Some(100));
        assert_eq!(s.t_comp_seconds, Some(1.1));

        let table = s.render_table();
        assert!(table.contains("mode threads"));
        assert!(table.contains("transport processes"));
        assert!(table.contains("max queue depth 3"));
        assert!(table.contains("rank"));
    }

    #[test]
    fn folds_fault_events_and_renders_the_fault_line() {
        let events = vec![
            ev(
                0.1,
                Some(2),
                EventKind::FaultInjected {
                    fault: "rank_crash".into(),
                    detail: Some(50),
                },
            ),
            ev(
                0.5,
                Some(0),
                EventKind::WorkerLost {
                    worker: 2,
                    received_realizations: 40,
                },
            ),
            ev(
                0.5,
                Some(0),
                EventKind::WorkReassigned {
                    from_worker: 2,
                    to_worker: 1,
                    realizations: 30,
                },
            ),
            ev(
                0.5,
                Some(0),
                EventKind::WorkReassigned {
                    from_worker: 2,
                    to_worker: 3,
                    realizations: 30,
                },
            ),
            ev(0.0, None, EventKind::CheckpointRecovered { volume: 10 }),
        ];
        let s = MonitorSummary::from_events(&events);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.workers_lost, 1);
        assert_eq!(s.reassigned_realizations, 60);
        assert_eq!(s.checkpoint_recoveries, 1);
        let table = s.render_table();
        assert!(table.contains("faults injected 1"));
        assert!(table.contains("workers lost 1"));
        assert!(table.contains("reassigned 60"));
    }

    #[test]
    fn empty_trace_summarizes_and_renders() {
        let s = MonitorSummary::from_events(&[]);
        assert_eq!(s.events, 0);
        let table = s.render_table();
        assert!(table.contains("0 events"));
        // No spurious sections on an empty trace.
        assert!(!table.contains("mode"));
        assert!(!table.contains("rank"));
        assert!(!table.contains("WARNING"));
    }

    /// A collector-only trace (rank 0 computing everything itself, no
    /// messages, no workers) folds and renders without a rank table
    /// misfire or a division by zero.
    #[test]
    fn collector_only_trace_summarizes() {
        let events = vec![
            ev(
                0.0,
                None,
                EventKind::RunStarted {
                    mode: RunMode::Threads,
                    processors: 1,
                    max_sample_volume: 50,
                    seqnum: Some(1),
                    nrow: Some(1),
                    ncol: Some(1),
                    transport: None,
                },
            ),
            ev(
                0.4,
                Some(0),
                EventKind::Realizations {
                    completed: 50,
                    compute_seconds: 0.4,
                },
            ),
            ev(
                0.5,
                Some(0),
                EventKind::AveragingPass {
                    volume: 50,
                    duration_seconds: 0.01,
                    eps_max: Some(0.1),
                    max_snapshot_age_seconds: None,
                },
            ),
            ev(
                0.6,
                None,
                EventKind::RunCompleted {
                    realizations: 50,
                    t_comp_seconds: 0.6,
                    messages: 0,
                    bytes: 0,
                },
            ),
        ];
        let s = MonitorSummary::from_events(&events);
        assert_eq!(s.messages_received, 0);
        assert_eq!(s.ranks.len(), 1);
        assert_eq!(s.ranks[&0].messages_sent, 0);
        let table = s.render_table();
        assert!(table.contains("messages received 0"));
    }

    /// `emit_at` producers (virtual time, merged per-rank streams) may
    /// deliver events out of timestamp order; the fold must be
    /// order-tolerant — same summary as the sorted trace.
    #[test]
    fn non_monotonic_time_folds_like_sorted() {
        let make = |completed, t| {
            ev(
                t,
                Some(1),
                EventKind::Realizations {
                    completed,
                    compute_seconds: t,
                },
            )
        };
        let shuffled = vec![
            make(60, 0.9),
            ev(
                0.2,
                Some(0),
                EventKind::AveragingPass {
                    volume: 60,
                    duration_seconds: 0.01,
                    eps_max: Some(0.2),
                    max_snapshot_age_seconds: Some(0.1),
                },
            ),
            make(40, 0.5),
            ev(0.1, Some(0), EventKind::QueueHighWater { depth: 2 }),
            make(10, 0.1),
        ];
        let mut sorted = shuffled.clone();
        sorted.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        let a = MonitorSummary::from_events(&shuffled);
        let b = MonitorSummary::from_events(&sorted);
        assert_eq!(without_batches(a.clone()), without_batches(b));
        assert_eq!(a.ranks[&1].realizations, 60);
        assert_eq!(a.ranks[&1].compute_seconds, 0.9);
        let _ = a.render_table();
    }

    /// The full multi-host story: a trace whose per-rank streams were
    /// merged from skewed clocks (worker events arrive late, early, and
    /// interleaved across every kind the TCP backend emits, and a stale
    /// progress report arrives again) must fold to the identical
    /// summary under every delivery order, and count every realization
    /// once.
    #[test]
    fn skewed_multi_host_trace_folds_order_independently() {
        // Rank 1's clock runs 5 s ahead, rank 2's 3 s behind: the
        // merged timeline is wildly non-monotonic even though each
        // rank's own stream is ordered.
        let mut events = vec![
            ev(
                0.0,
                None,
                EventKind::RunStarted {
                    mode: RunMode::Threads,
                    processors: 3,
                    max_sample_volume: 300,
                    seqnum: Some(1),
                    nrow: Some(1),
                    ncol: Some(1),
                    transport: Some(RunTransport::Tcp),
                },
            ),
            ev(
                0.1,
                Some(0),
                EventKind::WorkerJoined {
                    worker: 1,
                    addr: None,
                },
            ),
            ev(
                0.2,
                Some(0),
                EventKind::WorkerJoined {
                    worker: 2,
                    addr: None,
                },
            ),
        ];
        for (rank, skew) in [(1usize, 5.0f64), (2, -3.0)] {
            let span = (rank as u64 + 1) << 40;
            for step in 0..4u64 {
                let t = 0.3 + step as f64 * 0.2 + skew;
                events.push(ev(
                    t,
                    Some(rank),
                    EventKind::SpanStarted {
                        span: span + step,
                        parent: None,
                        phase: SpanPhase::RealizationBatch,
                    },
                ));
                events.push(ev(
                    t + 0.1,
                    Some(rank),
                    EventKind::Realizations {
                        completed: (step + 1) * 25,
                        compute_seconds: (step + 1) as f64 * 0.1,
                    },
                ));
                events.push(ev(
                    t + 0.15,
                    Some(rank),
                    EventKind::MessageSent {
                        dest: 0,
                        tag: 1,
                        bytes: 48,
                    },
                ));
                events.push(ev(
                    t + 0.18,
                    Some(rank),
                    EventKind::SpanEnded {
                        span: span + step,
                        phase: SpanPhase::RealizationBatch,
                    },
                ));
                events.push(ev(
                    0.35 + step as f64 * 0.2,
                    Some(0),
                    EventKind::MessageReceived {
                        source: rank,
                        tag: 1,
                        bytes: 48,
                        queue_depth: step,
                    },
                ));
            }
            events.push(ev(
                2.0,
                Some(0),
                EventKind::WireStats {
                    link: rank,
                    frames_in: 40,
                    bytes_in: 3200,
                    frames_out: 2,
                    bytes_out: 64,
                    dials: u64::from(rank == 1),
                    dedup_dropped: u64::from(rank == 2),
                    events_dropped: 0,
                },
            ));
            events.push(ev(2.1, Some(0), EventKind::WorkerLeft { worker: rank }));
        }
        // Rank 1 reports 100, then a stale 50 arrives, then 100 again.
        for completed in [50, 100] {
            events.push(ev(
                5.95,
                Some(1),
                EventKind::Realizations {
                    completed,
                    compute_seconds: completed as f64 / 250.0,
                },
            ));
        }
        events.push(ev(
            2.2,
            Some(0),
            EventKind::AveragingPass {
                volume: 200,
                duration_seconds: 0.02,
                eps_max: Some(0.01),
                max_snapshot_age_seconds: Some(0.4),
            },
        ));
        events.push(ev(
            2.3,
            None,
            EventKind::RunCompleted {
                realizations: 200,
                t_comp_seconds: 2.3,
                messages: 8,
                bytes: 384,
            },
        ));

        let reference = MonitorSummary::from_events(&events);
        // Deterministic pseudo-shuffles: rotate and stride the trace.
        let n = events.len();
        for seed in 1..6 {
            let mut shuffled = Vec::with_capacity(n);
            let stride = 1 + (seed * 5) % n;
            let mut i = seed % n;
            for _ in 0..n {
                shuffled.push(events[i].clone());
                i = (i + stride) % n;
            }
            // Strides coprime with n visit every event exactly once;
            // skip degenerate strides that don't.
            let mut check: Vec<_> = shuffled.iter().map(|e| e.time_s.to_bits()).collect();
            let mut orig: Vec<_> = events.iter().map(|e| e.time_s.to_bits()).collect();
            check.sort_unstable();
            orig.sort_unstable();
            if check != orig {
                continue;
            }
            let folded = MonitorSummary::from_events(&shuffled);
            assert_eq!(
                sample(&folded.render_prometheus(), "parmonc_realizations_total"),
                Some(200.0),
                "realizations over-counted under shuffle seed {seed}"
            );
            assert_eq!(
                without_batches(folded),
                without_batches(reference.clone()),
                "fold differed under shuffle seed {seed}"
            );
        }
        let mut sorted = events.clone();
        sorted.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        assert_eq!(MonitorSummary::from_events(&sorted), reference);
        // In trace order the stale report and its repeat add no batch.
        let text = reference.render_prometheus();
        assert_eq!(sample(&text, "parmonc_realizations_total"), Some(200.0));
        assert_eq!(
            sample(&text, "parmonc_realization_seconds_count"),
            Some(8.0)
        );

        // Sanity on the folded values themselves.
        assert_eq!(reference.ranks[&1].realizations, 100);
        assert_eq!(reference.ranks[&2].realizations, 100);
        assert_eq!(reference.spans_closed, 8);
        let batch = reference.span_seconds["realization_batch"];
        assert!((batch - 8.0 * 0.18).abs() < 1e-9, "batch seconds {batch}");
        assert_eq!(reference.wire_links, 2);
        assert_eq!(reference.wire_frames_in, 80);
        assert_eq!(reference.reconnect_dials, 1);
        assert_eq!(reference.dedup_dropped_frames, 1);
        let table = reference.render_table();
        assert!(table.contains("wire (2 link ends)"));
        assert!(table.contains("spans closed 8"));
        assert!(table.contains("dedup-dropped 1"));
    }

    #[test]
    fn forwarded_drops_render_a_warning() {
        let events = [ev(
            1.0,
            Some(0),
            EventKind::WireStats {
                link: 1,
                frames_in: 5,
                bytes_in: 400,
                frames_out: 1,
                bytes_out: 32,
                dials: 0,
                dedup_dropped: 0,
                events_dropped: 4,
            },
        )];
        let s = MonitorSummary::from_events(&events);
        assert_eq!(s.forwarded_dropped_events, 4);
        let table = s.render_table();
        assert!(table.contains("WARNING: 4 forwarded event(s) dropped"));
    }

    #[test]
    fn metrics_plane_events_fold_and_render() {
        let events = vec![
            ev(
                0.5,
                Some(0),
                EventKind::MetricsSnapshot {
                    functional: 0,
                    n: 40,
                    mean: Some(0.5),
                    err: Some(0.1),
                },
            ),
            ev(
                0.9,
                Some(0),
                EventKind::TargetPrecisionReached {
                    n: 80,
                    eps_max: 0.04,
                    target: 0.05,
                },
            ),
        ];
        let s = MonitorSummary::from_events(&events);
        assert_eq!(s.metrics_snapshots, 1);
        assert_eq!(s.target_precision, Some((80, 0.04, 0.05)));
        let table = s.render_table();
        assert!(table.contains("target precision reached at n 80"));
    }

    /// The live fold — the summary as a sink, fed event by event —
    /// ends where the fold of the finished trace does, over both forms
    /// of every kind.
    #[test]
    fn sink_fold_equals_the_fold_of_the_trace() {
        use crate::Monitor;
        use std::sync::Arc;

        let events: Vec<Event> = crate::event::samples()
            .iter()
            .flat_map(|kind| kind.rows.iter().enumerate())
            .map(|(row, kind)| Event {
                time_s: 0.25 + row as f64,
                rank: (row % 2 == 1).then_some(row),
                raw_time_s: (row % 2 == 1).then_some(7.5),
                kind: kind.clone(),
            })
            .collect();
        let fold = Arc::new(SummarySink::new(None));
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&fold))]);
        for e in &events {
            monitor.emit_aligned(e.time_s, e.raw_time_s, e.rank, e.kind.clone());
        }
        let live = fold.lock().clone();
        assert_eq!(live, MonitorSummary::from_events(&events));
        assert_eq!(live.events, events.len() as u64);
    }

    /// Only rank 0's deliveries count as the collector's traffic, which
    /// `run_completed` reports.
    #[test]
    fn collector_traffic_counts_rank_0_deliveries_only() {
        let received = |rank, bytes| {
            ev(
                0.1,
                Some(rank),
                EventKind::MessageReceived {
                    source: 1,
                    tag: 1,
                    bytes,
                    queue_depth: 0,
                },
            )
        };
        let s = MonitorSummary::from_events(&[received(0, 48), received(1, 8), received(0, 16)]);
        assert_eq!((s.messages_received, s.bytes_received), (3, 72));
        assert_eq!(
            (s.collector_messages_received, s.collector_bytes_received),
            (2, 64)
        );
    }

    fn started(time_s: f64, span: u64) -> Event {
        ev(
            time_s,
            Some(1),
            EventKind::SpanStarted {
                span,
                parent: None,
                phase: SpanPhase::SubtotalSend,
            },
        )
    }

    fn ended(time_s: f64, span: u64) -> Event {
        ev(
            time_s,
            Some(1),
            EventKind::SpanEnded {
                span,
                phase: SpanPhase::SubtotalSend,
            },
        )
    }

    /// A pair leaves the open-span table when its second half arrives,
    /// whichever half that is, and adds the same duration either way.
    #[test]
    fn matched_span_pairs_leave_no_open_span() {
        let mut s = MonitorSummary::default();
        for e in [
            started(1.0, 7),
            ended(1.5, 7),
            ended(3.0, 8),
            started(2.75, 8),
        ] {
            s.record(&e);
        }
        assert!(s.open_spans.is_empty());
        assert_eq!(s.spans_closed, 2);
        assert_eq!(s.span_seconds["subtotal_send"], 0.75);

        s.record(&started(4.0, 9));
        assert_eq!(s.open_spans.len(), 1, "an unmatched start waits");
    }

    /// Spans whose other half never comes are held up to the cap and
    /// no further: the stalest ids go first.
    #[test]
    fn unmatched_span_halves_stop_at_the_cap() {
        let extra = 10;
        let mut s = MonitorSummary::default();
        for span in 0..(MAX_OPEN_SPANS + extra) as u64 {
            s.record(&started(span as f64, span));
        }
        assert_eq!(s.open_spans.len(), MAX_OPEN_SPANS);
        assert_eq!(s.open_spans.keys().next(), Some(&(extra as u64)));

        let mut s = MonitorSummary::default();
        for span in 0..(MAX_OPEN_SPANS + extra) as u64 {
            s.record(&ended(span as f64, span));
        }
        assert_eq!(s.open_spans.len(), MAX_OPEN_SPANS);
        assert!(s.span_seconds.is_empty());
    }

    /// Every interleaving of `a` and `b` that keeps each one's order.
    fn interleavings(a: &[Event], b: &[Event]) -> Vec<Vec<Event>> {
        let (Some((x, rest_a)), Some((y, rest_b))) = (a.split_first(), b.split_first()) else {
            return vec![[a, b].concat()];
        };
        let mut out = Vec::new();
        for (first, rest) in [(x, interleavings(rest_a, b)), (y, interleavings(a, rest_b))] {
            out.extend(
                rest.into_iter()
                    .map(|tail| [vec![first.clone()], tail].concat()),
            );
        }
        out
    }

    /// Two ranks' events may reach the jsonl file and the live fold
    /// interleaved differently; as long as each rank's own events keep
    /// their order, every histogram sum and every span total comes out
    /// bit-identical.
    #[test]
    fn a_rank_interleaving_leaves_every_sum_unchanged() {
        let save = |rank, duration_seconds| {
            ev(
                1.0,
                Some(rank),
                EventKind::SavePoint {
                    volume: 1,
                    duration_seconds,
                },
            )
        };
        let span = |rank, span, seconds| {
            let phase = SpanPhase::SubtotalSend;
            let start = EventKind::SpanStarted {
                span,
                parent: None,
                phase,
            };
            let end = EventKind::SpanEnded { span, phase };
            [ev(0.0, Some(rank), start), ev(seconds, Some(rank), end)]
        };
        // In one sum these orders differ in the last bit.
        assert_ne!((0.2 + 0.1) + 0.3, (0.2 + 0.3) + 0.1);
        let rank_1 = [
            vec![save(1, 0.2)],
            span(1, 1, 0.2).to_vec(),
            vec![save(1, 0.1)],
            span(1, 2, 0.1).to_vec(),
        ]
        .concat();
        let rank_2 = [vec![save(2, 0.3)], span(2, 3, 0.3).to_vec()].concat();
        let file = MonitorSummary::from_events(&[rank_1.clone(), rank_2.clone()].concat());
        let span_bits = |s: &MonitorSummary| -> Vec<(&str, u64)> {
            s.span_seconds
                .iter()
                .map(|(&p, t)| (p, t.to_bits()))
                .collect()
        };
        let rank_order = (0.2 + 0.1) + 0.3_f64;
        assert_eq!(span_bits(&file), [("subtotal_send", rank_order.to_bits())]);
        let orders = interleavings(&rank_1, &rank_2);
        assert_eq!(orders.len(), 84);
        for order in orders {
            let live = MonitorSummary::from_events(&order);
            assert_eq!(
                histogram(&file, "parmonc_save_point_seconds"),
                histogram(&live, "parmonc_save_point_seconds")
            );
            assert_eq!(span_bits(&file), span_bits(&live));
            assert_eq!(file.render_prometheus(), live.render_prometheus());
        }
    }

    #[test]
    fn fold_derives_metrics_from_the_event_stream() {
        let mut s = MonitorSummary::default();
        s.record(&ev(
            0.0,
            None,
            EventKind::RunStarted {
                mode: RunMode::Threads,
                processors: 4,
                max_sample_volume: 1000,
                seqnum: Some(1),
                nrow: Some(1),
                ncol: Some(1),
                transport: Some(RunTransport::Threads),
            },
        ));
        assert_eq!(
            sample(
                &s.render_prometheus(),
                "parmonc_transport_info{transport=\"threads\"}"
            ),
            Some(1.0)
        );
        // Cumulative progress: 10 realizations in 1 s, then 10 more in 3 s.
        s.record(&ev(
            1.0,
            Some(1),
            EventKind::Realizations {
                completed: 10,
                compute_seconds: 1.0,
            },
        ));
        s.record(&ev(
            4.0,
            Some(1),
            EventKind::Realizations {
                completed: 20,
                compute_seconds: 4.0,
            },
        ));
        assert_eq!(
            sample(&s.render_prometheus(), "parmonc_realizations_total"),
            Some(20.0)
        );
        let per_real = histogram(&s, "parmonc_realization_seconds").unwrap();
        assert_eq!(per_real.count(), 2);
        assert_eq!(per_real.min(), Some(0.1));
        assert_eq!(per_real.max(), Some(0.3));

        // Messages: one subtotal send, one heartbeat pair for the gap.
        s.record(&ev(
            1.0,
            Some(1),
            EventKind::MessageSent {
                dest: 0,
                tag: 1,
                bytes: 40,
            },
        ));
        s.record(&ev(
            2.0,
            Some(0),
            EventKind::MessageReceived {
                source: 1,
                tag: 4,
                bytes: 8,
                queue_depth: 2,
            },
        ));
        s.record(&ev(
            3.5,
            Some(0),
            EventKind::MessageReceived {
                source: 1,
                tag: 4,
                bytes: 8,
                queue_depth: 0,
            },
        ));
        let text = s.render_prometheus();
        assert_eq!(
            sample(&text, "parmonc_messages_sent_total{tag=\"1\"}"),
            Some(1.0)
        );
        assert_eq!(
            sample(&text, "parmonc_messages_received_total{tag=\"4\"}"),
            Some(2.0)
        );
        let gap = histogram(&s, "parmonc_heartbeat_gap_seconds").unwrap();
        assert_eq!(gap.count(), 1);
        assert_eq!(gap.max(), Some(1.5));

        // The estimate trajectory.
        s.record(&ev(
            5.5,
            Some(0),
            EventKind::MetricsSnapshot {
                functional: 0,
                n: 20,
                mean: Some(0.5),
                err: Some(0.01),
            },
        ));
        s.record(&ev(
            5.6,
            Some(0),
            EventKind::TargetPrecisionReached {
                n: 20,
                eps_max: 0.01,
                target: 0.02,
            },
        ));
        let text = s.render_prometheus();
        assert_eq!(
            sample(&text, "parmonc_estimate_mean{functional=\"0\"}"),
            Some(0.5)
        );
        assert_eq!(
            sample(&text, "parmonc_target_precision_reached_total"),
            Some(1.0)
        );
        validate_prometheus_text(&text).expect("derived exposition is valid");
    }

    #[test]
    fn span_and_wire_events_derive_trace_metrics() {
        let mut s = MonitorSummary::default();
        s.record(&ev(
            1.0,
            Some(1),
            EventKind::SpanStarted {
                span: 42,
                parent: None,
                phase: SpanPhase::RealizationBatch,
            },
        ));
        s.record(&ev(
            1.5,
            Some(1),
            EventKind::SpanEnded {
                span: 42,
                phase: SpanPhase::RealizationBatch,
            },
        ));
        // An end with no recorded start still counts, just without a
        // duration sample.
        s.record(&ev(
            2.0,
            Some(1),
            EventKind::SpanEnded {
                span: 43,
                phase: SpanPhase::Checkpoint,
            },
        ));
        s.record(&ev(
            3.0,
            Some(0),
            EventKind::WireStats {
                link: 2,
                frames_in: 10,
                bytes_in: 800,
                frames_out: 3,
                bytes_out: 90,
                dials: 2,
                dedup_dropped: 1,
                events_dropped: 0,
            },
        ));
        let text = s.render_prometheus();
        assert_eq!(
            sample(&text, "parmonc_spans_total{phase=\"realization_batch\"}"),
            Some(1.0)
        );
        assert_eq!(
            sample(&text, "parmonc_spans_total{phase=\"checkpoint\"}"),
            Some(1.0)
        );
        let h = histogram(&s, "parmonc_span_seconds").unwrap();
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 0.5).abs() < 1e-12);
        assert_eq!(
            sample(&text, "parmonc_wire_frames_in_total{link=\"2\"}"),
            Some(10.0)
        );
        assert_eq!(
            sample(&text, "parmonc_wire_bytes_out_total{link=\"2\"}"),
            Some(90.0)
        );
        assert_eq!(
            sample(&text, "parmonc_reconnect_dials_total{link=\"2\"}"),
            Some(2.0)
        );
        assert_eq!(
            sample(&text, "parmonc_dedup_dropped_frames_total{link=\"2\"}"),
            Some(1.0)
        );
        // No forwarded-drop series when the count is zero.
        assert_eq!(
            sample(&text, "parmonc_forwarded_events_dropped_total{link=\"2\"}"),
            None
        );
        validate_prometheus_text(&text).expect("valid exposition");
    }

    fn prom_path(name: &str) -> (std::path::PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("parmonc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("monitor/metrics.prom");
        (dir, path)
    }

    #[test]
    fn sink_writes_prometheus_file_on_flush() {
        let (dir, path) = prom_path("prom-flush");
        let sink = SummarySink::new(Some(path.clone()));
        sink.record(&ev(0.5, Some(0), EventKind::QueueHighWater { depth: 4 }));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        validate_prometheus_text(&text).expect("file parses as Prometheus text");
        assert!(text.contains("parmonc_queue_high_water 4"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run that is still going has a `metrics.prom` all the same: the
    /// sink rewrites it every 256 events, flush or no flush.
    #[test]
    fn sink_rewrites_prometheus_file_every_256_events() {
        let (dir, path) = prom_path("prom-periodic");
        let sink = SummarySink::new(Some(path.clone()));
        let delivery = |depth| {
            ev(
                0.5,
                Some(0),
                EventKind::MessageReceived {
                    source: 1,
                    tag: 1,
                    bytes: 64,
                    queue_depth: depth,
                },
            )
        };
        for depth in 0..255 {
            sink.record(&delivery(depth));
        }
        assert!(!path.exists(), "written before its 256th event");
        sink.record(&delivery(255));
        let text = std::fs::read_to_string(&path).unwrap();
        validate_prometheus_text(&text).expect("file parses as Prometheus text");
        assert!(text.contains("parmonc_queue_depth_count 256"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_events_render_a_warning() {
        let mut s = MonitorSummary::from_events(&[]);
        s.dropped_events = 3;
        let table = s.render_table();
        assert!(table.contains("WARNING: 3 trace line(s) dropped"));
    }
}

//! Run aggregation: folds a monitor event stream into a
//! [`MonitorSummary`] as the events arrive, and renders the table
//! printed by `parmonc-demo` and `fig2_threads`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::event::{Event, EventKind, RunMode, RunTransport, SpanPhase};
use crate::metrics::track_open_span;
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
    /// both appear in the trace (corrected run clock).
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
    /// the metrics plane's cap of them, so lost halves cannot grow the
    /// fold without bound.
    open_spans: BTreeMap<u64, OpenSpan>,
}

/// The half of a span the fold has seen.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OpenSpan {
    /// `span_started` at this time.
    Started(f64),
    /// `span_ended` at this time, before its start arrived.
    Ended(f64, SpanPhase),
}

/// The live fold a monitored run attaches next to its other sinks.
impl EventSink for Mutex<MonitorSummary> {
    fn record(&self, event: &Event) {
        self.lock().expect("summary fold poisoned").record(event);
    }
}

impl MonitorSummary {
    /// Folds a trace into a summary: [`Self::record`] over every event.
    /// Order-tolerant except that cumulative `realizations` reports
    /// take the per-rank maximum.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = Self::default();
        for event in events {
            s.record(event);
        }
        s
    }

    /// Folds one more event in. A monitored run attaches the fold as a
    /// sink (`Mutex<MonitorSummary>`), so its summary is ready when the
    /// run ends and the run holds no trace; `parmonc-trace summary`
    /// folds a trace file the same way.
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
                    stats.realizations = stats.realizations.max(*completed);
                    if compute_seconds.is_finite() {
                        stats.compute_seconds = stats.compute_seconds.max(*compute_seconds);
                    }
                }
            }
            EventKind::MessageSent { bytes, .. } => {
                if let Some(rank) = event.rank {
                    let stats = self.ranks.entry(rank).or_default();
                    stats.messages_sent += 1;
                    stats.bytes_sent += bytes;
                }
            }
            EventKind::MessageReceived {
                bytes, queue_depth, ..
            } => {
                self.messages_received += 1;
                self.bytes_received += bytes;
                self.max_queue_depth = self.max_queue_depth.max(*queue_depth);
                if event.rank == Some(0) {
                    self.collector_messages_received += 1;
                    self.collector_bytes_received += bytes;
                }
            }
            EventKind::QueueHighWater { depth } => {
                self.max_queue_depth = self.max_queue_depth.max(*depth);
            }
            EventKind::AveragingPass {
                duration_seconds,
                eps_max,
                max_snapshot_age_seconds,
                ..
            } => {
                self.averaging_passes += 1;
                self.averaging_seconds += duration_seconds;
                if eps_max.is_some() {
                    self.final_eps_max = *eps_max;
                }
                if let Some(age) = max_snapshot_age_seconds {
                    self.max_snapshot_age_seconds =
                        Some(self.max_snapshot_age_seconds.map_or(*age, |m| m.max(*age)));
                }
            }
            EventKind::SavePoint {
                duration_seconds, ..
            } => {
                self.save_points += 1;
                self.save_seconds += duration_seconds;
            }
            EventKind::RunCompleted {
                realizations,
                t_comp_seconds,
                ..
            } => {
                self.total_realizations = Some(*realizations);
                self.t_comp_seconds = Some(*t_comp_seconds);
            }
            EventKind::FaultInjected { .. } => {
                self.faults_injected += 1;
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
            EventKind::MetricsSnapshot { .. } => {
                self.metrics_snapshots += 1;
            }
            EventKind::TargetPrecisionReached { n, eps_max, target } => {
                self.target_precision = Some((*n, *eps_max, *target));
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
                Some(OpenSpan::Ended(end_s, phase)) => self.add_span(phase, end_s - event.time_s),
                _ => track_open_span(&mut self.open_spans, *span, OpenSpan::Started(event.time_s)),
            },
            EventKind::SpanEnded { span, phase } => {
                self.spans_closed += 1;
                match self.open_spans.remove(span) {
                    Some(OpenSpan::Started(start_s)) => {
                        self.add_span(*phase, event.time_s - start_s)
                    }
                    _ => track_open_span(
                        &mut self.open_spans,
                        *span,
                        OpenSpan::Ended(event.time_s, *phase),
                    ),
                }
            }
            EventKind::WireStats {
                frames_in,
                bytes_in,
                frames_out,
                bytes_out,
                dials,
                dedup_dropped,
                events_dropped,
                ..
            } => {
                self.wire_links += 1;
                self.wire_frames_in += frames_in;
                self.wire_bytes_in += bytes_in;
                self.wire_frames_out += frames_out;
                self.wire_bytes_out += bytes_out;
                self.reconnect_dials += dials;
                self.dedup_dropped_frames += dedup_dropped;
                self.forwarded_dropped_events += events_dropped;
            }
        }
    }

    /// Adds one paired span's duration to its phase's total.
    fn add_span(&mut self, phase: SpanPhase, duration: f64) {
        *self.span_seconds.entry(phase.as_str()).or_insert(0.0) += duration.max(0.0);
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

    fn ev(time_s: f64, rank: Option<usize>, kind: EventKind) -> Event {
        Event::at(time_s, rank, kind)
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
        assert_eq!(a, b);
        assert_eq!(a.ranks[&1].realizations, 60);
        assert_eq!(a.ranks[&1].compute_seconds, 0.9);
        let _ = a.render_table();
    }

    /// The full multi-host story: a trace whose per-rank streams were
    /// merged from skewed clocks (worker events arrive late, early, and
    /// interleaved across every kind the TCP backend emits) must fold
    /// to the identical summary under every delivery order.
    #[test]
    fn skewed_multi_host_trace_folds_order_independently() {
        use crate::event::SpanPhase;
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
            assert_eq!(
                MonitorSummary::from_events(&shuffled),
                reference,
                "fold differed under shuffle seed {seed}"
            );
        }
        let mut sorted = events.clone();
        sorted.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        assert_eq!(MonitorSummary::from_events(&sorted), reference);

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
        let fold = Arc::new(Mutex::new(MonitorSummary::default()));
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&fold))]);
        for e in &events {
            monitor.emit_aligned(e.time_s, e.raw_time_s, e.rank, e.kind.clone());
        }
        let live = fold.lock().unwrap().clone();
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

    /// Spans whose other half never comes are held up to the metrics
    /// plane's cap and no further: the stalest ids go first.
    #[test]
    fn unmatched_span_halves_stop_at_the_cap() {
        use crate::metrics::MAX_OPEN_SPANS;
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

    #[test]
    fn dropped_events_render_a_warning() {
        let mut s = MonitorSummary::from_events(&[]);
        s.dropped_events = 3;
        let table = s.render_table();
        assert!(table.contains("WARNING: 3 trace line(s) dropped"));
    }
}

//! The unified event schema: every metric the runner, the MPI
//! substrate and the fault plane can report, with its JSONL encoding.
//!
//! One [`Event`] is one line of `run_metrics.jsonl`, documented field
//! by field in `docs/observability.md`. The schema is declared here,
//! once: a `vocab!` table per closed string set and one `events!` table
//! of the kinds (macros in `wire.rs`), from which the encoder, the
//! validator and decoder in [`crate::schema`], the metric labels and
//! the test samples are generated.

use crate::wire::{events, push_quoted, vocab, KindClass, WireField};

/// Schema version stamped on every emitted line (the `"v"` field).
pub const SCHEMA_VERSION: u64 = 1;

vocab! {
    /// Which engine produced a trace. Every run the workspace ships
    /// writes `threads`. The second value is kept only so that traces
    /// the retired virtual-time cluster model wrote still validate; it
    /// keeps the schema version where it is.
    pub enum RunMode {
        /// The real-thread runner (`parmonc::runner`).
        Threads = "threads",
        /// The retired virtual-time cluster model; no engine writes it.
        SimCluster = "simcluster",
    }
}

vocab! {
    /// Which transport substrate carried a real run's rank traffic: the
    /// in-process thread channels, the multi-process Unix-socket backend,
    /// or the multi-host TCP backend. Distinct from [`RunMode`]: all
    /// transports run the identical collector code, and a trace of the
    /// retired cluster model has none, so the label appears as an
    /// *optional* `transport` field on `run_started`.
    pub enum RunTransport series("parmonc_transport_info", "transport") {
        /// Ranks are OS threads exchanging envelopes over channels.
        Threads = "threads",
        /// Ranks are forked worker processes exchanging envelopes over
        /// Unix-domain sockets (`parmonc-ipc`).
        Processes = "processes",
        /// Ranks are remote worker processes dialing the collector over
        /// TCP, with elastic membership (`parmonc-ipc`'s `tcp` module).
        Tcp = "tcp",
    }
}

vocab! {
    /// What the collector (rank 0) was doing during a trace segment.
    pub enum CollectorActivity series("parmonc_collector_seconds_total", "activity") {
        /// Simulating its own realizations.
        Computing = "computing",
        /// Receiving and folding worker subtotals.
        Receiving = "receiving",
        /// Averaging and writing a save-point.
        Saving = "saving",
        /// Idle, waiting for messages.
        Waiting = "waiting",
    }
}

vocab! {
    /// The run phase a tracing span covers.
    ///
    /// Spans wrap the phases that already exist implicitly in the runner
    /// and worker loops; the vocabulary is fixed so the trace tooling
    /// (`parmonc-trace timeline` / `critical-path`) can reason about
    /// dependencies between phases without free-text matching.
    pub enum SpanPhase series("parmonc_spans_total", "phase") {
        /// Positioning the leapfrog stream cursor for a rank's quota.
        StreamPosition = "stream_position",
        /// One batch of realizations between exchange points.
        RealizationBatch = "realization_batch",
        /// Encoding and sending one cumulative subtotal.
        SubtotalSend = "subtotal_send",
        /// The collector folding received subtotals and averaging.
        CollectorMerge = "collector_merge",
        /// The collector writing a checkpoint / save-point.
        Checkpoint = "checkpoint",
        /// A worker redialing the collector after a broken link.
        Reconnect = "reconnect",
    }
}

/// The `fault_injected.fault` vocabulary. `parmonc_faults::FaultKind`
/// spells the same names in a crate this one shares no edge with; the
/// umbrella test `fault_names_match_the_schema` holds the two together.
const FAULT_NAMES: &[&str] = &[
    "rank_crash",
    "message_drop",
    "message_duplicate",
    "message_delay",
    "torn_write",
    "bit_flip",
    "io_interrupt",
    "net_sever",
    "net_stall",
    "net_tear",
    "net_partition",
];

events! {
    /// The payload of one monitor event.
    ///
    /// Kinds map 1:1 to the `"kind"` discriminator on the wire; see
    /// `docs/observability.md` for units and paper mapping.
    pub enum EventKind {
        /// A run began. First event of every trace.
        RunStarted = "run_started", Always {
            /// The engine that wrote the trace; every shipped run
            /// writes [`RunMode::Threads`].
            mode: RunMode,
            /// Processor (rank) count `M`.
            processors: usize,
            /// Target total sample volume `maxsv` / `L`.
            max_sample_volume: u64,
            /// The "experiments" subsequence number; `None` for virtual
            /// runs, which draw no random numbers.
            seqnum: Option<u64>,
            /// Realization matrix rows; `None` for virtual runs.
            nrow: Option<usize>,
            /// Realization matrix columns; `None` for virtual runs.
            ncol: Option<usize>,
            /// Which transport substrate carries rank traffic; `None` for
            /// virtual (simulated) runs, which have no transport.
            transport: Option<RunTransport>,
        },
        /// A rank's cumulative realization progress (emitted at exchange
        /// points, not per realization, to bound overhead).
        Realizations = "realizations", Always {
            /// Realizations completed by this rank so far.
            completed: u64,
            /// Seconds this rank has spent computing realizations so far.
            compute_seconds: f64,
        },
        /// A point-to-point message left a rank.
        MessageSent = "message_sent", Always {
            /// Destination rank.
            dest: usize,
            /// Message tag (the runner uses 1 = subtotal, 2 = final,
            /// 3 = stop).
            tag: u32,
            /// Payload bytes.
            bytes: u64,
        },
        /// A point-to-point message was delivered to its receiver.
        MessageReceived = "message_received", Always {
            /// Source rank.
            source: usize,
            /// Message tag.
            tag: u32,
            /// Payload bytes.
            bytes: u64,
            /// Messages still queued for this receiver after the delivery.
            queue_depth: u64,
        },
        /// A receiver's queue depth reached a new maximum.
        QueueHighWater = "queue_high_water", Always {
            /// The new high-water mark (messages enqueued and undelivered).
            depth: u64,
        },
        /// The collector averaged all subtotals received so far
        /// (formula (5)).
        AveragingPass = "averaging_pass", Always {
            /// Total sample volume folded into the average.
            volume: u64,
            /// Wall (or virtual) seconds the pass took, including the
            /// save-point write.
            duration_seconds: f64,
            /// Largest absolute stochastic error after the pass; absent in
            /// virtual runs, which carry no estimates.
            eps_max: Option<f64>,
            /// Age of the stalest per-rank subtotal folded in; absent if no
            /// worker has reported yet.
            max_snapshot_age_seconds: Option<f64>,
        },
        /// The collector rewrote the result files.
        SavePoint = "save_point", Always {
            /// Total sample volume in the saved results.
            volume: u64,
            /// Seconds the write took.
            duration_seconds: f64,
        },
        /// One contiguous activity segment on the collector's timeline.
        CollectorSegment = "collector_segment", Always {
            /// What the collector was doing.
            activity: CollectorActivity,
            /// Segment start, seconds since run start.
            start_s: f64,
            /// Segment end, seconds since run start.
            end_s: f64,
        },
        /// The run finished. Last event of every trace.
        RunCompleted = "run_completed", Always {
            /// Realizations simulated by the run.
            realizations: u64,
            /// The paper's `T_comp`: seconds from start until the collector
            /// saved the final results.
            t_comp_seconds: f64,
            /// Subtotal messages the collector received.
            messages: u64,
            /// Payload bytes the collector received.
            bytes: u64,
        },
        /// The deterministic fault plane injected a scripted fault.
        FaultInjected = "fault_injected", Fault {
            /// Which fault fired: one of the `parmonc_faults::FaultKind`
            /// wire names, listed in the `fault_injected` entry of
            /// `docs/observability.md`.
            fault in FAULT_NAMES: String,
            /// Kind-specific detail: the crash realization for
            /// `rank_crash`, the message sequence number for message
            /// faults; absent for I/O faults.
            detail: Option<u64>,
        },
        /// The collector declared a worker dead after its liveness timeout
        /// expired. The worker's last *cumulative* subtotal stays in the
        /// average.
        WorkerLost = "worker_lost", Fault {
            /// The rank declared dead.
            worker: usize,
            /// Realizations the collector had received from it, which
            /// remain in the estimate.
            received_realizations: u64,
        },
        /// The collector reassigned a dead worker's remaining realization
        /// budget to a survivor, on the survivor's own leapfrog streams.
        WorkReassigned = "work_reassigned", Fault {
            /// The dead rank whose budget is being redistributed.
            from_worker: usize,
            /// The surviving rank taking over the work.
            to_worker: usize,
            /// How many extra realizations the survivor will simulate.
            realizations: u64,
        },
        /// A resume found the primary checkpoint corrupt (or missing) and
        /// recovered from the last-good `.bak` generation.
        CheckpointRecovered = "checkpoint_recovered", Fault {
            /// Sample volume of the recovered checkpoint.
            volume: u64,
        },
        /// One point of a functional's error-bar trajectory, emitted by the
        /// [`crate::ConvergenceTracker`] after each averaging pass.
        MetricsSnapshot = "metrics_snapshot", Always {
            /// Index of the estimated functional (row-major position in the
            /// realization matrix).
            functional: u64,
            /// Total sample volume folded into the estimate.
            n: u64,
            /// The current sample mean; absent in virtual runs, which carry
            /// no estimates.
            mean: Option<f64>,
            /// The current absolute stochastic error bar; absent in virtual
            /// runs and while `n < 2`.
            err: Option<f64>,
        },
        /// The run's largest error bar first dropped to the configured
        /// target — the principled "stop when ε ≤ target" signal. Emitted
        /// at most once per run, and only when a target is configured.
        TargetPrecisionReached = "target_precision_reached", Conditional {
            /// Total sample volume when the target was reached.
            n: u64,
            /// The largest absolute error bar at that point.
            eps_max: f64,
            /// The configured target it dropped below.
            target: f64,
        },
        /// An elastic-membership worker completed the join handshake and
        /// was leased a rank (TCP backend only).
        WorkerJoined = "worker_joined", Conditional {
            /// The leased logical rank.
            worker: usize,
            /// The peer's socket address, when known.
            addr: Option<String>,
        },
        /// An elastic-membership worker's connection closed — worker exit,
        /// crash, or run shutdown (TCP backend only).
        WorkerLeft = "worker_left", Conditional {
            /// The departing logical rank.
            worker: usize,
        },
        /// A worker that already held a lease re-attached after a broken
        /// connection or a collector restart, keeping its rank (TCP
        /// backend only).
        WorkerReconnected = "worker_reconnected", Fault {
            /// The rank that re-attached.
            worker: usize,
        },
        /// A restarted collector re-armed an interrupted run: the lease
        /// table and checkpoint were reloaded and the original session
        /// epoch re-announced (TCP backend only).
        CollectorResumed = "collector_resumed", Fault {
            /// The session epoch, in lowercase hex (a string because JSON
            /// numbers lose precision above 2^53).
            epoch: String,
            /// How many worker ranks had ever been leased before the crash.
            leases: usize,
        },
        /// A reader hit EOF in the middle of a frame — the peer died (or
        /// the fault plane tore the frame) mid-write. The partial frame is
        /// rejected, never delivered.
        TornFrame = "torn_frame", Fault {
            /// The rank whose link carried the torn frame.
            source: usize,
        },
        /// A tracing span opened (emitted only when span tracing is
        /// enabled). Span ids are run-unique: the emitting rank lives in
        /// the id's high bits, a process-local counter in the low bits.
        SpanStarted = "span_started", Conditional {
            /// The run-unique span id.
            span: u64,
            /// The enclosing span's id, if any.
            parent: Option<u64>,
            /// Which run phase the span covers.
            phase: SpanPhase,
        },
        /// A tracing span closed. Duration is `time_s` here minus `time_s`
        /// of the matching `span_started`, both on the corrected run clock.
        SpanEnded = "span_ended", Conditional {
            /// The run-unique span id being closed.
            span: u64,
            /// The phase, repeated so a trace with a lost start event is
            /// still attributable.
            phase: SpanPhase,
        },
        /// Per-link wire telemetry, emitted when a socket link (Unix-domain
        /// or TCP) is torn down. Counts cover the link's whole life,
        /// including frames that carried protocol traffic rather than
        /// envelopes.
        WireStats = "wire_stats", Conditional {
            /// The peer rank on the other end of the link.
            link: usize,
            /// Frames read off the link.
            frames_in: u64,
            /// Payload + header bytes read off the link.
            bytes_in: u64,
            /// Frames written to the link.
            frames_out: u64,
            /// Payload + header bytes written to the link.
            bytes_out: u64,
            /// Reconnect dials attempted on the link (TCP workers only).
            dials: u64,
            /// Frames dropped as exactly-once duplicates (`admit_seq`).
            dedup_dropped: u64,
            /// Events lost on this link end: what a worker's sinks failed
            /// to write or forward, or — on the collector's end — the
            /// forwarded event frames that did not decode. Surfaced so
            /// the collector's summary can account for trace truncation
            /// on the far side of the wire.
            events_dropped: u64,
        },
    }
}

/// The names of the kinds of one class, in schema order; `N` must be
/// [`count_class`] of it.
const fn kinds_of_class<const N: usize>(class: KindClass) -> [&'static str; N] {
    let mut names = [""; N];
    let (mut n, mut i) = (0, 0);
    while i < KINDS.len() {
        if KINDS[i].class as u8 == class as u8 {
            names[n] = KINDS[i].name;
            n += 1;
        }
        i += 1;
    }
    names
}

const fn count_class(class: KindClass) -> usize {
    let (mut n, mut i) = (0, 0);
    while i < KINDS.len() {
        n += (KINDS[i].class as u8 == class as u8) as usize;
        i += 1;
    }
    n
}

impl EventKind {
    /// The kinds only emitted on fault/recovery paths; a fault-free run
    /// exercises exactly `ALL_KINDS` minus these and
    /// [`Self::CONDITIONAL_KINDS`].
    pub const FAULT_KINDS: [&'static str; count_class(KindClass::Fault)] =
        kinds_of_class(KindClass::Fault);

    /// The kinds that depend on run configuration rather than run
    /// health: `target_precision_reached` only fires when a
    /// `target_abs_error` is configured (and met), the membership
    /// kinds (`worker_joined`, `worker_left`) only on the
    /// elastic-membership TCP backend, the span kinds only when span
    /// tracing is enabled, and `wire_stats` only on socket transports
    /// (Unix-domain or TCP). A fault-free run emits exactly
    /// `ALL_KINDS` minus `FAULT_KINDS` minus these.
    pub const CONDITIONAL_KINDS: [&'static str; count_class(KindClass::Conditional)] =
        kinds_of_class(KindClass::Conditional);
}

/// One monitor event: a timestamp, the emitting rank (if any), and the
/// kind-specific payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Seconds since run start — wall seconds for real runs, virtual
    /// seconds for simulated ones. For events forwarded across a
    /// clock-aligned link this is the *corrected* run-clock time.
    pub time_s: f64,
    /// The emitting rank; `None` for run-level events.
    pub rank: Option<usize>,
    /// The emitter's uncorrected local timestamp, preserved when the
    /// collector rewrote `time_s` onto the corrected run clock;
    /// `None` for events that never crossed a clock-aligned link.
    pub raw_time_s: Option<f64>,
    /// The payload.
    pub kind: EventKind,
}

impl Event {
    /// An event with no preserved raw timestamp — the common case for
    /// everything emitted on the local clock.
    #[must_use]
    pub fn at(time_s: f64, rank: Option<usize>, kind: EventKind) -> Self {
        Self {
            time_s,
            rank,
            raw_time_s: None,
            kind,
        }
    }

    /// Encodes the event as one JSONL line (no trailing newline).
    ///
    /// # Examples
    ///
    /// ```
    /// use parmonc_obs::{Event, EventKind};
    ///
    /// let line = Event::at(
    ///     1.5,
    ///     Some(2),
    ///     EventKind::Realizations { completed: 10, compute_seconds: 0.25 },
    /// )
    /// .to_json_line();
    /// assert_eq!(
    ///     line,
    ///     r#"{"v":1,"kind":"realizations","time_s":1.5,"rank":2,"completed":10,"compute_seconds":0.25}"#
    /// );
    /// ```
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        SCHEMA_VERSION.push_field("{\"v\":", &mut s);
        push_quoted(",\"kind\":", self.kind.name(), &mut s);
        self.time_s.push_field(",\"time_s\":", &mut s);
        self.raw_time_s.push_field(",\"raw_time_s\":", &mut s);
        self.rank.push_field(",\"rank\":", &mut s);
        self.kind.push_fields(&mut s);
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generated samples cover the table: one entry per kind in
    /// schema order, every row of the kind it is filed under.
    #[test]
    fn samples_cover_every_kind() {
        let samples = samples();
        let names: Vec<&str> = samples.iter().map(|kind| kind.name).collect();
        assert_eq!(names, EventKind::ALL_KINDS);
        for kind in &samples {
            assert!(kind.rows.len() >= 2, "{}: both forms", kind.name);
            assert!(kind.rows.iter().all(|row| row.name() == kind.name));
        }
    }

    #[test]
    fn fault_kinds_are_a_subset_of_all_kinds() {
        for kind in EventKind::FAULT_KINDS {
            assert!(EventKind::ALL_KINDS.contains(&kind), "{kind} missing");
        }
        for kind in EventKind::CONDITIONAL_KINDS {
            assert!(EventKind::ALL_KINDS.contains(&kind), "{kind} missing");
            assert!(
                !EventKind::FAULT_KINDS.contains(&kind),
                "{kind} double-listed"
            );
        }
    }

    #[test]
    fn metrics_snapshot_optional_fields_are_omitted() {
        let bare = Event::at(
            0.0,
            Some(0),
            EventKind::MetricsSnapshot {
                functional: 2,
                n: 100,
                mean: None,
                err: None,
            },
        )
        .to_json_line();
        assert!(bare.contains("\"functional\":2"));
        assert!(bare.contains("\"n\":100"));
        assert!(!bare.contains("mean"));
        assert!(!bare.contains("err"));

        let full = Event::at(
            0.0,
            Some(0),
            EventKind::MetricsSnapshot {
                functional: 0,
                n: 100,
                mean: Some(0.5),
                err: Some(0.01),
            },
        )
        .to_json_line();
        assert!(full.contains("\"mean\":0.5"));
        assert!(full.contains("\"err\":0.01"));
    }

    #[test]
    fn optional_fields_are_omitted() {
        let line = Event::at(
            0.0,
            None,
            EventKind::AveragingPass {
                volume: 5,
                duration_seconds: 0.1,
                eps_max: None,
                max_snapshot_age_seconds: None,
            },
        )
        .to_json_line();
        assert!(!line.contains("eps_max"));
        assert!(!line.contains("rank"));
        assert!(line.contains("\"volume\":5"));
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let line = Event::at(
            f64::NAN,
            Some(0),
            EventKind::SavePoint {
                volume: 1,
                duration_seconds: f64::INFINITY,
            },
        )
        .to_json_line();
        assert!(line.contains("\"time_s\":null"));
        assert!(line.contains("\"duration_seconds\":null"));
    }

    /// Every vocabulary's names parse back to the value that spells
    /// them — and label its metric series — and nothing else parses.
    #[test]
    fn vocabularies_round_trip() {
        macro_rules! round_trips {
            ($Vocab:ident $(, $label:literal)?) => {
                for name in $Vocab::ALL {
                    let value = $Vocab::from_str_opt(name).expect("listed name");
                    assert_eq!(value.as_str(), name);
                    $(assert!(value.series().ends_with(&format!("{{{}=\"{name}\"}}", $label)));)?
                }
                assert_eq!($Vocab::from_str_opt("daydreaming"), None);
            };
        }
        round_trips!(RunMode);
        round_trips!(RunTransport, "transport");
        round_trips!(CollectorActivity, "activity");
        round_trips!(SpanPhase, "phase");
    }

    #[test]
    fn transport_label_is_encoded_only_when_present() {
        let make = |transport| {
            Event::at(
                0.0,
                None,
                EventKind::RunStarted {
                    mode: RunMode::Threads,
                    processors: 2,
                    max_sample_volume: 10,
                    seqnum: Some(0),
                    nrow: Some(1),
                    ncol: Some(1),
                    transport,
                },
            )
        };
        let labeled = make(Some(RunTransport::Processes)).to_json_line();
        assert!(labeled.contains("\"transport\":\"processes\""));
        let bare = make(None).to_json_line();
        assert!(!bare.contains("transport"));
    }

    #[test]
    fn raw_time_is_encoded_only_when_present() {
        let kind = EventKind::SpanStarted {
            span: 9,
            parent: Some(4),
            phase: SpanPhase::SubtotalSend,
        };
        let bare = Event::at(1.0, Some(2), kind.clone()).to_json_line();
        assert!(!bare.contains("raw_time_s"));
        let aligned = Event {
            time_s: 1.25,
            rank: Some(2),
            raw_time_s: Some(6.25),
            kind,
        }
        .to_json_line();
        assert!(aligned.contains("\"raw_time_s\":6.25"));
        assert!(aligned.contains("\"parent\":4"));
        assert!(aligned.contains("\"phase\":\"subtotal_send\""));
    }
}

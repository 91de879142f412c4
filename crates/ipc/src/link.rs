//! Shared plumbing for both ends of a socket world: the inbox a rank
//! takes its next message from, per-link wire and clock state, the
//! monitor-event forwarding sink, and the delivery of a link's frames.

use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use parmonc_mpi::bytes::Bytes;
use parmonc_mpi::comm::DeliveryAccount;
use parmonc_mpi::envelope::{Envelope, Tag};
use parmonc_mpi::error::MpiError;
use parmonc_obs::{Event, EventKind, EventSink, Monitor};

use crate::frame::{
    read_frame, write_frame, ClockSync, Frame, FRAME_HEADER_LEN, TAG_IPC_EVENT, TAG_TCP_CLOCK,
    TAG_TCP_CLOCK_PROBE, TAG_TCP_CLOCK_REPLY,
};

/// Per-link wire counters, shared between the side reading the link
/// and its write path. The counters survive reconnects (they live beside
/// the lease, not the connection) and are folded into one `wire_stats`
/// event when the link finally tears down.
#[derive(Debug, Default)]
pub(crate) struct WireTelemetry {
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_out: AtomicU64,
    dials: AtomicU64,
    dedup_dropped: AtomicU64,
    events_undecoded: AtomicU64,
}

impl WireTelemetry {
    /// Counts one inbound frame of `bytes` total wire bytes.
    pub(crate) fn count_in(&self, bytes: usize) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Counts one outbound frame of `bytes` total wire bytes.
    pub(crate) fn count_out(&self, bytes: usize) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Counts one reconnect dial attempt.
    pub(crate) fn count_dial(&self) {
        self.dials.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one sequenced frame dropped as a reconnect replay.
    pub(crate) fn count_dedup_drop(&self) {
        self.dedup_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one forwarded event frame that was not a decodable
    /// event line, and so never reached the trace.
    pub(crate) fn count_undecoded_event(&self) {
        self.events_undecoded.fetch_add(1, Ordering::Relaxed);
    }

    /// The end-of-link `wire_stats` event for this side of link
    /// `link`. Its `events_dropped` is what this side lost: the
    /// `sink_dropped` events its own sinks failed to write or forward,
    /// plus the forwarded frames it could not decode.
    pub(crate) fn to_event(&self, link: usize, sink_dropped: u64) -> EventKind {
        EventKind::WireStats {
            link,
            frames_in: self.frames_in.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            dials: self.dials.load(Ordering::Relaxed),
            dedup_dropped: self.dedup_dropped.load(Ordering::Relaxed),
            events_dropped: sink_dropped + self.events_undecoded.load(Ordering::Relaxed),
        }
    }
}

/// The collector-side clock state of one worker link: the current
/// offset estimate (`collector_clock − worker_clock`, reported by the
/// worker over [`TAG_TCP_CLOCK`]) and the monotone floor of the
/// corrected timestamps already emitted for the link. Re-syncs may
/// move the offset backwards; clamping to the floor keeps each link's
/// re-emitted stream monotone across them.
#[derive(Debug, Default)]
pub(crate) struct LinkClock {
    /// `f64` bits of the current offset estimate.
    offset_bits: AtomicU64,
    /// `f64` bits of the last corrected timestamp emitted. Only the
    /// collector's one I/O thread normalizes, so a plain load/store
    /// (no CAS loop) is race-free.
    floor_bits: AtomicU64,
}

impl LinkClock {
    /// Installs a fresh offset estimate (handshake or re-sync).
    pub(crate) fn set_offset(&self, offset_s: f64) {
        self.offset_bits
            .store(offset_s.to_bits(), Ordering::Relaxed);
    }

    /// The current offset estimate.
    pub(crate) fn offset(&self) -> f64 {
        f64::from_bits(self.offset_bits.load(Ordering::Relaxed))
    }

    /// Maps a worker-local timestamp onto the collector's run clock:
    /// `raw + offset`, clamped to never run backwards on this link.
    /// Called only from the collector's I/O thread.
    pub(crate) fn normalize(&self, raw_s: f64) -> f64 {
        let floor = f64::from_bits(self.floor_bits.load(Ordering::Relaxed));
        let corrected = (raw_s + self.offset()).max(floor);
        self.floor_bits
            .store(corrected.to_bits(), Ordering::Relaxed);
        corrected
    }
}

/// The receive half shared by both transports: an mpsc inbox fed by
/// the thread reading the links, taken one message at a time in arrival
/// order, and counted out of the rank's [`DeliveryAccount`].
#[derive(Debug)]
pub(crate) struct Mailbox {
    rank: usize,
    inbox: Receiver<Envelope>,
    monitor: Monitor,
    stats: Arc<DeliveryAccount>,
}

impl Mailbox {
    pub(crate) fn new(
        rank: usize,
        inbox: Receiver<Envelope>,
        monitor: Monitor,
        stats: Arc<DeliveryAccount>,
    ) -> Self {
        Self {
            rank,
            inbox,
            monitor,
            stats,
        }
    }

    fn delivered(&self, env: Envelope) -> Envelope {
        self.stats.note_delivery(&self.monitor, self.rank, &env);
        env
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, MpiError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(env) => Ok(Some(self.delivered(env))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(MpiError::Disconnected),
        }
    }

    pub(crate) fn try_recv(&self) -> Option<Envelope> {
        self.inbox.try_recv().ok().map(|env| self.delivered(env))
    }
}

/// An [`EventSink`] that serializes every event as a
/// [`TAG_IPC_EVENT`] frame over the worker's socket, for the collector
/// to re-emit into the run's real monitor with the worker's
/// timestamps. Write failures are counted, not propagated — a
/// dying parent must not turn monitoring into a worker crash.
#[derive(Debug)]
pub(crate) struct ForwardSink<W> {
    writer: Arc<Mutex<W>>,
    rank: usize,
    wire: Arc<WireTelemetry>,
    dropped: AtomicU64,
}

impl<W: Write + Send> ForwardSink<W> {
    pub(crate) fn new(writer: Arc<Mutex<W>>, rank: usize, wire: Arc<WireTelemetry>) -> Self {
        Self {
            writer,
            rank,
            wire,
            dropped: AtomicU64::new(0),
        }
    }
}

impl<W: Write + Send> EventSink for ForwardSink<W> {
    fn record(&self, event: &Event) {
        let line = event.to_json_line();
        let failed = match self.writer.lock() {
            Ok(mut stream) => write_frame(
                &mut *stream,
                self.rank as u32,
                TAG_IPC_EVENT,
                line.as_bytes(),
            )
            .is_err(),
            Err(_) => true,
        };
        if failed {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            self.wire.count_out(FRAME_HEADER_LEN + line.len());
        }
    }

    fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Sequence-number admission for one link: returns whether a frame
/// with sequence number `seq` is *new* and should be delivered, while
/// recording it as seen. `seq == 0` marks unsequenced traffic
/// (protocol frames, forwarded events) and is always admitted;
/// otherwise a frame is admitted exactly when its number is strictly
/// greater than every number seen so far.
///
/// This is the collector-side half of exactly-once delivery over
/// reconnects: workers number each logical send once and retry a
/// failed frame under the *same* number, so a replay that in fact
/// reached the collector before the link broke is recognized and
/// dropped here. Admission is idempotent — replaying any prefix of a
/// link's traffic, in any interleaving of duplicates, admits each
/// number at most once.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::AtomicU64;
/// let last = AtomicU64::new(0);
/// assert!(parmonc_ipc::admit_seq(&last, 1));
/// assert!(!parmonc_ipc::admit_seq(&last, 1)); // duplicate replay
/// assert!(parmonc_ipc::admit_seq(&last, 2));
/// assert!(parmonc_ipc::admit_seq(&last, 0)); // unsequenced: always
/// ```
pub fn admit_seq(last_seq: &AtomicU64, seq: u64) -> bool {
    seq == 0 || last_seq.fetch_max(seq, Ordering::AcqRel) < seq
}

/// Everything the delivery of one link's frames needs besides the
/// inbox: the monitor it re-emits into, its identity, the inbox depth
/// and wire counters, and the planes only one side runs (source
/// vetting, dedup, clock alignment).
pub(crate) struct LinkHooks {
    /// The run monitor forwarded events are re-emitted into.
    pub monitor: Monitor,
    /// The rank whose inbox the link feeds (attribution for
    /// queue-depth and torn-frame events).
    pub local_rank: usize,
    /// The delivery account of the inbox.
    pub stats: Arc<DeliveryAccount>,
    /// Frames whose source field names any other rank are dropped — a
    /// connection speaks for exactly the rank it was leased, so a
    /// misbehaving peer cannot inject envelopes attributed to someone
    /// else (worker-side readers expect the collector, rank 0).
    pub expect_source: Option<u32>,
    /// Sequenced frames already admitted once (per [`admit_seq`]) are
    /// dropped — the exactly-once guarantee under reconnect replay.
    pub dedup: Option<Arc<AtomicU64>>,
    /// Per-link wire counters (frames/bytes in, dedup drops).
    pub wire: Arc<WireTelemetry>,
    /// Collector-side clock alignment: [`TAG_TCP_CLOCK`] frames update
    /// the offset, and forwarded events are re-emitted on the
    /// corrected run clock with the raw stamp preserved.
    pub clock: Option<Arc<LinkClock>>,
    /// Answers the clock frames that need the link's *writer*: a
    /// [`TAG_TCP_CLOCK_PROBE`] (collector side replies with the
    /// receipt/reply timestamps) or a [`TAG_TCP_CLOCK_REPLY`] (worker
    /// side closes the estimate and reports it back).
    pub clock_responder: Option<FrameHook>,
}

/// A callback handed one decoded [`Frame`]; see
/// [`LinkHooks::clock_responder`].
pub type FrameHook = Box<dyn Fn(&Frame) + Send>;

impl std::fmt::Debug for LinkHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkHooks")
            .field("local_rank", &self.local_rank)
            .field("expect_source", &self.expect_source)
            .finish_non_exhaustive()
    }
}

impl LinkHooks {
    /// Delivers one frame that arrived on the link. [`TAG_IPC_EVENT`]
    /// frames are decoded and re-emitted into the monitor with the
    /// peer's timestamp (corrected onto the run clock when the link is
    /// clock-aligned) instead of being enqueued; clock frames are
    /// handled per the hooks; every other frame passes source vetting
    /// and dedup into the inbox. Returns `false` once the receiving
    /// side has dropped its inbox.
    pub(crate) fn deliver(&self, frame: Frame, tx: &Sender<Envelope>) -> bool {
        self.wire.count_in(FRAME_HEADER_LEN + frame.payload.len());
        if self.expect_source.is_some_and(|s| frame.source != s) {
            return true;
        }
        if frame.tag == TAG_IPC_EVENT {
            let decoded = std::str::from_utf8(&frame.payload)
                .ok()
                .and_then(|text| parmonc_obs::schema::parse_line(text).ok());
            match (decoded, &self.clock) {
                (Some(event), Some(clock)) => self.monitor.emit_aligned(
                    clock.normalize(event.time_s),
                    Some(event.time_s),
                    event.rank,
                    event.kind,
                ),
                (Some(event), None) => {
                    self.monitor.emit_at(event.time_s, event.rank, event.kind);
                }
                // Far-side trace loss must show: the link's
                // `wire_stats` carries the count.
                (None, _) => self.wire.count_undecoded_event(),
            }
            return true;
        }
        if frame.tag == TAG_TCP_CLOCK {
            if let (Some(clock), Some(sync)) = (&self.clock, ClockSync::decode(&frame.payload)) {
                clock.set_offset(sync.offset_s);
            }
            return true;
        }
        if frame.tag == TAG_TCP_CLOCK_PROBE || frame.tag == TAG_TCP_CLOCK_REPLY {
            if let Some(respond) = &self.clock_responder {
                respond(&frame);
            }
            return true;
        }
        if let Some(last) = &self.dedup {
            if !admit_seq(last, frame.seq) {
                // A replay of a frame that already made it through
                // before the link broke.
                self.wire.count_dedup_drop();
                return true;
            }
        }
        let depth = self.stats.enqueue();
        self.stats.note_depth(&self.monitor, self.local_rank, depth);
        tx.send(Envelope {
            source: frame.source as usize,
            tag: Tag(frame.tag),
            payload: Bytes::from(frame.payload),
        })
        .is_ok()
    }

    /// Reports the frame the link died inside: a real peer crash
    /// mid-write, or a scripted `tear_frame`. The partial frame was
    /// never delivered.
    pub(crate) fn torn(&self) {
        self.monitor.emit(
            Some(self.local_rank),
            EventKind::TornFrame {
                source: self.expect_source.unwrap_or_default() as usize,
            },
        );
    }
}

/// A worker's reader thread: delivers the frames of one blocking
/// stream ([`LinkHooks::deliver`]) until EOF, an error, or a dropped
/// inbox. A mid-frame EOF is reported as [`LinkHooks::torn`].
pub(crate) fn pump_frames(stream: impl Read, tx: Sender<Envelope>, hooks: LinkHooks) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => {
                if !hooks.deliver(frame, &tx) {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    hooks.torn();
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::splitmix64;

    /// A forwarded event frame that is not UTF-8, or not a line the
    /// schema decodes, costs exactly itself: its neighbours reach the
    /// trace, and the link's `wire_stats` counts the loss.
    #[test]
    fn undecodable_forwarded_events_are_counted_not_silently_dropped() {
        let good = |completed| {
            let kind = EventKind::Realizations {
                completed,
                compute_seconds: 0.5,
            };
            Event::at(1.0, Some(3), kind).to_json_line().into_bytes()
        };
        let mut stream = Vec::new();
        for payload in [
            good(10),
            vec![0xff, 0xfe],
            br#"{"v":2,"kind":"mystery","time_s":0}"#.to_vec(),
            good(20),
        ] {
            write_frame(&mut stream, 3, TAG_IPC_EVENT, &payload).unwrap();
        }

        let sink = Arc::new(parmonc_obs::MemorySink::new());
        let wire = Arc::new(WireTelemetry::default());
        let (tx, _rx) = std::sync::mpsc::channel();
        pump_frames(
            stream.as_slice(),
            tx,
            LinkHooks {
                monitor: Monitor::new(vec![Box::new(Arc::clone(&sink))]),
                local_rank: 0,
                stats: Arc::default(),
                expect_source: Some(3),
                dedup: None,
                wire: Arc::clone(&wire),
                clock: None,
                clock_responder: None,
            },
        );

        let completed: Vec<u64> = sink
            .snapshot()
            .iter()
            .filter_map(|event| match event.kind {
                EventKind::Realizations { completed, .. } => Some(completed),
                _ => None,
            })
            .collect();
        assert_eq!(completed, [10, 20]);
        // The collector end has no sinks of its own to lose events in…
        let EventKind::WireStats {
            events_dropped,
            frames_in,
            ..
        } = wire.to_event(3, 0)
        else {
            unreachable!("to_event builds wire_stats");
        };
        assert_eq!((frames_in, events_dropped), (4, 2));
        // …and a worker end adds what its sinks dropped.
        assert!(matches!(
            wire.to_event(3, 5),
            EventKind::WireStats {
                events_dropped: 7,
                ..
            }
        ));
    }

    /// Property: over *any* seeded schedule of reconnect replays and
    /// duplications, [`admit_seq`] admits exactly the strictly-rising
    /// running maxima of the delivered sequence — each number at most
    /// once, in increasing order. A collector that *replaces* its
    /// per-rank state with every admitted cumulative frame therefore
    /// always ends at the latest state, bit-identical to a
    /// duplicate-free delivery; the replay schedule cannot perturb a
    /// single estimate. 256 seeds, each simulating a link that keeps
    /// breaking and replaying from arbitrary earlier frames (harsher
    /// than the real transport, which only retries the failed frame
    /// onward).
    #[test]
    fn admit_seq_is_idempotent_under_seeded_replay_schedules() {
        const TOP: u64 = 64;
        for seed in 0..256u64 {
            // Generate the wire as seen by the collector: the worker
            // climbs 1..=TOP, but a seeded 1-in-8 "break" rewinds it
            // to some earlier frame, duplicating the range in between.
            let mut wire = Vec::new();
            let mut next = 1u64;
            let mut tick = 0u64;
            while next <= TOP {
                wire.push(next);
                let h = splitmix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(tick));
                tick += 1;
                assert!(tick < 100_000, "seed {seed}: schedule never converged");
                if h.is_multiple_of(8) {
                    next = 1 + (h / 8) % next;
                } else {
                    next += 1;
                }
            }

            // What dedup must admit: the strictly-rising running maxima.
            let mut expected = Vec::new();
            let mut hi = 0u64;
            for &s in &wire {
                if s > hi {
                    hi = s;
                    expected.push(s);
                }
            }

            let last = AtomicU64::new(0);
            let mut admitted = Vec::new();
            let mut latest = 0u64;
            for &seq in &wire {
                if admit_seq(&last, seq) {
                    admitted.push(seq);
                    // The collector's absorb: replace, never sum.
                    latest = seq;
                }
            }
            assert_eq!(admitted, expected, "seed {seed}");
            assert!(
                admitted.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: replay admitted out of order: {admitted:?}"
            );
            assert_eq!(
                latest, TOP,
                "seed {seed}: final state must be the newest frame"
            );
            // Unsequenced frames (seq 0) bypass dedup entirely.
            assert!(admit_seq(&last, 0) && admit_seq(&last, 0));
        }
    }
}

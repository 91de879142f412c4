//! The [`Monitor`] handle and the event sinks behind it.
//!
//! A `Monitor` is what instrumented code holds: cloning is an
//! `Option<Arc>` copy, and the disabled monitor ([`Monitor::disabled`])
//! reduces every emission to one `is_some` branch — the "zero-cost
//! no-op default" the observability layer promises. Enabled monitors
//! stamp events with wall time since the monitor's creation and fan
//! them out to every attached [`EventSink`].

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Event, EventKind};

/// Receives events from a [`Monitor`]. Implementations must be cheap
/// and non-blocking-ish: emitters call [`EventSink::record`] from hot
/// loops (though only at exchange granularity).
pub trait EventSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &Event);

    /// Flushes buffered output (called at end of run).
    fn flush(&self) {}

    /// How many events this sink has lost so far (failed writes, full
    /// disks). The default of 0 suits in-memory sinks that cannot lose
    /// events.
    fn dropped_events(&self) -> u64 {
        0
    }
}

impl<S: EventSink + ?Sized> EventSink for Arc<S> {
    fn record(&self, event: &Event) {
        (**self).record(event);
    }

    fn flush(&self) {
        (**self).flush();
    }

    fn dropped_events(&self) -> u64 {
        (**self).dropped_events()
    }
}

struct Inner {
    epoch: Instant,
    /// A constant added to every clock reading — 0 in production.
    /// Tests and the CI skew job use it to give a process a
    /// deterministically wrong clock, so the cross-host alignment
    /// plane has a known offset to estimate and cancel.
    skew_s: f64,
    sinks: Vec<Box<dyn EventSink>>,
}

impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inner")
            .field("epoch", &self.epoch)
            .field("skew_s", &self.skew_s)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// The monitor handle instrumented code emits through.
///
/// # Examples
///
/// ```
/// use parmonc_obs::{EventKind, MemorySink, Monitor};
/// use std::sync::Arc;
///
/// let sink = Arc::new(MemorySink::new());
/// let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
/// monitor.emit(Some(0), EventKind::QueueHighWater { depth: 3 });
/// assert_eq!(sink.snapshot().len(), 1);
///
/// // The disabled monitor drops everything at the cost of one branch.
/// let off = Monitor::disabled();
/// assert!(!off.is_enabled());
/// off.emit(Some(0), EventKind::QueueHighWater { depth: 9 });
/// ```
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    inner: Option<Arc<Inner>>,
}

impl Monitor {
    /// The no-op monitor: every emission is a single branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A monitor fanning out to `sinks`, stamping events with seconds
    /// since this call.
    #[must_use]
    pub fn new(sinks: Vec<Box<dyn EventSink>>) -> Self {
        Self::new_skewed(sinks, 0.0)
    }

    /// A monitor whose clock reads `skew_s` seconds ahead of reality —
    /// the deterministic skew-injection hook for clock-alignment tests.
    /// Production callers use [`Monitor::new`] (skew 0).
    #[must_use]
    pub fn new_skewed(sinks: Vec<Box<dyn EventSink>>, skew_s: f64) -> Self {
        Self::new_skewed_from(Instant::now(), sinks, skew_s)
    }

    /// A skewed monitor whose clock starts at `epoch` instead of the
    /// moment of this call. Lets a transport take clock samples
    /// *before* its monitor exists — the TCP join handshake exchanges
    /// timestamps, then builds the forwarding monitor on the very same
    /// epoch so handshake samples and event stamps share one clock.
    #[must_use]
    pub fn new_skewed_from(epoch: Instant, sinks: Vec<Box<dyn EventSink>>, skew_s: f64) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch,
                skew_s,
                sinks,
            })),
        }
    }

    /// Whether events are actually recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Seconds since the monitor was created (0 when disabled),
    /// including any injected skew — the same clock event timestamps
    /// and handshake clock probes read.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.epoch.elapsed().as_secs_f64() + i.skew_s)
    }

    /// Emits an event stamped with the current elapsed time.
    pub fn emit(&self, rank: Option<usize>, kind: EventKind) {
        if let Some(inner) = &self.inner {
            let event = Event {
                time_s: inner.epoch.elapsed().as_secs_f64() + inner.skew_s,
                rank,
                raw_time_s: None,
                kind,
            };
            for sink in &inner.sinks {
                sink.record(&event);
            }
        }
    }

    /// Emits an event with an explicit timestamp — used to re-emit
    /// events that already carry one (a forwarded or replayed event
    /// keeps the time it was stamped with).
    pub fn emit_at(&self, time_s: f64, rank: Option<usize>, kind: EventKind) {
        self.emit_aligned(time_s, None, rank, kind);
    }

    /// Emits an event with an explicit *corrected* timestamp plus the
    /// emitter's preserved uncorrected one — the re-emission path for
    /// events forwarded over a clock-aligned link.
    pub fn emit_aligned(
        &self,
        time_s: f64,
        raw_time_s: Option<f64>,
        rank: Option<usize>,
        kind: EventKind,
    ) {
        if let Some(inner) = &self.inner {
            let event = Event {
                time_s,
                rank,
                raw_time_s,
                kind,
            };
            for sink in &inner.sinks {
                sink.record(&event);
            }
        }
    }

    /// Flushes every sink and returns the total number of events the
    /// sinks have dropped (failed writes, full disks) — 0 for a clean
    /// trace. Callers that surface trace health (the runner's summary)
    /// use the return value; fire-and-forget callers may ignore it.
    pub fn flush(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let mut dropped = 0;
        for sink in &inner.sinks {
            sink.flush();
            dropped += sink.dropped_events();
        }
        dropped
    }

    /// The total number of events the attached sinks have dropped so
    /// far, without forcing a flush.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner.sinks.iter().map(|s| s.dropped_events()).sum()
        })
    }
}

/// The buffered file plus the count of lines accepted since the last
/// successful flush — the lines still at risk if that flush fails.
struct JsonlWriter {
    buf: BufWriter<File>,
    pending: u64,
}

impl JsonlWriter {
    /// Flushes the buffer, converting a failure into the number of
    /// buffered lines lost.
    fn flush_counting(&mut self) -> u64 {
        let lost = match self.buf.flush() {
            Ok(()) => 0,
            Err(_) => self.pending,
        };
        self.pending = 0;
        lost
    }
}

/// Appends events as JSONL to a file — the sink behind
/// `parmonc_data/monitor/run_metrics.jsonl`.
///
/// Write failures (full disk, revoked mount) do not panic the hot
/// path; instead every event that could not be durably written is
/// counted, and [`Monitor::flush`] surfaces the total so a truncated
/// trace never masquerades as a clean one.
pub struct JsonlSink {
    out: Mutex<JsonlWriter>,
    dropped: AtomicU64,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates (truncating) the metrics file, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(Self {
            out: Mutex::new(JsonlWriter {
                buf: BufWriter::new(File::create(path)?),
                pending: 0,
            }),
            dropped: AtomicU64::new(0),
        })
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = event.to_json_line();
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        let write = out
            .buf
            .write_all(line.as_bytes())
            .and_then(|()| out.buf.write_all(b"\n"));
        match write {
            Ok(()) => out.pending += 1,
            // The write failed while spilling the buffer: this event is
            // gone (a partial line at worst, which the strict validator
            // flags).
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn flush(&self) {
        let lost = self
            .out
            .lock()
            .expect("jsonl sink poisoned")
            .flush_counting();
        if lost > 0 {
            self.dropped.fetch_add(lost, Ordering::Relaxed);
        }
    }

    fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush_counting();
        }
    }
}

/// Collects events in memory — for tests and for end-of-run summaries.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_monitor_is_inert() {
        let m = Monitor::disabled();
        assert!(!m.is_enabled());
        m.emit(None, EventKind::QueueHighWater { depth: 1 });
        m.emit_at(5.0, Some(3), EventKind::QueueHighWater { depth: 2 });
        assert_eq!(m.flush(), 0);
        assert_eq!(m.dropped_events(), 0);
        assert_eq!(m.elapsed_s(), 0.0);
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = Arc::new(MemorySink::new());
        let m = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        for depth in 1..=5u64 {
            m.emit(Some(0), EventKind::QueueHighWater { depth });
        }
        let events = sink.snapshot();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(
                e.kind,
                EventKind::QueueHighWater {
                    depth: i as u64 + 1
                }
            );
            assert_eq!(e.rank, Some(0));
        }
        // Wall timestamps are monotone.
        for pair in events.windows(2) {
            assert!(pair[1].time_s >= pair[0].time_s);
        }
    }

    #[test]
    fn emit_at_uses_explicit_time() {
        let sink = Arc::new(MemorySink::new());
        let m = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        m.emit_at(42.5, None, EventKind::QueueHighWater { depth: 1 });
        assert_eq!(sink.snapshot()[0].time_s, 42.5);
        assert_eq!(sink.snapshot()[0].raw_time_s, None);
    }

    #[test]
    fn emit_aligned_preserves_the_raw_timestamp() {
        let sink = Arc::new(MemorySink::new());
        let m = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        m.emit_aligned(
            1.5,
            Some(6.5),
            Some(2),
            EventKind::QueueHighWater { depth: 1 },
        );
        let events = sink.snapshot();
        assert_eq!(events[0].time_s, 1.5);
        assert_eq!(events[0].raw_time_s, Some(6.5));
    }

    #[test]
    fn skewed_monitor_reads_ahead_by_the_skew() {
        let sink = Arc::new(MemorySink::new());
        let m = Monitor::new_skewed(vec![Box::new(Arc::clone(&sink))], 100.0);
        m.emit(Some(0), EventKind::QueueHighWater { depth: 1 });
        let t = sink.snapshot()[0].time_s;
        assert!((100.0..101.0).contains(&t), "skewed stamp {t}");
        assert!(m.elapsed_s() >= 100.0);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let dir = std::env::temp_dir().join(format!("parmonc-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("monitor/run_metrics.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        let m = Monitor::new(vec![Box::new(sink)]);
        m.emit(Some(1), EventKind::QueueHighWater { depth: 7 });
        assert_eq!(m.flush(), 0, "a healthy trace drops nothing");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"kind\":\"queue_high_water\""));
        assert!(text.contains("\"depth\":7"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A full disk must be visible as a dropped-event count, not a
    /// silently truncated trace. `/dev/full` accepts opens but fails
    /// every write with `ENOSPC`.
    #[test]
    #[cfg(target_os = "linux")]
    fn full_disk_surfaces_dropped_events() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let sink = JsonlSink::create("/dev/full").unwrap();
        let m = Monitor::new(vec![Box::new(sink)]);
        for depth in 0..5 {
            m.emit(Some(0), EventKind::QueueHighWater { depth });
        }
        // Whether events died in `record` (buffer spill) or at flush,
        // every one of the 5 must be accounted for.
        assert_eq!(m.flush(), 5);
        assert_eq!(m.dropped_events(), 5);
    }

    #[test]
    fn clone_shares_the_epoch_and_sinks() {
        let sink = Arc::new(MemorySink::new());
        let m = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let m2 = m.clone();
        m2.emit(None, EventKind::QueueHighWater { depth: 1 });
        m.emit(None, EventKind::QueueHighWater { depth: 2 });
        assert_eq!(sink.len(), 2);
    }
}

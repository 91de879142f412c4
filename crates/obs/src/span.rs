//! Causal tracing spans over the event plane.
//!
//! A span is a pair of `span_started` / `span_ended` events wrapping
//! one of the run phases in [`SpanPhase`]. Span ids are run-unique
//! without coordination: the emitting rank lives in the high bits and
//! a process-local counter in the low bits, so spans from different
//! hosts never collide once their events merge on the collector's
//! corrected run clock.
//!
//! Span tracing is opt-in on top of the monitor (the vocabulary of a
//! plain monitored run is unchanged), and the disabled emitter costs
//! one branch per call — the same zero-cost discipline as
//! [`Monitor::disabled`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::{EventKind, SpanPhase};
use crate::monitor::Monitor;

/// Process-local span counter; combined with the rank bits it makes
/// ids unique across every process of a run.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// How far the rank is shifted into a span id's high bits. 2^40 spans
/// per process is unreachable in practice (a year-long run emitting a
/// million spans per second), and 24 bits of rank is far beyond any
/// leased membership.
const RANK_SHIFT: u32 = 40;

/// Allocates a run-unique span id for `rank`.
#[must_use]
pub(crate) fn fresh_span_id(rank: usize) -> u64 {
    let n = NEXT_SPAN.fetch_add(1, Ordering::Relaxed) & ((1 << RANK_SHIFT) - 1);
    ((rank as u64 + 1) << RANK_SHIFT) | n
}

/// Emits tracing spans for one rank through a [`Monitor`].
///
/// # Examples
///
/// ```
/// use parmonc_obs::{MemorySink, Monitor, SpanEmitter, SpanPhase};
/// use std::sync::Arc;
///
/// let sink = Arc::new(MemorySink::new());
/// let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
/// let spans = SpanEmitter::new(&monitor, 1, true);
///
/// let batch = spans.start(SpanPhase::RealizationBatch, None);
/// let send = spans.start(SpanPhase::SubtotalSend, Some(batch));
/// spans.end(send, SpanPhase::SubtotalSend);
/// spans.end(batch, SpanPhase::RealizationBatch);
/// assert_eq!(sink.snapshot().len(), 4);
///
/// // Disabled: no ids allocated, nothing emitted.
/// let off = SpanEmitter::new(&monitor, 1, false);
/// assert_eq!(off.start(SpanPhase::Checkpoint, None), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SpanEmitter {
    monitor: Monitor,
    rank: usize,
    enabled: bool,
}

impl SpanEmitter {
    /// An emitter for `rank`. `enabled` gates the whole plane: span
    /// tracing is opt-in even on monitored runs, so traces keep their
    /// pre-span vocabulary unless asked.
    #[must_use]
    pub fn new(monitor: &Monitor, rank: usize, enabled: bool) -> Self {
        Self {
            monitor: monitor.clone(),
            rank,
            enabled: enabled && monitor.is_enabled(),
        }
    }

    /// A permanently disabled emitter.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            monitor: Monitor::disabled(),
            rank: 0,
            enabled: false,
        }
    }

    /// Whether spans are actually emitted.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span and returns its id (0 when disabled — `end` treats
    /// 0 as "never started", so callers need no branches of their own).
    pub fn start(&self, phase: SpanPhase, parent: Option<u64>) -> u64 {
        if !self.enabled {
            return 0;
        }
        let span = fresh_span_id(self.rank);
        self.monitor.emit(
            Some(self.rank),
            EventKind::SpanStarted {
                span,
                parent: parent.filter(|p| *p != 0),
                phase,
            },
        );
        span
    }

    /// Closes a span opened by [`SpanEmitter::start`]; a 0 id (from a
    /// disabled emitter) is ignored.
    pub fn end(&self, span: u64, phase: SpanPhase) {
        if self.enabled && span != 0 {
            self.monitor
                .emit(Some(self.rank), EventKind::SpanEnded { span, phase });
        }
    }

    /// Emits a complete span retroactively with explicit start/end
    /// timestamps (same clock as [`Monitor::elapsed_s`]). For phases
    /// measured while holding a lock the forwarding sink itself needs
    /// — the TCP reconnect path times itself under the writer lock and
    /// reports the span only once the lock is free — and for phases
    /// known to have happened only once they are over, like rank 0's
    /// drain of an inbox that turned out not to be empty. Returns the
    /// span id (0 when disabled).
    pub fn closed_at(&self, phase: SpanPhase, start_s: f64, end_s: f64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let span = fresh_span_id(self.rank);
        self.monitor.emit_aligned(
            start_s,
            None,
            Some(self.rank),
            EventKind::SpanStarted {
                span,
                parent: None,
                phase,
            },
        );
        self.monitor.emit_aligned(
            end_s,
            None,
            Some(self.rank),
            EventKind::SpanEnded { span, phase },
        );
        span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MemorySink;
    use std::sync::Arc;

    #[test]
    fn ids_are_unique_and_rank_tagged() {
        let monitor = Monitor::new(vec![Box::new(Arc::new(MemorySink::new()))]);
        let a = SpanEmitter::new(&monitor, 1, true);
        let b = SpanEmitter::new(&monitor, 2, true);
        let ids: Vec<u64> = (0..8)
            .map(|i| if i % 2 == 0 { &a } else { &b }.start(SpanPhase::RealizationBatch, None))
            .collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "span ids collided: {ids:?}");
        for (i, id) in ids.iter().enumerate() {
            let rank = (id >> RANK_SHIFT) - 1;
            assert_eq!(rank, if i % 2 == 0 { 1 } else { 2 });
        }
    }

    #[test]
    fn parent_links_survive_the_wire() {
        let sink = Arc::new(MemorySink::new());
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let spans = SpanEmitter::new(&monitor, 3, true);
        let outer = spans.start(SpanPhase::RealizationBatch, None);
        let inner = spans.start(SpanPhase::SubtotalSend, Some(outer));
        spans.end(inner, SpanPhase::SubtotalSend);
        spans.end(outer, SpanPhase::RealizationBatch);
        let events = sink.snapshot();
        assert_eq!(events.len(), 4);
        match &events[1].kind {
            EventKind::SpanStarted { span, parent, .. } => {
                assert_eq!(*span, inner);
                assert_eq!(*parent, Some(outer));
            }
            other => panic!("expected span_started, got {other:?}"),
        }
        for event in &events {
            crate::schema::validate_line(&event.to_json_line()).unwrap();
        }
    }

    #[test]
    fn disabled_emitter_allocates_nothing() {
        let sink = Arc::new(MemorySink::new());
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let spans = SpanEmitter::new(&monitor, 1, false);
        let id = spans.start(SpanPhase::Checkpoint, None);
        assert_eq!(id, 0);
        spans.end(id, SpanPhase::Checkpoint);
        assert!(sink.snapshot().is_empty());
        assert!(!SpanEmitter::disabled().is_enabled());
        // A monitored-off emitter is also inert even when asked for spans.
        assert!(!SpanEmitter::new(&Monitor::disabled(), 0, true).is_enabled());
    }
}

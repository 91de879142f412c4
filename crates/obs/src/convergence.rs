//! Error-bar convergence tracking: the `(n, mean, err)` trajectory of
//! every estimated functional, sampled at each subtotal merge.
//!
//! The PARMONC workflow's headline quantity — the sample mean with its
//! stochastic error bar — is recomputed by the collector at every
//! averaging pass, but the event plane only recorded the scalar
//! `eps_max`. [`ConvergenceTracker`] observes the full per-functional
//! picture *after* the estimate is computed and emits it as the
//! schema-validated `metrics_snapshot` / `target_precision_reached`
//! event pair; the trace is the trajectory's record, and the run
//! summary folds it like any other event. It is strictly read-only
//! with respect to estimation: the caller hands it already-computed
//! values, so final means and error bars are bit-identical with the
//! tracker attached or not.

use crate::event::EventKind;
use crate::monitor::Monitor;

/// Emits the convergence trajectory as metrics-plane events. See the
/// module docs for the no-perturbation contract.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use parmonc_obs::{ConvergenceTracker, EventKind, MemorySink, Monitor};
///
/// let sink = Arc::new(MemorySink::new());
/// let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
/// let mut tracker = ConvergenceTracker::with_target(Some(0.05));
/// tracker.observe(&monitor, Some(0), 100, &[0.5], &[0.01], 0.01);
/// assert!(sink.snapshot().iter().any(|e| matches!(
///     e.kind,
///     EventKind::TargetPrecisionReached { n: 100, .. }
/// )));
/// ```
#[derive(Debug, Clone)]
pub struct ConvergenceTracker {
    target: Option<f64>,
    reached: bool,
}

impl ConvergenceTracker {
    /// How many functionals are tracked; functionals beyond this emit
    /// no per-functional snapshots (runs estimating huge realization
    /// matrices would otherwise flood the trace).
    pub const MAX_TRACKED: usize = 8;

    /// A tracker declaring `target_precision_reached` the first time
    /// the observed `eps_max` drops to `target` or below (with at
    /// least two samples, matching the runner's stop rule). With no
    /// target it emits `metrics_snapshot` events only.
    #[must_use]
    pub fn with_target(target: Option<f64>) -> Self {
        Self {
            target,
            reached: false,
        }
    }

    /// Observes one estimate, the one after a subtotal merge.
    ///
    /// `means` and `errs` are the already-computed per-functional
    /// sample means and absolute error bars (row-major); `eps_max` is
    /// the largest error bar. Emits one `metrics_snapshot` per tracked
    /// functional and, at most once, `target_precision_reached`.
    pub fn observe(
        &mut self,
        monitor: &Monitor,
        rank: Option<usize>,
        n: u64,
        means: &[f64],
        errs: &[f64],
        eps_max: f64,
    ) {
        let emit = |kind| monitor.emit(rank, kind);
        for (j, &mean) in means.iter().enumerate().take(Self::MAX_TRACKED) {
            let err = errs.get(j).copied().unwrap_or(f64::INFINITY);
            emit(EventKind::MetricsSnapshot {
                functional: j as u64,
                n,
                mean: Some(mean),
                err: Some(err),
            });
        }
        if let Some(target) = self.target {
            if !self.reached && n >= 2 && eps_max <= target {
                self.reached = true;
                emit(EventKind::TargetPrecisionReached { n, eps_max, target });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MemorySink;
    use std::sync::Arc;

    /// A monitor recording into a fresh memory sink.
    fn recorded() -> (Monitor, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (Monitor::new(vec![Box::new(Arc::clone(&sink))]), sink)
    }

    /// The `n` of every `target_precision_reached` event recorded.
    fn declared(sink: &MemorySink) -> Vec<u64> {
        sink.snapshot()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TargetPrecisionReached { n, .. } => Some(n),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn emits_snapshots_and_target_event_once() {
        let (monitor, sink) = recorded();
        let mut tracker = ConvergenceTracker::with_target(Some(0.05));

        tracker.observe(&monitor, Some(0), 10, &[0.5, 0.6], &[0.2, 0.3], 0.3);
        assert_eq!(declared(&sink), []);
        tracker.observe(&monitor, Some(0), 100, &[0.51, 0.59], &[0.04, 0.05], 0.05);
        assert_eq!(declared(&sink), [100]);
        // Already reached: no second target event.
        tracker.observe(&monitor, Some(0), 200, &[0.5, 0.6], &[0.01, 0.02], 0.02);
        assert_eq!(declared(&sink), [100]);

        let events = sink.snapshot();
        let snapshots = events
            .iter()
            .filter(|e| e.kind.name() == "metrics_snapshot")
            .count();
        assert_eq!(snapshots, 6, "2 functionals x 3 observations");
        assert!(events.iter().any(|e| e.kind
            == EventKind::MetricsSnapshot {
                functional: 1,
                n: 100,
                mean: Some(0.59),
                err: Some(0.05),
            }));
    }

    #[test]
    fn no_target_never_declares() {
        let (monitor, sink) = recorded();
        let mut tracker = ConvergenceTracker::with_target(None);
        tracker.observe(&monitor, None, 1000, &[0.5], &[0.0001], 0.0001);
        assert_eq!(declared(&sink), []);
    }

    #[test]
    fn needs_two_samples_before_declaring() {
        let (monitor, sink) = recorded();
        let mut tracker = ConvergenceTracker::with_target(Some(1.0));
        tracker.observe(&monitor, None, 1, &[0.5], &[0.0], 0.0);
        assert_eq!(declared(&sink), [], "n = 1 cannot satisfy the stop rule");
        tracker.observe(&monitor, None, 2, &[0.5], &[0.0], 0.0);
        assert_eq!(declared(&sink), [2]);
    }

    #[test]
    fn tracking_cap_limits_functionals() {
        let (monitor, sink) = recorded();
        let mut tracker = ConvergenceTracker::with_target(None);
        let means = [0.5; ConvergenceTracker::MAX_TRACKED + 2];
        tracker.observe(&monitor, None, 50, &means, &means, 0.5);
        assert_eq!(sink.snapshot().len(), ConvergenceTracker::MAX_TRACKED);
    }
}

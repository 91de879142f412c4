//! Unified run-monitor observability for PARMONC.
//!
//! Every engine in the workspace — the runner in `parmonc` (core) on
//! each of its transports, and the in-process message substrate in
//! `parmonc-mpi` — reports progress through the same small
//! vocabulary of events defined here. A monitored run writes one JSON
//! object per event to `parmonc_data/monitor/run_metrics.jsonl` and
//! prints an end-of-run summary table; the schema is documented in
//! `docs/observability.md` and machine-checked by [`schema::validate_line`].
//!
//! The layer is opt-in and zero-cost when off: instrumented code holds
//! a [`Monitor`], and the disabled monitor ([`Monitor::disabled`], also
//! the `Default`) reduces every emission to a single branch.
//!
//! The event stream has one fold, [`MonitorSummary`]: the end-of-run
//! table and the **metrics plane** — counters, gauges and mergeable
//! log-bucketed histograms ([`LogHistogram`]), derived entirely from
//! the events (no extra instrumentation call sites) — both render from
//! it. A monitored run folds live through a [`SummarySink`], which
//! also rewrites the Prometheus text at
//! `parmonc_data/monitor/metrics.prom`; `parmonc-trace` folds a jsonl
//! trace the same way, read back with [`schema::parse_line`].
//! [`ConvergenceTracker`] emits the estimate trajectory the fold
//! reports.
//!
//! # Example
//!
//! ```
//! use parmonc_obs::{EventKind, Monitor, RunMode, RunTransport, SummarySink};
//! use std::sync::Arc;
//!
//! // The summary folds events as they arrive: a monitored run attaches
//! // it next to the jsonl sink and holds no trace.
//! let fold = Arc::new(SummarySink::new(None));
//! let monitor = Monitor::new(vec![Box::new(Arc::clone(&fold))]);
//!
//! monitor.emit(None, EventKind::RunStarted {
//!     mode: RunMode::Threads,
//!     processors: 4,
//!     max_sample_volume: 1_000,
//!     seqnum: Some(1),
//!     nrow: Some(1),
//!     ncol: Some(1),
//!     transport: Some(RunTransport::Threads),
//! });
//! monitor.emit(Some(2), EventKind::Realizations { completed: 250, compute_seconds: 0.8 });
//!
//! let summary = fold.lock();
//! assert_eq!(summary.events, 2);
//! assert_eq!(summary.processors, Some(4));
//! assert_eq!(summary.ranks[&2].realizations, 250);
//!
//! // Every event round-trips through the documented JSONL schema.
//! let event = parmonc_obs::Event::at(0.5, Some(0), EventKind::QueueHighWater { depth: 3 });
//! let line = event.to_json_line();
//! assert_eq!(parmonc_obs::schema::parse_line(&line), Ok(event));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod convergence;
mod event;
mod metrics;
mod monitor;
pub mod schema;
mod span;
mod summary;
mod wire;

pub use convergence::ConvergenceTracker;
pub use event::{Event, EventKind, RunMode, RunTransport, SpanPhase, SCHEMA_VERSION};
pub use metrics::{validate_prometheus_text, LogHistogram, SUB_BUCKETS_PER_OCTAVE};
pub use monitor::{EventSink, JsonlSink, MemorySink, Monitor};
pub use span::SpanEmitter;
pub use summary::{MonitorSummary, RankStats, SummarySink};

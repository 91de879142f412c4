//! The metrics plane: counters, gauges and log-bucketed histograms
//! derived from the event plane, with Prometheus-text exposition.
//!
//! The event plane ([`crate::Monitor`]) records *what happened*; this
//! module aggregates it into *how the run is doing* without any new
//! instrumentation call sites: [`MetricsSink`] is an ordinary
//! [`EventSink`], so every engine that already emits events (the
//! runner, the MPI substrate's queue accounting, the fault plane's
//! liveness declarations) feeds the registry for free.
//!
//! # Histogram bucket scheme
//!
//! [`LogHistogram`] uses logarithmic buckets with
//! [`SUB_BUCKETS_PER_OCTAVE`] (= 8) buckets per power of two: a value
//! `v > 0` lands in bucket `floor(log2(v) * 8)`, whose bounds are
//! `[2^(i/8), 2^((i+1)/8))`. Quantile queries answer with the bucket's
//! geometric midpoint `2^((i+0.5)/8)`, so the relative error of any
//! quantile is at most `2^(1/16) - 1 ≈ 4.4%` (documented as ≤ 5% in
//! `docs/observability.md`). Bucketing is a pure function of the
//! value, which gives the merge property collectors need: merging
//! per-rank histograms is exactly the histogram of the concatenated
//! samples.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::event::{CollectorActivity, Event, EventKind};
use crate::monitor::EventSink;

/// Log-histogram resolution: buckets per power of two. 8 sub-buckets
/// give a worst-case quantile relative error of `2^(1/16) - 1 ≈ 4.4%`.
pub const SUB_BUCKETS_PER_OCTAVE: f64 = 8.0;

/// A mergeable log-bucketed histogram of non-negative samples.
///
/// # Examples
///
/// ```
/// use parmonc_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [1.0, 2.0, 4.0, 8.0] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 - 2.0).abs() / 2.0 < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Occupied log buckets: index → sample count.
    buckets: BTreeMap<i32, u64>,
    /// Samples `<= 0` (times and byte counts are non-negative; zeros
    /// from sub-resolution timers land here).
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The log-bucket index of a positive value.
fn bucket_index(v: f64) -> i32 {
    (v.log2() * SUB_BUCKETS_PER_OCTAVE).floor() as i32
}

/// The exclusive upper bound of bucket `i`.
fn bucket_upper(i: i32) -> f64 {
    2f64.powf((f64::from(i) + 1.0) / SUB_BUCKETS_PER_OCTAVE)
}

/// The geometric midpoint of bucket `i` — the quantile representative.
fn bucket_mid(i: i32) -> f64 {
    2f64.powf((f64::from(i) + 0.5) / SUB_BUCKETS_PER_OCTAVE)
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Non-finite samples are ignored (the event
    /// plane encodes them as `null`; they carry no information).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v > 0.0 {
            *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        } else {
            self.zero += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (exact, not bucketed).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, if any (exact).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any (exact).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples, if any (exact).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum / self.count as f64)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) of the recorded samples, within
    /// the bucket relative-error bound; `None` on an empty histogram.
    ///
    /// The answer is the geometric midpoint of the bucket containing
    /// the sample of rank `ceil(q·count)`, clamped to the exact
    /// `[min, max]` range.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero;
        let mut representative = if seen >= rank { Some(0.0) } else { None };
        if representative.is_none() {
            for (&i, &c) in &self.buckets {
                seen += c;
                if seen >= rank {
                    representative = Some(bucket_mid(i));
                    break;
                }
            }
        }
        representative.map(|r| r.clamp(self.min, self.max))
    }

    /// Folds another histogram in. Because bucketing is a pure
    /// function of the value, the result equals the histogram of the
    /// concatenated samples.
    pub fn merge(&mut self, other: &Self) {
        for (&i, &c) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Cumulative `(upper_bound, count_below_or_at)` pairs for
    /// Prometheus `_bucket{le=...}` rendering, ending just before the
    /// implicit `+Inf` bucket (which equals [`Self::count`]).
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len() + 1);
        let mut cum = self.zero;
        if self.zero > 0 {
            out.push((0.0, cum));
        }
        for (&i, &c) in &self.buckets {
            cum += c;
            out.push((bucket_upper(i), cum));
        }
        out
    }
}

/// What kind of metric a registry key holds — drives the Prometheus
/// `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Counters and gauges, keyed by full sample name (which may carry
    /// one `{label="value"}` suffix).
    scalars: BTreeMap<String, (MetricKind, f64)>,
    /// Histograms, keyed by family name (no labels).
    histograms: BTreeMap<String, LogHistogram>,
}

/// A thread-safe registry of counters, gauges and [`LogHistogram`]s,
/// rendered on demand as Prometheus text format.
///
/// Sample names follow Prometheus conventions
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`, optionally one `{label="value"}`
/// suffix for scalars); the part before `{` is the family name under
/// which `# TYPE` is emitted.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Adds `by` to a (monotonic) counter, creating it at 0 first.
    pub fn inc_counter(&self, name: &str, by: f64) {
        let mut inner = self.lock();
        if let Some((_, v)) = inner.scalars.get_mut(name) {
            *v += by;
        } else {
            inner
                .scalars
                .insert(name.to_string(), (MetricKind::Counter, by));
        }
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        if let Some((_, v)) = inner.scalars.get_mut(name) {
            *v = value;
        } else {
            inner
                .scalars
                .insert(name.to_string(), (MetricKind::Gauge, value));
        }
    }

    /// Raises a gauge to `value` if it is below it (high-water marks).
    pub fn max_gauge(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        if let Some((_, v)) = inner.scalars.get_mut(name) {
            *v = v.max(value);
        } else {
            inner
                .scalars
                .insert(name.to_string(), (MetricKind::Gauge, value));
        }
    }

    /// Records a sample into the named histogram, creating it empty
    /// first.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        if let Some(h) = inner.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = LogHistogram::new();
            h.observe(value);
            inner.histograms.insert(name.to_string(), h);
        }
    }

    /// The current value of a counter or gauge.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.lock().scalars.get(name).map(|(_, v)| *v)
    }

    /// A snapshot of the named histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// The names of every histogram currently registered.
    #[must_use]
    pub fn histogram_names(&self) -> Vec<String> {
        self.lock().histograms.keys().cloned().collect()
    }

    /// The names and values of every counter and gauge.
    #[must_use]
    pub fn scalar_values(&self) -> Vec<(String, f64)> {
        self.lock()
            .scalars
            .iter()
            .map(|(k, (_, v))| (k.clone(), *v))
            .collect()
    }

    /// Folds another registry in: counters add, gauges take the other
    /// registry's value, histograms merge bucket-wise.
    pub fn merge(&self, other: &Self) {
        let other = other.lock();
        let mut inner = self.lock();
        for (name, (kind, v)) in &other.scalars {
            match inner.scalars.get_mut(name) {
                Some((MetricKind::Counter, mine)) => *mine += v,
                Some((MetricKind::Gauge, mine)) => *mine = *v,
                None => {
                    inner.scalars.insert(name.clone(), (*kind, *v));
                }
            }
        }
        for (name, h) in &other.histograms {
            if let Some(mine) = inner.histograms.get_mut(name) {
                mine.merge(h);
            } else {
                inner.histograms.insert(name.clone(), h.clone());
            }
        }
    }

    /// Renders the registry as Prometheus text exposition format
    /// (`# HELP`/`# TYPE` headers, cumulative `le` buckets, `_sum` and
    /// `_count` series) — the contents of
    /// `parmonc_data/monitor/metrics.prom`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, (kind, value)) in &inner.scalars {
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                let ty = match kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                };
                let _ = writeln!(out, "# HELP {family} {}", help_for(family));
                let _ = writeln!(out, "# TYPE {family} {ty}");
                last_family = family.to_string();
            }
            let _ = writeln!(out, "{name} {}", format_sample(*value));
        }
        for (name, h) in &inner.histograms {
            let _ = writeln!(out, "# HELP {name} {}", help_for(name));
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (upper, cum) in h.cumulative_buckets() {
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cum}",
                    format_sample(upper)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", format_sample(h.sum()));
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

/// Formats a sample value for the exposition: integral values print
/// without a fraction, non-finite values use Prometheus spelling
/// (`+Inf`, `-Inf`, `NaN` — Rust's `Display` would print `inf`),
/// everything else uses shortest round-trip.
fn format_sample(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// One-line help text for the known metric families (and a generic
/// fallback, so every family always has a `# HELP`).
fn help_for(family: &str) -> &'static str {
    match family {
        "parmonc_realization_seconds" => "Per-realization compute time (per exchange batch).",
        "parmonc_message_bytes" => "Payload bytes of point-to-point messages.",
        "parmonc_collector_wait_seconds" => "Collector idle-wait segment durations.",
        "parmonc_heartbeat_gap_seconds" => "Gap between consecutive heartbeats per worker.",
        "parmonc_queue_depth" => "Receiver queue depth observed at each delivery.",
        "parmonc_averaging_pass_seconds" => "Duration of formula-(5) averaging passes.",
        "parmonc_save_point_seconds" => "Duration of save-point writes.",
        "parmonc_snapshot_age_seconds" => "Age of the stalest subtotal folded into a pass.",
        "parmonc_realizations_total" => "Realizations completed across all ranks.",
        "parmonc_messages_sent_total" => "Point-to-point messages sent, by tag.",
        "parmonc_messages_received_total" => "Point-to-point messages delivered, by tag.",
        "parmonc_bytes_sent_total" => "Payload bytes sent.",
        "parmonc_bytes_received_total" => "Payload bytes delivered.",
        "parmonc_collector_seconds_total" => "Collector timeline seconds, by activity.",
        "parmonc_eps_max" => "Largest absolute stochastic error after the last pass.",
        "parmonc_sample_volume" => "Total sample volume folded into the estimate.",
        "parmonc_span_seconds" => "Tracing span durations on the corrected run clock.",
        "parmonc_spans_total" => "Tracing spans closed, by phase.",
        "parmonc_wire_frames_in_total" => "Frames read off a socket link, by peer rank.",
        "parmonc_wire_bytes_in_total" => "Bytes read off a socket link, by peer rank.",
        "parmonc_wire_frames_out_total" => "Frames written to a socket link, by peer rank.",
        "parmonc_wire_bytes_out_total" => "Bytes written to a socket link, by peer rank.",
        "parmonc_reconnect_dials_total" => "Reconnect dials attempted, by peer rank.",
        "parmonc_dedup_dropped_frames_total" => {
            "Duplicate frames dropped by exactly-once dedup, by peer rank."
        }
        "parmonc_forwarded_events_dropped_total" => {
            "Events a forwarding worker's sinks failed to write, by peer rank."
        }
        _ => "Metric derived from the parmonc monitor event stream.",
    }
}

/// Validates Prometheus text exposition format: comment/TYPE grammar,
/// sample-line grammar, and histogram invariants (cumulative buckets
/// non-decreasing, `_count` consistent with the `+Inf` bucket).
///
/// # Errors
///
/// Describes the first offending line.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn valid_labels(s: &str) -> bool {
        // `name="value",...` — values may not contain unescaped quotes.
        s.split(',').all(|pair| {
            pair.split_once('=').is_some_and(|(k, v)| {
                valid_name(k) && v.len() >= 2 && v.starts_with('"') && v.ends_with('"')
            })
        })
    }

    // Histogram family → (cumulative buckets seen, count series value).
    let mut histograms: BTreeMap<String, (Vec<u64>, Option<f64>)> = BTreeMap::new();
    let mut typed_histograms: Vec<String> = Vec::new();

    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.splitn(3, ' ');
            match (words.next(), words.next()) {
                (Some("HELP"), Some(name)) if valid_name(name) => {}
                (Some("TYPE"), Some(name)) if valid_name(name) => {
                    let ty = words.next().unwrap_or_default();
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown metric type {ty:?}"));
                    }
                    if ty == "histogram" {
                        typed_histograms.push(name.to_string());
                    }
                }
                _ => return Err(format!("line {n}: malformed comment: {line:?}")),
            }
            continue;
        }
        // Sample line: `name[{labels}] value`.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: expected `name value`: {line:?}"))?;
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {n}: bad sample value {value:?}"));
        }
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated labels: {line:?}"))?;
                (name, Some(labels))
            }
            None => (series, None),
        };
        if !valid_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        if let Some(labels) = labels {
            if !valid_labels(labels) {
                return Err(format!("line {n}: bad labels {labels:?}"));
            }
        }
        // Histogram bookkeeping.
        if let Some(family) = name.strip_suffix("_bucket") {
            if typed_histograms.iter().any(|h| h == family) {
                let cum = value.parse::<f64>().unwrap_or(f64::NAN) as u64;
                histograms
                    .entry(family.to_string())
                    .or_default()
                    .0
                    .push(cum);
            }
        } else if let Some(family) = name.strip_suffix("_count") {
            if typed_histograms.iter().any(|h| h == family) {
                histograms.entry(family.to_string()).or_default().1 = value.parse::<f64>().ok();
            }
        }
    }

    for name in &typed_histograms {
        let Some((buckets, count)) = histograms.get(name) else {
            return Err(format!("histogram {name} has no _bucket series"));
        };
        if buckets.windows(2).any(|w| w[1] < w[0]) {
            return Err(format!("histogram {name} buckets are not cumulative"));
        }
        match (buckets.last(), count) {
            (Some(last), Some(count)) if *last as f64 == *count => {}
            _ => return Err(format!("histogram {name}: +Inf bucket and _count disagree")),
        }
    }
    Ok(())
}

/// Per-rank progress deltas the sink keeps between `realizations`
/// events, plus exposition pacing state.
#[derive(Debug, Default)]
struct DeriveState {
    /// rank → (completed, compute_seconds) at the last event.
    progress: BTreeMap<usize, (u64, f64)>,
    /// heartbeat source rank → `time_s` of its last heartbeat.
    last_heartbeat: BTreeMap<usize, f64>,
    /// Open tracing span → its `span_started` timestamp, so
    /// `span_ended` can feed the duration histogram.
    open_spans: BTreeMap<u64, f64>,
    /// Events recorded since `metrics.prom` was last rewritten.
    since_write: u32,
}

/// Cap on tracked open spans: beyond this, the stalest-id entry is
/// evicted so a trace with lost `span_ended` events cannot grow the
/// sink without bound.
const MAX_OPEN_SPANS: usize = 4096;

/// How many events may elapse between periodic `metrics.prom`
/// rewrites (the file is also rewritten on every flush).
const WRITE_EVERY: u32 = 256;

/// An [`EventSink`] that derives the metrics plane from the event
/// stream: counters, gauges and latency/size histograms, optionally
/// exposed as a Prometheus text file rewritten periodically and at
/// flush.
///
/// Because it consumes the same events every engine already emits,
/// attaching it adds **no new instrumentation call sites** anywhere.
pub struct MetricsSink {
    registry: Arc<MetricsRegistry>,
    state: Mutex<DeriveState>,
    prom_path: Option<PathBuf>,
}

impl fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsSink")
            .field("prom_path", &self.prom_path)
            .finish_non_exhaustive()
    }
}

/// The static series name of `$family` for a message tag, so hot
/// events never allocate a label string (message tags are tiny
/// integers).
macro_rules! by_tag {
    ($family:literal, $tag:expr) => {
        match $tag {
            0 => concat!($family, "{tag=\"0\"}"),
            1 => concat!($family, "{tag=\"1\"}"),
            2 => concat!($family, "{tag=\"2\"}"),
            3 => concat!($family, "{tag=\"3\"}"),
            4 => concat!($family, "{tag=\"4\"}"),
            5 => concat!($family, "{tag=\"5\"}"),
            6 => concat!($family, "{tag=\"6\"}"),
            7 => concat!($family, "{tag=\"7\"}"),
            8 => concat!($family, "{tag=\"8\"}"),
            9 => concat!($family, "{tag=\"9\"}"),
            _ => concat!($family, "{tag=\"other\"}"),
        }
    };
}

/// The runner's heartbeat message tag (`parmonc::messages`): tag-4
/// deliveries drive the heartbeat-gap histogram.
const TAG_HEARTBEAT: u32 = 4;

impl MetricsSink {
    /// A sink aggregating into a fresh registry, with no file output.
    #[must_use]
    pub fn new() -> Self {
        Self::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// A sink aggregating into an existing registry.
    #[must_use]
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry,
            state: Mutex::new(DeriveState::default()),
            prom_path: None,
        }
    }

    /// Additionally writes Prometheus text exposition to `path`,
    /// rewritten every 256 events and at every flush.
    #[must_use]
    pub fn with_prometheus_output(mut self, path: impl Into<PathBuf>) -> Self {
        self.prom_path = Some(path.into());
        self
    }

    /// The registry this sink aggregates into.
    #[must_use]
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Rewrites `metrics.prom` if an output path is configured. Write
    /// errors are ignored: exposition is advisory and must never fail
    /// a run (trace-line loss, by contrast, is counted by the jsonl
    /// sink).
    fn write_prom(&self) {
        if let Some(path) = &self.prom_path {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let _ = std::fs::write(path, self.registry.render_prometheus());
        }
    }
}

impl Default for MetricsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for MetricsSink {
    fn record(&self, event: &Event) {
        let r = &*self.registry;
        match &event.kind {
            EventKind::RunStarted {
                processors,
                max_sample_volume,
                transport,
                ..
            } => {
                r.inc_counter("parmonc_runs_started_total", 1.0);
                r.set_gauge("parmonc_processors", *processors as f64);
                r.set_gauge("parmonc_max_sample_volume", *max_sample_volume as f64);
                if let Some(transport) = transport {
                    // Prometheus info-style gauge: the transport rides
                    // as a label, the value is always 1.
                    r.set_gauge(transport.series(), 1.0);
                }
            }
            EventKind::Realizations {
                completed,
                compute_seconds,
            } => {
                let rank = event.rank.unwrap_or(0);
                let mut state = self.state.lock().expect("metrics sink poisoned");
                let (prev_n, prev_t) = state.progress.get(&rank).copied().unwrap_or((0, 0.0));
                state.progress.insert(rank, (*completed, *compute_seconds));
                drop(state);
                let dn = completed.saturating_sub(prev_n);
                if dn > 0 {
                    r.inc_counter("parmonc_realizations_total", dn as f64);
                    let dt = compute_seconds - prev_t;
                    if dt >= 0.0 {
                        // One sample per exchange batch: the batch's
                        // mean per-realization compute time.
                        r.observe("parmonc_realization_seconds", dt / dn as f64);
                    }
                }
            }
            EventKind::MessageSent { tag, bytes, .. } => {
                r.inc_counter(by_tag!("parmonc_messages_sent_total", *tag), 1.0);
                r.inc_counter("parmonc_bytes_sent_total", *bytes as f64);
                r.observe("parmonc_message_bytes", *bytes as f64);
            }
            EventKind::MessageReceived {
                source,
                tag,
                bytes,
                queue_depth,
            } => {
                r.inc_counter(by_tag!("parmonc_messages_received_total", *tag), 1.0);
                r.inc_counter("parmonc_bytes_received_total", *bytes as f64);
                r.observe("parmonc_queue_depth", *queue_depth as f64);
                if *tag == TAG_HEARTBEAT {
                    let mut state = self.state.lock().expect("metrics sink poisoned");
                    let prev = state.last_heartbeat.insert(*source, event.time_s);
                    drop(state);
                    if let Some(prev) = prev {
                        r.observe("parmonc_heartbeat_gap_seconds", event.time_s - prev);
                    }
                }
            }
            EventKind::QueueHighWater { depth } => {
                r.max_gauge("parmonc_queue_high_water", *depth as f64);
            }
            EventKind::AveragingPass {
                volume,
                duration_seconds,
                eps_max,
                max_snapshot_age_seconds,
            } => {
                r.inc_counter("parmonc_averaging_passes_total", 1.0);
                r.observe("parmonc_averaging_pass_seconds", *duration_seconds);
                r.set_gauge("parmonc_sample_volume", *volume as f64);
                r.set_gauge("parmonc_run_time_seconds", event.time_s);
                if let Some(eps) = eps_max {
                    r.set_gauge("parmonc_eps_max", *eps);
                }
                if let Some(age) = max_snapshot_age_seconds {
                    r.observe("parmonc_snapshot_age_seconds", *age);
                }
            }
            EventKind::SavePoint {
                duration_seconds, ..
            } => {
                r.inc_counter("parmonc_save_points_total", 1.0);
                r.observe("parmonc_save_point_seconds", *duration_seconds);
            }
            EventKind::CollectorSegment {
                activity,
                start_s,
                end_s,
            } => {
                let duration = end_s - start_s;
                r.inc_counter(activity.series(), duration);
                if *activity == CollectorActivity::Waiting {
                    r.observe("parmonc_collector_wait_seconds", duration);
                }
            }
            EventKind::RunCompleted {
                realizations,
                t_comp_seconds,
                ..
            } => {
                r.inc_counter("parmonc_runs_completed_total", 1.0);
                r.set_gauge("parmonc_total_realizations", *realizations as f64);
                r.set_gauge("parmonc_t_comp_seconds", *t_comp_seconds);
            }
            EventKind::FaultInjected { fault, .. } => {
                // Faults are rare; a per-event label allocation is fine.
                r.inc_counter(
                    &format!("parmonc_faults_injected_total{{fault=\"{fault}\"}}"),
                    1.0,
                );
            }
            EventKind::WorkerLost { .. } => {
                r.inc_counter("parmonc_workers_lost_total", 1.0);
            }
            EventKind::WorkReassigned { realizations, .. } => {
                r.inc_counter(
                    "parmonc_reassigned_realizations_total",
                    *realizations as f64,
                );
            }
            EventKind::CheckpointRecovered { .. } => {
                r.inc_counter("parmonc_checkpoint_recoveries_total", 1.0);
            }
            EventKind::MetricsSnapshot {
                functional,
                n,
                mean,
                err,
            } => {
                r.set_gauge("parmonc_sample_volume", *n as f64);
                if let Some(mean) = mean {
                    r.set_gauge(
                        &format!("parmonc_estimate_mean{{functional=\"{functional}\"}}"),
                        *mean,
                    );
                }
                if let Some(err) = err {
                    r.set_gauge(
                        &format!("parmonc_estimate_err{{functional=\"{functional}\"}}"),
                        *err,
                    );
                }
            }
            EventKind::TargetPrecisionReached { n, eps_max, target } => {
                r.inc_counter("parmonc_target_precision_reached_total", 1.0);
                r.set_gauge("parmonc_target_precision_volume", *n as f64);
                r.set_gauge("parmonc_eps_max", *eps_max);
                r.set_gauge("parmonc_eps_target", *target);
            }
            EventKind::WorkerJoined { .. } => {
                r.inc_counter("parmonc_workers_joined_total", 1.0);
            }
            EventKind::WorkerLeft { .. } => {
                r.inc_counter("parmonc_workers_left_total", 1.0);
            }
            EventKind::WorkerReconnected { .. } => {
                r.inc_counter("parmonc_workers_reconnected_total", 1.0);
            }
            EventKind::CollectorResumed { .. } => {
                r.inc_counter("parmonc_collector_resumes_total", 1.0);
            }
            EventKind::TornFrame { .. } => {
                r.inc_counter("parmonc_torn_frames_total", 1.0);
            }
            EventKind::SpanStarted { span, .. } => {
                let mut state = self.state.lock().expect("metrics sink poisoned");
                state.open_spans.insert(*span, event.time_s);
                // A lost span_ended must not pin memory forever.
                if state.open_spans.len() > MAX_OPEN_SPANS {
                    let stalest = state.open_spans.keys().next().copied();
                    if let Some(stalest) = stalest {
                        state.open_spans.remove(&stalest);
                    }
                }
            }
            EventKind::SpanEnded { span, phase } => {
                let started = {
                    let mut state = self.state.lock().expect("metrics sink poisoned");
                    state.open_spans.remove(span)
                };
                r.inc_counter(phase.series(), 1.0);
                if let Some(started) = started {
                    let duration = event.time_s - started;
                    if duration >= 0.0 {
                        r.observe("parmonc_span_seconds", duration);
                    }
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
                // One event per link teardown: per-event label
                // allocation is fine here, as for faults.
                let by_link = |name: &str| format!("{name}{{link=\"{link}\"}}");
                r.inc_counter(&by_link("parmonc_wire_frames_in_total"), *frames_in as f64);
                r.inc_counter(&by_link("parmonc_wire_bytes_in_total"), *bytes_in as f64);
                r.inc_counter(
                    &by_link("parmonc_wire_frames_out_total"),
                    *frames_out as f64,
                );
                r.inc_counter(&by_link("parmonc_wire_bytes_out_total"), *bytes_out as f64);
                if *dials > 0 {
                    r.inc_counter(&by_link("parmonc_reconnect_dials_total"), *dials as f64);
                }
                if *dedup_dropped > 0 {
                    r.inc_counter(
                        &by_link("parmonc_dedup_dropped_frames_total"),
                        *dedup_dropped as f64,
                    );
                }
                if *events_dropped > 0 {
                    r.inc_counter(
                        &by_link("parmonc_forwarded_events_dropped_total"),
                        *events_dropped as f64,
                    );
                }
            }
        }
        if self.prom_path.is_some() {
            let mut state = self.state.lock().expect("metrics sink poisoned");
            state.since_write += 1;
            let due = state.since_write >= WRITE_EVERY;
            if due {
                state.since_write = 0;
            }
            drop(state);
            if due {
                self.write_prom();
            }
        }
    }

    fn flush(&self) {
        self.write_prom();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RunMode;

    /// A tiny deterministic generator for property tests (no external
    /// RNG dependency; the obs crate is dependency-free).
    struct SplitMix(u64);

    impl SplitMix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Exact quantile of a sorted slice, matching the histogram's
    /// rank convention (`ceil(q·n)`, 1-based).
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = LogHistogram::new();
        for v in [3.0, 1.0, 2.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 6.0);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(3.0));
        assert_eq!(h.mean(), Some(2.0));
        assert!(LogHistogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn zero_and_negative_samples_use_the_zero_bucket() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-1.0);
        h.observe(f64::NAN); // ignored
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.9), Some(0.0));
    }

    #[test]
    fn quantiles_match_exact_within_documented_bound() {
        // Samples spanning six orders of magnitude, like mixed
        // timing/byte metrics do.
        let mut rng = SplitMix(7);
        let mut samples: Vec<f64> = (0..2000)
            .map(|_| 10f64.powf(rng.next_f64() * 6.0 - 3.0))
            .collect();
        let mut h = LogHistogram::new();
        for &v in &samples {
            h.observe(v);
        }
        samples.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&samples, q);
            let approx = h.quantile(q).unwrap();
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= 0.05,
                "q={q}: approx {approx} vs exact {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn merged_histograms_equal_concatenated_samples() {
        let mut rng = SplitMix(42);
        let samples: Vec<f64> = (0..900).map(|_| rng.next_f64() * 100.0).collect();
        let mut whole = LogHistogram::new();
        for &v in &samples {
            whole.observe(v);
        }
        // Three "per-rank" shards, merged.
        let mut merged = LogHistogram::new();
        for shard in samples.chunks(300) {
            let mut h = LogHistogram::new();
            for &v in shard {
                h.observe(v);
            }
            merged.merge(&h);
        }
        // Bucket structure is exactly equal (summation order only
        // perturbs the exact `sum` in the last ulps).
        assert_eq!(merged.cumulative_buckets(), whole.cumulative_buckets());
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        assert!((merged.sum() - whole.sum()).abs() <= 1e-9 * whole.sum().abs());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn registry_scalars_and_render() {
        let r = MetricsRegistry::new();
        r.inc_counter("parmonc_runs_started_total", 1.0);
        r.inc_counter("parmonc_runs_started_total", 1.0);
        r.set_gauge("parmonc_eps_max", 0.25);
        r.max_gauge("parmonc_queue_high_water", 3.0);
        r.max_gauge("parmonc_queue_high_water", 2.0);
        r.observe("parmonc_message_bytes", 40.0);
        r.observe("parmonc_message_bytes", 40.0);
        assert_eq!(r.value("parmonc_runs_started_total"), Some(2.0));
        assert_eq!(r.value("parmonc_queue_high_water"), Some(3.0));
        assert_eq!(r.histogram("parmonc_message_bytes").unwrap().count(), 2);

        let text = r.render_prometheus();
        validate_prometheus_text(&text).expect("valid exposition");
        assert!(text.contains("# TYPE parmonc_runs_started_total counter"));
        assert!(text.contains("# TYPE parmonc_eps_max gauge"));
        assert!(text.contains("# TYPE parmonc_message_bytes histogram"));
        assert!(text.contains("parmonc_message_bytes_count 2"));
        assert!(text.contains("parmonc_message_bytes_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn registry_merge_adds_counters_and_merges_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.inc_counter("c", 2.0);
        b.inc_counter("c", 3.0);
        a.observe("h", 1.0);
        b.observe("h", 2.0);
        b.set_gauge("g", 9.0);
        a.merge(&b);
        assert_eq!(a.value("c"), Some(5.0));
        assert_eq!(a.value("g"), Some(9.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn prometheus_validator_rejects_malformed_text() {
        for (bad, why) in [
            ("metric", "no value"),
            ("1metric 5", "bad name"),
            ("metric notanumber", "bad value"),
            ("metric{le=\"0.5\" 1", "unterminated labels"),
            ("# TYPE m sideways\nm 1", "unknown type"),
        ] {
            assert!(validate_prometheus_text(bad).is_err(), "{why}: {bad:?}");
        }
        // Non-cumulative histogram buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(validate_prometheus_text(bad).is_err());
        // _count disagreeing with +Inf.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n";
        assert!(validate_prometheus_text(bad).is_err());
    }

    fn ev(time_s: f64, rank: Option<usize>, kind: EventKind) -> Event {
        Event::at(time_s, rank, kind)
    }

    #[test]
    fn sink_derives_metrics_from_the_event_stream() {
        let sink = MetricsSink::new();
        let r = sink.registry();
        sink.record(&ev(
            0.0,
            None,
            EventKind::RunStarted {
                mode: RunMode::Threads,
                processors: 4,
                max_sample_volume: 1000,
                seqnum: Some(1),
                nrow: Some(1),
                ncol: Some(1),
                transport: Some(crate::event::RunTransport::Threads),
            },
        ));
        assert_eq!(
            r.value("parmonc_transport_info{transport=\"threads\"}"),
            Some(1.0)
        );
        // Cumulative progress: 10 realizations in 1 s, then 10 more in 3 s.
        sink.record(&ev(
            1.0,
            Some(1),
            EventKind::Realizations {
                completed: 10,
                compute_seconds: 1.0,
            },
        ));
        sink.record(&ev(
            4.0,
            Some(1),
            EventKind::Realizations {
                completed: 20,
                compute_seconds: 4.0,
            },
        ));
        assert_eq!(r.value("parmonc_realizations_total"), Some(20.0));
        let per_real = r.histogram("parmonc_realization_seconds").unwrap();
        assert_eq!(per_real.count(), 2);
        assert_eq!(per_real.min(), Some(0.1));
        assert_eq!(per_real.max(), Some(0.3));

        // Messages: one subtotal send, one heartbeat pair for the gap.
        sink.record(&ev(
            1.0,
            Some(1),
            EventKind::MessageSent {
                dest: 0,
                tag: 1,
                bytes: 40,
            },
        ));
        sink.record(&ev(
            2.0,
            Some(0),
            EventKind::MessageReceived {
                source: 1,
                tag: 4,
                bytes: 8,
                queue_depth: 2,
            },
        ));
        sink.record(&ev(
            3.5,
            Some(0),
            EventKind::MessageReceived {
                source: 1,
                tag: 4,
                bytes: 8,
                queue_depth: 0,
            },
        ));
        assert_eq!(r.value("parmonc_messages_sent_total{tag=\"1\"}"), Some(1.0));
        assert_eq!(
            r.value("parmonc_messages_received_total{tag=\"4\"}"),
            Some(2.0)
        );
        let gap = r.histogram("parmonc_heartbeat_gap_seconds").unwrap();
        assert_eq!(gap.count(), 1);
        assert_eq!(gap.max(), Some(1.5));

        // Collector wait and the estimate trajectory.
        sink.record(&ev(
            5.0,
            Some(0),
            EventKind::CollectorSegment {
                activity: CollectorActivity::Waiting,
                start_s: 4.0,
                end_s: 5.0,
            },
        ));
        sink.record(&ev(
            5.5,
            Some(0),
            EventKind::MetricsSnapshot {
                functional: 0,
                n: 20,
                mean: Some(0.5),
                err: Some(0.01),
            },
        ));
        sink.record(&ev(
            5.6,
            Some(0),
            EventKind::TargetPrecisionReached {
                n: 20,
                eps_max: 0.01,
                target: 0.02,
            },
        ));
        assert_eq!(
            r.histogram("parmonc_collector_wait_seconds")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            r.value("parmonc_estimate_mean{functional=\"0\"}"),
            Some(0.5)
        );
        assert_eq!(r.value("parmonc_target_precision_reached_total"), Some(1.0));

        let text = r.render_prometheus();
        validate_prometheus_text(&text).expect("derived exposition is valid");
    }

    #[test]
    fn span_and_wire_events_derive_trace_metrics() {
        use crate::event::SpanPhase;
        let sink = MetricsSink::new();
        let r = sink.registry();
        sink.record(&ev(
            1.0,
            Some(1),
            EventKind::SpanStarted {
                span: 42,
                parent: None,
                phase: SpanPhase::RealizationBatch,
            },
        ));
        sink.record(&ev(
            1.5,
            Some(1),
            EventKind::SpanEnded {
                span: 42,
                phase: SpanPhase::RealizationBatch,
            },
        ));
        // An end with no recorded start still counts, just without a
        // duration sample.
        sink.record(&ev(
            2.0,
            Some(1),
            EventKind::SpanEnded {
                span: 43,
                phase: SpanPhase::Checkpoint,
            },
        ));
        sink.record(&ev(
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
        assert_eq!(
            r.value("parmonc_spans_total{phase=\"realization_batch\"}"),
            Some(1.0)
        );
        assert_eq!(
            r.value("parmonc_spans_total{phase=\"checkpoint\"}"),
            Some(1.0)
        );
        let h = r.histogram("parmonc_span_seconds").unwrap();
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 0.5).abs() < 1e-12);
        assert_eq!(
            r.value("parmonc_wire_frames_in_total{link=\"2\"}"),
            Some(10.0)
        );
        assert_eq!(
            r.value("parmonc_wire_bytes_out_total{link=\"2\"}"),
            Some(90.0)
        );
        assert_eq!(
            r.value("parmonc_reconnect_dials_total{link=\"2\"}"),
            Some(2.0)
        );
        assert_eq!(
            r.value("parmonc_dedup_dropped_frames_total{link=\"2\"}"),
            Some(1.0)
        );
        // No forwarded-drop series when the count is zero.
        assert_eq!(
            r.value("parmonc_forwarded_events_dropped_total{link=\"2\"}"),
            None
        );
        validate_prometheus_text(&r.render_prometheus()).expect("valid exposition");
    }

    #[test]
    fn sink_writes_prometheus_file_on_flush() {
        let dir = std::env::temp_dir().join(format!("parmonc-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("monitor/metrics.prom");
        let sink = MetricsSink::new().with_prometheus_output(&path);
        sink.record(&ev(0.5, Some(0), EventKind::QueueHighWater { depth: 4 }));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        validate_prometheus_text(&text).expect("file parses as Prometheus text");
        assert!(text.contains("parmonc_queue_high_water 4"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

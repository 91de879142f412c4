//! The metrics plane's vocabulary: log-bucketed histograms and the
//! Prometheus text exposition.
//!
//! The event plane ([`crate::Monitor`]) records *what happened*; the
//! run summary ([`crate::MonitorSummary`]) folds it into *how the run
//! is doing*, and this module holds what that fold renders with: the
//! [`LogHistogram`] it files latency and size samples in, the
//! exposition writer behind `metrics.prom`, and the validator that
//! checks it.
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
use std::fmt::Write as _;

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

/// Counter and gauge samples by full series name (the family name plus
/// at most one `{label="value"}` suffix): the `# TYPE` of each, and its
/// value.
pub(crate) type Scalars = BTreeMap<String, (&'static str, f64)>;

/// Renders Prometheus text exposition format — the contents of
/// `parmonc_data/monitor/metrics.prom`: the scalars in series-name
/// order, each family under one `# HELP`/`# TYPE` header, then each
/// histogram with its cumulative `le` buckets, `_sum` and `_count`.
pub(crate) fn render_exposition(scalars: &Scalars, histograms: &[(&str, LogHistogram)]) -> String {
    let mut out = String::new();
    let mut last_family = "";
    for (name, (ty, value)) in scalars {
        let family = name.split('{').next().unwrap_or(name);
        if family != last_family {
            let _ = writeln!(out, "# HELP {family} {}", help_for(family));
            let _ = writeln!(out, "# TYPE {family} {ty}");
            last_family = family;
        }
        let _ = writeln!(out, "{name} {}", format_sample(*value));
    }
    for (name, h) in histograms {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}

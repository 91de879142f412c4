//! `metrics.prom` of a real monitored run, against a committed golden.
//!
//! `golden/monitored_run.jsonl` is the trace of a three-rank thread run
//! under strict exchange with spans on and a zero heartbeat period, so
//! every histogram family has samples and heartbeat gaps come from two
//! sources. `golden/monitored_run.prom` is the exposition of that trace
//! as the metrics plane rendered it when it was committed, before it
//! became a rendering of the run summary's fold. The renderer must
//! keep every series, in the same order, with every
//! integral sample equal; a non-integral sample may move only in its
//! last bits (≤ 1e-12 relative), which a different summation order of
//! the same samples can do.

use parmonc_obs::{schema, validate_prometheus_text, Event, MonitorSummary};

const TRACE: &str = include_str!("golden/monitored_run.jsonl");
const EXPOSITION: &str = include_str!("golden/monitored_run.prom");

fn trace() -> Vec<Event> {
    TRACE
        .lines()
        .map(|line| schema::parse_line(line).expect("golden trace line parses"))
        .collect()
}

/// Asserts `got` has `want`'s lines in order: comments and series names
/// byte-equal, integral samples equal, others within 1e-12 relative.
fn assert_same_exposition(got: &str, want: &str) {
    let (got, want): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    assert_eq!(got.len(), want.len(), "line counts differ");
    for (n, (g, w)) in got.iter().zip(&want).enumerate() {
        if w.starts_with('#') {
            assert_eq!(g, w, "line {}", n + 1);
            continue;
        }
        let (g_series, g_value) = g.rsplit_once(' ').expect("sample line");
        let (w_series, w_value) = w.rsplit_once(' ').expect("sample line");
        assert_eq!(g_series, w_series, "line {}", n + 1);
        let (g_value, w_value): (f64, f64) = (g_value.parse().unwrap(), w_value.parse().unwrap());
        if w_value.fract() == 0.0 {
            assert_eq!(g_value, w_value, "line {}: {w_series}", n + 1);
        } else {
            let rel = (g_value - w_value).abs() / w_value.abs();
            assert!(
                rel <= 1e-12,
                "line {}: {w_series} {g_value} vs {w_value}",
                n + 1
            );
        }
    }
}

#[test]
fn exposition_of_a_monitored_run_matches_the_golden() {
    let text = MonitorSummary::from_events(&trace()).render_prometheus();
    validate_prometheus_text(&text).expect("valid exposition");
    assert_same_exposition(&text, EXPOSITION);
}

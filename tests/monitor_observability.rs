//! Cross-crate integration for the run-monitor observability layer:
//! a monitored run writes a schema-valid event trace, monitoring never
//! perturbs the estimates, and a healthy run speaks exactly the base
//! event vocabulary.

mod common;

use std::collections::BTreeSet;
use std::ops::Deref;

use parmonc::prelude::{Exchange, Parmonc, RunReport};
use parmonc_apps::PiEstimator;
use parmonc_obs::EventKind;
use parmonc_testkit::TempDir;

fn tempdir(name: &str) -> TempDir {
    TempDir::new(&format!("obs-{name}"))
}

/// A run's report and its directory, which goes when the test is done
/// reading what the run wrote.
struct GuardedRun {
    report: RunReport,
    _dir: TempDir,
}

impl Deref for GuardedRun {
    type Target = RunReport;

    fn deref(&self) -> &RunReport {
        &self.report
    }
}

fn monitored_pi_run(name: &str, monitor: bool) -> GuardedRun {
    let dir = tempdir(name);
    let builder = Parmonc::builder(1, 1)
        .max_sample_volume(20_000)
        .processors(4)
        .seqnum(7)
        .exchange(Exchange::EveryRealization)
        .output_dir(&dir);
    let builder = if monitor { builder.monitor() } else { builder };
    GuardedRun {
        report: builder.run(PiEstimator).unwrap(),
        _dir: dir,
    }
}

/// Reads a run's `monitor/run_metrics.jsonl`, validates every line
/// against the documented schema, and returns the event-kind names in
/// file order.
fn validated_kinds(report: &RunReport) -> Vec<&'static str> {
    let path = report.results_dir.run_metrics_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    text.lines()
        .map(|line| {
            parmonc_obs::schema::validate_line(line)
                .unwrap_or_else(|e| panic!("schema violation in {line:?}: {e}"))
        })
        .collect()
}

#[test]
fn monitored_run_writes_schema_valid_jsonl() {
    let report = monitored_pi_run("jsonl", true);
    let summary = report
        .monitor
        .as_ref()
        .expect("monitored run has a summary");
    assert_eq!(summary.total_realizations, Some(report.total_volume));

    let kinds = validated_kinds(&report);
    assert!(kinds.len() >= 10, "only {} events", kinds.len());
    assert_eq!(kinds.first(), Some(&"run_started"));
    assert_eq!(kinds.last(), Some(&"run_completed"));
    // A monitored healthy run exercises the full base vocabulary; the
    // fault kinds only appear when a fault plan injects failures (see
    // tests/chaos.rs), and the conditional kinds only when their
    // trigger — a precision target — is configured.
    let seen: BTreeSet<&str> = kinds.iter().copied().collect();
    for kind in EventKind::ALL_KINDS
        .into_iter()
        .filter(|k| !EventKind::FAULT_KINDS.contains(k))
        .filter(|k| !EventKind::CONDITIONAL_KINDS.contains(k))
    {
        assert!(seen.contains(kind), "threads run never emitted {kind}");
    }
    for kind in EventKind::FAULT_KINDS {
        assert!(!seen.contains(kind), "healthy run emitted {kind}");
    }
    for kind in EventKind::CONDITIONAL_KINDS {
        assert!(!seen.contains(kind), "untargeted run emitted {kind}");
    }
}

/// The summary a run reports is the one folded as its events arrived;
/// it must equal the fold of the trace file the run wrote.
#[test]
fn live_summary_equals_the_fold_of_the_trace_file() {
    common::assert_live_fold_matches_the_trace(&monitored_pi_run("live-fold", true));
}

#[test]
fn monitor_does_not_perturb_estimates() {
    // The estimate is a pure function of (seqnum, M, maxsv); attaching
    // the monitor must not change a single bit of it.
    let plain = monitored_pi_run("plain", false);
    let monitored = monitored_pi_run("monitored", true);
    assert!(plain.monitor.is_none());
    assert!(monitored.monitor.is_some());
    assert_eq!(plain.total_volume, monitored.total_volume);
    assert_eq!(plain.worker_volumes, monitored.worker_volumes);
    assert_eq!(plain.summary.means, monitored.summary.means);
    assert_eq!(plain.summary.variances, monitored.summary.variances);
    assert_eq!(plain.summary.abs_errors, monitored.summary.abs_errors);
}

#[test]
fn threads_emit_the_base_event_kinds() {
    // A healthy, unfaulted run emits every kind that is neither a fault
    // kind nor conditional, and nothing else, so dashboards can rely on
    // the base vocabulary being present.
    let threads: BTreeSet<&str> = validated_kinds(&monitored_pi_run("kinds", true))
        .into_iter()
        .collect();
    let base: BTreeSet<&str> = EventKind::ALL_KINDS
        .into_iter()
        .filter(|k| !EventKind::FAULT_KINDS.contains(k))
        .filter(|k| !EventKind::CONDITIONAL_KINDS.contains(k))
        .collect();
    assert_eq!(threads, base);
}

#[test]
fn targeted_run_declares_target_precision() {
    // A generous precision target is met immediately, so the trace
    // carries exactly one (schema-valid) target_precision_reached and
    // per-functional metrics_snapshot lines with real mean/err values.
    let dir = tempdir("targeted");
    let report = Parmonc::builder(1, 1)
        .max_sample_volume(20_000)
        .processors(4)
        .seqnum(7)
        .exchange(Exchange::EveryRealization)
        .target_abs_error(0.25)
        .output_dir(&dir)
        .monitor()
        .run(PiEstimator)
        .unwrap();
    let kinds = validated_kinds(&report);
    assert_eq!(
        kinds
            .iter()
            .filter(|k| **k == "target_precision_reached")
            .count(),
        1,
        "declared exactly once"
    );
    assert!(kinds.contains(&"metrics_snapshot"));
    let summary = report.monitor.as_ref().expect("monitored run");
    let (n, eps_max, target) = summary.target_precision.expect("target declared");
    assert!(n >= 2);
    assert!(eps_max <= target);
    assert_eq!(target, 0.25);
}

#[test]
fn metrics_prom_is_valid_prometheus_text() {
    // The exit-time exposition must parse as Prometheus text format and
    // agree with the run on the headline counters.
    let report = monitored_pi_run("prom", true);
    let path = report.results_dir.metrics_prom_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    parmonc_obs::validate_prometheus_text(&text).expect("valid Prometheus exposition");
    assert!(text.contains("parmonc_runs_completed_total 1"));
    assert!(text.contains("parmonc_realization_seconds_bucket"));
    assert!(text.contains(&format!(
        "parmonc_total_realizations {}",
        report.total_volume
    )));
}

/// The fault plane and the schema each spell the `fault_injected`
/// vocabulary (the two crates share no dependency edge): every name
/// the plane can emit must be one the validator accepts.
#[test]
fn fault_names_match_the_schema() {
    for fault in parmonc_faults::FaultKind::ALL {
        let kind = EventKind::FaultInjected {
            fault: fault.as_str().into(),
            detail: None,
        };
        let line = parmonc_obs::Event::at(0.5, Some(1), kind).to_json_line();
        assert_eq!(
            parmonc_obs::schema::validate_line(&line),
            Ok("fault_injected"),
            "{line}"
        );
    }
}

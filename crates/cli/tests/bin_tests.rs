//! End-to-end tests of the command-line binaries, exercising the same
//! flows a cluster user would type (paper Sections 3.4–3.5).

use std::process::Command;

use parmonc_testkit::TempDir;

fn tempdir(name: &str) -> TempDir {
    let dir = TempDir::new(&format!("cli-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn genparam_writes_the_dat_file() {
    let dir = tempdir("genparam");
    let out = Command::new(env!("CARGO_BIN_EXE_genparam"))
        .args(["110", "90", "40"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ne = 110"));
    assert!(dir.join("parmonc_genparam.dat").is_file());
    // The library loads exactly what the tool wrote.
    let cfg = parmonc::genparam::load_genparam(&dir).unwrap();
    assert_eq!((cfg.ne(), cfg.np(), cfg.nr()), (110, 90, 40));
}

#[test]
fn genparam_rejects_bad_arguments() {
    for args in [vec!["1"], vec!["40", "90", "110"], vec!["x", "y", "z"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_genparam"))
            .args(&args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
    }
}

#[test]
fn demo_then_manaver_flow() {
    let dir = tempdir("flow");
    // Run the pi demo.
    let out = Command::new(env!("CARGO_BIN_EXE_parmonc-demo"))
        .args(["pi", "20000", "2", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pi ="), "{stdout}");
    assert!(dir.join("parmonc_data/results/func.dat").is_file());

    // Fake a crashed job by planting a worker subtotal, then manaver.
    let rd = parmonc::ResultsDir::open(&dir).unwrap();
    let mut acc = parmonc::MatrixAccumulator::new(1, 1).unwrap();
    for _ in 0..100 {
        acc.add(&[3.0]).unwrap();
    }
    rd.save_worker_subtotal(
        0,
        &parmonc::messages::Subtotal {
            acc,
            compute_seconds: 0.5,
        },
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_manaver"))
        .arg(dir.to_str().unwrap())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recovered 100 realizations"), "{stdout}");
}

#[test]
fn manaver_fails_cleanly_without_data() {
    let dir = tempdir("nodata");
    let out = Command::new(env!("CARGO_BIN_EXE_manaver"))
        .arg(dir.join("missing").to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("manaver:"));
}

#[test]
fn monitored_demo_then_trace_analysis() {
    let dir = tempdir("trace-flow");
    let out = Command::new(env!("CARGO_BIN_EXE_parmonc-demo"))
        .args(["pi", "20000", "2", dir.to_str().unwrap(), "--monitor"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = dir.join("parmonc_data/monitor/run_metrics.jsonl");
    assert!(trace.is_file());
    assert!(dir.join("parmonc_data/monitor/metrics.prom").is_file());

    let trace_cmd = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_parmonc-trace"))
            .args(args)
            .output()
            .unwrap()
    };
    let summary = trace_cmd(&["summary", trace.to_str().unwrap()]);
    assert!(summary.status.success());
    assert!(String::from_utf8_lossy(&summary.stdout).contains("events"));

    let quantiles = trace_cmd(&["quantiles", trace.to_str().unwrap()]);
    assert!(quantiles.status.success());
    assert!(String::from_utf8_lossy(&quantiles.stdout).contains("parmonc_realization_seconds"));

    let convergence = trace_cmd(&["convergence", trace.to_str().unwrap()]);
    assert!(convergence.status.success());
    assert!(String::from_utf8_lossy(&convergence.stdout).contains("functional 0"));

    // A run compared with itself matches (exit 0).
    let compare = trace_cmd(&["compare", trace.to_str().unwrap(), trace.to_str().unwrap()]);
    assert!(compare.status.success());
    assert!(String::from_utf8_lossy(&compare.stdout).contains("traces match"));

    // A corrupt trace is refused with the documented exit code 3.
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"v\":2,\"kind\":\"bogus\",\"time_s\":0}\n").unwrap();
    let refused = trace_cmd(&["summary", bad.to_str().unwrap()]);
    assert_eq!(refused.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("invalid trace line"));
}

#[test]
fn spanned_demo_then_timeline_and_critical_path() {
    let dir = tempdir("span-flow");
    let out = Command::new(env!("CARGO_BIN_EXE_parmonc-demo"))
        .args(["pi", "20000", "2", dir.to_str().unwrap(), "--spans"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = dir.join("parmonc_data/monitor/run_metrics.jsonl");
    assert!(trace.is_file());

    let trace_cmd = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_parmonc-trace"))
            .args(args)
            .output()
            .unwrap()
    };
    let timeline = trace_cmd(&["timeline", trace.to_str().unwrap()]);
    assert!(timeline.status.success());
    let rendered = String::from_utf8_lossy(&timeline.stdout);
    assert!(rendered.contains("rank 0"), "{rendered}");
    assert!(rendered.contains("realization_batch"), "{rendered}");

    let critical = trace_cmd(&["critical-path", trace.to_str().unwrap()]);
    assert!(critical.status.success());
    let rendered = String::from_utf8_lossy(&critical.stdout);
    assert!(rendered.contains("path total"), "{rendered}");
    assert!(rendered.contains("dominated by"), "{rendered}");

    // Numeric validation against the same trace: the critical path is
    // dependency-ordered (contiguous, monotone steps) and its total
    // accounts for the full run wall time.
    let events = parmonc_cli::read_trace(&trace).unwrap();
    let report = parmonc_cli::trace_critical_path(&events);
    assert!(!report.steps.is_empty(), "critical path must be non-empty");
    assert!(report.wall_s > 0.0);
    assert!(
        (report.total_s - report.wall_s).abs() <= 1e-9 + 1e-6 * report.wall_s,
        "path total {} must equal run wall time {}",
        report.total_s,
        report.wall_s
    );
    let mut cursor = f64::NEG_INFINITY;
    for step in &report.steps {
        assert!(step.start_s >= cursor - 1e-12, "steps out of order");
        assert!(step.end_s >= step.start_s);
        cursor = step.end_s;
    }
}

#[test]
fn demo_rejects_unknown_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_parmonc-demo"))
        .arg("juggling")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

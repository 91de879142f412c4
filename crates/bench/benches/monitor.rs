//! Monitor overhead: the acceptance criterion for the observability
//! layer is that a monitored run (events streaming to the jsonl file
//! and into the live summary fold, which also renders the metrics
//! plane's `metrics.prom`) costs less than 2% wall
//! time over the identical unmonitored run. This bench measures both
//! paths on the laptop-scale diffusion workload and records the
//! fastest run of each arm against the other's fastest as
//! `bound_metrics_plane_overhead_pct`, in every mode. Its verdict is
//! `hotpath_compare` against the committed ceiling (4%) in
//! `BENCH_hotpath.json`, in full mode as in CI's fast mode.
//!
//! The bench asserts nothing itself. On a shared two-vCPU host the
//! statistic cannot resolve the 2% policy bound: the plain arm against
//! itself (an A/A reading, 13 interleaved runs a side) read −3.0 to
//! +9.8% in seven rounds of ≈ 70–90 ms runs, and longer runs did not
//! narrow it — up to +4.9% at ≈ 320 ms and −8.5% at ≈ 640 ms — as the
//! host moves between two cores and about one (EXPERIMENTS.md, "The
//! run summary folds as events arrive"). A hard < 2% assert failed on
//! unchanged code. The ceiling is a
//! tripwire for gross regressions (an accidentally hot event plane),
//! not a certification of the bound. The statistic reads fastest
//! against fastest to match `bench runner`; it was measured no quieter
//! than the median of per-pair overheads it replaced.
//!
//! The span-tracing plane gets the same treatment on top: a traced run
//! (monitor + causal spans around every phase) against the plain
//! monitored run, recorded as `bound_trace_plane_overhead_pct`.

use std::path::Path;
use std::time::Instant;

use parmonc::{Exchange, Parmonc, RealizeFn};
use parmonc_bench::harness::{
    black_box, criterion_group, criterion_main, fast_mode, record_metric, Criterion,
};
use parmonc_bench::ScaledDiffusion;

/// Which observability planes a measured run carries.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// No monitor at all.
    Plain,
    /// Monitor (jsonl sink + summary fold, which renders the metrics
    /// plane), no span tracing.
    Monitored,
    /// Monitor plus the causal-span tracing plane.
    Traced,
}

/// One full run of the Section 4 performance program at laptop scale;
/// returns the wall seconds of the whole run (setup + ranks + final
/// save).
fn run_once(arm: Arm, dir: &Path) -> f64 {
    // 40 Euler steps per output point, two ranks: ≈ 80–95 ms per run of
    // 600 realizations on a two-vCPU host, and ≈ 35–60 ms in fast mode,
    // which halves the volume. At that length one scheduler hiccup is
    // a percent or more of a run, so the gate reads each arm's fastest;
    // longer runs measured no quieter (see the module doc).
    let workload = ScaledDiffusion::new(40);
    let scheme = workload.scheme().clone();
    let volume = if fast_mode() { 300 } else { 600 };
    let _ = std::fs::remove_dir_all(dir);
    let mut builder = Parmonc::builder(ScaledDiffusion::POINTS, 2)
        .max_sample_volume(volume)
        .processors(2)
        .exchange(Exchange::EveryRealization)
        .output_dir(dir);
    if arm != Arm::Plain {
        builder = builder.monitor();
    }
    if arm == Arm::Traced {
        builder = builder.trace_spans();
    }
    let started = Instant::now();
    let report = builder
        .run(RealizeFn::new(move |rng, out| {
            scheme.realize_into(rng, out)
        }))
        .unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(report.monitor.is_some(), arm != Arm::Plain);
    let _ = std::fs::remove_dir_all(dir);
    elapsed
}

/// The fastest observed run: the noise-robust estimator for a
/// deterministic workload — every noise source (scheduler preemption,
/// page cache, turbo states) only ever *adds* time, so the minimum
/// converges on the true cost.
fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Interleaved measurement of `heavy` over `light`, alternating order
/// so slow drift in machine load hits both arms equally. Returns
/// `(light_min, heavy_min, overhead)`, the overhead being the fastest
/// heavy run against the fastest light one — the gated metric in
/// every mode, as `bound_runner_loop_overhead_pct` is in `bench
/// runner`.
fn paired_overhead(light: Arm, heavy: Arm, samples: usize, dir: &Path) -> (f64, f64, f64) {
    let mut lo = Vec::with_capacity(samples);
    let mut hi = Vec::with_capacity(samples);
    for i in 0..samples {
        if i % 2 == 0 {
            lo.push(run_once(light, dir));
            hi.push(run_once(heavy, dir));
        } else {
            hi.push(run_once(heavy, dir));
            lo.push(run_once(light, dir));
        }
    }
    let lo_min = minimum(&lo);
    let hi_min = minimum(&hi);
    (lo_min, hi_min, (hi_min - lo_min) / lo_min)
}

fn bench_monitor_overhead(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("parmonc-bench-monitor-{}", std::process::id()));

    let mut group = c.benchmark_group("full_run");
    group.sample_size(5);
    group.bench_function("unmonitored", |b| {
        b.iter(|| black_box(run_once(Arm::Plain, &dir)))
    });
    group.bench_function("monitored", |b| {
        b.iter(|| black_box(run_once(Arm::Monitored, &dir)))
    });
    group.finish();

    // The monitor itself, against the committed ceiling.
    let samples: usize = if fast_mode() { 9 } else { 13 };
    let (off_min, on_min, overhead) = paired_overhead(Arm::Plain, Arm::Monitored, samples, &dir);
    println!(
        "monitor_overhead: unmonitored {off_min:.4} s, monitored {on_min:.4} s, \
         overhead {:.2}% (fastest of {samples} each)",
        overhead * 100.0
    );
    record_metric("bound_metrics_plane_overhead_pct", overhead * 100.0);

    // Same program for the span-tracing plane: traced (monitor +
    // spans) over plain monitored, so the differential isolates what
    // the spans themselves cost.
    let (mon_min, traced_min, trace_overhead) =
        paired_overhead(Arm::Monitored, Arm::Traced, samples, &dir);
    println!(
        "trace_plane_overhead: monitored {mon_min:.4} s, traced {traced_min:.4} s, \
         overhead {:.2}% (fastest of {samples} each)",
        trace_overhead * 100.0
    );
    record_metric("bound_trace_plane_overhead_pct", trace_overhead * 100.0);
}

criterion_group!(benches, bench_monitor_overhead);
criterion_main!(benches);

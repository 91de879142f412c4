//! End-to-end runner overhead: a full PARMONC run (spawn ranks,
//! simulate, exchange, average, write files) per iteration, for cheap
//! and for matrix-valued realizations, in both exchange modes.
//!
//! The interesting number is the per-realization overhead the runtime
//! adds on top of the user routine — the quantity the paper's
//! Section 2.2 argues is negligible.
//!
//! The runner's own loop is priced against a bare loop of the same
//! per-realization steps (zero `out`, position the stream, the user
//! routine, `add`) in the same process: a serial periodic run of a 1×1
//! routine that draws once, whose one subtotal is the final one, so
//! the run is that loop plus a fixed set-up. (run − bare) ÷ bare, of
//! the fastest of each, is recorded as `runner_loop_overhead_pct`
//! (informational) and as `bound_runner_loop_overhead_pct`, which
//! `hotpath_compare` gates against the ceiling in `BENCH_hotpath.json`.

use std::time::Instant;

use parmonc::{
    Exchange, MatrixAccumulator, Parmonc, Realize, RealizeFn, StreamHierarchy, StreamId,
};
use parmonc_bench::harness::{
    black_box, criterion_group, criterion_main, fast_mode, median_of, record_metric, BenchmarkId,
    Criterion, Throughput,
};

fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_run");
    group.sample_size(10);

    for (mode, name) in [
        (Exchange::Periodic, "periodic"),
        (Exchange::EveryRealization, "strict"),
    ] {
        group.throughput(Throughput::Elements(2_000));
        group.bench_with_input(
            BenchmarkId::new("scalar_l2000_m2", name),
            &mode,
            |b, &mode| {
                let mut round = 0u32;
                b.iter(|| {
                    round += 1;
                    let dir = std::env::temp_dir().join(format!(
                        "parmonc-bench-run-{name}-{}-{round}",
                        std::process::id()
                    ));
                    let _ = std::fs::remove_dir_all(&dir);
                    let report = Parmonc::builder(1, 1)
                        .max_sample_volume(2_000)
                        .processors(2)
                        .exchange(mode)
                        .output_dir(&dir)
                        .run(RealizeFn::new(|rng, out| out[0] = rng.next_f64()))
                        .unwrap();
                    let _ = std::fs::remove_dir_all(&dir);
                    black_box(report.summary.means[0])
                })
            },
        );
    }

    // The paper's 1000x2 matrix shape, fewer realizations.
    group.throughput(Throughput::Elements(200));
    group.bench_function("matrix_1000x2_l200_m2", |b| {
        let mut round = 0u32;
        b.iter(|| {
            round += 1;
            let dir = std::env::temp_dir().join(format!(
                "parmonc-bench-run-matrix-{}-{round}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let report = Parmonc::builder(1000, 2)
                .max_sample_volume(200)
                .processors(2)
                .exchange(Exchange::EveryRealization)
                .output_dir(&dir)
                .run(RealizeFn::new(|rng, out| {
                    for o in out.iter_mut() {
                        *o = rng.next_f64();
                    }
                }))
                .unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            black_box(report.summary.eps_max)
        })
    });

    group.finish();

    // Per-realization runtime overhead, the paper's headline quantity,
    // in nanoseconds. Absolute times, so informational (not gated):
    // the regression gate is the within-run `ratio_*` metrics.
    for (key, id, realizations) in [
        (
            "hotpath_ns_per_realization_strict",
            "full_run/scalar_l2000_m2/strict",
            2_000.0,
        ),
        (
            "hotpath_ns_per_realization_periodic",
            "full_run/scalar_l2000_m2/periodic",
            2_000.0,
        ),
        (
            "hotpath_ns_per_realization_matrix",
            "full_run/matrix_1000x2_l200_m2",
            200.0,
        ),
    ] {
        if let Some(median) = median_of(id) {
            record_metric(key, median / realizations * 1e9);
        }
    }
}

/// Realizations of one loop-overhead run: 50–80 ms of a loop of
/// 6–10 ns, against which the run's fixed ≈ 1.5 ms of set-up and
/// fsyncs is 2–3 %.
const LOOP_VOLUME: u64 = 8_000_000;

/// Wall seconds of a whole serial periodic run of [`LOOP_VOLUME`]
/// realizations of `realize`.
fn timed_run(realize: impl Realize + Sync, dir: &std::path::Path) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let report = Parmonc::builder(1, 1)
        .max_sample_volume(LOOP_VOLUME)
        .processors(1)
        .exchange(Exchange::Periodic)
        .output_dir(dir)
        .run(realize)
        .unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(report.new_volume, LOOP_VOLUME);
    let _ = std::fs::remove_dir_all(dir);
    elapsed
}

/// Wall seconds of the same realizations without the runtime: one
/// stream positioned in place, `out` zeroed with `fill(0.0)`, the
/// routine, `add` — nothing timed, gated or exchanged.
fn timed_bare_loop(realize: &impl Realize) -> f64 {
    let started = Instant::now();
    let hierarchy = StreamHierarchy::default();
    let mut cursor = hierarchy.cursor(StreamId::new(1, 0, 0)).unwrap();
    let mut stream = hierarchy
        .realization_stream(StreamId::new(1, 0, 0))
        .unwrap();
    let mut acc = MatrixAccumulator::new(1, 1).unwrap();
    // A length the optimiser cannot see, as the runner's is: `fill`
    // is then the same `memset` call it is in the runner.
    let mut out = vec![0.0f64; black_box(1)];
    for _ in 0..LOOP_VOLUME {
        out.fill(0.0);
        cursor.next_into(&mut stream).unwrap();
        realize.realize(&mut stream, &mut out);
        acc.add(&out).unwrap();
    }
    black_box(acc.summary());
    started.elapsed().as_secs_f64()
}

fn bench_loop_overhead(_: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("parmonc-bench-loop-{}", std::process::id()));
    let routine = RealizeFn::new(|rng, out: &mut [f64]| out[0] = rng.next_f64());
    let rounds: usize = if fast_mode() { 15 } else { 31 };
    let (mut run, mut bare) = (f64::INFINITY, f64::INFINITY);
    for i in 0..rounds {
        // Alternate the order so slow drift hits both arms.
        if i % 2 == 0 {
            run = run.min(timed_run(&routine, &dir));
            bare = bare.min(timed_bare_loop(&routine));
        } else {
            bare = bare.min(timed_bare_loop(&routine));
            run = run.min(timed_run(&routine, &dir));
        }
    }
    // Fastest against fastest: on a shared host either arm can run at
    // half speed for a whole run, so pair ratios scatter by tens of
    // percent, while each arm's fastest run repeats to a few.
    let overhead = (run / bare - 1.0) * 100.0;
    let ns = |wall: f64| wall / LOOP_VOLUME as f64 * 1e9;
    println!(
        "runner_loop_overhead: run {:.2} ns, bare loop {:.2} ns per realization (fastest \
         of {rounds}), overhead {overhead:.1} %",
        ns(run),
        ns(bare)
    );
    record_metric("runner_loop_overhead_pct", overhead);
    record_metric("bound_runner_loop_overhead_pct", overhead);
}

criterion_group!(benches, bench_full_runs, bench_loop_overhead);
criterion_main!(benches);

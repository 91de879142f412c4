//! End-to-end runner overhead: a full PARMONC run (spawn ranks,
//! simulate, exchange, average, write files) per iteration, for cheap
//! and for matrix-valued realizations, in both exchange modes.
//!
//! The interesting number is the per-realization overhead the runtime
//! adds on top of the user routine — the quantity the paper's
//! Section 2.2 argues is negligible.

use parmonc::{Exchange, Parmonc, RealizeFn};
use parmonc_bench::harness::{
    black_box, criterion_group, criterion_main, median_of, record_metric, BenchmarkId, Criterion,
    Throughput,
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

criterion_group!(benches, bench_full_runs);
criterion_main!(benches);

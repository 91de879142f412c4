//! Estimator costs (DESIGN.md ablation #4): raw-sum accumulation vs
//! Welford, matrix add/merge at the paper's 1000×2 shape, and summary
//! extraction. `ratio_matrix_add_speedup` is the matrix `add` against
//! its per-entry-scan yardstick (docs/performance.md, "Accumulation");
//! `ratio_sci_format_speedup` is `report::push_sci` against `write!`
//! (docs/performance.md, "Run set-up").

use parmonc_bench::harness::{
    black_box, criterion_group, criterion_main, median_of, record_metric, Criterion, Throughput,
};
use parmonc_rng::Lcg128;
use parmonc_stats::running::WelfordAccumulator;
use parmonc_stats::{MatrixAccumulator, ScalarAccumulator};

fn bench_scalar_accumulation(c: &mut Criterion) {
    let mut rng = Lcg128::new();
    let data: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();

    let mut group = c.benchmark_group("scalar_add");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("raw_sums", |b| {
        b.iter(|| {
            let mut acc = ScalarAccumulator::new();
            for &x in &data {
                acc.add(x);
            }
            black_box(acc.mean())
        })
    });
    group.bench_function("welford", |b| {
        b.iter(|| {
            let mut acc = WelfordAccumulator::new();
            for &x in &data {
                acc.add(x);
            }
            black_box(acc.mean())
        })
    });
    group.finish();
}

fn bench_matrix_paper_shape(c: &mut Criterion) {
    // The performance test's realization: a 1000×2 matrix.
    let mut rng = Lcg128::new();
    let realization: Vec<f64> = (0..2000).map(|_| rng.next_f64()).collect();

    let mut group = c.benchmark_group("matrix_1000x2");
    group.bench_function("add_realization", |b| {
        let mut acc = MatrixAccumulator::new(1000, 2).unwrap();
        b.iter(|| acc.add(black_box(&realization)).unwrap())
    });
    group.bench_function("add_realization_scan", |b| {
        let mut sums = vec![0.0; realization.len()];
        let mut sums_sq = vec![0.0; realization.len()];
        b.iter(|| scan_then_accumulate(&mut sums, &mut sums_sq, black_box(&realization)).unwrap())
    });
    group.bench_function("merge", |b| {
        let mut left = MatrixAccumulator::new(1000, 2).unwrap();
        left.add(&realization).unwrap();
        let mut right = MatrixAccumulator::new(1000, 2).unwrap();
        right.add(&realization).unwrap();
        b.iter(|| {
            let mut l = left.clone();
            l.merge(black_box(&right)).unwrap();
            black_box(l.count())
        })
    });
    group.bench_function("summary", |b| {
        let mut acc = MatrixAccumulator::new(1000, 2).unwrap();
        for _ in 0..100 {
            acc.add(&realization).unwrap();
        }
        b.iter(|| black_box(acc.summary().eps_max))
    });
    group.finish();
    if let (Some(scan), Some(fold)) = (
        median_of("matrix_1000x2/add_realization_scan"),
        median_of("matrix_1000x2/add_realization"),
    ) {
        record_metric("ratio_matrix_add_speedup", scan / fold);
    }
}

/// The yardstick for `MatrixAccumulator::add`: what it did before its
/// finiteness check became one branch-free fold — an early-exit scan
/// with a branch per entry — ahead of the same 8-lane accumulate pass.
/// Out of line, as the library's `add` is from this crate.
#[inline(never)]
fn scan_then_accumulate(
    sums: &mut [f64],
    sums_sq: &mut [f64],
    z: &[f64],
) -> Result<(), (usize, f64)> {
    const LANES: usize = 8;
    if let Some((index, &value)) = z.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        return Err((index, value));
    }
    let mut s = sums.chunks_exact_mut(LANES);
    let mut q = sums_sq.chunks_exact_mut(LANES);
    let mut zc = z.chunks_exact(LANES);
    for ((sc, qc), c) in s.by_ref().zip(q.by_ref()).zip(zc.by_ref()) {
        for k in 0..LANES {
            sc[k] += c[k];
            qc[k] += c[k] * c[k];
        }
    }
    for ((x, y), &v) in s
        .into_remainder()
        .iter_mut()
        .zip(q.into_remainder().iter_mut())
        .zip(zc.remainder())
    {
        *x += v;
        *y += v * v;
    }
    Ok(())
}

/// The save-point's number formatting: `report::push_sci` against
/// `write!("{:.16e}")` over the 4 000 sums of a 1000×2 checkpoint, and
/// a whole `func_ci.dat` at that shape.
fn bench_report(c: &mut Criterion) {
    use std::fmt::Write as _;
    let mut rng = Lcg128::new();
    let mut acc = MatrixAccumulator::new(1000, 2).unwrap();
    for _ in 0..100 {
        let realization: Vec<f64> = (0..2000).map(|_| rng.next_f64() * 40.0 - 20.0).collect();
        acc.add(&realization).unwrap();
    }
    let values: Vec<f64> = acc.sums().iter().chain(acc.sums_sq()).copied().collect();
    let mut out = String::with_capacity(values.len() * 25);

    let mut group = c.benchmark_group("report");
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("push_sci_4000", |b| {
        b.iter(|| {
            out.clear();
            for &v in black_box(&values) {
                parmonc_stats::report::push_sci(&mut out, v);
                out.push(' ');
            }
            out.len()
        })
    });
    group.bench_function("write_sci_4000", |b| {
        b.iter(|| {
            out.clear();
            for &v in black_box(&values) {
                let _ = write!(out, "{v:.16e} ");
            }
            out.len()
        })
    });
    let summary = acc.summary();
    group.bench_function("render_func_ci_1000x2", |b| {
        b.iter(|| parmonc_stats::report::render_func_ci(black_box(&summary)))
    });
    group.finish();
    if let (Some(fmt), Some(kernel)) = (
        median_of("report/write_sci_4000"),
        median_of("report/push_sci_4000"),
    ) {
        record_metric("ratio_sci_format_speedup", fmt / kernel);
    }
}

criterion_group!(
    benches,
    bench_scalar_accumulation,
    bench_matrix_paper_shape,
    bench_report
);
criterion_main!(benches);

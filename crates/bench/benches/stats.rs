//! Estimator costs (DESIGN.md ablation #4): raw-sum accumulation vs
//! Welford, matrix add/merge at the paper's 1000×2 shape, and summary
//! extraction. `ratio_matrix_add_speedup` is the matrix `add` against
//! its per-entry-scan yardstick (docs/performance.md, "Accumulation").

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

criterion_group!(benches, bench_scalar_accumulation, bench_matrix_paper_shape);
criterion_main!(benches);

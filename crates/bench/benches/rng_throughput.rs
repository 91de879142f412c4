//! RNG throughput: the PARMONC 128-bit generator (native `u128` and
//! paper-faithful 64-bit-limb paths — DESIGN.md ablation #1) against
//! the 40-bit LCG the paper cites, xorshift64* and splitmix64.

use parmonc_bench::harness::{
    black_box, criterion_group, criterion_main, median_of, record_metric, Criterion, Throughput,
};
use parmonc_rng::baseline::{Lcg40, SplitMix64, XorShift64Star};
use parmonc_rng::limbs::{limb_step, U128Limbs};
use parmonc_rng::{Lcg128, StreamHierarchy, StreamId, UniformSource, DEFAULT_MULTIPLIER};
use parmonc_sde::{euler_step, EulerScheme, OutputGrid, PaperDiffusion};

const BATCH: u64 = 10_000;

/// Streams positioned per iteration of the stream-setup benches.
const STREAMS: u64 = 1_000;

fn bench_f64_sources(c: &mut Criterion) {
    let mut group = c.benchmark_group("next_f64");
    group.throughput(Throughput::Elements(BATCH));

    group.bench_function("lcg128_u128", |b| {
        let mut rng = Lcg128::new();
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..BATCH {
                acc += rng.next_f64();
            }
            black_box(acc)
        })
    });

    group.bench_function("lcg128_limbs", |b| {
        // The paper's 64-bit-arithmetic implementation strategy. The
        // top 53 bits come straight from the high limb (`high53`), not
        // from reassembling the u128 and shifting across the limb
        // boundary — that reassembly was pure measurement overhead.
        let a = U128Limbs::from_u128(DEFAULT_MULTIPLIER);
        let mut u = U128Limbs::from_u128(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..BATCH {
                u = limb_step(u, a);
                acc += (u.high53() as f64 + 0.5) / (1u64 << 53) as f64;
            }
            black_box(acc)
        })
    });

    group.bench_function("lcg40_paper_baseline", |b| {
        let mut rng = Lcg40::new();
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..BATCH {
                acc += rng.next_f64();
            }
            black_box(acc)
        })
    });

    group.bench_function("xorshift64star", |b| {
        let mut rng = XorShift64Star::new(0xDEAD_BEEF);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..BATCH {
                acc += rng.next_f64();
            }
            black_box(acc)
        })
    });

    group.bench_function("splitmix64", |b| {
        let mut rng = SplitMix64::new(42);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..BATCH {
                acc += rng.next_f64();
            }
            black_box(acc)
        })
    });

    group.finish();
}

/// The hot-path batched draw against the scalar loop it replaces —
/// same generator, bitwise-identical output. `fill_f64` drains the
/// 8-lane portable engine (multiplier-port throughput) and, with the
/// `simd` feature on an AVX-512 IFMA CPU, a 16-lane 52-bit-limb kernel
/// that beats even that bound. The `ratio_fill_f64_speedup` gate is
/// recorded only when the SIMD kernel is live — the portable engine
/// lands at scalar-loop parity by design (LLVM reassociates the scalar
/// recurrence into the same pipelined shape; see docs/performance.md),
/// so a >2 gate would be dishonest there.
fn bench_batched_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("fill_f64");
    group.throughput(Throughput::Elements(BATCH));

    group.bench_function("scalar_loop", |b| {
        let mut rng = Lcg128::new();
        let mut buf = vec![0.0f64; BATCH as usize];
        b.iter(|| {
            for d in buf.iter_mut() {
                *d = rng.next_f64();
            }
            black_box(buf[buf.len() - 1])
        })
    });

    group.bench_function("batched", |b| {
        let mut rng = Lcg128::new();
        let mut buf = vec![0.0f64; BATCH as usize];
        b.iter(|| {
            rng.fill_f64(&mut buf);
            black_box(buf[buf.len() - 1])
        })
    });

    group.bench_function("lanes8_portable", |b| {
        // The portable engine in isolation (informational: what
        // `fill_f64` falls back to without AVX-512 IFMA).
        let mut lanes = parmonc_rng::LaneLcg128x8::from_generator(&Lcg128::new());
        let mut buf = vec![0.0f64; BATCH as usize];
        b.iter(|| {
            lanes.fill_f64(&mut buf);
            black_box(buf[buf.len() - 1])
        })
    });

    group.finish();
    if let (Some(scalar), Some(batched)) = (
        median_of("fill_f64/scalar_loop"),
        median_of("fill_f64/batched"),
    ) {
        if parmonc_rng::simd_fill_active() {
            record_metric("ratio_fill_f64_speedup", scalar / batched);
        }
        record_metric("draws_per_s_fill_f64", BATCH as f64 / batched);
    }
}

/// Stream addressing by jump: the precomputed-table walk
/// (`stream_state`) against the three naive binary exponentiations it
/// replaced. Scattered addresses across all three hierarchy levels so
/// the exponents exercise realistic byte patterns.
fn bench_stream_jump(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_jump");
    // Fewer addresses than the other groups: one modpow pass over the
    // whole set must fit a reduced-iteration (PARMONC_BENCH_FAST)
    // sample window several times over, or the smoke-run ratio gets
    // noisy.
    const JUMPS: u64 = 250;
    group.throughput(Throughput::Elements(JUMPS));

    let h = StreamHierarchy::default();
    let (le, lp, lr) = h.leap_multipliers();
    // Realization indices span the level's full 2^55 capacity: the
    // paper's operating regime is billions-and-up of realizations, and
    // the modpow cost grows with the index's bit length while the table
    // walk only adds bytes.
    let ids: Vec<StreamId> = (0..JUMPS)
        .map(|k| {
            StreamId::new(
                (k * 7919) % (1 << 10),
                (k * 104_729) % (1 << 17),
                (k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (1 << 55),
            )
        })
        .collect();

    group.bench_function("modpow", |b| {
        // The pre-table implementation: one modpow per level per id.
        b.iter(|| {
            let mut acc = 0u128;
            for id in &ids {
                let e = parmonc_rng::multiplier::modpow(le, u128::from(id.experiment));
                let p = parmonc_rng::multiplier::modpow(lp, u128::from(id.processor));
                let r = parmonc_rng::multiplier::modpow(lr, u128::from(id.realization));
                acc ^= e.wrapping_mul(p).wrapping_mul(r);
            }
            black_box(acc)
        })
    });

    group.bench_function("table_lookup", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for id in &ids {
                acc ^= h.stream_state(*id).expect("within capacity");
            }
            black_box(acc)
        })
    });

    group.finish();
    if let (Some(modpow), Some(table)) = (
        median_of("stream_jump/modpow"),
        median_of("stream_jump/table_lookup"),
    ) {
        record_metric("ratio_stream_jump_speedup", modpow / table);
    }
}

/// Positioning the next realization stream: a fresh from-scratch
/// `realization_stream` (jump-table walk) per realization against the
/// incremental `StreamCursor` (one 128-bit multiply per advance),
/// returning each stream or overwriting one in place.
fn bench_stream_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_setup");
    group.throughput(Throughput::Elements(STREAMS));

    group.bench_function("from_scratch_per_realization", |b| {
        let h = StreamHierarchy::default();
        let mut r = 0u64;
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..STREAMS {
                let mut s = h
                    .realization_stream(StreamId::new(1, 0, r))
                    .expect("within capacity");
                acc += s.next_f64();
                r += 1;
            }
            black_box(acc)
        })
    });

    group.bench_function("cursor_incremental", |b| {
        let h = StreamHierarchy::default();
        let mut cursor = h.cursor(StreamId::new(1, 0, 0)).expect("within capacity");
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..STREAMS {
                let mut s = cursor.next_stream().expect("within capacity");
                acc += s.next_f64();
            }
            black_box(acc)
        })
    });

    // The runner's step: the same advance, written into one stream the
    // caller keeps instead of returned by value.
    group.bench_function("cursor_in_place", |b| {
        let h = StreamHierarchy::default();
        let mut cursor = h.cursor(StreamId::new(1, 0, 0)).expect("within capacity");
        let mut s = h
            .realization_stream(StreamId::new(1, 0, 0))
            .expect("within capacity");
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..STREAMS {
                cursor.next_into(&mut s).expect("within capacity");
                acc += s.next_f64();
            }
            black_box(acc)
        })
    });

    group.finish();
    if let (Some(scratch), Some(cursor)) = (
        median_of("stream_setup/from_scratch_per_realization"),
        median_of("stream_setup/cursor_incremental"),
    ) {
        record_metric("ratio_cursor_stream_speedup", scratch / cursor);
    }
}

/// Normal sampling: the in-crate Box–Muller kernel one pair at a time
/// and over the batched fill, against the libm Box–Muller it replaced —
/// kept in this bench only, as the yardstick. Same two uniforms per
/// pair on every arm.
fn bench_normal_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("normal_pair");
    group.throughput(Throughput::Elements(BATCH));
    group.bench_function("libm_box_muller_pair", |b| {
        let mut rng = Lcg128::new();
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..BATCH / 2 {
                let r = (-2.0 * rng.next_f64().ln()).sqrt();
                let (sin, cos) = (2.0 * std::f64::consts::PI * rng.next_f64()).sin_cos();
                acc += r * cos + r * sin;
            }
            black_box(acc)
        })
    });
    group.bench_function("box_muller_pair", |b| {
        let mut rng = Lcg128::new();
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..BATCH / 2 {
                let (z1, z2) = parmonc_rng::distributions::standard_normal_pair(&mut rng);
                acc += z1 + z2;
            }
            black_box(acc)
        })
    });
    group.bench_function("polar", |b| {
        let mut rng = Lcg128::new();
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..BATCH {
                acc += parmonc_rng::distributions::standard_normal_polar(&mut rng);
            }
            black_box(acc)
        })
    });
    group.bench_function("batched_fill", |b| {
        // Bitwise identical to box_muller_pair: uniforms through the
        // lane engine, the transform over a whole chunk at the widest
        // vector width the build and the CPU allow.
        let mut rng = Lcg128::new();
        let mut buf = vec![0.0f64; BATCH as usize];
        b.iter(|| {
            parmonc_rng::distributions::fill_standard_normal(&mut rng, &mut buf);
            black_box(buf[buf.len() - 1])
        })
    });
    group.finish();
    if let (Some(libm), Some(fill)) = (
        median_of("normal_pair/libm_box_muller_pair"),
        median_of("normal_pair/batched_fill"),
    ) {
        record_metric("ratio_normal_fill_speedup", libm / fill);
    }
}

/// The paper's section 4 routine at the repository benchmark's size
/// (1000 × 2 output matrix, 20 steps per row): the step-by-step
/// `euler_step` loop — libm-free but one scalar pair per step — against
/// the block-drawn `realize_into`, which is pinned to it bit for bit.
fn bench_sde_path(c: &mut Criterion) {
    const POINTS: usize = 1000;
    const STRIDE: usize = 20;
    let scheme = EulerScheme::new(
        PaperDiffusion::default(),
        1e-3,
        OutputGrid::new(POINTS, STRIDE),
    );
    let mut group = c.benchmark_group("sde_path");
    group.throughput(Throughput::Elements((POINTS * STRIDE) as u64));
    group.bench_function("paper_1000x2x20/step_by_step", |b| {
        let mut rng = Lcg128::new();
        let mut out = vec![0.0f64; POINTS * 2];
        let sqrt_h = scheme.h().sqrt();
        b.iter(|| {
            let mut x = [0.0f64; 2];
            for row in out.chunks_exact_mut(2) {
                for _ in 0..STRIDE {
                    euler_step(scheme.sde(), &mut x, scheme.h(), sqrt_h, &mut rng);
                }
                row.copy_from_slice(&x);
            }
            black_box(out[out.len() - 1])
        })
    });
    group.bench_function("paper_1000x2x20/realize_into", |b| {
        let mut rng = Lcg128::new();
        let mut out = vec![0.0f64; POINTS * 2];
        b.iter(|| {
            scheme.realize_into(&mut rng, &mut out);
            black_box(out[out.len() - 1])
        })
    });
    group.finish();
    if let (Some(steps), Some(block)) = (
        median_of("sde_path/paper_1000x2x20/step_by_step"),
        median_of("sde_path/paper_1000x2x20/realize_into"),
    ) {
        record_metric("ratio_sde_block_speedup", steps / block);
    }
}

criterion_group!(
    benches,
    bench_f64_sources,
    bench_batched_fill,
    bench_stream_setup,
    bench_stream_jump,
    bench_normal_sampling,
    bench_sde_path
);
criterion_main!(benches);

//! Transformations of base random numbers into the distributions the
//! workloads need.
//!
//! The paper (formula (2)) represents a complex random variable as a
//! function `zeta = zeta(alpha_1, ..., alpha_k)` of i.i.d. `U(0,1)` base
//! random numbers; this module supplies the standard transformations
//! used by the SDE substrate and the application workloads: normal
//! (Box–Muller and Marsaglia polar), exponential, Poisson, Bernoulli,
//! integer ranges, and discrete distributions by inverse CDF.
//!
//! # No libm on the sampling paths
//!
//! The logarithm and the sine/cosine behind the normal and exponential
//! samplers are in-crate kernels made only of `+ − × ÷ sqrt`, integer
//! bit operations and selects — operations IEEE 754 rounds correctly
//! one by one — so a variate is the same bits on every host, whatever
//! libm it links, and at every vector width the transform is compiled
//! for (no fused multiply-add is ever used). See the "Normal kernel"
//! section of `docs/performance.md`. The one libm call left in this
//! module is the single `exp(−λ)` threshold of [`poisson`].

use crate::stream::UniformSource;

/// `2^52`: adding it to a value in `[0, 2^52)` rounds that value to an
/// integer, which then sits in the low mantissa bits of the sum.
const TWO52: f64 = 4_503_599_627_370_496.0;

/// Natural logarithm of a positive, normal, finite `x` (every
/// [`UniformSource::next_f64`] value is one).
///
/// The fdlibm reduction: split `x = 2^k · m` with `m ∈ [√½, √2)`, put
/// `f = m − 1`, `s = f / (2 + f)`, evaluate
/// `ln(1+f) = f − f²/2 + s·(f²/2 + R(s²))` with a degree-7 polynomial
/// `R`, and add `k·ln 2` in two pieces. Branch-free and 64-bit lanes
/// only (the exponent becomes an `f64` by a mantissa trick, not by an
/// integer conversion), so a loop over it vectorises at the SSE2
/// baseline. Relative error below `2.3·10⁻¹⁶` (measured against libm).
#[inline(always)]
fn ln(x: f64) -> f64 {
    // fdlibm's constants, as the bit patterns it gives them: ln 2 in two
    // pieces (the high one short enough for k·LN2_HI to be exact) and
    // the coefficients of R.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // High words of 1.0 and of √½, in place in a 64-bit pattern.
    const ONE_HI: u64 = 0x3ff0_0000 << 32;
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e << 32;
    debug_assert!(
        x.is_normal() && x > 0.0,
        "ln kernel needs a positive normal input, got {x}"
    );
    // Shift the pattern so that the exponent field changes at √2·2^j
    // instead of at 2^j: the field is then k + 1023 and the rest, moved
    // back, is m ∈ [√½, √2).
    let ix = x.to_bits() + (ONE_HI - SQRT_HALF_HI);
    let k = f64::from_bits(TWO52.to_bits() | (ix >> 52)) - (TWO52 + 1023.0);
    let m = f64::from_bits((ix & 0x000f_ffff_ffff_ffff) + SQRT_HALF_HI);
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1]`.
///
/// The quadrant is reduced in `u`-space, where it is exact: `q` is the
/// integer nearest `4u` and `r = u − q/4 ∈ [−⅛, ⅛]` loses no bit, so
/// the only rounding before the polynomials is the one product
/// `2π·r ∈ [−π/4, π/4]` (libm has to reduce `2π·u`, already rounded at
/// up to `2π`). Then the fdlibm `[−π/4, π/4]` sine and cosine
/// polynomials, swapped and signed by the low bits of `q` with masks.
/// No `floor`/`round` (libm calls below SSE4.1, which would block
/// vectorisation) and no float-to-integer conversion.
#[inline(always)]
fn sincos_2pi(u: f64) -> (f64, f64) {
    // fdlibm's sine (S) and cosine (C) coefficients, as bit patterns.
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    debug_assert!((0.0..=1.0).contains(&u), "phase must be in [0, 1], got {u}");
    // 4u + 2^52 is the integer nearest 4u (ties to even); its low
    // mantissa bits are the quadrant q ∈ 0..=4.
    let t = 4.0 * u + TWO52;
    let q = t.to_bits();
    let x = core::f64::consts::TAU * (u - 0.25 * (t - TWO52));
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * r);
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus_hz = 1.0 - hz;
    let cos = one_minus_hz + (((1.0 - one_minus_hz) - hz) + z * r);
    // Odd quadrant: sine and cosine trade places. Quadrants 2, 3 negate
    // the sine; quadrants 1, 2 the cosine. Bit 1 of q (of q + 1) moves
    // to the sign bit.
    let swap = 0u64.wrapping_sub(q & 1);
    let (sin, cos) = (sin.to_bits(), cos.to_bits());
    (
        f64::from_bits(((cos & swap) | (sin & !swap)) ^ ((q & 2) << 62)),
        f64::from_bits(((sin & swap) | (cos & !swap)) ^ (((q + 1) & 2) << 62)),
    )
}

/// The Box–Muller transform: two `U(0,1)` draws into two independent
/// standard normals. All normal sampling paths (scalar, pair, batched)
/// go through this one function, so they agree bitwise.
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * ln(u1)).sqrt();
    let (sin, cos) = sincos_2pi(u2);
    (r * cos, r * sin)
}

/// [`box_muller`] over a slice, in place: `z[2i], z[2i+1]` hold two
/// uniforms on entry and their two normals on return.
///
/// The one safe body every vector width is compiled from: plain here
/// (LLVM vectorises it at the target's baseline), and again under
/// `avx2` and `avx512f` by the wrappers in `simd.rs`. Rust never
/// contracts `a*b + c` into a fused multiply-add, so every compilation
/// produces the same bits as the scalar call.
#[inline(always)]
pub(crate) fn box_muller_pairs(z: &mut [f64]) {
    debug_assert!(z.len().is_multiple_of(2));
    for pair in z.chunks_exact_mut(2) {
        (pair[0], pair[1]) = box_muller(pair[0], pair[1]);
    }
}

/// Samples a standard normal `N(0, 1)` using the Box–Muller transform.
///
/// Consumes exactly two base random numbers and discards the second
/// variate, matching how a FORTRAN Monte Carlo code with a scalar
/// `gauss()` routine typically behaves — reproducibility counts draws.
///
/// # Examples
///
/// ```
/// use parmonc_rng::{distributions::standard_normal, Lcg128};
///
/// let mut rng = Lcg128::new();
/// let z = standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: UniformSource + ?Sized>(rng: &mut R) -> f64 {
    let u1 = rng.next_f64();
    let u2 = rng.next_f64();
    box_muller(u1, u2).0
}

/// Samples a *pair* of independent standard normals with one Box–Muller
/// transform (two base random numbers, no waste).
pub fn standard_normal_pair<R: UniformSource + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1 = rng.next_f64();
    let u2 = rng.next_f64();
    box_muller(u1, u2)
}

/// Fills `dest` with independent standard normals, drawing base random
/// numbers through the batched [`UniformSource::fill_f64`] path.
///
/// Bitwise identical to filling `dest` with repeated
/// [`standard_normal_pair`] calls (odd lengths end with one
/// [`standard_normal`] call, i.e. the final pair's second variate is
/// discarded) — but the uniforms come from `fill_f64`, so an [`Lcg128`]
/// source draws them through the wide-lane engine instead of the serial
/// scalar recurrence, and the transform runs in place over a whole chunk
/// at once, 2, 4 or 8 lanes wide (the widest the build and the CPU
/// allow; the same bits at every width).
///
/// # Examples
///
/// ```
/// use parmonc_rng::{distributions::fill_standard_normal, Lcg128};
///
/// let mut rng = Lcg128::new();
/// let mut z = [0.0f64; 1000];
/// fill_standard_normal(&mut rng, &mut z);
/// let mean = z.iter().sum::<f64>() / z.len() as f64;
/// assert!(mean.abs() < 0.2);
/// ```
///
/// [`Lcg128`]: crate::Lcg128
pub fn fill_standard_normal<R: UniformSource + ?Sized>(rng: &mut R, dest: &mut [f64]) {
    // Uniforms are drawn into `dest` and transformed in place, a chunk
    // at a time: big enough to amortize the batched fill, small enough
    // that the transform finds its uniforms in L1. Even, so only the
    // last chunk can hold an unpaired element.
    const CHUNK: usize = 256;
    for chunk in dest.chunks_mut(CHUNK) {
        let (pairs, last) = chunk.split_at_mut(chunk.len() & !1);
        rng.fill_f64(pairs);
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        crate::simd::box_muller_pairs(pairs);
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        box_muller_pairs(pairs);
        // A trailing odd element draws the two uniforms the scalar
        // call would and discards the second variate.
        if let [last] = last {
            let mut u = [0.0f64; 2];
            rng.fill_f64(&mut u);
            *last = box_muller(u[0], u[1]).0;
        }
    }
}

/// Samples a standard normal with the Marsaglia polar method
/// (rejection-based; consumes a random *number* of base draws).
pub fn standard_normal_polar<R: UniformSource + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let s = x * x + y * y;
        if s > 0.0 && s < 1.0 {
            return x * ((-2.0 * ln(s)) / s).sqrt();
        }
    }
}

/// Samples `N(mean, std_dev^2)`.
///
/// # Panics
///
/// Panics (debug builds) if `std_dev` is negative.
pub fn normal<R: UniformSource + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    mean + std_dev * standard_normal(rng)
}

/// Samples `Exp(rate)` by inversion: `-ln(u) / rate`.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: UniformSource + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
    -ln(rng.next_f64()) / rate
}

/// Samples `Uniform(lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform<R: UniformSource + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(
        lo < hi,
        "uniform bounds must satisfy lo < hi, got [{lo}, {hi})"
    );
    lo + (hi - lo) * rng.next_f64()
}

/// Samples a Bernoulli trial with success probability `p`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn bernoulli<R: UniformSource + ?Sized>(rng: &mut R, p: f64) -> bool {
    assert!(
        (0.0..=1.0).contains(&p),
        "probability must be in [0,1], got {p}"
    );
    rng.next_f64() < p
}

/// Samples `Poisson(lambda)` by Knuth's product-of-uniforms method.
///
/// Fine for the moderate rates the workloads use; O(lambda) draws.
///
/// # Panics
///
/// Panics if `lambda` is not strictly positive.
pub fn poisson<R: UniformSource + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda > 0.0, "Poisson rate must be positive, got {lambda}");
    let threshold = (-lambda).exp();
    let mut k = 0u64;
    let mut product = 1.0;
    loop {
        product *= rng.next_f64();
        if product <= threshold {
            return k;
        }
        k += 1;
    }
}

/// Samples an integer uniformly from `0..n` using rejection-free
/// fixed-point multiplication on the high 64 bits.
///
/// The modulo bias of this method is below `n / 2^64`, negligible for
/// every workload in this repository.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn uniform_index<R: UniformSource + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n > 0, "cannot sample from an empty range");
    ((u128::from(rng.next_u64()) * u128::from(n)) >> 64) as u64
}

/// Samples an index from a discrete distribution given by (unnormalized)
/// non-negative `weights`, by inverse CDF over the running sum.
///
/// # Panics
///
/// Panics if `weights` is empty, contains a negative entry, or sums to
/// zero.
pub fn discrete<R: UniformSource + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "discrete distribution needs weights");
    let mut total = 0.0;
    for (i, w) in weights.iter().enumerate() {
        assert!(*w >= 0.0, "weight {i} is negative: {w}");
        total += w;
    }
    assert!(total > 0.0, "weights sum to zero");
    let target = rng.next_f64() * total;
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if target < acc {
            return i;
        }
    }
    weights.len() - 1 // numerical edge: target == total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcg128::Lcg128;
    use parmonc_testkit::prelude::*;
    use parmonc_testkit::TestRng;

    fn rng() -> Lcg128 {
        Lcg128::new()
    }

    fn sample_stats(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut r)).collect();
        let (mean, var) = sample_stats(&xs);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_pair_components_uncorrelated() {
        let mut r = rng();
        let pairs: Vec<(f64, f64)> = (0..100_000).map(|_| standard_normal_pair(&mut r)).collect();
        let n = pairs.len() as f64;
        let cov = pairs.iter().map(|(a, b)| a * b).sum::<f64>() / n;
        assert!(cov.abs() < 0.02, "cov {cov}");
    }

    #[test]
    fn polar_normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..100_000)
            .map(|_| standard_normal_polar(&mut r))
            .collect();
        let (mean, var) = sample_stats(&xs);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shifted_normal() {
        let mut r = rng();
        let xs: Vec<f64> = (0..100_000).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let (mean, var) = sample_stats(&xs);
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = rng();
        let xs: Vec<f64> = (0..200_000).map(|_| exponential(&mut r, 2.0)).collect();
        let (mean, var) = sample_stats(&xs);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 0.25).abs() < 0.01, "var {var}");
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let mut r = rng();
        let xs: Vec<f64> = (0..100_000).map(|_| uniform(&mut r, -2.0, 4.0)).collect();
        assert!(xs.iter().all(|x| (-2.0..4.0).contains(x)));
        let (mean, _) = sample_stats(&xs);
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = rng();
        let hits = (0..100_000).filter(|_| bernoulli(&mut r, 0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p {p}");
    }

    #[test]
    fn poisson_mean_and_variance_match_lambda() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| poisson(&mut r, 4.0) as f64).collect();
        let (mean, var) = sample_stats(&xs);
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn uniform_index_covers_range_uniformly() {
        let mut r = rng();
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[uniform_index(&mut r, 7) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!((*c as f64 - 10_000.0).abs() < 500.0, "bucket {i} count {c}");
        }
    }

    #[test]
    fn discrete_follows_weights() {
        let mut r = rng();
        let weights = [1.0, 2.0, 7.0];
        let mut counts = [0u32; 3];
        for _ in 0..100_000 {
            counts[discrete(&mut r, &weights)] += 1;
        }
        assert!((counts[0] as f64 / 100_000.0 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / 100_000.0 - 0.2).abs() < 0.01);
        assert!((counts[2] as f64 / 100_000.0 - 0.7).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let _ = exponential(&mut rng(), 0.0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_rejects_inverted_bounds() {
        let _ = uniform(&mut rng(), 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn bernoulli_rejects_bad_probability() {
        let _ = bernoulli(&mut rng(), 1.5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn uniform_index_rejects_zero() {
        let _ = uniform_index(&mut rng(), 0);
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn discrete_rejects_zero_mass() {
        let _ = discrete(&mut rng(), &[0.0, 0.0]);
    }

    #[test]
    fn fill_standard_normal_matches_scalar_pairs_bitwise() {
        // Even lengths are pairs; odd lengths end with a discarded
        // second variate — exactly the scalar call sequence.
        for len in [
            0usize, 1, 2, 3, 7, 8, 255, 256, 257, 511, 512, 513, 1000, 1001,
        ] {
            let mut batched_rng = rng();
            let mut scalar_rng = rng();
            let mut batched = vec![0.0f64; len];
            fill_standard_normal(&mut batched_rng, &mut batched);
            let mut scalar = Vec::with_capacity(len);
            while scalar.len() + 2 <= len {
                let (z1, z2) = standard_normal_pair(&mut scalar_rng);
                scalar.push(z1);
                scalar.push(z2);
            }
            if scalar.len() < len {
                scalar.push(standard_normal(&mut scalar_rng));
            }
            assert_eq!(batched, scalar, "len={len}");
            assert_eq!(batched_rng.state(), scalar_rng.state(), "state len={len}");
        }
    }

    /// The libm Box–Muller this module used to be: the yardstick the
    /// kernel is measured against, never a sampling path.
    fn libm_box_muller(u1: f64, u2: f64) -> (f64, f64) {
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (2.0 * core::f64::consts::PI * u2).sin_cos();
        (r * cos, r * sin)
    }

    /// A point of the generators' output grid `(t + ½)·2⁻⁵³`.
    fn grid_uniform(rng: &mut TestRng) -> f64 {
        ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    #[test]
    fn kernel_agrees_with_libm_on_a_million_pairs() {
        let mut seeds = TestRng::new(0x5EED_0014);
        let (mut worst_z, mut worst_ln) = (0.0f64, 0.0f64);
        for i in 0..1_000_000u32 {
            // Every eighth u1 is pushed down the exponent range, which
            // a million grid points alone would never reach.
            let mut u1 = grid_uniform(&mut seeds);
            if i % 8 == 0 {
                u1 *= 0.5f64.powi((seeds.below(54)) as i32);
            }
            let u2 = grid_uniform(&mut seeds);
            let (z1, z2) = box_muller(u1, u2);
            let (l1, l2) = libm_box_muller(u1, u2);
            worst_z = worst_z.max((z1 - l1).abs()).max((z2 - l2).abs());
            if u1 < 1.0 {
                worst_ln = worst_ln.max(((ln(u1) - u1.ln()) / u1.ln()).abs());
            }
        }
        assert!(worst_z <= 1e-14, "max |dz| = {worst_z:e}");
        assert!(worst_ln <= 4e-16, "max relative ln error = {worst_ln:e}");
    }

    #[test]
    fn ln_kernel_at_the_edges_of_its_domain() {
        let ulp = f64::EPSILON;
        for x in [
            0.5f64.powi(54),   // the grid's smallest value
            1.0 - ulp / 2.0,   // the largest f64 below one
            1.0 + ulp,         // just above one
            f64::MIN_POSITIVE, // smallest normal
            f64::MAX,
            core::f64::consts::FRAC_1_SQRT_2, // the mantissa split, and its neighbours
            core::f64::consts::FRAC_1_SQRT_2 - ulp / 2.0,
            core::f64::consts::SQRT_2,
            core::f64::consts::SQRT_2 + ulp,
            core::f64::consts::E,
        ] {
            let (got, want) = (ln(x), x.ln());
            assert!(
                (got - want).abs() <= 4e-16 * want.abs(),
                "ln({x:e}) = {got:e}, libm {want:e}"
            );
        }
        // Exact where the true value is representable.
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(1.0 - ulp / 2.0), -ulp / 2.0);
        // A u1 that rounds to one gives a zero radius, not a NaN.
        assert_eq!(box_muller(1.0, 0.3), (0.0, 0.0));
    }

    #[test]
    fn sincos_kernel_on_and_around_every_eighth() {
        for k in 0..=8u32 {
            let centre = f64::from(k) / 8.0;
            let below = f64::from_bits(centre.to_bits().wrapping_sub(1));
            let above = f64::from_bits(centre.to_bits() + 1);
            for u in [below, centre, above] {
                if !(0.0..=1.0).contains(&u) {
                    continue;
                }
                let (sin, cos) = sincos_2pi(u);
                // Reference angle reduced the same exact way, so libm
                // sees the true angle and not 2πu rounded at 2π.
                let q = (4.0 * u).round();
                let (s, c) = (core::f64::consts::TAU * (u - q / 4.0)).sin_cos();
                let (want_sin, want_cos) = match q as u32 % 4 {
                    0 => (s, c),
                    1 => (c, -s),
                    2 => (-s, -c),
                    _ => (-c, s),
                };
                assert!((sin - want_sin).abs() <= 2.3e-16, "sin 2π·{u}");
                assert!((cos - want_cos).abs() <= 2.3e-16, "cos 2π·{u}");
            }
            // On the axes the kernel is exact (libm's cos(2π·¼) is not).
            if k % 2 == 0 {
                let (sin, cos) = sincos_2pi(centre);
                let want = [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)][k as usize / 2 % 4];
                assert_eq!((sin, cos), want, "u = {centre}");
            }
        }
    }

    /// Sixteen fixed inputs and the exact bits of their normals. Any
    /// platform, compiler flag (`-C target-cpu=native`) or refactor that
    /// changes one bit of the kernel's output fails here, on every CI
    /// leg: the cross-host reproducibility contract is this table.
    const GOLDEN: [(f64, f64, u64, u64); 16] = {
        // The smallest value of the generators' output grid, 2⁻⁵⁴, and
        // the largest f64 below one.
        const MIN: f64 = f64::EPSILON / 4.0;
        const MAX: f64 = 1.0 - f64::EPSILON / 2.0;
        // Either side of the ln kernel's mantissa split at √½.
        const SPLIT: f64 = core::f64::consts::FRAC_1_SQRT_2;
        const BELOW: f64 = SPLIT - f64::EPSILON / 2.0;
        [
            (MIN, MIN, 0x4021_4de8_16a6_d788, 0x3ceb_2e7b_235f_0a91),
            (MAX, MAX, 0x3e50_0000_0000_0000, 0xbb29_21fb_5444_2d18),
            (0.5, 0.125, 0x3fea_a449_9161_cd48, 0x3fea_a449_9161_cd47),
            (0.5, 0.375, 0xbfea_a449_9161_cd48, 0x3fea_a449_9161_cd47),
            (0.75, 0.25, 0x8000_0000_0000_0000, 0x3fe8_45db_b537_4099),
            (0.25, 0.5, 0xbffa_a449_9161_cd47, 0x8000_0000_0000_0000),
            (0.1, 0.75, 0x0000_0000_0000_0000, 0xc001_2af0_3c69_eb28),
            (0.9, 0.625, 0xbfd4_c621_127e_7792, 0xbfd4_c621_127e_7792),
            (0.3, 0.875, 0x3ff1_8e5d_4c7f_e131, 0xbff1_8e5d_4c7f_e130),
            (SPLIT, 0.2, 0x3fd0_772b_5e7d_56d6, 0x3fe9_567a_8f66_9adc),
            (BELOW, 0.7, 0xbfd0_772b_5e7d_56dc, 0xbfe9_567a_8f66_9ade),
            (1e-10, 0.45, 0xc019_d0e6_2e5b_372d, 0x4000_c6b9_16dd_9826),
            (0.999, 0.55, 0xbfa5_c838_37a9_71c7, 0xbf8c_4f4b_581f_085f),
            (0.0625, 0.95, 0x4001_eaa2_1389_14c1, 0xbfe7_4926_55e4_25d4),
            (
                0.6180339887498949,
                0.3141592653589793,
                0xbfd8_a16f_a16e_56a9,
                0x3fec_e065_84dc_a435,
            ),
            (
                0.36787944117144233,
                0.05,
                0x3ff5_851b_996f_cdb7,
                0x3fdb_f812_0f35_7ad8,
            ),
        ]
    };

    #[test]
    fn golden_vector_is_bit_exact_on_every_path() {
        let mut u = [0.0f64; 32];
        for (pair, g) in u.chunks_exact_mut(2).zip(&GOLDEN) {
            pair.copy_from_slice(&[g.0, g.1]);
        }
        // The scalar call, the plain slice loop, and the dispatched
        // slice loop `fill_standard_normal` uses.
        let mut looped = u;
        box_muller_pairs(&mut looped);
        let mut source = Replay(u.to_vec());
        let mut filled = [0.0f64; 32];
        fill_standard_normal(&mut source, &mut filled);
        for (i, &(u1, u2, z1, z2)) in GOLDEN.iter().enumerate() {
            let (s1, s2) = box_muller(u1, u2);
            assert_eq!((s1.to_bits(), s2.to_bits()), (z1, z2), "scalar, row {i}");
            assert_eq!(looped[2 * i].to_bits(), z1, "slice loop, row {i}");
            assert_eq!(looped[2 * i + 1].to_bits(), z2, "slice loop, row {i}");
            assert_eq!(filled[2 * i].to_bits(), z1, "fill, row {i}");
            assert_eq!(filled[2 * i + 1].to_bits(), z2, "fill, row {i}");
        }
    }

    /// A source that hands out a prepared list of uniforms.
    struct Replay(Vec<f64>);

    impl UniformSource for Replay {
        fn next_f64(&mut self) -> f64 {
            self.0.remove(0)
        }

        fn next_u64(&mut self) -> u64 {
            unimplemented!("the normal samplers draw f64 only")
        }
    }

    proptest! {
        /// Ragged lengths: vector-loop remainders, odd lengths with the
        /// trailing discarded variate, chunk boundaries, any position.
        #[test]
        fn fill_standard_normal_matches_scalar_pairs_at_any_length(
            len in 0usize..600,
            skip in 0u128..10_000,
        ) {
            let mut batched_rng = rng();
            batched_rng.jump(skip);
            let mut scalar_rng = batched_rng.clone();
            let mut batched = vec![0.0f64; len];
            fill_standard_normal(&mut batched_rng, &mut batched);
            for pair in batched.chunks(2) {
                let (z1, z2) = standard_normal_pair(&mut scalar_rng);
                prop_assert_eq!(pair[0].to_bits(), z1.to_bits());
                if let Some(second) = pair.get(1) {
                    prop_assert_eq!(second.to_bits(), z2.to_bits());
                }
            }
            prop_assert_eq!(batched_rng.state(), scalar_rng.state());
        }
    }

    #[test]
    fn fill_standard_normal_moments() {
        let mut r = rng();
        let mut xs = vec![0.0f64; 200_000];
        fill_standard_normal(&mut r, &mut xs);
        let (mean, var) = sample_stats(&xs);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn deterministic_across_runs() {
        // Same stream position → identical variates: the reproducibility
        // contract resumption relies on.
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }
}

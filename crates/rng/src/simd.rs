//! Runtime-dispatched x86-64 kernels (the `simd` feature): the AVX-512
//! IFMA uniform fill, and the wide compilations of the normal transform.
//!
//! # Uniform fill
//!
//! The portable lane engine ([`crate::lanes`]) already reaches the
//! scalar multiplier-port throughput limit — LLVM turns both the scalar
//! loop and the limb lanes into ~3 pipelined 64-bit multiplies per
//! draw. Going *past* that limit needs wider multipliers: AVX-512 IFMA
//! (`vpmadd52luq`/`vpmadd52huq`) multiplies eight 52-bit limbs per
//! instruction, so a 128-bit state held as three 52/52/24-bit limbs
//! steps in 9 instructions for **eight** lanes at once.
//!
//! Kernel shape (validated bitwise against the scalar sequence):
//!
//! * 16 leapfrogged lanes (2 × 8-lane register groups to hide the
//!   madd52 latency), lane `i` at `s·A^(i+1)`, stride `A^16`;
//! * **deferred carries**: limb 1 is kept unnormalized (≤ 54 bits) and
//!   limb 2 carries garbage above bit 24 — `madd52` only reads the low
//!   52 bits of its inputs and limb 2 only matters modulo `2^24`
//!   (bits 104..128), so the single carry fold `e2 = v2 + (v1 >> 52)`
//!   per step is enough;
//! * limb 2 accumulated as three *independent* madd trees summed with
//!   one `vpaddq`, shortening the cross-iteration critical path;
//! * the `(top53 + 0.5) · 2^-53` output map computed as
//!   `fma(top53, 2^-53, 2^-54)` — exactly equal, because scaling by a
//!   power of two commutes with IEEE rounding — via `vcvtuqq2pd`
//!   (AVX-512DQ) and one FMA.
//!
//! # Normal transform
//!
//! [`box_muller_pairs`] is multiversioning, not a second kernel: the
//! safe `#[inline(always)]` body in [`crate::distributions`] is compiled
//! again under `avx2` and under `avx512f`, and the widest the CPU has is
//! called. The body uses no fused multiply-add (the wrappers do not
//! enable `fma`, and Rust never contracts `a*b + c`), so every width
//! produces the bits of the scalar call.
//!
//! Everything here is behind `is_x86_feature_detected!` at runtime and
//! the `simd` cargo feature at compile time; every other build falls
//! back to the portable lane engine and the baseline-width transform.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_cvtepu64_pd, _mm512_fmadd_pd,
    _mm512_loadu_si512, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_or_si512,
    _mm512_set1_epi64, _mm512_set1_pd, _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srli_epi64,
    _mm512_storeu_pd, _mm512_storeu_si512,
};
use std::sync::OnceLock;

/// Below this length the 16-lane seed/split setup outweighs the wider
/// multiplies; callers should use the portable engine instead.
pub(crate) const MIN_SIMD_LEN: usize = 64;

const F64_SCALE: f64 = 1.0 / (1u64 << 53) as f64;
const MASK52: u64 = (1 << 52) - 1;

/// What the CPU offers the kernels of this module.
#[derive(Clone, Copy)]
struct Cpu {
    /// AVX-512F + DQ + IFMA: the uniform fill kernel.
    ifma: bool,
    avx512f: bool,
    avx2: bool,
}

/// The detected features (cached after the first call).
fn cpu() -> Cpu {
    static CPU: OnceLock<Cpu> = OnceLock::new();
    *CPU.get_or_init(|| {
        let avx512f = std::arch::is_x86_feature_detected!("avx512f");
        Cpu {
            ifma: avx512f
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512ifma"),
            avx512f,
            avx2: std::arch::is_x86_feature_detected!("avx2"),
        }
    })
}

/// Whether the CPU supports the uniform fill kernel.
pub(crate) fn supported() -> bool {
    cpu().ifma
}

/// [`crate::distributions::box_muller_pairs`] at the widest vector
/// width the CPU has; the same bits at every width.
#[inline]
pub(crate) fn box_muller_pairs(z: &mut [f64]) {
    let cpu = cpu();
    if cpu.avx512f {
        // SAFETY: avx512f was detected.
        unsafe { box_muller_pairs_avx512f(z) }
    } else if cpu.avx2 {
        // SAFETY: avx2 was detected.
        unsafe { box_muller_pairs_avx2(z) }
    } else {
        crate::distributions::box_muller_pairs(z);
    }
}

/// # Safety
///
/// The CPU must support `avx2`.
#[target_feature(enable = "avx2")]
unsafe fn box_muller_pairs_avx2(z: &mut [f64]) {
    crate::distributions::box_muller_pairs(z);
}

/// # Safety
///
/// The CPU must support `avx512f`.
#[target_feature(enable = "avx512f")]
unsafe fn box_muller_pairs_avx512f(z: &mut [f64]) {
    crate::distributions::box_muller_pairs(z);
}

/// Fills `dest` from `state`, bitwise identical to the scalar
/// `next_f64` loop, and returns the advanced state — or `None` when the
/// CPU lacks AVX-512F/DQ/IFMA.
#[inline]
pub(crate) fn fill_f64(state: u128, multiplier: u128, dest: &mut [f64]) -> Option<u128> {
    if !supported() {
        return None;
    }
    // SAFETY: the required target features were detected above.
    Some(unsafe { fill_f64_ifma(state, multiplier, dest) })
}

#[inline]
fn split52(x: u128) -> (u64, u64, u64) {
    (
        (x as u64) & MASK52,
        ((x >> 52) as u64) & MASK52,
        (x >> 104) as u64,
    )
}

#[inline]
fn to_alpha(u: u128) -> f64 {
    ((u >> 75) as u64 as f64 + 0.5) * F64_SCALE
}

#[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
unsafe fn fill_f64_ifma(state: u128, multiplier: u128, dest: &mut [f64]) -> u128 {
    const N: usize = 16;
    const HALF: usize = 8;
    let mut s = state;
    let mut chunks = dest.chunks_exact_mut(N);
    if chunks.len() > 0 {
        let mut stride = multiplier;
        for _ in 1..N {
            stride = stride.wrapping_mul(multiplier);
        }
        let (c0, c1, c2) = split52(stride);
        let vc0 = _mm512_set1_epi64(c0 as i64);
        let vc1 = _mm512_set1_epi64(c1 as i64);
        let vc2 = _mm512_set1_epi64(c2 as i64);
        let vmask52 = _mm512_set1_epi64(MASK52 as i64);
        let vmask24 = _mm512_set1_epi64(((1u64 << 24) - 1) as i64);

        // Seed lane i at s·A^(i+1), split into 52/52/24-bit limbs.
        let mut l0 = [0i64; N];
        let mut l1 = [0i64; N];
        let mut l2 = [0i64; N];
        let mut cur = s;
        for i in 0..N {
            cur = cur.wrapping_mul(multiplier);
            let (a, b, c) = split52(cur);
            l0[i] = a as i64;
            l1[i] = b as i64;
            l2[i] = c as i64;
        }
        let mut a0: __m512i = _mm512_loadu_si512(l0.as_ptr().cast());
        let mut a1: __m512i = _mm512_loadu_si512(l1.as_ptr().cast());
        let mut a2: __m512i = _mm512_loadu_si512(l2.as_ptr().cast());
        let mut b0: __m512i = _mm512_loadu_si512(l0.as_ptr().add(HALF).cast());
        let mut b1: __m512i = _mm512_loadu_si512(l1.as_ptr().add(HALF).cast());
        let mut b2: __m512i = _mm512_loadu_si512(l2.as_ptr().add(HALF).cast());

        let vscale = _mm512_set1_pd(F64_SCALE);
        let vhalf = _mm512_set1_pd(0.5 * F64_SCALE);
        let zero = _mm512_setzero_si512();
        let n_chunks = chunks.len();
        let mut k = 0usize;
        for chunk in &mut chunks {
            let out_ptr = chunk.as_mut_ptr();
            // Effective limb 2 (fold the deferred carry of limb 1) —
            // shared by the emit and the step below.
            let e2a = _mm512_add_epi64(a2, _mm512_srli_epi64(a1, 52));
            let e2b = _mm512_add_epi64(b2, _mm512_srli_epi64(b1, 52));
            let m1a = _mm512_and_si512(a1, vmask52);
            let m1b = _mm512_and_si512(b1, vmask52);
            // top53 = bits 75..128 = (limb2 << 29) | (limb1 >> 23).
            let top_a = _mm512_or_si512(
                _mm512_slli_epi64(_mm512_and_si512(e2a, vmask24), 29),
                _mm512_srli_epi64(m1a, 23),
            );
            let top_b = _mm512_or_si512(
                _mm512_slli_epi64(_mm512_and_si512(e2b, vmask24), 29),
                _mm512_srli_epi64(m1b, 23),
            );
            _mm512_storeu_pd(
                out_ptr,
                _mm512_fmadd_pd(_mm512_cvtepu64_pd(top_a), vscale, vhalf),
            );
            _mm512_storeu_pd(
                out_ptr.add(HALF),
                _mm512_fmadd_pd(_mm512_cvtepu64_pd(top_b), vscale, vhalf),
            );
            k += 1;
            if k == n_chunks {
                // Leave the limbs normalized at the just-emitted
                // position; the final scalar state is recovered below.
                b1 = m1b;
                b2 = _mm512_and_si512(e2b, vmask24);
                break;
            }
            // Step group A by A^16: 9 madd52s per group, with limb 2 as
            // three independent trees joined by adds.
            let w0a = _mm512_madd52lo_epu64(zero, a0, vc0);
            let mut w1a = _mm512_madd52hi_epu64(zero, a0, vc0);
            w1a = _mm512_madd52lo_epu64(w1a, a0, vc1);
            w1a = _mm512_madd52lo_epu64(w1a, a1, vc0);
            let wxa = _mm512_madd52lo_epu64(_mm512_madd52hi_epu64(zero, a0, vc1), a0, vc2);
            let wya = _mm512_madd52lo_epu64(_mm512_madd52hi_epu64(zero, a1, vc0), a1, vc1);
            let wza = _mm512_madd52lo_epu64(zero, e2a, vc0);
            a0 = w0a;
            a1 = w1a;
            a2 = _mm512_add_epi64(_mm512_add_epi64(wxa, wya), wza);
            // Step group B.
            let w0b = _mm512_madd52lo_epu64(zero, b0, vc0);
            let mut w1b = _mm512_madd52hi_epu64(zero, b0, vc0);
            w1b = _mm512_madd52lo_epu64(w1b, b0, vc1);
            w1b = _mm512_madd52lo_epu64(w1b, b1, vc0);
            let wxb = _mm512_madd52lo_epu64(_mm512_madd52hi_epu64(zero, b0, vc1), b0, vc2);
            let wyb = _mm512_madd52lo_epu64(_mm512_madd52hi_epu64(zero, b1, vc0), b1, vc1);
            let wzb = _mm512_madd52lo_epu64(zero, e2b, vc0);
            b0 = w0b;
            b1 = w1b;
            b2 = _mm512_add_epi64(_mm512_add_epi64(wxb, wyb), wzb);
        }
        // The scalar state after emitting C·16 draws is lane 15's value
        // at the last emit: s·A^(C·16).
        _mm512_storeu_si512(l0.as_mut_ptr().add(HALF).cast(), b0);
        _mm512_storeu_si512(l1.as_mut_ptr().add(HALF).cast(), b1);
        _mm512_storeu_si512(l2.as_mut_ptr().add(HALF).cast(), b2);
        s = (l0[N - 1] as u64 as u128)
            | ((l1[N - 1] as u64 as u128) << 52)
            | ((l2[N - 1] as u64 as u128) << 104);
    }
    for d in chunks.into_remainder() {
        s = s.wrapping_mul(multiplier);
        *d = to_alpha(s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::DEFAULT_MULTIPLIER;

    /// The FMA output map is exactly `(top53 + 0.5) · 2^-53`: scaling by
    /// exact powers of two commutes with rounding, so
    /// `fma(t, 2^-53, 2^-54) = (t + 0.5) · 2^-53` for every 53-bit `t`.
    #[test]
    fn fma_mapping_is_exact_at_the_extremes() {
        for t in [0u64, 1, (1 << 53) - 1, (1 << 52) + 12345] {
            let reference = (t as f64 + 0.5) * F64_SCALE;
            let fused = (t as f64).mul_add(F64_SCALE, 0.5 * F64_SCALE);
            assert_eq!(reference.to_bits(), fused.to_bits(), "t={t}");
        }
    }

    #[test]
    fn kernel_matches_scalar_when_supported() {
        if !supported() {
            eprintln!("skipping: CPU lacks AVX-512 IFMA");
            return;
        }
        for len in [0usize, 1, 15, 16, 17, 31, 32, 63, 64, 65, 257, 10_003] {
            let mut expected = vec![0.0f64; len];
            let mut s = 1u128;
            for d in expected.iter_mut() {
                s = s.wrapping_mul(DEFAULT_MULTIPLIER);
                *d = to_alpha(s);
            }
            let mut got = vec![0.0f64; len];
            let new_state = fill_f64(1, DEFAULT_MULTIPLIER, &mut got).unwrap();
            assert_eq!(got, expected, "len={len}");
            assert_eq!(new_state, s, "state after len={len}");
        }
    }

    /// Every dispatch level this CPU has, and the dispatcher itself,
    /// equal the plain loop bit for bit — whole vectors and ragged
    /// remainders alike.
    #[test]
    fn box_muller_levels_match_the_plain_loop_bitwise() {
        let mut rng = crate::Lcg128::new();
        let mut lengths = parmonc_testkit::TestRng::new(0x5EED_0014);
        let cpu = cpu();
        for _ in 0..200 {
            let len = 2 * lengths.below(300) as usize;
            let mut u = vec![0.0f64; len];
            rng.fill_f64(&mut u);
            let run = |transform: &dyn Fn(&mut [f64])| -> Vec<u64> {
                let mut z = u.clone();
                transform(&mut z);
                z.iter().map(|z| z.to_bits()).collect()
            };
            let plain = run(&crate::distributions::box_muller_pairs);
            assert_eq!(run(&box_muller_pairs), plain, "dispatched, len={len}");
            if cpu.avx2 {
                // SAFETY: avx2 was detected.
                let got = run(&|z| unsafe { box_muller_pairs_avx2(z) });
                assert_eq!(got, plain, "avx2, len={len}");
            }
            if cpu.avx512f {
                // SAFETY: avx512f was detected.
                let got = run(&|z| unsafe { box_muller_pairs_avx512f(z) });
                assert_eq!(got, plain, "avx512f, len={len}");
            }
        }
    }

    #[test]
    fn kernel_composes_across_calls() {
        if !supported() {
            return;
        }
        let mut state = 1u128;
        let mut scalar = crate::Lcg128::new();
        for len in [64usize, 100, 3, 17, 256] {
            let mut buf = vec![0.0f64; len];
            state = fill_f64(state, DEFAULT_MULTIPLIER, &mut buf).unwrap();
            for x in &buf {
                assert_eq!(*x, scalar.next_f64());
            }
            assert_eq!(state, scalar.state());
        }
    }
}

//! The AVX2 build of [`MatrixAccumulator::add`]'s wide path (the `simd`
//! feature).
//!
//! Multiversioning, not a second kernel: the safe `#[inline(always)]`
//! body [`matrix::add_wide`] (the finiteness fold, then the accumulate
//! pass) is compiled again under `avx2`, and [`add_wide`] calls that
//! build when the CPU has AVX2. The pass is elementwise, uses no fused
//! multiply-add (the wrapper does not enable `fma`, and Rust never
//! contracts `a*b + c`) and keeps each entry's order of operations, so
//! both builds give the bits of the plain scalar loop.
//!
//! AVX-512F is not dispatched. Timed as memset + `fill_f64` + `add` of
//! one 1000 × 2 realization, the AVX-512F build of this body took about
//! twice as long as the AVX2 build and more than the baseline one, with
//! the matrices 64-byte aligned or not (`docs/performance.md`,
//! "Accumulation").
//!
//! [`MatrixAccumulator::add`]: crate::MatrixAccumulator::add
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::error::StatsError;
use crate::matrix;

/// Whether the CPU has AVX2 (detected once).
fn avx2() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// [`matrix::add_wide`] out of line: the AVX2 build when the CPU has
/// AVX2, the baseline build otherwise. The same bits and the same error
/// either way. Not inlined, so that `add`'s callers see one call and
/// none of the detection.
#[inline(never)]
pub(crate) fn add_wide(sums: &mut [f64], sums_sq: &mut [f64], z: &[f64]) -> Result<(), StatsError> {
    if avx2() {
        // SAFETY: avx2 was detected.
        unsafe { add_wide_avx2(sums, sums_sq, z) }
    } else {
        matrix::add_wide(sums, sums_sq, z)
    }
}

/// # Safety
///
/// The CPU must support `avx2`.
#[target_feature(enable = "avx2")]
unsafe fn add_wide_avx2(
    sums: &mut [f64],
    sums_sq: &mut [f64],
    z: &[f64],
) -> Result<(), StatsError> {
    matrix::add_wide(sums, sums_sq, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmonc_testkit::TestRng;

    type Add = fn(&mut [f64], &mut [f64], &[f64]) -> Result<(), StatsError>;

    /// The plain body, the dispatcher, and the AVX2 wrapper when the
    /// CPU has AVX2.
    fn levels() -> Vec<(&'static str, Add)> {
        fn avx2_level(s: &mut [f64], q: &mut [f64], z: &[f64]) -> Result<(), StatsError> {
            // SAFETY: listed only when avx2 was detected.
            unsafe { add_wide_avx2(s, q, z) }
        }
        let mut all: Vec<(&'static str, Add)> =
            vec![("plain", matrix::add_wide), ("dispatched", add_wide)];
        if avx2() {
            all.push(("avx2", avx2_level));
        }
        all
    }

    /// A realization of `len` entries with a wide spread of magnitudes
    /// and signs, so that rounding in `v * v` and in the adds is
    /// exercised.
    fn realization(rng: &mut TestRng, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| (rng.next_f64() - 0.5) * 2f64.powi(rng.below(80) as i32 - 40))
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Random lengths 0 … 4 100, ragged tails included: every level
    /// leaves `sums` and `sums_sq` bit-equal to the scalar loop.
    #[test]
    fn every_level_accumulates_the_bits_of_the_scalar_loop() {
        let mut rng = TestRng::new(0x5EED_0032);
        let lengths = (0..=33).chain((0..60).map(|_| rng.below(4101) as usize));
        let lengths: Vec<usize> = lengths.collect();
        let levels = levels();
        for &len in &lengths {
            let start_s = realization(&mut rng, len);
            let start_q: Vec<f64> = realization(&mut rng, len).iter().map(|v| v.abs()).collect();
            let z = realization(&mut rng, len);
            let mut want_s = start_s.clone();
            let mut want_q = start_q.clone();
            for ((s, q), &v) in want_s.iter_mut().zip(want_q.iter_mut()).zip(&z) {
                *s += v;
                *q += v * v;
            }
            for (name, add) in &levels {
                let (mut s, mut q) = (start_s.clone(), start_q.clone());
                add(&mut s, &mut q, &z).unwrap();
                assert_eq!(bits(&s), bits(&want_s), "{name} sums, len {len}");
                assert_eq!(bits(&q), bits(&want_q), "{name} sums_sq, len {len}");
            }
        }
    }

    /// A NaN or ±∞ at each position gives, at every level, the error
    /// of the scan — index and the entry's own bits — and leaves both
    /// matrices untouched.
    #[test]
    fn every_level_names_a_non_finite_entry_and_touches_nothing() {
        let mut rng = TestRng::new(0x5EED_0033);
        let lengths = (1..=33).chain((0..4).map(|_| rng.below(4101) as usize));
        let lengths: Vec<usize> = lengths.collect();
        let levels = levels();
        for &len in &lengths {
            let start_s = realization(&mut rng, len);
            let start_q = realization(&mut rng, len);
            let finite = realization(&mut rng, len);
            for p in 0..len {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut z = finite.clone();
                    z[p] = bad;
                    for (name, add) in &levels {
                        let (mut s, mut q) = (start_s.clone(), start_q.clone());
                        let Err(StatsError::NonFinite { index, value }) = add(&mut s, &mut q, &z)
                        else {
                            panic!("{name}: {bad} at {p} of {len} not rejected");
                        };
                        assert_eq!(
                            (index, value.to_bits()),
                            (p, bad.to_bits()),
                            "{name}, len {len}"
                        );
                        assert_eq!(bits(&s), bits(&start_s), "{name} sums, {p} of {len}");
                        assert_eq!(bits(&q), bits(&start_q), "{name} sums_sq, {p} of {len}");
                    }
                }
            }
        }
    }
}

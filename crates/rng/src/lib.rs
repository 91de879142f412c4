//! The PARMONC parallel random number generator.
//!
//! This crate is the "core" of the PARMONC reproduction (Marchenko,
//! PaCT 2011, Section 2.4): a 128-bit multiplicative congruential
//! generator
//!
//! ```text
//! u_0 = 1,   u_{k+1} = u_k * A  (mod 2^128),   alpha_k = u_k * 2^-128
//! ```
//!
//! with the Dyadkin–Hamilton multiplier `A = 5^101 mod 2^128` and period
//! `2^126`, together with the *leapfrog* machinery that splits the single
//! general sequence `{alpha_k}` into a three-level hierarchy of embedded
//! subsequences:
//!
//! ```text
//! general sequence  ⊃  "experiments"  subsequences   (leap n_e = 2^115)
//! "experiments"     ⊃  "processors"   subsequences   (leap n_p = 2^98)
//! "processors"      ⊃  "realizations" subsequences   (leap n_r = 2^43)
//! ```
//!
//! Every subsequence start is reached in `O(log n)` multiplications via
//! the auxiliary generator of "leaps" (paper formula (8)): the multiplier
//! `A(n) = A^n mod 2^128` is computed by binary exponentiation, so any of
//! the `2^10` experiments × `2^17` processors × `2^55` realizations can
//! be addressed directly.
//!
//! # Quick start
//!
//! ```
//! use parmonc_rng::{StreamHierarchy, StreamId};
//!
//! let hierarchy = StreamHierarchy::default();
//! // the stream for experiment 2, processor 7, realization 0:
//! let mut rng = hierarchy.realization_stream(StreamId::new(2, 7, 0)).unwrap();
//! let alpha = rng.next_f64(); // a base random number in (0, 1]
//! assert!(alpha > 0.0 && alpha <= 1.0);
//! ```
//!
//! # Crate layout
//!
//! * [`lcg128`] — the base generator ([`Lcg128`]) and its period facts.
//! * [`limbs`] — the paper-faithful 64-bit-limb arithmetic (the paper
//!   implements `rnd128` "using 64-bit integer arithmetic"); proven
//!   equivalent to the native `u128` fast path by property tests.
//! * [`lanes`] — the wide-lane draw engine ([`LaneLcg128`]): N
//!   leapfrogged lanes stepped by `A^N`, bitwise identical to the
//!   sequential generator; the engine behind the batched fill paths.
//! * [`jump`] — precomputed jump-ahead tables ([`JumpTable`]):
//!   `A^(2^k)` cached once per multiplier so stream addressing and
//!   mid-run jumps cost table multiplies instead of `modpow` squarings.
//! * [`multiplier`] — the default multiplier, leap multipliers
//!   `A(n_e)`, `A(n_p)`, `A(n_r)`, and [`modpow`](multiplier::modpow).
//! * [`hierarchy`] — [`StreamHierarchy`], [`LeapConfig`] and capacity
//!   arithmetic (how many experiments/processors/realizations exist).
//! * [`cursor`] — [`StreamCursor`], the incremental in-order walker the
//!   runner hot loop uses: one 128-bit multiply per stream instead of a
//!   table walk per stream, bitwise identical to the from-scratch API.
//! * [`stream`] — [`RealizationStream`], the `rnd128()`-style handle a
//!   user routine draws base random numbers from.
//! * [`distributions`] — transformations of base random numbers into the
//!   distributions the workloads need (normal, exponential, Poisson, …),
//!   on in-crate `ln`/`sin`/`cos` kernels: no libm, the same bits on
//!   every host and at every vector width.
//! * [`baseline`] — comparison generators: the 40-bit LCG the paper
//!   cites as having an *insufficient* period, xorshift64*, splitmix64.
//!
//! With the `simd` cargo feature an additional runtime-dispatched
//! AVX-512 IFMA fill kernel backs [`Lcg128::fill_f64`] (see
//! [`simd_fill_active`]), and
//! [`distributions::fill_standard_normal`] runs its transform at the
//! widest of AVX2 / AVX-512F the CPU has. The crate forbids `unsafe`
//! everywhere except that one feature-gated module.

#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod baseline;
pub mod cursor;
pub mod distributions;
pub mod hierarchy;
pub mod jump;
pub mod lanes;
pub mod lcg128;
pub mod limbs;
pub mod multiplier;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod simd;
pub mod stream;

pub use cursor::StreamCursor;
pub use hierarchy::{HierarchyError, LeapConfig, StreamHierarchy, StreamId};
pub use jump::JumpTable;
pub use lanes::{LaneLcg128, LaneLcg128x4, LaneLcg128x8};
pub use lcg128::Lcg128;
pub use multiplier::{DEFAULT_MULTIPLIER, MODULUS_BITS};
pub use stream::{RealizationStream, UniformSource};

/// Whether batched fills ([`Lcg128::fill_f64`]) are served by the
/// AVX-512 IFMA kernel on this build *and* this CPU.
///
/// `false` means fills use the portable wide-lane engine — still
/// bitwise identical, just without the >2× wide-multiplier speedup.
/// Benchmarks consult this to decide which throughput gates apply.
#[must_use]
pub fn simd_fill_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        simd::supported()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

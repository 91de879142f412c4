//! Estimator machinery of the PARMONC reproduction.
//!
//! Paper Section 2.1: a functional of interest `phi ≈ E[zeta]` is
//! estimated by the sample mean over `L` independent realizations, with
//! the second moment tracked alongside so that the sample variance
//! `sigma^2 = xi_bar - zeta_bar^2`, the absolute stochastic error
//! `eps = 3 * sigma * L^{-1/2}` (confidence level 0.997) and the
//! relative error `rho = eps / |zeta_bar| * 100%` come for free.
//!
//! Realizations are matrices `[zeta_ij]` (`nrow × ncol`); after
//! averaging PARMONC produces the matrices of sample means, absolute
//! errors, relative errors and sample variances, plus their upper
//! bounds `eps_max`, `rho_max`, `sigma2_max`.
//!
//! Paper Section 2.2, formula (5): each processor accumulates partial
//! sums and the collector merges them as
//!
//! ```text
//! zeta_bar = l^{-1} * sum_m l_m * zeta_bar^(m),   l = sum_m l_m
//! ```
//!
//! which in sum form is simply adding the processors' `(Σzeta, Σzeta²,
//! l)` triples — the representation this crate stores, making merging
//! exact and associative (see the property tests in [`matrix`]).
//!
//! # Quick start
//!
//! ```
//! use parmonc_stats::ScalarAccumulator;
//!
//! let mut acc = ScalarAccumulator::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     acc.add(x);
//! }
//! let s = acc.summary();
//! assert_eq!(s.mean, 2.5);
//! assert!(s.abs_error > 0.0);
//! ```
//!
//! With the `simd` cargo feature, [`MatrixAccumulator::add`] runs its
//! wide path (a realization of eight entries or more) through an AVX2
//! build of the same safe code when the CPU has AVX2, chosen at
//! runtime. The crate forbids `unsafe` everywhere except that one
//! feature-gated module.

#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod confidence;
pub mod error;
pub mod matrix;
pub mod moments;
pub mod report;
pub mod running;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd;

pub use confidence::{confidence_interval, ConfidenceInterval, GAMMA_997};
pub use error::StatsError;
pub use matrix::{MatrixAccumulator, MatrixSummary};
pub use moments::{ScalarAccumulator, ScalarSummary};

//! SDE simulation substrate for the PARMONC performance test
//! (paper Section 4).
//!
//! The paper's benchmark workload is a 2-dimensional system of
//! stochastic differential equations
//!
//! ```text
//! dξ(t) = C dt + D dw(t),   t ∈ [0, 100]
//! ```
//!
//! integrated by the *generalized Euler method* (formula (9))
//!
//! ```text
//! ξ^{n+1} = ξ^n + h·C + √h·D·ε^n,   ε^n ~ N(0, I)
//! ```
//!
//! with mesh `h = 10⁻⁶` (10⁸ steps per realization ≈ 7.7 s of compute on
//! the paper's cluster), recording `Eξ₁(t_i), Eξ₂(t_i)` at the 1000
//! output points `t_i = i·10⁻¹` — a 1000×2 realization matrix.
//!
//! This crate provides the scheme for arbitrary drift/diffusion
//! ([`Sde`], [`EulerScheme`]), the paper's linear problem with its
//! closed-form moments ([`problems::PaperDiffusion`]), and two extra
//! processes (GBM, Ornstein–Uhlenbeck) used by the examples.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod euler;
pub mod milstein;
pub mod problems;
pub mod wiener;

pub use euler::{EulerScheme, OutputGrid};
pub use milstein::{milstein, ScalarGbm, ScalarSde};
pub use problems::{GeometricBrownian, OrnsteinUhlenbeck, PaperDiffusion};

use parmonc_rng::UniformSource;

/// A time-homogeneous Itô SDE `dξ = a(ξ) dt + B(ξ) dw` with diagonal
/// diffusion.
///
/// `DIM` is the state dimension; the diffusion matrix is restricted to
/// diagonal (independent noise per component), which covers the paper's
/// problem (`D = diag(1.002, 1.002)`) and the example processes.
pub trait Sde<const DIM: usize> {
    /// Drift `a(x)`.
    fn drift(&self, x: &[f64; DIM]) -> [f64; DIM];

    /// Diagonal of the diffusion matrix `B(x)`.
    fn diffusion_diag(&self, x: &[f64; DIM]) -> [f64; DIM];

    /// Initial condition `ξ(0)`.
    fn initial(&self) -> [f64; DIM];
}

/// One generalized-Euler step (paper formula (9)) for any [`Sde`].
///
/// The single-step API, and the oracle the block-drawn
/// [`EulerScheme::realize_into`] is pinned to bit for bit; benches use
/// it to measure the per-step cost in isolation.
#[inline]
pub fn euler_step<const DIM: usize, S, R>(
    sde: &S,
    x: &mut [f64; DIM],
    h: f64,
    sqrt_h: f64,
    rng: &mut R,
) where
    S: Sde<DIM> + ?Sized,
    R: UniformSource + ?Sized,
{
    let mut z = [0.0; DIM];
    // Pairs of normals from one Box–Muller transform: no wasted base
    // random numbers for even DIM.
    for pair in z.chunks_mut(2) {
        let (z1, z2) = parmonc_rng::distributions::standard_normal_pair(rng);
        pair[0] = z1;
        if let Some(second) = pair.get_mut(1) {
            *second = z2;
        }
    }
    euler_update(sde, x, h, sqrt_h, &z);
}

/// The deterministic half of a step: `x += h·a(x) + √h·B(x)·z` for
/// already-drawn standard normals `z`.
#[inline]
pub(crate) fn euler_update<const DIM: usize, S: Sde<DIM> + ?Sized>(
    sde: &S,
    x: &mut [f64; DIM],
    h: f64,
    sqrt_h: f64,
    z: &[f64; DIM],
) {
    let drift = sde.drift(x);
    let diff = sde.diffusion_diag(x);
    for i in 0..DIM {
        x[i] += h * drift[i] + sqrt_h * diff[i] * z[i];
    }
}

//! The base 128-bit multiplicative congruential generator.
//!
//! Paper formula (6):
//!
//! ```text
//! u_0 = 1,  u_{k+1} = u_k · A (mod 2^128),  alpha_k = u_k · 2^{-128}
//! ```
//!
//! The state is an odd 128-bit integer; the sequence of states walks a
//! cycle of length `2^126` (formula (7)), of which the paper recommends
//! using the first half (`2^125` numbers).

#[cfg(test)]
use crate::multiplier::PERIOD_EXPONENT;
use crate::multiplier::{DEFAULT_MULTIPLIER, MODULUS_BITS};

/// Scale factor turning the top 53 bits of the state into a double in
/// `(0, 1]`: `alpha = (top53 + 0.5) · 2^-53` (see [`Lcg128::next_f64`]
/// for the one grid point that reaches `1.0`).
const F64_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// The base 128-bit multiplicative congruential generator (paper
/// formula (6)) with multiplier `A = 5^101 mod 2^128`.
///
/// `Lcg128` is deliberately small and `Copy`-free: cloning one is an
/// explicit act of forking the stream, which in PARMONC is only ever
/// done through the leapfrog hierarchy.
///
/// # Examples
///
/// ```
/// use parmonc_rng::Lcg128;
///
/// let mut rng = Lcg128::new();
/// let a = rng.next_f64();
/// assert!(a > 0.0 && a <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lcg128 {
    state: u128,
    multiplier: u128,
}

impl Lcg128 {
    /// Creates the generator at the head of the general sequence
    /// (`u_0 = 1`, default multiplier).
    #[must_use]
    pub fn new() -> Self {
        Self::with_state(1)
    }

    /// Creates the generator at a given state with the default
    /// multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `state` is even: even states are outside the group of
    /// units modulo `2^128` and would collapse to a shorter cycle.
    #[must_use]
    pub fn with_state(state: u128) -> Self {
        Self::with_state_and_multiplier(state, DEFAULT_MULTIPLIER)
    }

    /// Creates the generator at a given state with a caller-supplied
    /// multiplier (for `genparam`-style overrides and for tests).
    ///
    /// # Panics
    ///
    /// Panics if `state` or `multiplier` is even.
    #[must_use]
    #[inline]
    pub fn with_state_and_multiplier(state: u128, multiplier: u128) -> Self {
        assert!(state & 1 == 1, "LCG state must be odd, got {state:#x}");
        assert!(
            multiplier & 1 == 1,
            "LCG multiplier must be odd, got {multiplier:#x}"
        );
        Self { state, multiplier }
    }

    /// Creates the generator positioned `k` steps into the general
    /// sequence, i.e. at state `u_k = A^k mod 2^128`, via the shared
    /// precomputed [`JumpTable`](crate::JumpTable) (at most one multiply
    /// per nonzero nibble of `k`).
    ///
    /// # Examples
    ///
    /// ```
    /// use parmonc_rng::Lcg128;
    ///
    /// let mut stepped = Lcg128::new();
    /// for _ in 0..1000 {
    ///     stepped.next_raw();
    /// }
    /// let jumped = Lcg128::at_position(1000);
    /// assert_eq!(stepped.state(), jumped.state());
    /// ```
    #[must_use]
    pub fn at_position(k: u128) -> Self {
        Self::with_state(crate::jump::power_for(DEFAULT_MULTIPLIER, k))
    }

    /// Current 128-bit state `u_k`.
    #[must_use]
    pub fn state(&self) -> u128 {
        self.state
    }

    /// The multiplier `A` this generator steps with.
    #[must_use]
    pub fn multiplier(&self) -> u128 {
        self.multiplier
    }

    /// Advances the recurrence once and returns the new raw state
    /// `u_{k+1}`.
    #[inline]
    pub fn next_raw(&mut self) -> u128 {
        self.state = self.state.wrapping_mul(self.multiplier);
        self.state
    }

    /// Returns the next base random number `alpha ∈ (0, 1]`.
    ///
    /// The paper defines `alpha_k = u_k · 2^-128`; we take the top 53
    /// bits and centre within the bin:
    /// `alpha = (⌊u/2^75⌋ + 0.5) · 2^-53`, which is never zero and
    /// differs from the exact value by less than `2^-53`.
    ///
    /// It is **not** always below one. From `2^52` up the `+ 0.5` is not
    /// representable and rounds to even, so at the top grid point
    /// `⌊u/2^75⌋ = 2^53 − 1` the sum rounds up to `2^53` and the draw is
    /// exactly `1.0` — with probability `2^-53` per draw. `-ln(alpha)`
    /// (what [`exponential`](crate::distributions::exponential) takes)
    /// and comparisons `alpha < p` are safe; code that takes
    /// `ln(1 − alpha)` or divides by `1 − alpha` must guard that value.
    /// Moving the endpoint would move bits of every stream and every
    /// golden vector, so it is pinned by a unit test instead
    /// (`top_grid_point_draws_exactly_one`): changing it is a decision,
    /// not an accident.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        let u = self.next_raw();
        ((u >> (MODULUS_BITS - 53)) as u64 as f64 + 0.5) * F64_SCALE
    }

    /// Fills `dest` with consecutive base random numbers, bitwise
    /// identical to calling [`Self::next_f64`] `dest.len()` times.
    ///
    /// The recurrence `u_{k+1} = u_k · A` is a serial dependency chain,
    /// so a naive loop is bounded by the latency of one 128-bit
    /// multiply per draw. Batched fills instead drain the wide-lane
    /// engine ([`LaneLcg128`](crate::LaneLcg128)): eight leapfrogged
    /// lanes stepped by `A^8`, whose independent multiplies the CPU
    /// retires at multiplier-port throughput. With the `simd` cargo
    /// feature, fills of 64+ values on CPUs with AVX-512 IFMA dispatch
    /// to a 16-lane 52-bit-limb kernel that clears even the throughput
    /// bound (see `docs/performance.md`). Every path emits the exact
    /// sequential sequence and leaves `self` where the scalar loop
    /// would.
    ///
    /// # Examples
    ///
    /// ```
    /// use parmonc_rng::Lcg128;
    ///
    /// let mut a = Lcg128::new();
    /// let mut b = a.clone();
    /// let mut buf = [0.0f64; 10];
    /// a.fill_f64(&mut buf);
    /// for x in &buf {
    ///     assert_eq!(*x, b.next_f64());
    /// }
    /// assert_eq!(a.state(), b.state());
    /// ```
    pub fn fill_f64(&mut self, dest: &mut [f64]) {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if dest.len() >= crate::simd::MIN_SIMD_LEN {
            if let Some(state) = crate::simd::fill_f64(self.state, self.multiplier, dest) {
                self.state = state;
                return;
            }
        }
        let mut lanes = crate::lanes::LaneLcg128::<8>::from_parts(self.state, self.multiplier);
        lanes.fill_f64(dest);
        self.state = lanes.state();
    }

    /// Returns the next 64 high bits of the state as a `u64`.
    ///
    /// High bits of an MCG modulo a power of two have the best
    /// equidistribution (the low bit never changes); all integer output
    /// is therefore taken from the top.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (self.next_raw() >> 64) as u64
    }

    /// Returns the next 32 high bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 96) as u32
    }

    /// Jumps the generator forward by `n` steps (paper formula (8):
    /// multiply the state by `A(n) = A^n`).
    ///
    /// For the default multiplier the power comes from the shared
    /// precomputed [`JumpTable`](crate::JumpTable) — at most one
    /// multiply per nonzero nibble of `n`, no squarings; custom
    /// multipliers fall back to `O(log n)` binary exponentiation.
    ///
    /// # Examples
    ///
    /// ```
    /// use parmonc_rng::Lcg128;
    ///
    /// let mut a = Lcg128::new();
    /// let mut b = a.clone();
    /// for _ in 0..12345 {
    ///     a.next_raw();
    /// }
    /// b.jump(12345);
    /// assert_eq!(a.state(), b.state());
    /// ```
    pub fn jump(&mut self, n: u128) {
        self.state = self
            .state
            .wrapping_mul(crate::jump::power_for(self.multiplier, n));
    }

    /// Returns a clone jumped `n` steps ahead, leaving `self` unchanged.
    #[must_use]
    pub fn leaped(&self, n: u128) -> Self {
        let mut c = self.clone();
        c.jump(n);
        c
    }

    /// The period of the generator, as the exponent `t` of `2^t`.
    ///
    /// For the default multiplier this is `126` (paper formula (7)).
    #[must_use]
    pub fn period_exponent(&self) -> u32 {
        crate::multiplier::order_exponent(self.multiplier)
            .expect("multiplier is validated odd at construction")
    }
}

impl Default for Lcg128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Iterator for Lcg128 {
    type Item = f64;

    /// Yields base random numbers forever (the cycle length `2^126`
    /// is unreachable in practice).
    fn next(&mut self) -> Option<f64> {
        Some(self.next_f64())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// A convenience free function mirroring the paper's `a = rnd128();`
/// call style for a caller-managed generator.
///
/// # Examples
///
/// ```
/// use parmonc_rng::lcg128::{rnd128, Lcg128};
///
/// let mut rng = Lcg128::new();
/// let a = rnd128(&mut rng);
/// assert!(a > 0.0 && a < 1.0);
/// ```
#[inline]
pub fn rnd128(rng: &mut Lcg128) -> f64 {
    rng.next_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbs::U128Limbs;
    use parmonc_testkit::prelude::*;

    /// First states of the sequence, computed independently with Python
    /// bignums: u_k = (5^101)^k mod 2^128 for k = 1..=3.
    const KNOWN_STATES: [u128; 3] = [
        0xbc1b_6074_2c6a_5846_f557_b4f2_b48e_8cb5,
        0xbb72_99b4_870b_2934_67bf_5372_ee22_77f9,
        0xd82e_e807_acb4_e04a_80a8_ab58_d818_ff0d,
    ];

    #[test]
    fn matches_reference_states() {
        let mut rng = Lcg128::new();
        for expected in KNOWN_STATES {
            assert_eq!(rng.next_raw(), expected);
        }
    }

    #[test]
    fn first_alpha_matches_reference_value() {
        // u_1 / 2^128 = 0.7347927363993362 (Python reference); our open
        // interval mapping agrees to < 2^-53 relative placement.
        let mut rng = Lcg128::new();
        let a = rng.next_f64();
        assert!((a - 0.734_792_736_399_336_2).abs() < 1e-12);
    }

    #[test]
    fn outputs_stay_in_open_unit_interval() {
        let mut rng = Lcg128::new();
        for _ in 0..10_000 {
            let a = rng.next_f64();
            assert!(a > 0.0 && a < 1.0, "alpha out of (0,1): {a}");
        }
    }

    /// The generator one step before `state`: the multiplier's order
    /// is `2^126`, so its inverse is its `(2^126 − 1)`-th power.
    fn one_step_before(state: u128) -> Lcg128 {
        let inverse = crate::jump::power_for(DEFAULT_MULTIPLIER, (1 << PERIOD_EXPONENT) - 1);
        assert_eq!(DEFAULT_MULTIPLIER.wrapping_mul(inverse), 1);
        Lcg128::with_state(state.wrapping_mul(inverse))
    }

    /// Pins the endpoint the rustdoc of `next_f64` admits to: the
    /// interval is `(0, 1]`, the `1.0` at one grid point in `2^53`.
    #[test]
    fn top_grid_point_draws_exactly_one() {
        let top = u128::MAX;
        assert_eq!(one_step_before(top).next_f64(), 1.0);
        // The batched paths (lanes, and SIMD from 64 values up) draw
        // the same bits.
        for len in [1, 128] {
            let mut batch = vec![0.0f64; len];
            one_step_before(top).fill_f64(&mut batch);
            assert_eq!(batch[0], 1.0, "a fill of {len}");
        }
        // One grid point lower is the largest draw below one, and the
        // bottom one is the smallest above zero.
        let below = one_step_before(top - (1 << (MODULUS_BITS - 53))).next_f64();
        assert_eq!(below, 1.0 - f64::EPSILON);
        assert_eq!(one_step_before(1).next_f64(), 0.5 * F64_SCALE);
    }

    #[test]
    fn state_stays_odd() {
        let mut rng = Lcg128::new();
        for _ in 0..1_000 {
            assert_eq!(rng.next_raw() & 1, 1);
        }
    }

    #[test]
    fn period_exponent_reports_126() {
        assert_eq!(Lcg128::new().period_exponent(), PERIOD_EXPONENT);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_state_rejected() {
        let _ = Lcg128::with_state(2);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_multiplier_rejected() {
        let _ = Lcg128::with_state_and_multiplier(1, 4);
    }

    #[test]
    fn iterator_yields_f64s() {
        let rng = Lcg128::new();
        let v: Vec<f64> = rng.take(5).collect();
        assert_eq!(v.len(), 5);
        assert!(v.iter().all(|a| *a > 0.0 && *a < 1.0));
    }

    #[test]
    fn limb_path_agrees_with_native_path_along_the_sequence() {
        // The paper's 64-bit-arithmetic implementation and our u128 fast
        // path must walk the same orbit.
        let mut rng = Lcg128::new();
        let a = U128Limbs::from_u128(DEFAULT_MULTIPLIER);
        let mut u = U128Limbs::from_u128(1);
        for _ in 0..1_000 {
            u = crate::limbs::limb_step(u, a);
            assert_eq!(rng.next_raw(), u.to_u128());
        }
    }

    #[test]
    fn mean_of_outputs_is_one_half() {
        // Coarse sanity: the first 100k alphas average to ~0.5.
        let mut rng = Lcg128::new();
        let n = 100_000;
        let mean = (0..n).map(|_| rng.next_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    proptest! {
        /// fill_f64 is bitwise identical to repeated next_f64 for any
        /// buffer length (full lanes plus remainder) and any starting
        /// position, and leaves the generator in the same state.
        #[test]
        fn fill_f64_matches_scalar_draws(len in 0usize..260, skip in 0u128..10_000) {
            let mut filled = Lcg128::new();
            filled.jump(skip);
            let mut scalar = filled.clone();
            let mut buf = vec![0.0f64; len];
            filled.fill_f64(&mut buf);
            for x in &buf {
                prop_assert_eq!(*x, scalar.next_f64());
            }
            prop_assert_eq!(filled.state(), scalar.state());
        }

        /// jump(n) lands exactly where n sequential steps land.
        #[test]
        fn jump_equals_stepping(n in 0u32..3_000) {
            let mut stepped = Lcg128::new();
            for _ in 0..n {
                stepped.next_raw();
            }
            let mut jumped = Lcg128::new();
            jumped.jump(u128::from(n));
            prop_assert_eq!(stepped.state(), jumped.state());
        }

        /// jump(a); jump(b) == jump(a + b).
        #[test]
        fn jumps_compose(a in 0u128..1u128 << 60, b in 0u128..1u128 << 60) {
            let mut two = Lcg128::new();
            two.jump(a);
            two.jump(b);
            let mut one = Lcg128::new();
            one.jump(a + b);
            prop_assert_eq!(two.state(), one.state());
        }

        /// at_position(k) == new().jump(k).
        #[test]
        fn at_position_is_jump_from_origin(k in any::<u128>()) {
            let mut j = Lcg128::new();
            j.jump(k);
            prop_assert_eq!(Lcg128::at_position(k).state(), j.state());
        }

        /// leaped() does not mutate the source generator.
        #[test]
        fn leaped_is_pure(n in any::<u128>()) {
            let rng = Lcg128::new();
            let before = rng.state();
            let _forked = rng.leaped(n);
            prop_assert_eq!(rng.state(), before);
        }
    }
}

//! Realization streams: the `rnd128()`-style handle a user routine
//! draws base random numbers from.
//!
//! In the paper the user's sequential routine simply calls
//! `a = rnd128();` and PARMONC has already positioned the generator on
//! the correct "realizations" subsequence (Section 2.4, initialization).
//! In this reproduction the same role is played by a
//! [`RealizationStream`] passed into the user’s `Realize`-style
//! closure: calling [`RealizationStream::next_f64`] is the `rnd128()`
//! call.

use core::fmt;

use crate::hierarchy::StreamId;
use crate::lcg128::Lcg128;

/// A source of i.i.d. `Uniform(0, 1)` base random numbers.
///
/// This is the only interface the statistical layers consume; it is
/// implemented by [`RealizationStream`], by the raw [`Lcg128`], and by
/// the baseline generators, so every workload can be exercised with
/// every generator in benches and statistical tests.
pub trait UniformSource {
    /// Returns the next base random number: never zero, and below one
    /// except that [`Lcg128`] reaches exactly `1.0` at one grid point in
    /// `2^53` (see [`Lcg128::next_f64`]).
    fn next_f64(&mut self) -> f64;

    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with base random numbers.
    fn fill_f64(&mut self, dest: &mut [f64]) {
        for d in dest {
            *d = self.next_f64();
        }
    }
}

impl UniformSource for Lcg128 {
    #[inline]
    fn next_f64(&mut self) -> f64 {
        Lcg128::next_f64(self)
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        Lcg128::next_u64(self)
    }

    #[inline]
    fn fill_f64(&mut self, dest: &mut [f64]) {
        Lcg128::fill_f64(self, dest);
    }
}

/// The positioned generator handed to a user realization routine.
///
/// Wraps an [`Lcg128`] that has been leapt to the start of a
/// "realizations" subsequence, remembers its [`StreamId`], and counts
/// how many base random numbers the realization has consumed so that
/// budget exhaustion (more draws than the leap length `n_r`) is
/// detectable instead of silently overlapping the next realization's
/// subsequence.
///
/// # Examples
///
/// ```
/// use parmonc_rng::{StreamHierarchy, StreamId, UniformSource};
///
/// let h = StreamHierarchy::default();
/// let mut s = h.realization_stream(StreamId::new(0, 0, 0)).unwrap();
/// let a = s.next_f64(); // the paper's `a = rnd128();`
/// assert!(a > 0.0 && a < 1.0);
/// assert_eq!(s.drawn(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealizationStream {
    rng: Lcg128,
    id: StreamId,
    budget: u128,
    drawn: u64,
}

impl RealizationStream {
    /// Assembles a stream from a positioned generator (crate-internal
    /// construction path used by
    /// [`StreamHierarchy`](crate::StreamHierarchy)).
    #[inline]
    pub(crate) fn from_parts(rng: Lcg128, id: StreamId, budget: u128) -> Self {
        Self {
            rng,
            id,
            budget,
            drawn: 0,
        }
    }

    /// The address of this stream in the hierarchy.
    #[must_use]
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// How many base random numbers have been drawn so far.
    #[must_use]
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// The number of base random numbers this realization may draw
    /// before it would run into the next realization's subsequence
    /// (`n_r`, default `2^43`).
    #[must_use]
    pub fn budget(&self) -> u128 {
        self.budget
    }

    /// Whether the realization has exceeded its subsequence budget.
    ///
    /// The paper notes a single realization "may demand a quantity of
    /// base random numbers comparable with the whole period" of short
    /// generators — with `n_r = 2^43` exhaustion is practically
    /// impossible, but the check keeps the overlap failure mode visible
    /// for tiny custom leap configurations.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        u128::from(self.drawn) >= self.budget
    }

    /// Advances and returns the raw 128-bit state (test/diagnostic use).
    #[inline]
    pub fn next_raw(&mut self) -> u128 {
        self.drawn += 1;
        self.rng.next_raw()
    }

    /// Returns the next base random number — the `rnd128()` of the
    /// paper — in `(0, 1]`: exactly `1.0` with probability `2^-53` (see
    /// [`Lcg128::next_f64`]), so guard `ln(1 − alpha)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.drawn += 1;
        self.rng.next_f64()
    }

    /// Returns the next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.drawn += 1;
        self.rng.next_u64()
    }

    /// Fills `dest` with consecutive base random numbers using the
    /// batched [`Lcg128::fill_f64`] path — bitwise identical to calling
    /// [`Self::next_f64`] `dest.len()` times, including the draw
    /// accounting against the subsequence budget.
    pub fn fill_f64(&mut self, dest: &mut [f64]) {
        self.rng.fill_f64(dest);
        self.drawn = self
            .drawn
            .saturating_add(u64::try_from(dest.len()).unwrap_or(u64::MAX));
    }
}

impl UniformSource for RealizationStream {
    #[inline]
    fn next_f64(&mut self) -> f64 {
        RealizationStream::next_f64(self)
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        RealizationStream::next_u64(self)
    }

    #[inline]
    fn fill_f64(&mut self, dest: &mut [f64]) {
        RealizationStream::fill_f64(self, dest);
    }
}

impl Iterator for RealizationStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.is_exhausted() {
            None
        } else {
            Some(RealizationStream::next_f64(self))
        }
    }
}

impl fmt::Display for RealizationStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream {} ({} drawn)", self.id, self.drawn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{LeapConfig, StreamHierarchy};

    fn stream(e: u64, p: u64, r: u64) -> RealizationStream {
        StreamHierarchy::default()
            .realization_stream(StreamId::new(e, p, r))
            .unwrap()
    }

    #[test]
    fn counts_draws() {
        let mut s = stream(0, 0, 0);
        assert_eq!(s.drawn(), 0);
        let _ = s.next_f64();
        let _ = s.next_u64();
        let _ = s.next_raw();
        assert_eq!(s.drawn(), 3);
    }

    #[test]
    fn budget_is_realization_leap() {
        let s = stream(0, 0, 0);
        assert_eq!(s.budget(), 1u128 << 43);
        assert!(!s.is_exhausted());
    }

    #[test]
    fn iterator_stops_at_budget() {
        let cfg = LeapConfig::new(12, 8, 3).unwrap(); // budget 2^3 = 8
        let h = StreamHierarchy::new(cfg);
        let s = h.realization_stream(StreamId::new(0, 0, 0)).unwrap();
        let drawn: Vec<f64> = s.collect();
        assert_eq!(drawn.len(), 8);
    }

    #[test]
    fn fill_f64_default_impl() {
        let mut s = stream(0, 0, 0);
        let mut buf = [0.0f64; 16];
        s.fill_f64(&mut buf);
        assert!(buf.iter().all(|a| *a > 0.0 && *a < 1.0));
        assert_eq!(s.drawn(), 16);
    }

    #[test]
    fn fill_f64_matches_scalar_draws_and_accounting() {
        // Lengths straddling the 4-lane boundary, on a stream that has
        // already consumed a few draws.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 63, 64, 65, 100] {
            let mut batched = stream(1, 2, 3);
            let _ = batched.next_f64();
            let mut scalar = batched.clone();
            let mut buf = vec![0.0f64; len];
            batched.fill_f64(&mut buf);
            for (i, x) in buf.iter().enumerate() {
                assert_eq!(*x, scalar.next_f64(), "len={len} draw {i} differs");
            }
            assert_eq!(batched, scalar, "len={len} state/accounting diverged");
        }
    }

    #[test]
    fn fill_f64_respects_exhaustion_accounting() {
        let cfg = LeapConfig::new(12, 8, 3).unwrap(); // budget 2^3 = 8
        let h = StreamHierarchy::new(cfg);
        let mut s = h.realization_stream(StreamId::new(0, 0, 0)).unwrap();
        let mut buf = [0.0f64; 8];
        s.fill_f64(&mut buf);
        assert_eq!(s.drawn(), 8);
        assert!(s.is_exhausted());
    }

    #[test]
    fn different_streams_differ() {
        let a: Vec<u128> = {
            let mut s = stream(0, 0, 0);
            (0..8).map(|_| s.next_raw()).collect()
        };
        let b: Vec<u128> = {
            let mut s = stream(0, 0, 1);
            (0..8).map(|_| s.next_raw()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn display_mentions_id_and_draws() {
        let mut s = stream(1, 2, 3);
        let _ = s.next_f64();
        assert_eq!(s.to_string(), "stream e1/p2/r3 (1 drawn)");
    }

    #[test]
    fn uniform_source_is_object_safe() {
        // The trait is used as `&mut dyn UniformSource` in generic
        // workload plumbing; keep it object safe.
        let mut s = stream(0, 0, 0);
        let dynamic: &mut dyn UniformSource = &mut s;
        assert!(dynamic.next_f64() > 0.0);
    }
}

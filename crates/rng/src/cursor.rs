//! Incremental advancement through the leapfrog hierarchy.
//!
//! [`StreamHierarchy::realization_stream`] positions every stream from
//! scratch with a jump-table walk over the composite offset (see
//! [`crate::jump::JumpTable`]) — one 128-bit multiply per nonzero
//! byte of the exponent. That is the right tool for random access,
//! but the runner's hot loop consumes realization streams *in order*
//! (`r`, `r+1`, `r+2`, …), where each next starting state is just the
//! previous one multiplied by the precomputed realization leap
//! `A(n_r)`. A [`StreamCursor`] exploits that: it walks rank-local
//! streams with **one** 128-bit multiply per step, and likewise steps
//! processor and experiment levels with one multiply each, while
//! producing streams bitwise identical to the from-scratch API.
//!
//! [`StreamHierarchy::realization_stream`]: crate::StreamHierarchy::realization_stream

use crate::hierarchy::{HierarchyError, LeapConfig, StreamId};
use crate::lcg128::Lcg128;
use crate::stream::RealizationStream;

/// An in-order walker over the realization streams of a
/// [`StreamHierarchy`](crate::StreamHierarchy).
///
/// Obtained from [`StreamHierarchy::cursor`]; positioned once with a
/// jump-table walk per level, then advanced incrementally: each
/// [`next_stream`](Self::next_stream) costs a single 128-bit multiply
/// instead of a fresh exponentiation, and
/// [`next_processor`](Self::next_processor) /
/// [`next_experiment`](Self::next_experiment) step the outer hierarchy
/// levels with one multiply each. Capacity accounting matches the
/// from-scratch API exactly: requesting a stream past a level's
/// capacity yields the same [`HierarchyError::OutOfCapacity`] that
/// [`realization_stream`](crate::StreamHierarchy::realization_stream)
/// would return for that address.
///
/// [`StreamHierarchy::cursor`]: crate::StreamHierarchy::cursor
///
/// # Examples
///
/// ```
/// use parmonc_rng::{StreamHierarchy, StreamId};
///
/// let h = StreamHierarchy::default();
/// let mut cursor = h.cursor(StreamId::new(0, 3, 0)).unwrap();
/// for r in 0..100 {
///     let incremental = cursor.next_stream().unwrap();
///     let scratch = h.realization_stream(StreamId::new(0, 3, r)).unwrap();
///     assert_eq!(incremental, scratch);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCursor {
    config: LeapConfig,
    multiplier: u128,
    leap_e: u128,
    leap_p: u128,
    leap_r: u128,
    /// Draw budget of every produced stream (`2^nr`).
    budget: u128,
    /// Address of the stream `next_stream` will produce.
    id: StreamId,
    /// Starting state of experiment `id.experiment` (position `(e,0,0)`).
    experiment_start: u128,
    /// Starting state of processor `id.processor` (position `(e,p,0)`).
    processor_start: u128,
    /// Starting state of realization `id.realization` — the state
    /// `next_stream` will hand out.
    state: u128,
}

impl StreamCursor {
    /// Crate-internal constructor used by
    /// [`StreamHierarchy::cursor`](crate::StreamHierarchy::cursor); the
    /// three states must already be positioned at `id` and its
    /// enclosing level heads.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_positioned(
        config: LeapConfig,
        multiplier: u128,
        leaps: (u128, u128, u128),
        id: StreamId,
        experiment_start: u128,
        processor_start: u128,
        state: u128,
    ) -> Self {
        Self {
            config,
            multiplier,
            leap_e: leaps.0,
            leap_p: leaps.1,
            leap_r: leaps.2,
            budget: 1u128 << config.nr(),
            id,
            experiment_start,
            processor_start,
            state,
        }
    }

    /// The address of the stream the next [`next_stream`](Self::next_stream)
    /// call will produce.
    #[must_use]
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// The starting state the next produced stream will begin from.
    /// Always equal to
    /// [`stream_state(self.id())`](crate::StreamHierarchy::stream_state).
    #[must_use]
    pub fn state(&self) -> u128 {
        self.state
    }

    /// Produces the realization stream at the current address and
    /// advances the cursor to the next realization — one 128-bit
    /// multiply.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::OutOfCapacity`] when the realization
    /// index has run past the level's capacity, exactly as
    /// [`realization_stream`](crate::StreamHierarchy::realization_stream)
    /// would for the same address; the cursor is left unchanged, so a
    /// caller can recover with [`next_processor`](Self::next_processor).
    #[inline]
    pub fn next_stream(&mut self) -> Result<RealizationStream, HierarchyError> {
        let capacity = self.config.realizations();
        if self.id.realization >= capacity {
            return Err(HierarchyError::OutOfCapacity {
                level: "realization",
                index: self.id.realization,
                capacity,
            });
        }
        let stream = RealizationStream::from_parts(
            Lcg128::with_state_and_multiplier(self.state, self.multiplier),
            self.id,
            self.budget,
        );
        self.state = self.state.wrapping_mul(self.leap_r);
        self.id.realization += 1;
        Ok(stream)
    }

    /// [`next_stream`](Self::next_stream) into a stream the caller
    /// already holds: overwrites `stream` with the realization stream at
    /// the current address and advances the cursor.
    ///
    /// Every field of `stream` is overwritten — generator state,
    /// multiplier, address, budget, and the draw count (to zero) — so
    /// nothing a realization routine did to it survives into the next
    /// realization, not even replacing it wholesale with a stream from
    /// another hierarchy. The result is `==` the stream
    /// [`next_stream`](Self::next_stream) would have returned, because it
    /// is that stream: one step, two ways to receive it.
    ///
    /// Cost: the capacity compare, the generator's odd-state assertion
    /// and one 128-bit multiply, all inlined into the caller's loop; the
    /// stream is written where it lives instead of being returned
    /// through the stack. This is the runner's per-realization step.
    ///
    /// # Errors
    ///
    /// Returns the same [`HierarchyError::OutOfCapacity`] as
    /// [`next_stream`](Self::next_stream); both the cursor and `stream`
    /// are left unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use parmonc_rng::{StreamHierarchy, StreamId};
    ///
    /// let h = StreamHierarchy::default();
    /// let mut cursor = h.cursor(StreamId::new(0, 3, 0)).unwrap();
    /// let mut stream = h.realization_stream(StreamId::new(0, 3, 0)).unwrap();
    /// for r in 0..100 {
    ///     cursor.next_into(&mut stream).unwrap();
    ///     assert_eq!(stream, h.realization_stream(StreamId::new(0, 3, r)).unwrap());
    ///     stream.next_f64();
    /// }
    /// ```
    #[inline]
    pub fn next_into(&mut self, stream: &mut RealizationStream) -> Result<(), HierarchyError> {
        *stream = self.next_stream()?;
        Ok(())
    }

    /// Moves the cursor to the head of the next processor subsequence
    /// (`(e, p+1, 0)`) — one 128-bit multiply.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::OutOfCapacity`] when the next
    /// processor index would exceed the level's capacity; the cursor is
    /// left unchanged.
    pub fn next_processor(&mut self) -> Result<(), HierarchyError> {
        let capacity = self.config.processors();
        let next = self.id.processor + 1;
        if next >= capacity {
            return Err(HierarchyError::OutOfCapacity {
                level: "processor",
                index: next,
                capacity,
            });
        }
        self.processor_start = self.processor_start.wrapping_mul(self.leap_p);
        self.state = self.processor_start;
        self.id = StreamId::new(self.id.experiment, next, 0);
        Ok(())
    }

    /// Moves the cursor to the head of the next experiment subsequence
    /// (`(e+1, 0, 0)`) — one 128-bit multiply.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::OutOfCapacity`] when the next
    /// experiment index would exceed the level's capacity; the cursor
    /// is left unchanged.
    pub fn next_experiment(&mut self) -> Result<(), HierarchyError> {
        let capacity = self.config.experiments();
        let next = self.id.experiment + 1;
        if next >= capacity {
            return Err(HierarchyError::OutOfCapacity {
                level: "experiment",
                index: next,
                capacity,
            });
        }
        self.experiment_start = self.experiment_start.wrapping_mul(self.leap_e);
        self.processor_start = self.experiment_start;
        self.state = self.experiment_start;
        self.id = StreamId::new(next, 0, 0);
        Ok(())
    }
}

/// `next_stream` until the realization level is exhausted.
impl Iterator for StreamCursor {
    type Item = RealizationStream;

    fn next(&mut self) -> Option<RealizationStream> {
        self.next_stream().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::StreamHierarchy;
    use parmonc_testkit::prelude::*;

    #[test]
    fn cursor_streams_match_from_scratch_api() {
        let h = StreamHierarchy::default();
        let mut cursor = h.cursor(StreamId::new(2, 5, 10)).unwrap();
        for r in 10..80 {
            let incremental = cursor.next_stream().unwrap();
            let scratch = h.realization_stream(StreamId::new(2, 5, r)).unwrap();
            assert_eq!(incremental, scratch, "r={r}");
        }
    }

    #[test]
    fn cursor_walks_all_three_levels() {
        // Small leaps: 16 processors per experiment, 16 realizations
        // per processor (the experiment level saturates, so bound it).
        let cfg = LeapConfig::new(12, 8, 4).unwrap();
        let h = StreamHierarchy::new(cfg);
        let mut cursor = h.cursor(StreamId::default()).unwrap();
        for e in 0..3u64 {
            for p in 0..h.config().processors() {
                for r in 0..h.config().realizations() {
                    let id = StreamId::new(e, p, r);
                    assert_eq!(cursor.id(), id);
                    assert_eq!(cursor.state(), h.stream_state(id).unwrap());
                    let incremental = cursor.next_stream().unwrap();
                    assert_eq!(incremental, h.realization_stream(id).unwrap());
                }
                assert!(matches!(
                    cursor.next_stream(),
                    Err(HierarchyError::OutOfCapacity {
                        level: "realization",
                        ..
                    })
                ));
                if p + 1 < h.config().processors() {
                    cursor.next_processor().unwrap();
                }
            }
            assert!(matches!(
                cursor.next_processor(),
                Err(HierarchyError::OutOfCapacity {
                    level: "processor",
                    ..
                })
            ));
            cursor.next_experiment().unwrap();
        }
    }

    #[test]
    fn experiment_capacity_is_enforced() {
        // ne = 124 leaves exactly 2^(125-124) = 2 experiments.
        let cfg = LeapConfig::new(124, 98, 43).unwrap();
        let h = StreamHierarchy::new(cfg);
        let mut cursor = h.cursor(StreamId::new(1, 0, 0)).unwrap();
        assert_eq!(
            cursor.next_experiment(),
            Err(HierarchyError::OutOfCapacity {
                level: "experiment",
                index: 2,
                capacity: 2,
            })
        );
        // The failed advance left the cursor intact.
        assert_eq!(
            cursor.next_stream().unwrap(),
            h.realization_stream(StreamId::new(1, 0, 0)).unwrap()
        );
    }

    #[test]
    fn exhaustion_errors_match_from_scratch_errors() {
        let cfg = LeapConfig::new(12, 8, 4).unwrap();
        let h = StreamHierarchy::new(cfg);
        let last = h.config().realizations() - 1;
        let mut cursor = h.cursor(StreamId::new(0, 0, last)).unwrap();
        let _ = cursor.next_stream().unwrap();
        assert_eq!(
            cursor.next_stream().unwrap_err(),
            h.realization_stream(StreamId::new(0, 0, last + 1))
                .unwrap_err()
        );
    }

    #[test]
    fn failed_advance_leaves_cursor_usable() {
        let cfg = LeapConfig::new(12, 8, 4).unwrap();
        let h = StreamHierarchy::new(cfg);
        let last = h.config().realizations() - 1;
        let mut cursor = h.cursor(StreamId::new(0, 0, last)).unwrap();
        let _ = cursor.next_stream().unwrap();
        assert!(cursor.next_stream().is_err());
        cursor.next_processor().unwrap();
        assert_eq!(
            cursor.next_stream().unwrap(),
            h.realization_stream(StreamId::new(0, 1, 0)).unwrap()
        );
    }

    #[test]
    fn cursor_rejects_out_of_capacity_start() {
        let h = StreamHierarchy::default();
        assert!(h.cursor(StreamId::new(1 << 10, 0, 0)).is_err());
    }

    #[test]
    fn iterator_yields_budgeted_streams() {
        let cfg = LeapConfig::new(12, 8, 4).unwrap();
        let h = StreamHierarchy::new(cfg);
        let cursor = h.cursor(StreamId::default()).unwrap();
        let streams: Vec<RealizationStream> = cursor.collect();
        assert_eq!(streams.len() as u64, h.config().realizations());
        assert!(streams.iter().all(|s| s.budget() == 1 << 4));
    }

    #[test]
    fn next_into_overwrites_a_drawn_foreign_stream() {
        let h = StreamHierarchy::default();
        let id = StreamId::new(1, 2, 3);
        let mut cursor = h.cursor(id).unwrap();
        // Drawn from, then replaced by a stream of another hierarchy
        // (other multiplier leaps, other budget, other address).
        let mut target = h.realization_stream(StreamId::new(0, 0, 0)).unwrap();
        for _ in 0..5 {
            target.next_f64();
        }
        let foreign = StreamHierarchy::new(LeapConfig::new(12, 8, 4).unwrap());
        target = foreign.realization_stream(StreamId::new(2, 1, 7)).unwrap();
        target.next_u64();
        assert_ne!(target.budget(), h.realization_stream(id).unwrap().budget());
        cursor.next_into(&mut target).unwrap();
        // `==` covers every field, the draw count included.
        assert_eq!(target, h.realization_stream(id).unwrap());
    }

    proptest! {
        /// Arbitrary interleavings of realization (returned or in place),
        /// processor and experiment advancement stay bitwise equal to the
        /// from-scratch API, including stream budgets and draw
        /// accounting; a failed step changes neither the cursor nor the
        /// stream it was to overwrite.
        #[test]
        fn random_walks_match_from_scratch(
            start_e in 0u64..4,
            start_p in 0u64..4,
            start_r in 0u64..8,
            moves in collection::vec(0u8..10, 1..60),
        ) {
            let cfg = LeapConfig::new(12, 8, 4).unwrap();
            let h = StreamHierarchy::new(cfg);
            let start = StreamId::new(start_e, start_p, start_r);
            let mut cursor = h.cursor(start).unwrap();
            // The stream `next_into` overwrites; drawn from after each step.
            let mut target = h.realization_stream(start).unwrap();
            for m in moves {
                match m {
                    // Bias toward realization steps: that is the hot path.
                    0..=3 => {
                        let expected = h.realization_stream(cursor.id());
                        let (before, target_before) = (cursor.clone(), target.clone());
                        match cursor.next_into(&mut target) {
                            Ok(()) => {
                                let mut e = expected.unwrap();
                                prop_assert_eq!(&target, &e);
                                for _ in 0..3 {
                                    prop_assert_eq!(target.next_raw(), e.next_raw());
                                }
                                prop_assert_eq!(target.drawn(), e.drawn());
                            }
                            Err(err) => {
                                prop_assert_eq!(err, expected.unwrap_err());
                                prop_assert_eq!(&cursor, &before);
                                prop_assert_eq!(&target, &target_before);
                            }
                        }
                    }
                    4..=7 => {
                        let expected = h.realization_stream(cursor.id());
                        match cursor.next_stream() {
                            Ok(mut s) => {
                                let mut e = expected.unwrap();
                                prop_assert_eq!(&s, &e);
                                // A few draws agree too.
                                for _ in 0..4 {
                                    prop_assert_eq!(s.next_raw(), e.next_raw());
                                }
                                prop_assert_eq!(s.drawn(), e.drawn());
                            }
                            Err(err) => prop_assert_eq!(err, expected.unwrap_err()),
                        }
                    }
                    8 => {
                        let before = cursor.clone();
                        if cursor.next_processor().is_err() {
                            prop_assert_eq!(&cursor, &before);
                        }
                    }
                    _ => {
                        let before = cursor.clone();
                        if cursor.next_experiment().is_err() {
                            prop_assert_eq!(&cursor, &before);
                        }
                    }
                }
                // Invariant: the tracked state always matches the
                // from-scratch computation for the current address
                // (checkable only while the address is in capacity).
                if let Ok(expected_state) = h.stream_state(cursor.id()) {
                    prop_assert_eq!(cursor.state(), expected_state);
                }
            }
        }
    }
}

//! The three-level leapfrog hierarchy of embedded subsequences.
//!
//! Paper Section 2.4: the general sequence `{alpha_k}` is divided into
//! nested subsequences by "leaps" computed with the auxiliary generator
//! (formula (8)):
//!
//! * "experiments" subsequences — leap `n_e` (default `2^115`),
//! * "processors" subsequences inside each experiment — leap `n_p`
//!   (default `2^98`),
//! * "realizations" subsequences inside each processor — leap `n_r`
//!   (default `2^43`).
//!
//! With the defaults and the usable half-period `2^125` one can perform
//! `2^125 / 2^115 = 2^10 ≈ 10^3` stochastic experiments, use
//! `2^115 / 2^98 = 2^17 ≈ 10^5` processors per experiment, and simulate
//! `2^98 / 2^43 = 2^55 ≈ 10^16` realizations per processor — exactly the
//! capacities quoted in the paper.

use core::fmt;
use std::sync::Arc;

use crate::cursor::StreamCursor;
use crate::jump::JumpTable;
use crate::lcg128::Lcg128;
use crate::multiplier::{DEFAULT_MULTIPLIER, USABLE_EXPONENT};
use crate::stream::RealizationStream;

/// Exponents of the three leap lengths (`n_e = 2^ne`, `n_p = 2^np`,
/// `n_r = 2^nr`).
///
/// This is the value the paper's `genparam ne np nr` command
/// parameterizes (Section 3.5). The defaults are the paper's defaults.
///
/// # Examples
///
/// ```
/// use parmonc_rng::LeapConfig;
///
/// let cfg = LeapConfig::default();
/// assert_eq!((cfg.ne(), cfg.np(), cfg.nr()), (115, 98, 43));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeapConfig {
    ne: u32,
    np: u32,
    nr: u32,
}

/// Errors produced when building or addressing a [`StreamHierarchy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// The leap exponents are not strictly decreasing
    /// (`ne > np > nr` is required so the subsequences nest).
    NotNested {
        /// The offending `(ne, np, nr)` triple.
        exponents: (u32, u32, u32),
    },
    /// An exponent exceeds the usable half-period exponent (125).
    ExponentTooLarge {
        /// The offending exponent.
        exponent: u32,
    },
    /// A stream coordinate is outside the capacity implied by the leaps.
    OutOfCapacity {
        /// Which level overflowed: `"experiment"`, `"processor"` or
        /// `"realization"`.
        level: &'static str,
        /// The requested index.
        index: u64,
        /// The capacity of that level (as an exponent of 2), if it fits
        /// in `u64`; `None` means the capacity exceeds `u64::MAX` and the
        /// index can never overflow it.
        capacity: u64,
    },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotNested { exponents } => write!(
                f,
                "leap exponents must satisfy ne > np > nr, got ne={} np={} nr={}",
                exponents.0, exponents.1, exponents.2
            ),
            Self::ExponentTooLarge { exponent } => write!(
                f,
                "leap exponent {exponent} exceeds the usable half-period exponent {USABLE_EXPONENT}"
            ),
            Self::OutOfCapacity {
                level,
                index,
                capacity,
            } => write!(f, "{level} index {index} out of capacity {capacity}"),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl LeapConfig {
    /// The paper's default exponents: `ne = 115`, `np = 98`, `nr = 43`.
    pub const DEFAULT: Self = Self {
        ne: 115,
        np: 98,
        nr: 43,
    };

    /// Creates a leap configuration from the three exponents.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::NotNested`] unless `ne > np > nr`, and
    /// [`HierarchyError::ExponentTooLarge`] if any exponent exceeds 125
    /// (only the first half of the period `2^126` is used).
    pub fn new(ne: u32, np: u32, nr: u32) -> Result<Self, HierarchyError> {
        for e in [ne, np, nr] {
            if e > USABLE_EXPONENT {
                return Err(HierarchyError::ExponentTooLarge { exponent: e });
            }
        }
        if !(ne > np && np > nr) {
            return Err(HierarchyError::NotNested {
                exponents: (ne, np, nr),
            });
        }
        Ok(Self { ne, np, nr })
    }

    /// Exponent of the "experiments" leap (`n_e = 2^ne`).
    #[must_use]
    pub fn ne(&self) -> u32 {
        self.ne
    }

    /// Exponent of the "processors" leap (`n_p = 2^np`).
    #[must_use]
    pub fn np(&self) -> u32 {
        self.np
    }

    /// Exponent of the "realizations" leap (`n_r = 2^nr`).
    #[must_use]
    pub fn nr(&self) -> u32 {
        self.nr
    }

    /// Number of stochastic experiments available, as an exponent:
    /// `2^125 / 2^ne` experiments, i.e. `125 - ne` (paper: `2^10`).
    #[must_use]
    pub fn experiments_exponent(&self) -> u32 {
        USABLE_EXPONENT - self.ne
    }

    /// Number of processors per experiment, as an exponent:
    /// `ne - np` (paper: `2^17`).
    #[must_use]
    pub fn processors_exponent(&self) -> u32 {
        self.ne - self.np
    }

    /// Number of realizations per processor, as an exponent:
    /// `np - nr` (paper: `2^55`).
    #[must_use]
    pub fn realizations_exponent(&self) -> u32 {
        self.np - self.nr
    }

    /// Number of base random numbers available to a single realization:
    /// the realization leap itself, `2^nr` (paper: `2^43 ≈ 10^13`).
    #[must_use]
    pub fn numbers_per_realization_exponent(&self) -> u32 {
        self.nr
    }

    fn capacity(exp: u32) -> u64 {
        if exp >= 64 {
            u64::MAX
        } else {
            1u64 << exp
        }
    }

    /// Capacity of the experiment level as a count (saturating at
    /// `u64::MAX`).
    #[must_use]
    pub fn experiments(&self) -> u64 {
        Self::capacity(self.experiments_exponent())
    }

    /// Capacity of the processor level as a count (saturating).
    #[must_use]
    pub fn processors(&self) -> u64 {
        Self::capacity(self.processors_exponent())
    }

    /// Capacity of the realization level as a count (saturating).
    #[must_use]
    pub fn realizations(&self) -> u64 {
        Self::capacity(self.realizations_exponent())
    }
}

impl Default for LeapConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Address of a realization stream in the hierarchy: which experiment,
/// which processor within it, which realization on that processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StreamId {
    /// The "experiments" subsequence number (the `seqnum` argument of
    /// `parmoncc`/`parmoncf`).
    pub experiment: u64,
    /// The "processors" subsequence number (the MPI parallel branch
    /// number in the paper).
    pub processor: u64,
    /// The "realizations" subsequence number on that processor.
    pub realization: u64,
}

impl StreamId {
    /// Creates a stream address.
    #[must_use]
    pub fn new(experiment: u64, processor: u64, realization: u64) -> Self {
        Self {
            experiment,
            processor,
            realization,
        }
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "e{}/p{}/r{}",
            self.experiment, self.processor, self.realization
        )
    }
}

/// The leapfrog stream factory: maps [`StreamId`] addresses to
/// positioned generators.
///
/// A stream's starting position in the general sequence is
/// `experiment·n_e + processor·n_p + realization·n_r`, i.e. the state is
/// `A^offset · u_0` with `offset = (e << ne) + (p << np) + (r << nr)`
/// (valid modulo `2^128` because the order of `A` divides it). The
/// hierarchy holds the process-wide precomputed [`JumpTable`] for its
/// base multiplier, so addressing a stream costs at most one multiply
/// per nonzero nibble of the offset — no `modpow` squarings on any
/// stream-creation path.
///
/// # Examples
///
/// ```
/// use parmonc_rng::{StreamHierarchy, StreamId};
///
/// let h = StreamHierarchy::default();
/// let mut s0 = h.realization_stream(StreamId::new(0, 0, 0)).unwrap();
/// let mut s1 = h.realization_stream(StreamId::new(0, 0, 1)).unwrap();
/// // Distinct realizations draw from disjoint subsequences.
/// assert_ne!(s0.next_f64(), s1.next_f64());
/// ```
#[derive(Debug, Clone)]
pub struct StreamHierarchy {
    config: LeapConfig,
    multiplier: u128,
    leap_e: u128,
    leap_p: u128,
    leap_r: u128,
    table: Arc<JumpTable>,
}

impl PartialEq for StreamHierarchy {
    fn eq(&self, other: &Self) -> bool {
        // The leap multipliers and table are derived from (config,
        // multiplier); comparing the inputs is complete.
        self.config == other.config && self.multiplier == other.multiplier
    }
}

impl Eq for StreamHierarchy {}

impl StreamHierarchy {
    /// Builds a hierarchy with the given leap configuration and the
    /// default base multiplier.
    #[must_use]
    pub fn new(config: LeapConfig) -> Self {
        Self::with_multiplier(config, DEFAULT_MULTIPLIER)
    }

    /// Builds a hierarchy with a caller-supplied base multiplier
    /// (the `genparam` override path).
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is even.
    #[must_use]
    pub fn with_multiplier(config: LeapConfig, multiplier: u128) -> Self {
        assert!(multiplier & 1 == 1, "multiplier must be odd");
        let table = JumpTable::shared(multiplier);
        Self {
            config,
            multiplier,
            // The leap multipliers are rows of the jump table:
            // A(n_x) = A^(2^nx) = pow2[nx].
            leap_e: table.pow2(config.ne()),
            leap_p: table.pow2(config.np()),
            leap_r: table.pow2(config.nr()),
            table,
        }
    }

    /// The leap configuration this hierarchy was built from.
    #[must_use]
    pub fn config(&self) -> LeapConfig {
        self.config
    }

    /// The base multiplier `A`.
    #[must_use]
    pub fn multiplier(&self) -> u128 {
        self.multiplier
    }

    /// The three leap multipliers `(A(n_e), A(n_p), A(n_r))`.
    #[must_use]
    pub fn leap_multipliers(&self) -> (u128, u128, u128) {
        (self.leap_e, self.leap_p, self.leap_r)
    }

    fn check(&self, id: StreamId) -> Result<(), HierarchyError> {
        let c = &self.config;
        let levels = [
            ("experiment", id.experiment, c.experiments()),
            ("processor", id.processor, c.processors()),
            ("realization", id.realization, c.realizations()),
        ];
        for (level, index, capacity) in levels {
            if index >= capacity {
                return Err(HierarchyError::OutOfCapacity {
                    level,
                    index,
                    capacity,
                });
            }
        }
        Ok(())
    }

    /// Starting state `u` of the subsequence addressed by `id`:
    /// `u = A(n_e)^e · A(n_p)^p · A(n_r)^r · u_0 (mod 2^128)`,
    /// computed as the single power `A^((e<<ne)+(p<<np)+(r<<nr))` via
    /// the precomputed jump table — the composite-exponent identity is
    /// exact because the multiplicative order of `A` divides `2^128`.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::OutOfCapacity`] if any coordinate of
    /// `id` exceeds the level's capacity.
    pub fn stream_state(&self, id: StreamId) -> Result<u128, HierarchyError> {
        self.check(id)?;
        Ok(self.table.power(self.offset(id)))
    }

    /// The composite jump offset of `id` in the general sequence,
    /// modulo `2^128`.
    fn offset(&self, id: StreamId) -> u128 {
        let c = &self.config;
        (u128::from(id.experiment) << c.ne())
            .wrapping_add(u128::from(id.processor) << c.np())
            .wrapping_add(u128::from(id.realization) << c.nr())
    }

    /// Creates the generator for the realization stream addressed by
    /// `id`.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::OutOfCapacity`] if any coordinate of
    /// `id` exceeds the level's capacity.
    pub fn realization_stream(&self, id: StreamId) -> Result<RealizationStream, HierarchyError> {
        let state = self.stream_state(id)?;
        Ok(RealizationStream::from_parts(
            Lcg128::with_state_and_multiplier(state, self.multiplier),
            id,
            1u128 << self.config.nr(),
        ))
    }

    /// Creates an incremental [`StreamCursor`] positioned at `start`.
    ///
    /// The cursor pays three jump-table walks once, here; afterwards
    /// every [`StreamCursor::next_stream`] costs a single 128-bit
    /// multiply and produces streams bitwise identical to
    /// [`realization_stream`](Self::realization_stream). This is the
    /// fast path for the runner's in-order consumption of rank-local
    /// realization streams.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::OutOfCapacity`] if any coordinate of
    /// `start` exceeds the level's capacity.
    pub fn cursor(&self, start: StreamId) -> Result<StreamCursor, HierarchyError> {
        self.check(start)?;
        let c = &self.config;
        let experiment_start = self.table.power(u128::from(start.experiment) << c.ne());
        let processor_start =
            experiment_start.wrapping_mul(self.table.power(u128::from(start.processor) << c.np()));
        let state =
            processor_start.wrapping_mul(self.table.power(u128::from(start.realization) << c.nr()));
        Ok(StreamCursor::from_positioned(
            self.config,
            self.multiplier,
            (self.leap_e, self.leap_p, self.leap_r),
            start,
            experiment_start,
            processor_start,
            state,
        ))
    }
}

impl Default for StreamHierarchy {
    fn default() -> Self {
        Self::new(LeapConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::modpow;
    use parmonc_testkit::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn default_capacities_match_paper() {
        // Paper Section 2.4: 2^10 experiments, 2^17 processors per
        // experiment, 2^55 realizations per processor, 2^43 numbers per
        // realization.
        let c = LeapConfig::default();
        assert_eq!(c.experiments_exponent(), 10);
        assert_eq!(c.processors_exponent(), 17);
        assert_eq!(c.realizations_exponent(), 55);
        assert_eq!(c.numbers_per_realization_exponent(), 43);
        assert_eq!(c.experiments(), 1 << 10);
        assert_eq!(c.processors(), 1 << 17);
        assert_eq!(c.realizations(), 1 << 55);
    }

    #[test]
    fn realizations_capacity_is_2_pow_55() {
        // 55 < 64, so the count is exact, not saturated.
        let c = LeapConfig::default();
        assert_eq!(c.realizations(), 1u64 << 55);
    }

    #[test]
    fn rejects_non_nested_exponents() {
        assert!(matches!(
            LeapConfig::new(50, 60, 40),
            Err(HierarchyError::NotNested { .. })
        ));
        assert!(matches!(
            LeapConfig::new(50, 50, 40),
            Err(HierarchyError::NotNested { .. })
        ));
    }

    #[test]
    fn rejects_oversized_exponents() {
        assert!(matches!(
            LeapConfig::new(126, 98, 43),
            Err(HierarchyError::ExponentTooLarge { exponent: 126 })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = LeapConfig::new(40, 50, 30).unwrap_err();
        assert!(e.to_string().contains("ne > np > nr"));
        let h = StreamHierarchy::default();
        let e = h.stream_state(StreamId::new(1 << 11, 0, 0)).unwrap_err();
        assert!(e.to_string().contains("experiment"));
    }

    #[test]
    fn stream_state_is_product_of_leaps() {
        let h = StreamHierarchy::default();
        let (le, lp, lr) = h.leap_multipliers();
        let id = StreamId::new(3, 5, 7);
        let expected = modpow(le, 3)
            .wrapping_mul(modpow(lp, 5))
            .wrapping_mul(modpow(lr, 7));
        assert_eq!(h.stream_state(id).unwrap(), expected);
    }

    #[test]
    fn stream_origin_is_u0() {
        let h = StreamHierarchy::default();
        assert_eq!(h.stream_state(StreamId::default()).unwrap(), 1);
    }

    #[test]
    fn capacity_enforced_per_level() {
        let h = StreamHierarchy::default();
        assert!(h.stream_state(StreamId::new(1 << 10, 0, 0)).is_err());
        assert!(h.stream_state(StreamId::new(0, 1 << 17, 0)).is_err());
        assert!(h
            .stream_state(StreamId::new((1 << 10) - 1, (1 << 17) - 1, 0))
            .is_ok());
    }

    #[test]
    fn small_hierarchy_streams_tile_the_sequence_without_overlap() {
        // With tiny leaps we can enumerate the actual subsequence
        // positions and verify realization streams are disjoint,
        // consecutive blocks of the processor stream.
        let cfg = LeapConfig::new(12, 8, 4).unwrap();
        let h = StreamHierarchy::new(cfg);

        // Walk the general sequence directly.
        let mut general = Lcg128::new();
        let sequence: Vec<u128> = (0..(1 << 13)).map(|_| general.next_raw()).collect();

        // Realization r of processor p of experiment e starts at
        // index e*2^12 + p*2^8 + r*2^4 in the general sequence.
        for e in 0..2u64 {
            for p in 0..3u64 {
                for r in 0..4u64 {
                    let mut s = h.realization_stream(StreamId::new(e, p, r)).unwrap();
                    let start = (e << 12) + (p << 8) + (r << 4);
                    for k in 0..16usize {
                        let idx = start as usize + k;
                        // stream_state holds u_start; first draw yields u_{start+1}
                        assert_eq!(
                            s.next_raw(),
                            sequence[idx],
                            "mismatch at e={e} p={p} r={r} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_ids_give_distinct_states() {
        let h = StreamHierarchy::default();
        let mut seen = HashSet::new();
        for e in 0..4 {
            for p in 0..8 {
                for r in 0..8 {
                    let st = h.stream_state(StreamId::new(e, p, r)).unwrap();
                    assert!(seen.insert(st), "state collision at e={e} p={p} r={r}");
                }
            }
        }
    }

    #[test]
    fn stream_id_display() {
        assert_eq!(StreamId::new(2, 7, 1).to_string(), "e2/p7/r1");
    }

    proptest! {
        /// Stream addressing is consistent with jumping the base
        /// generator by the composite offset.
        #[test]
        fn stream_state_matches_jump(e in 0u64..1 << 10, p in 0u64..1 << 17, r in 0u64..1 << 20) {
            let h = StreamHierarchy::default();
            let cfg = h.config();
            let offset = (u128::from(e) << cfg.ne())
                + (u128::from(p) << cfg.np())
                + (u128::from(r) << cfg.nr());
            let mut base = Lcg128::new();
            base.jump(offset);
            prop_assert_eq!(
                h.stream_state(StreamId::new(e, p, r)).unwrap(),
                base.state()
            );
        }

        /// Valid configs always construct; their capacities multiply out
        /// to the usable half-period.
        #[test]
        fn capacities_partition_half_period(nr in 1u32..40, dp in 1u32..40, de in 1u32..40) {
            let np = nr + dp;
            let ne = np + de;
            prop_assume!(ne <= 125);
            let c = LeapConfig::new(ne, np, nr).unwrap();
            prop_assert_eq!(
                c.experiments_exponent() + c.processors_exponent()
                    + c.realizations_exponent() + c.numbers_per_realization_exponent(),
                125
            );
        }
    }
}

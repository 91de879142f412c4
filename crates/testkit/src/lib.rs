//! A zero-dependency property-testing shim exposing the small subset of
//! the `proptest` API this workspace uses.
//!
//! The build environment for this repository has no access to crates.io
//! (and nothing vendored), so every third-party crate must be replaced
//! by std or by in-repo code. The test suites leaned on `proptest` for
//! randomized invariant checks; this crate keeps those tests almost
//! verbatim by re-implementing the used surface:
//!
//! * [`Strategy`] — value generators: numeric ranges (`-1e6f64..1e6`),
//!   [`any`] for primitive types, [`collection::vec`], and tuples;
//! * the [`proptest!`] macro — wraps `fn name(x in strategy, ...)`
//!   test bodies in a deterministic multi-case runner;
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`];
//! * [`TestRunner`] — the explicit-runner API.
//!
//! Beside it sits [`TempDir`], the guard that removes a test's run
//! directory when the test ends.
//!
//! Unlike real proptest there is **no shrinking**: a failing case
//! reports the generated inputs (via `Debug`) and the seed, which is
//! deterministic per test name, so failures reproduce exactly.
//!
//! # Example
//!
//! ```
//! use parmonc_testkit::prelude::*;
//!
//! // In a test module the function would also carry `#[test]`.
//! proptest! {
//!     fn addition_commutes(a in -1e6f64..1e6, b in -1e6f64..1e6) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::fmt;
use std::ops::Range;

mod tempdir;

pub use tempdir::TempDir;

/// Number of random cases each `proptest!` test executes.
pub const DEFAULT_CASES: u32 = 96;

/// A deterministic 64-bit generator (splitmix64) driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `u64` below `bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift rejection-free mapping is fine for tests.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// The error a property case can raise: a failed assertion or a
/// rejected (assumed-away) case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// A `prop_assert*` failed with this message.
    Fail(String),
    /// The case was rejected by `prop_assume!` and does not count.
    Reject,
}

impl TestCaseError {
    /// Builds a failure with a message.
    #[must_use]
    pub fn fail(msg: impl Into<String>) -> Self {
        Self::Fail(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Fail(m) => write!(f, "{m}"),
            Self::Reject => write!(f, "case rejected by prop_assume!"),
        }
    }
}

/// A value generator. Mirrors `proptest::strategy::Strategy` minus
/// shrinking: one method producing a value from the test RNG.
pub trait Strategy {
    /// The generated value type.
    type Value: fmt::Debug;

    /// Draws one value.
    fn draw(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn draw(&self, rng: &mut TestRng) -> Self::Value {
        (**self).draw(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn draw(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.abs_diff(self.start);
                // Wide types draw twice to cover all 128 bits.
                let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                #[allow(clippy::cast_lossless)]
                let off = (wide % (span as u128)) as $t;
                // Offsets stay in range, so plain wrapping add is exact.
                self.start.wrapping_add(off)
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, u128, usize);

macro_rules! signed_range_strategy {
    ($($t:ty : $u:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn draw(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.abs_diff(self.start);
                let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                #[allow(clippy::cast_lossless)]
                let off = (wide % (span as u128)) as $u;
                self.start.wrapping_add(off as $t)
            }
        }
    )+};
}

signed_range_strategy!(i8: u8, i16: u16, i32: u32, i64: u64, isize: usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn draw(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let u = rng.next_f64();
        let v = self.start + u * (self.end - self.start);
        // Floating rounding can land exactly on `end`; fold back inside.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// Types with a default "anything goes" strategy (`proptest::arbitrary`).
pub trait Arbitrary: Sized + fmt::Debug {
    /// Draws an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as usize
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Arbitrary bit patterns, like proptest's `any::<f64>()`: covers
        // subnormals, infinities and NaN payloads. Callers that cannot
        // tolerate NaN filter it themselves (as with real proptest).
        f64::from_bits(rng.next_u64())
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn draw(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `proptest`'s `any::<T>()`: the type's default full-range strategy.
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn draw(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.draw(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (S0 / 0),
    (S0 / 0, S1 / 1),
    (S0 / 0, S1 / 1, S2 / 2),
    (S0 / 0, S1 / 1, S2 / 2, S3 / 3),
    (S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4)
);

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// How many elements a [`fn@vec`] strategy draws: an exact size or a
    /// half-open range, mirroring `proptest::collection::SizeRange`.
    #[derive(Debug, Clone)]
    pub enum SizeRange {
        /// Exactly this many elements.
        Exact(usize),
        /// A size drawn uniformly from the range.
        Span(Range<usize>),
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self::Exact(n)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            Self::Span(r)
        }
    }

    /// The strategy returned by [`fn@vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn draw(&self, rng: &mut TestRng) -> Self::Value {
            let len = match &self.size {
                SizeRange::Exact(n) => *n,
                SizeRange::Span(r) => {
                    assert!(r.start < r.end, "empty vec size range");
                    r.start + rng.below((r.end - r.start) as u64) as usize
                }
            };
            (0..len).map(|_| self.element.draw(rng)).collect()
        }
    }

    /// `proptest::collection::vec`: a vector of `element` draws with a
    /// size from `size` (an exact `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Drives a strategy through many cases (`proptest::test_runner`).
#[derive(Debug)]
pub struct TestRunner {
    cases: u32,
    seed: u64,
}

/// The fixed base seed: ASCII "parmonc". Per-test sequences fold the
/// test name in, so every test is deterministic and distinct.
const BASE_SEED: u64 = 0x70_61_72_6d_6f_6e_63;

impl Default for TestRunner {
    fn default() -> Self {
        Self {
            cases: DEFAULT_CASES,
            seed: BASE_SEED,
        }
    }
}

impl TestRunner {
    /// A runner with an explicit case count.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            seed: BASE_SEED,
        }
    }

    /// Runs `test` against `cases` draws from `strategy`, panicking on
    /// the first failure (after reporting the generated inputs).
    ///
    /// # Errors
    ///
    /// Returns the failure message of the first failing case.
    pub fn run<S, F>(&mut self, strategy: &S, mut test: F) -> Result<(), String>
    where
        S: Strategy,
        F: FnMut(S::Value) -> Result<(), TestCaseError>,
    {
        self.run_named("testkit", strategy, &mut test)
    }

    /// Like [`TestRunner::run`], with a test name folded into the seed
    /// so distinct tests explore distinct sequences.
    ///
    /// # Errors
    ///
    /// Returns the failure message of the first failing case.
    pub fn run_named<S, F>(&mut self, name: &str, strategy: &S, test: &mut F) -> Result<(), String>
    where
        S: Strategy,
        F: FnMut(S::Value) -> Result<(), TestCaseError>,
    {
        let mut seed = self.seed;
        for b in name.bytes() {
            seed = seed
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(u64::from(b));
        }
        let mut executed = 0u32;
        let mut attempts = 0u32;
        let max_attempts = self.cases.saturating_mul(16).max(64);
        while executed < self.cases {
            if attempts >= max_attempts {
                return Err(format!(
                    "{name}: too many rejected cases ({attempts} attempts for {} executed)",
                    executed
                ));
            }
            let mut rng = TestRng::new(seed ^ u64::from(attempts).wrapping_mul(0x9e3779b1));
            attempts += 1;
            let value = strategy.draw(&mut rng);
            let shown = format!("{value:?}");
            match test(value) {
                Ok(()) => executed += 1,
                Err(TestCaseError::Reject) => {}
                Err(TestCaseError::Fail(msg)) => {
                    return Err(format!(
                        "{name}: case #{attempts} failed: {msg}\n  input: {shown}\n  seed: {seed:#x}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Everything a `proptest`-style test module needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Strategy, TestCaseError,
        TestRunner,
    };
}

/// Asserts a condition inside a property body, failing the case (not
/// panicking) so the runner can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Rejects the current case without failing the test.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// The `proptest!` macro: wraps `fn name(x in strategy, ...) { body }`
/// items into deterministic multi-case tests.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut runner = $crate::TestRunner::default();
                let strategy = ($($strat,)+);
                let result = runner.run_named(
                    stringify!($name),
                    &strategy,
                    &mut |($($arg,)+)| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
                if let Err(msg) = result {
                    panic!("{msg}");
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = (10u64..20).draw(&mut rng);
            assert!((10..20).contains(&v));
            let f = (-2.0f64..3.0).draw(&mut rng);
            assert!((-2.0..3.0).contains(&f));
            let i = (-5i32..5).draw(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = TestRng::new(9);
        let exact = collection::vec(0u64..10, 6).draw(&mut rng);
        assert_eq!(exact.len(), 6);
        for _ in 0..100 {
            let v = collection::vec(0.0f64..1.0, 0..5).draw(&mut rng);
            assert!(v.len() < 5);
        }
    }

    #[test]
    fn runner_reports_failures() {
        let mut runner = TestRunner::with_cases(16);
        let err = runner
            .run(&(0u64..100), |v| {
                if v < 1000 {
                    Err(TestCaseError::fail("always fails"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.contains("always fails"));
        assert!(err.contains("input:"));
    }

    proptest! {
        #[test]
        fn macro_draws_are_in_range(x in 1u64..50, y in -1.0f64..1.0) {
            prop_assert!((1..50).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y), "y out of range: {y}");
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }
}

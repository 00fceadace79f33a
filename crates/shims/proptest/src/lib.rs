//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use: the `proptest!`
//! macro (with an optional `#![proptest_config(..)]` inner attribute),
//! `prop_assert!`/`prop_assert_eq!`, `any::<T>()`, range and tuple
//! strategies, and `proptest::collection::vec`.
//!
//! Unlike real proptest there is no shrinking and no persisted failure
//! seeds: each test function derives a fixed RNG seed from its module path
//! and name, so runs are deterministic and a failure reproduces by simply
//! re-running the test. Failing inputs are reported via the panic message of
//! the underlying `assert!`.

use std::marker::PhantomData;
use std::ops::Range;

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the suite snappy while
        // still exercising the size/degeneracy spectrum of each strategy.
        Self { cases: 64 }
    }
}

/// The deterministic RNG driving value generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the RNG from an arbitrary label (the test's full path).
    pub fn deterministic(label: &str) -> Self {
        // FNV-1a over the label.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Self { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` may be 0, yielding 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }
}

/// A generator of random values for one test argument.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as u128).saturating_sub(self.start as u128) as u64;
                assert!(span > 0, "empty range strategy");
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

/// Marker returned by [`any`]; the strategy for "any value of `T`".
pub struct Any<T>(PhantomData<T>);

/// Strategy producing arbitrary values of `T`.
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

impl Strategy for Any<u32> {
    type Value = u32;
    fn generate(&self, rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Strategy for Any<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Range, Strategy, TestRng};

    /// Strategy for `Vec`s with lengths drawn from `len` and elements from
    /// `elem`.
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// Vectors of `elem` values with a length in `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end.saturating_sub(self.len.start) as u64;
            let n = self.len.start + rng.below(span.max(1)) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Asserts a property holds (plain `assert!`; no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts two expressions are equal (plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts two expressions differ (plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( cfg = ($cfg:expr); ) => {};
    (
        cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

/// The imports property tests expect in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn range_values_in_range(x in 5u32..17) {
            prop_assert!((5..17).contains(&x));
        }

        #[test]
        fn vec_lengths_in_range(v in crate::collection::vec(0u64..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 10));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn tuples_and_any(pair in (0u32..3, 1u64..4), seed in any::<u64>()) {
            prop_assert!(pair.0 < 3);
            prop_assert!(pair.1 >= 1 && pair.1 < 4);
            let _ = seed;
        }
    }

    #[test]
    fn rng_is_deterministic_per_label() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        let mut c = crate::TestRng::deterministic("y");
        assert_eq!(a.next_u64(), b.next_u64());
        let _ = c.next_u64();
    }
}

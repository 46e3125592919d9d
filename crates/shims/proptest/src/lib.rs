//! Offline stand-in for the slice of the `proptest` API this workspace
//! uses: the [`proptest!`] macro, value strategies over integer ranges,
//! `prop::collection::vec`, `prop::option::of`, `prop::bool::ANY`,
//! [`strategy::Strategy::prop_map`] and the `prop_assert*` macros.
//!
//! The build environment has no registry access, so this in-repo crate
//! stands in for crates.io `proptest`. Differences from the real thing:
//! no shrinking (a failing case panics with the generated inputs in the
//! panic message via normal `assert!` formatting), and generation is a
//! deterministic SplitMix64 stream seeded per test (override with the
//! `PROPTEST_SEED` environment variable).

pub mod test_runner {
    //! Test execution support: config and RNG.

    /// Subset of `proptest::test_runner::Config`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Deterministic SplitMix64 generation stream.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from `PROPTEST_SEED` when set, else a fixed default.
        pub fn deterministic() -> Self {
            let seed = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x5EED_CAFE_F00D_u64);
            TestRng {
                state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform value in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "cannot sample empty range");
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Chains a dependent strategy: `f` builds a second strategy from
        /// each generated value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    /// Full-range strategy behind [`crate::arbitrary::any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    macro_rules! impl_any_uint {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_any_uint!(u8, u16, u32, u64, usize);

    impl Strategy for Any<bool> {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use super::strategy::Any;

    /// A strategy over the full value space of `T`.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: super::strategy::Strategy,
    {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of `element` values.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! Option strategies (`prop::option`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy producing `Option`s of an inner strategy's values.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// `Some` of a value from `inner` three times out of four, else `None`
    /// (the real proptest default also favours `Some`).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

pub mod bool {
    //! Boolean strategies (`prop::bool`).

    /// Uniform `true`/`false`.
    pub const ANY: super::strategy::Any<core::primitive::bool> =
        super::strategy::Any(std::marker::PhantomData);
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, `prop::bool::ANY`,
    /// `prop::option::of`).
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Property-test entry point; mirrors `proptest::proptest!` syntax.
///
/// Each `fn name(pat in strategy, ...) { body }` becomes a function,
/// with the attributes written on it, that generates inputs and runs
/// the body for the configured number of cases. As with the real crate,
/// a property is a test only when it carries `#[test]` itself.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic();
                for _case in 0..config.cases {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    // The closure gives `prop_assume!` an early exit that
                    // skips just this case.
                    let case_body = || { $body };
                    case_body();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// `assert!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `assert_eq!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `assert_ne!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ranges respect their bounds.
        #[test]
        fn range_bounds(n in 3usize..9, m in 0u64..5) {
            prop_assert!((3..9).contains(&n));
            prop_assert!(m < 5);
        }

        #[test]
        fn vec_lengths(v in prop::collection::vec(any::<u8>(), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn map_applies(x in (0u32..10).prop_map(|v| v * 2)) {
            prop_assert_eq!(x % 2, 0);
            prop_assert!(x < 20);
        }

        #[test]
        fn assume_skips(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }
}

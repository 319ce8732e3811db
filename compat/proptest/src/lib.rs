//! An offline, API-compatible subset of `proptest`.
//!
//! The build environment has no crates.io access, so the property-testing
//! surface this workspace uses is implemented locally: the [`proptest!`]
//! macro over `arg in strategy` bindings, range strategies for integers and
//! floats, tuple strategies, [`collection::vec`], and the
//! `prop_assert!`/`prop_assert_eq!` macros.
//!
//! Differences from upstream: no shrinking (a failing case panics with the
//! sampled values via the standard assertion message), and a fixed,
//! deterministic case count of [`CASES`] per property seeded from the test's
//! module path — failures therefore reproduce exactly across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Number of random cases executed per property.
pub const CASES: usize = 48;

/// Deterministic case generator (SplitMix64), seeded from the test name.
pub struct TestRunner {
    state: u64,
}

impl TestRunner {
    /// Creates a runner whose stream is a pure function of `name`.
    pub fn new(name: &str) -> Self {
        // FNV-1a over the test path gives a stable per-test seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }
}

/// A value generator. Strategies sample directly (no shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, runner: &mut TestRunner) -> Self::Value;
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(runner.below(span) as $t)
            }
        }
    )+};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let v = self.start + (self.end - self.start) * runner.unit_f64() as $t;
                if v < self.end { v } else { self.start }
            }
        }
    )+};
}

impl_float_range_strategy!(f32, f64);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn sample(&self, runner: &mut TestRunner) -> Self::Value {
        (self.0.sample(runner), self.1.sample(runner))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn sample(&self, runner: &mut TestRunner) -> Self::Value {
        (self.0.sample(runner), self.1.sample(runner), self.2.sample(runner))
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRunner};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is uniform in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, runner: &mut TestRunner) -> Self::Value {
            let n = self.len.sample(runner);
            (0..n).map(|_| self.element.sample(runner)).collect()
        }
    }
}

/// Runs the body for [`CASES`] deterministic samples of the bound
/// strategies.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __runner =
                    $crate::TestRunner::new(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..$crate::CASES {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __runner);)+
                    $body
                }
            }
        )*
    };
}

/// Property assertion (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion (panics on failure, like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, Strategy};
}

#[cfg(test)]
mod tests {
    use super::{collection, TestRunner};

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(n in 3usize..17, x in -2.0f32..2.0, s in 0u64..1000) {
            prop_assert!((3..17).contains(&n));
            prop_assert!((-2.0..2.0).contains(&x));
            prop_assert!(s < 1000);
        }

        #[test]
        fn vec_strategy_respects_length(
            v in collection::vec(0.0f32..1.0, 2..9),
            pairs in collection::vec((0usize..5, 0.0f64..1.0), 1..4),
        ) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            prop_assert!((1..4).contains(&pairs.len()));
        }
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        let mut a = TestRunner::new("x::y");
        let mut b = TestRunner::new("x::y");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRunner::new("x::z");
        assert_ne!(a.next_u64(), c.next_u64());
    }
}

//! Offline drop-in replacement for the subset of the `proptest` API this
//! workspace uses. The build environment has no reachable crates.io
//! mirror, so the real crate cannot be fetched; this stub keeps the
//! property-test files compiling and *meaningful*: each `proptest!` test
//! runs `ProptestConfig::cases` random cases drawn from the same strategy
//! expressions, seeded deterministically per case index so failures are
//! reproducible by rerunning the suite.
//!
//! Intentional simplifications versus upstream:
//!
//! * **No shrinking.** A failing case reports its case index and message;
//!   rerunning reproduces it exactly (generation is a pure function of the
//!   case index), but the input is not minimized.
//! * **No persistence files.** There is no `proptest-regressions/`.
//! * `prop_recursive(depth, ..)` honors `depth` but ignores the expected
//!   size and branch hints; recursion probability is fixed at 1/2 per
//!   level, which keeps generated trees small.
//!
//! Set `PROPTEST_CASES` to override the number of cases globally.

use std::rc::Rc;

// ---------------------------------------------------------------------------
// Deterministic generator
// ---------------------------------------------------------------------------

/// SplitMix64 generator driving all strategies. Purely determined by its
/// seed, which the `proptest!` macro derives from the case index.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        };
        let _ = rng.next_u64();
        rng
    }

    /// Seed for case `case` of the test named `name` (the name keeps
    /// sibling tests in one file from seeing identical streams).
    pub fn for_case(name: &str, case: u64) -> Self {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self::from_seed(h ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A generator of values of one type. Upstream proptest separates
/// strategies from value trees (for shrinking); without shrinking the
/// strategy *is* the generator.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Recursive strategies: `f` maps a strategy for depth-`k` values to a
    /// strategy for depth-`k+1` values; the result draws leaves and
    /// recursive cases with equal probability at every level, up to
    /// `depth` levels of recursion.
    fn prop_recursive<F, S2>(
        self,
        depth: u32,
        _expected_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            let deeper = f(cur).boxed();
            cur = Union {
                options: vec![leaf.clone(), deeper],
            }
            .boxed();
        }
        cur
    }
}

/// Type-erased, cheaply clonable strategy handle.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed alternatives; what `prop_oneof!` builds.
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len());
        self.options[i].generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// Arbitrary + any
// ---------------------------------------------------------------------------

/// Types with a canonical full-range strategy (`any::<T>()`).
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies: ranges and tuples
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: an exact `usize` or a half-open
    /// `Range<usize>`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi_exclusive - self.size.lo;
            let len = self.size.lo + rng.below(span.max(1));
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Config + errors + runner support
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 128 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A failed property assertion (the message).
#[derive(Clone, Debug)]
pub struct TestCaseError(pub String);

pub type TestCaseResult = Result<(), TestCaseError>;

/// Effective case count: `PROPTEST_CASES` env override, else the config.
pub fn resolved_cases(config_cases: u32) -> u32 {
    match std::env::var("PROPTEST_CASES") {
        Ok(v) => v.parse().unwrap_or(config_cases),
        Err(_) => config_cases,
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// The test-definition macro. Supports the subset of upstream syntax used
/// in this repository: an optional `#![proptest_config(..)]` header and
/// `fn name(pat in strategy, ..) { .. }` items with outer attributes.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($config:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            // The call sites carry their own `#[test]` attribute (same as
            // upstream proptest), forwarded through `$meta`.
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let cases = $crate::resolved_cases(config.cases);
                for case in 0..cases {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case as u64);
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                    #[allow(unreachable_code)]
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name), case, cases, e.0
                        );
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} ({})",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: `{:?}` == `{:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: `{:?}` == `{:?}` ({})",
                l, r,
                format!($($fmt)+)
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: `{:?}` != `{:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: `{:?}` != `{:?}` ({})",
                l, r,
                format!($($fmt)+)
            )));
        }
    }};
}

// ---------------------------------------------------------------------------
// Prelude
// ---------------------------------------------------------------------------

pub mod prelude {
    /// Upstream exposes the crate under the alias `prop` in the prelude
    /// (`prop::collection::vec(..)`).
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn union_and_map_compose() {
        let s = prop_oneof![Just(1u32), (10u32..20).prop_map(|x| x * 2)];
        let mut rng = crate::TestRng::from_seed(3);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v == 1 || (20..40).contains(&v), "got {v}");
        }
    }

    #[test]
    fn recursion_is_bounded() {
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf(#[allow(dead_code)] u8),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let s = any::<u8>()
            .prop_map(Tree::Leaf)
            .prop_recursive(4, 64, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            });
        let mut rng = crate::TestRng::from_seed(9);
        for _ in 0..200 {
            assert!(depth(&s.generate(&mut rng)) <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_asserts(x in 0u32..50, flip in any::<bool>()) {
            prop_assert!(x < 50);
            if flip { return Ok(()); }
            prop_assert_ne!(x, 50, "x was {}", x);
        }
    }
}

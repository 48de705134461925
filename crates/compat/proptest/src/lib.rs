//! Offline shim for the subset of the `proptest` API this workspace uses.
//!
//! The build environment has no registry access, so this in-tree crate
//! stands in for the real `proptest`. Supported surface:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//!   expanding each `fn name(arg in strategy, ..) { body }` into a `#[test]`
//!   that runs the body over `cases` generated inputs;
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * strategies: integer ranges, `"[class]{m,n}"` string patterns (the
//!   character-class/repeat subset of proptest's regex strategies),
//!   [`any`]`::<T>()`, tuples, [`prop::collection::vec`],
//!   [`prop::sample::select`], and [`Strategy::prop_map`];
//! * [`ProptestConfig::with_cases`].
//!
//! Shrinking is not implemented: a failing case panics with the generated
//! inputs printed, which is enough to reproduce (generation is
//! deterministic per test name and case index).

use std::fmt;
use std::ops::{Range, RangeInclusive};

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Runner configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        // Upstream defaults to 256; 64 keeps the heavier simulation-backed
        // properties in this workspace fast while still exploring broadly.
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A failed property case (subset of `proptest::test_runner::TestCaseError`).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failure carrying `message`.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Deterministic per-case generator (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates the generator for `(test, case)`; fully deterministic.
    pub fn for_case(test: &str, case: u64) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h = (h ^ case).wrapping_mul(0x100_0000_01b3);
        TestRng {
            state: h | 1, // xorshift state must be non-zero
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A value generator (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// String pattern strategies: proptest treats `&str` strategies as regexes;
/// this shim supports sequences of atoms (`[class]`, `\x`, or a literal
/// char), each optionally repeated `{m,n}` — the subset used in-tree.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for atom in &atoms {
            let n = atom.min_rep + rng.below((atom.max_rep - atom.min_rep + 1) as u64) as u32;
            for _ in 0..n {
                let i = rng.below(atom.choices.len() as u64) as usize;
                out.push(atom.choices[i]);
            }
        }
        out
    }
}

struct PatternAtom {
    choices: Vec<char>,
    min_rep: u32,
    max_rep: u32,
}

fn parse_pattern(pattern: &str) -> Vec<PatternAtom> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut atoms = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let choices = match chars[i] {
            '[' => {
                let mut set = Vec::new();
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    if chars[i] == '\\' && i + 1 < chars.len() {
                        set.push(chars[i + 1]);
                        i += 2;
                    } else if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        let (lo, hi) = (chars[i], chars[i + 2]);
                        assert!(lo <= hi, "bad class range in pattern `{pattern}`");
                        for c in lo..=hi {
                            set.push(c);
                        }
                        i += 3;
                    } else {
                        set.push(chars[i]);
                        i += 1;
                    }
                }
                assert!(
                    i < chars.len(),
                    "unterminated character class in pattern `{pattern}`"
                );
                i += 1; // consume ']'
                set
            }
            '\\' => {
                assert!(
                    i + 1 < chars.len(),
                    "dangling escape in pattern `{pattern}`"
                );
                let c = chars[i + 1];
                i += 2;
                vec![c]
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        assert!(!choices.is_empty(), "empty character class in `{pattern}`");
        // Optional {m,n} / {m} quantifier.
        let (min_rep, max_rep) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated quantifier in `{pattern}`"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse().expect("quantifier min"),
                    n.trim().parse().expect("quantifier max"),
                ),
                None => {
                    let m: u32 = body.trim().parse().expect("quantifier count");
                    (m, m)
                }
            }
        } else {
            (1, 1)
        };
        assert!(min_rep <= max_rep, "inverted quantifier in `{pattern}`");
        atoms.push(PatternAtom {
            choices,
            min_rep,
            max_rep,
        });
    }
    atoms
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7),
}

/// Types with a canonical strategy (subset of `proptest::arbitrary`).
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (mirrors `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

pub mod prop {
    //! The `prop::` namespace (`collection`, `sample`).

    pub mod collection {
        //! Collection strategies.
        use crate::{Strategy, TestRng};
        use std::ops::Range;

        /// Length bounds for [`vec`](fn@vec).
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> SizeRange {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> SizeRange {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        /// Vec strategy over an element strategy.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `Vec<T>` of a length drawn from `size`, elements from `element`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64;
                let len = self.size.lo + rng.below(span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    pub mod bool {
        //! Boolean strategies.
        use crate::{Strategy, TestRng};

        /// Strategy producing `true` with the given probability.
        #[derive(Debug, Clone, Copy)]
        pub struct Weighted {
            probability: f64,
        }

        /// `true` with probability `probability` (clamped to `[0, 1]`).
        pub fn weighted(probability: f64) -> Weighted {
            Weighted {
                probability: probability.clamp(0.0, 1.0),
            }
        }

        impl Strategy for Weighted {
            type Value = bool;

            fn generate(&self, rng: &mut TestRng) -> bool {
                // 53 bits of uniform randomness → [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                unit < self.probability
            }
        }
    }

    pub mod sample {
        //! Sampling strategies.
        use crate::{Strategy, TestRng};

        /// Strategy choosing one element of a fixed pool.
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            pool: Vec<T>,
        }

        /// Uniform choice from `pool` (must be non-empty).
        pub fn select<T: Clone>(pool: Vec<T>) -> Select<T> {
            assert!(!pool.is_empty(), "select over an empty pool");
            Select { pool }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                self.pool[rng.below(self.pool.len() as u64) as usize].clone()
            }
        }
    }
}

/// Asserts a condition inside a property, failing the case (not the whole
/// process) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Declares property tests, mirroring `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        // `$meta` carries the caller's `#[test]` attribute (and doc
        // comments), matching real proptest's expansion.
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases as u64 {
                let mut rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($("\n  ", stringify!($arg), " = {:?}",)+),
                    $(&$arg,)+
                );
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    }),
                );
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => panic!(
                        "proptest property `{}` failed at case {}: {}\ninputs:{}",
                        stringify!($name), case, e, inputs,
                    ),
                    Err(payload) => {
                        eprintln!(
                            "proptest property `{}` panicked at case {}\ninputs:{}",
                            stringify!($name), case, inputs,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn pattern_strategies_respect_class_and_bounds() {
        let mut rng = TestRng::for_case("pattern", 0);
        for case in 0..200 {
            let mut rng2 = TestRng::for_case("pattern", case);
            let s = "[ab%_]{0,8}".generate(&mut rng2);
            assert!(s.len() <= 8);
            assert!(s.chars().all(|c| "ab%_".contains(c)));
        }
        let s = r"x\[y".generate(&mut rng);
        assert_eq!(s, "x[y");
        let s = "[a-c]{4}".generate(&mut rng);
        assert_eq!(s.len(), 4);
        assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
    }

    #[test]
    fn escaped_metachars_in_classes() {
        let mut rng = TestRng::for_case("esc", 3);
        for _ in 0..100 {
            let s = r"[ab.\*\+\?\|\(\)\[\]0-9]{0,10}".generate(&mut rng);
            assert!(s.len() <= 10);
            assert!(s.chars().all(|c| "ab.*+?|()[]0123456789".contains(c)));
        }
    }

    #[test]
    fn deterministic_per_case() {
        let a = "[a-z]{0,12}".generate(&mut TestRng::for_case("t", 5));
        let b = "[a-z]{0,12}".generate(&mut TestRng::for_case("t", 5));
        assert_eq!(a, b);
    }

    #[test]
    fn composite_strategies() {
        let mut rng = TestRng::for_case("composite", 1);
        let strat = prop::collection::vec((0u32..4, prop::sample::select(vec!["x", "y"])), 0..40)
            .prop_map(|v| v.len());
        for _ in 0..50 {
            assert!(strat.generate(&mut rng) < 40);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_end_to_end(n in 1usize..50, s in "[ab]{1,6}", flip in any::<bool>()) {
            prop_assert!((1..50).contains(&n));
            prop_assert!(!s.is_empty() && s.len() <= 6);
            prop_assert_eq!(flip as u8 <= 1, true);
        }
    }

    mod failure_reporting {
        use super::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2))]

            /// Failing cases must panic with the generated inputs printed.
            #[test]
            #[should_panic(expected = "inputs:")]
            fn failures_report_inputs(n in 0u32..4) {
                prop_assert!(n > 100, "n was {}", n);
            }
        }
    }
}

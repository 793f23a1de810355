//! Minimal, API-compatible stand-in for the subset of `proptest` used by
//! this workspace.
//!
//! The build environment has no access to a cargo registry, so the external
//! `proptest` dev-dependency is replaced by this in-tree shim. It supports:
//!
//! * the [`proptest!`] macro with `#![proptest_config(...)]`, `#[test]`
//!   attributes, doc comments, and both parameter forms
//!   (`name: Type` ≙ `any::<Type>()`, and `pat in strategy`),
//! * range strategies (`0u64..10_000`, `1u8..=255`, `-1e6f64..1e6`, ...),
//! * [`collection::vec`],
//! * [`prelude`] with `any`, `ProptestConfig`, `prop_assert!`,
//!   `prop_assert_eq!`, `prop_assert_ne!`.
//!
//! Unlike real proptest there is no shrinking and no failure persistence:
//! each test draws `cases` deterministic samples (seeded from the module
//! path and the test's name, so distinct tests see distinct streams) and
//! runs the body, with `prop_assert*` mapping to the std `assert*` macros.
//! A panicking case prints each drawn argument (`Debug`), which replays it.

pub mod strategy {
    //! The value-generation abstraction.
    use rand::distributions::uniform::SampleUniform;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// The RNG handed to strategies by the runner.
    pub type TestRng = SmallRng;

    /// A source of random values of one type.
    pub trait Strategy {
        /// The type of the generated values.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<T: SampleUniform + PartialOrd + Copy> Strategy for Range<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T: SampleUniform + PartialOrd + Copy> Strategy for RangeInclusive<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    // Tuples of strategies generate tuples of values, as in real proptest
    // (enough arities for the workspace's composite draws).
    macro_rules! impl_tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A / a, B / b);
    impl_tuple_strategy!(A / a, B / b, C / c);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d);
}

pub mod arbitrary {
    //! `any::<T>()` support.
    use super::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical "whole domain" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f32, f64);

    /// Strategy returned by [`any`].
    #[derive(Clone, Copy, Debug)]
    pub struct AnyStrategy<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.
    use super::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A length range for [`vec()`] (built from `a..b` or `a..=b`).
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod test_runner {
    //! Deterministic per-test RNG derivation.
    use super::strategy::TestRng;
    use rand::SeedableRng;

    /// Run-count and settings for one `proptest!` block.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each test executes.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            // Real proptest defaults to 256; 64 keeps the suite quick while
            // still exercising each property broadly.
            Config { cases: 64 }
        }
    }

    /// Derives a deterministic RNG distinct per test function.
    ///
    /// Seeded from the module path and the test's own name (not `line!()`,
    /// which inside a `macro_rules` expansion resolves to the outermost
    /// invocation line and would collide for every test in one block).
    pub fn rng_for(module: &str, test: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
        for b in module.bytes().chain("::".bytes()).chain(test.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::seed_from_u64(h)
    }

    /// Runs its closure when a panic unwinds through it.
    pub struct OnPanic<F: FnMut()>(pub F);

    impl<F: FnMut()> Drop for OnPanic<F> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                (self.0)();
            }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

pub mod prelude {
    //! Mirror of `proptest::prelude`.
    pub use super::arbitrary::{any, Arbitrary};
    pub use super::strategy::Strategy;
    pub use super::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests. See the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( config = ($cfg:expr); ) => {};
    (
        config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident ( $($params:tt)* ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::__proptest_params! {
                @munch cfg = ($cfg); name = ($name); acc = []; body = $body; $($params)*
            }
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_params {
    // All parameters consumed: run the cases.
    ( @munch cfg = ($cfg:expr); name = ($tname:ident); acc = [$($acc:tt)*]; body = $body:block; ) => {
        $crate::__proptest_run! { cfg = ($cfg); name = ($tname); acc = [$($acc)*]; body = $body }
    };
    // `name: Type` (≙ any::<Type>()), more parameters follow.
    ( @munch cfg = ($cfg:expr); name = ($tname:ident); acc = [$($acc:tt)*]; body = $body:block;
      $pname:ident : $pty:ty, $($rest:tt)* ) => {
        $crate::__proptest_params! {
            @munch cfg = ($cfg);
            name = ($tname);
            acc = [$($acc)* { ($pname) ($crate::arbitrary::any::<$pty>()) }];
            body = $body; $($rest)*
        }
    };
    // `name: Type`, final parameter.
    ( @munch cfg = ($cfg:expr); name = ($tname:ident); acc = [$($acc:tt)*]; body = $body:block;
      $pname:ident : $pty:ty ) => {
        $crate::__proptest_params! {
            @munch cfg = ($cfg);
            name = ($tname);
            acc = [$($acc)* { ($pname) ($crate::arbitrary::any::<$pty>()) }];
            body = $body;
        }
    };
    // `pat in strategy`, more parameters follow.
    ( @munch cfg = ($cfg:expr); name = ($tname:ident); acc = [$($acc:tt)*]; body = $body:block;
      $ppat:pat in $pstrat:expr, $($rest:tt)* ) => {
        $crate::__proptest_params! {
            @munch cfg = ($cfg);
            name = ($tname);
            acc = [$($acc)* { ($ppat) ($pstrat) }];
            body = $body; $($rest)*
        }
    };
    // `pat in strategy`, final parameter.
    ( @munch cfg = ($cfg:expr); name = ($tname:ident); acc = [$($acc:tt)*]; body = $body:block;
      $ppat:pat in $pstrat:expr ) => {
        $crate::__proptest_params! {
            @munch cfg = ($cfg);
            name = ($tname);
            acc = [$($acc)* { ($ppat) ($pstrat) }];
            body = $body;
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_run {
    ( cfg = ($cfg:expr); name = ($tname:ident); acc = [$({ ($ppat:pat) ($pstrat:expr) })*]; body = $body:block ) => {{
        let __config: $crate::ProptestConfig = $cfg;
        let mut __rng = $crate::test_runner::rng_for(module_path!(), stringify!($tname));
        for __case in 0..__config.cases {
            // On a panic, redraw the case's arguments from the RNG's copy.
            let __case_rng = __rng.clone();
            let __report = $crate::test_runner::OnPanic(|| {
                let mut __rng = __case_rng.clone();
                eprintln!("proptest: {} failed at case {}:", stringify!($tname), __case);
                $(
                    let __value = $crate::strategy::Strategy::sample(&($pstrat), &mut __rng);
                    eprintln!("    {} = {:?}", stringify!($ppat), __value);
                )*
            });
            $( let $ppat = $crate::strategy::Strategy::sample(&($pstrat), &mut __rng); )*
            $body
        }
    }};
}

/// `prop_assert!` — plain `assert!` (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `prop_assert_eq!` — plain `assert_eq!` (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `prop_assert_ne!` — plain `assert_ne!` (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

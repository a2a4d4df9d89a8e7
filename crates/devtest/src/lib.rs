//! A seeded property-test harness with no external dependencies.
//!
//! This is the in-repo replacement for `proptest`: each property is a
//! closure over a [`Gen`] that draws its random inputs; the harness runs
//! it for N deterministically-seeded cases, and on failure it
//!
//! 1. **shrinks** by re-running the failing seed with every ranged
//!    integer draw's width halved (then quartered, and so on) — the
//!    simple "halving" shrink: smaller programs, smaller indices,
//!    shorter vectors, same seed;
//! 2. reports the **reproducing seed** (and shrink level) plus the
//!    environment variables that re-run exactly that case.
//!
//! Environment knobs:
//!
//! * `CHAINIQ_PROP_CASES=n` — override every suite's case count (CI can
//!   turn it up; a quick local run can turn it down).
//! * `CHAINIQ_PROP_SEED=0x…` — run only the given case seed.
//! * `CHAINIQ_PROP_SHRINK=k` — with `CHAINIQ_PROP_SEED`, replay at
//!   shrink level `k` (ranged draws use `width >> k`).
//!
//! Properties are declared with [`prop_check!`]; the underlying runner
//! is also callable directly:
//!
//! ```
//! use chainiq_devtest::run_prop;
//!
//! // Addition of draws never exceeds the sum of the range maxima.
//! run_prop("sum_bounded", 32, |g| {
//!     let a = g.u64(0..100);
//!     let b = g.u64(0..50);
//!     chainiq_devtest::prop_assert!(a + b < 150, "{a} + {b} out of bounds");
//!     Ok(())
//! });
//! ```

#![deny(missing_docs)]

use std::fmt::Write as _;
use std::ops::Range;

use chainiq_rng::{splitmix64, Rng};

/// Default number of cases per property when the test doesn't say.
pub const DEFAULT_CASES: u64 = 256;

/// Deepest shrink level attempted. `width >> 40` pins every realistic
/// range to its minimum (ranged draws in this workspace are far below
/// 2^40 wide), so deeper levels would change nothing.
const MAX_SHRINK: u32 = 40;

/// The input source handed to each property: a seeded PRNG plus the
/// current shrink level.
///
/// Ranged draws (`u64`, `usize`, `u8`, `f64`, `vec` lengths) shrink:
/// at shrink level `k` a range's width is cut to `max(1, width >> k)`,
/// biasing every input toward its minimum while replaying the same
/// random stream. Unranged draws (`any_u64`, `bool`) don't shrink —
/// they are seeds and coin flips, where "smaller" has no meaning.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    shrink: u32,
}

impl Gen {
    /// Creates a source for `seed` at the given shrink level (0 = full
    /// ranges). Tests normally never construct this — the harness does.
    #[must_use]
    pub fn new(seed: u64, shrink: u32) -> Self {
        Gen { rng: Rng::seed_from_u64(seed), shrink }
    }

    fn shrunk_width(&self, width: u64) -> u64 {
        (width >> self.shrink).max(1)
    }

    /// A uniform `u64` in `range`, shrink-scaled toward `range.start`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[must_use]
    pub fn u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "Gen::u64: empty range");
        let width = self.shrunk_width(range.end - range.start);
        self.rng.gen_range(range.start..range.start + width)
    }

    /// A uniform `usize` in `range`, shrink-scaled.
    #[must_use]
    pub fn usize(&mut self, range: Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    /// A uniform `u32` in `range`, shrink-scaled.
    #[must_use]
    pub fn u32(&mut self, range: Range<u32>) -> u32 {
        self.u64(u64::from(range.start)..u64::from(range.end)) as u32
    }

    /// A uniform `u8` in `range`, shrink-scaled.
    #[must_use]
    pub fn u8(&mut self, range: Range<u8>) -> u8 {
        self.u64(u64::from(range.start)..u64::from(range.end)) as u8
    }

    /// A full-range `u64` (for seeds). Not shrink-scaled.
    #[must_use]
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A fair coin. Not shrink-scaled.
    #[must_use]
    pub fn bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// A uniform `f64` in `range`, shrink-scaled toward `range.start`.
    ///
    /// # Panics
    ///
    /// Panics if `range.start > range.end`.
    #[must_use]
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start <= range.end, "Gen::f64: inverted range");
        let scale = 1.0 / f64::from(1u32 << self.shrink.min(30));
        range.start + (range.end - range.start) * scale * self.rng.next_f64()
    }

    /// `Some(f(self))` half the time, `None` the other half (the
    /// `prop::option::of` equivalent).
    #[must_use]
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }

    /// A vector with a shrink-scaled length drawn from `len`, each
    /// element produced by `f`.
    #[must_use]
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// An index in `0..n`, for one-of choices over `n` alternatives.
    /// Not shrink-scaled: shrinking must not change *which* variant a
    /// case exercises, only how big its parameters are.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "Gen::pick: no alternatives");
        self.rng.gen_range(0..n as u64) as usize
    }
}

/// Outcome of one property case, as produced by the `prop_assert!`
/// family: `Err` carries the failure message.
pub type CaseResult = Result<(), String>;

#[expect(
    clippy::disallowed_methods,
    clippy::panic,
    reason = "CHAINIQ_PROP_* replay knobs are devtest's own debugging interface; a malformed one fails the test"
)]
fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    match parsed {
        Ok(n) => Some(n),
        Err(_) => panic!("{name}={v} is not a decimal or 0x-hex integer"),
    }
}

/// Runs `cases` seeded cases of `property`, shrinking and reporting the
/// first failure. Tests normally invoke this through [`prop_check!`].
///
/// # Panics
///
/// Panics (failing the test) when a case fails, with the reproducing
/// seed, shrink level, and failure message.
#[expect(clippy::panic, reason = "a failing property fails its #[test] by panicking")]
pub fn run_prop(name: &str, cases: u64, property: impl Fn(&mut Gen) -> CaseResult) {
    // Reproduction mode: exactly one seed, no shrinking beyond the
    // requested level.
    if let Some(seed) = env_u64("CHAINIQ_PROP_SEED") {
        let shrink = env_u64("CHAINIQ_PROP_SHRINK").unwrap_or(0) as u32;
        if let Err(msg) = property(&mut Gen::new(seed, shrink)) {
            panic!(
                "property '{name}' failed replaying seed 0x{seed:016X} (shrink level {shrink})\n  \
                 error: {msg}"
            );
        }
        return;
    }

    let cases = env_u64("CHAINIQ_PROP_CASES").unwrap_or(cases);
    // Case seeds are a SplitMix64 stream keyed on the property name, so
    // every property explores a different region of seed space and a
    // case index always maps to the same seed.
    let mut key = name.bytes().fold(0u64, |h, b| h.wrapping_mul(0x100).wrapping_add(u64::from(b)));
    for case in 0..cases {
        let seed = splitmix64(&mut key);
        let Err(msg) = property(&mut Gen::new(seed, 0)) else { continue };

        // Halving shrink: replay the same seed with ever-narrower
        // integer ranges; keep the deepest level that still fails.
        let mut best = (0u32, msg);
        for level in 1..=MAX_SHRINK {
            if let Err(m) = property(&mut Gen::new(seed, level)) {
                best = (level, m);
            }
        }
        let (level, msg) = best;
        let mut report = String::new();
        let _ = writeln!(report, "property '{name}' failed (case {}/{cases})", case + 1);
        let _ = writeln!(report, "  seed: 0x{seed:016X}, minimal shrink level: {level}");
        let _ = writeln!(report, "  error: {msg}");
        let _ = write!(
            report,
            "  reproduce: CHAINIQ_PROP_SEED=0x{seed:016X} CHAINIQ_PROP_SHRINK={level} \
             cargo test -q {name}"
        );
        panic!("{report}");
    }
}

/// Declares seeded property tests.
///
/// Each item becomes a normal `#[test]` whose body runs under
/// [`run_prop`]. The body draws inputs from the `Gen` binding named in
/// the signature and asserts with [`prop_assert!`] /
/// [`prop_assert_eq!`] / [`prop_assert_ne!`]. An optional
/// `cases = N` after the binding sets the case count (default
/// [`DEFAULT_CASES`]).
#[macro_export]
macro_rules! prop_check {
    () => {};
    (
        $(#[$meta:meta])*
        fn $name:ident($g:ident, cases = $cases:expr) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::run_prop(
                stringify!($name),
                $cases,
                |$g: &mut $crate::Gen| -> $crate::CaseResult {
                    $body
                    Ok(())
                },
            );
        }
        $crate::prop_check!($($rest)*);
    };
    (
        $(#[$meta:meta])*
        fn $name:ident($g:ident) $body:block
        $($rest:tt)*
    ) => {
        $crate::prop_check! {
            $(#[$meta])*
            fn $name($g, cases = $crate::DEFAULT_CASES) $body
            $($rest)*
        }
    };
}

/// Asserts a condition inside a [`prop_check!`] body; on failure the
/// case returns an error carrying the condition (or the given format
/// message) so the harness can shrink and report it.
#[macro_export]
macro_rules! prop_assert {
    // `$cond` is bound first so that a float comparison is never negated
    // in place (clippy's `neg_cmp_op_on_partial_ord`).
    ($cond:expr $(,)?) => {{
        let held: bool = $cond;
        if !held {
            return ::core::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            );
        }
    }};
    ($cond:expr, $($fmt:tt)+) => {{
        let held: bool = $cond;
        if !held {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Equality assertion for [`prop_check!`] bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n    left: {l:?}\n   right: {r:?}",
                stringify!($left),
                stringify!($right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::core::result::Result::Err(::std::format!(
                "{}\n    left: {l:?}\n   right: {r:?}",
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

/// Inequality assertion for [`prop_check!`] bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} != {}`\n    both: {l:?}",
                stringify!($left),
                stringify!($right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::core::result::Result::Err(::std::format!(
                "{}\n    both: {l:?}",
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = Gen::new(42, 0);
        let mut b = Gen::new(42, 0);
        for _ in 0..100 {
            assert_eq!(a.u64(0..1000), b.u64(0..1000));
            assert_eq!(a.bool(), b.bool());
        }
    }

    #[test]
    fn ranged_draws_respect_bounds() {
        let mut g = Gen::new(7, 0);
        for _ in 0..1000 {
            assert!((3..17).contains(&g.u64(3..17)));
            assert!((1..5).contains(&g.usize(1..5)));
            let f = g.f64(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn shrink_halves_toward_the_minimum() {
        // At level 4 a width-160 range narrows to width 10.
        let mut g = Gen::new(1, 4);
        for _ in 0..1000 {
            assert!(g.u64(100..260) < 110);
        }
        // Deep levels pin ranges (and vec lengths) at their minimum.
        let mut g = Gen::new(1, MAX_SHRINK);
        assert_eq!(g.u64(5..1_000_000), 5);
        let v = g.vec(2..50, |g| g.u64(0..100));
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|&x| x == 0));
    }

    #[test]
    fn pick_is_not_shrunk() {
        let mut full = Gen::new(3, 0);
        let mut deep = Gen::new(3, MAX_SHRINK);
        for _ in 0..100 {
            assert_eq!(full.pick(6), deep.pick(6), "shrinking must not change variant choice");
        }
    }

    #[test]
    fn vec_lengths_in_range() {
        let mut g = Gen::new(5, 0);
        for _ in 0..200 {
            let v = g.vec(1..9, |g| g.u8(0..10));
            assert!((1..9).contains(&v.len()));
        }
    }

    #[test]
    fn passing_property_runs_every_case() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        run_prop("counts_cases", 37, |g| {
            RUNS.fetch_add(1, Ordering::Relaxed);
            let _ = g.u64(0..10);
            Ok(())
        });
        assert_eq!(RUNS.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_prop("always_fails", 8, |g| {
                let n = g.u64(10..1_000_000);
                Err(format!("boom at {n}"))
            });
        }));
        let msg = *result.expect_err("must panic").downcast::<String>().unwrap();
        assert!(msg.contains("property 'always_fails' failed"), "{msg}");
        assert!(msg.contains("seed: 0x"), "{msg}");
        assert!(msg.contains("CHAINIQ_PROP_SEED=0x"), "{msg}");
        // The deepest shrink level pins the draw at the range minimum,
        // so the reported (shrunk) failure is the minimal one.
        assert!(msg.contains("minimal shrink level: 40"), "{msg}");
        assert!(msg.contains("boom at 10"), "{msg}");
    }

    #[test]
    fn shrink_keeps_the_deepest_still_failing_level() {
        // Fails only while the drawn value stays large: shrinking past
        // the failure threshold makes the case pass, so the harness must
        // keep the deepest level that still fails, not the deepest tried.
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_prop("fails_when_large", 8, |g| {
                let n = g.u64(0..1 << 20);
                if n >= 1 << 10 {
                    Err(format!("too big: {n}"))
                } else {
                    Ok(())
                }
            });
        }));
        let msg = *result.expect_err("must panic").downcast::<String>().unwrap();
        assert!(msg.contains("too big"), "{msg}");
        assert!(!msg.contains("minimal shrink level: 40"), "{msg}");
    }

    prop_check! {
        /// The macro itself: default case count, assertions, drawing.
        fn macro_smoke(g) {
            let a = g.u64(0..100);
            let b = a + 1;
            prop_assert!(b > a);
            prop_assert_eq!(a + 1, b);
            prop_assert_ne!(a, b, "a={a} must differ from b={b}");
        }

        /// Explicit case count variant compiles and runs.
        fn macro_with_cases(g, cases = 3) {
            prop_assert!(g.f64(0.0..1.0) < 1.0);
        }
    }
}

//! **proptest_lite** — a minimal, dependency-free property-testing
//! harness.
//!
//! Replaces the external `proptest` crate for this workspace. The moving
//! parts:
//!
//! - [`Strategy`] — generates a random value of some type and proposes
//!   shrink candidates for a failing one. Implemented for integer ranges
//!   (`4usize..40`), [`any_bool`], [`vec()`] and tuples of strategies.
//! - [`run`] — the case loop: replays persisted regression seeds first,
//!   then enumerates `cases` fresh inputs from a fixed master seed, and
//!   on failure **shrinks by bisection** toward the range minimum before
//!   panicking with the minimal counterexample.
//! - **Failure persistence** — the seed of a failing case is appended to
//!   `proplite-regressions/<test>.txt` in the crate that owns the test
//!   (analogous to proptest's `.proptest-regressions`), so the exact
//!   case is re-checked on every later run. Check these files in.
//! - [`prop_tests!`](crate::prop_tests),
//!   [`prop_assert!`](crate::prop_assert),
//!   [`prop_assert_eq!`](crate::prop_assert_eq),
//!   [`prop_assert_ne!`](crate::prop_assert_ne) — macro sugar mirroring
//!   the `proptest!` surface so ported suites read almost unchanged.
//!
//! Everything is deterministic: the default master seed is a constant
//! (override with `MWC_PROPTEST_SEED` to explore a different slice of
//! the input space, and `MWC_PROPTEST_CASES` to change the budget).
//!
//! ```
//! use mwc_rng::proptest_lite::{run, Config};
//!
//! run(
//!     "addition_commutes",
//!     env!("CARGO_MANIFEST_DIR"),
//!     &Config::with_cases(32),
//!     (0u64..1000, 0u64..1000),
//!     |(a, b)| {
//!         mwc_rng::prop_assert!(a + b == b + a);
//!         Ok(())
//!     },
//! );
//! ```

use crate::Rng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// A failed property observation (the message carries context).
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

/// What a property body returns: `Ok(())` or a failed assertion.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Case budget and seeding for one property.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of fresh cases to enumerate (beyond persisted seeds).
    pub cases: u32,
    /// Master seed; every case seed derives from it deterministically.
    pub seed: u64,
    /// Upper bound on accepted shrink steps.
    pub max_shrink_iters: u32,
}

/// Default master seed: fixed so CI and laptops see the same cases.
const DEFAULT_SEED: u64 = 0x4D57_4352_5052_4F50; // "MWCRPROP"

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("MWC_PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(64);
        let seed = std::env::var("MWC_PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_SEED);
        Config {
            cases,
            seed,
            max_shrink_iters: 512,
        }
    }
}

impl Config {
    /// The default config with a different case budget.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// Generates random values and proposes shrink candidates.
pub trait Strategy {
    /// The generated type.
    type Value: Clone + Debug;

    /// Draws one value from `rng`.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate simplifications of a failing `value`, most aggressive
    /// first. An empty vector means fully shrunk.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

/// Bisection ladder from `lo` toward `v` (exclusive): `[lo, midpoints…,
/// v−1]`, biggest jump first.
fn shrink_toward(lo: u128, v: u128) -> Vec<u128> {
    let mut out = Vec::new();
    if v <= lo {
        return out;
    }
    out.push(lo);
    let mid = lo + (v - lo) / 2;
    if mid != lo && mid != v {
        out.push(mid);
    }
    if v - 1 != lo && (v - 1) != mid {
        out.push(v - 1);
    }
    out
}

macro_rules! impl_int_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(self.start as u128, *value as u128)
                    .into_iter()
                    .map(|x| x as $t)
                    .collect()
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(*self.start() as u128, *value as u128)
                    .into_iter()
                    .map(|x| x as $t)
                    .collect()
            }
        }
    )+};
}
impl_int_strategy!(u8, u16, u32, u64, usize);

/// Strategy for an unbiased `bool` (shrinks `true → false`).
#[derive(Clone, Copy, Debug)]
pub struct AnyBool;

/// An unbiased coin flip, mirroring proptest's `any::<bool>()`.
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.random_bool(0.5)
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Strategy for `Vec<T>` with a length drawn from a range; see [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

/// A vector of `len` elements (length uniform in the range), mirroring
/// `proptest::collection::vec`. Shrinks the length by bisection first,
/// then individual elements.
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { elem, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        let n = rng.random_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        let min = self.len.start;
        // Length shrinks: jump to the minimum, bisect, drop one.
        for target in [
            min,
            min + (value.len() - min) / 2,
            value.len().saturating_sub(1),
        ] {
            if target >= min
                && target < value.len()
                && !out.iter().any(|c: &Vec<_>| c.len() == target)
            {
                out.push(value[..target].to_vec());
            }
        }
        // Element shrinks (first two candidates per slot keep the fanout
        // bounded on long vectors).
        for i in 0..value.len() {
            for cand in self.elem.shrink(&value[i]).into_iter().take(2) {
                let mut c = value.clone();
                c[i] = cand;
                out.push(c);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident : $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut c = value.clone();
                        c.$idx = cand;
                        out.push(c);
                    }
                )+
                out
            }
        }
    )+};
}
impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

fn regressions_path(manifest_dir: &str, name: &str) -> PathBuf {
    Path::new(manifest_dir)
        .join("proplite-regressions")
        .join(format!("{name}.txt"))
}

fn load_seeds(path: &Path) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut seeds: Vec<u64> = text
        .lines()
        .filter_map(|l| l.strip_prefix("cc "))
        .filter_map(|l| l.split_whitespace().next())
        .filter_map(|tok| tok.parse().ok())
        .collect();
    seeds.dedup();
    seeds
}

fn persist_seed(path: &Path, seed: u64, minimal: &str) {
    // Best-effort: read-only checkouts must not fail the test run over
    // bookkeeping (the panic message carries the seed regardless).
    if load_seeds(path).contains(&seed) {
        return;
    }
    let header = "# proptest_lite regression seeds. One failing case per `cc <seed>` line;\n\
                  # re-run before fresh cases. Check this file in to source control.\n";
    let _ = (|| -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        let mut text = if existing.is_empty() {
            header.to_string()
        } else {
            existing
        };
        text.push_str(&format!("cc {seed} # shrank to {minimal}\n"));
        std::fs::write(path, text)
    })();
}

/// Shrinks a failing value to a local minimum: repeatedly accepts the
/// first candidate that still fails, up to `max_iters` accepted steps.
fn shrink_failure<S, F>(
    strat: &S,
    mut value: S::Value,
    mut error: String,
    run_one: &F,
    max_iters: u32,
) -> (S::Value, String)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    for _ in 0..max_iters {
        let mut improved = false;
        for cand in strat.shrink(&value) {
            if let Err(msg) = run_one(cand.clone()) {
                value = cand;
                error = msg;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (value, error)
}

/// Runs one property: replay persisted regressions, then enumerate
/// fresh cases; shrink and panic on the first failure.
///
/// Invoked by the [`prop_tests!`](crate::prop_tests) macro — call it
/// directly only when generating cases programmatically.
///
/// # Panics
///
/// Panics (failing the surrounding `#[test]`) when the property fails,
/// after shrinking; the message contains the minimal input and the
/// persisted case seed.
pub fn run<S, F>(name: &str, manifest_dir: &str, config: &Config, strat: S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> TestCaseResult,
{
    let run_one = |v: S::Value| -> Result<(), String> {
        match catch_unwind(AssertUnwindSafe(|| test(v))) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(TestCaseError(msg))) => Err(msg),
            Err(payload) => Err(panic_message(payload)),
        }
    };
    let path = regressions_path(manifest_dir, name);

    for seed in load_seeds(&path) {
        let value = strat.generate(&mut Rng::seed_from_u64(seed));
        let original = format!("{value:?}");
        if let Err(msg) = run_one(value.clone()) {
            let (minimal, msg) =
                shrink_failure(&strat, value, msg, &run_one, config.max_shrink_iters);
            panic!(
                "[proptest_lite] {name}: persisted regression (cc {seed}, {}) still fails\n  \
                 original input: {original}\n  minimal input:  {minimal:?}\n  error: {msg}",
                path.display()
            );
        }
    }

    let mut master = Rng::seed_from_u64(config.seed).fork(name);
    for case in 0..config.cases {
        let case_seed = master.next_u64();
        let value = strat.generate(&mut Rng::seed_from_u64(case_seed));
        let original = format!("{value:?}");
        if let Err(msg) = run_one(value.clone()) {
            let (minimal, msg) =
                shrink_failure(&strat, value, msg, &run_one, config.max_shrink_iters);
            let minimal_str = format!("{minimal:?}");
            persist_seed(&path, case_seed, &minimal_str);
            panic!(
                "[proptest_lite] {name}: case {case}/{} failed (cc {case_seed})\n  \
                 original input: {original}\n  minimal input:  {minimal_str}\n  \
                 error: {msg}\n  seed persisted to {}",
                config.cases,
                path.display()
            );
        }
    }
}

/// Asserts a condition inside a [`prop_tests!`](crate::prop_tests)
/// body, returning a [`TestCaseError`](crate::proptest_lite::TestCaseError)
/// instead of panicking (which lets the runner shrink the input).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::proptest_lite::TestCaseError::fail(
                format!("{} ({}:{})", format_args!($($fmt)+), file!(), line!()),
            ));
        }
    };
}

/// Equality assertion for property bodies; optional trailing context
/// format arguments, like `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {:?} == {:?} — {}",
            l,
            r,
            format_args!($($fmt)+)
        );
    }};
}

/// Inequality assertion for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {:?} != {:?} — {}",
            l,
            r,
            format_args!($($fmt)+)
        );
    }};
}

/// Declares a block of property tests, mirroring `proptest!`:
///
/// ```ignore
/// prop_tests! {
///     config = Config::with_cases(48);
///
///     fn my_property(seed in 0u64..10_000, n in 4usize..40) {
///         prop_assert!(n < 40);
///     }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]`. Bodies may use the `prop_assert*`
/// macros, `?` on [`TestCaseResult`](crate::proptest_lite::TestCaseResult),
/// or `return Ok(())` to discard a case.
#[macro_export]
macro_rules! prop_tests {
    (config = $cfg:expr; $($rest:tt)*) => {
        $crate::__prop_tests_internal!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__prop_tests_internal!(($crate::proptest_lite::Config::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __prop_tests_internal {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let config: $crate::proptest_lite::Config = $cfg;
            $crate::proptest_lite::run(
                stringify!($name),
                env!("CARGO_MANIFEST_DIR"),
                &config,
                ($($strat,)+),
                |($($arg,)+)| {
                    $body
                    Ok(())
                },
            );
        }
        $crate::__prop_tests_internal!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_shrink_bisects_toward_low() {
        let s = 4usize..40;
        let c = s.shrink(&37);
        assert_eq!(c, vec![4, 20, 36]);
        assert!(s.shrink(&4).is_empty());
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let s = vec(0u64..10, 2..6);
        let v = s.generate(&mut Rng::seed_from_u64(1));
        assert!((2..6).contains(&v.len()));
        for cand in s.shrink(&vec![5, 5, 5, 5, 5]) {
            assert!(cand.len() >= 2);
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let s = (0u64..1000, 4usize..40, any_bool());
        let a = s.generate(&mut Rng::seed_from_u64(9));
        let b = s.generate(&mut Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn runner_shrinks_to_minimal_counterexample() {
        // Property "x < 500" over 0..10_000: minimal counterexample 500.
        // Persist into a temp dir so the intentional failure does not
        // pollute the source tree.
        let tmp = std::env::temp_dir().join(format!("proplite-shrink-{}", std::process::id()));
        let manifest = tmp.to_str().unwrap().to_string();
        let caught = std::panic::catch_unwind(|| {
            run(
                "shrink_demo",
                &manifest,
                &Config {
                    cases: 200,
                    seed: 1,
                    max_shrink_iters: 512,
                },
                (0u64..10_000,),
                |(x,)| {
                    if x >= 500 {
                        Err(TestCaseError::fail(format!("{x} too big")))
                    } else {
                        Ok(())
                    }
                },
            )
        });
        let msg = panic_message(caught.expect_err("property must fail"));
        assert!(msg.contains("minimal input:  (500,)"), "got: {msg}");
        // The failing seed was persisted and replays on the next run.
        assert_eq!(
            load_seeds(&regressions_path(&manifest, "shrink_demo")).len(),
            1
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn runner_passes_true_property() {
        run(
            "always_true",
            env!("CARGO_MANIFEST_DIR"),
            &Config::with_cases(50),
            (0u64..100, any_bool()),
            |(x, b)| {
                let _ = (x, b);
                Ok(())
            },
        );
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("proplite-test-{}", std::process::id()));
        let manifest = dir.to_str().unwrap().to_string();
        let path = regressions_path(&manifest, "roundtrip");
        persist_seed(&path, 42, "(7,)");
        persist_seed(&path, 43, "(9,)");
        persist_seed(&path, 42, "(7,)"); // duplicate ignored
        assert_eq!(load_seeds(&path), vec![42, 43]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

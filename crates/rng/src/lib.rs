//! **mwc-rng** — the single source of randomness for the whole workspace.
//!
//! Everything in this repository that flips a coin goes through this
//! crate: graph generators, skeleton-vertex sampling (Algorithm 1 /
//! Theorem 1.6), the random-delay schedule of Algorithm 3 \[24, 36\],
//! lower-bound instance sampling, and the property-test harness. Owning
//! the generator in-tree gives two properties the external `rand` crate
//! could not:
//!
//! 1. **Hermeticity** — no crates-io dependency, so `cargo build
//!    --offline` always works and the bit stream can never change under
//!    us on a version bump. Simulation ledgers (rounds/messages/words)
//!    are byte-reproducible across machines and over time.
//! 2. **Labeled substreams** — [`Rng::fork`] derives a decorrelated
//!    child stream from a *label* (and [`Rng::fork_u64`] from an index),
//!    as a pure function of the parent's seed path, **not** of how much
//!    of the parent stream was consumed. Per-node / per-phase randomness
//!    therefore stays stable when topology iteration order or scheduling
//!    changes — a prerequisite for regression-tracking round counts.
//!
//! The core generator is **xoshiro256\*\*** (Blackman & Vigna), seeded
//! through **SplitMix64** so that consecutive or otherwise correlated
//! `u64` seeds still yield well-mixed initial states.
//!
//! The API mirrors the `rand` surface the call sites already used
//! (`StdRng::seed_from_u64`, `random_range`, `random_bool`, slice
//! `shuffle`/`choose`), so migrating a call site is an import swap.
//!
//! ```
//! use mwc_rng::{SliceRandom, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let die = rng.random_range(1..=6u64);
//! assert!((1..=6).contains(&die));
//!
//! let mut items = vec![1, 2, 3, 4];
//! items.shuffle(&mut rng);
//!
//! // Labeled forks: stable, decorrelated substreams.
//! let delays = rng.fork("alg3/delays");
//! let sampling = rng.fork("alg1/skeleton");
//! assert_ne!(delays.clone().next_u64(), sampling.clone().next_u64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proptest_lite;

/// One SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion and for deriving fork identities; SplitMix64
/// is an equidistributed bijective mixer, so distinct inputs can never
/// collapse to one output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds `word` into a running digest. The next state is the mixed
/// output of [`splitmix64`], not its counter: xoring words into a counter
/// that only steps by a constant lets short runs of small words cancel
/// (two latency tables of one graph collided that way).
#[inline]
pub fn mix(state: &mut u64, word: u64) {
    let mut counter = *state ^ word;
    *state = splitmix64(&mut counter);
}

/// FNV-1a hash of a byte string, used to turn fork labels into stream
/// identities.
#[inline]
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic xoshiro256** generator with SplitMix64 seeding and
/// labeled substream forking.
///
/// [`StdRng`] is an alias for this type so call sites migrated from the
/// `rand` crate read unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
    /// Stable stream identity: the seed combined with the hash of every
    /// fork label on the path from the root. Forking reads this, never
    /// the consumed stream position.
    id: u64,
}

/// Drop-in alias matching the `rand::rngs::StdRng` spelling used across
/// the workspace before the hermetic migration.
pub type StdRng = Rng;

impl Rng {
    /// A generator whose entire stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s, id: seed }
    }

    /// The stable stream identity (seed ⊕ fork path). Exposed for
    /// diagnostics and replay tooling.
    pub fn stream_id(&self) -> u64 {
        self.id
    }

    /// A decorrelated child stream named by `label`.
    ///
    /// The child depends only on the parent's seed path and the label —
    /// not on how many values the parent has produced — so
    /// `seed_from_u64(s).fork("x")` is the same stream no matter where
    /// or when it is taken. Use one label per logical purpose
    /// (`"alg3/delays"`, `"gen/weights"`, …) so adding a new consumer
    /// of randomness never perturbs existing streams.
    pub fn fork(&self, label: &str) -> Self {
        self.fork_u64(fnv1a64(label.as_bytes()))
    }

    /// A decorrelated child stream indexed by `n` (e.g. one stream per
    /// node or per round). Equivalent guarantees to [`Rng::fork`].
    pub fn fork_u64(&self, n: u64) -> Self {
        let mut sm = self.id ^ n.rotate_left(17).wrapping_mul(0xA24B_AED4_963E_E407);
        let child_id = splitmix64(&mut sm);
        let mut child = Rng::seed_from_u64(child_id);
        child.id = child_id;
        child
    }

    /// The next raw 64-bit output (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, span)`, exact (Lemire multiply-shift with
    /// rejection).
    ///
    /// # Panics
    ///
    /// Panics if `span == 0`.
    #[inline]
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "empty sampling range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut lo = m as u64;
        if lo < span {
            let t = span.wrapping_neg() % span;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value from an integer range (`a..b` or `a..=b`),
    /// mirroring `rand`'s `random_range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn random_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to
    /// `[0, 1]`).
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.random_f64() < p.clamp(0.0, 1.0)
    }
}

/// Integer ranges that [`Rng::random_range`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty sampling range");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty sampling range");
                let span = (hi - lo) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Only reachable for 0..=u64::MAX: the raw stream.
                    rng.next_u64() as $t
                } else {
                    lo + rng.below(span as u64) as $t
                }
            }
        }
    )+};
}
impl_sample_range!(u8, u16, u32, u64, usize);

/// Slice helpers mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// The element type.
    type Item;

    /// Fisher–Yates shuffle, uniform over all permutations.
    fn shuffle(&mut self, rng: &mut Rng);

    /// A uniformly random element, or `None` if empty.
    fn choose(&self, rng: &mut Rng) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle(&mut self, rng: &mut Rng) {
        for i in (1..self.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose(&self, rng: &mut Rng) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.below(self.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(8);
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn known_answer_vector_is_frozen() {
        // Freezes the exact bit stream: if this test ever fails, every
        // recorded ledger in results/ silently changed meaning.
        let mut r = Rng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = Rng::seed_from_u64(0);
        let again: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(got, again);
        // SplitMix64(0) expands to the canonical xoshiro seed; spot-check
        // the first SplitMix outputs against the published reference.
        let mut sm = 0u64;
        assert_eq!(splitmix64(&mut sm), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut sm), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn range_bounds_are_respected() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.random_range(5u64..17);
            assert!((5..17).contains(&x));
            let y = r.random_range(5usize..=17);
            assert!((5..=17).contains(&y));
            let z = r.random_range(9u32..10);
            assert_eq!(z, 9);
        }
    }

    #[test]
    #[should_panic(expected = "empty sampling range")]
    fn empty_range_panics() {
        let mut r = Rng::seed_from_u64(0);
        let _ = r.random_range(5u64..5);
    }

    #[test]
    fn fork_is_position_independent() {
        let root = Rng::seed_from_u64(11);
        let early = root.fork("delays");
        let mut consumed = root.clone();
        for _ in 0..100 {
            consumed.next_u64();
        }
        let late = consumed.fork("delays");
        assert_eq!(early, late, "fork must not depend on consumption");
    }

    #[test]
    fn fork_labels_decorrelate() {
        let root = Rng::seed_from_u64(11);
        let mut a = root.fork("a");
        let mut b = root.fork("b");
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn fork_u64_indexes_distinct_streams() {
        let root = Rng::seed_from_u64(5);
        let firsts: std::collections::HashSet<u64> =
            (0..100).map(|i| root.fork_u64(i).next_u64()).collect();
        assert_eq!(firsts.len(), 100);
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng::seed_from_u64(1);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn choose_stays_in_slice() {
        let mut r = Rng::seed_from_u64(2);
        let v = [10, 20, 30];
        for _ in 0..50 {
            assert!(v.contains(v.choose(&mut r).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert_eq!(empty.choose(&mut r), None);
    }

    #[test]
    fn random_bool_extremes() {
        let mut r = Rng::seed_from_u64(4);
        assert!(!(0..100).any(|_| r.random_bool(0.0)));
        assert!((0..100).all(|_| r.random_bool(1.0)));
        // NaN and out-of-range clamp instead of panicking.
        let _ = r.random_bool(f64::NAN);
        let _ = r.random_bool(2.0);
    }
}

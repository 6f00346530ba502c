//! Data structures behind the flood loop of [`crate::multi_source_bfs`]
//! and [`crate::source_detection`] (the `multibfs` module docs state its
//! round semantics):
//!
//! - [`FloodPlan`]: the precomputed traversal-edge CSR the loop sends
//!   over, in plan order;
//! - [`BitFrontier`]: a node's fresh announcements as distance-bucketed
//!   u64 words, 64 source rows per word, popped in `(distance, row)`
//!   order and maintained eagerly (a superseded or evicted announcement
//!   is cleared with one AND-NOT, so every pop is fresh);
//! - [`NodeSet`]: the nodes holding a fresh announcement, iterated in
//!   ascending id;
//! - [`CalendarRing`]: in-flight announcements keyed by arrival round,
//!   for any latency.
//!
//! The loop bypasses the engine's per-message queues: each round's
//! traffic is charged in one `Network::charge_flood_round` call that
//! records exactly what `Network::send_on_link` plus
//! `Network::step_into`/`Network::step_bulk_into` would (pinned by the
//! engine's unit tests). The flood semantics themselves are pinned
//! against a small sequential specification by
//! `crates/congest/tests/flood_spec_differential.rs`.
//!
//! [`flood_engagement`] counts flood calls (memo replays included) for
//! run records and the benchmark harness. [`flood_kernel`] is a constant
//! stamp kept for the benchmark harness only; there is one flood loop and
//! nothing to select.

use crate::engine::Network;
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The flood implementation a run executed under. There is one: the
/// bit-parallel loop. Its only user is the benchmark harness under
/// `perfbench/`, whose result stamp still names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloodKernel {
    /// Bit-parallel loop (u64 frontier words, direct delivery, rounds
    /// charged in bulk).
    Bitset,
}

impl FloodKernel {
    /// The spelling run records stamp.
    pub fn name(self) -> &'static str {
        match self {
            FloodKernel::Bitset => "bitset",
        }
    }
}

/// The flood implementation every flood runs: [`FloodKernel::Bitset`].
/// Its only caller is the benchmark harness under `perfbench/`.
pub fn flood_kernel() -> FloodKernel {
    FloodKernel::Bitset
}

/// Process-cumulative count of floods run.
static FLOODS: AtomicU64 = AtomicU64::new(0);

/// Process-cumulative flood count as `(bitset, scalar)`: how many
/// [`crate::multi_source_bfs`] / [`crate::charge_multi_source_bfs`] /
/// [`crate::source_detection`] calls ran. A call the flood memo replays
/// (see [`crate::PhaseCache`]) counts like one that runs its flood, so the
/// tally is the same with the cache on or off. Run records stamp the
/// first field as `floods`. The second field is always 0 (there is no
/// second flood loop); the pair shape is kept for the benchmark harness
/// under `perfbench/`, which reads both.
pub fn flood_engagement() -> (u64, u64) {
    (FLOODS.load(Ordering::Relaxed), 0)
}

/// Tallies one flood call, run or replayed, for [`flood_engagement`].
pub(crate) fn note_flood() {
    FLOODS.fetch_add(1, Ordering::Relaxed);
}

/// Per traversal edge, everything a flood's inner loop needs: the link to
/// occupy, the receiving node, the announced distance increment, and the
/// extra delivery latency. Distance and travel time are decoupled so
/// zero-weight edges (the paper allows `w = 0`) stay exact: they add 0 to
/// the distance but still take one round to cross.
#[derive(Clone, Copy, Debug)]
pub struct FloodHop {
    /// Link id ([`Network::link_id`]) the announcement occupies.
    pub link: u32,
    /// The node at the receiving end of the link.
    pub to: u32,
    /// Announced distance increment (may be 0 for zero-weight edges).
    pub dist_add: Weight,
    /// Extra delivery latency in rounds: `stretch − 1`, where the stretch
    /// of an edge is `max(weight, 1)` — even a zero-weight edge takes one
    /// round to cross, so `latency == 0` means unit travel time.
    pub latency: u64,
}

/// Precomputed CSR over a graph's traversal edges. Resolving link ids,
/// receiver nodes, and latency-table entries once up front keeps the
/// per-announcement loop free of adjacency searches — it matters at
/// millions of announcements per run. Built per flood (direction and
/// latency table are parameters).
pub struct FloodPlan {
    /// CSR offsets: node `v`'s hops are `hops[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    /// One [`FloodHop`] per traversal edge, grouped by sending node.
    hops: Vec<FloodHop>,
    /// Largest hop latency (0 when every edge crosses in one round).
    max_latency: u64,
    /// Every hop adds 1 to the distance and crosses in one round.
    unit: bool,
}

impl FloodPlan {
    /// Distance contribution of an edge (the *announced* weight — may be
    /// 0). `None` means all-unit (plain BFS).
    pub(crate) fn dist_add(latency: Option<&[Weight]>, edge: usize) -> Weight {
        latency.map_or(1, |l| l[edge])
    }

    /// Travel time of an edge in rounds (≥ 1: even a zero-weight edge
    /// takes a round to cross).
    pub(crate) fn stretch(latency: Option<&[Weight]>, edge: usize) -> Weight {
        latency.map_or(1, |l| l[edge].max(1))
    }

    /// Builds the plan for `direction`-traversal of `g` with the given
    /// per-edge latency table (`None` = all-unit). The network is only
    /// consulted for link ids, so any message type works.
    ///
    /// # Panics
    ///
    /// Panics if a traversal edge is not a communication link of `net`,
    /// or if the edge count does not fit `u32`.
    pub fn build<M>(
        g: &Graph,
        net: &Network<M>,
        direction: Direction,
        latency: Option<&[Weight]>,
    ) -> FloodPlan {
        let n = g.n();
        let mut start = Vec::with_capacity(n + 1);
        let mut hops = Vec::new();
        let mut max_latency = 0;
        let mut unit = true;
        start.push(0);
        for v in 0..n {
            for a in direction.adj(g, v) {
                let l = net
                    .link_id(v, a.to)
                    .expect("traversal edges are communication links");
                let lat = Self::stretch(latency, a.edge) - 1;
                let dist_add = Self::dist_add(latency, a.edge);
                max_latency = max_latency.max(lat);
                unit &= dist_add == 1 && lat == 0;
                hops.push(FloodHop {
                    link: l as u32,
                    to: a.to as u32,
                    dist_add,
                    latency: lat,
                });
            }
            start.push(u32::try_from(hops.len()).expect("edge count fits u32"));
        }
        FloodPlan {
            start,
            hops,
            max_latency,
            unit,
        }
    }

    /// Node `v`'s outgoing traversal hops.
    pub fn of(&self, v: NodeId) -> &[FloodHop] {
        &self.hops[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// Largest hop latency in the plan (0 for a unit-latency flood). The
    /// flood loop sizes its [`CalendarRing`] from it, capped by the
    /// distance budget: a hop's latency never exceeds its distance
    /// increment, so no hop within the budget arrives further ahead.
    pub fn max_latency(&self) -> u64 {
        self.max_latency
    }

    /// `true` when every hop announces `d + 1` and crosses in one round:
    /// a plain BFS plan (no latency table, or one of all ones). The flood
    /// loop runs such a plan through its unit instantiation, where the
    /// per-hop increment, budget test and calendar ring drop out.
    pub(crate) fn is_unit(&self) -> bool {
        self.unit
    }
}

/// Most buckets a [`CalendarRing`] allocates: arrivals further ahead than
/// this many rounds wait in its sparse overflow level instead.
const RING_SPAN_MAX: u64 = 1 << 16;

/// A calendar queue over flood arrival rounds. Arrivals within the ring's
/// window — `span` consecutive rounds from the earliest undrained one,
/// where `span = min(max_latency + 1, 65 536)` — sit in a ring of
/// per-round buckets indexed by `arrival % span`; arrivals beyond the
/// window wait in a sparse ordered overflow level and migrate into their
/// bucket as the window reaches them. Any latency is accepted.
///
/// Order: items for one round come out in push order. Pushes happen in
/// send order and rounds are drained in increasing order, so this is the
/// `(send round, send order)` order of the engine's transit heap. An
/// overflow arrival for round `a` was pushed while `a` was still beyond
/// the window, hence before any push that landed in `a`'s bucket, and
/// migrates ahead of all of them.
///
/// Buckets hold bare items, not `(arrival, item)` pairs: a bucket only
/// ever holds arrivals for the one window round that maps to it, since
/// `push` and `migrate` admit an arrival to a bucket only inside the
/// window and a round is drained before the window moves past it. For
/// the flood loop's 24-byte transits that keeps each ring item 24 bytes
/// instead of 32.
#[derive(Clone, Debug)]
pub struct CalendarRing<T> {
    /// `buckets[a % span]` holds the pending round-`a` arrivals in push
    /// order; `span = buckets.len() = min(max_latency + 1, 65 536)`.
    buckets: Vec<Vec<T>>,
    /// Arrivals at or beyond `next + span`, by round, each in push order.
    far: BTreeMap<u64, Vec<T>>,
    /// The earliest round not yet drained: the window is
    /// `[next, next + span)`.
    next: u64,
    /// Total pending arrivals across buckets and overflow.
    len: usize,
}

impl<T> CalendarRing<T> {
    /// An empty ring whose first drainable round is 1, with buckets for
    /// latencies up to `max_latency` (capped at a fixed span; larger
    /// latencies are still accepted).
    pub fn new(max_latency: u64) -> CalendarRing<T> {
        let mut ring = CalendarRing {
            buckets: Vec::new(),
            far: BTreeMap::new(),
            next: 1,
            len: 0,
        };
        ring.reset(max_latency);
        ring
    }

    /// Makes an empty ring what [`CalendarRing::new`] with `max_latency`
    /// builds, keeping the capacity of the buckets the new span still
    /// uses: the flood loop resets one ring per flood instead of growing a
    /// fresh one. Buckets past the new span are dropped, so a ring holds
    /// no more buckets than its last flood needed.
    ///
    /// # Panics
    ///
    /// Panics if an arrival is still pending.
    pub fn reset(&mut self, max_latency: u64) {
        assert!(self.is_empty(), "reset of a ring with pending arrivals");
        let span = max_latency.saturating_add(1).min(RING_SPAN_MAX) as usize;
        self.buckets.resize_with(span, Vec::new);
        self.next = 1;
    }

    fn span(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Parks `item` for delivery at round `arrival`, which must not be a
    /// round already drained.
    pub fn push(&mut self, arrival: u64, item: T) {
        debug_assert!(arrival >= self.next, "arrival in a drained round");
        if arrival - self.next < self.span() {
            let b = (arrival % self.span()) as usize;
            self.buckets[b].push(item);
        } else {
            self.far.entry(arrival).or_default().push(item);
        }
        self.len += 1;
    }

    /// Moves every overflow arrival the window now covers into its bucket.
    fn migrate(&mut self) {
        let end = self.next.saturating_add(self.span());
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() >= end {
                break;
            }
            let (arrival, items) = entry.remove_entry();
            let b = (arrival % self.span()) as usize;
            self.buckets[b].extend(items);
        }
    }

    /// Drains the round-`round` arrivals into `out` in push order. Rounds
    /// drain in increasing order, and nothing may be pending before
    /// `round` (a jump ahead takes [`CalendarRing::next_arrival`]).
    pub fn drain_round_into(&mut self, round: u64, out: &mut Vec<T>) {
        debug_assert!(round >= self.next, "calendar rounds drain in order");
        self.next = round;
        self.migrate();
        let b = (round % self.span()) as usize;
        self.len -= self.buckets[b].len();
        out.append(&mut self.buckets[b]);
        self.next = round + 1;
        self.migrate();
    }

    /// The earliest pending arrival, or `None` when nothing is pending —
    /// the flood loop's quiet-round fast-forward (the engine's
    /// `step_bulk_into`). Scans at most one window, then the overflow.
    pub fn next_arrival(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let span = self.span();
        (self.next..self.next + span)
            .find(|r| !self.buckets[(r % span) as usize].is_empty())
            .or_else(|| self.far.first_key_value().map(|(&r, _)| r))
    }

    /// `true` when no arrival is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending arrivals.
    pub fn len(&self) -> usize {
        self.len
    }
}

/// Validates a flood's source list against the documented panic contract,
/// shared by [`crate::multi_source_bfs`] and [`crate::source_detection`].
///
/// # Panics
///
/// Panics if a source id is out of range or repeated.
pub(crate) fn validate_sources(n: usize, sources: &[NodeId]) {
    let mut seen = vec![false; n];
    for &s in sources {
        assert!(s < n, "source {s} out of range for {n} nodes");
        assert!(!seen[s], "source {s} repeated");
        seen[s] = true;
    }
}

/// A node's flood frontier as distance-bucketed u64 bitset words: entry
/// `(d, w, bits)` holds the fresh announcements at distance `d` for source
/// rows `64w .. 64w + 63` (bit `i` ⇔ row `64w + i`). Entries are sorted by
/// `(d, w)` and never empty, so the minimum announcement is the lowest set
/// bit of the first entry — `(d, row)` order by construction — and one
/// AND-NOT retires any of a word's 64 rows.
#[derive(Clone, Debug, Default)]
pub(crate) struct BitFrontier {
    /// Sorted, deduplicated by `(dist, word)`; every `bits` is nonzero.
    entries: Vec<(Weight, u32, u64)>,
}

impl BitFrontier {
    /// Marks source row `row` fresh at distance `d` (idempotent).
    pub(crate) fn insert(&mut self, d: Weight, row: u32) {
        let (w, bit) = (row / 64, 1u64 << (row % 64));
        match self.entries.binary_search_by_key(&(d, w), |e| (e.0, e.1)) {
            Ok(i) => self.entries[i].2 |= bit,
            Err(i) => self.entries.insert(i, (d, w, bit)),
        }
    }

    /// Clears row `row` at distance `d` if present (tolerant: the row may
    /// already have been popped and forwarded).
    pub(crate) fn remove(&mut self, d: Weight, row: u32) {
        let (w, bit) = (row / 64, 1u64 << (row % 64));
        if let Ok(i) = self.entries.binary_search_by_key(&(d, w), |e| (e.0, e.1)) {
            self.entries[i].2 &= !bit;
            if self.entries[i].2 == 0 {
                self.entries.remove(i);
            }
        }
    }

    /// Pops the minimum announcement in `(distance, source row)` order.
    pub(crate) fn pop_min(&mut self) -> Option<(Weight, u32)> {
        let &mut (d, w, ref mut bits) = self.entries.first_mut()?;
        let tz = bits.trailing_zeros();
        *bits &= *bits - 1; // clear the lowest set bit
        if *bits == 0 {
            self.entries.remove(0);
        }
        Some((d, w * 64 + tz))
    }

    /// `true` when no fresh announcement is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A set of node ids as u64 words, drained in ascending id order — the
/// flood loop's "nodes holding a fresh announcement".
#[derive(Clone, Debug)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// An empty set over nodes `0..n`.
    pub(crate) fn new(n: usize) -> NodeSet {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Makes an empty set a set over nodes `0..n`, keeping its capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        debug_assert!(self.is_empty(), "reset of a nonempty node set");
        // Every word is zero, so truncating or zero-extending is exact.
        self.words.resize(n.div_ceil(64), 0);
    }

    /// Adds `v` (idempotent).
    pub(crate) fn insert(&mut self, v: NodeId) {
        let (w, bit) = (v / 64, 1u64 << (v % 64));
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.len += 1;
        }
    }

    /// `true` when the set holds no node.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the set, yielding its nodes in ascending order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = NodeId> + '_ {
        self.len = 0;
        self.words.iter_mut().enumerate().flat_map(|(i, word)| {
            let mut bits = std::mem::take(word);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    i * 64 + tz
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_frontier_pops_in_dist_then_row_order() {
        let mut f = BitFrontier::default();
        for (d, row) in [(3, 7), (1, 200), (1, 3), (3, 6), (2, 0), (1, 64)] {
            f.insert(d, row);
        }
        let mut got = Vec::new();
        while let Some(p) = f.pop_min() {
            got.push(p);
        }
        assert_eq!(got, vec![(1, 3), (1, 64), (1, 200), (2, 0), (3, 6), (3, 7)]);
        assert!(f.is_empty());
    }

    #[test]
    fn bit_frontier_insert_is_idempotent_and_remove_is_tolerant() {
        let mut f = BitFrontier::default();
        f.insert(5, 10);
        f.insert(5, 10);
        f.remove(5, 11); // absent row in a present word
        f.remove(4, 10); // absent word
        assert_eq!(f.pop_min(), Some((5, 10)));
        assert_eq!(f.pop_min(), None);
        f.remove(5, 10); // already popped
        assert!(f.is_empty());
    }

    #[test]
    fn bit_frontier_remove_retires_moved_announcements() {
        let mut f = BitFrontier::default();
        f.insert(9, 65);
        f.insert(9, 66);
        // Row 65 improves to 4: the eager move of the flood loop.
        f.remove(9, 65);
        f.insert(4, 65);
        assert_eq!(f.pop_min(), Some((4, 65)));
        assert_eq!(f.pop_min(), Some((9, 66)));
        assert!(f.is_empty());
    }

    #[test]
    fn node_set_drains_ascending_and_empties() {
        let mut s = NodeSet::new(200);
        for v in [130, 3, 64, 3, 199, 0] {
            s.insert(v);
        }
        assert!(!s.is_empty());
        assert_eq!(s.drain().collect::<Vec<_>>(), vec![0, 3, 64, 130, 199]);
        assert!(s.is_empty());
        assert_eq!(s.drain().count(), 0);
    }

    #[test]
    fn calendar_ring_accepts_latencies_past_its_span() {
        // A 3-bucket ring; arrivals 10 and 1_000_000 start in overflow.
        let mut ring: CalendarRing<&str> = CalendarRing::new(2);
        ring.push(1_000_000, "far");
        ring.push(10, "a");
        ring.push(2, "near");
        ring.push(10, "b");
        let mut out = Vec::new();
        let mut rounds = Vec::new();
        while let Some(r) = ring.next_arrival() {
            ring.drain_round_into(r, &mut out);
            rounds.push(r);
            if r == 2 {
                // Window now [3, 6): round 10 is still in overflow; a
                // push for it must queue behind the earlier ones.
                ring.push(10, "c");
            }
        }
        assert_eq!(rounds, vec![2, 10, 1_000_000]);
        assert_eq!(out, vec!["near", "a", "b", "c", "far"]);
        assert!(ring.is_empty());
    }

    #[test]
    #[should_panic(expected = "source 3 repeated")]
    fn validate_sources_rejects_duplicates() {
        validate_sources(5, &[1, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn validate_sources_rejects_out_of_range() {
        validate_sources(5, &[5]);
    }
}

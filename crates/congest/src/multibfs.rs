//! Pipelined multi-source BFS and source detection, after Lenzen,
//! Patt-Shamir & Peleg \[37\] (the paper's reference for `O(h + k)`-round
//! `k`-source `h`-hop BFS and `(S, h, σ)` source detection).
//!
//! Both primitives use the classic pipelining schedule: every node keeps a
//! queue of fresh announcements `(distance, source)` and, each round,
//! forwards the smallest one over all of its traversal-direction links.
//! With unit latencies this completes `k`-source `h`-hop BFS in
//! `O(h + k)` rounds; the tests assert that envelope empirically.
//!
//! Announcements can also travel with **per-edge latencies** (the scaled /
//! stretched graphs of paper §4–5): an edge of stretch `ℓ` delays delivery
//! by `ℓ` rounds and adds its weight to the announced distance, which is
//! exactly a BFS on the stretched graph where each weighted edge becomes a
//! path of `ℓ` unit edges simulated at its endpoint.
//!
//! # Round semantics
//!
//! Both primitives run one flood loop, [`flood`], and differ only in what
//! a receiver admits ([`Admission`]). Its rounds follow five rules:
//!
//! 1. Each round, the nodes holding a fresh announcement act in ascending
//!    node id.
//! 2. An acting node pops its `(distance, source row)` minimum and sends
//!    it over its [`FloodPlan`] hops, in plan order, skipping hops whose
//!    announced distance exceeds the budget.
//! 3. A round delivers its latency-0 sends first, in send order; earlier
//!    sends arriving that round follow, in `(send round, send order)`.
//! 4. A delivery is admitted only if it strictly improves the receiver's
//!    distance for that source (detection also requires it to survive
//!    top-`σ` truncation), so the first strictly better delivery sets the
//!    predecessor.
//! 5. Round control: a pass that sends charges the next round; a pass
//!    that popped announcements but had every send filtered by the budget
//!    charges no round for BFS (the same nodes pop again) and one idle
//!    round for detection; a pass with nothing to pop fast-forwards to
//!    the next arrival, or ends the flood. The asymmetry is visible in
//!    the ledgers and is kept.
//!
//! A sequential specification of these rules in
//! `crates/congest/tests/common/flood_spec.rs` is differential-tested
//! against both primitives. The loop itself keeps per-node
//! [`BitFrontier`] outboxes (64 source rows per word, maintained eagerly
//! so every pop is fresh), parks latency-delayed sends in a
//! [`CalendarRing`], and charges each round's traffic in one
//! `Network::charge_flood_round` call instead of stepping the engine.
//! Its one body is instantiated twice, on [`FloodPlan::is_unit`]: for a
//! plan whose every hop adds 1 and crosses in one round (no latency
//! table, or an all-ones one) the distance add and budget test run once
//! per pop rather than once per hop, and the calendar ring is compiled
//! out, since every send arrives the next round.
//! These buffers, with the node sets and send/delivery vectors, are
//! reused across floods, not allocated per flood: they live in the
//! thread's workspace (the `workspace` module), and a finished flood
//! leaves them empty.
//!
//! Receivers keep what they admit in flat state allocated once. BFS
//! fills a node-major [`DistMatrix`]. Detection keeps a sparse
//! `DetectState`: each node's admitted rows form one row-sorted segment
//! of a single slab (a segment that outgrows its slot spills to one
//! shared vector), and its top-`σ` set sits in a fixed-stride slab. A
//! row new to a node that falls behind the node's full top set is
//! recorded and goes no further: it is *truncated on arrival*.

use crate::cache::PhaseCache;
use crate::distmat::{DistMatrix, INF};
use crate::engine::Network;
use crate::flood::{note_flood, validate_sources, BitFrontier, CalendarRing, FloodPlan, NodeSet};
use crate::ledger::Ledger;
use crate::workspace;
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};

/// Parameters of a multi-source search.
#[derive(Clone, Copy, Debug)]
pub struct MultiBfsSpec<'a> {
    /// Distance budget: announcements above this are not forwarded. For
    /// unit latencies this is the *hop* budget `h`; with latencies it is a
    /// stretched-distance budget. Use [`INF`] for an unbounded search.
    pub max_dist: Weight,
    /// Traversal direction over the (possibly directed) graph edges.
    pub direction: Direction,
    /// Per-[`EdgeId`](mwc_graph::EdgeId) stretch `ℓ(e) ≥ 1`; `None` means
    /// all-unit (plain BFS).
    pub latency: Option<&'a [Weight]>,
}

impl Default for MultiBfsSpec<'_> {
    fn default() -> Self {
        MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: None,
        }
    }
}

/// Adds an edge's announced weight to a distance, panicking when the sum
/// saturates into the [`INF`] sentinel: a genuine huge distance aliasing
/// to "unreachable" would silently flip the reachable-vs-unreachable
/// distinction for every `DistMatrix` / detection consumer, so it is a
/// contract violation rather than a value. (Real distances are bounded by
/// `n · max latency`, so this fires only on pathological latency tables.)
fn add_dist(d: Weight, add: Weight) -> Weight {
    match d.checked_add(add) {
        Some(c) if c < INF => c,
        _ => panic!("flood distance {d} + {add} saturates into the INF sentinel"),
    }
}

/// What a flood's receivers keep: the one place BFS and source detection
/// differ, apart from the round-control rule.
trait Admission {
    /// Whether a pass whose pops were all filtered by the distance budget
    /// still charges a round (rule 5 of the module docs).
    const CHARGES_FILTERED_POPS: bool;

    /// Admits source `row` at its own node `s`, queueing it in `outbox`
    /// if it is to be forwarded.
    fn seed(&mut self, s: NodeId, row: u32, outbox: &mut BitFrontier);

    /// Offers `(d, row)` arriving at `v` from `from`. On admission,
    /// updates the state, retires any announcement it displaces from
    /// `outbox`, queues the new one if it is to be forwarded, and returns
    /// whether it did.
    fn admit(
        &mut self,
        v: NodeId,
        row: u32,
        d: Weight,
        from: NodeId,
        outbox: &mut BitFrontier,
    ) -> bool;
}

impl Admission for DistMatrix {
    const CHARGES_FILTERED_POPS: bool = false;

    fn seed(&mut self, s: NodeId, row: u32, outbox: &mut BitFrontier) {
        self.set_row(row as usize, s, 0, None);
        outbox.insert(0, row);
    }

    fn admit(
        &mut self,
        v: NodeId,
        row: u32,
        d: Weight,
        from: NodeId,
        outbox: &mut BitFrontier,
    ) -> bool {
        let old = self.get_row(row as usize, v);
        if d >= old {
            return false;
        }
        if old != INF {
            outbox.remove(old, row);
        }
        self.set_row(row as usize, v, d, Some(from));
        outbox.insert(d, row);
        true
    }
}

/// An announcement on its way: `(link, to, row, dist, from)` — the link
/// that carried it and everything delivery needs.
type Transit = (u32, u32, u32, Weight, u32);

/// The flood loop's buffers, kept in the thread's
/// [`Workspace`](crate::workspace::Workspace) between floods. A finished
/// flood leaves every outbox, node set and ring bucket empty, so the next
/// flood only resizes them.
pub(crate) struct FloodBuffers {
    /// Per-node fresh announcements; entries past the current `n` are
    /// spares from a larger graph (empty). Dropped at the end of each
    /// solve ([`workspace::release_outboxes`]).
    outbox: Vec<BitFrontier>,
    /// Nodes holding a fresh announcement for the next pass.
    pending: NodeSet,
    /// The nodes acting in the current pass.
    acting: NodeSet,
    /// Latency-delayed sends by arrival round.
    ring: CalendarRing<Transit>,
    /// One pass's charged links, in send order.
    links: Vec<u32>,
    /// One round's deliveries: latency-0 sends, then the ring's expiries.
    deliv: Vec<Transit>,
}

impl Default for FloodBuffers {
    fn default() -> Self {
        FloodBuffers {
            outbox: Vec::new(),
            pending: NodeSet::new(0),
            acting: NodeSet::new(0),
            ring: CalendarRing::new(0),
            links: Vec::new(),
            deliv: Vec::new(),
        }
    }
}

impl FloodBuffers {
    /// Sizes the buffers for an `n`-node flood whose arrivals lie at most
    /// `max_latency` rounds ahead.
    fn prepare(&mut self, n: usize, max_latency: u64) {
        if self.outbox.len() < n {
            self.outbox.resize_with(n, BitFrontier::default);
        }
        self.pending.reset(n);
        self.acting.reset(n);
        self.ring.reset(max_latency);
    }

    /// Drops every node's outbox, keeping the table that holds them; see
    /// [`workspace::release_outboxes`].
    pub(crate) fn release_outboxes(&mut self) {
        self.outbox.clear();
    }

    /// `true` when nothing of a flood is left behind: what lets the next
    /// flood skip a clearing pass.
    fn is_clear(&self) -> bool {
        self.outbox.iter().all(BitFrontier::is_empty)
            && self.pending.is_empty()
            && self.acting.is_empty()
            && self.ring.is_empty()
    }
}

/// The flood loop behind both primitives: seeds `sources` (row `i` is
/// `sources[i]`), then runs rounds by the module docs' five rules until
/// nothing is left to send or deliver, charging each round to `net`. Its
/// buffers come from the thread's workspace and go back there.
fn flood<A: Admission>(
    sources: &[NodeId],
    budget: Weight,
    plan: &FloodPlan,
    net: &mut Network<()>,
    state: &mut A,
) {
    if plan.is_unit() {
        flood_rounds::<A, true>(sources, budget, plan, net, state);
    } else {
        flood_rounds::<A, false>(sources, budget, plan, net, state);
    }
}

/// [`flood`]'s one loop body, instantiated per plan kind. With `UNIT` (a
/// plan whose every hop adds 1 and crosses in one round, see
/// [`FloodPlan::is_unit`]) a pop's announced distance and budget test are
/// computed once for all its hops, every send is delivered the next round
/// and the calendar ring is never touched, so its code drops out. Both
/// instantiations run the same rules and charge the same rounds.
fn flood_rounds<A: Admission, const UNIT: bool>(
    sources: &[NodeId],
    budget: Weight,
    plan: &FloodPlan,
    net: &mut Network<()>,
    state: &mut A,
) {
    debug_assert_eq!(UNIT, plan.is_unit(), "flood instantiated for another plan");
    note_flood();
    let mut ws = workspace::take();
    // A hop is sent only if `d + dist_add ≤ budget`, and its latency is at
    // most `dist_add`, so no arrival lies more than `budget` rounds ahead.
    ws.flood.prepare(net.n(), plan.max_latency().min(budget));
    let FloodBuffers {
        outbox,
        pending,
        acting,
        ring,
        links,
        deliv,
    } = &mut ws.flood;
    for (row, &s) in sources.iter().enumerate() {
        state.seed(s, row as u32, &mut outbox[s]);
        if !outbox[s].is_empty() {
            pending.insert(s);
        }
    }

    loop {
        links.clear();
        deliv.clear();
        let send_round = net.round() + 1;
        let mut popped = false;
        std::mem::swap(acting, pending);
        for v in acting.drain() {
            let Some((d, row)) = outbox[v].pop_min() else {
                continue; // detection evicted everything it held
            };
            popped = true;
            // A unit pop announces `d + 1` on every hop: one add, one
            // budget test, and no hops at all when it is over budget.
            let unit_cand = if UNIT { add_dist(d, 1) } else { 0 };
            let hops = if UNIT && unit_cand > budget {
                &[]
            } else {
                plan.of(v)
            };
            for hop in hops {
                let cand = if UNIT {
                    unit_cand
                } else {
                    add_dist(d, hop.dist_add)
                };
                if !UNIT && cand > budget {
                    continue;
                }
                debug_assert!(hop.latency <= budget, "latency beyond the budget");
                links.push(hop.link);
                let msg = (hop.link, hop.to, row, cand, v as u32);
                if UNIT || hop.latency == 0 {
                    deliv.push(msg);
                } else {
                    ring.push(send_round + hop.latency, msg);
                }
            }
            if !outbox[v].is_empty() {
                pending.insert(v);
            }
        }

        let round = if !links.is_empty() || (popped && A::CHARGES_FILTERED_POPS) {
            send_round
        } else if !pending.is_empty() {
            continue; // BFS: every pop was filtered, no round passes
        } else {
            // A unit flood delivers every send in the round after it, so
            // nothing is in flight here.
            match if UNIT { None } else { ring.next_arrival() } {
                Some(r) => r,
                None => break,
            }
        };
        if !UNIT {
            ring.drain_round_into(round, deliv);
        }
        net.charge_flood_round(round, links, deliv.iter().map(|m| m.0), 1, 1);
        for &(_, to, row, cand, from) in deliv.iter() {
            let v = to as usize;
            if state.admit(v, row, cand, from as usize, &mut outbox[v]) {
                pending.insert(v);
            }
        }
    }
    debug_assert!(
        ws.flood.is_clear(),
        "a finished flood leaves its buffers empty"
    );
    workspace::put_back(ws);
}

/// Runs a pipelined `h`-bounded search from `sources` and returns the
/// distance table. Costs `O(max_dist + k)` rounds for unit latencies,
/// charged to `ledger` under `label`.
///
/// Inside a [`PhaseCache`] scope a flood identical to one already run in
/// the scope may be replayed from the flood memo: the same span, ledger
/// phase and bound audit, without re-running the flood (see the `cache`
/// module docs).
///
/// # Panics
///
/// Panics if a source id is out of range or repeated, if `spec.latency`
/// is provided with fewer entries than the graph has edges, or if an
/// announced distance would saturate into the [`INF`] sentinel.
pub fn multi_source_bfs(
    g: &Graph,
    sources: &[NodeId],
    spec: &MultiBfsSpec<'_>,
    label: &str,
    ledger: &mut Ledger,
) -> DistMatrix {
    bfs(g, sources, spec, label, ledger, true).expect("a wanted flood returns its matrix")
}

/// Charges exactly what [`multi_source_bfs`] with the same arguments
/// would, for a caller that does not need the distance table. Telling
/// the flood memo so lets it park the table for a later real run of the
/// same flood, or replay this run from an earlier one.
///
/// # Panics
///
/// As [`multi_source_bfs`].
pub fn charge_multi_source_bfs(
    g: &Graph,
    sources: &[NodeId],
    spec: &MultiBfsSpec<'_>,
    label: &str,
    ledger: &mut Ledger,
) {
    bfs(g, sources, spec, label, ledger, false);
}

/// [`multi_source_bfs`] through the flood memo; the table is returned
/// only when `wanted`.
fn bfs(
    g: &Graph,
    sources: &[NodeId],
    spec: &MultiBfsSpec<'_>,
    label: &str,
    ledger: &mut Ledger,
    wanted: bool,
) -> Option<DistMatrix> {
    if let Some(l) = spec.latency {
        assert!(l.len() >= g.m(), "latency table must cover all edges");
    }
    validate_sources(g.n(), sources);
    let _span = mwc_trace::span_owned(|| format!("multibfs/{label}"));
    let n = g.n();
    let key = PhaseCache::flood_key(g, sources, spec);
    let replayed = key.and_then(|key| PhaseCache::replay_flood(key, wanted, label, ledger));
    let (rounds, mat) = match replayed {
        Some(replayed) => {
            note_flood();
            replayed
        }
        None => {
            let mut mat = DistMatrix::new(n, sources.to_vec());
            let mut net: Network<()> = Network::new(g);
            let plan = FloodPlan::build(g, &net, spec.direction, spec.latency);
            flood(sources, spec.max_dist, &plan, &mut net, &mut mat);
            ledger.absorb(label, &net);
            let rounds = net.round();
            let mat = match key {
                Some(key) => PhaseCache::store_flood(key, net, mat, wanted),
                None => wanted.then_some(mat),
            };
            (rounds, mat)
        }
    };
    mwc_trace::check_bound(
        "congest/multibfs",
        mwc_trace::BoundInputs::n(n)
            .h(crate::bounds::effective_hops(
                n,
                spec.max_dist,
                spec.latency,
                g.m(),
            ))
            .k(sources.len() as u64),
        rounds,
        crate::bounds::multibfs,
    );
    mat
}

/// Result of [`source_detection`]: for each node, its detected sources as
/// `(distance, source)` pairs sorted lexicographically — the `σ` closest
/// sources within distance `h`, ties broken by source id.
pub type DetectionLists = Vec<Vec<(Weight, NodeId)>>;

/// Output of [`source_detection`]: the per-node top-`σ` lists plus
/// predecessor bookkeeping for witness-path reconstruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Detection {
    /// Per node, the detected `(distance, source)` pairs (≤ `σ`, sorted).
    pub lists: DetectionLists,
    /// Every source ever admitted at each node, as one flat CSR: node
    /// `v`'s entries are `start[v]..start[v + 1]` of the parallel `src`,
    /// `dist` and `pred` arrays, ascending by source id (looked up by
    /// binary search). `pred` is the neighbor the best announcement
    /// arrived from.
    start: Vec<usize>,
    src: Vec<u32>,
    dist: Vec<Weight>,
    pred: Vec<u32>,
}

impl Detection {
    /// Index of `src`'s entry at `node`, if `src` was ever admitted there.
    fn entry(&self, node: NodeId, src: NodeId) -> Option<usize> {
        let (lo, hi) = (self.start[node], self.start[node + 1]);
        let key = u32::try_from(src).ok()?;
        self.src[lo..hi].binary_search(&key).ok().map(|i| lo + i)
    }

    /// Best-known distance from `src` to `node`, if any announcement for
    /// `src` ever reached `node` (superset of the truncated lists).
    pub fn dist(&self, node: NodeId, src: NodeId) -> Option<Weight> {
        self.entry(node, src).map(|i| self.dist[i])
    }

    /// The first hop of [`Detection::path_to_source`] without walking or
    /// allocating the path: the neighbor `node`'s best announcement for
    /// `src` arrived from (`node` itself when `node == src`, mirroring the
    /// self-admission's predecessor). Predecessor chains always close —
    /// a sender admits its own entry before announcing, entries are never
    /// removed, and admission times strictly decrease along a chain — so
    /// this equals `path_to_source(node, src)?[1]` whenever that path has
    /// a second vertex.
    pub fn pred(&self, node: NodeId, src: NodeId) -> Option<NodeId> {
        self.entry(node, src).map(|i| self.pred[i] as NodeId)
    }

    /// The discovered path `node → … → src` following predecessor
    /// pointers (real graph edges). `None` if `src` never reached `node`.
    pub fn path_to_source(&self, node: NodeId, src: NodeId) -> Option<Vec<NodeId>> {
        let n = self.start.len() - 1;
        let mut path = vec![node];
        let mut cur = node;
        while cur != src {
            cur = self.pred(cur, src)?;
            path.push(cur);
            if path.len() > n {
                return None;
            }
        }
        Some(path)
    }
}

/// One source row admitted at a node: its best distance and the neighbor
/// that distance arrived from.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    dist: Weight,
    row: u32,
    pred: u32,
}

/// Where a node's admitted entries live: `cap` slots from `base`, the
/// first `len` in use and sorted by row. A `base` below the slab's length
/// indexes the slab; one at or past it indexes the spill vector, offset
/// by that length.
#[derive(Clone, Copy, Debug)]
struct Seg {
    base: usize,
    len: u32,
    cap: u32,
}

/// Per-node detection state. Each node keeps only the source rows it has
/// admitted, plus its top-`σ` set, and no node owns a heap vector:
///
/// - Admitted `(row, pred, dist)` entries form one row-sorted segment per
///   node in a single slab, allocated once. Node `v`'s slot holds
///   `min((σ + 1)·(1 + hops(v)), ¾·|S|)` entries (a node learns rows from
///   its neighbors' top sets); the cap keeps the slab of 16-byte entries
///   from outweighing the dense 12-byte distance/predecessor cells it
///   replaces.
/// - A segment that outgrows its slot moves to the end of one spill
///   vector at double capacity (at most `|S|`), abandoning its old slots.
/// - The top sets share one fixed-stride slab of `min(σ, |S|) + 1` slots
///   per node (room for an insertion awaiting truncation) and a length
///   array.
///
/// The admit fast path is a binary search of the node's segment. A row
/// new to the node that falls behind a full top set is *truncated on
/// arrival*: it is recorded in the segment and goes no further, since the
/// top set would only take it in and evict it again.
struct DetectState {
    rows: usize,
    sigma: usize,
    slab: Vec<Entry>,
    spill: Vec<Entry>,
    segs: Vec<Seg>,
    /// Node `v`'s top set is `top[v * stride..][..top_len[v]]`, sorted.
    top: Vec<(Weight, u32)>,
    top_len: Vec<u32>,
    stride: usize,
}

impl DetectState {
    /// State for `n` nodes flooding over `plan` from `rows` sources. No
    /// slot exceeds `max_slot` entries: the tests pass 0 to send every
    /// segment through the spill path.
    fn new(n: usize, plan: &FloodPlan, rows: usize, sigma: usize, max_slot: usize) -> DetectState {
        assert!(
            u32::try_from(n).is_ok(),
            "node ids must fit the u32 predecessor table"
        );
        let slot_max = (rows * 3 / 4).min(max_slot);
        let mut base = 0;
        let segs = (0..n)
            .map(|v| {
                let cap = sigma
                    .saturating_add(1)
                    .saturating_mul(1 + plan.of(v).len())
                    .min(slot_max);
                let seg = Seg {
                    base,
                    len: 0,
                    cap: cap as u32,
                };
                base += cap;
                seg
            })
            .collect();
        let stride = sigma.min(rows) + 1;
        DetectState {
            rows,
            sigma,
            slab: vec![Entry::default(); base],
            spill: Vec::new(),
            segs,
            top: vec![(0, 0); n * stride],
            top_len: vec![0; n],
            stride,
        }
    }

    /// A segment's slots, `cap` long.
    fn slots(&self, s: Seg) -> &[Entry] {
        let cap = s.cap as usize;
        match s.base.checked_sub(self.slab.len()) {
            None => &self.slab[s.base..s.base + cap],
            Some(b) => &self.spill[b..b + cap],
        }
    }

    fn slots_mut(&mut self, s: Seg) -> &mut [Entry] {
        let cap = s.cap as usize;
        match s.base.checked_sub(self.slab.len()) {
            None => &mut self.slab[s.base..s.base + cap],
            Some(b) => &mut self.spill[b..b + cap],
        }
    }

    /// Inserts `e` at `pos` of `v`'s segment, first moving a full segment
    /// to the end of the spill vector at double capacity.
    fn insert(&mut self, v: NodeId, pos: usize, e: Entry) {
        let mut s = self.segs[v];
        let len = s.len as usize;
        if s.len == s.cap {
            let cap = (2 * s.cap as usize).clamp(1, self.rows);
            let base = self.spill.len();
            match s.base.checked_sub(self.slab.len()) {
                None => self
                    .spill
                    .extend_from_slice(&self.slab[s.base..s.base + len]),
                Some(b) => self.spill.extend_from_within(b..b + len),
            }
            self.spill.resize(base + cap, Entry::default());
            s.base = self.slab.len() + base;
            s.cap = cap as u32;
        }
        let slots = self.slots_mut(s);
        slots.copy_within(pos..len, pos + 1);
        slots[pos] = e;
        s.len += 1;
        self.segs[v] = s;
    }

    /// Whether `(d, row)` falls behind `v`'s full top set (always, when
    /// σ = 0). Distances compare first; rows only break ties.
    fn beyond_top(&self, v: NodeId, d: Weight, row: u32) -> bool {
        let len = self.top_len[v] as usize;
        len >= self.sigma
            && (len == 0 || {
                let (wd, wrow) = self.top[v * self.stride + len - 1];
                wd < d || (wd == d && wrow < row)
            })
    }

    /// The finished [`Detection`]: top sets renamed from rows to source
    /// ids, and the segments (rows are in source-id order) concatenated
    /// into the CSR.
    fn into_detection(self, srcs: &[NodeId]) -> Detection {
        let lists: DetectionLists = (0..self.segs.len())
            .map(|v| {
                let top = &self.top[v * self.stride..][..self.top_len[v] as usize];
                top.iter()
                    .map(|&(d, row)| (d, srcs[row as usize]))
                    .collect()
            })
            .collect();
        let total = self.segs.iter().map(|s| s.len as usize).sum();
        let mut start = Vec::with_capacity(self.segs.len() + 1);
        let mut src = Vec::with_capacity(total);
        let mut dist = Vec::with_capacity(total);
        let mut pred = Vec::with_capacity(total);
        start.push(0);
        for &s in &self.segs {
            for e in &self.slots(s)[..s.len as usize] {
                src.push(srcs[e.row as usize] as u32);
                dist.push(e.dist);
                pred.push(e.pred);
            }
            start.push(src.len());
        }
        Detection {
            lists,
            start,
            src,
            dist,
            pred,
        }
    }
}

impl Admission for DetectState {
    const CHARGES_FILTERED_POPS: bool = true;

    fn seed(&mut self, s: NodeId, row: u32, outbox: &mut BitFrontier) {
        // A source's own announcement arrives "from" itself, which is
        // what `Detection::pred` reports at the source.
        self.admit(s, row, 0, s, outbox);
    }

    /// Admits `(d, row)` if it improves `v`'s best distance for the row,
    /// retiring the superseded announcement and every top-`σ` eviction
    /// from `outbox`; it is queued for forwarding only if it survives
    /// truncation.
    fn admit(
        &mut self,
        v: NodeId,
        row: u32,
        d: Weight,
        from: NodeId,
        outbox: &mut BitFrontier,
    ) -> bool {
        let seg = self.segs[v];
        let entries = &self.slots(seg)[..seg.len as usize];
        let (pos, old) = match entries.binary_search_by_key(&row, |e| e.row) {
            Ok(i) => (i, entries[i].dist),
            Err(i) => (i, INF),
        };
        // Admitted distances never reach `INF` (announcements assert
        // against saturation), so the absent sentinel can only lose here.
        if old <= d {
            return false;
        }
        let entry = Entry {
            dist: d,
            row,
            pred: from as u32,
        };
        // Truncated on arrival: a new row behind a full top set is only
        // recorded.
        if old == INF && self.beyond_top(v, d, row) {
            self.insert(v, pos, entry);
            return false;
        }
        if old == INF {
            self.insert(v, pos, entry);
        } else {
            self.slots_mut(seg)[pos] = entry;
        }

        let mut len = self.top_len[v] as usize;
        let top = &mut self.top[v * self.stride..][..self.stride];
        if old != INF {
            // The superseded entry may already have been truncated away.
            if let Ok(i) = top[..len].binary_search(&(old, row)) {
                top.copy_within(i + 1..len, i);
                len -= 1;
            }
            outbox.remove(old, row);
        }
        let at = top[..len].binary_search(&(d, row)).unwrap_err();
        top.copy_within(at..len, at + 1);
        top[at] = (d, row);
        len += 1;
        if len > self.sigma {
            len -= 1;
            let (wd, wrow) = top[len];
            outbox.remove(wd, wrow);
        }
        self.top_len[v] = len as u32;
        // Forward only if the entry survived truncation (it did exactly
        // when it landed inside the first σ slots).
        let fresh = at < self.sigma;
        if fresh {
            outbox.insert(d, row);
        }
        fresh
    }
}

/// `(S, h, σ)` source detection \[37\]: every node learns the `σ`
/// lexicographically-smallest `(distance, source)` pairs among sources
/// within distance `h`. Costs `O(h + σ)` rounds for unit latencies.
///
/// Nodes only store and forward their current top-`σ` lists, so the
/// per-node memory and traffic stay proportional to `σ` — this is what
/// makes the girth algorithm's `√n`-neighborhood computation affordable
/// (paper §4). With `latency` set, distances are measured in the
/// stretched metric (paper §4's stretched graphs).
///
/// # Panics
///
/// Panics if a source id is out of range or repeated, if `latency` is
/// provided with fewer entries than the graph has edges, or if an
/// announced distance would saturate into the [`INF`] sentinel.
#[allow(clippy::too_many_arguments)] // mirrors the primitive's full (S, h, σ) signature
pub fn source_detection(
    g: &Graph,
    sources: &[NodeId],
    h: Weight,
    sigma: usize,
    direction: Direction,
    latency: Option<&[Weight]>,
    label: &str,
    ledger: &mut Ledger,
) -> Detection {
    detect(
        g,
        sources,
        h,
        sigma,
        direction,
        latency,
        label,
        ledger,
        usize::MAX,
    )
}

/// [`source_detection`] with [`DetectState`] slots capped at `max_slot`
/// entries (the tests pass 0 to send every segment through the spill
/// path).
#[allow(clippy::too_many_arguments)]
fn detect(
    g: &Graph,
    sources: &[NodeId],
    h: Weight,
    sigma: usize,
    direction: Direction,
    latency: Option<&[Weight]>,
    label: &str,
    ledger: &mut Ledger,
    max_slot: usize,
) -> Detection {
    if let Some(l) = latency {
        assert!(l.len() >= g.m(), "latency table must cover all edges");
    }
    validate_sources(g.n(), sources);
    let _span = mwc_trace::span_owned(|| format!("detect/{label}"));
    let n = g.n();
    let mut net: Network<()> = Network::new(g);
    let plan = FloodPlan::build(g, &net, direction, latency);

    // Sort sources so "source row" order matches id order (consistent
    // tie-breaking is what makes truncated detection exact).
    let mut srcs: Vec<NodeId> = sources.to_vec();
    srcs.sort_unstable();

    let mut state = DetectState::new(n, &plan, srcs.len(), sigma, max_slot);
    flood(&srcs, h, &plan, &mut net, &mut state);
    ledger.absorb(label, &net);
    mwc_trace::check_bound(
        "congest/source_detection",
        mwc_trace::BoundInputs::n(n)
            .h(crate::bounds::effective_hops(n, h, latency, g.m()))
            .k(sigma.min(srcs.len()) as u64),
        net.round(),
        crate::bounds::source_detection,
    );

    state.into_detection(&srcs)
}

/// The sequential flood specification the tests below check against.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/common/flood_spec.rs"]
mod flood_spec;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventCapture;
    use flood_spec::{run_flood, Rule, SpecOutcome};
    use mwc_graph::generators::{connected_gnm, grid, WeightRange};
    use mwc_graph::seq::{bellman_ford_hops, bfs, HOP_INF};
    use mwc_graph::Orientation;

    /// Runs a BFS and checks distances, predecessors, and the ledger's
    /// totals and per-link words against the sequential spec.
    fn assert_bfs_matches_spec(
        g: &Graph,
        sources: &[NodeId],
        spec: &MultiBfsSpec<'_>,
    ) -> DistMatrix {
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(g, sources, spec, "spec", &mut ledger);
        let want = run_flood(
            g,
            sources,
            spec.max_dist,
            spec.direction,
            spec.latency,
            Rule::Bfs,
        );
        for (row, &s) in sources.iter().enumerate() {
            for v in 0..g.n() {
                let (d, p) = want.best[v]
                    .get(&row)
                    .map_or((INF, None), |&(d, p)| (d, Some(p)));
                let p = p.filter(|_| v != s);
                assert_eq!(
                    (mat.get_row(row, v), mat.pred_row(row, v)),
                    (d, p),
                    "row {row} node {v}"
                );
            }
        }
        assert_totals_match(&ledger, &want);
        mat
    }

    /// Runs a detection and checks lists, predecessors, and the ledger
    /// against the sequential spec.
    fn assert_detection_matches_spec(
        g: &Graph,
        sources: &[NodeId],
        h: Weight,
        sigma: usize,
        latency: Option<&[Weight]>,
    ) -> Detection {
        assert_slotted_detection_matches_spec(g, sources, (h, sigma), latency, usize::MAX)
    }

    /// [`assert_detection_matches_spec`] with [`DetectState`] slots capped
    /// at `max_slot`; also checks the CSR entry by entry.
    fn assert_slotted_detection_matches_spec(
        g: &Graph,
        sources: &[NodeId],
        (h, sigma): (Weight, usize),
        latency: Option<&[Weight]>,
        max_slot: usize,
    ) -> Detection {
        let mut ledger = Ledger::new();
        let dir = Direction::Forward;
        let det = detect(
            g,
            sources,
            h,
            sigma,
            dir,
            latency,
            "spec",
            &mut ledger,
            max_slot,
        );
        let mut srcs = sources.to_vec();
        srcs.sort_unstable();
        let want = run_flood(g, &srcs, h, dir, latency, Rule::Detect { sigma });
        for v in 0..g.n() {
            let lists: Vec<(Weight, NodeId)> =
                want.top[v].iter().map(|&(d, r)| (d, srcs[r])).collect();
            assert_eq!(det.lists[v], lists, "node {v} list");
            for (row, &s) in srcs.iter().enumerate() {
                let entry = want.best[v].get(&row).copied();
                assert_eq!(det.dist(v, s), entry.map(|e| e.0), "node {v} src {s}");
                assert_eq!(det.pred(v, s), entry.map(|e| e.1), "node {v} src {s}");
            }
            let csr: Vec<(u32, Weight, u32)> = (det.start[v]..det.start[v + 1])
                .map(|i| (det.src[i], det.dist[i], det.pred[i]))
                .collect();
            let spec: Vec<(u32, Weight, u32)> = want.best[v]
                .iter()
                .map(|(&row, &(d, p))| (srcs[row] as u32, d, p as u32))
                .collect();
            assert_eq!(csr, spec, "node {v} admitted entries");
        }
        assert_totals_match(&ledger, &want);
        det
    }

    fn assert_totals_match(ledger: &Ledger, want: &SpecOutcome) {
        assert_eq!(
            (ledger.rounds, ledger.words, ledger.messages),
            (want.rounds, want.words, want.messages)
        );
        let mut links: Vec<((NodeId, NodeId), u64)> = ledger.hot_links(usize::MAX);
        links.sort_unstable();
        let want_links: Vec<_> = want.link_words.iter().map(|(&l, &w)| (l, w)).collect();
        assert_eq!(links, want_links, "per-link words");
    }

    fn assert_matches_bfs(g: &Graph, sources: &[NodeId], h: Weight, dir: Direction) {
        let mut ledger = Ledger::new();
        let spec = MultiBfsSpec {
            max_dist: h,
            direction: dir,
            latency: None,
        };
        let mat = multi_source_bfs(g, sources, &spec, "test", &mut ledger);
        for (row, &s) in sources.iter().enumerate() {
            let t = bfs(g, s, dir);
            for v in 0..g.n() {
                let expect = if t.dist[v] == HOP_INF || (t.dist[v] as Weight) > h {
                    INF
                } else {
                    t.dist[v] as Weight
                };
                assert_eq!(
                    mat.get_row(row, v),
                    expect,
                    "src {s} node {v} (dir {dir:?})"
                );
            }
        }
    }

    #[test]
    fn single_source_bfs_exact() {
        let g = connected_gnm(60, 90, Orientation::Undirected, WeightRange::unit(), 5);
        assert_matches_bfs(&g, &[0], INF, Direction::Forward);
    }

    #[test]
    fn multi_source_bfs_exact_undirected() {
        let g = connected_gnm(50, 70, Orientation::Undirected, WeightRange::unit(), 9);
        assert_matches_bfs(&g, &[0, 7, 13, 31, 49], INF, Direction::Forward);
    }

    #[test]
    fn multi_source_bfs_exact_directed_both_directions() {
        let g = connected_gnm(50, 120, Orientation::Directed, WeightRange::unit(), 11);
        assert_matches_bfs(&g, &[1, 2, 3, 20, 40], INF, Direction::Forward);
        assert_matches_bfs(&g, &[1, 2, 3, 20, 40], INF, Direction::Reverse);
    }

    #[test]
    fn hop_budget_truncates() {
        let g = grid(6, 6, Orientation::Undirected, WeightRange::unit(), 0);
        assert_matches_bfs(&g, &[0, 35], 4, Direction::Forward);
    }

    #[test]
    fn bfs_rounds_within_h_plus_k_envelope() {
        // Grid: D = 28; 20 sources; pipelining must keep rounds ≲ c(h + k).
        let g = grid(15, 15, Orientation::Undirected, WeightRange::unit(), 0);
        let sources: Vec<NodeId> = (0..20).map(|i| i * 11).collect();
        let mut ledger = Ledger::new();
        let spec = MultiBfsSpec::default();
        let _ = multi_source_bfs(&g, &sources, &spec, "bfs", &mut ledger);
        let h = 28u64;
        let k = 20u64;
        assert!(
            ledger.rounds <= 3 * (h + k),
            "pipelined BFS took {} rounds, envelope {}",
            ledger.rounds,
            3 * (h + k)
        );
    }

    #[test]
    fn predecessor_chains_are_real_paths() {
        let g = connected_gnm(40, 60, Orientation::Directed, WeightRange::unit(), 2);
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[3, 17], &MultiBfsSpec::default(), "t", &mut ledger);
        for row in 0..2 {
            for v in 0..g.n() {
                if mat.get_row(row, v) == INF {
                    continue;
                }
                let path = mat.path_from_source(row, v).expect("reached");
                assert_eq!(path.len() as Weight - 1, mat.get_row(row, v));
                for w in path.windows(2) {
                    assert!(g.has_edge(w[0], w[1]), "edge {}→{} missing", w[0], w[1]);
                }
            }
        }
    }

    #[test]
    fn latency_bfs_computes_weighted_distances() {
        // Stretched search: latency = edge weight ⇒ distances = weighted
        // shortest paths (exact, because waves travel at weight-speed).
        let g = connected_gnm(
            40,
            80,
            Orientation::Directed,
            WeightRange::uniform(1, 6),
            21,
        );
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[0, 5], &spec, "t", &mut ledger);
        for (row, &s) in [0usize, 5].iter().enumerate() {
            let exact = bellman_ford_hops(&g, s, g.n(), Direction::Forward);
            for v in 0..g.n() {
                assert_eq!(mat.get_row(row, v), exact[v], "src {s} node {v}");
            }
        }
    }

    #[test]
    fn latency_budget_is_weighted_budget() {
        // Path with weights 3,3,3: budget 6 reaches two hops only.
        let g = Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 3), (1, 2, 3), (2, 3, 3)],
        )
        .unwrap();
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: 6,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[0], &spec, "t", &mut ledger);
        assert_eq!(mat.get_row(0, 2), 6);
        assert_eq!(mat.get_row(0, 3), INF);
    }

    #[test]
    fn reverse_direction_with_latency_matches_oracle() {
        // Weighted reverse BFS: distances *to* the sources along edge
        // orientation, measured in the stretched metric.
        let g = connected_gnm(
            36,
            90,
            Orientation::Directed,
            WeightRange::uniform(1, 7),
            14,
        );
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Reverse,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[3, 30], &spec, "rl", &mut ledger);
        for (row, &s) in [3usize, 30].iter().enumerate() {
            let t = mwc_graph::seq::dijkstra(&g, s, Direction::Reverse);
            for v in 0..g.n() {
                let expect = if t.dist[v] == mwc_graph::seq::INF {
                    INF
                } else {
                    t.dist[v]
                };
                assert_eq!(mat.get_row(row, v), expect, "to {s} from {v}");
            }
        }
    }

    #[test]
    fn budget_zero_reaches_only_sources() {
        let g = grid(4, 4, Orientation::Undirected, WeightRange::unit(), 0);
        let spec = MultiBfsSpec {
            max_dist: 0,
            direction: Direction::Forward,
            latency: None,
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[5], &spec, "z", &mut ledger);
        assert_eq!(mat.get_row(0, 5), 0);
        assert!((0..16)
            .filter(|&v| v != 5)
            .all(|v| mat.get_row(0, v) == INF));
        assert_eq!(ledger.rounds, 0);
    }

    #[test]
    fn zero_weight_edges_stay_exact() {
        // w = 0 edges add nothing to distance but one round of travel.
        let g =
            Graph::from_edges(4, Orientation::Directed, [(0, 1, 0), (1, 2, 0), (2, 3, 5)]).unwrap();
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[0], &spec, "t", &mut ledger);
        assert_eq!(mat.get_row(0, 1), 0);
        assert_eq!(mat.get_row(0, 2), 0);
        assert_eq!(mat.get_row(0, 3), 5);
        // Travel still takes ≥ 1 round per hop.
        assert!(ledger.rounds >= 3);
    }

    #[test]
    fn zero_weight_edges_match_spec() {
        // `dist_add = 0` with `stretch = 1` costs one round and adds zero
        // distance. All weights ≤ 1, so every hop crosses in one round,
        // but the 0s keep the plan off the unit instantiation.
        let g = Graph::from_edges(
            6,
            Orientation::Directed,
            [
                (0, 1, 0),
                (1, 2, 1),
                (2, 3, 0),
                (3, 4, 0),
                (4, 5, 1),
                (0, 5, 1),
                (5, 2, 0),
            ],
        )
        .unwrap();
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mat = assert_bfs_matches_spec(&g, &[0, 3], &spec);
        // Zero-weight edges added no distance…
        assert_eq!(mat.get_row(0, 1), 0);
        assert_eq!(mat.get_row(1, 4), 0);
    }

    #[test]
    fn stretched_flood_matches_spec() {
        // Bounded and unbounded latency-stretched searches, zero-weight
        // edges mixed in.
        let g = connected_gnm(
            44,
            100,
            Orientation::Directed,
            WeightRange::uniform(0, 9),
            17,
        );
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        for max_dist in [INF, 11] {
            let spec = MultiBfsSpec {
                max_dist,
                direction: Direction::Forward,
                latency: Some(&lat),
            };
            assert_bfs_matches_spec(&g, &[0, 7, 21], &spec);
        }
    }

    #[test]
    fn stretched_detection_matches_spec() {
        let g = connected_gnm(
            40,
            90,
            Orientation::Undirected,
            WeightRange::uniform(1, 8),
            23,
        );
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let sources: Vec<NodeId> = (0..40).step_by(3).collect();
        assert_detection_matches_spec(&g, &sources, 20, 4, Some(&lat));
    }

    #[test]
    #[should_panic(expected = "source 60 out of range")]
    fn multibfs_rejects_out_of_range_source() {
        let g = connected_gnm(60, 90, Orientation::Undirected, WeightRange::unit(), 5);
        let mut ledger = Ledger::new();
        let _ = multi_source_bfs(&g, &[60], &MultiBfsSpec::default(), "t", &mut ledger);
    }

    #[test]
    #[should_panic(expected = "source 7 repeated")]
    fn multibfs_rejects_repeated_source() {
        let g = connected_gnm(60, 90, Orientation::Undirected, WeightRange::unit(), 5);
        let mut ledger = Ledger::new();
        let _ = multi_source_bfs(&g, &[0, 7, 7], &MultiBfsSpec::default(), "t", &mut ledger);
    }

    #[test]
    #[should_panic(expected = "saturates into the INF sentinel")]
    fn multibfs_rejects_distance_saturation() {
        // A pathological latency table: one edge "adds" INF, which the
        // old saturating_add silently aliased to unreachable.
        let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap();
        let lat = vec![INF];
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let _ = multi_source_bfs(&g, &[0], &spec, "sat", &mut ledger);
    }

    fn detection_oracle(g: &Graph, sources: &[NodeId], h: Weight, sigma: usize) -> DetectionLists {
        let mut lists: DetectionLists = vec![Vec::new(); g.n()];
        let mut srcs = sources.to_vec();
        srcs.sort_unstable();
        for &s in &srcs {
            let t = bfs(g, s, Direction::Forward);
            for v in 0..g.n() {
                if t.dist[v] != HOP_INF && (t.dist[v] as Weight) <= h {
                    lists[v].push((t.dist[v] as Weight, s));
                }
            }
        }
        for l in &mut lists {
            l.sort_unstable();
            l.truncate(sigma);
        }
        lists
    }

    #[test]
    fn source_detection_matches_oracle() {
        let g = connected_gnm(48, 70, Orientation::Undirected, WeightRange::unit(), 33);
        let sources: Vec<NodeId> = (0..48).step_by(3).collect();
        let mut ledger = Ledger::new();
        let got = source_detection(
            &g,
            &sources,
            6,
            4,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        )
        .lists;
        let want = detection_oracle(&g, &sources, 6, 4);
        assert_eq!(got, want);
    }

    #[test]
    fn source_detection_all_sources_neighborhood() {
        // The girth algorithm's use: every node a source, σ nearest.
        let g = grid(7, 7, Orientation::Undirected, WeightRange::unit(), 0);
        let sources: Vec<NodeId> = (0..g.n()).collect();
        let mut ledger = Ledger::new();
        let got = source_detection(
            &g,
            &sources,
            12,
            7,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        )
        .lists;
        let want = detection_oracle(&g, &sources, 12, 7);
        assert_eq!(got, want);
        // Rounds stay O(h + σ), far below O(n).
        assert!(
            ledger.rounds <= 4 * (12 + 7),
            "took {} rounds",
            ledger.rounds
        );
    }

    #[test]
    fn unbounded_sigma_keeps_every_source() {
        // σ = usize::MAX means "keep every source": it must behave exactly
        // like σ = |S| (no truncation can happen either way) instead of
        // overflowing while sizing the per-node top sets.
        let g = connected_gnm(30, 40, Orientation::Undirected, WeightRange::unit(), 5);
        let sources: Vec<NodeId> = (0..g.n()).step_by(3).collect();
        let run = |sigma| {
            let mut ledger = Ledger::new();
            let dir = Direction::Forward;
            let det = source_detection(&g, &sources, 6, sigma, dir, None, "sd", &mut ledger);
            (det, ledger.rounds, ledger.words, ledger.messages)
        };
        let (all, bounded) = (run(usize::MAX), run(sources.len()));
        assert_eq!(all, bounded);
        assert_eq!(all.0.lists, detection_oracle(&g, &sources, 6, usize::MAX));
    }

    #[test]
    fn detection_pred_paths_are_real() {
        let g = connected_gnm(40, 60, Orientation::Undirected, WeightRange::unit(), 12);
        let sources: Vec<NodeId> = (0..40).step_by(4).collect();
        let mut ledger = Ledger::new();
        let det = source_detection(
            &g,
            &sources,
            8,
            5,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        );
        for v in 0..g.n() {
            for &(d, s) in &det.lists[v] {
                let p = det.path_to_source(v, s).expect("detected ⇒ path");
                assert_eq!(*p.first().unwrap(), v);
                assert_eq!(*p.last().unwrap(), s);
                assert_eq!(p.len() as Weight - 1, d, "path hops ≠ detected dist");
                for w in p.windows(2) {
                    assert!(g.has_edge(w[0], w[1]) || g.has_edge(w[1], w[0]));
                }
            }
        }
    }

    #[test]
    fn detection_with_latency_uses_stretched_metric() {
        // Path 0 -5- 1 -1- 2: source 0; at node 2 stretched dist = 6.
        let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 5), (1, 2, 1)]).unwrap();
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let mut ledger = Ledger::new();
        let det = source_detection(
            &g,
            &[0],
            10,
            2,
            Direction::Forward,
            Some(&lat),
            "sd",
            &mut ledger,
        );
        assert_eq!(det.lists[2], vec![(6, 0)]);
        assert_eq!(det.dist(2, 0), Some(6));
        // Budget cuts off stretched-far nodes.
        let mut ledger = Ledger::new();
        let det = source_detection(
            &g,
            &[0],
            4,
            2,
            Direction::Forward,
            Some(&lat),
            "sd",
            &mut ledger,
        );
        assert!(det.lists[1].is_empty());
    }

    #[test]
    fn source_detection_directed() {
        let g = connected_gnm(30, 80, Orientation::Directed, WeightRange::unit(), 8);
        let sources: Vec<NodeId> = (0..30).step_by(2).collect();
        let mut ledger = Ledger::new();
        let got = source_detection(
            &g,
            &sources,
            5,
            3,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        )
        .lists;
        // Oracle with forward BFS.
        let mut want: DetectionLists = vec![Vec::new(); g.n()];
        for &s in &sources {
            let t = bfs(&g, s, Direction::Forward);
            for v in 0..g.n() {
                if t.dist[v] != HOP_INF && t.dist[v] <= 5 {
                    want[v].push((t.dist[v] as Weight, s));
                }
            }
        }
        for l in &mut want {
            l.sort_unstable();
            l.truncate(3);
        }
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "source 30 out of range")]
    fn detection_rejects_out_of_range_source() {
        let g = connected_gnm(30, 80, Orientation::Directed, WeightRange::unit(), 8);
        let mut ledger = Ledger::new();
        let _ = source_detection(
            &g,
            &[0, 30],
            5,
            3,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        );
    }

    #[test]
    #[should_panic(expected = "source 4 repeated")]
    fn detection_rejects_repeated_source() {
        let g = connected_gnm(30, 80, Orientation::Directed, WeightRange::unit(), 8);
        let mut ledger = Ledger::new();
        let _ = source_detection(
            &g,
            &[4, 2, 4],
            5,
            3,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        );
    }

    #[test]
    #[should_panic(expected = "saturates into the INF sentinel")]
    fn detection_rejects_distance_saturation() {
        let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap();
        let lat = vec![INF];
        let mut ledger = Ledger::new();
        let _ = source_detection(
            &g,
            &[0],
            INF,
            2,
            Direction::Forward,
            Some(&lat),
            "sat",
            &mut ledger,
        );
    }

    /// Slots of zero entries: every segment's first admission moves it to
    /// the spill vector, and each later overflow moves it again.
    #[test]
    fn spilled_segments_match_spec() {
        let unit = connected_gnm(40, 90, Orientation::Undirected, WeightRange::unit(), 6);
        let weighted = grid(5, 6, Orientation::Undirected, WeightRange::uniform(1, 4), 2);
        let lat: Vec<Weight> = weighted.edges().iter().map(|e| e.weight).collect();
        for (g, latency, h) in [(&unit, None, 6), (&weighted, Some(lat.as_slice()), 12)] {
            let all: Vec<NodeId> = (0..g.n()).collect();
            let half: Vec<NodeId> = (0..g.n()).step_by(2).collect();
            for sources in [&all, &half] {
                for sigma in [0, 1, 3, sources.len(), usize::MAX] {
                    assert_slotted_detection_matches_spec(g, sources, (h, sigma), latency, 0);
                }
            }
        }
    }

    #[test]
    fn detection_matches_spec() {
        let g = connected_gnm(48, 70, Orientation::Undirected, WeightRange::unit(), 33);
        let sources: Vec<NodeId> = (0..48).step_by(3).collect();
        assert_detection_matches_spec(&g, &sources, 6, 4, None);
    }

    /// A plan is unit exactly when every hop adds 1 and crosses in one
    /// round: with no latency table or an all-ones one, not with a 0
    /// (`dist_add` 0) or a 2 anywhere. Floods over each plan match the
    /// spec, and the two unit runs agree on tables, ledgers, per-link
    /// words and event logs.
    #[test]
    fn unit_plans_dispatch_to_the_unit_loop_and_match_spec() {
        let g = connected_gnm(40, 80, Orientation::Undirected, WeightRange::unit(), 7);
        let ones = vec![1; g.m()];
        let with = |w: Weight| {
            let mut lat = ones.clone();
            lat[g.m() / 2] = w;
            lat
        };
        let (zero, two) = (with(0), with(2));
        let net: Network<()> = Network::new(&g);
        let unit = |lat| FloodPlan::build(&g, &net, Direction::Forward, lat).is_unit();
        assert!(unit(None) && unit(Some(&ones)));
        assert!(!unit(Some(&zero)) && !unit(Some(&two)));

        let sources: Vec<NodeId> = (0..g.n()).step_by(3).collect();
        let (h, sigma) = (5, 3);
        let run = |latency: Option<&[Weight]>| {
            let spec = MultiBfsSpec {
                max_dist: h,
                direction: Direction::Forward,
                latency,
            };
            assert_bfs_matches_spec(&g, &sources, &spec);
            assert_detection_matches_spec(&g, &sources, h, sigma, latency);
            let cap = EventCapture::memory();
            let mut ledger = Ledger::new();
            let mat = multi_source_bfs(&g, &sources, &spec, "bfs", &mut ledger);
            let dir = Direction::Forward;
            let det = source_detection(&g, &sources, h, sigma, dir, latency, "sd", &mut ledger);
            let events = cap.finish();
            let columns: Vec<Vec<Weight>> = (0..g.n()).map(|v| mat.column(v).to_vec()).collect();
            let preds: Vec<Option<NodeId>> = (0..sources.len())
                .flat_map(|row| (0..g.n()).map(move |v| (row, v)))
                .map(|(row, v)| mat.pred_row(row, v))
                .collect();
            let totals = (ledger.rounds, ledger.words, ledger.messages);
            let phases: Vec<(String, u64, u64)> = ledger
                .phases
                .iter()
                .map(|p| (p.label.clone(), p.rounds, p.words))
                .collect();
            let links = ledger.hot_links(usize::MAX);
            (columns, preds, det, totals, phases, links, events)
        };
        let plain = run(None);
        assert!(!plain.6.is_empty(), "the event log captured the floods");
        assert_eq!(plain, run(Some(&ones)));
        run(Some(&zero));
        run(Some(&two));
    }

    /// The flood outboxes outlive floods but not the outermost phase-cache
    /// scope (see the `workspace` module docs).
    #[test]
    fn outboxes_last_one_solve() {
        let outboxes = || {
            let ws = workspace::take();
            let len = ws.flood.outbox.len();
            workspace::put_back(ws);
            len
        };
        let g = connected_gnm(30, 60, Orientation::Undirected, WeightRange::unit(), 4);
        let spec = MultiBfsSpec::default();
        {
            let _solve = PhaseCache::scope();
            multi_source_bfs(&g, &[0, 7], &spec, "bfs", &mut Ledger::new());
            drop(PhaseCache::scope()); // a nested scope leaves them alone
            assert!(outboxes() >= 30);
        }
        assert_eq!(outboxes(), 0);
    }
}

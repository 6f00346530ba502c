//! Pipelined multi-source BFS and source detection, after Lenzen,
//! Patt-Shamir & Peleg \[37\] (the paper's reference for `O(h + k)`-round
//! `k`-source `h`-hop BFS and `(S, h, σ)` source detection).
//!
//! Both primitives use the classic pipelining schedule: every node keeps a
//! priority queue of announcements `(distance, source)` and, each round,
//! forwards the smallest fresh one over all of its traversal-direction
//! links. With unit latencies this completes `k`-source `h`-hop BFS in
//! `O(h + k)` rounds; the tests assert that envelope empirically.
//!
//! Announcements can also travel with **per-edge latencies** (the scaled /
//! stretched graphs of paper §4–5): an edge of stretch `ℓ` delays delivery
//! by `ℓ` rounds and adds `ℓ` to the announced distance, which is exactly a
//! BFS on the stretched graph where each weighted edge becomes a path of
//! `ℓ` unit edges simulated at its endpoint.
//!
//! Each primitive has interchangeable inner loops selected by
//! [`crate::flood::flood_kernel`]: the engine-stepped **scalar** reference
//! and the bit-parallel **bitset** kernels (u64 frontier words, direct
//! delivery, rounds charged via `Network::charge_flood_round` /
//! `Network::charge_stretched_flood_round`). Unit-latency floods run the
//! plain bitset kernel; latency-stretched floods run its calendar-queue
//! variant (in-flight announcements parked in a
//! [`CalendarRing`](crate::flood::CalendarRing) of arrival-round buckets)
//! whenever `FloodPlan::max_latency()` fits under
//! [`flood_ring_max`](crate::flood::flood_ring_max). Every kernel is
//! byte-identical to the scalar one in every ledger count, event, and
//! output — see the [`crate::flood`] module docs for the equivalence
//! argument.

use crate::distmat::{DistMatrix, INF};
use crate::engine::{Network, RoundOutput};
use crate::flood::{
    flood_kernel, flood_ring_max, note_flood_engagement, validate_sources, BitFrontier,
    CalendarRing, FloodKernel, FloodPlan,
};
use crate::ledger::Ledger;
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// A BFS announcement: `(source row, distance at the receiver)`.
type Announce = (u32, Weight);

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

/// Runs a pipelined `h`-bounded search from `sources` and returns the
/// distance table. Costs `O(max_dist + k)` rounds for unit latencies,
/// charged to `ledger` under `label`.
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
    if let Some(l) = spec.latency {
        assert!(l.len() >= g.m(), "latency table must cover all edges");
    }
    validate_sources(g.n(), sources);
    let _span = mwc_trace::span_owned(|| format!("multibfs/{label}"));
    let n = g.n();
    let mut mat = DistMatrix::new(n, sources.to_vec());
    let mut net: Network<Announce> = Network::new_auto(g);
    let plan = FloodPlan::build(g, &net, spec.direction, spec.latency);

    let bitset = flood_kernel() == FloodKernel::Bitset && plan.max_latency() <= flood_ring_max();
    note_flood_engagement(bitset);
    if bitset {
        if plan.unit_latency() {
            bfs_kernel_bitset(sources, spec.max_dist, &plan, &mut net, &mut mat);
        } else {
            bfs_kernel_stretched(sources, spec.max_dist, &plan, &mut net, &mut mat);
        }
    } else {
        bfs_kernel_scalar(n, sources, spec.max_dist, &plan, &mut net, &mut mat);
    }

    ledger.absorb(label, &net);
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
        net.round(),
        crate::bounds::multibfs,
    );
    mat
}

/// The engine-stepped scalar BFS loop: heap outboxes with lazy
/// stale-skipping, every announcement moved through the [`Network`]'s
/// per-link queues (and, for stretched edges, its transit heap). The
/// reference semantics every bitset kernel must replicate byte-for-byte,
/// and the fallback when a latency table overflows the calendar-ring cap.
fn bfs_kernel_scalar(
    n: usize,
    sources: &[NodeId],
    max_dist: Weight,
    plan: &FloodPlan,
    net: &mut Network<Announce>,
    mat: &mut DistMatrix,
) {
    // outbox[v]: fresh announcements not yet forwarded, smallest first.
    let mut outbox: Vec<BinaryHeap<Reverse<Announce2>>> =
        (0..n).map(|_| BinaryHeap::new()).collect();
    let mut pending: Vec<NodeId> = Vec::new();
    let mut pending_flag = vec![false; n];

    for (row, &s) in sources.iter().enumerate() {
        mat.set_row(row, s, 0, None);
        outbox[s].push(Reverse((0, row as u32)));
        if !pending_flag[s] {
            pending_flag[s] = true;
            pending.push(s);
        }
    }

    let mut out = RoundOutput::default();
    loop {
        // Node actions for this round: each pending node forwards its
        // smallest fresh announcement over every traversal link.
        let acting = std::mem::take(&mut pending);
        let mut any_sent = false;
        for v in acting {
            pending_flag[v] = false;
            // Pop entries until one is fresh (stale = improved since push).
            let fresh = loop {
                match outbox[v].pop() {
                    Some(Reverse((d, row))) => {
                        if mat.get_row(row as usize, v) == d {
                            break Some((d, row));
                        }
                    }
                    None => break None,
                }
            };
            let Some((d, row)) = fresh else { continue };
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > max_dist {
                    continue;
                }
                // Receiver-side pruning happens on delivery; sender-side we
                // also skip if the receiver is already known (to the
                // sender) to be closer — we cannot know that locally, so
                // no such check: CONGEST nodes only know their own state.
                any_sent = true;
                net.send_on_link(hop.link as usize, (row, cand), 1, hop.latency);
            }
            if !outbox[v].is_empty() && !pending_flag[v] {
                pending_flag[v] = true;
                pending.push(v);
            }
        }

        if !any_sent {
            if !pending.is_empty() {
                // Entirely-filtered pops: keep draining outboxes locally
                // without charging rounds (nothing was transmitted).
                continue;
            }
            if net.is_idle() {
                break;
            }
        }
        let stepped = if any_sent {
            net.step_into(&mut out);
            true
        } else {
            net.step_fast_into(&mut out)
        };
        if !stepped {
            break;
        }
        for d in out.deliveries.drain(..) {
            let (row, cand) = d.payload;
            let v = d.to;
            if cand < mat.get_row(row as usize, v) {
                mat.set_row(row as usize, v, cand, Some(d.from));
                outbox[v].push(Reverse((cand, row)));
                if !pending_flag[v] {
                    pending_flag[v] = true;
                    pending.push(v);
                }
            }
        }
    }
}

/// The bit-parallel BFS loop for unit-latency floods: per-node
/// [`BitFrontier`] outboxes (64 source rows per word, maintained eagerly
/// so every pop is fresh), deliveries applied directly in send order, and
/// each round's traffic charged in one [`Network::charge_flood_round`]
/// pass. Executes the exact scalar schedule — same pops, same sends, same
/// delivery order, same predecessor tie-breaks — without the per-message
/// queue machinery.
///
/// Superseded announcements move into a per-node *ghost* frontier rather
/// than vanishing: the scalar heap keeps stale entries until a pop walks
/// past them, and "heap nonempty" is its re-pend test — so ghost
/// occupancy must feed the bitset re-pend test too, or nodes would enter
/// the pending list at different positions and the send order (observed
/// by the event log) would drift.
fn bfs_kernel_bitset(
    sources: &[NodeId],
    max_dist: Weight,
    plan: &FloodPlan,
    net: &mut Network<Announce>,
    mat: &mut DistMatrix,
) {
    let mut outbox: Vec<BitFrontier> = vec![BitFrontier::default(); mat.n()];
    let mut ghost: Vec<BitFrontier> = vec![BitFrontier::default(); mat.n()];
    let mut pending: Vec<NodeId> = Vec::new();
    let mut pending_flag = vec![false; mat.n()];

    for (row, &s) in sources.iter().enumerate() {
        mat.set_row(row, s, 0, None);
        outbox[s].insert(0, row as u32);
        if !pending_flag[s] {
            pending_flag[s] = true;
            pending.push(s);
        }
    }

    // This round's traffic: the links charged and the deliveries they
    // carry as `(to, row, dist, from)`, both in send order.
    let mut links: Vec<u32> = Vec::new();
    let mut deliv: Vec<(u32, u32, Weight, u32)> = Vec::new();
    loop {
        let acting = std::mem::take(&mut pending);
        links.clear();
        deliv.clear();
        for v in acting {
            pending_flag[v] = false;
            // Eager maintenance means no stale entries: the first pop is
            // the smallest fresh announcement. The scalar pop walk would
            // have consumed the stale (ghost) entries ahead of it — or
            // the whole heap when nothing fresh remains.
            let Some((d, row)) = outbox[v].pop_min() else {
                ghost[v].clear();
                continue;
            };
            ghost[v].drain_below(d, row);
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > max_dist {
                    continue;
                }
                links.push(hop.link);
                deliv.push((hop.to, row, cand, v as u32));
            }
            if (!outbox[v].is_empty() || !ghost[v].is_empty()) && !pending_flag[v] {
                pending_flag[v] = true;
                pending.push(v);
            }
        }

        if links.is_empty() {
            if !pending.is_empty() {
                // Entirely-filtered pops: no traffic, no round charged.
                continue;
            }
            break;
        }
        net.charge_flood_round(&links);
        for &(to, row, cand, from) in &deliv {
            let v = to as usize;
            let old = mat.get_row(row as usize, v);
            if cand < old {
                if old != INF && outbox[v].remove(old, row) {
                    // The eager move: the superseded announcement becomes
                    // a ghost (the scalar heap would keep it as a stale
                    // entry). Already-forwarded rows have no bit to move.
                    ghost[v].insert(old, row);
                }
                mat.set_row(row as usize, v, cand, Some(from as usize));
                outbox[v].insert(cand, row);
                if !pending_flag[v] {
                    pending_flag[v] = true;
                    pending.push(v);
                }
            }
        }
    }
}

/// An in-flight announcement parked in the calendar ring:
/// `(link, to, row, dist, from)` — the link whose transfer was already
/// charged in its send round, and everything delivery needs on expiry.
type RingMsg = (u32, u32, u32, Weight, u32);

/// The calendar-queue BFS loop for latency-stretched floods: the same
/// eager [`BitFrontier`] outbox/ghost discipline as [`bfs_kernel_bitset`],
/// plus a [`CalendarRing`] standing in for the scalar engine's transit
/// heap. A send over a hop with latency `ℓ ≥ 1` is charged as a transfer
/// in its send round but parked `ℓ` buckets ahead; zero-latency sends are
/// delivered in the send round itself, *before* that round's calendar
/// expiries — exactly the scalar `step_into` order (same-round completions
/// in send order, then transit pops in `(arrival, send-sequence)` order,
/// which per-bucket insertion order reproduces).
///
/// Round control mirrors the scalar loop branch for branch: filtered pops
/// with pending work left spin without charging a round; a round with
/// sends is charged via `Network::charge_stretched_flood_round` with this
/// round's links and arrivals; and when nothing was sent but arrivals are
/// still in flight, [`CalendarRing::next_arrival`] fast-forwards to the
/// next expiry (`step_fast_into` in the scalar path) — a charged round
/// with zero transfers, messages only.
fn bfs_kernel_stretched(
    sources: &[NodeId],
    max_dist: Weight,
    plan: &FloodPlan,
    net: &mut Network<Announce>,
    mat: &mut DistMatrix,
) {
    let n = mat.n();
    let mut outbox: Vec<BitFrontier> = vec![BitFrontier::default(); n];
    let mut ghost: Vec<BitFrontier> = vec![BitFrontier::default(); n];
    let mut pending: Vec<NodeId> = Vec::new();
    let mut pending_flag = vec![false; n];
    let mut ring: CalendarRing<RingMsg> = CalendarRing::new(plan.max_latency());

    for (row, &s) in sources.iter().enumerate() {
        mat.set_row(row, s, 0, None);
        outbox[s].insert(0, row as u32);
        if !pending_flag[s] {
            pending_flag[s] = true;
            pending.push(s);
        }
    }

    // This round's traffic: every charged link in send order, and the
    // messages *delivered* this round — zero-latency sends first (send
    // order), then calendar expiries — as parallel delivered-link /
    // payload vectors.
    let mut links: Vec<u32> = Vec::new();
    let mut dlinks: Vec<u32> = Vec::new();
    let mut deliv: Vec<(u32, u32, Weight, u32)> = Vec::new();
    let mut expiries: Vec<RingMsg> = Vec::new();
    loop {
        let acting = std::mem::take(&mut pending);
        links.clear();
        dlinks.clear();
        deliv.clear();
        // If anything is sent this iteration, it is charged at this round.
        let send_round = net.round() + 1;
        for v in acting {
            pending_flag[v] = false;
            let Some((d, row)) = outbox[v].pop_min() else {
                ghost[v].clear();
                continue;
            };
            ghost[v].drain_below(d, row);
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > max_dist {
                    continue;
                }
                links.push(hop.link);
                if hop.latency == 0 {
                    dlinks.push(hop.link);
                    deliv.push((hop.to, row, cand, v as u32));
                } else {
                    ring.push(
                        send_round + hop.latency,
                        (hop.link, hop.to, row, cand, v as u32),
                    );
                }
            }
            if (!outbox[v].is_empty() || !ghost[v].is_empty()) && !pending_flag[v] {
                pending_flag[v] = true;
                pending.push(v);
            }
        }

        let round = if links.is_empty() {
            if !pending.is_empty() {
                // Entirely-filtered pops: no traffic, no round charged.
                continue;
            }
            // Nothing to send and nothing ever will be unless an arrival
            // lands: fast-forward to the next expiry, or finish.
            let Some(next) = ring.next_arrival(net.round()) else {
                break;
            };
            next
        } else {
            send_round
        };
        expiries.clear();
        ring.drain_round_into(round, &mut expiries);
        for &(link, to, row, cand, from) in &expiries {
            dlinks.push(link);
            deliv.push((to, row, cand, from));
        }
        net.charge_stretched_flood_round(round, &links, &dlinks);
        for &(to, row, cand, from) in &deliv {
            let v = to as usize;
            let old = mat.get_row(row as usize, v);
            if cand < old {
                if old != INF && outbox[v].remove(old, row) {
                    ghost[v].insert(old, row);
                }
                mat.set_row(row as usize, v, cand, Some(from as usize));
                outbox[v].insert(cand, row);
                if !pending_flag[v] {
                    pending_flag[v] = true;
                    pending.push(v);
                }
            }
        }
    }
}

/// `(dist, src)` ordering helper — distance first, then source row for a
/// deterministic tiebreak.
type Announce2 = (Weight, u32);

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

/// Per-node detection state shared by every kernel: current best
/// distance and predecessor per source row, and the top-`σ` set the
/// truncation discipline maintains. Stored flat — a distance matrix with
/// an [`INF`] absent-sentinel, a parallel predecessor matrix the admit
/// test never reads, and per-node sorted vectors of at most `σ` entries
/// — so the admit fast path is an array index plus a short binary search
/// instead of hash-map and B-tree traffic.
struct DetectState {
    n: usize,
    rows: usize,
    /// `dist[v * rows + row]`: best-known distance of `row`'s source at
    /// `v`, [`INF`] when none was admitted.
    dist: Vec<Weight>,
    /// The neighbor that distance arrived from. Read only where `dist`
    /// is finite, so it starts zeroed: the allocator hands out zeroed
    /// pages the admit loop touches only as it writes them.
    pred: Vec<u32>,
    top: Vec<Vec<(Weight, u32)>>,
    sigma: usize,
}

impl DetectState {
    fn new(n: usize, rows: usize, sigma: usize) -> DetectState {
        assert!(
            u32::try_from(n).is_ok(),
            "node ids must fit the u32 predecessor table"
        );
        // A top set never holds more than `rows` entries (plus one while
        // an insertion awaits truncation), however large σ is.
        let cap = sigma.min(rows) + 1;
        DetectState {
            n,
            rows,
            dist: vec![INF; n * rows],
            pred: vec![0; n * rows],
            top: (0..n).map(|_| Vec::with_capacity(cap)).collect(),
            sigma,
        }
    }

    /// Best-known distance of `row`'s source at `v` ([`INF`] when no
    /// announcement was ever admitted).
    fn best_dist(&self, v: NodeId, row: u32) -> Weight {
        self.dist[v * self.rows + row as usize]
    }

    /// Whether `entry` is currently in `v`'s top-`σ` set.
    fn in_top(&self, v: NodeId, entry: (Weight, u32)) -> bool {
        self.top[v].binary_search(&entry).is_ok()
    }

    /// Offers `(d, src_row)` arriving at `v` from `pred`. Updates the
    /// best/top structures and returns whether the entry survived
    /// truncation (= should be forwarded). `retire` is called for every
    /// announcement this displaces — the superseded distance on an
    /// improvement, and each truncation eviction — which is how the
    /// bitset kernel keeps its frontier eagerly fresh (the scalar kernel
    /// passes a no-op and skips stale heap entries lazily at pop time).
    fn admit(
        &mut self,
        v: NodeId,
        src_row: u32,
        d: Weight,
        pred: NodeId,
        mut retire: impl FnMut(Weight, u32),
    ) -> bool {
        let i = v * self.rows + src_row as usize;
        let old = self.dist[i];
        // Admitted distances never reach `INF` (announcements assert
        // against saturation), so the absent sentinel can only lose here.
        if old <= d {
            return false;
        }
        self.dist[i] = d;
        self.pred[i] = pred as u32;
        let top = &mut self.top[v];
        if old != INF {
            // The superseded entry may already have been truncated away.
            if let Ok(i) = top.binary_search(&(old, src_row)) {
                top.remove(i);
            }
            retire(old, src_row);
        }
        let pos = top.binary_search(&(d, src_row)).unwrap_err();
        top.insert(pos, (d, src_row));
        while top.len() > self.sigma {
            let worst = top.pop().expect("nonempty");
            retire(worst.0, worst.1);
        }
        // Forward only if the entry survived truncation (it did exactly
        // when it landed inside the first σ slots).
        pos < self.sigma
    }

    /// The finished [`Detection`]: top sets renamed from rows to source
    /// ids, and one pass over the dense tables (rows are in source-id
    /// order) compacting each node's admitted entries into the CSR.
    fn into_detection(self, srcs: &[NodeId]) -> Detection {
        let DetectState {
            n,
            rows,
            dist: dense_dist,
            pred: dense_pred,
            top,
            ..
        } = self;
        let lists: DetectionLists = top
            .into_iter()
            .map(|t| {
                t.into_iter()
                    .map(|(d, row)| (d, srcs[row as usize]))
                    .collect()
            })
            .collect();
        let mut start = Vec::with_capacity(n + 1);
        let (mut src, mut dist, mut pred) = (Vec::new(), Vec::new(), Vec::new());
        start.push(0);
        for v in 0..n {
            let base = v * rows;
            for (row, &d) in dense_dist[base..base + rows].iter().enumerate() {
                if d != INF {
                    src.push(srcs[row] as u32);
                    dist.push(d);
                    pred.push(dense_pred[base + row]);
                }
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
    if let Some(l) = latency {
        assert!(l.len() >= g.m(), "latency table must cover all edges");
    }
    validate_sources(g.n(), sources);
    let _span = mwc_trace::span_owned(|| format!("detect/{label}"));
    let n = g.n();
    let mut net: Network<(u32, Weight)> = Network::new_auto(g);
    let plan = FloodPlan::build(g, &net, direction, latency);

    // Sort sources so "source row" order matches id order (consistent
    // tie-breaking is what makes truncated detection exact).
    let mut srcs: Vec<NodeId> = sources.to_vec();
    srcs.sort_unstable();

    let mut state = DetectState::new(n, srcs.len(), sigma);
    let bitset = flood_kernel() == FloodKernel::Bitset && plan.max_latency() <= flood_ring_max();
    note_flood_engagement(bitset);
    if bitset {
        if plan.unit_latency() {
            detect_kernel_bitset(&srcs, h, &plan, &mut net, &mut state);
        } else {
            detect_kernel_stretched(&srcs, h, &plan, &mut net, &mut state);
        }
    } else {
        detect_kernel_scalar(n, &srcs, h, &plan, &mut net, &mut state);
    }
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

/// The engine-stepped scalar detection loop (reference semantics; the
/// fallback when a latency table overflows the calendar-ring cap). Heap
/// outboxes hold entries that may go stale — superseded by a closer
/// announcement or evicted from the top-`σ` set — and are skipped lazily
/// at pop time.
fn detect_kernel_scalar(
    n: usize,
    srcs: &[NodeId],
    h: Weight,
    plan: &FloodPlan,
    net: &mut Network<(u32, Weight)>,
    state: &mut DetectState,
) {
    let mut outbox: Vec<BinaryHeap<Reverse<(Weight, u32)>>> =
        (0..n).map(|_| BinaryHeap::new()).collect();
    let mut pending: Vec<NodeId> = Vec::new();
    let mut pending_flag = vec![false; n];

    for (row, &s) in srcs.iter().enumerate() {
        if state.admit(s, row as u32, 0, s, |_, _| {}) {
            outbox[s].push(Reverse((0, row as u32)));
            if !pending_flag[s] {
                pending_flag[s] = true;
                pending.push(s);
            }
        }
    }

    let mut out = RoundOutput::default();
    loop {
        let acting = std::mem::take(&mut pending);
        let mut any_action = false;
        for v in acting {
            pending_flag[v] = false;
            let fresh = loop {
                match outbox[v].pop() {
                    Some(Reverse((d, row))) => {
                        // Fresh = still our best and still within top-σ.
                        if state.best_dist(v, row) == d && state.in_top(v, (d, row)) {
                            break Some((d, row));
                        }
                    }
                    None => break None,
                }
            };
            let Some((d, row)) = fresh else { continue };
            any_action = true;
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > h {
                    continue;
                }
                net.send_on_link(hop.link as usize, (row, cand), 1, hop.latency);
            }
            if !outbox[v].is_empty() && !pending_flag[v] {
                pending_flag[v] = true;
                pending.push(v);
            }
        }

        if !any_action && net.is_idle() {
            break;
        }
        let stepped = if any_action {
            net.step_into(&mut out);
            true
        } else {
            net.step_fast_into(&mut out)
        };
        if !stepped {
            break;
        }
        for dmsg in out.deliveries.drain(..) {
            let (row, cand) = dmsg.payload;
            let v = dmsg.to;
            if state.admit(v, row, cand, dmsg.from, |_, _| {}) {
                outbox[v].push(Reverse((cand, row)));
                if !pending_flag[v] {
                    pending_flag[v] = true;
                    pending.push(v);
                }
            }
        }
    }
}

/// The bit-parallel detection loop for unit-latency floods: frontier
/// words maintained eagerly through `DetectState::admit`'s retire hook
/// (improvements and top-`σ` evictions clear bits on the spot), direct
/// delivery in send order, rounds charged via
/// [`Network::charge_flood_round`]. Note the round-control contract it
/// mirrors from the scalar loop: a round is charged whenever any node
/// popped a fresh announcement, even if the distance budget then filtered
/// every send (an empty charge advances the round like an idle
/// `step_into`).
fn detect_kernel_bitset(
    srcs: &[NodeId],
    h: Weight,
    plan: &FloodPlan,
    net: &mut Network<(u32, Weight)>,
    state: &mut DetectState,
) {
    let n = state.n;
    let mut outbox: Vec<BitFrontier> = vec![BitFrontier::default(); n];
    let mut ghost: Vec<BitFrontier> = vec![BitFrontier::default(); n];
    let mut pending: Vec<NodeId> = Vec::new();
    let mut pending_flag = vec![false; n];

    for (row, &s) in srcs.iter().enumerate() {
        let (ob, gh) = (&mut outbox[s], &mut ghost[s]);
        let retire = |d, r| {
            if ob.remove(d, r) {
                gh.insert(d, r);
            }
        };
        if state.admit(s, row as u32, 0, s, retire) {
            outbox[s].insert(0, row as u32);
            if !pending_flag[s] {
                pending_flag[s] = true;
                pending.push(s);
            }
        }
    }

    let mut links: Vec<u32> = Vec::new();
    let mut deliv: Vec<(u32, u32, Weight, u32)> = Vec::new();
    loop {
        let acting = std::mem::take(&mut pending);
        links.clear();
        deliv.clear();
        let mut any_action = false;
        for v in acting {
            pending_flag[v] = false;
            // As in the BFS kernel: replay the scalar pop walk's ghost
            // consumption so the re-pend test below matches its "heap
            // nonempty, stale entries included" semantics.
            let Some((d, row)) = outbox[v].pop_min() else {
                ghost[v].clear();
                continue;
            };
            ghost[v].drain_below(d, row);
            any_action = true;
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > h {
                    continue;
                }
                links.push(hop.link);
                deliv.push((hop.to, row, cand, v as u32));
            }
            if (!outbox[v].is_empty() || !ghost[v].is_empty()) && !pending_flag[v] {
                pending_flag[v] = true;
                pending.push(v);
            }
        }

        if !any_action {
            break;
        }
        net.charge_flood_round(&links);
        for &(to, row, cand, from) in &deliv {
            let v = to as usize;
            let (ob, gh) = (&mut outbox[v], &mut ghost[v]);
            let retire = |d, r| {
                if ob.remove(d, r) {
                    gh.insert(d, r);
                }
            };
            if state.admit(v, row, cand, from as usize, retire) {
                outbox[v].insert(cand, row);
                if !pending_flag[v] {
                    pending_flag[v] = true;
                    pending.push(v);
                }
            }
        }
    }
}

/// The calendar-queue detection loop for latency-stretched floods:
/// [`detect_kernel_bitset`]'s eager frontier/ghost discipline with a
/// [`CalendarRing`] in place of the engine's transit heap, delivering
/// zero-latency sends before the round's calendar expiries exactly as the
/// stretched BFS kernel does (see [`bfs_kernel_stretched`]).
///
/// Detection's round-control contract differs from BFS and is mirrored
/// here: a round is charged whenever any node popped a fresh announcement
/// — even if the budget then filtered every send, in which case the
/// charge carries zero links (an idle `step_into`: the round advances,
/// nothing is transferred, and that round's arrivals still land).
fn detect_kernel_stretched(
    srcs: &[NodeId],
    h: Weight,
    plan: &FloodPlan,
    net: &mut Network<(u32, Weight)>,
    state: &mut DetectState,
) {
    let n = state.n;
    let mut outbox: Vec<BitFrontier> = vec![BitFrontier::default(); n];
    let mut ghost: Vec<BitFrontier> = vec![BitFrontier::default(); n];
    let mut pending: Vec<NodeId> = Vec::new();
    let mut pending_flag = vec![false; n];
    let mut ring: CalendarRing<RingMsg> = CalendarRing::new(plan.max_latency());

    for (row, &s) in srcs.iter().enumerate() {
        let (ob, gh) = (&mut outbox[s], &mut ghost[s]);
        let retire = |d, r| {
            if ob.remove(d, r) {
                gh.insert(d, r);
            }
        };
        if state.admit(s, row as u32, 0, s, retire) {
            outbox[s].insert(0, row as u32);
            if !pending_flag[s] {
                pending_flag[s] = true;
                pending.push(s);
            }
        }
    }

    let mut links: Vec<u32> = Vec::new();
    let mut dlinks: Vec<u32> = Vec::new();
    let mut deliv: Vec<(u32, u32, Weight, u32)> = Vec::new();
    let mut expiries: Vec<RingMsg> = Vec::new();
    loop {
        let acting = std::mem::take(&mut pending);
        links.clear();
        dlinks.clear();
        deliv.clear();
        let send_round = net.round() + 1;
        let mut any_action = false;
        for v in acting {
            pending_flag[v] = false;
            let Some((d, row)) = outbox[v].pop_min() else {
                ghost[v].clear();
                continue;
            };
            ghost[v].drain_below(d, row);
            any_action = true;
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > h {
                    continue;
                }
                links.push(hop.link);
                if hop.latency == 0 {
                    dlinks.push(hop.link);
                    deliv.push((hop.to, row, cand, v as u32));
                } else {
                    ring.push(
                        send_round + hop.latency,
                        (hop.link, hop.to, row, cand, v as u32),
                    );
                }
            }
            if (!outbox[v].is_empty() || !ghost[v].is_empty()) && !pending_flag[v] {
                pending_flag[v] = true;
                pending.push(v);
            }
        }

        let round = if any_action {
            // Charged even when the budget filtered every send: the
            // scalar loop still steps the engine for a popped node.
            send_round
        } else {
            let Some(next) = ring.next_arrival(net.round()) else {
                break;
            };
            next
        };
        expiries.clear();
        ring.drain_round_into(round, &mut expiries);
        for &(link, to, row, cand, from) in &expiries {
            dlinks.push(link);
            deliv.push((to, row, cand, from));
        }
        net.charge_stretched_flood_round(round, &links, &dlinks);
        for &(to, row, cand, from) in &deliv {
            let v = to as usize;
            let (ob, gh) = (&mut outbox[v], &mut ghost[v]);
            let retire = |d, r| {
                if ob.remove(d, r) {
                    gh.insert(d, r);
                }
            };
            if state.admit(v, row, cand, from as usize, retire) {
                outbox[v].insert(cand, row);
                if !pending_flag[v] {
                    pending_flag[v] = true;
                    pending.push(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, grid, WeightRange};
    use mwc_graph::seq::{bellman_ford_hops, bfs, HOP_INF};
    use mwc_graph::Orientation;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that flip the process-global flood kernel and
    /// restores the default on drop.
    static KERNEL_GLOBAL: Mutex<()> = Mutex::new(());

    struct KernelGuard {
        _guard: MutexGuard<'static, ()>,
    }

    fn with_kernel(k: FloodKernel) -> KernelGuard {
        let guard = KERNEL_GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        crate::flood::set_flood_kernel(k);
        KernelGuard { _guard: guard }
    }

    impl Drop for KernelGuard {
        fn drop(&mut self) {
            crate::flood::set_flood_kernel(FloodKernel::Bitset);
        }
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
    fn zero_weight_edges_identical_across_kernels() {
        // `dist_add = 0` with `stretch = 1` must cost one round and add
        // zero distance in BOTH kernels. All weights ≤ 1, so the flood is
        // unit-latency and the plain (ring-free) bitset kernel engages.
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
        let mut results = Vec::new();
        for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
            let _k = with_kernel(kernel);
            let mut ledger = Ledger::new();
            let mat = multi_source_bfs(&g, &[0, 3], &spec, "zw", &mut ledger);
            // Zero-weight edges added no distance…
            assert_eq!(mat.get_row(0, 1), 0, "{kernel:?}");
            assert_eq!(mat.get_row(1, 4), 0, "{kernel:?}");
            // …but still cost a round each to cross.
            assert!(ledger.rounds >= 3, "{kernel:?}: {} rounds", ledger.rounds);
            results.push((mat.digest(), ledger.rounds, ledger.words, ledger.messages));
        }
        assert_eq!(results[0], results[1], "kernels disagree on w = 0 flood");
    }

    #[test]
    fn stretched_flood_identical_across_kernels() {
        // Latency-stretched floods now have a bitset kernel too (the
        // calendar ring): pin digests, predecessors, and every ledger
        // count against the scalar engine-stepped reference, for both a
        // bounded and an unbounded search.
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
            let mut results = Vec::new();
            for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
                let _k = with_kernel(kernel);
                let mut ledger = Ledger::new();
                let mat = multi_source_bfs(&g, &[0, 7, 21], &spec, "st", &mut ledger);
                results.push((
                    mat.digest(),
                    ledger.rounds,
                    ledger.words,
                    ledger.messages,
                    ledger.hot_links(8),
                ));
            }
            assert_eq!(
                results[0], results[1],
                "kernels disagree on stretched flood (max_dist {max_dist})"
            );
        }
    }

    #[test]
    fn stretched_detection_identical_across_kernels() {
        let g = connected_gnm(
            40,
            90,
            Orientation::Undirected,
            WeightRange::uniform(1, 8),
            23,
        );
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let sources: Vec<NodeId> = (0..40).step_by(3).collect();
        let mut results = Vec::new();
        for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
            let _k = with_kernel(kernel);
            let mut ledger = Ledger::new();
            let det = source_detection(
                &g,
                &sources,
                20,
                4,
                Direction::Forward,
                Some(&lat),
                "sd",
                &mut ledger,
            );
            results.push((det.lists, ledger.rounds, ledger.words, ledger.messages));
        }
        assert_eq!(
            results[0], results[1],
            "kernels disagree on stretched detection"
        );
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
        for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
            let _k = with_kernel(kernel);
            let run = |sigma| {
                let mut ledger = Ledger::new();
                let dir = Direction::Forward;
                let det = source_detection(&g, &sources, 6, sigma, dir, None, "sd", &mut ledger);
                (det, ledger.rounds, ledger.words, ledger.messages)
            };
            let (all, bounded) = (run(usize::MAX), run(sources.len()));
            assert_eq!(all, bounded, "{kernel:?}");
            assert_eq!(all.0.lists, detection_oracle(&g, &sources, 6, usize::MAX));
        }
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

    #[test]
    fn detection_identical_across_kernels() {
        // Unit-weight flood: the bitset kernel engages by default; pin
        // that the scalar fallback produces identical lists, paths, and
        // ledger counts.
        let g = connected_gnm(48, 70, Orientation::Undirected, WeightRange::unit(), 33);
        let sources: Vec<NodeId> = (0..48).step_by(3).collect();
        let mut results = Vec::new();
        for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
            let _k = with_kernel(kernel);
            let mut ledger = Ledger::new();
            let det = source_detection(
                &g,
                &sources,
                6,
                4,
                Direction::Forward,
                None,
                "sd",
                &mut ledger,
            );
            results.push((det.lists, ledger.rounds, ledger.words, ledger.messages));
        }
        assert_eq!(results[0], results[1], "kernels disagree on detection");
    }
}

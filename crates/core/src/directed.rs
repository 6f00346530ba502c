//! 2-approximation of directed unweighted MWC — **Algorithms 2 and 3 /
//! Theorem 1.2.C** of the paper (§3), in `Õ(n^{4/5} + D)` rounds.
//!
//! Structure:
//!
//! 1. **Long cycles** (≥ `h = n^{3/5}` hops): sample `S` so every long
//!    cycle contains a sampled vertex w.h.p.; run `k`-source BFS from `S`
//!    (Algorithm 1) in both directions; a cycle through `s ∈ S` is caught
//!    by the edge `(v, s)` entering `s`: `μ = w(v,s) + d(s,v)`.
//! 2. **Short cycles** (Algorithm 3): each `v` locally builds `R(v) ⊆ S`
//!    (one probe per partition class `S_i`) defining the neighborhood
//!    `P(v)` of Definition 3.1, which contains a ≤2× witness cycle if the
//!    short MWC through `v` avoids `S` (Fact 1 / Lemma 5.1 of \[13\]).
//!    A *restricted BFS* from every vertex, random-delayed by
//!    `δ_v ∈ [1, ρ = n^{4/5}]` and organized into phases with a
//!    `Θ(log n)` per-phase message cap, explores `P(v)`. Vertices that
//!    exceed the cap become **phase-overflow** vertices (Lemma 3.3 bounds
//!    them by `Õ(n^{4/5})`); a final `h`-hop BFS from the overflow set
//!    covers cycles through them.
//!
//! The same machinery runs in **stretched mode** (per-edge latencies and a
//! stretched-distance budget `h*`) to provide the hop-limited directed
//! subroutine that §5.2's weighted algorithm needs (Corollary 4.1 applied
//! to Algorithm 2).

use crate::exchange::charge_neighbor_exchange;
use crate::ksssp::k_source_bfs;
use crate::outcome::{BestCycle, MwcOutcome};
use crate::params::Params;
use crate::util::{sample_vertices, simplify_path};
use mwc_congest::{
    broadcast, convergecast_min, multi_source_bfs, FloodPlan, Ledger, MultiBfsSpec, Network,
    PhaseCache, INF,
};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};
use mwc_rng::StdRng;

pub(crate) const SALT_MWC_SAMPLES: u64 = 0xB2;

/// How the algorithm measures length.
#[derive(Clone, Copy)]
pub(crate) enum Mode<'a> {
    /// Plain directed unweighted MWC: distances are hops.
    Unweighted,
    /// Stretched mode for §5.2: per-edge latencies (scaled weights) and a
    /// stretched-distance budget; only cycles of stretched length ≤
    /// `h_star` *and* real hop length ≤ `h_real` are targeted.
    Stretched {
        /// Per-edge stretch (scaled weight ≥ 1).
        latency: &'a [Weight],
        /// Stretched-distance budget `h*`.
        h_star: Weight,
        /// Real-hop bound of the target cycles (sampling threshold).
        h_real: u64,
    },
}

impl Mode<'_> {
    fn stretch_of(&self, edge: usize) -> Weight {
        match self {
            Mode::Unweighted => 1,
            Mode::Stretched { latency, .. } => latency[edge].max(1),
        }
    }
}

use crate::outcome::Partial;

/// 2-approximation of MWC in a directed unweighted graph (Theorem 1.2.C).
///
/// The returned weight is the hop length of a real directed cycle, at most
/// twice the true MWC w.h.p. (exact whenever some minimum weight cycle
/// passes through a sampled vertex). Runs in `Õ(n^{4/5} + D)` rounds,
/// measured in the outcome's ledger.
///
/// # Panics
///
/// Panics if the graph is undirected, weighted, or has a disconnected
/// communication topology.
///
/// # Examples
///
/// ```
/// use mwc_core::{two_approx_directed_mwc, Params};
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// let g = Graph::from_edges(4, Orientation::Directed,
///     [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 1, 1)])?;
/// let out = two_approx_directed_mwc(&g, &Params::new());
/// let w = out.weight.expect("the graph has cycles");
/// assert!((3..=6).contains(&w)); // MWC is 3; 2-approximation
/// # Ok(())
/// # }
/// ```
pub fn two_approx_directed_mwc(g: &Graph, params: &Params) -> MwcOutcome {
    let _span = mwc_trace::span("directed/2approx");
    let _cache = PhaseCache::scope();
    assert!(g.is_directed(), "Algorithm 2 requires a directed graph");
    assert!(
        g.is_unit_weight(),
        "Algorithm 2 requires an unweighted graph; use §5's weighted algorithm"
    );
    let out = directed_mwc_core(g, params, Mode::Unweighted);
    let mut ledger = out.ledger;
    // Line 7: convergecast so every node knows μ (value only; the witness
    // is assembled from the argmin holder).
    let tree = PhaseCache::bfs_tree(g, 0, &mut ledger);
    let local = vec![out.best.weight().unwrap_or(INF); g.n()];
    let _ = convergecast_min(g, &tree, local, &mut ledger);
    let n = g.n();
    let h = ((n as f64).powf(params.directed_h_exponent).ceil() as u64).max(1);
    mwc_trace::check_bound(
        "core/two_approx_directed_mwc",
        mwc_trace::BoundInputs::n(n)
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .h(h)
            .k(crate::bounds::directed_samples(n, h, params)),
        ledger.rounds,
        |i| crate::bounds::directed_2approx(g, i.diameter, params),
    );
    out.best.into_outcome(ledger)
}

/// Hop-limited 2-approximation on a stretched directed graph — the §5.2
/// subroutine. Returns candidates measured as **real edge weights of the
/// witness cycles** (callers rescale/compare); only cycles with stretched
/// length ≤ `h_star` and ≤ `h_real` real hops are guaranteed to be
/// 2-approximated.
pub(crate) fn hop_limited_directed_mwc(
    g: &Graph,
    params: &Params,
    latency: &[Weight],
    h_star: Weight,
    h_real: u64,
) -> Partial {
    directed_mwc_core(
        g,
        params,
        Mode::Stretched {
            latency,
            h_star,
            h_real,
        },
    )
}

fn directed_mwc_core(g: &Graph, params: &Params, mode: Mode<'_>) -> Partial {
    let n = g.n();
    let mut ledger = Ledger::new();
    let mut best = BestCycle::new();
    if n == 0 {
        return Partial { best, ledger };
    }

    // Parameters (paper: h = n^{3/5}, ρ = n^{4/5}).
    let h_hops: u64 = match mode {
        Mode::Unweighted => (n as f64).powf(params.directed_h_exponent).ceil() as u64,
        Mode::Stretched { h_real, .. } => h_real,
    }
    .max(1);
    let rho: u64 = (((n as f64).powf(params.rho_exponent) * params.delay_factor.max(0.0)).ceil()
        as u64)
        .max(1);
    let budget: Weight = match mode {
        Mode::Unweighted => h_hops,
        Mode::Stretched { h_star, .. } => h_star,
    };

    // Line 2: sample S so cycles of ≥ h_hops real hops are hit w.h.p.
    let p = params.sample_prob(n, h_hops);
    let samples = sample_vertices(n, p, params.seed, SALT_MWC_SAMPLES);
    let ns = samples.len();

    // Line 3: distances to/from the samples.
    // Unweighted mode: full exact k-source BFS (Algorithm 1).
    // Stretched mode: budget-limited stretched BFS (cycles beyond the
    // budget are the caller's responsibility), O(h* + |S|) rounds.
    let (d_from_s, d_to_s): (DistTable, DistTable) = match mode {
        Mode::Unweighted => {
            let fwd = k_source_bfs(g, &samples, Direction::Forward, params);
            let rev = k_source_bfs(g, &samples, Direction::Reverse, params);
            ledger.merge(&fwd.ledger);
            ledger.merge(&rev.ledger);
            (DistTable::KsBfs(fwd), DistTable::KsBfs(rev))
        }
        Mode::Stretched { latency, .. } => {
            let spec_f = MultiBfsSpec {
                max_dist: budget,
                direction: Direction::Forward,
                latency: Some(latency),
            };
            let spec_r = MultiBfsSpec {
                max_dist: budget,
                direction: Direction::Reverse,
                latency: Some(latency),
            };
            let f = multi_source_bfs(g, &samples, &spec_f, "stretched BFS from S", &mut ledger);
            let r = multi_source_bfs(
                g,
                &samples,
                &spec_r,
                "stretched reverse BFS from S",
                &mut ledger,
            );
            (DistTable::Mat(f), DistTable::Mat(r))
        }
    };

    // Line 4: cycles through sampled vertices — for each edge (v, s∈S):
    // μ_v = min(μ_v, w(v,s) + d(s,v)) (in mode units).
    for (si, &s) in samples.iter().enumerate() {
        for a in g.in_adj(s) {
            let v = a.to;
            let d = d_from_s.get(si, v);
            if d == INF {
                continue;
            }
            if let Some(path) = d_from_s.path(si, v) {
                offer_cycle_with_closing_edge(g, &mut best, path, s);
            }
        }
    }

    // Line 5: broadcast all-pairs sample distances d(s, t).
    let tree = PhaseCache::bfs_tree(g, 0, &mut ledger);
    let mut items: Vec<(NodeId, (u32, u32, Weight))> = Vec::new();
    for i in 0..ns {
        for (j, &t) in samples.iter().enumerate() {
            if i == j {
                continue;
            }
            let d = d_from_s.get(i, t);
            if d != INF {
                items.push((t, (i as u32, j as u32, d)));
            }
        }
    }
    let pairs = broadcast(g, &tree, items, 1, &mut ledger);
    let mut d_st = vec![INF; ns * ns];
    for (_, (i, j, d)) in pairs {
        d_st[i as usize * ns + j as usize] = d;
    }

    // Line 6: Algorithm 3 — approximate short cycles avoiding S.
    short_cycles_restricted_bfs(
        g,
        params,
        mode,
        &samples,
        &d_st,
        &d_from_s,
        &d_to_s,
        budget,
        rho,
        &mut best,
        &mut ledger,
    );

    Partial { best, ledger }
}

/// Distance tables from/to samples, from either Algorithm 1 or a
/// budget-limited stretched BFS.
enum DistTable {
    KsBfs(crate::ksssp::KSourceDistances),
    Mat(mwc_congest::DistMatrix),
}

impl DistTable {
    fn get(&self, row: usize, v: NodeId) -> Weight {
        match self {
            DistTable::KsBfs(k) => k.get_row(row, v),
            DistTable::Mat(m) => m.get_row(row, v),
        }
    }

    /// The table node-major, as every node holds it: entry `v * ns + i`
    /// is sample `i`'s distance at `v`.
    fn node_major(&self, n: usize, ns: usize) -> Vec<Weight> {
        let mut out = Vec::with_capacity(n * ns);
        for v in 0..n {
            match self {
                DistTable::KsBfs(k) => out.extend((0..ns).map(|si| k.get_row(si, v))),
                DistTable::Mat(m) => out.extend_from_slice(m.column(v)),
            }
        }
        out
    }

    /// Path oriented along graph edges (forward tables: sample→v; reverse
    /// tables: v→sample).
    fn path(&self, row: usize, v: NodeId) -> Option<Vec<NodeId>> {
        match self {
            DistTable::KsBfs(k) => k.path_row(row, v),
            DistTable::Mat(m) => m.path_from_source(row, v),
        }
    }
}

/// Offers the cycle `path(s → … → v)` closed by the edge `(v, s)`; the
/// candidate's value is the witness's real weight (never below the true
/// MWC by construction).
fn offer_cycle_with_closing_edge(g: &Graph, best: &mut BestCycle, path: Vec<NodeId>, s: NodeId) {
    let cyc = simplify_path(path);
    if cyc.len() >= 2 && cyc[0] == s {
        best.offer_validated(g, cyc);
    }
}

/// `R(v)` for every node `v` as one CSR table.
pub(crate) struct RSets {
    /// Node `v`'s pairs are `pairs[off[v]..off[v + 1]]` (length `n + 1`).
    off: Vec<u32>,
    /// `(sample index, d(v, s))` pairs, node after node.
    pairs: Vec<(u32, Weight)>,
}

impl RSets {
    /// `R(v)` as `(sample index, d(v, s))` pairs — `O(log n)` of them.
    pub(crate) fn of(&self, v: NodeId) -> &[(u32, Weight)] {
        &self.pairs[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// Lines 2–8 of Algorithm 3, extracted for Lemma-level testing: builds
/// `R(v)` for every `v` by probing one still-uncovered sample per
/// partition class. The covering condition is Definition 3.1 specialized
/// to a candidate sample `s` against an already-chosen `t`:
/// `d(s,t) + 2d(v,s) ≤ d(t,s) + 2d(v,t)`. `to_s` is node-major:
/// `to_s[v * ns + i] = d(v, s_i)`.
pub(crate) fn build_rsets(
    n: usize,
    ns: usize,
    classes: &[Vec<usize>],
    to_s: &[Weight],
    d_st: &[Weight],
    seed: u64,
) -> RSets {
    let covered_check = |dvs: Weight, s_i: usize, r: &[(u32, Weight)]| -> bool {
        // Returns true if s_i is still *uncovered* (i.e. in P(v) so far).
        r.iter().all(|&(t_i, dvt)| {
            let dst = d_st[s_i * ns + t_i as usize];
            let dts = d_st[t_i as usize * ns + s_i];
            dst.saturating_add(2u64.saturating_mul(dvs))
                <= dts.saturating_add(2u64.saturating_mul(dvt))
        })
    };

    let mut off: Vec<u32> = Vec::with_capacity(n + 1);
    let mut pairs: Vec<(u32, Weight)> = Vec::new();
    let mut rng_r = StdRng::seed_from_u64(seed).fork("alg3/rset");
    // One candidate buffer for every (node, class) probe.
    let mut t: Vec<usize> = Vec::new();
    for v in 0..n {
        let tv = &to_s[v * ns..(v + 1) * ns];
        let start = pairs.len();
        off.push(start as u32);
        for class in classes {
            t.clear();
            t.extend(
                class
                    .iter()
                    .copied()
                    .filter(|&s_i| tv[s_i] != INF && covered_check(tv[s_i], s_i, &pairs[start..])),
            );
            if !t.is_empty() {
                let pick = t[rng_r.random_range(0..t.len())];
                pairs.push((pick as u32, tv[pick]));
            }
        }
    }
    off.push(pairs.len() as u32);
    RSets { off, pairs }
}

/// Membership of `y` in `P(v)` per Definition 3.1, given `R(v)` and exact
/// distances (test/diagnostic helper): `∀t ∈ R(v): d(y,t) + 2d(v,y) ≤
/// d(t,y) + 2d(v,t)`.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn in_neighborhood(
    d_vy: Weight,
    d_y_to_t: impl Fn(usize) -> Weight,
    d_t_to_y: impl Fn(usize) -> Weight,
    rset: &[(u32, Weight)],
) -> bool {
    rset.iter().all(|&(t_i, dvt)| {
        d_y_to_t(t_i as usize).saturating_add(2u64.saturating_mul(d_vy))
            <= d_t_to_y(t_i as usize).saturating_add(2u64.saturating_mul(dvt))
    })
}

/// One restricted-BFS message on `link` from `from` to `to`: source
/// `src`'s search at distance `dist` in mode units. Its body is `(Q(src),
/// d*(src, ·))` of Algorithm 3 line 16, `1 + 2·|R(src)|` words; the
/// receiver reads `R(src)` from the [`RSets`] table, which holds exactly
/// what the message delivered.
#[derive(Clone, Copy)]
struct Msg {
    from: u32,
    to: u32,
    link: u32,
    src: u32,
    dist: Weight,
}

/// An open-addressed set of `(node, source)` pairs, growing at half
/// load: line 20's "first message from this source" test.
struct PairSet {
    slots: Vec<u64>,
    len: usize,
}

impl PairSet {
    const EMPTY: u64 = u64::MAX;

    fn with_capacity(pairs: usize) -> Self {
        PairSet {
            slots: vec![Self::EMPTY; (2 * pairs).next_power_of_two().max(16)],
            len: 0,
        }
    }

    /// Inserts `(a, b)`; `false` if it was already present.
    fn insert(&mut self, a: u32, b: u32) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![Self::EMPTY; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for key in old.into_iter().filter(|&k| k != Self::EMPTY) {
                let i = self.probe(key);
                self.slots[i] = key;
            }
        }
        let key = (a as u64) << 32 | b as u64;
        let i = self.probe(key);
        if self.slots[i] == key {
            return false;
        }
        self.slots[i] = key;
        self.len += 1;
        true
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while self.slots[i] != Self::EMPTY && self.slots[i] != key {
            i = (i + 1) & mask;
        }
        i
    }
}

#[allow(clippy::too_many_arguments)]
fn short_cycles_restricted_bfs(
    g: &Graph,
    params: &Params,
    mode: Mode<'_>,
    samples: &[NodeId],
    d_st: &[Weight],
    d_from_s: &DistTable,
    d_to_s: &DistTable,
    budget: Weight,
    rho: u64,
    best: &mut BestCycle,
    ledger: &mut Ledger,
) {
    let _span = mwc_trace::span("directed/alg3");
    let n = g.n();
    let ns = samples.len();
    let cap = params.phase_cap(n);

    // Lines 2–8: partition S into β = ⌈log₂ n⌉ classes and build R(v)
    // locally at every vertex.
    let beta = ((n.max(2) as f64).log2().ceil() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(params.seed).fork("alg3/partition");
    let mut class = vec![0usize; ns];
    for (i, c) in class.iter_mut().enumerate() {
        *c = (i + rng.random_range(0..beta)) % beta;
    }
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); beta];
    for (i, &c) in class.iter().enumerate() {
        classes[c].push(i);
    }

    // d(v, s) and d(s, v) vectors per node (information each node holds
    // from line 3's BFS runs), node-major: entry `v * ns + i` is `s_i`'s.
    let to_s = d_to_s.node_major(n, ns);
    let from_s = d_from_s.node_major(n, ns);

    let rset = build_rsets(n, ns, &classes, &to_s, d_st, params.seed);
    let msg_words = |src: u32| (1 + 2 * rset.of(src as usize).len()) as u64;

    // Line 9: random delays δ_v ∈ [1, ρ]. One labeled substream per
    // node: δ_v depends only on (seed, v), so the schedule is stable
    // under changes to n, topology iteration order, or earlier phases.
    let delay_root = StdRng::seed_from_u64(params.seed).fork("alg3/delays");
    let delays: Vec<u64> = (0..n)
        .map(|v| delay_root.fork_u64(v as u64).random_range(1..=rho))
        .collect();

    // Line 11: every node sends {(d(v,s), d(s,v))} to each neighbor —
    // a 2|S|-word bulk exchange, O(|S|) rounds. Receivers read their
    // neighbors' vectors in place.
    charge_neighbor_exchange(
        g,
        |_| 2 * ns as u64,
        "Alg3: neighbor sample-distance exchange",
        ledger,
    );

    // Membership/forwarding test of line 22: forward source y's BFS to
    // out-neighbor u iff ∀(t, d(y,t)) ∈ Q(y):
    //   d(u,t) + 2d*(y,u) ≤ d(t,u) + 2d(y,t).
    // `u` is linked to the forwarding node, which got `u`'s vectors in
    // the line-11 exchange.
    let forward_test = |u: NodeId, cand: Weight, q: &[(u32, Weight)]| -> bool {
        let row = u * ns..(u + 1) * ns;
        let (ut, tu) = (&to_s[row.clone()], &from_s[row]);
        q.iter().all(|&(t_i, dyt)| {
            ut[t_i as usize].saturating_add(2u64.saturating_mul(cand))
                <= tu[t_i as usize].saturating_add(2u64.saturating_mul(dyt))
        })
    };

    // Lines 13–22: the phase-organized restricted BFS.
    let max_phase = rho + budget; // arrivals occur by δ_v + budget ≤ ρ + h*.
    let mut overflow = vec![false; n];
    // The reach log: the first message from each source to reach each
    // node (line 20), appended as it arrives; `seen` indexes it by
    // `(to, src)`.
    let mut reach: Vec<Msg> = Vec::new();
    let mut seen = PairSet::with_capacity(4 * n);
    // future[p % window] = messages arriving at phase p (stretch ≥ 1).
    // Pending arrivals lie in (p, max_phase], so the ring never needs
    // more than `max_phase + 1` slots, however long an edge stretches.
    let max_stretch = match mode {
        Mode::Unweighted => 1,
        Mode::Stretched { latency, .. } => latency.iter().copied().max().unwrap_or(1).max(1),
    };
    let window = max_stretch.min(max_phase) as usize + 1;
    let mut future: Vec<Vec<Msg>> = vec![Vec::new(); window];
    // Drained buckets, kept for the next bucket that fills.
    let mut spare: Vec<Vec<Msg>> = Vec::new();
    let mut bfs_net: Network<()> = Network::new(g); // round accounting only

    // Traversal-edge CSR: link ids and stretches resolved once, so the
    // phase loop's send and arrival-scheduling paths do no adjacency or
    // edge-id searches. In this mode-unit world an edge's length is its
    // stretch (`hop.latency + 1`), used for BOTH the announced distance
    // and the arrival delay — unlike `multi_source_bfs`, where a
    // zero-weight edge adds 0 distance but still takes a round.
    let plan = FloodPlan::build(
        g,
        &bfs_net,
        Direction::Forward,
        match mode {
            Mode::Unweighted => None,
            Mode::Stretched { latency, .. } => Some(latency),
        },
    );

    // Initiators in (δ_v, v) order: phase p's initiations are the next
    // run of equal delays, in ascending node order.
    let mut initiators: Vec<NodeId> = (0..n).collect();
    initiators.sort_by_key(|&v| delays[v]);
    let mut next_init = 0;
    // Buffers reused by every phase. Sends carry their stretch so
    // scheduling stays lookup-free; a phase's fresh first messages are
    // `(to, arrival seq, src, dist)`; `received` counts line 19's
    // per-edge receives by link id and is reset through `touched`.
    let mut sends: Vec<(Msg, u64)> = Vec::new();
    let mut fresh: Vec<(u32, u32, u32, Weight)> = Vec::new();
    let mut received = vec![0u32; bfs_net.link_ends().len()];
    let mut touched: Vec<u32> = Vec::new();

    for phase in 1..=max_phase {
        let slot = (phase as usize) % window;
        let init_end = next_init
            + initiators[next_init..]
                .iter()
                .take_while(|&&v| delays[v] == phase)
                .count();
        if init_end == next_init && future[slot].is_empty() {
            continue; // quiet phase: nothing starts or arrives, zero rounds.
        }

        // Initiations at δ_v (line 15–17).
        for &v in &initiators[next_init..init_end] {
            if overflow[v] {
                continue;
            }
            for hop in plan.of(v) {
                let ell = hop.latency + 1;
                if ell > budget {
                    continue;
                }
                let msg = Msg {
                    from: v as u32,
                    to: hop.to,
                    link: hop.link,
                    src: v as u32,
                    dist: ell,
                };
                sends.push((msg, ell));
            }
        }
        next_init = init_end;

        // Per-edge receive counting (line 19) and first-message dedup
        // (line 20) over the deliveries scheduled for this phase.
        let mut arrived = std::mem::take(&mut future[slot]);
        for msg in arrived.drain(..) {
            let to = msg.to as usize;
            if overflow[to] {
                continue;
            }
            let c = &mut received[msg.link as usize];
            if *c == 0 {
                touched.push(msg.link);
            }
            *c += 1;
            if *c as usize > cap {
                overflow[to] = true;
                continue;
            }
            if msg.src == msg.to || !seen.insert(msg.to, msg.src) {
                continue; // not the first message for this source
            }
            reach.push(msg);
            fresh.push((msg.to, fresh.len() as u32, msg.src, msg.dist));
        }
        for l in touched.drain(..) {
            received[l as usize] = 0;
        }
        if arrived.capacity() > 0 {
            spare.push(arrived);
        }

        // Line 21: Y^r(v) cap; line 22: forward with the membership test.
        // Ascending node order, each node's messages in arrival order.
        fresh.sort_unstable_by_key(|&(to, seq, _, _)| (to, seq));
        for run in fresh.chunk_by(|a, b| a.0 == b.0) {
            let v = run[0].0 as usize;
            if run.len() > cap {
                overflow[v] = true;
            }
            if overflow[v] {
                continue;
            }
            for &(_, _, src, dist) in run {
                let q = rset.of(src as usize);
                for hop in plan.of(v) {
                    let ell = hop.latency + 1;
                    let cand = dist.saturating_add(ell);
                    if cand > budget {
                        continue;
                    }
                    if forward_test(hop.to as usize, cand, q) {
                        let msg = Msg {
                            from: v as u32,
                            to: hop.to,
                            link: hop.link,
                            src,
                            dist: cand,
                        };
                        sends.push((msg, ell));
                    }
                }
            }
        }
        fresh.clear();

        if sends.is_empty() {
            continue; // nothing forwarded: zero rounds.
        }
        // Charge this phase's rounds: all sends as one batch.
        bfs_net.charge_batch(sends.iter().map(|(m, _)| (m.link, msg_words(m.src))));
        // Schedule arrivals at entry phase + stretch.
        for (msg, ell) in sends.drain(..) {
            let arrive = phase + ell;
            if arrive <= max_phase {
                let bucket = &mut future[(arrive as usize) % window];
                if bucket.capacity() == 0 {
                    *bucket = spare.pop().unwrap_or_default();
                }
                bucket.push(msg);
            }
        }
    }
    ledger.absorb("Alg3: restricted BFS phases", &bfs_net);

    // Lines 25–26: close cycles found by the restricted BFS — at node y
    // holding d(v, y) with an out-edge (y, v). Sorted by `(y, v)`, so the
    // `cand >= b` pruning sees the same sequence of improvements on
    // every run.
    reach.sort_unstable_by_key(|r| (r.to, r.src));
    for rec in &reach {
        let (y, v) = (rec.to as usize, rec.src as usize);
        let Some(eid) = g.edge_id(y, v) else {
            continue;
        };
        // Prune by the mode-unit candidate d(v, y) + stretch(y, v).
        let cand = rec.dist.saturating_add(mode.stretch_of(eid));
        if best
            .weight()
            .is_some_and(|b| matches!(mode, Mode::Unweighted) && cand >= b)
        {
            continue;
        }
        if let Some(path) = reconstruct_restricted_path(&reach, v, y, n) {
            offer_cycle_with_closing_edge(g, best, path, v);
        }
    }

    // Line 24: h-hop BFS from the phase-overflow set Z. Record |Z| in the
    // ledger (zero-cost info line) for the scheduling ablation.
    let z: Vec<NodeId> = (0..n).filter(|&v| overflow[v]).collect();
    ledger.phases.push(mwc_congest::Phase {
        label: format!("Alg3: |Z| = {} phase-overflow vertices", z.len()),
        rounds: 0,
        words: 0,
    });
    if !z.is_empty() {
        let latency_vec: Option<&[Weight]> = match mode {
            Mode::Unweighted => None,
            Mode::Stretched { latency, .. } => Some(latency),
        };
        let spec = MultiBfsSpec {
            max_dist: budget,
            direction: Direction::Forward,
            latency: latency_vec,
        };
        let mat_z = multi_source_bfs(g, &z, &spec, "Alg3: BFS from phase-overflow set", ledger);
        for (zi, &v) in z.iter().enumerate() {
            // For each edge (x, v): cycle v → … → x → v.
            for a in g.in_adj(v) {
                let x = a.to;
                if mat_z.get_row(zi, x) == INF {
                    continue;
                }
                if let Some(path) = mat_z.path_from_source(zi, x) {
                    offer_cycle_with_closing_edge(g, best, path, v);
                }
            }
        }
    }
}

/// Walks the reach log's first messages back from `y` to the source `v`,
/// returning the path `v → … → y`. `reach` is sorted by `(to, src)`.
fn reconstruct_restricted_path(
    reach: &[Msg],
    v: NodeId,
    y: NodeId,
    n: usize,
) -> Option<Vec<NodeId>> {
    let mut path = vec![y];
    let mut cur = y;
    while cur != v {
        let i = reach
            .binary_search_by_key(&(cur as u32, v as u32), |r| (r.to, r.src))
            .ok()?;
        cur = reach[i].from as usize;
        path.push(cur);
        if path.len() > n {
            return None;
        }
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, planted_cycle, ring_with_chords, WeightRange};
    use mwc_graph::seq;
    use mwc_graph::Orientation;

    fn check_two_approx(g: &Graph, params: &Params) {
        let out = two_approx_directed_mwc(g, params);
        out.assert_valid(g);
        let oracle = seq::mwc_directed_exact(g).map(|m| m.weight);
        match (out.weight, oracle) {
            (None, None) => {}
            (Some(w), Some(opt)) => {
                assert!(w >= opt, "reported {w} < optimum {opt}");
                assert!(w <= 2 * opt, "reported {w} > 2×optimum {}", 2 * opt);
            }
            (got, want) => panic!("cycle detection mismatch: got {got:?}, oracle {want:?}"),
        }
    }

    #[test]
    fn ring_is_found_exactly() {
        // Single Hamiltonian cycle: long-cycle machinery must catch it.
        let g = ring_with_chords(60, 0, Orientation::Directed, WeightRange::unit(), 0);
        let out = two_approx_directed_mwc(&g, &Params::new().with_seed(1));
        out.assert_valid(&g);
        assert_eq!(out.weight, Some(60));
    }

    #[test]
    fn random_graphs_within_factor_two() {
        for seed in 0..6 {
            let g = connected_gnm(48, 120, Orientation::Directed, WeightRange::unit(), seed);
            check_two_approx(&g, &Params::new().with_seed(seed + 100));
        }
    }

    #[test]
    fn denser_graphs_within_factor_two() {
        for seed in 0..4 {
            let g = connected_gnm(
                80,
                420,
                Orientation::Directed,
                WeightRange::unit(),
                50 + seed,
            );
            check_two_approx(&g, &Params::new().with_seed(seed));
        }
    }

    #[test]
    fn planted_short_cycle_found() {
        let (g, _) = planted_cycle(70, 120, 3, 1, Orientation::Directed, WeightRange::unit(), 7);
        check_two_approx(&g, &Params::new().with_seed(3));
    }

    #[test]
    fn two_cycles_are_caught() {
        // Antiparallel pair = MWC of 2.
        let mut g = ring_with_chords(40, 0, Orientation::Directed, WeightRange::unit(), 0);
        g.add_edge(5, 4, 1).unwrap();
        let out = two_approx_directed_mwc(&g, &Params::new().with_seed(4));
        out.assert_valid(&g);
        let w = out.weight.expect("cycle exists");
        assert!(
            (2..=4).contains(&w),
            "2-cycle must be ≤2-approximated, got {w}"
        );
    }

    #[test]
    fn acyclic_reports_none() {
        let mut g = Graph::directed(12);
        for i in 0..11 {
            g.add_edge(i, i + 1, 1).unwrap();
        }
        for i in 0..10 {
            g.add_edge(i, i + 2, 1).unwrap();
        }
        let out = two_approx_directed_mwc(&g, &Params::new());
        out.assert_valid(&g);
        assert_eq!(out.weight, None);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = connected_gnm(40, 100, Orientation::Directed, WeightRange::unit(), 9);
        let a = two_approx_directed_mwc(&g, &Params::new().with_seed(5));
        let b = two_approx_directed_mwc(&g, &Params::new().with_seed(5));
        assert_eq!(a.weight, b.weight);
        assert_eq!(a.ledger.rounds, b.ledger.rounds);
    }

    /// Lemma-level validation of the R(v)/P(v) machinery using oracle
    /// distances: the paper claims |P(v)| shrinks to Õ(n/|S|) (the
    /// covering/halving argument after Definition 3.1) and that P(v) is
    /// connected in the shortest-path out-tree (Lemma 3.2).
    #[test]
    fn neighborhood_size_and_connectivity_lemmas() {
        use crate::util::sample_vertices;
        use mwc_graph::seq::{dijkstra, Direction as D, INF as SINF};

        let n = 140;
        let g = connected_gnm(n, 560, Orientation::Directed, WeightRange::unit(), 77);
        // Exact distances via the oracle (the algorithm has the same
        // numbers from Algorithm 1).
        let fwd: Vec<_> = (0..n).map(|v| dijkstra(&g, v, D::Forward)).collect();
        let to = |a: usize, b: usize| {
            if fwd[a].dist[b] == SINF {
                INF
            } else {
                fwd[a].dist[b]
            }
        };

        let samples = sample_vertices(n, 0.18, 5, 0xB2);
        let ns = samples.len();
        assert!(ns >= 8, "need a meaningful sample ({ns})");
        let mut d_st = vec![INF; ns * ns];
        for i in 0..ns {
            for j in 0..ns {
                d_st[i * ns + j] = to(samples[i], samples[j]);
            }
        }
        let to_s: Vec<Weight> = (0..n)
            .flat_map(|v| samples.iter().map(move |&s| to(v, s)))
            .collect();
        let beta = ((n as f64).log2().ceil() as usize).max(1);
        let classes: Vec<Vec<usize>> = (0..beta).map(|c| (c..ns).step_by(beta).collect()).collect();
        let rsets = build_rsets(n, ns, &classes, &to_s, &d_st, 5);

        let mut total_p = 0usize;
        for v in 0..n {
            let p_v: Vec<NodeId> = (0..n)
                .filter(|&y| {
                    to(v, y) != INF
                        && in_neighborhood(
                            to(v, y),
                            |t| to(y, samples[t]),
                            |t| to(samples[t], y),
                            rsets.of(v),
                        )
                })
                .collect();
            total_p += p_v.len();

            // Lemma 3.2: every vertex on the canonical shortest v→y path
            // of y ∈ P(v) is itself in P(v).
            for &y in p_v.iter().take(25) {
                let mut cur = y;
                while let Some(p) = fwd[v].parent[cur] {
                    assert!(
                        in_neighborhood(
                            to(v, p),
                            |t| to(p, samples[t]),
                            |t| to(samples[t], p),
                            rsets.of(v),
                        ),
                        "P({v}) not connected: ancestor {p} of {y} excluded"
                    );
                    cur = p;
                    if cur == v {
                        break;
                    }
                }
            }
        }
        // Size bound: mean |P(v)| ≤ c·n/|S| with a generous constant
        // absorbing the polylog.
        let mean = total_p as f64 / n as f64;
        let bound = 6.0 * n as f64 / ns as f64;
        assert!(
            mean <= bound,
            "mean |P(v)| = {mean:.1} > {bound:.1} (|S| = {ns})"
        );
    }

    /// Weights near 2^40 stretch the finest scales' edges far past the
    /// phase horizon; the arrival ring must stay sized by the horizon.
    #[test]
    fn huge_weights_keep_the_arrival_ring_small() {
        let w = 1u64 << 40;
        let mut g = ring_with_chords(12, 0, Orientation::Directed, WeightRange::uniform(w, w), 0);
        g.add_edge(4, 3, w).unwrap();
        let out = crate::approx_mwc_directed_weighted(&g, &Params::new().with_seed(2));
        out.assert_valid(&g);
        let rep = out.weight.expect("the graph has cycles");
        assert!(
            rep >= 2 * w && rep as f64 <= 2.25 * (2 * w) as f64,
            "rep {rep}"
        );
    }

    #[test]
    fn many_seeds_never_violate_factor() {
        for seed in 0..10 {
            let g = connected_gnm(36, 90, Orientation::Directed, WeightRange::unit(), 777);
            check_two_approx(&g, &Params::new().with_seed(seed));
        }
    }
}

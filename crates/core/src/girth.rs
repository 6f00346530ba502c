//! `(2 − 1/g)`-approximation of girth — **Theorem 1.3.B** of the paper
//! (§4), in `Õ(√n + D)` rounds, plus the hop-limited stretched variant of
//! **Corollary 4.1** used by §5.1's weighted algorithm.
//!
//! Two candidate generators cover every cycle:
//!
//! 1. **Sampled BFS.** `Õ(√n)` sampled sources run BFS; for each source
//!    `w` and non-tree edge `(x, y)`, the BFS-tree LCA cycle is a real
//!    cycle of length ≤ `d(w,x) + d(w,y) + 1`. If the MWC `C` escapes the
//!    `√n`-neighborhood of one of its vertices `v`, the ball of radius
//!    `≤ (g−1)/2` around `v` holds `≥ √n` vertices, so a sampled vertex
//!    lands within `(g−1)/2` of `v` w.h.p. and its candidate is
//!    `≤ 2g − 1 = (2 − 1/g)·g`.
//! 2. **`√n`-neighborhoods.** `(V, h, σ=√n)` source detection \[37\] gives
//!    every node its `σ` closest vertices; neighbors exchange these lists.
//!    (a) For each edge `(x, y)` and common detected source `v` the
//!    non-tree candidate `d(v,x) + w(x,y) + d(v,y)` is exact for cycles
//!    contained in all their members' neighborhoods (the antipodal-edge
//!    argument, now local). (b) For cycles with **exactly one vertex `z`
//!    outside** the neighborhood, `z`'s two cycle-neighbors `x, y` are
//!    inside, and `z` sees both lists: `d(v,x) + w(x,z) + w(z,y) + d(v,y)`
//!    recovers the cycle exactly — this is the refinement that turns a
//!    plain 2-approximation into `(2 − 1/g)`.
//!
//! Every candidate is materialized as a real simple cycle (loop-erased
//! closed walk) before being offered, so reported values are never below
//! the true MWC.

use crate::exchange::{charge_neighbor_exchange, lca_cycle};
use crate::outcome::{BestCycle, MwcOutcome, Partial};
use crate::params::Params;
use crate::util::{extract_cycle_from_walk, sample_vertices};
use mwc_congest::{
    multi_source_bfs, source_detection, Detection, Ledger, MultiBfsSpec, PhaseCache, INF,
};
use mwc_graph::seq::Direction;
use mwc_graph::{EdgeId, Graph, NodeId, Weight};

pub(crate) const SALT_GIRTH_SAMPLES: u64 = 0xC1;

/// `(2 − 1/g)`-approximation of the girth of an undirected unweighted
/// graph in `Õ(√n + D)` rounds (Theorem 1.3.B).
///
/// The returned weight is the hop length of a real cycle, between `g` and
/// `2g − 1` w.h.p. Returns `None` iff no cycle was found (correct w.h.p.
/// for forests — and deterministically: a forest has no cycle to find).
///
/// # Panics
///
/// Panics if the graph is directed or weighted, or if the communication
/// topology is disconnected.
///
/// # Examples
///
/// ```
/// use mwc_core::{approx_girth, Params};
/// use mwc_graph::generators::{ring_with_chords, WeightRange};
/// use mwc_graph::Orientation;
///
/// let g = ring_with_chords(40, 0, Orientation::Undirected, WeightRange::unit(), 0);
/// let out = approx_girth(&g, &Params::new());
/// assert_eq!(out.weight, Some(40)); // the ring itself
/// assert_eq!(out.witness.unwrap().validate(&g), Ok(40));
/// ```
pub fn approx_girth(g: &Graph, params: &Params) -> MwcOutcome {
    let _span = mwc_trace::span("girth/approx");
    let _cache = PhaseCache::scope();
    assert!(!g.is_directed(), "girth requires an undirected graph");
    assert!(
        g.is_unit_weight(),
        "girth requires an unweighted graph; see §5 for weighted"
    );
    let out = girth_core(g, params, None).announce(g);
    audit_girth("core/approx_girth", g, params, &out.ledger);
    out
}

/// Audits a finished girth-entry run against the Theorem 1.3.B envelope.
fn audit_girth(algorithm: &str, g: &Graph, params: &Params, ledger: &Ledger) {
    let n = g.n();
    let sigma = ((n as f64).sqrt().ceil() as u64).max(1);
    mwc_trace::check_bound(
        algorithm,
        mwc_trace::BoundInputs::n(n)
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .h(sigma)
            .k(crate::bounds::girth_samples(n, params)),
        ledger.rounds,
        crate::bounds::girth,
    );
}

/// Hop-limited `(2 − 1/g)`-approximation on a *stretched* undirected graph
/// (Corollary 4.1): candidates are guaranteed for cycles of stretched
/// length ≤ `h_star`; offered values are the real weights of witness
/// cycles. Costs `Õ(√n + h* + R_cast)` rounds.
pub(crate) fn hop_limited_girth(
    g: &Graph,
    params: &Params,
    latency: &[Weight],
    h_star: Weight,
) -> Partial {
    girth_core(g, params, Some((latency, h_star)))
}

/// Ablation entry point: run only selected candidate generators of the
/// girth algorithm — the sampled-BFS part (covers cycles escaping their
/// `√n`-neighborhoods), the neighborhood part (covers contained cycles,
/// exactly), or both (the full Theorem 1.3.B algorithm). With a single
/// part the `(2 − 1/g)` guarantee degrades; witnesses remain valid, so
/// outputs still never underestimate.
///
/// # Panics
///
/// Panics if both parts are disabled, or on the same conditions as
/// [`approx_girth`].
pub fn approx_girth_parts(
    g: &Graph,
    params: &Params,
    sampled_part: bool,
    neighborhood_part: bool,
) -> MwcOutcome {
    let _span = mwc_trace::span("girth/approx-parts");
    let _cache = PhaseCache::scope();
    assert!(
        sampled_part || neighborhood_part,
        "enable at least one candidate generator"
    );
    assert!(!g.is_directed(), "girth requires an undirected graph");
    assert!(g.is_unit_weight(), "girth requires an unweighted graph");
    let out = girth_core_parts(g, params, None, sampled_part, neighborhood_part).announce(g);
    audit_girth("core/approx_girth", g, params, &out.ledger);
    out
}

fn girth_core(g: &Graph, params: &Params, stretch: Option<(&[Weight], Weight)>) -> Partial {
    girth_core_parts(g, params, stretch, true, true)
}

fn girth_core_parts(
    g: &Graph,
    params: &Params,
    stretch: Option<(&[Weight], Weight)>,
    sampled_part: bool,
    neighborhood_part: bool,
) -> Partial {
    let n = g.n();
    let mut parts = Partial::default();
    if n < 3 {
        return parts;
    }
    let sigma = ((n as f64).sqrt().ceil() as usize).max(1);
    let (latency, det_budget, bfs_budget): (Option<&[Weight]>, Weight, Weight) = match stretch {
        None => (None, sigma as Weight, INF),
        Some((lat, h_star)) => (Some(lat), h_star, h_star),
    };

    // Part 1: BFS from Õ(√n) sampled sources.
    if sampled_part {
        let _part = mwc_trace::span("girth/sampled-part");
        let p = params.sample_prob(n, sigma as u64);
        let samples = sample_vertices(n, p, params.seed, SALT_GIRTH_SAMPLES);
        let spec = MultiBfsSpec {
            max_dist: bfs_budget,
            direction: Direction::Forward,
            latency,
        };
        let mat = multi_source_bfs(
            g,
            &samples,
            &spec,
            "BFS from sampled sources",
            &mut parts.ledger,
        );
        // Neighbors exchange their (dist, pred) columns (2k words per
        // link); each edge endpoint then reads the other's column in place.
        let k = samples.len();
        charge_neighbor_exchange(
            g,
            |_| 2 * k as u64,
            "sampled-distance exchange",
            &mut parts.ledger,
        );
        for e in g.edges() {
            let (x, y) = (e.u, e.v);
            for row in 0..k {
                let dx = mat.get_row(row, x);
                let dy = mat.get_row(row, y);
                if dx == INF || dy == INF {
                    continue;
                }
                // Both tests are pure, so their order does not change which
                // candidates survive; the distance test is the cheap one.
                let cand = dx + e.weight + dy;
                if parts.best.weight().is_some_and(|b| cand >= b) {
                    continue;
                }
                if mat.pred_row(row, x) == Some(y) || mat.pred_row(row, y) == Some(x) {
                    continue; // tree edge w.r.t. this source
                }
                if let Some(cyc) = lca_cycle(&mat, row, x, y) {
                    parts.best.offer_validated(g, cyc);
                }
            }
        }
    }

    if !neighborhood_part {
        return parts;
    }
    // Part 2: σ-nearest-neighborhood detection from all vertices.
    let _part = mwc_trace::span("girth/neighborhood-part");
    let all: Vec<NodeId> = (0..n).collect();
    let det = source_detection(
        g,
        &all,
        det_budget,
        sigma,
        Direction::Forward,
        latency,
        "σ-neighborhood source detection",
        &mut parts.ledger,
    );

    // Neighbors exchange their detected lists (entries carry (src, dist,
    // pred) ≈ 2 words each); receivers read `det` in place.
    charge_neighbor_exchange(
        g,
        |_| 2 * sigma as u64,
        "neighborhood list exchange",
        &mut parts.ledger,
    );

    // (a) Per-edge candidates among common detected sources.
    for e in g.edges() {
        let (x, y) = (e.u, e.v);
        let ylist = &det.lists[y];
        // `ylist` holds at most σ entries — a linear probe beats building
        // a per-edge hash map.
        for &(dx, v) in &det.lists[x] {
            let Some(&(dy, _)) = ylist.iter().find(|&&(_, s)| s == v) else {
                continue;
            };
            // Both tests are pure, so their order does not change which
            // candidates survive; the distance test is the cheap one.
            let cand = dx + e.weight + dy;
            if parts.best.weight().is_some_and(|b| cand >= b) {
                continue;
            }
            if det.pred(x, v) == Some(y) || det.pred(y, v) == Some(x) {
                continue; // tree-ish edge: degenerate closed walk
            }
            offer_closed_walk(g, &mut parts.best, &det, v, x, y, None);
        }
    }

    // (b) "Exactly one vertex outside": at z, combine two distinct
    // neighbors' detections of a common source v.
    // Per source: the two best (stretched dist + edge stretch, neighbor),
    // in a dense generation-stamped table (sources are node ids) so the
    // inner accumulation is an array index. Candidate sources are iterated
    // in sorted id order: the `cand >= b` pruning below depends on the
    // order offers improve `best`, so an unordered iteration would make
    // the *work done* (and with it the profiled allocator traffic, a
    // gated metric in the default configuration) nondeterministic even
    // though the final cycle weight is order-invariant.
    let mut two_best: Vec<[(Weight, NodeId); 2]> = vec![[(INF, usize::MAX); 2]; n];
    let mut stamp: Vec<usize> = vec![usize::MAX; n];
    let mut sources: Vec<NodeId> = Vec::new();
    let mut nbrs: Vec<(NodeId, EdgeId)> = Vec::new();
    for z in 0..n {
        sources.clear();
        nbrs.clear();
        nbrs.extend(g.out_adj(z).iter().map(|a| (a.to, a.edge)));
        nbrs.sort_unstable();
        for &(x, eid) in &nbrs {
            let ell = latency.map_or(1, |l| l[eid].max(1));
            for &(d, v) in &det.lists[x] {
                let key = d.saturating_add(ell);
                if stamp[v] != z {
                    stamp[v] = z;
                    two_best[v] = [(INF, usize::MAX); 2];
                    sources.push(v);
                }
                let slot = &mut two_best[v];
                if key < slot[0].0 {
                    if slot[0].1 != x {
                        slot[1] = slot[0];
                    }
                    slot[0] = (key, x);
                } else if key < slot[1].0 && slot[0].1 != x {
                    slot[1] = (key, x);
                }
            }
        }
        sources.sort_unstable();
        for &v in &sources {
            let [(d0, x), (d1, y)] = two_best[v];
            if d1 == INF || x == y {
                continue;
            }
            let cand = d0.saturating_add(d1);
            if parts.best.weight().is_some_and(|b| cand >= b) {
                continue;
            }
            offer_closed_walk(g, &mut parts.best, &det, v, x, y, Some(z));
        }
    }

    parts
}

/// Builds the closed walk `v → … → x (→ z) → y → … → v` from detection
/// predecessor chains, extracts a simple cycle from it, and offers its
/// real validated weight.
fn offer_closed_walk(
    g: &Graph,
    best: &mut BestCycle,
    det: &Detection,
    v: NodeId,
    x: NodeId,
    y: NodeId,
    via: Option<NodeId>,
) {
    let Some(px) = det.path_to_source(x, v) else {
        return;
    };
    let Some(py) = det.path_to_source(y, v) else {
        return;
    };
    let mut walk: Vec<NodeId> = px.into_iter().rev().collect(); // v … x
    if let Some(z) = via {
        walk.push(z);
    }
    walk.extend(py); // y … v
    if let Some(cyc) = extract_cycle_from_walk(&walk, 3) {
        best.offer_validated(g, cyc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, grid, ring_with_chords, WeightRange};
    use mwc_graph::seq;
    use mwc_graph::Orientation;

    // `2g − 1` = (2 − 1/g)·g, written the paper's way.
    #[allow(clippy::int_plus_one)]
    fn check_quality(g: &Graph, params: &Params) {
        let out = approx_girth(g, params);
        out.assert_valid(g);
        let oracle = seq::girth_exact(g).map(|m| m.weight);
        match (out.weight, oracle) {
            (None, None) => {}
            (Some(w), Some(girth)) => {
                assert!(w >= girth, "reported {w} < girth {girth}");
                assert!(
                    w <= 2 * girth - 1,
                    "reported {w} > (2 − 1/g)·g = {}",
                    2 * girth - 1
                );
            }
            (got, want) => panic!("cycle detection mismatch: got {got:?}, oracle {want:?}"),
        }
    }

    #[test]
    fn petersen_girth_found() {
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let mut g = Graph::undirected(10);
        for (u, v) in outer.iter().chain(&spokes).chain(&inner) {
            g.add_edge(*u, *v, 1).unwrap();
        }
        check_quality(&g, &Params::new().with_seed(2));
    }

    #[test]
    fn big_ring_found() {
        // One long cycle; must be found via the sampled part (exactly,
        // since samples lie on it).
        let g = ring_with_chords(100, 0, Orientation::Undirected, WeightRange::unit(), 0);
        let out = approx_girth(&g, &Params::new().with_seed(1));
        out.assert_valid(&g);
        assert_eq!(out.weight, Some(100));
    }

    #[test]
    fn grid_girth_within_factor() {
        let g = grid(8, 8, Orientation::Undirected, WeightRange::unit(), 0);
        check_quality(&g, &Params::new().with_seed(4));
    }

    #[test]
    fn random_graphs_within_factor() {
        for seed in 0..8 {
            let g = connected_gnm(60, 90, Orientation::Undirected, WeightRange::unit(), seed);
            check_quality(&g, &Params::new().with_seed(seed + 10));
        }
    }

    #[test]
    fn sparse_graphs_with_long_girth() {
        for seed in 0..6 {
            let g = ring_with_chords(80, 6, Orientation::Undirected, WeightRange::unit(), seed);
            check_quality(&g, &Params::new().with_seed(seed));
        }
    }

    #[test]
    fn forest_reports_none() {
        let mut g = Graph::undirected(10);
        for i in 1..10 {
            g.add_edge(i / 2, i, 1).unwrap();
        }
        let out = approx_girth(&g, &Params::new());
        out.assert_valid(&g);
        assert_eq!(out.weight, None);
    }

    #[test]
    fn triangle_is_exact() {
        // g = 3: (2 − 1/3)·3 = 5, but the neighborhood part must get 3.
        let mut g = ring_with_chords(30, 0, Orientation::Undirected, WeightRange::unit(), 0);
        g.add_edge(0, 2, 1).unwrap(); // creates a triangle 0,1,2
        let out = approx_girth(&g, &Params::new().with_seed(7));
        out.assert_valid(&g);
        assert_eq!(out.weight, Some(3));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = connected_gnm(50, 75, Orientation::Undirected, WeightRange::unit(), 3);
        let a = approx_girth(&g, &Params::new().with_seed(9));
        let b = approx_girth(&g, &Params::new().with_seed(9));
        assert_eq!(a.weight, b.weight);
        assert_eq!(a.ledger.rounds, b.ledger.rounds);
    }

    #[test]
    fn parts_ablation_both_needed_for_tight_factor() {
        // Neighborhood part alone finds contained short cycles exactly;
        // sampled part alone covers escaping/long cycles.
        let g = ring_with_chords(64, 0, Orientation::Undirected, WeightRange::unit(), 0);
        let p = Params::new().with_seed(3);
        // A 64-ring escapes every √64-neighborhood: the sampled part is
        // what finds it.
        let sampled = approx_girth_parts(&g, &p, true, false);
        assert_eq!(sampled.weight, Some(64));
        // The neighborhood part alone cannot see it (σ = 8 ≪ 64) —
        // outputs stay sound (None or a real cycle, never an underestimate).
        let nbhd = approx_girth_parts(&g, &p, false, true);
        assert!(nbhd.weight.is_none() || nbhd.weight == Some(64));

        // Conversely a triangle in a big sparse graph is the neighborhood
        // part's job to get *exactly*.
        let mut g2 = ring_with_chords(64, 0, Orientation::Undirected, WeightRange::unit(), 0);
        g2.add_edge(0, 2, 1).unwrap();
        let nbhd = approx_girth_parts(&g2, &p, false, true);
        assert_eq!(nbhd.weight, Some(3));
        // Full algorithm always at least as good as either part.
        let full = approx_girth(&g2, &p);
        assert_eq!(full.weight, Some(3));
    }

    #[test]
    #[should_panic(expected = "at least one candidate generator")]
    fn parts_ablation_rejects_neither() {
        let g = ring_with_chords(10, 0, Orientation::Undirected, WeightRange::unit(), 0);
        let _ = approx_girth_parts(&g, &Params::new(), false, false);
    }

    #[test]
    fn hop_limited_stretched_finds_short_cycles() {
        // Weighted ring + light triangle; stretched by weights, budget
        // covers the triangle (weight 3) but not the full ring.
        let mut g = Graph::undirected(24);
        for i in 0..24 {
            g.add_edge(i, (i + 1) % 24, 5).unwrap();
        }
        g.add_edge(0, 2, 1).unwrap();
        // Triangle 0-1-2 via edges 5+5+1 = 11 (stretched 11).
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let parts = hop_limited_girth(&g, &Params::new().with_seed(5), &lat, 30);
        let w = parts.best.weight().expect("triangle within budget");
        assert_eq!(w, 11);
    }
}

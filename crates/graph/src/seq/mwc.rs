//! Exact sequential minimum-weight-cycle oracles.
//!
//! - [`mwc_directed_exact`]: one Dijkstra per source `v`; for every edge
//!   `(u, v)` the cheapest cycle through it is `d(v, u) + w(u, v)`.
//! - [`mwc_undirected_exact`]: per-edge deletion; the cheapest cycle through
//!   edge `e = (x, y)` is `w(e) + d_{G−e}(x, y)`. Unconditionally correct.
//! - [`girth_exact`]: a sequential two-stage all-source BFS. Stage 1 finds
//!   the girth value with BFS runs cut at the best cycle seen so far;
//!   stage 2 rescans sources in id order with full BFS trees and returns
//!   the first (source, non-tree edge) whose BFS-tree LCA cycle has that
//!   length.
//!
//! All oracles return a validated [`CycleWitness`] so distributed results
//! can be compared both by value and by structure.
//!
//! # Pruning
//!
//! The two Dijkstra oracles keep the weight of the best cycle so far as
//! an upper bound `bound` on the answer. A per-source search stops before
//! settling a node farther than `bound`, and a per-edge search stops at
//! `y` or beyond `bound − w(e)`: past that, no candidate can reach
//! `bound`. The cutoff is strict, so a candidate *equal* to the bound —
//! every tie with the best so far — still settles the same nodes with
//! the same parents as an unpruned search. The best is replaced only on
//! *strict* improvement, so each oracle returns the first item (in
//! iteration order) attaining the minimum, exactly as an unpruned scan.

use crate::graph::{Graph, NodeId, Weight};
use crate::seq::paths::{
    bfs, dijkstra_bounded, extract_path, Direction, HopDistTree, HOP_INF, INF,
};
use crate::witness::CycleWitness;

/// A minimum weight cycle: its weight and a witness vertex sequence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mwc {
    /// Total weight of the cycle (equals hop length for unit weights).
    pub weight: Weight,
    /// The cycle itself.
    pub witness: CycleWitness,
}

/// Exact MWC of a directed graph, or `None` if the graph is acyclic.
///
/// Runs Dijkstra from every node (`O(n · (m + n log n))`). A cycle through
/// edge `(u, v)` of minimal weight is a shortest `v → u` path plus the edge.
/// Each search stops beyond the lightest cycle found by earlier sources.
///
/// # Examples
///
/// ```
/// use mwc_graph::{Graph, Orientation};
/// use mwc_graph::seq::mwc_directed_exact;
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// let g = Graph::from_edges(4, Orientation::Directed,
///     [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 0, 1)])?;
/// let mwc = mwc_directed_exact(&g).expect("graph has a cycle");
/// assert_eq!(mwc.weight, 3);
/// # Ok(())
/// # }
/// ```
pub fn mwc_directed_exact(g: &Graph) -> Option<Mwc> {
    assert!(
        g.is_directed(),
        "mwc_directed_exact requires a directed graph"
    );
    let mut best: Option<Mwc> = None;
    for v in 0..g.n() {
        // Every candidate from source `v` is `d(v, u) + w ≥ d(v, u)`, so
        // nodes farther than the best cycle so far cannot yield a better one.
        let bound = best.as_ref().map_or(INF, |b| b.weight);
        let t = dijkstra_bounded(g, v, Direction::Forward, None, None, bound);
        for a in g.in_adj(v) {
            let u = a.to;
            if t.dist[u] == INF {
                continue;
            }
            let cand = t.dist[u] + a.weight;
            if best.as_ref().is_none_or(|b| cand < b.weight) {
                let path = extract_path(&t.parent, v, u)
                    .expect("u is reachable so the parent chain exists");
                best = Some(Mwc {
                    weight: cand,
                    witness: CycleWitness::new(path),
                });
            }
        }
    }
    debug_assert!(best
        .as_ref()
        .is_none_or(|b| b.witness.validate(g) == Ok(b.weight)));
    best
}

/// Exact MWC of an undirected graph, or `None` if the graph is a forest.
///
/// For every edge `e = (x, y)` computes `w(e) + d_{G−e}(x, y)` with a
/// Dijkstra that skips `e`; the minimum over edges is the MWC. Each search
/// stops at `y` or beyond `bound − w(e)`, where `bound` is the best
/// candidate so far; edges heavier than `bound` are skipped outright.
pub fn mwc_undirected_exact(g: &Graph) -> Option<Mwc> {
    assert!(
        !g.is_directed(),
        "mwc_undirected_exact requires an undirected graph"
    );
    let mut best: Option<Mwc> = None;
    for (eid, e) in g.edges().iter().enumerate() {
        // Every candidate satisfies `cand ≥ e.weight`, so an edge heavier
        // than the best so far cannot win.
        let bound = best.as_ref().map_or(INF, |b| b.weight);
        if e.weight > bound {
            continue;
        }
        let cutoff = bound.saturating_sub(e.weight);
        let t = dijkstra_bounded(g, e.u, Direction::Forward, Some(eid), Some(e.v), cutoff);
        if t.dist[e.v] == INF {
            continue;
        }
        let cand = e.weight + t.dist[e.v];
        if best.as_ref().is_none_or(|b| cand < b.weight) {
            let path = extract_path(&t.parent, e.u, e.v)
                .expect("e.v is reachable so the parent chain exists");
            // path = x … y; closing edge (y, x) is e itself.
            best = Some(Mwc {
                weight: cand,
                witness: CycleWitness::new(path),
            });
        }
    }
    debug_assert!(best
        .as_ref()
        .is_none_or(|b| b.witness.validate(g) == Ok(b.weight)));
    best
}

/// Exact girth (shortest cycle *hop length*) of an undirected graph via
/// all-source BFS, or `None` if the graph is a forest.
///
/// Edge weights are ignored; for unit-weight graphs the girth equals the
/// MWC weight. This is the `O(nm)` classical method: from each source the
/// BFS-tree LCA of every non-tree edge's endpoints yields a real simple
/// cycle, and for a source on a shortest cycle the antipodal edge yields
/// the girth exactly. The witness is that of the first source (in id
/// order) and, within it, the first non-tree edge (in edge order) whose
/// cycle is a shortest one.
///
/// Runs in two stages: `girth_value` finds the girth `g` with pruned
/// BFS runs, then sources are rescanned in id order until a non-tree edge
/// closes a cycle of length `g`. Every candidate is at least `g`, so that
/// first hit is exactly the first minimum an exhaustive scan would keep.
pub fn girth_exact(g: &Graph) -> Option<Mwc> {
    assert!(!g.is_directed(), "girth_exact requires an undirected graph");
    let girth = girth_value(g)?;
    let best = (0..g.n()).find_map(|s| {
        let t = bfs(g, s, Direction::Forward);
        g.edges().iter().find_map(|e| {
            let (u, v) = (e.u, e.v);
            if t.dist[u] == HOP_INF || t.dist[v] == HOP_INF {
                return None;
            }
            // Skip BFS-tree edges: they close no cycle from this source.
            if t.parent[u] == Some(v) || t.parent[v] == Some(u) {
                return None;
            }
            let z = tree_lca(&t, u, v);
            if t.dist[u] + t.dist[v] + 1 - 2 * t.dist[z] != girth {
                return None;
            }
            // Cycle: z … u, then v back up to (excluding) z — the two tree
            // paths diverge at z and never rejoin.
            let mut cyc = extract_path(&t.parent, z, u).expect("z is an ancestor of u");
            let pv = extract_path(&t.parent, z, v).expect("z is an ancestor of v");
            cyc.extend(pv[1..].iter().rev());
            Some(Mwc {
                weight: girth as Weight,
                witness: CycleWitness::new(cyc),
            })
        })
    });
    debug_assert!(best.as_ref().is_some_and(|b| {
        b.witness.validate(g).is_ok() && b.witness.hop_len() as Weight == b.weight
    }));
    best
}

/// The girth as a hop count, or `None` for a forest: BFS from every
/// source, sharing one set of buffers.
///
/// A non-tree edge `(u, v)` seen from a source closes a walk of
/// `dist[u] + dist[v] + 1` hops, which contains a cycle at most that long;
/// from a source on a shortest cycle, the edge antipodal to it closes a
/// walk of exactly the girth. When a node at depth `d` is dequeued, every
/// walk still to be found is at least `2d` long, so the search stops once
/// `2d ≥ best`. Nothing beats a triangle, so 3 ends the scan.
fn girth_value(g: &Graph) -> Option<usize> {
    let n = g.n();
    let mut dist = vec![HOP_INF; n];
    let mut parent = vec![NodeId::MAX; n];
    let mut queue: Vec<NodeId> = Vec::with_capacity(n);
    let mut best = HOP_INF;
    for s in 0..n {
        if best == 3 {
            break;
        }
        dist[s] = 0;
        parent[s] = NodeId::MAX;
        queue.push(s);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = dist[u];
            if 2 * du >= best {
                break;
            }
            for a in g.out_adj(u) {
                if dist[a.to] == HOP_INF {
                    dist[a.to] = du + 1;
                    parent[a.to] = u;
                    queue.push(a.to);
                } else if a.to != parent[u] {
                    best = best.min(du + dist[a.to] + 1);
                }
            }
        }
        for &v in &queue {
            dist[v] = HOP_INF;
        }
        queue.clear();
    }
    (best != HOP_INF).then_some(best)
}

/// Lowest common ancestor of `u` and `v` in a BFS tree, by parent walk.
fn tree_lca(t: &HopDistTree, mut u: NodeId, mut v: NodeId) -> NodeId {
    let up = |x: NodeId| t.parent[x].expect("reached nodes have a parent chain");
    while t.dist[u] > t.dist[v] {
        u = up(u);
    }
    while t.dist[v] > t.dist[u] {
        v = up(v);
    }
    while u != v {
        u = up(u);
        v = up(v);
    }
    u
}

/// Exact MWC for any graph, dispatching to the cheapest applicable oracle:
/// [`mwc_directed_exact`] for directed graphs, [`girth_exact`] for
/// unit-weight undirected graphs, [`mwc_undirected_exact`] otherwise.
pub fn mwc_exact(g: &Graph) -> Option<Mwc> {
    if g.is_directed() {
        mwc_directed_exact(g)
    } else if g.is_unit_weight() {
        girth_exact(g)
    } else {
        mwc_undirected_exact(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{connected_gnm, planted_cycle, ring_with_chords, WeightRange};
    use crate::graph::Orientation;
    use mwc_rng::proptest_lite::Config;
    use mwc_rng::{prop_assert_eq, prop_tests};

    /// Brute-force MWC by DFS enumeration of simple cycles; only usable for
    /// tiny graphs, used as an independent ground truth.
    fn brute_force_mwc(g: &Graph) -> Option<Weight> {
        let mut best: Option<Weight> = None;
        let n = g.n();
        // Enumerate cycles whose minimum vertex is `start` to avoid
        // counting rotations; for undirected graphs each cycle is seen in
        // both orientations, which is harmless for a minimum.
        fn dfs(
            g: &Graph,
            start: NodeId,
            u: NodeId,
            weight: Weight,
            visited: &mut Vec<bool>,
            depth: usize,
            best: &mut Option<Weight>,
        ) {
            for a in g.out_adj(u) {
                if a.to == start {
                    // Simple graphs: a closure of `depth` vertices reuses no
                    // edge as long as depth ≥ 3 (undirected) / 2 (directed).
                    let min_len = if g.is_directed() { 2 } else { 3 };
                    if depth >= min_len {
                        let w = weight + a.weight;
                        if best.is_none() || w < best.unwrap() {
                            *best = Some(w);
                        }
                    }
                    continue;
                }
                if a.to < start || visited[a.to] {
                    continue;
                }
                visited[a.to] = true;
                dfs(g, start, a.to, weight + a.weight, visited, depth + 1, best);
                visited[a.to] = false;
            }
        }
        for start in 0..n {
            let mut visited = vec![false; n];
            visited[start] = true;
            dfs(g, start, start, 0, &mut visited, 1, &mut best);
        }
        best
    }

    #[test]
    fn directed_triangle() {
        let g =
            Graph::from_edges(3, Orientation::Directed, [(0, 1, 2), (1, 2, 3), (2, 0, 4)]).unwrap();
        let m = mwc_directed_exact(&g).unwrap();
        assert_eq!(m.weight, 9);
        assert_eq!(m.witness.validate(&g), Ok(9));
    }

    #[test]
    fn directed_two_cycle_beats_triangle() {
        let g = Graph::from_edges(
            3,
            Orientation::Directed,
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 0, 1)],
        )
        .unwrap();
        assert_eq!(mwc_directed_exact(&g).unwrap().weight, 2);
    }

    #[test]
    fn directed_acyclic_is_none() {
        let g =
            Graph::from_edges(4, Orientation::Directed, [(0, 1, 1), (0, 2, 1), (1, 3, 1)]).unwrap();
        assert!(mwc_directed_exact(&g).is_none());
    }

    #[test]
    fn undirected_weighted_square_vs_heavy_diagonal() {
        // Square of weight 4 with a heavy chord: MWC is a triangle using
        // the chord only if the chord is light enough.
        let g = Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)],
        )
        .unwrap();
        let m = mwc_undirected_exact(&g).unwrap();
        assert_eq!(m.weight, 4);
        assert_eq!(m.witness.hop_len(), 4);
    }

    #[test]
    fn undirected_forest_is_none() {
        let g = Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 1), (1, 3, 1)],
        )
        .unwrap();
        assert!(mwc_undirected_exact(&g).is_none());
        assert!(girth_exact(&g).is_none());
    }

    #[test]
    fn girth_of_ring() {
        let g = ring_with_chords(9, 0, Orientation::Undirected, WeightRange::unit(), 0);
        assert_eq!(girth_exact(&g).unwrap().weight, 9);
    }

    #[test]
    fn girth_petersen() {
        // The Petersen graph has girth 5.
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let mut g = Graph::undirected(10);
        for (u, v) in outer.iter().chain(&spokes).chain(&inner) {
            g.add_edge(*u, *v, 1).unwrap();
        }
        let m = girth_exact(&g).unwrap();
        assert_eq!(m.weight, 5);
        assert_eq!(m.witness.validate(&g), Ok(5));
    }

    #[test]
    fn planted_cycle_found_by_all_oracles() {
        let (g, _) = planted_cycle(
            30,
            40,
            4,
            1,
            Orientation::Undirected,
            WeightRange::uniform(40, 80),
            5,
        );
        assert_eq!(mwc_undirected_exact(&g).unwrap().weight, 4);
        assert_eq!(mwc_exact(&g).unwrap().weight, 4);
    }

    #[test]
    fn girth_matches_per_edge_deletion_on_unit_weights() {
        for seed in 0..8 {
            let g = connected_gnm(24, 30, Orientation::Undirected, WeightRange::unit(), seed);
            let a = girth_exact(&g).map(|m| m.weight);
            let b = mwc_undirected_exact(&g).map(|m| m.weight);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn dispatcher_picks_matching_oracle() {
        let d = ring_with_chords(6, 0, Orientation::Directed, WeightRange::unit(), 0);
        assert_eq!(mwc_exact(&d).unwrap().weight, 6);
        let u = ring_with_chords(6, 0, Orientation::Undirected, WeightRange::uniform(2, 2), 0);
        assert_eq!(mwc_exact(&u).unwrap().weight, 12);
    }

    prop_tests! {
        config = Config::with_cases(64);

        fn directed_oracle_matches_brute_force(seed in 0u64..500, n in 4usize..8, extra in 0usize..10) {
            let g = connected_gnm(n, extra, Orientation::Directed, WeightRange::uniform(1, 9), seed);
            let oracle = mwc_directed_exact(&g).map(|m| m.weight);
            let brute = brute_force_mwc(&g);
            prop_assert_eq!(oracle, brute);
        }

        fn undirected_oracle_matches_brute_force(seed in 0u64..500, n in 4usize..8, extra in 0usize..10) {
            let g = connected_gnm(n, extra, Orientation::Undirected, WeightRange::uniform(1, 9), seed);
            let oracle = mwc_undirected_exact(&g).map(|m| m.weight);
            let brute = brute_force_mwc(&g);
            prop_assert_eq!(oracle, brute);
        }

        fn witnesses_always_validate(seed in 0u64..200, n in 4usize..12, extra in 0usize..16) {
            let g = connected_gnm(n, extra, Orientation::Directed, WeightRange::uniform(1, 9), seed);
            if let Some(m) = mwc_directed_exact(&g) {
                prop_assert_eq!(m.witness.validate(&g), Ok(m.weight));
            }
            let u = connected_gnm(n, extra, Orientation::Undirected, WeightRange::uniform(1, 9), seed);
            if let Some(m) = mwc_undirected_exact(&u) {
                prop_assert_eq!(m.witness.validate(&u), Ok(m.weight));
            }
        }
    }
}

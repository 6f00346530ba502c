//! Bounded-length cycle detection.
//!
//! The paper's directed lower bound has a striking corollary (§1.3):
//! deciding whether a directed graph contains a cycle of length `q` takes
//! `Ω̃(n)` rounds for **any** `q ≥ 4` — even though triangle detection
//! (`q = 3`) is solvable in `Õ(n^{1/3})` rounds \[12, 45\]. This module
//! implements the natural upper bound the corollary is contrasted
//! against: a pipelined all-source `q`-hop BFS that finds the shortest
//! cycle of hop length ≤ `q`, in `O(n + q)` rounds worst case.
//!
//! On benign inputs the pipelining makes this *much* cheaper than `n`
//! (few sources reach any node within `q` hops), while on the
//! lower-bound gadgets of the `mwc-lowerbounds` crate the congestion — every
//! node lies within `q` hops of `Θ(n)` others — drives it to `Θ(n)`
//! rounds, matching the Ω̃(n) bound's intuition. The tests exercise both
//! regimes.

use crate::exchange::{charge_neighbor_exchange, lca_cycle};
use crate::outcome::{BestCycle, MwcOutcome};
use crate::util::simplify_path;
use mwc_congest::{convergecast_min, multi_source_bfs, BfsTree, Ledger, MultiBfsSpec, INF};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};
use std::borrow::Cow;

/// Finds the shortest cycle of **hop length at most `q`** (treating the
/// graph as unweighted), or reports that none exists, in `O(n + q)`
/// rounds worst case — often far less on sparse graphs, where few
/// sources reach any node within `q` hops.
///
/// Works on directed and undirected graphs. The reported weight is the
/// cycle's hop count; a witness is attached. Every node learns the
/// result (final convergecast).
///
/// # Panics
///
/// Panics if `q < 2` (directed) / `q < 3` (undirected), or if the
/// communication topology is disconnected.
///
/// # Examples
///
/// ```
/// use mwc_core::detection::shortest_cycle_within;
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// let g = Graph::from_edges(5, Orientation::Directed,
///     [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1), (2, 0, 1)])?;
/// // Triangle 0→1→2→0 found with q = 3; nothing shorter.
/// let out = shortest_cycle_within(&g, 3);
/// assert_eq!(out.weight, Some(3));
/// assert_eq!(shortest_cycle_within(&g, 2).weight, None);
/// # Ok(())
/// # }
/// ```
pub fn shortest_cycle_within(g: &Graph, q: u64) -> MwcOutcome {
    let _span = mwc_trace::span("detect/cycle-within");
    let min_len = if g.is_directed() { 2 } else { 3 };
    assert!(q >= min_len, "q must allow a simple cycle (≥ {min_len})");
    let n = g.n();
    let mut ledger = Ledger::new();
    let mut best = BestCycle::new();
    if n == 0 {
        return best.into_outcome(ledger);
    }

    // q−1-hop BFS from every node; a cycle of length ℓ ≤ q through v is
    // caught at the node u preceding v on it: d(v, u) = ℓ − 1 and the
    // closing edge (u, v) exists.
    let sources: Vec<NodeId> = (0..n).collect();
    let spec = MultiBfsSpec {
        max_dist: q - 1,
        direction: Direction::Forward,
        latency: None,
    };
    let mat = multi_source_bfs(g, &sources, &spec, "all-source q-hop BFS", &mut ledger);

    let mut local_best = vec![INF; n];
    // Witnesses are validated by hop count.
    let hops: Cow<Graph> = if g.is_unit_weight() {
        Cow::Borrowed(g)
    } else {
        Cow::Owned(g.map_weights(|_| 1))
    };
    if g.is_directed() {
        // Exact: a ≤q cycle through edge (u, v) is a shortest v→u path of
        // ≤ q−1 hops plus the edge.
        for u in 0..n {
            for a in g.out_adj(u) {
                let v = a.to;
                let d = mat.get_row(v, u);
                if d == INF {
                    continue;
                }
                let cand = d + 1;
                local_best[u] = local_best[u].min(cand);
                if best.weight().is_none_or(|b| cand < b) {
                    if let Some(path) = mat.path_from_source(v, u) {
                        let cyc = simplify_path(path);
                        if cyc.len() as u64 >= min_len && cyc[0] == v {
                            best.offer_validated(&hops, cyc);
                        }
                    }
                }
            }
        }
    } else {
        // Undirected: girth-style non-tree-edge candidates. Nodes exchange
        // their *detected* (source, dist, pred) entries with neighbors —
        // message size proportional to how many sources reached them, so
        // sparse instances stay cheap on the links — and each edge
        // endpoint reads the other's entries in place. A node's entries
        // are its contiguous `DistMatrix` column, so one pass over both
        // endpoints' columns finds their common sources in ascending
        // order: `O(m·n)` host work, the order of the n × n matrix the
        // all-source BFS already filled, and no allocation.
        let detected = |v: NodeId| (0..n).filter(|&s| mat.get_row(s, v) != INF).count();
        charge_neighbor_exchange(
            g,
            |v| (2 * detected(v) as u64).max(1),
            "detected-entry exchange",
            &mut ledger,
        );

        for e in g.edges() {
            let (x, y) = (e.u, e.v);
            for s in 0..n {
                let (dx, dy) = (mat.get_row(s, x), mat.get_row(s, y));
                if dx == INF || dy == INF {
                    continue;
                }
                // Cheap distance test first; every test here is pure, so
                // the order does not change which candidates survive.
                let cand = dx + dy + 1;
                if cand > q || best.weight().is_some_and(|b| cand >= b) {
                    continue;
                }
                if mat.pred_row(s, x) == Some(y) || mat.pred_row(s, y) == Some(x) {
                    continue; // BFS-tree edge: no cycle
                }
                if let Some(cyc) = lca_cycle(&mat, s, x, y) {
                    if cyc.len() as u64 <= q {
                        local_best[x] = local_best[x].min(cyc.len() as Weight);
                        best.offer_validated(&hops, cyc);
                    }
                }
            }
        }
    }

    let tree = BfsTree::build(g, 0, &mut ledger);
    let _ = convergecast_min(g, &tree, local_best, &mut ledger);
    mwc_trace::check_bound(
        "core/shortest_cycle_within",
        mwc_trace::BoundInputs::n(n)
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .h(q)
            .k(n as u64),
        ledger.rounds,
        crate::bounds::detection,
    );
    best.into_outcome(ledger)
}

/// `true` iff the graph contains a cycle of hop length at most `q`.
/// Convenience wrapper over [`shortest_cycle_within`].
pub fn has_cycle_within(g: &Graph, q: u64) -> bool {
    shortest_cycle_within(g, q).weight.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, ring_with_chords, WeightRange};
    use mwc_graph::seq;
    use mwc_graph::Orientation;

    #[test]
    fn finds_exactly_the_q_bounded_girth() {
        for seed in 0..5 {
            let g = connected_gnm(40, 90, Orientation::Directed, WeightRange::unit(), seed);
            let girth = seq::mwc_directed_exact(&g).map(|m| m.weight);
            for q in 2..8 {
                let out = shortest_cycle_within(&g, q);
                out.assert_valid(&g.map_weights(|_| 1));
                match girth {
                    Some(girth) if girth <= q => assert_eq!(out.weight, Some(girth)),
                    _ => assert_eq!(out.weight, None, "q={q} girth={girth:?}"),
                }
            }
        }
    }

    #[test]
    fn undirected_ignores_degenerate_two_walks() {
        let g = ring_with_chords(12, 0, Orientation::Undirected, WeightRange::unit(), 0);
        assert_eq!(shortest_cycle_within(&g, 11).weight, None);
        assert_eq!(shortest_cycle_within(&g, 12).weight, Some(12));
    }

    #[test]
    fn weighted_graphs_count_hops() {
        let g = Graph::from_edges(
            3,
            Orientation::Directed,
            [(0, 1, 50), (1, 2, 60), (2, 0, 70)],
        )
        .unwrap();
        let out = shortest_cycle_within(&g, 3);
        assert_eq!(out.weight, Some(3), "hop length, not weight");
    }

    #[test]
    fn detection_is_cheap_on_sparse_graphs() {
        // Few sources within q hops of any node ⇒ the BFS part is ≪ n
        // rounds; the convergecast's +D term dominates on a ring.
        let g = ring_with_chords(400, 10, Orientation::Directed, WeightRange::unit(), 3);
        let out = shortest_cycle_within(&g, 4);
        let d = g.undirected_diameter().unwrap() as u64;
        assert!(
            out.ledger.rounds < 4 * d + 60,
            "sparse q-cycle detection should cost ~D, not ~n: {} rounds (D = {d})",
            out.ledger.rounds
        );
    }

    #[test]
    fn detection_is_expensive_on_the_lower_bound_gadget_shape() {
        // A dense bipartite-ish core: each node within 4 hops of Θ(n)
        // others ⇒ congestion forces Θ(n) rounds, the Ω̃(n) intuition.
        let g = connected_gnm(300, 3000, Orientation::Directed, WeightRange::unit(), 9);
        let out = shortest_cycle_within(&g, 4);
        assert!(
            out.ledger.rounds > 100,
            "dense q-cycle detection should congest: {} rounds",
            out.ledger.rounds
        );
    }

    #[test]
    fn has_cycle_wrapper() {
        let mut g = Graph::directed(6);
        for i in 0..5 {
            g.add_edge(i, i + 1, 1).unwrap();
        }
        assert!(!has_cycle_within(&g, 5));
        g.add_edge(5, 0, 1).unwrap();
        assert!(has_cycle_within(&g, 6));
        assert!(!has_cycle_within(&g, 5));
    }
}

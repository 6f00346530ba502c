//! Single-source shortest paths and the small-`k` strategies of Theorem
//! 1.6.
//!
//! Theorem 1.6.A's bound for `k < n^{1/3}` sources is a *minimum* of two
//! strategies: the skeleton pipeline with `h = √(nk)` (`Õ(n/k + √(nk) +
//! D)`) and simply repeating single-source computations
//! (`k · SSSP`). This module provides the following; every exact one
//! returns a [`KSourceDistances`] (with `k = 1` for a single source):
//!
//! - [`sssp_bfs`]: single-source BFS in `O(ecc(src)) ≤ O(D)` rounds;
//! - [`sssp_exact_weighted`]: exact weighted SSSP via a stretched BFS
//!   (waves at weight-speed), `O(max distance)` rounds — the simple
//!   baseline the paper's `SSSP` term refers to, for bounded weights;
//! - [`k_source_bfs_repeated`]: `k` sequential single-source BFS runs,
//!   `O(k·D)` rounds;
//! - [`k_source_bfs_auto`]: picks between the skeleton pipeline and
//!   repetition with the paper's `min(·,·)` rule, instantiated with the
//!   measured diameter.

use crate::ksssp::{k_source_bfs, KSourceDistances};
use crate::params::Params;
use mwc_congest::{multi_source_bfs, DistMatrix, Ledger, MultiBfsSpec, PhaseCache, INF};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};

/// Single-source BFS (hop distances) in `O(ecc(src)) ≤ O(D)` rounds.
///
/// # Examples
///
/// ```
/// use mwc_core::sssp::sssp_bfs;
/// use mwc_graph::{Graph, Orientation};
/// use mwc_graph::seq::Direction;
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// let g = Graph::from_edges(3, Orientation::Directed, [(0, 1, 1), (1, 2, 1)])?;
/// let out = sssp_bfs(&g, 0, Direction::Forward);
/// assert_eq!(out.get_row(0, 2), 2);
/// assert!(out.ledger.rounds <= 3);
/// # Ok(())
/// # }
/// ```
pub fn sssp_bfs(g: &Graph, src: NodeId, direction: Direction) -> KSourceDistances {
    let _span = mwc_trace::span("sssp/bfs");
    let mut ledger = Ledger::new();
    let spec = MultiBfsSpec {
        max_dist: INF,
        direction,
        latency: None,
    };
    let mat = multi_source_bfs(g, &[src], &spec, "single-source BFS", &mut ledger);
    mwc_trace::check_bound(
        "core/sssp_bfs",
        mwc_trace::BoundInputs::n(g.n())
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .h(mwc_congest::bounds::effective_hops(g.n(), INF, None, g.m()))
            .k(1),
        ledger.rounds,
        crate::bounds::apsp,
    );
    KSourceDistances::from_direct(vec![src], mat, ledger)
}

/// Exact weighted SSSP via a stretched BFS: distances are exact because
/// waves travel at weight-speed; rounds are `O(max reachable distance)`,
/// near-`D·W` for bounded weights. This is the simple exact baseline
/// behind the paper's `k·SSSP` term (its sharper `SSSP` bound \[9\] is a
/// documented substitution, DESIGN.md §2).
pub fn sssp_exact_weighted(g: &Graph, src: NodeId, direction: Direction) -> KSourceDistances {
    let _span = mwc_trace::span("sssp/exact-weighted");
    let mut ledger = Ledger::new();
    let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
    let spec = MultiBfsSpec {
        max_dist: INF,
        direction,
        latency: Some(&lat),
    };
    let mat = multi_source_bfs(g, &[src], &spec, "stretched exact SSSP", &mut ledger);
    mwc_trace::check_bound(
        "core/sssp_exact_weighted",
        mwc_trace::BoundInputs::n(g.n())
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .h(mwc_congest::bounds::effective_hops(
                g.n(),
                INF,
                Some(&lat),
                g.m(),
            ))
            .k(1),
        ledger.rounds,
        crate::bounds::apsp,
    );
    KSourceDistances::from_direct(vec![src], mat, ledger)
}

/// `(1+ε)`-approximate weighted SSSP from a single source — Theorem
/// 1.6.B specialized to `k = 1` (a thin wrapper over
/// [`k_source_approx_sssp`](crate::k_source_approx_sssp)).
///
/// # Panics
///
/// Panics on zero edge weights or a disconnected communication topology.
pub fn sssp_approx(
    g: &Graph,
    src: NodeId,
    direction: Direction,
    params: &Params,
) -> crate::KSourceApproxSssp {
    let _span = mwc_trace::span("sssp/approx");
    crate::k_source_approx_sssp(g, &[src], direction, params)
}

/// `k`-source BFS by sequential repetition: `k` single-source runs, one
/// after another, `O(k·D)` rounds total. The winning strategy of Theorem
/// 1.6.A when `k` is small and `D` is small.
pub fn k_source_bfs_repeated(
    g: &Graph,
    sources: &[NodeId],
    direction: Direction,
) -> KSourceDistances {
    let _span = mwc_trace::span("ksssp/repeated");
    let mut ledger = Ledger::new();
    let mut combined = DistMatrix::new(g.n(), sources.to_vec());
    for (row, &s) in sources.iter().enumerate() {
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction,
            latency: None,
        };
        let mat = multi_source_bfs(g, &[s], &spec, &format!("BFS from source {s}"), &mut ledger);
        for v in 0..g.n() {
            let d = mat.get_row(0, v);
            if d != INF {
                combined.set_row(row, v, d, mat.pred_row(0, v));
            }
        }
    }
    mwc_trace::check_bound(
        "core/k_source_bfs_repeated",
        mwc_trace::BoundInputs::n(g.n())
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .k(sources.len() as u64),
        ledger.rounds,
        crate::bounds::ksssp_repeated,
    );
    KSourceDistances::from_direct(sources.to_vec(), combined, ledger)
}

/// Which strategy [`k_source_bfs_auto`] chose.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KSourceStrategy {
    /// The skeleton pipeline of Algorithm 1 (`Õ(n/k + √(nk) + D)`).
    Skeleton,
    /// `k` sequential single-source runs (`O(k·D)`).
    Repeated,
}

/// Theorem 1.6.A over the whole range of `k`: picks the cheaper of the
/// skeleton pipeline and `k`-fold repetition using the paper's
/// `min(Õ(n/k + √(nk) + D), k·SSSP)` rule, instantiated with the actual
/// diameter (computed distributively by a BFS-tree build, whose `O(D)`
/// cost is charged).
///
/// Returns the distances, the chosen strategy, and the total ledger. The
/// probe's tree is built through the [`PhaseCache`], so the skeleton
/// pipeline reuses it instead of charging it again; a
/// [`Direction::Reverse`] run on a directed graph builds its tree on the
/// reversed graph, which the probe does not cover.
pub fn k_source_bfs_auto(
    g: &Graph,
    sources: &[NodeId],
    direction: Direction,
    params: &Params,
) -> (KSourceDistances, KSourceStrategy) {
    let _span = mwc_trace::span("ksssp/auto");
    let _cache = PhaseCache::scope();
    let n = g.n().max(2) as f64;
    let k = sources.len().max(1) as f64;
    // Estimate D via a BFS-tree from node 0 (height ≤ D ≤ 2·height).
    let mut probe_ledger = Ledger::new();
    let tree = PhaseCache::bfs_tree(g, 0, &mut probe_ledger);
    let d_est = (2 * tree.height).max(1) as f64;

    // Cost model with the preset's actual sampling constant: |S| ≈
    // c·ln n·√(n/k), so the skeleton pays ≈ |S|² + |S|·√(nk)-ish plus D.
    let c = params.sampling_factor * n.ln();
    let skeleton_est = c * c * n / k + c * (n * k).sqrt() + d_est;
    let repeated_est = k * d_est;

    if repeated_est <= skeleton_est {
        let mut out = k_source_bfs_repeated(g, sources, direction);
        out.ledger.merge(&probe_ledger);
        (out, KSourceStrategy::Repeated)
    } else {
        let mut out = k_source_bfs(g, sources, direction, params);
        out.ledger.merge(&probe_ledger);
        (out, KSourceStrategy::Skeleton)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, ring_with_chords, WeightRange};
    use mwc_graph::seq::{bfs, dijkstra, HOP_INF, INF as SEQ_INF};
    use mwc_graph::Orientation;

    #[test]
    fn single_source_bfs_exact_and_cheap() {
        let g = connected_gnm(80, 160, Orientation::Directed, WeightRange::unit(), 3);
        let out = sssp_bfs(&g, 5, Direction::Forward);
        let t = bfs(&g, 5, Direction::Forward);
        for v in 0..g.n() {
            let expect = if t.dist[v] == HOP_INF {
                INF
            } else {
                t.dist[v] as Weight
            };
            assert_eq!(out.get_row(0, v), expect);
        }
        // One BFS costs about the eccentricity, far below n.
        assert!(out.ledger.rounds < 80);
    }

    #[test]
    fn exact_weighted_sssp_matches_dijkstra() {
        let g = connected_gnm(
            60,
            140,
            Orientation::Directed,
            WeightRange::uniform(1, 9),
            8,
        );
        let out = sssp_exact_weighted(&g, 0, Direction::Forward);
        let t = dijkstra(&g, 0, Direction::Forward);
        for v in 0..g.n() {
            let expect = if t.dist[v] == SEQ_INF { INF } else { t.dist[v] };
            assert_eq!(out.get_row(0, v), expect, "node {v}");
        }
        // Paths are real.
        for v in 0..g.n() {
            if out.get_row(0, v) != INF && v != 0 {
                let p = out.path_row(0, v).expect("reachable");
                for w in p.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn single_source_approx_wrapper() {
        let g = connected_gnm(
            50,
            110,
            Orientation::Directed,
            WeightRange::uniform(1, 9),
            2,
        );
        let out = sssp_approx(&g, 7, Direction::Forward, &Params::new().with_seed(1));
        let t = dijkstra(&g, 7, Direction::Forward);
        for v in 0..g.n() {
            if t.dist[v] == SEQ_INF {
                assert_eq!(out.get_row(0, v), INF);
            } else {
                let est = out.get_row(0, v);
                assert!(est >= t.dist[v]);
                assert!(est as f64 <= 1.25 * t.dist[v] as f64 + 4.0);
            }
        }
    }

    #[test]
    fn repeated_matches_skeleton() {
        let g = connected_gnm(70, 150, Orientation::Directed, WeightRange::unit(), 4);
        let sources = [0, 9, 33];
        let rep = k_source_bfs_repeated(&g, &sources, Direction::Forward);
        let sk = k_source_bfs(
            &g,
            &sources,
            Direction::Forward,
            &Params::new().with_seed(2),
        );
        for (row, _) in sources.iter().enumerate() {
            for v in 0..g.n() {
                assert_eq!(rep.get_row(row, v), sk.get_row(row, v));
            }
        }
        assert!(rep.ledger.rounds > 0);
    }

    #[test]
    fn auto_picks_repetition_for_tiny_k_small_d() {
        // Dense graph: D small, k tiny ⇒ repetition wins.
        let g = connected_gnm(200, 1200, Orientation::Directed, WeightRange::unit(), 6);
        let (out, strat) = k_source_bfs_auto(&g, &[0, 50], Direction::Forward, &Params::lean());
        assert_eq!(strat, KSourceStrategy::Repeated);
        let t = bfs(&g, 0, Direction::Forward);
        for v in 0..g.n() {
            let expect = if t.dist[v] == HOP_INF {
                INF
            } else {
                t.dist[v] as Weight
            };
            assert_eq!(out.get_row(0, v), expect);
        }
    }

    #[test]
    fn auto_picks_skeleton_for_large_k() {
        let g = connected_gnm(200, 600, Orientation::Directed, WeightRange::unit(), 7);
        let sources: Vec<NodeId> = (0..100).map(|i| i * 2).collect();
        let (out, strat) = k_source_bfs_auto(&g, &sources, Direction::Forward, &Params::lean());
        assert_eq!(strat, KSourceStrategy::Skeleton);
        let t = bfs(&g, 4, Direction::Forward);
        for v in 0..g.n() {
            let expect = if t.dist[v] == HOP_INF {
                INF
            } else {
                t.dist[v] as Weight
            };
            assert_eq!(out.get(4, v), expect);
        }
    }

    #[test]
    fn auto_charges_the_probe_tree_once() {
        // The diameter probe and the skeleton pipeline need the same BFS
        // tree from node 0; a real execution builds it once.
        let g = connected_gnm(200, 600, Orientation::Directed, WeightRange::unit(), 7);
        let sources: Vec<NodeId> = (0..100).map(|i| i * 2).collect();
        let (out, strat) = k_source_bfs_auto(&g, &sources, Direction::Forward, &Params::lean());
        assert_eq!(strat, KSourceStrategy::Skeleton);
        let labels =
            |pred: fn(&str) -> bool| out.ledger.phases.iter().filter(|p| pred(&p.label)).count();
        assert_eq!(labels(|l| l == "bfs tree"), 1, "{:?}", out.ledger.phases);
        assert_eq!(labels(|l| l.starts_with("cached: bfs tree")), 1);
    }

    #[test]
    fn repeated_on_high_diameter_ring_is_costly() {
        // The tradeoff's other side: on a ring (D ≈ n/2), repetition pays
        // k·D while the skeleton pays Õ(√(nk) + n/k + D).
        let g = ring_with_chords(128, 0, Orientation::Directed, WeightRange::unit(), 0);
        let sources: Vec<NodeId> = (0..16).map(|i| i * 8).collect();
        let rep_ledger = k_source_bfs_repeated(&g, &sources, Direction::Forward).ledger;
        // k·D = 16·127 ≈ 2032; each BFS costs ecc = n−1.
        assert!(
            rep_ledger.rounds >= 16 * 100,
            "rounds {}",
            rep_ledger.rounds
        );
    }
}

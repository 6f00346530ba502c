//! Registered round bounds for the CONGEST primitives.
//!
//! Each primitive in this crate audits every run against the concrete
//! envelope registered here (via [`mwc_trace::check_bound`]): the paper's
//! asymptotic bound with an explicit constant calibrated against the
//! simulator. The full algorithm → bound table lives in
//! `docs/observability.md`. Constants are deliberately generous — the
//! audits are regression tripwires for *asymptotic* blowups (an extra
//! unpipelined sweep, a dropped FIFO), not tight performance budgets.

use mwc_graph::{Graph, Weight};
use mwc_trace::BoundInputs;

/// A local (zero-round) upper bound on the hop diameter of the
/// communication topology: twice the eccentricity of node 0, or `n` when
/// the support is disconnected. Overestimating is safe for upper-bound
/// audits; this never underestimates on connected graphs.
pub fn diameter_upper_bound(g: &Graph) -> u64 {
    let n = g.n();
    if n == 0 {
        return 0;
    }
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[0] = 0;
    queue.push_back(0);
    let mut ecc = 0usize;
    let mut seen = 1usize;
    while let Some(v) = queue.pop_front() {
        for w in g.comm_neighbors(v) {
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                ecc = ecc.max(dist[w]);
                seen += 1;
                queue.push_back(w);
            }
        }
    }
    if seen < n {
        n as u64
    } else {
        2 * ecc as u64
    }
}

/// The effective hop budget of a (possibly stretched) `h`-bounded search:
/// travel rounds are bounded both by the distance budget plus one round
/// per zero-weight hop (`max_dist + n`) and by the stretched graph's
/// longest simple path (`(n-1) · max_stretch`).
pub fn effective_hops(n: usize, max_dist: Weight, latency: Option<&[Weight]>, m: usize) -> u64 {
    let max_stretch = latency
        .map(|l| l.iter().take(m).copied().max().unwrap_or(1).max(1))
        .unwrap_or(1);
    let diam_cap = (n.saturating_sub(1) as u64).saturating_mul(max_stretch);
    max_dist.saturating_add(n as u64).min(diam_cap)
}

/// Pipelined `k`-source `h`-bounded BFS \[37\]: `O(h + k)` rounds.
/// Calibrated constant 4 over the `3(h+k)` empirical envelope.
pub fn multibfs(i: &BoundInputs) -> f64 {
    4.0 * (i.h + i.k) as f64 + 16.0
}

/// `(S, h, σ)` source detection \[37\]: `O(h + σ)` rounds.
pub fn source_detection(i: &BoundInputs) -> f64 {
    5.0 * (i.h + i.k) as f64 + 16.0
}

/// BFS-tree construction by flooding: `O(ecc(root)) ≤ O(D)` rounds.
/// `diameter` carries the measured tree height (an exact ecc).
pub fn bfs_tree(i: &BoundInputs) -> f64 {
    2.0 * (i.diameter + 1) as f64
}

/// Pipelined broadcast of `k` words over a tree of height `diameter`:
/// `O(k + D)` rounds (the paper's `O(M + D)` with `k = M · words_per_item`).
pub fn broadcast(i: &BoundInputs) -> f64 {
    4.0 * (i.k + i.diameter) as f64 + 8.0
}

/// Convergecast + downcast over a tree of height `diameter`: `O(D)`.
pub fn convergecast(i: &BoundInputs) -> f64 {
    2.0 * i.diameter as f64 + 4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, WeightRange};
    use mwc_graph::Orientation;

    #[test]
    fn diameter_bound_dominates_true_diameter() {
        let g = connected_gnm(60, 90, Orientation::Undirected, WeightRange::unit(), 4);
        let bound = diameter_upper_bound(&g);
        // True diameter via all-pairs BFS.
        let mut true_d = 0;
        for s in 0..g.n() {
            let t = mwc_graph::seq::bfs(&g, s, mwc_graph::seq::Direction::Forward);
            true_d = true_d.max(*t.dist.iter().filter(|&&d| d != usize::MAX).max().unwrap());
        }
        assert!(bound >= true_d as u64, "bound {bound} < true {true_d}");
        assert!(bound <= 2 * true_d as u64);
    }

    #[test]
    fn effective_hops_caps_at_stretched_path() {
        use crate::INF;
        // Unbounded unit search on n nodes: capped at n-1 hops.
        assert_eq!(effective_hops(10, INF, None, 0), 9);
        // Finite budget smaller than the cap wins (plus zero-weight slack).
        assert_eq!(effective_hops(10, 3, None, 0), 9);
        assert_eq!(effective_hops(100, 3, None, 0), 99);
        // Stretch raises the cap.
        let lat = vec![7u64; 4];
        assert_eq!(effective_hops(5, INF, Some(&lat), 4), 28);
    }
}

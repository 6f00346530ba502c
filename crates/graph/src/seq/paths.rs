//! Sequential shortest-path algorithms: BFS, Dijkstra and hop-limited
//! Bellman–Ford, with parent trees for path extraction.

use crate::graph::{Adj, EdgeId, Graph, NodeId, Weight};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Sentinel for an unreachable node in weighted distances.
pub const INF: Weight = Weight::MAX;

/// Sentinel for an unreachable node in hop distances.
pub const HOP_INF: usize = usize::MAX;

/// Which way to traverse the edges of a directed graph. On an undirected
/// graph the two directions coincide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Direction {
    /// Follow edges `u → v` from tail to head (distances *from* the source).
    #[default]
    Forward,
    /// Follow edges against their orientation (distances *to* the source).
    Reverse,
}

impl Direction {
    /// Adjacency list of `v` in this traversal direction.
    pub fn adj<'g>(&self, g: &'g Graph, v: NodeId) -> &'g [Adj] {
        match self {
            Direction::Forward => g.out_adj(v),
            Direction::Reverse => g.in_adj(v),
        }
    }
}

/// Result of a hop-based search: distances in hops and a shortest-path tree.
#[derive(Clone, Debug)]
pub struct HopDistTree {
    /// `dist[v]` = hop distance from the source ([`HOP_INF`] if unreachable).
    pub dist: Vec<usize>,
    /// `parent[v]` = predecessor of `v` on a shortest path from the source.
    pub parent: Vec<Option<NodeId>>,
}

/// Result of a weighted search: distances and a shortest-path tree.
#[derive(Clone, Debug)]
pub struct DistTree {
    /// `dist[v]` = weighted distance from the source ([`INF`] if
    /// unreachable).
    pub dist: Vec<Weight>,
    /// `parent[v]` = predecessor of `v` on a shortest path from the source.
    pub parent: Vec<Option<NodeId>>,
}

/// Breadth-first search from `src`, following edges in `dir`.
///
/// # Examples
///
/// ```
/// use mwc_graph::{Graph, Orientation};
/// use mwc_graph::seq::{bfs, Direction, HOP_INF};
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// let g = Graph::from_edges(3, Orientation::Directed, [(0, 1, 1), (1, 2, 1)])?;
/// let t = bfs(&g, 0, Direction::Forward);
/// assert_eq!(t.dist, vec![0, 1, 2]);
/// let r = bfs(&g, 0, Direction::Reverse);
/// assert_eq!(r.dist[2], HOP_INF);
/// # Ok(())
/// # }
/// ```
pub fn bfs(g: &Graph, src: NodeId, dir: Direction) -> HopDistTree {
    let mut dist = vec![HOP_INF; g.n()];
    let mut parent = vec![None; g.n()];
    let mut queue = VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for a in dir.adj(g, u) {
            if dist[a.to] == HOP_INF {
                dist[a.to] = dist[u] + 1;
                parent[a.to] = Some(u);
                queue.push_back(a.to);
            }
        }
    }
    HopDistTree { dist, parent }
}

/// Dijkstra's algorithm from `src`, following edges in `dir`. Weights are
/// non-negative by the [`Graph`] invariant.
pub fn dijkstra(g: &Graph, src: NodeId, dir: Direction) -> DistTree {
    dijkstra_bounded(g, src, dir, None, None, || INF)
}

/// The one Dijkstra core behind [`dijkstra`] and the MWC oracles.
///
/// - `skip_edge` is ignored in both directions (per-edge deletion).
/// - The search stops once `target` is settled.
/// - It stops before settling a node farther than `cutoff()`. The cutoff
///   is re-read at every step, so it may shrink while the search runs.
///
/// Nodes left unsettled read [`INF`] with no parent. Settling runs in the
/// same `(distance, node)` order as the full search, and the cutoff test
/// is strict, so every settled node — everything within the smallest
/// cutoff seen, and the target — gets exactly the distance and parent the
/// full search would give it.
pub(crate) fn dijkstra_bounded(
    g: &Graph,
    src: NodeId,
    dir: Direction,
    skip_edge: Option<EdgeId>,
    target: Option<NodeId>,
    cutoff: impl Fn() -> Weight,
) -> DistTree {
    let mut dist = vec![INF; g.n()];
    let mut parent = vec![None; g.n()];
    let mut heap = BinaryHeap::new();
    dist[src] = 0;
    heap.push(Reverse((0, src)));
    while let Some(&Reverse((d, u))) = heap.peek() {
        if d > cutoff() {
            break;
        }
        heap.pop();
        if d > dist[u] {
            continue;
        }
        if Some(u) == target {
            break;
        }
        for a in dir.adj(g, u) {
            if Some(a.edge) == skip_edge {
                continue;
            }
            // Saturates at INF, which never improves a distance.
            let nd = d.saturating_add(a.weight);
            if nd < dist[a.to] {
                dist[a.to] = nd;
                parent[a.to] = Some(u);
                heap.push(Reverse((nd, a.to)));
            }
        }
    }
    // A node is unsettled iff its live entry (the one carrying its
    // current distance) is still queued.
    for Reverse((d, u)) in heap {
        if dist[u] == d {
            dist[u] = INF;
            parent[u] = None;
        }
    }
    DistTree { dist, parent }
}

/// Exact *hop-limited* shortest-path distances: `dist[v]` is the minimum
/// weight of a path from `src` to `v` with at most `h` edges, or [`INF`].
///
/// This is the sequential analogue of the `h`-hop-bounded distances that
/// Algorithm 1 of the paper computes distributively, and the oracle the
/// distributed version is tested against.
pub fn bellman_ford_hops(g: &Graph, src: NodeId, h: usize, dir: Direction) -> Vec<Weight> {
    let mut dist = vec![INF; g.n()];
    dist[src] = 0;
    let mut frontier: Vec<NodeId> = vec![src];
    // `cur` holds the best distance using at most i hops after iteration i.
    let mut cur = dist.clone();
    for _ in 0..h {
        if frontier.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for &u in &frontier {
            let du = dist[u];
            if du == INF {
                continue;
            }
            for a in dir.adj(g, u) {
                let nd = du + a.weight;
                if nd < cur[a.to] {
                    if cur[a.to] == dist[a.to] {
                        next.push(a.to);
                    }
                    cur[a.to] = nd;
                }
            }
        }
        // A node improved this round participates in the next relaxation
        // round; `dist` tracks ≤ i-hop distances, `cur` ≤ i+1.
        next.sort_unstable();
        next.dedup();
        dist.copy_from_slice(&cur);
        frontier = next;
    }
    dist
}

/// Reconstructs the path from the tree's source to `v` (inclusive) from a
/// parent array. Returns `None` if `v` has no parent chain (unreachable and
/// not the source itself — pass the source's distance to disambiguate).
pub fn extract_path(parent: &[Option<NodeId>], src: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
    let mut path = vec![v];
    let mut cur = v;
    while cur != src {
        cur = parent[cur]?;
        path.push(cur);
        if path.len() > parent.len() {
            return None; // defensive: malformed parent array
        }
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Orientation;

    fn weighted_diamond() -> Graph {
        // 0 → 1 → 3 cost 2+2=4, 0 → 2 → 3 cost 1+1=2.
        Graph::from_edges(
            4,
            Orientation::Directed,
            [(0, 1, 2), (1, 3, 2), (0, 2, 1), (2, 3, 1)],
        )
        .unwrap()
    }

    #[test]
    fn bfs_forward_and_reverse() {
        let g = weighted_diamond();
        let f = bfs(&g, 0, Direction::Forward);
        assert_eq!(f.dist, vec![0, 1, 1, 2]);
        let r = bfs(&g, 3, Direction::Reverse);
        assert_eq!(r.dist, vec![2, 1, 1, 0]);
    }

    #[test]
    fn bfs_undirected_symmetric() {
        let g = Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        )
        .unwrap();
        let f = bfs(&g, 3, Direction::Forward);
        assert_eq!(f.dist, vec![3, 2, 1, 0]);
        let r = bfs(&g, 3, Direction::Reverse);
        assert_eq!(f.dist, r.dist);
    }

    #[test]
    fn dijkstra_prefers_light_path() {
        let g = weighted_diamond();
        let t = dijkstra(&g, 0, Direction::Forward);
        assert_eq!(t.dist, vec![0, 2, 1, 2]);
        assert_eq!(extract_path(&t.parent, 0, 3), Some(vec![0, 2, 3]));
    }

    #[test]
    fn dijkstra_reverse() {
        let g = weighted_diamond();
        let t = dijkstra(&g, 3, Direction::Reverse);
        assert_eq!(t.dist, vec![2, 2, 1, 0]);
    }

    #[test]
    fn dijkstra_unreachable_is_inf() {
        let mut g = Graph::directed(3);
        g.add_edge(0, 1, 5).unwrap();
        let t = dijkstra(&g, 0, Direction::Forward);
        assert_eq!(t.dist[2], INF);
        assert_eq!(extract_path(&t.parent, 0, 2), None);
    }

    #[test]
    fn hop_limited_matches_tradeoff() {
        // 0 → 3 direct weight 10 (1 hop) vs 0 → 1 → 2 → 3 weight 3 (3 hops).
        let g = Graph::from_edges(
            4,
            Orientation::Directed,
            [(0, 3, 10), (0, 1, 1), (1, 2, 1), (2, 3, 1)],
        )
        .unwrap();
        assert_eq!(bellman_ford_hops(&g, 0, 1, Direction::Forward)[3], 10);
        assert_eq!(bellman_ford_hops(&g, 2, 1, Direction::Forward)[3], 1);
        assert_eq!(bellman_ford_hops(&g, 0, 3, Direction::Forward)[3], 3);
        assert_eq!(bellman_ford_hops(&g, 0, 0, Direction::Forward)[3], INF);
    }

    #[test]
    fn hop_limited_equals_dijkstra_when_h_large() {
        let g = weighted_diamond();
        let bf = bellman_ford_hops(&g, 0, g.n(), Direction::Forward);
        let dj = dijkstra(&g, 0, Direction::Forward);
        assert_eq!(bf, dj.dist);
    }

    #[test]
    fn skipping_edge_reroutes() {
        let g = weighted_diamond();
        let cheap_edge = g.edge_id(2, 3).unwrap();
        let t = dijkstra_bounded(&g, 0, Direction::Forward, Some(cheap_edge), None, || INF);
        assert_eq!(t.dist[3], 4); // forced through 0 → 1 → 3
    }

    #[test]
    fn bounded_search_settles_nodes_at_the_cutoff() {
        let g = Graph::from_edges(
            5,
            Orientation::Directed,
            [(0, 1, 1), (1, 2, 0), (2, 3, 2), (0, 4, 5)],
        )
        .unwrap();
        let full = dijkstra(&g, 0, Direction::Forward);
        // The cutoff is strict: distance 1 still settles, with the full
        // search's parents; 3 and 4 lie beyond it and read unreachable.
        let t = dijkstra_bounded(&g, 0, Direction::Forward, None, None, || 1);
        assert_eq!(t.dist, vec![0, 1, 1, INF, INF]);
        assert_eq!(t.parent[..3], full.parent[..3]);
        assert_eq!(t.parent[3..], [None, None]);
        // A zero cutoff still settles the zero-weight edge.
        let z = dijkstra_bounded(&g, 1, Direction::Forward, None, None, || 0);
        assert_eq!(z.dist, vec![INF, 0, 0, INF, INF]);
    }

    #[test]
    fn bounded_search_stops_at_the_target() {
        let g = weighted_diamond();
        let t = dijkstra_bounded(&g, 0, Direction::Forward, None, Some(2), || INF);
        // Node 1 was reached but not settled when 2 was, so it reads
        // unreachable like node 3.
        assert_eq!(t.dist, vec![0, INF, 1, INF]);
        assert_eq!(extract_path(&t.parent, 0, 2), Some(vec![0, 2]));
    }

    #[test]
    fn relaxations_saturate_instead_of_overflowing() {
        let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, INF - 1)]).unwrap();
        // Relaxing 1 → 0 would add INF − 1 twice.
        assert_eq!(dijkstra(&g, 0, Direction::Forward).dist, vec![0, INF - 1]);
    }
}

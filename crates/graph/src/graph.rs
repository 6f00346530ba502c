//! Core graph types shared by the sequential oracles, the CONGEST simulator
//! and the distributed algorithms.
//!
//! A [`Graph`] is a simple graph (no self-loops, no parallel edges) that is
//! either directed or undirected, with non-negative integer edge weights.
//! Unweighted graphs are represented with all weights equal to 1; this
//! matches the paper's convention where the *hop length* of a cycle in an
//! unweighted graph equals its weight.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node; nodes of an `n`-node graph are `0..n`.
///
/// The CONGEST model (paper §1.1) gives each node a unique identifier in
/// `{0, …, n−1}`; we use the same convention so node ids double as vector
/// indices everywhere.
pub type NodeId = usize;

/// Identifier of an edge, an index into [`Graph::edges`].
pub type EdgeId = usize;

/// Non-negative integer edge weight.
///
/// The paper assumes `w : E → {0, …, W}` with `W = poly(n)`. `u64` is wide
/// enough for every workload in this repository, including scaled graphs.
pub type Weight = u64;

/// Whether a [`Graph`]'s edges are directed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Orientation {
    /// Each edge `(u, v)` may only be traversed from `u` to `v`.
    Directed,
    /// Each edge may be traversed in both directions.
    Undirected,
}

impl fmt::Display for Orientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Orientation::Directed => f.write_str("directed"),
            Orientation::Undirected => f.write_str("undirected"),
        }
    }
}

/// A single edge of a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Tail endpoint (for directed graphs, the edge goes `u → v`).
    pub u: NodeId,
    /// Head endpoint.
    pub v: NodeId,
    /// Non-negative weight.
    pub weight: Weight,
}

/// Error returned when building or mutating a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The graph's node count.
        n: usize,
    },
    /// `u == v`; simple graphs have no self-loops.
    SelfLoop {
        /// The node with the attempted self-loop.
        node: NodeId,
    },
    /// The edge (in the graph's orientation) already exists.
    DuplicateEdge {
        /// Tail endpoint.
        u: NodeId,
        /// Head endpoint.
        v: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node} not allowed"),
            GraphError::DuplicateEdge { u, v } => write!(f, "edge ({u}, {v}) already present"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An adjacency entry: neighbor, weight of the connecting edge, edge id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Adj {
    /// The neighboring node.
    pub to: NodeId,
    /// Weight of the edge leading to [`Adj::to`].
    pub weight: Weight,
    /// Id of the underlying edge.
    pub edge: EdgeId,
}

/// A simple directed or undirected graph with non-negative integer weights.
///
/// # Examples
///
/// ```
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// let mut g = Graph::directed(3);
/// g.add_edge(0, 1, 2)?;
/// g.add_edge(1, 2, 3)?;
/// g.add_edge(2, 0, 4)?;
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.orientation(), Orientation::Directed);
/// assert_eq!(g.weight(2, 0), Some(4));
/// assert_eq!(g.weight(0, 2), None); // directed: only 2 → 0 exists
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Graph {
    n: usize,
    orientation: Orientation,
    edges: Vec<Edge>,
    out_adj: Vec<Vec<Adj>>,
    in_adj: Vec<Vec<Adj>>,
    /// Map from ordered pair to edge id, used for `O(1)`-ish lookups.
    index: HashMap<(NodeId, NodeId), EdgeId>,
    max_weight: Weight,
    unit_weights: bool,
    /// [`Graph::fingerprint`], computed on first use and reset by
    /// [`Graph::add_edge`]. Derived from the fields above, so `==` and
    /// `Debug` skip it.
    fingerprint: OnceLock<u64>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        let Graph {
            n,
            orientation,
            edges,
            out_adj,
            in_adj,
            index,
            max_weight,
            unit_weights,
            fingerprint: _,
        } = self;
        *n == other.n
            && *orientation == other.orientation
            && *edges == other.edges
            && *out_adj == other.out_adj
            && *in_adj == other.in_adj
            && *index == other.index
            && *max_weight == other.max_weight
            && *unit_weights == other.unit_weights
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("orientation", &self.orientation)
            .field("edges", &self.edges)
            .field("out_adj", &self.out_adj)
            .field("in_adj", &self.in_adj)
            .field("index", &self.index)
            .field("max_weight", &self.max_weight)
            .field("unit_weights", &self.unit_weights)
            .finish()
    }
}

impl Graph {
    /// Creates an empty directed graph on `n` nodes.
    pub fn directed(n: usize) -> Self {
        Self::new(n, Orientation::Directed)
    }

    /// Creates an empty undirected graph on `n` nodes.
    pub fn undirected(n: usize) -> Self {
        Self::new(n, Orientation::Undirected)
    }

    /// Creates an empty graph on `n` nodes with the given orientation.
    pub fn new(n: usize, orientation: Orientation) -> Self {
        Graph {
            n,
            orientation,
            edges: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
            index: HashMap::new(),
            max_weight: 0,
            unit_weights: true,
            fingerprint: OnceLock::new(),
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] produced by [`Graph::add_edge`].
    pub fn from_edges<I>(n: usize, orientation: Orientation, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId, Weight)>,
    {
        let mut g = Self::new(n, orientation);
        for (u, v, w) in edges {
            g.add_edge(u, v, w)?;
        }
        Ok(g)
    }

    /// Adds an edge `u → v` (or `u — v` if undirected) of weight `weight`.
    ///
    /// Returns the id of the new edge.
    ///
    /// # Errors
    ///
    /// - [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    /// - [`GraphError::SelfLoop`] if `u == v`.
    /// - [`GraphError::DuplicateEdge`] if the edge already exists (for
    ///   undirected graphs, in either endpoint order).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Result<EdgeId, GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.index.contains_key(&(u, v)) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        let id = self.edges.len();
        self.fingerprint = OnceLock::new();
        self.edges.push(Edge { u, v, weight });
        self.index.insert((u, v), id);
        self.out_adj[u].push(Adj {
            to: v,
            weight,
            edge: id,
        });
        self.in_adj[v].push(Adj {
            to: u,
            weight,
            edge: id,
        });
        if self.orientation == Orientation::Undirected {
            self.index.insert((v, u), id);
            self.out_adj[v].push(Adj {
                to: u,
                weight,
                edge: id,
            });
            self.in_adj[u].push(Adj {
                to: v,
                weight,
                edge: id,
            });
        }
        self.max_weight = self.max_weight.max(weight);
        if weight != 1 {
            self.unit_weights = false;
        }
        Ok(id)
    }

    /// A stable fingerprint of the graph's topology and weights, mixed
    /// with [`mwc_rng::mix`]: the node count, orientation, edge count and
    /// every edge `(u, v, weight)` in insertion order. Distinguishes a
    /// graph from its reverse, so `g` and `g.reversed()` never share an
    /// entry of a cache keyed by it. Computed once, in `O(m)`, and cached
    /// until the next [`Graph::add_edge`].
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut state: u64 = 0x6d77_6363_6163_6865; // "mwccache"
            mwc_rng::mix(&mut state, self.n as u64);
            mwc_rng::mix(&mut state, self.is_directed() as u64);
            mwc_rng::mix(&mut state, self.m() as u64);
            for e in &self.edges {
                mwc_rng::mix(&mut state, e.u as u64);
                mwc_rng::mix(&mut state, e.v as u64);
                mwc_rng::mix(&mut state, e.weight);
            }
            mwc_rng::splitmix64(&mut state)
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges (each undirected edge counted once).
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The graph's orientation.
    pub fn orientation(&self) -> Orientation {
        self.orientation
    }

    /// `true` if the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.orientation == Orientation::Directed
    }

    /// `true` if every edge has weight exactly 1 (an *unweighted* graph in
    /// the paper's terminology). Vacuously true for the empty graph.
    pub fn is_unit_weight(&self) -> bool {
        self.unit_weights
    }

    /// The largest edge weight (`W` in the paper); 0 for an empty graph.
    pub fn max_weight(&self) -> Weight {
        self.max_weight
    }

    /// The edge list (undirected edges appear once, as inserted).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Out-neighbors of `v` (all neighbors, for undirected graphs).
    pub fn out_adj(&self, v: NodeId) -> &[Adj] {
        &self.out_adj[v]
    }

    /// In-neighbors of `v` (all neighbors, for undirected graphs).
    pub fn in_adj(&self, v: NodeId) -> &[Adj] {
        &self.in_adj[v]
    }

    /// Weight of edge `u → v` if it exists (for undirected graphs, order of
    /// endpoints does not matter).
    pub fn weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.index.get(&(u, v)).map(|&e| self.edges[e].weight)
    }

    /// `true` if edge `u → v` exists (either order for undirected graphs).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.index.contains_key(&(u, v))
    }

    /// Id of edge `u → v` if it exists.
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.index.get(&(u, v)).copied()
    }

    /// Neighbors of `v` in the *communication topology*: the undirected
    /// support of the graph. In the CONGEST model (paper §1.1) the
    /// communication links are always bidirectional even when the input
    /// graph is directed.
    ///
    /// Each neighbor appears exactly once even if both `u → v` and `v → u`
    /// exist.
    pub fn comm_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut ns: Vec<NodeId> = self.out_adj[v].iter().map(|a| a.to).collect();
        if self.is_directed() {
            ns.extend(self.in_adj[v].iter().map(|a| a.to));
            ns.sort_unstable();
            ns.dedup();
        }
        ns
    }

    /// The graph with every directed edge reversed. For undirected graphs
    /// this is a clone.
    pub fn reversed(&self) -> Graph {
        if !self.is_directed() {
            return self.clone();
        }
        let mut g = Graph::directed(self.n);
        for e in &self.edges {
            g.add_edge(e.v, e.u, e.weight)
                .expect("reversing a simple graph yields a simple graph");
        }
        g
    }

    /// The sum of all edge weights; useful as an "infinite" sentinel bound
    /// since no simple cycle can weigh more than this.
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Eccentricity-based undirected diameter `D` of the communication
    /// topology (paper §1.1): the maximum over nodes of the unweighted hop
    /// distance in the undirected support.
    ///
    /// Returns `None` if the communication graph is disconnected (CONGEST
    /// algorithms require a connected network).
    pub fn undirected_diameter(&self) -> Option<usize> {
        if self.n == 0 {
            return Some(0);
        }
        let mut diameter = 0usize;
        let mut dist = vec![usize::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        for src in 0..self.n {
            dist.iter_mut().for_each(|d| *d = usize::MAX);
            dist[src] = 0;
            queue.clear();
            queue.push_back(src);
            let mut seen = 1usize;
            let mut ecc = 0usize;
            while let Some(u) = queue.pop_front() {
                ecc = ecc.max(dist[u]);
                // Both adjacency lists, without `comm_neighbors`' allocation;
                // the `dist` check skips antiparallel duplicates.
                let back: &[Adj] = if self.is_directed() {
                    &self.in_adj[u]
                } else {
                    &[]
                };
                for w in self.out_adj[u].iter().chain(back).map(|a| a.to) {
                    if dist[w] == usize::MAX {
                        dist[w] = dist[u] + 1;
                        seen += 1;
                        queue.push_back(w);
                    }
                }
            }
            if seen < self.n {
                return None;
            }
            diameter = diameter.max(ecc);
        }
        Some(diameter)
    }

    /// `true` if the undirected support is connected. The empty graph and
    /// the 1-node graph are connected.
    pub fn is_comm_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for w in self.comm_neighbors(u) {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n
    }

    /// Returns a copy with every weight mapped through `f` (used by the
    /// scaling technique of paper §5).
    ///
    /// # Panics
    ///
    /// Never panics itself, but `f` may.
    pub fn map_weights(&self, mut f: impl FnMut(Weight) -> Weight) -> Graph {
        let mut g = Graph::new(self.n, self.orientation);
        for e in &self.edges {
            g.add_edge(e.u, e.v, f(e.weight))
                .expect("same edge set stays simple");
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_graph_basics() {
        let mut g = Graph::directed(4);
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2);
        assert!(g.is_directed());
        assert!(!g.is_unit_weight());
        assert_eq!(g.max_weight(), 5);
        assert_eq!(g.weight(0, 1), Some(5));
        assert_eq!(g.weight(1, 0), None);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 1));
    }

    #[test]
    fn undirected_edges_are_symmetric() {
        let mut g = Graph::undirected(3);
        g.add_edge(0, 1, 1).unwrap();
        assert!(g.is_unit_weight());
        assert_eq!(g.weight(0, 1), Some(1));
        assert_eq!(g.weight(1, 0), Some(1));
        assert_eq!(g.out_adj(1).len(), 1);
        assert_eq!(g.in_adj(0).len(), 1);
    }

    #[test]
    fn rejects_self_loops() {
        let mut g = Graph::directed(2);
        assert_eq!(g.add_edge(1, 1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::undirected(2);
        assert_eq!(
            g.add_edge(0, 5, 1),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        );
    }

    #[test]
    fn rejects_duplicates_directed_allows_antiparallel() {
        let mut g = Graph::directed(2);
        g.add_edge(0, 1, 1).unwrap();
        assert_eq!(
            g.add_edge(0, 1, 2),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
        // Antiparallel edge is fine in a directed graph.
        g.add_edge(1, 0, 2).unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn rejects_duplicates_undirected_any_order() {
        let mut g = Graph::undirected(2);
        g.add_edge(0, 1, 1).unwrap();
        assert_eq!(
            g.add_edge(1, 0, 2),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
    }

    #[test]
    fn comm_neighbors_dedupes_antiparallel() {
        let mut g = Graph::directed(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 0, 1).unwrap();
        g.add_edge(2, 0, 1).unwrap();
        let mut ns = g.comm_neighbors(0);
        ns.sort_unstable();
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    fn reversed_directed_graph() {
        let mut g = Graph::directed(3);
        g.add_edge(0, 1, 7).unwrap();
        g.add_edge(1, 2, 3).unwrap();
        let r = g.reversed();
        assert_eq!(r.weight(1, 0), Some(7));
        assert_eq!(r.weight(2, 1), Some(3));
        assert_eq!(r.weight(0, 1), None);
    }

    #[test]
    fn diameter_of_path() {
        let mut g = Graph::undirected(5);
        for i in 0..4 {
            g.add_edge(i, i + 1, 1).unwrap();
        }
        assert_eq!(g.undirected_diameter(), Some(4));
    }

    #[test]
    fn diameter_uses_undirected_support_of_directed_graph() {
        // Directed path 0 → 1 → 2: undirected diameter is still 2.
        let mut g = Graph::directed(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        assert_eq!(g.undirected_diameter(), Some(2));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let g = Graph::undirected(3);
        assert_eq!(g.undirected_diameter(), None);
        assert!(!g.is_comm_connected());
    }

    #[test]
    fn map_weights_scales() {
        let mut g = Graph::undirected(3);
        g.add_edge(0, 1, 4).unwrap();
        g.add_edge(1, 2, 6).unwrap();
        let s = g.map_weights(|w| w / 2);
        assert_eq!(s.weight(0, 1), Some(2));
        assert_eq!(s.weight(1, 2), Some(3));
    }

    #[test]
    fn from_edges_builder() {
        let g = Graph::from_edges(
            3,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 1), (2, 0, 1)],
        )
        .unwrap();
        assert_eq!(g.m(), 3);
        assert_eq!(g.undirected_diameter(), Some(1));
    }

    #[test]
    fn fingerprint_tracks_the_edge_list() {
        let edges = [(0, 1, 2), (1, 2, 3), (2, 0, 4), (0, 3, 1)];
        let g = Graph::from_edges(4, Orientation::Directed, edges).unwrap();
        let fp = g.fingerprint();
        assert_eq!(g.clone().fingerprint(), fp);
        let again = Graph::from_edges(4, Orientation::Directed, edges).unwrap();
        assert_eq!(again.fingerprint(), fp);
        assert_ne!(g.reversed().fingerprint(), fp);
        let undirected = Graph::from_edges(4, Orientation::Undirected, edges).unwrap();
        assert_ne!(undirected.fingerprint(), fp);
        let mut grown = g.clone();
        grown.add_edge(3, 1, 5).unwrap();
        assert_ne!(grown.fingerprint(), fp);
        // The cache is invisible to `==`: a graph whose fingerprint was
        // computed equals one whose was not.
        let fresh = Graph::from_edges(4, Orientation::Directed, edges).unwrap();
        assert_eq!(g, fresh);
        assert!(!format!("{g:?}").contains("fingerprint"));
    }

    #[test]
    fn total_weight_bounds_cycles() {
        let g = Graph::from_edges(
            3,
            Orientation::Directed,
            [(0, 1, 10), (1, 2, 20), (2, 0, 30)],
        )
        .unwrap();
        assert_eq!(g.total_weight(), 60);
    }
}

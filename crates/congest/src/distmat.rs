//! Dense distance tables produced by the multi-source primitives.

use mwc_graph::{NodeId, Weight};

/// Sentinel distance for "not reached".
pub const INF: Weight = Weight::MAX;

const NO_PRED: u32 = u32::MAX;

/// A `k × n` table of distances from `k` sources to all nodes, with
/// predecessor pointers for witness reconstruction.
///
/// Storage is **node-major** (`[v * k + row]`): the dominant consumers —
/// per-delivery updates in the pipelined BFS, per-node column extraction
/// for the neighbor exchange, and the per-edge all-source candidate scans
/// — fix a node and vary the source row, so keeping a node's column
/// contiguous turns their inner loops into sequential reads. With `k = n`
/// the table is hundreds of megabytes at bench sizes; layout is what
/// decides whether those loops run at cache or DRAM speed.
///
/// For a **forward** search from source `s`, `pred(s, v)` is the node
/// preceding `v` on the discovered `s → … → v` path. For a **reverse**
/// search (distances *to* `s` in a directed graph), `pred(s, v)` is the
/// node following `v` on the discovered `v → … → s` path. Either way,
/// repeatedly following predecessors from `v` leads to `s`.
#[derive(Clone, Debug)]
pub struct DistMatrix {
    sources: Vec<NodeId>,
    /// `index_of[v]` = row of source `v`, or `u32::MAX`.
    index_of: Vec<u32>,
    n: usize,
    dist: Vec<Weight>,
    pred: Vec<u32>,
}

impl DistMatrix {
    /// An all-[`INF`] table for the given sources over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if a source id is `>= n` or appears twice.
    pub fn new(n: usize, sources: Vec<NodeId>) -> Self {
        let mut index_of = vec![u32::MAX; n];
        for (i, &s) in sources.iter().enumerate() {
            assert!(s < n, "source {s} out of range");
            assert!(index_of[s] == u32::MAX, "duplicate source {s}");
            index_of[s] = i as u32;
        }
        let k = sources.len();
        DistMatrix {
            sources,
            index_of,
            n,
            dist: vec![INF; k * n],
            pred: vec![NO_PRED; k * n],
        }
    }

    /// The sources, in row order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Number of sources.
    pub fn k(&self) -> usize {
        self.sources.len()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row index of source `s`, if `s` is a source.
    pub fn row_of(&self, s: NodeId) -> Option<usize> {
        let i = self.index_of[s];
        (i != u32::MAX).then_some(i as usize)
    }

    /// Distance from source `s` to node `v` ([`INF`] if unreached).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a source.
    pub fn get(&self, s: NodeId, v: NodeId) -> Weight {
        let row = self.row_of(s).expect("s must be a source");
        self.dist[v * self.k() + row]
    }

    /// Distance by row index.
    pub fn get_row(&self, row: usize, v: NodeId) -> Weight {
        self.dist[v * self.k() + row]
    }

    /// Node `v`'s distances from every source, in row order: the
    /// contiguous column the node-major layout keeps.
    pub fn column(&self, v: NodeId) -> &[Weight] {
        let k = self.k();
        &self.dist[v * k..(v + 1) * k]
    }

    /// Sets the distance and predecessor for `(row, v)`.
    pub fn set_row(&mut self, row: usize, v: NodeId, d: Weight, pred: Option<NodeId>) {
        let i = v * self.k() + row;
        self.dist[i] = d;
        self.pred[i] = pred.map_or(NO_PRED, |p| p as u32);
    }

    /// Predecessor of `v` in the search from row `row` (see the type docs
    /// for direction semantics).
    pub fn pred_row(&self, row: usize, v: NodeId) -> Option<NodeId> {
        let p = self.pred[v * self.k() + row];
        (p != NO_PRED).then_some(p as usize)
    }

    /// The discovered chain from `v` back to the source of `row`,
    /// inclusive: `[v, pred(v), …, s]`. Returns `None` if `v` was not
    /// reached.
    pub fn chain_to_source(&self, row: usize, v: NodeId) -> Option<Vec<NodeId>> {
        if self.get_row(row, v) == INF {
            return None;
        }
        let s = self.sources[row];
        let mut path = vec![v];
        let mut cur = v;
        while cur != s {
            cur = self.pred_row(row, cur)?;
            path.push(cur);
            if path.len() > self.n {
                return None; // defensive: corrupted predecessor chain
            }
        }
        Some(path)
    }

    /// The path from the source of `row` to `v` in forward order
    /// `[s, …, v]`. Only meaningful for forward searches.
    pub fn path_from_source(&self, row: usize, v: NodeId) -> Option<Vec<NodeId>> {
        let mut p = self.chain_to_source(row, v)?;
        p.reverse();
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_is_inf() {
        let m = DistMatrix::new(5, vec![1, 3]);
        assert_eq!(m.k(), 2);
        assert_eq!(m.get(1, 4), INF);
        assert_eq!(m.row_of(3), Some(1));
        assert_eq!(m.row_of(0), None);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = DistMatrix::new(4, vec![2]);
        m.set_row(0, 2, 0, None);
        m.set_row(0, 0, 7, Some(2));
        assert_eq!(m.get(2, 0), 7);
        assert_eq!(m.pred_row(0, 0), Some(2));
    }

    #[test]
    fn chain_reconstruction() {
        let mut m = DistMatrix::new(4, vec![0]);
        m.set_row(0, 0, 0, None);
        m.set_row(0, 1, 1, Some(0));
        m.set_row(0, 2, 2, Some(1));
        assert_eq!(m.chain_to_source(0, 2), Some(vec![2, 1, 0]));
        assert_eq!(m.path_from_source(0, 2), Some(vec![0, 1, 2]));
        assert_eq!(m.chain_to_source(0, 3), None);
    }

    #[test]
    #[should_panic(expected = "duplicate source")]
    fn duplicate_sources_panic() {
        let _ = DistMatrix::new(3, vec![1, 1]);
    }
}

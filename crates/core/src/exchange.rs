//! Neighbor bulk exchange: every node sends a (multi-word) value to all of
//! its communication neighbors. Used for the "send your distance table to
//! your neighbors" steps (Algorithm 3 line 11, the non-tree-edge scans of
//! the exact and girth algorithms).

use mwc_congest::{DistMatrix, Ledger, Network, RoundOutput};
use mwc_graph::{Graph, NodeId, Weight};
use std::collections::HashMap;
use std::sync::Arc;

/// Sends `values[v]` from every `v` to each of its neighbors as a
/// `words(v)`-word message; returns, per node, the map *neighbor → their
/// value*. Costs `O(max_v words(v))` rounds (all links run in parallel).
pub(crate) fn exchange_with_neighbors<T: Clone + Send>(
    g: &Graph,
    values: &[T],
    words: impl Fn(NodeId) -> u64,
    label: &str,
    ledger: &mut Ledger,
) -> Vec<HashMap<NodeId, T>> {
    let n = g.n();
    assert_eq!(values.len(), n, "one value per node");
    let mut net: Network<T> = Network::new_auto(g);
    for v in 0..n {
        let words = words(v);
        for w in g.comm_neighbors(v) {
            net.send(v, w, values[v].clone(), words)
                .expect("neighbors are linked");
        }
    }
    let mut got: Vec<HashMap<NodeId, T>> = vec![HashMap::new(); n];
    let mut out = RoundOutput::default();
    while net.step_bulk_into(&mut out) {
        for d in out.deliveries.drain(..) {
            got[d.to].insert(d.from, d.payload);
        }
    }
    ledger.absorb(label, &net);
    got
}

/// One node's `(dist, pred)` column of a [`DistMatrix`], shared by `Arc`.
pub(crate) type DistPredColumn = Arc<Vec<(Weight, u32)>>;

/// Builds each node's `(dist, pred)` column over the matrix's sources and
/// exchanges them with neighbors (`2k` words per message).
pub(crate) fn exchange_matrix_columns(
    g: &Graph,
    mat: &DistMatrix,
    label: &str,
    ledger: &mut Ledger,
) -> Vec<HashMap<NodeId, DistPredColumn>> {
    let n = g.n();
    let k = mat.k();
    let cols: Vec<DistPredColumn> = (0..n)
        .map(|v| {
            let mut col = Vec::with_capacity(k);
            for row in 0..k {
                let d = mat.get_row(row, v);
                let p = mat.pred_row(row, v).map_or(u32::MAX, |p| p as u32);
                col.push((d, p));
            }
            Arc::new(col)
        })
        .collect();
    exchange_with_neighbors(g, &cols, |_| 2 * k as u64, label, ledger)
}

/// The BFS-tree LCA cycle of a non-tree edge `(x, y)` w.r.t. the matrix's
/// `row`-th source: tree paths to `x` and `y` trimmed at their divergence,
/// closed by `(x, y)`. `None` if either endpoint is unreached or the
/// section is shorter than 3 vertices.
pub(crate) fn lca_cycle(mat: &DistMatrix, row: usize, x: NodeId, y: NodeId) -> Option<Vec<NodeId>> {
    let pu = mat.path_from_source(row, x)?;
    let pv = mat.path_from_source(row, y)?;
    let mut z = 0;
    while z + 1 < pu.len() && z + 1 < pv.len() && pu[z + 1] == pv[z + 1] {
        z += 1;
    }
    let mut cyc: Vec<NodeId> = pu[z..].to_vec();
    cyc.extend(pv[z + 1..].iter().rev());
    (cyc.len() >= 3).then_some(cyc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_congest::{multi_source_bfs, MultiBfsSpec};
    use mwc_graph::generators::{connected_gnm, WeightRange};
    use mwc_graph::Orientation;

    #[test]
    fn exchange_reaches_all_neighbors() {
        let g = connected_gnm(20, 30, Orientation::Undirected, WeightRange::unit(), 1);
        let values: Vec<u64> = (0..20).map(|v| 1000 + v as u64).collect();
        let mut ledger = Ledger::new();
        let got = exchange_with_neighbors(&g, &values, |_| 1, "x", &mut ledger);
        for v in 0..20 {
            let nbrs = g.comm_neighbors(v);
            assert_eq!(got[v].len(), nbrs.len());
            for w in nbrs {
                assert_eq!(got[v][&w], 1000 + w as u64);
            }
        }
        assert!(ledger.rounds >= 1);
    }

    #[test]
    fn exchange_words_scale_rounds() {
        let g = connected_gnm(16, 20, Orientation::Undirected, WeightRange::unit(), 2);
        let values: Vec<u64> = vec![0; 16];
        let mut l1 = Ledger::new();
        exchange_with_neighbors(&g, &values, |_| 1, "x", &mut l1);
        let mut l8 = Ledger::new();
        exchange_with_neighbors(&g, &values, |_| 8, "x", &mut l8);
        assert_eq!(l8.rounds, 8 * l1.rounds);
    }

    #[test]
    fn lca_cycle_on_square() {
        let g = Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
        )
        .unwrap();
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[0], &MultiBfsSpec::default(), "b", &mut ledger);
        // Non-tree edge w.r.t. source 0 must close the 4-cycle.
        let e = g
            .edges()
            .iter()
            .find(|e| mat.pred_row(0, e.u) != Some(e.v) && mat.pred_row(0, e.v) != Some(e.u))
            .expect("square has a non-tree edge");
        let cyc = lca_cycle(&mat, 0, e.u, e.v).expect("cycle");
        assert_eq!(cyc.len(), 4);
    }
}

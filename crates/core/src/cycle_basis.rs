//! Distributed fundamental cycle basis — one of the paper's motivating
//! applications (§1: cycles "with connections to deadlock detection and
//! computing a cycle basis" \[22, 42, 44\]).
//!
//! A BFS spanning tree `T` of a connected undirected graph induces the
//! *fundamental* cycle basis: each non-tree edge `(x, y)` closes exactly
//! one cycle with the tree paths to the LCA of `x` and `y`, and these
//! `m − n + 1` cycles form a basis of the GF(2) cycle space. Computing it
//! distributively costs only the `O(D)` tree construction plus one round
//! for endpoints to learn each other's tree depth/parent — each node then
//! knows, for every incident non-tree edge, that a basis cycle closes
//! there (the standard implicit representation); the explicit vertex
//! sequences are assembled from the tree.

use mwc_congest::{BfsTree, Ledger};
use mwc_graph::{CycleWitness, EdgeId, Graph, NodeId};

/// A fundamental cycle basis; produced by [`fundamental_cycle_basis`].
#[derive(Clone, Debug)]
pub struct CycleBasis {
    /// One basis cycle per non-tree edge, each a validated simple cycle.
    pub cycles: Vec<CycleWitness>,
    /// The non-tree edge that closes each basis cycle (parallel to
    /// `cycles`).
    pub chords: Vec<EdgeId>,
    /// Round/traffic accounting (tree construction + endpoint exchange).
    pub ledger: Ledger,
}

impl CycleBasis {
    /// Basis dimension `m − n + 1` (the graph's circuit rank).
    pub fn dimension(&self) -> usize {
        self.cycles.len()
    }

    /// The edge-incidence vector of cycle `i` over the graph's edges.
    fn edge_vector(&self, g: &Graph, i: usize) -> Vec<bool> {
        let mut v = vec![false; g.m()];
        let vs = self.cycles[i].vertices();
        for j in 0..vs.len() {
            let e = g
                .edge_id(vs[j], vs[(j + 1) % vs.len()])
                .expect("basis cycles use real edges");
            v[e] = true;
        }
        v
    }

    /// Whether the edge set of `cycle` lies in the GF(2) span of the
    /// basis — true for every cycle of the graph, which is what makes
    /// this a basis. Used by tests and as a consistency check.
    pub fn spans(&self, g: &Graph, cycle: &CycleWitness) -> bool {
        // Gaussian elimination over GF(2) on the basis vectors plus the
        // target: the target is spanned iff elimination zeroes it out.
        let mut target = vec![false; g.m()];
        let vs = cycle.vertices();
        for j in 0..vs.len() {
            match g.edge_id(vs[j], vs[(j + 1) % vs.len()]) {
                Some(e) => target[e] ^= true,
                None => return false,
            }
        }
        let mut rows: Vec<Vec<bool>> = (0..self.cycles.len())
            .map(|i| self.edge_vector(g, i))
            .collect();
        for col in 0..g.m() {
            let Some(pivot) = rows.iter().position(|r| r[col]) else {
                continue;
            };
            let prow = rows.swap_remove(pivot);
            for r in &mut rows {
                if r[col] {
                    for (a, b) in r.iter_mut().zip(&prow) {
                        *a ^= b;
                    }
                }
            }
            if target[col] {
                for (a, b) in target.iter_mut().zip(&prow) {
                    *a ^= b;
                }
            }
        }
        target.iter().all(|&b| !b)
    }
}

/// Computes the fundamental cycle basis of a connected undirected graph
/// in `O(D)` rounds (BFS tree + one neighbor exchange).
///
/// # Panics
///
/// Panics if the graph is directed or its communication topology is
/// disconnected.
///
/// # Examples
///
/// ```
/// use mwc_core::cycle_basis::fundamental_cycle_basis;
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// let g = Graph::from_edges(4, Orientation::Undirected,
///     [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1)])?;
/// let basis = fundamental_cycle_basis(&g);
/// assert_eq!(basis.dimension(), 5 - 4 + 1); // m − n + 1
/// # Ok(())
/// # }
/// ```
pub fn fundamental_cycle_basis(g: &Graph) -> CycleBasis {
    let _span = mwc_trace::span("basis/fundamental");
    assert!(
        !g.is_directed(),
        "cycle bases are defined for undirected graphs"
    );
    let mut ledger = Ledger::new();
    let tree = BfsTree::build(g, 0, &mut ledger);

    // One round: endpoints learn each other's (depth, parent) so every
    // node knows which incident edges are non-tree chords (read in place
    // from `tree` below).
    crate::exchange::charge_neighbor_exchange(g, |_| 1, "cycle basis: depth exchange", &mut ledger);

    let mut cycles = Vec::new();
    let mut chords = Vec::new();
    for (eid, e) in g.edges().iter().enumerate() {
        let (x, y) = (e.u, e.v);
        if tree.parent[x] == Some(y) || tree.parent[y] == Some(x) {
            continue; // tree edge
        }
        // Tree paths to the root, trimmed at the LCA.
        let path_up = |mut v: NodeId| {
            let mut p = vec![v];
            while let Some(parent) = tree.parent[v] {
                p.push(parent);
                v = parent;
            }
            p.reverse(); // root … v
            p
        };
        let px = path_up(x);
        let py = path_up(y);
        let mut z = 0;
        while z + 1 < px.len() && z + 1 < py.len() && px[z + 1] == py[z + 1] {
            z += 1;
        }
        let mut cyc: Vec<NodeId> = px[z..].to_vec();
        cyc.extend(py[z + 1..].iter().rev());
        debug_assert!(cyc.len() >= 3);
        cycles.push(CycleWitness::new(cyc));
        chords.push(eid);
    }
    mwc_trace::check_bound(
        "core/fundamental_cycle_basis",
        mwc_trace::BoundInputs::n(g.n()).diameter(mwc_congest::bounds::diameter_upper_bound(g)),
        ledger.rounds,
        crate::bounds::cycle_basis,
    );
    CycleBasis {
        cycles,
        chords,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, grid, ring_with_chords, WeightRange};
    use mwc_graph::seq;
    use mwc_graph::Orientation;

    #[test]
    fn dimension_is_circuit_rank() {
        for seed in 0..5 {
            let g = connected_gnm(40, 60, Orientation::Undirected, WeightRange::unit(), seed);
            let b = fundamental_cycle_basis(&g);
            assert_eq!(b.dimension(), g.m() - g.n() + 1);
            for c in &b.cycles {
                c.validate(&g).expect("basis cycles are real");
            }
        }
    }

    #[test]
    fn tree_has_empty_basis() {
        let mut g = Graph::undirected(9);
        for i in 1..9 {
            g.add_edge(i / 2, i, 1).unwrap();
        }
        let b = fundamental_cycle_basis(&g);
        assert_eq!(b.dimension(), 0);
    }

    #[test]
    fn basis_spans_the_minimum_weight_cycle() {
        for seed in 0..5 {
            let g = connected_gnm(
                30,
                55,
                Orientation::Undirected,
                WeightRange::uniform(1, 9),
                seed,
            );
            let b = fundamental_cycle_basis(&g);
            if let Some(m) = seq::mwc_undirected_exact(&g) {
                assert!(
                    b.spans(&g, &m.witness),
                    "MWC outside the basis span (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn basis_spans_grid_faces() {
        let g = grid(5, 5, Orientation::Undirected, WeightRange::unit(), 0);
        let b = fundamental_cycle_basis(&g);
        assert_eq!(b.dimension(), g.m() - g.n() + 1); // 16 faces
                                                      // Each unit face is spanned.
        let id = |r: usize, c: usize| r * 5 + c;
        for r in 0..4 {
            for c in 0..4 {
                let face =
                    CycleWitness::new(vec![id(r, c), id(r, c + 1), id(r + 1, c + 1), id(r + 1, c)]);
                face.validate(&g).unwrap();
                assert!(b.spans(&g, &face));
            }
        }
    }

    #[test]
    fn non_cycles_are_rejected_by_span_check() {
        let g = ring_with_chords(10, 3, Orientation::Undirected, WeightRange::unit(), 1);
        let b = fundamental_cycle_basis(&g);
        // A "cycle" using a missing edge cannot be spanned.
        let fake = CycleWitness::new(vec![0, 5, 9]);
        if fake.validate(&g).is_err() {
            assert!(!b.spans(&g, &fake));
        }
    }

    #[test]
    fn rounds_are_diameter_bounded() {
        let g = grid(12, 12, Orientation::Undirected, WeightRange::unit(), 0);
        let b = fundamental_cycle_basis(&g);
        let d = g.undirected_diameter().unwrap() as u64;
        assert!(
            b.ledger.rounds <= 2 * d + 4,
            "{} rounds ≫ D = {d}",
            b.ledger.rounds
        );
    }
}

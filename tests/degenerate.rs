//! Degenerate and boundary inputs for every public algorithm: tiny
//! graphs, single edges, smallest legal cycles. APIs must return sound
//! answers (or panic with their documented message), never crash with
//! index errors.

use congest_mwc::core::{
    approx_girth, approx_girth_parts, approx_mwc_directed_weighted, approx_mwc_undirected_weighted,
    distributed_apsp, exact_mwc, has_cycle_within, k_source_bfs, shortest_cycle_within, sssp_bfs,
    two_approx_directed_mwc, Params,
};
use congest_mwc::graph::seq::{self, Direction};
use congest_mwc::graph::{Graph, Orientation};

#[test]
fn single_node_everything() {
    for orientation in [Orientation::Directed, Orientation::Undirected] {
        let g = Graph::new(1, orientation);
        let out = exact_mwc(&g);
        out.assert_valid(&g);
        assert_eq!(out.weight, None);
        assert!(!has_cycle_within(&g, 5));
        let apsp = distributed_apsp(&g);
        assert_eq!(apsp.dist(0, 0), 0);
        assert_eq!(apsp.diameter(), None);
        let s = sssp_bfs(&g, 0, Direction::Forward);
        assert_eq!(s.get_row(0, 0), 0);
        let k = k_source_bfs(&g, &[0], Direction::Forward, &Params::new());
        assert_eq!(k.get(0, 0), 0);
    }
    let g = Graph::directed(1);
    assert_eq!(two_approx_directed_mwc(&g, &Params::new()).weight, None);
    let g = Graph::undirected(1);
    assert_eq!(approx_girth(&g, &Params::new()).weight, None);
    assert_eq!(
        approx_mwc_undirected_weighted(&g, &Params::new()).weight,
        None
    );
    let g = Graph::directed(1);
    assert_eq!(
        approx_mwc_directed_weighted(&g, &Params::new()).weight,
        None
    );
}

#[test]
fn empty_graph_everything() {
    // No nodes: no cycle, and no BFS tree to convergecast over.
    let params = Params::new();
    for orientation in [Orientation::Directed, Orientation::Undirected] {
        let g = Graph::new(0, orientation);
        assert_eq!(exact_mwc(&g).weight, None);
        assert_eq!(shortest_cycle_within(&g, 5).weight, None);
    }
    let g = Graph::undirected(0);
    assert_eq!(approx_girth(&g, &params).weight, None);
    assert_eq!(approx_girth_parts(&g, &params, true, false).weight, None);
    assert_eq!(approx_mwc_undirected_weighted(&g, &params).weight, None);
    let g = Graph::directed(0);
    assert_eq!(two_approx_directed_mwc(&g, &params).weight, None);
    assert_eq!(approx_mwc_directed_weighted(&g, &params).weight, None);
}

#[test]
fn single_edge_graphs() {
    // Undirected single edge: no cycle possible.
    let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 3)]).unwrap();
    assert_eq!(exact_mwc(&g).weight, None);
    assert_eq!(
        approx_girth(
            &Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap(),
            &Params::new()
        )
        .weight,
        None
    );
    assert_eq!(
        approx_mwc_undirected_weighted(&g, &Params::new()).weight,
        None
    );
    let apsp = distributed_apsp(&g);
    assert_eq!(apsp.dist(0, 1), 3);

    // Directed single edge: still no cycle.
    let g = Graph::from_edges(2, Orientation::Directed, [(0, 1, 1)]).unwrap();
    assert_eq!(exact_mwc(&g).weight, None);
    assert_eq!(two_approx_directed_mwc(&g, &Params::new()).weight, None);
    assert!(!has_cycle_within(&g, 2));
}

#[test]
fn smallest_cycles() {
    // Directed 2-cycle — the smallest directed cycle.
    let g = Graph::from_edges(2, Orientation::Directed, [(0, 1, 2), (1, 0, 5)]).unwrap();
    let out = exact_mwc(&g);
    out.assert_valid(&g);
    assert_eq!(out.weight, Some(7));
    let out = two_approx_directed_mwc(
        &Graph::from_edges(2, Orientation::Directed, [(0, 1, 1), (1, 0, 1)]).unwrap(),
        &Params::new(),
    );
    assert_eq!(out.weight, Some(2));
    let wout = approx_mwc_directed_weighted(&g, &Params::new());
    wout.assert_valid(&g);
    let w = wout.weight.expect("2-cycle exists");
    assert!((7..=16).contains(&w));

    // Undirected triangle — the smallest undirected cycle.
    let g = Graph::from_edges(
        3,
        Orientation::Undirected,
        [(0, 1, 1), (1, 2, 1), (2, 0, 1)],
    )
    .unwrap();
    assert_eq!(exact_mwc(&g).weight, Some(3));
    assert_eq!(approx_girth(&g, &Params::new()).weight, Some(3));
    assert_eq!(shortest_cycle_within(&g, 3).weight, Some(3));
}

#[test]
fn zero_weight_edges_in_exact_paths() {
    // Exact algorithms must handle w = 0 (the paper allows {0, …, W});
    // only scaling-based approximations require w ≥ 1.
    let g = Graph::from_edges(
        4,
        Orientation::Directed,
        [(0, 1, 0), (1, 2, 0), (2, 0, 4), (2, 3, 1), (3, 0, 1)],
    )
    .unwrap();
    let out = exact_mwc(&g);
    out.assert_valid(&g);
    assert_eq!(out.weight, Some(2)); // 0 + 0 + 1 + 1 around via node 3
    let apsp = distributed_apsp(&g);
    // Zero-weight edges take a round to cross but add nothing to the
    // distance: announcements carry the true weighted candidate.
    assert_eq!(apsp.dist(0, 2), 0);
}

#[test]
fn two_node_k_source() {
    let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap();
    let out = k_source_bfs(&g, &[0, 1], Direction::Forward, &Params::new());
    assert_eq!(out.get(0, 1), 1);
    assert_eq!(out.get(1, 0), 1);
    assert_eq!(out.path_row(0, 1), Some(vec![0, 1]));
}

#[test]
fn self_loop_and_duplicate_rejection_surface_errors() {
    let mut g = Graph::directed(2);
    assert!(g.add_edge(1, 1, 1).is_err());
    g.add_edge(0, 1, 1).unwrap();
    assert!(g.add_edge(0, 1, 9).is_err());
    // The graph is still usable after rejected mutations.
    g.add_edge(1, 0, 1).unwrap();
    assert_eq!(exact_mwc(&g).weight, Some(2));
}

#[test]
fn detection_q_equals_minimum_length() {
    let g = Graph::from_edges(2, Orientation::Directed, [(0, 1, 1), (1, 0, 1)]).unwrap();
    assert!(has_cycle_within(&g, 2));
    let g = Graph::from_edges(
        3,
        Orientation::Undirected,
        [(0, 1, 1), (1, 2, 1), (2, 0, 1)],
    )
    .unwrap();
    assert!(has_cycle_within(&g, 3));
}

/// Every exact sequential oracle applicable to `g`, by name.
fn seq_oracles(g: &Graph) -> Vec<(&'static str, Option<seq::Mwc>)> {
    let mut out = vec![("mwc_exact", seq::mwc_exact(g))];
    if g.is_directed() {
        out.push(("mwc_directed_exact", seq::mwc_directed_exact(g)));
    } else {
        out.push(("girth_exact", seq::girth_exact(g)));
        out.push(("mwc_undirected_exact", seq::mwc_undirected_exact(g)));
    }
    out
}

#[test]
fn seq_oracles_find_no_cycle_in_tiny_graphs_and_forests() {
    for orientation in [Orientation::Directed, Orientation::Undirected] {
        let graphs = [
            Graph::new(0, orientation),
            Graph::new(1, orientation),
            Graph::from_edges(2, orientation, [(0, 1, 1)]).unwrap(),
            Graph::from_edges(6, orientation, [(0, 1, 1), (1, 2, 2), (1, 3, 1), (4, 5, 3)])
                .unwrap(),
        ];
        for g in &graphs {
            for (name, m) in seq_oracles(g) {
                assert_eq!(m, None, "{name} on n = {}, {orientation:?}", g.n());
            }
        }
    }
}

#[test]
fn girth_in_the_higher_numbered_component() {
    // A 5-cycle on 0..5 and a triangle on 5..8: every source of the first
    // component only sees the 5-cycle, so the witness comes from a later
    // source.
    let g = Graph::from_edges(
        8,
        Orientation::Undirected,
        [
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 1),
            (3, 4, 1),
            (4, 0, 1),
            (5, 6, 1),
            (6, 7, 1),
            (7, 5, 1),
        ],
    )
    .unwrap();
    let m = seq::girth_exact(&g).expect("graph has cycles");
    assert_eq!(m.weight, 3);
    assert_eq!(m.witness.vertices(), [5, 6, 7]);
    for (name, m) in seq_oracles(&g) {
        let m = m.expect("graph has cycles");
        assert_eq!(m.witness.validate(&g), Ok(3), "{name}");
    }
}

#[test]
fn zero_weight_cycles_settle_at_a_zero_bound() {
    // Two zero-weight cycles: once the first one drives the shared bound
    // to 0, every later search runs with a zero cutoff.
    let g = Graph::from_edges(
        6,
        Orientation::Undirected,
        [
            (0, 1, 0),
            (1, 2, 0),
            (2, 0, 0),
            (2, 3, 1),
            (3, 4, 0),
            (4, 5, 0),
            (5, 3, 0),
        ],
    )
    .unwrap();
    let m = seq::mwc_undirected_exact(&g).expect("graph has cycles");
    assert_eq!((m.weight, m.witness.vertices()), (0, &[0, 2, 1][..]));
    assert_eq!(m.witness.validate(&g), Ok(0));

    let g = Graph::from_edges(
        5,
        Orientation::Directed,
        [
            (0, 1, 0),
            (1, 2, 0),
            (2, 0, 0),
            (2, 3, 1),
            (3, 4, 0),
            (4, 3, 0),
        ],
    )
    .unwrap();
    let m = seq::mwc_directed_exact(&g).expect("graph has cycles");
    assert_eq!((m.weight, m.witness.vertices()), (0, &[0, 1, 2][..]));
    assert_eq!(m.witness.validate(&g), Ok(0));
}

#[test]
fn near_infinite_cycle_weight_does_not_overflow() {
    // The triangle weighs INF − 1; relaxing the heavy edge twice would
    // exceed INF.
    let heavy = seq::INF - 3;
    for orientation in [Orientation::Directed, Orientation::Undirected] {
        let g = Graph::from_edges(3, orientation, [(0, 1, heavy), (1, 2, 1), (2, 0, 1)]).unwrap();
        for (name, m) in seq_oracles(&g) {
            // The girth oracle counts hops, not weight.
            let want = if name == "girth_exact" {
                3
            } else {
                seq::INF - 1
            };
            let m = m.expect("graph has a cycle");
            assert_eq!(m.weight, want, "{name}, {orientation:?}");
            assert!(m.witness.validate(&g).is_ok(), "{name}");
        }
    }
}

//! Tier-1 regression check on the theoretical round bounds.
//!
//! Every instrumented entry point registers its paper bound with
//! `mwc_trace::check_bound`; this test runs the full algorithm surface on
//! three graph families (random connected G(n,m), grids, rings with
//! chords) inside an in-memory trace session and asserts that every
//! recorded audit respects `measured ≤ bound`.
//!
//! In debug builds `check_bound` itself asserts, so this file's value is
//! (a) release-mode coverage and (b) pinning that the entry points
//! actually *emit* audits — a silently-deleted `check_bound` call would
//! otherwise pass every test.

use mwc_core::{
    approx_girth, approx_girth_parts, approx_mwc_directed_weighted, approx_mwc_undirected_weighted,
    exact_girth, exact_mwc, fundamental_cycle_basis, k_source_approx_sssp, k_source_bfs,
    shortest_cycle_within, sssp_bfs, sssp_exact_weighted, two_approx_directed_mwc, Params,
};
use mwc_graph::generators::{connected_gnm, grid, ring_with_chords, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Orientation};
use mwc_trace::TraceSession;

/// Runs `run` under a memory trace session and asserts every audit it
/// records stays within its bound. Returns the audit count.
fn audited(label: &str, run: impl FnOnce()) -> usize {
    let session = TraceSession::memory();
    run();
    let data = session.finish();
    let audits = data.all_audits();
    assert!(!audits.is_empty(), "{label}: no bound audits recorded");
    for a in &audits {
        assert!(
            a.measured_rounds as f64 <= a.bound_rounds.max(1.0),
            "{label}: {} measured {} rounds > bound {:.0} (inputs {:?})",
            a.algorithm,
            a.measured_rounds,
            a.bound_rounds,
            a.inputs,
        );
    }
    audits.len()
}

fn sources(g: &Graph, k: usize) -> Vec<NodeId> {
    (0..g.n()).step_by((g.n() / k).max(1)).collect()
}

#[test]
fn gnm_family_respects_bounds() {
    let params = Params::lean().with_seed(42);
    let gu = connected_gnm(72, 144, Orientation::Undirected, WeightRange::unit(), 5);
    let gw = connected_gnm(
        72,
        144,
        Orientation::Undirected,
        WeightRange::uniform(1, 8),
        13,
    );
    let gd = connected_gnm(72, 216, Orientation::Directed, WeightRange::unit(), 7);
    let gdw = connected_gnm(
        72,
        216,
        Orientation::Directed,
        WeightRange::uniform(1, 8),
        11,
    );
    audited("gnm/girth", || {
        approx_girth(&gu, &params);
        approx_girth_parts(&gu, &params, true, true);
        exact_girth(&gu);
    });
    audited("gnm/weighted", || {
        approx_mwc_undirected_weighted(&gw, &params);
        approx_mwc_directed_weighted(&gdw, &params);
    });
    audited("gnm/directed", || {
        two_approx_directed_mwc(&gd, &params);
    });
    audited("gnm/ksssp", || {
        k_source_bfs(&gu, &sources(&gu, 8), Direction::Forward, &params);
        k_source_approx_sssp(&gw, &sources(&gw, 8), Direction::Forward, &params);
    });
}

#[test]
fn grid_family_respects_bounds() {
    let params = Params::lean().with_seed(42);
    let g = grid(8, 8, Orientation::Undirected, WeightRange::unit(), 0);
    let gw = grid(6, 6, Orientation::Undirected, WeightRange::uniform(1, 5), 3);
    let count = audited("grid", || {
        exact_mwc(&g);
        shortest_cycle_within(&g, 12);
        fundamental_cycle_basis(&g);
        sssp_bfs(&g, 0, Direction::Forward);
        sssp_exact_weighted(&gw, 0, Direction::Forward);
        approx_girth(&g, &params);
    });
    assert!(
        count >= 6,
        "expected one audit per entry point, got {count}"
    );
}

#[test]
fn ring_family_respects_bounds() {
    let params = Params::lean().with_seed(42);
    let g = ring_with_chords(64, 16, Orientation::Undirected, WeightRange::unit(), 9);
    let gd = ring_with_chords(64, 16, Orientation::Directed, WeightRange::unit(), 17);
    audited("ring/undirected", || {
        exact_mwc(&g);
        approx_girth(&g, &params);
        k_source_bfs(&g, &sources(&g, 8), Direction::Forward, &params);
    });
    audited("ring/directed", || {
        two_approx_directed_mwc(&gd, &params);
        shortest_cycle_within(&gd, 64);
    });
}

/// Tracing must never perturb the simulation: the same run with and
/// without an active trace session produces identical ledgers.
#[test]
fn tracing_is_observation_only() {
    let params = Params::lean().with_seed(42);
    let g = connected_gnm(64, 128, Orientation::Undirected, WeightRange::unit(), 5);
    let baseline = approx_girth(&g, &params);
    let session = TraceSession::memory();
    let traced = approx_girth(&g, &params);
    let data = session.finish();
    assert!(!data.roots.is_empty());
    assert_eq!(baseline.ledger.rounds, traced.ledger.rounds);
    assert_eq!(baseline.ledger.words, traced.ledger.words);
    assert_eq!(baseline.weight, traced.weight);
}

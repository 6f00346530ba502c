//! Differential test for the phase cache: every entry point must produce
//! **byte-identical** results with and without the cache — the cache may
//! only change *round accounting*, never distances, weights, or
//! witnesses. A flood the flood memo replays is charged in full, so it
//! changes nothing at all. The uncached runs disable the cache through
//! its per-thread guard, so parallel tests do not interfere.

use mwc_congest::{Ledger, PhaseCache};
use mwc_core::exact::exact_mwc;
use mwc_core::{
    approx_girth, approx_mwc_directed_weighted, approx_mwc_undirected_weighted,
    k_source_approx_sssp, k_source_bfs, two_approx_directed_mwc, Params,
};
use mwc_graph::generators::{connected_gnm, ring_with_chords, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, Orientation};

/// Runs `f` twice — cache enabled (the default inside every entry point)
/// and force-disabled — and checks the invariants every pair must satisfy.
/// Returns both ledgers (cached, uncached) for entry-specific assertions.
fn differential<T: PartialEq + std::fmt::Debug>(
    label: &str,
    f: impl Fn() -> (T, Ledger),
) -> (Ledger, Ledger) {
    let (cached_out, cached) = f();
    let (plain_out, plain) = {
        let _off = PhaseCache::disable_for_thread();
        f()
    };
    assert_eq!(
        cached_out, plain_out,
        "{label}: results diverge under caching"
    );
    assert!(
        cached.rounds <= plain.rounds,
        "{label}: cache made the run slower ({} > {})",
        cached.rounds,
        plain.rounds
    );
    assert_eq!(
        plain.rounds - cached.rounds,
        cached.rounds_saved,
        "{label}: rounds_saved must account exactly for the round delta"
    );
    assert_eq!(
        plain.rounds_saved, 0,
        "{label}: disabled run credited savings"
    );
    (cached, plain)
}

/// The ledger phases must show at most one real BFS-tree build per graph
/// fingerprint (directed entry points also search `g.reversed()`, a
/// distinct fingerprint) and at least one replay from cache.
fn assert_tree_cached_once(label: &str, ledger: &Ledger, fingerprints: usize) {
    let builds = ledger
        .phases
        .iter()
        .filter(|p| p.label == "bfs tree")
        .count();
    let replays = ledger
        .phases
        .iter()
        .filter(|p| p.label.starts_with("cached: bfs tree"))
        .count();
    assert!(
        (1..=fingerprints).contains(&builds),
        "{label}: {builds} real BFS-tree builds for {fingerprints} graph fingerprint(s)"
    );
    assert!(replays > 0, "{label}: no cache-replay phase recorded");
}

/// Apart from BFS-tree builds, which a cache hit turns into zero-cost
/// `cached: bfs tree` markers, every phase must match the uncached run's
/// in order — label, rounds and words. Floods the
/// flood memo replays are charged in full, so they leave no trace here.
fn assert_phases_match_uncached(label: &str, cached: &Ledger, plain: &Ledger) {
    let flood_phases = |ledger: &Ledger| -> Vec<String> {
        ledger
            .phases
            .iter()
            .filter(|p| p.label != "bfs tree" && !p.label.starts_with("cached: bfs tree"))
            .map(|p| format!("{p:?}"))
            .collect()
    };
    let (cached, plain) = (flood_phases(cached), flood_phases(plain));
    assert_eq!(cached.len(), plain.len(), "{label}: phase count");
    for (i, (c, p)) in cached.iter().zip(&plain).enumerate() {
        assert_eq!(c, p, "{label}: phase {i}");
    }
}

#[test]
fn undirected_weighted_is_cache_invariant() {
    let g = connected_gnm(
        72,
        150,
        Orientation::Undirected,
        WeightRange::uniform(1, 25),
        41,
    );
    let params = Params::new().with_seed(7).with_epsilon(0.25);
    let (cached, _) = differential("approx_mwc_undirected_weighted", || {
        let out = approx_mwc_undirected_weighted(&g, &params);
        (
            (out.weight, out.witness.map(|w| w.vertices().to_vec())),
            out.ledger,
        )
    });
    assert!(cached.rounds_saved > 0, "weighted run should hit the cache");
    assert_tree_cached_once("approx_mwc_undirected_weighted", &cached, 1);
}

#[test]
fn directed_weighted_is_cache_invariant() {
    // The second instance (an `approx_quality` family graph) has an exact
    // and a coarse-scale latency table that a weak flood-key digest once
    // merged, replaying the wrong flood's charges.
    let instances = [
        (
            connected_gnm(
                48,
                120,
                Orientation::Directed,
                WeightRange::uniform(1, 12),
                17,
            ),
            3,
        ),
        (
            connected_gnm(
                32,
                128,
                Orientation::Directed,
                WeightRange::uniform(1, 10),
                204,
            ),
            2,
        ),
    ];
    for (g, seed) in &instances {
        let params = Params::new().with_seed(*seed).with_epsilon(0.25);
        let (cached, plain) = differential("approx_mwc_directed_weighted", || {
            let out = approx_mwc_directed_weighted(g, &params);
            (
                (out.weight, out.witness.map(|w| w.vertices().to_vec())),
                out.ledger,
            )
        });
        assert!(cached.rounds_saved > 0, "weighted run should hit the cache");
        assert_tree_cached_once("approx_mwc_directed_weighted", &cached, 2);
        assert_phases_match_uncached("approx_mwc_directed_weighted", &cached, &plain);
    }
}

/// Theorem 1.2.D runs Algorithm 1 forward and on the reversed graph from
/// the same samples, and each run also charges the other's segment
/// floods ("reverse segments from S"). Under one scope the flood memo
/// replays exactly one flood per charged reverse-segment phase: the
/// forward run's charge-only floods are parked for the reverse run's real
/// ones, and the reverse run's charge-only floods repeat the forward
/// run's real ones.
#[test]
fn directed_weighted_replays_each_reverse_segment_flood() {
    let g = connected_gnm(
        256,
        256,
        Orientation::Directed,
        WeightRange::uniform(1, 64),
        21,
    );
    let params = Params::new().with_seed(21).with_epsilon(0.25);
    let _scope = PhaseCache::scope();
    let out = approx_mwc_directed_weighted(&g, &params);
    let reverse_segments = out
        .ledger
        .phases
        .iter()
        .filter(|p| p.label.starts_with("reverse segments from S"))
        .count() as u64;
    assert!(
        reverse_segments > 0,
        "the solve must take the skeleton path"
    );
    let stats = PhaseCache::stats().expect("scope installed");
    assert_eq!(stats.flood_replays, reverse_segments);
}

#[test]
fn girth_is_cache_invariant() {
    let g = ring_with_chords(80, 6, Orientation::Undirected, WeightRange::unit(), 5);
    let params = Params::new().with_seed(11);
    differential("approx_girth", || {
        let out = approx_girth(&g, &params);
        (
            (out.weight, out.witness.map(|w| w.vertices().to_vec())),
            out.ledger,
        )
    });
}

#[test]
fn directed_two_approx_is_cache_invariant() {
    let g = connected_gnm(48, 120, Orientation::Directed, WeightRange::unit(), 23);
    let params = Params::new().with_seed(9);
    let (cached, plain) = differential("two_approx_directed_mwc", || {
        let out = two_approx_directed_mwc(&g, &params);
        (
            (out.weight, out.witness.map(|w| w.vertices().to_vec())),
            out.ledger,
        )
    });
    // Algorithm 2 builds the tree for the d(s,t) broadcast and again for
    // the final convergecast; the second build must be a replay.
    assert!(
        cached.rounds_saved > 0,
        "second tree build should be cached"
    );
    assert_tree_cached_once("two_approx_directed_mwc", &cached, 2);
    assert_phases_match_uncached("two_approx_directed_mwc", &cached, &plain);
}

#[test]
fn exact_mwc_is_cache_invariant() {
    let g = connected_gnm(
        40,
        90,
        Orientation::Undirected,
        WeightRange::uniform(1, 9),
        31,
    );
    differential("exact_mwc", || {
        let out = exact_mwc(&g);
        (
            (out.weight, out.witness.map(|w| w.vertices().to_vec())),
            out.ledger,
        )
    });
}

#[test]
fn ksssp_is_cache_invariant() {
    let g = connected_gnm(90, 190, Orientation::Directed, WeightRange::unit(), 2);
    let params = Params::new().with_seed(4);
    let sources = [0usize, 19, 55];
    differential("k_source_bfs", || {
        let out = k_source_bfs(&g, &sources, Direction::Forward, &params);
        let dists: Vec<_> = (0..g.n()).map(|v| out.get_row(0, v)).collect();
        (dists, out.ledger)
    });

    let gw = connected_gnm(
        70,
        150,
        Orientation::Directed,
        WeightRange::uniform(1, 20),
        13,
    );
    let params = Params::new().with_seed(2).with_epsilon(0.25);
    differential("k_source_approx_sssp", || {
        let out = k_source_approx_sssp(&gw, &sources, Direction::Forward, &params);
        let dists: Vec<_> = (0..gw.n()).map(|v| out.get_row(1, v)).collect();
        (dists, out.ledger)
    });
}

#[test]
fn shared_scope_builds_each_fingerprint_once() {
    // A caller-managed scope spanning several entry points (the bench-bin
    // pattern): the tree for this graph is built exactly once across all
    // of them, and every algorithm still returns its uncached answer.
    let g = connected_gnm(64, 130, Orientation::Undirected, WeightRange::unit(), 8);
    let params = Params::new().with_seed(6);

    let (plain_girth, plain_exact) = {
        let _off = PhaseCache::disable_for_thread();
        (approx_girth(&g, &params).weight, exact_mwc(&g).weight)
    };

    let _scope = PhaseCache::scope();
    let a = approx_girth(&g, &params);
    let b = exact_mwc(&g);
    assert_eq!(a.weight, plain_girth);
    assert_eq!(b.weight, plain_exact);
    let builds = a
        .ledger
        .phases
        .iter()
        .chain(b.ledger.phases.iter())
        .filter(|p| p.label == "bfs tree")
        .count();
    assert_eq!(builds, 1, "one tree build for one fingerprint in one scope");
    assert!(
        b.ledger.rounds_saved > 0,
        "the second entry point must replay the tree built by the first"
    );
}

#[test]
fn degenerate_graphs_are_safe_under_caching() {
    // Tiny / edge-case graphs go through the same cached code paths.
    let lone = Graph::undirected(1);
    let out = exact_mwc(&lone);
    assert_eq!(out.weight, None);

    let mut pair = Graph::directed(2);
    pair.add_edge(0, 1, 3).unwrap();
    pair.add_edge(1, 0, 4).unwrap();
    let out = exact_mwc(&pair);
    assert_eq!(out.weight, Some(7));
}

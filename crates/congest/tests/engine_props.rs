//! Property-based tests of the CONGEST engine's bandwidth and ordering
//! invariants — the trustworthiness of every round count in the
//! repository rests on these.
//!
//! Runs on `mwc_rng::proptest_lite`; new failures persist their case
//! seed under `proplite-regressions/`.

use mwc_congest::{
    broadcast, multi_source_bfs, BfsTree, Ledger, MultiBfsSpec, Network, RoundOutput,
};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::seq::{bfs, Direction, HOP_INF};
use mwc_graph::{Graph, NodeId, Orientation};
use mwc_rng::proptest_lite::{self as plite, Config};
use mwc_rng::{prop_assert, prop_assert_eq, prop_tests, StdRng};

/// A directed graph on `n` nodes whose last `isolated` nodes have no
/// edges: about `m` random edges among the others, a share of them
/// doubled into antiparallel pairs.
fn directed_with_pairs(n: usize, m: usize, isolated: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let live = n - isolated;
    let mut g = Graph::directed(n);
    if live < 2 {
        return g;
    }
    for _ in 0..m {
        let u = rng.random_range(0..live);
        let v = rng.random_range(0..live);
        if u == v || g.has_edge(u, v) {
            continue;
        }
        g.add_edge(u, v, 1).unwrap();
        if rng.random_bool(0.3) && !g.has_edge(v, u) {
            g.add_edge(v, u, 1).unwrap();
        }
    }
    g
}

/// Checks `g`'s engine link table against a reference built from
/// [`Graph::comm_neighbors`]: the same `(from, to)` table in the same
/// link-id order, and the same `link_id` answer for every ordered node
/// pair (`None` off-link).
fn check_link_table(g: &Graph) -> plite::TestCaseResult {
    let n = g.n();
    let reference: Vec<(NodeId, NodeId)> = (0..n)
        .flat_map(|u| g.comm_neighbors(u).into_iter().map(move |v| (u, v)))
        .collect();
    let net: Network<()> = Network::new(g);
    prop_assert_eq!(net.link_ends(), &reference[..]);
    for u in 0..n {
        for v in 0..n {
            let want = reference.iter().position(|&e| e == (u, v));
            prop_assert_eq!(net.link_id(u, v), want, "link_id({}, {})", u, v);
        }
    }
    Ok(())
}

prop_tests! {
    config = Config::with_cases(48);

    /// FIFO per link: messages queued on one link arrive in send order,
    /// exactly `Σ words` rounds after the first transfer begins.
    fn fifo_and_bandwidth(words in plite::vec(1u64..5, 1..20)) {
        let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap();
        let mut net: Network<usize> = Network::new(&g);
        for (i, &w) in words.iter().enumerate() {
            net.send(0, 1, i, w).unwrap();
        }
        let mut received = Vec::new();
        let mut out = RoundOutput::default();
        while net.step_bulk_into(&mut out) {
            for d in out.deliveries.drain(..) {
                received.push((net.round(), d.payload));
            }
        }
        // In order…
        let payloads: Vec<usize> = received.iter().map(|&(_, p)| p).collect();
        prop_assert_eq!(payloads, (0..words.len()).collect::<Vec<_>>());
        // …and each message lands exactly at the prefix sum of words.
        let mut acc = 0;
        for (&(round, _), &w) in received.iter().zip(&words) {
            acc += w;
            prop_assert_eq!(round, acc);
        }
        // Total words conserved.
        prop_assert_eq!(net.stats().words, words.iter().sum::<u64>());
    }

    /// Latency delays delivery without consuming bandwidth: k unit
    /// messages over a latency-L link finish at rounds L+1 … L+k.
    fn latency_pipelines(k in 1u64..12, lat in 0u64..9) {
        let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap();
        let mut net: Network<u64> = Network::new(&g);
        for i in 0..k {
            net.send_latency(0, 1, i, 1, lat).unwrap();
        }
        let mut arrivals = Vec::new();
        let mut out = RoundOutput::default();
        while net.step_bulk_into(&mut out) {
            for d in out.deliveries.drain(..) {
                arrivals.push((net.round(), d.payload));
            }
        }
        prop_assert_eq!(arrivals.len() as u64, k);
        for (i, &(round, payload)) in arrivals.iter().enumerate() {
            prop_assert_eq!(payload, i as u64);
            prop_assert_eq!(round, lat + 1 + i as u64);
        }
    }

    /// Multi-source BFS is exact on arbitrary connected graphs, both
    /// orientations, arbitrary source sets.
    fn multibfs_exact(seed in 0u64..5000, n in 4usize..30, extra in 0usize..60, nsrc in 1usize..5) {
        for orientation in [Orientation::Directed, Orientation::Undirected] {
            let g = connected_gnm(n, extra, orientation, WeightRange::unit(), seed);
            let sources: Vec<NodeId> = (0..nsrc.min(n)).map(|i| (i * 7) % n).collect::<Vec<_>>();
            let mut srcs = sources.clone();
            srcs.sort_unstable();
            srcs.dedup();
            let mut ledger = Ledger::new();
            let mat = multi_source_bfs(&g, &srcs, &MultiBfsSpec::default(), "p", &mut ledger);
            for (row, &s) in srcs.iter().enumerate() {
                let t = bfs(&g, s, Direction::Forward);
                for v in 0..n {
                    let expect = if t.dist[v] == HOP_INF { u64::MAX } else { t.dist[v] as u64 };
                    prop_assert_eq!(mat.get_row(row, v), expect);
                }
            }
        }
    }

    /// Broadcast delivers every item to the root and costs within the
    /// O(M + D) envelope.
    fn broadcast_envelope(seed in 0u64..5000, n in 3usize..24, items in 1usize..40) {
        let g = connected_gnm(n, n, Orientation::Undirected, WeightRange::unit(), seed);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let payload: Vec<(NodeId, u64)> =
            (0..items).map(|i| ((i * 3) % n, i as u64)).collect();
        let mut bl = Ledger::new();
        let got = broadcast(&g, &tree, payload, 1, &mut bl);
        prop_assert_eq!(got.len(), items);
        let mut values: Vec<u64> = got.iter().map(|&(_, x)| x).collect();
        values.sort_unstable();
        prop_assert_eq!(values, (0..items as u64).collect::<Vec<_>>());
        let envelope = 4 * (items as u64 + 2 * tree.height as u64 + 2);
        prop_assert!(bl.rounds <= envelope, "{} > {}", bl.rounds, envelope);
    }

    /// The flat link table matches the adjacency-list reference on
    /// random undirected graphs.
    fn link_table_matches_reference_undirected(seed in 0u64..5000, n in 1usize..30, extra in 0usize..60) {
        let g = connected_gnm(n, extra, Orientation::Undirected, WeightRange::unit(), seed);
        check_link_table(&g)?;
    }

    /// The same on directed graphs with antiparallel pairs (one link per
    /// direction, not two) and edgeless trailing nodes (empty slices at
    /// the end of the offset table).
    fn link_table_matches_reference_directed(seed in 0u64..5000, n in 1usize..30, m in 0usize..80, isolated in 0usize..4) {
        let g = directed_with_pairs(n, m, isolated.min(n), seed);
        check_link_table(&g)?;
    }

    /// Word accounting is conserved across a full BFS: words recorded by
    /// the ledger equal the per-link sums.
    fn ledger_conservation(seed in 0u64..5000, n in 4usize..20) {
        let g = connected_gnm(n, n, Orientation::Undirected, WeightRange::unit(), seed);
        let mut ledger = Ledger::new();
        let _ = multi_source_bfs(&g, &[0], &MultiBfsSpec::default(), "p", &mut ledger);
        // Total = cut(all-on-one-side complement) decomposition: every
        // word crosses exactly one link, so splitting nodes into {0} vs
        // rest and summing per-node cuts double-counts internal links —
        // instead check the trivial identity: cut of (all true) is 0 and
        // cut(single v) sums to ≤ 2·total.
        prop_assert_eq!(ledger.words_across(&vec![true; n]), 0);
        let mut sum = 0;
        for v in 0..n {
            let mut side = vec![false; n];
            side[v] = true;
            sum += ledger.words_across(&side);
        }
        prop_assert_eq!(sum, 2 * ledger.words);
    }
}

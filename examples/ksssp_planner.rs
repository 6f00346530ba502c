//! Multi-source shortest paths as a building block: latency estimation
//! from `k` gateway nodes (Theorem 1.6 / Algorithm 1 used directly).
//!
//! Every node of a weighted network learns its (1+ε)-approximate distance
//! from each of `k` gateways in `Õ(√(nk) + D)` rounds — far less than
//! running SSSP from each gateway in sequence. The example also extracts
//! the actual paths for a few nodes and verifies them edge by edge.
//!
//! Run with: `cargo run --release --example ksssp_planner`

use congest_mwc::core::{k_source_approx_sssp, k_source_bfs, Params};
use congest_mwc::graph::generators::{connected_gnm, WeightRange};
use congest_mwc::graph::seq::Direction;
use congest_mwc::graph::{NodeId, Orientation};

fn main() {
    let n = 1000;
    let k = 12;
    let g = connected_gnm(
        n,
        2500,
        Orientation::Directed,
        WeightRange::uniform(1, 20),
        31,
    );
    let gateways: Vec<NodeId> = (0..k).map(|i| i * n / k).collect();
    println!("network: n = {n}, m = {}, gateways: {gateways:?}", g.m());

    // Exact hop distances (unweighted view) — Theorem 1.6.A.
    let params = Params::lean().with_seed(2);
    let hops = k_source_bfs(&g, &gateways, Direction::Forward, &params);
    println!(
        "\nk-source BFS (exact hops): {} rounds (≈ √(nk) = {:.0} up to polylogs)",
        hops.ledger.rounds,
        ((n * k) as f64).sqrt()
    );

    // (1+ε)-approximate weighted latencies — Theorem 1.6.B.
    let sssp = k_source_approx_sssp(&g, &gateways, Direction::Forward, &params);
    println!(
        "k-source (1+ε)-SSSP (weighted): {} rounds, effective ε = {}",
        sssp.ledger.rounds,
        sssp.epsilon()
    );

    // Every node now knows its nearest gateway; show a sample.
    println!("\nnode → nearest gateway (weighted estimate, hop distance):");
    for v in [3, 250, 500, 750, 999] {
        let (best_gw, best_d) = gateways
            .iter()
            .enumerate()
            .map(|(row, &gw)| (gw, sssp.get_row(row, v)))
            .min_by_key(|&(_, d)| d)
            .expect("k ≥ 1");
        let row = gateways.iter().position(|&gw| gw == best_gw).unwrap();
        let hop = hops.get_row(row, v);
        println!("  node {v:4} → gateway {best_gw:4}: latency ≈ {best_d:4}, {hop} hops");

        // Reconstruct and verify the actual route.
        if let Some(path) = sssp.path_row(row, v) {
            let mut total = 0;
            for e in path.windows(2) {
                total += g.weight(e[0], e[1]).expect("route uses real links");
            }
            assert!(total <= best_d, "route weight exceeds the estimate");
            println!(
                "        route: {} links, true weight {total} ≤ estimate {best_d}",
                path.len() - 1
            );
        }
    }
}

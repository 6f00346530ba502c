//! Writing your own CONGEST algorithm on the engine's `Network`: a
//! distributed *local triangle counter*.
//!
//! Each node sends its (id-sorted) adjacency list to every neighbor; on
//! receipt it intersects the list with its own to count triangles it
//! participates in. Locality is enforced by the network — `Network::send`
//! refuses any pair that is not a link — and the ledger reports what the
//! exchange cost in CONGEST rounds (Θ(max degree), since adjacency lists
//! are Θ(deg) words).
//!
//! Run with: `cargo run --release --example custom_algorithm`

use congest_mwc::congest::{Ledger, Network, RoundOutput};
use congest_mwc::graph::generators::{connected_gnm, WeightRange};
use congest_mwc::graph::{NodeId, Orientation};
use std::sync::Arc;

/// Sequential reference count.
fn triangles_sequential(g: &congest_mwc::graph::Graph) -> u64 {
    let mut count = 0;
    for e in g.edges() {
        for a in g.out_adj(e.u) {
            if a.to != e.v && g.has_edge(a.to, e.v) {
                count += 1;
            }
        }
    }
    count / 3 // each triangle counted once per vertex
}

fn main() {
    let g = connected_gnm(300, 1800, Orientation::Undirected, WeightRange::unit(), 99);
    println!("network: n = {}, m = {}", g.n(), g.m());

    // What each node knows of the topology: its own neighbors, id-sorted.
    let adj: Vec<Arc<Vec<NodeId>>> = (0..g.n())
        .map(|v| {
            let mut a = g.comm_neighbors(v);
            a.sort_unstable();
            Arc::new(a)
        })
        .collect();
    let mut net: Network<Arc<Vec<NodeId>>> = Network::new(&g);
    for (v, mine) in adj.iter().enumerate() {
        for to in g.comm_neighbors(v) {
            net.send(v, to, Arc::clone(mine), mine.len().max(1) as u64)
                .expect("communication neighbors are links");
        }
    }

    // Triangles each node participates in, counted with multiplicity 2
    // (once per incident edge pair ordering).
    let mut double_count = vec![0u64; g.n()];
    let mut out = RoundOutput::default();
    while net.step_bulk_into(&mut out) {
        for d in out.deliveries.drain(..) {
            // Common neighbors of `to` and `from` close triangles
            // (to, from, x).
            let mine = &adj[d.to];
            double_count[d.to] += d
                .payload
                .iter()
                .filter(|&&x| x != d.from && mine.binary_search(&x).is_ok())
                .count() as u64;
        }
    }
    let mut ledger = Ledger::new();
    ledger.absorb("adjacency exchange", &net);

    // Every triangle is double-counted at each of its 3 vertices.
    let triangles = double_count.iter().sum::<u64>() / 6;
    let reference = triangles_sequential(&g);
    println!("distributed triangle count: {triangles} (sequential reference: {reference})");
    assert_eq!(triangles, reference);

    println!(
        "cost: {} CONGEST rounds, {} words moved (adjacency exchange ≈ max degree rounds)",
        ledger.rounds, ledger.words
    );
    let max_deg = (0..g.n()).map(|v| g.out_adj(v).len()).max().unwrap();
    println!("max degree = {max_deg}");
}

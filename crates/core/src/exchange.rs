//! Neighbor bulk exchange, charged but not copied.
//!
//! Several steps have every node send one multi-word value to each of its
//! communication neighbors: Algorithm 3 line 11's sample-distance
//! vectors, the girth algorithm's sampled-distance columns and detected
//! lists, the exact and long-cycle scans' distance columns, and the cycle
//! basis' depths. In CONGEST local computation is free (DESIGN §2), so an
//! exchange's only cost is its words on the links.
//! [`charge_neighbor_exchange`] charges exactly those — the same
//! messages, with the same per-sender word counts, in the same send order
//! — through a payload-free `Network<()>`, and returns nothing.
//!
//! After the charge, each receiver reads its neighbor's value **in
//! place** (`values[y]`, the `DistMatrix` column of `y`, ...). That is
//! exact: the sender's value is immutable across the exchange, and a
//! [`Graph`] is simple (no self-loops, no parallel edges), so every edge
//! endpoint is a communication link that delivered precisely that value.

use mwc_congest::{DistMatrix, Ledger, Network, RoundOutput};
use mwc_graph::{Graph, NodeId};

/// Charges one neighbor exchange to `ledger` under `label`: every `v`
/// sends a `words(v)`-word message to each communication neighbor. Costs
/// `O(max_v words(v))` rounds (all links run in parallel). Receivers then
/// read the senders' values in place (see the module docs).
pub(crate) fn charge_neighbor_exchange(
    g: &Graph,
    words: impl Fn(NodeId) -> u64,
    label: &str,
    ledger: &mut Ledger,
) {
    let mut net: Network<()> = Network::new(g);
    run_exchange(&mut net, words);
    ledger.absorb(label, &net);
}

/// Sends the exchange's messages on `net` and steps it until idle. The
/// engine numbers links by sender in ascending order, each sender's in
/// [`Graph::comm_neighbors`] order, so sending on every link id in turn
/// is the per-node, per-neighbor send order without walking adjacency.
fn run_exchange(net: &mut Network<()>, words: impl Fn(NodeId) -> u64) {
    for l in 0..net.link_ends().len() {
        let (v, _) = net.link_ends()[l];
        net.send_on_link(l, (), words(v), 0);
    }
    let mut out = RoundOutput::default();
    while net.step_bulk_into(&mut out) {}
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
    use mwc_congest::{multi_source_bfs, EventCapture, MultiBfsSpec};
    use mwc_graph::generators::{connected_gnm, WeightRange};
    use mwc_graph::Orientation;

    /// Reference for [`run_exchange`]: the same sends, each carrying a
    /// `words(v)`-word payload that is delivered and checked.
    fn payload_exchange(g: &Graph, words: impl Fn(NodeId) -> u64) -> Network<Vec<u64>> {
        let mut net: Network<Vec<u64>> = Network::new(g);
        net.enable_history();
        for v in 0..g.n() {
            let words = words(v);
            for w in g.comm_neighbors(v) {
                net.send(v, w, vec![v as u64; words as usize], words)
                    .unwrap();
            }
        }
        let mut out = RoundOutput::default();
        let mut delivered = 0;
        while net.step_bulk_into(&mut out) {
            for d in out.deliveries.drain(..) {
                assert!(d.payload.iter().all(|&x| x == d.from as u64));
                delivered += 1;
            }
        }
        let links: usize = (0..g.n()).map(|v| g.comm_neighbors(v).len()).sum();
        assert_eq!(delivered, links, "one message per link");
        net
    }

    #[test]
    fn charge_only_exchange_matches_payload_reference() {
        // Mixed per-sender word counts (0 is charged as 1, like any send).
        let words = |v: NodeId| (v as u64 * 7) % 6;
        let undirected = connected_gnm(40, 60, Orientation::Undirected, WeightRange::unit(), 3);
        let directed = connected_gnm(40, 60, Orientation::Directed, WeightRange::unit(), 4);
        for g in [undirected, directed] {
            // The message-event logs pin the delivery (and so the send)
            // order, not just the order-free totals.
            let cap = EventCapture::memory();
            let want = payload_exchange(&g, words);
            let want_events = cap.finish();
            let cap = EventCapture::memory();
            let mut net: Network<()> = Network::new(&g);
            net.enable_history();
            run_exchange(&mut net, words);
            assert_eq!(cap.finish(), want_events);
            assert!(!want_events.is_empty());
            assert_eq!(net.round(), want.round());
            // Every stat: words, messages, per-link words and queue
            // high-waters, active rounds, `words_per_round`, peaks.
            assert_eq!(net.stats(), want.stats());
            assert!(!net.stats().words_per_round.is_empty());

            let (mut got_l, mut want_l) = (Ledger::new(), Ledger::new());
            got_l.absorb("x", &net);
            want_l.absorb("x", &want);
            assert_eq!(
                (got_l.rounds, got_l.words, got_l.messages),
                (want_l.rounds, want_l.words, want_l.messages)
            );
            assert_eq!(got_l.words_per_round(), want_l.words_per_round());
        }
    }

    #[test]
    fn exchange_words_scale_rounds() {
        let g = connected_gnm(16, 20, Orientation::Undirected, WeightRange::unit(), 2);
        let mut l1 = Ledger::new();
        charge_neighbor_exchange(&g, |_| 1, "x", &mut l1);
        let mut l8 = Ledger::new();
        charge_neighbor_exchange(&g, |_| 8, "x", &mut l8);
        assert!(l1.rounds >= 1);
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

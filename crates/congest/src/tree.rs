//! Global BFS tree, broadcast and convergecast — the standard CONGEST
//! building blocks the paper invokes from \[43\] (§1.1):
//!
//! - building a BFS tree of the communication topology costs `O(D)` rounds;
//! - broadcasting `M` words to all nodes costs `O(M + D)` rounds;
//! - a convergecast of an associative operation costs `O(D)` rounds.
//!
//! All three are simulated message by message, so their measured round
//! counts are the ones charged to algorithms. [`BfsTree::build`] steps
//! the engine. The [`broadcast`] and [`convergecast`] phases run the
//! engine's schedule directly and record exactly what stepping would —
//! rounds, words, messages, per-link words, queue high-water, the event
//! log, and the order items reach the root:
//!
//! - the upcasts charge each round with `Network::charge_flood_round`:
//!   the broadcast runs one FIFO of item indices per node toward its
//!   parent and keeps the engine's active-list order; a convergecast
//!   node reports once, the round after its last child's report arrives;
//! - the downcasts are saturated pipelines, charged in closed form by
//!   `Network::charge_pipelined_downcast`.
//!
//! All read their link ids from the tree, which records each node's
//! parent link and the downcast's links in BFS order when it is built.
//!
//! `crates/congest/tests/flood_spec_differential.rs` pins both against
//! engine-stepped references written in the test
//! (`broadcast_matches_engine_stepping`,
//! `convergecast_matches_engine_stepping`).

use crate::engine::{Network, RoundOutput};
use crate::ledger::Ledger;
use crate::workspace;
use mwc_graph::{Graph, NodeId};
use std::sync::Arc;

/// A BFS spanning tree of the communication topology, the backbone for
/// [`broadcast`] and [`convergecast_min`].
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The root node.
    pub root: NodeId,
    /// `parent[v]` for every non-root node.
    pub parent: Vec<Option<NodeId>>,
    /// Hop depth of every node below the root.
    pub depth: Vec<usize>,
    /// Children lists (inverse of `parent`).
    pub children: Vec<Vec<NodeId>>,
    /// Height of the tree (max depth) — at most the diameter `D`.
    pub height: usize,
    /// Per non-root node, the id of its link to its parent (unused at the
    /// root): the upcast's send link.
    parent_link: Vec<u32>,
    /// The tree links `(link id, child depth)` in BFS order (depth
    /// ascending, siblings in `children[]` order): the order a downcast's
    /// active list settles into, which pins the event-log order.
    bfs_links: Vec<(u32, u32)>,
}

impl BfsTree {
    /// Builds the tree by flooding from `root`, charging `O(ecc(root)) ≤
    /// O(D)` rounds to `ledger`.
    ///
    /// # Panics
    ///
    /// Panics if the communication topology is disconnected (a CONGEST
    /// network is connected by assumption).
    pub fn build(g: &Graph, root: NodeId, ledger: &mut Ledger) -> BfsTree {
        Self::build_into(g, root, ledger, |tree| tree)
    }

    /// [`BfsTree::build`] into a shared cell, allocated inside the
    /// `tree/build` span so the span accounts for all of the tree's memory.
    pub(crate) fn build_shared(g: &Graph, root: NodeId, ledger: &mut Ledger) -> Arc<BfsTree> {
        Self::build_into(g, root, ledger, Arc::new)
    }

    fn build_into<T>(
        g: &Graph,
        root: NodeId,
        ledger: &mut Ledger,
        wrap: impl FnOnce(BfsTree) -> T,
    ) -> T {
        let _span = mwc_trace::span("tree/build");
        let n = g.n();
        let mut net: Network<u64> = Network::new(g);
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut parent_link = vec![u32::MAX; n];
        let mut depth = vec![usize::MAX; n];
        depth[root] = 0;
        // Sending on each of a node's links in id order is sending to its
        // `comm_neighbors` in order.
        for l in net.links_from(root) {
            net.send_on_link(l, 1, 1, 0);
        }
        let mut out = RoundOutput::default();
        while net.step_bulk_into(&mut out) {
            for d in out.deliveries.drain(..) {
                let v = d.to;
                if depth[v] == usize::MAX {
                    depth[v] = d.payload as usize;
                    parent[v] = Some(d.from);
                    parent_link[v] = net.link_id(v, d.from).expect("senders are linked") as u32;
                    for l in net.links_from(v) {
                        if depth[net.link_ends()[l].1] == usize::MAX {
                            net.send_on_link(l, d.payload + 1, 1, 0);
                        }
                    }
                }
            }
        }
        ledger.absorb("bfs tree", &net);
        assert!(
            depth.iter().all(|&d| d != usize::MAX),
            "communication topology must be connected"
        );
        let mut children = vec![Vec::new(); n];
        for v in 0..n {
            if let Some(p) = parent[v] {
                children[p].push(v);
            }
        }
        let height = depth.iter().copied().max().unwrap_or(0);
        // The downcast's links, walked breadth-first from the root.
        let mut bfs_links: Vec<(u32, u32)> = Vec::with_capacity(n.saturating_sub(1));
        let push_children = |bfs_links: &mut Vec<(u32, u32)>, v: NodeId| {
            for &c in &children[v] {
                let l = net.link_id(v, c).expect("tree edges are links");
                bfs_links.push((l as u32, depth[c] as u32));
            }
        };
        push_children(&mut bfs_links, root);
        let mut i = 0;
        while i < bfs_links.len() {
            let child = net.link_ends()[bfs_links[i].0 as usize].1;
            push_children(&mut bfs_links, child);
            i += 1;
        }
        mwc_trace::check_bound(
            "congest/bfs_tree",
            mwc_trace::BoundInputs::n(n).diameter(height as u64),
            net.round(),
            crate::bounds::bfs_tree,
        );
        wrap(BfsTree {
            root,
            parent,
            depth,
            children,
            height,
            parent_link,
            bfs_links,
        })
    }
}

/// A node's queue of item indices on its link to its parent: a list
/// threaded through the upcast's per-item `after` links.
#[derive(Clone, Copy, Debug, Default)]
struct Fifo {
    /// The item in transfer (meaningful while `len > 0`).
    head: u32,
    /// The last item queued (meaningful while `len > 0`).
    tail: u32,
    /// Items queued, the head included.
    len: u32,
}

/// The broadcast's buffers, kept in the thread's
/// [`Workspace`](crate::workspace::Workspace) between calls. A finished
/// call leaves every queue empty.
#[derive(Default)]
pub(crate) struct BroadcastBuffers {
    /// Per node, its queue toward the parent; entries past the current
    /// `n` are spares (empty).
    queues: Vec<Fifo>,
    /// Per item, the item queued behind it on the same link.
    after: Vec<u32>,
    /// Links carrying traffic as `(sender, link id)`, in the engine's
    /// active-list order.
    active: Vec<(u32, u32)>,
    /// The next round's `active` while this round's is read.
    next: Vec<(u32, u32)>,
    /// One round's charged link ids, in `active` order.
    links: Vec<u32>,
    /// One delivery round's arrivals as `(receiver, item)`.
    arrived: Vec<(u32, u32)>,
}

impl BroadcastBuffers {
    /// Queues `item` at non-root `v` toward its parent as `Network::send`
    /// would: a link whose queue was empty joins the end of the active
    /// list. Returns the queue's new depth.
    fn send_up(&mut self, tree: &BfsTree, net: &Network<()>, v: NodeId, item: u32) -> u64 {
        let q = &mut self.queues[v];
        if q.len == 0 {
            let l = tree.parent_link[v];
            debug_assert_eq!(
                Some(&(v, tree.parent[v].expect("only non-root nodes send up"))),
                net.link_ends().get(l as usize),
                "the tree was built on this graph"
            );
            self.active.push((v as u32, l));
            q.head = item;
        } else {
            self.after[q.tail as usize] = item;
        }
        q.tail = item;
        q.len += 1;
        u64::from(q.len)
    }

    /// The broadcast upcast: every item climbs from its origin to the root,
    /// `w` words per hop, charged to `net` round by round. Returns the item
    /// indices in the order the root holds them: its own items first, in
    /// input order, then arrivals in delivery order.
    ///
    /// The engine would queue each item on its origin's parent link and
    /// forward it on delivery. Every send happens before round 1 or right
    /// after a delivery round, and every message takes `w` rounds, so all
    /// active links finish their heads in the same rounds: one word counter
    /// serves every head.
    fn upcast(
        &mut self,
        tree: &BfsTree,
        net: &mut Network<()>,
        origins: impl ExactSizeIterator<Item = NodeId>,
        w: u64,
    ) -> Vec<u32> {
        if self.queues.len() < tree.parent.len() {
            self.queues.resize(tree.parent.len(), Fifo::default());
        }
        self.after.clear();
        self.after.resize(origins.len(), 0);
        let mut collected = Vec::with_capacity(origins.len());
        // Deepest queue any send built: the engine's queue high-water.
        let mut depth = 0;
        for (i, origin) in origins.enumerate() {
            let item = u32::try_from(i).expect("item count fits u32");
            match tree.parent[origin] {
                Some(_) => depth = depth.max(self.send_up(tree, net, origin, item)),
                None => collected.push(item),
            }
        }
        let mut round = 0;
        while !self.active.is_empty() {
            self.links.clear();
            self.links.extend(self.active.iter().map(|&(_, l)| l));
            for _ in 1..w {
                round += 1;
                net.charge_flood_round(round, &self.links, std::iter::empty(), w, depth);
            }
            round += 1;
            net.charge_flood_round(round, &self.links, self.links.iter().copied(), w, depth);
            // Every head arrives; links with more queued stay, in order.
            self.arrived.clear();
            self.next.clear();
            for &(v, l) in &self.active {
                let q = &mut self.queues[v as usize];
                debug_assert!(q.len > 0, "active links have queued items");
                let item = q.head;
                q.len -= 1;
                let p = tree.parent[v as usize].expect("only non-root nodes send up");
                self.arrived.push((p as u32, item));
                if q.len > 0 {
                    q.head = self.after[item as usize];
                    self.next.push((v, l));
                }
            }
            std::mem::swap(&mut self.active, &mut self.next);
            // Receivers forward in delivery order, re-activated links last.
            for k in 0..self.arrived.len() {
                let (p, item) = self.arrived[k];
                match tree.parent[p as usize] {
                    Some(_) => depth = depth.max(self.send_up(tree, net, p as usize, item)),
                    None => collected.push(item),
                }
            }
        }
        debug_assert!(
            self.queues.iter().all(|q| q.len == 0),
            "upcast left items queued"
        );
        collected
    }
}

/// Broadcasts every `(origin, item)` to **all** nodes by pipelining items
/// up to the root and flooding them back down the tree. Each item occupies
/// `words_per_item` words. Costs `O(M · words_per_item + D)` rounds.
///
/// Returns the items in a deterministic (engine-arrival) order together
/// with their origins; conceptually every node now holds this list.
pub fn broadcast<T>(
    g: &Graph,
    tree: &BfsTree,
    items: Vec<(NodeId, T)>,
    words_per_item: u64,
    ledger: &mut Ledger,
) -> Vec<(NodeId, T)> {
    let _span = mwc_trace::span("tree/broadcast");
    let n = g.n();
    let mut ws = workspace::take();
    let buf = &mut ws.broadcast;
    let mut net: Network<()> = Network::new(g);
    let order = buf.upcast(
        tree,
        &mut net,
        items.iter().map(|&(origin, _)| origin),
        words_per_item.max(1),
    );
    ledger.absorb("broadcast: upcast", &net);
    let up_rounds = net.round();
    let mut slots: Vec<Option<(NodeId, T)>> = items.into_iter().map(Some).collect();
    let collected: Vec<(NodeId, T)> = order
        .iter()
        .map(|&i| {
            slots[i as usize]
                .take()
                .expect("each item reaches the root once")
        })
        .collect();

    // Downcast: the root streams the full list down every tree edge. The
    // schedule is a fully saturated pipeline (item `i` reaches depth `d`
    // at round `words_per_item·(i+d)`), so the whole phase is charged in
    // closed form: O(links + rounds) instead of O(items · links) work.
    let mut net: Network<()> = Network::new(g);
    net.charge_pipelined_downcast(&tree.bfs_links, collected.len() as u64, words_per_item);
    ledger.absorb("broadcast: downcast", &net);
    workspace::put_back(ws);
    mwc_trace::check_bound(
        "congest/broadcast",
        mwc_trace::BoundInputs::n(n)
            .diameter(tree.height as u64)
            .k((collected.len() as u64).saturating_mul(words_per_item.max(1))),
        up_rounds + net.round(),
        crate::bounds::broadcast,
    );
    collected
}

/// Convergecast of an associative, commutative operation over one value per
/// node, followed by flooding the result down so **every node knows it**.
/// Costs `O(D)` rounds (values are single words).
pub fn convergecast<T, F>(
    g: &Graph,
    tree: &BfsTree,
    values: Vec<T>,
    op: F,
    ledger: &mut Ledger,
) -> T
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    let _span = mwc_trace::span("tree/convergecast");
    let n = g.n();
    assert_eq!(values.len(), n, "one value per node");
    let mut pending: Vec<usize> = (0..n).map(|v| tree.children[v].len()).collect();
    let mut acc: Vec<T> = values;
    // Up: leaves report in round 1, every other node the round after its
    // last child's report arrives. A report is one word on the parent
    // link, delivered the next round in send order, and folded in that
    // order.
    let mut net: Network<()> = Network::new(g);
    let mut senders: Vec<NodeId> = (0..n)
        .filter(|&v| pending[v] == 0 && v != tree.root)
        .collect();
    let (mut next, mut links) = (Vec::new(), Vec::new());
    while !senders.is_empty() {
        links.clear();
        links.extend(senders.iter().map(|&v| tree.parent_link[v]));
        net.charge_flood_round(net.round() + 1, &links, links.iter().copied(), 1, 1);
        for &v in &senders {
            let p = tree.parent[v].expect("only non-root nodes report");
            acc[p] = op(acc[p], acc[v]);
            pending[p] -= 1;
            if pending[p] == 0 && p != tree.root {
                next.push(p);
            }
        }
        std::mem::swap(&mut senders, &mut next);
        next.clear();
    }
    ledger.absorb("convergecast: up", &net);
    let up_rounds = net.round();
    let result = acc[tree.root];

    // Down: the result floods the tree so every node knows it (the paper
    // requires every node to know the final MWC weight), a one-message
    // pipelined downcast.
    let mut net: Network<()> = Network::new(g);
    net.charge_pipelined_downcast(&tree.bfs_links, 1, 1);
    ledger.absorb("convergecast: down", &net);
    mwc_trace::check_bound(
        "congest/convergecast",
        mwc_trace::BoundInputs::n(n).diameter(tree.height as u64),
        up_rounds + net.round(),
        crate::bounds::convergecast,
    );
    result
}

/// Convenience: convergecast of the minimum of one `u64` per node.
pub fn convergecast_min(g: &Graph, tree: &BfsTree, values: Vec<u64>, ledger: &mut Ledger) -> u64 {
    convergecast(g, tree, values, u64::min, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, WeightRange};
    use mwc_graph::seq::{bfs, Direction};
    use mwc_graph::Orientation;

    fn path(n: usize) -> Graph {
        let mut g = Graph::undirected(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 1).unwrap();
        }
        g
    }

    #[test]
    fn tree_depths_match_bfs() {
        let g = connected_gnm(40, 60, Orientation::Undirected, WeightRange::unit(), 7);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 3, &mut ledger);
        let reference = bfs(&g, 3, Direction::Forward);
        for v in 0..g.n() {
            assert_eq!(tree.depth[v], reference.dist[v]);
        }
        assert_eq!(tree.height, *reference.dist.iter().max().unwrap());
        // Building the tree costs Θ(ecc(root)) rounds: the deepest node
        // hears its parent no earlier than round `height`.
        assert!(ledger.rounds as usize >= tree.height);
        assert!(ledger.rounds as usize <= tree.height + 1);
    }

    #[test]
    fn tree_parents_are_one_level_up() {
        let g = connected_gnm(30, 40, Orientation::Undirected, WeightRange::unit(), 1);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        for v in 0..g.n() {
            if let Some(p) = tree.parent[v] {
                assert_eq!(tree.depth[v], tree.depth[p] + 1);
                assert!(g.has_edge(p, v) || g.has_edge(v, p));
            } else {
                assert_eq!(v, 0);
            }
        }
    }

    #[test]
    fn tree_works_on_directed_support() {
        // Directed edges all one way; the communication tree still spans.
        let mut g = Graph::directed(5);
        for i in 0..4 {
            g.add_edge(i, i + 1, 1).unwrap();
        }
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 4, &mut ledger);
        assert_eq!(tree.depth[0], 4);
    }

    #[test]
    fn broadcast_reaches_everyone_within_budget() {
        let g = path(16);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let items: Vec<(NodeId, u64)> = (0..16).map(|v| (v, 100 + v as u64)).collect();
        let mut bl = Ledger::new();
        let all = broadcast(&g, &tree, items, 1, &mut bl);
        assert_eq!(all.len(), 16);
        let mut values: Vec<u64> = all.iter().map(|(_, x)| *x).collect();
        values.sort_unstable();
        assert_eq!(values, (100..116).collect::<Vec<_>>());
        // O(M + D): M = 16 items, D = 15 → comfortably under 4·(M + D).
        assert!(
            bl.rounds <= 4 * (16 + 15),
            "broadcast took {} rounds",
            bl.rounds
        );
    }

    #[test]
    fn broadcast_rounds_scale_linearly_in_items() {
        let g = path(12);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let cost = |m: usize| {
            let items: Vec<(NodeId, u64)> = (0..m).map(|i| (11, i as u64)).collect();
            let mut bl = Ledger::new();
            broadcast(&g, &tree, items, 1, &mut bl);
            bl.rounds
        };
        let c10 = cost(10);
        let c100 = cost(100);
        // Pipelining: 10× the items must be far less than 10× rounds.
        assert!(c100 < c10 * 6, "items 10: {c10} rounds, 100: {c100} rounds");
    }

    #[test]
    fn broadcast_multiword_items_cost_proportionally() {
        let g = path(8);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let mut l1 = Ledger::new();
        broadcast(&g, &tree, vec![(7, 0u64); 20], 1, &mut l1);
        let mut l3 = Ledger::new();
        broadcast(&g, &tree, vec![(7, 0u64); 20], 3, &mut l3);
        assert!(
            l3.rounds > l1.rounds * 2,
            "3-word items must cost ~3×: {} vs {}",
            l3.rounds,
            l1.rounds
        );
    }

    #[test]
    fn convergecast_min_within_depth_budget() {
        let g = path(20);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 10, &mut ledger);
        let mut values: Vec<u64> = (0..20).map(|v| 50 + v as u64).collect();
        values[17] = 3;
        let mut cl = Ledger::new();
        let m = convergecast_min(&g, &tree, values, &mut cl);
        assert_eq!(m, 3);
        // Up + down ≤ 2·height + slack.
        assert!(
            cl.rounds as usize <= 2 * tree.height + 2,
            "convergecast took {} rounds",
            cl.rounds
        );
    }

    #[test]
    fn single_node_tree_and_broadcast() {
        let g = Graph::undirected(1);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        assert_eq!(tree.height, 0);
        assert_eq!(ledger.rounds, 0);
        let all = broadcast(&g, &tree, vec![(0, 42u64)], 1, &mut ledger);
        assert_eq!(all, vec![(0, 42)]);
        let m = convergecast_min(&g, &tree, vec![7], &mut ledger);
        assert_eq!(m, 7);
    }

    #[test]
    fn star_tree_has_height_one() {
        let mut g = Graph::undirected(9);
        for i in 1..9 {
            g.add_edge(0, i, 1).unwrap();
        }
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        assert_eq!(tree.height, 1);
        assert_eq!(tree.children[0].len(), 8);
        // Convergecast over a star: up + down ≤ 4 rounds.
        let mut cl = Ledger::new();
        let m = convergecast_min(&g, &tree, (10..19).collect(), &mut cl);
        assert_eq!(m, 10);
        assert!(cl.rounds <= 4);
    }

    #[test]
    fn empty_broadcast_costs_nothing() {
        let g = path(6);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let mut bl = Ledger::new();
        let all: Vec<(NodeId, u64)> = broadcast(&g, &tree, vec![], 1, &mut bl);
        assert!(all.is_empty());
        assert_eq!(bl.rounds, 0);
    }

    #[test]
    fn convergecast_sum() {
        let g = connected_gnm(25, 30, Orientation::Undirected, WeightRange::unit(), 3);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let s = convergecast(&g, &tree, vec![1u64; 25], |a, b| a + b, &mut ledger);
        assert_eq!(s, 25);
    }
}

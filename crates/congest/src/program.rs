//! Event-driven **node programs**: write a CONGEST algorithm as strictly
//! node-local state machines and let the engine run them.
//!
//! The algorithm crates in this workspace orchestrate node states from a
//! global loop (equivalent information flow, much less boilerplate — see
//! DESIGN.md §2). This module provides the stricter discipline for
//! when it matters: a [`NodeProgram`] only ever sees its own id, its
//! neighbor list and its incoming messages, so locality is enforced by
//! construction. The built-in primitives have node-program twins here
//! ([`FloodMax`], [`BfsTreeProgram`]) that the tests cross-validate
//! against the orchestrated versions — pinning down that both styles
//! agree on results *and* round counts.
//!
//! # Examples
//!
//! Leader election by flooding the maximum id:
//!
//! ```
//! use mwc_congest::program::{run_programs, FloodMax};
//! use mwc_graph::generators::{connected_gnm, WeightRange};
//! use mwc_graph::Orientation;
//! use mwc_congest::Ledger;
//!
//! let g = connected_gnm(32, 48, Orientation::Undirected, WeightRange::unit(), 1);
//! let mut ledger = Ledger::new();
//! let nodes = run_programs(&g, |v| FloodMax::new(v), 10_000, &mut ledger);
//! assert!(nodes.iter().all(|p| p.leader() == 31));
//! ```

use crate::engine::{Network, RoundOutput};
use crate::ledger::Ledger;
use mwc_graph::{Graph, NodeId};

/// What a node program can do in response to an event.
#[derive(Clone, Debug)]
pub enum Action<M> {
    /// Send `msg` (`words` words) to neighbor `to`.
    Send {
        /// Recipient (must be a neighbor).
        to: NodeId,
        /// The message.
        msg: M,
        /// Bandwidth cost in words (≥ 1).
        words: u64,
    },
    /// Request a wakeup at the given (future) round.
    WakeAt(u64),
}

/// The node-local view handed to every callback: nothing global in here.
#[derive(Clone, Debug)]
pub struct NodeCtx {
    /// This node's identifier.
    pub id: NodeId,
    /// Communication neighbors (the undirected support).
    pub neighbors: Vec<NodeId>,
    /// Total node count (ids are `0..n`, known per the CONGEST model).
    pub n: usize,
    /// The current round.
    pub round: u64,
}

/// A strictly node-local CONGEST algorithm.
pub trait NodeProgram {
    /// Message type exchanged with neighbors.
    type Msg;

    /// Called once before round 1.
    fn init(&mut self, ctx: &NodeCtx) -> Vec<Action<Self::Msg>>;

    /// Called when a message arrives.
    fn on_receive(&mut self, ctx: &NodeCtx, from: NodeId, msg: Self::Msg)
        -> Vec<Action<Self::Msg>>;

    /// Called when a requested wakeup fires. Default: do nothing.
    fn on_wakeup(&mut self, ctx: &NodeCtx) -> Vec<Action<Self::Msg>> {
        let _ = ctx;
        Vec::new()
    }
}

/// Runs one program instance per node until the network is quiet or
/// `max_rounds` elapse, charging the rounds to `ledger`.
///
/// # Panics
///
/// Panics if a program sends to a non-neighbor (locality violation) or
/// the round budget is exhausted with traffic still pending.
pub fn run_programs<P, F>(g: &Graph, mut make: F, max_rounds: u64, ledger: &mut Ledger) -> Vec<P>
where
    P: NodeProgram,
    F: FnMut(NodeId) -> P,
{
    let _span = mwc_trace::span("program/run");
    let n = g.n();
    let mut net: Network<P::Msg> = Network::new(g);
    let ctxs: Vec<NodeCtx> = (0..n)
        .map(|v| NodeCtx {
            id: v,
            neighbors: g.comm_neighbors(v),
            n,
            round: 0,
        })
        .collect();
    let mut programs: Vec<P> = (0..n).map(&mut make).collect();

    let apply = |net: &mut Network<P::Msg>, v: NodeId, actions: Vec<Action<P::Msg>>| {
        for a in actions {
            match a {
                Action::Send { to, msg, words } => net
                    .send(v, to, msg, words)
                    .expect("node programs may only send to neighbors"),
                Action::WakeAt(round) => net.schedule_wakeup(round, v),
            }
        }
    };

    for v in 0..n {
        let actions = programs[v].init(&ctxs[v]);
        apply(&mut net, v, actions);
    }
    let mut out = RoundOutput::default();
    while net.step_bulk_into(&mut out) {
        assert!(
            net.round() <= max_rounds,
            "round budget exhausted at {}",
            net.round()
        );
        let round = net.round();
        for d in out.deliveries.drain(..) {
            let mut ctx = ctxs[d.to].clone();
            ctx.round = round;
            let actions = programs[d.to].on_receive(&ctx, d.from, d.payload);
            apply(&mut net, d.to, actions);
        }
        for v in out.wakeups.drain(..) {
            let mut ctx = ctxs[v].clone();
            ctx.round = round;
            let actions = programs[v].on_wakeup(&ctx);
            apply(&mut net, v, actions);
        }
    }
    ledger.absorb("node programs", &net);
    mwc_trace::check_bound(
        "congest/node_programs",
        mwc_trace::BoundInputs::n(n).h(max_rounds),
        net.round(),
        crate::bounds::node_programs,
    );
    programs
}

/// Leader election by flooding the maximum id: converges in `ecc ≤ D`
/// rounds with one word per improvement.
#[derive(Clone, Debug)]
pub struct FloodMax {
    best: NodeId,
}

impl FloodMax {
    /// A node that initially knows only itself.
    pub fn new(id: NodeId) -> Self {
        FloodMax { best: id }
    }

    /// The elected leader (valid after the run quiesces).
    pub fn leader(&self) -> NodeId {
        self.best
    }
}

impl NodeProgram for FloodMax {
    type Msg = NodeId;

    fn init(&mut self, ctx: &NodeCtx) -> Vec<Action<NodeId>> {
        ctx.neighbors
            .iter()
            .map(|&to| Action::Send {
                to,
                msg: self.best,
                words: 1,
            })
            .collect()
    }

    fn on_receive(&mut self, ctx: &NodeCtx, _from: NodeId, msg: NodeId) -> Vec<Action<NodeId>> {
        if msg > self.best {
            self.best = msg;
            ctx.neighbors
                .iter()
                .map(|&to| Action::Send { to, msg, words: 1 })
                .collect()
        } else {
            Vec::new()
        }
    }
}

/// Distributed BFS tree rooted at a designated node: each node adopts the
/// first sender as parent — the node-program twin of
/// [`BfsTree::build`](crate::BfsTree::build).
#[derive(Clone, Debug)]
pub struct BfsTreeProgram {
    root: NodeId,
    /// Adopted parent (None at the root or before being reached).
    pub parent: Option<NodeId>,
    /// Depth below the root (`u64::MAX` before being reached).
    pub depth: u64,
}

impl BfsTreeProgram {
    /// A node participating in a BFS-tree build rooted at `root`.
    pub fn new(id: NodeId, root: NodeId) -> Self {
        BfsTreeProgram {
            root,
            parent: None,
            depth: if id == root { 0 } else { u64::MAX },
        }
    }
}

impl NodeProgram for BfsTreeProgram {
    type Msg = u64; // sender's depth

    fn init(&mut self, ctx: &NodeCtx) -> Vec<Action<u64>> {
        if ctx.id == self.root {
            ctx.neighbors
                .iter()
                .map(|&to| Action::Send {
                    to,
                    msg: 0,
                    words: 1,
                })
                .collect()
        } else {
            Vec::new()
        }
    }

    fn on_receive(&mut self, ctx: &NodeCtx, from: NodeId, sender_depth: u64) -> Vec<Action<u64>> {
        if self.depth == u64::MAX {
            self.depth = sender_depth + 1;
            self.parent = Some(from);
            ctx.neighbors
                .iter()
                .filter(|&&to| to != from)
                .map(|&to| Action::Send {
                    to,
                    msg: self.depth,
                    words: 1,
                })
                .collect()
        } else {
            Vec::new()
        }
    }
}

/// A node that waits `delay` rounds (via wakeup), then floods one token —
/// exercises the wakeup path used by Algorithm 3's random delays.
#[derive(Clone, Debug)]
pub struct DelayedFlood {
    delay: u64,
    /// Tokens seen, by origin.
    pub seen: Vec<NodeId>,
}

impl DelayedFlood {
    /// A node that will start flooding its own token at round `delay`.
    pub fn new(delay: u64) -> Self {
        DelayedFlood {
            delay: delay.max(1),
            seen: Vec::new(),
        }
    }
}

impl NodeProgram for DelayedFlood {
    type Msg = NodeId;

    fn init(&mut self, _ctx: &NodeCtx) -> Vec<Action<NodeId>> {
        vec![Action::WakeAt(self.delay)]
    }

    fn on_wakeup(&mut self, ctx: &NodeCtx) -> Vec<Action<NodeId>> {
        self.seen.push(ctx.id);
        ctx.neighbors
            .iter()
            .map(|&to| Action::Send {
                to,
                msg: ctx.id,
                words: 1,
            })
            .collect()
    }

    fn on_receive(&mut self, ctx: &NodeCtx, _from: NodeId, origin: NodeId) -> Vec<Action<NodeId>> {
        if self.seen.contains(&origin) {
            return Vec::new();
        }
        self.seen.push(origin);
        ctx.neighbors
            .iter()
            .map(|&to| Action::Send {
                to,
                msg: origin,
                words: 1,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BfsTree;
    use mwc_graph::generators::{connected_gnm, grid, WeightRange};
    use mwc_graph::seq::{bfs, Direction};
    use mwc_graph::Orientation;

    #[test]
    fn floodmax_elects_max_id_within_diameter() {
        let g = grid(8, 8, Orientation::Undirected, WeightRange::unit(), 0);
        let mut ledger = Ledger::new();
        let nodes = run_programs(&g, FloodMax::new, 10_000, &mut ledger);
        assert!(nodes.iter().all(|p| p.leader() == 63));
        // The max-id wave travels one hop per round but can queue behind
        // earlier (stale) improvement messages on a link, so the bound is
        // a small multiple of D rather than D+1.
        let d = g.undirected_diameter().unwrap() as u64;
        assert!(
            ledger.rounds <= 2 * (d + 1),
            "{} rounds > 2(D+1) = {}",
            ledger.rounds,
            2 * (d + 1)
        );
    }

    #[test]
    fn bfs_program_matches_orchestrated_tree() {
        let g = connected_gnm(60, 110, Orientation::Undirected, WeightRange::unit(), 9);
        let root = 17;
        let mut pl = Ledger::new();
        let nodes = run_programs(&g, |v| BfsTreeProgram::new(v, root), 10_000, &mut pl);
        let mut ol = Ledger::new();
        let tree = BfsTree::build(&g, root, &mut ol);
        let reference = bfs(&g, root, Direction::Forward);
        for v in 0..g.n() {
            assert_eq!(nodes[v].depth as usize, reference.dist[v], "depth of {v}");
            assert_eq!(nodes[v].depth as usize, tree.depth[v]);
            if let Some(p) = nodes[v].parent {
                assert!(g.has_edge(p, v) || g.has_edge(v, p));
            } else {
                assert_eq!(v, root);
            }
        }
        // Both styles pay the same rounds (the eccentricity).
        assert_eq!(pl.rounds, ol.rounds, "node-program vs orchestrated rounds");
    }

    #[test]
    fn delayed_flood_wakeups_fire_and_tokens_spread() {
        let g = grid(4, 4, Orientation::Undirected, WeightRange::unit(), 0);
        let mut ledger = Ledger::new();
        let nodes = run_programs(
            &g,
            |v| DelayedFlood::new((v as u64 % 5) + 1),
            10_000,
            &mut ledger,
        );
        // Every node eventually sees every token.
        for p in &nodes {
            assert_eq!(p.seen.len(), 16);
        }
        // Latest start is round 5; waves spread ≤ D = 6 hops each but can
        // queue behind one another on shared links.
        assert!(ledger.rounds <= 5 + 4 * 6, "{} rounds", ledger.rounds);
    }

    #[test]
    #[should_panic(expected = "only send to neighbors")]
    fn locality_is_enforced() {
        struct Cheater;
        impl NodeProgram for Cheater {
            type Msg = ();
            fn init(&mut self, ctx: &NodeCtx) -> Vec<Action<()>> {
                if ctx.id == 0 {
                    // Node 0 tries to message node 3 directly on a path
                    // graph — not a neighbor.
                    vec![Action::Send {
                        to: 3,
                        msg: (),
                        words: 1,
                    }]
                } else {
                    Vec::new()
                }
            }
            fn on_receive(&mut self, _: &NodeCtx, _: NodeId, _: ()) -> Vec<Action<()>> {
                Vec::new()
            }
        }
        let g = Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        )
        .unwrap();
        let mut ledger = Ledger::new();
        let _ = run_programs(&g, |_| Cheater, 100, &mut ledger);
    }

    #[test]
    #[should_panic(expected = "round budget exhausted")]
    fn runaway_programs_hit_the_budget() {
        struct PingPong;
        impl NodeProgram for PingPong {
            type Msg = ();
            fn init(&mut self, ctx: &NodeCtx) -> Vec<Action<()>> {
                ctx.neighbors
                    .iter()
                    .map(|&to| Action::Send {
                        to,
                        msg: (),
                        words: 1,
                    })
                    .collect()
            }
            fn on_receive(&mut self, _: &NodeCtx, from: NodeId, _: ()) -> Vec<Action<()>> {
                vec![Action::Send {
                    to: from,
                    msg: (),
                    words: 1,
                }]
            }
        }
        let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap();
        let mut ledger = Ledger::new();
        let _ = run_programs(&g, |_| PingPong, 50, &mut ledger);
    }
}

//! The round-synchronous CONGEST network engine.
//!
//! The engine is the "hardware" of this reproduction: node-local states
//! exchange information only over its links, and its round counter is the
//! complexity measure every experiment reports. Schedules run outside
//! the queue machinery (floods, the broadcast's upcast and downcast, and
//! batches of simultaneous sends drained to idle) charge their rounds
//! here with exactly the stats stepping would record.
//!
//! # Model (paper §1.1)
//!
//! - The communication topology is the **undirected support** of the input
//!   graph: links are bidirectional even when the graph is directed.
//! - Per round, each link carries at most **one word** in each direction. A
//!   word is Θ(log n + log W) bits; a message of `w` words occupies its
//!   link for `w` consecutive rounds (per-link FIFO).
//! - Messages can optionally carry an **extra latency**: a message sent
//!   over a link with latency `ℓ` is delivered `ℓ` rounds after its last
//!   word leaves the link. This models *stretched* graphs (paper §4), where
//!   a weighted edge is replaced by a path of unit edges: bandwidth stays
//!   one word per round, but traversal takes the path length, and
//!   back-to-back messages pipeline.
//! - Local computation is free; nodes may schedule **wakeups** to act at a
//!   future round without receiving a message (`traffic_profile` starts
//!   its random-delay sources this way; Algorithm 3 runs its own phase
//!   loop and needs none).

use mwc_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A message delivered to a node at the start of a round.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Delivery<M> {
    /// The neighbor that sent the message.
    pub from: NodeId,
    /// The recipient.
    pub to: NodeId,
    /// The message body.
    pub payload: M,
}

/// Everything that happens at one node-visible round boundary.
#[derive(Clone, Debug)]
pub struct RoundOutput<M> {
    /// Messages whose transfer completed this round.
    pub deliveries: Vec<Delivery<M>>,
    /// Nodes whose scheduled wakeup fired this round.
    pub wakeups: Vec<NodeId>,
}

// Manual impl: `#[derive(Default)]` would needlessly bound `M: Default`.
impl<M> Default for RoundOutput<M> {
    fn default() -> Self {
        RoundOutput {
            deliveries: Vec::new(),
            wakeups: Vec::new(),
        }
    }
}

/// Aggregate traffic statistics of a [`Network`].
///
/// `PartialEq` is derived so differential tests can assert that bulk
/// advancement ([`Network::step_bulk_into`]) produces *bit-identical*
/// stats to single-stepping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total words transferred over all links.
    pub words: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Words transferred per directed link (parallel to the engine's link
    /// table); used by the lower-bound harness for cut accounting.
    pub per_link_words: Vec<u64>,
    /// When history is enabled ([`Network::enable_history`]): `(round,
    /// words transferred that round)` for every non-quiet round — the
    /// congestion timeline used by the scheduling ablations.
    pub words_per_round: Vec<(u64, u64)>,
    /// Rounds in which at least one word was transferred (quiet rounds
    /// skipped by [`Network::step_bulk_into`] still count toward `round()`
    /// but not here).
    pub active_rounds: u64,
    /// The largest number of words any single round transferred — the peak
    /// of the congestion timeline, tracked even without history.
    pub max_words_in_round: u64,
    /// The round at which [`NetStats::max_words_in_round`] was *first*
    /// reached (ties break toward the earliest round, so reports are
    /// deterministic); 0 while no word has been transferred.
    pub peak_round: u64,
    /// High-water mark of any single link's send-queue depth (messages
    /// queued behind one FIFO link, the engine's backpressure signal).
    pub queue_high_water: u64,
}

/// A queued message. Endpoints are *not* stored: queues are per-link, so
/// `from`/`to` are recovered from the link table at delivery time, keeping
/// the struct (and the per-send copy) as small as the payload allows.
struct InFlight<M> {
    payload: M,
    /// Total words of the message (for the event log).
    words: u64,
    words_left: u64,
    latency: u64,
}

/// A graph's directed communication links: the undirected support's
/// links in both directions, numbered by sender in ascending order and,
/// within a sender, in [`Graph::comm_neighbors`] order (adjacency order
/// for undirected graphs, ascending neighbor for directed ones).
///
/// The topology is fixed for a whole run, so the active phase-cache
/// scope builds one table per graph and every [`Network`] of the solve
/// shares it (see the `cache` module docs).
pub(crate) struct Links {
    /// `link_ends[l] = (from, to)`.
    link_ends: Vec<(NodeId, NodeId)>,
    /// CSR offsets into `out_links`: node `u`'s outgoing links are
    /// `out_links[out_start[u]..out_start[u + 1]]` (length `n + 1`).
    out_start: Vec<usize>,
    /// Every node's outgoing `(neighbor, link id)` pairs, each node's
    /// slice sorted by neighbor for [`Links::id`].
    out_links: Vec<(NodeId, usize)>,
}

impl Links {
    /// Builds `graph`'s link table in place from the adjacency lists,
    /// with no per-node allocation.
    pub(crate) fn new(graph: &Graph) -> Links {
        let n = graph.n();
        let directed = graph.is_directed();
        // Every edge appears in two adjacency lists, so this bounds the
        // link count (exact unless antiparallel edges share a link).
        let max_links = 2 * graph.m();
        let mut link_ends = Vec::with_capacity(max_links);
        let mut out_start = Vec::with_capacity(n + 1);
        let mut out_links: Vec<(NodeId, usize)> = Vec::with_capacity(max_links);
        // `u`'s communication neighbors, as `Graph::comm_neighbors` lists
        // them: a directed node's are the sorted, deduplicated union of
        // its out- and in-neighbors.
        let mut nbrs: Vec<NodeId> = Vec::new();
        for u in 0..n {
            let start = link_ends.len();
            out_start.push(start);
            nbrs.clear();
            nbrs.extend(graph.out_adj(u).iter().map(|a| a.to));
            if directed {
                nbrs.extend(graph.in_adj(u).iter().map(|a| a.to));
                nbrs.sort_unstable();
                nbrs.dedup();
            }
            for &v in &nbrs {
                out_links.push((v, link_ends.len()));
                link_ends.push((u, v));
            }
            out_links[start..].sort_unstable();
        }
        out_start.push(link_ends.len());
        Links {
            link_ends,
            out_start,
            out_links,
        }
    }

    /// The links as `(from, to)` pairs, indexed by link id.
    pub(crate) fn ends(&self) -> &[(NodeId, NodeId)] {
        &self.link_ends
    }

    /// The ids of `from`'s outgoing links, in [`Graph::comm_neighbors`]
    /// order.
    fn from(&self, from: NodeId) -> std::ops::Range<usize> {
        self.out_start[from]..self.out_start[from + 1]
    }

    /// The link id for `from → to`, if the nodes are adjacent.
    fn id(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let links = &self.out_links[self.from(from)];
        links
            .binary_search_by_key(&to, |&(nb, _)| nb)
            .ok()
            .map(|i| links[i].1)
    }

    /// Whether the table's node and link counts are `graph`'s: a check
    /// for a table found under `graph`'s fingerprint. A directed graph
    /// has one link pair per edge, less one per antiparallel pair.
    pub(crate) fn counts_match(&self, graph: &Graph) -> bool {
        let pairs = if graph.is_directed() {
            let antiparallel = graph
                .edges()
                .iter()
                .filter(|e| graph.has_edge(e.v, e.u))
                .count();
            2 * graph.m() - antiparallel
        } else {
            2 * graph.m()
        };
        self.out_start.len() == graph.n() + 1 && self.link_ends.len() == pairs
    }
}

/// A network's link table: its own, or the phase-cache scope's shared one.
/// A table outside a scope is held inline, not behind an [`Arc`], so an
/// unshared network costs no extra allocation.
enum LinkTable {
    Owned(Links),
    Shared(Arc<Links>),
}

impl Deref for LinkTable {
    type Target = Links;

    fn deref(&self) -> &Links {
        match self {
            LinkTable::Owned(links) => links,
            LinkTable::Shared(links) => links,
        }
    }
}

/// The CONGEST network simulator. See the crate docs for the model.
///
/// `M` is the algorithm-specific message type. The engine never inspects
/// payloads; algorithms declare how many *words* each message occupies,
/// which is what the bandwidth accounting uses.
///
/// # Examples
///
/// ```
/// use mwc_congest::{Network, RoundOutput};
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)])?;
/// let mut net: Network<&'static str> = Network::new(&g);
/// net.send(0, 1, "hello", 1)?;
/// let mut out = RoundOutput::default();
/// net.step_into(&mut out);
/// assert_eq!(out.deliveries.len(), 1);
/// assert_eq!(out.deliveries[0].payload, "hello");
/// assert_eq!(net.round(), 1);
/// # Ok(())
/// # }
/// ```
pub struct Network<M> {
    n: usize,
    round: u64,
    links: LinkTable,
    /// Per-link send queues, built on the first [`Network::send_on_link`]:
    /// a network that is only charged never needs them.
    queues: Vec<VecDeque<InFlight<M>>>,
    /// Links with a non-empty queue.
    active: Vec<usize>,
    /// Per link, whether it is in `active` (built with `queues`).
    active_flag: Vec<bool>,
    /// Messages whose words all left their link, awaiting latency expiry:
    /// (arrival round, insertion sequence for FIFO stability, slab slot).
    /// The slot tags along outside the ordering key so expiry is a direct
    /// index into `transit_msgs` — on stretched graphs *every* message
    /// passes through here, so this path must not hash.
    transit: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Slab of in-transit `(delivery, message words)`; words ride along
    /// for the event log. Freed slots are recycled via `transit_free`.
    transit_msgs: Vec<Option<(Delivery<M>, u64)>>,
    transit_free: Vec<u32>,
    transit_seq: u64,
    wakeups: BinaryHeap<Reverse<(u64, NodeId)>>,
    stats: NetStats,
    history: bool,
    /// Sticky: set once any message longer than one word is enqueued.
    /// While false, every active link's head has exactly one word left, so
    /// [`Network::step_bulk_into`] can skip its `O(active)` lookahead scan —
    /// one-word workloads (BFS floods, source detection) pay nothing for
    /// the bulk path.
    any_multiword: bool,
    /// Recycled backing storage for the `still_active` rebuild in
    /// [`Network::step_into`], so steady-state stepping allocates nothing.
    scratch_active: Vec<usize>,
    /// Sequence number in the message-event log, when logging is active
    /// (see [`crate::events`]); `None` keeps the logging path cost-free.
    events_net: Option<u64>,
    /// Recycled buffers of [`Network::charge_batch`].
    batch: BatchScratch,
}

/// Working storage of [`Network::charge_batch`], kept across calls so a
/// network charged batch after batch allocates nothing in steady state.
#[derive(Default)]
struct BatchScratch {
    /// The network's round when the batch starts.
    start: u64,
    /// Whether the message-event log is on.
    logging: bool,
    /// Messages in the batch.
    messages: u64,
    /// Per link: `(rank of its first send, total words, messages)`. Only
    /// the links in `touched` are nonzero, and only during a call.
    per_link: Vec<(u32, u64, u64)>,
    /// Links with at least one send, in rank order.
    touched: Vec<u32>,
    /// The touched links' word totals, sorted for the round counts.
    totals: Vec<u64>,
    /// `(delivery round, link rank, link, words)` per send, while logging.
    events: Vec<(u64, u32, u32, u64)>,
}

/// Error returned by [`Network::send`] variants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendError {
    /// `from` and `to` are not joined by a communication link.
    NoLink {
        /// Attempted sender.
        from: NodeId,
        /// Attempted recipient.
        to: NodeId,
    },
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SendError::NoLink { from, to } => {
                write!(f, "no communication link between {from} and {to}")
            }
        }
    }
}

impl std::error::Error for SendError {}

impl<M> Network<M> {
    /// Builds a network whose links are the undirected support of `graph`.
    ///
    /// Link ids are grouped by sender in ascending order; within a sender
    /// they follow [`Graph::comm_neighbors`] order (adjacency order for
    /// undirected graphs, ascending neighbor for directed ones). Inside a
    /// [`PhaseCache`](crate::PhaseCache) scope the link table is the
    /// scope's, built once per graph and shared by every network of the
    /// solve; outside one the network builds and owns its table.
    pub fn new(graph: &Graph) -> Self {
        let links = match crate::cache::PhaseCache::links(graph) {
            Some(shared) => LinkTable::Shared(shared),
            None => LinkTable::Owned(Links::new(graph)),
        };
        let m = links.ends().len();
        Network {
            n: graph.n(),
            round: 0,
            links,
            queues: Vec::new(),
            active: Vec::new(),
            active_flag: Vec::new(),
            transit: BinaryHeap::new(),
            transit_msgs: Vec::new(),
            transit_free: Vec::new(),
            transit_seq: 0,
            wakeups: BinaryHeap::new(),
            stats: NetStats {
                per_link_words: vec![0; m],
                ..NetStats::default()
            },
            history: false,
            any_multiword: false,
            scratch_active: Vec::new(),
            events_net: crate::events::next_net_id(),
            batch: BatchScratch::default(),
        }
    }

    /// The network's sequence number in the message-event log, if logging
    /// was active when it was built.
    pub(crate) fn events_net(&self) -> Option<u64> {
        self.events_net
    }

    /// Records a `(round, words)` timeline entry for every non-quiet
    /// round, readable from [`NetStats::words_per_round`]. Off by default
    /// (costs memory proportional to active rounds).
    pub fn enable_history(&mut self) {
        self.history = true;
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current round (rounds completed so far).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The directed communication links as `(from, to)` pairs, parallel to
    /// [`NetStats::per_link_words`].
    pub fn link_ends(&self) -> &[(NodeId, NodeId)] {
        self.links.ends()
    }

    /// A finished network's stats, moved out rather than cloned: what the
    /// flood memo keeps to replay the phase.
    pub(crate) fn into_stats(self) -> NetStats {
        self.stats
    }

    /// The directed link id for `from → to`, if the nodes are adjacent.
    /// Ids index [`NetStats::per_link_words`] / [`Network::link_ends`] and
    /// can be fed to [`Network::send_on_link`] to skip the per-send
    /// neighbor lookup in tight flooding loops.
    pub fn link_id(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.links.id(from, to)
    }

    /// The ids of `from`'s outgoing links, in [`Graph::comm_neighbors`]
    /// order: [`Network::link_ends`] gives each link's receiver.
    pub(crate) fn links_from(&self, from: NodeId) -> std::ops::Range<usize> {
        self.links.from(from)
    }

    /// Enqueues a `words`-word message from `from` to its neighbor `to`.
    /// Transfer begins on the next round; delivery happens
    /// after `words` rounds of link occupancy (FIFO behind earlier
    /// messages).
    ///
    /// # Errors
    ///
    /// [`SendError::NoLink`] if the nodes are not adjacent in the
    /// communication topology.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: M,
        words: u64,
    ) -> Result<(), SendError> {
        self.send_latency(from, to, payload, words, 0)
    }

    /// Like [`Network::send`] with an extra delivery latency of `latency`
    /// rounds after the last word leaves the link (stretched-edge
    /// traversal). Messages pipeline: the link is free for the next
    /// message while earlier ones are "in flight".
    ///
    /// # Errors
    ///
    /// [`SendError::NoLink`] if the nodes are not adjacent.
    pub fn send_latency(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: M,
        words: u64,
        latency: u64,
    ) -> Result<(), SendError> {
        let l = self
            .link_id(from, to)
            .ok_or(SendError::NoLink { from, to })?;
        self.send_on_link(l, payload, words, latency);
        Ok(())
    }

    /// [`Network::send_latency`] addressed by link id instead of endpoint
    /// pair — the flooding primitives resolve each node's links once with
    /// [`Network::link_id`] and then enqueue millions of one-word
    /// announcements without re-searching the adjacency every time.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a valid link id for this network.
    pub fn send_on_link(&mut self, l: usize, payload: M, words: u64, latency: u64) {
        let words = words.max(1);
        if words > 1 {
            self.any_multiword = true;
        }
        if self.queues.is_empty() {
            let m = self.links.ends().len();
            self.queues = (0..m).map(|_| VecDeque::new()).collect();
            self.active_flag = vec![false; m];
        }
        self.queues[l].push_back(InFlight {
            payload,
            words,
            words_left: words,
            latency,
        });
        let depth = self.queues[l].len() as u64;
        if depth > self.stats.queue_high_water {
            self.stats.queue_high_water = depth;
        }
        if !self.active_flag[l] {
            self.active_flag[l] = true;
            self.active.push(l);
        }
    }

    /// Schedules `node` to be woken at the end of round `round` (must be
    /// in the future). Fires as part of that round's [`RoundOutput`].
    pub fn schedule_wakeup(&mut self, round: u64, node: NodeId) {
        debug_assert!(round > self.round, "wakeup must be scheduled in the future");
        self.wakeups.push(Reverse((round, node)));
    }

    /// `true` if no traffic is queued, in flight, or scheduled.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.transit.is_empty() && self.wakeups.is_empty()
    }

    /// The round at which something next happens, if anything is pending.
    fn next_event_round(&self) -> Option<u64> {
        let mut next = None;
        if !self.active.is_empty() {
            next = Some(self.round + 1);
        }
        if let Some(Reverse((r, _, _))) = self.transit.peek() {
            next = Some(next.map_or(*r, |n: u64| n.min(*r)));
        }
        if let Some(Reverse((r, _))) = self.wakeups.peek() {
            next = Some(next.map_or(*r, |n: u64| n.min(*r)));
        }
        next
    }

    /// Records `k` consecutive transferring rounds of `w` words each, the
    /// first of them round `first`: total words, active rounds, the peak
    /// (first reach wins, so ties keep the earliest round) and the
    /// optional history. Per-link words and the queue high-water stay
    /// with the caller.
    fn record_rounds(&mut self, first: u64, k: u64, w: u64) {
        self.stats.words += k * w;
        self.stats.active_rounds += k;
        if w > self.stats.max_words_in_round {
            self.stats.max_words_in_round = w;
            self.stats.peak_round = first;
        }
        if self.history {
            self.stats
                .words_per_round
                .extend((first..first + k).map(|r| (r, w)));
        }
    }

    /// Advances the simulation by exactly one round, clearing `out` and
    /// filling it with what the nodes observe at the round's end (reusing
    /// its backing buffers). Quiet rounds are stepped one by one too, so
    /// tests that need exact idle rounds call this; driver loops call
    /// [`Network::step_bulk_into`], which ends in it.
    pub fn step_into(&mut self, out: &mut RoundOutput<M>) {
        out.deliveries.clear();
        out.wakeups.clear();
        self.round += 1;

        // Transfer one word on every active link.
        let transferred = self.active.len() as u64;
        if transferred > 0 {
            self.record_rounds(self.round, 1, transferred);
        }
        let mut still_active = std::mem::take(&mut self.scratch_active);
        still_active.clear();
        let active = std::mem::take(&mut self.active);
        for &l in &active {
            let q = &mut self.queues[l];
            let head = q.front_mut().expect("active links have queued traffic");
            head.words_left -= 1;
            self.stats.per_link_words[l] += 1;
            if head.words_left == 0 {
                // The last word left the link: deliver now (zero latency)
                // or park the message in transit until its latency expires.
                let msg = q.pop_front().expect("head exists");
                let (from, to) = self.links.ends()[l];
                let delivery = Delivery {
                    from,
                    to,
                    payload: msg.payload,
                };
                if msg.latency == 0 {
                    self.stats.messages += 1;
                    if let Some(net) = self.events_net {
                        crate::events::emit_msg(net, self.round, from, to, msg.words);
                    }
                    out.deliveries.push(delivery);
                } else {
                    let seq = self.transit_seq;
                    self.transit_seq += 1;
                    let slot = match self.transit_free.pop() {
                        Some(s) => {
                            self.transit_msgs[s as usize] = Some((delivery, msg.words));
                            s
                        }
                        None => {
                            self.transit_msgs.push(Some((delivery, msg.words)));
                            (self.transit_msgs.len() - 1) as u32
                        }
                    };
                    self.transit
                        .push(Reverse((self.round + msg.latency, seq, slot)));
                }
            }
            if self.queues[l].is_empty() {
                self.active_flag[l] = false;
            } else {
                still_active.push(l);
            }
        }
        self.active = still_active;
        self.scratch_active = active;

        // Deliver messages whose latency expired.
        while let Some(Reverse((r, _, slot))) = self.transit.peek().copied() {
            if r > self.round {
                break;
            }
            self.transit.pop();
            let (msg, words) = self.transit_msgs[slot as usize]
                .take()
                .expect("transit message exists");
            self.transit_free.push(slot);
            self.stats.messages += 1;
            if let Some(net) = self.events_net {
                crate::events::emit_msg(net, self.round, msg.from, msg.to, words);
            }
            out.deliveries.push(msg);
        }

        // Fire wakeups.
        while let Some(Reverse((r, node))) = self.wakeups.peek().copied() {
            if r > self.round {
                break;
            }
            self.wakeups.pop();
            out.wakeups.push(node);
        }
    }

    /// Charges round `round` of a schedule run outside the queue machinery
    /// (the flood loop and the tree broadcast's upcast). `round` may jump
    /// ahead over quiet rounds, like [`Network::step_bulk_into`]. `links`
    /// each carry one word this round, in the engine's active-list order;
    /// a link appears at most once. `delivered` are the links whose
    /// `words`-word messages *arrive* this round, in delivery order: for
    /// a flood, this round's zero-latency sends first, then earlier sends
    /// whose latency expires now. `queue_depth` is the deepest per-link
    /// queue the sends behind this round's transfers built (1 for a flood,
    /// which forwards at most one announcement per link per round).
    ///
    /// Records exactly what [`Network::send_on_link`] followed by
    /// [`Network::step_into`] (or, with no transfer, a
    /// [`Network::step_bulk_into`] landing on `round`) would: transfer
    /// stats — words, per-link words, active rounds, first-reach peak
    /// tracking, the optional history, the queue high-water — only when
    /// `links` is nonempty, while the message count and the event log
    /// follow `delivered`. An empty charge at `round() + 1` is an idle
    /// `step_into`: the round advances and nothing is recorded.
    pub(crate) fn charge_flood_round(
        &mut self,
        round: u64,
        links: &[u32],
        delivered: impl ExactSizeIterator<Item = u32>,
        words: u64,
        queue_depth: u64,
    ) {
        debug_assert!(round > self.round, "charged rounds advance monotonically");
        self.round = round;
        let transferred = links.len() as u64;
        if transferred > 0 {
            self.record_rounds(round, 1, transferred);
            if self.stats.queue_high_water < queue_depth {
                self.stats.queue_high_water = queue_depth;
            }
            for &l in links {
                self.stats.per_link_words[l as usize] += 1;
            }
        }
        self.stats.messages += delivered.len() as u64;
        if let Some(net) = self.events_net {
            for l in delivered {
                let (from, to) = self.links.ends()[l as usize];
                crate::events::emit_msg(net, self.round, from, to, words);
            }
        }
    }

    /// Charges a complete **pipelined tree downcast** in closed form: the
    /// root streams `m` messages of `w` words each down every tree edge,
    /// and every internal node forwards each message to its children the
    /// round it arrives (the [`crate::broadcast`] downcast loop). The
    /// schedule is fully determined: the pipeline saturates, so the link
    /// into a depth-`d` node transfers continuously during rounds
    /// `w·(d-1)+1 ..= w·(d+m-1)` and delivers message `i` at round
    /// `w·(i+d)`.
    ///
    /// `links` are the tree links as `(link id, depth of the child
    /// endpoint)` in **BFS order** (depth ascending, siblings in
    /// `children[]` order) — exactly the order the engine-stepped loop's
    /// active list settles into, so the event log comes out in the same
    /// order. Reproduces what per-message [`Network::send`] +
    /// [`Network::step_bulk_into`] would record, stat for stat: the queue
    /// high-water `m` (the root enqueues everything up front), every per-round
    /// transfer count, the first-reach peak round, the optional history,
    /// and one message event per delivery. A no-op when `m == 0` or
    /// `links` is empty, matching an engine run with nothing to send.
    pub(crate) fn charge_pipelined_downcast(&mut self, links: &[(u32, u32)], m: u64, w: u64) {
        debug_assert_eq!(self.round, 0, "downcast runs on a fresh network");
        if m == 0 || links.is_empty() {
            return;
        }
        let w = w.max(1);
        let height = links.iter().map(|&(_, d)| d).max().expect("nonempty") as u64;
        debug_assert!(links.windows(2).all(|p| p[0].1 <= p[1].1), "BFS order");
        // Per-link totals, plus nodes-per-depth for the per-round transfer
        // counts below.
        let mut cnt = vec![0u64; height as usize + 1];
        for &(l, d) in links {
            cnt[d as usize] += 1;
            self.stats.per_link_words[l as usize] += m * w;
        }
        if self.stats.queue_high_water < m {
            self.stats.queue_high_water = m;
        }
        let mut prefix = vec![0u64; height as usize + 1];
        for d in 1..=height as usize {
            prefix[d] = prefix[d - 1] + cnt[d];
        }
        // Transfer stats round by round: at round r the busy links are
        // those whose transfer window covers r, i.e. child depths in
        // [ceil(r/w) - (m-1), (r-1)/w + 1] clipped to [1, height].
        let total_rounds = w * (height + m - 1);
        for r in 1..=total_rounds {
            let d_max = ((r - 1) / w + 1).min(height) as usize;
            let d_min = (r.div_ceil(w).saturating_sub(m - 1)).max(1) as usize;
            let transferred = prefix[d_max] - prefix[d_min - 1];
            debug_assert!(transferred > 0, "the pipeline never idles mid-stream");
            self.record_rounds(r, 1, transferred);
        }
        self.round = total_rounds;
        self.stats.messages += m * links.len() as u64;
        if let Some(net) = self.events_net {
            // Delivery rounds are the multiples of `w`: at r = w·t the
            // links with child depth in [t-m+1, t] each deliver one
            // message, in BFS order (depth-ascending, the engine's
            // active-list order).
            for t in 1..=(height + m - 1) {
                let d_max = t.min(height);
                let d_min = t.saturating_sub(m - 1).max(1);
                for &(l, d) in links {
                    let d = d as u64;
                    if d >= d_min && d <= d_max {
                        let (from, to) = self.links.ends()[l as usize];
                        crate::events::emit_msg(net, w * t, from, to, w);
                    }
                }
            }
        }
    }

    /// Charges a batch of simultaneous zero-latency sends in closed form,
    /// recording exactly what [`Network::send_on_link`] for each `(link,
    /// words)` in order, then [`Network::step_bulk_into`] until idle,
    /// would. A link carries its messages back to back, so a link whose
    /// sends total `T` words transfers during the next `T` rounds, and
    /// the round advances by the largest `T`. That fixes every stat:
    /// per-link words; each round's transfer count, the number of links
    /// still busy, which never rises, so the first-reach peak lands where
    /// stepping puts it; the queue high-water, the most messages on one
    /// link, all queued before the first round; the message count; and
    /// one event per message at its delivery round, within a round in
    /// the order the links were first sent on (the engine's active-list
    /// order). A `0`-word send is charged as one word, as `send_on_link`
    /// does.
    ///
    /// Runs on an idle network (nothing queued, in transit or scheduled)
    /// and leaves it idle. Its working buffers are kept on the network,
    /// so batch after batch allocates nothing.
    pub fn charge_batch(&mut self, sends: impl IntoIterator<Item = (u32, u64)>) {
        let mut s = self.begin_batch();
        for (l, words) in sends {
            s.push(l, words);
        }
        self.finish_batch(s);
    }

    /// Charges a neighbor exchange: every node sends one message of
    /// `words(node)` words to each of its communication neighbors, nodes
    /// in ascending order and each node's sends in link order. That is
    /// one send on every link in link id order, charged as
    /// [`Network::charge_batch`] would, straight from the link table.
    pub fn charge_all_links(&mut self, words: impl Fn(NodeId) -> u64) {
        let mut s = self.begin_batch();
        for (l, &(from, _)) in (0u32..).zip(self.links.ends()) {
            s.push(l, words(from));
        }
        self.finish_batch(s);
    }

    /// Takes the batch scratch, sized to this network's links, for a
    /// batch starting now.
    fn begin_batch(&mut self) -> BatchScratch {
        debug_assert!(self.is_idle(), "a batch is charged on an idle network");
        let mut s = std::mem::take(&mut self.batch);
        let m = self.links.ends().len();
        if s.per_link.len() != m {
            s.per_link = vec![(0, 0, 0); m];
        }
        s.start = self.round;
        s.logging = self.events_net.is_some();
        s
    }

    /// Records the batch's sends and returns the scratch to the network,
    /// empty.
    fn finish_batch(&mut self, mut s: BatchScratch) {
        let start = s.start;
        self.stats.messages += std::mem::take(&mut s.messages);
        for &l in &s.touched {
            let (_, total, count) = std::mem::take(&mut s.per_link[l as usize]);
            self.stats.per_link_words[l as usize] += total;
            self.stats.queue_high_water = self.stats.queue_high_water.max(count);
            s.totals.push(total);
        }
        // With the totals ascending, rounds `start + prev + 1 ..= start +
        // t` keep busy exactly the links from `t`'s position on.
        s.totals.sort_unstable();
        let busy = s.totals.len() as u64;
        let mut prev = 0;
        for (i, &t) in s.totals.iter().enumerate() {
            if t > prev {
                self.record_rounds(start + prev + 1, t - prev, busy - i as u64);
                prev = t;
            }
        }
        self.round = start + prev;
        if let Some(net) = self.events_net {
            s.events
                .sort_unstable_by_key(|&(round, rank, _, _)| (round, rank));
            for &(round, _, l, words) in &s.events {
                let (from, to) = self.links.ends()[l as usize];
                crate::events::emit_msg(net, round, from, to, words);
            }
        }
        s.touched.clear();
        s.totals.clear();
        s.events.clear();
        self.batch = s;
    }

    /// Advances to the next round in which something happens and performs
    /// it; returns `false` (leaving `out` cleared) when the network is
    /// idle. Quiet rounds — nothing transferring, only transit arrivals or
    /// wakeups pending — are jumped over; the round counter still advances
    /// over them, so complexity accounting is unchanged.
    ///
    /// On top of that, **bulk link transfer**: when no delivery, transit
    /// expiry, or wakeup can fire before round `r + k`, the engine
    /// advances every active link `k - 1` words in one pass — updating
    /// `NetStats` (words, per-link words, active rounds, peak round,
    /// `words_per_round` history) in closed form — and then executes round
    /// `r + k` with [`Network::step_into`]. Observable state after the
    /// call, including all statistics, the ledger history and the
    /// message-event log, is bit-identical to `k` calls of
    /// [`Network::step_into`]: during the skipped rounds the active-link
    /// set cannot change (no head finishes, by the choice of `k`), every
    /// round transfers exactly `active.len()` words, and nothing is
    /// delivered, so there is no event to log and no stats path that
    /// differs.
    ///
    /// The lookahead scan is `O(active)` and gated on the network ever
    /// having carried a multi-word message; single-word workloads only
    /// pay for the quiet-gap jump.
    pub fn step_bulk_into(&mut self, out: &mut RoundOutput<M>) -> bool {
        let Some(next) = self.next_event_round() else {
            out.deliveries.clear();
            out.wakeups.clear();
            return false;
        };
        if next > self.round + 1 {
            // Quiet gap: nothing is transferring; jump to the event.
            self.round = next - 1;
        } else if self.any_multiword && !self.active.is_empty() {
            // k = number of rounds until *any* observable event: the
            // earliest head completion, transit expiry, or wakeup.
            let mut k = u64::MAX;
            for &l in &self.active {
                let head = self.queues[l].front().expect("active links have traffic");
                k = k.min(head.words_left);
            }
            if let Some(Reverse((r, _, _))) = self.transit.peek() {
                k = k.min(r - self.round);
            }
            if let Some(Reverse((r, _))) = self.wakeups.peek() {
                k = k.min(r - self.round);
            }
            if k > 1 {
                let skipped = k - 1;
                self.record_rounds(self.round + 1, skipped, self.active.len() as u64);
                for &l in &self.active {
                    let head = self.queues[l].front_mut().expect("active");
                    head.words_left -= skipped;
                    self.stats.per_link_words[l] += skipped;
                }
                self.round += skipped;
            }
        }
        self.step_into(out);
        true
    }
}

impl BatchScratch {
    /// Adds one `words`-word send on link `l` to the batch.
    #[inline]
    fn push(&mut self, l: u32, words: u64) {
        let words = words.max(1);
        let entry = &mut self.per_link[l as usize];
        if entry.2 == 0 {
            entry.0 = self.touched.len() as u32;
            self.touched.push(l);
        }
        entry.1 += words;
        entry.2 += 1;
        self.messages += 1;
        if self.logging {
            self.events.push((self.start + entry.1, entry.0, l, words));
        }
    }
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("n", &self.n)
            .field("round", &self.round)
            .field("links", &self.links.ends().len())
            .field("words", &self.stats.words)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::Orientation;

    fn path3() -> Graph {
        Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap()
    }

    /// One [`Network::step_into`] round, returning what the nodes observe.
    fn step<M>(net: &mut Network<M>) -> RoundOutput<M> {
        let mut out = RoundOutput::default();
        net.step_into(&mut out);
        out
    }

    /// One [`Network::step_bulk_into`] call; `None` once the network is
    /// idle.
    fn bulk<M>(net: &mut Network<M>) -> Option<RoundOutput<M>> {
        let mut out = RoundOutput::default();
        net.step_bulk_into(&mut out).then_some(out)
    }

    #[test]
    fn single_word_takes_one_round() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 7, 1).unwrap();
        let out = step(&mut net);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].from, 0);
        assert_eq!(out.deliveries[0].to, 1);
        assert_eq!(out.deliveries[0].payload, 7);
        assert_eq!(net.round(), 1);
        assert!(net.is_idle());
    }

    #[test]
    fn multi_word_message_occupies_link() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 1, 3).unwrap();
        assert!(step(&mut net).deliveries.is_empty());
        assert!(step(&mut net).deliveries.is_empty());
        let out = step(&mut net);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(net.round(), 3);
        assert_eq!(net.stats().words, 3);
    }

    #[test]
    fn fifo_per_link() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 10, 1).unwrap();
        net.send(0, 1, 20, 1).unwrap();
        assert_eq!(step(&mut net).deliveries[0].payload, 10);
        assert_eq!(step(&mut net).deliveries[0].payload, 20);
        assert_eq!(net.round(), 2);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 1, 1).unwrap();
        net.send(1, 0, 2, 1).unwrap();
        let out = step(&mut net);
        assert_eq!(out.deliveries.len(), 2);
        assert_eq!(net.round(), 1);
    }

    #[test]
    fn directed_graph_links_are_bidirectional() {
        let g = Graph::from_edges(2, Orientation::Directed, [(0, 1, 1)]).unwrap();
        let mut net: Network<u32> = Network::new(&g);
        // Message against the edge orientation is fine: links are
        // bidirectional in CONGEST.
        net.send(1, 0, 5, 1).unwrap();
        assert_eq!(step(&mut net).deliveries.len(), 1);
    }

    #[test]
    fn send_to_non_neighbor_fails() {
        let mut net: Network<u32> = Network::new(&path3());
        assert_eq!(
            net.send(0, 2, 9, 1),
            Err(SendError::NoLink { from: 0, to: 2 })
        );
    }

    #[test]
    fn latency_delays_delivery_but_pipelines() {
        let mut net: Network<u32> = Network::new(&path3());
        // Two messages over a stretched edge of length 4 (latency 3):
        // arrivals at rounds 4 and 5 — pipelined, not serialized to 8.
        net.send_latency(0, 1, 1, 1, 3).unwrap();
        net.send_latency(0, 1, 2, 1, 3).unwrap();
        let mut arrivals = Vec::new();
        while !net.is_idle() {
            let out = step(&mut net);
            for d in out.deliveries {
                arrivals.push((net.round(), d.payload));
            }
        }
        assert_eq!(arrivals, vec![(4, 1), (5, 2)]);
    }

    #[test]
    fn step_bulk_skips_quiet_rounds_but_counts_them() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send_latency(0, 1, 1, 1, 9).unwrap();
        // Word leaves at round 1; arrival at round 10.
        let out = step(&mut net);
        assert!(out.deliveries.is_empty());
        let out = bulk(&mut net).expect("pending arrival");
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(net.round(), 10);
        assert!(bulk(&mut net).is_none());
    }

    #[test]
    fn wakeups_fire_at_their_round() {
        let mut net: Network<u32> = Network::new(&path3());
        net.schedule_wakeup(5, 2);
        net.schedule_wakeup(5, 0);
        net.schedule_wakeup(3, 1);
        let out = bulk(&mut net).unwrap();
        assert_eq!(net.round(), 3);
        assert_eq!(out.wakeups, vec![1]);
        let out = bulk(&mut net).unwrap();
        assert_eq!(net.round(), 5);
        let mut w = out.wakeups.clone();
        w.sort_unstable();
        assert_eq!(w, vec![0, 2]);
    }

    #[test]
    fn stats_count_words_and_cut() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 1, 2).unwrap();
        net.send(2, 1, 1, 1).unwrap();
        while !net.is_idle() {
            step(&mut net);
        }
        assert_eq!(net.stats().words, 3);
        assert_eq!(net.stats().messages, 2);
        // Partition {0} vs {1,2}: only the 2-word message crosses.
        let mut ledger = crate::Ledger::new();
        ledger.absorb("cut", &net);
        assert_eq!(ledger.words_across(&[true, false, false]), 2);
        assert_eq!(ledger.words_across(&[true, true, false]), 1);
    }

    #[test]
    fn history_records_congestion_timeline() {
        let mut net: Network<u32> = Network::new(&path3());
        net.enable_history();
        net.send(0, 1, 1, 2).unwrap();
        net.send(1, 2, 2, 1).unwrap();
        while !net.is_idle() {
            step(&mut net);
        }
        // Round 1: both links busy (2 words); round 2: only 0→1 (1 word).
        assert_eq!(net.stats().words_per_round, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn peak_round_is_the_earliest_max_round() {
        let mut net: Network<u32> = Network::new(&path3());
        // Round 1 moves 2 words (both links), round 2 moves 2 words again
        // (tie), round 3 moves 1: the peak round must stay at 1.
        net.send(0, 1, 1, 2).unwrap();
        net.send(1, 2, 2, 2).unwrap();
        step(&mut net);
        step(&mut net);
        net.send(0, 1, 3, 1).unwrap();
        step(&mut net);
        assert_eq!(net.stats().max_words_in_round, 2);
        assert_eq!(net.stats().peak_round, 1);
    }

    #[test]
    fn events_log_deliveries_with_rounds_and_words() {
        let cap = crate::events::EventCapture::memory();
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 7, 2).unwrap();
        net.send_latency(1, 2, 8, 1, 3).unwrap();
        while !net.is_idle() {
            step(&mut net);
        }
        let lines = cap.finish();
        assert_eq!(
            lines,
            vec![
                r#"{"ev":"msg","net":0,"round":2,"from":0,"to":1,"words":2}"#,
                r#"{"ev":"msg","net":0,"round":4,"from":1,"to":2,"words":1}"#,
            ]
        );
    }

    #[test]
    fn zero_word_send_is_clamped_to_one() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 1, 0).unwrap();
        assert_eq!(step(&mut net).deliveries.len(), 1);
    }

    /// Loads `net` with a mixed workload: multi-word, latency, and
    /// plain-word traffic plus wakeups.
    fn mixed_load(net: &mut Network<u32>) {
        net.send(0, 1, 1, 5).unwrap();
        net.send(0, 1, 2, 1).unwrap();
        net.send_latency(1, 2, 3, 4, 3).unwrap();
        net.send(2, 1, 4, 2).unwrap();
        net.schedule_wakeup(2, 0);
        net.schedule_wakeup(9, 2);
    }

    /// Drains `net` with `advance`, recording `(round, deliveries,
    /// wakeups)` per non-empty output.
    fn drain(
        net: &mut Network<u32>,
        mut advance: impl FnMut(&mut Network<u32>) -> Option<RoundOutput<u32>>,
    ) -> Vec<(u64, Vec<(NodeId, NodeId, u32)>, Vec<NodeId>)> {
        let mut log = Vec::new();
        while let Some(out) = advance(net) {
            if !out.deliveries.is_empty() || !out.wakeups.is_empty() {
                let ds = out
                    .deliveries
                    .iter()
                    .map(|d| (d.from, d.to, d.payload))
                    .collect();
                log.push((net.round(), ds, out.wakeups.clone()));
            }
        }
        log
    }

    #[test]
    fn bulk_step_is_bit_identical_to_single_stepping() {
        let g = path3();
        let mut slow: Network<u32> = Network::new(&g);
        let mut fast: Network<u32> = Network::new(&g);
        slow.enable_history();
        fast.enable_history();
        mixed_load(&mut slow);
        mixed_load(&mut fast);
        let slow_log = drain(&mut slow, |n| (!n.is_idle()).then(|| step(n)));
        let fast_log = drain(&mut fast, bulk);
        assert_eq!(slow_log, fast_log);
        assert_eq!(slow.round(), fast.round());
        assert_eq!(slow.stats(), fast.stats());
    }

    #[test]
    fn bulk_step_skips_rounds_inside_long_messages() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 7, 100).unwrap();
        let mut calls = 0;
        while bulk(&mut net).is_some() {
            calls += 1;
        }
        // One bulk call covers rounds 1..=100; the message arrives at 100.
        assert_eq!(calls, 1);
        assert_eq!(net.round(), 100);
        assert_eq!(net.stats().words, 100);
        assert_eq!(net.stats().active_rounds, 100);
    }

    #[test]
    fn bulk_step_peak_round_ties_break_earliest() {
        let mut net: Network<u32> = Network::new(&path3());
        // Two links active for 4 rounds (bulk), then one for 2 more.
        net.send(0, 1, 1, 4).unwrap();
        net.send(1, 2, 2, 6).unwrap();
        while bulk(&mut net).is_some() {}
        assert_eq!(net.stats().max_words_in_round, 2);
        assert_eq!(net.stats().peak_round, 1);
        assert_eq!(net.stats().words, 10);
    }

    #[test]
    fn bulk_step_stops_at_transit_and_wakeup_boundaries() {
        let g = path3();
        let mut slow: Network<u32> = Network::new(&g);
        let mut fast: Network<u32> = Network::new(&g);
        for net in [&mut slow, &mut fast] {
            net.enable_history();
            // 10-word transfer on 0→1; a latency message expiring at round
            // 4 and a wakeup at round 7 both interrupt the bulk run.
            net.send(0, 1, 1, 10).unwrap();
            net.send_latency(1, 2, 2, 1, 3).unwrap();
            net.schedule_wakeup(7, 1);
        }
        let slow_log = drain(&mut slow, |n| (!n.is_idle()).then(|| step(n)));
        let fast_log = drain(&mut fast, bulk);
        assert_eq!(slow_log, fast_log);
        assert_eq!(slow.stats(), fast.stats());
    }

    /// One flood pass for [`flood_charge_matches_engine_stepping`]: the
    /// `(link, latency)` sends, and whether an empty pass still charges
    /// an idle round (detection's filtered-pop rule).
    type Pass = (Vec<(u32, u64)>, bool);

    /// Random passes over `links` distinct-link batches: about a third
    /// empty (half of those idle-charged), latencies 0–5 with 0 common.
    fn random_passes(seed: u64, links: u32) -> Vec<Pass> {
        let mut rng = mwc_rng::Rng::seed_from_u64(seed);
        (0..rng.random_range(1usize..30))
            .map(|_| {
                let mut ids: Vec<u32> = (0..links).collect();
                let k = if rng.random_bool(0.35) {
                    0
                } else {
                    rng.random_range(1..=links as usize)
                };
                let mut batch = Vec::with_capacity(k);
                for i in 0..k {
                    let j = rng.random_range(i..ids.len());
                    ids.swap(i, j);
                    let lat = if rng.random_bool(0.5) {
                        0
                    } else {
                        rng.random_range(1u64..6)
                    };
                    batch.push((ids[i], lat));
                }
                (batch, rng.random_bool(0.5))
            })
            .collect()
    }

    /// Runs `passes` through the engine: `send_on_link` each send, then
    /// `step_into` (a pass that sends, or an idle-charged one) or
    /// `step_bulk_into` (a pass that sends nothing), then drain.
    fn engine_flood(g: &Graph, passes: &[Pass]) -> (u64, NetStats, Vec<String>) {
        let cap = crate::events::EventCapture::memory();
        let mut net: Network<()> = Network::new(g);
        net.enable_history();
        let mut out = RoundOutput::default();
        for (batch, idle) in passes {
            for &(l, lat) in batch {
                net.send_on_link(l as usize, (), 1, lat);
            }
            if !batch.is_empty() || *idle {
                net.step_into(&mut out);
            } else {
                net.step_bulk_into(&mut out);
            }
        }
        while net.step_bulk_into(&mut out) {}
        (net.round(), net.stats().clone(), cap.finish())
    }

    /// The same passes charged with `charge_flood_round`, arrivals kept in
    /// a plain map: this pass's latency-0 sends deliver first, then the
    /// round's earlier sends in send order.
    fn charged_flood(g: &Graph, passes: &[Pass]) -> (u64, NetStats, Vec<String>) {
        let cap = crate::events::EventCapture::memory();
        let mut net: Network<()> = Network::new(g);
        net.enable_history();
        let mut arrivals: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
        for (batch, idle) in passes {
            let send_round = net.round() + 1;
            let links: Vec<u32> = batch.iter().map(|&(l, _)| l).collect();
            let mut delivered = Vec::new();
            for &(l, lat) in batch {
                if lat == 0 {
                    delivered.push(l);
                } else {
                    arrivals.entry(send_round + lat).or_default().push(l);
                }
            }
            let round = if !batch.is_empty() || *idle {
                send_round
            } else if let Some(&r) = arrivals.keys().next() {
                r
            } else {
                continue;
            };
            delivered.extend(arrivals.remove(&round).unwrap_or_default());
            net.charge_flood_round(round, &links, delivered.into_iter(), 1, 1);
        }
        while let Some((r, delivered)) = arrivals.pop_first() {
            net.charge_flood_round(r, &[], delivered.into_iter(), 1, 1);
        }
        (net.round(), net.stats().clone(), cap.finish())
    }

    /// The flood loop charges rounds in bulk instead of stepping the
    /// engine, so the bulk charge must record exactly what per-message
    /// sends plus engine steps record: every `NetStats` field (history
    /// on) and the event log, over random one-word batches with mixed
    /// latencies, idle rounds, and quiet-gap fast-forwards.
    #[test]
    fn flood_charge_matches_engine_stepping() {
        use mwc_graph::generators::{connected_gnm, WeightRange};
        let g = connected_gnm(10, 16, Orientation::Directed, WeightRange::unit(), 3);
        let links = Network::<()>::new(&g).link_ends().len() as u32;
        for seed in 0..200 {
            let passes = random_passes(seed, links);
            let engine = engine_flood(&g, &passes);
            assert!(engine.0 > 0 || passes.iter().all(|p| p.0.is_empty() && !p.1));
            assert_eq!(charged_flood(&g, &passes), engine, "seed {seed}");
        }
    }

    #[test]
    fn bulk_step_event_log_matches_single_stepping() {
        let run = |bulked: bool| {
            let cap = crate::events::EventCapture::memory();
            let mut net: Network<u32> = Network::new(&path3());
            net.send(0, 1, 7, 6).unwrap();
            net.send_latency(1, 2, 8, 3, 2).unwrap();
            if bulked {
                while bulk(&mut net).is_some() {}
            } else {
                while !net.is_idle() {
                    step(&mut net);
                }
            }
            cap.finish()
        };
        assert_eq!(run(false), run(true));
    }
}

//! A sequential specification of the flood primitives' round semantics
//! (`multi_source_bfs` and `source_detection`), written for reading, not
//! speed: ordered-set outboxes, a map of arrivals, plain counters, and an
//! event list. No network, no bitsets, no ring. It states the five rules
//! of the `multibfs` module docs:
//!
//! 1. Each round, the nodes holding a fresh announcement act in ascending
//!    node id.
//! 2. An acting node pops its `(dist, row)` minimum and sends it over its
//!    traversal edges in adjacency order (the `FloodPlan` hop order),
//!    skipping edges whose announced distance exceeds the budget.
//! 3. A round delivers its latency-0 sends first, in send order; earlier
//!    sends arriving that round follow, in `(send round, send order)`.
//! 4. A delivery is admitted only if it strictly improves the receiver's
//!    distance for the row (detection also requires it to survive top-σ
//!    truncation), so the first strictly better delivery sets the
//!    predecessor.
//! 5. A pass that sends charges the next round. A pass that popped but
//!    had every send filtered charges nothing for BFS and one idle round
//!    for detection. A pass with nothing to pop jumps to the next
//!    arrival, or ends the flood.

use std::collections::{BTreeMap, BTreeSet};

use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};

/// Which primitive's admission and round-control rules to follow.
#[derive(Clone, Copy, Debug)]
pub enum Rule {
    /// Multi-source BFS.
    Bfs,
    /// `(S, h, σ)` source detection.
    Detect { sigma: usize },
}

/// Everything a flood exposes.
#[derive(Debug, Default)]
pub struct SpecOutcome {
    /// Per node: source row → `(best distance, predecessor)`, for every
    /// row ever admitted there. A source's own entry names itself.
    pub best: Vec<BTreeMap<usize, (Weight, NodeId)>>,
    /// Per node, detection's top-σ `(distance, row)` set (empty for BFS).
    pub top: Vec<BTreeSet<(Weight, usize)>>,
    /// Rounds charged, words sent, messages delivered.
    pub rounds: u64,
    pub words: u64,
    pub messages: u64,
    /// Words per directed link `(from, to)`.
    pub link_words: BTreeMap<(NodeId, NodeId), u64>,
    /// Every delivery as `(round, from, to)`, in delivery order.
    pub events: Vec<(u64, NodeId, NodeId)>,
    /// Passes that popped announcements but sent nothing (rule 5's
    /// filtered case), so tests can check they cover it.
    pub filtered_passes: u64,
    /// Detection admissions of a row new to the node that land outside
    /// its top-σ set at once, so tests can check they cover them.
    pub truncated_on_arrival: u64,
}

/// An announcement in flight.
struct Send {
    from: NodeId,
    to: NodeId,
    row: usize,
    dist: Weight,
}

/// Runs the flood from `rows` (row `i` is source `rows[i]`; detection
/// numbers rows in ascending source id, so pass its sources sorted) with
/// distance budget `budget`. `latency` is the per-edge weight table
/// (`None` = unit weights): an edge adds its weight to the distance and
/// takes `max(weight, 1)` rounds to cross.
pub fn run_flood(
    g: &Graph,
    rows: &[NodeId],
    budget: Weight,
    direction: Direction,
    latency: Option<&[Weight]>,
    rule: Rule,
) -> SpecOutcome {
    let n = g.n();
    let mut out = SpecOutcome {
        best: vec![BTreeMap::new(); n],
        top: vec![BTreeSet::new(); n],
        ..SpecOutcome::default()
    };
    let mut outbox: Vec<BTreeSet<(Weight, usize)>> = vec![BTreeSet::new(); n];
    let mut arrivals: BTreeMap<u64, Vec<Send>> = BTreeMap::new();
    for (row, &s) in rows.iter().enumerate() {
        admit(&mut out, &mut outbox[s], rule, s, row, 0, s);
    }
    let mut round = 0;
    loop {
        // Rules 1 and 2. Sends are delivered only after the pass, so
        // scanning every node in id order sees the pass's starting state.
        let mut popped = false;
        let mut sent = 0;
        let mut now = Vec::new();
        for (v, ob) in outbox.iter_mut().enumerate() {
            let Some((d, row)) = ob.pop_first() else {
                continue;
            };
            popped = true;
            for a in direction.adj(g, v) {
                let (add, stretch) = match latency {
                    None => (1, 1),
                    Some(l) => (l[a.edge], l[a.edge].max(1)),
                };
                let dist = d + add;
                if dist > budget {
                    continue;
                }
                sent += 1;
                *out.link_words.entry((v, a.to)).or_default() += 1;
                let msg = Send {
                    from: v,
                    to: a.to,
                    row,
                    dist,
                };
                if stretch == 1 {
                    now.push(msg);
                } else {
                    arrivals.entry(round + stretch).or_default().push(msg);
                }
            }
        }

        // Rule 5.
        if popped && sent == 0 {
            out.filtered_passes += 1;
        }
        if sent > 0 || (popped && matches!(rule, Rule::Detect { .. })) {
            round += 1;
            out.words += sent;
        } else if outbox.iter().any(|o| !o.is_empty()) {
            continue;
        } else if let Some(&next) = arrivals.keys().next() {
            round = next;
        } else {
            break;
        }

        // Rules 3 and 4.
        now.extend(arrivals.remove(&round).unwrap_or_default());
        for m in now {
            out.messages += 1;
            out.events.push((round, m.from, m.to));
            admit(
                &mut out,
                &mut outbox[m.to],
                rule,
                m.to,
                m.row,
                m.dist,
                m.from,
            );
        }
    }
    out.rounds = round;
    out
}

/// Rule 4: offers `(d, row)` at `v` from `from`, updating `v`'s outbox.
fn admit(
    out: &mut SpecOutcome,
    outbox: &mut BTreeSet<(Weight, usize)>,
    rule: Rule,
    v: NodeId,
    row: usize,
    d: Weight,
    from: NodeId,
) {
    let old = out.best[v].get(&row).map(|&(od, _)| od);
    if old.is_some_and(|od| od <= d) {
        return;
    }
    out.best[v].insert(row, (d, from));
    if let Some(od) = old {
        outbox.remove(&(od, row));
    }
    match rule {
        Rule::Bfs => {
            outbox.insert((d, row));
        }
        Rule::Detect { sigma } => {
            let top = &mut out.top[v];
            if let Some(od) = old {
                top.remove(&(od, row));
            }
            top.insert((d, row));
            while top.len() > sigma {
                let worst = top.pop_last().expect("nonempty");
                outbox.remove(&worst);
            }
            if top.contains(&(d, row)) {
                outbox.insert((d, row));
            } else if old.is_none() {
                out.truncated_on_arrival += 1;
            }
        }
    }
}

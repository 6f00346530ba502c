//! Round accounting across algorithm phases.
//!
//! The paper's algorithms are sequences of phases (sampling, multi-source
//! BFS, broadcasts, restricted BFS, convergecast, …), each simulated on its
//! own [`Network`](crate::Network) instance over the same topology. A
//! [`Ledger`] accumulates the round/word/message counts of those phases so
//! an end-to-end algorithm reports one total, with a per-phase breakdown
//! for the benchmark tables, and the run's congestion summary: peak words
//! per round, queue high-water and hot links.

use crate::engine::{NetStats, Network};
use mwc_graph::NodeId;
use std::fmt;

/// How many hot links a congestion summary retains.
pub const PROFILE_HOT_LINKS: usize = 3;

/// One accounted phase of a distributed algorithm.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Human-readable phase name (e.g. `"h-hop BFS from S"`).
    pub label: String,
    /// Rounds the phase took.
    pub rounds: u64,
    /// Words it moved.
    pub words: u64,
}

/// Accumulated cost of a distributed computation.
///
/// # Examples
///
/// ```
/// use mwc_congest::{Ledger, Network, RoundOutput};
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)])?;
/// let mut ledger = Ledger::new();
/// let mut net: Network<u8> = Network::new(&g);
/// net.send(0, 1, 42, 1)?;
/// net.step_into(&mut RoundOutput::default());
/// ledger.absorb("hello", &net);
/// assert_eq!(ledger.rounds, 1);
/// assert_eq!(ledger.phases.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Total rounds across phases (phases run sequentially).
    pub rounds: u64,
    /// Total words moved.
    pub words: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Rounds the phase cache avoided re-charging (cached BFS trees,
    /// reused latency tables). Not part of `rounds`; purely an audit trail
    /// so cache hits stay visible in reports and diffs.
    pub rounds_saved: u64,
    /// Phase breakdown, in execution order.
    pub phases: Vec<Phase>,
    link_ends: Vec<(NodeId, NodeId)>,
    per_link_words: Vec<u64>,
    /// Rounds that transferred at least one word, over all phases.
    active_rounds: u64,
    /// The most words any single round transferred.
    max_words_in_round: u64,
    /// The global round (phase offsets applied) at which
    /// `max_words_in_round` was first reached; the earliest peak wins.
    peak_round: u64,
    /// The deepest any link's send queue got, over all phases.
    queue_high_water: u64,
    /// Concatenated congestion timeline: `(global round, words)` across all
    /// absorbed phases, with each phase's rounds offset so the timeline is
    /// monotone. Only populated for phases whose network had
    /// [`Network::enable_history`](crate::Network::enable_history) on.
    words_per_round: Vec<(u64, u64)>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Adds the cost of a finished phase simulated on `net`.
    ///
    /// The `mwc_trace::add_cost` call below charges the phase's simulated
    /// rounds/words/messages to the **innermost open span** on this
    /// thread. Wall-clock and allocation profiling in `mwc-trace` use the
    /// same attribution model: interval marks at every span open/close
    /// charge the elapsed wall-nanoseconds and allocator traffic since
    /// the last boundary to the innermost span, so a span's self-cost in
    /// all five metrics means "what happened while this span was the
    /// deepest one open". The difference is only *when* the charge lands:
    /// simulated cost arrives in one lump here at absorb time, while
    /// wall/alloc accrue continuously at span boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `net` was built over a different topology than earlier
    /// absorbed phases (the per-link tables would not line up).
    pub fn absorb<M>(&mut self, label: &str, net: &Network<M>) {
        if let Some(id) = net.events_net() {
            let stats = net.stats();
            let (offset, rounds) = (self.rounds, net.round());
            crate::events::emit_phase(id, label, offset, rounds, stats.words, stats.messages);
        }
        self.absorb_stats(label, net.round(), net.stats(), net.link_ends());
    }

    /// [`Ledger::absorb`] from a finished network's parts: its round
    /// count, stats and link table. The flood memo replays a phase this
    /// way, and only with the message-event log off, so no phase event is
    /// emitted here.
    pub(crate) fn absorb_stats(
        &mut self,
        label: &str,
        rounds: u64,
        stats: &NetStats,
        link_ends: &[(NodeId, NodeId)],
    ) {
        let offset = self.rounds;
        self.fold_congestion(
            offset,
            stats.active_rounds,
            stats.max_words_in_round,
            stats.peak_round,
            stats.queue_high_water,
        );
        self.rounds += rounds;
        self.words += stats.words;
        self.messages += stats.messages;
        mwc_trace::add_cost(rounds, stats.words, stats.messages);
        self.phases.push(Phase {
            label: label.to_owned(),
            rounds,
            words: stats.words,
        });
        self.words_per_round
            .extend(stats.words_per_round.iter().map(|&(r, w)| (offset + r, w)));
        if self.link_ends.is_empty() {
            self.link_ends = link_ends.to_vec();
            self.per_link_words = stats.per_link_words.clone();
        } else {
            assert_eq!(
                self.link_ends.len(),
                link_ends.len(),
                "ledger phases must share one topology"
            );
            for (acc, w) in self.per_link_words.iter_mut().zip(&stats.per_link_words) {
                *acc += w;
            }
        }
    }

    /// Merges another ledger (e.g. a subroutine's) into this one. The
    /// other's phases are treated as running after this ledger's (their
    /// congestion timeline shifts by this ledger's rounds).
    pub fn merge(&mut self, other: &Ledger) {
        let offset = self.rounds;
        self.fold_congestion(
            offset,
            other.active_rounds,
            other.max_words_in_round,
            other.peak_round,
            other.queue_high_water,
        );
        self.rounds += other.rounds;
        self.words += other.words;
        self.messages += other.messages;
        self.rounds_saved += other.rounds_saved;
        self.phases.extend(other.phases.iter().cloned());
        self.words_per_round
            .extend(other.words_per_round.iter().map(|&(r, w)| (offset + r, w)));
        if self.link_ends.is_empty() {
            self.link_ends = other.link_ends.clone();
            self.per_link_words = other.per_link_words.clone();
        } else if !other.link_ends.is_empty() {
            assert_eq!(self.link_ends.len(), other.link_ends.len());
            for (acc, w) in self.per_link_words.iter_mut().zip(&other.per_link_words) {
                *acc += w;
            }
        }
    }

    /// Folds a later phase's (or ledger's) congestion into the running
    /// totals: active rounds add, the queue high-water is the max, and a
    /// peak moves only when strictly higher, so the earliest one wins ties.
    /// `offset` is the global round the incoming part starts after.
    fn fold_congestion(
        &mut self,
        offset: u64,
        active_rounds: u64,
        max_words_in_round: u64,
        peak_round: u64,
        queue_high_water: u64,
    ) {
        self.active_rounds += active_rounds;
        if max_words_in_round > self.max_words_in_round {
            self.max_words_in_round = max_words_in_round;
            self.peak_round = offset + peak_round;
        }
        self.queue_high_water = self.queue_high_water.max(queue_high_water);
    }

    /// Records a phase-cache hit: a structure that would have cost
    /// `saved_rounds` was replayed instead of rebuilt. Pushes
    /// a zero-cost synthetic phase labeled `cached: <what> (saved N
    /// rounds)` so the reuse is visible in per-phase breakdowns, bumps
    /// [`Ledger::rounds_saved`], and attributes the saving to the open
    /// trace span. Totals (`rounds`/`words`/`messages`) are untouched — a
    /// real CONGEST execution pays for the structure exactly once.
    pub fn credit_cached(&mut self, what: &str, saved_rounds: u64) {
        self.rounds_saved += saved_rounds;
        mwc_trace::add_saved(saved_rounds);
        self.phases.push(Phase {
            label: format!("cached: {what} (saved {saved_rounds} rounds)"),
            rounds: 0,
            words: 0,
        });
    }

    /// The concatenated `(global round, words)` congestion timeline across
    /// all absorbed phases whose network had history enabled. Empty when no
    /// phase recorded history.
    pub fn words_per_round(&self) -> &[(u64, u64)] {
        &self.words_per_round
    }

    /// The `k` most-loaded directed links across all absorbed phases, as
    /// `((from, to), words)` heaviest first. The order is a total order —
    /// load descending, then `(from, to)` ascending — so run records and
    /// diffs can never flake on ties (see [`top_links`]).
    pub fn hot_links(&self, k: usize) -> Vec<((NodeId, NodeId), u64)> {
        top_links(&self.link_ends, &self.per_link_words, k)
    }

    /// Aggregates the ledger into the
    /// [`CongestionSummary`](mwc_trace::CongestionSummary) a
    /// [`RunRecord`](mwc_trace::RunRecord) carries: totals, active rounds,
    /// the global peak round (phase offsets applied, earliest peak wins
    /// ties), queue high-water (the max over phases) and the top
    /// [`PROFILE_HOT_LINKS`] hot links.
    pub fn congestion_summary(&self, label: &str) -> mwc_trace::CongestionSummary {
        mwc_trace::CongestionSummary {
            label: label.to_owned(),
            rounds: self.rounds,
            words: self.words,
            messages: self.messages,
            rounds_saved: self.rounds_saved,
            active_rounds: self.active_rounds,
            max_words_in_round: self.max_words_in_round,
            peak_round: self.peak_round,
            queue_high_water: self.queue_high_water,
            hot_links: self
                .hot_links(PROFILE_HOT_LINKS)
                .into_iter()
                .map(|((f, t), w)| (f as u64, t as u64, w))
                .collect(),
        }
    }

    /// Total words that crossed the cut of a node partition (`side[v]` is
    /// `v`'s side), summed over all absorbed phases. Used by the
    /// lower-bound communication harness.
    pub fn words_across(&self, side: &[bool]) -> u64 {
        self.link_ends
            .iter()
            .zip(&self.per_link_words)
            .filter(|((u, v), _)| side[*u] != side[*v])
            .map(|(_, w)| *w)
            .sum()
    }
}

impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total: {} rounds, {} words, {} messages",
            self.rounds, self.words, self.messages
        )?;
        if self.rounds_saved > 0 {
            writeln!(f, "cached: {} rounds saved", self.rounds_saved)?;
        }
        for p in &self.phases {
            writeln!(
                f,
                "  {:<40} {:>10} rounds {:>12} words",
                p.label, p.rounds, p.words
            )?;
        }
        Ok(())
    }
}

/// The `k` heaviest `(link, words)` pairs from a per-link load table.
///
/// The order is a *total* order — load descending, then `(from, to)`
/// ascending — never map or insertion order, so every hot-link report
/// (engine, ledger, run records, diffs) is deterministic even on ties.
/// Because the order is total, selecting the first `k` and sorting only
/// those gives exactly the first `k` of a full sort.
pub fn top_links(
    link_ends: &[(NodeId, NodeId)],
    per_link_words: &[u64],
    k: usize,
) -> Vec<((NodeId, NodeId), u64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut loaded: Vec<((NodeId, NodeId), u64)> = link_ends
        .iter()
        .copied()
        .zip(per_link_words.iter().copied())
        .filter(|&(_, w)| w > 0)
        .collect();
    let order = |a: &((NodeId, NodeId), u64), b: &((NodeId, NodeId), u64)| {
        b.1.cmp(&a.1).then(a.0.cmp(&b.0))
    };
    if k < loaded.len() {
        loaded.select_nth_unstable_by(k, order);
        loaded.truncate(k);
    }
    loaded.sort_unstable_by(order);
    loaded
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::{Graph, Orientation};

    /// One [`Network::step_into`] round.
    fn step(net: &mut Network<u8>) {
        net.step_into(&mut crate::RoundOutput::default());
    }

    fn edge() -> Graph {
        Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap()
    }

    #[test]
    fn absorb_accumulates() {
        let g = edge();
        let mut ledger = Ledger::new();
        for i in 0..3u8 {
            let mut net: Network<u8> = Network::new(&g);
            net.send(0, 1, i, 2).unwrap();
            while !net.is_idle() {
                step(&mut net);
            }
            ledger.absorb("phase", &net);
        }
        assert_eq!(ledger.rounds, 6);
        assert_eq!(ledger.words, 6);
        assert_eq!(ledger.messages, 3);
        assert_eq!(ledger.phases.len(), 3);
    }

    #[test]
    fn cut_accounting_spans_phases() {
        let g = edge();
        let mut ledger = Ledger::new();
        for _ in 0..2 {
            let mut net: Network<u8> = Network::new(&g);
            net.send(1, 0, 0, 5).unwrap();
            while !net.is_idle() {
                step(&mut net);
            }
            ledger.absorb("phase", &net);
        }
        assert_eq!(ledger.words_across(&[true, false]), 10);
        assert_eq!(ledger.words_across(&[true, true]), 0);
    }

    #[test]
    fn display_renders_phases() {
        let g = edge();
        let mut ledger = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        step(&mut net);
        ledger.absorb("hello phase", &net);
        let text = format!("{ledger}");
        assert!(text.contains("total: 1 rounds"));
        assert!(text.contains("hello phase"));
    }

    #[test]
    fn history_concatenates_with_round_offsets() {
        let g = edge();
        let mut ledger = Ledger::new();
        for _ in 0..2 {
            let mut net: Network<u8> = Network::new(&g);
            net.enable_history();
            net.send(0, 1, 7, 1).unwrap();
            net.send(1, 0, 8, 1).unwrap();
            step(&mut net); // both link directions busy: 2 words
            net.send(0, 1, 9, 1).unwrap();
            step(&mut net); // 1 word
            ledger.absorb("phase", &net);
        }
        // Each phase ran 2 rounds; the second phase's history must shift
        // by the first's 2 rounds.
        assert_eq!(ledger.words_per_round(), &[(1, 2), (2, 1), (3, 2), (4, 1)]);

        let mut other = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.enable_history();
        net.send(0, 1, 9, 1).unwrap();
        step(&mut net);
        other.absorb("sub", &net);
        ledger.merge(&other);
        assert_eq!(ledger.words_per_round().last(), Some(&(5, 1)));
    }

    #[test]
    fn history_empty_without_enable() {
        let g = edge();
        let mut ledger = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        step(&mut net);
        ledger.absorb("quiet", &net);
        assert!(ledger.words_per_round().is_empty());
    }

    fn path3() -> Graph {
        Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap()
    }

    /// A finished network on [`path3`] that ran `sends` as
    /// `(from, to, words)` messages, all enqueued before round 1.
    fn ran(sends: &[(NodeId, NodeId, u64)]) -> Network<u8> {
        let mut net: Network<u8> = Network::new(&path3());
        for &(from, to, words) in sends {
            net.send(from, to, 0, words).unwrap();
        }
        while !net.is_idle() {
            step(&mut net);
        }
        net
    }

    #[test]
    fn congestion_summary_reads_engine_metrics() {
        let mut ledger = Ledger::new();
        ledger.absorb("one", &ran(&[(0, 1, 2), (0, 1, 1), (1, 2, 1)]));
        let s = ledger.congestion_summary("one");
        assert_eq!(s.messages, 3);
        assert_eq!(s.queue_high_water, 2); // two messages queued on 0→1
        assert_eq!(s.max_words_in_round, 2); // round 1: links 0→1 and 1→2
        assert_eq!(s.active_rounds, 3);
        assert_eq!(s.hot_links[0], (0, 1, 3));
    }

    #[test]
    fn congestion_summary_offsets_peak_round_and_breaks_ties_early() {
        let mut ledger = Ledger::new();
        // Phase 1: 1 round, 1 word — peak 1 at local round 1.
        ledger.absorb("light", &ran(&[(0, 1, 1)]));
        // Phase 2: local round 1 moves 2 words — new global peak at 1+1=2.
        ledger.absorb("heavy", &ran(&[(0, 1, 1), (1, 2, 1)]));
        // Phase 3: ties the peak (2 words) — must NOT displace it.
        ledger.absorb("tie", &ran(&[(0, 1, 1), (1, 2, 1)]));
        let s = ledger.congestion_summary("all");
        assert_eq!(s.rounds, 3);
        assert_eq!(s.words, 5);
        assert_eq!(s.max_words_in_round, 2);
        assert_eq!(s.peak_round, 2);
        assert_eq!(s.active_rounds, 3);
        assert_eq!(s.hot_links[0], (0, 1, 3));

        // A merged ledger folds the same way as absorbing its phases one
        // by one. `b` ties the peak in its second phase and beats it in
        // its third; its deep first phase raises the queue high-water.
        let b_phases = [
            ran(&[(0, 1, 1), (0, 1, 1), (0, 1, 1)]),
            ran(&[(0, 1, 2), (1, 2, 1)]),
            ran(&[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)]),
        ];
        let mut b = Ledger::new();
        let mut straight = ledger.clone();
        for (i, net) in b_phases.iter().enumerate() {
            b.absorb(&format!("b{i}"), net);
            straight.absorb(&format!("b{i}"), net);
        }
        let mut merged = ledger.clone();
        merged.merge(&b);
        let m = merged.congestion_summary("all");
        assert_eq!(m, straight.congestion_summary("all"));
        // Phase offsets: 3 (a) + 3 (b0) + 2 (b1), then b2's round 1.
        assert_eq!(m.max_words_in_round, 4);
        assert_eq!(m.peak_round, 9);
        assert_eq!(m.queue_high_water, 3);
        assert_eq!(m.active_rounds, 3 + 3 + 2 + 1);

        // Without the beating phase, the tie inside `b` keeps `a`'s peak.
        let mut tie_only = Ledger::new();
        tie_only.absorb("b1", &b_phases[1]);
        let mut merged = ledger.clone();
        merged.merge(&tie_only);
        assert_eq!(merged.congestion_summary("all").peak_round, 2);
    }

    #[test]
    fn absorb_emits_phase_event() {
        let cap = crate::events::EventCapture::memory();
        let g = edge();
        let mut ledger = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        step(&mut net);
        ledger.absorb("p1", &net);
        let mut net: Network<u8> = Network::new(&g);
        net.send(1, 0, 2, 2).unwrap();
        step(&mut net);
        step(&mut net);
        ledger.absorb("p2", &net);
        let lines = cap.finish();
        assert_eq!(
            lines,
            vec![
                r#"{"ev":"msg","net":0,"round":1,"from":0,"to":1,"words":1}"#,
                r#"{"ev":"phase","net":0,"label":"p1","offset":0,"rounds":1,"words":1,"messages":1}"#,
                r#"{"ev":"msg","net":1,"round":2,"from":1,"to":0,"words":2}"#,
                r#"{"ev":"phase","net":1,"label":"p2","offset":1,"rounds":2,"words":2,"messages":1}"#,
            ]
        );
    }

    #[test]
    fn congestion_summary_maxes_queue_highs_and_sums_link_words() {
        let g = edge();
        let mut ledger = Ledger::new();
        // Phase 1: two messages queued on the same link → queue high 2.
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        net.send(0, 1, 2, 1).unwrap();
        while !net.is_idle() {
            step(&mut net);
        }
        ledger.absorb("deep", &net);
        // Phase 2: one two-word message → queue high 1, two more words
        // on the same link.
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 3, 2).unwrap();
        while !net.is_idle() {
            step(&mut net);
        }
        ledger.absorb("shallow", &net);
        let s = ledger.congestion_summary("all");
        // Queue high-waters take the max across phases, not the sum 3.
        assert_eq!(s.queue_high_water, 2);
        // Per-link words add up across phases.
        assert_eq!(s.hot_links, vec![(0, 1, 4)]);
    }

    #[test]
    fn merge_combines() {
        let g = edge();
        let mut a = Ledger::new();
        let mut b = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 0, 1).unwrap();
        step(&mut net);
        a.absorb("a", &net);
        b.absorb("b", &net);
        a.merge(&b);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.phases.len(), 2);
        assert_eq!(a.words_across(&[true, false]), 2);
    }

    #[test]
    fn top_links_is_deterministic_on_ties() {
        let ends = [(0, 1), (1, 0), (1, 2)];
        let words = [5, 5, 1];
        let top = top_links(&ends, &words, 2);
        assert_eq!(top, vec![((0, 1), 5), ((1, 0), 5)]);
        assert!(top_links(&ends, &[0, 0, 0], 2).is_empty());
    }

    /// The reference: sort every loaded link, keep the first `k`.
    fn full_sort(
        ends: &[(NodeId, NodeId)],
        words: &[u64],
        k: usize,
    ) -> Vec<((NodeId, NodeId), u64)> {
        let mut all: Vec<_> = ends
            .iter()
            .copied()
            .zip(words.iter().copied())
            .filter(|&(_, w)| w > 0)
            .collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn top_links_matches_a_full_sort() {
        // Links of a 7-node complete digraph listed in a scrambled order,
        // loads drawn from a few values so ties straddle every k-th place.
        use mwc_rng::SliceRandom;
        let mut rng = mwc_rng::StdRng::seed_from_u64(7);
        let mut ends: Vec<(NodeId, NodeId)> = (0..7)
            .flat_map(|u| (0..7).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        ends.shuffle(&mut rng);
        for round in 0..40 {
            let words: Vec<u64> = match round {
                0 => vec![0; ends.len()],
                1 => vec![3; ends.len()],
                _ => ends.iter().map(|_| rng.random_range(0..4u64)).collect(),
            };
            let loaded = words.iter().filter(|&&w| w > 0).count();
            for k in [
                0,
                1,
                2,
                3,
                5,
                8,
                loaded.saturating_sub(1),
                loaded,
                loaded + 1,
                ends.len() + 3,
            ] {
                assert_eq!(
                    top_links(&ends, &words, k),
                    full_sort(&ends, &words, k),
                    "round {round}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn top_links_ties_break_by_link_id_even_when_table_is_shuffled() {
        // The tie-break is on the (from, to) pair itself, not on the
        // position in the link table: a reordered table must produce the
        // identical report.
        let ends = [(2, 0), (0, 1), (1, 0)];
        let words = [5, 5, 5];
        let top = top_links(&ends, &words, 3);
        assert_eq!(top, vec![((0, 1), 5), ((1, 0), 5), ((2, 0), 5)]);
    }
}

//! Round accounting across algorithm phases.
//!
//! The paper's algorithms are sequences of phases (sampling, multi-source
//! BFS, broadcasts, restricted BFS, convergecast, …), each simulated on its
//! own [`Network`](crate::Network) instance over the same topology. A
//! [`Ledger`] accumulates the round/word/message counts of those phases so
//! an end-to-end algorithm reports one total, with a per-phase breakdown
//! for the benchmark tables.

use crate::engine::{NetStats, Network};
use crate::profile::CongestionProfile;
use mwc_graph::NodeId;
use std::fmt;

/// One accounted phase of a distributed algorithm.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Human-readable phase name (e.g. `"h-hop BFS from S"`).
    pub label: String,
    /// Rounds the phase took.
    pub rounds: u64,
    /// Words it moved.
    pub words: u64,
    /// How the phase's traffic was shaped (peak load, backpressure, hot
    /// links); empty-default for synthetic phases that never ran a network.
    pub profile: CongestionProfile,
}

impl Phase {
    /// A phase with the given totals and an empty congestion profile —
    /// for synthetic entries (e.g. accounting markers) not backed by a
    /// simulated network.
    pub fn synthetic(label: impl Into<String>, rounds: u64, words: u64) -> Phase {
        Phase {
            label: label.into(),
            rounds,
            words,
            profile: CongestionProfile::default(),
        }
    }
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
        self.rounds += rounds;
        self.words += stats.words;
        self.messages += stats.messages;
        mwc_trace::add_cost(rounds, stats.words, stats.messages);
        self.phases.push(Phase {
            label: label.to_owned(),
            rounds,
            words: stats.words,
            profile: CongestionProfile::from_stats(stats, link_ends),
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
        self.phases.push(Phase::synthetic(
            format!("cached: {what} (saved {saved_rounds} rounds)"),
            0,
            0,
        ));
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
    /// diffs can never flake on ties (see [`crate::top_links`]).
    pub fn hot_links(&self, k: usize) -> Vec<((NodeId, NodeId), u64)> {
        crate::profile::top_links(&self.link_ends, &self.per_link_words, k)
    }

    /// Aggregates the ledger into the [`CongestionSummary`] a
    /// [`RunRecord`](mwc_trace::RunRecord) carries: totals, the global
    /// peak round (phase offsets applied, earliest peak wins ties), queue
    /// high-water (the max over phases) and the top
    /// [`crate::PROFILE_HOT_LINKS`] hot links.
    pub fn congestion_summary(&self, label: &str) -> mwc_trace::CongestionSummary {
        let mut active_rounds = 0;
        let mut max_words_in_round = 0;
        let mut peak_round = 0;
        let mut queue_high_water = 0;
        let mut offset = 0;
        for p in &self.phases {
            active_rounds += p.profile.active_rounds;
            if p.profile.max_words_in_round > max_words_in_round {
                max_words_in_round = p.profile.max_words_in_round;
                peak_round = offset + p.profile.peak_round;
            }
            queue_high_water = queue_high_water.max(p.profile.queue_high_water);
            offset += p.rounds;
        }
        mwc_trace::CongestionSummary {
            label: label.to_owned(),
            rounds: self.rounds,
            words: self.words,
            messages: self.messages,
            rounds_saved: self.rounds_saved,
            active_rounds,
            max_words_in_round,
            peak_round,
            queue_high_water,
            hot_links: self
                .hot_links(crate::PROFILE_HOT_LINKS)
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

    #[test]
    fn congestion_summary_offsets_peak_round_and_breaks_ties_early() {
        let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let mut ledger = Ledger::new();
        // Phase 1: 1 round, 1 word — peak 1 at local round 1.
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        step(&mut net);
        ledger.absorb("light", &net);
        // Phase 2: local round 1 moves 2 words — new global peak at 1+1=2.
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        net.send(1, 2, 2, 1).unwrap();
        step(&mut net);
        ledger.absorb("heavy", &net);
        // Phase 3: ties the peak (2 words) — must NOT displace it.
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        net.send(1, 2, 2, 1).unwrap();
        step(&mut net);
        ledger.absorb("tie", &net);
        let s = ledger.congestion_summary("all");
        assert_eq!(s.rounds, 3);
        assert_eq!(s.words, 5);
        assert_eq!(s.max_words_in_round, 2);
        assert_eq!(s.peak_round, 2);
        assert_eq!(s.active_rounds, 3);
        assert_eq!(s.hot_links[0], (0, 1, 3));
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
        assert_eq!(ledger.phases[0].profile.queue_high_water, 2);
        assert_eq!(ledger.phases[1].profile.queue_high_water, 1);
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
}

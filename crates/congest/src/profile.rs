//! Per-phase congestion profiles: how a phase's traffic was *shaped*, not
//! just how much there was.
//!
//! A [`Phase`](crate::Phase) used to carry only round/word totals; the
//! profile adds the engine's always-on congestion metrics (peak round load,
//! active-round count, queue backpressure, hot links, and the per-round
//! word histogram) so benchmark reports and the `mwc-trace` flamegraph can
//! show *where* a phase saturates the network.

use crate::engine::{NetStats, Network, HIST_BUCKETS};
use mwc_graph::NodeId;

/// How many hot links a phase profile retains.
pub const PROFILE_HOT_LINKS: usize = 3;

/// The congestion shape of one finished phase.
#[derive(Clone, Debug, Default)]
pub struct CongestionProfile {
    /// Messages the phase delivered.
    pub messages: u64,
    /// Rounds that actually transferred words (≤ the phase's rounds;
    /// the difference is latency waits and wakeup gaps).
    pub active_rounds: u64,
    /// Peak words transferred in any single round.
    pub max_words_in_round: u64,
    /// The phase-local round at which the peak was first reached
    /// (earliest-round tie-break — deterministic); 0 for quiet phases.
    pub peak_round: u64,
    /// High-water mark of any link's send queue.
    pub queue_high_water: u64,
    /// The most-loaded links as `((from, to), words)`, heaviest first
    /// (top [`PROFILE_HOT_LINKS`], deterministic tie-break).
    pub hot_links: Vec<((NodeId, NodeId), u64)>,
    /// Histogram of per-round delivered words over power-of-two buckets
    /// (see [`crate::hist_bucket`]).
    pub round_histogram: [u64; HIST_BUCKETS],
}

impl CongestionProfile {
    /// Captures the profile of a finished phase from its network.
    pub fn capture<M>(net: &Network<M>) -> CongestionProfile {
        Self::from_stats(net.stats(), net.link_ends())
    }

    /// The profile of a finished phase from its network's stats and link
    /// table (what [`CongestionProfile::capture`] reads).
    pub(crate) fn from_stats(
        stats: &NetStats,
        link_ends: &[(NodeId, NodeId)],
    ) -> CongestionProfile {
        CongestionProfile {
            messages: stats.messages,
            active_rounds: stats.active_rounds,
            max_words_in_round: stats.max_words_in_round,
            peak_round: stats.peak_round,
            queue_high_water: stats.queue_high_water,
            hot_links: top_links(link_ends, &stats.per_link_words, PROFILE_HOT_LINKS),
            round_histogram: stats.round_histogram,
        }
    }

    /// Mean words per *active* round — the phase's sustained parallelism.
    pub fn mean_active_load(&self, words: u64) -> f64 {
        if self.active_rounds == 0 {
            0.0
        } else {
            words as f64 / self.active_rounds as f64
        }
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

    #[test]
    fn capture_reads_engine_metrics() {
        let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 2).unwrap();
        net.send(0, 1, 2, 1).unwrap();
        net.send(1, 2, 3, 1).unwrap();
        while !net.is_idle() {
            step(&mut net);
        }
        let p = CongestionProfile::capture(&net);
        assert_eq!(p.messages, 3);
        assert_eq!(p.queue_high_water, 2); // two messages queued on 0→1
        assert_eq!(p.max_words_in_round, 2); // round 1: links 0→1 and 1→2
        assert_eq!(p.active_rounds, 3);
        assert_eq!(p.hot_links[0], ((0, 1), 3));
        // Histogram: one round moved 2 words (bucket 1), two rounds moved 1
        // word (bucket 0).
        assert_eq!(p.round_histogram[0], 2);
        assert_eq!(p.round_histogram[1], 1);
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

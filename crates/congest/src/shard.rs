//! The canonical per-shard load profile of a run.
//!
//! A [`ShardPlan`] cuts the node ids `0..n` into contiguous ranges,
//! balanced by out-degree. Because [`Network`](crate::Network) creates
//! link ids grouped by sender in ascending node order, a contiguous
//! vertex range owns a contiguous *link-id* range too, so folding the
//! engine's per-link counters over a plan is a walk over plain slices.
//! [`ShardProfile`] does that fold against one fixed
//! [`PROFILE_SHARDS`]-way plan: it reports how evenly an 8-way split of
//! the workload would load its shards (the gated `shard_words` and
//! `shard_imbalance_milli` record fields). The engine itself steps every
//! round sequentially; the plan is a reporting partition only.

use mwc_graph::NodeId;
use std::ops::Range;

/// A contiguous, degree-balanced partition of node ids (and thereby link
/// ids) into shards. Owns no simulation state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `node_bounds[s]..node_bounds[s + 1]` is shard `s`'s vertex range;
    /// length `shards + 1`, first 0, last `n`, strictly increasing while
    /// nodes remain.
    node_bounds: Vec<usize>,
    /// `link_bounds[s]..link_bounds[s + 1]` is shard `s`'s link-id range:
    /// the prefix sums of out-degree at the node bounds.
    link_bounds: Vec<usize>,
}

impl ShardPlan {
    /// Partitions `out_degrees.len()` nodes into at most `shards`
    /// contiguous ranges, cutting so each range carries close to `1/k` of
    /// the total degree (traffic lives on links, not nodes). The
    /// effective shard count is clamped to the node count so every shard
    /// owns at least one node.
    pub fn new(out_degrees: &[usize], shards: usize) -> ShardPlan {
        let n = out_degrees.len();
        let k = shards.clamp(1, n.max(1));
        let total: u64 = out_degrees.iter().map(|&d| d as u64).sum();
        let mut node_bounds = Vec::with_capacity(k + 1);
        node_bounds.push(0usize);
        let mut v = 0usize;
        let mut cum = 0u64;
        for s in 1..k {
            // Aim the cut at s/k of the total degree, but always leave at
            // least one node for every shard on both sides: a node whose
            // degree spans several targets must not leave a shard empty.
            let target = total * s as u64 / k as u64;
            let min_v = v + 1;
            let max_v = n - (k - s);
            while v < max_v && (v < min_v || cum < target) {
                cum += out_degrees[v] as u64;
                v += 1;
            }
            node_bounds.push(v);
        }
        node_bounds.push(n);
        let mut prefix = 0usize;
        let mut cursor = 0usize;
        let link_bounds = node_bounds
            .iter()
            .map(|&b| {
                while cursor < b {
                    prefix += out_degrees[cursor];
                    cursor += 1;
                }
                prefix
            })
            .collect();
        ShardPlan {
            node_bounds,
            link_bounds,
        }
    }

    /// Number of shards (≥ 1).
    pub fn shards(&self) -> usize {
        self.node_bounds.len() - 1
    }

    /// Shard `s`'s vertex range.
    pub fn node_range(&self, s: usize) -> Range<usize> {
        self.node_bounds[s]..self.node_bounds[s + 1]
    }

    /// Shard `s`'s link-id range.
    pub fn link_range(&self, s: usize) -> Range<usize> {
        self.link_bounds[s]..self.link_bounds[s + 1]
    }
}

/// The fixed shard count every [`ShardProfile`] is computed against.
///
/// The profile folds the deterministic per-link counters over one
/// canonical degree-balanced reference partition, so it measures the
/// workload's *potential* imbalance (what an 8-way split would see)
/// independently of how the run was executed.
pub const PROFILE_SHARDS: usize = 8;

/// Deterministic per-shard load profile over the canonical
/// [`PROFILE_SHARDS`]-way reference partition: how many links carried
/// traffic, how many words each shard's links moved, and the deepest
/// send queue each shard saw. Captured per phase by
/// [`Ledger::absorb`](crate::Ledger::absorb) alongside the
/// [`CongestionProfile`](crate::CongestionProfile), and across a whole
/// run by [`Ledger::congestion_summary`](crate::Ledger::congestion_summary).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Links that moved at least one word, per canonical shard.
    pub links: Vec<u64>,
    /// Words moved, per canonical shard.
    pub words: Vec<u64>,
    /// Deepest send-queue depth, per canonical shard.
    pub queue_high: Vec<u64>,
}

impl ShardProfile {
    /// Folds the engine's deterministic per-link counters over the
    /// canonical reference partition. `link_ends` is the engine's
    /// `(from, to)` table (link ids grouped by sender in ascending node
    /// order — the same layout [`ShardPlan`] cuts), `per_link_words` and
    /// `per_link_queue_high` are parallel to it.
    pub fn capture(
        link_ends: &[(NodeId, NodeId)],
        per_link_words: &[u64],
        per_link_queue_high: &[u64],
    ) -> ShardProfile {
        if link_ends.is_empty() {
            return ShardProfile::default();
        }
        let n = link_ends.iter().map(|&(u, v)| u.max(v)).max().unwrap() + 1;
        let mut out_degrees = vec![0usize; n];
        for &(u, _) in link_ends {
            out_degrees[u] += 1;
        }
        let plan = ShardPlan::new(&out_degrees, PROFILE_SHARDS);
        let k = plan.shards();
        let mut profile = ShardProfile {
            links: vec![0; k],
            words: vec![0; k],
            queue_high: vec![0; k],
        };
        for s in 0..k {
            for l in plan.link_range(s) {
                let w = per_link_words.get(l).copied().unwrap_or(0);
                if w > 0 {
                    profile.links[s] += 1;
                }
                profile.words[s] += w;
                let q = per_link_queue_high.get(l).copied().unwrap_or(0);
                profile.queue_high[s] = profile.queue_high[s].max(q);
            }
        }
        profile
    }

    /// The imbalance ratio max/mean of per-shard words, in integer
    /// milli-units (1000 = perfectly balanced, 2000 = the hottest shard
    /// carries twice the mean). Integer so the value is exactly
    /// reproducible and diffable; 0 when no words moved.
    pub fn imbalance_milli(&self) -> u64 {
        let total: u64 = self.words.iter().sum();
        if total == 0 {
            return 0;
        }
        let max = *self.words.iter().max().expect("nonzero total has entries");
        max * 1000 * self.words.len() as u64 / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_node_and_link_exactly_once() {
        let degrees = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let plan = ShardPlan::new(&degrees, 3);
        assert_eq!(plan.shards(), 3);
        let mut nodes = [0usize; 8];
        let mut links = [0usize; 31];
        for s in 0..plan.shards() {
            for v in plan.node_range(s) {
                nodes[v] += 1;
            }
            for l in plan.link_range(s) {
                links[l] += 1;
            }
        }
        assert!(nodes.iter().all(|&c| c == 1));
        assert!(links.iter().all(|&c| c == 1));
        assert_eq!(plan.link_range(2).end, 31);
    }

    #[test]
    fn link_bounds_are_degree_prefix_sums_at_node_bounds() {
        let degrees = [2usize, 2, 2, 2, 2, 2];
        let plan = ShardPlan::new(&degrees, 2);
        assert_eq!(plan.node_range(0), 0..3);
        assert_eq!(plan.link_range(0), 0..6);
        assert_eq!(plan.link_range(1), 6..12);
    }

    #[test]
    fn more_shards_than_nodes_clamps() {
        let plan = ShardPlan::new(&[1, 1], 8);
        assert_eq!(plan.shards(), 2);
        let plan = ShardPlan::new(&[], 4);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.node_range(0), 0..0);
    }

    #[test]
    fn shard_profile_folds_links_words_and_queue_highs() {
        // 4 nodes, degrees [2, 1, 1, 1] → 5 links; the canonical plan
        // clamps PROFILE_SHARDS to the node count (4 shards).
        let link_ends: Vec<(NodeId, NodeId)> = vec![(0, 1), (0, 2), (1, 0), (2, 0), (3, 0)];
        let words = [5u64, 0, 3, 2, 0];
        let queue_high = [2u64, 1, 4, 0, 0];
        let p = ShardProfile::capture(&link_ends, &words, &queue_high);
        assert_eq!(p.words.iter().sum::<u64>(), 10);
        assert_eq!(p.links.iter().sum::<u64>(), 3);
        assert_eq!(p.queue_high.iter().max(), Some(&4));
        // Node 0 owns links 0..2: 5 words, 1 busy link, queue high 2.
        assert_eq!(p.words[0], 5);
        assert_eq!(p.links[0], 1);
        assert_eq!(p.queue_high[0], 2);
    }

    #[test]
    fn shard_profile_imbalance_is_max_over_mean_in_milli() {
        let p = ShardProfile {
            links: vec![1, 1],
            words: vec![6, 2],
            queue_high: vec![0, 0],
        };
        // mean = 4, max = 6 → 1500 milli.
        assert_eq!(p.imbalance_milli(), 1500);
        let balanced = ShardProfile {
            links: vec![1, 1],
            words: vec![4, 4],
            queue_high: vec![0, 0],
        };
        assert_eq!(balanced.imbalance_milli(), 1000);
        assert_eq!(ShardProfile::default().imbalance_milli(), 0);
    }

    #[test]
    fn shard_profile_of_empty_network_is_empty() {
        let p = ShardProfile::capture(&[], &[], &[]);
        assert_eq!(p, ShardProfile::default());
    }

    #[test]
    fn a_hub_past_the_front_leaves_no_shard_empty() {
        // Node 8 alone reaches the 1/4 and 2/4 targets; the cut after it
        // must still advance.
        let plan = ShardPlan::new(&[0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1], 4);
        assert_eq!(plan.shards(), 4);
        for s in 0..4 {
            assert!(!plan.node_range(s).is_empty(), "shard {s} has no nodes");
        }
    }

    #[test]
    fn skewed_degrees_still_give_every_shard_a_node() {
        // All the degree is on the first node; later shards must still
        // get non-empty vertex ranges.
        let degrees = [100usize, 0, 0, 0];
        let plan = ShardPlan::new(&degrees, 4);
        assert_eq!(plan.shards(), 4);
        for s in 0..4 {
            assert!(!plan.node_range(s).is_empty(), "shard {s} has no nodes");
        }
    }
}

//! Property-based tests for the partition behind the canonical shard
//! profile (`mwc_rng::proptest_lite`): the [`ShardPlan`] is a true
//! partition — every vertex and every link id lands in exactly one
//! shard, ranges are contiguous, and each shard's link range is the
//! degree sum of its vertex range (what lets `ShardProfile::capture`
//! fold per-link counters over plain slices).

use mwc_congest::ShardPlan;
use mwc_rng::proptest_lite::{self as plite, Config};
use mwc_rng::{prop_assert, prop_assert_eq, prop_tests};

prop_tests! {
    config = Config::with_cases(32);

    /// The plan partitions vertices and link ids: ranges are contiguous,
    /// cover everything exactly once, and never leave a shard empty.
    fn plan_is_a_partition(degrees in plite::vec(0usize..6, 1..40), shards in 1usize..12) {
        let plan = ShardPlan::new(&degrees, shards);
        let n = degrees.len();
        prop_assert!(plan.shards() >= 1 && plan.shards() <= shards.max(1));

        let mut next_node = 0;
        let mut next_link = 0;
        for s in 0..plan.shards() {
            let nodes = plan.node_range(s);
            let links = plan.link_range(s);
            prop_assert!(!nodes.is_empty(), "shard {} owns no node", s);
            prop_assert_eq!(nodes.start, next_node, "vertex ranges must be contiguous");
            prop_assert_eq!(links.start, next_link, "link ranges must be contiguous");
            // A shard's link range is the degree sum of its vertex range.
            let degree_sum: usize = degrees[nodes.clone()].iter().sum();
            prop_assert_eq!(links.len(), degree_sum);
            next_node = nodes.end;
            next_link = links.end;
        }
        prop_assert_eq!(next_node, n, "vertex ranges must cover every node");
        prop_assert_eq!(next_link, degrees.iter().sum::<usize>());
    }
}

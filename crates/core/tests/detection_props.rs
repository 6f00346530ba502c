//! Property test of undirected bounded-length cycle detection: on random
//! connected graphs, from trees plus a handful of chords to dense ones,
//! `shortest_cycle_within(g, q)` must report exactly the hop girth when
//! it is at most `q` and nothing otherwise, with a witness that is a real
//! cycle of that hop length. The undirected mirror of the directed
//! `finds_exactly_the_q_bounded_girth` unit test.
//!
//! Runs on `mwc_rng::proptest_lite`; new failures persist their case
//! seed under `proplite-regressions/`.

use mwc_core::detection::shortest_cycle_within;
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::{seq, Orientation};
use mwc_rng::proptest_lite::{any_bool, Config};
use mwc_rng::{prop_assert_eq, prop_tests};

prop_tests! {
    config = Config::with_cases(48);

    /// Extra edges beyond a spanning tree come from `{0, n/4, n, 3n}`;
    /// weighted graphs check that the detector counts hops, not weight.
    fn finds_exactly_the_q_bounded_girth_undirected(
        seed in 0u64..10_000,
        n in 16usize..97,
        density in 0usize..4,
        q in 3u64..9,
        weighted in any_bool()
    ) {
        let extra = [0, n / 4, n, 3 * n][density];
        let weights = if weighted {
            WeightRange::uniform(1, 9)
        } else {
            WeightRange::unit()
        };
        let g = connected_gnm(n, extra, Orientation::Undirected, weights, seed);
        let hops = g.map_weights(|_| 1);
        let girth = seq::girth_exact(&hops).map(|m| m.weight);
        let out = shortest_cycle_within(&g, q);
        out.assert_valid(&hops);
        prop_assert_eq!(out.weight, girth.filter(|&w| w <= q), "girth {:?}", girth);
    }
}

//! Property-based integration tests: invariants that must hold for every
//! algorithm on arbitrary (generated) inputs.
//!
//! The two one-sided guarantees that hold *deterministically* (not just
//! w.h.p.) are the backbone: every reported weight is certified by a real
//! simple cycle (so it is ≥ the true MWC), and the exact algorithms agree
//! with the sequential oracles exactly.
//!
//! Runs on `mwc_rng::proptest_lite`; new failures persist their case
//! seed under `proplite-regressions/`.

use congest_mwc::core::{
    approx_girth, approx_mwc_undirected_weighted, exact_mwc, two_approx_directed_mwc, Params,
};
use congest_mwc::graph::generators::{connected_gnm, WeightRange};
use congest_mwc::graph::{seq, Graph, Orientation};
use congest_mwc::rng::proptest_lite::Config;
use congest_mwc::rng::{prop_assert, prop_assert_eq, prop_tests, Rng, SliceRandom};

prop_tests! {
    config = Config::with_cases(24);

    fn exact_matches_oracle_directed(seed in 0u64..10_000, n in 8usize..40, extra in 0usize..80) {
        let g = connected_gnm(n, extra, Orientation::Directed, WeightRange::uniform(1, 9), seed);
        let out = exact_mwc(&g);
        out.assert_valid(&g);
        prop_assert_eq!(out.weight, seq::mwc_exact(&g).map(|m| m.weight));
    }

    fn exact_matches_oracle_undirected(seed in 0u64..10_000, n in 8usize..40, extra in 0usize..60) {
        let g = connected_gnm(n, extra, Orientation::Undirected, WeightRange::uniform(1, 9), seed);
        let out = exact_mwc(&g);
        out.assert_valid(&g);
        prop_assert_eq!(out.weight, seq::mwc_exact(&g).map(|m| m.weight));
    }

    /// Metamorphic checks of `exact_mwc` on both orientations: the weight
    /// does not depend on how the nodes are numbered, and scaling every
    /// edge weight by `c` scales it by `c`. Each relabeled or scaled graph
    /// has its own fingerprint, so the per-graph phase-cache tables run
    /// under distinct keys.
    fn exact_weight_ignores_labels_and_scales(seed in 0u64..10_000, n in 6usize..24, extra in 0usize..40, c in 2u64..4) {
        for orientation in [Orientation::Directed, Orientation::Undirected] {
            let g = connected_gnm(n, extra, orientation, WeightRange::uniform(1, 9), seed);
            let want = exact_mwc(&g).weight;
            let mut label: Vec<usize> = (0..n).collect();
            label.shuffle(&mut Rng::seed_from_u64(seed));
            let relabeled = Graph::from_edges(
                n,
                orientation,
                g.edges().iter().map(|e| (label[e.u], label[e.v], e.weight)),
            )
            .expect("a relabeled simple graph is simple");
            let out = exact_mwc(&relabeled);
            out.assert_valid(&relabeled);
            prop_assert_eq!(out.weight, want, "{:?} relabeled by {:?}", orientation, label);
            let scaled = g.map_weights(|w| c * w);
            let out = exact_mwc(&scaled);
            out.assert_valid(&scaled);
            prop_assert_eq!(out.weight, want.map(|w| c * w), "{:?} scaled by {}", orientation, c);
        }
    }

    fn approximations_never_underestimate(seed in 0u64..10_000, n in 10usize..36, extra in 10usize..70) {
        let params = Params::new().with_seed(seed);

        let gd = connected_gnm(n, extra, Orientation::Directed, WeightRange::unit(), seed);
        let opt = seq::mwc_exact(&gd).map(|m| m.weight);
        let out = two_approx_directed_mwc(&gd, &params);
        out.assert_valid(&gd);
        if let (Some(w), Some(o)) = (out.weight, opt) {
            prop_assert!(w >= o);
        }
        // A reported cycle implies a cycle truly exists.
        prop_assert_eq!(out.weight.is_some(), opt.is_some());

        let gu = connected_gnm(n, extra, Orientation::Undirected, WeightRange::unit(), seed + 1);
        let opt = seq::mwc_exact(&gu).map(|m| m.weight);
        let out = approx_girth(&gu, &params);
        out.assert_valid(&gu);
        if let (Some(w), Some(o)) = (out.weight, opt) {
            prop_assert!(w >= o);
        }
        prop_assert_eq!(out.weight.is_some(), opt.is_some());
    }

    fn weighted_approx_never_underestimates(seed in 0u64..10_000, n in 10usize..28, extra in 10usize..50) {
        let params = Params::new().with_seed(seed);
        let g = connected_gnm(n, extra, Orientation::Undirected, WeightRange::uniform(1, 20), seed);
        let opt = seq::mwc_exact(&g).map(|m| m.weight);
        let out = approx_mwc_undirected_weighted(&g, &params);
        out.assert_valid(&g);
        if let (Some(w), Some(o)) = (out.weight, opt) {
            prop_assert!(w >= o);
        }
        prop_assert_eq!(out.weight.is_some(), opt.is_some());
    }

    fn determinism_in_seed(seed in 0u64..1_000) {
        let g = connected_gnm(30, 60, Orientation::Undirected, WeightRange::unit(), 5);
        let params = Params::new().with_seed(seed);
        let a = approx_girth(&g, &params);
        let b = approx_girth(&g, &params);
        prop_assert_eq!(a.weight, b.weight);
        prop_assert_eq!(a.ledger.rounds, b.ledger.rounds);
        prop_assert_eq!(a.ledger.words, b.ledger.words);
    }
}

prop_tests! {
    config = Config::with_cases(16);

    /// The (2 − 1/g) girth bound across arbitrary small graphs and seeds
    /// (the w.h.p. guarantee, which at these sizes holds with margin).
    fn girth_factor_holds_probabilistically(seed in 0u64..10_000, n in 12usize..40, extra in 6usize..60) {
        let g = connected_gnm(n, extra, Orientation::Undirected, WeightRange::unit(), seed);
        let Some(girth) = seq::girth_exact(&g).map(|m| m.weight) else { return Ok(()) };
        let out = approx_girth(&g, &Params::new().with_seed(seed ^ 0xF00D));
        out.assert_valid(&g);
        let rep = out.weight.expect("cycle exists");
        // `2g − 1` = (2 − 1/g)·g, written the paper's way.
        #[allow(clippy::int_plus_one)]
        let within = rep >= girth && rep <= 2 * girth - 1;
        prop_assert!(within, "rep {rep} girth {girth}");
    }

    /// q-bounded detection agrees with the oracle's q-truncated girth on
    /// both orientations.
    fn bounded_detection_matches_oracle(seed in 0u64..10_000, n in 6usize..26, extra in 0usize..40, q in 3u64..8) {
        use congest_mwc::core::shortest_cycle_within;
        for orientation in [Orientation::Directed, Orientation::Undirected] {
            let g = connected_gnm(n, extra, orientation, WeightRange::unit(), seed);
            let girth = seq::mwc_exact(&g).map(|m| m.weight);
            let out = shortest_cycle_within(&g, q);
            match girth {
                Some(w) if w <= q => prop_assert_eq!(out.weight, Some(w), "{:?}", orientation),
                _ => prop_assert_eq!(out.weight, None, "{:?} girth {:?} q {}", orientation, girth, q),
            }
        }
    }
}

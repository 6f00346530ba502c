//! `(2+ε)`-approximation of weighted MWC — **Theorems 1.4.C and 1.2.D** of
//! the paper (§5): `Õ(n^{2/3} + D)` rounds undirected, `Õ(n^{4/5} + D)`
//! rounds directed.
//!
//! Framework (§5.1/§5.2):
//!
//! - **Long cycles** (≥ `h` real hops; `h = n^{2/3}` undirected,
//!   `n^{3/5}` directed): sample `Θ̃(n/h)` vertices so one lands on the
//!   cycle w.h.p.; compute `(1+ε)` `k`-source approximate SSSP from the
//!   samples (Theorem 1.6.B). Undirected: for each edge `(x, y)` and
//!   sample `s`, the closed walk `s→x, (x,y), y→s` yields a cycle of
//!   weight ≤ `d̃(s,x) + w + d̃(s,y)`, which for the antipodal edge of a
//!   long MWC is ≤ `(1+ε)`·MWC. Directed: `d̃(s,v) + d̃(v,s)` (a closed
//!   directed walk always contains a directed cycle).
//! - **Short cycles** (< `h` hops): the scaling technique of \[41\] —
//!   `O(log(hW))` scaled graphs `Gⁱ` with weights `⌈2h·w/(ε·2ⁱ)⌉`; an
//!   `h`-hop cycle of weight `≈ 2ⁱ` has stretched length ≤
//!   `h* = (1 + 2/ε)h` in `Gⁱ`, so the hop-limited unweighted
//!   subroutines (Corollary 4.1: the stretched girth algorithm of §4, or
//!   the stretched Algorithm 2 of §3) 2-approximate it; rescaling the
//!   witness back to real weights gives `(2+ε)`.
//!
//! All candidates are validated real cycles, so reported weights are never
//! below the true MWC; the `(2+ε)` upper bound holds w.h.p.

use crate::directed::hop_limited_directed_mwc;
use crate::exchange::charge_neighbor_exchange;
use crate::girth::hop_limited_girth;
use crate::ksssp::{k_source_approx_sssp, KSourceApproxSssp};
use crate::outcome::{BestCycle, MwcOutcome, Partial};
use crate::params::Params;
use crate::scaling::{scale_budget, stretched_latency_table, EpsQ};
use crate::util::{extract_cycle_from_walk, sample_vertices};
use mwc_congest::{convergecast_min, PhaseCache, INF};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};
use std::sync::Arc;

pub(crate) const SALT_WEIGHTED_SAMPLES: u64 = 0xD1;

/// The scaled per-edge stretch tables `Gⁱ` of §5.1: `⌈2h·w/(ε_q·2ⁱ)⌉` for
/// `i = 1 … ⌈log₂(hW)⌉`, paired with the shared budget `h*`.
///
/// `⌈32·h·w/(en·2ⁱ)⌉` is the canonical stretched table at scale `i − 1`
/// (see [`stretched_latency_table`]), so within a [`PhaseCache`] scope
/// these tables are shared with `scaled_hop_sssp`'s scale runs instead of
/// being re-derived.
fn scaled_latencies(g: &Graph, h: u64, eps: EpsQ) -> (Vec<Arc<Vec<Weight>>>, Weight) {
    let h_star = scale_budget(h, eps);
    let max_cycle = (h as u128) * (g.max_weight().max(1) as u128);
    let mut tables = Vec::new();
    let mut i = 1u32;
    while (1u128 << i) <= 2 * max_cycle {
        tables.push(stretched_latency_table(g, h, eps, i - 1));
        i += 1;
    }
    (tables, h_star)
}

/// `(2+ε)`-approximation of MWC in an undirected weighted graph in
/// `Õ(n^{2/3} + D)` rounds (Theorem 1.4.C).
///
/// The returned weight is the real weight of a real cycle, at most
/// `(2+ε)`× the true MWC w.h.p. (`ε` from [`Params::epsilon`], quantized
/// down to a multiple of 1/16).
///
/// # Panics
///
/// Panics if the graph is directed, has zero-weight edges (scaling assumes
/// `w ≥ 1`), or a disconnected communication topology.
///
/// # Examples
///
/// ```
/// use mwc_core::{approx_mwc_undirected_weighted, Params};
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// // A light triangle inside a heavy square.
/// let g = Graph::from_edges(4, Orientation::Undirected,
///     [(0, 1, 2), (1, 2, 3), (2, 0, 4), (2, 3, 50), (3, 0, 50)])?;
/// let out = approx_mwc_undirected_weighted(&g, &Params::new());
/// let w = out.weight.expect("cycles exist");
/// assert!(w >= 9 && w as f64 <= 2.25 * 9.0 + 2.0);
/// # Ok(())
/// # }
/// ```
pub fn approx_mwc_undirected_weighted(g: &Graph, params: &Params) -> MwcOutcome {
    let _span = mwc_trace::span("weighted/undirected");
    let _cache = PhaseCache::scope();
    assert!(
        !g.is_directed(),
        "use approx_mwc_directed_weighted for directed graphs"
    );
    assert!(
        g.edges().iter().all(|e| e.weight >= 1),
        "scaling-based approximation requires weights ≥ 1"
    );
    let n = g.n();
    let h = ((n as f64).powf(2.0 / 3.0).ceil() as u64).max(1);
    let mut parts = Partial::default();
    let (mut scales, mut h_star_audit) = (0u64, 0u64);
    if n >= 3 {
        let eps = EpsQ::from_f64(params.epsilon);

        long_cycles_undirected(g, params, h, &mut parts);

        // Short cycles: hop-limited stretched girth per scale.
        let (tables, h_star) = scaled_latencies(g, h, eps);
        (scales, h_star_audit) = (tables.len() as u64, h_star);
        for (si, lat) in tables.iter().enumerate() {
            let _scale = mwc_trace::span_owned(|| format!("weighted/scale-{si}"));
            let sub = hop_limited_girth(g, params, lat, h_star);
            parts.ledger.merge(&sub.ledger);
            merge_best(&mut parts.best, sub.best);
        }
    }
    let out = finish(g, parts);
    mwc_trace::check_bound(
        "core/approx_mwc_undirected_weighted",
        mwc_trace::BoundInputs::n(n)
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .h(h)
            .k(crate::bounds::weighted_samples(n, h, params))
            .eps(params.epsilon),
        out.ledger.rounds,
        |i| crate::bounds::weighted_undirected(g, i.diameter, scales, h_star_audit, params),
    );
    out
}

/// `(2+ε)`-approximation of MWC in a directed weighted graph in
/// `Õ(n^{4/5} + D)` rounds (Theorem 1.2.D).
///
/// # Panics
///
/// Panics if the graph is undirected, has zero-weight edges, or a
/// disconnected communication topology.
///
/// # Examples
///
/// ```
/// use mwc_core::{approx_mwc_directed_weighted, Params};
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// let g = Graph::from_edges(3, Orientation::Directed,
///     [(0, 1, 5), (1, 2, 5), (2, 0, 5), (1, 0, 30)])?;
/// let out = approx_mwc_directed_weighted(&g, &Params::new());
/// let w = out.weight.expect("cycles exist");
/// assert!(w >= 15 && w as f64 <= 2.25 * 15.0 + 2.0);
/// # Ok(())
/// # }
/// ```
pub fn approx_mwc_directed_weighted(g: &Graph, params: &Params) -> MwcOutcome {
    let _span = mwc_trace::span("weighted/directed");
    let _cache = PhaseCache::scope();
    assert!(
        g.is_directed(),
        "use approx_mwc_undirected_weighted for undirected graphs"
    );
    assert!(
        g.edges().iter().all(|e| e.weight >= 1),
        "scaling-based approximation requires weights ≥ 1"
    );
    let n = g.n();
    let h = ((n as f64).powf(0.6).ceil() as u64).max(1);
    let mut parts = Partial::default();
    let (mut scales, mut h_star_audit) = (0u64, 0u64);
    if n >= 1 {
        let eps = EpsQ::from_f64(params.epsilon);

        long_cycles_directed(g, params, h, &mut parts);

        let (tables, h_star) = scaled_latencies(g, h, eps);
        (scales, h_star_audit) = (tables.len() as u64, h_star);
        for (si, lat) in tables.iter().enumerate() {
            let _scale = mwc_trace::span_owned(|| format!("weighted/scale-{si}"));
            let sub = hop_limited_directed_mwc(g, params, lat, h_star, h);
            parts.ledger.merge(&sub.ledger);
            merge_best(&mut parts.best, sub.best);
        }
    }
    let out = finish(g, parts);
    mwc_trace::check_bound(
        "core/approx_mwc_directed_weighted",
        mwc_trace::BoundInputs::n(n)
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .h(h)
            .k(crate::bounds::weighted_samples(n, h, params))
            .eps(params.epsilon),
        out.ledger.rounds,
        |i| crate::bounds::weighted_directed(g, i.diameter, scales, h_star_audit, params),
    );
    out
}

fn merge_best(into: &mut BestCycle, from: BestCycle) {
    if let Some((w, c)) = from.into_parts() {
        into.offer(w, c);
    }
}

fn finish(g: &Graph, parts: Partial) -> MwcOutcome {
    let mut ledger = parts.ledger;
    if g.n() > 0 {
        let tree = PhaseCache::bfs_tree(g, 0, &mut ledger);
        let local = vec![parts.best.weight().unwrap_or(INF); g.n()];
        let _ = convergecast_min(g, &tree, local, &mut ledger);
    }
    parts.best.into_outcome(ledger)
}

/// Long undirected cycles: `(1+ε)` SSSP from samples + per-edge scan.
fn long_cycles_undirected(g: &Graph, params: &Params, h: u64, parts: &mut Partial) {
    let n = g.n();
    let p = params.sample_prob(n, h);
    let samples = sample_vertices(n, p, params.seed, SALT_WEIGHTED_SAMPLES);
    let sssp = k_source_approx_sssp(g, &samples, Direction::Forward, params);
    parts.ledger.merge(&sssp.ledger);

    // Neighbors exchange their estimate columns (k words per link); each
    // edge endpoint reads the other's column in place.
    let k = samples.len();
    charge_neighbor_exchange(
        g,
        |_| k as u64,
        "long-cycle estimate exchange",
        &mut parts.ledger,
    );

    for e in g.edges() {
        let (x, y, w) = (e.u, e.v, e.weight);
        for row in 0..k {
            let dx = sssp.get_row(row, x);
            let dy = sssp.get_row(row, y);
            if dx == INF || dy == INF {
                continue;
            }
            let cand = dx + w + dy;
            if parts.best.weight().is_some_and(|b| cand >= b) {
                continue;
            }
            offer_walk_cycle(g, &mut parts.best, &sssp, row, x, y);
        }
    }
}

/// Long directed cycles: forward + reverse `(1+ε)` SSSP; candidate at `v`
/// is `d̃(s,v) + d̃(v,s)`.
fn long_cycles_directed(g: &Graph, params: &Params, h: u64, parts: &mut Partial) {
    let n = g.n();
    let p = params.sample_prob(n, h);
    let samples = sample_vertices(n, p, params.seed, SALT_WEIGHTED_SAMPLES);
    let fwd = k_source_approx_sssp(g, &samples, Direction::Forward, params);
    let rev = k_source_approx_sssp(g, &samples, Direction::Reverse, params);
    parts.ledger.merge(&fwd.ledger);
    parts.ledger.merge(&rev.ledger);

    let k = samples.len();
    for row in 0..k {
        for v in 0..n {
            let d1 = fwd.get_row(row, v);
            let d2 = rev.get_row(row, v);
            if d1 == INF || d2 == INF || v == samples[row] {
                continue;
            }
            let cand = d1 + d2;
            if parts.best.weight().is_some_and(|b| cand >= b) {
                continue;
            }
            let Some(p1) = fwd.path_row(row, v) else {
                continue;
            }; // s → v
            let Some(p2) = rev.path_row(row, v) else {
                continue;
            }; // v → s
            let mut walk = p1;
            walk.extend_from_slice(&p2[1..]); // closed walk s → v → s
            if let Some(cyc) = extract_cycle_from_walk(&walk, 2) {
                parts.best.offer_validated(g, cyc);
            }
        }
    }
}

/// Builds the closed walk `s → x, (x,y), y → s` from approximate-SSSP
/// paths and offers any simple cycle inside it.
fn offer_walk_cycle(
    g: &Graph,
    best: &mut BestCycle,
    sssp: &KSourceApproxSssp,
    row: usize,
    x: NodeId,
    y: NodeId,
) {
    let Some(px) = sssp.path_row(row, x) else {
        return;
    }; // s … x
    let Some(py) = sssp.path_row(row, y) else {
        return;
    }; // s … y
    let mut walk = px;
    walk.extend(py.into_iter().rev()); // s … x, y … s
    if let Some(cyc) = extract_cycle_from_walk(&walk, 3) {
        best.offer_validated(g, cyc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, planted_cycle, ring_with_chords, WeightRange};
    use mwc_graph::seq;
    use mwc_graph::Orientation;

    #[test]
    fn scaled_latencies_shape() {
        let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 100)]).unwrap();
        let eps = EpsQ::from_f64(0.5);
        let h = 10;
        let (tables, h_star) = scaled_latencies(&g, h, eps);
        assert_eq!(h_star, scale_budget(h, eps));
        assert!(!tables.is_empty());
        for (i, lat) in tables.iter().enumerate() {
            assert_eq!(lat.len(), g.m());
            // Latencies are ≥ 1 and non-increasing in the scale index.
            assert!(lat.iter().all(|&l| l >= 1));
            if i > 0 {
                for (a, b) in tables[i - 1].iter().zip(lat.iter()) {
                    assert!(b <= a, "stretch must shrink as the scale grows");
                }
            }
            // Heavier edges stretch more (within one scale).
            assert!(lat[1] >= lat[0]);
        }
        // The correct scale for a weight-w(C) ≈ 2^i cycle keeps it within
        // h*: an h-hop path of weight 2^i has stretch ≤ 2h/ε + h.
        let last = tables.last().unwrap();
        assert!(
            last.iter().all(|&l| l <= h_star),
            "final scale fits the budget"
        );
    }

    #[test]
    fn hop_limited_directed_stretched_subroutine() {
        // Weighted directed ring with a light 2-cycle; stretched by raw
        // weights with a budget covering only the 2-cycle.
        let mut g = Graph::directed(16);
        for i in 0..16 {
            g.add_edge(i, (i + 1) % 16, 10).unwrap();
        }
        g.add_edge(1, 0, 3).unwrap(); // 2-cycle 0→1→0 weight 13
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let parts =
            crate::directed::hop_limited_directed_mwc(&g, &Params::new().with_seed(3), &lat, 40, 4);
        assert_eq!(parts.best.weight(), Some(13));
    }

    fn check_undirected(g: &Graph, params: &Params) {
        let out = approx_mwc_undirected_weighted(g, params);
        out.assert_valid(g);
        let oracle = seq::mwc_undirected_exact(g).map(|m| m.weight);
        match (out.weight, oracle) {
            (None, None) => {}
            (Some(w), Some(opt)) => {
                assert!(w >= opt, "reported {w} < optimum {opt}");
                let bound = ((2.0 + params.epsilon) * opt as f64).ceil() as Weight + 2;
                assert!(w <= bound, "reported {w} > (2+ε)·opt = {bound} (opt {opt})");
            }
            (got, want) => panic!("cycle detection mismatch: got {got:?}, oracle {want:?}"),
        }
    }

    fn check_directed(g: &Graph, params: &Params) {
        let out = approx_mwc_directed_weighted(g, params);
        out.assert_valid(g);
        let oracle = seq::mwc_directed_exact(g).map(|m| m.weight);
        match (out.weight, oracle) {
            (None, None) => {}
            (Some(w), Some(opt)) => {
                assert!(w >= opt, "reported {w} < optimum {opt}");
                let bound = ((2.0 + params.epsilon) * opt as f64).ceil() as Weight + 2;
                assert!(w <= bound, "reported {w} > (2+ε)·opt = {bound} (opt {opt})");
            }
            (got, want) => panic!("cycle detection mismatch: got {got:?}, oracle {want:?}"),
        }
    }

    #[test]
    fn undirected_random_weighted() {
        for seed in 0..5 {
            let g = connected_gnm(
                40,
                70,
                Orientation::Undirected,
                WeightRange::uniform(1, 10),
                seed,
            );
            check_undirected(&g, &Params::new().with_seed(seed + 1));
        }
    }

    #[test]
    fn undirected_heavy_weights() {
        for seed in 0..3 {
            let g = connected_gnm(
                30,
                55,
                Orientation::Undirected,
                WeightRange::uniform(5, 60),
                30 + seed,
            );
            check_undirected(&g, &Params::new().with_seed(seed));
        }
    }

    #[test]
    fn undirected_weighted_ring_long_cycle() {
        let g = ring_with_chords(
            48,
            0,
            Orientation::Undirected,
            WeightRange::uniform(2, 6),
            3,
        );
        check_undirected(&g, &Params::new().with_seed(2));
    }

    #[test]
    fn undirected_planted_light_cycle() {
        let (g, _) = planted_cycle(
            40,
            60,
            4,
            2,
            Orientation::Undirected,
            WeightRange::uniform(25, 50),
            17,
        );
        let out = approx_mwc_undirected_weighted(&g, &Params::new().with_seed(5));
        out.assert_valid(&g);
        // Planted cycle weight 8; (2+ε) ⇒ at most ~18.5.
        let w = out.weight.expect("cycle exists");
        assert!((8..=19).contains(&w), "got {w}");
    }

    #[test]
    fn directed_random_weighted() {
        for seed in 0..4 {
            let g = connected_gnm(
                36,
                90,
                Orientation::Directed,
                WeightRange::uniform(1, 10),
                seed,
            );
            check_directed(&g, &Params::new().with_seed(seed + 7));
        }
    }

    #[test]
    fn directed_weighted_ring_long_cycle() {
        let g = ring_with_chords(40, 0, Orientation::Directed, WeightRange::uniform(1, 5), 11);
        check_directed(&g, &Params::new().with_seed(4));
    }

    #[test]
    fn directed_two_cycle_weighted() {
        let mut g = ring_with_chords(30, 0, Orientation::Directed, WeightRange::uniform(4, 4), 0);
        g.add_edge(7, 6, 3).unwrap(); // 2-cycle 6→7→6 of weight 7
        check_directed(&g, &Params::new().with_seed(9));
    }

    #[test]
    fn tighter_epsilon_still_valid() {
        let g = connected_gnm(
            30,
            60,
            Orientation::Undirected,
            WeightRange::uniform(1, 8),
            5,
        );
        check_undirected(&g, &Params::new().with_seed(1).with_epsilon(0.125));
    }

    #[test]
    fn forest_reports_none() {
        let mut g = Graph::undirected(8);
        for i in 1..8 {
            g.add_edge(i / 2, i, 5).unwrap();
        }
        let out = approx_mwc_undirected_weighted(&g, &Params::new());
        out.assert_valid(&g);
        assert_eq!(out.weight, None);
    }

    #[test]
    #[should_panic(expected = "weights ≥ 1")]
    fn zero_weight_rejected() {
        let g = Graph::from_edges(
            3,
            Orientation::Undirected,
            [(0, 1, 0), (1, 2, 1), (2, 0, 1)],
        )
        .unwrap();
        let _ = approx_mwc_undirected_weighted(&g, &Params::new());
    }
}

//! `k`-source BFS and approximate SSSP — **Algorithm 1 / Theorem 1.6** of
//! the paper (§2).
//!
//! For `k` sources the algorithm picks `h = √(nk)`, samples a hitting set
//! `S` for `h`-hop paths, computes `h`-hop segments from `S`, broadcasts
//! the `|S|²` skeleton edges so every node can locally solve APSP on the
//! skeleton, runs `h`-hop segments from the sources, broadcasts the `k·|S|`
//! source-to-sample distances, and combines everything locally:
//! `d(u,v) = min(d_h(u,v), min_s d(u,s) + d_h(s,v))` (see
//! the crate-internal `pipeline` module).
//!
//! - [`k_source_bfs`] (Theorem 1.6.A): segments are plain pipelined BFS —
//!   **exact** hop distances, `Õ(√(nk) + D)` rounds for `k ≥ n^{1/3}`.
//! - [`k_source_approx_sssp`] (Theorem 1.6.B): segments are scaled
//!   stretched BFS ([`scaling`](crate::scaling)) — `(1+ε)`-approximate
//!   weighted distances with the same structure.
//!
//! The paper's lines 9–10 propagate `d(u,s)` through the samples' BFS
//! trees; in this reproduction those values are already known to every node
//! because line 7's broadcast is global, so the combination step is local
//! and no extra rounds are charged — the information flow is identical and
//! the round total is dominated by the same phases (DESIGN.md §2).

use crate::params::Params;
use crate::pipeline::{skeleton_pipeline, Pipeline};
use crate::scaling::{charge_scaled_hop_sssp, scaled_hop_sssp, EpsQ, ScaledSegments};
use crate::util::simplify_path;
use mwc_congest::{multi_source_bfs, DistMatrix, Ledger, MultiBfsSpec, PhaseCache, INF};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};

/// Exact hop distances from `k` sources with path reconstruction; produced
/// by [`k_source_bfs`].
#[derive(Debug)]
pub struct KSourceDistances {
    sources: Vec<NodeId>,
    flipped: bool,
    pipe: Pipeline<DistMatrix>,
    /// Round/traffic accounting for the whole computation.
    pub ledger: Ledger,
}

/// `(1+ε)`-approximate weighted distances from `k` sources; produced by
/// [`k_source_approx_sssp`].
pub struct KSourceApproxSssp {
    sources: Vec<NodeId>,
    flipped: bool,
    pipe: Pipeline<ScaledSegments>,
    /// The quantized ε actually used. Usually `ε_q ≤ ε`, but requests
    /// below the quantization floor [`EpsQ::MIN`] (= 1/16) are clamped
    /// **up** to it — this field always reports the effective value, so
    /// the `(1+ε)` guarantee holds with *this* ε, not the requested one.
    pub epsilon: f64,
    /// Round/traffic accounting for the whole computation.
    pub ledger: Ledger,
}

macro_rules! impl_ksource_accessors {
    ($ty:ident) => {
        impl $ty {
            /// The sources, in row order.
            pub fn sources(&self) -> &[NodeId] {
                &self.sources
            }

            /// Number of sources.
            pub fn k(&self) -> usize {
                self.sources.len()
            }

            /// Distance for the `row`-th source to `v` (for reverse
            /// searches: from `v` to the source). [`INF`] if unreached.
            pub fn get_row(&self, row: usize, v: NodeId) -> Weight {
                self.pipe.get_row(row, v)
            }

            /// Distance indexed by source id.
            ///
            /// # Panics
            ///
            /// Panics if `s` is not one of the sources.
            pub fn get(&self, s: NodeId, v: NodeId) -> Weight {
                let row = self
                    .sources
                    .iter()
                    .position(|&x| x == s)
                    .expect("s must be a source");
                self.get_row(row, v)
            }

            /// A real simple path between the `row`-th source and `v`,
            /// oriented along the graph's edges (source→v forward,
            /// v→source reverse). `None` if unreached.
            pub fn path_row(&self, row: usize, v: NodeId) -> Option<Vec<NodeId>> {
                let mut p = self.pipe.path_row(row, v)?;
                if self.flipped {
                    p.reverse();
                }
                Some(simplify_path(p))
            }
        }
    };
}

impl_ksource_accessors!(KSourceDistances);
impl_ksource_accessors!(KSourceApproxSssp);

impl KSourceDistances {
    /// Wraps an externally computed distance table (e.g. the repeated
    /// single-source strategy of Theorem 1.6.A's `min`) in the common
    /// accessor interface.
    pub(crate) fn from_direct(sources: Vec<NodeId>, mat: DistMatrix, ledger: Ledger) -> Self {
        KSourceDistances {
            sources,
            flipped: false,
            pipe: Pipeline::Direct(mat),
            ledger,
        }
    }
}

/// `h = ⌈√(nk)⌉`, the paper's parameter choice.
pub(crate) fn pick_h(n: usize, k: usize) -> u64 {
    ((n as f64 * k as f64).sqrt().ceil() as u64).max(1)
}

/// Exact BFS (hop distances) from `k` sources — Theorem 1.6.A.
///
/// Takes `Õ(√(nk) + D)` rounds for `k ≥ n^{1/3}` (and `Õ(n/k + √(nk) + D)`
/// in general), all measured by the returned ledger. `direction` selects
/// distances *from* the sources ([`Direction::Forward`]) or *to* them
/// ([`Direction::Reverse`]); both coincide on undirected graphs.
///
/// # Panics
///
/// Panics if `sources` is empty or contains duplicate/out-of-range ids, or
/// if the communication topology is disconnected.
///
/// # Examples
///
/// ```
/// use mwc_core::{k_source_bfs, Params};
/// use mwc_graph::generators::{connected_gnm, WeightRange};
/// use mwc_graph::seq::Direction;
/// use mwc_graph::Orientation;
///
/// let g = connected_gnm(60, 120, Orientation::Directed, WeightRange::unit(), 1);
/// let out = k_source_bfs(&g, &[0, 7, 13], Direction::Forward, &Params::new());
/// assert_eq!(out.get(0, 0), 0);
/// let path = out.path_row(1, 42); // a real shortest path 7 → 42, if reachable
/// if let Some(p) = path {
///     assert_eq!(p[0], 7);
///     assert_eq!(*p.last().unwrap(), 42);
/// }
/// ```
pub fn k_source_bfs(
    g: &Graph,
    sources: &[NodeId],
    direction: Direction,
    params: &Params,
) -> KSourceDistances {
    assert!(!sources.is_empty(), "need at least one source");
    if direction == Direction::Reverse && g.is_directed() {
        let rev = g.reversed();
        let mut out = k_source_bfs(&rev, sources, Direction::Forward, params);
        out.flipped = true;
        return out;
    }
    let _span = mwc_trace::span("ksssp/bfs");
    let _cache = PhaseCache::scope();
    let n = g.n();
    let k = sources.len();
    let h = pick_h(n, k);
    let mut ledger = Ledger::new();

    let pipe = if h as usize + 1 >= n {
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: None,
        };
        Pipeline::Direct(multi_source_bfs(
            g,
            sources,
            &spec,
            "k-source BFS (direct)",
            &mut ledger,
        ))
    } else {
        let spec = MultiBfsSpec {
            max_dist: h,
            direction: Direction::Forward,
            latency: None,
        };
        skeleton_pipeline(
            g,
            sources,
            h,
            params,
            &mut ledger,
            |g, srcs, label, ledger| multi_source_bfs(g, srcs, &spec, label, ledger),
        )
    };
    // Charge the reverse h-hop BFS from S that lets samples know their
    // incoming skeleton edges (Algorithm 1 line 2 "repeat in the reversed
    // graph"); in this global simulation the forward matrix already holds
    // both views, so only the rounds are charged.
    if g.is_directed() {
        if let Pipeline::Skeleton(parts) = &pipe {
            let spec = MultiBfsSpec {
                max_dist: h,
                direction: Direction::Reverse,
                latency: None,
            };
            let _ = multi_source_bfs(
                g,
                &parts.samples,
                &spec,
                "h-hop reverse BFS from S",
                &mut ledger,
            );
        }
    }
    mwc_trace::check_bound(
        "core/k_source_bfs",
        mwc_trace::BoundInputs::n(n)
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .h(h)
            .k(k as u64),
        ledger.rounds,
        |i| crate::bounds::ksssp_bfs(n, k as u64, i.diameter, params),
    );
    KSourceDistances {
        sources: sources.to_vec(),
        flipped: false,
        pipe,
        ledger,
    }
}

/// `(1+ε)`-approximate weighted SSSP from `k` sources — Theorem 1.6.B.
///
/// Same skeleton structure as [`k_source_bfs`] with scaled stretched-BFS
/// segments; `Õ(√(nk) + D)` rounds for `k ≥ n^{1/3}` (up to `1/ε` and
/// `log(nW)` factors). Distances satisfy `d(u,v) ≤ est ≤ (1+ε)·d(u,v)`
/// (plus `O(1)` rounding per skeleton segment), and every estimate is
/// realized by the real path that [`KSourceApproxSssp::path_row`] returns.
///
/// # Panics
///
/// Panics on empty sources, zero edge weights (scaling assumes `w ≥ 1`),
/// or a disconnected communication topology.
pub fn k_source_approx_sssp(
    g: &Graph,
    sources: &[NodeId],
    direction: Direction,
    params: &Params,
) -> KSourceApproxSssp {
    assert!(!sources.is_empty(), "need at least one source");
    if direction == Direction::Reverse && g.is_directed() {
        let rev = g.reversed();
        let mut out = k_source_approx_sssp(&rev, sources, Direction::Forward, params);
        out.flipped = true;
        return out;
    }
    let _span = mwc_trace::span("ksssp/approx");
    let _cache = PhaseCache::scope();
    let n = g.n();
    let k = sources.len();
    let h = pick_h(n, k);
    let eps = EpsQ::from_f64(params.epsilon);
    let mut ledger = Ledger::new();

    let pipe = if h as usize + 1 >= n {
        // Direct regime: one set of scaled runs bounded by n−1 hops.
        Pipeline::Direct(scaled_hop_sssp(
            g,
            sources,
            (n as u64).saturating_sub(1).max(1),
            eps,
            "k-source approx SSSP (direct)",
            &mut ledger,
        ))
    } else {
        skeleton_pipeline(
            g,
            sources,
            h,
            params,
            &mut ledger,
            |g, srcs, label, ledger| scaled_hop_sssp(g, srcs, h, eps, label, ledger),
        )
    };
    if g.is_directed() {
        // Charge the reverse segment run from S (see k_source_bfs).
        if let Pipeline::Skeleton(parts) = &pipe {
            let rev = g.reversed();
            charge_scaled_hop_sssp(
                &rev,
                &parts.samples,
                h,
                eps,
                "reverse segments from S",
                &mut ledger,
            );
        }
    }
    mwc_trace::check_bound(
        "core/k_source_approx_sssp",
        mwc_trace::BoundInputs::n(n)
            .diameter(mwc_congest::bounds::diameter_upper_bound(g))
            .h(h)
            .k(k as u64)
            .eps(eps.value()),
        ledger.rounds,
        |i| crate::bounds::ksssp_approx(g, k as u64, i.diameter, params),
    );
    KSourceApproxSssp {
        sources: sources.to_vec(),
        flipped: false,
        pipe,
        epsilon: eps.value(),
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, grid, ring_with_chords, WeightRange};
    use mwc_graph::seq::{bfs, dijkstra, HOP_INF, INF as SEQ_INF};
    use mwc_graph::Orientation;

    fn check_exact(g: &Graph, sources: &[NodeId], dir: Direction, params: &Params) {
        let out = k_source_bfs(g, sources, dir, params);
        for (row, &s) in sources.iter().enumerate() {
            let t = bfs(g, s, dir);
            for v in 0..g.n() {
                let expect = if t.dist[v] == HOP_INF {
                    INF
                } else {
                    t.dist[v] as Weight
                };
                assert_eq!(
                    out.get_row(row, v),
                    expect,
                    "src {s} → {v} (dir {dir:?}, n {})",
                    g.n()
                );
            }
        }
    }

    fn check_paths_exact(g: &Graph, out: &KSourceDistances, dir: Direction) {
        for row in 0..out.k() {
            let s = out.sources()[row];
            for v in 0..g.n() {
                let d = out.get_row(row, v);
                if d == INF {
                    assert!(out.path_row(row, v).is_none());
                    continue;
                }
                let p = out.path_row(row, v).expect("reachable ⇒ path");
                match dir {
                    Direction::Forward => {
                        assert_eq!(*p.first().unwrap(), s);
                        assert_eq!(*p.last().unwrap(), v);
                    }
                    Direction::Reverse => {
                        assert_eq!(*p.first().unwrap(), v);
                        assert_eq!(*p.last().unwrap(), s);
                    }
                }
                for w in p.windows(2) {
                    assert!(g.has_edge(w[0], w[1]), "edge {}→{} missing", w[0], w[1]);
                }
                assert_eq!(p.len() as Weight - 1, d, "path hops ≠ distance");
            }
        }
    }

    #[test]
    fn exact_on_ring_forces_long_paths() {
        let g = ring_with_chords(64, 0, Orientation::Directed, WeightRange::unit(), 0);
        let params = Params::new().with_seed(3);
        check_exact(&g, &[0, 20], Direction::Forward, &params);
    }

    #[test]
    fn exact_on_random_directed_both_directions() {
        let params = Params::new().with_seed(5);
        let g = connected_gnm(120, 260, Orientation::Directed, WeightRange::unit(), 17);
        let sources: Vec<NodeId> = vec![0, 3, 9, 77, 118];
        check_exact(&g, &sources, Direction::Forward, &params);
        check_exact(&g, &sources, Direction::Reverse, &params);
    }

    #[test]
    fn exact_on_grid_undirected() {
        let params = Params::new().with_seed(1);
        let g = grid(10, 10, Orientation::Undirected, WeightRange::unit(), 0);
        check_exact(&g, &[0, 55, 99], Direction::Forward, &params);
    }

    #[test]
    fn exact_many_sources_direct_regime() {
        let g = connected_gnm(40, 60, Orientation::Directed, WeightRange::unit(), 2);
        let sources: Vec<NodeId> = (0..40).collect();
        check_exact(&g, &sources, Direction::Forward, &Params::new());
    }

    #[test]
    fn paths_are_real_and_tight_forward() {
        let g = ring_with_chords(48, 10, Orientation::Directed, WeightRange::unit(), 4);
        let params = Params::new().with_seed(9);
        let out = k_source_bfs(&g, &[0, 7, 31], Direction::Forward, &params);
        check_paths_exact(&g, &out, Direction::Forward);
    }

    #[test]
    fn paths_are_real_and_tight_reverse() {
        let g = ring_with_chords(48, 10, Orientation::Directed, WeightRange::unit(), 4);
        let params = Params::new().with_seed(9);
        let out = k_source_bfs(&g, &[2, 19], Direction::Reverse, &params);
        check_paths_exact(&g, &out, Direction::Reverse);
    }

    #[test]
    fn many_seeds_stay_exact() {
        for seed in 0..10 {
            let g = connected_gnm(80, 140, Orientation::Directed, WeightRange::unit(), seed);
            let params = Params::new().with_seed(seed * 31 + 1);
            check_exact(&g, &[1, 40, 79], Direction::Forward, &params);
        }
    }

    #[test]
    fn ledger_reports_phases() {
        let g = connected_gnm(100, 200, Orientation::Directed, WeightRange::unit(), 0);
        let out = k_source_bfs(&g, &[0, 1, 2], Direction::Forward, &Params::new());
        assert!(out.ledger.rounds > 0);
        assert!(out.ledger.phases.iter().any(|p| p.label.contains("from S")));
        assert!(out.ledger.phases.iter().any(|p| p.label.contains("from U")));
    }

    fn check_approx(g: &Graph, sources: &[NodeId], dir: Direction, params: &Params) {
        let out = k_source_approx_sssp(g, sources, dir, params);
        let eps = out.epsilon;
        for (row, &s) in sources.iter().enumerate() {
            let t = dijkstra(g, s, dir);
            for v in 0..g.n() {
                let est = out.get_row(row, v);
                if t.dist[v] == SEQ_INF {
                    assert_eq!(est, INF, "unreachable pair got estimate");
                    continue;
                }
                assert_ne!(est, INF, "reachable pair missing (s={s}, v={v})");
                assert!(
                    est >= t.dist[v],
                    "est {est} < true {} (s={s}, v={v})",
                    t.dist[v]
                );
                // +4 absorbs the O(1) ceil-rounding per skeleton segment.
                let bound = ((1.0 + eps) * t.dist[v] as f64).ceil() as Weight + 4;
                assert!(
                    est <= bound,
                    "est {est} > (1+ε)d + 4 = {bound} (d {}, s={s}, v={v})",
                    t.dist[v]
                );
                if est != INF && s != v {
                    let p = out.path_row(row, v).expect("estimate ⇒ path");
                    let (first, last) = match dir {
                        Direction::Forward => (s, v),
                        Direction::Reverse => (v, s),
                    };
                    assert_eq!(*p.first().unwrap(), first);
                    assert_eq!(*p.last().unwrap(), last);
                    let mut w = 0;
                    for e in p.windows(2) {
                        w += g
                            .weight(e[0], e[1])
                            .unwrap_or_else(|| panic!("path edge {}→{} missing", e[0], e[1]));
                    }
                    assert!(w <= est, "witness weight {w} > estimate {est}");
                }
            }
        }
    }

    #[test]
    fn approx_sssp_directed_weighted() {
        let g = connected_gnm(
            70,
            150,
            Orientation::Directed,
            WeightRange::uniform(1, 20),
            13,
        );
        let params = Params::new().with_seed(2).with_epsilon(0.25);
        check_approx(&g, &[0, 5, 33], Direction::Forward, &params);
        check_approx(&g, &[0, 5, 33], Direction::Reverse, &params);
    }

    #[test]
    fn approx_sssp_undirected_weighted() {
        let g = connected_gnm(
            60,
            100,
            Orientation::Undirected,
            WeightRange::uniform(1, 40),
            23,
        );
        let params = Params::new().with_seed(4).with_epsilon(0.5);
        check_approx(&g, &[10, 59], Direction::Forward, &params);
    }

    #[test]
    fn approx_sssp_on_weighted_ring() {
        // Long weighted paths stress the skeleton composition.
        let g = ring_with_chords(50, 5, Orientation::Directed, WeightRange::uniform(1, 9), 6);
        let params = Params::new().with_seed(8).with_epsilon(0.25);
        check_approx(&g, &[0, 13], Direction::Forward, &params);
    }

    #[test]
    fn tiny_epsilon_reports_the_clamped_floor() {
        // ε = 0.01 is below the quantization floor 1/16; the run must
        // report the effective ε it actually used, and the guarantee must
        // hold at that effective value (check_approx uses out.epsilon).
        use crate::scaling::EpsQ;
        let g = connected_gnm(
            60,
            130,
            Orientation::Directed,
            WeightRange::uniform(1, 15),
            31,
        );
        let params = Params::new().with_seed(6).with_epsilon(0.01);
        assert!(EpsQ::floors(params.epsilon));
        let out = k_source_approx_sssp(&g, &[0, 29], Direction::Forward, &params);
        assert_eq!(out.epsilon, EpsQ::MIN);
        check_approx(&g, &[0, 29], Direction::Forward, &params);
    }

    #[test]
    fn approx_sssp_many_seeds() {
        for seed in 0..6 {
            let g = connected_gnm(
                50,
                110,
                Orientation::Directed,
                WeightRange::uniform(1, 12),
                seed,
            );
            let params = Params::new().with_seed(100 + seed);
            check_approx(&g, &[seed as usize % 50, 30], Direction::Forward, &params);
        }
    }
}

//! Weight scaling and stretched-graph search — the technique of Nanongkai
//! \[41\] the paper uses for all its weighted algorithms (§2 "Weighted
//! Graphs", §5).
//!
//! To approximate `h`-hop bounded weighted distances with BFS-like waves:
//! for a guessed distance range `d ∈ [2^i, 2^{i+1})`, scale each weight to
//! `⌈w / μ_i⌉` units of `μ_i = ε·2^i / h`, so any `h`-hop path of weight
//! `d` has scaled length at most `d/μ_i + h ≤ 2h/ε + h` — a *constant
//! budget* `B` independent of the scale. Running a stretched BFS (edge
//! latency = scaled weight) to depth `B` per scale and rescaling the
//! result gives estimates `d ≤ est ≤ (1+ε)·d (+1 from rounding)`.
//!
//! Two reproductions-specific refinements, both conservative:
//!
//! - `ε` is quantized to a rational `en/16 ≤ ε` so all arithmetic is exact
//!   integer arithmetic (no float rounding can ever underestimate).
//! - Scales whose whole range `[2^i, 2^{i+1})` fits inside the budget `B`
//!   are replaced by a single **exact** stretched run with latency `w(e)`
//!   and budget `B`, which is both cheaper and tighter.

use crate::pipeline::Segments;
use mwc_congest::{
    charge_multi_source_bfs, multi_source_bfs, DistMatrix, Ledger, MultiBfsSpec, PhaseCache, INF,
};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};
use std::sync::Arc;

/// Quantized approximation parameter `ε_q = num/16`, with `ε_q ≤ ε`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpsQ {
    /// Numerator over a fixed denominator of 16; in `1..=64`.
    pub num: u64,
}

impl EpsQ {
    /// Denominator of the quantization.
    pub const DEN: u64 = 16;

    /// The quantization floor: the smallest representable ε, `1/16`.
    pub const MIN: f64 = 1.0 / Self::DEN as f64;

    /// Largest representable `ε_q ≤ eps`, clamped to `[1/16, 4]`.
    ///
    /// **Floor:** requests below [`EpsQ::MIN`] cannot be represented and
    /// are clamped **up** to `1/16` — for those the effective parameter is
    /// *larger* than requested and `ε_q ≤ ε` does not hold. Callers that
    /// surface an ε (e.g. `KSourceApproxSssp::epsilon`) must therefore
    /// report [`EpsQ::value`], the ε actually used, never echo the
    /// request. Use [`EpsQ::floors`] to detect the clamp.
    pub fn from_f64(eps: f64) -> Self {
        let num = (eps * Self::DEN as f64).floor().clamp(1.0, 64.0) as u64;
        EpsQ { num }
    }

    /// `true` iff [`EpsQ::from_f64`] would clamp `eps` *up* — i.e. the
    /// effective `ε_q` would exceed the request.
    pub fn floors(eps: f64) -> bool {
        eps < Self::MIN
    }

    /// The quantized value as f64.
    pub fn value(&self) -> f64 {
        self.num as f64 / Self::DEN as f64
    }
}

struct Run {
    mat: DistMatrix,
    /// `None`: exact run (estimates are the raw distances). `Some(i)`:
    /// scale index, estimates are `⌈raw · en·2^i / (16h)⌉`.
    scale: Option<u32>,
}

/// `h`-hop-bounded `(1+ε)`-approximate distances from `k` sources,
/// computed by per-scale stretched BFS. Produced by [`scaled_hop_sssp`].
pub(crate) struct ScaledSegments {
    n: usize,
    est: Vec<Weight>,
    choice: Vec<u8>,
    runs: Vec<Run>,
}

impl ScaledSegments {
    /// How many stretched runs actually executed (exact + one per scale).
    /// [`scale_run_count`] must predict exactly this number — pinned by a
    /// unit test so the hand-mirrored loops cannot drift.
    #[cfg(test)]
    pub(crate) fn run_count(&self) -> u64 {
        self.runs.len() as u64
    }
}

impl Segments for ScaledSegments {
    fn get(&self, row: usize, v: NodeId) -> Weight {
        self.est[row * self.n + v]
    }

    fn path(&self, row: usize, v: NodeId) -> Option<Vec<NodeId>> {
        if self.est[row * self.n + v] == INF {
            return None;
        }
        let run = &self.runs[self.choice[row * self.n + v] as usize];
        run.mat.path_from_source(row, v)
    }
}

impl Segments for DistMatrix {
    fn get(&self, row: usize, v: NodeId) -> Weight {
        self.get_row(row, v)
    }

    fn path(&self, row: usize, v: NodeId) -> Option<Vec<NodeId>> {
        self.path_from_source(row, v)
    }
}

fn rescale(raw: Weight, scale_pow: u32, en: u64, h: u64) -> Weight {
    // ⌈raw · en · 2^i / (16h)⌉ in exact u128 arithmetic.
    let num = raw as u128 * en as u128 * (1u128 << scale_pow);
    let den = 16u128 * h as u128;
    num.div_ceil(den) as Weight
}

/// Budget shared by all runs: `⌈2h/ε_q⌉ + h = ⌈32h/en⌉ + h`.
pub(crate) fn scale_budget(h: u64, eps: EpsQ) -> Weight {
    (32 * h as u128).div_ceil(eps.num as u128) as Weight + h
}

/// The canonical stretched latency table `⌈16·h·w(e)/(en·2^s)⌉.max(1)` per
/// edge, memoized per `(graph, h, ε_q, s)` in the active [`PhaseCache`].
///
/// Both consumers reduce to this one formula: [`scaled_hop_sssp`] uses
/// scale `s = i` directly, and `weighted::scaled_latencies` uses
/// `s = i − 1` (its `⌈32·h·w/(en·2ⁱ)⌉` equals `⌈16·h·w/(en·2^{i−1})⌉`
/// since `⌈2a/2b⌉ = ⌈a/b⌉`), so within one cache scope the two derive
/// each table exactly once.
pub(crate) fn stretched_latency_table(g: &Graph, h: u64, eps: EpsQ, s: u32) -> Arc<Vec<Weight>> {
    PhaseCache::latency_table(g, h, eps.num, s, || {
        g.edges()
            .iter()
            .map(|e| {
                let num = 16 * h as u128 * e.weight as u128;
                let den = eps.num as u128 * (1u128 << s);
                (num.div_ceil(den) as Weight).max(1)
            })
            .collect()
    })
}

/// The unstretched per-edge weight table, memoized under the sentinel key
/// `(h, en, s) = (0, 0, 0)` — unreachable by [`stretched_latency_table`],
/// whose `h` is always ≥ 1.
pub(crate) fn exact_latency_table(g: &Graph) -> Arc<Vec<Weight>> {
    PhaseCache::latency_table(g, 0, 0, 0, || g.edges().iter().map(|e| e.weight).collect())
}

/// The scale exponents `i` of the stretched runs after the exact one:
/// from one below the first power of two above the budget (so the range
/// boundary is safely covered) while `2^i ≤ 2·h·W`.
fn scales(g: &Graph, h: u64, eps: EpsQ) -> std::ops::Range<u32> {
    let budget = scale_budget(h, eps);
    let max_dist = h.saturating_mul(g.max_weight().max(1));
    let mut i = 0u32;
    while (1u128 << i) <= budget as u128 {
        i += 1;
    }
    let start = i.saturating_sub(1);
    let mut end = start;
    while (1u128 << end) <= 2 * max_dist as u128 {
        end += 1;
    }
    start..end
}

/// Number of stretched runs [`scaled_hop_sssp`] performs for this
/// instance (the exact run plus one per scale) — computed without running
/// them, for bound auditing.
pub(crate) fn scale_run_count(g: &Graph, h_hops: u64, eps: EpsQ) -> u64 {
    1 + scales(g, h_hops.max(1), eps).len() as u64
}

/// The floods behind [`scaled_hop_sssp`], in order: the exact run covering
/// all `d ≤` [`scale_budget`], then one run per scale for `d` in
/// `(budget, h·W]`. Each is handed to `run` with its spec, its phase label
/// and its scale (`None` for the exact run).
///
/// # Panics
///
/// Panics if any edge weight is zero (scaling-based approximation assumes
/// `w ≥ 1`, as is standard).
fn for_each_scale_flood(
    g: &Graph,
    h_hops: u64,
    eps: EpsQ,
    label: &str,
    mut run: impl FnMut(&MultiBfsSpec<'_>, &str, Option<u32>),
) {
    assert!(
        g.edges().iter().all(|e| e.weight >= 1),
        "scaled approximation requires weights ≥ 1"
    );
    fn spec(max_dist: Weight, latency: &[Weight]) -> MultiBfsSpec<'_> {
        MultiBfsSpec {
            max_dist,
            direction: Direction::Forward,
            latency: Some(latency),
        }
    }
    let h = h_hops.max(1);
    let budget = scale_budget(h, eps);
    let lat = exact_latency_table(g);
    run(&spec(budget, &lat), &format!("{label}: exact scale"), None);
    for i in scales(g, h, eps) {
        let lat = stretched_latency_table(g, h, eps, i);
        run(
            &spec(budget, &lat),
            &format!("{label}: scale 2^{i}"),
            Some(i),
        );
    }
}

/// Computes `(1+ε_q)`-approximate `h`-hop bounded distances from
/// `sources` (forward orientation) by stretched BFS over `O(log(hW))`
/// scales, each bounded by [`scale_budget`]. Round cost is charged per
/// scale to `ledger`.
///
/// # Panics
///
/// Panics if any edge weight is zero (scaling-based approximation assumes
/// `w ≥ 1`, as is standard).
pub(crate) fn scaled_hop_sssp(
    g: &Graph,
    sources: &[NodeId],
    h_hops: u64,
    eps: EpsQ,
    label: &str,
    ledger: &mut Ledger,
) -> ScaledSegments {
    let n = g.n();
    let k = sources.len();
    let h = h_hops.max(1);
    let mut runs: Vec<Run> = Vec::new();
    for_each_scale_flood(g, h_hops, eps, label, |spec, label, scale| {
        let mat = multi_source_bfs(g, sources, spec, label, ledger);
        runs.push(Run { mat, scale });
    });

    // Fold: min estimate across runs. `choice` stores run indices as u8;
    // the run count grows as log₂(h·W), so 256 runs would need W ≈ 2^256,
    // but a wider `Weight` must fail loudly rather than truncate.
    let mut est = vec![INF; k * n];
    let mut choice = vec![0u8; k * n];
    for (ri, run) in runs.iter().enumerate() {
        let ri = u8::try_from(ri).expect("stretched run index overflows the u8 choice table");
        for row in 0..k {
            for v in 0..n {
                let raw = run.mat.get_row(row, v);
                if raw == INF {
                    continue;
                }
                let e = match run.scale {
                    None => raw,
                    Some(i) => rescale(raw, i, eps.num, h),
                };
                let cell = &mut est[row * n + v];
                if e < *cell {
                    *cell = e;
                    choice[row * n + v] = ri;
                }
            }
        }
    }

    ScaledSegments {
        n,
        est,
        choice,
        runs,
    }
}

/// Charges exactly what [`scaled_hop_sssp`] with the same arguments would,
/// for a caller that only pays for the runs (each goes through
/// [`charge_multi_source_bfs`], so the flood memo may replay it).
///
/// # Panics
///
/// As [`scaled_hop_sssp`].
pub(crate) fn charge_scaled_hop_sssp(
    g: &Graph,
    sources: &[NodeId],
    h_hops: u64,
    eps: EpsQ,
    label: &str,
    ledger: &mut Ledger,
) {
    for_each_scale_flood(g, h_hops, eps, label, |spec, label, _| {
        charge_multi_source_bfs(g, sources, spec, label, ledger);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, WeightRange};
    use mwc_graph::seq::{bellman_ford_hops, Direction as SeqDir, INF as SEQ_INF};
    use mwc_graph::Orientation;

    #[test]
    fn eps_quantization_never_exceeds() {
        for &e in &[0.1, 0.25, 0.3, 0.5, 1.0, 2.0] {
            let q = EpsQ::from_f64(e);
            assert!(q.value() <= e + 1e-12, "{e} → {}", q.value());
            assert!(q.value() >= 1.0 / 16.0);
        }
    }

    #[test]
    fn eps_below_floor_clamps_up_to_min() {
        // Regression: ε = 0.01 < 1/16 cannot be represented; the clamp
        // goes *up* to 1/16 and EpsQ::floors must flag it so callers
        // report the effective value instead of the request.
        let q = EpsQ::from_f64(0.01);
        assert_eq!(q.num, 1);
        assert!((q.value() - EpsQ::MIN).abs() < 1e-12);
        assert!(q.value() > 0.01, "effective ε exceeds the request");
        assert!(EpsQ::floors(0.01));
        assert!(!EpsQ::floors(EpsQ::MIN));
        assert!(!EpsQ::floors(0.25));
    }

    #[test]
    fn scale_run_count_pins_the_actual_loop() {
        // scale_run_count predicts scaled_hop_sssp's run count without
        // running it; this pins the two together across h, ε, and weight
        // ranges.
        let configs = [
            (8u64, 0.25, 1u64, 1u64, 0u64),
            (8, 0.25, 1, 30, 1),
            (4, 0.5, 1, 100, 2),
            (12, 0.0625, 5, 60, 3),
            (1, 2.0, 1, 7, 4),
            (20, 1.0, 1, 1, 5),
        ];
        for (h, eps, lo, hi, seed) in configs {
            let g = connected_gnm(
                30,
                60,
                Orientation::Directed,
                WeightRange::uniform(lo, hi),
                seed,
            );
            let q = EpsQ::from_f64(eps);
            let mut ledger = Ledger::new();
            let seg = scaled_hop_sssp(&g, &[0, 7], h, q, "t", &mut ledger);
            assert_eq!(
                scale_run_count(&g, h, q),
                seg.run_count(),
                "h={h} eps={eps} weights=[{lo},{hi}]"
            );
            assert!(seg.run_count() <= u8::MAX as u64 + 1);
        }
    }

    #[test]
    fn rescale_rounds_up() {
        // raw=3, i=4, en=4, h=2: 3·4·16/(16·2) = 6 exactly.
        assert_eq!(rescale(3, 4, 4, 2), 6);
        // raw=3, i=4, en=4, h=5: 192/80 = 2.4 → 3.
        assert_eq!(rescale(3, 4, 4, 5), 3);
    }

    fn check_bounds(g: &Graph, sources: &[NodeId], h: u64, eps: f64) {
        let q = EpsQ::from_f64(eps);
        let mut ledger = Ledger::new();
        let seg = scaled_hop_sssp(g, sources, h, q, "t", &mut ledger);
        for (row, &s) in sources.iter().enumerate() {
            let exact_h = bellman_ford_hops(g, s, h as usize, SeqDir::Forward);
            let exact_any = bellman_ford_hops(g, s, g.n(), SeqDir::Forward);
            for v in 0..g.n() {
                let est = seg.get(row, v);
                // Never underestimates the unrestricted distance.
                if est != INF {
                    assert!(
                        exact_any[v] != SEQ_INF && est >= exact_any[v],
                        "est {est} < true {} (s={s}, v={v})",
                        exact_any[v]
                    );
                    // ... and the estimate is realized by a real path.
                    let p = seg.path(row, v).expect("estimate ⇒ path");
                    let mut w = 0;
                    for e in p.windows(2) {
                        w += g.weight(e[0], e[1]).expect("path edge exists");
                    }
                    assert!(w <= est, "witness path weight {w} > estimate {est}");
                }
                // Close to the h-hop distance from above.
                if exact_h[v] != SEQ_INF {
                    assert!(est != INF, "h-hop reachable but no estimate (s={s}, v={v})");
                    let bound = ((1.0 + eps) * exact_h[v] as f64).ceil() as Weight + 2;
                    assert!(
                        est <= bound,
                        "est {est} > (1+ε)·d_h + 2 = {bound} (d_h {}, s={s}, v={v})",
                        exact_h[v]
                    );
                }
            }
        }
    }

    #[test]
    fn approximates_weighted_distances_directed() {
        let g = connected_gnm(
            60,
            140,
            Orientation::Directed,
            WeightRange::uniform(1, 30),
            3,
        );
        check_bounds(&g, &[0, 11, 25], 12, 0.25);
    }

    #[test]
    fn approximates_weighted_distances_undirected() {
        let g = connected_gnm(
            50,
            90,
            Orientation::Undirected,
            WeightRange::uniform(1, 50),
            9,
        );
        check_bounds(&g, &[4, 44], 10, 0.5);
    }

    #[test]
    fn unit_weights_become_exact() {
        let g = connected_gnm(40, 70, Orientation::Directed, WeightRange::unit(), 5);
        let q = EpsQ::from_f64(0.25);
        let mut ledger = Ledger::new();
        let seg = scaled_hop_sssp(&g, &[0], 10, q, "t", &mut ledger);
        let exact = bellman_ford_hops(&g, 0, 10, SeqDir::Forward);
        for v in 0..g.n() {
            if exact[v] != SEQ_INF {
                assert_eq!(seg.get(0, v), exact[v]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "weights ≥ 1")]
    fn zero_weights_rejected() {
        let g = Graph::from_edges(2, Orientation::Directed, [(0, 1, 0)]).unwrap();
        let mut ledger = Ledger::new();
        let _ = scaled_hop_sssp(&g, &[0], 4, EpsQ::from_f64(0.25), "t", &mut ledger);
    }

    #[test]
    fn tighter_eps_costs_more_rounds() {
        let g = connected_gnm(
            40,
            80,
            Orientation::Directed,
            WeightRange::uniform(1, 20),
            1,
        );
        let rounds = |eps: f64| {
            let mut ledger = Ledger::new();
            let _ = scaled_hop_sssp(&g, &[0], 8, EpsQ::from_f64(eps), "t", &mut ledger);
            ledger.rounds
        };
        assert!(rounds(0.125) > rounds(1.0));
    }
}

//! **QUAL** — approximation-quality audit: every approximation algorithm
//! against the exact optimum, across graph families and seeds.
//!
//! For each (algorithm, family, seed) the audit records the reported /
//! optimum ratio and checks it against the theorem's bound:
//! 2 for Theorem 1.2.C, `2 − 1/g` for 1.3.B, `2 + ε` for 1.4.C / 1.2.D.
//! The summary reports the worst and mean observed ratio per algorithm —
//! typically far below the bound, since the witnesses are real cycles.
//!
//! Usage: `approx_quality [n]` (default 96) `[seeds]` (default 10).

use mwc_bench::{report, Table};
use mwc_core::{
    approx_girth, approx_mwc_directed_weighted, approx_mwc_undirected_weighted, exact_mwc,
    two_approx_directed_mwc, Params,
};
use mwc_graph::generators::{connected_gnm, planted_cycle, ring_with_chords, WeightRange};
use mwc_graph::{Graph, Orientation};

struct Audit {
    name: &'static str,
    ratios: Vec<f64>,
    bound_violations: usize,
}

impl Audit {
    fn new(name: &'static str) -> Self {
        Audit {
            name,
            ratios: Vec::new(),
            bound_violations: 0,
        }
    }

    fn record(&mut self, reported: u64, opt: u64, bound: f64) {
        let r = reported as f64 / opt as f64;
        self.ratios.push(r);
        if r > bound + 1e-9 {
            self.bound_violations += 1;
        }
    }

    fn summary(&self) -> (f64, f64) {
        let worst = self.ratios.iter().cloned().fold(0.0f64, f64::max);
        let mean = self.ratios.iter().sum::<f64>() / self.ratios.len().max(1) as f64;
        (worst, mean)
    }
}

fn families(
    orientation: Orientation,
    weights: WeightRange,
    n: usize,
    seed: u64,
) -> Vec<(&'static str, Graph)> {
    vec![
        (
            "gnm-sparse",
            connected_gnm(n, n, orientation, weights, seed),
        ),
        (
            "gnm-dense",
            connected_gnm(n, 4 * n, orientation, weights, seed + 1),
        ),
        (
            "ring-chords",
            ring_with_chords(n, n / 4, orientation, weights, seed + 2),
        ),
        ("planted", {
            let len = if orientation == Orientation::Directed {
                3
            } else {
                4
            };
            // Background edges at the top of the family's weight range so
            // the planted cycle is (usually) the MWC; for unit-weight
            // families the planted cycle is simply a shortest-possible one.
            let bg = if weights.max == 1 {
                WeightRange::unit()
            } else {
                WeightRange::uniform(weights.max, weights.max * 2)
            };
            planted_cycle(n, 2 * n, len, weights.min, orientation, bg, seed + 3).0
        }),
    ]
}

/// Count allocator traffic so this bin's run record and optional Chrome
/// trace export carry allocation profile data alongside simulated rounds.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["n", "seeds"], &[]);
    report::init_profiling();
    let n: usize = report::arg(1, 96);
    let seeds: u64 = report::arg(2, 10);
    let mut rec = report::RunRecorder::start("approx_quality");
    rec.param("n", n);
    rec.param("seeds", seeds);

    let mut audits = [
        Audit::new("2-approx directed (Thm 1.2.C, bound 2)"),
        Audit::new("(2−1/g) girth (Thm 1.3.B)"),
        Audit::new("(2+ε) undirected weighted (Thm 1.4.C)"),
        Audit::new("(2+ε) directed weighted (Thm 1.2.D)"),
    ];
    let eps = 0.25;

    for seed in 0..seeds {
        let params = Params::new().with_seed(seed).with_epsilon(eps);

        for (_, g) in families(Orientation::Directed, WeightRange::unit(), n, seed * 100) {
            if let Some(opt) = exact_mwc(&g).weight {
                let rep = two_approx_directed_mwc(&g, &params)
                    .weight
                    .expect("finds a cycle");
                audits[0].record(rep, opt, 2.0);
            }
        }
        for (_, g) in families(
            Orientation::Undirected,
            WeightRange::unit(),
            n,
            seed * 100 + 1,
        ) {
            if let Some(girth) = exact_mwc(&g).weight {
                let rep = approx_girth(&g, &params).weight.expect("finds a cycle");
                audits[1].record(rep, girth, 2.0 - 1.0 / girth as f64);
            }
        }
        for (_, g) in families(
            Orientation::Undirected,
            WeightRange::uniform(1, 10),
            n,
            seed * 100 + 2,
        ) {
            if let Some(opt) = exact_mwc(&g).weight {
                let rep = approx_mwc_undirected_weighted(&g, &params)
                    .weight
                    .expect("finds a cycle");
                // +2/opt absorbs integer rounding slack of the scaled runs.
                audits[2].record(rep, opt, 2.0 + eps + 2.0 / opt as f64);
            }
        }
        for (_, g) in families(
            Orientation::Directed,
            WeightRange::uniform(1, 10),
            n / 2,
            seed * 100 + 3,
        ) {
            if let Some(opt) = exact_mwc(&g).weight {
                let rep = approx_mwc_directed_weighted(&g, &params)
                    .weight
                    .expect("finds a cycle");
                audits[3].record(rep, opt, 2.0 + eps + 2.0 / opt as f64);
            }
        }
    }

    let mut t = Table::new(
        &format!("Approximation quality audit (n = {n}, {seeds} seeds × 4 families)"),
        &[
            "algorithm",
            "samples",
            "worst_ratio",
            "mean_ratio",
            "bound_violations",
        ],
    );
    for a in &audits {
        let (worst, mean) = a.summary();
        t.row(vec![
            a.name.into(),
            a.ratios.len().to_string(),
            format!("{worst:.3}"),
            format!("{mean:.3}"),
            a.bound_violations.to_string(),
        ]);
        assert_eq!(a.bound_violations, 0, "{} violated its bound", a.name);
    }
    t.print();
    t.save_tsv("approx_quality");
    println!("all approximation bounds held on every instance.");
    rec.finish();
}

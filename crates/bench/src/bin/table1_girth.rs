//! **T1-GIRTH** — Table 1, girth row: exact `O(n)` \[28\] vs `(2 − 1/g)`-
//! approximation in `Õ(√n + D)` (Theorem 1.3.B).
//!
//! The paper predicts the approximation overtakes the exact baseline with
//! a fitted exponent ≈0.5 (+polylogs) against ≈1.0 — this is the row where
//! the asymptotic gap is widest and the crossover is visible at benchable
//! sizes.
//!
//! Usage: `table1_girth [max_n]` (default 4096; sweep doubles from 128).

use mwc_bench::plot::loglog_chart;
use mwc_bench::{fit_exponent, ratio, report, Table};
use mwc_core::{approx_girth, exact_mwc, Params};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::Orientation;

/// Count allocator traffic so this bin's run record and optional Chrome
/// trace export carry allocation profile data alongside simulated rounds.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["max_n"], &["--jobs=N"]);
    report::init_profiling();
    let max_n: usize = report::arg(1, 4096);
    let params = Params::lean().with_seed(4242);
    let mut rec = report::RunRecorder::start("table1_girth");
    rec.param("max_n", max_n);
    rec.param("seed", 4242);

    let mut t = Table::new(
        "Table 1 / girth: exact O(n) vs (2 − 1/g)-approx Õ(√n + D)",
        &[
            "n",
            "m",
            "D",
            "exact_rounds",
            "approx_rounds",
            "approx/exact",
            "girth",
            "reported",
            "quality",
        ],
    );
    let sizes: Vec<usize> = std::iter::successors(Some(128usize), |&n| Some(n * 2))
        .take_while(|&n| n <= max_n)
        .collect();
    // Per-size configs are independent: run them on the worker pool
    // (`--jobs` / `MWC_JOBS`), each under its own trace session and cache
    // scope, then graft the traces back in input order — output is
    // byte-identical for every worker count.
    let runs = mwc_par::ordered_map(sizes, |n| {
        let session = mwc_trace::TraceSession::memory();
        let g = connected_gnm(
            n,
            2 * n,
            Orientation::Undirected,
            WeightRange::unit(),
            5 + n as u64,
        );
        let d = g.undirected_diameter().expect("connected");
        // One cache scope per graph: exact and approx share the BFS tree,
        // so the second algorithm replays it instead of re-charging.
        let cache = mwc_congest::PhaseCache::scope();
        let exact = exact_mwc(&g);
        let approx = approx_girth(&g, &params);
        drop(cache);
        (n, g.m(), d, exact, approx, session.finish())
    });
    let (mut ns, mut er, mut ar) = (Vec::new(), Vec::new(), Vec::new());
    for (n, m, d, exact, approx, trace) in runs {
        mwc_trace::graft(trace);
        rec.congestion(&format!("n={n} exact"), &exact.ledger);
        rec.congestion(&format!("n={n} approx"), &approx.ledger);
        let girth = exact.weight.expect("cycle exists");
        let rep = approx.weight.expect("approximation must find a cycle");
        // `2g − 1` is the (2 − 1/g)·g bound written the paper's way.
        #[allow(clippy::int_plus_one)]
        let within = rep >= girth && rep <= 2 * girth - 1;
        assert!(within, "(2 − 1/g) violated: {rep} vs girth {girth}");
        t.row(vec![
            n.to_string(),
            m.to_string(),
            d.to_string(),
            exact.ledger.rounds.to_string(),
            approx.ledger.rounds.to_string(),
            ratio(approx.ledger.rounds, exact.ledger.rounds),
            girth.to_string(),
            rep.to_string(),
            format!("{:.2}", rep as f64 / girth as f64),
        ]);
        ns.push(n as f64);
        er.push(exact.ledger.rounds as f64);
        ar.push(approx.ledger.rounds as f64);
    }
    t.print();
    t.save_tsv("table1_girth");
    if ns.len() >= 2 {
        println!(
            "fitted exponents: exact n^{:.2} (paper ~1.0), approx n^{:.2} (paper ~0.5 + polylog)\n",
            fit_exponent(&ns, &er),
            fit_exponent(&ns, &ar)
        );
        let series = vec![
            (
                "exact O(n)",
                ns.iter().zip(&er).map(|(&x, &y)| (x, y)).collect(),
            ),
            (
                "(2-1/g)-approx",
                ns.iter().zip(&ar).map(|(&x, &y)| (x, y)).collect(),
            ),
        ];
        print!("{}", loglog_chart("rounds vs n", &series, 56, 12));
    }
    rec.finish();
}

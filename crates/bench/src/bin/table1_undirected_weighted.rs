//! **T1-UW-UB** — Table 1, undirected weighted MWC row: exact `Õ(n)`
//! \[3, 50\] vs `(2+ε)`-approximation in `Õ(n^{2/3} + D)` (Theorem 1.4.C).
//!
//! Sweeps `n` and two values of `ε`; the paper predicts fitted exponents
//! ≈1.0 (exact, for bounded weights) vs ≈0.67 (+polylog·log(nW)) and a
//! round cost growing as `ε` shrinks (more scales, larger `h*`).
//!
//! Usage: `table1_undirected_weighted [max_n]` (default 512).

use mwc_bench::{fit_exponent, ratio, report, Table};
use mwc_core::{approx_mwc_undirected_weighted, exact_mwc, Params};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::Orientation;

/// Count allocator traffic so this bin's run record and optional Chrome
/// trace export carry allocation profile data alongside simulated rounds.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["max_n"], &["--jobs=N"]);
    report::init_profiling();
    let max_n: usize = report::arg(1, 512);
    let w_max = 8;
    let mut rec = report::RunRecorder::start("table1_undirected_weighted");
    rec.param("max_n", max_n);
    rec.param("seed", 99);

    let eps_values = [0.5, 0.25];
    let sizes: Vec<usize> = std::iter::successors(Some(64usize), |&n| Some(n * 2))
        .take_while(|&n| n <= max_n)
        .collect();
    // Fan the whole (ε, n) cross product out on the worker pool, ε-major
    // so the join order matches the original nested loops; traces are
    // grafted back in that order, making output byte-identical for every
    // worker count.
    let mut configs: Vec<(f64, usize)> = Vec::new();
    for &eps in &eps_values {
        for &n in &sizes {
            configs.push((eps, n));
        }
    }
    let runs = mwc_par::ordered_map(configs, |(eps, n)| {
        let session = mwc_trace::TraceSession::memory();
        let params = Params::lean().with_seed(99).with_epsilon(eps);
        let g = connected_gnm(
            n,
            2 * n,
            Orientation::Undirected,
            WeightRange::uniform(1, w_max),
            13 + n as u64,
        );
        // One cache scope per graph: exact and approx share the BFS
        // tree; the approx run also shares its per-scale latency
        // tables between scaled_latencies and scaled_hop_sssp.
        let cache = mwc_congest::PhaseCache::scope();
        let exact = exact_mwc(&g);
        let approx = approx_mwc_undirected_weighted(&g, &params);
        drop(cache);
        (n, g.m(), exact, approx, session.finish())
    });
    let mut runs = runs.into_iter();

    for eps in eps_values {
        let mut t = Table::new(
            &format!(
                "Table 1 / undirected weighted MWC (ε = {eps}): exact Õ(n) vs (2+ε) Õ(n^{{2/3}}+D)"
            ),
            &[
                "n",
                "m",
                "W",
                "exact_rounds",
                "approx_rounds",
                "approx/exact",
                "opt",
                "reported",
                "quality",
            ],
        );
        let (mut ns, mut er, mut ar) = (Vec::new(), Vec::new(), Vec::new());
        for _ in &sizes {
            let (n, m, exact, approx, trace) = runs.next().expect("one run per config");
            mwc_trace::graft(trace);
            rec.congestion(&format!("eps={eps} n={n} exact"), &exact.ledger);
            rec.congestion(&format!("eps={eps} n={n} approx"), &approx.ledger);
            let opt = exact.weight.expect("cycle exists");
            let rep = approx.weight.expect("approximation must find a cycle");
            let bound = ((2.0 + eps) * opt as f64).ceil() as u64 + 2;
            assert!(rep >= opt && rep <= bound, "(2+ε) violated: {rep} vs {opt}");
            t.row(vec![
                n.to_string(),
                m.to_string(),
                w_max.to_string(),
                exact.ledger.rounds.to_string(),
                approx.ledger.rounds.to_string(),
                ratio(approx.ledger.rounds, exact.ledger.rounds),
                opt.to_string(),
                rep.to_string(),
                format!("{:.2}", rep as f64 / opt as f64),
            ]);
            ns.push(n as f64);
            er.push(exact.ledger.rounds as f64);
            ar.push(approx.ledger.rounds as f64);
        }
        t.print();
        t.save_tsv(&format!(
            "table1_undirected_weighted_eps{}",
            (eps * 100.0) as u32
        ));
        if ns.len() >= 2 {
            let norm: Vec<f64> = ns
                .iter()
                .zip(&ar)
                .map(|(n, r)| r / n.ln().powi(2))
                .collect();
            println!(
                "fitted exponents (ε = {eps}): exact n^{:.2}, (2+ε)-approx n^{:.2} raw, n^{:.2} after ln²n normalization (paper ~0.67 + log(nW))\n",
                fit_exponent(&ns, &er),
                fit_exponent(&ns, &ar),
                fit_exponent(&ns, &norm)
            );
        }
    }
    rec.finish();
}

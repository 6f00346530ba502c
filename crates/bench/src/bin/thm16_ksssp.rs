//! **THM16-A/B** — Theorem 1.6: `k`-source BFS in `Õ(√(nk) + D)` rounds
//! (eq. 1) and `(1+ε)`-approximate weighted `k`-source SSSP (eq. 2).
//!
//! Two sweeps:
//! - `k = n^{1/3}` (the theorem's threshold regime), growing `n`:
//!   predicting rounds ≈ `n^{2/3}` up to polylogs;
//! - fixed `n`, growing `k` across the `n^{1/3}` threshold: eq. (1) is a
//!   `min(Õ(n/k), Õ(√(nk)))`, so rounds first *fall* with `k` (the
//!   skeleton-broadcast `n/k` term) and then grow ≈ `√k` — the U-shape is
//!   the theorem's crossover made visible.
//!
//! Usage: `thm16_ksssp [max_n]` (default 2048).

use mwc_bench::{fit_exponent, report, Table};
use mwc_core::{k_source_approx_sssp, k_source_bfs, Params};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{NodeId, Orientation};

fn sources(n: usize, k: usize) -> Vec<NodeId> {
    (0..k).map(|i| i * n / k).collect()
}

/// Count allocator traffic so this bin's run record and optional Chrome
/// trace export carry allocation profile data alongside simulated rounds.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["max_n"], false);
    report::init_profiling();
    let max_n: usize = report::arg(1, 2048);
    let params = Params::lean().with_seed(1616);
    let mut rec = report::RunRecorder::start("thm16_ksssp");
    rec.param("max_n", max_n);
    rec.param("seed", 1616);

    // ---- sweep n with k = n^{1/3} (exact BFS, eq. 1) ----
    let mut t = Table::new(
        "Thm 1.6.A: k-source exact BFS, k = n^{1/3} — rounds vs √(nk) = n^{2/3}",
        &["n", "k", "sqrt(nk)", "rounds", "rounds/sqrt(nk)"],
    );
    let (mut ns, mut rs) = (Vec::new(), Vec::new());
    let mut n = 128;
    while n <= max_n {
        let k = ((n as f64).powf(1.0 / 3.0).round() as usize).max(2);
        let g = connected_gnm(
            n,
            3 * n,
            Orientation::Directed,
            WeightRange::unit(),
            n as u64,
        );
        let out = k_source_bfs(&g, &sources(n, k), Direction::Forward, &params);
        rec.congestion(&format!("n={n} k={k} bfs"), &out.ledger);
        let sqnk = ((n * k) as f64).sqrt();
        t.row(vec![
            n.to_string(),
            k.to_string(),
            format!("{sqnk:.0}"),
            out.ledger.rounds.to_string(),
            format!("{:.1}", out.ledger.rounds as f64 / sqnk),
        ]);
        ns.push(n as f64);
        rs.push(out.ledger.rounds as f64);
        n *= 2;
    }
    t.print();
    t.save_tsv("thm16_bfs_sweep_n");
    if ns.len() >= 2 {
        let norm: Vec<f64> = ns
            .iter()
            .zip(&rs)
            .map(|(n, r)| r / n.ln().powi(2))
            .collect();
        println!(
            "fitted exponent in n: {:.2} raw, {:.2} after ln²n normalization (paper ~0.67)\n",
            fit_exponent(&ns, &rs),
            fit_exponent(&ns, &norm)
        );
    }

    // ---- sweep k at fixed n (exact BFS) ----
    let n = max_n.min(1024);
    let g = connected_gnm(n, 3 * n, Orientation::Directed, WeightRange::unit(), 77);
    let mut t = Table::new(
        &format!("Thm 1.6.A: k-source exact BFS at n = {n} — rounds vs k"),
        &["k", "sqrt(nk)", "rounds", "rounds/sqrt(nk)"],
    );
    let (mut ks, mut rs) = (Vec::new(), Vec::new());
    let threshold = (n as f64).powf(1.0 / 3.0);
    let mut k = 4;
    while k <= n / 2 {
        let out = k_source_bfs(&g, &sources(n, k), Direction::Forward, &params);
        let sqnk = ((n * k) as f64).sqrt();
        t.row(vec![
            k.to_string(),
            format!("{sqnk:.0}"),
            out.ledger.rounds.to_string(),
            format!("{:.1}", out.ledger.rounds as f64 / sqnk),
        ]);
        // Fit only in the k ≥ n^{1/3} regime eq. (1) speaks about (and
        // past the constant-dominated knee).
        if (k as f64) >= threshold * 4.0 {
            ks.push(k as f64);
            rs.push(out.ledger.rounds as f64);
        }
        k *= 4;
    }
    t.print();
    t.save_tsv("thm16_bfs_sweep_k");
    if ks.len() >= 2 {
        println!(
            "fitted exponent in k over the √(nk) regime (k ≥ 4·n^{{1/3}}): {:.2} (paper ~0.5); \
             the falling left side of the table is the Õ(n/k) regime of eq. (1)\n",
            fit_exponent(&ks, &rs)
        );
    }

    // ---- weighted (1+ε) k-source SSSP (eq. 2) ----
    let mut t = Table::new(
        "Thm 1.6.B: (1+ε) k-source weighted SSSP, k = n^{1/3}, W = 8",
        &["n", "k", "rounds", "rounds/sqrt(nk)"],
    );
    let (mut ns, mut rs) = (Vec::new(), Vec::new());
    let mut n = 128;
    while n <= max_n / 2 {
        let k = ((n as f64).powf(1.0 / 3.0).round() as usize).max(2);
        let g = connected_gnm(
            n,
            3 * n,
            Orientation::Directed,
            WeightRange::uniform(1, 8),
            n as u64 + 1,
        );
        let out = k_source_approx_sssp(&g, &sources(n, k), Direction::Forward, &params);
        rec.congestion(&format!("n={n} k={k} sssp"), &out.ledger);
        let sqnk = ((n * k) as f64).sqrt();
        t.row(vec![
            n.to_string(),
            k.to_string(),
            out.ledger.rounds.to_string(),
            format!("{:.1}", out.ledger.rounds as f64 / sqnk),
        ]);
        ns.push(n as f64);
        rs.push(out.ledger.rounds as f64);
        n *= 2;
    }
    t.print();
    t.save_tsv("thm16_sssp_sweep_n");
    if ns.len() >= 2 {
        let norm: Vec<f64> = ns
            .iter()
            .zip(&rs)
            .map(|(n, r)| r / n.ln().powi(2))
            .collect();
        println!(
            "fitted exponent in n: {:.2} raw, {:.2} after ln²n normalization (paper ~0.67 + 1/ε·log(nW))",
            fit_exponent(&ns, &rs),
            fit_exponent(&ns, &norm)
        );
    }
    rec.finish();
}

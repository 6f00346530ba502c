//! Diagnostic: per-phase round breakdown of the approximation algorithms,
//! aggregated by phase label across a sweep of `n`. Useful for seeing
//! which phase dominates at benchable sizes (the paper's polylog factors
//! hide very different constants per phase).
//!
//! The largest sweep point additionally runs inside a trace session; its
//! span flamegraph (the *nested* view the flat phase table can't show)
//! prints at the end.
//!
//! Usage: `phase_breakdown [algo] [max_n]` with algo one of
//! `directed|girth|uweighted|dweighted` (default `directed`, 512).

use mwc_bench::{report, Table};
use mwc_congest::Ledger;
use mwc_core::{
    approx_girth, approx_mwc_directed_weighted, approx_mwc_undirected_weighted,
    two_approx_directed_mwc, Params,
};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::Orientation;
use mwc_trace::TraceSession;
use std::collections::BTreeMap;

fn aggregate(ledger: &Ledger) -> BTreeMap<String, u64> {
    let mut by_label: BTreeMap<String, u64> = BTreeMap::new();
    for p in &ledger.phases {
        // Strip scale and cache-savings suffixes so repeated phases
        // aggregate (e.g. "cached: bfs tree (saved 12 rounds)").
        let key = p.label.split(" 2^").next().unwrap_or(&p.label);
        let key = key.split(" (saved").next().unwrap_or(key).to_string();
        *by_label.entry(key).or_default() += p.rounds;
    }
    by_label
}

/// Count allocator traffic so this bin's run record and optional Chrome
/// trace export carry allocation profile data alongside simulated rounds.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["directed|girth|uweighted|dweighted", "max_n"], &[]);
    report::init_profiling();
    let algo = report::arg_str(1, "directed");
    let max_n: usize = report::arg(2, 512);
    let params = Params::lean().with_seed(42);
    let mut rec = report::RunRecorder::start(&format!("phase_breakdown_{algo}"));
    rec.param("algo", &algo);
    rec.param("max_n", max_n);
    rec.param("seed", 42);

    let mut all_labels: Vec<String> = Vec::new();
    let mut rows: Vec<(usize, BTreeMap<String, u64>, u64)> = Vec::new();
    let mut trace = None;
    let mut n = 128;
    while n <= max_n {
        // Trace the largest point: spans nest where phase labels are flat.
        let session = (n * 2 > max_n).then(TraceSession::memory);
        let ledger = match algo.as_str() {
            "directed" => {
                let g = connected_gnm(
                    n,
                    3 * n,
                    Orientation::Directed,
                    WeightRange::unit(),
                    7 + n as u64,
                );
                two_approx_directed_mwc(&g, &params).ledger
            }
            "girth" => {
                let g = connected_gnm(
                    n,
                    2 * n,
                    Orientation::Undirected,
                    WeightRange::unit(),
                    5 + n as u64,
                );
                approx_girth(&g, &params).ledger
            }
            "uweighted" => {
                let g = connected_gnm(
                    n,
                    2 * n,
                    Orientation::Undirected,
                    WeightRange::uniform(1, 8),
                    13 + n as u64,
                );
                approx_mwc_undirected_weighted(&g, &params).ledger
            }
            "dweighted" => {
                let g = connected_gnm(
                    n,
                    3 * n,
                    Orientation::Directed,
                    WeightRange::uniform(1, 8),
                    11 + n as u64,
                );
                approx_mwc_directed_weighted(&g, &params).ledger
            }
            other => panic!("unknown algorithm {other}"),
        };
        if let Some(session) = session {
            trace = Some((n, session.finish()));
        }
        rec.congestion(&format!("n={n}"), &ledger);
        let agg = aggregate(&ledger);
        for k in agg.keys() {
            if !all_labels.contains(k) {
                all_labels.push(k.clone());
            }
        }
        rows.push((n, agg, ledger.rounds));
        n *= 2;
    }

    let mut headers: Vec<&str> = vec!["n", "total"];
    let label_strs: Vec<String> = all_labels.clone();
    for l in &label_strs {
        headers.push(l);
    }
    let mut t = Table::new(&format!("phase breakdown: {algo}"), &headers);
    for (n, agg, total) in &rows {
        let mut cells = vec![n.to_string(), total.to_string()];
        for l in &label_strs {
            cells.push(agg.get(l).copied().unwrap_or(0).to_string());
        }
        t.row(cells);
    }
    t.print();
    t.save_tsv(&format!("phase_breakdown_{algo}"));
    if let Some((n, data)) = trace {
        println!("\nspan flamegraph at n = {n}:");
        print!("{}", data.flamegraph());
    }
    rec.finish();
}

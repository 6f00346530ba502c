//! Span-trace and bound-audit report over a fixed deterministic fixture.
//!
//! Runs one representative of each algorithm family (exact MWC, girth
//! approximation, directed 2-approximation, both weighted approximations,
//! k-source BFS) on small seeded graphs inside a [`RunRecorder`]'s
//! in-memory trace session, then renders:
//!
//! 1. an indented text flamegraph of simulated rounds per span and
//! 2. a table of every bound audit (measured vs. theoretical rounds)
//!
//! on stdout, and writes its run record and the Chrome trace export.
//!
//! Everything is seeded and no wall-clock data enters the flamegraph or
//! the audit table, so two runs print **byte-identical** stdout;
//! `export_determinism.rs` compares them to guard the determinism
//! contract.
//!
//! Usage: `trace_report [n]` (default 96, at least 8: the k-source BFS
//! takes every `n/8`-th node as a source).

use mwc_bench::report::{self, RunRecorder};
use mwc_bench::Table;
use mwc_core::{
    approx_girth, approx_mwc_directed_weighted, approx_mwc_undirected_weighted, exact_mwc,
    k_source_bfs, two_approx_directed_mwc, Params,
};
use mwc_graph::generators::{connected_gnm, grid, ring_with_chords, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{NodeId, Orientation};

/// Count allocator traffic so spans carry `alloc_bytes`/`alloc_count` —
/// the flamegraph ignores them, but the run record and the Chrome trace
/// export surface them.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["n>=8"], &[]);
    report::init_profiling();
    let n: usize = report::arg(1, 96);
    let params = Params::lean().with_seed(42);

    let mut recorder = RunRecorder::start("trace_report");
    recorder.param("n", n);

    let g = grid(4, 4, Orientation::Undirected, WeightRange::unit(), 0);
    exact_mwc(&g);

    let g = connected_gnm(n, 2 * n, Orientation::Undirected, WeightRange::unit(), 5);
    approx_girth(&g, &params);

    let g = ring_with_chords(n, n / 4, Orientation::Undirected, WeightRange::unit(), 9);
    let sources: Vec<NodeId> = (0..n).step_by(n / 8).collect();
    k_source_bfs(&g, &sources, Direction::Forward, &params);

    let g = connected_gnm(n, 3 * n, Orientation::Directed, WeightRange::unit(), 7);
    two_approx_directed_mwc(&g, &params);

    let g = connected_gnm(
        n,
        2 * n,
        Orientation::Undirected,
        WeightRange::uniform(1, 8),
        13,
    );
    approx_mwc_undirected_weighted(&g, &params);

    let g = connected_gnm(
        n,
        3 * n,
        Orientation::Directed,
        WeightRange::uniform(1, 8),
        11,
    );
    approx_mwc_directed_weighted(&g, &params);

    let (record, data) = recorder.into_record_with_trace();

    println!("== span flamegraph (simulated rounds) ==");
    print!("{}", data.flamegraph());

    let mut t = Table::new(
        "bound audits (measured vs. theoretical rounds)",
        &[
            "algorithm",
            "n",
            "D≤",
            "h",
            "k",
            "measured",
            "bound",
            "ratio",
        ],
    );
    for a in data.all_audits() {
        t.row(vec![
            a.algorithm.clone(),
            a.inputs.n.to_string(),
            a.inputs.diameter.to_string(),
            a.inputs.h.to_string(),
            a.inputs.k.to_string(),
            a.measured_rounds.to_string(),
            format!("{:.0}", a.bound_rounds),
            format!("{:.3}", a.ratio),
        ]);
    }
    println!();
    t.print();

    report::save_chrome_trace(&data, "trace_report");
    report::save_artifact(
        &format!("{}/trace_report.json", report::RUN_RECORD_DIR),
        &record.render(),
    );
}

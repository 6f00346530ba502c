//! Congestion-timeline demonstration of **random-delay scheduling**
//! (\[24, 36\], used by Algorithm 3 line 9): when every vertex starts a
//! flood simultaneously, per-round link traffic spikes (the analogue of
//! phase-overflow); spreading the start times over `ρ` rounds flattens
//! the peak to ~`total/ρ` at the cost of a longer tail — which is
//! exactly why Algorithm 3 can cap per-phase messages at `Θ(log n)` and
//! bound the overflow set.
//!
//! Uses the engine's per-round traffic history on a radius-limited
//! k-token flood over a grid (the shape of Algorithm 3's h-hop restricted
//! BFS), with delay ranges ρ ∈ {1 (no delays), √n, n^{4/5}}.
//!
//! Usage: `traffic_profile [n_side]` (default 24, i.e. a 24×24 grid).
//!
//! # What its run record gates
//!
//! Only the three `rho=…` congestion summaries: each delayed flood's
//! rounds, words, messages, active rounds, peak round load, queue
//! high-water and hot links. The flood is hand-rolled on a raw
//! [`Network`], outside any algorithm span, and simulated cost and
//! allocations are charged to the innermost open span. With none open,
//! the record's round/word/message totals, its span tree and its
//! per-span allocation counts are 0 by construction, so a perf-gate
//! change here can only come from the engine's stepping.

use mwc_bench::plot::{downsample_max, sparkline_scaled};
use mwc_bench::{report, Table};
use mwc_congest::{flood_engagement, Ledger, Network};
use mwc_graph::generators::{grid, WeightRange};
use mwc_graph::{NodeId, Orientation};
use mwc_rng::StdRng;
use std::collections::HashSet;

/// Floods one radius-`h`-limited token per source with per-source start
/// delays; returns the ledger carrying the congestion timeline and
/// per-link totals. Message = (token, hops left).
fn flood_with_delays(g: &mwc_graph::Graph, sources: &[NodeId], delays: &[u64], h: u32) -> Ledger {
    let n = g.n();
    let mut net: Network<(u32, u32)> = Network::new(g);
    net.enable_history();
    let mut seen: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    for (i, &s) in sources.iter().enumerate() {
        seen[s].insert(i as u32);
        net.schedule_wakeup(delays[i].max(1), s);
    }
    let mut started: Vec<bool> = vec![false; sources.len()];
    let mut out = mwc_congest::RoundOutput::default();
    while net.step_bulk_into(&mut out) {
        for v in out.wakeups.drain(..) {
            for (i, &s) in sources.iter().enumerate() {
                if s == v && !started[i] {
                    started[i] = true;
                    for w in g.comm_neighbors(v) {
                        net.send(v, w, (i as u32, h - 1), 1).expect("neighbors");
                    }
                }
            }
        }
        for d in out.deliveries.drain(..) {
            let (token, left) = d.payload;
            if seen[d.to].insert(token) && left > 0 {
                for w in g.comm_neighbors(d.to) {
                    if w != d.from {
                        net.send(d.to, w, (token, left - 1), 1).expect("neighbors");
                    }
                }
            }
        }
    }
    let mut ledger = Ledger::new();
    ledger.absorb("delayed flood", &net);
    ledger
}

/// Count allocator traffic so this bin's run record and optional Chrome
/// trace export carry allocation profile data alongside simulated rounds.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["side"], &[]);
    report::init_profiling();
    let side: usize = report::arg(1, 24);
    let mut rec = report::RunRecorder::start("traffic_profile");
    rec.param("side", side);
    let g = grid(side, side, Orientation::Undirected, WeightRange::unit(), 0);
    let n = g.n();
    let h = 6u32; // restricted-BFS-style radius
    let sources: Vec<NodeId> = (0..n).step_by(5).collect();

    let mut t = Table::new(
        &format!(
            "random-delay scheduling on a radius-{h} flood, {} sources ({side}×{side} grid)",
            sources.len()
        ),
        &[
            "delay range ρ",
            "makespan (rounds)",
            "peak words/round",
            "mean words/round",
            "peak/mean",
            "hottest link",
        ],
    );
    let rho_values = [
        ("1 (none)", 1u64),
        ("√n", (n as f64).sqrt().ceil() as u64),
        ("n^{4/5}", (n as f64).powf(0.8).ceil() as u64),
    ];
    let mut timelines: Vec<(String, Vec<u64>)> = Vec::new();
    for (label, rho) in rho_values {
        let mut rng = StdRng::seed_from_u64(7);
        let delays: Vec<u64> = sources.iter().map(|_| rng.random_range(1..=rho)).collect();
        let ledger = flood_with_delays(&g, &sources, &delays, h);
        rec.congestion(&format!("rho={label}"), &ledger);
        let hist = ledger.words_per_round();
        let makespan = hist.last().map(|&(r, _)| r).unwrap_or(0);
        let peak = hist.iter().map(|&(_, w)| w).max().unwrap_or(0);
        let total: u64 = hist.iter().map(|&(_, w)| w).sum();
        let mean = total as f64 / hist.len().max(1) as f64;
        let hot = ledger
            .hot_links(1)
            .first()
            .map(|((u, v), w)| format!("{u}→{v}: {w}"))
            .unwrap_or_default();
        t.row(vec![
            label.into(),
            makespan.to_string(),
            peak.to_string(),
            format!("{mean:.0}"),
            format!("{:.2}", peak as f64 / mean),
            hot,
        ]);
        // Dense timeline (fill quiet rounds) for the sparkline.
        let mut dense = vec![0u64; makespan as usize + 1];
        for &(r, w) in hist {
            dense[r as usize] = w;
        }
        timelines.push((label.to_string(), dense));
    }
    t.print();
    println!("\ncongestion timelines (words/round, max-pooled, shared time and value axes):");
    let span = timelines.iter().map(|(_, d)| d.len()).max().unwrap_or(1);
    let global_max = timelines
        .iter()
        .flat_map(|(_, d)| d.iter().copied())
        .max()
        .unwrap_or(1);
    for (label, mut dense) in timelines {
        dense.resize(span, 0);
        println!(
            "  ρ = {label:<9} {}",
            sparkline_scaled(&downsample_max(&dense, 64), global_max)
        );
    }
    t.save_tsv("traffic_profile");
    println!(
        "\nrandom delays trade a longer makespan for a flat profile — the property\n\
         that lets Algorithm 3 cap per-phase messages at Θ(log n) and bound |Z|."
    );
    // Kernel-engagement tally for this run (exported as the informational
    // `mwc_info_floods_*` gauges and stamped on the run record): the
    // delayed flood above is hand-rolled on the Network, so a nonzero
    // count here would mean a flood primitive sneaked into the pipeline.
    let (bitset, scalar) = flood_engagement();
    println!("flood-kernel engagement this run: {bitset} bitset / {scalar} scalar");
    rec.finish();
}

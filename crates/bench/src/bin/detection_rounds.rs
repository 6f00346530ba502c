//! **§1.3 corollary** — directed `q`-cycle detection: the paper's Ω̃(n)
//! lower bound holds for every `q ≥ 4` even though the *answer* concerns
//! only constant-size structures. This binary shows both sides
//! empirically with the `O(n + q)` detector:
//!
//! - on the disjointness gadget (the bound's hard family), detection
//!   rounds grow ~linearly in `n` at constant diameter and constant `q`;
//! - on sparse benign graphs, the same detector is far cheaper — the
//!   hardness is a property of the family, not of the problem size alone.
//!
//! Usage: `detection_rounds [max_q_gadget]` (default 48).

use mwc_bench::{fit_exponent, report, Table};
use mwc_core::shortest_cycle_within;
use mwc_graph::generators::{ring_with_chords, WeightRange};
use mwc_graph::Orientation;
use mwc_lowerbounds::{directed_gadget, Disjointness};

/// Count allocator traffic so this bin's run record and optional Chrome
/// trace export carry allocation profile data alongside simulated rounds.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["max_q"], false);
    report::init_profiling();
    let max_q: usize = report::arg(1, 48);
    let mut rec = report::RunRecorder::start("detection_rounds");
    rec.param("max_q", max_q);

    let mut t = Table::new(
        "directed 4-cycle detection on the Thm 1.2.A gadget (hard family)",
        &["q", "n", "D", "detected", "rounds"],
    );
    let (mut ns, mut rs) = (Vec::new(), Vec::new());
    let mut q = 6;
    while q <= max_q {
        let inst = Disjointness::random_intersecting(q * q, 0.35, q as u64);
        let lb = directed_gadget(q, &inst);
        let out = shortest_cycle_within(&lb.graph, 4);
        rec.congestion(&format!("q={q} gadget"), &out.ledger);
        assert_eq!(out.weight, Some(4));
        t.row(vec![
            q.to_string(),
            lb.graph.n().to_string(),
            lb.graph.undirected_diameter().unwrap().to_string(),
            "4-cycle".into(),
            out.ledger.rounds.to_string(),
        ]);
        ns.push(lb.graph.n() as f64);
        rs.push(out.ledger.rounds as f64);
        q *= 2;
    }
    t.print();
    t.save_tsv("detection_gadget");
    if ns.len() >= 2 {
        println!(
            "rounds grow n^{:.2} on the gadget at constant D and q = 4 (paper: Ω̃(n) for any q ≥ 4)\n",
            fit_exponent(&ns, &rs)
        );
    }

    let mut t = Table::new(
        "the same detector on benign sparse graphs (ring + n/8 chords, q = 4)",
        &["n", "D", "detected", "rounds", "rounds/n"],
    );
    let mut n = 128;
    while n <= 2048 {
        let g = ring_with_chords(
            n,
            n / 8,
            Orientation::Directed,
            WeightRange::unit(),
            n as u64,
        );
        let out = shortest_cycle_within(&g, 4);
        let d = g.undirected_diameter().unwrap();
        t.row(vec![
            n.to_string(),
            d.to_string(),
            out.weight
                .map(|w| w.to_string())
                .unwrap_or_else(|| "none".into()),
            out.ledger.rounds.to_string(),
            format!("{:.2}", out.ledger.rounds as f64 / n as f64),
        ]);
        n *= 2;
    }
    t.print();
    t.save_tsv("detection_benign");
    println!(
        "benign instances cost ~D + small, far below n — the gadget's congestion is the hardness."
    );
    rec.finish();
}

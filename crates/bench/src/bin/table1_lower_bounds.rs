//! **T1-DIR-LB / T1-UW-LB** — Table 1 lower-bound rows, empirically: on
//! the set-disjointness gadget families (Theorems 1.2.A, 1.4.A) and the
//! Das Sarma-style α-approximation families (1.2.B, 1.4.B, 1.3.A),
//!
//! - the exact algorithm's MWC output decides disjointness (the reduction
//!   is sound, including under the claimed approximation slack),
//! - its measured rounds grow ~linearly in `n` while the family's
//!   diameter stays constant, and always clear the information-theoretic
//!   floor `k / (2·cut·word_bits)`,
//! - the bits crossing the Alice/Bob cut are reported per instance.
//!
//! Usage: `table1_lower_bounds [max_q]` (default 48; q doubles from 6).

use mwc_bench::{fit_exponent, report, Table};
use mwc_core::{approx_girth, exact_mwc, Params};
use mwc_graph::Orientation;
use mwc_lowerbounds::{
    directed_gadget, sarma_unweighted_girth, sarma_weighted, undirected_weighted_gadget,
    Disjointness, SarmaParams,
};

fn word_bits(n: usize, w: u64) -> u64 {
    (n.max(2) as f64).log2().ceil() as u64 + (w.max(2) as f64).log2().ceil() as u64
}

/// Count allocator traffic so this bin's run record and optional Chrome
/// trace export carry allocation profile data alongside simulated rounds.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["max_q"], &[]);
    report::init_profiling();
    let max_q: usize = report::arg(1, 48);
    let mut rec = report::RunRecorder::start("table1_lower_bounds");
    rec.param("max_q", max_q);

    // ---- directed (2−ε) gadget: Ω(n / log n) ----
    let mut t = Table::new(
        "Thm 1.2.A gadget: directed 4-vs-8 disjointness family (cut = 2q, k = q² bits)",
        &[
            "q",
            "n",
            "D",
            "bits",
            "cut",
            "floor",
            "rounds_yes",
            "rounds_no",
            "decides",
            "cut_bits",
        ],
    );
    let (mut ns, mut rs) = (Vec::new(), Vec::new());
    let mut q = 6;
    while q <= max_q {
        let yes = Disjointness::random_intersecting(q * q, 0.3, q as u64);
        let no = Disjointness::random_disjoint(q * q, 0.3, q as u64);
        let lby = directed_gadget(q, &yes);
        let lbn = directed_gadget(q, &no);
        let oy = exact_mwc(&lby.graph);
        let on = exact_mwc(&lbn.graph);
        rec.congestion(&format!("q={q} directed yes"), &oy.ledger);
        let decides = lby.decide(oy.weight) && !lbn.decide(on.weight);
        assert!(decides, "reduction unsound at q = {q}");
        let wb = word_bits(lby.graph.n(), 1);
        let rep = lby.report(&oy.ledger, wb);
        assert!(rep.rounds >= rep.round_floor, "floor violated at q = {q}");
        t.row(vec![
            q.to_string(),
            lby.graph.n().to_string(),
            lby.graph.undirected_diameter().unwrap().to_string(),
            lby.bits.to_string(),
            rep.cut_edges.to_string(),
            rep.round_floor.to_string(),
            oy.ledger.rounds.to_string(),
            on.ledger.rounds.to_string(),
            "yes".into(),
            rep.cut_bits().to_string(),
        ]);
        ns.push(lby.graph.n() as f64);
        rs.push(oy.ledger.rounds as f64);
        q *= 2;
    }
    t.print();
    t.save_tsv("table1_lb_directed");
    if ns.len() >= 2 {
        println!(
            "exact rounds grow n^{:.2} on the family (paper: any (2−ε)-approx needs Ω(n/log n))\n",
            fit_exponent(&ns, &rs)
        );
    }

    // ---- undirected weighted (2−ε) gadget ----
    let mut t = Table::new(
        "Thm 1.4.A gadget: undirected weighted disjointness family (ε = 0.5)",
        &["q", "n", "bits", "yes_mwc", "no_mwc", "gap", "decides"],
    );
    let mut q = 6;
    while q <= max_q / 2 {
        let yes = Disjointness::random_intersecting(q * q, 0.3, q as u64);
        let no = Disjointness::random_disjoint(q * q, 0.3, q as u64);
        let lby = undirected_weighted_gadget(q, 0.5, &yes);
        let lbn = undirected_weighted_gadget(q, 0.5, &no);
        let oy = exact_mwc(&lby.graph);
        let on = exact_mwc(&lbn.graph);
        let decides = lby.decide(oy.weight) && !lbn.decide(on.weight);
        assert!(decides);
        let gap = on
            .weight
            .map(|w| format!("{:.2}", w as f64 / oy.weight.unwrap() as f64))
            .unwrap_or_else(|| "∞".into());
        t.row(vec![
            q.to_string(),
            lby.graph.n().to_string(),
            lby.bits.to_string(),
            oy.weight.unwrap().to_string(),
            on.weight
                .map(|w| w.to_string())
                .unwrap_or_else(|| "—".into()),
            gap,
            "yes".into(),
        ]);
        q *= 2;
    }
    t.print();
    t.save_tsv("table1_lb_undirected");

    // ---- α-approximation families ----
    let mut t = Table::new(
        "Thms 1.2.B/1.4.B/1.3.A: Das Sarma-style α-approximation families (α = 2)",
        &[
            "family",
            "gamma",
            "ell",
            "n",
            "yes_mwc",
            "no_floor",
            "gap",
            "decided_by",
        ],
    );
    for (gamma, ell) in [(8usize, 8usize), (16, 12), (32, 16)] {
        let p = SarmaParams {
            gamma,
            ell,
            alpha: 2.0,
        };
        let yes = Disjointness::random_intersecting(gamma, 0.4, 3);
        let no = Disjointness::random_disjoint(gamma, 0.4, 3);

        // Weighted undirected, decided by the exact algorithm.
        let lby = sarma_weighted(p, Orientation::Undirected, &yes);
        let lbn = sarma_weighted(p, Orientation::Undirected, &no);
        let oy = exact_mwc(&lby.graph);
        let on = exact_mwc(&lbn.graph);
        assert!(lby.decide(oy.weight) && !lbn.decide(on.weight));
        t.row(vec![
            "weighted-undirected".into(),
            gamma.to_string(),
            ell.to_string(),
            lby.graph.n().to_string(),
            oy.weight.unwrap().to_string(),
            lbn.no_threshold.to_string(),
            format!("{:.1}", lbn.no_threshold as f64 / oy.weight.unwrap() as f64),
            "exact".into(),
        ]);

        // Unweighted girth family, decided by the *approximation*.
        let lby = sarma_unweighted_girth(p, &yes);
        let lbn = sarma_unweighted_girth(p, &no);
        let params = Params::lean().with_seed(5);
        let oy = approx_girth(&lby.graph, &params);
        let on = approx_girth(&lbn.graph, &params);
        assert!(lby.decide(oy.weight) && !lbn.decide(on.weight));
        t.row(vec![
            "unweighted-girth".into(),
            gamma.to_string(),
            ell.to_string(),
            lby.graph.n().to_string(),
            oy.weight.unwrap().to_string(),
            lbn.no_threshold.to_string(),
            format!("{:.1}", lbn.no_threshold as f64 / oy.weight.unwrap() as f64),
            "approx_girth".into(),
        ]);
    }
    t.print();
    t.save_tsv("table1_lb_alpha");
    rec.finish();
}

//! Ablations of Algorithm 2/3's design choices (DESIGN.md calls these
//! out; the paper's §6 raises the round/approximation tradeoff):
//!
//! 1. **Random-delay scheduling** (§3.1, \[24, 36\]): scaling the delay
//!    range `ρ` down concentrates BFS traffic into few phases, so the
//!    per-phase cap trips and the phase-overflow set `Z` grows — the
//!    algorithm stays correct (overflow vertices are re-covered by the
//!    `h`-hop BFS from `Z`) but pays for it.
//! 2. **Long/short threshold `h = n^x`**: smaller `x` means more sampled
//!    vertices (cheaper short-cycle phase, costlier `k`-source BFS and
//!    `|S|²` broadcast), exposing the balance that picks `x = 3/5`.
//! 3. **Sampling multiplier**: fewer samples cut the dominant broadcast
//!    cost; quality stays certified (witnesses) but the w.h.p. guarantee
//!    erodes.
//! 4. **Girth candidate generators** (§4): sampled-BFS part vs
//!    `√n`-neighborhood part vs both, on workloads that favor each —
//!    showing why the paper needs both to reach `(2 − 1/g)`.
//!
//! Usage: `ablation [n]` (default 512, at least 3: below that the
//! workloads hold no cycle).

use mwc_bench::{report, Table};
use mwc_core::{approx_girth_parts, exact_mwc, two_approx_directed_mwc, Params};
use mwc_graph::generators::{connected_gnm, ring_with_chords, WeightRange};
use mwc_graph::Orientation;

fn overflow_count(ledger: &mwc_congest::Ledger) -> String {
    ledger
        .phases
        .iter()
        .find_map(|p| {
            p.label
                .strip_prefix("Alg3: |Z| = ")
                .and_then(|s| s.split(' ').next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "0".into())
}

/// Count allocator traffic so this bin's run record and optional Chrome
/// trace export carry allocation profile data alongside simulated rounds.
#[global_allocator]
static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;

fn main() {
    report::init_cli(&["n>=3"], &[]);
    report::init_profiling();
    let n: usize = report::arg(1, 512);
    let mut rec = report::RunRecorder::start("ablation");
    rec.param("n", n);
    let g = connected_gnm(n, 3 * n, Orientation::Directed, WeightRange::unit(), 2024);
    let opt = exact_mwc(&g).weight.expect("cycle exists");

    // 1. Random delays.
    let mut t = Table::new(
        &format!("ablation 1: random-delay range (n = {n}, paper δ ∈ [1, n^{{4/5}}])"),
        &[
            "delay_factor",
            "rounds",
            "overflow_|Z|",
            "reported",
            "quality_ok",
        ],
    );
    for df in [1.0, 0.25, 0.05, 0.0] {
        let params = Params::lean().with_seed(1).with_delay_factor(df);
        let out = two_approx_directed_mwc(&g, &params);
        rec.congestion(&format!("delay_factor={df:.2}"), &out.ledger);
        let rep = out.weight.expect("finds a cycle");
        t.row(vec![
            format!("{df:.2}"),
            out.ledger.rounds.to_string(),
            overflow_count(&out.ledger),
            rep.to_string(),
            (rep >= opt && rep <= 2 * opt).to_string(),
        ]);
    }
    t.print();
    t.save_tsv("ablation_delays");
    println!();

    // 2. The h = n^x threshold.
    let mut t = Table::new(
        &format!("ablation 2: long/short threshold h = n^x (n = {n}, paper x = 0.6)"),
        &["x", "rounds", "reported", "quality_ok"],
    );
    for x in [0.4, 0.5, 0.6, 0.7, 0.8] {
        let params = Params::lean().with_seed(1).with_directed_h_exponent(x);
        let out = two_approx_directed_mwc(&g, &params);
        let rep = out.weight.expect("finds a cycle");
        t.row(vec![
            format!("{x:.1}"),
            out.ledger.rounds.to_string(),
            rep.to_string(),
            (rep >= opt && rep <= 2 * opt).to_string(),
        ]);
    }
    t.print();
    t.save_tsv("ablation_h_exponent");
    println!();

    // 3. Sampling multiplier.
    let mut t = Table::new(
        &format!("ablation 3: sampling multiplier c in p = c·ln n/h (n = {n})"),
        &["c", "rounds", "reported", "quality_ok"],
    );
    for c in [2.0, 1.0, 0.5, 0.25] {
        let params = Params::lean().with_seed(1).with_sampling_factor(c);
        let out = two_approx_directed_mwc(&g, &params);
        let rep = out.weight.expect("finds a cycle");
        t.row(vec![
            format!("{c:.2}"),
            out.ledger.rounds.to_string(),
            rep.to_string(),
            (rep >= opt && rep <= 2 * opt).to_string(),
        ]);
    }
    t.print();
    t.save_tsv("ablation_sampling");
    println!();

    // 4. Girth candidate generators.
    let mut t = Table::new(
        &format!("ablation 4: girth candidate generators (n = {n})"),
        &["workload", "generators", "rounds", "reported", "true_girth"],
    );
    let p = Params::lean().with_seed(7);
    // Workload A: one giant cycle (escapes all neighborhoods).
    let ga = ring_with_chords(n, 0, Orientation::Undirected, WeightRange::unit(), 1);
    // Workload B: triangle-rich random graph (cycles inside neighborhoods).
    let gb = connected_gnm(n, 3 * n, Orientation::Undirected, WeightRange::unit(), 2);
    for (wname, g) in [("giant-ring", &ga), ("gnm-dense", &gb)] {
        let girth = exact_mwc(g).weight.expect("cycle exists");
        for (gen_name, sampled, nbhd) in [
            ("sampled-only", true, false),
            ("neighborhood-only", false, true),
            ("both", true, true),
        ] {
            let out = approx_girth_parts(g, &p, sampled, nbhd);
            t.row(vec![
                wname.into(),
                gen_name.into(),
                out.ledger.rounds.to_string(),
                out.weight
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "—".into()),
                girth.to_string(),
            ]);
        }
    }
    t.print();
    t.save_tsv("ablation_girth_parts");
    rec.finish();
}

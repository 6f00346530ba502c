//! Pins every entry point that runs a neighbor exchange.
//!
//! An exchange's only simulated cost is the words on the links; how the
//! host hands each receiver its neighbors' values is simulator plumbing.
//! These pins hold that plumbing to the ledger: for every case the answer
//! *and* its full simulated cost — weight, witness vertices, rounds,
//! words, messages, and every phase's `(label, rounds, words)` — must
//! equal the recorded values. Phases are pinned as a count plus an
//! FNV-1a digest of their `(label, rounds, words)` triples; a mismatch
//! prints every differing row in full so the table can be re-read.

mod common;

use common::phase_digest;
use mwc_congest::Ledger;
use mwc_core::{
    approx_girth, approx_girth_parts, approx_mwc_directed_weighted, approx_mwc_undirected_weighted,
    exact_girth, exact_mwc, fundamental_cycle_basis, two_approx_directed_mwc, MwcOutcome, Params,
};
use mwc_graph::generators::{connected_gnm, grid, ring_with_chords, WeightRange};
use mwc_graph::{Graph, NodeId, Orientation, Weight};

/// `(name, weight, witness vertices, rounds, words, messages, phase
/// count, phase digest)`.
type Pin = (
    &'static str,
    Option<Weight>,
    Option<&'static [NodeId]>,
    u64,
    u64,
    u64,
    usize,
    u64,
);

/// What one case produced, in [`Pin`]'s field order.
struct Got {
    name: String,
    weight: Option<Weight>,
    witness: Option<Vec<NodeId>>,
    rounds: u64,
    words: u64,
    messages: u64,
    phases: usize,
    digest: u64,
}

fn got(name: String, weight: Option<Weight>, witness: Option<Vec<NodeId>>, l: &Ledger) -> Got {
    Got {
        name,
        weight,
        witness,
        rounds: l.rounds,
        words: l.words,
        messages: l.messages,
        phases: l.phases.len(),
        digest: phase_digest(l),
    }
}

fn outcome(name: String, out: &MwcOutcome) -> Got {
    let witness = out.witness.as_ref().map(|w| w.vertices().to_vec());
    got(name, out.weight, witness, &out.ledger)
}

fn unit_gnm(n: usize, extra: usize, seed: u64) -> Graph {
    connected_gnm(n, extra, Orientation::Undirected, WeightRange::unit(), seed)
}

/// Runs every pinned case, in [`PINS`] order.
fn run_cases() -> Vec<Got> {
    let mut rows = Vec::new();
    let p = |seed| Params::new().with_seed(seed);

    // Theorem 1.3.B on the benchmark's girth-unit shape and smaller
    // sparse, grid and long-ring graphs.
    for gs in 1..=2 {
        let g = unit_gnm(1024, 1024, gs);
        for ps in 1..=2 {
            rows.push(outcome(
                format!("girth gnm1024 g{gs} p{ps}"),
                &approx_girth(&g, &p(ps)),
            ));
        }
    }
    for s in 0..3 {
        let g = unit_gnm(300, 150, s);
        rows.push(outcome(
            format!("girth gnm300 s{s}"),
            &approx_girth(&g, &p(s + 10)),
        ));
    }
    for s in 0..2 {
        let g = grid(12, 12, Orientation::Undirected, WeightRange::unit(), s);
        rows.push(outcome(
            format!("girth grid12 s{s}"),
            &approx_girth(&g, &p(s)),
        ));
    }
    for s in 0..3 {
        let g = ring_with_chords(200, 20, Orientation::Undirected, WeightRange::unit(), s);
        rows.push(outcome(
            format!("girth ring200 s{s}"),
            &approx_girth(&g, &p(s + 3)),
        ));
    }

    // Each candidate generator alone.
    for s in 0..2 {
        let g = unit_gnm(300, 150, s);
        let sampled = approx_girth_parts(&g, &p(s), true, false);
        rows.push(outcome(format!("parts sampled gnm300 s{s}"), &sampled));
        let nbhd = approx_girth_parts(&g, &p(s), false, true);
        rows.push(outcome(format!("parts nbhd gnm300 s{s}"), &nbhd));
    }
    // Sparse long-girth rings, where the neighborhood part's cycles are
    // longer than a triangle and its "one vertex outside" scan matters.
    for s in 0..4 {
        let g = ring_with_chords(120, 12, Orientation::Undirected, WeightRange::unit(), s);
        let nbhd = approx_girth_parts(&g, &p(s), false, true);
        rows.push(outcome(format!("parts nbhd ring120 s{s}"), &nbhd));
    }

    // Algorithm 2/3 (the line-11 exchange), unweighted and weighted.
    for (n, s) in [(120, 0), (120, 1), (256, 2)] {
        let g = connected_gnm(n, 2 * n, Orientation::Directed, WeightRange::unit(), s);
        let out = two_approx_directed_mwc(&g, &p(s + 1));
        rows.push(outcome(format!("directed 2apx n{n} s{s}"), &out));
    }
    for (n, s) in [(120, 1), (256, 2)] {
        let w = WeightRange::uniform(1, 64);
        let g = connected_gnm(n, n, Orientation::Directed, w, s);
        let out = approx_mwc_directed_weighted(&g, &p(s).with_epsilon(0.25));
        rows.push(outcome(format!("directed weighted n{n} s{s}"), &out));
    }

    // §5.1's long-cycle estimate exchange.
    for s in 0..2 {
        let w = WeightRange::uniform(1, 20);
        let g = connected_gnm(200, 300, Orientation::Undirected, w, s);
        let out = approx_mwc_undirected_weighted(&g, &p(s + 5));
        rows.push(outcome(format!("undirected weighted n200 s{s}"), &out));
    }

    // The exact baselines' undirected column scan.
    let g = unit_gnm(120, 120, 4);
    rows.push(outcome("exact girth gnm120".into(), &exact_girth(&g)));
    let g = grid(8, 8, Orientation::Undirected, WeightRange::unit(), 0);
    rows.push(outcome("exact girth grid8".into(), &exact_girth(&g)));
    let g = connected_gnm(
        100,
        150,
        Orientation::Undirected,
        WeightRange::uniform(1, 9),
        6,
    );
    rows.push(outcome("exact mwc undirected n100".into(), &exact_mwc(&g)));

    // The cycle basis' depth exchange (its ledger; basis size as weight).
    let g = unit_gnm(200, 200, 7);
    let basis = fundamental_cycle_basis(&g);
    let dim = Some(basis.dimension() as Weight);
    rows.push(got("cycle basis gnm200".into(), dim, None, &basis.ledger));
    rows
}

/// Recorded outputs, one row per case in `run_cases()` order.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("girth gnm1024 g1 p1", Some(3), Some(&[712, 410, 22]), 1458, 5862671, 1965183, 7, 0xb059faca1b55393c),
    ("girth gnm1024 g1 p2", Some(3), Some(&[982, 810, 452]), 1527, 6145175, 2059363, 7, 0xdc56abb3ae080a77),
    ("girth gnm1024 g2 p1", Some(3), Some(&[48, 67, 508]), 1459, 5862659, 1965171, 7, 0x42618173e57c3fef),
    ("girth gnm1024 g2 p2", Some(3), Some(&[940, 220, 388]), 1527, 6145128, 2059316, 7, 0xe5746dc110501180),
    ("girth gnm300 s0", Some(3), Some(&[14, 60, 295]), 654, 558770, 188794, 7, 0xd6047a80d32860a7),
    ("girth gnm300 s1", Some(3), Some(&[293, 48, 271]), 672, 577641, 195093, 7, 0xa7b0eb1a8ee1b910),
    ("girth gnm300 s2", Some(3), Some(&[252, 256, 229]), 684, 585786, 197850, 7, 0xf8929d9cb4a8d385),
    ("girth grid12 s0", Some(4), Some(&[13, 12, 0, 1]), 476, 214390, 72886, 7, 0x84fb065c35d5dca6),
    ("girth grid12 s1", Some(4), Some(&[13, 1, 0, 12]), 467, 209638, 71302, 7, 0x5b216a483289f4e1),
    ("girth ring200 s0", Some(6), Some(&[99, 59, 60, 61, 62, 98]), 521, 197778, 67538, 7, 0x8d8dd982604b2f3e),
    ("girth ring200 s1", Some(4), Some(&[12, 9, 10, 11]), 571, 217487, 74047, 7, 0x331c6beaaa6ff902),
    ("girth ring200 s2", Some(9), Some(&[72, 71, 149, 36, 37, 38, 39, 74, 73]), 518, 199030, 67910, 7, 0x83bb72adf1adac68),
    ("parts sampled gnm300 s0", Some(3), Some(&[14, 60, 295]), 567, 483313, 162727, 5, 0xa77bfd57c503f77e),
    ("parts nbhd gnm300 s0", Some(3), Some(&[14, 60, 295]), 83, 49539, 18109, 5, 0x433955158916b62b),
    ("parts sampled gnm300 s1", Some(3), Some(&[293, 48, 271]), 625, 537215, 180709, 5, 0xe540e3539baf1dfe),
    ("parts nbhd gnm300 s1", Some(3), Some(&[293, 48, 271]), 80, 49541, 18111, 5, 0x17c76b51c9c2e73e),
    ("parts nbhd ring120 s0", Some(4), Some(&[59, 35, 36, 37]), 80, 9084, 3540, 5, 0x2c9f094efb04cb0e),
    ("parts nbhd ring120 s1", Some(3), Some(&[7, 5, 6]), 106, 9084, 3540, 5, 0xb50767a70155713c),
    ("parts nbhd ring120 s2", Some(7), Some(&[80, 81, 82, 83, 84, 85, 86]), 87, 9082, 3538, 5, 0x386885e3a8cbd7cb),
    ("parts nbhd ring120 s3", Some(4), Some(&[50, 47, 48, 49]), 109, 9082, 3538, 5, 0x6e7874ec4b0d3bb5),
    ("directed 2apx n120 s0", Some(2), Some(&[7, 90]), 12539, 1061461, 964279, 25, 0xfffbab6557419e11),
    ("directed 2apx n120 s1", Some(2), Some(&[1, 90]), 12776, 1193955, 1097155, 25, 0x6fd469cbb8346495),
    ("directed 2apx n256 s2", Some(2), Some(&[14, 21]), 34351, 6252591, 5912329, 25, 0xa9920f3705c2f73b),
    ("directed weighted n120 s1", Some(88), Some(&[105, 103, 114, 98]), 38366, 2694062, 1994194, 137, 0xec31623c96c6e98c),
    ("directed weighted n256 s2", Some(70), Some(&[57, 218]), 83405, 11674693, 9296501, 137, 0xb8f7535cbe2b91ba),
    ("undirected weighted n200 s0", Some(14), Some(&[50, 51, 44]), 15312, 5212747, 2175833, 57, 0xe04d13a4c1a1b61c),
    ("undirected weighted n200 s1", Some(14), Some(&[165, 34, 61, 191]), 14686, 5279790, 2191978, 59, 0x231853d2894e7aaf),
    ("exact girth gnm120", Some(3), Some(&[91, 41, 67]), 376, 172557, 58315, 5, 0xf93da85c7dd079a9),
    ("exact girth grid8", Some(4), Some(&[9, 8, 0, 1]), 237, 43246, 14798, 5, 0x4c8b2240feba9b3a),
    ("exact mwc undirected n100", Some(7), Some(&[80, 95, 88, 74]), 332, 150224, 51122, 5, 0x12489b7c2a3764bf),
    ("cycle basis gnm200", Some(200), None, 8, 1197, 1197, 2, 0xdd19c7411b5828fb),
];

fn render(g: &Got) -> String {
    let witness = match &g.witness {
        Some(w) => format!("Some(&{w:?})"),
        None => "None".to_owned(),
    };
    format!(
        "    ({:?}, {:?}, {witness}, {}, {}, {}, {}, {:#018x}),",
        g.name, g.weight, g.rounds, g.words, g.messages, g.phases, g.digest
    )
}

#[test]
fn exchange_entry_points_match_pins() {
    let rows = run_cases();
    let mut bad = Vec::new();
    for (i, g) in rows.iter().enumerate() {
        let want = PINS.get(i).copied();
        let have = (
            g.name.as_str(),
            g.weight,
            g.witness.as_deref(),
            g.rounds,
            g.words,
            g.messages,
            g.phases,
            g.digest,
        );
        if want != Some(have) {
            bad.push(render(g));
        }
    }
    assert!(
        bad.is_empty() && rows.len() == PINS.len(),
        "{} of {} rows differ from the pins ({} pinned); actual rows:\n{}",
        bad.len(),
        rows.len(),
        PINS.len(),
        bad.join("\n")
    );
}

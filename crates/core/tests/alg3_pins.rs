//! Pins Algorithm 3's phase-overflow path.
//!
//! With the paper's `Θ(log n)` per-phase cap the restricted BFS rarely
//! overflows at test sizes, so these cases shrink the cap
//! (`Params::with_phase_cap_factor`) until every run puts vertices into
//! the overflow set `Z`, in unweighted mode (Theorem 1.2.C) and in the
//! stretched mode behind every weight scale of Theorem 1.2.D. For each
//! case the answer and its full simulated cost — weight, witness,
//! rounds, words, messages, the phase digest — and every Algorithm 3
//! run's `|Z|` must equal the recorded values, so a rewrite of the
//! per-edge receive counters or the phase schedule cannot move a
//! single overflow decision. Two smaller runs also pin their whole
//! message-event log, which fixes each phase's send order.

mod common;

use common::phase_digest;
use mwc_congest::EventCapture;
use mwc_core::{approx_mwc_directed_weighted, two_approx_directed_mwc, MwcOutcome, Params};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::{Graph, NodeId, Orientation, Weight};

/// `(name, weight, witness vertices, rounds, words, messages, phase
/// count, phase digest, |Z| of every Algorithm 3 run)`.
type Pin = (
    &'static str,
    Option<Weight>,
    Option<&'static [NodeId]>,
    u64,
    u64,
    u64,
    usize,
    u64,
    &'static [usize],
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
    z: Vec<usize>,
}

/// The `|Z|` each Algorithm 3 run recorded in its zero-cost info phase.
fn overflow_sizes(out: &MwcOutcome) -> Vec<usize> {
    out.ledger
        .phases
        .iter()
        .filter_map(|p| p.label.strip_prefix("Alg3: |Z| = "))
        .map(|rest| {
            let count = rest.split(' ').next().expect("label has a count");
            count.parse().expect("|Z| is a number")
        })
        .collect()
}

fn got(name: String, out: &MwcOutcome) -> Got {
    let l = &out.ledger;
    Got {
        name,
        weight: out.weight,
        witness: out.witness.as_ref().map(|w| w.vertices().to_vec()),
        rounds: l.rounds,
        words: l.words,
        messages: l.messages,
        phases: l.phases.len(),
        digest: phase_digest(l),
        z: overflow_sizes(out),
    }
}

/// `(cap factor, seed)`: each case runs its graph and its parameters on
/// the same seed. The factors sit far below the paper's default of 2, so
/// the cap is one or two messages per edge per phase.
const CASES: [(f64, u64); 4] = [(0.1, 1), (0.2, 2), (0.3, 3), (0.15, 4)];

/// Runs every pinned case, in [`PINS`] order.
fn run_cases() -> Vec<Got> {
    let mut rows = Vec::new();
    for (cap, s) in CASES {
        let g = connected_gnm(120, 240, Orientation::Directed, WeightRange::unit(), s);
        let p = Params::new().with_seed(s).with_phase_cap_factor(cap);
        let out = two_approx_directed_mwc(&g, &p);
        out.assert_valid(&g);
        rows.push(got(format!("2apx n120 cap{cap} s{s}"), &out));
    }
    for (cap, s) in CASES {
        let w = WeightRange::uniform(1, 16);
        let g = connected_gnm(200, 400, Orientation::Directed, w, s);
        let p = Params::new()
            .with_seed(s)
            .with_epsilon(0.25)
            .with_phase_cap_factor(cap);
        let out = approx_mwc_directed_weighted(&g, &p);
        out.assert_valid(&g);
        rows.push(got(format!("weighted n200 cap{cap} s{s}"), &out));
    }
    rows
}

/// Recorded outputs, one row per case in `run_cases()` order.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("2apx n120 cap0.1 s1", Some(2), Some(&[1, 90]), 10966, 1011526, 914608, 26, 0xa749e6e26a8e8f09, &[23]),
    ("2apx n120 cap0.2 s2", Some(2), Some(&[4, 76]), 12498, 1218012, 1122818, 26, 0x6492a7ed17428ff5, &[16]),
    ("2apx n120 cap0.3 s3", Some(2), Some(&[59, 111]), 14819, 1337590, 1237196, 26, 0x9361947fcb504a7a, &[1]),
    ("2apx n120 cap0.15 s4", Some(2), Some(&[11, 61]), 9132, 958000, 864236, 26, 0x6615c048ee274f0b, &[19]),
    ("weighted n200 cap0.1 s1", Some(12), Some(&[183, 25, 19]), 54355, 8017466, 6448452, 118, 0x07b6faa41e495793, &[1, 2, 4, 19, 15, 24, 17, 31, 27]),
    ("weighted n200 cap0.2 s2", Some(10), Some(&[141, 159]), 93363, 11127026, 9257264, 111, 0xbf4f7d2965282074, &[0, 0, 0, 0, 0, 0, 1, 1, 0]),
    ("weighted n200 cap0.3 s3", Some(7), Some(&[151, 9]), 89495, 11120340, 9191998, 110, 0x756d62130898992c, &[0, 0, 0, 0, 0, 0, 0, 0, 1]),
    ("weighted n200 cap0.15 s4", Some(16), Some(&[67, 23]), 72385, 10767062, 8856788, 112, 0x892a4e3480f04b06, &[1, 1, 2, 11, 10, 13, 19, 19, 18]),
];

fn render(g: &Got) -> String {
    let witness = match &g.witness {
        Some(w) => format!("Some(&{w:?})"),
        None => "None".to_owned(),
    };
    format!(
        "    ({:?}, {:?}, {witness}, {}, {}, {}, {}, {:#018x}, &{:?}),",
        g.name, g.weight, g.rounds, g.words, g.messages, g.phases, g.digest, g.z
    )
}

#[test]
fn phase_overflow_runs_match_pins() {
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
            g.z.as_slice(),
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

#[test]
fn every_case_exercises_the_overflow_path() {
    let zs = PINS.iter().map(|row| (row.0, row.8));
    for (name, z) in zs.chain(LOG_PINS.iter().map(|row| (row.0, row.1))) {
        assert!(
            z.iter().any(|&z| z > 0),
            "{name}: no Algorithm 3 run overflowed, so the case pins nothing"
        );
    }
}

/// `(name, |Z| of every Algorithm 3 run, event-log lines, FNV-1a digest
/// of the lines)`.
type LogPin = (&'static str, &'static [usize], usize, u64);

/// Recorded event logs of two small overflowing runs, in
/// `small_overflow_runs()` order.
#[rustfmt::skip]
const LOG_PINS: &[LogPin] = &[
    ("2apx n48 cap0.1 s5", &[8], 154905, 0xfee58084fc39a535),
    ("weighted n48 cap0.1 s6", &[0, 0, 1, 4, 5, 6, 8, 7], 476601, 0x20e1c6f64cfd9e43),
];

/// Two small runs whose every message event is cheap to keep in memory.
fn small_overflow_runs() -> Vec<(&'static str, Graph, Params, bool)> {
    let unit = WeightRange::unit();
    let w = WeightRange::uniform(1, 16);
    vec![
        (
            "2apx n48 cap0.1 s5",
            connected_gnm(48, 96, Orientation::Directed, unit, 5),
            Params::new().with_seed(5).with_phase_cap_factor(0.1),
            false,
        ),
        (
            "weighted n48 cap0.1 s6",
            connected_gnm(48, 96, Orientation::Directed, w, 6),
            Params::new().with_seed(6).with_phase_cap_factor(0.1),
            true,
        ),
    ]
}

/// The totals above are blind to the order in which a phase sends its
/// messages; the message-event log is not (each phase delivers in send
/// order), so a line count and digest of the whole log pin that order.
#[test]
fn overflow_event_logs_match_pins() {
    let mut bad = Vec::new();
    let runs = small_overflow_runs();
    for (i, (name, g, p, weighted)) in runs.iter().enumerate() {
        let cap = EventCapture::memory();
        let out = if *weighted {
            approx_mwc_directed_weighted(g, p)
        } else {
            two_approx_directed_mwc(g, p)
        };
        let lines = cap.finish();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in &lines {
            for b in line.bytes().chain([b'\n']) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        let z = overflow_sizes(&out);
        if LOG_PINS.get(i) != Some(&(*name, z.as_slice(), lines.len(), h)) {
            bad.push(format!(
                "    ({name:?}, &{z:?}, {}, {h:#018x}),",
                lines.len()
            ));
        }
    }
    assert!(
        bad.is_empty() && LOG_PINS.len() == runs.len(),
        "event logs differ from the pins; actual rows:\n{}",
        bad.join("\n")
    );
}

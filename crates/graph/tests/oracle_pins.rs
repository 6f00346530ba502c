//! Pins the full answer of the three exact oracles.
//!
//! Every distributed result is checked against `seq`, so a rewrite of an
//! oracle must not move its answer at all: not the weight, and not which
//! of several equally light cycles it returns. Each case below pins the
//! weight and the witness vertex sequence, and must hold for every worker
//! count (`mwc_par::set_jobs` 1, 2 and 4), since the Dijkstra oracles
//! prune against a bound shared between workers.
//!
//! The cases cover the benchmark's graph shapes (unit `connected_gnm` at
//! n = 1024 and 512, directed n = 256 with weights in [1, 64]), tie-heavy
//! weights in [1, 3], zero weights in [0, 2], long-girth rings and grids.

use mwc_graph::generators::{connected_gnm, grid, ring_with_chords, WeightRange};
use mwc_graph::seq::{girth_exact, mwc_directed_exact, mwc_undirected_exact, Mwc};
use mwc_graph::Orientation::{Directed, Undirected};
use mwc_graph::{Graph, NodeId, Weight};

/// `(weight, witness vertices)`, or `None` for an acyclic graph.
type Pin = Option<(Weight, &'static [NodeId])>;

type Oracle = fn(&Graph) -> Option<Mwc>;

/// `(name, graph, oracle)` for every pinned case, in `PINS` order.
fn cases() -> Vec<(&'static str, Graph, Oracle)> {
    let unit = WeightRange::unit();
    let ties = WeightRange::uniform(1, 3);
    let zeros = WeightRange::uniform(0, 2);
    let wide = WeightRange::uniform(1, 64);
    vec![
        (
            "girth gnm-1024 s1",
            connected_gnm(1024, 1024, Undirected, unit, 1),
            girth_exact,
        ),
        (
            "girth gnm-1024 s2",
            connected_gnm(1024, 1024, Undirected, unit, 2),
            girth_exact,
        ),
        (
            "girth gnm-512 s1",
            connected_gnm(512, 512, Undirected, unit, 1),
            girth_exact,
        ),
        (
            "girth gnm-512 s2",
            connected_gnm(512, 512, Undirected, unit, 2),
            girth_exact,
        ),
        (
            "undirected gnm-512 unit",
            connected_gnm(512, 512, Undirected, unit, 3),
            mwc_undirected_exact,
        ),
        (
            "directed gnm-256 [1,64] s1",
            connected_gnm(256, 256, Directed, wide, 1),
            mwc_directed_exact,
        ),
        (
            "directed gnm-256 [1,64] s2",
            connected_gnm(256, 256, Directed, wide, 2),
            mwc_directed_exact,
        ),
        (
            "directed gnm-256 unit",
            connected_gnm(256, 256, Directed, unit, 3),
            mwc_directed_exact,
        ),
        (
            "undirected gnm-200 [1,3]",
            connected_gnm(200, 200, Undirected, ties, 4),
            mwc_undirected_exact,
        ),
        (
            "directed gnm-200 [1,3]",
            connected_gnm(200, 200, Directed, ties, 5),
            mwc_directed_exact,
        ),
        (
            "undirected gnm-200 [0,2]",
            connected_gnm(200, 200, Undirected, zeros, 6),
            mwc_undirected_exact,
        ),
        (
            "directed gnm-200 [0,2]",
            connected_gnm(200, 200, Directed, zeros, 7),
            mwc_directed_exact,
        ),
        (
            "undirected gnm-120 dense [1,3]",
            connected_gnm(120, 1200, Undirected, ties, 8),
            mwc_undirected_exact,
        ),
        (
            "girth ring-60",
            ring_with_chords(60, 0, Undirected, unit, 0),
            girth_exact,
        ),
        (
            "undirected ring-60",
            ring_with_chords(60, 0, Undirected, unit, 0),
            mwc_undirected_exact,
        ),
        (
            "directed ring-60",
            ring_with_chords(60, 0, Directed, ties, 9),
            mwc_directed_exact,
        ),
        (
            "girth ring-400 +3 chords",
            ring_with_chords(400, 3, Undirected, unit, 10),
            girth_exact,
        ),
        (
            "undirected ring-400 +3 chords [1,3]",
            ring_with_chords(400, 3, Undirected, ties, 11),
            mwc_undirected_exact,
        ),
        (
            "girth grid-12x12",
            grid(12, 12, Undirected, unit, 0),
            girth_exact,
        ),
        (
            "undirected grid-12x12 [1,3]",
            grid(12, 12, Undirected, ties, 12),
            mwc_undirected_exact,
        ),
        (
            "directed grid-12x12 [1,3]",
            grid(12, 12, Directed, ties, 13),
            mwc_directed_exact,
        ),
        (
            "girth tree",
            connected_gnm(64, 0, Undirected, unit, 14),
            girth_exact,
        ),
        (
            "directed dag",
            Graph::from_edges(3, Directed, [(0, 1, 1), (1, 2, 1)]).unwrap(),
            mwc_directed_exact,
        ),
    ]
}

/// Recorded from unpruned oracles (full searches from every source and
/// edge); pruning must reproduce them exactly.
const PINS: &[Pin] = &[
    // girth gnm-1024 s1
    Some((3, &[931, 671, 132])),
    // girth gnm-1024 s2
    Some((3, &[129, 734, 714])),
    // girth gnm-512 s1
    Some((3, &[0, 411, 322])),
    // girth gnm-512 s2
    Some((3, &[3, 82, 423])),
    // undirected gnm-512 unit
    Some((3, &[113, 24, 386])),
    // directed gnm-256 [1,64] s1
    Some((109, &[31, 97, 134, 248, 205, 106, 141])),
    // directed gnm-256 [1,64] s2
    Some((70, &[57, 218])),
    // directed gnm-256 unit
    Some((2, &[5, 151])),
    // undirected gnm-200 [1,3]
    Some((5, &[135, 141, 61])),
    // directed gnm-200 [1,3]
    Some((4, &[90, 177])),
    // undirected gnm-200 [0,2]
    Some((0, &[20, 180, 93, 28, 49, 69, 159, 140, 33, 96])),
    // directed gnm-200 [0,2]
    Some((1, &[4, 34, 98, 68])),
    // undirected gnm-120 dense [1,3]
    Some((3, &[36, 98, 22])),
    // girth ring-60
    Some((
        60,
        &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45,
            46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59,
        ],
    )),
    // undirected ring-60
    Some((
        60,
        &[
            0, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47, 46, 45, 44, 43, 42, 41, 40, 39,
            38, 37, 36, 35, 34, 33, 32, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17,
            16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1,
        ],
    )),
    // directed ring-60
    Some((
        114,
        &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45,
            46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59,
        ],
    )),
    // girth ring-400 +3 chords
    Some((
        23,
        &[
            27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48,
            49,
        ],
    )),
    // undirected ring-400 +3 chords [1,3]
    Some((
        64,
        &[
            30, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47, 46, 45, 44, 43, 42, 41, 40,
            39, 38, 37, 36, 35, 34, 33, 32, 31,
        ],
    )),
    // girth grid-12x12
    Some((4, &[0, 12, 13, 1])),
    // undirected grid-12x12 [1,3]
    Some((5, &[25, 37, 38, 26])),
    // directed grid-12x12 [1,3]
    Some((5, &[44, 56, 57, 45])),
    // girth tree
    None,
    // directed dag
    None,
];

fn observed(m: &Option<Mwc>) -> Option<(Weight, Vec<NodeId>)> {
    m.as_ref()
        .map(|m| (m.weight, m.witness.vertices().to_vec()))
}

#[test]
fn oracle_answers_are_pinned_for_any_worker_count() {
    let cases = cases();
    assert_eq!(cases.len(), PINS.len(), "one pin per case");
    for jobs in [1, 2, 4] {
        mwc_par::set_jobs(jobs);
        for ((name, g, oracle), pin) in cases.iter().zip(PINS) {
            let got = oracle(g);
            let want = pin.map(|(w, vs)| (w, vs.to_vec()));
            assert_eq!(observed(&got), want, "{name}, jobs={jobs}");
            if let Some(m) = &got {
                assert_eq!(
                    m.witness.validate(g),
                    Ok(m.weight),
                    "{name}: witness weight"
                );
            }
        }
    }
    mwc_par::set_jobs(1);
}

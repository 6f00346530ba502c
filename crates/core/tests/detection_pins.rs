//! Pins the undirected branch of `shortest_cycle_within` at real sizes.
//!
//! For every case the answer *and* its full simulated cost — weight,
//! witness vertices, rounds, words, messages — must equal the recorded
//! values, so a host-side rewrite of the candidate scan or the
//! detected-entry exchange cannot move a single ledger field or pick a
//! different (equally short) witness. Independently of the pins, every
//! answer must equal the sequential girth truncated at `q`.

use mwc_core::detection::shortest_cycle_within;
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::{seq, Graph, NodeId, Orientation, Weight};

/// `(weight, witness vertices, rounds, words, messages)`.
type Pin = (Option<Weight>, Option<&'static [NodeId]>, u64, u64, u64);

/// One pinned graph: `connected_gnm(n, extra, Undirected, weights, seed)`.
struct Case {
    name: &'static str,
    n: usize,
    extra: usize,
    weights: WeightRange,
    seed: u64,
}

const QS: [u64; 3] = [3, 5, 8];

fn cases() -> Vec<Case> {
    let unit = WeightRange::unit();
    vec![
        Case {
            name: "gnm-128",
            n: 128,
            extra: 128,
            weights: unit,
            seed: 1,
        },
        Case {
            name: "gnm-128-sparse",
            n: 128,
            extra: 8,
            weights: unit,
            seed: 1,
        },
        Case {
            name: "gnm-512",
            n: 512,
            extra: 512,
            weights: unit,
            seed: 2,
        },
        Case {
            name: "gnm-512-sparse",
            n: 512,
            extra: 16,
            weights: unit,
            seed: 1,
        },
        // Weights are ignored: the detector counts hops.
        Case {
            name: "weighted-160",
            n: 160,
            extra: 20,
            weights: WeightRange::uniform(1, 9),
            seed: 3,
        },
        Case {
            name: "dense-300",
            n: 300,
            extra: 3000,
            weights: unit,
            seed: 9,
        },
    ]
}

fn build(c: &Case) -> Graph {
    connected_gnm(c.n, c.extra, Orientation::Undirected, c.weights, c.seed)
}

/// Recorded outputs, one row per `(case, q)` in `cases()` × `QS` order.
#[rustfmt::skip]
const PINS: &[(&str, u64, Pin)] = &[
    ("gnm-128", 3, (Some(3), Some(&[24, 40, 15]), 146, 27115, 4025)),
    ("gnm-128", 5, (Some(3), Some(&[24, 40, 15]), 381, 146624, 34242)),
    ("gnm-128", 8, (Some(3), Some(&[24, 40, 15]), 403, 196330, 66280)),
    ("gnm-128-sparse", 3, (None, None, 109, 7083, 1761)),
    ("gnm-128-sparse", 5, (None, None, 278, 27141, 6511)),
    ("gnm-128-sparse", 8, (Some(6), Some(&[112, 48, 40, 15, 105, 99]), 406, 77484, 22936)),
    ("gnm-512", 3, (Some(3), Some(&[87, 471, 418]), 144, 112095, 16049)),
    ("gnm-512", 5, (Some(3), Some(&[87, 471, 418]), 1016, 1148993, 178657)),
    ("gnm-512", 8, (Some(3), Some(&[87, 471, 418]), 1558, 3113932, 1025002)),
    ("gnm-512-sparse", 3, (None, None, 168, 28309, 6923)),
    ("gnm-512-sparse", 5, (None, None, 705, 133825, 28137)),
    ("gnm-512-sparse", 8, (Some(7), Some(&[125, 375, 100, 157, 393, 313, 176]), 1486, 686341, 173979)),
    ("weighted-160", 3, (None, None, 103, 9269, 2309)),
    ("weighted-160", 5, (Some(4), Some(&[80, 114, 108, 128]), 288, 35985, 8533)),
    ("weighted-160", 8, (Some(4), Some(&[80, 114, 108, 128]), 487, 109048, 31348)),
    ("dense-300", 3, (Some(3), Some(&[42, 150, 248]), 623, 3442317, 168617)),
    ("dense-300", 5, (Some(3), Some(&[42, 150, 248]), 910, 5942097, 1989895)),
    ("dense-300", 8, (Some(3), Some(&[42, 150, 248]), 910, 5942097, 1989895)),
];

#[test]
fn undirected_detector_matches_pins() {
    let mut row = 0;
    for c in cases() {
        let g = build(&c);
        for q in QS {
            let (name, pq, want) = PINS[row];
            assert_eq!((name, pq), (c.name, q), "pin table out of order");
            let out = shortest_cycle_within(&g, q);
            let l = &out.ledger;
            let witness = out.witness.as_ref().map(|w| w.vertices());
            let got = (out.weight, witness, l.rounds, l.words, l.messages);
            assert_eq!(got, want, "{} q={q}", c.name);
            row += 1;
        }
    }
    assert_eq!(row, PINS.len(), "every pin is checked");
}

#[test]
fn undirected_detector_is_the_truncated_girth() {
    for c in cases() {
        let g = build(&c);
        let hops = g.map_weights(|_| 1);
        let girth = seq::girth_exact(&hops).map(|m| m.weight);
        for q in QS {
            let out = shortest_cycle_within(&g, q);
            out.assert_valid(&hops);
            let want = girth.filter(|&w| w <= q);
            assert_eq!(out.weight, want, "{} q={q} girth={girth:?}", c.name);
        }
    }
}

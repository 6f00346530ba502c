//! Property-based tests of the [`CalendarRing`] behind the flood loop:
//! against a reference `BinaryHeap<Reverse<(arrival, seq)>>` (the
//! engine's transit order), random insert schedules — latencies well past
//! the ring's span included — must agree on pop order, bucket rotation
//! across many wraparounds, overflow migration, and quiet-gap
//! fast-forwards; a ring reset to a new latency must drain like a new
//! ring; and random stretched floods must match the sequential flood
//! specification.
//!
//! Runs on `mwc_rng::proptest_lite`; new failures persist their case
//! seed under `proplite-regressions/`.

mod common;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use common::flood_spec::{run_flood, Rule};
use mwc_congest::{multi_source_bfs, source_detection, CalendarRing, Ledger, MultiBfsSpec, INF};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{NodeId, Orientation, Weight};
use mwc_rng::proptest_lite::{self as plite, Config};
use mwc_rng::{prop_assert, prop_assert_eq, prop_tests};

/// Ring sizing used by the schedule tests: an 8-bucket ring, small
/// enough that long schedules lap it many times, with latencies drawn up
/// to five times its span so many arrivals start in the overflow level.
const MAX_LAT: u64 = 7;

/// Pops every heap entry due by `round`, in `(arrival, seq)` order.
fn heap_due(heap: &mut BinaryHeap<Reverse<(u64, u64)>>, round: u64) -> Vec<u64> {
    let mut due = Vec::new();
    while let Some(&Reverse((a, s))) = heap.peek() {
        if a > round {
            break;
        }
        heap.pop();
        due.push(s);
    }
    due
}

/// Runs a round-by-round schedule on `ring` (batch `i` pushed at round
/// `i + 1`, then that round drained) and drains the tail through the
/// quiet-gap fast-forward; returns every drained round with its items.
fn run_schedule(ring: &mut CalendarRing<u64>, batches: &[Vec<u64>]) -> Vec<(u64, Vec<u64>)> {
    let mut drained = Vec::new();
    let mut seq = 0u64;
    let mut round = 0u64;
    for batch in batches {
        round += 1;
        for &lat in batch {
            ring.push(round + lat, seq);
            seq += 1;
        }
        let mut got = Vec::new();
        ring.drain_round_into(round, &mut got);
        drained.push((round, got));
    }
    while let Some(next) = ring.next_arrival() {
        let mut got = Vec::new();
        ring.drain_round_into(next, &mut got);
        drained.push((next, got));
    }
    drained
}

prop_tests! {
    config = Config::with_cases(64);

    /// A ring reused across floods: after draining one schedule and a
    /// reset to another latency — wider or narrower than before — it
    /// drains a second schedule exactly as a new ring with that latency.
    fn reset_ring_drains_like_new(
        lat1 in 0u64..40,
        lat2 in 0u64..40,
        first in plite::vec(plite::vec(0u64..200, 0..5), 1..24),
        second in plite::vec(plite::vec(0u64..200, 0..5), 1..24)
    ) {
        let mut reused: CalendarRing<u64> = CalendarRing::new(lat1);
        run_schedule(&mut reused, &first);
        prop_assert!(reused.is_empty());
        reused.reset(lat2);
        let mut fresh: CalendarRing<u64> = CalendarRing::new(lat2);
        prop_assert_eq!(run_schedule(&mut reused, &second), run_schedule(&mut fresh, &second));
        prop_assert!(reused.is_empty() && fresh.is_empty());
    }

    /// Round-by-round schedule: each batch of latencies is inserted at
    /// its send round and that round's expiries are drained. The ring
    /// must pop exactly what the transit heap pops, in `(arrival, send
    /// sequence)` order, with occupancy in lockstep.
    fn ring_matches_transit_heap(batches in plite::vec(plite::vec(0u64..5 * (MAX_LAT + 1), 0..5), 1..24)) {
        let mut ring: CalendarRing<u64> = CalendarRing::new(MAX_LAT);
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut round = 0u64;
        let mut got = Vec::new();
        for batch in &batches {
            round += 1;
            for &lat in batch {
                let arrival = round + lat;
                ring.push(arrival, seq);
                heap.push(Reverse((arrival, seq)));
                seq += 1;
            }
            got.clear();
            ring.drain_round_into(round, &mut got);
            prop_assert_eq!(&got, &heap_due(&mut heap, round), "round {} expiries diverge", round);
            prop_assert_eq!(ring.len(), heap.len());
        }
        // Tail: no more sends, so every remaining arrival is reached via
        // the quiet-gap fast-forward — `next_arrival` must land exactly
        // on the heap's minimum, every time, until both are empty.
        while let Some(next) = ring.next_arrival() {
            prop_assert!(next > round, "fast-forward must advance");
            prop_assert_eq!(
                heap.peek().map(|&Reverse((a, _))| a),
                Some(next),
                "fast-forward skipped or invented an arrival"
            );
            round = next;
            got.clear();
            ring.drain_round_into(round, &mut got);
            prop_assert_eq!(&got, &heap_due(&mut heap, round), "tail round {} expiries diverge", round);
        }
        prop_assert!(ring.is_empty() && heap.is_empty(), "pending arrivals leaked");
        prop_assert_eq!(ring.next_arrival(), None);
    }

    /// Random stretched floods match the spec: distances, predecessors,
    /// detection lists, and every ledger total, on arbitrary connected
    /// graphs with zero-weight edges mixed in.
    fn stretched_floods_match_spec(seed in 0u64..5000, n in 4usize..24, extra in 0usize..48, wmax in 1u64..9) {
        let g = connected_gnm(n, extra, Orientation::Directed, WeightRange::uniform(0, wmax), seed);
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let sources: Vec<NodeId> = (0..n).step_by(3).collect();
        let dir = Direction::Forward;
        let spec = MultiBfsSpec {
            direction: dir,
            latency: Some(&lat),
            ..MultiBfsSpec::default()
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &sources, &spec, "p", &mut ledger);
        let want = run_flood(&g, &sources, INF, dir, Some(&lat), Rule::Bfs);
        for (row, &s) in sources.iter().enumerate() {
            for v in 0..n {
                let entry = want.best[v].get(&row).copied();
                let p = entry.map(|e| e.1).filter(|_| v != s);
                prop_assert_eq!(mat.get_row(row, v), entry.map_or(INF, |e| e.0));
                prop_assert_eq!(mat.pred_row(row, v), p);
            }
        }
        prop_assert_eq!(
            (ledger.rounds, ledger.words, ledger.messages),
            (want.rounds, want.words, want.messages)
        );

        let mut ledger = Ledger::new();
        let h = 3 * wmax;
        let det = source_detection(&g, &sources, h, 3, dir, Some(&lat), "p", &mut ledger);
        let want = run_flood(&g, &sources, h, dir, Some(&lat), Rule::Detect { sigma: 3 });
        for v in 0..n {
            let list: Vec<_> = want.top[v].iter().map(|&(d, r)| (d, sources[r])).collect();
            prop_assert_eq!(&det.lists[v], &list);
        }
        prop_assert_eq!(
            (ledger.rounds, ledger.words, ledger.messages),
            (want.rounds, want.words, want.messages)
        );
    }
}

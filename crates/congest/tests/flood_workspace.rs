//! The flood loop keeps its buffers in a per-thread workspace between
//! floods, so a flood must see nothing an earlier flood on its thread left
//! behind. Each flood here runs after others on one thread and is compared
//! with the same call on a freshly spawned thread, whose workspace is new:
//! the distance table or detection lists, the ledger's phases, the words
//! per link, and the message-event log must all be equal. The sequence
//! includes a flood that panics mid-run.

use mwc_congest::{multi_source_bfs, source_detection, EventLog, Ledger, MultiBfsSpec, INF};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Orientation, Weight};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything one flood call shows.
#[derive(Debug, PartialEq)]
struct Observed {
    result: String,
    phases: String,
    link_words: Vec<((NodeId, NodeId), u64)>,
    events: EventLog,
}

/// Runs one flood call on this thread; `run` renders its result.
fn observe(run: impl FnOnce(&mut Ledger) -> String) -> Observed {
    let mut ledger = Ledger::new();
    let mut result = String::new();
    let events = EventLog::capture(|| result = run(&mut ledger));
    Observed {
        result,
        phases: format!("{:?}", ledger.phases),
        link_words: ledger.hot_links(usize::MAX),
        events,
    }
}

/// Runs `run` here and on a fresh thread, and checks they agree.
fn assert_matches_fresh_thread(name: &str, run: &(dyn Fn(&mut Ledger) -> String + Sync)) {
    let here = observe(run);
    let fresh = std::thread::scope(|s| {
        s.spawn(|| observe(run))
            .join()
            .expect("the fresh-thread run completes")
    });
    assert_eq!(here, fresh, "{name}: differs from a fresh thread's run");
}

#[test]
fn reused_flood_buffers_carry_no_history() {
    // A stretched flood with a wide calendar ring and 70 source rows.
    let wide = connected_gnm(
        80,
        200,
        Orientation::Directed,
        WeightRange::uniform(0, 400),
        4,
    );
    let lat: Vec<Weight> = wide.edges().iter().map(|e| e.weight).collect();
    let wide_sources: Vec<NodeId> = (0..70).collect();
    let stretched = |l: &mut Ledger| {
        let spec = MultiBfsSpec {
            latency: Some(&lat),
            ..MultiBfsSpec::default()
        };
        format!(
            "{:?}",
            multi_source_bfs(&wide, &wide_sources, &spec, "wide", l)
        )
    };
    // A small unit BFS and a small detection on other graphs.
    let small = connected_gnm(12, 10, Orientation::Undirected, WeightRange::unit(), 1);
    let unit_bfs = |l: &mut Ledger| {
        let spec = MultiBfsSpec {
            max_dist: 3,
            ..MultiBfsSpec::default()
        };
        format!("{:?}", multi_source_bfs(&small, &[0, 5], &spec, "unit", l))
    };
    let tiny = connected_gnm(10, 8, Orientation::Undirected, WeightRange::unit(), 2);
    let detection = |l: &mut Ledger| {
        let det = source_detection(
            &tiny,
            &[0, 2, 4, 6],
            3,
            2,
            Direction::Forward,
            None,
            "det",
            l,
        );
        format!("{det:?}")
    };

    assert_matches_fresh_thread("stretched", &stretched);
    assert_matches_fresh_thread("unit bfs", &unit_bfs);
    assert_matches_fresh_thread("detection", &detection);

    // A flood that panics mid-run, as `multibfs_rejects_distance_saturation`
    // does; the floods after it must still match fresh threads.
    let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap();
    let lat_inf = vec![INF];
    let spec = MultiBfsSpec {
        max_dist: INF,
        direction: Direction::Forward,
        latency: Some(&lat_inf),
    };
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        multi_source_bfs(&g, &[0], &spec, "sat", &mut Ledger::new());
    }))
    .expect_err("a saturating flood panics");
    let msg = panicked
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert!(msg.contains("saturates into the INF sentinel"), "{msg}");

    assert_matches_fresh_thread("unit bfs after a panic", &unit_bfs);
    assert_matches_fresh_thread("detection after a panic", &detection);
    assert_matches_fresh_thread("stretched after a panic", &stretched);
}

//! The flood memo of [`PhaseCache`] against uncached runs: a sequence of
//! real and charge-only floods, two of them exact repeats, must leave
//! every observable — ledger phases with their congestion profiles, hot
//! links, the congestion summary, the distance tables, the
//! span tree, the bound audits, the flood tally and the message-event
//! log — exactly as it is with the cache off. Only host work may differ.
//!
//! One test per binary: [`flood_engagement`] is a process-wide counter,
//! and a second test running in parallel would move it.

use mwc_congest::{
    charge_multi_source_bfs, flood_engagement, multi_source_bfs, EventCapture, Ledger,
    MultiBfsSpec, PhaseCache,
};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Orientation, Weight};

/// Everything a flood sequence shows to the outside.
#[derive(Debug, PartialEq)]
struct Observed {
    phases: String,
    hot_links: Vec<((NodeId, NodeId), u64)>,
    summary: mwc_trace::CongestionSummary,
    /// Per real run, every `(distance, predecessor)` cell.
    tables: Vec<Vec<(Weight, Option<NodeId>)>>,
    flamegraph: String,
    audits: Vec<String>,
    floods: u64,
}

/// Runs real A, charge A, charge B, real B, real B, where B is A in the
/// reverse direction, and returns what it showed plus the replay count
/// of the cache scope it ran in (`None` when no scope was installed).
fn run_sequence(g: &Graph, lat: &[Weight]) -> (Observed, Option<u64>) {
    let sources: Vec<NodeId> = (0..g.n()).step_by(4).collect();
    let a = MultiBfsSpec {
        max_dist: 30,
        direction: Direction::Forward,
        latency: Some(lat),
    };
    let b = MultiBfsSpec {
        direction: Direction::Reverse,
        ..a
    };
    let table = |mat: &mwc_congest::DistMatrix| {
        (0..sources.len())
            .flat_map(|row| (0..g.n()).map(move |v| (row, v)))
            .map(|(row, v)| (mat.get_row(row, v), mat.pred_row(row, v)))
            .collect::<Vec<_>>()
    };

    let session = mwc_trace::TraceSession::memory();
    let floods_before = flood_engagement().0;
    let scope = PhaseCache::scope();
    let mut ledger = Ledger::new();
    let mut tables = Vec::new();
    tables.push(table(&multi_source_bfs(
        g,
        &sources,
        &a,
        "real A",
        &mut ledger,
    )));
    charge_multi_source_bfs(g, &sources, &a, "charge A", &mut ledger);
    charge_multi_source_bfs(g, &sources, &b, "charge B", &mut ledger);
    for label in ["real B", "real B again"] {
        tables.push(table(&multi_source_bfs(
            g,
            &sources,
            &b,
            label,
            &mut ledger,
        )));
    }
    let replays = PhaseCache::stats().map(|s| s.flood_replays);
    drop(scope);
    let floods = flood_engagement().0 - floods_before;
    let data = session.finish();
    let observed = Observed {
        phases: format!("{:?}", ledger.phases),
        hot_links: ledger.hot_links(usize::MAX),
        summary: ledger.congestion_summary("sequence"),
        tables,
        flamegraph: data.flamegraph(),
        audits: data.all_audits().iter().map(|a| format!("{a:?}")).collect(),
        floods,
    };
    (observed, replays)
}

#[test]
fn memo_replays_are_indistinguishable_from_uncached_floods() {
    let g = connected_gnm(
        48,
        120,
        Orientation::Directed,
        WeightRange::uniform(1, 9),
        5,
    );
    let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();

    let (plain, none) = {
        let _off = PhaseCache::disable_for_thread();
        run_sequence(&g, &lat)
    };
    assert_eq!(none, None, "the disabled run installed a cache");
    let (cached, replays) = run_sequence(&g, &lat);
    assert_eq!(cached, plain);
    // Charge A replays real A; real B takes charge B's parked table; the
    // second real B has nothing parked and runs.
    assert_eq!(replays, Some(2));
    assert_eq!(plain.floods, 5, "every call is one flood in the tally");
    assert_ne!(
        plain.tables[0], plain.tables[1],
        "A and B must be distinct floods"
    );
    assert_eq!(plain.audits.len(), 5);

    // With the message-event log on, the memo steps aside: every message
    // event is emitted, so the log matches the uncached one.
    let capture = |off: bool| {
        let _off = off.then(PhaseCache::disable_for_thread);
        let cap = EventCapture::memory();
        let (observed, replays) = run_sequence(&g, &lat);
        (observed, replays, cap.finish())
    };
    let (plain_obs, _, plain_log) = capture(true);
    let (cached_obs, replays, cached_log) = capture(false);
    assert!(!plain_log.is_empty());
    assert_eq!(cached_log, plain_log);
    assert_eq!(cached_obs, plain_obs);
    assert_eq!(replays, Some(0), "no replay while events are logged");
}

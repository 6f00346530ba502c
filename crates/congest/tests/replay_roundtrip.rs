//! End-to-end replay-reader tests over a real algorithm workload: the
//! JSONL event schema round-trips through [`EventLog::parse`], and the
//! bisector locates the exact first divergent `(round, link)` between two
//! logs that differ by a single message.

use mwc_congest::{
    first_divergence, multi_source_bfs, EventCapture, EventLog, Ledger, MultiBfsSpec, Network,
    RoundOutput,
};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::Orientation;

fn bfs_log(seed: u64) -> EventLog {
    EventLog::capture(|| {
        let g = connected_gnm(24, 48, Orientation::Undirected, WeightRange::unit(), seed);
        let mut ledger = Ledger::new();
        multi_source_bfs(&g, &[0, 7], &MultiBfsSpec::default(), "bfs", &mut ledger);
    })
}

#[test]
fn event_schema_round_trips_through_replay_reader() {
    let cap = EventCapture::memory();
    let g = connected_gnm(24, 48, Orientation::Undirected, WeightRange::unit(), 3);
    let mut ledger = Ledger::new();
    multi_source_bfs(&g, &[0, 7], &MultiBfsSpec::default(), "bfs", &mut ledger);
    let lines = cap.finish();
    assert!(!lines.is_empty());

    // Every line parses, and parse ∘ render is the identity on the log.
    let text = lines.join("\n");
    let log = EventLog::parse(&text).expect("sink emits valid JSONL");
    assert_eq!(log.phases.len(), 1, "one absorb → one phase line");
    assert_eq!(log.phases[0].label, "bfs");
    let reparsed = EventLog::parse(&log.render()).unwrap();
    assert_eq!(reparsed, log);

    // The log's totals agree with the ledger-reported phase costs.
    let total_msgs: u64 = log.messages.len() as u64;
    assert_eq!(total_msgs, log.phases[0].messages);
    let total_words: u64 = log.messages.iter().map(|m| m.words).sum();
    assert_eq!(total_words, log.phases[0].words);
    assert!(log
        .messages
        .iter()
        .all(|m| log.global_round(m) <= log.phases[0].rounds));
}

#[test]
fn same_seed_runs_produce_identical_logs() {
    let a = bfs_log(11);
    let b = bfs_log(11);
    assert_eq!(a, b);
    assert_eq!(first_divergence(&a, &b), None);
}

#[test]
fn bisect_locates_single_extra_message_in_real_workload() {
    // Run the BFS twice; in run B, smuggle one extra unit message onto a
    // known link in a trailing phase. The bisector must name exactly that
    // (global round, link), not merely "the logs differ".
    let a = bfs_log(11);
    let b = EventLog::capture(|| {
        let g = connected_gnm(24, 48, Orientation::Undirected, WeightRange::unit(), 11);
        let mut ledger = Ledger::new();
        multi_source_bfs(&g, &[0, 7], &MultiBfsSpec::default(), "bfs", &mut ledger);
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, g.comm_neighbors(0)[0], 1, 1).unwrap();
        while net.step_bulk_into(&mut RoundOutput::default()) {}
        ledger.absorb("extra", &net);
    });
    assert_eq!(b.messages.len(), a.messages.len() + 1);

    let d = first_divergence(&a, &b).expect("logs differ by one message");
    // The BFS prefix is identical, so the first divergence is the injected
    // message: global round = bfs rounds + 1, on the link we sent it over.
    let g = connected_gnm(24, 48, Orientation::Undirected, WeightRange::unit(), 11);
    let expect_round = a.phases[0].rounds + 1;
    let expect_link = (0, g.comm_neighbors(0)[0]);
    assert_eq!(d.round, expect_round, "{}", d.detail);
    assert_eq!(d.link, Some(expect_link), "{}", d.detail);
    assert!(d.detail.contains("log A delivered nothing"), "{}", d.detail);

    // Windowed replay around the divergence shows the culprit delivery.
    let view = b.render_window(d.round, d.round, Some(expect_link.0));
    assert!(
        view.contains(&format!("{} out -> {}", expect_link.0, expect_link.1)),
        "{view}"
    );
}

//! Flood differential suite: [`multi_source_bfs`] and
//! [`source_detection`] against the sequential specification in
//! `common/flood_spec.rs`. On every graph family the Table-1 experiments
//! sweep — unit-weight, weighted (plain and latency-stretched),
//! zero-weight, heavy-tail latencies, directed graphs in both traversal
//! directions — plus budget-filtered passes under both round-control
//! rules, budgets below the largest latency (the calendar ring is sized
//! by the budget), a latency far past the calendar ring's span,
//! detection at the σ extremes and with no sources, and the girth
//! algorithm's neighborhood shape, each flood is compared with the spec
//! on:
//!
//! - distances and predecessors (detection: lists, every admitted
//!   entry's distance and predecessor),
//! - rounds, words, and messages,
//! - words per directed link,
//! - the message-event log, delivery by delivery.
//!
//! The tree [`broadcast`], whose phases run the engine's schedule
//! directly or charge it in closed form, and [`convergecast`] are checked
//! against engine-stepped references written here, as is
//! [`Network::charge_batch`], the closed-form charge of a batch of
//! simultaneous sends.

mod common;

use common::flood_spec::{run_flood, Rule, SpecOutcome};
use mwc_congest::{
    broadcast, convergecast, multi_source_bfs, source_detection, BfsTree, EventCapture, EventLog,
    FloodPlan, Ledger, MultiBfsSpec, NetStats, Network, RoundOutput, INF,
};
use mwc_graph::generators::{connected_gnm, ring_with_chords, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Orientation, Weight};
use mwc_rng::proptest_lite::{self as plite, Config};
use mwc_rng::{prop_assert, prop_assert_eq, prop_tests, StdRng};

/// Checks the ledger and event log of one flood against the spec.
fn assert_traffic_matches(ledger: &Ledger, log: &EventLog, want: &SpecOutcome, family: &str) {
    assert_eq!(
        (ledger.rounds, ledger.words, ledger.messages),
        (want.rounds, want.words, want.messages),
        "{family}: rounds/words/messages"
    );
    let mut links = ledger.hot_links(usize::MAX);
    links.sort_unstable();
    let want_links: Vec<_> = want.link_words.iter().map(|(&l, &w)| (l, w)).collect();
    assert_eq!(links, want_links, "{family}: per-link words");
    assert!(log.messages.iter().all(|m| m.net == 0 && m.words == 1));
    let events: Vec<_> = log
        .messages
        .iter()
        .map(|m| (m.round, m.from, m.to))
        .collect();
    assert_eq!(events, want.events, "{family}: event log");
}

/// Runs a BFS and checks it against the spec; returns the spec's run.
fn check_bfs(g: &Graph, sources: &[NodeId], spec: &MultiBfsSpec<'_>, family: &str) -> SpecOutcome {
    let mut ledger = Ledger::new();
    let mut mat = None;
    let log = EventLog::capture(|| {
        mat = Some(multi_source_bfs(g, sources, spec, "bfs", &mut ledger));
    });
    let mat = mat.expect("flood ran");
    let want = run_flood(
        g,
        sources,
        spec.max_dist,
        spec.direction,
        spec.latency,
        Rule::Bfs,
    );
    for (row, &s) in sources.iter().enumerate() {
        for v in 0..g.n() {
            let entry = want.best[v].get(&row).copied();
            let d = entry.map_or(INF, |e| e.0);
            // A source's own entry has no predecessor in a DistMatrix.
            let p = entry.map(|e| e.1).filter(|_| v != s);
            assert_eq!(
                (mat.get_row(row, v), mat.pred_row(row, v)),
                (d, p),
                "{family}: row {row} node {v}"
            );
        }
    }
    assert_traffic_matches(&ledger, &log, &want, family);
    want
}

/// Runs a detection and checks it against the spec; returns the spec's
/// run.
fn check_detection(
    g: &Graph,
    sources: &[NodeId],
    (h, sigma): (Weight, usize),
    direction: Direction,
    latency: Option<&[Weight]>,
    family: &str,
) -> SpecOutcome {
    let mut ledger = Ledger::new();
    let mut det = None;
    let log = EventLog::capture(|| {
        det = Some(source_detection(
            g,
            sources,
            h,
            sigma,
            direction,
            latency,
            "detect",
            &mut ledger,
        ));
    });
    let det = det.expect("flood ran");
    let mut srcs = sources.to_vec();
    srcs.sort_unstable();
    let want = run_flood(g, &srcs, h, direction, latency, Rule::Detect { sigma });
    for v in 0..g.n() {
        let list: Vec<_> = want.top[v].iter().map(|&(d, r)| (d, srcs[r])).collect();
        assert_eq!(det.lists[v], list, "{family}: node {v} list");
        for (row, &s) in srcs.iter().enumerate() {
            let entry = want.best[v].get(&row).copied();
            assert_eq!(det.dist(v, s), entry.map(|e| e.0), "{family}: {v} ← {s}");
            assert_eq!(det.pred(v, s), entry.map(|e| e.1), "{family}: {v} ← {s}");
        }
    }
    assert_traffic_matches(&ledger, &log, &want, family);
    want
}

/// The per-family pipeline: a plain BFS, a BFS stretched by `latency`,
/// and a source detection plain and stretched, all from every other
/// node.
fn check_family(g: &Graph, direction: Direction, latency: &[Weight], family: &str) {
    let sources: Vec<NodeId> = (0..g.n()).step_by(2).collect();
    let plain = MultiBfsSpec {
        direction,
        ..MultiBfsSpec::default()
    };
    let unit = check_bfs(g, &sources, &plain, &format!("{family}/unit"));
    assert!(
        unit.rounds > 0 && unit.words > 0,
        "{family}: the flood must move traffic"
    );
    let stretched = MultiBfsSpec {
        latency: Some(latency),
        ..plain
    };
    check_bfs(g, &sources, &stretched, &format!("{family}/stretched"));
    check_detection(
        g,
        &sources,
        (64, 3),
        direction,
        None,
        &format!("{family}/detect"),
    );
    let h = 4 * latency.iter().max().copied().unwrap_or(1).max(1);
    check_detection(
        g,
        &sources,
        (h, 3),
        direction,
        Some(latency),
        &format!("{family}/detect-stretched"),
    );
}

/// Stretch table over `g`'s edge weights, each at least 1.
fn weight_latency(g: &Graph) -> Vec<Weight> {
    g.edges().iter().map(|e| e.weight.max(1)).collect()
}

/// Raw edge weights as the latency table, 0 entries included: a `w = 0`
/// edge adds zero distance but still takes one round to cross.
fn raw_weight_latency(g: &Graph) -> Vec<Weight> {
    g.edges().iter().map(|e| e.weight).collect()
}

#[test]
fn unit_family_matches_spec() {
    for seed in 0..3 {
        let g = connected_gnm(40, 90, Orientation::Undirected, WeightRange::unit(), seed);
        check_family(
            &g,
            Direction::Forward,
            &weight_latency(&g),
            "unit/connected_gnm",
        );
    }
}

#[test]
fn weighted_family_matches_spec() {
    for seed in [2, 9] {
        let g = ring_with_chords(
            30,
            10,
            Orientation::Undirected,
            WeightRange::uniform(1, 9),
            seed,
        );
        check_family(
            &g,
            Direction::Forward,
            &weight_latency(&g),
            "weighted/ring_with_chords",
        );
    }
}

#[test]
fn directed_family_matches_spec_both_ways() {
    for seed in [3, 11] {
        let g = connected_gnm(
            28,
            70,
            Orientation::Directed,
            WeightRange::uniform(1, 6),
            seed,
        );
        let lat = weight_latency(&g);
        check_family(&g, Direction::Forward, &lat, "directed/connected_gnm");
        check_family(
            &g,
            Direction::Reverse,
            &lat,
            "directed-reverse/connected_gnm",
        );
    }
}

/// A `{0, 1}`-weight graph with its raw weights as the latency table:
/// every hop crosses in one round, and some add zero distance — the
/// aliasing case for the frontier's distance buckets.
#[test]
fn zero_weight_family_matches_spec() {
    for seed in [1, 7] {
        let g = connected_gnm(
            32,
            80,
            Orientation::Directed,
            WeightRange::uniform(0, 1),
            seed,
        );
        let lat = raw_weight_latency(&g);
        assert!(
            lat.contains(&0) && lat.iter().all(|&l| l <= 1),
            "family must mix zero- and unit-weight edges"
        );
        check_family(&g, Direction::Forward, &lat, "zero-weight/connected_gnm");
    }
}

/// Heavy-tail latencies: zero-weight edges, stretch-1 edges, and
/// latencies hundreds of rounds long in one graph — deep parking in the
/// calendar ring, quiet-gap fast-forwards, and same-round collisions of
/// fast and slow arrivals.
#[test]
fn heavy_tail_latency_family_matches_spec() {
    for seed in [4, 19] {
        let g = heavy_tail_graph(seed);
        let lat = raw_weight_latency(&g);
        assert!(
            lat.contains(&0) && lat.contains(&1) && lat.contains(&211),
            "family must mix zero-weight, stretch-1, and long edges"
        );
        check_family(&g, Direction::Forward, &lat, "heavy-tail/connected_gnm");
        check_family(
            &g,
            Direction::Reverse,
            &lat,
            "heavy-tail-reverse/connected_gnm",
        );
    }
}

/// A directed graph whose edge weights are mostly short (0 / 1 / 2),
/// with a thick tail of 37s and rare 211-round outliers, keyed by edge
/// index.
fn heavy_tail_graph(seed: u64) -> Graph {
    let base = connected_gnm(
        36,
        96,
        Orientation::Directed,
        WeightRange::uniform(0, 1),
        seed,
    );
    let edges: Vec<(usize, usize, Weight)> = base
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let w = match i % 9 {
                0 => 0,
                1..=3 => 1,
                4 | 5 => 2,
                6 | 7 => 37,
                _ => 211,
            };
            (e.u, e.v, w)
        })
        .collect();
    Graph::from_edges(base.n(), Orientation::Directed, edges).unwrap()
}

/// Budgets below the plan's largest latency: the calendar ring is sized
/// by the budget, not by the latency table, and no hop the budget lets
/// through may arrive beyond it. The 211-round edges are never crossed,
/// and 37-round ones only close to a source.
#[test]
fn budget_below_the_largest_latency_matches_spec() {
    for seed in [4, 19] {
        let g = heavy_tail_graph(seed);
        let lat = raw_weight_latency(&g);
        let sources: Vec<NodeId> = (0..g.n()).step_by(3).collect();
        for direction in [Direction::Forward, Direction::Reverse] {
            let plan = FloodPlan::build(&g, &Network::<()>::new(&g), direction, Some(&lat));
            for budget in [2, 40, 100] {
                assert!(budget < plan.max_latency(), "the budget must cut the table");
                let spec = MultiBfsSpec {
                    max_dist: budget,
                    direction,
                    latency: Some(&lat),
                };
                let family = format!("short-budget/{direction:?}/budget={budget}");
                check_bfs(&g, &sources, &spec, &family);
                let lat = Some(lat.as_slice());
                check_detection(&g, &sources, (budget, 3), direction, lat, &family);
            }
        }
    }
}

/// Budgets tight enough that whole passes pop announcements and send
/// nothing: BFS then charges no round and pops again, detection charges
/// an idle round. Both rules must be exercised, on unit and stretched
/// floods.
#[test]
fn budget_filtered_pops_follow_both_round_rules() {
    let g = ring_with_chords(
        24,
        6,
        Orientation::Undirected,
        WeightRange::uniform(1, 7),
        5,
    );
    let lat = weight_latency(&g);
    let sources: Vec<NodeId> = (0..g.n()).step_by(5).collect();
    let (mut bfs_filtered, mut detect_filtered) = (0, 0);
    for budget in [0, 1, 3, 6, 9] {
        for latency in [None, Some(lat.as_slice())] {
            let spec = MultiBfsSpec {
                max_dist: budget,
                direction: Direction::Forward,
                latency,
            };
            let family = format!(
                "filtered/bfs/budget={budget}/stretched={}",
                latency.is_some()
            );
            bfs_filtered += check_bfs(&g, &sources, &spec, &family).filtered_passes;
            let family = format!("filtered/detect/h={budget}/stretched={}", latency.is_some());
            let dir = Direction::Forward;
            let det = check_detection(&g, &sources, (budget, 2), dir, latency, &family);
            detect_filtered += det.filtered_passes;
        }
    }
    assert!(bfs_filtered > 0, "no BFS pass was budget-filtered");
    assert!(detect_filtered > 0, "no detection pass was budget-filtered");
}

/// Detection at the σ values the receiver state treats specially: 0
/// (every admission is truncated on arrival), 1, ⌈√n⌉, |S| (nothing is
/// ever truncated) and unbounded, from half the nodes, plus an empty
/// source set; plain and stretched.
#[test]
fn detection_sigma_extremes_match_spec() {
    let g = connected_gnm(
        40,
        90,
        Orientation::Undirected,
        WeightRange::uniform(1, 5),
        8,
    );
    let lat = weight_latency(&g);
    let half: Vec<NodeId> = (0..g.n()).step_by(2).collect();
    let root = (g.n() as f64).sqrt().ceil() as usize;
    let dir = Direction::Forward;
    for (h, latency) in [(6, None), (12, Some(lat.as_slice()))] {
        let stretched = latency.is_some();
        for sigma in [0, 1, root, half.len(), usize::MAX] {
            let family = format!("extremes/σ={sigma}/stretched={stretched}");
            let want = check_detection(&g, &half, (h, sigma), dir, latency, &family);
            if sigma == 0 {
                assert!(want.top.iter().all(|t| t.is_empty()));
                assert!(want.truncated_on_arrival > 0, "{family}");
            }
        }
        let family = format!("extremes/no-sources/stretched={stretched}");
        let want = check_detection(&g, &[], (h, root), dir, latency, &family);
        assert_eq!((want.rounds, want.messages), (0, 0), "{family}");
    }
}

/// The girth algorithm's σ-neighborhood step (paper §4) at test size:
/// every node a source and `h = σ = ⌈√n⌉ = 16` on a sparse 256-node
/// graph, plain and stretched. Most admissions there fall behind a full
/// top set on arrival, so the spec must see that case.
#[test]
fn girth_shape_detection_matches_spec() {
    let g = connected_gnm(
        256,
        256,
        Orientation::Undirected,
        WeightRange::uniform(1, 3),
        21,
    );
    let lat = weight_latency(&g);
    let all: Vec<NodeId> = (0..g.n()).collect();
    for latency in [None, Some(lat.as_slice())] {
        let family = format!("girth-shape/stretched={}", latency.is_some());
        let want = check_detection(&g, &all, (16, 16), Direction::Forward, latency, &family);
        assert!(
            want.truncated_on_arrival > 0,
            "{family}: no admission was truncated on arrival"
        );
    }
}

/// One edge whose latency is far past the calendar ring's span: its
/// arrival waits in the ring's overflow level. Distances must still be
/// the weighted shortest paths, and everything else must match the spec.
#[test]
fn latency_beyond_the_ring_span_matches_spec_and_dijkstra() {
    let mut edges: Vec<(usize, usize, Weight)> = (0..11).map(|i| (i, (i + 1) % 12, 1)).collect();
    edges.push((11, 0, 1_000_000));
    edges.push((3, 9, 2));
    edges.push((6, 0, 700_000));
    let g = Graph::from_edges(12, Orientation::Directed, edges).unwrap();
    let lat = raw_weight_latency(&g);
    let sources = [0, 5, 11];
    for direction in [Direction::Forward, Direction::Reverse] {
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction,
            latency: Some(&lat),
        };
        let want = check_bfs(&g, &sources, &spec, "beyond-span/bfs");
        assert!(want.rounds > 1_000_000, "the long edge must be crossed");
        for (row, &s) in sources.iter().enumerate() {
            let t = mwc_graph::seq::dijkstra(&g, s, direction);
            for v in 0..g.n() {
                let d = want.best[v].get(&row).map_or(INF, |e| e.0);
                assert_eq!(d, t.dist[v], "{direction:?} {s} → {v}");
            }
        }
        check_detection(
            &g,
            &sources,
            (INF - 1, 2),
            direction,
            Some(&lat),
            "beyond-span/detect",
        );
    }
}

/// Every observable of a broadcast: totals, the phase journal (each
/// phase's label, rounds and words), words per link, the congestion
/// summary, the event log, and the collected items in order.
#[derive(Debug, PartialEq)]
struct BroadcastRun {
    items: Vec<(NodeId, u64)>,
    totals: (u64, u64, u64),
    phases: String,
    link_words: Vec<((NodeId, NodeId), u64)>,
    summary: mwc_trace::CongestionSummary,
    events: EventLog,
}

fn observe_broadcast(
    g: &Graph,
    root: NodeId,
    run: impl FnOnce(&Graph, &BfsTree, &mut Ledger) -> Vec<(NodeId, u64)>,
) -> BroadcastRun {
    let mut ledger = Ledger::new();
    let mut items = Vec::new();
    let events = EventLog::capture(|| {
        let tree = BfsTree::build(g, root, &mut ledger);
        items = run(g, &tree, &mut ledger);
    });
    BroadcastRun {
        items,
        totals: (ledger.rounds, ledger.words, ledger.messages),
        phases: format!("{:?}", ledger.phases),
        link_words: ledger.hot_links(usize::MAX),
        summary: ledger.congestion_summary("broadcast"),
        events,
    }
}

/// [`broadcast`] with its downcast stepped through the engine message by
/// message: the root sends every item to each child, and each node
/// forwards each item to its children the round it arrives.
fn engine_broadcast(
    g: &Graph,
    tree: &BfsTree,
    items: Vec<(NodeId, u64)>,
    words: u64,
    ledger: &mut Ledger,
) -> Vec<(NodeId, u64)> {
    let mut out = RoundOutput::default();
    let mut net: Network<(NodeId, u64)> = Network::new(g);
    let mut collected = Vec::new();
    for (origin, item) in items {
        match tree.parent[origin] {
            Some(p) => net.send(origin, p, (origin, item), words).unwrap(),
            None => collected.push((origin, item)),
        }
    }
    while net.step_bulk_into(&mut out) {
        for d in out.deliveries.drain(..) {
            match tree.parent[d.to] {
                Some(p) => net.send(d.to, p, d.payload, words).unwrap(),
                None => collected.push(d.payload),
            }
        }
    }
    ledger.absorb("broadcast: upcast", &net);

    let mut net: Network<(NodeId, u64)> = Network::new(g);
    for &c in &tree.children[tree.root] {
        for &item in &collected {
            net.send(tree.root, c, item, words).unwrap();
        }
    }
    while net.step_bulk_into(&mut out) {
        for d in out.deliveries.drain(..) {
            for &c in &tree.children[d.to] {
                net.send(d.to, c, d.payload, words).unwrap();
            }
        }
    }
    ledger.absorb("broadcast: downcast", &net);
    collected
}

/// [`convergecast`] stepped through the engine message by message: leaves
/// report first, each node reports once all its children have, and the
/// result floods back down the tree.
fn engine_convergecast(
    g: &Graph,
    tree: &BfsTree,
    values: Vec<u64>,
    op: impl Fn(u64, u64) -> u64,
    ledger: &mut Ledger,
) -> u64 {
    let n = g.n();
    let mut pending: Vec<usize> = (0..n).map(|v| tree.children[v].len()).collect();
    let mut acc = values;
    let mut out = RoundOutput::default();
    let mut net: Network<u64> = Network::new(g);
    for v in 0..n {
        if pending[v] == 0 {
            if let Some(p) = tree.parent[v] {
                net.send(v, p, acc[v], 1).unwrap();
            }
        }
    }
    while net.step_bulk_into(&mut out) {
        for d in out.deliveries.drain(..) {
            let v = d.to;
            acc[v] = op(acc[v], d.payload);
            pending[v] -= 1;
            if pending[v] == 0 {
                if let Some(p) = tree.parent[v] {
                    net.send(v, p, acc[v], 1).unwrap();
                }
            }
        }
    }
    ledger.absorb("convergecast: up", &net);
    let result = acc[tree.root];

    let mut net: Network<u64> = Network::new(g);
    for &c in &tree.children[tree.root] {
        net.send(tree.root, c, result, 1).unwrap();
    }
    while net.step_bulk_into(&mut out) {
        for d in out.deliveries.drain(..) {
            for &c in &tree.children[d.to] {
                net.send(d.to, c, result, 1).unwrap();
            }
        }
    }
    ledger.absorb("convergecast: down", &net);
    result
}

/// The tree shapes that stress the schedules: a path (maximum height), a
/// star (the root queue holds every item), and a random connected graph
/// (branching trees), each with its root.
fn tree_shapes() -> Vec<(&'static str, Graph, NodeId)> {
    let mut path = Graph::undirected(12);
    for i in 0..11 {
        path.add_edge(i, i + 1, 1).unwrap();
    }
    let mut star = Graph::undirected(10);
    for i in 1..10 {
        star.add_edge(0, i, 1).unwrap();
    }
    let gnm = connected_gnm(26, 50, Orientation::Undirected, WeightRange::unit(), 13);
    vec![("path", path, 0), ("star", star, 0), ("gnm", gnm, 5)]
}

/// Item lists for a broadcast on `g` rooted at `root`: `m ∈ {0, 1, 17}`
/// items spread over the nodes, then lists that stress the upcast FIFOs —
/// several items per origin at different depths with root items mixed
/// in, and every item at the deepest node.
fn broadcast_items(g: &Graph, root: NodeId) -> Vec<(String, Vec<(NodeId, u64)>)> {
    let mut sets: Vec<(String, Vec<(NodeId, u64)>)> = [0usize, 1, 17]
        .into_iter()
        .map(|m| {
            let items = (0..m).map(|i| (i % g.n(), 1000 + i as u64)).collect();
            (format!("m={m}"), items)
        })
        .collect();
    let tree = BfsTree::build(g, root, &mut Ledger::new());
    let deepest = (0..g.n()).max_by_key(|&v| (tree.depth[v], v)).unwrap();
    let origins: Vec<NodeId> = (0..g.n()).step_by(3).chain([root, deepest]).collect();
    let multi = (0..4 * origins.len())
        .map(|i| (origins[(i * 5) % origins.len()], 2000 + i as u64))
        .collect();
    sets.push(("several-per-origin".to_owned(), multi));
    let leaf = (0..23).map(|i| (deepest, 3000 + i as u64)).collect();
    sets.push(("deepest-leaf".to_owned(), leaf));
    sets
}

/// The direct upcast schedule and the closed-form downcast charge against
/// engine stepping, on every tree shape and item list, with items of one
/// or three words.
#[test]
fn broadcast_matches_engine_stepping() {
    for (name, g, root) in &tree_shapes() {
        for (set, items) in broadcast_items(g, *root) {
            for w in [1u64, 3] {
                let want = observe_broadcast(g, *root, |g, t, l| {
                    engine_broadcast(g, t, items.clone(), w, l)
                });
                let got =
                    observe_broadcast(g, *root, |g, t, l| broadcast(g, t, items.clone(), w, l));
                assert_eq!(got, want, "broadcast/{name}/{set}/w={w}");
            }
        }
    }
}

/// [`convergecast`] against the engine-stepped reference, on every tree
/// shape, with `min` and with a sum: the pin a direct schedule for either
/// phase must pass. The result rides in the run's item list.
#[test]
fn convergecast_matches_engine_stepping() {
    type Op = fn(u64, u64) -> u64;
    let ops: [(&str, Op); 2] = [("min", u64::min), ("sum", |a, b| a + b)];
    for (name, g, root) in &tree_shapes() {
        let values: Vec<u64> = (0..g.n() as u64).map(|v| (v * 7919 + 13) % 1000).collect();
        for (op_name, op) in ops {
            let want = observe_broadcast(g, *root, |g, t, l| {
                vec![(t.root, engine_convergecast(g, t, values.clone(), op, l))]
            });
            let got = observe_broadcast(g, *root, |g, t, l| {
                vec![(t.root, convergecast(g, t, values.clone(), op, l))]
            });
            assert_eq!(got, want, "convergecast/{name}/{op_name}");
        }
    }
}

/// Random `(link, words)` batches over `links` links: a third of the
/// sends reuse one of the first four links, so links repeat; words run
/// 0–4 with an occasional long message.
fn random_batches(rng: &mut StdRng, links: u32, batches: usize) -> Vec<Vec<(u32, u64)>> {
    (0..batches)
        .map(|_| {
            (0..rng.random_range(0..3 * links as usize))
                .map(|_| {
                    let l = if rng.random_bool(0.35) {
                        rng.random_range(0..links.min(4))
                    } else {
                        rng.random_range(0..links)
                    };
                    let w = if rng.random_bool(0.1) {
                        rng.random_range(5u64..12)
                    } else {
                        rng.random_range(0u64..5)
                    };
                    (l, w)
                })
                .collect()
        })
        .collect()
}

/// Runs `batches` back to back on one network with history on, each
/// either charged with [`Network::charge_batch`] or sent message by
/// message and stepped until idle; returns the round, the stats and the
/// event log.
fn run_batches(
    g: &Graph,
    batches: &[Vec<(u32, u64)>],
    charged: bool,
) -> (u64, NetStats, Vec<String>) {
    let cap = EventCapture::memory();
    let mut net: Network<()> = Network::new(g);
    net.enable_history();
    let mut out = RoundOutput::default();
    for batch in batches {
        if charged {
            net.charge_batch(batch.iter().copied());
        } else {
            for &(l, w) in batch {
                net.send_on_link(l as usize, (), w, 0);
            }
            while net.step_bulk_into(&mut out) {}
        }
    }
    (net.round(), net.stats().clone(), cap.finish())
}

prop_tests! {
    config = Config::with_cases(64);

    /// [`Network::charge_batch`] against engine stepping, two batches
    /// back to back: the round, every `NetStats` field (per-link words,
    /// per-round counts and peaks, queue high-water, messages) and the
    /// event log, delivery by delivery.
    fn charge_batch_matches_engine_stepping(
        seed in 0u64..10_000,
        n in 2usize..24,
        extra in 0usize..40,
        directed in plite::any_bool(),
    ) {
        let orientation = if directed { Orientation::Directed } else { Orientation::Undirected };
        let g = connected_gnm(n, extra, orientation, WeightRange::unit(), seed);
        let links = Network::<()>::new(&g).link_ends().len() as u32;
        let batches = random_batches(&mut StdRng::seed_from_u64(seed ^ 0xBA7C), links, 2);
        let want = run_batches(&g, &batches, false);
        prop_assert!(batches.iter().all(Vec::is_empty) || want.0 > 0);
        prop_assert_eq!(run_batches(&g, &batches, true), want);
    }
}

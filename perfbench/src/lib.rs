//! Closed-loop benchmark of certified minimum-weight-cycle solves.
//!
//! One caller, one thread, one instance at a time: a run builds a seeded
//! instance set and its reference answers (set-up), then solves the
//! instances in a fixed order, pass after pass, until its time budget is
//! spent. Every solve goes through a public `mwc_core` entry point and is
//! checked against the reference: a panic, an invalid witness, an
//! underestimate, a weight beyond the theorem's bound, or a run-to-run
//! ledger difference counts as a failed instance and the run goes on.
//!
//! Every solve and every set-up is preceded by a run of a fixed reference
//! kernel ([`probe`]), and the end-to-end walls are reported scaled to the
//! host speed at which that kernel takes [`probe::NOMINAL_MS`], so that a
//! run landing in a slow stretch of a shared host still reads the same.
//!
//! The untraced binary (`perfbench`) reports the end-to-end metrics. The
//! traced binary (`perfbench-traced`) installs the counting allocator,
//! records each solve in an in-memory trace session and folds the span
//! tree the library already emits into per-layer self-costs.

pub mod probe;

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mwc_congest::{cache_disabled, flood_engagement, flood_kernel};
use mwc_core::{approx_girth, approx_mwc_directed_weighted, shortest_cycle_within};
use mwc_core::{MwcOutcome, Params};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::{seq, Graph, Orientation, Weight};
use mwc_trace::json::Json;
use mwc_trace::{SpanNode, TraceData, TraceSession};
use probe::{scaled_ms, Probe};

/// The hop bound of the detection workload.
const DETECT_Q: u64 = 8;
/// The ε of the weighted-directed workload (Thm 1.2.D).
const EPSILON: f64 = 0.25;
/// A run repeats its set-up at least this many times, and until
/// [`SETUP_MIN_SECONDS`] have passed; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// See [`SETUP_REPS`]: cheap set-ups repeat more, for a steady median.
const SETUP_MIN_SECONDS: f64 = 1.0;
/// The fewest solves a run times, so that at least ten samples lie
/// beyond the reported p90.
const MIN_SAMPLES: usize = 100;

/// Environment knobs that change what or how the library computes. A run
/// refuses to start while any is set, so every result is attributable to
/// the default configuration.
const REFUSED_ENV: [&str; 6] = [
    "MWC_FLOOD_KERNEL",
    "MWC_FLOOD_RING_MAX",
    "MWC_JOBS",
    "MWC_SHARDS",
    "MWC_SHARD_THRESHOLD",
    "MWC_NO_CACHE",
];

/// One benchmark workload: a graph family, an entry point and an oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Unit-weight undirected graphs, `approx_girth` (Thm 1.3.B).
    GirthUnit,
    /// Directed graphs with weights in `[1, 64]`,
    /// `approx_mwc_directed_weighted` (Thm 1.2.D).
    WeightedDirected,
    /// Unit-weight undirected graphs, `shortest_cycle_within(q = 8)`.
    DetectEngine,
}

/// The size of a workload's instance set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Nodes per graph.
    pub n: usize,
    /// Graphs per instance set (one oracle call each).
    pub graphs: usize,
    /// Algorithm seeds per graph.
    pub seeds_per_graph: usize,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::GirthUnit,
        Workload::WeightedDirected,
        Workload::DetectEngine,
    ];

    /// Parses a workload name as [`Workload::name`] spells it.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GirthUnit => "girth-unit",
            Workload::WeightedDirected => "weighted-directed",
            Workload::DetectEngine => "detect-engine",
        }
    }

    /// The instance-set size the benchmark runs. Detection takes no
    /// algorithm seed, so its instances are distinct graphs.
    pub fn shape(self) -> Shape {
        match self {
            Workload::GirthUnit => Shape {
                n: 1024,
                graphs: 4,
                seeds_per_graph: 4,
            },
            Workload::WeightedDirected => Shape {
                n: 256,
                graphs: 16,
                seeds_per_graph: 1,
            },
            Workload::DetectEngine => Shape {
                n: 512,
                graphs: 8,
                seeds_per_graph: 1,
            },
        }
    }

    /// The seeded input graph: `connected_gnm(n, extra = n)`.
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        match self {
            Workload::GirthUnit | Workload::DetectEngine => {
                connected_gnm(n, n, Orientation::Undirected, WeightRange::unit(), seed)
            }
            Workload::WeightedDirected => connected_gnm(
                n,
                n,
                Orientation::Directed,
                WeightRange::uniform(1, 64),
                seed,
            ),
        }
    }

    /// The reference answer from the sequential oracle.
    pub fn reference(self, g: &Graph) -> Option<Weight> {
        let exact = match self {
            Workload::GirthUnit | Workload::DetectEngine => seq::girth_exact(g),
            Workload::WeightedDirected => seq::mwc_directed_exact(g),
        };
        exact.map(|m| m.weight)
    }

    /// Solves one instance through the public entry point.
    pub fn solve(self, g: &Graph, params_seed: u64) -> MwcOutcome {
        let params = Params::new().with_seed(params_seed);
        match self {
            Workload::GirthUnit => approx_girth(g, &params),
            Workload::WeightedDirected => {
                approx_mwc_directed_weighted(g, &params.with_epsilon(EPSILON))
            }
            Workload::DetectEngine => shortest_cycle_within(g, DETECT_Q),
        }
    }

    /// Checks a reported weight against the exact one, returning
    /// `reported / exact` when both exist. The guarantees are those the
    /// repository's own tests check: `≤ 2g − 1` for girth,
    /// `≤ ⌈(2 + ε)·opt⌉ + 2` for directed weighted, and the exact
    /// `q`-truncated girth for detection.
    pub fn check(self, reported: Option<Weight>, exact: Option<Weight>) -> Result<f64, String> {
        let expected = match self {
            Workload::DetectEngine => exact.filter(|&g| g <= DETECT_Q),
            _ => exact,
        };
        let (w, opt) = match (reported, expected) {
            (None, None) => return Ok(1.0),
            (Some(w), Some(opt)) => (w, opt),
            (got, want) => return Err(format!("cyclicity mismatch: got {got:?}, want {want:?}")),
        };
        let bound = match self {
            Workload::GirthUnit => 2 * opt - 1,
            Workload::WeightedDirected => ((2.0 + EPSILON) * opt as f64).ceil() as Weight + 2,
            Workload::DetectEngine => opt,
        };
        if w < opt {
            return Err(format!("underestimate: {w} < {opt}"));
        }
        if w > bound {
            return Err(format!("beyond bound: {w} > {bound} (opt {opt})"));
        }
        Ok(w as f64 / opt as f64)
    }
}

/// Derives the `index`-th seed of a stream from the workload seed; the
/// workload and the stream (graphs or algorithm seeds) pick separate
/// seed domains.
fn derive_seed(workload: Workload, seed: u64, stream: u64, index: u64) -> u64 {
    let mut state = seed ^ ((workload as u64) << 56) ^ (stream << 48);
    let mut state = mwc_rng::splitmix64(&mut state) ^ index;
    mwc_rng::splitmix64(&mut state)
}

/// One instance: a graph of the set and an algorithm seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Index into [`InstanceSet::graphs`].
    pub graph: usize,
    /// Seed passed to `Params::with_seed`.
    pub params_seed: u64,
}

/// A workload's seeded inputs and their reference answers.
pub struct InstanceSet {
    /// The workload the set belongs to.
    pub workload: Workload,
    /// The input graphs.
    pub graphs: Vec<Graph>,
    /// The oracle's answer per graph.
    pub reference: Vec<Option<Weight>>,
    /// The instances in solve order.
    pub instances: Vec<Instance>,
    /// Host seconds spent generating the graphs.
    pub build_s: f64,
    /// Host seconds spent in the oracle.
    pub oracle_s: f64,
}

impl InstanceSet {
    /// Builds the set for `seed`: the same seed gives the same set.
    pub fn build(workload: Workload, shape: Shape, seed: u64) -> InstanceSet {
        let start = Instant::now();
        let graphs: Vec<Graph> = (0..shape.graphs)
            .map(|i| workload.generate(shape.n, derive_seed(workload, seed, 0, i as u64)))
            .collect();
        let built = Instant::now();
        let reference = graphs.iter().map(|g| workload.reference(g)).collect();
        let oracle_s = built.elapsed().as_secs_f64();
        let instances = (0..shape.graphs)
            .flat_map(|graph| {
                (0..shape.seeds_per_graph).map(move |j| Instance {
                    graph,
                    params_seed: derive_seed(
                        workload,
                        seed,
                        1,
                        (graph * shape.seeds_per_graph + j) as u64,
                    ),
                })
            })
            .collect();
        InstanceSet {
            workload,
            graphs,
            reference,
            instances,
            build_s: (built - start).as_secs_f64(),
            oracle_s,
        }
    }
}

/// The outcome of one checked solve.
#[derive(Debug)]
pub struct Sample {
    /// Host nanoseconds of the entry call plus witness validation.
    pub solve_ns: u64,
    /// Host nanoseconds of witness validation alone.
    pub validate_ns: u64,
    /// Host nanoseconds of the probe run just before the solve; 0 when
    /// none ran.
    pub probe_ns: u64,
    /// Simulated rounds (`ledger.rounds`).
    pub rounds: u64,
    /// Simulated words (`ledger.words`).
    pub words: u64,
    /// Reported weight.
    pub weight: Option<Weight>,
    /// Reported ÷ exact weight; 1.0 when neither exists.
    pub ratio: f64,
    /// Why the instance failed, if it did.
    pub error: Option<String>,
}

/// Solves instance `i` of `set` and checks the answer. A panic inside
/// the library is caught and reported as a failed sample.
pub fn run_instance(set: &InstanceSet, i: usize) -> Sample {
    let inst = set.instances[i];
    let g = &set.graphs[inst.graph];
    let start = Instant::now();
    let solved = catch_unwind(AssertUnwindSafe(|| set.workload.solve(g, inst.params_seed)));
    let mid = Instant::now();
    let validated = solved
        .as_ref()
        .ok()
        .map(|out| out.witness.as_ref().map(|w| w.validate(g)));
    let end = Instant::now();
    let mut sample = Sample {
        solve_ns: (end - start).as_nanos() as u64,
        validate_ns: (end - mid).as_nanos() as u64,
        probe_ns: 0,
        rounds: 0,
        words: 0,
        weight: None,
        ratio: 1.0,
        error: None,
    };
    let out = match solved {
        Ok(out) => out,
        Err(_) => {
            sample.error = Some("entry point panicked".into());
            return sample;
        }
    };
    sample.rounds = out.ledger.rounds;
    sample.words = out.ledger.words;
    sample.weight = out.weight;
    let witnessed = match validated.flatten() {
        None => None,
        Some(Ok(w)) => Some(w),
        Some(Err(e)) => {
            sample.error = Some(format!("invalid witness: {e:?}"));
            return sample;
        }
    };
    if witnessed != out.weight {
        sample.error = Some(format!(
            "witness weighs {witnessed:?}, reported {:?}",
            out.weight
        ));
        return sample;
    }
    match set.workload.check(out.weight, set.reference[inst.graph]) {
        Ok(ratio) => sample.ratio = ratio,
        Err(e) => sample.error = Some(e),
    }
    sample
}

/// Times one run of `probe`, then takes a sample and records the probe's
/// wall on it.
pub fn probed(probe: &Probe, sample: impl FnOnce() -> Sample) -> Sample {
    let probe_ns = probe.time_ns();
    Sample {
        probe_ns,
        ..sample()
    }
}

/// Solves the set pass after pass until `budget` has elapsed and at
/// least `min_samples` solves are done, always finishing the pass in
/// progress, and returns every sample in solve order. A repeated
/// instance whose ledger or weight differs from its first solve is
/// marked failed.
pub fn closed_loop(
    set: &InstanceSet,
    budget: Duration,
    min_samples: usize,
    mut solve: impl FnMut(usize) -> Sample,
) -> Vec<Sample> {
    let len = set.instances.len();
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        for i in 0..len {
            let mut s = solve(i);
            if let Some(first) = samples.get(i) {
                let same =
                    (first.rounds, first.words, first.weight) == (s.rounds, s.words, s.weight);
                if !same && s.error.is_none() {
                    s.error = Some("differs from the first solve".into());
                }
            }
            samples.push(s);
        }
        if start.elapsed() >= budget && samples.len() >= min_samples {
            return samples;
        }
    }
}

/// The median of `values` (mean of the middle two for even counts).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile of `values`, `0 < p ≤ 1`.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Deterministic totals of one pass over the instance set.
#[derive(Clone, Debug, PartialEq)]
pub struct PassTotals {
    /// Σ `ledger.rounds`.
    pub rounds: u64,
    /// Σ `ledger.words`.
    pub words: u64,
    /// Worst reported ÷ exact weight.
    pub ratio_max: f64,
    /// Reported weight per instance.
    pub weights: Vec<Option<Weight>>,
}

impl PassTotals {
    /// Totals over `pass`, the samples of one pass.
    pub fn of(pass: &[Sample]) -> PassTotals {
        PassTotals {
            rounds: pass.iter().map(|s| s.rounds).sum(),
            words: pass.iter().map(|s| s.words).sum(),
            ratio_max: pass.iter().map(|s| s.ratio).fold(1.0, f64::max),
            weights: pass.iter().map(|s| s.weight).collect(),
        }
    }
}

/// The layers below the entry points, keyed by the span labels the
/// library emits.
pub const LAYERS: [&str; 8] = [
    "congest.multibfs",
    "congest.detect",
    "congest.tree",
    "core.girth",
    "core.directed",
    "core.weighted",
    "core.ksssp",
    "core.detection",
];

/// The index into [`LAYERS`] of a span label. `detect/cycle-within` is
/// core's detection entry; every other `detect/<label>` is congest's
/// source detection. Per-scale labels fold in by their prefix.
pub fn layer_of(label: &str) -> Option<usize> {
    let name = match label.split_once('/').map_or(label, |(p, _)| p) {
        "multibfs" => "congest.multibfs",
        "detect" if label == "detect/cycle-within" => "core.detection",
        "detect" => "congest.detect",
        "tree" => "congest.tree",
        "girth" => "core.girth",
        "directed" => "core.directed",
        "weighted" => "core.weighted",
        "ksssp" => "core.ksssp",
        _ => return None,
    };
    LAYERS.iter().position(|&l| l == name)
}

/// Span self-costs summed over a layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCost {
    /// Host wall nanoseconds.
    pub wall_ns: u64,
    /// Heap bytes allocated.
    pub alloc_bytes: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Simulated rounds.
    pub rounds: u64,
    /// Simulated words.
    pub words: u64,
}

impl LayerCost {
    fn add(&mut self, span: &SpanNode) {
        self.wall_ns += span.wall_ns;
        self.alloc_bytes += span.alloc_bytes;
        self.allocs += span.alloc_count;
        self.rounds += span.rounds;
        self.words += span.words;
    }
}

/// Per-layer self-costs folded from finished trace sessions.
#[derive(Debug, Default)]
pub struct LayerFold {
    /// Costs per entry of [`LAYERS`].
    pub layers: [LayerCost; 8],
    /// Labels of spans no layer claims.
    pub unmapped_labels: BTreeSet<String>,
    /// Phase-cache tallies.
    pub cache: mwc_trace::CacheTally,
    /// Worst measured ÷ theorem rounds over every bound audit.
    pub bound_ratio_max: f64,
}

impl LayerFold {
    /// Adds one session's spans, cache tally and audits.
    pub fn add(&mut self, data: &TraceData) {
        fn walk(fold: &mut LayerFold, span: &SpanNode) {
            match layer_of(&span.label) {
                Some(i) => fold.layers[i].add(span),
                None => {
                    fold.unmapped_labels.insert(span.label.clone());
                }
            }
            for c in &span.children {
                walk(fold, c);
            }
        }
        for root in &data.roots {
            walk(self, root);
        }
        self.cache.add(&data.cache);
        for a in data.all_audits() {
            self.bound_ratio_max = self.bound_ratio_max.max(a.ratio);
        }
    }

    /// Host wall summed over the layers.
    pub fn total_wall_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.wall_ns).sum()
    }
}

/// Solves instance `i` inside an in-memory trace session with span
/// profiling on, and folds the trace into `fold`.
pub fn run_traced(set: &InstanceSet, i: usize, fold: &mut LayerFold) -> Sample {
    mwc_trace::profile::set_thread_profiling(true);
    let session = TraceSession::memory();
    let sample = run_instance(set, i);
    fold.add(&session.finish());
    mwc_trace::profile::set_thread_profiling(false);
    sample
}

/// Command-line arguments of both binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The measuring budget.
    pub seconds: u64,
    /// Source revision to stamp on the result.
    pub rev: String,
}

impl Args {
    /// Parses `--workload W --seed S --seconds T [--rev R]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut rev) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
                }
                "--rev" => rev = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            rev: rev.unwrap_or_else(|| "unknown".into()),
        })
    }
}

/// Refuses knobs that move results away from the default configuration.
fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| REFUSED_ENV.contains(&k.as_str()) || k.starts_with("MWC_TRACE"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// The attribution stamp every result carries.
fn stamp(args: &Args, set: &InstanceSet, traced: bool) -> Json {
    let n = set.graphs.first().map_or(0, Graph::n);
    Json::obj([
        ("rev", Json::str(&args.rev)),
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::U64(args.seed)),
        ("traced", Json::Bool(traced)),
        ("instances", Json::U64(set.instances.len() as u64)),
        ("graphs", Json::U64(set.graphs.len() as u64)),
        ("n", Json::U64(n as u64)),
        (
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(0, |p| p.get() as u64)),
        ),
        ("flood_kernel", Json::str(flood_kernel().name())),
        ("jobs", Json::U64(mwc_par::jobs() as u64)),
        ("shards", Json::U64(mwc_par::shards() as u64)),
        ("cache_disabled", Json::Bool(cache_disabled())),
    ])
}

/// The benchmark process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// A named measurement with its unit.
struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    name: String,
    /// The measured value.
    value: f64,
    /// Its unit.
    unit: &'static str,
}

/// Shorthand for a [`Metric`].
fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics.collect())),
    ])
    .render()
}

/// The set-up of a run, repeated per [`SETUP_REPS`], with each
/// repetition's timings.
struct Setup {
    /// The instance set of the last repetition.
    set: InstanceSet,
    /// Seconds per repetition, generation plus oracle, scaled by the mean
    /// of the probe runs just before and just after it.
    total_s: Vec<f64>,
    /// Generation seconds per repetition.
    build_s: Vec<f64>,
    /// Oracle seconds per repetition.
    oracle_s: Vec<f64>,
}

impl Setup {
    /// Builds the instance set of `workload` for `seed`, repeatedly.
    fn run(workload: Workload, seed: u64, probe: &Probe) -> Setup {
        let (mut total_s, mut build_s, mut oracle_s) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let before = probe.time_ns();
            let start = Instant::now();
            let set = InstanceSet::build(workload, workload.shape(), seed);
            let wall_ns = start.elapsed().as_nanos() as u64;
            let after = probe.time_ns();
            total_s.push(scaled_ms(wall_ns, (before + after) / 2) / 1e3);
            build_s.push(set.build_s);
            oracle_s.push(set.oracle_s);
            if total_s.len() >= SETUP_REPS && total_s.iter().sum::<f64>() >= SETUP_MIN_SECONDS {
                return Setup {
                    set,
                    total_s,
                    build_s,
                    oracle_s,
                };
            }
        }
    }
}

/// Runs the benchmark: set-up, closed loop, checks, metrics. Prints the
/// stamp, the sample count and any failures first and the result line
/// last.
pub fn run(args: &Args, traced: bool) -> Result<(), String> {
    check_env()?;
    let probe = Probe::new();
    let setup = Setup::run(args.workload, args.seed, &probe);
    let set = &setup.set;
    println!(
        "{}",
        Json::obj([("stamp", stamp(args, set, traced))]).render()
    );

    let budget = Duration::from_secs(args.seconds);
    let floods_before = flood_engagement();
    let mut fold = LayerFold::default();
    let samples = if traced {
        closed_loop(set, budget, MIN_SAMPLES, |i| {
            probed(&probe, || run_traced(set, i, &mut fold))
        })
    } else {
        closed_loop(set, budget, MIN_SAMPLES, |i| {
            probed(&probe, || run_instance(set, i))
        })
    };
    let floods_after = flood_engagement();
    let floods = (
        floods_after.0 - floods_before.0,
        floods_after.1 - floods_before.1,
    );

    let len = set.instances.len();
    let failed = samples.iter().filter(|s| s.error.is_some()).count();
    for (k, s) in samples.iter().enumerate() {
        if let Some(e) = &s.error {
            println!("failed: pass {} instance {}: {e}", k / len, k % len);
        }
    }
    let (covered, metrics) = if traced {
        layer_metrics(&setup, &samples, &fold, floods)
    } else {
        (true, end_to_end_metrics(&setup, &samples, failed)?)
    };
    println!(
        "{}",
        result_line(
            covered && failed == 0,
            samples.len() as u64,
            failed as u64,
            &metrics
        )
    );
    Ok(())
}

/// The probe's raw wall per sample in milliseconds.
fn probe_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.probe_ns as f64 / 1e6).collect()
}

/// Solve wall per sample in milliseconds, scaled by the probe run before
/// it, and their nearest-rank p90, printed with the sample count behind
/// it and the probe's raw walls.
fn solve_ms(samples: &[Sample]) -> (Vec<f64>, f64) {
    let ms: Vec<f64> = samples
        .iter()
        .map(|s| scaled_ms(s.solve_ns, s.probe_ns))
        .collect();
    let p90 = quantile(&ms, 0.9);
    let probe_ms = probe_ms(samples);
    println!(
        "samples: {}, {} beyond p90; probe: median {:.3} ms, range {:.3}–{:.3} ms",
        ms.len(),
        ms.iter().filter(|&&t| t > p90).count(),
        median(&probe_ms),
        quantile(&probe_ms, 0.0),
        quantile(&probe_ms, 1.0),
    );
    (ms, p90)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end_metrics(
    setup: &Setup,
    samples: &[Sample],
    failed: usize,
) -> Result<Vec<Metric>, String> {
    let first = PassTotals::of(&samples[..setup.set.instances.len()]);
    let (ms, p90) = solve_ms(samples);
    let solve_s = ms.iter().sum::<f64>() / 1e3;
    Ok(vec![
        metric("solve_ms_p50", median(&ms), "ms"),
        metric("solve_ms_p90", p90, "ms"),
        metric("instances_per_s", samples.len() as f64 / solve_s, "1/s"),
        metric("setup_s", median(&setup.total_s), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric("sim_rounds", first.rounds as f64, "rounds"),
        metric("sim_words", first.words as f64, "words"),
        metric("approx_ratio_max", first.ratio_max, "ratio"),
        metric(
            "pass_frac",
            1.0 - failed as f64 / samples.len() as f64,
            "fraction",
        ),
    ])
}

/// The per-layer metrics of a traced run, and whether the span fold
/// covered the traced solve wall: every span mapped to a layer, and the
/// layers' self-times plus witness validation within 5 % of it. Costs
/// are per pass over the instance set.
fn layer_metrics(
    setup: &Setup,
    samples: &[Sample],
    fold: &LayerFold,
    floods: (u64, u64),
) -> (bool, Vec<Metric>) {
    let per_pass = setup.set.instances.len() as f64 / samples.len() as f64;
    let solve_ns: u64 = samples.iter().map(|s| s.solve_ns).sum();
    let validate_ns: u64 = samples.iter().map(|s| s.validate_ns).sum();
    let coverage = (fold.total_wall_ns() + validate_ns) as f64 / solve_ns as f64;
    let covered = fold.unmapped_labels.is_empty() && (0.95..=1.05).contains(&coverage);
    println!(
        "fold: {:.2}% of traced solve wall; unmapped spans {:?}",
        100.0 * coverage,
        fold.unmapped_labels
    );
    let (ms, _) = solve_ms(samples);
    let validate_us: Vec<f64> = samples.iter().map(|s| s.validate_ns as f64 / 1e3).collect();
    let mut metrics = vec![
        metric(
            "graph.generators.build_ms",
            1e3 * median(&setup.build_s),
            "ms",
        ),
        metric("graph.seq.oracle_ms", 1e3 * median(&setup.oracle_s), "ms"),
        metric("graph.witness.validate_us", median(&validate_us), "us"),
        metric("core.solve_ms", median(&ms), "ms"),
        metric("host.probe_ms", median(&probe_ms(samples)), "ms"),
    ];
    for (name, cost) in LAYERS.iter().zip(&fold.layers) {
        let share = cost.wall_ns as f64 / solve_ns as f64;
        metrics.push(metric(
            format!("{name}.self_ms"),
            per_pass * cost.wall_ns as f64 / 1e6,
            "ms",
        ));
        metrics.push(metric(format!("{name}.share_pct"), 100.0 * share, "%"));
        metrics.push(metric(
            format!("{name}.alloc_mb"),
            per_pass * cost.alloc_bytes as f64 / 1e6,
            "MB",
        ));
        metrics.push(metric(
            format!("{name}.allocs"),
            per_pass * cost.allocs as f64,
            "count",
        ));
        match *name {
            "congest.multibfs" | "congest.detect" => metrics.push(metric(
                format!("{name}.words"),
                per_pass * cost.words as f64,
                "words",
            )),
            "congest.tree" => metrics.push(metric(
                format!("{name}.rounds"),
                per_pass * cost.rounds as f64,
                "rounds",
            )),
            _ => {}
        }
    }
    let ratio = |part: u64, rest: u64| match part + rest {
        0 => 0.0,
        total => part as f64 / total as f64,
    };
    let c = &fold.cache;
    metrics.extend([
        metric(
            "congest.flood.bitset_share",
            ratio(floods.0, floods.1),
            "fraction",
        ),
        metric(
            "congest.cache.tree_hit_ratio",
            ratio(c.tree_hits, c.tree_misses),
            "fraction",
        ),
        metric(
            "congest.cache.latency_hit_ratio",
            ratio(c.latency_hits, c.latency_misses),
            "fraction",
        ),
        metric(
            "congest.cache.rounds_saved",
            per_pass * c.rounds_saved as f64,
            "rounds",
        ),
        metric("core.audit.bound_ratio_max", fold.bound_ratio_max, "ratio"),
        metric("trace.fold_coverage_pct", 100.0 * coverage, "%"),
    ]);
    (covered, metrics)
}

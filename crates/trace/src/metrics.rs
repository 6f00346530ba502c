//! OpenMetrics text exposition of run records.
//!
//! [`MetricsRegistry`] renders one or more [`RunRecord`]s as the
//! OpenMetrics / Prometheus text format — `# TYPE`/`# HELP` family
//! declarations, `name{labels} value` samples, a terminating `# EOF` —
//! with zero dependencies, so the bench bins can drop a scrape-ready
//! `results/metrics.prom` next to their run records.
//!
//! Two conventions keep the file compatible with the repo's determinism
//! contract:
//!
//! - **Gated** metrics (round/word/message counts, cache effectiveness,
//!   shard profiles) use the plain `mwc_` prefix and are byte-identical
//!   for any `--jobs` setting.
//! - **Informational** metrics (wall-clock, worker counters, the
//!   jobs/shards knobs themselves) use the `mwc_info_` prefix. Tests that
//!   byte-compare expositions strip sample lines starting `mwc_info_`;
//!   the `# TYPE`/`# HELP` lines of those families are static text and
//!   need no stripping.
//!
//! [`validate_openmetrics`] is the in-tree checker the perf gate runs on
//! the emitted file: it stays offline and enforces the structural rules a
//! real scraper would (declared-before-sampled families, `_total` suffix
//! on counters, escaped labels, exactly one trailing `# EOF`).

use crate::record::RunRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric family: declaration plus its accumulated samples.
struct Family {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    /// `(rendered label set, value)` in insertion order.
    samples: Vec<(String, u64)>,
}

/// Declaration order of every family the registry can emit. Fixed so the
/// exposition is byte-deterministic regardless of which records arrive.
const FAMILIES: &[(&str, &str, &str)] = &[
    (
        "mwc_rounds",
        "counter",
        "Total simulated CONGEST rounds charged by the run.",
    ),
    (
        "mwc_words",
        "counter",
        "Total words moved across all links.",
    ),
    (
        "mwc_messages",
        "counter",
        "Total messages delivered.",
    ),
    (
        "mwc_rounds_saved",
        "counter",
        "Rounds the phase cache avoided re-charging.",
    ),
    (
        "mwc_cache_tree_hits",
        "counter",
        "BFS trees replayed from the phase cache.",
    ),
    (
        "mwc_cache_tree_misses",
        "counter",
        "BFS trees built and charged for the first time.",
    ),
    (
        "mwc_cache_latency_hits",
        "counter",
        "Stretched latency tables reused from the phase cache.",
    ),
    (
        "mwc_cache_latency_misses",
        "counter",
        "Stretched latency tables derived for the first time.",
    ),
    (
        "mwc_congestion_rounds",
        "counter",
        "Rounds charged under one congestion label.",
    ),
    (
        "mwc_congestion_words",
        "counter",
        "Words moved under one congestion label.",
    ),
    (
        "mwc_congestion_max_words_in_round",
        "gauge",
        "Peak words transferred in any single round.",
    ),
    (
        "mwc_congestion_queue_high_water",
        "gauge",
        "High-water mark of any link's send queue.",
    ),
    (
        "mwc_shard_imbalance_milli",
        "gauge",
        "Max/mean shard load over the canonical reference partition, in milli-units (1000 = balanced).",
    ),
    (
        "mwc_shard_words",
        "counter",
        "Words moved per canonical reference shard.",
    ),
    (
        "mwc_alloc_bytes",
        "counter",
        "Heap bytes allocated during the run. Gated: emitted only for the default jobs=1, shards=1 configuration, where the allocation sequence is deterministic.",
    ),
    (
        "mwc_alloc_allocations",
        "counter",
        "Heap allocations performed during the run. Gated like mwc_alloc_bytes.",
    ),
    (
        "mwc_info_wall_ms",
        "gauge",
        "Host wall-clock of the run in milliseconds. Informational: machine-dependent, never gated.",
    ),
    (
        "mwc_info_shards",
        "gauge",
        "Engine shard count the run executed with. Informational.",
    ),
    (
        "mwc_info_jobs",
        "gauge",
        "Worker count the run executed with. Informational.",
    ),
    (
        "mwc_info_worker_tasks_executed",
        "gauge",
        "Fork-join task bodies executed by the worker pool. Informational.",
    ),
    (
        "mwc_info_worker_items_grafted",
        "gauge",
        "Sweep items mapped and joined in input order. Informational.",
    ),
    (
        "mwc_info_worker_idle_joins",
        "gauge",
        "Pool entry points that ran inline without spawning a worker. Informational.",
    ),
    (
        "mwc_info_worker_busy_ms",
        "gauge",
        "Coordinator wall-time inside the worker pool, milliseconds. Informational.",
    ),
    (
        "mwc_info_alloc_bytes",
        "gauge",
        "Heap bytes allocated during the run. Informational view, emitted for every configuration (schedule-dependent under parallelism).",
    ),
    (
        "mwc_info_alloc_allocations",
        "gauge",
        "Heap allocations performed during the run. Informational view, emitted for every configuration.",
    ),
    (
        "mwc_info_peak_alloc_bytes",
        "gauge",
        "Process-wide live-heap high-water mark in bytes. Informational: allocator- and schedule-dependent.",
    ),
    (
        "mwc_info_floods_bitset",
        "gauge",
        "Flood primitives the run dispatched to a bitset kernel (unit-latency or calendar-queue stretched). Informational.",
    ),
    (
        "mwc_info_floods_scalar",
        "gauge",
        "Flood primitives the run dispatched to the scalar reference kernel. Informational.",
    ),
];

/// Escapes a label value per the OpenMetrics ABNF: backslash, double
/// quote, and newline must be backslash-escaped.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Accumulates [`RunRecord`]s and renders them as one OpenMetrics text
/// exposition.
///
/// Records are keyed by the `bin` label (the record name); congestion
/// summaries additionally carry a `label` label, and per-shard samples a
/// `shard` index label. Rendering is byte-deterministic: family order is
/// fixed by declaration, sample order by record insertion.
///
/// # Examples
///
/// ```
/// use mwc_trace::{validate_openmetrics, MetricsRegistry, RunRecord, TraceData};
///
/// let mut reg = MetricsRegistry::new();
/// reg.add(&RunRecord::from_trace("demo", vec![], &TraceData::default()));
/// let text = reg.render();
/// assert!(text.ends_with("# EOF\n"));
/// validate_openmetrics(&text).unwrap();
/// ```
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry with every family declared and no samples.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            families: FAMILIES
                .iter()
                .map(|&(name, kind, help)| Family {
                    name,
                    kind,
                    help,
                    samples: Vec::new(),
                })
                .collect(),
        }
    }

    fn sample(&mut self, family: &str, labels: String, value: u64) {
        let f = self
            .families
            .iter_mut()
            .find(|f| f.name == family)
            .expect("family is declared in FAMILIES");
        f.samples.push((labels, value));
    }

    /// Folds one run record's metrics into the registry.
    pub fn add(&mut self, r: &RunRecord) {
        let bin = format!("bin=\"{}\"", escape_label(&r.name));
        self.sample("mwc_rounds", bin.clone(), r.rounds);
        self.sample("mwc_words", bin.clone(), r.words);
        self.sample("mwc_messages", bin.clone(), r.messages);
        self.sample("mwc_rounds_saved", bin.clone(), r.rounds_saved);
        self.sample("mwc_cache_tree_hits", bin.clone(), r.cache.tree_hits);
        self.sample("mwc_cache_tree_misses", bin.clone(), r.cache.tree_misses);
        self.sample("mwc_cache_latency_hits", bin.clone(), r.cache.latency_hits);
        self.sample(
            "mwc_cache_latency_misses",
            bin.clone(),
            r.cache.latency_misses,
        );
        for c in &r.congestion {
            let labels = format!("{bin},label=\"{}\"", escape_label(&c.label));
            self.sample("mwc_congestion_rounds", labels.clone(), c.rounds);
            self.sample("mwc_congestion_words", labels.clone(), c.words);
            self.sample(
                "mwc_congestion_max_words_in_round",
                labels.clone(),
                c.max_words_in_round,
            );
            self.sample(
                "mwc_congestion_queue_high_water",
                labels.clone(),
                c.queue_high_water,
            );
            self.sample(
                "mwc_shard_imbalance_milli",
                labels.clone(),
                c.shard_imbalance_milli,
            );
            for (i, &w) in c.shard_words.iter().enumerate() {
                self.sample("mwc_shard_words", format!("{labels},shard=\"{i}\""), w);
            }
        }
        // Allocation counters are deterministic only in the default
        // single-threaded configuration; there they sample as gated
        // counters. The `mwc_info_` gauges carry them (and the peak) in
        // every configuration, so parallel sweeps still get a profile —
        // just one that byte-comparisons strip.
        if r.jobs <= 1 && r.shards <= 1 {
            self.sample("mwc_alloc_bytes", bin.clone(), r.alloc_bytes);
            self.sample("mwc_alloc_allocations", bin.clone(), r.alloc_count);
        }
        self.sample("mwc_info_alloc_bytes", bin.clone(), r.alloc_bytes);
        self.sample("mwc_info_alloc_allocations", bin.clone(), r.alloc_count);
        self.sample("mwc_info_peak_alloc_bytes", bin.clone(), r.peak_alloc_bytes);
        self.sample("mwc_info_wall_ms", bin.clone(), r.wall_ms);
        self.sample("mwc_info_shards", bin.clone(), r.shards);
        self.sample("mwc_info_jobs", bin.clone(), r.jobs);
        self.sample(
            "mwc_info_worker_tasks_executed",
            bin.clone(),
            r.workers.tasks_executed,
        );
        self.sample(
            "mwc_info_worker_items_grafted",
            bin.clone(),
            r.workers.items_grafted,
        );
        self.sample(
            "mwc_info_worker_idle_joins",
            bin.clone(),
            r.workers.idle_joins,
        );
        self.sample("mwc_info_worker_busy_ms", bin.clone(), r.workers.busy_ms);
        self.sample("mwc_info_floods_bitset", bin.clone(), r.floods_bitset);
        self.sample("mwc_info_floods_scalar", bin, r.floods_scalar);
    }

    /// Renders the exposition. Families with no samples are omitted
    /// entirely (declaring a family with no samples is legal but noisy);
    /// the text always terminates with `# EOF`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            if f.samples.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let suffix = if f.kind == "counter" { "_total" } else { "" };
            for (labels, value) in &f.samples {
                let _ = writeln!(out, "{}{}{{{}}} {}", f.name, suffix, labels, value);
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Whether `name` is a legal OpenMetrics metric name.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses the `k="v",…` body of a label set, honoring escapes. Returns
/// an error message on malformed syntax.
fn check_labels(body: &str) -> Result<(), String> {
    let mut rest = body;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label {key:?} value is not quoted"));
        }
        // Scan the quoted value, honoring backslash escapes.
        let mut iter = rest[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = iter.next() {
            match c {
                '\\' => {
                    match iter.next() {
                        Some((_, 'n')) | Some((_, '\\')) | Some((_, '"')) => {}
                        _ => return Err(format!("bad escape in label {key:?}")),
                    };
                }
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| format!("unterminated value for label {key:?}"))?;
        rest = &rest[1 + end + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| format!("expected ',' between labels, got {rest:?}"))?;
    }
}

/// Validates an OpenMetrics text exposition: every sample's family must
/// be `# TYPE`-declared first (once), counter samples must carry the
/// `_total` suffix, label sets must parse, values must be numbers, and
/// the text must end with exactly one `# EOF`. Returns the first problem
/// found, with its line number.
pub fn validate_openmetrics(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut seen_eof = false;
    for (idx, line) in text.lines().enumerate() {
        let ln = idx + 1;
        if seen_eof {
            return Err(format!("line {ln}: content after # EOF"));
        }
        if line == "# EOF" {
            seen_eof = true;
            continue;
        }
        if line.is_empty() {
            return Err(format!("line {ln}: blank line"));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts
                .next()
                .ok_or_else(|| format!("line {ln}: {keyword} without a metric name"))?;
            if !valid_metric_name(name) {
                return Err(format!("line {ln}: bad metric name {name:?}"));
            }
            match keyword {
                "TYPE" => {
                    let kind = parts
                        .next()
                        .ok_or_else(|| format!("line {ln}: TYPE without a type"))?;
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "info") {
                        return Err(format!("line {ln}: unknown type {kind:?}"));
                    }
                    if types.insert(name, kind).is_some() {
                        return Err(format!("line {ln}: duplicate TYPE for {name}"));
                    }
                }
                "HELP" => {}
                other => return Err(format!("line {ln}: unknown comment keyword {other:?}")),
            }
            continue;
        }
        // A sample: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {ln}: sample without a value"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {ln}: bad sample name {name:?}"));
        }
        let rest = &line[name_end..];
        let value_str = if let Some(body) = rest.strip_prefix('{') {
            let close = body
                .rfind('}')
                .ok_or_else(|| format!("line {ln}: unterminated label set"))?;
            check_labels(&body[..close]).map_err(|e| format!("line {ln}: {e}"))?;
            body[close + 1..]
                .strip_prefix(' ')
                .ok_or_else(|| format!("line {ln}: missing value after labels"))?
        } else {
            &rest[1..]
        };
        value_str
            .parse::<f64>()
            .map_err(|_| format!("line {ln}: bad sample value {value_str:?}"))?;
        // Resolve the family: counters sample as <family>_total.
        let family_kind = types.get(name).copied();
        let counter_kind = name
            .strip_suffix("_total")
            .and_then(|f| types.get(f).copied());
        match (family_kind, counter_kind) {
            (_, Some("counter")) => {}
            (Some("counter"), _) => {
                return Err(format!(
                    "line {ln}: counter sample {name} missing _total suffix"
                ));
            }
            (Some(_), _) => {}
            (None, _) => {
                return Err(format!("line {ln}: sample {name} before its TYPE"));
            }
        }
    }
    if !seen_eof {
        return Err("missing # EOF terminator".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CacheTally, CongestionSummary, WorkerTally};

    fn sample_record() -> RunRecord {
        let mut r = RunRecord::from_trace(
            "table1_girth",
            vec![("n".into(), "64".into())],
            &crate::TraceData::default(),
        );
        r.rounds = 120;
        r.words = 900;
        r.messages = 45;
        r.rounds_saved = 12;
        r.wall_ms = 7;
        r.shards = 4;
        r.jobs = 2;
        r.cache = CacheTally {
            tree_hits: 3,
            tree_misses: 1,
            latency_hits: 6,
            latency_misses: 2,
            rounds_saved: 12,
        };
        r.workers = WorkerTally {
            tasks_executed: 10,
            items_grafted: 20,
            idle_joins: 1,
            busy_ms: 3,
        };
        r.congestion.push(CongestionSummary {
            label: "pipeline".into(),
            rounds: 120,
            words: 900,
            messages: 45,
            rounds_saved: 12,
            active_rounds: 80,
            max_words_in_round: 9,
            peak_round: 5,
            queue_high_water: 3,
            shard_imbalance_milli: 1250,
            shard_words: vec![300, 240, 200, 160],
            hot_links: vec![(0, 1, 50)],
        });
        r
    }

    #[test]
    fn exposition_validates_and_is_deterministic() {
        let mut reg = MetricsRegistry::new();
        reg.add(&sample_record());
        let a = reg.render();
        validate_openmetrics(&a).unwrap();
        let mut reg2 = MetricsRegistry::new();
        reg2.add(&sample_record());
        assert_eq!(a, reg2.render());
        assert!(a.ends_with("# EOF\n"));
        assert!(
            a.contains("mwc_rounds_total{bin=\"table1_girth\"} 120"),
            "{a}"
        );
        assert!(
            a.contains(
                "mwc_shard_words_total{bin=\"table1_girth\",label=\"pipeline\",shard=\"0\"} 300"
            ),
            "{a}"
        );
        assert!(
            a.contains("mwc_shard_imbalance_milli{bin=\"table1_girth\",label=\"pipeline\"} 1250"),
            "{a}"
        );
    }

    #[test]
    fn info_prefix_isolates_every_run_dependent_sample() {
        let mut reg_a = MetricsRegistry::new();
        reg_a.add(&sample_record());
        let mut r = sample_record();
        r.wall_ms = 9001;
        r.jobs = 16;
        r.shards = 1;
        r.workers = WorkerTally {
            tasks_executed: 999,
            items_grafted: 888,
            idle_joins: 7,
            busy_ms: 66,
        };
        r.floods_bitset = 21;
        r.floods_scalar = 4;
        let mut reg_b = MetricsRegistry::new();
        reg_b.add(&r);
        let strip = |text: &str| {
            text.lines()
                .filter(|l| !l.starts_with("mwc_info_"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_ne!(reg_a.render(), reg_b.render());
        assert_eq!(strip(&reg_a.render()), strip(&reg_b.render()));
        let b = reg_b.render();
        assert!(
            b.contains("mwc_info_floods_bitset{bin=\"table1_girth\"} 21"),
            "{b}"
        );
        assert!(
            b.contains("mwc_info_floods_scalar{bin=\"table1_girth\"} 4"),
            "{b}"
        );
    }

    #[test]
    fn alloc_samples_route_by_configuration() {
        // Default configuration: gated counters AND info gauges.
        let mut r = sample_record();
        r.shards = 1;
        r.jobs = 1;
        r.alloc_bytes = 4096;
        r.alloc_count = 7;
        r.peak_alloc_bytes = 2048;
        let mut reg = MetricsRegistry::new();
        reg.add(&r);
        let text = reg.render();
        validate_openmetrics(&text).unwrap();
        assert!(
            text.contains("mwc_alloc_bytes_total{bin=\"table1_girth\"} 4096"),
            "{text}"
        );
        assert!(
            text.contains("mwc_alloc_allocations_total{bin=\"table1_girth\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("mwc_info_peak_alloc_bytes{bin=\"table1_girth\"} 2048"),
            "{text}"
        );

        // Parallel configuration: info gauges only.
        r.jobs = 8;
        let mut reg = MetricsRegistry::new();
        reg.add(&r);
        let text = reg.render();
        validate_openmetrics(&text).unwrap();
        assert!(!text.contains("mwc_alloc_bytes_total"), "{text}");
        assert!(
            text.contains("mwc_info_alloc_bytes{bin=\"table1_girth\"} 4096"),
            "{text}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = sample_record();
        r.name = "odd\"name\\with\nstuff".into();
        let mut reg = MetricsRegistry::new();
        reg.add(&r);
        let text = reg.render();
        validate_openmetrics(&text).unwrap();
        assert!(
            text.contains("bin=\"odd\\\"name\\\\with\\nstuff\""),
            "{text}"
        );
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        let cases: &[(&str, &str)] = &[
            ("mwc_x_total{bin=\"a\"} 1\n# EOF\n", "before its TYPE"),
            (
                "# TYPE mwc_x counter\nmwc_x{bin=\"a\"} 1\n# EOF\n",
                "missing _total",
            ),
            (
                "# TYPE mwc_x counter\nmwc_x_total{bin=\"a\"} frog\n# EOF\n",
                "bad sample value",
            ),
            (
                "# TYPE mwc_x counter\n# TYPE mwc_x counter\n# EOF\n",
                "duplicate TYPE",
            ),
            ("# TYPE mwc_x counter\nmwc_x_total 1\n", "missing # EOF"),
            ("# EOF\nmwc_x_total 1\n", "content after # EOF"),
            (
                "# TYPE mwc_x gauge\nmwc_x{bin=\"a} 1\n# EOF\n",
                "unterminated",
            ),
            ("# TYPE mwc_x gauge\nmwc_x{bin=a} 1\n# EOF\n", "not quoted"),
            ("# FROG mwc_x gauge\n# EOF\n", "unknown comment keyword"),
            ("# TYPE mwc_x wibble\n# EOF\n", "unknown type"),
        ];
        for (text, want) in cases {
            let err = validate_openmetrics(text).unwrap_err();
            assert!(err.contains(want), "{text:?} -> {err:?}");
        }
    }

    #[test]
    fn gauge_samples_without_labels_validate() {
        let text = "# TYPE up gauge\nup 1\n# EOF\n";
        validate_openmetrics(text).unwrap();
    }

    #[test]
    fn empty_registry_renders_bare_eof() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.render(), "# EOF\n");
        validate_openmetrics(&reg.render()).unwrap();
    }
}

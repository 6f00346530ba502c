//! The canonical per-run record: one schema-versioned, byte-deterministic
//! JSON document summarizing everything a run's observability produced.
//!
//! A [`RunRecord`] is the unit the differential perf harness compares:
//! span round/word/message totals (aggregated by span *path* so repeated
//! subroutines fold together), per-ledger congestion summaries (hot links,
//! peak round, queue high-water), and per-algorithm bound-audit margins.
//! Records are committed under `results/baselines/` and regenerated by the
//! bench binaries into `results/run_records/`; `trace_diff` compares the
//! two span-by-span (see [`crate::diff`]).
//!
//! Determinism contract: every field is derived from simulated-round
//! accounting, spans and margins are sorted by key, and rendering goes
//! through [`Json`] — two same-seed runs produce byte-identical records.

use crate::audit::AuditRecord;
use crate::json::Json;
use crate::{SpanNode, TraceData};
use std::collections::BTreeMap;

/// Schema tag every record carries. Only this schema parses: a change
/// to the fields bumps the tag and converts the committed baselines in
/// the same change, so no reader has to accept older shapes.
pub const RUN_RECORD_SCHEMA: &str = "mwc-run-record/v9";

/// Separator between nested span labels in a [`SpanMetrics::path`].
/// Labels themselves use `/`, so nesting uses a distinct token.
pub const PATH_SEP: &str = " > ";

/// Phase-cache effectiveness across a run: hits/misses per cached
/// structure plus the rounds the hits avoided re-charging. Deterministic
/// (cache traffic is simulated-round accounting, independent of the
/// schedule), so every field is **gated** by `trace_diff` — hits with
/// inverted polarity (a drop to zero from a nonzero baseline means the
/// cache silently stopped firing), misses with normal polarity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// BFS trees replayed from the cache.
    pub tree_hits: u64,
    /// BFS trees built (and charged) for the first time.
    pub tree_misses: u64,
    /// Stretched latency tables reused.
    pub latency_hits: u64,
    /// Stretched latency tables derived for the first time.
    pub latency_misses: u64,
    /// Total rounds the tree hits avoided re-charging.
    pub rounds_saved: u64,
}

impl CacheTally {
    /// Folds another tally into this one (plain sums — scopes are
    /// disjoint, so counters add).
    pub fn add(&mut self, other: &CacheTally) {
        self.tree_hits += other.tree_hits;
        self.tree_misses += other.tree_misses;
        self.latency_hits += other.latency_hits;
        self.latency_misses += other.latency_misses;
        self.rounds_saved += other.rounds_saved;
    }

    /// Renders as a JSON object (insertion-ordered keys).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tree_hits", Json::U64(self.tree_hits)),
            ("tree_misses", Json::U64(self.tree_misses)),
            ("latency_hits", Json::U64(self.latency_hits)),
            ("latency_misses", Json::U64(self.latency_misses)),
            ("rounds_saved", Json::U64(self.rounds_saved)),
        ])
    }

    fn from_json(v: &Json) -> Result<CacheTally, String> {
        Ok(CacheTally {
            tree_hits: u64_field(v, "tree_hits")?,
            tree_misses: u64_field(v, "tree_misses")?,
            latency_hits: u64_field(v, "latency_hits")?,
            latency_misses: u64_field(v, "latency_misses")?,
            rounds_saved: u64_field(v, "rounds_saved")?,
        })
    }
}

/// `mwc-par` runtime counters stamped on a record by the bench recorder.
/// Every field is **informational**: how much pool work ran (and how
/// long the coordinator spent in it) depends on the `--jobs` schedule, which must stay invisible in gated artifacts — so
/// `diff_records` never compares any of this, following the `wall_ms`
/// convention.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerTally {
    /// Sweep items mapped and joined in input order.
    pub items_grafted: u64,
    /// Pool entry points that ran inline without spawning a worker.
    pub idle_joins: u64,
    /// Coordinator wall-time inside the pool, milliseconds.
    pub busy_ms: u64,
}

impl WorkerTally {
    /// Renders as a JSON object (insertion-ordered keys).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("items_grafted", Json::U64(self.items_grafted)),
            ("idle_joins", Json::U64(self.idle_joins)),
            ("busy_ms", Json::U64(self.busy_ms)),
        ])
    }

    fn from_json(v: &Json) -> Result<WorkerTally, String> {
        Ok(WorkerTally {
            items_grafted: u64_field(v, "items_grafted")?,
            idle_joins: u64_field(v, "idle_joins")?,
            busy_ms: u64_field(v, "busy_ms")?,
        })
    }
}

/// Aggregated self-cost metrics of one span path across a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanMetrics {
    /// Root-to-span label path, joined with [`PATH_SEP`].
    pub path: String,
    /// How many spans with this path the run opened.
    pub count: u64,
    /// Summed self rounds (descendants excluded — they have their own path).
    pub rounds: u64,
    /// Summed self words.
    pub words: u64,
    /// Summed self messages.
    pub messages: u64,
    /// Summed self phase-cache-saved rounds (audit trail, not cost).
    pub rounds_saved: u64,
    /// Summed self wall-nanoseconds (profiled; see `crate::profile`).
    /// **Informational only** — wall time is machine-dependent, so
    /// `diff_records` never compares it (the `wall_ms` convention). 0
    /// when profiling was off.
    pub wall_ns: u64,
    /// Summed self heap bytes allocated (profiled). **Conditionally
    /// gated**: deterministic — and diffed — only when both records ran
    /// with `jobs ≤ 1` (parallel sweeps move allocations to worker
    /// threads). 0 when profiling was off.
    pub alloc_bytes: u64,
    /// Summed self heap allocations (profiled). Gated like
    /// [`SpanMetrics::alloc_bytes`].
    pub alloc_count: u64,
}

/// Congestion shape of one ledger (usually one algorithm invocation),
/// aggregated across its phases.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CongestionSummary {
    /// Caller-chosen label, e.g. `"n=512/approx"`.
    pub label: String,
    /// Total rounds across the ledger's phases.
    pub rounds: u64,
    /// Total words moved.
    pub words: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Rounds the phase cache avoided re-charging (see
    /// `Ledger::rounds_saved` in `mwc-congest`).
    pub rounds_saved: u64,
    /// Rounds that actually transferred words.
    pub active_rounds: u64,
    /// Peak words transferred in any single round.
    pub max_words_in_round: u64,
    /// The (global, phase-offset) round at which the peak first occurred;
    /// 0 when the ledger saw no traffic.
    pub peak_round: u64,
    /// High-water mark of any link's send queue.
    pub queue_high_water: u64,
    /// Heaviest directed links as `(from, to, words)`, heaviest first,
    /// ties toward the lower `(from, to)` — deterministic by construction.
    pub hot_links: Vec<(u64, u64, u64)>,
    /// Imbalance ratio max/mean of [`CongestionSummary::shard_words`] in
    /// integer milli-units (1000 = balanced); 0 when no words moved.
    /// Deterministic (computed over the canonical reference partition)
    /// and gated.
    pub shard_imbalance_milli: u64,
    /// Words moved per canonical reference shard (see `ShardProfile` in
    /// `mwc-congest`). Deterministic and gated.
    pub shard_words: Vec<u64>,
}

/// Bound-audit margin of one algorithm across a run: how close measured
/// rounds came to the theoretical envelope.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditMargin {
    /// Audit name, e.g. `"core/approx_girth"`.
    pub algorithm: String,
    /// How many audits of this algorithm the run recorded.
    pub count: u64,
    /// Worst (largest) measured/bound ratio observed.
    pub max_ratio: f64,
    /// Measured rounds of the worst-ratio audit.
    pub max_measured: u64,
    /// Summed measured rounds across all audits of this algorithm.
    pub total_measured: u64,
}

/// Aggregates a trace's audits into per-algorithm margins, sorted by
/// algorithm name. Shared by [`RunRecord`] and the `trace_report` manifest.
pub fn audit_margins(audits: &[&AuditRecord]) -> Vec<AuditMargin> {
    let mut by_alg: BTreeMap<&str, AuditMargin> = BTreeMap::new();
    for a in audits {
        let m = by_alg.entry(&a.algorithm).or_insert_with(|| AuditMargin {
            algorithm: a.algorithm.clone(),
            ..AuditMargin::default()
        });
        m.count += 1;
        m.total_measured += a.measured_rounds;
        if a.ratio > m.max_ratio || m.count == 1 {
            m.max_ratio = a.ratio;
            m.max_measured = a.measured_rounds;
        }
    }
    by_alg.into_values().collect()
}

impl AuditMargin {
    /// Renders as a JSON object (insertion-ordered keys).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("algorithm", Json::str(&self.algorithm)),
            ("count", Json::U64(self.count)),
            ("max_ratio", Json::F64(self.max_ratio)),
            ("max_measured", Json::U64(self.max_measured)),
            ("total_measured", Json::U64(self.total_measured)),
        ])
    }

    fn from_json(v: &Json) -> Result<AuditMargin, String> {
        Ok(AuditMargin {
            algorithm: str_field(v, "algorithm")?,
            count: u64_field(v, "count")?,
            max_ratio: f64_field(v, "max_ratio")?,
            max_measured: u64_field(v, "max_measured")?,
            total_measured: u64_field(v, "total_measured")?,
        })
    }
}

/// The canonical per-run record. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Record name — by convention the emitting binary, e.g. `"table1_girth"`.
    pub name: String,
    /// The parameters the run was keyed on (sizes, seeds, ε…), in
    /// insertion order. Two records are only comparable when these match.
    pub params: Vec<(String, String)>,
    /// Total simulated rounds across all root spans.
    pub rounds: u64,
    /// Total words across all root spans.
    pub words: u64,
    /// Total messages across all root spans.
    pub messages: u64,
    /// Total phase-cache-saved rounds across all root spans — the rounds a
    /// pre-cache run would have charged on top of `rounds`.
    pub rounds_saved: u64,
    /// Host wall-clock of the run in milliseconds. **Informational only**:
    /// it is machine- and load-dependent, so `diff_records` never compares
    /// it — it exists so `BENCH_trajectory.json` shows a speed trajectory
    /// next to the gated round/word metrics. 0 when not measured.
    pub wall_ms: u64,
    /// Worker count the run executed with (`--jobs` / `MWC_JOBS`).
    /// **Informational only**, like `wall_ms`: the jobs count is pure
    /// scheduling and never moves a gated metric. 0 when not recorded
    /// (records built outside the bench recorder).
    pub jobs: u64,
    /// Floods this run executed — one `multi_source_bfs` /
    /// `charge_multi_source_bfs` / `source_detection` call each, memo
    /// replays included. **Informational only**, like `wall_ms`. 0 when
    /// not recorded (records built outside the bench recorder).
    pub floods: u64,
    /// Total heap bytes allocated across all root spans (profiled; see
    /// `crate::profile`). **Conditionally gated**: `diff_records`
    /// compares alloc metrics only when both records ran with
    /// `jobs ≤ 1` — where the single-threaded allocation sequence is
    /// deterministic per binary — and the baseline carries nonzero alloc
    /// data. 0 when profiling was off.
    pub alloc_bytes: u64,
    /// Total heap allocations across all root spans (profiled). Gated
    /// like [`RunRecord::alloc_bytes`].
    pub alloc_count: u64,
    /// Process-wide live-heap high-water mark during the run, in bytes.
    /// **Informational only**, like `wall_ms`: the peak depends on
    /// allocator layout and thread schedule. 0 when no counting
    /// allocator was installed.
    pub peak_alloc_bytes: u64,
    /// Phase-cache effectiveness across the run's trace sessions.
    /// Deterministic and **gated** (see [`CacheTally`]).
    pub cache: CacheTally,
    /// `mwc-par` runtime counters. **Informational only** (see
    /// [`WorkerTally`]); zero-default when not recorded.
    pub workers: WorkerTally,
    /// Per-path span aggregates, sorted by path.
    pub spans: Vec<SpanMetrics>,
    /// Congestion summaries in the order the run registered them.
    pub congestion: Vec<CongestionSummary>,
    /// Per-algorithm bound-audit margins, sorted by algorithm.
    pub audit_margins: Vec<AuditMargin>,
}

impl RunRecord {
    /// Builds a record from a finished trace. Congestion summaries are
    /// attached separately ([`RunRecord::push_congestion`]) because ledgers
    /// live outside the trace layer.
    pub fn from_trace(
        name: &str,
        params: impl IntoIterator<Item = (String, String)>,
        data: &TraceData,
    ) -> RunRecord {
        let mut by_path: BTreeMap<String, SpanMetrics> = BTreeMap::new();
        fn walk(node: &SpanNode, prefix: &str, by_path: &mut BTreeMap<String, SpanMetrics>) {
            let path = if prefix.is_empty() {
                node.label.clone()
            } else {
                format!("{prefix}{PATH_SEP}{}", node.label)
            };
            let m = by_path.entry(path.clone()).or_insert_with(|| SpanMetrics {
                path: path.clone(),
                ..SpanMetrics::default()
            });
            m.count += 1;
            m.rounds += node.rounds;
            m.words += node.words;
            m.messages += node.messages;
            m.rounds_saved += node.rounds_saved;
            m.wall_ns += node.wall_ns;
            m.alloc_bytes += node.alloc_bytes;
            m.alloc_count += node.alloc_count;
            for c in &node.children {
                walk(c, &path, by_path);
            }
        }
        for r in &data.roots {
            walk(r, "", &mut by_path);
        }
        RunRecord {
            name: name.to_owned(),
            params: params.into_iter().collect(),
            rounds: data.roots.iter().map(SpanNode::total_rounds).sum(),
            words: data.roots.iter().map(SpanNode::total_words).sum(),
            messages: data.roots.iter().map(SpanNode::total_messages).sum(),
            rounds_saved: data.roots.iter().map(SpanNode::total_rounds_saved).sum(),
            wall_ms: 0,
            jobs: 0,
            // The flood tally is a process-global counter, not trace
            // state; only the bench recorder stamps it (like `jobs`).
            floods: 0,
            alloc_bytes: data.roots.iter().map(SpanNode::total_alloc_bytes).sum(),
            alloc_count: data.roots.iter().map(SpanNode::total_alloc_count).sum(),
            // The peak is process-global allocator state, not trace
            // state; only the bench recorder stamps it (like `wall_ms`).
            peak_alloc_bytes: 0,
            cache: data.cache,
            // Worker counters are process-global and schedule-dependent;
            // only the bench recorder stamps them (in-process records
            // built straight from a trace must stay byte-identical across
            // jobs configurations).
            workers: WorkerTally::default(),
            spans: by_path.into_values().collect(),
            congestion: Vec::new(),
            audit_margins: audit_margins(&data.all_audits()),
        }
    }

    /// Appends one congestion summary (order is preserved and compared).
    pub fn push_congestion(&mut self, summary: CongestionSummary) {
        self.congestion.push(summary);
    }

    /// Renders the schema-versioned JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(RUN_RECORD_SCHEMA)),
            ("name", Json::str(&self.name)),
            (
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v)))
                        .collect(),
                ),
            ),
            ("rounds", Json::U64(self.rounds)),
            ("words", Json::U64(self.words)),
            ("messages", Json::U64(self.messages)),
            ("rounds_saved", Json::U64(self.rounds_saved)),
            ("wall_ms", Json::U64(self.wall_ms)),
            ("jobs", Json::U64(self.jobs)),
            ("floods", Json::U64(self.floods)),
            ("alloc_bytes", Json::U64(self.alloc_bytes)),
            ("alloc_count", Json::U64(self.alloc_count)),
            ("peak_alloc_bytes", Json::U64(self.peak_alloc_bytes)),
            ("cache", self.cache.to_json()),
            ("workers", self.workers.to_json()),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("path", Json::str(&s.path)),
                                ("count", Json::U64(s.count)),
                                ("rounds", Json::U64(s.rounds)),
                                ("words", Json::U64(s.words)),
                                ("messages", Json::U64(s.messages)),
                                ("rounds_saved", Json::U64(s.rounds_saved)),
                                ("wall_ns", Json::U64(s.wall_ns)),
                                ("alloc_bytes", Json::U64(s.alloc_bytes)),
                                ("alloc_count", Json::U64(s.alloc_count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "congestion",
                Json::Arr(
                    self.congestion
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("label", Json::str(&c.label)),
                                ("rounds", Json::U64(c.rounds)),
                                ("words", Json::U64(c.words)),
                                ("messages", Json::U64(c.messages)),
                                ("rounds_saved", Json::U64(c.rounds_saved)),
                                ("active_rounds", Json::U64(c.active_rounds)),
                                ("max_words_in_round", Json::U64(c.max_words_in_round)),
                                ("peak_round", Json::U64(c.peak_round)),
                                ("queue_high_water", Json::U64(c.queue_high_water)),
                                ("shard_imbalance_milli", Json::U64(c.shard_imbalance_milli)),
                                (
                                    "shard_words",
                                    Json::Arr(
                                        c.shard_words.iter().map(|&w| Json::U64(w)).collect(),
                                    ),
                                ),
                                (
                                    "hot_links",
                                    Json::Arr(
                                        c.hot_links
                                            .iter()
                                            .map(|&(f, t, w)| {
                                                Json::Arr(vec![
                                                    Json::U64(f),
                                                    Json::U64(t),
                                                    Json::U64(w),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "audit_margins",
                Json::Arr(
                    self.audit_margins
                        .iter()
                        .map(AuditMargin::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the pretty JSON text (the on-disk format).
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parses a record from its JSON text.
    ///
    /// # Errors
    ///
    /// A description of the malformed or schema-mismatched field.
    pub fn parse(text: &str) -> Result<RunRecord, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        RunRecord::from_json(&v)
    }

    /// Reconstructs a record from a parsed JSON document.
    ///
    /// # Errors
    ///
    /// A description of the malformed or schema-mismatched field.
    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        let schema = str_field(v, "schema")?;
        if schema != RUN_RECORD_SCHEMA {
            return Err(format!(
                "schema mismatch: got {schema:?}, expected {RUN_RECORD_SCHEMA:?}"
            ));
        }
        let params = match v.get("params") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_owned()))
                        .ok_or_else(|| format!("param {k:?} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing params object".into()),
        };
        let spans = arr_field(v, "spans")?
            .iter()
            .map(|s| {
                Ok(SpanMetrics {
                    path: str_field(s, "path")?,
                    count: u64_field(s, "count")?,
                    rounds: u64_field(s, "rounds")?,
                    words: u64_field(s, "words")?,
                    messages: u64_field(s, "messages")?,
                    rounds_saved: u64_field(s, "rounds_saved")?,
                    wall_ns: u64_field(s, "wall_ns")?,
                    alloc_bytes: u64_field(s, "alloc_bytes")?,
                    alloc_count: u64_field(s, "alloc_count")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let congestion = arr_field(v, "congestion")?
            .iter()
            .map(|c| {
                let hot_links = arr_field(c, "hot_links")?
                    .iter()
                    .map(|l| {
                        let parts = l.as_arr().ok_or("hot link is not an array")?;
                        match parts {
                            [f, t, w] => Ok((
                                f.as_u64().ok_or("bad hot link from")?,
                                t.as_u64().ok_or("bad hot link to")?,
                                w.as_u64().ok_or("bad hot link words")?,
                            )),
                            _ => Err("hot link is not a triple".to_owned()),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let shard_words = arr_field(c, "shard_words")?
                    .iter()
                    .map(|w| w.as_u64().ok_or("bad shard_words entry"))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(CongestionSummary {
                    label: str_field(c, "label")?,
                    rounds: u64_field(c, "rounds")?,
                    words: u64_field(c, "words")?,
                    messages: u64_field(c, "messages")?,
                    rounds_saved: u64_field(c, "rounds_saved")?,
                    active_rounds: u64_field(c, "active_rounds")?,
                    max_words_in_round: u64_field(c, "max_words_in_round")?,
                    peak_round: u64_field(c, "peak_round")?,
                    queue_high_water: u64_field(c, "queue_high_water")?,
                    shard_imbalance_milli: u64_field(c, "shard_imbalance_milli")?,
                    shard_words,
                    hot_links,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let audit_margins = arr_field(v, "audit_margins")?
            .iter()
            .map(AuditMargin::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunRecord {
            name: str_field(v, "name")?,
            params,
            rounds: u64_field(v, "rounds")?,
            words: u64_field(v, "words")?,
            messages: u64_field(v, "messages")?,
            rounds_saved: u64_field(v, "rounds_saved")?,
            wall_ms: u64_field(v, "wall_ms")?,
            jobs: u64_field(v, "jobs")?,
            floods: u64_field(v, "floods")?,
            alloc_bytes: u64_field(v, "alloc_bytes")?,
            alloc_count: u64_field(v, "alloc_count")?,
            peak_alloc_bytes: u64_field(v, "peak_alloc_bytes")?,
            cache: CacheTally::from_json(field(v, "cache")?)?,
            workers: WorkerTally::from_json(field(v, "workers")?)?,
            spans,
            congestion,
            audit_margins,
        })
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing f64 field {key:?}"))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add_cost, check_bound, span, BoundInputs, TraceSession};

    fn sample_record() -> RunRecord {
        let session = TraceSession::memory();
        for _ in 0..2 {
            let _o = span("algo");
            add_cost(5, 50, 2);
            {
                let _i = span("algo/phase");
                add_cost(3, 30, 1);
            }
            check_bound("test/algo", BoundInputs::n(16).h(4), 8, |i| {
                4.0 * i.h as f64
            });
        }
        let data = session.finish();
        let mut rec = RunRecord::from_trace("sample", [("n".to_owned(), "16".to_owned())], &data);
        rec.push_congestion(CongestionSummary {
            label: "main".into(),
            rounds: 16,
            words: 160,
            messages: 6,
            rounds_saved: 0,
            active_rounds: 12,
            max_words_in_round: 9,
            peak_round: 3,
            queue_high_water: 2,
            hot_links: vec![(0, 1, 40), (1, 2, 12)],
            shard_imbalance_milli: 1250,
            shard_words: vec![50, 40, 40, 30],
        });
        rec
    }

    #[test]
    fn spans_aggregate_by_path() {
        let rec = sample_record();
        assert_eq!(rec.rounds, 16);
        assert_eq!(rec.words, 160);
        assert_eq!(rec.messages, 6);
        assert_eq!(rec.spans.len(), 2);
        let outer = &rec.spans[0];
        assert_eq!(outer.path, "algo");
        assert_eq!(outer.count, 2);
        assert_eq!(outer.rounds, 10); // self cost only
        let inner = &rec.spans[1];
        assert_eq!(inner.path, format!("algo{PATH_SEP}algo/phase"));
        assert_eq!(inner.rounds, 6);
        assert_eq!(rec.audit_margins.len(), 1);
        assert_eq!(rec.audit_margins[0].count, 2);
        assert_eq!(rec.audit_margins[0].total_measured, 16);
        assert!((rec.audit_margins[0].max_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_is_lossless_and_deterministic() {
        let rec = sample_record();
        let text = rec.render();
        let back = RunRecord::parse(&text).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.render(), text);
        assert!(text.contains(RUN_RECORD_SCHEMA));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        for other in ["/v99", "/v8"] {
            let text = sample_record().render().replace("/v9", other);
            let err = RunRecord::parse(&text).unwrap_err();
            assert!(err.contains("schema mismatch"), "{other}: {err}");
        }
    }

    #[test]
    fn every_field_is_required() {
        // No field has a default: a record missing any member (here one
        // top-level count, one object and one per-span count) is rejected
        // by name rather than read as zero.
        let text = sample_record().render();
        for (member, key) in [
            ("\"floods\": 0,\n", "floods"),
            ("\"peak_alloc_bytes\": 0,\n", "peak_alloc_bytes"),
            ("\"wall_ns\": 0,\n", "wall_ns"),
        ] {
            assert!(text.contains(member), "{key} rendered");
            let cut = text.replacen(member, "", 1);
            let err = RunRecord::parse(&cut).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{key}: {err}");
        }
    }

    #[test]
    fn floods_round_trip_but_never_gate() {
        let mut rec = sample_record();
        rec.floods = 37;
        let back = RunRecord::parse(&rec.render()).unwrap();
        assert_eq!(back.floods, 37);
        // A run full of floods diffs clean against an unstamped baseline:
        // the tally is informational, like `wall_ms`.
        let base = sample_record();
        let diff = crate::diff_records(&base, &rec, &crate::DiffConfig::default());
        assert_eq!(diff.regression_count(), 0);
        assert!(diff.entries.iter().all(|e| e.metric != "floods"));
    }

    #[test]
    fn profile_fields_round_trip() {
        let mut rec = sample_record();
        rec.alloc_bytes = 4096;
        rec.alloc_count = 12;
        rec.peak_alloc_bytes = 777_000;
        rec.spans[0].wall_ns = 1_500_000;
        rec.spans[0].alloc_bytes = 4000;
        rec.spans[0].alloc_count = 10;
        rec.spans[1].alloc_bytes = 96;
        rec.spans[1].alloc_count = 2;
        let back = RunRecord::parse(&rec.render()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn from_trace_sums_profiled_spans() {
        crate::profile::set_thread_profiling(true);
        let session = TraceSession::memory();
        {
            let _o = span("p");
            crate::profile::note_alloc(64);
            {
                let _i = span("q");
                crate::profile::note_alloc(32);
            }
        }
        let data = session.finish();
        crate::profile::set_thread_profiling(false);
        let rec = RunRecord::from_trace("prof", [], &data);
        assert_eq!(rec.alloc_bytes, 96);
        assert_eq!(rec.alloc_count, 2);
        assert_eq!(rec.peak_alloc_bytes, 0, "peak is stamped by recorders");
        let total_span_bytes: u64 = rec.spans.iter().map(|s| s.alloc_bytes).sum();
        assert_eq!(total_span_bytes, rec.alloc_bytes);
    }

    #[test]
    fn jobs_and_workers_round_trip_but_never_gate() {
        let mut rec = sample_record();
        rec.jobs = 8;
        rec.workers = WorkerTally {
            items_grafted: 17,
            idle_joins: 3,
            busy_ms: 999,
        };
        let back = RunRecord::parse(&rec.render()).unwrap();
        assert_eq!(back.jobs, 8);
        assert_eq!(back.workers, rec.workers);
        // Schedule-dependent counters are informational: a record full of
        // pool activity diffs clean against an idle baseline.
        let base = sample_record();
        let diff = crate::diff_records(&base, &rec, &crate::DiffConfig::default());
        assert_eq!(diff.regression_count(), 0);
        assert!(diff
            .entries
            .iter()
            .all(|e| e.metric != "jobs" && !e.metric.starts_with("workers")));
    }

    #[test]
    fn cache_tally_round_trips() {
        let mut rec = sample_record();
        rec.cache = CacheTally {
            tree_hits: 5,
            tree_misses: 2,
            latency_hits: 7,
            latency_misses: 3,
            rounds_saved: 61,
        };
        let back = RunRecord::parse(&rec.render()).unwrap();
        assert_eq!(back.cache, rec.cache);
    }

    #[test]
    fn wall_ms_round_trips_but_never_gates() {
        let mut rec = sample_record();
        rec.wall_ms = 1234;
        let back = RunRecord::parse(&rec.render()).unwrap();
        assert_eq!(back.wall_ms, 1234);
        // Two records differing only in wall_ms diff clean: wall-clock is
        // informational, the perf gate pins simulated-round metrics only.
        let base = sample_record();
        let diff = crate::diff_records(&base, &rec, &crate::DiffConfig::default());
        assert_eq!(diff.regression_count(), 0);
        assert!(diff.entries.iter().all(|e| e.metric != "wall_ms"));
    }

    #[test]
    fn margins_track_worst_ratio() {
        let session = TraceSession::memory();
        check_bound("a", BoundInputs::n(4), 2, |_| 10.0);
        check_bound("a", BoundInputs::n(4), 9, |_| 10.0);
        check_bound("a", BoundInputs::n(4), 1, |_| 10.0);
        let data = session.finish();
        let margins = audit_margins(&data.all_audits());
        assert_eq!(margins.len(), 1);
        assert_eq!(margins[0].count, 3);
        assert_eq!(margins[0].max_measured, 9);
        assert_eq!(margins[0].total_measured, 12);
        assert!((margins[0].max_ratio - 0.9).abs() < 1e-12);
    }
}

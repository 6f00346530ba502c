//! Differential comparison of two [`RunRecord`]s — the perf-regression
//! gate's core.
//!
//! [`diff_records`] compares a fresh record against a committed baseline
//! span-by-span, congestion-summary-by-summary, and audit-by-audit,
//! exactly: same-seed runs are byte-deterministic, so any delta is a real
//! change. The result is both machine-readable ([`RunDiff::to_json`]) and
//! human-readable ([`RunDiff::render`] names the culprit span and
//! metric); `trace_diff` exits nonzero iff [`RunDiff::has_regression`].
//!
//! Semantics:
//!
//! - Two records are **incomparable** when their names, schemas, or
//!   parameters differ — that is a configuration error, not a perf
//!   verdict, and gets its own exit code.
//! - A *regression* is a metric exceeding baseline, a span/summary/audit
//!   that disappeared, or a new one that appeared (structure drift
//!   silently invalidates the comparison, so it fails loudly).
//! - *Improvements* (metric below baseline) are reported but never fail
//!   the gate; refresh the baseline to lock them in.

use crate::json::Json;
use crate::record::RunRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What happened to one compared metric or structural key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffStatus {
    /// Fresh exceeds baseline (or, for a cache-effectiveness counter,
    /// collapsed to zero).
    Regressed,
    /// Fresh is strictly better than baseline.
    Improved,
    /// A cache-effectiveness counter fell but stayed nonzero: reported,
    /// never failing the gate.
    WithinTolerance,
    /// Key present in the baseline but missing from the fresh record.
    Removed,
    /// Key present in the fresh record but not the baseline.
    Added,
}

impl DiffStatus {
    fn as_str(self) -> &'static str {
        match self {
            DiffStatus::Regressed => "REGRESSED",
            DiffStatus::Improved => "improved",
            DiffStatus::WithinTolerance => "within-tolerance",
            DiffStatus::Removed => "REMOVED",
            DiffStatus::Added => "ADDED",
        }
    }

    /// Whether this status fails the gate.
    pub fn is_regression(self) -> bool {
        matches!(
            self,
            DiffStatus::Regressed | DiffStatus::Removed | DiffStatus::Added
        )
    }
}

/// One changed metric (or structural drift) between baseline and fresh.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffEntry {
    /// Which record section: `"total"`, `"cache"`, `"span"`,
    /// `"congestion"`, `"audit"`.
    pub section: &'static str,
    /// The key inside the section (span path, summary label, algorithm);
    /// empty for totals.
    pub key: String,
    /// The metric name, e.g. `"rounds"`.
    pub metric: &'static str,
    /// Baseline value (0 for [`DiffStatus::Added`]).
    pub base: f64,
    /// Fresh value (0 for [`DiffStatus::Removed`]).
    pub fresh: f64,
    /// Verdict for this entry.
    pub status: DiffStatus,
}

impl DiffEntry {
    fn render(&self) -> String {
        let delta = self.fresh - self.base;
        let pct = if self.base != 0.0 {
            format!(", {:+.2}%", 100.0 * delta / self.base)
        } else {
            String::new()
        };
        let key = if self.key.is_empty() {
            String::new()
        } else {
            format!(" {}", self.key)
        };
        format!(
            "{:<16} {}{} {}: {} -> {} ({:+}{})",
            self.status.as_str(),
            self.section,
            key,
            self.metric,
            trim_num(self.base),
            trim_num(self.fresh),
            delta,
            pct
        )
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("section", Json::str(self.section)),
            ("key", Json::str(&self.key)),
            ("metric", Json::str(self.metric)),
            ("base", Json::F64(self.base)),
            ("fresh", Json::F64(self.fresh)),
            ("status", Json::str(self.status.as_str())),
        ])
    }
}

fn trim_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// The outcome of diffing one record pair.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunDiff {
    /// The records' shared name.
    pub name: String,
    /// Why the records cannot be compared at all (name/param mismatch);
    /// when set, `entries` is empty and the gate must treat the pair as a
    /// configuration error, not a pass.
    pub incomparable: Option<String>,
    /// Every changed metric and structural drift, in record order.
    pub entries: Vec<DiffEntry>,
}

impl RunDiff {
    /// `true` iff any entry fails the gate (or the pair is incomparable).
    pub fn has_regression(&self) -> bool {
        self.incomparable.is_some() || self.entries.iter().any(|e| e.status.is_regression())
    }

    /// Number of gate-failing entries.
    pub fn regression_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.status.is_regression())
            .count()
    }

    /// Human-readable report; names the culprit span/metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== trace_diff: {} ==", self.name);
        if let Some(why) = &self.incomparable {
            let _ = writeln!(out, "INCOMPARABLE     {why}");
            return out;
        }
        if self.entries.is_empty() {
            let _ = writeln!(out, "no deltas (records identical)");
            return out;
        }
        for e in &self.entries {
            let _ = writeln!(out, "{}", e.render());
        }
        let _ = writeln!(
            out,
            "{} regression(s), {} entr(y/ies) total",
            self.regression_count(),
            self.entries.len()
        );
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            (
                "incomparable",
                self.incomparable.as_deref().map_or(Json::Null, Json::str),
            ),
            ("regressions", Json::U64(self.regression_count() as u64)),
            (
                "entries",
                Json::Arr(self.entries.iter().map(DiffEntry::to_json).collect()),
            ),
        ])
    }
}

struct Differ {
    entries: Vec<DiffEntry>,
}

impl Differ {
    /// A cost metric: any increase regresses, any decrease improves.
    fn metric(
        &mut self,
        section: &'static str,
        key: &str,
        metric: &'static str,
        base: f64,
        fresh: f64,
    ) {
        if base == fresh {
            return;
        }
        let status = if fresh > base {
            DiffStatus::Regressed
        } else {
            DiffStatus::Improved
        };
        self.entries.push(DiffEntry {
            section,
            key: key.to_owned(),
            metric,
            base,
            fresh,
            status,
        });
    }

    fn structural(&mut self, section: &'static str, key: &str, status: DiffStatus, value: f64) {
        let (base, fresh) = match status {
            DiffStatus::Removed => (value, 0.0),
            _ => (0.0, value),
        };
        self.entries.push(DiffEntry {
            section,
            key: key.to_owned(),
            metric: "rounds",
            base,
            fresh,
            status,
        });
    }

    /// `rounds_saved` and the cache hit counters have inverted polarity:
    /// they measure cache effectiveness, so *more* is better and a
    /// collapse to zero (while the baseline was nonzero) means the phase
    /// cache silently stopped working — a regression, even though every
    /// cost metric would call the smaller number an improvement. A
    /// partial decrease passes: the workload may legitimately need fewer
    /// rebuilds.
    fn saved_metric(
        &mut self,
        section: &'static str,
        key: &str,
        metric: &'static str,
        base: u64,
        fresh: u64,
    ) {
        if base == fresh {
            return;
        }
        let status = if fresh == 0 && base > 0 {
            DiffStatus::Regressed
        } else if fresh > base {
            DiffStatus::Improved
        } else {
            DiffStatus::WithinTolerance
        };
        self.entries.push(DiffEntry {
            section,
            key: key.to_owned(),
            metric,
            base: base as f64,
            fresh: fresh as f64,
            status,
        });
    }

    fn cost_triple(
        &mut self,
        section: &'static str,
        key: &str,
        base: (u64, u64, u64),
        fresh: (u64, u64, u64),
    ) {
        self.metric(section, key, "rounds", base.0 as f64, fresh.0 as f64);
        self.metric(section, key, "words", base.1 as f64, fresh.1 as f64);
        self.metric(section, key, "messages", base.2 as f64, fresh.2 as f64);
    }
}

/// Whether allocation counters are compared between `base` and `fresh`.
/// They are deterministic only when both runs executed single-threaded
/// (`jobs ≤ 1` covers 0 = not recorded and 1 = explicit default): a
/// parallel sweep moves allocations onto worker threads and the counts
/// become schedule noise. They are also skipped against baselines with
/// no alloc data (recorded without the counting allocator) — a
/// zero-vs-nonzero diff there would gate on instrumentation coverage,
/// not on performance. `wall_ns` and `peak_alloc_bytes` are never
/// compared (`wall_ms` convention).
fn allocs_comparable(base: &RunRecord, fresh: &RunRecord) -> bool {
    base.jobs <= 1 && fresh.jobs <= 1 && (base.alloc_bytes > 0 || base.alloc_count > 0)
}

/// Compares `fresh` against `base`. See the module docs for semantics.
pub fn diff_records(base: &RunRecord, fresh: &RunRecord) -> RunDiff {
    if base.name != fresh.name {
        return RunDiff {
            name: format!("{} vs {}", base.name, fresh.name),
            incomparable: Some(format!(
                "record names differ: baseline {:?}, fresh {:?}",
                base.name, fresh.name
            )),
            entries: Vec::new(),
        };
    }
    if base.params != fresh.params {
        return RunDiff {
            name: base.name.clone(),
            incomparable: Some(format!(
                "params differ: baseline {:?}, fresh {:?} — regenerate the baseline \
                 with the gate's parameters",
                base.params, fresh.params
            )),
            entries: Vec::new(),
        };
    }

    let mut d = Differ {
        entries: Vec::new(),
    };

    d.cost_triple(
        "total",
        "",
        (base.rounds, base.words, base.messages),
        (fresh.rounds, fresh.words, fresh.messages),
    );
    d.saved_metric(
        "total",
        "",
        "rounds_saved",
        base.rounds_saved,
        fresh.rounds_saved,
    );

    let gate_allocs = allocs_comparable(base, fresh);
    if gate_allocs {
        d.metric(
            "total",
            "",
            "alloc_bytes",
            base.alloc_bytes as f64,
            fresh.alloc_bytes as f64,
        );
        d.metric(
            "total",
            "",
            "alloc_count",
            base.alloc_count as f64,
            fresh.alloc_count as f64,
        );
    }

    // Cache effectiveness (deterministic, gated). Hits share
    // `rounds_saved`'s inverted polarity; misses are plain cost counters.
    // `wall_ms`, `jobs` and `floods` are informational and deliberately
    // never compared.
    let (bc, fc) = (&base.cache, &fresh.cache);
    d.saved_metric("cache", "", "tree_hits", bc.tree_hits, fc.tree_hits);
    d.metric(
        "cache",
        "",
        "tree_misses",
        bc.tree_misses as f64,
        fc.tree_misses as f64,
    );
    d.saved_metric(
        "cache",
        "",
        "latency_hits",
        bc.latency_hits,
        fc.latency_hits,
    );
    d.metric(
        "cache",
        "",
        "latency_misses",
        bc.latency_misses as f64,
        fc.latency_misses as f64,
    );
    d.saved_metric(
        "cache",
        "",
        "rounds_saved",
        bc.rounds_saved,
        fc.rounds_saved,
    );

    // Spans: keyed by path (both sides sorted by construction).
    let base_spans: BTreeMap<&str, _> = base.spans.iter().map(|s| (s.path.as_str(), s)).collect();
    let fresh_spans: BTreeMap<&str, _> = fresh.spans.iter().map(|s| (s.path.as_str(), s)).collect();
    for (path, b) in &base_spans {
        match fresh_spans.get(path) {
            Some(f) => {
                d.cost_triple(
                    "span",
                    path,
                    (b.rounds, b.words, b.messages),
                    (f.rounds, f.words, f.messages),
                );
                d.saved_metric("span", path, "rounds_saved", b.rounds_saved, f.rounds_saved);
                if gate_allocs {
                    d.metric(
                        "span",
                        path,
                        "alloc_bytes",
                        b.alloc_bytes as f64,
                        f.alloc_bytes as f64,
                    );
                    d.metric(
                        "span",
                        path,
                        "alloc_count",
                        b.alloc_count as f64,
                        f.alloc_count as f64,
                    );
                }
                d.metric("span", path, "count", b.count as f64, f.count as f64);
            }
            None => d.structural("span", path, DiffStatus::Removed, b.rounds as f64),
        }
    }
    for (path, f) in &fresh_spans {
        if !base_spans.contains_key(path) {
            d.structural("span", path, DiffStatus::Added, f.rounds as f64);
        }
    }

    // Congestion summaries: keyed by label.
    let base_cong: BTreeMap<&str, _> = base
        .congestion
        .iter()
        .map(|c| (c.label.as_str(), c))
        .collect();
    let fresh_cong: BTreeMap<&str, _> = fresh
        .congestion
        .iter()
        .map(|c| (c.label.as_str(), c))
        .collect();
    for (label, b) in &base_cong {
        match fresh_cong.get(label) {
            Some(f) => {
                d.cost_triple(
                    "congestion",
                    label,
                    (b.rounds, b.words, b.messages),
                    (f.rounds, f.words, f.messages),
                );
                d.saved_metric(
                    "congestion",
                    label,
                    "rounds_saved",
                    b.rounds_saved,
                    f.rounds_saved,
                );
                d.metric(
                    "congestion",
                    label,
                    "max_words_in_round",
                    b.max_words_in_round as f64,
                    f.max_words_in_round as f64,
                );
                d.metric(
                    "congestion",
                    label,
                    "queue_high_water",
                    b.queue_high_water as f64,
                    f.queue_high_water as f64,
                );
            }
            None => d.structural("congestion", label, DiffStatus::Removed, b.rounds as f64),
        }
    }
    for (label, f) in &fresh_cong {
        if !base_cong.contains_key(label) {
            d.structural("congestion", label, DiffStatus::Added, f.rounds as f64);
        }
    }

    // Audit margins: keyed by algorithm.
    let base_aud: BTreeMap<&str, _> = base
        .audit_margins
        .iter()
        .map(|a| (a.algorithm.as_str(), a))
        .collect();
    let fresh_aud: BTreeMap<&str, _> = fresh
        .audit_margins
        .iter()
        .map(|a| (a.algorithm.as_str(), a))
        .collect();
    for (alg, b) in &base_aud {
        match fresh_aud.get(alg) {
            Some(f) => {
                d.metric("audit", alg, "max_ratio", b.max_ratio, f.max_ratio);
                d.metric("audit", alg, "count", b.count as f64, f.count as f64);
                d.metric(
                    "audit",
                    alg,
                    "total_measured",
                    b.total_measured as f64,
                    f.total_measured as f64,
                );
            }
            None => d.structural("audit", alg, DiffStatus::Removed, b.total_measured as f64),
        }
    }
    for (alg, f) in &fresh_aud {
        if !base_aud.contains_key(alg) {
            d.structural("audit", alg, DiffStatus::Added, f.total_measured as f64);
        }
    }

    RunDiff {
        name: base.name.clone(),
        incomparable: None,
        entries: d.entries,
    }
}

/// One span path's contribution to the divergence between two records —
/// the unit `trace_diff --top` ranks and its report's `triage` member
/// stores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriageEntry {
    /// The span path ([`crate::record::PATH_SEP`]-joined).
    pub path: String,
    /// Ranking score in integer milli-units: for each metric (rounds,
    /// words, and allocated bytes when the gate compares allocations), the
    /// span's |delta| as a fraction of the *baseline record total*,
    /// summed and scaled by 1000. 1000 ≈ "this span alone moved one
    /// whole metric by the entire baseline total". Integer so ranking is
    /// deterministic.
    pub score_milli: u64,
    /// Fresh minus baseline self rounds.
    pub rounds_delta: i64,
    /// Fresh minus baseline self words.
    pub words_delta: i64,
    /// Fresh minus baseline self allocated bytes.
    pub alloc_delta: i64,
}

impl TriageEntry {
    /// Renders as a JSON object (insertion-ordered keys).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("path", Json::str(&self.path)),
            ("score_milli", Json::U64(self.score_milli)),
            ("rounds_delta", Json::I64(self.rounds_delta)),
            ("words_delta", Json::I64(self.words_delta)),
            ("alloc_delta", Json::I64(self.alloc_delta)),
        ])
    }
}

/// Ranks every span path by its |delta| contribution between `base` and
/// `fresh` (union of paths; a path missing on one side counts as zero).
/// Alloc deltas contribute to the score only when [`diff_records`] would
/// compare allocations (see `allocs_comparable`). Paths with no movement
/// are omitted. Sorted by score descending, ties by path; improvements
/// rank alongside regressions, so callers that want an offender pick it
/// from a record whose diff regressed.
pub fn triage_spans(base: &RunRecord, fresh: &RunRecord) -> Vec<TriageEntry> {
    let score_allocs = allocs_comparable(base, fresh);
    let mut paths: Vec<&str> = base
        .spans
        .iter()
        .chain(fresh.spans.iter())
        .map(|s| s.path.as_str())
        .collect();
    paths.sort_unstable();
    paths.dedup();

    // |delta| · 1000 / max(baseline record total, 1), in integer math.
    let contribution =
        |delta: i64, total: u64| -> u64 { (delta.unsigned_abs() * 1000) / total.max(1) };

    let mut out = Vec::new();
    for path in paths {
        let b = base.spans.iter().find(|s| s.path == path);
        let f = fresh.spans.iter().find(|s| s.path == path);
        let field = |get: fn(&crate::record::SpanMetrics) -> u64| -> i64 {
            f.map_or(0, |s| get(s) as i64) - b.map_or(0, |s| get(s) as i64)
        };
        let rounds_delta = field(|s| s.rounds);
        let words_delta = field(|s| s.words);
        let alloc_delta = field(|s| s.alloc_bytes);
        let mut score =
            contribution(rounds_delta, base.rounds) + contribution(words_delta, base.words);
        if score_allocs {
            score += contribution(alloc_delta, base.alloc_bytes);
        }
        if rounds_delta == 0 && words_delta == 0 && (!score_allocs || alloc_delta == 0) {
            continue;
        }
        out.push(TriageEntry {
            path: path.to_owned(),
            score_milli: score,
            rounds_delta,
            words_delta,
            alloc_delta,
        });
    }
    out.sort_by(|a, b| {
        b.score_milli
            .cmp(&a.score_milli)
            .then_with(|| a.path.cmp(&b.path))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CacheTally, CongestionSummary, SpanMetrics};

    fn record() -> RunRecord {
        RunRecord {
            name: "t".into(),
            params: vec![("n".into(), "64".into())],
            rounds: 100,
            words: 1000,
            messages: 50,
            rounds_saved: 12,
            wall_ms: 0,
            jobs: 0,
            floods: 0,
            alloc_bytes: 10_000,
            alloc_count: 40,
            peak_alloc_bytes: 5_000,
            cache: CacheTally {
                tree_hits: 3,
                tree_misses: 1,
                latency_hits: 6,
                latency_misses: 2,
                rounds_saved: 12,
            },
            spans: vec![
                SpanMetrics {
                    path: "a".into(),
                    count: 1,
                    rounds: 60,
                    words: 600,
                    messages: 30,
                    rounds_saved: 12,
                    wall_ns: 0,
                    alloc_bytes: 6_000,
                    alloc_count: 25,
                },
                SpanMetrics {
                    path: "a > b".into(),
                    count: 2,
                    rounds: 40,
                    words: 400,
                    messages: 20,
                    rounds_saved: 0,
                    wall_ns: 0,
                    alloc_bytes: 4_000,
                    alloc_count: 15,
                },
            ],
            congestion: vec![CongestionSummary {
                label: "main".into(),
                rounds: 100,
                words: 1000,
                messages: 50,
                rounds_saved: 12,
                active_rounds: 80,
                max_words_in_round: 12,
                peak_round: 7,
                queue_high_water: 3,
                hot_links: vec![(0, 1, 99)],
            }],
            audit_margins: vec![crate::record::AuditMargin {
                algorithm: "core/x".into(),
                count: 2,
                max_ratio: 0.5,
                max_measured: 60,
                total_measured: 100,
            }],
        }
    }

    #[test]
    fn identical_records_have_no_deltas() {
        let d = diff_records(&record(), &record());
        assert!(!d.has_regression());
        assert!(d.entries.is_empty());
        assert!(d.render().contains("no deltas"));
    }

    #[test]
    fn one_extra_round_regresses_with_culprit_span() {
        let mut fresh = record();
        fresh.spans[1].rounds += 1;
        fresh.rounds += 1;
        let d = diff_records(&record(), &fresh);
        assert!(d.has_regression());
        assert_eq!(d.regression_count(), 2); // total + span
        let report = d.render();
        assert!(report.contains("REGRESSED"), "{report}");
        assert!(report.contains("a > b"), "culprit span named: {report}");
        assert!(report.contains("40 -> 41"), "{report}");
    }

    #[test]
    fn improvements_do_not_fail_the_gate() {
        let mut fresh = record();
        fresh.rounds = 90;
        fresh.spans[0].rounds = 50;
        let d = diff_records(&record(), &fresh);
        assert!(!d.has_regression());
        assert!(d.entries.iter().all(|e| e.status == DiffStatus::Improved));
    }

    #[test]
    fn structure_drift_fails_loudly() {
        let mut fresh = record();
        fresh.spans.pop();
        let d = diff_records(&record(), &fresh);
        assert!(d.has_regression());
        assert!(d.render().contains("REMOVED"), "{}", d.render());

        let mut fresh = record();
        fresh.spans.push(SpanMetrics {
            path: "z".into(),
            count: 1,
            rounds: 1,
            words: 1,
            messages: 1,
            ..SpanMetrics::default()
        });
        let d = diff_records(&record(), &fresh);
        assert!(d.has_regression());
        assert!(d.render().contains("ADDED"), "{}", d.render());
    }

    #[test]
    fn param_mismatch_is_incomparable_not_a_pass() {
        let mut fresh = record();
        fresh.params[0].1 = "128".into();
        let d = diff_records(&record(), &fresh);
        assert!(d.has_regression());
        assert!(d.incomparable.is_some());
        assert!(d.render().contains("INCOMPARABLE"));
    }

    #[test]
    fn rounds_saved_drop_to_zero_regresses() {
        let mut fresh = record();
        fresh.rounds_saved = 0;
        fresh.spans[0].rounds_saved = 0;
        fresh.congestion[0].rounds_saved = 0;
        let d = diff_records(&record(), &fresh);
        assert!(d.has_regression(), "{}", d.render());
        assert_eq!(d.regression_count(), 3); // total + span "a" + congestion
        assert!(d
            .entries
            .iter()
            .all(|e| e.metric == "rounds_saved" && e.status == DiffStatus::Regressed));
    }

    #[test]
    fn rounds_saved_increase_is_an_improvement() {
        let mut fresh = record();
        fresh.rounds_saved = 20;
        let d = diff_records(&record(), &fresh);
        assert!(!d.has_regression(), "{}", d.render());
        assert_eq!(d.entries[0].metric, "rounds_saved");
        assert_eq!(d.entries[0].status, DiffStatus::Improved);
    }

    #[test]
    fn rounds_saved_partial_decrease_passes() {
        let mut fresh = record();
        fresh.rounds_saved = 5;
        let d = diff_records(&record(), &fresh);
        assert!(!d.has_regression(), "{}", d.render());
        assert_eq!(d.entries[0].status, DiffStatus::WithinTolerance);
    }

    #[test]
    fn cache_hit_collapse_regresses() {
        let mut fresh = record();
        fresh.cache.tree_hits = 0;
        let d = diff_records(&record(), &fresh);
        assert!(d.has_regression(), "{}", d.render());
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].section, "cache");
        assert_eq!(d.entries[0].metric, "tree_hits");
        assert_eq!(d.entries[0].status, DiffStatus::Regressed);
    }

    #[test]
    fn cache_hit_increase_is_an_improvement() {
        let mut fresh = record();
        fresh.cache.latency_hits += 4;
        let d = diff_records(&record(), &fresh);
        assert!(!d.has_regression(), "{}", d.render());
        assert_eq!(d.entries[0].metric, "latency_hits");
        assert_eq!(d.entries[0].status, DiffStatus::Improved);
    }

    #[test]
    fn cache_miss_increase_regresses() {
        let mut fresh = record();
        fresh.cache.tree_misses += 5;
        let d = diff_records(&record(), &fresh);
        assert!(d.has_regression(), "{}", d.render());
        assert_eq!(d.entries[0].metric, "tree_misses");
        assert_eq!(d.entries[0].status, DiffStatus::Regressed);
    }

    #[test]
    fn informational_fields_are_never_compared() {
        let mut fresh = record();
        fresh.wall_ms = 991;
        fresh.jobs = 4;
        fresh.floods = 12;
        let d = diff_records(&record(), &fresh);
        assert!(!d.has_regression(), "{}", d.render());
        assert!(d.entries.is_empty(), "{}", d.render());
    }

    #[test]
    fn alloc_regression_gates_in_default_config() {
        let mut fresh = record();
        fresh.alloc_bytes += 500;
        fresh.spans[1].alloc_bytes += 500;
        let d = diff_records(&record(), &fresh);
        assert!(d.has_regression(), "{}", d.render());
        assert_eq!(d.regression_count(), 2); // total + span "a > b"
        assert!(d
            .entries
            .iter()
            .all(|e| e.metric == "alloc_bytes" && e.status == DiffStatus::Regressed));
        assert!(d.render().contains("a > b"), "{}", d.render());
    }

    #[test]
    fn alloc_is_informational_in_parallel_configs() {
        // Same alloc regression, but one side ran a parallel sweep: the
        // counts are schedule noise there and must not gate.
        for (base_jobs, fresh_jobs) in [(0, 1), (1, 1), (1, 4), (2, 0), (8, 8)] {
            let mut base = record();
            base.jobs = base_jobs;
            let mut fresh = record();
            fresh.alloc_bytes += 500;
            fresh.spans[1].alloc_bytes += 500;
            fresh.jobs = fresh_jobs;
            let d = diff_records(&base, &fresh);
            assert_eq!(
                d.has_regression(),
                base_jobs <= 1 && fresh_jobs <= 1,
                "jobs {base_jobs} -> {fresh_jobs}: {}",
                d.render()
            );
        }
    }

    #[test]
    fn alloc_is_skipped_against_baselines_without_alloc_data() {
        // A baseline recorded without the counting allocator carries 0
        // alloc data; a fresh profiled record must diff clean against it.
        let mut base = record();
        base.alloc_bytes = 0;
        base.alloc_count = 0;
        for s in &mut base.spans {
            s.alloc_bytes = 0;
            s.alloc_count = 0;
        }
        let d = diff_records(&base, &record());
        assert!(!d.has_regression(), "{}", d.render());
        assert!(d.entries.is_empty(), "{}", d.render());
    }

    #[test]
    fn wall_and_peak_are_never_compared() {
        let mut fresh = record();
        fresh.peak_alloc_bytes = 999_999;
        fresh.spans[0].wall_ns = 123_456_789;
        let d = diff_records(&record(), &fresh);
        assert!(!d.has_regression(), "{}", d.render());
        assert!(d.entries.is_empty(), "{}", d.render());
    }

    #[test]
    fn triage_ranks_injected_regression_first() {
        let mut fresh = record();
        fresh.spans[1].rounds += 20; // "a > b": 20/100 rounds = 200 milli
        fresh.spans[0].words += 30; // "a": 30/1000 words = 30 milli
        let entries = triage_spans(&record(), &fresh);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].path, "a > b");
        assert_eq!(entries[0].score_milli, 200);
        assert_eq!(entries[0].rounds_delta, 20);
        assert_eq!(entries[1].path, "a");
        assert_eq!(entries[1].score_milli, 30);
        assert_eq!(entries[1].words_delta, 30);
    }

    #[test]
    fn triage_counts_alloc_only_with_alloc_baseline() {
        let mut fresh = record();
        fresh.spans[0].alloc_bytes += 5_000; // 5000/10000 = 500 milli
        let entries = triage_spans(&record(), &fresh);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].path, "a");
        assert_eq!(entries[0].score_milli, 500);
        assert_eq!(entries[0].alloc_delta, 5_000);

        // A parallel run on either side: allocations are schedule noise
        // the gate ignores, so the same movement scores nothing.
        let mut parallel = fresh.clone();
        parallel.jobs = 4;
        assert!(triage_spans(&record(), &parallel).is_empty());

        // Baseline without alloc data: the same byte movement scores
        // nothing and produces no entry (no other metric moved).
        let mut base = record();
        base.alloc_bytes = 0;
        base.alloc_count = 0;
        for s in &mut base.spans {
            s.alloc_bytes = 0;
            s.alloc_count = 0;
        }
        let mut fresh = base.clone();
        fresh.spans[0].alloc_bytes = 5_000;
        assert!(triage_spans(&base, &fresh).is_empty());
    }

    #[test]
    fn triage_handles_added_and_removed_paths() {
        let mut fresh = record();
        fresh.spans.remove(1); // "a > b" disappears: full self-cost delta
        fresh.spans.push(SpanMetrics {
            path: "new".into(),
            count: 1,
            rounds: 100,
            words: 0,
            messages: 0,
            ..SpanMetrics::default()
        });
        let entries = triage_spans(&record(), &fresh);
        // "a > b" removal contributes 40/100 rounds + 400/1000 words +
        // 4000/10000 bytes = 1200 milli, outranking "new" at 100/100
        // rounds = 1000 milli.
        assert_eq!(entries[0].path, "a > b");
        assert_eq!(entries[0].rounds_delta, -40);
        assert_eq!(entries[0].score_milli, 400 + 400 + 400);
        let added = entries.iter().find(|e| e.path == "new").unwrap();
        assert_eq!(added.score_milli, 1000);
        assert_eq!(added.rounds_delta, 100);
    }

    #[test]
    fn triage_is_empty_for_identical_records() {
        assert!(triage_spans(&record(), &record()).is_empty());
    }

    #[test]
    fn audit_margin_drift_is_flagged() {
        let mut fresh = record();
        fresh.audit_margins[0].max_ratio = 0.9;
        let d = diff_records(&record(), &fresh);
        assert!(d.has_regression());
        assert!(d.render().contains("core/x"));
        assert!(d.to_json().render().contains("max_ratio"));
    }
}

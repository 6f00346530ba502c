//! `mwc-trace`: hermetic observability for the CONGEST MWC reproduction.
//!
//! The paper's entire contribution is round-complexity bounds, yet a flat
//! per-phase total cannot show *where inside* an algorithm rounds go or
//! whether a measured run actually respects the bound the paper proves.
//! This crate provides the three missing pieces, with zero external
//! dependencies:
//!
//! 1. **Span tracing** ([`span`], [`span_owned`], [`SpanGuard`]): RAII
//!    nested spans forming a tree per algorithm run. [`Ledger`
//!    absorption](https://docs.rs) in `mwc-congest` attributes each phase's
//!    round/word/message deltas to the innermost open span, so the span
//!    tree is a flamegraph of simulated rounds rather than wall-clock time.
//! 2. **Event sink**: when tracing is active, every span close and bound
//!    audit is emitted as one JSONL line. The sink is selected from the
//!    `MWC_TRACE` environment variable (a file path) or installed
//!    programmatically as an in-memory session ([`TraceSession::memory`]).
//!    When no sink is active every operation is a cheap early-return that
//!    allocates nothing and records nothing.
//! 3. **Bound auditing** ([`audit`]): algorithm entry points declare their
//!    theoretical round bound as a closure of `(n, D, h, k, ε)`; the
//!    auditor records the measured-vs-bound ratio and fails a debug
//!    assertion when a run exceeds its bound by more than the
//!    `MWC_TRACE_BOUND_FACTOR` slack factor (default 1).
//!
//! Determinism is a hard requirement: no wall-clock timestamps ever enter
//! the event stream — ordering is by a per-session sequence counter and all
//! quantities are simulated-round accounting, so same-seed runs produce
//! byte-identical traces (checked in CI).
//!
//! All state is thread-local: parallel test threads trace independently.

// `deny` rather than `forbid`: the one sanctioned exception is the
// counting `GlobalAlloc` pass-through in [`profile`], which carries a
// module-local `#[allow(unsafe_code)]` next to its safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod diff;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod record;

use json::Json;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;

pub use audit::{check_bound, AuditRecord, BoundInputs};
pub use diff::{
    diff_records, triage_spans, DiffConfig, DiffEntry, DiffStatus, RunDiff, Tolerance, TriageEntry,
};
pub use export::{chrome_trace, validate_chrome_trace, TraceSummary};
pub use metrics::{validate_openmetrics, MetricsRegistry};
pub use record::{
    audit_margins, AuditMargin, CacheTally, CongestionSummary, RunRecord, SpanMetrics, WorkerTally,
    RUN_RECORD_SCHEMA, RUN_RECORD_SCHEMA_V1,
};

/// One closed span: a node of the trace tree.
///
/// Cost fields are **self** costs (absorbed while this span was innermost);
/// use [`SpanNode::total_rounds`] etc. for inclusive subtree totals.
#[derive(Clone, Debug, Default)]
pub struct SpanNode {
    /// Order in which the span was *opened* (session-wide, 0-based).
    pub seq: u64,
    /// Span label, e.g. `"ksssp/skeleton-apsp"`.
    pub label: String,
    /// Simulated rounds attributed directly to this span.
    pub rounds: u64,
    /// Words moved while this span was innermost.
    pub words: u64,
    /// Messages delivered while this span was innermost.
    pub messages: u64,
    /// Rounds a phase cache avoided re-charging while this span was
    /// innermost (see `Ledger::credit_cached` in `mwc-congest`). Not part
    /// of `rounds` — an audit trail of what reuse saved.
    pub rounds_saved: u64,
    /// Host wall-nanoseconds attributed to this span while it was
    /// innermost. Zero unless
    /// [`profile::set_thread_profiling`] enabled profiling; always
    /// machine-dependent, never in the JSONL events or the manifest.
    pub wall_ns: u64,
    /// Heap bytes allocated on this thread while this span was innermost
    /// (gross allocation, not churn-adjusted). Zero unless profiling is
    /// enabled *and* a [`profile::CountingAlloc`] is installed.
    pub alloc_bytes: u64,
    /// Heap allocations performed while this span was innermost. Same
    /// preconditions as [`SpanNode::alloc_bytes`].
    pub alloc_count: u64,
    /// Bound audits recorded while this span was innermost.
    pub audits: Vec<AuditRecord>,
    /// Child spans in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Rounds of this span plus all descendants.
    pub fn total_rounds(&self) -> u64 {
        self.rounds
            + self
                .children
                .iter()
                .map(SpanNode::total_rounds)
                .sum::<u64>()
    }

    /// Words of this span plus all descendants.
    pub fn total_words(&self) -> u64 {
        self.words + self.children.iter().map(SpanNode::total_words).sum::<u64>()
    }

    /// Messages of this span plus all descendants.
    pub fn total_messages(&self) -> u64 {
        self.messages
            + self
                .children
                .iter()
                .map(SpanNode::total_messages)
                .sum::<u64>()
    }

    /// Cache-saved rounds of this span plus all descendants.
    pub fn total_rounds_saved(&self) -> u64 {
        self.rounds_saved
            + self
                .children
                .iter()
                .map(SpanNode::total_rounds_saved)
                .sum::<u64>()
    }

    /// Wall-nanoseconds of this span plus all descendants.
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns
            + self
                .children
                .iter()
                .map(SpanNode::total_wall_ns)
                .sum::<u64>()
    }

    /// Allocated bytes of this span plus all descendants.
    pub fn total_alloc_bytes(&self) -> u64 {
        self.alloc_bytes
            + self
                .children
                .iter()
                .map(SpanNode::total_alloc_bytes)
                .sum::<u64>()
    }

    /// Allocation count of this span plus all descendants.
    pub fn total_alloc_count(&self) -> u64 {
        self.alloc_count
            + self
                .children
                .iter()
                .map(SpanNode::total_alloc_count)
                .sum::<u64>()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(&self.label)),
            ("seq", Json::U64(self.seq)),
            ("rounds", Json::U64(self.rounds)),
            ("words", Json::U64(self.words)),
            ("messages", Json::U64(self.messages)),
            ("rounds_saved", Json::U64(self.rounds_saved)),
            ("total_rounds", Json::U64(self.total_rounds())),
            ("total_words", Json::U64(self.total_words())),
            (
                "audits",
                Json::Arr(self.audits.iter().map(AuditRecord::to_json).collect()),
            ),
            (
                "children",
                Json::Arr(self.children.iter().map(SpanNode::to_json).collect()),
            ),
        ])
    }
}

/// The result of a finished [`TraceSession`]: the forest of root spans plus
/// any audits recorded outside every span.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// Root spans in open order.
    pub roots: Vec<SpanNode>,
    /// Audits recorded while no span was open.
    pub orphan_audits: Vec<AuditRecord>,
    /// Phase-cache effectiveness summed over every cache scope that
    /// closed during the session (see [`add_cache_stats`]). Session-level
    /// rather than per-span because a cache scope outlives the spans that
    /// ran under it.
    pub cache: CacheTally,
    /// The JSONL event lines, in emission order (what a file sink would
    /// have written). Useful for schema/golden tests.
    pub events: Vec<String>,
}

impl TraceData {
    /// Every audit in the session, in recording order (span-attached ones
    /// in span *close* order, as emitted).
    pub fn all_audits(&self) -> Vec<&AuditRecord> {
        fn walk<'a>(node: &'a SpanNode, out: &mut Vec<(u64, &'a AuditRecord)>) {
            for a in &node.audits {
                out.push((node.seq, a));
            }
            for c in &node.children {
                walk(c, out);
            }
        }
        let mut tagged = Vec::new();
        for r in &self.roots {
            walk(r, &mut tagged);
        }
        tagged.sort_by_key(|(seq, _)| *seq);
        let mut out: Vec<&AuditRecord> = tagged.into_iter().map(|(_, a)| a).collect();
        out.extend(self.orphan_audits.iter());
        out
    }

    /// Renders the span forest as an indented text flamegraph of simulated
    /// rounds. Deterministic; used by the `trace_report` binary.
    pub fn flamegraph(&self) -> String {
        fn walk(node: &SpanNode, depth: usize, grand_total: u64, out: &mut String) {
            let total = node.total_rounds();
            let pct = if grand_total > 0 {
                100.0 * total as f64 / grand_total as f64
            } else {
                0.0
            };
            let indent = "  ".repeat(depth);
            out.push_str(&format!(
                "{indent}{label:<width$} {total:>9} rounds {words:>12} words {pct:>5.1}%\n",
                label = node.label,
                width = 44usize.saturating_sub(2 * depth),
                words = node.total_words(),
            ));
            for a in &node.audits {
                out.push_str(&format!(
                    "{indent}  · bound[{}]: measured {} ≤ {:.0} (ratio {:.3})\n",
                    a.algorithm, a.measured_rounds, a.bound_rounds, a.ratio
                ));
            }
            for c in &node.children {
                walk(c, depth + 1, grand_total, out);
            }
        }
        let grand_total: u64 = self.roots.iter().map(SpanNode::total_rounds).sum();
        let mut out = String::new();
        for r in &self.roots {
            walk(r, 0, grand_total, &mut out);
        }
        out
    }

    /// The machine-readable manifest for `results/trace_manifest.json`.
    ///
    /// `audit_margins` aggregates every bound audit per algorithm (count,
    /// worst measured/bound ratio) so constant-factor drift is visible in
    /// the manifest itself, not only via `trace_diff`.
    pub fn to_manifest(&self) -> Json {
        Json::obj([
            ("schema", Json::str("mwc-trace-manifest/v4")),
            (
                "total_rounds",
                Json::U64(self.roots.iter().map(SpanNode::total_rounds).sum()),
            ),
            (
                "total_words",
                Json::U64(self.roots.iter().map(SpanNode::total_words).sum()),
            ),
            (
                "total_rounds_saved",
                Json::U64(self.roots.iter().map(SpanNode::total_rounds_saved).sum()),
            ),
            ("cache", self.cache.to_json()),
            (
                "audit_margins",
                Json::Arr(
                    record::audit_margins(&self.all_audits())
                        .iter()
                        .map(AuditMargin::to_json)
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(self.roots.iter().map(SpanNode::to_json).collect()),
            ),
            (
                "orphan_audits",
                Json::Arr(
                    self.orphan_audits
                        .iter()
                        .map(AuditRecord::to_json)
                        .collect(),
                ),
            ),
        ])
    }
}

enum Sink {
    Memory,
    File(BufWriter<File>),
}

struct Collector {
    sink: Sink,
    stack: Vec<SpanNode>,
    data: TraceData,
    next_seq: u64,
    /// Last profiling checkpoint, when thread profiling is enabled. The
    /// interval between consecutive span boundaries is charged to the
    /// span that was innermost *during* that interval — the same
    /// attribution model `Ledger::absorb` uses for rounds.
    prof: Option<profile::Mark>,
}

impl Collector {
    fn new(sink: Sink) -> Self {
        Collector {
            sink,
            stack: Vec::new(),
            data: TraceData::default(),
            next_seq: 0,
            prof: None,
        }
    }

    /// Takes a profiling checkpoint at a span boundary, charging the
    /// wall/alloc delta since the previous checkpoint to the innermost
    /// open span. No-op (and checkpoint reset) when thread profiling is
    /// off, so untraced intervals are never misattributed after a
    /// disable/enable cycle.
    fn profile_mark(&mut self) {
        if !profile::thread_profiling_enabled() {
            self.prof = None;
            return;
        }
        let now = profile::Mark::now();
        if let (Some(prev), Some(top)) = (&self.prof, self.stack.last_mut()) {
            top.wall_ns += now.at.duration_since(prev.at).as_nanos() as u64;
            top.alloc_bytes += now.bytes.wrapping_sub(prev.bytes);
            top.alloc_count += now.count.wrapping_sub(prev.count);
        }
        self.prof = Some(now);
    }

    fn emit(&mut self, line: String) {
        match &mut self.sink {
            Sink::Memory => self.data.events.push(line),
            Sink::File(w) => {
                let _ = writeln!(w, "{line}");
            }
        }
    }

    fn open(&mut self, label: String) {
        self.profile_mark();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stack.push(SpanNode {
            seq,
            label,
            ..SpanNode::default()
        });
    }

    fn close(&mut self) {
        self.profile_mark();
        // A guard can outlive its session (the session finished first and
        // the guard now closes against whatever tracer was restored); in
        // that case there is nothing to close here.
        let Some(node) = self.stack.pop() else {
            return;
        };
        let parent_seq = self.stack.last().map(|p| p.seq);
        let line = Json::obj([
            ("ev", Json::str("span")),
            ("seq", Json::U64(node.seq)),
            ("parent", parent_seq.map_or(Json::Null, Json::U64)),
            ("label", Json::str(&node.label)),
            ("rounds", Json::U64(node.rounds)),
            ("words", Json::U64(node.words)),
            ("messages", Json::U64(node.messages)),
            ("rounds_saved", Json::U64(node.rounds_saved)),
            ("total_rounds", Json::U64(node.total_rounds())),
        ])
        .render();
        self.emit(line);
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => {
                self.data.roots.push(node);
                if let Sink::File(w) = &mut self.sink {
                    let _ = w.flush();
                }
            }
        }
    }

    fn add_cost(&mut self, rounds: u64, words: u64, messages: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.rounds += rounds;
            top.words += words;
            top.messages += messages;
        }
    }

    fn add_saved(&mut self, rounds: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.rounds_saved += rounds;
        }
    }

    fn add_cache_tally(&mut self, tally: CacheTally) {
        let line = Json::obj([
            ("ev", Json::str("cache")),
            ("tree_hits", Json::U64(tally.tree_hits)),
            ("tree_misses", Json::U64(tally.tree_misses)),
            ("latency_hits", Json::U64(tally.latency_hits)),
            ("latency_misses", Json::U64(tally.latency_misses)),
            ("rounds_saved", Json::U64(tally.rounds_saved)),
        ])
        .render();
        self.emit(line);
        self.data.cache.add(&tally);
    }

    fn add_audit(&mut self, record: AuditRecord) {
        let line = record.to_event_json().render();
        self.emit(line);
        match self.stack.last_mut() {
            Some(top) => top.audits.push(record),
            None => self.data.orphan_audits.push(record),
        }
    }

    /// Splices a captured [`TraceData`] (from a worker's
    /// [`TraceSession::memory`]) into this collector exactly as if its
    /// spans had run inline on this thread, here, now.
    ///
    /// Because spans close strictly LIFO, the worker's seqs `0..k` are its
    /// open order — which is also a pre-order walk of its forest — so a
    /// constant offset of `next_seq` renumbers them to what an inline run
    /// would have assigned. The worker's event lines are re-emitted in
    /// their original order with the same offset applied (span roots get
    /// the current innermost span, if any, as parent), keeping file sinks
    /// byte-identical to sequential execution.
    fn graft(&mut self, mut data: TraceData) {
        let base = self.next_seq;
        fn renumber(node: &mut SpanNode, next: &mut u64) {
            node.seq = *next;
            *next += 1;
            for c in &mut node.children {
                renumber(c, next);
            }
        }
        let mut next = base;
        for r in &mut data.roots {
            renumber(r, &mut next);
        }
        self.next_seq = next;
        let parent_seq = self.stack.last().map(|p| p.seq);
        for line in &data.events {
            let rewritten = rewrite_grafted_event(line, base, parent_seq);
            self.emit(rewritten);
        }
        // Cache events (re-emitted above, untouched) carry the worker's
        // tally; fold it into the session total like an inline run would.
        self.data.cache.add(&data.cache);
        match self.stack.last_mut() {
            Some(top) => {
                top.children.extend(data.roots);
                top.audits.extend(data.orphan_audits);
            }
            None => {
                self.data.roots.extend(data.roots);
                self.data.orphan_audits.extend(data.orphan_audits);
                if let Sink::File(w) = &mut self.sink {
                    let _ = w.flush();
                }
            }
        }
    }
}

/// Offsets the seq/parent links of a captured span event by `base`;
/// worker-root spans (`parent: null`) are re-parented to `parent_seq`.
/// Audit events carry no seq and pass through untouched.
fn rewrite_grafted_event(line: &str, base: u64, parent_seq: Option<u64>) -> String {
    let Ok(mut v) = Json::parse(line) else {
        return line.to_owned();
    };
    if v.get("ev").and_then(Json::as_str) != Some("span") {
        return line.to_owned();
    }
    if let Json::Obj(pairs) = &mut v {
        for (k, val) in pairs.iter_mut() {
            match (k.as_str(), &*val) {
                ("seq", Json::U64(s)) => *val = Json::U64(s + base),
                ("parent", Json::U64(p)) => *val = Json::U64(p + base),
                ("parent", Json::Null) => *val = parent_seq.map_or(Json::Null, Json::U64),
                _ => {}
            }
        }
    }
    v.render()
}

enum Tracer {
    /// Not yet initialized on this thread; first use consults `MWC_TRACE`.
    Uninit,
    Disabled,
    Active(Box<Collector>),
}

thread_local! {
    static TRACER: RefCell<Tracer> = const { RefCell::new(Tracer::Uninit) };
}

fn init_from_env() -> Tracer {
    match std::env::var_os("MWC_TRACE") {
        Some(path) if !path.is_empty() => {
            let path = PathBuf::from(path);
            match File::create(&path) {
                Ok(f) => Tracer::Active(Box::new(Collector::new(Sink::File(BufWriter::new(f))))),
                Err(e) => {
                    eprintln!("mwc-trace: cannot open MWC_TRACE={}: {e}", path.display());
                    Tracer::Disabled
                }
            }
        }
        _ => Tracer::Disabled,
    }
}

/// Runs `f` with the thread's collector if tracing is active; initializes
/// from the environment on first use.
fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if matches!(*t, Tracer::Uninit) {
            *t = init_from_env();
        }
        match &mut *t {
            Tracer::Active(c) => Some(f(c)),
            _ => None,
        }
    })
}

/// `true` if a sink is active on this thread (after lazy env init).
pub fn enabled() -> bool {
    with_collector(|_| ()).is_some()
}

/// RAII guard for an open span; closing happens on drop, strictly LIFO.
///
/// When tracing is disabled the guard is inert (nothing allocated, drop is
/// a no-op).
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// A guard that does nothing on drop.
    pub fn inert() -> SpanGuard {
        SpanGuard { armed: false }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            with_collector(|c| c.close());
        }
    }
}

/// Opens a span with a static label. Returns an inert guard when tracing is
/// disabled.
pub fn span(label: &'static str) -> SpanGuard {
    let armed = with_collector(|c| c.open(label.to_owned())).is_some();
    SpanGuard { armed }
}

/// Opens a span whose label is built only if tracing is active — use for
/// dynamic labels so the disabled path stays allocation-free.
pub fn span_owned(label: impl FnOnce() -> String) -> SpanGuard {
    let armed = with_collector(|c| c.open(label())).is_some();
    SpanGuard { armed }
}

/// Attributes simulated cost to the innermost open span. Called by
/// `Ledger::absorb` in `mwc-congest`; a no-op when tracing is disabled or
/// no span is open.
pub fn add_cost(rounds: u64, words: u64, messages: u64) {
    with_collector(|c| c.add_cost(rounds, words, messages));
}

/// Attributes phase-cache-saved rounds to the innermost open span. Called
/// by `Ledger::credit_cached` in `mwc-congest`; a no-op when tracing is
/// disabled or no span is open.
pub fn add_saved(rounds: u64) {
    with_collector(|c| c.add_saved(rounds));
}

/// Reports one closed phase-cache scope's hit/miss counters to the
/// active trace: emits a `{"ev":"cache",...}` JSONL line and folds the
/// counters into the session-level [`TraceData::cache`] tally. Called by
/// `CacheScope::drop` in `mwc-congest`; a no-op when tracing is
/// disabled. Session-level (not per-span) because the scope outlives
/// the spans that ran under it.
pub fn add_cache_stats(
    tree_hits: u64,
    tree_misses: u64,
    latency_hits: u64,
    latency_misses: u64,
    rounds_saved: u64,
) {
    with_collector(|c| {
        c.add_cache_tally(CacheTally {
            tree_hits,
            tree_misses,
            latency_hits,
            latency_misses,
            rounds_saved,
        })
    });
}

pub(crate) fn record_audit(record: AuditRecord) {
    with_collector(|c| c.add_audit(record));
}

/// Splices a [`TraceData`] captured on another thread (via
/// [`TraceSession::memory`]) into the current thread's active trace, as if
/// its spans had run inline at this point. A no-op when tracing is
/// disabled.
///
/// This is the join half of the capture-and-graft pattern the parallel
/// bench bins use with `mwc-par`: each worker runs its item under its own
/// memory session (tracing state is thread-local), returns the finished
/// `TraceData`, and the caller grafts the results **in input order** —
/// making the merged trace, and everything derived from it (run records,
/// manifests, JSONL sinks), independent of the worker schedule and
/// byte-identical to a sequential run.
pub fn graft(data: TraceData) {
    with_collector(|c| c.graft(data));
}

/// A programmatic tracing session on the current thread.
///
/// Installs an in-memory sink (displacing whatever was active), collects
/// spans and audits until [`TraceSession::finish`], then restores the
/// previous tracer state. Used by `trace_report` and the tracing tests.
pub struct TraceSession {
    prev: Option<Tracer>,
}

impl TraceSession {
    /// Starts collecting into memory on this thread.
    pub fn memory() -> TraceSession {
        let prev = TRACER.with(|t| {
            std::mem::replace(
                &mut *t.borrow_mut(),
                Tracer::Active(Box::new(Collector::new(Sink::Memory))),
            )
        });
        TraceSession { prev: Some(prev) }
    }

    /// Stops collecting and returns everything recorded.
    ///
    /// Spans still open at finish time are closed implicitly (their guards
    /// become inert against the restored tracer — callers should finish
    /// only after all guards dropped; any stragglers are folded into the
    /// result so no data is lost).
    pub fn finish(mut self) -> TraceData {
        let prev = self.prev.take().unwrap_or(Tracer::Uninit);
        let current = TRACER.with(|t| std::mem::replace(&mut *t.borrow_mut(), prev));
        match current {
            Tracer::Active(mut c) => {
                while !c.stack.is_empty() {
                    c.close();
                }
                c.data
            }
            _ => TraceData::default(),
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            TRACER.with(|t| *t.borrow_mut() = prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        // No MWC_TRACE in the test environment: spans are inert and cost
        // attribution goes nowhere.
        let g = span("outer");
        add_cost(10, 20, 3);
        drop(g);
        let session = TraceSession::memory();
        let data = session.finish();
        assert!(data.roots.is_empty());
    }

    #[test]
    fn spans_nest_and_accumulate() {
        let session = TraceSession::memory();
        {
            let _outer = span("outer");
            add_cost(5, 50, 1);
            {
                let _inner = span_owned(|| format!("inner/{}", 7));
                add_cost(3, 30, 1);
            }
            add_cost(2, 20, 1);
        }
        let data = session.finish();
        assert_eq!(data.roots.len(), 1);
        let outer = &data.roots[0];
        assert_eq!(outer.label, "outer");
        assert_eq!(outer.rounds, 7); // self cost only
        assert_eq!(outer.total_rounds(), 10);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].label, "inner/7");
        assert_eq!(outer.children[0].rounds, 3);
    }

    #[test]
    fn events_emit_in_close_order_with_parent_links() {
        let session = TraceSession::memory();
        {
            let _a = span("a");
            let _b = span("b");
        }
        let data = session.finish();
        assert_eq!(data.events.len(), 2);
        assert!(data.events[0].contains("\"label\":\"b\""));
        assert!(data.events[0].contains("\"parent\":0"));
        assert!(data.events[1].contains("\"label\":\"a\""));
        assert!(data.events[1].contains("\"parent\":null"));
    }

    #[test]
    fn golden_jsonl_event_schema() {
        // The exact event bytes are a contract: external tooling parses
        // the JSONL sink, and the CI determinism check diffs manifests
        // byte-for-byte. Any schema change must update this golden test.
        let session = TraceSession::memory();
        {
            let _s = span("alg");
            add_cost(3, 12, 2);
            check_bound(
                "test/golden",
                BoundInputs::n(8).diameter(4).h(2).k(1),
                3,
                |i| 2.0 * i.diameter as f64,
            );
        }
        let data = session.finish();
        assert_eq!(
            data.events,
            vec![
                "{\"ev\":\"audit\",\"algorithm\":\"test/golden\",\"measured_rounds\":3,\
                 \"bound_rounds\":8.0,\"ratio\":0.375,\"n\":8,\"diameter\":4,\"h\":2,\
                 \"k\":1,\"eps\":0.0}",
                "{\"ev\":\"span\",\"seq\":0,\"parent\":null,\"label\":\"alg\",\"rounds\":3,\
                 \"words\":12,\"messages\":2,\"rounds_saved\":0,\"total_rounds\":3}",
            ]
        );
    }

    #[test]
    fn session_restores_previous_state() {
        let outer = TraceSession::memory();
        {
            let inner = TraceSession::memory();
            {
                let _s = span("inner-span");
            }
            let data = inner.finish();
            assert_eq!(data.roots.len(), 1);
        }
        let _s = span("outer-span");
        let data = outer.finish();
        assert_eq!(data.roots.len(), 1);
        assert_eq!(data.roots[0].label, "outer-span");
    }

    #[test]
    fn flamegraph_and_manifest_are_deterministic() {
        let run = || {
            let session = TraceSession::memory();
            {
                let _o = span("algo");
                add_cost(8, 80, 2);
                let _i = span("algo/phase");
                add_cost(2, 20, 1);
            }
            let data = session.finish();
            (data.flamegraph(), data.to_manifest().render_pretty())
        };
        let (f1, m1) = run();
        let (f2, m2) = run();
        assert_eq!(f1, f2);
        assert_eq!(m1, m2);
        assert!(f1.contains("algo/phase"));
        assert!(m1.contains("\"schema\": \"mwc-trace-manifest/v4\""));
        assert!(m1.contains("\"total_rounds_saved\""));
        assert!(m1.contains("\"cache\""));
        assert!(m1.contains("\"audit_margins\""));
    }

    #[test]
    fn golden_cache_event_schema() {
        // Like golden_jsonl_event_schema: the cache event bytes are a
        // contract with external JSONL consumers.
        let session = TraceSession::memory();
        add_cache_stats(2, 1, 4, 3, 17);
        let data = session.finish();
        assert_eq!(
            data.events,
            vec![
                "{\"ev\":\"cache\",\"tree_hits\":2,\"tree_misses\":1,\"latency_hits\":4,\
                 \"latency_misses\":3,\"rounds_saved\":17}",
            ]
        );
        assert_eq!(data.cache.tree_hits, 2);
        assert_eq!(data.cache.rounds_saved, 17);
    }

    #[test]
    fn cache_tallies_accumulate_and_graft_like_inline() {
        let inline = {
            let session = TraceSession::memory();
            add_cache_stats(1, 1, 0, 0, 5);
            add_cache_stats(2, 0, 1, 1, 7);
            session.finish()
        };
        assert_eq!(inline.cache.tree_hits, 3);
        assert_eq!(inline.cache.rounds_saved, 12);
        let grafted = {
            let session = TraceSession::memory();
            for tally in [(1, 1, 0, 0, 5), (2, 0, 1, 1, 7)] {
                let worker = TraceSession::memory();
                let (th, tm, lh, lm, rs) = tally;
                add_cache_stats(th, tm, lh, lm, rs);
                graft(worker.finish());
            }
            session.finish()
        };
        assert_eq!(inline.events, grafted.events);
        assert_eq!(inline.cache, grafted.cache);
        assert_eq!(
            inline.to_manifest().render_pretty(),
            grafted.to_manifest().render_pretty()
        );
    }

    /// The workload used by the graft equivalence tests: two spans with
    /// costs, savings, and an audit.
    fn graft_workload(tag: u64) {
        let _o = span_owned(|| format!("work/{tag}"));
        add_cost(tag + 1, 10 * (tag + 1), 2);
        check_bound("test/graft", BoundInputs::n(8), 2, |_| 16.0);
        {
            let _i = span("inner");
            add_cost(1, 2, 3);
            add_saved(5);
        }
    }

    #[test]
    fn graft_is_byte_identical_to_inline_execution() {
        // Inline: everything on one session.
        let inline = {
            let session = TraceSession::memory();
            for tag in 0..3 {
                graft_workload(tag);
            }
            session.finish()
        };
        // Captured: each item under its own session (as a pool worker
        // would run it), grafted back in input order.
        let grafted = {
            let session = TraceSession::memory();
            let captured: Vec<TraceData> = (0..3)
                .map(|tag| {
                    let worker = TraceSession::memory();
                    graft_workload(tag);
                    worker.finish()
                })
                .collect();
            for data in captured {
                graft(data);
            }
            session.finish()
        };
        assert_eq!(inline.events, grafted.events);
        assert_eq!(
            inline.to_manifest().render_pretty(),
            grafted.to_manifest().render_pretty()
        );
        assert_eq!(
            record::RunRecord::from_trace("t", [], &inline),
            record::RunRecord::from_trace("t", [], &grafted)
        );
    }

    #[test]
    fn graft_under_an_open_span_nests_like_inline() {
        let inline = {
            let session = TraceSession::memory();
            {
                let _outer = span("sweep");
                graft_workload(7);
            }
            session.finish()
        };
        let grafted = {
            let session = TraceSession::memory();
            {
                let _outer = span("sweep");
                let worker = TraceSession::memory();
                graft_workload(7);
                graft(worker.finish());
            }
            session.finish()
        };
        assert_eq!(inline.events, grafted.events);
        assert_eq!(grafted.roots.len(), 1);
        assert_eq!(grafted.roots[0].children[0].label, "work/7");
    }

    #[test]
    fn profiling_attributes_wall_and_alloc_to_innermost_span() {
        profile::set_thread_profiling(true);
        let session = TraceSession::memory();
        {
            let _o = span("outer");
            profile::note_alloc(100);
            {
                let _i = span("inner");
                profile::note_alloc(30);
                profile::note_alloc(10);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            profile::note_alloc(7);
        }
        let data = session.finish();
        profile::set_thread_profiling(false);
        let outer = &data.roots[0];
        let inner = &outer.children[0];
        assert_eq!(outer.alloc_bytes, 107);
        assert_eq!(outer.alloc_count, 2);
        assert_eq!(inner.alloc_bytes, 40);
        assert_eq!(inner.alloc_count, 2);
        assert_eq!(outer.total_alloc_bytes(), 147);
        assert_eq!(outer.total_alloc_count(), 4);
        assert!(inner.wall_ns >= 2_000_000, "sleep lands in inner span");
        assert!(outer.total_wall_ns() >= inner.wall_ns);
        // Profile samples must never leak into the deterministic
        // artifacts: events and manifest carry no wall/alloc fields.
        for ev in &data.events {
            assert!(!ev.contains("wall"), "event leaked wall data: {ev}");
            assert!(!ev.contains("alloc"), "event leaked alloc data: {ev}");
        }
        let manifest = data.to_manifest().render();
        assert!(!manifest.contains("wall_ns"));
        assert!(!manifest.contains("alloc_bytes"));
    }

    #[test]
    fn profiling_disabled_leaves_spans_zeroed() {
        let session = TraceSession::memory();
        {
            let _o = span("outer");
            profile::note_alloc(512);
        }
        let data = session.finish();
        let outer = &data.roots[0];
        assert_eq!(outer.wall_ns, 0);
        assert_eq!(outer.alloc_bytes, 0);
        assert_eq!(outer.alloc_count, 0);
    }

    #[test]
    fn saved_rounds_attribute_to_innermost_span() {
        let session = TraceSession::memory();
        {
            let _o = span("outer");
            add_saved(4);
            {
                let _i = span("inner");
                add_saved(6);
            }
        }
        let data = session.finish();
        let outer = &data.roots[0];
        assert_eq!(outer.rounds_saved, 4);
        assert_eq!(outer.children[0].rounds_saved, 6);
        assert_eq!(outer.total_rounds_saved(), 10);
        // rounds_saved never leaks into charged rounds.
        assert_eq!(outer.total_rounds(), 0);
        // And it appears in the close event, right after messages.
        assert!(data.events[0].contains("\"messages\":0,\"rounds_saved\":6"));
    }
}

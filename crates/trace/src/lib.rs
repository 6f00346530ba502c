//! `mwc-trace`: hermetic observability for the CONGEST MWC reproduction.
//!
//! The paper's entire contribution is round-complexity bounds, yet a flat
//! per-phase total cannot show *where inside* an algorithm rounds go or
//! whether a measured run actually respects the bound the paper proves.
//! This crate provides the two missing pieces, with zero external
//! dependencies:
//!
//! 1. **Span tracing** ([`span`], [`span_owned`], [`SpanGuard`]): RAII
//!    nested spans forming a tree per algorithm run. [`Ledger`
//!    absorption](https://docs.rs) in `mwc-congest` attributes each phase's
//!    round/word/message deltas to the innermost open span, so the span
//!    tree is a flamegraph of simulated rounds rather than wall-clock time.
//!    Tracing is on exactly while a [`TraceSession`] is installed on the
//!    thread; otherwise every operation is a cheap early-return that
//!    allocates nothing and records nothing.
//! 2. **Bound auditing** ([`audit`]): algorithm entry points declare their
//!    theoretical round bound as a closure of `(n, D, h, k, ε)`; the
//!    auditor records the measured-vs-bound ratio and fails a debug
//!    assertion when a run exceeds its bound.
//!
//! The finished [`TraceData`] reaches readers as a run record
//! ([`RunRecord`]), a text flamegraph ([`TraceData::flamegraph`]) and a
//! Chrome trace ([`chrome_trace`]).
//!
//! Determinism is a hard requirement: span order is a per-session
//! sequence counter and all gated quantities are simulated-round
//! accounting, so same-seed runs produce byte-identical records (checked
//! in CI).
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
pub mod profile;
pub mod record;

use std::cell::RefCell;

pub use audit::{check_bound, AuditRecord, BoundInputs};
pub use diff::{diff_records, triage_spans, DiffEntry, DiffStatus, RunDiff, TriageEntry};
pub use export::{chrome_trace, validate_chrome_trace, TraceSummary};
pub use record::{
    audit_margins, AuditMargin, CacheTally, CongestionSummary, RunRecord, SpanMetrics,
    RUN_RECORD_SCHEMA,
};

/// One closed span: a node of the trace tree.
///
/// Cost fields are **self** costs (absorbed while this span was innermost);
/// use [`SpanNode::total_rounds`] etc. for inclusive subtree totals.
#[derive(Clone, Debug, Default, PartialEq)]
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
    /// machine-dependent.
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
}

/// The result of a finished [`TraceSession`]: the forest of root spans plus
/// any audits recorded outside every span.
#[derive(Clone, Debug, Default, PartialEq)]
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
}

impl TraceData {
    /// Every audit in the session: span-attached ones in span open order,
    /// then the orphans.
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
}

#[derive(Default)]
struct Collector {
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
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => self.data.roots.push(node),
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

    fn add_audit(&mut self, record: AuditRecord) {
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
    /// open order — which is also a pre-order walk of its forest — so
    /// renumbering that walk from `next_seq` assigns what an inline run
    /// would have.
    fn graft(&mut self, mut data: TraceData) {
        fn renumber(node: &mut SpanNode, next: &mut u64) {
            node.seq = *next;
            *next += 1;
            for c in &mut node.children {
                renumber(c, next);
            }
        }
        for r in &mut data.roots {
            renumber(r, &mut self.next_seq);
        }
        self.data.cache.add(&data.cache);
        match self.stack.last_mut() {
            Some(top) => {
                top.children.extend(data.roots);
                top.audits.extend(data.orphan_audits);
            }
            None => {
                self.data.roots.extend(data.roots);
                self.data.orphan_audits.extend(data.orphan_audits);
            }
        }
    }
}

/// A thread's tracing state: the installed session's collector, or
/// `None` while tracing is off.
type Tracer = Option<Box<Collector>>;

thread_local! {
    static TRACER: RefCell<Tracer> = const { RefCell::new(None) };
}

/// Runs `f` with the thread's collector if a session is installed.
fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    TRACER.with(|t| t.borrow_mut().as_deref_mut().map(f))
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
/// active trace, folding them into the session-level [`TraceData::cache`]
/// tally. Called by `CacheScope::drop` in `mwc-congest`; a no-op when
/// tracing is disabled. Session-level (not per-span) because the scope
/// outlives the spans that ran under it.
pub fn add_cache_stats(
    tree_hits: u64,
    tree_misses: u64,
    latency_hits: u64,
    latency_misses: u64,
    rounds_saved: u64,
) {
    with_collector(|c| {
        c.data.cache.add(&CacheTally {
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
/// flamegraphs, Chrome traces), independent of the worker schedule and
/// byte-identical to a sequential run.
pub fn graft(data: TraceData) {
    with_collector(|c| c.graft(data));
}

/// A programmatic tracing session on the current thread.
///
/// Installs a collector (displacing whatever session was active), collects
/// spans and audits until [`TraceSession::finish`], then restores the
/// previous tracer state. Used by `RunRecorder`, the parallel sweeps'
/// workers and the tracing tests.
pub struct TraceSession {
    prev: Option<Tracer>,
}

impl TraceSession {
    /// Starts collecting into memory on this thread.
    pub fn memory() -> TraceSession {
        let prev = TRACER.with(|t| t.borrow_mut().replace(Box::default()));
        TraceSession { prev: Some(prev) }
    }

    /// Stops collecting and returns everything recorded.
    ///
    /// Spans still open at finish time are closed implicitly (their guards
    /// become inert against the restored tracer — callers should finish
    /// only after all guards dropped; any stragglers are folded into the
    /// result so no data is lost).
    pub fn finish(mut self) -> TraceData {
        let prev = self.prev.take().flatten();
        let current = TRACER.with(|t| std::mem::replace(&mut *t.borrow_mut(), prev));
        match current {
            Some(mut c) => {
                while !c.stack.is_empty() {
                    c.close();
                }
                c.data
            }
            None => TraceData::default(),
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
        // No session installed: spans are inert and cost attribution goes
        // nowhere.
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
    fn flamegraph_is_deterministic() {
        let run = || {
            let session = TraceSession::memory();
            {
                let _o = span("algo");
                add_cost(8, 80, 2);
                let _i = span("algo/phase");
                add_cost(2, 20, 1);
            }
            session.finish().flamegraph()
        };
        let f1 = run();
        assert_eq!(f1, run());
        assert!(f1.contains("algo/phase"));
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
        assert_eq!(inline, grafted);
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
        assert_eq!(inline, grafted);
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
        assert_eq!(inline, grafted);
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
    }
}

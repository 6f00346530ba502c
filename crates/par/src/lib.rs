//! Hermetic deterministic parallelism: `ordered_map` fork-join over
//! `std::thread::scope`, no external dependencies (rayon-shaped hole,
//! `crates/rng`-style fill).
//!
//! The contract is **output determinism**: `ordered_map(items, f)` returns
//! exactly `items.into_iter().map(f).collect()` — same values, same order —
//! regardless of the worker count. Workers claim item *indices* from an
//! atomic counter (dynamic load balancing, since per-item cost varies
//! wildly across graph sizes), but results are joined back in input order,
//! so callers see no trace of the schedule. Anything order-sensitive that
//! `f` does internally (tracing, RNG) must be confined per item and merged
//! by the caller in input order; see `mwc_trace::TraceSession::memory` for
//! the capture-and-graft pattern the bench bins use.
//!
//! Worker count resolution, highest priority first:
//!
//! 1. [`set_jobs`] — process-wide override, for `--jobs=N` CLI flags;
//! 2. the `MWC_JOBS` environment variable;
//! 3. `1` (sequential; parallelism is strictly opt-in so default runs stay
//!    byte-for-byte comparable to the pre-pool codebase by construction).
//!
//! Parallelism runs only **across** independent work items (sweep
//! configs). One simulation always runs on one thread: the CONGEST
//! engine steps every round sequentially.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide override set by [`set_jobs`]; `0` = unset.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for the whole process (clamped to ≥ 1).
/// Bench bins call this when given a `--jobs=N` flag; it wins over
/// `MWC_JOBS`.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// The effective worker count: [`set_jobs`] override, else `MWC_JOBS`,
/// else 1.
pub fn jobs() -> usize {
    let o = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    std::env::var("MWC_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// The engine shard count: always 1, since one simulation runs on one
/// thread. Its only caller is the benchmark harness under `perfbench/`,
/// whose result stamp still carries a `shards` field.
pub fn shards() -> usize {
    1
}

/// Items mapped by [`ordered_map_jobs`] and joined back in input order.
static ITEMS_GRAFTED: AtomicU64 = AtomicU64::new(0);
/// Pool entry points that stayed inline (≤ 1 item or 1 worker) and
/// therefore spawned no thread.
static IDLE_JOINS: AtomicU64 = AtomicU64::new(0);
/// Coordinator wall-time spent inside pool entry points, nanoseconds.
/// Machine-dependent — informational only, like a run record's `wall_ms`.
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide runtime counters. The two count
/// fields are exact tallies of work the pool performed; `busy_ns` is
/// host wall-clock and must never enter a gated artifact.
///
/// All of these depend on how a run was scheduled (`--jobs`), so the
/// whole snapshot is **informational**:
/// run records stamp it the way they stamp `wall_ms` — never diffed,
/// normalized to zero in byte-comparisons.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Items mapped and joined in input order by [`ordered_map`].
    pub items_grafted: u64,
    /// Entry points that ran inline without spawning any worker.
    pub idle_joins: u64,
    /// Coordinator wall-time inside the pool, nanoseconds (informational).
    pub busy_ns: u64,
}

/// Reads the process-wide [`WorkerCounters`]. Counters accumulate from
/// process start (or the last [`reset_worker_counters`]); bench bins
/// reset at `RunRecorder::start` and snapshot at `finish` so each record
/// sees only its own run.
pub fn worker_counters() -> WorkerCounters {
    WorkerCounters {
        items_grafted: ITEMS_GRAFTED.load(Ordering::Relaxed),
        idle_joins: IDLE_JOINS.load(Ordering::Relaxed),
        busy_ns: BUSY_NS.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide [`WorkerCounters`].
pub fn reset_worker_counters() {
    ITEMS_GRAFTED.store(0, Ordering::Relaxed);
    IDLE_JOINS.store(0, Ordering::Relaxed);
    BUSY_NS.store(0, Ordering::Relaxed);
}

/// Maps `f` over `items` on [`jobs`] worker threads, returning results in
/// input order. With one worker (or ≤ 1 item) this is exactly
/// `items.into_iter().map(f).collect()` on the calling thread — no pool,
/// no overhead.
///
/// A panic in `f` propagates to the caller (after the scope joins all
/// workers).
pub fn ordered_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    ordered_map_jobs(items, jobs(), f)
}

/// [`ordered_map`] with an explicit worker count (mainly for tests; real
/// callers go through [`jobs`]).
pub fn ordered_map_jobs<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        let started = Instant::now();
        ITEMS_GRAFTED.fetch_add(n as u64, Ordering::Relaxed);
        IDLE_JOINS.fetch_add(1, Ordering::Relaxed);
        let out = items.into_iter().map(f).collect();
        BUSY_NS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        return out;
    }
    let started = Instant::now();
    ITEMS_GRAFTED.fetch_add(n as u64, Ordering::Relaxed);
    // Item and result slots are lock-per-slot: each index is claimed by
    // exactly one worker (the fetch_add hands out every index once), so
    // locks never contend — they exist to make the slot vectors Sync.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Thread profiling is a thread-local opt-in, so fresh worker threads
    // start with it off. Propagate the caller's flag so spans a worker
    // opens under its own memory session (the capture-and-graft pattern)
    // carry wall/alloc profile data whenever the coordinator's do.
    let prof = mwc_trace::profile::thread_profiling_enabled();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| {
                mwc_trace::profile::set_thread_profiling(prof);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("slot lock")
                        .take()
                        .expect("each index is claimed exactly once");
                    let r = f(item);
                    *results[i].lock().expect("result lock") = Some(r);
                }
            });
        }
    });
    let out = results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("worker filled every claimed slot")
        })
        .collect();
    BUSY_NS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 4, 8, 16] {
            let got = ordered_map_jobs(items.clone(), jobs, |x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn unbalanced_work_still_joins_in_order() {
        // Early items are much heavier than late ones, so a naive
        // completion-order join would be reversed.
        let items: Vec<usize> = (0..32).collect();
        let got = ordered_map_jobs(items.clone(), 4, |i| {
            let spins = (32 - i) * 10_000;
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            (i, acc)
        });
        let seq: Vec<(usize, u64)> = items
            .into_iter()
            .map(|i| {
                let spins = (32 - i) * 10_000;
                let mut acc = i as u64;
                for k in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
                }
                (i, acc)
            })
            .collect();
        assert_eq!(got, seq);
    }

    #[test]
    fn empty_and_singleton_inputs_stay_inline() {
        assert_eq!(
            ordered_map_jobs(Vec::<u8>::new(), 8, |x| x),
            Vec::<u8>::new()
        );
        assert_eq!(ordered_map_jobs(vec![41], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn non_clone_items_move_through_the_pool() {
        let items: Vec<String> = (0..10).map(|i| format!("s{i}")).collect();
        let got = ordered_map_jobs(items, 3, |s| s.len());
        assert_eq!(got, vec![2; 10]);
    }

    #[test]
    fn worker_counters_tally_pool_work() {
        // Counters are process-global and other tests run concurrently,
        // so assert on deltas with ≥, never on absolute values.
        let before = worker_counters();
        let got = ordered_map_jobs((0..9u64).collect(), 3, |x| x + 1);
        assert_eq!(got.len(), 9);
        let _ = ordered_map_jobs(vec![1u8], 8, |x| x);
        let after = worker_counters();
        assert!(after.items_grafted >= before.items_grafted + 10);
        // The singleton map stays inline.
        assert!(after.idle_joins > before.idle_joins);
    }

    #[test]
    fn ordered_map_workers_inherit_profiling_flag() {
        mwc_trace::profile::set_thread_profiling(true);
        let flags = ordered_map_jobs((0..4u8).collect(), 4, |_| {
            mwc_trace::profile::thread_profiling_enabled()
        });
        mwc_trace::profile::set_thread_profiling(false);
        assert_eq!(flags, vec![true; 4]);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            ordered_map_jobs(vec![1, 2, 3], 2, |x| {
                assert_ne!(x, 2, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }
}

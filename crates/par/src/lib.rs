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
//! Parallelism runs only **across** independent work items: the size
//! sweeps of `table1_girth` and `table1_undirected_weighted`, whose
//! largest sizes are the critical path. One simulation always runs on one
//! thread: the CONGEST engine steps every round sequentially.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
        return items.into_iter().map(f).collect();
    }
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
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("worker filled every claimed slot")
        })
        .collect()
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

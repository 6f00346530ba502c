//! Phase-level memoization of shared distributed structures.
//!
//! The paper's framework (§1.1, citing \[43\]) assumes one global broadcast
//! backbone: a real CONGEST execution builds the BFS tree once and pays its
//! `O(D)` rounds once, then every later phase reuses it for free. Before
//! this module the simulator rebuilt (and re-charged) the tree at every
//! call site — over-charging rounds relative to the model — and re-derived
//! identical stretched latency tables per scale per call.
//!
//! A [`PhaseCache`] fixes both. It is installed per algorithm *entry
//! point* via [`PhaseCache::scope`] (a thread-local, so nested calls share
//! the outer cache and independent invocations stay independent —
//! determinism tests that run an algorithm twice must see identical
//! ledgers). Cache hits are **visible, not silent**: a hit on a BFS tree
//! pushes a zero-cost `cached: bfs tree (saved N rounds)` phase through
//! [`Ledger::credit_cached`] and attributes `N` to
//! [`Ledger::rounds_saved`] / the open trace span, so reports and diffs
//! can audit exactly what reuse bought.
//!
//! A third table, the **flood memo**, runs each distinct
//! [`multi_source_bfs`](crate::multi_source_bfs) flood once per scope.
//! Its key is the graph fingerprint plus a digest of the direction, the
//! distance budget, the source rows in order and the latency table. A
//! repeated flood is not re-run: its span, [`flood_engagement`] tally,
//! ledger phase and bound audit are replayed from the first run's round
//! count and moved-out [`NetStats`]. Unlike a tree hit, a replay charges
//! its full cost again — a real execution runs the flood twice — so
//! ledgers, audits and run records are identical with the memo on or off;
//! only host work is saved. The policy follows which results are wanted:
//!
//! - a real run stores its charges;
//! - a charge-only run ([`charge_multi_source_bfs`]) that misses runs the
//!   flood, stores the charges and parks the result matrix;
//! - a real run whose key has a parked matrix takes it and replays;
//! - a charge-only run whose key has any stored charges replays.
//!
//! The memo is bypassed while the message-event log is on
//! ([`crate::events::enabled`]), since a replay emits no message events.
//! [`CacheStats::flood_replays`] counts the replays.
//!
//! [`PhaseCache::disable_for_thread`] forces every call site on the
//! thread down the uncached path, flood memo included; results must be
//! byte-identical either way — only the round accounting of repeated tree
//! builds differs.
//!
//! [`flood_engagement`]: crate::flood_engagement
//! [`charge_multi_source_bfs`]: crate::charge_multi_source_bfs

use crate::distmat::DistMatrix;
use crate::engine::{NetStats, Network};
use crate::ledger::Ledger;
use crate::multibfs::MultiBfsSpec;
use crate::tree::BfsTree;
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Key for cached latency tables: `(fingerprint, h, ε_q numerator, scale)`.
type LatencyKey = (u64, u64, u64, u32);

struct CachedTree {
    tree: Arc<BfsTree>,
    rounds: u64,
}

/// Key for memoized floods: the graph fingerprint, and a digest of the
/// direction, budget, source rows and latency table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct FloodKey {
    graph: u64,
    flood: u64,
}

/// A finished flood's charges, plus its result matrix while a charge-only
/// run has it parked for the real run to come.
struct FloodCharge {
    rounds: u64,
    stats: NetStats,
    parked: Option<DistMatrix>,
}

/// Hit/miss counters for one cache scope — exposed so tests and bench
/// drivers can assert cache effectiveness instead of trusting it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
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
    /// Floods replayed from the flood memo (charged in full, not re-run).
    pub flood_replays: u64,
}

/// Memoizes per-run shared structures: the global BFS tree keyed by
/// `(graph fingerprint, root)`, stretched latency tables keyed by
/// `(graph fingerprint, h, ε_q, scale)`, and flood charges keyed by the
/// graph fingerprint and a digest of the flood's direction, budget, source
/// rows and latency table. See the module docs for the scoping and
/// visibility rules.
#[derive(Default)]
pub struct PhaseCache {
    trees: HashMap<(u64, NodeId), CachedTree>,
    latencies: HashMap<LatencyKey, Arc<Vec<Weight>>>,
    floods: HashMap<FloodKey, FloodCharge>,
    /// One link table per graph fingerprint: a replay into an empty
    /// ledger needs it, and every flood on a graph shares it.
    link_ends: HashMap<u64, Vec<(NodeId, NodeId)>>,
    stats: CacheStats,
}

thread_local! {
    static ACTIVE: RefCell<Option<PhaseCache>> = const { RefCell::new(None) };
    static DISABLED: Cell<bool> = const { Cell::new(false) };
}

/// A stable fingerprint of a graph's topology and weights, mixed with the
/// in-tree [`mwc_rng::splitmix64`] finalizer. Distinguishes a graph from
/// its reverse (orientation and edge direction are hashed), so `g` and
/// `g.reversed()` never share cache entries.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut state: u64 = 0x6d77_6363_6163_6865; // "mwccache"
    mix(&mut state, g.n() as u64);
    mix(&mut state, g.is_directed() as u64);
    mix(&mut state, g.m() as u64);
    for e in g.edges() {
        mix(&mut state, e.u as u64);
        mix(&mut state, e.v as u64);
        mix(&mut state, e.weight);
    }
    mwc_rng::splitmix64(&mut state)
}

/// Folds `word` into a running digest. The next state is the mixed
/// output of [`mwc_rng::splitmix64`], not its counter: xoring words into
/// a counter that only steps by a constant lets short runs of small
/// words cancel (two latency tables of one graph collided that way).
fn mix(state: &mut u64, word: u64) {
    let mut counter = *state ^ word;
    *state = mwc_rng::splitmix64(&mut counter);
}

/// True when caching is off for this call: a
/// [`PhaseCache::disable_for_thread`] guard is live on this thread.
pub fn cache_disabled() -> bool {
    DISABLED.with(Cell::get)
}

fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

impl PhaseCache {
    /// Installs a fresh cache for this thread unless one is already active
    /// (nested entry points share the outermost scope) or caching is
    /// disabled. The returned guard uninstalls exactly what it installed,
    /// so each top-level algorithm invocation starts cold — repeated
    /// invocations stay deterministic and identically charged.
    pub fn scope() -> CacheScope {
        if cache_disabled() {
            return CacheScope { installed: false };
        }
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            if slot.is_none() {
                *slot = Some(PhaseCache::default());
                CacheScope { installed: true }
            } else {
                CacheScope { installed: false }
            }
        })
    }

    /// Disables caching on this thread until the guard drops; other
    /// threads keep their caches, so parallel tests do not interfere.
    pub fn disable_for_thread() -> CacheDisableGuard {
        let prev = DISABLED.with(|d| d.replace(true));
        CacheDisableGuard { prev }
    }

    /// The active scope's counters, or `None` when no cache is installed.
    pub fn stats() -> Option<CacheStats> {
        ACTIVE.with(|a| a.borrow().as_ref().map(|c| c.stats))
    }

    /// [`BfsTree::build`] through the cache. On a miss the tree is built
    /// normally (charged to `ledger`) and remembered with its round cost;
    /// on a hit the cached tree is replayed and `ledger` records a
    /// zero-cost `cached: bfs tree` phase crediting the saved rounds.
    /// Without an active scope this is exactly `BfsTree::build`.
    pub fn bfs_tree(g: &Graph, root: NodeId, ledger: &mut Ledger) -> Arc<BfsTree> {
        if !is_active() {
            return Arc::new(BfsTree::build(g, root, ledger));
        }
        let key = (graph_fingerprint(g), root);
        let hit = ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let cache = slot.as_mut().expect("checked active above");
            cache.trees.get(&key).map(|ct| {
                cache.stats.tree_hits += 1;
                cache.stats.rounds_saved += ct.rounds;
                (ct.tree.clone(), ct.rounds)
            })
        });
        if let Some((tree, rounds)) = hit {
            ledger.credit_cached("bfs tree", rounds);
            return tree;
        }
        // Miss: build outside any RefCell borrow (the build may trace,
        // panic, or re-enter), then remember the measured round cost.
        let before = ledger.rounds;
        let tree = Arc::new(BfsTree::build(g, root, ledger));
        let rounds = ledger.rounds - before;
        ACTIVE.with(|a| {
            if let Some(cache) = a.borrow_mut().as_mut() {
                cache.stats.tree_misses += 1;
                cache.trees.insert(
                    key,
                    CachedTree {
                        tree: tree.clone(),
                        rounds,
                    },
                );
            }
        });
        tree
    }

    /// A stretched latency table through the cache: derived once per
    /// `(fingerprint, h, ε_q, scale)` and shared thereafter. Deriving the
    /// table is node-local (it costs no rounds), so hits save wall-clock
    /// and allocation only — nothing is credited to any ledger.
    pub fn latency_table(
        g: &Graph,
        h: u64,
        eps_num: u64,
        scale: u32,
        build: impl FnOnce() -> Vec<Weight>,
    ) -> Arc<Vec<Weight>> {
        if !is_active() {
            return Arc::new(build());
        }
        let key = (graph_fingerprint(g), h, eps_num, scale);
        let hit = ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let cache = slot.as_mut().expect("checked active above");
            cache.latencies.get(&key).map(|t| {
                cache.stats.latency_hits += 1;
                t.clone()
            })
        });
        if let Some(table) = hit {
            return table;
        }
        let table = Arc::new(build());
        ACTIVE.with(|a| {
            if let Some(cache) = a.borrow_mut().as_mut() {
                cache.stats.latency_misses += 1;
                cache.latencies.insert(key, table.clone());
            }
        });
        table
    }

    /// The flood memo's key for a `multi_source_bfs` flood, or `None` when
    /// the memo is off: no active scope, or the message-event log is on.
    pub(crate) fn flood_key(
        g: &Graph,
        sources: &[NodeId],
        spec: &MultiBfsSpec<'_>,
    ) -> Option<FloodKey> {
        if !is_active() || crate::events::enabled() {
            return None;
        }
        let mut state: u64 = 0x6d77_6366_6c6f_6f64; // "mwcflood"
        mix(&mut state, (spec.direction == Direction::Reverse) as u64);
        mix(&mut state, spec.max_dist);
        mix(&mut state, sources.len() as u64);
        for &s in sources {
            mix(&mut state, s as u64);
        }
        // Only the first `m` entries reach the flood and its bound audit.
        match spec.latency {
            None => mix(&mut state, 0),
            Some(l) => {
                mix(&mut state, 1);
                for &w in &l[..g.m()] {
                    mix(&mut state, w);
                }
            }
        }
        Some(FloodKey {
            graph: graph_fingerprint(g),
            flood: mwc_rng::splitmix64(&mut state),
        })
    }

    /// Replays the flood under `key` into `ledger` as phase `label`, when
    /// the memo holds its charges and, if the result is `wanted`, a parked
    /// matrix to take. Returns the flood's round count and the matrix (for
    /// a wanted flood); `None` means the flood must run.
    pub(crate) fn replay_flood(
        key: FloodKey,
        wanted: bool,
        label: &str,
        ledger: &mut Ledger,
    ) -> Option<(u64, Option<DistMatrix>)> {
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let cache = slot.as_mut()?;
            let charge = cache.floods.get_mut(&key)?;
            let mat = if wanted {
                Some(charge.parked.take()?)
            } else {
                None
            };
            let link_ends = &cache.link_ends[&key.graph];
            ledger.absorb_stats(label, charge.rounds, &charge.stats, link_ends);
            cache.stats.flood_replays += 1;
            Some((charge.rounds, mat))
        })
    }

    /// Stores a finished flood's charges under `key` (the first run's
    /// charges win), moving them out of `net`. A `wanted` result is handed
    /// back; any other is parked for a later real run of the same flood.
    pub(crate) fn store_flood(
        key: FloodKey,
        net: Network<()>,
        mat: DistMatrix,
        wanted: bool,
    ) -> Option<DistMatrix> {
        let rounds = net.round();
        let (link_ends, stats) = net.into_charges();
        let (parked, result) = if wanted {
            (None, Some(mat))
        } else {
            (Some(mat), None)
        };
        ACTIVE.with(|a| {
            if let Some(cache) = a.borrow_mut().as_mut() {
                cache.link_ends.entry(key.graph).or_insert(link_ends);
                cache.floods.entry(key).or_insert(FloodCharge {
                    rounds,
                    stats,
                    parked,
                });
            }
        });
        result
    }
}

/// Guard returned by [`PhaseCache::scope`]; uninstalls the cache it
/// installed (and nothing else) on drop.
#[must_use = "the cache lives only as long as this guard"]
pub struct CacheScope {
    installed: bool,
}

impl Drop for CacheScope {
    fn drop(&mut self) {
        if self.installed {
            // A solve's flood outboxes end with it (see the `workspace`
            // module docs).
            crate::workspace::release_outboxes();
            let cache = ACTIVE.with(|a| a.borrow_mut().take());
            // The scope owns its cache's whole life, so teardown is the
            // one point the final hit/miss tally exists — report it to
            // the active trace (a no-op when tracing is off or the scope
            // saw no cache traffic).
            if let Some(cache) = cache {
                let s = cache.stats;
                // Replays are not a run-record field: a scope that only
                // replayed floods reports nothing, as before the memo.
                let reported = CacheStats {
                    flood_replays: 0,
                    ..s
                };
                if reported != CacheStats::default() {
                    mwc_trace::add_cache_stats(
                        s.tree_hits,
                        s.tree_misses,
                        s.latency_hits,
                        s.latency_misses,
                        s.rounds_saved,
                    );
                }
            }
        }
    }
}

/// Guard returned by [`PhaseCache::disable_for_thread`]; restores the
/// previous thread-local disable flag on drop.
#[must_use = "caching re-enables when this guard drops"]
pub struct CacheDisableGuard {
    prev: bool,
}

impl Drop for CacheDisableGuard {
    fn drop(&mut self) {
        DISABLED.with(|d| d.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, WeightRange};
    use mwc_graph::Orientation;

    fn graph() -> Graph {
        connected_gnm(24, 40, Orientation::Undirected, WeightRange::unit(), 9)
    }

    #[test]
    fn fingerprint_is_stable_and_separates_graphs() {
        let g = graph();
        assert_eq!(graph_fingerprint(&g), graph_fingerprint(&g));
        let other = connected_gnm(24, 40, Orientation::Undirected, WeightRange::unit(), 10);
        assert_ne!(graph_fingerprint(&g), graph_fingerprint(&other));
        let d = connected_gnm(24, 40, Orientation::Directed, WeightRange::uniform(1, 9), 9);
        assert_ne!(graph_fingerprint(&d), graph_fingerprint(&d.reversed()));
    }

    #[test]
    fn second_build_is_a_hit_and_credits_saved_rounds() {
        let g = graph();
        let _scope = PhaseCache::scope();
        let mut ledger = Ledger::new();
        let t1 = PhaseCache::bfs_tree(&g, 0, &mut ledger);
        let cost = ledger.rounds;
        assert!(cost > 0);
        let t2 = PhaseCache::bfs_tree(&g, 0, &mut ledger);
        assert_eq!(ledger.rounds, cost, "hit must not re-charge rounds");
        assert_eq!(ledger.rounds_saved, cost);
        assert_eq!(t1.parent, t2.parent);
        assert!(ledger
            .phases
            .iter()
            .any(|p| p.label.starts_with("cached: bfs tree (saved")));
        let stats = PhaseCache::stats().unwrap();
        assert_eq!((stats.tree_hits, stats.tree_misses), (1, 1));
        assert_eq!(stats.rounds_saved, cost);
    }

    #[test]
    fn different_roots_are_distinct_entries() {
        let g = graph();
        let _scope = PhaseCache::scope();
        let mut ledger = Ledger::new();
        PhaseCache::bfs_tree(&g, 0, &mut ledger);
        PhaseCache::bfs_tree(&g, 5, &mut ledger);
        let stats = PhaseCache::stats().unwrap();
        assert_eq!((stats.tree_hits, stats.tree_misses), (0, 2));
        assert_eq!(ledger.rounds_saved, 0);
    }

    #[test]
    fn nested_scopes_share_the_outer_cache() {
        let g = graph();
        let _outer = PhaseCache::scope();
        let mut ledger = Ledger::new();
        PhaseCache::bfs_tree(&g, 0, &mut ledger);
        {
            let _inner = PhaseCache::scope();
            PhaseCache::bfs_tree(&g, 0, &mut ledger);
            assert_eq!(PhaseCache::stats().unwrap().tree_hits, 1);
        }
        // The inner guard must not have torn down the outer cache.
        assert!(PhaseCache::stats().is_some());
        PhaseCache::bfs_tree(&g, 0, &mut ledger);
        assert_eq!(PhaseCache::stats().unwrap().tree_hits, 2);
    }

    #[test]
    fn scope_teardown_leaves_no_cache() {
        {
            let _scope = PhaseCache::scope();
            assert!(PhaseCache::stats().is_some());
        }
        assert!(PhaseCache::stats().is_none());
        // Without a scope, bfs_tree degrades to a plain build.
        let g = graph();
        let mut ledger = Ledger::new();
        let a = PhaseCache::bfs_tree(&g, 0, &mut ledger);
        let b = PhaseCache::bfs_tree(&g, 0, &mut ledger);
        assert_eq!(a.parent, b.parent);
        assert_eq!(ledger.rounds_saved, 0);
        assert_eq!(ledger.phases.len(), 2);
    }

    #[test]
    fn disable_guard_blocks_scope_installation() {
        let _off = PhaseCache::disable_for_thread();
        let _scope = PhaseCache::scope();
        assert!(PhaseCache::stats().is_none());
        let g = graph();
        let mut ledger = Ledger::new();
        PhaseCache::bfs_tree(&g, 0, &mut ledger);
        PhaseCache::bfs_tree(&g, 0, &mut ledger);
        assert_eq!(ledger.rounds_saved, 0);
    }

    /// Every latency table over `{1, …, 4}` on a 5-edge graph gets its own
    /// flood key: a digest that lets small words cancel would merge some.
    #[test]
    fn flood_keys_separate_every_small_latency_table() {
        let g = Graph::from_edges(
            4,
            Orientation::Directed,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1)],
        )
        .unwrap();
        let _scope = PhaseCache::scope();
        let mut keys = std::collections::HashSet::new();
        for code in 0..4u64.pow(5) {
            let lat: Vec<Weight> = (0..5).map(|i| 1 + code / 4u64.pow(i) % 4).collect();
            let spec = MultiBfsSpec {
                max_dist: 40,
                direction: Direction::Forward,
                latency: Some(&lat),
            };
            assert!(keys.insert(PhaseCache::flood_key(&g, &[0, 2], &spec).unwrap()));
        }
        let spec = MultiBfsSpec::default();
        let reverse = MultiBfsSpec {
            direction: Direction::Reverse,
            ..spec
        };
        let key = |sources: &[NodeId], spec| PhaseCache::flood_key(&g, sources, spec).unwrap();
        assert_ne!(key(&[0, 2], &spec), key(&[0, 2], &reverse));
        assert_ne!(key(&[0, 2], &spec), key(&[2, 0], &spec));
        assert_eq!(key(&[0, 2], &spec), key(&[0, 2], &spec));
    }

    #[test]
    fn latency_tables_are_shared_per_key() {
        let g = graph();
        let _scope = PhaseCache::scope();
        let mut calls = 0;
        for _ in 0..3 {
            let t = PhaseCache::latency_table(&g, 8, 4, 2, || {
                calls += 1;
                vec![1, 2, 3]
            });
            assert_eq!(*t, vec![1, 2, 3]);
        }
        assert_eq!(calls, 1);
        let t = PhaseCache::latency_table(&g, 8, 4, 3, || {
            calls += 1;
            vec![9]
        });
        assert_eq!(*t, vec![9]);
        assert_eq!(calls, 2);
        let stats = PhaseCache::stats().unwrap();
        assert_eq!((stats.latency_hits, stats.latency_misses), (2, 2));
    }
}

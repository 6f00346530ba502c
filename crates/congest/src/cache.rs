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
//! A fourth table holds **link tables**, one per graph fingerprint. The
//! communication topology is fixed for the whole run, so the first
//! [`Network::new`] on a graph in the scope builds the graph's link table
//! and every later network on it shares that table: floods, source
//! detection, broadcast, the tree build, convergecast, the neighbor
//! exchanges and Algorithm 3's round accounting. A flood replay charges
//! into the same table. Outside a scope a network builds its own.
//! [`CacheStats::link_hits`] counts the shared tables handed out.
//!
//! So a scope holds four tables, all keyed by [`Graph::fingerprint`]
//! (computed once per graph): BFS trees, stretched latency tables, the
//! flood memo and link tables. They live as long as the outermost scope,
//! not as long as the graph.
//!
//! [`PhaseCache::disable_for_thread`] forces every call site on the
//! thread down the uncached path while its guard lives, flood memo and
//! link tables included, even inside a scope installed before the guard;
//! results must be byte-identical either way — only the round accounting
//! of repeated tree builds differs.
//!
//! [`flood_engagement`]: crate::flood_engagement
//! [`charge_multi_source_bfs`]: crate::charge_multi_source_bfs

use crate::distmat::DistMatrix;
use crate::engine::{Links, NetStats, Network};
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
    /// Networks handed an already-built link table.
    pub link_hits: u64,
}

/// Memoizes per-run shared structures: the global BFS tree keyed by
/// `(graph fingerprint, root)`, stretched latency tables keyed by
/// `(graph fingerprint, h, ε_q, scale)`, flood charges keyed by the graph
/// fingerprint and a digest of the flood's direction, budget, source rows
/// and latency table, and network link tables keyed by the graph
/// fingerprint. See the module docs for the scoping and visibility rules.
#[derive(Default)]
pub struct PhaseCache {
    trees: HashMap<(u64, NodeId), CachedTree>,
    latencies: HashMap<LatencyKey, Arc<Vec<Weight>>>,
    floods: HashMap<FloodKey, FloodCharge>,
    links: HashMap<u64, Arc<Links>>,
    stats: CacheStats,
}

thread_local! {
    static ACTIVE: RefCell<Option<PhaseCache>> = const { RefCell::new(None) };
    static DISABLED: Cell<bool> = const { Cell::new(false) };
}

/// True when caching is off for this call: a
/// [`PhaseCache::disable_for_thread`] guard is live on this thread.
pub fn cache_disabled() -> bool {
    DISABLED.with(Cell::get)
}

/// Runs `f` on the thread's cache when it is in use: a scope is installed
/// and no [`PhaseCache::disable_for_thread`] guard is live. Every table
/// read and write goes through here, so a guard taken inside a scope turns
/// the scope's tables off too. `None` means the call takes the uncached
/// path.
fn with_active<R>(f: impl FnOnce(&mut PhaseCache) -> R) -> Option<R> {
    if cache_disabled() {
        return None;
    }
    ACTIVE.with(|a| a.borrow_mut().as_mut().map(f))
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

    /// Disables caching on this thread until the guard drops, including
    /// an already installed scope's tables; other threads keep their
    /// caches, so parallel tests do not interfere.
    pub fn disable_for_thread() -> CacheDisableGuard {
        let prev = DISABLED.with(|d| d.replace(true));
        CacheDisableGuard { prev }
    }

    /// The active scope's counters, or `None` when no cache is installed.
    pub fn stats() -> Option<CacheStats> {
        ACTIVE.with(|a| a.borrow().as_ref().map(|c| c.stats))
    }

    /// The scope's link table for `g`, built on the graph's first
    /// [`Network::new`] of the scope and shared by every later one; `None`
    /// when no scope is active, so the network builds its own.
    pub(crate) fn links(g: &Graph) -> Option<Arc<Links>> {
        with_active(|cache| {
            let key = g.fingerprint();
            if let Some(links) = cache.links.get(&key) {
                debug_assert!(
                    links.counts_match(g),
                    "link table under a colliding fingerprint"
                );
                cache.stats.link_hits += 1;
                return links.clone();
            }
            let links = Arc::new(Links::new(g));
            cache.links.insert(key, links.clone());
            links
        })
    }

    /// [`BfsTree::build`] through the cache. On a miss the tree is built
    /// normally (charged to `ledger`) and remembered with its round cost;
    /// on a hit the cached tree is replayed and `ledger` records a
    /// zero-cost `cached: bfs tree` phase crediting the saved rounds.
    /// Without an active scope this is exactly `BfsTree::build`.
    pub fn bfs_tree(g: &Graph, root: NodeId, ledger: &mut Ledger) -> Arc<BfsTree> {
        let key = || (g.fingerprint(), root);
        let hit = with_active(|cache| {
            cache.trees.get(&key()).map(|ct| {
                cache.stats.tree_hits += 1;
                cache.stats.rounds_saved += ct.rounds;
                (ct.tree.clone(), ct.rounds)
            })
        });
        match hit {
            None => return BfsTree::build_shared(g, root, ledger),
            Some(Some((tree, rounds))) => {
                ledger.credit_cached("bfs tree", rounds);
                return tree;
            }
            Some(None) => {}
        }
        // Miss: build outside any RefCell borrow (the build may trace,
        // panic, or re-enter), then remember the measured round cost.
        let before = ledger.rounds;
        let tree = BfsTree::build_shared(g, root, ledger);
        let rounds = ledger.rounds - before;
        with_active(|cache| {
            cache.stats.tree_misses += 1;
            cache.trees.insert(
                key(),
                CachedTree {
                    tree: tree.clone(),
                    rounds,
                },
            );
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
        let key = || (g.fingerprint(), h, eps_num, scale);
        let hit = with_active(|cache| {
            cache.latencies.get(&key()).map(|t| {
                cache.stats.latency_hits += 1;
                t.clone()
            })
        });
        match hit {
            None => return Arc::new(build()),
            Some(Some(table)) => return table,
            Some(None) => {}
        }
        let table = Arc::new(build());
        with_active(|cache| {
            cache.stats.latency_misses += 1;
            cache.latencies.insert(key(), table.clone());
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
        if with_active(|_| ()).is_none() || crate::events::enabled() {
            return None;
        }
        let mut state: u64 = 0x6d77_6366_6c6f_6f64; // "mwcflood"
        mwc_rng::mix(&mut state, (spec.direction == Direction::Reverse) as u64);
        mwc_rng::mix(&mut state, spec.max_dist);
        mwc_rng::mix(&mut state, sources.len() as u64);
        for &s in sources {
            mwc_rng::mix(&mut state, s as u64);
        }
        // Only the first `m` entries reach the flood and its bound audit.
        match spec.latency {
            None => mwc_rng::mix(&mut state, 0),
            Some(l) => {
                mwc_rng::mix(&mut state, 1);
                for &w in &l[..g.m()] {
                    mwc_rng::mix(&mut state, w);
                }
            }
        }
        Some(FloodKey {
            graph: g.fingerprint(),
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
        with_active(|cache| {
            let links = cache.links.get(&key.graph)?;
            let charge = cache.floods.get_mut(&key)?;
            let mat = if wanted {
                Some(charge.parked.take()?)
            } else {
                None
            };
            ledger.absorb_stats(label, charge.rounds, &charge.stats, links.ends());
            cache.stats.flood_replays += 1;
            Some((charge.rounds, mat))
        })
        .flatten()
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
        let stats = net.into_stats();
        let (parked, result) = if wanted {
            (None, Some(mat))
        } else {
            (Some(mat), None)
        };
        with_active(|cache| {
            cache.floods.entry(key).or_insert(FloodCharge {
                rounds,
                stats,
                parked,
            });
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
                // Replays and link-table hits are not run-record fields:
                // a scope that only replayed floods or shared link tables
                // reports nothing.
                let reported = CacheStats {
                    flood_replays: 0,
                    link_hits: 0,
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

    /// A network built on a link-table hit has the same links, with the
    /// same ids, as one that built its own table outside any scope.
    #[test]
    fn shared_link_tables_match_owned_ones() {
        let undirected = graph();
        let mut directed = connected_gnm(24, 40, Orientation::Directed, WeightRange::unit(), 9);
        // An antiparallel pair shares one link pair.
        let e = *directed
            .edges()
            .iter()
            .find(|e| !directed.has_edge(e.v, e.u))
            .unwrap();
        directed.add_edge(e.v, e.u, 1).unwrap();
        for g in [undirected, directed] {
            let owned: Network<()> = Network::new(&g);
            let _scope = PhaseCache::scope();
            let _first: Network<()> = Network::new(&g);
            let shared: Network<u8> = Network::new(&g);
            assert_eq!(PhaseCache::stats().unwrap().link_hits, 1);
            assert_eq!(shared.link_ends(), owned.link_ends());
            for u in 0..g.n() {
                for v in 0..g.n() {
                    assert_eq!(shared.link_id(u, v), owned.link_id(u, v), "({u}, {v})");
                }
            }
        }
    }

    /// Link tables are per graph, live with the scope, and are never
    /// shared outside one.
    #[test]
    fn link_tables_are_per_graph_and_per_scope() {
        let g = graph();
        {
            let _scope = PhaseCache::scope();
            for _ in 0..3 {
                let _: Network<()> = Network::new(&g);
            }
            let _: Network<()> = Network::new(&g.map_weights(|w| w + 1));
            assert_eq!(PhaseCache::stats().unwrap().link_hits, 2);
        }
        let _scope = PhaseCache::scope();
        let _: Network<()> = Network::new(&g);
        assert_eq!(PhaseCache::stats().unwrap().link_hits, 0);
        drop(_scope);
        let _off = PhaseCache::disable_for_thread();
        let _scope = PhaseCache::scope();
        let _: Network<()> = Network::new(&g);
        assert!(PhaseCache::stats().is_none());
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

    /// A guard taken inside an installed scope turns the scope's tables
    /// off until it drops: repeated trees and floods are neither looked up
    /// nor stored.
    #[test]
    fn disable_guard_bypasses_an_installed_scope() {
        let g = graph();
        let spec = MultiBfsSpec::default();
        let _scope = PhaseCache::scope();
        let mut ledger = Ledger::new();
        {
            let _off = PhaseCache::disable_for_thread();
            let t1 = PhaseCache::bfs_tree(&g, 0, &mut ledger);
            let t2 = PhaseCache::bfs_tree(&g, 0, &mut ledger);
            assert_eq!(t1.parent, t2.parent);
            let a = crate::multi_source_bfs(&g, &[0, 5], &spec, "bfs", &mut ledger);
            let b = crate::multi_source_bfs(&g, &[0, 5], &spec, "bfs", &mut ledger);
            assert!((0..g.n()).all(|v| a.column(v) == b.column(v)));
            assert_eq!(ledger.rounds_saved, 0);
            assert!(!ledger.phases.iter().any(|p| p.label.starts_with("cached:")));
            assert_eq!(PhaseCache::stats(), Some(CacheStats::default()));
        }
        // The scope is back once the guard drops.
        PhaseCache::bfs_tree(&g, 0, &mut ledger);
        PhaseCache::bfs_tree(&g, 0, &mut ledger);
        let stats = PhaseCache::stats().unwrap();
        assert_eq!((stats.tree_hits, stats.tree_misses), (1, 1));
        assert!(stats.rounds_saved > 0);
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

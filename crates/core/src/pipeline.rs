//! The skeleton-graph pipeline shared by exact `k`-source BFS (Theorem
//! 1.6.A) and approximate `k`-source SSSP (Theorem 1.6.B).
//!
//! Algorithm 1's structure is independent of *how* the `h`-bounded
//! segment distances are computed: plain BFS for unweighted graphs, scaled
//! stretched BFS for the `(1+ε)` weighted variant (§2, "Weighted Graphs").
//! This module implements the structure once, generic over a [`Segments`]
//! provider.

use crate::params::Params;
use crate::util::sample_vertices;
use mwc_congest::{broadcast, Ledger, PhaseCache, INF};
use mwc_graph::{Graph, NodeId, Weight};

pub(crate) const SALT_SAMPLES: u64 = 0xA1;

/// An `h`-bounded multi-source distance table with path reconstruction.
pub(crate) trait Segments {
    /// Distance from the `row`-th source to `v`, [`INF`] if not found.
    fn get(&self, row: usize, v: NodeId) -> Weight;
    /// A real path from the `row`-th source to `v` realizing (at most) the
    /// reported distance, in forward orientation.
    fn path(&self, row: usize, v: NodeId) -> Option<Vec<NodeId>>;
    /// One min-plus fold over every source: `out[v] = min(out[v], a[row]
    /// ⊕ get(row, v))` for each `row`, where `⊕` saturates, so [`INF`]
    /// absorbs. Implementations walk their storage in layout order.
    fn min_plus_into(&self, a: &[Weight], out: &mut [Weight]);
}

/// Output of [`skeleton_pipeline`].
#[derive(Clone, Debug)]
pub(crate) enum Pipeline<S> {
    /// One unbounded run covered everything (small `n` or `k ≈ n`).
    Direct(S),
    /// Full skeleton composition.
    Skeleton(Box<SkeletonParts<S>>),
}

#[derive(Clone, Debug)]
pub(crate) struct SkeletonParts<S> {
    pub samples: Vec<NodeId>,
    /// `h`-bounded segments from the sources `U`.
    pub seg_u: S,
    /// `h`-bounded segments from the samples `S`.
    pub seg_s: S,
    /// Exact/approx source→sample distances, `k × |S|`.
    pub d_us: Vec<Weight>,
    /// Skeleton APSP distances, `|S| × |S|`.
    pub skel_dist: Vec<Weight>,
    /// Skeleton APSP predecessors (sample indices), `|S| × |S|`.
    pub skel_pred: Vec<u32>,
    /// Combined distances, `k × n`.
    pub final_dist: Vec<Weight>,
    pub n: usize,
}

impl<S: Segments> Pipeline<S> {
    pub(crate) fn get_row(&self, row: usize, v: NodeId) -> Weight {
        match self {
            Pipeline::Direct(s) => s.get(row, v),
            Pipeline::Skeleton(p) => p.final_dist[row * p.n + v],
        }
    }

    /// Path in forward orientation; may be a walk (callers simplify).
    pub(crate) fn path_row(&self, row: usize, v: NodeId) -> Option<Vec<NodeId>> {
        match self {
            Pipeline::Direct(s) => s.path(row, v),
            Pipeline::Skeleton(p) => p.path(row, v),
        }
    }
}

impl<S: Segments> SkeletonParts<S> {
    fn ns(&self) -> usize {
        self.samples.len()
    }

    fn path(&self, row: usize, v: NodeId) -> Option<Vec<NodeId>> {
        let d = self.final_dist[row * self.n + v];
        if d == INF {
            return None;
        }
        if self.seg_u.get(row, v) <= d {
            return self.seg_u.path(row, v);
        }
        // Argmin sample for the combined distance.
        let ns = self.ns();
        let si = (0..ns)
            .filter(|&si| self.d_us[row * ns + si] != INF && self.seg_s.get(si, v) != INF)
            .min_by_key(|&si| self.d_us[row * ns + si] + self.seg_s.get(si, v))?;
        let mut p = self.path_to_sample(row, si)?;
        let tail = self.seg_s.path(si, v)?;
        p.extend_from_slice(&tail[1..]);
        Some(p)
    }

    fn path_to_sample(&self, row: usize, si: usize) -> Option<Vec<NodeId>> {
        let ns = self.ns();
        let d = self.d_us[row * ns + si];
        let s_node = self.samples[si];
        if self.seg_u.get(row, s_node) <= d {
            return self.seg_u.path(row, s_node);
        }
        let t = (0..ns)
            .filter(|&t| {
                self.seg_u.get(row, self.samples[t]) != INF && self.skel_dist[t * ns + si] != INF
            })
            .min_by_key(|&t| self.seg_u.get(row, self.samples[t]) + self.skel_dist[t * ns + si])?;
        let mut p = self.seg_u.path(row, self.samples[t])?;
        let mut hops = vec![si];
        let mut cur = si;
        while cur != t {
            let pr = self.skel_pred[t * ns + cur];
            if pr == u32::MAX || hops.len() > ns {
                return None;
            }
            cur = pr as usize;
            hops.push(cur);
        }
        hops.reverse();
        for w in hops.windows(2) {
            let seg = self.seg_s.path(w[0], self.samples[w[1]])?;
            p.extend_from_slice(&seg[1..]);
        }
        Some(p)
    }
}

/// Local (free) APSP on the skeleton graph.
fn skeleton_apsp(ns: usize, edges: &[(u32, u32, Weight)]) -> (Vec<Weight>, Vec<u32>) {
    let mut adj: Vec<Vec<(u32, Weight)>> = vec![Vec::new(); ns];
    for &(a, b, w) in edges {
        adj[a as usize].push((b, w));
    }
    let mut dist = vec![INF; ns * ns];
    let mut pred = vec![u32::MAX; ns * ns];
    for src in 0..ns {
        let base = src * ns;
        let mut heap = std::collections::BinaryHeap::new();
        dist[base + src] = 0;
        heap.push(std::cmp::Reverse((0u64, src as u32)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[base + u as usize] {
                continue;
            }
            for &(v, w) in &adj[u as usize] {
                let nd = d + w;
                if nd < dist[base + v as usize] {
                    dist[base + v as usize] = nd;
                    pred[base + v as usize] = u;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
    }
    (dist, pred)
}

/// Runs Algorithm 1's skeleton composition. `runner(g, sources, label,
/// ledger)` must produce `h_hops`-bounded segments; sampling uses
/// `h_hops/2`-windows so consecutive samples on any shortest path are
/// within `h_hops` of each other w.h.p.
pub(crate) fn skeleton_pipeline<S: Segments>(
    g: &Graph,
    sources: &[NodeId],
    h_hops: u64,
    params: &Params,
    ledger: &mut Ledger,
    mut runner: impl FnMut(&Graph, &[NodeId], &str, &mut Ledger) -> S,
) -> Pipeline<S> {
    let n = g.n();
    let k = sources.len();

    let p = params.sample_prob(n, (h_hops / 2).max(1));
    let samples = sample_vertices(n, p, params.seed, SALT_SAMPLES);
    let ns = samples.len();

    // Line 2: h-hop segments from the samples.
    let seg_s = {
        let _s = mwc_trace::span("ksssp/segments-from-S");
        runner(g, &samples, "h-hop segments from S", ledger)
    };

    // Lines 4–5: broadcast skeleton edges.
    let tree = PhaseCache::bfs_tree(g, 0, ledger);
    let mut skel_items: Vec<(NodeId, (u32, u32, Weight))> = Vec::new();
    for i in 0..ns {
        for (j, &t) in samples.iter().enumerate() {
            if i == j {
                continue;
            }
            let d = seg_s.get(i, t);
            if d != INF {
                skel_items.push((t, (i as u32, j as u32, d)));
            }
        }
    }
    let skel_edges: Vec<(u32, u32, Weight)> = {
        let _s = mwc_trace::span("ksssp/skeleton-broadcast");
        broadcast(g, &tree, skel_items, 1, ledger)
            .into_iter()
            .map(|(_, e)| e)
            .collect()
    };

    // Line 6: local skeleton APSP.
    let (skel_dist, skel_pred) = {
        let _s = mwc_trace::span("ksssp/skeleton-apsp");
        skeleton_apsp(ns, &skel_edges)
    };

    // Line 7: h-hop segments from the sources, broadcast source→sample
    // distances.
    let seg_u = {
        let _s = mwc_trace::span("ksssp/segments-from-U");
        runner(g, sources, "h-hop segments from U", ledger)
    };
    let mut us_items: Vec<(NodeId, (u32, u32, Weight))> = Vec::new();
    for row in 0..k {
        for (si, &s) in samples.iter().enumerate() {
            let d = seg_u.get(row, s);
            if d != INF {
                us_items.push((s, (row as u32, si as u32, d)));
            }
        }
    }
    let us_edges: Vec<(u32, u32, Weight)> = {
        let _s = mwc_trace::span("ksssp/source-broadcast");
        broadcast(g, &tree, us_items, 1, ledger)
            .into_iter()
            .map(|(_, e)| e)
            .collect()
    };

    // Line 8 (local everywhere): source→sample distances via entry
    // samples, one skeleton row at a time.
    let mut d_us_hop = vec![INF; k * ns];
    for &(row, si, d) in &us_edges {
        let cell = &mut d_us_hop[row as usize * ns + si as usize];
        *cell = (*cell).min(d);
    }
    let mut d_us = d_us_hop.clone();
    for (hop, out) in d_us_hop.chunks_exact(ns).zip(d_us.chunks_exact_mut(ns)) {
        for (&a, skel_row) in hop.iter().zip(skel_dist.chunks_exact(ns)) {
            if a != INF {
                for (o, &b) in out.iter_mut().zip(skel_row) {
                    *o = (*o).min(a.saturating_add(b));
                }
            }
        }
    }

    // Lines 9–10 (local, justified by the global broadcasts — see the
    // ksssp module docs): combine.
    let mut final_dist = vec![INF; k * n];
    for (row, out) in final_dist.chunks_exact_mut(n).enumerate() {
        for (v, o) in out.iter_mut().enumerate() {
            *o = seg_u.get(row, v);
        }
        seg_s.min_plus_into(&d_us[row * ns..(row + 1) * ns], out);
    }

    Pipeline::Skeleton(Box::new(SkeletonParts {
        samples,
        seg_u,
        seg_s,
        d_us,
        skel_dist,
        skel_pred,
        final_dist,
        n,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_congest::{multi_source_bfs, DistMatrix, MultiBfsSpec};
    use mwc_graph::generators::{ring_with_chords, WeightRange};
    use mwc_graph::seq::Direction;
    use mwc_graph::Orientation;

    /// Witness soundness of [`SkeletonParts::path`]: every reconstructed
    /// path must be a walk over real edges from the source to `v` whose
    /// total weight is at most the reported `final_dist` — including on
    /// the skeleton branch, where the path is stitched from `seg_u`, a
    /// skeleton predecessor walk, and `seg_s` tails.
    #[test]
    fn skeleton_paths_are_real_and_within_final_dist() {
        // 96-ring with a few chords, h = 8: most of the ring is far
        // outside any single h-hop segment, so the combination step (and
        // the skeleton-hop expansion in `path_to_sample`) must do real
        // work for distant targets.
        let g = ring_with_chords(96, 4, Orientation::Undirected, WeightRange::unit(), 11);
        let sources = [0usize, 17];
        let h = 8u64;
        let params = Params::new().with_seed(5);
        let mut ledger = Ledger::new();
        let spec = MultiBfsSpec {
            max_dist: h,
            direction: Direction::Forward,
            latency: None,
        };
        let pipe: Pipeline<DistMatrix> = skeleton_pipeline(
            &g,
            &sources,
            h,
            &params,
            &mut ledger,
            |g, srcs, label, ledger| multi_source_bfs(g, srcs, &spec, label, ledger),
        );
        let Pipeline::Skeleton(parts) = pipe else {
            panic!("direct skeleton_pipeline call must produce the skeleton variant");
        };

        let n = g.n();
        let ns = parts.samples.len();
        let mut beyond_segment = 0usize; // pairs only coverable via the skeleton
        let mut expanded_hops = 0usize; // paths that walked skeleton predecessors
        for (row, &s) in sources.iter().enumerate() {
            for v in 0..n {
                let d = parts.final_dist[row * n + v];
                if d == INF {
                    assert!(parts.path(row, v).is_none(), "INF pair returned a path");
                    continue;
                }
                let p = parts.path(row, v).expect("finite distance ⇒ path");
                assert_eq!(*p.first().unwrap(), s, "path must start at the source");
                assert_eq!(*p.last().unwrap(), v, "path must end at the target");
                let mut w: Weight = 0;
                for e in p.windows(2) {
                    w += g
                        .weight(e[0], e[1])
                        .unwrap_or_else(|| panic!("path edge {}→{} not in graph", e[0], e[1]));
                }
                assert!(
                    w <= d,
                    "witness weight {w} > final_dist {d} (row {row}, v {v})"
                );

                if parts.seg_u.get_row(row, v) == INF {
                    beyond_segment += 1;
                    // Re-derive the argmin sample the way `path` does; if
                    // its direct entry is worse than the combined
                    // source→sample distance, `path_to_sample` had to
                    // expand skeleton hops.
                    if let Some(si) = (0..ns)
                        .filter(|&si| {
                            parts.d_us[row * ns + si] != INF && parts.seg_s.get_row(si, v) != INF
                        })
                        .min_by_key(|&si| parts.d_us[row * ns + si] + parts.seg_s.get_row(si, v))
                    {
                        if parts.seg_u.get_row(row, parts.samples[si]) > parts.d_us[row * ns + si] {
                            expanded_hops += 1;
                        }
                    }
                }
            }
        }
        assert!(
            beyond_segment > 0,
            "test graph too easy: every pair was covered by seg_u alone"
        );
        assert!(
            expanded_hops > 0,
            "no reconstructed path exercised the skeleton-hop expansion"
        );
    }
}

//! Sequential reference algorithms ("oracles").
//!
//! These are the classical centralized algorithms the paper cites in §1.5:
//! BFS/Dijkstra shortest paths and the textbook exact MWC reductions. Every
//! distributed algorithm in this repository is validated against them.
//!
//! The oracles are the textbook methods (all-source BFS for the girth, `n`
//! Dijkstras for directed MWC, per-edge deletion for undirected weighted
//! MWC), cut short only where the work cannot change the answer:
//!
//! - **Girth.** A non-tree edge seen from a BFS node at depth `d` closes a
//!   walk of at least `2d` hops, so each BFS stops once `2d` reaches the
//!   shortest cycle found so far. That yields the girth `g`; a second pass
//!   then takes the first (source, edge) whose tree cycle has length `g`,
//!   the same one an exhaustive scan keeps.
//! - **Dijkstra oracles.** Every candidate cycle through a search is at
//!   least the distance it settles, so a search stops before settling a
//!   node farther than the best cycle so far (less the closing edge's
//!   weight). The cutoff is strict, so the winning search and every tie
//!   with it settle exactly what an unpruned search would, and return the
//!   same witness.

mod mwc;
mod paths;

pub use mwc::{girth_exact, mwc_directed_exact, mwc_exact, mwc_undirected_exact, Mwc};
pub use paths::{
    bellman_ford_hops, bfs, dijkstra, extract_path, Direction, DistTree, HopDistTree, HOP_INF, INF,
};

//! A round-faithful simulator of the CONGEST model (paper §1.1) plus the
//! standard distributed primitives the MWC algorithms are built from.
//!
//! # What "round-faithful" means
//!
//! Node-local states may only exchange information over the links of a
//! [`Network`], which enforces the CONGEST bandwidth constraint — one
//! Θ(log n + log W)-bit word per link direction per round — and counts
//! rounds. The floods and the tree broadcast run the engine's schedule
//! directly and charge each round through the network's accounting,
//! recording exactly what stepping the engine would. Algorithm phases
//! accumulate their costs in a [`Ledger`], whose totals are what the
//! benchmark tables report.
//!
//! # Primitives
//!
//! - [`BfsTree`], [`broadcast`], [`convergecast`]: the `O(M + D)` broadcast
//!   and `O(D)` convergecast operations of Peleg's book, cited in §1.1.
//! - [`multi_source_bfs`]: pipelined `k`-source `h`-bounded BFS in
//!   `O(h + k)` rounds \[37\], optionally with per-edge latencies to simulate
//!   the *stretched* scaled graphs of §4–5.
//! - [`source_detection`]: `(S, h, σ)` source detection \[37\], used for the
//!   `√n`-neighborhood computation of the girth algorithm.
//!
//! # Examples
//!
//! Run a two-source BFS and read the round cost:
//!
//! ```
//! use mwc_congest::{multi_source_bfs, Ledger, MultiBfsSpec};
//! use mwc_graph::generators::{connected_gnm, WeightRange};
//! use mwc_graph::Orientation;
//!
//! let g = connected_gnm(32, 64, Orientation::Undirected, WeightRange::unit(), 1);
//! let mut ledger = Ledger::new();
//! let dist = multi_source_bfs(&g, &[0, 9], &MultiBfsSpec::default(), "bfs", &mut ledger);
//! assert_eq!(dist.get(0, 0), 0);
//! assert!(ledger.rounds > 0);
//! ```

#![forbid(unsafe_code)]
// Node-indexed state vectors are idiomatic for this simulator; indexing
// loops over node ids are deliberate.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]
#![warn(missing_docs)]

pub mod bounds;
mod cache;
mod distmat;
mod engine;
pub mod events;
mod flood;
mod ledger;
mod multibfs;
pub mod replay;
mod tree;
mod workspace;

pub use cache::{cache_disabled, CacheDisableGuard, CacheScope, CacheStats, PhaseCache};
pub use distmat::{DistMatrix, INF};
pub use engine::{Delivery, NetStats, Network, RoundOutput, SendError};
pub use events::EventCapture;
pub use flood::{flood_engagement, flood_kernel, CalendarRing, FloodHop, FloodKernel, FloodPlan};
pub use ledger::{top_links, Ledger, Phase, PROFILE_HOT_LINKS};
pub use multibfs::{
    charge_multi_source_bfs, multi_source_bfs, source_detection, Detection, DetectionLists,
    MultiBfsSpec,
};
pub use replay::{first_divergence, Divergence, EventLog, MsgEvent, PhaseEvent};
pub use tree::{broadcast, convergecast, convergecast_min, BfsTree};

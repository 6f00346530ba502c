//! The paper's core contribution: distributed minimum-weight-cycle
//! algorithms in the CONGEST model, from Manoharan & Ramachandran,
//! PODC 2024 (DOI 10.1145/3662158.3662801).
//!
//! # Algorithms
//!
//! | function | paper | rounds | guarantee |
//! |---|---|---|---|
//! | [`exact_mwc`] / [`exact_girth`] | Table 1 baselines \[8, 28, 3, 50\] | `Õ(n)` | exact |
//! | [`two_approx_directed_mwc`] | Thm 1.2.C (Algs 2+3) | `Õ(n^{4/5} + D)` | ≤ 2× |
//! | [`approx_girth`] | Thm 1.3.B (§4) | `Õ(√n + D)` | ≤ (2 − 1/g)× |
//! | [`approx_mwc_undirected_weighted`] | Thm 1.4.C (§5.1) | `Õ(n^{2/3} + D)` | ≤ (2+ε)× |
//! | [`approx_mwc_directed_weighted`] | Thm 1.2.D (§5.2) | `Õ(n^{4/5} + D)` | ≤ (2+ε)× |
//! | [`k_source_bfs`] / [`k_source_approx_sssp`] | Thm 1.6 (Alg 1) | `Õ(√(nk) + D)` | exact / (1+ε) |
//! | [`shortest_cycle_within`] | §1.3 corollary | `O(n + q)` | exact ≤q-girth |
//!
//! Every MWC algorithm returns an [`MwcOutcome`]: the weight, a
//! [`CycleWitness`](mwc_graph::CycleWitness) certifying it against the
//! real graph (so reported values **never underestimate** the true MWC),
//! and a [`Ledger`](mwc_congest::Ledger) of simulated CONGEST rounds.
//! Randomized choices are controlled by [`Params`] (seed, sampling and
//! scheduling constants, ε).
//!
//! # Examples
//!
//! ```
//! use mwc_core::{exact_mwc, two_approx_directed_mwc, Params};
//! use mwc_graph::generators::{connected_gnm, WeightRange};
//! use mwc_graph::Orientation;
//!
//! let g = connected_gnm(120, 360, Orientation::Directed, WeightRange::unit(), 3);
//! let exact = exact_mwc(&g);
//! let approx = two_approx_directed_mwc(&g, &Params::new());
//! let (opt, rep) = (exact.weight.unwrap(), approx.weight.unwrap());
//! assert!(opt <= rep && rep <= 2 * opt);
//! approx.witness.unwrap().validate(&g).expect("a real directed cycle");
//! ```

#![forbid(unsafe_code)]
// Node-indexed state vectors are idiomatic for this simulator; indexing
// loops over node ids are deliberate.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]
#![warn(missing_docs)]

pub mod apsp;
mod bounds;
pub mod cycle_basis;
pub mod detection;
pub mod directed;
pub mod exact;
mod exchange;
pub mod girth;
pub mod ksssp;
pub mod outcome;
pub mod params;
mod pipeline;
pub mod scaling;
pub mod sssp;
pub mod util;
pub mod weighted;

pub use apsp::{distributed_apsp, ApspResult};
pub use cycle_basis::{fundamental_cycle_basis, CycleBasis};
pub use detection::{has_cycle_within, shortest_cycle_within};
pub use directed::two_approx_directed_mwc;
pub use exact::{exact_girth, exact_mwc};
pub use girth::{approx_girth, approx_girth_parts};
pub use ksssp::{k_source_approx_sssp, k_source_bfs, KSourceApproxSssp, KSourceDistances};
pub use outcome::{BestCycle, MwcOutcome};
pub use params::Params;
pub use sssp::{
    k_source_bfs_auto, k_source_bfs_repeated, sssp_approx, sssp_bfs, sssp_exact_weighted,
    KSourceStrategy,
};
pub use weighted::{approx_mwc_directed_weighted, approx_mwc_undirected_weighted};

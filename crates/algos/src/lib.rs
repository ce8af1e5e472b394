//! Incremental graph algorithms for the TDGraph reproduction.
//!
//! The paper evaluates four benchmarks (§4.1): Incremental PageRank and
//! Adsorption (*accumulative*), SSSP and CC (*monotonic*). This crate
//! provides:
//!
//! * [`traits::Algo`] — the algorithm definitions and their
//!   category-specific update rules,
//! * [`scratch`] — from-scratch fixpoint solvers (initial fixed point and
//!   correctness oracle),
//! * [`incremental`] — the §2.1 seeding semantics: relaxing additions,
//!   tag/reset/regather for monotonic deletions, cancel-and-redo residual
//!   injection for accumulative updates,
//! * [`tap`] — access-event taps that let engines charge every
//!   data-structure touch to the simulator,
//! * [`verify`] — oracle comparison helpers.
//!
//! # Example
//!
//! ```
//! use tdgraph_algos::scratch::solve;
//! use tdgraph_algos::traits::Algo;
//! use tdgraph_graph::csr::Csr;
//! use tdgraph_graph::types::Edge;
//!
//! let g = Csr::from_edges(3, &[Edge::new(0, 1, 2.0), Edge::new(1, 2, 2.0)]);
//! let sol = solve(&Algo::sssp(0), &g);
//! assert_eq!(sol.states, vec![0.0, 2.0, 4.0]);
//! ```

pub mod incremental;
pub mod scratch;
pub mod tap;
pub mod traits;
pub mod verify;

pub use incremental::{seed_after_batch, AlgoState};
pub use scratch::{out_mass, patch_out_mass, solve, Solution, NO_PARENT};
pub use traits::{Algo, AlgorithmKind};

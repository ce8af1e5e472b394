//! Software streaming-graph execution engines.
//!
//! Re-implementations of the four software systems the paper measures
//! (§2.2, §4.1), each driving the same incremental semantics with its own
//! propagation schedule over the simulated machine:
//!
//! * [`ligra_o::LigraO`] — the optimized baseline: synchronous push rounds,
//! * [`ligra_do::LigraDO`] — Ligra with Beamer-style push/pull direction
//!   switching (an even stronger software baseline),
//! * [`kickstarter::KickStarter`] — asynchronous push with dependency-tree
//!   maintenance,
//! * [`graphbolt::GraphBolt`] — dependency-driven synchronous refinement
//!   with dense pull re-aggregation,
//! * [`dzig::Dzig`] — sparsity-aware synchronous refinement.
//!
//! [`config::RunConfig`] reproduces the §4.1 methodology end to end
//! and verifies every run against the from-scratch oracle; the per-batch
//! core behind it is [`session::StreamingSession`], which the continuous
//! ingest service drives directly. Fallible setup (bad options, invalid
//! machine, unapplicable batches) surfaces as a typed
//! [`error::EngineError`] instead of a panic.
//!
//! # Example
//!
//! ```
//! use tdgraph_engines::config::RunConfig;
//! use tdgraph_engines::ligra_o::LigraO;
//! use tdgraph_algos::traits::Algo;
//! use tdgraph_graph::datasets::{Dataset, Sizing};
//!
//! # fn main() -> Result<(), tdgraph_engines::error::EngineError> {
//! let res = RunConfig::small().run(
//!     &mut LigraO,
//!     Algo::sssp(0),
//!     (Dataset::Amazon, Sizing::Tiny),
//! )?;
//! assert!(res.verify.is_match());
//! # Ok(())
//! # }
//! ```

// Robustness gate: non-test engine code must route failures through typed
// errors, never unwrap/expect (CHANGES PR 2; enforced by CI clippy).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod common;
pub mod config;
pub mod ctx;
pub mod dzig;
pub mod engine;
pub mod error;
pub mod graphbolt;
pub mod harness;
pub mod kickstarter;
pub mod ligra_do;
pub mod ligra_o;
pub mod metrics;
pub mod registry;
pub mod session;
pub mod testutil;

pub use config::{AlgoSel, OracleMode, RunConfig, RunSource};
pub use ctx::BatchCtx;
pub use engine::Engine;
pub use error::EngineError;
pub use metrics::{RunMetrics, UpdateCounters};
pub use registry::{EngineFactory, EngineRegistry};
pub use session::{OracleCheck, OracleSummary, RunResult, StreamingSession};

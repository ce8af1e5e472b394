//! Benchmark harness regenerating every table and figure of the TDGraph
//! paper's evaluation (§4).
//!
//! Each experiment lives in [`experiments`] as a runner that builds the
//! workload, executes the relevant engines on the simulated machine, and
//! returns the same rows/series the paper reports. The `experiments` binary
//! drives them (`cargo run -p tdgraph-bench --release --bin experiments --
//! all`).

pub mod experiments;
pub mod native;

pub use experiments::{fleet_worker_entry, run_experiment, ExperimentId, ExperimentOutput, Scope};

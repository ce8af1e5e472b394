//! Streaming-graph substrate for the TDGraph reproduction.
//!
//! This crate provides everything the paper's evaluation needs below the
//! algorithm layer:
//!
//! * [`csr::Csr`] — Compressed Sparse Row snapshots (the paper's
//!   `Offset_Array` / `Neighbor_Array` representation, §3.3.1),
//! * [`store`] — the [`store::GraphStore`] trait: the rules for applying
//!   [`update::UpdateBatch`]es and materializing CSR snapshots, written
//!   once over each backend's row primitives; the [`store::StorageKind`]
//!   selector and [`store::AnyStore`] enum dispatch,
//! * [`streaming::StreamingGraph`] — the CSR-baseline backend, one
//!   adjacency `Vec` per vertex,
//! * [`hybrid`] — the GraphTango-style degree-adaptive
//!   [`hybrid::HybridStore`] (inline / linear / hash-indexed tiers),
//! * [`generate`] — seeded (clustered) R-MAT and uniform generators,
//! * [`io`] — SNAP-format edge-list loading/saving for real datasets,
//! * [`datasets`] — synthetic stand-ins for the six SNAP datasets of Table 2,
//! * [`partition`] — vertex-range chunking for the 64 simulated cores,
//! * [`stats`] — degree-distribution and skew measures,
//! * [`prng`] — deterministic SplitMix64 / Xoshiro256** generators,
//! * [`fault`] — seeded [`fault::FaultPlan`] input corruption for chaos
//!   testing,
//! * [`quarantine`] — lenient-ingest accounting
//!   ([`quarantine::QuarantineReport`]),
//! * [`wire`] — JSON-line framing for streamed edge updates and the
//!   record/replay schedule format ([`wire::RecordedSchedule`]),
//! * [`durable`] — the append-only [`durable::DurableLog`] with its
//!   torn-tail-tolerant recovering open.
//!
//! # Example
//!
//! ```
//! use tdgraph_graph::generate::{Rmat, RmatConfig};
//! use tdgraph_graph::store::GraphStore;
//! use tdgraph_graph::streaming::StreamingGraph;
//! use tdgraph_graph::update::{EdgeUpdate, UpdateBatch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let edges = Rmat::new(RmatConfig::new(8, 4).with_seed(7)).edges();
//! let mut graph = StreamingGraph::with_capacity(256);
//! graph.insert_edges(edges.iter().copied())?;
//! let snapshot = graph.snapshot();
//! assert_eq!(snapshot.vertex_count(), 256);
//!
//! let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, 5, 1.0)])?;
//! let applied = graph.apply_batch(&batch)?;
//! assert!(applied.affected_vertices().contains(&5));
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csr;
pub mod datasets;
pub mod durable;
pub mod error;
pub mod fault;
pub mod generate;
pub mod hybrid;
pub mod io;
pub mod partition;
pub mod prng;
pub mod quarantine;
pub mod stats;
pub mod store;
pub mod streaming;
pub mod types;
pub mod update;
pub mod wire;

pub use csr::Csr;
pub use fault::FaultPlan;
pub use hybrid::HybridStore;
pub use quarantine::{IngestMode, QuarantineReason, QuarantineReport};
pub use store::{AnyStore, GraphStore, StorageKind, StorageRegion, StorageStats, StorageTouch};
pub use streaming::StreamingGraph;
pub use types::{EdgeCount, VertexCount, VertexId, Weight};
pub use update::{EdgeUpdate, UpdateBatch};

//! Trace-driven many-core timing simulator for the TDGraph reproduction.
//!
//! This crate replaces the paper's ZSim + McPAT stack (§4.1, Table 1) with a
//! deterministic cost-model simulator:
//!
//! * [`config::SimConfig`] — the Table 1 machine description,
//! * [`address::AddressSpace`] — virtual layout of the paper's in-memory
//!   arrays (`Offset_Array`, `Neighbor_Array`, `Vertex_States_Array`,
//!   `Topology_List`, `Coalesced_States`, `H_Table`, bitvectors),
//! * [`cache`] / [`policy`] — set-associative caches with LRU, DRRIP,
//!   GRASP, and P-OPT replacement,
//! * [`noc::Mesh`] — 8×8 X-Y-routed mesh with address-hashed LLC banks,
//! * [`memory::DramModel`] — DDR4-3200 latency plus a bandwidth envelope,
//! * `hierarchy` (crate-private) — the cache hierarchy's rules, written
//!   once: a core's private L1/L2, the shared LLC with its word-usage index
//!   and DRAM, and the sharer directory that decides which cores a write
//!   invalidates,
//! * [`machine::Machine`] — the assembled processor: typed accesses walk
//!   L1 → L2 → NoC → LLC → DRAM, and time is accounted per core with
//!   separate core and accelerator timelines,
//! * [`exec`] — host-parallel sharded execution behind one
//!   [`exec::ExecConfig`]: accesses recorded on the driving thread are
//!   replayed through the same hierarchy on worker threads and merged by
//!   one sequential reducer, byte-identical to the serial walk at every
//!   shard count,
//! * [`energy`] — per-event energy constants producing the Fig 19
//!   component breakdown.
//!
//! # Example
//!
//! ```
//! use tdgraph_sim::address::{AddressSpace, Region};
//! use tdgraph_sim::config::SimConfig;
//! use tdgraph_sim::machine::Machine;
//! use tdgraph_sim::stats::{Actor, PhaseKind};
//!
//! let layout = AddressSpace::layout(1024, 4096, 16);
//! let mut machine = Machine::new(SimConfig::small_test(), layout);
//! machine.access(0, Actor::Core, Region::VertexStates, 7, false);
//! let cycles = machine.end_phase(PhaseKind::Propagation);
//! assert!(cycles > 0);
//! ```

pub mod address;
pub mod cache;
pub mod config;
mod divisor;
pub mod energy;
pub mod error;
pub mod exec;
mod hierarchy;
pub mod machine;
pub mod memory;
pub mod noc;
pub mod policy;
pub mod stats;

pub use address::{AddressSpace, Region};
pub use config::SimConfig;
pub use error::SimError;
pub use exec::{ExecConfig, ExecPipelineReport};
pub use machine::Machine;
pub use stats::{Actor, Op, PhaseKind};

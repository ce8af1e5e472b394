//! # tdgraph — a reproduction of the TDGraph streaming-graph accelerator
//!
//! This crate is the public facade over a full Rust reproduction of
//! *TDGraph: A Topology-Driven Accelerator for High-Performance Streaming
//! Graph Processing* (Zhao et al., ISCA 2022): the streaming-graph
//! substrate, the four benchmark algorithms with incremental semantics, a
//! trace-driven 64-core timing simulator, the four software baselines, the
//! TDGraph engine (TDTU + VSCU) and every comparator accelerator the paper
//! evaluates.
//!
//! The quickest way in is [`Experiment`] for one run, or a
//! [`SweepSpec`] executed by the parallel [`SweepRunner`] for a grid
//! (see the [`sweep`] module). One run:
//!
//! ```
//! use tdgraph::{Experiment, EngineKind};
//! use tdgraph::graph::datasets::{Dataset, Sizing};
//!
//! let experiment = Experiment::new(Dataset::Amazon)
//!     .sizing(Sizing::Tiny)
//!     .tune(|o| o.batches = 1);
//! let baseline = experiment.run(EngineKind::LigraO);
//! let tdgraph = experiment.run(EngineKind::TdGraphH);
//! assert!(baseline.verify.is_match() && tdgraph.verify.is_match());
//! println!("speedup: {:.2}x", tdgraph.metrics.speedup_over(&baseline.metrics));
//! ```
//!
//! The lower layers are re-exported as modules: [`graph`] (CSR snapshots,
//! update batches, generators), [`algos`] (PageRank, Adsorption, SSSP, CC),
//! [`sim`] (the machine model), [`engines`] (software systems), and
//! [`accel`] (accelerator models).

// Robustness gate: non-test facade code must route failures through typed
// errors, never unwrap/expect (enforced by CI clippy).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod error;
pub mod experiment;
pub mod fleet;
pub mod report;
pub mod sweep;

pub use checkpoint::{CanonicalCell, CheckpointError, CheckpointLog};
pub use error::TdgraphError;
pub use experiment::{default_registry, registry_with_defaults, EngineKind, Experiment};
pub use fleet::{
    run_fleet, run_worker, CoordinatorLock, FleetConfig, FleetError, FleetOutcome, FleetStats,
    KillPoint, ProcessFaultPlan, SelfExecSpawner, WorkerDirective, WorkerLaunch, WorkerSpawner,
};
pub use sweep::{
    AlgoSel, CellOutcome, CellResult, EngineSel, ExperimentCell, OutcomeCounts, OutcomeKind,
    SweepReport, SweepRunner, SweepSpec,
};
pub use tdgraph_engines::config::{OracleMode, RunConfig, RunSource};
pub use tdgraph_engines::error::EngineError;
pub use tdgraph_engines::metrics::RunMetrics;
pub use tdgraph_engines::registry::EngineRegistry;
pub use tdgraph_engines::session::{OracleSummary, RunResult, StreamingSession};
pub use tdgraph_graph::fault::FaultPlan;
pub use tdgraph_graph::io::{LoadConfig, LoadOutcome};
pub use tdgraph_graph::quarantine::{IngestMode, QuarantineReason, QuarantineReport};
pub use tdgraph_graph::store::GraphStore;
pub use tdgraph_obs::{JsonlSink, Snapshot, TraceEvent, TraceSink, VecSink};
pub use tdgraph_serve::{
    OverloadPolicy, Service, ServiceConfig, SessionConfig, SupervisionConfig, TdServer,
    TenantOutcome, TenantReport,
};

/// The supported surface of the reproduction — the stability boundary.
///
/// `use tdgraph::prelude::*;` brings in everything examples, integration
/// tests, and downstream experiments should need: experiment and sweep
/// construction, runners, reports, outcomes, typed errors, the
/// observability handles, and the fault/oracle and execution-mode types.
/// Items reached through sub-crate module paths (`tdgraph::sim::…`,
/// `tdgraph::engines::…`, …) are implementation surface and may change
/// between releases; the prelude is curated and kept stable.
pub mod prelude {
    pub use crate::checkpoint::{CanonicalCell, CheckpointError, CheckpointLog};
    pub use crate::error::TdgraphError;
    pub use crate::experiment::{default_registry, registry_with_defaults, EngineKind, Experiment};
    pub use crate::fleet::{
        run_fleet, run_worker, CoordinatorLock, FleetConfig, FleetError, FleetOutcome, FleetStats,
        KillPoint, ProcessFaultPlan, SelfExecSpawner, WorkerDirective, WorkerLaunch, WorkerSpawner,
    };
    pub use crate::report::{build_rows, render_table, speedup_line, Row};
    pub use crate::sweep::{
        AlgoSel, CellOutcome, CellResult, EngineSel, ExperimentCell, OutcomeCounts, OutcomeKind,
        SweepReport, SweepRunner, SweepSpec,
    };
    pub use tdgraph_algos::incremental::{seed_after_batch, AlgoState};
    pub use tdgraph_algos::scratch::{out_mass, patch_out_mass, solve};
    pub use tdgraph_algos::tap::NullTap;
    pub use tdgraph_algos::traits::{Algo, AlgorithmKind};
    pub use tdgraph_algos::verify::{compare, VerifyOutcome};
    pub use tdgraph_engines::config::{OracleMode, RunConfig, RunSource};
    pub use tdgraph_engines::error::EngineError;
    pub use tdgraph_engines::metrics::RunMetrics;
    pub use tdgraph_engines::registry::EngineRegistry;
    pub use tdgraph_engines::session::{OracleCheck, OracleSummary, RunResult, StreamingSession};
    pub use tdgraph_engines::testutil::{FaultMode, FaultyEngine};
    pub use tdgraph_graph::csr::Csr;
    pub use tdgraph_graph::datasets::{Dataset, Sizing, StreamingWorkload};
    pub use tdgraph_graph::fault::FaultPlan;
    pub use tdgraph_graph::generate::{ClusteredRmat, RmatConfig};
    pub use tdgraph_graph::io::{parse_edge_list, save_edge_list, LoadConfig, LoadOutcome};
    pub use tdgraph_graph::partition::{partition_by_edges, Chunk, Schedule, ShardPlan};
    pub use tdgraph_graph::quarantine::{IngestMode, QuarantineReason, QuarantineReport};
    pub use tdgraph_graph::stats::degree_stats;
    pub use tdgraph_graph::store::{AnyStore, GraphStore, StorageKind};
    pub use tdgraph_graph::streaming::{ApplyError, StreamingGraph};
    pub use tdgraph_graph::types::{Edge, VertexId, Weight};
    pub use tdgraph_graph::update::{BatchComposer, BatchError, EdgeUpdate, UpdateBatch};
    pub use tdgraph_obs::{
        keys, JsonlSink, MemoryRecorder, NullRecorder, Recorder, Snapshot, TraceEvent, TraceSink,
        VecSink,
    };
    pub use tdgraph_serve::{
        AlgoChoice, BatchClose, BatchFormer, ChaosOutcome, ClientError, Clock, OverloadPolicy,
        RetryPolicy, ServeClient, ServeError, Service, ServiceConfig, SessionConfig, ShedEvent,
        ShedReason, SnapshotView, SupervisionConfig, SystemClock, TdServer, TenantOutcome,
        TenantReport, TestClock, WireFault, WireFaultPlan,
    };
    pub use tdgraph_sim::{ExecConfig, ExecPipelineReport, SimConfig};
}

/// Streaming-graph substrate (re-export of `tdgraph-graph`).
pub mod graph {
    pub use tdgraph_graph::*;
}

/// Incremental algorithms (re-export of `tdgraph-algos`).
pub mod algos {
    pub use tdgraph_algos::*;
}

/// Timing simulator (re-export of `tdgraph-sim`).
pub mod sim {
    pub use tdgraph_sim::*;
}

/// Software engines (re-export of `tdgraph-engines`).
pub mod engines {
    pub use tdgraph_engines::*;
}

/// Accelerator models (re-export of `tdgraph-accel`).
pub mod accel {
    pub use tdgraph_accel::*;
}

/// Observability layer: recorders, snapshots, trace sinks (re-export of
/// `tdgraph-obs`).
pub mod obs {
    pub use tdgraph_obs::*;
}

/// Continuous-ingest streaming service: per-tenant wire streams, adaptive
/// batch forming, bounded backpressure (re-export of `tdgraph-serve`).
pub mod serve {
    pub use tdgraph_serve::*;
}

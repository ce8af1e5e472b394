//! High-level experiment API.
//!
//! [`Experiment`] is the one-cell entry point downstream users need: pick
//! a dataset, an algorithm, and an engine, optionally tune the machine or
//! the update stream, and run — the result carries the paper's metrics and
//! the oracle verdict. Internally it is a thin wrapper over a one-cell
//! [`SweepSpec`]; grids of experiments should build a
//! sweep directly and execute it with a
//! [`SweepRunner`](crate::SweepRunner).
//!
//! Engine construction goes through the [`EngineRegistry`]: every built-in
//! engine is registered by a stable kebab-case key in
//! [`registry_with_defaults`], and [`EngineKind::try_build`] resolves
//! through the shared [`default_registry`].

use std::sync::OnceLock;

use tdgraph_accel::jetstream::{GraphPulse, JetStream};
use tdgraph_accel::tdgraph::{TdGraph, TdGraphConfig};
use tdgraph_accel::{DepGraph, Hats, Minnow, Phi};
use tdgraph_algos::traits::Algo;
use tdgraph_engines::config::RunConfig;
use tdgraph_engines::engine::Engine;
use tdgraph_engines::error::EngineError;
use tdgraph_engines::registry::EngineRegistry;
use tdgraph_engines::session::RunResult;
use tdgraph_graph::datasets::{Dataset, Sizing};

use crate::error::TdgraphError;
use crate::sweep::{ExperimentCell, SweepSpec};

/// Every execution engine the reproduction provides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineKind {
    /// Optimized software baseline (§4.1).
    LigraO,
    /// Direction-optimizing Ligra (push/pull switching).
    LigraDO,
    /// GraphBolt software system.
    GraphBolt,
    /// KickStarter software system.
    KickStarter,
    /// DZiG software system.
    Dzig,
    /// TDGraph hardware engine (the contribution).
    TdGraphH,
    /// TDGraph hardware engine without the VSCU (Fig 13).
    TdGraphHWithout,
    /// Software-only TDGraph (§4.2).
    TdGraphS,
    /// Software-only TDGraph without coalescing (Fig 14).
    TdGraphSWithout,
    /// TDGraph with a custom configuration.
    TdGraphCustom(TdGraphConfig),
    /// HATS comparator accelerator.
    Hats,
    /// Minnow comparator accelerator.
    Minnow,
    /// PHI comparator accelerator.
    Phi,
    /// DepGraph comparator accelerator.
    DepGraph,
    /// JetStream streaming accelerator.
    JetStream,
    /// JetStream with VSCU-style coalescing (Fig 17).
    JetStreamWith,
    /// GraphPulse event-driven accelerator.
    GraphPulse,
}

impl EngineKind {
    /// Every fixed-configuration engine (i.e. all kinds except
    /// [`EngineKind::TdGraphCustom`]), in registry order.
    pub const ALL: [EngineKind; 16] = [
        EngineKind::LigraO,
        EngineKind::LigraDO,
        EngineKind::GraphBolt,
        EngineKind::KickStarter,
        EngineKind::Dzig,
        EngineKind::TdGraphH,
        EngineKind::TdGraphHWithout,
        EngineKind::TdGraphS,
        EngineKind::TdGraphSWithout,
        EngineKind::Hats,
        EngineKind::Minnow,
        EngineKind::Phi,
        EngineKind::DepGraph,
        EngineKind::JetStream,
        EngineKind::JetStreamWith,
        EngineKind::GraphPulse,
    ];

    /// The engine's stable registry key (kebab-case; what sweeps, progress
    /// events, and [`EngineRegistry::build`] use).
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            EngineKind::LigraO => "ligra-o",
            EngineKind::LigraDO => "ligra-do",
            EngineKind::GraphBolt => "graphbolt",
            EngineKind::KickStarter => "kickstarter",
            EngineKind::Dzig => "dzig",
            EngineKind::TdGraphH => "tdgraph-h",
            EngineKind::TdGraphHWithout => "tdgraph-h-without",
            EngineKind::TdGraphS => "tdgraph-s",
            EngineKind::TdGraphSWithout => "tdgraph-s-without",
            EngineKind::TdGraphCustom(_) => "tdgraph-custom",
            EngineKind::Hats => "hats",
            EngineKind::Minnow => "minnow",
            EngineKind::Phi => "phi",
            EngineKind::DepGraph => "depgraph",
            EngineKind::JetStream => "jetstream",
            EngineKind::JetStreamWith => "jetstream-with",
            EngineKind::GraphPulse => "graphpulse",
        }
    }

    /// Instantiates the engine through the [`default_registry`].
    ///
    /// [`EngineKind::TdGraphCustom`] is the one kind carrying run-time
    /// configuration, so it is built directly; its registry key resolves
    /// to the default configuration.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownEngine`] if the kind's key is missing from
    /// the default registry (possible only when a caller shadows a
    /// built-in key with a broken registration).
    pub fn try_build(self) -> Result<Box<dyn Engine>, EngineError> {
        if let EngineKind::TdGraphCustom(cfg) = self {
            return Ok(Box::new(TdGraph::with_config(cfg)));
        }
        default_registry().try_build(self.key())
    }

    /// The software systems of Fig 3.
    pub const SOFTWARE: [EngineKind; 4] =
        [EngineKind::GraphBolt, EngineKind::KickStarter, EngineKind::Dzig, EngineKind::LigraO];

    /// The comparator accelerators of Fig 15.
    pub const ACCELERATORS: [EngineKind; 4] =
        [EngineKind::Hats, EngineKind::Minnow, EngineKind::Phi, EngineKind::DepGraph];
}

/// Builds a fresh registry holding every engine the workspace provides —
/// the software systems plus the accelerator models. This is the single
/// registration point: a new engine shows up in sweeps, the experiments
/// binary, and `EngineKind::try_build` by being registered here (or, for
/// external engines, on a copy of this registry).
#[must_use]
pub fn registry_with_defaults() -> EngineRegistry {
    let mut r = EngineRegistry::with_software();
    r.register(EngineKind::TdGraphH.key(), || Box::new(TdGraph::hardware()));
    r.register(EngineKind::TdGraphHWithout.key(), || Box::new(TdGraph::hardware_without_vscu()));
    r.register(EngineKind::TdGraphS.key(), || Box::new(TdGraph::software()));
    r.register(EngineKind::TdGraphSWithout.key(), || Box::new(TdGraph::software_without_vscu()));
    r.register(EngineKind::TdGraphCustom(TdGraphConfig::default()).key(), || {
        Box::new(TdGraph::with_config(TdGraphConfig::default()))
    });
    r.register(EngineKind::Hats.key(), || Box::new(Hats));
    r.register(EngineKind::Minnow.key(), || Box::new(Minnow));
    r.register(EngineKind::Phi.key(), || Box::new(Phi));
    r.register(EngineKind::DepGraph.key(), || Box::new(DepGraph));
    r.register(EngineKind::JetStream.key(), || Box::new(JetStream::new()));
    r.register(EngineKind::JetStreamWith.key(), || Box::new(JetStream::with_coalescing()));
    r.register(EngineKind::GraphPulse.key(), || Box::new(GraphPulse));
    r
}

/// The shared process-wide registry of built-in engines.
pub fn default_registry() -> &'static EngineRegistry {
    static REGISTRY: OnceLock<EngineRegistry> = OnceLock::new();
    REGISTRY.get_or_init(registry_with_defaults)
}

/// Builder for one streaming-graph experiment.
///
/// Compatibility guarantee: this type stays a thin wrapper over a one-cell
/// sweep — same defaults, same run path, same results as the pre-sweep
/// API. Existing callers never need to touch [`SweepSpec`] directly.
#[derive(Debug, Clone)]
pub struct Experiment {
    dataset: Dataset,
    sizing: Sizing,
    algo: Option<Algo>,
    options: RunConfig,
}

impl Experiment {
    /// Starts an experiment on `dataset`.
    #[must_use]
    pub fn new(dataset: Dataset) -> Self {
        Self {
            dataset,
            sizing: Sizing::Small,
            algo: None,
            options: RunConfig {
                sim: tdgraph_sim::SimConfig::scaled_reference(),
                ..RunConfig::default()
            },
        }
    }

    /// Selects the workload sizing (default: [`Sizing::Small`]).
    #[must_use]
    pub fn sizing(mut self, sizing: Sizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// Selects the algorithm. When not set, SSSP from the workload's hub
    /// vertex is used.
    #[must_use]
    pub fn algorithm(mut self, algo: Algo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// Overrides the run options (machine config, batches, composition).
    #[must_use]
    pub fn options(mut self, options: RunConfig) -> Self {
        self.options = options;
        self
    }

    /// Mutates the run options in place.
    #[must_use]
    pub fn tune(mut self, f: impl FnOnce(&mut RunConfig)) -> Self {
        f(&mut self.options);
        self
    }

    /// The equivalent one-cell sweep spec (shares every default).
    #[must_use]
    pub fn to_spec(&self, engine: EngineKind) -> SweepSpec {
        let spec = SweepSpec::new()
            .dataset(self.dataset)
            .sizing(self.sizing)
            .engine(engine)
            .options(self.options.clone());
        match self.algo {
            Some(a) => spec.algo(a),
            None => spec,
        }
    }

    /// Runs the experiment with `engine`, reporting failures as typed
    /// errors.
    ///
    /// # Errors
    ///
    /// Whatever [`ExperimentCell::run_checked`] reports: an unresolvable
    /// engine, invalid run options, or a workload that cannot be
    /// prepared.
    pub fn try_run(&self, engine: EngineKind) -> Result<RunResult, TdgraphError> {
        let cells = self.to_spec(engine).expand();
        debug_assert_eq!(cells.len(), 1, "Experiment expands to exactly one cell");
        let cell: &ExperimentCell = &cells[0];
        cell.run_checked(default_registry())
    }

    /// Runs the experiment with `engine`.
    ///
    /// # Panics
    ///
    /// Panics if [`Experiment::try_run`] reports an error.
    #[must_use]
    pub fn run(&self, engine: EngineKind) -> RunResult {
        match self.try_run(engine) {
            Ok(result) => result,
            Err(e) => panic!("experiment failed: {e}"),
        }
    }

    /// Runs the experiment for several engines, returning `(engine, result)`
    /// pairs in order.
    #[must_use]
    pub fn run_all(&self, engines: &[EngineKind]) -> Vec<(EngineKind, RunResult)> {
        engines.iter().map(|&e| (e, self.run(e))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_graph::datasets::Dataset;

    #[test]
    fn experiment_runs_and_verifies() {
        let res = Experiment::new(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .tune(|o| {
                o.sim = tdgraph_sim::SimConfig::small_test();
                o.batches = 1;
            })
            .run(EngineKind::TdGraphH);
        assert!(res.verify.is_match());
        assert_eq!(res.metrics.engine, "TDGraph-H");
    }

    #[test]
    fn default_algorithm_is_hub_sssp() {
        let res = Experiment::new(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .tune(|o| {
                o.sim = tdgraph_sim::SimConfig::small_test();
                o.batches = 1;
            })
            .run(EngineKind::LigraO);
        assert_eq!(res.metrics.algo, "SSSP");
    }

    #[test]
    fn every_engine_kind_resolves_through_the_registry() {
        let registry = default_registry();
        for kind in EngineKind::ALL {
            assert!(
                registry.contains(kind.key()),
                "{kind:?} ('{}') missing from the default registry",
                kind.key()
            );
            let engine = registry.build(kind.key()).expect("key registered");
            assert!(!engine.name().is_empty());
            assert_eq!(engine.name(), kind.try_build().unwrap().name());
        }
        // The custom kind resolves to the default configuration.
        let custom = EngineKind::TdGraphCustom(TdGraphConfig::default());
        assert!(registry.contains(custom.key()));
        assert_eq!(custom.try_build().unwrap().name(), "TDGraph-H");
    }

    #[test]
    fn try_run_reports_typed_errors_instead_of_panicking() {
        let err = Experiment::new(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .tune(|o| o.add_fraction = 2.0)
            .try_run(EngineKind::LigraO)
            .unwrap_err();
        assert!(matches!(err, TdgraphError::Engine(_)), "got {err}");
        assert!(err.to_string().contains("add_fraction"));
    }

    #[test]
    fn registry_keys_are_unique() {
        let mut keys: Vec<&str> = EngineKind::ALL.iter().map(EngineKind::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), EngineKind::ALL.len());
    }
}

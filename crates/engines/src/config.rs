//! The unified run configuration.
//!
//! [`RunConfig`] is the single options surface every way of running a
//! streaming experiment consumes — one-shot runs, the sweep runner's
//! cells, and the continuous-ingest service: one builder and one pair of
//! methods — [`RunConfig::run`] / [`RunConfig::run_observed`] —
//! parameterized by a [`RunSource`]: a dataset to prepare, an
//! already-prepared workload, or a recorded wire schedule to replay.

use tdgraph_algos::traits::Algo;
use tdgraph_graph::datasets::{Dataset, Sizing, StreamingWorkload};
use tdgraph_graph::error::GraphError;
use tdgraph_graph::fault::FaultPlan;
use tdgraph_graph::quarantine::IngestMode;
use tdgraph_graph::store::StorageKind;
use tdgraph_graph::types::VertexId;
use tdgraph_graph::update::BatchComposer;
use tdgraph_graph::wire::RecordedSchedule;
use tdgraph_obs::{NullRecorder, Recorder};
use tdgraph_sim::config::SimConfig;
use tdgraph_sim::exec::ExecConfig;

use crate::engine::Engine;
use crate::error::EngineError;
use crate::session::{RunResult, StreamingSession};

/// When the differential oracle (the from-scratch solver of
/// `tdgraph_algos::scratch`) is compared against the engine's incremental
/// states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleMode {
    /// Never compare; the run's final `verify` is
    /// [`tdgraph_algos::verify::VerifyOutcome::Skipped`].
    Off,
    /// Compare after every `n`-th batch (and at the end). Mid-run
    /// mismatches are recorded in [`crate::session::OracleSummary`] and
    /// emitted as `oracle_mismatch` trace events instead of failing the
    /// run.
    EveryNBatches(usize),
    /// Compare once, after the last batch.
    #[default]
    Final,
}

/// The algorithm axis: a concrete algorithm or the workload's hub SSSP.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AlgoSel {
    /// SSSP rooted at the workload's highest-degree vertex (the
    /// methodology default; the root depends on the dataset).
    #[default]
    HubSssp,
    /// A fixed algorithm.
    Fixed(Algo),
}

impl AlgoSel {
    /// Parses an algorithm name (`sssp`, `cc`, `pagerank`, `adsorption`)
    /// in any case. `sssp` selects hub SSSP.
    #[must_use]
    pub fn from_name(name: &str) -> Option<AlgoSel> {
        [AlgoSel::HubSssp, Algo::cc().into(), Algo::pagerank().into(), Algo::adsorption().into()]
            .into_iter()
            .find(|a| a.label().eq_ignore_ascii_case(name))
    }

    /// Display label (paper benchmark name; hub SSSP is labelled `SSSP`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AlgoSel::Fixed(a) => a.name(),
            AlgoSel::HubSssp => "SSSP",
        }
    }

    /// Resolves to a concrete algorithm for a workload whose hub vertex
    /// is `hub`.
    #[must_use]
    pub fn resolve(&self, hub: VertexId) -> Algo {
        match self {
            AlgoSel::Fixed(a) => *a,
            AlgoSel::HubSssp => Algo::sssp(hub),
        }
    }
}

impl From<Algo> for AlgoSel {
    fn from(a: Algo) -> Self {
        AlgoSel::Fixed(a)
    }
}

/// What a run streams over.
///
/// `From` impls let callers pass `(dataset, sizing)` tuples or prepared
/// workloads directly to [`RunConfig::run`].
#[derive(Debug, Clone)]
pub enum RunSource {
    /// Prepare the synthetic streaming workload of a dataset profile.
    Dataset(Dataset, Sizing),
    /// Run over an already-prepared workload (lets callers customize
    /// graphs); batches come from the seeded [`BatchComposer`].
    Workload(StreamingWorkload),
    /// Replay a recorded wire schedule over a prepared workload. The
    /// schedule drives everything the composer otherwise would:
    /// `batches`, `batch_size`, `add_fraction`, `seed`, and `fault_plan`
    /// are ignored (recorded traffic is already post-corruption). This is
    /// the offline half of the service's determinism contract.
    Recorded {
        /// The base workload (its pending additions are unused; the
        /// schedule carries the updates).
        workload: StreamingWorkload,
        /// The recorded batches, replayed in order.
        schedule: RecordedSchedule,
    },
}

impl From<(Dataset, Sizing)> for RunSource {
    fn from((dataset, sizing): (Dataset, Sizing)) -> Self {
        RunSource::Dataset(dataset, sizing)
    }
}

impl From<StreamingWorkload> for RunSource {
    fn from(workload: StreamingWorkload) -> Self {
        RunSource::Workload(workload)
    }
}

/// Configuration of a streaming run — the one options surface consumed by
/// one-shot runs, the sweep runner, and the ingest service.
///
/// Fields are public: sweep `tune` closures and most callers set them
/// directly. `with_*` builder setters exist for the fields callers set
/// in builder chains.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Machine configuration.
    pub sim: SimConfig,
    /// Number of update batches to stream (composer-driven sources only).
    pub batches: usize,
    /// Updates per batch (`None` → the workload's scaled default).
    pub batch_size: Option<usize>,
    /// Fraction of additions per batch (Fig 24b sweeps this).
    pub add_fraction: f64,
    /// Hot-vertex fraction α in (0, 1] (§3.1 default 0.5 %): sizes the
    /// simulated `Coalesced_States` region and, through
    /// [`crate::ctx::BatchCtx::alpha`], the hot set of every engine that
    /// coalesces hot states (Fig 22 sweeps it).
    pub alpha: f64,
    /// Chunks per core for the ownership map. No caller varies it, so it
    /// has no setter; the sessions and the benchmark (`e2ebench/`) read
    /// it.
    pub chunks_per_core: usize,
    /// Workload seed.
    pub seed: u64,
    /// Strict (error on first bad record) or lenient (quarantine) ingest.
    pub ingest: IngestMode,
    /// Deterministic input corruption ([`FaultPlan::none`] → untouched).
    pub fault_plan: FaultPlan,
    /// Differential-oracle cadence.
    pub oracle: OracleMode,
    /// Host execution configuration. A sharded [`ExecConfig`] runs the
    /// machine's record/replay pipeline over worker threads; every
    /// metric, snapshot, and verified state stays byte-identical to
    /// [`ExecConfig::serial`].
    pub exec: ExecConfig,
    /// Mutable graph-store backend; [`StorageKind::Csr`] is the only one.
    /// The field stays for two readers. This type's `Debug` text, which
    /// `tdgraph::checkpoint::options_digest` hashes, prints
    /// `storage: Csr`, so checkpoints written while a second backend
    /// existed still resume. And the benchmark (`e2ebench/`) builds its
    /// mirror store from it.
    pub storage: StorageKind,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::table1(),
            batches: 3,
            batch_size: None,
            add_fraction: 0.75,
            alpha: 0.005,
            chunks_per_core: 4,
            seed: 0x7D6,
            ingest: IngestMode::Strict,
            fault_plan: FaultPlan::none(),
            oracle: OracleMode::Final,
            exec: ExecConfig::serial(),
            storage: StorageKind::Csr,
        }
    }
}

impl RunConfig {
    /// Test-sized config: the 4-core machine and 2 batches.
    #[must_use]
    pub fn small() -> Self {
        Self { sim: SimConfig::small_test(), batches: 2, ..Self::default() }
    }

    /// Sets the machine configuration.
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the fraction of additions per batch.
    #[must_use]
    pub fn with_add_fraction(mut self, add_fraction: f64) -> Self {
        self.add_fraction = add_fraction;
        self
    }

    /// Sets the hot-vertex fraction α.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the workload seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets strict or lenient ingest.
    #[must_use]
    pub fn with_ingest(mut self, ingest: IngestMode) -> Self {
        self.ingest = ingest;
        self
    }

    /// Arms deterministic input corruption.
    #[must_use]
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Sets the differential-oracle cadence.
    #[must_use]
    pub fn with_oracle(mut self, oracle: OracleMode) -> Self {
        self.oracle = oracle;
        self
    }

    /// Sets the host execution configuration.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Validates the configuration, so a bad one is a typed error rather
    /// than a mid-run panic.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidOptions`] naming the offending field, or
    /// [`EngineError::Sim`] from machine-configuration validation.
    pub fn validate(&self) -> Result<(), EngineError> {
        if !(0.0..=1.0).contains(&self.add_fraction) {
            return Err(EngineError::InvalidOptions {
                reason: format!("add_fraction must be in [0, 1], got {}", self.add_fraction),
            });
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(EngineError::InvalidOptions {
                reason: format!("alpha must be in (0, 1], got {}", self.alpha),
            });
        }
        if self.chunks_per_core == 0 {
            return Err(EngineError::InvalidOptions {
                reason: "chunks_per_core must be >= 1".into(),
            });
        }
        if self.oracle == OracleMode::EveryNBatches(0) {
            return Err(EngineError::InvalidOptions {
                reason: "oracle cadence EveryNBatches(0) is meaningless; use Off".into(),
            });
        }
        self.exec
            .validate(self.sim.cores)
            .map_err(|reason| EngineError::InvalidOptions { reason })?;
        self.sim.try_validate()?;
        Ok(())
    }

    /// Runs `engine` with `algo` over `source`, unobserved.
    ///
    /// # Errors
    ///
    /// Same as [`RunConfig::run_observed`].
    pub fn run<E: Engine + ?Sized>(
        &self,
        engine: &mut E,
        algo: Algo,
        source: impl Into<RunSource>,
    ) -> Result<RunResult, EngineError> {
        let mut null = NullRecorder;
        self.run_observed(engine, algo, source, &mut null)
    }

    /// Runs `engine` with `algo` over `source`, emitting instrumentation
    /// into `recorder`: a span per phase with cycle attribution, each
    /// batch's `updates.*` counts inside its propagation span, and the
    /// final `sim.*` / `energy.*` / `run.*` totals.
    ///
    /// The returned [`crate::metrics::RunMetrics`] are always derived from
    /// an (internal) observability snapshot, so traced and untraced runs
    /// report byte-identical numbers.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidOptions`] or [`EngineError::Sim`] if the
    /// config fails validation, [`EngineError::Graph`] if an update batch
    /// cannot be validated or applied under strict ingest (e.g. an
    /// out-of-range vertex id in caller-provided data).
    pub fn run_observed<E: Engine + ?Sized>(
        &self,
        engine: &mut E,
        algo: Algo,
        source: impl Into<RunSource>,
        recorder: &mut dyn Recorder,
    ) -> Result<RunResult, EngineError> {
        match source.into() {
            RunSource::Dataset(dataset, sizing) => {
                let workload = StreamingWorkload::try_prepare(dataset, sizing)
                    .map_err(|e: GraphError| EngineError::Graph(e))?;
                self.run_composed(engine, algo, workload, recorder)
            }
            RunSource::Workload(workload) => self.run_composed(engine, algo, workload, recorder),
            RunSource::Recorded { workload, schedule } => {
                let mut session = StreamingSession::new(algo, workload, self.clone())?;
                for entries in schedule.batches() {
                    session.ingest_entries(engine, entries, recorder)?;
                }
                Ok(session.finish(engine, recorder))
            }
        }
    }

    fn run_composed<E: Engine + ?Sized>(
        &self,
        engine: &mut E,
        algo: Algo,
        workload: StreamingWorkload,
        recorder: &mut dyn Recorder,
    ) -> Result<RunResult, EngineError> {
        let mut session = StreamingSession::new(algo, workload, self.clone())?;
        self.compose_batches(&mut session, engine, recorder)?;
        Ok(session.finish(engine, recorder))
    }

    /// The composer-driven loop: seeded synthetic batches, optional
    /// deterministic corruption keyed by the loop index.
    pub(crate) fn compose_batches<E: Engine + ?Sized>(
        &self,
        session: &mut StreamingSession,
        engine: &mut E,
        recorder: &mut dyn Recorder,
    ) -> Result<(), EngineError> {
        let n = session.vertex_count();
        let mut composer = BatchComposer::new(session.take_pending(), self.add_fraction, self.seed);
        for batch_index in 0..self.batches {
            let present = session.present_edges();
            let Some(batch) = composer.next_batch(session.batch_size(), &present) else {
                break;
            };
            // Deterministic input corruption, below the composer: the same
            // `(fault seed, batch index)` always produces the same damage.
            let raw = if self.fault_plan.is_noop() {
                batch.updates().to_vec()
            } else {
                self.fault_plan.corrupt_updates(batch_index as u64, batch.updates(), n)
            };
            session.ingest_batch(engine, raw, recorder)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names_parse_in_any_case_and_label_as_the_paper_does() {
        let table = [
            ("sssp", AlgoSel::HubSssp, "SSSP"),
            ("CC", Algo::cc().into(), "CC"),
            ("PageRank", Algo::pagerank().into(), "PageRank"),
            ("adsorption", Algo::adsorption().into(), "Adsorption"),
        ];
        for (name, sel, label) in table {
            assert_eq!(AlgoSel::from_name(name), Some(sel), "{name}");
            assert_eq!(sel.label(), label);
        }
        assert_eq!(AlgoSel::from_name("bfs"), None);
        assert_eq!(AlgoSel::HubSssp.resolve(7), Algo::sssp(7));
        assert_eq!(AlgoSel::Fixed(Algo::sssp(3)).resolve(7), Algo::sssp(3));
    }
}

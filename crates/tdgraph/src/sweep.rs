//! Declarative experiment sweeps and the parallel multi-experiment runner.
//!
//! The paper's evaluation is a grid: engines × algorithms × datasets (×
//! batch size and α for the sensitivity studies). This module
//! makes the grid a first-class value:
//!
//! * [`SweepSpec`] — a builder describing the axes of a sweep. Expanding a
//!   spec yields independent [`ExperimentCell`]s, each carrying its own
//!   fully-resolved [`RunConfig`] (machine config, seed, overrides), so a
//!   cell's result depends only on the cell, never on the schedule.
//! * [`SweepRunner`] — executes cells across scoped worker threads,
//!   resolves engines through an [`EngineRegistry`], emits JSON-lines
//!   progress events, and collects a stable-ordered [`SweepReport`] with
//!   per-cell wall-clock timing and oracle verdicts.
//! * [`SweepReport`] — lookup helpers for figure renderers plus a
//!   canonical, timing-free serialization used to assert determinism.
//!
//! # Observability
//!
//! Progress events are ordinary [`TraceEvent`]s from the `tdgraph-obs`
//! crate: attach any [`TraceSink`] with [`SweepRunner::trace_sink`] (the
//! JSON-lines stream of [`SweepRunner::progress_jsonl`] is just a
//! [`JsonlSink`]), and enable [`SweepRunner::observe`] to collect a merged,
//! deterministic metrics [`Snapshot`] across every cell of the sweep in
//! [`SweepReport::obs`].
//!
//! # Fault isolation
//!
//! A long sweep must survive one misbehaving cell. Every cell executes
//! behind a fault boundary and finishes with a [`CellOutcome`]:
//!
//! * typed failures ([`TdgraphError`]) — unknown engine keys, invalid run
//!   options, workload preparation errors — become
//!   [`CellOutcome::Failed`];
//! * engine panics are contained with `catch_unwind` and become
//!   [`CellOutcome::Panicked`], never a lost worker thread;
//! * with [`SweepRunner::cell_timeout`], a wall-clock watchdog turns a
//!   wedged cell into [`CellOutcome::TimedOut`];
//! * [`SweepRunner::retry_once`] re-executes a misbehaving cell exactly
//!   once (cells are deterministic, so a retry that succeeds produces the
//!   same bytes a clean run would).
//!
//! [`SweepRunner::checkpoint_to`] appends every completed cell's canonical
//! line to a JSON-lines file, and [`SweepSpec::resume_from`] restores
//! those cells on relaunch so only unfinished cells execute again.
//!
//! ```
//! use tdgraph::graph::datasets::{Dataset, Sizing};
//! use tdgraph::{EngineKind, RunConfig, SweepRunner, SweepSpec};
//!
//! let spec = SweepSpec::new()
//!     .datasets([Dataset::Amazon, Dataset::Dblp])
//!     .sizing(Sizing::Tiny)
//!     .engines([EngineKind::LigraO, EngineKind::TdGraphH])
//!     .tune(|o| {
//!         o.sim = tdgraph::sim::SimConfig::small_test();
//!         o.batches = 1;
//!     });
//! let report = SweepRunner::new().threads(2).run(&spec);
//! assert_eq!(report.len(), 4);
//! report.assert_all_ok();
//! report.assert_all_verified();
//! ```

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub use tdgraph_engines::config::AlgoSel;
use tdgraph_engines::config::{OracleMode, RunConfig, RunSource};
use tdgraph_engines::metrics::RunMetrics;
use tdgraph_engines::registry::EngineRegistry;
use tdgraph_engines::session::RunResult;
use tdgraph_graph::datasets::{Dataset, Sizing, StreamingWorkload};
use tdgraph_graph::fault::FaultPlan;
use tdgraph_graph::quarantine::{IngestMode, QuarantineReport};
use tdgraph_obs::{keys, JsonlSink, MemoryRecorder, Recorder, Snapshot, TraceEvent, TraceSink};
use tdgraph_sim::ExecConfig;

use crate::checkpoint::{self, CanonicalCell, CheckpointError, CheckpointLog};
use crate::error::TdgraphError;
use crate::experiment::{default_registry, EngineKind};

/// How a cell names the engine it runs.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineSel {
    /// A built-in engine.
    Kind(EngineKind),
    /// A registry key — built-in or registered by the caller.
    Named(String),
}

impl EngineSel {
    /// The registry key this selection resolves through.
    #[must_use]
    pub fn key(&self) -> &str {
        match self {
            EngineSel::Kind(k) => k.key(),
            EngineSel::Named(n) => n,
        }
    }
}

impl From<EngineKind> for EngineSel {
    fn from(kind: EngineKind) -> Self {
        EngineSel::Kind(kind)
    }
}

impl From<&str> for EngineSel {
    fn from(name: &str) -> Self {
        EngineSel::Named(name.to_string())
    }
}

/// A declarative sweep: datasets × algorithms × engines, optionally
/// crossed with batch-size / α / seed override axes. Other options, such
/// as Fig 24b's add fraction, are set on the base [`RunConfig`] through
/// [`SweepSpec::tune`].
///
/// Unset override axes inherit the base [`RunConfig`] value, so the
/// minimal spec — datasets and engines — reproduces the serial
/// [`Experiment`](crate::Experiment) loops cell for cell.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    datasets: Vec<Dataset>,
    sizing: Sizing,
    algos: Vec<AlgoSel>,
    engines: Vec<EngineSel>,
    base: RunConfig,
    batch_sizes: Vec<Option<usize>>,
    alphas: Vec<f64>,
    seeds: Vec<u64>,
    fault_plans: Vec<FaultPlan>,
    oracle_modes: Vec<OracleMode>,
    exec_configs: Vec<ExecConfig>,
    resume: Option<PathBuf>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSpec {
    /// An empty spec: no datasets, no engines, hub SSSP, the
    /// scaled-reference machine.
    #[must_use]
    pub fn new() -> Self {
        Self {
            datasets: Vec::new(),
            sizing: Sizing::Small,
            algos: Vec::new(),
            engines: Vec::new(),
            base: RunConfig {
                sim: tdgraph_sim::SimConfig::scaled_reference(),
                ..RunConfig::default()
            },
            batch_sizes: Vec::new(),
            alphas: Vec::new(),
            seeds: Vec::new(),
            fault_plans: Vec::new(),
            oracle_modes: Vec::new(),
            exec_configs: Vec::new(),
            resume: None,
        }
    }

    /// Appends one dataset.
    #[must_use]
    pub fn dataset(mut self, ds: Dataset) -> Self {
        self.datasets.push(ds);
        self
    }

    /// Appends several datasets.
    #[must_use]
    pub fn datasets(mut self, ds: impl IntoIterator<Item = Dataset>) -> Self {
        self.datasets.extend(ds);
        self
    }

    /// Sets the workload sizing (default [`Sizing::Small`]).
    #[must_use]
    pub fn sizing(mut self, sizing: Sizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// Appends one fixed algorithm.
    #[must_use]
    pub fn algo(mut self, algo: impl Into<AlgoSel>) -> Self {
        self.algos.push(algo.into());
        self
    }

    /// Appends several algorithm selections — concrete
    /// [`Algo`](tdgraph_algos::traits::Algo)s or anything else convertible
    /// to [`AlgoSel`], mixed freely.
    #[must_use]
    pub fn algos<I>(mut self, algos: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<AlgoSel>,
    {
        self.algos.extend(algos.into_iter().map(Into::into));
        self
    }

    /// Appends the hub-SSSP algorithm selection (the default when no
    /// algorithm is given).
    #[must_use]
    pub fn hub_sssp(mut self) -> Self {
        self.algos.push(AlgoSel::HubSssp);
        self
    }

    /// Appends one engine.
    #[must_use]
    pub fn engine(mut self, engine: impl Into<EngineSel>) -> Self {
        self.engines.push(engine.into());
        self
    }

    /// Appends several engine selections — built-in [`EngineKind`]s or
    /// registry keys (`&str`), mixed freely via [`EngineSel`] conversion.
    #[must_use]
    pub fn engines<I>(mut self, engines: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<EngineSel>,
    {
        self.engines.extend(engines.into_iter().map(Into::into));
        self
    }

    /// Appends an engine by registry key (for engines registered by the
    /// caller on the runner's [`EngineRegistry`]).
    #[must_use]
    pub fn engine_named(mut self, key: impl Into<String>) -> Self {
        self.engines.push(EngineSel::Named(key.into()));
        self
    }

    /// Replaces the base run configuration.
    #[must_use]
    pub fn options(mut self, options: RunConfig) -> Self {
        self.base = options;
        self
    }

    /// Mutates the base run configuration in place.
    #[must_use]
    pub fn tune(mut self, f: impl FnOnce(&mut RunConfig)) -> Self {
        f(&mut self.base);
        self
    }

    /// Adds a batch-size override axis (Fig 24a).
    #[must_use]
    pub fn batch_sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.batch_sizes.extend(sizes.into_iter().map(Some));
        self
    }

    /// Adds an α override axis (Fig 22).
    #[must_use]
    pub fn alphas(mut self, alphas: impl IntoIterator<Item = f64>) -> Self {
        self.alphas.extend(alphas);
        self
    }

    /// Adds a workload-seed override axis (replication studies).
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Adds a fault-plan override axis: each plan becomes its own chaos
    /// cell. Include [`FaultPlan::none`] for control cells.
    #[must_use]
    pub fn fault_plans(mut self, plans: impl IntoIterator<Item = FaultPlan>) -> Self {
        self.fault_plans.extend(plans);
        self
    }

    /// Adds a differential-oracle cadence axis.
    #[must_use]
    pub fn oracle_modes(mut self, modes: impl IntoIterator<Item = OracleMode>) -> Self {
        self.oracle_modes.extend(modes);
        self
    }

    /// Crosses the sweep with host execution configurations
    /// ([`ExecConfig::serial`], `.shards(n)`). Cells differ only in
    /// host-side parallelism: canonical report lines, snapshots, and
    /// verified states are identical across configurations by
    /// construction, so this axis measures wall-clock, never model output.
    #[must_use]
    pub fn exec_configs(mut self, configs: impl IntoIterator<Item = ExecConfig>) -> Self {
        self.exec_configs.extend(configs);
        self
    }

    /// Sets the ingest discipline for every cell (default
    /// [`IngestMode::Strict`]). Lenient ingest turns data-plane faults
    /// into [`CellOutcome::Degraded`] cells with quarantine evidence
    /// instead of [`CellOutcome::Failed`].
    #[must_use]
    pub fn ingest(mut self, mode: IngestMode) -> Self {
        self.base.ingest = mode;
        self
    }

    /// Resumes from the checkpoint file at `path`: cells recorded there
    /// are restored into the report without re-executing, and only the
    /// remaining cells run. A missing file means a fresh start, so the
    /// same spec works for the first launch and every relaunch.
    ///
    /// Records are validated against this spec's expansion
    /// (index and coordinates must agree); a stale or foreign checkpoint
    /// is a [`CheckpointError::SpecMismatch`], not silent corruption.
    #[must_use]
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// The resume checkpoint path, when one was set (the fleet
    /// coordinator honours it the same way the serial runner does).
    pub(crate) fn resume_ref(&self) -> Option<&std::path::Path> {
        self.resume.as_deref()
    }

    /// Number of cells this spec expands to.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        let or1 = |n: usize| n.max(1);
        self.datasets.len()
            * or1(self.algos.len())
            * self.engines.len()
            * or1(self.batch_sizes.len())
            * or1(self.alphas.len())
            * or1(self.seeds.len())
            * or1(self.fault_plans.len())
            * or1(self.oracle_modes.len())
            * or1(self.exec_configs.len())
    }

    /// Expands the grid into independent cells, in the documented stable
    /// order: algorithms → datasets → engines → batch sizes → α → seeds →
    /// fault plans → oracle modes → exec configs, each axis in insertion
    /// order.
    ///
    /// Every cell owns a fully-resolved copy of the run options (its own
    /// `SimConfig` and PRNG seed), so running a cell is deterministic no
    /// matter which worker executes it or when.
    #[must_use]
    pub fn expand(&self) -> Vec<ExperimentCell> {
        fn axis<T: Copy>(overrides: &[T], base: T) -> Vec<T> {
            if overrides.is_empty() {
                vec![base]
            } else {
                overrides.to_vec()
            }
        }
        let algos = if self.algos.is_empty() { vec![AlgoSel::HubSssp] } else { self.algos.clone() };
        let batch_sizes = axis(&self.batch_sizes, self.base.batch_size);
        let alphas = axis(&self.alphas, self.base.alpha);
        let seeds = axis(&self.seeds, self.base.seed);
        let fault_plans = axis(&self.fault_plans, self.base.fault_plan);
        let oracle_modes = axis(&self.oracle_modes, self.base.oracle);
        let exec_configs = axis(&self.exec_configs, self.base.exec);

        let mut cells = Vec::with_capacity(self.cell_count());
        for algo in &algos {
            for &dataset in &self.datasets {
                for engine in &self.engines {
                    for &batch_size in &batch_sizes {
                        for &alpha in &alphas {
                            for &seed in &seeds {
                                for &fault_plan in &fault_plans {
                                    for &oracle in &oracle_modes {
                                        for &exec in &exec_configs {
                                            let mut options = self.base.clone();
                                            options.batch_size = batch_size;
                                            options.alpha = alpha;
                                            options.seed = seed;
                                            options.fault_plan = fault_plan;
                                            options.oracle = oracle;
                                            options.exec = exec;
                                            cells.push(ExperimentCell {
                                                index: cells.len(),
                                                dataset,
                                                sizing: self.sizing,
                                                algo: *algo,
                                                engine: engine.clone(),
                                                options,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One independent point of a sweep: everything needed to run it, with no
/// shared mutable state.
#[derive(Debug, Clone)]
pub struct ExperimentCell {
    /// Position in the expansion order (stable report index).
    pub index: usize,
    /// Dataset to stream.
    pub dataset: Dataset,
    /// Workload sizing.
    pub sizing: Sizing,
    /// Algorithm selection.
    pub algo: AlgoSel,
    /// Engine selection.
    pub engine: EngineSel,
    /// Fully-resolved run configuration (own machine config and seed).
    pub options: RunConfig,
}

impl ExperimentCell {
    /// Runs this cell, resolving the engine through `registry`.
    ///
    /// [`EngineKind::TdGraphCustom`] carries run-time configuration that a
    /// registry key cannot express, so it is the one selection built
    /// directly instead of by key lookup.
    ///
    /// # Errors
    ///
    /// [`TdgraphError::Engine`] when the engine key is unregistered, the
    /// run options fail validation, or the harness reports a typed
    /// failure; [`TdgraphError::Graph`] when the workload cannot be
    /// prepared.
    pub fn run_checked(&self, registry: &EngineRegistry) -> Result<RunResult, TdgraphError> {
        let workload = StreamingWorkload::try_prepare(self.dataset, self.sizing)?;
        let algo = self.algo.resolve(workload.hub_vertex());
        let mut engine = match &self.engine {
            EngineSel::Kind(kind @ EngineKind::TdGraphCustom(_)) => kind.try_build()?,
            sel => registry.try_build(sel.key())?,
        };
        Ok(self.options.run(engine.as_mut(), algo, RunSource::Workload(workload))?)
    }

    /// Runs this cell, panicking on any typed failure. Prefer
    /// [`ExperimentCell::run_checked`]; the sweep runner uses it to keep
    /// failures inside the cell that caused them.
    ///
    /// # Panics
    ///
    /// Panics if [`ExperimentCell::run_checked`] returns an error (e.g.
    /// the engine key is not registered).
    #[must_use]
    pub fn run(&self, registry: &EngineRegistry) -> RunResult {
        match self.run_checked(registry) {
            Ok(result) => result,
            Err(e) => {
                panic!("cell {} [{}] failed: {e}", self.index, checkpoint::cell_coordinates(self))
            }
        }
    }
}

/// The advisory shown with every contained panic: the unwinding stack is
/// gone by the time `catch_unwind` returns, so the honest hint is how to
/// get a real one.
const BACKTRACE_HINT: &str =
    "re-run the failing cell alone with RUST_BACKTRACE=1 to capture a backtrace; \
     cells are deterministic, so the panic reproduces from the cell coordinates";

/// Classification of a [`CellOutcome`] without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeKind {
    /// The cell ran to completion.
    Completed,
    /// The cell ran to completion but quarantined records or hit mid-run
    /// oracle mismatches along the way.
    Degraded,
    /// The cell was restored from a checkpoint without re-executing.
    Restored,
    /// The cell failed with a typed error.
    Failed,
    /// The cell's engine panicked; the panic was contained.
    Panicked,
    /// The cell exceeded the runner's wall-clock watchdog.
    TimedOut,
}

impl OutcomeKind {
    /// Stable lower-snake label (used in progress events and canonical
    /// failure lines).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OutcomeKind::Completed => "completed",
            OutcomeKind::Degraded => "degraded",
            OutcomeKind::Restored => "restored",
            OutcomeKind::Failed => "failed",
            OutcomeKind::Panicked => "panicked",
            OutcomeKind::TimedOut => "timed_out",
        }
    }

    /// The kind a [`OutcomeKind::label`] string names (inverse of
    /// `label`; used when outcomes cross a process boundary).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "completed" => Some(OutcomeKind::Completed),
            "degraded" => Some(OutcomeKind::Degraded),
            "restored" => Some(OutcomeKind::Restored),
            "failed" => Some(OutcomeKind::Failed),
            "panicked" => Some(OutcomeKind::Panicked),
            "timed_out" => Some(OutcomeKind::TimedOut),
            _ => None,
        }
    }
}

/// How one cell of a sweep ended.
///
/// Marked `#[non_exhaustive]`: this enum crosses the service boundary,
/// so downstream matches must keep a wildcard arm for outcomes added in
/// later releases.
#[non_exhaustive]
#[derive(Debug)]
pub enum CellOutcome {
    /// The cell ran to completion (metrics and oracle verdict inside,
    /// boxed to keep the failure variants small).
    Completed(Box<RunResult>),
    /// The cell survived to completion, but only by degrading: lenient
    /// ingest quarantined records and/or the mid-run oracle found
    /// mismatches. The full result (including the
    /// [`QuarantineReport`]) is inside; the headline totals are
    /// duplicated here so reporting never digs into the payload.
    Degraded {
        /// The completed run, same shape as a clean completion.
        result: Box<RunResult>,
        /// Total records lenient ingest quarantined.
        quarantined: u64,
        /// Mid-run differential-oracle mismatches.
        oracle_mismatches: u64,
    },
    /// The cell's canonical record was restored from a checkpoint.
    Restored(CanonicalCell),
    /// The cell failed with a typed error before or during the run.
    Failed(TdgraphError),
    /// The cell's engine panicked; the worker thread survived.
    Panicked {
        /// The panic payload (message), when it was a string.
        message: String,
        /// How to obtain a real backtrace for this panic.
        backtrace_hint: String,
    },
    /// The cell exceeded the configured wall-clock timeout. Its runaway
    /// thread is abandoned (threads cannot be killed safely); the worker
    /// moved on to the next cell.
    TimedOut {
        /// The watchdog limit that fired.
        timeout: Duration,
    },
    /// The cell executed in a *worker process* (fleet execution). The
    /// coordinator holds the worker's classification and the canonical
    /// line the worker rendered — re-emitted verbatim by
    /// [`SweepReport::canonical_lines`], which is what makes fleet runs
    /// byte-identical to serial ones — but not the full result payload.
    Remote {
        /// The worker-side outcome classification.
        kind: OutcomeKind,
        /// The worker-side oracle verdict (`false` for failed kinds).
        verified: bool,
        /// The canonical report line the worker rendered (no newline).
        line: String,
        /// The worker-side failure / degradation detail (empty when
        /// clean).
        detail: String,
    },
}

impl CellOutcome {
    /// This outcome's classification.
    #[must_use]
    pub fn kind(&self) -> OutcomeKind {
        match self {
            CellOutcome::Completed(_) => OutcomeKind::Completed,
            CellOutcome::Degraded { .. } => OutcomeKind::Degraded,
            CellOutcome::Restored(_) => OutcomeKind::Restored,
            CellOutcome::Failed(_) => OutcomeKind::Failed,
            CellOutcome::Panicked { .. } => OutcomeKind::Panicked,
            CellOutcome::TimedOut { .. } => OutcomeKind::TimedOut,
            CellOutcome::Remote { kind, .. } => *kind,
        }
    }

    /// Whether the cell produced a usable result (completed, degraded, or
    /// restored — locally or in a worker process).
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(
            self.kind(),
            OutcomeKind::Completed | OutcomeKind::Degraded | OutcomeKind::Restored
        )
    }

    /// The full run result, when the cell actually executed this launch.
    #[must_use]
    pub fn run_result(&self) -> Option<&RunResult> {
        match self {
            CellOutcome::Completed(r) => Some(r),
            CellOutcome::Degraded { result, .. } => Some(result),
            _ => None,
        }
    }

    /// One-line failure / degradation description (empty for clean
    /// outcomes).
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            CellOutcome::Completed(_) | CellOutcome::Restored(_) => String::new(),
            CellOutcome::Degraded { result, quarantined, oracle_mismatches } => {
                let mut parts = Vec::new();
                if *quarantined > 0 {
                    parts.push(result.quarantine.summary());
                }
                if *oracle_mismatches > 0 {
                    parts.push(format!(
                        "{oracle_mismatches} oracle mismatch(es) across {} check(s)",
                        result.oracle.checks
                    ));
                }
                parts.join("; ")
            }
            CellOutcome::Failed(e) => e.to_string(),
            CellOutcome::Panicked { message, .. } => message.clone(),
            CellOutcome::TimedOut { timeout } => {
                format!("exceeded the cell timeout of {timeout:?}")
            }
            CellOutcome::Remote { detail, .. } => detail.clone(),
        }
    }
}

/// A finished cell: its spec, outcome, and wall-clock time.
#[derive(Debug)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: ExperimentCell,
    /// How it ended.
    pub outcome: CellOutcome,
    /// Wall-clock execution time of the cell (schedule-dependent; excluded
    /// from [`SweepReport::canonical_lines`]; zero for restored cells).
    pub wall: Duration,
    /// Number of extra executions the runner spent on this cell (0, or 1
    /// when [`SweepRunner::retry_once`] re-ran it).
    pub retries: u32,
}

impl CellResult {
    /// Whether the cell produced a usable result.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Whether the cell's final states matched the oracle (false for
    /// failed cells).
    #[must_use]
    pub fn is_verified(&self) -> bool {
        match &self.outcome {
            CellOutcome::Completed(r) => r.verify.is_match(),
            CellOutcome::Degraded { result, oracle_mismatches, .. } => {
                result.verify.is_match() && *oracle_mismatches == 0
            }
            CellOutcome::Restored(c) => c.verified,
            CellOutcome::Remote { verified, .. } => *verified,
            _ => false,
        }
    }

    /// The run result, when the cell executed this launch.
    #[must_use]
    pub fn run_result(&self) -> Option<&RunResult> {
        self.outcome.run_result()
    }

    /// The run metrics, when the cell executed this launch. Restored
    /// cells only carry their canonical record — re-run without
    /// `resume_from` when the full metrics are needed.
    #[must_use]
    pub fn metrics(&self) -> Option<&RunMetrics> {
        self.run_result().map(|r| &r.metrics)
    }

    /// The canonical record of a *clean* ok cell (completed or restored).
    /// Degraded cells return `None` — they are serialized with their
    /// degradation totals appended (see [`SweepReport::canonical_lines`])
    /// and are never checkpointed, so a resume re-runs them.
    #[must_use]
    pub fn canonical(&self) -> Option<CanonicalCell> {
        match &self.outcome {
            CellOutcome::Completed(r) => Some(CanonicalCell::of(&self.cell, r)),
            CellOutcome::Restored(c) => Some(c.clone()),
            _ => None,
        }
    }

    /// This cell's canonical report line, exactly as
    /// [`SweepReport::canonical_lines`] emits it (no trailing newline).
    ///
    /// Clean cells render their canonical record; degraded cells append
    /// their degradation totals; failed cells render an outcome-tagged
    /// line; remote cells re-emit the line their worker rendered,
    /// verbatim.
    #[must_use]
    pub fn canonical_line(&self) -> String {
        match &self.outcome {
            CellOutcome::Remote { line, .. } => line.clone(),
            CellOutcome::Degraded { result, quarantined, oracle_mismatches } => {
                // A degraded cell serializes like a completed one, plus
                // its degradation totals — the metrics are real, the
                // outcome tag says they were earned the hard way.
                let record = CanonicalCell::of(&self.cell, result).to_json_line();
                let base = record.strip_suffix('}').unwrap_or(&record);
                format!(
                    "{base},\"outcome\":\"degraded\",\"quarantined\":{quarantined},\"oracle_mismatches\":{oracle_mismatches}}}"
                )
            }
            _ => match self.canonical() {
                Some(record) => record.to_json_line(),
                None => TraceEvent::record()
                    .field("cell", self.cell.index)
                    .field("dataset", self.cell.dataset.abbrev())
                    .field("sizing", format!("{:?}", self.cell.sizing))
                    .field("algo", self.cell.algo.label())
                    .field("engine", self.cell.engine.key())
                    .field("seed", self.cell.options.seed)
                    .field("options", checkpoint::options_digest(&self.cell.options))
                    .field("outcome", self.outcome.kind().label())
                    .field("detail", self.outcome.detail())
                    .to_json_line(),
            },
        }
    }
}

/// Per-kind outcome totals of a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Cells that ran to completion.
    pub completed: usize,
    /// Cells that completed with quarantined records or oracle mismatches.
    pub degraded: usize,
    /// Cells restored from a checkpoint.
    pub restored: usize,
    /// Cells that failed with a typed error.
    pub failed: usize,
    /// Cells whose engine panicked.
    pub panicked: usize,
    /// Cells that hit the watchdog timeout.
    pub timed_out: usize,
}

impl OutcomeCounts {
    /// Cells that did not produce a usable result.
    #[must_use]
    pub fn not_ok(&self) -> usize {
        self.failed + self.panicked + self.timed_out
    }
}

/// Stable-ordered results of a sweep (cell order == expansion order).
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Per-cell results, indexed by [`ExperimentCell::index`].
    pub cells: Vec<CellResult>,
    /// Number of checkpoint appends that failed with an I/O error. The
    /// sweep keeps running when the checkpoint disk misbehaves — results
    /// still land in the report — but resume coverage is degraded, so the
    /// count is surfaced here.
    pub checkpoint_write_errors: usize,
    /// Torn final checkpoint lines dropped while resuming (0 or 1): the
    /// previous run was killed mid-append and its last record was
    /// re-executed instead of restored.
    pub torn_tails_dropped: usize,
    /// Merged observability snapshot across every ok cell, present when
    /// the runner ran with [`SweepRunner::observe`]. Cells merge in index
    /// order, so the snapshot (and any rendering of it) is byte-identical
    /// regardless of thread count. Completed cells contribute their full
    /// metrics export; restored cells only carry the headline counters of
    /// their canonical checkpoint record.
    pub obs: Option<Snapshot>,
}

impl SweepReport {
    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the report is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Per-kind outcome totals.
    #[must_use]
    pub fn outcome_counts(&self) -> OutcomeCounts {
        let mut counts = OutcomeCounts::default();
        for c in &self.cells {
            match c.outcome.kind() {
                OutcomeKind::Completed => counts.completed += 1,
                OutcomeKind::Degraded => counts.degraded += 1,
                OutcomeKind::Restored => counts.restored += 1,
                OutcomeKind::Failed => counts.failed += 1,
                OutcomeKind::Panicked => counts.panicked += 1,
                OutcomeKind::TimedOut => counts.timed_out += 1,
            }
        }
        counts
    }

    /// Total retries spent across cells.
    #[must_use]
    pub fn total_retries(&self) -> u32 {
        self.cells.iter().map(|c| c.retries).sum()
    }

    /// Whether every cell produced a usable result.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(CellResult::is_ok)
    }

    /// Cells that did not produce a usable result, in report order.
    #[must_use]
    pub fn failures(&self) -> Vec<&CellResult> {
        self.cells.iter().filter(|c| !c.is_ok()).collect()
    }

    /// A human-readable digest of every failed cell: index, coordinates,
    /// outcome kind, and the failure detail. Empty when all cells are ok.
    #[must_use]
    pub fn failure_digest(&self) -> String {
        let failures = self.failures();
        if failures.is_empty() {
            return String::new();
        }
        let mut out = format!("{} of {} cells did not complete:\n", failures.len(), self.len());
        for c in failures {
            out.push_str(&format!(
                "  cell {} [{}]: {}: {}{}\n",
                c.cell.index,
                checkpoint::cell_coordinates(&c.cell),
                c.outcome.kind().label(),
                c.outcome.detail(),
                if c.retries > 0 { format!(" (after {} retry)", c.retries) } else { String::new() },
            ));
        }
        out
    }

    /// Panics with the [`SweepReport::failure_digest`] if any cell failed,
    /// panicked, or timed out.
    pub fn assert_all_ok(&self) {
        assert!(self.all_ok(), "sweep had failures\n{}", self.failure_digest());
    }

    /// Whether every cell is ok *and* matched the oracle.
    #[must_use]
    pub fn all_verified(&self) -> bool {
        self.cells.iter().all(CellResult::is_verified)
    }

    /// Panics with a per-cell description if any cell failed or diverged
    /// from the oracle.
    pub fn assert_all_verified(&self) {
        self.assert_all_ok();
        for c in &self.cells {
            assert!(
                c.is_verified(),
                "{} {} on {:?} diverged from the oracle",
                c.cell.engine.key(),
                c.cell.algo.label(),
                c.cell.dataset,
            );
        }
    }

    /// The first cell matching dataset, algorithm label, and engine key.
    #[must_use]
    pub fn cell(
        &self,
        dataset: Dataset,
        algo_label: &str,
        engine_key: &str,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.cell.dataset == dataset
                && c.cell.algo.label() == algo_label
                && c.cell.engine.key() == engine_key
        })
    }

    /// All cells satisfying `pred`, in report order.
    pub fn select(&self, pred: impl Fn(&CellResult) -> bool) -> Vec<&CellResult> {
        self.cells.iter().filter(|c| pred(c)).collect()
    }

    /// Canonical timing-free serialization: one JSON line per cell with
    /// the cell coordinates, the headline metrics, and the oracle verdict.
    ///
    /// Two runs of the same spec produce byte-identical canonical lines
    /// regardless of thread count or schedule — the determinism contract
    /// the test suite asserts. Restored cells re-emit their stored
    /// checkpoint line verbatim, which extends the contract across
    /// checkpoint/resume. A failed cell emits an outcome-tagged line
    /// (`"outcome"`/`"detail"` instead of metrics).
    #[must_use]
    pub fn canonical_lines(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&c.canonical_line());
            out.push('\n');
        }
        out
    }

    /// Total wall-clock time across cells (sum, not critical path).
    #[must_use]
    pub fn total_wall(&self) -> Duration {
        self.cells.iter().map(|c| c.wall).sum()
    }

    /// Degraded cells, in report order.
    #[must_use]
    pub fn degraded(&self) -> Vec<&CellResult> {
        self.cells.iter().filter(|c| c.outcome.kind() == OutcomeKind::Degraded).collect()
    }

    /// A human-readable digest of everything the sweep survived by
    /// degrading: per-cell quarantine / oracle totals plus a merged
    /// quarantine breakdown. Empty when no cell degraded.
    #[must_use]
    pub fn degradation_digest(&self) -> String {
        let degraded = self.degraded();
        if degraded.is_empty() {
            return String::new();
        }
        let mut merged = QuarantineReport::new();
        let mut oracle_checks = 0u64;
        let mut oracle_mismatches = 0u64;
        let mut out = format!("{} of {} cells degraded:\n", degraded.len(), self.len());
        for c in &degraded {
            let Some(r) = c.run_result() else { continue };
            merged.merge(&r.quarantine);
            oracle_checks += r.oracle.checks;
            oracle_mismatches += r.oracle.mismatches;
            out.push_str(&format!(
                "  cell {} [{}]: {}\n",
                c.cell.index,
                checkpoint::cell_coordinates(&c.cell),
                c.outcome.detail(),
            ));
        }
        if !merged.is_empty() {
            out.push_str(&format!("  total: {}\n", merged.summary()));
        }
        if oracle_checks > 0 {
            out.push_str(&format!(
                "  oracle: {oracle_mismatches} mismatch(es) across {oracle_checks} check(s)\n"
            ));
        }
        out
    }
}

/// Constructors for the runner's progress events. Field order within each
/// event is part of the JSON-lines format and must stay stable; wall-clock
/// fields go in as [`tdgraph_obs::Value::Wall`] so canonical renderings
/// stay schedule-independent.
mod events {
    use tdgraph_obs::TraceEvent;

    fn cell_coords(name: &'static str, cell: usize, ds: &str, algo: &str, eng: &str) -> TraceEvent {
        TraceEvent::new(name)
            .field("cell", cell)
            .field("dataset", ds)
            .field("algo", algo)
            .field("engine", eng)
    }

    pub(super) fn sweep_started(cells: usize, threads: usize) -> TraceEvent {
        TraceEvent::new("sweep_started").field("cells", cells).field("threads", threads)
    }

    pub(super) fn cell_started(cell: usize, ds: &str, algo: &str, eng: &str) -> TraceEvent {
        cell_coords("cell_started", cell, ds, algo, eng)
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn cell_finished(
        cell: usize,
        ds: &str,
        algo: &str,
        eng: &str,
        cycles: u64,
        verified: bool,
        wall_micros: u128,
    ) -> TraceEvent {
        cell_coords("cell_finished", cell, ds, algo, eng)
            .field("cycles", cycles)
            .field("verified", verified)
            .wall_micros("wall_micros", wall_micros)
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn cell_failed(
        cell: usize,
        ds: &str,
        algo: &str,
        eng: &str,
        outcome: &'static str,
        detail: String,
        retries: u32,
        wall_micros: u128,
    ) -> TraceEvent {
        cell_coords("cell_failed", cell, ds, algo, eng)
            .field("outcome", outcome)
            .field("detail", detail)
            .field("retries", u64::from(retries))
            .wall_micros("wall_micros", wall_micros)
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn cell_degraded(
        cell: usize,
        ds: &str,
        algo: &str,
        eng: &str,
        cycles: u64,
        quarantined: u64,
        oracle_mismatches: u64,
        wall_micros: u128,
    ) -> TraceEvent {
        cell_coords("cell_degraded", cell, ds, algo, eng)
            .field("cycles", cycles)
            .field("quarantined", quarantined)
            .field("oracle_mismatches", oracle_mismatches)
            .wall_micros("wall_micros", wall_micros)
    }

    pub(super) fn cell_restored(
        cell: usize,
        ds: &str,
        algo: &str,
        eng: &str,
        verified: bool,
    ) -> TraceEvent {
        cell_coords("cell_restored", cell, ds, algo, eng).field("verified", verified)
    }

    pub(super) fn sweep_finished(
        cells: usize,
        verified: usize,
        failed: usize,
        restored: usize,
        retried: u32,
        wall_micros: u128,
    ) -> TraceEvent {
        TraceEvent::new("sweep_finished")
            .field("cells", cells)
            .field("verified", verified)
            .field("failed", failed)
            .field("restored", restored)
            .field("retried", u64::from(retried))
            .wall_micros("wall_micros", wall_micros)
    }
}

/// The engine registry a sweep resolves through, in a form that can cross
/// into a detached watchdog thread (`'static` either way).
#[derive(Clone)]
pub(crate) enum RegistryHandle {
    /// The process-wide default registry.
    Default,
    /// A caller-supplied registry.
    Shared(Arc<EngineRegistry>),
}

impl RegistryHandle {
    pub(crate) fn get(&self) -> &EngineRegistry {
        match self {
            RegistryHandle::Default => default_registry(),
            RegistryHandle::Shared(r) => r,
        }
    }
}

/// Executes sweeps (and generic index-stable parallel maps) across scoped
/// worker threads.
///
/// Workers pull cells from a shared cursor, so long cells do not starve
/// the rest of the grid; results land in expansion order regardless of
/// completion order. Failures stay inside the cell that caused them — see
/// the module docs for the fault-isolation model.
#[derive(Clone)]
pub struct SweepRunner {
    threads: usize,
    registry: Option<Arc<EngineRegistry>>,
    sinks: Vec<Arc<dyn TraceSink>>,
    observe: bool,
    cell_timeout: Option<Duration>,
    retry: bool,
    checkpoint: Option<PathBuf>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("threads", &self.threads)
            .field("custom_registry", &self.registry.is_some())
            .field("sinks", &self.sinks.len())
            .field("observe", &self.observe)
            .field("cell_timeout", &self.cell_timeout)
            .field("retry", &self.retry)
            .field("checkpoint", &self.checkpoint)
            .finish()
    }
}

impl SweepRunner {
    /// A runner using every available core and the default registry.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1);
        Self {
            threads,
            registry: None,
            sinks: Vec::new(),
            observe: false,
            cell_timeout: None,
            retry: false,
            checkpoint: None,
        }
    }

    /// Sets the worker-thread count (clamped to ≥ 1).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Replaces the engine registry (default: [`default_registry`]), e.g.
    /// to add caller-defined engines for [`SweepSpec::engine_named`].
    #[must_use]
    pub fn registry(mut self, registry: EngineRegistry) -> Self {
        self.registry = Some(Arc::new(registry));
        self
    }

    /// Attaches a structured [`TraceSink`]: every progress event the
    /// runner emits is delivered to it as a [`TraceEvent`]. Sinks fan out
    /// in attachment order; pass an `Arc<VecSink>` (or any shared sink) to
    /// keep a handle for inspection after the sweep.
    #[must_use]
    pub fn trace_sink(mut self, sink: impl TraceSink + 'static) -> Self {
        self.sinks.push(Arc::new(sink));
        self
    }

    /// Streams progress events as JSON lines into `writer` (e.g. stderr or
    /// a log file) through a [`JsonlSink`]. Write errors are ignored —
    /// observability must not kill a sweep.
    #[must_use]
    pub fn progress_jsonl(self, writer: impl Write + Send + 'static) -> Self {
        self.trace_sink(JsonlSink::new(writer))
    }

    /// Collects a merged metrics [`Snapshot`] across the sweep into
    /// [`SweepReport::obs`]: each ok cell's metrics fold in cell-index
    /// order, so the merged snapshot is independent of the schedule.
    #[must_use]
    pub fn observe(mut self, enabled: bool) -> Self {
        self.observe = enabled;
        self
    }

    /// Arms a wall-clock watchdog: a cell still running after `timeout`
    /// is reported as [`CellOutcome::TimedOut`] and its worker moves on.
    ///
    /// Each watched cell runs on its own monitored thread; a thread that
    /// overruns is abandoned (Rust threads cannot be killed safely), so a
    /// sweep with timeouts trades bounded thread leakage for bounded
    /// wall-clock time. Unset by default: cells run inline with no extra
    /// thread per cell.
    #[must_use]
    pub fn cell_timeout(mut self, timeout: Duration) -> Self {
        self.cell_timeout = Some(timeout);
        self
    }

    /// Re-executes a failed / panicked / timed-out cell exactly once
    /// before recording its outcome. Cells are deterministic, so this
    /// only helps against environmental faults (and fault-injection
    /// tests); a retry that succeeds yields the same canonical bytes a
    /// clean run would.
    #[must_use]
    pub fn retry_once(mut self, enabled: bool) -> Self {
        self.retry = enabled;
        self
    }

    /// Appends every completed cell's canonical line to the JSON-lines
    /// file at `path` (created if missing, a torn tail cut off first), one
    /// unbuffered write per cell: it survives the process being killed,
    /// not a machine crash (see [`CheckpointLog`]). Pair with
    /// [`SweepSpec::resume_from`] to make sweeps relaunchable.
    ///
    /// Only completed cells are recorded — failed, panicked, and
    /// timed-out cells stay out of the checkpoint so a resume re-executes
    /// them.
    #[must_use]
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    fn emit(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    fn registry_handle(&self) -> RegistryHandle {
        match &self.registry {
            Some(r) => RegistryHandle::Shared(Arc::clone(r)),
            None => RegistryHandle::Default,
        }
    }

    /// Runs every cell of `spec` and collects the stable-ordered report.
    ///
    /// # Panics
    ///
    /// Panics if [`SweepRunner::try_run`] fails to *launch* (checkpoint
    /// file unreadable or mismatched). Per-cell failures never panic the
    /// runner — inspect the report (or call
    /// [`SweepReport::assert_all_ok`]).
    #[must_use]
    pub fn run(&self, spec: &SweepSpec) -> SweepReport {
        match self.try_run(spec) {
            Ok(report) => report,
            Err(e) => panic!("sweep failed to launch: {e}"),
        }
    }

    /// Runs every cell of `spec` and collects the stable-ordered report.
    ///
    /// Cells that fail — typed error, contained panic, watchdog timeout —
    /// are recorded as their [`CellOutcome`] and do not stop the sweep or
    /// lose a worker thread.
    ///
    /// # Errors
    ///
    /// [`TdgraphError::Checkpoint`] when the spec's resume file exists but
    /// cannot be read or does not describe this sweep, or when the
    /// runner's checkpoint file cannot be opened or is damaged before its
    /// final line. Failures *launching* are errors; failures *running a
    /// cell* are outcomes.
    pub fn try_run(&self, spec: &SweepSpec) -> Result<SweepReport, TdgraphError> {
        let cells = spec.expand();
        let (restored, torn_tails_dropped) = match &spec.resume {
            Some(path) => plan_resume(path, &cells)?,
            None => ((0..cells.len()).map(|_| None).collect(), 0),
        };
        let log = match &self.checkpoint {
            Some(path) => Some(CheckpointLog::append_to(path)?),
            None => None,
        };
        let write_errors = AtomicUsize::new(0);
        let registry = self.registry_handle();

        let started = Instant::now();
        self.emit(&events::sweep_started(cells.len(), self.threads.min(cells.len().max(1))));
        let results = self.map(&cells, |i, cell| {
            let (ds, algo, eng) = (cell.dataset.abbrev(), cell.algo.label(), cell.engine.key());
            if let Some(record) = restored.get(i).and_then(Option::as_ref) {
                self.emit(&events::cell_restored(cell.index, ds, algo, eng, record.verified));
                return CellResult {
                    cell: cell.clone(),
                    outcome: CellOutcome::Restored(record.clone()),
                    wall: Duration::ZERO,
                    retries: 0,
                };
            }
            self.emit(&events::cell_started(cell.index, ds, algo, eng));
            let t0 = Instant::now();
            let mut retries = 0;
            let mut outcome = execute_cell(cell, &registry, self.cell_timeout);
            if self.retry && !outcome.is_ok() {
                retries = 1;
                outcome = execute_cell(cell, &registry, self.cell_timeout);
            }
            let wall = t0.elapsed();
            match &outcome {
                CellOutcome::Completed(result) => {
                    if let Some(log) = &log {
                        if log.append(&CanonicalCell::of(cell, result)).is_err() {
                            write_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    self.emit(&events::cell_finished(
                        cell.index,
                        ds,
                        algo,
                        eng,
                        result.metrics.cycles,
                        result.verify.is_match(),
                        wall.as_micros(),
                    ));
                }
                // Degraded cells are deliberately NOT checkpointed: a
                // resume re-runs them, so a fixed input gets a clean pass.
                CellOutcome::Degraded { result, quarantined, oracle_mismatches } => {
                    self.emit(&events::cell_degraded(
                        cell.index,
                        ds,
                        algo,
                        eng,
                        result.metrics.cycles,
                        *quarantined,
                        *oracle_mismatches,
                        wall.as_micros(),
                    ));
                }
                failure => {
                    self.emit(&events::cell_failed(
                        cell.index,
                        ds,
                        algo,
                        eng,
                        failure.kind().label(),
                        failure.detail(),
                        retries,
                        wall.as_micros(),
                    ));
                }
            }
            CellResult { cell: cell.clone(), outcome, wall, retries }
        });
        // `results` is in cell-index order, whatever the schedule.
        let obs = self.observe.then(|| {
            let mut merged = Snapshot::new();
            for snapshot in results.iter().filter_map(cell_snapshot) {
                merged.merge_from(&snapshot);
            }
            merged
        });
        let report = SweepReport {
            cells: results,
            checkpoint_write_errors: write_errors.load(Ordering::Relaxed),
            torn_tails_dropped,
            obs,
        };
        let counts = report.outcome_counts();
        self.emit(&events::sweep_finished(
            report.len(),
            report.cells.iter().filter(|c| c.is_verified()).count(),
            counts.not_ok(),
            counts.restored,
            report.total_retries(),
            started.elapsed().as_micros(),
        ));
        Ok(report)
    }

    /// Index-stable parallel map over arbitrary items: applies `f` to each
    /// item on the worker pool and returns outputs in input order.
    ///
    /// This is the primitive `run` is built on; experiments whose unit of
    /// work is not a simulator cell (native host runs, dataset statistics)
    /// use it directly.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let threads = self.threads.min(items.len());
        if threads <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let out = f(i, item);
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(out) => out,
                // Unreachable: a worker that did not fill its slot panicked
                // in `f`, and that panic already propagated out of the
                // thread scope above.
                None => panic!("worker failed to fill its result slot"),
            })
            .collect()
    }
}

/// Validates a resume checkpoint against the expanded grid and returns,
/// per cell index, the record to restore (last duplicate wins), plus the
/// number of torn final lines dropped by the tolerant loader.
fn plan_resume(
    path: &std::path::Path,
    cells: &[ExperimentCell],
) -> Result<(Vec<Option<CanonicalCell>>, usize), TdgraphError> {
    let loaded = checkpoint::load_tolerant(path)?;
    Ok((plan_restored(loaded.records, cells)?, loaded.torn_tails_dropped))
}

/// Validates already-loaded checkpoint records against the expanded grid
/// (shared between the resume planner and the fleet coordinator).
pub(crate) fn plan_restored(
    records: impl IntoIterator<Item = CanonicalCell>,
    cells: &[ExperimentCell],
) -> Result<Vec<Option<CanonicalCell>>, TdgraphError> {
    let mut restored: Vec<Option<CanonicalCell>> = (0..cells.len()).map(|_| None).collect();
    for record in records {
        let Some(cell) = cells.get(record.cell) else {
            return Err(CheckpointError::SpecMismatch {
                index: record.cell,
                expected: format!("a sweep of {} cells", cells.len()),
                found: record.coordinates(),
            }
            .into());
        };
        if !record.matches(cell) {
            return Err(CheckpointError::SpecMismatch {
                index: record.cell,
                expected: checkpoint::cell_coordinates(cell),
                found: record.coordinates(),
            }
            .into());
        }
        let index = record.cell;
        restored[index] = Some(record);
    }
    Ok(restored)
}

/// The observability snapshot an ok cell contributes to the merged sweep
/// snapshot (`None` for failed cells — they have no metrics to fold).
pub(crate) fn cell_snapshot(result: &CellResult) -> Option<Snapshot> {
    match &result.outcome {
        CellOutcome::Completed(r) => Some(r.metrics.to_snapshot()),
        CellOutcome::Degraded { result, .. } => Some(result.metrics.to_snapshot()),
        CellOutcome::Restored(record) => Some(restored_snapshot(record)),
        _ => None,
    }
}

/// A snapshot rebuilt from a checkpoint record: only the headline counters
/// the canonical line carries (a restored cell never ran, so per-op and
/// cache-level detail is gone).
pub(crate) fn restored_snapshot(record: &CanonicalCell) -> Snapshot {
    let mut mem = MemoryRecorder::new();
    mem.counter(keys::RUN_CYCLES, record.cycles);
    mem.counter(keys::RUN_BATCHES, record.batches);
    mem.counter(keys::STATE_WRITES, record.state_updates);
    mem.counter(keys::USEFUL_UPDATES, record.useful_updates);
    mem.counter(keys::EDGES_PROCESSED, record.edges_processed);
    mem.counter(keys::DRAM_BYTES, record.dram_bytes);
    mem.span_exit(keys::PHASE_PROPAGATION, record.propagation_cycles);
    mem.span_exit(keys::PHASE_OTHER, record.other_cycles);
    mem.into_snapshot()
}

/// Runs one cell behind the fault boundary: typed errors and panics are
/// captured; with a timeout, the cell runs on a monitored thread and a
/// watchdog converts an overrun into [`CellOutcome::TimedOut`].
pub(crate) fn execute_cell(
    cell: &ExperimentCell,
    registry: &RegistryHandle,
    timeout: Option<Duration>,
) -> CellOutcome {
    let Some(limit) = timeout else {
        return execute_inline(cell, registry.get());
    };

    // Completion flag shared with the monitored thread: the cell outcome
    // slot plus a condvar the watchdog waits on.
    type Slot = (Mutex<Option<CellOutcome>>, Condvar);
    let slot: Arc<Slot> = Arc::new((Mutex::new(None), Condvar::new()));
    let worker_slot = Arc::clone(&slot);
    let worker_cell = cell.clone();
    let worker_registry = registry.clone();
    let spawned =
        std::thread::Builder::new().name(format!("tdgraph-cell-{}", cell.index)).spawn(move || {
            // `execute_inline` contains panics, so this thread always
            // reaches the notify and never poisons the slot.
            let outcome = execute_inline(&worker_cell, worker_registry.get());
            let (lock, condvar) = &*worker_slot;
            if let Ok(mut guard) = lock.lock() {
                *guard = Some(outcome);
            }
            condvar.notify_all();
        });
    if spawned.is_err() {
        // Thread exhaustion: degrade to an unwatched inline run rather
        // than reporting a cell failure the cell did not cause.
        return execute_inline(cell, registry.get());
    }

    let (lock, condvar) = &*slot;
    let deadline = Instant::now() + limit;
    let mut guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if let Some(outcome) = guard.take() {
            return outcome;
        }
        let now = Instant::now();
        if now >= deadline {
            // The runaway thread keeps the Arc alive and is abandoned.
            return CellOutcome::TimedOut { timeout: limit };
        }
        let (g, _) =
            condvar.wait_timeout(guard, deadline - now).unwrap_or_else(PoisonError::into_inner);
        guard = g;
    }
}

/// Runs one cell in the current thread, converting typed errors and
/// contained panics into outcomes.
pub(crate) fn execute_inline(cell: &ExperimentCell, registry: &EngineRegistry) -> CellOutcome {
    match catch_unwind(AssertUnwindSafe(|| cell.run_checked(registry))) {
        Ok(Ok(result)) => {
            let quarantined = result.quarantine.total();
            let oracle_mismatches = result.oracle.mismatches;
            if quarantined > 0 || oracle_mismatches > 0 {
                CellOutcome::Degraded { result: Box::new(result), quarantined, oracle_mismatches }
            } else {
                CellOutcome::Completed(Box::new(result))
            }
        }
        Ok(Err(e)) => CellOutcome::Failed(e),
        Err(payload) => CellOutcome::Panicked {
            message: panic_message(payload.as_ref()),
            backtrace_hint: BACKTRACE_HINT.to_string(),
        },
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_algos::traits::Algo;
    use tdgraph_engines::testutil::{FaultMode, FaultyEngine};
    use tdgraph_sim::SimConfig;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new()
            .datasets([Dataset::Amazon, Dataset::Dblp])
            .sizing(Sizing::Tiny)
            .engines([EngineKind::LigraO, EngineKind::TdGraphH])
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 1;
            })
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tdgraph-sweep-{}-{name}", std::process::id()))
    }

    #[test]
    fn expansion_covers_the_grid_in_stable_order() {
        let spec = tiny_spec()
            .algos([Algo::pagerank(), Algo::cc()])
            .alphas([0.005, 0.02])
            .batch_sizes([128]);
        assert_eq!(spec.cell_count(), (2 * 2 * 2) * 2);
        let cells = spec.expand();
        assert_eq!(cells.len(), spec.cell_count());
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Outermost axis is the algorithm, innermost the α override.
        assert_eq!(cells[0].algo.label(), "PageRank");
        assert_eq!(cells[0].options.alpha, 0.005);
        assert_eq!(cells[1].options.alpha, 0.02);
        assert_eq!(cells[8].algo.label(), "CC");
        assert!(cells.iter().all(|c| c.options.batch_size == Some(128)));
    }

    #[test]
    fn unset_axes_inherit_base_options() {
        let cells = tiny_spec().expand();
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert_eq!(c.options.seed, RunConfig::default().seed);
            assert_eq!(c.options.alpha, RunConfig::default().alpha);
            assert_eq!(c.algo, AlgoSel::HubSssp);
        }
    }

    #[test]
    fn runner_runs_and_verifies_in_parallel() {
        let events: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = Arc::clone(&events);
        let report = SweepRunner::new()
            .threads(2)
            .trace_sink(move |e: &TraceEvent| sink.lock().unwrap().push(e.to_json_line()))
            .run(&tiny_spec());
        assert_eq!(report.len(), 4);
        report.assert_all_verified();
        assert_eq!(report.outcome_counts().completed, 4);
        // Stable order: report order equals expansion order.
        for (i, c) in report.cells.iter().enumerate() {
            assert_eq!(c.cell.index, i);
        }
        let events = events.lock().unwrap();
        assert!(events[0].contains("sweep_started"));
        assert!(events.last().unwrap().contains("sweep_finished"));
        assert!(events.last().unwrap().contains("\"failed\":0"));
        assert_eq!(events.iter().filter(|e| e.contains("cell_finished")).count(), 4);
        for e in events.iter() {
            assert!(e.starts_with('{') && e.ends_with('}'), "not a JSON line: {e}");
        }
    }

    #[test]
    fn trace_sinks_receive_every_progress_event() {
        let sink = Arc::new(tdgraph_obs::VecSink::new());
        let report = SweepRunner::new().threads(2).trace_sink(Arc::clone(&sink)).run(&tiny_spec());
        report.assert_all_verified();
        let events = sink.events();
        // sweep_started + 4 × (cell_started + cell_finished) + sweep_finished.
        assert_eq!(events.len(), 10);
        assert_eq!(events[0].name(), "sweep_started");
        assert_eq!(events.last().unwrap().name(), "sweep_finished");
        assert_eq!(events.iter().filter(|e| e.name() == "cell_finished").count(), 4);
        // The sink's canonical lines carry the cell coordinates but no
        // schedule-dependent wall-clock fields.
        for e in &events {
            assert!(!e.canonical_json_line().contains("wall_micros"), "{e:?}");
        }
        // A closure sink and a `VecSink` observe the same event stream: a
        // serial run delivers identical canonical lines to both.
        let cb_lines: Arc<Mutex<Vec<String>>> = Arc::default();
        let cb = Arc::clone(&cb_lines);
        let sink2 = Arc::new(tdgraph_obs::VecSink::new());
        SweepRunner::new()
            .threads(1)
            .trace_sink(move |e: &TraceEvent| cb.lock().unwrap().push(e.canonical_json_line()))
            .trace_sink(Arc::clone(&sink2))
            .run(&tiny_spec())
            .assert_all_verified();
        assert_eq!(*cb_lines.lock().unwrap(), sink2.canonical_lines());
    }

    #[test]
    fn observe_collects_a_deterministic_merged_snapshot() {
        let spec = tiny_spec();
        let one = SweepRunner::new().threads(1).observe(true).run(&spec);
        let four = SweepRunner::new().threads(4).observe(true).run(&spec);
        let a = one.obs.expect("observe(true) fills the snapshot");
        let b = four.obs.expect("observe(true) fills the snapshot");
        assert_eq!(a, b);
        assert_eq!(a.canonical_json_line(), b.canonical_json_line());
        assert_eq!(a.counter(keys::RUN_BATCHES), 4);
        assert!(a.counter(keys::EDGES_PROCESSED) > 0);
        assert!(a.counter(keys::RUN_CYCLES) > 0);
        // Unobserved runs carry no snapshot.
        assert!(SweepRunner::new().run(&spec).obs.is_none());
    }

    #[test]
    fn resumed_sweep_restores_headline_counters_into_obs() {
        let path = temp_path("resume-obs.jsonl");
        let _ = std::fs::remove_file(&path);
        let spec = tiny_spec();
        let first = SweepRunner::new().threads(2).observe(true).checkpoint_to(&path).run(&spec);
        let resumed =
            SweepRunner::new().threads(2).observe(true).run(&spec.clone().resume_from(&path));
        assert_eq!(resumed.outcome_counts().restored, 4);
        let a = first.obs.expect("observed");
        let b = resumed.obs.expect("observed");
        for key in [
            keys::RUN_CYCLES,
            keys::RUN_BATCHES,
            keys::STATE_WRITES,
            keys::USEFUL_UPDATES,
            keys::EDGES_PROCESSED,
            keys::DRAM_BYTES,
        ] {
            assert_eq!(a.counter(key), b.counter(key), "counter {key} diverged across resume");
        }
        for phase in [keys::PHASE_PROPAGATION, keys::PHASE_OTHER] {
            assert_eq!(
                a.phase(phase).map(|p| p.cycles),
                b.phase(phase).map(|p| p.cycles),
                "phase {phase} diverged across resume"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn map_preserves_input_order() {
        let runner = SweepRunner::new().threads(4);
        let items: Vec<usize> = (0..64).collect();
        let out = runner.map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_named_engine_is_a_per_cell_failure() {
        let spec = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine_named("warp-drive");
        let report = SweepRunner::new().run(&spec);
        assert_eq!(report.len(), 1);
        assert!(!report.all_ok());
        assert_eq!(report.outcome_counts().failed, 1);
        match &report.cells[0].outcome {
            CellOutcome::Failed(TdgraphError::Engine(e)) => {
                assert!(e.to_string().contains("warp-drive"));
            }
            other => panic!("expected a typed engine failure, got {other:?}"),
        }
        let digest = report.failure_digest();
        assert!(digest.contains("warp-drive") && digest.contains("not registered"), "{digest}");
    }

    #[test]
    #[should_panic(expected = "sweep had failures")]
    fn assert_all_ok_panics_with_the_digest() {
        let spec = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine_named("warp-drive");
        SweepRunner::new().run(&spec).assert_all_ok();
    }

    #[test]
    fn engine_panics_are_contained_per_cell() {
        let mut registry = EngineRegistry::with_software();
        registry.register("boom", || Box::new(FaultyEngine::new(FaultMode::PanicOnBatch(0))));
        let spec = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine_named("ligra-o")
            .engine_named("boom")
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 1;
            });
        let report = SweepRunner::new().threads(2).registry(registry).run(&spec);
        assert_eq!(report.len(), 2, "the panicking cell must not take the sweep down");
        assert!(report.cells[0].is_verified());
        match &report.cells[1].outcome {
            CellOutcome::Panicked { message, backtrace_hint } => {
                assert!(message.contains("injected fault"), "{message}");
                assert!(backtrace_hint.contains("RUST_BACKTRACE=1"));
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
        // Failure lines are canonical too (outcome-tagged).
        let lines = report.canonical_lines();
        assert!(lines.contains("\"outcome\":\"panicked\""), "{lines}");
    }

    #[test]
    fn watchdog_times_out_a_wedged_cell() {
        let mut registry = EngineRegistry::with_software();
        registry.register("sleeper", || {
            Box::new(FaultyEngine::new(FaultMode::SleepOnBatch(0, Duration::from_secs(20))))
        });
        let spec = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine_named("sleeper")
            .engine_named("ligra-o")
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 1;
            });
        let report = SweepRunner::new()
            .threads(1)
            .registry(registry)
            .cell_timeout(Duration::from_millis(200))
            .run(&spec);
        assert_eq!(report.len(), 2, "the wedged cell must not block the sweep");
        assert!(
            matches!(report.cells[0].outcome, CellOutcome::TimedOut { .. }),
            "got {:?}",
            report.cells[0].outcome
        );
        // The cell scheduled after the wedge still ran to completion on
        // the same worker.
        assert!(report.cells[1].is_verified());
        assert_eq!(report.outcome_counts().timed_out, 1);
    }

    #[test]
    fn retry_once_recovers_a_transient_fault_byte_identically() {
        // An engine that panics on its first construction only — the
        // deterministic stand-in for a transient environmental fault.
        let make_registry = |poison_first: bool| {
            let mut registry = EngineRegistry::with_software();
            let builds = Arc::new(AtomicUsize::new(0));
            registry.register("flaky", move || {
                if poison_first && builds.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected fault: first build fails");
                }
                Box::new(FaultyEngine::new(FaultMode::None))
            });
            registry
        };
        let spec = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine_named("flaky")
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 1;
            });
        let flaky =
            SweepRunner::new().threads(1).registry(make_registry(true)).retry_once(true).run(&spec);
        flaky.assert_all_verified();
        assert_eq!(flaky.cells[0].retries, 1);
        assert_eq!(flaky.total_retries(), 1);

        let clean = SweepRunner::new().threads(1).registry(make_registry(false)).run(&spec);
        assert_eq!(flaky.canonical_lines(), clean.canonical_lines());
    }

    #[test]
    fn checkpoint_then_resume_restores_byte_identically() {
        let path = temp_path("resume-unit.jsonl");
        let _ = std::fs::remove_file(&path);
        let spec = tiny_spec();

        let first = SweepRunner::new().threads(2).checkpoint_to(&path).run(&spec);
        first.assert_all_verified();
        assert_eq!(first.checkpoint_write_errors, 0);

        let resumed = SweepRunner::new().threads(2).run(&spec.clone().resume_from(&path));
        assert_eq!(resumed.outcome_counts().restored, 4);
        resumed.assert_all_verified();
        assert_eq!(first.canonical_lines(), resumed.canonical_lines());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_mismatched_checkpoint() {
        let path = temp_path("resume-mismatch.jsonl");
        let _ = std::fs::remove_file(&path);
        let first = SweepRunner::new().checkpoint_to(&path).run(&tiny_spec());
        first.assert_all_ok();

        // A different grid at the same path must be refused, not mixed in.
        let other = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine(EngineKind::LigraO)
            .seeds([1, 2, 3, 4])
            .resume_from(&path);
        let err = SweepRunner::new().try_run(&other).unwrap_err();
        assert!(
            matches!(err, TdgraphError::Checkpoint(CheckpointError::SpecMismatch { .. })),
            "got {err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// One AZ Tiny TDGraph-H hub-SSSP cell on the test machine.
    fn probe_spec() -> SweepSpec {
        SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine(EngineKind::TdGraphH)
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 1;
            })
    }

    #[test]
    fn resume_rejects_a_checkpoint_written_under_other_run_options() {
        let path = temp_path("resume-options.jsonl");
        let _ = std::fs::remove_file(&path);
        let small = probe_spec().batch_sizes([64]);
        SweepRunner::new().checkpoint_to(&path).run(&small).assert_all_ok();

        // Same coordinates, other batch size: restoring the 64-update
        // record here would report another run's cycles.
        let large = probe_spec().batch_sizes([512]).resume_from(&path);
        let err = SweepRunner::new().try_run(&large).unwrap_err();
        assert!(
            matches!(err, TdgraphError::Checkpoint(CheckpointError::SpecMismatch { .. })),
            "got {err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_serial_checkpoint_resumes_under_sharding() {
        let path = temp_path("resume-sharded.jsonl");
        let _ = std::fs::remove_file(&path);
        let serial = SweepRunner::new().checkpoint_to(&path).run(&probe_spec());
        serial.assert_all_ok();

        let sharded = probe_spec().tune(|o| o.exec = ExecConfig::serial().shards(2));
        let resumed = SweepRunner::new().try_run(&sharded.resume_from(&path)).unwrap();
        assert_eq!(resumed.outcome_counts().restored, 1);
        assert_eq!(resumed.canonical_lines(), serial.canonical_lines());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_resume_file_is_a_fresh_start() {
        let path = temp_path("resume-missing.jsonl");
        let _ = std::fs::remove_file(&path);
        let spec = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine(EngineKind::LigraO)
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 1;
            })
            .resume_from(&path);
        let report = SweepRunner::new().run(&spec);
        assert_eq!(report.outcome_counts().restored, 0);
        report.assert_all_verified();
    }

    #[test]
    fn custom_kind_cells_keep_their_configuration() {
        use tdgraph_accel::tdgraph::TdGraphConfig;
        let cfg = TdGraphConfig { vscu_enabled: false, ..TdGraphConfig::default() };
        let spec = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine(EngineKind::TdGraphCustom(cfg))
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 1;
            });
        let report = SweepRunner::new().run(&spec);
        report.assert_all_verified();
        // The cell's config survives key-based resolution: disabling the
        // VSCU must not fall back to the default ("TDGraph-H") build.
        assert_eq!(report.cells[0].metrics().unwrap().engine, "TDGraph-H-without");
    }

    #[test]
    fn fault_and_oracle_axes_expand_innermost() {
        let spec = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine(EngineKind::LigraO)
            .fault_plans([FaultPlan::none(), FaultPlan::seeded(1).with_nan_weights(0.5)])
            .oracle_modes([OracleMode::Final, OracleMode::EveryNBatches(1)]);
        assert_eq!(spec.cell_count(), 4);
        let cells = spec.expand();
        assert_eq!(cells.len(), 4);
        // Innermost axis is the oracle mode, then the fault plan.
        assert!(cells[0].options.fault_plan.is_noop());
        assert_eq!(cells[0].options.oracle, OracleMode::Final);
        assert_eq!(cells[1].options.oracle, OracleMode::EveryNBatches(1));
        assert!(!cells[2].options.fault_plan.is_noop());
        // Unset chaos axes inherit the base options.
        let plain = tiny_spec().expand();
        assert!(plain.iter().all(|c| c.options.fault_plan.is_noop()));
        assert!(plain.iter().all(|c| c.options.oracle == OracleMode::Final));
        assert!(plain.iter().all(|c| c.options.ingest == IngestMode::Strict));
    }

    #[test]
    fn lenient_chaos_cells_degrade_with_evidence() {
        let sink = Arc::new(tdgraph_obs::VecSink::new());
        let spec = tiny_spec()
            .ingest(IngestMode::Lenient)
            .fault_plans([FaultPlan::seeded(5).with_absent_deletions(1.0)]);
        let report = SweepRunner::new().threads(2).trace_sink(Arc::clone(&sink)).run(&spec);
        report.assert_all_ok();
        let counts = report.outcome_counts();
        assert_eq!(counts.degraded, 4, "every cell must degrade, not fail: {counts:?}");
        assert_eq!(counts.not_ok(), 0);
        for c in &report.cells {
            let r = c.run_result().expect("degraded cells carry their result");
            assert!(!r.quarantine.is_empty());
            assert!(c.is_verified(), "surviving updates still verify");
        }
        let digest = report.degradation_digest();
        assert!(digest.contains("4 of 4 cells degraded"), "{digest}");
        assert!(digest.contains("absent_deletion"), "{digest}");
        assert_eq!(
            sink.events().iter().filter(|e| e.name() == "cell_degraded").count(),
            4,
            "degraded cells emit their own progress event"
        );
        let lines = report.canonical_lines();
        assert!(lines.contains("\"outcome\":\"degraded\""), "{lines}");
        assert!(lines.contains("\"quarantined\":"), "{lines}");
    }

    #[test]
    fn strict_chaos_cells_fail_instead_of_degrading() {
        let spec = tiny_spec().fault_plans([FaultPlan::seeded(5).with_absent_deletions(1.0)]);
        let report = SweepRunner::new().threads(1).run(&spec);
        assert_eq!(report.outcome_counts().failed, 4);
        assert_eq!(report.outcome_counts().degraded, 0);
        assert!(report.degradation_digest().is_empty());
    }

    #[test]
    fn degraded_sweep_is_byte_identical_across_thread_counts() {
        let spec = tiny_spec()
            .ingest(IngestMode::Lenient)
            .fault_plans([FaultPlan::seeded(9).with_absent_deletions(1.0).with_nan_weights(0.4)]);
        let one = SweepRunner::new().threads(1).run(&spec);
        let two = SweepRunner::new().threads(2).run(&spec);
        assert_eq!(one.canonical_lines(), two.canonical_lines());
        assert_eq!(one.degradation_digest(), two.degradation_digest());
    }

    #[test]
    fn noop_fault_plan_matches_the_plain_sweep_byte_for_byte() {
        let plain = SweepRunner::new().threads(2).run(&tiny_spec());
        let chaos_control = SweepRunner::new()
            .threads(2)
            .run(&tiny_spec().ingest(IngestMode::Lenient).fault_plans([FaultPlan::none()]));
        assert_eq!(plain.canonical_lines(), chaos_control.canonical_lines());
        assert_eq!(chaos_control.outcome_counts().degraded, 0);
    }

    #[test]
    fn custom_registry_engines_run_by_name() {
        let mut registry = EngineRegistry::with_software();
        registry.register("my-ligra", || Box::new(tdgraph_engines::ligra_o::LigraO));
        let spec = SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engine_named("my-ligra")
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 1;
            });
        let report = SweepRunner::new().registry(registry).run(&spec);
        assert_eq!(report.len(), 1);
        report.assert_all_verified();
        assert_eq!(report.cells[0].metrics().unwrap().engine, "Ligra-o");
    }
}

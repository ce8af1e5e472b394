//! An open streaming run: the per-batch core the harness loop and the
//! ingest service both drive.
//!
//! [`StreamingSession`] owns everything a run accumulates between batches
//! — the mutable graph, the simulated machine, the incremental algorithm
//! state, counters, quarantine and oracle evidence. Callers push batches
//! at it one at a time ([`StreamingSession::ingest_batch`] /
//! [`StreamingSession::ingest_entries`]) and close it with
//! [`StreamingSession::finish`], which performs the final verification
//! and metric export exactly as the one-shot harness entry points always
//! did. The offline composer loop (`RunConfig::run`) and the live
//! continuous-ingest service (`tdgraph-serve`) are both thin drivers over
//! this type, which is what makes record/replay byte-identical: the same
//! entry sequence hits the same code in the same order either way.

use tdgraph_algos::incremental::{seed_after_batch, AlgoState};
use tdgraph_algos::scratch::{out_mass, solve};
use tdgraph_algos::traits::Algo;
use tdgraph_algos::verify::{compare, VerifyOutcome};
use tdgraph_graph::csr::Csr;
use tdgraph_graph::datasets::StreamingWorkload;
use tdgraph_graph::partition::{partition_by_edges, ShardPlan};
use tdgraph_graph::quarantine::{IngestMode, QuarantineReason, QuarantineReport};
use tdgraph_graph::store::GraphStore;
use tdgraph_graph::streaming::StreamingGraph;
use tdgraph_graph::types::Edge;
use tdgraph_graph::update::{EdgeUpdate, UpdateBatch};
use tdgraph_graph::wire::RecordedEntry;
use tdgraph_obs::{keys, MemoryRecorder, Recorder, TraceEvent};
use tdgraph_sim::address::AddressSpace;
use tdgraph_sim::energy::{EnergyBreakdown, EnergyConstants};
use tdgraph_sim::exec::ExecPipelineReport;
use tdgraph_sim::machine::Machine;
use tdgraph_sim::stats::{Actor, Op, PhaseKind};

use crate::config::{OracleMode, RunConfig};
use crate::ctx::{BatchCtx, MachineTap};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::metrics::{RunMetrics, UpdateCounters};

/// One mid-run oracle comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleCheck {
    /// 1-based batch count at which the comparison ran.
    pub batch: u64,
    /// What the comparison found.
    pub outcome: VerifyOutcome,
}

/// Bounded cap on retained mid-run mismatch records.
const ORACLE_RECORD_CAP: usize = 8;

/// Accounting of every mid-run oracle comparison
/// ([`OracleMode::EveryNBatches`]); empty under `Off` / `Final`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleSummary {
    /// Comparisons performed mid-run.
    pub checks: u64,
    /// Comparisons that found a mismatch.
    pub mismatches: u64,
    /// First few mismatching comparisons (bounded).
    pub records: Vec<OracleCheck>,
}

impl OracleSummary {
    fn record(&mut self, batch: u64, outcome: &VerifyOutcome) {
        self.checks += 1;
        if !outcome.is_match() {
            self.mismatches += 1;
            if self.records.len() < ORACLE_RECORD_CAP {
                self.records.push(OracleCheck { batch, outcome: outcome.clone() });
            }
        }
    }
}

/// The observability counter key for one quarantine reason.
#[must_use]
pub fn quarantine_key(reason: QuarantineReason) -> &'static str {
    match reason {
        QuarantineReason::MalformedLine => keys::QUARANTINE_MALFORMED_LINE,
        QuarantineReason::IdOverflow => keys::QUARANTINE_ID_OVERFLOW,
        QuarantineReason::IoInterrupted => keys::QUARANTINE_IO_INTERRUPTED,
        QuarantineReason::SelfLoop => keys::QUARANTINE_SELF_LOOP,
        QuarantineReason::ConflictingUpdate => keys::QUARANTINE_CONFLICTING_UPDATE,
        QuarantineReason::NonFiniteWeight => keys::QUARANTINE_NON_FINITE_WEIGHT,
        QuarantineReason::VertexOutOfBounds => keys::QUARANTINE_VERTEX_OUT_OF_BOUNDS,
        QuarantineReason::AbsentDeletion => keys::QUARANTINE_ABSENT_DELETION,
        QuarantineReason::TruncatedLine => keys::QUARANTINE_TRUNCATED_LINE,
        // `QuarantineReason` is non_exhaustive; reasons added later roll
        // up under one key instead of breaking this consumer.
        _ => keys::QUARANTINE_OTHER,
    }
}

/// Result of a streaming run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Collected metrics.
    pub metrics: RunMetrics,
    /// Oracle comparison of the final states ([`VerifyOutcome::Skipped`]
    /// under [`OracleMode::Off`]).
    pub verify: VerifyOutcome,
    /// Everything lenient ingest quarantined (empty under strict ingest).
    pub quarantine: QuarantineReport,
    /// Mid-run differential-oracle accounting.
    pub oracle: OracleSummary,
    /// Host-side pipeline timing and boundary-event volumes of a sharded
    /// run (`None` for serial runs). Wall-clock, so deliberately outside
    /// every deterministic surface — [`RunMetrics`] never reads it.
    pub exec: Option<ExecPipelineReport>,
}

/// An open streaming run over one workload.
///
/// Create with [`StreamingSession::new`], feed batches with
/// [`StreamingSession::ingest_batch`] (raw updates) or
/// [`StreamingSession::ingest_entries`] (a recorded wire batch, malformed
/// lines included), then [`StreamingSession::finish`]. The per-batch work
/// is byte-for-byte the loop body the one-shot harness entry points have
/// always run — extracting it into a type is what lets the continuous
/// service and offline replay share it.
pub struct StreamingSession {
    cfg: RunConfig,
    algo: Algo,
    store: StreamingGraph,
    machine: Machine,
    state: AlgoState,
    counters: UpdateCounters,
    useful_total: u64,
    batches_done: u64,
    states_before: Vec<f32>,
    final_snapshot: Csr,
    quarantine: QuarantineReport,
    oracle_summary: OracleSummary,
    batch_size: usize,
    pending: Vec<Edge>,
}

impl StreamingSession {
    /// Opens a session: validates `cfg`, lays out the address space,
    /// builds the machine, and computes the initial fixed point (not
    /// charged — the paper measures per-batch incremental processing, not
    /// the cold start).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidOptions`] or [`EngineError::Sim`] if `cfg`
    /// fails validation.
    pub fn new(
        algo: Algo,
        workload: StreamingWorkload,
        cfg: RunConfig,
    ) -> Result<Self, EngineError> {
        cfg.validate()?;
        let batch_size = cfg.batch_size.unwrap_or(workload.default_batch_size());
        let StreamingWorkload { graph, pending, .. } = workload;
        let n = graph.vertex_count();
        let edge_capacity = graph.edge_count() + pending.len();
        let coalesced = ((n as f64 * cfg.alpha).ceil() as usize).max(16);
        let layout = AddressSpace::layout(n, edge_capacity, coalesced);

        let snapshot = graph.snapshot();
        let machine = if cfg.exec.is_sharded() {
            // One static, edge-balanced shard plan from the initial
            // snapshot: replay shards keep their private caches for the
            // whole run, so the grouping must not change per batch.
            let chunks = partition_by_edges(&snapshot, cfg.sim.cores * cfg.chunks_per_core);
            let plan = ShardPlan::balanced(&chunks, cfg.sim.cores, cfg.exec.replay_shards());
            Machine::with_exec_config(cfg.sim.clone(), layout, cfg.exec, &plan)
        } else {
            Machine::new(cfg.sim.clone(), layout)
        };
        let state = AlgoState::from_solution(solve(&algo, &snapshot), n);

        Ok(Self {
            cfg,
            algo,
            store: graph,
            machine,
            state,
            counters: UpdateCounters::new(n),
            useful_total: 0,
            batches_done: 0,
            states_before: Vec::new(),
            final_snapshot: snapshot,
            quarantine: QuarantineReport::new(),
            oracle_summary: OracleSummary::default(),
            batch_size,
            pending,
        })
    }

    /// Takes the workload's pending additions (for a composer-driven run).
    /// Subsequent calls return an empty vector.
    pub fn take_pending(&mut self) -> Vec<Edge> {
        std::mem::take(&mut self.pending)
    }

    /// The edges currently present in the mutable graph (composer input,
    /// in the buffer order [`GraphStore::edges_vec`] documents).
    #[must_use]
    pub fn present_edges(&self) -> Vec<Edge> {
        self.store.edges_vec()
    }

    /// Number of vertices the session's graph was laid out for.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.store.num_vertices()
    }

    /// The effective per-batch update target (explicit
    /// [`RunConfig::batch_size`] or the workload's scaled default).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Batches processed so far (batches whose raw update list was empty
    /// are skipped, not counted).
    #[must_use]
    pub fn batches_done(&self) -> u64 {
        self.batches_done
    }

    /// Quarantine evidence accumulated so far.
    #[must_use]
    pub fn quarantine(&self) -> &QuarantineReport {
        &self.quarantine
    }

    /// Quarantines one malformed wire line (lenient front door for lines
    /// that never parsed into an [`EdgeUpdate`]).
    pub fn quarantine_malformed(&mut self, detail: &str) {
        self.quarantine.record(QuarantineReason::MalformedLine, None, detail);
    }

    /// Quarantines one truncated wire fragment (a line cut by connection
    /// loss or a torn write at a crash) without running the engine.
    pub fn quarantine_truncated(&mut self, detail: &str) {
        self.quarantine.record(QuarantineReason::TruncatedLine, None, detail);
    }

    /// Ingests one recorded wire batch: malformed lines are quarantined in
    /// arrival order, then the surviving updates run as one batch. Both
    /// the live service and offline replay call exactly this, which is the
    /// determinism contract.
    ///
    /// # Errors
    ///
    /// Same as [`StreamingSession::ingest_batch`].
    pub fn ingest_entries<E: Engine + ?Sized>(
        &mut self,
        engine: &mut E,
        entries: &[RecordedEntry],
        recorder: &mut dyn Recorder,
    ) -> Result<(), EngineError> {
        let mut updates = Vec::with_capacity(entries.len());
        for entry in entries {
            match entry {
                RecordedEntry::Malformed(detail) => self.quarantine_malformed(detail),
                RecordedEntry::Truncated(detail) => self.quarantine_truncated(detail),
                RecordedEntry::Update(u) => updates.push(*u),
            }
        }
        self.ingest_batch(engine, updates, recorder)
    }

    /// Runs one update batch through the full per-batch pipeline: validate
    /// (strict or lenient per [`RunConfig::ingest`]), apply to the graph,
    /// seed the incremental computation ("other" time), hand the affected
    /// set to `engine` (propagation time), classify useful work, and run
    /// the mid-run differential oracle when due. An empty `raw` vector is
    /// a no-op (a latency deadline can close a batch holding only
    /// quarantined lines; no simulated work happens for it).
    ///
    /// # Errors
    ///
    /// [`EngineError::Graph`] under strict ingest when the batch fails
    /// validation or application.
    pub fn ingest_batch<E: Engine + ?Sized>(
        &mut self,
        engine: &mut E,
        raw: Vec<EdgeUpdate>,
        recorder: &mut dyn Recorder,
    ) -> Result<(), EngineError> {
        if raw.is_empty() {
            return Ok(());
        }
        let batch = match self.cfg.ingest {
            IngestMode::Strict => UpdateBatch::from_updates(raw)?,
            IngestMode::Lenient => UpdateBatch::from_updates_lenient(raw, &mut self.quarantine),
        };
        let applied = match self.cfg.ingest {
            IngestMode::Strict => self.store.apply_batch(&batch)?,
            IngestMode::Lenient => self.store.apply_batch_lenient(&batch, &mut self.quarantine),
        };
        let snapshot = self.store.snapshot();
        let transpose = snapshot.transpose();
        let chunks = partition_by_edges(&snapshot, self.cfg.sim.cores * self.cfg.chunks_per_core);
        let mass = out_mass(&self.algo, &snapshot);

        self.states_before.clear();
        self.states_before.extend_from_slice(&self.state.states);
        self.counters.reset_marks();

        // Batch application + seeding: "other" time.
        recorder.span_enter(keys::PHASE_OTHER);
        self.machine.compute(0, Actor::Core, Op::ScheduleOp, batch.len() as u64 * 2);
        let affected = {
            let mut tap = MachineTap::new(&mut self.machine, &chunks);
            seed_after_batch(&self.algo, &snapshot, &transpose, &mut self.state, &applied, &mut tap)
        };
        let other_cycles = self.machine.end_phase_synced(PhaseKind::Other);
        recorder.span_exit(keys::PHASE_OTHER, other_cycles);

        // Engine propagation. The batch's update counts reach `recorder`
        // once, inside the span: the growth of the session's totals, sent
        // only when non-zero so a batch without work adds no key.
        recorder.span_enter(keys::PHASE_PROPAGATION);
        let before = (self.counters.total_writes(), self.counters.edges_processed());
        let mut ctx = BatchCtx {
            machine: &mut self.machine,
            graph: &snapshot,
            transpose: &transpose,
            algo: self.algo,
            state: &mut self.state,
            chunks: &chunks,
            counters: &mut self.counters,
            out_mass: &mass,
            alpha: self.cfg.alpha,
        };
        engine.process_batch(&mut ctx, &affected);
        for (key, delta) in [
            (keys::STATE_WRITES, self.counters.total_writes() - before.0),
            (keys::EDGES_PROCESSED, self.counters.edges_processed() - before.1),
        ] {
            if delta > 0 {
                recorder.counter(key, delta);
            }
        }
        let propagation_cycles = self.machine.end_phase_synced(PhaseKind::Propagation);
        recorder.span_exit(keys::PHASE_PROPAGATION, propagation_cycles);

        // Classify this batch's updates.
        let changed: Vec<bool> = self
            .state
            .states
            .iter()
            .zip(&self.states_before)
            .map(|(&a, &b)| {
                if a.is_infinite() && b.is_infinite() {
                    false
                } else {
                    (a - b).abs() > f32::EPSILON * (1.0 + b.abs())
                }
            })
            .collect();
        let (useful, _useless) = self.counters.classify(&changed);
        self.useful_total += useful;
        self.batches_done += 1;

        // Mid-run differential oracle: solve from scratch on the current
        // snapshot and compare. A mismatch is evidence, not a failure —
        // it is recorded and emitted, and the run continues.
        if let OracleMode::EveryNBatches(every) = self.cfg.oracle {
            if self.batches_done.is_multiple_of(every as u64) {
                let oracle_states = solve(&self.algo, &snapshot);
                let outcome = compare(&self.algo, &self.state.states, &oracle_states.states);
                self.oracle_summary.record(self.batches_done, &outcome);
                if !outcome.is_match() {
                    recorder.event(
                        &TraceEvent::new("oracle_mismatch")
                            .field("batch", self.batches_done)
                            .field("algo", self.algo.name())
                            .field("detail", format!("{outcome:?}")),
                    );
                }
            }
        }

        self.final_snapshot = snapshot;
        Ok(())
    }

    /// Closes the run: final machine drain, energy rollup, final oracle
    /// verification, and the end-of-run totals export (to `recorder` live
    /// and to an internal snapshot the returned [`RunMetrics`] are read
    /// from — so traced and untraced runs report byte-identical numbers).
    #[must_use]
    pub fn finish<E: Engine + ?Sized>(
        mut self,
        engine: &E,
        recorder: &mut dyn Recorder,
    ) -> RunResult {
        self.machine.finish();
        let stats = self.machine.stats().clone();
        let dram_lines = self.machine.dram().total_bytes() / 64;
        let energy = EnergyBreakdown::from_stats(
            &stats,
            dram_lines,
            self.machine.total_cycles(),
            self.cfg.sim.freq_ghz,
            EnergyConstants::nominal(),
        );

        let verify = match self.cfg.oracle {
            OracleMode::Off => VerifyOutcome::Skipped,
            OracleMode::EveryNBatches(_) | OracleMode::Final => {
                let oracle = solve(&self.algo, &self.final_snapshot);
                compare(&self.algo, &self.state.states, &oracle.states)
            }
        };

        // End-of-run totals: `updates.*` already reached `recorder` batch by
        // batch, so it only receives the remaining namespaces plus the
        // end-computed useful count; the internal recorder gets everything
        // and becomes the snapshot the metrics are read from.
        let machine = &self.machine;
        let quarantine = &self.quarantine;
        let oracle_summary = &self.oracle_summary;
        let useful_total = self.useful_total;
        let batches_done = self.batches_done;
        let algo = self.algo;
        let export_totals = |rec: &mut dyn Recorder| {
            stats.export_into(rec);
            energy.export_into(rec);
            rec.counter(keys::USEFUL_UPDATES, useful_total);
            rec.counter(keys::DRAM_BYTES, machine.dram().total_bytes());
            rec.counter(keys::DRAM_READS, machine.dram().total_reads());
            rec.counter(keys::RUN_CYCLES, machine.total_cycles());
            rec.counter(keys::RUN_BATCHES, batches_done);
            rec.label(keys::RUN_ENGINE, engine.name());
            rec.label(keys::RUN_ALGO, algo.name());
            // Degradation counters only exist when something degraded, so a
            // clean run's snapshot stays byte-identical to the pre-chaos era.
            if !quarantine.is_empty() {
                rec.counter(keys::QUARANTINE_TOTAL, quarantine.total());
                for (reason, count) in quarantine.counts() {
                    rec.counter(quarantine_key(reason), count);
                }
            }
            if oracle_summary.checks > 0 {
                rec.counter(keys::ORACLE_CHECKS, oracle_summary.checks);
                rec.counter(keys::ORACLE_MISMATCHES, oracle_summary.mismatches);
            }
        };
        export_totals(recorder);

        let mut mem = MemoryRecorder::new();
        export_totals(&mut mem);
        self.counters.export_into(&mut mem);
        mem.span_exit(keys::PHASE_PROPAGATION, self.machine.breakdown().propagation_cycles);
        mem.span_exit(keys::PHASE_OTHER, self.machine.breakdown().other_cycles);

        let metrics = RunMetrics::from_snapshot(&mem.into_snapshot());
        let exec = self.machine.exec_report().cloned();
        RunResult {
            metrics,
            verify,
            quarantine: self.quarantine,
            oracle: self.oracle_summary,
            exec,
        }
    }
}

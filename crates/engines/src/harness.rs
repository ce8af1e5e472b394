//! The streaming-run harness.
//!
//! The §4.1 methodology — load 50 % of the edges, compute the initial
//! fixed point, stream batches of mixed updates, verify against the
//! from-scratch oracle — lives in two places: the
//! [`crate::config::RunConfig`] builder (options + entry points) and
//! [`crate::session::StreamingSession`] (the per-batch core). This module
//! re-exports both so `harness::` paths keep working.

pub use crate::config::{OracleMode, RunConfig, RunSource};
pub use crate::session::{quarantine_key, OracleCheck, OracleSummary, RunResult, StreamingSession};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::BatchCtx;
    use crate::engine::Engine;
    use crate::error::EngineError;
    use crate::ligra_o::LigraO;
    use tdgraph_algos::traits::Algo;
    use tdgraph_algos::verify::VerifyOutcome;
    use tdgraph_graph::datasets::{Dataset, Sizing, StreamingWorkload};
    use tdgraph_graph::fault::FaultPlan;
    use tdgraph_graph::quarantine::{IngestMode, QuarantineReason};
    use tdgraph_graph::types::VertexId;
    use tdgraph_obs::{keys, MemoryRecorder, Recorder, TraceEvent};
    use tdgraph_sim::exec::ExecConfig;

    fn amazon_tiny(cfg: &RunConfig) -> Result<RunResult, EngineError> {
        cfg.run(&mut LigraO, Algo::sssp(0), (Dataset::Amazon, Sizing::Tiny))
    }

    #[test]
    fn ligra_o_runs_and_verifies_on_all_algorithms() {
        for algo in [Algo::sssp(0), Algo::cc(), Algo::pagerank(), Algo::adsorption()] {
            let res =
                RunConfig::small().run(&mut LigraO, algo, (Dataset::Amazon, Sizing::Tiny)).unwrap();
            assert!(res.verify.is_match(), "{} failed verification: {:?}", algo.name(), res.verify);
            assert!(res.metrics.cycles > 0);
            assert_eq!(res.metrics.batches, 2);
        }
    }

    #[test]
    fn metrics_are_internally_consistent() {
        let res = RunConfig::small()
            .run(&mut LigraO, Algo::sssp(0), (Dataset::Dblp, Sizing::Tiny))
            .unwrap();
        let m = &res.metrics;
        assert_eq!(m.cycles, m.propagation_cycles + m.other_cycles);
        assert!(m.useful_updates <= m.state_updates);
        assert!((0.0..=1.0).contains(&m.llc_miss_rate));
        assert!((0.0..=1.0).contains(&m.useful_state_ratio));
    }

    #[test]
    fn deletion_heavy_batches_verify() {
        let cfg = RunConfig::small().with_add_fraction(0.2);
        for algo in [Algo::sssp(0), Algo::cc(), Algo::pagerank()] {
            let res = cfg.run(&mut LigraO, algo, (Dataset::Amazon, Sizing::Tiny)).unwrap();
            assert!(
                res.verify.is_match(),
                "{} deletion-heavy failed: {:?}",
                algo.name(),
                res.verify
            );
        }
    }

    #[test]
    fn out_of_range_alpha_is_a_typed_error() {
        for alpha in [-0.5, 0.0, f64::NAN, 2.0] {
            let err = amazon_tiny(&RunConfig::small().with_alpha(alpha)).unwrap_err();
            assert!(matches!(err, EngineError::InvalidOptions { .. }), "{alpha}: got {err}");
            assert!(err.to_string().contains("alpha"), "{alpha}: {err}");
        }
        RunConfig::small().with_alpha(1.0).validate().unwrap();
    }

    #[test]
    fn out_of_range_add_fraction_is_a_typed_error() {
        let err = amazon_tiny(&RunConfig::small().with_add_fraction(1.5)).unwrap_err();
        assert!(matches!(err, EngineError::InvalidOptions { .. }), "got {err}");
        assert!(err.to_string().contains("add_fraction"));
    }

    #[test]
    fn invalid_machine_config_is_a_typed_error() {
        let mut cfg = RunConfig::small();
        cfg.sim.mesh_dim = 1; // cannot host 4 cores
        let err = amazon_tiny(&cfg).unwrap_err();
        assert!(matches!(err, EngineError::Sim(_)), "got {err}");
    }

    #[test]
    fn zero_oracle_cadence_is_a_typed_error() {
        let err =
            amazon_tiny(&RunConfig::small().with_oracle(OracleMode::EveryNBatches(0))).unwrap_err();
        assert!(matches!(err, EngineError::InvalidOptions { .. }), "got {err}");
    }

    #[test]
    fn oracle_off_skips_final_verification() {
        let res = amazon_tiny(&RunConfig::small().with_oracle(OracleMode::Off)).unwrap();
        assert_eq!(res.verify, VerifyOutcome::Skipped);
        assert_eq!(res.oracle.checks, 0);
        assert!(res.quarantine.is_empty());
    }

    #[test]
    fn mid_run_oracle_checks_every_batch() {
        let res =
            amazon_tiny(&RunConfig::small().with_oracle(OracleMode::EveryNBatches(1))).unwrap();
        assert_eq!(res.oracle.checks, res.metrics.batches);
        assert_eq!(res.oracle.mismatches, 0);
        assert!(res.verify.is_match());
    }

    #[test]
    fn strict_run_with_faults_is_a_typed_error() {
        let cfg =
            RunConfig::small().with_fault_plan(FaultPlan::seeded(3).with_absent_deletions(1.0));
        let err = amazon_tiny(&cfg).unwrap_err();
        assert!(matches!(err, EngineError::Graph(_)), "got {err}");
    }

    #[test]
    fn lenient_run_with_faults_degrades_with_evidence() {
        let cfg = RunConfig::small().with_ingest(IngestMode::Lenient).with_fault_plan(
            FaultPlan::seeded(3)
                .with_absent_deletions(1.0)
                .with_nan_weights(0.3)
                .with_out_of_range_ids(0.2),
        );
        let res = amazon_tiny(&cfg).unwrap();
        assert!(!res.quarantine.is_empty(), "armed faults must quarantine something");
        assert!(res.quarantine.count(QuarantineReason::AbsentDeletion) > 0);
        assert!(
            res.verify.is_match(),
            "surviving updates still verify against the oracle: {:?}",
            res.verify
        );
    }

    #[test]
    fn noop_fault_plan_under_lenient_matches_strict_run_exactly() {
        let run = |cfg: &RunConfig| {
            cfg.run(&mut LigraO, Algo::cc(), (Dataset::Amazon, Sizing::Tiny)).unwrap()
        };
        let strict = run(&RunConfig::small());
        let lenient = run(&RunConfig::small()
            .with_ingest(IngestMode::Lenient)
            .with_fault_plan(FaultPlan::none()));
        assert!(lenient.quarantine.is_empty());
        assert_eq!(format!("{:?}", lenient.metrics), format!("{:?}", strict.metrics));
        assert_eq!(lenient.verify, strict.verify);
    }

    #[test]
    fn shard_count_beyond_the_cores_is_a_typed_error() {
        // A machine of `cores` cores replays at most `shards(cores + 1)`:
        // one replay shard per core next to the dedicated reducer.
        let cores = RunConfig::small().sim.cores;
        let fits = RunConfig::small().with_exec(ExecConfig::serial().shards(cores + 1));
        fits.validate().unwrap();
        assert!(amazon_tiny(&fits).unwrap().verify.is_match());
        for shards in [cores + 2, 100_000, 1_099_511_627_777] {
            let cfg = RunConfig::small().with_exec(ExecConfig::serial().shards(shards));
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, EngineError::InvalidOptions { .. }), "{shards}: got {err}");
            assert!(err.to_string().contains("exec"), "{shards}: {err}");
            assert!(matches!(amazon_tiny(&cfg), Err(EngineError::InvalidOptions { .. })));
        }
    }

    #[test]
    fn sharded_run_matches_serial_byte_for_byte() {
        let serial = amazon_tiny(&RunConfig::small()).unwrap();
        assert!(serial.exec.is_none(), "serial runs carry no pipeline report");
        for exec in [
            ExecConfig::serial().shards(1),
            ExecConfig::serial().shards(2),
            ExecConfig::serial().shards(4),
        ] {
            let sharded = amazon_tiny(&RunConfig::small().with_exec(exec)).unwrap();
            assert_eq!(
                format!("{:?}", sharded.metrics),
                format!("{:?}", serial.metrics),
                "{} metrics diverge from serial",
                exec.label()
            );
            assert_eq!(sharded.verify, serial.verify);
            let report = sharded.exec.expect("sharded runs carry a pipeline report");
            assert_eq!(report.touch_bytes_raw, 8 * report.touch_events);
        }
    }

    #[test]
    fn every_software_engine_matches_serial_under_sharding() {
        // Engines with mid-batch `end_phase` sync points (GraphBolt, Dzig)
        // exercise the pipeline's multi-phase path; the rest the plain
        // path. All must be byte-identical to their serial runs.
        let registry = crate::registry::EngineRegistry::with_software();
        for key in crate::registry::SOFTWARE_KEYS {
            let mut engine = registry.build(key).expect("software engine registered");
            let serial = RunConfig::small()
                .run(&mut *engine, Algo::sssp(0), (Dataset::Amazon, Sizing::Tiny))
                .unwrap();
            let mut engine = registry.build(key).expect("software engine registered");
            let sharded = RunConfig::small()
                .with_exec(ExecConfig::serial().shards(2))
                .run(&mut *engine, Algo::sssp(0), (Dataset::Amazon, Sizing::Tiny))
                .unwrap();
            assert_eq!(
                format!("{:?}", sharded.metrics),
                format!("{:?}", serial.metrics),
                "{key}: sharded2 metrics diverge from serial"
            );
            assert_eq!(sharded.verify, serial.verify, "{key}: verification outcome diverges");
        }
    }

    #[test]
    fn sharded_observed_run_snapshot_matches_serial() {
        let run = |exec: ExecConfig| {
            let mut rec = MemoryRecorder::new();
            RunConfig::small()
                .with_exec(exec)
                .run_observed(
                    &mut LigraO,
                    Algo::pagerank(),
                    (Dataset::Amazon, Sizing::Tiny),
                    &mut rec,
                )
                .unwrap();
            // Wall-clock excluded: it is host time, not model output.
            rec.into_snapshot().canonical_json_line()
        };
        let serial = run(ExecConfig::serial());
        assert_eq!(serial, run(ExecConfig::serial().shards(2)));
        assert_eq!(serial, run(ExecConfig::serial().shards(4)));
    }

    /// Records the per-batch update counts a recorder receives, one list
    /// per propagation span; counts sent outside every span are tallied.
    #[derive(Default)]
    struct UpdateCalls {
        spans: Vec<Vec<(&'static str, u64)>>,
        open: bool,
        outside: usize,
    }

    impl Recorder for UpdateCalls {
        fn counter(&mut self, key: &'static str, delta: u64) {
            if key != keys::STATE_WRITES && key != keys::EDGES_PROCESSED {
                return;
            }
            match self.spans.last_mut() {
                Some(calls) if self.open => calls.push((key, delta)),
                _ => self.outside += 1,
            }
        }
        fn gauge(&mut self, _key: &'static str, _value: f64) {}
        fn label(&mut self, _key: &'static str, _value: &str) {}
        fn span_enter(&mut self, phase: &'static str) {
            if phase == keys::PHASE_PROPAGATION {
                self.spans.push(Vec::new());
                self.open = true;
            }
        }
        fn span_exit(&mut self, phase: &'static str, _cycles: u64) {
            if phase == keys::PHASE_PROPAGATION {
                self.open = false;
            }
        }
        fn histogram(&mut self, _key: &'static str, _value: u64) {}
        fn event(&mut self, _event: &TraceEvent) {}
    }

    /// An engine that does no work.
    struct Idle;

    impl Engine for Idle {
        fn name(&self) -> &'static str {
            "idle"
        }
        fn process_batch(&mut self, _ctx: &mut BatchCtx<'_>, _affected: &[VertexId]) {}
    }

    #[test]
    fn update_counts_reach_the_recorder_once_per_batch() {
        let cell = (Dataset::Amazon, Sizing::Tiny);
        let mut calls = UpdateCalls::default();
        let res = RunConfig::small()
            .run_observed(&mut LigraO, Algo::pagerank(), cell, &mut calls)
            .unwrap();
        assert_eq!(calls.outside, 0, "update counts arrive inside a propagation span");
        assert_eq!(calls.spans.len() as u64, res.metrics.batches);
        let mut sums = [0u64; 2];
        for batch in &calls.spans {
            assert!(batch.len() <= 2, "{} calls in one batch", batch.len());
            assert!(batch.len() < 2 || batch[0].0 != batch[1].0, "{batch:?}");
            for &(key, delta) in batch {
                assert!(delta > 0, "{key} reported a zero delta");
                sums[usize::from(key == keys::EDGES_PROCESSED)] += delta;
            }
        }
        assert_eq!(sums, [res.metrics.state_updates, res.metrics.edges_processed]);

        let mut rec = MemoryRecorder::new();
        RunConfig::small().run_observed(&mut Idle, Algo::pagerank(), cell, &mut rec).unwrap();
        let snapshot = rec.into_snapshot();
        assert_eq!(snapshot.counter(keys::RUN_BATCHES), 2);
        for (key, _) in snapshot.counters() {
            assert!(
                key != keys::STATE_WRITES && key != keys::EDGES_PROCESSED,
                "{key} without work"
            );
        }
    }

    #[test]
    fn wrong_states_engine_is_caught_by_the_mid_run_oracle() {
        use crate::testutil::{FaultMode, FaultyEngine};
        let mut engine = FaultyEngine::new(FaultMode::WrongStatesOnBatch(0));
        let res = RunConfig::small()
            .with_oracle(OracleMode::EveryNBatches(1))
            .run(&mut engine, Algo::sssp(0), (Dataset::Amazon, Sizing::Tiny))
            .unwrap();
        assert!(res.oracle.mismatches > 0, "corrupted states must be detected mid-run");
        assert!(!res.oracle.records.is_empty());
        assert!(!res.verify.is_match());
    }

    #[test]
    fn recorded_replay_of_a_composed_run_matches_when_schedule_mirrors_batches() {
        use tdgraph_graph::wire::{RecordedEntry, RecordedSchedule};
        // Record the exact batches a composed run would form, then replay
        // them through RunSource::Recorded and compare byte-for-byte.
        let cfg = RunConfig::small();
        let workload = StreamingWorkload::try_prepare(Dataset::Amazon, Sizing::Tiny).unwrap();
        let mut schedule = RecordedSchedule::new();
        {
            let mut session =
                StreamingSession::new(Algo::sssp(0), workload.clone(), cfg.clone()).unwrap();
            let mut composer = tdgraph_graph::update::BatchComposer::new(
                session.take_pending(),
                cfg.add_fraction,
                cfg.seed,
            );
            for _ in 0..cfg.batches {
                let present = session.present_edges();
                let Some(batch) = composer.next_batch(session.batch_size(), &present) else {
                    break;
                };
                schedule.push_batch(
                    batch.updates().iter().map(|u| RecordedEntry::Update(*u)).collect(),
                );
                // Advance the session so `present_edges` evolves as in a
                // real run.
                let mut null = tdgraph_obs::NullRecorder;
                session.ingest_batch(&mut LigraO, batch.updates().to_vec(), &mut null).unwrap();
            }
        }
        let composed = cfg.run(&mut LigraO, Algo::sssp(0), workload.clone()).unwrap();
        let replayed = cfg
            .run(&mut LigraO, Algo::sssp(0), RunSource::Recorded { workload, schedule })
            .unwrap();
        assert_eq!(format!("{:?}", replayed.metrics), format!("{:?}", composed.metrics));
        assert_eq!(replayed.verify, composed.verify);
    }
}

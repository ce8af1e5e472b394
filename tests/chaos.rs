//! Chaos acceptance suite for the data-plane fault-injection layer.
//!
//! Where `fault_isolation.rs` injects faults into the *runner* (engine
//! panics, watchdog timeouts), this suite injects them into the *data
//! plane* below it — corrupted edge lists and hostile update batches —
//! and proves the degradation contract of the robustness PR:
//!
//! * a corrupted sweep under lenient ingest completes every cell as
//!   `Degraded` (never `Failed`) with non-empty quarantine evidence,
//! * the same corrupted sweep is byte-identical at 1 vs 2 threads,
//! * a no-op `FaultPlan` is byte-identical to no plan at all,
//! * strict ingest rejects exactly the streams lenient ingest repairs,
//! * a state-corrupting engine is caught mid-run by the differential
//!   oracle and reported as structured evidence, not a panic.

use std::sync::Arc;

use tdgraph::prelude::*;

fn chaos_spec() -> SweepSpec {
    SweepSpec::new()
        .datasets([Dataset::Amazon, Dataset::Dblp])
        .sizing(Sizing::Tiny)
        .engines([EngineKind::LigraO, EngineKind::TdGraphH])
        .tune(|o| {
            o.sim = SimConfig::small_test();
            o.batches = 2;
        })
}

fn hostile_plan() -> FaultPlan {
    FaultPlan::seeded(0xC4A05)
        .with_absent_deletions(1.0)
        .with_nan_weights(0.3)
        .with_out_of_range_ids(0.2)
        .with_duplicate_edges(0.2)
}

/// The headline acceptance criterion: a corrupted sweep under lenient
/// ingest + `OracleMode::Final` completes every cell as `Degraded` with
/// non-empty quarantine reports.
#[test]
fn corrupted_lenient_sweep_degrades_every_cell_with_evidence() {
    let sink = Arc::new(VecSink::new());
    let spec = chaos_spec().ingest(IngestMode::Lenient).tune(|o| {
        o.oracle = OracleMode::Final;
        o.fault_plan = hostile_plan();
    });
    let report = SweepRunner::new().threads(2).trace_sink(Arc::clone(&sink)).run(&spec);

    report.assert_all_ok();
    let counts = report.outcome_counts();
    assert_eq!(counts.degraded, 4, "every cell degrades, none fail: {counts:?}");
    assert_eq!(counts.failed + counts.panicked + counts.timed_out, 0);
    for c in &report.cells {
        assert_eq!(c.outcome.kind(), OutcomeKind::Degraded);
        let r = c.run_result().expect("degraded cells carry their full result");
        assert!(!r.quarantine.is_empty(), "cell {} has an empty quarantine", c.cell.index);
        assert!(r.quarantine.total() > 0);
        assert!(!r.quarantine.exemplars().is_empty(), "exemplars retained");
        assert!(c.is_verified(), "the surviving stream still verifies");
    }
    let digest = report.degradation_digest();
    assert!(digest.contains("4 of 4 cells degraded"), "{digest}");
    assert_eq!(sink.events().iter().filter(|e| e.name() == "cell_degraded").count(), 4);
}

/// The same corrupted sweep must be byte-identical at 1 vs 2 threads:
/// fault injection is seeded per cell, so the schedule cannot leak in.
#[test]
fn corrupted_sweep_is_deterministic_across_thread_counts() {
    let spec = chaos_spec().ingest(IngestMode::Lenient).tune(|o| {
        o.oracle = OracleMode::Final;
        o.fault_plan = hostile_plan();
    });
    let one = SweepRunner::new().threads(1).run(&spec);
    let two = SweepRunner::new().threads(2).run(&spec);
    assert_eq!(one.canonical_lines(), two.canonical_lines());
    assert_eq!(one.degradation_digest(), two.degradation_digest());
    // Per-cell quarantine contents (not just totals) are identical.
    for (a, b) in one.cells.iter().zip(&two.cells) {
        let (ra, rb) = (a.run_result().unwrap(), b.run_result().unwrap());
        assert_eq!(ra.quarantine, rb.quarantine);
    }
}

/// A fault-free plan must be indistinguishable from no plan at all — the
/// chaos machinery is pay-for-what-you-inject.
#[test]
fn noop_fault_plan_is_byte_identical_to_no_plan() {
    let plain = SweepRunner::new().threads(2).run(&chaos_spec());
    let noop = SweepRunner::new()
        .threads(2)
        .run(&chaos_spec().ingest(IngestMode::Lenient).tune(|o| o.fault_plan = FaultPlan::none()));
    assert_eq!(plain.canonical_lines(), noop.canonical_lines());
    assert_eq!(noop.outcome_counts().degraded, 0);
    assert_eq!(noop.outcome_counts().completed, 4);
}

/// Strict ingest turns the exact same corrupted cells into typed
/// failures: strict rejects what lenient quarantines.
#[test]
fn strict_ingest_fails_the_cells_lenient_degrades() {
    let hostile = chaos_spec().tune(|o| o.fault_plan = hostile_plan());
    let lenient = SweepRunner::new().threads(1).run(&hostile.clone().ingest(IngestMode::Lenient));
    let strict = SweepRunner::new().threads(1).run(&hostile);
    assert_eq!(lenient.outcome_counts().degraded, 4);
    assert_eq!(strict.outcome_counts().failed, 4);
    for c in &strict.cells {
        assert_eq!(c.outcome.kind(), OutcomeKind::Failed);
        assert!(!c.outcome.detail().is_empty());
    }
}

/// Corrupted *text* ingest: strict parsing errors iff lenient parsing
/// quarantines, on the same corrupted edge list.
#[test]
fn corrupted_edge_list_text_honors_the_strict_lenient_complement() {
    let clean: String = (0..200).map(|i| format!("{i} {} 1.0\n", i + 1)).collect();
    for seed in 0..8u64 {
        let plan = FaultPlan::seeded(seed)
            .with_malformed_lines(0.1)
            .with_truncated_lines(0.1)
            .with_out_of_range_ids(0.05)
            .with_nan_weights(0.1);
        let corrupted = plan.corrupt_text(&clean);
        let strict = parse_edge_list(std::io::Cursor::new(corrupted.as_str()));
        let quarantine = LoadConfig::new()
            .ingest(IngestMode::Lenient)
            .parse(std::io::Cursor::new(corrupted.as_str()))
            .expect("lenient parsing never errors on data faults")
            .quarantine;
        assert_eq!(
            strict.is_err(),
            !quarantine.is_empty(),
            "seed {seed}: strict errors iff lenient quarantines\n{corrupted}"
        );
    }
}

/// A state-corrupting engine survives the sweep but is caught by the
/// mid-run oracle: the cell degrades with oracle evidence instead of
/// lying about success.
#[test]
fn wrong_states_engine_degrades_under_the_mid_run_oracle() {
    let mut registry = EngineRegistry::with_software();
    registry.register("liar", || Box::new(FaultyEngine::new(FaultMode::WrongStatesOnBatch(0))));
    let sink = Arc::new(VecSink::new());
    let spec = SweepSpec::new()
        .dataset(Dataset::Amazon)
        .sizing(Sizing::Tiny)
        .engine("liar")
        .engine("ligra-o")
        .tune(|o| {
            o.sim = SimConfig::small_test();
            o.batches = 2;
            o.oracle = OracleMode::EveryNBatches(1);
        });
    let report =
        SweepRunner::new().threads(1).registry(registry).trace_sink(Arc::clone(&sink)).run(&spec);

    report.assert_all_ok();
    assert_eq!(report.outcome_counts().degraded, 1, "only the liar degrades");
    assert_eq!(report.outcome_counts().completed, 1);
    let liar = &report.cells[0];
    assert_eq!(liar.outcome.kind(), OutcomeKind::Degraded);
    let r = liar.run_result().unwrap();
    assert!(r.oracle.mismatches > 0, "the oracle must catch corrupted states mid-run");
    assert!(!r.oracle.records.is_empty());
    assert!(!liar.is_verified());
    let honest = &report.cells[1];
    assert!(honest.is_verified());
    assert_eq!(honest.run_result().unwrap().oracle.mismatches, 0);
    let digest = report.degradation_digest();
    assert!(digest.contains("oracle"), "{digest}");
}

//! Fault-injection suite for the sweep runner's isolation and recovery
//! layer: a deliberately misbehaving engine (`FaultyEngine`, registered
//! through the ordinary [`EngineRegistry`] path) drives the acceptance
//! scenario of the robustness PR — an 8-cell grid with 2 engine panics
//! and 1 watchdog timeout must still return a complete report, and a
//! checkpointed relaunch must re-execute only the failed cells while
//! reproducing the successful cells' canonical lines byte for byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tdgraph::graph::datasets::{Dataset, Sizing};
use tdgraph::sim::SimConfig;
use tdgraph::{CellOutcome, EngineRegistry, OutcomeKind, SweepRunner, SweepSpec, TraceEvent};
use tdgraph_engines::testutil::{FaultMode, FaultyEngine};

/// Per-key build counters, so tests can assert exactly which cells
/// executed (a build happens once per cell execution).
#[derive(Clone, Default)]
struct BuildCounters {
    good: Arc<AtomicUsize>,
    panicker: Arc<AtomicUsize>,
    sleeper: Arc<AtomicUsize>,
    tail: Arc<AtomicUsize>,
}

impl BuildCounters {
    fn counts(&self) -> [usize; 4] {
        [
            self.good.load(Ordering::SeqCst),
            self.panicker.load(Ordering::SeqCst),
            self.sleeper.load(Ordering::SeqCst),
            self.tail.load(Ordering::SeqCst),
        ]
    }
}

/// The acceptance-scenario registry: two healthy engines, one that always
/// panics, and one whose *first* instance sleeps long enough to trip the
/// watchdog (later instances are healthy, so only one cell times out).
fn faulty_registry(counters: &BuildCounters, inject: bool) -> EngineRegistry {
    let mut registry = EngineRegistry::new();
    let c = counters.good.clone();
    registry.register("good", move || {
        c.fetch_add(1, Ordering::SeqCst);
        Box::new(FaultyEngine::new(FaultMode::None))
    });
    let c = counters.panicker.clone();
    registry.register("panicker", move || {
        c.fetch_add(1, Ordering::SeqCst);
        let mode = if inject { FaultMode::PanicOnBatch(0) } else { FaultMode::None };
        Box::new(FaultyEngine::new(mode))
    });
    let c = counters.sleeper.clone();
    registry.register("sleeper", move || {
        let first = c.fetch_add(1, Ordering::SeqCst) == 0;
        let mode = if inject && first {
            FaultMode::SleepOnBatch(0, Duration::from_secs(30))
        } else {
            FaultMode::None
        };
        Box::new(FaultyEngine::new(mode))
    });
    let c = counters.tail.clone();
    registry.register("tail", move || {
        c.fetch_add(1, Ordering::SeqCst);
        Box::new(FaultyEngine::new(FaultMode::None))
    });
    registry
}

/// 2 datasets × 4 engines = 8 cells; per dataset the expansion order is
/// good, panicker, sleeper, tail.
fn acceptance_spec() -> SweepSpec {
    SweepSpec::new()
        .datasets([Dataset::Amazon, Dataset::Dblp])
        .sizing(Sizing::Tiny)
        .engine_named("good")
        .engine_named("panicker")
        .engine_named("sleeper")
        .engine_named("tail")
        .tune(|o| {
            o.sim = SimConfig::small_test();
            o.batches = 1;
        })
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tdgraph-fault-{}-{name}", std::process::id()))
}

#[test]
fn eight_cell_sweep_with_panics_and_timeout_completes_and_resumes() {
    let path = temp_path("acceptance.jsonl");
    let _ = std::fs::remove_file(&path);
    let spec = acceptance_spec();

    // --- First launch: 2 panics + 1 timeout, on a single worker so a
    // lost thread would hang or truncate the sweep. ---
    let counters = BuildCounters::default();
    let report = SweepRunner::new()
        .threads(1)
        .registry(faulty_registry(&counters, true))
        .cell_timeout(Duration::from_millis(500))
        .checkpoint_to(&path)
        .run(&spec);

    // The report is complete: every cell has an outcome, in order.
    assert_eq!(report.len(), 8);
    for (i, c) in report.cells.iter().enumerate() {
        assert_eq!(c.cell.index, i);
    }
    let counts = report.outcome_counts();
    assert_eq!(counts.completed, 5, "{}", report.failure_digest());
    assert_eq!(counts.panicked, 2);
    assert_eq!(counts.timed_out, 1);
    assert_eq!(report.checkpoint_write_errors, 0);

    // (a) Panic containment: the panicking cells carry the payload and
    // the cells scheduled after them on the same worker still ran.
    for idx in [1, 5] {
        match &report.cells[idx].outcome {
            CellOutcome::Panicked { message, backtrace_hint } => {
                assert!(message.contains("injected fault"), "{message}");
                assert!(backtrace_hint.contains("RUST_BACKTRACE=1"));
            }
            other => panic!("cell {idx}: expected a contained panic, got {other:?}"),
        }
    }
    // (b) Watchdog: only the sleeper's first instance (Amazon) overran.
    assert_eq!(report.cells[2].outcome.kind(), OutcomeKind::TimedOut);
    assert_eq!(report.cells[6].outcome.kind(), OutcomeKind::Completed);
    // Every healthy cell verified against the oracle.
    for idx in [0, 3, 4, 6, 7] {
        assert!(report.cells[idx].is_verified(), "cell {idx} should have verified");
    }
    // Each of the 8 cells was executed exactly once (no retries here).
    assert_eq!(counters.counts(), [2, 2, 2, 2]);

    // --- Relaunch with the fault fixed: only the 3 failed cells may
    // execute; the 5 checkpointed cells are restored. ---
    let resumed_counters = BuildCounters::default();
    let resumed = SweepRunner::new()
        .threads(2)
        .registry(faulty_registry(&resumed_counters, false))
        .cell_timeout(Duration::from_millis(500))
        .run(&spec.clone().resume_from(&path));

    assert_eq!(resumed.len(), 8);
    resumed.assert_all_ok();
    resumed.assert_all_verified();
    let resumed_counts = resumed.outcome_counts();
    assert_eq!(resumed_counts.restored, 5);
    assert_eq!(resumed_counts.completed, 3);
    // No duplicate cells: each index appears exactly once.
    let mut seen = [0u32; 8];
    for c in &resumed.cells {
        seen[c.cell.index] += 1;
    }
    assert_eq!(seen, [1; 8]);
    // Only the failed cells re-executed: good/tail never rebuilt, the
    // panicker re-ran on both datasets, the sleeper only on Amazon.
    assert_eq!(resumed_counters.counts(), [0, 2, 1, 0]);

    // Byte-identical canonical lines for every cell that succeeded on the
    // first launch (restored lines re-emit the checkpoint verbatim).
    let first_lines: Vec<&str> = report.canonical_lines().leak().lines().collect();
    let resumed_lines: Vec<&str> = resumed.canonical_lines().leak().lines().collect();
    for idx in [0, 3, 4, 6, 7] {
        assert_eq!(first_lines[idx], resumed_lines[idx], "cell {idx} drifted across resume");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn deterministic_retry_reproduces_the_clean_run_byte_for_byte() {
    // (c) A transient fault (first build panics, second succeeds) is
    // absorbed by retry_once and the canonical report matches a run that
    // never faulted.
    let spec = SweepSpec::new()
        .datasets([Dataset::Amazon, Dataset::Dblp])
        .sizing(Sizing::Tiny)
        .engine_named("flaky")
        .tune(|o| {
            o.sim = SimConfig::small_test();
            o.batches = 2;
        });
    let registry = |fail_first: bool| {
        let mut r = EngineRegistry::new();
        let builds = Arc::new(AtomicUsize::new(0));
        r.register("flaky", move || {
            if fail_first && builds.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected fault: transient build failure");
            }
            Box::new(FaultyEngine::new(FaultMode::None))
        });
        r
    };

    let flaky = SweepRunner::new().threads(1).registry(registry(true)).retry_once(true).run(&spec);
    flaky.assert_all_verified();
    assert_eq!(flaky.total_retries(), 1);

    let clean = SweepRunner::new().threads(1).registry(registry(false)).run(&spec);
    assert_eq!(flaky.canonical_lines(), clean.canonical_lines());
}

#[test]
fn wrong_state_faults_surface_as_unverified_not_as_failures() {
    // Divergence is a *verification* failure, not a fault: the cell
    // completes, the report carries verified=false, and assert_all_ok
    // passes while assert_all_verified does not.
    let mut registry = EngineRegistry::new();
    registry
        .register("corruptor", || Box::new(FaultyEngine::new(FaultMode::WrongStatesOnBatch(0))));
    let spec = SweepSpec::new()
        .dataset(Dataset::Amazon)
        .sizing(Sizing::Tiny)
        .engine_named("corruptor")
        .tune(|o| {
            o.sim = SimConfig::small_test();
            o.batches = 1;
        });
    let report = SweepRunner::new().registry(registry).run(&spec);
    report.assert_all_ok();
    assert!(!report.all_verified());
    assert!(report.canonical_lines().contains("\"verified\":false"));
}

#[test]
fn progress_events_record_failures_and_restores() {
    let path = temp_path("events.jsonl");
    let _ = std::fs::remove_file(&path);
    let spec = acceptance_spec();
    let counters = BuildCounters::default();
    let events: Arc<std::sync::Mutex<Vec<String>>> = Arc::default();

    let sink = Arc::clone(&events);
    let _ = SweepRunner::new()
        .threads(1)
        .registry(faulty_registry(&counters, true))
        .cell_timeout(Duration::from_millis(500))
        .checkpoint_to(&path)
        .trace_sink(move |e: &TraceEvent| sink.lock().unwrap().push(e.to_json_line()))
        .run(&spec);

    let sink = Arc::clone(&events);
    let _ = SweepRunner::new()
        .threads(1)
        .registry(faulty_registry(&BuildCounters::default(), false))
        .cell_timeout(Duration::from_millis(500))
        .trace_sink(move |e: &TraceEvent| sink.lock().unwrap().push(e.to_json_line()))
        .run(&spec.clone().resume_from(&path));

    let events = events.lock().unwrap();
    let count = |needle: &str| events.iter().filter(|e| e.contains(needle)).count();
    assert_eq!(count("\"event\":\"cell_failed\""), 3);
    assert_eq!(count("\"outcome\":\"panicked\""), 2);
    assert_eq!(count("\"outcome\":\"timed_out\""), 1);
    assert_eq!(count("\"event\":\"cell_restored\""), 5);
    // The two sweep_finished summaries carry the outcome tallies.
    let finished: Vec<&String> = events.iter().filter(|e| e.contains("sweep_finished")).collect();
    assert_eq!(finished.len(), 2);
    assert!(finished[0].contains("\"failed\":3"), "{}", finished[0]);
    assert!(finished[1].contains("\"failed\":0") && finished[1].contains("\"restored\":5"));
    let _ = std::fs::remove_file(&path);
}

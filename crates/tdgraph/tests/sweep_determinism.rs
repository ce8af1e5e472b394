//! The sweep determinism contract: a cell's result depends only on the
//! cell, never on the schedule, so serial and parallel runs of the same
//! spec produce byte-identical canonical reports.

use std::collections::BTreeMap;
use std::sync::Arc;

use tdgraph::algos::traits::Algo;
use tdgraph::graph::datasets::{Dataset, Sizing};
use tdgraph::obs::Value;
use tdgraph::sim::SimConfig;
use tdgraph::{EngineKind, SweepRunner, SweepSpec, TraceEvent, VecSink};

/// A grid crossing a monotonic and an accumulative algorithm (the latter
/// exercises residual seeding, historically the order-sensitive path)
/// with a software and a hardware engine over two datasets.
fn spec() -> SweepSpec {
    SweepSpec::new()
        .algo(Algo::pagerank())
        .hub_sssp()
        .datasets([Dataset::Amazon, Dataset::Dblp])
        .sizing(Sizing::Tiny)
        .engines([EngineKind::LigraO, EngineKind::TdGraphH])
        .tune(|o| {
            o.sim = SimConfig::small_test();
            o.batches = 2;
        })
}

#[test]
fn serial_and_parallel_sweeps_are_byte_identical() {
    let spec = spec();
    let serial = SweepRunner::new().threads(1).run(&spec);
    let parallel = SweepRunner::new().threads(2).run(&spec);
    assert_eq!(serial.len(), spec.cell_count());
    assert_eq!(parallel.len(), spec.cell_count());
    serial.assert_all_verified();
    assert_eq!(serial.canonical_lines(), parallel.canonical_lines());
}

#[test]
fn repeated_parallel_sweeps_are_byte_identical() {
    let spec = spec();
    let a = SweepRunner::new().threads(2).run(&spec);
    let b = SweepRunner::new().threads(2).run(&spec);
    assert_eq!(a.canonical_lines(), b.canonical_lines());
}

/// Groups a trace-event stream by cell index: each cell's canonical event
/// sub-sequence, in emission order.
fn per_cell_canonical(events: &[TraceEvent]) -> BTreeMap<u64, Vec<String>> {
    let mut per_cell: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for e in events {
        if let Some(Value::U64(cell)) = e.get("cell") {
            per_cell.entry(*cell).or_default().push(e.canonical_json_line());
        }
    }
    per_cell
}

#[test]
fn per_cell_trace_event_streams_are_schedule_independent() {
    let spec = spec();
    let run = |threads: usize| {
        let sink = Arc::new(VecSink::new());
        let report = SweepRunner::new().threads(threads).trace_sink(Arc::clone(&sink)).run(&spec);
        report.assert_all_verified();
        sink.events()
    };
    let serial = run(1);
    let parallel = run(2);

    // The global interleaving is schedule-dependent, but every cell's own
    // sub-sequence of canonical events (started → finished, with cycles
    // and verdicts, minus wall-clock fields) is byte-identical no matter
    // how many threads ran the sweep.
    let serial_cells = per_cell_canonical(&serial);
    let parallel_cells = per_cell_canonical(&parallel);
    assert_eq!(serial_cells.len(), spec.cell_count());
    for (cell, lines) in &serial_cells {
        assert_eq!(lines.len(), 2, "cell {cell}: started + finished");
        assert_eq!(lines, &parallel_cells[cell], "cell {cell} diverged");
    }
    assert_eq!(serial_cells, parallel_cells);

    // The closing summary agrees canonically too (`sweep_started` carries
    // the thread count, which differs by construction).
    assert_eq!(
        serial.last().unwrap().canonical_json_line(),
        parallel.last().unwrap().canonical_json_line()
    );
}

#[test]
fn observed_snapshots_are_schedule_independent() {
    let spec = spec();
    let serial = SweepRunner::new().threads(1).observe(true).run(&spec);
    let parallel = SweepRunner::new().threads(2).observe(true).run(&spec);
    let a = serial.obs.expect("observed");
    let b = parallel.obs.expect("observed");
    assert_eq!(a.canonical_json_line(), b.canonical_json_line());
    assert_eq!(a, b);
}

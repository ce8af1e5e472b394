//! Multi-process scale-out bench: sweep throughput (cells/sec) of the
//! fault-tolerant fleet executor at 1, 2, and 4 worker processes against
//! the single-process serial runner, over a 20-cell reference grid.
//!
//! Every fleet run is gated on byte-identity: canonical report lines and
//! the merged observability snapshot must equal the serial run's exactly,
//! or the bench aborts — the emitted numbers always price identical work.
//! Results land in `BENCH_scaleout.json` (override the path with the
//! `BENCH_SCALEOUT_OUT` environment variable).
//!
//! The fleet spawns workers by re-executing the current binary; the
//! hidden `--fleet-worker` mode (see [`worker_entry`]) turns a spawned
//! `experiments` process into a sweep worker for the same grid.

use std::time::{Duration, Instant};

use tdgraph::prelude::*;
use tdgraph::{run_fleet, run_worker, FleetConfig, SelfExecSpawner, SweepReport};

use super::{ExperimentId, ExperimentOutput, Scope};

/// The scale-out grid: 2 datasets × 2 engines × 5 seeds = 20 cells.
fn spec(scope: Scope) -> SweepSpec {
    let sizing = scope.sweep_sizing();
    SweepSpec::new()
        .datasets([Dataset::Amazon, Dataset::Dblp])
        .sizing(sizing)
        .engines([EngineKind::LigraO, EngineKind::TdGraphH])
        .seeds([1, 2, 3, 4, 5])
        .options(scope.options())
}

fn scope_flag(scope: Scope) -> &'static str {
    match scope {
        Scope::Quick => "--quick",
        Scope::Full => "--full-scope",
    }
}

/// Hidden worker mode: when the `experiments` binary is re-executed by
/// the fleet coordinator it lands here instead of the CLI, and serves
/// cells over its stdin and stdout until the coordinator closes stdin.
/// Returns true when the process was a fleet worker (main should exit).
pub fn worker_entry(args: &[String]) -> bool {
    if !args.iter().any(|a| a == "--fleet-worker") {
        return false;
    }
    let scope = if args.iter().any(|a| a == "--quick") { Scope::Quick } else { Scope::Full };
    let heartbeat = args
        .iter()
        .position(|a| a == "--heartbeat-ms")
        .and_then(|i| args.get(i + 1)?.parse().ok())
        .map_or(Duration::from_millis(25), Duration::from_millis);
    run_worker(&spec(scope), heartbeat, tdgraph::WorkerDirective::Clean);
    true
}

/// The byte-compared determinism surface of a report.
fn surface(report: &SweepReport) -> String {
    let mut s = report.canonical_lines();
    if let Some(obs) = &report.obs {
        s.push_str(&obs.canonical_json_line());
        s.push('\n');
    }
    s
}

struct FleetSample {
    workers: u32,
    secs: f64,
    cells_per_sec: f64,
    remote: u64,
    inline: u64,
    respawns: u64,
}

pub fn run(scope: Scope) -> ExperimentOutput {
    let spec = spec(scope);
    let cells = spec.cell_count();
    let host_cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);

    let start = Instant::now();
    let serial = SweepRunner::new().threads(1).observe(true).run(&spec);
    let serial_secs = start.elapsed().as_secs_f64();
    serial.assert_all_verified();
    let control = surface(&serial);
    let serial_cps = cells as f64 / serial_secs.max(1e-9);

    let mut lines = vec![
        format!(
            "host cpus: {host_cpus} (cells/sec counts wall-clock on this host; \
             worker processes beyond the core count cannot add throughput)"
        ),
        format!(
            "{:<10} {:>9} {:>12} {:>9} {:>8} {:>8}",
            "executor", "wall(s)", "cells/sec", "speedup", "remote", "inline"
        ),
        format!(
            "{:<10} {:>9.3} {:>12.2} {:>8.2}x {:>8} {:>8}",
            "serial", serial_secs, serial_cps, 1.0, "-", "-"
        ),
    ];

    let mut samples = Vec::new();
    for workers in [1u32, 2, 4] {
        let cfg =
            FleetConfig::default().workers(workers).observe(true).lease_ttl(Duration::from_secs(5));
        let mut spawner =
            SelfExecSpawner::new(vec!["--fleet-worker".into(), scope_flag(scope).into()]);
        let start = Instant::now();
        let outcome =
            run_fleet(&spec, &cfg, &mut spawner).expect("scale-out fleet must coordinate");
        let secs = start.elapsed().as_secs_f64();
        // The divergence gate: a fleet of any size must reproduce the
        // serial bytes exactly.
        assert_eq!(
            surface(&outcome.report),
            control,
            "fleet of {workers} diverged from the serial run"
        );
        let cells_per_sec = cells as f64 / secs.max(1e-9);
        lines.push(format!(
            "{:<10} {:>9.3} {:>12.2} {:>8.2}x {:>8} {:>8}",
            format!("fleet-{workers}"),
            secs,
            cells_per_sec,
            serial_secs / secs.max(1e-9),
            outcome.stats.cells_remote,
            outcome.stats.cells_inline,
        ));
        samples.push(FleetSample {
            workers,
            secs,
            cells_per_sec,
            remote: outcome.stats.cells_remote,
            inline: outcome.stats.cells_inline,
            respawns: outcome.stats.respawns,
        });
    }
    lines.push(String::new());
    lines.push(format!(
        "divergence gate: all {} fleet runs byte-identical to serial ({} cells each)",
        samples.len(),
        cells
    ));

    let json = render_json(scope, cells, host_cpus, serial_secs, serial_cps, &samples);
    let out_path =
        std::env::var("BENCH_SCALEOUT_OUT").unwrap_or_else(|_| "BENCH_scaleout.json".to_string());
    match std::fs::write(&out_path, &json) {
        Ok(()) => lines.push(format!("wrote {out_path}")),
        Err(e) => lines.push(format!("could not write {out_path}: {e}")),
    }

    ExperimentOutput {
        id: ExperimentId::Scaleout,
        title: "Multi-process scale-out: fleet sweep throughput vs the serial runner".into(),
        lines,
    }
}

fn render_json(
    scope: Scope,
    cells: usize,
    host_cpus: usize,
    serial_secs: f64,
    serial_cps: f64,
    samples: &[FleetSample],
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"scaleout\",\n");
    s.push_str(&format!(
        "  \"scope\": \"{}\",\n",
        if scope == Scope::Quick { "quick" } else { "full" }
    ));
    s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    s.push_str(&format!("  \"cells\": {cells},\n"));
    s.push_str(&format!(
        "  \"serial\": {{\"wall_secs\": {serial_secs:.4}, \"cells_per_sec\": {serial_cps:.4}}},\n"
    ));
    s.push_str("  \"fleet\": [\n");
    for (i, f) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workers\": {}, \"wall_secs\": {:.4}, \"cells_per_sec\": {:.4}, \
             \"speedup_vs_serial\": {:.4}, \"cells_remote\": {}, \"cells_inline\": {}, \
             \"respawns\": {}, \"diverged\": false}}{}\n",
            f.workers,
            f.secs,
            f.cells_per_sec,
            serial_secs / f.secs.max(1e-9),
            f.remote,
            f.inline,
            f.respawns,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

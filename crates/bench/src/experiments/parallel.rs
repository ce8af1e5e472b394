//! Host-parallel sharded execution bench: intra-cell wall-clock speedup
//! of sharded [`ExecConfig`]s over serial on the reference fig10-style
//! cell (largest synthetic dataset, TDGraph plus two baselines), sweep
//! throughput in cells/sec, the record/replay merge overhead, and the
//! boundary-event volumes, which follow from the run's `MachineStats`.
//!
//! Every sharded run is checked against its serial twin — metrics and
//! oracle verdict must agree byte-for-byte, and a divergence aborts the
//! bench — so the emitted numbers are guaranteed to price identical work.
//! Results land in `BENCH_parallel.json` (override the path with the
//! `BENCH_PARALLEL_OUT` environment variable).

use std::time::Instant;

use tdgraph::prelude::*;

use super::{ExperimentId, ExperimentOutput, Scope};

/// Fig 10's engine trio: the TDGraph accelerator and two baselines.
const ENGINES: [EngineKind; 3] = [EngineKind::TdGraphH, EngineKind::LigraO, EngineKind::TdGraphS];

/// Friendster is the largest dataset of Table 2 and generates the largest
/// synthetic workload at every sizing.
const DATASET: Dataset = Dataset::Friendster;

/// One timed sharded configuration of a reference cell.
struct ExecSample {
    label: String,
    secs: f64,
    setup_secs: f64,
    reduce_secs: f64,
    touch_bytes_raw: u64,
    fill_bytes: u64,
}

struct EngineRow {
    engine: &'static str,
    serial_secs: f64,
    samples: Vec<ExecSample>,
}

impl EngineRow {
    fn sample(&self, label: &str) -> &ExecSample {
        self.samples
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("no {label} sample"))
    }

    fn speedup4(&self) -> f64 {
        self.serial_secs / self.sample("sharded4").secs.max(1e-9)
    }

    /// Cost of recording + replaying the boundary-event stream with no
    /// parallelism to pay for it: `sharded1` wall over serial wall, with
    /// the one-time pipeline setup (thread spawn + shard-plan cache
    /// hand-off) excluded — setup is paid once per run, not per batch, so
    /// folding it in overstated the steady-state overhead.
    fn merge_overhead(&self) -> f64 {
        let s1 = self.sample("sharded1");
        (s1.secs - s1.setup_secs) / self.serial_secs.max(1e-9) - 1.0
    }
}

/// One timed cell. Panics (failing the bench run and the CI smoke job) if
/// the run diverges from the oracle.
fn timed_run(
    kind: &EngineKind,
    workload: &StreamingWorkload,
    opts: &RunConfig,
    exec: ExecConfig,
) -> (f64, String, RunResult) {
    let mut engine = (*kind).try_build().expect("fig10 engines are registered");
    let opts = RunConfig { exec, ..opts.clone() };
    let start = Instant::now();
    let res = opts
        .run(engine.as_mut(), Algo::pagerank(), workload.clone())
        .expect("reference cell runs clean");
    let wall = start.elapsed().as_secs_f64();
    assert!(res.verify.is_match(), "{} under {} failed the oracle", kind.key(), exec.label());
    (wall, format!("{:?} {:?}", res.metrics, res.verify), res)
}

fn sample(
    kind: &EngineKind,
    workload: &StreamingWorkload,
    opts: &RunConfig,
    exec: ExecConfig,
    serial_out: &str,
) -> ExecSample {
    let (secs, out, res) = timed_run(kind, workload, opts, exec);
    // The divergence gate: sharded output must be byte-identical.
    assert_eq!(serial_out, out, "{} diverged under {}", kind.key(), exec.label());
    let report = res.exec.expect("sharded runs carry a pipeline report");
    // Every private hit crosses the replay → reduce boundary as one 8 B
    // touch and every private miss as one 24 B fill.
    let m = &res.metrics.machine;
    ExecSample {
        label: exec.label(),
        secs,
        setup_secs: report.setup.as_secs_f64(),
        reduce_secs: report.reduce_wall.as_secs_f64(),
        touch_bytes_raw: 8 * (m.l1_hits + m.l2_hits),
        fill_bytes: 24 * (m.llc_hits + m.llc_misses),
    }
}

pub fn run(scope: Scope) -> ExperimentOutput {
    let sizing = scope.sweep_sizing();
    let opts = scope.options();
    let workload =
        StreamingWorkload::try_prepare(DATASET, sizing).expect("reference workload generates");

    let host_cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let configs = [ExecConfig::serial().shards(1), ExecConfig::serial().shards(4)];
    let mut lines = vec![
        format!("host cpus: {host_cpus} (wall-clock speedup is bounded by available parallelism)"),
        format!(
            "{:<12} {:>10} {:>11} {:>11} {:>9} {:>9}",
            "engine", "serial(s)", "sharded1(s)", "sharded4(s)", "x4 speed", "merge ovh"
        ),
    ];
    let mut rows = Vec::new();
    for kind in &ENGINES {
        let (serial_secs, serial_out, _) = timed_run(kind, &workload, &opts, ExecConfig::serial());
        let samples: Vec<ExecSample> =
            configs.iter().map(|&exec| sample(kind, &workload, &opts, exec, &serial_out)).collect();
        let row = EngineRow { engine: kind.key(), serial_secs, samples };
        lines.push(format!(
            "{:<12} {:>10.3} {:>11.3} {:>11.3} {:>8.2}x {:>8.1}%",
            row.engine,
            row.serial_secs,
            row.sample("sharded1").secs,
            row.sample("sharded4").secs,
            row.speedup4(),
            100.0 * row.merge_overhead(),
        ));
        rows.push(row);
    }

    // Sweep throughput: the same trio over all four algorithms, run by the
    // parallel sweep runner with every cell sharded.
    let sweep_exec = ExecConfig::serial().shards(4);
    let spec = SweepSpec::new()
        .algo(Algo::pagerank())
        .algo(Algo::adsorption())
        .hub_sssp()
        .algo(Algo::cc())
        .dataset(DATASET)
        .sizing(sizing)
        .engines(ENGINES)
        .options(opts.clone())
        .tune(|o| o.exec = sweep_exec);
    let cells = spec.cell_count();
    let start = Instant::now();
    let report = SweepRunner::new().threads(4).run(&spec);
    let sweep_secs = start.elapsed().as_secs_f64();
    report.assert_all_verified();
    let cells_per_sec = cells as f64 / sweep_secs.max(1e-9);
    lines.push(String::new());
    lines.push(format!(
        "sweep: {cells} {} cells in {sweep_secs:.2}s at 4 host threads = {cells_per_sec:.2} cells/sec",
        sweep_exec.label()
    ));

    let json = render_json(scope, sizing, &rows, &sweep_exec, cells, sweep_secs, cells_per_sec);
    let out_path =
        std::env::var("BENCH_PARALLEL_OUT").unwrap_or_else(|_| "BENCH_parallel.json".to_string());
    match std::fs::write(&out_path, &json) {
        Ok(()) => lines.push(format!("wrote {out_path}")),
        Err(e) => lines.push(format!("could not write {out_path}: {e}")),
    }

    ExperimentOutput {
        id: ExperimentId::Parallel,
        title: "Host-parallel sharded execution: intra-cell speedup and sweep throughput".into(),
        lines,
    }
}

fn render_sample(s: &ExecSample) -> String {
    format!(
        "{{\"config\": \"{}\", \"secs\": {:.6}, \"setup_secs\": {:.6}, \
         \"reduce_secs\": {:.6}, \"touch_bytes_raw\": {}, \"fill_bytes\": {}}}",
        s.label, s.secs, s.setup_secs, s.reduce_secs, s.touch_bytes_raw, s.fill_bytes,
    )
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    scope: Scope,
    sizing: Sizing,
    rows: &[EngineRow],
    sweep_exec: &ExecConfig,
    cells: usize,
    sweep_secs: f64,
    cells_per_sec: f64,
) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"parallel\",\n");
    s.push_str(&format!(
        "  \"scope\": \"{}\",\n",
        if scope == Scope::Quick { "quick" } else { "full" }
    ));
    s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    s.push_str(&format!("  \"dataset\": \"{}\",\n", DATASET.abbrev()));
    s.push_str(&format!("  \"sizing\": \"{sizing:?}\",\n"));
    s.push_str("  \"reference_cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"engine\": \"{}\", \"serial_secs\": {:.6}, \"speedup_4_threads\": {:.4}, \
             \"merge_overhead\": {:.4}, \"diverged\": false, \"exec\": [\n",
            r.engine,
            r.serial_secs,
            r.speedup4(),
            r.merge_overhead(),
        ));
        for (j, sm) in r.samples.iter().enumerate() {
            s.push_str(&format!(
                "      {}{}\n",
                render_sample(sm),
                if j + 1 == r.samples.len() { "" } else { "," }
            ));
        }
        s.push_str(&format!("    ]}}{}\n", if i + 1 == rows.len() { "" } else { "," }));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"sweep\": {{\"cells\": {cells}, \"exec_config\": \"{}\", \"host_threads\": 4, \
         \"wall_secs\": {sweep_secs:.4}, \"cells_per_sec\": {cells_per_sec:.4}}}\n",
        sweep_exec.label()
    ));
    s.push_str("}\n");
    s
}

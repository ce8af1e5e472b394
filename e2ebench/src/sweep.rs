//! The `sweep` workload: a figure grid. A `SweepRunner` with at most
//! `nproc` threads and a checkpoint file runs all 16 registered engines ×
//! {PageRank, Adsorption, hub SSSP, CC} on the Amazon profile at
//! `Sizing::Tiny`, two batches per cell. Cells are small, so per-cell
//! set-up (workload generation, hub vertex, initial solve, 64-core
//! machine construction), the `accel` comparator models and the
//! one-record-per-cell checkpoint appends do the work.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tdgraph::checkpoint;
use tdgraph::prelude::{
    Algo, AlgoSel, CheckpointLog, Dataset, EngineKind, NullRecorder, Sizing, StreamingWorkload,
    SweepReport, SweepRunner, SweepSpec,
};

use crate::gen::{compose_batches, mix};
use crate::offline::{fingerprint, set_counts, set_trace_metrics};
use crate::report::{Outcome, Round, PER_LAYER};
use crate::stats::median;
use crate::trace::{Probe, Tracer};
use crate::Ctx;

const DATASET: Dataset = Dataset::Amazon;
const SIZING: Sizing = Sizing::Tiny;
const BATCHES: usize = 2;
/// Measured sweeps every untraced run completes.
const MIN_ROUNDS: usize = 4;
/// Set-up-only repetitions after each untraced sweep: a set-up takes
/// microseconds, so `setup_s` is the median of thousands, spread over the
/// whole run.
const SETUPS_PER_ROUND: usize = 16;

/// Generated inputs: the composer seed every cell streams with, and the
/// updates each cell's two batches carry.
struct Inputs {
    composer_seed: u64,
    updates_per_cell: u64,
    threads: usize,
}

fn generate(ctx: &Ctx) -> Result<Inputs, String> {
    let composer_seed = mix(ctx.seed, 5);
    let workload = StreamingWorkload::try_prepare(DATASET, SIZING).map_err(|e| e.to_string())?;
    let batches =
        compose_batches(&workload, workload.default_batch_size(), BATCHES, 0.75, composer_seed)?;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Ok(Inputs {
        composer_seed,
        updates_per_cell: batches.iter().map(|b| b.len() as u64).sum(),
        threads,
    })
}

fn spec(inputs: &Inputs) -> SweepSpec {
    SweepSpec::new()
        .dataset(DATASET)
        .sizing(SIZING)
        .engines(EngineKind::ALL)
        .algos([
            AlgoSel::from(Algo::pagerank()),
            AlgoSel::from(Algo::adsorption()),
            AlgoSel::HubSssp,
            AlgoSel::from(Algo::cc()),
        ])
        .seeds([inputs.composer_seed])
        .tune(|o| o.batches = BATCHES)
}

/// Set-up: everything a caller does before `SweepRunner::try_run`, which
/// itself expands the spec and opens the checkpoint.
fn set_up<P: Probe>(
    inputs: &Inputs,
    checkpoint_path: &Path,
    p: &mut P,
) -> (SweepSpec, SweepRunner) {
    p.enter("sweep.setup");
    let spec = p.span("sweep.spec", || spec(inputs));
    let runner = p.span("sweep.runner", || {
        SweepRunner::new().threads(inputs.threads).checkpoint_to(checkpoint_path)
    });
    p.exit();
    (spec, runner)
}

/// One sweep: set-up, the grid, then the checks.
fn round<P: Probe>(
    inputs: &Inputs,
    checkpoint_path: &Path,
    p: &mut P,
) -> (Round, Option<SweepReport>) {
    let mut r = Round { ops: EngineKind::ALL.len() as u64 * 4, ..Round::default() };
    let _ = std::fs::remove_file(checkpoint_path);
    let t0 = Instant::now();
    let (spec, runner) = set_up(inputs, checkpoint_path, p);
    r.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let report = p.span("sweep.run", || runner.try_run(&spec));
    r.stream_s = t1.elapsed().as_secs_f64();
    r.wall_s = t0.elapsed().as_secs_f64();
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            r.problems.push(format!("sweep: {e}"));
            return (r, None);
        }
    };
    check(&report, checkpoint_path, &mut r);
    // Each round leaves nothing behind, so later rounds and runs create
    // their checkpoint in the same small directory.
    let _ = std::fs::remove_file(checkpoint_path);
    let mut walls: Vec<(usize, f64)> =
        report.cells.iter().map(|c| (c.cell.index, c.wall.as_secs_f64() * 1e3)).collect();
    walls.sort_by_key(|&(index, _)| index);
    r.samples_ms = walls.into_iter().map(|(_, ms)| ms).collect();
    // Every cell streamed the composed batches the inputs counted; `check`
    // fails the round when one ran fewer.
    let verified = report.cells.iter().filter(|c| c.is_verified()).count() as u64;
    r.updates = verified * inputs.updates_per_cell;
    r.fingerprint = sum_counts(&report);
    (r, Some(report))
}

/// Every cell completed, ran every batch and verified, and the checkpoint
/// holds exactly the report's canonical cells (appended in completion
/// order, so compared as sets).
fn check(report: &SweepReport, checkpoint_path: &Path, r: &mut Round) {
    if report.len() as u64 != r.ops || !report.all_verified() {
        r.problems.push(format!(
            "{} cells, not all verified: {}",
            report.len(),
            report.failure_digest()
        ));
    }
    let short = report
        .cells
        .iter()
        .filter(|c| c.metrics().is_none_or(|m| m.batches != BATCHES as u64))
        .count();
    if short > 0 {
        r.problems.push(format!("{short} cells did not run {BATCHES} batches"));
    }
    if report.checkpoint_write_errors > 0 {
        r.problems.push(format!("{} checkpoint write errors", report.checkpoint_write_errors));
    }
    match checkpoint::load(checkpoint_path) {
        Ok(records) => {
            let mut written: Vec<String> = records.iter().map(|c| c.to_json_line()).collect();
            let mut expected: Vec<String> = report
                .cells
                .iter()
                .filter_map(|c| c.canonical())
                .map(|c| c.to_json_line())
                .collect();
            written.sort();
            expected.sort();
            if written != expected {
                r.problems.push(format!(
                    "checkpoint holds {} records, the report {} canonical cells",
                    written.len(),
                    expected.len()
                ));
            }
        }
        Err(e) => r.problems.push(format!("checkpoint load: {e}")),
    }
}

/// The deterministic counts summed over every cell.
fn sum_counts(report: &SweepReport) -> Vec<(&'static str, u64)> {
    report.cells.iter().filter_map(|c| c.metrics()).map(fingerprint).fold(Vec::new(), |sums, f| {
        if sums.is_empty() {
            return f;
        }
        sums.into_iter().zip(f).map(|((name, a), (_, b))| (name, a + b)).collect()
    })
}

/// The sweep layers of one traced round.
struct SweepLayers {
    cell_wall_p50_s: f64,
    cell_wall_max_s: f64,
    /// Sum of `CellResult::wall` per engine key.
    engine_s: BTreeMap<String, f64>,
    checkpoint_append_ms: f64,
}

fn sweep_layers(report: &SweepReport, twin: &Path) -> Result<SweepLayers, String> {
    let walls: Vec<f64> = report.cells.iter().map(|c| c.wall.as_secs_f64()).collect();
    let p50 = median(&walls).unwrap_or(0.0);
    let max = walls.iter().copied().fold(0.0, f64::max);
    let mut per_engine: BTreeMap<String, f64> = BTreeMap::new();
    for c in &report.cells {
        *per_engine.entry(c.cell.engine.key().to_string()).or_default() += c.wall.as_secs_f64();
    }
    let _ = std::fs::remove_file(twin);
    let log = CheckpointLog::append_to(twin).map_err(|e| e.to_string())?;
    let records: Vec<_> = report.cells.iter().filter_map(|c| c.canonical()).collect();
    let t = Instant::now();
    for record in &records {
        log.append(record).map_err(|e| e.to_string())?;
    }
    let append_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(log);
    let _ = std::fs::remove_file(twin);
    Ok(SweepLayers {
        cell_wall_p50_s: p50,
        cell_wall_max_s: max,
        engine_s: per_engine,
        checkpoint_append_ms: append_ms,
    })
}

/// Runs the sweep workload for `ctx.seconds` (at least [`MIN_ROUNDS`]
/// measured sweeps after one warm-up sweep).
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = match generate(ctx) {
        Ok(i) => i,
        Err(e) => {
            out.problems.push(format!("input generation: {e}"));
            return out;
        }
    };
    out.note(format!(
        "sweep: {} engines x 4 algorithms on {DATASET:?} {SIZING:?}, {BATCHES} batches ({} updates) per cell, {} runner threads",
        EngineKind::ALL.len(),
        inputs.updates_per_cell,
        inputs.threads
    ));
    let path = |label: String| ctx.work.join(label);
    let (warm, _) = round(&inputs, &path("checkpoint-warm.jsonl".into()), &mut NullRecorder);
    out.absorb("warm-up sweep", &warm);
    out.after_warm_up();
    let min_rounds = if ctx.trace { 2 } else { MIN_ROUNDS };
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut setups = Vec::new();
    let setup_path = path("checkpoint-setup.jsonl".into());
    while untraced.len() < min_rounds || start.elapsed() < ctx.seconds {
        let i = untraced.len();
        let (r, _) = round(&inputs, &path(format!("checkpoint-{i}.jsonl")), &mut NullRecorder);
        out.absorb(&format!("sweep {}", i + 1), &r);
        untraced.push(r);
        if !ctx.trace {
            for _ in 0..SETUPS_PER_ROUND {
                let t = Instant::now();
                std::hint::black_box(set_up(&inputs, &setup_path, &mut NullRecorder));
                setups.push(t.elapsed().as_secs_f64());
            }
        }
        if ctx.trace {
            let mut tracer = Tracer::new();
            let (r, report) =
                round(&inputs, &path(format!("checkpoint-traced-{i}.jsonl")), &mut tracer);
            out.absorb(&format!("traced sweep {}", i + 1), &r);
            traced.push((tracer, r, report));
        }
    }
    let all = std::iter::once(&warm).chain(&untraced).chain(traced.iter().map(|(_, r, _)| r));
    if let Some(counts) = out.same_fingerprint(all) {
        ctx.check_across_runs(&counts, &mut out);
    }
    if !ctx.trace {
        out.end_to_end(&untraced, &setups, "cell walls", 1, false);
        return out;
    }

    let mut layers = Vec::new();
    for (i, (_, r, report)) in traced.iter().enumerate() {
        let Some(report) = report.as_ref().filter(|_| r.ok()) else { continue };
        match sweep_layers(report, &path(format!("checkpoint-twin-{i}.jsonl"))) {
            Ok(l) => layers.push(l),
            Err(e) => out.problems.push(format!("checkpoint twin: {e}")),
        }
    }
    let med = |f: &dyn Fn(&SweepLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    out.set_opt("sweep.cell_wall_p50_s", med(&|l| l.cell_wall_p50_s));
    out.set_opt("sweep.cell_wall_max_s", med(&|l| l.cell_wall_max_s));
    out.set_opt("sweep.checkpoint_append_ms", med(&|l| l.checkpoint_append_ms));
    for (name, _, _) in PER_LAYER {
        if let Some(key) = name.strip_prefix("sweep.engine_s.") {
            out.set_opt(name, med(&|l| l.engine_s.get(key).copied().unwrap_or(0.0)));
        }
    }
    if let Some(l) = layers.first() {
        let unreported: Vec<&String> = l
            .engine_s
            .keys()
            .filter(|k| {
                !PER_LAYER.iter().any(|(n, _, _)| n.strip_prefix("sweep.engine_s.") == Some(k))
            })
            .collect();
        if !unreported.is_empty() {
            out.problems.push(format!("engines without a sweep.engine_s metric: {unreported:?}"));
        }
    }
    let ok_traced: Vec<(&Tracer, &Round)> =
        traced.iter().filter(|(_, r, _)| r.ok()).map(|(t, r, _)| (t, r)).collect();
    if let Some((_, first)) = ok_traced.first() {
        set_counts(first, &mut out);
    }
    let plain: Vec<&Round> = untraced.iter().filter(|r| r.ok()).collect();
    set_trace_metrics(&ok_traced, &plain, &mut out);
    ctx.write_trace(&ok_traced.iter().map(|(t, _)| *t).collect::<Vec<_>>(), &mut out);
    out
}

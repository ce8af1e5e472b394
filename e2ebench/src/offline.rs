//! The offline workloads, edge-list file → verified fixpoint through
//! `LoadConfig`, `StreamingWorkload`, `StreamingSession` and the engine
//! registry:
//!
//! * `cell` — the paper's headline configuration (`tdgraph-h` + PageRank
//!   on the scaled reference machine, default batch size) on the
//!   Friendster profile at `Sizing::Tiny`, twenty batches. Propagation and
//!   the simulator do most of the work; the per-batch rebuild is a small
//!   share. A PageRank batch sweeps most of the graph whatever its size:
//!   at `Sizing::Small` one takes some 300 ms, and a call that long
//!   averages over the host's slow and fast stretches instead of catching
//!   a fast one, so its fastest repetition spread 0.15–0.27 of the median
//!   from run to run. At `Sizing::Tiny` a batch takes some 70 ms.
//! * `trickle` — many tiny batches (Friendster profile at `Sizing::Small`,
//!   `ligra-o` + hub SSSP, 20 updates per batch at the default 0.75 add
//!   fraction). Engine work per batch is tiny, so the O(|E|) per-batch
//!   rebuild (snapshot, transpose, partition, `out_mass`) is the largest
//!   layer. Few batches carry an expensive hub-SSSP update (about one
//!   4-batch group in ten), so the tail level (p75 of 80 groups) reads
//!   the common batches and does not swing with the seed's share of
//!   expensive ones.

use std::time::Instant;

use tdgraph::prelude::{
    default_registry, keys, out_mass, partition_by_edges, Algo, AnyStore, EdgeUpdate, GraphStore,
    IngestMode, LoadConfig, NullRecorder, QuarantineReport, RunConfig, RunMetrics, RunResult,
    SimConfig, Sizing, StreamingSession, StreamingWorkload, UpdateBatch,
};

use tdgraph::engines::engine::Engine;

use crate::gen::{compose_batches, mix, write_friendster};
use crate::report::{Outcome, Round};
use crate::stats::{mean, median};
use crate::trace::{batch_splits, coverage, layer_totals, Probe, Tracer};
use crate::Ctx;

/// One offline workload's shape.
pub struct Offline {
    /// Workload name.
    pub name: &'static str,
    /// Size of the Friendster-profile graph.
    pub sizing: Sizing,
    /// Hub-rooted SSSP when set, PageRank otherwise.
    pub hub_sssp: bool,
    /// Engine registry key.
    pub engine: &'static str,
    /// Updates per batch (`None`: the workload's default, 1/16 of the
    /// loaded edges).
    pub batch_size: Option<usize>,
    /// Batches per round.
    pub batches: usize,
    /// Consecutive batches timed together as one sample, so each sample
    /// spans ten milliseconds or more.
    pub group: usize,
}

/// Measured rounds every untraced run completes, whatever `--seconds`
/// says.
const MIN_ROUNDS: usize = 4;

/// Set-up samples every untraced run's `setup_s` is the median of.
const MIN_SETUPS: usize = 25;

/// The paper's headline cell.
pub const CELL: Offline = Offline {
    name: "cell",
    sizing: Sizing::Tiny,
    hub_sssp: false,
    engine: "tdgraph-h",
    batch_size: None,
    batches: 20,
    group: 1,
};

/// Many tiny batches.
pub const TRICKLE: Offline = Offline {
    name: "trickle",
    sizing: Sizing::Small,
    hub_sssp: true,
    engine: "ligra-o",
    batch_size: Some(20),
    batches: 320,
    group: 4,
};

/// Generated inputs of one offline workload.
struct Inputs {
    path: std::path::PathBuf,
    workload_seed: u64,
    algo: Algo,
    cfg: RunConfig,
    batches: Vec<Vec<EdgeUpdate>>,
    updates: u64,
}

fn generate(spec: &Offline, ctx: &Ctx) -> Result<Inputs, String> {
    let path = write_friendster(&ctx.work, spec.sizing, ctx.seed).map_err(|e| e.to_string())?;
    let workload_seed = mix(ctx.seed, 2);
    let workload = load_workload(&path, workload_seed)?;
    let algo = if spec.hub_sssp { Algo::sssp(workload.hub_vertex()) } else { Algo::pagerank() };
    let batch_size = spec.batch_size.unwrap_or_else(|| workload.default_batch_size());
    let batches = compose_batches(&workload, batch_size, spec.batches, 0.75, mix(ctx.seed, 3))?;
    let updates = batches.iter().map(|b| b.len() as u64).sum();
    let cfg = RunConfig::default().with_sim(SimConfig::scaled_reference());
    Ok(Inputs { path, workload_seed, algo, cfg, batches, updates })
}

fn load_workload(path: &std::path::Path, seed: u64) -> Result<StreamingWorkload, String> {
    let loaded = LoadConfig::new().load(path).map_err(|e| e.to_string())?;
    StreamingWorkload::try_from_edges(loaded.graph.edges, loaded.graph.vertex_count, seed)
        .map_err(|e| e.to_string())
}

/// Name of the useful-update count, which only feeds
/// `engines.useful_ratio`.
const USEFUL: &str = "engines.useful_updates";

/// The deterministic counts of a finished run, under their per-layer
/// metric names.
pub fn fingerprint(m: &RunMetrics) -> Vec<(&'static str, u64)> {
    vec![
        ("sim.cycles", m.cycles),
        ("sim.accesses", m.machine.accesses),
        ("sim.llc_misses", m.machine.llc_misses),
        ("sim.dram_bytes", m.dram_bytes),
        ("sim.noc_hop_cycles", m.machine.noc_hop_cycles),
        ("engines.state_writes", m.state_updates),
        ("engines.edges_processed", m.edges_processed),
        (USEFUL, m.useful_updates),
    ]
}

/// Checks a finished run: oracle verdict `match`, nothing quarantined.
pub fn check_result(result: &RunResult, problems: &mut Vec<String>) {
    if !result.verify.is_match() {
        problems.push(format!("oracle verdict {:?}", result.verify));
    }
    if !result.quarantine.is_empty() {
        problems.push(format!("{} updates quarantined", result.quarantine.total()));
    }
}

/// Set-up: load the file, build the workload, resolve the algorithm,
/// open the session and build the engine.
fn set_up<P: Probe>(
    spec: &Offline,
    inputs: &Inputs,
    p: &mut P,
) -> Result<(StreamingSession, Box<dyn Engine>), String> {
    let loaded = p.span("graph.io.load", || LoadConfig::new().load(&inputs.path));
    let loaded = loaded.map_err(|e| format!("load: {e}"))?;
    let workload = p.span("graph.workload", || {
        StreamingWorkload::try_from_edges(
            loaded.graph.edges,
            loaded.graph.vertex_count,
            inputs.workload_seed,
        )
    });
    let workload = workload.map_err(|e| format!("workload: {e}"))?;
    let algo = if spec.hub_sssp {
        Algo::sssp(p.span("graph.hub_vertex", || workload.hub_vertex()))
    } else {
        Algo::pagerank()
    };
    if algo != inputs.algo {
        return Err(format!("algorithm {algo:?} differs from the generated {:?}", inputs.algo));
    }
    let session = p
        .span("engines.session.open", || StreamingSession::new(algo, workload, inputs.cfg.clone()));
    let engine = p.span("engines.registry.build", || default_registry().try_build(spec.engine));
    Ok((session.map_err(|e| format!("session: {e}"))?, engine.map_err(|e| format!("engine: {e}"))?))
}

/// One reference cell: set-up → every batch → finish.
fn round<P: Probe>(spec: &Offline, inputs: &Inputs, p: &mut P) -> Round {
    let mut r = Round { ops: inputs.batches.len() as u64, ..Round::default() };
    let t0 = Instant::now();
    let (mut session, mut engine) = match set_up(spec, inputs, p) {
        Ok(opened) => opened,
        Err(e) => return failed(r, e),
    };
    r.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    for (g, group) in inputs.batches.chunks(spec.group).enumerate() {
        let tg = Instant::now();
        for (i, batch) in group.iter().enumerate() {
            p.set_batch(Some((g * spec.group + i) as u64));
            p.enter(crate::trace::INGEST);
            let applied = session.ingest_batch(engine.as_mut(), batch.clone(), p.recorder());
            p.exit();
            if let Err(e) = applied {
                p.set_batch(None);
                return failed(r, format!("batch {}: {e}", g * spec.group + i));
            }
        }
        r.samples_ms.push(tg.elapsed().as_secs_f64() * 1e3);
    }
    p.set_batch(None);
    let tf = Instant::now();
    p.enter("engines.session.finish");
    let result = session.finish(engine.as_ref(), p.recorder());
    p.exit();
    r.finish_s = tf.elapsed().as_secs_f64();
    r.stream_s = t1.elapsed().as_secs_f64();
    r.wall_s = t0.elapsed().as_secs_f64();

    check_result(&result, &mut r.problems);
    if result.metrics.batches != inputs.batches.len() as u64 {
        r.problems.push(format!(
            "{} of {} batches ran",
            result.metrics.batches,
            inputs.batches.len()
        ));
    }
    r.updates = inputs.updates;
    r.fingerprint = fingerprint(&result.metrics);
    r
}

fn failed(mut r: Round, problem: String) -> Round {
    r.problems.push(problem);
    r
}

/// Mean per-batch wall of each rebuild stage, timed one public call at a
/// time on a mirror store fed the same batches: `[apply, snapshot,
/// transpose, partition, out_mass]` in ms.
pub fn mirror_split(
    mut store: AnyStore,
    batches: &[Vec<EdgeUpdate>],
    algo: &Algo,
    cfg: &RunConfig,
) -> Result<[f64; 5], String> {
    let mut sums = [0.0f64; 5];
    let chunk_target = cfg.sim.cores * cfg.chunks_per_core;
    let mut quarantine = QuarantineReport::new();
    for (i, raw) in batches.iter().enumerate() {
        let t = Instant::now();
        match cfg.ingest {
            IngestMode::Lenient => {
                let batch = UpdateBatch::from_updates_lenient(raw.clone(), &mut quarantine);
                store.apply_batch_lenient(&batch, &mut quarantine);
            }
            _ => {
                let batch = UpdateBatch::from_updates(raw.clone())
                    .map_err(|e| format!("mirror batch {i}: {e}"))?;
                store.apply_batch(&batch).map_err(|e| format!("mirror batch {i}: {e}"))?;
            }
        }
        let t_apply = t.elapsed();
        let snapshot = store.snapshot();
        let t_snapshot = t.elapsed();
        let transpose = snapshot.transpose();
        let t_transpose = t.elapsed();
        let chunks = partition_by_edges(&snapshot, chunk_target);
        let t_partition = t.elapsed();
        let mass = out_mass(algo, &snapshot);
        let t_mass = t.elapsed();
        std::hint::black_box((&transpose, &chunks, &mass));
        let bounds = [t_apply, t_snapshot, t_transpose, t_partition, t_mass];
        let mut last = std::time::Duration::ZERO;
        for (sum, bound) in sums.iter_mut().zip(bounds) {
            *sum += (bound - last).as_secs_f64() * 1e3;
            last = bound;
        }
    }
    if !quarantine.is_empty() {
        return Err(format!("mirror store quarantined {} updates", quarantine.total()));
    }
    let n = batches.len().max(1) as f64;
    Ok(sums.map(|s| s / n))
}

/// Sets the mirror-store metrics.
pub fn set_mirror_metrics(split: [f64; 5], out: &mut Outcome) {
    let names = [
        "graph.store.apply_ms",
        "graph.store.snapshot_ms",
        "graph.csr.transpose_ms",
        "graph.partition_ms",
        "algos.out_mass_ms",
    ];
    for (name, value) in names.into_iter().zip(split) {
        out.set(name, value);
    }
}

/// Sets the session-layer metrics from traced rounds: each round's
/// tracer, wall and fingerprint. Per-round layers are medians over rounds;
/// per-batch stages are means over every traced batch. A layer missing
/// from any round leaves its metric unset.
pub fn set_session_metrics(traced: &[(&Tracer, &Round)], out: &mut Outcome) {
    let per_round = |name: &str| {
        let v: Option<Vec<f64>> = traced
            .iter()
            .map(|(t, _)| layer_totals(t.spans()).get(name).map(|l| l.total_ns as f64 / 1e9))
            .collect();
        median(&v?)
    };
    out.set_opt("graph.io.load_s", per_round("graph.io.load"));
    out.set_opt("graph.workload_s", per_round("graph.workload"));
    out.set_opt("engines.session.open_s", per_round("engines.session.open"));
    out.set_opt("engines.session.finish_s", per_round("engines.session.finish"));

    let splits: Vec<_> = traced.iter().flat_map(|(t, _)| batch_splits(t.spans())).collect();
    let ms = |f: fn(&crate::trace::BatchSplit) -> u64| {
        mean(&splits.iter().map(|s| f(s) as f64 / 1e6).collect::<Vec<_>>())
    };
    out.set_opt("engines.session.rebuild_ms", ms(|s| s.rebuild_ns));
    out.set_opt("algos.seed_ms", ms(|s| s.seed_ns));
    out.set_opt("engines.propagate_ms", ms(|s| s.propagate_ns));
    out.set_opt("engines.session.classify_ms", ms(|s| s.classify_ns));

    let Some((_, round)) = traced.first() else { return };
    set_counts(round, out);
    for (t, r) in traced {
        for (key, name) in [
            (keys::STATE_WRITES, "engines.state_writes"),
            (keys::EDGES_PROCESSED, "engines.edges_processed"),
            (keys::USEFUL_UPDATES, USEFUL),
        ] {
            if t.updates(key) != r.count(name) {
                out.problems.push(format!(
                    "traced {key} = {} but the run reports {name} = {}",
                    t.updates(key),
                    r.count(name)
                ));
            }
        }
    }
    let ns_per_access: Vec<f64> = traced
        .iter()
        .map(|(t, r)| {
            let busy: u64 =
                batch_splits(t.spans()).iter().map(|s| s.seed_ns + s.propagate_ns).sum();
            busy as f64 / r.count("sim.accesses").max(1) as f64
        })
        .collect();
    out.set_opt("sim.host_ns_per_access", median(&ns_per_access));
}

/// Sets the simulated and engine counts from a round's fingerprint (an
/// empty fingerprint sets none).
pub fn set_counts(round: &Round, out: &mut Outcome) {
    for &(name, count) in round.fingerprint.iter().filter(|(name, _)| *name != USEFUL) {
        out.set(name, count as f64);
    }
    if !round.fingerprint.is_empty() {
        let writes = round.count("engines.state_writes").max(1);
        out.set("engines.useful_ratio", round.count(USEFUL) as f64 / writes as f64);
    }
}

/// Sets `trace.coverage` and `trace.overhead`, and notes the layer split
/// of the fastest traced round with its largest layer.
pub fn set_trace_metrics(traced: &[(&Tracer, &Round)], untraced: &[&Round], out: &mut Outcome) {
    let cov: Vec<f64> =
        traced.iter().map(|(t, r)| coverage(t.spans(), (r.wall_s * 1e9) as u64)).collect();
    out.set_opt("trace.coverage", median(&cov));
    let walls = |rounds: &mut dyn Iterator<Item = f64>| median(&rounds.collect::<Vec<_>>());
    if let (Some(on), Some(off)) = (
        walls(&mut traced.iter().map(|(_, r)| r.wall_s)),
        walls(&mut untraced.iter().map(|r| r.wall_s)),
    ) {
        out.set("trace.overhead", on / off - 1.0);
    }
    let Some((tracer, round)) = traced.iter().min_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s))
    else {
        return;
    };
    let mut layers: Vec<(String, f64)> = layer_totals(tracer.spans())
        .into_iter()
        .filter(|(name, _)| *name != crate::trace::INGEST)
        .map(|(name, t)| (name.to_string(), t.self_ns as f64 / 1e9))
        .collect();
    let splits = batch_splits(tracer.spans());
    if !splits.is_empty() {
        let sum = |f: fn(&crate::trace::BatchSplit) -> u64| {
            splits.iter().map(|s| f(s) as f64 / 1e9).sum::<f64>()
        };
        layers.push(("engines.session.rebuild".into(), sum(|s| s.rebuild_ns)));
        layers.push(("engines.session.classify".into(), sum(|s| s.classify_ns)));
    }
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.note(format!("layer self time in the fastest traced round ({:.3} s wall):", round.wall_s));
    for (name, s) in &layers {
        out.note(format!("  {name:<28} {:>10.4} s {:>6.1} %", s, 100.0 * s / round.wall_s));
    }
    if let Some((name, _)) = layers.first() {
        out.note(format!("largest layer: {name}"));
    }
}

/// Runs an offline workload for `ctx.seconds` (at least [`MIN_ROUNDS`]
/// measured rounds after one warm-up round).
pub fn run(spec: &Offline, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = match generate(spec, ctx) {
        Ok(i) => i,
        Err(e) => {
            out.problems.push(format!("input generation: {e}"));
            return out;
        }
    };
    out.note(format!(
        "{}: {} batches of {} updates per round, engine {}, {:?}",
        spec.name,
        inputs.batches.len(),
        inputs.batches.first().map_or(0, Vec::len),
        spec.engine,
        inputs.algo
    ));
    let warm = round(spec, &inputs, &mut NullRecorder);
    out.absorb("warm-up round", &warm);
    out.after_warm_up();
    // A traced run alternates untraced and traced rounds; two pairs give
    // both sides of `trace.overhead` a median.
    let min_rounds = if ctx.trace { 2 } else { MIN_ROUNDS };
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while untraced.len() < min_rounds || start.elapsed() < ctx.seconds {
        let r = round(spec, &inputs, &mut NullRecorder);
        out.absorb(&format!("round {}", untraced.len() + 1), &r);
        untraced.push(r);
        if ctx.trace {
            let mut tracer = Tracer::new();
            let r = round(spec, &inputs, &mut tracer);
            out.absorb(&format!("traced round {}", traced.len() + 1), &r);
            traced.push((tracer, r));
        }
    }
    let all = std::iter::once(&warm).chain(&untraced).chain(traced.iter().map(|(_, r)| r));
    if let Some(counts) = out.same_fingerprint(all) {
        ctx.check_across_runs(&counts, &mut out);
    }
    if !ctx.trace {
        // Rounds of a slow cell are few; set-up-only repetitions make
        // `setup_s` a median of at least MIN_SETUPS.
        let mut extra = Vec::new();
        while untraced.len() + extra.len() < MIN_SETUPS {
            let t = Instant::now();
            match set_up(spec, &inputs, &mut NullRecorder) {
                Ok(opened) => {
                    extra.push(t.elapsed().as_secs_f64());
                    drop(opened);
                }
                Err(e) => {
                    out.problems.push(format!("set-up repetition: {e}"));
                    break;
                }
            }
        }
        let label = if spec.group == 1 {
            "batches".to_string()
        } else {
            format!("batches (timed in groups of {})", spec.group)
        };
        out.end_to_end(&untraced, &extra, &label, spec.group, true);
        return out;
    }
    let ok: Vec<(&Tracer, &Round)> =
        traced.iter().filter(|(_, r)| r.ok()).map(|(t, r)| (t, r)).collect();
    let plain: Vec<&Round> = untraced.iter().filter(|r| r.ok()).collect();
    set_session_metrics(&ok, &mut out);
    set_trace_metrics(&ok, &plain, &mut out);
    match load_workload(&inputs.path, inputs.workload_seed).and_then(|w| {
        mirror_split(
            AnyStore::from_streaming(inputs.cfg.storage, w.graph),
            &inputs.batches,
            &inputs.algo,
            &inputs.cfg,
        )
    }) {
        Ok(split) => set_mirror_metrics(split, &mut out),
        Err(e) => out.problems.push(e),
    }
    ctx.write_trace(&ok.iter().map(|(t, _)| *t).collect::<Vec<_>>(), &mut out);
    out
}

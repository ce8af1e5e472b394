//! The `serve` workload: the daemon path. An in-process `TdServer` on
//! 127.0.0.1 with a write-ahead log directory serves one tenant on one
//! connection in a closed loop: the client writes a batch of valid update
//! lines, sends `flush` (replied once the WAL close marker is synced and
//! the engine has ingested the batch), and repeats; then `finish` and the
//! verdict check. The tenant runs `ligra-o` + hub SSSP over the Amazon
//! profile at `Sizing::Small` on the 4-core test machine, so engine work
//! is small and wire parsing, per-line WAL appends, the per-batch fsync,
//! the queue hand-offs and the tenant's live `MemoryRecorder` dominate.
//! The batch deadline outlives the run and `batch_max_entries` exceeds a
//! batch, so only flushes close batches and the recorded schedule is
//! deterministic.

use std::path::Path;
use std::time::{Duration, Instant};

use tdgraph::graph::wire::{
    format_update_line, parse_update_line, RecordedEntry, RecordedSchedule,
};
use tdgraph::prelude::{
    default_registry, keys, registry_with_defaults, AlgoChoice, AnyStore, BatchClose, Dataset,
    EdgeUpdate, MemoryRecorder, NullRecorder, Recorder, RunMetrics, RunSource, ServeClient,
    Service, ServiceConfig, SessionConfig, Sizing, Snapshot, StreamingSession, StreamingWorkload,
    TdServer,
};
use tdgraph::serve::TenantWal;

use crate::gen::{mix, Churn};
use crate::offline::{
    check_result, fingerprint, mirror_split, set_mirror_metrics, set_session_metrics,
    set_trace_metrics,
};
use crate::report::{Outcome, Round};
use crate::stats::median;
use crate::trace::{Probe, Tracer, INGEST};
use crate::Ctx;

/// The one tenant.
const TENANT: &str = "bench";
/// Update lines per flush: the most the Amazon profile at `Sizing::Small`
/// takes while engine work stays small; one flush takes over ten ms.
const LINES_PER_FLUSH: usize = 4000;
/// Flushes per tenant session: enough for a p75 of their fastest times
/// with 10 beyond, and few enough that a session takes about a second, so
/// a run repeats each flush some twenty times.
const FLUSHES: usize = 40;
/// Measured sessions every untraced run completes.
const MIN_ROUNDS: usize = 5;

/// Generated inputs: the wire lines of every flush, each flush's lines
/// joined into the one payload the client writes, and the updates they
/// carry.
struct Inputs {
    lines: Vec<Vec<String>>,
    payloads: Vec<String>,
    updates: Vec<Vec<EdgeUpdate>>,
    session: SessionConfig,
}

fn session_config() -> SessionConfig {
    SessionConfig::new()
        .with_dataset(Dataset::Amazon)
        .with_sizing(Sizing::Small)
        .with_engine("ligra-o")
        .with_algo(AlgoChoice::HubSssp)
        .with_batch_max_entries(2 * LINES_PER_FLUSH)
        .with_batch_deadline(Duration::from_secs(3600))
}

/// The tenant's starting workload, exactly as the daemon prepares it.
fn tenant_workload(session: &SessionConfig) -> Result<StreamingWorkload, String> {
    StreamingWorkload::try_prepare(session.dataset, session.sizing).map_err(|e| e.to_string())
}

fn generate(ctx: &Ctx) -> Result<Inputs, String> {
    let session = session_config();
    let workload = tenant_workload(&session)?;
    let mut churn = Churn::new(&workload.graph, &workload.pending, mix(ctx.seed, 4));
    let updates: Vec<Vec<EdgeUpdate>> =
        (0..FLUSHES).map(|_| churn.next_batch(LINES_PER_FLUSH)).collect();
    if updates.iter().any(|b| b.len() != LINES_PER_FLUSH) {
        return Err("churn pools ran dry".to_string());
    }
    let lines: Vec<Vec<String>> =
        updates.iter().map(|b| b.iter().map(format_update_line).collect()).collect();
    let payloads = lines.iter().map(|b| b.join("\n")).collect();
    Ok(Inputs { lines, payloads, updates, session })
}

/// What a live session left for the traced run's offline twins.
struct Live {
    reply: Vec<String>,
    stats: Snapshot,
    write_s: f64,
    schedule: RecordedSchedule,
}

/// One tenant session: bind → connect → hello → snapshot (set-up), every
/// batch written and flushed, finish; then the server is shut down and
/// every thread it started joined.
fn round<P: Probe>(inputs: &Inputs, wal_dir: &Path, p: &mut P) -> (Round, Option<Live>) {
    let lines: u64 = inputs.lines.iter().map(|b| b.len() as u64).sum();
    let mut r = Round { ops: lines, ..Round::default() };
    if let Err(e) = std::fs::create_dir_all(wal_dir) {
        r.problems.push(format!("wal dir: {e}"));
        return (r, None);
    }
    let t0 = Instant::now();
    let server = p.span("serve.server.bind", || {
        let cfg = ServiceConfig::new()
            .with_session_defaults(inputs.session.clone())
            .with_wal_dir(wal_dir);
        Service::new(cfg, registry_with_defaults())
            .map_err(|e| e.to_string())
            .and_then(|s| TdServer::bind(s, "127.0.0.1:0").map_err(|e| e.to_string()))
    });
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            r.problems.push(format!("bind: {e}"));
            return (r, None);
        }
    };
    let live = drive(inputs, &server, t0, &mut r, p);
    let left_open = server.shutdown();
    if !left_open.is_empty() {
        r.problems.push(format!("{} tenant(s) still open at shutdown", left_open.len()));
    }
    let live = match live {
        Ok(live) => live,
        Err(e) => {
            r.problems.push(e);
            return (r, None);
        }
    };
    r.updates = lines;
    let schedule = check_live(inputs, &live, &mut r);
    (r, schedule.map(|schedule| Live { schedule, ..live }))
}

fn drive<P: Probe>(
    inputs: &Inputs,
    server: &TdServer,
    t0: Instant,
    r: &mut Round,
    p: &mut P,
) -> Result<Live, String> {
    let mut client = p
        .span("serve.client.connect", || ServeClient::connect(server.addr()))
        .map_err(|e| format!("connect: {e}"))?;
    let acked =
        p.span("serve.client.hello", || client.hello(TENANT)).map_err(|e| format!("hello: {e}"))?;
    if acked != 0 {
        return Err(format!("a new tenant reports {acked} lines already accepted"));
    }
    p.span("serve.client.snapshot", || client.snapshot()).map_err(|e| format!("snapshot: {e}"))?;
    r.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut write_s = 0.0;
    for (i, (batch, payload)) in inputs.lines.iter().zip(&inputs.payloads).enumerate() {
        p.set_batch(Some(i as u64));
        let tb = Instant::now();
        // One socket write per batch, as a buffering client sends it: the
        // server still reads, parses, logs and queues the lines one by
        // one, and the client's own per-line syscalls stay out of the
        // measurement.
        p.enter("serve.client.write");
        let sent = client.send_line(payload);
        p.exit();
        write_s += tb.elapsed().as_secs_f64();
        sent.map_err(|e| format!("writing batch {i}: {e}"))?;
        let flushed = p
            .span("serve.client.flush", || client.flush())
            .map_err(|e| format!("flush {i}: {e}"))?;
        r.samples_ms.push(tb.elapsed().as_secs_f64() * 1e3);
        if flushed as usize != batch.len() {
            return Err(format!("flush {i} closed {flushed} of {} lines", batch.len()));
        }
    }
    p.set_batch(None);
    let tf = Instant::now();
    let reply =
        p.span("serve.client.finish", || client.finish()).map_err(|e| format!("finish: {e}"))?;
    r.finish_s = tf.elapsed().as_secs_f64();
    r.stream_s = t1.elapsed().as_secs_f64();
    r.wall_s = t0.elapsed().as_secs_f64();
    drop(client);
    Ok(Live { reply, stats: server.service().stats(), write_s, schedule: RecordedSchedule::new() })
}

/// Checks the finish reply (verdict, nothing quarantined, the schedule
/// holds exactly the lines sent, one batch per flush) and the service
/// stats (no line shed, every line accepted, one fsync per flush); returns
/// the recorded schedule.
fn check_live(inputs: &Inputs, live: &Live, r: &mut Round) -> Option<RecordedSchedule> {
    let (Some(head), Some(snapshot_line)) = (live.reply.first(), live.reply.last()) else {
        r.problems.push("empty finish reply".to_string());
        return None;
    };
    for needle in ["\"status\":\"ok\"", "\"verify\":\"match\"", "\"quarantined\":0,"] {
        if !head.contains(needle) {
            r.problems.push(format!("finish reply lacks {needle}: {head}"));
        }
    }
    let body = live.reply.get(1..live.reply.len().saturating_sub(1)).unwrap_or_default().join("\n");
    let schedule = match RecordedSchedule::from_jsonl(&body) {
        Ok(s) => s,
        Err(e) => {
            r.problems.push(format!("recorded schedule: {e}"));
            return None;
        }
    };
    let sent: Vec<Vec<RecordedEntry>> = inputs
        .updates
        .iter()
        .map(|b| b.iter().copied().map(RecordedEntry::Update).collect())
        .collect();
    if schedule.batches() != sent.as_slice() {
        r.problems.push(format!(
            "recorded schedule ({} batches, {} updates) differs from the lines sent",
            schedule.len(),
            schedule.update_count()
        ));
    }
    match Snapshot::parse_canonical(snapshot_line) {
        Ok(s) => {
            let metrics = RunMetrics::from_snapshot(&s);
            if metrics.batches != FLUSHES as u64 {
                r.problems.push(format!("the tenant ran {} of {FLUSHES} batches", metrics.batches));
            }
            r.fingerprint = fingerprint(&metrics);
        }
        Err(e) => r.problems.push(format!("tenant snapshot: {e}")),
    }
    let stats = &live.stats;
    let expect = [
        (keys::SERVE_SHED_LINES, 0),
        (keys::SERVE_LINES_MALFORMED, 0),
        (keys::SERVE_LINES_ACCEPTED, r.ops),
        (keys::SERVE_BATCHES_FLUSHED, FLUSHES as u64),
        (keys::SERVE_BATCHES_SIZE_CLOSED, 0),
        (keys::SERVE_BATCHES_DEADLINE_CLOSED, 0),
        (keys::SERVE_WAL_FSYNCS, FLUSHES as u64),
        (keys::SERVE_WAL_IO_ERRORS, 0),
    ];
    for (key, want) in expect {
        if stats.counter(key) != want {
            r.problems.push(format!("{key} = {}, expected {want}", stats.counter(key)));
        }
    }
    Some(schedule)
}

/// The traced run's offline measurements of one live session.
struct Twins {
    parse_us: f64,
    append_us: f64,
    close_ms: f64,
    replay_s: f64,
    emission_s: f64,
    tracer: Tracer,
    replay: Round,
    mirror: [f64; 5],
}

/// Times, outside the live session: `parse_update_line` over its lines; a
/// second WAL fed the same lines and batch boundaries; offline replays of
/// its recorded schedule with `NullRecorder`, with a `MemoryRecorder`
/// (whose snapshot must equal the live one) and traced through the
/// session; and the rebuild stages on a mirror store.
fn twins(
    inputs: &Inputs,
    live: &Live,
    dir: &Path,
    problems: &mut Vec<String>,
) -> Result<Twins, String> {
    let n_lines = inputs.lines.iter().map(Vec::len).sum::<usize>() as f64;
    let t = Instant::now();
    for line in inputs.lines.iter().flatten() {
        std::hint::black_box(parse_update_line(line).map_err(|e| e.detail)?);
    }
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / n_lines;

    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut wal =
        TenantWal::create(dir, &inputs.session.wal_head(TENANT)).map_err(|e| e.to_string())?;
    let (mut append, mut close) = (0.0, 0.0);
    for batch in &inputs.lines {
        let t = Instant::now();
        for line in batch {
            wal.append_line(line).map_err(|e| e.to_string())?;
        }
        append += t.elapsed().as_secs_f64();
        let t = Instant::now();
        wal.append_close(batch.len(), BatchClose::Flush).map_err(|e| e.to_string())?;
        close += t.elapsed().as_secs_f64();
    }
    wal.remove().map_err(|e| e.to_string())?;

    let workload = tenant_workload(&inputs.session)?;
    let algo = inputs.session.algo.resolve(workload.hub_vertex());
    let cfg = &inputs.session.run;
    let replay =
        |recorder: &mut dyn Recorder| -> Result<(f64, tdgraph::prelude::RunResult), String> {
            let source =
                RunSource::Recorded { workload: workload.clone(), schedule: live.schedule.clone() };
            let mut engine =
                default_registry().try_build(&inputs.session.engine).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let result = cfg
                .run_observed(engine.as_mut(), algo, source, recorder)
                .map_err(|e| e.to_string())?;
            Ok((t.elapsed().as_secs_f64(), result))
        };
    let (replay_s, _) = replay(&mut NullRecorder)?;
    let mut memory = MemoryRecorder::new();
    let (observed_s, _) = replay(&mut memory)?;
    if live.reply.last().map(String::as_str)
        != Some(memory.snapshot().canonical_json_line().as_str())
    {
        problems.push("offline replay snapshot differs from the live tenant's".to_string());
    }

    // The same schedule traced through the session, for the session split.
    let mut tracer = Tracer::new();
    let mut engine =
        default_registry().try_build(&inputs.session.engine).map_err(|e| e.to_string())?;
    let t = Instant::now();
    tracer.enter("engines.session.open");
    let session = StreamingSession::new(algo, workload.clone(), cfg.clone());
    tracer.exit();
    let mut session = session.map_err(|e| e.to_string())?;
    for (i, entries) in live.schedule.batches().iter().enumerate() {
        tracer.set_batch(Some(i as u64));
        tracer.enter(INGEST);
        let ingested = session.ingest_entries(engine.as_mut(), entries, &mut tracer);
        tracer.exit();
        ingested.map_err(|e| e.to_string())?;
    }
    tracer.set_batch(None);
    tracer.enter("engines.session.finish");
    let result = session.finish(engine.as_ref(), &mut tracer);
    tracer.exit();
    let replayed = Round {
        wall_s: t.elapsed().as_secs_f64(),
        fingerprint: fingerprint(&result.metrics),
        ..Round::default()
    };
    check_result(&result, problems);

    let mirror = mirror_split(
        AnyStore::from_streaming(cfg.storage, workload.graph),
        &inputs.updates,
        &algo,
        cfg,
    )?;
    Ok(Twins {
        parse_us,
        append_us: append * 1e6 / n_lines,
        close_ms: close * 1e3 / inputs.lines.len() as f64,
        replay_s,
        emission_s: observed_s - replay_s,
        tracer,
        replay: replayed,
        mirror,
    })
}

/// Runs the serve workload for `ctx.seconds` (at least [`MIN_ROUNDS`]
/// measured sessions after one warm-up session).
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
        "serve: one tenant, {FLUSHES} flushes of {LINES_PER_FLUSH} lines per session, engine {}",
        inputs.session.engine
    ));
    let wal = |label: String| ctx.work.join(label);
    let (warm, _) = round(&inputs, &wal("wal-warm".into()), &mut NullRecorder);
    out.absorb("warm-up session", &warm);
    out.after_warm_up();
    let min_rounds = if ctx.trace { 2 } else { MIN_ROUNDS };
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while untraced.len() < min_rounds || start.elapsed() < ctx.seconds {
        let i = untraced.len();
        let (r, _) = round(&inputs, &wal(format!("wal-{i}")), &mut NullRecorder);
        out.absorb(&format!("session {}", i + 1), &r);
        untraced.push(r);
        if ctx.trace {
            let mut tracer = Tracer::new();
            let (r, live) = round(&inputs, &wal(format!("wal-traced-{i}")), &mut tracer);
            out.absorb(&format!("traced session {}", i + 1), &r);
            traced.push((tracer, r, live));
        }
    }
    let all = std::iter::once(&warm).chain(&untraced).chain(traced.iter().map(|(_, r, _)| r));
    let counts = out.same_fingerprint(all);
    if let Some(counts) = &counts {
        ctx.check_across_runs(counts, &mut out);
    }
    if !ctx.trace {
        out.end_to_end(&untraced, &[], "flush round trips", 1, true);
        return out;
    }

    let mut measured = Vec::new();
    for (i, (_, r, live)) in traced.iter().enumerate() {
        let Some(live) = live.as_ref().filter(|_| r.ok()) else { continue };
        match twins(&inputs, live, &wal(format!("wal-twin-{i}")), &mut out.problems) {
            Ok(t) => {
                if Some(&t.replay.fingerprint) != counts.as_ref() {
                    out.problems
                        .push("offline replay counts differ from the live session's".to_string());
                }
                measured.push((r, live, t));
            }
            Err(e) => out.problems.push(format!("offline twins: {e}")),
        }
    }
    let med = |f: &dyn Fn(&(&Round, &Live, Twins)) -> f64| {
        median(&measured.iter().map(f).collect::<Vec<_>>())
    };
    out.set_opt("serve.client.write_s", med(&|(_, l, _)| l.write_s));
    out.set_opt("graph.wire.parse_us", med(&|(_, _, t)| t.parse_us));
    out.set_opt("serve.wal.append_us", med(&|(_, _, t)| t.append_us));
    out.set_opt("serve.wal.close_ms", med(&|(_, _, t)| t.close_ms));
    out.set_opt("serve.replay_s", med(&|(_, _, t)| t.replay_s));
    out.set_opt("obs.emission_s", med(&|(_, _, t)| t.emission_s));
    out.set_opt("serve.overhead_share", med(&|(r, _, t)| 1.0 - t.replay_s / r.stream_s));
    if let Some((_, live, twin)) = measured.first() {
        let stats = &live.stats;
        out.set("serve.wal.fsyncs", stats.counter(keys::SERVE_WAL_FSYNCS) as f64);
        out.set("serve.batches_flushed", stats.counter(keys::SERVE_BATCHES_FLUSHED) as f64);
        out.set("serve.lines_accepted", stats.counter(keys::SERVE_LINES_ACCEPTED) as f64);
        out.set("serve.shed.lines", stats.counter(keys::SERVE_SHED_LINES) as f64);
        let peak = stats.histogram(keys::SERVE_QUEUE_PEAK_DEPTH).map(|h| h.max as f64);
        out.set_opt("serve.queue_peak_depth", peak);
        set_mirror_metrics(twin.mirror, &mut out);
    }
    let replays: Vec<(&Tracer, &Round)> =
        measured.iter().map(|(_, _, t)| (&t.tracer, &t.replay)).collect();
    set_session_metrics(&replays, &mut out);
    let ok_traced: Vec<(&Tracer, &Round)> =
        traced.iter().filter(|(_, r, _)| r.ok()).map(|(t, r, _)| (t, r)).collect();
    let plain: Vec<&Round> = untraced.iter().filter(|r| r.ok()).collect();
    set_trace_metrics(&ok_traced, &plain, &mut out);
    ctx.write_trace(&ok_traced.iter().map(|(t, _)| *t).collect::<Vec<_>>(), &mut out);
    out
}

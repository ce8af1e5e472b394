//! Determinism acceptance suite for host-parallel sharded execution.
//!
//! The sharded execution core records boundary events on the driving
//! thread and replays/merges them in a sequential reduction, so every
//! observable surface must be byte-identical to the serial walk:
//!
//! * `SweepReport::canonical_lines` across `ExecConfig::serial()`,
//!   `.shards(2)`, and `.shards(4)`,
//! * the merged observability snapshot's canonical rendering,
//! * the verified fixpoints (oracle verdicts over final vertex states),
//! * all of the above across `SweepRunner` host thread counts,
//! * all of the above under a hostile data-plane `FaultPlan`, and
//! * the metrics and verdict of every registered engine.
//!
//! The sweep engine set deliberately spans the TDGraph accelerator and
//! two software baselines so both the accelerator timeline
//! (MLP-coalesced boundary charges) and the core timeline are exercised.
//! The wall-clock pipeline report rides next to these surfaces and must
//! stay consistent with the events it counts.

use tdgraph::prelude::*;

const EXEC_CONFIGS: [ExecConfig; 3] =
    [ExecConfig::serial(), ExecConfig::serial().shards(2), ExecConfig::serial().shards(4)];

fn base_spec() -> SweepSpec {
    SweepSpec::new()
        .datasets([Dataset::Amazon, Dataset::Dblp])
        .sizing(Sizing::Tiny)
        .engines([EngineKind::TdGraphH, EngineKind::LigraO, EngineKind::GraphBolt])
        .tune(|o| {
            o.sim = SimConfig::small_test();
            o.batches = 2;
            o.oracle = OracleMode::Final;
        })
}

fn hostile_plan() -> FaultPlan {
    FaultPlan::seeded(0x5AAD)
        .with_absent_deletions(1.0)
        .with_nan_weights(0.3)
        .with_out_of_range_ids(0.2)
        .with_duplicate_edges(0.2)
}

/// One observed sweep of `spec` pinned to `exec`, at `threads` host
/// threads. Returns the three determinism surfaces: canonical report
/// lines, the merged snapshot's canonical rendering, and the per-cell
/// verified fixpoints (oracle verdict + full metrics).
fn run_pinned(spec: &SweepSpec, exec: ExecConfig, threads: usize) -> (String, String, Vec<String>) {
    let spec = spec.clone().tune(move |o| o.exec = exec);
    let report = SweepRunner::new().threads(threads).observe(true).run(&spec);
    report.assert_all_ok();
    let snapshot = report.obs.as_ref().expect("observe(true) fills the snapshot");
    let fixpoints = report
        .cells
        .iter()
        .map(|c| {
            let r = c.run_result().expect("ok cells carry their result");
            format!("{:?} {:?}", r.verify, r.metrics)
        })
        .collect();
    (report.canonical_lines(), snapshot.canonical_json_line(), fixpoints)
}

/// The headline acceptance criterion: `shards(2)` and `shards(4)`
/// produce byte-identical canonical lines, merged snapshots, and
/// verified fixpoints to serial at 1 and 2 sweep host threads — for the
/// TDGraph accelerator and the software baselines alike.
#[test]
fn sharded_sweep_is_byte_identical_to_serial() {
    let spec = base_spec();
    let (lines, snapshot, fixpoints) = run_pinned(&spec, ExecConfig::serial(), 2);
    assert!(!lines.is_empty());
    for exec in [ExecConfig::serial().shards(2), ExecConfig::serial().shards(4)] {
        for threads in [1, 2] {
            let (l, s, f) = run_pinned(&spec, exec, threads);
            let at = format!("{} at {threads} host threads", exec.label());
            assert_eq!(lines, l, "{at}: canonical lines diverged from serial");
            assert_eq!(snapshot, s, "{at}: merged snapshot diverged from serial");
            assert_eq!(fixpoints, f, "{at}: fixpoints diverged from serial");
        }
    }
}

/// Host thread count — of the sweep runner *and* of the replay shards —
/// must not leak into any observable surface.
#[test]
fn sharded_sweep_is_deterministic_across_host_thread_counts() {
    let spec = base_spec();
    let baseline = run_pinned(&spec, ExecConfig::serial().shards(4), 1);
    for threads in [2, 4] {
        let run = run_pinned(&spec, ExecConfig::serial().shards(4), threads);
        assert_eq!(baseline, run, "sweep diverged at {threads} host threads");
    }
}

/// The determinism contract holds under data-plane chaos: a hostile
/// `FaultPlan` with lenient ingest degrades cells identically — same
/// canonical lines, same quarantine evidence — under every exec config.
#[test]
fn chaos_fault_plan_cells_are_deterministic_under_sharding() {
    let spec = base_spec().ingest(IngestMode::Lenient).tune(|o| o.fault_plan = hostile_plan());
    let mut reports = EXEC_CONFIGS.iter().map(|&exec| {
        let spec = spec.clone().tune(move |o| o.exec = exec);
        let report = SweepRunner::new().threads(2).run(&spec);
        report.assert_all_ok();
        assert!(report.outcome_counts().degraded > 0, "the hostile plan must bite");
        report
    });
    let serial = reports.next().expect("serial report");
    for sharded in reports {
        assert_eq!(serial.canonical_lines(), sharded.canonical_lines());
        assert_eq!(serial.degradation_digest(), sharded.degradation_digest());
        for (a, b) in serial.cells.iter().zip(&sharded.cells) {
            let (ra, rb) = (a.run_result().unwrap(), b.run_result().unwrap());
            assert_eq!(ra.quarantine, rb.quarantine, "cell {}", a.cell.index);
        }
    }
}

/// A direct harness-level check that final vertex states reach the same
/// verified fixpoint: the oracle verdict and every metric of a single
/// experiment agree across exec modes.
#[test]
fn experiment_fixpoints_agree_across_exec_configs() {
    let run = |exec: ExecConfig| {
        Experiment::new(Dataset::Orkut)
            .sizing(Sizing::Tiny)
            .tune(move |o| {
                o.sim = SimConfig::small_test();
                o.batches = 2;
                o.exec = exec;
            })
            .run(EngineKind::TdGraphH)
    };
    let serial = run(ExecConfig::serial());
    assert!(serial.verify.is_match());
    for exec in [ExecConfig::serial().shards(2), ExecConfig::serial().shards(4)] {
        let sharded = run(exec);
        assert_eq!(format!("{:?}", serial.verify), format!("{:?}", sharded.verify));
        assert_eq!(format!("{:?}", serial.metrics), format!("{:?}", sharded.metrics));
    }
}

/// Every registered engine — the software baselines and every
/// accelerator model (HATS, Minnow, PHI, DepGraph, JetStream,
/// GraphPulse) — reaches the serial fixpoint and metrics when sharded.
#[test]
fn every_engine_matches_serial_under_sharding() {
    let sharded = ExecConfig::serial().shards(2);
    for kind in EngineKind::ALL {
        let run = |exec: ExecConfig| {
            Experiment::new(Dataset::Amazon)
                .sizing(Sizing::Tiny)
                .tune(move |o| {
                    o.sim = SimConfig::small_test();
                    o.batches = 2;
                    o.exec = exec;
                })
                .run(kind)
        };
        let serial = run(ExecConfig::serial());
        let shard = run(sharded);
        assert!(serial.verify.is_match() || matches!(serial.verify, VerifyOutcome::Skipped));
        assert_eq!(
            format!("{:?}", serial.metrics),
            format!("{:?}", shard.metrics),
            "{} metrics diverged under {}",
            kind.key(),
            sharded.label()
        );
        assert_eq!(
            format!("{:?}", serial.verify),
            format!("{:?}", shard.verify),
            "{} verdict diverged under {}",
            kind.key(),
            sharded.label()
        );
    }
}

/// The wall-clock pipeline report rides next to the deterministic
/// surfaces: sharded runs carry one, serial runs none. The boundary
/// volumes come from the machine's counts, where every access is one
/// private hit (a touch) or one private miss (a fill), and a reference
/// cell crosses the boundary both ways.
#[test]
fn pipeline_report_is_consistent_with_its_configuration() {
    for exec in
        [ExecConfig::serial(), ExecConfig::serial().shards(1), ExecConfig::serial().shards(2)]
    {
        let res = Experiment::new(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .tune(move |o| {
                o.sim = SimConfig::small_test();
                o.batches = 2;
                o.exec = exec;
            })
            .run(EngineKind::TdGraphH);
        assert_eq!(res.exec.is_some(), exec.is_sharded(), "{}", exec.label());
        let m = &res.metrics.machine;
        let (touches, fills) = (m.l1_hits + m.l2_hits, m.llc_hits + m.llc_misses);
        assert_eq!(touches + fills, m.accesses, "{}", exec.label());
        assert!(touches > 0, "the reference cell crosses the boundary");
        assert!(fills > 0, "cold caches fill from the LLC");
    }
}

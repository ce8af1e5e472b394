//! Crash recovery through the ingest WAL: a service that dies without
//! warning (simulated by [`Service::abort`]) is rebuilt from the WAL
//! directory, resumes at the durable `acked` offset, and — fed the rest
//! of the stream — produces a finish report byte-identical to a run
//! that never crashed. Corrupt tails are dropped and counted, and a
//! clean finish removes the tenant's log.

use std::path::{Path, PathBuf};
use std::time::Duration;

use tdgraph_engines::registry::EngineRegistry;
use tdgraph_graph::datasets::{Dataset, Sizing, StreamingWorkload};
use tdgraph_graph::update::EdgeUpdate;
use tdgraph_graph::wire::format_update_line;
use tdgraph_obs::keys;
use tdgraph_serve::{render_report, Service, ServiceConfig, SessionConfig, TenantReport};

fn hostile_lines(take: usize) -> Vec<String> {
    let workload = StreamingWorkload::try_prepare(Dataset::Amazon, Sizing::Tiny).unwrap();
    let mut lines = Vec::new();
    for (i, e) in workload.pending.iter().take(take).enumerate() {
        if i % 11 == 7 {
            lines.push(format!("@@noise {i}@@"));
        }
        lines.push(format_update_line(&EdgeUpdate::addition(e.src, e.dst, e.weight)));
    }
    lines
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdg-walrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(wal_dir: &Path) -> ServiceConfig {
    let defaults = SessionConfig::default()
        .with_batch_max_entries(8)
        .with_batch_deadline(Duration::from_secs(600));
    ServiceConfig::new().with_session_defaults(defaults).with_wal_dir(wal_dir)
}

fn run_uninterrupted(wal_dir: &Path, lines: &[String]) -> TenantReport {
    let service = Service::new(config(wal_dir), EngineRegistry::with_software()).unwrap();
    service.open_tenant("t").unwrap();
    for line in lines {
        service.ingest_line("t", line.clone()).unwrap();
    }
    service.finish("t").unwrap()
}

#[test]
fn crash_recovery_resumes_at_acked_and_finishes_byte_identically() {
    let lines = hostile_lines(30);
    let split = 20;
    let dir = temp_dir("crash");

    // Phase 1: stream part of the workload, then die without warning.
    let service = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    service.open_tenant("t").unwrap();
    for line in &lines[..split] {
        service.ingest_line("t", line.clone()).unwrap();
    }
    assert_eq!(service.acked("t").unwrap(), split as u64);
    service.abort();

    // Phase 2: a fresh service over the same WAL directory recovers the
    // tenant, resumes at the durable offset, and takes the rest.
    let recovered = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    assert_eq!(recovered.recover_tenants().unwrap(), vec!["t".to_string()]);
    assert_eq!(recovered.acked("t").unwrap(), split as u64, "acked survives the crash");
    for line in &lines[split..] {
        recovered.ingest_line("t", line.clone()).unwrap();
    }
    let report = recovered.finish("t").unwrap();
    assert!(report.result.as_ref().unwrap().verify.is_match());
    // Replay accounting is stamped by the supervisor thread; finish has
    // joined it, so the counters are settled.
    let stats = recovered.stats();
    assert!(stats.counter(keys::SERVE_WAL_REPLAYED_BATCHES) > 0, "committed batches must replay");
    assert!(
        stats.counter(keys::SERVE_WAL_TAIL_ENTRIES) > 0,
        "unmarked tail must re-enter the former"
    );

    // A clean finish retires the log: nothing left to recover.
    let leftover: Vec<_> = std::fs::read_dir(&dir)
        .map(|d| d.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(leftover.is_empty(), "finish must remove the WAL file: {leftover:?}");

    // Byte identity: same stream, never crashed, fresh WAL dir.
    let control_dir = temp_dir("control");
    let control = run_uninterrupted(&control_dir, &lines);
    assert_eq!(
        render_report(&report),
        render_report(&control),
        "recovered finish must be byte-identical to the uncrashed run"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

#[test]
fn torn_wal_tail_is_dropped_counted_and_resumed_before_it() {
    let lines = hostile_lines(20);
    let dir = temp_dir("torn");

    let service = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    service.open_tenant("t").unwrap();
    for line in &lines {
        service.ingest_line("t", line.clone()).unwrap();
    }
    let acked = service.acked("t").unwrap();
    service.abort();

    // Simulate a crash mid-append: a torn, newline-less record fragment
    // at the end of the log.
    let wal_path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(b"{\"wal\":\"line\",\"raw\":\"half-writ");
    std::fs::write(&wal_path, &bytes).unwrap();

    let recovered = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    assert_eq!(recovered.recover_tenants().unwrap(), vec!["t".to_string()]);
    // The fragment never counts: recovery resumes at the last complete
    // record, and the drop is surfaced in the stats.
    assert_eq!(recovered.acked("t").unwrap(), acked);
    assert_eq!(recovered.stats().counter(keys::SERVE_WAL_TORN_DROPPED), 1);
    let report = recovered.finish("t").unwrap();
    assert!(report.result.as_ref().unwrap().verify.is_match());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_wal_head_skips_the_tenant_but_not_its_neighbors() {
    let dir = temp_dir("damaged");
    let service = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    service.open_tenant("alpha").unwrap();
    service.open_tenant("beta").unwrap();
    for line in hostile_lines(10) {
        service.ingest_line("alpha", line.clone()).unwrap();
        service.ingest_line("beta", line).unwrap();
    }
    service.abort();

    // Destroy alpha's head record entirely.
    let alpha_path = dir.join("alpha.wal");
    std::fs::write(&alpha_path, b"\x00\x01garbage, no head\n").unwrap();

    let recovered = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    assert_eq!(recovered.recover_tenants().unwrap(), vec!["beta".to_string()]);
    assert_eq!(recovered.stats().counter(keys::SERVE_WAL_IO_ERRORS), 1);
    let report = recovered.finish("beta").unwrap();
    assert!(report.result.is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_recovered_wal_that_crashes_again_keeps_every_acked_line() {
    let lines: Vec<String> = hostile_lines(30).into_iter().take(32).collect();
    let dir = temp_dir("recrash");

    let service = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    service.open_tenant("t").unwrap();
    for line in &lines[..16] {
        service.ingest_line("t", line.clone()).unwrap();
    }
    service.abort();
    let wal_path = dir.join("t.wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(b"{\"wal\":\"line\",\"raw\":\"half-writ");
    std::fs::write(&wal_path, &bytes).unwrap();

    // Recovery must cut the torn fragment off before it appends, or the
    // next line is glued to it and the second recovery stops there.
    let recovered = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    assert_eq!(recovered.recover_tenants().unwrap(), vec!["t".to_string()]);
    assert_eq!(recovered.acked("t").unwrap(), 16);
    for line in &lines[16..] {
        recovered.ingest_line("t", line.clone()).unwrap();
    }
    recovered.abort();

    let again = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    assert_eq!(again.recover_tenants().unwrap(), vec!["t".to_string()]);
    assert_eq!(again.acked("t").unwrap(), 32, "both incarnations' lines survive");
    assert_eq!(again.stats().counter(keys::SERVE_WAL_TORN_DROPPED), 0);
    let report = again.finish("t").unwrap();

    let control_dir = temp_dir("recrash-control");
    let control = run_uninterrupted(&control_dir, &lines);
    assert_eq!(
        render_report(&report),
        render_report(&control),
        "twice-recovered finish must be byte-identical to the uncrashed run"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

#[test]
fn interior_wal_damage_skips_the_tenant_but_not_its_neighbors() {
    let dir = temp_dir("interior");
    let service = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    service.open_tenant("alpha").unwrap();
    service.open_tenant("beta").unwrap();
    for line in hostile_lines(16).into_iter().take(16) {
        service.ingest_line("alpha", line.clone()).unwrap();
        service.ingest_line("beta", line).unwrap();
    }
    service.abort();

    // A garbage line between alpha's two committed batches: no crash
    // damages anything but the final line, so this log is corrupt.
    let alpha_path = dir.join("alpha.wal");
    let text = std::fs::read_to_string(&alpha_path).unwrap();
    let marker = text.find("{\"wal\":\"close\"").expect("a committed batch");
    let after_marker = marker + text[marker..].find('\n').unwrap() + 1;
    assert!(text[after_marker..].contains("\"close\""), "a second committed batch follows");
    let damaged = format!("{}garbage\n{}", &text[..after_marker], &text[after_marker..]);
    std::fs::write(&alpha_path, &damaged).unwrap();

    let recovered = Service::new(config(&dir), EngineRegistry::with_software()).unwrap();
    assert_eq!(recovered.recover_tenants().unwrap(), vec!["beta".to_string()]);
    assert_eq!(recovered.stats().counter(keys::SERVE_WAL_IO_ERRORS), 1);
    assert_eq!(recovered.acked("beta").unwrap(), 16);
    assert_eq!(std::fs::read_to_string(&alpha_path).unwrap(), damaged, "kept as evidence");
    let report = recovered.finish("beta").unwrap();
    assert!(report.result.is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

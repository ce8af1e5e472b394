//! Kill-tolerant fleet execution of `tdgraph-sweepd`: worker processes
//! are really killed (SIGABRT mid-cell) and really wedged (alive, silent),
//! the coordinator is really SIGKILLed and restarted over the same lease
//! log — and every run prints byte-for-byte what an uncrashed `--serial`
//! run prints, with every cell finishing exactly once.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// The spec under test: 2 engines × 3 seeds = 6 tiny cells, observed so
/// the merged snapshot line is part of the compared surface.
const SPEC: [&str; 8] =
    ["--sizing", "tiny", "--small-sim", "--batches", "1", "--seeds", "1,2,3", "--observe"];

fn sweepd(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tdgraph-sweepd"))
        .args(SPEC)
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "sweepd failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn serial_control() -> String {
    stdout_of(&sweepd(&["--serial"]))
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tdg-fleet-{tag}-{}", std::process::id()))
}

/// Every cell must have exactly one accepted (`done`) record in the lease
/// log: no lost cells, no double-runs — even across kills and reclaims.
fn assert_exactly_once(lease_log: &Path, cells: usize) {
    let text = std::fs::read_to_string(lease_log).unwrap();
    let mut done_per_cell = vec![0usize; cells];
    for line in text.lines().filter(|l| l.contains("\"fleet\":\"done\"")) {
        let idx: usize = line
            .split("\"cell\":")
            .nth(1)
            .and_then(|rest| rest.split(&[',', '}'][..]).next())
            .and_then(|n| n.parse().ok())
            .unwrap();
        done_per_cell[idx] += 1;
    }
    for (idx, count) in done_per_cell.iter().enumerate() {
        assert_eq!(*count, 1, "cell {idx} must finish exactly once, got {count}: {text}");
    }
}

#[test]
fn killed_workers_are_survived_byte_identically() {
    let control = serial_control();
    // Two of the first spawns abort mid-sweep (one before reporting its
    // cell — the work is lost and must be re-run — one after).
    let out = sweepd(&[
        "--workers",
        "2",
        "--chaos-seed",
        "11",
        "--chaos-kills",
        "2",
        "--lease-ttl-ms",
        "400",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(stdout_of(&out), control, "kill chaos must not change a byte: {stderr}");
    assert!(stderr.contains("deaths="), "fleet stats missing: {stderr}");
    assert!(!stderr.contains("deaths=0"), "chaos must actually kill workers: {stderr}");
}

#[test]
fn wedged_workers_expire_and_their_cells_are_reclaimed() {
    let control = serial_control();
    // One spawn wedges: it stays alive but stops heartbeating, so only
    // lease expiry can detect it.
    let out = sweepd(&[
        "--workers",
        "2",
        "--chaos-seed",
        "5",
        "--chaos-wedges",
        "1",
        "--lease-ttl-ms",
        "300",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(stdout_of(&out), control, "wedge chaos must not change a byte: {stderr}");
    assert!(
        stderr.contains("reclaims=") && !stderr.contains("reclaims=0+0"),
        "a wedged worker's lease must be reclaimed: {stderr}"
    );
}

#[test]
fn combined_chaos_is_byte_identical_across_worker_counts() {
    let control = serial_control();
    for workers in ["1", "2", "4"] {
        let ck = temp_path(&format!("combined-{workers}"));
        let _ = std::fs::remove_file(&ck);
        let ck_str = ck.to_str().unwrap().to_string();
        let lease_log = PathBuf::from(format!("{ck_str}.leases"));
        let _ = std::fs::remove_file(&lease_log);
        let out = sweepd(&[
            "--workers",
            workers,
            "--chaos-seed",
            "29",
            "--chaos-kills",
            "1",
            "--chaos-wedges",
            "1",
            "--lease-ttl-ms",
            "300",
            "--checkpoint",
            &ck_str,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(
            stdout_of(&out),
            control,
            "fleet of {workers} under kill+wedge chaos must match serial: {stderr}"
        );
        assert_exactly_once(&lease_log, 6);
        let _ = std::fs::remove_file(&ck);
        let _ = std::fs::remove_file(&lease_log);
        let _ = std::fs::remove_file(PathBuf::from(format!("{ck_str}.lock")));
    }
}

#[test]
fn sigkilled_coordinator_restarts_and_resumes_byte_identically() {
    // A longer sweep (12 cells) so the coordinator can be killed with
    // work still outstanding.
    let seeds = ["--seeds", "1,2,3,4,5,6"];
    let control_out = Command::new(env!("CARGO_BIN_EXE_tdgraph-sweepd"))
        .args(SPEC)
        .args(seeds)
        .arg("--serial")
        .output()
        .unwrap();
    let control = stdout_of(&control_out);

    let ck = temp_path("coord-kill");
    let _ = std::fs::remove_file(&ck);
    let ck_str = ck.to_str().unwrap().to_string();
    let lease_log = PathBuf::from(format!("{ck_str}.leases"));
    let lock = PathBuf::from(format!("{ck_str}.lock"));
    let _ = std::fs::remove_file(&lease_log);
    let _ = std::fs::remove_file(&lock);

    // Phase 1: run the fleet, SIGKILL the coordinator as soon as the
    // checkpoint shows durable progress. Its workers are orphaned and the
    // lock file is left behind pointing at a dead pid.
    let mut phase1 = Command::new(env!("CARGO_BIN_EXE_tdgraph-sweepd"))
        .args(SPEC)
        .args(seeds)
        .args(["--workers", "2", "--checkpoint", &ck_str])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    for _ in 0..2000 {
        if ck.exists() && std::fs::metadata(&ck).unwrap().len() > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(ck.exists(), "coordinator never checkpointed");
    phase1.kill().unwrap();
    phase1.wait().unwrap();
    assert!(lock.exists(), "a SIGKILLed coordinator leaves its lock behind");

    // Phase 2: restart over the same checkpoint + lease log. The stale
    // lock must be taken over, finished cells restored (not re-run), and
    // the final output must still be byte-identical to serial.
    let out = Command::new(env!("CARGO_BIN_EXE_tdgraph-sweepd"))
        .args(SPEC)
        .args(seeds)
        .args(["--workers", "2", "--checkpoint", &ck_str])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(stdout_of(&out), control, "restart must reproduce the serial bytes: {stderr}");
    assert!(
        !stderr.contains("restored=0 "),
        "the restart must restore the killed run's durable cells: {stderr}"
    );
    // The checkpoint file itself is a byte-prefix contract: after the
    // restart it must equal the serial checkpoint.
    let serial_ck = temp_path("coord-serial");
    let serial_ck_str = serial_ck.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&serial_ck);
    let serial_again = Command::new(env!("CARGO_BIN_EXE_tdgraph-sweepd"))
        .args(SPEC)
        .args(seeds)
        .args(["--serial", "--checkpoint", &serial_ck_str])
        .output()
        .unwrap();
    assert!(serial_again.status.success());
    assert_eq!(
        std::fs::read_to_string(&ck).unwrap(),
        std::fs::read_to_string(&serial_ck).unwrap(),
        "fleet checkpoint must be byte-identical to the serial checkpoint"
    );

    for p in [&ck, &lease_log, &lock, &serial_ck] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn a_second_serial_run_restores_every_cell_from_its_checkpoint() {
    let ck = temp_path("serial-resume");
    let _ = std::fs::remove_file(&ck);
    let ck_str = ck.to_str().unwrap().to_string();
    let canonical = |out: &Output| -> Vec<String> {
        stdout_of(out).lines().filter(|l| l.starts_with("{\"cell\":")).map(String::from).collect()
    };
    let first = sweepd(&["--serial", "--checkpoint", &ck_str]);
    let written = std::fs::read(&ck).unwrap();
    assert_eq!(written.iter().filter(|b| **b == b'\n').count(), 6, "one line per cell");

    // Every cell is restored: none runs again, so nothing is appended.
    let second = sweepd(&["--serial", "--checkpoint", &ck_str]);
    assert_eq!(canonical(&second), canonical(&first));
    let after = std::fs::read(&ck).unwrap();
    assert!(
        after == written,
        "the checkpoint must not change: {} bytes became {}",
        written.len(),
        after.len()
    );
    let _ = std::fs::remove_file(&ck);
}

//! Torn-checkpoint recovery, property-tested at every truncation offset:
//! a checkpoint cut anywhere — mid-record, mid-escape, exactly on a
//! newline — loads its intact prefix, drops at most the torn final line,
//! and resuming from it reproduces the uncrashed sweep byte-for-byte.

use tdgraph::checkpoint::load_tolerant;
use tdgraph::{SweepRunner, SweepSpec};

use tdgraph::graph::datasets::{Dataset, Sizing};
use tdgraph::sim::SimConfig;
use tdgraph::EngineKind;

fn tiny_spec() -> SweepSpec {
    SweepSpec::new()
        .datasets([Dataset::Amazon, Dataset::Dblp])
        .sizing(Sizing::Tiny)
        .engines([EngineKind::LigraO, EngineKind::TdGraphH])
        .tune(|o| {
            o.sim = SimConfig::small_test();
            o.batches = 1;
        })
}

fn temp_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tdg-ckprop-{tag}-{}", std::process::id()))
}

#[test]
fn every_truncation_offset_loads_the_intact_prefix() {
    let spec = tiny_spec();
    let full = temp_file("full");
    let _ = std::fs::remove_file(&full);
    SweepRunner::new().threads(1).checkpoint_to(&full).run(&spec).assert_all_ok();
    let bytes = std::fs::read(&full).unwrap();
    assert!(bytes.len() > 100, "checkpoint too small to exercise truncation");

    let torn = temp_file("torn");
    for cut in 0..=bytes.len() {
        let prefix = &bytes[..cut];
        std::fs::write(&torn, prefix).unwrap();
        let loaded = load_tolerant(&torn)
            .unwrap_or_else(|e| panic!("offset {cut}: tolerant load must never fail: {e}"));

        // The intact prefix is exactly the newline-terminated lines.
        let newline_terminated = prefix.iter().filter(|b| **b == b'\n').count();
        assert_eq!(
            loaded.records.len(),
            newline_terminated,
            "offset {cut}: every terminated line must load"
        );
        // The torn tail — bytes past the last newline — is dropped and
        // counted, never misparsed.
        let tail_len = cut - prefix.iter().rposition(|b| *b == b'\n').map_or(0, |p| p + 1);
        assert_eq!(
            loaded.torn_tails_dropped,
            usize::from(tail_len > 0),
            "offset {cut}: torn tail accounting"
        );
        assert_eq!(
            loaded.clean_bytes,
            (cut - tail_len) as u64,
            "offset {cut}: clean_bytes must mark the last good line"
        );
        // Loaded records are a strict prefix of the full checkpoint's.
        let complete = load_tolerant(&full).unwrap();
        assert_eq!(
            loaded.records.as_slice(),
            &complete.records[..loaded.records.len()],
            "offset {cut}: records must be an intact prefix"
        );
    }
    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&torn);
}

#[test]
fn resuming_from_a_torn_checkpoint_is_byte_identical() {
    let spec = tiny_spec();
    let control = SweepRunner::new().threads(1).observe(true).run(&spec);

    let full = temp_file("resume-full");
    let _ = std::fs::remove_file(&full);
    SweepRunner::new().threads(1).checkpoint_to(&full).run(&spec).assert_all_ok();
    let bytes = std::fs::read(&full).unwrap();
    let line_ends: Vec<usize> =
        bytes.iter().enumerate().filter(|(_, b)| **b == b'\n').map(|(i, _)| i + 1).collect();

    // A representative spread: empty file, torn first record, exactly one
    // record, mid-second-record, one byte short of complete, complete.
    let cuts = [
        0,
        line_ends[0] / 2,
        line_ends[0],
        line_ends[0] + (line_ends[1] - line_ends[0]) / 2,
        bytes.len() - 1,
        bytes.len(),
    ];
    let torn = temp_file("resume-torn");
    for cut in cuts {
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        let report = SweepRunner::new().threads(1).observe(true).checkpoint_to(&torn).run(&spec);
        assert_eq!(
            report.canonical_lines(),
            control.canonical_lines(),
            "cut {cut}: resumed lines must match the uncrashed run"
        );
        let torn_tail = !bytes[..cut].is_empty() && bytes[cut - 1] != b'\n';
        assert_eq!(report.torn_tails_dropped, usize::from(torn_tail), "cut {cut}");
    }
    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&torn);
}

#[test]
fn relaunching_twice_over_a_torn_checkpoint_is_byte_identical() {
    let spec = tiny_spec();
    let control = SweepRunner::new().threads(1).observe(true).run(&spec);

    let full = temp_file("relaunch-full");
    let _ = std::fs::remove_file(&full);
    SweepRunner::new().threads(1).checkpoint_to(&full).run(&spec).assert_all_ok();
    let bytes = std::fs::read(&full).unwrap();
    let first_end = bytes.iter().position(|b| *b == b'\n').unwrap() + 1;

    // A sweep killed 10 bytes into its second record, relaunched twice
    // over the same checkpoint: the first relaunch must cut the torn bytes
    // off before appending, or the second finds them glued to a record in
    // the middle of the file.
    let torn = temp_file("relaunch-torn");
    std::fs::write(&torn, &bytes[..first_end + 10]).unwrap();
    let relaunch =
        || SweepRunner::new().threads(1).observe(true).checkpoint_to(&torn).try_run(&spec);
    let first = relaunch().unwrap_or_else(|e| panic!("first relaunch must start: {e}"));
    assert_eq!(first.torn_tails_dropped, 1);
    let second = relaunch().unwrap_or_else(|e| panic!("second relaunch must start: {e}"));
    assert_eq!(second.torn_tails_dropped, 0);
    assert_eq!(
        second.canonical_lines(),
        control.canonical_lines(),
        "the second relaunch must match the uncrashed run"
    );
    assert_eq!(std::fs::read(&torn).unwrap(), bytes, "the rebuilt checkpoint is the uncrashed one");
    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&torn);
}

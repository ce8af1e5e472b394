//! The strongest correctness property: every engine — four software
//! systems, the TDGraph variants, and all comparator accelerators — must
//! drive every algorithm to the same fixpoint the from-scratch oracle
//! computes, on the same streaming workload.
//!
//! The same grid also pins every engine's absolute simulated counts
//! against `tests/golden/engine_grid.jsonl`, so a refactor that changes
//! what an engine charges the machine fails here even when both paths of
//! the new build agree with each other.

use std::fmt::Write as _;

use tdgraph::prelude::*;

const ALL_ENGINES: [EngineKind; 16] = [
    EngineKind::LigraO,
    EngineKind::LigraDO,
    EngineKind::GraphBolt,
    EngineKind::KickStarter,
    EngineKind::Dzig,
    EngineKind::TdGraphH,
    EngineKind::TdGraphHWithout,
    EngineKind::TdGraphS,
    EngineKind::TdGraphSWithout,
    EngineKind::Hats,
    EngineKind::Minnow,
    EngineKind::Phi,
    EngineKind::DepGraph,
    EngineKind::JetStream,
    EngineKind::JetStreamWith,
    EngineKind::GraphPulse,
];

fn experiment(algo: Option<Algo>) -> Experiment {
    let mut e = Experiment::new(Dataset::Amazon).sizing(Sizing::Tiny).options(RunConfig {
        sim: SimConfig::small_test(),
        batches: 2,
        ..RunConfig::default()
    });
    if let Some(a) = algo {
        e = e.algorithm(a);
    }
    e
}

/// The committed grid: one line per (engine, algorithm) cell.
const GOLDEN_GRID: &str = include_str!("golden/engine_grid.jsonl");

/// Renders one cell as a golden line: the engine, the algorithm, the
/// oracle verdict and the metrics' canonical snapshot.
fn grid_line(kind: EngineKind, algo: &str, res: &RunResult) -> String {
    format!(
        "{{\"engine\":\"{kind:?}\",\"algo\":\"{algo}\",\"verify\":\"{:?}\",\"snapshot\":{}}}",
        res.verify,
        res.metrics.to_snapshot().canonical_json_line()
    )
}

/// Every engine × algorithm cell of this file's grid must reproduce the
/// committed snapshot line byte for byte. On a mismatch the actual grid is
/// written to `CARGO_TARGET_TMPDIR/engine_grid.jsonl`; when a change moves
/// simulated counts on purpose, copy that file over the golden one and
/// name the rows that moved.
#[test]
fn engine_grid_matches_golden_counts() {
    let algos: [(&str, Option<Algo>); 4] = [
        ("sssp", None),
        ("cc", Some(Algo::cc())),
        ("pagerank", Some(Algo::pagerank())),
        ("adsorption", Some(Algo::adsorption())),
    ];
    let mut actual = String::new();
    let mut cells = Vec::new();
    for (name, algo) in algos {
        let e = experiment(algo);
        for kind in ALL_ENGINES {
            let line = grid_line(kind, name, &e.run(kind));
            let _ = writeln!(actual, "{line}");
            cells.push((kind, name, line));
        }
    }
    let golden: Vec<&str> = GOLDEN_GRID.lines().collect();
    let first_diff = cells
        .iter()
        .enumerate()
        .find(|(i, (_, _, line))| golden.get(*i) != Some(&line.as_str()))
        .map(|(i, (kind, name, _))| format!("cell {i} ({kind:?}, {name})"))
        .or_else(|| {
            (golden.len() != cells.len())
                .then(|| format!("{} golden lines for {} cells", golden.len(), cells.len()))
        });
    if let Some(cell) = first_diff {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("engine_grid.jsonl");
        std::fs::write(&out, &actual).expect("write the actual grid");
        panic!(
            "simulated counts moved: first difference at {cell}; actual grid written to {}",
            out.display()
        );
    }
}

#[test]
fn all_engines_agree_on_sssp() {
    let e = experiment(None);
    for kind in ALL_ENGINES {
        let res = e.run(kind);
        assert!(res.verify.is_match(), "{kind:?} diverged on SSSP: {:?}", res.verify);
    }
}

#[test]
fn all_engines_agree_on_cc() {
    let e = experiment(Some(Algo::cc()));
    for kind in ALL_ENGINES {
        let res = e.run(kind);
        assert!(res.verify.is_match(), "{kind:?} diverged on CC: {:?}", res.verify);
    }
}

#[test]
fn all_engines_agree_on_pagerank() {
    let e = experiment(Some(Algo::pagerank()));
    for kind in ALL_ENGINES {
        let res = e.run(kind);
        assert!(res.verify.is_match(), "{kind:?} diverged on PageRank: {:?}", res.verify);
    }
}

#[test]
fn all_engines_agree_on_adsorption() {
    let e = experiment(Some(Algo::adsorption()));
    for kind in ALL_ENGINES {
        let res = e.run(kind);
        assert!(res.verify.is_match(), "{kind:?} diverged on Adsorption: {:?}", res.verify);
    }
}

#[test]
fn all_engines_agree_under_deletion_heavy_stream() {
    let e = experiment(None).tune(|o| o.add_fraction = 0.2);
    for kind in ALL_ENGINES {
        let res = e.run(kind);
        assert!(res.verify.is_match(), "{kind:?} diverged under deletions: {:?}", res.verify);
    }
}

#[test]
fn all_engines_agree_under_addition_only_stream() {
    let e = experiment(Some(Algo::cc())).tune(|o| o.add_fraction = 1.0);
    for kind in ALL_ENGINES {
        let res = e.run(kind);
        assert!(res.verify.is_match(), "{kind:?} diverged (adds only): {:?}", res.verify);
    }
}

//! The strongest correctness property: every engine — four software
//! systems, the TDGraph variants, and all comparator accelerators — must
//! drive every algorithm to the same fixpoint the from-scratch oracle
//! computes, on the same streaming workload.
//!
//! The same grid also pins every engine's absolute simulated counts
//! against `tests/golden/engine_grid.jsonl`, so a refactor that changes
//! what an engine charges the machine fails here even when both paths of
//! the new build agree with each other. The TDGraph configurations the
//! figures sweep beyond the registered defaults (a shallow stack, no
//! DAG-ification, no deferral) are pinned the same way against
//! `tests/golden/tdgraph_configs.jsonl`.

use std::fmt::Write as _;

use tdgraph::accel::tdgraph::{Mode, TdGraph, TdGraphConfig};
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

/// The grid's run options: the test machine, two batches.
fn grid_options() -> RunConfig {
    RunConfig { sim: SimConfig::small_test(), batches: 2, ..RunConfig::default() }
}

fn experiment(algo: Option<Algo>) -> Experiment {
    let mut e = Experiment::new(Dataset::Amazon).sizing(Sizing::Tiny).options(grid_options());
    if let Some(a) = algo {
        e = e.algorithm(a);
    }
    e
}

/// The committed grid: one line per (engine, algorithm) cell.
const GOLDEN_GRID: &str = include_str!("golden/engine_grid.jsonl");

/// The committed TDGraph configuration grid: one line per
/// (configuration, algorithm) cell.
const GOLDEN_TDGRAPH_CONFIGS: &str = include_str!("golden/tdgraph_configs.jsonl");

/// Renders one cell as a golden line: the engine, the algorithm, the
/// oracle verdict and the metrics' canonical snapshot.
fn grid_line(engine: &str, algo: &str, res: &RunResult) -> String {
    format!(
        "{{\"engine\":\"{engine}\",\"algo\":\"{algo}\",\"verify\":\"{:?}\",\"snapshot\":{}}}",
        res.verify,
        res.metrics.to_snapshot().canonical_json_line()
    )
}

/// Compares the rendered `cells` (label, line) with the committed `golden`
/// file byte for byte. On a mismatch the actual lines are written to
/// `CARGO_TARGET_TMPDIR/<file>`; when a change moves simulated counts on
/// purpose, copy that file over the golden one and name the rows that
/// moved.
fn assert_matches_golden(file: &str, golden: &str, cells: &[(String, String)]) {
    let golden: Vec<&str> = golden.lines().collect();
    let first_diff = cells
        .iter()
        .enumerate()
        .find(|(i, (_, line))| golden.get(*i) != Some(&line.as_str()))
        .map(|(i, (label, _))| format!("cell {i} ({label})"))
        .or_else(|| {
            (golden.len() != cells.len())
                .then(|| format!("{} golden lines for {} cells", golden.len(), cells.len()))
        });
    if let Some(cell) = first_diff {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
        let mut actual = String::new();
        for (_, line) in cells {
            let _ = writeln!(actual, "{line}");
        }
        std::fs::write(&out, &actual).expect("write the actual grid");
        panic!(
            "simulated counts moved: first difference at {cell}; actual grid written to {}",
            out.display()
        );
    }
}

/// Every engine × algorithm cell of this file's grid must reproduce the
/// committed snapshot line byte for byte.
#[test]
fn engine_grid_matches_golden_counts() {
    let algos: [(&str, Option<Algo>); 4] = [
        ("sssp", None),
        ("cc", Some(Algo::cc())),
        ("pagerank", Some(Algo::pagerank())),
        ("adsorption", Some(Algo::adsorption())),
    ];
    let mut cells = Vec::new();
    for (name, algo) in algos {
        let e = experiment(algo);
        for kind in ALL_ENGINES {
            let line = grid_line(&format!("{kind:?}"), name, &e.run(kind));
            cells.push((format!("{kind:?}, {name}"), line));
        }
    }
    assert_matches_golden("engine_grid.jsonl", GOLDEN_GRID, &cells);
}

/// Every `TdGraph::with_config` run the engine grid leaves out — both
/// modes × {default, stack depth 1 and 2 (the depth-bound re-root), no
/// DAG-ification, no deferral} × {hub SSSP, PageRank} — on the grid's
/// workload and machine must reproduce the committed snapshot line byte
/// for byte. On this graph the paper-literal (`dagify=false`) counters
/// let PageRank's last propagation into a vertex arrive while that vertex
/// is still expanding lower in the stack; the engine queues it as a root
/// instead of expanding it twice, so those two lines verify `Match` too.
#[test]
fn tdgraph_configs_match_golden_counts() {
    let workload = StreamingWorkload::prepare(Dataset::Amazon, Sizing::Tiny);
    let options = grid_options();
    let d = TdGraphConfig::default();
    let variants = [
        ("default", d),
        ("stack_depth=1", TdGraphConfig { stack_depth: 1, ..d }),
        ("stack_depth=2", TdGraphConfig { stack_depth: 2, ..d }),
        ("dagify=false", TdGraphConfig { dagify: false, ..d }),
        ("defer_reactivations=false", TdGraphConfig { defer_reactivations: false, ..d }),
    ];
    let algos = [("sssp", AlgoSel::HubSssp), ("pagerank", Algo::pagerank().into())];
    let mut cells = Vec::new();
    for (algo_name, algo) in algos {
        let algo = algo.resolve(workload.hub_vertex());
        for mode in [Mode::Hardware, Mode::Software] {
            for (variant, cfg) in variants {
                let cfg = TdGraphConfig { mode, ..cfg };
                let res = options
                    .run(&mut TdGraph::with_config(cfg), algo, workload.clone())
                    .unwrap_or_else(|e| panic!("{mode:?} {variant} {algo_name} failed: {e}"));
                let engine = format!("{mode:?} {variant}");
                let line = grid_line(&engine, algo_name, &res);
                cells.push((format!("{engine}, {algo_name}"), line));
            }
        }
    }
    assert_matches_golden("tdgraph_configs.jsonl", GOLDEN_TDGRAPH_CONFIGS, &cells);
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

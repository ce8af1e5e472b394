//! Figs 16–17: comparison with the event-driven accelerators over FR —
//! off-chip transfer volume split into useful/useless (Fig 16) and
//! execution time of JetStream, JetStream-with, GraphPulse, and TDGraph-H
//! (Fig 17).

use tdgraph::graph::datasets::Dataset;
use tdgraph::{EngineKind, Experiment};

use super::{ExperimentId, ExperimentOutput, Scope};

pub fn run(scope: Scope) -> ExperimentOutput {
    let experiment =
        Experiment::new(Dataset::Friendster).sizing(scope.focus_sizing()).options(scope.options());
    let results = experiment.run_all(&[
        EngineKind::JetStream,
        EngineKind::JetStreamWith,
        EngineKind::GraphPulse,
        EngineKind::TdGraphH,
    ]);
    let mut lines = vec![format!(
        "{:<15} {:>11} {:>12} {:>12} {:>12} {:>9}",
        "engine", "cycles", "dram bytes", "useful B", "useless B", "useful%"
    )];
    for (kind, res) in &results {
        assert!(res.verify.is_match(), "{kind:?} diverged: {:?}", res.verify);
        let m = &res.metrics;
        let useful = (m.dram_bytes as f64 * m.useful_state_ratio) as u64;
        lines.push(format!(
            "{:<15} {:>11} {:>12} {:>12} {:>12} {:>8.1}%",
            m.engine,
            m.cycles,
            m.dram_bytes,
            useful,
            m.dram_bytes - useful,
            100.0 * m.useful_state_ratio,
        ));
    }
    lines.push(String::new());
    for (_, res) in &results[..3] {
        lines.push(format!(
            "TDGraph-H vs {}: {:.2}x faster",
            res.metrics.engine,
            res.metrics.cycles as f64 / results[3].1.metrics.cycles.max(1) as f64
        ));
    }
    lines.push(
        "paper: JetStream prefetches more useless data than TDGraph-H; GraphPulse needs \
         far more memory accesses; TDGraph-H outperforms both JetStream variants"
            .into(),
    );
    ExperimentOutput {
        id: ExperimentId::Fig16,
        title: "Off-chip traffic and execution time vs event-driven accelerators (FR)".into(),
        lines,
    }
}

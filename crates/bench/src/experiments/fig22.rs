//! Fig 22: impact of the hot-vertex fraction α on SSSP over FR.

use tdgraph::graph::datasets::Dataset;
use tdgraph::{EngineKind, Experiment};

use super::{ExperimentId, ExperimentOutput, Scope};

pub fn run(scope: Scope) -> ExperimentOutput {
    let experiment =
        Experiment::new(Dataset::Friendster).sizing(scope.focus_sizing()).options(scope.options());
    let mut lines =
        vec![format!("{:<8} {:>11} {:>12} {:>9}", "alpha", "cycles", "norm(0.5%)", "useful%")];
    let mut at_default = 0u64;
    let mut rows = Vec::new();
    for alpha in [0.0005f64, 0.001, 0.0025, 0.005, 0.01, 0.02, 0.05] {
        let res = experiment.clone().tune(|o| o.alpha = alpha).run(EngineKind::TdGraphH);
        assert!(res.verify.is_match(), "alpha {alpha} diverged");
        if (alpha - 0.005).abs() < 1e-12 {
            at_default = res.metrics.cycles.max(1);
        }
        rows.push((alpha, res.metrics.cycles, res.metrics.useful_state_ratio));
    }
    for (alpha, cycles, useful) in rows {
        lines.push(format!(
            "{:<8} {:>11} {:>12.3} {:>8.1}%",
            format!("{:.2}%", 100.0 * alpha),
            cycles,
            cycles as f64 / at_default as f64,
            100.0 * useful,
        ));
    }
    lines.push(String::new());
    lines.push(
        "paper: α is a trade-off — too few hot vertices leave accesses uncoalesced, too \
         many add overhead; 0.5% is the default"
            .into(),
    );
    ExperimentOutput {
        id: ExperimentId::Fig22, title: "Impact of α on SSSP over FR".into(), lines
    }
}

//! Fig 21: sensitivity to the TDTU traversal-stack depth on SSSP over FR.

use tdgraph::graph::datasets::{Dataset, StreamingWorkload};
use tdgraph::AlgoSel;
use tdgraph_accel::tdgraph::{TdGraph, TdGraphConfig};

use super::{ExperimentId, ExperimentOutput, Scope};

pub fn run(scope: Scope) -> ExperimentOutput {
    let workload = StreamingWorkload::prepare(Dataset::Friendster, scope.focus_sizing());
    let sssp = AlgoSel::HubSssp.resolve(workload.hub_vertex());
    let options = scope.options();
    let mut lines = vec![format!("{:<7} {:>11} {:>11}", "depth", "cycles", "norm(d=10)")];
    let mut at_ten = 0u64;
    let mut rows = Vec::new();
    for depth in [2usize, 4, 6, 8, 10, 12, 16, 32] {
        let cfg = TdGraphConfig { stack_depth: depth, ..TdGraphConfig::default() };
        let res = options
            .run(&mut TdGraph::with_config(cfg), sssp, workload.clone())
            .unwrap_or_else(|e| panic!("depth {depth} failed: {e}"));
        assert!(res.verify.is_match(), "depth {depth} diverged");
        if depth == 10 {
            at_ten = res.metrics.cycles.max(1);
        }
        rows.push((depth, res.metrics.cycles));
    }
    for (depth, cycles) in rows {
        lines.push(format!("{:<7} {:>11} {:>11.3}", depth, cycles, cycles as f64 / at_ten as f64));
    }
    lines.push(String::new());
    lines.push(
        "paper: performance is insensitive to depths beyond ten, so a fixed depth-10 \
         stack suffices"
            .into(),
    );
    ExperimentOutput {
        id: ExperimentId::Fig21,
        title: "Sensitivity to the depth of the stack on SSSP over FR".into(),
        lines,
    }
}

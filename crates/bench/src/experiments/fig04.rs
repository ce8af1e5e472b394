//! Fig 4: the two observations behind TDGraph —
//! (a) propagations from multiple affected vertices visit largely
//! overlapping vertex sets, and (b) most state accesses refer to a small
//! set of hot vertices.

use std::collections::HashMap;

use tdgraph::algos::incremental::{seed_after_batch, AlgoState};
use tdgraph::algos::scratch::{out_mass, solve};
use tdgraph::algos::tap::AccessTap;
use tdgraph::algos::tap::{NullTap, StateTraceTap};
use tdgraph::algos::traits::Algo;
use tdgraph::graph::datasets::{Dataset, StreamingWorkload};
use tdgraph::graph::store::GraphStore;
use tdgraph::graph::types::VertexId;
use tdgraph::graph::update::BatchComposer;

use super::{ExperimentId, ExperimentOutput, Scope};

pub fn run(scope: Scope) -> ExperimentOutput {
    let mut lines = vec![format!(
        "{:<4} {:>9} {:>10} {:>9} | {:>8} {:>8} {:>8} {:>8}",
        "ds", "roots", "overlap%", "visited", "a=0.1%", "a=0.2%", "a=0.5%", "a=1.0%"
    )];
    for ds in Dataset::ALL {
        let (overlap, visited, roots, skew) = analyze(ds, scope);
        lines.push(format!(
            "{:<4} {:>9} {:>9.1}% {:>9} | {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            ds.abbrev(),
            roots,
            100.0 * overlap,
            visited,
            100.0 * skew[0],
            100.0 * skew[1],
            100.0 * skew[2],
            100.0 * skew[3],
        ));
    }
    lines.push(String::new());
    lines.push(
        "paper: overlap >73.3% of visited vertices; >69.3% of accesses hit the top 0.5%".into(),
    );
    ExperimentOutput {
        id: ExperimentId::Fig04,
        title: "Statistical studies on the characteristics of Ligra-o on SSSP".into(),
        lines,
    }
}

/// Returns (overlap fraction, visited vertices, root count, top-α access
/// shares for α ∈ {0.1, 0.2, 0.5, 1.0}%).
fn analyze(ds: Dataset, scope: Scope) -> (f64, usize, usize, [f64; 4]) {
    let workload = StreamingWorkload::prepare(ds, scope.sweep_sizing());
    let algo = Algo::sssp(workload.hub_vertex());
    let batch_size = workload.default_batch_size();
    let StreamingWorkload { mut graph, pending, .. } = workload;
    let snapshot = graph.snapshot();
    let mut state = AlgoState::from_solution(solve(&algo, &snapshot), snapshot.vertex_count());

    let mut composer = BatchComposer::new(pending, 0.75, 42);
    let present = graph.edges_vec();
    let batch = composer.next_batch(batch_size, &present).expect("workload has updates");
    let applied = graph.apply_batch(&batch).expect("valid batch");
    let snapshot = graph.snapshot();
    let transpose = snapshot.transpose();
    let mass = out_mass(&algo, &snapshot);
    let affected =
        seed_after_batch(&algo, &snapshot, &transpose, &mass, &mut state, &applied, &mut NullTap);

    // (a) Per-root reachability: how many visited vertices are shared by
    // two or more roots' propagation paths.
    let mut visit_count: HashMap<VertexId, u32> = HashMap::new();
    for &root in affected.iter().take(64) {
        let mut seen = vec![false; snapshot.vertex_count()];
        let mut stack = vec![root];
        seen[root as usize] = true;
        while let Some(v) = stack.pop() {
            *visit_count.entry(v).or_insert(0) += 1;
            for n in snapshot.neighbors(v) {
                if !seen[*n as usize] {
                    seen[*n as usize] = true;
                    stack.push(*n);
                }
            }
        }
    }
    let visited = visit_count.len().max(1);
    let shared = visit_count.values().filter(|&&c| c >= 2).count();
    let overlap = shared as f64 / visited as f64;

    // (b) State-access skew during the propagation from the affected set.
    let mut tap = StateTraceTap::default();
    for &v in &affected {
        tap.touch(tdgraph::algos::tap::AccessEvent::ReadState(v));
    }
    let mut queue: Vec<VertexId> = affected.clone();
    while let Some(v) = queue.pop() {
        let s = state.states[v as usize];
        if !s.is_finite() {
            continue;
        }
        for (i, (n, w)) in snapshot.out_edges(v).enumerate() {
            let _ = i;
            tap.touch(tdgraph::algos::tap::AccessEvent::ReadState(n));
            let cand = algo.mono_propagate(s, w);
            if algo.mono_better(cand, state.states[n as usize]) {
                tap.touch(tdgraph::algos::tap::AccessEvent::WriteState(n));
                state.states[n as usize] = cand;
                queue.push(n);
            }
        }
    }
    let mut per_vertex: HashMap<VertexId, u64> = HashMap::new();
    for &v in &tap.trace {
        *per_vertex.entry(v).or_insert(0) += 1;
    }
    let mut counts: Vec<u64> = per_vertex.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = counts.iter().sum::<u64>().max(1);
    let n = snapshot.vertex_count();
    let share = |alpha: f64| -> f64 {
        let k = ((n as f64 * alpha).ceil() as usize).max(1);
        counts.iter().take(k).sum::<u64>() as f64 / total as f64
    };
    (
        overlap,
        visited,
        affected.len().min(64),
        [share(0.001), share(0.002), share(0.005), share(0.01)],
    )
}

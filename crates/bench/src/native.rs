//! Native (host) execution of the software engines — no simulator.
//!
//! Fig 14 runs the software-only systems on a real 64-core machine to show
//! TDGraph-S-without beats Ligra-o in pure software. Here the same
//! comparison runs natively on the build host: both engines execute the
//! real algorithms on the real data structures and are wall-clock timed.

use std::time::{Duration, Instant};

use tdgraph::algos::incremental::{seed_after_batch, AlgoState};
use tdgraph::algos::scratch::{out_mass, patch_out_mass, solve};
use tdgraph::algos::tap::NullTap;
use tdgraph::algos::traits::{Algo, AlgorithmKind};
use tdgraph::algos::verify::compare;
use tdgraph::graph::csr::Csr;
use tdgraph::graph::datasets::{Dataset, Sizing, StreamingWorkload};
use tdgraph::graph::store::GraphStore;
use tdgraph::graph::types::VertexId;
use tdgraph::graph::update::BatchComposer;

/// Which native engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeEngine {
    /// Synchronous push rounds (Ligra-o's schedule).
    LigraO,
    /// Software topology-driven execution (TDGraph-S-without: tracking +
    /// gated propagation, no coalescing — coalescing has no host analog).
    TdGraphSWithout,
}

impl NativeEngine {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NativeEngine::LigraO => "Ligra-o (native)",
            NativeEngine::TdGraphSWithout => "TDGraph-S-without (native)",
        }
    }
}

/// Result of a native run.
#[derive(Debug, Clone)]
pub struct NativeRun {
    /// Engine that ran.
    pub engine: NativeEngine,
    /// Wall-clock time spent in incremental processing (seeding excluded).
    pub propagation_time: Duration,
    /// State updates performed.
    pub updates: u64,
    /// Whether the final states matched the oracle.
    pub verified: bool,
}

/// Runs `engine` natively over `batches` update batches of the dataset.
#[must_use]
pub fn run_native(
    engine: NativeEngine,
    algo_sel: Option<Algo>,
    dataset: Dataset,
    sizing: Sizing,
    batches: usize,
) -> NativeRun {
    let workload = StreamingWorkload::prepare(dataset, sizing);
    let algo = algo_sel.unwrap_or(Algo::sssp(workload.hub_vertex()));
    let batch_size = workload.default_batch_size();
    let StreamingWorkload { mut graph, pending, .. } = workload;
    // Built once, then patched by each batch's delta.
    let mut snapshot = graph.snapshot();
    let mut transpose = snapshot.transpose();
    let mut mass = out_mass(&algo, &snapshot);
    let mut state = AlgoState::from_solution(solve(&algo, &snapshot), snapshot.vertex_count());

    let mut composer = BatchComposer::new(pending, 0.75, 42);
    let mut propagation_time = Duration::ZERO;
    let mut updates = 0u64;

    for _ in 0..batches {
        let present = graph.edges_vec();
        let Some(batch) = composer.next_batch(batch_size, &present) else { break };
        let applied = graph.apply_batch(&batch).expect("valid batch");
        applied.patch_snapshot(&mut snapshot, &mut transpose);
        patch_out_mass(&algo, &snapshot, &mut mass, &applied);
        let affected = seed_after_batch(
            &algo,
            &snapshot,
            &transpose,
            &mass,
            &mut state,
            &applied,
            &mut NullTap,
        );
        let start = Instant::now();
        updates += match engine {
            NativeEngine::LigraO => sync_push(&algo, &snapshot, &mass, &mut state, &affected),
            NativeEngine::TdGraphSWithout => {
                topology_driven(&algo, &snapshot, &mass, &mut state, &affected)
            }
        };
        propagation_time += start.elapsed();
    }

    let oracle = solve(&algo, &snapshot);
    let verified = compare(&algo, &state.states, &oracle.states).is_match();
    NativeRun { engine, propagation_time, updates, verified }
}

/// Ligra-style synchronous push rounds. Returns the update count.
fn sync_push(
    algo: &Algo,
    graph: &Csr,
    mass: &[f32],
    state: &mut AlgoState,
    affected: &[VertexId],
) -> u64 {
    let n = graph.vertex_count();
    let eps = algo.epsilon();
    let mut updates = 0u64;
    let mut frontier: Vec<VertexId> = affected.to_vec();
    let mut queued = vec![false; n];
    while !frontier.is_empty() {
        let mut next: Vec<VertexId> = Vec::new();
        for v in frontier.drain(..) {
            queued[v as usize] = false;
            match algo.kind() {
                AlgorithmKind::Monotonic => {
                    let s = state.states[v as usize];
                    if !s.is_finite() {
                        continue;
                    }
                    for (nbr, w) in graph.out_edges(v) {
                        let cand = algo.mono_propagate(s, w);
                        if algo.mono_better(cand, state.states[nbr as usize]) {
                            state.states[nbr as usize] = cand;
                            state.parents[nbr as usize] = v;
                            updates += 1;
                            if !queued[nbr as usize] {
                                queued[nbr as usize] = true;
                                next.push(nbr);
                            }
                        }
                    }
                }
                AlgorithmKind::Accumulative => {
                    let r = state.residuals[v as usize];
                    if r.abs() < eps {
                        continue;
                    }
                    state.residuals[v as usize] = 0.0;
                    state.states[v as usize] += r;
                    updates += 1;
                    if mass[v as usize] <= 0.0 {
                        continue;
                    }
                    for (nbr, w) in graph.out_edges(v) {
                        let push = algo.acc_scale(r, w, mass[v as usize]);
                        state.residuals[nbr as usize] += push;
                        if state.residuals[nbr as usize].abs() >= eps && !queued[nbr as usize] {
                            queued[nbr as usize] = true;
                            next.push(nbr);
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    updates
}

/// Software topology-driven execution: DFS tracking (discovery-ordered
/// counters) followed by gated propagation — the TDGraph-S algorithm
/// without any hardware support.
fn topology_driven(
    algo: &Algo,
    graph: &Csr,
    mass: &[f32],
    state: &mut AlgoState,
    affected: &[VertexId],
) -> u64 {
    let n = graph.vertex_count();
    let eps = algo.epsilon();
    let mut updates = 0u64;

    // Tracking: discovery-ordered in-degree counters over the reachable
    // subgraph.
    let mut topology = vec![0u32; n];
    let mut discover = vec![0u32; n];
    let mut stamp = 0u32;
    let mut is_seed = vec![false; n];
    for &v in affected {
        is_seed[v as usize] = true;
    }
    let mut stack: Vec<VertexId> = Vec::new();
    for &root in affected {
        if discover[root as usize] == 0 {
            stamp += 1;
            discover[root as usize] = stamp;
            stack.push(root);
        }
        while let Some(v) = stack.pop() {
            for (nbr, _w) in graph.out_edges(v) {
                let fresh = discover[nbr as usize] == 0;
                if fresh {
                    stamp += 1;
                    discover[nbr as usize] = stamp;
                }
                if fresh || discover[nbr as usize] > discover[v as usize] {
                    topology[nbr as usize] += 1;
                    if fresh && !is_seed[nbr as usize] {
                        stack.push(nbr);
                    }
                }
            }
        }
    }

    // Gated propagation.
    let mut ready: Vec<VertexId> = Vec::new();
    let mut active = vec![false; n];
    for &v in affected {
        active[v as usize] = true;
        if topology[v as usize] == 0 {
            ready.push(v);
        }
    }
    let mut pending: Vec<VertexId> = Vec::new();
    loop {
        let v = match ready.pop() {
            Some(v) => v,
            None => {
                pending.retain(|&p| active[p as usize]);
                match pending.pop() {
                    Some(p) => p,
                    None => break,
                }
            }
        };
        if !active[v as usize] && topology[v as usize] != 0 {
            continue;
        }
        active[v as usize] = false;
        let carry = match algo.kind() {
            AlgorithmKind::Monotonic => state.states[v as usize],
            AlgorithmKind::Accumulative => {
                let r = state.residuals[v as usize];
                if r.abs() >= eps {
                    state.residuals[v as usize] = 0.0;
                    state.states[v as usize] += r;
                    updates += 1;
                    r
                } else {
                    0.0
                }
            }
        };
        for (nbr, w) in graph.out_edges(v) {
            let forward = discover[nbr as usize] == 0
                || discover[v as usize] == 0
                || discover[nbr as usize] > discover[v as usize];
            let transitioned = if forward {
                let b = topology[nbr as usize];
                topology[nbr as usize] = b.saturating_sub(1);
                b == 1
            } else {
                false
            };
            let improved = match algo.kind() {
                AlgorithmKind::Monotonic => {
                    if !carry.is_finite() {
                        false
                    } else {
                        let cand = algo.mono_propagate(carry, w);
                        if algo.mono_better(cand, state.states[nbr as usize]) {
                            state.states[nbr as usize] = cand;
                            state.parents[nbr as usize] = v;
                            updates += 1;
                            true
                        } else {
                            false
                        }
                    }
                }
                AlgorithmKind::Accumulative => {
                    if carry != 0.0 && mass[v as usize] > 0.0 {
                        let push = algo.acc_scale(carry, w, mass[v as usize]);
                        state.residuals[nbr as usize] += push;
                        state.residuals[nbr as usize].abs() >= eps
                    } else {
                        false
                    }
                }
            };
            if transitioned {
                active[nbr as usize] = true;
                ready.push(nbr);
            } else if improved && !active[nbr as usize] {
                active[nbr as usize] = true;
                pending.push(nbr);
            }
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_ligra_verifies() {
        let run = run_native(NativeEngine::LigraO, None, Dataset::Amazon, Sizing::Tiny, 2);
        assert!(run.verified);
    }

    #[test]
    fn native_tdgraph_s_verifies_on_all_algorithms() {
        for algo in [None, Some(Algo::cc()), Some(Algo::pagerank()), Some(Algo::adsorption())] {
            let run =
                run_native(NativeEngine::TdGraphSWithout, algo, Dataset::Amazon, Sizing::Tiny, 2);
            assert!(run.verified, "native TDGraph-S diverged for {algo:?}");
        }
    }

    #[test]
    fn both_native_engines_count_updates() {
        let a = run_native(NativeEngine::LigraO, None, Dataset::Dblp, Sizing::Tiny, 1);
        let b = run_native(NativeEngine::TdGraphSWithout, None, Dataset::Dblp, Sizing::Tiny, 1);
        assert!(a.updates > 0 && b.updates > 0);
    }
}

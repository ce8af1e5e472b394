//! From-scratch fixpoint solvers.
//!
//! These compute the converged states of a snapshot directly. They serve
//! two roles: producing the initial fixed point after the 50 % load
//! (§4.1), and acting as the correctness oracle every incremental engine is
//! verified against.

use std::collections::VecDeque;

use tdgraph_graph::csr::Csr;
use tdgraph_graph::streaming::AppliedBatch;
use tdgraph_graph::types::VertexId;

use crate::traits::{Algo, AlgorithmKind};

/// Sentinel for "no dependency parent".
pub const NO_PARENT: VertexId = VertexId::MAX;

/// Converged algorithm state for one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Per-vertex converged states.
    pub states: Vec<f32>,
    /// Monotonic dependency parents (`NO_PARENT` where none); empty for
    /// accumulative algorithms.
    pub parents: Vec<VertexId>,
    /// Accumulative residual vector at convergence (all below ε); empty for
    /// monotonic algorithms.
    pub residuals: Vec<f32>,
}

/// Total outgoing edge mass per vertex (out-degree for PageRank, summed
/// weights for Adsorption). Needed to split pushed residuals.
#[must_use]
pub fn out_mass(algo: &Algo, graph: &Csr) -> Vec<f32> {
    (0..graph.vertex_count() as VertexId).map(|v| row_mass(algo, graph, v)).collect()
}

/// Brings `mass`, the [`out_mass`] of the snapshot before `applied`, up to
/// date with `graph`, the snapshot after it. Only the source rows the batch
/// changed are summed again, each as [`out_mass`] sums it, so `mass` equals
/// `out_mass(algo, graph)` bit for bit.
pub fn patch_out_mass(algo: &Algo, graph: &Csr, mass: &mut [f32], applied: &AppliedBatch) {
    let reweighted = applied.reweighted_edges().iter().map(|(e, _)| e);
    for e in applied.added_edges().iter().chain(applied.deleted_edges()).chain(reweighted) {
        mass[e.src as usize] = row_mass(algo, graph, e.src);
    }
}

fn row_mass(algo: &Algo, graph: &Csr, v: VertexId) -> f32 {
    graph.weights(v).iter().map(|&w| algo.edge_mass(w)).sum()
}

/// Solves `algo` on `graph` from scratch.
#[must_use]
pub fn solve(algo: &Algo, graph: &Csr) -> Solution {
    match algo.kind() {
        AlgorithmKind::Monotonic => solve_monotonic(algo, graph),
        AlgorithmKind::Accumulative => solve_accumulative(algo, graph),
    }
}

fn solve_monotonic(algo: &Algo, graph: &Csr) -> Solution {
    let n = graph.vertex_count();
    let mut states: Vec<f32> = (0..n as VertexId).map(|v| algo.mono_init(v)).collect();
    let mut parents = vec![NO_PARENT; n];
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    let mut queued = vec![false; n];
    for v in 0..n as VertexId {
        if states[v as usize].is_finite() {
            queue.push_back(v);
            queued[v as usize] = true;
        }
    }
    while let Some(v) = queue.pop_front() {
        queued[v as usize] = false;
        let s = states[v as usize];
        for (nbr, w) in graph.out_edges(v) {
            let cand = algo.mono_propagate(s, w);
            if algo.mono_better(cand, states[nbr as usize]) {
                states[nbr as usize] = cand;
                parents[nbr as usize] = v;
                if !queued[nbr as usize] {
                    queued[nbr as usize] = true;
                    queue.push_back(nbr);
                }
            }
        }
    }
    Solution { states, parents, residuals: Vec::new() }
}

fn solve_accumulative(algo: &Algo, graph: &Csr) -> Solution {
    let n = graph.vertex_count();
    let mass = out_mass(algo, graph);
    let eps = algo.epsilon();
    let mut states = vec![0.0f32; n];
    let mut residuals: Vec<f32> = (0..n as VertexId).map(|v| algo.acc_base(v)).collect();
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    let mut queued = vec![false; n];
    for v in 0..n as VertexId {
        if residuals[v as usize].abs() >= eps {
            queue.push_back(v);
            queued[v as usize] = true;
        }
    }
    while let Some(v) = queue.pop_front() {
        queued[v as usize] = false;
        let r = residuals[v as usize];
        if r.abs() < eps {
            continue;
        }
        residuals[v as usize] = 0.0;
        states[v as usize] += r;
        let m = mass[v as usize];
        if m <= 0.0 {
            continue;
        }
        for (nbr, w) in graph.out_edges(v) {
            let push = algo.acc_scale(r, w, m);
            residuals[nbr as usize] += push;
            if residuals[nbr as usize].abs() >= eps && !queued[nbr as usize] {
                queued[nbr as usize] = true;
                queue.push_back(nbr);
            }
        }
    }
    Solution { states, parents: Vec::new(), residuals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_graph::store::GraphStore;
    use tdgraph_graph::streaming::StreamingGraph;
    use tdgraph_graph::types::Edge;
    use tdgraph_graph::update::{EdgeUpdate, UpdateBatch};

    fn chain() -> Csr {
        Csr::from_edges(4, &[Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0), Edge::new(2, 3, 3.0)])
    }

    #[test]
    fn sssp_on_chain() {
        let s = solve(&Algo::sssp(0), &chain());
        assert_eq!(s.states, vec![0.0, 1.0, 3.0, 6.0]);
        assert_eq!(s.parents, vec![NO_PARENT, 0, 1, 2]);
    }

    #[test]
    fn sssp_takes_shorter_of_two_paths() {
        let g = Csr::from_edges(
            4,
            &[
                Edge::new(0, 1, 10.0),
                Edge::new(0, 2, 1.0),
                Edge::new(2, 1, 2.0),
                Edge::new(1, 3, 1.0),
            ],
        );
        let s = solve(&Algo::sssp(0), &g);
        assert_eq!(s.states[1], 3.0);
        assert_eq!(s.parents[1], 2);
        assert_eq!(s.states[3], 4.0);
    }

    #[test]
    fn sssp_unreachable_stays_infinite() {
        let g = Csr::from_edges(3, &[Edge::new(0, 1, 1.0)]);
        let s = solve(&Algo::sssp(0), &g);
        assert!(s.states[2].is_infinite());
        assert_eq!(s.parents[2], NO_PARENT);
    }

    #[test]
    fn cc_labels_min_over_reachability() {
        // 0 -> 1 -> 2 and isolated 3.
        let s = solve(&Algo::cc(), &chain());
        assert_eq!(s.states, vec![0.0, 0.0, 0.0, 0.0]);
        let g = Csr::from_edges(4, &[Edge::new(2, 3, 1.0)]);
        let s = solve(&Algo::cc(), &g);
        assert_eq!(s.states, vec![0.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn pagerank_sums_match_closed_form_on_cycle() {
        // 2-cycle: r = (1-d) + d*r  =>  r = 1 for both vertices.
        let g = Csr::from_edges(2, &[Edge::new(0, 1, 1.0), Edge::new(1, 0, 1.0)]);
        let s = solve(&Algo::pagerank(), &g);
        assert!((s.states[0] - 1.0).abs() < 1e-2, "r0 = {}", s.states[0]);
        assert!((s.states[1] - 1.0).abs() < 1e-2);
        // Residuals are converged.
        assert!(s.residuals.iter().all(|r| r.abs() < Algo::pagerank().epsilon()));
    }

    #[test]
    fn pagerank_sink_keeps_base_only_neighbors() {
        // 0 -> 1: r0 = 0.15, r1 = 0.15 + 0.85*0.15.
        let g = Csr::from_edges(2, &[Edge::new(0, 1, 1.0)]);
        let s = solve(&Algo::pagerank(), &g);
        assert!((s.states[0] - 0.15).abs() < 1e-3);
        assert!((s.states[1] - (0.15 + 0.85 * 0.15)).abs() < 1e-3);
    }

    #[test]
    fn adsorption_respects_weights() {
        // Seed at 0 (stride 16); edges 0->1 (heavy), 0->2 (light).
        let g = Csr::from_edges(3, &[Edge::new(0, 1, 9.0), Edge::new(0, 2, 1.0)]);
        let s = solve(&Algo::adsorption(), &g);
        assert!(s.states[1] > s.states[2]);
        assert!(s.states[0] > 0.0);
    }

    #[test]
    fn out_mass_matches_algorithm() {
        let g = Csr::from_edges(2, &[Edge::new(0, 1, 3.0)]);
        assert_eq!(out_mass(&Algo::pagerank(), &g), vec![1.0, 0.0]);
        assert_eq!(out_mass(&Algo::adsorption(), &g), vec![3.0, 0.0]);
    }

    /// Fractional weights make the sum order matter: the patched rows
    /// must still come out bit for bit as a recompute sums them.
    #[test]
    fn patched_out_mass_equals_a_recompute() {
        let mut g = StreamingGraph::with_capacity(5);
        g.insert_edges([0.3, 0.1, 0.7].iter().zip(1..).map(|(&w, d)| Edge::new(0, d, w))).unwrap();
        g.insert_edges([Edge::new(2, 0, 0.2), Edge::new(3, 4, 0.9)]).unwrap();
        let mut snapshot = g.snapshot();
        let mut transpose = snapshot.transpose();
        let algo = Algo::adsorption();
        let mut mass = out_mass(&algo, &snapshot);
        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(0, 4, 0.6),
            EdgeUpdate::addition(2, 0, 0.35),
            EdgeUpdate::deletion(3, 4),
        ])
        .unwrap();
        let applied = g.apply_batch(&batch).unwrap();
        applied.patch_snapshot(&mut snapshot, &mut transpose);
        patch_out_mass(&algo, &snapshot, &mut mass, &applied);
        let bits = |m: &[f32]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&mass), bits(&out_mass(&algo, &g.snapshot())));
    }

    #[test]
    fn empty_graph_solutions() {
        let g = Csr::from_edges(0, &[]);
        for algo in [Algo::sssp(0), Algo::cc(), Algo::pagerank(), Algo::adsorption()] {
            let s = solve(&algo, &g);
            assert!(s.states.is_empty());
        }
    }
}

//! Incremental-computation seeding (§2.1).
//!
//! After a batch is applied, the previous snapshot's converged states must
//! be adjusted and an initial *affected* set produced; the execution engine
//! then propagates from that set to the new fixpoint. The adjustment rules
//! differ by category:
//!
//! * **Monotonic** (SSSP, CC) — additions are relaxed directly; deletions
//!   trigger the paper's five steps: tag-propagate the dependence subtree of
//!   each unsafe deleted edge (①), reset those vertices to their initial
//!   values (②), regather each reset vertex over its incoming edges (③),
//!   mark it affected (④), and leave the propagation (⑤) to the engine.
//! * **Accumulative** (PageRank, Adsorption) — the previously converged
//!   contribution of each changed source is cancelled and its new
//!   contribution injected, as signed residuals at the destination vertices;
//!   the engine then propagates residuals.
//!
//! Every data-structure touch is reported through an
//! [`crate::tap::AccessTap`] so engines can charge the work to the
//! simulator.

use std::collections::{BTreeMap, HashMap};

use tdgraph_graph::csr::Csr;
use tdgraph_graph::streaming::AppliedBatch;
use tdgraph_graph::types::{VertexId, Weight};

use crate::scratch::{Solution, NO_PARENT};
use crate::tap::{AccessEvent, AccessTap};
use crate::traits::{Algo, AlgorithmKind};

/// Mutable per-vertex algorithm state carried across batches.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoState {
    /// Current states.
    pub states: Vec<f32>,
    /// Dependency parents (monotonic only; `NO_PARENT` elsewhere).
    pub parents: Vec<VertexId>,
    /// Pending residuals (accumulative only).
    pub residuals: Vec<f32>,
}

impl AlgoState {
    /// Wraps a converged from-scratch [`Solution`].
    #[must_use]
    pub fn from_solution(sol: Solution, vertex_count: usize) -> Self {
        let mut s = Self { states: sol.states, parents: sol.parents, residuals: sol.residuals };
        s.states.resize(vertex_count, 0.0);
        s.parents.resize(vertex_count, NO_PARENT);
        s.residuals.resize(vertex_count, 0.0);
        s
    }
}

/// Adjusts `state` for `applied` updates and returns the sorted initial
/// affected set. `graph` is the *new* snapshot, `transpose` its reverse
/// and `out_mass` its [`crate::scratch::out_mass`] (read by the
/// accumulative algorithms).
pub fn seed_after_batch<T: AccessTap>(
    algo: &Algo,
    graph: &Csr,
    transpose: &Csr,
    out_mass: &[f32],
    state: &mut AlgoState,
    applied: &AppliedBatch,
    tap: &mut T,
) -> Vec<VertexId> {
    match algo.kind() {
        AlgorithmKind::Monotonic => seed_monotonic(algo, graph, transpose, state, applied, tap),
        AlgorithmKind::Accumulative => {
            seed_accumulative(algo, graph, out_mass, state, applied, tap)
        }
    }
}

// ---------------------------------------------------------------------
// Monotonic seeding
// ---------------------------------------------------------------------

fn seed_monotonic<T: AccessTap>(
    algo: &Algo,
    graph: &Csr,
    transpose: &Csr,
    state: &mut AlgoState,
    applied: &AppliedBatch,
    tap: &mut T,
) -> Vec<VertexId> {
    let mut affected: Vec<VertexId> = Vec::new();

    // Additions (and reweights relaxed with the new weight): Fig 2(b)
    // steps ①②.
    for e in applied
        .added_edges()
        .iter()
        .copied()
        .chain(applied.reweighted_edges().iter().map(|&(e, _)| e))
    {
        tap.touch(AccessEvent::ReadState(e.src));
        tap.touch(AccessEvent::ReadState(e.dst));
        let cand = algo.mono_propagate(state.states[e.src as usize], e.weight);
        if algo.mono_better(cand, state.states[e.dst as usize]) {
            state.states[e.dst as usize] = cand;
            state.parents[e.dst as usize] = e.src;
            tap.touch(AccessEvent::WriteState(e.dst));
            tap.touch(AccessEvent::WriteAux(e.dst));
            affected.push(e.dst);
        }
    }

    // Deletions (and weight increases on the dependency edge): Fig 2(c).
    let mut suspects: Vec<VertexId> = Vec::new();
    for e in applied.deleted_edges() {
        tap.touch(AccessEvent::ReadAux(e.dst));
        if state.parents[e.dst as usize] == e.src {
            suspects.push(e.dst);
        }
    }
    for (e, old_w) in applied.reweighted_edges() {
        if e.weight > *old_w {
            tap.touch(AccessEvent::ReadAux(e.dst));
            if state.parents[e.dst as usize] == e.src {
                suspects.push(e.dst);
            }
        }
    }
    if suspects.is_empty() {
        affected.sort_unstable();
        affected.dedup();
        return affected;
    }

    // Step ①: tag propagation over the dependence forest.
    let mut invalid = vec![false; graph.vertex_count()];
    let mut stack: Vec<VertexId> = Vec::new();
    for v in suspects {
        if !invalid[v as usize] {
            invalid[v as usize] = true;
            stack.push(v);
        }
    }
    let mut invalid_list: Vec<VertexId> = Vec::new();
    while let Some(v) = stack.pop() {
        invalid_list.push(v);
        tap.touch(AccessEvent::ReadOffsets(v));
        let (lo, _hi) = graph.neighbor_range(v);
        for (i, (nbr, _w)) in graph.out_edges(v).enumerate() {
            tap.touch(AccessEvent::ReadNeighbor((lo + i) as u64));
            tap.touch(AccessEvent::ReadAux(nbr));
            if !invalid[nbr as usize] && state.parents[nbr as usize] == v {
                invalid[nbr as usize] = true;
                stack.push(nbr);
            }
        }
    }

    // Step ②: reset.
    for &v in &invalid_list {
        state.states[v as usize] = algo.mono_init(v);
        state.parents[v as usize] = NO_PARENT;
        tap.touch(AccessEvent::WriteState(v));
        tap.touch(AccessEvent::WriteAux(v));
    }

    // Step ③: regather over incoming edges. Reset vertices contribute
    // their (safe) initial values; valid vertices their converged states.
    for &v in &invalid_list {
        tap.touch(AccessEvent::ReadOffsets(v));
        let (lo, _hi) = transpose.neighbor_range(v);
        let mut best = state.states[v as usize];
        let mut best_parent = state.parents[v as usize];
        for (i, (src, w)) in transpose.out_edges(v).enumerate() {
            tap.touch(AccessEvent::ReadNeighbor((lo + i) as u64));
            tap.touch(AccessEvent::ReadState(src));
            let cand = algo.mono_propagate(state.states[src as usize], w);
            if algo.mono_better(cand, best) {
                best = cand;
                best_parent = src;
            }
        }
        if algo.mono_better(best, state.states[v as usize]) {
            state.states[v as usize] = best;
            state.parents[v as usize] = best_parent;
            tap.touch(AccessEvent::WriteState(v));
            tap.touch(AccessEvent::WriteAux(v));
        }
        // Step ④: every reset vertex becomes affected.
        affected.push(v);
    }

    affected.sort_unstable();
    affected.dedup();
    affected
}

// ---------------------------------------------------------------------
// Accumulative seeding
// ---------------------------------------------------------------------

fn seed_accumulative<T: AccessTap>(
    algo: &Algo,
    graph: &Csr,
    new_mass: &[f32],
    state: &mut AlgoState,
    applied: &AppliedBatch,
    tap: &mut T,
) -> Vec<VertexId> {
    let eps = algo.epsilon();
    // Group the topology changes by source vertex.
    #[derive(Default)]
    struct SourceDelta {
        added: Vec<(VertexId, Weight)>,
        deleted: Vec<(VertexId, Weight)>,
        reweighted: Vec<(VertexId, Weight, Weight)>, // (dst, new_w, old_w)
    }
    // Ordered map: the injection loop below both emits tap events and
    // accumulates f32 residuals per destination, so its iteration order
    // must be reproducible run to run for the cycle counts and affected
    // sets to be deterministic.
    let mut by_src: BTreeMap<VertexId, SourceDelta> = BTreeMap::new();
    for e in applied.added_edges() {
        by_src.entry(e.src).or_default().added.push((e.dst, e.weight));
    }
    for e in applied.deleted_edges() {
        by_src.entry(e.src).or_default().deleted.push((e.dst, e.weight));
    }
    for (e, old_w) in applied.reweighted_edges() {
        by_src.entry(e.src).or_default().reweighted.push((e.dst, e.weight, *old_w));
    }

    let mut affected: Vec<VertexId> = Vec::new();

    for (src, delta) in by_src {
        tap.touch(AccessEvent::ReadState(src));
        let r = state.states[src as usize];
        let m_new = new_mass[src as usize];
        // Reconstruct the old outgoing mass of this source.
        let mut m_old = m_new;
        for &(_, w) in &delta.added {
            m_old -= algo.edge_mass(w);
        }
        for &(_, w) in &delta.deleted {
            m_old += algo.edge_mass(w);
        }
        for &(_, new_w, old_w) in &delta.reweighted {
            m_old += algo.edge_mass(old_w) - algo.edge_mass(new_w);
        }

        // The paper's cancel-first rule: subtract the previously converged
        // contribution along every old edge, then add the new contribution
        // along every new edge. Old neighbors = current − added, with
        // deleted edges re-included and reweighted edges at their old
        // weight.
        let added_dsts: Vec<VertexId> = delta.added.iter().map(|&(d, _)| d).collect();
        let reweight_old: HashMap<VertexId, Weight> =
            delta.reweighted.iter().map(|&(d, _, old_w)| (d, old_w)).collect();

        tap.touch(AccessEvent::ReadOffsets(src));
        let (lo, _hi) = graph.neighbor_range(src);
        for (i, (dst, w)) in graph.out_edges(src).enumerate() {
            tap.touch(AccessEvent::ReadNeighbor((lo + i) as u64));
            tap.touch(AccessEvent::ReadWeight((lo + i) as u64));
            // New contribution along this (current) edge.
            let mut inject = algo.acc_scale(r, w, m_new);
            // Cancel the old contribution if this edge existed before.
            if !added_dsts.contains(&dst) {
                let old_w = reweight_old.get(&dst).copied().unwrap_or(w);
                inject -= algo.acc_scale(r, old_w, m_old);
            }
            if inject != 0.0 {
                state.residuals[dst as usize] += inject;
                tap.touch(AccessEvent::WriteState(dst));
                if state.residuals[dst as usize].abs() >= eps {
                    affected.push(dst);
                }
            }
        }
        // Cancel contributions along deleted edges (absent from the new
        // snapshot).
        for &(dst, old_w) in &delta.deleted {
            let inject = -algo.acc_scale(r, old_w, m_old);
            if inject != 0.0 {
                state.residuals[dst as usize] += inject;
                tap.touch(AccessEvent::WriteState(dst));
                if state.residuals[dst as usize].abs() >= eps {
                    affected.push(dst);
                }
            }
        }
    }

    affected.sort_unstable();
    affected.dedup();
    affected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{out_mass, solve};
    use crate::tap::{CountingTap, NullTap};
    use tdgraph_graph::store::GraphStore;
    use tdgraph_graph::streaming::StreamingGraph;
    use tdgraph_graph::types::Edge;
    use tdgraph_graph::update::{EdgeUpdate, UpdateBatch};

    /// Full reference propagation from the affected set (what every engine
    /// implements with its own schedule): used here to check seeding leads
    /// to the correct fixpoint.
    fn propagate_to_fixpoint(
        algo: &Algo,
        graph: &Csr,
        state: &mut AlgoState,
        affected: &[VertexId],
    ) {
        match algo.kind() {
            AlgorithmKind::Monotonic => {
                let mut queue: Vec<VertexId> = affected.to_vec();
                while let Some(v) = queue.pop() {
                    let s = state.states[v as usize];
                    for (n, w) in graph.out_edges(v) {
                        let cand = algo.mono_propagate(s, w);
                        if algo.mono_better(cand, state.states[n as usize]) {
                            state.states[n as usize] = cand;
                            state.parents[n as usize] = v;
                            queue.push(n);
                        }
                    }
                }
            }
            AlgorithmKind::Accumulative => {
                let mass = out_mass(algo, graph);
                let eps = algo.epsilon();
                let mut queue: Vec<VertexId> = affected.to_vec();
                while let Some(v) = queue.pop() {
                    let r = state.residuals[v as usize];
                    if r.abs() < eps {
                        continue;
                    }
                    state.residuals[v as usize] = 0.0;
                    state.states[v as usize] += r;
                    if mass[v as usize] <= 0.0 {
                        continue;
                    }
                    for (n, w) in graph.out_edges(v) {
                        state.residuals[n as usize] += algo.acc_scale(r, w, mass[v as usize]);
                        if state.residuals[n as usize].abs() >= eps {
                            queue.push(n);
                        }
                    }
                }
            }
        }
    }

    fn run_incremental(
        algo: &Algo,
        initial: &[Edge],
        n: usize,
        batch: Vec<EdgeUpdate>,
    ) -> (AlgoState, AlgoState) {
        let mut g = StreamingGraph::with_capacity(n);
        g.insert_edges(initial.iter().copied()).unwrap();
        let snap0 = g.snapshot();
        let mut state = AlgoState::from_solution(solve(algo, &snap0), n);

        let batch = UpdateBatch::from_updates(batch).unwrap();
        let applied = g.apply_batch(&batch).unwrap();
        let snap1 = g.snapshot();
        let transpose = snap1.transpose();
        let mass = out_mass(algo, &snap1);
        let affected =
            seed_after_batch(algo, &snap1, &transpose, &mass, &mut state, &applied, &mut NullTap);
        propagate_to_fixpoint(algo, &snap1, &mut state, &affected);

        let oracle = AlgoState::from_solution(solve(algo, &snap1), n);
        (state, oracle)
    }

    fn assert_states_close(algo: &Algo, got: &AlgoState, want: &AlgoState) {
        let tol = match algo.kind() {
            AlgorithmKind::Monotonic => 1e-6,
            AlgorithmKind::Accumulative => 0.02,
        };
        for (i, (&g, &w)) in got.states.iter().zip(&want.states).enumerate() {
            if g.is_infinite() && w.is_infinite() {
                continue;
            }
            assert!(
                (g - w).abs() <= tol + tol * w.abs(),
                "vertex {i}: got {g}, oracle {w} for {}",
                algo.name()
            );
        }
    }

    #[test]
    fn sssp_addition_creates_shortcut() {
        let algo = Algo::sssp(0);
        let initial = vec![Edge::new(0, 1, 5.0), Edge::new(1, 2, 5.0), Edge::new(2, 3, 5.0)];
        let (got, want) =
            run_incremental(&algo, &initial, 4, vec![EdgeUpdate::addition(0, 3, 1.0)]);
        assert_states_close(&algo, &got, &want);
        assert_eq!(got.states[3], 1.0);
    }

    #[test]
    fn sssp_deletion_invalidates_subtree() {
        let algo = Algo::sssp(0);
        // 0 -> 1 -> 2 -> 3 plus fallback 0 -> 2 (weight 10).
        let initial = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 1.0),
            Edge::new(2, 3, 1.0),
            Edge::new(0, 2, 10.0),
        ];
        let (got, want) = run_incremental(&algo, &initial, 4, vec![EdgeUpdate::deletion(1, 2)]);
        assert_states_close(&algo, &got, &want);
        assert_eq!(got.states[2], 10.0);
        assert_eq!(got.states[3], 11.0);
    }

    #[test]
    fn sssp_deletion_makes_vertices_unreachable() {
        let algo = Algo::sssp(0);
        let initial = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)];
        let (got, want) = run_incremental(&algo, &initial, 3, vec![EdgeUpdate::deletion(0, 1)]);
        assert_states_close(&algo, &got, &want);
        assert!(got.states[1].is_infinite());
        assert!(got.states[2].is_infinite());
    }

    #[test]
    fn sssp_mixed_batch() {
        let algo = Algo::sssp(0);
        let initial = vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 2.0), Edge::new(0, 3, 9.0)];
        let (got, want) = run_incremental(
            &algo,
            &initial,
            5,
            vec![
                EdgeUpdate::deletion(1, 2),
                EdgeUpdate::addition(3, 2, 1.0),
                EdgeUpdate::addition(2, 4, 1.0),
            ],
        );
        assert_states_close(&algo, &got, &want);
    }

    #[test]
    fn sssp_reweight_increase_on_tree_edge() {
        let algo = Algo::sssp(0);
        let initial = vec![Edge::new(0, 1, 1.0), Edge::new(0, 2, 5.0), Edge::new(2, 1, 1.0)];
        let (got, want) =
            run_incremental(&algo, &initial, 3, vec![EdgeUpdate::addition(0, 1, 20.0)]);
        assert_states_close(&algo, &got, &want);
        assert_eq!(got.states[1], 6.0);
    }

    #[test]
    fn cc_deletion_splits_component() {
        let algo = Algo::cc();
        let initial = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)];
        let (got, want) = run_incremental(&algo, &initial, 3, vec![EdgeUpdate::deletion(0, 1)]);
        assert_states_close(&algo, &got, &want);
        assert_eq!(got.states[1], 1.0);
        assert_eq!(got.states[2], 1.0);
    }

    #[test]
    fn cc_addition_merges_labels() {
        let algo = Algo::cc();
        let initial = vec![Edge::new(3, 4, 1.0)];
        let (got, want) =
            run_incremental(&algo, &initial, 5, vec![EdgeUpdate::addition(0, 3, 1.0)]);
        assert_states_close(&algo, &got, &want);
        assert_eq!(got.states[4], 0.0);
    }

    #[test]
    fn pagerank_addition_matches_oracle() {
        let algo = Algo::pagerank();
        let initial = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(2, 0, 1.0)];
        let (got, want) =
            run_incremental(&algo, &initial, 4, vec![EdgeUpdate::addition(1, 3, 1.0)]);
        assert_states_close(&algo, &got, &want);
    }

    #[test]
    fn pagerank_deletion_matches_oracle() {
        let algo = Algo::pagerank();
        let initial = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(0, 2, 1.0),
            Edge::new(1, 2, 1.0),
            Edge::new(2, 0, 1.0),
        ];
        let (got, want) = run_incremental(&algo, &initial, 3, vec![EdgeUpdate::deletion(0, 2)]);
        assert_states_close(&algo, &got, &want);
    }

    #[test]
    fn adsorption_mixed_batch_matches_oracle() {
        let algo = Algo::adsorption();
        let initial = vec![
            Edge::new(0, 1, 2.0),
            Edge::new(1, 2, 1.0),
            Edge::new(0, 2, 3.0),
            Edge::new(2, 1, 1.0),
        ];
        let (got, want) = run_incremental(
            &algo,
            &initial,
            4,
            vec![EdgeUpdate::deletion(0, 2), EdgeUpdate::addition(2, 3, 2.0)],
        );
        assert_states_close(&algo, &got, &want);
    }

    #[test]
    fn seeding_reports_accesses_through_tap() {
        let algo = Algo::sssp(0);
        let mut g = StreamingGraph::with_capacity(4);
        g.insert_edges([Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)]).unwrap();
        let snap0 = g.snapshot();
        let mut state = AlgoState::from_solution(solve(&algo, &snap0), 4);
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::deletion(1, 2)]).unwrap();
        let applied = g.apply_batch(&batch).unwrap();
        let snap1 = g.snapshot();
        let t = snap1.transpose();
        let mut tap = CountingTap::default();
        let mass = out_mass(&algo, &snap1);
        let _ = seed_after_batch(&algo, &snap1, &t, &mass, &mut state, &applied, &mut tap);
        assert!(tap.aux_accesses > 0, "deletion handling must touch parents");
        assert!(tap.state_writes > 0, "reset must write states");
    }

    #[test]
    fn no_updates_produces_empty_affected_set() {
        let algo = Algo::pagerank();
        let g = Csr::from_edges(2, &[Edge::new(0, 1, 1.0)]);
        let t = g.transpose();
        let mass = out_mass(&algo, &g);
        let mut state = AlgoState::from_solution(solve(&algo, &g), 2);
        let none = AppliedBatch::default();
        let affected = seed_after_batch(&algo, &g, &t, &mass, &mut state, &none, &mut NullTap);
        assert!(affected.is_empty());
    }
}

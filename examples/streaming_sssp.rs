//! Streaming SSSP walkthrough using the low-level substrate directly:
//! build a graph, compute the initial fixed point, stream update batches,
//! patch the snapshot by each batch's delta, seed the incremental
//! computation, and verify each snapshot against the from-scratch oracle —
//! the §2.1 life cycle, without the simulator.
//!
//! ```text
//! cargo run --release --example streaming_sssp
//! ```

use tdgraph::prelude::*;

fn main() {
    let StreamingWorkload { mut graph, pending, .. } =
        StreamingWorkload::prepare(Dataset::Dblp, Sizing::Small);
    let mut snapshot = graph.snapshot();
    let source =
        (0..snapshot.vertex_count() as VertexId).max_by_key(|&v| snapshot.degree(v)).unwrap_or(0);
    let algo = Algo::sssp(source);
    println!(
        "initial snapshot: {} vertices, {} edges, SSSP source = hub {}",
        snapshot.vertex_count(),
        snapshot.edge_count(),
        source
    );

    let mut state = AlgoState::from_solution(solve(&algo, &snapshot), snapshot.vertex_count());
    let mut transpose = snapshot.transpose();
    let mut mass = out_mass(&algo, &snapshot);
    let reachable = state.states.iter().filter(|s| s.is_finite()).count();
    println!("initial fixed point: {reachable} reachable vertices");

    // Stream five mixed batches (75 % additions / 25 % deletions).
    let mut composer = BatchComposer::new(pending, 0.75, 42);
    for round in 1..=5 {
        let present = graph.edges_vec();
        let Some(batch) = composer.next_batch(512, &present) else {
            println!("update stream exhausted");
            break;
        };
        let applied = graph.apply_batch(&batch).expect("composer emits valid batches");
        // The snapshot, its transpose and the out-mass follow the batch's
        // delta; none is rebuilt.
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

        // Reference propagation to the new fixpoint (what an engine does
        // with its own schedule).
        let mut queue: Vec<VertexId> = affected.clone();
        while let Some(v) = queue.pop() {
            let s = state.states[v as usize];
            if !s.is_finite() {
                continue;
            }
            for (n, w) in snapshot.out_edges(v) {
                let cand = algo.mono_propagate(s, w);
                if algo.mono_better(cand, state.states[n as usize]) {
                    state.states[n as usize] = cand;
                    state.parents[n as usize] = v;
                    queue.push(n);
                }
            }
        }

        let oracle = solve(&algo, &snapshot);
        let verdict = compare(&algo, &state.states, &oracle.states);
        println!(
            "batch {round}: {:>4} updates ({} adds / {} dels) -> {:>5} affected vertices, oracle: {}",
            batch.len(),
            batch.additions().count(),
            batch.deletions().count(),
            affected.len(),
            if verdict.is_match() { "match" } else { "MISMATCH" }
        );
        assert!(verdict.is_match(), "incremental result diverged: {verdict:?}");
    }
    println!("all snapshots matched the from-scratch oracle");
}

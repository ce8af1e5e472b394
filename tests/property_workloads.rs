//! Property-based tests: random graphs and random update streams must
//! preserve the core invariants — incremental == from-scratch for every
//! algorithm and engine category, CSR structural invariants, and batch
//! normalization rules.

use proptest::prelude::*;

use tdgraph::prelude::*;

const N: u32 = 24;

fn arb_edge() -> impl Strategy<Value = Edge> {
    (0..N, 0..N, 1u32..5)
        .prop_filter_map("no self-loops", |(s, d, w)| (s != d).then(|| Edge::new(s, d, w as f32)))
}

fn arb_graph_edges() -> impl Strategy<Value = Vec<Edge>> {
    proptest::collection::vec(arb_edge(), 0..80)
}

/// Reference propagation to the fixpoint from an affected set.
fn propagate(algo: &Algo, graph: &Csr, state: &mut AlgoState, affected: &[VertexId]) {
    let mass = out_mass(algo, graph);
    let eps = algo.epsilon();
    let mut queue: Vec<VertexId> = affected.to_vec();
    while let Some(v) = queue.pop() {
        match algo.kind() {
            AlgorithmKind::Monotonic => {
                let s = state.states[v as usize];
                if !s.is_finite() {
                    continue;
                }
                for (n, w) in graph.out_edges(v) {
                    let cand = algo.mono_propagate(s, w);
                    if algo.mono_better(cand, state.states[n as usize]) {
                        state.states[n as usize] = cand;
                        state.parents[n as usize] = v;
                        queue.push(n);
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

/// Builds a valid batch from raw proposals against the current graph:
/// additions of absent pairs, deletions of present pairs.
fn normalize_batch(graph: &StreamingGraph, proposals: &[(Edge, bool)]) -> UpdateBatch {
    let mut updates = Vec::new();
    let mut touched = std::collections::HashSet::new();
    for (e, is_add) in proposals {
        if !touched.insert((e.src, e.dst)) {
            continue;
        }
        if *is_add {
            updates.push(EdgeUpdate::addition(e.src, e.dst, e.weight));
        } else if graph.contains_edge(e.src, e.dst) {
            updates.push(EdgeUpdate::deletion(e.src, e.dst));
        }
    }
    UpdateBatch::from_updates(updates).expect("normalized batch is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_roundtrips_through_edge_iteration(edges in arb_graph_edges()) {
        let csr = Csr::from_edges(N as usize, &edges);
        let rebuilt = Csr::from_edges(N as usize, &csr.iter_edges().collect::<Vec<_>>());
        prop_assert_eq!(&csr, &rebuilt);
        prop_assert_eq!(csr.edge_count(), edges.len());
        // Transpose is an involution.
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn chunk_partitions_are_exact_covers(edges in arb_graph_edges(), chunks in 1usize..9) {
        let csr = Csr::from_edges(N as usize, &edges);
        let parts = partition_by_edges(&csr, chunks);
        let total: usize = parts.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, csr.vertex_count());
        let edge_total: usize = parts.iter().map(|c| c.edges).sum();
        prop_assert_eq!(edge_total, csr.edge_count());
    }

    #[test]
    fn incremental_matches_oracle_for_all_algorithms(
        initial in arb_graph_edges(),
        proposals in proptest::collection::vec((arb_edge(), any::<bool>()), 1..24),
    ) {
        let mut graph = StreamingGraph::with_capacity(N as usize);
        graph.insert_edges(initial.iter().copied()).unwrap();
        let snapshot = graph.snapshot();

        for algo in [Algo::sssp(0), Algo::cc(), Algo::pagerank(), Algo::adsorption()] {
            let mut g = graph.clone();
            let mut state =
                AlgoState::from_solution(solve(&algo, &snapshot), N as usize);
            let batch = normalize_batch(&g, &proposals);
            let applied = g.apply_batch(&batch).expect("normalized batch applies");
            let new_snapshot = g.snapshot();
            let transpose = new_snapshot.transpose();
            let mass = out_mass(&algo, &new_snapshot);
            let affected = seed_after_batch(
                &algo, &new_snapshot, &transpose, &mass, &mut state, &applied, &mut NullTap,
            );
            propagate(&algo, &new_snapshot, &mut state, &affected);
            let oracle = solve(&algo, &new_snapshot);
            let verdict = compare(&algo, &state.states, &oracle.states);
            prop_assert!(
                verdict.is_match(),
                "{} diverged: {:?} (batch {:?})",
                algo.name(), verdict, batch
            );
        }
    }

    #[test]
    fn repeated_batches_stay_correct(
        initial in arb_graph_edges(),
        rounds in proptest::collection::vec(
            proptest::collection::vec((arb_edge(), any::<bool>()), 1..10), 1..4),
    ) {
        let algo = Algo::sssp(0);
        let mut graph = StreamingGraph::with_capacity(N as usize);
        graph.insert_edges(initial.iter().copied()).unwrap();
        let mut state =
            AlgoState::from_solution(solve(&algo, &graph.snapshot()), N as usize);
        for proposals in &rounds {
            let batch = normalize_batch(&graph, proposals);
            let applied = graph.apply_batch(&batch).expect("valid batch");
            let snapshot = graph.snapshot();
            let transpose = snapshot.transpose();
            let mass = out_mass(&algo, &snapshot);
            let affected = seed_after_batch(
                &algo, &snapshot, &transpose, &mass, &mut state, &applied, &mut NullTap,
            );
            propagate(&algo, &snapshot, &mut state, &affected);
            let oracle = solve(&algo, &snapshot);
            prop_assert!(compare(&algo, &state.states, &oracle.states).is_match());
        }
    }

    #[test]
    fn degree_stats_are_internally_consistent(edges in arb_graph_edges()) {
        let g = Csr::from_edges(N as usize, &edges);
        let s = degree_stats(&g);
        prop_assert_eq!(s.edges, g.edge_count());
        prop_assert!((0.0..=1.0).contains(&s.top1pct_edge_share));
        prop_assert!(s.top_half_pct_edge_share <= s.top1pct_edge_share + 1e-12);
        prop_assert!((-1e-9..=1.0).contains(&s.gini));
        prop_assert!(s.max_degree <= s.edges.max(1));
    }
}

/// One possibly-hostile update. The discriminant mixes clean traffic with
/// every corruption the data plane is specified to survive: non-finite
/// addition weights, self-loops, out-of-range endpoints, conflicting
/// add+delete pairs (by collision), and deletions of absent edges.
fn arb_hostile_update() -> impl Strategy<Value = EdgeUpdate> {
    (0u32..8, 0..N + 8, 0..N + 8, 1u32..5).prop_map(|(kind, s, d, w)| match kind {
        0 => EdgeUpdate::addition(s % N, d % N, f32::NAN),
        1 => EdgeUpdate::addition(s % N, d % N, f32::INFINITY),
        2 => EdgeUpdate::addition(s % N, d % N, f32::NEG_INFINITY),
        3 => EdgeUpdate::addition(s, d, w as f32), // endpoints possibly out of range
        4 => EdgeUpdate::deletion(s, d),           // possibly out of range
        5 => EdgeUpdate::deletion(s % N, d % N),   // likely absent
        _ => EdgeUpdate::addition(s % N, d % N, w as f32),
    })
}

fn arb_hostile_stream() -> impl Strategy<Value = Vec<EdgeUpdate>> {
    proptest::collection::vec(arb_hostile_update(), 0..48)
}

// Hostile-batch properties (the robustness PR's data-plane contract). This
// block deliberately runs under the default shim configuration so the CI
// chaos job can scale coverage through `PROPTEST_CASES`.
proptest! {
    /// A batch followed by its inverse restores the CSR byte-for-byte:
    /// added pairs deleted, deleted edges re-added with their original
    /// weights, reweighted edges re-overwritten with their old weights.
    #[test]
    fn batch_then_inverse_restores_the_csr_byte_for_byte(
        initial in arb_graph_edges(),
        proposals in proptest::collection::vec((arb_edge(), any::<bool>()), 1..24),
    ) {
        let mut graph = StreamingGraph::with_capacity(N as usize);
        graph.insert_edges(initial.iter().copied()).unwrap();
        let before = graph.snapshot();

        let batch = normalize_batch(&graph, &proposals);
        let applied = graph.apply_batch(&batch).expect("normalized batch applies");

        let mut inverse = Vec::new();
        for e in applied.added_edges() {
            inverse.push(EdgeUpdate::deletion(e.src, e.dst));
        }
        for (e, old_weight) in applied.reweighted_edges() {
            inverse.push(EdgeUpdate::addition(e.src, e.dst, *old_weight));
        }
        for e in applied.deleted_edges() {
            inverse.push(EdgeUpdate::addition(e.src, e.dst, e.weight));
        }
        let inverse = UpdateBatch::from_updates(inverse)
            .expect("the categories of an applied batch are pairwise disjoint");
        graph.apply_batch(&inverse).expect("inverse of an applied batch applies");

        let after = graph.snapshot();
        prop_assert_eq!(&after, &before);
        // Byte-for-byte, not just `==`: render both and compare exactly.
        prop_assert_eq!(format!("{after:?}"), format!("{before:?}"));
    }

    /// What a session keeps across batches follows its store: after every
    /// strict and every lenient batch, the CSR and transpose patched by the
    /// batch's delta equal a rebuilt `store.snapshot()` and its
    /// `transpose()`, and the patched out-mass equals a recomputed one bit
    /// for bit.
    #[test]
    fn patched_snapshot_transpose_and_out_mass_equal_a_rebuild(
        initial in arb_graph_edges(),
        rounds in proptest::collection::vec(
            (proptest::collection::vec((arb_edge(), any::<bool>()), 1..24), arb_hostile_stream()),
            1..4,
        ),
    ) {
        let mut graph = StreamingGraph::with_capacity(N as usize);
        graph.insert_edges(initial.iter().copied()).unwrap();
        let mut csr = graph.snapshot();
        let mut transpose = csr.transpose();
        let algos = [Algo::pagerank(), Algo::adsorption()];
        let mut masses = algos.map(|algo| out_mass(&algo, &csr));
        for (proposals, hostile) in &rounds {
            for lenient in [false, true] {
                let applied = if lenient {
                    let mut quarantine = QuarantineReport::new();
                    let batch = UpdateBatch::from_updates_lenient(hostile.clone(), &mut quarantine);
                    graph.apply_batch_lenient(&batch, &mut quarantine)
                } else {
                    let batch = normalize_batch(&graph, proposals);
                    graph.apply_batch(&batch).expect("normalized batch applies")
                };
                applied.patch_snapshot(&mut csr, &mut transpose);
                let snapshot = graph.snapshot();
                prop_assert_eq!(format!("{csr:?}"), format!("{snapshot:?}"));
                prop_assert_eq!(format!("{transpose:?}"), format!("{:?}", snapshot.transpose()));
                for (algo, mass) in algos.iter().zip(&mut masses) {
                    patch_out_mass(algo, &csr, mass, &applied);
                    let bits = |m: &[f32]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(mass), bits(&out_mass(algo, &snapshot)), "{}", algo.name());
                }
            }
        }
    }

    /// Deleting an absent edge under strict apply is a typed
    /// [`ApplyError::MissingEdge`] naming the pair — never a silent no-op —
    /// and the failed batch leaves the graph untouched.
    #[test]
    fn absent_deletion_is_a_typed_error_never_a_silent_noop(
        initial in arb_graph_edges(),
        s in 0..N,
        d in 0..N,
    ) {
        let mut graph = StreamingGraph::with_capacity(N as usize);
        graph.insert_edges(initial.iter().copied()).unwrap();
        if graph.contains_edge(s, d) {
            let evict = UpdateBatch::from_updates(vec![EdgeUpdate::deletion(s, d)]).unwrap();
            graph.apply_batch(&evict).expect("present edge deletes");
        }
        let before = graph.snapshot();

        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::deletion(s, d)])
            .expect("absent deletions are undetectable at construction");
        let err = graph.apply_batch(&batch).expect_err("absent deletion must not no-op");
        prop_assert_eq!(err, ApplyError::MissingEdge { src: s, dst: d });
        prop_assert_eq!(graph.snapshot(), before, "failed batch must not mutate");
    }

    /// Batch construction: strict errors **iff** lenient quarantines, and
    /// on clean input the two produce the identical batch.
    #[test]
    fn strict_construction_rejects_exactly_what_lenient_quarantines(
        updates in arb_hostile_stream(),
    ) {
        let strict = UpdateBatch::from_updates(updates.clone());
        let mut quarantine = QuarantineReport::new();
        let lenient = UpdateBatch::from_updates_lenient(updates, &mut quarantine);
        prop_assert_eq!(
            strict.is_err(),
            !quarantine.is_empty(),
            "strict {strict:?} vs quarantine {quarantine:?}"
        );
        if let Ok(strict) = strict {
            // Debug render: hostile streams can carry NaN weights.
            prop_assert_eq!(format!("{lenient:?}"), format!("{strict:?}"));
        }
    }

    /// Batch application: strict errors **iff** lenient quarantines, and
    /// with an empty quarantine the applied result and final graph are
    /// identical.
    #[test]
    fn strict_apply_rejects_exactly_what_lenient_quarantines(
        initial in arb_graph_edges(),
        updates in arb_hostile_stream(),
    ) {
        let mut graph = StreamingGraph::with_capacity(N as usize);
        graph.insert_edges(initial.iter().copied()).unwrap();
        // Construction-clean but possibly apply-hostile (out-of-range
        // endpoints and absent deletions survive construction).
        let batch =
            UpdateBatch::from_updates_lenient(updates, &mut QuarantineReport::new());

        let mut strict_graph = graph.clone();
        let strict = strict_graph.apply_batch(&batch);
        let mut quarantine = QuarantineReport::new();
        let lenient = graph.apply_batch_lenient(&batch, &mut quarantine);

        prop_assert_eq!(
            strict.is_err(),
            !quarantine.is_empty(),
            "strict {strict:?} vs quarantine {quarantine:?}"
        );
        if let Ok(strict_applied) = strict {
            prop_assert_eq!(format!("{lenient:?}"), format!("{strict_applied:?}"));
            prop_assert_eq!(graph.snapshot(), strict_graph.snapshot());
        }
    }

    /// Lenient ingest is deterministic: the same hostile stream yields the
    /// same batch, the same applied result, the same final graph, and the
    /// same quarantine report every time.
    #[test]
    fn lenient_ingest_is_deterministic(
        initial in arb_graph_edges(),
        updates in arb_hostile_stream(),
    ) {
        let mut base = StreamingGraph::with_capacity(N as usize);
        base.insert_edges(initial.iter().copied()).unwrap();

        let run = |updates: Vec<EdgeUpdate>| {
            let mut construction = QuarantineReport::new();
            let batch = UpdateBatch::from_updates_lenient(updates, &mut construction);
            let mut graph = base.clone();
            let mut apply = QuarantineReport::new();
            let applied = graph.apply_batch_lenient(&batch, &mut apply);
            (format!("{batch:?}"), format!("{applied:?}"), graph.snapshot(), construction, apply)
        };
        let a = run(updates.clone());
        let b = run(updates);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
        prop_assert_eq!(a.4, b.4);
    }
}

/// The TDGraph engine itself under random workloads — termination (no
/// livelock on random cyclic graphs) and oracle agreement, via the full
/// harness. Kept outside `proptest!` batching with a tiny machine so the
/// whole property run stays fast.
#[test]
fn tdgraph_engine_random_workload_spotcheck() {
    for (fraction, batches) in [(1.0, 2), (0.5, 3), (0.1, 2)] {
        let res = Experiment::new(Dataset::Orkut)
            .sizing(Sizing::Tiny)
            .options(RunConfig {
                sim: SimConfig::small_test(),
                batches,
                add_fraction: fraction,
                ..RunConfig::default()
            })
            .run(EngineKind::TdGraphH);
        assert!(res.verify.is_match(), "fraction {fraction} diverged: {:?}", res.verify);
    }
}

//! Property-based storage equivalence: for *arbitrary* update streams —
//! valid or faulty, clustered on hub vertices or spread thin — the CSR
//! and hybrid backends of [`GraphStore`] must expose identical neighbor
//! sets, degrees, weights, buffer order, and quarantine records.
//!
//! Compiled behind the `proptest-tests` feature (see
//! `crates/integration/Cargo.toml`), like the workload property suite.

use proptest::prelude::*;

use tdgraph::prelude::*;

const N: u32 = 24;

/// An arbitrary update: mostly valid adds/deletes, with a tail of
/// out-of-bounds endpoints so lenient application exercises quarantine.
fn arb_update() -> impl Strategy<Value = EdgeUpdate> {
    prop_oneof![
        4 => (0..N, 0..N, 1u32..5)
            .prop_map(|(s, d, w)| EdgeUpdate::addition(s, d, w as f32)),
        3 => (0..N, 0..N).prop_map(|(s, d)| EdgeUpdate::deletion(s, d)),
        1 => (N..N + 4, 0..N).prop_map(|(s, d)| EdgeUpdate::addition(s, d, 1.0)),
        1 => (0..N, N..N + 4).prop_map(|(s, d)| EdgeUpdate::deletion(s, d)),
    ]
}

/// A stream of batches. Hub-heavy batches (many updates on vertex 0) are
/// mixed in so single rows cross the inline→linear→indexed tier
/// boundaries and back within one test case.
fn arb_stream() -> impl Strategy<Value = Vec<Vec<EdgeUpdate>>> {
    let batch = prop_oneof![
        3 => proptest::collection::vec(arb_update(), 1..20),
        1 => proptest::collection::vec(
            (1..N, 1u32..5).prop_map(|(d, w)| EdgeUpdate::addition(0, d, w as f32)),
            1..20,
        ),
        1 => proptest::collection::vec(
            (1..N).prop_map(|d| EdgeUpdate::deletion(0, d)),
            1..20,
        ),
    ];
    proptest::collection::vec(batch, 1..12)
}

/// An empty store of `kind` over `n` vertices.
fn empty_store(kind: StorageKind, n: u32) -> AnyStore {
    AnyStore::from_streaming(kind, StreamingGraph::with_capacity(n as usize))
}

fn assert_stores_agree(csr: &AnyStore, hybrid: &AnyStore) {
    assert_eq!(csr.num_vertices(), hybrid.num_vertices());
    assert_eq!(csr.num_edges(), hybrid.num_edges());
    for v in 0..csr.num_vertices() as u32 {
        assert_eq!(csr.degree(v), hybrid.degree(v), "degree of {v}");
        let mut a = csr.neighbors_of(v);
        let mut b = hybrid.neighbors_of(v);
        a.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        b.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        assert_eq!(a, b, "neighbor set of {v}");
        for &(n, w) in &a {
            assert_eq!(hybrid.edge_weight(v, n), Some(w), "weight ({v},{n})");
        }
    }
    assert_eq!(csr.edges_vec(), hybrid.edges_vec(), "buffer order");
    assert_eq!(csr.snapshot(), hybrid.snapshot(), "snapshot");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lenient application of any stream leaves both stores — and both
    /// quarantine reports — identical after every batch.
    #[test]
    fn lenient_streams_keep_stores_equivalent(stream in arb_stream()) {
        let mut csr = empty_store(StorageKind::Csr, N);
        let mut hybrid = empty_store(StorageKind::Hybrid, N);
        let mut q_csr = QuarantineReport::default();
        let mut q_hybrid = QuarantineReport::default();
        for updates in stream {
            let mut scratch = QuarantineReport::default();
            let batch = UpdateBatch::from_updates_lenient(updates, &mut scratch);
            let ra = csr.apply_batch_lenient(&batch, &mut q_csr);
            let rb = hybrid.apply_batch_lenient(&batch, &mut q_hybrid);
            prop_assert_eq!(ra.affected_vertices(), rb.affected_vertices());
            assert_stores_agree(&csr, &hybrid);
            prop_assert_eq!(&q_csr, &q_hybrid);
        }
    }

    /// Strict application agrees on outcome: both stores accept (with the
    /// same effect) or both reject (with the same error), and a rejected
    /// batch leaves both stores untouched (atomicity).
    #[test]
    fn strict_streams_agree_on_acceptance_and_atomicity(stream in arb_stream()) {
        let mut csr = empty_store(StorageKind::Csr, N);
        let mut hybrid = empty_store(StorageKind::Hybrid, N);
        for updates in stream {
            let mut scratch = QuarantineReport::default();
            let batch = UpdateBatch::from_updates_lenient(updates, &mut scratch);
            let before = csr.edges_vec();
            match (csr.apply_batch(&batch), hybrid.apply_batch(&batch)) {
                (Ok(ra), Ok(rb)) => {
                    prop_assert_eq!(ra.affected_vertices(), rb.affected_vertices());
                }
                (Err(ea), Err(eb)) => {
                    prop_assert_eq!(ea.to_string(), eb.to_string());
                    prop_assert_eq!(&csr.edges_vec(), &before, "csr rolled back");
                    prop_assert_eq!(&hybrid.edges_vec(), &before, "hybrid rolled back");
                }
                (a, b) => prop_assert!(false, "outcomes diverge: {:?} vs {:?}", a, b),
            }
            assert_stores_agree(&csr, &hybrid);
        }
    }
}

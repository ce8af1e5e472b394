//! CSR-vs-hybrid storage equivalence: the two backends of the
//! [`GraphStore`] API must agree on every observable graph surface —
//! neighbor sets, degrees, weights, snapshots, quarantine records — after
//! arbitrary seeded add/delete traffic, and every engine×algorithm run
//! must reach the same fixpoint on either backend. A final determinism
//! test pins the per-storage sweep report bytes across thread counts.

use tdgraph::prelude::*;

/// Deterministic splitmix64 stream — the tests' only randomness source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// An empty store of `kind` over `n` vertices.
fn empty_store(kind: StorageKind, n: u32) -> AnyStore {
    AnyStore::from_streaming(kind, StreamingGraph::with_capacity(n as usize))
}

/// Asserts every read surface of the two stores agrees. Neighbor *sets*
/// are compared sorted; buffer order is asserted separately through
/// `edges_vec` because the deletion-sampling pool is order-load-bearing.
fn assert_stores_agree(csr: &AnyStore, hybrid: &AnyStore, context: &str) {
    assert_eq!(csr.num_vertices(), hybrid.num_vertices(), "{context}: vertex count");
    assert_eq!(csr.num_edges(), hybrid.num_edges(), "{context}: edge count");
    for v in 0..csr.num_vertices() as u32 {
        assert_eq!(csr.degree(v), hybrid.degree(v), "{context}: degree of {v}");
        let mut a = csr.neighbors_of(v);
        let mut b = hybrid.neighbors_of(v);
        a.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        b.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        assert_eq!(a, b, "{context}: neighbor set of {v}");
        for &(n, w) in &a {
            assert!(hybrid.contains_edge(v, n), "{context}: contains ({v},{n})");
            assert_eq!(hybrid.edge_weight(v, n), Some(w), "{context}: weight ({v},{n})");
        }
    }
    assert_eq!(csr.edges_vec(), hybrid.edges_vec(), "{context}: buffer order");
    assert_eq!(csr.snapshot(), hybrid.snapshot(), "{context}: snapshot");
}

/// One seeded batch of mixed adds/deletes. With `faulty`, a slice of the
/// updates is made invalid (out-of-bounds endpoints, absent deletions) to
/// drive the quarantine path.
fn compose_batch(rng: &mut Rng, n: u32, present: &[Edge], faulty: bool) -> Vec<EdgeUpdate> {
    let mut updates = Vec::new();
    for _ in 0..(8 + rng.below(24)) {
        let roll = rng.below(10);
        if roll < 5 || present.is_empty() {
            let src = rng.below(u64::from(n)) as u32;
            let dst = rng.below(u64::from(n)) as u32;
            updates.push(EdgeUpdate::addition(src, dst, 1.0 + rng.below(7) as f32));
        } else if roll < 8 {
            let e = present[rng.below(present.len() as u64) as usize];
            updates.push(EdgeUpdate::deletion(e.src, e.dst));
        } else if faulty && roll == 8 {
            // Out-of-bounds endpoint: quarantined by lenient apply.
            updates.push(EdgeUpdate::addition(n + rng.below(5) as u32, 0, 1.0));
        } else if faulty {
            // Deleting an edge that (almost surely) is absent.
            updates.push(EdgeUpdate::deletion(rng.below(u64::from(n)) as u32, n - 1));
        }
    }
    updates
}

#[test]
fn stores_agree_after_seeded_add_delete_batches() {
    const N: u32 = 64;
    for seed in 0..6u64 {
        let mut csr = empty_store(StorageKind::Csr, N);
        let mut hybrid = empty_store(StorageKind::Hybrid, N);
        let mut rng = Rng(seed);
        for step in 0..40 {
            let updates = compose_batch(&mut rng, N, &csr.edges_vec(), false);
            let batch = match UpdateBatch::from_updates(updates) {
                Ok(b) => b,
                Err(_) => continue,
            };
            let a = csr.apply_batch(&batch);
            let b = hybrid.apply_batch(&batch);
            match (a, b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(ra.affected_vertices(), rb.affected_vertices(), "affected sets");
                }
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
                (a, b) => panic!("seed {seed} step {step}: outcomes diverge: {a:?} vs {b:?}"),
            }
            assert_stores_agree(&csr, &hybrid, &format!("seed {seed} step {step}"));
        }
    }
}

#[test]
fn stores_quarantine_identically_under_lenient_batches() {
    const N: u32 = 48;
    for seed in 100..104u64 {
        let mut csr = empty_store(StorageKind::Csr, N);
        let mut hybrid = empty_store(StorageKind::Hybrid, N);
        let mut q_csr = QuarantineReport::default();
        let mut q_hybrid = QuarantineReport::default();
        let mut rng = Rng(seed);
        for step in 0..30 {
            let updates = compose_batch(&mut rng, N, &csr.edges_vec(), true);
            let mut scratch = QuarantineReport::default();
            let batch = UpdateBatch::from_updates_lenient(updates, &mut scratch);
            let ra = csr.apply_batch_lenient(&batch, &mut q_csr);
            let rb = hybrid.apply_batch_lenient(&batch, &mut q_hybrid);
            assert_eq!(
                ra.affected_vertices(),
                rb.affected_vertices(),
                "seed {seed} step {step}: affected sets"
            );
            assert_stores_agree(&csr, &hybrid, &format!("seed {seed} step {step}"));
        }
        assert_eq!(q_csr, q_hybrid, "seed {seed}: quarantine records");
        assert!(!q_csr.is_empty(), "seed {seed}: the faulty stream must exercise quarantine");
    }
}

/// Walks one vertex's degree up through every tier boundary (inline cap 4,
/// hash promotion >16) and back down through the demotion thresholds
/// (<8, ≤2), checking full equivalence at every degree on the way.
#[test]
fn tier_boundary_degrees_stay_equivalent() {
    const N: u32 = 40;
    let hub = 0u32;
    let mut csr = empty_store(StorageKind::Csr, N);
    let mut hybrid = empty_store(StorageKind::Hybrid, N);
    for d in 1..N {
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(hub, d, d as f32)])
            .expect("valid add");
        csr.apply_batch(&batch).expect("csr add");
        hybrid.apply_batch(&batch).expect("hybrid add");
        assert_stores_agree(&csr, &hybrid, &format!("growing, degree {d}"));
    }
    // Delete interior neighbors first so swap_remove churns positions.
    let mut order: Vec<u32> = (1..N).collect();
    order.reverse();
    let mid = order.len() / 2;
    order.swap(0, mid);
    for (i, d) in order.into_iter().enumerate() {
        let batch =
            UpdateBatch::from_updates(vec![EdgeUpdate::deletion(hub, d)]).expect("valid delete");
        csr.apply_batch(&batch).expect("csr delete");
        hybrid.apply_batch(&batch).expect("hybrid delete");
        assert_stores_agree(&csr, &hybrid, &format!("shrinking, step {i}"));
    }
    assert_eq!(hybrid.degree(hub), 0);
}

/// The acceptance gate: every engine×algorithm reference cell reaches the
/// same verified fixpoint under both storage backends, with identical
/// algorithmic work (states, useful updates, edges, batches). Cycles and
/// DRAM traffic may differ — the hybrid store charges its layout traffic
/// to the memory system — so they are deliberately not compared.
#[test]
fn engine_fixpoints_agree_across_storages() {
    let spec = |storage| {
        SweepSpec::new()
            .dataset(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .engines([EngineKind::LigraO, EngineKind::TdGraphH])
            .algos([AlgoSel::HubSssp, AlgoSel::Fixed(Algo::pagerank())])
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 2;
                o.storage = storage;
            })
    };
    let reports = StorageKind::ALL.map(|kind| SweepRunner::new().threads(2).run(&spec(kind)));
    for report in &reports {
        report.assert_all_ok();
        report.assert_all_verified();
    }
    // The two sweeps expand the same grid: cells pair up as (csr, hybrid).
    for (csr, hybrid) in reports[0].cells.iter().zip(&reports[1].cells) {
        let a = csr.metrics().expect("csr metrics");
        let b = hybrid.metrics().expect("hybrid metrics");
        let label = format!("{} {} {}", a.engine, a.algo, csr.cell.dataset.abbrev());
        assert_eq!(a.state_updates, b.state_updates, "{label}: state updates");
        assert_eq!(a.useful_updates, b.useful_updates, "{label}: useful updates");
        assert_eq!(a.edges_processed, b.edges_processed, "{label}: edges processed");
        assert_eq!(a.batches, b.batches, "{label}: batches");
        let sb = hybrid.run_result().expect("hybrid result").storage;
        assert!(!sb.is_empty(), "{label}: hybrid cells must report tier stats");
        let sa = csr.run_result().expect("csr result").storage;
        assert!(sa.is_empty(), "{label}: csr cells must stay statless");
    }
}

/// Per-storage sweep reports are byte-stable across worker thread counts:
/// the canonical serialization depends only on the spec, never on the
/// schedule.
#[test]
fn per_storage_sweep_reports_are_byte_stable_across_thread_counts() {
    for storage in StorageKind::ALL {
        let spec = SweepSpec::new()
            .dataset(Dataset::Dblp)
            .sizing(Sizing::Tiny)
            .engines([EngineKind::LigraO, EngineKind::TdGraphH])
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 2;
                o.storage = storage;
            });
        let serial = SweepRunner::new().threads(1).run(&spec);
        let parallel = SweepRunner::new().threads(4).run(&spec);
        serial.assert_all_ok();
        parallel.assert_all_ok();
        assert_eq!(serial.canonical_lines(), parallel.canonical_lines());
    }
}

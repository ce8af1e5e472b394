//! Pluggable graph-storage API.
//!
//! A streaming run applies each update batch to a mutable graph, then
//! rebuilds an immutable [`Csr`] snapshot (and its transpose) from it;
//! engines and the simulator read only those snapshots. [`GraphStore`] is
//! the mutable graph, with two backends ([`StorageKind`]):
//!
//! * [`StorageKind::Csr`] — [`StreamingGraph`], one `Vec` per row; the
//!   deterministic baseline every byte-identity gate is pinned to.
//! * [`StorageKind::Hybrid`] — a GraphTango-style degree-adaptive store
//!   ([`crate::hybrid::HybridStore`]): low-degree vertices inline,
//!   medium-degree in linear buffers, high-degree behind an
//!   open-addressed hash index, with hysteresis on tier transitions.
//!
//! # One set of rules over two row layouts
//!
//! A backend supplies only its row layout: [`GraphStore::out_edges`]
//! (visit a row in buffer order), [`GraphStore::edge_weight`] (find an
//! edge), [`GraphStore::upsert_edge`] (overwrite, or append when absent),
//! [`GraphStore::remove_edge`] (swap-remove), [`GraphStore::ensure_vertex`]
//! (grow the vertex range), plus, for the hybrid store, tier counters and
//! a touch trace. Every rule is a provided method written once here:
//! bounds checks, bulk insert, strict and lenient batch application,
//! snapshot and edge iteration.
//!
//! # Determinism contract
//!
//! Because the rules have one body, both stores expose identical
//! semantics by construction: the same operation sequence yields the same
//! edge iteration order (push / swap-remove buffer order), the same
//! [`AppliedBatch`], the same quarantine records, and the same [`Csr`]
//! snapshot bytes. That is what keeps the seeded
//! [`crate::update::BatchComposer`] — which samples deletions by index
//! from [`GraphStore::edges_vec`] — on the same trajectory for every
//! store, so CSR-vs-hybrid runs agree on every algorithm fixpoint.
//!
//! The hybrid store can additionally report which of its internal
//! regions a batch application touched ([`StorageTouch`]), letting the
//! simulator's cache/NoC models observe the layout difference. The CSR
//! store reports nothing, so `StorageKind::Csr` runs stay byte-identical
//! to the pre-trait era on every surface.

use std::fmt;

use crate::csr::Csr;
use crate::hybrid::HybridStore;
use crate::quarantine::{QuarantineReason, QuarantineReport};
use crate::streaming::{AppliedBatch, ApplyError, StreamingGraph};
use crate::types::{Edge, EdgeCount, VertexCount, VertexId, Weight};
use crate::update::{EdgeUpdate, UpdateBatch, UpdateKind};

/// Which graph-storage backend a run uses. A run chooses it once, in
/// `RunConfig::storage`, which the serve daemon's `--storage` flag sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageKind {
    /// CSR + per-batch snapshot rebuild (the deterministic baseline).
    #[default]
    Csr,
    /// GraphTango-style degree-adaptive hybrid adjacency.
    Hybrid,
}

impl StorageKind {
    /// Every storage kind, in documentation order.
    pub const ALL: [StorageKind; 2] = [StorageKind::Csr, StorageKind::Hybrid];

    /// Stable lower-case label (CLI values, report fields).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StorageKind::Csr => "csr",
            StorageKind::Hybrid => "hybrid",
        }
    }

    /// Parses a [`StorageKind::label`] string (inverse of `label`).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl fmt::Display for StorageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Tier occupancy and transition counters of a store.
///
/// The CSR store has no tiers and reports all-zero; consumers that emit
/// observability counters only when a field is non-zero therefore stay
/// byte-identical under [`StorageKind::Csr`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Vertices currently stored in the inline tier.
    pub inline_vertices: u64,
    /// Vertices currently stored as growable linear buffers.
    pub linear_vertices: u64,
    /// Vertices currently stored behind a hash index.
    pub indexed_vertices: u64,
    /// Total tier promotions (inline→linear, linear→indexed).
    pub promotions: u64,
    /// Total tier demotions (indexed→linear, linear→inline).
    pub demotions: u64,
}

impl StorageStats {
    /// Whether every counter is zero (true for tierless stores).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == StorageStats::default()
    }
}

/// An internal region of a store's layout, from the accelerator model's
/// point of view. The engine layer maps these onto the simulator's
/// address-space regions (`RowHeader` → `Offset_Array`, `NeighborSlot` /
/// `WeightSlot` → `Neighbor_Array` / `Weight_Array`, `HashSlot` → the
/// hash-table region), so no new simulated address space is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageRegion {
    /// Per-vertex row metadata (tier tag, length, inline payload).
    RowHeader,
    /// A neighbor-id slot in a linear or indexed buffer.
    NeighborSlot,
    /// A weight slot parallel to a neighbor slot.
    WeightSlot,
    /// An open-addressed hash-index slot.
    HashSlot,
}

/// Stride separating per-vertex slot indices in [`StorageTouch::index`]:
/// slot-region touches encode `vertex * TOUCH_ROW_STRIDE + position`, so
/// positions within one row stay contiguous and distinct rows never
/// alias. Consumers recover the in-row position as
/// `index % TOUCH_ROW_STRIDE` before folding the touch into their own
/// address model.
pub const TOUCH_ROW_STRIDE: u64 = 1 << 20;

/// One memory touch a store performed while applying updates. `index` is
/// a synthetic element index ([`TOUCH_ROW_STRIDE`]-strided for slot
/// regions, the vertex id for [`StorageRegion::RowHeader`]),
/// deterministic for a given operation sequence; the simulator folds it
/// into a cache-line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageTouch {
    /// The vertex whose row was touched (for core attribution).
    pub vertex: VertexId,
    /// Which layout region was touched.
    pub region: StorageRegion,
    /// Element index within the region.
    pub index: u64,
    /// Whether the touch was a write.
    pub is_write: bool,
}

/// The mutable graph a streaming run applies its batches to.
///
/// The required methods are a backend's row layout; the provided methods
/// are the rules, written once over them (see the module docs).
pub trait GraphStore {
    /// Number of vertices.
    fn num_vertices(&self) -> VertexCount;

    /// Number of directed edges currently present.
    fn num_edges(&self) -> EdgeCount;

    /// `v`'s out-edges in buffer order: insertion order, where removing
    /// an edge moves the row's last edge into its place (empty for
    /// out-of-range ids).
    fn out_edges(&self, v: VertexId) -> &[(VertexId, Weight)];

    /// The weight of edge `(src, dst)`, when present. Never traced.
    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight>;

    /// Grows the vertex set so `vertex` is addressable.
    fn ensure_vertex(&mut self, vertex: VertexId);

    /// Overwrites the weight of `e`, or appends `e` to the end of its row
    /// when absent; returns the previous weight if it was present. Both
    /// endpoints must be in range (the rules check them first).
    fn upsert_edge(&mut self, e: Edge) -> Option<Weight>;

    /// Removes `(src, dst)` by moving the row's last edge into its place;
    /// returns the removed weight, or `None` when the edge is absent.
    /// `src` must be in range (the rules check it first).
    fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> Option<Weight>;

    /// Tier occupancy / transition counters (all-zero for tierless
    /// stores).
    fn stats(&self) -> StorageStats {
        StorageStats::default()
    }

    /// Enables or disables update-touch tracing (no-op for stores that
    /// never trace).
    fn set_touch_tracing(&mut self, _enabled: bool) {}

    /// Drains the touches recorded since the last call (always empty for
    /// the CSR store, which is what keeps CSR runs byte-identical).
    fn take_update_touches(&mut self) -> Vec<StorageTouch> {
        Vec::new()
    }

    /// Out-degree of `v` (0 for out-of-range ids).
    fn degree(&self, v: VertexId) -> usize {
        self.out_edges(v).len()
    }

    /// Whether edge `(src, dst)` is present.
    fn contains_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.edge_weight(src, dst).is_some()
    }

    /// `v`'s out-neighbors as a vector, in buffer order.
    fn neighbors_of(&self, v: VertexId) -> Vec<(VertexId, Weight)> {
        self.out_edges(v).to_vec()
    }

    /// Inserts edges in bulk (the initial load). Re-inserted edges
    /// overwrite their weight; self-loops are skipped after the bounds
    /// check.
    ///
    /// # Errors
    ///
    /// [`ApplyError::VertexOutOfBounds`] for endpoints outside the
    /// current vertex range (grow it with [`GraphStore::ensure_vertex`]
    /// first); the edges before the offending one stay inserted.
    fn insert_edges<I: IntoIterator<Item = Edge>>(&mut self, edges: I) -> Result<(), ApplyError> {
        for e in edges {
            check_bounds(self, e.src)?;
            check_bounds(self, e.dst)?;
            if !e.is_self_loop() {
                self.upsert_edge(e);
            }
        }
        Ok(())
    }

    /// Applies a batch atomically. Every update is validated first,
    /// without tracing, so on error the store is unchanged. Additions of
    /// present edges overwrite the weight; deletions of absent edges
    /// fail.
    ///
    /// # Errors
    ///
    /// [`ApplyError::VertexOutOfBounds`] or [`ApplyError::MissingEdge`]
    /// for the first faulty update in batch order.
    fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<AppliedBatch, ApplyError> {
        for u in batch.updates() {
            check_bounds(self, u.src)?;
            check_bounds(self, u.dst)?;
            if u.kind == UpdateKind::Deletion && !self.contains_edge(u.src, u.dst) {
                return Err(ApplyError::MissingEdge { src: u.src, dst: u.dst });
            }
        }
        Ok(apply_updates(self, batch, |_, e| debug_assert!(false, "validated update failed: {e}")))
    }

    /// Applies a batch leniently: each update [`GraphStore::apply_batch`]
    /// would reject is skipped and recorded in `quarantine` — an endpoint
    /// outside the vertex range as [`QuarantineReason::VertexOutOfBounds`],
    /// a deletion of an absent edge as [`QuarantineReason::AbsentDeletion`],
    /// both with the detail `"(src, dst)"`. Skipped updates mark no vertex
    /// affected. When nothing is quarantined the result is identical to
    /// strict application.
    fn apply_batch_lenient(
        &mut self,
        batch: &UpdateBatch,
        quarantine: &mut QuarantineReport,
    ) -> AppliedBatch {
        apply_updates(self, batch, |u, e| {
            quarantine.record(e.quarantine_reason(), None, &format!("({}, {})", u.src, u.dst));
        })
    }

    /// All present edges, row-major in buffer order (the deletion
    /// sampling pool for [`crate::update::BatchComposer`] — the order is
    /// determinism-load-bearing).
    fn edges_vec(&self) -> Vec<Edge> {
        let mut edges = Vec::with_capacity(self.num_edges());
        for v in 0..self.num_vertices() as VertexId {
            edges.extend(self.out_edges(v).iter().map(|&(n, w)| Edge::new(v, n, w)));
        }
        edges
    }

    /// Materializes an immutable CSR snapshot of the current graph.
    fn snapshot(&self) -> Csr {
        Csr::from_edges(self.num_vertices(), &self.edges_vec())
    }
}

/// [`ApplyError::VertexOutOfBounds`] unless `v` is below the store's
/// vertex count.
fn check_bounds<S: GraphStore + ?Sized>(store: &S, v: VertexId) -> Result<(), ApplyError> {
    let vertex_count = store.num_vertices();
    if (v as usize) < vertex_count {
        Ok(())
    } else {
        Err(ApplyError::VertexOutOfBounds { vertex: v, vertex_count })
    }
}

/// The one batch-application loop, shared by strict and lenient
/// application: each update goes through the row primitives, and each
/// one that cannot apply (an endpoint out of range, a deletion of an
/// absent edge) is handed to `on_fault` instead. The deletion probe is
/// the store's traced `remove_edge`, absent edges included.
fn apply_updates<S: GraphStore + ?Sized>(
    store: &mut S,
    batch: &UpdateBatch,
    mut on_fault: impl FnMut(&EdgeUpdate, ApplyError),
) -> AppliedBatch {
    let mut applied = AppliedBatch::default();
    for u in batch.updates() {
        if let Err(e) = apply_update(store, u, &mut applied) {
            on_fault(u, e);
        }
    }
    applied.affected.sort_unstable();
    applied.affected.dedup();
    applied
}

fn apply_update<S: GraphStore + ?Sized>(
    store: &mut S,
    u: &EdgeUpdate,
    applied: &mut AppliedBatch,
) -> Result<(), ApplyError> {
    check_bounds(store, u.src)?;
    check_bounds(store, u.dst)?;
    match u.kind {
        UpdateKind::Addition => match store.upsert_edge(u.edge()) {
            None => applied.added.push(u.edge()),
            Some(old) => applied.reweighted.push((u.edge(), old)),
        },
        UpdateKind::Deletion => {
            let missing = ApplyError::MissingEdge { src: u.src, dst: u.dst };
            let weight = store.remove_edge(u.src, u.dst).ok_or(missing)?;
            applied.deleted.push(Edge::new(u.src, u.dst, weight));
        }
    }
    applied.affected.push(u.dst);
    Ok(())
}

impl ApplyError {
    /// The quarantine reason lenient application records in place of
    /// this error.
    fn quarantine_reason(&self) -> QuarantineReason {
        match self {
            ApplyError::VertexOutOfBounds { .. } => QuarantineReason::VertexOutOfBounds,
            ApplyError::MissingEdge { .. } => QuarantineReason::AbsentDeletion,
        }
    }
}

/// Enum dispatch over the built-in stores. The engine session holds one
/// of these (the stores are intentionally not boxed: enum dispatch keeps
/// the CSR arm's code path bit-for-bit the one `StreamingGraph` callers
/// always took, and keeps non-`Send` constraints unchanged).
#[derive(Debug, Clone)]
pub enum AnyStore {
    /// The CSR + snapshot substrate.
    Csr(StreamingGraph),
    /// The degree-adaptive hybrid substrate.
    Hybrid(HybridStore),
}

impl AnyStore {
    /// Builds a store of the given kind from an existing
    /// [`StreamingGraph`], replaying its edges in iteration order so the
    /// resulting buffer order is identical across kinds.
    #[must_use]
    pub fn from_streaming(kind: StorageKind, graph: StreamingGraph) -> Self {
        match kind {
            StorageKind::Csr => AnyStore::Csr(graph),
            StorageKind::Hybrid => {
                let mut hybrid = HybridStore::with_capacity(graph.num_vertices());
                for e in graph.edges_vec() {
                    hybrid.upsert_edge(e);
                }
                AnyStore::Hybrid(hybrid)
            }
        }
    }
}

/// Evaluates `$body` with `$s` bound to the backend inside `$store`.
macro_rules! dispatch {
    ($store:expr, $s:ident => $body:expr) => {
        match $store {
            AnyStore::Csr($s) => $body,
            AnyStore::Hybrid($s) => $body,
        }
    };
}

/// Forwards the row primitives, and picks the backend once per call for
/// the batch and snapshot rules, so their bodies run monomorphized per
/// backend with no dispatch per update or per row.
impl GraphStore for AnyStore {
    fn num_vertices(&self) -> VertexCount {
        dispatch!(self, s => s.num_vertices())
    }

    fn num_edges(&self) -> EdgeCount {
        dispatch!(self, s => s.num_edges())
    }

    fn out_edges(&self, v: VertexId) -> &[(VertexId, Weight)] {
        dispatch!(self, s => s.out_edges(v))
    }

    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        dispatch!(self, s => s.edge_weight(src, dst))
    }

    fn ensure_vertex(&mut self, vertex: VertexId) {
        dispatch!(self, s => s.ensure_vertex(vertex));
    }

    fn upsert_edge(&mut self, e: Edge) -> Option<Weight> {
        dispatch!(self, s => s.upsert_edge(e))
    }

    fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> Option<Weight> {
        dispatch!(self, s => s.remove_edge(src, dst))
    }

    fn stats(&self) -> StorageStats {
        dispatch!(self, s => s.stats())
    }

    fn set_touch_tracing(&mut self, enabled: bool) {
        dispatch!(self, s => s.set_touch_tracing(enabled));
    }

    fn take_update_touches(&mut self) -> Vec<StorageTouch> {
        dispatch!(self, s => s.take_update_touches())
    }

    fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<AppliedBatch, ApplyError> {
        dispatch!(self, s => s.apply_batch(batch))
    }

    fn apply_batch_lenient(
        &mut self,
        batch: &UpdateBatch,
        quarantine: &mut QuarantineReport,
    ) -> AppliedBatch {
        dispatch!(self, s => s.apply_batch_lenient(batch, quarantine))
    }

    fn edges_vec(&self) -> Vec<Edge> {
        dispatch!(self, s => s.edges_vec())
    }

    fn snapshot(&self) -> Csr {
        dispatch!(self, s => s.snapshot())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::update::EdgeUpdate;

    #[test]
    fn storage_kind_labels_roundtrip() {
        for kind in StorageKind::ALL {
            assert_eq!(StorageKind::from_label(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(StorageKind::from_label("nope"), None);
        assert_eq!(StorageKind::default(), StorageKind::Csr);
    }

    #[test]
    fn csr_store_reports_no_tiers_and_no_touches() {
        let mut g = StreamingGraph::with_capacity(4);
        g.insert_edges([Edge::new(0, 1, 1.0)]).unwrap();
        assert!(g.stats().is_empty());
        g.set_touch_tracing(true);
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(1, 2, 1.0)]).unwrap();
        let _ = g.apply_batch(&batch).unwrap();
        assert!(g.take_update_touches().is_empty());
    }

    #[test]
    fn any_store_round_trips_both_kinds() {
        for kind in StorageKind::ALL {
            let mut store = AnyStore::from_streaming(kind, StreamingGraph::with_capacity(5));
            store.insert_edges([Edge::new(0, 1, 2.0), Edge::new(1, 2, 3.0)]).unwrap();
            assert_eq!(store.num_edges(), 2);
            assert_eq!(store.degree(0), 1);
            assert_eq!(store.edge_weight(1, 2), Some(3.0));
            assert!(store.contains_edge(0, 1));
            assert_eq!(store.neighbors_of(1), vec![(2, 3.0)]);
            let snap = store.snapshot();
            assert_eq!(snap.vertex_count(), 5);
            assert_eq!(snap.edge_count(), 2);
        }
    }

    /// A store of `kind` holding `edges` over `n` vertices.
    fn store(kind: StorageKind, n: VertexCount, edges: &[Edge]) -> AnyStore {
        let mut graph = StreamingGraph::with_capacity(n);
        graph.insert_edges(edges.iter().copied()).unwrap();
        AnyStore::from_streaming(kind, graph)
    }

    /// The strict-atomicity table: a batch with an absent deletion fails
    /// with `MissingEdge` and leaves a store of `kind` as it was.
    pub(crate) fn strict_apply_is_atomic(kind: StorageKind) {
        let cases = [
            (
                6,
                vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(2, 3, 1.0)],
                [EdgeUpdate::addition(4, 5, 1.0), EdgeUpdate::deletion(5, 0)],
            ),
            (
                4,
                vec![Edge::new(0, 1, 1.0)],
                [EdgeUpdate::addition(2, 3, 1.0), EdgeUpdate::deletion(3, 0)],
            ),
        ];
        for (n, initial, updates) in cases {
            let batch = UpdateBatch::from_updates(updates.to_vec()).unwrap();
            let absent = updates[1];
            let mut store = store(kind, n, &initial);
            let before = store.edges_vec();
            assert_eq!(
                store.apply_batch(&batch).unwrap_err(),
                ApplyError::MissingEdge { src: absent.src, dst: absent.dst },
                "{kind}"
            );
            assert_eq!(store.edges_vec(), before, "{kind}: failed batch must not mutate the store");
        }
    }

    /// What a lenient application leaves: the applied batch, the
    /// quarantine, the edges in buffer order and the snapshot.
    pub(crate) type LenientOutcome = (AppliedBatch, QuarantineReport, Vec<Edge>, Csr);

    /// The lenient-quarantine table: a batch that strict application
    /// rejects is applied leniently on a store of `kind`, its absent
    /// deletion and out-of-bounds addition quarantined. Returns each
    /// case's outcome so callers can compare stores.
    pub(crate) fn lenient_apply_quarantines(kind: StorageKind) -> Vec<LenientOutcome> {
        // (initial edges, a fresh addition, an absent deletion, the
        // affected set); every batch also adds an out-of-bounds edge and
        // deletes the present edge (1, 2).
        let cases = [
            (
                vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(2, 3, 1.0)],
                (3, 4),
                (5, 0),
                [2, 4],
            ),
            (vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)], (2, 3), (3, 0), [2, 3]),
        ];
        let mut outcomes = Vec::new();
        for (initial, added, absent, affected) in cases {
            let batch = UpdateBatch::from_updates(vec![
                EdgeUpdate::addition(added.0, added.1, 2.0),
                EdgeUpdate::deletion(absent.0, absent.1),
                EdgeUpdate::addition(0, 99, 1.0), // out of bounds
                EdgeUpdate::deletion(1, 2),
            ])
            .unwrap();
            assert!(store(kind, 6, &initial).apply_batch(&batch).is_err(), "{kind}");
            let mut lenient = store(kind, 6, &initial);
            let mut q = QuarantineReport::new();
            let applied = lenient.apply_batch_lenient(&batch, &mut q);
            assert_eq!(q.total(), 2, "{kind}");
            assert_eq!(q.count(QuarantineReason::AbsentDeletion), 1, "{kind}");
            assert_eq!(q.count(QuarantineReason::VertexOutOfBounds), 1, "{kind}");
            assert!(lenient.contains_edge(added.0, added.1), "{kind}");
            assert!(!lenient.contains_edge(1, 2), "{kind}");
            assert_eq!(applied.affected_vertices(), &affected, "{kind}: skips mark nothing");
            outcomes.push((applied, q, lenient.edges_vec(), lenient.snapshot()));
        }
        outcomes
    }

    /// The bulk-insert table: on a store of `kind`, an out-of-bounds
    /// self-loop is a bounds error, not a silent skip; in-bounds
    /// self-loops are skipped and other edges counted.
    pub(crate) fn insert_edges_checks_bounds_before_self_loop(kind: StorageKind) {
        let mut store = store(kind, 3, &[]);
        assert!(
            matches!(
                store.insert_edges([Edge::new(9, 9, 1.0)]),
                Err(ApplyError::VertexOutOfBounds { vertex: 9, .. })
            ),
            "{kind}"
        );
        store.insert_edges([Edge::new(0, 1, 1.0), Edge::new(1, 1, 9.0)]).unwrap();
        assert_eq!(store.num_edges(), 1, "{kind}");
        assert!(!store.contains_edge(1, 1), "{kind}");
    }

    #[test]
    fn from_streaming_preserves_edge_order_across_kinds() {
        let mut g = StreamingGraph::with_capacity(8);
        g.insert_edges([
            Edge::new(3, 1, 1.0),
            Edge::new(3, 7, 2.0),
            Edge::new(0, 4, 3.0),
            Edge::new(3, 2, 4.0),
        ])
        .unwrap();
        let want = g.edges_vec();
        let hybrid = AnyStore::from_streaming(StorageKind::Hybrid, g.clone());
        let csr = AnyStore::from_streaming(StorageKind::Csr, g);
        assert_eq!(hybrid.edges_vec(), want);
        assert_eq!(csr.edges_vec(), want);
        assert_eq!(hybrid.snapshot(), csr.snapshot());
    }
}

//! The graph-store API.
//!
//! A streaming run applies each update batch to a mutable graph, then
//! patches a [`Csr`] snapshot of it (and the snapshot's transpose) by the
//! batch's delta ([`AppliedBatch::patch_snapshot`]); engines and the
//! simulator read only those snapshots. [`GraphStore`] is the mutable
//! graph, and [`StreamingGraph`] (one `Vec` per row) is its one backend.
//! [`GraphStore::snapshot`] builds a snapshot from scratch, which a run
//! does once, when it opens.
//!
//! # Rules over row primitives
//!
//! A backend supplies only its row layout: [`GraphStore::out_edges`]
//! (visit a row in buffer order), [`GraphStore::edge_weight`] (find an
//! edge), [`GraphStore::upsert_edge`] (overwrite, or append when absent),
//! [`GraphStore::remove_edge`] (swap-remove) and
//! [`GraphStore::ensure_vertex`] (grow the vertex range). Every rule is a
//! provided method written once here: bounds checks, bulk insert, strict
//! and lenient batch application, snapshot and edge iteration.
//!
//! # Determinism contract
//!
//! The same operation sequence yields the same edge iteration order (push
//! / swap-remove buffer order), the same [`AppliedBatch`], the same
//! quarantine records, and the same [`Csr`] snapshot bytes. The seeded
//! [`crate::update::BatchComposer`] samples deletions by index from
//! [`GraphStore::edges_vec`], so that order keeps every run of a seed on
//! one update stream.

use crate::csr::Csr;
use crate::quarantine::{QuarantineReason, QuarantineReport};
use crate::streaming::{AppliedBatch, ApplyError, StreamingGraph};
use crate::types::{Edge, EdgeCount, VertexCount, VertexId, Weight};
use crate::update::{EdgeUpdate, UpdateBatch, UpdateKind};

/// The graph-store backend a run uses, set in `RunConfig::storage`.
/// [`StorageKind::Csr`] is the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageKind {
    /// [`StreamingGraph`] with a CSR snapshot rebuilt per batch.
    #[default]
    Csr,
}

/// [`StreamingGraph`], the one backend, under the name the benchmark
/// (`e2ebench/`) builds its mirror store through.
pub type AnyStore = StreamingGraph;

impl StreamingGraph {
    /// Returns `graph`: the one [`StorageKind`] stores it as it is.
    #[must_use]
    pub fn from_streaming(_kind: StorageKind, graph: StreamingGraph) -> Self {
        graph
    }
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

    /// The weight of edge `(src, dst)`, when present.
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

    /// Out-degree of `v` (0 for out-of-range ids).
    fn degree(&self, v: VertexId) -> usize {
        self.out_edges(v).len()
    }

    /// Whether edge `(src, dst)` is present.
    fn contains_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.edge_weight(src, dst).is_some()
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

    /// Applies a batch atomically. Every update is validated first, so
    /// on error the store is unchanged. Additions of present edges
    /// overwrite the weight; deletions of absent edges fail.
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

    /// Materializes an immutable CSR snapshot of the current graph, built
    /// straight from the rows (each sorted by neighbor id).
    fn snapshot(&self) -> Csr {
        Csr::from_rows(self.num_vertices(), |v| self.out_edges(v))
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
/// the store's `remove_edge`, absent edges included.
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

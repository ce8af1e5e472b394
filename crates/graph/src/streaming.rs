//! Mutable streaming-graph store.
//!
//! [`StreamingGraph`] owns the evolving adjacency structure; through
//! [`GraphStore`] it applies [`UpdateBatch`]es atomically and materializes
//! immutable [`Csr`](crate::csr::Csr) snapshots for the engines (the paper
//! regenerates a CSR snapshot per batch, §2.1/§3.3.1). Applying a batch
//! reports the *affected vertices* — the destination endpoints of
//! added/deleted edges — which seed the incremental computation as the
//! initial active set (§3.2.1).

use std::error::Error;
use std::fmt;

use crate::io::LoadError;
use crate::quarantine::QuarantineReport;
use crate::store::GraphStore;
use crate::types::{Edge, EdgeCount, VertexCount, VertexId, Weight};
use crate::update::UpdateBatch;

/// Error applying a batch to a [`StreamingGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// An endpoint id is outside the graph's vertex range.
    VertexOutOfBounds {
        /// Offending vertex id.
        vertex: VertexId,
        /// Current vertex count.
        vertex_count: VertexCount,
    },
    /// A deletion referenced an edge that is not present.
    MissingEdge {
        /// Source of the missing edge.
        src: VertexId,
        /// Destination of the missing edge.
        dst: VertexId,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::VertexOutOfBounds { vertex, vertex_count } => {
                write!(f, "vertex {vertex} out of bounds for graph with {vertex_count} vertices")
            }
            ApplyError::MissingEdge { src, dst } => {
                write!(f, "deletion of absent edge ({src}, {dst})")
            }
        }
    }
}

impl Error for ApplyError {}

/// The outcome of applying one batch: which updates took effect and which
/// vertices the incremental computation must treat as affected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppliedBatch {
    pub(crate) added: Vec<Edge>,
    pub(crate) deleted: Vec<Edge>,
    pub(crate) reweighted: Vec<(Edge, Weight)>,
    pub(crate) affected: Vec<VertexId>,
}

impl AppliedBatch {
    /// Edges inserted by the batch (edges that did not exist before).
    #[must_use]
    pub fn added_edges(&self) -> &[Edge] {
        &self.added
    }

    /// Additions that hit an existing edge and overwrote its weight:
    /// `(edge with new weight, old weight)`. Incremental engines treat these
    /// as a deletion of the old-weight edge plus an addition.
    #[must_use]
    pub fn reweighted_edges(&self) -> &[(Edge, Weight)] {
        &self.reweighted
    }

    /// Edges removed by the batch (with the weight they had).
    #[must_use]
    pub fn deleted_edges(&self) -> &[Edge] {
        &self.deleted
    }

    /// Vertices affected by the updates (destinations of added and deleted
    /// edges), deduplicated and sorted. These seed `Active_Vertices`.
    #[must_use]
    pub fn affected_vertices(&self) -> &[VertexId] {
        &self.affected
    }
}

/// A directed, weighted streaming graph: the [`GraphStore`] backend, one
/// `Vec` of `(dst, weight)` per row. Its rules (bounds checks, batch
/// application, snapshots) are the [`GraphStore`] provided methods.
///
/// Duplicate `(src, dst)` edges are collapsed: re-adding an existing edge
/// overwrites its weight (documented normalization policy; the engines treat
/// it as a weight change, i.e., a deletion followed by an addition).
#[derive(Debug, Clone, Default)]
pub struct StreamingGraph {
    adjacency: Vec<Vec<(VertexId, Weight)>>,
    edge_count: EdgeCount,
}

impl StreamingGraph {
    /// Creates an empty graph with `vertex_count` vertices.
    #[must_use]
    pub fn with_capacity(vertex_count: VertexCount) -> Self {
        Self { adjacency: vec![Vec::new(); vertex_count], edge_count: 0 }
    }

    /// [`StreamingGraph::with_capacity`] for a vertex count taken from
    /// outside input: a size the host cannot allocate is an error instead
    /// of an abort.
    ///
    /// # Errors
    ///
    /// [`LoadError::TooLarge`] naming `vertex_count`.
    pub fn try_with_capacity(vertex_count: VertexCount) -> Result<Self, LoadError> {
        let mut adjacency = Vec::new();
        adjacency
            .try_reserve_exact(vertex_count)
            .map_err(|_| LoadError::TooLarge { vertex_count })?;
        adjacency.resize_with(vertex_count, Vec::new);
        Ok(Self { adjacency, edge_count: 0 })
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> VertexCount {
        self.adjacency.len()
    }

    /// Number of directed edges currently present.
    #[must_use]
    pub fn edge_count(&self) -> EdgeCount {
        self.edge_count
    }

    /// [`GraphStore::apply_batch`], callable without importing the trait.
    ///
    /// # Errors
    ///
    /// [`ApplyError::VertexOutOfBounds`] or [`ApplyError::MissingEdge`].
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<AppliedBatch, ApplyError> {
        GraphStore::apply_batch(self, batch)
    }

    /// [`GraphStore::apply_batch_lenient`], callable without importing
    /// the trait.
    pub fn apply_batch_lenient(
        &mut self,
        batch: &UpdateBatch,
        quarantine: &mut QuarantineReport,
    ) -> AppliedBatch {
        GraphStore::apply_batch_lenient(self, batch, quarantine)
    }

    /// [`GraphStore::edges_vec`], callable without importing the trait.
    #[must_use]
    pub fn edges_vec(&self) -> Vec<Edge> {
        GraphStore::edges_vec(self)
    }
}

impl GraphStore for StreamingGraph {
    fn num_vertices(&self) -> VertexCount {
        self.adjacency.len()
    }

    fn num_edges(&self) -> EdgeCount {
        self.edge_count
    }

    fn out_edges(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.adjacency.get(v as usize).map_or(&[], Vec::as_slice)
    }

    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        self.out_edges(src).iter().find_map(|&(n, w)| (n == dst).then_some(w))
    }

    fn ensure_vertex(&mut self, vertex: VertexId) {
        if (vertex as usize) >= self.adjacency.len() {
            self.adjacency.resize(vertex as usize + 1, Vec::new());
        }
    }

    fn upsert_edge(&mut self, e: Edge) -> Option<Weight> {
        let row = &mut self.adjacency[e.src as usize];
        if let Some(slot) = row.iter_mut().find(|(n, _)| *n == e.dst) {
            let old = slot.1;
            slot.1 = e.weight;
            Some(old)
        } else {
            row.push((e.dst, e.weight));
            self.edge_count += 1;
            None
        }
    }

    fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> Option<Weight> {
        let row = &mut self.adjacency[src as usize];
        let at = row.iter().position(|&(n, _)| n == dst)?;
        let (_, w) = row.swap_remove(at);
        self.edge_count -= 1;
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quarantine::QuarantineReason;
    use crate::update::EdgeUpdate;

    /// A graph holding `edges` over `n` vertices.
    fn graph(n: VertexCount, edges: &[Edge]) -> StreamingGraph {
        let mut g = StreamingGraph::with_capacity(n);
        g.insert_edges(edges.iter().copied()).unwrap();
        g
    }

    fn base() -> StreamingGraph {
        graph(6, &[Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(2, 3, 1.0)])
    }

    #[test]
    fn reinsert_overwrites_weight() {
        let mut g = StreamingGraph::with_capacity(3);
        g.insert_edges([Edge::new(0, 1, 1.0), Edge::new(0, 1, 5.0)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        let snap = g.snapshot();
        assert_eq!(snap.weights(0), &[5.0]);
    }

    /// An out-of-bounds self-loop is a bounds error, not a silent skip;
    /// in-bounds self-loops are skipped and other edges counted.
    #[test]
    fn insert_counts_edges_and_skips_self_loops() {
        let mut g = graph(3, &[]);
        assert!(matches!(
            g.insert_edges([Edge::new(9, 9, 1.0)]),
            Err(ApplyError::VertexOutOfBounds { vertex: 9, .. })
        ));
        g.insert_edges([Edge::new(0, 1, 1.0), Edge::new(1, 1, 9.0)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.contains_edge(1, 1));
    }

    #[test]
    fn apply_batch_adds_and_deletes() {
        let mut g = base();
        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(3, 4, 2.0),
            EdgeUpdate::deletion(0, 1),
        ])
        .unwrap();
        let applied = g.apply_batch(&batch).unwrap();
        assert!(g.contains_edge(3, 4));
        assert!(!g.contains_edge(0, 1));
        assert_eq!(applied.affected_vertices(), &[1, 4]);
        assert_eq!(applied.deleted_edges(), &[Edge::new(0, 1, 1.0)]);
    }

    #[test]
    fn apply_batch_out_of_bounds() {
        let mut g = base();
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, 99, 1.0)]).unwrap();
        assert!(matches!(
            g.apply_batch(&batch),
            Err(ApplyError::VertexOutOfBounds { vertex: 99, .. })
        ));
    }

    /// A batch with an absent deletion fails with `MissingEdge` and
    /// leaves the graph as it was.
    #[test]
    fn apply_batch_missing_deletion_is_atomic() {
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
            let mut g = graph(n, &initial);
            let before = g.edges_vec();
            assert_eq!(
                g.apply_batch(&batch).unwrap_err(),
                ApplyError::MissingEdge { src: absent.src, dst: absent.dst }
            );
            assert_eq!(g.edges_vec(), before, "failed batch must not mutate the graph");
        }
    }

    #[test]
    fn apply_batch_records_reweights_separately() {
        let mut g = base();
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, 1, 9.0)]).unwrap();
        let applied = g.apply_batch(&batch).unwrap();
        assert!(applied.added_edges().is_empty());
        assert_eq!(applied.reweighted_edges(), &[(Edge::new(0, 1, 9.0), 1.0)]);
        assert_eq!(applied.affected_vertices(), &[1]);
        assert_eq!(g.snapshot().weights(0), &[9.0]);
    }

    #[test]
    fn snapshot_matches_adjacency() {
        let g = base();
        let s = g.snapshot();
        assert_eq!(s.vertex_count(), 6);
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.neighbors(1), &[2]);
    }

    #[test]
    fn ensure_vertex_grows() {
        let mut g = StreamingGraph::with_capacity(1);
        g.ensure_vertex(10);
        assert_eq!(g.vertex_count(), 11);
        g.insert_edges([Edge::new(10, 0, 1.0)]).unwrap();
        assert!(g.contains_edge(10, 0));
    }

    #[test]
    fn error_display_messages() {
        let a = ApplyError::MissingEdge { src: 1, dst: 2 };
        assert_eq!(a.to_string(), "deletion of absent edge (1, 2)");
        let b = ApplyError::VertexOutOfBounds { vertex: 9, vertex_count: 3 };
        assert!(b.to_string().contains("out of bounds"));
    }

    #[test]
    fn lenient_apply_of_clean_batch_matches_strict() {
        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(3, 4, 2.0),
            EdgeUpdate::addition(0, 1, 7.0), // reweight
            EdgeUpdate::deletion(1, 2),
        ])
        .unwrap();
        let mut strict = base();
        let want = strict.apply_batch(&batch).unwrap();
        let mut lenient = base();
        let mut q = QuarantineReport::new();
        let got = lenient.apply_batch_lenient(&batch, &mut q);
        assert!(q.is_empty());
        assert_eq!(got, want);
        assert_eq!(lenient.edges_vec(), strict.edges_vec());
    }

    /// A batch that strict application rejects applies leniently, its
    /// absent deletion and out-of-bounds addition quarantined.
    #[test]
    fn lenient_apply_quarantines_what_strict_rejects() {
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
        for (initial, added, absent, affected) in cases {
            let batch = UpdateBatch::from_updates(vec![
                EdgeUpdate::addition(added.0, added.1, 2.0),
                EdgeUpdate::deletion(absent.0, absent.1),
                EdgeUpdate::addition(0, 99, 1.0), // out of bounds
                EdgeUpdate::deletion(1, 2),
            ])
            .unwrap();
            assert!(graph(6, &initial).apply_batch(&batch).is_err());
            let mut lenient = graph(6, &initial);
            let mut q = QuarantineReport::new();
            let applied = lenient.apply_batch_lenient(&batch, &mut q);
            assert_eq!(q.total(), 2);
            assert_eq!(q.count(QuarantineReason::AbsentDeletion), 1);
            assert_eq!(q.count(QuarantineReason::VertexOutOfBounds), 1);
            assert!(lenient.contains_edge(added.0, added.1));
            assert!(!lenient.contains_edge(1, 2));
            assert_eq!(applied.affected_vertices(), &affected, "skips mark nothing");
        }
    }
}

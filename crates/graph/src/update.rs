//! Graph update batches.
//!
//! Streaming updates arrive as batches of edge additions and deletions
//! (§2.1, Fig 1). [`UpdateBatch`] validates and normalizes a batch;
//! [`BatchComposer`] synthesizes the paper's evaluation workload: after an
//! initial 50 % load, remaining edges stream in as additions while deletions
//! are sampled from the loaded graph (§4.1), in a configurable add:delete
//! ratio (Fig 24b).

use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::error::Error;
use std::fmt;

use crate::prng::Xoshiro256StarStar;
use crate::quarantine::{QuarantineReason, QuarantineReport};
use crate::types::{Edge, VertexId, Weight};

/// The kind of a single graph update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateKind {
    /// Insert an edge.
    Addition,
    /// Remove an edge.
    Deletion,
}

/// One streaming update: add or delete a directed edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeUpdate {
    /// Add or delete.
    pub kind: UpdateKind,
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Weight (meaningful for additions; ignored for deletions).
    pub weight: Weight,
}

impl EdgeUpdate {
    /// Creates an edge-addition update.
    #[must_use]
    pub fn addition(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        Self { kind: UpdateKind::Addition, src, dst, weight }
    }

    /// Creates an edge-deletion update.
    #[must_use]
    pub fn deletion(src: VertexId, dst: VertexId) -> Self {
        Self { kind: UpdateKind::Deletion, src, dst, weight: 0.0 }
    }

    /// The edge this update refers to.
    #[must_use]
    pub fn edge(&self) -> Edge {
        Edge::new(self.src, self.dst, self.weight)
    }
}

/// Error building an [`UpdateBatch`].
///
/// (`Eq` is deliberately absent: [`BatchError::NonFiniteWeight`] carries
/// the offending `f32`, and NaN is not reflexively equal.)
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// The same `(src, dst)` pair appears in two conflicting updates.
    ConflictingUpdates {
        /// Source vertex of the conflicting pair.
        src: VertexId,
        /// Destination vertex of the conflicting pair.
        dst: VertexId,
    },
    /// An addition is a self-loop, which the streaming engines reject.
    SelfLoop {
        /// The looping vertex.
        vertex: VertexId,
    },
    /// An addition carries a NaN or infinite weight, which would poison
    /// every downstream algorithm state it touches.
    NonFiniteWeight {
        /// Source vertex of the offending addition.
        src: VertexId,
        /// Destination vertex of the offending addition.
        dst: VertexId,
        /// The non-finite weight as supplied.
        weight: Weight,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::ConflictingUpdates { src, dst } => {
                write!(f, "conflicting updates for edge ({src}, {dst}) in one batch")
            }
            BatchError::SelfLoop { vertex } => {
                write!(f, "self-loop addition on vertex {vertex}")
            }
            BatchError::NonFiniteWeight { src, dst, weight } => {
                write!(f, "non-finite weight {weight} on addition of edge ({src}, {dst})")
            }
        }
    }
}

impl Error for BatchError {}

/// A validated batch of streaming updates.
///
/// Invariants enforced at construction:
/// * no self-loop additions,
/// * no NaN / infinite addition weights,
/// * no `(src, dst)` pair appears with both an addition and a deletion
///   (the paper applies a batch atomically, so such a pair is ambiguous),
/// * duplicate identical updates are dropped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    updates: Vec<EdgeUpdate>,
}

/// The per-update violation [`UpdateBatch::from_updates`] rejects (strict)
/// and [`UpdateBatch::from_updates_lenient`] quarantines.
fn check_update(
    u: &EdgeUpdate,
    pair_kind: &mut HashMap<(VertexId, VertexId), UpdateKind>,
) -> Result<(), BatchError> {
    if u.kind == UpdateKind::Addition && u.src == u.dst {
        return Err(BatchError::SelfLoop { vertex: u.src });
    }
    if u.kind == UpdateKind::Addition && !u.weight.is_finite() {
        return Err(BatchError::NonFiniteWeight { src: u.src, dst: u.dst, weight: u.weight });
    }
    if let Some(&k) = pair_kind.get(&(u.src, u.dst)) {
        if k != u.kind {
            return Err(BatchError::ConflictingUpdates { src: u.src, dst: u.dst });
        }
    } else {
        pair_kind.insert((u.src, u.dst), u.kind);
    }
    Ok(())
}

impl BatchError {
    /// The quarantine reason lenient construction records in place of
    /// this error.
    fn quarantine_reason(&self) -> QuarantineReason {
        match self {
            BatchError::SelfLoop { .. } => QuarantineReason::SelfLoop,
            BatchError::NonFiniteWeight { .. } => QuarantineReason::NonFiniteWeight,
            BatchError::ConflictingUpdates { .. } => QuarantineReason::ConflictingUpdate,
        }
    }
}

impl UpdateBatch {
    /// Builds a batch from raw updates, validating and deduplicating.
    ///
    /// # Errors
    ///
    /// [`BatchError::SelfLoop`] for a self-loop addition,
    /// [`BatchError::NonFiniteWeight`] for an addition whose weight is NaN
    /// or infinite, and [`BatchError::ConflictingUpdates`] if one
    /// `(src, dst)` pair is both added and deleted in the same batch.
    pub fn from_updates(updates: Vec<EdgeUpdate>) -> Result<Self, BatchError> {
        Self::build(updates, Err)
    }

    /// Lenient variant of [`UpdateBatch::from_updates`]: each update
    /// strict mode would reject is skipped and recorded in `report`
    /// instead of failing the whole batch. Duplicates still collapse
    /// silently (a normalization, not a fault, in both modes).
    #[must_use]
    pub fn from_updates_lenient(updates: Vec<EdgeUpdate>, report: &mut QuarantineReport) -> Self {
        let Ok(batch) = Self::build(updates, |e| {
            report.record(e.quarantine_reason(), None, &e.to_string());
            Ok::<(), Infallible>(())
        });
        batch
    }

    /// The one construction loop: strict is the lenient pass that stops
    /// at its first fault. Each invalid update's error goes to
    /// `on_fault`, which skips the update (`Ok`) or ends the build.
    fn build<E>(
        updates: Vec<EdgeUpdate>,
        mut on_fault: impl FnMut(BatchError) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut seen: HashSet<(VertexId, VertexId, UpdateKind)> = HashSet::new();
        let mut pair_kind = HashMap::new();
        let mut out = Vec::with_capacity(updates.len());
        for u in updates {
            match check_update(&u, &mut pair_kind) {
                Ok(()) => {
                    if seen.insert((u.src, u.dst, u.kind)) {
                        out.push(u);
                    }
                }
                Err(e) => on_fault(e)?,
            }
        }
        Ok(Self { updates: out })
    }

    /// The validated updates, in arrival order.
    #[must_use]
    pub fn updates(&self) -> &[EdgeUpdate] {
        &self.updates
    }

    /// Number of updates in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Iterates only the additions.
    pub fn additions(&self) -> impl Iterator<Item = &EdgeUpdate> {
        self.updates.iter().filter(|u| u.kind == UpdateKind::Addition)
    }

    /// Iterates only the deletions.
    pub fn deletions(&self) -> impl Iterator<Item = &EdgeUpdate> {
        self.updates.iter().filter(|u| u.kind == UpdateKind::Deletion)
    }
}

/// Synthesizes the evaluation's update stream (§4.1): a pool of not-yet-loaded
/// edges provides additions; deletions are sampled from currently present
/// edges. `add_fraction` controls the Fig 24b composition sweep.
#[derive(Debug)]
pub struct BatchComposer {
    pending_additions: Vec<Edge>,
    rng: Xoshiro256StarStar,
    add_fraction: f64,
    /// Edges this stream has deleted and not since re-added. Callers that
    /// pass a stale `present_edges` pool (one not refreshed after every
    /// batch) would otherwise see the composer delete the same edge twice.
    deleted_in_stream: HashSet<(VertexId, VertexId)>,
}

impl BatchComposer {
    /// Creates a composer over the edges not loaded into the initial
    /// snapshot. `add_fraction` in `[0, 1]` is the share of additions per
    /// batch (paper default: mixed; Fig 24b sweeps 0..=1).
    ///
    /// # Panics
    ///
    /// Panics if `add_fraction` is not in `[0, 1]`.
    #[must_use]
    pub fn new(pending_additions: Vec<Edge>, add_fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&add_fraction),
            "add_fraction must be in [0,1], got {add_fraction}"
        );
        Self {
            pending_additions,
            rng: Xoshiro256StarStar::new(seed),
            add_fraction,
            deleted_in_stream: HashSet::new(),
        }
    }

    /// Number of additions still pending.
    #[must_use]
    pub fn remaining_additions(&self) -> usize {
        self.pending_additions.len()
    }

    /// Composes the next batch of up to `batch_size` updates. Deletion
    /// candidates are sampled (without replacement within the batch) from
    /// `present_edges`, excluding edges this stream already deleted in an
    /// earlier batch and has not re-added — so a caller that reuses a
    /// stale pool never sees the same edge deleted twice. Returns `None`
    /// once both the addition pool and the requested deletions are
    /// exhausted.
    pub fn next_batch(&mut self, batch_size: usize, present_edges: &[Edge]) -> Option<UpdateBatch> {
        if batch_size == 0 {
            return None;
        }
        let want_adds = ((batch_size as f64) * self.add_fraction).round() as usize;
        let want_adds = want_adds.min(self.pending_additions.len());
        let want_dels = (batch_size - want_adds).min(present_edges.len());
        if want_adds == 0 && want_dels == 0 {
            return None;
        }

        let mut updates = Vec::with_capacity(want_adds + want_dels);
        let mut touched: HashSet<(VertexId, VertexId)> = HashSet::new();
        for _ in 0..want_adds {
            let i = self.rng.next_index(self.pending_additions.len());
            let e = self.pending_additions.swap_remove(i);
            // Defensive normalization: a caller-supplied pool may carry
            // self-loops or non-finite weights the batch would reject.
            if e.src == e.dst || !e.weight.is_finite() {
                continue;
            }
            if touched.insert((e.src, e.dst)) {
                updates.push(EdgeUpdate::addition(e.src, e.dst, e.weight));
                self.deleted_in_stream.remove(&(e.src, e.dst));
            }
        }
        let mut attempts = 0;
        let mut dels = 0;
        while dels < want_dels && attempts < want_dels * 8 {
            attempts += 1;
            let e = present_edges[self.rng.next_index(present_edges.len())];
            if self.deleted_in_stream.contains(&(e.src, e.dst)) {
                continue;
            }
            if touched.insert((e.src, e.dst)) {
                updates.push(EdgeUpdate::deletion(e.src, e.dst));
                self.deleted_in_stream.insert((e.src, e.dst));
                dels += 1;
            }
        }
        if updates.is_empty() {
            return None;
        }
        match UpdateBatch::from_updates(updates) {
            Ok(batch) => Some(batch),
            // The `touched` set and the sampling filters uphold every
            // batch invariant; surfacing a regression as stream
            // exhaustion would hide the bug, so fail loudly instead.
            Err(e) => unreachable!("composer produced an invalid batch: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_dedups_identical_updates() {
        let b = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(0, 1, 1.0),
            EdgeUpdate::addition(0, 1, 1.0),
        ])
        .unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn batch_rejects_self_loop_addition() {
        let err = UpdateBatch::from_updates(vec![EdgeUpdate::addition(3, 3, 1.0)]).unwrap_err();
        assert_eq!(err, BatchError::SelfLoop { vertex: 3 });
    }

    #[test]
    fn batch_rejects_add_delete_conflict() {
        let err = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(0, 1, 1.0),
            EdgeUpdate::deletion(0, 1),
        ])
        .unwrap_err();
        assert_eq!(err, BatchError::ConflictingUpdates { src: 0, dst: 1 });
    }

    #[test]
    fn additions_and_deletions_filters() {
        let b = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(0, 1, 1.0),
            EdgeUpdate::deletion(2, 3),
        ])
        .unwrap();
        assert_eq!(b.additions().count(), 1);
        assert_eq!(b.deletions().count(), 1);
    }

    #[test]
    fn composer_respects_fraction_and_pool() {
        let pool: Vec<Edge> = (0..100).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        let present: Vec<Edge> = (200..300).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        let mut c = BatchComposer::new(pool, 0.7, 42);
        let b = c.next_batch(20, &present).unwrap();
        let adds = b.additions().count();
        let dels = b.deletions().count();
        assert_eq!(adds, 14);
        assert!(dels <= 6 && dels > 0);
        assert_eq!(c.remaining_additions(), 86);
    }

    #[test]
    fn composer_all_additions_composition() {
        let pool: Vec<Edge> = (0..10).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        let mut c = BatchComposer::new(pool, 1.0, 1);
        let b = c.next_batch(100, &[]).unwrap();
        assert_eq!(b.additions().count(), 10);
        assert_eq!(b.deletions().count(), 0);
        assert!(c.next_batch(10, &[]).is_none());
    }

    #[test]
    fn composer_all_deletions_composition() {
        let present: Vec<Edge> = (0..50).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        let mut c = BatchComposer::new(vec![], 0.0, 1);
        let b = c.next_batch(10, &present).unwrap();
        assert_eq!(b.additions().count(), 0);
        assert!(b.deletions().count() > 0);
    }

    #[test]
    fn composer_exhaustion_returns_none() {
        let mut c = BatchComposer::new(vec![], 1.0, 1);
        assert!(c.next_batch(10, &[]).is_none());
        assert!(c.next_batch(0, &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "add_fraction")]
    fn composer_rejects_bad_fraction() {
        let _ = BatchComposer::new(vec![], 1.5, 1);
    }

    #[test]
    fn batch_rejects_nan_and_infinite_addition_weights() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, 1, bad)]).unwrap_err();
            assert!(
                matches!(err, BatchError::NonFiniteWeight { src: 0, dst: 1, .. }),
                "weight {bad}: got {err}"
            );
            assert!(err.to_string().contains("non-finite weight"));
        }
    }

    #[test]
    fn deletion_weight_is_ignored_by_the_finiteness_check() {
        // Deletions carry no meaningful weight; a hand-built NaN there
        // must not fail construction.
        let del = EdgeUpdate { kind: UpdateKind::Deletion, src: 0, dst: 1, weight: f32::NAN };
        assert!(UpdateBatch::from_updates(vec![del]).is_ok());
    }

    #[test]
    fn lenient_batch_quarantines_what_strict_rejects() {
        let updates = vec![
            EdgeUpdate::addition(0, 1, 1.0),
            EdgeUpdate::addition(2, 2, 1.0),      // self-loop
            EdgeUpdate::addition(3, 4, f32::NAN), // non-finite
            EdgeUpdate::addition(5, 6, 1.0),
            EdgeUpdate::deletion(5, 6), // conflict
        ];
        assert!(UpdateBatch::from_updates(updates.clone()).is_err());
        let mut q = QuarantineReport::new();
        let b = UpdateBatch::from_updates_lenient(updates, &mut q);
        assert_eq!(b.len(), 2, "the two good updates survive");
        assert_eq!(q.total(), 3);
        assert_eq!(q.count(QuarantineReason::SelfLoop), 1);
        assert_eq!(q.count(QuarantineReason::NonFiniteWeight), 1);
        assert_eq!(q.count(QuarantineReason::ConflictingUpdate), 1);
    }

    #[test]
    fn lenient_batch_on_clean_input_matches_strict() {
        let updates = vec![EdgeUpdate::addition(0, 1, 1.0), EdgeUpdate::deletion(2, 3)];
        let strict = UpdateBatch::from_updates(updates.clone()).unwrap();
        let mut q = QuarantineReport::new();
        let lenient = UpdateBatch::from_updates_lenient(updates, &mut q);
        assert!(q.is_empty());
        assert_eq!(lenient, strict);
    }

    #[test]
    fn composer_never_redeletes_with_a_stale_present_pool() {
        // Regression: with a pool that is never refreshed, every batch
        // used to be able to re-sample an edge deleted in an earlier
        // batch, producing a deletion for an already-absent edge.
        let stale: Vec<Edge> = (0..40).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        let mut c = BatchComposer::new(vec![], 0.0, 99);
        let mut seen: HashSet<(VertexId, VertexId)> = HashSet::new();
        for _ in 0..6 {
            let Some(b) = c.next_batch(8, &stale) else { break };
            for u in b.deletions() {
                assert!(
                    seen.insert((u.src, u.dst)),
                    "edge ({}, {}) deleted twice across the stream",
                    u.src,
                    u.dst
                );
            }
        }
        assert!(seen.len() > 8, "the stream must span multiple batches");
    }

    #[test]
    fn composer_allows_redeletion_after_readdition() {
        // Delete (0, 1) in batch 1, re-add it via the pending pool, then
        // a later batch may delete it again.
        let present = vec![Edge::new(0, 1, 1.0)];
        let mut c = BatchComposer::new(vec![Edge::new(0, 1, 2.0)], 0.0, 7);
        let b1 = c.next_batch(1, &present).unwrap();
        assert_eq!(b1.deletions().count(), 1);
        assert!(c.next_batch(1, &present).is_none(), "still-deleted edge is excluded");
        c.add_fraction = 1.0;
        let b2 = c.next_batch(1, &present).unwrap();
        assert_eq!(b2.additions().count(), 1);
        c.add_fraction = 0.0;
        let b3 = c.next_batch(1, &present).unwrap();
        assert_eq!(b3.deletions().count(), 1, "re-added edge is deletable again");
    }

    /// Renders a batch as `+src>dst` / `-src>dst` tokens in arrival order.
    fn render(batch: &UpdateBatch) -> String {
        let tokens: Vec<String> = batch
            .updates()
            .iter()
            .map(|u| {
                let sign = if u.kind == UpdateKind::Addition { '+' } else { '-' };
                format!("{sign}{}>{}", u.src, u.dst)
            })
            .collect();
        tokens.join(" ")
    }

    #[test]
    fn seeded_composer_draws_pinned_batches() {
        // The exact stream a seeded composer draws when its deletion pool
        // is refreshed from a mirror store after every batch: any change to
        // the sampling loop that moves a draw moves a composed stream.
        use crate::store::GraphStore;
        use crate::streaming::StreamingGraph;
        let n: VertexId = 24;
        let present: Vec<Edge> =
            (0..n).flat_map(|v| [1, 5].map(|k| Edge::new(v, (v + k) % n, 1.0))).collect();
        let pending: Vec<Edge> = (0..n).map(|v| Edge::new(v, (v + 3) % n, 2.0)).collect();
        let at_0_2 = [
            "+5>8 +2>5 -5>10 -10>15 -2>3 -7>8 -12>13 -23>4 -15>16 -5>6 -1>6 -8>9",
            "+18>21 +1>4 -9>10 -20>21 -0>1 -2>5 -4>5 -23>0 -14>15 -6>11 -22>3 -6>7",
            "+20>23 +23>2 -19>0 -18>19 -17>18 -19>20 -5>8 -3>8 -0>5 -7>12 -21>22 -10>11",
            "+11>14 +10>13 -18>23 -14>19 -9>14 -20>23 -16>17 -11>16 -18>21 -22>23 -4>9 -17>22",
            "+16>19 +7>10 -13>18 -13>14 -15>20 -1>2 -20>1 -10>13 -8>13 -12>17 -2>7 -21>2",
        ];
        let at_0_75 = [
            "+5>8 +2>5 +23>2 +9>12 +1>4 +21>0 +20>23 +16>19 +10>13 -5>6 -1>6 -8>9",
            "+12>15 +19>22 +4>7 +15>18 +0>3 +11>14 +13>16 +7>10 +8>11 -14>15 -7>8 -23>4",
            "+18>21 +6>9 +17>20 +3>6 +14>17 +22>1 -16>17 -19>22 -20>1 -5>8 -4>5 -0>5",
            "-6>9 -21>0 -9>12 -15>20 -18>23 -12>17 -21>22 -14>19 -9>14 -17>22 -22>23 -4>7",
            "-13>16 -15>18 -12>13 -15>16 -14>17 -16>19 -1>2 -0>1 -19>0 -7>12 -6>11 -11>14",
        ];
        for (add_fraction, expected) in [(0.2, at_0_2), (0.75, at_0_75)] {
            let mut mirror = StreamingGraph::with_capacity(n as usize);
            mirror.insert_edges(present.iter().copied()).unwrap();
            let mut c = BatchComposer::new(pending.clone(), add_fraction, 11);
            for (i, want) in expected.iter().enumerate() {
                let b = c.next_batch(12, &mirror.edges_vec()).unwrap();
                mirror.apply_batch(&b).unwrap();
                assert_eq!(render(&b), *want, "add fraction {add_fraction}, batch {i}");
            }
        }
    }

    #[test]
    fn composer_skips_invalid_pool_edges() {
        let pool = vec![Edge::new(3, 3, 1.0), Edge::new(0, 1, f32::NAN)];
        let mut c = BatchComposer::new(pool, 1.0, 1);
        assert!(c.next_batch(4, &[]).is_none(), "only invalid pool edges → no batch");
    }
}

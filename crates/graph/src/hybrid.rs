//! GraphTango-style degree-adaptive hybrid adjacency store.
//!
//! [`HybridStore`] keeps each vertex's adjacency in one of three tiers
//! sized by its current degree (GraphTango, PAPERS.md):
//!
//! * **Inline** (`degree ≤ 4`): neighbors live inside the per-vertex row
//!   header — one cache line holds the tag, the length, and the
//!   payload, so low-degree updates touch a single line.
//! * **Linear** (`4 < degree ≤ 16`): a growable buffer scanned
//!   sequentially; medium-degree rows stay cheap to walk and append to.
//! * **Indexed** (`degree > 16`): the same linear buffer plus an
//!   open-addressed hash index `dst → buffer position` (multiply hash,
//!   linear probing, backward-shift deletion, grown at ~0.7 load), so
//!   containment and deletion on high-degree rows are O(1) probes
//!   instead of O(degree) scans.
//!
//! Tier transitions apply **hysteresis** — promote at `> 4` / `> 16`,
//! demote at `≤ 2` / `< 8` — so a row oscillating around a boundary does
//! not thrash between representations.
//!
//! # Order contract
//!
//! The store supplies only the row primitives of [`GraphStore`]; batch
//! application, bounds checks, snapshots and edge iteration are the
//! trait's provided methods, shared with [`StreamingGraph`]. Every tier
//! stores the neighbor payload in *push / swap-remove buffer order*,
//! exactly like [`StreamingGraph`]'s `Vec` rows, and every tier
//! transition preserves that order (the index tier indexes the buffer,
//! it does not replace it). Given the same operation sequence the two
//! stores therefore report byte-identical [`GraphStore::edges_vec`]
//! orders — which the seeded `BatchComposer` samples deletions from —
//! and byte-identical [`Csr`] snapshots. This is the property that
//! makes CSR-vs-hybrid runs agree on every algorithm fixpoint, and the
//! equivalence property suite asserts it directly.
//!
//! [`StreamingGraph`]: crate::streaming::StreamingGraph
//! [`Csr`]: crate::csr::Csr

use crate::store::{GraphStore, StorageRegion, StorageStats, StorageTouch, TOUCH_ROW_STRIDE};
use crate::types::{Edge, EdgeCount, VertexCount, VertexId, Weight};

/// Inline-tier capacity: rows at or below this degree live in the header.
pub const TIER_INLINE_CAP: usize = 4;
/// Promote linear → indexed when the degree exceeds this.
pub const TIER_HASH_PROMOTE: usize = 16;
/// Demote indexed → linear when the degree falls below this (hysteresis:
/// strictly less than the promotion threshold).
pub const TIER_HASH_DEMOTE: usize = 8;
/// Demote linear → inline when the degree falls to this or below
/// (hysteresis: strictly less than the inline capacity).
pub const TIER_INLINE_DEMOTE: usize = 2;

/// Synthetic per-vertex address stride for buffer-slot touches (see
/// [`TOUCH_ROW_STRIDE`]).
const ROW_STRIDE: u64 = TOUCH_ROW_STRIDE;

/// Open-addressed `dst → buffer position` index of one high-degree row.
///
/// Power-of-two capacity, multiply hashing, linear probing, and
/// backward-shift deletion (no tombstones, so probe chains never decay).
#[derive(Debug, Clone)]
struct HashIndex {
    /// `EMPTY`, or `(dst << 32) | position`.
    slots: Vec<u64>,
    len: usize,
}

const EMPTY: u64 = u64::MAX;

impl HashIndex {
    /// An index sized for `len` entries at below ~0.5 load.
    fn with_capacity_for(len: usize) -> Self {
        let cap = (len.max(4) * 2).next_power_of_two();
        Self { slots: vec![EMPTY; cap], len: 0 }
    }

    fn home(&self, dst: VertexId) -> usize {
        let h = (u64::from(dst) ^ 0x9E37_79B9).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.slots.len() - 1)
    }

    /// The buffer position of `dst`, with the probe path (slots examined)
    /// appended to `probes` when requested.
    fn get(&self, dst: VertexId, probes: Option<&mut Vec<usize>>) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(dst);
        let mut path = probes;
        loop {
            if let Some(p) = path.as_deref_mut() {
                p.push(i);
            }
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if (s >> 32) as u32 == dst {
                return Some((s & 0xFFFF_FFFF) as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a fresh `dst → pos` mapping (caller guarantees absence).
    fn insert(&mut self, dst: VertexId, pos: usize) {
        if self.len * 10 >= self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(dst);
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (u64::from(dst) << 32) | pos as u64;
        self.len += 1;
    }

    /// Rewrites the buffer position of an existing entry.
    fn update_pos(&mut self, dst: VertexId, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(dst);
        loop {
            let s = self.slots[i];
            debug_assert!(s != EMPTY, "update_pos of absent dst {dst}");
            if s != EMPTY && (s >> 32) as u32 == dst {
                self.slots[i] = (u64::from(dst) << 32) | pos as u64;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `dst`, returning its buffer position. Backward-shift: the
    /// cluster after the hole is compacted so lookups never need
    /// tombstones.
    fn remove(&mut self, dst: VertexId) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(dst);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if (s >> 32) as u32 == dst {
                break;
            }
            i = (i + 1) & mask;
        }
        let pos = (self.slots[i] & 0xFFFF_FFFF) as usize;
        let mut hole = i;
        let mut next = (hole + 1) & mask;
        while self.slots[next] != EMPTY {
            let d = (self.slots[next] >> 32) as u32;
            let dist = next.wrapping_sub(self.home(d)) & mask;
            let gap = next.wrapping_sub(hole) & mask;
            if dist >= gap {
                self.slots[hole] = self.slots[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        Some(pos)
    }

    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.len = 0;
        for s in old {
            if s != EMPTY {
                self.insert((s >> 32) as u32, (s & 0xFFFF_FFFF) as usize);
            }
        }
    }
}

/// One vertex's adjacency, in its current tier.
#[derive(Debug, Clone)]
enum Row {
    /// `degree ≤ TIER_INLINE_CAP`: payload inside the header.
    Inline { len: u8, slots: [(VertexId, Weight); TIER_INLINE_CAP] },
    /// Medium degree: a growable, sequentially scanned buffer.
    Linear(Vec<(VertexId, Weight)>),
    /// High degree: the buffer plus a hash index over it.
    Indexed { edges: Vec<(VertexId, Weight)>, index: HashIndex },
}

impl Default for Row {
    fn default() -> Self {
        Row::Inline { len: 0, slots: [(0, 0.0); TIER_INLINE_CAP] }
    }
}

impl Row {
    /// The row's payload in buffer order, whatever its tier.
    fn as_slice(&self) -> &[(VertexId, Weight)] {
        match self {
            Row::Inline { len, slots } => &slots[..*len as usize],
            Row::Linear(v) | Row::Indexed { edges: v, .. } => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(VertexId, Weight)] {
        match self {
            Row::Inline { len, slots } => &mut slots[..*len as usize],
            Row::Linear(v) | Row::Indexed { edges: v, .. } => v,
        }
    }

    #[cfg(test)]
    fn tier(&self) -> usize {
        match self {
            Row::Inline { .. } => 0,
            Row::Linear(_) => 1,
            Row::Indexed { .. } => 2,
        }
    }
}

/// The degree-adaptive hybrid store (see the module docs for the tier
/// model and the order contract). It supplies only the row primitives of
/// [`GraphStore`]; the rules are the trait's provided methods.
#[derive(Debug, Clone, Default)]
pub struct HybridStore {
    rows: Vec<Row>,
    edge_count: EdgeCount,
    promotions: u64,
    demotions: u64,
    /// Vertices per tier, maintained incrementally.
    tier_counts: [u64; 3],
    /// `Some` when update-touch tracing is enabled.
    trace: Option<Vec<StorageTouch>>,
}

impl HybridStore {
    /// Creates an empty store with `vertex_count` vertices (all inline).
    #[must_use]
    pub fn with_capacity(vertex_count: VertexCount) -> Self {
        Self {
            rows: vec![Row::default(); vertex_count],
            edge_count: 0,
            promotions: 0,
            demotions: 0,
            tier_counts: [vertex_count as u64, 0, 0],
            trace: None,
        }
    }

    fn touch(&mut self, vertex: VertexId, region: StorageRegion, index: u64, is_write: bool) {
        if let Some(trace) = &mut self.trace {
            trace.push(StorageTouch { vertex, region, index, is_write });
        }
    }

    fn touch_slot(&mut self, vertex: VertexId, pos: usize, is_write: bool) {
        let index = u64::from(vertex) * ROW_STRIDE + pos as u64;
        self.touch(vertex, StorageRegion::NeighborSlot, index, is_write);
        self.touch(vertex, StorageRegion::WeightSlot, index, is_write);
    }

    /// The buffer position of `dst` in `src`'s row, recording the probe
    /// work when tracing. Inline rows charge only the header line (the
    /// payload shares it); linear rows charge one slot read per scanned
    /// position; indexed rows charge the hash probe path.
    fn find(&mut self, src: VertexId, dst: VertexId) -> Option<usize> {
        self.touch(src, StorageRegion::RowHeader, u64::from(src), false);
        let tracing = self.trace.is_some();
        match &self.rows[src as usize] {
            Row::Inline { len, slots } => (0..*len as usize).find(|&i| slots[i].0 == dst),
            Row::Linear(v) => {
                let scanned = v.iter().position(|&(n, _)| n == dst);
                if tracing {
                    let upto = scanned.map_or(v.len(), |p| p + 1);
                    for pos in 0..upto {
                        let index = u64::from(src) * ROW_STRIDE + pos as u64;
                        self.touch(src, StorageRegion::NeighborSlot, index, false);
                    }
                }
                scanned
            }
            Row::Indexed { index, .. } => {
                if tracing {
                    let mut probes = Vec::new();
                    let found = index.get(dst, Some(&mut probes));
                    for slot in probes {
                        let addr = u64::from(src) * ROW_STRIDE + slot as u64;
                        self.touch(src, StorageRegion::HashSlot, addr, false);
                    }
                    found
                } else {
                    index.get(dst, None)
                }
            }
        }
    }

    fn note_transition(&mut self, from: usize, to: usize, promoted: bool) {
        self.tier_counts[from] -= 1;
        self.tier_counts[to] += 1;
        if promoted {
            self.promotions += 1;
        } else {
            self.demotions += 1;
        }
    }
}

impl GraphStore for HybridStore {
    fn num_vertices(&self) -> VertexCount {
        self.rows.len()
    }

    fn num_edges(&self) -> EdgeCount {
        self.edge_count
    }

    fn out_edges(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.rows.get(v as usize).map_or(&[], Row::as_slice)
    }

    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        let row = self.rows.get(src as usize)?;
        let pos = match row {
            Row::Indexed { index, .. } => index.get(dst, None)?,
            _ => row.as_slice().iter().position(|&(n, _)| n == dst)?,
        };
        Some(row.as_slice()[pos].1)
    }

    fn ensure_vertex(&mut self, vertex: VertexId) {
        if (vertex as usize) >= self.rows.len() {
            let grow = vertex as usize + 1 - self.rows.len();
            self.rows.resize_with(vertex as usize + 1, Row::default);
            self.tier_counts[0] += grow as u64;
        }
    }

    /// Overwrites in place, or appends at the end of the buffer,
    /// promoting the tier when the new length exceeds its threshold.
    fn upsert_edge(&mut self, e: Edge) -> Option<Weight> {
        if let Some(pos) = self.find(e.src, e.dst) {
            let slot = &mut self.rows[e.src as usize].as_mut_slice()[pos];
            let old = slot.1;
            slot.1 = e.weight;
            self.touch_slot(e.src, pos, true);
            return Some(old);
        }
        let row = &mut self.rows[e.src as usize];
        let mut transition: Option<(usize, usize)> = None;
        let appended_at = match row {
            Row::Inline { len, slots } => {
                if (*len as usize) < TIER_INLINE_CAP {
                    slots[*len as usize] = (e.dst, e.weight);
                    *len += 1;
                    *len as usize - 1
                } else {
                    // Inline → linear, preserving slot order.
                    let mut v: Vec<(VertexId, Weight)> = slots[..].to_vec();
                    v.push((e.dst, e.weight));
                    let at = v.len() - 1;
                    *row = Row::Linear(v);
                    transition = Some((0, 1));
                    at
                }
            }
            Row::Linear(v) => {
                v.push((e.dst, e.weight));
                let at = v.len() - 1;
                if v.len() > TIER_HASH_PROMOTE {
                    // Linear → indexed: build the index over the buffer
                    // as-is; the buffer (and its order) is untouched.
                    let mut index = HashIndex::with_capacity_for(v.len());
                    for (pos, &(n, _)) in v.iter().enumerate() {
                        index.insert(n, pos);
                    }
                    let edges = std::mem::take(v);
                    *row = Row::Indexed { edges, index };
                    transition = Some((1, 2));
                }
                at
            }
            Row::Indexed { edges, index } => {
                edges.push((e.dst, e.weight));
                index.insert(e.dst, edges.len() - 1);
                edges.len() - 1
            }
        };
        if let Some((from, to)) = transition {
            self.note_transition(from, to, true);
        }
        self.touch_slot(e.src, appended_at, true);
        self.touch(e.src, StorageRegion::RowHeader, u64::from(e.src), true);
        self.edge_count += 1;
        None
    }

    /// Swap-removes, demoting the tier when the new length falls below
    /// its hysteresis threshold.
    fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> Option<Weight> {
        let pos = self.find(src, dst)?;
        let row = &mut self.rows[src as usize];
        let mut transition: Option<(usize, usize)> = None;
        let (weight, moved_from) = match row {
            Row::Inline { len, slots } => {
                let w = slots[pos].1;
                let last = *len as usize - 1;
                slots[pos] = slots[last];
                *len -= 1;
                (w, last)
            }
            Row::Linear(v) => {
                let (_, w) = v.swap_remove(pos);
                let moved_from = v.len();
                if v.len() <= TIER_INLINE_DEMOTE {
                    let mut slots = [(0, 0.0); TIER_INLINE_CAP];
                    for (i, &e) in v.iter().enumerate() {
                        slots[i] = e;
                    }
                    let len = v.len() as u8;
                    *row = Row::Inline { len, slots };
                    transition = Some((1, 0));
                }
                (w, moved_from)
            }
            Row::Indexed { edges, index } => {
                index.remove(dst);
                let (_, w) = edges.swap_remove(pos);
                if pos < edges.len() {
                    // The former last element moved into `pos`; re-point
                    // its index entry.
                    index.update_pos(edges[pos].0, pos);
                }
                let moved_from = edges.len();
                if edges.len() < TIER_HASH_DEMOTE {
                    let v = std::mem::take(edges);
                    *row = Row::Linear(v);
                    transition = Some((2, 1));
                }
                (w, moved_from)
            }
        };
        if let Some((from, to)) = transition {
            self.note_transition(from, to, false);
        }
        // The swap-remove reads the last slot and writes the hole.
        if moved_from != pos {
            self.touch_slot(src, moved_from, false);
        }
        self.touch_slot(src, pos, true);
        self.touch(src, StorageRegion::RowHeader, u64::from(src), true);
        self.edge_count -= 1;
        Some(weight)
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            inline_vertices: self.tier_counts[0],
            linear_vertices: self.tier_counts[1],
            indexed_vertices: self.tier_counts[2],
            promotions: self.promotions,
            demotions: self.demotions,
        }
    }

    fn set_touch_tracing(&mut self, enabled: bool) {
        if enabled {
            self.trace.get_or_insert_with(Vec::new);
        } else {
            self.trace = None;
        }
    }

    fn take_update_touches(&mut self) -> Vec<StorageTouch> {
        match &mut self.trace {
            Some(trace) => std::mem::take(trace),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests as store_tests;
    use crate::store::StorageKind;
    use crate::streaming::StreamingGraph;
    use crate::update::{EdgeUpdate, UpdateBatch};

    /// Applies the same operations to both stores and asserts every
    /// observable surface agrees — including the buffer order.
    fn assert_equivalent(hybrid: &HybridStore, reference: &StreamingGraph) {
        assert_eq!(hybrid.num_vertices(), reference.num_vertices());
        assert_eq!(hybrid.num_edges(), reference.edge_count());
        assert_eq!(hybrid.edges_vec(), reference.edges_vec(), "buffer order must match");
        assert_eq!(hybrid.snapshot(), reference.snapshot());
        for v in 0..reference.vertex_count() as VertexId {
            assert_eq!(hybrid.degree(v), reference.degree(v), "degree of {v}");
        }
    }

    fn star_edges(center: VertexId, n: usize) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(center, center + 1 + i as VertexId, i as f32 + 1.0)).collect()
    }

    #[test]
    fn rows_promote_through_all_tiers_and_demote_back() {
        let n = TIER_HASH_PROMOTE + 8;
        let mut h = HybridStore::with_capacity(n + 2);
        let mut g = StreamingGraph::with_capacity(n + 2);
        // Grow one row through inline → linear → indexed.
        for (i, e) in star_edges(0, n).into_iter().enumerate() {
            h.upsert_edge(e);
            g.insert_edges([e]).unwrap();
            let degree = i + 1;
            let want_tier = if degree <= TIER_INLINE_CAP {
                0
            } else if degree <= TIER_HASH_PROMOTE {
                1
            } else {
                2
            };
            assert_eq!(h.rows[0].tier(), want_tier, "after {} inserts", i + 1);
            assert_equivalent(&h, &g);
        }
        assert_eq!(h.stats().promotions, 2);
        assert_eq!(h.stats().indexed_vertices, 1);
        // Shrink it back down; hysteresis demotes at < 8 and ≤ 2.
        let dsts: Vec<VertexId> = h.edges_vec().iter().map(|e| e.dst).collect();
        for (removed, dst) in dsts.into_iter().enumerate() {
            assert!(h.remove_edge(0, dst).is_some());
            let batch = UpdateBatch::from_updates(vec![EdgeUpdate::deletion(0, dst)]).unwrap();
            g.apply_batch(&batch).unwrap();
            let left = n - removed - 1;
            let want_tier = if left >= TIER_HASH_DEMOTE {
                2
            } else if left > TIER_INLINE_DEMOTE {
                1
            } else {
                0
            };
            assert_eq!(h.rows[0].tier(), want_tier, "with {left} edges left");
            assert_equivalent(&h, &g);
        }
        assert_eq!(h.stats().demotions, 2);
        assert_eq!(h.stats().inline_vertices, h.num_vertices() as u64);
    }

    #[test]
    fn apply_batch_matches_streaming_graph_exactly() {
        let mut h = HybridStore::with_capacity(8);
        let mut g = StreamingGraph::with_capacity(8);
        let initial = [Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0), Edge::new(2, 3, 3.0)];
        h.insert_edges(initial).unwrap();
        g.insert_edges(initial).unwrap();

        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(3, 4, 2.0),
            EdgeUpdate::addition(0, 1, 9.0), // reweight
            EdgeUpdate::deletion(1, 2),
        ])
        .unwrap();
        let from_hybrid = h.apply_batch(&batch).unwrap();
        let from_graph = g.apply_batch(&batch).unwrap();
        assert_eq!(from_hybrid, from_graph);
        assert_equivalent(&h, &g);
    }

    #[test]
    fn strict_apply_is_atomic_on_failure() {
        store_tests::strict_apply_is_atomic(StorageKind::Hybrid);
    }

    #[test]
    fn lenient_apply_quarantines_like_streaming_graph() {
        assert_eq!(
            store_tests::lenient_apply_quarantines(StorageKind::Hybrid),
            store_tests::lenient_apply_quarantines(StorageKind::Csr),
            "both stores apply and quarantine alike"
        );
    }

    #[test]
    fn hash_index_survives_heavy_churn() {
        let mut h = HybridStore::with_capacity(512);
        let mut g = StreamingGraph::with_capacity(512);
        // Deterministic add/delete churn on one hub vertex, enough to
        // grow the index several times and exercise backward-shift
        // deletion clusters.
        let mut present: Vec<VertexId> = Vec::new();
        let mut x: u64 = 0x5DEECE66D;
        for step in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let delete = !present.is_empty() && (x >> 33).is_multiple_of(3);
            if delete {
                let at = ((x >> 20) as usize) % present.len();
                let dst = present.swap_remove(at);
                let batch = UpdateBatch::from_updates(vec![EdgeUpdate::deletion(0, dst)]).unwrap();
                h.apply_batch(&batch).unwrap();
                g.apply_batch(&batch).unwrap();
            } else {
                let dst = 1 + ((x >> 17) % 500) as VertexId;
                if !present.contains(&dst) {
                    present.push(dst);
                }
                let batch =
                    UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, dst, 1.0)]).unwrap();
                h.apply_batch(&batch).unwrap();
                g.apply_batch(&batch).unwrap();
            }
            if step % 97 == 0 {
                assert_equivalent(&h, &g);
            }
        }
        assert_equivalent(&h, &g);
        // The hub really reached the indexed tier at some point.
        assert!(h.stats().promotions >= 2, "churn must cross tier boundaries");
    }

    #[test]
    fn touch_tracing_is_opt_in_and_drains() {
        let mut h = HybridStore::with_capacity(4);
        h.insert_edges([Edge::new(0, 1, 1.0)]).unwrap();
        assert!(h.take_update_touches().is_empty(), "tracing off by default");
        h.set_touch_tracing(true);
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, 2, 1.0)]).unwrap();
        let _ = h.apply_batch(&batch).unwrap();
        let touches = h.take_update_touches();
        assert!(!touches.is_empty());
        assert!(touches.iter().all(|t| t.vertex == 0));
        assert!(h.take_update_touches().is_empty(), "drained");
        h.set_touch_tracing(false);
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, 3, 1.0)]).unwrap();
        let _ = h.apply_batch(&batch).unwrap();
        assert!(h.take_update_touches().is_empty());
    }

    #[test]
    fn indexed_rows_record_hash_probes() {
        let mut h = HybridStore::with_capacity(64);
        h.insert_edges(star_edges(0, TIER_HASH_PROMOTE + 4)).unwrap();
        h.set_touch_tracing(true);
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, 60, 1.0)]).unwrap();
        let _ = h.apply_batch(&batch).unwrap();
        let touches = h.take_update_touches();
        assert!(
            touches.iter().any(|t| t.region == StorageRegion::HashSlot),
            "indexed-tier lookups must surface hash probes, got {touches:?}"
        );
    }

    #[test]
    fn ensure_vertex_grows_inline_tier() {
        let mut h = HybridStore::with_capacity(1);
        h.ensure_vertex(10);
        assert_eq!(h.num_vertices(), 11);
        assert_eq!(h.stats().inline_vertices, 11);
        h.insert_edges([Edge::new(10, 0, 1.0)]).unwrap();
        assert!(h.contains_edge(10, 0));
    }

    #[test]
    fn insert_edges_checks_bounds_before_self_loop_skip() {
        store_tests::insert_edges_checks_bounds_before_self_loop(StorageKind::Hybrid);
    }
}

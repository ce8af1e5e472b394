//! The `Fetched Buffer` FIFO (§3.3.2).
//!
//! The TDTU enqueues prefetched edges (with the source/destination states
//! resolved through the VSCU); the paired core drains them via the
//! `TD_FETCH_EDGE` instruction. The paper sizes it at 4.8 Kbit; with
//! 160-bit entries (two ids, weight, two states) that is 30 entries. In the
//! simulator the core drains synchronously, so the buffer's role is
//! capacity accounting.

use tdgraph_graph::types::{VertexId, Weight};

/// One prefetched edge with its resolved endpoint states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchedEdge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight.
    pub weight: Weight,
    /// Source state at prefetch time.
    pub src_state: f32,
    /// Destination state at prefetch time.
    pub dst_state: f32,
}

/// Capacity of the paper's 4.8 Kbit buffer in 160-bit entries.
pub const PAPER_CAPACITY: usize = 30;

/// The FIFO between TDTU and core.
#[derive(Debug, Clone)]
pub struct FetchedBuffer {
    entries: std::collections::VecDeque<FetchedEdge>,
    capacity: usize,
}

impl FetchedBuffer {
    /// Creates a buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        Self { entries: std::collections::VecDeque::with_capacity(capacity), capacity }
    }

    /// Creates the paper-sized buffer.
    #[must_use]
    pub fn paper_sized() -> Self {
        Self::new(PAPER_CAPACITY)
    }

    /// Whether another entry fits.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Enqueues a prefetched edge. Returns `false` (dropping nothing) when
    /// full — the caller must drain first.
    pub fn enqueue(&mut self, e: FetchedEdge) -> bool {
        if !self.has_room() {
            return false;
        }
        self.entries.push_back(e);
        true
    }

    /// Dequeues the oldest entry (`TD_FETCH_EDGE`).
    pub fn dequeue(&mut self) -> Option<FetchedEdge> {
        self.entries.pop_front()
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for FetchedBuffer {
    fn default() -> Self {
        Self::paper_sized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: VertexId) -> FetchedEdge {
        FetchedEdge { src, dst: src + 1, weight: 1.0, src_state: 0.0, dst_state: 1.0 }
    }

    #[test]
    fn fifo_order() {
        let mut b = FetchedBuffer::new(4);
        assert!(b.enqueue(edge(1)));
        assert!(b.enqueue(edge(2)));
        assert_eq!(b.dequeue().unwrap().src, 1);
        assert_eq!(b.dequeue().unwrap().src, 2);
        assert!(b.dequeue().is_none());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut b = FetchedBuffer::new(2);
        assert!(b.enqueue(edge(1)));
        assert!(b.enqueue(edge(2)));
        assert!(!b.enqueue(edge(3)), "enqueue past capacity must fail");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn statistics_track_usage() {
        let mut b = FetchedBuffer::new(4);
        b.enqueue(edge(1));
        b.enqueue(edge(2));
        assert_eq!(b.dequeue().unwrap().src, 1);
        b.enqueue(edge(3));
        assert_eq!(b.len(), 2);
        assert_eq!(b.dequeue().unwrap().src, 2);
        assert_eq!(b.dequeue().unwrap().src, 3);
        assert!(b.is_empty());
    }

    #[test]
    fn paper_capacity_matches_4_8_kbit() {
        assert_eq!(PAPER_CAPACITY, 4800 / 160);
        assert_eq!(FetchedBuffer::paper_sized().capacity, 30);
    }
}

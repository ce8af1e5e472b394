//! The TDTU's fixed-depth hardware stack (§3.3.2, Fig 8).
//!
//! Each level stores a visited vertex's id and the current/end offsets of
//! its unvisited edges (the modeled cache line of neighbor ids is implied
//! by the offsets). The depth is fixed in hardware (default 10; Fig 21
//! sweeps it): when the stack is full the traversal re-roots by marking the
//! boundary vertex active.

use tdgraph_graph::types::VertexId;

/// One stack level: a vertex mid-traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Level {
    /// The vertex at this level.
    pub vertex: VertexId,
    /// Flat index of the next unvisited edge.
    pub cursor: usize,
    /// One past the last edge of this vertex.
    pub end: usize,
    /// Value carried along the traversal: the vertex's state at expansion
    /// (monotonic) or the residual it is distributing (accumulative).
    pub carry: f32,
}

/// Error returned when pushing onto a full stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackFull;

/// The fixed-depth traversal stack.
#[derive(Debug, Clone)]
pub struct HardwareStack {
    depth: usize,
    levels: Vec<Level>,
}

impl HardwareStack {
    /// Creates a stack with the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "stack depth must be positive");
        Self { depth, levels: Vec::with_capacity(depth) }
    }

    /// Configured depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Current fill level.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the stack is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Whether another level fits.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.levels.len() < self.depth
    }

    /// Pushes a level.
    ///
    /// # Errors
    ///
    /// Returns [`StackFull`] when at depth.
    pub fn push(&mut self, level: Level) -> Result<(), StackFull> {
        if self.levels.len() >= self.depth {
            return Err(StackFull);
        }
        self.levels.push(level);
        Ok(())
    }

    /// Pops the top level.
    pub fn pop(&mut self) -> Option<Level> {
        self.levels.pop()
    }

    /// Mutable view of the top level.
    pub fn top_mut(&mut self) -> Option<&mut Level> {
        self.levels.last_mut()
    }

    /// Whether `v` is currently on the stack. The hardware compares a
    /// fetched neighbor id against the (at most `depth`) resident vertex
    /// ids in one CAM lookup; the traversal uses this to recognize
    /// back-edges of cycles, which must not contribute to the
    /// synchronization counters (they would deadlock the topological
    /// gating — see DESIGN.md §5).
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.levels.iter().any(|l| l.vertex == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(v: VertexId) -> Level {
        Level { vertex: v, cursor: 0, end: 0, carry: 0.0 }
    }

    #[test]
    fn push_pop_lifo() {
        let mut s = HardwareStack::new(4);
        s.push(level(1)).unwrap();
        s.push(level(2)).unwrap();
        assert_eq!(s.pop().unwrap().vertex, 2);
        assert_eq!(s.pop().unwrap().vertex, 1);
        assert!(s.pop().is_none());
    }

    #[test]
    fn depth_bound_counts_overflows() {
        let mut s = HardwareStack::new(2);
        s.push(level(1)).unwrap();
        s.push(level(2)).unwrap();
        assert!(!s.has_room());
        assert_eq!(s.push(level(3)), Err(StackFull));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn top_mut_advances_cursor() {
        let mut s = HardwareStack::new(2);
        s.push(Level { vertex: 1, cursor: 5, end: 9, carry: 0.0 }).unwrap();
        s.top_mut().unwrap().cursor += 1;
        assert_eq!(s.pop().unwrap().cursor, 6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_panics() {
        let _ = HardwareStack::new(0);
    }
}

//! The TDGraph engine's memory-mapped configuration registers (§3.3.1,
//! Fig 7).
//!
//! Like a DMA engine, each TDGraph engine is programmed by writing a
//! register file holding (a) the base address and size of every in-memory
//! structure it walks and (b) the vertex range of the chunk assigned to its
//! core. When the OS deschedules the owning thread, the engine is
//! *quiesced* and only `Start_v` — the resume cursor — is saved, because
//! the structure addresses are unchanged for the execution's lifetime;
//! rescheduling restores it (§3.3.1, "Configuration of TDGraph").
//!
//! This is a standalone, unit-tested model of the §3.3.1 interface. The
//! engine does not program these registers, and no simulated count
//! depends on them.

use tdgraph_graph::types::VertexId;
use tdgraph_sim::address::{AddressSpace, Region};

/// Base address and size of one configured structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionWindow {
    /// Base virtual address.
    pub base: u64,
    /// Element count.
    pub len: u64,
}

/// The per-engine register file of Fig 7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigRegisters {
    offset_array: RegionWindow,
    neighbor_array: RegionWindow,
    vertex_states: RegionWindow,
    active_vertices: RegionWindow,
    hot_vertices: RegionWindow,
    topology_list: RegionWindow,
    coalesced_states: RegionWindow,
    h_table: RegionWindow,
    start_v: VertexId,
    end_v: VertexId,
    quiesced: bool,
}

/// State preserved across a quiesce (only the resume cursor, §3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedCursor {
    /// `Start_v`: the next vertex/edge position to handle in the chunk.
    pub start_v: VertexId,
}

impl ConfigRegisters {
    /// Programs the register file from the process's address-space layout
    /// and the chunk `[start_v, end_v)` assigned to this core.
    ///
    /// # Panics
    ///
    /// Panics if the chunk range is inverted.
    #[must_use]
    pub fn program(
        layout: &AddressSpace,
        vertices: u64,
        edges: u64,
        coalesced_entries: u64,
        start_v: VertexId,
        end_v: VertexId,
    ) -> Self {
        assert!(start_v <= end_v, "chunk range is inverted");
        let win = |r: Region, len: u64| RegionWindow { base: layout.addr(r, 0), len };
        Self {
            offset_array: win(Region::OffsetArray, vertices + 1),
            neighbor_array: win(Region::NeighborArray, edges),
            vertex_states: win(Region::VertexStates, vertices),
            active_vertices: win(Region::ActiveVertices, vertices),
            hot_vertices: win(Region::HotVertices, vertices),
            topology_list: win(Region::TopologyList, vertices),
            coalesced_states: win(Region::CoalescedStates, coalesced_entries),
            h_table: win(Region::HashTable, (coalesced_entries as f64 / 0.75).ceil() as u64),
            start_v,
            end_v,
            quiesced: false,
        }
    }

    /// The chunk's current resume cursor.
    #[must_use]
    pub fn start_v(&self) -> VertexId {
        self.start_v
    }

    /// One past the last vertex of the chunk.
    #[must_use]
    pub fn end_v(&self) -> VertexId {
        self.end_v
    }

    /// Whether the engine is quiesced.
    #[must_use]
    pub fn is_quiesced(&self) -> bool {
        self.quiesced
    }

    /// Advances the resume cursor as processing progresses.
    ///
    /// # Panics
    ///
    /// Panics if the engine is quiesced or `v` leaves the chunk.
    pub fn advance(&mut self, v: VertexId) {
        assert!(!self.quiesced, "advance on a quiesced engine");
        assert!(v >= self.start_v && v <= self.end_v, "cursor {v} outside chunk");
        self.start_v = v;
    }

    /// Quiesces the engine for a descheduled thread, saving only the
    /// cursor — the structure windows are immutable during execution, so
    /// they are not part of the saved context.
    pub fn quiesce(&mut self) -> SavedCursor {
        self.quiesced = true;
        SavedCursor { start_v: self.start_v }
    }

    /// Resumes a quiesced engine from a saved cursor.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not quiesced or the cursor is out of range.
    pub fn resume(&mut self, saved: SavedCursor) {
        assert!(self.quiesced, "resume on a running engine");
        assert!(
            saved.start_v <= self.end_v,
            "saved cursor {} beyond chunk end {}",
            saved.start_v,
            self.end_v
        );
        self.start_v = saved.start_v;
        self.quiesced = false;
    }

    /// The window of one configured structure.
    #[must_use]
    pub fn window(&self, region: Region) -> Option<RegionWindow> {
        match region {
            Region::OffsetArray => Some(self.offset_array),
            Region::NeighborArray => Some(self.neighbor_array),
            Region::VertexStates => Some(self.vertex_states),
            Region::ActiveVertices => Some(self.active_vertices),
            Region::HotVertices => Some(self.hot_vertices),
            Region::TopologyList => Some(self.topology_list),
            Region::CoalescedStates => Some(self.coalesced_states),
            Region::HashTable => Some(self.h_table),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs() -> ConfigRegisters {
        let layout = AddressSpace::layout(1024, 4096, 16);
        ConfigRegisters::program(&layout, 1024, 4096, 16, 100, 200)
    }

    #[test]
    fn program_fills_every_window() {
        let r = regs();
        for region in [
            Region::OffsetArray,
            Region::NeighborArray,
            Region::VertexStates,
            Region::ActiveVertices,
            Region::HotVertices,
            Region::TopologyList,
            Region::CoalescedStates,
            Region::HashTable,
        ] {
            let w = r.window(region).expect("configured window");
            assert!(w.base > 0 && w.len > 0, "{region:?}");
        }
        assert_eq!(r.window(Region::Frontier), None, "frontier is software-owned");
    }

    #[test]
    fn windows_match_the_address_space() {
        let layout = AddressSpace::layout(1024, 4096, 16);
        let r = ConfigRegisters::program(&layout, 1024, 4096, 16, 0, 10);
        assert_eq!(
            r.window(Region::VertexStates).unwrap().base,
            layout.addr(Region::VertexStates, 0)
        );
    }

    #[test]
    fn quiesce_saves_only_the_cursor_and_resume_restores_it() {
        let mut r = regs();
        r.advance(150);
        let saved = r.quiesce();
        assert!(r.is_quiesced());
        assert_eq!(saved.start_v, 150);
        r.resume(saved);
        assert!(!r.is_quiesced());
        assert_eq!(r.start_v(), 150);
    }

    #[test]
    #[should_panic(expected = "quiesced engine")]
    fn advance_while_quiesced_panics() {
        let mut r = regs();
        let _ = r.quiesce();
        r.advance(160);
    }

    #[test]
    #[should_panic(expected = "outside chunk")]
    fn cursor_cannot_leave_the_chunk() {
        let mut r = regs();
        r.advance(999);
    }

    #[test]
    #[should_panic(expected = "running engine")]
    fn resume_without_quiesce_panics() {
        let mut r = regs();
        r.resume(SavedCursor { start_v: 100 });
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_chunk_panics() {
        let layout = AddressSpace::layout(16, 16, 4);
        let _ = ConfigRegisters::program(&layout, 16, 16, 4, 10, 5);
    }
}

//! Vertex States Coalescing Unit (§3.3.3).
//!
//! The VSCU redirects accesses to the states of the frequently-accessed
//! ("hot") vertices into the contiguous `Coalesced_States` array, indexed
//! through `H_Table`. Hot vertices are identified by the software per batch
//! from the `Topology_List` counts; their states migrate into coalesced
//! slots on first access and are written back to `Vertex_States_Array` when
//! the batch's processing ends.

use std::collections::HashMap;

use tdgraph_graph::types::VertexId;
use tdgraph_sim::address::Region;
use tdgraph_sim::machine::Machine;
use tdgraph_sim::stats::{Actor, Op};

/// Where a vertex's state currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateLoc {
    /// In `Vertex_States_Array[v]`.
    Direct,
    /// In `Coalesced_States[slot]`.
    Coalesced(u32),
}

/// The per-engine VSCU model.
#[derive(Debug, Clone)]
pub struct Vscu {
    enabled: bool,
    hot: Vec<bool>,
    slots: HashMap<VertexId, u32>,
    capacity: usize,
}

impl Vscu {
    /// Creates a VSCU for `n` vertices with `capacity` coalesced slots
    /// (α·|V| in the paper, §3.1).
    #[must_use]
    pub fn new(n: usize, capacity: usize, enabled: bool) -> Self {
        Self { enabled, hot: vec![false; n], slots: HashMap::new(), capacity: capacity.max(1) }
    }

    /// Installs the new hot set for a batch, charging the `Hot_Vertices`
    /// bitvector writes to `core`. Clears the previous slot assignment
    /// (callers must have written back first).
    pub fn set_hot(&mut self, machine: &mut Machine, core: usize, hot_vertices: &[VertexId]) {
        debug_assert!(self.slots.is_empty(), "set_hot before writeback loses states");
        self.hot.iter_mut().for_each(|h| *h = false);
        for &v in hot_vertices {
            self.hot[v as usize] = true;
            machine.access(core, Actor::Core, Region::HotVertices, u64::from(v), true);
        }
    }

    /// Resolves where `v`'s state lives, charging the lookup to
    /// `core`/`actor`: a `Hot_Vertices` read, then for hot vertices an
    /// `H_Table` probe and, on first touch, the migration of the state into
    /// a coalesced slot.
    pub fn locate(
        &mut self,
        machine: &mut Machine,
        core: usize,
        actor: Actor,
        v: VertexId,
    ) -> StateLoc {
        if !self.enabled {
            return StateLoc::Direct;
        }
        machine.access(core, actor, Region::HotVertices, u64::from(v), false);
        if !self.hot[v as usize] {
            return StateLoc::Direct;
        }
        // H_Table probe at the hashed slot.
        let table_index = u64::from(v) % ((self.capacity as f64 / 0.75).ceil() as u64).max(1);
        machine.access(core, actor, Region::HashTable, table_index, false);
        machine.compute(core, actor, Op::HashProbe, 1);
        if let Some(&slot) = self.slots.get(&v) {
            return StateLoc::Coalesced(slot);
        }
        if self.slots.len() >= self.capacity {
            return StateLoc::Direct;
        }
        // First access: migrate the state and create the table entry.
        let slot = self.slots.len() as u32;
        self.slots.insert(v, slot);
        machine.access(core, actor, Region::HashTable, table_index, true);
        machine.access(core, actor, Region::VertexStates, u64::from(v), false);
        machine.access(core, actor, Region::CoalescedStates, u64::from(slot), true);
        StateLoc::Coalesced(slot)
    }

    /// The region and element index for an access at `loc` of vertex `v`.
    #[must_use]
    pub fn target(loc: StateLoc, v: VertexId) -> (Region, u64) {
        match loc {
            StateLoc::Direct => (Region::VertexStates, u64::from(v)),
            StateLoc::Coalesced(slot) => (Region::CoalescedStates, u64::from(slot)),
        }
    }

    /// Writes every coalesced state back to `Vertex_States_Array` (end of
    /// batch), charging the copies to `core`, and clears the slot map.
    pub fn writeback(&mut self, machine: &mut Machine, core: usize) {
        let mut entries: Vec<(VertexId, u32)> = self.slots.drain().collect();
        entries.sort_by_key(|&(_, slot)| slot);
        for (v, slot) in entries {
            machine.access(core, Actor::Core, Region::CoalescedStates, u64::from(slot), false);
            machine.access(core, Actor::Core, Region::VertexStates, u64::from(v), true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_sim::address::AddressSpace;
    use tdgraph_sim::config::SimConfig;

    fn machine() -> Machine {
        Machine::new(SimConfig::small_test(), AddressSpace::layout(256, 1024, 16))
    }

    #[test]
    fn disabled_vscu_is_always_direct() {
        let mut m = machine();
        let mut v = Vscu::new(256, 16, false);
        assert_eq!(v.locate(&mut m, 0, Actor::Accel, 5), StateLoc::Direct);
        assert_eq!(m.stats().accesses, 0, "disabled VSCU must not charge accesses");
    }

    #[test]
    fn cold_vertex_is_direct_after_bit_check() {
        let mut m = machine();
        let mut v = Vscu::new(256, 16, true);
        v.set_hot(&mut m, 0, &[7]);
        assert_eq!(v.locate(&mut m, 0, Actor::Accel, 5), StateLoc::Direct);
    }

    #[test]
    fn hot_vertex_gets_a_stable_slot() {
        let mut m = machine();
        let mut v = Vscu::new(256, 16, true);
        v.set_hot(&mut m, 0, &[7, 9]);
        // Every hot lookup reads `Hot_Vertices` and probes `H_Table`. The
        // first also installs the slot: the `H_Table` write, the
        // `Vertex_States` read and the `Coalesced_States` write.
        let before = m.stats().accesses;
        let a = v.locate(&mut m, 0, Actor::Accel, 7);
        let installed = m.stats().accesses;
        assert_eq!(installed - before, 2 + 3, "an install charges the migration");
        assert_eq!(m.stats().per_region(Region::VertexStates), 1);
        assert_eq!(m.stats().per_region(Region::CoalescedStates), 1);
        let b = v.locate(&mut m, 0, Actor::Accel, 7);
        assert_eq!(m.stats().accesses - installed, 2, "a hit charges only the lookup");
        assert_eq!(m.stats().per_region(Region::VertexStates), 1);
        assert_eq!(m.stats().per_region(Region::CoalescedStates), 1);
        assert_eq!(a, b);
        assert!(matches!(a, StateLoc::Coalesced(_)));
        // Different hot vertex gets a different slot.
        let c = v.locate(&mut m, 0, Actor::Accel, 9);
        assert_ne!(a, c);
    }

    #[test]
    fn capacity_overflow_falls_back_to_direct() {
        let mut m = machine();
        let mut v = Vscu::new(256, 2, true);
        v.set_hot(&mut m, 0, &[1, 2, 3]);
        assert!(matches!(v.locate(&mut m, 0, Actor::Accel, 1), StateLoc::Coalesced(_)));
        assert!(matches!(v.locate(&mut m, 0, Actor::Accel, 2), StateLoc::Coalesced(_)));
        assert_eq!(v.locate(&mut m, 0, Actor::Accel, 3), StateLoc::Direct);
    }

    #[test]
    fn writeback_clears_slots_and_charges_copies() {
        let mut m = machine();
        let mut v = Vscu::new(256, 4, true);
        v.set_hot(&mut m, 0, &[1, 2]);
        v.locate(&mut m, 0, Actor::Accel, 1);
        v.locate(&mut m, 0, Actor::Accel, 2);
        let before = m.stats().accesses;
        v.writeback(&mut m, 0);
        assert_eq!(m.stats().accesses, before + 4, "2 reads + 2 writes expected");
        // Slots are reusable for the next batch.
        v.set_hot(&mut m, 0, &[5]);
        assert!(matches!(v.locate(&mut m, 0, Actor::Accel, 5), StateLoc::Coalesced(0)));
    }

    #[test]
    fn target_maps_locations_to_regions() {
        assert_eq!(Vscu::target(StateLoc::Direct, 9), (Region::VertexStates, 9));
        assert_eq!(Vscu::target(StateLoc::Coalesced(3), 9), (Region::CoalescedStates, 3));
    }
}

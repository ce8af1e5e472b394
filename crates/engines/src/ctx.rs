//! Batch execution context: typed, charged access to graph data.
//!
//! [`BatchCtx`] bundles the new snapshot, the mutable algorithm state, the
//! simulated machine, and the chunk→core ownership map. Engines perform all
//! graph work through its helpers so every data-structure touch is charged
//! to the right core/actor and every state write is counted for the
//! redundancy metrics.

use tdgraph_algos::incremental::AlgoState;
use tdgraph_algos::tap::{AccessEvent, AccessTap};
use tdgraph_algos::traits::Algo;
use tdgraph_graph::csr::Csr;
use tdgraph_graph::partition::{owner_of, Chunk};
use tdgraph_graph::types::{VertexId, Weight};
use tdgraph_sim::address::Region;
use tdgraph_sim::machine::Machine;
use tdgraph_sim::stats::{Actor, Op};

use crate::metrics::UpdateCounters;

/// Execution context for one batch.
#[derive(Debug)]
pub struct BatchCtx<'a> {
    /// The simulated machine.
    pub machine: &'a mut Machine,
    /// New snapshot (post-batch).
    pub graph: &'a Csr,
    /// Transpose of the new snapshot.
    pub transpose: &'a Csr,
    /// The algorithm being run.
    pub algo: Algo,
    /// Mutable per-vertex algorithm state.
    pub state: &'a mut AlgoState,
    /// Vertex-range chunks (index = chunk id; chunk id % cores = core).
    pub chunks: &'a [Chunk],
    /// Update counters for the redundancy metrics.
    pub counters: &'a mut UpdateCounters,
    /// Outgoing mass per vertex (accumulative algorithms).
    pub out_mass: &'a [f32],
    /// The run's hot-vertex fraction α ([`crate::config::RunConfig::alpha`]):
    /// engines that coalesce hot states size their hot set from it.
    pub alpha: f64,
}

impl<'a> BatchCtx<'a> {
    /// Core owning vertex `v` (its chunk dealt round-robin over cores).
    ///
    /// Every vertex of the snapshot must fall inside a chunk; an unowned
    /// vertex means the partition is stale or `v` is out of range, which
    /// would silently skew per-core attribution — debug builds panic
    /// instead, release builds charge core 0.
    #[must_use]
    pub fn owner(&self, v: VertexId) -> usize {
        let cores = self.machine.cores();
        match owner_of(self.chunks, v) {
            Some(chunk) => chunk % cores,
            None => {
                debug_assert!(
                    false,
                    "vertex {v} is outside every chunk ({} chunks); \
                     partition does not cover the snapshot",
                    self.chunks.len()
                );
                0
            }
        }
    }

    /// Reads `v`'s state.
    pub fn read_state(&mut self, core: usize, actor: Actor, v: VertexId) -> f32 {
        self.machine.access(core, actor, Region::VertexStates, u64::from(v), false);
        self.state.states[v as usize]
    }

    /// Counts a vertex-state write for the redundancy metrics. Engines that
    /// write states outside [`BatchCtx::write_state`] call this directly.
    pub fn note_state_write(&mut self, v: VertexId) {
        self.counters.record_write(v);
    }

    /// Counts `n` processed edges.
    pub fn note_edges(&mut self, n: u64) {
        self.counters.record_edges(n);
    }

    /// Writes `v`'s state and counts the update.
    pub fn write_state(&mut self, core: usize, actor: Actor, v: VertexId, value: f32) {
        self.machine.access(core, actor, Region::VertexStates, u64::from(v), true);
        self.machine.compute(core, actor, Op::StateUpdate, 1);
        self.state.states[v as usize] = value;
        self.note_state_write(v);
    }

    /// Reads `v`'s residual (accumulative) — stored in the aux region.
    pub fn read_residual(&mut self, core: usize, actor: Actor, v: VertexId) -> f32 {
        self.machine.access(core, actor, Region::AuxMeta, u64::from(v), false);
        self.state.residuals[v as usize]
    }

    /// Writes `v`'s residual.
    pub fn write_residual(&mut self, core: usize, actor: Actor, v: VertexId, value: f32) {
        self.machine.access(core, actor, Region::AuxMeta, u64::from(v), true);
        self.state.residuals[v as usize] = value;
    }

    /// Reads `v`'s dependency parent.
    pub fn read_parent(&mut self, core: usize, actor: Actor, v: VertexId) -> VertexId {
        self.machine.access(core, actor, Region::AuxMeta, u64::from(v), false);
        self.state.parents[v as usize]
    }

    /// Writes `v`'s dependency parent.
    pub fn write_parent(&mut self, core: usize, actor: Actor, v: VertexId, p: VertexId) {
        self.machine.access(core, actor, Region::AuxMeta, u64::from(v), true);
        self.state.parents[v as usize] = p;
    }

    /// Reads the offset pair of `v` (one 8 B `Offset_Array` entry).
    pub fn read_offsets(&mut self, core: usize, actor: Actor, v: VertexId) -> (usize, usize) {
        self.machine.access(core, actor, Region::OffsetArray, u64::from(v), false);
        self.graph.neighbor_range(v)
    }

    /// Reads the offset pair of `v` in the transpose.
    pub fn read_offsets_in(&mut self, core: usize, actor: Actor, v: VertexId) -> (usize, usize) {
        self.machine.access(core, actor, Region::OffsetArray, u64::from(v), false);
        self.transpose.neighbor_range(v)
    }

    /// Reads the neighbor and weight at flat edge index `i` of the forward
    /// graph, charging the neighbor-array and weight-array accesses.
    pub fn read_edge(&mut self, core: usize, actor: Actor, i: usize) -> (VertexId, Weight) {
        self.machine.access(core, actor, Region::NeighborArray, i as u64, false);
        self.machine.access(core, actor, Region::WeightArray, i as u64, false);
        self.note_edges(1);
        self.machine.compute(core, actor, Op::EdgeProcess, 1);
        self.graph.edge_at(i)
    }

    /// Like [`BatchCtx::read_edge`] but over the transpose (pull engines).
    pub fn read_edge_in(&mut self, core: usize, actor: Actor, i: usize) -> (VertexId, Weight) {
        self.machine.access(core, actor, Region::NeighborArray, i as u64, false);
        self.machine.access(core, actor, Region::WeightArray, i as u64, false);
        self.note_edges(1);
        self.machine.compute(core, actor, Op::EdgeProcess, 1);
        self.transpose.edge_at(i)
    }

    /// Charges a frontier push/pop.
    pub fn frontier_op(&mut self, core: usize, actor: Actor, v: VertexId) {
        self.machine.access(core, actor, Region::Frontier, u64::from(v), true);
        self.machine.compute(core, actor, Op::FrontierOp, 1);
    }

    /// Reads the active bit of `v`.
    pub fn read_active(&mut self, core: usize, actor: Actor, v: VertexId) {
        self.machine.access(core, actor, Region::ActiveVertices, u64::from(v), false);
    }

    /// Writes the active bit of `v`.
    pub fn write_active(&mut self, core: usize, actor: Actor, v: VertexId) {
        self.machine.access(core, actor, Region::ActiveVertices, u64::from(v), true);
    }

    /// Charges per-vertex scheduling overhead.
    pub fn schedule_op(&mut self, core: usize, actor: Actor, n: u64) {
        self.machine.compute(core, actor, Op::ScheduleOp, n);
    }

    /// Charges a data-dependent branch misprediction.
    pub fn branch_miss(&mut self, core: usize, actor: Actor, n: u64) {
        self.machine.compute(core, actor, Op::BranchMiss, n);
    }

    /// Charges a hash probe.
    pub fn hash_probe(&mut self, core: usize, actor: Actor, n: u64) {
        self.machine.compute(core, actor, Op::HashProbe, n);
    }
}

/// Forwards the shared seeding kernels' [`AccessEvent`]s into the machine,
/// attributing vertex events to the owning core and edge events to the most
/// recent vertex's core. Seeding runs on the core timeline.
#[derive(Debug)]
pub struct MachineTap<'a> {
    machine: &'a mut Machine,
    chunks: &'a [Chunk],
    last_core: usize,
}

impl<'a> MachineTap<'a> {
    /// Creates a tap over `machine` with the given ownership map.
    #[must_use]
    pub fn new(machine: &'a mut Machine, chunks: &'a [Chunk]) -> Self {
        Self { machine, chunks, last_core: 0 }
    }

    fn core_of(&mut self, v: VertexId) -> usize {
        let cores = self.machine.cores();
        let core = match owner_of(self.chunks, v) {
            Some(chunk) => chunk % cores,
            None => 0,
        };
        self.last_core = core;
        core
    }
}

impl AccessTap for MachineTap<'_> {
    fn touch(&mut self, event: AccessEvent) {
        match event {
            AccessEvent::ReadOffsets(v) => {
                let c = self.core_of(v);
                self.machine.access(c, Actor::Core, Region::OffsetArray, u64::from(v), false);
            }
            AccessEvent::ReadNeighbor(i) => {
                self.machine.access(self.last_core, Actor::Core, Region::NeighborArray, i, false);
            }
            AccessEvent::ReadWeight(i) => {
                self.machine.access(self.last_core, Actor::Core, Region::WeightArray, i, false);
            }
            AccessEvent::ReadState(v) => {
                let c = self.core_of(v);
                self.machine.access(c, Actor::Core, Region::VertexStates, u64::from(v), false);
            }
            AccessEvent::WriteState(v) => {
                let c = self.core_of(v);
                self.machine.access(c, Actor::Core, Region::VertexStates, u64::from(v), true);
                self.machine.compute(c, Actor::Core, Op::StateUpdate, 1);
            }
            AccessEvent::ReadAux(v) => {
                let c = self.core_of(v);
                self.machine.access(c, Actor::Core, Region::AuxMeta, u64::from(v), false);
            }
            AccessEvent::WriteAux(v) => {
                let c = self.core_of(v);
                self.machine.access(c, Actor::Core, Region::AuxMeta, u64::from(v), true);
            }
            AccessEvent::ReadActive(v) => {
                let c = self.core_of(v);
                self.machine.access(c, Actor::Core, Region::ActiveVertices, u64::from(v), false);
            }
            AccessEvent::WriteActive(v) => {
                let c = self.core_of(v);
                self.machine.access(c, Actor::Core, Region::ActiveVertices, u64::from(v), true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_algos::scratch::solve;
    use tdgraph_graph::partition::partition_by_edges;
    use tdgraph_graph::types::Edge;
    use tdgraph_sim::address::AddressSpace;
    use tdgraph_sim::config::SimConfig;

    fn fixture() -> (Csr, Csr, AlgoState, Machine, Vec<Chunk>) {
        let g = Csr::from_edges(
            8,
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(2, 3, 1.0),
                Edge::new(4, 5, 1.0),
            ],
        );
        let t = g.transpose();
        let state = AlgoState::from_solution(solve(&Algo::sssp(0), &g), 8);
        let layout = AddressSpace::layout(8, 4, 4);
        let machine = Machine::new(SimConfig::small_test(), layout);
        let chunks = partition_by_edges(&g, 4);
        (g, t, state, machine, chunks)
    }

    #[test]
    fn read_write_state_roundtrip_and_count() {
        let (g, t, mut state, mut machine, chunks) = fixture();
        let mut counters = UpdateCounters::new(8);
        let mass = vec![0.0; 8];
        let mut ctx = BatchCtx {
            machine: &mut machine,
            graph: &g,
            transpose: &t,
            algo: Algo::sssp(0),
            state: &mut state,
            chunks: &chunks,
            counters: &mut counters,
            out_mass: &mass,
            alpha: 0.005,
        };
        assert_eq!(ctx.read_state(0, Actor::Core, 1), 1.0);
        ctx.write_state(0, Actor::Core, 1, 9.0);
        assert_eq!(ctx.read_state(0, Actor::Core, 1), 9.0);
        assert_eq!(ctx.counters.total_writes(), 1);
        assert!(ctx.machine.stats().accesses >= 3);
    }

    #[test]
    fn read_edge_returns_neighbor_and_counts() {
        let (g, t, mut state, mut machine, chunks) = fixture();
        let mut counters = UpdateCounters::new(8);
        let mass = vec![0.0; 8];
        let mut ctx = BatchCtx {
            machine: &mut machine,
            graph: &g,
            transpose: &t,
            algo: Algo::sssp(0),
            state: &mut state,
            chunks: &chunks,
            counters: &mut counters,
            out_mass: &mass,
            alpha: 0.005,
        };
        let (lo, _) = ctx.read_offsets(0, Actor::Core, 0);
        let (nbr, w) = ctx.read_edge(0, Actor::Core, lo);
        assert_eq!((nbr, w), (1, 1.0));
        assert_eq!(ctx.counters.edges_processed(), 1);
    }

    #[test]
    fn owner_maps_every_vertex_to_a_core() {
        let (g, t, mut state, mut machine, chunks) = fixture();
        let mut counters = UpdateCounters::new(8);
        let mass = vec![0.0; 8];
        let ctx = BatchCtx {
            machine: &mut machine,
            graph: &g,
            transpose: &t,
            algo: Algo::sssp(0),
            state: &mut state,
            chunks: &chunks,
            counters: &mut counters,
            out_mass: &mass,
            alpha: 0.005,
        };
        for v in 0..8 {
            assert!(ctx.owner(v) < 4);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside every chunk")]
    fn owner_rejects_unowned_vertices_in_debug() {
        let (g, t, mut state, mut machine, chunks) = fixture();
        let mut counters = UpdateCounters::new(8);
        let mass = vec![0.0; 8];
        let ctx = BatchCtx {
            machine: &mut machine,
            graph: &g,
            transpose: &t,
            algo: Algo::sssp(0),
            state: &mut state,
            chunks: &chunks,
            counters: &mut counters,
            out_mass: &mass,
            alpha: 0.005,
        };
        let _ = ctx.owner(1_000_000);
    }

    #[test]
    fn machine_tap_forwards_events() {
        let (g, _t, _state, mut machine, chunks) = fixture();
        let _ = g;
        let mut tap = MachineTap::new(&mut machine, &chunks);
        tap.touch(AccessEvent::ReadState(3));
        tap.touch(AccessEvent::WriteState(3));
        tap.touch(AccessEvent::ReadNeighbor(0));
        assert_eq!(machine.stats().accesses, 3);
        assert!(machine.stats().per_op(Op::StateUpdate) == 1);
    }
}

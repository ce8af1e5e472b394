//! HATS (Mukkara et al., MICRO'18) behavioral model.
//!
//! HATS adds a hardware traversal scheduler per core that walks the graph
//! in bounded-depth-first order (BDFS), exploiting community structure so
//! consecutive edge fetches hit nearby data, and streams the scheduled
//! edges to the core. What it does *not* do is synchronize propagations
//! from multiple roots (no `Topology_List`) or coalesce vertex states —
//! TDGraph's two mechanisms. We model it as a depth-first worklist whose
//! structure fetches run on the accelerator timeline (latency hidden by the
//! traversal pipeline) while state reads/updates stay on the core.

use tdgraph_engines::common::{accel_edge, push, Charges, Frontier};
use tdgraph_engines::ctx::BatchCtx;
use tdgraph_engines::engine::Engine;
use tdgraph_graph::types::{VertexId, Weight};
use tdgraph_sim::address::Region;
use tdgraph_sim::stats::{Actor, Op, PhaseKind};

/// The HATS engine model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hats;

impl Engine for Hats {
    fn name(&self) -> &'static str {
        "HATS"
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        // LIFO worklist = depth-first scheduling order.
        let mut work = Frontier::seeded(ctx.graph.vertex_count(), affected);
        while let Some(v) = work.pop() {
            let core = ctx.owner(v);
            // The BDFS unit fetches the schedule and structure data.
            ctx.machine.access(core, Actor::Accel, Region::ActiveVertices, u64::from(v), false);
            ctx.machine.access(core, Actor::Accel, Region::OffsetArray, u64::from(v), false);
            ctx.machine.compute(core, Actor::Accel, Op::ScheduleOp, 1);
            push(ctx, core, v, &mut Hats, &mut work);
        }
        ctx.machine.end_phase(PhaseKind::Propagation);
    }
}

/// Structure fetches run through the traversal unit, which also queues
/// scheduled vertices; state reads and updates stay on the core.
impl Charges for Hats {
    fn offsets(&mut self, ctx: &mut BatchCtx<'_>, _core: usize, v: VertexId) -> (usize, usize) {
        ctx.graph.neighbor_range(v)
    }

    fn edge(&mut self, ctx: &mut BatchCtx<'_>, core: usize, i: usize) -> (VertexId, Weight) {
        accel_edge(ctx, core, i)
    }

    fn activate(&mut self, ctx: &mut BatchCtx<'_>, core: usize, v: VertexId, next: &mut Frontier) {
        if next.push(v) {
            ctx.machine.compute(core, Actor::Accel, Op::FrontierOp, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_algos::traits::Algo;
    use tdgraph_engines::testutil::{converges_to_oracle, converges_with_deletions};

    #[test]
    fn converges_on_all_algorithms() {
        for algo in [Algo::sssp(0), Algo::cc(), Algo::pagerank(), Algo::adsorption()] {
            converges_to_oracle(&mut Hats, algo);
        }
    }

    #[test]
    fn converges_with_deletion_heavy_batches() {
        converges_with_deletions(&mut Hats, Algo::sssp(0));
    }
}

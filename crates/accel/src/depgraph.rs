//! DepGraph (Zhang et al., HPCA'21) behavioral model.
//!
//! DepGraph accelerates iterative processing by *dependency-driven
//! dispatching*: from an active vertex it chases the chain of dependent
//! vertices depth-first, prefetching along the chain, so fresh values
//! propagate to the end of a dependency path within one dispatch instead of
//! one hop per iteration. That kills much of the staleness redundancy —
//! which is why the paper ranks it the strongest comparator (TDGraph still
//! beats it 2.3–6.1×, because chains from different roots are not
//! synchronized with each other and states are not coalesced).

use tdgraph_engines::common::{accel_edge, push, Charges, Frontier};
use tdgraph_engines::ctx::BatchCtx;
use tdgraph_engines::engine::Engine;
use tdgraph_graph::types::{VertexId, Weight};
use tdgraph_sim::address::Region;
use tdgraph_sim::stats::{Actor, Op, PhaseKind};

/// The DepGraph engine model.
#[derive(Debug, Clone, Copy, Default)]
pub struct DepGraph;

impl Engine for DepGraph {
    fn name(&self) -> &'static str {
        "DepGraph"
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        let mut work = Frontier::seeded(ctx.graph.vertex_count(), affected);
        while let Some(start) = work.pop() {
            // Chase the dependency chain from `start`; the hardware
            // prefetches each next hop while the core processes the
            // current one.
            let mut chain = Chain { next: Some(start) };
            while let Some(v) = chain.next.take() {
                let core = ctx.owner(v);
                ctx.machine.access(core, Actor::Accel, Region::OffsetArray, u64::from(v), false);
                ctx.machine.compute(core, Actor::Accel, Op::ScheduleOp, 1);
                push(ctx, core, v, &mut chain, &mut work);
            }
        }
        ctx.machine.end_phase(PhaseKind::Propagation);
    }
}

/// One dispatch along a dependency chain: the first vertex a push
/// activates is chased next, every other one is queued.
struct Chain {
    next: Option<VertexId>,
}

impl Charges for Chain {
    fn offsets(&mut self, ctx: &mut BatchCtx<'_>, _core: usize, v: VertexId) -> (usize, usize) {
        ctx.graph.neighbor_range(v)
    }

    fn edge(&mut self, ctx: &mut BatchCtx<'_>, core: usize, i: usize) -> (VertexId, Weight) {
        accel_edge(ctx, core, i)
    }

    fn activate(&mut self, ctx: &mut BatchCtx<'_>, core: usize, v: VertexId, next: &mut Frontier) {
        if self.next.is_none() {
            self.next = Some(v);
        } else if next.push(v) {
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
            converges_to_oracle(&mut DepGraph, algo);
        }
    }

    #[test]
    fn converges_with_deletion_heavy_batches() {
        converges_with_deletions(&mut DepGraph, Algo::sssp(0));
    }
}

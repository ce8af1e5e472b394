//! Minnow (Zhang et al., ASPLOS'18) behavioral model.
//!
//! Minnow pairs each core with a lightweight engine that (a) manages the
//! worklist in hardware (enqueue/dequeue off the critical path) and (b)
//! performs *worklist-directed prefetching*: it looks ahead at queued work
//! items and prefetches their vertex data, so the core finds its inputs in
//! the private cache. The propagation schedule itself stays Ligra-style
//! synchronous push — Minnow accelerates the mechanics, not the order, so
//! the redundant multi-arrival updates remain.

use tdgraph_engines::common::{push, sync_rounds, Charges, Frontier};
use tdgraph_engines::ctx::BatchCtx;
use tdgraph_engines::engine::Engine;
use tdgraph_graph::types::VertexId;
use tdgraph_sim::address::Region;
use tdgraph_sim::stats::Actor;

/// The Minnow engine model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Minnow;

impl Engine for Minnow {
    fn name(&self) -> &'static str {
        "Minnow"
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        sync_rounds(ctx, affected, |ctx, round, next| {
            for &v in round.peek() {
                let core = ctx.owner(v);
                // Worklist dequeue + lookahead prefetch of v's data by the
                // engine: state, offsets, and the neighbor run.
                ctx.machine.access(core, Actor::Accel, Region::Frontier, u64::from(v), false);
                ctx.machine.access(core, Actor::Accel, Region::VertexStates, u64::from(v), false);
                ctx.machine.access(core, Actor::Accel, Region::OffsetArray, u64::from(v), false);
                let (lo, hi) = ctx.graph.neighbor_range(v);
                for i in (lo..hi).step_by(16) {
                    ctx.machine.access(core, Actor::Accel, Region::NeighborArray, i as u64, false);
                }
                push(ctx, core, v, &mut Minnow, next);
            }
        });
    }
}

/// The engine already prefetched the offsets and handles every enqueue.
impl Charges for Minnow {
    fn offsets(&mut self, ctx: &mut BatchCtx<'_>, _core: usize, v: VertexId) -> (usize, usize) {
        ctx.graph.neighbor_range(v)
    }

    fn activate(&mut self, ctx: &mut BatchCtx<'_>, core: usize, v: VertexId, next: &mut Frontier) {
        if next.push(v) {
            ctx.frontier_op(core, Actor::Accel, v);
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
            converges_to_oracle(&mut Minnow, algo);
        }
    }

    #[test]
    fn converges_with_deletion_heavy_batches() {
        converges_with_deletions(&mut Minnow, Algo::cc());
    }
}

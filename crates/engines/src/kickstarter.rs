//! KickStarter (Vora et al., ASPLOS'17) execution model.
//!
//! KickStarter maintains value dependencies (which in-neighbor supplied
//! each vertex's value, at which level) so deletions can be trimmed. Its
//! propagation is an asynchronous push worklist. Relative to Ligra-o it
//! pays, per improving update, extra dependency-tree maintenance (a level
//! write alongside the parent write) and, per processed vertex, the
//! data-dependent branches of the trimming checks; it lacks Ligra-o's
//! SIMD/unrolling, modeled as one extra edge-process charge per edge.

use tdgraph_graph::types::{VertexId, Weight};
use tdgraph_sim::address::Region;
use tdgraph_sim::stats::{Actor, Op, PhaseKind};

use crate::common::{push, Charges, Frontier};
use crate::ctx::BatchCtx;
use crate::engine::Engine;

/// The KickStarter engine model.
#[derive(Debug, Clone, Copy, Default)]
pub struct KickStarter;

impl Engine for KickStarter {
    fn name(&self) -> &'static str {
        "KickStarter"
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        let mut work = Frontier::seeded(ctx.graph.vertex_count(), affected);
        while let Some(v) = work.pop() {
            let core = ctx.owner(v);
            ctx.schedule_op(core, Actor::Core, 1);
            // Trimming-check branches on the dependency metadata.
            ctx.read_parent(core, Actor::Core, v);
            ctx.branch_miss(core, Actor::Core, 1);
            push(ctx, core, v, &mut KickStarter, &mut work);
        }
        ctx.machine.end_phase(PhaseKind::Propagation);
    }
}

impl Charges for KickStarter {
    fn edge(&mut self, ctx: &mut BatchCtx<'_>, core: usize, i: usize) -> (VertexId, Weight) {
        let edge = ctx.read_edge(core, Actor::Core, i);
        // No SIMD: one extra edge charge.
        ctx.machine.compute(core, Actor::Core, Op::EdgeProcess, 1);
        edge
    }

    fn relaxed(&mut self, ctx: &mut BatchCtx<'_>, core: usize, dst: VertexId) {
        // Dependency tree: the level beside the parent.
        ctx.machine.access(core, Actor::Core, Region::AuxMeta, u64::from(dst), true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::converges_to_oracle;
    use tdgraph_algos::traits::Algo;

    #[test]
    fn sssp_converges() {
        converges_to_oracle(&mut KickStarter, Algo::sssp(0));
    }

    #[test]
    fn cc_converges() {
        converges_to_oracle(&mut KickStarter, Algo::cc());
    }

    #[test]
    fn pagerank_converges() {
        converges_to_oracle(&mut KickStarter, Algo::pagerank());
    }

    #[test]
    fn adsorption_converges() {
        converges_to_oracle(&mut KickStarter, Algo::adsorption());
    }
}

//! GraphBolt (Mariappan & Vora, EuroSys'19) execution model.
//!
//! GraphBolt performs dependency-driven *synchronous* refinement: every
//! round it identifies the vertices whose inputs changed and recomputes
//! their aggregation over **all** incoming edges, maintaining per-round
//! dependency metadata. This is robust (its design goal is BSP-semantics
//! preservation) but expensive for selection-style algorithms: each dirty
//! vertex's full in-neighborhood is re-read even though one in-edge changed
//! — the paper measures it as the slowest software system on SSSP (Fig 3a,
//! up to 28.4× behind Ligra-o).

use tdgraph_algos::traits::AlgorithmKind;
use tdgraph_graph::types::VertexId;
use tdgraph_sim::address::Region;
use tdgraph_sim::stats::Actor;

use crate::common::{mark, pull, push, sync_rounds, Charges, Frontier};
use crate::ctx::BatchCtx;
use crate::engine::Engine;

/// The GraphBolt engine model.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphBolt;

impl Engine for GraphBolt {
    fn name(&self) -> &'static str {
        "GraphBolt"
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        match ctx.algo.kind() {
            // Dense BSP refinement: a vertex whose inputs were ever touched
            // stays in the dirty set and is re-aggregated over **all** its
            // in-edges every round until the whole batch converges
            // (GraphBolt preserves BSP semantics by refining the complete
            // dependency structure; it has no KickStarter-style trimming
            // for selection algorithms, which is why the paper measures it
            // up to 28.4× behind Ligra-o on SSSP).
            AlgorithmKind::Monotonic => {
                let mut dirty = Frontier::new(ctx.graph.vertex_count());
                sync_rounds(ctx, affected, |ctx, changed, next| {
                    // Mark phase: the changed vertices' out-neighbors join
                    // the cumulative dirty set, with dependency metadata
                    // written per destination.
                    for &v in changed.peek() {
                        let core = ctx.owner(v);
                        ctx.schedule_op(core, Actor::Core, 1);
                        mark(ctx, core, v, &mut GraphBolt, &mut dirty);
                    }
                    // Pull phase: every dirty vertex re-aggregates its
                    // whole in-neighborhood, every round.
                    for &d in dirty.peek() {
                        let core = ctx.owner(d);
                        ctx.schedule_op(core, Actor::Core, 1);
                        pull(ctx, core, d, &mut Regather, next);
                    }
                });
            }
            // BSP residual refinement with per-round dependency snapshots.
            AlgorithmKind::Accumulative => sync_rounds(ctx, affected, |ctx, round, next| {
                for &v in round.peek() {
                    let core = ctx.owner(v);
                    ctx.schedule_op(core, Actor::Core, 1);
                    push(ctx, core, v, &mut GraphBolt, next);
                }
            }),
        }
    }
}

/// Mark and push phases: dependency metadata is written per processed
/// vertex and per reached destination.
impl Charges for GraphBolt {
    fn folded(&mut self, ctx: &mut BatchCtx<'_>, core: usize, v: VertexId) {
        ctx.machine.access(core, Actor::Core, Region::AuxMeta, u64::from(v), true);
    }

    fn delivered(&mut self, ctx: &mut BatchCtx<'_>, core: usize, dst: VertexId) {
        ctx.machine.access(core, Actor::Core, Region::AuxMeta, u64::from(dst), true);
    }
}

/// Pull phase: every in-neighbor's dependency metadata is read before its
/// state, and a re-aggregated vertex is queued without a frontier charge.
struct Regather;

impl Charges for Regather {
    fn gathers(&mut self, ctx: &mut BatchCtx<'_>, core: usize, src: VertexId) -> bool {
        ctx.machine.access(core, Actor::Core, Region::AuxMeta, u64::from(src), false);
        true
    }

    fn activate(
        &mut self,
        _ctx: &mut BatchCtx<'_>,
        _core: usize,
        v: VertexId,
        next: &mut Frontier,
    ) {
        next.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{converges_to_oracle, converges_with_deletions};
    use tdgraph_algos::traits::Algo;

    #[test]
    fn sssp_converges() {
        converges_to_oracle(&mut GraphBolt, Algo::sssp(0));
    }

    #[test]
    fn cc_converges() {
        converges_to_oracle(&mut GraphBolt, Algo::cc());
    }

    #[test]
    fn pagerank_converges() {
        converges_to_oracle(&mut GraphBolt, Algo::pagerank());
    }

    #[test]
    fn adsorption_converges() {
        converges_to_oracle(&mut GraphBolt, Algo::adsorption());
    }

    #[test]
    fn cc_with_deletions_converges() {
        converges_with_deletions(&mut GraphBolt, Algo::cc());
    }
}

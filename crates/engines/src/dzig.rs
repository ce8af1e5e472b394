//! DZiG (Mariappan, Che & Vora, EuroSys'21) execution model.
//!
//! DZiG keeps GraphBolt's dependency-driven synchronous structure but adds
//! *sparsity awareness*: a dirty vertex consults a per-vertex changed flag
//! and only re-reads the states of in-neighbors that actually changed this
//! round, skipping the zero-delta work GraphBolt performs. It still scans
//! the in-neighbor id list of each dirty vertex (the sparsity check needs
//! the ids), so it lands between GraphBolt and the push engines in cost —
//! matching its position in Fig 3a.

use tdgraph_algos::traits::AlgorithmKind;
use tdgraph_graph::types::VertexId;
use tdgraph_sim::stats::Actor;

use crate::common::{mark, pull, push, sync_rounds, ChangedSources, Charges, Frontier};
use crate::ctx::BatchCtx;
use crate::engine::Engine;

/// The DZiG engine model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dzig;

impl Engine for Dzig {
    fn name(&self) -> &'static str {
        "DZiG"
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        match ctx.algo.kind() {
            AlgorithmKind::Monotonic => sync_rounds(ctx, affected, |ctx, changed, next| {
                // Build the dirty set from the changed vertices' out-edges.
                let mut dirty = Frontier::new(ctx.graph.vertex_count());
                for &v in changed.peek() {
                    let core = ctx.owner(v);
                    ctx.schedule_op(core, Actor::Core, 1);
                    mark(ctx, core, v, &mut Dzig, &mut dirty);
                }
                // Sparse pull: only changed in-neighbors are consulted (the
                // sparsity check reads the changed bit of each source id).
                let mut charges = ChangedSources { changed };
                for &d in dirty.peek() {
                    let core = ctx.owner(d);
                    ctx.schedule_op(core, Actor::Core, 1);
                    pull(ctx, core, d, &mut charges, next);
                }
            }),
            // DelZero-aware residual refinement: like GraphBolt's BSP
            // rounds but without the per-edge dependency snapshots (DZiG's
            // key saving).
            AlgorithmKind::Accumulative => sync_rounds(ctx, affected, |ctx, round, next| {
                for &v in round.peek() {
                    let core = ctx.owner(v);
                    ctx.schedule_op(core, Actor::Core, 1);
                    push(ctx, core, v, &mut Dzig, next);
                }
            }),
        }
    }
}

impl Charges for Dzig {
    /// The DelZero check: a zero delta is never pushed.
    fn skips(&self, delta: f32) -> bool {
        delta == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{converges_to_oracle, converges_with_deletions};
    use tdgraph_algos::traits::Algo;

    #[test]
    fn sssp_converges() {
        converges_to_oracle(&mut Dzig, Algo::sssp(0));
    }

    #[test]
    fn cc_converges() {
        converges_to_oracle(&mut Dzig, Algo::cc());
    }

    #[test]
    fn pagerank_converges() {
        converges_to_oracle(&mut Dzig, Algo::pagerank());
    }

    #[test]
    fn adsorption_converges() {
        converges_to_oracle(&mut Dzig, Algo::adsorption());
    }

    #[test]
    fn sssp_with_deletions_converges() {
        converges_with_deletions(&mut Dzig, Algo::sssp(0));
    }
}

//! Ligra-o: the paper's optimized software baseline (§4.1).
//!
//! Ligra extended with the JetStream-style incremental technique, software
//! prefetching, loop unrolling and SIMD. Its schedule is synchronous
//! push-based frontier processing: every round relaxes all out-edges of the
//! current frontier and barriers. The optimizations show up as the *lowest*
//! per-edge instruction overhead of the four software systems (the shared
//! cost table is calibrated to it), but the schedule still propagates each
//! affected vertex's state independently — the redundant-update and
//! irregular-access problems of §2.2 arise naturally.

use tdgraph_graph::types::VertexId;
use tdgraph_sim::stats::Actor;

use crate::common::{push, sync_rounds, Charges, Frontier};
use crate::ctx::BatchCtx;
use crate::engine::Engine;

/// The Ligra-o baseline engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct LigraO;

impl Engine for LigraO {
    fn name(&self) -> &'static str {
        "Ligra-o"
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        sync_rounds(ctx, affected, push_round);
    }
}

impl Charges for LigraO {}

/// One synchronous push round of Ligra-o (also Ligra-DO's sparse rounds):
/// every vertex of `round` reads its active bit and pushes.
pub(crate) fn push_round(ctx: &mut BatchCtx<'_>, round: &Frontier, next: &mut Frontier) {
    for &v in round.peek() {
        let core = ctx.owner(v);
        ctx.schedule_op(core, Actor::Core, 1);
        ctx.read_active(core, Actor::Core, v);
        push(ctx, core, v, &mut LigraO, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{converges_to_oracle, converges_with_deletions};
    use tdgraph_algos::traits::Algo;

    #[test]
    fn sssp_converges_to_oracle() {
        converges_to_oracle(&mut LigraO, Algo::sssp(0));
    }

    #[test]
    fn cc_converges_to_oracle() {
        converges_to_oracle(&mut LigraO, Algo::cc());
    }

    #[test]
    fn pagerank_converges_to_oracle() {
        converges_to_oracle(&mut LigraO, Algo::pagerank());
    }

    #[test]
    fn adsorption_converges_to_oracle() {
        converges_to_oracle(&mut LigraO, Algo::adsorption());
    }

    #[test]
    fn sssp_with_deletions_converges() {
        converges_with_deletions(&mut LigraO, Algo::sssp(0));
    }
}

//! Direction-optimizing Ligra (Beamer-style push/pull switching).
//!
//! Real Ligra's signature optimization: when the frontier is small, push
//! sparsely along its out-edges; when it grows past a threshold fraction
//! of the graph, switch to a dense *pull* round where every vertex gathers
//! from its in-neighbors — cheaper because a dense pull touches each
//! destination once and can stop at the first useful in-neighbor, and its
//! sequential scans prefetch well.
//!
//! This engine is provided alongside [`crate::ligra_o::LigraO`] (the
//! paper's baseline keeps a fixed push direction, which is what its
//! redundancy analysis assumes); comparing the two quantifies how much of
//! the gap an adaptive software baseline could recover by itself.

use tdgraph_algos::traits::AlgorithmKind;
use tdgraph_graph::types::VertexId;
use tdgraph_sim::stats::Actor;

use crate::common::{pull, sync_rounds, ChangedSources};
use crate::ctx::BatchCtx;
use crate::engine::Engine;
use crate::ligra_o::push_round;

/// Frontier fraction above which rounds switch to dense pull.
const DENSE_THRESHOLD: f64 = 0.05;

/// The direction-optimizing Ligra engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct LigraDO;

impl Engine for LigraDO {
    fn name(&self) -> &'static str {
        "Ligra-DO"
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        let n = ctx.graph.vertex_count();
        sync_rounds(ctx, affected, |ctx, round, next| {
            let dense = round.len() as f64 > DENSE_THRESHOLD * n as f64;
            if dense && ctx.algo.kind() == AlgorithmKind::Monotonic {
                // One dense pull round: every vertex scans its
                // in-neighbors; the frontier check is a bitvector read,
                // which is the point of pull: it skips state loads for
                // unchanged sources.
                let mut charges = ChangedSources { changed: round };
                for d in 0..n as VertexId {
                    let core = ctx.owner(d);
                    ctx.schedule_op(core, Actor::Core, 1);
                    pull(ctx, core, d, &mut charges, next);
                }
            } else {
                push_round(ctx, round, next);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{converges_to_oracle, converges_with_deletions};
    use tdgraph_algos::traits::Algo;

    #[test]
    fn converges_on_all_algorithms() {
        for algo in [Algo::sssp(0), Algo::cc(), Algo::pagerank(), Algo::adsorption()] {
            converges_to_oracle(&mut LigraDO, algo);
        }
    }

    #[test]
    fn deletion_heavy_streams_converge() {
        converges_with_deletions(&mut LigraDO, Algo::sssp(0));
        converges_with_deletions(&mut LigraDO, Algo::cc());
    }
}

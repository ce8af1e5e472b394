//! JetStream (Rahman et al., MICRO'21) and GraphPulse (MICRO'20) models.
//!
//! JetStream is an event-driven streaming-graph accelerator: updates and
//! their consequences circulate as `(vertex, value)` events through a
//! memory-backed event queue that the accelerator drains, reading the
//! vertex state, applying the event, and emitting events to out-neighbors.
//! Everything runs in the accelerator (cores idle), so per-event cost is
//! low — but events from different update roots remain temporally separate,
//! so the same redundancy TDGraph removes persists, and every event touches
//! the queue in memory (Fig 16's traffic).
//!
//! `JetStream::with_coalescing()` is the paper's "JetStream-with" variant
//! (Fig 17): the same engine with a VSCU-style hot-state cache bolted on.
//!
//! [`GraphPulse`] is the event-driven accelerator for *static* asynchronous
//! processing: it coalesces in-flight events to the same destination inside
//! its queues (fewer state touches, events mostly useful) but pays more
//! queue traffic per emitted event (the paper: "requires much more memory
//! accesses, although most prefetched data are useful").

use std::collections::VecDeque;

use tdgraph_algos::traits::AlgorithmKind;
use tdgraph_engines::ctx::BatchCtx;
use tdgraph_engines::engine::Engine;
use tdgraph_graph::types::VertexId;
use tdgraph_sim::address::Region;
use tdgraph_sim::stats::{Actor, Op, PhaseKind};

use crate::tdgraph::vscu::Vscu;

/// The JetStream engine model.
#[derive(Debug, Clone, Copy, Default)]
pub struct JetStream {
    coalescing: bool,
    /// GraphPulse-style in-queue event coalescing (dedup per destination).
    coalesce_queue: bool,
}

impl JetStream {
    /// Plain JetStream: every emitted event occupies its own queue slot —
    /// the redundancy of temporally-separate update streams persists.
    #[must_use]
    pub fn new() -> Self {
        Self { coalescing: false, coalesce_queue: false }
    }

    /// "JetStream-with": JetStream plus VSCU-style state coalescing.
    #[must_use]
    pub fn with_coalescing() -> Self {
        Self { coalescing: true, coalesce_queue: false }
    }

    fn graphpulse_inner() -> Self {
        Self { coalescing: false, coalesce_queue: true }
    }
}

impl Engine for JetStream {
    fn name(&self) -> &'static str {
        if self.coalescing {
            "JetStream-with"
        } else {
            "JetStream"
        }
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        let n = ctx.graph.vertex_count();
        let algo = ctx.algo;
        let eps = algo.epsilon();
        // Hot set for the optional coalescer: the top-α·|V| vertices by
        // degree (JetStream has no Topology_List to rank by).
        let capacity = ((n as f64 * ctx.alpha) as usize).max(1);
        let mut vscu = Vscu::new(n, capacity, self.coalescing);
        if self.coalescing {
            let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
            by_degree.sort_by_key(|&v| std::cmp::Reverse(ctx.graph.degree(v)));
            by_degree.truncate(capacity);
            vscu.set_hot(ctx.machine, 0, &by_degree);
        }

        // Event queue in memory; each entry costs a queue write + read.
        let mut queue: VecDeque<VertexId> = VecDeque::new();
        let mut queued = vec![false; n];
        for &v in affected {
            queue.push_back(v);
            queued[v as usize] = true;
            let core = ctx.owner(v);
            ctx.machine.access(core, Actor::Accel, Region::Frontier, u64::from(v), true);
        }
        while let Some(v) = queue.pop_front() {
            if self.coalesce_queue {
                queued[v as usize] = false;
            }
            let core = ctx.owner(v);
            ctx.machine.access(core, Actor::Accel, Region::Frontier, u64::from(v), false);
            ctx.machine.access(core, Actor::Accel, Region::OffsetArray, u64::from(v), false);
            ctx.machine.compute(core, Actor::Accel, Op::ScheduleOp, 1);
            let (lo, hi) = ctx.graph.neighbor_range(v);
            match algo.kind() {
                AlgorithmKind::Monotonic => {
                    let loc = vscu.locate(ctx.machine, core, Actor::Accel, v);
                    let (reg, idx) = Vscu::target(loc, v);
                    ctx.machine.access(core, Actor::Accel, reg, idx, false);
                    let s = ctx.state.states[v as usize];
                    if !s.is_finite() {
                        continue;
                    }
                    for i in lo..hi {
                        let (dst, w) = ctx.read_edge(core, Actor::Accel, i);
                        let cand = algo.mono_propagate(s, w);
                        let dloc = vscu.locate(ctx.machine, core, Actor::Accel, dst);
                        let (dreg, didx) = Vscu::target(dloc, dst);
                        ctx.machine.access(core, Actor::Accel, dreg, didx, false);
                        if algo.mono_better(cand, ctx.state.states[dst as usize]) {
                            ctx.machine.access(core, Actor::Accel, dreg, didx, true);
                            ctx.machine.compute(core, Actor::Accel, Op::StateUpdate, 1);
                            ctx.state.states[dst as usize] = cand;
                            ctx.note_state_write(dst);
                            ctx.state.parents[dst as usize] = v;
                            self.emit(ctx, core, dst, &mut queue, &mut queued);
                        }
                    }
                }
                AlgorithmKind::Accumulative => {
                    let r = {
                        ctx.machine.access(
                            core,
                            Actor::Accel,
                            Region::AuxMeta,
                            u64::from(v),
                            false,
                        );
                        ctx.state.residuals[v as usize]
                    };
                    if r.abs() < eps {
                        continue;
                    }
                    ctx.machine.access(core, Actor::Accel, Region::AuxMeta, u64::from(v), true);
                    ctx.state.residuals[v as usize] = 0.0;
                    let loc = vscu.locate(ctx.machine, core, Actor::Accel, v);
                    let (reg, idx) = Vscu::target(loc, v);
                    ctx.machine.access(core, Actor::Accel, reg, idx, true);
                    ctx.machine.compute(core, Actor::Accel, Op::StateUpdate, 1);
                    ctx.state.states[v as usize] += r;
                    ctx.note_state_write(v);
                    let mass = ctx.out_mass[v as usize];
                    if mass <= 0.0 {
                        continue;
                    }
                    for i in lo..hi {
                        let (dst, w) = ctx.read_edge(core, Actor::Accel, i);
                        let push = algo.acc_scale(r, w, mass);
                        ctx.machine.access(
                            core,
                            Actor::Accel,
                            Region::AuxMeta,
                            u64::from(dst),
                            false,
                        );
                        ctx.machine.access(
                            core,
                            Actor::Accel,
                            Region::AuxMeta,
                            u64::from(dst),
                            true,
                        );
                        ctx.state.residuals[dst as usize] += push;
                        if ctx.state.residuals[dst as usize].abs() >= eps {
                            self.emit(ctx, core, dst, &mut queue, &mut queued);
                        }
                    }
                }
            }
        }
        ctx.machine.end_phase(PhaseKind::Propagation);
        if self.coalescing {
            vscu.writeback(ctx.machine, 0);
            ctx.machine.end_phase(PhaseKind::Other);
        }
    }
}

impl JetStream {
    fn emit(
        &self,
        ctx: &mut BatchCtx<'_>,
        core: usize,
        dst: VertexId,
        queue: &mut VecDeque<VertexId>,
        queued: &mut [bool],
    ) {
        // Every emitted event is written to the memory-backed queue.
        ctx.machine.access(core, Actor::Accel, Region::Frontier, u64::from(dst), true);
        ctx.machine.compute(core, Actor::Accel, Op::FrontierOp, 1);
        if self.coalesce_queue {
            // GraphPulse combines in-flight events to the same destination.
            if !queued[dst as usize] {
                queued[dst as usize] = true;
                queue.push_back(dst);
            }
        } else {
            queue.push_back(dst);
        }
    }
}

/// The GraphPulse engine model: event-driven with in-queue coalescing.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphPulse;

impl Engine for GraphPulse {
    fn name(&self) -> &'static str {
        "GraphPulse"
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        // GraphPulse coalesces events per destination inside its queues: the
        // dedup makes each drained event carry the combined value, but each
        // *emission* still costs queue traffic both ways (its documented
        // weakness: far more memory accesses, mostly useful).
        let mut inner = JetStream::graphpulse_inner();
        for &v in affected {
            // Extra coalescing-queue maintenance per initial event.
            let core = ctx.owner(v);
            ctx.machine.access(core, Actor::Accel, Region::Frontier, u64::from(v), true);
            ctx.machine.access(core, Actor::Accel, Region::Frontier, u64::from(v), false);
        }
        inner.process_batch(ctx, affected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_algos::traits::Algo;
    use tdgraph_engines::testutil::converges_to_oracle;

    #[test]
    fn jetstream_converges_on_all_algorithms() {
        for algo in [Algo::sssp(0), Algo::cc(), Algo::pagerank(), Algo::adsorption()] {
            converges_to_oracle(&mut JetStream::new(), algo);
        }
    }

    #[test]
    fn jetstream_with_coalescing_converges() {
        converges_to_oracle(&mut JetStream::with_coalescing(), Algo::sssp(0));
        converges_to_oracle(&mut JetStream::with_coalescing(), Algo::pagerank());
    }

    #[test]
    fn graphpulse_converges() {
        converges_to_oracle(&mut GraphPulse, Algo::pagerank());
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(JetStream::new().name(), "JetStream");
        assert_eq!(JetStream::with_coalescing().name(), "JetStream-with");
        assert_eq!(GraphPulse.name(), "GraphPulse");
    }
}

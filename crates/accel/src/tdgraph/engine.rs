//! The TDGraph engine: topology-driven incremental execution (§3).
//!
//! Per batch it runs the two TDTU operations of §3.3.2 and the VSCU of
//! §3.3.3:
//!
//! 1. **Graph topology tracking** — depth-first traversal from every
//!    affected vertex over the new snapshot, marking edges visited and
//!    incrementing `Topology_List[dst]` per traversed edge. Afterwards each
//!    tracked vertex's counter equals the number of state propagations that
//!    must pass through it.
//! 2. **Hot-vertex identification** — the software ranks tracked vertices
//!    by their counters and installs the top α·|V| into `Hot_Vertices`
//!    (the VSCU coalesces their states; α is the run's, read from
//!    [`BatchCtx::alpha`]).
//! 3. **Graph data prefetching / processing** — roots with counter 0 are
//!    taken from `Active_Vertices`; the TDTU walks the topology depth-first,
//!    prefetching each edge and its endpoint states (through the VSCU),
//!    decrementing the destination counter, and descending when a counter
//!    reaches zero — so propagations from many roots merge and traverse
//!    common vertices once. The paired core takes each prefetched edge
//!    (`TD_FETCH_EDGE`, charged as one core cycle plus one `EdgeProcess`
//!    per edge) and applies the update (`TD_UPDATE_STATE`). When the core
//!    would idle (cycles in the graph), the active vertex with the lowest
//!    counter is expanded (footnote 3 of the paper).
//!
//! [`Mode::Software`] runs the identical logic on the core timeline with
//! the §3.1 "Runtime Overhead" charges (data-dependent branches, software
//! hash probes) — this is TDGraph-S.

use std::collections::VecDeque;

use tdgraph_algos::traits::AlgorithmKind;
use tdgraph_engines::ctx::BatchCtx;
use tdgraph_engines::engine::Engine;
use tdgraph_graph::types::VertexId;
use tdgraph_sim::address::Region;
use tdgraph_sim::stats::{Actor, Op, PhaseKind};

use super::stack::{HardwareStack, Level};
use super::vscu::Vscu;

/// Whether the topology-driven logic runs in the accelerator (TDGraph-H) or
/// as software on the cores (TDGraph-S).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Hardware TDTU/VSCU engines (TDGraph-H).
    Hardware,
    /// Software-only implementation (TDGraph-S).
    Software,
}

/// Configuration of a TDGraph engine instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdGraphConfig {
    /// Hardware or software execution.
    pub mode: Mode,
    /// Depth of the traversal stack (default 10; Fig 21 sweeps it).
    pub stack_depth: usize,
    /// Whether the VSCU coalesces hot states (false = TDGraph-H-without).
    pub vscu_enabled: bool,
    /// Discovery-order DAG-ification of the synchronization counters
    /// (DESIGN.md §5 decision 4a). Disabling reverts to paper-literal
    /// counting of every tracked edge, which deadlocks on cycles and
    /// falls back to min-counter expansion — the `ablation` experiment
    /// measures the difference.
    pub dagify: bool,
    /// Defer re-activated vertices until the gated work drains
    /// (decision 4b), so one re-expansion batches many late arrivals.
    pub defer_reactivations: bool,
}

impl Default for TdGraphConfig {
    fn default() -> Self {
        Self {
            mode: Mode::Hardware,
            stack_depth: 10,
            vscu_enabled: true,
            dagify: true,
            defer_reactivations: true,
        }
    }
}

/// The TDGraph engine (both TDGraph-H and TDGraph-S, per [`Mode`]).
#[derive(Debug, Clone)]
pub struct TdGraph {
    cfg: TdGraphConfig,
}

impl TdGraph {
    /// TDGraph-H with paper defaults.
    #[must_use]
    pub fn hardware() -> Self {
        Self::with_config(TdGraphConfig::default())
    }

    /// TDGraph-S: the software-only implementation.
    #[must_use]
    pub fn software() -> Self {
        Self::with_config(TdGraphConfig { mode: Mode::Software, ..TdGraphConfig::default() })
    }

    /// TDGraph-H-without: TDTU enabled, VSCU disabled (Fig 13).
    #[must_use]
    pub fn hardware_without_vscu() -> Self {
        Self::with_config(TdGraphConfig { vscu_enabled: false, ..TdGraphConfig::default() })
    }

    /// TDGraph-S-without: software, no coalescing (Fig 14).
    #[must_use]
    pub fn software_without_vscu() -> Self {
        Self::with_config(TdGraphConfig {
            mode: Mode::Software,
            vscu_enabled: false,
            ..TdGraphConfig::default()
        })
    }

    /// Custom configuration.
    #[must_use]
    pub fn with_config(cfg: TdGraphConfig) -> Self {
        assert!(cfg.stack_depth > 0, "stack depth must be positive");
        Self { cfg }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TdGraphConfig {
        &self.cfg
    }

    fn actor(&self) -> Actor {
        match self.cfg.mode {
            Mode::Hardware => Actor::Accel,
            Mode::Software => Actor::Core,
        }
    }

    /// Per-traversal-step overhead: free pipeline stages in hardware, a
    /// data-dependent branch on the core in software (§3.1).
    fn step_overhead(&self, ctx: &mut BatchCtx<'_>, core: usize) {
        match self.cfg.mode {
            Mode::Hardware => ctx.machine.compute(core, Actor::Accel, Op::ScheduleOp, 1),
            Mode::Software => {
                ctx.machine.compute(core, Actor::Core, Op::ScheduleOp, 1);
                ctx.machine.compute(core, Actor::Core, Op::BranchMiss, 1);
            }
        }
    }
}

impl Engine for TdGraph {
    fn name(&self) -> &'static str {
        match (self.cfg.mode, self.cfg.vscu_enabled) {
            (Mode::Hardware, true) => "TDGraph-H",
            (Mode::Hardware, false) => "TDGraph-H-without",
            (Mode::Software, true) => "TDGraph-S",
            (Mode::Software, false) => "TDGraph-S-without",
        }
    }

    fn process_batch(&mut self, ctx: &mut BatchCtx<'_>, affected: &[VertexId]) {
        if affected.is_empty() {
            return;
        }
        let n = ctx.graph.vertex_count();

        // ---- Phase 1: graph topology tracking --------------------------
        let mut topology = vec![0u32; n];
        // Discovery timestamps assigned during tracking; 0 = undiscovered.
        // An edge contributes to its destination's counter only when the
        // source was discovered earlier, which makes the waits-for relation
        // acyclic — topological gating then never deadlocks on the graph's
        // cycles (DESIGN.md §5, decision 4).
        let mut discover = vec![0u32; n];
        let mut tracked: Vec<VertexId> = Vec::new();
        let mut is_seed = vec![false; n];
        for &v in affected {
            is_seed[v as usize] = true;
        }
        self.track_topology(ctx, affected, &is_seed, &mut topology, &mut discover, &mut tracked);
        ctx.machine.end_phase(PhaseKind::Other);

        // ---- Hot-vertex identification + VSCU setup --------------------
        let capacity = ((n as f64 * ctx.alpha).ceil() as usize).max(1);
        let mut vscu = Vscu::new(n, capacity, self.cfg.vscu_enabled);
        if self.cfg.vscu_enabled {
            let mut ranked = tracked.clone();
            for &v in &ranked {
                let core = ctx.owner(v);
                ctx.machine.access(core, Actor::Core, Region::TopologyList, u64::from(v), false);
                ctx.machine.compute(core, Actor::Core, Op::ScheduleOp, 1);
            }
            ranked.sort_by_key(|&v| std::cmp::Reverse(topology[v as usize]));
            ranked.truncate(capacity);
            vscu.set_hot(ctx.machine, 0, &ranked);
            ctx.machine.end_phase(PhaseKind::Other);
        }

        // ---- Phase 2: prefetch + synchronized processing ----------------
        self.propagate(ctx, affected, &mut topology, &discover, &mut vscu);
        ctx.machine.end_phase(PhaseKind::Propagation);

        // ---- Write coalesced states back (end of processing, §3.2.2) ----
        if self.cfg.vscu_enabled {
            vscu.writeback(ctx.machine, 0);
            ctx.machine.end_phase(PhaseKind::Other);
        }
    }
}

impl TdGraph {
    /// Tracking work is charged per edge to the core owning the traversed
    /// vertex's chunk: the 64 TDTUs each walk the edges of their own chunk
    /// (§3.3.2, "traverse the edges in this chunk") concurrently, so a
    /// logically global traversal lands on the owners' timelines. The
    /// traversal descends across chunk boundaries (the neighbor's TDTU
    /// continues it); only the depth bound re-roots.
    fn track_topology(
        &self,
        ctx: &mut BatchCtx<'_>,
        affected: &[VertexId],
        is_seed: &[bool],
        topology: &mut [u32],
        discover: &mut [u32],
        tracked: &mut Vec<VertexId>,
    ) {
        let actor = self.actor();
        let edge_count = ctx.graph.edge_count();
        let mut edge_visited = vec![false; edge_count];
        let mut fully_visited = vec![false; ctx.graph.vertex_count()];
        let mut queued = vec![false; ctx.graph.vertex_count()];
        let mut next_stamp: u32 = 0;
        let mut roots: VecDeque<VertexId> = VecDeque::new();
        for &v in affected {
            if !queued[v as usize] {
                queued[v as usize] = true;
                roots.push_back(v);
            }
        }
        let mut stack = HardwareStack::new(self.cfg.stack_depth);

        while let Some(root) = roots.pop_front() {
            if fully_visited[root as usize] {
                continue;
            }
            if discover[root as usize] == 0 {
                next_stamp += 1;
                discover[root as usize] = next_stamp;
            }
            let root_core = ctx.owner(root);
            let (lo, hi) = ctx.read_offsets(root_core, actor, root);
            stack
                .push(Level { vertex: root, owner: root_core, cursor: lo, end: hi, carry: 0.0 })
                .expect("stack is empty at root push");
            while let Some(top) = stack.top_mut() {
                if top.cursor >= top.end {
                    let done = *top;
                    fully_visited[done.vertex as usize] = true;
                    stack.pop();
                    continue;
                }
                let Level { vertex: v, owner: core, cursor: i, .. } = *top;
                top.cursor += 1;
                ctx.machine.access(core, actor, Region::EdgeVisited, i as u64, false);
                if edge_visited[i] {
                    continue;
                }
                edge_visited[i] = true;
                ctx.machine.access(core, actor, Region::EdgeVisited, i as u64, true);
                ctx.machine.access(core, actor, Region::NeighborArray, i as u64, false);
                let (dst, _w) = ctx.graph.edge_at(i);
                // Synchronize_Propagation: Topology_List[dst] += 1 — but
                // only for forward edges in discovery order. An edge whose
                // destination was discovered earlier than its source would
                // make dst wait on a propagation that can only run after
                // dst itself (a cycle): skipping it keeps the waits-for
                // relation acyclic.
                let forward = !self.cfg.dagify
                    || discover[dst as usize] == 0
                    || discover[dst as usize] > discover[v as usize];
                if discover[dst as usize] == 0 {
                    next_stamp += 1;
                    discover[dst as usize] = next_stamp;
                }
                if forward {
                    ctx.machine.access(core, actor, Region::TopologyList, u64::from(dst), false);
                    ctx.machine.access(core, actor, Region::TopologyList, u64::from(dst), true);
                    if topology[dst as usize] == 0 {
                        tracked.push(dst);
                    }
                    topology[dst as usize] += 1;
                }
                self.step_overhead(ctx, core);
                if !forward {
                    continue;
                }
                // Descend unless the neighbor is an initial active vertex
                // (its own root) or already traversed.
                if is_seed[dst as usize] || fully_visited[dst as usize] {
                    continue;
                }
                let (dlo, dhi) = ctx.read_offsets(core, actor, dst);
                let level =
                    Level { vertex: dst, owner: ctx.owner(dst), cursor: dlo, end: dhi, carry: 0.0 };
                if stack.push(level).is_err() {
                    // Depth bound: re-root from this vertex later.
                    if !queued[dst as usize] {
                        queued[dst as usize] = true;
                        ctx.write_active(core, actor, dst);
                        roots.push_back(dst);
                    }
                }
            }
        }
    }

    fn propagate(
        &self,
        ctx: &mut BatchCtx<'_>,
        affected: &[VertexId],
        topology: &mut [u32],
        discover: &[u32],
        vscu: &mut Vscu,
    ) {
        let actor = self.actor();
        let algo = ctx.algo;
        let kind = algo.kind();
        let eps = algo.epsilon();
        let n = ctx.graph.vertex_count();
        let mut visited = vec![false; ctx.graph.edge_count()];
        let mut active = vec![false; n];
        let mut active_count = 0usize;
        let mut ready: VecDeque<VertexId> = VecDeque::new();
        // Re-activations (vertices that already forwarded their value once
        // and later received another propagation) wait here until the
        // gated work drains, so one re-expansion batches as many late
        // arrivals as possible — the wave behaviour of iterating over
        // `Active_Vertices` until no vertex remains active.
        let mut deferred: VecDeque<VertexId> = VecDeque::new();
        let mut stack = HardwareStack::new(self.cfg.stack_depth);
        // Whether a vertex has a level on the stack: a second expansion
        // would re-arm the out-edges its first one is still walking.
        let mut on_stack = vec![false; n];

        for &v in affected {
            if !active[v as usize] {
                active[v as usize] = true;
                active_count += 1;
                ctx.write_active(ctx.owner(v), actor, v);
                if topology[v as usize] == 0 {
                    ready.push_back(v);
                }
            }
        }

        loop {
            // ---- Fetch_Root: pick the next root ------------------------
            let root = loop {
                match ready.pop_front() {
                    Some(r) if active[r as usize] => break Some(r),
                    Some(_) => continue,
                    None => break None,
                }
            };
            let root = match root {
                Some(r) => Some(r),
                None => loop {
                    match deferred.pop_front() {
                        Some(r) if active[r as usize] => break Some(r),
                        Some(_) => continue,
                        None => break None,
                    }
                },
            };
            let root = match root {
                Some(r) => Some(r),
                None if active_count > 0 => {
                    // Idle-core fallback: lowest Topology_List value wins.
                    let r = (0..n as VertexId)
                        .filter(|&v| active[v as usize])
                        .min_by_key(|&v| topology[v as usize]);
                    if let Some(r) = r {
                        // Bit-vector scan cost (one op per 16 scanned words).
                        let core = ctx.owner(r);
                        ctx.machine.compute(core, actor, Op::ScheduleOp, (n as u64 / 512).max(1));
                    }
                    r
                }
                None => None,
            };
            let Some(root) = root else { break };
            let root_core = ctx.owner(root);
            active[root as usize] = false;
            active_count -= 1;
            ctx.write_active(root_core, actor, root);

            let level = self.expand(ctx, vscu, root_core, root, kind, &mut visited);
            stack.push(level).expect("stack is empty at root expansion");
            on_stack[root as usize] = true;

            // ---- Depth-first prefetch + processing ---------------------
            while let Some(top) = stack.top_mut() {
                if top.cursor >= top.end {
                    on_stack[top.vertex as usize] = false;
                    stack.pop();
                    continue;
                }
                let Level { vertex: v, owner: core, cursor: i, carry, .. } = *top;
                top.cursor += 1;
                ctx.machine.access(core, actor, Region::EdgeVisited, i as u64, false);
                if visited[i] {
                    continue;
                }
                visited[i] = true;
                ctx.machine.access(core, actor, Region::EdgeVisited, i as u64, true);

                // Fetch_Neighbors + Fetch_States (prefetch through VSCU).
                ctx.machine.access(core, actor, Region::NeighborArray, i as u64, false);
                ctx.machine.access(core, actor, Region::WeightArray, i as u64, false);
                let (dst, w) = ctx.graph.edge_at(i);
                let dst_loc = vscu.locate(ctx.machine, core, actor, dst);
                let (dreg, didx) = Vscu::target(dst_loc, dst);
                ctx.machine.access(core, actor, dreg, didx, false);
                self.step_overhead(ctx, core);
                ctx.note_edges(1);

                // TD_FETCH_EDGE + the update computation on the core.
                ctx.machine.add_cycles(core, Actor::Core, 1);
                ctx.machine.compute(core, Actor::Core, Op::EdgeProcess, 1);

                // Synchronize_Propagation: Topology_List[dst] -= 1 — for
                // exactly the forward (discovery-ordered) edges the
                // tracking pass counted; the state update itself still
                // applies below for every edge.
                let forward = !self.cfg.dagify
                    || discover[dst as usize] == 0
                    || discover[v as usize] == 0
                    || discover[dst as usize] > discover[v as usize];
                let before = if forward {
                    ctx.machine.access(core, actor, Region::TopologyList, u64::from(dst), false);
                    ctx.machine.access(core, actor, Region::TopologyList, u64::from(dst), true);
                    let b = topology[dst as usize];
                    topology[dst as usize] = b.saturating_sub(1);
                    b
                } else {
                    u32::MAX
                };

                // The core applies the update (TD_UPDATE_STATE).
                let improved = match kind {
                    AlgorithmKind::Monotonic => {
                        let cand = algo.mono_propagate(carry, w);
                        let cur = ctx.state.states[dst as usize];
                        ctx.machine.access(core, Actor::Core, dreg, didx, false);
                        if algo.mono_better(cand, cur) {
                            ctx.machine.access(core, Actor::Core, dreg, didx, true);
                            ctx.machine.compute(core, Actor::Core, Op::StateUpdate, 1);
                            ctx.state.states[dst as usize] = cand;
                            ctx.note_state_write(dst);
                            ctx.state.parents[dst as usize] = v;
                            ctx.machine.access(
                                core,
                                Actor::Core,
                                Region::AuxMeta,
                                u64::from(dst),
                                true,
                            );
                            true
                        } else {
                            false
                        }
                    }
                    AlgorithmKind::Accumulative => {
                        let push = algo.acc_scale(carry, w, ctx.out_mass[v as usize]);
                        if push != 0.0 {
                            let cur = ctx.read_residual(core, Actor::Core, dst);
                            ctx.write_residual(core, Actor::Core, dst, cur + push);
                            (cur + push).abs() >= eps
                        } else {
                            false
                        }
                    }
                };

                // Descend when all propagations through dst have arrived.
                if before == 1 {
                    if stack.has_room() && !on_stack[dst as usize] {
                        if active[dst as usize] {
                            // It was waiting as a root; expansion covers it.
                            active[dst as usize] = false;
                            active_count -= 1;
                            ctx.write_active(core, actor, dst);
                        }
                        let level = self.expand(ctx, vscu, core, dst, kind, &mut visited);
                        stack.push(level).expect("room checked above");
                        on_stack[dst as usize] = true;
                    } else {
                        // Stack full, or dst is still expanding below: the
                        // last visited vertex becomes a new active root
                        // (§3.3.2) and is expanded later — expansion side
                        // effects (residual application) must wait until
                        // then.
                        if !active[dst as usize] {
                            active[dst as usize] = true;
                            active_count += 1;
                            ctx.write_active(core, actor, dst);
                        }
                        ready.push_back(dst);
                    }
                } else if improved && !active[dst as usize] {
                    // dst received a propagation it must eventually forward
                    // but is not expandable right now — either it still
                    // waits for more inflows (counter > 0; a cycle may mean
                    // they never arrive, resolved by the idle-core
                    // fallback) or it was already expanded and this is a
                    // late improvement needing another wave. Mark it active
                    // so root selection picks it up (§3.3.2, footnotes 3–4).
                    active[dst as usize] = true;
                    active_count += 1;
                    ctx.write_active(core, actor, dst);
                    if topology[dst as usize] == 0 {
                        if self.cfg.defer_reactivations {
                            deferred.push_back(dst);
                        } else {
                            ready.push_back(dst);
                        }
                    }
                }
            }
        }
    }

    /// Expands a vertex: fetches its offsets, resolves its state through
    /// the VSCU, and (accumulative) folds its pending residual into its
    /// state. Re-arms the vertex's out-edges (re-expansions must forward
    /// the fresh value; on first expansion this is a no-op). Returns the
    /// stack level carrying the propagation value.
    fn expand(
        &self,
        ctx: &mut BatchCtx<'_>,
        vscu: &mut Vscu,
        core: usize,
        v: VertexId,
        kind: AlgorithmKind,
        visited: &mut [bool],
    ) -> Level {
        let actor = self.actor();
        let (lo, hi) = ctx.read_offsets(core, actor, v);
        for slot in visited.iter_mut().take(hi).skip(lo) {
            *slot = false;
        }
        let loc = vscu.locate(ctx.machine, core, actor, v);
        let (reg, idx) = Vscu::target(loc, v);
        ctx.machine.access(core, actor, reg, idx, false);
        let carry = match kind {
            AlgorithmKind::Monotonic => ctx.state.states[v as usize],
            AlgorithmKind::Accumulative => {
                let r = ctx.read_residual(core, Actor::Core, v);
                // Same ε gate the software systems use: sub-threshold
                // residuals stay pending rather than being applied (they
                // may still accumulate past ε and re-activate the vertex).
                if r.abs() >= ctx.algo.epsilon() {
                    ctx.write_residual(core, Actor::Core, v, 0.0);
                    ctx.machine.access(core, Actor::Core, reg, idx, true);
                    ctx.machine.compute(core, Actor::Core, Op::StateUpdate, 1);
                    ctx.state.states[v as usize] += r;
                    ctx.note_state_write(v);
                    r
                } else {
                    0.0
                }
            }
        };
        Level { vertex: v, owner: ctx.owner(v), cursor: lo, end: hi, carry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_algos::traits::Algo;
    use tdgraph_engines::testutil::{converges_to_oracle, converges_with_deletions};

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(TdGraph::hardware().name(), "TDGraph-H");
        assert_eq!(TdGraph::software().name(), "TDGraph-S");
        assert_eq!(TdGraph::hardware_without_vscu().name(), "TDGraph-H-without");
        assert_eq!(TdGraph::software_without_vscu().name(), "TDGraph-S-without");
    }

    #[test]
    fn hardware_sssp_converges() {
        converges_to_oracle(&mut TdGraph::hardware(), Algo::sssp(0));
    }

    #[test]
    fn hardware_cc_converges() {
        converges_to_oracle(&mut TdGraph::hardware(), Algo::cc());
    }

    #[test]
    fn hardware_pagerank_converges() {
        converges_to_oracle(&mut TdGraph::hardware(), Algo::pagerank());
    }

    #[test]
    fn hardware_adsorption_converges() {
        converges_to_oracle(&mut TdGraph::hardware(), Algo::adsorption());
    }

    #[test]
    fn hardware_sssp_with_deletions_converges() {
        converges_with_deletions(&mut TdGraph::hardware(), Algo::sssp(0));
    }

    #[test]
    fn software_mode_converges() {
        converges_to_oracle(&mut TdGraph::software(), Algo::sssp(0));
        converges_to_oracle(&mut TdGraph::software(), Algo::pagerank());
    }

    #[test]
    fn without_vscu_converges() {
        converges_to_oracle(&mut TdGraph::hardware_without_vscu(), Algo::sssp(0));
    }

    #[test]
    fn tiny_stack_still_converges_via_reroots() {
        let mut e =
            TdGraph::with_config(TdGraphConfig { stack_depth: 2, ..TdGraphConfig::default() });
        converges_to_oracle(&mut e, Algo::sssp(0));
        converges_to_oracle(&mut e, Algo::cc());
    }
}

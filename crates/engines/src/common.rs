//! Shared propagation kernels of the software engines and the comparator
//! accelerators.
//!
//! [`push`] relaxes or expands one vertex along its out-edges, [`pull`]
//! picks one vertex's best in-neighbor over the transpose, and [`mark`]
//! marks out-neighbors dirty for a later pull. Each is generic over the
//! engine's [`Charges`], so an engine file holds only its schedule, its
//! per-vertex prelude and the charges its mechanism changes.

use tdgraph_algos::traits::AlgorithmKind;
use tdgraph_graph::types::{VertexId, Weight};
use tdgraph_sim::address::Region;
use tdgraph_sim::stats::{Actor, Op, PhaseKind};

use crate::ctx::BatchCtx;

/// A deduplicating frontier (the `Active_Vertices`-backed worklist of the
/// software systems).
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    items: Vec<VertexId>,
    queued: Vec<bool>,
}

impl Frontier {
    /// Creates a frontier for `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { items: Vec::new(), queued: vec![false; n] }
    }

    /// Seeds from a slice.
    #[must_use]
    pub fn seeded(n: usize, seed: &[VertexId]) -> Self {
        let mut f = Self::new(n);
        for &v in seed {
            f.push(v);
        }
        f
    }

    /// Pushes `v` unless already queued. Returns whether it was added.
    pub fn push(&mut self, v: VertexId) -> bool {
        if self.queued[v as usize] {
            false
        } else {
            self.queued[v as usize] = true;
            self.items.push(v);
            true
        }
    }

    /// Pops from the back (LIFO order, used by async engines).
    pub fn pop(&mut self) -> Option<VertexId> {
        let v = self.items.pop()?;
        self.queued[v as usize] = false;
        Some(v)
    }

    /// Takes the whole frontier, clearing it (synchronous rounds).
    pub fn drain_all(&mut self) -> Vec<VertexId> {
        for &v in &self.items {
            self.queued[v as usize] = false;
        }
        std::mem::take(&mut self.items)
    }

    /// Whether the frontier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of queued vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The queued vertices, in insertion order, without draining.
    #[must_use]
    pub fn peek(&self) -> &[VertexId] {
        &self.items
    }

    /// Whether `v` is queued.
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.queued[v as usize]
    }
}

/// What an engine charges the machine around the shared kernels.
///
/// Every default is Ligra-o's charge on the core timeline, so Ligra-o
/// implements it with no method. An engine overrides a method only where
/// its mechanism charges differently: the propagation semantics ([`push`],
/// [`pull`], [`mark`]) are written once, and every engine differs from
/// Ligra-o by exactly its overrides.
pub trait Charges {
    /// Reads `v`'s out-edge range. An engine whose own prefetch already
    /// charged the offset read returns the uncharged
    /// `ctx.graph.neighbor_range(v)`.
    fn offsets(&mut self, ctx: &mut BatchCtx<'_>, core: usize, v: VertexId) -> (usize, usize) {
        ctx.read_offsets(core, Actor::Core, v)
    }

    /// Fetches out-edge `i`.
    fn edge(&mut self, ctx: &mut BatchCtx<'_>, core: usize, i: usize) -> (VertexId, Weight) {
        ctx.read_edge(core, Actor::Core, i)
    }

    /// Runs after a monotonic push improved `dst` and wrote its parent.
    fn relaxed(&mut self, _ctx: &mut BatchCtx<'_>, _core: usize, _dst: VertexId) {}

    /// Runs after accumulative vertex `v` folded its residual into its
    /// state.
    fn folded(&mut self, _ctx: &mut BatchCtx<'_>, _core: usize, _v: VertexId) {}

    /// Whether an accumulative push of `delta` is dropped before it
    /// touches its destination.
    fn skips(&self, _delta: f32) -> bool {
        false
    }

    /// Runs after an accumulative push or a [`mark`] reached `dst`.
    fn delivered(&mut self, _ctx: &mut BatchCtx<'_>, _core: usize, _dst: VertexId) {}

    /// Whether [`pull`] reads in-neighbor `src`'s state. By default every
    /// in-neighbor is consulted, with no extra charge.
    fn gathers(&mut self, _ctx: &mut BatchCtx<'_>, _core: usize, _src: VertexId) -> bool {
        true
    }

    /// Activates `v` for further work: queues it on `next` and charges a
    /// frontier op when it was not queued yet.
    fn activate(&mut self, ctx: &mut BatchCtx<'_>, core: usize, v: VertexId, next: &mut Frontier) {
        if next.push(v) {
            ctx.frontier_op(core, Actor::Core, v);
        }
    }
}

/// The pull charges of a round that consults only the in-neighbors
/// `changed` in the previous round (Ligra-DO's dense rounds, DZiG): the
/// source's active bit is read before its state, and a pulled vertex sets
/// its own active bit instead of a frontier op.
#[derive(Debug, Clone, Copy)]
pub struct ChangedSources<'f> {
    /// The previous round's changed vertices.
    pub changed: &'f Frontier,
}

impl Charges for ChangedSources<'_> {
    fn gathers(&mut self, ctx: &mut BatchCtx<'_>, core: usize, src: VertexId) -> bool {
        ctx.read_active(core, Actor::Core, src);
        self.changed.contains(src)
    }

    fn activate(&mut self, ctx: &mut BatchCtx<'_>, core: usize, v: VertexId, next: &mut Frontier) {
        ctx.write_active(core, Actor::Core, v);
        next.push(v);
    }
}

/// An edge fetch through an accelerator's traversal unit: the structure
/// reads run on the accelerator timeline, the core's update computation is
/// charged on the core (HATS, DepGraph).
pub fn accel_edge(ctx: &mut BatchCtx<'_>, core: usize, i: usize) -> (VertexId, Weight) {
    ctx.machine.access(core, Actor::Accel, Region::NeighborArray, i as u64, false);
    ctx.machine.access(core, Actor::Accel, Region::WeightArray, i as u64, false);
    ctx.note_edges(1);
    ctx.machine.compute(core, Actor::Core, Op::EdgeProcess, 1);
    ctx.graph.edge_at(i)
}

/// Pushes vertex `v` along its out-edges. Monotonic: reads its state and
/// relaxes every out-edge, activating improved destinations. Accumulative:
/// folds its pending residual into its state and pushes scaled residuals
/// to its out-neighbors, activating those that cross the threshold.
pub fn push<C: Charges>(
    ctx: &mut BatchCtx<'_>,
    core: usize,
    v: VertexId,
    c: &mut C,
    next: &mut Frontier,
) {
    let algo = ctx.algo;
    match algo.kind() {
        AlgorithmKind::Monotonic => {
            let s = ctx.read_state(core, Actor::Core, v);
            if !s.is_finite() {
                return;
            }
            let (lo, hi) = c.offsets(ctx, core, v);
            for i in lo..hi {
                let (dst, w) = c.edge(ctx, core, i);
                let cand = algo.mono_propagate(s, w);
                let cur = ctx.read_state(core, Actor::Core, dst);
                if algo.mono_better(cand, cur) {
                    ctx.write_state(core, Actor::Core, dst, cand);
                    ctx.write_parent(core, Actor::Core, dst, v);
                    c.relaxed(ctx, core, dst);
                    c.activate(ctx, core, dst, next);
                }
            }
        }
        AlgorithmKind::Accumulative => {
            let eps = algo.epsilon();
            let r = ctx.read_residual(core, Actor::Core, v);
            if r.abs() < eps {
                return;
            }
            ctx.write_residual(core, Actor::Core, v, 0.0);
            let s = ctx.read_state(core, Actor::Core, v);
            ctx.write_state(core, Actor::Core, v, s + r);
            c.folded(ctx, core, v);
            let mass = ctx.out_mass[v as usize];
            if mass <= 0.0 {
                return;
            }
            let (lo, hi) = c.offsets(ctx, core, v);
            for i in lo..hi {
                let (dst, w) = c.edge(ctx, core, i);
                let delta = algo.acc_scale(r, w, mass);
                if c.skips(delta) {
                    continue;
                }
                let cur = ctx.read_residual(core, Actor::Core, dst);
                ctx.write_residual(core, Actor::Core, dst, cur + delta);
                c.delivered(ctx, core, dst);
                if (cur + delta).abs() >= eps {
                    c.activate(ctx, core, dst, next);
                }
            }
        }
    }
}

/// Pulls monotonic vertex `d`: scans its in-edges over the transpose,
/// reads the state of every in-neighbor the charges let it gather from,
/// and adopts the best candidate (with its parent) if it improves `d`,
/// activating `d`.
pub fn pull<C: Charges>(
    ctx: &mut BatchCtx<'_>,
    core: usize,
    d: VertexId,
    c: &mut C,
    next: &mut Frontier,
) {
    debug_assert_eq!(ctx.algo.kind(), AlgorithmKind::Monotonic);
    let algo = ctx.algo;
    let mut best = ctx.read_state(core, Actor::Core, d);
    let mut best_parent = None;
    let (lo, hi) = ctx.read_offsets_in(core, Actor::Core, d);
    for i in lo..hi {
        let (src, w) = ctx.read_edge_in(core, Actor::Core, i);
        if !c.gathers(ctx, core, src) {
            continue;
        }
        let s = ctx.read_state(core, Actor::Core, src);
        if !s.is_finite() {
            continue;
        }
        let cand = algo.mono_propagate(s, w);
        if algo.mono_better(cand, best) {
            best = cand;
            best_parent = Some(src);
        }
    }
    if let Some(p) = best_parent {
        ctx.write_state(core, Actor::Core, d, best);
        ctx.write_parent(core, Actor::Core, d, p);
        c.activate(ctx, core, d, next);
    }
}

/// Marks `v`'s out-neighbors dirty without reading any state: the first
/// half of a dependency-driven pull round (DZiG, GraphBolt).
pub fn mark<C: Charges>(
    ctx: &mut BatchCtx<'_>,
    core: usize,
    v: VertexId,
    c: &mut C,
    dirty: &mut Frontier,
) {
    let (lo, hi) = c.offsets(ctx, core, v);
    for i in lo..hi {
        let (dst, _) = c.edge(ctx, core, i);
        c.delivered(ctx, core, dst);
        c.activate(ctx, core, dst, dirty);
    }
}

/// Runs synchronous rounds from `affected` until no vertex is active:
/// `round` turns the current frontier into the next one, and every round
/// ends a propagation phase.
pub fn sync_rounds(
    ctx: &mut BatchCtx<'_>,
    affected: &[VertexId],
    mut round: impl FnMut(&mut BatchCtx<'_>, &Frontier, &mut Frontier),
) {
    let n = ctx.graph.vertex_count();
    let mut frontier = Frontier::seeded(n, affected);
    while !frontier.is_empty() {
        let mut next = Frontier::new(n);
        round(ctx, &frontier, &mut next);
        ctx.machine.end_phase(PhaseKind::Propagation);
        frontier = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_dedups() {
        let mut f = Frontier::new(4);
        assert!(f.push(2));
        assert!(!f.push(2));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop(), Some(2));
        assert!(f.push(2), "pop must clear the queued mark");
    }

    #[test]
    fn drain_all_clears_marks() {
        let mut f = Frontier::seeded(4, &[0, 3]);
        let drained = f.drain_all();
        assert_eq!(drained, vec![0, 3]);
        assert!(f.is_empty());
        assert!(f.push(0));
    }
}

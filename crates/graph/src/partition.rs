//! Vertex-range chunking for parallel processing over the simulated cores.
//!
//! The software layer divides the graph into chunks — contiguous vertex
//! ranges — and assigns them to cores (§3.2.1). Chunks are balanced by edge
//! count, and a deterministic work-stealing schedule models the
//! load-balancing strategy the paper cites (Blumofe & Leiserson).

use crate::csr::Csr;
use crate::types::VertexId;

/// A contiguous vertex range `[start, end)` with its edge weight (count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First vertex in the chunk.
    pub start: VertexId,
    /// One past the last vertex.
    pub end: VertexId,
    /// Number of out-edges owned by the chunk.
    pub edges: usize,
}

impl Chunk {
    /// Number of vertices in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the chunk contains no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether vertex `v` belongs to this chunk.
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        (self.start..self.end).contains(&v)
    }

    /// Iterates the chunk's vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        self.start..self.end
    }
}

/// Splits the graph into `target_chunks` contiguous chunks with roughly
/// equal edge counts. Returns fewer chunks when the graph is small, a
/// single chunk when `target_chunks == 0` (clamped to 1), and no chunks
/// for an empty graph.
#[must_use]
pub fn partition_by_edges(graph: &Csr, target_chunks: usize) -> Vec<Chunk> {
    let target_chunks = target_chunks.max(1);
    let n = graph.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let total_edges = graph.edge_count();
    let per_chunk = (total_edges / target_chunks).max(1);
    let mut chunks = Vec::with_capacity(target_chunks);
    let mut start = 0 as VertexId;
    let mut acc = 0usize;
    for v in 0..n as VertexId {
        acc += graph.degree(v);
        let is_last_vertex = v as usize + 1 == n;
        if (acc >= per_chunk && chunks.len() + 1 < target_chunks) || is_last_vertex {
            chunks.push(Chunk { start, end: v + 1, edges: acc });
            start = v + 1;
            acc = 0;
        }
    }
    chunks
}

/// Finds the chunk that owns vertex `v` (chunks are sorted by range).
#[must_use]
pub fn owner_of(chunks: &[Chunk], v: VertexId) -> Option<usize> {
    chunks
        .binary_search_by(|c| {
            if v < c.start {
                std::cmp::Ordering::Greater
            } else if v >= c.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        })
        .ok()
}

/// Deterministic work-stealing schedule: chunks are dealt round-robin to
/// `cores` queues; when the per-chunk costs are known, `balance` reassigns
/// greedily (longest-processing-time-first), which is how the simulator
/// models the steady state of a work-stealing runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    assignments: Vec<Vec<usize>>,
}

impl Schedule {
    /// Deals `chunk_count` chunk indexes round-robin over `cores` queues.
    /// With `cores == 0` the schedule is empty; it can only carry zero
    /// chunks, so `chunk_count` must also be zero in that case.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` while `chunk_count > 0` (the chunks would
    /// silently vanish).
    #[must_use]
    pub fn round_robin(chunk_count: usize, cores: usize) -> Self {
        if cores == 0 {
            assert!(chunk_count == 0, "cannot deal {chunk_count} chunks over zero cores");
            return Self { assignments: Vec::new() };
        }
        let mut assignments = vec![Vec::new(); cores];
        for c in 0..chunk_count {
            assignments[c % cores].push(c);
        }
        Self { assignments }
    }

    /// Builds a balanced schedule from per-chunk costs using LPT greedy
    /// assignment — the deterministic equivalent of work stealing's
    /// outcome. More cores than chunks leaves the surplus cores with empty
    /// queues; with `cores == 0` the cost list must be empty.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` while `costs` is non-empty.
    #[must_use]
    pub fn balance(costs: &[u64], cores: usize) -> Self {
        if cores == 0 {
            assert!(costs.is_empty(), "cannot balance {} chunks over zero cores", costs.len());
            return Self { assignments: Vec::new() };
        }
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
        let mut load = vec![0u64; cores];
        let mut assignments = vec![Vec::new(); cores];
        for i in order {
            // `cores > 0` is asserted above, so the range is never empty.
            let core = (0..cores).min_by_key(|&c| (load[c], c)).unwrap_or(0);
            load[core] += costs[i];
            assignments[core].push(i);
        }
        Self { assignments }
    }

    /// The chunk indexes queued on `core`.
    #[must_use]
    pub fn chunks_for(&self, core: usize) -> &[usize] {
        &self.assignments[core]
    }

    /// Number of cores in the schedule.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.assignments.len()
    }

    /// Makespan under the given per-chunk costs (max summed load per core).
    #[must_use]
    pub fn makespan(&self, costs: &[u64]) -> u64 {
        self.assignments.iter().map(|q| q.iter().map(|&c| costs[c]).sum()).max().unwrap_or(0)
    }
}

/// Static assignment of simulated cores to host-side replay shards.
///
/// A sharded run splits the machine's private-cache replay across host
/// worker threads; each shard owns a fixed set of cores for the whole run
/// (the per-core cache state lives with the shard). The plan is advisory
/// load balancing only — results are byte-identical under any plan, so a
/// skewed plan costs wall-clock, never correctness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `shards[s]` = the core ids owned by shard `s`, each sorted ascending.
    shards: Vec<Vec<usize>>,
    /// Number of cores the shards cover.
    cores: usize,
}

impl ShardPlan {
    /// Deals `cores` round-robin over `shards` worker slots. `shards` is
    /// clamped to at least 1; surplus shards (more shards than cores) stay
    /// empty.
    #[must_use]
    pub fn uniform(cores: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let sched = Schedule::round_robin(cores, shards);
        Self::from_schedule(&sched, cores)
    }

    /// Balances cores over `shards` worker slots by their chunk edge
    /// weights: core `c` owns every chunk with `chunk_id % cores == c`
    /// (the dealing used by the batch context), its cost is the summed
    /// edge count of those chunks, and the shards are filled LPT-greedily
    /// ([`Schedule::balance`]). Degenerate inputs (no chunks, an empty
    /// graph, more shards than cores) all yield a valid plan.
    #[must_use]
    pub fn balanced(chunks: &[Chunk], cores: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut costs = vec![0u64; cores];
        for (i, chunk) in chunks.iter().enumerate() {
            if cores > 0 {
                costs[i % cores] += chunk.edges as u64;
            }
        }
        let sched = Schedule::balance(&costs, shards);
        Self::from_schedule(&sched, cores)
    }

    fn from_schedule(sched: &Schedule, cores: usize) -> Self {
        let mut shards: Vec<Vec<usize>> =
            (0..sched.cores()).map(|s| sched.chunks_for(s).to_vec()).collect();
        for shard in &mut shards {
            shard.sort_unstable();
        }
        Self { shards, cores }
    }

    /// Number of shards (≥ 1).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of cores covered by the plan.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The cores owned by shard `s`, sorted ascending.
    #[must_use]
    pub fn cores_for(&self, s: usize) -> &[usize] {
        &self.shards[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn star(n: usize) -> Csr {
        // Vertex 0 points to everyone: extremely unbalanced degrees.
        let edges: Vec<Edge> = (1..n as VertexId).map(|v| Edge::new(0, v, 1.0)).collect();
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn chunks_cover_all_vertices_exactly_once() {
        let g = star(100);
        let chunks = partition_by_edges(&g, 8);
        let mut covered = [false; 100];
        for c in &chunks {
            for v in c.vertices() {
                assert!(!covered[v as usize], "vertex {v} in two chunks");
                covered[v as usize] = true;
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn chunk_edges_sum_to_graph_edges() {
        let g = star(64);
        let chunks = partition_by_edges(&g, 4);
        let sum: usize = chunks.iter().map(|c| c.edges).sum();
        assert_eq!(sum, g.edge_count());
    }

    #[test]
    fn owner_of_finds_the_right_chunk() {
        let g = star(100);
        let chunks = partition_by_edges(&g, 8);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(owner_of(&chunks, c.start), Some(i));
            assert_eq!(owner_of(&chunks, c.end - 1), Some(i));
        }
        assert_eq!(owner_of(&chunks, 100), None);
    }

    #[test]
    fn empty_graph_partitions_to_nothing() {
        let g = Csr::from_edges(0, &[]);
        assert!(partition_by_edges(&g, 4).is_empty());
    }

    #[test]
    fn round_robin_deals_evenly() {
        let s = Schedule::round_robin(10, 4);
        assert_eq!(s.chunks_for(0), &[0, 4, 8]);
        assert_eq!(s.chunks_for(1), &[1, 5, 9]);
        assert_eq!(s.chunks_for(3), &[3, 7]);
    }

    #[test]
    fn balance_beats_round_robin_on_skewed_costs() {
        let costs = vec![100, 1, 1, 1, 1, 1, 1, 1];
        let rr = Schedule::round_robin(costs.len(), 4);
        let bal = Schedule::balance(&costs, 4);
        assert!(bal.makespan(&costs) <= rr.makespan(&costs));
        assert_eq!(bal.makespan(&costs), 100);
    }

    #[test]
    fn balance_assigns_every_chunk_once() {
        let costs = vec![5, 3, 8, 1, 9, 2];
        let s = Schedule::balance(&costs, 3);
        let mut all: Vec<usize> = (0..s.cores()).flat_map(|c| s.chunks_for(c).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_target_chunks_clamps_to_one() {
        let g = star(32);
        let chunks = partition_by_edges(&g, 0);
        assert_eq!(chunks.len(), 1);
        assert_eq!((chunks[0].start, chunks[0].end), (0, 32));
        assert_eq!(chunks[0].edges, g.edge_count());
    }

    #[test]
    fn more_chunks_than_vertices_still_covers() {
        let g = star(3);
        let chunks = partition_by_edges(&g, 16);
        assert!(chunks.len() <= 3);
        let total: usize = chunks.iter().map(Chunk::len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn zero_cores_with_no_chunks_is_an_empty_schedule() {
        assert_eq!(Schedule::round_robin(0, 0).cores(), 0);
        let s = Schedule::balance(&[], 0);
        assert_eq!(s.cores(), 0);
        assert_eq!(s.makespan(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "zero cores")]
    fn zero_cores_with_chunks_panics() {
        let _ = Schedule::round_robin(4, 0);
    }

    #[test]
    fn balance_with_more_cores_than_chunks_leaves_empty_queues() {
        let s = Schedule::balance(&[10, 20], 5);
        assert_eq!(s.cores(), 5);
        let assigned: usize = (0..5).map(|c| s.chunks_for(c).len()).sum();
        assert_eq!(assigned, 2);
        assert_eq!(s.makespan(&[10, 20]), 20);
    }

    #[test]
    fn shard_plan_covers_every_core_exactly_once() {
        let g = star(100);
        let chunks = partition_by_edges(&g, 16);
        let plan = ShardPlan::balanced(&chunks, 4, 3);
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.cores(), 4);
        let mut all: Vec<usize> =
            (0..plan.shards()).flat_map(|s| plan.cores_for(s).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shard_plan_degenerate_inputs() {
        // No chunks (empty graph): every core still lands on some shard.
        let plan = ShardPlan::balanced(&[], 4, 2);
        let owned: usize = (0..plan.shards()).map(|s| plan.cores_for(s).len()).sum();
        assert_eq!(owned, 4);
        // More shards than cores: surplus shards are empty but valid.
        let plan = ShardPlan::uniform(2, 8);
        assert_eq!(plan.shards(), 8);
        assert_eq!((0..8).map(|s| plan.cores_for(s).len()).sum::<usize>(), 2);
        // Zero requested shards clamps to one.
        let plan = ShardPlan::uniform(3, 0);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.cores_for(0), &[0, 1, 2]);
    }

    #[test]
    fn shard_plan_balances_skewed_core_loads() {
        // Star graph: chunk 0 (vertex 0) holds nearly every edge, so core 0
        // is heavy. The heavy core must sit alone-ish: makespan well under
        // a naive half-half split is not guaranteed, but the heavy core's
        // shard must not also get every other core.
        let g = star(64);
        let chunks = partition_by_edges(&g, 8);
        let plan = ShardPlan::balanced(&chunks, 8, 2);
        let heavy = (0..plan.shards()).find(|&s| plan.cores_for(s).contains(&0)).unwrap();
        assert!(plan.cores_for(heavy).len() < 8, "heavy core must not absorb all cores");
    }
}

//! Vertex-range chunking for parallel processing over the simulated cores.
//!
//! The software layer divides the graph into chunks — contiguous vertex
//! ranges — and assigns them to cores (§3.2.1). Chunks are balanced by edge
//! count and dealt round-robin: the simulator runs chunk `c` on core
//! `c % cores` (`BatchCtx::owner` in the engines crate). The paper cites
//! work stealing (Blumofe & Leiserson) for load balancing; the model does
//! not steal. [`ShardPlan`] groups the simulated cores into host replay
//! shards, which changes wall-clock only.

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
    /// Deals `cores` round-robin over `shards` worker slots: shard `s`
    /// owns cores `s`, `s + shards`, …. `shards` is clamped to at least 1;
    /// surplus shards (more shards than cores) stay empty.
    #[must_use]
    pub fn uniform(cores: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self { shards: (0..shards).map(|s| (s..cores).step_by(shards).collect()).collect(), cores }
    }

    /// Balances cores over `shards` worker slots by their chunk edge
    /// weights: core `c` owns every chunk with `chunk_id % cores == c`
    /// (the dealing used by the batch context), its cost is the summed
    /// edge count of those chunks, and the shards are filled greedily,
    /// longest processing time first: each core, heaviest first, goes to
    /// the least-loaded shard (ties go to the lower id). Degenerate inputs
    /// (no chunks, an empty graph, more shards than cores) all yield a
    /// valid plan.
    #[must_use]
    pub fn balanced(chunks: &[Chunk], cores: usize, shards: usize) -> Self {
        let mut costs = vec![0u64; cores];
        if cores > 0 {
            for (i, chunk) in chunks.iter().enumerate() {
                costs[i % cores] += chunk.edges as u64;
            }
        }
        let mut order: Vec<usize> = (0..cores).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(costs[c]));
        let mut load = vec![0u64; shards.max(1)];
        let mut plan = vec![Vec::new(); shards.max(1)];
        for core in order {
            let shard = (0..load.len()).min_by_key(|&s| (load[s], s)).unwrap_or(0);
            load[shard] += costs[core];
            plan[shard].push(core);
        }
        for shard in &mut plan {
            shard.sort_unstable();
        }
        Self { shards: plan, cores }
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

    /// One single-vertex chunk per entry, with that many edges: with as
    /// many cores as chunks, core `c`'s cost is `edges[c]`.
    fn chunks_with_edges(edges: &[usize]) -> Vec<Chunk> {
        (0..edges.len() as VertexId)
            .map(|v| Chunk { start: v, end: v + 1, edges: edges[v as usize] })
            .collect()
    }

    /// The largest summed cost of one shard's cores.
    fn makespan(plan: &ShardPlan, costs: &[usize]) -> usize {
        (0..plan.shards())
            .map(|s| plan.cores_for(s).iter().map(|&c| costs[c]).sum())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn round_robin_deals_evenly() {
        let plan = ShardPlan::uniform(10, 4);
        assert_eq!(plan.cores_for(0), &[0, 4, 8]);
        assert_eq!(plan.cores_for(1), &[1, 5, 9]);
        assert_eq!(plan.cores_for(3), &[3, 7]);
    }

    #[test]
    fn balance_beats_round_robin_on_skewed_costs() {
        let costs = [100, 1, 1, 1, 1, 1, 1, 1];
        let chunks = chunks_with_edges(&costs);
        let rr = ShardPlan::uniform(costs.len(), 4);
        let bal = ShardPlan::balanced(&chunks, costs.len(), 4);
        assert!(makespan(&bal, &costs) <= makespan(&rr, &costs));
        assert_eq!(makespan(&bal, &costs), 100);
        // Longest first: the heavy core sits alone, and each light core goes
        // to the least-loaded shard, the lower id on a tie.
        assert_eq!(bal.cores_for(0), &[0]);
        assert_eq!(bal.cores_for(1), &[1, 4, 7]);
        assert_eq!(bal.cores_for(2), &[2, 5]);
        assert_eq!(bal.cores_for(3), &[3, 6]);
    }

    #[test]
    fn balance_assigns_every_chunk_once() {
        let costs = [5, 3, 8, 1, 9, 2];
        let plan = ShardPlan::balanced(&chunks_with_edges(&costs), costs.len(), 3);
        let mut all: Vec<usize> =
            (0..plan.shards()).flat_map(|s| plan.cores_for(s).to_vec()).collect();
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
        for plan in [ShardPlan::uniform(0, 2), ShardPlan::balanced(&[], 0, 2)] {
            assert_eq!((plan.cores(), plan.shards()), (0, 2));
            assert_eq!(makespan(&plan, &[]), 0);
        }
    }

    #[test]
    fn balance_with_more_cores_than_chunks_leaves_empty_queues() {
        let plan = ShardPlan::balanced(&chunks_with_edges(&[10, 20]), 2, 5);
        assert_eq!(plan.shards(), 5);
        let assigned: usize = (0..5).map(|s| plan.cores_for(s).len()).sum();
        assert_eq!(assigned, 2);
        assert_eq!(makespan(&plan, &[10, 20]), 20);
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
        // Chunks over zero cores have no core to land on: every shard is
        // empty, and nothing panics.
        let plan = ShardPlan::balanced(&chunks_with_edges(&[3, 4]), 0, 2);
        assert_eq!((plan.cores(), plan.cores_for(0), plan.cores_for(1)), (0, &[][..], &[][..]));
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

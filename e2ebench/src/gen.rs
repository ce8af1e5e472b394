//! Seeded input generation. Everything here runs before any clock
//! starts: edge-list files, composed update batches, and the churn
//! stream the `serve` workload sends as wire lines.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

use tdgraph::graph::prng::Xoshiro256StarStar;
use tdgraph::prelude::{
    save_edge_list, BatchComposer, Dataset, Edge, EdgeUpdate, Sizing, StreamingGraph,
    StreamingWorkload,
};

/// Derives an independent stream seed from the workload seed
/// (splitmix64 finalizer over `seed + salt`).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes the Friendster-profile graph at `sizing` as a SNAP edge list
/// under `dir`, its lines in an order shuffled by `seed`. The graph itself
/// is the profile's, so every seed loads the same amount of work; the
/// seed decides the file's line order and, through the callers' derived
/// seeds, which half is preloaded and which updates stream. Written during
/// generation, so the file sits in the page cache the way a user's freshly
/// written file would.
pub fn write_friendster(dir: &Path, sizing: Sizing, seed: u64) -> io::Result<PathBuf> {
    let mut edges = Dataset::Friendster.profile(sizing).edges();
    Xoshiro256StarStar::new(mix(seed, 1)).shuffle(&mut edges);
    let path = dir.join(format!("friendster-{sizing:?}-{seed}.edges").to_lowercase());
    save_edge_list(&path, &edges)?;
    Ok(path)
}

/// Composes `count` batches of `batch_size` updates over `workload` with
/// the harness's own [`BatchComposer`], applying each to a mirror of the
/// graph so the next batch samples deletions from the edges then present.
/// A session fed these batches in order sees exactly the mirror's states,
/// so every deletion names a present edge.
pub fn compose_batches(
    workload: &StreamingWorkload,
    batch_size: usize,
    count: usize,
    add_fraction: f64,
    seed: u64,
) -> Result<Vec<Vec<EdgeUpdate>>, String> {
    let mut mirror = workload.graph.clone();
    let mut composer = BatchComposer::new(workload.pending.clone(), add_fraction, seed);
    let mut batches = Vec::with_capacity(count);
    for i in 0..count {
        let present = mirror.edges_vec();
        let batch = composer
            .next_batch(batch_size, &present)
            .ok_or_else(|| format!("update stream exhausted after {i} of {count} batches"))?;
        mirror
            .apply_batch(&batch)
            .map_err(|e| format!("composed batch {i} does not apply: {e}"))?;
        batches.push(batch.updates().to_vec());
    }
    Ok(batches)
}

/// Edges drawn without replacement in O(1): a vector plus swap-remove.
#[derive(Debug, Default)]
struct Pool {
    edges: Vec<Edge>,
}

impl Pool {
    fn take(&mut self, rng: &mut Xoshiro256StarStar) -> Option<Edge> {
        (!self.edges.is_empty()).then(|| self.edges.swap_remove(rng.next_index(self.edges.len())))
    }
}

/// A churn stream that tracks its target graph: each batch deletes
/// present edges and re-adds the edges the previous batch deleted (the
/// first batch adds from the workload's pending pool), half and half, and
/// touches no edge twice in one batch. Every update is therefore valid
/// against the graph the batches have produced so far — nothing is
/// quarantined — and the graph stays within one batch of where it
/// started, so the cost of a batch does not depend on how many batches
/// came before it.
#[derive(Debug)]
pub struct Churn {
    present: Pool,
    pending: Pool,
    deleted: Vec<Edge>,
    rng: Xoshiro256StarStar,
}

impl Churn {
    /// A stream over `graph`, adding from `pool` first (edges already
    /// present, self-loops and duplicates are dropped from it).
    pub fn new(graph: &StreamingGraph, pool: &[Edge], seed: u64) -> Self {
        let present = graph.edges_vec();
        let mut seen: HashSet<(u32, u32)> = present.iter().map(|e| (e.src, e.dst)).collect();
        let pending = pool
            .iter()
            .filter(|e| e.src != e.dst && e.weight.is_finite() && seen.insert((e.src, e.dst)))
            .copied()
            .collect();
        Self {
            present: Pool { edges: present },
            pending: Pool { edges: pending },
            deleted: Vec::new(),
            rng: Xoshiro256StarStar::new(seed),
        }
    }

    /// The next batch of up to `size` updates (fewer only when a pool runs
    /// dry).
    pub fn next_batch(&mut self, size: usize) -> Vec<EdgeUpdate> {
        let mut added = std::mem::take(&mut self.deleted);
        while added.len() < size - size / 2 {
            let Some(e) = self.pending.take(&mut self.rng) else { break };
            added.push(e);
        }
        let mut updates = Vec::with_capacity(size);
        for i in 0..size {
            if i % 2 == 0 {
                if let Some(e) = added.get(i / 2) {
                    updates.push(EdgeUpdate::addition(e.src, e.dst, e.weight));
                }
            } else if let Some(e) = self.present.take(&mut self.rng) {
                updates.push(EdgeUpdate::deletion(e.src, e.dst));
                self.deleted.push(e);
            }
        }
        // Only now do the added edges count as present, so no pair is
        // touched twice within a batch.
        self.present.edges.extend(added);
        updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph::graph::update::UpdateKind;
    use tdgraph::prelude::{QuarantineReport, UpdateBatch};

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 1), mix(1, 2));
        assert_ne!(mix(1, 1), mix(2, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }

    #[test]
    fn churn_never_quarantines_over_many_seeds() {
        let workload = StreamingWorkload::prepare(Dataset::Amazon, Sizing::Tiny);
        for seed in 0..64 {
            let mut graph = workload.graph.clone();
            let mut churn = Churn::new(&graph, &workload.pending, seed);
            let edges_before = graph.edge_count();
            for _ in 0..12 {
                let updates = churn.next_batch(300);
                assert_eq!(updates.len(), 300, "seed {seed}: pools ran dry");
                let mut quarantine = QuarantineReport::new();
                let batch = UpdateBatch::from_updates_lenient(updates.clone(), &mut quarantine);
                assert_eq!(batch.len(), updates.len(), "seed {seed}: duplicate in a batch");
                graph.apply_batch_lenient(&batch, &mut quarantine);
                assert!(quarantine.is_empty(), "seed {seed}: {quarantine:?}");
            }
            assert_eq!(graph.edge_count(), edges_before, "half deletes, half adds");
        }
    }

    #[test]
    fn churn_re_adds_what_the_previous_batch_deleted() {
        let workload = StreamingWorkload::prepare(Dataset::Amazon, Sizing::Tiny);
        let mut churn = Churn::new(&workload.graph, &workload.pending, 3);
        let mut previous: Vec<(u32, u32)> = Vec::new();
        for size in [7, 8, 9, 300, 301] {
            let updates = churn.next_batch(size);
            assert_eq!(updates.len(), size);
            let deletions: Vec<(u32, u32)> = updates
                .iter()
                .filter(|u| u.kind == UpdateKind::Deletion)
                .map(|u| (u.src, u.dst))
                .collect();
            let additions: Vec<(u32, u32)> = updates
                .iter()
                .filter(|u| u.kind != UpdateKind::Deletion)
                .map(|u| (u.src, u.dst))
                .collect();
            assert_eq!(deletions.len(), size / 2);
            assert!(previous.iter().all(|e| additions.contains(e)), "size {size}");
            previous = deletions;
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let workload = StreamingWorkload::prepare(Dataset::Amazon, Sizing::Tiny);
        let mut a = Churn::new(&workload.graph, &workload.pending, 9);
        let mut b = Churn::new(&workload.graph, &workload.pending, 9);
        assert_eq!(a.next_batch(50), b.next_batch(50));
        let x = compose_batches(&workload, 40, 3, 0.75, 5).unwrap();
        assert_eq!(x, compose_batches(&workload, 40, 3, 0.75, 5).unwrap());
        assert_ne!(x, compose_batches(&workload, 40, 3, 0.75, 6).unwrap());
    }

    #[test]
    fn composed_batches_apply_strictly_in_order() {
        let workload = StreamingWorkload::prepare(Dataset::Amazon, Sizing::Tiny);
        let batches = compose_batches(&workload, 64, 20, 0.75, 11).unwrap();
        let mut graph = workload.graph.clone();
        for updates in batches {
            let batch = UpdateBatch::from_updates(updates).unwrap();
            graph.apply_batch(&batch).unwrap();
        }
    }

    #[test]
    fn friendster_file_depends_on_the_seed() {
        let dir = std::env::temp_dir().join(format!("e2ebench-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = std::fs::read(write_friendster(&dir, Sizing::Tiny, 1).unwrap()).unwrap();
        let b = std::fs::read(write_friendster(&dir, Sizing::Tiny, 2).unwrap()).unwrap();
        let a2 = std::fs::read(write_friendster(&dir, Sizing::Tiny, 1).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }
}

//! Per-thread sharded recording with deterministic merging.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use crate::recorder::Recorder;
use crate::snapshot::{MemoryRecorder, Snapshot};
use crate::TraceEvent;

/// A recorder shared across worker threads without hot-path locking.
///
/// Each unit of parallel work (a sweep cell, a worker) takes its own
/// [`ShardRecorder`] keyed by a stable `u64` — typically the cell index.
/// The shard accumulates into a private [`MemoryRecorder`] with no
/// synchronization at all; the shared map is locked exactly once, when the
/// shard is finished (or dropped).
///
/// Merging walks shards in key order and snapshot contents in key order,
/// so the merged [`Snapshot`] — and any rendering of it — is byte-identical
/// no matter how many threads produced the shards or in what order they
/// finished. This is the property the sweep determinism tests pin down.
#[derive(Debug, Default)]
pub struct ShardedRecorder {
    shards: Mutex<BTreeMap<u64, Snapshot>>,
}

impl ShardedRecorder {
    /// An empty sharded recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the shard for `key`. Dropping the returned recorder (or
    /// calling [`ShardRecorder::finish`]) folds its snapshot into this
    /// recorder; recording itself never locks.
    #[must_use]
    pub fn shard(&self, key: u64) -> ShardRecorder<'_> {
        ShardRecorder { parent: self, key, inner: Some(MemoryRecorder::new()) }
    }

    /// Folds a ready-made snapshot into the shard for `key` (restored
    /// checkpoint cells use this — they have a snapshot but never ran).
    pub fn absorb(&self, key: u64, snapshot: Snapshot) {
        let mut shards = self.shards.lock().unwrap_or_else(PoisonError::into_inner);
        shards.entry(key).or_default().merge_from(&snapshot);
    }

    /// Number of shards recorded so far.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// The snapshot for one shard, if it recorded anything.
    #[must_use]
    pub fn shard_snapshot(&self, key: u64) -> Option<Snapshot> {
        let shards = self.shards.lock().unwrap_or_else(PoisonError::into_inner);
        shards.get(&key).cloned()
    }

    /// Merges every shard, in key order, into one snapshot.
    #[must_use]
    pub fn merged(&self) -> Snapshot {
        let shards = self.shards.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Snapshot::new();
        for snapshot in shards.values() {
            out.merge_from(snapshot);
        }
        out
    }
}

/// One shard of a [`ShardedRecorder`]: a private, lock-free recorder whose
/// contents fold into the parent when finished or dropped.
#[derive(Debug)]
pub struct ShardRecorder<'p> {
    parent: &'p ShardedRecorder,
    key: u64,
    inner: Option<MemoryRecorder>,
}

impl ShardRecorder<'_> {
    /// The shard key.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Folds the shard into the parent now (instead of at drop).
    pub fn finish(mut self) {
        self.fold();
    }

    fn fold(&mut self) {
        if let Some(inner) = self.inner.take() {
            self.parent.absorb(self.key, inner.into_snapshot());
        }
    }
}

impl Drop for ShardRecorder<'_> {
    fn drop(&mut self) {
        self.fold();
    }
}

impl Recorder for ShardRecorder<'_> {
    fn counter(&mut self, key: &'static str, delta: u64) {
        if let Some(inner) = &mut self.inner {
            inner.counter(key, delta);
        }
    }

    fn gauge(&mut self, key: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.gauge(key, value);
        }
    }

    fn label(&mut self, key: &'static str, value: &str) {
        if let Some(inner) = &mut self.inner {
            inner.label(key, value);
        }
    }

    fn span_enter(&mut self, phase: &'static str) {
        if let Some(inner) = &mut self.inner {
            inner.span_enter(phase);
        }
    }

    fn span_exit(&mut self, phase: &'static str, cycles: u64) {
        if let Some(inner) = &mut self.inner {
            inner.span_exit(phase, cycles);
        }
    }

    fn histogram(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.histogram(key, value);
        }
    }

    fn event(&mut self, event: &TraceEvent) {
        if let Some(inner) = &mut self.inner {
            inner.event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_fold_on_drop() {
        let sharded = ShardedRecorder::new();
        {
            let mut shard = sharded.shard(0);
            shard.counter("k", 5);
        }
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.merged().counter("k"), 5);
    }

    #[test]
    fn merge_order_is_key_order_not_completion_order() {
        let run = |keys: &[u64]| {
            let sharded = ShardedRecorder::new();
            for &k in keys {
                let mut shard = sharded.shard(k);
                shard.counter("cells", 1);
                shard.histogram("cycles", 100 * (k + 1));
                shard.finish();
            }
            sharded.merged().canonical_json_line()
        };
        assert_eq!(run(&[0, 1, 2, 3]), run(&[3, 1, 0, 2]));
    }

    #[test]
    fn parallel_shards_merge_deterministically() {
        let run = |threads: usize| {
            let sharded = ShardedRecorder::new();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let sharded = &sharded;
                    scope.spawn(move || {
                        for key in (t as u64..8).step_by(threads) {
                            let mut shard = sharded.shard(key);
                            shard.counter("work", key + 1);
                            shard.span_exit("p", 10 * key);
                        }
                    });
                }
            });
            sharded.merged()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four);
        assert_eq!(one.canonical_json_line(), four.canonical_json_line());
        assert_eq!(one.counter("work"), (1..=8).sum::<u64>());
    }

    #[test]
    fn absorb_merges_into_existing_shard() {
        let sharded = ShardedRecorder::new();
        let mut snap = Snapshot::new();
        snap.add_counter("k", 3);
        sharded.absorb(7, snap.clone());
        sharded.absorb(7, snap);
        assert_eq!(sharded.shard_snapshot(7).unwrap().counter("k"), 6);
        assert!(sharded.shard_snapshot(8).is_none());
    }
}

//! The cache hierarchy's rules, written once for both schedulers.
//!
//! Three parts make up the memory system behind [`crate::Machine`]:
//!
//! * [`PrivateLevel`] — one core's L1 and L2: the walk order (L1, then L2,
//!   then a NoC round trip to the line's LLC bank), the latency summed on
//!   the way, and the probe a remote write's invalidation makes.
//! * [`SharedLevel`] — the banked LLC, its line → word-mask index, the
//!   DRAM model, and the phase times the DRAM bandwidth envelope decides.
//! * [`Directory`] — one sharer mask per line; decides which cores a write
//!   invalidates.
//!
//! The serial walk in `Machine::access` calls all three inline. The
//! sharded pipeline (`crate::exec`) drives the same code from other
//! threads: the recording thread keeps the directory, the replay shards
//! own the private levels, and the reducer owns the shared level; each
//! hands its levels back whole when the run finishes. A level counts what
//! it decides into the [`MachineStats`] its scheduler hands it, so the
//! schedulers differ in the order they drive the levels, never in a rule.
//!
//! The walk does no hardware division: a cache's set index, the mesh's
//! bank hash and tile coordinates, and the accelerator's latency share
//! divide by constants fixed at construction (`crate::divisor`), and the
//! directory holds one slot for every line of the address space, indexed
//! by the line itself.
//!
//! DESIGN.md §2 states the contract the model keeps: write-allocate at
//! every level, DRAM writes only through LLC evictions and the end-of-run
//! flush (one path, [`SharedLevel::retire`]), a non-inclusive LLC, a
//! sharer-superset directory, invalidation on write, and word usage kept
//! only while a line is in the LLC. Dirty L1/L2 victims are dropped, and
//! so is a dirty private copy a remote write invalidates: a known defect
//! that undercounts DRAM write traffic, kept until a reference model
//! checks the fix.

use crate::address::Region;
use crate::cache::{EvictedLine, SetAssocCache};
use crate::config::{CacheConfig, MemoryConfig, SimConfig};
use crate::memory::DramModel;
use crate::noc::Mesh;
use crate::stats::{MachineStats, PhaseKind, TimeBreakdown};

fn cache(level: &CacheConfig) -> SetAssocCache {
    SetAssocCache::new(level.sets(), level.ways, level.policy)
}

/// Where an access ended in its core's private levels.
pub(crate) enum Walk {
    /// L1 or L2 held the line; the access cost this many cycles.
    Hit(u64),
    /// Both missed. The access has cost this many cycles on its way to the
    /// line's LLC bank and must be filled by [`SharedLevel::fill`].
    Miss(u64),
}

/// One core's private L1 and L2.
#[derive(Debug)]
pub(crate) struct PrivateLevel {
    core: usize,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l1_latency: u64,
    l2_latency: u64,
    mesh: Mesh,
}

impl PrivateLevel {
    pub(crate) fn new(core: usize, cfg: &SimConfig) -> Self {
        Self {
            core,
            l1: cache(&cfg.l1d),
            l2: cache(&cfg.l2),
            l1_latency: cfg.l1d.latency,
            l2_latency: cfg.l2.latency,
            mesh: Mesh::new(cfg.mesh_dim, cfg.hop_cycles),
        }
    }

    /// The core these caches belong to.
    pub(crate) fn core(&self) -> usize {
        self.core
    }

    /// Walks L1, then L2, then the NoC round trip to `line`'s LLC bank,
    /// summing latency as it goes.
    pub(crate) fn access(
        &mut self,
        line: u64,
        write: bool,
        region: Region,
        stats: &mut MachineStats,
    ) -> Walk {
        if self.l1.access(line, write, region).hit {
            stats.l1_hits += 1;
            return Walk::Hit(self.l1_latency);
        }
        let latency = self.l1_latency + self.l2_latency;
        if self.l2.access(line, write, region).hit {
            stats.l2_hits += 1;
            return Walk::Hit(latency);
        }
        let noc = self.mesh.round_trip_cycles(self.core, line);
        stats.noc_hop_cycles += noc;
        Walk::Miss(latency + noc)
    }

    /// A write by `writer` invalidates this core's copies of `line`. Both
    /// levels are probed (both drops must happen); one invalidation and its
    /// one-way NoC trip count if either held the line.
    pub(crate) fn invalidate(&mut self, writer: usize, line: u64, stats: &mut MachineStats) {
        let in_l1 = self.l1.invalidate(line).is_some();
        let in_l2 = self.l2.invalidate(line).is_some();
        if in_l1 || in_l2 {
            stats.invalidations += 1;
            stats.noc_hop_cycles += self.mesh.one_way_cycles(writer, self.core);
        }
    }
}

/// The shared LLC, the word usage of its resident lines, DRAM, and the
/// time breakdown of finished phases.
#[derive(Debug)]
pub(crate) struct SharedLevel {
    llc: SetAssocCache,
    /// Touched-word masks of the LLC-resident lines, the only copy.
    words: TouchIndex,
    dram: DramModel,
    llc_latency: u64,
    breakdown: TimeBreakdown,
}

impl SharedLevel {
    pub(crate) fn new(llc: &CacheConfig, memory: MemoryConfig) -> Self {
        let cache = cache(llc);
        Self {
            words: TouchIndex::new(cache.set_count() * cache.ways()),
            llc: cache,
            dram: DramModel::new(memory),
            llc_latency: llc.latency,
            breakdown: TimeBreakdown::default(),
        }
    }

    /// A private hit on `word` of `line`: the use reaches the LLC copy, if
    /// one is resident. Replacement state does not move.
    pub(crate) fn touch(&mut self, line: u64, word: u8) {
        self.words.or_if_present(line, 1 << word);
    }

    /// Fills an access that missed its core's private levels: the LLC
    /// lookup, a DRAM read on a miss, and the victim's retirement. Returns
    /// the cycles this level adds to the access.
    pub(crate) fn fill(
        &mut self,
        line: u64,
        word: u8,
        write: bool,
        region: Region,
        stats: &mut MachineStats,
    ) -> u64 {
        let out = self.llc.access(line, write, region);
        if out.hit {
            stats.llc_hits += 1;
            self.touch(line, word);
            return self.llc_latency;
        }
        stats.llc_misses += 1;
        if let Some(victim) = out.evicted {
            self.retire(victim, stats);
        }
        self.words.insert(line, 1 << word);
        self.llc_latency + self.dram.read_line()
    }

    /// The one way a line leaves the LLC, on eviction or at the end-of-run
    /// flush: a state line's used words are counted, and a dirty line is
    /// written back to DRAM.
    fn retire(&mut self, victim: EvictedLine, stats: &mut MachineStats) {
        let mask = self.words.remove(victim.line);
        if victim.region.is_state_region() {
            stats.state_lines.record(mask.count_ones());
        }
        if victim.dirty {
            self.dram.writeback_line();
        }
    }

    /// Ends a parallel phase: each core's time is the max of its core and
    /// accelerator timelines (they overlap); the phase length is the max
    /// over cores, then stretched by the DRAM bandwidth envelope. Resets
    /// both timelines and returns the phase length.
    pub(crate) fn end_phase(
        &mut self,
        kind: PhaseKind,
        core: &mut [u64],
        accel: &mut [u64],
    ) -> u64 {
        let compute = core.iter().zip(accel.iter()).map(|(&c, &a)| c.max(a)).max().unwrap_or(0);
        core.fill(0);
        accel.fill(0);
        let cycles = self.dram.close_phase(compute);
        self.breakdown.add(kind, cycles);
        cycles
    }

    /// Retires every resident line (end of run), so resident state lines
    /// count in the utilization metric and dirty ones reach DRAM.
    pub(crate) fn flush(&mut self, stats: &mut MachineStats) {
        for victim in self.llc.flush() {
            self.retire(victim, stats);
        }
    }

    pub(crate) fn dram(&self) -> &DramModel {
        &self.dram
    }

    pub(crate) fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }
}

/// The sharer directory: one bitmask per line (≤ 64 cores).
#[derive(Debug)]
pub(crate) struct Directory {
    sharers: Vec<u64>,
}

impl Directory {
    /// A directory of `lines` slots, one per line address below `lines`.
    /// `Machine::new` sizes it to its address space (`total_bytes / 64 +
    /// 1`), which covers every line an access can reach.
    pub(crate) fn new(lines: usize) -> Self {
        Self { sharers: vec![0; lines] }
    }

    /// Records `core`'s access to `line` and returns the cores whose
    /// private copies it invalidates: every other sharer for a write, none
    /// for a read.
    ///
    /// # Panics
    ///
    /// Panics if `line` has no slot.
    pub(crate) fn record(&mut self, core: usize, line: u64, write: bool) -> Cores {
        let slot = &mut self.sharers[line as usize];
        let mine = 1u64 << core;
        if write {
            Cores(std::mem::replace(slot, mine) & !mine)
        } else {
            *slot |= mine;
            Cores(0)
        }
    }
}

/// The cores of a sharer mask, lowest first.
pub(crate) struct Cores(u64);

impl Iterator for Cores {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let core = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(core)
    }
}

/// Open-addressed `line → touched-word mask` index mirroring LLC
/// residency, with linear probing and backward-shift deletion.
///
/// Touches from private hits outnumber LLC fills by far, and a touch never
/// moves replacement state, so it needs no scan of the LLC set's tags: a
/// compact hash keyed by line address makes each touch one or two host
/// cache-line probes.
#[derive(Debug)]
struct TouchIndex {
    /// `line + 1` per occupied slot; 0 marks an empty one, so a new table
    /// is zeroed memory the allocator maps lazily, and `Machine::new` pays
    /// nothing for it up front. A line address is a byte address >> 6, so
    /// `line + 1` never overflows.
    keys: Vec<u64>,
    masks: Vec<u16>,
    cap_mask: usize,
}

const EMPTY: u64 = 0;

impl TouchIndex {
    /// `resident_capacity` is the most lines the LLC can hold; the table
    /// keeps a ≤ 25% load factor so probe chains stay short.
    fn new(resident_capacity: usize) -> Self {
        let size = (resident_capacity * 4).next_power_of_two().max(16);
        Self { keys: vec![EMPTY; size], masks: vec![0; size], cap_mask: size - 1 }
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) ^ h) as usize & self.cap_mask
    }

    /// Registers a freshly inserted LLC line with its first touched word.
    #[inline]
    fn insert(&mut self, line: u64, mask: u16) {
        let key = line + 1;
        let mut i = self.slot(key);
        while self.keys[i] != EMPTY {
            debug_assert_ne!(self.keys[i], key, "line inserted while already resident");
            i = (i + 1) & self.cap_mask;
        }
        self.keys[i] = key;
        self.masks[i] = mask;
    }

    /// ORs `bits` into a resident line's mask; a no-op when the line is
    /// not resident.
    #[inline]
    fn or_if_present(&mut self, line: u64, bits: u16) {
        let key = line + 1;
        let mut i = self.slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.masks[i] |= bits;
                return;
            }
            if k == EMPTY {
                return;
            }
            i = (i + 1) & self.cap_mask;
        }
    }

    /// Removes a retired line, returning its accumulated mask. Uses
    /// backward-shift deletion so probe chains never need tombstones.
    #[inline]
    fn remove(&mut self, line: u64) -> u16 {
        let key = line + 1;
        let mut i = self.slot(key);
        while self.keys[i] != key {
            debug_assert_ne!(self.keys[i], EMPTY, "retired line must be indexed");
            i = (i + 1) & self.cap_mask;
        }
        let out = self.masks[i];
        loop {
            self.keys[i] = EMPTY;
            let mut j = i;
            loop {
                j = (j + 1) & self.cap_mask;
                if self.keys[j] == EMPTY {
                    return out;
                }
                let home = self.slot(self.keys[j]);
                // The entry at j may back-shift into the hole at i only
                // if its home precedes i along the probe chain.
                if (j.wrapping_sub(home) & self.cap_mask) >= (j.wrapping_sub(i) & self.cap_mask) {
                    self.keys[i] = self.keys[j];
                    self.masks[i] = self.masks[j];
                    i = j;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::stats::LineUtilization;

    /// Deterministic xorshift for synthetic access streams.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// A 2-set, 2-way LRU LLC: lines 0, 2 and 4 share set 0.
    fn tiny() -> SharedLevel {
        let llc = CacheConfig { size_bytes: 4 * 64, ways: 2, latency: 27, policy: PolicyKind::Lru };
        SharedLevel::new(&llc, SimConfig::small_test().memory)
    }

    #[test]
    fn touched_words_accumulate_until_eviction() {
        let (mut c, mut stats) = (tiny(), MachineStats::default());
        c.fill(0, 0, false, Region::VertexStates, &mut stats);
        c.fill(0, 5, false, Region::VertexStates, &mut stats);
        c.fill(0, 5, false, Region::VertexStates, &mut stats); // same word twice
        c.fill(2, 0, false, Region::VertexStates, &mut stats);
        c.fill(4, 0, false, Region::VertexStates, &mut stats);
        assert!(!c.llc.contains(0), "line 0 is the LRU victim");
        assert_eq!(stats.state_lines, LineUtilization { lines: 1, touched_words: 2 });
    }

    #[test]
    fn touch_word_marks_without_replacement_side_effects() {
        let (mut c, mut stats) = (tiny(), MachineStats::default());
        c.fill(0, 0, false, Region::VertexStates, &mut stats);
        c.touch(0, 9);
        c.fill(2, 0, false, Region::VertexStates, &mut stats);
        c.fill(4, 0, false, Region::VertexStates, &mut stats);
        assert!(!c.llc.contains(0), "a touch must not refresh recency");
        assert_eq!(stats.state_lines, LineUtilization { lines: 1, touched_words: 2 });
    }

    #[test]
    fn directory_gives_the_layouts_last_line_its_own_slot() {
        use crate::address::AddressSpace;
        let layout = AddressSpace::layout(1000, 5000, 32);
        let last = layout.total_bytes() / 64;
        let mut d = Directory::new((last + 1) as usize);
        assert_eq!(d.record(1, last, false).count(), 0);
        // A write to line 0 finds no sharer: the last line's reader sits
        // in a slot of its own.
        assert_eq!(d.record(0, 0, true).count(), 0);
        assert_eq!(d.record(0, last, true).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn touch_index_matches_a_reference_map_under_churn() {
        use std::collections::HashMap;
        let mut t = TouchIndex::new(8); // 32 slots — forces probe chains
        let mut reference: HashMap<u64, u16> = HashMap::new();
        let mut rng = Rng(0x7AB1E);
        for _ in 0..20_000 {
            let r = rng.next();
            let line = (r >> 8) % 48; // dense key space → heavy collisions
            let bit = 1u16 << (r % 16);
            match r % 5 {
                0 | 1 => {
                    // Touch: OR iff resident.
                    t.or_if_present(line, bit);
                    if let Some(m) = reference.get_mut(&line) {
                        *m |= bit;
                    }
                }
                2 | 3 => {
                    // Fill: evict-if-resident then insert fresh.
                    if let Some(m) = reference.remove(&line) {
                        assert_eq!(t.remove(line), m);
                    }
                    if reference.len() < 24 {
                        t.insert(line, bit);
                        reference.insert(line, bit);
                    }
                }
                _ => {
                    if let Some(m) = reference.remove(&line) {
                        assert_eq!(t.remove(line), m);
                    }
                }
            }
        }
        for (&line, &m) in &reference {
            assert_eq!(t.remove(line), m);
        }
    }
}

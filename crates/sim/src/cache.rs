//! Set-associative cache model: residency, dirtiness and replacement.
//!
//! A cache answers hit or miss, fills on every miss (write-allocate) and
//! reports the line it displaced. It tracks nothing finer than a line: the
//! LLC's word usage, which feeds the useful-fetched-data metric of Fig
//! 3(c)/Fig 12, is kept by the hierarchy's shared level, beside the cache.

use crate::address::Region;
use crate::policy::PolicyKind;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// A line evicted to make room (only on misses in full sets).
    pub evicted: Option<EvictedLine>,
}

/// A line pushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line address (byte address >> 6).
    pub line: u64,
    /// Whether it was written while resident.
    pub dirty: bool,
    /// Region of its contents.
    pub region: Region,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    meta: u32,
    region: Region,
}

const INVALID: Line =
    Line { tag: 0, valid: false, dirty: false, meta: 0, region: Region::VertexStates };

/// Number of independent DRRIP duel domains ("banks"). Set `s` belongs to
/// bank `s % DUEL_BANKS`; each bank owns its own leader sets, PSEL, and
/// BRRIP tick. The LLC is banked over the mesh, and real banked designs
/// duel per bank rather than sharing one selector across the chip. This
/// is part of the simulated LLC: changing it changes every DRRIP count.
const DUEL_BANKS: usize = 8;

/// DRRIP set-dueling state (Jaleel et al., ISCA'10), one per bank: a few
/// leader sets are dedicated to SRRIP and BRRIP insertion; misses in
/// leader sets steer a saturating selector that the bank's follower sets
/// obey.
#[derive(Debug, Clone, Copy)]
struct DuelState {
    /// Positive → SRRIP is missing more → followers use BRRIP.
    psel: i32,
    /// Deterministic 1-in-32 counter for BRRIP's rare near insertions.
    brip_tick: u32,
}

impl DuelState {
    const PSEL_MAX: i32 = 512;
    const LEADER_STRIDE: usize = 32;

    fn new() -> Self {
        Self { psel: 0, brip_tick: 0 }
    }

    /// Which insertion policy governs `set`: Some(true)=SRRIP leader,
    /// Some(false)=BRRIP leader, None=follower. Leaders are chosen per
    /// bank: the first set of each bank stripe is its SRRIP leader, the
    /// second its BRRIP leader, repeating every `LEADER_STRIDE` stripes.
    fn leader(set: usize) -> Option<bool> {
        match (set / DUEL_BANKS) % Self::LEADER_STRIDE {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        }
    }

    fn on_miss(&mut self, set: usize) {
        match Self::leader(set) {
            Some(true) => self.psel = (self.psel + 1).min(Self::PSEL_MAX),
            Some(false) => self.psel = (self.psel - 1).max(-Self::PSEL_MAX),
            None => {}
        }
    }

    /// RRPV for a new line in `set`.
    fn insert_rrpv(&mut self, set: usize) -> u32 {
        let use_brrip = match Self::leader(set) {
            Some(true) => false,
            Some(false) => true,
            None => self.psel > 0,
        };
        if use_brrip {
            self.brip_tick = self.brip_tick.wrapping_add(1);
            if self.brip_tick.is_multiple_of(32) {
                2
            } else {
                3
            }
        } else {
            2
        }
    }
}

/// A set-associative cache with 64 B lines.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<Line>,
    set_count: usize,
    ways: usize,
    policy: PolicyKind,
    stamp: u32,
    duel: [DuelState; DUEL_BANKS],
}

impl SetAssocCache {
    /// Creates a cache with `set_count` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(set_count: usize, ways: usize, policy: PolicyKind) -> Self {
        assert!(set_count > 0 && ways > 0, "cache needs sets and ways");
        Self {
            sets: vec![INVALID; set_count * ways],
            set_count,
            ways,
            policy,
            stamp: 0,
            duel: [DuelState::new(); DUEL_BANKS],
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) % self.set_count
    }

    fn slice(&mut self, set: usize) -> &mut [Line] {
        &mut self.sets[set * self.ways..(set + 1) * self.ways]
    }

    /// Accesses `line` (byte address >> 6). On a miss the line is filled
    /// (allocate-on-miss for reads and writes) and the displaced line, if
    /// any, is reported.
    pub fn access(&mut self, line: u64, write: bool, region: Region) -> AccessOutcome {
        self.stamp = self.stamp.wrapping_add(1);
        let stamp = self.stamp;
        let policy = self.policy;
        let set = self.set_of(line);
        {
            let ways = self.slice(set);
            if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == line) {
                l.meta = policy.hit_meta(region, l.meta, stamp);
                l.dirty |= write;
                return AccessOutcome { hit: true, evicted: None };
            }
        }
        if policy == PolicyKind::Drrip {
            self.duel[set % DUEL_BANKS].on_miss(set);
        }

        // Miss: steer the DRRIP duel, then pick a way.
        let ways = self.slice(set);
        let (victim_idx, evicted) = if let Some(i) = ways.iter().position(|l| !l.valid) {
            (i, None)
        } else {
            // Victim selection mutates replacement metadata (RRPV aging);
            // stage it on the stack — this runs on every capacity miss,
            // so a heap allocation here dominates the access path.
            let n = ways.len();
            let mut stack = [0u32; 64];
            let mut heap: Vec<u32> = Vec::new();
            let metas: &mut [u32] = if n <= 64 {
                let m = &mut stack[..n];
                for (dst, l) in m.iter_mut().zip(ways.iter()) {
                    *dst = l.meta;
                }
                m
            } else {
                heap.extend(ways.iter().map(|l| l.meta));
                &mut heap
            };
            let v = policy.choose_victim(metas);
            for (l, &m) in ways.iter_mut().zip(metas.iter()) {
                l.meta = m;
            }
            let out = ways[v];
            (v, Some(EvictedLine { line: out.tag, dirty: out.dirty, region: out.region }))
        };
        let meta = if policy == PolicyKind::Drrip {
            self.duel[set % DUEL_BANKS].insert_rrpv(set)
        } else {
            policy.insert_meta(region, stamp)
        };
        let ways = self.slice(set);
        ways[victim_idx] = Line { tag: line, valid: true, dirty: write, meta, region };
        AccessOutcome { hit: false, evicted }
    }

    /// Whether `line` is resident.
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        self.sets[set * self.ways..(set + 1) * self.ways].iter().any(|l| l.valid && l.tag == line)
    }

    /// Invalidates `line` if present; returns the line's eviction record.
    pub fn invalidate(&mut self, line: u64) -> Option<EvictedLine> {
        let set = self.set_of(line);
        let ways = self.slice(set);
        let l = ways.iter_mut().find(|l| l.valid && l.tag == line)?;
        let out = EvictedLine { line: l.tag, dirty: l.dirty, region: l.region };
        *l = INVALID;
        Some(out)
    }

    /// Drains every valid line, reporting each as evicted (the end-of-run
    /// flush).
    pub fn flush(&mut self) -> Vec<EvictedLine> {
        let mut out = Vec::new();
        for l in &mut self.sets {
            if l.valid {
                out.push(EvictedLine { line: l.tag, dirty: l.dirty, region: l.region });
                *l = INVALID;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(2, 2, PolicyKind::Lru)
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(100, false, Region::VertexStates).hit);
        assert!(c.access(100, false, Region::VertexStates).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers, 2 sets).
        c.access(0, false, Region::VertexStates);
        c.access(2, false, Region::VertexStates);
        c.access(0, false, Region::VertexStates); // refresh line 0
        let out = c.access(4, false, Region::VertexStates);
        assert!(!out.hit);
        assert_eq!(out.evicted.unwrap().line, 2);
        assert!(c.contains(0) && c.contains(4) && !c.contains(2));
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut c = tiny();
        c.access(0, true, Region::VertexStates);
        c.access(2, false, Region::VertexStates);
        let ev = c.access(4, false, Region::VertexStates).evicted.unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(0, true, Region::TopologyList);
        let ev = c.invalidate(0).unwrap();
        assert_eq!(ev.region, Region::TopologyList);
        assert!(ev.dirty);
        assert!(!c.contains(0));
        assert!(c.invalidate(0).is_none());
    }

    #[test]
    fn flush_reports_all_resident_lines() {
        let mut c = tiny();
        c.access(0, false, Region::VertexStates);
        c.access(1, false, Region::NeighborArray);
        let mut flushed = c.flush();
        flushed.sort_by_key(|e| e.line);
        assert_eq!(flushed.len(), 2);
        assert!(!c.contains(0) && !c.contains(1));
        assert!(c.flush().is_empty());
    }

    #[test]
    fn grasp_cache_protects_coalesced_lines() {
        // 1 set, 2 ways: hot line inserted at RRPV 0 survives a scan.
        let mut c = SetAssocCache::new(1, 2, PolicyKind::Grasp);
        c.access(10, false, Region::CoalescedStates);
        for line in 0..8u64 {
            c.access(line, false, Region::NeighborArray);
        }
        assert!(c.contains(10), "GRASP failed to protect the hot line");
    }

    #[test]
    fn popt_cache_prefers_evicting_structure_scans() {
        let mut c = SetAssocCache::new(1, 2, PolicyKind::Popt);
        c.access(10, false, Region::VertexStates);
        c.access(1, false, Region::NeighborArray);
        // Third line: the neighbor-array line (RRPV 3) must be the victim.
        let ev = c.access(2, false, Region::NeighborArray).evicted.unwrap();
        assert_eq!(ev.line, 1);
        assert!(c.contains(10));
    }

    #[test]
    #[should_panic(expected = "sets and ways")]
    fn zero_geometry_panics() {
        let _ = SetAssocCache::new(0, 2, PolicyKind::Lru);
    }

    #[test]
    fn drrip_leader_sets_are_fixed_per_bank() {
        // The first stripe of sets (one per bank) are SRRIP leaders, the
        // second stripe BRRIP leaders, repeating every LEADER_STRIDE
        // stripes.
        for bank in 0..DUEL_BANKS {
            assert_eq!(DuelState::leader(bank), Some(true));
            assert_eq!(DuelState::leader(DUEL_BANKS + bank), Some(false));
            assert_eq!(DuelState::leader(2 * DUEL_BANKS + bank), None);
        }
        assert_eq!(DuelState::leader(DUEL_BANKS * DuelState::LEADER_STRIDE), Some(true));
        assert_eq!(DuelState::leader(DUEL_BANKS * (DuelState::LEADER_STRIDE + 1)), Some(false));
    }

    #[test]
    fn drrip_duel_steers_followers_by_leader_misses() {
        // Drive misses only into bank 0's SRRIP leader (set 0 of 64): its
        // PSEL rises, so bank-0 follower sets must switch to BRRIP
        // insertion.
        let mut c = SetAssocCache::new(64, 2, PolicyKind::Drrip);
        for k in 0..1_000u64 {
            c.access(k * 64, false, Region::NeighborArray);
        }
        assert!(c.duel[0].psel > 0, "SRRIP-leader misses must raise PSEL");
        let mut duel = c.duel[0];
        let mut distant = 0;
        for _ in 0..32 {
            // Set 16 is a bank-0 follower (16 / DUEL_BANKS == 2).
            if duel.insert_rrpv(16) == 3 {
                distant += 1;
            }
        }
        assert!(distant >= 30, "followers must insert distant under BRRIP");
        // Conversely, misses in bank 0's BRRIP leader (set 8) pull PSEL
        // back down.
        for k in 0..3_000u64 {
            c.access(k * 64 + 8, false, Region::NeighborArray);
        }
        assert!(c.duel[0].psel < 0);
        assert_eq!(c.duel[0].insert_rrpv(16), 2, "followers back on SRRIP insertion");
    }

    #[test]
    fn drrip_banks_duel_independently() {
        // Leader misses in bank 0 must never move bank 1's selector.
        let mut c = SetAssocCache::new(64, 2, PolicyKind::Drrip);
        for k in 0..1_000u64 {
            c.access(k * 64, false, Region::NeighborArray);
        }
        assert!(c.duel[0].psel > 0);
        for bank in 1..DUEL_BANKS {
            assert_eq!(c.duel[bank].psel, 0, "bank {bank} selector moved");
        }
    }

    #[test]
    fn drrip_brrip_occasionally_inserts_near() {
        let mut duel = DuelState::new();
        duel.psel = 100; // followers on BRRIP
        let rrpvs: Vec<u32> = (0..64).map(|_| duel.insert_rrpv(16)).collect();
        assert!(rrpvs.contains(&2), "BRRIP must rarely insert near");
        assert!(rrpvs.iter().filter(|&&r| r == 3).count() >= 60);
    }

    #[test]
    fn drrip_psel_saturates() {
        let mut duel = DuelState::new();
        for _ in 0..10_000 {
            duel.on_miss(0);
        }
        assert_eq!(duel.psel, DuelState::PSEL_MAX);
        for _ in 0..30_000 {
            duel.on_miss(DUEL_BANKS);
        }
        assert_eq!(duel.psel, -DuelState::PSEL_MAX);
    }
}

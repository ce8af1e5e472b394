//! Set-associative cache model: residency, dirtiness and replacement.
//!
//! A cache answers hit or miss, fills on every miss (write-allocate) and
//! reports the line it displaced. It tracks nothing finer than a line: the
//! LLC's word usage, which feeds the useful-fetched-data metric of Fig
//! 3(c)/Fig 12, is kept by the hierarchy's shared level, beside the cache.
//!
//! Every simulated access probes one to three caches, so their host layout
//! sets the simulator's speed. A set is one run of words in a single
//! allocation per cache: the ways' tags side by side, then their packed
//! states. A probe compares 8 B tags instead of walking 24 B per-way
//! records, and the set index is a mask for power-of-two set counts
//! (`crate::divisor`). The tests check every outcome, invalidation and
//! flush order against a record-per-way reference model.

use crate::address::Region;
use crate::divisor::Divisor;
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

/// A way's state packs its replacement meta (bits 0..32), dirty bit (bit
/// 32) and region (bits 40..48) into one word.
const META: u64 = 0xFFFF_FFFF;
const DIRTY: u64 = 1 << 32;
const REGION_SHIFT: u32 = 40;

fn pack(meta: u32, dirty: bool, region: Region) -> u64 {
    u64::from(meta) | if dirty { DIRTY } else { 0 } | (u64::from(region as u8) << REGION_SHIFT)
}

/// The eviction record of the way holding `tag` in state `state`.
fn eviction(tag: u64, state: u64) -> EvictedLine {
    let region = Region::ALL[(state >> REGION_SHIFT) as usize];
    EvictedLine { line: tag - 1, dirty: state & DIRTY != 0, region }
}

/// The tags and packed states of `set` in a cache of `ways` ways.
fn set_mut(slots: &mut [u64], ways: usize, set: usize) -> (&mut [u64], &mut [u64]) {
    slots[set * 2 * ways..(set + 1) * 2 * ways].split_at_mut(ways)
}

/// A set-associative cache with 64 B lines.
///
/// Each set is one run of `2 × ways` words in a single allocation: first
/// the ways' tags (`line + 1`, so 0 marks an invalid way and a fresh cache
/// is zeroed memory), then their packed states (replacement meta, dirty
/// bit, region). A hit or free-way search scans one run of tags, and
/// victim selection ages the packed states in place. A way's state means
/// nothing while its tag is 0. A line address is a byte address >> 6, so
/// `line + 1` never overflows.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    slots: Vec<u64>,
    sets: Divisor,
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
            slots: vec![0; 2 * set_count * ways],
            sets: Divisor::new(set_count as u64),
            ways,
            policy,
            stamp: 0,
            duel: [DuelState::new(); DUEL_BANKS],
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.sets.value() as usize
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn set_of(&self, line: u64) -> usize {
        self.sets.rem(line) as usize
    }

    /// Accesses `line` (byte address >> 6). On a miss the line is filled
    /// (allocate-on-miss for reads and writes) and the displaced line, if
    /// any, is reported.
    pub fn access(&mut self, line: u64, write: bool, region: Region) -> AccessOutcome {
        self.stamp = self.stamp.wrapping_add(1);
        let stamp = self.stamp;
        let policy = self.policy;
        let set = self.set_of(line);
        let tag = line + 1;
        let (tags, states) = set_mut(&mut self.slots, self.ways, set);
        if let Some(w) = tags.iter().position(|&t| t == tag) {
            let s = states[w];
            let meta = policy.hit_meta(region, s as u32, stamp);
            states[w] = (s & !META) | u64::from(meta) | if write { DIRTY } else { 0 };
            return AccessOutcome { hit: true, evicted: None };
        }

        // Miss: steer the DRRIP duel, then pick a way.
        if policy == PolicyKind::Drrip {
            self.duel[set % DUEL_BANKS].on_miss(set);
        }
        let (way, evicted) = match tags.iter().position(|&t| t == 0) {
            Some(w) => (w, None),
            None => {
                let w = policy.choose_victim(states);
                (w, Some(eviction(tags[w], states[w])))
            }
        };
        let meta = if policy == PolicyKind::Drrip {
            self.duel[set % DUEL_BANKS].insert_rrpv(set)
        } else {
            policy.insert_meta(region, stamp)
        };
        tags[way] = tag;
        states[way] = pack(meta, write, region);
        AccessOutcome { hit: false, evicted }
    }

    /// Whether `line` is resident.
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        let start = self.set_of(line) * 2 * self.ways;
        self.slots[start..start + self.ways].contains(&(line + 1))
    }

    /// Invalidates `line` if present; returns the line's eviction record.
    pub fn invalidate(&mut self, line: u64) -> Option<EvictedLine> {
        let set = self.set_of(line);
        let (tags, states) = set_mut(&mut self.slots, self.ways, set);
        let w = tags.iter().position(|&t| t == line + 1)?;
        tags[w] = 0;
        Some(eviction(line + 1, states[w]))
    }

    /// Drains every valid line, set by set and way by way, reporting each
    /// as evicted (the end-of-run flush).
    pub fn flush(&mut self) -> Vec<EvictedLine> {
        let mut out = Vec::new();
        for run in self.slots.chunks_exact_mut(2 * self.ways) {
            let (tags, states) = run.split_at_mut(self.ways);
            for (tag, &state) in tags.iter_mut().zip(states.iter()) {
                if *tag != 0 {
                    out.push(eviction(*tag, state));
                    *tag = 0;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference the tag-array cache is checked against: one `Line`
    /// record per way, scanned whole for hits and free ways, with the
    /// victim's replacement metas staged in a scratch array.
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

    struct LineArrayCache {
        sets: Vec<Line>,
        set_count: usize,
        ways: usize,
        policy: PolicyKind,
        stamp: u32,
        duel: [DuelState; DUEL_BANKS],
    }

    impl LineArrayCache {
        fn new(set_count: usize, ways: usize, policy: PolicyKind) -> Self {
            Self {
                sets: vec![INVALID; set_count * ways],
                set_count,
                ways,
                policy,
                stamp: 0,
                duel: [DuelState::new(); DUEL_BANKS],
            }
        }

        fn slice(&mut self, set: usize) -> &mut [Line] {
            &mut self.sets[set * self.ways..(set + 1) * self.ways]
        }

        fn access(&mut self, line: u64, write: bool, region: Region) -> AccessOutcome {
            self.stamp = self.stamp.wrapping_add(1);
            let stamp = self.stamp;
            let policy = self.policy;
            let set = (line as usize) % self.set_count;
            if let Some(l) = self.slice(set).iter_mut().find(|l| l.valid && l.tag == line) {
                l.meta = policy.hit_meta(region, l.meta, stamp);
                l.dirty |= write;
                return AccessOutcome { hit: true, evicted: None };
            }
            if policy == PolicyKind::Drrip {
                self.duel[set % DUEL_BANKS].on_miss(set);
            }
            let ways = self.slice(set);
            let (victim, evicted) = if let Some(i) = ways.iter().position(|l| !l.valid) {
                (i, None)
            } else {
                let mut metas: Vec<u32> = ways.iter().map(|l| l.meta).collect();
                let v = reference_victim(policy, &mut metas);
                for (l, &m) in ways.iter_mut().zip(&metas) {
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
            self.slice(set)[victim] = Line { tag: line, valid: true, dirty: write, meta, region };
            AccessOutcome { hit: false, evicted }
        }

        fn contains(&self, line: u64) -> bool {
            let set = (line as usize) % self.set_count;
            self.sets[set * self.ways..(set + 1) * self.ways]
                .iter()
                .any(|l| l.valid && l.tag == line)
        }

        fn invalidate(&mut self, line: u64) -> Option<EvictedLine> {
            let set = (line as usize) % self.set_count;
            let l = self.slice(set).iter_mut().find(|l| l.valid && l.tag == line)?;
            let out = EvictedLine { line: l.tag, dirty: l.dirty, region: l.region };
            *l = INVALID;
            Some(out)
        }

        fn flush(&mut self) -> Vec<EvictedLine> {
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

    /// The reference's victim choice over bare metas: the first least
    /// stamp (LRU), or the first way at RRPV 3 after aging (RRIP family).
    fn reference_victim(policy: PolicyKind, metas: &mut [u32]) -> usize {
        match policy {
            PolicyKind::Lru => {
                let mut best = 0;
                for (i, &m) in metas.iter().enumerate() {
                    if m < metas[best] {
                        best = i;
                    }
                }
                best
            }
            PolicyKind::Drrip | PolicyKind::Grasp | PolicyKind::Popt => loop {
                if let Some(i) = metas.iter().position(|&m| m >= 3) {
                    return i;
                }
                for m in metas.iter_mut() {
                    *m += 1;
                }
            },
        }
    }

    const POLICIES: [PolicyKind; 4] =
        [PolicyKind::Lru, PolicyKind::Drrip, PolicyKind::Grasp, PolicyKind::Popt];

    proptest! {
        /// Random access and invalidate streams give the same outcome, the
        /// same invalidation record and the same flush order on the cache
        /// and on the reference, under every policy, at set counts 1–64
        /// (powers of two and not) and at 1–16 ways or more than 64. The
        /// stream's lines fall in the first `focus` sets, so wide sets fill
        /// and evict too.
        #[test]
        fn cache_matches_the_line_array_reference(
            policy in 0usize..4,
            sets in 1usize..65,
            ways in prop_oneof![12 => 1usize..17, 1 => 65usize..73],
            focus in 1usize..65,
            ops in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..1500),
        ) {
            let policy = POLICIES[policy];
            let mut cache = SetAssocCache::new(sets, ways, policy);
            let mut reference = LineArrayCache::new(sets, ways, policy);
            let span = (ways + ways / 2 + 2) as u64;
            let focus = focus.min(sets) as u64;
            for (r, k) in ops {
                let line = (r % span) * sets as u64 + (r >> 32) % focus;
                if k % 8 == 0 {
                    prop_assert_eq!(cache.invalidate(line), reference.invalidate(line));
                } else {
                    let write = k % 8 < 3;
                    let region = Region::ALL[(k >> 8) as usize % Region::COUNT];
                    let got = cache.access(line, write, region);
                    prop_assert_eq!(got, reference.access(line, write, region));
                }
                prop_assert_eq!(cache.contains(line), reference.contains(line));
            }
            prop_assert_eq!(cache.flush(), reference.flush());
        }
    }

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

//! Cache replacement policies (Fig 23 compares LRU, DRRIP, P-OPT, GRASP).
//!
//! Policies operate on per-line `meta` values stored in the cache:
//!
//! * **LRU** — `meta` is a monotonically increasing access stamp; the victim
//!   is the smallest stamp.
//! * **DRRIP** — 2-bit re-reference prediction values (RRPV). We implement
//!   the SRRIP-dominant configuration (insert at RRPV 2, promote to 0 on
//!   hit, victim = RRPV 3 with aging), which is what DRRIP converges to on
//!   these scan-heavy workloads.
//! * **GRASP** (Faldu et al., HPCA'20) — domain-specialized insertion:
//!   lines from the hot-vertex region are inserted at RRPV 0 and re-promoted
//!   on hit, protecting them from thrashing; cold lines follow DRRIP.
//! * **P-OPT** (Balaji et al., HPCA'21) — transpose-driven approximation of
//!   Belady. Our approximation: graph-structure scan data (offsets /
//!   neighbors), whose next reuse is farthest away, is inserted near-evict
//!   (RRPV 3); vertex state lines at RRPV 1. This captures P-OPT's key
//!   effect — structure streams never displace state lines.

use crate::address::Region;

/// Replacement policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// Dynamic re-reference interval prediction (SRRIP-dominant).
    Drrip,
    /// GRASP domain-specialized insertion (hot region protected).
    Grasp,
    /// P-OPT transpose-driven Belady approximation.
    Popt,
}

/// Maximum RRPV for the RRIP-family policies (2-bit).
const RRPV_MAX: u32 = 3;

impl PolicyKind {
    /// Meta value for a newly inserted line.
    #[must_use]
    pub fn insert_meta(self, region: Region, stamp: u32) -> u32 {
        match self {
            PolicyKind::Lru => stamp,
            PolicyKind::Drrip => 2,
            // GRASP inserts hot-region lines at highest priority and cold
            // lines at distant re-reference, so scans evict each other
            // instead of aging out the protected region.
            PolicyKind::Grasp => {
                if matches!(region, Region::CoalescedStates | Region::HashTable) {
                    0
                } else {
                    RRPV_MAX
                }
            }
            PolicyKind::Popt => match region {
                Region::OffsetArray
                | Region::NeighborArray
                | Region::WeightArray
                | Region::EdgeVisited => RRPV_MAX,
                Region::VertexStates | Region::CoalescedStates => 1,
                _ => 2,
            },
        }
    }

    /// Meta value after a hit on a line with current `meta`.
    #[must_use]
    pub fn hit_meta(self, _region: Region, _meta: u32, stamp: u32) -> u32 {
        match self {
            PolicyKind::Lru => stamp,
            // GRASP promotes hot-region hits the same as other hits at this
            // layer; its preferential treatment is applied at insertion.
            PolicyKind::Drrip | PolicyKind::Popt | PolicyKind::Grasp => 0,
        }
    }

    /// Chooses the victim way of a full set. Each word of `ways` is one
    /// way's state: its low 32 bits are the way's meta, and the bits above
    /// are the cache's own and stay as they are. RRIP aging raises the
    /// metas in place. Returns the victim index.
    #[must_use]
    pub fn choose_victim(self, ways: &mut [u64]) -> usize {
        assert!(!ways.is_empty(), "victim selection over empty set");
        let meta = |w: u64| w as u32;
        match self {
            PolicyKind::Lru => {
                let mut best = 0;
                for (i, &w) in ways.iter().enumerate() {
                    if meta(w) < meta(ways[best]) {
                        best = i;
                    }
                }
                best
            }
            PolicyKind::Drrip | PolicyKind::Grasp | PolicyKind::Popt => loop {
                if let Some(i) = ways.iter().position(|&w| meta(w) >= RRPV_MAX) {
                    return i;
                }
                // Every meta is below RRPV_MAX, so the increment stays in
                // the low 32 bits.
                for w in ways.iter_mut() {
                    *w += 1;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victim_is_oldest_stamp() {
        let mut metas = vec![5, 2, 9, 7];
        assert_eq!(PolicyKind::Lru.choose_victim(&mut metas), 1);
        // The bits above a meta are the caller's: they neither rank a way
        // nor change.
        let mut states = vec![5 | 1 << 40, 2 | 1 << 63, 9, 7];
        assert_eq!(PolicyKind::Lru.choose_victim(&mut states), 1);
        assert_eq!(states, vec![5 | 1 << 40, 2 | 1 << 63, 9, 7]);
    }

    #[test]
    fn ties_go_to_the_first_way() {
        // A cache's LRU stamps are distinct, so no access stream reaches a
        // tie; the rule is pinned here, where one can be built.
        assert_eq!(PolicyKind::Lru.choose_victim(&mut [3, 1, 1]), 1);
        assert_eq!(PolicyKind::Drrip.choose_victim(&mut [1, 2, 2]), 1);
    }

    #[test]
    fn rrip_victim_is_rrpv_max_with_aging() {
        let mut metas = vec![0, 2, 1];
        let v = PolicyKind::Drrip.choose_victim(&mut metas);
        // After aging, the way that started at 2 reaches 3 first.
        assert_eq!(v, 1);
        assert_eq!(metas, vec![1, 3, 2]);
        let mut states = vec![1 << 32, 2 | 1 << 40, 1];
        assert_eq!(PolicyKind::Drrip.choose_victim(&mut states), 1);
        assert_eq!(states, vec![1 | 1 << 32, 3 | 1 << 40, 2]);
    }

    #[test]
    fn grasp_protects_hot_region_on_insert() {
        assert_eq!(PolicyKind::Grasp.insert_meta(Region::CoalescedStates, 0), 0);
        assert_eq!(PolicyKind::Grasp.insert_meta(Region::NeighborArray, 0), 3);
    }

    #[test]
    fn popt_streams_structure_near_evict() {
        assert_eq!(PolicyKind::Popt.insert_meta(Region::NeighborArray, 0), 3);
        assert_eq!(PolicyKind::Popt.insert_meta(Region::VertexStates, 0), 1);
    }

    #[test]
    fn hit_promotes_in_rrip_family() {
        for p in [PolicyKind::Drrip, PolicyKind::Grasp, PolicyKind::Popt] {
            assert_eq!(p.hit_meta(Region::VertexStates, 2, 0), 0);
        }
    }

    #[test]
    fn lru_hit_takes_stamp() {
        assert_eq!(PolicyKind::Lru.hit_meta(Region::VertexStates, 1, 42), 42);
    }
}

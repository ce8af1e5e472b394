//! Address-space layout of the in-memory data structures.
//!
//! The simulator works on virtual addresses so cache behaviour is realistic.
//! Each of the paper's arrays (§3.3.1) gets a page-aligned region; element
//! addresses are computed from the region base and a typed element size.

/// Which in-memory structure an access touches. Drives both address
/// computation and per-region statistics (e.g. the useful-fetched-state
/// metric only looks at [`Region::VertexStates`] / [`Region::CoalescedStates`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Region {
    /// `Offset_Array`: per-vertex begin/end offsets (8 B entries).
    OffsetArray,
    /// `Neighbor_Array`: neighbor ids (4 B entries).
    NeighborArray,
    /// Edge weights parallel to the neighbor array (4 B entries).
    WeightArray,
    /// `Vertex_States_Array`: algorithm states (4 B entries).
    VertexStates,
    /// `Active_Vertices` bitvector (1 bit per vertex).
    ActiveVertices,
    /// `Hot_Vertices` bitvector (1 bit per vertex).
    HotVertices,
    /// `Topology_List`: per-vertex pending-propagation counters (4 B).
    TopologyList,
    /// `Coalesced_States`: consolidated hot-vertex states (4 B).
    CoalescedStates,
    /// `H_Table`: hash-table entries `<vertex id, offset>` (8 B).
    HashTable,
    /// Software frontier / worklist storage (4 B entries).
    Frontier,
    /// Engine-specific auxiliary metadata (dependency trees, tags; 4 B).
    AuxMeta,
    /// Per-edge visited flags used by the traversal (1 bit per edge).
    EdgeVisited,
}

impl Region {
    /// All regions, in layout order.
    pub const ALL: [Region; 12] = [
        Region::OffsetArray,
        Region::NeighborArray,
        Region::WeightArray,
        Region::VertexStates,
        Region::ActiveVertices,
        Region::HotVertices,
        Region::TopologyList,
        Region::CoalescedStates,
        Region::HashTable,
        Region::Frontier,
        Region::AuxMeta,
        Region::EdgeVisited,
    ];

    /// Number of regions.
    pub const COUNT: usize = Region::ALL.len();

    /// Index into per-region tables: the derived discriminant, so it can
    /// never drift from the variant order.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The observability counter key for accesses to this region (starts
    /// with [`tdgraph_obs::keys::REGION_PREFIX`]).
    #[must_use]
    pub const fn obs_key(self) -> &'static str {
        match self {
            Region::OffsetArray => "sim.region.offset_array",
            Region::NeighborArray => "sim.region.neighbor_array",
            Region::WeightArray => "sim.region.weight_array",
            Region::VertexStates => "sim.region.vertex_states",
            Region::ActiveVertices => "sim.region.active_vertices",
            Region::HotVertices => "sim.region.hot_vertices",
            Region::TopologyList => "sim.region.topology_list",
            Region::CoalescedStates => "sim.region.coalesced_states",
            Region::HashTable => "sim.region.hash_table",
            Region::Frontier => "sim.region.frontier",
            Region::AuxMeta => "sim.region.aux_meta",
            Region::EdgeVisited => "sim.region.edge_visited",
        }
    }

    /// Bytes per addressable element. Bitvectors are addressed by the byte
    /// containing the bit.
    #[must_use]
    pub fn element_bytes(self) -> u64 {
        match self {
            Region::OffsetArray | Region::HashTable => 8,
            Region::NeighborArray
            | Region::WeightArray
            | Region::VertexStates
            | Region::TopologyList
            | Region::CoalescedStates
            | Region::Frontier
            | Region::AuxMeta => 4,
            Region::ActiveVertices | Region::HotVertices | Region::EdgeVisited => 1,
        }
    }

    /// Whether indexes address bits (packed 8 per byte).
    #[must_use]
    pub fn is_bitvector(self) -> bool {
        matches!(self, Region::ActiveVertices | Region::HotVertices | Region::EdgeVisited)
    }

    /// Whether the region holds vertex states (for the line-utilization
    /// metric of Fig 3c / Fig 12).
    #[must_use]
    pub fn is_state_region(self) -> bool {
        matches!(self, Region::VertexStates | Region::CoalescedStates)
    }
}

/// Page-aligned layout of every region for a given graph size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressSpace {
    bases: [u64; Region::ALL.len()],
    total: u64,
}

const PAGE: u64 = 4096;

impl AddressSpace {
    /// Lays out regions for a graph with `vertices` vertices and `edges`
    /// edges, with `coalesced_entries` hot-vertex slots.
    #[must_use]
    pub fn layout(vertices: usize, edges: usize, coalesced_entries: usize) -> Self {
        let sizes = |r: Region| -> u64 {
            let elems = match r {
                Region::OffsetArray => vertices as u64 + 1,
                Region::NeighborArray | Region::WeightArray => edges as u64,
                Region::VertexStates | Region::TopologyList | Region::AuxMeta => vertices as u64,
                Region::ActiveVertices | Region::HotVertices => (vertices as u64).div_ceil(8),
                Region::EdgeVisited => (edges as u64).div_ceil(8),
                Region::CoalescedStates => coalesced_entries as u64,
                // σ = 0.75 load factor (§3.3.1): table entries = slots/σ.
                Region::HashTable => (coalesced_entries as f64 / 0.75).ceil() as u64,
                Region::Frontier => vertices as u64,
            };
            let bytes = if r.is_bitvector() { elems } else { elems * r.element_bytes() };
            // Round up to a page, minimum one page, so regions never share
            // cache lines.
            bytes.max(1).div_ceil(PAGE) * PAGE
        };
        let mut bases = [0u64; Region::ALL.len()];
        let mut cursor = PAGE; // leave page 0 unmapped
        for (i, r) in Region::ALL.iter().enumerate() {
            bases[i] = cursor;
            cursor += sizes(*r);
        }
        Self { bases, total: cursor }
    }

    /// Total mapped bytes (end of the last region).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    fn base(&self, region: Region) -> u64 {
        self.bases[region.index()]
    }

    /// Byte address of element `index` in `region`. For bitvector regions
    /// the index is a bit index and the returned address is its byte.
    #[must_use]
    pub fn addr(&self, region: Region, index: u64) -> u64 {
        if region.is_bitvector() {
            self.base(region) + index / 8
        } else {
            self.base(region) + index * region.element_bytes()
        }
    }

    /// The region containing a byte address, if any (reverse lookup used by
    /// the cache statistics).
    #[must_use]
    pub fn region_of(&self, addr: u64) -> Option<Region> {
        let mut found = None;
        for (i, r) in Region::ALL.iter().enumerate() {
            if addr >= self.bases[i] {
                let next = self.bases.get(i + 1).copied().unwrap_or(self.total);
                if addr < next {
                    found = Some(*r);
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let a = AddressSpace::layout(1000, 5000, 32);
        for w in Region::ALL.windows(2) {
            assert!(a.base(w[0]) < a.base(w[1]), "{:?} overlaps {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn addresses_are_element_strided() {
        let a = AddressSpace::layout(1000, 5000, 32);
        let s0 = a.addr(Region::VertexStates, 0);
        let s1 = a.addr(Region::VertexStates, 1);
        assert_eq!(s1 - s0, 4);
        let o0 = a.addr(Region::OffsetArray, 0);
        let o1 = a.addr(Region::OffsetArray, 1);
        assert_eq!(o1 - o0, 8);
    }

    #[test]
    fn bitvector_packs_eight_per_byte() {
        let a = AddressSpace::layout(1000, 5000, 32);
        let b0 = a.addr(Region::ActiveVertices, 0);
        assert_eq!(a.addr(Region::ActiveVertices, 7), b0);
        assert_eq!(a.addr(Region::ActiveVertices, 8), b0 + 1);
    }

    #[test]
    fn region_of_reverses_addr() {
        let a = AddressSpace::layout(1000, 5000, 32);
        for r in Region::ALL {
            let addr = a.addr(r, 3);
            assert_eq!(a.region_of(addr), Some(r), "reverse lookup failed for {r:?}");
        }
        assert_eq!(a.region_of(0), None, "page 0 is unmapped");
    }

    #[test]
    fn bases_are_page_aligned() {
        let a = AddressSpace::layout(12345, 99999, 77);
        for r in Region::ALL {
            assert_eq!(a.base(r) % PAGE, 0);
        }
    }

    #[test]
    fn hash_table_sized_by_load_factor() {
        let a = AddressSpace::layout(1 << 16, 1 << 18, 1 << 12);
        // With σ=0.75 the table region must hold ≥ entries/0.75 slots.
        let base = a.base(Region::HashTable);
        let next = a.base(Region::Frontier);
        assert!(next - base >= ((1 << 12) as f64 / 0.75) as u64 * 8);
    }

    #[test]
    fn region_index_is_the_discriminant() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(Region::COUNT, Region::ALL.len());
    }

    #[test]
    fn region_obs_keys_are_prefixed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for r in Region::ALL {
            assert!(r.obs_key().starts_with(tdgraph_obs::keys::REGION_PREFIX), "{r:?}");
            assert!(seen.insert(r.obs_key()), "duplicate key for {r:?}");
        }
    }

    #[test]
    fn empty_graph_layout_is_valid() {
        let a = AddressSpace::layout(0, 0, 0);
        assert!(a.addr(Region::VertexStates, 0) > 0);
    }
}

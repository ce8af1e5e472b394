//! Property tests over the raw machine-model components — mesh distance,
//! address-space layout, cache residency — plus configuration validation.
//! These exercise simulator internals below the `tdgraph::prelude`
//! stability boundary, so they live with the crate that owns them.

use proptest::prelude::*;

use tdgraph_sim::address::{AddressSpace, Region};
use tdgraph_sim::cache::SetAssocCache;
use tdgraph_sim::machine::Machine;
use tdgraph_sim::noc::Mesh;
use tdgraph_sim::policy::PolicyKind;
use tdgraph_sim::SimConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mesh_hops_form_a_metric(dim in 1usize..12, a in 0usize..144, b in 0usize..144, c in 0usize..144) {
        let mesh = Mesh::new(dim, 3);
        let (a, b, c) = (a % mesh.tiles(), b % mesh.tiles(), c % mesh.tiles());
        // Symmetry, identity, triangle inequality.
        prop_assert_eq!(mesh.hops(a, b), mesh.hops(b, a));
        prop_assert_eq!(mesh.hops(a, a), 0);
        prop_assert!(mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c));
    }

    #[test]
    fn address_space_regions_roundtrip(
        vertices in 1usize..100_000,
        edges in 1usize..500_000,
        hot in 1usize..1024,
        index in 0u64..64,
    ) {
        let a = AddressSpace::layout(vertices, edges, hot);
        for r in Region::ALL {
            let addr = a.addr(r, index);
            prop_assert!(addr < a.total_bytes());
            prop_assert_eq!(a.region_of(addr), Some(r));
        }
    }

    #[test]
    fn cache_contains_agrees_with_access_outcome(
        lines in proptest::collection::vec(0u64..256, 1..200),
        sets in 1usize..16,
        ways in 1usize..8,
    ) {
        let mut c = SetAssocCache::new(sets, ways, PolicyKind::Lru);
        let mut resident = std::collections::HashSet::new();
        for &l in &lines {
            let out = c.access(l, false, Region::VertexStates);
            // A hit must have been predicted by our resident model; a line
            // the model says is absent must miss.
            prop_assert_eq!(out.hit, resident.contains(&l));
            resident.insert(l);
            if let Some(ev) = out.evicted {
                prop_assert!(resident.remove(&ev.line), "evicted a non-resident line");
            }
            prop_assert!(c.contains(l));
        }
        // The model and the cache agree on every line's residency.
        for l in 0u64..256 {
            prop_assert_eq!(c.contains(l), resident.contains(&l));
        }
    }
}

/// The mesh's bank hash, hop count and cycle charges equal their plain
/// division formulas for every tile pair (and ids up to twice the tile
/// count, which wrap) at dims 1–12, over 10 k lines and a few huge ones.
#[test]
fn mesh_arithmetic_matches_the_division_formulas() {
    const HOP: u64 = 3;
    for dim in 1usize..=12 {
        let mesh = Mesh::new(dim, HOP);
        let tiles = dim * dim;
        let coords = |t: usize| ((t % tiles) % dim, (t % tiles) / dim);
        let hops = |a: usize, b: usize| {
            let ((ax, ay), (bx, by)) = (coords(a), coords(b));
            (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
        };
        for a in 0..2 * tiles {
            for b in 0..2 * tiles {
                assert_eq!(mesh.hops(a, b), hops(a, b), "dim {dim} hops({a}, {b})");
                assert_eq!(mesh.one_way_cycles(a, b), hops(a, b) * HOP, "dim {dim}");
            }
        }
        let huge = [u64::MAX, u64::MAX - 1, 1 << 40, (1 << 58) - 1];
        for line in (0..10_000u64).chain(huge) {
            let bank = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % tiles;
            assert_eq!(mesh.bank_of(line), bank, "dim {dim} line {line}");
            let core = line as usize % tiles;
            let round_trip = 2 * hops(core, bank) * HOP;
            assert_eq!(mesh.round_trip_cycles(core, line), round_trip, "dim {dim} line {line}");
        }
    }
}

#[test]
fn invalid_machine_configurations_panic() {
    // Mesh too small for the cores.
    assert!(std::panic::catch_unwind(|| {
        let mut cfg = SimConfig::table1();
        cfg.mesh_dim = 3;
        Machine::new(cfg, AddressSpace::layout(16, 16, 4))
    })
    .is_err());
    // More cores than the 64-bit directory mask supports.
    assert!(std::panic::catch_unwind(|| {
        let mut cfg = SimConfig::table1();
        cfg.cores = 65;
        cfg.mesh_dim = 9;
        Machine::new(cfg, AddressSpace::layout(16, 16, 4))
    })
    .is_err());
}

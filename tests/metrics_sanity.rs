//! Sanity relations over the collected metrics — the quantities the
//! figures plot must be internally consistent and directionally sound.

use tdgraph::prelude::*;
use tdgraph::sim::Region;

fn experiment() -> Experiment {
    Experiment::new(Dataset::Dblp).sizing(Sizing::Tiny).options(RunConfig {
        sim: SimConfig::small_test(),
        batches: 2,
        ..RunConfig::default()
    })
}

#[test]
fn time_breakdown_sums_to_total() {
    for kind in [EngineKind::LigraO, EngineKind::TdGraphH, EngineKind::Hats] {
        let m = experiment().run(kind).metrics;
        assert_eq!(m.cycles, m.propagation_cycles + m.other_cycles, "{kind:?}");
    }
}

#[test]
fn ratios_are_fractions() {
    for kind in [EngineKind::LigraO, EngineKind::TdGraphH, EngineKind::JetStream] {
        let m = experiment().run(kind).metrics;
        assert!((0.0..=1.0).contains(&m.llc_miss_rate), "{kind:?} miss rate");
        assert!((0.0..=1.0).contains(&m.useful_state_ratio), "{kind:?} useful ratio");
        assert!((0.0..=1.0).contains(&m.useless_update_ratio()), "{kind:?} useless ratio");
        assert!(m.useful_updates <= m.state_updates, "{kind:?} updates");
    }
}

#[test]
fn the_run_alpha_sizes_the_vscu() {
    // AZ Tiny, PageRank, the 4-core machine, 2 batches: a larger run α
    // installs more hot vertices, so more state accesses are coalesced.
    let run = |alpha: f64| {
        Experiment::new(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .algorithm(Algo::pagerank())
            .options(RunConfig::small().with_alpha(alpha))
            .run(EngineKind::TdGraphH)
            .metrics
    };
    for (alpha, cycles, coalesced) in [(0.005, 89_046, 265), (0.02, 89_667, 840)] {
        let m = run(alpha);
        assert_eq!(m.cycles, cycles, "alpha {alpha}");
        assert_eq!(m.machine.per_region(Region::CoalescedStates), coalesced, "alpha {alpha}");
    }
}

#[test]
fn dram_traffic_is_line_granular_and_consistent() {
    let m = experiment().run(EngineKind::LigraO).metrics;
    assert_eq!(m.dram_bytes % 64, 0, "DRAM moves whole lines");
    assert!(m.dram_reads * 64 <= m.dram_bytes, "reads are part of total bytes");
    assert!(m.energy.total_nj() > 0.0);
    assert!(m.energy.dram_nj > 0.0);
}

#[test]
fn cache_hit_counters_do_not_exceed_accesses() {
    // Every access ends at exactly one level, every LLC miss is one DRAM
    // read, and every access has one region — serial and sharded alike.
    let engines =
        [EngineKind::LigraO, EngineKind::TdGraphH, EngineKind::TdGraphS, EngineKind::JetStream];
    for exec in [ExecConfig::serial(), ExecConfig::serial().shards(2)] {
        for kind in engines {
            let m = experiment().tune(|o| o.exec = exec).run(kind).metrics;
            let s = &m.machine;
            let at = format!("{kind:?} {}", exec.label());
            assert_eq!(s.l1_hits + s.l2_hits + s.llc_hits + s.llc_misses, s.accesses, "{at}");
            assert_eq!(s.llc_misses, m.dram_reads, "{at}");
            let per_region: u64 = Region::ALL.iter().map(|&r| s.per_region(r)).sum();
            assert_eq!(per_region, s.accesses, "{at}");
        }
    }
}

#[test]
fn tdgraph_reduces_useless_updates_on_accumulative() {
    // The headline mechanism: on PageRank the synchronized order must not
    // perform more updates than the round-based baseline.
    let e = experiment().algorithm(Algo::pagerank());
    let baseline = e.run(EngineKind::LigraO).metrics;
    let tdgraph = e.run(EngineKind::TdGraphH).metrics;
    assert!(
        tdgraph.state_updates as f64 <= baseline.state_updates as f64 * 1.1,
        "TDGraph-H updates {} should not exceed Ligra-o {} (+10% slack)",
        tdgraph.state_updates,
        baseline.state_updates
    );
}

#[test]
fn accelerator_latency_hiding_shows_in_propagation_time() {
    // TDGraph-H runs the traversal on the accelerator: its propagation
    // share of time must be below the software TDGraph-S's.
    let e = experiment();
    let hw = e.run(EngineKind::TdGraphH).metrics;
    let sw = e.run(EngineKind::TdGraphS).metrics;
    assert!(hw.cycles < sw.cycles, "hardware {} vs software {}", hw.cycles, sw.cycles);
}

#[test]
fn speedup_and_perf_per_watt_helpers_are_consistent() {
    let e = experiment();
    let a = e.run(EngineKind::LigraO).metrics;
    let b = e.run(EngineKind::TdGraphH).metrics;
    let s = b.speedup_over(&a);
    assert!((s - a.cycles as f64 / b.cycles as f64).abs() < 1e-9);
    assert!(b.perf_per_watt_over(&a) > 0.0);
}

#[test]
fn bandwidth_starvation_increases_cycles() {
    let base = experiment().run(EngineKind::LigraO).metrics.cycles;
    let starved =
        experiment().tune(|o| o.sim.memory.channels = 1).run(EngineKind::LigraO).metrics.cycles;
    assert!(starved >= base, "fewer channels cannot speed the run up");
}

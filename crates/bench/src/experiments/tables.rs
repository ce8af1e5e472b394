//! Tables 1–3 of the paper.

use tdgraph::graph::datasets::{Dataset, StreamingWorkload};
use tdgraph::graph::store::GraphStore;
use tdgraph::SweepRunner;
use tdgraph_accel::area;
use tdgraph_sim::SimConfig;

use super::{ExperimentId, ExperimentOutput, Scope};

/// Table 1: the simulated system configuration.
#[must_use]
pub fn table1() -> ExperimentOutput {
    let c = SimConfig::table1();
    let s = SimConfig::scaled_reference();
    let lines = vec![
        format!("{:<22} {}", "Cores", format!("{} cores, x86-64-like, {} GHz, OOO cost model", c.cores, c.freq_ghz)),
        format!("{:<22} {} KB per-core, {}-way, {}-cycle latency", "L1 Data Cache", c.l1d.size_bytes / 1024, c.l1d.ways, c.l1d.latency),
        format!("{:<22} {} KB private per-core, {}-way, {}-cycle latency", "L2 cache", c.l2.size_bytes / 1024, c.l2.ways, c.l2.latency),
        format!("{:<22} {} MB shared, {}-way, {}-cycle bank latency, DRRIP", "L3 cache", c.llc.size_bytes / (1024 * 1024), c.llc.ways, c.llc.latency),
        format!("{:<22} {}x{} mesh, X-Y routing, {} cycles/hop", "Global NoC", c.mesh_dim, c.mesh_dim, c.hop_cycles),
        format!("{:<22} directory-based invalidation, 64 B lines", "Coherence"),
        format!("{:<22} {}-channel DDR4-3200-class, {:.1} B/cycle peak", "Memory", c.memory.channels, c.memory.peak_bytes_per_cycle()),
        String::new(),
        format!(
            "scaled_reference (used with the scaled datasets, DESIGN.md §3): L1 {} KB, L2 {} KB, LLC {} KB",
            s.l1d.size_bytes / 1024,
            s.l2.size_bytes / 1024,
            s.llc.size_bytes / 1024
        ),
    ];
    ExperimentOutput {
        id: ExperimentId::Table1,
        title: "Configuration of the simulated system".into(),
        lines,
    }
}

/// Table 2: paper dataset statistics next to the generated stand-ins.
#[must_use]
pub fn table2(scope: Scope) -> ExperimentOutput {
    let sizing = scope.sweep_sizing();
    let mut lines = vec![format!(
        "{:<14} {:>11} {:>13} {:>4} {:>4} | {:>9} {:>10} {:>5} {:>5} {:>6} {:>8}",
        "dataset",
        "paper |V|",
        "paper |E|",
        "d",
        "Dbar",
        "gen |V|",
        "gen |E|",
        "d",
        "Dbar",
        "gini",
        "top0.5%"
    )];
    // Each dataset's statistics are independent, so they are computed
    // across the runner's worker pool; `map` keeps the rows in
    // `Dataset::ALL` order.
    lines.extend(SweepRunner::new().map(&Dataset::ALL, |_, &d| {
        let p = d.paper_stats();
        let w = StreamingWorkload::prepare(d, sizing);
        // Statistics of the full generated graph (loaded + pending).
        let mut g = w.graph.clone();
        g.insert_edges(w.pending.iter().copied()).expect("pending edges are in bounds");
        let snap = g.snapshot();
        let skew = tdgraph::graph::stats::degree_stats(&snap);
        format!(
            "{:<14} {:>11} {:>13} {:>4} {:>4} | {:>9} {:>10} {:>5} {:>5.1} {:>6.2} {:>7.1}%",
            format!("{} ({})", p.name, d.abbrev()),
            p.vertices,
            p.edges,
            p.diameter,
            p.avg_degree,
            snap.vertex_count(),
            snap.edge_count(),
            snap.approximate_diameter(),
            snap.average_degree(),
            skew.gini,
            100.0 * skew.top_half_pct_edge_share,
        )
    }));
    lines.push(String::new());
    lines.push(format!(
        "generated at {sizing:?} sizing; relative size/density/diameter ordering tracks the paper"
    ));
    ExperimentOutput {
        id: ExperimentId::Table2,
        title: "Characteristic statistics of datasets (paper vs generated)".into(),
        lines,
    }
}

/// Table 3: power and area cost of the accelerators.
#[must_use]
pub fn table3() -> ExperimentOutput {
    let mut lines = vec![format!(
        "{:<10} {:>10} {:>8} {:>11} {:>8} | {:>10} {:>11}",
        "engine", "power mW", "%TDP", "area mm^2", "%core", "paper mW", "paper mm^2"
    )];
    for (budget, paper) in area::table3() {
        lines.push(format!(
            "{:<10} {:>10.0} {:>7.2}% {:>11.4} {:>7.2}% | {:>10.0} {:>11.3}",
            budget.name,
            budget.power_mw(),
            100.0 * budget.tdp_fraction(),
            budget.area_mm2(),
            100.0 * budget.core_fraction(),
            paper.power_mw,
            paper.area_mm2,
        ));
    }
    lines.push(String::new());
    lines.push(format!(
        "component model: {:.4} mm^2/Kbit, {:.4} mm^2/Kgate, {:.1} mW/Kbit, {:.1} mW/Kgate",
        area::MM2_PER_KBIT,
        area::MM2_PER_KGATE,
        area::MW_PER_KBIT,
        area::MW_PER_KGATE
    ));
    ExperimentOutput {
        id: ExperimentId::Table3,
        title: "Power and area cost of different accelerators".into(),
        lines,
    }
}

//! Experiment runners, one per table/figure of the paper (see the
//! per-experiment index in DESIGN.md §4).

mod ablation;
mod fig03;
mod fig04;
mod fig10;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod fig18;
mod fig19;
mod fig20;
mod fig21;
mod fig22;
mod fig23;
mod fig24;
mod parallel;
mod scaleout;
mod tables;

pub use scaleout::worker_entry as fleet_worker_entry;

use tdgraph::graph::datasets::Sizing;
use tdgraph::RunConfig;
use tdgraph_sim::SimConfig;

/// Identifier of a reproducible table or figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table 1: simulated system configuration.
    Table1,
    /// Table 2: dataset statistics, paper vs generated.
    Table2,
    /// Table 3: accelerator power and area.
    Table3,
    /// Fig 3: software systems — breakdown, useless updates, useful data.
    Fig03,
    /// Fig 4: the two observations (propagation overlap, access skew).
    Fig04,
    /// Figs 10–12: Ligra-o vs TDGraph-S vs TDGraph-H across all benchmarks
    /// (execution time + breakdown, update counts, useful-state ratios).
    Fig10,
    /// Fig 13: VSCU ablation (TDGraph-H-without vs TDGraph-H).
    Fig13,
    /// Fig 14: native (host) software-only run.
    Fig14,
    /// Fig 15: comparison with HATS, Minnow, PHI, DepGraph (+Perf/Watt).
    Fig15,
    /// Figs 16–17: JetStream comparison (traffic and time).
    Fig16,
    /// Fig 18: GRASP interaction.
    Fig18,
    /// Fig 19: energy breakdown.
    Fig19,
    /// Fig 20: memory-bandwidth sensitivity.
    Fig20,
    /// Fig 21: stack-depth sensitivity.
    Fig21,
    /// Fig 22: α sensitivity.
    Fig22,
    /// Fig 23: LLC size × replacement policy.
    Fig23,
    /// Fig 24: batch size and composition sensitivity.
    Fig24,
    /// Ablation of this reproduction's cycle-handling decisions.
    Ablation,
    /// Host-parallel sharded execution: intra-cell speedup, cells/sec,
    /// merge overhead (emits `BENCH_parallel.json`).
    Parallel,
    /// Multi-process scale-out: fleet sweep throughput at 1/2/4 worker
    /// processes with a byte-identity divergence gate (emits
    /// `BENCH_scaleout.json`).
    Scaleout,
}

impl ExperimentId {
    /// Every experiment, in paper order.
    pub const ALL: [ExperimentId; 20] = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Table3,
        ExperimentId::Fig03,
        ExperimentId::Fig04,
        ExperimentId::Fig10,
        ExperimentId::Fig13,
        ExperimentId::Fig14,
        ExperimentId::Fig15,
        ExperimentId::Fig16,
        ExperimentId::Fig18,
        ExperimentId::Fig19,
        ExperimentId::Fig20,
        ExperimentId::Fig21,
        ExperimentId::Fig22,
        ExperimentId::Fig23,
        ExperimentId::Fig24,
        ExperimentId::Ablation,
        ExperimentId::Parallel,
        ExperimentId::Scaleout,
    ];

    /// CLI name (e.g. `fig10`, `table2`).
    #[must_use]
    pub fn cli_name(self) -> &'static str {
        match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::Fig03 => "fig03",
            ExperimentId::Fig04 => "fig04",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Fig15 => "fig15",
            ExperimentId::Fig16 => "fig16",
            ExperimentId::Fig18 => "fig18",
            ExperimentId::Fig19 => "fig19",
            ExperimentId::Fig20 => "fig20",
            ExperimentId::Fig21 => "fig21",
            ExperimentId::Fig22 => "fig22",
            ExperimentId::Fig23 => "fig23",
            ExperimentId::Fig24 => "fig24",
            ExperimentId::Ablation => "ablation",
            ExperimentId::Parallel => "parallel",
            ExperimentId::Scaleout => "scaleout",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn from_cli_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|id| id.cli_name() == name)
    }
}

/// How big the runs should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Small sizing, 2 batches — minutes for the full suite.
    Quick,
    /// Reference sizing for the single-dataset studies, Small for the
    /// 6-dataset sweeps — the numbers recorded in EXPERIMENTS.md.
    Full,
}

impl Scope {
    /// Sizing for sweeps across all six datasets.
    #[must_use]
    pub fn sweep_sizing(self) -> Sizing {
        match self {
            Scope::Quick => Sizing::Tiny,
            Scope::Full => Sizing::Small,
        }
    }

    /// Sizing for the single-dataset (FR) studies.
    #[must_use]
    pub fn focus_sizing(self) -> Sizing {
        match self {
            Scope::Quick => Sizing::Tiny,
            Scope::Full => Sizing::Small,
        }
    }

    /// Default run options at this scope.
    #[must_use]
    pub fn options(self) -> RunConfig {
        RunConfig { sim: SimConfig::scaled_reference(), batches: 2, ..RunConfig::default() }
    }
}

/// Output of one experiment: ready-to-print lines plus the title.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentOutput {
    /// Which experiment this is.
    pub id: ExperimentId,
    /// Human title (paper reference).
    pub title: String,
    /// Pre-formatted report lines.
    pub lines: Vec<String>,
}

impl ExperimentOutput {
    /// Renders the output as text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!("### {} — {}\n", self.id.cli_name(), self.title);
        for l in &self.lines {
            s.push_str(l);
            s.push('\n');
        }
        s
    }
}

/// Runs one experiment at the given scope.
#[must_use]
pub fn run_experiment(id: ExperimentId, scope: Scope) -> ExperimentOutput {
    match id {
        ExperimentId::Table1 => tables::table1(),
        ExperimentId::Table2 => tables::table2(scope),
        ExperimentId::Table3 => tables::table3(),
        ExperimentId::Fig03 => fig03::run(scope),
        ExperimentId::Fig04 => fig04::run(scope),
        ExperimentId::Fig10 => fig10::run(scope),
        ExperimentId::Fig13 => fig13::run(scope),
        ExperimentId::Fig14 => fig14::run(scope),
        ExperimentId::Fig15 => fig15::run(scope),
        ExperimentId::Fig16 => fig16::run(scope),
        ExperimentId::Fig18 => fig18::run(scope),
        ExperimentId::Fig19 => fig19::run(scope),
        ExperimentId::Fig20 => fig20::run(scope),
        ExperimentId::Fig21 => fig21::run(scope),
        ExperimentId::Fig22 => fig22::run(scope),
        ExperimentId::Fig23 => fig23::run(scope),
        ExperimentId::Fig24 => fig24::run(scope),
        ExperimentId::Ablation => ablation::run(scope),
        ExperimentId::Parallel => parallel::run(scope),
        ExperimentId::Scaleout => scaleout::run(scope),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_names_roundtrip() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::from_cli_name(id.cli_name()), Some(id));
        }
        assert_eq!(ExperimentId::from_cli_name("nope"), None);
    }

    #[test]
    fn tables_render_without_running_simulations() {
        let t1 = run_experiment(ExperimentId::Table1, Scope::Quick);
        assert!(t1.render().contains("64"));
        let t3 = run_experiment(ExperimentId::Table3, Scope::Quick);
        assert!(t3.render().contains("TDGraph"));
    }
}

//! `tdgraph-sweepd` — the fault-tolerant multi-process sweep executor.
//!
//! One binary, three modes sharing one spec grammar, so a worker always
//! expands the exact grid its coordinator did (the hello handshake
//! double-checks with a digest):
//!
//! ```text
//! tdgraph-sweepd [SPEC] [COORDINATOR FLAGS]     # default: fleet mode
//! tdgraph-sweepd [SPEC] --serial                # in-process SweepRunner
//! tdgraph-sweepd [SPEC] --worker …              # spawned internally
//!
//! Spec (identical across modes):
//!   --datasets AZ,DL         datasets by abbreviation or name (default AZ)
//!   --sizing tiny|small|reference
//!   --engines k1,k2          registry keys (default ligra-o,tdgraph-h)
//!   --algo sssp|pagerank|cc|adsorption   repeatable, in flag order;
//!                            default hub SSSP
//!   --seeds 1,2              seed override axis
//!   --batches N              streaming batches per cell
//!   --small-sim              CI-scale machine model (SimConfig::small_test)
//!
//! Coordinator:
//!   --workers N              worker-process count (default 2)
//!   --heartbeat-ms MS        worker heartbeat period
//!   --lease-ttl-ms MS        lease expiry (wedged-worker detection)
//!   --max-cell-attempts N    remote attempts before inline fallback
//!   --respawn-budget N       worker respawns after the initial fleet
//!   --checkpoint PATH        durable checkpoint (+ lease log and lock in
//!                            fleet mode); a relaunch in either mode
//!                            resumes from it
//!   --observe                merge per-cell obs snapshots (printed last)
//!   --chaos-seed S --chaos-kills K --chaos-wedges W   seeded process chaos
//!
//! Worker (spawned by the coordinator, not for humans):
//!   --worker --heartbeat-ms MS
//!   [--die-after-cells K --die-point before|after | --wedge-after-cells K]
//! ```
//!
//! A flag's value never starts with `--`: `--checkpoint --observe` lacks
//! a checkpoint path, which is an error.
//!
//! A worker talks to its coordinator over its own stdin and stdout: `run`
//! requests come in, heartbeats and cell results go out, and EOF on stdin
//! ends it. The coordinator drains a worker by closing the pipe, and a
//! killed coordinator closes it too, so no orphan waits for work.
//!
//! In the other two modes stdout is the determinism surface: the report's
//! canonical lines, then (with `--observe`) the merged snapshot line. A
//! fleet run — any worker count, under chaos, across coordinator restarts
//! — prints byte-for-byte what `--serial` prints. Both modes keep the
//! checkpoint through one ledger, which writes each completed cell once,
//! in cell-index order, so a fleet's checkpoint is a `--serial` run's byte
//! for byte. A `--serial` relaunch over its own checkpoint prints the same
//! canonical lines, but its merged snapshot holds only the headline
//! counters of the cells it restored: a checkpoint line carries no
//! snapshot. Progress and fleet statistics go to stderr.

use std::process::ExitCode;
use std::time::Duration;

use tdgraph::graph::datasets::{Dataset, Sizing};
use tdgraph::sim::SimConfig;
use tdgraph::{
    run_fleet, run_worker, AlgoSel, FleetConfig, KillPoint, ProcessFaultPlan, SelfExecSpawner,
    SweepReport, SweepRunner, SweepSpec, WorkerDirective,
};

enum Mode {
    Coordinator,
    Serial,
    Worker(WorkerDirective),
}

struct Flags {
    spec: SweepSpec,
    /// The spec portion of argv, re-sent verbatim to every worker.
    spec_args: Vec<String>,
    mode: Mode,
    fleet: FleetConfig,
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut spec = SweepSpec::new().sizing(Sizing::Tiny);
    let mut spec_args: Vec<String> = Vec::new();
    let mut datasets: Vec<Dataset> = Vec::new();
    let mut engines: Vec<String> = Vec::new();
    let mut algos: Vec<AlgoSel> = Vec::new();
    let mut batches: Option<usize> = None;
    let mut small_sim = false;

    let mut serial = false;
    let mut worker = false;
    let mut die_after: Option<u32> = None;
    let mut die_point = KillPoint::After;
    let mut wedge_after: Option<u32> = None;

    let mut fleet = FleetConfig::default();
    let mut chaos_seed: u64 = 0;
    let mut chaos_kills: u32 = 0;
    let mut chaos_wedges: u32 = 0;

    // Spec flags are recorded verbatim into `spec_args` so workers
    // re-expand the same grid the coordinator leased from.
    const SPEC_FLAGS: [&str; 6] =
        ["--datasets", "--sizing", "--engines", "--algo", "--seeds", "--batches"];
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        // A value is never a flag: `--checkpoint --observe` lacks a value;
        // it does not name a checkpoint file `--observe`.
        let mut value = |flag: &str| -> Result<String, String> {
            i += 1;
            let v = args
                .get(i)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            if SPEC_FLAGS.contains(&flag) {
                spec_args.push(flag.to_string());
                spec_args.push(v.clone());
            }
            Ok(v)
        };
        match arg.as_str() {
            "--datasets" => {
                for part in value("--datasets")?.split(',') {
                    let part = part.trim();
                    datasets.push(Dataset::from_name(part).ok_or_else(|| {
                        format!("unknown dataset {part:?} (use AZ, DL, GL, LJ, OR, FR)")
                    })?);
                }
            }
            "--sizing" => {
                let v = value("--sizing")?;
                let sizing = Sizing::from_name(&v)
                    .ok_or_else(|| format!("unknown sizing {v:?} (use tiny, small, reference)"))?;
                spec = spec.sizing(sizing);
            }
            "--engines" => {
                engines.extend(value("--engines")?.split(',').map(|s| s.trim().to_string()));
            }
            "--algo" => {
                let v = value("--algo")?;
                algos.push(AlgoSel::from_name(&v).ok_or_else(|| format!("unknown algo {v:?}"))?);
            }
            "--seeds" => {
                let mut seeds = Vec::new();
                for part in value("--seeds")?.split(',') {
                    seeds.push(parse_num::<u64>(part.trim())?);
                }
                spec = spec.seeds(seeds);
            }
            "--batches" => batches = Some(parse_num(&value("--batches")?)?),
            "--small-sim" => {
                small_sim = true;
                spec_args.push("--small-sim".to_string());
            }

            "--serial" => serial = true,
            "--worker" => worker = true,
            "--heartbeat-ms" => {
                fleet.heartbeat = Duration::from_millis(parse_num(&value("--heartbeat-ms")?)?);
            }
            "--die-after-cells" => die_after = Some(parse_num(&value("--die-after-cells")?)?),
            "--die-point" => {
                die_point = match value("--die-point")?.as_str() {
                    "before" => KillPoint::Before,
                    "after" => KillPoint::After,
                    other => {
                        return Err(format!("--die-point must be before or after, got {other:?}"))
                    }
                };
            }
            "--wedge-after-cells" => wedge_after = Some(parse_num(&value("--wedge-after-cells")?)?),

            "--workers" => fleet.workers = parse_num(&value("--workers")?)?,
            "--lease-ttl-ms" => {
                fleet.lease_ttl = Duration::from_millis(parse_num(&value("--lease-ttl-ms")?)?);
            }
            "--max-cell-attempts" => {
                fleet = fleet.max_cell_attempts(parse_num(&value("--max-cell-attempts")?)?);
            }
            "--respawn-budget" => fleet.respawn_budget = parse_num(&value("--respawn-budget")?)?,
            "--checkpoint" => fleet = fleet.checkpoint_to(value("--checkpoint")?),
            "--observe" => fleet.observe = true,
            "--chaos-seed" => chaos_seed = parse_num(&value("--chaos-seed")?)?,
            "--chaos-kills" => chaos_kills = parse_num(&value("--chaos-kills")?)?,
            "--chaos-wedges" => chaos_wedges = parse_num(&value("--chaos-wedges")?)?,

            flag => return Err(format!("unknown flag {flag}")),
        }
        i += 1;
    }

    if datasets.is_empty() {
        datasets.push(Dataset::Amazon);
        spec_args.push("--datasets".to_string());
        spec_args.push("AZ".to_string());
    }
    spec = spec.datasets(datasets);
    if engines.is_empty() {
        engines.push("ligra-o".to_string());
        engines.push("tdgraph-h".to_string());
        spec_args.push("--engines".to_string());
        spec_args.push("ligra-o,tdgraph-h".to_string());
    }
    for key in engines {
        spec = spec.engine(key.as_str());
    }
    spec = spec.algos(algos);
    spec = spec.tune(|o| {
        if small_sim {
            o.sim = SimConfig::small_test();
        }
        if let Some(b) = batches {
            o.batches = b;
        }
    });

    if chaos_kills > 0 || chaos_wedges > 0 {
        fleet = fleet.chaos(ProcessFaultPlan::seeded(chaos_seed, chaos_kills, chaos_wedges));
    }

    let mode = if worker {
        Mode::Worker(match (die_after, wedge_after) {
            (Some(after_cells), _) => WorkerDirective::Kill { after_cells, point: die_point },
            (None, Some(after_cells)) => WorkerDirective::Wedge { after_cells },
            (None, None) => WorkerDirective::Clean,
        })
    } else if serial {
        Mode::Serial
    } else {
        Mode::Coordinator
    };
    Ok(Flags { spec, spec_args, mode, fleet })
}

/// Prints the determinism surface: canonical lines, then the merged
/// snapshot when observing.
fn print_report(report: &SweepReport) {
    print!("{}", report.canonical_lines());
    if let Some(obs) = &report.obs {
        println!("{}", obs.canonical_json_line());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tdgraph-sweepd: {e}");
            return ExitCode::FAILURE;
        }
    };
    match flags.mode {
        Mode::Worker(directive) => {
            run_worker(&flags.spec, flags.fleet.heartbeat, directive);
            ExitCode::SUCCESS
        }
        Mode::Serial => {
            let mut runner = SweepRunner::new().threads(1).observe(flags.fleet.observe);
            if let Some(path) = &flags.fleet.checkpoint {
                runner = runner.checkpoint_to(path);
            }
            eprintln!("tdgraph-sweepd: serial sweep of {} cells", flags.spec.cell_count());
            let report = match runner.try_run(&flags.spec) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("tdgraph-sweepd: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print_report(&report);
            if report.all_ok() {
                ExitCode::SUCCESS
            } else {
                eprintln!("tdgraph-sweepd: failures:\n{}", report.failure_digest());
                ExitCode::FAILURE
            }
        }
        Mode::Coordinator => {
            eprintln!(
                "tdgraph-sweepd: coordinating {} workers over {} cells",
                flags.fleet.workers,
                flags.spec.cell_count()
            );
            let mut spawner = SelfExecSpawner::new(flags.spec_args.clone());
            match run_fleet(&flags.spec, &flags.fleet, &mut spawner) {
                Ok(outcome) => {
                    print_report(&outcome.report);
                    let s = outcome.stats;
                    eprintln!(
                        "tdgraph-sweepd: done remote={} inline={} restored={} reclaims={}+{} \
                         deaths={} respawns={} stale={}",
                        s.cells_remote,
                        s.cells_inline,
                        s.cells_restored,
                        s.reclaims_dead,
                        s.reclaims_expired,
                        s.worker_deaths,
                        s.respawns,
                        s.stale_results,
                    );
                    if outcome.report.all_ok() {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("tdgraph-sweepd: failures:\n{}", outcome.report.failure_digest());
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("tdgraph-sweepd: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use tdgraph::ExperimentCell;

    use super::*;

    /// Whether parsed flags hold the value a case's flags set.
    type Reached = fn(&Flags) -> bool;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|a| (*a).to_string()).collect::<Vec<_>>())
    }

    /// One coordinate of every cell the parsed spec expands to.
    fn axis<T>(flags: &Flags, of: fn(&ExperimentCell) -> T) -> Vec<T> {
        flags.spec.expand().iter().map(of).collect()
    }

    fn directive(flags: &Flags) -> Option<WorkerDirective> {
        match flags.mode {
            Mode::Worker(directive) => Some(directive),
            Mode::Coordinator | Mode::Serial => None,
        }
    }

    #[test]
    fn algo_flags_expand_in_command_line_order() {
        let args: Vec<String> =
            ["--algo", "pagerank", "--algo", "sssp", "--engines", "ligra-o", "--serial"]
                .map(String::from)
                .to_vec();
        let flags = parse_flags(&args).unwrap();
        let labels: Vec<&str> = flags.spec.expand().iter().map(|c| c.algo.label()).collect();
        assert_eq!(labels, ["PageRank", "SSSP"]);
    }

    #[test]
    fn each_flag_reaches_its_field() {
        let cases: &[(&[&str], Reached)] = &[
            (&["--datasets", "AZ,DL"], |f| {
                axis(f, |c| c.dataset)
                    == [Dataset::Amazon, Dataset::Amazon, Dataset::Dblp, Dataset::Dblp]
            }),
            (&["--sizing", "small"], |f| axis(f, |c| c.sizing) == [Sizing::Small; 2]),
            (&["--engines", "tdgraph-s"], |f| {
                axis(f, |c| c.engine.key().to_string()) == ["tdgraph-s"]
            }),
            (&["--algo", "cc"], |f| axis(f, |c| c.algo.label()) == ["CC"; 2]),
            (&["--seeds", "4,5"], |f| axis(f, |c| c.options.seed) == [4, 5, 4, 5]),
            (&["--batches", "3"], |f| axis(f, |c| c.options.batches) == [3; 2]),
            (&["--small-sim"], |f| {
                axis(f, |c| c.options.sim.clone()) == vec![SimConfig::small_test(); 2]
            }),
            (&["--workers", "3"], |f| f.fleet.workers == 3),
            (&["--heartbeat-ms", "7"], |f| f.fleet.heartbeat == Duration::from_millis(7)),
            (&["--lease-ttl-ms", "9"], |f| f.fleet.lease_ttl == Duration::from_millis(9)),
            (&["--max-cell-attempts", "4"], |f| f.fleet.max_cell_attempts == 4),
            (&["--respawn-budget", "5"], |f| f.fleet.respawn_budget == 5),
            (&["--checkpoint", "ck"], |f| f.fleet.checkpoint == Some(PathBuf::from("ck"))),
            (&["--observe"], |f| f.fleet.observe),
            (&["--chaos-seed", "3", "--chaos-kills", "1"], |f| {
                f.fleet.chaos == Some(ProcessFaultPlan::seeded(3, 1, 0))
            }),
            (&["--chaos-wedges", "2"], |f| {
                f.fleet.chaos == Some(ProcessFaultPlan::seeded(0, 0, 2))
            }),
            (&[], |f| matches!(f.mode, Mode::Coordinator) && f.fleet.chaos.is_none()),
            (&["--serial"], |f| matches!(f.mode, Mode::Serial)),
            (&["--worker"], |f| directive(f) == Some(WorkerDirective::Clean)),
            (&["--worker", "--die-after-cells", "1"], |f| {
                directive(f)
                    == Some(WorkerDirective::Kill { after_cells: 1, point: KillPoint::After })
            }),
            (&["--worker", "--die-after-cells", "2", "--die-point", "before"], |f| {
                directive(f)
                    == Some(WorkerDirective::Kill { after_cells: 2, point: KillPoint::Before })
            }),
            (&["--worker", "--wedge-after-cells", "1"], |f| {
                directive(f) == Some(WorkerDirective::Wedge { after_cells: 1 })
            }),
        ];
        for (args, reached) in cases {
            let flags = parse(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert!(reached(&flags), "{args:?} did not reach its field");
        }

        // Workers get the spec flags, and only those, verbatim.
        let flags =
            parse(&["--sizing", "small", "--workers", "3", "--seeds", "1,2", "--small-sim"])
                .unwrap();
        assert_eq!(
            flags.spec_args,
            [
                "--sizing",
                "small",
                "--seeds",
                "1,2",
                "--small-sim",
                "--datasets",
                "AZ",
                "--engines",
                "ligra-o,tdgraph-h"
            ]
        );
    }

    #[test]
    fn bad_flags_are_errors() {
        // The deleted worker-address flags are unknown. Their names are
        // spelled in two parts so a search for them finds no use.
        let connect = ["--", "connect"].concat();
        let worker_id = ["--", "worker-id"].concat();
        let unknown_connect = format!("unknown flag {connect}");
        let unknown_worker_id = format!("unknown flag {worker_id}");
        let cases: &[(&[&str], &str)] = &[
            (&["--frobnicate"], "unknown flag --frobnicate"),
            (&[&connect, "127.0.0.1:1"], &unknown_connect),
            (&["--worker", &worker_id, "3"], &unknown_worker_id),
            (&["--checkpoint", "--observe", "--serial"], "--checkpoint requires a value"),
            (&["--observe", "--batches"], "--batches requires a value"),
            (&["--workers", "many"], "invalid number \"many\""),
            (&["--seeds", "1,x"], "invalid number \"x\""),
            (&["--lease-ttl-ms", "-5"], "invalid number \"-5\""),
            (&["--die-point", "sideways"], "--die-point must be before or after, got \"sideways\""),
            (&["--datasets", "XX"], "unknown dataset \"XX\" (use AZ, DL, GL, LJ, OR, FR)"),
        ];
        for (args, want) in cases {
            assert_eq!(parse(args).err().as_deref(), Some(*want), "{args:?}");
        }
    }
}

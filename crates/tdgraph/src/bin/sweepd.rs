//! `tdgraph-sweepd` — the fault-tolerant multi-process sweep executor.
//!
//! One binary, three modes sharing one spec grammar, so a worker always
//! expands the exact grid its coordinator did (the hello handshake
//! double-checks with a digest):
//!
//! ```text
//! tdgraph-sweepd [SPEC] [COORDINATOR FLAGS]     # default: fleet mode
//! tdgraph-sweepd [SPEC] --serial                # in-process SweepRunner
//! tdgraph-sweepd [SPEC] --worker --connect A …  # spawned internally
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
//!   --checkpoint PATH        durable checkpoint + lease log + lock
//!   --observe                merge per-cell obs snapshots (printed last)
//!   --chaos-seed S --chaos-kills K --chaos-wedges W   seeded process chaos
//!
//! Worker (spawned by the coordinator, not for humans):
//!   --worker --connect ADDR --worker-id N --heartbeat-ms MS
//!   [--die-after-cells K --die-point before|after | --wedge-after-cells K]
//! ```
//!
//! stdout is the determinism surface: the report's canonical lines, then
//! (with `--observe`) the merged snapshot line. A fleet run — any worker
//! count, under chaos, across coordinator restarts — prints byte-for-byte
//! what `--serial` prints. Progress and fleet statistics go to stderr.

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
    Worker { connect: String, worker_id: u32, directive: WorkerDirective },
}

struct Flags {
    spec: SweepSpec,
    /// The spec portion of argv, re-sent verbatim to every worker.
    spec_args: Vec<String>,
    mode: Mode,
    fleet: FleetConfig,
    observe: bool,
    heartbeat: Duration,
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
    let mut connect: Option<String> = None;
    let mut worker_id: u32 = 0;
    let mut heartbeat = Duration::from_millis(25);
    let mut die_after: Option<u32> = None;
    let mut die_point = KillPoint::After;
    let mut wedge_after: Option<u32> = None;

    let mut fleet = FleetConfig::default();
    let mut observe = false;
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
        let mut value = |flag: &str| -> Result<String, String> {
            i += 1;
            let v = args.get(i).cloned().ok_or_else(|| format!("{flag} requires a value"))?;
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
            "--connect" => connect = Some(value("--connect")?),
            "--worker-id" => worker_id = parse_num(&value("--worker-id")?)?,
            "--heartbeat-ms" => {
                heartbeat = Duration::from_millis(parse_num(&value("--heartbeat-ms")?)?);
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
            "--observe" => observe = true,
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
        spec = spec.engine_named(key);
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

    fleet.heartbeat = heartbeat;
    fleet.observe = observe;
    if chaos_kills > 0 || chaos_wedges > 0 {
        fleet = fleet.chaos(ProcessFaultPlan::seeded(chaos_seed, chaos_kills, chaos_wedges));
    }

    let mode = if worker {
        let connect = connect.ok_or("--worker requires --connect")?;
        let directive = match (die_after, wedge_after) {
            (Some(after_cells), _) => WorkerDirective::Kill { after_cells, point: die_point },
            (None, Some(after_cells)) => WorkerDirective::Wedge { after_cells },
            (None, None) => WorkerDirective::Clean,
        };
        Mode::Worker { connect, worker_id, directive }
    } else if serial {
        Mode::Serial
    } else {
        Mode::Coordinator
    };
    Ok(Flags { spec, spec_args, mode, fleet, observe, heartbeat })
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
        Mode::Worker { connect, worker_id, directive } => {
            match run_worker(&flags.spec, &connect, worker_id, flags.heartbeat, directive) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("tdgraph-sweepd: worker {worker_id}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::Serial => {
            let runner = SweepRunner::new().threads(1).observe(flags.observe);
            let runner = match &flags.fleet.checkpoint {
                Some(path) => runner.checkpoint_to(path.clone()),
                None => runner,
            };
            eprintln!("tdgraph-sweepd: serial sweep of {} cells", flags.spec.cell_count());
            let report = runner.run(&flags.spec);
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
    use super::*;

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
}

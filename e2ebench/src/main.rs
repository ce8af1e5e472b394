//! End-to-end benchmark of the TDGraph reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <cell|trickle|serve|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One invocation runs one workload in its
//! own process: it generates every input from `--seed` before any clock
//! starts, drives the system only through its public surface, checks
//! every output, measures for `--seconds`, and prints a table followed by
//! one JSON result line. `--trace 0` reports the end-to-end metrics from
//! tracing-off rounds; `--trace 1` reports the per-layer split from traced
//! rounds interleaved with untraced ones. Working files live under
//! `.bench_work/` and are removed on exit, except the span dump of a
//! traced run (`.bench_work/traces/`) and the per-seed count fingerprints
//! (`.bench_work/fingerprints/`) that later runs of the same seed are
//! checked against.

mod gen;
mod offline;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// Where every run keeps its working files, relative to the working
/// directory (the repository root).
const WORK_ROOT: &str = ".bench_work";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload needs from the command line.
pub struct Ctx {
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long the measured rounds run.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// This run's working directory (removed on exit).
    pub work: PathBuf,
    /// Working root shared by runs (span dumps, fingerprints).
    pub root: PathBuf,
    /// Workload name.
    pub workload: &'static str,
}

impl Ctx {
    /// Compares `counts` with what earlier runs of this workload and seed
    /// recorded, and records them when no earlier run did: simulated and
    /// engine counts must repeat exactly across runs of one seed, traced
    /// or not.
    pub fn check_across_runs(&self, counts: &[(&'static str, u64)], out: &mut Outcome) {
        // Keyed by the executable too: a rebuilt program may legitimately
        // count differently, and its runs must not be held to old counts.
        let dir = self.root.join("fingerprints");
        let exe = std::env::current_exe().and_then(std::fs::read).map_or(0, |b| fnv1a(&b));
        let path = dir.join(format!("{}-{}-{exe:016x}.txt", self.workload, self.seed));
        let rendered: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        match std::fs::read_to_string(&path) {
            Ok(earlier) if earlier != rendered => out.problems.push(format!(
                "counts differ from an earlier run of seed {}: {earlier:?} vs {rendered:?}",
                self.seed
            )),
            Ok(_) => out.note(format!("counts match earlier runs of seed {}", self.seed)),
            Err(_) => {
                if let Err(e) =
                    std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &rendered))
                {
                    out.note(format!("could not record counts at {}: {e}", path.display()));
                }
            }
        }
    }

    /// Writes a traced run's spans to `.bench_work/traces/`.
    pub fn write_trace(&self, tracers: &[&trace::Tracer], out: &mut Outcome) {
        let dir = self.root.join("traces");
        let path = dir.join(format!("{}-{}.jsonl", self.workload, self.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for (round, tracer) in tracers.iter().enumerate() {
                tracer.write_jsonl(&mut file, round)?;
            }
            std::io::Write::flush(&mut file)
        });
        match written {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
        }
    }
}

/// 64-bit FNV-1a digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload: &'static str = match args.workload.as_str() {
        "cell" => "cell",
        "trickle" => "trickle",
        "serve" => "serve",
        "sweep" => "sweep",
        other => {
            eprintln!("e2ebench: unknown workload {other:?} (cell, trickle, serve, sweep)");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(WORK_ROOT);
    let work = root.join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work,
        root,
        workload,
    };
    let out = match workload {
        "cell" => offline::run(&offline::CELL, &ctx),
        "trickle" => offline::run(&offline::TRICKLE, &ctx),
        "serve" => serve::run(&ctx),
        _ => sweep::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    for line in &out.notes {
        println!("# {line}");
    }
    for p in out.problems.iter().take(20) {
        println!("# CHECK FAILED: {p}");
    }
    if out.problems.len() > 20 {
        println!("# ... and {} more failed checks", out.problems.len() - 20);
    }
    for name in out.missing(args.trace, workload) {
        println!("# CHECK FAILED: no value for {name}");
    }
    println!("{}", out.result_line(args.trace, workload));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload cell --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "cell".into(), seed: 7, seconds: 10, trace: true });
        assert!(parse_args(&argv("--workload cell")).is_err());
        assert!(parse_args(&argv("--workload cell --seed x")).is_err());
        assert!(parse_args(&argv("--workload cell --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload cell --seed 1 --bogus 2")).is_err());
        assert!(parse_args(&argv("--workload cell --seed")).is_err());
    }
}

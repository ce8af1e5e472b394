//! `tdgraph-served` — the continuous-ingest daemon.
//!
//! Binds the streaming service over the full engine registry (software
//! systems plus every accelerator model) and serves the JSON-lines wire
//! protocol until a client sends `{"req":"shutdown"}`.
//!
//! ```text
//! tdgraph-served [ADDR] [FLAGS]     # default 127.0.0.1:7436
//!
//!   --wal-dir DIR            durable ingest WAL; replayed on startup
//!   --batch-max-entries N    batch size close threshold
//!   --batch-deadline-ms MS   batch latency close threshold
//!   --queue-capacity N       per-tenant ingest queue bound
//!   --max-tenants N          concurrent tenant cap
//!   --entry-budget N         global overload budget (enables shedding)
//!   --retry-after-ms MS      shed reply retry hint
//!   --write-deadline-ms MS   slow-client write deadline
//!   --max-restarts N         supervision restart budget per tenant
//!   --watchdog-ms MS         per-batch wall-clock watchdog
//!   --exec-shards N          sharded-execution worker threads per session
//!                            (0 = serial; at most cores + 1)
//!   --storage KIND           graph-storage backend: csr | hybrid
//! ```
//!
//! `--exec-shards` sets the default `ExecConfig` of every tenant
//! session. It trades host wall-clock only: replies and finish reports
//! are byte-identical at every shard count. A count with more replay
//! shards than the session machine has cores is refused at startup.
//!
//! `--storage` selects the graph-storage backend for every tenant
//! session: `csr` (default) is the deterministic byte-identity baseline;
//! `hybrid` applies update batches through the degree-adaptive store in
//! O(touched vertices) and charges its layout traffic to the simulated
//! memory system. Algorithm fixpoints — and therefore finish-report
//! verification verdicts — agree across both backends.
//!
//! With `--wal-dir`, accepted lines are logged before they are queued;
//! on restart every tenant found in the directory is replayed through the
//! recorded-schedule machinery and resumes at its durable `acked` offset
//! — the finish reply is byte-identical to an uncrashed run.
//!
//! Quick session (one tenant, defaults: lenient ingest, hub-rooted SSSP
//! on the tiny Amazon workload, ligra-o):
//!
//! ```text
//! {"req":"hello","tenant":"demo","engine":"tdgraph-h"}
//! {"op":"add","src":3,"dst":9,"weight":1}
//! {"req":"flush"}
//! {"req":"finish"}
//! {"req":"shutdown"}
//! ```

use std::process::ExitCode;
use std::time::Duration;

use tdgraph::prelude::StorageKind;
use tdgraph::registry_with_defaults;
use tdgraph::serve::{OverloadPolicy, Service, ServiceConfig, SupervisionConfig, TdServer};

struct Flags {
    addr: String,
    cfg: ServiceConfig,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut addr = "127.0.0.1:7436".to_string();
    let mut cfg = ServiceConfig::default();
    let mut session = cfg.session_defaults.clone();
    let mut supervision = SupervisionConfig::default();
    let mut overload: Option<OverloadPolicy> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |flag: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--wal-dir" => cfg = cfg.with_wal_dir(value("--wal-dir")?),
            "--batch-max-entries" => {
                session =
                    session.with_batch_max_entries(parse_num(&value("--batch-max-entries")?)?);
            }
            "--batch-deadline-ms" => {
                session = session.with_batch_deadline(Duration::from_millis(parse_num(&value(
                    "--batch-deadline-ms",
                )?)?));
            }
            "--queue-capacity" => {
                cfg = cfg.with_queue_capacity(parse_num(&value("--queue-capacity")?)?);
            }
            "--max-tenants" => cfg = cfg.with_max_tenants(parse_num(&value("--max-tenants")?)?),
            "--entry-budget" => {
                let budget = parse_num(&value("--entry-budget")?)?;
                overload = Some(overload.unwrap_or_default().with_entry_budget(budget));
            }
            "--retry-after-ms" => {
                let ms = parse_num(&value("--retry-after-ms")?)?;
                overload =
                    Some(overload.unwrap_or_default().with_retry_after(Duration::from_millis(ms)));
            }
            "--write-deadline-ms" => {
                let ms = parse_num(&value("--write-deadline-ms")?)?;
                overload = Some(
                    overload
                        .unwrap_or_default()
                        .with_write_deadline(Some(Duration::from_millis(ms))),
                );
            }
            "--max-restarts" => {
                supervision = supervision.with_max_restarts(parse_num(&value("--max-restarts")?)?);
            }
            "--exec-shards" => {
                let n: usize = parse_num(&value("--exec-shards")?)?;
                session = session.tune(|run| run.exec = run.exec.shards(n));
            }
            "--storage" => {
                let raw = value("--storage")?;
                let kind = StorageKind::from_label(&raw)
                    .ok_or_else(|| format!("--storage must be csr or hybrid, got {raw:?}"))?;
                session = session.tune(|run| run.storage = kind);
            }
            "--watchdog-ms" => {
                let ms = parse_num(&value("--watchdog-ms")?)?;
                supervision = supervision.with_batch_watchdog(Duration::from_millis(ms));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional => addr = positional.to_string(),
        }
        i += 1;
    }
    cfg = cfg.with_session_defaults(session).with_supervision(supervision);
    if let Some(policy) = overload {
        cfg = cfg.with_overload(policy);
    }
    Ok(Flags { addr, cfg })
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tdgraph-served: {e}");
            return ExitCode::FAILURE;
        }
    };
    let service = match Service::new(flags.cfg, registry_with_defaults()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tdgraph-served: {e}");
            return ExitCode::FAILURE;
        }
    };
    // WAL replay happens before the listener opens: recovered tenants are
    // caught up to their durable acked offsets, then clients reconnect
    // and resume exactly there.
    match service.recover_tenants() {
        Ok(recovered) => {
            for tenant in &recovered {
                eprintln!("tdgraph-served: recovered tenant {tenant} from WAL");
            }
        }
        Err(e) => {
            eprintln!("tdgraph-served: WAL recovery: {e}");
            return ExitCode::FAILURE;
        }
    }
    let server = match TdServer::bind(service, &flags.addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tdgraph-served: bind {}: {e}", flags.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("tdgraph-served: listening on {}", server.addr());
    let reports = server.run_until_shutdown();
    for report in &reports {
        eprintln!(
            "tdgraph-served: drained tenant {} ({}, {})",
            report.tenant, report.engine, report.algo
        );
    }
    ExitCode::SUCCESS
}

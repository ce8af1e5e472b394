//! Fault-tolerant multi-process sweep execution.
//!
//! The [`SweepRunner`](crate::SweepRunner) parallelizes a sweep across
//! threads in one process; this module scales the same sweep across a
//! *fleet of worker processes* and keeps the determinism contract intact
//! while workers are killed, wedged, or never spawn at all:
//!
//! * [`run_fleet`] is the coordinator: it expands the spec, binds a
//!   loopback TCP listener, spawns workers through a [`WorkerSpawner`],
//!   and assigns cells under *leases* — wall-clock TTLs refreshed by
//!   per-cell heartbeats. A lease that expires (wedged worker) or whose
//!   worker dies (killed worker) is reclaimed and the cell deterministically
//!   re-run elsewhere, with bounded backoff; after
//!   [`FleetConfig::max_cell_attempts`] the coordinator executes the cell
//!   inline itself, so every cell always finishes exactly once.
//! * Every lease carries a monotone *fencing token*. A result reported
//!   under a stale fence — a worker that was presumed dead and wasn't —
//!   is counted ([`FleetStats::stale_results`]) and discarded, so cells
//!   are never double-counted.
//! * [`run_worker`] is the worker side: it re-expands the same spec
//!   (guarded by an expansion digest in the hello), executes assigned
//!   cells behind the sweep fault boundary, heartbeats while a cell is in
//!   flight, and ships back the cell's pre-rendered canonical line plus
//!   its observability snapshot. Report lines are re-emitted by the
//!   coordinator verbatim, which is what makes a fleet run byte-identical
//!   to a serial [`SweepRunner`](crate::SweepRunner) run.
//! * Durability: with [`FleetConfig::checkpoint_to`], accepted results
//!   are appended to a *lease log* (`<checkpoint>.leases`) immediately and
//!   to the checkpoint file strictly in cell-index order (so the
//!   checkpoint stays a byte-prefix of the serial run's). Both are
//!   [`DurableLog`]s that are never fsynced: they survive the coordinator
//!   being killed, not a machine crash. A restarted coordinator reopens
//!   both — dropping and cutting off torn tails — and re-runs only the
//!   unfinished cells. An advisory
//!   [`CoordinatorLock`] (pid file with dead-holder takeover) keeps two
//!   coordinators off the same checkpoint.
//! * [`ProcessFaultPlan`] is the seeded chaos harness: it deterministically
//!   directs which spawned workers abort mid-cell (before or after
//!   reporting) and which wedge (stop heartbeating and hang), so recovery
//!   tests exercise real process kills reproducibly.
//!
//! Everything is hand-rolled JSON lines over the same wire conventions as
//! the serve crate — the workspace carries no serde.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tdgraph_graph::durable::{DurableError, DurableLog};
use tdgraph_graph::prng::Xoshiro256StarStar;
use tdgraph_graph::wire::{json_escape_wire, lookup_str, parse_flat_object};
use tdgraph_obs::{keys, MemoryRecorder, Recorder, Snapshot};
use tdgraph_serve::{Backoff, RetryPolicy, SystemClock};

use crate::checkpoint::{
    self, bool_field, u64_field, usize_field, CheckpointLog, LoadedCheckpoint,
};
use crate::error::TdgraphError;
use crate::sweep::{
    cell_snapshot, execute_cell, plan_restored, CellOutcome, CellResult, ExperimentCell,
    OutcomeKind, RegistryHandle, SweepReport, SweepSpec,
};

/// An error in the fleet layer: spawning, wire protocol, or coordination
/// state.
#[derive(Debug)]
pub enum FleetError {
    /// An I/O operation (socket, lease log, lock file) failed.
    Io {
        /// What the coordinator or worker was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A wire message or lease-log record was malformed.
    Protocol {
        /// What was wrong with it.
        detail: String,
    },
    /// The coordinator lock is held by a live process.
    Locked {
        /// The lock file.
        path: PathBuf,
        /// Who holds it.
        detail: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io { context, source } => write!(f, "fleet i/o error {context}: {source}"),
            FleetError::Protocol { detail } => write!(f, "fleet protocol error: {detail}"),
            FleetError::Locked { path, detail } => {
                write!(f, "coordinator lock {} is {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io { source, .. } => Some(source),
            FleetError::Protocol { .. } | FleetError::Locked { .. } => None,
        }
    }
}

fn io_err(context: impl Into<String>, source: std::io::Error) -> FleetError {
    FleetError::Io { context: context.into(), source }
}

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Chaos directives
// ---------------------------------------------------------------------------

/// When a chaos-killed worker aborts relative to reporting its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Abort after executing the cell but *before* reporting it — the
    /// work is lost and the cell must be reclaimed and re-run.
    Before,
    /// Abort right *after* reporting the cell — the result survives, the
    /// worker does not.
    After,
}

/// What one spawned worker is directed to do (fleet chaos).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerDirective {
    /// Run cells until drained.
    Clean,
    /// Execute `after_cells` cells normally, then abort on the next one.
    Kill {
        /// Cells completed before the abort triggers.
        after_cells: u32,
        /// Abort before or after reporting the fatal cell.
        point: KillPoint,
    },
    /// Execute `after_cells` cells normally, then hang without
    /// heartbeating on the next assignment (a wedged process: alive but
    /// unresponsive, detected only by lease expiry).
    Wedge {
        /// Cells completed before the hang.
        after_cells: u32,
    },
}

/// A seeded, budgeted process-fault plan: of the workers spawned over the
/// fleet's lifetime, spawn indices `[0, kills)` are killed, indices
/// `[kills, kills + wedges)` wedge, and the rest run clean. Which cell the
/// fault lands on and the kill point are drawn from a PRNG derived from
/// `(seed, spawn_index)`, so the same plan replays identically while the
/// budget guarantees the sweep still terminates (respawned workers past
/// the budget run clean).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessFaultPlan {
    seed: u64,
    kills: u32,
    wedges: u32,
}

impl ProcessFaultPlan {
    /// A plan killing the first `kills` spawns and wedging the next
    /// `wedges`, with per-spawn details drawn from `seed`.
    #[must_use]
    pub fn seeded(seed: u64, kills: u32, wedges: u32) -> Self {
        Self { seed, kills, wedges }
    }

    /// The deterministic directive for the `spawn_index`-th worker spawn.
    #[must_use]
    pub fn directive_for(&self, spawn_index: u32) -> WorkerDirective {
        let stream = self
            .seed
            .wrapping_add(u64::from(spawn_index).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(1);
        let mut rng = Xoshiro256StarStar::new(stream);
        if spawn_index < self.kills {
            let after_cells = rng.next_below(2) as u32;
            let point = if rng.next_bool(0.5) { KillPoint::Before } else { KillPoint::After };
            WorkerDirective::Kill { after_cells, point }
        } else if spawn_index < self.kills.saturating_add(self.wedges) {
            WorkerDirective::Wedge { after_cells: rng.next_below(2) as u32 }
        } else {
            WorkerDirective::Clean
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Fleet execution knobs (builder-style, mirroring `SweepRunner`).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Target worker-process count.
    pub workers: u32,
    /// Worker heartbeat period while a cell is in flight.
    pub heartbeat: Duration,
    /// Lease TTL: a lease not refreshed for this long is reclaimed and
    /// its holder presumed wedged (and killed).
    pub lease_ttl: Duration,
    /// Backoff schedule for re-running reclaimed cells.
    pub retry: RetryPolicy,
    /// Remote attempts per cell before the coordinator runs it inline.
    pub max_cell_attempts: u32,
    /// Worker respawns the coordinator may spend after the initial fleet.
    pub respawn_budget: u32,
    /// Checkpoint path; also derives the lease log (`<path>.leases`) and
    /// the coordinator lock (`<path>.lock`).
    pub checkpoint: Option<PathBuf>,
    /// Merge per-cell observability snapshots into the report.
    pub observe: bool,
    /// Seeded process-chaos plan (tests only in spirit, harmless in prod).
    pub chaos: Option<ProcessFaultPlan>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            heartbeat: Duration::from_millis(25),
            lease_ttl: Duration::from_millis(800),
            retry: RetryPolicy {
                max_attempts: 5,
                base_backoff: Duration::from_millis(25),
                max_backoff: Duration::from_millis(250),
            },
            max_cell_attempts: 3,
            respawn_budget: 8,
            checkpoint: None,
            observe: false,
            chaos: None,
        }
    }
}

impl FleetConfig {
    /// Sets the worker-process count (min 1 once cells exist).
    #[must_use]
    pub fn workers(mut self, n: u32) -> Self {
        self.workers = n;
        self
    }

    /// Sets the heartbeat period.
    #[must_use]
    pub fn heartbeat(mut self, period: Duration) -> Self {
        self.heartbeat = period;
        self
    }

    /// Sets the lease TTL.
    #[must_use]
    pub fn lease_ttl(mut self, ttl: Duration) -> Self {
        self.lease_ttl = ttl;
        self
    }

    /// Sets the reclaimed-cell retry backoff policy.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets the remote attempts per cell before inline fallback.
    #[must_use]
    pub fn max_cell_attempts(mut self, n: u32) -> Self {
        self.max_cell_attempts = n.max(1);
        self
    }

    /// Sets the respawn budget.
    #[must_use]
    pub fn respawn_budget(mut self, n: u32) -> Self {
        self.respawn_budget = n;
        self
    }

    /// Checkpoints accepted cells to `path` (and the lease log next to
    /// it), enabling coordinator-restart resume.
    #[must_use]
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Enables merged observability snapshots.
    #[must_use]
    pub fn observe(mut self, enabled: bool) -> Self {
        self.observe = enabled;
        self
    }

    /// Installs a seeded process-fault plan.
    #[must_use]
    pub fn chaos(mut self, plan: ProcessFaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// What the fleet survived: coordination counters, deliberately kept
/// *outside* the byte-compared sweep snapshot (they vary with timing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Leases granted (a cell re-run counts once per lease).
    pub cells_assigned: u64,
    /// Cells whose accepted result came from a worker process.
    pub cells_remote: u64,
    /// Cells the coordinator executed inline (degradation path).
    pub cells_inline: u64,
    /// Cells restored from the checkpoint / lease log on startup.
    pub cells_restored: u64,
    /// Leases reclaimed because the holding worker died.
    pub reclaims_dead: u64,
    /// Leases reclaimed because they expired (wedged worker).
    pub reclaims_expired: u64,
    /// Worker processes lost mid-sweep.
    pub worker_deaths: u64,
    /// Workers respawned after the initial fleet.
    pub respawns: u64,
    /// Worker spawn attempts that failed outright.
    pub spawn_failures: u64,
    /// Results discarded for carrying a stale fencing token.
    pub stale_results: u64,
    /// Heartbeats accepted.
    pub heartbeats: u64,
    /// Torn tails dropped across the checkpoint and lease log.
    pub torn_tails_dropped: u64,
}

impl FleetStats {
    /// Renders the counters as an observability snapshot under the
    /// `fleet.*` keys.
    #[must_use]
    pub fn to_snapshot(&self) -> Snapshot {
        let mut mem = MemoryRecorder::new();
        mem.counter(keys::FLEET_CELLS_ASSIGNED, self.cells_assigned);
        mem.counter(keys::FLEET_CELLS_REMOTE, self.cells_remote);
        mem.counter(keys::FLEET_CELLS_INLINE, self.cells_inline);
        mem.counter(keys::FLEET_CELLS_RESTORED, self.cells_restored);
        mem.counter(keys::FLEET_RECLAIMS_DEAD, self.reclaims_dead);
        mem.counter(keys::FLEET_RECLAIMS_EXPIRED, self.reclaims_expired);
        mem.counter(keys::FLEET_WORKER_DEATHS, self.worker_deaths);
        mem.counter(keys::FLEET_RESPAWNS, self.respawns);
        mem.counter(keys::FLEET_SPAWN_FAILURES, self.spawn_failures);
        mem.counter(keys::FLEET_STALE_RESULTS, self.stale_results);
        mem.counter(keys::FLEET_HEARTBEATS, self.heartbeats);
        mem.counter(keys::FLEET_TORN_TAILS, self.torn_tails_dropped);
        mem.into_snapshot()
    }
}

/// A fleet run's results: the merged report (byte-identical to a serial
/// run of the same spec) plus the coordination stats.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The merged sweep report, cells in expansion order.
    pub report: SweepReport,
    /// What the fleet survived along the way.
    pub stats: FleetStats,
}

// ---------------------------------------------------------------------------
// Coordinator lock
// ---------------------------------------------------------------------------

/// An advisory pid-file lock keeping two coordinators off one checkpoint.
///
/// Acquisition is `create_new`; on conflict the holder pid is read and, if
/// that process is gone (`/proc/<pid>` absent), the stale lock is taken
/// over. Released on drop.
#[derive(Debug)]
pub struct CoordinatorLock {
    path: PathBuf,
}

impl CoordinatorLock {
    /// Acquires (or takes over a stale) lock at `path`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Locked`] when a live process holds it,
    /// [`FleetError::Io`] on filesystem failures.
    pub fn acquire(path: impl Into<PathBuf>) -> Result<Self, FleetError> {
        let path = path.into();
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    writeln!(file, "{}", std::process::id())
                        .and_then(|()| file.flush())
                        .map_err(|e| io_err(format!("writing lock {}", path.display()), e))?;
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path).unwrap_or_default();
                    if holder_is_live(holder.trim()) {
                        return Err(FleetError::Locked {
                            path,
                            detail: format!("held by live pid {}", holder.trim()),
                        });
                    }
                    // Dead (or unreadable) holder: take the lock over.
                    let _ = std::fs::remove_file(&path);
                }
                Err(e) => return Err(io_err(format!("acquiring lock {}", path.display()), e)),
            }
        }
        Err(FleetError::Locked { path, detail: "contended during takeover".to_string() })
    }

    /// The lock file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for CoordinatorLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether the pid recorded in a lock file belongs to a live process.
/// Without procfs we cannot tell, so we err on the side of "live".
fn holder_is_live(pid: &str) -> bool {
    let Ok(pid) = pid.parse::<u32>() else {
        return false; // garbage lock content: treat as stale
    };
    let proc_root = Path::new("/proc");
    if !proc_root.exists() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

/// The advisory lock path derived from a checkpoint path.
#[must_use]
pub fn lock_path(checkpoint: &Path) -> PathBuf {
    sibling(checkpoint, ".lock")
}

/// The lease-log path derived from a checkpoint path.
#[must_use]
pub fn lease_log_path(checkpoint: &Path) -> PathBuf {
    sibling(checkpoint, ".leases")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------

/// A finished cell as reported across the process boundary: the worker's
/// classification plus its pre-rendered canonical line and snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellReport {
    cell: usize,
    kind: OutcomeKind,
    verified: bool,
    detail: String,
    line: String,
    snapshot: String,
}

impl CellReport {
    fn of(result: &CellResult) -> Self {
        Self {
            cell: result.cell.index,
            kind: result.outcome.kind(),
            verified: result.is_verified(),
            detail: result.outcome.detail(),
            line: result.canonical_line(),
            snapshot: cell_snapshot(result).map(|s| s.canonical_json_line()).unwrap_or_default(),
        }
    }

    fn render_fields(&self) -> String {
        format!(
            "\"cell\":{},\"kind\":\"{}\",\"verified\":{},\"detail\":\"{}\",\"line\":\"{}\",\"snapshot\":\"{}\"",
            self.cell,
            self.kind.label(),
            self.verified,
            json_escape_wire(&self.detail),
            json_escape_wire(&self.line),
            json_escape_wire(&self.snapshot),
        )
    }

    fn parse_fields(fields: &[(String, String)]) -> Result<Self, String> {
        let kind_label = lookup_str(fields, "kind")?;
        let kind = OutcomeKind::from_label(&kind_label)
            .ok_or_else(|| format!("unknown outcome kind '{kind_label}'"))?;
        Ok(Self {
            cell: usize_field(fields, "cell")?,
            kind,
            verified: bool_field(fields, "verified")?,
            detail: lookup_str(fields, "detail")?,
            line: lookup_str(fields, "line")?,
            snapshot: lookup_str(fields, "snapshot")?,
        })
    }
}

/// Worker → coordinator events.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WorkerEvent {
    Hello { worker: u32, pid: u32, cells: usize, digest: u64 },
    Beat { worker: u32, cell: usize, fence: u64 },
    Done { worker: u32, fence: u64, report: CellReport },
}

impl WorkerEvent {
    fn render(&self) -> String {
        match self {
            WorkerEvent::Hello { worker, pid, cells, digest } => format!(
                "{{\"ev\":\"hello\",\"worker\":{worker},\"pid\":{pid},\"cells\":{cells},\"digest\":{digest}}}"
            ),
            WorkerEvent::Beat { worker, cell, fence } => {
                format!("{{\"ev\":\"beat\",\"worker\":{worker},\"cell\":{cell},\"fence\":{fence}}}")
            }
            WorkerEvent::Done { worker, fence, report } => format!(
                "{{\"ev\":\"done\",\"worker\":{worker},\"fence\":{fence},{}}}",
                report.render_fields()
            ),
        }
    }

    fn parse(line: &str) -> Result<Self, String> {
        let fields = parse_flat_object(line)?;
        let ev = lookup_str(&fields, "ev")?;
        let worker = u64_field(&fields, "worker")? as u32;
        match ev.as_str() {
            "hello" => Ok(WorkerEvent::Hello {
                worker,
                pid: u64_field(&fields, "pid")? as u32,
                cells: usize_field(&fields, "cells")?,
                digest: u64_field(&fields, "digest")?,
            }),
            "beat" => Ok(WorkerEvent::Beat {
                worker,
                cell: usize_field(&fields, "cell")?,
                fence: u64_field(&fields, "fence")?,
            }),
            "done" => Ok(WorkerEvent::Done {
                worker,
                fence: u64_field(&fields, "fence")?,
                report: CellReport::parse_fields(&fields)?,
            }),
            other => Err(format!("unknown worker event '{other}'")),
        }
    }
}

/// Coordinator → worker requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerRequest {
    Run { cell: usize, fence: u64 },
    Drain,
}

impl WorkerRequest {
    fn render(&self) -> String {
        match self {
            WorkerRequest::Run { cell, fence } => {
                format!("{{\"req\":\"run\",\"cell\":{cell},\"fence\":{fence}}}")
            }
            WorkerRequest::Drain => "{\"req\":\"drain\"}".to_string(),
        }
    }

    fn parse(line: &str) -> Result<Self, String> {
        let fields = parse_flat_object(line)?;
        match lookup_str(&fields, "req")?.as_str() {
            "run" => Ok(WorkerRequest::Run {
                cell: usize_field(&fields, "cell")?,
                fence: u64_field(&fields, "fence")?,
            }),
            "drain" => Ok(WorkerRequest::Drain),
            other => Err(format!("unknown request '{other}'")),
        }
    }
}

/// Lease-log records (one flat JSON line each, `"fleet"` tagged).
#[derive(Debug, Clone, PartialEq, Eq)]
enum LeaseRecord {
    Lease { cell: usize, fence: u64, worker: u32, attempt: u32 },
    Done { fence: u64, report: CellReport },
    Reclaim { cell: usize, fence: u64, reason: &'static str },
}

impl LeaseRecord {
    fn render(&self) -> String {
        match self {
            LeaseRecord::Lease { cell, fence, worker, attempt } => format!(
                "{{\"fleet\":\"lease\",\"cell\":{cell},\"fence\":{fence},\"worker\":{worker},\"attempt\":{attempt}}}"
            ),
            LeaseRecord::Done { fence, report } => {
                format!("{{\"fleet\":\"done\",\"fence\":{fence},{}}}", report.render_fields())
            }
            LeaseRecord::Reclaim { cell, fence, reason } => format!(
                "{{\"fleet\":\"reclaim\",\"cell\":{cell},\"fence\":{fence},\"reason\":\"{reason}\"}}"
            ),
        }
    }

    fn parse(line: &str) -> Result<Self, String> {
        let fields = parse_flat_object(line)?;
        match lookup_str(&fields, "fleet")?.as_str() {
            "lease" => Ok(LeaseRecord::Lease {
                cell: usize_field(&fields, "cell")?,
                fence: u64_field(&fields, "fence")?,
                worker: u64_field(&fields, "worker")? as u32,
                attempt: u64_field(&fields, "attempt")? as u32,
            }),
            "done" => Ok(LeaseRecord::Done {
                fence: u64_field(&fields, "fence")?,
                report: CellReport::parse_fields(&fields)?,
            }),
            "reclaim" => {
                // The reason is informational; normalize to a static str.
                let reason = match lookup_str(&fields, "reason")?.as_str() {
                    "dead" => "dead",
                    _ => "expired",
                };
                Ok(LeaseRecord::Reclaim {
                    cell: usize_field(&fields, "cell")?,
                    fence: u64_field(&fields, "fence")?,
                    reason,
                })
            }
            other => Err(format!("unknown lease record '{other}'")),
        }
    }
}

/// FNV-1a digest over the expanded cell coordinates; the hello handshake
/// compares it so a coordinator never leases cells to a worker whose spec
/// expanded differently.
#[must_use]
pub fn expansion_digest(cells: &[ExperimentCell]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in cells {
        for b in checkpoint::cell_coordinates(cell).bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Spawning
// ---------------------------------------------------------------------------

/// Everything a spawner needs to launch one worker process.
#[derive(Debug, Clone)]
pub struct WorkerLaunch {
    /// The worker's fleet id (== its spawn index).
    pub worker_id: u32,
    /// The coordinator's listen address.
    pub connect: SocketAddr,
    /// Heartbeat period the worker must beat at.
    pub heartbeat: Duration,
    /// The chaos directive for this spawn.
    pub directive: WorkerDirective,
}

impl WorkerLaunch {
    /// The canonical worker-mode CLI flags for this launch, appended to
    /// whatever spec flags the binary already parses.
    #[must_use]
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--worker".to_string(),
            "--connect".to_string(),
            self.connect.to_string(),
            "--worker-id".to_string(),
            self.worker_id.to_string(),
            "--heartbeat-ms".to_string(),
            self.heartbeat.as_millis().to_string(),
        ];
        match self.directive {
            WorkerDirective::Clean => {}
            WorkerDirective::Kill { after_cells, point } => {
                args.push("--die-after-cells".to_string());
                args.push(after_cells.to_string());
                args.push("--die-point".to_string());
                args.push(match point {
                    KillPoint::Before => "before".to_string(),
                    KillPoint::After => "after".to_string(),
                });
            }
            WorkerDirective::Wedge { after_cells } => {
                args.push("--wedge-after-cells".to_string());
                args.push(after_cells.to_string());
            }
        }
        args
    }
}

/// How the coordinator turns a [`WorkerLaunch`] into a live process.
/// Tests inject failing spawners to exercise graceful degradation.
pub trait WorkerSpawner {
    /// Spawns one worker process.
    ///
    /// # Errors
    ///
    /// The spawn failure; the coordinator degrades to fewer workers (and
    /// ultimately to inline execution) rather than aborting the sweep.
    fn spawn(&mut self, launch: &WorkerLaunch) -> std::io::Result<Child>;
}

/// The standard spawner: re-executes the current binary with the given
/// spec flags plus the worker-mode flags from [`WorkerLaunch::to_args`].
#[derive(Debug, Clone)]
pub struct SelfExecSpawner {
    spec_args: Vec<String>,
}

impl SelfExecSpawner {
    /// A spawner passing `spec_args` (the flags that reproduce the sweep
    /// spec) to every worker.
    #[must_use]
    pub fn new(spec_args: Vec<String>) -> Self {
        Self { spec_args }
    }
}

impl WorkerSpawner for SelfExecSpawner {
    fn spawn(&mut self, launch: &WorkerLaunch) -> std::io::Result<Child> {
        let exe = std::env::current_exe()?;
        std::process::Command::new(exe)
            .args(&self.spec_args)
            .args(launch.to_args())
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Scheduler-internal events from the accept/reader threads.
enum Event {
    Hello { worker: u32, cells: usize, digest: u64, conn: u64, stream: TcpStream },
    Beat { cell: usize, fence: u64 },
    Done { worker: u32, fence: u64, report: CellReport },
    Gone { worker: u32, conn: u64 },
}

enum CellState {
    Pending { attempts: u32, eligible_at: Instant },
    Leased { attempts: u32, fence: u64, worker: u32, expires_at: Instant },
    Finished(Box<FinishedCell>),
}

struct FinishedCell {
    outcome: CellOutcome,
    line: String,
    snapshot: Option<Snapshot>,
    retries: u32,
}

struct LiveWorker {
    stream: TcpStream,
    conn: u64,
    lease: Option<usize>,
}

struct SpawnedChild {
    child: Child,
    spawned_at: Instant,
    hello: bool,
}

fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

struct Coordinator<'a> {
    cfg: &'a FleetConfig,
    cells: &'a [ExperimentCell],
    addr: SocketAddr,
    states: Vec<CellState>,
    workers: HashMap<u32, LiveWorker>,
    children: HashMap<u32, SpawnedChild>,
    stats: FleetStats,
    fence: u64,
    next_spawn: u32,
    respawns_left: u32,
    write_errors: usize,
    frontier: usize,
    ckpt: Option<CheckpointLog>,
    leases: Option<DurableLog>,
    digest: u64,
}

impl Coordinator<'_> {
    fn remaining(&self) -> usize {
        self.states.iter().filter(|s| !matches!(s, CellState::Finished(_))).count()
    }

    fn lease_append(&mut self, record: &LeaseRecord) {
        if let Some(log) = &mut self.leases {
            if log.append(&record.render()).is_err() {
                self.write_errors += 1;
            }
        }
    }

    /// Appends finished cells to the checkpoint strictly in index order
    /// (only completed cells — mirroring the serial runner — and only
    /// past what an earlier incarnation already wrote).
    fn advance_checkpoint(&mut self) {
        while self.frontier < self.states.len() {
            let CellState::Finished(f) = &self.states[self.frontier] else { break };
            if f.outcome.kind() == OutcomeKind::Completed {
                if let Some(log) = &self.ckpt {
                    if log.append_line(&f.line).is_err() {
                        self.write_errors += 1;
                    }
                }
            }
            self.frontier += 1;
        }
    }

    fn finish(&mut self, idx: usize, cell: FinishedCell) {
        self.states[idx] = CellState::Finished(Box::new(cell));
        self.advance_checkpoint();
    }

    /// Executes a cell in the coordinator process (degradation path:
    /// spawns failed, fleet died, or a cell spent its remote attempts).
    fn run_inline(&mut self, idx: usize, attempts: u32) {
        let cell = &self.cells[idx];
        let t0 = Instant::now();
        let outcome = execute_cell(cell, &RegistryHandle::Default, None);
        let result =
            CellResult { cell: cell.clone(), outcome, wall: t0.elapsed(), retries: attempts };
        let report = CellReport::of(&result);
        self.fence += 1;
        self.lease_append(&LeaseRecord::Done { fence: self.fence, report: report.clone() });
        let snapshot = self.parse_snapshot(&report.snapshot);
        self.stats.cells_inline += 1;
        self.finish(
            idx,
            FinishedCell {
                outcome: result.outcome,
                line: report.line,
                snapshot,
                retries: attempts,
            },
        );
    }

    fn parse_snapshot(&self, rendered: &str) -> Option<Snapshot> {
        if !self.cfg.observe || rendered.is_empty() {
            return None;
        }
        Snapshot::parse_canonical(rendered).ok()
    }

    fn next_pending(&self, now: Instant) -> Option<usize> {
        self.states.iter().position(
            |s| matches!(s, CellState::Pending { eligible_at, .. } if *eligible_at <= now),
        )
    }

    fn spawn_one(&mut self, spawner: &mut dyn WorkerSpawner) {
        let id = self.next_spawn;
        self.next_spawn += 1;
        let directive =
            self.cfg.chaos.map_or(WorkerDirective::Clean, |plan| plan.directive_for(id));
        let launch = WorkerLaunch {
            worker_id: id,
            connect: self.addr,
            heartbeat: self.cfg.heartbeat,
            directive,
        };
        match spawner.spawn(&launch) {
            Ok(child) => {
                self.children
                    .insert(id, SpawnedChild { child, spawned_at: Instant::now(), hello: false });
            }
            Err(_) => self.stats.spawn_failures += 1,
        }
    }

    fn lease(&mut self, worker: u32, idx: usize, now: Instant) {
        let CellState::Pending { attempts, .. } = self.states[idx] else { return };
        self.fence += 1;
        let fence = self.fence;
        self.lease_append(&LeaseRecord::Lease { cell: idx, fence, worker, attempt: attempts });
        let msg = WorkerRequest::Run { cell: idx, fence }.render();
        let sent = match self.workers.get_mut(&worker) {
            Some(w) => send_line(&mut w.stream, &msg).is_ok(),
            None => false,
        };
        if sent {
            self.states[idx] =
                CellState::Leased { attempts, fence, worker, expires_at: now + self.cfg.lease_ttl };
            if let Some(w) = self.workers.get_mut(&worker) {
                w.lease = Some(idx);
            }
            self.stats.cells_assigned += 1;
        } else {
            // Dead on arrival: the cell stays pending (no attempt spent),
            // the worker is dropped.
            self.drop_worker(worker, now);
        }
    }

    fn assign_idle(&mut self, now: Instant) {
        let idle: Vec<u32> =
            self.workers.iter().filter(|(_, w)| w.lease.is_none()).map(|(id, _)| *id).collect();
        for id in idle {
            let Some(idx) = self.next_pending(now) else { break };
            self.lease(id, idx, now);
        }
    }

    /// Reclaims a leased cell: durable reclaim record, then either
    /// another (backed-off) remote attempt or inline execution once the
    /// attempt budget is spent.
    fn reclaim(&mut self, idx: usize, reason: &'static str, now: Instant) {
        let CellState::Leased { attempts, fence, .. } = self.states[idx] else { return };
        self.lease_append(&LeaseRecord::Reclaim { cell: idx, fence, reason });
        if reason == "dead" {
            self.stats.reclaims_dead += 1;
        } else {
            self.stats.reclaims_expired += 1;
        }
        let next_attempts = attempts + 1;
        if next_attempts >= self.cfg.max_cell_attempts {
            self.run_inline(idx, next_attempts);
        } else {
            self.states[idx] = CellState::Pending {
                attempts: next_attempts,
                eligible_at: now + self.cfg.retry.backoff(attempts),
            };
        }
    }

    /// Removes a worker (dead or presumed wedged), reclaims its lease,
    /// and reaps its child process.
    fn drop_worker(&mut self, id: u32, now: Instant) {
        if let Some(w) = self.workers.remove(&id) {
            if let Some(idx) = w.lease {
                // Only reclaim if the lease still points at this worker.
                if matches!(self.states[idx], CellState::Leased { worker, .. } if worker == id) {
                    self.reclaim(idx, "dead", now);
                }
            }
        }
        if let Some(mut spawned) = self.children.remove(&id) {
            let _ = spawned.child.kill();
            let _ = spawned.child.wait();
        }
        self.stats.worker_deaths += 1;
    }

    fn handle(&mut self, event: Event, now: Instant) {
        match event {
            Event::Hello { worker, cells, digest, conn, stream } => {
                if cells != self.cells.len() || digest != self.digest {
                    // Divergent expansion: never lease to this worker.
                    let mut s = stream;
                    let _ = send_line(&mut s, &WorkerRequest::Drain.render());
                    self.drop_worker(worker, now);
                    return;
                }
                if let Some(spawned) = self.children.get_mut(&worker) {
                    spawned.hello = true;
                }
                // Reconnects keep any lease the cell table still holds.
                let lease = self
                    .states
                    .iter()
                    .position(|s| matches!(s, CellState::Leased { worker: w, .. } if *w == worker));
                self.workers.insert(worker, LiveWorker { stream, conn, lease });
                self.assign_idle(now);
            }
            Event::Beat { cell, fence } => {
                if let Some(CellState::Leased { fence: f, expires_at, .. }) =
                    self.states.get_mut(cell)
                {
                    if *f == fence {
                        *expires_at = now + self.cfg.lease_ttl;
                        self.stats.heartbeats += 1;
                    }
                }
            }
            Event::Done { worker, fence, report } => {
                let accept = matches!(
                    self.states.get(report.cell),
                    Some(CellState::Leased { fence: f, .. }) if *f == fence
                );
                if !accept {
                    self.stats.stale_results += 1;
                    return;
                }
                let CellState::Leased { attempts, .. } = self.states[report.cell] else { return };
                self.lease_append(&LeaseRecord::Done { fence, report: report.clone() });
                let snapshot = self.parse_snapshot(&report.snapshot);
                let outcome = CellOutcome::Remote {
                    kind: report.kind,
                    verified: report.verified,
                    line: report.line.clone(),
                    detail: report.detail,
                };
                self.stats.cells_remote += 1;
                self.finish(
                    report.cell,
                    FinishedCell { outcome, line: report.line, snapshot, retries: attempts },
                );
                if let Some(w) = self.workers.get_mut(&worker) {
                    if w.lease == Some(report.cell) {
                        w.lease = None;
                    }
                }
                self.assign_idle(now);
            }
            Event::Gone { worker, conn } => {
                if self.workers.get(&worker).is_some_and(|w| w.conn == conn) {
                    self.drop_worker(worker, now);
                } else if let Some(mut spawned) = self.children.remove(&worker) {
                    // A worker that died before (or instead of) helloing.
                    let _ = spawned.child.kill();
                    let _ = spawned.child.wait();
                    self.stats.worker_deaths += 1;
                }
            }
        }
    }

    fn tick(&mut self, now: Instant, spawner: &mut dyn WorkerSpawner) {
        // Expired leases: the holder is presumed wedged — reclaim the
        // cell and kill the process (fencing keeps any late result inert).
        let expired: Vec<(usize, u32)> = self
            .states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                CellState::Leased { worker, expires_at, .. } if *expires_at <= now => {
                    Some((i, *worker))
                }
                _ => None,
            })
            .collect();
        for (idx, worker) in expired {
            self.reclaim(idx, "expired", now);
            if let Some(w) = self.workers.remove(&worker) {
                drop(w);
            }
            if let Some(mut spawned) = self.children.remove(&worker) {
                let _ = spawned.child.kill();
                let _ = spawned.child.wait();
            }
            self.stats.worker_deaths += 1;
        }

        // Children that exited (or never helloed in time) without a
        // connection the reader threads would notice.
        let hello_deadline = self.cfg.lease_ttl * 2;
        let silent: Vec<u32> = self
            .children
            .iter_mut()
            .filter_map(|(id, spawned)| {
                if spawned.hello {
                    return None;
                }
                let exited = matches!(spawned.child.try_wait(), Ok(Some(_)));
                let overdue = now.duration_since(spawned.spawned_at) >= hello_deadline;
                (exited || overdue).then_some(*id)
            })
            .collect();
        for id in silent {
            self.drop_worker(id, now);
        }

        // Keep the fleet at strength while pending work and budget remain.
        let desired = (self.cfg.workers as usize).min(self.remaining());
        while self.children.len() < desired && self.respawns_left > 0 {
            self.respawns_left -= 1;
            self.stats.respawns += 1;
            self.spawn_one(spawner);
        }

        self.assign_idle(now);
    }
}

/// Runs `spec` across a fleet of worker processes under `cfg`.
///
/// The returned report's canonical lines, checkpoint file, and merged
/// observability snapshot are byte-identical to a serial
/// [`SweepRunner`](crate::SweepRunner) run of the same spec, across
/// worker counts, chaos kills/wedges, and coordinator restarts.
///
/// # Errors
///
/// [`TdgraphError::Fleet`] when the listener cannot bind or the
/// coordinator lock is held by a live process;
/// [`TdgraphError::Checkpoint`] when the checkpoint cannot be resumed.
/// Worker failures are never errors — they are survived.
pub fn run_fleet(
    spec: &SweepSpec,
    cfg: &FleetConfig,
    spawner: &mut dyn WorkerSpawner,
) -> Result<FleetOutcome, TdgraphError> {
    let cells = spec.expand();
    let mut stats = FleetStats::default();
    let mut write_errors = 0usize;
    let mut report_torn = 0usize;

    // --- Durable state: lock, checkpoint, lease log -----------------------
    let _lock = match &cfg.checkpoint {
        Some(path) => Some(CoordinatorLock::acquire(lock_path(path))?),
        None => None,
    };
    let (ckpt, ckpt_loaded) = match &cfg.checkpoint {
        Some(path) => {
            let (log, loaded) = CheckpointLog::resume(path)?;
            (Some(log), loaded)
        }
        None => {
            (None, LoadedCheckpoint { records: Vec::new(), clean_bytes: 0, torn_tails_dropped: 0 })
        }
    };
    let (leases, lease_records) = match &cfg.checkpoint {
        Some(path) => {
            let path = lease_log_path(path);
            let (log, loaded) =
                DurableLog::open(&path, LeaseRecord::parse).map_err(|e| match e {
                    DurableError::Io(e) => {
                        io_err(format!("opening lease log {}", path.display()), e)
                    }
                    DurableError::Corrupt { line, reason } => {
                        FleetError::Protocol { detail: format!("lease log line {line}: {reason}") }
                    }
                })?;
            stats.torn_tails_dropped += u64::from(loaded.torn.is_some());
            (Some(log), loaded.records)
        }
        None => (None, Vec::new()),
    };
    report_torn += ckpt_loaded.torn_tails_dropped;
    stats.torn_tails_dropped += ckpt_loaded.torn_tails_dropped as u64;

    // --- Restore: spec resume file, own checkpoint, then lease log --------
    let mut states: Vec<CellState> = Vec::with_capacity(cells.len());
    let start = Instant::now();
    for _ in 0..cells.len() {
        states.push(CellState::Pending { attempts: 0, eligible_at: start });
    }
    let frontier = ckpt_loaded.records.last().map_or(0, |r| r.cell + 1);
    let mut restored: Vec<Option<checkpoint::CanonicalCell>> =
        (0..cells.len()).map(|_| None).collect();
    if let Some(path) = spec.resume_ref() {
        let loaded = checkpoint::load_tolerant(path)?;
        report_torn += loaded.torn_tails_dropped;
        stats.torn_tails_dropped += loaded.torn_tails_dropped as u64;
        for (slot, record) in restored.iter_mut().zip(plan_restored(loaded.records, &cells)?) {
            if record.is_some() {
                *slot = record;
            }
        }
    }
    for (slot, record) in restored.iter_mut().zip(plan_restored(ckpt_loaded.records, &cells)?) {
        if record.is_some() {
            *slot = record;
        }
    }
    let observe = cfg.observe;
    for (idx, record) in restored.into_iter().enumerate() {
        let Some(record) = record else { continue };
        let line = record.to_json_line();
        let snapshot = observe.then(|| crate::sweep::restored_snapshot(&record));
        states[idx] = CellState::Finished(Box::new(FinishedCell {
            outcome: CellOutcome::Restored(record),
            line,
            snapshot,
            retries: 0,
        }));
        stats.cells_restored += 1;
    }
    // Lease-log done records carry the full payload (line + snapshot), so
    // they take priority over headline-only checkpoint restores.
    let mut lease_done = HashMap::new();
    for record in lease_records {
        if let LeaseRecord::Done { report, .. } = record {
            lease_done.insert(report.cell, report);
        }
    }
    for (idx, report) in lease_done {
        if idx >= cells.len() {
            continue;
        }
        let already_restored = matches!(&states[idx], CellState::Finished(_));
        let snapshot = (observe && !report.snapshot.is_empty())
            .then(|| Snapshot::parse_canonical(&report.snapshot).ok())
            .flatten();
        states[idx] = CellState::Finished(Box::new(FinishedCell {
            outcome: CellOutcome::Remote {
                kind: report.kind,
                verified: report.verified,
                line: report.line.clone(),
                detail: report.detail,
            },
            line: report.line,
            snapshot,
            retries: 0,
        }));
        if !already_restored {
            stats.cells_restored += 1;
        }
    }

    // --- Wire up the coordinator ------------------------------------------
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| TdgraphError::from(io_err("binding coordinator listener", e)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| TdgraphError::from(io_err("resolving coordinator address", e)))?;

    let mut coord = Coordinator {
        cfg,
        cells: &cells,
        addr,
        states,
        workers: HashMap::new(),
        children: HashMap::new(),
        stats,
        fence: 0,
        next_spawn: 0,
        respawns_left: cfg.respawn_budget,
        write_errors,
        frontier,
        ckpt,
        leases,
        digest: expansion_digest(&cells),
    };
    // Flush any newly-restorable prefix (e.g. lease-restored cells the
    // previous incarnation accepted but never got into the checkpoint).
    coord.advance_checkpoint();

    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Event>();
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_handle = std::thread::spawn(move || accept_loop(&listener, &tx, &accept_shutdown));

    // Initial fleet (spawns don't draw on the respawn budget).
    let initial = (cfg.workers as usize).min(coord.remaining());
    for _ in 0..initial {
        coord.spawn_one(spawner);
    }

    let tick = (cfg.heartbeat / 2).clamp(Duration::from_millis(5), Duration::from_millis(100));
    while coord.remaining() > 0 {
        if coord.workers.is_empty() && coord.children.is_empty() {
            // The whole fleet is gone and the budget is spent: finish the
            // sweep inline so no cell is ever lost.
            for idx in 0..coord.states.len() {
                if !matches!(coord.states[idx], CellState::Finished(_)) {
                    let attempts = match coord.states[idx] {
                        CellState::Pending { attempts, .. }
                        | CellState::Leased { attempts, .. } => attempts,
                        CellState::Finished(_) => 0,
                    };
                    coord.run_inline(idx, attempts);
                }
            }
            break;
        }
        match rx.recv_timeout(tick) {
            Ok(event) => coord.handle(event, Instant::now()),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        coord.tick(Instant::now(), spawner);
    }

    // --- Drain and reap ----------------------------------------------------
    shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr); // wake the accept thread
    for w in coord.workers.values_mut() {
        let _ = send_line(&mut w.stream, &WorkerRequest::Drain.render());
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    while !coord.children.is_empty() && Instant::now() < deadline {
        coord.children.retain(|_, c| !matches!(c.child.try_wait(), Ok(Some(_))));
        if !coord.children.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    for (_, mut spawned) in coord.children.drain() {
        let _ = spawned.child.kill();
        let _ = spawned.child.wait();
    }
    drop(rx);
    let _ = accept_handle.join();

    // --- Assemble the report ----------------------------------------------
    write_errors += coord.write_errors;
    let stats = coord.stats;
    let mut results: Vec<CellResult> = Vec::with_capacity(cells.len());
    // Folding in cell-index order keeps the merged snapshot schedule-free.
    let mut obs = observe.then(Snapshot::new);
    for (idx, state) in coord.states.into_iter().enumerate() {
        let CellState::Finished(f) = state else {
            // Unreachable by construction; keep the report total anyway.
            results.push(CellResult {
                cell: cells[idx].clone(),
                outcome: CellOutcome::Remote {
                    kind: OutcomeKind::Failed,
                    verified: false,
                    line: String::new(),
                    detail: "cell never finished".to_string(),
                },
                wall: Duration::ZERO,
                retries: 0,
            });
            continue;
        };
        if let (Some(obs), Some(snapshot)) = (&mut obs, &f.snapshot) {
            obs.merge_from(snapshot);
        }
        results.push(CellResult {
            cell: cells[idx].clone(),
            outcome: f.outcome,
            wall: Duration::ZERO,
            retries: f.retries,
        });
    }
    let report = SweepReport {
        cells: results,
        checkpoint_write_errors: write_errors,
        torn_tails_dropped: report_torn,
        obs,
    };
    Ok(FleetOutcome { report, stats })
}

fn accept_loop(listener: &TcpListener, tx: &mpsc::Sender<Event>, shutdown: &AtomicBool) {
    static CONN_IDS: AtomicU64 = AtomicU64::new(1);
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn = CONN_IDS.fetch_add(1, Ordering::SeqCst);
        let tx = tx.clone();
        std::thread::spawn(move || reader_loop(stream, &tx, conn));
    }
}

fn reader_loop(stream: TcpStream, tx: &mpsc::Sender<Event>, conn: u64) {
    let mut worker_id: Option<u32> = None;
    let reader = BufReader::new(&stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let Ok(event) = WorkerEvent::parse(&line) else { continue };
        let forwarded = match event {
            WorkerEvent::Hello { worker, cells, digest, .. } => {
                worker_id = Some(worker);
                let Ok(clone) = stream.try_clone() else { break };
                tx.send(Event::Hello { worker, cells, digest, conn, stream: clone })
            }
            WorkerEvent::Beat { cell, fence, .. } => tx.send(Event::Beat { cell, fence }),
            WorkerEvent::Done { worker, fence, report } => {
                tx.send(Event::Done { worker, fence, report })
            }
        };
        if forwarded.is_err() {
            return; // scheduler gone — nothing left to notify
        }
    }
    if let Some(worker) = worker_id {
        let _ = tx.send(Event::Gone { worker, conn });
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

enum ConnEnd {
    Drained,
    Lost,
}

/// Runs the worker side of a fleet: connects to the coordinator (with
/// shared deterministic backoff), validates the spec expansion via the
/// hello digest, executes assigned cells behind the sweep fault boundary
/// while heartbeating, and ships results back. Obeys `directive` for
/// chaos runs. Returns cleanly when drained or when the coordinator stays
/// unreachable past the reconnect budget.
///
/// # Errors
///
/// Only local setup failures ([`FleetError::Io`]); a lost coordinator is
/// a clean exit, not an error.
pub fn run_worker(
    spec: &SweepSpec,
    connect: &str,
    worker_id: u32,
    heartbeat: Duration,
    directive: WorkerDirective,
) -> Result<(), TdgraphError> {
    let cells = spec.expand();
    let digest = expansion_digest(&cells);
    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(50),
        max_backoff: Duration::from_millis(400),
    };
    let mut backoff = Backoff::new(policy).with_jitter_seed(u64::from(worker_id) + 1);
    let mut cells_done: u32 = 0;
    loop {
        let stream = match TcpStream::connect(connect) {
            Ok(s) => s,
            Err(_) => {
                if backoff.wait(&SystemClock) {
                    continue;
                }
                return Ok(()); // coordinator gone for good: clean exit
            }
        };
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(e) => return Err(TdgraphError::from(io_err("cloning worker stream", e))),
        };
        let writer = Arc::new(Mutex::new(stream));
        let hello = WorkerEvent::Hello {
            worker: worker_id,
            pid: std::process::id(),
            cells: cells.len(),
            digest,
        };
        if send_line(&mut lock_ok(&writer), &hello.render()).is_err() {
            if backoff.wait(&SystemClock) {
                continue;
            }
            return Ok(());
        }

        // Heartbeat thread for this connection.
        let beat_state: Arc<Mutex<Option<(usize, u64)>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let hb_writer = Arc::clone(&writer);
        let hb_state = Arc::clone(&beat_state);
        let hb_stop = Arc::clone(&stop);
        let hb = std::thread::spawn(move || {
            while !hb_stop.load(Ordering::SeqCst) {
                std::thread::sleep(heartbeat);
                let lease = *lock_ok(&hb_state);
                if let Some((cell, fence)) = lease {
                    let msg = WorkerEvent::Beat { worker: worker_id, cell, fence }.render();
                    if send_line(&mut lock_ok(&hb_writer), &msg).is_err() {
                        return;
                    }
                }
            }
        });

        let end = serve_assignments(
            reader,
            &writer,
            &beat_state,
            &cells,
            worker_id,
            &mut cells_done,
            directive,
        );
        stop.store(true, Ordering::SeqCst);
        let _ = hb.join();
        match end {
            ConnEnd::Drained => return Ok(()),
            ConnEnd::Lost => {
                if backoff.wait(&SystemClock) {
                    continue;
                }
                return Ok(());
            }
        }
    }
}

fn serve_assignments(
    reader: BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    beat_state: &Arc<Mutex<Option<(usize, u64)>>>,
    cells: &[ExperimentCell],
    worker_id: u32,
    cells_done: &mut u32,
    directive: WorkerDirective,
) -> ConnEnd {
    for line in reader.lines() {
        let Ok(line) = line else { return ConnEnd::Lost };
        match WorkerRequest::parse(&line) {
            Ok(WorkerRequest::Run { cell, fence }) => {
                let Some(cell_spec) = cells.get(cell) else { return ConnEnd::Lost };
                if let WorkerDirective::Wedge { after_cells } = directive {
                    if *cells_done == after_cells {
                        // Wedge: hold the lease, never beat, never finish.
                        // Bounded so a worker orphaned by a killed
                        // coordinator cannot linger past the test run.
                        *lock_ok(beat_state) = None;
                        std::thread::sleep(Duration::from_secs(120));
                        std::process::abort();
                    }
                }
                *lock_ok(beat_state) = Some((cell, fence));
                let t0 = Instant::now();
                let outcome = execute_cell(cell_spec, &RegistryHandle::Default, None);
                let result =
                    CellResult { cell: cell_spec.clone(), outcome, wall: t0.elapsed(), retries: 0 };
                *lock_ok(beat_state) = None;
                if let WorkerDirective::Kill { after_cells, point: KillPoint::Before } = directive {
                    if *cells_done == after_cells {
                        std::process::abort(); // the work is lost on purpose
                    }
                }
                let report = CellReport::of(&result);
                let msg = WorkerEvent::Done { worker: worker_id, fence, report }.render();
                if send_line(&mut lock_ok(writer), &msg).is_err() {
                    return ConnEnd::Lost;
                }
                if let WorkerDirective::Kill { after_cells, point: KillPoint::After } = directive {
                    if *cells_done == after_cells {
                        std::process::abort(); // result shipped, worker dies
                    }
                }
                *cells_done += 1;
            }
            Ok(WorkerRequest::Drain) => return ConnEnd::Drained,
            Err(_) => {} // tolerate garbage on the control stream
        }
    }
    ConnEnd::Lost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepRunner, SweepSpec};
    use crate::EngineKind;
    use tdgraph_graph::datasets::{Dataset, Sizing};
    use tdgraph_sim::SimConfig;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new()
            .datasets([Dataset::Amazon])
            .sizing(Sizing::Tiny)
            .engines([EngineKind::LigraO, EngineKind::TdGraphH])
            .tune(|o| {
                o.sim = SimConfig::small_test();
                o.batches = 1;
            })
    }

    #[test]
    fn fault_plan_directives_are_deterministic_and_budgeted() {
        let plan = ProcessFaultPlan::seeded(7, 2, 1);
        for idx in 0..6 {
            assert_eq!(plan.directive_for(idx), plan.directive_for(idx), "same seed, same call");
        }
        assert!(matches!(plan.directive_for(0), WorkerDirective::Kill { .. }));
        assert!(matches!(plan.directive_for(1), WorkerDirective::Kill { .. }));
        assert!(matches!(plan.directive_for(2), WorkerDirective::Wedge { .. }));
        assert_eq!(plan.directive_for(3), WorkerDirective::Clean);
        assert_eq!(plan.directive_for(99), WorkerDirective::Clean, "budget bounds the chaos");
        let other = ProcessFaultPlan::seeded(8, 2, 1);
        assert!((0..3).any(|i| other.directive_for(i) != plan.directive_for(i)
            || ProcessFaultPlan::seeded(9, 2, 1).directive_for(i) != plan.directive_for(i)));
    }

    #[test]
    fn wire_messages_round_trip_with_hostile_strings() {
        let report = CellReport {
            cell: 7,
            kind: OutcomeKind::Panicked,
            verified: false,
            detail: "quote\" slash\\ nl\n tab\t done".to_string(),
            line: "{\"cell\":7,\"dataset\":\"AM\",\"outcome\":\"panicked\"}".to_string(),
            snapshot:
                "{\"counters\":{},\"gauges\":{},\"labels\":{},\"phases\":{},\"histograms\":{}}"
                    .to_string(),
        };
        let done = WorkerEvent::Done { worker: 3, fence: 42, report: report.clone() };
        assert_eq!(WorkerEvent::parse(&done.render()).unwrap(), done);

        let hello = WorkerEvent::Hello { worker: 3, pid: 999, cells: 8, digest: 0xDEAD_BEEF };
        assert_eq!(WorkerEvent::parse(&hello.render()).unwrap(), hello);
        let beat = WorkerEvent::Beat { worker: 3, cell: 7, fence: 42 };
        assert_eq!(WorkerEvent::parse(&beat.render()).unwrap(), beat);

        let run = WorkerRequest::Run { cell: 7, fence: 42 };
        assert_eq!(WorkerRequest::parse(&run.render()).unwrap(), run);
        assert_eq!(
            WorkerRequest::parse(&WorkerRequest::Drain.render()).unwrap(),
            WorkerRequest::Drain
        );

        let lease = LeaseRecord::Lease { cell: 7, fence: 42, worker: 3, attempt: 1 };
        assert_eq!(LeaseRecord::parse(&lease.render()).unwrap(), lease);
        let done_rec = LeaseRecord::Done { fence: 42, report };
        assert_eq!(LeaseRecord::parse(&done_rec.render()).unwrap(), done_rec);
        let reclaim = LeaseRecord::Reclaim { cell: 7, fence: 42, reason: "expired" };
        assert_eq!(LeaseRecord::parse(&reclaim.render()).unwrap(), reclaim);
    }

    #[test]
    fn coordinator_lock_takes_over_only_dead_holders() {
        let dir = std::env::temp_dir().join(format!(
            "tdgraph-fleet-lock-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl.lock");
        let _ = std::fs::remove_file(&path);

        // Live holder (this process): second acquire must fail.
        let lock = CoordinatorLock::acquire(&path).unwrap();
        assert!(matches!(CoordinatorLock::acquire(&path), Err(FleetError::Locked { .. })));
        drop(lock);
        assert!(!path.exists(), "drop releases the lock");

        // Dead holder: a child that already exited.
        let mut child = std::process::Command::new("true")
            .spawn()
            .or_else(|_| std::process::Command::new("/bin/true").spawn())
            .unwrap();
        let dead_pid = child.id();
        child.wait().unwrap();
        std::fs::write(&path, format!("{dead_pid}\n")).unwrap();
        let taken = CoordinatorLock::acquire(&path).unwrap();
        drop(taken);

        // Garbage content is stale too.
        std::fs::write(&path, "not-a-pid\n").unwrap();
        let taken = CoordinatorLock::acquire(&path).unwrap();
        drop(taken);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn worker_launch_args_cover_every_directive() {
        let base = WorkerLaunch {
            worker_id: 4,
            connect: "127.0.0.1:9999".parse().unwrap(),
            heartbeat: Duration::from_millis(25),
            directive: WorkerDirective::Clean,
        };
        let args = base.to_args();
        assert_eq!(
            args,
            vec![
                "--worker",
                "--connect",
                "127.0.0.1:9999",
                "--worker-id",
                "4",
                "--heartbeat-ms",
                "25"
            ]
        );
        let kill = WorkerLaunch {
            directive: WorkerDirective::Kill { after_cells: 1, point: KillPoint::Before },
            ..base.clone()
        };
        let args = kill.to_args();
        assert!(args.windows(2).any(|w| w == ["--die-after-cells", "1"]));
        assert!(args.windows(2).any(|w| w == ["--die-point", "before"]));
        let wedge = WorkerLaunch { directive: WorkerDirective::Wedge { after_cells: 0 }, ..base };
        assert!(wedge.to_args().windows(2).any(|w| w == ["--wedge-after-cells", "0"]));
    }

    #[test]
    fn expansion_digest_tracks_the_grid() {
        let a = expansion_digest(&tiny_spec().expand());
        let b = expansion_digest(&tiny_spec().expand());
        assert_eq!(a, b, "same spec, same digest");
        let c = expansion_digest(&tiny_spec().seeds([1, 2]).expand());
        assert_ne!(a, c, "different grid, different digest");
    }

    /// A spawner that always fails: the fleet must degrade to inline
    /// execution and still produce the serial runner's exact bytes.
    struct NoSpawner;
    impl WorkerSpawner for NoSpawner {
        fn spawn(&mut self, _launch: &WorkerLaunch) -> std::io::Result<Child> {
            Err(std::io::Error::other("spawning disabled"))
        }
    }

    #[test]
    fn fleet_degrades_to_inline_when_no_worker_ever_spawns() {
        let spec = tiny_spec();
        let serial = SweepRunner::new().threads(1).observe(true).run(&spec);

        let cfg = FleetConfig::default().workers(2).observe(true);
        let outcome = run_fleet(&spec, &cfg, &mut NoSpawner).unwrap();

        assert_eq!(
            outcome.report.canonical_lines(),
            serial.canonical_lines(),
            "inline degradation must preserve byte identity"
        );
        assert_eq!(
            outcome.report.obs.as_ref().map(Snapshot::canonical_json_line),
            serial.obs.as_ref().map(Snapshot::canonical_json_line),
            "merged snapshots must match"
        );
        assert_eq!(outcome.stats.cells_inline, spec.expand().len() as u64);
        assert!(outcome.stats.spawn_failures >= 1);
        assert_eq!(outcome.stats.cells_remote, 0);
        assert!(outcome.report.cells.iter().all(CellResult::is_verified));
    }
}

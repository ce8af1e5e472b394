//! Fault-tolerant multi-process sweep execution.
//!
//! The [`SweepRunner`](crate::SweepRunner) parallelizes a sweep across
//! threads in one process; this module scales the same sweep across a
//! *fleet of worker processes* and keeps the determinism contract intact
//! while workers are killed, wedged, or never spawn at all:
//!
//! * [`run_fleet`] is the coordinator: it expands the spec, spawns workers
//!   through a [`WorkerSpawner`] with piped stdin and stdout, and assigns
//!   cells under *leases* — wall-clock TTLs refreshed by per-cell
//!   heartbeats. A lease that expires (wedged worker) or whose worker dies
//!   (killed worker) is reclaimed and the cell deterministically re-run
//!   elsewhere; after [`FleetConfig::max_cell_attempts`] the coordinator
//!   executes the cell inline itself, so every cell always finishes
//!   exactly once.
//! * One thread per worker reads its stdout and tags every line with the
//!   worker's *spawn id*. A dropped or expired worker is killed and reaped
//!   before its cell is leased again, so a message is stale exactly when
//!   its spawn id is no longer live: a late result from a worker presumed
//!   dead is counted ([`FleetStats::stale_results`]) and discarded, and
//!   cells are never double-counted.
//! * [`run_worker`] is the worker side: it re-expands the same spec
//!   (guarded by an expansion digest in the hello), reads `run` requests
//!   on stdin, executes each cell behind the sweep fault boundary while
//!   heartbeating on stdout, and writes back the cell's pre-rendered
//!   canonical line plus its observability snapshot. EOF on stdin ends it:
//!   the coordinator drains a worker by closing its stdin, and a killed
//!   coordinator closes it too. Report lines are re-emitted by the
//!   coordinator verbatim, which is what makes a fleet run byte-identical
//!   to a serial [`SweepRunner`](crate::SweepRunner) run.
//! * Lease expiry catches a *silent* worker, not a hung cell. A worker
//!   runs its cell without a watchdog while its heartbeat thread keeps
//!   beating, so a cell stuck inside an engine keeps its lease alive and
//!   the coordinator waits for it forever. Only a worker that stops
//!   beating (the chaos [`WorkerDirective::Wedge`]) lets a lease expire.
//!   [`SweepRunner::cell_timeout`](crate::SweepRunner::cell_timeout) is
//!   the only bound on a hung cell, and only the in-process runner has it.
//! * Durability: with [`FleetConfig::checkpoint_to`], every accepted
//!   result is appended at once to a *lease log* (`<checkpoint>.leases`)
//!   as a `done` record. The checkpoint file is kept by the same ledger
//!   as [`SweepRunner::checkpoint_to`](crate::SweepRunner::checkpoint_to)'s:
//!   each completed cell is written exactly once, in cell-index order, so
//!   the file is the serial run's byte for byte. Both files are
//!   [`DurableLog`]s that are never fsynced: they survive the coordinator
//!   being killed, not a machine crash. A restarted coordinator reopens
//!   both — cutting off torn tails — restores the checkpoint's cells,
//!   overlays the lease log's `done` records (they carry the full
//!   snapshot) and re-runs only the unfinished cells. Every restored
//!   record must name a cell of this spec's expansion with the same
//!   coordinates, so a log left by another spec is a spec mismatch, never
//!   a silent restore. An advisory [`CoordinatorLock`] (pid file with
//!   dead-holder takeover) keeps two coordinators off the same checkpoint.
//! * [`ProcessFaultPlan`] is the seeded chaos harness: it deterministically
//!   directs which spawned workers abort mid-cell (before or after
//!   reporting) and which wedge (stop heartbeating and hang), so recovery
//!   tests exercise real process kills reproducibly.
//!
//! Everything is hand-rolled JSON lines over the same wire conventions as
//! the serve crate — the workspace carries no serde.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdgraph_graph::durable::{DurableError, DurableLog};
use tdgraph_graph::prng::Xoshiro256StarStar;
use tdgraph_graph::wire::{json_escape_wire, lookup_str, parse_flat_object};
use tdgraph_obs::Snapshot;

use crate::checkpoint::{self, bool_field, u64_field, usize_field};
use crate::error::TdgraphError;
use crate::sweep::{
    cell_snapshot, execute_cell, CellOutcome, CellResult, ExperimentCell, Ledger, OutcomeKind,
    RegistryHandle, SweepReport, SweepSpec,
};

/// An error in the fleet layer: wire protocol, lease log, or lock.
#[derive(Debug)]
pub enum FleetError {
    /// An I/O operation (lease log, lock file) failed.
    Io {
        /// What the coordinator was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A lease-log record was malformed.
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
    /// Results discarded because their worker's spawn id was no longer
    /// live (it had been dropped, killed and reaped).
    pub stale_results: u64,
    /// Heartbeats accepted.
    pub heartbeats: u64,
    /// Torn tails dropped across the checkpoint and lease log.
    pub torn_tails_dropped: u64,
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

    /// The lease log's one record: `{"fleet":"done", …}` with the full
    /// report of an accepted cell.
    fn render_done_record(&self) -> String {
        format!("{{\"fleet\":\"done\",{}}}", self.render_fields())
    }

    /// Decodes a lease-log line. Logs written before the lease log held
    /// only `done` records also hold `lease` and `reclaim` records, which
    /// restore never read: they decode to `None`, so such a log still
    /// restores.
    fn parse_done_record(line: &str) -> Result<Option<Self>, String> {
        let fields = parse_flat_object(line)?;
        match lookup_str(&fields, "fleet")?.as_str() {
            "done" => Self::parse_fields(&fields).map(Some),
            "lease" | "reclaim" => Ok(None),
            other => Err(format!("unknown lease record '{other}'")),
        }
    }
}

/// Worker → coordinator messages, one JSON line each on the worker's
/// stdout.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WorkerEvent {
    Hello { pid: u32, cells: usize, digest: u64 },
    Beat { cell: usize },
    Done(CellReport),
}

impl WorkerEvent {
    fn render(&self) -> String {
        match self {
            WorkerEvent::Hello { pid, cells, digest } => {
                format!("{{\"ev\":\"hello\",\"pid\":{pid},\"cells\":{cells},\"digest\":{digest}}}")
            }
            WorkerEvent::Beat { cell } => format!("{{\"ev\":\"beat\",\"cell\":{cell}}}"),
            WorkerEvent::Done(report) => {
                format!("{{\"ev\":\"done\",{}}}", report.render_fields())
            }
        }
    }

    fn parse(line: &str) -> Result<Self, String> {
        let fields = parse_flat_object(line)?;
        match lookup_str(&fields, "ev")?.as_str() {
            "hello" => Ok(WorkerEvent::Hello {
                pid: u64_field(&fields, "pid")? as u32,
                cells: usize_field(&fields, "cells")?,
                digest: u64_field(&fields, "digest")?,
            }),
            "beat" => Ok(WorkerEvent::Beat { cell: usize_field(&fields, "cell")? }),
            "done" => Ok(WorkerEvent::Done(CellReport::parse_fields(&fields)?)),
            other => Err(format!("unknown worker event '{other}'")),
        }
    }
}

/// The coordinator's one request, a JSON line on the worker's stdin.
/// Closing the worker's stdin is its drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunRequest {
    cell: usize,
}

impl RunRequest {
    fn render(self) -> String {
        format!("{{\"req\":\"run\",\"cell\":{}}}", self.cell)
    }

    fn parse(line: &str) -> Result<Self, String> {
        let fields = parse_flat_object(line)?;
        match lookup_str(&fields, "req")?.as_str() {
            "run" => Ok(Self { cell: usize_field(&fields, "cell")? }),
            other => Err(format!("unknown request '{other}'")),
        }
    }
}

/// Writes `line` and its newline in one write, then flushes.
fn send_line(out: &mut impl Write, line: &str) -> std::io::Result<()> {
    out.write_all(format!("{line}\n").as_bytes())?;
    out.flush()
}

/// FNV-1a digest over the expanded cell coordinates; the hello handshake
/// compares it so a coordinator never leases cells to a worker whose spec
/// expanded differently.
#[must_use]
pub fn expansion_digest(cells: &[ExperimentCell]) -> u64 {
    checkpoint::fnv1a(cells.iter().flat_map(|cell| {
        checkpoint::cell_coordinates(cell).into_bytes().into_iter().chain(std::iter::once(b'\n'))
    }))
}

// ---------------------------------------------------------------------------
// Spawning
// ---------------------------------------------------------------------------

/// Everything a spawner needs to launch one worker process.
#[derive(Debug, Clone)]
pub struct WorkerLaunch {
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
    /// Spawns one worker process with piped stdin and stdout: they are
    /// its only link to the coordinator.
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
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// A message from one worker's stdout, or `None` at EOF, tagged with the
/// spawn id of the worker its reader thread reads.
struct Event {
    spawn: u32,
    msg: Option<WorkerEvent>,
}

enum CellState {
    Pending { attempts: u32 },
    Leased { attempts: u32, worker: u32, expires_at: Instant },
    Finished,
}

/// The result and snapshot of a cell some other process finished: a
/// worker, or an earlier coordinator whose lease log recorded it.
fn remote_result(
    cells: &[ExperimentCell],
    report: CellReport,
    observe: bool,
    retries: u32,
) -> (CellResult, Option<Snapshot>) {
    let snapshot = if observe { Snapshot::parse_canonical(&report.snapshot).ok() } else { None };
    let outcome = CellOutcome::Remote {
        kind: report.kind,
        verified: report.verified,
        line: report.line,
        detail: report.detail,
    };
    let cell = cells[report.cell].clone();
    (CellResult { cell, outcome, wall: Duration::ZERO, retries }, snapshot)
}

/// A worker process. Its spawn id is live exactly while it is in
/// `Coordinator::workers`; dropping it closes its stdin.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    /// The thread reading its stdout; it ends at EOF, once the worker
    /// has exited or been killed.
    reader: JoinHandle<()>,
    spawned_at: Instant,
    hello: bool,
    lease: Option<usize>,
}

struct Coordinator<'a> {
    cfg: &'a FleetConfig,
    cells: &'a [ExperimentCell],
    states: Vec<CellState>,
    ledger: Ledger,
    workers: BTreeMap<u32, Worker>,
    events: Sender<Event>,
    stats: FleetStats,
    next_spawn: u32,
    respawns_left: u32,
    leases: Option<DurableLog>,
    digest: u64,
    _lock: Option<CoordinatorLock>,
}

impl<'a> Coordinator<'a> {
    /// Takes the lock, opens the ledger over the checkpoint, and overlays
    /// the lease log's `done` records on what the checkpoint restored.
    /// They carry the full payload (line and snapshot), and each must name
    /// a cell of this expansion with the same coordinates; every record is
    /// checked before any is recorded.
    fn open(
        cells: &'a [ExperimentCell],
        cfg: &'a FleetConfig,
        events: Sender<Event>,
    ) -> Result<Self, TdgraphError> {
        let lock = match &cfg.checkpoint {
            Some(path) => Some(CoordinatorLock::acquire(lock_path(path))?),
            None => None,
        };
        let mut ledger = Ledger::open(cfg.checkpoint.as_deref(), cells, cfg.observe)?;
        let mut stats = FleetStats {
            torn_tails_dropped: ledger.torn_tails_dropped as u64,
            ..FleetStats::default()
        };
        let leases = match &cfg.checkpoint {
            Some(path) => {
                let path = lease_log_path(path);
                let (log, loaded) = DurableLog::open(&path, CellReport::parse_done_record)
                    .map_err(|e| match e {
                        DurableError::Io(e) => {
                            io_err(format!("opening lease log {}", path.display()), e)
                        }
                        DurableError::Corrupt { line, reason } => FleetError::Protocol {
                            detail: format!("lease log line {line}: {reason}"),
                        },
                    })?;
                stats.torn_tails_dropped += u64::from(loaded.torn.is_some());
                let done: Vec<CellReport> = loaded.records.into_iter().flatten().collect();
                for report in &done {
                    let found = checkpoint::line_coordinates(&report.line)
                        .unwrap_or_else(|reason| format!("an unreadable line ({reason})"));
                    checkpoint::check_coordinates(report.cell, found, cells)?;
                }
                for report in done {
                    let (result, snapshot) = remote_result(cells, report, cfg.observe, 0);
                    ledger.finish(result, snapshot);
                }
                Some(log)
            }
            None => None,
        };
        let states: Vec<CellState> = (0..cells.len())
            .map(|i| match ledger.finished(i) {
                Some(_) => CellState::Finished,
                None => CellState::Pending { attempts: 0 },
            })
            .collect();
        stats.cells_restored =
            states.iter().filter(|s| matches!(s, CellState::Finished)).count() as u64;
        Ok(Coordinator {
            cfg,
            cells,
            states,
            ledger,
            workers: BTreeMap::new(),
            events,
            stats,
            next_spawn: 0,
            respawns_left: cfg.respawn_budget,
            leases,
            digest: expansion_digest(cells),
            _lock: lock,
        })
    }

    fn remaining(&self) -> usize {
        self.states.iter().filter(|s| !matches!(s, CellState::Finished)).count()
    }

    fn record_done(&mut self, report: &CellReport) {
        if let Some(log) = &mut self.leases {
            if log.append(&report.render_done_record()).is_err() {
                self.ledger.write_errors += 1;
            }
        }
    }

    fn finish(&mut self, result: CellResult, snapshot: Option<Snapshot>) {
        self.states[result.cell.index] = CellState::Finished;
        self.ledger.finish(result, snapshot);
    }

    /// Executes a cell in the coordinator process (degradation path:
    /// spawns failed, fleet died, or a cell spent its remote attempts).
    fn run_inline(&mut self, idx: usize, attempts: u32) {
        let cell = &self.cells[idx];
        let outcome = execute_cell(cell, &RegistryHandle::Default, None);
        let result =
            CellResult { cell: cell.clone(), outcome, wall: Duration::ZERO, retries: attempts };
        self.record_done(&CellReport::of(&result));
        self.stats.cells_inline += 1;
        let snapshot = if self.cfg.observe { cell_snapshot(&result) } else { None };
        self.finish(result, snapshot);
    }

    /// Spawns the next worker and starts the thread that reads its
    /// stdout.
    fn spawn_one(&mut self, spawner: &mut dyn WorkerSpawner) {
        let id = self.next_spawn;
        self.next_spawn += 1;
        let directive =
            self.cfg.chaos.map_or(WorkerDirective::Clean, |plan| plan.directive_for(id));
        let launch = WorkerLaunch { heartbeat: self.cfg.heartbeat, directive };
        let Ok(mut child) = spawner.spawn(&launch) else {
            self.stats.spawn_failures += 1;
            return;
        };
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            // Without both pipes the worker can never be reached.
            let _ = child.kill();
            let _ = child.wait();
            self.stats.spawn_failures += 1;
            return;
        };
        let events = self.events.clone();
        let reader = std::thread::spawn(move || read_worker(id, stdout, &events));
        let spawned_at = Instant::now();
        self.workers
            .insert(id, Worker { child, stdin, reader, spawned_at, hello: false, lease: None });
    }

    fn lease(&mut self, id: u32, idx: usize, now: Instant) {
        let CellState::Pending { attempts } = self.states[idx] else { return };
        let Some(worker) = self.workers.get_mut(&id) else { return };
        if send_line(&mut worker.stdin, &RunRequest { cell: idx }.render()).is_ok() {
            worker.lease = Some(idx);
            self.states[idx] =
                CellState::Leased { attempts, worker: id, expires_at: now + self.cfg.lease_ttl };
            self.stats.cells_assigned += 1;
        } else {
            // Dead on arrival: the cell stays pending (no attempt spent),
            // the worker is dropped.
            self.drop_worker(id, false);
        }
    }

    fn assign_idle(&mut self, now: Instant) {
        let idle: Vec<u32> = self
            .workers
            .iter()
            .filter(|(_, w)| w.hello && w.lease.is_none())
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            let Some(idx) = self.states.iter().position(|s| matches!(s, CellState::Pending { .. }))
            else {
                break;
            };
            self.lease(id, idx, now);
        }
    }

    /// Kills and reaps a worker (dead, divergent, or presumed wedged),
    /// then reclaims its lease: the cell is pending again at once, or runs
    /// inline once its remote attempts are spent. The spawn id is never
    /// live again, so whatever its reader thread still posts is stale.
    fn drop_worker(&mut self, id: u32, expired: bool) {
        let Some(mut worker) = self.workers.remove(&id) else { return };
        let _ = worker.child.kill();
        let _ = worker.child.wait();
        let _ = worker.reader.join();
        self.stats.worker_deaths += 1;
        let Some(idx) = worker.lease else { return };
        let CellState::Leased { attempts, .. } = self.states[idx] else { return };
        if expired {
            self.stats.reclaims_expired += 1;
        } else {
            self.stats.reclaims_dead += 1;
        }
        if attempts + 1 >= self.cfg.max_cell_attempts {
            self.run_inline(idx, attempts + 1);
        } else {
            self.states[idx] = CellState::Pending { attempts: attempts + 1 };
        }
    }

    fn handle(&mut self, Event { spawn, msg }: Event, now: Instant) {
        let Some(worker) = self.workers.get_mut(&spawn) else {
            // The worker was dropped: killed, reaped, and its cell
            // reclaimed. A result it sent before it died is the zombie
            // window's late result.
            if matches!(msg, Some(WorkerEvent::Done(_))) {
                self.stats.stale_results += 1;
            }
            return;
        };
        match msg {
            None => self.drop_worker(spawn, false),
            Some(WorkerEvent::Hello { cells, digest, .. }) => {
                if cells != self.cells.len() || digest != self.digest {
                    // Divergent expansion: never lease to this worker.
                    self.drop_worker(spawn, false);
                    return;
                }
                worker.hello = true;
                self.assign_idle(now);
            }
            Some(WorkerEvent::Beat { cell }) => {
                if worker.lease != Some(cell) {
                    return;
                }
                if let CellState::Leased { expires_at, .. } = &mut self.states[cell] {
                    *expires_at = now + self.cfg.lease_ttl;
                    self.stats.heartbeats += 1;
                }
            }
            Some(WorkerEvent::Done(report)) => {
                if worker.lease != Some(report.cell) {
                    self.stats.stale_results += 1;
                    return;
                }
                worker.lease = None;
                let CellState::Leased { attempts, .. } = self.states[report.cell] else { return };
                self.record_done(&report);
                self.stats.cells_remote += 1;
                let (result, snapshot) =
                    remote_result(self.cells, report, self.cfg.observe, attempts);
                self.finish(result, snapshot);
                self.assign_idle(now);
            }
        }
    }

    /// One turn of the event loop. Waits up to `wait` for a worker message
    /// and handles it and every message queued behind it before `tick`
    /// reads the clock: beats that piled up while an inline cell blocked
    /// the loop refresh their leases instead of letting them expire.
    fn step(&mut self, rx: &Receiver<Event>, wait: Duration, spawner: &mut dyn WorkerSpawner) {
        if self.workers.is_empty() {
            // The whole fleet is gone and the budget is spent: finish the
            // sweep inline so no cell is ever lost.
            for idx in 0..self.states.len() {
                if let CellState::Pending { attempts } | CellState::Leased { attempts, .. } =
                    self.states[idx]
                {
                    self.run_inline(idx, attempts);
                }
            }
            return;
        }
        if let Ok(event) = rx.recv_timeout(wait) {
            self.handle(event, Instant::now());
        }
        while let Ok(event) = rx.try_recv() {
            self.handle(event, Instant::now());
        }
        self.tick(Instant::now(), spawner);
    }

    fn tick(&mut self, now: Instant, spawner: &mut dyn WorkerSpawner) {
        // Expired leases: the holder is presumed wedged. It is killed
        // before its cell is leased again, so any late result is stale.
        let expired: Vec<u32> = self
            .states
            .iter()
            .filter_map(|s| match s {
                CellState::Leased { worker, expires_at, .. } if *expires_at <= now => Some(*worker),
                _ => None,
            })
            .collect();
        for worker in expired {
            self.drop_worker(worker, true);
        }

        // Workers that never said hello in time.
        let hello_deadline = self.cfg.lease_ttl * 2;
        let silent: Vec<u32> = self
            .workers
            .iter()
            .filter(|(_, w)| !w.hello && now.duration_since(w.spawned_at) >= hello_deadline)
            .map(|(id, _)| *id)
            .collect();
        for id in silent {
            self.drop_worker(id, false);
        }

        // Keep the fleet at strength while pending work and budget remain.
        let desired = (self.cfg.workers as usize).min(self.remaining());
        while self.workers.len() < desired && self.respawns_left > 0 {
            self.respawns_left -= 1;
            self.stats.respawns += 1;
            self.spawn_one(spawner);
        }

        self.assign_idle(now);
    }

    /// Closes every worker's stdin — an idle worker reads EOF and exits —
    /// and reaps them, killing any that outlast a short grace period.
    fn drain(&mut self) {
        let workers: Vec<(Child, JoinHandle<()>)> =
            std::mem::take(&mut self.workers).into_values().map(|w| (w.child, w.reader)).collect();
        let deadline = Instant::now() + Duration::from_secs(2);
        for (mut child, reader) in workers {
            while Instant::now() < deadline && !matches!(child.try_wait(), Ok(Some(_))) {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
        }
    }

    fn into_outcome(self) -> FleetOutcome {
        FleetOutcome { report: self.ledger.into_report(), stats: self.stats }
    }
}

/// Posts every message on a worker's stdout, tagged with its spawn id,
/// then `None` at EOF (the worker exited or was killed).
fn read_worker(spawn: u32, stdout: ChildStdout, events: &Sender<Event>) {
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        let Ok(msg) = WorkerEvent::parse(&line) else { continue };
        if events.send(Event { spawn, msg: Some(msg) }).is_err() {
            return; // coordinator gone — nothing left to notify
        }
    }
    let _ = events.send(Event { spawn, msg: None });
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
/// [`TdgraphError::Fleet`] when the coordinator lock is held by a live
/// process or the lease log cannot be reopened;
/// [`TdgraphError::Checkpoint`] when the checkpoint cannot be resumed.
/// Worker failures are never errors — they are survived.
pub fn run_fleet(
    spec: &SweepSpec,
    cfg: &FleetConfig,
    spawner: &mut dyn WorkerSpawner,
) -> Result<FleetOutcome, TdgraphError> {
    let cells = spec.expand();
    let (events, rx) = mpsc::channel();
    let mut coord = Coordinator::open(&cells, cfg, events)?;

    // Initial fleet (spawns don't draw on the respawn budget).
    for _ in 0..(cfg.workers as usize).min(coord.remaining()) {
        coord.spawn_one(spawner);
    }

    let wait = (cfg.heartbeat / 2).clamp(Duration::from_millis(5), Duration::from_millis(100));
    while coord.remaining() > 0 {
        coord.step(&rx, wait, spawner);
    }
    coord.drain();
    Ok(coord.into_outcome())
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// The worker side of a fleet, over this process's stdin and stdout: says
/// hello with the spec's expansion digest, executes each cell the
/// coordinator leases behind the sweep fault boundary while heartbeating,
/// and writes back its report. Obeys `directive` for chaos runs. Returns
/// at EOF on stdin — the coordinator drained the worker or died — or once
/// stdout is closed.
pub fn run_worker(spec: &SweepSpec, heartbeat: Duration, directive: WorkerDirective) {
    let cells = spec.expand();
    let hello = WorkerEvent::Hello {
        pid: std::process::id(),
        cells: cells.len(),
        digest: expansion_digest(&cells),
    };
    if send_event(&hello).is_err() {
        return;
    }
    // The cell in flight, which the heartbeat thread beats for.
    let in_flight: Mutex<Option<usize>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(heartbeat);
                let cell = *in_flight.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(cell) = cell {
                    if send_event(&WorkerEvent::Beat { cell }).is_err() {
                        return;
                    }
                }
            }
        });
        serve_requests(&cells, &in_flight, directive);
        stop.store(true, Ordering::SeqCst);
    });
}

fn send_event(event: &WorkerEvent) -> std::io::Result<()> {
    send_line(&mut std::io::stdout().lock(), &event.render())
}

fn serve_requests(
    cells: &[ExperimentCell],
    in_flight: &Mutex<Option<usize>>,
    directive: WorkerDirective,
) {
    let set_in_flight =
        |cell: Option<usize>| *in_flight.lock().unwrap_or_else(PoisonError::into_inner) = cell;
    let mut cells_done: u32 = 0;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { return };
        // Tolerate garbage on the control stream.
        let Ok(RunRequest { cell }) = RunRequest::parse(&line) else { continue };
        let Some(cell_spec) = cells.get(cell) else { return };
        if directive == (WorkerDirective::Wedge { after_cells: cells_done }) {
            // Wedge: hold the lease, never beat, never finish. Bounded so
            // a worker orphaned by a killed coordinator cannot linger past
            // the test run.
            std::thread::sleep(Duration::from_secs(120));
            std::process::abort();
        }
        set_in_flight(Some(cell));
        let outcome = execute_cell(cell_spec, &RegistryHandle::Default, None);
        set_in_flight(None);
        let result =
            CellResult { cell: cell_spec.clone(), outcome, wall: Duration::ZERO, retries: 0 };
        let kill = match directive {
            WorkerDirective::Kill { after_cells, point } if after_cells == cells_done => {
                Some(point)
            }
            _ => None,
        };
        if kill == Some(KillPoint::Before) {
            std::process::abort(); // the work is lost on purpose
        }
        if send_event(&WorkerEvent::Done(CellReport::of(&result))).is_err() {
            return;
        }
        if kill == Some(KillPoint::After) {
            std::process::abort(); // result shipped, worker dies
        }
        cells_done += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointError;
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tdgraph-fleet-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The cells of a lease log's `done` records, in file order.
    fn done_cells(lease_log: &Path) -> Vec<usize> {
        let text = std::fs::read_to_string(lease_log).unwrap_or_default();
        text.lines()
            .filter_map(|l| CellReport::parse_done_record(l).unwrap())
            .map(|r| r.cell)
            .collect()
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
        let done = WorkerEvent::Done(report.clone());
        assert_eq!(WorkerEvent::parse(&done.render()).unwrap(), done);

        let hello = WorkerEvent::Hello { pid: 999, cells: 8, digest: 0xDEAD_BEEF };
        assert_eq!(WorkerEvent::parse(&hello.render()).unwrap(), hello);
        let beat = WorkerEvent::Beat { cell: 7 };
        assert_eq!(WorkerEvent::parse(&beat.render()).unwrap(), beat);

        let run = RunRequest { cell: 7 };
        assert_eq!(RunRequest::parse(&run.render()).unwrap(), run);

        assert_eq!(
            CellReport::parse_done_record(&report.render_done_record()).unwrap(),
            Some(report)
        );
    }

    #[test]
    fn coordinator_lock_takes_over_only_dead_holders() {
        let path = temp_dir("lock").join("sweep.jsonl.lock");
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
            heartbeat: Duration::from_millis(25),
            directive: WorkerDirective::Clean,
        };
        let args = base.to_args();
        assert_eq!(args, vec!["--worker", "--heartbeat-ms", "25"]);
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

    /// Spawns `cat`: a live child with piped stdin and stdout that never
    /// says hello, so a test delivers the workers' messages by hand.
    struct CatSpawner;
    impl WorkerSpawner for CatSpawner {
        fn spawn(&mut self, _launch: &WorkerLaunch) -> std::io::Result<Child> {
            std::process::Command::new("cat").stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()
        }
    }

    #[test]
    fn a_done_from_a_dropped_spawn_id_is_stale_and_never_recorded() {
        let spec = tiny_spec();
        let cells = spec.expand();
        let ck = temp_dir("zombie").join("sweep.jsonl");
        let lease_log = lease_log_path(&ck);
        for p in [&ck, &lease_log] {
            let _ = std::fs::remove_file(p);
        }
        let cfg = FleetConfig::default().workers(1).checkpoint_to(&ck);
        let (events, _rx) = mpsc::channel();
        let mut coord = Coordinator::open(&cells, &cfg, events).unwrap();
        let hello = |spawn| Event {
            spawn,
            msg: Some(WorkerEvent::Hello {
                pid: 0,
                cells: cells.len(),
                digest: expansion_digest(&cells),
            }),
        };
        let done = |spawn, line: &str| Event {
            spawn,
            msg: Some(WorkerEvent::Done(CellReport {
                cell: 0,
                kind: OutcomeKind::Completed,
                verified: true,
                detail: String::new(),
                line: line.to_string(),
                snapshot: String::new(),
            })),
        };
        let holder = |coord: &Coordinator<'_>| match coord.states[0] {
            CellState::Leased { worker, .. } => Some(worker),
            _ => None,
        };

        let t0 = Instant::now();
        coord.spawn_one(&mut CatSpawner);
        coord.handle(hello(0), t0);
        assert_eq!(holder(&coord), Some(0));

        // Spawn 0 goes silent: its lease expires, it is killed and reaped,
        // and the respawned spawn 1 takes the cell over.
        let late = t0 + cfg.lease_ttl;
        coord.tick(late, &mut CatSpawner);
        assert!(!coord.workers.contains_key(&0));
        coord.handle(hello(1), late);
        assert_eq!(holder(&coord), Some(1));

        // Spawn 0's result arrives after all: stale, and never recorded.
        coord.handle(done(0, "zombie"), late);
        assert_eq!(coord.stats.stale_results, 1);
        assert_eq!(holder(&coord), Some(1), "the cell stays with its next holder");
        assert_eq!(done_cells(&lease_log), Vec::<usize>::new());

        // The holder's result is the one accepted.
        coord.handle(done(1, "holder"), late);
        assert_eq!(coord.stats.stale_results, 1);
        assert_eq!(coord.stats.cells_remote, 1);
        assert_eq!(done_cells(&lease_log), vec![0]);

        coord.drain();
        let report = coord.into_outcome().report;
        assert_eq!(report.cells[0].canonical_line(), "holder", "the holder's result finishes it");
        for p in [&ck, &lease_log] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn queued_beats_refresh_their_leases_before_they_expire() {
        let spec = tiny_spec();
        let cells = spec.expand();
        let cfg = FleetConfig::default().workers(2);
        let (events, rx) = mpsc::channel();
        let mut coord = Coordinator::open(&cells, &cfg, events.clone()).unwrap();
        let hello = |spawn| Event {
            spawn,
            msg: Some(WorkerEvent::Hello {
                pid: 0,
                cells: cells.len(),
                digest: expansion_digest(&cells),
            }),
        };
        // Both leases were granted two TTLs ago, and the loop has been
        // blocked since (by an inline cell, say) while both healthy workers
        // beat. Their beats wait in the channel.
        let granted = Instant::now().checked_sub(cfg.lease_ttl * 2).unwrap();
        coord.spawn_one(&mut CatSpawner);
        coord.spawn_one(&mut CatSpawner);
        coord.handle(hello(0), granted);
        coord.handle(hello(1), granted);
        assert!(matches!(coord.states[0], CellState::Leased { worker: 0, .. }));
        assert!(matches!(coord.states[1], CellState::Leased { worker: 1, .. }));
        for cell in 0..2 {
            events
                .send(Event { spawn: cell as u32, msg: Some(WorkerEvent::Beat { cell }) })
                .unwrap();
        }
        coord.step(&rx, Duration::ZERO, &mut CatSpawner);
        assert_eq!(coord.stats.heartbeats, 2, "every queued beat is handled");
        assert_eq!(coord.stats.reclaims_expired, 0, "no beating worker loses its lease");
        assert_eq!(coord.stats.worker_deaths, 0);
        assert!(matches!(coord.states[0], CellState::Leased { worker: 0, .. }));
        assert!(matches!(coord.states[1], CellState::Leased { worker: 1, .. }));
        coord.drain();
    }

    #[test]
    fn a_lease_log_from_another_spec_is_a_spec_mismatch() {
        let ck = temp_dir("foreign-log").join("sweep.jsonl");
        let lease_log = lease_log_path(&ck);
        for p in [&ck, &lease_log] {
            let _ = std::fs::remove_file(p);
        }
        let cfg = FleetConfig::default().checkpoint_to(&ck);
        run_fleet(&tiny_spec().seeds([1, 2]), &cfg, &mut NoSpawner).unwrap();
        // The checkpoint is lost; the lease log of seeds 1 and 2 stays.
        std::fs::remove_file(&ck).unwrap();

        // Seeds 3 and 4 expand to as many cells, none of them recorded.
        let err = run_fleet(&tiny_spec().seeds([3, 4]), &cfg, &mut NoSpawner).unwrap_err();
        assert!(
            matches!(err, TdgraphError::Checkpoint(CheckpointError::SpecMismatch { index: 0, .. })),
            "got {err}"
        );
        assert_eq!(std::fs::read(&ck).unwrap(), b"", "a refused log writes no checkpoint line");
        // The spec that wrote the log still restores every cell from it.
        let outcome = run_fleet(&tiny_spec().seeds([1, 2]), &cfg, &mut NoSpawner).unwrap();
        assert_eq!(outcome.stats.cells_restored, 4);
        assert_eq!(outcome.stats.cells_inline, 0);
        for p in [&ck, &lease_log] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn a_lease_log_from_before_done_only_records_still_restores() {
        let spec = tiny_spec();
        let serial = SweepRunner::new().threads(1).observe(true).run(&spec);
        let ck = temp_dir("old-log").join("sweep.jsonl");
        let lease_log = lease_log_path(&ck);
        let _ = std::fs::remove_file(&ck);
        // The old format: every lease and reclaim was logged, and a done
        // record carried the fencing token of its lease.
        let mut old = String::new();
        for (fence, result) in serial.cells.iter().enumerate() {
            let cell = result.cell.index;
            old.push_str(&format!(
                "{{\"fleet\":\"lease\",\"cell\":{cell},\"fence\":{fence},\"worker\":0,\"attempt\":0}}\n\
                 {{\"fleet\":\"reclaim\",\"cell\":{cell},\"fence\":{fence},\"reason\":\"dead\"}}\n\
                 {{\"fleet\":\"done\",\"fence\":{fence},{}}}\n",
                CellReport::of(result).render_fields()
            ));
        }
        std::fs::write(&lease_log, old).unwrap();

        let cfg = FleetConfig::default().observe(true).checkpoint_to(&ck);
        let outcome = run_fleet(&spec, &cfg, &mut NoSpawner).unwrap();
        assert_eq!(outcome.stats.cells_restored, serial.cells.len() as u64);
        assert_eq!(outcome.stats.cells_inline, 0, "no restored cell runs again");
        assert_eq!(outcome.report.canonical_lines(), serial.canonical_lines());
        assert_eq!(
            outcome.report.obs.as_ref().map(Snapshot::canonical_json_line),
            serial.obs.as_ref().map(Snapshot::canonical_json_line),
        );
        for p in [&ck, &lease_log] {
            let _ = std::fs::remove_file(p);
        }
    }
}

//! The multi-tenant ingest service.
//!
//! Each tenant is run by a **supervisor** thread that owns the durable
//! and deterministic state — batch former, recorded schedule, WAL
//! markers — and drains a **bounded** `sync_channel`. The engine itself
//! (not `Send`, possibly hostile: it can panic or hang) lives one level
//! down in a **generation** thread the supervisor can discard and
//! respawn. A generation that panics or trips the wall-clock watchdog is
//! replaced — bounded, with deterministic exponential backoff — and the
//! fresh generation replays the recorded schedule from the top, so a
//! recovered tenant's report is byte-identical to an untroubled run of
//! the same schedule. A tenant that exhausts its restart budget is
//! abandoned with evidence; its neighbors and the daemon never notice.
//!
//! Durability: with a WAL directory configured, every accepted line is
//! appended to the tenant's write-ahead log **before** it enters the
//! queue, and every batch close appends a synced marker. After a crash,
//! [`Service::recover_tenants`] reopens each tenant from its WAL and
//! replays the recorded batches through the same ingest path, so the
//! recovered finish reply is byte-identical to an uncrashed run.
//!
//! Overload: by default a full tenant queue blocks the producer
//! (backpressure). With an [`OverloadPolicy`], [`Service::admit_line`]
//! instead checks a global unprocessed-entry budget and the tenant queue
//! *before* logging or queuing, and refusals are explicit [`Admission::Shed`]
//! verdicts carrying a `retry_after` hint — admission never blocks, and shed
//! lines never enter the WAL.
//!
//! Determinism: the tenant recorder sees *only* what the offline harness
//! would emit for the same schedule — every timing-dependent quantity
//! (close reasons, queue depths, restarts, sheds) goes to a separate
//! service-level stats recorder. That split is what makes a live report
//! byte-identical to an offline replay of its recorded schedule.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdgraph_engines::engine::Engine;
use tdgraph_engines::registry::EngineRegistry;
use tdgraph_engines::session::{RunResult, StreamingSession};
use tdgraph_graph::datasets::StreamingWorkload;
use tdgraph_graph::wire::{parse_update_line, sanitize_detail, RecordedEntry, RecordedSchedule};
use tdgraph_obs::{keys, MemoryRecorder, Recorder, Snapshot};

use crate::batcher::{BatchClose, BatchFormer};
use crate::config::{OverloadPolicy, ServiceConfig, SessionConfig, SupervisionConfig};
use crate::protocol::HelloRequest;
use crate::wal::{scan_wal_dir, LoadedWal, TenantWal, WalEntry};

/// Errors from the service control surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A config failed validation.
    InvalidConfig(String),
    /// The tenancy limit is reached.
    TenantLimit(usize),
    /// The tenant name is already open.
    DuplicateTenant(String),
    /// No open tenant of that name.
    UnknownTenant(String),
    /// The session references an unregistered engine key.
    UnknownEngine(String),
    /// The tenant worker is gone (it should never exit on its own).
    WorkerGone(String),
    /// The write-ahead log could not be created or recovered.
    Wal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig(reason) => write!(f, "invalid config: {reason}"),
            ServeError::TenantLimit(max) => write!(f, "tenant limit ({max}) reached"),
            ServeError::DuplicateTenant(name) => write!(f, "tenant {name:?} is already open"),
            ServeError::UnknownTenant(name) => write!(f, "no open tenant {name:?}"),
            ServeError::UnknownEngine(key) => write!(f, "unknown engine key {key:?}"),
            ServeError::WorkerGone(name) => write!(f, "worker for tenant {name:?} is gone"),
            ServeError::Wal(reason) => write!(f, "write-ahead log failure: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A read-only view of a tenant's progress, served mid-stream.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    /// Clone of the tenant session recorder (deterministic surface).
    pub snapshot: Snapshot,
    /// Batches ingested so far.
    pub batches_done: u64,
    /// Entries currently buffered in the open batch.
    pub buffered: usize,
    /// Records quarantined so far.
    pub quarantined: u64,
}

/// How a tenant's supervision story ended. Deliberately **not** part of
/// the rendered wire report (it is timing-dependent: whether a panic hit
/// depends on which generation ran); it lives here and in the
/// `serve.supervision.*` stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantOutcome {
    /// No generation ever failed.
    Completed,
    /// At least one generation panicked or hung; the final report was
    /// produced by a fresh generation replaying the recorded schedule.
    Recovered {
        /// Restarts performed.
        restarts: u32,
    },
    /// The restart budget was exhausted; no result could be produced.
    Abandoned {
        /// Restarts performed before giving up.
        restarts: u32,
        /// The last failure, bounded and sanitized.
        evidence: String,
    },
}

/// Everything a finished tenant leaves behind.
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Engine registry key the session ran.
    pub engine: String,
    /// Algorithm display name.
    pub algo: String,
    /// The run result, or the fatal error that stopped ingestion.
    pub result: Result<RunResult, String>,
    /// The recorded wire schedule — replaying it offline through
    /// [`tdgraph_engines::config::RunSource::Recorded`] reproduces
    /// `result` and `snapshot` byte-identically.
    pub schedule: RecordedSchedule,
    /// Final tenant observability snapshot.
    pub snapshot: Snapshot,
    /// Highest observed ingest-queue depth (filled by the service; may
    /// overshoot the configured bound by at most one in-flight message).
    pub queue_peak: usize,
    /// The supervision outcome (timing-dependent; excluded from the
    /// rendered wire report like `queue_peak`).
    pub outcome: TenantOutcome,
}

/// Why a line was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The global unprocessed-entry budget is saturated.
    EntryBudget,
    /// The tenant's bounded queue is at capacity.
    QueueFull,
}

impl ShedReason {
    /// Stable wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::EntryBudget => "entry_budget",
            ShedReason::QueueFull => "queue_full",
        }
    }
}

/// The explicit refusal handed back for a shed line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedReply {
    /// Why the line was shed.
    pub reason: ShedReason,
    /// How long the client should wait before retrying.
    pub retry_after: Duration,
}

/// The admission verdict for one data line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The line was logged and queued.
    Accepted,
    /// The line was refused *before* touching the WAL or queue.
    Shed(ShedReply),
}

enum TenantMsg {
    Line(String),
    Truncated(String),
    Flush(Sender<usize>),
    Snapshot(Sender<Box<SnapshotView>>),
    Finish(Sender<Box<TenantReport>>),
}

/// The per-tenant state shared between the service front and the
/// supervisor: queue sender, gauges, resume offset, and the WAL handle.
struct HandleShared {
    tx: SyncSender<TenantMsg>,
    depth: Arc<AtomicI64>,
    peak: AtomicI64,
    /// Clean lines durably accepted — the resume offset a reconnecting
    /// client is told. Truncated fragments are excluded: the client
    /// re-sends the whole line.
    acked: AtomicU64,
    wal: Option<Arc<Mutex<TenantWal>>>,
    /// Serializes producers so WAL append order equals queue order —
    /// the invariant that makes batch-close markers group the right
    /// entries. Never held by the supervisor, so holding it across a
    /// blocking send cannot deadlock.
    producer: Mutex<()>,
}

struct TenantHandle {
    shared: Arc<HandleShared>,
    join: JoinHandle<()>,
}

/// The ingest daemon core: tenant lifecycle, bounded queues, durability,
/// supervision, and service stats. Wire protocol and TCP live in
/// [`crate::server`]; this type is fully usable in-process (the unit and
/// recovery tests drive it directly).
pub struct Service {
    cfg: ServiceConfig,
    registry: Arc<EngineRegistry>,
    tenants: Mutex<HashMap<String, TenantHandle>>,
    stats: Arc<Mutex<MemoryRecorder>>,
    /// Admitted-but-unprocessed entries across all tenants — the overload
    /// budget's measure. Incremented at admission, decremented when a
    /// batch commits, so a hung engine pins it high and saturates the
    /// budget deterministically.
    outstanding: Arc<AtomicI64>,
}

impl Service {
    /// A service over `registry`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] if `cfg` fails validation.
    pub fn new(cfg: ServiceConfig, registry: EngineRegistry) -> Result<Self, ServeError> {
        cfg.validate().map_err(ServeError::InvalidConfig)?;
        Ok(Self {
            cfg,
            registry: Arc::new(registry),
            tenants: Mutex::new(HashMap::new()),
            stats: Arc::new(Mutex::new(MemoryRecorder::default())),
            outstanding: Arc::new(AtomicI64::new(0)),
        })
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The session defaults tenants open with when no explicit config is
    /// given.
    #[must_use]
    pub fn session_defaults(&self) -> SessionConfig {
        self.cfg.session_defaults.clone()
    }

    /// Opens `tenant` with the service's session defaults.
    ///
    /// # Errors
    ///
    /// See [`Service::open_tenant_with`].
    pub fn open_tenant(&self, tenant: &str) -> Result<(), ServeError> {
        self.open_tenant_with(tenant, self.cfg.session_defaults.clone())
    }

    /// Opens `tenant` with an explicit session config: creates the WAL
    /// (when configured), spawns the supervisor thread, and registers the
    /// bounded ingest queue. The workload is prepared by each engine
    /// generation; a preparation failure is the generation's fatal error,
    /// reported in the finish reply.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`], [`ServeError::UnknownEngine`],
    /// [`ServeError::DuplicateTenant`], [`ServeError::TenantLimit`], or
    /// [`ServeError::Wal`].
    pub fn open_tenant_with(&self, tenant: &str, sc: SessionConfig) -> Result<(), ServeError> {
        self.open_tenant_inner(tenant, sc, None)
    }

    /// Recovers every tenant with a WAL file in the configured directory:
    /// reopens the session from the WAL head (resolved against the
    /// current session defaults), replays the recorded batches through
    /// the same ingest machinery, and re-feeds the un-batched tail into
    /// the batch former. Returns the recovered tenant names in recovery
    /// (file-name) order. A no-op without a WAL directory.
    ///
    /// Must run before serving: creating a tenant of the same name first
    /// would truncate its log.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wal`] on an unreadable directory, plus the
    /// [`Service::open_tenant_with`] errors. A WAL file that cannot be
    /// recovered (no head record, or damage before its final line) is
    /// skipped and counted in `serve.wal.io_errors`, not an error — one
    /// damaged tenant must not block the rest.
    pub fn recover_tenants(&self) -> Result<Vec<String>, ServeError> {
        let Some(dir) = self.cfg.wal_dir.clone() else {
            return Ok(Vec::new());
        };
        let mut recovered = Vec::new();
        for path in scan_wal_dir(&dir).map_err(|e| ServeError::Wal(e.to_string()))? {
            let loaded = match TenantWal::load(&path) {
                Ok(l) => l,
                Err(_) => {
                    lock_stats(&self.stats).counter(keys::SERVE_WAL_IO_ERRORS, 1);
                    continue;
                }
            };
            if loaded.torn_tail {
                lock_stats(&self.stats).counter(keys::SERVE_WAL_TORN_DROPPED, 1);
            }
            let head = &loaded.head;
            let hello = HelloRequest {
                tenant: head.tenant.clone(),
                engine: Some(head.engine.clone()),
                dataset: Some(head.dataset.clone()),
                sizing: Some(head.sizing.clone()),
                algo: Some(head.algo.clone()),
            };
            let sc = crate::server::session_from_hello(self.cfg.session_defaults.clone(), &hello)
                .map_err(|e| ServeError::Wal(format!("{}: {e}", path.display())))?
                .with_batch_max_entries(head.batch_max_entries)
                .with_batch_deadline(head.batch_deadline());
            let tenant = head.tenant.clone();
            self.open_tenant_inner(&tenant, sc, Some(loaded))?;
            recovered.push(tenant);
        }
        Ok(recovered)
    }

    fn open_tenant_inner(
        &self,
        tenant: &str,
        sc: SessionConfig,
        recovered: Option<LoadedWal>,
    ) -> Result<(), ServeError> {
        sc.validate().map_err(ServeError::InvalidConfig)?;
        if !self.registry.contains(&sc.engine) {
            return Err(ServeError::UnknownEngine(sc.engine.clone()));
        }

        let mut tenants = lock_tenants(&self.tenants);
        if tenants.contains_key(tenant) {
            return Err(ServeError::DuplicateTenant(tenant.to_string()));
        }
        if tenants.len() >= self.cfg.max_tenants {
            return Err(ServeError::TenantLimit(self.cfg.max_tenants));
        }

        let (wal, preseed, acked0) = match recovered {
            Some(loaded) => {
                // The recovered tail is new to this process: count it
                // into the outstanding budget so its eventual batch
                // commit balances. Replayed batches never touch the
                // budget — they were paid for before the crash.
                self.outstanding.fetch_add(loaded.tail.len() as i64, Ordering::SeqCst);
                (
                    Some(Arc::new(Mutex::new(loaded.wal))),
                    Some((loaded.batches, loaded.tail)),
                    loaded.acked,
                )
            }
            None => match &self.cfg.wal_dir {
                Some(dir) => {
                    let w = TenantWal::create(dir, &sc.wal_head(tenant))
                        .map_err(|e| ServeError::Wal(e.to_string()))?;
                    (Some(Arc::new(Mutex::new(w))), None, 0)
                }
                None => (None, None, 0),
            },
        };

        let (tx, rx) = sync_channel(self.cfg.queue_capacity);
        let depth = Arc::new(AtomicI64::new(0));
        let supervisor = Supervisor {
            tenant: tenant.to_string(),
            sc,
            registry: Arc::clone(&self.registry),
            stats: Arc::clone(&self.stats),
            supervision: self.cfg.supervision,
            former: BatchFormer::new(0, Duration::from_secs(1)), // replaced in start()
            schedule: RecordedSchedule::new(),
            wal: wal.clone(),
            outstanding: Arc::clone(&self.outstanding),
            gen: Gen::Abandoned { evidence: String::new() }, // replaced in start()
            restarts: 0,
        };
        let worker_depth = Arc::clone(&depth);
        let join = std::thread::spawn(move || {
            supervisor_loop(supervisor, rx, &worker_depth, preseed);
        });
        tenants.insert(
            tenant.to_string(),
            TenantHandle {
                shared: Arc::new(HandleShared {
                    tx,
                    depth,
                    peak: AtomicI64::new(0),
                    acked: AtomicU64::new(acked0),
                    wal,
                    producer: Mutex::new(()),
                }),
                join,
            },
        );
        Ok(())
    }

    /// Names of the currently open tenants, sorted.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        let tenants = lock_tenants(&self.tenants);
        let mut names: Vec<String> = tenants.keys().cloned().collect();
        names.sort();
        names
    }

    /// Whether `tenant` is open.
    #[must_use]
    pub fn is_open(&self, tenant: &str) -> bool {
        lock_tenants(&self.tenants).contains_key(tenant)
    }

    /// Clean lines durably accepted for `tenant` — the resume offset a
    /// reconnecting client should continue from. Truncated fragments are
    /// excluded (the client re-sends the whole line).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn acked(&self, tenant: &str) -> Result<u64, ServeError> {
        Ok(self.shared(tenant)?.acked.load(Ordering::SeqCst))
    }

    /// Admitted-but-unprocessed entries across all tenants (the overload
    /// budget's measure).
    #[must_use]
    pub fn outstanding_entries(&self) -> i64 {
        self.outstanding.load(Ordering::SeqCst)
    }

    /// Streams one raw wire line into `tenant`'s queue, appending it to
    /// the WAL first when one is configured. Blocks while the queue is at
    /// capacity — this is the backpressure edge. Use
    /// [`Service::admit_line`] for the non-blocking shedding front.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] or [`ServeError::WorkerGone`].
    pub fn ingest_line(&self, tenant: &str, line: impl Into<String>) -> Result<(), ServeError> {
        let shared = self.shared(tenant)?;
        self.send_admitted(tenant, &shared, line.into(), false)
    }

    /// Flushes a partial final line cut by connection loss into `tenant`
    /// as a quarantined truncated fragment: it is WAL-logged (but never
    /// counted into the resume offset) and rides the normal batch path
    /// into the session's quarantine ledger.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] or [`ServeError::WorkerGone`].
    pub fn ingest_truncated(
        &self,
        tenant: &str,
        fragment: impl Into<String>,
    ) -> Result<(), ServeError> {
        let shared = self.shared(tenant)?;
        lock_stats(&self.stats).counter(keys::SERVE_LINES_TRUNCATED, 1);
        self.send_admitted(tenant, &shared, fragment.into(), true)
    }

    /// The non-blocking admission front. Without an [`OverloadPolicy`]
    /// this is exactly [`Service::ingest_line`] (blocking backpressure).
    /// With one, the global entry budget and the tenant queue depth are
    /// checked *before* the line touches the WAL or queue; refusals return
    /// [`Admission::Shed`] with the policy's `retry_after` and are counted
    /// under `serve.shed.*`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] or [`ServeError::WorkerGone`].
    pub fn admit_line(
        &self,
        tenant: &str,
        line: impl Into<String>,
    ) -> Result<Admission, ServeError> {
        let Some(policy) = self.cfg.overload else {
            self.ingest_line(tenant, line)?;
            return Ok(Admission::Accepted);
        };
        let shared = self.shared(tenant)?;
        if self.outstanding.load(Ordering::SeqCst) >= policy.entry_budget as i64 {
            return Ok(self.shed(&policy, ShedReason::EntryBudget));
        }
        if shared.depth.load(Ordering::SeqCst) >= self.cfg.queue_capacity as i64 {
            return Ok(self.shed(&policy, ShedReason::QueueFull));
        }
        self.send_admitted(tenant, &shared, line.into(), false)?;
        Ok(Admission::Accepted)
    }

    fn shed(&self, policy: &OverloadPolicy, reason: ShedReason) -> Admission {
        let mut stats = lock_stats(&self.stats);
        stats.counter(keys::SERVE_SHED_LINES, 1);
        stats.counter(
            match reason {
                ShedReason::EntryBudget => keys::SERVE_SHED_ENTRY_BUDGET,
                ShedReason::QueueFull => keys::SERVE_SHED_QUEUE_FULL,
            },
            1,
        );
        Admission::Shed(ShedReply { reason, retry_after: policy.retry_after })
    }

    /// The admitted-line tail shared by every ingest path: WAL append
    /// (under the producer gate, so log order equals queue order), then
    /// the possibly-blocking queue send, then the depth gauges.
    fn send_admitted(
        &self,
        tenant: &str,
        shared: &HandleShared,
        payload: String,
        truncated: bool,
    ) -> Result<(), ServeError> {
        let _gate = lock_unit(&shared.producer);
        if let Some(wal) = &shared.wal {
            let appended = if truncated {
                lock_wal(wal).append_truncated(&payload)
            } else {
                lock_wal(wal).append_line(&payload)
            };
            let mut stats = lock_stats(&self.stats);
            match appended {
                Ok(()) => stats.counter(keys::SERVE_WAL_APPENDED_ENTRIES, 1),
                Err(_) => stats.counter(keys::SERVE_WAL_IO_ERRORS, 1),
            }
        }
        if !truncated {
            shared.acked.fetch_add(1, Ordering::SeqCst);
        }
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        let msg = if truncated { TenantMsg::Truncated(payload) } else { TenantMsg::Line(payload) };
        if shared.tx.send(msg).is_err() {
            self.outstanding.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::WorkerGone(tenant.to_string()));
        }
        // Count after the (possibly blocking) send: the counted depth
        // tracks messages actually enqueued, so the observed peak can
        // exceed the structural bound by at most the one message the
        // worker has received but not yet counted off.
        let d = shared.depth.fetch_add(1, Ordering::SeqCst) + 1;
        shared.peak.fetch_max(d, Ordering::SeqCst);
        Ok(())
    }

    /// Forces `tenant`'s open batch out (even undersized, even before its
    /// deadline) and returns how many entries it held.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] or [`ServeError::WorkerGone`].
    pub fn flush(&self, tenant: &str) -> Result<usize, ServeError> {
        let (reply_tx, reply_rx) = channel();
        self.request(tenant, TenantMsg::Flush(reply_tx))?;
        reply_rx.recv().map_err(|_| ServeError::WorkerGone(tenant.to_string()))
    }

    /// A read-only progress view of `tenant`. Does not flush: the view
    /// reflects completed batches only. Degrades (default snapshot) when
    /// the tenant's generation is hung or abandoned.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] or [`ServeError::WorkerGone`].
    pub fn snapshot(&self, tenant: &str) -> Result<SnapshotView, ServeError> {
        let (reply_tx, reply_rx) = channel();
        self.request(tenant, TenantMsg::Snapshot(reply_tx))?;
        reply_rx.recv().map(|b| *b).map_err(|_| ServeError::WorkerGone(tenant.to_string()))
    }

    /// Finishes `tenant`: drains its queue, flushes the final partial
    /// batch, runs final verification, removes the WAL file (nothing left
    /// to recover), and returns the full report. The tenant is closed
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] or [`ServeError::WorkerGone`].
    pub fn finish(&self, tenant: &str) -> Result<TenantReport, ServeError> {
        let handle = lock_tenants(&self.tenants)
            .remove(tenant)
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
        let (reply_tx, reply_rx) = channel();
        handle
            .shared
            .tx
            .send(TenantMsg::Finish(reply_tx))
            .map_err(|_| ServeError::WorkerGone(tenant.to_string()))?;
        let mut report =
            reply_rx.recv().map(|b| *b).map_err(|_| ServeError::WorkerGone(tenant.to_string()))?;
        let _ = handle.join.join();
        if let Some(wal) = &handle.shared.wal {
            let _ = lock_wal(wal).remove();
        }
        let peak = handle.shared.peak.load(Ordering::SeqCst).max(0) as usize;
        report.queue_peak = peak;
        let mut stats = lock_stats(&self.stats);
        stats.counter(keys::SERVE_TENANTS_FINISHED, 1);
        stats.histogram(keys::SERVE_QUEUE_PEAK_DEPTH, peak as u64);
        Ok(report)
    }

    /// Gracefully drains the whole service: finishes every open tenant in
    /// name order and returns their reports.
    pub fn shutdown(&self) -> Vec<TenantReport> {
        let mut reports = Vec::new();
        for name in self.tenant_names() {
            if let Ok(report) = self.finish(&name) {
                reports.push(report);
            }
        }
        reports
    }

    /// Simulates an unclean daemon death for recovery tests: every tenant
    /// is dropped **without** finishing — no final flush marker, no
    /// report, and crucially no WAL removal. Queued lines drain into the
    /// log's batch markers (the channel is read to exhaustion before the
    /// supervisor observes disconnect); the batch former's open tail is
    /// discarded, exactly as a crash would, leaving those entries in the
    /// WAL without a covering marker.
    pub fn abort(&self) {
        let handles: Vec<TenantHandle> =
            lock_tenants(&self.tenants).drain().map(|(_, handle)| handle).collect();
        for handle in handles {
            let TenantHandle { shared, join } = handle;
            drop(shared); // last sender: the supervisor sees disconnect
            let _ = join.join();
        }
    }

    /// The service-level stats snapshot: `serve.*` counters (batch close
    /// reasons, line rates, queue peaks, WAL, supervision, shedding).
    /// Timing-dependent by design — kept out of tenant snapshots so those
    /// stay replay-deterministic.
    #[must_use]
    pub fn stats(&self) -> Snapshot {
        lock_stats(&self.stats).snapshot().clone()
    }

    fn shared(&self, tenant: &str) -> Result<Arc<HandleShared>, ServeError> {
        let tenants = lock_tenants(&self.tenants);
        let handle =
            tenants.get(tenant).ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
        Ok(Arc::clone(&handle.shared))
    }

    fn request(&self, tenant: &str, msg: TenantMsg) -> Result<(), ServeError> {
        let shared = self.shared(tenant)?;
        shared.tx.send(msg).map_err(|_| ServeError::WorkerGone(tenant.to_string()))?;
        let d = shared.depth.fetch_add(1, Ordering::SeqCst) + 1;
        shared.peak.fetch_max(d, Ordering::SeqCst);
        Ok(())
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("tenants", &self.tenant_names())
            .field("queue_capacity", &self.cfg.queue_capacity)
            .finish()
    }
}

// Mutex poisoning cannot corrupt these structures (all updates are
// single-call atomic inserts), so recover the inner value instead of
// propagating a panic from an unrelated thread.
fn lock_tenants(
    m: &Mutex<HashMap<String, TenantHandle>>,
) -> std::sync::MutexGuard<'_, HashMap<String, TenantHandle>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_stats(m: &Mutex<MemoryRecorder>) -> std::sync::MutexGuard<'_, MemoryRecorder> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_wal(m: &Mutex<TenantWal>) -> std::sync::MutexGuard<'_, TenantWal> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_unit(m: &Mutex<()>) -> std::sync::MutexGuard<'_, ()> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Maps a wire payload to its recorded entry — the single classification
/// point shared by live intake, WAL tail re-feed, and (through identical
/// code) offline replay, so all three produce the same schedule bytes.
fn recorded_from_raw(raw: &str) -> RecordedEntry {
    match parse_update_line(raw) {
        Ok(update) => RecordedEntry::Update(update),
        Err(_) => RecordedEntry::Malformed(sanitize_detail(raw)),
    }
}

fn recorded_from_wal_entry(entry: WalEntry) -> RecordedEntry {
    match entry {
        WalEntry::Line(raw) => recorded_from_raw(&raw),
        WalEntry::Truncated(fragment) => RecordedEntry::Truncated(sanitize_detail(&fragment)),
    }
}

// ---------------------------------------------------------------------
// Supervisor: owns the deterministic spine (former, schedule, WAL
// markers) and drives disposable engine generations.
// ---------------------------------------------------------------------

enum Gen {
    Live {
        tx: Sender<GenMsg>,
        join: Option<JoinHandle<()>>,
        /// Recorded batches this generation has ingested; a fresh
        /// generation starts at 0 and replays the whole schedule.
        done: usize,
    },
    Abandoned {
        evidence: String,
    },
}

enum GenMsg {
    Batch(Vec<RecordedEntry>, Sender<GenBatchReply>),
    View(Sender<Box<SnapshotView>>),
    Finish(Sender<GenFinishReply>),
}

enum GenBatchReply {
    Done,
    Panicked(String),
}

enum GenFinishReply {
    Report(Box<(Result<RunResult, String>, Snapshot)>),
    Panicked(String),
}

struct Supervisor {
    tenant: String,
    sc: SessionConfig,
    registry: Arc<EngineRegistry>,
    stats: Arc<Mutex<MemoryRecorder>>,
    supervision: SupervisionConfig,
    former: BatchFormer,
    schedule: RecordedSchedule,
    wal: Option<Arc<Mutex<TenantWal>>>,
    outstanding: Arc<AtomicI64>,
    gen: Gen,
    restarts: u32,
}

impl Supervisor {
    fn note(&self, key: &'static str, n: u64) {
        lock_stats(&self.stats).counter(key, n);
    }

    fn spawn_gen(&self) -> Gen {
        let (tx, rx) = channel::<GenMsg>();
        let sc = self.sc.clone();
        let registry = Arc::clone(&self.registry);
        let join = std::thread::spawn(move || generation_main(&sc, registry.as_ref(), &rx));
        Gen::Live { tx, join: Some(join), done: 0 }
    }

    /// Replaces a failed generation: bounded restart with deterministic
    /// exponential backoff, or abandonment with evidence once the budget
    /// is spent. The failed generation is simply dropped — a hung thread
    /// is detached (its replies go nowhere), never joined.
    fn fail_generation(&mut self, evidence: String) {
        if self.restarts >= self.supervision.max_restarts {
            self.note(keys::SERVE_SUPERVISION_ABANDONED, 1);
            self.gen = Gen::Abandoned { evidence };
            return;
        }
        self.restarts += 1;
        self.note(keys::SERVE_SUPERVISION_RESTARTS, 1);
        std::thread::sleep(self.supervision.backoff_before(self.restarts));
        self.gen = self.spawn_gen();
    }

    /// Drives the live generation until it has ingested every recorded
    /// batch — the one replay path used by normal operation (one new
    /// batch), post-restart recovery (whole schedule), and WAL recovery
    /// (recovered batches).
    fn catch_up(&mut self) {
        loop {
            let (tx, done) = match &self.gen {
                Gen::Abandoned { .. } => return,
                Gen::Live { tx, done, .. } => (tx.clone(), *done),
            };
            if done >= self.schedule.len() {
                return;
            }
            let batch = self.schedule.batches()[done].clone();
            let (reply_tx, reply_rx) = channel();
            if tx.send(GenMsg::Batch(batch, reply_tx)).is_err() {
                self.note(keys::SERVE_SUPERVISION_PANICS, 1);
                self.fail_generation(format!("generation died before batch {done}"));
                continue;
            }
            match reply_rx.recv_timeout(self.supervision.batch_watchdog) {
                Ok(GenBatchReply::Done) => {
                    if let Gen::Live { done, .. } = &mut self.gen {
                        *done += 1;
                    }
                }
                Ok(GenBatchReply::Panicked(detail)) => {
                    self.note(keys::SERVE_SUPERVISION_PANICS, 1);
                    self.fail_generation(format!("panic while ingesting batch {done}: {detail}"));
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.note(keys::SERVE_SUPERVISION_WATCHDOG, 1);
                    self.fail_generation(format!(
                        "watchdog: batch {done} exceeded {:?}",
                        self.supervision.batch_watchdog
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.note(keys::SERVE_SUPERVISION_PANICS, 1);
                    self.fail_generation(format!("generation died during batch {done}"));
                }
            }
        }
    }

    /// Commits one closed batch: WAL marker + sync, service stats, the
    /// recorded schedule, generation catch-up, and the outstanding-budget
    /// release — in that order, so durability always precedes processing.
    fn commit(&mut self, entries: Vec<RecordedEntry>, why: BatchClose) {
        let n = entries.len();
        if let Some(wal) = &self.wal {
            let marked = lock_wal(wal).append_close(n, why);
            let mut stats = lock_stats(&self.stats);
            match marked {
                Ok(()) => {
                    stats.counter(keys::SERVE_WAL_BATCH_MARKS, 1);
                    stats.counter(keys::SERVE_WAL_FSYNCS, 1);
                }
                Err(_) => stats.counter(keys::SERVE_WAL_IO_ERRORS, 1),
            }
        }
        {
            // Timing-dependent accounting goes to the service stats
            // recorder only; the tenant recorder must stay identical to
            // an offline replay of the schedule.
            let malformed =
                entries.iter().filter(|e| matches!(e, RecordedEntry::Malformed(_))).count() as u64;
            let truncated =
                entries.iter().filter(|e| matches!(e, RecordedEntry::Truncated(_))).count() as u64;
            let mut stats = lock_stats(&self.stats);
            stats.counter(
                match why {
                    BatchClose::Size => keys::SERVE_BATCHES_SIZE_CLOSED,
                    BatchClose::Deadline => keys::SERVE_BATCHES_DEADLINE_CLOSED,
                    BatchClose::Flush => keys::SERVE_BATCHES_FLUSHED,
                },
                1,
            );
            stats.counter(keys::SERVE_LINES_MALFORMED, malformed);
            stats.counter(keys::SERVE_LINES_ACCEPTED, n as u64 - malformed - truncated);
        }
        self.schedule.push_batch(entries);
        self.catch_up();
        self.outstanding.fetch_sub(n as i64, Ordering::SeqCst);
    }

    fn accept(&mut self, entry: RecordedEntry, now: Instant) {
        if let Some((batch, why)) = self.former.push(entry, now) {
            self.commit(batch, why);
        }
    }

    fn close_due(&mut self, now: Instant) {
        if let Some((batch, why)) = self.former.close_if_due(now) {
            self.commit(batch, why);
        }
    }

    fn flush(&mut self) -> usize {
        match self.former.flush() {
            Some((batch, why)) => {
                let n = batch.len();
                self.commit(batch, why);
                n
            }
            None => 0,
        }
    }

    /// Seeds a recovered tenant: recorded batches go straight into the
    /// schedule (their markers already exist; replay counts to stats),
    /// then the un-batched tail re-enters the batch former as if it had
    /// just arrived — its eventual closes write legitimately new markers.
    fn preseed(&mut self, batches: Vec<Vec<WalEntry>>, tail: Vec<WalEntry>) {
        if !batches.is_empty() {
            let n_entries: usize = batches.iter().map(Vec::len).sum();
            let mut stats = lock_stats(&self.stats);
            stats.counter(keys::SERVE_WAL_REPLAYED_BATCHES, batches.len() as u64);
            stats.counter(keys::SERVE_WAL_REPLAYED_ENTRIES, n_entries as u64);
        }
        for batch in batches {
            self.schedule.push_batch(batch.into_iter().map(recorded_from_wal_entry).collect());
        }
        self.catch_up();
        if !tail.is_empty() {
            self.note(keys::SERVE_WAL_TAIL_ENTRIES, tail.len() as u64);
        }
        let now = Instant::now();
        for entry in tail {
            self.accept(recorded_from_wal_entry(entry), now);
        }
    }

    fn view(&mut self) -> SnapshotView {
        let degraded = |former: &BatchFormer| SnapshotView {
            snapshot: Snapshot::default(),
            batches_done: 0,
            buffered: former.buffered(),
            quarantined: 0,
        };
        let tx = match &self.gen {
            Gen::Abandoned { .. } => return degraded(&self.former),
            Gen::Live { tx, .. } => tx.clone(),
        };
        let (reply_tx, reply_rx) = channel();
        if tx.send(GenMsg::View(reply_tx)).is_ok() {
            if let Ok(mut boxed) = reply_rx.recv_timeout(self.supervision.batch_watchdog) {
                boxed.buffered = self.former.buffered();
                return *boxed;
            }
        }
        // Unresponsive generation: serve a degraded view; the next batch
        // commit's watchdog owns the restart decision.
        degraded(&self.former)
    }

    fn into_report(mut self) -> TenantReport {
        self.flush();
        let (result, snapshot, outcome) = loop {
            let tx = match &self.gen {
                Gen::Abandoned { evidence } => {
                    break (
                        Err(format!(
                            "tenant abandoned after {} restart(s): {evidence}",
                            self.restarts
                        )),
                        Snapshot::default(),
                        TenantOutcome::Abandoned {
                            restarts: self.restarts,
                            evidence: evidence.clone(),
                        },
                    );
                }
                Gen::Live { tx, .. } => tx.clone(),
            };
            let (reply_tx, reply_rx) = channel();
            if tx.send(GenMsg::Finish(reply_tx)).is_err() {
                self.note(keys::SERVE_SUPERVISION_PANICS, 1);
                self.fail_generation("generation died before finish".to_string());
                self.catch_up();
                continue;
            }
            match reply_rx.recv_timeout(self.supervision.batch_watchdog) {
                Ok(GenFinishReply::Report(boxed)) => {
                    let (result, snapshot) = *boxed;
                    if let Gen::Live { join, .. } = &mut self.gen {
                        if let Some(join) = join.take() {
                            let _ = join.join(); // already replied; immediate
                        }
                    }
                    let outcome = if self.restarts > 0 {
                        self.note(keys::SERVE_SUPERVISION_RECOVERED, 1);
                        TenantOutcome::Recovered { restarts: self.restarts }
                    } else {
                        TenantOutcome::Completed
                    };
                    break (result, snapshot, outcome);
                }
                Ok(GenFinishReply::Panicked(detail)) => {
                    self.note(keys::SERVE_SUPERVISION_PANICS, 1);
                    self.fail_generation(format!("panic during finish: {detail}"));
                    self.catch_up();
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.note(keys::SERVE_SUPERVISION_WATCHDOG, 1);
                    self.fail_generation(format!(
                        "watchdog: finish exceeded {:?}",
                        self.supervision.batch_watchdog
                    ));
                    self.catch_up();
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.note(keys::SERVE_SUPERVISION_PANICS, 1);
                    self.fail_generation("generation died during finish".to_string());
                    self.catch_up();
                }
            }
        };
        TenantReport {
            tenant: self.tenant,
            engine: self.sc.engine,
            algo: self.sc.algo.label().to_string(),
            result,
            schedule: self.schedule,
            snapshot,
            queue_peak: 0, // filled by Service::finish
            outcome,
        }
    }
}

/// The per-tenant supervisor loop: wait on the queue bounded by the
/// former's armed deadline (so deadline closes fire even when the stream
/// goes quiet), commit closed batches, answer control requests. Exiting
/// on disconnect without a finish is the abandonment/crash path: no
/// flush, no report, and any recorded WAL stays for recovery.
fn supervisor_loop(
    mut sup: Supervisor,
    rx: Receiver<TenantMsg>,
    depth: &AtomicI64,
    preseed: Option<(Vec<Vec<WalEntry>>, Vec<WalEntry>)>,
) {
    sup.former = BatchFormer::new(sup.sc.batch_max_entries, sup.sc.batch_deadline);
    sup.gen = sup.spawn_gen();
    if let Some((batches, tail)) = preseed {
        sup.preseed(batches, tail);
    }
    loop {
        let msg = if let Some(due) = sup.former.deadline_at() {
            let now = Instant::now();
            if now >= due {
                sup.close_due(now);
                continue;
            }
            match rx.recv_timeout(due - now) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    sup.close_due(Instant::now());
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        } else {
            match rx.recv() {
                Ok(m) => m,
                // Every sender dropped without Finish: tenant abandoned
                // (or the daemon is simulating a crash via abort()).
                Err(_) => return,
            }
        };
        depth.fetch_sub(1, Ordering::SeqCst);
        match msg {
            TenantMsg::Line(raw) => sup.accept(recorded_from_raw(&raw), Instant::now()),
            TenantMsg::Truncated(fragment) => {
                sup.accept(RecordedEntry::Truncated(sanitize_detail(&fragment)), Instant::now());
            }
            TenantMsg::Flush(reply) => {
                let n = sup.flush();
                let _ = reply.send(n);
            }
            TenantMsg::Snapshot(reply) => {
                let _ = reply.send(Box::new(sup.view()));
            }
            TenantMsg::Finish(reply) => {
                let _ = reply.send(Box::new(sup.into_report()));
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Generation: one disposable engine + session, fully owned by its own
// thread (engines are not `Send`), every fallible operation wrapped in
// `catch_unwind` so a hostile workload panics the generation, never the
// supervisor.
// ---------------------------------------------------------------------

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        sanitize_detail(s)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        sanitize_detail(s)
    } else {
        "panic payload of unknown type".to_string()
    }
}

struct GenState {
    session: Option<StreamingSession>,
    engine: Option<Box<dyn Engine>>,
    recorder: MemoryRecorder,
    fatal: Option<String>,
}

fn generation_main(sc: &SessionConfig, registry: &EngineRegistry, rx: &Receiver<GenMsg>) {
    // Build in-thread; a deterministic build failure (unknown engine key
    // races are pre-checked, so this is workload/session setup) is a
    // `fatal` result, not a panic — restarting would not change it.
    let mut state =
        GenState { session: None, engine: None, recorder: MemoryRecorder::default(), fatal: None };
    match registry.try_build(&sc.engine) {
        Ok(engine) => state.engine = Some(engine),
        Err(e) => state.fatal = Some(e.to_string()),
    }
    match StreamingWorkload::try_prepare(sc.dataset, sc.sizing).map_err(|e| e.to_string()).and_then(
        |workload| {
            let algo = sc.algo.resolve(workload.hub_vertex());
            StreamingSession::new(algo, workload, sc.run.clone()).map_err(|e| e.to_string())
        },
    ) {
        Ok(session) => state.session = Some(session),
        Err(e) => {
            state.fatal.get_or_insert(e);
        }
    }

    while let Ok(msg) = rx.recv() {
        match msg {
            GenMsg::Batch(entries, reply) => {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if state.fatal.is_none() {
                        if let (Some(session), Some(engine)) =
                            (state.session.as_mut(), state.engine.as_mut())
                        {
                            if let Err(e) = session.ingest_entries(
                                engine.as_mut(),
                                &entries,
                                &mut state.recorder,
                            ) {
                                state.fatal = Some(e.to_string());
                            }
                        }
                    }
                }));
                match outcome {
                    Ok(()) => {
                        let _ = reply.send(GenBatchReply::Done);
                    }
                    Err(payload) => {
                        // State may be torn mid-panic: report and die; the
                        // supervisor replays into a fresh generation.
                        let _ = reply.send(GenBatchReply::Panicked(panic_detail(payload.as_ref())));
                        return;
                    }
                }
            }
            GenMsg::View(reply) => {
                let view = SnapshotView {
                    snapshot: state.recorder.snapshot().clone(),
                    batches_done: state.session.as_ref().map_or(0, StreamingSession::batches_done),
                    buffered: 0, // the former lives in the supervisor
                    quarantined: state.session.as_ref().map_or(0, |s| s.quarantine().total()),
                };
                let _ = reply.send(Box::new(view));
            }
            GenMsg::Finish(reply) => {
                let msg = match (state.fatal.take(), state.session.take(), state.engine.take()) {
                    (None, Some(session), Some(engine)) => {
                        let mut recorder = std::mem::take(&mut state.recorder);
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                            let result = session.finish(engine.as_ref(), &mut recorder);
                            (result, recorder.into_snapshot())
                        })) {
                            Ok((result, snapshot)) => {
                                GenFinishReply::Report(Box::new((Ok(result), snapshot)))
                            }
                            Err(payload) => {
                                GenFinishReply::Panicked(panic_detail(payload.as_ref()))
                            }
                        }
                    }
                    (Some(fatal), _, _) => GenFinishReply::Report(Box::new((
                        Err(fatal),
                        std::mem::take(&mut state.recorder).into_snapshot(),
                    ))),
                    _ => GenFinishReply::Report(Box::new((
                        Err("session initialization failed".to_string()),
                        std::mem::take(&mut state.recorder).into_snapshot(),
                    ))),
                };
                let _ = reply.send(msg);
                return;
            }
        }
    }
}

//! Service and session configuration builders.
//!
//! The builder family deliberately mirrors `SweepSpec`: chainable
//! `with_*` setters over plain public fields, validated once at open time
//! into typed errors. [`ServiceConfig`] shapes the daemon (queue bound,
//! tenancy limit, session defaults); [`SessionConfig`] shapes one
//! tenant's ingest session (workload, algorithm, engine, batch-former
//! thresholds, and the embedded [`RunConfig`] consumed by the shared
//! harness core).

use std::path::PathBuf;
use std::time::Duration;

use tdgraph_engines::config::{AlgoSel, RunConfig};
use tdgraph_graph::datasets::{Dataset, Sizing};
use tdgraph_graph::quarantine::IngestMode;

use crate::wal::WalHead;

/// The algorithm a tenant session runs; the service API's name for
/// [`AlgoSel`].
pub type AlgoChoice = AlgoSel;

/// Configuration of one tenant's ingest session.
///
/// Defaults are service-shaped: lenient ingest (the wire is the front
/// door for hostile traffic, so bad records quarantine instead of
/// erroring), the 4-core test machine, batches closed at 256 entries or
/// a 50 ms latency deadline — whichever fires first.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The base workload: dataset profile streamed 50 %-preloaded.
    pub dataset: Dataset,
    /// Workload sizing.
    pub sizing: Sizing,
    /// Algorithm selection.
    pub algo: AlgoChoice,
    /// Engine registry key (e.g. `"ligra-o"`, `"tdgraph-h"`).
    pub engine: String,
    /// The embedded harness configuration. `batches`, `batch_size`,
    /// `add_fraction`, `seed`, and `fault_plan` are ignored — the wire
    /// stream drives the schedule — but everything else (machine, α,
    /// oracle cadence, ingest mode, exec mode) applies as offline.
    pub run: RunConfig,
    /// Size threshold: the batch former closes a batch when it holds this
    /// many entries (accepted updates *and* quarantined malformed lines —
    /// counting both keeps buffered memory bounded under garbage floods).
    pub batch_max_entries: usize,
    /// Latency deadline: an open batch closes this long after its first
    /// entry arrived, even if under the size threshold.
    pub batch_deadline: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            dataset: Dataset::Amazon,
            sizing: Sizing::Tiny,
            algo: AlgoChoice::HubSssp,
            engine: "ligra-o".to_string(),
            run: RunConfig::small().with_ingest(IngestMode::Lenient),
            batch_max_entries: 256,
            batch_deadline: Duration::from_millis(50),
        }
    }
}

impl SessionConfig {
    /// A default session config.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the workload dataset.
    #[must_use]
    pub fn with_dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = dataset;
        self
    }

    /// Sets the workload sizing.
    #[must_use]
    pub fn with_sizing(mut self, sizing: Sizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// Sets the algorithm.
    #[must_use]
    pub fn with_algo(mut self, algo: impl Into<AlgoChoice>) -> Self {
        self.algo = algo.into();
        self
    }

    /// Sets the engine registry key.
    #[must_use]
    pub fn with_engine(mut self, key: impl Into<String>) -> Self {
        self.engine = key.into();
        self
    }

    /// Replaces the embedded harness configuration.
    #[must_use]
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Mutates the embedded harness configuration in place.
    #[must_use]
    pub fn tune(mut self, f: impl FnOnce(&mut RunConfig)) -> Self {
        f(&mut self.run);
        self
    }

    /// Sets the batch-former size threshold.
    #[must_use]
    pub fn with_batch_max_entries(mut self, max_entries: usize) -> Self {
        self.batch_max_entries = max_entries;
        self
    }

    /// Sets the batch-former latency deadline.
    #[must_use]
    pub fn with_batch_deadline(mut self, deadline: Duration) -> Self {
        self.batch_deadline = deadline;
        self
    }

    /// Validates this session config (thresholds plus the embedded
    /// [`RunConfig`]).
    ///
    /// # Errors
    ///
    /// A human-readable reason naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_max_entries == 0 {
            return Err("batch_max_entries must be >= 1".to_string());
        }
        if self.batch_deadline.is_zero() {
            return Err("batch_deadline must be non-zero".to_string());
        }
        self.run.validate().map_err(|e| e.to_string())
    }

    /// The durable-log head record for a tenant opened with this config:
    /// the session fields in `hello` vocabulary, so recovery resolves
    /// them through the same parser the wire uses.
    #[must_use]
    pub fn wal_head(&self, tenant: &str) -> WalHead {
        WalHead {
            tenant: tenant.to_string(),
            engine: self.engine.clone(),
            dataset: self.dataset.abbrev().to_string(),
            sizing: self.sizing.name().to_string(),
            algo: self.algo.label().to_ascii_lowercase(),
            batch_max_entries: self.batch_max_entries,
            batch_deadline_ms: u64::try_from(self.batch_deadline.as_millis()).unwrap_or(u64::MAX),
        }
    }
}

/// Supervision policy for tenant engine generations: how long one batch
/// may take before the watchdog detaches the generation, how many
/// deterministic restart-with-replay attempts a tenant gets, and the base
/// of the exponential restart backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Restart budget per tenant. A generation that panics or hangs is
    /// restarted and the recorded schedule replayed from the top; after
    /// this many restarts the tenant is abandoned with evidence.
    pub max_restarts: u32,
    /// Wall-clock bound on a single batch ingest (and on finish). A
    /// generation exceeding it is treated as hung: detached, never joined.
    pub batch_watchdog: Duration,
    /// Base restart delay; attempt `k` (1-based) waits
    /// `restart_backoff * 2^(k-1)` — deterministic, bounded by the
    /// restart budget.
    pub restart_backoff: Duration,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            max_restarts: 2,
            batch_watchdog: Duration::from_secs(30),
            restart_backoff: Duration::from_millis(10),
        }
    }
}

impl SupervisionConfig {
    /// A default supervision policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-tenant restart budget.
    #[must_use]
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Sets the per-batch wall-clock watchdog.
    #[must_use]
    pub fn with_batch_watchdog(mut self, watchdog: Duration) -> Self {
        self.batch_watchdog = watchdog;
        self
    }

    /// Sets the base restart backoff.
    #[must_use]
    pub fn with_restart_backoff(mut self, backoff: Duration) -> Self {
        self.restart_backoff = backoff;
        self
    }

    /// The deterministic backoff before restart attempt `attempt`
    /// (1-based): `restart_backoff * 2^(attempt-1)`, saturating.
    #[must_use]
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        self.restart_backoff
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
    }
}

/// Overload-shedding policy. When absent (the default) the service keeps
/// its original behaviour: a full tenant queue blocks the producer
/// (backpressure). When present, admission is checked *before* the line
/// is logged or queued, and refusals are explicit `shed` replies carrying
/// a `retry_after` hint — the accept loop never blocks on a slow tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Global budget of admitted-but-unprocessed entries across all
    /// tenants. Admission is refused while the outstanding count is at or
    /// over this bound, so one hung tenant saturates the budget instead
    /// of growing memory.
    pub entry_budget: usize,
    /// The retry hint attached to shed replies.
    pub retry_after: Duration,
    /// Whether a full per-tenant queue sheds instead of blocking the
    /// producer.
    pub shed_on_queue_full: bool,
    /// Socket write deadline for replies; a slow-reading client errors
    /// out instead of wedging its connection handler.
    pub write_deadline: Option<Duration>,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            entry_budget: 4096,
            retry_after: Duration::from_millis(50),
            shed_on_queue_full: true,
            write_deadline: Some(Duration::from_secs(5)),
        }
    }
}

impl OverloadPolicy {
    /// A default overload policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the global unprocessed-entry budget.
    #[must_use]
    pub fn with_entry_budget(mut self, budget: usize) -> Self {
        self.entry_budget = budget;
        self
    }

    /// Sets the retry hint attached to shed replies.
    #[must_use]
    pub fn with_retry_after(mut self, retry_after: Duration) -> Self {
        self.retry_after = retry_after;
        self
    }

    /// Sets whether a full tenant queue sheds instead of blocking.
    #[must_use]
    pub fn with_shed_on_queue_full(mut self, shed: bool) -> Self {
        self.shed_on_queue_full = shed;
        self
    }

    /// Sets the reply write deadline.
    #[must_use]
    pub fn with_write_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.write_deadline = deadline;
        self
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// A human-readable reason naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.entry_budget == 0 {
            return Err("overload entry_budget must be >= 1".to_string());
        }
        if self.retry_after.is_zero() {
            return Err("overload retry_after must be non-zero".to_string());
        }
        Ok(())
    }
}

/// Configuration of the service as a whole.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bounded per-tenant ingest-queue capacity (messages). A full queue
    /// blocks the producer — backpressure, not memory growth.
    pub queue_capacity: usize,
    /// Maximum concurrently open tenants.
    pub max_tenants: usize,
    /// Session defaults for tenants opened without an explicit config.
    pub session_defaults: SessionConfig,
    /// Durable ingest-log directory. `None` disables the WAL (the PR 6
    /// in-memory behaviour); `Some` makes every accepted line durable
    /// before it enters the queue and enables crash recovery.
    pub wal_dir: Option<PathBuf>,
    /// Per-tenant supervision policy (always on; panics are never allowed
    /// to escape a tenant worker).
    pub supervision: SupervisionConfig,
    /// Overload-shedding policy. `None` (default) keeps blocking
    /// backpressure; `Some` sheds with explicit `retry_after` replies.
    pub overload: Option<OverloadPolicy>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_tenants: 16,
            session_defaults: SessionConfig::default(),
            wal_dir: None,
            supervision: SupervisionConfig::default(),
            overload: None,
        }
    }
}

impl ServiceConfig {
    /// A default service config.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the bounded per-tenant queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the tenancy limit.
    #[must_use]
    pub fn with_max_tenants(mut self, max_tenants: usize) -> Self {
        self.max_tenants = max_tenants;
        self
    }

    /// Sets the session defaults.
    #[must_use]
    pub fn with_session_defaults(mut self, defaults: SessionConfig) -> Self {
        self.session_defaults = defaults;
        self
    }

    /// Enables the durable ingest WAL under `dir`.
    #[must_use]
    pub fn with_wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Sets the supervision policy.
    #[must_use]
    pub fn with_supervision(mut self, supervision: SupervisionConfig) -> Self {
        self.supervision = supervision;
        self
    }

    /// Enables overload shedding under `policy`.
    #[must_use]
    pub fn with_overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = Some(policy);
        self
    }

    /// Validates the service config and its session defaults.
    ///
    /// # Errors
    ///
    /// A human-readable reason naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be >= 1".to_string());
        }
        if self.max_tenants == 0 {
            return Err("max_tenants must be >= 1".to_string());
        }
        if let Some(overload) = &self.overload {
            overload.validate()?;
        }
        self.session_defaults.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_algos::traits::Algo;

    #[test]
    fn defaults_validate() {
        ServiceConfig::default().validate().unwrap();
        SessionConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_thresholds_are_rejected() {
        assert!(SessionConfig::new().with_batch_max_entries(0).validate().is_err());
        assert!(SessionConfig::new().with_batch_deadline(Duration::ZERO).validate().is_err());
        assert!(ServiceConfig::new().with_queue_capacity(0).validate().is_err());
        assert!(ServiceConfig::new().with_max_tenants(0).validate().is_err());
    }

    #[test]
    fn embedded_run_config_is_validated() {
        let bad = SessionConfig::new().tune(|r| r.alpha = -1.0);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("alpha"));
    }

    #[test]
    fn exec_shards_beyond_the_cores_are_rejected() {
        // The daemon's `--exec-shards` lands in the session defaults, so
        // `Service::new` refuses a count no simulated core could replay.
        let cores = SessionConfig::new().run.sim.cores;
        let fits = SessionConfig::new().tune(|r| r.exec = r.exec.shards(cores + 1));
        ServiceConfig::new().with_session_defaults(fits).validate().unwrap();
        for shards in [cores + 2, 1_099_511_627_777] {
            let bad = SessionConfig::new().tune(|r| r.exec = r.exec.shards(shards));
            let err = ServiceConfig::new().with_session_defaults(bad).validate().unwrap_err();
            assert!(err.contains("exec"), "{shards}: {err}");
        }
    }

    #[test]
    fn overload_policy_is_validated() {
        let bad = ServiceConfig::new().with_overload(OverloadPolicy::new().with_entry_budget(0));
        assert!(bad.validate().unwrap_err().contains("entry_budget"));
        let bad = ServiceConfig::new()
            .with_overload(OverloadPolicy::new().with_retry_after(Duration::ZERO));
        assert!(bad.validate().unwrap_err().contains("retry_after"));
        ServiceConfig::new().with_overload(OverloadPolicy::new()).validate().unwrap();
    }

    #[test]
    fn restart_backoff_is_deterministic_and_exponential() {
        let sup = SupervisionConfig::new().with_restart_backoff(Duration::from_millis(10));
        assert_eq!(sup.backoff_before(1), Duration::from_millis(10));
        assert_eq!(sup.backoff_before(2), Duration::from_millis(20));
        assert_eq!(sup.backoff_before(3), Duration::from_millis(40));
    }

    #[test]
    fn wal_head_round_trips_session_labels() {
        let sc = SessionConfig::new()
            .with_dataset(Dataset::Dblp)
            .with_sizing(Sizing::Small)
            .with_algo(Algo::pagerank())
            .with_engine("graphbolt")
            .with_batch_max_entries(8)
            .with_batch_deadline(Duration::from_secs(600));
        let head = sc.wal_head("alpha");
        assert_eq!(head.tenant, "alpha");
        assert_eq!(head.engine, "graphbolt");
        assert_eq!(head.dataset, Dataset::Dblp.abbrev());
        assert_eq!(head.sizing, "small");
        assert_eq!(head.algo, "pagerank");
        assert_eq!(head.batch_max_entries, 8);
        assert_eq!(head.batch_deadline(), Duration::from_secs(600));
    }
}

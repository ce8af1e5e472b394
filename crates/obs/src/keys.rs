//! The shared metric vocabulary.
//!
//! Every crate that emits into the observability layer uses these keys, so
//! a snapshot merged from any mix of engines, simulator, and sweep shards
//! has one consistent namespace: `updates.*` for the engine-side update
//! counters, `sim.*` for the machine model, `energy.*` for the energy
//! rollup, `run.*` for run-level aggregates, and bare phase names for the
//! time breakdown.

/// Vertex-state writes performed by engines (`UpdateCounters` total).
pub const STATE_WRITES: &str = "updates.state_writes";
/// Edges processed during propagation.
pub const EDGES_PROCESSED: &str = "updates.edges_processed";
/// Final writes of vertices whose value actually changed (Fig 3b/11).
pub const USEFUL_UPDATES: &str = "updates.useful";

/// L1D hits.
pub const L1_HITS: &str = "sim.l1_hits";
/// L2 hits.
pub const L2_HITS: &str = "sim.l2_hits";
/// LLC hits.
pub const LLC_HITS: &str = "sim.llc_hits";
/// LLC misses (DRAM line reads).
pub const LLC_MISSES: &str = "sim.llc_misses";
/// Total accesses issued.
pub const ACCESSES: &str = "sim.accesses";
/// NoC hop·cycles.
pub const NOC_HOP_CYCLES: &str = "sim.noc_hop_cycles";
/// Coherence invalidations.
pub const INVALIDATIONS: &str = "sim.invalidations";
/// State-region LLC lines evicted or flushed.
pub const STATE_LINES: &str = "sim.state_lines";
/// 4 B words touched in those lines while resident.
pub const STATE_WORDS_TOUCHED: &str = "sim.state_words_touched";
/// Prefix for per-op counters (`sim.op.<snake_case_op>`).
pub const OP_PREFIX: &str = "sim.op.";
/// Prefix for per-region access counters (`sim.region.<snake_case_region>`).
pub const REGION_PREFIX: &str = "sim.region.";

/// DRAM bytes moved (reads + writebacks).
pub const DRAM_BYTES: &str = "sim.dram_bytes";
/// DRAM line reads.
pub const DRAM_READS: &str = "sim.dram_reads";

/// Core energy in nanojoules (gauge).
pub const ENERGY_CORE_NJ: &str = "energy.core_nj";
/// Cache-hierarchy energy in nanojoules (gauge).
pub const ENERGY_CACHE_NJ: &str = "energy.cache_nj";
/// NoC energy in nanojoules (gauge).
pub const ENERGY_NOC_NJ: &str = "energy.noc_nj";
/// DRAM energy in nanojoules (gauge).
pub const ENERGY_DRAM_NJ: &str = "energy.dram_nj";

/// Total simulated cycles of a run.
pub const RUN_CYCLES: &str = "run.cycles";
/// Update batches streamed.
pub const RUN_BATCHES: &str = "run.batches";
/// Engine label of a run.
pub const RUN_ENGINE: &str = "run.engine";
/// Algorithm label of a run.
pub const RUN_ALGO: &str = "run.algo";

/// The propagation phase (Fig 3a/10 "state propagation").
pub const PHASE_PROPAGATION: &str = "propagation";
/// Every other phase (batch application, tracking, scheduling).
pub const PHASE_OTHER: &str = "other";

/// Total records quarantined by lenient ingest. Emitted only when
/// non-zero so clean runs stay byte-identical to pre-quarantine snapshots.
pub const QUARANTINE_TOTAL: &str = "quarantine.total";
/// Quarantine per-reason counter: unparseable edge-list lines.
pub const QUARANTINE_MALFORMED_LINE: &str = "quarantine.malformed_line";
/// Quarantine per-reason counter: vertex ids overflowing `VertexId`.
pub const QUARANTINE_ID_OVERFLOW: &str = "quarantine.id_overflow";
/// Quarantine per-reason counter: reader failures mid-stream.
pub const QUARANTINE_IO_INTERRUPTED: &str = "quarantine.io_interrupted";
/// Quarantine per-reason counter: self-loop additions.
pub const QUARANTINE_SELF_LOOP: &str = "quarantine.self_loop";
/// Quarantine per-reason counter: add+delete conflicts within a batch.
pub const QUARANTINE_CONFLICTING_UPDATE: &str = "quarantine.conflicting_update";
/// Quarantine per-reason counter: NaN/±inf addition weights.
pub const QUARANTINE_NON_FINITE_WEIGHT: &str = "quarantine.non_finite_weight";
/// Quarantine per-reason counter: endpoints outside the vertex range.
pub const QUARANTINE_VERTEX_OUT_OF_BOUNDS: &str = "quarantine.vertex_out_of_bounds";
/// Quarantine per-reason counter: deletions of absent edges.
pub const QUARANTINE_ABSENT_DELETION: &str = "quarantine.absent_deletion";
/// Quarantine per-reason counter: wire lines cut short by connection loss
/// (EOF mid-line or a torn write at a crash).
pub const QUARANTINE_TRUNCATED_LINE: &str = "quarantine.truncated_line";
/// Quarantine per-reason counter: reasons added after this release
/// (`QuarantineReason` is `#[non_exhaustive]`; unknown variants roll up
/// here so old consumers keep counting instead of panicking).
pub const QUARANTINE_OTHER: &str = "quarantine.other";

/// Differential-oracle comparisons performed mid-run. Emitted only when
/// non-zero (i.e., `OracleMode::EveryNBatches` was active).
pub const ORACLE_CHECKS: &str = "oracle.checks";
/// Differential-oracle comparisons that found a mismatch.
pub const ORACLE_MISMATCHES: &str = "oracle.mismatches";

// ---------------------------------------------------------------------
// Graph-store keys (`storage.*`): tier occupancy and transitions of the
// degree-adaptive hybrid store. Like `quarantine.*`, the whole group is
// emitted only when non-zero — the CSR baseline has no tiers, so its
// snapshots stay byte-identical to the pre-storage-axis era.
// ---------------------------------------------------------------------

/// Vertices resident in the inline tier at the end of the run (gauge-like
/// counter, end-of-run value).
pub const STORAGE_TIER_INLINE: &str = "storage.tier.inline";
/// Vertices resident in the linear-buffer tier at the end of the run.
pub const STORAGE_TIER_LINEAR: &str = "storage.tier.linear";
/// Vertices resident in the hash-indexed tier at the end of the run.
pub const STORAGE_TIER_INDEXED: &str = "storage.tier.indexed";
/// Tier promotions performed over the whole run (inline→linear,
/// linear→indexed).
pub const STORAGE_PROMOTIONS: &str = "storage.promotions";
/// Tier demotions performed over the whole run (indexed→linear,
/// linear→inline).
pub const STORAGE_DEMOTIONS: &str = "storage.demotions";

// ---------------------------------------------------------------------
// Streaming-service keys (`serve.*`).
//
// All of these live in the *service-level* stats recorder, never in a
// tenant's session recorder: every one of them is timing- or
// deployment-dependent (close reasons, queue depths, crash recovery,
// shedding), and tenant snapshots must stay byte-identical to an offline
// replay of the recorded schedule. Grouped by subsystem:
//
// | group              | keys                                          |
// |--------------------|-----------------------------------------------|
// | batch forming      | `serve.batches_*`                             |
// | line intake        | `serve.lines_*`                               |
// | queue / tenancy    | `serve.queue_peak_depth`, `serve.tenants_*`   |
// | write-ahead log    | `serve.wal.*`                                 |
// | supervision        | `serve.supervision.*`                         |
// | overload shedding  | `serve.shed.*`                                |
// ---------------------------------------------------------------------

/// Batch forming: batches the batch former closed on reaching the size
/// threshold.
pub const SERVE_BATCHES_SIZE_CLOSED: &str = "serve.batches_size_closed";
/// Batch forming: batches the batch former closed on a latency deadline.
pub const SERVE_BATCHES_DEADLINE_CLOSED: &str = "serve.batches_deadline_closed";
/// Batch forming: batches flushed by client request or shutdown drain.
pub const SERVE_BATCHES_FLUSHED: &str = "serve.batches_flushed";

/// Line intake: wire lines accepted onto a tenant queue.
pub const SERVE_LINES_ACCEPTED: &str = "serve.lines_accepted";
/// Line intake: wire lines that failed to frame (quarantined as malformed
/// once their batch is ingested).
pub const SERVE_LINES_MALFORMED: &str = "serve.lines_malformed";
/// Line intake: wire lines cut short by connection loss — EOF mid-line or
/// a torn write — flushed as quarantined truncated fragments instead of
/// being dropped.
pub const SERVE_LINES_TRUNCATED: &str = "serve.lines_truncated";

/// Queue / tenancy: peak depth any tenant ingest queue reached (gauge;
/// must stay within the configured queue capacity).
pub const SERVE_QUEUE_PEAK_DEPTH: &str = "serve.queue_peak_depth";
/// Queue / tenancy: tenant sessions finished and reported.
pub const SERVE_TENANTS_FINISHED: &str = "serve.tenants_finished";

/// Write-ahead log: entries (raw wire lines and truncated fragments)
/// appended to a tenant WAL before entering its queue.
pub const SERVE_WAL_APPENDED_ENTRIES: &str = "serve.wal.appended_entries";
/// Write-ahead log: batch-close markers appended (one per closed batch).
pub const SERVE_WAL_BATCH_MARKS: &str = "serve.wal.batch_marks";
/// Write-ahead log: `fsync` calls issued (one per batch close; entry
/// appends are durable against process death, syncs add machine-crash
/// durability at batch granularity).
pub const SERVE_WAL_FSYNCS: &str = "serve.wal.fsyncs";
/// Write-ahead log: closed batches replayed from a recovered WAL through
/// the recorded-schedule machinery at daemon restart.
pub const SERVE_WAL_REPLAYED_BATCHES: &str = "serve.wal.replayed_batches";
/// Write-ahead log: entries contained in those replayed batches.
pub const SERVE_WAL_REPLAYED_ENTRIES: &str = "serve.wal.replayed_entries";
/// Write-ahead log: recovered un-batched tail entries re-fed into the
/// batch former at daemon restart.
pub const SERVE_WAL_TAIL_ENTRIES: &str = "serve.wal.tail_entries_recovered";
/// Write-ahead log: torn tail records (partial line at the crash point)
/// detected, dropped, and logged during recovery.
pub const SERVE_WAL_TORN_DROPPED: &str = "serve.wal.torn_records_dropped";
/// Write-ahead log: append/sync I/O failures (the service keeps serving;
/// durability is degraded and the failure is counted here).
pub const SERVE_WAL_IO_ERRORS: &str = "serve.wal.io_errors";

/// Supervision: engine-generation panics caught by the per-tenant
/// supervisor (includes panics re-hit while replaying after a restart).
pub const SERVE_SUPERVISION_PANICS: &str = "serve.supervision.panics_caught";
/// Supervision: wall-clock watchdog expiries — a generation exceeded the
/// per-batch deadline and was detached.
pub const SERVE_SUPERVISION_WATCHDOG: &str = "serve.supervision.watchdog_fired";
/// Supervision: generation restarts performed (bounded per tenant by the
/// supervision config).
pub const SERVE_SUPERVISION_RESTARTS: &str = "serve.supervision.restarts";
/// Supervision: tenants that finished `Recovered` — at least one restart,
/// final report produced from a full schedule replay.
pub const SERVE_SUPERVISION_RECOVERED: &str = "serve.supervision.tenants_recovered";
/// Supervision: tenants abandoned after exhausting the restart bound;
/// their reports carry the failure evidence instead of a result.
pub const SERVE_SUPERVISION_ABANDONED: &str = "serve.supervision.tenants_abandoned";

/// Overload shedding: data lines refused admission (total across
/// reasons); each shed line got an explicit `retry_after` reply.
pub const SERVE_SHED_LINES: &str = "serve.shed.lines";
/// Overload shedding: lines shed because the global unprocessed-entry
/// budget was saturated.
pub const SERVE_SHED_ENTRY_BUDGET: &str = "serve.shed.entry_budget";
/// Overload shedding: lines shed because the tenant's bounded queue was
/// at capacity (only when the overload policy opts out of blocking
/// backpressure).
pub const SERVE_SHED_QUEUE_FULL: &str = "serve.shed.queue_full";

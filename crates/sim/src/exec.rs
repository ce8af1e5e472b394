//! Host-parallel sharded execution of the machine model.
//!
//! The timing model never feeds back into engine behaviour: engines issue
//! typed accesses and discard the returned latencies, and the directory is
//! a pure function of the access stream. That makes the machine walk
//! *replayable*. This module is a second scheduler for the one cache
//! hierarchy (the crate's `hierarchy` module): it runs the same private
//! levels, shared level and directory as the serial walk, on other threads
//! and in the same per-level order, so every statistic, energy input and
//! time-breakdown value is byte-identical to the serial walk at any worker
//! count.
//!
//! * **Record (main thread)** — computes addresses, counts `accesses` /
//!   per-region / per-op statistics, keeps the sharer directory (it
//!   depends only on the stream), queues the invalidations a write
//!   causes for the victim cores, and appends one 16 B event per access
//!   to a per-core log. Logs are cut into fixed-size segments and shipped
//!   down the pipeline, so memory stays bounded and replay overlaps
//!   recording.
//! * **Replay (worker threads)** — each shard owns its cores' private
//!   levels for the whole run and replays their merged access +
//!   invalidation streams in sequence order. Private hits are charged
//!   locally; every access emits exactly one boundary event — a *touch*
//!   for private hits (packed into 8 B: sequence number, word, line), or a
//!   *fill* carrying the private latency for L2 misses (24 B, rare).
//! * **Reduce (one thread)** — owns the shared level. Boundary events are
//!   scattered into a dense per-segment scratch indexed by sequence number
//!   and applied to the shared level in serial arrival order. Phase
//!   markers fold per-core timelines (main-side compute + replay-side hits
//!   + reduce-side fills) into the serial phase length.
//!
//! At finalization the workers hand their levels and counts back to the
//! machine, which runs the same end-of-run flush as a serial machine.
//!
//! [`ExecConfig::serial()`]`.shards(n)` spawns `n` auxiliary host threads
//! next to the recording thread: `n == 1` runs replay + reduce on one
//! combined worker, `n >= 2` dedicates one thread to reduction and
//! `n - 1` to replay shards. The shard → core grouping comes from a
//! [`ShardPlan`]; any plan (and any `n`) produces identical output, the
//! plan only balances wall-clock.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdgraph_graph::partition::ShardPlan;

use crate::address::Region;
use crate::config::SimConfig;
use crate::divisor::Divisor;
use crate::hierarchy::{Cores, PrivateLevel, SharedLevel, Walk};
use crate::stats::{Actor, MachineStats, PhaseKind};

/// How a machine executes: the single-thread reference walk, or the
/// record/replay pipeline over `n` auxiliary host threads.
///
/// The default (`ExecConfig::serial()`) is the single-thread reference
/// walk. `.shards(n)` with `n >= 1` switches to the record/replay
/// pipeline; `.shards(0)` collapses back to serial. Every shard count
/// produces byte-identical output; the knob only trades wall-clock and
/// memory.
///
/// ```
/// use tdgraph_sim::ExecConfig;
/// let cfg = ExecConfig::serial().shards(4);
/// assert_eq!(cfg.label(), "sharded4");
/// assert_eq!(cfg.replay_shards(), 3);
/// assert_eq!(ExecConfig::default(), ExecConfig::serial());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExecConfig {
    workers: usize,
}

impl ExecConfig {
    /// The single-thread reference walk.
    #[must_use]
    pub const fn serial() -> Self {
        Self { workers: 0 }
    }

    /// Sets the auxiliary worker thread count; `0` means serial.
    #[must_use]
    pub const fn shards(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Whether this config runs the sharded pipeline.
    #[must_use]
    pub fn is_sharded(self) -> bool {
        self.workers > 0
    }

    /// Number of replay shards the config spawns (0 for serial).
    #[must_use]
    pub fn replay_shards(self) -> usize {
        match self.workers {
            0 => 0,
            n => n.max(2) - 1,
        }
    }

    /// Checks that every replay shard has a simulated core to replay, so
    /// a machine of `cores` cores takes at most `shards(cores + 1)`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description naming `exec`.
    pub fn validate(self, cores: usize) -> Result<(), String> {
        if self.replay_shards() > cores {
            return Err(format!(
                "exec {} needs {} replay shards but the machine has {cores} cores",
                self.label(),
                self.replay_shards()
            ));
        }
        Ok(())
    }

    /// Stable lowercase label for reports and bench output: `serial`,
    /// `sharded4`.
    #[must_use]
    pub fn label(self) -> String {
        if self.is_sharded() {
            format!("sharded{}", self.workers)
        } else {
            "serial".into()
        }
    }
}

/// Events per pipeline segment. Segments bound in-flight memory (8–24 B
/// per event per stage) and set the record → replay → reduce overlap
/// granularity.
const SEG: u64 = 1 << 18;

const WORD_MASK: u32 = 0xF;
const WRITE_BIT: u32 = 1 << 4;
const ACTOR_BIT: u32 = 1 << 5;
const REGION_SHIFT: u32 = 8;
const CORE_SHIFT: u32 = 16;

/// Bits of line address a packed touch can carry (64 TiB of simulated
/// address space). Checked once per machine at pipeline spawn.
const TOUCH_LINE_BITS: u32 = 42;
const TOUCH_LINE_MASK: u64 = (1 << TOUCH_LINE_BITS) - 1;
const TOUCH_WORD_SHIFT: u32 = TOUCH_LINE_BITS;
const TOUCH_REL_SHIFT: u32 = TOUCH_LINE_BITS + 4;
/// The word + line payload of a packed touch (bits 0..46); the sequence
/// number above it is consumed by the scatter and must not leak into the
/// slot, where bit 63 discriminates fills.
const TOUCH_PAYLOAD_MASK: u64 = (1 << TOUCH_REL_SHIFT) - 1;
/// Scratch-slot tag discriminating a fill reference from a touch slot.
const FILL_TAG: u64 = 1 << 63;

/// The largest line address a packed touch can represent; the pipeline
/// asserts the machine's address space fits at spawn.
pub(crate) const MAX_TOUCH_LINE: u64 = TOUCH_LINE_MASK;

/// A private-hit boundary touch packed into one word: segment-relative
/// sequence number, touched word, and line address. Touches are 90+% of
/// the boundary stream, so their footprint dominates the replay → reduce
/// traffic; packing them keeps the sequential reduction memory-bound
/// stages ~3x smaller than shipping full [`BoundaryEvent`]s.
fn pack_touch(rel: u32, word: u8, line: u64) -> u64 {
    (u64::from(rel) << TOUCH_REL_SHIFT) | (u64::from(word) << TOUCH_WORD_SHIFT) | line
}

fn pack_access(word: u8, write: bool, actor: Actor, region_idx: usize) -> u32 {
    u32::from(word)
        | if write { WRITE_BIT } else { 0 }
        | if matches!(actor, Actor::Accel) { ACTOR_BIT } else { 0 }
        | ((region_idx as u32) << REGION_SHIFT)
}

/// One recorded access of a core (16 B): segment-relative sequence number,
/// line address, and packed word/write/actor/region.
#[derive(Debug, Clone, Copy)]
struct AccessEvent {
    rel: u32,
    meta: u32,
    line: u64,
}

/// One invalidation candidate for a victim core: the writing access's
/// sequence number, the writer's core id, and the line.
#[derive(Debug, Clone, Copy)]
struct InvalEvent {
    rel: u32,
    writer: u32,
    line: u64,
}

/// One fill boundary event for the reduction pass (24 B): an access that
/// missed the private levels and must be filled by the shared level.
/// Carries the latency accumulated up to the line's LLC bank.
#[derive(Debug, Clone, Copy)]
struct BoundaryEvent {
    rel: u32,
    base_lat: u32,
    meta: u32,
    line: u64,
}

/// Per-segment input for one replay shard: the shard's cores' event and
/// invalidation logs, parallel to its core list.
struct SegmentInput {
    events: Vec<Vec<AccessEvent>>,
    invals: Vec<Vec<InvalEvent>>,
}

/// Per-segment output of one replay shard.
struct SegmentOutput {
    /// Packed private-hit touches, scattered by their embedded sequence
    /// number, so cross-core order is irrelevant.
    touches: Vec<u64>,
    /// LLC fill events, the rare heavyweight boundary crossings.
    fills: Vec<BoundaryEvent>,
    /// Private-hit timeline contributions: `(core, core_cycles,
    /// accel_cycles)`.
    contrib: Vec<(u32, u64, u64)>,
}

/// A replay shard: the private levels of its cores, in core order, and
/// the counts they make.
struct ShardReplayer {
    private: Vec<PrivateLevel>,
    stats: MachineStats,
    mlp: Divisor,
}

impl ShardReplayer {
    fn replay_segment(&mut self, input: &SegmentInput) -> SegmentOutput {
        let mut out = SegmentOutput {
            touches: Vec::new(),
            fills: Vec::new(),
            contrib: Vec::with_capacity(self.private.len()),
        };
        for (i, private) in self.private.iter_mut().enumerate() {
            let core = private.core();
            let (mut core_cyc, mut accel_cyc) = (0u64, 0u64);
            let events = &input.events[i];
            let invals = &input.invals[i];
            let (mut e, mut v) = (0usize, 0usize);
            loop {
                let next_access =
                    e < events.len() && (v >= invals.len() || events[e].rel < invals[v].rel);
                if next_access {
                    let ev = events[e];
                    e += 1;
                    let write = ev.meta & WRITE_BIT != 0;
                    let region = Region::ALL[((ev.meta >> REGION_SHIFT) & 0xFF) as usize];
                    match private.access(ev.line, write, region, &mut self.stats) {
                        // Private hit: charge the issuing timeline here and
                        // emit a packed touch so the LLC copy learns the
                        // word usage.
                        Walk::Hit(latency) => {
                            if ev.meta & ACTOR_BIT != 0 {
                                accel_cyc += self.mlp.div_ceil(latency);
                            } else {
                                core_cyc += latency;
                            }
                            let word = (ev.meta & WORD_MASK) as u8;
                            out.touches.push(pack_touch(ev.rel, word, ev.line));
                        }
                        Walk::Miss(latency) => out.fills.push(BoundaryEvent {
                            rel: ev.rel,
                            base_lat: u32::try_from(latency).unwrap_or(u32::MAX),
                            meta: ev.meta | ((core as u32) << CORE_SHIFT),
                            line: ev.line,
                        }),
                    }
                } else if v < invals.len() {
                    let inv = invals[v];
                    v += 1;
                    private.invalidate(inv.writer as usize, inv.line, &mut self.stats);
                } else {
                    break;
                }
            }
            out.contrib.push((core as u32, core_cyc, accel_cyc));
        }
        out
    }
}

/// The sequential reduction state: the shared level, the counts it makes,
/// and the replay + reduce timeline contributions of the open phase.
struct Reducer {
    shared: SharedLevel,
    stats: MachineStats,
    mlp: Divisor,
    core_sum: Vec<u64>,
    accel_sum: Vec<u64>,
    /// Dense per-segment sequence scratch: slot `rel` holds a touch
    /// payload (tag clear) or a fill reference
    /// (`FILL_TAG | shard << 32 | index`).
    scratch: Vec<u64>,
    /// Boundary events reduced (perf telemetry only).
    touch_events: u64,
    fill_events: u64,
    /// Wall-clock spent reducing (perf telemetry only).
    busy: Duration,
}

impl Reducer {
    fn new(shared: SharedLevel, cfg: &SimConfig) -> Self {
        Self {
            shared,
            stats: MachineStats::default(),
            mlp: Divisor::new(cfg.accel_mlp),
            core_sum: vec![0; cfg.cores],
            accel_sum: vec![0; cfg.cores],
            scratch: Vec::new(),
            touch_events: 0,
            fill_events: 0,
            busy: Duration::ZERO,
        }
    }

    /// Folds one segment's shard outputs (indexed by shard) and replays
    /// their boundary events in serial arrival order.
    fn reduce_segment(&mut self, len: u32, outs: &[SegmentOutput]) {
        let t0 = Instant::now();
        debug_assert_eq!(
            outs.iter().map(|o| o.touches.len() + o.fills.len()).sum::<usize>(),
            len as usize,
            "every sequence slot must carry one event"
        );
        self.scratch.clear();
        self.scratch.resize(len as usize, 0);
        for (shard, out) in outs.iter().enumerate() {
            self.touch_events += out.touches.len() as u64;
            self.fill_events += out.fills.len() as u64;
            for &(core, cc, ac) in &out.contrib {
                self.core_sum[core as usize] += cc;
                self.accel_sum[core as usize] += ac;
            }
            for &t in &out.touches {
                self.scratch[(t >> TOUCH_REL_SHIFT) as usize] = t & TOUCH_PAYLOAD_MASK;
            }
            let tag = FILL_TAG | ((shard as u64) << 32);
            for (i, f) in out.fills.iter().enumerate() {
                self.scratch[f.rel as usize] = tag | i as u64;
            }
        }
        for idx in 0..self.scratch.len() {
            let slot = self.scratch[idx];
            if slot & FILL_TAG == 0 {
                let word = ((slot >> TOUCH_WORD_SHIFT) & 0xF) as u8;
                self.shared.touch(slot & TOUCH_LINE_MASK, word);
            } else {
                let shard = ((slot & !FILL_TAG) >> 32) as usize;
                self.fill(outs[shard].fills[(slot & 0xFFFF_FFFF) as usize]);
            }
        }
        self.busy += t0.elapsed();
    }

    /// Fills one private miss from the shared level and charges the
    /// issuing timeline.
    fn fill(&mut self, ev: BoundaryEvent) {
        let word = (ev.meta & WORD_MASK) as u8;
        let write = ev.meta & WRITE_BIT != 0;
        let region = Region::ALL[((ev.meta >> REGION_SHIFT) & 0xFF) as usize];
        let core = ((ev.meta >> CORE_SHIFT) & 0xFF) as usize;
        let latency = u64::from(ev.base_lat)
            + self.shared.fill(ev.line, word, write, region, &mut self.stats);
        if ev.meta & ACTOR_BIT != 0 {
            self.accel_sum[core] += self.mlp.div_ceil(latency);
        } else {
            self.core_sum[core] += latency;
        }
    }

    fn end_phase(&mut self, kind: PhaseKind, main_core: &[u64], main_accel: &[u64]) -> u64 {
        for (sum, main) in self.core_sum.iter_mut().zip(main_core) {
            *sum += main;
        }
        for (sum, main) in self.accel_sum.iter_mut().zip(main_accel) {
            *sum += main;
        }
        self.shared.end_phase(kind, &mut self.core_sum, &mut self.accel_sum)
    }

    fn report(&self) -> ExecPipelineReport {
        ExecPipelineReport {
            reduce_wall: self.busy,
            touch_events: self.touch_events,
            touch_bytes_raw: 8 * self.touch_events,
            fill_events: self.fill_events,
            fill_bytes: 24 * self.fill_events,
            setup: Duration::ZERO,
        }
    }
}

/// Wall-clock and boundary-traffic telemetry of one sharded run,
/// surfaced next to (never inside) the deterministic result surfaces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecPipelineReport {
    /// Wall-clock the reducer spent reducing.
    pub reduce_wall: Duration,
    /// Private-hit touches crossing the replay → reduce boundary.
    pub touch_events: u64,
    /// Touch stream bytes (8 B per packed touch).
    pub touch_bytes_raw: u64,
    /// LLC fill events crossing the boundary (always 24 B each).
    pub fill_events: u64,
    /// Fill stream bytes.
    pub fill_bytes: u64,
    /// One-time pipeline setup (thread spawn + cache hand-off); filled
    /// in by the machine so benches can exclude it from merge overhead.
    pub setup: Duration,
}

/// Everything the pipeline hands back to the machine at finalization.
pub(crate) struct FinalState {
    /// Every core's private level, in core order.
    pub(crate) private: Vec<PrivateLevel>,
    pub(crate) shared: SharedLevel,
    /// The counts the levels made on the worker threads.
    pub(crate) stats: MachineStats,
    /// Perf/traffic telemetry (wall-clock, never deterministic).
    pub(crate) report: ExecPipelineReport,
}

enum ReduceMsg {
    SegMeta { seg: u64, len: u32 },
    SegOut { seg: u64, shard: usize, out: SegmentOutput },
    EndPhase { seg_end: u64, kind: PhaseKind, main_core: Vec<u64>, main_accel: Vec<u64> },
    Drain { reply: mpsc::Sender<u64> },
}

enum CombinedMsg {
    Segment { len: u32, input: SegmentInput },
    EndPhase { kind: PhaseKind, main_core: Vec<u64>, main_accel: Vec<u64> },
    Drain { reply: mpsc::Sender<u64> },
}

enum Senders {
    Split { replayers: Vec<mpsc::SyncSender<SegmentInput>>, reducer: mpsc::SyncSender<ReduceMsg> },
    Combined { tx: mpsc::SyncSender<CombinedMsg> },
}

/// The live pipeline: record-side state plus the worker threads.
pub(crate) struct Pipeline {
    /// Global sequence number of the next access.
    seq: u64,
    seg_base: u64,
    seg_index: u64,
    /// Per-core event logs for the open segment.
    events: Vec<Vec<AccessEvent>>,
    invals: Vec<Vec<InvalEvent>>,
    /// Shard → cores (replay grouping actually spawned).
    shard_cores: Vec<Vec<usize>>,
    senders: Option<Senders>,
    replay_handles: Vec<JoinHandle<ShardReplayer>>,
    /// The reducer's thread; the combined worker returns its shard too.
    final_handle: Option<JoinHandle<(Option<ShardReplayer>, Reducer)>>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("seq", &self.seq)
            .field("shards", &self.shard_cores.len())
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Spawns the worker topology for a sharded `exec` (validated by the
    /// caller against `cfg.cores`), taking ownership of the machine's
    /// private levels (in core order) and its shared level.
    pub(crate) fn spawn(
        cfg: &SimConfig,
        plan: &ShardPlan,
        exec: ExecConfig,
        private: Vec<PrivateLevel>,
        shared: SharedLevel,
    ) -> Self {
        assert_eq!(plan.cores(), cfg.cores, "shard plan must cover every simulated core");
        let replay_shards = exec.replay_shards();
        // Regroup the plan onto the spawned shard count (plans with a
        // different shard count redistribute round-robin, preserving the
        // plan's grouping where possible).
        let mut shard_cores: Vec<Vec<usize>> = vec![Vec::new(); replay_shards];
        for s in 0..plan.shards() {
            shard_cores[s % replay_shards].extend_from_slice(plan.cores_for(s));
        }
        for cores in &mut shard_cores {
            cores.sort_unstable();
        }
        let mut by_core: Vec<Option<PrivateLevel>> = private.into_iter().map(Some).collect();
        let mut make_replayer = |cores: &[usize]| ShardReplayer {
            private: cores.iter().map(|&c| by_core[c].take().expect("core owned once")).collect(),
            stats: MachineStats::default(),
            mlp: Divisor::new(cfg.accel_mlp),
        };
        let reducer = Reducer::new(shared, cfg);

        let mut replay_handles = Vec::new();
        let (senders, final_handle) = if exec.workers == 1 {
            let shard = make_replayer(&shard_cores[0]);
            let (tx, rx) = mpsc::sync_channel::<CombinedMsg>(8);
            let handle = std::thread::Builder::new()
                .name("tdgraph-shard".into())
                .spawn(move || run_combined(&rx, shard, reducer))
                .expect("spawn combined shard worker");
            (Senders::Combined { tx }, handle)
        } else {
            let (red_tx, red_rx) = mpsc::sync_channel::<ReduceMsg>(replay_shards * 4 + 8);
            let mut replayer_txs = Vec::with_capacity(replay_shards);
            for (s, cores) in shard_cores.iter().enumerate() {
                let mut shard = make_replayer(cores);
                let (tx, rx) = mpsc::sync_channel::<SegmentInput>(4);
                let out_tx = red_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("tdgraph-replay{s}"))
                    .spawn(move || {
                        let mut seg = 0u64;
                        while let Ok(input) = rx.recv() {
                            let out = shard.replay_segment(&input);
                            if out_tx.send(ReduceMsg::SegOut { seg, shard: s, out }).is_err() {
                                break;
                            }
                            seg += 1;
                        }
                        shard
                    })
                    .expect("spawn replay worker");
                replayer_txs.push(tx);
                replay_handles.push(handle);
            }
            let handle = std::thread::Builder::new()
                .name("tdgraph-reduce".into())
                .spawn(move || run_reducer(&red_rx, reducer, replay_shards))
                .expect("spawn reduce worker");
            (Senders::Split { replayers: replayer_txs, reducer: red_tx }, handle)
        };

        Self {
            seq: 0,
            seg_base: 0,
            seg_index: 0,
            events: (0..cfg.cores).map(|_| Vec::new()).collect(),
            invals: (0..cfg.cores).map(|_| Vec::new()).collect(),
            shard_cores,
            senders: Some(senders),
            replay_handles,
            final_handle: Some(final_handle),
        }
    }

    /// Queues the invalidations of `line` that the directory decided for
    /// the access about to be recorded (a write by `writer`), at its
    /// sequence number.
    pub(crate) fn invalidate(&mut self, victims: Cores, writer: usize, line: u64) {
        let rel = (self.seq - self.seg_base) as u32;
        for victim in victims {
            self.invals[victim].push(InvalEvent { rel, writer: writer as u32, line });
        }
    }

    /// Records one access and advances the sequence number, cutting a
    /// segment when full.
    pub(crate) fn record(
        &mut self,
        core: usize,
        actor: Actor,
        region: Region,
        line: u64,
        word: u8,
        write: bool,
    ) {
        let rel = (self.seq - self.seg_base) as u32;
        self.events[core].push(AccessEvent {
            rel,
            meta: pack_access(word, write, actor, region.index()),
            line,
        });
        self.seq += 1;
        if self.seq - self.seg_base == SEG {
            self.cut_segment();
        }
    }

    fn cut_segment(&mut self) {
        let len = (self.seq - self.seg_base) as u32;
        if len == 0 {
            return;
        }
        let mut inputs: Vec<SegmentInput> = self
            .shard_cores
            .iter()
            .map(|cores| SegmentInput {
                events: cores.iter().map(|&c| std::mem::take(&mut self.events[c])).collect(),
                invals: cores.iter().map(|&c| std::mem::take(&mut self.invals[c])).collect(),
            })
            .collect();
        match self.senders.as_ref().expect("pipeline finalized") {
            Senders::Split { replayers, reducer } => {
                let seg = self.seg_index;
                reducer.send(ReduceMsg::SegMeta { seg, len }).expect("reduce worker alive");
                for (tx, input) in replayers.iter().zip(inputs.drain(..)) {
                    tx.send(input).expect("replay worker alive");
                }
            }
            Senders::Combined { tx } => {
                let input = inputs.pop().expect("single shard");
                tx.send(CombinedMsg::Segment { len, input }).expect("shard worker alive");
            }
        }
        self.seg_base = self.seq;
        self.seg_index += 1;
    }

    /// Ships the open partial segment and a phase marker carrying the
    /// main-side timeline snapshot.
    pub(crate) fn end_phase(&mut self, kind: PhaseKind, main_core: Vec<u64>, main_accel: Vec<u64>) {
        self.cut_segment();
        let seg_end = self.seg_index;
        match self.senders.as_ref().expect("pipeline finalized") {
            Senders::Split { reducer, .. } => reducer
                .send(ReduceMsg::EndPhase { seg_end, kind, main_core, main_accel })
                .expect("reduce worker alive"),
            Senders::Combined { tx } => tx
                .send(CombinedMsg::EndPhase { kind, main_core, main_accel })
                .expect("shard worker alive"),
        }
    }

    /// Blocks until the most recently marked phase is reduced; returns its
    /// exact cycle count (identical to the serial `end_phase` return).
    pub(crate) fn drain_last_phase(&mut self) -> u64 {
        let (reply_tx, reply_rx) = mpsc::channel();
        match self.senders.as_ref().expect("pipeline finalized") {
            Senders::Split { reducer, .. } => {
                reducer.send(ReduceMsg::Drain { reply: reply_tx }).expect("reduce worker alive");
            }
            Senders::Combined { tx } => {
                tx.send(CombinedMsg::Drain { reply: reply_tx }).expect("shard worker alive");
            }
        }
        reply_rx.recv().expect("reduce worker answers drains")
    }

    /// Ships any tail events, closes the channels, joins every worker, and
    /// returns the levels and counts they hold.
    pub(crate) fn finalize(mut self) -> FinalState {
        self.cut_segment();
        drop(self.senders.take());
        let mut shards: Vec<ShardReplayer> = self.replay_handles.drain(..).map(join).collect();
        let (combined, reducer) = join(self.final_handle.take().expect("pipeline finalized once"));
        shards.extend(combined);
        let report = reducer.report();
        let Reducer { shared, mut stats, .. } = reducer;
        let mut private = Vec::new();
        for shard in shards {
            stats.merge(&shard.stats);
            private.extend(shard.private);
        }
        private.sort_unstable_by_key(PrivateLevel::core);
        FinalState { private, shared, stats, report }
    }
}

/// Joins a worker, re-raising its panic on the calling thread.
fn join<T>(handle: JoinHandle<T>) -> T {
    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn run_combined(
    rx: &mpsc::Receiver<CombinedMsg>,
    mut shard: ShardReplayer,
    mut reducer: Reducer,
) -> (Option<ShardReplayer>, Reducer) {
    let mut phase_cycles: Vec<u64> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            CombinedMsg::Segment { len, input } => {
                let out = shard.replay_segment(&input);
                reducer.reduce_segment(len, &[out]);
            }
            CombinedMsg::EndPhase { kind, main_core, main_accel } => {
                phase_cycles.push(reducer.end_phase(kind, &main_core, &main_accel));
            }
            CombinedMsg::Drain { reply } => {
                let cycles = phase_cycles.last().copied().unwrap_or(0);
                let _ = reply.send(cycles);
            }
        }
    }
    (Some(shard), reducer)
}

fn run_reducer(
    rx: &mpsc::Receiver<ReduceMsg>,
    mut reducer: Reducer,
    shards: usize,
) -> (Option<ShardReplayer>, Reducer) {
    let mut next_seg = 0u64;
    let mut metas: BTreeMap<u64, u32> = BTreeMap::new();
    let mut outs: BTreeMap<u64, Vec<Option<SegmentOutput>>> = BTreeMap::new();
    let mut marks: VecDeque<(u64, PhaseKind, Vec<u64>, Vec<u64>)> = VecDeque::new();
    let mut drains: VecDeque<(u64, mpsc::Sender<u64>)> = VecDeque::new();
    let mut phases_announced = 0u64;
    let mut phase_cycles: Vec<u64> = Vec::new();

    let progress = |next_seg: &mut u64,
                    metas: &mut BTreeMap<u64, u32>,
                    outs: &mut BTreeMap<u64, Vec<Option<SegmentOutput>>>,
                    marks: &mut VecDeque<(u64, PhaseKind, Vec<u64>, Vec<u64>)>,
                    drains: &mut VecDeque<(u64, mpsc::Sender<u64>)>,
                    phase_cycles: &mut Vec<u64>,
                    reducer: &mut Reducer| {
        loop {
            // Close every phase whose segments are all reduced.
            while let Some(&(seg_end, _, _, _)) = marks.front() {
                if seg_end > *next_seg {
                    break;
                }
                let (_, kind, mc, ma) = match marks.pop_front() {
                    Some(m) => m,
                    None => break,
                };
                phase_cycles.push(reducer.end_phase(kind, &mc, &ma));
            }
            // Answer drains whose target phase is closed.
            while let Some(&(target, _)) = drains.front() {
                if target > phase_cycles.len() as u64 {
                    break;
                }
                if let Some((target, reply)) = drains.pop_front() {
                    let cycles = if target == 0 { 0 } else { phase_cycles[target as usize - 1] };
                    let _ = reply.send(cycles);
                }
            }
            // Reduce the next segment if complete.
            let ready = metas.get(next_seg).copied().is_some()
                && outs.get(next_seg).is_some_and(|v| v.iter().all(Option::is_some));
            if !ready {
                break;
            }
            let len = match metas.remove(next_seg) {
                Some(len) => len,
                None => break,
            };
            let segouts: Vec<SegmentOutput> =
                outs.remove(next_seg).unwrap_or_default().into_iter().flatten().collect();
            reducer.reduce_segment(len, &segouts);
            *next_seg += 1;
        }
    };

    while let Ok(msg) = rx.recv() {
        match msg {
            ReduceMsg::SegMeta { seg, len } => {
                metas.insert(seg, len);
            }
            ReduceMsg::SegOut { seg, shard, out } => {
                // Slot by shard index: a segment is complete once every
                // shard has reported, whatever the arrival order.
                let slots = outs.entry(seg).or_insert_with(|| {
                    let mut v = Vec::with_capacity(shards);
                    v.resize_with(shards, || None);
                    v
                });
                slots[shard] = Some(out);
            }
            ReduceMsg::EndPhase { seg_end, kind, main_core, main_accel } => {
                phases_announced += 1;
                marks.push_back((seg_end, kind, main_core, main_accel));
            }
            ReduceMsg::Drain { reply } => {
                drains.push_back((phases_announced, reply));
            }
        }
        progress(
            &mut next_seg,
            &mut metas,
            &mut outs,
            &mut marks,
            &mut drains,
            &mut phase_cycles,
            &mut reducer,
        );
    }
    progress(
        &mut next_seg,
        &mut metas,
        &mut outs,
        &mut marks,
        &mut drains,
        &mut phase_cycles,
        &mut reducer,
    );
    debug_assert!(metas.is_empty() && outs.is_empty() && marks.is_empty());
    (None, reducer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{AddressSpace, Region};
    use crate::hierarchy::tests::Rng;
    use crate::machine::Machine;
    use crate::policy::PolicyKind;
    use crate::stats::Op;

    fn drive(m: &mut Machine, seed: u64, phases: usize, accesses_per_phase: usize) -> Vec<u64> {
        let mut rng = Rng(seed | 1);
        let cores = m.cores();
        let mut phase_lens = Vec::new();
        for p in 0..phases {
            for _ in 0..accesses_per_phase {
                let r = rng.next();
                let core = (r % cores as u64) as usize;
                let actor = if r & 0x10 != 0 { Actor::Accel } else { Actor::Core };
                // GRASP protects the coalesced states and the hash table.
                let region = match (r >> 8) % 6 {
                    0 => Region::VertexStates,
                    1 => Region::NeighborArray,
                    2 => Region::OffsetArray,
                    3 => Region::CoalescedStates,
                    4 => Region::HashTable,
                    _ => Region::ActiveVertices,
                };
                let index = (r >> 16) % 4096;
                let write = (r >> 5) & 0x3 == 0;
                m.access(core, actor, region, index, write);
                if r & 0x7 == 0 {
                    m.compute(core, Actor::Core, Op::EdgeProcess, 2);
                }
            }
            let kind = if p % 2 == 0 { PhaseKind::Propagation } else { PhaseKind::Other };
            phase_lens.push(m.end_phase_synced(kind));
        }
        m.finish();
        phase_lens
    }

    /// Serial and sharded machines agree under every LLC replacement
    /// policy (Fig 18 and Fig 23 read them all).
    fn machines_agree(exec: ExecConfig) {
        let layout = AddressSpace::layout(4096, 16384, 64);
        for policy in [PolicyKind::Lru, PolicyKind::Drrip, PolicyKind::Grasp, PolicyKind::Popt] {
            let mut cfg = SimConfig::small_test();
            cfg.llc.policy = policy;
            let mut serial = Machine::new(cfg.clone(), layout.clone());
            let serial_phases = drive(&mut serial, 0xABCD, 5, 4000);

            let mut sharded = Machine::with_exec_config(
                cfg,
                layout.clone(),
                exec,
                &ShardPlan::uniform(serial.cores(), exec.replay_shards()),
            );
            let sharded_phases = drive(&mut sharded, 0xABCD, 5, 4000);

            let at = format!("{exec:?} {policy:?}");
            assert_eq!(serial_phases, sharded_phases, "{at} phase cycles diverge");
            assert_eq!(serial.stats(), sharded.stats(), "{at} stats diverge");
            assert_eq!(serial.breakdown(), sharded.breakdown(), "{at} breakdown diverges");
            assert_eq!(serial.total_cycles(), sharded.total_cycles(), "{at}");
            assert_eq!(serial.dram().total_bytes(), sharded.dram().total_bytes(), "{at}");
            assert_eq!(serial.dram().total_reads(), sharded.dram().total_reads(), "{at}");
            assert_eq!(serial.dram().total_writebacks(), sharded.dram().total_writebacks(), "{at}");

            let report = sharded.exec_report().expect("sharded run has a pipeline report");
            assert_eq!(report.touch_bytes_raw, 8 * report.touch_events);
            assert_eq!(report.fill_bytes, 24 * report.fill_events);
            assert_eq!(
                report.touch_events + report.fill_events,
                serial.stats().accesses,
                "every recorded access crosses the boundary exactly once"
            );
        }
    }

    #[test]
    fn sharded_one_matches_serial() {
        machines_agree(ExecConfig::serial().shards(1));
    }

    #[test]
    fn sharded_two_matches_serial() {
        machines_agree(ExecConfig::serial().shards(2));
    }

    #[test]
    fn sharded_four_matches_serial() {
        machines_agree(ExecConfig::serial().shards(4));
    }

    #[test]
    fn sharded_handles_empty_phases_and_tail_accesses() {
        let layout = AddressSpace::layout(1024, 4096, 16);
        let cfg = SimConfig::small_test();
        let mut serial = Machine::new(cfg.clone(), layout.clone());
        let exec = ExecConfig::serial().shards(3);
        let plan = ShardPlan::uniform(cfg.cores, exec.replay_shards());
        let mut sharded = Machine::with_exec_config(cfg, layout, exec, &plan);
        for m in [&mut serial, &mut sharded] {
            // Empty phase first.
            let empty = m.end_phase_synced(PhaseKind::Other);
            assert_eq!(empty, 0);
            m.access(0, Actor::Core, Region::VertexStates, 0, true);
            m.access(1, Actor::Core, Region::VertexStates, 0, true);
            let p = m.end_phase_synced(PhaseKind::Propagation);
            assert!(p > 0);
            // Tail accesses never folded into a phase still count in stats.
            m.access(2, Actor::Core, Region::VertexStates, 0, false);
            m.finish();
        }
        assert_eq!(serial.stats(), sharded.stats());
        assert_eq!(serial.stats().invalidations, 1);
    }

    #[test]
    fn exec_config_builder_labels_and_conversion() {
        assert_eq!(ExecConfig::serial().label(), "serial");
        assert_eq!(ExecConfig::default(), ExecConfig::serial());
        assert_eq!(ExecConfig::serial().shards(4).label(), "sharded4");
        assert_eq!(ExecConfig::serial().replay_shards(), 0);
        assert_eq!(ExecConfig::serial().shards(1).replay_shards(), 1);
        assert_eq!(ExecConfig::serial().shards(2).replay_shards(), 1);
        assert_eq!(ExecConfig::serial().shards(4).replay_shards(), 3);
        assert!(ExecConfig::serial().shards(1).is_sharded());
        assert!(!ExecConfig::serial().is_sharded());
        // `shards(0)` collapses to serial.
        assert_eq!(ExecConfig::serial().shards(0), ExecConfig::serial());
        // Every replay shard needs a simulated core.
        assert!(ExecConfig::serial().validate(4).is_ok());
        assert!(ExecConfig::serial().shards(5).validate(4).is_ok());
        let err = ExecConfig::serial().shards(6).validate(4).unwrap_err();
        assert!(err.contains("exec sharded6"), "{err}");
    }
}

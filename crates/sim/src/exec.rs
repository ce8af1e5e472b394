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
//!   to a per-core log. Logs are cut into fixed-size segments, so memory
//!   stays bounded and replay overlaps recording. For each segment the
//!   recording thread sends the reducer one control message, then each
//!   replay shard its input; phase markers and drains follow on the same
//!   control stream, in record order.
//! * **Replay (worker threads)** — each shard owns its cores' private
//!   levels for the whole run, replays their merged access +
//!   invalidation streams in sequence order, and sends one output per
//!   segment on its own channel. Private hits are charged locally; every
//!   access emits exactly one boundary event — a *touch* for private hits
//!   (packed into 8 B: sequence number, word, line), or a *fill* carrying
//!   the private latency for L2 misses (24 B, rare).
//! * **Reduce (one thread)** — owns the shared level and handles one
//!   control message at a time. For a segment it reads one output from
//!   each shard's channel, in shard order, scatters the boundary events
//!   into a dense scratch indexed by sequence number and applies them to
//!   the shared level in serial arrival order. A phase marker folds
//!   per-core timelines (main-side compute + replay-side hits +
//!   reduce-side fills) into the serial phase length; a drain answers it.
//!
//! Reading the shard channels in shard order cannot deadlock. The
//! recording thread sends segment k's control message and all of its
//! inputs before anything of segment k + 1, and every channel is FIFO. So
//! while the reducer waits on shard s for segment k, the shards before s
//! have taken their input k, shard s's earlier outputs are all consumed,
//! and its input k is sent or next in line. A replay shard that dies drops
//! its output channel, and the reducer panics on it instead of waiting.
//! The recording thread's next send or receive then fails; it closes its
//! channels, joins the workers (the replay shards in shard order, then the
//! reducer) and re-raises the first panic, so the caller gets the dead
//! worker's own message.
//!
//! At finalization the workers hand their levels and counts back to the
//! machine, which runs the same end-of-run flush as a serial machine.
//!
//! [`ExecConfig::serial()`]`.shards(n)` spawns `n` auxiliary host threads
//! next to the recording thread: `n == 1` replays its one shard on the
//! reducer's thread, from inputs the control messages carry; `n >= 2`
//! dedicates one thread to reduction and `n - 1` to replay shards. The
//! shard → core grouping comes from a [`ShardPlan`] with one shard per
//! replay shard; any plan produces identical output, the plan only
//! balances wall-clock.

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
}

/// Wall-clock telemetry of one sharded run, surfaced next to (never
/// inside) the deterministic result surfaces.
///
/// The boundary volumes are not counted here: every private hit crosses
/// the replay → reduce boundary as one 8 B touch and every private miss
/// as one 24 B fill, so they are `l1_hits + l2_hits` and
/// `llc_hits + llc_misses` of [`MachineStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecPipelineReport {
    /// Wall-clock the reducer spent reducing.
    pub reduce_wall: Duration,
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
    /// Wall-clock the reducer spent reducing (never deterministic).
    pub(crate) reduce_wall: Duration,
}

/// One message of the record-order control stream to the reducer: a cut
/// segment of `len` accesses (under `shards(1)` carrying the one shard's
/// input, which the reducer replays itself), a phase marker, or a request
/// for the length of the most recently ended phase.
enum Control {
    Segment { len: u32, input: Option<SegmentInput> },
    EndPhase { kind: PhaseKind, main_core: Vec<u64>, main_accel: Vec<u64> },
    Drain { reply: mpsc::Sender<u64> },
}

/// The live pipeline: record-side state plus the worker threads.
pub(crate) struct Pipeline {
    /// Global sequence number of the next access.
    seq: u64,
    seg_base: u64,
    /// Per-core event logs for the open segment.
    events: Vec<Vec<AccessEvent>>,
    invals: Vec<Vec<InvalEvent>>,
    /// Shard → cores, as the plan groups them.
    shard_cores: Vec<Vec<usize>>,
    control: mpsc::SyncSender<Control>,
    /// Each replay thread's input channel; empty under `shards(1)`.
    replay_inputs: Vec<mpsc::SyncSender<SegmentInput>>,
    replay_handles: Vec<JoinHandle<ShardReplayer>>,
    /// The reducer's thread; it returns its own shard under `shards(1)`.
    /// Taken only by [`Pipeline::worker_died`].
    reduce_handle: Option<JoinHandle<(Option<ShardReplayer>, Reducer)>>,
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
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not cover every core or its shard count is
    /// not `exec.replay_shards()`.
    pub(crate) fn spawn(
        cfg: &SimConfig,
        plan: &ShardPlan,
        exec: ExecConfig,
        private: Vec<PrivateLevel>,
        shared: SharedLevel,
    ) -> Self {
        assert_eq!(plan.cores(), cfg.cores, "shard plan must cover every simulated core");
        assert_eq!(
            plan.shards(),
            exec.replay_shards(),
            "shard plan must have one shard per replay shard of {}",
            exec.label()
        );
        let shard_cores: Vec<Vec<usize>> =
            (0..plan.shards()).map(|s| plan.cores_for(s).to_vec()).collect();
        let mut by_core: Vec<Option<PrivateLevel>> = private.into_iter().map(Some).collect();
        let mut shards: Vec<ShardReplayer> = shard_cores
            .iter()
            .map(|cores| ShardReplayer {
                private: cores
                    .iter()
                    .map(|&c| by_core[c].take().expect("core owned once"))
                    .collect(),
                stats: MachineStats::default(),
                mlp: Divisor::new(cfg.accel_mlp),
            })
            .collect();
        let own = if exec.workers == 1 { shards.pop() } else { None };

        let (mut replay_inputs, mut outputs, mut replay_handles) =
            (Vec::new(), Vec::new(), Vec::new());
        for (s, mut shard) in shards.into_iter().enumerate() {
            let (input_tx, input_rx) = mpsc::sync_channel::<SegmentInput>(4);
            let (output_tx, output_rx) = mpsc::sync_channel(4);
            let handle = std::thread::Builder::new()
                .name(format!("tdgraph-replay{s}"))
                .spawn(move || {
                    while let Ok(input) = input_rx.recv() {
                        if output_tx.send(shard.replay_segment(&input)).is_err() {
                            break;
                        }
                    }
                    shard
                })
                .expect("spawn replay worker");
            replay_inputs.push(input_tx);
            outputs.push(output_rx);
            replay_handles.push(handle);
        }
        let (control, control_rx) = mpsc::sync_channel(8);
        let reducer = Reducer::new(shared, cfg);
        let reduce_handle = std::thread::Builder::new()
            .name("tdgraph-reduce".into())
            .spawn(move || run_reducer(&control_rx, &outputs, own, reducer))
            .expect("spawn reduce worker");

        Self {
            seq: 0,
            seg_base: 0,
            events: (0..cfg.cores).map(|_| Vec::new()).collect(),
            invals: (0..cfg.cores).map(|_| Vec::new()).collect(),
            shard_cores,
            control,
            replay_inputs,
            replay_handles,
            reduce_handle: Some(reduce_handle),
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

    /// Sends the open segment's control message, then each replay shard
    /// its input.
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
        // With no replay thread, the reducer replays the one shard itself.
        let input = if self.replay_inputs.is_empty() { inputs.pop() } else { None };
        let sent = self.control.send(Control::Segment { len, input }).is_ok()
            && self.replay_inputs.iter().zip(inputs).all(|(tx, input)| tx.send(input).is_ok());
        if !sent {
            self.worker_died();
        }
        self.seg_base = self.seq;
    }

    /// Ships the open partial segment and a phase marker carrying the
    /// main-side timeline snapshot.
    pub(crate) fn end_phase(&mut self, kind: PhaseKind, main_core: Vec<u64>, main_accel: Vec<u64>) {
        self.cut_segment();
        if self.control.send(Control::EndPhase { kind, main_core, main_accel }).is_err() {
            self.worker_died();
        }
    }

    /// Blocks until the most recently marked phase is reduced; returns its
    /// exact cycle count (identical to the serial `end_phase` return).
    pub(crate) fn drain_last_phase(&mut self) -> u64 {
        let (reply, answer) = mpsc::channel();
        if self.control.send(Control::Drain { reply }).is_err() {
            self.worker_died();
        }
        match answer.recv() {
            Ok(cycles) => cycles,
            Err(_) => self.worker_died(),
        }
    }

    /// A send to or a receive from a worker failed, so a worker died.
    /// Closes every channel to the workers, so the live ones run out of
    /// work and exit, joins them — the replay shards in shard order, then
    /// the reducer — and re-raises the first panic on the calling thread.
    #[cold]
    fn worker_died(&mut self) -> ! {
        self.replay_inputs.clear();
        self.control = mpsc::sync_channel(0).0;
        for shard in self.replay_handles.drain(..) {
            join(shard);
        }
        if let Some(reducer) = self.reduce_handle.take() {
            join(reducer);
        }
        panic!("a pipeline worker hung up without panicking");
    }

    /// Ships any tail events, closes the channels, joins every worker, and
    /// returns the levels and counts they hold.
    pub(crate) fn finalize(mut self) -> FinalState {
        self.cut_segment();
        let Self { control, replay_inputs, replay_handles, reduce_handle, .. } = self;
        drop((control, replay_inputs));
        let mut shards: Vec<ShardReplayer> = replay_handles.into_iter().map(join).collect();
        let (own, reducer) = join(reduce_handle.expect("a live pipeline has its reducer"));
        shards.extend(own);
        let Reducer { shared, mut stats, busy, .. } = reducer;
        let mut private = Vec::new();
        for shard in shards {
            stats.merge(&shard.stats);
            private.extend(shard.private);
        }
        private.sort_unstable_by_key(PrivateLevel::core);
        FinalState { private, shared, stats, reduce_wall: busy }
    }
}

/// Joins a worker, re-raising its panic on the calling thread.
fn join<T>(handle: JoinHandle<T>) -> T {
    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The reducer thread: handles the control stream in record order. A
/// segment's outputs come from `own`, the shard it replays itself under
/// `shards(1)`, or from each replay shard's channel, read in shard order.
///
/// # Panics
///
/// Panics if a shard's channel closes before the shard sends a segment's
/// output: the shard died, and waiting on it would hang the recording
/// thread.
fn run_reducer(
    control: &mpsc::Receiver<Control>,
    outputs: &[mpsc::Receiver<SegmentOutput>],
    mut own: Option<ShardReplayer>,
    mut reducer: Reducer,
) -> (Option<ShardReplayer>, Reducer) {
    let mut last_phase = 0;
    while let Ok(msg) = control.recv() {
        match msg {
            Control::Segment { len, input } => {
                let mut outs = Vec::with_capacity(outputs.len().max(1));
                if let (Some(shard), Some(input)) = (own.as_mut(), input) {
                    outs.push(shard.replay_segment(&input));
                }
                outs.extend(outputs.iter().map(|rx| rx.recv().expect("replay shard died")));
                reducer.reduce_segment(len, &outs);
            }
            Control::EndPhase { kind, main_core, main_accel } => {
                last_phase = reducer.end_phase(kind, &main_core, &main_accel);
            }
            Control::Drain { reply } => {
                let _ = reply.send(last_phase);
            }
        }
    }
    (own, reducer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{AddressSpace, Region};
    use crate::hierarchy::tests::Rng;
    use crate::machine::Machine;
    use crate::policy::PolicyKind;
    use crate::stats::Op;

    /// Runs one phase per entry of `phases`, each of that many random
    /// accesses, and returns the synced phase lengths.
    fn drive(m: &mut Machine, seed: u64, phases: &[usize]) -> Vec<u64> {
        let mut rng = Rng(seed | 1);
        let cores = m.cores();
        let mut phase_lens = Vec::new();
        for (p, &accesses) in phases.iter().enumerate() {
            for _ in 0..accesses {
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

    /// A machine that runs `exec` over a uniform shard plan, driven
    /// through `phases`, with its phase lengths.
    fn driven(cfg: &SimConfig, exec: ExecConfig, phases: &[usize]) -> (Machine, Vec<u64>) {
        let layout = AddressSpace::layout(4096, 16384, 64);
        let plan = ShardPlan::uniform(cfg.cores, exec.replay_shards());
        let mut m = Machine::with_exec_config(cfg.clone(), layout, exec, &plan);
        let lens = drive(&mut m, 0xABCD, phases);
        (m, lens)
    }

    /// Checks that every deterministic surface of two driven twins agrees.
    fn assert_agree(serial: &(Machine, Vec<u64>), sharded: &(Machine, Vec<u64>), at: &str) {
        let ((serial, serial_phases), (sharded, sharded_phases)) = (serial, sharded);
        assert_eq!(serial_phases, sharded_phases, "{at} phase cycles diverge");
        assert_eq!(serial.stats(), sharded.stats(), "{at} stats diverge");
        assert_eq!(serial.breakdown(), sharded.breakdown(), "{at} breakdown diverges");
        assert_eq!(serial.total_cycles(), sharded.total_cycles(), "{at}");
        assert_eq!(serial.dram().total_bytes(), sharded.dram().total_bytes(), "{at}");
        assert_eq!(serial.dram().total_reads(), sharded.dram().total_reads(), "{at}");
        assert_eq!(serial.dram().total_writebacks(), sharded.dram().total_writebacks(), "{at}");
    }

    /// Serial and sharded machines agree under every LLC replacement
    /// policy (Fig 18 and Fig 23 read them all).
    fn machines_agree(exec: ExecConfig) {
        for policy in [PolicyKind::Lru, PolicyKind::Drrip, PolicyKind::Grasp, PolicyKind::Popt] {
            let mut cfg = SimConfig::small_test();
            cfg.llc.policy = policy;
            let serial = driven(&cfg, ExecConfig::serial(), &[4000; 5]);
            let sharded = driven(&cfg, exec, &[4000; 5]);
            assert_agree(&serial, &sharded, &format!("{exec:?} {policy:?}"));

            assert!(sharded.0.exec_report().is_some(), "sharded run has a pipeline report");
            let stats = sharded.0.stats();
            assert_eq!(
                stats.l1_hits + stats.l2_hits + stats.llc_hits + stats.llc_misses,
                stats.accesses,
                "every recorded access crosses the boundary exactly once"
            );
        }
    }

    /// A phase longer than one segment is cut inside the phase and reduced
    /// over more than one segment, and a phase ended before any access
    /// lasts 0 cycles, at every shard count a `small_test()` machine takes.
    #[test]
    fn multi_segment_phase_matches_serial_at_every_shard_count() {
        let mut cfg = SimConfig::small_test();
        cfg.llc.policy = PolicyKind::Lru;
        let phases = [0, (SEG + SEG / 2) as usize + 1000, 3000];
        let serial = driven(&cfg, ExecConfig::serial(), &phases);
        assert_eq!(serial.1[0], 0, "a phase with no access lasts 0 cycles");
        assert!(serial.0.stats().accesses > SEG + SEG / 2);
        for n in 1..=cfg.cores + 1 {
            let exec = ExecConfig::serial().shards(n);
            assert_agree(&serial, &driven(&cfg, exec, &phases), &format!("{exec:?}"));
        }
    }

    /// A replay shard that dies drops its output channel; the reducer
    /// panics on it instead of waiting for that shard's output forever.
    #[test]
    fn reducer_panics_on_a_dead_replay_shard() {
        let cfg = SimConfig::small_test();
        let reducer = Reducer::new(SharedLevel::new(&cfg.llc, cfg.memory), &cfg);
        let (control, control_rx) = mpsc::sync_channel(1);
        control.send(Control::Segment { len: 1, input: None }).unwrap();
        drop(control);
        let (dead, output) = mpsc::sync_channel::<SegmentOutput>(1);
        drop(dead);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_reducer(&control_rx, &[output], None, reducer)
        }));
        assert!(run.is_err(), "the reducer must not outlive a dead replay shard");
    }

    /// A replay shard that panics fails the run with its own message, not
    /// the recording thread's: the drain joins the workers, replay shards
    /// first, and re-raises the shard's panic.
    #[test]
    fn a_dead_replay_shards_own_panic_reaches_the_caller() {
        let cfg = SimConfig::small_test();
        let exec = ExecConfig::serial().shards(3);
        let plan = ShardPlan::uniform(cfg.cores, exec.replay_shards());
        let private = (0..cfg.cores).map(|core| PrivateLevel::new(core, &cfg)).collect();
        let shared = SharedLevel::new(&cfg.llc, cfg.memory);
        let mut pipeline = Pipeline::spawn(&cfg, &plan, exec, private, shared);
        // Shard 0's input for the segment lacks its per-core event lists.
        pipeline.control.send(Control::Segment { len: 1, input: None }).unwrap();
        let malformed = SegmentInput { events: Vec::new(), invals: Vec::new() };
        pipeline.replay_inputs[0].send(malformed).unwrap();
        let drained =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipeline.drain_last_phase()));
        let payload = drained.expect_err("a dead replay shard must fail the drain");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("index out of bounds"), "got {message:?}");
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

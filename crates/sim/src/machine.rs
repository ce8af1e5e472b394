//! The assembled many-core machine.
//!
//! [`Machine`] wires the per-core private caches, the banked shared LLC,
//! the mesh NoC, the sharer directory, and the DRAM bandwidth envelope into
//! a single access API. Engines issue typed accesses (`region` + element
//! index); the machine computes addresses, drives the cache hierarchy,
//! charges latencies to the issuing timeline (core or paired accelerator),
//! and maintains all statistics. The hierarchy's rules live in one crate
//! module (`hierarchy`): the serial walk here calls its levels inline, and
//! a sharded [`ExecConfig`] drives the same levels from host worker
//! threads.

use tdgraph_graph::partition::ShardPlan;

use crate::address::{AddressSpace, Region};
use crate::config::{CacheConfig, SimConfig};
use crate::divisor::Divisor;
use crate::exec::{ExecConfig, ExecPipelineReport, Pipeline};
use crate::hierarchy::{Directory, PrivateLevel, SharedLevel, Walk};
use crate::memory::DramModel;
use crate::stats::{Actor, MachineStats, Op, PhaseKind, TimeBreakdown};

/// A simulated many-core processor with per-core accelerator timelines.
#[derive(Debug)]
pub struct Machine {
    cfg: SimConfig,
    layout: AddressSpace,
    /// Each core's L1 and L2, in core order.
    private: Vec<PrivateLevel>,
    /// The LLC, DRAM and phase times.
    shared: SharedLevel,
    directory: Directory,
    /// `cfg.accel_mlp`, which divides every accelerator latency.
    mlp: Divisor,
    core_phase: Vec<u64>,
    accel_phase: Vec<u64>,
    stats: MachineStats,
    /// The host-parallel record/replay pipeline, when constructed with a
    /// sharded [`ExecConfig`]. While it runs, the pipeline workers own the
    /// private levels (`private` is empty) and the shared level (`shared`
    /// is a one-line stand-in); [`Machine::finish`] takes them back, after
    /// which all accessors report the exact serial values.
    pipeline: Option<Pipeline>,
    /// Wall-clock spent spawning the pipeline (threads + cache hand-off);
    /// copied into the report's `setup` at [`Machine::finish`].
    pipeline_setup: std::time::Duration,
    exec_report: Option<ExecPipelineReport>,
}

impl Machine {
    /// Builds a machine from a configuration and an address-space layout.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or has more than 64 cores.
    #[must_use]
    pub fn new(cfg: SimConfig, layout: AddressSpace) -> Self {
        cfg.validate();
        assert!(cfg.cores <= 64, "directory bitmask supports at most 64 cores");
        let lines = (layout.total_bytes() / 64 + 1) as usize;
        Self {
            private: (0..cfg.cores).map(|core| PrivateLevel::new(core, &cfg)).collect(),
            shared: SharedLevel::new(&cfg.llc, cfg.memory),
            directory: Directory::new(lines),
            mlp: Divisor::new(cfg.accel_mlp),
            core_phase: vec![0; cfg.cores],
            accel_phase: vec![0; cfg.cores],
            layout,
            stats: MachineStats::default(),
            pipeline: None,
            pipeline_setup: std::time::Duration::ZERO,
            exec_report: None,
            cfg,
        }
    }

    /// Builds a machine for the given [`ExecConfig`].
    ///
    /// A non-sharded config is identical to [`Machine::new`]. A sharded
    /// one spawns the record/replay pipeline: the calling thread records
    /// accesses while host worker threads replay private caches and one
    /// sequential reducer merges the shared state; `plan` groups cores
    /// into `exec.replay_shards()` replay shards. Output after
    /// [`Machine::finish`] is byte-identical to serial for every config
    /// and plan.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the exec config fails
    /// [`ExecConfig::validate`] (more replay shards than cores), or the
    /// plan does not cover every core or has a shard count other than
    /// `exec.replay_shards()`.
    #[must_use]
    pub fn with_exec_config(
        cfg: SimConfig,
        layout: AddressSpace,
        exec: ExecConfig,
        plan: &ShardPlan,
    ) -> Self {
        if !exec.is_sharded() {
            return Self::new(cfg, layout);
        }
        if let Err(e) = exec.validate(cfg.cores) {
            panic!("invalid ExecConfig: {e}");
        }
        assert!(
            layout.total_bytes() / 64 <= crate::exec::MAX_TOUCH_LINE,
            "address space too large for packed boundary touches"
        );
        let t0 = std::time::Instant::now();
        let mut m = Self::new(cfg, layout);
        let private = std::mem::take(&mut m.private);
        let stand_in =
            SharedLevel::new(&CacheConfig { size_bytes: 64, ways: 1, ..m.cfg.llc }, m.cfg.memory);
        let shared = std::mem::replace(&mut m.shared, stand_in);
        m.pipeline = Some(Pipeline::spawn(&m.cfg, plan, exec, private, shared));
        m.pipeline_setup = t0.elapsed();
        m
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cfg.cores
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The address-space layout in use.
    #[must_use]
    pub fn layout(&self) -> &AddressSpace {
        &self.layout
    }

    /// Issues a typed access: element `index` of `region`, by `actor` on
    /// `core`. Returns the latency charged to that actor's timeline.
    ///
    /// Under a sharded [`ExecConfig`] the access is recorded for replay and
    /// the return value is a nominal 0 (engines never branch on it; the
    /// exact latency is charged on the worker threads and merged at
    /// [`Machine::finish`]).
    ///
    /// # Panics
    ///
    /// Panics if `core >= cores()`.
    pub fn access(
        &mut self,
        core: usize,
        actor: Actor,
        region: Region,
        index: u64,
        write: bool,
    ) -> u64 {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let addr = self.layout.addr(region, index);
        let line = addr >> 6;
        let word = ((addr >> 2) & 0xF) as u8;
        self.stats.accesses += 1;
        self.stats.count_region(region);
        let victims = self.directory.record(core, line, write);
        if let Some(pipeline) = self.pipeline.as_mut() {
            pipeline.invalidate(victims, core, line);
            pipeline.record(core, actor, region, line, word, write);
            return 0;
        }

        let latency = match self.private[core].access(line, write, region, &mut self.stats) {
            Walk::Hit(latency) => {
                self.shared.touch(line, word);
                latency
            }
            Walk::Miss(latency) => {
                latency + self.shared.fill(line, word, write, region, &mut self.stats)
            }
        };
        for victim in victims {
            self.private[victim].invalidate(core, line, &mut self.stats);
        }

        let charged = match actor {
            Actor::Core => latency,
            Actor::Accel => self.mlp.div_ceil(latency),
        };
        self.timeline(core, actor, charged);
        charged
    }

    /// Charges `count` occurrences of `op` to `actor`'s timeline on `core`.
    /// Core ops use the [`crate::config::InstrCost`] table; accelerator ops
    /// cost 1 cycle each (hardwired pipeline stages).
    pub fn compute(&mut self, core: usize, actor: Actor, op: Op, count: u64) {
        self.stats.op_counts[op.index()] += count;
        let per_op = match actor {
            Actor::Core => match op {
                Op::EdgeProcess => self.cfg.instr.edge_process,
                Op::StateUpdate => self.cfg.instr.state_update,
                Op::FrontierOp => self.cfg.instr.frontier_op,
                Op::HashProbe => self.cfg.instr.hash_probe,
                Op::ScheduleOp => self.cfg.instr.schedule_op,
                Op::BranchMiss => self.cfg.instr.branch_miss,
            },
            Actor::Accel => 1,
        };
        self.timeline(core, actor, per_op * count);
    }

    /// Adds raw cycles to a timeline (stall modeling).
    pub fn add_cycles(&mut self, core: usize, actor: Actor, cycles: u64) {
        self.timeline(core, actor, cycles);
    }

    fn timeline(&mut self, core: usize, actor: Actor, cycles: u64) {
        match actor {
            Actor::Core => self.core_phase[core] += cycles,
            Actor::Accel => self.accel_phase[core] += cycles,
        }
    }

    /// Ends a parallel phase: each core's time is the max of its core and
    /// accelerator timelines (they overlap); the phase length is the max
    /// over cores, then stretched by the DRAM bandwidth envelope. Returns
    /// the final phase length and accumulates it into the breakdown.
    ///
    /// Under a sharded [`ExecConfig`] the phase marker is shipped down the
    /// pipeline and a nominal 0 is returned; use
    /// [`Machine::end_phase_synced`] when the caller consumes the phase
    /// length.
    pub fn end_phase(&mut self, kind: PhaseKind) -> u64 {
        if let Some(pipeline) = self.pipeline.as_mut() {
            let cores = self.core_phase.len();
            let main_core = std::mem::replace(&mut self.core_phase, vec![0; cores]);
            let main_accel = std::mem::replace(&mut self.accel_phase, vec![0; cores]);
            pipeline.end_phase(kind, main_core, main_accel);
            return 0;
        }
        self.shared.end_phase(kind, &mut self.core_phase, &mut self.accel_phase)
    }

    /// Like [`Machine::end_phase`], but under sharded execution blocks
    /// until the phase is reduced and returns the exact serial phase
    /// length. Identical to `end_phase` in serial mode.
    pub fn end_phase_synced(&mut self, kind: PhaseKind) -> u64 {
        if self.pipeline.is_some() {
            self.end_phase(kind);
            let Some(pipeline) = self.pipeline.as_mut() else { return 0 };
            pipeline.drain_last_phase()
        } else {
            self.end_phase(kind)
        }
    }

    /// Flushes the LLC so resident state lines are counted in the
    /// utilization metric and dirty lines reach DRAM. Call once at the end
    /// of a run.
    ///
    /// Under a sharded [`ExecConfig`] this first drains and joins the
    /// pipeline workers and takes back the cache levels they own and the
    /// counts they made; only after `finish` do `stats`, `breakdown`,
    /// `total_cycles`, and `dram` report complete (serial-identical)
    /// values.
    pub fn finish(&mut self) {
        if let Some(pipeline) = self.pipeline.take() {
            let fin = pipeline.finalize();
            self.private = fin.private;
            self.shared = fin.shared;
            self.stats.merge(&fin.stats);
            self.exec_report = Some(ExecPipelineReport {
                reduce_wall: fin.reduce_wall,
                setup: self.pipeline_setup,
            });
        }
        self.shared.flush(&mut self.stats);
    }

    /// Machine statistics so far.
    #[must_use]
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Time breakdown over finished phases.
    #[must_use]
    pub fn breakdown(&self) -> &TimeBreakdown {
        self.shared.breakdown()
    }

    /// Total cycles over all finished phases.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.shared.breakdown().total()
    }

    /// DRAM model (for byte counters).
    #[must_use]
    pub fn dram(&self) -> &DramModel {
        self.shared.dram()
    }

    /// Pipeline wall-clock telemetry (reduce wall, setup time), present
    /// after a sharded run's [`Machine::finish`]. Never part of the
    /// deterministic result surfaces — wall-clock varies run to run.
    #[must_use]
    pub fn exec_report(&self) -> Option<&ExecPipelineReport> {
        self.exec_report.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        let layout = AddressSpace::layout(4096, 16384, 64);
        Machine::new(SimConfig::small_test(), layout)
    }

    #[test]
    fn cold_access_misses_everywhere_then_hits_l1() {
        let mut m = machine();
        let lat0 = m.access(0, Actor::Core, Region::VertexStates, 0, false);
        assert!(lat0 >= m.config().memory.latency, "cold access must reach DRAM");
        assert_eq!(m.stats().llc_misses, 1);
        let lat1 = m.access(0, Actor::Core, Region::VertexStates, 0, false);
        assert_eq!(lat1, m.config().l1d.latency);
        assert_eq!(m.stats().l1_hits, 1);
    }

    #[test]
    fn every_level_charges_its_exact_latency() {
        let cfg = SimConfig::small_test();
        let mesh = crate::noc::Mesh::new(cfg.mesh_dim, cfg.hop_cycles);
        let (l1, l2, llc, dram) =
            (cfg.l1d.latency, cfg.l2.latency, cfg.llc.latency, cfg.memory.latency);
        let region = Region::NeighborArray; // 4 B elements, 16 per line
        for actor in [Actor::Core, Actor::Accel] {
            let mut m = machine();
            let line = m.layout().addr(region, 0) >> 6;
            let charged = |latency: u64| match actor {
                Actor::Core => latency,
                Actor::Accel => latency.div_ceil(cfg.accel_mlp),
            };
            let cold = l1 + l2 + mesh.round_trip_cycles(0, line) + llc + dram;
            assert_eq!(m.access(0, actor, region, 0, false), charged(cold), "{actor:?} cold miss");
            assert_eq!(m.access(0, actor, region, 0, false), charged(l1), "{actor:?} L1 hit");
            // One L1 set's worth of same-set lines pushes the line out of
            // L1 (LRU) and out of nothing else.
            let l1_set_stride = cfg.l1d.sets() as u64 * 16;
            for k in 1..=cfg.l1d.ways as u64 {
                m.access(0, actor, region, k * l1_set_stride, false);
            }
            assert_eq!(m.access(0, actor, region, 0, false), charged(l1 + l2), "{actor:?} L2 hit");
            let remote = l1 + l2 + mesh.round_trip_cycles(1, line) + llc;
            assert_eq!(m.access(1, actor, region, 0, false), charged(remote), "{actor:?} LLC hit");
            let s = m.stats();
            let levels = (s.l1_hits, s.l2_hits, s.llc_hits, s.llc_misses);
            assert_eq!(levels, (1, 1, 1, 1 + cfg.l1d.ways as u64), "{actor:?}");
        }
    }

    #[test]
    fn same_line_different_words_hit() {
        let mut m = machine();
        m.access(0, Actor::Core, Region::VertexStates, 0, false);
        // States are 4 B; elements 0..16 share a line.
        let lat = m.access(0, Actor::Core, Region::VertexStates, 15, false);
        assert_eq!(lat, m.config().l1d.latency);
    }

    #[test]
    fn accel_access_is_cheaper_via_mlp() {
        let mut m = machine();
        let core_lat = m.access(0, Actor::Core, Region::NeighborArray, 0, false);
        let mut m2 = machine();
        let accel_lat = m2.access(0, Actor::Accel, Region::NeighborArray, 0, false);
        assert!(accel_lat < core_lat);
        let mlp = m2.config().accel_mlp;
        assert_eq!(accel_lat, core_lat.div_ceil(mlp));
    }

    #[test]
    fn write_invalidates_remote_sharers() {
        let mut m = machine();
        m.access(0, Actor::Core, Region::VertexStates, 0, false);
        m.access(1, Actor::Core, Region::VertexStates, 0, false);
        assert_eq!(m.stats().invalidations, 0);
        m.access(1, Actor::Core, Region::VertexStates, 0, true);
        assert_eq!(m.stats().invalidations, 1);
        // Core 0 must now re-fetch past L1/L2.
        let lat = m.access(0, Actor::Core, Region::VertexStates, 0, false);
        assert!(lat > m.config().l1d.latency + m.config().l2.latency);
    }

    #[test]
    fn phase_accounting_takes_max_over_cores_and_timelines() {
        let mut m = machine();
        m.add_cycles(0, Actor::Core, 100);
        m.add_cycles(1, Actor::Core, 40);
        m.add_cycles(1, Actor::Accel, 250);
        let t = m.end_phase(PhaseKind::Propagation);
        assert_eq!(t, 250);
        assert_eq!(m.breakdown().propagation_cycles, 250);
        // Counters reset.
        assert_eq!(m.end_phase(PhaseKind::Other), 0);
    }

    #[test]
    fn compute_charges_instr_costs() {
        let mut m = machine();
        m.compute(0, Actor::Core, Op::EdgeProcess, 10);
        let t = m.end_phase(PhaseKind::Propagation);
        assert_eq!(t, 10 * m.config().instr.edge_process);
        m.compute(0, Actor::Accel, Op::EdgeProcess, 10);
        assert_eq!(m.end_phase(PhaseKind::Propagation), 10);
        assert_eq!(m.stats().per_op(Op::EdgeProcess), 20);
    }

    #[test]
    fn finish_flushes_state_lines_into_utilization() {
        let mut m = machine();
        m.access(0, Actor::Core, Region::VertexStates, 0, false);
        m.access(0, Actor::Core, Region::VertexStates, 1, false);
        m.finish();
        let u = m.stats().state_lines;
        assert_eq!(u.lines, 1);
        assert_eq!(u.touched_words, 2);
    }

    #[test]
    fn bitvector_accesses_share_lines_heavily() {
        let mut m = machine();
        m.access(0, Actor::Core, Region::ActiveVertices, 0, false);
        // Bits 0..511 live in the same 64 B line.
        let lat = m.access(0, Actor::Core, Region::ActiveVertices, 511, false);
        assert_eq!(lat, m.config().l1d.latency);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let mut m = machine();
        m.access(99, Actor::Core, Region::VertexStates, 0, false);
    }
}

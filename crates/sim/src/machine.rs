//! The assembled many-core machine.
//!
//! [`Machine`] wires the per-core L1/L2 caches, the banked shared LLC, the
//! mesh NoC, the directory-based coherence model, and the DRAM bandwidth
//! envelope into a single access API. Engines issue typed accesses
//! (`region` + element index); the machine computes addresses, walks the
//! hierarchy, charges latencies to the issuing timeline (core or paired
//! accelerator), and maintains all statistics.

use tdgraph_graph::partition::ShardPlan;

use crate::address::{AddressSpace, Region};
use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::exec::{ExecConfig, ExecPipelineReport, Pipeline};
use crate::memory::DramModel;
use crate::noc::Mesh;
use crate::stats::{Actor, MachineStats, Op, PhaseKind, TimeBreakdown};

/// A simulated many-core processor with per-core accelerator timelines.
#[derive(Debug)]
pub struct Machine {
    cfg: SimConfig,
    layout: AddressSpace,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    mesh: Mesh,
    dram: DramModel,
    /// Sharer bitmask per line (index = line id). Supports ≤ 64 cores.
    directory: Vec<u64>,
    core_phase: Vec<u64>,
    accel_phase: Vec<u64>,
    breakdown: TimeBreakdown,
    stats: MachineStats,
    /// The host-parallel record/replay pipeline, when constructed with a
    /// sharded [`ExecConfig`]. While active, `l1`/`l2`/`llc`/`dram` are
    /// placeholders owned by the pipeline workers; [`Machine::finish`]
    /// merges them back, after which all accessors report the exact
    /// serial values.
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
        let l1 = (0..cfg.cores)
            .map(|_| SetAssocCache::new(cfg.l1d.sets(), cfg.l1d.ways, cfg.l1d.policy))
            .collect();
        let l2 = (0..cfg.cores)
            .map(|_| SetAssocCache::new(cfg.l2.sets(), cfg.l2.ways, cfg.l2.policy))
            .collect();
        let llc = SetAssocCache::new(cfg.llc.sets(), cfg.llc.ways, cfg.llc.policy);
        let mesh = Mesh::new(cfg.mesh_dim, cfg.hop_cycles);
        let dram = DramModel::new(cfg.memory);
        let lines = (layout.total_bytes() / 64 + 1) as usize;
        Self {
            core_phase: vec![0; cfg.cores],
            accel_phase: vec![0; cfg.cores],
            directory: vec![0; lines],
            l1,
            l2,
            llc,
            mesh,
            dram,
            layout,
            breakdown: TimeBreakdown::default(),
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
    /// into replay shards (regrouped if its shard count differs from the
    /// pipeline's). Output after [`Machine::finish`] is byte-identical to
    /// serial for every config and plan.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the exec config fails
    /// [`ExecConfig::validate`] (more replay shards than cores), or the
    /// plan does not cover every core.
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
        let l1 = std::mem::take(&mut m.l1);
        let l2 = std::mem::take(&mut m.l2);
        let llc = std::mem::replace(&mut m.llc, SetAssocCache::new(1, 1, m.cfg.llc.policy));
        let dram = std::mem::replace(&mut m.dram, DramModel::new(m.cfg.memory));
        m.pipeline = Some(Pipeline::spawn(&m.cfg, plan, exec, l1, l2, llc, dram));
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
        if self.pipeline.is_some() {
            self.record_access(core, actor, region, line, word, write);
            return 0;
        }

        let mut latency = self.cfg.l1d.latency;
        let l1_out = self.l1[core].access(line, word, write, region);
        if l1_out.hit {
            self.stats.l1_hits += 1;
            self.llc.touch_word(line, word);
        } else {
            latency += self.cfg.l2.latency;
            let l2_out = self.l2[core].access(line, word, write, region);
            if l2_out.hit {
                self.stats.l2_hits += 1;
                self.llc.touch_word(line, word);
            } else {
                // Travel to the line's LLC bank.
                let noc = self.mesh.round_trip_cycles(core, line);
                self.stats.noc_hop_cycles += noc;
                latency += noc + self.cfg.llc.latency;
                let llc_out = self.llc.access(line, word, write, region);
                if llc_out.hit {
                    self.stats.llc_hits += 1;
                } else {
                    self.stats.llc_misses += 1;
                    latency += self.dram.read_line();
                }
                if let Some(ev) = llc_out.evicted {
                    self.retire_llc_line(ev);
                }
            }
        }

        if write {
            self.invalidate_remote_sharers(core, line);
        }
        let slot = line as usize % self.directory.len();
        self.directory[slot] |= 1 << core;

        let charged = match actor {
            Actor::Core => latency,
            Actor::Accel => latency.div_ceil(self.cfg.accel_mlp),
        };
        self.timeline(core, actor, charged);
        charged
    }

    /// Sharded-mode record path: maintain the directory (a pure function
    /// of the access stream), queue invalidation candidates for victim
    /// cores, and append the access event. The directory reset on a write
    /// is skipped when there are no other sharers — in that case the slot
    /// already holds at most this core's bit, so `|=` below yields the
    /// identical serial state.
    fn record_access(
        &mut self,
        core: usize,
        actor: Actor,
        region: Region,
        line: u64,
        word: u8,
        write: bool,
    ) {
        let slot = line as usize % self.directory.len();
        if write {
            let sharers = self.directory[slot] & !(1u64 << core);
            if sharers != 0 {
                let Some(pipeline) = self.pipeline.as_mut() else { return };
                let mut mask = sharers;
                while mask != 0 {
                    let other = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    if other >= self.cfg.cores {
                        continue;
                    }
                    pipeline.push_inval(other, core, line);
                }
                self.directory[slot] = 1 << core;
            }
        }
        self.directory[slot] |= 1 << core;
        let Some(pipeline) = self.pipeline.as_mut() else { return };
        pipeline.record(core, actor, region, line, word, write);
    }

    fn retire_llc_line(&mut self, ev: crate::cache::EvictedLine) {
        if ev.region.is_state_region() {
            self.stats.state_lines.record(ev.touched_words);
        }
        if ev.dirty {
            self.dram.writeback_line();
        }
    }

    fn invalidate_remote_sharers(&mut self, writer: usize, line: u64) {
        let slot = line as usize % self.directory.len();
        let sharers = self.directory[slot] & !(1u64 << writer);
        if sharers == 0 {
            return;
        }
        let mut mask = sharers;
        while mask != 0 {
            let other = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if other >= self.cfg.cores {
                continue;
            }
            let mut invalidated = false;
            if self.l1[other].invalidate(line).is_some() {
                invalidated = true;
            }
            if self.l2[other].invalidate(line).is_some() {
                invalidated = true;
            }
            if invalidated {
                self.stats.invalidations += 1;
                let cost = self.mesh.one_way_cycles(writer, other);
                self.stats.noc_hop_cycles += cost;
            }
        }
        self.directory[slot] = 1 << writer;
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
        let compute = self
            .core_phase
            .iter()
            .zip(&self.accel_phase)
            .map(|(&c, &a)| c.max(a))
            .max()
            .unwrap_or(0);
        let cycles = self.dram.close_phase(compute);
        self.core_phase.iter_mut().for_each(|c| *c = 0);
        self.accel_phase.iter_mut().for_each(|c| *c = 0);
        self.breakdown.add(kind, cycles);
        cycles
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
    /// utilization metric. Call once at the end of a run.
    ///
    /// Under a sharded [`ExecConfig`] this first drains and joins the
    /// pipeline workers, merging replayed cache/NoC/DRAM state back into
    /// the machine; only after `finish` do `stats`, `breakdown`,
    /// `total_cycles`, and `dram` report complete (serial-identical)
    /// values.
    pub fn finish(&mut self) {
        if let Some(pipeline) = self.pipeline.take() {
            let mut fin = pipeline.finalize();
            fin.report.setup = self.pipeline_setup;
            self.exec_report = Some(fin.report);
            self.llc = fin.llc;
            self.dram = fin.dram;
            self.breakdown = fin.breakdown;
            self.stats.l1_hits += fin.l1_hits;
            self.stats.l2_hits += fin.l2_hits;
            self.stats.llc_hits += fin.llc_hits;
            self.stats.llc_misses += fin.llc_misses;
            self.stats.noc_hop_cycles += fin.noc_hop_cycles;
            self.stats.invalidations += fin.invalidations;
            self.stats.state_lines.lines += fin.state_lines.lines;
            self.stats.state_lines.touched_words += fin.state_lines.touched_words;
        }
        for ev in self.llc.flush() {
            if ev.region.is_state_region() {
                self.stats.state_lines.record(ev.touched_words);
            }
            if ev.dirty {
                self.dram.writeback_line();
            }
        }
    }

    /// Machine statistics so far.
    #[must_use]
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Time breakdown over finished phases.
    #[must_use]
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }

    /// Total cycles over all finished phases.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.breakdown.total()
    }

    /// DRAM model (for byte counters).
    #[must_use]
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// Pipeline wall-clock/traffic telemetry (reduce wall, boundary
    /// bytes, setup time), present after a
    /// sharded run's [`Machine::finish`]. Never part of the deterministic
    /// result surfaces — wall-clock varies run to run.
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

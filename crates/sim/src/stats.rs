//! Machine-level statistics collected during simulation.
//!
//! [`MachineStats`] is the dense hot-path accumulator the [`crate::Machine`]
//! writes into on every access; at the end of a run it exports into the
//! unified observability layer ([`MachineStats::export_into`]) and can be
//! reconstructed from a snapshot ([`MachineStats::from_snapshot`]), so the
//! `sim.*` keys in an obs [`Snapshot`] are a lossless view of it.

use tdgraph_obs::{keys, Recorder, Snapshot};

use crate::address::Region;

/// Defines [`Op`] once: the variant list drives the enum, `ALL`, the
/// derived discriminant index, and the obs counter key, so adding an op is
/// a one-line change with no positional match to keep in sync.
macro_rules! define_ops {
    ($($(#[$meta:meta])* $name:ident => $key:literal,)+) => {
        /// Algorithmic operations charged to a timeline (see
        /// [`crate::config::InstrCost`] for the per-op core costs).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Op {
            $($(#[$meta])* $name,)+
        }

        impl Op {
            /// All operation kinds, in discriminant order.
            pub const ALL: [Op; Op::COUNT] = [$(Op::$name,)+];

            /// Number of operation kinds.
            pub const COUNT: usize = [$(Op::$name,)+].len();

            /// Index into per-op tables: the derived discriminant, so it
            /// can never drift from the variant order.
            #[must_use]
            pub const fn index(self) -> usize {
                self as usize
            }

            /// The observability counter key (starts with
            /// [`keys::OP_PREFIX`]).
            #[must_use]
            pub const fn obs_key(self) -> &'static str {
                match self {
                    $(Op::$name => $key,)+
                }
            }
        }
    };
}

define_ops! {
    /// Process one edge.
    EdgeProcess => "sim.op.edge_process",
    /// Commit one vertex-state update.
    StateUpdate => "sim.op.state_update",
    /// Push/pop one frontier or worklist entry.
    FrontierOp => "sim.op.frontier_op",
    /// One hash-table probe.
    HashProbe => "sim.op.hash_probe",
    /// Per-vertex scheduling overhead.
    ScheduleOp => "sim.op.schedule_op",
    /// Data-dependent branch misprediction penalty.
    BranchMiss => "sim.op.branch_miss",
}

/// Who issues an access or operation: a general-purpose core or an
/// accelerator engine paired with it. The two run concurrently; at phase
/// boundaries each core's time is the max of the two timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Actor {
    /// The software thread on the core.
    Core,
    /// The per-core accelerator engine (TDTU/VSCU or a comparator model).
    Accel,
}

/// Phase classification for the execution-time breakdown (Fig 3a / Fig 10
/// split "state propagation" from "other").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Propagating new states along the topology.
    Propagation,
    /// Everything else (batch application, tracking, scheduling, indexing).
    Other,
}

impl PhaseKind {
    /// The span name this phase records under in the observability layer.
    #[must_use]
    pub const fn obs_name(self) -> &'static str {
        match self {
            PhaseKind::Propagation => keys::PHASE_PROPAGATION,
            PhaseKind::Other => keys::PHASE_OTHER,
        }
    }
}

/// Word-utilization accumulator for state-region cache lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineUtilization {
    /// State-region lines evicted (or flushed) from the LLC.
    pub lines: u64,
    /// Total 4 B words touched in those lines while resident.
    pub touched_words: u64,
}

impl LineUtilization {
    /// Records one evicted line with `touched` words used.
    pub fn record(&mut self, touched: u32) {
        self.lines += 1;
        self.touched_words += u64::from(touched);
    }

    /// Fraction of fetched state words that were actually used (Fig 3c /
    /// Fig 12). Returns 1.0 when nothing was fetched.
    #[must_use]
    pub fn useful_ratio(&self) -> f64 {
        if self.lines == 0 {
            1.0
        } else {
            self.touched_words as f64 / (self.lines as f64 * 16.0)
        }
    }
}

/// Aggregate machine statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineStats {
    /// L1D hits.
    pub l1_hits: u64,
    /// L2 hits (L1 misses that hit L2).
    pub l2_hits: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses (DRAM line reads).
    pub llc_misses: u64,
    /// Total accesses issued.
    pub accesses: u64,
    /// NoC hop·cycles spent on LLC round trips and invalidations.
    pub noc_hop_cycles: u64,
    /// Coherence invalidations of remote private-cache lines.
    pub invalidations: u64,
    /// Utilization of vertex-state lines through the LLC.
    pub state_lines: LineUtilization,
    /// Per-op counts, indexed by [`Op::index`].
    pub op_counts: [u64; Op::COUNT],
    /// Accesses per region, indexed by [`Region::index`].
    pub region_accesses: [u64; Region::COUNT],
}

impl MachineStats {
    /// LLC miss rate over LLC lookups.
    #[must_use]
    pub fn llc_miss_rate(&self) -> f64 {
        let lookups = self.llc_hits + self.llc_misses;
        if lookups == 0 {
            0.0
        } else {
            self.llc_misses as f64 / lookups as f64
        }
    }

    /// Adds every count of `other`: a sharded run's worker threads count
    /// their share of the run apart from the recording thread.
    pub(crate) fn merge(&mut self, other: &MachineStats) {
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.llc_hits += other.llc_hits;
        self.llc_misses += other.llc_misses;
        self.accesses += other.accesses;
        self.noc_hop_cycles += other.noc_hop_cycles;
        self.invalidations += other.invalidations;
        self.state_lines.lines += other.state_lines.lines;
        self.state_lines.touched_words += other.state_lines.touched_words;
        for (mine, theirs) in self.op_counts.iter_mut().zip(other.op_counts) {
            *mine += theirs;
        }
        for (mine, theirs) in self.region_accesses.iter_mut().zip(other.region_accesses) {
            *mine += theirs;
        }
    }

    /// Records an access to `region` for the per-region histogram.
    pub fn count_region(&mut self, region: Region) {
        self.region_accesses[region.index()] += 1;
    }

    /// Count of operation `op`.
    #[must_use]
    pub fn per_op(&self, op: Op) -> u64 {
        self.op_counts[op.index()]
    }

    /// Accesses recorded for `region`.
    #[must_use]
    pub fn per_region(&self, region: Region) -> u64 {
        self.region_accesses[region.index()]
    }

    /// Total algorithmic operations across all kinds.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.op_counts.iter().sum()
    }

    /// Exports every statistic into the observability layer under the
    /// `sim.*` key namespace. [`MachineStats::from_snapshot`] inverts this.
    pub fn export_into(&self, rec: &mut dyn Recorder) {
        rec.counter(keys::L1_HITS, self.l1_hits);
        rec.counter(keys::L2_HITS, self.l2_hits);
        rec.counter(keys::LLC_HITS, self.llc_hits);
        rec.counter(keys::LLC_MISSES, self.llc_misses);
        rec.counter(keys::ACCESSES, self.accesses);
        rec.counter(keys::NOC_HOP_CYCLES, self.noc_hop_cycles);
        rec.counter(keys::INVALIDATIONS, self.invalidations);
        rec.counter(keys::STATE_LINES, self.state_lines.lines);
        rec.counter(keys::STATE_WORDS_TOUCHED, self.state_lines.touched_words);
        for op in Op::ALL {
            rec.counter(op.obs_key(), self.per_op(op));
        }
        for region in Region::ALL {
            rec.counter(region.obs_key(), self.per_region(region));
        }
    }

    /// Reconstructs the statistics from the `sim.*` counters of a
    /// snapshot. Keys a run never emitted read back as zero.
    #[must_use]
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let mut op_counts = [0u64; Op::COUNT];
        for op in Op::ALL {
            op_counts[op.index()] = snapshot.counter(op.obs_key());
        }
        let mut region_accesses = [0u64; Region::COUNT];
        for region in Region::ALL {
            region_accesses[region.index()] = snapshot.counter(region.obs_key());
        }
        Self {
            l1_hits: snapshot.counter(keys::L1_HITS),
            l2_hits: snapshot.counter(keys::L2_HITS),
            llc_hits: snapshot.counter(keys::LLC_HITS),
            llc_misses: snapshot.counter(keys::LLC_MISSES),
            accesses: snapshot.counter(keys::ACCESSES),
            noc_hop_cycles: snapshot.counter(keys::NOC_HOP_CYCLES),
            invalidations: snapshot.counter(keys::INVALIDATIONS),
            state_lines: LineUtilization {
                lines: snapshot.counter(keys::STATE_LINES),
                touched_words: snapshot.counter(keys::STATE_WORDS_TOUCHED),
            },
            op_counts,
            region_accesses,
        }
    }
}

/// Per-phase and total time accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Cycles in propagation phases.
    pub propagation_cycles: u64,
    /// Cycles in other phases.
    pub other_cycles: u64,
}

impl TimeBreakdown {
    /// Total cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.propagation_cycles + self.other_cycles
    }

    /// Adds a finished phase.
    pub fn add(&mut self, kind: PhaseKind, cycles: u64) {
        match kind {
            PhaseKind::Propagation => self.propagation_cycles += cycles,
            PhaseKind::Other => self.other_cycles += cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdgraph_obs::MemoryRecorder;

    #[test]
    fn utilization_ratio() {
        let mut u = LineUtilization::default();
        assert_eq!(u.useful_ratio(), 1.0);
        u.record(16);
        u.record(0);
        assert!((u.useful_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn llc_miss_rate_handles_zero() {
        let s = MachineStats::default();
        assert_eq!(s.llc_miss_rate(), 0.0);
    }

    #[test]
    fn region_histogram_roundtrip() {
        let mut s = MachineStats::default();
        s.count_region(Region::VertexStates);
        s.count_region(Region::VertexStates);
        assert_eq!(s.per_region(Region::VertexStates), 2);
        assert_eq!(s.per_region(Region::OffsetArray), 0);
    }

    #[test]
    fn breakdown_accumulates_by_kind() {
        let mut b = TimeBreakdown::default();
        b.add(PhaseKind::Propagation, 100);
        b.add(PhaseKind::Other, 50);
        b.add(PhaseKind::Propagation, 10);
        assert_eq!(b.propagation_cycles, 110);
        assert_eq!(b.other_cycles, 50);
        assert_eq!(b.total(), 160);
    }

    #[test]
    fn op_index_is_the_discriminant() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
        assert_eq!(Op::COUNT, Op::ALL.len());
    }

    #[test]
    fn op_obs_keys_are_prefixed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for op in Op::ALL {
            assert!(op.obs_key().starts_with(keys::OP_PREFIX), "{:?}", op);
            assert!(seen.insert(op.obs_key()), "duplicate key for {op:?}");
        }
    }

    #[test]
    fn per_op_and_per_region_answer() {
        let mut s = MachineStats::default();
        s.op_counts[Op::HashProbe.index()] = 7;
        s.count_region(Region::Frontier);
        assert_eq!(s.per_op(Op::HashProbe), 7);
        assert_eq!(s.per_region(Region::Frontier), 1);
        assert_eq!(s.total_ops(), 7);
    }

    #[test]
    fn export_import_roundtrips() {
        let mut s = MachineStats {
            l1_hits: 10,
            l2_hits: 4,
            llc_hits: 3,
            llc_misses: 2,
            accesses: 19,
            noc_hop_cycles: 55,
            invalidations: 1,
            ..Default::default()
        };
        s.state_lines.record(12);
        s.op_counts[Op::EdgeProcess.index()] = 100;
        s.count_region(Region::NeighborArray);

        let mut rec = MemoryRecorder::new();
        s.export_into(&mut rec);
        let restored = MachineStats::from_snapshot(&rec.into_snapshot());
        assert_eq!(restored, s);
    }
}

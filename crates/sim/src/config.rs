//! Simulated system configuration (Table 1 of the paper).

use crate::error::SimError;
use crate::policy::PolicyKind;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
    /// Replacement policy.
    pub policy: PolicyKind,
}

impl CacheConfig {
    /// Number of sets for 64 B lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    #[must_use]
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / 64;
        assert!(lines.is_multiple_of(self.ways), "cache geometry must divide evenly");
        lines / self.ways
    }
}

/// DRAM subsystem model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Number of DDR4 channels (Table 1: 12-channel DDR4-3200 CL17).
    pub channels: usize,
    /// Idle access latency in core cycles (row activation + CAS + transfer
    /// + controller overhead at 2.5 GHz).
    pub latency: u64,
    /// Peak bytes per core cycle per channel. DDR4-3200 moves 8 B per memory
    /// clock edge = 25.6 GB/s per channel = 10.24 B per 2.5 GHz core cycle.
    pub bytes_per_cycle_per_channel: f64,
}

impl MemoryConfig {
    /// Aggregate peak bandwidth in bytes per core cycle.
    #[must_use]
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.channels as f64 * self.bytes_per_cycle_per_channel
    }
}

/// Per-operation instruction-cost table for the core timing model.
///
/// These charge the *software* cost of each algorithmic step; accelerator
/// units have their own (much smaller) costs because their operations are
/// hardwired pipeline stages. Values are documented estimates for a
/// Skylake-like OOO core running the optimized (SIMD + unrolled) Ligra-o
/// binary the paper describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrCost {
    /// Process one edge (load neighbor id, compute candidate, compare):
    /// amortized with SIMD/unrolling.
    pub edge_process: u64,
    /// Commit one vertex-state update (store + bookkeeping).
    pub state_update: u64,
    /// Push/pop one work item on the software frontier/worklist.
    pub frontier_op: u64,
    /// One software hash-table probe (hot-vertex index lookup).
    pub hash_probe: u64,
    /// Per-vertex scheduling overhead of a software engine iteration.
    pub schedule_op: u64,
    /// Data-dependent branch misprediction penalty charged on irregular
    /// control flow (software topology-driven traversal suffers these,
    /// §3.1 "Runtime Overhead").
    pub branch_miss: u64,
}

impl InstrCost {
    /// Default cost table.
    #[must_use]
    pub fn skylake_like() -> Self {
        Self {
            edge_process: 4,
            state_update: 3,
            frontier_op: 4,
            hash_probe: 10,
            schedule_op: 6,
            branch_miss: 14,
        }
    }
}

/// Full simulated-system configuration (Table 1) plus model knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of cores (Table 1: 64).
    pub cores: usize,
    /// Core frequency in GHz (for converting cycles to seconds).
    pub freq_ghz: f64,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core private L2.
    pub l2: CacheConfig,
    /// Shared LLC (banked over the mesh).
    pub llc: CacheConfig,
    /// Mesh dimension (8 → 8×8 = 64 tiles).
    pub mesh_dim: usize,
    /// Cycles per mesh hop (Table 1: 3).
    pub hop_cycles: u64,
    /// DRAM model.
    pub memory: MemoryConfig,
    /// Core instruction-cost table.
    pub instr: InstrCost,
    /// Memory-level parallelism of an accelerator engine: its memory
    /// latencies are divided by this factor because the hardware pipelines
    /// outstanding fetches (prior prefetchers model the same effect).
    pub accel_mlp: u64,
}

impl SimConfig {
    /// The paper's Table 1 configuration.
    #[must_use]
    pub fn table1() -> Self {
        Self {
            cores: 64,
            freq_ghz: 2.5,
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                latency: 4,
                policy: PolicyKind::Lru,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 8,
                latency: 7,
                policy: PolicyKind::Lru,
            },
            llc: CacheConfig {
                size_bytes: 64 * 1024 * 1024,
                ways: 16,
                latency: 27,
                policy: PolicyKind::Drrip,
            },
            mesh_dim: 8,
            hop_cycles: 3,
            memory: MemoryConfig { channels: 12, latency: 160, bytes_per_cycle_per_channel: 10.24 },
            instr: InstrCost::skylake_like(),
            accel_mlp: 8,
        }
    }

    /// The Table 1 machine with cache capacities scaled down 32× (L1 4 KB,
    /// L2 8 KB, LLC 128 KB), matching the 1/16–1/32 scaling of the synthetic datasets
    /// so the working-set:cache ratio — which drives every memory-system
    /// effect the paper measures — is preserved. Core count, latencies,
    /// NoC, and bandwidth stay at Table 1 values. This is the default
    /// machine for the experiment runners (see DESIGN.md §3).
    #[must_use]
    pub fn scaled_reference() -> Self {
        let mut cfg = Self::table1();
        cfg.l1d.size_bytes = 4 * 1024;
        cfg.l2.size_bytes = 8 * 1024;
        cfg.llc.size_bytes = 128 * 1024;
        cfg
    }

    /// A scaled-down machine for unit tests: 4 cores, small caches, same
    /// relative geometry. Keeps tests fast while exercising every code path.
    #[must_use]
    pub fn small_test() -> Self {
        let mut cfg = Self::table1();
        cfg.cores = 4;
        cfg.mesh_dim = 2;
        cfg.l1d.size_bytes = 4 * 1024;
        cfg.l2.size_bytes = 16 * 1024;
        cfg.llc.size_bytes = 256 * 1024;
        cfg.memory.channels = 2;
        cfg
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the mesh cannot host the cores or a cache geometry is
    /// inconsistent. Use [`SimConfig::try_validate`] for a non-panicking
    /// check.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Validates internal consistency, returning the first inconsistency
    /// as a typed [`SimError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the offending field.
    pub fn try_validate(&self) -> Result<(), SimError> {
        if self.cores == 0 {
            return Err(SimError::InvalidConfig {
                field: "cores",
                reason: "core count must be >= 1".into(),
            });
        }
        if self.mesh_dim * self.mesh_dim < self.cores {
            return Err(SimError::InvalidConfig {
                field: "mesh_dim",
                reason: format!(
                    "mesh {}x{} cannot host {} cores",
                    self.mesh_dim, self.mesh_dim, self.cores
                ),
            });
        }
        for (field, cache) in [("l1d", &self.l1d), ("l2", &self.l2), ("llc", &self.llc)] {
            let lines = cache.size_bytes / 64;
            if cache.ways == 0 || lines == 0 || !lines.is_multiple_of(cache.ways) {
                return Err(SimError::InvalidConfig {
                    field,
                    reason: format!(
                        "cache geometry must divide evenly ({} bytes, {} ways)",
                        cache.size_bytes, cache.ways
                    ),
                });
            }
        }
        if self.accel_mlp < 1 {
            return Err(SimError::InvalidConfig {
                field: "accel_mlp",
                reason: "accel_mlp must be >= 1".into(),
            });
        }
        if !(self.freq_ghz.is_finite() && self.freq_ghz > 0.0) {
            return Err(SimError::InvalidConfig {
                field: "freq_ghz",
                reason: format!("frequency must be positive, got {}", self.freq_ghz),
            });
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = SimConfig::table1();
        assert_eq!(c.cores, 64);
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.llc.size_bytes, 64 * 1024 * 1024);
        assert_eq!(c.llc.ways, 16);
        assert_eq!(c.llc.latency, 27);
        assert_eq!(c.mesh_dim, 8);
        assert_eq!(c.hop_cycles, 3);
        assert_eq!(c.memory.channels, 12);
        c.validate();
    }

    #[test]
    fn cache_sets_compute() {
        let c = SimConfig::table1();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.llc.sets(), 65536);
    }

    #[test]
    fn small_test_is_valid() {
        SimConfig::small_test().validate();
    }

    #[test]
    fn peak_bandwidth_is_aggregate() {
        let m = SimConfig::table1().memory;
        assert!((m.peak_bytes_per_cycle() - 122.88).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "mesh")]
    fn invalid_mesh_panics() {
        let mut c = SimConfig::table1();
        c.mesh_dim = 2;
        c.validate();
    }

    #[test]
    fn try_validate_reports_typed_errors() {
        let mut c = SimConfig::table1();
        c.mesh_dim = 2;
        let err = c.try_validate().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { field: "mesh_dim", .. }));

        let mut c = SimConfig::table1();
        c.cores = 0;
        assert!(matches!(
            c.try_validate().unwrap_err(),
            SimError::InvalidConfig { field: "cores", .. }
        ));

        let mut c = SimConfig::table1();
        c.l2.ways = 7;
        assert!(matches!(
            c.try_validate().unwrap_err(),
            SimError::InvalidConfig { field: "l2", .. }
        ));

        let mut c = SimConfig::table1();
        c.freq_ghz = 0.0;
        assert!(matches!(
            c.try_validate().unwrap_err(),
            SimError::InvalidConfig { field: "freq_ghz", .. }
        ));

        assert_eq!(SimConfig::small_test().try_validate(), Ok(()));
    }
}

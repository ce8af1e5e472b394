//! DRAM subsystem model: fixed service latency plus a bandwidth envelope.
//!
//! Individual line fetches are charged [`MemoryConfig::latency`]; aggregate
//! throughput is bounded by the channel count via a roofline adjustment at
//! phase boundaries — if a phase moved more bytes than the peak bandwidth
//! allows in its compute time, the phase is stretched to the bandwidth
//! bound. This reproduces the paper's bandwidth-sensitivity behaviour
//! (Fig 20) without a cycle-level DRAM scheduler.

use crate::config::MemoryConfig;

/// Tracks DRAM traffic and applies the bandwidth envelope.
#[derive(Debug, Clone)]
pub struct DramModel {
    config: MemoryConfig,
    phase_bytes: u64,
    total_bytes: u64,
    total_reads: u64,
    total_writebacks: u64,
}

impl DramModel {
    /// Creates a model for the given channel configuration.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self { config, phase_bytes: 0, total_bytes: 0, total_reads: 0, total_writebacks: 0 }
    }

    /// The configured memory parameters.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Records a 64 B line read from memory; returns its service latency.
    pub fn read_line(&mut self) -> u64 {
        self.phase_bytes += 64;
        self.total_bytes += 64;
        self.total_reads += 1;
        self.config.latency
    }

    /// Records a 64 B dirty writeback (latency is off the critical path).
    pub fn writeback_line(&mut self) {
        self.phase_bytes += 64;
        self.total_bytes += 64;
        self.total_writebacks += 1;
    }

    /// Ends a phase that took `compute_cycles` of overlapping execution;
    /// returns the phase duration after the bandwidth envelope is applied.
    pub fn close_phase(&mut self, compute_cycles: u64) -> u64 {
        let peak = self.config.peak_bytes_per_cycle();
        let bound =
            if peak > 0.0 { (self.phase_bytes as f64 / peak).ceil() as u64 } else { u64::MAX };
        self.phase_bytes = 0;
        compute_cycles.max(bound)
    }

    /// Total bytes moved (reads + writebacks).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total line reads.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.total_reads
    }

    /// Total dirty writebacks.
    #[must_use]
    pub fn total_writebacks(&self) -> u64 {
        self.total_writebacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(channels: usize) -> MemoryConfig {
        MemoryConfig { channels, latency: 160, bytes_per_cycle_per_channel: 10.24 }
    }

    #[test]
    fn read_charges_latency_and_counts_bytes() {
        let mut d = DramModel::new(cfg(12));
        assert_eq!(d.read_line(), 160);
        d.writeback_line();
        assert_eq!(d.total_bytes(), 128);
        assert_eq!(d.total_reads(), 1);
        assert_eq!(d.total_writebacks(), 1);
    }

    #[test]
    fn compute_bound_phase_is_unchanged() {
        let mut d = DramModel::new(cfg(12));
        for _ in 0..10 {
            d.read_line();
        }
        // 640 bytes over 1000 cycles needs only 0.64 B/cycle << 122.88.
        assert_eq!(d.close_phase(1000), 1000);
    }

    #[test]
    fn bandwidth_bound_phase_is_stretched() {
        let mut d = DramModel::new(cfg(1));
        for _ in 0..1000 {
            d.read_line();
        }
        // 64_000 bytes over 10 cycles at 10.24 B/cycle -> 6250 cycles.
        let t = d.close_phase(10);
        assert_eq!(t, 6250);
    }

    #[test]
    fn phase_bytes_reset_between_phases() {
        let mut d = DramModel::new(cfg(1));
        for _ in 0..1000 {
            d.read_line();
        }
        let _ = d.close_phase(1);
        assert_eq!(d.close_phase(7), 7, "second phase saw stale bytes");
    }

    #[test]
    fn more_channels_shorten_bound_phases() {
        let mut narrow = DramModel::new(cfg(3));
        let mut wide = DramModel::new(cfg(24));
        for _ in 0..10_000 {
            narrow.read_line();
            wide.read_line();
        }
        assert!(narrow.close_phase(1) > wide.close_phase(1));
    }
}

//! Summary statistics the result line is built from: medians, the
//! tail percentile a sample supports, and the process's peak resident
//! set.

/// Tail levels the benchmark may report, in per-mille.
const TAIL_LADDER: [u64; 7] = [500, 750, 900, 950, 990, 995, 999];

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Nearest-rank position (1-based) of the `per_mille` quantile among `n`
/// sorted samples.
fn rank(per_mille: u64, n: usize) -> usize {
    (per_mille as usize * n).div_ceil(1000).max(1)
}

/// The highest ladder level that leaves at least [`TAIL_BEYOND`] of
/// `min_samples` samples beyond it. Workloads pass the sample count every
/// run is guaranteed to reach, so the level is fixed by the workload's
/// design, not by how many rounds a run happened to fit.
pub fn tail_level(min_samples: usize) -> Option<u64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&level| min_samples.saturating_sub(rank(level, min_samples)) >= TAIL_BEYOND)
}

/// A tail percentile with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile level in per-mille (990 is p99).
    pub per_mille: u64,
    /// The sample at that level.
    pub value: f64,
    /// Samples the level was read from.
    pub samples: usize,
    /// Samples strictly beyond the level's rank.
    pub beyond: usize,
}

impl Tail {
    /// `p99 of 1200 samples (12 beyond)`-style description.
    pub fn describe(&self) -> String {
        let pct = self.per_mille as f64 / 10.0;
        format!("p{pct} of {} samples ({} beyond)", self.samples, self.beyond)
    }
}

/// The tail percentile of `values` at the level `min_samples` supports;
/// `None` when that count supports no level or `values` is short of it.
pub fn tail(values: &[f64], min_samples: usize) -> Option<Tail> {
    let per_mille = tail_level(min_samples)?;
    if values.len() < min_samples {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(per_mille, sorted.len());
    Some(Tail { per_mille, value: sorted[r - 1], samples: sorted.len(), beyond: sorted.len() - r })
}

/// Mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Peak resident set (`VmHWM`) in MiB from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_level_leaves_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(500));
        assert_eq!(tail_level(39), Some(500));
        assert_eq!(tail_level(40), Some(750));
        assert_eq!(tail_level(100), Some(900));
        assert_eq!(tail_level(199), Some(900));
        assert_eq!(tail_level(200), Some(950));
        assert_eq!(tail_level(1000), Some(990));
        assert_eq!(tail_level(10_000), Some(999));
        for n in 20..3000 {
            let level = tail_level(n).unwrap();
            assert!(n - rank(level, n) >= TAIL_BEYOND, "n={n} level={level}");
            if let Some(&higher) = TAIL_LADDER.iter().find(|&&l| l > level) {
                assert!(n - rank(higher, n) < TAIL_BEYOND, "n={n} could use {higher}");
            }
        }
    }

    #[test]
    fn tail_reads_the_nearest_rank_sample() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 100).unwrap();
        assert_eq!((t.per_mille, t.value, t.samples, t.beyond), (900, 90.0, 100, 10));
        // More samples than guaranteed keep the level, leaving more beyond.
        let values: Vec<f64> = (1..=150).rev().map(f64::from).collect();
        let t = tail(&values, 100).unwrap();
        assert_eq!((t.per_mille, t.value, t.beyond), (900, 135.0, 15));
        assert_eq!(t.describe(), "p90 of 150 samples (15 beyond)");
        assert!(tail(&values[..50], 100).is_none(), "short of the guaranteed count");
        assert!(tail(&values, 10).is_none(), "10 samples support no level");
    }

    #[test]
    fn vm_hwm_parses_kib_lines_only() {
        let status =
            "Name:\te2ebench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t1024 pages\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}

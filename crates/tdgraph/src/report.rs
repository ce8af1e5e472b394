//! Plain-text reporting helpers for experiment results.
//!
//! The experiments binary and the examples print the same row format the
//! paper's figures plot: per-engine cycles (normalized to a baseline),
//! time breakdown, update counts, and memory-system metrics.

use tdgraph_engines::metrics::RunMetrics;

/// One row of a comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Engine label.
    pub engine: String,
    /// Total cycles.
    pub cycles: u64,
    /// Execution time normalized to the table's baseline.
    pub normalized_time: f64,
    /// Propagation share of the time.
    pub propagation_share: f64,
    /// State updates normalized to the baseline.
    pub normalized_updates: f64,
    /// Useless-update ratio.
    pub useless_ratio: f64,
    /// Useful fraction of fetched state words.
    pub useful_state_ratio: f64,
    /// LLC miss rate.
    pub llc_miss_rate: f64,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
}

/// Builds comparison rows, normalizing time and updates to the first
/// metrics entry (the baseline).
///
/// # Panics
///
/// Panics if `all` is empty.
#[must_use]
pub fn build_rows(all: &[&RunMetrics]) -> Vec<Row> {
    let Some(base) = all.first() else {
        panic!("build_rows needs at least one run to normalize against");
    };
    all.iter()
        .map(|m| Row {
            engine: m.engine.clone(),
            cycles: m.cycles,
            normalized_time: m.cycles as f64 / base.cycles.max(1) as f64,
            propagation_share: if m.cycles == 0 {
                0.0
            } else {
                m.propagation_cycles as f64 / m.cycles as f64
            },
            normalized_updates: m.state_updates as f64 / base.state_updates.max(1) as f64,
            useless_ratio: m.useless_update_ratio(),
            useful_state_ratio: m.useful_state_ratio,
            llc_miss_rate: m.llc_miss_rate,
            dram_bytes: m.dram_bytes,
        })
        .collect()
}

/// Renders rows as an aligned text table.
#[must_use]
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<18} {:>12} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>12}\n",
        "engine",
        "cycles",
        "norm.time",
        "prop%",
        "norm.upd",
        "useless%",
        "useful%",
        "llcmiss%",
        "dram_bytes"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>12} {:>9.3} {:>6.1}% {:>9.3} {:>8.1}% {:>8.1}% {:>8.1}% {:>12}\n",
            r.engine,
            r.cycles,
            r.normalized_time,
            100.0 * r.propagation_share,
            r.normalized_updates,
            100.0 * r.useless_ratio,
            100.0 * r.useful_state_ratio,
            100.0 * r.llc_miss_rate,
            r.dram_bytes
        ));
    }
    out
}

/// Formats a speedup ("×") comparison of `m` against `baseline`.
#[must_use]
pub fn speedup_line(m: &RunMetrics, baseline: &RunMetrics) -> String {
    format!(
        "{} is {:.2}x vs {} ({} vs {} cycles)",
        m.engine,
        m.speedup_over(baseline),
        baseline.engine,
        m.cycles,
        baseline.cycles
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(engine: &str, cycles: u64, updates: u64) -> RunMetrics {
        RunMetrics {
            engine: engine.to_string(),
            cycles,
            propagation_cycles: cycles / 2,
            other_cycles: cycles - cycles / 2,
            state_updates: updates,
            useful_updates: updates / 2,
            ..RunMetrics::default()
        }
    }

    #[test]
    fn rows_normalize_to_first_entry() {
        let a = metrics("base", 1000, 100);
        let b = metrics("fast", 250, 25);
        let rows = build_rows(&[&a, &b]);
        assert_eq!(rows[0].normalized_time, 1.0);
        assert_eq!(rows[1].normalized_time, 0.25);
        assert_eq!(rows[1].normalized_updates, 0.25);
    }

    #[test]
    fn table_renders_every_row() {
        let a = metrics("base", 1000, 100);
        let b = metrics("fast", 250, 25);
        let rows = build_rows(&[&a, &b]);
        let table = render_table("demo", &rows);
        assert!(table.contains("demo"));
        assert!(table.contains("base"));
        assert!(table.contains("fast"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn speedup_line_reports_ratio() {
        let a = metrics("base", 1000, 100);
        let b = metrics("fast", 250, 25);
        assert!(speedup_line(&b, &a).contains("4.00x"));
    }
}

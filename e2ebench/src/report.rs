//! The metric vocabulary (mirrored by `BENCHMARK.json`), the
//! per-run outcome every workload fills in, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::stats::{median, tail};

/// End-to-end metrics, reported by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Workloads a per-layer metric is measured on.
const FILE: &[&str] = &["cell", "trickle"];
const SESSION: &[&str] = &["cell", "trickle", "serve"];
const ALL: &[&str] = &["cell", "trickle", "serve", "sweep"];
const SERVE: &[&str] = &["serve"];
const SWEEP: &[&str] = &["sweep"];

/// Per-layer metrics, reported by every traced run, with their units and
/// the workloads that run the layer. A traced run of one of those
/// workloads owes the metric; elsewhere it reads 0.
pub const PER_LAYER: [(&str, &str, &[&str]); 55] = [
    ("graph.io.load_s", "s", FILE),
    ("graph.workload_s", "s", FILE),
    ("engines.session.open_s", "s", SESSION),
    ("engines.session.rebuild_ms", "ms", SESSION),
    ("graph.store.apply_ms", "ms", SESSION),
    ("graph.store.snapshot_ms", "ms", SESSION),
    ("graph.csr.transpose_ms", "ms", SESSION),
    ("graph.partition_ms", "ms", SESSION),
    ("algos.out_mass_ms", "ms", SESSION),
    ("algos.seed_ms", "ms", SESSION),
    ("engines.propagate_ms", "ms", SESSION),
    ("engines.state_writes", "count", ALL),
    ("engines.edges_processed", "count", ALL),
    ("engines.useful_ratio", "ratio", ALL),
    ("engines.session.classify_ms", "ms", SESSION),
    ("engines.session.finish_s", "s", SESSION),
    ("sim.cycles", "count", ALL),
    ("sim.accesses", "count", ALL),
    ("sim.llc_misses", "count", ALL),
    ("sim.dram_bytes", "count", ALL),
    ("sim.noc_hop_cycles", "count", ALL),
    ("sim.host_ns_per_access", "ns", SESSION),
    ("serve.client.write_s", "s", SERVE),
    ("graph.wire.parse_us", "us", SERVE),
    ("serve.wal.append_us", "us", SERVE),
    ("serve.wal.close_ms", "ms", SERVE),
    ("serve.wal.fsyncs", "count", SERVE),
    ("serve.batches_flushed", "count", SERVE),
    ("serve.lines_accepted", "count", SERVE),
    ("serve.queue_peak_depth", "count", SERVE),
    ("serve.shed.lines", "count", SERVE),
    ("serve.replay_s", "s", SERVE),
    ("serve.overhead_share", "ratio", SERVE),
    ("obs.emission_s", "s", SERVE),
    ("sweep.cell_wall_p50_s", "s", SWEEP),
    ("sweep.cell_wall_max_s", "s", SWEEP),
    ("sweep.engine_s.ligra-o", "s", SWEEP),
    ("sweep.engine_s.ligra-do", "s", SWEEP),
    ("sweep.engine_s.graphbolt", "s", SWEEP),
    ("sweep.engine_s.kickstarter", "s", SWEEP),
    ("sweep.engine_s.dzig", "s", SWEEP),
    ("sweep.engine_s.tdgraph-h", "s", SWEEP),
    ("sweep.engine_s.tdgraph-h-without", "s", SWEEP),
    ("sweep.engine_s.tdgraph-s", "s", SWEEP),
    ("sweep.engine_s.tdgraph-s-without", "s", SWEEP),
    ("sweep.engine_s.hats", "s", SWEEP),
    ("sweep.engine_s.minnow", "s", SWEEP),
    ("sweep.engine_s.phi", "s", SWEEP),
    ("sweep.engine_s.depgraph", "s", SWEEP),
    ("sweep.engine_s.jetstream", "s", SWEEP),
    ("sweep.engine_s.jetstream-with", "s", SWEEP),
    ("sweep.engine_s.graphpulse", "s", SWEEP),
    ("sweep.checkpoint_append_ms", "ms", SWEEP),
    ("trace.coverage", "ratio", ALL),
    ("trace.overhead", "ratio", ALL),
];

/// What one round of a workload did. A round is one verified unit of the
/// workload: a reference cell, a trickle stream, a tenant session, a
/// sweep.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations attempted: batches, wire lines or cells.
    pub ops: u64,
    /// Checks this round failed; a failed round is never a timing.
    pub problems: Vec<String>,
    /// Inputs ready → ready to ingest.
    pub setup_s: f64,
    /// First operation → verified result.
    pub stream_s: f64,
    /// End of the last timed sample → verified result (the session's
    /// `finish`, the `finish` reply).
    pub finish_s: f64,
    /// The whole round.
    pub wall_s: f64,
    /// Updates applied.
    pub updates: u64,
    /// One sample per timed operation (or group of operations), in ms, in
    /// the same order every round.
    pub samples_ms: Vec<f64>,
    /// Deterministic counts that must repeat in every round of a seed.
    pub fingerprint: Vec<(&'static str, u64)>,
}

impl Round {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// The fingerprint count named `key` (0 when absent).
    pub fn count(&self, key: &str) -> u64 {
        self.fingerprint.iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| *v)
    }
}

/// Each operation's fastest time over `rounds`: element `i` is the least
/// `samples_ms[i]` of any round (rounds replay the same operations in the
/// same order). Operations some round lacks are left out.
///
/// On a shared host, other tenants and clock-frequency changes slow the
/// machine down in episodes from milliseconds to minutes long, and only
/// ever slow it down. A median over every timing moves with the share of a
/// run such episodes cover; an operation's fastest repetition moves only
/// when every repetition of it is slowed, or when the program changes.
pub fn floors(rounds: &[&Round]) -> Vec<f64> {
    let ops = rounds.iter().map(|r| r.samples_ms.len()).min().unwrap_or(0);
    (0..ops).map(|i| rounds.iter().map(|r| r.samples_ms[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted over every round, the warm-up included.
    pub attempted: u64,
    /// Operations of rounds that failed a check.
    pub failed: u64,
    /// Failed checks, for the log.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets metric `name` when `value` exists (an empty sample leaves the
    /// metric missing, which the result line reports as a failure).
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Counts `round` into attempted/failed and keeps its problems;
    /// returns whether it passed.
    pub fn absorb(&mut self, label: &str, round: &Round) -> bool {
        self.attempted += round.ops;
        if !round.ok() {
            self.failed += round.ops;
            self.problems.extend(round.problems.iter().map(|p| format!("{label}: {p}")));
        }
        round.ok()
    }

    /// Checks that every passing round left the same fingerprint;
    /// returns it.
    pub fn same_fingerprint<'a>(
        &mut self,
        rounds: impl IntoIterator<Item = &'a Round>,
    ) -> Option<Vec<(&'static str, u64)>> {
        let mut first: Option<&Vec<(&'static str, u64)>> = None;
        for r in rounds.into_iter().filter(|r| r.ok()) {
            match first {
                None => first = Some(&r.fingerprint),
                Some(f) if *f != r.fingerprint => {
                    self.problems.push(format!(
                        "deterministic counts differ between rounds: {f:?} vs {:?}",
                        r.fingerprint
                    ));
                    return None;
                }
                Some(_) => {}
            }
        }
        first.cloned()
    }

    /// Sets the end-to-end metrics from the passing `rounds`. Each sample
    /// in a round's `samples_ms` times `per_sample` operations (batches,
    /// flushes, cells).
    ///
    /// `setup_s` is the median of every set-up: each round's and the
    /// `extra_setups` of set-up-only repetitions. `batch_p50_ms` and
    /// `batch_tail_ms` read the samples' [`floors`] per operation, the tail
    /// at the highest level the sample count supports. When the samples
    /// run one after another (`sequential`), `updates_per_s` divides a
    /// round's updates by the sum of the floors plus the fastest
    /// `finish_s`: the round with every step at its fastest repetition.
    /// Otherwise (sweep cells overlap on the runner's threads) it is the
    /// fastest round's rate.
    pub fn end_to_end(
        &mut self,
        rounds: &[Round],
        extra_setups: &[f64],
        op_label: &str,
        per_sample: usize,
        sequential: bool,
    ) {
        let ok: Vec<&Round> = rounds.iter().filter(|r| r.ok()).collect();
        let setups: Vec<f64> =
            ok.iter().map(|r| r.setup_s).chain(extra_setups.iter().copied()).collect();
        self.set_opt("setup_s", median(&setups));
        let per_round: Vec<String> =
            ok.iter().map(|r| format!("{:.4}/{:.3}", r.setup_s, r.stream_s)).collect();
        self.note(format!("set-up s / stream s per round: {}", per_round.join(" ")));
        let floors = floors(&ok);
        let updates = ok.first().map_or(0, |r| r.updates) as f64;
        let rate = if sequential {
            let finish = ok.iter().map(|r| r.finish_s).reduce(f64::min);
            finish.map(|f| updates / (floors.iter().sum::<f64>() / 1e3 + f))
        } else {
            ok.iter().map(|r| updates / r.stream_s).reduce(f64::max)
        };
        self.set_opt("updates_per_s", rate);
        let per_op: Vec<f64> = floors.iter().map(|f| f / per_sample as f64).collect();
        self.set_opt("batch_p50_ms", median(&per_op));
        let mut sorted = per_op.clone();
        sorted.sort_by(f64::total_cmp);
        if !sorted.is_empty() {
            let deciles: Vec<String> =
                (0..=10).map(|d| format!("{:.3}", sorted[(d * (sorted.len() - 1)) / 10])).collect();
            self.note(format!(
                "fastest {op_label}, ms each, min/deciles/max: {}",
                deciles.join(" ")
            ));
        }
        match tail(&per_op, per_op.len()) {
            Some(t) => {
                self.set("batch_tail_ms", t.value);
                self.note(format!("batch_tail_ms is the {} of fastest {op_label}", t.describe()));
            }
            None => self.problems.push(format!(
                "{} fastest {op_label} support no tail level with 10 beyond",
                per_op.len()
            )),
        }
        self.note(format!(
            "{} measured rounds of {} {op_label}; {} set-ups",
            ok.len(),
            floors.len(),
            setups.len()
        ));
    }

    /// Adds a log line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records `peak_rss_mb` once the warm-up round is done: every run
    /// reads it after the same work (input generation plus one round), so
    /// allocator arenas that later rounds happen to add do not make it
    /// depend on how many rounds fit in `--seconds`.
    pub fn after_warm_up(&mut self) {
        self.set_opt("peak_rss_mb", crate::stats::peak_rss_mb());
    }

    /// Whether the run passed every check and produced every metric it
    /// owes.
    pub fn correct(&self, trace: bool, workload: &str) -> bool {
        self.problems.is_empty() && self.missing(trace, workload).is_empty() && self.failed == 0
    }

    /// Metrics the run owes but did not produce (or produced as a value
    /// JSON cannot carry): untraced, every end-to-end metric (never 0);
    /// traced, the per-layer metrics of the layers `workload` runs.
    pub fn missing(&self, trace: bool, workload: &str) -> Vec<&'static str> {
        let owed: Vec<&'static str> = if trace {
            PER_LAYER.iter().filter(|(_, _, on)| on.contains(&workload)).map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        owed.into_iter()
            .filter(|name| match self.metrics.get(name) {
                Some(v) => !v.is_finite() || (!trace && *v <= 0.0),
                None => true,
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the mode, by name with its unit (a
    /// per-layer metric of a layer `workload` does not run reads 0).
    pub fn result_line(&self, trace: bool, workload: &str) -> String {
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|(name, unit, _)| (*name, *unit)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            let rendered =
                if *unit == "count" { format!("{}", value as u64) } else { format!("{value}") };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {rendered}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(trace, workload),
            self.attempted.max(1),
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str) -> Vec<String> {
        json.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let names = names_in(json);
        let per_layer = PER_LAYER.iter().map(|(name, unit, _)| (*name, *unit));
        for (name, unit) in END_TO_END.iter().copied().chain(per_layer) {
            let at =
                json.find(&format!("\"name\": \"{name}\"")).unwrap_or_else(|| panic!("{name}"));
            let rest = &json[at..];
            let entry = &rest[..rest.find('}').unwrap()];
            assert!(entry.contains(&format!("\"unit\": \"{unit}\"")), "{name} unit");
        }
        let workloads = ["cell", "trickle", "serve", "sweep"];
        assert_eq!(names.len(), workloads.len() + END_TO_END.len() + PER_LAYER.len());
        for w in workloads {
            assert!(names.iter().any(|n| n == w), "workload {w}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");
    }

    #[test]
    fn result_line_carries_every_metric_of_the_mode() {
        let mut out = Outcome { attempted: 4, ..Outcome::default() };
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.result_line(false, "cell");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // Per-layer metrics of layers the workload does not run read 0;
        // counts are integers.
        out.set("sim.cycles", 12.0);
        let traced = out.result_line(true, "cell");
        assert!(traced.contains("\"sim.cycles\": {\"value\": 12, \"unit\": \"count\"}"));
        assert!(traced.contains("\"serve.replay_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn missing_or_zero_end_to_end_metrics_are_incorrect() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 2.0);
        }
        assert!(out.correct(false, "serve"));
        out.set("batch_tail_ms", 0.0);
        assert_eq!(out.missing(false, "serve"), vec!["batch_tail_ms"]);
        assert!(!out.correct(false, "serve"));
        out.set("batch_tail_ms", f64::NAN);
        assert!(out.result_line(false, "serve").contains("\"batch_tail_ms\": {\"value\": 0,"));
    }

    #[test]
    fn a_traced_run_owes_the_layers_its_workload_runs() {
        let traced_on = |workload: &str| {
            let mut out = Outcome::default();
            for (name, _, on) in PER_LAYER {
                if on.contains(&workload) {
                    out.set(name, 0.0);
                }
            }
            out
        };
        for workload in ["cell", "trickle", "serve", "sweep"] {
            let mut out = traced_on(workload);
            assert!(out.correct(true, workload), "{workload}: a measured 0 is a value");
            // A layer measurement that breaks leaves its metric absent:
            // the run is incorrect, not a 100 % improvement.
            let (owed, _, _) = PER_LAYER.iter().find(|(_, _, on)| on.contains(&workload)).unwrap();
            out.metrics.remove(owed);
            assert_eq!(out.missing(true, workload), vec![*owed], "{workload}");
            assert!(out.result_line(true, workload).starts_with("{\"correct\": false"));
        }
        let sweep = traced_on("sweep");
        assert!(!sweep.metrics.contains_key("engines.session.rebuild_ms"));
        assert!(sweep.correct(true, "sweep"), "sweep runs no session rebuild");
        assert!(!sweep.correct(true, "cell"));
        assert!(traced_on("serve").missing(true, "cell").contains(&"graph.io.load_s"));
    }

    #[test]
    fn timings_read_each_operations_fastest_repetition() {
        let round = |samples_ms: Vec<f64>, stream_s: f64, finish_s: f64| Round {
            updates: 100,
            stream_s,
            finish_s,
            wall_s: 2.0 * stream_s,
            samples_ms,
            ..Round::default()
        };
        let slow: Vec<f64> = (1..=20).map(|i| f64::from(i) * 3.0).collect();
        let fast_early: Vec<f64> =
            (1..=20).map(|i| f64::from(i) + if i > 10 { 100.0 } else { 0.0 }).collect();
        let fast_late: Vec<f64> =
            (1..=20).map(|i| f64::from(i) + if i <= 10 { 100.0 } else { 0.0 }).collect();
        let rounds =
            vec![round(slow, 4.0, 0.04), round(fast_early, 2.0, 0.09), round(fast_late, 1.0, 0.5)];
        let ok: Vec<&Round> = rounds.iter().collect();
        let expected: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(floors(&ok), expected, "no round is fast throughout, yet every floor is");
        assert_eq!(floors(&ok[..1]).len(), 20);
        assert!(floors(&[]).is_empty());

        let mut out = Outcome::default();
        out.end_to_end(&rounds, &[], "batches", 1, true);
        assert_eq!(out.metrics["batch_p50_ms"], 10.5);
        assert_eq!(out.metrics["batch_tail_ms"], 10.0, "p50 of 20 floors, 10 beyond");
        let floor_round_s = 0.210 + 0.04;
        assert!((out.metrics["updates_per_s"] - 100.0 / floor_round_s).abs() < 1e-9);

        // Overlapping samples: the fastest round's rate; two operations per
        // sample halve the per-operation figures.
        let mut out = Outcome::default();
        out.end_to_end(&rounds, &[], "cell walls", 2, false);
        assert_eq!(out.metrics["updates_per_s"], 100.0);
        assert_eq!(out.metrics["batch_p50_ms"], 5.25);
        assert_eq!(out.metrics["batch_tail_ms"], 5.0);
    }

    #[test]
    fn too_few_samples_for_a_tail_level_fail_the_check() {
        let rounds: Vec<Round> = [1, 2, 3]
            .map(|r| Round {
                stream_s: f64::from(r),
                samples_ms: (1..=19).map(|i| f64::from(r * 100 + i)).collect(),
                ..Round::default()
            })
            .into();
        let mut out = Outcome::default();
        out.end_to_end(&rounds, &[], "batches", 1, true);
        assert_eq!(out.metrics["batch_p50_ms"], 110.0, "median of the floors 101..=119");
        assert!(!out.metrics.contains_key("batch_tail_ms"), "19 samples support no level");
        assert!(out.missing(false, "cell").contains(&"batch_tail_ms"));
        assert!(!out.problems.is_empty());
    }

    #[test]
    fn failed_rounds_count_their_operations_and_are_not_timed() {
        let good = Round {
            ops: 3,
            setup_s: 1.0,
            stream_s: 2.0,
            finish_s: 0.9,
            wall_s: 3.0,
            updates: 30,
            samples_ms: vec![5.0; 20],
            ..Round::default()
        };
        let bad = Round {
            ops: 3,
            problems: vec!["verdict mismatch".into()],
            setup_s: 9.0,
            stream_s: 9.0,
            finish_s: 0.1,
            wall_s: 9.0,
            updates: 30,
            samples_ms: vec![1.0; 20],
            ..Round::default()
        };
        let mut out = Outcome::default();
        assert!(out.absorb("round 1", &good));
        assert!(!out.absorb("round 2", &bad));
        assert_eq!((out.attempted, out.failed), (6, 3));
        out.end_to_end(&[good, bad], &[3.0, 0.5], "batches", 1, true);
        assert_eq!(out.metrics["setup_s"], 1.0, "median of 1.0, 3.0, 0.5");
        assert_eq!(out.metrics["updates_per_s"], 30.0, "20 x 5 ms + 0.9 s");
        assert_eq!(out.metrics["batch_tail_ms"], 5.0);
        assert!(!out.correct(false, "cell"));
    }
}

//! The benchmark's own tracer.
//!
//! Spans are taken from outside the program: the benchmark opens one
//! around each public call it makes, and [`Tracer`] doubles as the
//! `tdgraph_obs::Recorder` handed to the session, so the session's
//! existing phase callbacks (`keys::PHASE_OTHER`, `keys::PHASE_PROPAGATION`)
//! open child spans inside the benchmark's `ingest_batch` span. Spans stay
//! in memory and are written out when the run ends. The recorder's
//! `counter` keeps only the `updates.*` namespace.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use tdgraph::prelude::{keys, NullRecorder, Recorder, TraceEvent};

/// Span name of the session's seeding phase (`keys::PHASE_OTHER`).
pub const SEED: &str = "algos.seed";
/// Span name of the session's propagation phase (`keys::PHASE_PROPAGATION`).
pub const PROPAGATE: &str = "engines.propagate";
/// Span name the benchmark opens around each `ingest_batch` call.
pub const INGEST: &str = "engines.session.ingest_batch";

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The update batch the span belongs to, if any.
    pub batch: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a workload round reports its layer boundaries: a [`Tracer`]
/// when tracing, [`NullRecorder`] (every call a no-op, and the session
/// sees a disabled recorder) when measuring end to end.
pub trait Probe {
    /// Opens a span named `name` inside the innermost open one.
    fn enter(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn exit(&mut self);
    /// Tags the spans opened from now on with `batch`.
    fn set_batch(&mut self, batch: Option<u64>);
    /// The recorder handed to the program's own calls.
    fn recorder(&mut self) -> &mut dyn Recorder;

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }
}

impl Probe for NullRecorder {
    fn enter(&mut self, _name: &'static str) {}
    fn exit(&mut self) {}
    fn set_batch(&mut self, _batch: Option<u64>) {}
    fn recorder(&mut self) -> &mut dyn Recorder {
        self
    }
}

/// In-memory span tree plus the `updates.*` counters.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: Option<u64>,
    updates: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: None,
            updates: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the `updates.*` counter `key`.
    pub fn updates(&self, key: &str) -> u64 {
        self.updates.get(key).copied().unwrap_or(0)
    }

    /// Appends the spans as JSON lines tagged with `round`.
    pub fn write_jsonl(&self, out: &mut impl Write, round: usize) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let batch = s.batch.map_or("null".to_string(), |b| b.to_string());
            writeln!(
                out,
                "{{\"round\":{round},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{batch}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

impl Probe for Tracer {
    fn enter(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let now = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = now;
        }
    }

    fn set_batch(&mut self, batch: Option<u64>) {
        self.batch = batch;
    }

    fn recorder(&mut self) -> &mut dyn Recorder {
        self
    }
}

impl Recorder for Tracer {
    fn counter(&mut self, key: &'static str, delta: u64) {
        if key.starts_with("updates.") {
            *self.updates.entry(key).or_insert(0) += delta;
        }
    }

    fn gauge(&mut self, _key: &'static str, _value: f64) {}

    fn label(&mut self, _key: &'static str, _value: &str) {}

    fn span_enter(&mut self, phase: &'static str) {
        let name = if phase == keys::PHASE_OTHER {
            SEED
        } else if phase == keys::PHASE_PROPAGATION {
            PROPAGATE
        } else {
            phase
        };
        self.enter(name);
    }

    fn span_exit(&mut self, _phase: &'static str, _cycles: u64) {
        self.exit();
    }

    fn histogram(&mut self, _key: &'static str, _value: u64) {}

    fn event(&mut self, _event: &TraceEvent) {}
}

/// Count, total duration and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the time their children cover.
    pub self_ns: u64,
}

/// Per-name totals. A span's self time is its duration minus its
/// children's durations (children of one span never overlap: the code
/// under test is sequential on the thread that records).
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(children);
    }
    out
}

/// Share of `wall_ns` covered by top-level spans.
pub fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let covered: u64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum();
    covered as f64 / wall_ns.max(1) as f64
}

/// How one `ingest_batch` call split between the session's stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchSplit {
    /// Call entry → seeding span enter: batch validation, store apply,
    /// snapshot, transpose, partition, `out_mass`, state copy.
    pub rebuild_ns: u64,
    /// The seeding span (`keys::PHASE_OTHER`).
    pub seed_ns: u64,
    /// The propagation span (`keys::PHASE_PROPAGATION`).
    pub propagate_ns: u64,
    /// Propagation exit → call return: useful-work classification.
    pub classify_ns: u64,
}

/// The stage split of every [`INGEST`] span that holds one seeding and
/// one propagation child (an empty batch holds neither and is skipped).
pub fn batch_splits(spans: &[Span]) -> Vec<BatchSplit> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == INGEST)
        .filter_map(|(idx, call)| {
            let child = |name| spans.iter().find(|s| s.parent == Some(idx) && s.name == name);
            let (seed, prop) = (child(SEED)?, child(PROPAGATE)?);
            Some(BatchSplit {
                rebuild_ns: seed.start_ns - call.start_ns,
                seed_ns: seed.duration_ns(),
                propagate_ns: prop.duration_ns(),
                classify_ns: call.end_ns - prop.end_ns,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, batch: None }
    }

    /// round [0,100): load [0,10), ingest [12,92) with seed [30,40) and
    /// propagate [40,80), finish [92,98).
    fn tree() -> Vec<Span> {
        vec![
            span("graph.io.load", 0, 10, None),
            span(INGEST, 12, 92, None),
            span(SEED, 30, 40, Some(1)),
            span(PROPAGATE, 40, 80, Some(1)),
            span("engines.session.finish", 92, 98, None),
        ]
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let totals = layer_totals(&tree());
        assert_eq!(totals[INGEST], LayerTotals { count: 1, total_ns: 80, self_ns: 30 });
        assert_eq!(totals[SEED].self_ns, 10);
        assert_eq!(totals[PROPAGATE].self_ns, 40);
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 10 + 80 + 6, "self times partition the top-level spans");
    }

    #[test]
    fn coverage_counts_top_level_spans_only() {
        assert!((coverage(&tree(), 100) - 0.96).abs() < 1e-12);
        assert_eq!(coverage(&[], 0), 0.0);
    }

    #[test]
    fn batch_split_reads_the_gaps_around_the_phases() {
        let splits = batch_splits(&tree());
        assert_eq!(
            splits,
            vec![BatchSplit { rebuild_ns: 18, seed_ns: 10, propagate_ns: 40, classify_ns: 12 }]
        );
        let empty_batch = vec![span(INGEST, 0, 5, None)];
        assert!(batch_splits(&empty_batch).is_empty());
    }

    #[test]
    fn recorder_nests_phase_spans_and_keeps_only_update_counters() {
        let mut t = Tracer::new();
        t.set_batch(Some(3));
        t.enter(INGEST);
        t.span_enter(keys::PHASE_OTHER);
        t.span_exit(keys::PHASE_OTHER, 7);
        t.span_enter(keys::PHASE_PROPAGATION);
        t.counter(keys::STATE_WRITES, 2);
        t.counter(keys::STATE_WRITES, 3);
        t.counter("sim.accesses", 9);
        t.span_exit(keys::PHASE_PROPAGATION, 7);
        t.exit();
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.batch)).collect();
        assert_eq!(
            names,
            vec![(INGEST, None, Some(3)), (SEED, Some(0), Some(3)), (PROPAGATE, Some(0), Some(3))]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.updates(keys::STATE_WRITES), 5);
        assert_eq!(t.updates("sim.accesses"), 0);
        let mut out = Vec::new();
        t.write_jsonl(&mut out, 2).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0,\"batch\":3"));
    }
}

//! Deterministic in-memory aggregation: [`MemoryRecorder`] and the
//! [`Snapshot`] it produces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::json_escape;
use crate::recorder::Recorder;
use crate::TraceEvent;

/// Aggregated totals of one phase across all of its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Number of closed spans.
    pub count: u64,
    /// Simulated cycles attributed at span exit.
    pub cycles: u64,
}

/// Summary histogram: count, sum, and extrema of the recorded values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean of the recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one.
    pub fn merge_from(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// The in-memory result of a recording session.
///
/// Everything lives in ordered maps keyed by `&'static str`, so iteration
/// order — and therefore every rendering — depends only on the recorded
/// keys, never on emission order or thread interleaving. `RunMetrics` and
/// `MachineStats` are reconstructed *from* snapshots (see their
/// `from_snapshot` constructors); this struct is the layer the figures
/// ultimately read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    labels: BTreeMap<&'static str, String>,
    phases: BTreeMap<&'static str, PhaseTotals>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Snapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `key` (0 when never incremented).
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The gauge named `key`.
    #[must_use]
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// The label named `key`.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.get(key).map(String::as_str)
    }

    /// The phase totals for `phase`.
    #[must_use]
    pub fn phase(&self, phase: &str) -> Option<&PhaseTotals> {
        self.phases.get(phase)
    }

    /// The histogram named `key`.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All phases in key order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, &PhaseTotals)> + '_ {
        self.phases.iter().map(|(&k, v)| (k, v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.labels.is_empty()
            && self.phases.is_empty()
            && self.histograms.is_empty()
    }

    /// Adds `delta` to a counter.
    pub fn add_counter(&mut self, key: &'static str, delta: u64) {
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, key: &'static str, value: f64) {
        self.gauges.insert(key, value);
    }

    /// Sets a label.
    pub fn set_label(&mut self, key: &'static str, value: impl Into<String>) {
        self.labels.insert(key, value.into());
    }

    /// Adds a closed span to a phase.
    pub fn add_span(&mut self, phase: &'static str, cycles: u64) {
        let totals = self.phases.entry(phase).or_default();
        totals.count += 1;
        totals.cycles += cycles;
    }

    /// Records a histogram value.
    pub fn add_histogram(&mut self, key: &'static str, value: u64) {
        self.histograms.entry(key).or_default().record(value);
    }

    /// Merges `other` into this snapshot: counters, spans, and histograms
    /// accumulate; gauges sum (they are per-shard quantities like energy);
    /// labels take `other`'s value on conflict.
    pub fn merge_from(&mut self, other: &Snapshot) {
        for (&key, &v) in &other.counters {
            *self.counters.entry(key).or_insert(0) += v;
        }
        for (&key, &v) in &other.gauges {
            *self.gauges.entry(key).or_insert(0.0) += v;
        }
        for (&key, v) in &other.labels {
            self.labels.insert(key, v.clone());
        }
        for (&key, v) in &other.phases {
            let totals = self.phases.entry(key).or_default();
            totals.count += v.count;
            totals.cycles += v.cycles;
        }
        for (&key, v) in &other.histograms {
            self.histograms.entry(key).or_default().merge_from(v);
        }
    }

    /// Renders the snapshot as one canonical JSON line, keys sorted, so
    /// two equal snapshots render byte-identically regardless of how they
    /// were produced.
    #[must_use]
    pub fn canonical_json_line(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (key, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(key));
        }
        out.push_str("},\"gauges\":{");
        for (i, (key, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(key));
        }
        out.push_str("},\"labels\":{");
        for (i, (key, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(key), json_escape(v));
        }
        out.push_str("},\"phases\":{");
        for (i, (key, v)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"cycles\":{}}}",
                json_escape(key),
                v.count,
                v.cycles
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (key, v)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                json_escape(key),
                v.count,
                v.sum,
                v.min,
                v.max
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line produced by [`Snapshot::canonical_json_line`] back
    /// into a snapshot — the inverse used when a snapshot crosses a
    /// process boundary (fleet workers ship their cell snapshots to the
    /// coordinator as canonical lines).
    ///
    /// Round-trip contract: for any snapshot `s`,
    /// `Snapshot::parse_canonical(&s.canonical_json_line())` equals `s`, so
    /// re-rendering the parsed snapshot reproduces the input line byte for
    /// byte (integer values exactly, gauges via `f64`'s round-tripping
    /// `Display`).
    ///
    /// Keys become `&'static str` through a process-wide interner; the
    /// interned set only grows with *distinct* keys, which are drawn from
    /// the finite [`crate::keys`] vocabulary in practice.
    ///
    /// # Errors
    ///
    /// A human-readable reason when `line` is not a canonical snapshot
    /// rendering.
    pub fn parse_canonical(line: &str) -> Result<Self, String> {
        let mut cur = Cursor { s: line.trim(), pos: 0 };
        let mut snap = Snapshot::new();
        cur.eat("{\"counters\":{")?;
        cur.entries(|cur, key| {
            let v = cur.number_token()?;
            let v = v.parse::<u64>().map_err(|e| format!("counter {key:?}: {e}"))?;
            snap.counters.insert(intern(&key), v);
            Ok(())
        })?;
        cur.eat(",\"gauges\":{")?;
        cur.entries(|cur, key| {
            let v = cur.number_token()?;
            let v = v.parse::<f64>().map_err(|e| format!("gauge {key:?}: {e}"))?;
            snap.gauges.insert(intern(&key), v);
            Ok(())
        })?;
        cur.eat(",\"labels\":{")?;
        cur.entries(|cur, key| {
            let v = cur.string()?;
            snap.labels.insert(intern(&key), v);
            Ok(())
        })?;
        cur.eat(",\"phases\":{")?;
        cur.entries(|cur, key| {
            cur.eat("{\"count\":")?;
            let count = cur.u64_field()?;
            cur.eat(",\"cycles\":")?;
            let cycles = cur.u64_field()?;
            cur.eat("}")?;
            snap.phases.insert(intern(&key), PhaseTotals { count, cycles });
            Ok(())
        })?;
        cur.eat(",\"histograms\":{")?;
        cur.entries(|cur, key| {
            cur.eat("{\"count\":")?;
            let count = cur.u64_field()?;
            cur.eat(",\"sum\":")?;
            let sum = cur.u64_field()?;
            cur.eat(",\"min\":")?;
            let min = cur.u64_field()?;
            cur.eat(",\"max\":")?;
            let max = cur.u64_field()?;
            cur.eat("}")?;
            snap.histograms.insert(intern(&key), Histogram { count, sum, min, max });
            Ok(())
        })?;
        cur.eat("}")?;
        if cur.pos != cur.s.len() {
            return Err(format!("trailing bytes after snapshot at offset {}", cur.pos));
        }
        Ok(snap)
    }
}

/// Interns a parsed key so it can live in the `&'static str`-keyed maps.
/// Each distinct key leaks exactly once, process-wide.
fn intern(key: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&existing) = set.get(key) {
        return existing;
    }
    let leaked: &'static str = Box::leak(key.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// A tiny cursor over one canonical snapshot line. The grammar is the
/// exact output of [`Snapshot::canonical_json_line`] — no whitespace, no
/// reordering — so the parser can demand literals instead of tolerating
/// general JSON.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at offset {}", self.pos))
        }
    }

    fn peek(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    /// Parses the `"key":value` entries of one section, up to and
    /// including the closing `}`.
    fn entries(
        &mut self,
        mut entry: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(":")?;
            entry(self, key)?;
            match self.peek() {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    /// Parses a quoted string, undoing [`json_escape`]'s escapes.
    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        let mut chars = self.s[self.pos..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, other)) => return Err(format!("bad escape '\\{other}'")),
                    None => return Err("dangling escape".to_string()),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    /// The raw token up to the next `,` or `}` (numbers never contain
    /// either).
    fn number_token(&mut self) -> Result<&str, String> {
        let rest = &self.s[self.pos..];
        let end = rest
            .find([',', '}'])
            .ok_or_else(|| format!("unterminated value at offset {}", self.pos))?;
        if end == 0 {
            return Err(format!("empty value at offset {}", self.pos));
        }
        self.pos += end;
        Ok(&rest[..end])
    }

    fn u64_field(&mut self) -> Result<u64, String> {
        let pos = self.pos;
        let token = self.number_token()?;
        token.parse::<u64>().map_err(|e| format!("bad integer at offset {pos}: {e}"))
    }
}

/// A [`Recorder`] that aggregates everything into a [`Snapshot`].
///
/// Spans nest: `span_enter`/`span_exit` pairs may be stacked, and exits
/// close the innermost open span of the named phase. The recorder reads no
/// clock, so the same calls give the same snapshot on any schedule.
/// Structured events are dropped: they go to a [`crate::TraceSink`].
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    snapshot: Snapshot,
    open_spans: Vec<&'static str>,
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The snapshot so far.
    #[must_use]
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Consumes the recorder, closing any still-open spans with zero
    /// cycles, and returns the snapshot.
    #[must_use]
    pub fn into_snapshot(mut self) -> Snapshot {
        while let Some(phase) = self.open_spans.pop() {
            self.snapshot.add_span(phase, 0);
        }
        self.snapshot
    }
}

impl Recorder for MemoryRecorder {
    fn counter(&mut self, key: &'static str, delta: u64) {
        self.snapshot.add_counter(key, delta);
    }

    fn gauge(&mut self, key: &'static str, value: f64) {
        self.snapshot.set_gauge(key, value);
    }

    fn label(&mut self, key: &'static str, value: &str) {
        self.snapshot.set_label(key, value);
    }

    fn span_enter(&mut self, phase: &'static str) {
        self.open_spans.push(phase);
    }

    fn span_exit(&mut self, phase: &'static str, cycles: u64) {
        // Close the innermost open span of this phase; an unmatched exit
        // still counts the cycles rather than being lost.
        if let Some(i) = self.open_spans.iter().rposition(|p| *p == phase) {
            self.open_spans.remove(i);
        }
        self.snapshot.add_span(phase, cycles);
    }

    fn histogram(&mut self, key: &'static str, value: u64) {
        self.snapshot.add_histogram(key, value);
    }

    fn event(&mut self, _event: &TraceEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MemoryRecorder::new();
        r.counter("a", 1);
        r.counter("a", 2);
        r.counter("b", 10);
        assert_eq!(r.snapshot().counter("a"), 3);
        assert_eq!(r.snapshot().counter("b"), 10);
        assert_eq!(r.snapshot().counter("missing"), 0);
    }

    #[test]
    fn spans_attribute_cycles_and_wall() {
        let mut r = MemoryRecorder::new();
        r.span_enter("propagation");
        r.span_exit("propagation", 100);
        r.span_enter("propagation");
        r.span_exit("propagation", 50);
        let snap = r.into_snapshot();
        let p = snap.phase("propagation").unwrap();
        assert_eq!(p.count, 2);
        assert_eq!(p.cycles, 150);
    }

    #[test]
    fn unmatched_span_exit_still_counts_cycles() {
        let mut r = MemoryRecorder::new();
        r.span_exit("other", 42);
        assert_eq!(r.snapshot().phase("other").unwrap().cycles, 42);
    }

    #[test]
    fn histograms_track_extrema() {
        let mut r = MemoryRecorder::new();
        for v in [5u64, 1, 9, 3] {
            r.histogram("h", v);
        }
        let h = *r.snapshot().histogram("h").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (4, 18, 1, 9));
        assert!((h.mean() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = Snapshot::new();
        a.add_counter("x", 1);
        a.add_histogram("h", 7);
        a.add_span("p", 10);
        let mut b = Snapshot::new();
        b.add_counter("x", 2);
        b.add_counter("y", 4);
        b.add_histogram("h", 3);
        b.add_span("p", 20);

        let mut ab = Snapshot::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = Snapshot::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.canonical_json_line(), ba.canonical_json_line());
        assert_eq!(ab.counter("x"), 3);
        assert_eq!(ab.phase("p").unwrap().cycles, 30);
    }

    #[test]
    fn canonical_line_is_sorted_and_wall_free() {
        let mut s = Snapshot::new();
        s.add_counter("z", 1);
        s.add_counter("a", 2);
        s.add_span("p", 3);
        let line = s.canonical_json_line();
        assert!(line.find("\"a\":2").unwrap() < line.find("\"z\":1").unwrap());
        assert!(line.contains("\"phases\":{\"p\":{\"count\":1,\"cycles\":3}}"), "{line}");
    }

    #[test]
    fn parse_canonical_round_trips_byte_identically() {
        let mut s = Snapshot::new();
        s.add_counter("run.cycles", 12345);
        s.add_counter("updates.useful", 0);
        s.set_gauge("energy.core_nj", 1234.5678);
        s.set_gauge("energy.noc_nj", 0.125);
        s.set_label("run.engine", "tdgraph-h");
        s.set_label("weird", "quote\" slash\\ nl\n tab\t");
        s.add_span("propagation", 999);
        s.add_span("other", 0);
        s.add_histogram("updates.writes_per_vertex", 3);
        s.add_histogram("updates.writes_per_vertex", 9);

        let line = s.canonical_json_line();
        let parsed = Snapshot::parse_canonical(&line).unwrap();
        assert_eq!(parsed.canonical_json_line(), line);
        assert_eq!(parsed.counter("run.cycles"), 12345);
        assert_eq!(parsed.gauge("energy.core_nj"), Some(1234.5678));
        assert_eq!(parsed.label("weird"), Some("quote\" slash\\ nl\n tab\t"));
        assert_eq!(parsed.phase("propagation").unwrap().cycles, 999);
        let h = parsed.histogram("updates.writes_per_vertex").unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 3, 9));
    }

    #[test]
    fn parse_canonical_handles_the_empty_snapshot() {
        let line = Snapshot::new().canonical_json_line();
        let parsed = Snapshot::parse_canonical(&line).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(parsed.canonical_json_line(), line);
    }

    #[test]
    fn parse_canonical_rejects_malformed_lines() {
        assert!(Snapshot::parse_canonical("not json").is_err());
        assert!(Snapshot::parse_canonical("{\"counters\":{}}").is_err());
        let good = {
            let mut s = Snapshot::new();
            s.add_counter("a", 1);
            s.canonical_json_line()
        };
        // A truncated line (torn write) must be rejected, not half-parsed.
        for cut in 1..good.len() {
            assert!(
                Snapshot::parse_canonical(&good[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        assert!(Snapshot::parse_canonical(&format!("{good}x")).is_err(), "trailing bytes");
    }

    #[test]
    fn snapshots_do_not_depend_on_span_duration() {
        let record = |r: &mut MemoryRecorder, pause: Option<std::time::Duration>| {
            r.counter("a", 1);
            r.span_enter("p");
            if let Some(pause) = pause {
                std::thread::sleep(pause);
            }
            r.span_exit("p", 7);
            r.span_enter("open");
        };
        let mut fast = MemoryRecorder::new();
        record(&mut fast, None);
        let mut slow = MemoryRecorder::new();
        record(&mut slow, Some(std::time::Duration::from_millis(2)));
        assert_eq!(fast.snapshot(), slow.snapshot());
        assert_eq!(fast.into_snapshot(), slow.into_snapshot());
    }

    #[test]
    fn recorded_snapshot_round_trips_through_its_canonical_line() {
        let mut r = MemoryRecorder::new();
        r.counter("run.cycles", 12);
        r.gauge("energy.core_nj", 0.5);
        r.label("run.engine", "tdgraph-h");
        r.histogram("h", 3);
        r.span_enter("closed");
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.span_exit("closed", 40);
        r.span_enter("unclosed");
        let s = r.into_snapshot();
        assert_eq!(Snapshot::parse_canonical(&s.canonical_json_line()).unwrap(), s);
        assert_eq!(*s.phase("closed").unwrap(), PhaseTotals { count: 1, cycles: 40 });
        assert_eq!(*s.phase("unclosed").unwrap(), PhaseTotals { count: 1, cycles: 0 });
    }
}

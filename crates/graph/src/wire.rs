//! Wire framing for streaming edge updates, and the record/replay
//! schedule format built on top of it.
//!
//! The streaming service speaks JSON lines over a byte stream. This module
//! owns the data-plane half of that surface: one [`EdgeUpdate`] per line,
//! parsed leniently enough to survive hostile traffic (a malformed line is
//! a value, not a panic) but strictly enough that every accepted line
//! round-trips byte-identically through [`format_update_line`] /
//! [`parse_update_line`].
//!
//! A [`RecordedSchedule`] is the replayable transcript of an ingest
//! session: the exact sequence of formed batches, each batch the exact
//! sequence of accepted updates and quarantined malformed lines, in
//! arrival order. Replaying a recorded schedule offline through the same
//! lenient-ingest path reproduces the live run byte for byte — reports,
//! quarantine evidence, and observability snapshots included.
//!
//! Weights are rendered with Rust's shortest-round-trip float formatting,
//! so `parse(format(w)) == w` exactly for every finite weight. Non-finite
//! weights (`NaN`, `inf`) — which fault injection deliberately produces —
//! are rendered and re-parsed too; such lines are not strictly JSON, but
//! the framing accepts them so that corruption reaches the batch-level
//! quarantine (`NonFiniteWeight`) instead of dying at the transport.

use std::fmt;

use crate::quarantine::truncate_detail;
use crate::types::{VertexId, Weight};
use crate::update::{EdgeUpdate, UpdateKind};

/// Why a wire line failed to parse as an edge update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable reason, bounded in length.
    pub detail: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire line: {}", self.detail)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    fn new(detail: impl Into<String>) -> Self {
        Self { detail: truncate_detail(&detail.into()) }
    }
}

/// Replaces control characters (except tab) with spaces so a detail string
/// survives a JSON-line round trip unchanged. [`json_escape_wire`] and
/// [`json_unescape_wire`] are exact inverses on sanitized strings.
#[must_use]
pub fn sanitize_detail(s: &str) -> String {
    truncate_detail(s)
        .chars()
        .map(|c| if (c as u32) < 0x20 && c != '\t' { ' ' } else { c })
        .collect()
}

/// Escapes a string for embedding in a wire JSON line. Newlines are
/// escaped too, so the result never splits a line-framed record.
/// [`json_unescape_wire`] inverts it exactly for strings free of other
/// control characters.
#[must_use]
pub fn json_escape_wire(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`json_escape_wire`].
#[must_use]
pub fn json_unescape_wire(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Splits one flat JSON object (`{"k":v,...}`) into `(key, raw value)`
/// pairs. Values are returned as raw token text — still quoted for
/// strings. Nested objects and arrays are rejected: the whole wire surface
/// is deliberately flat.
///
/// # Errors
///
/// A bounded human-readable reason when the line is not a flat object.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, String)>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {}", truncate_detail(line)))?;
    let mut fields = Vec::new();
    // Split on commas outside quotes (values may contain escaped quotes).
    let mut depth_quote = false;
    let mut escaped = false;
    let mut start = 0usize;
    let bytes = body.as_bytes();
    let mut cuts = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if depth_quote => escaped = true,
            b'"' => depth_quote = !depth_quote,
            b'[' | b']' | b'{' | b'}' if !depth_quote => {
                return Err(format!("nested value in wire line: {}", truncate_detail(line)));
            }
            b',' if !depth_quote => cuts.push(i),
            _ => {}
        }
    }
    cuts.push(body.len());
    for cut in cuts {
        let pair = &body[start..cut];
        start = cut + 1;
        if pair.trim().is_empty() {
            continue;
        }
        let (k, v) =
            pair.split_once(':').ok_or_else(|| format!("malformed field '{}'", pair.trim()))?;
        let key = k
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key '{}'", k.trim()))?;
        fields.push((key.to_string(), v.trim().to_string()));
    }
    Ok(fields)
}

/// Looks up a field in a parsed flat object.
///
/// # Errors
///
/// When the key is absent.
pub fn lookup<'a>(fields: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// Looks up a string-typed field (strips the surrounding quotes and
/// un-escapes it).
///
/// # Errors
///
/// When the key is absent or the value is not quoted.
pub fn lookup_str(fields: &[(String, String)], key: &str) -> Result<String, String> {
    let raw = lookup(fields, key)?;
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(json_unescape_wire)
        .ok_or_else(|| format!("field '{key}' is not a string: {raw}"))
}

/// Renders one [`EdgeUpdate`] as a wire JSON line (no trailing newline):
/// `{"op":"add","src":1,"dst":2,"weight":1.5}` for additions,
/// `{"op":"del","src":1,"dst":2}` for deletions.
#[must_use]
pub fn format_update_line(u: &EdgeUpdate) -> String {
    match u.kind {
        UpdateKind::Addition => {
            format!(
                "{{\"op\":\"add\",\"src\":{},\"dst\":{},\"weight\":{}}}",
                u.src, u.dst, u.weight
            )
        }
        UpdateKind::Deletion => {
            format!("{{\"op\":\"del\",\"src\":{},\"dst\":{}}}", u.src, u.dst)
        }
    }
}

/// Parses one wire line into an [`EdgeUpdate`].
///
/// Accepts exactly the [`format_update_line`] shape: `op` is `"add"` or
/// `"del"`, `src`/`dst` are `u32`, `weight` is a float (optional for
/// deletions, default `1.0` for additions when absent). Non-finite weights
/// parse — downstream batch validation quarantines them, which is the
/// lenient-ingest front door working as intended.
///
/// # Errors
///
/// [`WireError`] with a bounded detail when the line does not frame.
pub fn parse_update_line(line: &str) -> Result<EdgeUpdate, WireError> {
    let fields = parse_flat_object(line).map_err(WireError::new)?;
    let op = lookup_str(&fields, "op").map_err(WireError::new)?;
    let id = |key: &str| -> Result<VertexId, WireError> {
        lookup(&fields, key)
            .and_then(|raw| {
                raw.parse::<VertexId>().map_err(|e| format!("field '{key}' is not a vertex: {e}"))
            })
            .map_err(WireError::new)
    };
    let src = id("src")?;
    let dst = id("dst")?;
    match op.as_str() {
        "add" => {
            let weight = match lookup(&fields, "weight") {
                Ok(raw) => raw
                    .parse::<Weight>()
                    .map_err(|e| WireError::new(format!("field 'weight' is not a number: {e}")))?,
                Err(_) => 1.0,
            };
            Ok(EdgeUpdate::addition(src, dst, weight))
        }
        "del" => Ok(EdgeUpdate::deletion(src, dst)),
        other => Err(WireError::new(format!("unknown op '{other}'"))),
    }
}

/// One entry of a recorded ingest batch, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordedEntry {
    /// A wire line that parsed; the update entered the batch former.
    Update(EdgeUpdate),
    /// A wire line that did not parse; lenient ingest quarantined it.
    /// Carries the sanitized, bounded detail that was quarantined.
    Malformed(String),
    /// A wire line cut short by connection loss (EOF arrived mid-line, or
    /// a torn write at a crash). Lenient ingest quarantines the fragment
    /// as [`crate::quarantine::QuarantineReason::TruncatedLine`]. Kept
    /// distinct from [`RecordedEntry::Malformed`] so resume offsets can
    /// exclude fragments: a reconnecting client re-sends the whole line,
    /// and the fragment stays behind as evidence.
    Truncated(String),
}

/// The replayable transcript of one tenant's ingest session: formed
/// batches in close order, each holding its entries in arrival order.
///
/// The schedule is the determinism contract of the streaming service:
/// feeding a recorded schedule through the offline harness reproduces the
/// live run byte for byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedSchedule {
    batches: Vec<Vec<RecordedEntry>>,
}

impl RecordedSchedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one closed batch.
    pub fn push_batch(&mut self, entries: Vec<RecordedEntry>) {
        self.batches.push(entries);
    }

    /// The recorded batches, in close order.
    #[must_use]
    pub fn batches(&self) -> &[Vec<RecordedEntry>] {
        &self.batches
    }

    /// Number of recorded batches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total accepted updates across batches.
    #[must_use]
    pub fn update_count(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.iter().filter(|e| matches!(e, RecordedEntry::Update(_))).count())
            .sum()
    }

    /// Total quarantined malformed lines across batches.
    #[must_use]
    pub fn malformed_count(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.iter().filter(|e| matches!(e, RecordedEntry::Malformed(_))).count())
            .sum()
    }

    /// Serializes the schedule as JSON lines: each entry becomes one line
    /// tagged with its 0-based batch index —
    /// `{"batch":0,"op":"add","src":1,"dst":2,"weight":1}` or
    /// `{"batch":0,"malformed":"<detail>"}`. An empty batch (possible when
    /// a latency deadline fires with only quarantined lines buffered)
    /// serializes as `{"batch":N,"empty":true}` so replay preserves batch
    /// boundaries exactly.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, batch) in self.batches.iter().enumerate() {
            if batch.is_empty() {
                out.push_str(&format!("{{\"batch\":{i},\"empty\":true}}\n"));
                continue;
            }
            for entry in batch {
                match entry {
                    RecordedEntry::Update(u) => {
                        let body = format_update_line(u);
                        let rest = body.strip_prefix('{').unwrap_or(&body);
                        out.push_str(&format!("{{\"batch\":{i},{rest}\n"));
                    }
                    RecordedEntry::Malformed(detail) => {
                        out.push_str(&format!(
                            "{{\"batch\":{i},\"malformed\":\"{}\"}}\n",
                            json_escape_wire(detail)
                        ));
                    }
                    RecordedEntry::Truncated(detail) => {
                        out.push_str(&format!(
                            "{{\"batch\":{i},\"truncated\":\"{}\"}}\n",
                            json_escape_wire(detail)
                        ));
                    }
                }
            }
        }
        out
    }

    /// Parses a schedule back from its [`RecordedSchedule::to_jsonl`]
    /// form. Round-trips exactly: `from_jsonl(to_jsonl(s)) == s`.
    ///
    /// # Errors
    ///
    /// A bounded human-readable reason on the first malformed or
    /// out-of-order line.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut schedule = Self::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let fields = parse_flat_object(line)?;
            let batch: usize = lookup(&fields, "batch")?
                .parse()
                .map_err(|e| format!("field 'batch' is not an index: {e}"))?;
            if batch == schedule.batches.len() {
                schedule.batches.push(Vec::new());
            } else if batch + 1 != schedule.batches.len() {
                return Err(format!(
                    "batch index {batch} out of order (at batch {})",
                    schedule.batches.len()
                ));
            }
            if lookup(&fields, "empty").is_ok() {
                continue;
            }
            let entry = if let Ok(detail) = lookup_str(&fields, "malformed") {
                RecordedEntry::Malformed(detail)
            } else if let Ok(detail) = lookup_str(&fields, "truncated") {
                RecordedEntry::Truncated(detail)
            } else {
                RecordedEntry::Update(parse_update_line(line).map_err(|e| e.detail)?)
            };
            if let Some(last) = schedule.batches.last_mut() {
                last.push(entry);
            }
        }
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_lines_round_trip_byte_identically() {
        let updates = [
            EdgeUpdate::addition(0, 1, 1.0),
            EdgeUpdate::addition(7, 42, 0.123_456_79),
            EdgeUpdate::addition(1, 2, f32::NAN),
            EdgeUpdate::addition(1, 3, f32::INFINITY),
            EdgeUpdate::deletion(99, 3),
        ];
        for u in updates {
            let line = format_update_line(&u);
            let parsed = parse_update_line(&line).unwrap();
            assert_eq!(format_update_line(&parsed), line, "re-render differs for {line}");
            assert_eq!(parsed.kind, u.kind);
            assert_eq!((parsed.src, parsed.dst), (u.src, u.dst));
            assert!(parsed.weight == u.weight || (parsed.weight.is_nan() && u.weight.is_nan()));
        }
    }

    #[test]
    fn addition_weight_defaults_to_one() {
        let u = parse_update_line("{\"op\":\"add\",\"src\":3,\"dst\":4}").unwrap();
        assert_eq!(u.weight, 1.0);
        assert_eq!(u.kind, UpdateKind::Addition);
    }

    #[test]
    fn hostile_lines_are_bounded_errors() {
        let cases = [
            "",
            "garbage",
            "{\"op\":\"add\"}",
            "{\"op\":\"frobnicate\",\"src\":1,\"dst\":2}",
            "{\"op\":\"add\",\"src\":-1,\"dst\":2}",
            "{\"op\":\"add\",\"src\":1,\"dst\":99999999999}",
            "{\"op\":\"add\",\"src\":1,\"dst\":2,\"weight\":\"lots\"}",
            "{\"op\":[1,2],\"src\":1,\"dst\":2}",
        ];
        for line in cases {
            let err = parse_update_line(line).unwrap_err();
            assert!(err.detail.chars().count() <= 200, "unbounded detail for {line:?}");
        }
        let huge =
            format!("{{\"op\":\"add\",\"src\":1,\"dst\":2,\"junk\":\"{}\"", "x".repeat(4096));
        let err = parse_update_line(&huge).unwrap_err();
        assert!(err.detail.chars().count() <= 200);
    }

    #[test]
    fn sanitize_is_idempotent_and_escape_round_trips() {
        let hostile = "a\"b\\c\td\u{1}e\n";
        let clean = sanitize_detail(hostile);
        assert_eq!(sanitize_detail(&clean), clean);
        assert_eq!(json_unescape_wire(&json_escape_wire(&clean)), clean);
        // Truncation inside sanitize is also idempotent.
        let long = "y".repeat(500);
        let t = sanitize_detail(&long);
        assert_eq!(sanitize_detail(&t), t);
    }

    #[test]
    fn schedule_round_trips() {
        let mut s = RecordedSchedule::new();
        s.push_batch(vec![
            RecordedEntry::Update(EdgeUpdate::addition(0, 1, 2.5)),
            RecordedEntry::Malformed(sanitize_detail("not json at all")),
            RecordedEntry::Update(EdgeUpdate::deletion(4, 5)),
        ]);
        s.push_batch(Vec::new());
        s.push_batch(vec![RecordedEntry::Update(EdgeUpdate::addition(9, 10, f32::NAN))]);
        let text = s.to_jsonl();
        let parsed = RecordedSchedule::from_jsonl(&text).unwrap();
        // NaN breaks PartialEq on the schedule, so compare serialized form.
        assert_eq!(parsed.to_jsonl(), text);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed.update_count(), 3);
        assert_eq!(parsed.malformed_count(), 1);
    }

    #[test]
    fn schedule_rejects_out_of_order_batches() {
        let text = "{\"batch\":1,\"op\":\"add\",\"src\":0,\"dst\":1,\"weight\":1}\n";
        assert!(RecordedSchedule::from_jsonl(text).is_err());
    }

    #[test]
    fn flat_parser_rejects_nesting_and_handles_quoted_commas() {
        assert!(parse_flat_object("{\"a\":{\"b\":1}}").is_err());
        assert!(parse_flat_object("{\"a\":[1,2]}").is_err());
        let fields = parse_flat_object("{\"a\":\"x,y\",\"b\":2}").unwrap();
        assert_eq!(lookup_str(&fields, "a").unwrap(), "x,y");
        assert_eq!(lookup(&fields, "b").unwrap(), "2");
    }
}

//! Edge-list file I/O (SNAP format).
//!
//! The paper's datasets come from the SNAP repository as whitespace-
//! separated edge lists with `#` comment lines. This module reads and
//! writes that format so users who have the real files can run the
//! reproduction on them instead of the synthetic stand-ins:
//!
//! ```no_run
//! use tdgraph_graph::io::LoadConfig;
//! use tdgraph_graph::datasets::StreamingWorkload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let loaded = LoadConfig::new().load("soc-LiveJournal1.txt")?;
//! let workload = StreamingWorkload::from_edges(
//!     loaded.graph.edges, loaded.graph.vertex_count, /* seed */ 42,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! The one entry point is the [`LoadConfig`] builder: pick the ingest
//! discipline with [`LoadConfig::ingest`] (strict rejects the whole file
//! on the first bad record with the 1-based line number and a truncated
//! copy of the offending line; lenient skips each bad record into a
//! bounded [`QuarantineReport`] and keeps going — a mid-stream read error
//! keeps the parsed prefix instead of losing it) and arm seeded input
//! corruption with [`LoadConfig::fault_plan`]. Both disciplines run one
//! parsing loop: strict is the lenient pass that stops at its first
//! fault. The result is a [`LoadOutcome`] carrying the parsed edges and
//! the quarantine accounting; the graph store is built later, from the
//! edges, by [`crate::datasets::StreamingWorkload::try_from_edges`].

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::fault::FaultPlan;
use crate::prng::Xoshiro256StarStar;
use crate::quarantine::{truncate_detail, IngestMode, QuarantineReason, QuarantineReport};
use crate::types::{Edge, VertexCount, VertexId};

/// An edge list loaded from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedGraph {
    /// The edges, in file order (self-loops dropped).
    pub edges: Vec<Edge>,
    /// One past the largest vertex id seen.
    pub vertex_count: VertexCount,
    /// How many lines were skipped as comments or blanks.
    pub skipped_lines: usize,
}

/// Error loading an edge list. Every variant that refers to file content
/// carries the 1-based line number and a truncated copy of the offending
/// line, so the error alone locates the bad record.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line did not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content (truncated to a bounded length).
        content: String,
    },
    /// A vertex id parsed but does not fit in [`VertexId`]; truncating it
    /// would silently alias two distinct vertices.
    TooManyVertices {
        /// 1-based line number.
        line: usize,
        /// The out-of-range id as parsed.
        id: u64,
        /// The offending content (truncated to a bounded length).
        content: String,
    },
    /// The host cannot allocate a graph with this many vertices (the
    /// largest id in the input, plus one).
    TooLarge {
        /// The vertex count asked for.
        vertex_count: usize,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error reading edge list: {e}"),
            LoadError::Parse { line, content } => {
                write!(f, "unparsable edge at line {line}: {content:?}")
            }
            LoadError::TooManyVertices { line, id, content } => write!(
                f,
                "vertex id {id} at line {line} exceeds the {}-bit VertexId range: {content:?}",
                VertexId::BITS
            ),
            LoadError::TooLarge { vertex_count } => {
                write!(f, "a graph of {vertex_count} vertices does not fit in memory")
            }
        }
    }
}

impl Error for LoadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Parse { .. }
            | LoadError::TooManyVertices { .. }
            | LoadError::TooLarge { .. } => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Why one line failed (the one parsing loop hands these to strict and
/// lenient ingest alike, so the two modes reject / quarantine *exactly*
/// the same records).
enum LineFault {
    /// Tokens missing or unparsable, or a non-finite weight.
    Malformed,
    /// An endpoint id exceeds the [`VertexId`] range.
    Overflow(u64),
    /// The reader failed; the parse ends here.
    Io(std::io::Error),
}

impl LineFault {
    /// Strict ingest: the typed error for this fault at 1-based `line`.
    fn into_error(self, line: usize, content: &str) -> LoadError {
        let content = truncate_detail(content);
        match self {
            LineFault::Malformed => LoadError::Parse { line, content },
            LineFault::Overflow(id) => LoadError::TooManyVertices { line, id, content },
            LineFault::Io(e) => LoadError::Io(e),
        }
    }

    /// Lenient ingest: records this fault at 1-based `line` instead.
    fn quarantine(self, line: usize, content: &str, report: &mut QuarantineReport) {
        match self {
            LineFault::Malformed => {
                report.record(QuarantineReason::MalformedLine, Some(line), content)
            }
            LineFault::Overflow(_) => {
                report.record(QuarantineReason::IdOverflow, Some(line), content)
            }
            LineFault::Io(e) => {
                report.record(QuarantineReason::IoInterrupted, Some(line), &e.to_string());
            }
        }
    }
}

/// Parses one trimmed, non-comment data line into `(src, dst, weight)`.
/// `None` weight means unweighted (synthesize one). Non-finite explicit
/// weights are malformed: NaN propagates through every algorithm state,
/// so letting one in would poison a whole run silently.
fn parse_data_line(trimmed: &str) -> Result<(VertexId, VertexId, Option<f32>), LineFault> {
    let mut parts = trimmed.split_whitespace();
    let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
        return Err(LineFault::Malformed);
    };
    // Parse at full u64 width first so an id past the VertexId range is
    // reported as an overflow, not truncated or misread as garbage.
    let (Ok(src64), Ok(dst64)) = (a.parse::<u64>(), b.parse::<u64>()) else {
        return Err(LineFault::Malformed);
    };
    let src = VertexId::try_from(src64).map_err(|_| LineFault::Overflow(src64))?;
    let dst = VertexId::try_from(dst64).map_err(|_| LineFault::Overflow(dst64))?;
    let weight = match parts.next() {
        Some(w) => {
            let w = w.parse::<f32>().map_err(|_| LineFault::Malformed)?;
            if !w.is_finite() {
                return Err(LineFault::Malformed);
            }
            Some(w)
        }
        None => None,
    };
    Ok((src, dst, weight))
}

/// Builder configuring how an edge list is loaded: ingest discipline and
/// seeded input corruption.
///
/// ```
/// use tdgraph_graph::io::LoadConfig;
/// use tdgraph_graph::quarantine::IngestMode;
///
/// let outcome = LoadConfig::new()
///     .ingest(IngestMode::Lenient)
///     .parse(std::io::Cursor::new("0 1 2.0\nbroken\n1 2 1.5\n"))
///     .unwrap();
/// assert_eq!(outcome.graph.edges.len(), 2);
/// assert_eq!(outcome.quarantine.total(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LoadConfig {
    ingest: IngestMode,
    fault_plan: FaultPlan,
}

/// What a [`LoadConfig`] load produced: the parsed edge list and the
/// quarantine accounting (always empty under strict ingest).
#[derive(Debug)]
pub struct LoadOutcome {
    /// The parsed edges, vertex count, and comment/blank accounting.
    pub graph: LoadedGraph,
    /// Records skipped by lenient ingest (empty under strict ingest).
    pub quarantine: QuarantineReport,
}

impl LoadConfig {
    /// Strict ingest, no fault injection.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the ingest discipline (default [`IngestMode::Strict`]).
    #[must_use]
    pub fn ingest(mut self, mode: IngestMode) -> Self {
        self.ingest = mode;
        self
    }

    /// Arms seeded input corruption: the raw text is passed through
    /// `plan` before parsing (chaos testing; default
    /// [`FaultPlan::none`]).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Loads a SNAP-style edge list from `path` (see [`LoadConfig::parse`]
    /// for the format and discipline semantics).
    ///
    /// # Errors
    ///
    /// [`LoadError::Io`] on file errors; under strict ingest also
    /// [`LoadError::Parse`] / [`LoadError::TooManyVertices`] on the first
    /// bad record.
    pub fn load<P: AsRef<Path>>(&self, path: P) -> Result<LoadOutcome, LoadError> {
        if self.fault_plan.is_noop() {
            let file = std::fs::File::open(path)?;
            self.parse_clean(BufReader::new(file))
        } else {
            let text = std::fs::read_to_string(path)?;
            self.parse_clean(self.fault_plan.corrupted_reader(&text))
        }
    }

    /// Parses a SNAP-style edge list from any reader: one
    /// `src dst [weight]` triple per line, whitespace-separated, `#`- and
    /// `%`-prefixed comment lines ignored. Unweighted edges receive
    /// deterministic small-integer weights in `{1, …, 64}` (seeded by the
    /// endpoints). Under [`IngestMode::Strict`] the first bad record
    /// fails the load; under [`IngestMode::Lenient`] bad records are
    /// skipped into [`LoadOutcome::quarantine`] and a mid-stream read
    /// error keeps the parsed prefix.
    ///
    /// # Errors
    ///
    /// Strict ingest: [`LoadError::Io`], [`LoadError::Parse`], or
    /// [`LoadError::TooManyVertices`]. Lenient ingest never fails here —
    /// everything strict would reject is quarantined instead.
    pub fn parse<R: BufRead>(&self, reader: R) -> Result<LoadOutcome, LoadError> {
        if self.fault_plan.is_noop() {
            self.parse_clean(reader)
        } else {
            let mut text = String::new();
            let mut reader = reader;
            reader.read_to_string(&mut text)?;
            self.parse_clean(self.fault_plan.corrupted_reader(&text))
        }
    }

    /// Parses from a reader that already has any fault plan applied.
    fn parse_clean<R: BufRead>(&self, reader: R) -> Result<LoadOutcome, LoadError> {
        let mut quarantine = QuarantineReport::new();
        let graph = parse_lines(reader, |line, fault, content| match self.ingest {
            IngestMode::Strict => Err(fault.into_error(line, content)),
            IngestMode::Lenient => {
                fault.quarantine(line, content, &mut quarantine);
                Ok(())
            }
        })?;
        Ok(LoadOutcome { graph, quarantine })
    }
}

/// Strictly parses a SNAP-style edge list from any reader: one
/// `src dst [weight]` triple per line, whitespace-separated, `#`- and
/// `%`-prefixed comment lines ignored. Unweighted edges receive
/// deterministic small-integer weights in `{1, …, 64}` (seeded by the
/// endpoints), matching the convention the streaming-graph evaluations
/// use for unweighted SNAP graphs. This is [`LoadConfig::parse`] under
/// strict ingest.
///
/// # Errors
///
/// [`LoadError::Io`] on read errors, [`LoadError::Parse`] on malformed
/// lines (including non-finite explicit weights),
/// [`LoadError::TooManyVertices`] on an id past the [`VertexId`] range.
pub fn parse_edge_list<R: BufRead>(reader: R) -> Result<LoadedGraph, LoadError> {
    parse_lines(reader, |line, fault, content| Err(fault.into_error(line, content)))
}

/// The one parsing loop. Each bad line goes to `on_fault` with its
/// 1-based number and raw content: strict ingest turns it into the error
/// that ends the parse, lenient ingest quarantines it and goes on. A read
/// error ends the parse either way, keeping the prefix.
fn parse_lines<R: BufRead>(
    reader: R,
    mut on_fault: impl FnMut(usize, LineFault, &str) -> Result<(), LoadError>,
) -> Result<LoadedGraph, LoadError> {
    let mut edges = Vec::new();
    let mut max_vertex: u64 = 0;
    let mut skipped = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                on_fault(idx + 1, LineFault::Io(e), "")?;
                break;
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            skipped += 1;
            continue;
        }
        match parse_data_line(trimmed) {
            Ok((src, dst, weight)) => {
                let weight = weight.unwrap_or_else(|| synthetic_weight(src, dst));
                max_vertex = max_vertex.max(u64::from(src)).max(u64::from(dst));
                if src != dst {
                    edges.push(Edge::new(src, dst, weight));
                }
            }
            Err(fault) => on_fault(idx + 1, fault, &line)?,
        }
    }
    let vertex_count =
        if edges.is_empty() && max_vertex == 0 { 0 } else { max_vertex as usize + 1 };
    Ok(LoadedGraph { edges, vertex_count, skipped_lines: skipped })
}

/// Deterministic small-integer weight for an unweighted edge.
fn synthetic_weight(src: VertexId, dst: VertexId) -> f32 {
    let mut rng = Xoshiro256StarStar::new((u64::from(src) << 32) ^ u64::from(dst) ^ 0x7D6);
    (rng.next_below(64) + 1) as f32
}

/// Writes an edge list in SNAP format (`src dst weight` per line).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_edge_list<P: AsRef<Path>>(path: P, edges: &[Edge]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# tdgraph-rs edge list: src dst weight")?;
    for e in edges {
        writeln!(w, "{}\t{}\t{}", e.src, e.dst, e.weight)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::io::Cursor;

    /// Lenient parse through the one entry point.
    fn lenient<R: BufRead>(reader: R) -> (LoadedGraph, QuarantineReport) {
        let outcome = LoadConfig::new().ingest(IngestMode::Lenient).parse(reader).unwrap();
        (outcome.graph, outcome.quarantine)
    }

    #[test]
    fn load_config_strict_matches_legacy_loader() {
        let text = "# header\n0 1 2.0\n1 2\n\n2 0 1.5\n";
        let legacy = parse_edge_list(Cursor::new(text)).unwrap();
        let outcome = LoadConfig::new().parse(Cursor::new(text)).unwrap();
        assert_eq!(outcome.graph, legacy);
        assert!(outcome.quarantine.is_empty());
    }

    #[test]
    fn load_config_strict_rejects_what_legacy_rejects() {
        let text = "0 1\nbroken\n";
        assert!(matches!(
            LoadConfig::new().parse(Cursor::new(text)),
            Err(LoadError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn load_config_lenient_matches_legacy_lenient() {
        let text = "0 1\nbroken\n8589934592 2\n2 3 NaN\n3 4 2.5\n";
        let outcome =
            LoadConfig::new().ingest(IngestMode::Lenient).parse(Cursor::new(text)).unwrap();
        let ends: Vec<_> = outcome.graph.edges.iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(ends, [(0, 1), (3, 4)], "good records survive in file order");
        assert_eq!(outcome.graph.vertex_count, 5, "quarantined ids never widen the graph");
        assert_eq!(outcome.quarantine.total(), 3);
    }

    #[test]
    fn load_config_fault_plan_corrupts_before_parsing() {
        let clean: String = (0..64).map(|i| format!("{i} {} 1.0\n", i + 1)).collect();
        let plan = FaultPlan::seeded(42)
            .with_malformed_lines(0.2)
            .with_truncated_lines(0.2)
            .with_out_of_range_ids(0.2);
        let outcome = LoadConfig::new()
            .ingest(IngestMode::Lenient)
            .fault_plan(plan)
            .parse(Cursor::new(clean))
            .unwrap();
        assert!(!outcome.quarantine.is_empty(), "armed plan must corrupt something");
        assert_eq!(
            outcome.graph.edges.len() as u64 + outcome.quarantine.total(),
            64,
            "every line is kept or quarantined"
        );
    }

    #[test]
    fn load_config_load_reads_files_with_and_without_faults() {
        let dir = std::env::temp_dir().join("tdgraph_io_loadconfig_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        let edges = vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 3.5)];
        save_edge_list(&path, &edges).unwrap();
        let outcome = LoadConfig::new().load(&path).unwrap();
        assert_eq!(outcome.graph.edges, edges);
        let faulted = LoadConfig::new()
            .ingest(IngestMode::Lenient)
            .fault_plan(FaultPlan::seeded(7).with_io_error_after(1))
            .load(&path)
            .unwrap();
        assert_eq!(faulted.quarantine.count(QuarantineReason::IoInterrupted), 1);
        std::fs::remove_file(&path).ok();
        assert!(matches!(LoadConfig::new().load(&path), Err(LoadError::Io(_))));
    }

    #[test]
    fn parses_snap_format_with_comments() {
        let text = "# Directed graph\n# Nodes: 4 Edges: 3\n0\t1\n1 2\n\n2\t3\n";
        let g = parse_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.edges.len(), 3);
        assert_eq!(g.vertex_count, 4);
        assert_eq!(g.skipped_lines, 3);
        assert_eq!((g.edges[0].src, g.edges[0].dst), (0, 1));
        assert!(g.edges.iter().all(|e| (1.0..=64.0).contains(&e.weight)));
    }

    #[test]
    fn parses_explicit_weights() {
        let g = parse_edge_list(Cursor::new("0 1 2.5\n1 0 3\n")).unwrap();
        assert_eq!(g.edges[0].weight, 2.5);
        assert_eq!(g.edges[1].weight, 3.0);
    }

    #[test]
    fn synthetic_weights_are_deterministic() {
        let a = parse_edge_list(Cursor::new("3 9\n")).unwrap();
        let b = parse_edge_list(Cursor::new("3 9\n")).unwrap();
        assert_eq!(a.edges[0].weight, b.edges[0].weight);
    }

    #[test]
    fn drops_self_loops_but_counts_vertices() {
        let g = parse_edge_list(Cursor::new("5 5\n0 1\n")).unwrap();
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.vertex_count, 6);
    }

    #[test]
    fn malformed_line_reports_position_and_content() {
        let err = parse_edge_list(Cursor::new("0 1\nnot an edge\n")).unwrap_err();
        match err {
            LoadError::Parse { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "not an edge");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn missing_endpoint_reports_position_and_content() {
        let err = parse_edge_list(Cursor::new("42\n")).unwrap_err();
        match err {
            LoadError::Parse { line, content } => {
                assert_eq!(line, 1);
                assert_eq!(content, "42");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn unparsable_weight_reports_position_and_content() {
        let err = parse_edge_list(Cursor::new("0 1\n1 2 heavy\n")).unwrap_err();
        match err {
            LoadError::Parse { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "1 2 heavy");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn non_finite_weight_is_a_parse_error() {
        for bad in ["0 1 NaN", "0 1 inf", "0 1 -inf"] {
            let err = parse_edge_list(Cursor::new(format!("{bad}\n"))).unwrap_err();
            match err {
                LoadError::Parse { line, content } => {
                    assert_eq!(line, 1, "{bad}");
                    assert_eq!(content, bad);
                }
                other => panic!("expected parse error for {bad:?}, got {other}"),
            }
        }
    }

    #[test]
    fn parse_error_content_is_truncated() {
        let long = format!("0 1 {}", "z".repeat(500));
        let err = parse_edge_list(Cursor::new(format!("{long}\n"))).unwrap_err();
        match err {
            LoadError::Parse { content, .. } => {
                assert!(content.chars().count() <= crate::quarantine::MAX_DETAIL_CHARS + 1);
                assert!(content.ends_with('…'));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = parse_edge_list(Cursor::new("")).unwrap();
        assert_eq!(g.vertex_count, 0);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("tdgraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.txt");
        let edges = vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 3.5), Edge::new(2, 0, 1.0)];
        save_edge_list(&path, &edges).unwrap();
        let loaded = LoadConfig::new().load(&path).unwrap().graph;
        assert_eq!(loaded.edges, edges);
        assert_eq!(loaded.vertex_count, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vertex_id_overflow_reports_position_and_content() {
        // 2^33 parses as u64 but cannot be a 32-bit VertexId; a silent
        // `as u32` cast would alias it onto vertex 0.
        let err = parse_edge_list(Cursor::new("0 1\n8589934592 2\n")).unwrap_err();
        match &err {
            LoadError::TooManyVertices { line, id, content } => {
                assert_eq!(*line, 2);
                assert_eq!(*id, 1 << 33);
                assert_eq!(content, "8589934592 2");
            }
            other => panic!("expected TooManyVertices, got {other}"),
        }
        assert!(err.to_string().contains("8589934592"));
    }

    #[test]
    fn max_vertex_id_still_loads() {
        let max = u32::MAX;
        let g = parse_edge_list(Cursor::new(format!("0 {max}\n"))).unwrap();
        assert_eq!(g.edges[0].dst, max);
        assert_eq!(g.vertex_count, max as usize + 1);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let missing = "/nonexistent/tdgraph/file.txt";
        let err = LoadConfig::new().load(missing).unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
        assert!(err.to_string().contains("i/o error"));
        let lenient = LoadConfig::new().ingest(IngestMode::Lenient).load(missing);
        assert!(matches!(lenient, Err(LoadError::Io(_))));
    }

    #[test]
    fn lenient_parse_quarantines_what_strict_rejects() {
        let text = "0 1\nbroken\n8589934592 2\n2 3 NaN\n3 4 2.5\n";
        assert!(parse_edge_list(Cursor::new(text)).is_err());
        let (g, q) = lenient(Cursor::new(text));
        assert_eq!(g.edges.len(), 2, "good records survive");
        assert_eq!(q.total(), 3);
        assert_eq!(q.count(QuarantineReason::MalformedLine), 2, "broken + NaN weight");
        assert_eq!(q.count(QuarantineReason::IdOverflow), 1);
        assert_eq!(q.exemplars()[0].line, Some(2));
        assert_eq!(q.exemplars()[0].detail, "broken");
    }

    #[test]
    fn lenient_load_of_a_huge_id_builds_no_graph() {
        // The loader only parses: sizing a store by the largest id here
        // would ask for gigabytes and abort the process.
        let outcome = LoadConfig::new()
            .ingest(IngestMode::Lenient)
            .parse("0 1 1\n1 999999999 1\n".as_bytes())
            .unwrap();
        assert_eq!(outcome.graph.edges.len(), 2);
        assert_eq!(outcome.graph.vertex_count, 1_000_000_000);
        assert!(outcome.quarantine.is_empty());
    }

    #[test]
    fn lenient_parse_of_clean_input_matches_strict() {
        let text = "# header\n0 1 2.0\n1 2\n\n2 0 1.5\n";
        let strict = parse_edge_list(Cursor::new(text)).unwrap();
        let (parsed, q) = lenient(Cursor::new(text));
        assert!(q.is_empty());
        assert_eq!(parsed, strict);
    }

    #[test]
    fn lenient_parse_keeps_prefix_on_io_fault() {
        let plan = FaultPlan::seeded(0).with_io_error_after(2);
        let (g, q) = lenient(plan.corrupted_reader("0 1\n1 2\n2 3\n3 4\n"));
        assert_eq!(g.edges.len(), 2, "prefix before the fault survives");
        assert_eq!(q.count(QuarantineReason::IoInterrupted), 1);
        assert!(q.exemplars()[0].detail.contains("injected"));
        // Strict mode rejects the same stream outright.
        let err = parse_edge_list(plan.corrupted_reader("0 1\n1 2\n2 3\n3 4\n")).unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
    }

    #[test]
    fn lenient_parse_of_faulted_text_quarantines_every_armed_fault() {
        let clean: String = (0..64).map(|i| format!("{i} {} 1.0\n", i + 1)).collect();
        let plan = FaultPlan::seeded(42)
            .with_malformed_lines(0.2)
            .with_truncated_lines(0.2)
            .with_out_of_range_ids(0.2);
        let (g, q) = lenient(plan.corrupted_reader(&clean));
        assert!(!q.is_empty(), "armed plan must corrupt something");
        assert!(!g.edges.is_empty(), "clean records must survive");
        assert_eq!(g.edges.len() as u64 + q.total(), 64, "every line is kept or quarantined");
    }
}

//! Sweep checkpointing: append-only JSON-lines logs of finished cells.
//!
//! A checkpoint line is *exactly* the cell's canonical report line (see
//! [`SweepReport::canonical_lines`](crate::SweepReport::canonical_lines)),
//! so a resumed sweep reproduces the original report byte for byte: the
//! restored cells re-emit their stored lines verbatim and only the cells
//! that never completed are executed again.
//!
//! The workspace deliberately carries no serde dependency: a record is a
//! flat JSON object decoded with the `tdgraph_graph::wire` codec, and the
//! file is a [`DurableLog`] — one unbuffered `write` per record, never
//! fsynced, so a checkpoint survives the process being killed but not a
//! machine crash.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tdgraph_engines::config::RunConfig;
use tdgraph_engines::harness::RunResult;
use tdgraph_graph::durable::{self, DurableError, DurableLog, Recovered, TornTail};
use tdgraph_graph::quarantine::IngestMode;
use tdgraph_graph::wire::{lookup, lookup_str, parse_flat_object};
use tdgraph_obs::TraceEvent;
use tdgraph_sim::ExecConfig;

use crate::sweep::ExperimentCell;

/// An error reading or writing a sweep checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The checkpoint file could not be opened, read, or appended.
    Io {
        /// The checkpoint path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A checkpoint line is not a canonical cell record.
    Parse {
        /// 1-based line number within the checkpoint file.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A checkpoint record does not correspond to the sweep being resumed
    /// (different grid, reordered axes, or a stale file).
    SpecMismatch {
        /// The cell index the record claims.
        index: usize,
        /// The coordinates the spec expands to at that index.
        expected: String,
        /// The coordinates the checkpoint recorded.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint i/o error at {}: {source}", path.display())
            }
            CheckpointError::Parse { line, reason } => {
                write!(f, "checkpoint parse error at line {line}: {reason}")
            }
            CheckpointError::SpecMismatch { index, expected, found } => write!(
                f,
                "checkpoint does not match the sweep spec at cell {index}: \
                 expected {expected}, found {found}"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Parse { .. } | CheckpointError::SpecMismatch { .. } => None,
        }
    }
}

/// The canonical, timing-free record of one completed cell: its grid
/// coordinates (including [`options_digest`] of its run options) plus the
/// headline metrics and oracle verdict.
///
/// [`CanonicalCell::to_json_line`] is the single source of the canonical
/// line format — both [`SweepReport::canonical_lines`](crate::SweepReport)
/// and the checkpoint log serialize through it, which is what makes
/// checkpoint/resume byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalCell {
    /// Cell index in expansion order.
    pub cell: usize,
    /// Dataset abbreviation.
    pub dataset: String,
    /// Workload sizing (`Debug` rendering).
    pub sizing: String,
    /// Algorithm label.
    pub algo: String,
    /// Engine registry key.
    pub engine: String,
    /// Workload seed.
    pub seed: u64,
    /// [`options_digest`] of the cell's resolved run options.
    pub options: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Propagation-phase cycles.
    pub propagation_cycles: u64,
    /// Non-propagation cycles.
    pub other_cycles: u64,
    /// Vertex-state writes.
    pub state_updates: u64,
    /// Writes that changed the converged state.
    pub useful_updates: u64,
    /// Edges streamed through the engines.
    pub edges_processed: u64,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Update batches streamed.
    pub batches: u64,
    /// Oracle verdict.
    pub verified: bool,
}

impl CanonicalCell {
    /// Builds the canonical record of a completed cell.
    #[must_use]
    pub fn of(cell: &ExperimentCell, result: &RunResult) -> Self {
        let m = &result.metrics;
        Self {
            cell: cell.index,
            dataset: cell.dataset.abbrev().to_string(),
            sizing: format!("{:?}", cell.sizing),
            algo: cell.algo.label().to_string(),
            engine: cell.engine.key().to_string(),
            seed: cell.options.seed,
            options: options_digest(&cell.options),
            cycles: m.cycles,
            propagation_cycles: m.propagation_cycles,
            other_cycles: m.other_cycles,
            state_updates: m.state_updates,
            useful_updates: m.useful_updates,
            edges_processed: m.edges_processed,
            dram_bytes: m.dram_bytes,
            batches: m.batches,
            verified: result.verify.is_match(),
        }
    }

    /// Renders the record as one canonical JSON line (no trailing
    /// newline). The record predates the obs crate, so it renders as an
    /// anonymous [`TraceEvent`] — same field order, no `"event"` tag.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        TraceEvent::record()
            .field("cell", self.cell)
            .field("dataset", self.dataset.as_str())
            .field("sizing", self.sizing.as_str())
            .field("algo", self.algo.as_str())
            .field("engine", self.engine.as_str())
            .field("seed", self.seed)
            .field("options", self.options.as_str())
            .field("cycles", self.cycles)
            .field("propagation_cycles", self.propagation_cycles)
            .field("other_cycles", self.other_cycles)
            .field("state_updates", self.state_updates)
            .field("useful_updates", self.useful_updates)
            .field("edges_processed", self.edges_processed)
            .field("dram_bytes", self.dram_bytes)
            .field("batches", self.batches)
            .field("verified", self.verified)
            .to_json_line()
    }

    /// Parses one canonical JSON line.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the line is not a canonical record.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let fields = parse_flat_object(line)?;
        let u64_of = |key: &str| u64_field(&fields, key);
        Ok(Self {
            cell: usize_field(&fields, "cell")?,
            dataset: lookup_str(&fields, "dataset")?,
            sizing: lookup_str(&fields, "sizing")?,
            algo: lookup_str(&fields, "algo")?,
            engine: lookup_str(&fields, "engine")?,
            seed: u64_of("seed")?,
            options: lookup_str(&fields, "options")?,
            cycles: u64_of("cycles")?,
            propagation_cycles: u64_of("propagation_cycles")?,
            other_cycles: u64_of("other_cycles")?,
            state_updates: u64_of("state_updates")?,
            useful_updates: u64_of("useful_updates")?,
            edges_processed: u64_of("edges_processed")?,
            dram_bytes: u64_of("dram_bytes")?,
            batches: u64_of("batches")?,
            verified: bool_field(&fields, "verified")?,
        })
    }

    /// Compact human-readable coordinates (for mismatch diagnostics).
    #[must_use]
    pub fn coordinates(&self) -> String {
        coordinates(&self.dataset, &self.sizing, &self.algo, &self.engine, self.seed, &self.options)
    }
}

/// The one rendering of a cell's index-independent coordinates, run
/// options included.
fn coordinates(
    dataset: &str,
    sizing: &str,
    algo: &str,
    engine: &str,
    seed: u64,
    options: &str,
) -> String {
    format!("{dataset}/{sizing}/{algo}/{engine} seed={seed} options={options}")
}

/// The coordinates a spec expands to for `cell`, in the same compact form
/// as [`CanonicalCell::coordinates`].
#[must_use]
pub fn cell_coordinates(cell: &ExperimentCell) -> String {
    coordinates(
        cell.dataset.abbrev(),
        &format!("{:?}", cell.sizing),
        cell.algo.label(),
        cell.engine.key(),
        cell.options.seed,
        &options_digest(&cell.options),
    )
}

/// The coordinates a canonical report line records. Every canonical line
/// carries them, whatever its cell's outcome: clean, degraded or failed.
///
/// # Errors
///
/// A human-readable reason when the line is not a flat JSON object or
/// lacks a coordinate.
pub(crate) fn line_coordinates(line: &str) -> Result<String, String> {
    let fields = parse_flat_object(line)?;
    Ok(coordinates(
        &lookup_str(&fields, "dataset")?,
        &lookup_str(&fields, "sizing")?,
        &lookup_str(&fields, "algo")?,
        &lookup_str(&fields, "engine")?,
        u64_field(&fields, "seed")?,
        &lookup_str(&fields, "options")?,
    ))
}

/// Checks that a restored record claiming cell `index` with coordinates
/// `found` describes that cell of the expanded grid, so a stale or
/// foreign checkpoint or lease log never restores into this sweep.
///
/// # Errors
///
/// [`CheckpointError::SpecMismatch`] when `index` is past the grid or the
/// cell there has other coordinates.
pub(crate) fn check_coordinates(
    index: usize,
    found: String,
    cells: &[ExperimentCell],
) -> Result<(), CheckpointError> {
    let expected = match cells.get(index) {
        Some(cell) => cell_coordinates(cell),
        None => format!("a sweep of {} cells", cells.len()),
    };
    if found == expected {
        Ok(())
    } else {
        Err(CheckpointError::SpecMismatch { index, expected, found })
    }
}

/// A 16-hex-digit FNV-1a digest of resolved run options, so a checkpoint
/// written under other options (machine, batch size, α, …) never
/// resumes into this sweep. It leaves out the two fields that cannot change
/// a completed cell's record: the host execution config (`exec`; sharded
/// runs are byte-identical to serial) and the ingest discipline (`ingest`;
/// on clean input lenient equals strict, and a cell that quarantined
/// anything is degraded and never checkpointed).
#[must_use]
pub fn options_digest(options: &RunConfig) -> String {
    let resolved =
        RunConfig { exec: ExecConfig::serial(), ingest: IngestMode::Strict, ..options.clone() };
    format!("{:016x}", fnv1a(format!("{resolved:?}").bytes()))
}

/// 64-bit FNV-1a digest of `bytes`.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

pub(crate) fn u64_field(fields: &[(String, String)], key: &str) -> Result<u64, String> {
    lookup(fields, key)?.parse::<u64>().map_err(|e| format!("field '{key}' is not an integer: {e}"))
}

pub(crate) fn usize_field(fields: &[(String, String)], key: &str) -> Result<usize, String> {
    lookup(fields, key)?.parse::<usize>().map_err(|e| format!("field '{key}' is not an index: {e}"))
}

pub(crate) fn bool_field(fields: &[(String, String)], key: &str) -> Result<bool, String> {
    match lookup(fields, key)? {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("field '{key}' is not a bool: {other}")),
    }
}

fn checkpoint_error(path: &Path, e: DurableError) -> CheckpointError {
    match e {
        DurableError::Io(source) => CheckpointError::Io { path: path.to_path_buf(), source },
        DurableError::Corrupt { line, reason } => CheckpointError::Parse { line, reason },
    }
}

/// Loads every record of a checkpoint file.
///
/// A missing file is an empty checkpoint (first launch of a sweep that
/// will resume later), not an error. Blank lines are skipped.
///
/// # Errors
///
/// [`CheckpointError::Io`] on read failures other than a missing file,
/// [`CheckpointError::Parse`] on a malformed line — including a torn
/// final line; use [`load_tolerant`] when a crash mid-append must not
/// poison the resume.
pub fn load(path: &Path) -> Result<Vec<CanonicalCell>, CheckpointError> {
    let loaded = durable::read(path, CanonicalCell::from_json_line)
        .map_err(|e| checkpoint_error(path, e))?;
    match loaded.torn {
        Some(TornTail { line, reason }) => Err(CheckpointError::Parse { line, reason }),
        None => Ok(loaded.records),
    }
}

/// A tolerantly-loaded checkpoint: the clean records plus what (if
/// anything) was dropped off the tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedCheckpoint {
    /// Every record of the clean prefix, in file order.
    pub records: Vec<CanonicalCell>,
    /// Byte length of the clean prefix — the offset a recovering writer
    /// truncates to before appending.
    pub clean_bytes: u64,
    /// Torn final lines dropped (0 or 1): a tail not ending in `\n`, or a
    /// final newline-terminated line that does not decode.
    pub torn_tails_dropped: usize,
}

impl From<Recovered<CanonicalCell>> for LoadedCheckpoint {
    fn from(r: Recovered<CanonicalCell>) -> Self {
        Self {
            records: r.records,
            clean_bytes: r.clean_bytes,
            torn_tails_dropped: usize::from(r.torn.is_some()),
        }
    }
}

/// Loads a checkpoint, tolerating a torn final line (see
/// [`tdgraph_graph::durable`]): a process killed mid-append leaves
/// either a tail without a newline or an undecodable final record, and a
/// resume must treat that as "one fewer cell checkpointed", not as
/// corruption. The file is not modified.
///
/// # Errors
///
/// [`CheckpointError::Io`] on read failures other than a missing file,
/// [`CheckpointError::Parse`] on a malformed non-final line.
pub fn load_tolerant(path: &Path) -> Result<LoadedCheckpoint, CheckpointError> {
    durable::read(path, CanonicalCell::from_json_line)
        .map(LoadedCheckpoint::from)
        .map_err(|e| checkpoint_error(path, e))
}

/// An append-only checkpoint writer, safe to share across threads.
///
/// Each record is appended as one canonical line with one unbuffered
/// `write`, so a record, once appended, survives the process being
/// killed. The log is never fsynced: it survives process death, not a
/// machine crash. A sweep appends through its ledger, which writes each
/// completed cell once, in cell-index order (see
/// [`SweepRunner::checkpoint_to`](crate::SweepRunner::checkpoint_to)).
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    log: Mutex<DurableLog>,
}

impl CheckpointLog {
    /// Opens `path` for appending, creating it if missing. Same recovering
    /// open as [`CheckpointLog::resume`], with the loaded records dropped.
    ///
    /// # Errors
    ///
    /// As [`CheckpointLog::resume`].
    pub fn append_to(path: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        Self::resume(path).map(|(log, _)| log)
    }

    /// Recovering open: loads the clean prefix tolerantly (see
    /// [`load_tolerant`]), truncates any torn tail away, and opens the
    /// file for appending. Returns the log plus what was loaded — the
    /// caller resumes writing exactly after the last complete record.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read, truncated, or
    /// opened; [`CheckpointError::Parse`] on a malformed non-final line.
    pub fn resume(path: impl Into<PathBuf>) -> Result<(Self, LoadedCheckpoint), CheckpointError> {
        let path = path.into();
        let (log, loaded) = DurableLog::open(&path, CanonicalCell::from_json_line)
            .map_err(|e| checkpoint_error(&path, e))?;
        Ok((Self { path, log: Mutex::new(log) }, loaded.into()))
    }

    /// The file this log appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (one unbuffered `write`; see the type docs for
    /// what survives).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on write failure.
    pub fn append(&self, record: &CanonicalCell) -> Result<(), CheckpointError> {
        self.append_line(&record.to_json_line())
    }

    /// Appends one pre-rendered canonical line verbatim. The sweep ledger
    /// writes every cell's line through this, a worker-rendered one
    /// without re-encoding it, preserving byte identity; the caller
    /// guarantees the line is a canonical record.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on write failure, or when `line` contains a
    /// newline.
    pub fn append_line(&self, line: &str) -> Result<(), CheckpointError> {
        let mut log = self.log.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        log.append(line).map_err(|e| CheckpointError::Io { path: self.path.clone(), source: e })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CanonicalCell {
        CanonicalCell {
            cell: 3,
            dataset: "AM".into(),
            sizing: "Tiny".into(),
            algo: "SSSP".into(),
            engine: "ligra-o".into(),
            seed: 2006,
            options: "00112233445566ff".into(),
            cycles: 123,
            propagation_cycles: 100,
            other_cycles: 23,
            state_updates: 42,
            useful_updates: 40,
            edges_processed: 99,
            dram_bytes: 4096,
            batches: 2,
            verified: true,
        }
    }

    #[test]
    fn json_line_round_trips_byte_identically() {
        let r = record();
        let line = r.to_json_line();
        let parsed = CanonicalCell::from_json_line(&line).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json_line(), line);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(CanonicalCell::from_json_line("not json").is_err());
        assert!(CanonicalCell::from_json_line("{\"cell\":0}").is_err());
        let bad_bool = record().to_json_line().replace("true", "maybe");
        assert!(CanonicalCell::from_json_line(&bad_bool).is_err());
    }

    /// Checkpoints are keyed on these digests, so a change to
    /// `RunConfig`'s fields or their `Debug` text would refuse every
    /// checkpoint written before it. The values are the ones computed
    /// while `StorageKind` still had a second variant.
    #[test]
    fn options_digests_of_the_default_options_are_pinned() {
        use crate::sweep::SweepSpec;
        use crate::EngineKind;
        use tdgraph_graph::datasets::Dataset;

        assert_eq!(options_digest(&RunConfig::default()), "5e02aaf95dbb1034");
        let cells = SweepSpec::new().dataset(Dataset::Amazon).engine(EngineKind::LigraO).expand();
        assert_eq!(options_digest(&cells[0].options), "99463a37499c6dae");
    }

    #[test]
    fn load_of_missing_file_is_empty() {
        let records = load(Path::new("/nonexistent/tdgraph-checkpoint.jsonl")).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "tdgraph-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let _ = std::fs::remove_file(&path);

        let log = CheckpointLog::append_to(&path).unwrap();
        let mut a = record();
        let mut b = record();
        b.cell = 4;
        b.verified = false;
        log.append(&a).unwrap();
        log.append(&b).unwrap();
        // Re-appending a cell: the loader keeps both, resume takes the last.
        a.cycles = 999;
        log.append(&a).unwrap();

        let records = load(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].cycles, 123);
        assert_eq!(records[1].cell, 4);
        assert_eq!(records[2].cycles, 999);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tolerant_load_drops_only_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "tdgraph-ckpt-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let full = format!("{}\n{}\n", record().to_json_line(), record().to_json_line());

        // Unterminated tail: dropped + counted, clean prefix preserved.
        let torn = format!("{full}{}", &record().to_json_line()[..20]);
        std::fs::write(&path, &torn).unwrap();
        let loaded = load_tolerant(&path).unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.clean_bytes, full.len() as u64);
        assert_eq!(loaded.torn_tails_dropped, 1);
        // The strict loader refuses the same file.
        assert!(matches!(load(&path), Err(CheckpointError::Parse { .. })));

        // A malformed line *followed by clean records* is corruption, not
        // a torn append.
        let corrupt = format!("garbage\n{full}");
        std::fs::write(&path, &corrupt).unwrap();
        assert!(matches!(load_tolerant(&path), Err(CheckpointError::Parse { line: 1, .. })));

        // Missing file: empty, no drops.
        let missing = load_tolerant(Path::new("/nonexistent/tdgraph.jsonl")).unwrap();
        assert_eq!(
            missing,
            LoadedCheckpoint { records: vec![], clean_bytes: 0, torn_tails_dropped: 0 }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_truncates_the_torn_tail_before_appending() {
        let dir = std::env::temp_dir().join(format!(
            "tdgraph-ckpt-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let a = record();
        let mut b = record();
        b.cell = 4;
        std::fs::write(&path, format!("{}\n{}", a.to_json_line(), &b.to_json_line()[..33]))
            .unwrap();

        let (log, loaded) = CheckpointLog::resume(&path).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.torn_tails_dropped, 1);
        log.append(&b).unwrap();
        drop(log);

        let records = load(&path).unwrap();
        assert_eq!(records.len(), 2, "torn bytes must not corrupt the re-append");
        assert_eq!(records[1].cell, 4);
        let _ = std::fs::remove_file(&path);
    }
}

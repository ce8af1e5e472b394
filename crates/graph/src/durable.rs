//! The durable append-only log every persistent record stream shares: the
//! serve ingest WAL, the sweep checkpoint and the fleet lease log.
//!
//! A log is a file of `\n`-terminated records. Each caller owns its record
//! format (one flat JSON object per line, in the [`crate::wire`] codec);
//! this module owns the file mechanics, so every log recovers the same way:
//!
//! * [`DurableLog::append`] makes one unbuffered `write` of the record plus
//!   its `\n`. A process killed mid-append therefore leaves at most one
//!   torn record, at the tail. Appends survive process death (SIGKILL) as
//!   soon as they return.
//! * [`DurableLog::sync`] is `fsync`: only after it do the appends before
//!   it survive a machine crash. Logs that never call it survive process
//!   death, not machine crash.
//! * [`read`] splits a log into records. A torn final line — one with no
//!   `\n`, or one that does not decode — is dropped and reported. A line
//!   that does not decode with more records after it cannot come from a
//!   crash and is [`DurableError::Corrupt`].
//! * [`DurableLog::open`] is the recovering open: it reads the clean
//!   prefix, truncates the file to it, and reopens it for appending, so a
//!   new record never lands after torn bytes.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

/// Why a log could not be read or reopened.
#[derive(Debug)]
pub enum DurableError {
    /// The file could not be read, truncated or opened.
    Io(std::io::Error),
    /// A line that does not decode has more records after it. A crash
    /// damages only the final line, so this is corruption, not a torn
    /// append.
    Corrupt {
        /// 1-based line number of the damaged line.
        line: usize,
        /// The decoder's reason.
        reason: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "{e}"),
            DurableError::Corrupt { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// The torn final line [`read`] dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// 1-based line number of the dropped line.
    pub line: usize,
    /// Why it was dropped: no trailing `\n`, or the decoder's reason.
    pub reason: String,
}

/// The clean prefix of a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered<R> {
    /// Every decoded record of the clean prefix, in file order. Blank
    /// lines are skipped.
    pub records: Vec<R>,
    /// Byte length of the clean prefix.
    pub clean_bytes: u64,
    /// The torn final line, when one was dropped.
    pub torn: Option<TornTail>,
}

/// Reads the log at `path` and decodes its clean prefix with `decode`.
/// A missing file is an empty log. The file is not modified.
///
/// This is the one place that decides what a torn tail is. Lines are
/// split as bytes: a record cut inside a multi-byte character is a torn
/// tail like any other, not an I/O error.
///
/// # Errors
///
/// [`DurableError::Io`] when the file exists but cannot be read,
/// [`DurableError::Corrupt`] on a damaged line that is not the last.
pub fn read<R>(
    path: &Path,
    mut decode: impl FnMut(&str) -> Result<R, String>,
) -> Result<Recovered<R>, DurableError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let (mut records, mut clean, mut torn) = (Vec::new(), 0usize, None);
    for (i, chunk) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let line = i + 1;
        let Some(text) = chunk.strip_suffix(b"\n") else {
            // The writer died before the newline, even if the bytes happen
            // to decode.
            torn = Some(TornTail { line, reason: "no trailing newline".to_string() });
            break;
        };
        let decoded = match std::str::from_utf8(text) {
            Ok(text) if text.trim().is_empty() => Ok(None),
            Ok(text) => decode(text).map(Some),
            Err(e) => Err(format!("not UTF-8: {e}")),
        };
        let end = clean + chunk.len();
        match decoded {
            Ok(record) => {
                records.extend(record);
                clean = end;
            }
            Err(reason) if bytes[end..].iter().all(u8::is_ascii_whitespace) => {
                torn = Some(TornTail { line, reason });
                break;
            }
            Err(reason) => return Err(DurableError::Corrupt { line, reason }),
        }
    }
    Ok(Recovered { records, clean_bytes: clean as u64, torn })
}

/// An open append-only log file.
#[derive(Debug)]
pub struct DurableLog {
    path: PathBuf,
    file: File,
}

impl DurableLog {
    /// Creates `path`, truncating any file of that name, and syncs its
    /// directory (best effort) so the file's existence survives a machine
    /// crash. The caller appends its head record and calls
    /// [`DurableLog::sync`].
    ///
    /// # Errors
    ///
    /// Propagates the create failure.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = File::create(&path)?;
        // Linux allows fsync on a read-only directory descriptor.
        if let Some(dir) = path.parent().and_then(|d| File::open(d).ok()) {
            let _ = dir.sync_all();
        }
        Ok(Self { path, file })
    }

    /// Recovering open: [`read`]s the clean prefix, truncates the file to
    /// it (dropping a torn tail), and opens it for appending, creating it
    /// if missing.
    ///
    /// # Errors
    ///
    /// As [`read`], plus I/O failures truncating or opening the file. A
    /// corrupt log is left untouched.
    pub fn open<R>(
        path: impl Into<PathBuf>,
        decode: impl FnMut(&str) -> Result<R, String>,
    ) -> Result<(Self, Recovered<R>), DurableError> {
        let path = path.into();
        let recovered = read(&path, decode)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if recovered.torn.is_some() {
            file.set_len(recovered.clean_bytes)?;
        }
        Ok((Self { path, file }, recovered))
    }

    /// The log file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record with a single unbuffered `write` of the record
    /// and its `\n`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `record` contains a newline (it would split
    /// into two lines on reload); otherwise the write failure.
    pub fn append(&mut self, record: &str) -> std::io::Result<()> {
        if record.contains('\n') {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "a log record may not contain a newline",
            ));
        }
        let mut line = Vec::with_capacity(record.len() + 1);
        line.extend_from_slice(record.as_bytes());
        line.push(b'\n');
        self.file.write_all(&line)
    }

    /// `fsync`s the file: every append before it survives a machine crash.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&self) -> std::io::Result<()> {
        self.file.sync_all()
    }

    /// Removes the file. The open handle stays valid — an unlinked file is
    /// anonymous until its last descriptor closes — but nothing should be
    /// appended after a removal.
    ///
    /// # Errors
    ///
    /// Propagates the removal failure.
    pub fn remove(&self) -> std::io::Result<()> {
        std::fs::remove_file(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{json_escape_wire, lookup_str, parse_flat_object};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tdg-durable-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn encode(value: &str) -> String {
        format!("{{\"v\":\"{}\"}}", json_escape_wire(value))
    }

    fn decode(line: &str) -> Result<String, String> {
        lookup_str(&parse_flat_object(line)?, "v")
    }

    #[test]
    fn every_truncation_offset_recovers_the_clean_prefix() {
        let values = [
            "plain",
            "quote\" and \\\"escaped quote\\\"",
            "back\\slash\\\\",
            "new\nline\n",
            "tab\tand a comma, {brace}",
            "multi-byte: é ü 日本語 🎉",
            "",
        ];
        let mut bytes = Vec::new();
        for value in values {
            bytes.extend_from_slice(encode(value).as_bytes());
            bytes.push(b'\n');
        }
        let path = temp_path("prop");
        let appended = "appended after recovery: ✓\n";
        for cut in 0..=bytes.len() {
            let prefix = &bytes[..cut];
            std::fs::write(&path, prefix).unwrap();
            let terminated = prefix.iter().filter(|&&b| b == b'\n').count();
            let clean = prefix.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);

            let loaded = read(&path, decode)
                .unwrap_or_else(|e| panic!("cut {cut}: loading must never fail: {e}"));
            assert_eq!(loaded.records, values[..terminated], "cut {cut}: records");
            assert_eq!(loaded.clean_bytes, clean as u64, "cut {cut}: clean bytes");
            assert_eq!(loaded.torn.is_some(), clean < cut, "cut {cut}: torn iff bytes follow");
            if let Some(torn) = &loaded.torn {
                assert_eq!(torn.line, terminated + 1, "cut {cut}: torn line number");
            }

            let (mut log, reopened) = DurableLog::open(&path, decode).unwrap();
            assert_eq!(reopened, loaded, "cut {cut}: open recovers what read reports");
            log.append(&encode(appended)).unwrap();
            drop(log);
            let reloaded = read(&path, decode).unwrap();
            let mut expected: Vec<&str> = values[..terminated].to_vec();
            expected.push(appended);
            assert_eq!(reloaded.records, expected, "cut {cut}: prefix plus the new record");
            assert_eq!(reloaded.torn, None, "cut {cut}: reopen cut the torn bytes");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interior_damage_is_corrupt_and_left_untouched() {
        let path = temp_path("corrupt");
        let body = format!("{}\ngarbage\n{}\n", encode("a"), encode("b"));
        std::fs::write(&path, &body).unwrap();
        let err = DurableLog::open(&path, decode).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt { line: 2, .. }), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), body, "a corrupt log is evidence");

        // The same damage on the final line is a torn tail, blank lines
        // after it included.
        std::fs::write(&path, format!("{}\ngarbage\n\n", encode("a"))).unwrap();
        let (_, loaded) = DurableLog::open(&path, decode).unwrap();
        assert_eq!(loaded.records, ["a"]);
        assert_eq!(loaded.torn.map(|t| t.line), Some(2));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{}\n", encode("a")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_empty_and_newline_records_are_refused() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let empty = read(&path, decode).unwrap();
        assert_eq!(empty, Recovered { records: Vec::new(), clean_bytes: 0, torn: None });
        assert!(!path.exists(), "read never creates the file");

        let mut log = DurableLog::create(&path).unwrap();
        let err = log.append("two\nlines").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        log.append(&encode("one")).unwrap();
        log.sync().unwrap();
        assert_eq!(read(&path, decode).unwrap().records, ["one"]);
        log.remove().unwrap();
        assert!(!path.exists());
    }
}

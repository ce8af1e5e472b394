//! The per-tenant durable ingest write-ahead log.
//!
//! Every accepted wire line is appended to the tenant's WAL **before** it
//! enters the bounded ingest queue, so a daemon crash can lose only lines
//! the client was never going to consider accepted (they sit in socket
//! buffers and are re-sent on reconnect — the `hello` reply's `acked`
//! count is exactly this WAL's clean-line count). The file is canonical
//! JSON lines in the `tdgraph_graph::wire` flat-object codec:
//!
//! * `{"wal":"open","tenant":...,"engine":...,...}` — one head record,
//!   carrying the hello-vocabulary session fields needed to reopen the
//!   tenant against the same service defaults.
//! * `{"wal":"line","raw":"<escaped wire line>"}` — one accepted line.
//! * `{"wal":"trunc","raw":"<escaped fragment>"}` — a truncated fragment
//!   (EOF mid-line / torn write); recorded for deterministic replay but
//!   **excluded** from the `acked` count, because the client re-sends the
//!   whole line after a reconnect.
//! * `{"wal":"close","n":N,"why":"size|deadline|flush"}` — a batch-close
//!   marker: the oldest `N` unconsumed entries formed one batch.
//!
//! The file is a [`DurableLog`]: each record is one unbuffered `write`
//! (durable against process death, e.g. SIGKILL), and each batch-close
//! marker is followed by one `fsync` (durable against machine crash at
//! batch granularity — the sync covers the entries before the marker
//! too).
//!
//! Recovery ([`TenantWal::load`]) is the log's recovering open: a torn
//! final record is dropped, reported and cut off before new appends, and
//! interior damage — which no crash can cause — is an error. Close markers
//! re-group entries into the original batches; entries after the last
//! marker are the un-batched tail, re-fed into the batch former on
//! restart.

use std::io::{Error, ErrorKind};
use std::path::{Path, PathBuf};
use std::time::Duration;

use tdgraph_graph::durable::{DurableError, DurableLog};
use tdgraph_graph::wire::{json_escape_wire, lookup, lookup_str, parse_flat_object};

use crate::batcher::BatchClose;

/// One recovered WAL entry: a raw accepted line or a truncated fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry {
    /// A complete accepted wire line, byte-exact.
    Line(String),
    /// A fragment cut by connection loss or a torn write.
    Truncated(String),
}

/// The head record of a tenant WAL: everything needed to reopen the
/// session on recovery, in the `hello` request vocabulary (resolved
/// against the *current* service session defaults — recovery assumes the
/// daemon restarts with the same defaults it crashed with).
///
/// `algo` is stored as the hello label (`sssp`, `cc`, `pagerank`,
/// `adsorption`); an explicitly rooted SSSP round-trips as hub-rooted,
/// which is identical for sessions opened over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalHead {
    /// Tenant name.
    pub tenant: String,
    /// Engine registry key.
    pub engine: String,
    /// Dataset abbreviation.
    pub dataset: String,
    /// Sizing label.
    pub sizing: String,
    /// Algorithm label.
    pub algo: String,
    /// Batch-former size threshold (recovery re-forms the tail with the
    /// same threshold, so batch boundaries stay deterministic).
    pub batch_max_entries: usize,
    /// Batch-former latency deadline in milliseconds.
    pub batch_deadline_ms: u64,
}

impl WalHead {
    /// The batch-former deadline as a [`Duration`].
    #[must_use]
    pub fn batch_deadline(&self) -> Duration {
        Duration::from_millis(self.batch_deadline_ms)
    }

    fn render(&self) -> String {
        format!(
            "{{\"wal\":\"open\",\"tenant\":\"{}\",\"engine\":\"{}\",\"dataset\":\"{}\",\"sizing\":\"{}\",\"algo\":\"{}\",\"batch_max_entries\":{},\"batch_deadline_ms\":{}}}",
            json_escape_wire(&self.tenant),
            json_escape_wire(&self.engine),
            json_escape_wire(&self.dataset),
            json_escape_wire(&self.sizing),
            json_escape_wire(&self.algo),
            self.batch_max_entries,
            self.batch_deadline_ms,
        )
    }

    fn parse(fields: &[(String, String)]) -> Result<Self, String> {
        let int = |key: &str| -> Result<u64, String> {
            lookup(fields, key)?
                .parse()
                .map_err(|e| format!("wal open field {key:?} is not an integer: {e}"))
        };
        Ok(Self {
            tenant: lookup_str(fields, "tenant")?,
            engine: lookup_str(fields, "engine")?,
            dataset: lookup_str(fields, "dataset")?,
            sizing: lookup_str(fields, "sizing")?,
            algo: lookup_str(fields, "algo")?,
            batch_max_entries: usize::try_from(int("batch_max_entries")?)
                .map_err(|e| format!("batch_max_entries overflows usize: {e}"))?,
            batch_deadline_ms: int("batch_deadline_ms")?,
        })
    }
}

/// One decoded WAL line.
enum WalRecord {
    Head(WalHead),
    Entry(WalEntry),
    Close(usize),
}

impl WalRecord {
    fn decode(line: &str) -> Result<Self, String> {
        let fields = parse_flat_object(line)?;
        match lookup_str(&fields, "wal")?.as_str() {
            "open" => WalHead::parse(&fields).map(WalRecord::Head),
            "line" => lookup_str(&fields, "raw").map(|raw| WalRecord::Entry(WalEntry::Line(raw))),
            "trunc" => {
                lookup_str(&fields, "raw").map(|raw| WalRecord::Entry(WalEntry::Truncated(raw)))
            }
            "close" => lookup(&fields, "n")?
                .parse()
                .map(WalRecord::Close)
                .map_err(|e| format!("wal close field \"n\" is not a count: {e}")),
            other => Err(format!("unknown wal record {other:?}")),
        }
    }
}

/// Everything recovered from one tenant's WAL file.
#[derive(Debug)]
pub struct LoadedWal {
    /// The session head record.
    pub head: WalHead,
    /// Closed batches, in close order, each in arrival order.
    pub batches: Vec<Vec<WalEntry>>,
    /// Entries accepted after the last close marker (the un-batched
    /// tail), in arrival order.
    pub tail: Vec<WalEntry>,
    /// Clean accepted lines across batches and tail — the resume offset
    /// reported to reconnecting clients. Truncated fragments are excluded.
    pub acked: u64,
    /// Whether a torn tail record was detected and dropped.
    pub torn_tail: bool,
    /// The WAL handle, reopened in append mode so the recovered tenant
    /// keeps logging to the same file.
    pub wal: TenantWal,
}

/// An open per-tenant WAL file.
#[derive(Debug)]
pub struct TenantWal {
    log: DurableLog,
}

impl TenantWal {
    /// Creates (truncating any stale file of the same name) the WAL for
    /// `head.tenant` under `dir`, writes and syncs the head record.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file I/O failures.
    pub fn create(dir: &Path, head: &WalHead) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut log = DurableLog::create(dir.join(file_name(&head.tenant)))?;
        log.append(&head.render())?;
        log.sync()?;
        Ok(Self { log })
    }

    /// The WAL file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Appends one accepted line (unbuffered; durable against process
    /// death, synced at the next batch close).
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn append_line(&mut self, raw: &str) -> std::io::Result<()> {
        self.log.append(&format!("{{\"wal\":\"line\",\"raw\":\"{}\"}}", json_escape_wire(raw)))
    }

    /// Appends one truncated fragment.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn append_truncated(&mut self, fragment: &str) -> std::io::Result<()> {
        self.log
            .append(&format!("{{\"wal\":\"trunc\",\"raw\":\"{}\"}}", json_escape_wire(fragment)))
    }

    /// Appends a batch-close marker covering the oldest `n` unconsumed
    /// entries, then syncs the file — the WAL's durability point.
    ///
    /// # Errors
    ///
    /// Propagates the write or sync failure.
    pub fn append_close(&mut self, n: usize, why: BatchClose) -> std::io::Result<()> {
        self.log.append(&format!("{{\"wal\":\"close\",\"n\":{n},\"why\":\"{}\"}}", why.label()))?;
        self.log.sync()
    }

    /// Removes the WAL file (tenant finished cleanly; nothing left to
    /// recover). Nothing is appended after a finish.
    ///
    /// # Errors
    ///
    /// Propagates the removal failure.
    pub fn remove(&self) -> std::io::Result<()> {
        self.log.remove()
    }

    /// Recovers a tenant WAL: reopens it for appending after its last
    /// complete record and re-groups the entries into their recorded
    /// batches.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the file has no head record, is damaged before
    /// its final line, or has a close marker covering entries it does not
    /// hold (nothing trustworthy to recover); plain I/O errors otherwise.
    /// A torn *tail* is not an error — it is dropped and flagged in
    /// [`LoadedWal::torn_tail`].
    pub fn load(path: &Path) -> std::io::Result<LoadedWal> {
        let invalid = |why: String| {
            Error::new(ErrorKind::InvalidData, format!("wal {}: {why}", path.display()))
        };
        let (log, recovered) = DurableLog::open(path, WalRecord::decode).map_err(|e| match e {
            DurableError::Io(e) => e,
            corrupt @ DurableError::Corrupt { .. } => invalid(corrupt.to_string()),
        })?;
        let mut records = recovered.records.into_iter();
        let Some(WalRecord::Head(head)) = records.next() else {
            return Err(invalid("no head record".to_string()));
        };
        let mut batches: Vec<Vec<WalEntry>> = Vec::new();
        let mut pending: Vec<WalEntry> = Vec::new();
        for record in records {
            match record {
                WalRecord::Entry(entry) => pending.push(entry),
                // Markers are written after their entries, so a marker
                // always finds them.
                WalRecord::Close(n) if n <= pending.len() => {
                    let rest = pending.split_off(n);
                    batches.push(std::mem::replace(&mut pending, rest));
                }
                WalRecord::Close(n) => {
                    return Err(invalid(format!(
                        "close marker covers {n} of {} entries",
                        pending.len()
                    )))
                }
                WalRecord::Head(_) => return Err(invalid("second head record".to_string())),
            }
        }
        let acked = batches
            .iter()
            .flatten()
            .chain(pending.iter())
            .filter(|e| matches!(e, WalEntry::Line(_)))
            .count() as u64;
        Ok(LoadedWal {
            head,
            batches,
            tail: pending,
            acked,
            torn_tail: recovered.torn.is_some(),
            wal: TenantWal { log },
        })
    }
}

/// Scans `dir` for tenant WAL files, sorted by file name so recovery
/// order is deterministic.
///
/// # Errors
///
/// Propagates the directory read failure. A missing directory is an empty
/// scan, not an error (nothing was ever logged).
pub fn scan_wal_dir(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "wal"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// The WAL file name for `tenant`: injective percent-encoding of the
/// tenant name (hostile names cannot escape the directory or collide).
#[must_use]
pub fn file_name(tenant: &str) -> String {
    let mut out = String::with_capacity(tenant.len() + 4);
    for b in tenant.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out.push_str(".wal");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head() -> WalHead {
        WalHead {
            tenant: "alpha".to_string(),
            engine: "ligra-o".to_string(),
            dataset: "AZ".to_string(),
            sizing: "tiny".to_string(),
            algo: "sssp".to_string(),
            batch_max_entries: 8,
            batch_deadline_ms: 600_000,
        }
    }

    #[test]
    fn file_names_are_injective_and_path_safe() {
        assert_eq!(file_name("alpha"), "alpha.wal");
        assert_eq!(file_name("../evil"), "%2E%2E%2Fevil.wal");
        // Injective: a literal "%2F" in a tenant name re-encodes ('%' is
        // itself escaped), so it cannot collide with an encoded '/'.
        assert_ne!(file_name("a/b"), file_name("a%2Fb"));
        assert!(!file_name("x/../../y").contains('/'));
    }

    #[test]
    fn wal_round_trips_batches_tail_and_acked() {
        let dir = std::env::temp_dir().join(format!("tdg-wal-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = TenantWal::create(&dir, &head()).unwrap();
        wal.append_line("{\"op\":\"add\",\"src\":1,\"dst\":2,\"weight\":1}").unwrap();
        wal.append_line("garbage line").unwrap();
        wal.append_close(2, BatchClose::Size).unwrap();
        wal.append_truncated("{\"op\":\"ad").unwrap();
        wal.append_line("{\"op\":\"del\",\"src\":3,\"dst\":4}").unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);

        let loaded = TenantWal::load(&path).unwrap();
        assert_eq!(loaded.head, head());
        assert_eq!(loaded.batches.len(), 1);
        assert_eq!(loaded.batches[0].len(), 2);
        assert_eq!(
            loaded.tail,
            vec![
                WalEntry::Truncated("{\"op\":\"ad".to_string()),
                WalEntry::Line("{\"op\":\"del\",\"src\":3,\"dst\":4}".to_string()),
            ]
        );
        // 3 clean lines; the truncated fragment is excluded from acked.
        assert_eq!(loaded.acked, 3);
        assert!(!loaded.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tenant_name_with_a_newline_round_trips_through_the_head() {
        let dir = std::env::temp_dir().join(format!("tdg-wal-nl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = WalHead { tenant: "a\nb".to_string(), ..head() };
        let path = TenantWal::create(&dir, &h).unwrap().path().to_path_buf();
        let loaded = TenantWal::load(&path).unwrap();
        assert_eq!(loaded.head, h);
        assert!(!loaded.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_survives_truncation_at_every_byte_offset() {
        // The WAL corruption-tolerance property: for *any* crash point k,
        // loading the first k bytes recovers a prefix of the records —
        // never an error, never an entry invented — and the dropped tail
        // is flagged.
        let dir = std::env::temp_dir().join(format!("tdg-wal-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = TenantWal::create(&dir, &head()).unwrap();
        for i in 0..6 {
            wal.append_line(&format!(
                "{{\"op\":\"add\",\"src\":{i},\"dst\":{},\"weight\":1}}",
                i + 1
            ))
            .unwrap();
            if i % 2 == 1 {
                wal.append_close(2, BatchClose::Size).unwrap();
            }
        }
        wal.append_truncated("torn \"frag\\ment").unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let full = TenantWal::load(&path).unwrap();
        assert_eq!(full.acked, 6);
        assert_eq!(full.batches.len(), 3);

        let head_line_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut_path = dir.join("cut.wal");
        for k in 0..=bytes.len() {
            std::fs::write(&cut_path, &bytes[..k]).unwrap();
            let loaded = TenantWal::load(&cut_path);
            if k < head_line_len {
                assert!(loaded.is_err(), "no head record at cut {k}");
                continue;
            }
            let loaded = loaded.unwrap_or_else(|e| panic!("cut {k}: {e}"));
            // Recovered content is a prefix: acked and batch count are
            // monotone in k and bounded by the full file's.
            assert!(loaded.acked <= full.acked, "cut {k}");
            assert!(loaded.batches.len() <= full.batches.len(), "cut {k}");
            // A cut mid-record is flagged torn; a cut landing exactly on
            // a record boundary is indistinguishable from a clean,
            // shorter log — and must load as one.
            assert_eq!(loaded.torn_tail, bytes[k - 1] != b'\n', "cut {k}");
            // Every recovered clean line is one of the six we wrote, in
            // order (prefix property on the flattened entry list).
            let lines: Vec<&String> = loaded
                .batches
                .iter()
                .flatten()
                .chain(loaded.tail.iter())
                .filter_map(|e| match e {
                    WalEntry::Line(s) => Some(s),
                    WalEntry::Truncated(_) => None,
                })
                .collect();
            for (i, line) in lines.iter().enumerate() {
                assert_eq!(
                    **line,
                    format!("{{\"op\":\"add\",\"src\":{i},\"dst\":{},\"weight\":1}}", i + 1),
                    "cut {k} line {i}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_lists_wal_files_sorted_and_tolerates_missing_dir() {
        let dir = std::env::temp_dir().join(format!("tdg-wal-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(scan_wal_dir(&dir).unwrap().is_empty());
        let mut h = head();
        for name in ["zeta", "alpha"] {
            h.tenant = name.to_string();
            TenantWal::create(&dir, &h).unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let scanned = scan_wal_dir(&dir).unwrap();
        assert_eq!(
            scanned
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().to_string())
                .collect::<Vec<_>>(),
            vec!["alpha.wal", "zeta.wal"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

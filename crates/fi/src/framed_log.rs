//! The one durable-log format: an append-only, CRC-framed JSONL file.
//!
//! The run journal ([`crate::journal`]) and the daemon's submission ledger
//! are both built on this module. Line 1 is a JSON header; every following
//! line is one record, prefixed with the CRC32 (IEEE) of its JSON payload as
//! eight lowercase hex digits and a space:
//!
//! ```text
//! {"version":4,"spec":{...},"master_seed":42,"horizon_ms":6000}
//! 89abcdef {"k":17,"attempts":1,"record":{...},"stats":{...}}
//! ```
//!
//! [`scan`] reads such a file without modifying it. A record that fails its
//! CRC (or does not parse) at the **end** of the file is the torn tail of an
//! interrupted write. The same failure **mid-file** — with intact records
//! after it — can only be silent corruption (bit rot, a bad copy, a buggy
//! tool), and resuming over it would quietly drop a record, so it is the
//! typed [`LogError::Corrupt`] naming the first bad line.
//!
//! [`FramedLog`] appends to such a file. Every record reaches the OS before
//! [`FramedLog::append`] returns; `fsync` runs every `fsync_interval`
//! appends (the caller asks [`FramedLog::sync_due`]). `ENOSPC` is retried a
//! bounded number of times with a short growing sleep: transient pressure
//! (log rotation, tmp reaping) often clears within milliseconds, while a
//! genuinely full disk becomes [`LogError::DiskFull`]. A failed append may
//! leave a torn prefix in the file; the next append first cuts the file
//! back to the end of the last complete record, so an acknowledged record
//! is never glued onto a tear.
//!
//! Chaos stays with the callers: each consults its own
//! [`crate::chaos::ChaosInjector`] hook and passes the resulting
//! [`IoFaultKind`] into [`FramedLog::append`] or [`FramedLog::sync`].

use crate::chaos::IoFaultKind;
use permea_obs::{Counter, Histogram};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How many times a write or fsync that failed with `ENOSPC` is retried
/// before giving up with [`LogError::DiskFull`].
pub const ENOSPC_RETRIES: u32 = 3;

const ENOSPC: i32 = 28; // on every unix we run on
const EIO: i32 = 5;

/// Why reading or writing a framed log failed. The journal and the ledger
/// map it into their own error types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// An I/O, header or serialisation failure, with context.
    Failed(String),
    /// `ENOSPC` persisted past [`ENOSPC_RETRIES`].
    DiskFull {
        /// Retries spent before giving up.
        retries: u32,
    },
    /// The record on 1-based physical line `line` is invalid but a later
    /// record is intact.
    Corrupt {
        /// The first invalid line (the header is line 1).
        line: usize,
    },
}

/// CRC32 (IEEE 802.3, reflected) of `data` — the checksum prefixed to every
/// record line. Computed bitwise; record lines are short enough that a
/// lookup table would buy nothing.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encodes one record as its on-disk line, without the trailing newline:
/// eight lowercase hex CRC32 digits, a space, the JSON payload.
///
/// # Errors
///
/// [`LogError::Failed`] when the record does not serialise.
pub fn encode<T: Serialize>(record: &T) -> Result<String, LogError> {
    let json = serde_json::to_string(record)
        .map_err(|e| LogError::Failed(format!("serialising record: {e}")))?;
    Ok(format!("{:08x} {json}", crc32(json.as_bytes())))
}

/// Decodes one record line (without its newline). Returns `None` on any
/// framing, checksum or parse failure — [`scan`] decides whether that means
/// a torn tail or corruption.
fn decode<T: Deserialize>(line: &[u8]) -> Option<T> {
    let line = std::str::from_utf8(line).ok()?;
    let (crc_hex, json) = line.split_once(' ')?;
    if crc_hex.len() != 8 || u32::from_str_radix(crc_hex, 16).ok()? != crc32(json.as_bytes()) {
        return None;
    }
    serde_json::from_str(json).ok()
}

/// What [`scan`] found in a framed log.
#[derive(Debug, Clone)]
pub struct Scan<H, T> {
    /// The parsed header line.
    pub header: H,
    /// Every valid record, in file order.
    pub records: Vec<T>,
    /// Byte offset just past the last valid record (or the header).
    pub valid_end: u64,
    /// `true` when the file ends in a torn (incomplete or invalid) line.
    pub torn_tail: bool,
}

/// Scans the bytes of a framed log; `what` names it in error messages.
///
/// # Errors
///
/// [`LogError::Failed`] when the header line is missing or unparseable,
/// [`LogError::Corrupt`] when an invalid record line is followed by a valid
/// one.
pub fn scan<H: Deserialize, T: Deserialize>(
    data: &[u8],
    what: &str,
) -> Result<Scan<H, T>, LogError> {
    let mut lines = data.split_inclusive(|&b| b == b'\n');
    let header = lines
        .next()
        .and_then(|l| l.strip_suffix(b"\n"))
        .ok_or_else(|| LogError::Failed(format!("{what} holds no complete header line")))?;
    let mut offset = header.len() + 1;
    let header = std::str::from_utf8(header)
        .map_err(|_| LogError::Failed(format!("{what} header is not valid UTF-8")))?;
    let header = serde_json::from_str(header)
        .map_err(|e| LogError::Failed(format!("parsing {what} header: {e}")))?;

    let mut records = Vec::new();
    let mut valid_end = offset;
    let mut first_invalid: Option<usize> = None;
    for (idx, line) in lines.enumerate() {
        offset += line.len();
        match (line.strip_suffix(b"\n").and_then(decode), first_invalid) {
            (Some(_), Some(line)) => return Err(LogError::Corrupt { line }),
            (Some(record), None) => {
                records.push(record);
                valid_end = offset;
            }
            // Line 1 is the header; record `idx` sits on line idx+2.
            (None, _) => {
                first_invalid.get_or_insert(idx + 2);
            }
        }
    }
    Ok(Scan {
        header,
        records,
        valid_end: valid_end as u64,
        torn_tail: first_invalid.is_some(),
    })
}

/// Reads and [`scan`]s the framed log at `path` without modifying it.
///
/// # Errors
///
/// As [`scan`], plus [`LogError::Failed`] when the file cannot be read.
pub fn read<H: Deserialize, T: Deserialize>(
    path: &Path,
    what: &str,
) -> Result<Scan<H, T>, LogError> {
    let data = std::fs::read(path)
        .map_err(|e| LogError::Failed(format!("reading {}: {e}", path.display())))?;
    scan(&data, &format!("{what} {}", path.display()))
}

/// An open framed log, positioned for appending.
#[derive(Debug)]
pub struct FramedLog {
    path: PathBuf,
    what: &'static str,
    file: File,
    /// Byte offset just past the last complete record.
    valid_end: u64,
    /// A failed append may have left bytes past `valid_end`.
    torn: bool,
    unsynced: usize,
    fsync_interval: usize,
    appends: Counter,
    fsyncs: Counter,
    fsync_micros: Histogram,
}

impl FramedLog {
    /// Creates a fresh log at `path` (overwriting any file there), writing
    /// and syncing the header line. `what` names the log in error messages.
    ///
    /// # Errors
    ///
    /// [`LogError::Failed`] on I/O failure.
    pub fn create<H: Serialize>(
        path: &Path,
        what: &'static str,
        header: &H,
        fsync_interval: usize,
    ) -> Result<Self, LogError> {
        let mut line = serde_json::to_string(header)
            .map_err(|e| LogError::Failed(format!("serialising {what} header: {e}")))?;
        line.push('\n');
        // Opening at offset 0 creates the file or cuts it to nothing.
        let mut log = Self::reopen(path, what, 0, fsync_interval)?;
        log.file
            .write_all(line.as_bytes())
            .and_then(|()| log.file.sync_data())
            .map_err(|e| log.fail("writing the header of", e))?;
        log.valid_end = line.len() as u64;
        Ok(log)
    }

    /// Opens the log at `path` for appending after its first `valid_end`
    /// bytes — the [`Scan::valid_end`] of its contents — cutting off
    /// anything beyond, so a torn tail is gone before the next append.
    ///
    /// # Errors
    ///
    /// [`LogError::Failed`] on I/O failure.
    pub fn reopen(
        path: &Path,
        what: &'static str,
        valid_end: u64,
        fsync_interval: usize,
    ) -> Result<Self, LogError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| LogError::Failed(format!("opening {what}: {e}")))?;
        let mut log = FramedLog {
            path: path.to_path_buf(),
            what,
            file,
            valid_end,
            torn: false,
            unsynced: 0,
            fsync_interval: fsync_interval.max(1),
            appends: Counter::noop(),
            fsyncs: Counter::noop(),
            fsync_micros: Histogram::noop(),
        };
        log.cut_to_valid_end()
            .map_err(|e| log.fail("truncating", e))?;
        Ok(log)
    }

    fn fail(&self, doing: &str, e: io::Error) -> LogError {
        LogError::Failed(format!("{doing} {}: {e}", self.what))
    }

    /// Runs `op` until it succeeds, retrying `ENOSPC` up to
    /// [`ENOSPC_RETRIES`] times with a short growing sleep. An injected
    /// `fault` stands in for `op`'s outcome: `enospc` fails every attempt,
    /// `enospc-once` the first one, `eio` and `short` fail hard.
    fn retry_enospc(
        &mut self,
        doing: &str,
        fault: Option<IoFaultKind>,
        mut op: impl FnMut(&mut Self) -> io::Result<()>,
    ) -> Result<(), LogError> {
        let os_error = io::Error::from_raw_os_error;
        let mut retries = 0;
        loop {
            let result = match fault {
                Some(IoFaultKind::Eio | IoFaultKind::Short) => Err(os_error(EIO)),
                Some(IoFaultKind::Enospc) => Err(os_error(ENOSPC)),
                Some(IoFaultKind::EnospcOnce) if retries == 0 => Err(os_error(ENOSPC)),
                _ => op(self),
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) if e.raw_os_error() != Some(ENOSPC) => return Err(self.fail(doing, e)),
                Err(_) if retries == ENOSPC_RETRIES => return Err(LogError::DiskFull { retries }),
                Err(_) => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(5 * u64::from(retries)));
                }
            }
        }
    }

    fn cut_to_valid_end(&mut self) -> io::Result<()> {
        self.file.set_len(self.valid_end)?;
        self.file.seek(SeekFrom::Start(self.valid_end)).map(drop)
    }

    /// The file this log persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sets the fsync batching interval, clamped to at least 1.
    pub fn set_fsync_interval(&mut self, interval: usize) {
        self.fsync_interval = interval.max(1);
    }

    /// The active fsync batching interval.
    pub fn fsync_interval(&self) -> usize {
        self.fsync_interval
    }

    /// `true` once `fsync_interval` appends have gone unsynced.
    pub fn sync_due(&self) -> bool {
        self.unsynced >= self.fsync_interval
    }

    /// Attaches telemetry: an append counter, an fsync counter and an
    /// fsync-latency histogram.
    pub fn set_telemetry(&mut self, appends: Counter, fsyncs: Counter, fsync_micros: Histogram) {
        self.appends = appends;
        self.fsyncs = fsyncs;
        self.fsync_micros = fsync_micros;
    }

    /// Appends one record line and hands it to the OS (no `fsync`; see
    /// [`FramedLog::sync_due`]). `fault` is the caller's injected chaos
    /// fault for this append, if any.
    ///
    /// # Errors
    ///
    /// [`LogError::DiskFull`] when `ENOSPC` outlasts the bounded retries,
    /// [`LogError::Failed`] on any other I/O failure — including a failed
    /// repair of an earlier failed append, in which case nothing is written.
    pub fn append<T: Serialize>(
        &mut self,
        record: &T,
        fault: Option<IoFaultKind>,
    ) -> Result<(), LogError> {
        let mut line = encode(record)?;
        line.push('\n');
        if fault == Some(IoFaultKind::Short) {
            // A torn partial write: a prefix of the line reaches the file
            // with no newline, then the device fails (in `retry_enospc`).
            self.torn = true;
            let _ = self.file.write_all(&line.as_bytes()[..line.len() / 2]);
        }
        self.retry_enospc("appending to", fault, |log| {
            // Cut away whatever an earlier failed write left behind.
            if log.torn {
                log.cut_to_valid_end()?;
            }
            log.torn = true;
            log.file.write_all(line.as_bytes())
        })?;
        self.torn = false;
        self.valid_end += line.len() as u64;
        self.unsynced += 1;
        self.appends.inc();
        Ok(())
    }

    /// `fsync`s the file. `fault` is the caller's injected chaos fault for
    /// this sync, if any.
    ///
    /// # Errors
    ///
    /// [`LogError::DiskFull`] when `ENOSPC` outlasts the bounded retries,
    /// [`LogError::Failed`] on any other I/O failure.
    pub fn sync(&mut self, fault: Option<IoFaultKind>) -> Result<(), LogError> {
        let started = Instant::now();
        self.retry_enospc("syncing", fault, |log| log.file.sync_data())?;
        self.fsyncs.inc();
        self.fsync_micros
            .observe(started.elapsed().as_micros() as u64);
        self.unsynced = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Hdr {
        v: u32,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Rec {
        n: u32,
    }

    const HEADER: &[u8] = b"{\"v\":1}\n";

    fn lines(ns: &[u32]) -> Vec<u8> {
        let mut data = Vec::new();
        for &n in ns {
            data.extend_from_slice(encode(&Rec { n }).unwrap().as_bytes());
            data.push(b'\n');
        }
        data
    }

    fn scan_recs(data: &[u8]) -> Result<Scan<Hdr, Rec>, LogError> {
        scan(data, "log")
    }

    fn ns(s: &Scan<Hdr, Rec>) -> Vec<u32> {
        s.records.iter().map(|r| r.n).collect()
    }

    #[test]
    fn scan_reports_records_valid_end_and_clean_tail() {
        let data = [HEADER, &lines(&[1, 2, 3])].concat();
        let s = scan_recs(&data).unwrap();
        assert_eq!(s.header, Hdr { v: 1 });
        assert_eq!(ns(&s), vec![1, 2, 3]);
        assert_eq!(s.valid_end, data.len() as u64);
        assert!(!s.torn_tail);
    }

    #[test]
    fn scan_tells_a_torn_tail_from_mid_file_corruption() {
        let clean = [HEADER, &lines(&[1, 2])].concat();
        // An unterminated prefix, or invalid complete lines, at the end: torn.
        for tail in [&b"0123"[..], &b"00000000 {}\nxyz\n"[..]] {
            let s = scan_recs(&[&clean[..], tail].concat()).unwrap();
            assert_eq!(ns(&s), vec![1, 2]);
            assert_eq!(s.valid_end, clean.len() as u64);
            assert!(s.torn_tail);
        }
        // An invalid line followed by a valid one: corrupt, named by line.
        let data = [HEADER, &lines(&[1]), b"garbage\n", &lines(&[2])].concat();
        assert_eq!(scan_recs(&data).unwrap_err(), LogError::Corrupt { line: 3 });
    }

    #[test]
    fn scan_needs_a_complete_header() {
        for data in [&b""[..], &b"{\"v\":1}"[..], &b"{not json\n"[..]] {
            assert!(matches!(scan_recs(data), Err(LogError::Failed(_))));
        }
    }

    #[test]
    fn append_after_a_failed_append_cuts_the_tear_first() {
        let dir = std::env::temp_dir().join(format!("permea-framed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        let mut log = FramedLog::create(&path, "log", &Hdr { v: 1 }, 1).unwrap();
        assert!(log.append(&Rec { n: 1 }, Some(IoFaultKind::Short)).is_err());
        log.append(&Rec { n: 2 }, None).unwrap();
        log.sync(None).unwrap();
        drop(log);
        let s = scan_recs(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(ns(&s), vec![2]);
        assert!(!s.torn_tail);
    }
}

//! Write-ahead run journal: append-only JSONL persistence for campaigns.
//!
//! A full paper-scale campaign executes tens of thousands of injection runs
//! over minutes of wall-clock time; a crash, OOM kill or `kill -9` halfway
//! through should not throw that work away. The journal records every
//! finished run as one JSON line, keyed by its coordinate index `k` in the
//! spec's deterministic [`crate::spec::CampaignSpec::coordinates`]
//! enumeration. Because per-run seeds are derived from `k` alone, replaying
//! journaled records and re-executing the missing coordinates reconstructs
//! the uninterrupted [`crate::results::CampaignResult`] *byte for byte*.
//!
//! Layout:
//!
//! * line 1 — a [`JournalHeader`]: format version, campaign spec, master
//!   seed and horizon. On resume the header is compared against the
//!   campaign being run; any disagreement is a typed
//!   [`FiError::JournalMismatch`] — a journal never silently contaminates a
//!   different campaign.
//! * lines 2.. — one CRC32-framed [`JournalEntry`] per finished run.
//!
//! The file is a [`crate::framed_log`], which owns the format, the
//! torn-tail vs mid-file corruption rule ([`FiError::JournalCorrupt`]
//! names the first corrupt line), the bounded `ENOSPC` retry
//! ([`FiError::JournalDiskFull`]) and the repair after a failed append.
//! Every record is handed to the OS immediately (so a process kill loses
//! nothing) and `fsync`ed in batches (default [`DEFAULT_FSYNC_INTERVAL`],
//! see [`RunJournal::set_fsync_interval`]), bounding loss on power failure.
//! A torn tail — the signature of `kill -9` mid-write — is reported via
//! [`LoadedJournal::truncated_tail`] and cut away before appending resumes.
//!
//! Each entry also carries the run's deterministic
//! [`RunStats`] (ticks simulated, fast-forward shortcuts taken), which is
//! what lets a resumed campaign's telemetry totals merge to exactly the
//! uninterrupted values, plus the number of *attempts* the executor needed
//! (always 1 in-process; retries under process isolation push it higher).

use crate::chaos::ChaosInjector;
use crate::env::atomic_write;
use crate::error::FiError;
use crate::framed_log::{self, FramedLog, LogError, Scan};
use crate::results::{RunRecord, RunStats};
use crate::spec::CampaignSpec;
use permea_obs::Obs;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal format version; bumped on any incompatible layout change.
/// Version 2 added per-entry [`RunStats`]; version 3 added the per-record
/// CRC32 prefix and the per-coordinate attempt count; version 4 carries
/// the adaptive sampling plan inside the header's spec, so a journal can
/// replay the planner's coordinate stream (dense and adaptive journals can
/// never silently resume each other).
pub const JOURNAL_VERSION: u32 = 4;

/// Default fsync batching: records are `fsync`ed every this many appends
/// (each append is still handed to the OS immediately). Campaigns override
/// it through [`crate::campaign::CampaignConfig::journal_fsync_interval`].
pub const DEFAULT_FSYNC_INTERVAL: usize = 64;

/// First line of a journal: identifies the campaign the records belong to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// The campaign spec whose coordinate enumeration keys the records.
    pub spec: CampaignSpec,
    /// Master seed the per-run seeds derive from.
    pub master_seed: u64,
    /// Campaign horizon, when one was configured.
    pub horizon_ms: Option<u64>,
}

impl JournalHeader {
    /// Builds the header for a campaign.
    pub fn new(spec: &CampaignSpec, master_seed: u64, horizon_ms: Option<u64>) -> Self {
        JournalHeader {
            version: JOURNAL_VERSION,
            spec: spec.clone(),
            master_seed,
            horizon_ms,
        }
    }

    /// Checks this header against another, returning the first disagreeing
    /// field.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::JournalMismatch`] naming the field.
    pub fn ensure_matches(&self, other: &JournalHeader) -> Result<(), FiError> {
        let fields = [
            ("version", self.version == other.version),
            ("master_seed", self.master_seed == other.master_seed),
            ("horizon_ms", self.horizon_ms == other.horizon_ms),
            ("spec", self.spec == other.spec),
        ];
        match fields.into_iter().find(|&(_, same)| !same) {
            Some((field, _)) => Err(FiError::JournalMismatch { field }),
            None => Ok(()),
        }
    }
}

/// One journaled run: the coordinate index, the number of attempts the
/// executor needed, the finished record and the run's deterministic
/// execution statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Coordinate index in [`CampaignSpec::coordinates`] order; also the
    /// input to per-run seed derivation.
    pub k: u64,
    /// Execution attempts this coordinate took (1 unless process isolation
    /// retried it after a worker death).
    pub attempts: u32,
    /// The finished run record, including its outcome.
    pub record: RunRecord,
    /// Deterministic per-run execution statistics, merged into campaign
    /// telemetry on resume.
    pub stats: RunStats,
}

impl JournalEntry {
    /// `true` when both entries carry the same run result (record and
    /// stats), whatever their attempt counts.
    fn same_run(&self, other: &JournalEntry) -> bool {
        self.record == other.record && self.stats == other.stats
    }
}

/// What [`RunJournal::open_or_create`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadedJournal {
    /// Number of complete records recovered.
    pub recovered: usize,
    /// `true` when the file ended in a torn (incomplete or unparseable)
    /// line that was truncated away — the signature of a hard kill
    /// mid-write.
    pub truncated_tail: bool,
}

impl From<LogError> for FiError {
    fn from(e: LogError) -> Self {
        match e {
            LogError::Failed(message) => FiError::Journal { message },
            LogError::DiskFull { retries } => FiError::JournalDiskFull { retries },
            LogError::Corrupt { line } => FiError::JournalCorrupt { line },
        }
    }
}

/// Reads and scans the journal at `path` without modifying it.
fn scan_journal(path: &Path) -> Result<Scan<JournalHeader, JournalEntry>, FiError> {
    Ok(framed_log::read(path, "journal")?)
}

/// A journal read without opening it for appending: the parsed header, the
/// surviving entries keyed by coordinate, and whether the file ended in a
/// torn tail.
#[derive(Debug, Clone)]
pub struct ReadJournal {
    /// The campaign header on line 1.
    pub header: JournalHeader,
    /// All complete records, keyed by coordinate index.
    pub entries: HashMap<u64, JournalEntry>,
    /// `true` when the file ended in a torn (incomplete or unparseable)
    /// line. Read-only access never truncates the file.
    pub truncated_tail: bool,
}

/// Reads a journal without modifying it: parses the header, recovers every
/// complete record and *reports* (rather than truncates) a torn tail. The
/// shard-merge path uses this so merging never mutates its inputs.
///
/// # Errors
///
/// Returns [`FiError::Journal`] when the file is missing or its header is
/// unreadable, and [`FiError::JournalCorrupt`] when a record fails its CRC
/// mid-file with intact records after it.
pub fn read_journal(path: impl AsRef<Path>) -> Result<ReadJournal, FiError> {
    let scan = scan_journal(path.as_ref())?;
    Ok(ReadJournal {
        header: scan.header,
        entries: scan.records.into_iter().map(|e| (e.k, e)).collect(),
        truncated_tail: scan.torn_tail,
    })
}

/// Outcome of [`merge_journals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeSummary {
    /// Journals read.
    pub inputs: usize,
    /// Distinct coordinates written to the merged journal.
    pub records: usize,
    /// Duplicate records (same coordinate, identical contents) collapsed;
    /// the merged entry keeps the *maximum* attempt count.
    pub duplicates: usize,
    /// Input journals whose torn tail was skipped (their complete records
    /// were still merged).
    pub torn_tails: usize,
}

/// Merges shard journals into one resumable journal at `out`.
///
/// All inputs must carry the same campaign header (the first input is the
/// reference). Records are united by coordinate: a coordinate present in
/// several inputs must carry an identical record and stats everywhere —
/// the merged entry keeps the maximum attempt count — and any disagreement
/// aborts the merge. The output is written header-first, then entries in
/// ascending coordinate order, so merging the shards of a dense campaign
/// reproduces the unsharded single-threaded journal byte for byte. Inputs
/// are never modified; a torn tail in an input only drops the torn line.
/// The output is written with [`atomic_write`], so a crash mid-merge can
/// never leave a torn journal at `out`.
///
/// # Errors
///
/// Returns [`FiError::JournalMismatch`] when input headers disagree,
/// [`FiError::JournalMergeConflict`] when two inputs carry different
/// records for one coordinate, [`FiError::Journal`] when an input cannot
/// be read and [`FiError::ArtifactWrite`] when the output cannot be
/// written.
pub fn merge_journals(out: impl AsRef<Path>, inputs: &[PathBuf]) -> Result<MergeSummary, FiError> {
    let mut reference: Option<JournalHeader> = None;
    let mut merged: BTreeMap<u64, JournalEntry> = BTreeMap::new();
    let mut duplicates = 0usize;
    let mut torn_tails = 0usize;
    for path in inputs {
        let shard = read_journal(path)?;
        match &reference {
            None => reference = Some(shard.header),
            Some(first) => first.ensure_matches(&shard.header)?,
        }
        torn_tails += usize::from(shard.truncated_tail);
        for (k, entry) in shard.entries {
            let Some(existing) = merged.get_mut(&k) else {
                merged.insert(k, entry);
                continue;
            };
            if !existing.same_run(&entry) {
                return Err(FiError::JournalMergeConflict { k });
            }
            existing.attempts = existing.attempts.max(entry.attempts);
            duplicates += 1;
        }
    }
    let header = reference.ok_or(FiError::JournalMergeEmpty)?;

    let mut text = serde_json::to_string(&header).map_err(|e| FiError::Journal {
        message: format!("serialising merged journal header: {e}"),
    })?;
    text.push('\n');
    for entry in merged.values() {
        // The same encoder `RunJournal::append` writes through.
        text.push_str(&framed_log::encode(entry)?);
        text.push('\n');
    }
    atomic_write(out, text.as_bytes())?;
    Ok(MergeSummary {
        inputs: inputs.len(),
        records: merged.len(),
        duplicates,
        torn_tails,
    })
}

/// The result of a raw-line [`audit_journal`] pass: the executor's journal
/// invariants, measured rather than assumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalAudit {
    /// Complete record lines in the file (before any de-duplication).
    pub records: usize,
    /// Distinct coordinates among them.
    pub distinct: usize,
    /// Lines whose coordinate appeared before with *identical* content.
    /// A healthy journal has none: a coordinate is appended exactly once.
    pub identical_duplicates: usize,
    /// Lines whose coordinate appeared before with the same record and
    /// stats but a *different* attempt count. A single-writer journal never
    /// produces these, but [`merge_journals`] legitimately does: when two
    /// shards finished the same coordinate identically it keeps the max
    /// attempts, so an audit of a merged journal's *inputs* (or of a
    /// journal re-merged over itself) sees attempt-only repeats. Resume is
    /// unaffected — the record content is identical either way.
    pub attempt_upgrades: usize,
    /// Coordinates that appear more than once with *different* content —
    /// the one shape resume could silently mis-replay. Always fatal.
    pub conflicts: Vec<u64>,
    /// The file ended in a torn (incomplete) line — legitimate after a
    /// crash mid-append; resume truncates it.
    pub truncated_tail: bool,
}

impl JournalAudit {
    /// `true` when the journal upholds the executor's append invariants:
    /// no coordinate recorded twice, no conflicting records. Strict — an
    /// attempt-only repeat also fails, because a single writer never
    /// produces one.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty() && self.identical_duplicates == 0 && self.attempt_upgrades == 0
    }

    /// `true` when the journal is safe to *resume or merge from*: no
    /// coordinate carries two different results. Identical duplicates and
    /// attempt-only repeats are tolerated — they replay to the same state —
    /// which is the right bar for journals assembled by [`merge_journals`].
    pub fn is_clean_merged(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Audits a journal file line by line, without collapsing records into a
/// map first the way [`read_journal`] does: every physical record line is
/// checked, so double-appends and conflicting re-appends are visible. The
/// chaos test-suite runs this after every injected fault schedule.
///
/// # Errors
///
/// Returns [`FiError::Journal`] when the file or its header is unreadable
/// and [`FiError::JournalCorrupt`] on a mid-file CRC/parse failure.
pub fn audit_journal(path: impl AsRef<Path>) -> Result<JournalAudit, FiError> {
    let scan = scan_journal(path.as_ref())?;
    let mut audit = JournalAudit {
        records: scan.records.len(),
        distinct: 0,
        identical_duplicates: 0,
        attempt_upgrades: 0,
        conflicts: Vec::new(),
        truncated_tail: scan.torn_tail,
    };
    let mut seen: HashMap<u64, &JournalEntry> = HashMap::new();
    for entry in &scan.records {
        let Some(first) = seen.get(&entry.k) else {
            seen.insert(entry.k, entry);
            continue;
        };
        if !first.same_run(entry) {
            audit.conflicts.push(entry.k);
        } else if first.attempts == entry.attempts {
            audit.identical_duplicates += 1;
        } else {
            audit.attempt_upgrades += 1;
        }
    }
    audit.distinct = seen.len();
    audit.conflicts.sort_unstable();
    audit.conflicts.dedup();
    Ok(audit)
}

/// An append-only JSONL run journal bound to one campaign.
#[derive(Debug)]
pub struct RunJournal {
    log: FramedLog,
    entries: HashMap<u64, (RunRecord, RunStats)>,
    attempts: HashMap<u64, u32>,
    chaos: Option<Arc<ChaosInjector>>,
}

impl RunJournal {
    fn with_log(log: FramedLog) -> Self {
        RunJournal {
            log,
            entries: HashMap::new(),
            attempts: HashMap::new(),
            chaos: None,
        }
    }

    /// Creates a fresh journal at `path`, writing (and syncing) the header.
    /// Any existing file at `path` is overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::Journal`] on I/O failure.
    pub fn create(path: impl AsRef<Path>, header: &JournalHeader) -> Result<Self, FiError> {
        let log = FramedLog::create(path.as_ref(), "journal", header, DEFAULT_FSYNC_INTERVAL)?;
        Ok(Self::with_log(log))
    }

    /// Opens an existing journal for resumption — verifying its header
    /// against `header`, recovering all complete records and truncating any
    /// torn final line — or creates a fresh one when `path` does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::JournalMismatch`] when the on-disk header belongs
    /// to a different campaign, [`FiError::JournalCorrupt`] on mid-file
    /// corruption, and [`FiError::Journal`] on I/O or parse failures that
    /// corruption cannot explain (e.g. an unreadable header).
    pub fn open_or_create(
        path: impl AsRef<Path>,
        header: &JournalHeader,
    ) -> Result<(Self, LoadedJournal), FiError> {
        let path = path.as_ref();
        let (log, records, truncated_tail) = if path.exists() {
            let scan = scan_journal(path)?;
            // Check the header before truncating: a journal of another
            // campaign is never modified.
            header.ensure_matches(&scan.header)?;
            let log = FramedLog::reopen(path, "journal", scan.valid_end, DEFAULT_FSYNC_INTERVAL)?;
            (log, scan.records, scan.torn_tail)
        } else {
            let log = FramedLog::create(path, "journal", header, DEFAULT_FSYNC_INTERVAL)?;
            (log, Vec::new(), false)
        };
        let mut journal = Self::with_log(log);
        for entry in records {
            journal.attempts.insert(entry.k, entry.attempts);
            journal.entries.insert(entry.k, (entry.record, entry.stats));
        }
        let loaded = LoadedJournal {
            recovered: journal.len(),
            truncated_tail,
        };
        Ok((journal, loaded))
    }

    /// Sets the fsync batching interval: the journal `fsync`s after every
    /// `interval` appends. Campaigns configure this from
    /// [`crate::campaign::CampaignConfig::journal_fsync_interval`] (already
    /// validated > 0); values are clamped to at least 1 here as a backstop.
    pub fn set_fsync_interval(&mut self, interval: usize) {
        self.log.set_fsync_interval(interval);
    }

    /// The active fsync batching interval.
    pub fn fsync_interval(&self) -> usize {
        self.log.fsync_interval()
    }

    /// Attaches telemetry: an append counter, an fsync counter and an
    /// fsync-latency histogram (`process.journal_appends`,
    /// `process.journal_fsyncs`, `process.journal_fsync_micros`). No-op
    /// when `obs` is disabled.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.log.set_telemetry(
            obs.counter("process.journal_appends"),
            obs.counter("process.journal_fsyncs"),
            obs.histogram("process.journal_fsync_micros"),
        );
    }

    /// Attaches a chaos injector: scheduled `journal-write` / `journal-fsync`
    /// faults from its plan are injected into [`RunJournal::append`] and
    /// [`RunJournal::sync`]. Production journals never call this; with no
    /// injector the hooks cost one `Option` branch.
    pub fn set_chaos(&mut self, chaos: Arc<ChaosInjector>) {
        self.chaos = Some(chaos);
    }

    /// Appends one finished run with its execution statistics and the number
    /// of attempts it took (1 unless process isolation retried it). The line
    /// is CRC32-prefixed, handed to the OS immediately and `fsync`ed every
    /// [`RunJournal::fsync_interval`] appends.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::JournalDiskFull`] when `ENOSPC` outlasts the
    /// bounded retries and [`FiError::Journal`] on any other I/O failure.
    pub fn append(
        &mut self,
        k: u64,
        record: &RunRecord,
        stats: &RunStats,
        attempts: u32,
    ) -> Result<(), FiError> {
        let entry = JournalEntry {
            k,
            attempts,
            record: record.clone(),
            stats: *stats,
        };
        let fault = self.chaos.as_ref().and_then(|c| c.on_journal_append());
        self.log.append(&entry, fault)?;
        self.entries.insert(k, (entry.record, entry.stats));
        self.attempts.insert(k, attempts);
        if self.log.sync_due() {
            self.sync()?;
        }
        Ok(())
    }

    /// `fsync`s the file.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::JournalDiskFull`] when `ENOSPC` outlasts the
    /// bounded retries and [`FiError::Journal`] on any other I/O failure.
    pub fn sync(&mut self) -> Result<(), FiError> {
        let fault = self.chaos.as_ref().and_then(|c| c.on_journal_fsync());
        Ok(self.log.sync(fault)?)
    }

    /// Records and statistics recovered from disk plus those appended this
    /// session, keyed by coordinate index.
    pub fn entries(&self) -> &HashMap<u64, (RunRecord, RunStats)> {
        &self.entries
    }

    /// Per-coordinate attempt counts recovered from disk plus those appended
    /// this session.
    pub fn attempts(&self) -> &HashMap<u64, u32> {
        &self.attempts
    }

    /// Number of journaled runs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no runs are journaled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed_log::{crc32, encode as entry_line, ENOSPC_RETRIES as ENOSPC_APPEND_RETRIES};
    use crate::model::ErrorModel;
    use crate::outcome::RunOutcome;
    use crate::spec::PortTarget;
    use std::fs::OpenOptions;

    fn header() -> JournalHeader {
        let spec = CampaignSpec::paper_style(vec![PortTarget::new("CALC", "pulscnt")], 2);
        JournalHeader::new(&spec, 42, Some(6_000))
    }

    fn record(time_ms: u64) -> RunRecord {
        RunRecord {
            module: "CALC".into(),
            input_signal: "pulscnt".into(),
            model: ErrorModel::BitFlip { bit: 3 },
            time_ms,
            case: 0,
            original_value: 7,
            corrupted_value: 15,
            first_divergence: vec![Some(510), None],
            outcome: RunOutcome::Completed,
        }
    }

    fn stats(ticks: u64) -> RunStats {
        RunStats {
            sim_ticks: ticks,
            forked: true,
            converged_ms: Some(ticks + 50),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("permea-journal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    #[test]
    fn create_append_reload_roundtrip() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append(0, &record(500), &stats(40), 1).unwrap();
        j.append(7, &record(1_000), &RunStats::default(), 3)
            .unwrap();
        j.sync().unwrap();
        drop(j);

        let (j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 2);
        assert!(!loaded.truncated_tail);
        assert_eq!(j.len(), 2);
        assert_eq!(j.entries()[&0], (record(500), stats(40)));
        assert_eq!(j.entries()[&7], (record(1_000), RunStats::default()));
    }

    #[test]
    fn torn_tail_is_truncated_and_append_continues() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append(0, &record(500), &stats(40), 1).unwrap();
        j.sync().unwrap();
        drop(j);

        // Simulate kill -9 mid-write: a partial JSON line with no newline.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"k\":1,\"record\":{\"modu").unwrap();
        }

        let (mut j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 1);
        assert!(loaded.truncated_tail);
        j.append(1, &record(1_500), &stats(99), 1).unwrap();
        j.sync().unwrap();
        drop(j);

        let (j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 2);
        assert!(!loaded.truncated_tail);
        assert_eq!(j.entries()[&1], (record(1_500), stats(99)));
    }

    fn chaos(spec: &str) -> Arc<ChaosInjector> {
        Arc::new(ChaosInjector::new(
            crate::chaos::ChaosPlan::parse(spec).expect("chaos spec parses"),
        ))
    }

    #[test]
    fn injected_eio_surfaces_typed_and_leaves_tail_parseable() {
        let path = tmp("chaos-eio");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.set_chaos(chaos("journal-write=eio@1"));
        j.append(0, &record(500), &stats(40), 1).unwrap();
        let err = j.append(1, &record(1_000), &stats(41), 1).unwrap_err();
        assert!(matches!(err, FiError::Journal { .. }));
        j.sync().unwrap();
        drop(j);

        // The failed append wrote nothing: record 0 survives, the file is
        // clean, and resuming appends exactly where the failure struck.
        let (mut j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 1);
        assert!(!loaded.truncated_tail);
        j.append(1, &record(1_000), &stats(41), 1).unwrap();
        j.sync().unwrap();
        drop(j);
        let audit = audit_journal(&path).unwrap();
        assert!(audit.is_clean());
        assert_eq!(audit.records, 2);
    }

    #[test]
    fn injected_short_write_tears_the_tail_and_resume_recovers() {
        let path = tmp("chaos-short");
        let _ = std::fs::remove_file(&path);
        let clean = tmp("chaos-short-clean");
        let _ = std::fs::remove_file(&clean);

        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.set_chaos(chaos("journal-write=short@1"));
        j.append(0, &record(500), &stats(40), 1).unwrap();
        let err = j.append(1, &record(1_000), &stats(41), 1).unwrap_err();
        assert!(matches!(err, FiError::Journal { .. }));
        drop(j);

        // The torn prefix is on disk; resume truncates it and re-appends.
        let (mut j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 1);
        assert!(loaded.truncated_tail, "short write left a torn tail");
        j.append(1, &record(1_000), &stats(41), 1).unwrap();
        j.sync().unwrap();
        drop(j);

        // Byte-identical to a journal that never saw the fault.
        let mut u = RunJournal::create(&clean, &header()).unwrap();
        u.append(0, &record(500), &stats(40), 1).unwrap();
        u.append(1, &record(1_000), &stats(41), 1).unwrap();
        u.sync().unwrap();
        drop(u);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&clean).unwrap()
        );
        assert!(audit_journal(&path).unwrap().is_clean());
    }

    #[test]
    fn persistent_enospc_exhausts_retries_into_disk_full() {
        let path = tmp("chaos-enospc");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.set_chaos(chaos("journal-write=enospc@0"));
        let err = j.append(0, &record(500), &stats(40), 1).unwrap_err();
        assert!(
            matches!(err, FiError::JournalDiskFull { retries } if retries == ENOSPC_APPEND_RETRIES)
        );
        // The journal is still usable once "space is freed" (the fault was
        // scheduled only for append 0's index).
        j.append(0, &record(500), &stats(40), 1).unwrap();
        j.sync().unwrap();
        drop(j);
        let audit = audit_journal(&path).unwrap();
        assert!(audit.is_clean());
        assert_eq!(audit.records, 1);
    }

    #[test]
    fn transient_enospc_is_absorbed_by_the_bounded_retry() {
        let path = tmp("chaos-enospc-once");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.set_chaos(chaos(
            "journal-write=enospc-once@0,journal-fsync=enospc-once@0",
        ));
        j.append(0, &record(500), &stats(40), 1)
            .expect("transient ENOSPC is retried away");
        j.sync().expect("transient fsync ENOSPC is retried away");
        drop(j);
        let (j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 1);
        assert!(!loaded.truncated_tail);
        drop(j);
    }

    #[test]
    fn injected_fsync_eio_surfaces_typed() {
        let path = tmp("chaos-fsync");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.set_chaos(chaos("journal-fsync=eio@0"));
        j.append(0, &record(500), &stats(40), 1).unwrap();
        let err = j.sync().unwrap_err();
        assert!(matches!(err, FiError::Journal { .. }));
        // The data was flushed to the OS before fsync failed; a reopen
        // still recovers it.
        drop(j);
        let (j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 1);
        drop(j);
    }

    #[test]
    fn audit_flags_conflicting_records() {
        let path = tmp("audit-conflict");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append(0, &record(500), &stats(40), 1).unwrap();
        j.sync().unwrap();
        drop(j);
        // Forge a second, different record for the same coordinate.
        {
            use std::io::Write as _;
            let entry = JournalEntry {
                k: 0,
                attempts: 1,
                record: record(999),
                stats: stats(41),
            };
            let line = entry_line(&entry).unwrap();
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{line}").unwrap();
        }
        let audit = audit_journal(&path).unwrap();
        assert!(!audit.is_clean());
        assert!(
            !audit.is_clean_merged(),
            "a true content conflict fails even the merged bar"
        );
        assert_eq!(audit.conflicts, vec![0]);
        assert_eq!(audit.records, 2);
        assert_eq!(audit.distinct, 1);
    }

    #[test]
    fn audit_classifies_attempt_only_repeats_as_upgrades_not_conflicts() {
        // The shape merge_journals legitimately produces when it keeps the
        // max-attempts record: same coordinate, same record and stats,
        // differing attempt counts.
        let path = tmp("audit-upgrade");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append(0, &record(500), &stats(40), 1).unwrap();
        j.sync().unwrap();
        drop(j);
        {
            use std::io::Write as _;
            let entry = JournalEntry {
                k: 0,
                attempts: 3,
                record: record(500),
                stats: stats(40),
            };
            let line = entry_line(&entry).unwrap();
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{line}").unwrap();
        }
        let audit = audit_journal(&path).unwrap();
        assert_eq!(audit.attempt_upgrades, 1);
        assert_eq!(audit.identical_duplicates, 0);
        assert!(audit.conflicts.is_empty());
        assert!(!audit.is_clean(), "strict bar still refuses double-appends");
        assert!(
            audit.is_clean_merged(),
            "merged bar accepts attempt-only repeats"
        );
    }

    #[test]
    fn audit_accepts_output_of_a_max_attempts_merge() {
        // End-to-end over the real merge: two shards finished coordinate 0
        // identically with different attempt counts; the merged journal must
        // audit clean on both bars (merge collapses the duplicate into one
        // line, keeping max attempts).
        let a = shard_file("audit-merge-a", &[(0, record(500), stats(40), 1)]);
        let b = shard_file(
            "audit-merge-b",
            &[
                (0, record(500), stats(40), 3),
                (1, record(1_000), stats(41), 1),
            ],
        );
        let out = tmp("audit-merge-out");
        let _ = std::fs::remove_file(&out);
        merge_journals(&out, &[a, b]).unwrap();
        let audit = audit_journal(&out).unwrap();
        assert!(audit.is_clean());
        assert!(audit.is_clean_merged());
        assert_eq!(audit.records, 2);
        assert_eq!(audit.distinct, 2);
    }

    #[test]
    fn mismatched_header_is_rejected() {
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        let j = RunJournal::create(&path, &header()).unwrap();
        drop(j);

        let mut other = header();
        other.master_seed = 43;
        assert_eq!(
            RunJournal::open_or_create(&path, &other).unwrap_err(),
            FiError::JournalMismatch {
                field: "master_seed"
            }
        );
        let mut other = header();
        other.horizon_ms = None;
        assert_eq!(
            RunJournal::open_or_create(&path, &other).unwrap_err(),
            FiError::JournalMismatch {
                field: "horizon_ms"
            }
        );
        let mut other = header();
        other.spec.cases = 99;
        assert_eq!(
            RunJournal::open_or_create(&path, &other).unwrap_err(),
            FiError::JournalMismatch { field: "spec" }
        );
    }

    #[test]
    fn open_or_create_makes_fresh_journal() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let (j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 0);
        assert!(!loaded.truncated_tail);
        assert!(j.is_empty());
        assert!(path.exists());
    }

    #[test]
    fn quarantined_outcomes_roundtrip_through_journal() {
        let path = tmp("quarantine");
        let _ = std::fs::remove_file(&path);
        let mut hung = record(500);
        hung.outcome = RunOutcome::Hung { last_tick_ms: 498 };
        hung.first_divergence = vec![];
        let mut panicked = record(1_000);
        panicked.outcome = RunOutcome::Panicked {
            message: "attempt to add with overflow".into(),
        };
        panicked.first_divergence = vec![];
        let quarantined = RunStats::default();
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append(3, &hung, &quarantined, 1).unwrap();
        j.append(4, &panicked, &quarantined, 2).unwrap();
        j.sync().unwrap();
        drop(j);

        let (j, _) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(j.entries()[&3], (hung, quarantined));
        assert_eq!(j.entries()[&4], (panicked, quarantined));
    }

    #[test]
    fn version_1_journal_is_rejected_on_resume() {
        let path = tmp("version");
        let _ = std::fs::remove_file(&path);
        let mut old = header();
        old.version = 1;
        let line = serde_json::to_string(&old).unwrap();
        std::fs::write(&path, format!("{line}\n")).unwrap();
        assert_eq!(
            RunJournal::open_or_create(&path, &header()).unwrap_err(),
            FiError::JournalMismatch { field: "version" }
        );
    }

    #[test]
    fn fsync_interval_batches_syncs_and_records_latency() {
        let path = tmp("fsync");
        let _ = std::fs::remove_file(&path);
        let obs = Obs::with_sinks(vec![]);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        assert_eq!(j.fsync_interval(), DEFAULT_FSYNC_INTERVAL);
        j.set_fsync_interval(2);
        j.attach_obs(&obs);
        for k in 0..5 {
            j.append(k, &record(500), &stats(10), 1).unwrap();
        }
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("process.journal_appends"), Some(5));
        // 5 appends at interval 2 -> syncs after the 2nd and 4th append.
        assert_eq!(snap.counter("process.journal_fsyncs"), Some(2));
        assert_eq!(snap.histograms["process.journal_fsync_micros"].count, 2);
        // The backstop clamp: interval 0 behaves as 1.
        j.set_fsync_interval(0);
        assert_eq!(j.fsync_interval(), 1);
    }

    #[test]
    fn record_lines_carry_verifiable_crc_prefix() {
        let path = tmp("crcformat");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append(0, &record(500), &stats(40), 1).unwrap();
        j.append(1, &record(1_000), &stats(41), 2).unwrap();
        j.sync().unwrap();
        drop(j);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines[1..] {
            let (crc_hex, json) = line.split_once(' ').unwrap();
            assert_eq!(crc_hex.len(), 8);
            assert!(crc_hex.chars().all(|c| c.is_ascii_hexdigit()));
            assert_eq!(crc_hex, &crc_hex.to_lowercase());
            let expected = u32::from_str_radix(crc_hex, 16).unwrap();
            assert_eq!(crc32(json.as_bytes()), expected);
            let entry: JournalEntry = serde_json::from_str(json).unwrap();
            assert!(entry.k < 2);
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn attempts_roundtrip_through_reload() {
        let path = tmp("attempts");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append(0, &record(500), &stats(40), 1).unwrap();
        j.append(5, &record(1_000), &stats(41), 3).unwrap();
        j.sync().unwrap();
        drop(j);

        let (j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 2);
        assert_eq!(j.attempts()[&0], 1);
        assert_eq!(j.attempts()[&5], 3);
    }

    #[test]
    fn mid_file_corruption_is_rejected_with_line_number() {
        let path = tmp("midcorrupt");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        for k in 0..4 {
            j.append(k, &record(500 * (k + 1)), &stats(10 + k), 1)
                .unwrap();
        }
        j.sync().unwrap();
        drop(j);

        // Flip one bit inside the *second* record (physical line 3), leaving
        // intact records after it.
        let mut data = std::fs::read(&path).unwrap();
        let mut newlines = data
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i);
        let line3_start = newlines.nth(1).unwrap() + 1;
        data[line3_start + 20] ^= 0x04;
        std::fs::write(&path, &data).unwrap();

        assert_eq!(
            RunJournal::open_or_create(&path, &header()).unwrap_err(),
            FiError::JournalCorrupt { line: 3 }
        );
    }

    /// Writes a shard journal holding `entries` and returns its path.
    fn shard_file(name: &str, entries: &[(u64, RunRecord, RunStats, u32)]) -> PathBuf {
        let path = tmp(name);
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        for (k, record, stats, attempts) in entries {
            j.append(*k, record, stats, *attempts).unwrap();
        }
        j.sync().unwrap();
        path
    }

    #[test]
    fn merge_of_disjoint_shards_matches_sequential_journal() {
        // Shard 0/2 owns even coordinates, shard 1/2 odd ones.
        let a = shard_file(
            "merge-a",
            &[
                (0, record(500), stats(40), 1),
                (2, record(1_500), stats(42), 1),
            ],
        );
        let b = shard_file(
            "merge-b",
            &[
                (1, record(1_000), stats(41), 1),
                (3, record(2_000), stats(43), 1),
            ],
        );
        // The reference: one journal appending every coordinate in order.
        let full = shard_file(
            "merge-full",
            &[
                (0, record(500), stats(40), 1),
                (1, record(1_000), stats(41), 1),
                (2, record(1_500), stats(42), 1),
                (3, record(2_000), stats(43), 1),
            ],
        );

        let out = tmp("merge-out");
        let _ = std::fs::remove_file(&out);
        let summary = merge_journals(&out, &[a, b]).unwrap();
        assert_eq!(summary.inputs, 2);
        assert_eq!(summary.records, 4);
        assert_eq!(summary.duplicates, 0);
        assert_eq!(summary.torn_tails, 0);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&full).unwrap(),
            "merged journal is not byte-identical to the sequential journal"
        );

        // The merged journal resumes like any other.
        let (j, loaded) = RunJournal::open_or_create(&out, &header()).unwrap();
        assert_eq!(loaded.recovered, 4);
        assert_eq!(j.attempts()[&3], 1);
    }

    #[test]
    fn merge_collapses_identical_duplicates_keeping_max_attempts() {
        let a = shard_file("dup-a", &[(0, record(500), stats(40), 1)]);
        let b = shard_file(
            "dup-b",
            &[
                (0, record(500), stats(40), 3),
                (1, record(1_000), stats(41), 1),
            ],
        );
        let out = tmp("dup-out");
        let _ = std::fs::remove_file(&out);
        let summary = merge_journals(&out, &[a, b]).unwrap();
        assert_eq!(summary.records, 2);
        assert_eq!(summary.duplicates, 1);
        let merged = read_journal(&out).unwrap();
        assert_eq!(merged.entries[&0].attempts, 3);
    }

    #[test]
    fn merge_rejects_conflicting_records() {
        let a = shard_file("conflict-a", &[(7, record(500), stats(40), 1)]);
        let b = shard_file("conflict-b", &[(7, record(999), stats(40), 1)]);
        let out = tmp("conflict-out");
        let _ = std::fs::remove_file(&out);
        assert_eq!(
            merge_journals(&out, &[a, b]).unwrap_err(),
            FiError::JournalMergeConflict { k: 7 }
        );
    }

    #[test]
    fn merge_rejects_mismatched_headers() {
        let a = shard_file("hdr-a", &[(0, record(500), stats(40), 1)]);
        let path = tmp("hdr-b");
        let _ = std::fs::remove_file(&path);
        let mut other = header();
        other.master_seed = 43;
        let mut j = RunJournal::create(&path, &other).unwrap();
        j.append(1, &record(1_000), &stats(41), 1).unwrap();
        j.sync().unwrap();
        drop(j);
        let out = tmp("hdr-out");
        let _ = std::fs::remove_file(&out);
        assert_eq!(
            merge_journals(&out, &[a, path]).unwrap_err(),
            FiError::JournalMismatch {
                field: "master_seed"
            }
        );
    }

    #[test]
    fn merge_tolerates_torn_tail_without_mutating_input() {
        let a = shard_file(
            "torn-a",
            &[
                (0, record(500), stats(40), 1),
                (2, record(1_500), stats(42), 1),
            ],
        );
        let b = shard_file("torn-b", &[(1, record(1_000), stats(41), 1)]);
        // Tear shard b mid-write.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&b).unwrap();
            f.write_all(b"{\"k\":3,\"record\":{\"modu").unwrap();
        }
        let before = std::fs::read(&b).unwrap();

        let out = tmp("torn-out");
        let _ = std::fs::remove_file(&out);
        let summary = merge_journals(&out, &[a, b.clone()]).unwrap();
        assert_eq!(summary.records, 3);
        assert_eq!(summary.torn_tails, 1);
        // Read-only: the torn input is untouched.
        assert_eq!(std::fs::read(&b).unwrap(), before);
        let merged = read_journal(&out).unwrap();
        assert!(!merged.truncated_tail);
        assert_eq!(merged.entries.len(), 3);
    }

    #[test]
    fn merge_requires_at_least_one_input() {
        let out = tmp("empty-out");
        let _ = std::fs::remove_file(&out);
        assert!(matches!(
            merge_journals(&out, &[]).unwrap_err(),
            FiError::JournalMergeEmpty
        ));
        assert!(!out.exists(), "no output is created for an empty merge");
    }

    #[test]
    fn read_journal_rejects_mid_file_corruption() {
        let path = shard_file(
            "ro-midcorrupt",
            &[
                (0, record(500), stats(40), 1),
                (1, record(1_000), stats(41), 1),
                (2, record(1_500), stats(42), 1),
            ],
        );
        let mut data = std::fs::read(&path).unwrap();
        let mut newlines = data
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i);
        let line3_start = newlines.nth(1).unwrap() + 1;
        data[line3_start + 20] ^= 0x04;
        std::fs::write(&path, &data).unwrap();
        assert_eq!(
            read_journal(&path).unwrap_err(),
            FiError::JournalCorrupt { line: 3 }
        );
    }

    #[test]
    fn complete_but_corrupt_final_line_is_truncated_as_torn_tail() {
        let path = tmp("corrupttail");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append(0, &record(500), &stats(40), 1).unwrap();
        j.append(1, &record(1_000), &stats(41), 1).unwrap();
        j.sync().unwrap();
        drop(j);

        // Corrupt the *last* record only: with nothing intact after it, this
        // is indistinguishable from a torn write and must truncate, not
        // error.
        let mut data = std::fs::read(&path).unwrap();
        let last_line_start = {
            let trimmed = &data[..data.len() - 1];
            trimmed.iter().rposition(|&b| b == b'\n').unwrap() + 1
        };
        data[last_line_start + 15] ^= 0x01;
        std::fs::write(&path, &data).unwrap();

        let (j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 1);
        assert!(loaded.truncated_tail);
        assert!(j.entries().contains_key(&0));
        assert!(!j.entries().contains_key(&1));
    }

    #[test]
    fn failed_append_does_not_poison_the_next_acknowledged_ones() {
        // A short write leaves a torn prefix; the appends after it must
        // not be glued onto the tear (mid-file corruption on reopen) nor
        // be truncated away with it.
        let path = tmp("chaos-short-then-two");
        let _ = std::fs::remove_file(&path);
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.set_chaos(chaos("journal-write=short@0"));
        assert!(j.append(0, &record(500), &stats(40), 1).is_err());
        j.append(1, &record(1_000), &stats(41), 1).unwrap();
        j.append(2, &record(1_500), &stats(42), 1).unwrap();
        j.sync().unwrap();
        drop(j);

        let (j, loaded) = RunJournal::open_or_create(&path, &header()).unwrap();
        assert_eq!(loaded.recovered, 2);
        assert!(!loaded.truncated_tail);
        assert!(!j.entries().contains_key(&0));
        assert_eq!(j.entries()[&2], (record(1_500), stats(42)));
        assert!(audit_journal(&path).unwrap().is_clean());
    }
}

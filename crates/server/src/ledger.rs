//! Write-ahead submission ledger: append-only JSONL persistence for the
//! daemon's campaign registry.
//!
//! Every accepted submission is durably recorded *before* the client sees
//! `Submitted`; every terminal transition (completed / failed / cancelled)
//! is recorded when it happens. A SIGKILLed daemon restarts by replaying
//! the ledger: campaigns with no `Closed` record are re-registered and
//! re-queued, and their per-campaign run journals make the resumed
//! execution byte-identical to the uninterrupted one.
//!
//! The file is a [`permea_fi::framed_log`] — the same format as the run
//! journal — with a `{"version":1}` header and one CRC32-framed
//! [`LedgerRecord`] per line:
//!
//! ```text
//! {"version":1}
//! 89abcdef {"Submitted":{"id":1,"tenant":"alice","payload":"..."}}
//! 01234567 {"Closed":{"id":1,"state":"Completed","detail":""}}
//! ```
//!
//! A torn tail is truncated away on open; mid-file corruption poisons the
//! ledger with a typed error rather than quietly dropping a tenant's
//! campaign. Durability is stricter than the run journal's: the ledger
//! sees a few records per campaign (not tens of thousands), so every
//! append is `fsync`ed before it returns. `ENOSPC` that outlasts the
//! bounded retries is the typed [`ServerError::LedgerDiskFull`].

use crate::error::ServerError;
use crate::protocol::CampaignState;
use permea_fi::chaos::ChaosInjector;
use permea_fi::framed_log::{self, FramedLog, LogError, Scan};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Ledger format version; bumped on any incompatible layout change.
pub const LEDGER_VERSION: u32 = 1;

/// Every append is `fsync`ed: a submission is durable before it is
/// acknowledged.
const FSYNC_INTERVAL: usize = 1;

/// First line of the ledger.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct LedgerHeader {
    version: u32,
}

/// One ledger line: a submission or a terminal transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LedgerRecord {
    /// A campaign was admitted. Written (and fsynced) *before* the client
    /// receives its acknowledgement — the write-ahead invariant.
    Submitted {
        /// Daemon-assigned id.
        id: u64,
        /// Owning tenant.
        tenant: String,
        /// Opaque campaign descriptor for the runner.
        payload: String,
    },
    /// A campaign reached a terminal state.
    Closed {
        /// Daemon-assigned id.
        id: u64,
        /// The terminal state.
        state: CampaignState,
        /// Free-form detail (failure message, cancellation note).
        detail: String,
    },
}

/// One campaign reconstructed by [`Ledger::open`]'s replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedCampaign {
    /// Daemon-assigned id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Opaque campaign descriptor.
    pub payload: String,
    /// Terminal state and detail if the campaign closed before the
    /// previous daemon died; `None` means it must be re-queued.
    pub closed: Option<(CampaignState, String)>,
}

/// The append-only submission ledger.
#[derive(Debug)]
pub struct Ledger {
    log: FramedLog,
    chaos: Option<Arc<ChaosInjector>>,
}

impl From<LogError> for ServerError {
    fn from(e: LogError) -> Self {
        match e {
            LogError::Failed(message) => ServerError::Ledger { message },
            LogError::DiskFull { retries } => ServerError::LedgerDiskFull { retries },
            LogError::Corrupt { line } => ServerError::Ledger {
                message: format!("ledger line {line} is corrupt but later records are intact"),
            },
        }
    }
}

impl Ledger {
    /// Opens the ledger at `path`, creating it (with its header) if absent,
    /// and replays every recorded campaign.
    ///
    /// A torn final line — the signature of `kill -9` mid-append — is
    /// truncated away; the replay sees everything that was durably
    /// acknowledged. Returns the reopened ledger, the replayed campaigns in
    /// id order, and the next free campaign id.
    ///
    /// # Errors
    ///
    /// [`ServerError::Ledger`] on I/O failure, header mismatch, or a
    /// corrupt record followed by valid ones (silent mid-file corruption).
    pub fn open(path: &Path) -> Result<(Ledger, Vec<ReplayedCampaign>, u64), ServerError> {
        let (log, records) = if path.exists() {
            let scan: Scan<LedgerHeader, LedgerRecord> = framed_log::read(path, "ledger")?;
            if scan.header.version != LEDGER_VERSION {
                return Err(ServerError::Ledger {
                    message: format!(
                        "ledger format version {} but this daemon speaks {LEDGER_VERSION}",
                        scan.header.version
                    ),
                });
            }
            let log = FramedLog::reopen(path, "ledger", scan.valid_end, FSYNC_INTERVAL)?;
            (log, scan.records)
        } else {
            let header = LedgerHeader {
                version: LEDGER_VERSION,
            };
            let log = FramedLog::create(path, "ledger", &header, FSYNC_INTERVAL)?;
            (log, Vec::new())
        };
        let mut campaigns: BTreeMap<u64, ReplayedCampaign> = BTreeMap::new();
        for record in records {
            match record {
                LedgerRecord::Submitted {
                    id,
                    tenant,
                    payload,
                } => {
                    campaigns.insert(
                        id,
                        ReplayedCampaign {
                            id,
                            tenant,
                            payload,
                            closed: None,
                        },
                    );
                }
                LedgerRecord::Closed { id, state, detail } => {
                    if let Some(c) = campaigns.get_mut(&id) {
                        c.closed = Some((state, detail));
                    }
                }
            }
        }
        let next_id = campaigns.keys().next_back().map_or(1, |max| max + 1);
        let replayed = campaigns.into_values().collect();
        Ok((Ledger { log, chaos: None }, replayed, next_id))
    }

    /// Attaches a chaos injector: scheduled `ledger-write` faults from its
    /// plan are injected into [`Ledger::append`]. Production daemons never
    /// call this.
    pub fn set_chaos(&mut self, chaos: Arc<ChaosInjector>) {
        self.chaos = Some(chaos);
    }

    /// The file this ledger persists to.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Appends one record, CRC32-prefixed and `fsync`ed before returning —
    /// the record is durable when this succeeds.
    ///
    /// # Errors
    ///
    /// [`ServerError::LedgerDiskFull`] when `ENOSPC` persists past the
    /// bounded retries; [`ServerError::Ledger`] on any other I/O failure.
    pub fn append(&mut self, record: &LedgerRecord) -> Result<(), ServerError> {
        let fault = self.chaos.as_ref().and_then(|c| c.on_ledger_append());
        self.log.append(record, fault)?;
        if self.log.sync_due() {
            self.log.sync(None)?;
        }
        Ok(())
    }

    /// `fsync`s the file. Appends already sync, so this is a cheap
    /// belt-and-braces call on the drain path.
    ///
    /// # Errors
    ///
    /// [`ServerError::LedgerDiskFull`] when `ENOSPC` persists past the
    /// bounded retries; [`ServerError::Ledger`] on any other I/O failure.
    pub fn sync(&mut self) -> Result<(), ServerError> {
        Ok(self.log.sync(None)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permea_fi::framed_log::encode as record_line;
    use permea_fi::framed_log::ENOSPC_RETRIES as ENOSPC_APPEND_RETRIES;
    use std::fs::{File, OpenOptions};
    use std::io::{Read, Write};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("permea-ledger-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("ledger.jsonl")
    }

    fn submitted(id: u64, tenant: &str) -> LedgerRecord {
        LedgerRecord::Submitted {
            id,
            tenant: tenant.into(),
            payload: format!("{{\"preset\":\"smoke\",\"n\":{id}}}"),
        }
    }

    #[test]
    fn replay_reconstructs_open_and_closed_campaigns() {
        let path = tmp("replay");
        {
            let (mut ledger, replayed, next_id) = Ledger::open(&path).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(next_id, 1);
            ledger.append(&submitted(1, "alice")).unwrap();
            ledger.append(&submitted(2, "bob")).unwrap();
            ledger
                .append(&LedgerRecord::Closed {
                    id: 1,
                    state: CampaignState::Completed,
                    detail: String::new(),
                })
                .unwrap();
        }
        let (_ledger, replayed, next_id) = Ledger::open(&path).unwrap();
        assert_eq!(next_id, 3);
        assert_eq!(replayed.len(), 2);
        assert_eq!(
            replayed[0].closed,
            Some((CampaignState::Completed, String::new()))
        );
        assert_eq!(replayed[1].id, 2);
        assert_eq!(replayed[1].tenant, "bob");
        assert_eq!(replayed[1].closed, None);
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_survives() {
        let path = tmp("torn");
        {
            let (mut ledger, _, _) = Ledger::open(&path).unwrap();
            ledger.append(&submitted(1, "alice")).unwrap();
        }
        // Simulate kill -9 mid-append: half a record, no newline.
        let full = record_line(&submitted(2, "bob")).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&full.as_bytes()[..full.len() / 2]).unwrap();
        drop(f);

        let (mut ledger, replayed, next_id) = Ledger::open(&path).unwrap();
        assert_eq!(replayed.len(), 1, "torn record must not replay");
        assert_eq!(next_id, 2);
        // Appending after truncation keeps the file parseable.
        ledger.append(&submitted(2, "bob")).unwrap();
        drop(ledger);
        let (_l, replayed, next_id) = Ledger::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(next_id, 3);
    }

    #[test]
    fn mid_file_corruption_is_rejected_not_dropped() {
        let path = tmp("midfile");
        {
            let (mut ledger, _, _) = Ledger::open(&path).unwrap();
            ledger.append(&submitted(1, "alice")).unwrap();
            ledger.append(&submitted(2, "bob")).unwrap();
        }
        // Flip a byte inside the FIRST record's payload, leaving the
        // second intact: silent corruption, not a torn tail.
        let mut data = std::fs::read(&path).unwrap();
        let header_end = data.iter().position(|&b| b == b'\n').unwrap();
        let target = header_end + 20;
        data[target] ^= 0x01;
        std::fs::write(&path, &data).unwrap();

        let err = Ledger::open(&path).unwrap_err();
        assert!(
            matches!(&err, ServerError::Ledger { message } if message.contains("line 2")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn chaos_faults_map_to_typed_errors_and_recoverable_files() {
        use permea_fi::chaos::ChaosPlan;

        // enospc-once: the retry loop absorbs it.
        let path = tmp("chaos-once");
        let (mut ledger, _, _) = Ledger::open(&path).unwrap();
        let plan = ChaosPlan::parse("ledger-write=enospc-once@0").unwrap();
        let chaos = Arc::new(ChaosInjector::new(plan));
        ledger.set_chaos(Arc::clone(&chaos));
        ledger.append(&submitted(1, "alice")).unwrap();
        assert_eq!(chaos.injected(), 1);

        // enospc: bounded retries, then the typed disk-full error.
        let path = tmp("chaos-full");
        let (mut ledger, _, _) = Ledger::open(&path).unwrap();
        let plan = ChaosPlan::parse("ledger-write=enospc@0").unwrap();
        ledger.set_chaos(Arc::new(ChaosInjector::new(plan)));
        let err = ledger.append(&submitted(1, "alice")).unwrap_err();
        assert_eq!(
            err,
            ServerError::LedgerDiskFull {
                retries: ENOSPC_APPEND_RETRIES
            }
        );

        // short: a torn prefix lands in the file, then the fault surfaces;
        // reopening truncates the tear and the record is simply absent.
        let path = tmp("chaos-short");
        let (mut ledger, _, _) = Ledger::open(&path).unwrap();
        let plan = ChaosPlan::parse("ledger-write=short@0").unwrap();
        ledger.set_chaos(Arc::new(ChaosInjector::new(plan)));
        assert!(ledger.append(&submitted(1, "alice")).is_err());
        drop(ledger);
        let mut raw = String::new();
        File::open(&path).unwrap().read_to_string(&mut raw).unwrap();
        assert!(!raw.ends_with('\n'), "short fault must leave a torn tail");
        let (_l, replayed, next_id) = Ledger::open(&path).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(next_id, 1);

        // eio: fails before any byte reaches the file.
        let path = tmp("chaos-eio");
        let (mut ledger, _, _) = Ledger::open(&path).unwrap();
        let plan = ChaosPlan::parse("ledger-write=eio@0").unwrap();
        ledger.set_chaos(Arc::new(ChaosInjector::new(plan)));
        assert!(matches!(
            ledger.append(&submitted(1, "alice")),
            Err(ServerError::Ledger { .. })
        ));
    }

    #[test]
    fn closed_record_for_unknown_id_is_ignored_on_replay() {
        let path = tmp("orphan-close");
        {
            let (mut ledger, _, _) = Ledger::open(&path).unwrap();
            ledger
                .append(&LedgerRecord::Closed {
                    id: 42,
                    state: CampaignState::Failed,
                    detail: "orphan".into(),
                })
                .unwrap();
        }
        let (_l, replayed, next_id) = Ledger::open(&path).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(next_id, 1);
    }

    #[test]
    fn failed_append_does_not_poison_the_next_acknowledged_ones() {
        use permea_fi::chaos::ChaosPlan;

        // A short write leaves a torn prefix. The two admissions after it
        // are acknowledged, so a restart must replay both: neither glued
        // onto the tear (mid-file corruption) nor truncated away with it.
        let path = tmp("short-then-two");
        let (mut ledger, _, _) = Ledger::open(&path).unwrap();
        let plan = ChaosPlan::parse("ledger-write=short@0").unwrap();
        ledger.set_chaos(Arc::new(ChaosInjector::new(plan)));
        assert!(ledger.append(&submitted(1, "alice")).is_err());
        ledger.append(&submitted(2, "bob")).unwrap();
        ledger.append(&submitted(3, "carol")).unwrap();
        drop(ledger);

        let (_l, replayed, next_id) = Ledger::open(&path).unwrap();
        let ids: Vec<u64> = replayed.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(next_id, 4);
    }
}

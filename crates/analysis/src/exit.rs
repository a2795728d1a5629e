//! The pinned process exit-code contract of the analysis binaries.
//!
//! `study`, `permea-server` and `permea-cli` report how they ended through
//! these codes, and scripts/CI key off them — the mapping lives here, in one place, and
//! is asserted end-to-end by `tests/exit_codes.rs`:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | failure (bad spec, infrastructure error, serialisation, …) |
//! | 2 | usage error (unknown flag, malformed value) |
//! | 3 | quarantine threshold exceeded — systematic target breakage |
//! | 4 | environment failure — disk full, journal I/O, artifact write; |
//! |   | campaign state is intact and resumable once the environment heals |
//! | 5 | submission rejected by the campaign daemon (back-pressure or |
//! |   | quota) — nothing was recorded; retry later or fix the request |
//! | 6 | campaign service unavailable — daemon not running or its socket |
//! |   | unreachable |
//! | 130 | interrupted (SIGINT); journaled runs are preserved |

use permea_fi::error::FiError;

/// Clean completion.
pub const EXIT_OK: u8 = 0;
/// Generic failure: bad input, infrastructure error.
pub const EXIT_FAILURE: u8 = 1;
/// Command-line usage error.
pub const EXIT_USAGE: u8 = 2;
/// [`FiError::QuarantineThresholdExceeded`]: too many runs quarantined,
/// the estimates would be biased.
pub const EXIT_QUARANTINE: u8 = 3;
/// An environment failure ([`FiError::is_environment_failure`]): the
/// process environment — not the campaign — broke. Resume after fixing it.
pub const EXIT_ENVIRONMENT: u8 = 4;
/// The campaign daemon rejected a submission (queue full, tenant quota,
/// draining, invalid payload) — typed back-pressure, nothing recorded.
pub const EXIT_REJECTED: u8 = 5;
/// The campaign service is unavailable: the daemon is not running, or
/// its socket cannot be reached.
pub const EXIT_UNAVAILABLE: u8 = 6;
/// Interrupted by SIGINT (128 + 2, the shell convention).
pub const EXIT_INTERRUPTED: u8 = 130;

/// Maps a campaign error to its contract exit code.
pub fn classify_error(e: &FiError) -> u8 {
    match e {
        FiError::Interrupted { .. } => EXIT_INTERRUPTED,
        FiError::QuarantineThresholdExceeded { .. } => EXIT_QUARANTINE,
        e if e.is_environment_failure() => EXIT_ENVIRONMENT,
        _ => EXIT_FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_maps_each_class() {
        assert_eq!(
            classify_error(&FiError::Interrupted {
                completed: 1,
                total: 2
            }),
            EXIT_INTERRUPTED
        );
        assert_eq!(
            classify_error(&FiError::QuarantineThresholdExceeded {
                quarantined: 5,
                total: 10,
                max_fraction: 0.25
            }),
            EXIT_QUARANTINE
        );
        assert_eq!(
            classify_error(&FiError::JournalDiskFull { retries: 3 }),
            EXIT_ENVIRONMENT
        );
        assert_eq!(
            classify_error(&FiError::ArtifactWrite {
                path: "result.json".into(),
                message: "boom".into()
            }),
            EXIT_ENVIRONMENT
        );
        assert_eq!(
            classify_error(&FiError::DiskSpaceLow {
                free_bytes: 0,
                needed_bytes: 1
            }),
            EXIT_ENVIRONMENT
        );
        assert_eq!(classify_error(&FiError::WorkerPanicked), EXIT_FAILURE);
        assert_eq!(classify_error(&FiError::JournalMergeEmpty), EXIT_FAILURE);
    }
}

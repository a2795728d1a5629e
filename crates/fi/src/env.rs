//! Process-environment hardening: atomic artifact writes, a free-disk
//! preflight, and worker resource limits.
//!
//! Everything the executor persists beyond the journal — `result.json`,
//! `metrics.json`, report files, merged journals — goes through
//! [`atomic_write`]: the bytes land in a sibling `*.tmp` file, are
//! `fsync`ed, and only then renamed over the destination, so a crash (or an
//! injected [`crate::chaos`] fault) mid-write can never leave a torn
//! artifact where a good one stood.
//!
//! [`free_disk_bytes`] backs the campaign's preflight check: a campaign
//! that would run out of journal space is refused up front with the typed
//! [`crate::error::FiError::DiskSpaceLow`] instead of aborting mid-run on
//! `ENOSPC`.
//!
//! [`apply_rlimits_from_env`] caps a worker process's address space and CPU
//! time from the `PERMEA_RLIMIT_AS_BYTES` / `PERMEA_RLIMIT_CPU_SECS`
//! environment variables the supervisor sets on the pool command — an
//! injection run that leaks unboundedly is killed by the kernel (and
//! classified via [`crate::outcome::RunOutcome::crash_cause`]) instead of
//! taking the host down.
//!
//! The `statvfs`/`setrlimit` calls need FFI; the `unsafe` is confined to
//! the private `ffi` submodule (the crate is otherwise `deny(unsafe_code)`)
//! and compiled only on Linux — elsewhere the helpers degrade to no-ops.

use crate::chaos::ChaosInjector;
use crate::error::FiError;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Environment variable carrying the worker address-space cap in bytes
/// (`RLIMIT_AS`).
pub const RLIMIT_AS_ENV: &str = "PERMEA_RLIMIT_AS_BYTES";
/// Environment variable carrying the worker CPU-time cap in seconds
/// (`RLIMIT_CPU`).
pub const RLIMIT_CPU_ENV: &str = "PERMEA_RLIMIT_CPU_SECS";

/// Creates the artifact directory `dir` and its parents.
///
/// # Errors
///
/// Returns [`FiError::ArtifactWrite`] naming `dir`.
pub fn create_dir_all(dir: impl AsRef<Path>) -> Result<(), FiError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(|e| FiError::ArtifactWrite {
        path: dir.display().to_string(),
        message: e.to_string(),
    })
}

/// Atomically replaces `path` with `bytes`: write to a sibling `*.tmp`,
/// `fsync`, then rename into place. On any failure the destination is
/// untouched and the temp file is cleaned up (best effort).
///
/// # Errors
///
/// Returns [`FiError::ArtifactWrite`] naming the destination path.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), FiError> {
    atomic_write_chaos(path, bytes, None)
}

/// [`atomic_write`] with an optional chaos hook: when the injector's plan
/// schedules an `artifact-fail` for this file name, the write fails with
/// the same typed error a real I/O failure would produce — before any byte
/// reaches the destination.
///
/// # Errors
///
/// Returns [`FiError::ArtifactWrite`] on real or injected failure.
pub fn atomic_write_chaos(
    path: impl AsRef<Path>,
    bytes: &[u8],
    chaos: Option<&ChaosInjector>,
) -> Result<(), FiError> {
    let path = path.as_ref();
    let artifact_err = |message: String| FiError::ArtifactWrite {
        path: path.display().to_string(),
        message,
    };
    if let Some(injector) = chaos {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if injector.fail_artifact(&name) {
            return Err(artifact_err("injected artifact-write fault (chaos)".into()));
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let write_tmp = || -> std::io::Result<()> {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()
    };
    if let Err(e) = write_tmp() {
        let _ = std::fs::remove_file(&tmp);
        return Err(artifact_err(format!("writing {}: {e}", tmp.display())));
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(artifact_err(format!(
            "renaming {} into place: {e}",
            tmp.display()
        )));
    }
    Ok(())
}

/// Free bytes available to unprivileged writes on the filesystem holding
/// `path` (`statvfs`'s `f_bavail × f_frsize`). `None` when the platform
/// has no `statvfs` or the call fails — callers treat that as "unknown,
/// proceed".
pub fn free_disk_bytes(path: impl AsRef<Path>) -> Option<u64> {
    imp::free_disk_bytes(path.as_ref())
}

/// Applies the worker resource limits named by [`RLIMIT_AS_ENV`] and
/// [`RLIMIT_CPU_ENV`], when set. Returns a description of each limit
/// actually applied, for logging. Unparseable values and unsupported
/// platforms are skipped silently — a missing cap degrades to the previous
/// (uncapped) behaviour, never to a crash.
pub fn apply_rlimits_from_env() -> Vec<String> {
    let mut applied = Vec::new();
    if let Some(bytes) = read_env_u64(RLIMIT_AS_ENV) {
        if imp::set_rlimit(imp::RLIMIT_AS, bytes) {
            applied.push(format!("RLIMIT_AS={bytes}"));
        }
    }
    if let Some(secs) = read_env_u64(RLIMIT_CPU_ENV) {
        if imp::set_rlimit(imp::RLIMIT_CPU, secs) {
            applied.push(format!("RLIMIT_CPU={secs}"));
        }
    }
    applied
}

fn read_env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

#[cfg(target_os = "linux")]
mod imp {
    use std::ffi::CString;
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;

    pub const RLIMIT_CPU: i32 = 0;
    pub const RLIMIT_AS: i32 = 9;

    // The only unsafe in the crate: two thin libc wrappers with the glibc
    // x86-64 ABI spelled out locally (no libc crate in the offline vendor
    // set). Layouts match `struct statvfs` / `struct rlimit` on 64-bit
    // Linux, where every field is 8 bytes wide.
    #[allow(unsafe_code)]
    mod ffi {
        #[repr(C)]
        pub struct StatVfs {
            pub f_bsize: u64,
            pub f_frsize: u64,
            pub f_blocks: u64,
            pub f_bfree: u64,
            pub f_bavail: u64,
            pub f_files: u64,
            pub f_ffree: u64,
            pub f_favail: u64,
            pub f_fsid: u64,
            pub f_flag: u64,
            pub f_namemax: u64,
            pub reserved: [i32; 6],
        }

        #[repr(C)]
        pub struct RLimit {
            pub rlim_cur: u64,
            pub rlim_max: u64,
        }

        extern "C" {
            fn statvfs(path: *const std::os::raw::c_char, buf: *mut StatVfs) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        }

        pub fn statvfs_call(path: &std::ffi::CStr) -> Option<StatVfs> {
            let mut buf = std::mem::MaybeUninit::<StatVfs>::uninit();
            // SAFETY: `path` is a valid NUL-terminated string and `buf` is
            // a properly sized, writable statvfs buffer; statvfs only
            // writes into it.
            let rc = unsafe { statvfs(path.as_ptr(), buf.as_mut_ptr()) };
            // SAFETY: on rc == 0 statvfs has fully initialised the buffer.
            (rc == 0).then(|| unsafe { buf.assume_init() })
        }

        pub fn setrlimit_call(resource: i32, limit: u64) -> bool {
            let rlim = RLimit {
                rlim_cur: limit,
                rlim_max: limit,
            };
            // SAFETY: `rlim` is a valid, fully initialised rlimit struct
            // that outlives the call.
            unsafe { setrlimit(resource, &rlim) == 0 }
        }
    }

    pub fn free_disk_bytes(path: &Path) -> Option<u64> {
        // statvfs wants an existing path; fall back to the parent when the
        // target file has not been created yet.
        let probe = if path.exists() {
            path
        } else {
            path.parent().filter(|p| !p.as_os_str().is_empty())?
        };
        let cpath = CString::new(probe.as_os_str().as_bytes()).ok()?;
        let vfs = ffi::statvfs_call(&cpath)?;
        Some(vfs.f_bavail.saturating_mul(vfs.f_frsize))
    }

    pub fn set_rlimit(resource: i32, limit: u64) -> bool {
        ffi::setrlimit_call(resource, limit)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::path::Path;

    pub const RLIMIT_CPU: i32 = 0;
    pub const RLIMIT_AS: i32 = 9;

    pub fn free_disk_bytes(_path: &Path) -> Option<u64> {
        None
    }

    pub fn set_rlimit(_resource: i32, _limit: u64) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosInjector, ChaosPlan};

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("permea_env_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("artifact.json");
        atomic_write(&path, b"first").expect("first write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("readable"), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir listing")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_failure_keeps_previous_artifact() {
        let dir = tmp_dir("chaos_artifact");
        let path = dir.join("result.json");
        atomic_write(&path, b"good").expect("initial write");
        let plan = ChaosPlan::parse("artifact-fail=result.json").expect("plan");
        let injector = ChaosInjector::new(plan);
        let err = atomic_write_chaos(&path, b"torn", Some(&injector))
            .expect_err("injected fault surfaces");
        assert!(matches!(err, FiError::ArtifactWrite { .. }));
        assert_eq!(
            std::fs::read(&path).expect("previous artifact intact"),
            b"good"
        );
        // The fault is consumed: the retry writes cleanly.
        atomic_write_chaos(&path, b"fresh", Some(&injector)).expect("retry succeeds");
        assert_eq!(std::fs::read(&path).expect("readable"), b"fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn free_disk_reports_something_on_linux() {
        let dir = tmp_dir("statvfs");
        let free = free_disk_bytes(&dir);
        if cfg!(target_os = "linux") {
            assert!(free.expect("statvfs works on linux") > 0);
        }
        // Missing file falls back to its parent.
        let missing = dir.join("journal.jsonl");
        assert_eq!(free.is_some(), free_disk_bytes(missing).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rlimits_with_no_env_are_a_no_op() {
        assert!(apply_rlimits_from_env().is_empty());
    }
}

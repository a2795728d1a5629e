//! End-to-end assertions of the pinned exit-code contract
//! (`permea_analysis::exit`): each class of ending is driven through the
//! real `study` binary and the observed process exit code is compared
//! against the contract. The chaos harness (`--chaos-plan`) provides the
//! deterministic environment failures.

use std::path::PathBuf;
use std::process::Command;

fn study() -> Command {
    Command::new(env!("CARGO_BIN_EXE_study"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permea_exit_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn success_exits_zero() {
    let out = scratch("ok");
    let status = study()
        .args(["--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("study runs");
    assert!(
        status.status.code() == Some(0),
        "expected exit 0, got {:?}\nstderr: {}",
        status.status.code(),
        String::from_utf8_lossy(&status.stderr)
    );
    assert!(out.join("result.json").exists());
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn usage_error_exits_two() {
    let status = study()
        .arg("--definitely-not-a-flag")
        .output()
        .expect("study runs");
    assert_eq!(status.status.code(), Some(2));
    // A malformed chaos plan is also a usage error, not a crash.
    let status = study()
        .args(["--smoke", "--chaos-plan", "journal-write=bogus@x"])
        .output()
        .expect("study runs");
    assert_eq!(
        status.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
}

#[test]
fn suite_with_invalid_scenario_exits_two_with_key_path() {
    // A scenario directory containing a broken file is a usage error:
    // exit 2, and the report names the offending TOML key path.
    let dir = scratch("suite_invalid");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("broken.toml"),
        "[target]\nname = \"arrestment\"\n\n[campaign]\ntimes_ms = [700]\ntyop = 1\n\n[error-model]\nkind = \"zero\"\n",
    )
    .unwrap();
    let status = study().arg("suite").arg(&dir).output().expect("study runs");
    assert_eq!(
        status.status.code(),
        Some(2),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&status.stdout),
        String::from_utf8_lossy(&status.stderr)
    );
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(
        stdout.contains("campaign.tyop"),
        "report must name the offending key path:\n{stdout}"
    );

    // An unknown target name is the same class: typed, path-anchored, 2.
    std::fs::write(
        dir.join("broken.toml"),
        "[target]\nname = \"warp-drive\"\n\n[campaign]\ntimes_ms = [700]\n\n[error-model]\nkind = \"zero\"\n",
    )
    .unwrap();
    let status = study().arg("suite").arg(&dir).output().expect("study runs");
    assert_eq!(status.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(stdout.contains("target.name"), "{stdout}");
    assert!(stdout.contains("unknown target `warp-drive`"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn suite_with_missing_directory_exits_two() {
    let status = study()
        .args(["suite", "/definitely/not/a/directory"])
        .output()
        .expect("study runs");
    assert_eq!(
        status.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
}

#[test]
fn suite_with_failing_expectation_exits_one() {
    let dir = scratch("suite_fail");
    std::fs::create_dir_all(&dir).unwrap();
    // Valid scenario, impossible expectation: FEP floor of 1.0.
    std::fs::write(
        dir.join("impossible.toml"),
        "[target]\nname = \"five-module\"\n\n[campaign]\nseed = 0xF1FE\ntimes_ms = [51]\ntargets = [\"B.fbB\"]\n\n[error-model]\nkind = \"bit-flip\"\nbits = [5]\n\n[expect]\nmin_fep = 1.0\n",
    )
    .unwrap();
    let status = study().arg("suite").arg(&dir).output().expect("study runs");
    assert_eq!(
        status.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&status.stdout),
        String::from_utf8_lossy(&status.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_threshold_exits_three() {
    // kill-always@5 SIGKILLs every worker that picks up coordinate 5, so
    // the run reproduces its crash through every retry and is quarantined;
    // a threshold below 1/run_count then aborts the campaign.
    let out = scratch("quarantine");
    let status = study()
        .args([
            "--smoke",
            "--isolation",
            "process",
            "--workers",
            "2",
            "--max-retries",
            "1",
            "--chaos-plan",
            "kill-always@5",
            "--max-quarantined",
            "0.001",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("study runs");
    assert_eq!(
        status.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn environment_failure_exits_four() {
    // A faked zero-byte free-disk reading fails the journal preflight
    // before any run executes.
    let out = scratch("env_disk");
    let status = study()
        .args([
            "--smoke",
            "--journal",
            "--chaos-plan",
            "free-disk=0",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("study runs");
    assert_eq!(
        status.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    std::fs::remove_dir_all(&out).ok();

    // An injected artifact-write failure surfaces after the campaign as the
    // same environment class.
    let out = scratch("env_artifact");
    let status = study()
        .args([
            "--smoke",
            "--chaos-plan",
            "artifact-fail=result.json",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("study runs");
    assert_eq!(
        status.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    assert!(
        !out.join("result.json").exists(),
        "failed artifact write must not leave a result.json behind"
    );
    std::fs::remove_dir_all(&out).ok();
    // An artifact directory that cannot be created (its parent is a regular
    // file) is an environment failure, for the artifacts, the journal and
    // the event log alike.
    let dir = scratch("env_file");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("file");
    std::fs::write(&file, b"not a directory").unwrap();
    let sub = file.join("sub");
    let events = file.join("events.jsonl");
    for flags in [
        vec!["--out".as_ref(), sub.as_os_str()],
        vec!["--journal".as_ref(), "--out".as_ref(), sub.as_os_str()],
        vec!["--events".as_ref(), events.as_os_str()],
    ] {
        let status = study()
            .arg("--smoke")
            .args(&flags)
            .output()
            .expect("study runs");
        assert_eq!(
            status.status.code(),
            Some(4),
            "{flags:?} stderr: {}",
            String::from_utf8_lossy(&status.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    // `study journal merge` follows the same contract: an unreadable shard
    // journal is an environment failure.
    let out = scratch("env_merge");
    let status = study()
        .args(["journal", "merge", "--out"])
        .arg(out.join("merged.jsonl"))
        .arg(out.join("missing-shard.jsonl"))
        .output()
        .expect("study runs");
    assert_eq!(
        status.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
}

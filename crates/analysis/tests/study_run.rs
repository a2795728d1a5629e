//! End-to-end tests of `study run SCENARIO`: a custom campaign written as a
//! scenario file runs through the real `study` binary, its `result.json` is
//! pinned by SHA-256 in both isolation modes and under adaptive sampling,
//! and flags that do not apply to a scenario are usage errors.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Two ports of the arrestment system under bit-flips, an offset and a
/// stuck-at-zero fault on the 3x3 grid with a 9 s horizon.
const EXAMPLE: &str = r#"
[target]
name = "arrestment"

[workload]
masses = 3
velocities = 3

[campaign]
seed = 0x5EED
times_ms = [800, 2400, 4000]
horizon_ms = 9000
targets = ["V_REG.SetValue", "DIST_S.PACNT"]

[error-model]
kind = "bit-flip"
bits = [0, 8]

[error-model.2]
kind = "offset"
deltas = [100]

[error-model.3]
kind = "zero"
"#;

const DENSE_SHA256: &str = "40a18dc6305abdbe5c06766d5651abca90300f6b990b35eb2d9561536cb485b8";
const ADAPTIVE_SHA256: &str = "76126e014ce6b1879b315df2e56c8d1dd6e53dd752c61bf63758ac9423dbf125";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permea_run_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn study_run(scenario: &Path, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_study"))
        .arg("run")
        .arg(scenario)
        .args(flags)
        .output()
        .expect("study runs")
}

/// Runs the example scenario with `flags` and returns the SHA-256 of the
/// `result.json` it wrote.
fn result_sha(tag: &str, flags: &[&str]) -> String {
    let dir = scratch(tag);
    let scenario = dir.join("example.toml");
    std::fs::write(&scenario, EXAMPLE).unwrap();
    let out = dir.join("out");
    let mut all = vec!["--out", out.to_str().unwrap()];
    all.extend_from_slice(flags);
    let output = study_run(&scenario, &all);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("V_REG    SetValue       OutValue"),
        "{stdout}"
    );
    assert!(stdout.contains("failed error propagation"), "{stdout}");
    let sha = sha256_hex(&std::fs::read(out.join("result.json")).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    sha
}

#[test]
fn example_scenario_result_is_pinned_in_both_isolation_modes() {
    assert_eq!(result_sha("inproc", &[]), DENSE_SHA256);
    assert_eq!(
        result_sha("proc", &["--isolation", "process", "--workers", "2"]),
        DENSE_SHA256
    );
}

#[test]
fn adaptive_example_scenario_result_is_pinned() {
    assert_eq!(
        result_sha("adaptive", &["--adaptive", "--target-ci", "0.1"]),
        ADAPTIVE_SHA256
    );
}

#[test]
fn flags_a_scenario_does_not_take_exit_two() {
    let dir = scratch("usage");
    let scenario = dir.join("example.toml");
    std::fs::write(&scenario, EXAMPLE).unwrap();
    for flags in [
        &["--definitely-not-a-flag"][..],
        &["--seed", "7"],
        &["--smoke"],
        &["--replay"],
        &["--workers", "2"],
    ] {
        let output = study_run(&scenario, flags);
        assert_eq!(output.status.code(), Some(2), "{flags:?}");
    }
    let stderr =
        String::from_utf8_lossy(&study_run(&scenario, &["--seed", "7"]).stderr).into_owned();
    assert!(stderr.contains("[campaign] seed"), "{stderr}");

    // An invalid scenario is a usage error whose message names the key path.
    std::fs::write(&scenario, EXAMPLE.replace("horizon_ms", "tyop")).unwrap();
    let output = study_run(&scenario, &[]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("campaign.tyop"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// SHA-256 (FIPS 180-4) of `data`, as lowercase hex.
fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in message.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let mut v = h;
        for i in 0..64 {
            let s1 = v[4].rotate_right(6) ^ v[4].rotate_right(11) ^ v[4].rotate_right(25);
            let ch = (v[4] & v[5]) ^ (!v[4] & v[6]);
            let t1 = v[7]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = v[0].rotate_right(2) ^ v[0].rotate_right(13) ^ v[0].rotate_right(22);
            let maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
            let t2 = s0.wrapping_add(maj);
            v = [
                t1.wrapping_add(t2),
                v[0],
                v[1],
                v[2],
                v[3].wrapping_add(t1),
                v[4],
                v[5],
                v[6],
            ];
        }
        for (acc, x) in h.iter_mut().zip(v) {
            *acc = acc.wrapping_add(x);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

#[test]
fn sha256_matches_the_standard_vectors() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

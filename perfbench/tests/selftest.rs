//! Self-tests of the benchmark: deterministic generation, scenario
//! round trips, metric names, and daemon clean-up on every exit path.
//!
//! The daemon tests need the `permea-server` binary: `PERMEA_SERVER_BIN`,
//! or a `permea-server` next to this package's binary in the same target
//! directory. `python3 perfbench/run.py --self-test` builds both and runs
//! these tests.

use permea_analysis::study::StudyConfig;
use permea_perfbench::arrest::study_artifacts;
use permea_perfbench::daemon::Server;
use permea_perfbench::gen::{daemon_plan, small_scenarios, Payload, DAEMON_SHAPE, SMALL_SCENARIOS};
use permea_perfbench::report::{valid_name, END_TO_END, PER_LAYER};
use permea_perfbench::sys::pids_with_cmdline;
use permea_perfbench::WORKLOADS;
use permea_target::scenario::ScenarioSpec;
use permea_target::suite::ScenarioStudy;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

fn every_generated_scenario(seed: u64) -> Vec<(String, String, u64)> {
    let mut out: Vec<(String, String, u64)> = small_scenarios(seed)
        .into_iter()
        .zip(SMALL_SCENARIOS)
        .map(|((name, toml), (_, shape))| (name, toml, shape.runs()))
        .collect();
    for (i, p) in daemon_plan(seed).pool.into_iter().enumerate() {
        if let Payload::Scenario { toml } = p {
            out.push((format!("daemon-{i}"), toml, DAEMON_SHAPE.runs()));
        }
    }
    out
}

#[test]
fn the_same_seed_gives_the_same_bytes() {
    for seed in [0, 1, 7, u64::MAX] {
        assert_eq!(small_scenarios(seed), small_scenarios(seed));
        assert_eq!(daemon_plan(seed), daemon_plan(seed));
    }
    assert_ne!(small_scenarios(1), small_scenarios(2));
    assert_ne!(daemon_plan(1), daemon_plan(2));
}

#[test]
fn every_tenant_submits_as_many_smoke_presets_as_scenarios() {
    for seed in 0..20 {
        let plan = daemon_plan(seed);
        for order in &plan.tenants {
            let smoke = order
                .iter()
                .filter(|&&i| matches!(plan.pool[i], Payload::Smoke { .. }))
                .count();
            assert_eq!(2 * smoke, order.len(), "seed {seed}");
        }
    }
}

#[test]
fn generated_scenarios_parse_resolve_and_round_trip() {
    for seed in 0..20 {
        for (name, toml, runs) in every_generated_scenario(seed) {
            let spec = ScenarioSpec::parse(&toml, &name)
                .unwrap_or_else(|e| panic!("seed {seed} {name}: {e}\n{toml}"));
            let again =
                ScenarioSpec::parse(&spec.to_toml(), &name).expect("printed scenario parses");
            assert_eq!(again, spec, "seed {seed} {name} does not round-trip");
            let study =
                ScenarioStudy::resolve(spec).unwrap_or_else(|e| panic!("seed {seed} {name}: {e}"));
            // The seed changes values, never the amount of work.
            assert_eq!(
                study.campaign_spec().run_count() as u64,
                runs,
                "seed {seed} {name}"
            );
        }
    }
}

#[test]
fn daemon_payloads_are_accepted_by_the_runner() {
    use permea_server::runner::CampaignRunner;
    let runner = permea_analysis::service::StudyRunner;
    for p in daemon_plan(3).pool {
        runner
            .validate(&p.json())
            .unwrap_or_else(|e| panic!("{p:?}: {e}"));
    }
}

fn benchmark_json() -> serde::Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names(v: &serde::Value, key: &str, field: &str) -> Vec<String> {
    let list = serde::value::map_get(v.as_map().unwrap(), key).unwrap();
    list.as_seq()
        .unwrap()
        .iter()
        .map(|m| {
            serde::value::map_get(m.as_map().unwrap(), field)
                .and_then(serde::Value::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn metric_and_workload_names_match_the_benchmark_file() {
    let v = benchmark_json();
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names(&v, "end_to_end", "name"), e2e);
    assert_eq!(names(&v, "per_layer", "name"), layer);
    assert_eq!(names(&v, "workloads", "name"), WORKLOADS);
    let units = names(&v, "end_to_end", "unit")
        .into_iter()
        .chain(names(&v, "per_layer", "unit"));
    let expected = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(_, u)| *u);
    assert!(units.eq(expected.map(str::to_string)));
    for name in e2e
        .iter()
        .chain(&layer)
        .map(String::as_str)
        .chain(WORKLOADS)
    {
        assert!(valid_name(name), "{name}");
    }
}

/// A workspace binary: `$var`, or `name` next to this package's binary in
/// the same target directory.
fn workspace_bin(var: &str, name: &str) -> PathBuf {
    if let Some(p) = std::env::var_os(var) {
        return PathBuf::from(p);
    }
    let sibling = Path::new(env!("CARGO_BIN_EXE_permea-perfbench")).with_file_name(name);
    assert!(
        sibling.is_file(),
        "{name} not built; run `python3 perfbench/run.py --self-test` or set {var}"
    );
    sibling
}

fn server_bin() -> PathBuf {
    workspace_bin("PERMEA_SERVER_BIN", "permea-server")
}

static DIRS: AtomicU32 = AtomicU32::new(0);

/// A fresh, short, relative work directory for one test.
fn work_dir() -> PathBuf {
    PathBuf::from(format!(
        ".bench_work/selftest-{}-{:03}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ))
}

fn assert_gone(dir: &Path) {
    let needle = dir.to_string_lossy().into_owned();
    assert!(
        pids_with_cmdline(&needle).is_empty(),
        "a permea-server for {needle} is still running"
    );
    assert!(!dir.exists(), "{needle} was not removed");
}

#[test]
fn a_stopped_or_dropped_daemon_leaves_nothing_behind() {
    let bin = server_bin();
    // Clean drain.
    let dir = work_dir();
    let mut server = Server::start(&bin, dir.clone()).unwrap();
    server.wait_ready().unwrap();
    server.stop().unwrap();
    drop(server);
    assert_gone(&dir);
    // Dropped while running, as on a failed check.
    let dir = work_dir();
    let mut server = Server::start(&bin, dir.clone()).unwrap();
    server.wait_ready().unwrap();
    assert!(!pids_with_cmdline(&dir.to_string_lossy()).is_empty());
    drop(server);
    assert_gone(&dir);
    // Unwound by a panic.
    let dir = work_dir();
    let panicked = std::panic::catch_unwind(|| {
        let mut server = Server::start(&bin, dir.clone()).unwrap();
        server.wait_ready().unwrap();
        panic!("a check failed");
    });
    assert!(panicked.is_err());
    assert_gone(&dir);
}

#[test]
fn a_daemon_workload_run_leaves_no_server_running() {
    let dir = work_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_permea-perfbench"))
        .args([
            "--workload",
            "daemon-two-tenants",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .arg("--work-dir")
        .arg(&dir)
        .arg("--server-bin")
        .arg(server_bin())
        .output()
        .expect("harness runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last: serde::Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let map = last.as_map().unwrap();
    let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = serde::value::map_get(map, "metrics")
        .unwrap()
        .as_map()
        .unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(got, want);
    assert_gone(&dir);
}

/// The files in `dir`, by name, without the wall-clock-dependent
/// telemetry artifacts.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .filter(|(name, _)| !matches!(name.as_str(), "metrics.json" | "telemetry.txt"))
        .collect();
    out.sort();
    out
}

#[test]
fn the_artifact_stage_writes_what_the_study_binary_writes() {
    let config = StudyConfig {
        threads: 1,
        ..StudyConfig::smoke()
    };
    let (plain, split, binary) = (work_dir(), work_dir(), work_dir());
    for dir in [&plain, &split] {
        std::fs::create_dir_all(dir).unwrap();
    }
    study_artifacts(&config, false, &plain).unwrap();
    study_artifacts(&config, true, &split).unwrap();
    let status = Command::new(workspace_bin("PERMEA_STUDY_BIN", "study"))
        .args(["--smoke", "--threads", "1", "--out"])
        .arg(&binary)
        .stderr(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .status()
        .expect("study runs");
    assert!(status.success());
    let (plain_files, split_files, mut binary_files) =
        (files(&plain), files(&split), files(&binary));
    // Without telemetry the traced split is the same study, page included.
    assert!(plain_files.iter().any(|(n, _)| n == "explorer.html"));
    assert_eq!(plain_files, split_files);
    // The binary writes no page without --html-out; every other file is
    // the same byte for byte.
    binary_files.push(
        plain_files
            .iter()
            .find(|(n, _)| n == "explorer.html")
            .cloned()
            .unwrap(),
    );
    binary_files.sort();
    assert_eq!(plain_files, binary_files);
    for dir in [plain, split, binary] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

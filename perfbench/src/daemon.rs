//! `daemon-two-tenants`: `permea-server` with two slots; two tenants, one
//! connection per request each, in a closed loop — submit a small campaign,
//! watch it to completion, submit the next. Admission, the ledger fsync,
//! fair-share slicing and the accept/watch polling dominate turnaround;
//! simulation is small.

use crate::bench::{drive, Ctx, Iteration, Meter, MIN_ITERATIONS};
use crate::gen::{daemon_plan, DaemonPlan, Payload};
use crate::micro::runtime_metrics;
use crate::report::{quantile, Metric, Outcome};
use crate::sys;
use crate::trace::HARNESS;
use permea_analysis::study::{Study, StudyConfig};
use permea_obs::Obs;
use permea_server::client::Client;
use permea_server::protocol::{CampaignState, Response};
use permea_target::scenario::ScenarioSpec;
use permea_target::suite::{ScenarioStudy, SuiteOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Executor slots of the daemon.
pub const SLOTS: usize = 2;

/// How long a daemon may take to answer its socket or to drain.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `permea-server`. Dropping it — on success, a failed check or
/// a panic — stops the process (drain, then kill) and removes its state
/// directory and socket.
#[derive(Debug)]
pub struct Server {
    child: Option<Child>,
    dir: PathBuf,
}

impl Server {
    /// Starts a daemon with its state (and socket) under `dir`, which must
    /// not exist yet. Paths stay relative so the socket path fits the
    /// kernel's 108-byte limit wherever the checkout lives.
    pub fn start(bin: &Path, dir: PathBuf) -> Result<Server, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("server.log"))
            .map_err(|e| format!("server log: {e}"))?;
        let child = Command::new(bin)
            .arg("--state")
            .arg(&dir)
            .arg("--socket")
            .arg(dir.join("permea.sock"))
            .arg("--slots")
            .arg(SLOTS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn();
        let mut server = Server { child: None, dir };
        let child = child.map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        // Lets the wrapper script kill a daemon whose harness died hard.
        let _ = std::fs::write(server.dir.join("server.pid"), child.id().to_string());
        server.child = Some(child);
        Ok(server)
    }

    /// The daemon's socket.
    pub fn socket(&self) -> PathBuf {
        self.dir.join("permea.sock")
    }

    /// Its state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Its process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Waits until the daemon answers a status request.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            if let Ok(status) = Client::connect(&self.socket()).and_then(|mut c| c.status()) {
                if status.accepting {
                    return Ok(());
                }
            }
            if let Some(child) = &mut self.child {
                if let Ok(Some(exit)) = child.try_wait() {
                    return Err(format!("permea-server exited during start-up: {exit}"));
                }
            }
            if Instant::now() > deadline {
                return Err("permea-server did not answer its socket".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Asks the daemon to drain and waits for it to exit (killing it after
    /// a timeout). The state directory stays until drop.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let asked = Client::connect(&self.socket()).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("permea-server exited with {status}")),
                Ok(None) if asked.is_ok() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("permea-server did not drain; killed".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One submitted campaign as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    payload: usize,
    id: Option<u64>,
    ack_s: f64,
    queue_s: Option<f64>,
    exec_s: Option<f64>,
    turnaround_s: f64,
    error: Option<String>,
}

/// Submits `payloads` for `tenant` one after the other, watching each to
/// its terminal state.
fn tenant_loop(
    ctx: &Ctx,
    run: u64,
    socket: &Path,
    tenant: &str,
    plan: &DaemonPlan,
    order: &[usize],
) -> Vec<Sample> {
    let tr = &*ctx.tracer;
    let jsons: Vec<String> = plan.pool.iter().map(Payload::json).collect();
    tr.scope(HARNESS, "tenant", run, || {
        order
            .iter()
            .map(|&payload| {
                let t0 = Instant::now();
                let mut sample = Sample {
                    payload,
                    id: None,
                    ack_s: 0.0,
                    queue_s: None,
                    exec_s: None,
                    turnaround_s: 0.0,
                    error: None,
                };
                let ack = tr.scope("server", "server.Client::submit", run, || {
                    Client::connect(socket)?.submit(tenant, &jsons[payload])
                });
                sample.ack_s = t0.elapsed().as_secs_f64();
                match ack {
                    Ok(Response::Submitted { id }) => sample.id = Some(id),
                    Ok(other) => sample.error = Some(format!("submission refused: {other:?}")),
                    Err(e) => sample.error = Some(format!("submit: {e}")),
                }
                if let Some(id) = sample.id {
                    let acked = t0.elapsed().as_secs_f64();
                    let mut running_at = None;
                    let watched = tr.scope("server", "server.Client::watch", run, || {
                        Client::connect(socket)?.watch(id, |state, _| {
                            if state == CampaignState::Running && running_at.is_none() {
                                running_at = Some(t0.elapsed().as_secs_f64());
                            }
                        })
                    });
                    sample.turnaround_s = t0.elapsed().as_secs_f64();
                    if let Some(r) = running_at {
                        sample.queue_s = Some(r - acked);
                        sample.exec_s = Some(sample.turnaround_s - r);
                    }
                    match watched {
                        Ok((state, detail)) => {
                            if state != CampaignState::Completed {
                                sample.error = Some(format!(
                                    "campaign {id} ended {}: {detail}",
                                    state.label()
                                ));
                            }
                        }
                        Err(e) => sample.error = Some(format!("watch {id}: {e}")),
                    }
                }
                sample
            })
            .collect()
    })
}

/// A standalone run of a payload: its serialised result and run count.
fn standalone(payload: &Payload) -> Result<(String, u64), String> {
    let result = match payload {
        Payload::Smoke { seed } => {
            let config = StudyConfig {
                seed: *seed,
                threads: 1,
                ..StudyConfig::smoke()
            };
            Study::new(config).run().map_err(|e| e.to_string())?.result
        }
        Payload::Scenario { toml } => {
            let spec = ScenarioSpec::parse(toml, "submitted").map_err(|e| e.to_string())?;
            let study = ScenarioStudy::resolve(spec).map_err(|e| e.to_string())?;
            let options = SuiteOptions {
                process_isolation: false,
                threads: Some(1),
                obs: Obs::disabled(),
            };
            study.run(&options).map_err(|e| e.to_string())?
        }
    };
    let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    Ok((json, result.total_runs))
}

/// Sums the `golden` and `campaign` span times every slice of every
/// campaign logged to its `events.jsonl`.
fn slice_spans(state: &Path) -> (f64, f64) {
    let mut golden = 0.0;
    let mut campaign = 0.0;
    let Ok(dirs) = std::fs::read_dir(state.join("campaigns")) else {
        return (golden, campaign);
    };
    for dir in dirs.flatten() {
        let Ok(text) = std::fs::read_to_string(dir.path().join("events.jsonl")) else {
            continue;
        };
        for line in text.lines() {
            let Ok(v) = serde_json::from_str::<serde::Value>(line) else {
                continue;
            };
            let Some(map) = v.as_map() else { continue };
            let get = |k: &str| serde::value::map_get(map, k);
            if get("type").and_then(serde::Value::as_str) != Some("span_end") {
                continue;
            }
            let micros = match get("micros") {
                Some(serde::Value::U64(n)) => *n as f64,
                _ => continue,
            };
            match get("name").and_then(serde::Value::as_str) {
                Some("golden") => golden += micros * 1e-6,
                Some("campaign") => campaign += micros * 1e-6,
                _ => {}
            }
        }
    }
    (golden, campaign)
}

/// A counter from the daemon's `metrics.json`, written when it drains.
fn server_counter(state: &Path, name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(state.join("metrics.json")).ok()?;
    let v: serde::Value = serde_json::from_str(&text).ok()?;
    let process = serde::value::map_get(v.as_map()?, "process")?;
    let counters = serde::value::map_get(process.as_map()?, "counters")?;
    match serde::value::map_get(counters.as_map()?, name) {
        Some(serde::Value::U64(n)) => Some(*n as f64),
        _ => Some(0.0),
    }
}

fn percentile_ms(name: &str, values: &[f64], q: f64) -> Option<Metric> {
    quantile(values, q).map(|v| Metric::new(name, v * 1e3, "ms"))
}

/// One closed-loop batch against a fresh daemon.
fn batch(
    ctx: &Ctx,
    plan: &DaemonPlan,
    bin: &Path,
    run: u64,
    traced: bool,
    refs: &mut HashMap<usize, Result<(String, u64), String>>,
) -> Iteration {
    let mut it = Iteration::default();
    let mut server = match Server::start(bin, ctx.work_dir.join(format!("daemon-{run}"))) {
        Ok(s) => s,
        Err(e) => {
            it.failures.push(e);
            return it;
        }
    };
    if let Err(e) = server.wait_ready() {
        it.failures.push(e);
        return it;
    }
    let socket = server.socket();
    let pid = server.pid();
    let server_cpu0 = sys::proc_cpu_seconds(pid).unwrap_or(0.0);
    let meter = Meter::start();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .tenants
            .iter()
            .enumerate()
            .map(|(t, order)| {
                let socket = &socket;
                s.spawn(move || tenant_loop(ctx, run, socket, &format!("tenant-{t}"), plan, order))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tenant threads do not panic"))
            .collect()
    });
    it.wall_s = meter.wall();
    let server_cpu = sys::proc_cpu_seconds(pid).unwrap_or(server_cpu0) - server_cpu0;
    it.cpu_s = meter.cpu() + server_cpu;
    it.live_child_peak_kb = sys::proc_peak_rss_kb(pid).unwrap_or(0);
    if let Err(e) = server.stop() {
        it.failures.push(e);
    }

    it.attempted = samples.len() as u64;
    let mut completed = Vec::new();
    for s in &samples {
        if let Some(e) = &s.error {
            it.failed += 1;
            it.failures.push(e.clone());
            continue;
        }
        let id = s.id.expect("completed campaigns have ids");
        let reference = refs
            .entry(s.payload)
            .or_insert_with(|| standalone(&plan.pool[s.payload]));
        match reference {
            Ok((json, runs)) => {
                let path = server
                    .dir()
                    .join("campaigns")
                    .join(id.to_string())
                    .join("result.json");
                match std::fs::read_to_string(&path) {
                    Ok(got) if got == *json => {
                        it.runs += *runs;
                        completed.push(s);
                    }
                    Ok(_) => it.failures.push(format!(
                        "campaign {id}: result differs from a standalone run"
                    )),
                    Err(e) => it
                        .failures
                        .push(format!("campaign {id}: reading result.json: {e}")),
                }
            }
            Err(e) => it.failures.push(format!("standalone reference: {e}")),
        }
    }
    it.campaign_s = it.wall_s;
    let turnaround: Vec<f64> = completed.iter().map(|s| s.turnaround_s).collect();
    it.extra
        .extend(quantile(&turnaround, 0.5).map(|v| Metric::new("turnaround_p50_s", v, "s")));
    it.extra
        .extend(quantile(&turnaround, 0.9).map(|v| Metric::new("turnaround_p90_s", v, "s")));
    it.extra.push(Metric::new(
        "campaigns_per_s",
        completed.len() as f64 / it.wall_s,
        "1/s",
    ));
    if traced {
        let acks: Vec<f64> = completed.iter().map(|s| s.ack_s).collect();
        let queue: Vec<f64> = completed.iter().filter_map(|s| s.queue_s).collect();
        let exec: Vec<f64> = completed.iter().filter_map(|s| s.exec_s).collect();
        it.extra.extend(
            [
                percentile_ms("server.submit_ack_ms_p50", &acks, 0.5),
                percentile_ms("server.submit_ack_ms_p99", &acks, 0.99),
                percentile_ms("server.queue_wait_ms_p50", &queue, 0.5),
                percentile_ms("server.queue_wait_ms_p90", &queue, 0.9),
                percentile_ms("server.exec_ms_p50", &exec, 0.5),
            ]
            .into_iter()
            .flatten(),
        );
        it.extra.push(Metric::new(
            "server.running_seen",
            queue.len() as f64,
            "count",
        ));
        if let Some(slices) = server_counter(server.dir(), "server.slices_dispatched") {
            it.extra.extend(Metric::ratio(
                "server.slices_per_campaign",
                slices,
                completed.len() as f64,
                "count",
            ));
        }
        if let Some(rejected) = server_counter(server.dir(), "server.submissions_rejected") {
            it.extra.push(Metric::new(
                "server.submissions_rejected",
                rejected,
                "count",
            ));
        }
        let (golden, campaign) = slice_spans(server.dir());
        it.extra.push(Metric::new("fi.golden_s", golden, "s"));
        it.extra.push(Metric::new("fi.campaign_s", campaign, "s"));
    }
    it
}

/// `daemon-two-tenants`.
pub fn daemon(ctx: &Ctx) -> Outcome {
    let Some(bin) = ctx.server_bin.clone() else {
        return Outcome {
            failures: vec!["the daemon workload needs --server-bin".to_string()],
            ..Outcome::default()
        };
    };
    let plan = daemon_plan(ctx.seed);
    let mut refs = HashMap::new();
    let mut starts = 0u64;
    drive(
        ctx,
        MIN_ITERATIONS,
        || {
            starts += 1;
            let meter = Meter::start();
            let mut server = Server::start(&bin, ctx.work_dir.join(format!("setup-{starts}")))?;
            server.wait_ready()?;
            // Dropping the idle daemon kills it: a drain would add a
            // 50 ms accept poll to every sample without timing it.
            Ok(meter.wall())
        },
        |run, traced| batch(ctx, &plan, &bin, run, traced, &mut refs),
        || {
            let factory = StudyConfig::target()
                .factory(&StudyConfig::smoke().workload())
                .expect("the smoke grid is a valid arrestment workload");
            runtime_metrics(
                factory.as_ref(),
                StudyConfig::smoke()
                    .horizon_ms
                    .expect("smoke has a horizon"),
            )
        },
    )
}

//! `small-targets-process`: generated scenarios on `mask-pipeline` and
//! `five-module` — four error-model families, many instants and cases,
//! runs of a few hundred ticks — executed by a pool of two worker
//! processes with the run journal on, then resumed once from the complete
//! journal. Per-run fixed costs (fork from a snapshot, injection set-up,
//! record encoding, journal append and fsync, IPC) dominate here.

use crate::bench::{
    counter_metrics, drive, first_injection, Ctx, Iteration, Meter, MIN_ITERATIONS,
};
use crate::gen::small_scenarios;
use crate::micro::runtime_metrics;
use crate::report::{Metric, Outcome};
use crate::trace::HARNESS;
use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::journal::RunJournal;
use permea_fi::process::IsolationMode;
use permea_fi::results::CampaignResult;
use permea_obs::Obs;
use permea_target::scenario::ScenarioSpec;
use permea_target::suite::{ScenarioStudy, SuiteOptions};
use std::path::Path;
use std::time::Instant;

/// Worker processes of the pool.
pub const WORKERS: usize = 2;

fn resolve(name: &str, toml: &str) -> Result<ScenarioStudy, String> {
    let spec = ScenarioSpec::parse(toml, name).map_err(|e| e.to_string())?;
    ScenarioStudy::resolve(spec).map_err(|e| e.to_string())
}

/// The process-isolated, journaled campaign configuration of a scenario.
fn process_config(study: &ScenarioStudy, obs: &Obs) -> Result<CampaignConfig, String> {
    let options = SuiteOptions {
        process_isolation: true,
        threads: None,
        obs: obs.clone(),
    };
    let mut config = study.campaign_config(&options).map_err(|e| e.to_string())?;
    if let IsolationMode::Process(pool) = &mut config.isolation {
        pool.workers = WORKERS;
    }
    Ok(config)
}

/// In-process result of each scenario, serialised: the reference the
/// process-isolated runs must reproduce byte for byte.
fn references(scenarios: &[(String, String)]) -> Vec<Result<String, String>> {
    scenarios
        .iter()
        .map(|(name, toml)| {
            let study = resolve(name, toml)?;
            let options = SuiteOptions {
                process_isolation: false,
                threads: Some(WORKERS),
                obs: Obs::disabled(),
            };
            let result = study.run(&options).map_err(|e| e.to_string())?;
            serde_json::to_string(&result).map_err(|e| e.to_string())
        })
        .collect()
}

/// Time before the first injection can start on the process path: parse,
/// resolve, golden capture, worker spawn and hand-shake — a campaign with
/// a budget of one run.
fn setup(name: &str, toml: &str) -> Result<f64, String> {
    let meter = Meter::start();
    let study = resolve(name, toml)?;
    let factory = study
        .target()
        .factory(study.workload())
        .map_err(|e| e.to_string())?;
    let config = process_config(&study, &Obs::disabled())?;
    first_injection(meter, || {
        Campaign::new(factory.as_ref(), config).run_resumable_budgeted(
            study.campaign_spec(),
            None,
            None,
            Some(1),
        )
    })
}

/// Per-scenario measurements of one iteration, and what to check.
struct ScenarioPass {
    study: ScenarioStudy,
    result: CampaignResult,
    resumed: CampaignResult,
    recovered: usize,
    executed_on_resume: u64,
    campaign_s: f64,
    campaign_cpu_s: f64,
    resume_s: f64,
    replay_s: f64,
    parse_s: f64,
    resolve_s: f64,
    journal_bytes: u64,
}

/// Parse, resolve, journaled process-isolated campaign, then a resume
/// from the complete journal.
fn scenario_pass(
    ctx: &Ctx,
    obs: &Obs,
    run: u64,
    (name, toml): &(String, String),
    dir: &Path,
) -> Result<ScenarioPass, String> {
    let tr = &*ctx.tracer;
    let t = Instant::now();
    let spec = tr
        .scope("target", "target.ScenarioSpec::parse", run, || {
            ScenarioSpec::parse(toml, name)
        })
        .map_err(|e| e.to_string())?;
    let parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (study, factory) = tr.scope("target", "target.resolve_and_factory", run, || {
        let study = ScenarioStudy::resolve(spec).map_err(|e| e.to_string())?;
        let factory = study
            .target()
            .factory(study.workload())
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((study, factory))
    })?;
    let resolve_s = t.elapsed().as_secs_f64();
    let header = study.journal_header();
    let path = dir.join(format!("{name}.journal.jsonl"));
    let campaign =
        Campaign::new(factory.as_ref(), process_config(&study, obs)?).with_obs(obs.clone());

    let cpu0 = crate::sys::cpu_seconds();
    let t = Instant::now();
    let result = tr.scope("fi", "fi.Campaign::run_resumable", run, || {
        let (mut journal, _) = RunJournal::open_or_create(&path, &header)?;
        campaign.run_resumable(study.campaign_spec(), Some(&mut journal), None)
    });
    let campaign_s = t.elapsed().as_secs_f64();
    let campaign_cpu_s = crate::sys::cpu_seconds() - cpu0;
    let result = result.map_err(|e| e.to_string())?;

    let executed = obs.counter("process.runs_executed");
    let before = executed.get();
    let t = Instant::now();
    let (mut journal, loaded) = tr
        .scope("fi", "fi.RunJournal::open_or_create", run, || {
            RunJournal::open_or_create(&path, &header)
        })
        .map_err(|e| e.to_string())?;
    let replay_s = t.elapsed().as_secs_f64();
    let resumed = tr
        .scope("fi", "fi.Campaign::run_resumable", run, || {
            campaign.run_resumable(study.campaign_spec(), Some(&mut journal), None)
        })
        .map_err(|e| e.to_string())?;
    let resume_s = t.elapsed().as_secs_f64();
    Ok(ScenarioPass {
        recovered: loaded.recovered,
        executed_on_resume: executed.get() - before,
        journal_bytes: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        study,
        result,
        resumed,
        campaign_s,
        campaign_cpu_s,
        resume_s,
        replay_s,
        parse_s,
        resolve_s,
    })
}

/// The output checks of one scenario pass: byte-identical to the
/// in-process reference, the scenario's own expectations, and a resume
/// that re-executes nothing and reproduces the result.
fn check(pass: &ScenarioPass, reference: &str, failures: &mut Vec<String>) {
    let name = &pass.study.spec().name;
    let json = serde_json::to_string(&pass.result).expect("results serialise");
    if json != reference {
        failures.push(format!(
            "{name}: process-isolated result differs from in-process"
        ));
    }
    failures.extend(
        pass.study
            .check_expectations(&pass.result)
            .into_iter()
            .map(|v| format!("{name}: {v}")),
    );
    if pass.recovered as u64 != pass.result.total_runs {
        failures.push(format!(
            "{name}: journal replayed {} of {} runs",
            pass.recovered, pass.result.total_runs
        ));
    }
    if pass.executed_on_resume != 0 {
        failures.push(format!(
            "{name}: resume from a complete journal executed {} run(s)",
            pass.executed_on_resume
        ));
    }
    if pass.resumed != pass.result {
        failures.push(format!("{name}: resumed result differs"));
    }
}

/// `small-targets-process`.
pub fn small(ctx: &Ctx) -> Outcome {
    let scenarios = small_scenarios(ctx.seed);
    let references = references(&scenarios);
    let (name0, toml0) = &scenarios[0];
    drive(
        ctx,
        MIN_ITERATIONS,
        || setup(name0, toml0),
        |run, traced| {
            let mut it = Iteration::default();
            let dir = ctx.work_dir.join(format!("small-{run}"));
            if let Err(e) = std::fs::create_dir_all(&dir) {
                it.failures.push(format!("creating {}: {e}", dir.display()));
                return it;
            }
            let obs = ctx.tracer.obs(run);
            let meter = Meter::start();
            let passes: Vec<Result<ScenarioPass, String>> =
                ctx.tracer.scope(HARNESS, "iteration", run, || {
                    scenarios
                        .iter()
                        .map(|scenario| scenario_pass(ctx, &obs, run, scenario, &dir))
                        .collect()
                });
            it.wall_s = meter.wall();
            it.cpu_s = meter.cpu();
            let _ = std::fs::remove_dir_all(&dir);
            let mut passes_ok = Vec::new();
            for (p, reference) in passes.into_iter().zip(&references) {
                match (p, reference) {
                    (Ok(p), Ok(reference)) => {
                        check(&p, reference, &mut it.failures);
                        passes_ok.push(p);
                    }
                    (Err(e), _) => it.failures.push(e),
                    (_, Err(e)) => it.failures.push(format!("in-process reference: {e}")),
                }
            }
            let sum = |f: &dyn Fn(&ScenarioPass) -> f64| passes_ok.iter().map(f).sum::<f64>();
            it.runs = passes_ok.iter().map(|p| p.result.total_runs).sum();
            it.attempted = it.runs.max(scenarios.len() as u64);
            it.failed = passes_ok
                .iter()
                .map(|p| p.result.outcomes.quarantined())
                .sum();
            if it.failed > 0 {
                it.failures
                    .push(format!("{} run(s) quarantined", it.failed));
            }
            it.campaign_s = sum(&|p| p.campaign_s);
            it.extra = vec![Metric::new("resume_s", sum(&|p| p.resume_s), "s")];
            if traced {
                let n = passes_ok.len().max(1) as f64;
                let snap = obs.snapshot().expect("enabled obs snapshots");
                let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
                it.extra
                    .extend(counter_metrics(&snap, sum(&|p| p.campaign_cpu_s)));
                it.extra.extend([
                    Metric::new(
                        "target.scenario_parse_us",
                        sum(&|p| p.parse_s) / n * 1e6,
                        "us",
                    ),
                    Metric::new(
                        "target.factory_build_ms",
                        sum(&|p| p.resolve_s) / n * 1e3,
                        "ms",
                    ),
                    Metric::new("fi.journal.fsyncs", c("process.journal_fsyncs"), "count"),
                    Metric::new("fi.journal.replay_s", sum(&|p| p.replay_s), "s"),
                    Metric::new(
                        "fi.process.worker_spawns",
                        c("process.worker_spawns"),
                        "count",
                    ),
                    Metric::new("fi.process.retries", c("process.run_retries"), "count"),
                ]);
                it.extra.extend(Metric::ratio(
                    "fi.journal.bytes_per_run",
                    sum(&|p| p.journal_bytes as f64),
                    it.runs as f64,
                    "bytes",
                ));
            }
            it
        },
        || micro(&scenarios[0]),
    )
}

fn micro((name, toml): &(String, String)) -> Vec<Metric> {
    let study = resolve(name, toml).expect("generated scenarios resolve");
    let factory = study
        .target()
        .factory(study.workload())
        .expect("generated scenarios build");
    let cap = factory.max_run_ms();
    runtime_metrics(factory.as_ref(), cap)
}

//! The two arrestment workloads: `arrestment-quick` (the paper's
//! experiment at the quick preset, dense, one thread, through every
//! artifact and the explorer page) and `arrestment-adaptive` (the same
//! grid under the adaptive planner, two threads, to an estimate of stated
//! accuracy).
//!
//! Both run the program's own `Study::run` and, for `arrestment-quick`,
//! the `study` binary's artifact stage. A traced repetition makes the same
//! calls one by one through the public API so each carries its own span.

use crate::bench::{
    counter_metrics, drive, first_injection, Ctx, Iteration, Meter, MIN_ITERATIONS,
};
use crate::gen::arrestment_master_seed;
use crate::micro::runtime_metrics;
use crate::report::{medians, Metric, Outcome};
use crate::sha256;
use crate::trace::{Tracer, HARNESS};
use permea_analysis::report::Report;
use permea_analysis::study::{Study, StudyConfig, StudyOutput};
use permea_core::backtrack::BacktrackForest;
use permea_core::graph::PermeabilityGraph;
use permea_core::ids::SignalId;
use permea_core::measures::SystemMeasures;
use permea_core::placement::PlacementAdvisor;
use permea_core::topology::SystemTopology;
use permea_core::trace::TraceForest;
use permea_fi::adaptive::AdaptivePlan;
use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::estimate::{estimate_matrix, render_target_summaries, target_summaries};
use permea_fi::results::{CampaignResult, PairStat};
use permea_obs::{MetricsSnapshot, Obs};
use std::path::Path;
use std::time::Instant;

/// sha256 of the quick study's `result.json`, in both isolation modes and
/// at every master seed (bit-flip models draw no randomness).
pub const QUICK_RESULT_SHA256: &str =
    "eb5ba6098f66b15594508809db9c13ba37cfc3e6bfe942a552fb54833eb38b21";

/// Runs the adaptive planner executes at seed 0 (the preset's own seed).
pub const ADAPTIVE_RUNS_AT_SEED_0: u64 = 2_600;

/// The dense quick study's per-pair counts: the `pairs` of the pinned
/// `result.json`.
const DENSE_PAIRS: &str = include_str!("../data/quick-dense-pairs.json");

/// The study configuration of a workload.
fn study_config(seed: u64, threads: usize, adaptive: bool) -> StudyConfig {
    StudyConfig {
        threads,
        seed: arrestment_master_seed(seed),
        adaptive: adaptive.then(AdaptivePlan::default),
        ..StudyConfig::quick()
    }
}

/// The campaign configuration `Study` derives from a study configuration
/// (a copy of its private `campaign_config`, for the traced split only; a
/// unit test pins the split's artifacts to the `Study::run` ones).
fn campaign_config(config: &StudyConfig) -> CampaignConfig {
    CampaignConfig {
        threads: config.threads,
        master_seed: config.seed,
        keep_records: config.keep_records,
        horizon_ms: config.horizon_ms,
        fast_forward: config.fast_forward,
        ..CampaignConfig::default()
    }
}

/// Time before the first injection can start: target resolution, factory
/// build, golden capture with snapshots — measured as the study with a
/// budget of one run.
fn setup(config: &StudyConfig) -> Result<f64, String> {
    let meter = Meter::start();
    first_injection(meter, || {
        Study::new(config.clone()).run_resumable_budgeted(None, None, Some(1))
    })
}

/// Runs `f` in a span and returns its result with its duration.
fn timed<T>(
    tracer: &Tracer,
    layer: &'static str,
    name: &str,
    run: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = tracer.scope(layer, name, run, f);
    (out, t.elapsed().as_secs_f64())
}

/// What one pass of the study produced.
struct Pass {
    output: StudyOutput,
    snapshot: Option<MetricsSnapshot>,
    /// Campaign CPU seconds, measured in the traced split only.
    campaign_cpu_s: Option<f64>,
    /// Call timings of the traced split.
    layer_ms: Vec<Metric>,
    artifact_bytes: u64,
    html_bytes: u64,
    report_checks_failed: Vec<String>,
}

impl Pass {
    /// Seconds of the campaign phase, from the program's own
    /// `process.campaign_wall_ms` gauge.
    fn campaign_s(&self) -> Option<f64> {
        let ms = *self
            .snapshot
            .as_ref()?
            .gauges
            .get("process.campaign_wall_ms")?;
        Some(ms as f64 / 1e3)
    }
}

/// One pass of the study: `Study::run` plus, with `artifacts`, the
/// `study` binary's artifact stage. A traced pass makes the same calls
/// one by one instead (see [`traced_study`]) so each carries its span.
fn study_pass(
    tracer: &Tracer,
    obs: &Obs,
    config: &StudyConfig,
    run: u64,
    traced: bool,
    artifacts: Option<&Path>,
) -> Result<Pass, String> {
    let (output, campaign_cpu_s, layer_ms) = if traced {
        traced_study(tracer, obs, config, run)?
    } else {
        let output = Study::new(config.clone())
            .with_obs(obs.clone())
            .run()
            .map_err(|e| e.to_string())?;
        (output, None, Vec::new())
    };
    let mut pass = Pass {
        output,
        snapshot: None,
        campaign_cpu_s,
        layer_ms,
        artifact_bytes: 0,
        html_bytes: 0,
        report_checks_failed: Vec::new(),
    };
    match artifacts {
        Some(dir) => write_artifacts(tracer, obs, run, traced, dir, &mut pass)?,
        None => pass.snapshot = obs.snapshot(),
    }
    Ok(pass)
}

/// Writes the artifacts of one untelemetered pass of `config` to `dir`,
/// through `Study::run` or, with `traced`, through the traced split — for
/// the self-tests that pin the split and the artifact stage to the
/// program's own output.
pub fn study_artifacts(config: &StudyConfig, traced: bool, dir: &Path) -> Result<(), String> {
    let tracer = Tracer::default();
    tracer.set_enabled(traced);
    study_pass(&tracer, &Obs::disabled(), config, 0, traced, Some(dir)).map(|_| ())
}

/// `Study::run` call by call: campaign → estimate → graph, measures,
/// trees, paths, placement.
fn traced_study(
    tr: &Tracer,
    obs: &Obs,
    config: &StudyConfig,
    run: u64,
) -> Result<(StudyOutput, Option<f64>, Vec<Metric>), String> {
    let ((topology, spec, factory), target_s) = timed(tr, "target", "target.factory", run, || {
        let target = StudyConfig::target();
        let topology = target.topology();
        let spec = config.spec(&topology);
        (topology, spec, target.factory(&config.workload()))
    });
    let factory = factory.map_err(|e| e.to_string())?;
    let cpu0 = crate::sys::cpu_seconds();
    let (result, _) = timed(tr, "fi", "fi.Campaign::run", run, || {
        Campaign::new(factory.as_ref(), campaign_config(config))
            .with_obs(obs.clone())
            .run(&spec)
    });
    let campaign_cpu_s = crate::sys::cpu_seconds() - cpu0;
    let result = result.map_err(|e| e.to_string())?;
    let (matrix, estimate_s) = timed(tr, "fi", "fi.estimate_matrix", run, || {
        estimate_matrix(&topology, &result)
    });
    let matrix = matrix.map_err(|e| e.to_string())?;
    let (graph, graph_s) = timed(tr, "core", "core.PermeabilityGraph::new", run, || {
        PermeabilityGraph::new(&topology, &matrix)
    });
    let graph = graph.map_err(|e| e.to_string())?;
    let (measures, measures_s) = timed(tr, "core", "core.SystemMeasures::compute", run, || {
        SystemMeasures::compute(&graph)
    });
    let (backtrack, backtrack_s) = timed(tr, "core", "core.BacktrackForest::build", run, || {
        BacktrackForest::build(&graph)
    });
    let (trace, trace_s) = timed(tr, "core", "core.TraceForest::build", run, || {
        TraceForest::build(&graph)
    });
    let backtrack = backtrack.map_err(|e| e.to_string())?;
    let (toc2_paths, paths_s) = timed(tr, "core", "core.paths", run, || {
        toc2_paths(&topology, &backtrack)
    });
    let (placement, placement_s) = timed(tr, "core", "core.PlacementAdvisor::plan", run, || {
        PlacementAdvisor::new(&graph).map(|a| a.plan())
    });
    let output = StudyOutput {
        topology,
        spec,
        result,
        matrix,
        graph,
        measures: measures.map_err(|e| e.to_string())?,
        backtrack,
        trace: trace.map_err(|e| e.to_string())?,
        toc2_paths: toc2_paths?,
        placement: placement.map_err(|e| e.to_string())?,
    };
    let layer_ms = vec![
        Metric::new("target.factory_build_ms", target_s * 1e3, "ms"),
        Metric::new("fi.estimate_ms", estimate_s * 1e3, "ms"),
        Metric::new("core.graph_ms", graph_s * 1e3, "ms"),
        Metric::new("core.measures_ms", measures_s * 1e3, "ms"),
        Metric::new("core.backtrack_ms", (backtrack_s + paths_s) * 1e3, "ms"),
        Metric::new("core.trace_ms", trace_s * 1e3, "ms"),
        Metric::new("core.placement_ms", placement_s * 1e3, "ms"),
    ];
    Ok((output, Some(campaign_cpu_s), layer_ms))
}

/// The system output's propagation paths, sorted by weight (Table 4).
fn toc2_paths(
    topology: &SystemTopology,
    backtrack: &BacktrackForest,
) -> Result<permea_core::paths::PathSet, String> {
    let output = *topology
        .system_outputs()
        .first()
        .ok_or("topology declares no system output")?;
    Ok(backtrack
        .tree_for(output)
        .ok_or("system outputs root backtrack trees")?
        .clone()
        .into_path_set()
        .sorted_by_weight())
}

/// Title of the explorer page, as the `study` binary sets it.
const EXPLORER_TITLE: &str = "permea study explorer";

/// The `study` binary's artifact stage: report files, `result.json`,
/// `metrics.json` and the explorer page. A traced pass builds the page in
/// two spans, `explorer_data` and `render_html`, the two halves of
/// `explorer::explorer_html`.
fn write_artifacts(
    tr: &Tracer,
    obs: &Obs,
    run: u64,
    traced: bool,
    dir: &Path,
    pass: &mut Pass,
) -> Result<(), String> {
    let out = &pass.output;
    let (snapshot, _) = timed(tr, "obs", "obs.snapshot", run, || obs.snapshot());
    let (report, report_s) = timed(tr, "analysis", "analysis.Report::from_study", run, || {
        let mut report = Report::from_study(out);
        report.files.push((
            "precision.txt".to_owned(),
            render_target_summaries(&target_summaries(&out.spec, &out.result)),
        ));
        if let Some(snap) = &snapshot {
            report
                .files
                .push(("telemetry.txt".to_owned(), snap.render_summary()));
        }
        report
    });
    let (written, write_s) = timed(
        tr,
        "analysis",
        "analysis.write_to",
        run,
        || -> Result<(), String> {
            report.write_to(dir).map_err(|e| e.to_string())?;
            let json = serde_json::to_string(&out.result).map_err(|e| e.to_string())?;
            permea_fi::env::atomic_write(dir.join("result.json"), json.as_bytes())
                .map_err(|e| e.to_string())?;
            if let Some(snap) = &snapshot {
                permea_fi::env::atomic_write(
                    dir.join("metrics.json"),
                    snap.to_json_pretty().as_bytes(),
                )
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        },
    );
    written?;
    let metrics = snapshot
        .as_ref()
        .and_then(|s| serde_json::from_str(&s.to_json_pretty()).ok());
    let (html, data_s, render_s) = if traced {
        let (data, data_s) = timed(tr, "analysis", "analysis.explorer_data", run, || {
            let mut data = permea_analysis::explorer::explorer_data(out, EXPLORER_TITLE);
            if let Some(metrics) = metrics {
                data = data.with_metrics(metrics);
            }
            let matrix_json = serde_json::to_string_pretty(&out.matrix).expect("matrix serialises");
            (data, matrix_json)
        });
        let (html, render_s) = timed(tr, "explorer", "explorer.render_html", run, || {
            permea_explorer::render_html(
                &data.0,
                &[("matrix", &data.1)],
                &permea_explorer::HtmlOptions::default(),
            )
        });
        (html, data_s, render_s)
    } else {
        let html = permea_analysis::explorer::explorer_html(out, EXPLORER_TITLE, metrics, &[]);
        (html, 0.0, 0.0)
    };
    let (html_written, html_write_s) = timed(tr, "analysis", "analysis.write_html", run, || {
        permea_fi::env::atomic_write(dir.join("explorer.html"), html.as_bytes())
    });
    html_written.map_err(|e| e.to_string())?;
    pass.report_checks_failed = report
        .checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| format!("shape check {} did not reproduce: {}", c.id, c.details))
        .collect();
    pass.artifact_bytes = dir_bytes(dir);
    pass.html_bytes = html.len() as u64;
    pass.snapshot = snapshot;
    pass.layer_ms.extend([
        Metric::new(
            "analysis.report_ms",
            (report_s + write_s + data_s + html_write_s) * 1e3,
            "ms",
        ),
        Metric::new("explorer.render_ms", render_s * 1e3, "ms"),
    ]);
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Per-layer metrics of a traced pass: call timings plus campaign
/// counters.
fn campaign_metrics(pass: &Pass) -> Vec<Metric> {
    let mut out = pass.layer_ms.clone();
    if let (Some(snap), Some(cpu)) = (&pass.snapshot, pass.campaign_cpu_s) {
        out.extend(counter_metrics(snap, cpu));
    }
    out
}

fn quarantine_check(result: &CampaignResult, failures: &mut Vec<String>) -> u64 {
    let q = result.outcomes.quarantined();
    if q > 0 {
        failures.push(format!("{q} run(s) quarantined"));
    }
    q
}

const NO_CAMPAIGN_WALL: &str = "the campaign exported no process.campaign_wall_ms gauge";

/// Fewest iterations of an untraced `arrestment-quick` run. Its unit is
/// the longest (about 17 s) and a shared machine's speed drifts over tens
/// of seconds, so a run times three units, about 50 s, and the median
/// ignores one unit caught in a slow spell.
pub const QUICK_MIN_ITERATIONS: usize = 3;

/// `arrestment-quick`.
pub fn quick(ctx: &Ctx) -> Outcome {
    let config = study_config(ctx.seed, 1, false);
    drive(
        ctx,
        QUICK_MIN_ITERATIONS,
        || setup(&config),
        |run, traced| {
            let dir = ctx.work_dir.join(format!("quick-{run}"));
            let mut it = Iteration::default();
            if let Err(e) = std::fs::create_dir_all(&dir) {
                it.failures.push(format!("creating {}: {e}", dir.display()));
                return it;
            }
            let obs = ctx.tracer.obs(run);
            let meter = Meter::start();
            let pass = ctx.tracer.scope(HARNESS, "iteration", run, || {
                study_pass(&ctx.tracer, &obs, &config, run, traced, Some(&dir))
            });
            it.wall_s = meter.wall();
            it.cpu_s = meter.cpu();
            let pass = match pass {
                Ok(p) => p,
                Err(e) => {
                    it.failures.push(e);
                    return it;
                }
            };
            let result = &pass.output.result;
            it.attempted = pass.output.spec.run_count() as u64;
            it.runs = result.total_runs;
            match pass.campaign_s() {
                Some(s) => it.campaign_s = s,
                None => it.failures.push(NO_CAMPAIGN_WALL.to_string()),
            }
            it.failed = quarantine_check(result, &mut it.failures);
            match std::fs::read(dir.join("result.json")) {
                Ok(bytes) if sha256::hex_digest(&bytes) == QUICK_RESULT_SHA256 => {}
                Ok(bytes) => it.failures.push(format!(
                    "result.json sha256 {} is not the pinned {QUICK_RESULT_SHA256}",
                    sha256::hex_digest(&bytes)
                )),
                Err(e) => it.failures.push(format!("reading result.json: {e}")),
            }
            it.failures
                .extend(pass.report_checks_failed.iter().cloned());
            if traced {
                it.extra = campaign_metrics(&pass);
                it.extra.push(Metric::new(
                    "analysis.artifact_bytes",
                    pass.artifact_bytes as f64,
                    "bytes",
                ));
                it.extra.push(Metric::new(
                    "explorer.html_bytes",
                    pass.html_bytes as f64,
                    "bytes",
                ));
            }
            let _ = std::fs::remove_dir_all(&dir);
            it
        },
        || micro(&config),
    )
}

fn micro(config: &StudyConfig) -> Vec<Metric> {
    let factory = StudyConfig::target()
        .factory(&config.workload())
        .expect("the quick grid is a valid arrestment workload");
    runtime_metrics(
        factory.as_ref(),
        config.horizon_ms.expect("quick has a horizon"),
    )
}

/// Signal sequences of the non-zero system-output paths, highest weight
/// first.
fn ranking(paths: &permea_core::paths::PathSet) -> Vec<Vec<SignalId>> {
    paths
        .non_zero()
        .sorted_by_weight()
        .iter()
        .map(|p| p.signals.clone())
        .collect()
}

/// The dense quick study's estimates and TOC2 ranking, rebuilt from the
/// recorded pair counts through the same estimate and backtrack code.
struct DenseReference {
    pairs: Vec<PairStat>,
    ranking: Vec<Vec<SignalId>>,
}

fn dense_reference(
    template: &CampaignResult,
    topology: &SystemTopology,
) -> Result<DenseReference, String> {
    let pairs: Vec<PairStat> =
        serde_json::from_str(DENSE_PAIRS).map_err(|e| format!("dense reference: {e}"))?;
    let dense = CampaignResult {
        pairs: pairs.clone(),
        ..template.clone()
    };
    let matrix = estimate_matrix(topology, &dense).map_err(|e| e.to_string())?;
    let graph = PermeabilityGraph::new(topology, &matrix).map_err(|e| e.to_string())?;
    let backtrack = BacktrackForest::build(&graph).map_err(|e| e.to_string())?;
    Ok(DenseReference {
        ranking: ranking(&toc2_paths(topology, &backtrack)?),
        pairs,
    })
}

/// Output checks of an adaptive pass, returning the largest deviation of
/// an estimate from the dense one. Records are deterministic per
/// coordinate, so the sampled counts must be a subset of the dense grid's;
/// every target must have stopped on its budget or with every Wilson
/// half-width at the target; at the preset's own master seed the run count
/// and the TOC2 ranking are pinned too. How far an estimate may stray
/// from the dense value is not checked: the planner's intervals carry no
/// coverage guarantee under its optional stopping, so the deviation is
/// reported as a metric instead.
fn adaptive_checks(
    preset_seed: bool,
    pass: &Pass,
    plan: &AdaptivePlan,
    failures: &mut Vec<String>,
) -> Option<f64> {
    let out = &pass.output;
    let reference = match dense_reference(&out.result, &out.topology) {
        Ok(r) => r,
        Err(e) => {
            failures.push(e);
            return None;
        }
    };
    let mut max_abs_error: f64 = 0.0;
    for d in &reference.pairs {
        let (module, input, output) = (&d.module, &d.input_signal, &d.output_signal);
        let Some(p) = out.result.pair(module, input, output) else {
            failures.push(format!("{module}.{input}->{output} missing"));
            continue;
        };
        if p.injections > d.injections
            || p.errors > d.errors
            || p.injections - p.errors > d.injections - d.errors
        {
            failures.push(format!(
                "{module}.{input}->{output}: {}/{} is not a sample of the dense {}/{}",
                p.errors, p.injections, d.errors, d.injections
            ));
        }
        max_abs_error = max_abs_error.max((p.estimate() - d.estimate()).abs());
    }
    for t in target_summaries(&out.spec, &out.result) {
        if t.runs < t.dense_runs && t.max_half_width > plan.target_ci {
            failures.push(format!(
                "{}.{} stopped after {} runs at half-width {:.4} > {}",
                t.module, t.input_signal, t.runs, t.max_half_width, plan.target_ci
            ));
        }
    }
    if preset_seed {
        if out.result.total_runs != ADAPTIVE_RUNS_AT_SEED_0 {
            failures.push(format!(
                "adaptive campaign ran {} runs, expected {ADAPTIVE_RUNS_AT_SEED_0} at seed 0",
                out.result.total_runs
            ));
        }
        if ranking(&out.toc2_paths) != reference.ranking {
            failures.push("TOC2 path ranking differs from the dense quick study".to_string());
        }
    }
    Some(max_abs_error)
}

/// Threads of the adaptive workload.
const ADAPTIVE_THREADS: usize = 2;

/// Adaptive estimates per repetition, each at its own master seed: the
/// planner's stopping time depends on the sampling order, so one estimate
/// per repetition would make timings a lottery over seeds.
pub const ADAPTIVE_ESTIMATES: u64 = 4;

/// `arrestment-adaptive`.
pub fn adaptive(ctx: &Ctx) -> Outcome {
    let configs: Vec<StudyConfig> = (0..ADAPTIVE_ESTIMATES)
        .map(|k| {
            let mut config = study_config(ctx.seed, ADAPTIVE_THREADS, true);
            config.seed = config
                .seed
                .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            config
        })
        .collect();
    let plan = configs[0]
        .adaptive
        .clone()
        .expect("adaptive workload has a plan");
    drive(
        ctx,
        MIN_ITERATIONS,
        || setup(&configs[0]),
        |run, traced| {
            let mut it = Iteration::default();
            let meter = Meter::start();
            let passes: Vec<Result<Pass, String>> =
                ctx.tracer.scope(HARNESS, "iteration", run, || {
                    configs
                        .iter()
                        .map(|c| {
                            study_pass(&ctx.tracer, &ctx.tracer.obs(run), c, run, traced, None)
                        })
                        .collect()
                });
            it.wall_s = meter.wall();
            it.cpu_s = meter.cpu();
            let mut per_pass = Vec::new();
            for (k, pass) in passes.into_iter().enumerate() {
                let pass = match pass {
                    Ok(p) => p,
                    Err(e) => {
                        it.failures.push(e);
                        continue;
                    }
                };
                let result = &pass.output.result;
                let dense = pass.output.spec.run_count() as f64;
                let Some(campaign_s) = pass.campaign_s() else {
                    it.failures.push(NO_CAMPAIGN_WALL.to_string());
                    continue;
                };
                it.attempted += result.total_runs;
                it.runs += result.total_runs;
                it.campaign_s += campaign_s;
                it.failed += quarantine_check(result, &mut it.failures);
                let deviation =
                    adaptive_checks(ctx.seed == 0 && k == 0, &pass, &plan, &mut it.failures);
                let mut metrics = vec![
                    Metric::new("time_to_ci_s", campaign_s, "s"),
                    Metric::new("runs_to_ci", result.total_runs as f64, "count"),
                ];
                metrics.extend(deviation.map(|d| Metric::new("fi.adaptive.max_abs_error", d, "1")));
                if traced {
                    metrics.extend(campaign_metrics(&pass));
                    let snap = pass.snapshot.as_ref();
                    let c = |n: &str| snap.and_then(|s| s.counter(n)).unwrap_or(0) as f64;
                    metrics.push(Metric::new(
                        "fi.adaptive.batches",
                        c("adaptive.batches"),
                        "count",
                    ));
                    metrics.extend(Metric::ratio(
                        "fi.adaptive.runs_saved_ratio",
                        dense - result.total_runs as f64,
                        dense,
                        "1",
                    ));
                    let capacity = campaign_s * ADAPTIVE_THREADS as f64;
                    metrics.extend(Metric::ratio(
                        "fi.adaptive.idle_frac",
                        capacity - pass.campaign_cpu_s.unwrap_or(capacity),
                        capacity,
                        "1",
                    ));
                }
                per_pass.push(metrics);
            }
            // Per-estimate medians; the golden and campaign spans add up
            // over the repetition like its wall-clock does.
            it.extra = medians(&per_pass);
            it
        },
        || micro(&configs[0]),
    )
}

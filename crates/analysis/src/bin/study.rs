//! The `study` binary: runs the paper's experiment end to end and writes
//! every table, figure and shape check to an artifact directory.
//!
//! ```text
//! study [--quick | --full | --smoke] [--seed S] [--replay] [--compare-paths] RUN-FLAGS
//! study run SCENARIO RUN-FLAGS
//! study suite DIR [--out DIR] [--isolation process|in-process] [--threads N]
//! study journal merge --out PATH IN...
//!
//! RUN-FLAGS: [--out DIR] [--threads N] [--journal] [--resume DIR]
//!            [--progress] [--metrics-out PATH] [--events PATH] [--html-out PATH]
//!            [--fsync-interval N] [--isolation process|in-process]
//!            [--workers N] [--run-timeout MS] [--max-retries N]
//!            [--max-quarantined F] [--adaptive] [--target-ci W]
//!            [--batch-size N] [--shard I/N] [--chaos-plan SPEC]
//! ```
//!
//! `--quick` (default) runs the reduced configuration (seconds); `--full`
//! runs the paper's 52 000-injection campaign (minutes); `--smoke` an even
//! smaller configuration for CI smoke tests. `--replay` disables snapshot
//! fast-forward (replay every run from tick 0); `--compare-paths` times the
//! campaign both ways and reports the speedup.
//!
//! `study run SCENARIO` runs one scenario file (see
//! `permea_target::scenario` for the format) for any registered target. The
//! file fixes the campaign itself — target, workload grid, seed, horizon,
//! fast-forward — so `--seed`, `--replay` and the preset flags are usage
//! errors there, as is an invalid file (the error names the offending TOML
//! key path). It prints the per-pair permeability table, the adaptive
//! precision summary (with `--adaptive`), the propagation latencies and the
//! failed-error-propagation rate, and writes `result.json` and
//! `metrics.json` to the artifact directory. `[expect]` assertions are
//! checked by `study suite`, not by `study run`.
//!
//! `study suite DIR` runs every `*.toml` scenario file in `DIR`, checks
//! each one's `[expect]` assertions and prints a per-scenario pass/fail
//! table (runs, quarantined, failed-error-propagation rate); with `--out
//! DIR` it writes `suite.json`, `suite.txt` and each scenario's
//! `result.json`. Exit codes: 0 all pass, 1 a scenario failed its
//! expectations, 2 a scenario file is invalid.
//!
//! `study journal merge` combines the journals of `--shard i/n` runs into
//! one resumable journal, rejecting conflicting records for the same
//! coordinate; `--resume` on the merged journal re-executes nothing and
//! writes artifacts byte-identical to an unsharded run.
//!
//! The run flags are parsed once, by `permea_analysis::cli::RunOptions`,
//! whose fields document each flag; the README's "Resilient campaigns",
//! "Adaptive campaigns", "Sharded campaigns" and "Observability" sections
//! walk through them. None of them changes what a campaign computes: a
//! journaled, resumed, merged, process-isolated or multi-threaded campaign
//! writes the same `result.json` as a plain one. SIGINT/SIGTERM stop a
//! campaign cleanly: the journal is synced, `metrics.json` is written and
//! the command that resumes the campaign is printed.
//!
//! Exit codes (pinned in `permea_analysis::exit`): 0 success, 1 failure,
//! 2 usage error, 3 quarantine threshold exceeded (systematic target
//! breakage), 4 environment failure (disk full, journal or artifact I/O —
//! fix the environment and `--resume`), 130 interrupted (resumable).

use permea_analysis::cli::{failed, FlagValues, Job, PresetCommand, RunOptions, ScenarioCommand};
use permea_analysis::exit;
use permea_analysis::report::Report;
use permea_analysis::study::{Study, StudyConfig, StudyOutput};
use permea_explorer::ExplorerData;
use permea_fi::estimate::{render_target_summaries, target_summaries};
use permea_fi::latency::{latency_summaries, render_latencies};
use permea_fi::process::run_worker;
use permea_obs::{Obs, Sink, StderrSink};
use permea_target::registry;
use permea_target::scenario::ScenarioSpec;
use permea_target::suite::{run_suite, FepStats, ScenarioStudy, SuiteOptions};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: study [--quick | --full | --smoke] [--seed S] [--replay] \
     [--compare-paths] RUN-FLAGS\n\
     \x20      study run SCENARIO RUN-FLAGS\n\
     \x20      study journal merge --out PATH IN...\n\
     \x20      study suite DIR [--out DIR] [--isolation process|in-process] [--threads N]\n\
     RUN-FLAGS: [--out DIR] [--threads N] [--journal] [--resume DIR] \
     [--progress] [--metrics-out PATH] [--events PATH] [--html-out PATH] \
     [--fsync-interval N] [--isolation process|in-process] [--workers N] \
     [--run-timeout MS] [--max-retries N] [--max-quarantined F] [--adaptive] \
     [--target-ci W] [--batch-size N] [--shard I/N] [--chaos-plan SPEC]\n\
     exit codes: 0 success, 1 failure, 2 usage, \
     3 quarantine threshold exceeded, 4 environment failure, 130 interrupted";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    let code = match first.as_deref() {
        // Worker mode: this process is a pool member re-exec'd by a
        // supervising `study --isolation process`. It speaks the framed IPC
        // protocol on stdin/stdout and never parses the normal CLI.
        Some("--worker") => Ok(run_worker(registry::factory_from_payload)),
        Some("journal") => journal_command(args),
        Some("suite") => suite_command(args),
        Some("run") => ScenarioCommand::parse(args).map(|cmd| run_command(&cmd)),
        _ => PresetCommand::parse(first.into_iter().chain(args)).map(|cmd| preset_command(&cmd)),
    };
    ExitCode::from(code.unwrap_or_else(|problem| {
        eprintln!("study: {problem}\n{USAGE}");
        exit::EXIT_USAGE
    }))
}

/// The `study journal merge --out PATH IN...` subcommand: combines shard
/// journals into one resumable journal, refusing conflicting records.
fn journal_command(mut args: impl Iterator<Item = String>) -> Result<u8, String> {
    if args.next().as_deref() != Some("merge") {
        return Err("journal needs the `merge` verb".into());
    }
    let mut out: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.value(&arg)?),
            _ => inputs.push(PathBuf::from(arg)),
        }
    }
    let out = out.ok_or("journal merge needs --out PATH")?;
    if inputs.is_empty() {
        return Err("journal merge needs input journals".into());
    }
    Ok(match permea_fi::journal::merge_journals(&out, &inputs) {
        Ok(s) => {
            eprintln!(
                "merged {} journal(s) into {}: {} record(s), {} duplicate(s) collapsed{}",
                s.inputs,
                out.display(),
                s.records,
                s.duplicates,
                if s.torn_tails > 0 {
                    format!(", {} torn tail(s) skipped", s.torn_tails)
                } else {
                    String::new()
                }
            );
            exit::EXIT_OK
        }
        Err(e) => {
            eprintln!("journal merge failed: {e}");
            exit::classify_error(&e)
        }
    })
}

/// The `study suite DIR [--out DIR] [--isolation process|in-process]
/// [--threads N]` subcommand: runs every `*.toml` scenario in `DIR`
/// against the target registry and summarises pass/fail per scenario.
fn suite_command(mut args: impl Iterator<Item = String>) -> Result<u8, String> {
    let mut dir: Option<PathBuf> = None;
    let mut run = RunOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" | "--isolation" | "--threads" => {
                run.parse_flag(&arg, &mut args)?;
            }
            _ if dir.is_none() && !arg.starts_with('-') => dir = Some(PathBuf::from(arg)),
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    let dir = dir.ok_or("suite needs a scenario directory")?;
    let options = SuiteOptions {
        process_isolation: run.process_isolation,
        threads: run.threads,
        obs: Obs::with_sinks(vec![Arc::new(StderrSink) as Arc<dyn Sink>]),
    };
    // A non-directory argument is a usage error (2), not an environment
    // failure: nothing has started running yet.
    if !dir.is_dir() {
        eprintln!(
            "scenario suite: `{}` is not a readable directory",
            dir.display()
        );
        return Ok(exit::EXIT_USAGE);
    }
    Ok(match run_suite(&dir, run.out_dir.as_deref(), &options) {
        Ok(report) => {
            print!("{}", report.render());
            report.exit_code()
        }
        Err(e) => {
            eprintln!("scenario suite failed: {e}");
            exit::classify_error(&e)
        }
    })
}

/// `study [--quick | --full | --smoke]`: the paper's study, every table,
/// figure and shape check.
fn preset_command(cmd: &PresetCommand) -> u8 {
    let config = cmd.config();
    let target = StudyConfig::target();
    let topology = target.topology();
    let factory = target
        .factory(&config.workload())
        .expect("the presets are valid arrestment grids");
    let job = Job {
        what: "study".to_owned(),
        worker_payload: registry::worker_payload(target.name(), &config.workload()),
        factory: factory.as_ref(),
        spec: config.spec(&topology),
        base: config.campaign_config(),
        resume_hint: cmd.resume_hint(),
    };
    let (run, result) = match cmd.run.execute(&job) {
        Ok(done) => done,
        Err(code) => return code,
    };
    let obs = &run.obs;

    if cmd.compare_paths {
        let mut other = config.clone();
        other.fast_forward = !config.fast_forward;
        let started = Instant::now();
        if let Err(e) = Study::new(other).run() {
            return failed(obs, "comparison path failed", &e);
        }
        let other_secs = started.elapsed().as_secs_f64();
        let (fast, slow) = if config.fast_forward {
            (run.secs, other_secs)
        } else {
            (other_secs, run.secs)
        };
        obs.info(format!(
            "path comparison: fast-forward {fast:.1}s vs replay-from-zero {slow:.1}s \
             ({:.1}x speedup)",
            slow / fast
        ));
    }

    let output = match StudyOutput::analyse(topology, job.spec, result) {
        Ok(output) => output,
        Err(e) => return failed(obs, "study failed", &e),
    };
    let metrics = obs.snapshot();
    let mut report = Report::from_study(&output);
    // Per-target achieved precision and runs saved; for a dense campaign
    // the same table audits the achieved CI widths.
    report.files.push((
        "precision.txt".to_owned(),
        render_target_summaries(&target_summaries(&output.spec, &output.result)),
    ));
    if let Some(snap) = &metrics {
        report
            .files
            .push(("telemetry.txt".to_owned(), snap.render_summary()));
    }
    print!("{}", report.summary());
    let written = report.write_to(&cmd.run.out_dir()).and_then(|()| {
        cmd.run
            .write_artifacts(&run, &output.result, metrics.as_ref(), |metrics, logs| {
                permea_analysis::explorer::explorer_html(
                    &output,
                    "permea study explorer",
                    metrics,
                    logs,
                )
            })
    });
    if let Err(e) = written {
        return failed(obs, "failed to write artifacts", &e);
    }
    let failed_checks = report.checks.iter().filter(|c| !c.pass).count();
    if failed_checks > 0 {
        obs.warn(format!("{failed_checks} shape check(s) did not reproduce"));
    }
    exit::EXIT_OK
}

/// `study run SCENARIO`: one scenario file under the run flags.
fn run_command(cmd: &ScenarioCommand) -> u8 {
    let study = match ScenarioSpec::load(&cmd.scenario).and_then(ScenarioStudy::resolve) {
        Ok(study) => study,
        Err(e) => {
            eprintln!("invalid scenario {}: {e}", cmd.scenario.display());
            return exit::EXIT_USAGE;
        }
    };
    let threads = SuiteOptions {
        threads: cmd.run.threads,
        ..SuiteOptions::default()
    };
    let base = study
        .campaign_config(&threads)
        .expect("an in-process configuration needs no worker command");
    let mut spec = study.campaign_spec().clone();
    spec.adaptive = cmd.run.adaptive.clone();
    let job = Job {
        what: format!(
            "scenario {} on {}",
            study.spec().name,
            study.target().name()
        ),
        worker_payload: registry::worker_payload(study.target().name(), study.workload()),
        factory: study.factory(),
        spec,
        base,
        resume_hint: cmd.resume_hint(),
    };
    let (run, result) = match cmd.run.execute(&job) {
        Ok(done) => done,
        Err(code) => return code,
    };
    let result = &result;

    println!(
        "{:<8} {:<14} {:<14} {:>8} {:>8} {:>8}",
        "Module", "Input", "Output", "n", "errors", "P"
    );
    for p in &result.pairs {
        println!(
            "{:<8} {:<14} {:<14} {:>8} {:>8} {:>8.3}",
            p.module,
            p.input_signal,
            p.output_signal,
            p.injections,
            p.errors,
            p.estimate()
        );
    }
    println!();
    if job.spec.adaptive.is_some() {
        print!(
            "{}",
            render_target_summaries(&target_summaries(&job.spec, result))
        );
        println!();
    }
    print!("{}", render_latencies(&latency_summaries(result)));
    let fep = FepStats::from_result(result);
    println!(
        "\nfailed error propagation: {} of {} effective injections masked ({:.3})",
        fep.masked,
        fep.effective,
        fep.rate()
    );

    let metrics = run.obs.snapshot();
    let written = cmd
        .run
        .write_artifacts(&run, result, metrics.as_ref(), |metrics, logs| {
            let data = ExplorerData::new("permea campaign explorer").with_campaign(result);
            permea_analysis::explorer::render_page(data, metrics, logs, &[])
        });
    match written {
        Ok(()) => exit::EXIT_OK,
        Err(e) => failed(&run.obs, "failed to write artifacts", &e),
    }
}

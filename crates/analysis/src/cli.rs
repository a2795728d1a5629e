//! The command line of the `study` binary, parsed once.
//!
//! `study [--quick | --full | --smoke]` ([`PresetCommand`]) and `study run
//! SCENARIO` ([`ScenarioCommand`]) take the same run flags. [`RunOptions`]
//! parses them and builds what they configure — telemetry sinks, chaos
//! injector, worker pool, [`CampaignConfig`] overrides, run journal — then
//! executes the resolved [`Job`] and writes its artifacts. `permea-server`
//! shares the event-log and chaos wiring ([`open_obs`], [`arm_chaos`]).

use crate::exit;
use crate::study::StudyConfig;
use permea_fi::adaptive::AdaptivePlan;
use permea_fi::campaign::{Campaign, CampaignConfig, SystemFactory};
use permea_fi::chaos::{ChaosInjector, ChaosPlan};
use permea_fi::env::{atomic_write_chaos, create_dir_all};
use permea_fi::error::FiError;
use permea_fi::journal::{JournalHeader, RunJournal};
use permea_fi::process::{IsolationMode, ProcessIsolation, WorkerCommand};
use permea_fi::results::CampaignResult;
use permea_fi::shard::Shard;
use permea_fi::spec::CampaignSpec;
use permea_obs::{JsonlSink, MetricsSnapshot, Obs, ProgressSink, Sink, StderrSink};
use permea_server::signal as interrupt;
use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// Reads flag values off any iterator over command-line arguments. A
/// missing or malformed value is a usage error, returned as its message.
pub trait FlagValues: Iterator<Item = String> {
    /// The argument after `flag`, converted by `parse`.
    fn value_with<T, E: Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        let raw = self.next().ok_or_else(|| format!("{flag} needs a value"))?;
        parse(&raw).map_err(|e| format!("invalid {flag} `{raw}`: {e}"))
    }

    /// The argument after `flag`, parsed with [`FromStr`].
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value_with(flag, str::parse::<T>)
    }
}

impl<I: Iterator<Item = String>> FlagValues for I {}

/// Opens a command's telemetry handle: messages on stderr, a live progress
/// line with `progress`, and the JSONL event log at `events`. With
/// `append` the log gains a new session (a restarted daemon keeps its
/// history); otherwise it starts afresh.
///
/// # Errors
///
/// A message naming the event log that could not be opened.
pub fn open_obs(progress: bool, events: Option<&Path>, append: bool) -> Result<Obs, String> {
    let mut sinks: Vec<Arc<dyn Sink>> = vec![Arc::new(StderrSink)];
    if progress {
        sinks.push(Arc::new(ProgressSink::new()));
    }
    if let Some(path) = events {
        let sink = if append {
            JsonlSink::append_session(path)
        } else {
            JsonlSink::create(path)
        };
        let sink = sink.map_err(|e| format!("cannot open event log {}: {e}", path.display()))?;
        sinks.push(Arc::new(sink));
    }
    Ok(Obs::with_sinks(sinks))
}

/// Arms the deterministic chaos harness for `plan`, announcing it on `obs`
/// and counting its injected faults there.
pub fn arm_chaos(plan: ChaosPlan, obs: &Obs) -> Arc<ChaosInjector> {
    obs.warn(format!(
        "chaos plan armed ({} fault(s)): {plan}",
        plan.len()
    ));
    let mut injector = ChaosInjector::new(plan);
    injector.attach_obs(obs);
    Arc::new(injector)
}

/// A campaign resolved from a preset or a scenario, ready to execute.
pub struct Job<'a> {
    /// What runs, for the log: `study` or `scenario NAME on TARGET`.
    pub what: String,
    /// The handshake that rebuilds the system in a worker process (see
    /// `permea_target::registry::worker_payload`).
    pub worker_payload: String,
    /// Builds the system under test.
    pub factory: &'a dyn SystemFactory,
    /// The expanded campaign spec.
    pub spec: CampaignSpec,
    /// The campaign configuration the job defines (threads, seed, horizon,
    /// records, fast-forward); the run flags layer over it.
    pub base: CampaignConfig,
    /// The command that resumes the job from its journal.
    pub resume_hint: String,
}

/// The wiring a finished campaign ran under.
pub struct Executed {
    /// The run's telemetry handle.
    pub obs: Obs,
    /// The armed chaos injector, if any.
    pub chaos: Option<Arc<ChaosInjector>>,
    /// Wall-clock seconds the campaign took.
    pub secs: f64,
}

/// The run flags both `study` front ends accept. None of them changes
/// what a campaign computes; they choose where it runs, how it is made
/// durable and observed, and which slice of it this process executes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// `--out DIR` (or `--resume DIR`): the artifact directory.
    pub out_dir: Option<PathBuf>,
    /// `--journal` (implied by `--resume DIR`): append every finished run
    /// to `DIR/journal.jsonl` as write-ahead state. Runs already journaled
    /// there are not re-executed, and a journal written for another spec,
    /// seed or horizon is refused.
    pub journal: bool,
    /// `--progress`: a live progress line (runs/s, quarantine count,
    /// fast-forward rate, ETA) on stderr.
    pub progress: bool,
    /// `--metrics-out PATH`: where `metrics.json` goes instead of the
    /// artifact directory. Its `campaign` section is deterministic (a
    /// resumed campaign merges the journaled run statistics); its `process`
    /// section describes this invocation.
    pub metrics_out: Option<PathBuf>,
    /// `--events PATH`: every telemetry event as JSONL.
    pub events: Option<PathBuf>,
    /// `--html-out PATH`: the self-contained explorer page (one file, no
    /// network); with `--events` it carries the convergence curves and
    /// the campaign timeline too.
    pub html_out: Option<PathBuf>,
    /// `--threads N`: campaign threads (0 = all cores).
    pub threads: Option<usize>,
    /// `--isolation process` (vs `in-process`): run injections in a
    /// supervised pool of worker processes (re-execs of the binary with
    /// `--worker`), so a run that aborts or deadlocks only kills its
    /// worker and is classified, retried, then quarantined.
    pub process_isolation: bool,
    /// `--workers N`: size of the worker pool, which doubles as the
    /// supervisor thread count (0 = all cores).
    pub workers: Option<usize>,
    /// `--run-timeout MS`: hard per-run wall-clock deadline of a worker.
    pub run_timeout_ms: Option<u64>,
    /// `--max-retries N`: retries for a run that kills its worker.
    pub max_retries: Option<u32>,
    /// `--max-quarantined F`: the quarantine abort threshold (exit 3).
    pub max_quarantined: Option<f64>,
    /// `--fsync-interval N`: journal appends per fsync (default 64).
    pub fsync_interval: Option<usize>,
    /// `--adaptive`: the sequential sampling planner instead of the dense
    /// grid; `--target-ci W` (default 0.05) and `--batch-size N` (default
    /// 50) tune it and imply `--adaptive`.
    pub adaptive: Option<AdaptivePlan>,
    /// `--shard I/N`: execute only shard `I` of `N`, journaled under the
    /// unsharded header so `study journal merge` can combine the shards.
    pub shard: Option<Shard>,
    /// `--chaos-plan SPEC`: the deterministic environment-fault plan (see
    /// `permea_fi::chaos`); without one no injector exists at all.
    pub chaos_plan: Option<ChaosPlan>,
}

impl RunOptions {
    /// Consumes `flag`, and its value from `args`, when it is a run flag.
    /// Returns `false` for any other argument, which the caller handles.
    ///
    /// # Errors
    ///
    /// The usage message for a missing or malformed value.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--out" => self.out_dir = Some(args.value(flag)?),
            "--resume" => {
                self.out_dir = Some(args.value(flag)?);
                self.journal = true;
            }
            "--journal" => self.journal = true,
            "--progress" => self.progress = true,
            "--metrics-out" => self.metrics_out = Some(args.value(flag)?),
            "--events" => self.events = Some(args.value(flag)?),
            "--html-out" => self.html_out = Some(args.value(flag)?),
            "--threads" => self.threads = Some(args.value(flag)?),
            "--isolation" => {
                self.process_isolation = args.value_with(flag, |v| match v {
                    "process" => Ok(true),
                    "in-process" => Ok(false),
                    _ => Err("expected process or in-process"),
                })?;
            }
            "--workers" => self.workers = Some(args.value(flag)?),
            "--run-timeout" => self.run_timeout_ms = Some(args.value(flag)?),
            "--max-retries" => self.max_retries = Some(args.value(flag)?),
            "--max-quarantined" => self.max_quarantined = Some(args.value(flag)?),
            "--fsync-interval" => self.fsync_interval = Some(args.value(flag)?),
            "--adaptive" => {
                self.adaptive.get_or_insert_with(AdaptivePlan::default);
            }
            "--target-ci" => {
                let w = args.value(flag)?;
                self.adaptive
                    .get_or_insert_with(AdaptivePlan::default)
                    .target_ci = w;
            }
            "--batch-size" => {
                let n = args.value(flag)?;
                self.adaptive
                    .get_or_insert_with(AdaptivePlan::default)
                    .batch_size = n;
            }
            "--shard" => self.shard = Some(args.value_with(flag, Shard::parse)?),
            "--chaos-plan" => self.chaos_plan = Some(args.value_with(flag, ChaosPlan::parse)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Rejects flags that would be silently ignored.
    fn check(&self) -> Result<(), String> {
        if !self.process_isolation && (self.workers.is_some() || self.run_timeout_ms.is_some()) {
            return Err("--workers and --run-timeout size the pool of --isolation process".into());
        }
        Ok(())
    }

    /// The artifact directory (`artifacts/study` by default).
    pub fn out_dir(&self) -> PathBuf {
        self.out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("artifacts/study"))
    }

    /// Writes `metrics.json` (to `--metrics-out` or the artifact directory).
    fn write_metrics(
        &self,
        metrics: Option<&MetricsSnapshot>,
        chaos: Option<&ChaosInjector>,
    ) -> Result<(), FiError> {
        let Some(snap) = metrics else { return Ok(()) };
        let path = self
            .metrics_out
            .clone()
            .unwrap_or_else(|| self.out_dir().join("metrics.json"));
        atomic_write_chaos(path, snap.to_json_pretty().as_bytes(), chaos)
    }

    /// `command` followed by `--resume` and the flags that select the same
    /// campaign.
    fn resume_hint(&self, mut command: String) -> String {
        let _ = write!(command, " --resume {}", self.out_dir().display());
        if let Some(plan) = &self.adaptive {
            let _ = write!(
                command,
                " --adaptive --target-ci {} --batch-size {}",
                plan.target_ci, plan.batch_size
            );
        }
        if let Some(shard) = self.shard {
            let _ = write!(command, " --shard {shard}");
        }
        command
    }

    /// Runs `job` under these flags until it completes or a SIGINT/SIGTERM
    /// latches.
    ///
    /// # Errors
    ///
    /// The exit code, once the failure is reported. An interrupt is a
    /// graceful shutdown: the in-flight batch has drained into the journal,
    /// this run's metrics are written and the resume command is printed.
    pub fn execute(&self, job: &Job<'_>) -> Result<(Executed, CampaignResult), u8> {
        let obs = open_obs(self.progress, self.events.as_deref(), false).map_err(|e| {
            eprintln!("{e}");
            exit::EXIT_ENVIRONMENT
        })?;
        let spec = &job.spec;
        obs.info(format!(
            "running {}: {} targets x {} models x {} times x {} cases = {} injection runs",
            job.what,
            spec.targets.len(),
            spec.models.len(),
            spec.times_ms.len(),
            spec.cases,
            spec.run_count()
        ));
        if let Some(plan) = &self.adaptive {
            obs.info(format!(
                "adaptive sampling: target CI half-width {}, batches of {} per stratum \
                 (dense grid is the budget ceiling)",
                plan.target_ci, plan.batch_size
            ));
        }
        if let Some(s) = self.shard {
            obs.info(format!(
                "shard {s}: executing only coordinates owned by this shard; \
                 merge the shard journals and --resume for full-campaign artifacts"
            ));
        }
        let chaos = self.chaos_plan.clone().map(|plan| arm_chaos(plan, &obs));
        let fail = |what: &str, e: &FiError| failed(&obs, what, e);
        let config = self
            .campaign_config(job.base.clone(), &job.worker_payload, &obs)
            .map_err(|e| fail("cannot set up worker processes", &e))?;
        let header = JournalHeader::new(spec, job.base.master_seed, job.base.horizon_ms);
        let mut journal = self
            .open_journal(&header, &obs)
            .map_err(|e| fail("cannot open the run journal", &e))?;
        let mut campaign = Campaign::new(job.factory, config).with_obs(obs.clone());
        if let Some(chaos) = &chaos {
            campaign = campaign.with_chaos(chaos.clone());
        }

        interrupt::install();
        let started = Instant::now();
        let outcome = campaign.run_resumable(spec, journal.as_mut(), Some(interrupt::latch()));
        let secs = started.elapsed().as_secs_f64();
        let result = match outcome {
            Ok(result) => result,
            Err(FiError::Interrupted { completed, total }) => {
                obs.info(format!(
                    "interrupted: {completed} of {total} runs journaled"
                ));
                obs.info(format!("resume with: {}", job.resume_hint));
                let written = create_dir_all(self.out_dir())
                    .and_then(|()| self.write_metrics(obs.snapshot().as_ref(), chaos.as_deref()));
                if let Err(e) = written {
                    obs.warn(format!("failed to write metrics: {e}"));
                }
                obs.flush();
                return Err(exit::EXIT_INTERRUPTED);
            }
            Err(e) if e.is_environment_failure() => {
                let what = "study aborted by environment failure (campaign state is intact \
                            — fix the environment and --resume)";
                return Err(fail(what, &e));
            }
            Err(e) => return Err(fail("study failed", &e)),
        };

        if spec.adaptive.is_some() {
            let dense = spec.run_count() as u64;
            let sampled = result.total_runs;
            obs.info(format!(
                "adaptive sampling: {sampled} of {dense} dense-grid runs executed \
                 ({:.1}% saved)",
                100.0 * dense.saturating_sub(sampled) as f64 / dense.max(1) as f64
            ));
        }
        obs.info(format!(
            "campaign finished in {secs:.1}s ({}{})",
            if job.base.fast_forward {
                "fast-forward"
            } else {
                "replay-from-zero"
            },
            if self.journal { ", journaled" } else { "" }
        ));
        let outcomes = &result.outcomes;
        if outcomes.quarantined() > 0 {
            obs.warn(format!(
                "{} run(s) quarantined ({} panicked, {} hung, {} crashed)",
                outcomes.quarantined(),
                outcomes.panicked,
                outcomes.hung,
                outcomes.crashed
            ));
        }
        Ok((Executed { obs, chaos, secs }, result))
    }

    /// Layers the execution flags over `base`: journal fsync interval,
    /// retries, quarantine threshold, shard and — with `--isolation
    /// process` — a worker pool that rebuilds the system from `payload`.
    fn campaign_config(
        &self,
        mut base: CampaignConfig,
        payload: &str,
        obs: &Obs,
    ) -> Result<CampaignConfig, FiError> {
        if let Some(n) = self.fsync_interval {
            base.journal_fsync_interval = n;
        }
        if let Some(n) = self.max_retries {
            base.max_retries = n;
        }
        if let Some(f) = self.max_quarantined {
            base.max_quarantined_fraction = f;
        }
        base.shard = self.shard;
        if self.process_isolation {
            let command = WorkerCommand::current_exe(vec!["--worker".to_owned()])?;
            let mut pool = ProcessIsolation::new(command, payload);
            pool.workers = self.workers.unwrap_or(0);
            if let Some(ms) = self.run_timeout_ms {
                pool.run_timeout_ms = ms;
            }
            obs.info(format!(
                "process isolation: {} worker(s), {} ms run deadline",
                match pool.workers {
                    0 => "per-core".to_owned(),
                    n => n.to_string(),
                },
                pool.run_timeout_ms
            ));
            base.isolation = IsolationMode::Process(pool);
        }
        Ok(base)
    }

    /// Opens (or resumes) `DIR/journal.jsonl` when the run is journaled.
    fn open_journal(
        &self,
        header: &JournalHeader,
        obs: &Obs,
    ) -> Result<Option<RunJournal>, FiError> {
        if !self.journal {
            return Ok(None);
        }
        let dir = self.out_dir();
        create_dir_all(&dir)?;
        let path = dir.join("journal.jsonl");
        let (journal, loaded) = RunJournal::open_or_create(&path, header)?;
        if loaded.recovered > 0 {
            obs.info(format!(
                "journal {}: {} run(s) already recorded{}, resuming",
                path.display(),
                loaded.recovered,
                if loaded.truncated_tail {
                    " (torn tail truncated)"
                } else {
                    ""
                }
            ));
        }
        Ok(Some(journal))
    }

    /// Writes what every finished run leaves behind: `result.json` in the
    /// artifact directory, `metrics.json` from `metrics`, and — with
    /// `--html-out` — the explorer page that `page` renders from the parsed
    /// metrics and the `--events` log. Every write is atomic (tmp + fsync +
    /// rename), so a crash mid-write never leaves a torn artifact.
    ///
    /// # Errors
    ///
    /// [`FiError::ArtifactWrite`] for the first write that fails.
    pub fn write_artifacts(
        &self,
        run: &Executed,
        result: &CampaignResult,
        metrics: Option<&MetricsSnapshot>,
        page: impl FnOnce(Option<serde_json::Value>, &[String]) -> String,
    ) -> Result<(), FiError> {
        let (obs, chaos) = (&run.obs, run.chaos.as_deref());
        let out_dir = self.out_dir();
        create_dir_all(&out_dir)?;
        let json = serde_json::to_string(result).expect("campaign results serialise");
        atomic_write_chaos(out_dir.join("result.json"), json.as_bytes(), chaos)?;
        self.write_metrics(metrics, chaos)?;
        if let Some(path) = &self.html_out {
            // Flush the event log so the re-read includes every event
            // emitted so far.
            obs.flush();
            let logs: Vec<String> = self
                .events
                .iter()
                .filter_map(|p| std::fs::read_to_string(p).ok())
                .collect();
            let metrics =
                metrics.and_then(|snap| serde_json::from_str(&snap.to_json_pretty()).ok());
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                create_dir_all(parent)?;
            }
            atomic_write_chaos(path, page(metrics, &logs).as_bytes(), chaos)?;
            obs.info(format!("explorer page written to {}", path.display()));
        }
        obs.info(format!("artifacts written to {}", out_dir.display()));
        if let Some(chaos) = chaos {
            obs.info(format!(
                "chaos: {} environment fault(s) were injected and absorbed",
                chaos.injected()
            ));
        }
        Ok(())
    }
}

/// Reports a campaign failure on `obs` and gives its exit code.
pub fn failed(obs: &Obs, what: &str, e: &FiError) -> u8 {
    obs.error(format!("{what}: {e}"));
    obs.flush();
    exit::classify_error(e)
}

/// The study configuration of the preset called `name`: `smoke` (the CI
/// smoke size), `quick` (the paper's structure on a reduced grid) or
/// `full` (the paper's 52 000-run campaign).
pub fn preset(name: &str) -> Option<StudyConfig> {
    match name {
        "smoke" => Some(StudyConfig::smoke()),
        "quick" => Some(StudyConfig::quick()),
        "full" => Some(StudyConfig::paper()),
        _ => None,
    }
}

/// `study [--quick | --full | --smoke] [--seed S] [--replay]
/// [--compare-paths] RUN-FLAGS`: the paper's study under a preset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PresetCommand {
    /// The preset's name (default `quick`).
    pub preset: String,
    /// `--seed S`: master-seed override.
    pub seed: Option<u64>,
    /// `--replay`: replay every run from tick 0 instead of forking from
    /// golden snapshots (bit-identical results).
    pub replay: bool,
    /// `--compare-paths`: also time the other execution path.
    pub compare_paths: bool,
    /// The run flags.
    pub run: RunOptions,
}

impl PresetCommand {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// The usage message for an unknown argument or a malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<PresetCommand, String> {
        let mut cmd = PresetCommand {
            preset: "quick".to_owned(),
            ..PresetCommand::default()
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => cmd.seed = Some(args.value(&arg)?),
                "--replay" => cmd.replay = true,
                "--compare-paths" => cmd.compare_paths = true,
                "--smoke" | "--quick" | "--full" => cmd.preset = arg[2..].to_owned(),
                _ if cmd.run.parse_flag(&arg, &mut args)? => {}
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        cmd.run.check()?;
        Ok(cmd)
    }

    /// The study configuration the command line selects.
    pub fn config(&self) -> StudyConfig {
        let mut config = preset(&self.preset).expect("parsed presets exist");
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(threads) = self.run.threads {
            config.threads = threads;
        }
        config.fast_forward = !self.replay;
        config.adaptive = self.run.adaptive.clone();
        config
    }

    /// The command that resumes this study from its journal.
    pub fn resume_hint(&self) -> String {
        let mut command = format!("study --{}", self.preset);
        if let Some(seed) = self.seed {
            let _ = write!(command, " --seed {seed}");
        }
        if self.replay {
            command.push_str(" --replay");
        }
        self.run.resume_hint(command)
    }
}

/// `study run SCENARIO RUN-FLAGS`: one declarative scenario file. Its
/// `[campaign]` section fixes the seed, grid, horizon and fast-forward, so
/// the preset-only flags are usage errors here.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCommand {
    /// The scenario file.
    pub scenario: PathBuf,
    /// The run flags.
    pub run: RunOptions,
}

impl ScenarioCommand {
    /// Parses the arguments after `study run`.
    ///
    /// # Errors
    ///
    /// The usage message for a missing scenario, an unknown argument or a
    /// malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<ScenarioCommand, String> {
        let mut scenario = None;
        let mut run = RunOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                _ if run.parse_flag(&arg, &mut args)? => {}
                "--seed" => {
                    return Err("--seed cannot override a scenario \
                                (set [campaign] seed in the file)"
                        .into())
                }
                _ if scenario.is_none() && !arg.starts_with('-') => {
                    scenario = Some(PathBuf::from(arg));
                }
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        let scenario = scenario.ok_or("study run needs a scenario file")?;
        run.check()?;
        Ok(ScenarioCommand { scenario, run })
    }

    /// The command that resumes this run from its journal.
    pub fn resume_hint(&self) -> String {
        self.run
            .resume_hint(format!("study run {}", self.scenario.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn preset_flags_parse_in_any_order() {
        let cmd = PresetCommand::parse(args("--threads 1 --smoke --seed 7 --adaptive")).unwrap();
        assert_eq!(cmd.preset, "smoke");
        let config = cmd.config();
        assert_eq!(config.threads, 1);
        assert_eq!(config.seed, 7);
        assert_eq!(config.adaptive, Some(AdaptivePlan::default()));
        assert_eq!(
            PresetCommand::parse(Vec::new()).unwrap().config(),
            StudyConfig::quick()
        );
    }

    #[test]
    fn resume_hint_names_the_preset_and_seed() {
        let cmd = PresetCommand::parse(args("--smoke --seed 7 --journal --out D")).unwrap();
        assert_eq!(cmd.resume_hint(), "study --smoke --seed 7 --resume D");
        let cmd = PresetCommand::parse(args(
            "--full --replay --resume D --target-ci 0.1 --shard 1/2",
        ))
        .unwrap();
        assert_eq!(
            cmd.resume_hint(),
            "study --full --replay --resume D --adaptive --target-ci 0.1 --batch-size 50 --shard 1/2"
        );
        let cmd = ScenarioCommand::parse(args("s.toml --resume D")).unwrap();
        assert_eq!(cmd.resume_hint(), "study run s.toml --resume D");
    }

    #[test]
    fn malformed_and_ignored_flags_are_usage_errors() {
        for line in [
            "--definitely-not-a-flag",
            "--threads",
            "--threads many",
            "--isolation sideways",
            "--chaos-plan journal-write=bogus@x",
            "--shard 3/2",
            "--workers 2",
            "--run-timeout 100",
        ] {
            assert!(PresetCommand::parse(args(line)).is_err(), "{line}");
        }
        assert!(PresetCommand::parse(args("--isolation process --workers 2")).is_ok());
        for line in [
            "",
            "s.toml --seed 7",
            "s.toml --smoke",
            "s.toml --replay",
            "s.toml t.toml",
        ] {
            assert!(ScenarioCommand::parse(args(line)).is_err(), "{line:?}");
        }
        let e = ScenarioCommand::parse(args("s.toml --seed 7")).unwrap_err();
        assert!(e.contains("[campaign] seed"), "{e}");
    }
}

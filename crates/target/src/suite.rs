//! The scenario suite runner: resolve a [`ScenarioSpec`] against the
//! registry, drive the campaign, measure failed error propagation, check
//! `[expect]` assertions, and — for `study suite DIR` — do all of that for
//! every scenario in a directory with a pass/fail summary table.

use crate::registry::{self, Registry};
use crate::scenario::{ScenarioError, ScenarioSpec};
use crate::target::Target;
use crate::workload::Workload;
use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::env::{atomic_write, create_dir_all};
use permea_fi::error::FiError;
use permea_fi::journal::{JournalHeader, RunJournal};
use permea_fi::outcome::RunOutcome;
use permea_fi::process::{IsolationMode, ProcessIsolation, WorkerCommand};
use permea_fi::results::CampaignResult;
use permea_fi::spec::CampaignSpec;
use permea_obs::Obs;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::AtomicBool;

/// Failed-error-propagation statistics over a campaign's run records.
///
/// A completed run whose injection actually changed the value
/// (`corrupted != original`) is *effective*; an effective run where no
/// monitored output ever diverged from the golden trace is *masked* —
/// the error died inside the system (Jahangirova et al. call this failed
/// error propagation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FepStats {
    /// Completed runs.
    pub completed: u64,
    /// Completed runs whose injected value differed from the original.
    pub effective: u64,
    /// Effective runs with no output divergence.
    pub masked: u64,
}

impl FepStats {
    /// Tallies the records of a campaign result (requires
    /// `keep_records = true`).
    pub fn from_result(result: &CampaignResult) -> FepStats {
        let mut stats = FepStats::default();
        for r in &result.records {
            if !matches!(r.outcome, RunOutcome::Completed) {
                continue;
            }
            stats.completed += 1;
            if r.corrupted_value == r.original_value {
                continue;
            }
            stats.effective += 1;
            if r.first_divergence.iter().all(Option::is_none) {
                stats.masked += 1;
            }
        }
        stats
    }

    /// The FEP rate `masked / effective` (0 when nothing was effective).
    pub fn rate(&self) -> f64 {
        if self.effective == 0 {
            0.0
        } else {
            self.masked as f64 / self.effective as f64
        }
    }
}

/// Execution options the suite applies on top of each scenario.
#[derive(Debug, Clone, Default)]
pub struct SuiteOptions {
    /// Run injection runs in supervised worker processes (requires the
    /// current executable to understand `--worker`, as the `study` binary
    /// does).
    pub process_isolation: bool,
    /// Overrides every scenario's thread count.
    pub threads: Option<usize>,
    /// Telemetry handle.
    pub obs: Obs,
}

/// A scenario resolved against the registry and ready to run.
pub struct ScenarioStudy {
    spec: ScenarioSpec,
    target: &'static dyn Target,
    workload: Workload,
    topology: permea_core::topology::SystemTopology,
    factory: Box<dyn permea_fi::campaign::SystemFactory>,
    campaign: CampaignSpec,
}

impl std::fmt::Debug for ScenarioStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioStudy")
            .field("scenario", &self.spec.name)
            .field("target", &self.target.name())
            .field("cases", &self.factory.case_count())
            .finish_non_exhaustive()
    }
}

impl ScenarioStudy {
    /// Resolves a parsed scenario: registry lookup, workload overlay,
    /// factory construction and campaign-spec validation. Everything that
    /// can be wrong with a scenario *file* is caught here, with the
    /// offending key path — running afterwards can only fail
    /// operationally.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] anchored at `target.name`, `workload.<key>` or
    /// the campaign/error-model key that failed validation.
    pub fn resolve(spec: ScenarioSpec) -> Result<ScenarioStudy, ScenarioError> {
        let target = Registry::builtin()
            .resolve(&spec.target)
            .map_err(|reason| ScenarioError::at("target.name", reason))?;
        let workload = target
            .default_workload()
            .overlaid(&spec.workload)
            .map_err(|e| ScenarioError::at(format!("workload.{}", e.key), e.reason))?;
        let factory = target
            .factory(&workload)
            .map_err(|e| ScenarioError::at(format!("workload.{}", e.key), e.reason))?;
        let topology = target.topology();
        let campaign = spec.campaign_spec_checked(&topology, factory.case_count())?;
        Ok(ScenarioStudy {
            spec,
            target,
            workload,
            topology,
            factory,
            campaign,
        })
    }

    /// The parsed scenario.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The resolved target.
    pub fn target(&self) -> &'static dyn Target {
        self.target
    }

    /// The fully overlaid workload (defaults + scenario overrides).
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The target's topology.
    pub fn topology(&self) -> &permea_core::topology::SystemTopology {
        &self.topology
    }

    /// The system factory for the resolved workload.
    pub fn factory(&self) -> &dyn permea_fi::campaign::SystemFactory {
        self.factory.as_ref()
    }

    /// The expanded, validated campaign spec.
    pub fn campaign_spec(&self) -> &CampaignSpec {
        &self.campaign
    }

    /// The journal header identifying this scenario's campaign.
    pub fn journal_header(&self) -> JournalHeader {
        JournalHeader::new(
            &self.campaign,
            self.spec.campaign.seed,
            self.spec.campaign.horizon_ms,
        )
    }

    /// The campaign configuration the scenario expands to.
    pub fn campaign_config(&self, options: &SuiteOptions) -> Result<CampaignConfig, FiError> {
        let isolation = if options.process_isolation {
            let command = WorkerCommand::current_exe(vec!["--worker".to_string()])?;
            let payload = registry::worker_payload(self.target.name(), &self.workload);
            IsolationMode::Process(ProcessIsolation::new(command, payload))
        } else {
            IsolationMode::InProcess
        };
        Ok(CampaignConfig {
            threads: options.threads.unwrap_or(self.spec.campaign.threads),
            master_seed: self.spec.campaign.seed,
            keep_records: self.spec.campaign.keep_records,
            horizon_ms: self.spec.campaign.horizon_ms,
            fast_forward: self.spec.campaign.fast_forward,
            isolation,
            ..CampaignConfig::default()
        })
    }

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// Propagates campaign failures ([`FiError`]).
    pub fn run(&self, options: &SuiteOptions) -> Result<CampaignResult, FiError> {
        self.run_resumable_budgeted(options, None, None, None)
    }

    /// Runs with optional journal durability, cancellation and a budget of
    /// fresh runs — the same resumability contract as
    /// `permea_analysis::study::Study::run_resumable_budgeted`, target-
    /// agnostically. The journal must have been opened against
    /// [`ScenarioStudy::journal_header`].
    ///
    /// # Errors
    ///
    /// As [`ScenarioStudy::run`], plus [`FiError::Interrupted`] on
    /// cancellation or budget exhaustion.
    pub fn run_resumable_budgeted(
        &self,
        options: &SuiteOptions,
        journal: Option<&mut RunJournal>,
        cancel: Option<&AtomicBool>,
        max_new_runs: Option<u64>,
    ) -> Result<CampaignResult, FiError> {
        let config = self.campaign_config(options)?;
        let campaign = Campaign::new(self.factory.as_ref(), config).with_obs(options.obs.clone());
        campaign.run_resumable_budgeted(&self.campaign, journal, cancel, max_new_runs)
    }

    /// Checks the scenario's `[expect]` assertions against a result.
    /// Returns one human-readable violation per failed assertion.
    pub fn check_expectations(&self, result: &CampaignResult) -> Vec<String> {
        let mut violations = Vec::new();
        let Some(expect) = &self.spec.expect else {
            return violations;
        };
        let fep = FepStats::from_result(result);
        if let Some(runs) = expect.runs {
            if result.total_runs != runs {
                violations.push(format!(
                    "expected exactly {runs} runs, campaign executed {}",
                    result.total_runs
                ));
            }
        }
        let quarantined = result.outcomes.panicked + result.outcomes.hung + result.outcomes.crashed;
        if let Some(max) = expect.max_quarantined {
            if quarantined > max {
                violations.push(format!(
                    "expected at most {max} quarantined runs, saw {quarantined}"
                ));
            }
        }
        if let Some(min) = expect.min_fep {
            if fep.rate() < min {
                violations.push(format!(
                    "expected FEP rate >= {min}, measured {:.4} ({}/{} effective runs masked)",
                    fep.rate(),
                    fep.masked,
                    fep.effective
                ));
            }
        }
        if let Some(max) = expect.max_fep {
            if fep.rate() > max {
                violations.push(format!(
                    "expected FEP rate <= {max}, measured {:.4} ({}/{} effective runs masked)",
                    fep.rate(),
                    fep.masked,
                    fep.effective
                ));
            }
        }
        violations
    }
}

/// How one suite scenario ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// Ran and met every expectation.
    Pass,
    /// Ran, but the campaign failed or an expectation was violated.
    Fail,
    /// Never ran: the file failed parsing or validation.
    Invalid,
}

/// One row of the suite summary.
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// Scenario file name (relative to the suite directory).
    pub file: String,
    /// Scenario name (file stem until parsed).
    pub name: String,
    /// Target name ("?" until resolved).
    pub target: String,
    /// Outcome class.
    pub status: ScenarioStatus,
    /// Total runs executed.
    pub runs: u64,
    /// Quarantined (panicked/hung/crashed) runs.
    pub quarantined: u64,
    /// Measured FEP rate, when the scenario ran.
    pub fep: Option<f64>,
    /// Failure reasons / violations, empty on pass.
    pub detail: Vec<String>,
}

/// The result of running a scenario directory.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    /// One row per scenario file, in file-name order.
    pub rows: Vec<SuiteRow>,
}

impl SuiteReport {
    /// Whether every scenario passed.
    pub fn all_passed(&self) -> bool {
        self.rows.iter().all(|r| r.status == ScenarioStatus::Pass)
    }

    /// The pinned process exit code for this report: 0 all pass, 2 when
    /// any scenario file is invalid (usage), 1 for runtime/expectation
    /// failures.
    pub fn exit_code(&self) -> u8 {
        if self
            .rows
            .iter()
            .any(|r| r.status == ScenarioStatus::Invalid)
        {
            2
        } else if !self.all_passed() {
            1
        } else {
            0
        }
    }

    /// Renders the pass/fail summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:<20} {:<14} {:>6} {:>6} {:>7}  status",
            "scenario", "name", "target", "runs", "quar", "fep"
        );
        let _ = writeln!(out, "{}", "-".repeat(96));
        for r in &self.rows {
            let fep = r
                .fep
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".to_string());
            let status = match r.status {
                ScenarioStatus::Pass => "PASS",
                ScenarioStatus::Fail => "FAIL",
                ScenarioStatus::Invalid => "INVALID",
            };
            let _ = writeln!(
                out,
                "{:<28} {:<20} {:<14} {:>6} {:>6} {:>7}  {}",
                r.file, r.name, r.target, r.runs, r.quarantined, fep, status
            );
            for d in &r.detail {
                let _ = writeln!(out, "    - {d}");
            }
        }
        let passed = self
            .rows
            .iter()
            .filter(|r| r.status == ScenarioStatus::Pass)
            .count();
        let _ = writeln!(out, "{}/{} scenarios passed", passed, self.rows.len());
        out
    }

    /// Serialises the report as JSON for artifact upload.
    pub fn to_json(&self) -> String {
        #[derive(serde::Serialize)]
        struct JsonRow {
            file: String,
            name: String,
            target: String,
            status: String,
            runs: u64,
            quarantined: u64,
            fep: Option<f64>,
            detail: Vec<String>,
        }
        #[derive(serde::Serialize)]
        struct JsonReport {
            scenarios: Vec<JsonRow>,
            exit_code: u8,
        }
        let scenarios = self
            .rows
            .iter()
            .map(|r| JsonRow {
                file: r.file.clone(),
                name: r.name.clone(),
                target: r.target.clone(),
                status: match r.status {
                    ScenarioStatus::Pass => "pass",
                    ScenarioStatus::Fail => "fail",
                    ScenarioStatus::Invalid => "invalid",
                }
                .to_string(),
                runs: r.runs,
                quarantined: r.quarantined,
                fep: r.fep,
                detail: r.detail.clone(),
            })
            .collect();
        serde_json::to_string(&JsonReport {
            scenarios,
            exit_code: self.exit_code(),
        })
        .expect("report serialises")
    }
}

/// Runs every `*.toml` scenario under `dir` (file-name order). When
/// `out_dir` is given, writes `<out>/<stem>/result.json` plus a
/// `suite.json` / `suite.txt` summary pair.
///
/// # Errors
///
/// Only directory-level I/O failures error out; per-scenario problems
/// become `Invalid`/`Fail` rows.
pub fn run_suite(
    dir: &Path,
    out_dir: Option<&Path>,
    options: &SuiteOptions,
) -> Result<SuiteReport, FiError> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| FiError::ArtifactWrite {
            path: dir.display().to_string(),
            message: format!("cannot read scenario directory: {e}"),
        })?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();

    let mut report = SuiteReport::default();
    for path in files {
        let file = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let row = run_one(&path, &file, &stem, out_dir, options);
        report.rows.push(row);
    }

    if let Some(out) = out_dir {
        create_dir_all(out)?;
        atomic_write(out.join("suite.json"), report.to_json().as_bytes())?;
        atomic_write(out.join("suite.txt"), report.render().as_bytes())?;
    }
    Ok(report)
}

fn run_one(
    path: &Path,
    file: &str,
    stem: &str,
    out_dir: Option<&Path>,
    options: &SuiteOptions,
) -> SuiteRow {
    let mut row = SuiteRow {
        file: file.to_string(),
        name: stem.to_string(),
        target: "?".to_string(),
        status: ScenarioStatus::Invalid,
        runs: 0,
        quarantined: 0,
        fep: None,
        detail: Vec::new(),
    };
    let spec = match ScenarioSpec::load(path) {
        Ok(spec) => spec,
        Err(e) => {
            row.detail.push(e.to_string());
            return row;
        }
    };
    row.name = spec.name.clone();
    row.target = spec.target.clone();
    let study = match ScenarioStudy::resolve(spec) {
        Ok(study) => study,
        Err(e) => {
            row.detail.push(e.to_string());
            return row;
        }
    };
    let result = match study.run(options) {
        Ok(result) => result,
        Err(e) => {
            row.status = ScenarioStatus::Fail;
            row.detail.push(format!("campaign failed: {e}"));
            return row;
        }
    };
    let fep = FepStats::from_result(&result);
    row.runs = result.total_runs;
    row.quarantined = result.outcomes.panicked + result.outcomes.hung + result.outcomes.crashed;
    row.fep = Some(fep.rate());
    row.detail = study.check_expectations(&result);
    row.status = if row.detail.is_empty() {
        ScenarioStatus::Pass
    } else {
        ScenarioStatus::Fail
    };
    if let Some(out) = out_dir {
        let scenario_dir = out.join(stem);
        let write = create_dir_all(&scenario_dir).and_then(|()| {
            let json = serde_json::to_string(&result).expect("result serialises");
            atomic_write(scenario_dir.join("result.json"), json.as_bytes())
        });
        if let Err(e) = write {
            row.status = ScenarioStatus::Fail;
            row.detail.push(format!("artifact write failed: {e}"));
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("permea-suite-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const PIPELINE_SCENARIO: &str = r#"
[scenario]
name = "pipeline-smoke"

[target]
name = "mask-pipeline"

[workload]
cases = 2

[campaign]
seed = 0xACED
times_ms = [100, 101, 250, 251]
targets = ["SCALE.extIn", "QUANT.clamped", "FOLD.quant"]

[error-model]
kind = "bit-flip"
bits = [0, 1, 9, 13]

[expect]
runs = 96
min_fep = 0.05
max_quarantined = 0
"#;

    #[test]
    fn resolve_rejects_unknown_targets_and_workload_keys() {
        let mut spec = ScenarioSpec::parse(PIPELINE_SCENARIO, "x").unwrap();
        spec.target = "warp-drive".to_string();
        let e = ScenarioStudy::resolve(spec).unwrap_err();
        assert_eq!(e.path, "target.name");
        assert!(e.reason.contains("unknown target"), "{e}");

        let mut spec = ScenarioSpec::parse(PIPELINE_SCENARIO, "x").unwrap();
        spec.workload = Workload::new().with_int("casez", 2);
        let e = ScenarioStudy::resolve(spec).unwrap_err();
        assert_eq!(e.path, "workload.casez");
    }

    #[test]
    fn scenario_runs_and_measures_nonzero_fep() {
        let spec = ScenarioSpec::parse(PIPELINE_SCENARIO, "x").unwrap();
        let study = ScenarioStudy::resolve(spec).unwrap();
        let result = study.run(&SuiteOptions::default()).unwrap();
        assert_eq!(result.total_runs, 96);
        let fep = FepStats::from_result(&result);
        assert!(fep.effective > 0);
        assert!(fep.masked > 0, "pipeline must mask something: {fep:?}");
        assert!(fep.rate() > 0.0 && fep.rate() < 1.0, "{fep:?}");
        assert!(study.check_expectations(&result).is_empty());
    }

    #[test]
    fn suite_runner_reports_pass_fail_and_invalid_rows() {
        let dir = scratch("mixed");
        std::fs::write(dir.join("a-good.toml"), PIPELINE_SCENARIO).unwrap();
        // Impossible expectation: same campaign, FEP floor of 1.0.
        std::fs::write(
            dir.join("b-failing.toml"),
            PIPELINE_SCENARIO.replace("min_fep = 0.05", "min_fep = 1.0"),
        )
        .unwrap();
        std::fs::write(dir.join("c-broken.toml"), "[target]\nname = \"nope\"\n").unwrap();
        let out = dir.join("out");
        let report = run_suite(&dir, Some(&out), &SuiteOptions::default()).unwrap();
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].status, ScenarioStatus::Pass);
        assert_eq!(report.rows[1].status, ScenarioStatus::Fail);
        assert!(
            report.rows[1].detail[0].contains("FEP"),
            "{:?}",
            report.rows[1]
        );
        assert_eq!(report.rows[2].status, ScenarioStatus::Invalid);
        assert_eq!(report.exit_code(), 2, "invalid dominates");
        assert!(out.join("suite.json").is_file());
        assert!(out.join("suite.txt").is_file());
        assert!(out.join("a-good").join("result.json").is_file());
        let rendered = report.render();
        assert!(rendered.contains("1/3 scenarios passed"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journaled_scenario_resumes_byte_identically_with_extended_models() {
        // Kill/resume smoke for the burst, multi-bit and intermittent
        // models: a journal written in two budgeted slices must replay to
        // the identical result, and the journal bytes must match a
        // one-shot journaled run.
        let text = r#"
[target]
name = "five-module"

[workload]
cases = 2

[campaign]
seed = 0xF1FE
threads = 1
times_ms = [51, 300]
targets = ["B.fbB", "E.sD"]

[error-model]
kind = "burst"
starts = [3, 9]
width = 3

[error-model.2]
kind = "multi-bit"
masks = [0x0041, 0x8001]

[error-model.3]
kind = "intermittent"
bits = [5]
period_ms = 7
count = 4
"#;
        let spec = ScenarioSpec::parse(text, "resume").unwrap();
        let study = ScenarioStudy::resolve(spec).unwrap();
        let options = SuiteOptions::default();
        let baseline = study.run(&options).unwrap();
        assert_eq!(baseline.total_runs, 2 * 5 * 2 * 2);

        let dir = scratch("resume");
        let header = study.journal_header();

        // One-shot journaled reference.
        let full = dir.join("full.jsonl");
        let (mut j, _) = RunJournal::open_or_create(&full, &header).unwrap();
        let full_result = study
            .run_resumable_budgeted(&options, Some(&mut j), None, None)
            .unwrap();
        j.sync().unwrap();
        drop(j);
        assert_eq!(full_result, baseline);

        // Killed after a 7-run budget slice, then resumed.
        let sliced = dir.join("sliced.jsonl");
        let (mut j, _) = RunJournal::open_or_create(&sliced, &header).unwrap();
        let e = study
            .run_resumable_budgeted(&options, Some(&mut j), None, Some(7))
            .unwrap_err();
        assert!(
            matches!(e, FiError::Interrupted { completed: 7, .. }),
            "{e}"
        );
        j.sync().unwrap();
        drop(j);
        let (mut j, loaded) = RunJournal::open_or_create(&sliced, &header).unwrap();
        assert_eq!(loaded.recovered, 7);
        let resumed = study
            .run_resumable_budgeted(&options, Some(&mut j), None, None)
            .unwrap();
        j.sync().unwrap();
        drop(j);
        assert_eq!(resumed, baseline);
        assert_eq!(
            std::fs::read(&sliced).unwrap(),
            std::fs::read(&full).unwrap(),
            "sliced and one-shot journals must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

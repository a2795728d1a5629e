//! The study-preset campaign runner and serve entry for the daemon.
//!
//! `permea-server` hosts the generic [`permea_server::Daemon`] with this
//! crate's [`StudyRunner`] plugged in: a submission payload is a small JSON
//! descriptor naming a study preset or a scenario, and each dispatched
//! slice advances that campaign by a bounded number of injection runs
//! through [`permea_fi::campaign::Campaign::run_resumable_budgeted`]. All
//! campaign state lives in the daemon-assigned per-campaign directory — the
//! run journal carries the execution, so slices, daemon restarts after
//! SIGKILL, and a standalone `study --resume` all converge to
//! byte-identical artifacts.
//!
//! Payload grammar (JSON object), one of:
//!
//! ```json
//! {"preset": "smoke", "seed": 24029, "threads": 1}
//! {"scenario": "<TOML scenario text>", "threads": 1}
//! ```
//!
//! `preset` is `smoke`, `quick` or `full`; `scenario` embeds the full
//! text of a declarative scenario file (`permea-cli submit --scenario
//! FILE` reads and escapes it). Exactly one of the two is required;
//! `seed` (preset-only) and `threads` are optional overrides. Unknown
//! presets, unknown target names and invalid scenarios are rejected at
//! admission — a typed `Rejected { InvalidPayload }` response carrying
//! the offending TOML key path, before anything is recorded.

use crate::study::StudyConfig;
use permea_fi::campaign::{Campaign, CampaignConfig, SystemFactory};
use permea_fi::error::FiError;
use permea_fi::journal::{JournalHeader, RunJournal};
use permea_fi::spec::CampaignSpec;
use permea_obs::{JsonlSink, Obs, Sink};
use permea_server::runner::{CampaignRunner, SliceOutcome, SliceRequest};
use permea_server::signal;
use permea_server::{Daemon, ServerConfig, ServerError};
use permea_target::scenario::ScenarioSpec;
use permea_target::suite::{ScenarioStudy, SuiteOptions};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A parsed submission payload: a named study preset of the arrestment
/// target, or an inline declarative scenario for any registered target.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyPayload {
    /// `{"preset": ...}` — a study preset.
    Preset {
        /// Study preset: `smoke`, `quick` or `full`.
        preset: String,
        /// Master-seed override.
        seed: Option<u64>,
        /// Thread-count override (0 = all cores).
        threads: Option<usize>,
    },
    /// `{"scenario": ...}` — the embedded text of a scenario TOML file.
    Scenario {
        /// The scenario file text (seed and targets live inside it).
        toml: String,
        /// Thread-count override (0 = all cores).
        threads: Option<usize>,
    },
}

impl StudyPayload {
    /// Parses and validates a payload descriptor. Scenario payloads are
    /// resolved against the target registry here, so an unknown target
    /// name or out-of-range campaign key is an admission-time rejection
    /// with the offending TOML key path, never a slice panic.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn parse(payload: &str) -> Result<StudyPayload, String> {
        let value: serde::Value =
            serde_json::from_str(payload).map_err(|e| format!("payload is not JSON: {e}"))?;
        let map = value
            .as_map()
            .ok_or_else(|| "payload must be a JSON object".to_string())?;
        let uint = |name: &str| -> Result<Option<u64>, String> {
            match serde::value::map_get(map, name) {
                None | Some(serde::Value::Null) => Ok(None),
                Some(serde::Value::U64(n)) => Ok(Some(*n)),
                Some(_) => Err(format!("\"{name}\" must be a non-negative integer")),
            }
        };
        let seed = uint("seed")?;
        let threads = uint("threads")?.map(|n| n as usize);

        let preset = serde::value::map_get(map, "preset").and_then(serde::Value::as_str);
        let scenario = serde::value::map_get(map, "scenario").and_then(serde::Value::as_str);
        match (preset, scenario) {
            (Some(_), Some(_)) => {
                Err("payload must name either \"preset\" or \"scenario\", not both".to_string())
            }
            (None, None) => Err("payload needs a \"preset\" or \"scenario\" string".to_string()),
            (Some(preset), None) => {
                if crate::cli::preset(preset).is_none() {
                    return Err(format!(
                        "unknown preset {preset:?} (expected smoke, quick or full)"
                    ));
                }
                Ok(StudyPayload::Preset {
                    preset: preset.to_string(),
                    seed,
                    threads,
                })
            }
            (None, Some(toml)) => {
                if seed.is_some() {
                    return Err(
                        "\"seed\" cannot override a scenario (set [campaign] seed in the file)"
                            .to_string(),
                    );
                }
                // Full resolve — registry lookup, workload overlay,
                // campaign validation — so rejection reasons carry the
                // offending key path.
                let spec =
                    ScenarioSpec::parse(toml, "submitted").map_err(|e| format!("scenario: {e}"))?;
                ScenarioStudy::resolve(spec).map_err(|e| format!("scenario: {e}"))?;
                Ok(StudyPayload::Scenario {
                    toml: toml.to_string(),
                    threads,
                })
            }
        }
    }

    /// The study configuration a preset payload describes (`None` for
    /// scenario payloads, which carry their own campaign section).
    pub fn config(&self) -> Option<StudyConfig> {
        let StudyPayload::Preset {
            preset,
            seed,
            threads,
        } = self
        else {
            return None;
        };
        let mut config = crate::cli::preset(preset).unwrap_or_else(StudyConfig::quick);
        if let Some(seed) = *seed {
            config.seed = seed;
        }
        if let Some(threads) = *threads {
            config.threads = threads;
        }
        Some(config)
    }
}

/// Runs study presets as daemon campaigns.
#[derive(Debug, Default)]
pub struct StudyRunner;

impl CampaignRunner for StudyRunner {
    fn validate(&self, payload: &str) -> Result<(), String> {
        StudyPayload::parse(payload).map(|_| ())
    }

    fn run_slice(&self, req: &SliceRequest<'_>) -> SliceOutcome {
        let payload = match StudyPayload::parse(req.payload) {
            Ok(p) => p,
            // validate() gates admission, so this is a ledger from a
            // future format — fail rather than guess.
            Err(e) => return SliceOutcome::Failed { message: e },
        };
        match payload {
            StudyPayload::Preset { .. } => {
                let config = payload.config().expect("preset payloads have a config");
                run_preset_slice(req, config)
            }
            StudyPayload::Scenario { toml, threads } => run_scenario_slice(req, &toml, threads),
        }
    }
}

/// Advances one campaign by a slice: resumes its journal in the
/// campaign directory, runs at most `req.slice_runs` fresh injection runs,
/// and writes `result.json` once the campaign is complete.
fn run_campaign_slice(
    req: &SliceRequest<'_>,
    factory: &dyn SystemFactory,
    spec: &CampaignSpec,
    config: CampaignConfig,
) -> SliceOutcome {
    let journal_path = req.dir.join("journal.jsonl");
    let header = JournalHeader::new(spec, config.master_seed, config.horizon_ms);
    let (mut journal, loaded) = match RunJournal::open_or_create(&journal_path, &header) {
        Ok(opened) => opened,
        Err(e) => {
            return SliceOutcome::Failed {
                message: format!("opening journal {}: {e}", journal_path.display()),
            }
        }
    };
    if loaded.recovered > 0 {
        req.obs.emit(&permea_obs::Event::Service {
            tenant: req.tenant,
            campaign: req.id,
            kind: "recovered",
            detail: "resuming from run journal",
        });
    }
    let campaign = Campaign::new(factory, config).with_obs(slice_obs(req));
    let result = match campaign.run_resumable_budgeted(
        spec,
        Some(&mut journal),
        Some(req.cancel),
        req.slice_runs,
    ) {
        Ok(result) => result,
        // Budget exhaustion and cancellation share a typed error; the
        // flag distinguishes them.
        Err(FiError::Interrupted { .. }) if req.cancel.load(Ordering::Acquire) => {
            return SliceOutcome::Cancelled
        }
        Err(FiError::Interrupted { .. }) => return SliceOutcome::Yielded,
        Err(e) => {
            return SliceOutcome::Failed {
                message: e.to_string(),
            }
        }
    };
    // Byte-identical to a standalone `study` / `study suite` run's
    // result.json by construction (same serialisation of the same
    // deterministic result), which is what the server smoke test hashes.
    let json = serde_json::to_string(&result).expect("campaign results serialise");
    match permea_fi::env::atomic_write(req.dir.join("result.json"), json.as_bytes()) {
        Ok(()) => SliceOutcome::Finished,
        Err(e) => SliceOutcome::Failed {
            message: format!("writing result.json: {e}"),
        },
    }
}

fn run_preset_slice(req: &SliceRequest<'_>, config: StudyConfig) -> SliceOutcome {
    let target = StudyConfig::target();
    let factory = target
        .factory(&config.workload())
        .expect("the presets are valid arrestment grids");
    let spec = config.spec(&target.topology());
    run_campaign_slice(req, factory.as_ref(), &spec, config.campaign_config())
}

fn run_scenario_slice(req: &SliceRequest<'_>, toml: &str, threads: Option<usize>) -> SliceOutcome {
    let study = ScenarioSpec::parse(toml, "submitted")
        .map_err(|e| e.to_string())
        .and_then(|spec| ScenarioStudy::resolve(spec).map_err(|e| e.to_string()));
    let study = match study {
        Ok(study) => study,
        // validate() resolved this at admission; a failure here is a
        // ledger from a future registry — fail rather than guess.
        Err(e) => return SliceOutcome::Failed { message: e },
    };
    let options = SuiteOptions {
        threads,
        ..SuiteOptions::default()
    };
    let config = study
        .campaign_config(&options)
        .expect("an in-process configuration needs no worker command");
    run_campaign_slice(req, study.factory(), study.campaign_spec(), config)
}

/// Telemetry for one slice: the study's events append to the campaign's
/// own `events.jsonl` (one schema header per slice-session — the
/// campaign-relative clock restarts with each slice, and the stacked
/// stream survives daemon restarts).
fn slice_obs(req: &SliceRequest<'_>) -> Obs {
    match JsonlSink::append_session(&req.dir.join("events.jsonl")) {
        Ok(sink) => Obs::with_sinks(vec![Arc::new(sink) as Arc<dyn Sink>]),
        Err(_) => Obs::disabled(),
    }
}

/// Hosts the daemon with the [`StudyRunner`]: installs the SIGINT/SIGTERM
/// latch, serves until signalled (or a client sends the `Shutdown` verb),
/// then drains gracefully — in-flight slices finish, ledger and metrics
/// flush, the socket is removed — and returns.
///
/// # Errors
///
/// [`ServerError`] when startup or the final flushes fail.
pub fn serve(config: ServerConfig, obs: Obs) -> Result<(), ServerError> {
    signal::install();
    let daemon = Daemon::start(config, Arc::new(StudyRunner), obs)?;
    daemon.run(signal::latch())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_parses_presets_and_overrides() {
        let p = StudyPayload::parse(r#"{"preset":"smoke","seed":7,"threads":1}"#).unwrap();
        assert_eq!(
            p,
            StudyPayload::Preset {
                preset: "smoke".to_string(),
                seed: Some(7),
                threads: Some(1),
            }
        );
        assert_eq!(p.config().unwrap().seed, 7);
        assert_eq!(p.config().unwrap().threads, 1);

        let q = StudyPayload::parse(r#"{"preset":"quick"}"#).unwrap();
        assert_eq!(q.config().unwrap().seed, StudyConfig::quick().seed);
    }

    #[test]
    fn payload_rejects_garbage_with_reasons() {
        assert!(StudyPayload::parse("not json")
            .unwrap_err()
            .contains("JSON"));
        assert!(StudyPayload::parse("[1,2]").unwrap_err().contains("object"));
        assert!(StudyPayload::parse(r#"{"seed":1}"#)
            .unwrap_err()
            .contains("preset"));
        assert!(StudyPayload::parse(r#"{"preset":"mega"}"#)
            .unwrap_err()
            .contains("mega"));
        assert!(StudyPayload::parse(r#"{"preset":"smoke","seed":"x"}"#)
            .unwrap_err()
            .contains("seed"));
    }

    const SCENARIO: &str = "[target]\nname = \"five-module\"\n\n[campaign]\nseed = 7\ntimes_ms = [100]\ntargets = [\"B.fbB\"]\n\n[error-model]\nkind = \"zero\"\n";

    fn scenario_payload(toml: &str) -> String {
        format!(
            "{{\"scenario\":{}}}",
            serde_json::to_string(&toml.to_string()).unwrap()
        )
    }

    #[test]
    fn scenario_payloads_resolve_at_admission() {
        let p = StudyPayload::parse(&scenario_payload(SCENARIO)).unwrap();
        assert!(matches!(p, StudyPayload::Scenario { ref toml, .. } if toml == SCENARIO));
        assert!(p.config().is_none());

        // Unknown target: the typed rejection carries the registry's
        // known-target list and the offending key path, no panic.
        let bad = SCENARIO.replace("five-module", "warp-drive");
        let e = StudyPayload::parse(&scenario_payload(&bad)).unwrap_err();
        assert!(e.contains("target.name"), "{e}");
        assert!(e.contains("unknown target `warp-drive`"), "{e}");
        assert!(e.contains("known targets"), "{e}");

        // Mutually exclusive with presets; seed lives inside the file.
        assert!(StudyPayload::parse(r#"{"preset":"smoke","scenario":"x"}"#)
            .unwrap_err()
            .contains("not both"));
        let e = StudyPayload::parse(&format!(
            "{{\"scenario\":{},\"seed\":3}}",
            serde_json::to_string(&SCENARIO.to_string()).unwrap()
        ))
        .unwrap_err();
        assert!(e.contains("seed"), "{e}");
    }

    #[test]
    fn runner_validate_matches_parse() {
        let runner = StudyRunner;
        assert!(runner.validate(r#"{"preset":"smoke"}"#).is_ok());
        assert!(runner.validate(r#"{"preset":"nope"}"#).is_err());
        assert!(runner.validate(&scenario_payload(SCENARIO)).is_ok());
        assert!(runner
            .validate(&scenario_payload(&SCENARIO.replace("five-module", "nope")))
            .err()
            .unwrap()
            .contains("unknown target"));
    }

    #[test]
    fn scenario_slice_runs_yield_resume_and_finish() {
        use permea_server::runner::CampaignRunner as _;
        use std::sync::atomic::AtomicBool;

        let dir =
            std::env::temp_dir().join(format!("permea-service-scenario-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let payload = scenario_payload(SCENARIO);
        let cancel = AtomicBool::new(false);
        let obs = permea_obs::Obs::disabled();
        let req = |budget: Option<u64>| SliceRequest {
            id: 1,
            tenant: "t",
            payload: &payload,
            dir: &dir,
            slice_runs: budget,
            cancel: &cancel,
            obs: &obs,
        };
        let runner = StudyRunner;
        // 1 time x 1 target x 16 zero-model expansions... zero expands to
        // a single model, so 2 cases x 1 x 1 = 2 runs; budget 1 yields.
        assert_eq!(runner.run_slice(&req(Some(1))), SliceOutcome::Yielded);
        assert_eq!(runner.run_slice(&req(None)), SliceOutcome::Finished);
        assert!(dir.join("result.json").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Quantifying the paper's placement claims (Section 5, OB3–OB6).
//!
//! Two experiments on the arrestment system:
//!
//! * [`detection_comparison`] — one calibrated assertion stack per candidate
//!   signal, evaluated against a system-wide injection campaign. Reproduces
//!   OB3: the detector on `IsValue` detects what passes through it almost
//!   perfectly, yet covers almost none of the runs that corrupt `TOC2`,
//!   while detectors on the high-exposure signals (`SetValue`, `OutValue`)
//!   cover most of them.
//! * [`recovery_comparison`] — splices recovery guards onto chosen signals
//!   and measures how many system-output failures disappear. Reproduces
//!   OB5: guarding `SetValue` + `OutValue` shields `TOC2`.

use permea_arrestment::system::{ArrestmentSystem, ExtraModule};
use permea_arrestment::testcase::TestCase;
use permea_fi::campaign::{Campaign, CampaignConfig, FnSystemFactory, SystemFactory};
use permea_fi::error::FiError;
use permea_fi::golden::GoldenRun;
use permea_fi::model::ErrorModel;
use permea_fi::spec::{CampaignSpec, InjectionScope, PortTarget};
use permea_mech::detectors::CompositeDetector;
use permea_mech::eval::{DetectionStudy, PlacementCoverage, RecoveryOutcome, RecoveryStudy};
use permea_mech::guard::{GuardModule, SignalGuard};
use permea_mech::recovery::HoldLastGood;
use permea_runtime::scheduler::Schedule;
use permea_target::arrestment::ArrestmentFactory;
use serde::{Deserialize, Serialize};

/// Configuration of the placement experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Workload grid (masses × velocities).
    pub masses: usize,
    /// Velocity grid size.
    pub velocities: usize,
    /// Injection instants (ms).
    pub times_ms: Vec<u64>,
    /// Bit positions to flip.
    pub bits: Vec<u8>,
    /// Comparison horizon (ms).
    pub horizon_ms: u64,
    /// Master seed.
    pub seed: u64,
}

impl PlacementConfig {
    /// A configuration small enough for CI yet structured like the paper's.
    pub fn quick() -> Self {
        PlacementConfig {
            masses: 2,
            velocities: 2,
            times_ms: vec![800, 2300, 3900],
            bits: vec![0, 2, 5, 9, 13, 15],
            horizon_ms: 8_000,
            seed: 0x5EED,
        }
    }

    /// A tiny smoke configuration for unit tests.
    pub fn smoke() -> Self {
        PlacementConfig {
            masses: 1,
            velocities: 1,
            times_ms: vec![900, 2400],
            bits: vec![1, 9, 14],
            horizon_ms: 5_000,
            seed: 0x5EED,
        }
    }

    fn cases(&self) -> Vec<TestCase> {
        TestCase::grid(self.masses, self.velocities)
    }

    fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            threads: 1,
            master_seed: self.seed,
            keep_records: false,
            horizon_ms: Some(self.horizon_ms),
            fast_forward: true,
            ..CampaignConfig::default()
        }
    }

    /// The system-wide, signal-scoped spec: every input port of every
    /// module is a target, so the error population spans the whole system.
    fn spec(&self) -> CampaignSpec {
        let topo = ArrestmentSystem::topology();
        let mut targets = Vec::new();
        for m in topo.modules() {
            for &sig in topo.inputs_of(m) {
                targets.push(PortTarget::new(topo.module_name(m), topo.signal_name(sig)));
            }
        }
        CampaignSpec {
            targets,
            models: self
                .bits
                .iter()
                .map(|&bit| ErrorModel::BitFlip { bit })
                .collect(),
            times_ms: self.times_ms.clone(),
            cases: self.masses * self.velocities,
            scope: InjectionScope::Signal,
            adaptive: None,
        }
    }
}

/// Runs the detector-placement comparison over the given candidate signals.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn detection_comparison(
    config: &PlacementConfig,
    candidate_signals: &[&str],
) -> Result<Vec<PlacementCoverage>, FiError> {
    let factory = ArrestmentFactory::with_cases(config.cases());
    let study = DetectionStudy::new(&factory, config.campaign_config());
    study.run(
        &config.spec(),
        &candidate_signals
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        &["TOC2".to_owned()],
    )
}

/// Builds a guard-augmented arrestment factory: one calibrated
/// hold-last-good guard per listed signal.
///
/// # Errors
///
/// Propagates golden-run failures during calibration.
pub fn guarded_factory(
    config: &PlacementConfig,
    guarded_signals: &[&str],
) -> Result<impl SystemFactory, FiError> {
    let cases = config.cases();
    let baseline = ArrestmentFactory::with_cases(cases.clone());
    let campaign = Campaign::new(&baseline, config.campaign_config());
    let goldens: Vec<GoldenRun> = campaign.goldens(cases.len())?;
    let signals: Vec<String> = guarded_signals.iter().map(|s| s.to_string()).collect();
    let max_run = config.horizon_ms + 300;
    Ok(FnSystemFactory::new(cases.len(), max_run, move |case| {
        let extras: Vec<ExtraModule> = signals
            .iter()
            .map(|sig| {
                let golden_trace = goldens[case]
                    .traces
                    .trace(sig)
                    .expect("guarded signal is traced");
                let guard = SignalGuard::new(
                    Box::new(CompositeDetector::calibrated_standard(golden_trace)),
                    Box::new(HoldLastGood::new()),
                );
                ExtraModule {
                    name: format!("GUARD_{sig}"),
                    module: Box::new(GuardModule::new(guard)),
                    schedule: Schedule::every_ms(),
                    inputs: vec![sig.clone()],
                    outputs: vec![sig.clone()],
                }
            })
            .collect();
        let mut sys = ArrestmentSystem::with_extras(cases[case], extras);
        let _ = &mut sys;
        sys.into_sim()
    }))
}

/// Compares system-output failure rates with and without recovery guards on
/// the given signals.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn recovery_comparison(
    config: &PlacementConfig,
    guarded_signals: &[&str],
) -> Result<RecoveryOutcome, FiError> {
    let baseline = ArrestmentFactory::with_cases(config.cases());
    let guarded = guarded_factory(config, guarded_signals)?;
    let study = RecoveryStudy::new(&baseline, &guarded, config.campaign_config());
    study.run(&config.spec(), &["TOC2".to_owned()])
}

/// Renders a coverage table.
pub fn render_coverage(coverages: &[PlacementCoverage]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Detector placement comparison (system failures = TOC2 divergence)"
    );
    let _ = writeln!(
        s,
        "{:<12} {:>6} {:>9} {:>9} {:>10} {:>11} {:>10}",
        "Signal", "runs", "failures", "detected", "coverage", "preemptive", "latency"
    );
    let mut rows = coverages.to_vec();
    rows.sort_by(|a, b| b.preemptive_coverage().total_cmp(&a.preemptive_coverage()));
    for c in rows {
        let _ = writeln!(
            s,
            "{:<12} {:>6} {:>9} {:>9} {:>9.1}% {:>10.1}% {:>10}",
            c.signal,
            c.runs,
            c.system_failures,
            c.detected_failures,
            c.coverage() * 100.0,
            c.preemptive_coverage() * 100.0,
            c.mean_latency()
                .map_or("n/a".to_owned(), |l| format!("{l:.0}ms"))
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_comparison_reproduces_ob3() {
        let cov = detection_comparison(
            &PlacementConfig::smoke(),
            &["SetValue", "OutValue", "IsValue"],
        )
        .unwrap();
        let get = |name: &str| cov.iter().find(|c| c.signal == name).unwrap().clone();
        let setv = get("SetValue");
        let outv = get("OutValue");
        let isv = get("IsValue");
        assert!(setv.system_failures > 0, "campaign produced failures");
        // OB3: the high-exposure signals catch system failures *before*
        // they reach TOC2 far more often than the pressure-sensor signal,
        // which mostly reflects failures after the fact (closed loop).
        assert!(
            outv.preemptive_coverage() > isv.preemptive_coverage(),
            "OutValue {:.2} vs IsValue {:.2}",
            outv.preemptive_coverage(),
            isv.preemptive_coverage()
        );
        assert!(
            setv.preemptive_coverage() > isv.preemptive_coverage(),
            "SetValue {:.2} vs IsValue {:.2}",
            setv.preemptive_coverage(),
            isv.preemptive_coverage()
        );
        // Runs that corrupt TOC2 directly (e.g. via PREG's input in the
        // same tick) cannot be preempted by anyone, so the achievable sum
        // is well below 1.
        assert!(setv.preemptive_coverage() + outv.preemptive_coverage() > 0.3);
        let table = render_coverage(&cov);
        assert!(table.contains("SetValue"));
        assert!(table.contains("preemptive"));
    }

    #[test]
    fn recovery_comparison_reproduces_ob5() {
        let outcome =
            recovery_comparison(&PlacementConfig::smoke(), &["SetValue", "OutValue"]).unwrap();
        assert!(outcome.baseline_failures > 0);
        assert!(
            outcome.guarded_failures < outcome.baseline_failures,
            "guards on the shield signals must remove failures: {outcome:?}"
        );
    }
}

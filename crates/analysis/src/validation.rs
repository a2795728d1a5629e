//! Validating the framework's compositional assumption (an extension of the
//! paper).
//!
//! The propagation-path machinery *predicts* system-level behaviour by
//! composing per-module permeabilities: the probability that an error on a
//! system input reaches the system output is approximated from the
//! backtrack-tree paths as `1 − Π(1 − w_path)`. This module *measures* the
//! same quantity directly — inject at the system input's consumer port,
//! count `TOC2` divergences — and compares.
//!
//! Exact agreement is not expected, and the experiment deliberately exposes
//! *why*: beyond the independence and single-pass-feedback assumptions, a
//! per-pair permeability embeds the **persistence** of the error the
//! campaign injected at that port. A corruption parked on a consumer port of
//! a rarely-rewritten signal lives for seconds, while the same logical error
//! arriving through an upstream module may exist for a single tick — so
//! naive path products over-predict propagation through transient carriers
//! (the `TIC1 → slow_speed → …` branch is the canonical example in the
//! arrestment system). The *relative ordering* of inputs is what the
//! framework's design guidance uses, and [`orderings_agree`] checks exactly
//! that, with a tolerance.

use crate::study::StudyOutput;
use permea_arrestment::testcase::TestCase;
use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::error::FiError;
use permea_fi::model::ErrorModel;
use permea_fi::spec::{InjectionScope, PortTarget};
use permea_target::arrestment::ArrestmentFactory;
use serde::{Deserialize, Serialize};

/// Predicted vs measured end-to-end propagation for one system input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationRow {
    /// System input signal name.
    pub input: String,
    /// Path-composed prediction `1 − Π(1 − w)` over backtrack paths ending
    /// at this input.
    pub predicted: f64,
    /// Measured fraction of injections whose `TOC2` trace diverged.
    pub measured: f64,
    /// Number of direct injections behind `measured`.
    pub injections: u64,
}

/// Configuration of the validation campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationConfig {
    /// Workload case for the direct measurement.
    pub mass_kg: f64,
    /// Engagement velocity.
    pub velocity_ms: f64,
    /// Injection instants.
    pub times_ms: Vec<u64>,
    /// Bits to flip.
    pub bits: Vec<u8>,
    /// Horizon (ms).
    pub horizon_ms: u64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            mass_kg: 14_000.0,
            velocity_ms: 60.0,
            times_ms: vec![700, 1500, 2300, 3100, 3900, 4700],
            bits: (0..16).collect(),
            horizon_ms: 9_000,
        }
    }
}

/// Runs the comparison for every system input of the arrestment system.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn validate_composition(
    study: &StudyOutput,
    config: &ValidationConfig,
) -> Result<Vec<ValidationRow>, FiError> {
    let topo = &study.topology;
    let factory =
        ArrestmentFactory::with_cases(vec![TestCase::new(config.mass_kg, config.velocity_ms)]);
    let campaign = Campaign::new(
        &factory,
        CampaignConfig {
            threads: 1,
            master_seed: 0xDA7A,
            keep_records: false,
            horizon_ms: Some(config.horizon_ms),
            fast_forward: true,
            ..CampaignConfig::default()
        },
    );
    let golden = campaign.golden_bundle(0, &config.times_ms)?;

    let mut rows = Vec::new();
    for &input in topo.system_inputs() {
        let input_name = topo.signal_name(input).to_owned();
        // Prediction: compose the estimated per-module permeabilities along
        // every backtrack path that originates at this input.
        let predicted = study.toc2_paths.end_to_end_estimate(input);

        // Measurement: inject at the barrier module's port for this signal.
        let consumer = topo.consumers_of(input)[0];
        let module_name = topo.module_name(consumer.module).to_owned();
        let target = PortTarget::new(module_name, input_name.clone());
        let mut diverged = 0u64;
        let mut injections = 0u64;
        for (i, &bit) in config.bits.iter().enumerate() {
            for (j, &t) in config.times_ms.iter().enumerate() {
                let seed = (i * 31 + j) as u64;
                let (traces, _, _) = campaign.run_traced(
                    &target,
                    InjectionScope::Port,
                    ErrorModel::BitFlip { bit },
                    t,
                    &golden,
                    seed,
                )?;
                injections += 1;
                if golden.run.first_divergence(&traces, "TOC2").is_some() {
                    diverged += 1;
                }
            }
        }
        rows.push(ValidationRow {
            input: input_name,
            predicted,
            measured: diverged as f64 / injections as f64,
            injections,
        });
    }
    Ok(rows)
}

/// `true` when predicted and measured agree on which inputs are vulnerable
/// at all (both zero or both non-zero) and order the non-zero inputs
/// consistently up to `tolerance`.
pub fn orderings_agree(rows: &[ValidationRow], tolerance: f64) -> bool {
    for a in rows {
        for b in rows {
            let dp = a.predicted - b.predicted;
            let dm = a.measured - b.measured;
            // A materially higher prediction must not come with a materially
            // lower measurement.
            if dp > tolerance && dm < -tolerance {
                return false;
            }
        }
    }
    true
}

/// Renders the comparison table.
pub fn render_validation(rows: &[ValidationRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Composition validation: predicted vs measured P(input -> TOC2)"
    );
    let _ = writeln!(
        s,
        "{:<8} {:>10} {:>10} {:>6}",
        "Input", "predicted", "measured", "n"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<8} {:>10.3} {:>10.3} {:>6}",
            r.input, r.predicted, r.measured, r.injections
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Study, StudyConfig};

    #[test]
    fn validation_orders_inputs_consistently() {
        let out = Study::new(StudyConfig::smoke()).run().unwrap();
        let cfg = ValidationConfig {
            times_ms: vec![900, 2600],
            bits: vec![0, 5, 13],
            horizon_ms: 5_000,
            ..Default::default()
        };
        let rows = validate_composition(&out, &cfg).unwrap();
        assert_eq!(rows.len(), 4, "one row per system input");
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.predicted));
            assert!((0.0..=1.0).contains(&r.measured));
            assert_eq!(r.injections, 6);
        }
        // PACNT drives the pulse chain: it must be the most vulnerable
        // input both in prediction and measurement.
        let pacnt = rows.iter().find(|r| r.input == "PACNT").unwrap();
        for other in rows.iter().filter(|r| r.input != "PACNT") {
            assert!(pacnt.measured >= other.measured, "{rows:?}");
        }
        let rendered = render_validation(&rows);
        assert!(rendered.contains("PACNT"));
    }

    #[test]
    fn orderings_agree_detects_contradiction() {
        let rows = vec![
            ValidationRow {
                input: "a".into(),
                predicted: 0.9,
                measured: 0.1,
                injections: 1,
            },
            ValidationRow {
                input: "b".into(),
                predicted: 0.1,
                measured: 0.9,
                injections: 1,
            },
        ];
        assert!(!orderings_agree(&rows, 0.05));
        let rows = vec![
            ValidationRow {
                input: "a".into(),
                predicted: 0.9,
                measured: 0.8,
                injections: 1,
            },
            ValidationRow {
                input: "b".into(),
                predicted: 0.1,
                measured: 0.2,
                injections: 1,
            },
        ];
        assert!(orderings_agree(&rows, 0.05));
    }
}

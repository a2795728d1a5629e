//! Workload and error-model sensitivity of permeability estimates — the
//! paper's stated future work ("analysing the effect of workload as well as
//! error models on the permeability estimates").
//!
//! The framework's usefulness rests on permeability being a stable
//! *relative* ordering across workloads: the paper argues the measures stay
//! meaningful "assuming that the relative order of the modules and signals
//! ... is maintained". [`workload_sweep`] estimates the matrix under each
//! workload corner separately; [`ordering_stability`] quantifies how stable
//! the module ordering actually is (Kendall-style pairwise agreement).

use permea_arrestment::system::ArrestmentSystem;
use permea_arrestment::testcase::TestCase;
use permea_core::graph::PermeabilityGraph;
use permea_core::matrix::PermeabilityMatrix;
use permea_core::measures::SystemMeasures;
use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::error::FiError;
use permea_fi::estimate::estimate_matrix;
use permea_fi::model::ErrorModel;
use permea_fi::spec::{CampaignSpec, InjectionScope, PortTarget};
use permea_target::arrestment::ArrestmentFactory;
use serde::{Deserialize, Serialize};

/// One workload corner with its estimated permeability matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPoint {
    /// Label, e.g. `m8000_v80`.
    pub label: String,
    /// The workload case.
    pub case: TestCase,
    /// Matrix estimated under this workload only.
    pub matrix: PermeabilityMatrix,
    /// Module ordering by non-weighted relative permeability (names,
    /// descending).
    pub module_order: Vec<String>,
}

/// Configuration of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Injection instants.
    pub times_ms: Vec<u64>,
    /// Bits to flip.
    pub bits: Vec<u8>,
    /// Horizon (ms).
    pub horizon_ms: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            times_ms: vec![700, 1900, 3100, 4300],
            bits: (0..16).step_by(2).collect(),
            horizon_ms: 8_000,
            seed: 0x5EED,
        }
    }
}

/// Estimates the permeability matrix independently under each workload.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn workload_sweep(
    cases: &[TestCase],
    config: &SweepConfig,
) -> Result<Vec<WorkloadPoint>, FiError> {
    let topology = ArrestmentSystem::topology();
    let mut targets = Vec::new();
    for m in topology.modules() {
        for &sig in topology.inputs_of(m) {
            targets.push(PortTarget::new(
                topology.module_name(m),
                topology.signal_name(sig),
            ));
        }
    }
    let mut out = Vec::new();
    for &case in cases {
        let factory = ArrestmentFactory::with_cases(vec![case]);
        let campaign = Campaign::new(
            &factory,
            CampaignConfig {
                threads: 0,
                master_seed: config.seed,
                keep_records: false,
                horizon_ms: Some(config.horizon_ms),
                fast_forward: true,
                ..CampaignConfig::default()
            },
        );
        let spec = CampaignSpec {
            targets: targets.clone(),
            models: config
                .bits
                .iter()
                .map(|&bit| ErrorModel::BitFlip { bit })
                .collect(),
            times_ms: config.times_ms.clone(),
            cases: 1,
            scope: InjectionScope::Port,
            adaptive: None,
        };
        let result = campaign.run(&spec)?;
        let matrix = estimate_matrix(&topology, &result)?;
        let graph =
            PermeabilityGraph::new(&topology, &matrix).expect("matrix shaped from this topology");
        let measures = SystemMeasures::compute(&graph).expect("valid topology");
        let module_order = measures
            .ranked_by_permeability()
            .into_iter()
            .map(|mm| topology.module_name(mm.module).to_owned())
            .collect();
        out.push(WorkloadPoint {
            label: case.label(),
            case,
            matrix,
            module_order,
        });
    }
    Ok(out)
}

/// Pairwise ordering agreement between two workload points: the fraction of
/// module pairs ranked in the same order (1.0 = identical ordering).
pub fn ordering_stability(a: &WorkloadPoint, b: &WorkloadPoint) -> f64 {
    let pos =
        |order: &[String], name: &str| order.iter().position(|n| n == name).unwrap_or(usize::MAX);
    let names = &a.module_order;
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..names.len() {
        for j in (i + 1)..names.len() {
            total += 1;
            let a_rel = pos(&a.module_order, &names[i]) < pos(&a.module_order, &names[j]);
            let b_rel = pos(&b.module_order, &names[i]) < pos(&b.module_order, &names[j]);
            if a_rel == b_rel {
                agree += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        agree as f64 / total as f64
    }
}

/// Renders the sweep: per-workload module ordering plus stability versus
/// the first point.
pub fn render_sweep(points: &[WorkloadPoint]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Workload sensitivity: module ordering by non-weighted permeability"
    );
    for p in points {
        let stability = ordering_stability(&points[0], p);
        let _ = writeln!(
            s,
            "{:<14} order: {:<45} agreement vs {}: {:.0}%",
            p.label,
            p.module_order.join(" > "),
            points[0].label,
            stability * 100.0
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_relative_ordering_across_corners() {
        let cfg = SweepConfig {
            times_ms: vec![900, 2600],
            bits: vec![1, 6, 13],
            horizon_ms: 5_000,
            seed: 1,
        };
        let points = workload_sweep(
            &[TestCase::new(8_000.0, 80.0), TestCase::new(20_000.0, 40.0)],
            &cfg,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        // The paper's working assumption: orderings stay broadly stable.
        let stability = ordering_stability(&points[0], &points[1]);
        assert!(stability >= 0.6, "stability {stability}");
        // CALC leads in both corners (it has ten pairs, several saturated).
        assert_eq!(points[0].module_order[0], "CALC");
        assert_eq!(points[1].module_order[0], "CALC");
        let rendered = render_sweep(&points);
        assert!(rendered.contains("agreement"));
    }

    #[test]
    fn ordering_stability_bounds() {
        let p = WorkloadPoint {
            label: "x".into(),
            case: TestCase::new(8_000.0, 40.0),
            matrix: PermeabilityMatrix::zeroed(&ArrestmentSystem::topology()),
            module_order: vec!["A".into(), "B".into(), "C".into()],
        };
        let mut q = p.clone();
        assert_eq!(ordering_stability(&p, &q), 1.0);
        q.module_order = vec!["C".into(), "B".into(), "A".into()];
        assert_eq!(ordering_stability(&p, &q), 0.0);
    }
}

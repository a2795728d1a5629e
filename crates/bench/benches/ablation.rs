//! Ablations over the design choices DESIGN.md calls out:
//!
//! * **injection scope** — port-scoped (the paper's "direct errors only"
//!   accounting) vs signal-scoped corruption,
//! * **comparison horizon** — how estimates change when runs are truncated,
//! * **workload sensitivity** — permeability under light/fast vs heavy/slow
//!   workloads (the paper's stated future work),
//! * **error model sensitivity** — bit flips vs stuck-at vs offsets.

use criterion::{criterion_group, criterion_main, Criterion};
use permea_arrestment::testcase::TestCase;
use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::model::ErrorModel;
use permea_fi::results::CampaignResult;
use permea_fi::spec::{CampaignSpec, InjectionScope, PortTarget};
use permea_target::arrestment::ArrestmentFactory;
use std::hint::black_box;

fn targets() -> Vec<PortTarget> {
    vec![
        PortTarget::new("V_REG", "SetValue"),
        PortTarget::new("V_REG", "IsValue"),
        PortTarget::new("PREG", "OutValue"),
        PortTarget::new("DIST_S", "PACNT"),
    ]
}

fn run(
    cases: Vec<TestCase>,
    scope: InjectionScope,
    models: Vec<ErrorModel>,
    horizon: u64,
) -> CampaignResult {
    let factory = ArrestmentFactory::with_cases(cases);
    let campaign = Campaign::new(
        &factory,
        CampaignConfig {
            threads: 0,
            master_seed: 0x5EED,
            keep_records: false,
            horizon_ms: Some(horizon),
            fast_forward: true,
            ..CampaignConfig::default()
        },
    );
    let spec = CampaignSpec {
        targets: targets(),
        models,
        times_ms: vec![700, 1600, 2800, 4100],
        cases: factory.cases().len(),
        scope,
        adaptive: None,
    };
    campaign.run(&spec).expect("ablation campaign runs")
}

fn summary(label: &str, res: &CampaignResult) {
    print!("{label:<28}");
    for pair in [
        ("V_REG", "SetValue", "OutValue"),
        ("V_REG", "IsValue", "OutValue"),
        ("PREG", "OutValue", "TOC2"),
        ("DIST_S", "PACNT", "pulscnt"),
    ] {
        let p = res
            .pair(pair.0, pair.1, pair.2)
            .map(|p| p.estimate())
            .unwrap_or(0.0);
        print!("  {}→{}={:.3}", pair.1, pair.2, p);
    }
    println!();
}

fn bench(c: &mut Criterion) {
    let flips = ErrorModel::all_bit_flips();
    let case = vec![TestCase::new(14_000.0, 60.0)];

    println!("\n=== Ablation: injection scope (port = paper's direct-error accounting) ===");
    summary(
        "port scope",
        &run(case.clone(), InjectionScope::Port, flips.clone(), 6_000),
    );
    summary(
        "signal scope",
        &run(case.clone(), InjectionScope::Signal, flips.clone(), 6_000),
    );

    println!("\n=== Ablation: comparison horizon ===");
    summary(
        "horizon 4s",
        &run(case.clone(), InjectionScope::Port, flips.clone(), 4_000),
    );
    summary(
        "horizon 8s",
        &run(case.clone(), InjectionScope::Port, flips.clone(), 8_000),
    );

    println!("\n=== Ablation: workload sensitivity (paper's future work) ===");
    summary(
        "light & fast (8t, 80m/s)",
        &run(
            vec![TestCase::new(8_000.0, 80.0)],
            InjectionScope::Port,
            flips.clone(),
            6_000,
        ),
    );
    summary(
        "heavy & slow (20t, 40m/s)",
        &run(
            vec![TestCase::new(20_000.0, 40.0)],
            InjectionScope::Port,
            flips.clone(),
            6_000,
        ),
    );

    println!("\n=== Ablation: error model sensitivity ===");
    summary(
        "bit flips (16)",
        &run(case.clone(), InjectionScope::Port, flips, 6_000),
    );
    summary(
        "stuck-at-1 (16)",
        &run(
            case.clone(),
            InjectionScope::Port,
            (0..16).map(|bit| ErrorModel::StuckAtOne { bit }).collect(),
            6_000,
        ),
    );
    summary(
        "offsets (+-1,16,256,4096)",
        &run(
            case.clone(),
            InjectionScope::Port,
            vec![
                ErrorModel::Offset { delta: 1 },
                ErrorModel::Offset { delta: -1 },
                ErrorModel::Offset { delta: 16 },
                ErrorModel::Offset { delta: -16 },
                ErrorModel::Offset { delta: 256 },
                ErrorModel::Offset { delta: -256 },
                ErrorModel::Offset { delta: 4096 },
                ErrorModel::Offset { delta: -4096 },
            ],
            6_000,
        ),
    );

    // One measured kernel so Criterion has something stable to report.
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("one_port_scope_minicampaign", |b| {
        b.iter(|| {
            black_box(run(
                case.clone(),
                InjectionScope::Port,
                vec![ErrorModel::BitFlip { bit: 9 }],
                2_000,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

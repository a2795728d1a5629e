//! Table 1 — estimated error permeability of all 25 input/output pairs.
//!
//! Prints the reproduced table, then benchmarks the estimation kernel
//! (counts → matrix) and a single injection run (the unit of campaign cost).

use criterion::{criterion_group, criterion_main, Criterion};
use permea_analysis::tables;
use permea_arrestment::testcase::TestCase;
use permea_bench::shared_study;
use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::estimate::estimate_matrix;
use permea_fi::model::ErrorModel;
use permea_fi::spec::{InjectionScope, PortTarget};
use permea_target::arrestment::ArrestmentFactory;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let out = shared_study();
    println!("\n=== Reproduced Table 1 (smoke campaign; run `study --full` for paper scale) ===");
    print!("{}", tables::render_table1(&out.topology, &out.matrix));

    c.bench_function("table1/estimate_matrix_from_counts", |b| {
        b.iter(|| estimate_matrix(black_box(&out.topology), black_box(&out.result)).unwrap())
    });

    let factory = ArrestmentFactory::with_cases(vec![TestCase::new(14_000.0, 60.0)]);
    let campaign = Campaign::new(
        &factory,
        CampaignConfig {
            threads: 1,
            horizon_ms: Some(3_000),
            ..Default::default()
        },
    );
    let golden = campaign.golden_bundle(0, &[1_500]).expect("golden runs");
    let replay_campaign = Campaign::new(
        &factory,
        CampaignConfig {
            threads: 1,
            horizon_ms: Some(3_000),
            fast_forward: false,
            ..Default::default()
        },
    );
    let replay_golden = replay_campaign
        .golden_bundle(0, &[1_500])
        .expect("golden runs");
    let target = PortTarget::new("V_REG", "SetValue");
    let mut group = c.benchmark_group("table1/injection_run");
    group.sample_size(10);
    for (label, campaign, golden) in [
        ("3s_horizon_fast_forward", &campaign, &golden),
        ("3s_horizon_replay", &replay_campaign, &replay_golden),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                campaign
                    .run_traced(
                        black_box(&target),
                        InjectionScope::Port,
                        ErrorModel::BitFlip { bit: 9 },
                        1_500,
                        golden,
                        42,
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

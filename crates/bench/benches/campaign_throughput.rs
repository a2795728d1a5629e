//! Campaign throughput: the cost of the experimental method itself —
//! simulation ticks, golden runs, injected runs and parallel scaling.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use permea_arrestment::system::ArrestmentSystem;
use permea_arrestment::testcase::TestCase;
use permea_fi::campaign::{Campaign, CampaignConfig, SystemFactory};
use permea_fi::model::ErrorModel;
use permea_fi::spec::{CampaignSpec, InjectionScope, PortTarget};
use permea_target::arrestment::ArrestmentFactory;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Raw simulation speed: ticks per second of the six-module system.
    let mut group = c.benchmark_group("campaign/simulation");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("1000_ticks", |b| {
        b.iter_batched(
            || ArrestmentSystem::new(TestCase::new(14_000.0, 60.0)).into_sim(),
            |mut sim| {
                for _ in 0..1_000 {
                    sim.step();
                }
                black_box(sim.now())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();

    let factory = ArrestmentFactory::with_cases(vec![TestCase::new(14_000.0, 60.0)]);
    let mut group = c.benchmark_group("campaign/golden_run");
    group.sample_size(10);
    group.bench_function("3s_horizon", |b| {
        let campaign = Campaign::new(
            &factory,
            CampaignConfig {
                threads: 1,
                horizon_ms: Some(3_000),
                ..Default::default()
            },
        );
        b.iter(|| black_box(campaign.golden(0).unwrap()))
    });
    group.finish();

    // Parallel scaling of a small campaign.
    let spec = CampaignSpec {
        targets: vec![PortTarget::new("V_REG", "SetValue")],
        models: ErrorModel::all_bit_flips(),
        times_ms: vec![800, 1900],
        cases: 1,
        scope: InjectionScope::Port,
        adaptive: None,
    };
    let mut group = c.benchmark_group("campaign/32_runs");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("threads_{threads}"), |b| {
            let campaign = Campaign::new(
                &factory,
                CampaignConfig {
                    threads,
                    horizon_ms: Some(3_000),
                    keep_records: false,
                    ..Default::default()
                },
            );
            b.iter(|| black_box(campaign.run(&spec).unwrap()))
        });
    }
    group.finish();

    // Fast-forward vs replay: the same 32-run campaign, wall-clock.
    let mut group = c.benchmark_group("campaign/fast_forward");
    group.sample_size(10);
    for (label, fast_forward) in [("on", true), ("off", false)] {
        group.bench_function(label, |b| {
            let campaign = Campaign::new(
                &factory,
                CampaignConfig {
                    threads: 1,
                    horizon_ms: Some(3_000),
                    keep_records: false,
                    fast_forward,
                    ..Default::default()
                },
            );
            b.iter(|| black_box(campaign.run(&spec).unwrap()))
        });
    }
    group.finish();

    // Journaling overhead: the same 32-run campaign with and without the
    // write-ahead run journal (flush per record, fsync batched).
    let mut group = c.benchmark_group("campaign/journal");
    group.sample_size(10);
    for (label, journal_on) in [("off", false), ("on", true)] {
        group.bench_function(label, |b| {
            let campaign = Campaign::new(
                &factory,
                CampaignConfig {
                    threads: 1,
                    horizon_ms: Some(3_000),
                    keep_records: false,
                    ..Default::default()
                },
            );
            let path = std::env::temp_dir()
                .join(format!("permea-bench-journal-{}.jsonl", std::process::id()));
            b.iter(|| {
                if journal_on {
                    let _ = std::fs::remove_file(&path);
                    let header = campaign.journal_header(&spec);
                    let (mut j, _) =
                        permea_fi::journal::RunJournal::open_or_create(&path, &header).unwrap();
                    black_box(campaign.run_resumable(&spec, Some(&mut j), None).unwrap())
                } else {
                    black_box(campaign.run(&spec).unwrap())
                }
            });
            let _ = std::fs::remove_file(&path);
        });
    }
    group.finish();

    // Telemetry overhead: the same 32-run campaign with no telemetry (the
    // disabled-handle fast path that every plain `Campaign::new` takes),
    // with live instruments aggregating into the in-memory registry, and
    // with the JSONL event log attached. "disabled" must stay within noise
    // of `campaign/32_runs/threads_1` — instrumentation is free when off.
    let mut group = c.benchmark_group("campaign/obs");
    group.sample_size(10);
    for label in ["disabled", "registry", "jsonl"] {
        group.bench_function(label, |b| {
            let obs = match label {
                "disabled" => permea_obs::Obs::disabled(),
                "registry" => permea_obs::Obs::with_sinks(Vec::new()),
                _ => {
                    let path = std::env::temp_dir()
                        .join(format!("permea-bench-events-{}.jsonl", std::process::id()));
                    permea_obs::Obs::with_sinks(vec![std::sync::Arc::new(
                        permea_obs::JsonlSink::create(&path).unwrap(),
                    )])
                }
            };
            let campaign = Campaign::new(
                &factory,
                CampaignConfig {
                    threads: 1,
                    horizon_ms: Some(3_000),
                    keep_records: false,
                    ..Default::default()
                },
            )
            .with_obs(obs);
            b.iter(|| black_box(campaign.run(&spec).unwrap()))
        });
    }
    group.finish();

    // Factory construction overhead (per-run allocation cost).
    c.bench_function("campaign/factory_build", |b| {
        b.iter(|| black_box(factory.build(0)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

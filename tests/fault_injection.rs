//! Integration tests of the fault-injection pipeline against the real
//! arrestment target.

use permea::arrestment::testcase::TestCase;
use permea::fi::prelude::*;
use permea::target::arrestment::ArrestmentFactory;

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        targets: vec![
            PortTarget::new("V_REG", "SetValue"),
            PortTarget::new("PREG", "OutValue"),
            PortTarget::new("DIST_S", "PACNT"),
        ],
        models: vec![
            ErrorModel::BitFlip { bit: 0 },
            ErrorModel::BitFlip { bit: 7 },
            ErrorModel::BitFlip { bit: 14 },
        ],
        times_ms: vec![900, 2600],
        cases: 1,
        scope: InjectionScope::Port,
        adaptive: None,
    }
}

fn factory() -> ArrestmentFactory {
    ArrestmentFactory::with_cases(vec![TestCase::new(12_000.0, 55.0)])
}

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        threads,
        master_seed: 0xBEEF,
        keep_records: true,
        horizon_ms: Some(6_000),
        fast_forward: true,
        ..CampaignConfig::default()
    }
}

#[test]
fn campaign_is_thread_count_invariant() {
    let f = factory();
    let seq = Campaign::new(&f, config(1)).run(&small_spec()).unwrap();
    let par = Campaign::new(&f, config(4)).run(&small_spec()).unwrap();
    assert_eq!(seq, par);
}

#[test]
fn journaled_resume_is_thread_count_invariant() {
    // Interrupt a single-threaded journaled campaign partway (simulated by
    // truncating the journal), then resume it on 4 threads: per-run seeds
    // derive from the coordinate index alone, so the schedule — and even
    // which runs came from the journal — must not change a single byte.
    let f = factory();
    let spec = small_spec();
    let baseline = Campaign::new(&f, config(1)).run(&spec).unwrap();

    let dir = std::env::temp_dir().join(format!("permea-it-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);

    let seq = Campaign::new(&f, config(1));
    let header = seq.journal_header(&spec);
    let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
    seq.run_resumable(&spec, Some(&mut j), None).unwrap();
    drop(j);

    // Keep the header plus the first 7 records, as if killed mid-campaign.
    let text = std::fs::read_to_string(&path).unwrap();
    let kept: String = text.lines().take(8).map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, kept).unwrap();

    let par = Campaign::new(&f, config(4));
    let (mut j, loaded) = RunJournal::open_or_create(&path, &header).unwrap();
    assert_eq!(loaded.recovered, 7);
    let resumed = par.run_resumable(&spec, Some(&mut j), None).unwrap();
    assert_eq!(resumed, baseline);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_runs_are_reproducible() {
    let f = factory();
    let c = Campaign::new(&f, config(1));
    let g1 = c.golden(0).unwrap();
    let g2 = c.golden(0).unwrap();
    assert_eq!(g1, g2);
    assert_eq!(g1.ticks, 6_000, "horizon-cut golden");
}

#[test]
fn setvalue_corruption_reaches_outvalue_with_high_probability() {
    let f = factory();
    let res = Campaign::new(&f, config(0)).run(&small_spec()).unwrap();
    let p = res.pair("V_REG", "SetValue", "OutValue").unwrap();
    assert!(p.estimate() > 0.5, "estimate {}", p.estimate());
}

#[test]
fn records_account_for_every_run() {
    let f = factory();
    let spec = small_spec();
    let res = Campaign::new(&f, config(1)).run(&spec).unwrap();
    assert_eq!(res.records.len(), spec.run_count());
    for r in &res.records {
        // Bit flips always change the observed value.
        assert_ne!(r.original_value, r.corrupted_value);
        assert!(spec.times_ms.contains(&r.time_ms));
        // Divergences never precede the injection.
        for d in r.first_divergence.iter().flatten() {
            assert!(
                *d as u64 >= r.time_ms,
                "divergence at {d} before injection at {}",
                r.time_ms
            );
        }
    }
}

#[test]
fn port_scope_isolates_the_targeted_consumer() {
    // Injecting into CALC's view of pulscnt must not corrupt what DIST_S
    // published: the pulscnt trace itself stays golden.
    let f = factory();
    let c = Campaign::new(&f, config(1));
    let golden = c.golden_bundle(0, &[2_000]).unwrap();
    let (traces, original, corrupted) = c
        .run_traced(
            &PortTarget::new("CALC", "pulscnt"),
            InjectionScope::Port,
            ErrorModel::BitFlip { bit: 13 },
            2_000,
            &golden,
            7,
        )
        .unwrap();
    assert_eq!(original ^ corrupted, 1 << 13);
    assert_eq!(
        golden.run.first_divergence(&traces, "pulscnt"),
        None,
        "port-scoped corruption must not appear on the signal itself"
    );
}

#[test]
fn signal_scope_shows_on_the_signal_trace() {
    // SetValue is rewritten only at checkpoint crossings, so a
    // signal-scoped corruption stays visible on the stored signal at the
    // injection tick. (pulscnt would be overwritten by DIST_S within the
    // same tick — which the port-scope test above exploits.)
    let f = factory();
    let c = Campaign::new(&f, config(1));
    let golden = c.golden_bundle(0, &[2_000]).unwrap();
    let (traces, _, _) = c
        .run_traced(
            &PortTarget::new("V_REG", "SetValue"),
            InjectionScope::Signal,
            ErrorModel::BitFlip { bit: 13 },
            2_000,
            &golden,
            7,
        )
        .unwrap();
    assert_eq!(
        golden.run.first_divergence(&traces, "SetValue"),
        Some(2_000),
        "signal-scoped corruption is visible on the stored signal"
    );
}

#[test]
fn estimates_flow_into_matrix_and_graph() {
    let topo = permea::arrestment::ArrestmentSystem::topology();
    let f = factory();
    let res = Campaign::new(&f, config(0)).run(&small_spec()).unwrap();
    let matrix = estimate_matrix(&topo, &res).unwrap();
    // Untargeted pairs stay zero.
    let calc = topo.module_by_name("CALC").unwrap();
    assert_eq!(matrix.get(calc, 0, 0), 0.0);
    // Targeted pairs carry the campaign estimate.
    let vreg = topo.module_by_name("V_REG").unwrap();
    let p = res
        .pair("V_REG", "SetValue", "OutValue")
        .unwrap()
        .estimate();
    assert_eq!(matrix.get(vreg, 0, 0), p);
    // And the graph accepts the matrix.
    let graph = permea::core::PermeabilityGraph::new(&topo, &matrix).unwrap();
    assert_eq!(graph.arcs().count(), 25);
}

#[test]
fn injection_after_horizon_is_rejected() {
    // An instant beyond the horizon could never fire; the run would be a
    // silent no-injection run diluting the estimate, so it is an error.
    let f = factory();
    let c = Campaign::new(&f, config(1));
    let spec = CampaignSpec {
        targets: vec![PortTarget::new("V_REG", "SetValue")],
        models: vec![ErrorModel::BitFlip { bit: 15 }],
        times_ms: vec![50_000], // beyond the 6 s horizon: never fires
        cases: 1,
        scope: InjectionScope::Port,
        adaptive: None,
    };
    assert_eq!(
        c.run(&spec).unwrap_err(),
        FiError::UnreachableInstant {
            time_ms: 50_000,
            limit_ms: 6_000,
            case: None
        }
    );
}

#[test]
fn fast_forward_matches_replay_on_the_arrestment_system() {
    // The differential guarantee on the real target: snapshot fork plus
    // convergence early-exit must reproduce the replay-from-zero campaign
    // byte for byte, records included.
    let f = factory();
    let fast = Campaign::new(&f, config(0)).run(&small_spec()).unwrap();
    let replay = Campaign::new(
        &f,
        CampaignConfig {
            fast_forward: false,
            ..config(0)
        },
    )
    .run(&small_spec())
    .unwrap();
    assert_eq!(fast, replay);
}

#[test]
fn traced_fast_forward_matches_replay_traces() {
    // run_traced reassembles a full trace from golden prefix + simulated
    // window + golden tail; it must equal the replayed full trace.
    let f = factory();
    let fast = Campaign::new(&f, config(1));
    let replay = Campaign::new(
        &f,
        CampaignConfig {
            fast_forward: false,
            ..config(1)
        },
    );
    let fast_bundle = fast.golden_bundle(0, &[900, 2_600]).unwrap();
    let replay_bundle = replay.golden_bundle(0, &[900, 2_600]).unwrap();
    for (target, scope) in [
        (PortTarget::new("DIST_S", "PACNT"), InjectionScope::Port),
        (PortTarget::new("V_REG", "SetValue"), InjectionScope::Signal),
    ] {
        for time_ms in [900, 2_600] {
            let (ft, fo, fc) = fast
                .run_traced(
                    &target,
                    scope,
                    ErrorModel::BitFlip { bit: 14 },
                    time_ms,
                    &fast_bundle,
                    7,
                )
                .unwrap();
            let (rt, ro, rc) = replay
                .run_traced(
                    &target,
                    scope,
                    ErrorModel::BitFlip { bit: 14 },
                    time_ms,
                    &replay_bundle,
                    7,
                )
                .unwrap();
            assert_eq!((fo, fc), (ro, rc));
            assert_eq!(ft, rt, "traces differ for {target:?} at {time_ms} ms");
        }
    }
}

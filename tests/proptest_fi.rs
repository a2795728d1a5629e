//! Property-based tests for the fault-injection machinery.

use permea::fi::campaign::{Campaign, CampaignConfig, FnSystemFactory};
use permea::fi::prelude::*;
use permea::runtime::module::{ModuleCtx, SoftwareModule};
use permea::runtime::scheduler::Schedule;
use permea::runtime::signals::{SignalBus, SignalRef};
use permea::runtime::sim::{Environment, Simulation, SimulationBuilder};
use permea::runtime::time::SimTime;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Minimal one-module system for journal round-trip properties: the
/// environment ramps `src`, `MIX` scrambles it into `out`.
struct Mixer;
impl SoftwareModule for Mixer {
    fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
        let v = ctx.read(0);
        ctx.write(0, v.rotate_left(3) ^ 0x5A5A);
    }
}

struct RampEnv {
    src: SignalRef,
    base: u16,
    limit: u64,
}
impl Environment for RampEnv {
    fn pre_tick(&mut self, now: SimTime, bus: &mut SignalBus) {
        let t = now.as_millis();
        bus.write(self.src, self.base.wrapping_add(t as u16).wrapping_mul(13));
    }
    fn post_tick(&mut self, _: SimTime, _: &mut SignalBus) {}
    fn finished(&self, now: SimTime) -> bool {
        now.as_millis() >= self.limit
    }
}

fn tiny_build(case: usize) -> Simulation {
    let mut b = SimulationBuilder::new();
    let src = b.define_signal("src");
    let out = b.define_signal("out");
    b.add_module("MIX", Box::new(Mixer), Schedule::every_ms(), &[src], &[out]);
    let mut sim = b.build(Box::new(RampEnv {
        src,
        base: 0x7AB1u16.wrapping_mul(case as u16 + 1),
        limit: 120 + 10 * case as u64,
    }));
    sim.enable_tracing_all();
    sim
}

fn tiny_factory() -> FnSystemFactory<fn(usize) -> Simulation> {
    FnSystemFactory::new(2, 1_000, tiny_build as fn(usize) -> Simulation)
}

fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        targets: vec![PortTarget::new("MIX", "src")],
        models: vec![
            ErrorModel::BitFlip { bit: 0 },
            ErrorModel::BitFlip { bit: 5 },
            ErrorModel::BitFlip { bit: 9 },
            ErrorModel::BitFlip { bit: 15 },
        ],
        times_ms: vec![13, 77],
        cases: 2,
        scope: InjectionScope::Port,
        adaptive: None,
    }
}

fn arbitrary_model() -> impl Strategy<Value = ErrorModel> {
    prop_oneof![
        (0u8..16).prop_map(|bit| ErrorModel::BitFlip { bit }),
        (0u8..16).prop_map(|bit| ErrorModel::StuckAtOne { bit }),
        (0u8..16).prop_map(|bit| ErrorModel::StuckAtZero { bit }),
        any::<i16>().prop_map(|delta| ErrorModel::Offset { delta }),
        Just(ErrorModel::RandomValue),
        Just(ErrorModel::Zero),
        Just(ErrorModel::Saturate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn models_are_deterministic_under_seed(model in arbitrary_model(), value in any::<u16>(), seed in any::<u64>()) {
        let a = model.apply(value, &mut SmallRng::seed_from_u64(seed));
        let b = model.apply(value, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn bit_flips_are_involutions(bit in 0u8..16, value in any::<u16>()) {
        let m = ErrorModel::BitFlip { bit };
        let mut rng = SmallRng::seed_from_u64(0);
        let once = m.apply(value, &mut rng);
        prop_assert_ne!(once, value);
        prop_assert_eq!(m.apply(once, &mut rng), value);
    }

    #[test]
    fn stuck_at_models_are_idempotent(bit in 0u8..16, value in any::<u16>()) {
        let mut rng = SmallRng::seed_from_u64(0);
        for m in [ErrorModel::StuckAtOne { bit }, ErrorModel::StuckAtZero { bit }] {
            let once = m.apply(value, &mut rng);
            prop_assert_eq!(m.apply(once, &mut rng), once);
        }
    }

    #[test]
    fn offsets_compose_additively(a in any::<i16>(), b in any::<i16>(), value in any::<u16>()) {
        let mut rng = SmallRng::seed_from_u64(0);
        let via_two = ErrorModel::Offset { delta: b }
            .apply(ErrorModel::Offset { delta: a }.apply(value, &mut rng), &mut rng);
        let direct = value
            .wrapping_add(a as u16)
            .wrapping_add(b as u16);
        prop_assert_eq!(via_two, direct);
    }

    #[test]
    fn spec_coordinates_form_an_exact_bijection(
        targets in 1usize..4,
        models in 1usize..5,
        times in 1usize..4,
        cases in 1usize..5,
    ) {
        let spec = CampaignSpec {
            targets: (0..targets).map(|i| PortTarget::new(format!("M{i}"), "s")).collect(),
            models: (0..models as u8).map(|bit| ErrorModel::BitFlip { bit }).collect(),
            times_ms: (0..times as u64).map(|k| 100 * (k + 1)).collect(),
            cases,
            scope: InjectionScope::Port,
            adaptive: None,
        };
        let coords: Vec<_> = spec.coordinates().collect();
        prop_assert_eq!(coords.len(), spec.run_count());
        let unique: std::collections::HashSet<_> = coords.iter().collect();
        prop_assert_eq!(unique.len(), coords.len());
        for &(t, m, w, c) in &coords {
            prop_assert!(t < targets && m < models && w < times && c < cases);
        }
    }

    #[test]
    fn wilson_contains_the_point_estimate(errors_raw in 0u64..5000, trials in 1u64..5000) {
        let errors = errors_raw % (trials + 1);
        let p = errors as f64 / trials as f64;
        let (lo, hi) = wilson_interval(errors, trials, 1.96);
        prop_assert!(lo <= p + 1e-12, "lo {lo} > p {p}");
        prop_assert!(hi >= p - 1e-12, "hi {hi} < p {p}");
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= hi);
    }

    #[test]
    fn wilson_narrows_with_more_trials(errors in 0u64..100, scale in 2u64..50) {
        let trials = 100u64;
        let (lo1, hi1) = wilson_interval(errors, trials, 1.96);
        let (lo2, hi2) = wilson_interval(errors * scale, trials * scale, 1.96);
        prop_assert!(hi2 - lo2 <= hi1 - lo1 + 1e-12);
    }

    #[test]
    fn journal_resume_after_truncation_is_exact(
        keep in 0usize..=16,
        torn_len in 0usize..40,
        torn_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // Pseudo-random torn-tail bytes from a plain LCG (the vendored
        // proptest has no `collection::vec` strategy).
        let mut x = torn_seed;
        let torn: Vec<u8> = (0..torn_len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        // Kill -9 at an arbitrary point leaves the journal with some prefix
        // of complete records plus possibly a torn tail of garbage bytes.
        // Resuming from any such journal must reproduce the uninterrupted
        // campaign bit for bit.
        let f = tiny_factory();
        let config = CampaignConfig {
            threads: 1,
            master_seed: seed,
            ..CampaignConfig::default()
        };
        let spec = tiny_spec();
        let baseline = Campaign::new(&f, config.clone()).run(&spec).unwrap();

        let path = std::env::temp_dir()
            .join(format!("permea-prop-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let c = Campaign::new(&f, config);
        let header = c.journal_header(&spec);
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        c.run_resumable(&spec, Some(&mut j), None).unwrap();
        drop(j);

        // Keep the header plus `keep` records, then splice in torn bytes.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut kept: Vec<u8> = text
            .lines()
            .take(1 + keep)
            .flat_map(|l| format!("{l}\n").into_bytes())
            .collect();
        kept.extend_from_slice(&torn);
        std::fs::write(&path, kept).unwrap();

        // The read-only readers see exactly what resume recovers.
        let read = read_journal(&path).unwrap();
        let audit = audit_journal(&path).unwrap();
        let (mut j, loaded) = RunJournal::open_or_create(&path, &header).unwrap();
        prop_assert_eq!(loaded.recovered, keep);
        let mut recovered: Vec<u64> = j.entries().keys().copied().collect();
        let mut read_ks: Vec<u64> = read.entries.keys().copied().collect();
        recovered.sort_unstable();
        read_ks.sort_unstable();
        prop_assert_eq!(&read_ks, &recovered);
        prop_assert_eq!(audit.records, keep);
        prop_assert_eq!(audit.distinct, recovered.len());
        prop_assert_eq!(read.truncated_tail, loaded.truncated_tail);
        prop_assert_eq!(audit.truncated_tail, loaded.truncated_tail);
        let resumed = c.run_resumable(&spec, Some(&mut j), None).unwrap();
        drop(j);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(resumed, baseline);
    }

    #[test]
    fn journal_bit_flips_are_rejected_with_the_line_number(
        entry in 0usize..15,
        byte_pick in any::<u64>(),
        bit in 0u8..8,
        seed in any::<u64>(),
    ) {
        // Flip one bit anywhere inside a non-final record line (CRC
        // prefix, separator or JSON payload — everything but the
        // newline): reopening must reject the journal as corrupt and
        // name the physical line, never silently resume over the hole.
        let f = tiny_factory();
        let config = CampaignConfig {
            threads: 1,
            master_seed: seed,
            ..CampaignConfig::default()
        };
        let spec = tiny_spec();
        let path = std::env::temp_dir()
            .join(format!("permea-prop-crc-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let c = Campaign::new(&f, config);
        let header = c.journal_header(&spec);
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        c.run_resumable(&spec, Some(&mut j), None).unwrap();
        drop(j);

        let mut data = std::fs::read(&path).unwrap();
        // Byte offsets of each line start; line 0 is the header, so the
        // targeted record line is at index `entry + 1` (1-based physical
        // line `entry + 2`).
        let mut starts = vec![0usize];
        for (i, &b) in data.iter().enumerate() {
            if b == b'\n' && i + 1 < data.len() {
                starts.push(i + 1);
            }
        }
        prop_assert!(starts.len() >= 17, "expected 16 record lines");
        let line_start = starts[entry + 1];
        let line_len = data[line_start..]
            .iter()
            .position(|&b| b == b'\n')
            .unwrap();
        let target = line_start + (byte_pick as usize % line_len);
        let mut flip = 1u8 << bit;
        // One flip is value-preserving: bit 5 of a hex letter in the CRC
        // prefix only changes its case, which `from_str_radix` accepts.
        // Redirect that single combination to a value-changing bit.
        if target < line_start + 8 && flip == 0x20 && data[target].is_ascii_alphabetic() {
            flip = 0x01;
        }
        data[target] ^= flip;
        std::fs::write(&path, &data).unwrap();

        // All three readers name the same corrupt line.
        let corrupt = FiError::JournalCorrupt { line: entry + 2 };
        prop_assert_eq!(read_journal(&path).err(), Some(corrupt.clone()));
        prop_assert_eq!(audit_journal(&path).err(), Some(corrupt));
        let reopened = RunJournal::open_or_create(&path, &header);
        let _ = std::fs::remove_file(&path);
        match reopened {
            Err(FiError::JournalCorrupt { line }) => prop_assert_eq!(line, entry + 2),
            Err(other) => prop_assert!(false, "expected JournalCorrupt, got {:?}", other),
            Ok(_) => prop_assert!(false, "corrupt journal was accepted"),
        }
    }

    #[test]
    fn shard_partitions_are_disjoint_and_covering(count in 1usize..8, total in 0u64..300) {
        let shards: Vec<Shard> = (0..count)
            .map(|i| Shard::new(i, count).unwrap())
            .collect();
        let mut seen = vec![0u32; total as usize];
        for s in &shards {
            let mut expected = 0u64;
            for pos in s.positions(total) {
                prop_assert!(pos < total);
                prop_assert!(s.owns(pos), "{s} yielded {pos} it does not own");
                seen[pos as usize] += 1;
                expected += 1;
            }
            prop_assert_eq!(expected, s.len(total), "{}", s);
            prop_assert_eq!(s.is_empty(total), expected == 0);
        }
        // Every position is owned by exactly one shard.
        prop_assert!(seen.iter().all(|&n| n == 1));
        // Ownership is a pure function of the position, independent of
        // enumeration order or how work is claimed across threads.
        for pos in 0..total {
            prop_assert_eq!(shards.iter().filter(|s| s.owns(pos)).count(), 1);
        }
    }

    #[test]
    fn pair_stat_estimate_is_a_probability(errors_raw in any::<u64>(), injections in 1u64..1_000_000) {
        let errors = errors_raw % (injections + 1);
        let stat = PairStat {
            module: "M".into(),
            input_signal: "i".into(),
            output_signal: "o".into(),
            input: 0,
            output: 0,
            injections,
            errors,
        };
        prop_assert!((0.0..=1.0).contains(&stat.estimate()));
    }
}

proptest! {
    // Each case runs ~3(count+1) tiny campaigns; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_campaigns_are_thread_invariant_and_cover_the_grid(
        seed in any::<u64>(),
        count in 1usize..4,
    ) {
        // A shard's result set depends only on (index, count) and the
        // master seed — never on the thread count — and the shards
        // together execute exactly the unsharded grid.
        let f = tiny_factory();
        let spec = tiny_spec();
        let config = |threads: usize, shard: Option<Shard>| CampaignConfig {
            threads,
            master_seed: seed,
            shard,
            ..CampaignConfig::default()
        };
        let baseline = Campaign::new(&f, config(1, None)).run(&spec).unwrap();
        let mut union: Vec<String> = Vec::new();
        for i in 0..count {
            let shard = Some(Shard::new(i, count).unwrap());
            let solo = Campaign::new(&f, config(1, shard)).run(&spec).unwrap();
            let threaded = Campaign::new(&f, config(3, shard)).run(&spec).unwrap();
            prop_assert_eq!(&solo, &threaded, "shard {}/{} varies with threads", i, count);
            union.extend(solo.records.iter().map(|r| format!("{r:?}")));
        }
        let mut expected: Vec<String> =
            baseline.records.iter().map(|r| format!("{r:?}")).collect();
        union.sort();
        expected.sort();
        prop_assert_eq!(union, expected);
    }
}

//! Inner-loop microbenchmark: the three hot paths of an injection run —
//! simulation ticks, golden-trace comparison, and whole-run throughput —
//! timed with a hand-rolled harness and written to `BENCH_inner_loop.json`
//! so CI can archive the numbers next to the campaign artifacts.
//!
//! Unlike the criterion benches this binary is cheap enough to run on every
//! CI build (a few seconds), and it carries its own scalar reference
//! comparison loop so the chunked-compare speedup is measured and recorded
//! inside one process:
//!
//! ```text
//! cargo bench -p permea-bench --bench bench_inner_loop
//! BENCH_INNER_LOOP_OUT=/tmp/b.json cargo bench -p permea-bench --bench bench_inner_loop
//! ```

use permea_arrestment::system::ArrestmentSystem;
use permea_arrestment::testcase::TestCase;
use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::model::ErrorModel;
use permea_fi::spec::{CampaignSpec, InjectionScope, PortTarget};
use permea_runtime::tracing::first_mismatch;
use permea_target::arrestment::ArrestmentFactory;
use permea_target::registry::Registry;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per measurement; the minimum is reported.
const REPS: usize = 5;

/// Words per synthetic trace in the comparison benchmark (~8 s of the
/// 1 ms-tick simulation, larger than any quick-study horizon).
const TRACE_WORDS: usize = 1 << 16;

/// Full-trace compares per timed repetition.
const COMPARES_PER_REP: usize = 512;

/// Simulation ticks per timed repetition.
const TICKS_PER_REP: usize = 100_000;

/// Times `f` `REPS` times and returns the fastest wall-clock nanoseconds.
fn best_of<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e9);
    }
    best
}

/// The naive one-word-at-a-time comparison the chunked walk replaced;
/// kept here as the measured baseline for the recorded speedup.
fn scalar_first_mismatch(a: &[u16], b: &[u16]) -> Option<usize> {
    let n = a.len().min(b.len());
    (0..n).find(|&i| a[i] != b[i])
}

fn main() {
    // `cargo bench` passes `--bench` (and test-style filters); ignore them.
    let _ = std::env::args();

    // 1. Raw simulation speed: ns per tick of the six-module system.
    let mut sim = ArrestmentSystem::new(TestCase::new(14_000.0, 60.0)).into_sim();
    let ns_per_tick = best_of(|| {
        for _ in 0..TICKS_PER_REP {
            sim.step();
        }
        black_box(sim.now());
    }) / TICKS_PER_REP as f64;

    // 2. Golden comparison: chunked `first_mismatch` vs the scalar
    //    reference, over equal traces (the worst case — a full scan; real
    //    injection runs exit at the first divergent cache line).
    let a: Vec<u16> = (0..TRACE_WORDS as u32)
        .map(|v| (v.wrapping_mul(2_654_435_761) >> 16) as u16)
        .collect();
    let b = a.clone();
    // Differential check: both walks must agree before we time them.
    let mut mutated = a.clone();
    mutated[TRACE_WORDS / 3] ^= 0x4000;
    assert_eq!(
        first_mismatch(&a, &mutated),
        scalar_first_mismatch(&a, &mutated),
        "chunked and scalar comparison disagree"
    );
    assert_eq!(first_mismatch(&a, &b), None);
    let ns_chunked = best_of(|| {
        for _ in 0..COMPARES_PER_REP {
            black_box(first_mismatch(black_box(&a), black_box(&b)));
        }
    }) / COMPARES_PER_REP as f64;
    let ns_scalar = best_of(|| {
        for _ in 0..COMPARES_PER_REP {
            black_box(scalar_first_mismatch(black_box(&a), black_box(&b)));
        }
    }) / COMPARES_PER_REP as f64;
    let speedup = ns_scalar / ns_chunked;

    // 3. End-to-end throughput: a 32-run single-threaded campaign
    //    (1 target × 16 bit flips × 2 times × 1 case), records discarded.
    // The benchmarked system is the registered `arrestment` target; take
    // the name from the registry so the artifact can't drift from it.
    let target = Registry::builtin().resolve("arrestment").unwrap().name();
    let factory = ArrestmentFactory::with_cases(vec![TestCase::new(14_000.0, 60.0)]);
    let spec = CampaignSpec {
        targets: vec![PortTarget::new("V_REG", "SetValue")],
        models: ErrorModel::all_bit_flips(),
        times_ms: vec![800, 1_900],
        cases: 1,
        scope: InjectionScope::Port,
        adaptive: None,
    };
    let campaign = Campaign::new(
        &factory,
        CampaignConfig {
            threads: 1,
            horizon_ms: Some(3_000),
            keep_records: false,
            ..Default::default()
        },
    );
    let runs = spec.run_count();
    let ns_campaign = best_of(|| {
        black_box(campaign.run(&spec).unwrap());
    });
    let ns_per_run = ns_campaign / runs as f64;
    let runs_per_sec = 1e9 / ns_per_run;

    let json = format!(
        "{{\n  \"bench\": \"inner_loop\",\n  \"target\": {target:?},\n  \"runs\": {runs},\n  \
         \"runs_per_sec\": {runs_per_sec:.1},\n  \"ns_per_run\": {ns_per_run:.0},\n  \
         \"ns_per_tick\": {ns_per_tick:.1},\n  \"trace_words\": {TRACE_WORDS},\n  \
         \"ns_per_compare_chunked\": {ns_chunked:.0},\n  \
         \"ns_per_compare_scalar\": {ns_scalar:.0},\n  \
         \"compare_speedup\": {speedup:.2}\n}}\n"
    );
    let out = std::env::var("BENCH_INNER_LOOP_OUT")
        .unwrap_or_else(|_| "BENCH_inner_loop.json".to_owned());
    std::fs::write(&out, &json).expect("write benchmark artifact");
    print!("{json}");
    eprintln!("inner-loop benchmark written to {out}");
}

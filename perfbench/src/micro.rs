//! The runtime layer timed through its public API on the workload's own
//! system: ticks with and without trace recording, snapshot, restore,
//! the reconvergence check, and golden-trace comparison on real traces.

use crate::report::{median, Metric};
use permea_fi::campaign::{Campaign, CampaignConfig, SystemFactory};
use permea_runtime::tracing::first_mismatch;
use permea_runtime::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Timed blocks per metric; the median block is reported.
const BLOCKS: usize = 5;
/// Ticks stepped per block.
const TICKS_PER_BLOCK: u64 = 40_000;
/// Snapshot / restore / convergence calls per block.
const CALLS_PER_BLOCK: usize = 400;
/// Trace words compared per block.
const WORDS_PER_BLOCK: usize = 2_000_000;

fn median_of_blocks(mut block: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..BLOCKS).map(|_| block()).collect();
    median(&samples).expect("BLOCKS > 0")
}

/// ns per tick over fresh simulations of case 0, stepped to their end or
/// `cap_ms`, with trace recording on or off.
fn step_ns(factory: &dyn SystemFactory, cap_ms: u64, traced: bool) -> f64 {
    median_of_blocks(|| {
        let mut ticks = 0u64;
        let mut nanos = 0.0;
        while ticks < TICKS_PER_BLOCK {
            let mut sim = factory.build(0);
            if !traced {
                drop(sim.take_traces());
            }
            let t = Instant::now();
            while !sim.finished() && sim.now() < SimTime::from_millis(cap_ms) {
                sim.step();
                ticks += 1;
            }
            nanos += t.elapsed().as_secs_f64() * 1e9;
            black_box(sim.now());
        }
        nanos / ticks as f64
    })
}

/// The runtime metrics for `factory`'s case 0, runs capped at `cap_ms`.
pub fn runtime_metrics(factory: &dyn SystemFactory, cap_ms: u64) -> Vec<Metric> {
    let mut out = vec![
        Metric::new("runtime.step_ns", step_ns(factory, cap_ms, false), "ns"),
        Metric::new(
            "runtime.step_traced_ns",
            step_ns(factory, cap_ms, true),
            "ns",
        ),
    ];

    // Mid-run state: the snapshot a fast-forwarded injection run forks from.
    let mut sim = factory.build(0);
    let mid = cap_ms.min(factory.max_run_ms()) / 2;
    while !sim.finished() && sim.now() < SimTime::from_millis(mid) {
        sim.step();
    }
    let snap = sim.snapshot();
    let per_call = |f: &mut dyn FnMut()| {
        median_of_blocks(|| {
            let t = Instant::now();
            for _ in 0..CALLS_PER_BLOCK {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / CALLS_PER_BLOCK as f64
        })
    };
    out.push(Metric::new(
        "runtime.snapshot_ns",
        per_call(&mut || drop(black_box(sim.snapshot()))),
        "ns",
    ));
    out.push(Metric::new(
        "runtime.converged_with_ns",
        per_call(&mut || {
            black_box(sim.converged_with(black_box(&snap)));
        }),
        "ns",
    ));
    out.push(Metric::new(
        "runtime.restore_ns",
        per_call(&mut || sim.restore(black_box(&snap))),
        "ns",
    ));

    // Golden comparison over the real golden traces of case 0: equal
    // traces, so every compare scans the whole signal (the reconverged
    // and error-free runs' cost).
    let campaign = Campaign::new(
        factory,
        CampaignConfig {
            horizon_ms: Some(cap_ms),
            ..CampaignConfig::default()
        },
    );
    let golden = campaign.golden(0).expect("case 0 has a golden run");
    let traces: Vec<Vec<u16>> = golden
        .traces
        .iter_traces()
        .map(|(_, t)| t.to_vec())
        .collect();
    let words: usize = traces.iter().map(Vec::len).sum::<usize>().max(1);
    let ns_per_kword = median_of_blocks(|| {
        let mut compared = 0usize;
        let t = Instant::now();
        while compared < WORDS_PER_BLOCK {
            for (g, trace) in golden.traces.iter_traces().zip(&traces) {
                black_box(first_mismatch(black_box(g.1), black_box(trace)));
            }
            compared += words;
        }
        t.elapsed().as_secs_f64() * 1e9 / compared as f64 * 1000.0
    });
    out.push(Metric::new(
        "runtime.compare_ns_per_kword",
        ns_per_kword,
        "ns",
    ));
    out
}

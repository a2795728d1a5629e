//! The measurement loop shared by every workload: set-up samples spread
//! over the run, iterations until the run's time is spent, medians, and —
//! in a traced run — alternating untraced and traced iterations so the
//! tracing overhead is measured beside the per-layer attribution.

use crate::report::{median, medians, Metric, Outcome, END_TO_END, PER_LAYER};
use crate::sys;
use crate::trace::{attribute, Tracer};
use permea_fi::error::FiError;
use permea_obs::MetricsSnapshot;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Invocation settings shared by the workloads.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Benchmark seed.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    /// Separate traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Scratch directory inside the checkout, removed afterwards.
    pub work_dir: PathBuf,
    /// The `permea-server` binary (daemon workload only).
    pub server_bin: Option<PathBuf>,
    /// Span collector; enabled only around traced iterations.
    pub tracer: Arc<Tracer>,
}

/// Wall-clock and CPU meter for one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    started: Instant,
    cpu: f64,
}

impl Meter {
    /// Starts measuring now.
    pub fn start() -> Meter {
        Meter {
            started: Instant::now(),
            cpu: sys::cpu_seconds(),
        }
    }

    /// Seconds since start.
    pub fn wall(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// CPU seconds of this process and its reaped children since start.
    pub fn cpu(&self) -> f64 {
        sys::cpu_seconds() - self.cpu
    }
}

/// One repetition of a workload's unit of work.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Wall-clock of the unit of work.
    pub wall_s: f64,
    /// CPU of this process and its children over the unit.
    pub cpu_s: f64,
    /// Injection runs attempted (daemon: campaigns).
    pub attempted: u64,
    /// Of those, failed (quarantined, rejected, ...).
    pub failed: u64,
    /// Injection runs executed in the campaign phase.
    pub runs: u64,
    /// Seconds of the campaign phase, the base of `runs_per_s`.
    pub campaign_s: f64,
    /// Peak resident set of a live child not yet reaped (the daemon), KiB.
    pub live_child_peak_kb: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Workload-specific metrics of this iteration.
    pub extra: Vec<Metric>,
}

/// One set-up sample: `budgeted` runs a campaign with a budget of one
/// injection, so the time covers everything before the first injection
/// can start (golden capture, snapshots, worker spawn) plus that one run.
/// `meter` started before the target was resolved.
pub fn first_injection<T>(
    meter: Meter,
    budgeted: impl FnOnce() -> Result<T, FiError>,
) -> Result<f64, String> {
    match budgeted() {
        Err(FiError::Interrupted { .. }) => Ok(meter.wall()),
        Err(e) => Err(e.to_string()),
        Ok(_) => Err("a one-run budget completed the whole campaign".to_string()),
    }
}

/// Share of a run spent on set-up samples. Half of it is spent before the
/// first iteration, the rest after iterations, so the samples span the
/// whole run: a shared machine's speed can drift over seconds, and samples
/// taken in one burst would measure one moment of that drift.
pub const SETUP_SHARE: f64 = 0.08;

/// Fewest set-up samples per run.
pub const MIN_SETUP_SAMPLES: usize = 50;

/// Fewest iterations of an untraced run, unless a workload asks for
/// more. A single iteration of a long unit (several seconds) would time
/// one moment of a shared machine's speed drift.
pub const MIN_ITERATIONS: usize = 2;

/// No iteration starts that would likely end the run later than this
/// many times its seconds (the minimum iterations, and those a traced
/// run's [`MIN_TRACED_PAIRS`] need, always do); an untraced run that
/// stops early spends the rest of its seconds on set-up samples.
pub const MAX_OVERRUN: f64 = 1.25;

/// Fewest untraced/traced pairs of a traced run, the base of
/// `obs.tracing_overhead_frac`.
pub const MIN_TRACED_PAIRS: usize = 2;

/// Takes set-up samples until they add up to `budget_s` seconds and, with
/// `min` given, number at least `min`.
fn sample_setup(
    setup: &mut impl FnMut() -> Result<f64, String>,
    budget_s: f64,
    min: usize,
    samples: &mut Vec<f64>,
    spent_s: &mut f64,
    failures: &mut Vec<String>,
) {
    while *spent_s < budget_s || samples.len() < min {
        let t = Instant::now();
        match setup() {
            Ok(s) => samples.push(s),
            Err(e) => {
                failures.push(format!("set-up: {e}"));
                return;
            }
        }
        *spent_s += t.elapsed().as_secs_f64();
    }
}

/// Runs `iterate(run, traced)` until the run's seconds are spent (at least
/// `min_iterations` times; with tracing, at least [`MIN_TRACED_PAIRS`] untraced/traced
/// pairs; see also [`MAX_OVERRUN`]), interleaved, without tracing, with
/// `setup` samples (see [`SETUP_SHARE`]), and aggregates everything into
/// an [`Outcome`].
pub fn drive(
    ctx: &Ctx,
    min_iterations: usize,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut iterate: impl FnMut(u64, bool) -> Iteration,
    micro: impl FnOnce() -> Vec<Metric>,
) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut setup_spent = 0.0;
    let started = Instant::now();
    // A traced run reports no set-up time.
    let share = if ctx.trace { 0.0 } else { SETUP_SHARE };
    sample_setup(
        &mut setup,
        share * ctx.seconds / 2.0,
        0,
        &mut setup_s,
        &mut setup_spent,
        &mut outcome.failures,
    );

    let mut iterations: Vec<(bool, Iteration)> = Vec::new();
    let mut child_peak_kb = 0;
    loop {
        let run = iterations.len() as u64;
        let traced = ctx.trace && run % 2 == 1;
        let iteration_started = Instant::now();
        ctx.tracer.set_enabled(traced);
        let it = iterate(run, traced);
        ctx.tracer.set_enabled(false);
        let iteration_s = iteration_started.elapsed().as_secs_f64();
        eprintln!(
            "iteration {run}{}: wall {:.3} s, cpu {:.3} s, {} runs in {:.3} s",
            if traced { " (traced)" } else { "" },
            it.wall_s,
            it.cpu_s,
            it.runs,
            it.campaign_s
        );
        outcome.attempted += it.attempted;
        child_peak_kb = child_peak_kb.max(it.live_child_peak_kb);
        if it.failures.is_empty() {
            outcome.failed += it.failed;
        } else {
            outcome.failed += it.attempted;
            outcome
                .failures
                .extend(it.failures.iter().map(|f| format!("iteration {run}: {f}")));
        }
        iterations.push((traced, it));
        let elapsed = started.elapsed().as_secs_f64();
        let enough = if ctx.trace {
            iterations.len() >= 2 * MIN_TRACED_PAIRS
        } else {
            iterations.len() >= min_iterations
        };
        let last =
            enough && (elapsed >= ctx.seconds || elapsed + iteration_s > MAX_OVERRUN * ctx.seconds);
        // An untraced run that stops before its seconds are spent fills
        // them with set-up samples.
        let budget = if last && !ctx.trace {
            (share * elapsed).max(setup_spent + ctx.seconds - elapsed)
        } else {
            share * elapsed
        };
        sample_setup(
            &mut setup,
            budget,
            if last && !ctx.trace {
                MIN_SETUP_SAMPLES
            } else {
                0
            },
            &mut setup_s,
            &mut setup_spent,
            &mut outcome.failures,
        );
        if last {
            break;
        }
    }

    // A failed check disqualifies the iteration's timings.
    let good = |traced: bool| -> Vec<&Iteration> {
        iterations
            .iter()
            .filter(|(t, it)| *t == traced && it.failures.is_empty())
            .map(|(_, it)| it)
            .collect()
    };
    let untraced = good(false);
    let med = |xs: &[&Iteration], f: &dyn Fn(&Iteration) -> f64| {
        median(&xs.iter().map(|it| f(it)).collect::<Vec<_>>())
    };
    let (own_kb, reaped_kb) = sys::peak_rss_kb();
    let peak_rss_mb = (own_kb + reaped_kb.max(child_peak_kb)) as f64 / 1024.0;

    if !ctx.trace {
        let values = [
            median(&setup_s),
            med(&untraced, &|it| it.wall_s),
            med(&untraced, &|it| it.cpu_s),
            Some(peak_rss_mb),
            med(&untraced, &|it| it.runs as f64 / it.campaign_s),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            if let Some(v) = value {
                outcome.gated.push(Metric::new(*name, v, unit));
            }
        }
        outcome
            .extra
            .push(Metric::new("setup_samples", setup_s.len() as f64, "count"));
        let extras: Vec<Vec<Metric>> = untraced.iter().map(|it| it.extra.clone()).collect();
        outcome.extra.extend(medians(&extras));
        return outcome;
    }

    let spans = ctx.tracer.spans();
    let mut layer_samples: Vec<Vec<Metric>> = Vec::new();
    for (run, (is_traced, it)) in iterations.iter().enumerate() {
        if !is_traced || !it.failures.is_empty() {
            continue;
        }
        // Only the layers this workload calls: a layer it never calls is
        // absent, not 0.
        let a = attribute(&spans, run as u64);
        let mut sample: Vec<Metric> = a
            .self_s
            .iter()
            .map(|(layer, s)| Metric::new(format!("{layer}.self_s"), *s, "s"))
            .collect();
        sample.extend(Metric::ratio(
            "trace.coverage",
            a.attributed_s,
            a.root_s,
            "1",
        ));
        for (name, obs_span) in [
            ("fi.golden_s", "fi.obs.golden"),
            ("fi.campaign_s", "fi.obs.campaign"),
        ] {
            if !it.extra.iter().any(|m| m.name == name) {
                if let Some(total) = a.by_name_s.get(obs_span) {
                    sample.push(Metric::new(name, *total, "s"));
                }
            }
        }
        sample.extend(it.extra.iter().cloned());
        layer_samples.push(sample);
    }
    let mut all = medians(&layer_samples);
    // Each traced iteration against the untraced one just before it, so a
    // slow drift of the machine's speed falls out of the comparison. The
    // value is the median of the pairs' ratios; numerator and denominator
    // are the medians of the differences and of the untraced walls.
    let pairs: Vec<(f64, f64)> = iterations
        .windows(2)
        .filter_map(|w| match w {
            [(false, u), (true, t)] if u.failures.is_empty() && t.failures.is_empty() => {
                Some((t.wall_s - u.wall_s, u.wall_s))
            }
            _ => None,
        })
        .collect();
    let pick = |f: &dyn Fn(&(f64, f64)) -> f64| median(&pairs.iter().map(f).collect::<Vec<_>>());
    if let (Some(value), Some(d), Some(u)) = (pick(&|p| p.0 / p.1), pick(&|p| p.0), pick(&|p| p.1))
    {
        all.push(Metric {
            name: "obs.tracing_overhead_frac".to_string(),
            value,
            unit: "1",
            ratio: Some((d, u)),
        });
    }
    all.extend(micro());
    for (name, _) in PER_LAYER {
        match all.iter().position(|m| m.name == name) {
            Some(i) => outcome.gated.push(all.remove(i)),
            None => outcome
                .failures
                .push(format!("per-layer metric {name} was not measured")),
        }
    }
    outcome.extra = all;
    outcome
}

/// Per-layer metrics from a campaign's obs counters and histograms, plus
/// the campaign phase's CPU. Histogram quantiles are log-bucket upper
/// bounds; an empty histogram yields no metric.
pub fn counter_metrics(snap: &MetricsSnapshot, campaign_cpu_s: f64) -> Vec<Metric> {
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let runs = c("campaign.runs_total");
    let window = c("campaign.run_ticks");
    let saved = c("campaign.ticks_saved");
    let mut out: Vec<Metric> = [
        Metric::ratio("fi.window_ticks_per_run", window, runs, "ticks"),
        Metric::ratio(
            "fi.cpu_ns_per_window_tick",
            campaign_cpu_s * 1e9,
            window,
            "ns",
        ),
        Metric::ratio(
            "fi.reconverged_ratio",
            c("campaign.ff_reconverged"),
            runs,
            "1",
        ),
        Metric::ratio("fi.ticks_saved_ratio", saved, saved + window, "1"),
    ]
    .into_iter()
    .flatten()
    .collect();
    let histogram = |name: &str| snap.histograms.get(name).filter(|h| h.count > 0);
    for (hist, prefix) in [
        ("process.run_micros", "fi.run_us"),
        ("process.attempt_micros", "fi.process.attempt_us"),
    ] {
        if let Some(h) = histogram(hist) {
            for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
                if let Some(v) = h.quantile(q) {
                    out.push(Metric::new(format!("{prefix}_{suffix}"), v as f64, "us"));
                }
            }
        }
    }
    if let Some(h) = histogram("process.journal_fsync_micros") {
        out.push(Metric::new("fi.journal.fsync_us_mean", h.mean(), "us"));
    }
    out.extend([
        Metric::new("fi.runs", runs, "count"),
        Metric::new("fi.window_ticks", window, "ticks"),
        Metric::new("fi.campaign_cpu_s", campaign_cpu_s, "s"),
    ]);
    out
}

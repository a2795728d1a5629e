//! The campaign executor: Golden Runs, injection runs, Golden Run
//! Comparison, parallel orchestration.
//!
//! For every workload case the executor records one [`GoldenRun`]. Every
//! injection run then replays the case for exactly the Golden Run's tick
//! count, installs one error at the configured instant — *after* the
//! environment refreshed the sensors for that tick, *before* any module
//! reads them — and afterwards compares each output trace of the targeted
//! module against the Golden Run. One error per run, as in the paper.
//!
//! # Fast-forward
//!
//! With [`CampaignConfig::fast_forward`] enabled (the default), the golden
//! run additionally captures a [`SimSnapshot`] at every injection instant
//! plus a periodic checkpoint cadence, collected in a [`GoldenBundle`].
//! Injection runs then
//!
//! * **fork**: restore the snapshot taken at the injection instant instead
//!   of replaying the prefix — the prefix is identical by determinism — and
//! * **early-exit**: once the injected state reconverges with a golden
//!   checkpoint (same tick, same signal values, caches and serialised
//!   module/environment state, no live corruption), the remainder of the
//!   run is provably identical to the golden run and is not simulated.
//!
//! Both shortcuts are exact: estimates, divergences and records are
//! bit-identical to the replay-from-zero path, which is kept (set
//! `fast_forward: false`) for differential testing.

use crate::adaptive::{AdaptivePlanner, StopReason};
use crate::chaos::ChaosInjector;
use crate::error::FiError;
use crate::golden::GoldenRun;
use crate::journal::{JournalHeader, RunJournal, DEFAULT_FSYNC_INTERVAL};
use crate::outcome::{classify_unwind, OutcomeTally, RunOutcome};
use crate::process::{backoff, Attempt, IsolationMode, ProcessIsolation, ToWorker, WorkerClient};
use crate::results::{CampaignResult, PairStat, RunRecord, RunStats};
use crate::shard::Shard;
use crate::spec::{CampaignSpec, InjectionScope};
use permea_obs::{Counter, Event, Histogram, Obs, Progress, StratumCi};
use permea_runtime::sim::{SimInstruments, SimSnapshot, Simulation};
use permea_runtime::time::SimTime;
use permea_runtime::tracing::TraceSet;
use permea_runtime::watchdog::WatchdogConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Spacing of the periodic golden checkpoints used for convergence
/// early-exit. Denser checkpoints detect reconvergence sooner at the cost
/// of snapshot memory and comparison work.
const CHECKPOINT_CADENCE_MS: u64 = 100;

/// Preflight floor: a journaled campaign refuses to start (with the typed
/// [`FiError::DiskSpaceLow`]) when the journal's filesystem has fewer free
/// bytes than this — it would almost certainly abort mid-run on ENOSPC.
pub const MIN_FREE_DISK_BYTES: u64 = 8 * 1024 * 1024;

/// Preflight warning threshold: below this much free space the campaign
/// still runs but emits a warning event.
pub const WARN_FREE_DISK_BYTES: u64 = 64 * 1024 * 1024;

/// Builds fresh simulations of the system under test, one per run.
///
/// Contract: `build(case)` must return a deterministic simulation with
/// tracing already enabled for every signal the comparison should monitor,
/// and identical module/signal naming across cases.
pub trait SystemFactory: Sync {
    /// Builds the simulation for workload case `case`.
    fn build(&self, case: usize) -> Simulation;

    /// Number of workload cases available.
    fn case_count(&self) -> usize;

    /// Upper bound on any scenario's natural length, in milliseconds.
    fn max_run_ms(&self) -> u64 {
        60_000
    }
}

/// Adapts a closure into a [`SystemFactory`].
///
/// # Examples
///
/// ```no_run
/// use permea_fi::campaign::{FnSystemFactory, SystemFactory};
/// # fn make_sim(_case: usize) -> permea_runtime::sim::Simulation { unimplemented!() }
/// let factory = FnSystemFactory::new(25, 60_000, make_sim);
/// assert_eq!(factory.case_count(), 25);
/// ```
pub struct FnSystemFactory<F> {
    cases: usize,
    max_run_ms: u64,
    build: F,
}

impl<F> FnSystemFactory<F>
where
    F: Fn(usize) -> Simulation + Sync,
{
    /// Wraps `build` with the given case count and run-length cap.
    pub fn new(cases: usize, max_run_ms: u64, build: F) -> Self {
        FnSystemFactory {
            cases,
            max_run_ms,
            build,
        }
    }
}

impl<F> SystemFactory for FnSystemFactory<F>
where
    F: Fn(usize) -> Simulation + Sync,
{
    fn build(&self, case: usize) -> Simulation {
        (self.build)(case)
    }
    fn case_count(&self) -> usize {
        self.cases
    }
    fn max_run_ms(&self) -> u64 {
        self.max_run_ms
    }
}

/// Execution options for a campaign.
///
/// Not `Eq` because `max_quarantined_fraction` is an `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Worker threads (0 ⇒ use available parallelism).
    pub threads: usize,
    /// Master seed from which every per-run RNG is derived.
    pub master_seed: u64,
    /// Keep a detailed [`RunRecord`] per injection run.
    pub keep_records: bool,
    /// Optional horizon: truncate every run (golden and injected) to this
    /// many milliseconds. The paper compares full traces; a horizon
    /// comfortably past the last injection (e.g. 15 000 ms for injections
    /// ending at 5 000 ms) gives the same divergence verdicts at a fraction
    /// of the cost and is used by the fast configurations.
    pub horizon_ms: Option<u64>,
    /// Fork injection runs from golden snapshots and early-exit once they
    /// reconverge with the golden run (see the module docs). Results are
    /// bit-identical either way; disable only for differential testing.
    pub fast_forward: bool,
    /// Watchdog budgets armed on every *injection* run (golden runs are
    /// never armed — an un-injected scenario that hangs is a
    /// [`FiError::GoldenRunDidNotTerminate`] bug, not data). `None`
    /// disables hang detection entirely.
    pub watchdog: Option<WatchdogConfig>,
    /// Largest tolerable fraction of quarantined (panicked or hung) runs.
    /// Individual quarantined runs are data — a brittle module meeting a
    /// corrupted value — but when more than this fraction of the whole
    /// campaign dies, the breakage is systematic and the permeability
    /// estimates would rest on a biased sample, so the campaign returns
    /// [`FiError::QuarantineThresholdExceeded`] instead of a result.
    pub max_quarantined_fraction: f64,
    /// Journal fsync batching: the run journal `fsync`s after every this
    /// many appended records (each append is still flushed to the OS
    /// immediately, so a process kill loses nothing either way). Must be
    /// greater than zero — validated by [`Campaign::run_resumable`], which
    /// returns [`FiError::InvalidFsyncInterval`] otherwise. Smaller values
    /// bound power-failure loss tighter at the cost of fsync latency per
    /// run (measured by the `process.journal_fsync_micros` histogram).
    pub journal_fsync_interval: usize,
    /// Where injection runs execute: in this process (the default) or in a
    /// supervised pool of worker processes that survives hard faults (see
    /// [`IsolationMode`]).
    pub isolation: IsolationMode,
    /// Under [`IsolationMode::Process`], how many times a coordinate whose
    /// worker *died* (crash or hard-deadline kill) is re-dispatched before
    /// the death is quarantined as its classified outcome. Retries separate
    /// transient infrastructure failures (an OOM kill under memory
    /// pressure) from deterministic faults; a death that reproduces with
    /// the identical classification on consecutive attempts is quarantined
    /// early without spending the remaining budget. Ignored in-process,
    /// where every run is deterministic by construction.
    pub max_retries: u32,
    /// Execute only this shard's deterministic slice of the campaign:
    /// positions of the dense enumeration (or of each adaptive stratum's
    /// sampling permutation) congruent to the shard index modulo the shard
    /// count. Shard journals share the unsharded campaign's header, so
    /// [`crate::journal::merge_journals`] combines them into one journal
    /// that is byte-identical to an unsharded single-threaded run's.
    pub shard: Option<Shard>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: 0,
            master_seed: 0x5EED,
            keep_records: true,
            horizon_ms: None,
            fast_forward: true,
            watchdog: Some(WatchdogConfig::default()),
            max_quarantined_fraction: 0.25,
            journal_fsync_interval: DEFAULT_FSYNC_INTERVAL,
            isolation: IsolationMode::InProcess,
            max_retries: 2,
            shard: None,
        }
    }
}

/// A [`GoldenRun`] plus the snapshots that let injection runs fast-forward:
/// one at every injection instant (fork points) and one every 100 ms
/// (`CHECKPOINT_CADENCE_MS`, convergence checkpoints).
#[derive(Debug, Clone)]
pub struct GoldenBundle {
    /// The reference run.
    pub run: GoldenRun,
    snapshots: BTreeMap<u64, SimSnapshot>,
}

impl GoldenBundle {
    /// Wraps a golden run with no snapshots: every injection run replays
    /// from tick zero (the `fast_forward: false` path).
    pub fn bare(run: GoldenRun) -> Self {
        GoldenBundle {
            run,
            snapshots: BTreeMap::new(),
        }
    }

    /// The snapshot captured at the boundary of tick `time_ms`, if any.
    pub fn snapshot_at(&self, time_ms: u64) -> Option<&SimSnapshot> {
        self.snapshots.get(&time_ms)
    }

    /// Number of captured snapshots.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }
}

/// What [`Campaign::prepare`] yields: the resolved targets, the golden
/// bundles and the per-case golden tick counts.
pub(crate) type Prepared = (Vec<ResolvedTarget>, Vec<GoldenBundle>, Vec<u64>);

/// Resolved, immutable description of one target (probe-validated once).
#[derive(Debug, Clone)]
pub(crate) struct ResolvedTarget {
    module_name: String,
    input_signal: String,
    module_idx: permea_runtime::sim::ModuleIdx,
    input_port: usize,
    output_signals: Vec<String>,
}

/// What `run_one` yields per injection: the original and corrupted signal
/// values, the per-output first divergences, and the run's deterministic
/// execution statistics.
type RunOneOutput = (u16, u16, Vec<Option<u32>>, RunStats);

/// The outcome of one (possibly fast-forwarded) injection run: the trace
/// window actually simulated, covering ticks `[start_ms, start_ms + window
/// ticks)` of the run, and the injected values.
struct InjectedWindow {
    window: TraceSet,
    start_ms: u64,
    forked: bool,
    converged_ms: Option<u64>,
    original: u16,
    corrupted: u16,
}

impl InjectedWindow {
    /// First tick at which `signal` deviates from the golden run, across the
    /// *whole* run. Ticks before the window are identical by determinism
    /// (no injection happened yet) and ticks after it are identical by
    /// convergence, so comparing the window against the golden samples at
    /// `start_ms + i` is exact.
    fn window_divergence(&self, golden: &GoldenRun, signal: &str) -> Option<usize> {
        let g = golden.traces.trace(signal)?;
        let w = self.window.trace(signal)?;
        let start = self.start_ms as usize;
        debug_assert!(start + w.len() <= g.len(), "window overruns golden trace");
        let n = w.len().min(g.len().saturating_sub(start));
        permea_runtime::tracing::first_mismatch(&w[..n], &g[start..start + n]).map(|i| start + i)
    }
}

/// Telemetry instruments a campaign resolves once up front and bumps per
/// run. `campaign.*` names hold deterministic facts (identical between a
/// resumed and an uninterrupted execution); `process.*` names describe this
/// process's work. All handles are no-ops for a disabled [`Obs`].
struct Instruments {
    runs_total: Counter,
    runs_completed: Counter,
    runs_panicked: Counter,
    runs_hung: Counter,
    runs_crashed: Counter,
    ff_forked: Counter,
    ff_reconverged: Counter,
    run_ticks: Counter,
    ticks_saved: Counter,
    golden_runs: Counter,
    golden_ticks: Counter,
    snapshots: Counter,
    runs_executed: Counter,
    runs_recovered: Counter,
    run_micros: Histogram,
    worker_spawns: Counter,
    worker_respawns: Counter,
    worker_kills: Counter,
    run_retries: Counter,
    attempt_micros: Histogram,
    adaptive_batches: Counter,
    adaptive_strata_closed: Counter,
    adaptive_runs_saved: Counter,
}

impl Instruments {
    fn resolve(obs: &Obs) -> Self {
        Instruments {
            runs_total: obs.counter("campaign.runs_total"),
            runs_completed: obs.counter("campaign.runs_completed"),
            runs_panicked: obs.counter("campaign.runs_panicked"),
            runs_hung: obs.counter("campaign.runs_hung"),
            runs_crashed: obs.counter("campaign.runs_crashed"),
            ff_forked: obs.counter("campaign.ff_forked"),
            ff_reconverged: obs.counter("campaign.ff_reconverged"),
            run_ticks: obs.counter("campaign.run_ticks"),
            ticks_saved: obs.counter("campaign.ticks_saved"),
            golden_runs: obs.counter("campaign.golden_runs"),
            golden_ticks: obs.counter("campaign.golden_ticks"),
            snapshots: obs.counter("campaign.snapshots"),
            runs_executed: obs.counter("process.runs_executed"),
            runs_recovered: obs.counter("process.runs_recovered"),
            run_micros: obs.histogram("process.run_micros"),
            worker_spawns: obs.counter("process.worker_spawns"),
            worker_respawns: obs.counter("process.worker_respawns"),
            worker_kills: obs.counter("process.worker_kills"),
            run_retries: obs.counter("process.run_retries"),
            attempt_micros: obs.histogram("process.attempt_micros"),
            adaptive_batches: obs.counter("adaptive.batches"),
            adaptive_strata_closed: obs.counter("adaptive.strata_closed"),
            adaptive_runs_saved: obs.counter("adaptive.runs_saved"),
        }
    }

    /// Accounts one finished run — executed just now or recovered from the
    /// journal — into the deterministic `campaign.*` totals. `golden_ticks`
    /// is the golden-run length of the run's case, needed to credit the
    /// tail skipped by a reconvergence exit.
    fn account(&self, record: &RunRecord, stats: &RunStats, golden_ticks: u64) {
        self.runs_total.inc();
        match &record.outcome {
            RunOutcome::Completed => self.runs_completed.inc(),
            RunOutcome::Panicked { .. } => self.runs_panicked.inc(),
            RunOutcome::Hung { .. } => self.runs_hung.inc(),
            RunOutcome::Crashed { .. } => self.runs_crashed.inc(),
        }
        self.run_ticks.add(stats.sim_ticks);
        if stats.forked {
            self.ff_forked.inc();
            self.ticks_saved.add(record.time_ms);
        }
        if let Some(converged) = stats.converged_ms {
            self.ff_reconverged.inc();
            self.ticks_saved.add(golden_ticks.saturating_sub(converged));
        }
    }
}

/// Shared planner state of an adaptive campaign: the current batch's
/// still-unclaimed coordinates, the number in flight, and every coordinate
/// sampled so far. Guarded by one mutex so batch planning is a barrier —
/// round *r + 1* is only ever computed from the complete records of rounds
/// *1..=r*, which is what keeps adaptive campaigns independent of executor
/// thread count.
struct AdaptiveState {
    planner: AdaptivePlanner,
    /// Unclaimed coordinates of the current batch, served from the back.
    pending: Vec<usize>,
    /// Claimed-but-uncommitted coordinates of the current batch.
    outstanding: usize,
    /// The planner returned an empty batch: the campaign is complete.
    finished: bool,
    /// Every coordinate the planner has issued, in issue order.
    sampled: Vec<u64>,
    /// Per-target flag: a [`permea_obs::Event::StratumClosed`] event was
    /// already emitted for this stratum (closes are detected at batch
    /// barriers, so without the flag every later barrier would repeat
    /// them).
    closed_reported: Vec<bool>,
}

/// Where worker threads claim coordinates from: the dense grid cursor, or
/// the adaptive planner with its batch condvar.
enum WorkSource {
    Dense(AtomicUsize),
    Adaptive(Box<Mutex<AdaptiveState>>, Condvar),
}

/// A ready-to-run campaign binding a factory to a configuration.
pub struct Campaign<'f> {
    factory: &'f dyn SystemFactory,
    config: CampaignConfig,
    obs: Obs,
    chaos: Option<Arc<ChaosInjector>>,
}

impl<'f> Campaign<'f> {
    /// Creates a campaign with telemetry disabled.
    pub fn new(factory: &'f dyn SystemFactory, config: CampaignConfig) -> Self {
        Campaign {
            factory,
            config,
            obs: Obs::disabled(),
            chaos: None,
        }
    }

    /// Attaches a telemetry handle: campaign phases, per-run counters and
    /// progress events flow through it. With the default disabled handle
    /// every instrument is a branch-and-skip no-op.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a [`crate::chaos`] injector: its fault plan is replayed
    /// against this campaign's journal, worker pool and preflight checks.
    /// Production campaigns never call this; without an injector every
    /// chaos hook is a single `Option` branch.
    pub fn with_chaos(mut self, chaos: Arc<ChaosInjector>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The telemetry handle in use.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The effective run-length cap: the horizon, clipped to the factory's
    /// cap.
    fn cap_ms(&self) -> u64 {
        self.config
            .horizon_ms
            .map_or(self.factory.max_run_ms(), |h| {
                h.min(self.factory.max_run_ms())
            })
    }

    /// Checks that a golden run ending in the given state is acceptable:
    /// a natural finish always is; a truncated run is only acceptable when
    /// the configured horizon itself (not the factory cap) cut it.
    fn check_termination(&self, finished: bool, case: usize) -> Result<(), FiError> {
        if finished {
            return Ok(());
        }
        match self.config.horizon_ms {
            None => Err(FiError::GoldenRunDidNotTerminate { case }),
            Some(h) if h > self.factory.max_run_ms() => Err(FiError::HorizonExceedsCap {
                horizon_ms: h,
                max_run_ms: self.factory.max_run_ms(),
            }),
            Some(_) => Ok(()),
        }
    }

    /// Records the Golden Run for one case.
    ///
    /// # Errors
    ///
    /// [`FiError::GoldenRunDidNotTerminate`] if the scenario neither
    /// finishes nor hits the configured horizon within the factory's cap;
    /// [`FiError::HorizonExceedsCap`] if the horizon lies beyond the cap and
    /// the run would have been silently truncated at the cap;
    /// [`FiError::TracingDisabled`] if the factory built the simulation
    /// without tracing.
    pub fn golden(&self, case: usize) -> Result<GoldenRun, FiError> {
        let mut sim = self.factory.build(case);
        sim.run_until(SimTime::from_millis(self.cap_ms()));
        self.check_termination(sim.finished(), case)?;
        let ticks = sim.now().as_millis();
        let traces = sim.take_traces().ok_or(FiError::TracingDisabled { case })?;
        Ok(GoldenRun {
            case,
            ticks,
            traces,
        })
    }

    /// Records Golden Runs for all cases of a spec.
    ///
    /// # Errors
    ///
    /// Propagates the first golden-run failure.
    pub fn goldens(&self, cases: usize) -> Result<Vec<GoldenRun>, FiError> {
        (0..cases).map(|c| self.golden(c)).collect()
    }

    /// Records the Golden Run for one case together with the fast-forward
    /// snapshots: one at each of `instants` (fork points, normally the
    /// spec's injection instants) and one every 100 ms
    /// (`CHECKPOINT_CADENCE_MS`, convergence checkpoints). With `fast_forward` disabled this is just
    /// [`Campaign::golden`] wrapped snapshot-free.
    ///
    /// # Errors
    ///
    /// As for [`Campaign::golden`].
    pub fn golden_bundle(&self, case: usize, instants: &[u64]) -> Result<GoldenBundle, FiError> {
        if !self.config.fast_forward {
            return Ok(GoldenBundle::bare(self.golden(case)?));
        }
        let cap = self.cap_ms();
        let mut wanted: BTreeSet<u64> = instants.iter().copied().filter(|&t| t < cap).collect();
        let mut t = CHECKPOINT_CADENCE_MS;
        while t < cap {
            wanted.insert(t);
            t += CHECKPOINT_CADENCE_MS;
        }

        let mut sim = self.factory.build(case);
        let mut snapshots = BTreeMap::new();
        while sim.now() < SimTime::from_millis(cap) && !sim.finished() {
            let now = sim.now().as_millis();
            if wanted.contains(&now) {
                snapshots.insert(now, sim.snapshot());
            }
            sim.step();
        }
        self.check_termination(sim.finished(), case)?;
        let ticks = sim.now().as_millis();
        // Checkpoints at or beyond the end are useless (runs stop there).
        snapshots.retain(|&t, _| t < ticks);
        let traces = sim.take_traces().ok_or(FiError::TracingDisabled { case })?;
        Ok(GoldenBundle {
            run: GoldenRun {
                case,
                ticks,
                traces,
            },
            snapshots,
        })
    }

    /// Records golden bundles for every case of `spec`, with fork points at
    /// the spec's injection instants.
    ///
    /// # Errors
    ///
    /// Propagates the first golden-run failure.
    pub fn golden_bundles(&self, spec: &CampaignSpec) -> Result<Vec<GoldenBundle>, FiError> {
        (0..spec.cases)
            .map(|c| self.golden_bundle(c, &spec.times_ms))
            .collect()
    }

    /// Validates every target of `spec` against a probe simulation.
    fn resolve_targets(&self, spec: &CampaignSpec) -> Result<Vec<ResolvedTarget>, FiError> {
        let probe = self.factory.build(0);
        spec.targets
            .iter()
            .map(|t| {
                let module_idx = probe
                    .module_by_name(&t.module)
                    .ok_or_else(|| FiError::UnknownModule(t.module.clone()))?;
                let (module_idx, input_port) = probe
                    .find_input_port(&t.module, &t.input_signal)
                    .ok_or_else(|| FiError::UnknownInputPort {
                        module: t.module.clone(),
                        signal: t.input_signal.clone(),
                    })
                    .map(|(m, p)| {
                        debug_assert_eq!(m, module_idx);
                        (m, p)
                    })?;
                let output_signals = probe
                    .module_outputs(module_idx)
                    .iter()
                    .map(|&s| probe.bus().name(s).to_owned())
                    .collect();
                Ok(ResolvedTarget {
                    module_name: t.module.clone(),
                    input_signal: t.input_signal.clone(),
                    module_idx,
                    input_port,
                    output_signals,
                })
            })
            .collect()
    }

    /// The shared core of every injection run. Forks from the golden
    /// snapshot at `time_ms` when the bundle has one (otherwise replays
    /// from tick zero), injects, and stops early once the run reconverges
    /// with a golden checkpoint. Returns the recorded trace window — ticks
    /// `[start_ms, end_ms)` of the run — plus the injected values.
    ///
    /// The configured watchdog is armed on the simulation, so this call may
    /// unwind with a [`permea_runtime::watchdog::StalledClock`] payload when
    /// the injected error stalls the simulated clock; the campaign loop
    /// catches and classifies that.
    #[allow(clippy::too_many_arguments)] // one coordinate axis per parameter
    fn run_injected(
        &self,
        target: &ResolvedTarget,
        scope: InjectionScope,
        model: crate::model::ErrorModel,
        time_ms: u64,
        golden: &GoldenBundle,
        seed: u64,
        arena: &mut Option<TraceSet>,
    ) -> Result<InjectedWindow, FiError> {
        let mut sim = self.factory.build(golden.run.case);
        if let Some(spare) = arena.take() {
            // Recycle the previous run's sample arena instead of letting the
            // freshly built simulation record into new allocations.
            sim.reuse_trace_arena(spare);
        }
        if self.obs.enabled() {
            // Before `arm_watchdog`, which clones the trip counter into the
            // armed watchdog.
            sim.set_instruments(SimInstruments {
                ticks: self.obs.counter("process.sim_ticks"),
                module_steps: self.obs.counter("process.module_steps"),
                watchdog_trips: self.obs.counter("process.watchdog_trips"),
            });
        }
        if let Some(wd) = self.config.watchdog {
            sim.arm_watchdog(wd);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut original = 0u16;
        let mut corrupted = 0u16;
        let (start_ms, forked) = match golden.snapshot_at(time_ms) {
            Some(snap) => {
                sim.restore(snap);
                (time_ms, true)
            }
            None => (0, false),
        };
        // One-shot models fire exactly at `time_ms`; an intermittent model
        // re-fires on its schedule, and convergence early-exit must wait
        // until the last fire — the run cannot have durably reconverged
        // while the error source is still live.
        let last_fire_ms = model.last_instant(time_ms);
        let mut converged_ms = None;
        while sim.now().as_millis() < golden.run.ticks {
            let now = sim.now().as_millis();
            if now > last_fire_ms {
                if let Some(cp) = golden.snapshot_at(now) {
                    if sim.converged_with(cp) {
                        converged_ms = Some(now);
                        break;
                    }
                }
            }
            sim.begin_tick();
            if model.fires_at(time_ms, now) {
                let seen = sim.peek_module_input(target.module_idx, target.input_port);
                let value = model.apply(seen, &mut rng);
                if now == time_ms {
                    // The record carries the first fire's (original,
                    // corrupted) pair; re-fires corrupt whatever the port
                    // holds by then.
                    original = seen;
                    corrupted = value;
                }
                match scope {
                    InjectionScope::Port => {
                        sim.corrupt_module_input(target.module_idx, target.input_port, value);
                    }
                    InjectionScope::Signal => {
                        let sig = sim.module_inputs(target.module_idx)[target.input_port];
                        sim.bus_mut().corrupt_signal(sig, value);
                    }
                }
            }
            sim.run_modules();
        }
        let window = sim.take_traces().ok_or(FiError::TracingDisabled {
            case: golden.run.case,
        })?;
        Ok(InjectedWindow {
            window,
            start_ms,
            forked,
            converged_ms,
            original,
            corrupted,
        })
    }

    /// Executes one injection run and returns the per-output first
    /// divergences plus the run's deterministic execution statistics.
    #[allow(clippy::too_many_arguments)] // one coordinate axis per parameter
    fn run_one(
        &self,
        spec: &CampaignSpec,
        target: &ResolvedTarget,
        model: crate::model::ErrorModel,
        time_ms: u64,
        golden: &GoldenBundle,
        seed: u64,
        arena: &mut Option<TraceSet>,
    ) -> Result<RunOneOutput, FiError> {
        let run = self.run_injected(target, spec.scope, model, time_ms, golden, seed, arena)?;
        let divergences = target
            .output_signals
            .iter()
            .map(|name| run.window_divergence(&golden.run, name).map(|t| t as u32))
            .collect();
        let stats = RunStats {
            sim_ticks: run.window.ticks() as u64,
            forked: run.forked,
            converged_ms: run.converged_ms,
        };
        // Hand the window's storage back for the next run.
        *arena = Some(run.window);
        Ok((run.original, run.corrupted, divergences, stats))
    }

    /// Runs a single injection and returns the **full trace set** of the
    /// injected run alongside the (original, corrupted) values — the hook
    /// used by detector-placement studies that need to replay assertions
    /// over injected traces.
    ///
    /// When the run was fast-forwarded, the full trace is reassembled from
    /// the golden prefix (identical by determinism), the recorded window,
    /// and the golden tail (identical by convergence).
    ///
    /// # Errors
    ///
    /// Returns target-resolution errors and [`FiError::TracingDisabled`].
    pub fn run_traced(
        &self,
        target: &crate::spec::PortTarget,
        scope: InjectionScope,
        model: crate::model::ErrorModel,
        time_ms: u64,
        golden: &GoldenBundle,
        seed: u64,
    ) -> Result<(TraceSet, u16, u16), FiError> {
        let spec = CampaignSpec {
            targets: vec![target.clone()],
            models: vec![model],
            times_ms: vec![time_ms],
            cases: golden.run.case + 1,
            scope,
            adaptive: None,
        };
        let resolved = self.resolve_targets(&spec)?;
        let run =
            self.run_injected(&resolved[0], scope, model, time_ms, golden, seed, &mut None)?;
        let start = run.start_ms as usize;
        let traces = if start == 0 && run.converged_ms.is_none() {
            run.window
        } else {
            let mut full = golden.run.traces.truncated(start);
            full.extend_from_window(&run.window, 0, run.window.ticks());
            if let Some(conv) = run.converged_ms {
                full.extend_from_window(
                    &golden.run.traces,
                    conv as usize,
                    golden.run.ticks as usize,
                );
            }
            full
        };
        Ok((traces, run.original, run.corrupted))
    }

    /// The journal header identifying this campaign: the spec plus the
    /// seed and horizon of this configuration. This is what
    /// [`RunJournal::open_or_create`] verifies before resuming.
    pub fn journal_header(&self, spec: &CampaignSpec) -> JournalHeader {
        JournalHeader::new(spec, self.config.master_seed, self.config.horizon_ms)
    }

    /// Validates the spec, resolves its targets and records the golden
    /// bundles — the deterministic preamble both an in-process campaign and
    /// a worker process perform before any injection run. Returns the
    /// resolved targets, the golden bundles and the per-case golden tick
    /// counts.
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run`]'s validation phase.
    pub(crate) fn prepare(&self, spec: &CampaignSpec) -> Result<Prepared, FiError> {
        spec.validate()?;
        let targets = self.resolve_targets(spec)?;
        let goldens = self.golden_bundles(spec)?;
        let golden_ticks: Vec<u64> = goldens.iter().map(|g| g.run.ticks).collect();
        spec.validate_instants(self.config.horizon_ms, &golden_ticks)?;
        Ok((targets, goldens, golden_ticks))
    }

    /// Executes coordinate `k` under the in-process sandbox
    /// (`catch_unwind` + cooperative watchdog) and returns its record: a
    /// completed comparison, or a quarantined `Panicked`/`Hung` outcome.
    /// The per-run seed derives from `k` and the master seed alone, which
    /// is what makes the record identical no matter which process (or
    /// attempt) executes it.
    ///
    /// # Errors
    ///
    /// Returns infrastructure failures (e.g. [`FiError::TracingDisabled`])
    /// — never run deaths, which unwind into the quarantined record.
    pub(crate) fn execute_sandboxed(
        &self,
        spec: &CampaignSpec,
        targets: &[ResolvedTarget],
        goldens: &[GoldenBundle],
        k: usize,
        arena: &mut Option<TraceSet>,
    ) -> Result<(RunRecord, RunStats), FiError> {
        let (ti, mi, wi, ci) = spec.coordinate(k);
        let target = &targets[ti];
        let model = spec.models[mi];
        let time_ms = spec.times_ms[wi];
        let seed = self.config.master_seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Sandbox the run: a panicking or hanging simulation is quarantined
        // as a classified outcome, not a dead campaign.
        let sandboxed = catch_unwind(AssertUnwindSafe(|| {
            self.run_one(spec, target, model, time_ms, &goldens[ci], seed, arena)
        }));
        match sandboxed {
            Ok(Ok((original, corrupted, divergences, stats))) => Ok((
                RunRecord {
                    module: target.module_name.clone(),
                    input_signal: target.input_signal.clone(),
                    model,
                    time_ms,
                    case: ci,
                    original_value: original,
                    corrupted_value: corrupted,
                    first_divergence: divergences,
                    outcome: RunOutcome::Completed,
                },
                stats,
            )),
            Ok(Err(e)) => Err(e),
            Err(payload) => Ok((
                RunRecord {
                    module: target.module_name.clone(),
                    input_signal: target.input_signal.clone(),
                    model,
                    time_ms,
                    case: ci,
                    original_value: 0,
                    corrupted_value: 0,
                    first_divergence: Vec::new(),
                    outcome: classify_unwind(payload),
                },
                // The window is lost to the unwind; whether the run forked
                // is still deterministic from the bundle.
                RunStats {
                    sim_ticks: 0,
                    forked: goldens[ci].snapshot_at(time_ms).is_some(),
                    converged_ms: None,
                },
            )),
        }
    }

    /// The quarantined record for a coordinate whose worker *process* died:
    /// the supervisor never saw a window, so values and divergences are
    /// zeroed and the stats are empty — deterministically, so journals and
    /// resumed campaigns agree.
    fn death_record(
        &self,
        spec: &CampaignSpec,
        targets: &[ResolvedTarget],
        k: usize,
        outcome: RunOutcome,
    ) -> (RunRecord, RunStats) {
        let (ti, mi, wi, ci) = spec.coordinate(k);
        (
            RunRecord {
                module: targets[ti].module_name.clone(),
                input_signal: targets[ti].input_signal.clone(),
                model: spec.models[mi],
                time_ms: spec.times_ms[wi],
                case: ci,
                original_value: 0,
                corrupted_value: 0,
                first_divergence: Vec::new(),
                outcome,
            },
            RunStats {
                sim_ticks: 0,
                forked: false,
                converged_ms: None,
            },
        )
    }

    /// Runs the full campaign.
    ///
    /// Equivalent to [`Campaign::run_resumable`] with no journal and no
    /// cancellation flag.
    ///
    /// # Errors
    ///
    /// Fails fast on spec validation (including injection instants no run
    /// can reach), target resolution or golden-run problems;
    /// [`FiError::TracingDisabled`] when the factory builds untraced
    /// simulations; [`FiError::QuarantineThresholdExceeded`] when more than
    /// [`CampaignConfig::max_quarantined_fraction`] of the runs panicked or
    /// hung; [`FiError::WorkerPanicked`] only if campaign *infrastructure*
    /// (not a simulated run) dies.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignResult, FiError> {
        self.run_resumable(spec, None, None)
    }

    /// Runs the campaign with optional durability and cancellation.
    ///
    /// Every injection run executes under `catch_unwind`: a panicking or
    /// hanging run is *quarantined* — recorded with its classified
    /// [`RunOutcome`] and excluded from the estimates — and the campaign
    /// carries on.
    ///
    /// With a `journal`, every finished run is appended as write-ahead
    /// state, runs already present in the journal are **not** re-executed,
    /// and the final result is assembled from the union. Because per-run
    /// seeds derive from the coordinate index alone, a resumed campaign is
    /// byte-identical to an uninterrupted one. The caller must have opened
    /// the journal against [`Campaign::journal_header`] so stale journals
    /// are rejected up front.
    ///
    /// With a `cancel` flag, workers stop claiming new runs once the flag
    /// is raised; finished runs are synced to the journal and the campaign
    /// returns [`FiError::Interrupted`].
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run`], plus [`FiError::Interrupted`] on
    /// cancellation and [`FiError::Journal`] on journal I/O failures.
    pub fn run_resumable(
        &self,
        spec: &CampaignSpec,
        journal: Option<&mut RunJournal>,
        cancel: Option<&AtomicBool>,
    ) -> Result<CampaignResult, FiError> {
        self.run_resumable_budgeted(spec, journal, cancel, None)
    }

    /// [`Campaign::run_resumable`] with a cooperative work budget: at most
    /// `max_new_runs` coordinates are *issued* this invocation (journal
    /// replays and golden runs are free), after which the campaign stops
    /// exactly as if cancelled — in-flight runs commit, the journal syncs,
    /// and [`FiError::Interrupted`] is returned. Because resume replays
    /// the journal, slicing a campaign into any sequence of budgeted
    /// invocations yields a final result byte-identical to one
    /// uninterrupted run; this is what lets a multiplexing scheduler
    /// time-share one executor across concurrent campaigns.
    ///
    /// `max_new_runs == None` is unlimited (identical to
    /// [`Campaign::run_resumable`]).
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run_resumable`]; budget exhaustion before
    /// completion surfaces as [`FiError::Interrupted`].
    pub fn run_resumable_budgeted(
        &self,
        spec: &CampaignSpec,
        journal: Option<&mut RunJournal>,
        cancel: Option<&AtomicBool>,
        max_new_runs: Option<u64>,
    ) -> Result<CampaignResult, FiError> {
        if self.config.journal_fsync_interval == 0 {
            return Err(FiError::InvalidFsyncInterval);
        }
        let obs = &self.obs;
        let ins = Instruments::resolve(obs);
        let _campaign_span = obs.span("campaign");
        let campaign_started = Instant::now();
        // Campaign-relative monotonic clock stamped into every timeline
        // event (`Progress::elapsed_micros`, adaptive snapshots, run
        // incidents). Deliberately *not* `obs.now_micros()`: the telemetry
        // epoch starts at handle creation and would fold per-process setup
        // time into the timeline, and each session of a resumed campaign
        // must restart this clock at zero so consumers can stitch sessions
        // contiguously.
        let campaign_elapsed = move || campaign_started.elapsed().as_micros() as u64;
        // Quarantined outcomes and worker-death retries land on the event
        // timeline as run incidents; completed runs stay off it so the
        // event rate tracks trouble, not campaign size.
        let emit_incident = |k: u64, kind: &str, detail: &str| {
            if obs.enabled() {
                obs.emit(&Event::RunIncident {
                    k,
                    kind,
                    detail,
                    elapsed_micros: campaign_elapsed(),
                });
            }
        };

        let process_cfg = match &self.config.isolation {
            IsolationMode::Process(p) => Some(p),
            IsolationMode::InProcess => None,
        };

        spec.validate()?;
        let targets = self.resolve_targets(spec)?;
        let goldens = {
            let _golden_span = obs.span("golden");
            if process_cfg.is_some() {
                // Workers record their own snapshot-bearing bundles; the
                // supervisor needs golden lengths only for validation,
                // accounting and the circuit-breaker fallback, so it skips
                // the snapshot capture.
                self.goldens(spec.cases)?
                    .into_iter()
                    .map(GoldenBundle::bare)
                    .collect::<Vec<_>>()
            } else {
                self.golden_bundles(spec)?
            }
        };
        let golden_ticks: Vec<u64> = goldens.iter().map(|g| g.run.ticks).collect();
        spec.validate_instants(self.config.horizon_ms, &golden_ticks)?;
        ins.golden_runs.add(goldens.len() as u64);
        ins.golden_ticks.add(golden_ticks.iter().sum());
        ins.snapshots
            .add(goldens.iter().map(|g| g.snapshot_count() as u64).sum());

        let run_count = spec.run_count();
        let shard = self.config.shard;
        // Maps the dense cursor's position `j` to the coordinate this shard
        // executes: the j-th owned position of the ascending enumeration.
        // With no shard this is the identity.
        let dense_coord = move |j: usize| {
            let (index, count) = shard.map_or((0, 1), |s| (s.index(), s.count()));
            let k = index + j * count;
            (k < run_count).then_some(k)
        };
        let configured_threads = process_cfg.map_or(self.config.threads, |p| p.workers);
        let threads = if configured_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            configured_threads
        };

        // Runs already journaled by an earlier (interrupted) execution; the
        // journal header was verified against this campaign on open, so the
        // coordinate indices are directly comparable.
        let done: HashMap<u64, (RunRecord, RunStats)> = journal
            .as_ref()
            .map(|j| j.entries().clone())
            .unwrap_or_default();
        debug_assert!(done.keys().all(|&k| (k as usize) < run_count));
        let adaptive_mode = spec.adaptive.is_some();
        // What "all done" means for the progress display: a dense shard owns
        // only its slice of the grid; adaptive campaigns report against the
        // dense total (an upper bound the planner usually undercuts).
        let progress_total = if adaptive_mode {
            run_count as u64
        } else {
            shard.map_or(run_count as u64, |s| s.len(run_count as u64))
        };
        // Recovered runs merge into the deterministic totals exactly as if
        // they had been executed here — that is what makes a resumed
        // campaign's `campaign.*` metrics equal an uninterrupted one's.
        // Under an adaptive plan a journaled run only counts once the
        // planner re-issues its coordinate, so accounting happens at replay
        // time in `claim` instead.
        if !adaptive_mode {
            ins.runs_recovered.add(done.len() as u64);
            for (record, stats) in done.values() {
                ins.account(record, stats, golden_ticks[record.case]);
            }
        }
        // Preflight: refuse to start a journaled campaign on a filesystem
        // that is about to run out of space — aborting up front with a
        // typed error beats dying mid-run on ENOSPC. An unknown reading
        // (exotic platform, statvfs failure) proceeds as before.
        if let Some(j) = &journal {
            let free = self
                .chaos
                .as_ref()
                .and_then(|c| c.free_disk_override())
                .or_else(|| crate::env::free_disk_bytes(j.path()));
            if let Some(free) = free {
                if free < MIN_FREE_DISK_BYTES {
                    return Err(FiError::DiskSpaceLow {
                        free_bytes: free,
                        needed_bytes: MIN_FREE_DISK_BYTES,
                    });
                }
                if free < WARN_FREE_DISK_BYTES {
                    obs.warn(format!(
                        "journal filesystem has only {free} bytes free (warning \
                         threshold {WARN_FREE_DISK_BYTES}); the campaign may abort on ENOSPC"
                    ));
                }
            }
        }
        let journal = journal.map(|j| {
            j.set_fsync_interval(self.config.journal_fsync_interval);
            j.attach_obs(obs);
            if let Some(chaos) = &self.chaos {
                j.set_chaos(chaos.clone());
            }
            Mutex::new(j)
        });

        // Progress bookkeeping, only ever touched when telemetry is enabled.
        // Adaptive replays count journaled runs as they are re-issued.
        let recovered = done.len() as u64;
        let progress_done = AtomicU64::new(if adaptive_mode { 0 } else { recovered });
        let progress_quarantined = AtomicU64::new(if adaptive_mode {
            0
        } else {
            done.values()
                .filter(|(r, _)| !r.outcome.is_completed())
                .count() as u64
        });
        let progress_forked = AtomicU64::new(0);
        let progress_executed = AtomicU64::new(0);

        // Shared work source over coordinate indices: the dense cursor, or
        // the adaptive planner seeded so its decisions replay on resume.
        let source = match &spec.adaptive {
            Some(_) => {
                let outputs: Vec<usize> = targets.iter().map(|t| t.output_signals.len()).collect();
                WorkSource::Adaptive(
                    Box::new(Mutex::new(AdaptiveState {
                        planner: AdaptivePlanner::new(
                            spec,
                            &outputs,
                            self.config.master_seed,
                            shard,
                        )?,
                        pending: Vec::new(),
                        outstanding: 0,
                        finished: false,
                        sampled: Vec::new(),
                        closed_reported: vec![false; targets.len()],
                    })),
                    Condvar::new(),
                )
            }
            None => WorkSource::Dense(AtomicUsize::new(0)),
        };
        let executed: Mutex<Vec<(u64, RunRecord)>> = Mutex::new(Vec::new());
        // First infrastructure failure (journal I/O, poisoned lock, ...);
        // quarantined runs never land here.
        let fail: Mutex<Option<FiError>> = Mutex::new(None);
        let set_fail = |e: FiError| {
            if let Ok(mut slot) = fail.lock() {
                slot.get_or_insert(e);
            }
        };

        // Work budget: decremented only when a coordinate is actually
        // issued (journal replays are free). Exhaustion raises a flag that
        // every stop check treats exactly like cancellation, so in-flight
        // runs still commit and the journal still syncs.
        let budget: Option<AtomicI64> =
            max_new_runs.map(|n| AtomicI64::new(n.min(i64::MAX as u64) as i64));
        let budget_exhausted = AtomicBool::new(false);
        let take_budget = || match &budget {
            None => true,
            Some(b) => {
                if b.fetch_sub(1, Ordering::AcqRel) > 0 {
                    true
                } else {
                    budget_exhausted.store(true, Ordering::Release);
                    false
                }
            }
        };
        let stop_requested = || {
            cancel.is_some_and(|c| c.load(Ordering::Acquire))
                || budget_exhausted.load(Ordering::Acquire)
        };

        // Claiming a coordinate and committing its finished record are
        // shared between the in-process executor and the process-pool
        // supervisors.
        let claim = || loop {
            if stop_requested() {
                return None;
            }
            if fail.lock().map(|slot| slot.is_some()).unwrap_or(true) {
                return None;
            }
            match &source {
                WorkSource::Dense(next) => {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let k = dense_coord(j)?;
                    if done.contains_key(&(k as u64)) {
                        continue;
                    }
                    if !take_budget() {
                        return None;
                    }
                    return Some(k);
                }
                WorkSource::Adaptive(state, batch_done) => {
                    let Ok(mut s) = state.lock() else {
                        set_fail(FiError::WorkerPanicked);
                        return None;
                    };
                    loop {
                        if s.finished || stop_requested() {
                            return None;
                        }
                        if let Some(k) = s.pending.pop() {
                            if let Some((record, stats)) = done.get(&(k as u64)) {
                                // Journal replay: the planner re-issued a
                                // coordinate an earlier execution already
                                // ran, so feed it the journaled record
                                // instead of executing. Accounting matches
                                // the dense path's upfront merge.
                                ins.runs_recovered.inc();
                                ins.account(record, stats, golden_ticks[record.case]);
                                s.planner.record(k, record);
                                if obs.enabled() {
                                    progress_done.fetch_add(1, Ordering::Relaxed);
                                    if !record.outcome.is_completed() {
                                        progress_quarantined.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                continue;
                            }
                            if !take_budget() {
                                // Restore the coordinate so the pending
                                // queue stays coherent; resume's replay
                                // re-issues it next invocation.
                                s.pending.push(k);
                                return None;
                            }
                            s.outstanding += 1;
                            return Some(k);
                        }
                        if s.outstanding > 0 {
                            // The batch tail is still in flight on other
                            // threads; wake on commit (or time out to
                            // re-check the cancel and fail flags).
                            match batch_done.wait_timeout(s, Duration::from_millis(20)) {
                                Ok((guard, _)) => s = guard,
                                Err(_) => {
                                    set_fail(FiError::WorkerPanicked);
                                    return None;
                                }
                            }
                            if fail.lock().map(|slot| slot.is_some()).unwrap_or(true) {
                                return None;
                            }
                            continue;
                        }
                        // Batch barrier reached: every issued coordinate is
                        // recorded, so the planner may allocate the next
                        // round.
                        let batch = s.planner.next_batch();
                        if obs.enabled() {
                            // Snapshot the planner's confidence state at
                            // the barrier — the data points of the
                            // explorer's convergence curves. The final
                            // (empty) batch still snapshots, closing the
                            // curves, and newly-closed strata get one
                            // `stratum_closed` event each.
                            let elapsed = campaign_elapsed();
                            let status = s.planner.status();
                            let strata: Vec<StratumCi> = status
                                .iter()
                                .map(|st| StratumCi {
                                    target: st.target as u32,
                                    executed: st.executed,
                                    trials: st.trials,
                                    half_width: st.max_half_width,
                                    closed: st.closed.is_some(),
                                })
                                .collect();
                            obs.emit(&Event::AdaptiveBatch {
                                round: s.planner.rounds(),
                                batch_runs: batch.len() as u64,
                                elapsed_micros: elapsed,
                                strata: &strata,
                            });
                            for st in &status {
                                let Some(stop) = st.closed else { continue };
                                if std::mem::replace(&mut s.closed_reported[st.target], true) {
                                    continue;
                                }
                                let reason = match stop {
                                    StopReason::CiReached => "ci_reached",
                                    StopReason::BudgetExhausted => "budget_exhausted",
                                    StopReason::RankingStable => "ranking_stable",
                                };
                                obs.emit(&Event::StratumClosed {
                                    target: st.target as u32,
                                    module: &targets[st.target].module_name,
                                    input_signal: &targets[st.target].input_signal,
                                    executed: st.executed,
                                    trials: st.trials,
                                    half_width: st.max_half_width,
                                    reason,
                                    elapsed_micros: elapsed,
                                });
                            }
                        }
                        if batch.is_empty() {
                            s.finished = true;
                            batch_done.notify_all();
                            return None;
                        }
                        s.sampled.extend(batch.iter().map(|&k| k as u64));
                        // `pop` from the back serves ascending coordinates.
                        s.pending = batch;
                        s.pending.reverse();
                    }
                }
            }
        };
        // Non-blocking claim used to fill an IPC dispatch batch behind a
        // blocking first claim. It never waits at the adaptive batch
        // barrier and never replays journaled records (a replayed
        // coordinate is pushed back for `claim` to handle), so a dispatch
        // batch cannot span planner rounds and the barrier stays intact.
        let try_claim = || {
            if stop_requested() {
                return None;
            }
            if fail.lock().map(|slot| slot.is_some()).unwrap_or(true) {
                return None;
            }
            match &source {
                WorkSource::Dense(next) => loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let k = dense_coord(j)?;
                    if done.contains_key(&(k as u64)) {
                        continue;
                    }
                    if !take_budget() {
                        return None;
                    }
                    return Some(k);
                },
                WorkSource::Adaptive(state, _) => {
                    let Ok(mut s) = state.lock() else {
                        set_fail(FiError::WorkerPanicked);
                        return None;
                    };
                    if s.finished {
                        return None;
                    }
                    match s.pending.pop() {
                        Some(k) if done.contains_key(&(k as u64)) => {
                            // Journal replay belongs to `claim`; restore the
                            // coordinate and stop filling this batch.
                            s.pending.push(k);
                            None
                        }
                        Some(k) if !take_budget() => {
                            s.pending.push(k);
                            None
                        }
                        Some(k) => {
                            s.outstanding += 1;
                            Some(k)
                        }
                        None => None,
                    }
                }
            }
        };
        let commit = |k: usize, record: RunRecord, stats: RunStats, attempts: u32| -> bool {
            ins.account(&record, &stats, golden_ticks[record.case]);
            ins.runs_executed.inc();
            if let WorkSource::Adaptive(state, batch_done) = &source {
                match state.lock() {
                    Ok(mut s) => {
                        s.planner.record(k, &record);
                        s.outstanding -= 1;
                        batch_done.notify_all();
                    }
                    Err(_) => {
                        set_fail(FiError::WorkerPanicked);
                        return false;
                    }
                }
            }
            if let Some(j) = &journal {
                let appended = j
                    .lock()
                    .map_err(|_| FiError::WorkerPanicked)
                    .and_then(|mut g| g.append(k as u64, &record, &stats, attempts));
                if let Err(e) = appended {
                    set_fail(e);
                    return false;
                }
            }
            let quarantined_run = !record.outcome.is_completed();
            let forked = stats.forked;
            let incident: Option<(&'static str, String)> = if obs.enabled() {
                match &record.outcome {
                    RunOutcome::Completed => None,
                    RunOutcome::Panicked { message } => Some(("panicked", message.clone())),
                    RunOutcome::Hung { last_tick_ms } => Some((
                        "hung",
                        format!("clock stalled; last observed tick {last_tick_ms} ms"),
                    )),
                    RunOutcome::Crashed { signal, exit_code } => Some((
                        "crashed",
                        match (signal, exit_code) {
                            (Some(sig), _) => format!("worker killed by signal {sig}"),
                            (None, Some(code)) => format!("worker exited with code {code}"),
                            (None, None) => "worker died".to_owned(),
                        },
                    )),
                }
            } else {
                None
            };
            match executed.lock() {
                Ok(mut recs) => recs.push((k as u64, record)),
                Err(_) => {
                    set_fail(FiError::WorkerPanicked);
                    return false;
                }
            }
            if obs.enabled() {
                let done_now = progress_done.fetch_add(1, Ordering::Relaxed) + 1;
                let executed_now = progress_executed.fetch_add(1, Ordering::Relaxed) + 1;
                let forked_now = if forked {
                    progress_forked.fetch_add(1, Ordering::Relaxed) + 1
                } else {
                    progress_forked.load(Ordering::Relaxed)
                };
                let quarantined_now = if quarantined_run {
                    progress_quarantined.fetch_add(1, Ordering::Relaxed) + 1
                } else {
                    progress_quarantined.load(Ordering::Relaxed)
                };
                if let Some((kind, detail)) = &incident {
                    emit_incident(k as u64, kind, detail);
                }
                obs.progress(&Progress {
                    done: done_now,
                    total: progress_total,
                    recovered,
                    quarantined: quarantined_now,
                    forked: forked_now,
                    executed: executed_now,
                    elapsed_micros: campaign_elapsed(),
                    finished: false,
                });
            }
            true
        };

        let worker = |_: usize| {
            // Worker-owned sample arena, recycled across every run this
            // thread executes.
            let mut arena: Option<TraceSet> = None;
            while let Some(k) = claim() {
                let run_started = obs.enabled().then(Instant::now);
                let sandboxed = self.execute_sandboxed(spec, &targets, &goldens, k, &mut arena);
                if let Some(t0) = run_started {
                    ins.run_micros.observe(t0.elapsed().as_micros() as u64);
                }
                match sandboxed {
                    Ok((record, stats)) => {
                        if !commit(k, record, stats, 1) {
                            break;
                        }
                    }
                    Err(e) => {
                        set_fail(e);
                        break;
                    }
                }
            }
        };

        // Process-pool shared state: the respawn budget every thread draws
        // on after its first (free) spawn, and the crash-storm circuit
        // breaker that degrades the rest of the campaign to the in-process
        // executor once the budget is exhausted.
        let respawn_budget = AtomicI64::new(
            process_cfg.map_or(0, |p| p.max_worker_respawns.min(i64::MAX as u64) as i64),
        );
        // Pool-collapse refill waves still available: when the budget runs
        // dry, one wave re-arms a full budget before the breaker may trip.
        let respawn_waves = AtomicI64::new(
            process_cfg.map_or(0, |p| p.pool_respawn_waves.min(i64::MAX as u64) as i64),
        );
        let breaker = AtomicBool::new(false);
        let setup_frame: Vec<u8> = match process_cfg {
            Some(p) => {
                let wd = self.config.watchdog;
                let setup = ToWorker::Setup {
                    spec: spec.clone(),
                    master_seed: self.config.master_seed,
                    horizon_ms: self.config.horizon_ms,
                    fast_forward: self.config.fast_forward,
                    wd_enabled: wd.is_some(),
                    wd_work_per_tick: wd.and_then(|w| w.max_work_per_tick),
                    wd_wall_ms: wd.and_then(|w| w.max_wall_ms),
                    payload: p.factory_payload.clone(),
                };
                let json = serde_json::to_string(&setup).map_err(|e| FiError::WorkerProcess {
                    message: format!("serialising worker setup: {e}"),
                })?;
                crate::process::encode_frame(&json)
            }
            None => Vec::new(),
        };

        let supervisor = |p: &ProcessIsolation| {
            let run_timeout = Duration::from_millis(p.run_timeout_ms.max(1));
            let setup_timeout = Duration::from_millis(p.setup_timeout_ms.max(1));
            let batch_limit = p.dispatch_batch.max(1);
            // The launch command with RLIMIT_AS/RLIMIT_CPU environment
            // variables applied (identical to `p.command` when uncapped).
            let worker_command = p.effective_command();
            let chaos = self.chaos.as_deref();
            let mut client: Option<WorkerClient> = None;
            let mut ever_spawned = false;
            // Arena for the degraded in-process fallback path.
            let mut arena: Option<TraceSet> = None;
            'coords: while let Some(first) = claim() {
                // Fill the dispatch batch behind the blocking first claim
                // without waiting, then try to ship the whole batch in one
                // frame. Any worker death degrades the batch to the
                // single-coordinate path below, whose retry loop owns death
                // classification; coordinates re-run deterministically, so
                // the records are identical either way.
                let mut batch = vec![first];
                if client.is_some() && !breaker.load(Ordering::Acquire) {
                    while batch.len() < batch_limit {
                        match try_claim() {
                            Some(k) => batch.push(k),
                            None => break,
                        }
                    }
                }
                if batch.len() > 1 {
                    let live = client.as_mut().expect("batched only with a live worker");
                    let ks: Vec<u64> = batch.iter().map(|&k| k as u64).collect();
                    if let Some(c) = chaos {
                        if c.should_kill_worker(&ks) {
                            live.chaos_kill();
                        }
                    }
                    let attempt_started = obs.enabled().then(Instant::now);
                    let attempt = live.run_batch(&ks, run_timeout, chaos);
                    if let Some(t0) = attempt_started {
                        ins.attempt_micros.observe(t0.elapsed().as_micros() as u64);
                    }
                    match attempt {
                        Ok(Attempt::Done { results }) => {
                            for done_run in results {
                                if !commit(done_run.k as usize, done_run.record, done_run.stats, 1)
                                {
                                    break 'coords;
                                }
                            }
                            continue 'coords;
                        }
                        Ok(Attempt::Died { deadline, .. }) => {
                            // The guilty coordinate is unknown from a batch
                            // death; fall through and re-dispatch each
                            // coordinate singly so classification is exact.
                            client = None;
                            if deadline {
                                ins.worker_kills.inc();
                            }
                            ins.run_retries.inc();
                            emit_incident(
                                ks[0],
                                "retried",
                                &format!(
                                    "worker died running a dispatch batch of {}; \
                                     re-dispatching singly",
                                    ks.len()
                                ),
                            );
                        }
                        Ok(Attempt::Protocol(message)) => {
                            set_fail(FiError::WorkerProcess { message });
                            break 'coords;
                        }
                        Err(e) => {
                            set_fail(e);
                            break 'coords;
                        }
                    }
                }
                for k in batch {
                    // Attempts actually dispatched for this coordinate; the
                    // journal records it so resumed campaigns keep the count.
                    let mut attempts: u32 = 0;
                    let mut last_death: Option<RunOutcome> = None;
                    let (record, stats) = loop {
                        if breaker.load(Ordering::Acquire) {
                            // Degraded mode: execute on the supervisor's bare
                            // bundles — records are bit-identical (fast-forward
                            // never changes a result bit), just slower.
                            client = None;
                            match self.execute_sandboxed(spec, &targets, &goldens, k, &mut arena) {
                                Ok(pair) => break pair,
                                Err(e) => {
                                    set_fail(e);
                                    break 'coords;
                                }
                            }
                        }
                        if client.is_none() {
                            if ever_spawned {
                                if respawn_budget.fetch_sub(1, Ordering::AcqRel) <= 0 {
                                    // Pool collapse: spend one refill wave
                                    // (re-arming a full respawn budget)
                                    // before the breaker may trip and
                                    // degrade the campaign in-process.
                                    if p.max_worker_respawns > 0
                                        && respawn_waves.fetch_sub(1, Ordering::AcqRel) > 0
                                    {
                                        respawn_budget.store(
                                            p.max_worker_respawns.min(i64::MAX as u64) as i64,
                                            Ordering::Release,
                                        );
                                        obs.warn(format!(
                                            "worker pool collapsed; spending a respawn wave \
                                             ({} fresh respawns)",
                                            p.max_worker_respawns
                                        ));
                                        continue;
                                    }
                                    breaker.store(true, Ordering::Release);
                                    continue;
                                }
                                ins.worker_respawns.inc();
                            }
                            match WorkerClient::spawn(&worker_command) {
                                Ok(mut fresh) => {
                                    ever_spawned = true;
                                    ins.worker_spawns.inc();
                                    match fresh.setup(&setup_frame, setup_timeout) {
                                        Ok(()) => client = Some(fresh),
                                        Err(_) => {
                                            // Setup failures draw on the budget
                                            // like crashes do; back off and let
                                            // the loop respawn or trip the
                                            // breaker.
                                            std::thread::sleep(backoff(
                                                p.retry_backoff_ms,
                                                attempts,
                                            ));
                                            continue;
                                        }
                                    }
                                }
                                Err(_) => {
                                    ever_spawned = true;
                                    std::thread::sleep(backoff(p.retry_backoff_ms, attempts));
                                    continue;
                                }
                            }
                        }
                        let live = client.as_mut().expect("worker ensured above");
                        if let Some(c) = chaos {
                            if c.should_kill_worker(&[k as u64]) {
                                live.chaos_kill();
                            }
                        }
                        attempts += 1;
                        let attempt_started = obs.enabled().then(Instant::now);
                        let attempt = live.run_batch(&[k as u64], run_timeout, chaos);
                        if let Some(t0) = attempt_started {
                            ins.attempt_micros.observe(t0.elapsed().as_micros() as u64);
                        }
                        match attempt {
                            Ok(Attempt::Done { mut results }) => {
                                let done_run =
                                    results.pop().expect("batch of one verified by client");
                                break (done_run.record, done_run.stats);
                            }
                            Ok(Attempt::Died {
                                deadline,
                                signal,
                                exit_code,
                            }) => {
                                client = None;
                                if deadline {
                                    ins.worker_kills.inc();
                                }
                                // A hard-deadline kill means the run never let
                                // its own clock be observed; any other death is
                                // classified from the exit status.
                                let outcome = if deadline {
                                    RunOutcome::Hung { last_tick_ms: 0 }
                                } else {
                                    RunOutcome::Crashed { signal, exit_code }
                                };
                                let reproduced = last_death.as_ref() == Some(&outcome);
                                let budget_spent = attempts > self.config.max_retries;
                                if reproduced || budget_spent {
                                    break self.death_record(spec, &targets, k, outcome);
                                }
                                last_death = Some(outcome);
                                ins.run_retries.inc();
                                emit_incident(
                                    k as u64,
                                    "retried",
                                    &format!("worker death on attempt {attempts}; backing off"),
                                );
                                std::thread::sleep(backoff(p.retry_backoff_ms, attempts));
                            }
                            Ok(Attempt::Protocol(message)) => {
                                set_fail(FiError::WorkerProcess { message });
                                break 'coords;
                            }
                            Err(e) => {
                                set_fail(e);
                                break 'coords;
                            }
                        }
                    };
                    if !commit(k, record, stats, attempts.max(1)) {
                        break 'coords;
                    }
                }
            }
        };

        if let Some(p) = process_cfg {
            if threads <= 1 {
                supervisor(p);
            } else {
                let supervisor_ref = &supervisor;
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(move || supervisor_ref(p));
                    }
                });
            }
        } else if threads <= 1 {
            worker(0);
        } else {
            let worker_ref = &worker;
            std::thread::scope(|s| {
                for w in 0..threads {
                    s.spawn(move || worker_ref(w));
                }
            });
        }

        // Whatever the exit path, leave the journal durable first.
        if let Some(j) = &journal {
            j.lock().map_err(|_| FiError::WorkerPanicked)?.sync()?;
        }
        if let Some(e) = fail.into_inner().map_err(|_| FiError::WorkerPanicked)? {
            return Err(e);
        }

        let executed = executed.into_inner().map_err(|_| FiError::WorkerPanicked)?;
        let (sampled, planner) = match source {
            WorkSource::Dense(_) => (None, None),
            WorkSource::Adaptive(state, _) => {
                let s = state.into_inner().map_err(|_| FiError::WorkerPanicked)?;
                (Some(s.sampled), Some(s.planner))
            }
        };
        // Dense campaigns merge every journaled record; adaptive campaigns
        // merge exactly the coordinates the planner sampled (a journaled
        // run whose batch was never re-issued — possible only after a
        // cancellation — stays out, matching its skipped accounting).
        // Expected dense total: every journaled record plus every
        // shard-owned coordinate that was not journaled. Without a shard
        // this is simply the spec's run count.
        let dense_expected = shard.map_or(run_count, |s| {
            done.len()
                + s.positions(run_count as u64)
                    .filter(|k| !done.contains_key(k))
                    .count()
        });
        let mut merged: Vec<(u64, RunRecord)> = match &sampled {
            None => done.into_iter().map(|(k, (r, _))| (k, r)).collect(),
            Some(sampled_ks) => {
                let sampled_set: std::collections::HashSet<u64> =
                    sampled_ks.iter().copied().collect();
                done.into_iter()
                    .filter(|(k, _)| sampled_set.contains(k))
                    .map(|(k, (r, _))| (k, r))
                    .collect()
            }
        };
        merged.extend(executed);
        merged.sort_by_key(|&(k, _)| k);

        let emit_final_progress = || {
            if obs.enabled() {
                obs.progress(&Progress {
                    done: progress_done.load(Ordering::Relaxed),
                    total: progress_total,
                    recovered,
                    quarantined: progress_quarantined.load(Ordering::Relaxed),
                    forked: progress_forked.load(Ordering::Relaxed),
                    executed: progress_executed.load(Ordering::Relaxed),
                    elapsed_micros: campaign_elapsed(),
                    finished: true,
                });
            }
        };
        obs.gauge("process.campaign_wall_ms")
            .set(campaign_started.elapsed().as_millis() as u64);

        // Budget exhaustion implies at least one claimed coordinate was
        // denied, so the campaign is necessarily incomplete — it reports
        // as interrupted exactly like an external cancellation.
        if cancel.is_some_and(|c| c.load(Ordering::Acquire))
            || budget_exhausted.load(Ordering::Acquire)
        {
            emit_final_progress();
            return Err(FiError::Interrupted {
                completed: merged.len() as u64,
                total: run_count as u64,
            });
        }
        match &sampled {
            None => debug_assert_eq!(merged.len(), dense_expected),
            Some(s) => debug_assert_eq!(merged.len(), s.len()),
        }
        // Adaptive totals are deterministic facts of the finished plan: a
        // resumed campaign replays the same rounds and closes the same
        // strata, so these merge to the uninterrupted values just like the
        // `campaign.*` counters.
        if let (Some(p), Some(s)) = (&planner, &sampled) {
            ins.adaptive_batches.add(p.rounds());
            ins.adaptive_strata_closed.add(p.strata_closed() as u64);
            ins.adaptive_runs_saved
                .add(run_count.saturating_sub(s.len()) as u64);
        }
        emit_final_progress();

        // Assemble the result purely from the merged record set, in
        // coordinate order — the same bytes whether the records were just
        // executed, recovered from a journal, or any mix of the two.
        let _merge_span = obs.span("merge");
        let per_target = spec.injections_per_target();
        let mut outcomes = OutcomeTally::default();
        let mut completed_per_target = vec![0u64; targets.len()];
        let mut runs_per_target = vec![0u64; targets.len()];
        let mut errors: Vec<Vec<u64>> = targets
            .iter()
            .map(|t| vec![0u64; t.output_signals.len()])
            .collect();
        for (k, record) in &merged {
            let ti = (*k as usize) / per_target;
            runs_per_target[ti] += 1;
            outcomes.record(&record.outcome);
            if record.outcome.is_completed() {
                completed_per_target[ti] += 1;
                for (out_idx, div) in record.first_divergence.iter().enumerate() {
                    if div.is_some() {
                        errors[ti][out_idx] += 1;
                    }
                }
            }
        }
        if outcomes.quarantined_fraction() > self.config.max_quarantined_fraction {
            return Err(FiError::QuarantineThresholdExceeded {
                quarantined: outcomes.quarantined(),
                total: outcomes.total(),
                max_fraction: self.config.max_quarantined_fraction,
            });
        }

        let mut pairs = Vec::new();
        for (ti, target) in targets.iter().enumerate() {
            for (out_idx, out_name) in target.output_signals.iter().enumerate() {
                pairs.push(PairStat {
                    module: target.module_name.clone(),
                    input_signal: target.input_signal.clone(),
                    output_signal: out_name.clone(),
                    input: target.input_port,
                    output: out_idx,
                    // `n_inj` counts only runs that produced a comparison;
                    // equals `injections_per_target` when nothing was
                    // quarantined.
                    injections: completed_per_target[ti],
                    errors: errors[ti][out_idx],
                });
            }
        }
        let total_runs = merged.len() as u64;
        Ok(CampaignResult {
            pairs,
            records: if self.config.keep_records {
                merged.into_iter().map(|(_, r)| r).collect()
            } else {
                Vec::new()
            },
            golden_ticks,
            total_runs,
            runs_per_target,
            outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ErrorModel;
    use crate::spec::PortTarget;
    use permea_runtime::module::{ModuleCtx, SoftwareModule};
    use permea_runtime::scheduler::Schedule;
    use permea_runtime::signals::SignalBus;
    use permea_runtime::sim::{Environment, SimulationBuilder};

    /// Copies input to output; a second output stays constant (zero
    /// permeability) — a minimal system with known ground truth.
    struct CopyAndConst;
    impl SoftwareModule for CopyAndConst {
        fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
            let v = ctx.read(0);
            ctx.write(0, v);
            ctx.write(1, 42);
        }
    }

    struct RampEnv {
        sensor: permea_runtime::signals::SignalRef,
        limit: u64,
    }
    impl Environment for RampEnv {
        fn pre_tick(&mut self, now: SimTime, bus: &mut SignalBus) {
            bus.write(self.sensor, (now.as_millis() % 1000) as u16);
        }
        fn post_tick(&mut self, _: SimTime, _: &mut SignalBus) {}
        fn finished(&self, now: SimTime) -> bool {
            now.as_millis() >= self.limit
        }
    }

    fn build_sim(case: usize) -> Simulation {
        let mut b = SimulationBuilder::new();
        let sensor = b.define_signal("sensor");
        let out = b.define_signal("out");
        let konst = b.define_signal("konst");
        b.add_module(
            "COPY",
            Box::new(CopyAndConst),
            Schedule::every_ms(),
            &[sensor],
            &[out, konst],
        );
        let mut sim = b.build(Box::new(RampEnv {
            sensor,
            limit: 100 + case as u64,
        }));
        sim.enable_tracing_all();
        sim
    }

    fn factory() -> FnSystemFactory<fn(usize) -> Simulation> {
        FnSystemFactory::new(2, 10_000, build_sim as fn(usize) -> Simulation)
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            targets: vec![PortTarget::new("COPY", "sensor")],
            models: ErrorModel::all_bit_flips(),
            times_ms: vec![10, 50],
            cases: 2,
            scope: InjectionScope::Port,
            adaptive: None,
        }
    }

    #[test]
    fn golden_run_has_expected_length() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let g = c.golden(0).unwrap();
        assert_eq!(g.ticks, 100);
        let g1 = c.golden(1).unwrap();
        assert_eq!(g1.ticks, 101);
    }

    #[test]
    fn copy_module_has_full_permeability_on_copy_and_zero_on_const() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let res = c.run(&spec()).unwrap();
        let copy = res.pair("COPY", "sensor", "out").unwrap();
        assert_eq!(copy.injections, 16 * 2 * 2);
        assert_eq!(copy.estimate(), 1.0, "every flip reaches the copied output");
        let konst = res.pair("COPY", "sensor", "konst").unwrap();
        assert_eq!(konst.estimate(), 0.0, "constant output never diverges");
        assert_eq!(res.total_runs, 64);
        assert_eq!(res.records.len(), 64);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let f = factory();
        let seq = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .run(&spec())
        .unwrap();
        let par = Campaign::new(
            &f,
            CampaignConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .run(&spec())
        .unwrap();
        assert_eq!(
            seq, par,
            "campaigns must be deterministic regardless of threads"
        );
    }

    #[test]
    fn horizon_truncates_runs() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                horizon_ms: Some(30),
                ..Default::default()
            },
        );
        let g = c.golden(0).unwrap();
        assert_eq!(g.ticks, 30);
    }

    #[test]
    fn unknown_targets_are_rejected() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let mut s = spec();
        s.targets = vec![PortTarget::new("NOPE", "sensor")];
        assert_eq!(
            c.run(&s).unwrap_err(),
            FiError::UnknownModule("NOPE".into())
        );
        let mut s = spec();
        s.targets = vec![PortTarget::new("COPY", "nope")];
        assert!(matches!(
            c.run(&s).unwrap_err(),
            FiError::UnknownInputPort { .. }
        ));
    }

    #[test]
    fn signal_scope_also_corrupts() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let mut s = spec();
        s.scope = InjectionScope::Signal;
        let res = c.run(&s).unwrap();
        assert_eq!(res.pair("COPY", "sensor", "out").unwrap().estimate(), 1.0);
    }

    #[test]
    fn records_capture_injection_details() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let res = c.run(&spec()).unwrap();
        let r = &res.records[0];
        assert_eq!(r.module, "COPY");
        assert_eq!(r.corrupted_value, r.original_value ^ 1); // bit 0 first
        assert!(r.any_error());
        // The copied output diverges at the injection tick itself.
        assert_eq!(r.first_divergence[0], Some(r.time_ms as u32));
    }

    #[test]
    fn fast_forward_and_replay_agree_bit_for_bit() {
        let f = factory();
        let fast = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .run(&spec())
        .unwrap();
        let replay = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                fast_forward: false,
                ..Default::default()
            },
        )
        .run(&spec())
        .unwrap();
        assert_eq!(fast, replay, "fast-forward must not change any result bit");
    }

    #[test]
    fn golden_bundle_captures_fork_points_and_checkpoints() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let b = c.golden_bundle(0, &[10, 50]).unwrap();
        assert_eq!(b.run.ticks, 100);
        assert!(
            b.snapshot_at(10).is_some(),
            "fork point at each injection instant"
        );
        assert!(b.snapshot_at(50).is_some());
        assert_eq!(b.snapshot_at(10).unwrap().now().as_millis(), 10);
        // 100-tick run: no 250 ms cadence checkpoint fits.
        assert_eq!(b.snapshot_count(), 2);
        let bare = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                fast_forward: false,
                ..Default::default()
            },
        )
        .golden_bundle(0, &[10, 50])
        .unwrap();
        assert_eq!(bare.snapshot_count(), 0);
        assert_eq!(
            bare.run, b.run,
            "snapshot capture must not perturb the golden run"
        );
    }

    #[test]
    fn unreachable_instants_fail_validation() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        // Case 0's golden run is 100 ticks; an instant at its end can never
        // fire.
        let mut s = spec();
        s.times_ms = vec![10, 100];
        assert_eq!(
            c.run(&s).unwrap_err(),
            FiError::UnreachableInstant {
                time_ms: 100,
                limit_ms: 100,
                case: Some(0)
            }
        );
        // Against an explicit horizon the horizon wins the error message.
        let ch = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                horizon_ms: Some(40),
                ..Default::default()
            },
        );
        let mut s = spec();
        s.times_ms = vec![10, 50];
        assert_eq!(
            ch.run(&s).unwrap_err(),
            FiError::UnreachableInstant {
                time_ms: 50,
                limit_ms: 40,
                case: None
            }
        );
    }

    #[test]
    fn horizon_beyond_factory_cap_is_an_error() {
        // The scenario never finishes on its own within the cap, and the
        // configured horizon cannot be honoured either: refuse instead of
        // silently truncating at the cap.
        let f = FnSystemFactory::new(1, 50, build_sim as fn(usize) -> Simulation);
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                horizon_ms: Some(200),
                ..Default::default()
            },
        );
        assert_eq!(
            c.golden(0).unwrap_err(),
            FiError::HorizonExceedsCap {
                horizon_ms: 200,
                max_run_ms: 50
            }
        );
        // A horizon the cap can honour still truncates as configured.
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                horizon_ms: Some(40),
                ..Default::default()
            },
        );
        assert_eq!(c.golden(0).unwrap().ticks, 40);
    }

    /// Panics when its input exceeds a threshold — only corrupted runs die.
    struct Fragile;
    impl SoftwareModule for Fragile {
        fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
            let v = ctx.read(0);
            assert!(v < 0x4000, "fragile module crashed on corrupted input");
            ctx.write(0, v);
        }
    }

    fn fragile_sim(_case: usize) -> Simulation {
        let mut b = SimulationBuilder::new();
        let sensor = b.define_signal("sensor");
        let out = b.define_signal("out");
        b.add_module(
            "FRAGILE",
            Box::new(Fragile),
            Schedule::every_ms(),
            &[sensor],
            &[out],
        );
        let mut sim = b.build(Box::new(RampEnv { sensor, limit: 100 }));
        sim.enable_tracing_all();
        sim
    }

    fn fragile_spec() -> CampaignSpec {
        CampaignSpec {
            targets: vec![PortTarget::new("FRAGILE", "sensor")],
            models: vec![ErrorModel::BitFlip { bit: 15 }],
            times_ms: vec![10],
            cases: 1,
            scope: InjectionScope::Port,
            adaptive: None,
        }
    }

    #[test]
    fn panicking_run_is_quarantined_and_campaign_completes() {
        let f = FnSystemFactory::new(1, 10_000, fragile_sim as fn(usize) -> Simulation);
        for threads in [1, 4] {
            let c = Campaign::new(
                &f,
                CampaignConfig {
                    threads,
                    // Every run of this spec dies; accept that for the test.
                    max_quarantined_fraction: 1.0,
                    ..Default::default()
                },
            );
            let res = c.run(&fragile_spec()).unwrap();
            assert_eq!(res.total_runs, 1);
            assert_eq!(res.outcomes.panicked, 1);
            assert_eq!(res.outcomes.completed, 0);
            assert_eq!(res.records.len(), 1);
            match &res.records[0].outcome {
                RunOutcome::Panicked { message } => {
                    assert!(
                        message.contains("fragile module crashed"),
                        "panic message should be preserved, got: {message}"
                    );
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
            assert!(res.records[0].first_divergence.is_empty());
            // Quarantined runs are excluded from n_inj.
            assert_eq!(res.pair("FRAGILE", "sensor", "out").unwrap().injections, 0);
        }
    }

    #[test]
    fn systematic_breakage_exceeds_quarantine_threshold() {
        let f = FnSystemFactory::new(1, 10_000, fragile_sim as fn(usize) -> Simulation);
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        // 1 of 1 runs quarantined blows through the default 25 % ceiling.
        assert_eq!(
            c.run(&fragile_spec()).unwrap_err(),
            FiError::QuarantineThresholdExceeded {
                quarantined: 1,
                total: 1,
                max_fraction: 0.25,
            }
        );
    }

    /// Loops as many times as its input value says — an injected high bit
    /// turns the loop pathological and stalls the simulated clock.
    struct InputBoundedLoop;
    impl SoftwareModule for InputBoundedLoop {
        fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
            let v = ctx.read(0);
            let mut acc: u16 = 0;
            for _ in 0..v {
                ctx.work(1);
                acc = acc.wrapping_add(3);
            }
            ctx.write(0, acc);
        }
    }

    fn looping_sim(_case: usize) -> Simulation {
        let mut b = SimulationBuilder::new();
        let sensor = b.define_signal("sensor");
        let out = b.define_signal("out");
        b.add_module(
            "LOOPER",
            Box::new(InputBoundedLoop),
            Schedule::every_ms(),
            &[sensor],
            &[out],
        );
        let mut sim = b.build(Box::new(RampEnv { sensor, limit: 100 }));
        sim.enable_tracing_all();
        sim
    }

    #[test]
    fn hanging_run_is_quarantined_as_hung() {
        let f = FnSystemFactory::new(1, 10_000, looping_sim as fn(usize) -> Simulation);
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                // Golden runs do < 100 units/tick; a bit-15 flip forces
                // ≥ 32 768 and must trip.
                watchdog: Some(WatchdogConfig {
                    max_work_per_tick: Some(4_096),
                    max_wall_ms: None,
                }),
                max_quarantined_fraction: 1.0,
                ..Default::default()
            },
        );
        let s = CampaignSpec {
            targets: vec![PortTarget::new("LOOPER", "sensor")],
            models: vec![ErrorModel::BitFlip { bit: 15 }],
            times_ms: vec![10],
            cases: 1,
            scope: InjectionScope::Port,
            adaptive: None,
        };
        let res = c.run(&s).unwrap();
        assert_eq!(res.outcomes.hung, 1);
        assert_eq!(
            res.records[0].outcome,
            RunOutcome::Hung { last_tick_ms: 10 },
            "the clock stalled at the injection instant"
        );
        // Without a work budget the same run must complete: the loop is
        // long, not unbounded.
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                watchdog: None,
                ..Default::default()
            },
        );
        let res = c.run(&s).unwrap();
        assert_eq!(res.outcomes.hung, 0);
        assert_eq!(res.outcomes.completed, 1);
    }

    #[test]
    fn untraced_factory_is_a_typed_error() {
        fn untraced(_case: usize) -> Simulation {
            let mut b = SimulationBuilder::new();
            let sensor = b.define_signal("sensor");
            let out = b.define_signal("out");
            let konst = b.define_signal("konst");
            b.add_module(
                "COPY",
                Box::new(CopyAndConst),
                Schedule::every_ms(),
                &[sensor],
                &[out, konst],
            );
            b.build(Box::new(RampEnv { sensor, limit: 100 }))
        }
        let f = FnSystemFactory::new(1, 10_000, untraced as fn(usize) -> Simulation);
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            c.golden(0).unwrap_err(),
            FiError::TracingDisabled { case: 0 }
        );
        let mut s = spec();
        s.cases = 1;
        assert_eq!(c.run(&s).unwrap_err(), FiError::TracingDisabled { case: 0 });
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("permea-campaign-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    #[test]
    fn journaled_campaign_matches_plain_run() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = c.run(&spec()).unwrap();

        let path = journal_path("full");
        let _ = std::fs::remove_file(&path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        let journaled = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(journaled, baseline);
        assert_eq!(j.len(), spec().run_count());

        // A second pass over the now-complete journal re-executes nothing
        // and still reproduces the result bit for bit.
        let (mut j, loaded) = RunJournal::open_or_create(&path, &header).unwrap();
        assert_eq!(loaded.recovered, spec().run_count());
        let resumed = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn sharded_journals_merge_to_the_unsharded_journal() {
        let f = factory();
        let unsharded = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = unsharded.run(&spec()).unwrap();
        let full_path = journal_path("shard-full");
        let _ = std::fs::remove_file(&full_path);
        let header = unsharded.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&full_path, &header).unwrap();
        unsharded
            .run_resumable(&spec(), Some(&mut j), None)
            .unwrap();
        j.sync().unwrap();
        drop(j);

        // Each shard runs its slice into its own journal; shard totals
        // partition the grid.
        let mut shard_paths = Vec::new();
        for i in 0..2 {
            let c = Campaign::new(
                &f,
                CampaignConfig {
                    threads: 1,
                    shard: Some(Shard::new(i, 2).unwrap()),
                    ..Default::default()
                },
            );
            let path = journal_path(&format!("shard-{i}"));
            let _ = std::fs::remove_file(&path);
            let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
            let partial = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
            assert_eq!(
                partial.total_runs,
                Shard::new(i, 2).unwrap().len(spec().run_count() as u64),
                "shard {i} must run exactly its slice"
            );
            j.sync().unwrap();
            drop(j);
            shard_paths.push(path);
        }

        let merged_path = journal_path("shard-merged");
        let _ = std::fs::remove_file(&merged_path);
        let summary = crate::journal::merge_journals(&merged_path, &shard_paths).unwrap();
        assert_eq!(summary.records, spec().run_count());
        assert_eq!(
            std::fs::read(&merged_path).unwrap(),
            std::fs::read(&full_path).unwrap(),
            "merged shard journals must be byte-identical to the unsharded journal"
        );

        // The merged journal resumes the unsharded campaign: nothing
        // re-executes and the result is bit-identical.
        let (mut j, loaded) = RunJournal::open_or_create(&merged_path, &header).unwrap();
        assert_eq!(loaded.recovered, spec().run_count());
        let resumed = unsharded
            .run_resumable(&spec(), Some(&mut j), None)
            .unwrap();
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn resume_after_truncation_is_byte_identical() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = c.run(&spec()).unwrap();

        let path = journal_path("truncated");
        let _ = std::fs::remove_file(&path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        drop(j);

        // Chop the journal mid-way — keep the header plus 20 records and a
        // torn half-line, as a kill -9 would leave it.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut kept: String = lines[..21].join("\n");
        kept.push('\n');
        kept.push_str(&lines[21][..lines[21].len() / 2]);
        std::fs::write(&path, kept).unwrap();

        let (mut j, loaded) = RunJournal::open_or_create(&path, &header).unwrap();
        assert_eq!(loaded.recovered, 20);
        assert!(loaded.truncated_tail);
        let resumed = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(resumed, baseline, "resume must be byte-identical");
    }

    #[test]
    fn cancelled_campaign_reports_interrupted_and_resumes() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = c.run(&spec()).unwrap();

        let path = journal_path("cancelled");
        let _ = std::fs::remove_file(&path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        let cancel = AtomicBool::new(true); // raised before any run starts
        assert_eq!(
            c.run_resumable(&spec(), Some(&mut j), Some(&cancel))
                .unwrap_err(),
            FiError::Interrupted {
                completed: 0,
                total: spec().run_count() as u64,
            }
        );
        drop(j);

        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        let resumed = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn budgeted_slices_converge_to_the_unbudgeted_result() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = c.run(&spec()).unwrap();
        let total = spec().run_count() as u64;

        // Reference journal: one unbudgeted journaled run.
        let full_path = journal_path("budget-full");
        let _ = std::fs::remove_file(&full_path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&full_path, &header).unwrap();
        c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        j.sync().unwrap();
        drop(j);

        // The same campaign in slices of 10 new runs per invocation: every
        // slice but the last reports Interrupted, and the union converges
        // to the identical result and the identical journal bytes.
        let path = journal_path("budget-sliced");
        let _ = std::fs::remove_file(&path);
        let mut slices = 0u64;
        let result = loop {
            slices += 1;
            assert!(slices <= total, "budgeted loop failed to converge");
            let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
            match c.run_resumable_budgeted(&spec(), Some(&mut j), None, Some(10)) {
                Ok(result) => break result,
                Err(FiError::Interrupted {
                    completed,
                    total: t,
                }) => {
                    assert_eq!(t, total);
                    assert!(completed < total, "interrupted slice must be partial");
                }
                Err(e) => panic!("unexpected slice failure: {e:?}"),
            }
        };
        assert_eq!(result, baseline);
        assert_eq!(slices, total.div_ceil(10), "64 runs in 10-run slices");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&full_path).unwrap(),
            "sliced journal must be byte-identical to the unbudgeted journal"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&full_path);
    }

    #[test]
    fn zero_budget_interrupts_without_issuing_work() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            c.run_resumable_budgeted(&spec(), None, None, Some(0))
                .unwrap_err(),
            FiError::Interrupted {
                completed: 0,
                total: spec().run_count() as u64,
            }
        );
    }

    #[test]
    fn keep_records_false_drops_details() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                keep_records: false,
                ..Default::default()
            },
        );
        let res = c.run(&spec()).unwrap();
        assert!(res.records.is_empty());
        assert_eq!(res.pairs.len(), 2);
    }

    #[test]
    fn zero_fsync_interval_is_rejected() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                journal_fsync_interval: 0,
                ..Default::default()
            },
        );
        assert_eq!(c.run(&spec()).unwrap_err(), FiError::InvalidFsyncInterval);
    }

    /// Arms a time bomb: an injected high bit does not stall the module at
    /// the injection tick — it schedules an unbounded loop five ticks later.
    /// Distinguishes "hung at the injection instant" from "hung where the
    /// clock actually stopped".
    struct DelayedStall {
        stall_at: Option<u64>,
    }
    impl SoftwareModule for DelayedStall {
        fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
            let v = ctx.read(0);
            let now = ctx.now().as_millis();
            if self.stall_at.is_none() && v >= 0x8000 {
                self.stall_at = Some(now + 5);
            }
            if self.stall_at == Some(now) {
                loop {
                    ctx.work(1);
                }
            }
            ctx.write(0, v.wrapping_add(1));
        }
        fn reset(&mut self) {
            self.stall_at = None;
        }
        fn save_state(&self) -> Vec<u8> {
            let mut w = permea_runtime::state::StateWriter::new();
            w.put_bool(self.stall_at.is_some());
            w.put_u64(self.stall_at.unwrap_or(0));
            w.finish()
        }
        fn load_state(&mut self, state: &[u8]) {
            let mut r = permea_runtime::state::StateReader::new(state);
            let armed = r.bool();
            let at = r.u64();
            r.finish();
            self.stall_at = armed.then_some(at);
        }
    }

    fn delayed_stall_sim(_case: usize) -> Simulation {
        let mut b = SimulationBuilder::new();
        let sensor = b.define_signal("sensor");
        let out = b.define_signal("out");
        b.add_module(
            "BOMB",
            Box::new(DelayedStall { stall_at: None }),
            Schedule::every_ms(),
            &[sensor],
            &[out],
        );
        let mut sim = b.build(Box::new(RampEnv { sensor, limit: 100 }));
        sim.enable_tracing_all();
        sim
    }

    #[test]
    fn hung_outcome_records_the_watchdogs_last_observed_tick() {
        let f = FnSystemFactory::new(1, 10_000, delayed_stall_sim as fn(usize) -> Simulation);
        let s = CampaignSpec {
            targets: vec![PortTarget::new("BOMB", "sensor")],
            models: vec![ErrorModel::BitFlip { bit: 15 }],
            times_ms: vec![10],
            cases: 1,
            scope: InjectionScope::Port,
            adaptive: None,
        };
        for fast_forward in [true, false] {
            let c = Campaign::new(
                &f,
                CampaignConfig {
                    threads: 1,
                    fast_forward,
                    watchdog: Some(WatchdogConfig {
                        max_work_per_tick: Some(4_096),
                        max_wall_ms: None,
                    }),
                    max_quarantined_fraction: 1.0,
                    ..Default::default()
                },
            );
            let res = c.run(&s).unwrap();
            assert_eq!(res.outcomes.hung, 1);
            assert_eq!(
                res.records[0].outcome,
                RunOutcome::Hung { last_tick_ms: 15 },
                "the clock stalled 5 ticks after the injection at 10 \
                 (fast_forward = {fast_forward})"
            );
        }
    }

    #[test]
    fn telemetry_counters_match_campaign_facts() {
        let f = factory();
        let obs = Obs::with_sinks(Vec::new());
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .with_obs(obs.clone());
        let res = c.run(&spec()).unwrap();
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("campaign.runs_total"), Some(64));
        assert_eq!(snap.counter("campaign.runs_completed"), Some(64));
        assert_eq!(snap.counter("campaign.golden_runs"), Some(2));
        assert_eq!(
            snap.counter("campaign.golden_ticks"),
            Some(res.golden_ticks.iter().sum::<u64>())
        );
        // Every injection instant has a fork snapshot, so every run forks.
        assert_eq!(snap.counter("campaign.ff_forked"), Some(64));
        assert!(snap.counter("campaign.snapshots").unwrap() > 0);
        assert_eq!(snap.counter("process.runs_executed"), Some(64));
        assert_eq!(snap.counter("process.runs_recovered"), Some(0));
        assert_eq!(
            snap.histograms.get("process.run_micros").map(|h| h.count),
            Some(64)
        );
        assert!(snap.spans.contains_key("campaign"));
        assert!(snap.spans.contains_key("golden"));
    }

    #[test]
    fn resumed_campaign_merges_metrics_to_uninterrupted_totals() {
        let f = factory();
        let obs_full = Obs::with_sinks(Vec::new());
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .with_obs(obs_full.clone());
        let baseline = c.run(&spec()).unwrap();
        let full_snapshot = obs_full.snapshot().unwrap();
        let full = full_snapshot.campaign_section();

        // Journal a complete campaign, then chop it to 20 records as an
        // interruption would have left it.
        let path = journal_path("metrics-merge");
        let _ = std::fs::remove_file(&path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .run_resumable(&spec(), Some(&mut j), None)
        .unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut kept = lines[..21].join("\n");
        kept.push('\n');
        std::fs::write(&path, kept).unwrap();

        let obs_resumed = Obs::with_sinks(Vec::new());
        let c2 = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .with_obs(obs_resumed.clone());
        let (mut j, loaded) = RunJournal::open_or_create(&path, &header).unwrap();
        assert_eq!(loaded.recovered, 20);
        let resumed = c2.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(resumed, baseline);

        let snap = obs_resumed.snapshot().unwrap();
        assert_eq!(
            snap.campaign_section(),
            full,
            "deterministic campaign.* totals must merge to the uninterrupted values"
        );
        // ... while the process-local view shows the split honestly.
        assert_eq!(snap.counter("process.runs_executed"), Some(44));
        assert_eq!(snap.counter("process.runs_recovered"), Some(20));
    }

    /// Records every progress event's sink clock / campaign clock pair and
    /// optionally raises a cancel flag after a fixed number of them.
    #[derive(Debug)]
    struct TimelineSink {
        /// `(t_us, elapsed_micros, finished)` per progress event.
        points: Mutex<Vec<(u64, u64, bool)>>,
        cancel_after: Option<(usize, Arc<AtomicBool>)>,
    }
    impl permea_obs::Sink for TimelineSink {
        fn event(&self, now_micros: u64, event: &permea_obs::Event<'_>) {
            if let permea_obs::Event::Progress(p) = event {
                let mut pts = self.points.lock().unwrap();
                pts.push((now_micros, p.elapsed_micros, p.finished));
                if let Some((after, flag)) = &self.cancel_after {
                    if pts.len() >= *after {
                        flag.store(true, Ordering::Release);
                    }
                }
            }
        }
    }

    /// Regression for the resumed-campaign timeline: progress events must
    /// carry *campaign-relative* timestamps (each session restarting at
    /// zero), not the telemetry handle's epoch clock — the epoch starts at
    /// handle creation and would fold per-process setup time into the
    /// timeline, breaking contiguous stitching of kill/resume sessions.
    #[test]
    fn timeline_events_are_campaign_relative_across_kill_and_resume() {
        // Deliberate gap between telemetry-handle creation and campaign
        // start. An event stamped with the epoch clock carries this gap;
        // a campaign-relative one does not.
        const SETUP_GAP: Duration = Duration::from_millis(50);
        const MIN_GAP_MICROS: u64 = 40_000;

        let f = factory();
        let path = journal_path("timeline-resume");
        let _ = std::fs::remove_file(&path);
        let header = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .journal_header(&spec());

        let run_session = |cancel_after: Option<usize>| {
            let cancel = Arc::new(AtomicBool::new(false));
            let sink = Arc::new(TimelineSink {
                points: Mutex::new(Vec::new()),
                cancel_after: cancel_after.map(|n| (n, cancel.clone())),
            });
            let obs = Obs::with_sinks(vec![sink.clone()]);
            std::thread::sleep(SETUP_GAP);
            let c = Campaign::new(
                &f,
                CampaignConfig {
                    threads: 1,
                    ..Default::default()
                },
            )
            .with_obs(obs);
            let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
            let result = c.run_resumable(&spec(), Some(&mut j), Some(&cancel));
            let points = sink.points.lock().unwrap().clone();
            (points, result)
        };

        let assert_session = |points: &[(u64, u64, bool)], label: &str| {
            assert!(!points.is_empty(), "{label}: no progress events");
            let mut prev = 0u64;
            for &(t_us, elapsed, _) in points {
                assert!(
                    t_us >= elapsed + MIN_GAP_MICROS,
                    "{label}: elapsed_micros {elapsed} is epoch-relative \
                     (sink clock {t_us})"
                );
                assert!(
                    elapsed >= prev,
                    "{label}: campaign clock went backwards ({prev} -> {elapsed})"
                );
                prev = elapsed;
            }
        };

        // Session 1: killed after 20 progress events.
        let (first, result) = run_session(Some(20));
        assert!(
            matches!(result, Err(FiError::Interrupted { .. })),
            "session 1 should be interrupted, got {result:?}"
        );
        assert_session(&first, "session 1");

        // Session 2: resumes the journal and finishes. Its campaign clock
        // restarts at zero — still bounded away from the epoch clock.
        let (second, result) = run_session(None);
        result.expect("resume completes");
        assert_session(&second, "session 2");
        assert!(
            second.last().is_some_and(|&(_, _, finished)| finished),
            "resumed session must emit the final progress event"
        );
        let _ = std::fs::remove_file(&path);
    }
}

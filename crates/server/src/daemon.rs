//! The campaign daemon: socket listener, executor slots, supervision.
//!
//! Structure:
//!
//! * One **listener thread** blocks in `accept()` on the Unix socket and
//!   spawns a short-lived handler thread per connection. At shutdown the
//!   daemon wakes it by connecting to its own socket.
//! * `slots` **executor threads** pull campaign slices from the fair-share
//!   [`crate::scheduler::Scheduler`] and run them through the configured
//!   [`crate::runner::CampaignRunner`]. A slice panic is caught, not
//!   fatal: the campaign retries (up to a fault budget), and a slot that
//!   keeps panicking *retires* instead of taking the daemon down — the
//!   survivors keep scheduling and the `status` verb reports
//!   `degraded: true`.
//! * The **write-ahead ledger** records every admission before the client
//!   is acknowledged and every terminal transition when it happens, so a
//!   SIGKILLed daemon restarts into exactly the committed state and
//!   resumes open campaigns from their per-campaign run journals.
//!
//! Shutdown comes in two proven-equivalent flavours:
//!
//! * **Graceful drain** (SIGTERM via the host binary, or the `Shutdown`
//!   verb): stop admitting, stop dispatching, let in-flight slices finish,
//!   flush ledger + metrics + telemetry, remove the socket, exit 0.
//!   Unfinished campaigns stay open in the ledger and resume on restart.
//! * **Hard kill** (SIGKILL): nothing runs, but the ledger's write-ahead
//!   invariant plus the run journals' torn-tail handling mean a restart
//!   reaches the same final state byte-for-byte — the chaos smoke proves
//!   it by hashing result artifacts.
//!
//! Nothing a request waits on polls. Every campaign state transition
//! happens under the state mutex and notifies the state condvar while
//! holding it, which wakes idle slots, watch streams and the drain. The
//! only timed wait is [`Daemon::run`] reading the host's signal latch,
//! because a signal handler can do no more than store an atomic.
//!
//! Lock ordering: the daemon state mutex is taken before the ledger
//! mutex, never the other way around.

use crate::error::ServerError;
use crate::ledger::{Ledger, LedgerRecord};
use crate::protocol::{
    read_message, write_message, CampaignState, CampaignStatus, RejectReason, Request, Response,
    ServerStatus, PROTOCOL_VERSION,
};
use crate::quota::QuotaConfig;
use crate::runner::{CampaignRunner, SliceOutcome, SliceRequest};
use crate::scheduler::Scheduler;
use permea_fi::chaos::ChaosInjector;
use permea_obs::{Event, Obs};
use std::collections::BTreeMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often [`Daemon::run`] reads the host's signal latch. The
/// `Shutdown` verb does not wait for it: a drain notifies the state
/// condvar.
const SIGNAL_LATCH_INTERVAL: Duration = Duration::from_millis(50);

/// Pause after a failed `accept()`, so a persistent error (descriptor
/// exhaustion) does not spin the listener.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Consecutive slice panics before a campaign is declared failed.
const CAMPAIGN_FAULT_BUDGET: u32 = 3;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path to listen on. A stale file from a killed daemon
    /// is removed at startup.
    pub socket: PathBuf,
    /// State directory: holds `ledger.jsonl`, `metrics.json` and one
    /// `campaigns/<id>/` directory per campaign.
    pub state_dir: PathBuf,
    /// Executor slots (concurrent slices).
    pub slots: usize,
    /// Slice budget: new runs per dispatch. `None` disables slicing.
    pub slice_runs: Option<u64>,
    /// Admission-control and fair-share limits.
    pub quota: QuotaConfig,
    /// Slice panics one slot tolerates before retiring.
    pub slot_failure_budget: u32,
    /// Optional chaos injector (ledger-write and client-disconnect
    /// faults).
    pub chaos: Option<Arc<ChaosInjector>>,
}

impl ServerConfig {
    /// A config with production defaults rooted at `state_dir`, listening
    /// on `state_dir/permea.sock`.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServerConfig {
        let state_dir = state_dir.into();
        ServerConfig {
            socket: state_dir.join("permea.sock"),
            state_dir,
            slots: 2,
            slice_runs: Some(64),
            quota: QuotaConfig::default(),
            slot_failure_budget: 2,
            chaos: None,
        }
    }
}

struct CampaignMeta {
    tenant: String,
    payload: String,
    state: CampaignState,
    detail: String,
    cancel: Arc<AtomicBool>,
    faults: u32,
}

struct DaemonState {
    scheduler: Scheduler,
    campaigns: BTreeMap<u64, CampaignMeta>,
    next_id: u64,
    /// Slices currently executing on a slot.
    dispatched: usize,
}

struct Shared {
    config: ServerConfig,
    runner: Arc<dyn CampaignRunner>,
    obs: Obs,
    state: Mutex<DaemonState>,
    cv: Condvar,
    ledger: Mutex<Ledger>,
    /// Set by drain: no new admissions, no new dispatches.
    draining: AtomicBool,
    /// Set after the drain completes: every thread exits.
    shutdown: AtomicBool,
    slots_healthy: AtomicUsize,
}

impl Shared {
    fn emit_service(&self, tenant: &str, campaign: u64, kind: &str, detail: &str) {
        self.obs.emit(&Event::Service {
            tenant,
            campaign,
            kind,
            detail,
        });
    }

    fn campaign_dir(&self, id: u64) -> PathBuf {
        self.config.state_dir.join("campaigns").join(id.to_string())
    }

    /// Records a terminal transition: ledger first, then counters and the
    /// service event. Caller holds the state lock and has already updated
    /// the campaign meta.
    fn record_closed(&self, id: u64, tenant: &str, state: CampaignState, detail: &str) {
        let closed = LedgerRecord::Closed {
            id,
            state,
            detail: detail.to_string(),
        };
        if let Err(e) = self.ledger.lock().expect("ledger lock").append(&closed) {
            // The transition stays in memory; a restart will re-run the
            // campaign's tail, which the run journal makes idempotent.
            self.obs
                .error(format!("recording campaign {id} close: {e}"));
        }
        let kind = state.label();
        self.obs
            .counter(match state {
                CampaignState::Completed => "server.campaigns_completed",
                CampaignState::Failed => "server.campaigns_failed",
                _ => "server.campaigns_cancelled",
            })
            .inc();
        self.emit_service(tenant, id, kind, detail);
    }

    fn begin_drain(&self, why: &str) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            self.obs.info(format!("draining: {why}"));
            self.emit_service("", 0, "draining", why);
        }
        // Notify under the lock: a waiter between its `draining` check and
        // its `wait` would otherwise miss the flag.
        let _st = self.state.lock().expect("state lock");
        self.cv.notify_all();
    }
}

/// A running daemon. Dropping it without [`Daemon::run`] leaks threads;
/// hosts are expected to call `run` (or `finish` from tests).
pub struct Daemon {
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    slots: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Opens (or recovers) the state directory, replays the submission
    /// ledger, binds the socket and spawns the listener and executor
    /// threads. Campaigns the previous daemon left open are re-queued and
    /// resume from their run journals.
    ///
    /// # Errors
    ///
    /// [`ServerError`] when the state directory, ledger or socket cannot
    /// be set up.
    pub fn start(
        config: ServerConfig,
        runner: Arc<dyn CampaignRunner>,
        obs: Obs,
    ) -> Result<Daemon, ServerError> {
        std::fs::create_dir_all(config.state_dir.join("campaigns"))
            .map_err(|e| ServerError::io("creating state directory", e))?;

        let (mut ledger, replayed, next_id) = Ledger::open(&config.state_dir.join("ledger.jsonl"))?;
        if let Some(chaos) = &config.chaos {
            ledger.set_chaos(Arc::clone(chaos));
        }

        let mut state = DaemonState {
            scheduler: Scheduler::new(),
            campaigns: BTreeMap::new(),
            next_id,
            dispatched: 0,
        };
        let recovered = obs.counter("server.campaigns_recovered");
        for c in replayed {
            let terminal = c.closed.is_some();
            let (cstate, detail) = c.closed.unwrap_or((CampaignState::Queued, String::new()));
            if !terminal {
                state.scheduler.enqueue(&c.tenant, c.id);
                recovered.inc();
                obs.emit(&Event::Service {
                    tenant: &c.tenant,
                    campaign: c.id,
                    kind: "recovered",
                    detail: "re-queued from ledger replay",
                });
            }
            state.campaigns.insert(
                c.id,
                CampaignMeta {
                    tenant: c.tenant,
                    payload: c.payload,
                    state: cstate,
                    detail,
                    cancel: Arc::new(AtomicBool::new(false)),
                    faults: 0,
                },
            );
        }

        // A stale socket file from a SIGKILLed daemon blocks bind.
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)
                .map_err(|e| ServerError::io("removing stale socket", e))?;
        }
        let listener =
            UnixListener::bind(&config.socket).map_err(|e| ServerError::io("binding socket", e))?;

        let slots = config.slots.max(1);
        let shared = Arc::new(Shared {
            config,
            runner,
            obs,
            state: Mutex::new(state),
            cv: Condvar::new(),
            ledger: Mutex::new(ledger),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            slots_healthy: AtomicUsize::new(slots),
        });

        let mut slot_handles = Vec::with_capacity(slots);
        for slot_index in 0..slots {
            let shared = Arc::clone(&shared);
            slot_handles.push(
                std::thread::Builder::new()
                    .name(format!("permea-slot-{slot_index}"))
                    .spawn(move || slot_loop(&shared))
                    .map_err(|e| ServerError::io("spawning slot thread", e))?,
            );
        }
        let listener_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("permea-listener".into())
                .spawn(move || listener_loop(&listener, &shared))
                .map_err(|e| ServerError::io("spawning listener thread", e))?
        };

        shared.obs.info(format!(
            "daemon listening on {} with {slots} slots",
            shared.config.socket.display()
        ));
        Ok(Daemon {
            shared,
            listener: Some(listener_handle),
            slots: slot_handles,
        })
    }

    /// The socket this daemon listens on.
    pub fn socket(&self) -> &std::path::Path {
        &self.shared.config.socket
    }

    /// Starts a graceful drain (idempotent): stop admitting, stop
    /// dispatching, let in-flight slices finish.
    pub fn request_drain(&self) {
        self.shared.begin_drain("drain requested");
    }

    /// Serves until `stop` is set (the host's signal latch) or a client
    /// sends the `Shutdown` verb, then drains gracefully: in-flight
    /// slices finish, the ledger and telemetry flush, metrics snapshot to
    /// `state_dir/metrics.json`, the socket file is removed.
    ///
    /// # Errors
    ///
    /// [`ServerError`] when the final flushes fail.
    pub fn run(self, stop: &AtomicBool) -> Result<(), ServerError> {
        let signalled = {
            let mut st = self.shared.state.lock().expect("state lock");
            loop {
                if self.shared.draining.load(Ordering::Acquire) {
                    break false;
                }
                if stop.load(Ordering::Acquire) {
                    break true;
                }
                st = self
                    .shared
                    .cv
                    .wait_timeout(st, SIGNAL_LATCH_INTERVAL)
                    .expect("state lock")
                    .0;
            }
        };
        if signalled {
            self.shared.begin_drain("signal");
        }
        self.finish()
    }

    /// Completes a drain already requested: waits for in-flight slices,
    /// stops every thread, flushes ledger + metrics + telemetry and
    /// removes the socket.
    ///
    /// # Errors
    ///
    /// [`ServerError`] when the final flushes fail.
    pub fn finish(mut self) -> Result<(), ServerError> {
        self.shared.begin_drain("finish");
        {
            let mut st = self.shared.state.lock().expect("state lock");
            while st.dispatched > 0 {
                st = self.shared.cv.wait(st).expect("state lock");
            }
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.cv.notify_all();
        }
        for handle in self.slots.drain(..) {
            let _ = handle.join();
        }
        // The listener is blocked in `accept()`: a connection of our own
        // wakes it to see `shutdown`. If that connection cannot be made
        // (the socket file is gone) the listener would never return, so it
        // is left detached rather than joined.
        if let Some(handle) = self.listener.take() {
            if let Ok(_wake) = UnixStream::connect(&self.shared.config.socket) {
                let _ = handle.join();
            }
        }
        let _ = std::fs::remove_file(&self.shared.config.socket);

        self.shared.ledger.lock().expect("ledger lock").sync()?;
        if let Some(snapshot) = self.shared.obs.snapshot() {
            let path = self.shared.config.state_dir.join("metrics.json");
            std::fs::write(&path, snapshot.to_json_pretty())
                .map_err(|e| ServerError::io("writing metrics snapshot", e))?;
        }
        self.shared.obs.info("drain complete");
        self.shared.obs.flush();
        Ok(())
    }
}

/// One dispatch pulled from the scheduler.
struct Job {
    id: u64,
    tenant: String,
    payload: String,
    cancel: Arc<AtomicBool>,
}

/// Claims the next eligible slice under the state lock, transitioning the
/// campaign to `Running`. Cancelled-but-still-queued campaigns are closed
/// here rather than dispatched. Returns `None` when the daemon is
/// shutting down.
fn claim_job(shared: &Shared) -> Option<Job> {
    let mut guard = shared.state.lock().expect("state lock");
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if !shared.draining.load(Ordering::Acquire) {
            // Reborrow the guard once so disjoint-field borrows
            // (scheduler vs campaigns) are visible to the checker.
            let st = &mut *guard;
            while let Some((tenant, id)) = st.scheduler.next(&shared.config.quota) {
                let Some(meta) = st.campaigns.get_mut(&id) else {
                    st.scheduler.release(&tenant);
                    continue;
                };
                if meta.cancel.load(Ordering::Acquire) {
                    meta.state = CampaignState::Cancelled;
                    meta.detail = "cancelled while queued".into();
                    st.scheduler.release(&tenant);
                    shared.record_closed(id, &tenant, CampaignState::Cancelled, "while queued");
                    shared.cv.notify_all();
                    continue;
                }
                meta.state = CampaignState::Running;
                shared.cv.notify_all();
                let job = Job {
                    id,
                    tenant,
                    payload: meta.payload.clone(),
                    cancel: Arc::clone(&meta.cancel),
                };
                st.dispatched += 1;
                return Some(job);
            }
        }
        guard = shared.cv.wait(guard).expect("state lock");
    }
}

/// Executor slot: claim, run, settle — until shutdown or this slot's
/// panic budget retires it.
fn slot_loop(shared: &Shared) {
    let slices = shared.obs.counter("server.slices_dispatched");
    let panics = shared.obs.counter("server.slice_panics");
    let mut failure_budget = shared.config.slot_failure_budget;
    while let Some(job) = claim_job(shared) {
        let dir = shared.campaign_dir(job.id);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            settle(
                shared,
                &job,
                SliceOutcome::Failed {
                    message: format!("creating campaign directory: {e}"),
                },
            );
            continue;
        }
        slices.inc();
        let request = SliceRequest {
            id: job.id,
            tenant: &job.tenant,
            payload: &job.payload,
            dir: &dir,
            slice_runs: shared.config.slice_runs,
            cancel: &job.cancel,
            obs: &shared.obs,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.runner.run_slice(&request)
        }));
        match outcome {
            Ok(outcome) => settle(shared, &job, outcome),
            Err(_) => {
                panics.inc();
                settle_panic(shared, &job);
                failure_budget = failure_budget.saturating_sub(1);
                if failure_budget == 0 {
                    let left = shared.slots_healthy.fetch_sub(1, Ordering::AcqRel) - 1;
                    shared.obs.warn(format!(
                        "executor slot retired after repeated slice panics ({left} healthy)"
                    ));
                    shared.emit_service("", 0, "degraded", "executor slot retired");
                    shared.obs.counter("server.slots_retired").inc();
                    return;
                }
            }
        }
    }
}

/// Applies a slice outcome under the state lock.
fn settle(shared: &Shared, job: &Job, outcome: SliceOutcome) {
    let mut guard = shared.state.lock().expect("state lock");
    let st = &mut *guard;
    st.dispatched -= 1;
    let draining = shared.draining.load(Ordering::Acquire);
    if let Some(meta) = st.campaigns.get_mut(&job.id) {
        match outcome {
            SliceOutcome::Finished => {
                meta.state = CampaignState::Completed;
                meta.faults = 0;
                st.scheduler.release(&job.tenant);
                shared.record_closed(job.id, &job.tenant, CampaignState::Completed, "");
            }
            SliceOutcome::Yielded => {
                // More work left. While draining the campaign stays open
                // in the ledger (no Closed record) and resumes on the
                // next daemon start; otherwise it re-queues behind its
                // tenant's waiting siblings.
                meta.faults = 0;
                if draining {
                    st.scheduler.release(&job.tenant);
                    meta.state = CampaignState::Queued;
                    meta.detail = "parked by drain".into();
                } else {
                    st.scheduler.yield_back(&job.tenant, job.id);
                    shared.emit_service(&job.tenant, job.id, "sliced", "budget exhausted");
                }
            }
            SliceOutcome::Cancelled => {
                meta.state = CampaignState::Cancelled;
                meta.detail = "cancelled mid-run".into();
                st.scheduler.release(&job.tenant);
                shared.record_closed(job.id, &job.tenant, CampaignState::Cancelled, "mid-run");
            }
            SliceOutcome::Failed { message } => {
                meta.state = CampaignState::Failed;
                meta.detail = message.clone();
                st.scheduler.release(&job.tenant);
                shared.record_closed(job.id, &job.tenant, CampaignState::Failed, &message);
            }
        }
    } else {
        st.scheduler.release(&job.tenant);
    }
    shared.cv.notify_all();
}

/// Applies a slice *panic*: the campaign retries until its fault budget
/// is spent, then fails.
fn settle_panic(shared: &Shared, job: &Job) {
    let mut guard = shared.state.lock().expect("state lock");
    let st = &mut *guard;
    st.dispatched -= 1;
    if let Some(meta) = st.campaigns.get_mut(&job.id) {
        meta.faults += 1;
        if meta.faults >= CAMPAIGN_FAULT_BUDGET {
            meta.state = CampaignState::Failed;
            meta.detail = format!("slice panicked {} times", meta.faults);
            st.scheduler.release(&job.tenant);
            shared.record_closed(
                job.id,
                &job.tenant,
                CampaignState::Failed,
                "slice panic budget exhausted",
            );
        } else {
            st.scheduler.yield_back(&job.tenant, job.id);
            shared.emit_service(&job.tenant, job.id, "failed", "slice panicked; will retry");
        }
    } else {
        st.scheduler.release(&job.tenant);
    }
    shared.cv.notify_all();
}

/// Accept loop: blocks in `accept()` and spawns one short-lived thread per
/// connection. [`Daemon::finish`] sets `shutdown` and then connects to the
/// socket itself; the check right after each accept ends the loop, so that
/// wake-up connection is neither chaos-dropped nor counted.
fn listener_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    let accepted = shared.obs.counter("server.connections_accepted");
    loop {
        let connection = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match connection {
            Ok((stream, _addr)) => {
                if shared
                    .config
                    .chaos
                    .as_ref()
                    .is_some_and(|c| c.on_client_accept())
                {
                    // Chaos plan: drop the connection before reading the
                    // request — clients must survive this.
                    drop(stream);
                    continue;
                }
                accepted.inc();
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("permea-conn".into())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(e) => {
                shared.obs.error(format!("accept failed: {e}"));
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

/// Serves exactly one request on one connection. Errors talking to a
/// vanished client are swallowed — the daemon must outlive its clients.
fn handle_connection(mut stream: UnixStream, shared: &Shared) {
    let request = match read_message::<_, Request>(&mut stream) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(_) => {
            let _ = write_message(
                &mut stream,
                &Response::Error {
                    message: "malformed request".into(),
                },
            );
            return;
        }
    };
    let version = match &request {
        Request::Submit { version, .. }
        | Request::Status { version }
        | Request::Watch { version, .. }
        | Request::Cancel { version, .. }
        | Request::Shutdown { version } => *version,
    };
    if version != PROTOCOL_VERSION {
        let _ = write_message(
            &mut stream,
            &Response::Rejected {
                reason: RejectReason::VersionMismatch {
                    server: PROTOCOL_VERSION,
                    client: version,
                },
            },
        );
        return;
    }
    let response = match request {
        Request::Submit {
            tenant, payload, ..
        } => handle_submit(shared, &tenant, payload),
        Request::Status { .. } => Response::Status(build_status(shared)),
        Request::Watch { id, .. } => {
            handle_watch(&mut stream, shared, id);
            return;
        }
        Request::Cancel { id, .. } => handle_cancel(shared, id),
        Request::Shutdown { .. } => {
            shared.begin_drain("shutdown verb");
            Response::ShuttingDown
        }
    };
    let _ = write_message(&mut stream, &response);
}

fn handle_submit(shared: &Shared, tenant: &str, payload: String) -> Response {
    let rejected = shared.obs.counter("server.submissions_rejected");
    if shared.draining.load(Ordering::Acquire) {
        rejected.inc();
        return Response::Rejected {
            reason: RejectReason::Draining,
        };
    }
    if let Err(message) = shared.runner.validate(&payload) {
        rejected.inc();
        return Response::Rejected {
            reason: RejectReason::InvalidPayload { message },
        };
    }
    let mut st = shared.state.lock().expect("state lock");
    if let Err(reason) = shared.config.quota.admit(
        st.scheduler.total_queued(),
        st.scheduler.tenant_queued(tenant),
    ) {
        rejected.inc();
        shared.emit_service(tenant, 0, "rejected", &reason.to_string());
        return Response::Rejected { reason };
    }
    let id = st.next_id;
    // Write-ahead: the admission is durable before the client hears
    // `Submitted` and before the campaign becomes schedulable.
    let record = LedgerRecord::Submitted {
        id,
        tenant: tenant.to_string(),
        payload: payload.clone(),
    };
    if let Err(e) = shared.ledger.lock().expect("ledger lock").append(&record) {
        shared.obs.error(format!("ledger append failed: {e}"));
        return Response::Error {
            message: format!("submission not recorded: {e}"),
        };
    }
    st.next_id += 1;
    st.scheduler.enqueue(tenant, id);
    st.campaigns.insert(
        id,
        CampaignMeta {
            tenant: tenant.to_string(),
            payload,
            state: CampaignState::Queued,
            detail: String::new(),
            cancel: Arc::new(AtomicBool::new(false)),
            faults: 0,
        },
    );
    shared.cv.notify_all();
    drop(st);
    shared.obs.counter("server.submissions_accepted").inc();
    shared.emit_service(tenant, id, "submitted", "");
    Response::Submitted { id }
}

fn handle_cancel(shared: &Shared, id: u64) -> Response {
    let mut guard = shared.state.lock().expect("state lock");
    let st = &mut *guard;
    let (tenant, was_queued) = match st.campaigns.get_mut(&id) {
        None => return Response::NotFound { id },
        Some(meta) => {
            if meta.state.is_terminal() {
                // Idempotent: cancelling a finished campaign acknowledges
                // without rewriting history.
                return Response::Cancelled { id };
            }
            meta.cancel.store(true, Ordering::Release);
            (meta.tenant.clone(), meta.state == CampaignState::Queued)
        }
    };
    if was_queued && st.scheduler.remove(&tenant, id) {
        let meta = st.campaigns.get_mut(&id).expect("campaign exists");
        meta.state = CampaignState::Cancelled;
        meta.detail = "cancelled while queued".into();
        shared.record_closed(id, &tenant, CampaignState::Cancelled, "while queued");
    }
    // A running campaign settles through its slice outcome; the flag is
    // observed by the runner.
    shared.cv.notify_all();
    Response::Cancelled { id }
}

fn build_status(shared: &Shared) -> ServerStatus {
    let st = shared.state.lock().expect("state lock");
    let mut status = ServerStatus {
        accepting: !shared.draining.load(Ordering::Acquire),
        draining: shared.draining.load(Ordering::Acquire),
        slots_total: shared.config.slots.max(1),
        slots_healthy: shared.slots_healthy.load(Ordering::Acquire),
        degraded: false,
        queued: 0,
        running: 0,
        completed: 0,
        failed: 0,
        cancelled: 0,
        campaigns: Vec::with_capacity(st.campaigns.len()),
    };
    status.degraded = status.slots_healthy < status.slots_total;
    for (&id, meta) in &st.campaigns {
        match meta.state {
            CampaignState::Queued => status.queued += 1,
            CampaignState::Running => status.running += 1,
            CampaignState::Completed => status.completed += 1,
            CampaignState::Failed => status.failed += 1,
            CampaignState::Cancelled => status.cancelled += 1,
        }
        status.campaigns.push(CampaignStatus {
            id,
            tenant: meta.tenant.clone(),
            state: meta.state,
            detail: meta.detail.clone(),
        });
    }
    status
}

/// Watch stream: sends the campaign's current state, then one update per
/// change of `(state, detail)`, waiting on the state condvar in between.
/// Every transition notifies that condvar under the state lock, so the
/// watch wakes for each one; only a state that ends before the woken
/// watch gets the lock back is folded into its successor. Ends after the
/// first terminal update, or when the client goes away or the daemon
/// shuts down.
fn handle_watch(stream: &mut UnixStream, shared: &Shared, id: u64) {
    let mut last: Option<(CampaignState, String)> = None;
    loop {
        let (state, detail) = {
            let mut st = shared.state.lock().expect("state lock");
            loop {
                let Some(meta) = st.campaigns.get(&id) else {
                    drop(st);
                    let _ = write_message(stream, &Response::NotFound { id });
                    return;
                };
                if !matches!(&last, Some((s, d)) if *s == meta.state && *d == meta.detail) {
                    break (meta.state, meta.detail.clone());
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                st = shared.cv.wait(st).expect("state lock");
            }
        };
        let update = Response::Update {
            id,
            state,
            detail: detail.clone(),
        };
        if write_message(stream, &update).is_err() || state.is_terminal() {
            return; // client vanished, or the stream is complete
        }
        last = Some((state, detail));
    }
}

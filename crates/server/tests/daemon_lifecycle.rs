//! In-process daemon integration tests: a toy [`CampaignRunner`] stands in
//! for the study executor so the scheduling, quota, drain and recovery
//! behaviour can be asserted deterministically.
//!
//! The toy runner's "journal" is an in-memory per-campaign slice counter
//! shared across daemon instances through an `Arc` — restarting the daemon
//! against the same runner models restarting against the same on-disk run
//! journals, and the executed-slice log proves no work is re-run.

use permea_obs::Obs;
use permea_server::runner::{CampaignRunner, SliceOutcome, SliceRequest};
use permea_server::{
    CampaignState, Client, Daemon, QuotaConfig, RejectReason, Response, ServerConfig, ServerError,
    ServerStatus,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);

/// Toy campaign: the payload is the decimal number of slices it takes.
/// Slices block on a shared gate until the test lets them through, so tests
/// control exactly when work is considered in-flight.
#[derive(Default)]
struct ToyRunner {
    /// Slices left per campaign id; survives daemon restarts like a run
    /// journal survives process death.
    remaining: Mutex<HashMap<u64, u64>>,
    /// One `(tenant, campaign)` entry per executed slice, in order.
    executed: Mutex<Vec<(String, u64)>>,
    /// Slices still allowed to start; `u64::MAX` once the gate is open.
    gate: Mutex<u64>,
    gate_cv: Condvar,
}

impl ToyRunner {
    fn open_gate(&self) {
        *self.gate.lock().unwrap() = u64::MAX;
        self.gate_cv.notify_all();
    }

    /// Lets exactly one more slice start.
    fn admit_one(&self) {
        *self.gate.lock().unwrap() += 1;
        self.gate_cv.notify_all();
    }

    fn executed(&self) -> Vec<(String, u64)> {
        self.executed.lock().unwrap().clone()
    }
}

impl CampaignRunner for ToyRunner {
    fn validate(&self, payload: &str) -> Result<(), String> {
        match payload.parse::<u64>() {
            Ok(n) if n > 0 => Ok(()),
            _ => Err(format!("payload {payload:?} is not a positive slice count")),
        }
    }

    fn run_slice(&self, req: &SliceRequest<'_>) -> SliceOutcome {
        {
            let mut passes = self.gate.lock().unwrap();
            while *passes == 0 {
                passes = self.gate_cv.wait(passes).unwrap();
            }
            if *passes != u64::MAX {
                *passes -= 1;
            }
        }
        if req.cancel.load(Ordering::Acquire) {
            return SliceOutcome::Cancelled;
        }
        let left = {
            let mut remaining = self.remaining.lock().unwrap();
            let slot = remaining
                .entry(req.id)
                .or_insert_with(|| req.payload.parse().expect("validated payload"));
            *slot -= 1;
            *slot
        };
        self.executed
            .lock()
            .unwrap()
            .push((req.tenant.to_string(), req.id));
        if left == 0 {
            SliceOutcome::Finished
        } else {
            SliceOutcome::Yielded
        }
    }
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permea-daemon-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, slots: usize) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    config.slots = slots;
    config.slice_runs = Some(1);
    config
}

/// Connects a fresh client (one verb per connection), retrying while the
/// daemon's listener comes up.
fn connect(socket: &Path) -> Client {
    let start = Instant::now();
    loop {
        match Client::connect(socket) {
            Ok(client) => return client,
            Err(e) => {
                assert!(start.elapsed() < DEADLINE, "daemon never listened: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn submit(socket: &Path, tenant: &str, slices: u64) -> Response {
    connect(socket).submit(tenant, &slices.to_string()).unwrap()
}

fn submit_id(socket: &Path, tenant: &str, slices: u64) -> u64 {
    match submit(socket, tenant, slices) {
        Response::Submitted { id } => id,
        other => panic!("submission refused: {other:?}"),
    }
}

fn wait_status(socket: &Path, what: &str, pred: impl Fn(&ServerStatus) -> bool) -> ServerStatus {
    let start = Instant::now();
    loop {
        let status = connect(socket).status().unwrap();
        if pred(&status) {
            return status;
        }
        assert!(
            start.elapsed() < DEADLINE,
            "timed out waiting for {what}; last status: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn fair_share_alternates_slices_between_tenants() {
    let dir = state_dir("fair-share");
    let runner = Arc::new(ToyRunner::default());
    let daemon = Daemon::start(config(&dir, 1), runner.clone(), Obs::disabled()).unwrap();
    let socket = daemon.socket().to_path_buf();

    // Both tenants are queued before any slice can finish: the single
    // slot blocks on the gate, so the dispatch order from here on is the
    // scheduler's alone.
    let alice = submit_id(&socket, "alice", 6);
    let bob = submit_id(&socket, "bob", 6);
    runner.open_gate();

    wait_status(&socket, "both campaigns to complete", |s| s.completed == 2);
    daemon.finish().unwrap();

    let executed = runner.executed();
    assert_eq!(executed.len(), 12, "six slices per campaign: {executed:?}");
    for pair in executed.windows(2) {
        assert_ne!(
            pair[0].0, pair[1].0,
            "a tenant ran twice in a row — fair share broken: {executed:?}"
        );
    }
    let alice_slices = executed.iter().filter(|(_, id)| *id == alice).count();
    let bob_slices = executed.iter().filter(|(_, id)| *id == bob).count();
    assert_eq!((alice_slices, bob_slices), (6, 6));
}

#[test]
fn quota_rejections_are_typed_and_clear_after_drain() {
    let dir = state_dir("quota");
    let runner = Arc::new(ToyRunner::default());
    let mut config = config(&dir, 1);
    config.quota = QuotaConfig {
        max_queue_depth: 3,
        tenant_max_queued: 2,
        tenant_max_running: 2,
    };
    let daemon = Daemon::start(config, runner.clone(), Obs::disabled()).unwrap();
    let socket = daemon.socket().to_path_buf();

    // First campaign claims the (gated) slot and leaves the queue.
    submit_id(&socket, "alice", 1);
    wait_status(&socket, "first campaign to hold the slot", |s| {
        s.running == 1 && s.queued == 0
    });

    // Two more queue up to alice's per-tenant ceiling; the fourth is
    // refused with the tenant-quota reason, not the global one.
    submit_id(&socket, "alice", 1);
    submit_id(&socket, "alice", 1);
    match submit(&socket, "alice", 1) {
        Response::Rejected {
            reason: RejectReason::TenantQueueFull { queued: 2, max: 2 },
        } => {}
        other => panic!("expected tenant back-pressure, got {other:?}"),
    }

    // Another tenant still fits (global depth 3)...
    submit_id(&socket, "bob", 1);
    // ...but the queue is now full for everyone.
    match submit(&socket, "bob", 1) {
        Response::Rejected {
            reason: RejectReason::QueueFull { depth: 3, max: 3 },
        } => {}
        other => panic!("expected global back-pressure, got {other:?}"),
    }

    // Rejections recorded nothing: exactly the four admitted campaigns run.
    runner.open_gate();
    let status = wait_status(&socket, "admitted campaigns to finish", |s| {
        s.completed == 4
    });
    assert_eq!(status.campaigns.len(), 4);
    daemon.finish().unwrap();
    assert_eq!(runner.executed().len(), 4);
}

#[test]
fn drain_parks_in_flight_campaigns_and_restart_finishes_without_rerun() {
    let dir = state_dir("drain-restart");
    let runner = Arc::new(ToyRunner::default());
    // Metrics-capable (but sinkless) telemetry: drain must flush a
    // metrics.json snapshot.
    let daemon =
        Daemon::start(config(&dir, 1), runner.clone(), Obs::with_sinks(Vec::new())).unwrap();
    let socket = daemon.socket().to_path_buf();

    let id = submit_id(&socket, "alice", 5);
    wait_status(&socket, "campaign to start", |s| s.running == 1);

    // Drain while the first slice is gated in flight: the slice must
    // finish (gate opens below), the campaign parks, and the daemon exits
    // cleanly without dispatching further slices.
    daemon.request_drain();
    runner.open_gate();
    daemon.finish().unwrap();
    assert_eq!(
        runner.executed().len(),
        1,
        "drain must stop dispatching after the in-flight slice"
    );
    assert!(
        dir.join("metrics.json").exists(),
        "drain must flush the metrics snapshot"
    );
    assert!(!socket.exists(), "drain must remove the socket");

    // Restart over the same state dir: the ledger re-queues the parked
    // campaign and the remaining four slices run — none again.
    let daemon = Daemon::start(config(&dir, 1), runner.clone(), Obs::disabled()).unwrap();
    let socket = daemon.socket().to_path_buf();
    let status = wait_status(&socket, "recovered campaign to finish", |s| {
        s.completed == 1
    });
    assert_eq!(status.campaigns[0].id, id);
    assert_eq!(status.campaigns[0].state, CampaignState::Completed);
    daemon.finish().unwrap();
    assert_eq!(
        runner.executed().len(),
        5,
        "restart must resume, not re-run: {:?}",
        runner.executed()
    );

    // A third start replays the terminal state and dispatches nothing.
    let daemon = Daemon::start(config(&dir, 1), runner.clone(), Obs::disabled()).unwrap();
    let socket = daemon.socket().to_path_buf();
    let status = wait_status(&socket, "terminal replay", |s| !s.campaigns.is_empty());
    assert_eq!(status.campaigns[0].state, CampaignState::Completed);
    daemon.finish().unwrap();
    assert_eq!(runner.executed().len(), 5, "closed campaigns never re-run");
}

#[test]
fn cancelling_a_queued_campaign_never_runs_it() {
    let dir = state_dir("cancel-queued");
    let runner = Arc::new(ToyRunner::default());
    let daemon = Daemon::start(config(&dir, 1), runner.clone(), Obs::disabled()).unwrap();
    let socket = daemon.socket().to_path_buf();

    let first = submit_id(&socket, "alice", 1);
    wait_status(&socket, "first campaign to hold the slot", |s| {
        s.running == 1
    });
    let queued = submit_id(&socket, "alice", 1);

    match connect(&socket).cancel(queued).unwrap() {
        Response::Cancelled { id } => assert_eq!(id, queued),
        other => panic!("expected cancellation, got {other:?}"),
    }
    match connect(&socket).cancel(9999).unwrap() {
        Response::NotFound { id: 9999 } => {}
        other => panic!("expected NotFound, got {other:?}"),
    }

    runner.open_gate();
    let status = wait_status(&socket, "survivor to finish", |s| {
        s.completed == 1 && s.cancelled == 1
    });
    let row = status.campaigns.iter().find(|c| c.id == queued).unwrap();
    assert_eq!(row.state, CampaignState::Cancelled);
    daemon.finish().unwrap();

    let executed = runner.executed();
    assert_eq!(executed.len(), 1);
    assert_eq!(executed[0].1, first, "the cancelled campaign never ran");
}

/// One watch-stream update: the campaign state and its detail.
type Update = (CampaignState, String);

/// Opens a watch on `id` in a background thread. Every update is sent on
/// the returned channel; the thread's result is the watch's outcome.
fn spawn_watch(
    socket: &Path,
    id: u64,
) -> (Receiver<Update>, JoinHandle<Result<Update, ServerError>>) {
    let mut client = connect(socket);
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        client.watch(id, |state, detail| {
            let _ = tx.send((state, detail.to_string()));
        })
    });
    (rx, handle)
}

fn next_update(updates: &Receiver<Update>) -> Update {
    updates
        .recv_timeout(DEADLINE)
        .expect("watch stream went quiet")
}

/// Runs `daemon.finish()` on a helper thread and fails the test if it does
/// not return within [`DEADLINE`] (a listener blocked in `accept()` that
/// was never woken would hang it forever).
fn finish_within_deadline(daemon: Daemon) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(daemon.finish());
    });
    rx.recv_timeout(DEADLINE)
        .expect("finish() did not return")
        .expect("drain flushes");
}

/// `server.connections_accepted` from the drained `metrics.json`.
fn connections_accepted(dir: &Path) -> u64 {
    let text = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics.json");
    let metrics: serde_json::Value = serde_json::from_str(&text).expect("metrics.json parses");
    let counter = ["process", "counters", "server.connections_accepted"]
        .iter()
        .try_fold(&metrics, |value, key| {
            value
                .as_map()?
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
        });
    match counter {
        None => 0,
        Some(serde_json::Value::U64(n)) => *n,
        Some(other) => panic!("connections_accepted is not a count: {other:?}"),
    }
}

#[test]
fn watch_streams_every_transition_in_order() {
    let dir = state_dir("watch-order");
    let runner = Arc::new(ToyRunner::default());
    let daemon = Daemon::start(config(&dir, 1), runner.clone(), Obs::disabled()).unwrap();
    let socket = daemon.socket().to_path_buf();

    // A blocker holds the only slot, so the watched campaign starts queued.
    submit_id(&socket, "alice", 1);
    wait_status(&socket, "blocker to hold the slot", |s| s.running == 1);
    let id = submit_id(&socket, "bob", 1);
    let (updates, watch) = spawn_watch(&socket, id);
    assert_eq!(next_update(&updates).0, CampaignState::Queued);

    // Releasing only the blocker's slice lets the slot claim the watched
    // campaign, whose own slice then waits at the gate: it is Running
    // until the gate opens.
    runner.admit_one();
    assert_eq!(next_update(&updates).0, CampaignState::Running);
    runner.open_gate();
    assert_eq!(next_update(&updates).0, CampaignState::Completed);

    let (state, _) = watch
        .join()
        .unwrap()
        .expect("watch ends on the terminal update");
    assert_eq!(state, CampaignState::Completed);
    assert!(
        updates.try_recv().is_err(),
        "no update after the terminal one"
    );
    daemon.finish().unwrap();
}

#[test]
fn finish_returns_on_a_daemon_that_never_accepted() {
    let dir = state_dir("finish-idle");
    let runner = Arc::new(ToyRunner::default());
    let daemon = Daemon::start(config(&dir, 2), runner, Obs::with_sinks(Vec::new())).unwrap();
    let socket = daemon.socket().to_path_buf();

    finish_within_deadline(daemon);
    assert!(!socket.exists(), "drain must remove the socket");
    assert_eq!(
        connections_accepted(&dir),
        0,
        "the listener's wake-up connection is not a client"
    );
}

#[test]
fn finish_ends_a_watch_on_a_campaign_the_drain_parks() {
    let dir = state_dir("finish-watch");
    let runner = Arc::new(ToyRunner::default());
    let daemon =
        Daemon::start(config(&dir, 1), runner.clone(), Obs::with_sinks(Vec::new())).unwrap();
    let socket = daemon.socket().to_path_buf();

    // Two client connections in all: the submit and the watch.
    let id = submit_id(&socket, "alice", 3);
    let (updates, watch) = spawn_watch(&socket, id);
    let mut update = next_update(&updates);
    if update.0 == CampaignState::Queued {
        update = next_update(&updates);
    }
    assert_eq!(update.0, CampaignState::Running);

    // The in-flight slice finishes after the drain starts, so the campaign
    // parks instead of completing; finish must still end the watch.
    daemon.request_drain();
    runner.open_gate();
    finish_within_deadline(daemon);
    assert_eq!(
        next_update(&updates),
        (CampaignState::Queued, "parked by drain".to_string())
    );
    assert!(
        watch.join().unwrap().is_err(),
        "a watch on a parked campaign ends without a terminal state"
    );
    assert_eq!(runner.executed().len(), 1);
    assert_eq!(
        connections_accepted(&dir),
        2,
        "only the submit and the watch are counted"
    );
}

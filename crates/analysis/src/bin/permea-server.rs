//! The `permea-server` binary: the crash-recoverable campaign daemon.
//!
//! ```text
//! permea-server --state DIR [--socket PATH] [--slots N] [--slice-runs N]
//!               [--max-queue N] [--tenant-queue N] [--tenant-running N]
//!               [--slot-failures N] [--events PATH] [--chaos-plan SPEC]
//! ```
//!
//! Accepts campaign submissions from `permea-cli` over framed IPC on a
//! Unix socket and multiplexes them onto a shared executor fleet:
//!
//! * every admission is recorded in a write-ahead ledger under
//!   `DIR/ledger.jsonl` *before* it is acknowledged — `kill -9` the
//!   daemon and restart it, and every in-flight campaign resumes from its
//!   run journal to byte-identical results;
//! * submissions past the queue bounds are rejected with typed
//!   back-pressure, per-tenant quotas cap queue depth and concurrent
//!   slots, and the scheduler round-robins slices across tenants;
//! * SIGTERM/SIGINT drain gracefully: in-flight slices finish, ledger and
//!   metrics flush (`DIR/metrics.json`), the socket is removed, exit 0;
//! * executor slots that keep panicking retire instead of taking the
//!   daemon down — `permea-cli status` reports `degraded`.
//!
//! Campaign artifacts land under `DIR/campaigns/<id>/` (journal.jsonl,
//! result.json, events.jsonl). `--chaos-plan` arms the deterministic
//! chaos harness (`ledger-write=KIND@N`, `client-disconnect@N`, see
//! `permea_fi::chaos`).
//!
//! Exit codes: 0 clean drain, 1 failure, 2 usage, 4 environment failure.

use permea_analysis::cli::{self, FlagValues};
use permea_analysis::exit;
use permea_analysis::service;
use permea_fi::chaos::ChaosPlan;
use permea_server::{ServerConfig, ServerError};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: permea-server --state DIR [--socket PATH] [--slots N] [--slice-runs N] \
     [--max-queue N] [--tenant-queue N] [--tenant-running N] [--slot-failures N] \
     [--events PATH] [--chaos-plan SPEC]\n\
     exit codes: 0 clean drain, 1 failure, 2 usage, 4 environment failure";

/// The parsed command line: the daemon configuration (without its chaos
/// injector, which needs the telemetry handle) and the run-wiring flags.
fn parse(
    mut args: impl Iterator<Item = String>,
) -> Result<(ServerConfig, Option<PathBuf>, Option<ChaosPlan>), String> {
    let mut config = ServerConfig::new("");
    let mut state_dir: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut events: Option<PathBuf> = None;
    let mut chaos_plan: Option<ChaosPlan> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state" => state_dir = Some(args.value(&arg)?),
            "--socket" => socket = Some(args.value(&arg)?),
            "--events" => events = Some(args.value(&arg)?),
            "--slots" => config.slots = args.value(&arg)?,
            "--slice-runs" => {
                // 0 disables slicing: campaigns run to completion per dispatch.
                let n: u64 = args.value(&arg)?;
                config.slice_runs = (n > 0).then_some(n);
            }
            "--max-queue" => config.quota.max_queue_depth = args.value(&arg)?,
            "--tenant-queue" => config.quota.tenant_max_queued = args.value(&arg)?,
            "--tenant-running" => config.quota.tenant_max_running = args.value(&arg)?,
            "--slot-failures" => config.slot_failure_budget = args.value(&arg)?,
            "--chaos-plan" => chaos_plan = Some(args.value_with(&arg, ChaosPlan::parse)?),
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    let state_dir: PathBuf = state_dir.ok_or("--state DIR is required")?;
    config.socket = socket.unwrap_or_else(|| ServerConfig::new(&state_dir).socket);
    config.state_dir = state_dir;
    Ok((config, events, chaos_plan))
}

fn main() -> ExitCode {
    let (mut config, events, chaos_plan) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("permea-server: {e}\n{USAGE}");
            return ExitCode::from(exit::EXIT_USAGE);
        }
    };
    // The daemon may be killed and restarted over the same event log:
    // append a fresh schema-stamped session rather than truncating the
    // previous daemon's history.
    let obs = match cli::open_obs(false, events.as_deref(), true) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    config.chaos = chaos_plan.map(|plan| cli::arm_chaos(plan, &obs));

    match service::serve(config, obs.clone()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            obs.error(format!("daemon failed: {e}"));
            obs.flush();
            match e {
                ServerError::LedgerDiskFull { .. } | ServerError::Ledger { .. } => {
                    ExitCode::from(exit::EXIT_ENVIRONMENT)
                }
                _ => ExitCode::FAILURE,
            }
        }
    }
}

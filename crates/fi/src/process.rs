//! Out-of-process run isolation: the worker protocol and the supervisor's
//! per-worker client.
//!
//! In-process sandboxing (`catch_unwind` + the cooperative watchdog) cannot
//! survive a run that takes the whole *process* down — `abort()`, a stack
//! overflow, an OOM kill — or a hard deadlock that never polls the
//! watchdog. Under [`IsolationMode::Process`] the campaign supervisor
//! instead spawns N worker processes (a re-exec of the current binary with
//! a `--worker` flag), dispatches run coordinates to them over stdio, and
//! enforces a *hard* wall-clock deadline per run with SIGKILL: no
//! cooperation from the simulated software is required. A worker death is
//! classified from its exit status into
//! [`crate::outcome::RunOutcome::Crashed`] (or `Hung` for a deadline kill)
//! and the coordinate is retried with exponential backoff up to
//! [`crate::campaign::CampaignConfig::max_retries`] times, so transient
//! infrastructure failures are separated from deterministic crashes.
//!
//! # Wire format
//!
//! Messages are JSON, framed as
//!
//! ```text
//! [8-byte magic] [u32 LE payload length] [payload bytes]
//! ```
//!
//! The magic contains non-UTF-8 bytes, and the reader *scans* for it rather
//! than assuming frame alignment, so chatter from the hosting binary (a
//! test harness banner, a stray `println!`) interleaved on the pipe is
//! skipped instead of poisoning the stream. The supervisor sends
//! `ToWorker` frames (one `Setup`, then `RunBatch` per dispatch — up to
//! [`ProcessIsolation::dispatch_batch`] coordinates per frame, amortising
//! the per-message syscall/serialisation cost); the worker answers with
//! `FromWorker` frames (`Ready`, then one `DoneBatch` per dispatch).
//! Anything else the supervisor observes — a truncated frame, an answer for
//! the wrong coordinates — is an infrastructure failure
//! ([`crate::error::FiError::WorkerProcess`]), never a quarantined run.

use crate::campaign::{Campaign, CampaignConfig, SystemFactory};
use crate::error::FiError;
use crate::results::{RunRecord, RunStats};
use crate::spec::CampaignSpec;
use permea_runtime::tracing::TraceSet;
use permea_runtime::watchdog::WatchdogConfig;
use serde::{Deserialize, Serialize};
use std::io::{BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Frame magic: eight bytes, deliberately containing non-UTF-8 values so no
/// plain-text output can collide with it. The reader scans for this
/// sequence; bytes before it are discarded as noise.
const FRAME_MAGIC: [u8; 8] = [0xF1, b'P', b'F', b'I', 0x01, 0xA7, 0x5C, 0x0A];

/// Ceiling on a single frame payload; a length beyond this can only be
/// stream corruption (a full `RunRecord` is a few kilobytes).
const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Supervisor → worker messages.
// `Setup` dwarfs `Run`, but it is built exactly once per worker lifetime
// and never stored, so boxing it would only complicate the wire format.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum ToWorker {
    /// First message on every worker's stdin: everything needed to rebuild
    /// the campaign deterministically. `payload` is an opaque string the
    /// hosting binary's factory builder interprets (e.g. serialized plant
    /// parameters); the watchdog config is flattened because it carries no
    /// serde impls of its own.
    Setup {
        spec: CampaignSpec,
        master_seed: u64,
        horizon_ms: Option<u64>,
        fast_forward: bool,
        wd_enabled: bool,
        wd_work_per_tick: Option<u64>,
        wd_wall_ms: Option<u64>,
        payload: String,
    },
    /// Execute the listed coordinates of the spec's enumeration, in
    /// order, answering one `DoneBatch` for the lot.
    RunBatch { ks: Vec<u64> },
    /// Exit cleanly (closing the worker's stdin has the same effect).
    Shutdown,
}

/// One finished coordinate inside a [`FromWorker::DoneBatch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DoneRun {
    pub(crate) k: u64,
    pub(crate) record: RunRecord,
    pub(crate) stats: RunStats,
}

/// Worker → supervisor messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum FromWorker {
    /// Setup succeeded; golden runs are recorded and runs can be dispatched.
    Ready,
    /// Every coordinate of the preceding `RunBatch` finished (completed
    /// *or* quarantined in-process — a worker still classifies panics and
    /// cooperative-watchdog trips itself; only process death is left to
    /// the supervisor), in dispatch order.
    DoneBatch { results: Vec<DoneRun> },
    /// Setup or a run failed as infrastructure (not as a sandboxed
    /// outcome); the message is propagated into
    /// [`FiError::WorkerProcess`].
    Fail { message: String },
}

/// Exponential retry/respawn backoff: `base × 2^(attempt−1)`, with the
/// exponent capped at [`MAX_BACKOFF_SHIFT`] so a long crash storm (or a
/// huge `--max-retries`) cannot overflow the shift into a zero — or
/// hour-long — delay.
pub(crate) fn backoff(base_ms: u64, attempt: u32) -> Duration {
    Duration::from_millis(
        base_ms.saturating_mul(1 << attempt.saturating_sub(1).min(MAX_BACKOFF_SHIFT)),
    )
}

/// Cap on the backoff doubling: 2⁶ × base is the longest sleep.
pub(crate) const MAX_BACKOFF_SHIFT: u32 = 6;

/// Encodes one frame: magic, length, payload.
///
/// Public so other transports (e.g. the campaign daemon's Unix-socket
/// protocol) can speak the same self-synchronising wire format as the
/// worker pipes; [`read_frame`] is the matching decoder.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut frame = Vec::with_capacity(FRAME_MAGIC.len() + 4 + bytes.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(bytes);
    frame
}

/// Reads the next frame, scanning past any non-frame noise. Returns
/// `Ok(None)` on a clean EOF (stream closed before another frame started).
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut matched = 0usize;
    let mut byte = [0u8; 1];
    loop {
        if r.read(&mut byte)? == 0 {
            return Ok(None);
        }
        if byte[0] == FRAME_MAGIC[matched] {
            matched += 1;
            if matched == FRAME_MAGIC.len() {
                break;
            }
        } else {
            // No byte of the magic repeats its first byte, so the only
            // viable restart after a mismatch is position 0 or 1.
            matched = usize::from(byte[0] == FRAME_MAGIC[0]);
        }
    }
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload).map(Some).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 frame payload")
    })
}

/// How to launch one worker process.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerCommand {
    /// Executable to spawn.
    pub program: String,
    /// Arguments selecting the binary's worker mode (e.g. `["--worker"]`).
    pub args: Vec<String>,
    /// Extra environment variables set on the worker.
    pub envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A re-exec of the current binary with the given arguments — the
    /// normal way a campaign binary describes its own `--worker` mode.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::WorkerProcess`] when the current executable path
    /// cannot be determined.
    pub fn current_exe(args: Vec<String>) -> Result<Self, FiError> {
        let program = std::env::current_exe()
            .map_err(|e| FiError::WorkerProcess {
                message: format!("resolving current executable: {e}"),
            })?
            .to_string_lossy()
            .into_owned();
        Ok(WorkerCommand {
            program,
            args,
            envs: Vec::new(),
        })
    }
}

/// Configuration of the worker-process pool.
///
/// Not `Eq` only by convention with the other config types.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessIsolation {
    /// Worker processes (0 ⇒ use available parallelism).
    pub workers: usize,
    /// Hard wall-clock deadline per run attempt, in milliseconds: the
    /// supervisor SIGKILLs the worker at the deadline and classifies the
    /// run [`crate::outcome::RunOutcome::Hung`]. No cooperation from the
    /// run is needed, so even a deadlock that never polls the cooperative
    /// watchdog is bounded.
    pub run_timeout_ms: u64,
    /// Deadline for worker setup (golden-run recording), in milliseconds.
    pub setup_timeout_ms: u64,
    /// Base of the exponential retry/respawn backoff, in milliseconds.
    pub retry_backoff_ms: u64,
    /// Total worker respawns the pool may spend before the crash-storm
    /// circuit breaker trips and the campaign degrades to the in-process
    /// executor for its remaining coordinates (each thread's *first* spawn
    /// is free).
    pub max_worker_respawns: u64,
    /// Coordinates dispatched per `RunBatch` frame (minimum 1). Batching
    /// amortises framing and syscalls; the per-run deadline scales with the
    /// batch, and any worker death degrades the affected batch to
    /// single-coordinate dispatch so retry classification stays exact.
    pub dispatch_batch: usize,
    /// How to launch a worker.
    pub command: WorkerCommand,
    /// Opaque payload forwarded to the worker's factory builder.
    pub factory_payload: String,
    /// Address-space cap applied inside each worker (`RLIMIT_AS`, bytes).
    /// A run that leaks unboundedly is refused memory by the kernel —
    /// aborting or being OOM-killed — instead of taking the host down; the
    /// death is classified via
    /// [`crate::outcome::RunOutcome::crash_cause`]. `None` (the default)
    /// leaves the worker uncapped.
    pub rlimit_as_bytes: Option<u64>,
    /// CPU-time cap applied inside each worker (`RLIMIT_CPU`, seconds).
    /// Backs up the wall-clock deadline for runs that spin without
    /// blocking. `None` (the default) leaves the worker uncapped.
    pub rlimit_cpu_secs: Option<u64>,
    /// Extra full respawn-budget refills the supervisor may spend when the
    /// pool collapses (the budget hits zero). A refill re-arms
    /// `max_worker_respawns` fresh respawns; only after every wave is spent
    /// does the crash-storm breaker trip and degrade the campaign to the
    /// in-process executor. 0 keeps the historical single-budget behaviour.
    pub pool_respawn_waves: u64,
}

impl ProcessIsolation {
    /// Pool defaults: one worker per core, a 30 s per-run deadline, a two
    /// minute setup deadline, 50 ms backoff base, 16 respawns (plus one
    /// pool-collapse refill wave), 16 coordinates per dispatch frame, and
    /// no worker resource limits.
    pub fn new(command: WorkerCommand, factory_payload: impl Into<String>) -> Self {
        ProcessIsolation {
            workers: 0,
            run_timeout_ms: 30_000,
            setup_timeout_ms: 120_000,
            retry_backoff_ms: 50,
            max_worker_respawns: 16,
            dispatch_batch: 16,
            command,
            factory_payload: factory_payload.into(),
            rlimit_as_bytes: None,
            rlimit_cpu_secs: None,
            pool_respawn_waves: 1,
        }
    }

    /// The worker launch command with this pool's resource-limit
    /// environment variables applied (see
    /// [`crate::env::apply_rlimits_from_env`], which the worker calls on
    /// entry). Identical to [`ProcessIsolation::command`] when no limit is
    /// configured.
    pub fn effective_command(&self) -> WorkerCommand {
        let mut command = self.command.clone();
        if let Some(bytes) = self.rlimit_as_bytes {
            command
                .envs
                .push((crate::env::RLIMIT_AS_ENV.to_owned(), bytes.to_string()));
        }
        if let Some(secs) = self.rlimit_cpu_secs {
            command
                .envs
                .push((crate::env::RLIMIT_CPU_ENV.to_owned(), secs.to_string()));
        }
        command
    }
}

/// Where injection runs execute.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum IsolationMode {
    /// `catch_unwind` + cooperative watchdog in this process (the default):
    /// fast, but a hard fault in a run kills the campaign.
    #[default]
    InProcess,
    /// A supervised pool of worker processes with hard deadlines, crash
    /// classification and retry (see the module docs).
    Process(ProcessIsolation),
}

/// Commands understood by a worker's killer thread.
enum KillerMsg {
    /// SIGKILL the worker at the given instant unless disarmed first.
    Arm(Instant),
    /// Cancel the pending deadline.
    Disarm,
    /// Thread shutdown.
    Exit,
}

/// One dispatch attempt as the supervisor saw it.
#[derive(Debug)]
pub(crate) enum Attempt {
    /// The worker answered every dispatched coordinate, in order; a record
    /// may still be a quarantined outcome the worker classified itself.
    Done { results: Vec<DoneRun> },
    /// The worker process died under this run. `deadline` is `true` when
    /// this supervisor's hard deadline fired (classified `Hung`); otherwise
    /// the death is classified `Crashed` from the signal / exit code.
    Died {
        deadline: bool,
        signal: Option<i32>,
        exit_code: Option<i32>,
    },
    /// The worker violated the protocol; this poisons the pool as
    /// [`FiError::WorkerProcess`] rather than quarantining the run.
    Protocol(String),
}

#[cfg(unix)]
fn status_signal(status: &std::process::ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn status_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

/// Supervisor-side handle on one worker process: its pipes plus a killer
/// thread that enforces hard deadlines with `Child::kill` (SIGKILL).
pub(crate) struct WorkerClient {
    child: Arc<Mutex<Child>>,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    killer_tx: mpsc::Sender<KillerMsg>,
    killer: Option<std::thread::JoinHandle<()>>,
    deadline_fired: Arc<AtomicBool>,
}

impl WorkerClient {
    /// Spawns a worker process and its killer thread.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::WorkerProcess`] when the process cannot be
    /// spawned.
    pub(crate) fn spawn(command: &WorkerCommand) -> Result<Self, FiError> {
        let mut cmd = Command::new(&command.program);
        cmd.args(&command.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, value) in &command.envs {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().map_err(|e| FiError::WorkerProcess {
            message: format!("spawning worker `{}`: {e}", command.program),
        })?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let child = Arc::new(Mutex::new(child));
        let deadline_fired = Arc::new(AtomicBool::new(false));
        let (killer_tx, killer_rx) = mpsc::channel::<KillerMsg>();
        let killer = {
            let child = Arc::clone(&child);
            let fired = Arc::clone(&deadline_fired);
            std::thread::spawn(move || loop {
                let mut armed = match killer_rx.recv() {
                    Ok(KillerMsg::Arm(deadline)) => deadline,
                    Ok(KillerMsg::Disarm) => continue,
                    Ok(KillerMsg::Exit) | Err(_) => return,
                };
                loop {
                    let now = Instant::now();
                    if now >= armed {
                        fired.store(true, Ordering::SeqCst);
                        if let Ok(mut c) = child.lock() {
                            let _ = c.kill();
                        }
                        break;
                    }
                    match killer_rx.recv_timeout(armed - now) {
                        Ok(KillerMsg::Arm(deadline)) => armed = deadline,
                        Ok(KillerMsg::Disarm) => break,
                        Ok(KillerMsg::Exit) => return,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            fired.store(true, Ordering::SeqCst);
                            if let Ok(mut c) = child.lock() {
                                let _ = c.kill();
                            }
                            break;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => return,
                    }
                }
            })
        };
        Ok(WorkerClient {
            child,
            stdin,
            stdout,
            killer_tx,
            killer: Some(killer),
            deadline_fired,
        })
    }

    /// Sends the setup frame and waits (bounded) for `Ready`.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::WorkerProcess`] when the worker reports a setup
    /// failure, dies, or answers out of protocol.
    pub(crate) fn setup(&mut self, setup_frame: &[u8], timeout: Duration) -> Result<(), FiError> {
        self.deadline_fired.store(false, Ordering::SeqCst);
        if let Err(e) = self
            .stdin
            .write_all(setup_frame)
            .and_then(|()| self.stdin.flush())
        {
            return Err(FiError::WorkerProcess {
                message: format!("worker died before setup: {e}"),
            });
        }
        let _ = self
            .killer_tx
            .send(KillerMsg::Arm(Instant::now() + timeout));
        let reply = read_frame(&mut self.stdout);
        let _ = self.killer_tx.send(KillerMsg::Disarm);
        match reply {
            Ok(Some(json)) => match serde_json::from_str::<FromWorker>(&json) {
                Ok(FromWorker::Ready) => Ok(()),
                Ok(FromWorker::Fail { message }) => Err(FiError::WorkerProcess { message }),
                Ok(other) => Err(FiError::WorkerProcess {
                    message: format!("expected Ready, worker sent {other:?}"),
                }),
                Err(e) => Err(FiError::WorkerProcess {
                    message: format!("unparseable setup reply: {e}"),
                }),
            },
            Ok(None) | Err(_) => {
                let Attempt::Died {
                    deadline,
                    signal,
                    exit_code,
                } = self.collect_death()
                else {
                    unreachable!("collect_death only returns Died");
                };
                Err(FiError::WorkerProcess {
                    message: format!(
                        "worker died during setup (deadline: {deadline}, signal: {signal:?}, \
                         exit code: {exit_code:?})"
                    ),
                })
            }
        }
    }

    /// Dispatches the coordinates in one `RunBatch` frame and waits for
    /// the batched reply, killing the worker after `timeout × ks.len()`
    /// (every run gets its full per-run budget).
    ///
    /// # Errors
    ///
    /// Returns [`FiError::WorkerProcess`] only on serialisation failure;
    /// worker deaths and protocol violations come back as [`Attempt`]
    /// variants so the caller owns the retry policy.
    pub(crate) fn run_batch(
        &mut self,
        ks: &[u64],
        timeout: Duration,
        chaos: Option<&crate::chaos::ChaosInjector>,
    ) -> Result<Attempt, FiError> {
        let json = serde_json::to_string(&ToWorker::RunBatch { ks: ks.to_vec() }).map_err(|e| {
            FiError::WorkerProcess {
                message: format!("serialising run command: {e}"),
            }
        })?;
        let frame = encode_frame(&json);
        // An injected frame corruption truncates the dispatch mid-write —
        // the shape a dying supervisor-side pipe produces. The worker
        // blocks on the incomplete frame, the deadline kill reaps it, and
        // the ordinary retry path re-dispatches the coordinates.
        let send = match chaos {
            Some(c) if c.corrupt_dispatch() => &frame[..frame.len() / 2],
            _ => &frame[..],
        };
        let deadline = timeout.saturating_mul(ks.len().clamp(1, 4096) as u32);
        self.deadline_fired.store(false, Ordering::SeqCst);
        if self
            .stdin
            .write_all(send)
            .and_then(|()| self.stdin.flush())
            .is_err()
        {
            // Rust ignores SIGPIPE, so writing to a dead worker surfaces
            // here as BrokenPipe: the death belongs to this attempt.
            return Ok(self.collect_death());
        }
        let _ = self
            .killer_tx
            .send(KillerMsg::Arm(Instant::now() + deadline));
        let reply = read_frame(&mut self.stdout);
        let _ = self.killer_tx.send(KillerMsg::Disarm);
        match reply {
            Ok(Some(json)) => match serde_json::from_str::<FromWorker>(&json) {
                Ok(FromWorker::DoneBatch { results }) => {
                    let answered_in_order =
                        results.len() == ks.len() && results.iter().zip(ks).all(|(r, &k)| r.k == k);
                    if answered_in_order {
                        Ok(Attempt::Done { results })
                    } else {
                        Ok(Attempt::Protocol(format!(
                            "worker answered coordinates {:?} when asked for {ks:?}",
                            results.iter().map(|r| r.k).collect::<Vec<_>>()
                        )))
                    }
                }
                Ok(FromWorker::Fail { message }) => Ok(Attempt::Protocol(message)),
                Ok(FromWorker::Ready) => {
                    Ok(Attempt::Protocol("unexpected Ready mid-campaign".into()))
                }
                Err(e) => Ok(Attempt::Protocol(format!("unparseable worker reply: {e}"))),
            },
            Ok(None) | Err(_) => Ok(self.collect_death()),
        }
    }

    /// SIGKILLs the worker *without* marking the supervisor deadline — the
    /// chaos harness's stand-in for an external `kill -9` (OOM killer,
    /// operator). The next dispatch hits the dead pipe and the death is
    /// classified [`Attempt::Died`] with `deadline: false`, i.e. a
    /// [`crate::outcome::RunOutcome::Crashed`] on the retry path.
    pub(crate) fn chaos_kill(&mut self) {
        if let Ok(mut child) = self.child.lock() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Reaps a dead worker and classifies the death. Always returns
    /// [`Attempt::Died`].
    fn collect_death(&mut self) -> Attempt {
        let status = self.child.lock().ok().and_then(|mut c| c.wait().ok());
        let deadline = self.deadline_fired.swap(false, Ordering::SeqCst);
        let (signal, exit_code) = match status {
            Some(s) => (status_signal(&s), s.code()),
            None => (None, None),
        };
        Attempt::Died {
            deadline,
            signal,
            exit_code,
        }
    }
}

impl Drop for WorkerClient {
    fn drop(&mut self) {
        let _ = self.killer_tx.send(KillerMsg::Exit);
        if let Ok(mut child) = self.child.lock() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(handle) = self.killer.take() {
            let _ = handle.join();
        }
    }
}

fn write_frame_stdout(msg: &FromWorker) -> std::io::Result<()> {
    let json = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let frame = encode_frame(&json);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    out.write_all(&frame)?;
    out.flush()
}

/// The worker-process main loop: reads `ToWorker` frames from stdin,
/// executes runs with the in-process sandbox, and writes `FromWorker`
/// frames to stdout. Returns the process exit code (0 on a clean shutdown
/// or EOF, 1 after reporting a failure).
///
/// `build_factory` turns the setup payload into the system under test —
/// the hosting binary decides what the payload means. Campaign binaries
/// call this early in `main` when their `--worker` flag is present:
///
/// ```no_run
/// # use permea_fi::process::run_worker;
/// # fn make_factory(_: &str) -> Result<Box<dyn permea_fi::campaign::SystemFactory>, String> { unimplemented!() }
/// if std::env::args().any(|a| a == "--worker") {
///     std::process::exit(run_worker(make_factory) as i32);
/// }
/// ```
pub fn run_worker<F>(build_factory: F) -> u8
where
    F: FnOnce(&str) -> Result<Box<dyn SystemFactory>, String>,
{
    // Apply the supervisor's resource caps (RLIMIT_AS / RLIMIT_CPU from
    // the pool's environment variables) before touching any input: a
    // leaking or spinning run dies inside this process's limits instead of
    // destabilising the host.
    let _ = crate::env::apply_rlimits_from_env();
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let fail = |message: String| -> u8 {
        let _ = write_frame_stdout(&FromWorker::Fail { message });
        1
    };

    let setup = match read_frame(&mut input) {
        Ok(Some(json)) => match serde_json::from_str::<ToWorker>(&json) {
            Ok(msg) => msg,
            Err(e) => return fail(format!("unparseable setup frame: {e}")),
        },
        // The supervisor went away before configuring us; nothing to do.
        Ok(None) => return 0,
        Err(e) => return fail(format!("reading setup frame: {e}")),
    };
    let ToWorker::Setup {
        spec,
        master_seed,
        horizon_ms,
        fast_forward,
        wd_enabled,
        wd_work_per_tick,
        wd_wall_ms,
        payload,
    } = setup
    else {
        return fail("first frame was not Setup".into());
    };
    let factory = match build_factory(&payload) {
        Ok(f) => f,
        Err(e) => return fail(format!("building system factory: {e}")),
    };
    let config = CampaignConfig {
        threads: 1,
        master_seed,
        keep_records: true,
        horizon_ms,
        fast_forward,
        watchdog: wd_enabled.then_some(WatchdogConfig {
            max_work_per_tick: wd_work_per_tick,
            max_wall_ms: wd_wall_ms,
        }),
        ..Default::default()
    };
    let campaign = Campaign::new(factory.as_ref(), config);
    let (targets, goldens, _golden_ticks) = match campaign.prepare(&spec) {
        Ok(prepared) => prepared,
        Err(e) => return fail(format!("preparing campaign: {e}")),
    };
    if write_frame_stdout(&FromWorker::Ready).is_err() {
        return 1;
    }

    // One sample arena for the worker's whole lifetime: every run of every
    // batch records into the same storage.
    let mut arena: Option<TraceSet> = None;
    loop {
        match read_frame(&mut input) {
            Ok(Some(json)) => match serde_json::from_str::<ToWorker>(&json) {
                Ok(ToWorker::RunBatch { ks }) => {
                    let mut results = Vec::with_capacity(ks.len());
                    for &k in &ks {
                        match campaign
                            .execute_sandboxed(&spec, &targets, &goldens, k as usize, &mut arena)
                        {
                            Ok((record, stats)) => results.push(DoneRun { k, record, stats }),
                            Err(e) => {
                                return fail(format!("run {k} failed as infrastructure: {e}"))
                            }
                        }
                    }
                    if write_frame_stdout(&FromWorker::DoneBatch { results }).is_err() {
                        return 1;
                    }
                }
                Ok(ToWorker::Shutdown) => return 0,
                Ok(ToWorker::Setup { .. }) => return fail("duplicate Setup frame".into()),
                Err(e) => return fail(format!("unparseable command frame: {e}")),
            },
            Ok(None) => return 0,
            Err(e) => return fail(format!("reading command frame: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let payload = r#"{"hello":"world"}"#;
        let frame = encode_frame(payload);
        let mut cursor = &frame[..];
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn reader_skips_noise_before_and_between_frames() {
        let mut stream = Vec::new();
        stream.extend_from_slice(b"running 1 test\n");
        stream.extend_from_slice(&encode_frame("first"));
        stream.extend_from_slice(b"random chatter \xf1P not a frame");
        stream.extend_from_slice(&encode_frame("second"));
        let mut cursor = &stream[..];
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("first"));
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn reader_resyncs_after_partial_magic() {
        // The magic's own first byte immediately before a real frame must
        // not desynchronise the scanner.
        let mut stream = Vec::new();
        stream.push(FRAME_MAGIC[0]);
        stream.extend_from_slice(&encode_frame("payload"));
        let mut cursor = &stream[..];
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("payload"));
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&FRAME_MAGIC);
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &stream[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_eof() {
        let frame = encode_frame("full payload");
        let mut cursor = &frame[..frame.len() - 3];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn protocol_messages_roundtrip_as_json() {
        let spec =
            CampaignSpec::paper_style(vec![crate::spec::PortTarget::new("CALC", "pulscnt")], 2);
        let setup = ToWorker::Setup {
            spec,
            master_seed: 0x5EED,
            horizon_ms: Some(6_000),
            fast_forward: true,
            wd_enabled: true,
            wd_work_per_tick: Some(4_096),
            wd_wall_ms: None,
            payload: r#"{"masses":[1.0]}"#.into(),
        };
        let json = serde_json::to_string(&setup).unwrap();
        assert_eq!(serde_json::from_str::<ToWorker>(&json).unwrap(), setup);

        for msg in [
            ToWorker::RunBatch {
                ks: vec![17, 18, 40],
            },
            ToWorker::Shutdown,
        ] {
            let json = serde_json::to_string(&msg).unwrap();
            assert_eq!(serde_json::from_str::<ToWorker>(&json).unwrap(), msg);
        }

        let done = FromWorker::DoneBatch {
            results: vec![DoneRun {
                k: 3,
                record: RunRecord {
                    module: "CALC".into(),
                    input_signal: "pulscnt".into(),
                    model: crate::model::ErrorModel::BitFlip { bit: 3 },
                    time_ms: 500,
                    case: 0,
                    original_value: 7,
                    corrupted_value: 15,
                    first_divergence: vec![Some(510), None],
                    outcome: crate::outcome::RunOutcome::Completed,
                },
                stats: RunStats {
                    sim_ticks: 40,
                    forked: true,
                    converged_ms: Some(90),
                },
            }],
        };
        for msg in [
            FromWorker::Ready,
            done,
            FromWorker::Fail {
                message: "boom".into(),
            },
        ] {
            let json = serde_json::to_string(&msg).unwrap();
            assert_eq!(serde_json::from_str::<FromWorker>(&json).unwrap(), msg);
        }
    }

    #[test]
    fn default_isolation_is_in_process() {
        assert_eq!(IsolationMode::default(), IsolationMode::InProcess);
    }

    #[test]
    fn process_isolation_defaults() {
        let command = WorkerCommand {
            program: "campaign".into(),
            args: vec!["--worker".into()],
            envs: Vec::new(),
        };
        let p = ProcessIsolation::new(command.clone(), "{}");
        assert_eq!(p.workers, 0);
        assert_eq!(p.run_timeout_ms, 30_000);
        assert_eq!(p.max_worker_respawns, 16);
        assert_eq!(p.dispatch_batch, 16);
        assert_eq!(p.command, command);
    }

    #[test]
    fn backoff_shift_is_clamped() {
        // Doubling stops at 2^MAX_BACKOFF_SHIFT: a huge retry budget (or a
        // u32-sized attempt counter) must not shift past 64 bits.
        assert_eq!(backoff(50, 0), Duration::from_millis(50));
        assert_eq!(backoff(50, 1), Duration::from_millis(50));
        assert_eq!(backoff(50, 2), Duration::from_millis(100));
        assert_eq!(
            backoff(50, MAX_BACKOFF_SHIFT + 1),
            Duration::from_millis(50 << MAX_BACKOFF_SHIFT)
        );
        assert_eq!(
            backoff(50, 1_000),
            Duration::from_millis(50 << MAX_BACKOFF_SHIFT)
        );
        assert_eq!(
            backoff(50, u32::MAX),
            Duration::from_millis(50 << MAX_BACKOFF_SHIFT)
        );
        // Saturating, not wrapping, when the base itself is huge.
        assert_eq!(backoff(u64::MAX, u32::MAX), Duration::from_millis(u64::MAX));
    }
}

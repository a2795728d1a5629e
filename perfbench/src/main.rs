//! `permea-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --work-dir DIR [--server-bin PATH] [--results-dir DIR] [--fingerprint JSON]`
//!
//! Runs one workload and prints every metric by name and unit, then, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when an output check failed, 2 on a usage error. `perfbench/run.py`
//! builds the program and this harness and supplies the paths.
//!
//! With `--worker` as the first argument the binary is a worker process
//! of a process-isolated campaign, exactly as `study --worker` is.

use permea_perfbench::bench::Ctx;
use permea_perfbench::report::Metric;
use permea_perfbench::trace::Tracer;
use permea_perfbench::{run, WORKLOADS};
use permea_target::registry;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: permea-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         --work-dir DIR [--server-bin PATH] [--results-dir DIR] [--fingerprint JSON]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// `fi.per_run_overhead_us`: campaign CPU per run minus the stepping its
/// window ticks cost at the measured traced-tick price.
fn per_run_overhead(metrics: &[Metric]) -> Option<Metric> {
    let get = |n: &str| metrics.iter().find(|m| m.name == n).map(|m| m.value);
    let runs = get("fi.runs")?;
    let stepping_ns = get("fi.window_ticks")? * get("runtime.step_traced_ns")?;
    let cpu_ns = get("fi.campaign_cpu_s")? * 1e9;
    Metric::ratio(
        "fi.per_run_overhead_us",
        (cpu_ns - stepping_ns) / 1e3,
        runs,
        "us",
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        let code = permea_fi::process::run_worker(registry::factory_from_payload);
        std::process::exit(i32::from(code));
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut server_bin = None;
    let mut results_dir: Option<PathBuf> = None;
    let mut fingerprint = String::from("{}");
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--results-dir" => results_dir = Some(PathBuf::from(value)),
            "--fingerprint" => fingerprint = value,
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(work_dir)) =
        (workload, seed, seconds, trace, work_dir)
    else {
        return usage("--workload, --seed, --seconds, --trace and --work-dir are required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work_dir: work_dir.clone(),
        server_bin,
        tracer: Arc::new(Tracer::default()),
    };
    let mut outcome = run(&workload, &ctx).expect("workload name was checked");
    outcome.attempted = outcome.attempted.max(1);
    outcome.failed = outcome.failed.min(outcome.attempted);
    outcome.extra.extend(Metric::ratio(
        "failed_frac",
        outcome.failed as f64,
        outcome.attempted as f64,
        "1",
    ));
    if trace {
        let all: Vec<Metric> = outcome
            .gated
            .iter()
            .chain(&outcome.extra)
            .cloned()
            .collect();
        outcome.extra.extend(per_run_overhead(&all));
    }

    println!("fingerprint: {fingerprint}");
    println!(
        "workload {workload} seed {seed} trace {} ({}): {} attempted, {} failed",
        u8::from(trace),
        if outcome.correct() {
            "checks passed"
        } else {
            "CHECKS FAILED"
        },
        outcome.attempted,
        outcome.failed
    );
    print!("{}", outcome.render());
    if let Some(dir) = &results_dir {
        let out = dir.join(format!(
            "{workload}-seed{seed}-trace{}.json",
            u8::from(trace)
        ));
        let record = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
             \"fingerprint\": {fingerprint}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"failures\": {}, \"metrics\": {}}}\n",
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            serde_json::to_string(&outcome.failures).expect("strings serialise"),
            outcome.all_metrics_json()
        );
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&out, record)) {
            eprintln!("cannot write {}: {e}", out.display());
        }
        if trace {
            let spans = out.with_extension("spans.jsonl");
            if let Err(e) = ctx.tracer.write_jsonl(&spans) {
                eprintln!("cannot write {}: {e}", spans.display());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

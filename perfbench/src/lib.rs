//! The permea benchmark: four seeded workloads, each checked for correct
//! output, measured end to end (`--trace 0`) or layer by layer through a
//! span trace of the public API (`--trace 1`). See `perfbench/README.md`.

pub mod arrest;
pub mod bench;
pub mod daemon;
pub mod gen;
pub mod micro;
pub mod report;
pub mod sha256;
pub mod small;
pub mod sys;
pub mod trace;

use bench::Ctx;
use report::Outcome;

/// The benchmark's workloads, by their `BENCHMARK.json` names.
pub const WORKLOADS: [&str; 4] = [
    "arrestment-quick",
    "small-targets-process",
    "arrestment-adaptive",
    "daemon-two-tenants",
];

/// Runs workload `name`, or `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "arrestment-quick" => arrest::quick(ctx),
        "small-targets-process" => small::small(ctx),
        "arrestment-adaptive" => arrest::adaptive(ctx),
        "daemon-two-tenants" => daemon::daemon(ctx),
        _ => return None,
    })
}

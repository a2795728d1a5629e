//! Seeded workload generation. Every input the program sees — scenario
//! files, daemon payloads, master seeds — comes from here and depends on
//! the benchmark seed alone.
//!
//! Seeds vary *values* (ports, bits, instants, campaign seeds), never
//! *sizes*: every seed yields the same number of targets, models,
//! instants and cases, so run counts and the work per run stay comparable
//! from seed to seed and timings can be compared across seeds.

use permea_target::registry::Registry;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The vendored `SmallRng` with the few draws generation needs.
#[derive(Debug, Clone)]
pub struct Rng(SmallRng);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(SmallRng::seed_from_u64(
            seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
        ))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }

    /// `k` distinct values of `lo..hi`, ascending.
    pub fn distinct(&mut self, k: usize, lo: u64, hi: u64) -> Vec<u64> {
        assert!(hi - lo >= k as u64, "cannot draw {k} distinct values");
        let mut picked = Vec::with_capacity(k);
        while picked.len() < k {
            let v = self.range(lo, hi);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked.sort_unstable();
        picked
    }
}

/// The master seed of the arrestment workloads. Seed 0 is the paper
/// preset's own seed (`0x5EED`), the one the `result.json` pin and the
/// adaptive 2 600-run count were recorded at.
pub fn arrestment_master_seed(seed: u64) -> u64 {
    0x5EED ^ seed
}

/// Size of a generated scenario; the seed never changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Injection targets (input ports); all of the target's ports when
    /// equal to their number.
    pub ports: usize,
    /// Injection instants.
    pub instants: usize,
    /// Workload cases.
    pub cases: usize,
}

/// Error models per generated scenario: two each of bit-flip, burst,
/// multi-bit and intermittent, one in the low and one in the high byte.
pub const MODELS_PER_SCENARIO: usize = 8;

impl Shape {
    /// Injection runs of a scenario of this shape.
    pub fn runs(&self) -> u64 {
        (self.ports * MODELS_PER_SCENARIO * self.instants * self.cases) as u64
    }
}

/// Instants are drawn from `FIRST_INSTANT_MS..LAST_INSTANT_MS`: both small
/// targets run at least 500 ticks, so every instant is reachable in every
/// case.
const FIRST_INSTANT_MS: u64 = 10;
const LAST_INSTANT_MS: u64 = 480;

fn list(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// A mask of at least two bits within `byte` (0 = low, 1 = high).
fn byte_mask(rng: &mut Rng, byte: u32) -> u64 {
    loop {
        let m = rng.next_u64() & 0xFF;
        if m.count_ones() >= 2 {
            return m << (8 * byte);
        }
    }
}

/// A scenario TOML for `target` (`mask-pipeline` or `five-module`) with
/// the given shape; ports, models, instants and seed come from `seed`.
///
/// Draws are stratified so the work per run hardly depends on the seed:
/// one instant per equal slice of the run, and each model family hits
/// the low byte once and the high byte once.
pub fn scenario_toml(target: &str, name: &str, seed: u64, shape: Shape) -> String {
    let topology = Registry::builtin()
        .resolve(target)
        .expect("generated scenarios name built-in targets")
        .topology();
    let ports: Vec<String> = topology
        .modules()
        .flat_map(|m| {
            topology
                .inputs_of(m)
                .iter()
                .map(|&s| {
                    format!(
                        "\"{}.{}\"",
                        topology.module_name(m),
                        topology.signal_name(s)
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let mut rng = Rng::new(seed, 1);
    let targets: Vec<String> = rng
        .distinct(shape.ports, 0, ports.len() as u64)
        .into_iter()
        .map(|i| ports[i as usize].clone())
        .collect();
    let slice = (LAST_INSTANT_MS - FIRST_INSTANT_MS) / shape.instants as u64;
    let times: Vec<u64> = (0..shape.instants as u64)
        .map(|k| {
            let lo = FIRST_INSTANT_MS + k * slice;
            rng.range(lo, lo + slice)
        })
        .collect();
    let campaign_seed = rng.next_u64() >> 16;
    let flips = [rng.range(0, 8), rng.range(8, 16)];
    let width = rng.range(2, 5);
    let starts = [rng.range(0, 9 - width), rng.range(8, 17 - width)];
    let masks = [byte_mask(&mut rng, 0), byte_mask(&mut rng, 1)];
    let intermittent = [rng.range(0, 8), rng.range(8, 16)];
    let period = rng.range(3, 9);
    let count = rng.range(3, 6);
    let runs = shape.runs();
    format!(
        "# Generated by the permea benchmark (seed {seed}).\n\n\
         [scenario]\nname = \"{name}\"\n\n\
         [target]\nname = \"{target}\"\n\n\
         [workload]\ncases = {cases}\n\n\
         [campaign]\nseed = {campaign_seed}\ntimes_ms = {times}\ntargets = [{targets}]\n\n\
         [error-model]\nkind = \"bit-flip\"\nbits = {flips}\n\n\
         [error-model.2]\nkind = \"burst\"\nstarts = {starts}\nwidth = {width}\n\n\
         [error-model.3]\nkind = \"multi-bit\"\nmasks = {masks}\n\n\
         [error-model.4]\nkind = \"intermittent\"\nbits = {intermittent}\nperiod_ms = {period}\ncount = {count}\n\n\
         [expect]\nruns = {runs}\nmax_quarantined = 0\n",
        cases = shape.cases,
        times = list(&times),
        targets = targets.join(", "),
        flips = list(&flips),
        starts = list(&starts),
        masks = list(&masks),
        intermittent = list(&intermittent),
    )
}

/// The `small-targets-process` scenarios: every input port of each small
/// target, runs of a few hundred ticks, so per-run fixed costs dominate.
pub const SMALL_SCENARIOS: [(&str, Shape); 2] = [
    (
        "mask-pipeline",
        Shape {
            ports: 6,
            instants: 8,
            cases: 8,
        },
    ),
    (
        "five-module",
        Shape {
            ports: 9,
            instants: 8,
            cases: 5,
        },
    ),
];

/// The `small-targets-process` scenarios as `(name, TOML)`.
pub fn small_scenarios(seed: u64) -> Vec<(String, String)> {
    SMALL_SCENARIOS
        .iter()
        .enumerate()
        .map(|(i, (target, shape))| {
            let name = format!("bench-{target}");
            let toml = scenario_toml(target, &name, seed ^ ((i as u64) << 32), *shape);
            (name, toml)
        })
        .collect()
}

/// One daemon submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// The study's smoke preset (104 runs) at a campaign seed.
    Smoke {
        /// Master seed of the campaign.
        seed: u64,
    },
    /// A generated small-target scenario.
    Scenario {
        /// The scenario file text.
        toml: String,
    },
}

impl Payload {
    /// The daemon payload descriptor, one thread per campaign so the two
    /// slots use the two cores.
    pub fn json(&self) -> String {
        match self {
            Payload::Smoke { seed } => {
                format!("{{\"preset\":\"smoke\",\"seed\":{seed},\"threads\":1}}")
            }
            Payload::Scenario { toml } => format!(
                "{{\"scenario\":{},\"threads\":1}}",
                serde_json::to_string(toml).expect("strings serialise")
            ),
        }
    }
}

/// Shape of the daemon's generated scenarios: 96 short runs.
pub const DAEMON_SHAPE: Shape = Shape {
    ports: 2,
    instants: 3,
    cases: 2,
};

/// Campaigns each tenant submits per batch: 2 × 60 turnaround samples
/// leave 12 beyond the 90th percentile.
pub const CAMPAIGNS_PER_TENANT: usize = 60;

/// The daemon workload: a pool of distinct payloads and, per tenant, the
/// order in which it submits them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonPlan {
    /// Distinct payloads (four smoke presets, four scenarios).
    pub pool: Vec<Payload>,
    /// Pool indices each tenant submits, in order.
    pub tenants: Vec<Vec<usize>>,
}

/// The daemon workload for `seed`: two tenants, closed loop.
pub fn daemon_plan(seed: u64) -> DaemonPlan {
    let mut rng = Rng::new(seed, 2);
    let mut pool: Vec<Payload> = rng
        .distinct(4, 1, 1 << 16)
        .into_iter()
        .map(|seed| Payload::Smoke { seed })
        .collect();
    for i in 0..4u64 {
        let target = if i % 2 == 0 {
            "mask-pipeline"
        } else {
            "five-module"
        };
        let toml = scenario_toml(target, &format!("daemon-{i}"), rng.next_u64(), DAEMON_SHAPE);
        pool.push(Payload::Scenario { toml });
    }
    // Exactly half smoke presets and half scenarios per tenant, in seeded
    // order: the seed picks which ones and when, never how much work.
    let half = (pool.len() / 2) as u64;
    let tenants = (0..2)
        .map(|_| {
            let mut order: Vec<usize> = (0..CAMPAIGNS_PER_TENANT as u64)
                .map(|i| ((i % 2) * half + rng.range(0, half)) as usize)
                .collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    DaemonPlan { pool, tenants }
}

//! Process accounting: CPU time and peak resident memory of this process,
//! its reaped children, and (through `/proc`) a live child such as the
//! daemon.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage and /proc as laid out on 64-bit Linux");

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the cfg gate above), and `who` is one of the
    // two constants getrusage accepts; the call writes only into `usage`.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF/CHILDREN");
    usage
}

fn cpu_of(u: &Rusage) -> f64 {
    (u.utime.sec + u.stime.sec) as f64 + (u.utime.usec + u.stime.usec) as f64 * 1e-6
}

/// User plus system CPU seconds of this process and every child it has
/// reaped so far (worker processes count once the pool has waited for
/// them).
pub fn cpu_seconds() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of this process and of its largest reaped child, in
/// KiB: `(self, largest child)`.
pub fn peak_rss_kb() -> (u64, u64) {
    let own = rusage(RUSAGE_SELF).maxrss_kb.max(0) as u64;
    let child = rusage(RUSAGE_CHILDREN).maxrss_kb.max(0) as u64;
    (own, child)
}

fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf takes any integer name and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// User plus system CPU seconds of a live process, read from
/// `/proc/PID/stat` (clock-tick resolution).
pub fn proc_cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the man page, utime 14, stime 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks_per_second())
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn proc_peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Pids of live processes whose command line contains `needle` — how the
/// self-tests prove no daemon outlived its run.
pub fn pids_with_cmdline(needle: &str) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .map(|raw| {
                    String::from_utf8_lossy(&raw)
                        .replace('\0', " ")
                        .contains(needle)
                })
                .unwrap_or(false)
        })
        .collect()
}

//! Process counters read from `/proc`: CPU time, peak RSS, thread count
//! and context switches.

use std::fs;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, which
/// Linux fixes at 100 on every mainstream architecture).
const TICKS_PER_SEC: f64 = 100.0;

/// Process user + system CPU time so far, in microseconds, from
/// `/proc/self/stat` (all threads, exited ones included).
pub fn cpu_us() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 * 1e6 / TICKS_PER_SEC
}

fn status_field(text: &str, field: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// `VmHWM` (peak resident set) in KiB.
pub fn peak_rss_kib() -> u64 {
    status_field(&fs::read_to_string("/proc/self/status").unwrap_or_default(), "VmHWM")
}

/// Live threads in the process.
pub fn threads() -> u64 {
    status_field(&fs::read_to_string("/proc/self/status").unwrap_or_default(), "Threads")
}

/// Voluntary + involuntary context switches summed over the process's
/// live threads (`/proc/self/status` alone covers only the main thread).
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches")
                + status_field(&s, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// Online CPUs, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

//! What the benchmark asks the host: CPU time, peak memory, core count,
//! tool versions. Linux-only (`/proc`, `clock_gettime`), like the sandbox
//! the numbers are recorded on.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time this process has consumed so far, all threads
/// (exited ones included), in nanoseconds. `/proc/self/stat` carries the
/// same quantity in 10 ms ticks — too coarse for a one-second run.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and nothing else; `ts` is a live, correctly laid out
    // (`repr(C)`, two 64-bit fields on the 64-bit Linux targets this
    // benchmark supports) value owned by this frame.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A `Key:   value kB`-style field of `/proc/self/status`.
fn proc_status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(key)?
            .strip_prefix(':')?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_field("VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Threads alive in this process right now.
pub fn threads_now() -> u64 {
    proc_status_field("Threads").unwrap_or(1)
}

/// Cores the scheduler will give this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Processors online (`nproc --all` semantics: what the box has, which can
/// exceed what a cgroup lets this process use).
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// First line of `cmd args…`'s stdout, or `"unknown"` when the tool is
/// missing or fails (the acceptance checkout is not a git repository).
pub fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > t0);
    }

    #[test]
    fn host_facts_are_plausible() {
        assert!(peak_rss_mib() > 0.5);
        assert!(threads_now() >= 1);
        assert!(nproc() >= 1 && available_parallelism() >= 1);
        assert_eq!(tool_line("definitely-not-a-tool", &[]), "unknown");
    }
}

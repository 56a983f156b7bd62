//! Host facts read from `/proc`: steal time, and the resident-set
//! high-water mark of this process.

use std::fs;

/// `/proc/stat` reports CPU time in `USER_HZ` ticks, which the kernel ABI
/// fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// Cumulative steal seconds of the whole host (all CPUs), or `None`
/// where `/proc/stat` is missing.
pub fn steal_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    // Fields after "cpu": user nice system idle iowait irq softirq steal.
    let steal: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 / USER_HZ)
}

/// Resets this process's peak resident set to its current size, so a
/// later [`peak_rss_mib`] covers only what happened after the reset.
/// Returns `false` where the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MiB, or `None` where `/proc` is missing.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

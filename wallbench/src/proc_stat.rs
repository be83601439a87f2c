//! This process's own resource figures, read from `/proc/self`.
//!
//! Peak resident set (`VmHWM`) is a high-water mark for the whole
//! process; [`reset_peak_rss`] lowers it to the current resident set
//! (`echo 5 > /proc/self/clear_refs`), so a workload's peak is not the
//! peak of whatever ran before it in the same process.

use std::fs;

fn status_field_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set since start or the last reset, in MB (MiB).
pub fn peak_rss_mb() -> Option<f64> {
    status_field_kb("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set, in MB (MiB).
pub fn rss_mb() -> Option<f64> {
    status_field_kb("VmRSS").map(|kb| kb as f64 / 1024.0)
}

/// Reset the peak-RSS mark to the current resident set.
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// OS threads in this process right now.
pub fn threads() -> Option<u64> {
    status_field_kb("Threads")
}

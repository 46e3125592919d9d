//! Percentiles and process memory.

/// Nearest-rank percentile of `values` (`q` in `0..=1`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// How many samples lie strictly beyond the nearest-rank percentile.
pub fn beyond(len: usize, q: f64) -> usize {
    let rank = ((q * len as f64).ceil() as usize).clamp(1, len.max(1));
    len.saturating_sub(rank)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: returns free heap pages to the system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    /// glibc: sets an allocator parameter.
    fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// Pins glibc's mmap threshold at its initial 128 KiB. Left dynamic,
/// the first large block freed raises it (up to 32 MB), later large
/// blocks land in the heap, and what fragments there stays resident:
/// `daemon_small` episodes started from 2.5 to 26 MB left by the warm
/// managers of earlier ones. Pinned, every large block is unmapped when
/// freed, so each episode starts from the same floor. `flow_corpus`
/// builds a fresh engine per op, its episodes start alike without it,
/// and it leaves the flow's allocations as they are.
pub fn pin_mmap_threshold() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `mallopt` takes no pointers; it is called once, from
    // `main`, before any other thread exists.
    unsafe {
        const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Returns freed heap to the system, then restarts the `VmHWM`
/// high-water mark from the current resident set (Linux `clear_refs`
/// code 5), so each episode reports its own peak rather than what the
/// allocator kept from the last one.
pub fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and only walks the
    // allocator's own free lists under its own locks; glibc allows it
    // at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&values), 100.0);
        assert_eq!(percentile(&values, 0.9), 180.0);
        assert_eq!(beyond(values.len(), 0.9), 20);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}

//! Host facts recorded with every run: core count, last-level cache size
//! and the process's peak resident set.

/// Cores this process may run on — the shard count the sweep uses, and
/// the fact that decides whether sharding helps at all.
#[must_use]
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Size of CPU 0's level-3 cache in bytes, when the kernel reports one.
#[must_use]
pub fn l3_bytes() -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8).find_map(|i| {
        let dir = base.join(format!("index{i}"));
        let level = std::fs::read_to_string(dir.join("level")).ok()?;
        if level.trim() != "3" {
            return None;
        }
        let size = std::fs::read_to_string(dir.join("size")).ok()?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        digits.parse::<u64>().ok().map(|v| v * scale)
    })
}

/// Peak resident set of this process so far (the kernel's `VmHWM`), in
/// MiB.
///
/// # Panics
/// If `/proc/self/status` is unreadable or lacks `VmHWM`, which happens
/// only off Linux.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_grows_with_touched_memory() {
        let before = peak_rss_mb();
        assert!(before > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        assert!(peak_rss_mb() >= before.max(64.0));
    }
}

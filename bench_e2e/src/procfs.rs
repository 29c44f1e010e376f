//! Process counters read from `/proc/self`, from outside the program.

/// Kernel accounting ticks per second for `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 by the Linux ABI whatever the kernel's internal HZ).
const USER_HZ: f64 = 100.0;

/// The value of a `Key:   <n> [kB]` line in `/proc/self/status` text.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// User plus system CPU seconds from `/proc/self/stat` text. The command
/// name (field 2) may hold spaces or parentheses, so fields are counted
/// from the last `)`.
pub fn stat_cpu_s(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let kb = status_field(&read("/proc/self/status")?, "VmHWM").ok_or("no VmHWM")?;
    Ok(kb as f64 / 1024.0)
}

/// Restart the `VmHWM` high-water mark from the current resident set.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Live thread count of this process.
pub fn threads() -> Result<u64, String> {
    Ok(status_field(&read("/proc/self/status")?, "Threads").ok_or("no Threads")?)
}

/// CPU seconds this process has used so far, across all its threads.
pub fn cpu_s() -> Result<f64, String> {
    stat_cpu_s(&read("/proc/self/stat")?).ok_or_else(|| "unparsable /proc/self/stat".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tctt-bench-e2e\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  912340 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  150000 kB\nThreads:\t121\n\
        SigQ:\t0/63457\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(204_800));
        assert_eq!(status_field(STATUS, "Threads"), Some(121));
        // A prefix of another key does not match it.
        assert_eq!(status_field(STATUS, "VmH"), None);
        assert_eq!(status_field(STATUS, "Missing"), None);
    }

    #[test]
    fn stat_cpu_survives_odd_command_names() {
        // utime 250 and stime 50 ticks: 3 s.
        let stat = "4242 (a (b) c) R 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 3 0 \
            12345 1000000 500 18446744073709551615";
        assert_eq!(stat_cpu_s(stat), Some(3.0));
        assert_eq!(stat_cpu_s("4242 (truncated) R 1"), None);
        assert_eq!(stat_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn live_proc_reads() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        reset_peak_rss().expect("clear_refs");
        assert!(threads().expect("Threads") >= 1);
        assert!(cpu_s().expect("stat") >= 0.0);
    }
}

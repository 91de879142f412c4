//! The two numbers this benchmark reads from `/proc/self`: the peak
//! resident set (`VmHWM`) and the process's CPU time.

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`): 100
/// on every Linux architecture this repository builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = parse_vm_hwm_kib(&status)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))?;
    Ok(kib as f64 / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let ticks = parse_cpu_ticks(&stat)
        .ok_or_else(|| std::io::Error::other("unparseable /proc/self/stat"))?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tbench\nVmPeak:\t  206704 kB\nVmHWM:\t    1784 kB\nVmRSS:\t 900 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1784));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "14338 (a b) c) R 14293 14338 14293 0 -1 4194304 106 0 0 0 \
                    37 5 0 0 20 0 1 0 206704 2568192 314";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("14338 (head) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn this_process_has_a_peak_and_a_clock() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}

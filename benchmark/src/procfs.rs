//! `/proc` readers for CPU time, memory high-water mark, context
//! switches, run-queue wait and host steal. Each reader is a pure parser
//! over the file's text plus a thin wrapper that reads the file; a file
//! that is missing or malformed reads as `None`, and the caller prints 0
//! rather than failing the run on a kernel without that file.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times. `USER_HZ` has
/// been 100 on every Linux ABI since 2.6; reading it properly needs
/// `sysconf`, i.e. `unsafe`.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The number after `key:` in the text of `/proc/<pid>/status`
/// (`VmHWM` in kB, `voluntary_ctxt_switches` as a count).
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// `(on_cpu_ns, runqueue_wait_ns)` from the text of
/// `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let run: u64 = fields.next()?.parse().ok()?;
    let wait: u64 = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// `(steal_ticks, total_ticks)` from the aggregate `cpu` line of
/// `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice, so only the first eight add up.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// User + system CPU consumed by every thread of this process, in ms.
pub fn process_cpu_ms() -> Option<f64> {
    let ticks = parse_stat_cpu_ticks(&fs::read_to_string("/proc/self/stat").ok()?)?;
    Some(ticks as f64 * 1000.0 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let kib = parse_status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")?;
    Some(kib as f64 / 1024.0)
}

/// `(on_cpu_ns, runqueue_wait_ns)` of the calling thread.
pub fn thread_sched() -> Option<(u64, u64)> {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// Voluntary context switches summed over the live threads of this
/// process. Threads that exit between two reads drop out of the sum, so
/// take deltas only across a phase whose thread set is fixed.
pub fn voluntary_switches() -> Option<u64> {
    let mut total = 0u64;
    for task in fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(task.ok()?.path().join("status")) else {
            continue;
        };
        total += parse_status_field(&status, "voluntary_ctxt_switches")?;
    }
    Some(total)
}

/// `(steal_ticks, total_ticks)` of the whole machine since boot.
pub fn host_cpu() -> Option<(u64, u64)> {
    parse_host_cpu(&fs::read_to_string("/proc/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    37 5 0 0 20 0 3 0 1000 2000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1672 kB\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(1672));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        // A key that is only a prefix of another line's key must not match it.
        assert_eq!(parse_status_field(status, "Vm"), None);
        assert_eq!(parse_status_field(status, "VmSwap"), None);
    }

    #[test]
    fn schedstat_takes_the_first_two_fields() {
        assert_eq!(parse_schedstat("600299 66139 2\n"), Some((600_299, 66_139)));
        assert_eq!(parse_schedstat("600299"), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn host_cpu_excludes_guest_columns_from_the_total() {
        let stat = "cpu  100 10 50 800 20 0 5 15 7 3\ncpu0 1 2 3 4 5 6 7 8 9 10\nintr 5\n";
        assert_eq!(parse_host_cpu(stat), Some((15, 1000)));
        assert_eq!(parse_host_cpu("cpu0 1 2 3\n"), None);
        assert_eq!(parse_host_cpu("cpu  1 2 3\n"), None);
    }

    #[test]
    fn live_readers_work_on_this_kernel() {
        assert!(process_cpu_ms().is_some());
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(thread_sched().is_some());
        assert!(voluntary_switches().is_some());
        assert!(host_cpu().is_some_and(|(steal, total)| steal <= total));
    }
}

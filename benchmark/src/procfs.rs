//! The operator's view of the process: CPU time burnt and peak
//! resident memory. Read from outside the program — nothing in the
//! measured crates is asked.

// The clock call below assumes the 64-bit Linux `timespec` layout, and
// `/proc` is Linux's.
const _: () = assert!(cfg!(all(target_os = "linux", target_pointer_width = "64")));

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Process CPU time (user + system, every thread, exited ones
/// included) in seconds.
///
/// This is the scheduler's exact run-time sum. The `utime`/`stime`
/// ticks of `/proc/self/stat` are sampled at the 100 Hz timer instead,
/// which misjudges a process that runs in sub-millisecond bursts
/// woken by timers — the serving workload on the clear backend read
/// 0.17 to 0.27 ms per query from them for the same work.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the
    // pointer, which is valid and exclusively borrowed for the call;
    // `Timespec` has that struct's layout on this target (checked
    // above), and the C library std links provides the symbol.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kib(&status))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tbenchmark\nVmPeak:\t  900 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(before > 0.0, "the process has run before this line");
    }
}

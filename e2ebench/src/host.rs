//! Host facts and process-level measurements (Linux `/proc`, libc clock).

use std::time::Duration;

/// One line of host facts, printed with every result so noisy runs on a
/// shared host can be told apart.
pub fn facts(fleet_threads: Option<usize>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_owned))
        .unwrap_or_else(|| "?".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "?".to_owned());
    let rustc = rustc_version();
    let fleet = fleet_threads.map_or_else(|| "none".to_owned(), |t| t.to_string());
    // `TurboFluxConfig::parallel_workers = 0` sizes intra-update workers to
    // the core count; a fleet caps them to its thread budget.
    let intra = match fleet_threads {
        Some(t) => nproc.min(t).max(1),
        None => nproc.max(1),
    };
    format!(
        "nproc={nproc} load1={load1} kernel={kernel} rustc=\"{rustc}\" fleet_threads={fleet} intra_workers={intra} shards=1"
    )
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    match std::process::Command::new(rustc).arg("--version").output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        _ => "?".to_owned(),
    }
}

/// The process's resident-set high-water mark, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by all threads of this process so far.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

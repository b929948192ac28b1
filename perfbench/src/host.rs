//! What the benchmark reads about the process and the host: the
//! environment it pins, CPU steal, peak memory and filesystems.

use std::path::Path;

/// Removes every `PF_*` variable from the environment and returns the
/// names removed, sorted. The engine reads several on its own (e.g.
/// `PF_FAULT_RATE` and `PF_PLAN_CACHE` in `Database::new`,
/// `PF_SCAN_KERNELS`, `PF_JOIN_VECTOR`, `PF_JOIN_PARTITIONS`,
/// `PF_MORSEL`); clearing them pins every run to the defaults. Call it
/// before any other thread exists.
pub fn clear_engine_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PF_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// (steal, total) CPU ticks from the first line of `/proc/stat`.
pub fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The process's peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The filesystem type holding `path` (longest matching mount point).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::env::current_dir().map(|d| d.join(path)) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// CPU time consumed by the calling thread, in seconds.
///
/// Every call the benchmark times runs on the calling thread and, apart
/// from the store's syncs, never blocks; for those calls this clock
/// reads wall time less the time the hypervisor stole from the vCPU,
/// which on a shared host moves from run to run by as much as the
/// effects being measured.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and clock_gettime
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

//! The host: how fast it is right now, how much memory the process
//! took from it, and pinning to one CPU.

use std::time::Instant;

/// Iterations of the fixed spin loop (a few milliseconds of pure ALU
/// work with no memory traffic).
const SPIN_ITERS: u64 = 4_000_000;

/// What [`spin_ms`] reads on the host the first numbers were taken on
/// (2.1 GHz Xeon, Firecracker VM) while nothing else competes for the
/// core. Times are reported as they would read at this host speed; see
/// [`speed`].
pub const SPIN_REF_MS: f64 = 4.0;

fn spin_once_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..SPIN_ITERS {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Time the fixed spin loop, in milliseconds: the median of three
/// back-to-back executions, so that one interrupt does not pass for a
/// slow host.
pub fn spin_ms() -> f64 {
    let mut three = [spin_once_ms(), spin_once_ms(), spin_once_ms()];
    three.sort_by(f64::total_cmp);
    three[1]
}

/// How fast the host ran between two spin readings, as a share of the
/// reference speed: 1 when the spin loop took [`SPIN_REF_MS`], 0.8 when
/// it took a quarter longer. A duration measured between the two
/// readings, multiplied by this, is what it would have read at reference
/// speed.
///
/// The VM this harness was built on shares its cores: the same
/// single-threaded work runs in one of two speeds a factor 1.27 apart,
/// for seconds to minutes at a time, with no trace in steal time. Within
/// one speed every time metric repeats to ±3 %; across them nothing does.
/// The spin loop follows the speed to within a few per cent, so times
/// are corrected by it rather than left to say which speed a run met.
pub fn speed(spin_before_ms: f64, spin_after_ms: f64) -> f64 {
    SPIN_REF_MS / ((spin_before_ms + spin_after_ms) / 2.0)
}

/// Peak resident set size of the process (`VmHWM`), MiB; 0 where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread — and so every thread it spawns afterwards —
/// to one CPU: the highest the process is allowed on (interrupts and
/// housekeeping gravitate to CPU 0). Returns the CPU, or `None` where
/// that is not possible (the run then proceeds unpinned and says so).
///
/// Every workload has at most one runnable thread at a time (one job,
/// one shard, one request outstanding), so one CPU loses nothing; what
/// it removes is the scheduler deciding, run by run, whether the four
/// thread wake-ups of a served request cross CPUs. On this 2-vCPU VM
/// that alone moves a cache-hit round trip between 30 µs and 126 µs.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
        // bytes, and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly `bytes` bytes holding
        // one allowed CPU; pid 0 names the calling thread.
        (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

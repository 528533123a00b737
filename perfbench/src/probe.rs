//! Resource readings taken from outside the pipeline: CPU time and peak
//! RSS from the kernel, for this process or for its reaped children (the
//! netplane's shard processes).

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds the calling thread has used so far: unlike a wall clock,
/// it does not advance while the thread waits for a CPU.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is an exclusively borrowed `struct timespec` with the
    // 64-bit Linux layout, which is all `clock_gettime` writes to.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Whose usage to read.
#[derive(Debug, Clone, Copy)]
pub enum Who {
    /// This process, all threads.
    Process = 0,
    /// All reaped descendants.
    Children = -1,
}

/// CPU seconds (user + sys) and peak RSS of `who` so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_s: f64,
    pub maxrss_mb: f64,
}

pub fn usage(who: Who) -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is an exclusively borrowed `struct rusage` with the
    // 64-bit Linux layout, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(who as i32, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who:?}) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_mb: ru.maxrss as f64 / 1024.0,
    }
}

/// Restarts this process's peak-RSS high-water mark at its current RSS,
/// so that a later [`peak_rss_mb`] covers only what ran in between.
/// Returns `false` where the kernel refuses, and the mark then also
/// covers what ran before.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak RSS in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive() {
        let burn: u64 = (0..20_000_000u64).map(std::hint::black_box).sum();
        assert!(burn > 0);
        assert!(usage(Who::Process).cpu_s > 0.0);
        assert!(thread_cpu_s() > 0.0);
        assert!(usage(Who::Process).maxrss_mb > 0.0);
        assert!(usage(Who::Children).cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}

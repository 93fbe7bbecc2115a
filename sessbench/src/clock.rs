//! The host clock the benchmark reads: this process's CPU time, summed
//! over all its threads (`CLOCK_PROCESS_CPUTIME_ID`).
//!
//! On a shared virtual machine the elapsed clock also counts time the
//! hypervisor gives the vCPUs to other guests (steal time), which swings
//! by tens of percent from minute to minute; CPU time counts only the
//! host work the simulator did. It sums threads, so the rayon raster pool
//! shows up as total work, not as a shorter elapsed time.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's id for the calling process's CPU-time clock.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds this process has used so far.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

//! The calling thread's CPU time, for chunk timings.
//!
//! A chunk is timed on the thread that runs it, so time the thread spends
//! preempted by another process (a wall-clock artefact on a fully
//! subscribed host) does not count as the program's cost.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in ns.
pub fn thread_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and `clock_gettime`
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).expect("CPU time is non-negative") * 1_000_000_000
        + u64::try_from(ts.tv_nsec).expect("CPU time is non-negative")
}

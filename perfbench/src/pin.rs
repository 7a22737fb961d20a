//! Spreading a run's parts evenly over the CPUs it may use.
//!
//! On a shared host the CPUs of one machine run at different speeds from
//! moment to moment, and the scheduler keeps a single-threaded process on
//! whichever CPU it started on. A run that stayed on one CPU would report
//! that CPU's speed. Each part of a run (a rig, a simulation, a fleet) is
//! therefore pinned to the next allowed CPU in turn, parts come in equal
//! numbers per CPU, and the run reports the mean across its parts.

use std::sync::OnceLock;

/// CPU sets of up to 1024 CPUs, as `cpu_set_t` lays them out.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process was allowed at its first call, in order.
fn allowed() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // live for the whole call; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// Number of CPUs parts rotate over (at least 1).
pub fn cpus() -> usize {
    allowed().len().max(1)
}

/// Pins this (single-threaded) process to the CPU of part `part`. Where
/// affinity cannot be read or set, the process stays where it is.
pub fn pin_part(part: usize) {
    let cpus = allowed();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[part % cpus.len()];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, live
    // for the whole call; pid 0 names the calling thread. A failure leaves
    // the affinity unchanged, which only makes the spread uneven.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

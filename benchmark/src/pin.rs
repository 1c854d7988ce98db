//! Pin the process to one CPU.
//!
//! The harness is one thread; pinned, it never migrates, its caches stay
//! warm, and the receive softirq of a loopback send runs on the core the
//! send ran on. It does not make a shared host quiet — the clock readings
//! in `clock` and the slice medians in `report` deal with that — but it
//! removes the one source of run-to-run difference the program itself can
//! remove.

/// Restrict this process to the highest-numbered CPU it may run on and
/// return that CPU's index; `None` where the call is unavailable or fails
/// (the run proceeds unpinned and the stamp says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
            fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
        }
        // glibc's cpu_set_t: 1024 bits.
        let mut set = [0u64; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread. The kernel writes at
        // most `cpusetsize` bytes into it.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = set
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly the size passed and
        // is only read; pid 0 names the calling thread, which is the
        // only thread of this process.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
            return None;
        }
        Some(cpu)
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        None
    }
}

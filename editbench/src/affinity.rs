//! Pinning the client thread to one CPU at a time.
//!
//! On a shared host each of the process's CPUs is slowed, by up to 1.5x
//! and for seconds to minutes at a time, by whatever the host's other
//! tenants run beside it, and the CPUs are slowed independently: at most
//! moments one of them runs at full speed. The timed run pins each pass to
//! the next CPU in turn, so the passes of one event run on every CPU the
//! process may use and the per-event minimum is taken over all of them.
//! Pinning also keeps the scheduler from moving the thread between CPUs
//! mid-pass: on a 2-vCPU x86-64 VM, unpinned passes of the same
//! `edit_figure1` trace ran at 454-471 events/s against 590-602 pinned.
//!
//! Linux only (glibc's `sched_{get,set}affinity`, which `std` already links
//! against); elsewhere no CPU is reported and nothing is pinned.

/// Bytes of glibc's `cpu_set_t`: room for 1024 CPUs.
#[cfg(target_os = "linux")]
const MASK_BYTES: usize = 128;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// The CPUs the calling thread may run on, in increasing order; empty when
/// they cannot be read.
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_BYTES * 8)
        .filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpus`; false if that failed (the
/// thread then runs where it did before).
#[cfg(target_os = "linux")]
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u8; MASK_BYTES];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_BYTES * 8) {
        mask[cpu / 8] |= 1 << (cpu % 8);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    mask.iter().any(|&b| b != 0) && unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) } == 0
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_cpus: &[usize]) -> bool {
    false
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_each_allowed_cpu_and_back() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        for &cpu in &cpus {
            assert!(pin(&[cpu]));
            assert_eq!(allowed(), vec![cpu]);
        }
        assert!(pin(&cpus));
        assert_eq!(allowed(), cpus);
        assert!(!pin(&[]));
    }
}

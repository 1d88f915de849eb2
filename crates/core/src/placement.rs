//! Lane placement: pin each sweep worker to an allowed CPU of its own.
//!
//! Where the kernel does not move running threads between CPUs (a cpuset
//! with `sched_load_balance = 0`), two lanes that start on one CPU stay
//! there, and `--threads 2` runs at one CPU's speed. So when every lane
//! can have an allowed CPU of its own, each worker is pinned to one other
//! than the lead's. The lead is never moved: a migrated lead restarts on
//! cold caches, and on a 2-vCPU guest moving it measured slower than
//! leaving it. Holding it on its CPU for the run was tried too, on the
//! same guest: kmer@0.0003 t2 runs took 33–38 ms against 24–29 ms with
//! the lead free. Placement changes where lanes run, never what they
//! compute.
//!
//! This is the only foreign code in the crate: three glibc calls, declared
//! here because no libc crate is vendored. Each acts only on the calling
//! thread (pid 0), and each `unsafe` block states why the call is sound.
//! On other targets every call reports failure and no worker is pinned.

/// The CPU the calling thread runs on, if the host reports it.
pub(crate) fn current_cpu() -> Option<u32> {
    sys::current_cpu()
}

/// Pin the calling thread to `cpu`; `false` (and left as it was) when
/// the host refuses.
pub(crate) fn pin_current_thread(cpu: u32) -> bool {
    sys::pin(cpu)
}

/// CPUs for a run's `lanes − 1` workers, one each, or `None` to leave
/// them unpinned: when there is no worker, when the calling thread (the
/// lead) cannot read its CPU or its affinity mask, or when the mask has
/// fewer CPUs than lanes.
pub(crate) fn worker_plan(lanes: usize) -> Option<Vec<u32>> {
    if lanes < 2 {
        return None;
    }
    worker_cpus(&sys::allowed_cpus()?, current_cpu()?, lanes)
}

/// The pure chooser behind [`worker_plan`]: the first `lanes − 1` CPUs
/// of `allowed` other than the lead's, or `None` when `allowed` holds
/// fewer CPUs than lanes (or not enough besides the lead's).
pub(crate) fn worker_cpus(allowed: &[u32], lead: u32, lanes: usize) -> Option<Vec<u32>> {
    if lanes < 2 || lanes > allowed.len() {
        return None;
    }
    let cpus: Vec<u32> = allowed
        .iter()
        .copied()
        .filter(|&c| c != lead)
        .take(lanes - 1)
        .collect();
    (cpus.len() == lanes - 1).then_some(cpus)
}

/// Time the calling thread has spent runnable but waiting for a CPU, in
/// nanoseconds: the second field of `/proc/thread-self/schedstat`.
pub(crate) fn runq_wait_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// glibc's `cpu_set_t`: a mask of 1,024 CPUs.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    pub(super) fn current_cpu() -> Option<u32> {
        // SAFETY: takes no arguments and touches no memory of ours; it
        // returns a CPU number or -1.
        let cpu = unsafe { sched_getcpu() };
        u32::try_from(cpu).ok()
    }

    pub(super) fn allowed_cpus() -> Option<Vec<u32>> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a live, writable `cpu_set_t` of exactly the
        // size passed, and the kernel writes at most that many bytes;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return None;
        }
        let cpus = (0..1024u32)
            .filter(|&c| set.0[c as usize / 64] >> (c % 64) & 1 == 1)
            .collect();
        Some(cpus)
    }

    pub(super) fn pin(cpu: u32) -> bool {
        if cpu >= 1024 {
            return false;
        }
        let mut set = CpuSet([0; 16]);
        set.0[cpu as usize / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a live `cpu_set_t` of exactly the size passed,
        // which the kernel only reads; pid 0 is the calling thread, so no
        // other thread's placement changes.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn current_cpu() -> Option<u32> {
        None
    }

    pub(super) fn allowed_cpus() -> Option<Vec<u32>> {
        None
    }

    pub(super) fn pin(_cpu: u32) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_never_get_the_leads_cpu_nor_one_outside_the_mask() {
        let allowed = [0, 1, 2, 5, 7];
        for lead in [0, 2, 7, 9] {
            for lanes in 2..=allowed.len() {
                let cpus = worker_cpus(&allowed, lead, lanes).expect("lanes <= allowed CPUs");
                assert_eq!(cpus.len(), lanes - 1);
                assert!(cpus.iter().all(|c| *c != lead && allowed.contains(c)));
                let mut distinct = cpus.clone();
                distinct.dedup();
                assert_eq!(distinct, cpus, "a CPU given to two workers");
            }
        }
    }

    #[test]
    fn no_pinning_when_lanes_outnumber_the_allowed_cpus() {
        assert_eq!(worker_cpus(&[0, 1], 1, 3), None);
        assert_eq!(worker_cpus(&[3], 3, 2), None);
        assert_eq!(worker_cpus(&[0, 1], 0, 1), None);
        assert_eq!(worker_cpus(&[0, 1], 1, 2), Some(vec![0]));
        assert_eq!(worker_cpus(&[0, 1], 0, 2), Some(vec![1]));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_pinned_thread_runs_on_its_cpu() {
        let allowed = sys::allowed_cpus().expect("affinity mask readable");
        assert!(!allowed.is_empty());
        let target = *allowed.last().unwrap();
        let ran_on = std::thread::spawn(move || {
            assert!(pin_current_thread(target));
            current_cpu()
        })
        .join()
        .unwrap();
        assert_eq!(ran_on, Some(target));
        assert!(!pin_current_thread(4096));
    }
}

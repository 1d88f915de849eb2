//! Process-global instrumentation hooks.
//!
//! Instrumented code in `nulpa-simt` and `nulpa-hashtab` calls these free
//! functions (compiled in behind their `sancheck` cargo feature). Each
//! hook starts with a single relaxed load of the global enabled flag, so
//! an uninstalled checker costs one predictable branch per call site. The
//! hooks fire from the single-threaded simulator and from hashtable
//! views; `nulpa-core`'s native backend calls none. The checker still
//! lives behind a mutex because it is process-global and any thread, such
//! as a concurrently running test, may reach it.

use crate::checker::{Checker, CheckerConfig};
use crate::report::SancheckReport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CHECKER: Mutex<Option<Checker>> = Mutex::new(None);

fn lock() -> MutexGuard<'static, Option<Checker>> {
    // A panic inside an instrumented region (e.g. the out-of-bounds
    // fault-injection test) can poison the lock; the checker state is
    // still coherent, so recover it.
    CHECKER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install a fresh checker; subsequent instrumented accesses are checked.
/// Replaces any previously installed checker (its findings are dropped).
pub fn install(config: CheckerConfig) {
    let mut g = lock();
    *g = Some(Checker::new(config));
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disable checking and return the report of the installed checker, if
/// any.
pub fn uninstall() -> Option<SancheckReport> {
    ENABLED.store(false, Ordering::SeqCst);
    lock().take().map(Checker::into_report)
}

/// `true` while a checker is installed.
#[inline]
pub fn is_active() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn with(f: impl FnOnce(&mut Checker)) {
    let mut g = lock();
    if let Some(c) = g.as_mut() {
        f(c);
    }
}

macro_rules! hook {
    ($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* ) => $method:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $name($($arg: $ty),*) {
            if is_active() {
                with(|c| c.$method($($arg),*));
            }
        }
    };
}

hook!(
    /// A kernel launch named `name` begins.
    kernel_begin(name: &str) => kernel_begin
);
hook!(
    /// The current kernel launch ends.
    kernel_end() => kernel_end
);
hook!(
    /// Wave `w` of the current kernel begins.
    wave_begin(w: u64) => wave_begin
);
hook!(
    /// The current wave flushed: advance the shadow epoch.
    wave_end() => wave_end
);
hook!(
    /// Set the current (warp, lane) coordinates.
    lane_ctx(warp: u32, lane: u32) => lane_ctx
);
hook!(
    /// Set the current block index within the wave.
    block_ctx(block: u32) => block_ctx
);
hook!(
    /// Deferred-store read of the committed value at `addr`.
    ds_read(addr: usize) => read
);
hook!(
    /// Deferred-store staged write to `addr`.
    ds_stage(addr: usize) => stage
);
hook!(
    /// Deferred-store immediate (write-through) write to `addr`.
    ds_write_through(addr: usize) => write_through
);
hook!(
    /// Atomic read-modify-write at `addr`.
    atomic_access(addr: usize) => atomic
);
hook!(
    /// A staged write to `addr` was committed by a wave flush.
    ds_flush_commit(addr: usize) => flush_commit
);
hook!(
    /// Mark `len` elements of `stride` bytes at `base` uninitialised.
    mark_uninit(base: usize, stride: usize, len: usize) => mark_uninit
);
hook!(
    /// A store access at `index` was out of bounds for `len` cells.
    ds_oob(index: usize, len: usize) => oob
);
hook!(
    /// A block barrier ran with the given per-lane active mask.
    barrier(active: &[bool], warp_size: usize) => barrier
);
hook!(
    /// Table `table` was cleared.
    table_clear(table: usize) => table_clear
);
hook!(
    /// One slot of `table` was cleared.
    table_clear_slot(table: usize, slot: usize) => table_clear_slot
);
hook!(
    /// An accumulate on `table` starts probing (termination bound
    /// `limit`).
    probe_start(table: usize, capacity: usize, limit: u64) => probe_start
);
hook!(
    /// The in-flight accumulate on `table` inspected `slot`.
    probe_slot(table: usize, slot: usize) => probe_slot
);
hook!(
    /// The in-flight accumulate on `table` finished.
    probe_end(table: usize) => probe_end
);
hook!(
    /// `key` was claimed at `slot` of `table`.
    claim(table: usize, key: u32, slot: usize) => claim
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::HazardKind;
    use std::sync::Mutex as TestMutex;

    // The checker is process-global; serialise tests that install it.
    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    #[test]
    fn hooks_are_noops_when_uninstalled() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(uninstall().is_none());
        assert!(!is_active());
        ds_stage(1);
        ds_stage(1);
        barrier(&[true, false], 2);
        assert!(uninstall().is_none());
    }

    #[test]
    fn install_check_uninstall_roundtrip() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(CheckerConfig::default());
        assert!(is_active());
        kernel_begin("k");
        lane_ctx(0, 0);
        ds_stage(0xbeef);
        lane_ctx(0, 1);
        ds_stage(0xbeef);
        kernel_end();
        let r = uninstall().expect("installed");
        assert!(!is_active());
        assert_eq!(r.count_of(HazardKind::WaveWriteRace), 1);
        assert_eq!(r.hazards[0].kernel, "k");
    }

    #[test]
    fn reinstall_resets_state() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(CheckerConfig::default());
        lane_ctx(0, 0);
        ds_stage(1);
        lane_ctx(0, 1);
        ds_stage(1);
        install(CheckerConfig::default());
        let r = uninstall().expect("installed");
        assert!(r.is_clean());
    }
}

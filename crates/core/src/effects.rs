//! Effect descriptors for the shipped ν-LPA kernels.
//!
//! Each kernel in [`crate::gpu`] declares here, as data, exactly what it
//! does to the simulated address space ([`crate::addr::AddrMap`]): which
//! regions it reads/writes/atomically updates and with which symbolic
//! index expression, where its barriers sit, and how its probe loops are
//! bounded. The declarations are the input to `nulpa-check`'s solver,
//! which proves lane-disjointness, staging discipline, barrier
//! uniformity, probe budgets, and immediate-write confinement for *all*
//! graphs — the static counterpart of the dynamic `nulpa-sancheck` runs.
//!
//! Keeping the descriptors beside the kernels (rather than in the
//! checker) makes them part of the kernel's contract: a kernel change
//! that alters its memory behaviour must update its declaration here, and
//! the cross-validation tests (static-clean ⇒ sancheck-clean, plus the
//! declaration-vs-metering consistency tests in `nulpa-check`) catch
//! declarations that drift from the code.

use nulpa_hashtab::{probe_budget, TableSlot, MAX_RETRIES};
use nulpa_simt::effects::{
    AccessEffect, AccessKind, AddrExpr, BarrierSite, Effects, EffectsRegistry, IndexExpr,
    KernelFlavor, LaneOrder, Pred, ProbeBound, Region, StagingClass, Visibility,
};

/// Launch name of the thread-per-vertex kernel.
pub const KERNEL_THREAD: &str = "kernel:thread";
/// Launch name of the block-per-vertex kernel.
pub const KERNEL_BLOCK: &str = "kernel:block";
/// Launch name of the Cross-Check revert kernel.
pub const KERNEL_CROSS_CHECK: &str = "kernel:cross_check";

const fn read(site: &'static str, region: Region, index: IndexExpr) -> AccessEffect {
    AccessEffect {
        site,
        addr: AddrExpr::new(region, index),
        kind: AccessKind::Read,
    }
}

const fn write(
    site: &'static str,
    region: Region,
    index: IndexExpr,
    vis: Visibility,
    idempotent: bool,
) -> AccessEffect {
    AccessEffect {
        site,
        addr: AddrExpr::new(region, index),
        kind: AccessKind::Write { vis, idempotent },
    }
}

const fn atomic(site: &'static str, region: Region, index: IndexExpr) -> AccessEffect {
    AccessEffect {
        site,
        addr: AddrExpr::new(region, index),
        kind: AccessKind::Atomic,
    }
}

/// The vertex's full hashtable reservation: `2·off(v) + 0..2·deg(v)`,
/// the interval [`TableSlot::for_vertex`] carves (start `2·off`, reserve
/// `2·deg`; the power-of-two capacity is a subset of the reservation).
const TABLE_INTERVAL: IndexExpr = IndexExpr::CsrInterval {
    start_scale: 2,
    extent_scale: 2,
};

/// The vertex's CSR edge slice: `off(v) + 0..deg(v)`.
const EDGE_INTERVAL: IndexExpr = IndexExpr::CsrInterval {
    start_scale: 1,
    extent_scale: 1,
};

/// The probe bound every table-probing kernel declares: at most
/// [`MAX_RETRIES`] strategy-driven steps (further clamped to `2·p₁` by
/// [`probe_budget`]) before the linear fallback guarantees termination.
pub fn declared_probe_bound() -> ProbeBound {
    ProbeBound::Bounded {
        budget: MAX_RETRIES,
        fallback_linear: true,
    }
}

/// Effects of the thread-per-vertex kernel
/// (`process_vertex_thread`): one lane owns the whole vertex body.
fn thread_kernel_effects() -> Effects {
    Effects {
        kernel: KERNEL_THREAD,
        flavor: KernelFlavor::ThreadPerItem,
        order: LaneOrder::Lockstep,
        staging: StagingClass::Staged,
        distinct_items: true,
        accesses: vec![
            // Self-mark processed (staged flag_set; always `true`).
            write(
                "processed self-mark",
                Region::Processed,
                IndexExpr::OwnVertex,
                Visibility::Staged,
                true,
            ),
            // hashtableClear + accumulate + maxKey over the lane's own
            // CSR-carved reservation — plain immediate stores, legal
            // because the intervals of distinct vertices are disjoint.
            write(
                "table clear/insert",
                Region::Keys,
                TABLE_INTERVAL,
                Visibility::Immediate,
                false,
            ),
            write(
                "table accumulate",
                Region::Values,
                TABLE_INTERVAL,
                Visibility::Immediate,
                false,
            ),
            read("table scan", Region::Keys, TABLE_INTERVAL),
            read("table scan", Region::Values, TABLE_INTERVAL),
            // Neighbour scan over the CSR slice (read-only topology).
            read("neighbour ids", Region::Targets, EDGE_INTERVAL),
            read("edge weights", Region::Weights, EDGE_INTERVAL),
            // Labels of neighbours (wave-start values via the deferred
            // store).
            read("neighbour labels", Region::Labels, IndexExpr::Neighbor),
            read("own label", Region::Labels, IndexExpr::OwnVertex),
            // Label move: staged, own cell only.
            write(
                "label move",
                Region::Labels,
                IndexExpr::OwnVertex,
                Visibility::Staged,
                false,
            ),
            // ΔN_T → ΔN (atomicAdd on the dedicated counter word).
            atomic("ΔN add", Region::Dn, IndexExpr::Fixed),
            // Neighbour unmark (staged flag_clear; always `false`, so
            // overlapping writers from different lanes are benign).
            write(
                "processed neighbour clear",
                Region::Processed,
                IndexExpr::Neighbor,
                Visibility::Staged,
                true,
            ),
        ],
        barriers: vec![],
        probes: declared_probe_bound(),
    }
}

/// Effects of the block-per-vertex kernel
/// (`process_vertex_block`): a cooperative block owns one vertex, lanes
/// stride over its edges and table slots.
fn block_kernel_effects() -> Effects {
    Effects {
        kernel: KERNEL_BLOCK,
        flavor: KernelFlavor::BlockPerItem,
        order: LaneOrder::Lockstep,
        staging: StagingClass::Staged,
        distinct_items: true,
        accesses: vec![
            write(
                "processed self-mark",
                Region::Processed,
                IndexExpr::OwnVertex,
                Visibility::Staged,
                true,
            ),
            // Strided clear: lanes of the block partition the interval, so
            // within a block the writes are lane-disjoint by the stride;
            // across blocks by CSR carving. The clear stores a constant.
            write(
                "strided table clear",
                Region::Keys,
                TABLE_INTERVAL,
                Visibility::Immediate,
                true,
            ),
            write(
                "strided table clear (values)",
                Region::Values,
                TABLE_INTERVAL,
                Visibility::Immediate,
                true,
            ),
            // Shared-path accumulation: atomicCAS on keys, atomicAdd on
            // values — lanes of the block may collide on a slot.
            atomic("table claim (atomicCAS)", Region::Keys, TABLE_INTERVAL),
            atomic("table add (atomicAdd)", Region::Values, TABLE_INTERVAL),
            read("strided table scan", Region::Keys, TABLE_INTERVAL),
            read("strided table scan", Region::Values, TABLE_INTERVAL),
            read("neighbour ids", Region::Targets, EDGE_INTERVAL),
            read("edge weights", Region::Weights, EDGE_INTERVAL),
            read("neighbour labels", Region::Labels, IndexExpr::Neighbor),
            read("own label", Region::Labels, IndexExpr::OwnVertex),
            write(
                "label move (lane 0)",
                Region::Labels,
                IndexExpr::OwnVertex,
                Visibility::Staged,
                false,
            ),
            atomic("ΔN add", Region::Dn, IndexExpr::Fixed),
            write(
                "processed neighbour clear",
                Region::Processed,
                IndexExpr::Neighbor,
                Visibility::Staged,
                true,
            ),
        ],
        // All three barriers sit after the early `capacity == 0` return,
        // whose guard (the block item's degree) is block-uniform: every
        // lane of a block computes the same slot, so either all lanes
        // reach every barrier or none does.
        barriers: vec![
            BarrierSite {
                site: "post-clear",
                pred: Pred::BlockUniform,
            },
            BarrierSite {
                site: "post-accumulate",
                pred: Pred::BlockUniform,
            },
            BarrierSite {
                site: "post-max-scan",
                pred: Pred::BlockUniform,
            },
        ],
        probes: declared_probe_bound(),
    }
}

/// Effects of the Cross-Check revert kernel: a separate launch with
/// immediate (write-through / atomicExch) semantics, deliberately run
/// with sequential lane order.
fn cross_check_effects() -> Effects {
    Effects {
        kernel: KERNEL_CROSS_CHECK,
        flavor: KernelFlavor::ThreadPerItem,
        order: LaneOrder::Sequential,
        staging: StagingClass::Immediate,
        distinct_items: true,
        accesses: vec![
            read("own label", Region::Labels, IndexExpr::OwnVertex),
            // `labels[c]` where c is itself a label value — aliases any
            // label cell, which is exactly why the revert must be atomic
            // and the lanes sequential.
            read("leader label", Region::Labels, IndexExpr::LabelValue),
            atomic("revert (atomicExch)", Region::Labels, IndexExpr::OwnVertex),
            // Immediate write-through of the own processed flag:
            // lane-disjoint because items are distinct vertices.
            write(
                "processed write-through",
                Region::Processed,
                IndexExpr::OwnVertex,
                Visibility::Immediate,
                false,
            ),
            atomic("ΔN decrement", Region::Dn, IndexExpr::Fixed),
        ],
        barriers: vec![],
        probes: ProbeBound::None,
    }
}

/// Registry holding the effect declarations of every kernel the
/// workspace launches. `nulpa check` verifies exactly this set; the
/// launch-site lint cross-references it by kernel name.
pub fn shipped_effects() -> EffectsRegistry {
    let mut r = EffectsRegistry::new();
    r.register(thread_kernel_effects());
    r.register(block_kernel_effects());
    r.register(cross_check_effects());
    r
}

/// Concrete probe cap for a table of capacity `p1`, as the table code
/// enforces it: `probe_budget(p1)` strategy steps plus at most `p1`
/// linear-fallback steps. Re-exported here so checker tests can compare
/// the declaration against the enforced value without reaching into
/// `nulpa-hashtab` internals.
pub fn enforced_probe_cap(p1: usize) -> u64 {
    (probe_budget(p1) + p1 as u32) as u64
}

/// The table reservation interval the declarations use, as concrete
/// numbers for a given vertex — used by consistency tests to tie the
/// symbolic [`IndexExpr::CsrInterval`] to [`TableSlot::for_vertex`].
pub fn table_reservation(offset: usize, degree: usize) -> (usize, usize) {
    let slot = TableSlot::for_vertex(offset, degree);
    (slot.start, slot.reserve)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_launch_names() {
        let r = shipped_effects();
        assert_eq!(r.len(), 3);
        for k in [KERNEL_THREAD, KERNEL_BLOCK, KERNEL_CROSS_CHECK] {
            assert!(r.lookup(k).is_some(), "missing descriptor for {k}");
        }
    }

    #[test]
    fn staged_kernels_have_no_immediate_state_writes() {
        // The structural property rule (e) of the solver rests on: the
        // main kernels only write shared state (labels/processed/dn)
        // staged or atomically; immediate plain writes are confined to
        // the CSR-carved scratch regions.
        let r = shipped_effects();
        for k in [KERNEL_THREAD, KERNEL_BLOCK] {
            let e = r.lookup(k).unwrap();
            assert_eq!(e.staging, StagingClass::Staged);
            for a in &e.accesses {
                if let AccessKind::Write {
                    vis: Visibility::Immediate,
                    ..
                } = a.kind
                {
                    assert!(
                        !a.addr.region.is_shared_state(),
                        "{k}: immediate write to shared state at `{}`",
                        a.site
                    );
                }
            }
        }
    }

    #[test]
    fn cross_check_is_the_only_immediate_kernel() {
        let r = shipped_effects();
        let immediate: Vec<_> = r
            .iter()
            .filter(|e| e.staging == StagingClass::Immediate)
            .map(|e| e.kernel)
            .collect();
        assert_eq!(immediate, vec![KERNEL_CROSS_CHECK]);
        // ... and it is the only sequential-order kernel.
        let seq: Vec<_> = r
            .iter()
            .filter(|e| e.order == LaneOrder::Sequential)
            .map(|e| e.kernel)
            .collect();
        assert_eq!(seq, vec![KERNEL_CROSS_CHECK]);
    }

    #[test]
    fn table_interval_matches_table_slot_carving() {
        // The symbolic interval 2·off(v) + 0..2·deg(v) must be exactly
        // what TableSlot::for_vertex reserves.
        for (off, deg) in [(0, 0), (0, 3), (5, 1), (17, 42)] {
            let (start, reserve) = table_reservation(off, deg);
            assert_eq!(start, 2 * off);
            assert_eq!(reserve, 2 * deg);
        }
    }

    #[test]
    fn declared_probe_bound_matches_enforcement() {
        match declared_probe_bound() {
            ProbeBound::Bounded {
                budget,
                fallback_linear,
            } => {
                assert!(fallback_linear);
                // The enforced per-table budget never exceeds the
                // declared one, for any capacity.
                for p1 in [0usize, 1, 2, 31, 32, 33, 1024] {
                    assert!(probe_budget(p1) <= budget);
                    assert_eq!(
                        enforced_probe_cap(p1),
                        (probe_budget(p1) + p1 as u32) as u64
                    );
                }
            }
            other => panic!("expected Bounded, got {other:?}"),
        }
    }
}

//! Fault-injection tests for the dynamic hazard checker (`nulpa-sancheck`).
//!
//! Each test installs the checker, drives the real SIMT scheduler (tiny
//! device: warp 4, block 8, 64 resident threads) into a specific hazard,
//! and asserts both the hazard class and its (wave, warp, lane)
//! attribution. The checker is process-global, so every test in this
//! binary serialises on one lock. Shipped backends must come out clean,
//! and an installed checker must never change what a backend computes.

use nu_lpa::baselines::{gunrock_lp, GunrockConfig};
use nu_lpa::core::{lpa_gpu, lpa_native, LpaConfig, SwapMode};
use nu_lpa::graph::gen::{caveman_weighted, erdos_renyi, two_cliques_light_bridge};
use nu_lpa::sancheck::{hooks, install, uninstall, CheckerConfig, HazardKind, SancheckReport};
use nu_lpa::simt::{CostModel, DeferredStore, DeviceConfig, WaveScheduler};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Serialise tests (the checker is process-global) and recover from
/// poisoning (the out-of-bounds test panics on purpose).
fn locked() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    uninstall(); // drop any checker a panicked test left behind
    guard
}

fn sched() -> WaveScheduler {
    WaveScheduler::new(DeviceConfig::tiny(), CostModel::default_gpu())
}

/// Run `f` under a fresh checker and return the report.
fn checked<F: FnOnce()>(f: F) -> SancheckReport {
    install(CheckerConfig::default());
    f();
    uninstall().expect("checker was installed")
}

#[test]
fn wave_write_race_attributed_to_second_writer() {
    let _g = locked();
    let s = sched();
    let store = RefCell::new(DeferredStore::new(vec![0u32; 8]));
    let items: Vec<u32> = (0..8).collect();
    let report = checked(|| {
        // every lane stages cell 0 in the same wave: classic write-write race
        s.launch_thread_per_item(
            &items,
            |it, _m| store.borrow_mut().stage(0, it),
            |_| store.borrow_mut().flush(),
        );
    });
    // 8 stages to one cell: 7 conflicts counted, 1 recorded after dedup
    assert_eq!(report.count_of(HazardKind::WaveWriteRace), 7);
    let h = report
        .hazards
        .iter()
        .find(|h| h.kind == HazardKind::WaveWriteRace)
        .expect("race recorded");
    // second writer is wave 0, warp 0, lane 1; first writer was lane 0
    assert_eq!(h.ctx.wave, 0);
    assert_eq!(h.ctx.warp, 0);
    assert_eq!(h.ctx.lane, 1);
    let prior = h.prior.as_ref().expect("prior access recorded");
    assert_eq!(prior.ctx.warp, 0);
    assert_eq!(prior.ctx.lane, 0);
}

#[test]
fn same_cell_in_different_waves_is_not_a_race() {
    let _g = locked();
    let s = sched();
    let store = RefCell::new(DeferredStore::new(vec![0u32; 8]));
    // items 0 and 64 both write cell 0, but land in waves 0 and 1 (tiny
    // device holds 64 resident threads) with a flush in between
    let items: Vec<u32> = (0..65).collect();
    let report = checked(|| {
        s.launch_thread_per_item(
            &items,
            |it, _m| {
                if it == 0 || it == 64 {
                    store.borrow_mut().stage(0, it);
                }
            },
            |_| store.borrow_mut().flush(),
        );
    });
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn write_through_during_wave_is_flagged() {
    let _g = locked();
    let s = sched();
    let store = RefCell::new(DeferredStore::new(vec![0u32; 8]));
    let items: Vec<u32> = (0..2).collect();
    let report = checked(|| {
        s.launch_thread_per_item(
            &items,
            |it, _m| {
                if it == 0 {
                    store.borrow_mut().stage(0, 1); // lane 0 defers
                } else {
                    store.borrow_mut().write_through(0, 2); // lane 1 writes now
                }
            },
            |_| store.borrow_mut().flush(),
        );
    });
    assert_eq!(report.count_of(HazardKind::WriteThroughRace), 1);
    let h = &report.hazards[0];
    assert_eq!(h.kind, HazardKind::WriteThroughRace);
    assert_eq!((h.ctx.wave, h.ctx.warp, h.ctx.lane), (0, 0, 1));
    assert_eq!(h.prior.as_ref().unwrap().ctx.lane, 0);
}

#[test]
fn read_of_uninitialized_cell_is_flagged_once() {
    let _g = locked();
    let s = sched();
    let items: Vec<u32> = (0..4).collect();
    let report = checked(|| {
        // allocated under the checker, so the cells start shadow-uninit
        let store = RefCell::new(DeferredStore::new_uninit(vec![0u32; 8]));
        s.launch_thread_per_item(
            &items,
            |it, _m| {
                if it == 2 {
                    store.borrow().get(5); // lane 2 reads garbage
                }
                store.borrow_mut().write_through(it as usize, 1);
                store.borrow().get(it as usize); // initialised: fine
            },
            |_| {},
        );
    });
    assert_eq!(report.count_of(HazardKind::UninitRead), 1);
    let h = &report.hazards[0];
    assert_eq!(h.kind, HazardKind::UninitRead);
    assert_eq!((h.ctx.wave, h.ctx.warp, h.ctx.lane), (0, 0, 2));
}

#[test]
fn initialised_store_never_reports_uninit_reads() {
    let _g = locked();
    let store = RefCell::new(DeferredStore::new(vec![7u32; 4]));
    let report = checked(|| {
        sched().launch_thread_per_item(
            &[0u32, 1, 2, 3],
            |it, _m| {
                store.borrow().get(it as usize);
            },
            |_| {},
        );
    });
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn out_of_bounds_stage_is_recorded_before_the_panic() {
    let _g = locked();
    let s = sched();
    let store = RefCell::new(DeferredStore::new(vec![0u32; 3]));
    install(CheckerConfig::default());
    let result = catch_unwind(AssertUnwindSafe(|| {
        s.launch_thread_per_item(
            &[0u32, 1, 2, 3],
            |it, _m| {
                // lane 2 computes a bad index (len + 5)
                let i = if it == 2 { 8 } else { it as usize };
                store.borrow_mut().stage(i, 1);
            },
            |_| {},
        );
    }));
    let report = uninstall().expect("checker was installed");
    assert!(result.is_err(), "expected the eager bounds panic");
    assert_eq!(report.count_of(HazardKind::OutOfBounds), 1);
    let h = report
        .hazards
        .iter()
        .find(|h| h.kind == HazardKind::OutOfBounds)
        .unwrap();
    assert_eq!((h.ctx.wave, h.ctx.warp, h.ctx.lane), (0, 0, 2));
    assert!(h.detail.contains("index 8"), "detail: {}", h.detail);
}

#[test]
fn barrier_divergence_names_the_missing_lane() {
    let _g = locked();
    let s = sched(); // block 8 = warps {0..3} and {4..7}
    let report = checked(|| {
        s.launch_block_per_item(
            &[()],
            |_, ctx| {
                ctx.lane(0).alu(&CostModel::default_gpu(), 3);
                ctx.set_lane_active(1, false); // early return in warp 0
                ctx.barrier();
            },
            |_| {},
        );
    });
    // warp 0 is mixed (lane 1 left); warp 1 is uniformly active: one hazard
    assert_eq!(report.count_of(HazardKind::BarrierDivergence), 1);
    let h = &report.hazards[0];
    assert_eq!(h.kind, HazardKind::BarrierDivergence);
    assert_eq!(
        (h.ctx.wave, h.ctx.block, h.ctx.warp, h.ctx.lane),
        (0, 0, 0, 1)
    );
}

#[test]
fn uniformly_exited_warp_does_not_diverge() {
    let _g = locked();
    let s = sched();
    let report = checked(|| {
        s.launch_block_per_item(
            &[()],
            |_, ctx| {
                ctx.lane(0).alu(&CostModel::default_gpu(), 3);
                // the whole second warp exits together: no divergence
                for l in 4..8 {
                    ctx.set_lane_active(l, false);
                }
                ctx.barrier();
            },
            |_| {},
        );
    });
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn mixed_atomic_and_staged_access_is_flagged() {
    let _g = locked();
    let s = sched();
    let store = RefCell::new(DeferredStore::new(vec![0u32; 8]));
    let items: Vec<u32> = (0..2).collect();
    let report = checked(|| {
        s.launch_thread_per_item(
            &items,
            |it, _m| {
                if it == 0 {
                    store.borrow_mut().stage(0, 1); // plain deferred write
                } else {
                    store.borrow_mut().atomic_exchange(0, 2); // atomic, same cell
                }
            },
            |_| store.borrow_mut().flush(),
        );
    });
    assert_eq!(report.count_of(HazardKind::MixedAtomicPlain), 1);
    let h = &report.hazards[0];
    assert_eq!(h.kind, HazardKind::MixedAtomicPlain);
    assert_eq!((h.ctx.wave, h.ctx.warp, h.ctx.lane), (0, 0, 1));
    assert_eq!(h.prior.as_ref().unwrap().ctx.lane, 0);
}

#[test]
fn atomic_on_dedicated_cell_is_clean_unlike_dn_flag_aliasing() {
    // Regression shape for the ΔN cost-attribution bug: the gpu backend
    // used to charge its ΔN atomic at `addr.processed`, the same simulated
    // word as vertex 0's processed flag — an atomic and a plain staged
    // write aliasing one cell, exactly the MixedAtomicPlain pattern below.
    // With the counter on its own `addr.dn` cell the same kernel is clean.
    let _g = locked();
    let s = sched();
    let items: Vec<u32> = (0..2).collect();

    // aliased: lane 0 stages cell 0, lane 1 atomics the same cell
    let store = RefCell::new(DeferredStore::new(vec![0u32; 8]));
    let report = checked(|| {
        s.launch_thread_per_item(
            &items,
            |it, _m| {
                if it == 0 {
                    store.borrow_mut().stage(0, 1);
                } else {
                    store.borrow_mut().atomic_exchange(0, 1);
                }
            },
            |_| store.borrow_mut().flush(),
        );
    });
    assert_eq!(report.count_of(HazardKind::MixedAtomicPlain), 1);

    // dedicated: the atomic lands on its own cell — no hazard
    let store = RefCell::new(DeferredStore::new(vec![0u32; 8]));
    let report = checked(|| {
        s.launch_thread_per_item(
            &items,
            |it, _m| {
                if it == 0 {
                    store.borrow_mut().stage(0, 1);
                } else {
                    store.borrow_mut().atomic_exchange(1, 1);
                }
            },
            |_| store.borrow_mut().flush(),
        );
    });
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn probe_overrun_is_flagged_with_attribution() {
    let _g = locked();
    // The real table code cannot overrun its budget (the linear fallback
    // is bounded), so drive the hooks directly as a hostile kernel would.
    let report = checked(|| {
        hooks::kernel_begin("kernel:fault");
        hooks::wave_begin(3);
        hooks::lane_ctx(1, 2);
        hooks::probe_start(0x1000, 16, 4);
        for s in 0..6 {
            hooks::probe_slot(0x1000, s); // 6 probes > limit 4
        }
        hooks::probe_end(0x1000);
        hooks::kernel_end();
    });
    assert_eq!(report.count_of(HazardKind::ProbeOverrun), 1);
    let h = &report.hazards[0];
    assert_eq!(h.kind, HazardKind::ProbeOverrun);
    assert_eq!((h.ctx.wave, h.ctx.warp, h.ctx.lane), (3, 1, 2));
    assert_eq!(h.kernel, "kernel:fault");
}

#[test]
fn table_slot_out_of_bounds_is_flagged() {
    let _g = locked();
    let report = checked(|| {
        hooks::kernel_begin("kernel:fault");
        hooks::wave_begin(0);
        hooks::lane_ctx(0, 3);
        hooks::probe_start(0x2000, 8, 16);
        hooks::probe_slot(0x2000, 9); // slot 9 in a table of capacity 8
        hooks::probe_end(0x2000);
        hooks::kernel_end();
    });
    assert_eq!(report.count_of(HazardKind::OutOfBounds), 1);
    assert_eq!(report.hazards[0].ctx.lane, 3);
}

#[test]
fn duplicate_key_claim_is_flagged_until_table_clear() {
    let _g = locked();
    let report = checked(|| {
        hooks::kernel_begin("kernel:fault");
        hooks::wave_begin(0);
        hooks::lane_ctx(0, 0);
        hooks::claim(0x3000, 7, 1);
        hooks::lane_ctx(0, 1);
        hooks::claim(0x3000, 7, 3); // key 7 now lives in two slots
        hooks::table_clear(0x3000);
        hooks::claim(0x3000, 7, 3); // fresh generation: fine
        hooks::kernel_end();
    });
    assert_eq!(report.count_of(HazardKind::DuplicateKey), 1);
    let h = &report.hazards[0];
    assert_eq!(h.kind, HazardKind::DuplicateKey);
    assert_eq!(h.ctx.lane, 1);
}

#[test]
fn shipped_backends_are_hazard_free() {
    let _g = locked();
    let graphs = [
        two_cliques_light_bridge(6),
        caveman_weighted(4, 8, 0.5),
        erdos_renyi(200, 600, 11),
    ];
    let tiny = LpaConfig::default().with_device(DeviceConfig::tiny());
    let cc1 = tiny.with_swap_mode(SwapMode::CrossCheck { every: 1 });
    // Frontier runs drive the sparse compact + re-activation launches
    // (including `kernel:compact`) under the checker on both devices.
    let tiny_f = tiny.with_frontier(true);
    let a100_f = LpaConfig::default().with_frontier(true);
    for (i, g) in graphs.iter().enumerate() {
        for (name, report) in [
            ("sim/tiny", checked(|| drop(lpa_gpu(g, &tiny)))),
            (
                "sim/a100",
                checked(|| drop(lpa_gpu(g, &LpaConfig::default()))),
            ),
            ("sim/tiny+cc1", checked(|| drop(lpa_gpu(g, &cc1)))),
            ("sim/tiny+frontier", checked(|| drop(lpa_gpu(g, &tiny_f)))),
            ("sim/a100+frontier", checked(|| drop(lpa_gpu(g, &a100_f)))),
            (
                "native",
                checked(|| drop(lpa_native(g, &LpaConfig::default()))),
            ),
            (
                "gunrock",
                checked(|| drop(gunrock_lp(g, &GunrockConfig::default()))),
            ),
        ] {
            assert!(
                report.is_clean(),
                "graph {i}, backend {name}:\n{}",
                report.render()
            );
        }
    }
}

#[test]
fn installed_checker_is_neutral_for_results() {
    let _g = locked();
    let g = erdos_renyi(180, 540, 5);
    let cfg = LpaConfig::default().with_device(DeviceConfig::tiny());
    let base = lpa_gpu(&g, &cfg);
    install(CheckerConfig::default());
    let watched = lpa_gpu(&g, &cfg);
    let report = uninstall().unwrap();
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.accesses > 0, "checker saw no traffic");
    assert_eq!(base.labels, watched.labels);
    assert_eq!(base.stats, watched.stats);
    assert_eq!(base.iterations, watched.iterations);

    let nb = lpa_native(&g, &cfg);
    install(CheckerConfig::default());
    let nw = lpa_native(&g, &cfg);
    uninstall();
    assert_eq!(nb.labels, nw.labels);
}

#[test]
fn hazard_cap_suppresses_but_keeps_counting() {
    let _g = locked();
    let s = sched();
    let store = RefCell::new(DeferredStore::new(vec![0u32; 64]));
    let items: Vec<u32> = (0..64).collect();
    install(CheckerConfig { max_hazards: 2 });
    s.launch_thread_per_item(
        &items,
        |it, _m| {
            // every pair of lanes races on its own cell: 32 distinct races
            store.borrow_mut().stage((it / 2) as usize, it);
        },
        |_| store.borrow_mut().flush(),
    );
    let report = uninstall().unwrap();
    assert_eq!(report.count_of(HazardKind::WaveWriteRace), 32);
    assert_eq!(report.hazards.len(), 2);
    assert_eq!(report.suppressed, 30);
}

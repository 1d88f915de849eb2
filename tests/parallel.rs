//! Parallel ≡ serial: the sharded wave scheduler's determinism contract.
//!
//! The GPU-simulator backend may execute lanes and blocks on host threads,
//! but its observable behaviour — labels, simulator statistics, staged
//! collision counts, iteration trajectory, and the full trace-event stream
//! — must be bit-for-bit identical to the single-threaded run for every
//! configuration. These tests sweep the full configuration matrix (probe
//! strategy × swap mode × device × value datatype) and compare runs at
//! 1 and 4 host threads.

use nu_lpa::core::{lpa_gpu, lpa_gpu_traced, LpaConfig, SwapMode, ValueType};
use nu_lpa::graph::gen::erdos_renyi;
use nu_lpa::hashtab::ProbeStrategy;
use nu_lpa::obs::RecordingSink;
use nu_lpa::simt::DeviceConfig;

/// Swap-mode points covering every mitigation code path: plain, pure
/// Cross-Check (atomic revert pass), pure Pick-Less (gated adoption),
/// and the hybrid of both.
fn swap_modes() -> [SwapMode; 5] {
    [
        SwapMode::Off,
        SwapMode::CrossCheck { every: 2 },
        SwapMode::PickLess { every: 4 },
        SwapMode::PickLess { every: 1 },
        SwapMode::Hybrid {
            cc_every: 2,
            pl_every: 3,
        },
    ]
}

#[test]
fn full_config_matrix_is_identical_across_thread_counts() {
    // ~350 vertices: large enough for multiple waves on the tiny device
    // and both thread- and block-per-vertex kernels, small enough that
    // the 80-config sweep stays fast.
    let g = erdos_renyi(350, 1200, 17);
    for probe in ProbeStrategy::all() {
        for mode in swap_modes() {
            for (dname, device) in [
                ("tiny", DeviceConfig::tiny()),
                ("a100", DeviceConfig::a100()),
            ] {
                for vt in [ValueType::F32, ValueType::F64] {
                    let cfg = LpaConfig::default()
                        .with_probe(probe)
                        .with_swap_mode(mode)
                        .with_device(device)
                        .with_value_type(vt);
                    let serial = lpa_gpu(&g, &cfg.with_threads(1));
                    let parallel = lpa_gpu(&g, &cfg.with_threads(4));
                    let ctx = format!("probe={probe:?} mode={mode:?} dev={dname} vt={vt:?}");
                    assert_eq!(serial.labels, parallel.labels, "labels: {ctx}");
                    assert_eq!(serial.stats, parallel.stats, "stats: {ctx}");
                    assert_eq!(
                        serial.staged_collisions, parallel.staged_collisions,
                        "staged_collisions: {ctx}"
                    );
                    assert_eq!(serial.iterations, parallel.iterations, "iterations: {ctx}");
                    assert_eq!(
                        serial.changed_per_iter, parallel.changed_per_iter,
                        "changed_per_iter: {ctx}"
                    );
                    assert_eq!(serial.converged, parallel.converged, "converged: {ctx}");
                }
            }
        }
    }
}

#[test]
fn odd_thread_counts_match_too() {
    // chunking must be order-preserving for any thread count, not just
    // powers of two
    let g = erdos_renyi(300, 900, 23);
    let cfg = LpaConfig::default().with_device(DeviceConfig::tiny());
    let base = lpa_gpu(&g, &cfg.with_threads(1));
    for threads in [2, 3, 5, 8, 64] {
        let r = lpa_gpu(&g, &cfg.with_threads(threads));
        assert_eq!(base.labels, r.labels, "threads={threads}");
        assert_eq!(base.stats, r.stats, "threads={threads}");
        assert_eq!(
            base.staged_collisions, r.staged_collisions,
            "threads={threads}"
        );
    }
}

#[test]
fn native_is_identical_across_thread_counts() {
    // The native sweep splits every block over the lanes by contiguous
    // slices of the candidate list, so `--threads N` stays bit-identical
    // to the serial run at odd thread counts and more lanes than cores.
    use nu_lpa::core::lpa_native;
    let g = erdos_renyi(350, 1200, 19);
    for mode in swap_modes() {
        let cfg = LpaConfig::default().with_swap_mode(mode);
        let serial = lpa_native(&g, &cfg.with_threads(1));
        for threads in [2, 3, 4, 7] {
            let parallel = lpa_native(&g, &cfg.with_threads(threads));
            let ctx = format!("mode={mode:?} threads={threads}");
            assert_eq!(serial.labels, parallel.labels, "labels: {ctx}");
            assert_eq!(
                serial.changed_per_iter, parallel.changed_per_iter,
                "changed_per_iter: {ctx}"
            );
            assert_eq!(
                serial.scanned_per_iter, parallel.scanned_per_iter,
                "scanned_per_iter: {ctx}"
            );
        }
    }
}

#[test]
fn trace_streams_are_identical_across_thread_counts() {
    // Every trace event — spans, counters, per-wave probe and divergence
    // histograms, in order — must match the serial run exactly.
    let g = erdos_renyi(300, 900, 29);
    let cfg = LpaConfig::default().with_device(DeviceConfig::tiny());
    let mut serial = RecordingSink::new();
    let mut parallel = RecordingSink::new();
    let a = lpa_gpu_traced(&g, &cfg.with_threads(1), &mut serial);
    let b = lpa_gpu_traced(&g, &cfg.with_threads(4), &mut parallel);
    assert_eq!(a.labels, b.labels);
    assert!(!serial.events.is_empty(), "trace should record events");
    assert_eq!(serial.events, parallel.events);
    assert_eq!(serial.hists, parallel.hists);
}

/// A multi-threaded config under the hazard checker must (a) stay clean
/// and (b) still produce the single-threaded answer — the scheduler falls
/// back to serial execution while a checker is installed so that hook
/// callbacks arrive in deterministic lane order.
#[test]
fn parallel_config_is_sancheck_neutral() {
    use nu_lpa::sancheck::{install, uninstall, CheckerConfig};

    let g = erdos_renyi(250, 750, 31);
    let cfg = LpaConfig::default().with_device(DeviceConfig::tiny());
    let base = lpa_gpu(&g, &cfg.with_threads(1));
    install(CheckerConfig::default());
    let watched = lpa_gpu(&g, &cfg.with_threads(4));
    let report = uninstall().expect("checker was installed");
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.accesses > 0, "checker saw no traffic");
    assert_eq!(base.labels, watched.labels);
    assert_eq!(base.stats, watched.stats);
    assert_eq!(base.staged_collisions, watched.staged_collisions);
}

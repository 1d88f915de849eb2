//! The metric names and units the benchmark prints. `BENCHMARK.json`
//! declares the same lists; a test keeps the two in step.

/// Printed with `--trace 0`: what a user of `nulpa detect` sees. Detect
/// and update times are given relative to the in-repo GVE-LPA sweep on
/// the same graph in the same round, the form of the paper's speed
/// claims; raw seconds drift with the shared host by up to ±35% between
/// runs, the ratios by a few percent (README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("detect_vs_gve.t1", "ratio"),
    ("detect_vs_gve.t2", "ratio"),
    ("update_vs_gve", "ratio"),
    ("modularity", "Q"),
    ("peak_heap_mib", "MiB"),
];

/// Printed with `--trace 1`: one layer each, named after its module,
/// plus the raw seconds behind the end-to-end ratios.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("detect_s.t1", "s"),
    ("detect_s.t2", "s"),
    ("update_s", "s"),
    ("io.self_s", "s"),
    ("io.allocs", "count"),
    ("io.bytes", "bytes"),
    ("builder.build_s", "s"),
    ("builder.allocs", "count"),
    ("native.iterations", "count"),
    ("native.active", "count"),
    ("native.changed", "count"),
    ("native.edge_visits", "count"),
    ("native.mevps.t1", "Medge/s"),
    ("native.mevps.t2", "Medge/s"),
    ("native.allocs.t1", "count"),
    ("native.alloc_mib.t1", "MiB"),
    ("fastpath.compute_s.t1", "s"),
    ("fastpath.compute_s.t2", "s"),
    ("fastpath.commit_s.t1", "s"),
    ("fastpath.commit_s.t2", "s"),
    ("fastpath.prologue_s.t1", "s"),
    ("fastpath.prologue_s.t2", "s"),
    ("fastpath.lead_idle_s.t1", "s"),
    ("fastpath.lead_idle_s.t2", "s"),
    ("fastpath.worker_idle_s.t2", "s"),
    ("fastpath.unattributed_s.t1", "s"),
    ("fastpath.unattributed_s.t2", "s"),
    ("fastpath.blocks", "count"),
    ("fastpath.repaired", "count"),
    ("fastpath.repair_rate", "ratio"),
    ("fastpath.imbalance.t2", "ratio"),
    ("fastpath.cas_retries.t2", "count"),
    ("dynamic.apply_s", "s"),
    ("dynamic.seed", "count"),
    ("dynamic.lpa_s", "s"),
    ("dynamic.iterations", "count"),
    ("dynamic.changed", "count"),
    ("baselines.gve_lpa_s", "s"),
    ("trace.overhead.t1", "ratio"),
    ("trace.overhead.t2", "ratio"),
];

/// The metric list one run prints.
pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

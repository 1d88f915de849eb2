//! Reproducibility: fixed seeds and configurations must give bit-identical
//! results everywhere — generators, all LPA backends, all baselines, and
//! the simulator's statistics.

use nu_lpa::baselines::{flpa, louvain, networkit_plp, LouvainConfig, PlpConfig};
use nu_lpa::core::{lpa_gpu, lpa_native, lpa_seq, LpaConfig};
use nu_lpa::graph::datasets::{spec_by_name, TEST_SCALE};
use nu_lpa::graph::gen::web_crawl;
use nu_lpa::simt::DeviceConfig;

#[test]
fn dataset_generation_is_stable() {
    for name in ["uk-2002", "com-LiveJournal", "asia_osm", "kmer_A2a"] {
        let s = spec_by_name(name).unwrap();
        assert_eq!(
            s.generate(TEST_SCALE).graph,
            s.generate(TEST_SCALE).graph,
            "{name}"
        );
    }
}

#[test]
fn gpu_backend_fully_deterministic() {
    let g = web_crawl(2000, 6, 0.1, 9);
    let cfg = LpaConfig::default().with_device(DeviceConfig::tiny());
    let a = lpa_gpu(&g, &cfg);
    let b = lpa_gpu(&g, &cfg);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.changed_per_iter, b.changed_per_iter);
}

#[test]
fn seq_backend_deterministic() {
    let g = web_crawl(1500, 5, 0.1, 3);
    let cfg = LpaConfig::default();
    assert_eq!(lpa_seq(&g, &cfg).labels, lpa_seq(&g, &cfg).labels);
}

#[test]
fn baselines_deterministic_per_seed() {
    let g = web_crawl(1500, 5, 0.1, 4);
    assert_eq!(flpa(&g, 11).labels, flpa(&g, 11).labels);
    assert_eq!(
        networkit_plp(&g, &PlpConfig::default()).labels,
        networkit_plp(&g, &PlpConfig::default()).labels
    );
    assert_eq!(
        louvain(&g, &LouvainConfig::default()).labels,
        louvain(&g, &LouvainConfig::default()).labels
    );
}

#[test]
fn native_backend_deterministic_single_thread() {
    // the native backend races benignly across Rayon workers; pinned to
    // one thread it must be exactly reproducible
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let g = web_crawl(1500, 5, 0.1, 5);
    let cfg = LpaConfig::default();
    let (a, b) = pool.install(|| (lpa_native(&g, &cfg), lpa_native(&g, &cfg)));
    assert_eq!(a.labels, b.labels);
}

#[test]
fn frontier_reactivation_never_duplicates_worklist_entries() {
    // Regression test for duplicate frontier enqueues. Hub vertex 0 is
    // weakly tied to every leaf; the leaves are paired by heavy edges, so
    // in the first sweep one leaf of each pair adopts its partner's
    // label — and every one of those movers tries to re-activate the hub
    // in the same sweep. The in-queue bitmap must collapse those into a
    // single worklist entry; the drain-time debug asserts in `lpa_seq`
    // and `lpa_native` panic (under `cargo test`'s debug assertions) if
    // a duplicate ever lands, and the frontier run must still match the
    // dense sweep bit-for-bit.
    use nu_lpa::graph::GraphBuilder;
    let pairs = 12;
    let n = 1 + 2 * pairs;
    let mut edges: Vec<(u32, u32, f32)> = Vec::new();
    for p in 0..pairs as u32 {
        let (a, b) = (1 + 2 * p, 2 + 2 * p);
        edges.push((a, b, 10.0)); // heavy: the pair merges in sweep 1
        edges.push((0, a, 0.1)); // weak: each mover re-activates the hub
        edges.push((0, b, 0.1));
    }
    let g = GraphBuilder::new(n).add_undirected_edges(edges).build();
    let frontier_cfg = LpaConfig::default().with_frontier(true);
    let dense = frontier_cfg.with_frontier(false);
    assert_eq!(
        lpa_seq(&g, &frontier_cfg).labels,
        lpa_seq(&g, &dense).labels,
        "seq frontier diverged from dense"
    );
    for threads in [1, 4] {
        assert_eq!(
            lpa_native(&g, &frontier_cfg.with_threads(threads)).labels,
            lpa_native(&g, &dense.with_threads(1)).labels,
            "native frontier diverged from dense (threads={threads})"
        );
    }
}

#[test]
fn different_seeds_differ() {
    assert_ne!(web_crawl(500, 5, 0.1, 1), web_crawl(500, 5, 0.1, 2));
    let g = web_crawl(800, 5, 0.1, 1);
    // FLPA's random dominant pick responds to its seed
    let a = flpa(&g, 1).labels;
    let b = flpa(&g, 2).labels;
    assert_ne!(a, b, "seeded tie-breaking should vary");
}

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
    let g = web_crawl(1500, 5, 0.1, 5);
    let cfg = LpaConfig::default().with_threads(1);
    assert_eq!(lpa_native(&g, &cfg).labels, lpa_native(&g, &cfg).labels);
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

//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *any* graph, not just the fixtures.

use nu_lpa::core::fastpath::SMALL_PICK_DEGREE;
use nu_lpa::core::{
    bucket_partition, lpa_gpu, lpa_native, lpa_seq, BucketThresholds, LpaConfig, SwapMode,
    SWEEP_BLOCK,
};
use nu_lpa::graph::components::connected_components;
use nu_lpa::graph::gen::erdos_renyi;
use nu_lpa::graph::permute::{random_permutation, relabel};
use nu_lpa::graph::{Csr, GraphBuilder, VertexId};
use nu_lpa::metrics::{check_labels, community_count, modularity, same_partition};
use nu_lpa::simt::DeviceConfig;
use proptest::prelude::*;

/// Arbitrary small undirected graph: up to `n` vertices, random edges.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = nu_lpa::graph::Csr> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f32..4.0), 0..max_m).prop_map(
            move |edges| {
                GraphBuilder::new(n)
                    .add_undirected_edges(edges.into_iter().filter(|(u, v, _)| u != v))
                    .build()
            },
        )
    })
}

/// Arbitrary small graph whose few hubs each have more than
/// `SMALL_PICK_DEGREE` neighbours, among vertices of low degree: the hubs
/// pick from the dense scratch, the rest from the small stack table.
fn arb_hub_graph() -> impl Strategy<Value = Csr> {
    let k = SMALL_PICK_DEGREE;
    (4 * k..4 * k + 30).prop_flat_map(move |n| {
        // A hub joins its spokes to consecutive non-hub vertices from
        // `start`, so they are distinct and its degree exceeds `k`.
        let hub = (
            0..n as u32,
            proptest::collection::vec(0.1f32..4.0, k + 1..2 * k + 2),
        );
        let hubs = proptest::collection::vec(hub, 1..4);
        let rest = proptest::collection::vec((3..n as u32, 3..n as u32, 0.1f32..4.0), 0..n);
        (hubs, rest).prop_map(move |(hubs, rest)| {
            let others = n as u32 - 3;
            let spokes = hubs.into_iter().enumerate().flat_map(|(h, (start, ws))| {
                ws.into_iter()
                    .zip(start..)
                    .map(move |(w, j)| (h as u32, 3 + j % others, w))
            });
            GraphBuilder::new(n)
                .add_undirected_edges(spokes.chain(rest).filter(|(u, v, _)| u != v))
                .build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lpa_seq_labels_always_valid(g in arb_graph(60, 150)) {
        let r = lpa_seq(&g, &LpaConfig::default());
        prop_assert!(check_labels(&g, &r.labels).is_ok());
        prop_assert!(r.iterations >= 1);
        prop_assert_eq!(r.changed_per_iter.len(), r.iterations as usize);
    }

    #[test]
    fn lpa_native_labels_always_valid(g in arb_graph(60, 150)) {
        let r = lpa_native(&g, &LpaConfig::default());
        prop_assert!(check_labels(&g, &r.labels).is_ok());
    }

    #[test]
    fn lpa_gpu_labels_always_valid(g in arb_graph(50, 120)) {
        let cfg = LpaConfig::default().with_device(DeviceConfig::tiny());
        let r = lpa_gpu(&g, &cfg);
        prop_assert!(check_labels(&g, &r.labels).is_ok());
        prop_assert!(r.stats.sim_cycles <= r.stats.lane_cycles + r.stats.idle_cycles);
    }

    #[test]
    fn modularity_always_in_range(g in arb_graph(50, 150)) {
        let r = lpa_seq(&g, &LpaConfig::default());
        let q = modularity(&g, &r.labels);
        prop_assert!((-0.5..=1.0).contains(&q), "Q = {}", q);
    }

    #[test]
    fn pick_less_every_iteration_never_raises_labels(g in arb_graph(40, 100)) {
        let cfg = LpaConfig::default().with_swap_mode(SwapMode::PickLess { every: 1 });
        let r = lpa_seq(&g, &cfg);
        for (v, &l) in r.labels.iter().enumerate() {
            prop_assert!((l as usize) <= v);
        }
    }

    #[test]
    fn isolated_vertices_never_move(g in arb_graph(40, 60)) {
        let r = lpa_seq(&g, &LpaConfig::default());
        for v in g.vertices() {
            if g.degree(v) == 0 {
                prop_assert_eq!(r.labels[v as usize], v);
            }
        }
    }

    #[test]
    fn modularity_invariant_under_relabelling(
        g in arb_graph(40, 100),
        seed in 0u64..1000,
    ) {
        let r = lpa_seq(&g, &LpaConfig::default());
        let q = modularity(&g, &r.labels);
        let perm = random_permutation(g.num_vertices(), seed);
        let h = relabel(&g, &perm);
        // permute the labels the same way: vertex perm[v] gets label ...
        // community ids are arbitrary; map them through perm too
        let mut plabels: Vec<VertexId> = vec![0; g.num_vertices()];
        for v in g.vertices() {
            plabels[perm[v as usize] as usize] = perm[r.labels[v as usize] as usize];
        }
        let q2 = modularity(&h, &plabels);
        prop_assert!((q - q2).abs() < 1e-9, "{} vs {}", q, q2);
    }

    #[test]
    fn community_count_consistent_across_backends(g in arb_graph(40, 120)) {
        // backends may find different partitions, but each must produce at
        // least one community and at most |V|
        let n = g.num_vertices();
        for labels in [
            lpa_seq(&g, &LpaConfig::default()).labels,
            lpa_native(&g, &LpaConfig::default()).labels,
        ] {
            let k = community_count(&labels);
            prop_assert!(k >= 1 && k <= n);
        }
    }

    #[test]
    fn same_partition_is_reflexive(g in arb_graph(30, 80)) {
        let r = lpa_seq(&g, &LpaConfig::default());
        prop_assert!(same_partition(&r.labels, &r.labels));
    }

    #[test]
    fn communities_never_cross_components(g in arb_graph(50, 120)) {
        // labels only travel along edges, so two vertices sharing a
        // community must share a connected component — in every backend
        let comps = connected_components(&g);
        for labels in [
            lpa_seq(&g, &LpaConfig::default()).labels,
            lpa_native(&g, &LpaConfig::default()).labels,
            lpa_gpu(&g, &LpaConfig::default().with_device(DeviceConfig::tiny())).labels,
        ] {
            let mut rep: std::collections::HashMap<u32, u32> = Default::default();
            for v in g.vertices() {
                let entry = rep.entry(labels[v as usize]).or_insert(comps[v as usize]);
                prop_assert_eq!(*entry, comps[v as usize], "community spans components");
            }
        }
    }

    #[test]
    fn community_count_at_least_component_count_under_lpa(g in arb_graph(50, 120)) {
        let comps = connected_components(&g);
        let k_comp = community_count(&nu_lpa::metrics::compact_labels(&comps).0);
        let labels = lpa_native(&g, &LpaConfig::default()).labels;
        prop_assert!(community_count(&labels) >= k_comp);
    }

    #[test]
    fn bucket_partition_is_disjoint_cover_on_any_graph(
        g in arb_graph(60, 150),
        low in 1u32..8,
        span in 1u32..16,
    ) {
        // Every candidate lands in exactly one degree bucket, each bucket
        // respects its threshold band, and candidate order is preserved
        // within a bucket — the invariants the host profiler's per-bucket
        // attribution relies on.
        let t = BucketThresholds { low_max: low, mid_max: low + span };
        let cands: Vec<VertexId> = g.vertices().collect();
        let buckets = bucket_partition(&g, &cands, t);
        let mut seen = vec![false; cands.len()];
        for (k, b) in buckets.iter().enumerate() {
            prop_assert!(b.windows(2).all(|w| w[0] < w[1]), "bucket {} out of order", k);
            for &i in b {
                prop_assert!(!seen[i], "candidate index {} in two buckets", i);
                seen[i] = true;
                let d = g.degree(cands[i]) as u32;
                match k {
                    0 => prop_assert!(d <= t.low_max),
                    1 => prop_assert!(d > t.low_max && d <= t.mid_max),
                    _ => prop_assert!(d > t.mid_max),
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "bucket partition dropped a candidate");
    }
}

proptest! {
    // The identity sweeps run many detections per case; keep the case
    // count low so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn native_matches_sequential_reference_at_any_thread_count(
        g in arb_graph(50, 120),
        hubs in arb_hub_graph(),
    ) {
        // Exact oracle: `lpa_seq` is the one-thread definition of the
        // block-synchronous schedule, so the native backend's labels and
        // ΔN series must equal it at every thread count, under every
        // swap-mitigation mode. The unit-weight
        // copy makes weight ties — and so the tie-break — the common case.
        // The hub graph puts both pick paths (small table, dense scratch)
        // into one run.
        prop_assert!(hubs.degree(0) > SMALL_PICK_DEGREE);
        let (unit, hubs_unit) = (unit_weights(&g), unit_weights(&hubs));
        for (weights, g) in [
            ("random", &g),
            ("unit", &unit),
            ("hub random", &hubs),
            ("hub unit", &hubs_unit),
        ] {
            assert_native_matches_seq(g, weights)?;
        }
    }

    #[test]
    fn native_bit_identical_across_threads_and_bucketing(g in arb_graph(50, 120)) {
        // The block-synchronous schedule fixes which labels every pick
        // reads, so labels and the ΔN series must be bit-identical at any
        // thread count, under every swap-mitigation mode. Degree buckets no longer steer the sweep
        // (they only label the host profiler's attribution), so the only
        // knob left to vary is the thread count.
        for mode in [
            SwapMode::Off,
            SwapMode::CrossCheck { every: 2 },
            SwapMode::PickLess { every: 1 },
            SwapMode::Hybrid { cc_every: 2, pl_every: 3 },
        ] {
            let cfg = LpaConfig::default().with_swap_mode(mode);
            let base = lpa_native(&g, &cfg.with_threads(1));
            for threads in [2usize, 4, 8] {
                let r = lpa_native(&g, &cfg.with_threads(threads));
                prop_assert_eq!(&r.labels, &base.labels, "threads={} {:?}", threads, mode);
                prop_assert_eq!(
                    &r.changed_per_iter, &base.changed_per_iter,
                    "trajectory: threads={} {:?}", threads, mode
                );
            }
        }
    }

    #[test]
    fn native_matches_sequential_reference_across_blocks(
        n in 1100usize..3000,
        degree in 2usize..6,
        seed in 0u64..1000,
    ) {
        // Graphs with more candidates than one sweep block, so picks see
        // labels committed by earlier blocks of the same iteration.
        let g = erdos_renyi(n, n * degree / 2, seed);
        prop_assert!(g.num_vertices() > SWEEP_BLOCK);
        let unit = unit_weights(&g);
        for (weights, g) in [("random", &g), ("unit", &unit)] {
            assert_native_matches_seq(g, weights)?;
        }
    }
}

/// Copy of `g` with every edge weight set to 1.
fn unit_weights(g: &Csr) -> Csr {
    GraphBuilder::new(g.num_vertices())
        .add_edges(
            g.vertices()
                .flat_map(|u| g.neighbor_ids(u).iter().map(move |&v| (u, v, 1.0))),
        )
        .build()
}

/// native ≡ `lpa_seq` on labels and ΔN at threads 1/2/4/8, under every
/// swap-mitigation mode.
fn assert_native_matches_seq(
    g: &Csr,
    weights: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for mode in [
        SwapMode::PickLess { every: 4 },
        SwapMode::Off,
        SwapMode::CrossCheck { every: 2 },
        SwapMode::PickLess { every: 1 },
        SwapMode::Hybrid {
            cc_every: 2,
            pl_every: 3,
        },
    ] {
        let cfg = LpaConfig::default().with_swap_mode(mode);
        let seq = lpa_seq(g, &cfg);
        for threads in [1usize, 2, 4, 8] {
            let r = lpa_native(g, &cfg.with_threads(threads));
            prop_assert_eq!(
                &r.labels,
                &seq.labels,
                "{} weights: threads={} {:?}",
                weights,
                threads,
                mode
            );
            prop_assert_eq!(
                &r.changed_per_iter,
                &seq.changed_per_iter,
                "{} weights trajectory: threads={} {:?}",
                weights,
                threads,
                mode
            );
        }
    }
    Ok(())
}

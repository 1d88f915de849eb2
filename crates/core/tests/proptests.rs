//! Property-based tests for the core crate's extensions: the PuLP
//! partitioner and Dynamic Frontier LPA.

use nulpa_core::{
    apply_batch, frontier, lpa_dynamic, lpa_native, pulp_partition, EdgeBatch, LpaConfig,
    PulpConfig,
};
use nulpa_graph::{Csr, DuplicatePolicy, GraphBuilder, VertexId, Weight};
use nulpa_metrics::{check_labels, imbalance};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The `GraphBuilder` rebuild that `apply_batch` used to run: every kept
/// old edge and both directions of every insertion through the builder.
/// `apply_batch` must reproduce its CSR exactly.
fn rebuild_reference(g: &Csr, batch: &EdgeBatch) -> Csr {
    let mut delete: Vec<(VertexId, VertexId)> = Vec::with_capacity(batch.deletions.len() * 2);
    for &(u, v) in &batch.deletions {
        delete.push((u, v));
        delete.push((v, u));
    }
    delete.sort_unstable();
    delete.dedup();

    let mut b =
        GraphBuilder::new(g.num_vertices()).reserve(g.num_edges() + 2 * batch.insertions.len());
    for u in g.vertices() {
        for (v, w) in g.neighbors(u) {
            if delete.binary_search(&(u, v)).is_err() {
                b.push_edge(u, v, w);
            }
        }
    }
    for &(u, v, w) in &batch.insertions {
        b.push_undirected(u, v, w);
    }
    b.build()
}

/// `offsets`, `targets` and the weight bit patterns are all equal.
fn bit_identical(a: &Csr, b: &Csr) -> bool {
    let bits = |g: &Csr| g.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    a.offsets() == b.offsets() && a.targets() == b.targets() && bits(a) == bits(b)
}

/// A weight with a varied mantissa, so summing in a different order
/// would change the bits; now and then a signed zero or a negative.
fn random_weight(rng: &mut ChaCha8Rng) -> Weight {
    match rng.gen_range(0..10) {
        0 => 0.0,
        1 => -0.0,
        2 => -rng.gen_range(0.1f32..3.0),
        _ => rng.gen_range(0.1f32..3.0),
    }
}

/// A graph as the builder makes it under a random configuration (self
/// loops kept or dropped, any duplicate policy). Some are then rebuilt
/// through `Csr::from_raw` with each run of parallel edges' weights
/// reversed, a layout the builder never emits.
fn random_graph(rng: &mut ChaCha8Rng) -> Csr {
    let n = rng.gen_range(1..20usize);
    let policy = [
        DuplicatePolicy::SumWeights,
        DuplicatePolicy::KeepFirst,
        DuplicatePolicy::KeepAll,
    ][rng.gen_range(0..3)];
    let mut b = GraphBuilder::new(n)
        .keep_self_loops(rng.gen_bool(0.4))
        .duplicate_policy(policy);
    for _ in 0..rng.gen_range(0..3 * n) {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        let w = random_weight(rng);
        b.push_undirected(u, v, w);
        if rng.gen_bool(0.2) {
            b.push_undirected(u, v, random_weight(rng));
        }
    }
    let g = b.build();
    if !rng.gen_bool(0.2) {
        return g;
    }
    let (offsets, targets) = (g.offsets().to_vec(), g.targets().to_vec());
    let mut weights = g.weights().to_vec();
    let mut i = 0;
    while i < targets.len() {
        let mut j = i + 1;
        while j < targets.len() && targets[j] == targets[i] && offsets.binary_search(&j).is_err() {
            j += 1;
        }
        weights[i..j].reverse();
        i = j;
    }
    Csr::from_raw(offsets, targets, weights)
}

/// A batch over `g` mixing every case `apply_batch` distinguishes:
/// fresh, duplicate and already-present insertions, self loops, pairs
/// both deleted and inserted, absent and out-of-range deletions. One in
/// ten batches is empty.
fn random_batch(rng: &mut ChaCha8Rng, g: &Csr) -> EdgeBatch {
    let n = g.num_vertices() as u32;
    let mut batch = EdgeBatch::default();
    if rng.gen_bool(0.1) {
        return batch;
    }
    let existing = |rng: &mut ChaCha8Rng| {
        let u = rng.gen_range(0..n);
        g.neighbor_ids(u)
            .first()
            .map_or((u, rng.gen_range(0..n)), |&v| (u, v))
    };
    for _ in 0..rng.gen_range(0..8) {
        let (u, v) = match rng.gen_range(0..4) {
            0 => existing(rng),
            1 => (rng.gen_range(0..n), rng.gen_range(0..n)),
            2 => batch.insertions.last().map_or((0, 0), |&(u, v, _)| (v, u)),
            _ => {
                let u = rng.gen_range(0..n);
                (u, u)
            }
        };
        batch.insertions.push((u, v, random_weight(rng)));
    }
    for _ in 0..rng.gen_range(0..6) {
        let pair = match rng.gen_range(0..5) {
            0 | 1 => existing(rng),
            2 => batch.insertions.first().map_or((0, 0), |&(u, v, _)| (u, v)),
            3 => (rng.gen_range(0..n), rng.gen_range(0..n)),
            _ => (rng.gen_range(0..n), n + rng.gen_range(0..3)),
        };
        batch.deletions.push(if rng.gen_bool(0.5) {
            pair
        } else {
            (pair.1, pair.0)
        });
    }
    if rng.gen_bool(0.1) {
        batch.deletions.push((VertexId::MAX, 0));
    }
    batch
}

#[test]
fn apply_batch_matches_the_builder_rebuild_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    for case in 0..12_000 {
        let g = random_graph(&mut rng);
        let batch = random_batch(&mut rng, &g);
        let (got, want) = (apply_batch(&g, &batch), rebuild_reference(&g, &batch));
        let arrays = |g: &Csr| format!("{:?} {:?} {:?}", g.offsets(), g.targets(), g.weights());
        assert!(
            bit_identical(&got, &want),
            "case {case}: graph {}, batch {batch:?}: got {}, want {}",
            arrays(&g),
            arrays(&got),
            arrays(&want)
        );
    }
}

fn arb_graph(max_n: usize) -> impl Strategy<Value = nulpa_graph::Csr> {
    (4..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0.2f32..4.0), 0..160).prop_map(
            move |edges| {
                GraphBuilder::new(n)
                    .add_undirected_edges(edges.into_iter().filter(|(u, v, _)| u != v))
                    .build()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pulp_always_balanced_and_valid(g in arb_graph(60), k in 1usize..5) {
        prop_assume!(k <= g.num_vertices());
        let r = pulp_partition(
            &g,
            &PulpConfig {
                num_parts: k,
                ..Default::default()
            },
        );
        prop_assert_eq!(r.parts.len(), g.num_vertices());
        prop_assert!(r.parts.iter().all(|&p| (p as usize) < k));
        // contiguous init is near-perfectly balanced; moves respect the cap,
        // so the ceil'd cap is the only slack
        let cap = ((g.num_vertices() as f64 / k as f64) * 1.05).ceil();
        let max_size = (imbalance(&r.parts, k) * g.num_vertices() as f64 / k as f64).round();
        prop_assert!(max_size <= cap + 0.5, "max {} cap {}", max_size, cap);
    }

    #[test]
    fn apply_batch_preserves_symmetry(
        g in arb_graph(40),
        ins in proptest::collection::vec((0u32..40, 0u32..40, 0.5f32..2.0), 0..20),
        del_seed in 0usize..10,
    ) {
        let n = g.num_vertices() as u32;
        let batch = EdgeBatch {
            insertions: ins
                .into_iter()
                .filter(|&(u, v, _)| u < n && v < n && u != v)
                .collect(),
            deletions: (0..del_seed)
                .filter_map(|i| {
                    let u = (i as u32 * 7) % n;
                    g.neighbor_ids(u).first().map(|&v| (u, v))
                })
                .collect(),
        };
        let g2 = apply_batch(&g, &batch);
        prop_assert!(bit_identical(&g2, &rebuild_reference(&g, &batch)));
        prop_assert!(g2.validate().is_ok());
        prop_assert!(g2.is_symmetric());
        // all insertions present (unless also deleted in the same batch)
        for &(u, v, _) in &batch.insertions {
            let deleted = batch.deletions.iter().any(|&(a, b)| {
                (a, b) == (u, v) || (a, b) == (v, u)
            });
            if !deleted {
                prop_assert!(g2.has_edge(u, v), "missing ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn dynamic_always_valid_and_frontier_sound(
        g in arb_graph(50),
        ins in proptest::collection::vec((0u32..50, 0u32..50), 0..15),
    ) {
        let n = g.num_vertices() as u32;
        let cfg = LpaConfig::default();
        let base = lpa_native(&g, &cfg);
        let batch = EdgeBatch {
            insertions: ins
                .into_iter()
                .filter(|&(u, v)| u < n && v < n && u != v)
                .map(|(u, v)| (u, v, 1.0))
                .collect(),
            deletions: vec![],
        };
        // frontier only ever contains batch endpoints
        let f = frontier(&batch, &base.labels);
        for &v in &f {
            prop_assert!(batch
                .insertions
                .iter()
                .any(|&(a, b, _)| a == v || b == v));
        }
        let (g_new, r) = lpa_dynamic(&g, &base.labels, &batch, &cfg);
        prop_assert!(check_labels(&g_new, &r.labels).is_ok());
    }

    #[test]
    fn empty_batch_is_identity(g in arb_graph(40)) {
        let cfg = LpaConfig::default();
        let base = lpa_native(&g, &cfg);
        let (g2, r) = lpa_dynamic(&g, &base.labels, &EdgeBatch::default(), &cfg);
        prop_assert_eq!(g2, g);
        prop_assert_eq!(r.total_changes(), 0);
        prop_assert_eq!(r.labels, base.labels);
    }
}

//! Sequential reference LPA: the one-thread definition of the schedule
//! [`crate::lpa_native`] runs.
//!
//! A deliberately simple implementation used as the exact oracle for the
//! native backend and for differential testing of the simulator. Each
//! iteration shuffles the candidates (`shuffle_candidates`) and cuts
//! them into consecutive blocks of [`SWEEP_BLOCK`]. Every pick in a block
//! reads the labels as of the block's start; the block's moves are then
//! stored, and each mover un-prunes its neighbours. A pick sums the
//! neighbours' edge weights per label in CSR order (in the configured
//! value type) and takes the first maximum in first-touched order, as
//! GVE-LPA does. Pick-Less, Cross-Check, pruning and the per-iteration
//! tolerance follow ν-LPA.

use crate::config::{LpaConfig, ValueType};
use crate::observe::{IterObserver, NullObserver};
use crate::result::LpaResult;
use nulpa_graph::{Csr, VertexId};
use nulpa_hashtab::HashValue;
use nulpa_simt::{track, KernelStats, NullSink, TraceSink};
use std::collections::HashMap;
use std::time::Instant;

/// Candidates per sweep block. Picks within a block read the labels as
/// of the block's start; blocks commit in order. A constant, so the
/// schedule — and every result — is independent of the thread count.
pub const SWEEP_BLOCK: usize = 1024;

/// Deterministically shuffle the candidate sweep order.
///
/// The original RAK algorithm processes vertices "in a random order" each
/// iteration, and parallel implementations get an effectively interleaved
/// order from their schedulers. A strictly ascending sweep with immediate
/// label visibility is pathological: on the all-ties first iteration a
/// single label can cascade through the whole graph in one pass, producing
/// a monster community. A seeded Fisher–Yates shuffle (varied per
/// iteration) restores the intended behaviour while staying reproducible.
// `#[inline]` lets the native sweep's per-iteration prologue inline the
// draw loop whichever codegen unit rustc places this module in.
#[inline]
pub(crate) fn shuffle_candidates(candidates: &mut [VertexId], iter: u32) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x6c70_6100 + iter as u64);
    candidates.shuffle(&mut rng);
}

/// Run the sequential reference LPA.
pub fn lpa_seq(g: &Csr, config: &LpaConfig) -> LpaResult {
    lpa_seq_traced(g, config, &mut NullSink)
}

/// [`lpa_seq`] with per-iteration tracing, timestamped in elapsed
/// wall-clock microseconds (the reference backend has no simulated
/// clock). The caller owns `sink.finish()`.
pub fn lpa_seq_traced(g: &Csr, config: &LpaConfig, sink: &mut dyn TraceSink) -> LpaResult {
    lpa_seq_observed(g, config, sink, &mut NullObserver)
}

/// [`lpa_seq_traced`] plus an [`IterObserver`] called after every
/// committed iteration — the convergence-telemetry attachment point.
pub fn lpa_seq_observed(
    g: &Csr,
    config: &LpaConfig,
    sink: &mut dyn TraceSink,
    obs: &mut dyn IterObserver,
) -> LpaResult {
    config.validate().expect("invalid LPA config");
    match config.value_type {
        ValueType::F32 => lpa_seq_typed::<f32>(g, config, sink, obs),
        ValueType::F64 => lpa_seq_typed::<f64>(g, config, sink, obs),
    }
}

/// The first-touched strict pick for `v`: per-label weight sums in CSR
/// order, first maximum in the order labels are first seen.
fn pick<V: HashValue>(g: &Csr, v: VertexId, labels: &[VertexId]) -> Option<VertexId> {
    let mut slot: HashMap<VertexId, usize> = HashMap::new();
    let mut sums: Vec<(VertexId, V)> = Vec::new();
    for (j, w) in g.neighbors(v) {
        if j == v {
            continue;
        }
        let c = labels[j as usize];
        let i = *slot.entry(c).or_insert_with(|| {
            sums.push((c, V::zero()));
            sums.len() - 1
        });
        sums[i].1 = sums[i].1.add(V::from_weight(w));
    }
    let mut best: Option<(VertexId, V)> = None;
    for &(c, w) in &sums {
        if best.is_none_or(|(_, bw)| w > bw) {
            best = Some((c, w));
        }
    }
    best.map(|(c, _)| c)
}

fn lpa_seq_typed<V: HashValue>(
    g: &Csr,
    config: &LpaConfig,
    sink: &mut dyn TraceSink,
    obs: &mut dyn IterObserver,
) -> LpaResult {
    let n = g.num_vertices();
    let t0 = Instant::now();
    let mut labels: Vec<VertexId> = (0..n as VertexId).collect();
    let mut processed = vec![false; n];
    let mut changed_per_iter = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        let mut candidates: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| (!config.pruning || !processed[v as usize]) && g.degree(v) > 0)
            .collect();
        if candidates.is_empty() {
            // Nothing can change, so the run is converged without spending
            // (or recording) a sweep.
            converged = true;
            break;
        }
        iterations = iter + 1;
        let pick_less = config.swap_mode.pick_less_on(iter);
        let prev = if config.swap_mode.cross_check_on(iter) {
            Some(labels.clone())
        } else {
            None
        };

        shuffle_candidates(&mut candidates, iter);
        let active = candidates.len();
        if sink.is_enabled() {
            sink.span_begin(
                track::HOST,
                "iteration",
                t0.elapsed().as_micros() as u64,
                &[("iter", iter.into())],
            );
        }

        let mut changed = 0usize;
        for block in candidates.chunks(SWEEP_BLOCK) {
            let mut moves = Vec::new();
            for &v in block {
                processed[v as usize] = true;
                let cur = labels[v as usize];
                match pick::<V>(g, v, &labels) {
                    Some(c) if c != cur && (!pick_less || c < cur) => moves.push((v, c)),
                    _ => {}
                }
            }
            changed += moves.len();
            for (v, c) in moves {
                labels[v as usize] = c;
                for &j in g.neighbor_ids(v) {
                    processed[j as usize] = false;
                }
            }
        }

        // Cross-Check pass: revert "bad" changes (paper §4.1).
        if let Some(prev) = prev {
            let mut reverted = 0usize;
            for v in 0..n {
                let c = labels[v];
                if c != prev[v] && labels[c as usize] != c {
                    labels[v] = prev[v];
                    // reverted vertices may need reprocessing
                    processed[v] = false;
                    reverted += 1;
                }
            }
            // a reverted move no longer counts as a change
            changed -= reverted;
        }

        changed_per_iter.push(changed);
        if obs.is_enabled() {
            obs.on_iteration(iter, changed, active, n, &labels);
        }
        if sink.is_enabled() {
            let ts = t0.elapsed().as_micros() as u64;
            sink.counter("dN", ts, changed as f64);
            sink.counter("active_vertices", ts, active as f64);
            sink.span_end(
                track::HOST,
                "iteration",
                ts,
                &[
                    ("iter", iter.into()),
                    ("active", active.into()),
                    ("dN", changed.into()),
                    ("pick_less", pick_less.into()),
                ],
            );
        }
        // ΔN = 0 converges even on Pick-Less-gated iterations (PL1 would
        // otherwise never pass the gated test); see the same check in
        // `gpu.rs`.
        if changed == 0 || (!pick_less && (changed as f64 / n.max(1) as f64) < config.tolerance) {
            converged = true;
            break;
        }
    }

    LpaResult {
        labels,
        iterations,
        converged,
        scanned_per_iter: vec![n; changed_per_iter.len()],
        changed_per_iter,
        stats: KernelStats::new(),
        staged_collisions: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LpaConfig, SwapMode};
    use nulpa_graph::gen::{
        caveman_ground_truth, caveman_weighted, complete, star, two_cliques_light_bridge,
    };
    use nulpa_graph::{Csr, GraphBuilder};
    use nulpa_metrics::{community_count, modularity, same_partition};

    fn cfg() -> LpaConfig {
        LpaConfig::default()
    }

    #[test]
    fn pl1_converges_on_stable_labeling() {
        // The `!pick_less` gate alone would keep PL1 running to the cap;
        // ΔN = 0 must end the run (same fix as gpu.rs/native.rs).
        let g = two_cliques_light_bridge(6);
        let pl1 = cfg().with_swap_mode(SwapMode::PickLess { every: 1 });
        let r = lpa_seq(&g, &pl1);
        assert!(r.converged);
        assert!(r.iterations < pl1.max_iterations);
        assert_eq!(*r.changed_per_iter.last().unwrap(), 0);
    }

    #[test]
    fn two_cliques_found_exactly() {
        let g = two_cliques_light_bridge(6);
        let r = lpa_seq(&g, &cfg());
        assert!(r.converged);
        assert!(same_partition(&r.labels, &caveman_ground_truth(2, 6)));
    }

    #[test]
    fn caveman_communities_recovered() {
        let g = caveman_weighted(5, 8, 0.5);
        let r = lpa_seq(&g, &cfg());
        assert!(same_partition(&r.labels, &caveman_ground_truth(5, 8)));
        let q = modularity(&g, &r.labels);
        assert!(q > 0.6, "Q = {q}");
    }

    #[test]
    fn complete_graph_collapses_to_one_community() {
        let g = complete(10);
        let r = lpa_seq(&g, &cfg());
        assert_eq!(community_count(&r.labels), 1);
    }

    #[test]
    fn star_collapses_to_one_community() {
        let g = star(10);
        let r = lpa_seq(&g, &cfg());
        assert_eq!(community_count(&r.labels), 1);
    }

    #[test]
    fn empty_graph_keeps_singletons() {
        let g = Csr::empty(5);
        let r = lpa_seq(&g, &cfg());
        assert_eq!(r.labels, vec![0, 1, 2, 3, 4]);
        assert!(r.converged);
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let g = GraphBuilder::new(4).add_undirected_edge(0, 1, 1.0).build();
        let r = lpa_seq(&g, &cfg());
        assert_eq!(r.labels[2], 2);
        assert_eq!(r.labels[3], 3);
        assert_eq!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn labels_always_valid_vertex_ids() {
        let g = nulpa_graph::gen::erdos_renyi(120, 300, 9);
        let r = lpa_seq(&g, &cfg());
        assert!(nulpa_metrics::check_labels(&g, &r.labels).is_ok());
    }

    #[test]
    fn deterministic() {
        let g = nulpa_graph::gen::erdos_renyi(100, 250, 4);
        let a = lpa_seq(&g, &cfg());
        let b = lpa_seq(&g, &cfg());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn respects_iteration_cap() {
        let g = nulpa_graph::gen::erdos_renyi(200, 800, 2);
        let c = cfg().with_max_iterations(2);
        let r = lpa_seq(&g, &c);
        assert!(r.iterations <= 2);
        assert_eq!(r.changed_per_iter.len(), r.iterations as usize);
    }

    #[test]
    fn pick_less_never_increases_labels_on_pl_iterations() {
        // On a PL iteration (iter 0 with PL1), every adopted label must be
        // smaller than the vertex's previous label (its own id initially).
        let g = caveman_weighted(4, 5, 0.5);
        let c = cfg().with_swap_mode(SwapMode::PickLess { every: 1 });
        let r = lpa_seq(&g, &c);
        for (v, &l) in r.labels.iter().enumerate() {
            assert!(l as usize <= v, "vertex {v} got larger label {l}");
        }
    }

    #[test]
    fn swap_modes_all_converge_on_structured_graph() {
        let g = caveman_weighted(6, 6, 0.5);
        for mode in [
            SwapMode::Off,
            SwapMode::CrossCheck { every: 2 },
            SwapMode::PickLess { every: 4 },
            SwapMode::Hybrid {
                cc_every: 2,
                pl_every: 4,
            },
        ] {
            let r = lpa_seq(&g, &cfg().with_swap_mode(mode));
            let q = modularity(&g, &r.labels);
            assert!(q > 0.5, "{mode:?}: Q = {q}");
        }
    }

    #[test]
    fn weighted_edges_steer_labels() {
        // 0-1 heavy, 1-2 light: 1 joins 0's community
        let g = GraphBuilder::new(3)
            .add_undirected_edge(0, 1, 10.0)
            .add_undirected_edge(1, 2, 0.1)
            .build();
        let r = lpa_seq(&g, &cfg());
        assert_eq!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn edgeless_graph_converges_without_a_sweep() {
        // No edges: no vertex is ever a candidate, so the run must report
        // converged without recording a single iteration.
        let g = Csr::empty(5);
        let r = lpa_seq(&g, &cfg());
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.changed_per_iter.is_empty());
        assert_eq!(r.labels, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn changed_counts_monotone_trend() {
        // changes should generally shrink as labels converge; assert the
        // last recorded iteration changed fewer vertices than the first
        let g = caveman_weighted(8, 8, 0.5);
        let r = lpa_seq(&g, &cfg());
        if r.changed_per_iter.len() >= 2 {
            assert!(r.changed_per_iter.last().unwrap() <= &r.changed_per_iter[0]);
        }
    }
}

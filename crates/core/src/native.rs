//! Native (CPU) port of ν-LPA — the wall-clock backend.
//!
//! The paper's headline speedups (Fig. 6) are wall-clock numbers on real
//! hardware; the SIMT simulator measures *modelled* cycles, not time. This
//! backend runs the same schedule — shuffled sweeps, Pick-Less every 4
//! iterations, vertex pruning, strict first-max label picks — on the
//! host, and is what `fig_compare` times against the baselines.
//!
//! Differences from the GPU backend, all documented in DESIGN.md:
//! * Label weights accumulate in a dense per-thread array indexed by
//!   label (GVE-LPA's layout) instead of per-vertex open-addressing
//!   hashtables; ties go to the first-touched label (see
//!   [`crate::fastpath`]).
//! * Label visibility is block-synchronous: picks read the labels as of
//!   the start of their [`crate::SWEEP_BLOCK`]-candidate block, a fixed
//!   stand-in for the GPU's wave. The committed trajectory is exactly
//!   [`crate::lpa_seq`]'s, bit-identical at any thread count; `--threads
//!   N` splits every block's picks and commits over `N` threads.

use crate::config::{LpaConfig, ValueType};
use crate::fastpath::with_lanes;
use crate::hostprof::HostProfData;
use crate::observe::{IterObserver, NullObserver};
use crate::result::LpaResult;
use nulpa_graph::{Csr, VertexId};
use nulpa_hashtab::HashValue;
use nulpa_simt::{track, KernelStats, NullSink, TraceSink};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::Instant;

/// Run the native parallel ν-LPA port.
pub fn lpa_native(g: &Csr, config: &LpaConfig) -> LpaResult {
    lpa_native_traced(g, config, &mut NullSink)
}

/// [`lpa_native`] with per-iteration tracing. There is no simulated clock
/// here — spans are timestamped in elapsed wall-clock **microseconds**
/// since the call started. The caller owns `sink.finish()`.
pub fn lpa_native_traced(g: &Csr, config: &LpaConfig, sink: &mut dyn TraceSink) -> LpaResult {
    lpa_native_observed(g, config, sink, &mut NullObserver)
}

/// [`lpa_native_traced`] plus an [`IterObserver`] called after every
/// committed iteration — the convergence-telemetry attachment point.
pub fn lpa_native_observed(
    g: &Csr,
    config: &LpaConfig,
    sink: &mut dyn TraceSink,
    obs: &mut dyn IterObserver,
) -> LpaResult {
    run(g, config, None, sink, obs, None)
}

/// [`lpa_native`] with the host-parallel execution profiler attached:
/// per-thread compute/commit span timelines, per-bucket work counters,
/// and per-iteration schedule statistics (see [`crate::hostprof`]).
///
/// The profiled run is bit-identical to [`lpa_native`] — the recorder
/// only observes which thread did what, never what was computed. The
/// profile is always `Some`.
pub fn lpa_native_hostprof(g: &Csr, config: &LpaConfig) -> (LpaResult, Option<HostProfData>) {
    let mut prof = None;
    let result = run(
        g,
        config,
        None,
        &mut NullSink,
        &mut NullObserver,
        Some(&mut prof),
    );
    (result, prof)
}

/// Run the native port from existing state: `init_labels` seeds the
/// community memberships and only `unprocessed` starts in the work set
/// (everything else is considered converged until a neighbour changes).
/// This is the engine behind [`crate::dynamic::lpa_dynamic`].
pub fn lpa_native_from_state(
    g: &Csr,
    config: &LpaConfig,
    init_labels: Vec<VertexId>,
    unprocessed: &[VertexId],
) -> LpaResult {
    run(
        g,
        config,
        Some((init_labels, unprocessed)),
        &mut NullSink,
        &mut NullObserver,
        None,
    )
}

/// Validate `config` and run the sweep in its value type. `warm` holds a
/// warm start's labels and unprocessed seed; `None` starts every vertex
/// in its own community, unprocessed.
fn run(
    g: &Csr,
    config: &LpaConfig,
    warm: Option<(Vec<VertexId>, &[VertexId])>,
    sink: &mut dyn TraceSink,
    obs: &mut dyn IterObserver,
    hostprof: Option<&mut Option<HostProfData>>,
) -> LpaResult {
    config.validate().expect("invalid LPA config");
    match config.value_type {
        ValueType::F32 => lpa_native_typed::<f32>(g, config, warm, sink, obs, hostprof),
        ValueType::F64 => lpa_native_typed::<f64>(g, config, warm, sink, obs, hostprof),
    }
}

fn lpa_native_typed<V: HashValue>(
    g: &Csr,
    config: &LpaConfig,
    warm: Option<(Vec<VertexId>, &[VertexId])>,
    sink: &mut dyn TraceSink,
    obs: &mut dyn IterObserver,
    hostprof: Option<&mut Option<HostProfData>>,
) -> LpaResult {
    let n = g.num_vertices();
    // Isolated vertices are never candidates; marking them processed up
    // front lets the pruned candidate filter read the flags alone.
    let (init_labels, processed): (Vec<VertexId>, Vec<AtomicU8>) = match warm {
        // static run: every vertex with an edge starts unprocessed
        None => (
            (0..n as VertexId).collect(),
            (0..n as VertexId)
                .map(|v| AtomicU8::new((g.degree(v) == 0) as u8))
                .collect(),
        ),
        // warm start: only the given seed is unprocessed
        Some((init_labels, seed)) => {
            assert_eq!(init_labels.len(), n, "label length mismatch");
            let flags: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(1)).collect();
            for &v in seed {
                if g.degree(v) > 0 {
                    flags[v as usize].store(0, Ordering::Relaxed);
                }
            }
            (init_labels, flags)
        }
    };
    let labels: Vec<AtomicU32> = init_labels.into_iter().map(AtomicU32::new).collect();
    let threads = crate::config::resolve_threads(config.threads);
    let ((iterations, converged, changed_per_iter), prof) = with_lanes::<V, _>(
        g,
        &labels,
        &processed,
        threads,
        hostprof.is_some(),
        |sweep| {
            let mut changed_per_iter = Vec::new();
            let mut converged = false;
            let mut iterations = 0;
            let t0 = Instant::now();
            let now_us = |t0: &Instant| t0.elapsed().as_micros() as u64;

            for iter in 0..config.max_iterations {
                let pick_less = config.swap_mode.pick_less_on(iter);
                let prev = config.swap_mode.cross_check_on(iter).then(|| {
                    labels
                        .iter()
                        .map(|l| l.load(Ordering::Relaxed))
                        .collect::<Vec<_>>()
                });
                let start_us = now_us(&t0);
                let Some(swept) = sweep.run_iteration(iter, config.pruning, pick_less) else {
                    // No candidate: nothing can change, so the run is
                    // converged without recording a sweep.
                    converged = true;
                    break;
                };
                iterations = iter + 1;
                let (active, mut changed) = (swept.active, swept.changed);
                if sink.is_enabled() {
                    sink.span_begin(track::HOST, "iteration", start_us, &[("iter", iter.into())]);
                }

                // Cross-Check pass (paper §4.1): sequential over changed
                // vertices, so a revert is visible to the partner's check
                // — this is the symmetry breaker.
                if let Some(prev) = prev {
                    let mut reverted = 0usize;
                    for v in 0..n {
                        let c = labels[v].load(Ordering::Relaxed);
                        if c != prev[v] && labels[c as usize].load(Ordering::Relaxed) != c {
                            labels[v].store(prev[v], Ordering::Relaxed);
                            processed[v].store(0, Ordering::Relaxed);
                            reverted += 1;
                        }
                    }
                    changed = changed.saturating_sub(reverted);
                }

                changed_per_iter.push(changed);
                if obs.is_enabled() {
                    let snapshot: Vec<VertexId> =
                        labels.iter().map(|l| l.load(Ordering::Relaxed)).collect();
                    obs.on_iteration(iter, changed, active, &snapshot);
                }
                if sink.is_enabled() {
                    let ts = now_us(&t0);
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
                // ΔN = 0 converges even on Pick-Less-gated iterations (PL1
                // would otherwise never pass the gated test); see the same
                // check in `gpu.rs`.
                if changed == 0
                    || (!pick_less && (changed as f64 / n.max(1) as f64) < config.tolerance)
                {
                    converged = true;
                    break;
                }
            }
            (iterations, converged, changed_per_iter)
        },
    );

    if let Some(out) = hostprof {
        *out = prof;
    }
    LpaResult {
        labels: labels.into_iter().map(|l| l.into_inner()).collect(),
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
    use crate::gpu::lpa_gpu;
    use crate::seq::lpa_seq;
    use nulpa_graph::gen::{
        caveman_ground_truth, caveman_weighted, complete, erdos_renyi, planted_partition,
        two_cliques_light_bridge,
    };
    use nulpa_graph::GraphBuilder;
    use nulpa_metrics::{check_labels, community_count, modularity, nmi, same_partition};
    use nulpa_simt::DeviceConfig;

    fn cfg() -> LpaConfig {
        LpaConfig::default()
    }

    #[test]
    fn two_cliques_recovered() {
        let g = two_cliques_light_bridge(6);
        let r = lpa_native(&g, &cfg());
        assert!(check_labels(&g, &r.labels).is_ok());
        assert!(same_partition(&r.labels, &caveman_ground_truth(2, 6)));
        assert!(r.converged);
    }

    #[test]
    fn pl1_converges_on_stable_labeling() {
        // The `!pick_less` gate alone would keep PL1 running to the cap;
        // ΔN = 0 must end the run (same fix as gpu.rs/seq.rs).
        let g = two_cliques_light_bridge(6);
        let pl1 = cfg().with_swap_mode(SwapMode::PickLess { every: 1 });
        let r = lpa_native(&g, &pl1);
        assert!(r.converged);
        assert!(r.iterations < pl1.max_iterations);
        assert_eq!(*r.changed_per_iter.last().unwrap(), 0);
    }

    #[test]
    fn caveman_recovered() {
        let g = caveman_weighted(6, 8, 0.5);
        let r = lpa_native(&g, &cfg());
        assert!(same_partition(&r.labels, &caveman_ground_truth(6, 8)));
    }

    #[test]
    fn complete_graph_single_community() {
        let g = complete(16);
        let r = lpa_native(&g, &cfg());
        assert_eq!(community_count(&r.labels), 1);
    }

    #[test]
    fn matches_gpu_and_seq_quality_on_planted_graph() {
        // seed 5 recovers the planted partition exactly under all backends
        let pp = planted_partition(&[60, 60, 60], 12.0, 0.5, 5);
        let q_native = modularity(&pp.graph, &lpa_native(&pp.graph, &cfg()).labels);
        let q_seq = modularity(&pp.graph, &lpa_seq(&pp.graph, &cfg()).labels);
        let q_gpu = modularity(
            &pp.graph,
            &lpa_gpu(&pp.graph, &cfg().with_device(DeviceConfig::tiny())).labels,
        );
        assert!(q_native > 0.9 * q_seq, "native {q_native} vs seq {q_seq}");
        assert!(q_native > 0.9 * q_gpu, "native {q_native} vs gpu {q_gpu}");
        let r = lpa_native(&pp.graph, &cfg());
        assert!(nmi(&r.labels, &pp.ground_truth) > 0.9);
    }

    #[test]
    fn labels_always_valid() {
        let g = erdos_renyi(300, 900, 7);
        let r = lpa_native(&g, &cfg());
        assert!(check_labels(&g, &r.labels).is_ok());
        assert_eq!(r.changed_per_iter.len(), r.iterations as usize);
    }

    #[test]
    fn empty_and_isolated() {
        let g = nulpa_graph::Csr::empty(4);
        let r = lpa_native(&g, &cfg());
        assert_eq!(r.labels, vec![0, 1, 2, 3]);

        let g = GraphBuilder::new(3).add_undirected_edge(0, 1, 1.0).build();
        let r = lpa_native(&g, &cfg());
        assert_eq!(r.labels[2], 2);
        assert_eq!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn all_swap_modes_work() {
        let g = caveman_weighted(4, 6, 0.5);
        let truth = caveman_ground_truth(4, 6);
        for mode in [
            SwapMode::Off,
            SwapMode::PickLess { every: 4 },
            SwapMode::CrossCheck { every: 2 },
            SwapMode::Hybrid {
                cc_every: 2,
                pl_every: 4,
            },
        ] {
            let r = lpa_native(&g, &cfg().with_swap_mode(mode));
            assert!(
                same_partition(&r.labels, &truth),
                "{mode:?} failed to recover cliques"
            );
        }
    }

    #[test]
    fn f64_values_give_same_quality() {
        let pp = planted_partition(&[50, 50], 8.0, 1.0, 31);
        let q32 = modularity(&pp.graph, &lpa_native(&pp.graph, &cfg()).labels);
        let q64 = modularity(
            &pp.graph,
            &lpa_native(&pp.graph, &cfg().with_value_type(ValueType::F64)).labels,
        );
        assert!((q32 - q64).abs() < 0.05, "{q32} vs {q64}");
    }

    #[test]
    fn self_loops_ignored() {
        let g = GraphBuilder::new(2)
            .keep_self_loops(true)
            .add_edge(1, 1, 50.0)
            .add_undirected_edge(0, 1, 1.0)
            .build();
        let r = lpa_native(&g, &cfg());
        assert_eq!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn pick_less_iterations_only_decrease_labels() {
        let g = caveman_weighted(3, 7, 0.5);
        let c = cfg().with_swap_mode(SwapMode::PickLess { every: 1 });
        let r = lpa_native(&g, &c);
        for (v, &l) in r.labels.iter().enumerate() {
            assert!((l as usize) <= v);
        }
    }

    #[test]
    fn respects_iteration_cap() {
        let g = erdos_renyi(200, 800, 11);
        let r = lpa_native(&g, &cfg().with_max_iterations(3));
        assert!(r.iterations <= 3);
    }

    #[test]
    fn empty_warm_start_converges_without_a_sweep() {
        // Warm start with nothing to do: no vertex starts unprocessed, so
        // the run must report converged without recording an iteration.
        let g = two_cliques_light_bridge(6);
        let settled = lpa_native(&g, &cfg());
        let r = lpa_native_from_state(&g, &cfg(), settled.labels.clone(), &[]);
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.changed_per_iter.is_empty());
        assert_eq!(r.labels, settled.labels);
    }

    /// A kmer stand-in whose first iteration sweeps more than 2¹⁴
    /// candidates, so every lane draws and places thousands of words.
    fn big_standin() -> Csr {
        let g = nulpa_graph::datasets::spec_by_name("kmer_V1r")
            .expect("kmer_V1r is a Table 1 stand-in")
            .generate(0.0001)
            .graph;
        assert!(g.vertices().filter(|&v| g.degree(v) > 0).count() > 1 << 14);
        g
    }

    #[test]
    fn native_matches_seq_on_a_big_standin_at_any_lane_count() {
        let g = big_standin();
        for pruning in [true, false] {
            let cfg = cfg().with_pruning(pruning).with_max_iterations(8);
            let seq = lpa_seq(&g, &cfg);
            for threads in [1, 2, 3, 4, 7] {
                let r = lpa_native(&g, &cfg.with_threads(threads));
                let ctx = format!("pruning={pruning} threads={threads}");
                assert_eq!(r.labels, seq.labels, "{ctx}");
                assert_eq!(r.changed_per_iter, seq.changed_per_iter, "{ctx}");
            }
        }
    }

    #[test]
    fn sparse_warm_start_matches_seq_at_any_lane_count() {
        // Settled labels, then a seed of every 97th vertex plus the last
        // 2,000: the lanes' vertex ranges hold very different candidate
        // counts.
        let g = big_standin();
        let n = g.num_vertices() as VertexId;
        let settled = lpa_native(&g, &cfg().with_max_iterations(4)).labels;
        let seed: Vec<VertexId> = g
            .vertices()
            .filter(|&v| v % 97 == 0 || v + 2_000 >= n)
            .collect();
        let seq = crate::seq::lpa_seq_from_state(&g, &cfg(), settled.clone(), &seed);
        assert!(seq.iterations > 1, "the warm start must sweep");
        for threads in [1, 2, 3, 4, 7] {
            let r = lpa_native_from_state(&g, &cfg().with_threads(threads), settled.clone(), &seed);
            assert_eq!(r.labels, seq.labels, "threads={threads}");
            assert_eq!(
                r.changed_per_iter, seq.changed_per_iter,
                "threads={threads}"
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn profiled_lanes_report_where_they_ran() {
        let g = erdos_renyi(300, 900, 7);
        for threads in [1, 2, 4] {
            let (_, prof) = lpa_native_hostprof(&g, &cfg().with_threads(threads));
            let prof = prof.expect("a profiled run returns a profile");
            assert_eq!(prof.per_thread.len(), threads);
            assert!(
                prof.per_thread.iter().all(|t| t.cpu.is_some()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn panic_in_the_lead_stops_the_workers() {
        // An observer panic unwinds the lead while the workers wait on the
        // barrier; they must be released and joined, not left waiting.
        struct Bomb;
        impl IterObserver for Bomb {
            fn on_iteration(&mut self, _: u32, _: usize, _: usize, _: &[VertexId]) {
                panic!("observer failed");
            }
        }
        let g = erdos_renyi(300, 900, 7);
        for threads in [2, 4] {
            let r = std::panic::catch_unwind(|| {
                lpa_native_observed(&g, &cfg().with_threads(threads), &mut NullSink, &mut Bomb)
            });
            assert!(r.is_err(), "threads={threads}");
        }
    }
}

//! ν-LPA on the SIMT simulator (paper Algorithm 1).
//!
//! This is the reproduction of the paper's CUDA implementation, run on the
//! execution-model simulator of [`nulpa_simt`]:
//!
//! * Unprocessed vertices are partitioned by degree into a
//!   **thread-per-vertex** kernel (degree < `switch_degree`) and a
//!   **block-per-vertex** kernel (paper §4.3).
//! * Per-vertex hashtables live in two global `2|E|` buffers, addressed by
//!   CSR offsets (paper §4.2, Fig. 2); the thread kernel uses the unshared
//!   (atomic-free) table path, the block kernel the shared path with
//!   `atomicCAS`/`atomicAdd` charging.
//! * Label writes go through a [`SyncDeferredStore`]: within a wave
//!   everyone sees wave-start labels (lockstep visibility — the very
//!   mechanism that causes community swaps); across waves updates are
//!   visible (asynchronous LPA).
//! * Swap mitigation (paper §4.1): the Pick-Less gate restricts moves to
//!   strictly smaller labels every ρ iterations; Cross-Check validates and
//!   reverts "bad" moves (`C[c*] ≠ c*`) in a follow-up pass.
//!
//! Everything a lane does is metered (global reads/writes, atomics, probe
//! steps), so the returned [`KernelStats`] carries the simulated cycles,
//! divergence, and probe counts that the Fig. 1/3/4/5/7 harnesses report.
//!
//! # Host parallelism
//!
//! Lanes of a wave are independent by construction (reads see wave-start
//! state, writes are staged), so the scheduler may run a wave's lanes on
//! several host threads: each lane stages its writes into a per-host-thread
//! `LaneShard`, and the shards are merged in deterministic lane order at
//! the wave boundary. Labels, `KernelStats`, collision counts, and trace
//! output are bit-for-bit identical at every thread count; see
//! [`crate::config::resolve_threads`] for how `LpaConfig::threads` and
//! `NULPA_THREADS` pick the host-thread count. The shared state is
//! therefore lock-free by structure: committed labels/flags are atomics
//! read from `&self`, per-vertex hashtable regions are disjoint
//! [`DisjointBuffer`] slices tiled by the CSR layout, and the ΔN counter
//! is a commutative `fetch_add`.

use crate::addr::AddrMap;
use crate::config::{resolve_threads, LpaConfig, ValueType};
use crate::disjoint::DisjointBuffer;
use crate::observe::{IterObserver, NullObserver};
use crate::partition::partition_candidates;
use crate::result::LpaResult;
use nulpa_graph::{Csr, VertexId};
use nulpa_hashtab::{HashValue, TableMut, TableSlot, EMPTY_KEY};
use nulpa_simt::{
    track, KernelStats, LaneMeter, NullSink, StagedWrites, SyncDeferredStore, TraceSink,
    WaveScheduler, Width,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Run ν-LPA on the simulated device configured in `config`.
pub fn lpa_gpu(g: &Csr, config: &LpaConfig) -> LpaResult {
    lpa_gpu_traced(g, config, &mut NullSink)
}

/// [`lpa_gpu`] with structured tracing: per-iteration spans (active-vertex
/// count, thread/block partition sizes, ΔN, Pick-Less gating), per-kernel
/// and per-wave spans, and probe/warp-cost histograms, all keyed by
/// simulated cycles. The sink never influences the computation — the
/// neutrality test asserts identical labels and stats vs [`NullSink`].
/// The caller owns `sink.finish()`.
pub fn lpa_gpu_traced(g: &Csr, config: &LpaConfig, sink: &mut dyn TraceSink) -> LpaResult {
    lpa_gpu_observed(g, config, sink, &mut NullObserver)
}

/// [`lpa_gpu_traced`] plus an [`IterObserver`] called after every
/// committed iteration (post Cross-Check) — the convergence-telemetry
/// attachment point. The observer runs on the host between simulated
/// launches and never influences the simulation: labels, stats, and
/// trace output are bit-identical with and without it.
pub fn lpa_gpu_observed(
    g: &Csr,
    config: &LpaConfig,
    sink: &mut dyn TraceSink,
    obs: &mut dyn IterObserver,
) -> LpaResult {
    config.validate().expect("invalid LPA config");
    match config.value_type {
        ValueType::F32 => lpa_gpu_typed::<f32>(g, config, sink, obs),
        ValueType::F64 => lpa_gpu_typed::<f64>(g, config, sink, obs),
    }
}

/// Processed-flag store with lockstep visibility.
///
/// In Algorithm 1 a vertex marks *itself* processed at the start of its
/// body and marks its *neighbours* unprocessed after a move. Under
/// lockstep, all self-marks of a wave happen before the wave's
/// neighbour-unmarks in program order, so when two swap partners both
/// move, both end up unprocessed — which is exactly why the swap cycle
/// persists on hardware. Staging the writes (in [`LaneShard`]s) and
/// applying self-marks before unmarks at the wave boundary reproduces
/// that outcome deterministically (a serial interleave of immediate
/// writes would accidentally break the symmetry and hide the paper's
/// pathology).
struct FlagStore {
    committed: Vec<AtomicBool>,
}

impl FlagStore {
    fn new(n: usize) -> Self {
        FlagStore {
            committed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.committed[i].load(Ordering::Relaxed)
    }

    /// Immediate write (separate-kernel semantics, e.g. Cross-Check).
    #[inline]
    fn write_through(&self, i: usize, v: bool) {
        self.committed[i].store(v, Ordering::Relaxed);
    }

    /// Apply every shard's staged flags: ALL sets (in shard order) before
    /// ALL clears, across the whole wave — the lockstep ordering described
    /// on the type.
    fn flush_shards(&self, shards: &mut [LaneShard]) {
        for s in shards.iter_mut() {
            for i in s.flag_set.drain(..) {
                self.committed[i].store(true, Ordering::Relaxed);
            }
        }
        for s in shards.iter_mut() {
            for i in s.flag_clear.drain(..) {
                self.committed[i].store(false, Ordering::Relaxed);
            }
        }
    }
}

/// Per-host-thread staging area for one chunk of lanes. The scheduler
/// hands every chunk its own shard and merges them in lane order at the
/// wave boundary, so staged-write order — and therefore last-stage-wins
/// and collision accounting — matches the serial execution exactly.
#[derive(Default)]
struct LaneShard {
    /// Staged label writes (flushed via
    /// [`SyncDeferredStore::flush_shards`]).
    labels: StagedWrites,
    /// Staged processed-flag sets (self-marks).
    flag_set: Vec<usize>,
    /// Staged processed-flag clears (neighbour unmarks).
    flag_clear: Vec<usize>,
}

/// Simulation state shared by the kernel closures across host threads.
/// Committed label/flag cells are atomics read through `&self`; the
/// hashtable buffers hand out disjoint per-vertex regions; ΔN is a
/// commutative counter — so no lane ever takes a lock or a `RefCell`
/// borrow.
struct GpuState<V: HashValue> {
    labels: SyncDeferredStore,
    processed: FlagStore,
    buf_k: DisjointBuffer<u32>,
    buf_v: DisjointBuffer<V>,
    changed: AtomicUsize,
}

fn lpa_gpu_typed<V: HashValue>(
    g: &Csr,
    config: &LpaConfig,
    sink: &mut dyn TraceSink,
    obs: &mut dyn IterObserver,
) -> LpaResult {
    let n = g.num_vertices();
    let m = g.num_edges();
    let threads = resolve_threads(config.threads);
    let sched = WaveScheduler::new(config.device, config.cost).with_threads(threads);
    // Shared-memory tables (ablation): the thread kernel runs on an
    // occupancy-limited device — each thread reserves its worst-case table
    // (2 * switch_degree slots of key + value) in the SM's shared memory.
    let low_sched = if config.shared_tables {
        WaveScheduler::new(
            config.device.with_shared_mem_per_thread(
                2 * config.switch_degree as usize * (4 + std::mem::size_of::<V>()),
            ),
            config.cost,
        )
        .with_threads(threads)
    } else {
        sched
    };
    let addr = AddrMap::new(n, m);
    let buf_len = TableSlot::buffer_len(m);

    let state = GpuState::<V> {
        labels: SyncDeferredStore::new((0..n as VertexId).collect()),
        processed: FlagStore::new(n),
        buf_k: DisjointBuffer::new(vec![EMPTY_KEY; buf_len]),
        buf_v: DisjointBuffer::new(vec![V::zero(); buf_len]),
        changed: AtomicUsize::new(0),
    };

    let mut stats = KernelStats::new();
    let mut changed_per_iter = Vec::new();
    let mut scanned_per_iter = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    // Sort scratch for collision counting, reused across waves and
    // iterations (the wave_end closures borrow it one launch at a time).
    let mut scratch: Vec<usize> = Vec::new();

    if sink.is_enabled() {
        sink.span_begin(
            track::HOST,
            "lpa_gpu",
            0,
            &[("n", n.into()), ("m", m.into())],
        );
    }

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        let pick_less = config.swap_mode.pick_less_on(iter);
        let do_cc = config.swap_mode.cross_check_on(iter);
        let prev_labels = do_cc.then(|| state.labels.snapshot());
        let t_iter = stats.sim_cycles;
        if sink.is_enabled() {
            sink.span_begin(track::HOST, "iteration", t_iter, &[("iter", iter.into())]);
        }

        // Candidate set: unprocessed, non-isolated vertices (vertex
        // pruning); with pruning disabled, all non-isolated vertices.
        let candidates = (0..n as VertexId)
            .filter(|&v| (!config.pruning || !state.processed.get(v as usize)) && g.degree(v) > 0);
        let part = partition_candidates(g, candidates, config.switch_degree);
        let (low_n, high_n) = (part.low.len(), part.high.len());
        state.changed.store(0, Ordering::Relaxed);

        // --- thread-per-vertex kernel (low-degree) --------------------
        let st_low = low_sched.launch_thread_per_item(
            "kernel:thread",
            stats.sim_cycles,
            sink,
            &part.low,
            LaneShard::default,
            |v, lane, shard: &mut LaneShard| {
                process_vertex_thread(g, &state, v, pick_less, config, lane, shard, addr)
            },
            |_, shards| {
                state
                    .labels
                    .flush_shards(shards, |s| &mut s.labels, &mut scratch);
                state.processed.flush_shards(shards);
            },
        );
        stats.add(&st_low);

        // --- block-per-vertex kernel (high-degree) --------------------
        let st_high = sched.launch_block_per_item(
            "kernel:block",
            stats.sim_cycles,
            sink,
            &part.high,
            LaneShard::default,
            |v, ctx, shard: &mut LaneShard| {
                process_vertex_block(g, &state, v, pick_less, config, ctx, shard, addr)
            },
            |_, shards| {
                state
                    .labels
                    .flush_shards(shards, |s| &mut s.labels, &mut scratch);
                state.processed.flush_shards(shards);
            },
        );
        stats.add(&st_high);

        // --- Cross-Check pass (separate kernel; immediate writes) -----
        // Runs on one host thread (`with_threads(1)`) deliberately: its
        // atomic reverts are immediately visible and later lanes read
        // labels a previous lane may have reverted, so lane order is
        // semantics-bearing here (unlike the staged main kernels). The
        // pass touches only the few changed vertices — not worth
        // parallelising at the cost of the determinism argument.
        let cross_check = prev_labels.is_some();
        if let Some(prev) = prev_labels {
            let changed_vertices: Vec<VertexId> = (0..n as VertexId)
                .filter(|&v| state.labels.get(v as usize) != prev[v as usize])
                .collect();
            let t_cc = stats.sim_cycles;
            if sink.is_enabled() {
                sink.span_begin(
                    track::HOST,
                    "cross_check",
                    t_cc,
                    &[("changed_vertices", changed_vertices.len().into())],
                );
            }
            let st_cc = sched.with_threads(1).launch_thread_per_item(
                "kernel:cross_check",
                t_cc,
                sink,
                &changed_vertices,
                || (),
                |v, lane, _| {
                    let cost = &config.cost;
                    let c = state.labels.get(v as usize);
                    lane.global_read(cost, addr.labels + v as usize, Width::W32);
                    lane.global_read(cost, addr.labels + c as usize, Width::W32);
                    // A change is good iff the leader vertex c is in its own
                    // community (paper §4.1); otherwise revert atomically.
                    if state.labels.get(c as usize) != c {
                        // atomicExch, as in the reference implementation:
                        // the revert takes effect immediately, not at the
                        // wave flush.
                        state.labels.atomic_exchange(v as usize, prev[v as usize]);
                        lane.atomic(cost, addr.labels + v as usize, Width::W32);
                        state.processed.write_through(v as usize, false);
                        lane.global_write(cost, addr.processed + v as usize, Width::W32);
                        // a reverted move no longer counts as a change
                        let _ =
                            state
                                .changed
                                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                                    Some(c.saturating_sub(1))
                                });
                    }
                },
                |_, _| {},
            );
            stats.add(&st_cc);
            if sink.is_enabled() {
                sink.span_end(track::HOST, "cross_check", stats.sim_cycles, &[]);
            }
        }

        let changed = state.changed.load(Ordering::Relaxed);
        changed_per_iter.push(changed);
        scanned_per_iter.push(n);
        if obs.is_enabled() {
            let snapshot = state.labels.snapshot();
            obs.on_iteration(iter, changed, low_n + high_n, &snapshot);
        }
        if sink.is_enabled() {
            let active = low_n + high_n;
            sink.counter("dN", stats.sim_cycles, changed as f64);
            sink.counter("active_vertices", stats.sim_cycles, active as f64);
            sink.span_end(
                track::HOST,
                "iteration",
                stats.sim_cycles,
                &[
                    ("iter", iter.into()),
                    ("active", active.into()),
                    ("thread_partition", low_n.into()),
                    ("block_partition", high_n.into()),
                    ("dN", changed.into()),
                    ("pick_less", pick_less.into()),
                    ("cross_check", cross_check.into()),
                ],
            );
        }
        // ΔN = 0 is declared converged even on Pick-Less-gated iterations:
        // with pruning (the adopted configuration) every candidate is now
        // marked processed and nothing re-activates it, so the labeling is
        // a fixed point. Gating the test on `!pick_less` alone made
        // `PickLess { every: 1 }` — where *every* iteration is gated —
        // run to the iteration cap on fully stable labelings.
        if changed == 0 || (!pick_less && (changed as f64 / n.max(1) as f64) < config.tolerance) {
            converged = true;
            break;
        }
    }

    if sink.is_enabled() {
        sink.span_end(
            track::HOST,
            "lpa_gpu",
            stats.sim_cycles,
            &[
                ("iterations", iterations.into()),
                ("converged", converged.into()),
            ],
        );
    }

    let staged_collisions = state.labels.staged_collisions();
    LpaResult {
        labels: state.labels.into_inner(),
        iterations,
        converged,
        changed_per_iter,
        scanned_per_iter,
        stats,
        staged_collisions,
    }
}

/// Algorithm 1's per-vertex body, thread-per-vertex flavour: one lane owns
/// the whole vertex, so the hashtable needs no atomics.
#[allow(clippy::too_many_arguments)]
fn process_vertex_thread<V: HashValue>(
    g: &Csr,
    state: &GpuState<V>,
    v: VertexId,
    pick_less: bool,
    config: &LpaConfig,
    lane: &mut LaneMeter,
    shard: &mut LaneShard,
    addr: AddrMap,
) {
    let probe = config.probe;
    let cost = &config.cost;
    // Mark vertex as processed (visible at the wave boundary).
    shard.flag_set.push(v as usize);
    lane.global_write(cost, addr.processed + v as usize, Width::W32);

    let degree = g.degree(v);
    let slot = TableSlot::for_vertex(g.offset(v), degree);
    if slot.capacity == 0 {
        return;
    }
    let taddr = if config.shared_tables {
        addr.table(&slot).in_shared_memory()
    } else {
        addr.table(&slot)
    };

    // SAFETY: per-vertex table regions are carved from the CSR edge
    // layout, so distinct vertices' ranges never overlap, and each vertex
    // appears at most once per launch — all slices live within one wave
    // are disjoint.
    let (keys, vals) = unsafe {
        (
            state.buf_k.slice_mut(slot.start, slot.capacity),
            state.buf_v.slice_mut(slot.start, slot.capacity),
        )
    };
    let mut table = TableMut::<V>::new(keys, vals, slot.p2);

    // hashtableClear (one lane clears every slot).
    for s in 0..slot.capacity {
        if taddr.shared_space {
            lane.shared(cost, Width::W32);
            lane.shared(cost, V::WIDTH);
        } else {
            lane.global_write(cost, taddr.keys + s, Width::W32);
            lane.global_write(cost, taddr.values + s, V::WIDTH);
        }
    }
    table.clear();

    // Scan neighbours, accumulating weighted labels.
    let off = g.offset(v);
    for (k, (j, w)) in g.neighbors(v).enumerate() {
        lane.global_read(cost, addr.targets + off + k, Width::W32);
        lane.global_read(cost, addr.weights + off + k, Width::W32);
        if j == v {
            continue;
        }
        let c_j = state.labels.get(j as usize);
        lane.global_read(cost, addr.labels + j as usize, Width::W32);
        let outcome = table.accumulate_metered(probe, c_j, V::from_weight(w), taddr, lane, cost);
        debug_assert!(outcome.is_done(), "table sized by layout cannot fill");
    }

    // hashtableMaxKey (sequential scan for a single lane).
    for s in 0..slot.capacity {
        if taddr.shared_space {
            lane.shared(cost, Width::W32);
            lane.shared(cost, V::WIDTH);
        } else {
            lane.global_read(cost, taddr.keys + s, Width::W32);
            lane.global_read(cost, taddr.values + s, V::WIDTH);
        }
    }
    let best = table.max_key();

    lane.alu(cost, 2);
    if let Some((c_star, _)) = best {
        let cur = state.labels.get(v as usize);
        if c_star != cur && (!pick_less || c_star < cur) {
            state.labels.stage(&mut shard.labels, v as usize, c_star);
            lane.global_write(cost, addr.labels + v as usize, Width::W32);
            state.changed.fetch_add(1, Ordering::Relaxed);
            lane.atomic(cost, addr.dn, Width::W32); // ΔN_T → ΔN
            for &j in g.neighbor_ids(v) {
                shard.flag_clear.push(j as usize);
                lane.global_write(cost, addr.processed + j as usize, Width::W32);
            }
        }
    }
}

/// Algorithm 1's per-vertex body, block-per-vertex flavour: a whole block
/// cooperates — strided clears and neighbour scans, shared-path hashtable
/// costs, a tree reduction for `hashtableMaxKey`.
#[allow(clippy::too_many_arguments)]
fn process_vertex_block<V: HashValue>(
    g: &Csr,
    state: &GpuState<V>,
    v: VertexId,
    pick_less: bool,
    config: &LpaConfig,
    ctx: &mut nulpa_simt::BlockCtx<'_>,
    shard: &mut LaneShard,
    addr: AddrMap,
) {
    let probe = config.probe;
    let cost = *ctx.cost;
    shard.flag_set.push(v as usize);
    ctx.lane(0)
        .global_write(&cost, addr.processed + v as usize, Width::W32);

    let degree = g.degree(v);
    let slot = TableSlot::for_vertex(g.offset(v), degree);
    if slot.capacity == 0 {
        return;
    }
    let taddr = addr.table(&slot);

    // SAFETY: same disjointness argument as `process_vertex_thread` —
    // regions tile the buffer by CSR offsets and each vertex (block item)
    // appears once per launch.
    let (keys, vals) = unsafe {
        (
            state.buf_k.slice_mut(slot.start, slot.capacity),
            state.buf_v.slice_mut(slot.start, slot.capacity),
        )
    };
    let mut table = TableMut::<V>::new(keys, vals, slot.p2);

    // Parallel clear, strided across lanes.
    ctx.for_each_strided(slot.capacity, |s, lane| {
        lane.global_write(&cost, taddr.keys + s, Width::W32);
        lane.global_write(&cost, taddr.values + s, V::WIDTH);
    });
    table.clear();
    ctx.barrier();

    // Parallel neighbour scan: lane k % B handles neighbour k. The
    // shared-path table charges atomicCAS + atomicAdd per accumulation.
    let off = g.offset(v);
    let targets = g.neighbor_ids(v);
    let weights = g.neighbor_weights(v);
    ctx.for_each_strided(degree, |k, lane| {
        lane.global_read(&cost, addr.targets + off + k, Width::W32);
        lane.global_read(&cost, addr.weights + off + k, Width::W32);
        let j = targets[k];
        if j == v {
            return;
        }
        let c_j = state.labels.get(j as usize);
        lane.global_read(&cost, addr.labels + j as usize, Width::W32);
        let outcome = table.accumulate_metered_shared(
            probe,
            c_j,
            V::from_weight(weights[k]),
            taddr,
            lane,
            &cost,
        );
        debug_assert!(outcome.is_done(), "table sized by layout cannot fill");
    });
    ctx.barrier();

    // Parallel max: strided scan of the table, then a tree reduction.
    ctx.for_each_strided(slot.capacity, |s, lane| {
        lane.global_read(&cost, taddr.keys + s, Width::W32);
        lane.global_read(&cost, taddr.values + s, V::WIDTH);
    });
    ctx.charge_reduction(slot.capacity.min(ctx.num_lanes()));
    ctx.barrier();
    let best = table.max_key();

    if let Some((c_star, _)) = best {
        let cur = state.labels.get(v as usize);
        ctx.lane(0).alu(&cost, 2);
        if c_star != cur && (!pick_less || c_star < cur) {
            state.labels.stage(&mut shard.labels, v as usize, c_star);
            ctx.lane(0)
                .global_write(&cost, addr.labels + v as usize, Width::W32);
            state.changed.fetch_add(1, Ordering::Relaxed);
            ctx.lane(0).atomic(&cost, addr.dn, Width::W32); // ΔN_T → ΔN
            let clears = &mut shard.flag_clear;
            ctx.for_each_strided(degree, |k, lane| {
                let j = targets[k];
                clears.push(j as usize);
                lane.global_write(&cost, addr.processed + j as usize, Width::W32);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LpaConfig, SwapMode};
    use crate::seq::lpa_seq;
    use nulpa_graph::gen::{
        caveman_ground_truth, caveman_weighted, complete, erdos_renyi, planted_partition,
        two_cliques_light_bridge,
    };
    use nulpa_graph::GraphBuilder;
    use nulpa_hashtab::ProbeStrategy;
    use nulpa_metrics::{check_labels, community_count, modularity, nmi, same_partition};
    use nulpa_simt::DeviceConfig;

    fn cfg() -> LpaConfig {
        // tiny device => multiple waves even on small test graphs;
        // threads pinned to 1 so unit tests are env-independent (the
        // parallel ≡ serial matrix lives in tests/parallel.rs)
        LpaConfig::default()
            .with_device(DeviceConfig::tiny())
            .with_threads(1)
    }

    #[test]
    fn two_cliques_recovered() {
        let g = two_cliques_light_bridge(6);
        let r = lpa_gpu(&g, &cfg());
        assert!(check_labels(&g, &r.labels).is_ok());
        assert!(same_partition(&r.labels, &caveman_ground_truth(2, 6)));
    }

    #[test]
    fn caveman_recovered_with_stats() {
        let g = caveman_weighted(5, 8, 0.5);
        let r = lpa_gpu(&g, &cfg());
        assert!(same_partition(&r.labels, &caveman_ground_truth(5, 8)));
        assert!(r.stats.sim_cycles > 0);
        assert!(r.stats.probes > 0);
        assert!(r.stats.waves > 0);
    }

    #[test]
    fn complete_graph_single_community() {
        let g = complete(12);
        let r = lpa_gpu(&g, &cfg());
        assert_eq!(community_count(&r.labels), 1);
    }

    #[test]
    fn quality_close_to_sequential_reference() {
        // seed 5 recovers the planted partition exactly under all
        // backends; asynchronous LPA occasionally merges two blocks on
        // other seeds (inherent variability, paper §4: "potentially
        // introducing variability in results")
        let pp = planted_partition(&[60, 60, 60], 12.0, 0.5, 5);
        let r_gpu = lpa_gpu(&pp.graph, &cfg());
        let r_seq = lpa_seq(&pp.graph, &cfg());
        let q_gpu = modularity(&pp.graph, &r_gpu.labels);
        let q_seq = modularity(&pp.graph, &r_seq.labels);
        assert!(q_gpu > 0.9 * q_seq, "gpu {q_gpu} vs seq {q_seq}");
        assert!(nmi(&r_gpu.labels, &pp.ground_truth) > 0.9);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = erdos_renyi(150, 450, 3);
        let a = lpa_gpu(&g, &cfg());
        let b = lpa_gpu(&g, &cfg());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.staged_collisions, b.staged_collisions);
    }

    #[test]
    fn swap_pathology_without_mitigation() {
        // A perfect matching of symmetric pairs: vertex 2i — 2i+1. With no
        // mitigation and lockstep waves, pairs co-resident in a wave swap
        // labels forever and the run hits the iteration cap.
        let mut b = GraphBuilder::new(64);
        for i in 0..32u32 {
            b.push_undirected(2 * i, 2 * i + 1, 1.0);
        }
        let g = b.build();
        let no_fix = cfg().with_swap_mode(SwapMode::Off);
        let r = lpa_gpu(&g, &no_fix);
        assert!(!r.converged, "expected swap livelock without mitigation");
        assert_eq!(r.iterations, no_fix.max_iterations);

        // Pick-Less breaks the symmetry and converges to pair communities.
        let r_pl = lpa_gpu(&g, &cfg());
        assert!(r_pl.converged, "PL4 should converge");
        assert_eq!(community_count(&r_pl.labels), 32);

        // Cross-Check also breaks it.
        let r_cc = lpa_gpu(&g, &cfg().with_swap_mode(SwapMode::CrossCheck { every: 1 }));
        assert!(r_cc.converged, "CC1 should converge");
        assert_eq!(community_count(&r_cc.labels), 32);
    }

    #[test]
    fn pl1_converges_on_stable_labeling() {
        // Regression for the `!pick_less`-gated tolerance test: under
        // PickLess { every: 1 } every iteration is gated, so a fully
        // stable labeling (ΔN = 0) used to run to max_iterations. It must
        // stop as soon as an iteration changes nothing.
        let g = two_cliques_light_bridge(6);
        let pl1 = cfg().with_swap_mode(SwapMode::PickLess { every: 1 });
        let r = lpa_gpu(&g, &pl1);
        assert!(r.converged, "PL1 must converge on a stable labeling");
        assert!(
            r.iterations < pl1.max_iterations,
            "PL1 ran to the cap: {} iterations",
            r.iterations
        );
        assert_eq!(*r.changed_per_iter.last().unwrap(), 0);

        // Hybrid with pl_every = 1 is gated on every iteration too.
        let h = cfg().with_swap_mode(SwapMode::Hybrid {
            cc_every: 2,
            pl_every: 1,
        });
        let rh = lpa_gpu(&g, &h);
        assert!(rh.converged, "Hybrid(pl_every=1) must converge");
        assert!(rh.iterations < h.max_iterations);
    }

    #[test]
    fn dn_counter_has_dedicated_address() {
        // Regression for the ΔN cost-attribution bug: the counter used to
        // be charged at `addr.processed`, aliasing vertex 0's processed
        // flag in the locality model. Its cell must lie outside every
        // per-vertex/per-edge region.
        let n = 100;
        let m = 400;
        let a = AddrMap::new(n, m);
        assert_eq!(a.dn, a.values + 2 * m, "ΔN follows the last region");
        for (name, start, len) in [
            ("labels", a.labels, n),
            ("processed", a.processed, n),
            ("targets", a.targets, m),
            ("weights", a.weights, m),
            ("keys", a.keys, 2 * m),
            ("values", a.values, 2 * m),
        ] {
            assert!(
                a.dn < start || a.dn >= start + len,
                "ΔN cell {} aliases region {name} [{start}, {})",
                a.dn,
                start + len
            );
        }
        // In particular it no longer shares a cache line with processed[0].
        use nulpa_simt::LINE_WORDS;
        assert_ne!(a.dn / LINE_WORDS, a.processed / LINE_WORDS);
    }

    #[test]
    fn all_probe_strategies_same_partition_quality() {
        let g = caveman_weighted(4, 10, 0.5);
        let truth = caveman_ground_truth(4, 10);
        for p in ProbeStrategy::all() {
            let r = lpa_gpu(&g, &cfg().with_probe(p));
            assert!(
                same_partition(&r.labels, &truth),
                "{p:?} failed to recover cliques"
            );
        }
    }

    #[test]
    fn f32_and_f64_values_agree_on_quality() {
        let pp = planted_partition(&[50, 50], 8.0, 1.0, 5);
        let r32 = lpa_gpu(&pp.graph, &cfg().with_value_type(ValueType::F32));
        let r64 = lpa_gpu(&pp.graph, &cfg().with_value_type(ValueType::F64));
        let q32 = modularity(&pp.graph, &r32.labels);
        let q64 = modularity(&pp.graph, &r64.labels);
        assert!((q32 - q64).abs() < 0.05, "q32 {q32} vs q64 {q64}");
        // f64 must cost more simulated cycles (wider memory traffic)
        assert!(r64.stats.sim_cycles > r32.stats.sim_cycles);
    }

    #[test]
    fn switch_degree_extremes_agree() {
        // all-thread-kernel vs all-block-kernel must find the same cliques
        let g = caveman_weighted(3, 12, 0.5);
        let truth = caveman_ground_truth(3, 12);
        let all_thread = lpa_gpu(&g, &cfg().with_switch_degree(u32::MAX));
        let all_block = lpa_gpu(&g, &cfg().with_switch_degree(1));
        assert!(same_partition(&all_thread.labels, &truth));
        assert!(same_partition(&all_block.labels, &truth));
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let g = nulpa_graph::Csr::empty(7);
        let r = lpa_gpu(&g, &cfg());
        assert_eq!(r.labels, (0..7).collect::<Vec<_>>());
        assert!(r.converged);

        let g = GraphBuilder::new(3).add_undirected_edge(0, 1, 1.0).build();
        let r = lpa_gpu(&g, &cfg());
        assert_eq!(r.labels[2], 2);
        assert_eq!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn self_loops_ignored() {
        let g = GraphBuilder::new(2)
            .keep_self_loops(true)
            .add_edge(0, 0, 100.0)
            .add_undirected_edge(0, 1, 1.0)
            .build();
        let r = lpa_gpu(&g, &cfg());
        // the heavy self loop must not pin vertex 0 to itself
        assert_eq!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn a100_and_tiny_devices_both_valid() {
        let g = caveman_weighted(3, 6, 0.5);
        let truth = caveman_ground_truth(3, 6);
        for d in [DeviceConfig::a100(), DeviceConfig::tiny()] {
            let r = lpa_gpu(&g, &LpaConfig::default().with_device(d).with_threads(1));
            assert!(same_partition(&r.labels, &truth));
        }
    }

    #[test]
    fn stats_accumulate_across_iterations() {
        let g = erdos_renyi(100, 400, 8);
        let r = lpa_gpu(&g, &cfg());
        assert_eq!(r.changed_per_iter.len(), r.iterations as usize);
        assert!(r.stats.global_reads > 0);
        assert!(r.stats.lane_cycles > 0);
        assert!(r.stats.sim_cycles <= r.stats.lane_cycles + r.stats.idle_cycles);
    }
}

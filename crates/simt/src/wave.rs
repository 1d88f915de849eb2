//! Wave scheduler: lockstep kernel launches.
//!
//! A *wave* is the set of threads (or blocks) co-resident on the device at
//! one time — on the A100 preset, 108 SMs × 2048 threads. The paper's
//! community-swap pathology (§4.1) arises because co-resident symmetric
//! vertices read each other's *pre-wave* labels; pair this scheduler with
//! [`crate::deferred::SyncDeferredStore`] and that visibility rule holds
//! exactly: the `wave_end` callback is the flush point.
//!
//! The simulator executes lanes deterministically — in lane order, on one
//! host thread or in contiguous chunks on several — while *modelling*
//! parallel lockstep timing: each lane meters its own cost, a warp costs
//! the max of its lanes, a wave the max of its warps, and the kernel the
//! sum of its waves. Atomics performed by kernels against real
//! `AtomicU32`/[`crate::atomics::AtomicF32`] cells are immediate, as on
//! hardware.

use crate::cost::{Comp, CostModel, LaneMeter};
use crate::device::DeviceConfig;
use crate::stats::KernelStats;
use nulpa_obs::{track, TraceSink, Value};
#[cfg(feature = "sancheck")]
use nulpa_sancheck::hooks;

/// `true` while a sancheck checker is installed (waves then run on the
/// calling thread so hook order stays deterministic).
#[inline]
fn checker_active() -> bool {
    #[cfg(feature = "sancheck")]
    {
        hooks::is_active()
    }
    #[cfg(not(feature = "sancheck"))]
    {
        false
    }
}

/// Report a lane's (warp, lane) context to the hazard checker; no-op
/// without the `sancheck` feature.
#[inline]
fn hook_lane_ctx(lane_idx: usize, warp: usize) {
    #[cfg(feature = "sancheck")]
    hooks::lane_ctx((lane_idx / warp) as u32, (lane_idx % warp) as u32);
    #[cfg(not(feature = "sancheck"))]
    let _ = (lane_idx, warp);
}

/// Report a block's index to the hazard checker; no-op without the
/// `sancheck` feature.
#[inline]
fn hook_block_ctx(block_idx: usize) {
    #[cfg(feature = "sancheck")]
    hooks::block_ctx(block_idx as u32);
    #[cfg(not(feature = "sancheck"))]
    let _ = block_idx;
}

/// Minimum lanes per host-thread chunk in a thread-per-item wave; waves
/// smaller than `2 × this` stay on one host thread (spawn cost would
/// dominate the lane work).
const MIN_LANES_PER_CHUNK: usize = 16;

/// What one launched item retires into the wave fold: its lane's meter
/// (thread-per-item) or its block's lane meters (block-per-item).
trait Retired: Send + Sized {
    /// A wave's lanes in the groups whose slowest warp bounds the wave's
    /// critical path: a thread wave is one group, a block wave one group
    /// per block.
    fn groups(wave: &[Self]) -> impl Iterator<Item = &[LaneMeter]>;
}

impl Retired for LaneMeter {
    fn groups(wave: &[Self]) -> impl Iterator<Item = &[LaneMeter]> {
        std::iter::once(wave)
    }
}

impl Retired for Vec<LaneMeter> {
    fn groups(wave: &[Self]) -> impl Iterator<Item = &[LaneMeter]> {
        wave.iter().map(Vec::as_slice)
    }
}

/// Lockstep kernel launcher for a fixed device.
#[derive(Clone, Copy, Debug)]
pub struct WaveScheduler {
    /// Device being simulated.
    pub device: DeviceConfig,
    /// Cost model charged to lanes.
    pub cost: CostModel,
    /// Host threads a launch may run each wave on (1 = the calling thread
    /// only). Results are bit-identical at every count; see
    /// [`Self::launch_thread_per_item`].
    pub threads: usize,
}

impl WaveScheduler {
    /// Create a scheduler; panics on an invalid device.
    pub fn new(device: DeviceConfig, cost: CostModel) -> Self {
        device.validate().expect("invalid device config");
        WaveScheduler {
            device,
            cost,
            threads: 1,
        }
    }

    /// Builder-style setter for the host-thread count a launch may use
    /// (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Thread-per-item launch: one lane per item (the paper's
    /// thread-per-vertex kernel for low-degree vertices).
    ///
    /// `kernel(item, lane, shard)` runs once per item; `wave_end(wave,
    /// shards)` fires after every item of a wave ran, with the wave's
    /// shards in lane order — flush staged writes there. The launch emits
    /// a kernel span named `name` starting at simulated cycle `t0`, one
    /// span per wave (warp-cost max/sum and divergence in the args), and
    /// the launch's probe-length and warp-cost histograms into `sink`.
    ///
    /// A wave may run on up to [`Self::threads`] host threads, with
    /// results bit-for-bit identical at every count. Lanes within a wave
    /// are independent by construction — reads see wave-start state,
    /// writes are staged — so the only ordering that can leak into
    /// results is the order in which staged writes are merged. The launch
    /// pins that order: each wave is split into **contiguous** chunks of
    /// lanes, each chunk runs in lane order on one host thread against
    /// its own shard `S` (created by `make_shard`), and `wave_end`
    /// receives the shards **in chunk order**, which equals lane order.
    /// Concatenating the shards' staged writes therefore reproduces the
    /// one-thread staging order exactly. Per-lane meters are likewise
    /// collected in lane order and folded into warps on the calling
    /// thread, so `KernelStats` and trace spans are unchanged too.
    ///
    /// A wave runs inline as one chunk when `threads <= 1`, when a
    /// `sancheck` checker is installed (its shadow state tracks one lane
    /// at a time and hooks would interleave nondeterministically across
    /// host threads), or when it is too small to split. A kernel whose
    /// lane order is part of its result (immediate writes) launches
    /// through `with_threads(1)`.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_thread_per_item<T, S, M, F, G>(
        &self,
        name: &str,
        t0: u64,
        sink: &mut dyn TraceSink,
        items: &[T],
        make_shard: M,
        kernel: F,
        wave_end: G,
    ) -> KernelStats
    where
        T: Copy + Sync,
        S: Send,
        M: Fn() -> S + Sync,
        F: Fn(T, &mut LaneMeter, &mut S) + Sync,
        G: FnMut(u64, &mut [S]),
    {
        let warp = self.device.warp_size;
        self.run_waves(
            name,
            t0,
            sink,
            items,
            self.device.resident_threads(),
            MIN_LANES_PER_CHUNK,
            make_shard,
            |i, it, shard| {
                hook_lane_ctx(i, warp);
                let mut m = LaneMeter::new();
                kernel(it, &mut m, shard);
                m
            },
            wave_end,
        )
    }

    /// Block-per-item launch: one cooperative block per item (the paper's
    /// block-per-vertex kernel for high-degree vertices). Same contract as
    /// [`Self::launch_thread_per_item`], with whole blocks as the unit of
    /// chunking (a block's lanes share a `BlockCtx` and must stay
    /// together): shards merge in block order.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_block_per_item<T, S, M, F, G>(
        &self,
        name: &str,
        t0: u64,
        sink: &mut dyn TraceSink,
        items: &[T],
        make_shard: M,
        kernel: F,
        wave_end: G,
    ) -> KernelStats
    where
        T: Copy + Sync,
        S: Send,
        M: Fn() -> S + Sync,
        F: Fn(T, &mut BlockCtx<'_>, &mut S) + Sync,
        G: FnMut(u64, &mut [S]),
    {
        self.run_waves(
            name,
            t0,
            sink,
            items,
            self.device.resident_blocks(),
            1,
            make_shard,
            |b, it, shard| {
                hook_block_ctx(b);
                let mut ctx =
                    BlockCtx::new(self.device.block_size, self.device.warp_size, &self.cost);
                kernel(it, &mut ctx, shard);
                // Lanes that never executed a metered op did no work in
                // this block: drop any barrier-alignment cycles they were
                // assigned so partially-filled trailing blocks are not
                // charged for phantom lanes.
                ctx.zero_untouched();
                ctx.lanes
            },
            wave_end,
        )
    }

    /// The wave loop of both launch shapes: runs `items` in waves of
    /// `wave_cap` through [`Self::run_chunks`] and folds what each wave
    /// retired into the launch's stats, trace spans and hazard-checker
    /// epochs.
    #[allow(clippy::too_many_arguments)]
    fn run_waves<T, S, R, M, K, G>(
        &self,
        name: &str,
        t0: u64,
        sink: &mut dyn TraceSink,
        items: &[T],
        wave_cap: usize,
        min_chunk: usize,
        make_shard: M,
        run_item: K,
        mut wave_end: G,
    ) -> KernelStats
    where
        T: Copy + Sync,
        S: Send,
        R: Retired,
        M: Fn() -> S + Sync,
        K: Fn(usize, T, &mut S) -> R + Sync,
        G: FnMut(u64, &mut [S]),
    {
        let mut stats = KernelStats::new();
        let warp = self.device.warp_size;
        if sink.is_enabled() {
            sink.span_begin(
                track::KERNEL,
                name,
                t0,
                &[
                    ("items", items.len().into()),
                    ("wave_capacity", wave_cap.into()),
                ],
            );
        }
        #[cfg(feature = "sancheck")]
        hooks::kernel_begin(name);
        for (w, wave_items) in items.chunks(wave_cap).enumerate() {
            let before = WaveSnapshot::of(&stats);
            #[cfg(feature = "sancheck")]
            hooks::wave_begin(w as u64);
            let (retired, mut shards) =
                self.run_chunks(wave_items, min_chunk, &make_shard, &run_item);
            let mut critical = 0u64;
            let mut warp_total = 0u64;
            for group in R::groups(&retired) {
                let mut group_cost = 0u64;
                for warp_lanes in group.chunks(warp) {
                    let c = stats.fold_warp(warp_lanes);
                    group_cost = group_cost.max(c);
                    warp_total += c;
                }
                critical = critical.max(group_cost);
            }
            let dur = self.wave_duration(critical, warp_total);
            before.settle(&mut stats, critical, dur);
            let wave_t0 = t0 + stats.sim_cycles;
            stats.sim_cycles += dur;
            stats.waves += 1;
            before.emit_wave(
                sink,
                wave_t0,
                dur,
                wave_items.len(),
                critical,
                warp_total,
                &stats,
            );
            wave_end(w as u64, &mut shards);
            // The epoch advances after the user's wave_end callback so that
            // flush commits land in the wave they belong to.
            #[cfg(feature = "sancheck")]
            hooks::wave_end();
        }
        #[cfg(feature = "sancheck")]
        hooks::kernel_end();
        self.finish_kernel_span(sink, name, t0, &stats);
        stats
    }

    /// Run one wave's items in contiguous chunks of at least `min_chunk`
    /// items, one shard per chunk, and return what the items retired in
    /// item order and the shards in chunk order. A single chunk runs
    /// inline on the calling thread; more run on scoped host threads, and
    /// a worker panic is re-raised here. `run_item` receives each item's
    /// wave-relative index, which the launches report to the hazard hooks.
    fn run_chunks<T, S, R, M, K>(
        &self,
        wave_items: &[T],
        min_chunk: usize,
        make_shard: &M,
        run_item: &K,
    ) -> (Vec<R>, Vec<S>)
    where
        T: Copy + Sync,
        S: Send,
        R: Send,
        M: Fn() -> S + Sync,
        K: Fn(usize, T, &mut S) -> R + Sync,
    {
        let n = wave_items.len();
        let chunks = if checker_active() {
            1
        } else {
            self.threads.min(n.div_ceil(min_chunk)).max(1)
        };
        let chunk_len = n.div_ceil(chunks);
        let run_chunk = |first: usize, chunk: &[T]| {
            let mut shard = make_shard();
            let retired: Vec<R> = chunk
                .iter()
                .enumerate()
                .map(|(i, &it)| run_item(first + i, it, &mut shard))
                .collect();
            (retired, shard)
        };
        if chunks == 1 {
            let (retired, shard) = run_chunk(0, wave_items);
            return (retired, vec![shard]);
        }
        let run_chunk = &run_chunk;
        let results: Vec<(Vec<R>, S)> = std::thread::scope(|scope| {
            let handles: Vec<_> = wave_items
                .chunks(chunk_len)
                .enumerate()
                .map(|(c, chunk)| scope.spawn(move || run_chunk(c * chunk_len, chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let mut retired = Vec::with_capacity(n);
        let mut shards = Vec::with_capacity(results.len());
        for (r, s) in results {
            retired.extend(r);
            shards.push(s);
        }
        (retired, shards)
    }

    /// Close the kernel span and flush the launch's histograms.
    fn finish_kernel_span(
        &self,
        sink: &mut dyn TraceSink,
        name: &str,
        t0: u64,
        stats: &KernelStats,
    ) {
        if !sink.is_enabled() {
            return;
        }
        sink.span_end(
            track::KERNEL,
            name,
            t0 + stats.sim_cycles,
            &[
                ("waves", stats.waves.into()),
                ("threads", stats.threads.into()),
                ("sim_cycles", stats.sim_cycles.into()),
                ("divergence", stats.divergence_ratio().into()),
                ("probes", stats.probes.into()),
                ("atomics", stats.atomics.into()),
                ("global_reads", stats.global_reads.into()),
                ("global_writes", stats.global_writes.into()),
            ],
        );
        if !stats.probe_hist.is_empty() {
            sink.histogram("probe_len", &stats.probe_hist);
        }
        if !stats.warp_cost_hist.is_empty() {
            sink.histogram("warp_cost", &stats.warp_cost_hist);
        }
        let c = &stats.comp;
        sink.metrics(
            "kernel",
            t0 + stats.sim_cycles,
            &[
                ("sim_cycles", stats.sim_cycles),
                ("lane_cycles", stats.lane_cycles),
                ("idle_cycles", stats.idle_cycles),
                ("imbalance_cycles", stats.imbalance_cycles),
                ("stall_cycles", stats.stall_cycles),
                ("waves", stats.waves),
                ("threads", stats.threads),
                ("probes", stats.probes),
                ("alu", c.get(Comp::Alu)),
                ("global_near", c.get(Comp::GlobalNear)),
                ("global_far", c.get(Comp::GlobalFar)),
                ("atomic", c.get(Comp::Atomic)),
                ("probe_near", c.get(Comp::ProbeNear)),
                ("probe_far", c.get(Comp::ProbeFar)),
                ("shared", c.get(Comp::Shared)),
                ("barrier", c.get(Comp::Barrier)),
            ],
        );
    }

    /// Duration of one wave under a latency/throughput/occupancy model.
    ///
    /// Each warp occupies its SM's issue pipeline for its lockstep cost
    /// (idle lanes included — that is what lockstep means), and the device
    /// issues warps on `sm_count × warp_schedulers` pipelines. A wave
    /// therefore lasts at least its critical path (the slowest warp/block)
    /// *and* at least the aggregate warp-cycles divided by the effective
    /// issue width. The effective width degrades below full **occupancy**:
    /// memory-bound kernels hide latency by switching among resident
    /// warps, so a device running at a fraction of its maximum resident
    /// warps only achieves that fraction of its issue throughput (down to
    /// a floor of one warp per SM). This is the penalty that makes
    /// shared-memory-hungry kernels unattractive — the paper's
    /// shared-memory-hashtable experiment (§4.2) hinges on it. Without the
    /// throughput term entirely, underfilled blocks would look free and a
    /// block-per-vertex kernel would always "win", erasing the Fig. 4
    /// trade-off.
    fn wave_duration(&self, critical: u64, warp_total: u64) -> u64 {
        let d = &self.device;
        let resident_warps = (d.max_threads_per_sm / d.warp_size).max(1); // per SM
        let occupancy = (resident_warps as f64 / d.saturation_warps_per_sm.max(1) as f64).min(1.0);
        let width = (d.issue_width() as f64 * occupancy).max(1.0);
        critical.max((warp_total as f64 / width).ceil() as u64)
    }
}

/// Pre-wave counter snapshot, used to attribute per-wave deltas (lane vs
/// idle cycles → wave-local divergence) to the wave's trace span, and to
/// settle the wave's imbalance/stall ledger entries.
#[derive(Clone, Copy)]
struct WaveSnapshot {
    lane_cycles: u64,
    idle_cycles: u64,
    threads: u64,
}

impl WaveSnapshot {
    fn of(stats: &KernelStats) -> Self {
        WaveSnapshot {
            lane_cycles: stats.lane_cycles,
            idle_cycles: stats.idle_cycles,
            threads: stats.threads,
        }
    }

    /// Book the wave's load-imbalance and throughput-stall losses.
    ///
    /// The lanes folded this wave occupied `critical × slots` lane-slot
    /// cycles (every slot is held for the wave's critical path); `lane +
    /// idle` of those were accounted per warp, the remainder is warps
    /// finishing before the slowest warp/block — load imbalance. The
    /// duration beyond the critical path is the throughput/occupancy
    /// stall of [`WaveScheduler::wave_duration`]. Together these keep two
    /// exact ledgers: `lane + idle + imbalance = Σ critical × slots` and
    /// `sim_cycles = Σ critical + stall`.
    fn settle(self, stats: &mut KernelStats, critical: u64, dur: u64) {
        let slots = stats.threads - self.threads;
        let busy = (stats.lane_cycles - self.lane_cycles) + (stats.idle_cycles - self.idle_cycles);
        stats.imbalance_cycles += critical * slots - busy;
        stats.stall_cycles += dur - critical;
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_wave(
        self,
        sink: &mut dyn TraceSink,
        wave_t0: u64,
        dur: u64,
        items: usize,
        warp_cost_max: u64,
        warp_cost_sum: u64,
        stats: &KernelStats,
    ) {
        if !sink.is_enabled() {
            return;
        }
        let lane = stats.lane_cycles - self.lane_cycles;
        let idle = stats.idle_cycles - self.idle_cycles;
        let divergence = if lane + idle == 0 {
            0.0
        } else {
            idle as f64 / (lane + idle) as f64
        };
        sink.span_begin(track::WAVE, "wave", wave_t0, &[]);
        sink.span_end(
            track::WAVE,
            "wave",
            wave_t0 + dur,
            &[
                ("items", items.into()),
                ("warp_cost_max", warp_cost_max.into()),
                ("warp_cost_sum", warp_cost_sum.into()),
                ("divergence", Value::F64(divergence)),
            ],
        );
        sink.metrics(
            "wave",
            wave_t0,
            &[
                ("dur", dur),
                ("items", items as u64),
                ("slots", stats.threads - self.threads),
                ("critical", warp_cost_max),
                ("stall", dur - warp_cost_max),
                ("busy", lane),
                ("idle", idle),
            ],
        );
    }
}

/// Execution context of one cooperative thread block.
pub struct BlockCtx<'a> {
    /// Per-lane meters (length = block size).
    pub lanes: Vec<LaneMeter>,
    /// Cost model in effect.
    pub cost: &'a CostModel,
    warp_size: usize,
    /// Lanes that executed at least one metered op. Lanes never touched
    /// are treated as not launched: their cycles (including any
    /// barrier-alignment charge) are zeroed when the block retires.
    touched: Vec<bool>,
    /// Lanes still participating in barriers. All lanes start active;
    /// [`Self::set_lane_active`] models an early `return`.
    active: Vec<bool>,
}

impl<'a> BlockCtx<'a> {
    fn new(block_size: usize, warp_size: usize, cost: &'a CostModel) -> Self {
        BlockCtx {
            lanes: vec![LaneMeter::new(); block_size],
            cost,
            warp_size,
            touched: vec![false; block_size],
            active: vec![true; block_size],
        }
    }

    /// Number of lanes in the block.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Warp width of the simulated device.
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// Mutable access to lane `l`'s meter.
    pub fn lane(&mut self, l: usize) -> &mut LaneMeter {
        self.touched[l] = true;
        #[cfg(feature = "sancheck")]
        hooks::lane_ctx((l / self.warp_size) as u32, (l % self.warp_size) as u32);
        &mut self.lanes[l]
    }

    /// Mark lane `l` as having exited the kernel (`true` re-admits it).
    /// An inactive lane no longer participates in barriers — on hardware,
    /// a `__syncthreads()` reached by only part of a warp is undefined
    /// behaviour, which the `sancheck` checker reports as
    /// barrier-divergence.
    pub fn set_lane_active(&mut self, l: usize, on: bool) {
        self.active[l] = on;
    }

    /// Whether lane `l` still participates in barriers.
    pub fn lane_active(&self, l: usize) -> bool {
        self.active[l]
    }

    /// Grid-stride distribution: work unit `k` is handled by lane
    /// `k % block_size` — the access pattern of the paper's
    /// block-per-vertex neighbour scan.
    pub fn for_each_strided<F>(&mut self, count: usize, mut f: F)
    where
        F: FnMut(usize, &mut LaneMeter),
    {
        let b = self.lanes.len();
        for k in 0..count {
            let l = k % b;
            self.touched[l] = true;
            #[cfg(feature = "sancheck")]
            hooks::lane_ctx((l / self.warp_size) as u32, (l % self.warp_size) as u32);
            f(k, &mut self.lanes[l]);
        }
    }

    /// Charge a block-wide tree reduction over `count` elements
    /// (`ceil(log2(count))` shared-memory steps on every participating
    /// lane), used for `hashtableMaxKey` (Algorithm 1 line `maxkey`) and
    /// the ΔN block reduction.
    pub fn charge_reduction(&mut self, count: usize) {
        if count <= 1 {
            return;
        }
        let steps = usize::BITS - (count - 1).leading_zeros();
        let active = count.min(self.lanes.len());
        for l in 0..active {
            self.touched[l] = true;
            for _ in 0..steps {
                let c = self.cost;
                self.lanes[l].shared(c, crate::cost::Width::W32);
                self.lanes[l].alu(c, 1);
            }
        }
    }

    /// `__syncthreads()`: every *active* lane waits for the slowest active
    /// lane. Waiting time is charged as busy cycles on the waiting lanes
    /// (it occupies the SM). Lanes marked inactive via
    /// [`Self::set_lane_active`] have exited and are not aligned — if only
    /// part of a warp reaches the barrier the `sancheck` checker flags it.
    pub fn barrier(&mut self) {
        #[cfg(feature = "sancheck")]
        hooks::barrier(&self.active, self.warp_size);
        let max = self
            .lanes
            .iter()
            .zip(&self.active)
            .filter(|&(_, &a)| a)
            .map(|(l, _)| l.cycles)
            .max()
            .unwrap_or(0);
        for (l, &a) in self.lanes.iter_mut().zip(&self.active) {
            if a {
                let wait = max - l.cycles;
                l.cycles = max;
                l.tag(crate::cost::Comp::Barrier, wait);
            }
        }
    }

    /// Reset lanes that never executed a metered op (see `touched`).
    fn zero_untouched(&mut self) {
        for (m, &t) in self.lanes.iter_mut().zip(&self.touched) {
            if !t {
                *m = LaneMeter::new();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Width;
    use nulpa_obs::NullSink;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn sched() -> WaveScheduler {
        WaveScheduler::new(DeviceConfig::tiny(), CostModel::default_gpu())
    }

    /// Thread-per-item launch with no shards and no trace.
    fn threads<T, F>(s: &WaveScheduler, items: &[T], kernel: F) -> KernelStats
    where
        T: Copy + Sync,
        F: Fn(T, &mut LaneMeter) + Sync,
    {
        s.launch_thread_per_item(
            "k",
            0,
            &mut NullSink,
            items,
            || (),
            |it, m, _| kernel(it, m),
            |_, _| {},
        )
    }

    /// Block-per-item launch with no shards and no trace.
    fn blocks<T, F>(s: &WaveScheduler, items: &[T], kernel: F) -> KernelStats
    where
        T: Copy + Sync,
        F: Fn(T, &mut BlockCtx<'_>) + Sync,
    {
        s.launch_block_per_item(
            "k",
            0,
            &mut NullSink,
            items,
            || (),
            |it, ctx, _| kernel(it, ctx),
            |_, _| {},
        )
    }

    fn counters(n: usize) -> Vec<AtomicU32> {
        (0..n).map(|_| AtomicU32::new(0)).collect()
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let items: Vec<usize> = (0..1000).collect();
        for t in [1, 4] {
            let seen = counters(1000);
            threads(&sched().with_threads(t), &items, |it, _| {
                seen[it].fetch_add(1, Ordering::Relaxed);
            });
            assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn wave_count_matches_capacity() {
        let s = sched(); // tiny: 64 resident threads
        let items: Vec<usize> = (0..130).collect();
        let stats = threads(&s, &items, |_, _| {});
        assert_eq!(stats.waves, 3); // 64 + 64 + 2
        assert_eq!(stats.threads, 130);
    }

    #[test]
    fn wave_end_fires_per_wave_in_order() {
        let s = sched();
        let items: Vec<usize> = (0..65).collect();
        let mut ends = Vec::new();
        s.launch_thread_per_item(
            "k",
            0,
            &mut NullSink,
            &items,
            || (),
            |_, _, _| {},
            |w, _| ends.push(w),
        );
        assert_eq!(ends, vec![0, 1]);
    }

    #[test]
    fn sim_cycles_take_max_over_lanes() {
        let s = sched();
        // one warp (4 lanes in tiny config): one lane does 10 ALU, rest do 1
        let items: Vec<usize> = (0..4).collect();
        let stats = threads(&s, &items, |it, m| {
            let n = if it == 0 { 10 } else { 1 };
            m.alu(&CostModel::default_gpu(), n);
        });
        assert_eq!(stats.sim_cycles, 10);
        assert_eq!(stats.lane_cycles, 13);
    }

    #[test]
    fn idle_cycles_are_max_minus_lane() {
        let s = sched();
        let items: Vec<usize> = (0..4).collect();
        let stats = threads(&s, &items, |it, m| {
            m.alu(&CostModel::default_gpu(), if it == 0 { 10 } else { 1 })
        });
        // idle = (10-10) + (10-1)*3 = 27
        assert_eq!(stats.idle_cycles, 27);
    }

    #[test]
    fn empty_launch_is_free() {
        let s = sched();
        let stats = threads(&s, &[] as &[usize], |_, _| {});
        assert_eq!(stats, KernelStats::new());
    }

    #[test]
    fn block_launch_runs_each_item_with_full_block() {
        let s = sched(); // block_size 8
        let items = [0usize, 1, 2];
        let mut lanes_seen = Vec::new();
        let stats = s.launch_block_per_item(
            "k",
            0,
            &mut NullSink,
            &items,
            Vec::new,
            |_, ctx, shard: &mut Vec<usize>| shard.push(ctx.num_lanes()),
            |_, shards| {
                for sh in shards.iter_mut() {
                    lanes_seen.append(sh);
                }
            },
        );
        assert_eq!(lanes_seen, vec![8, 8, 8]);
        assert_eq!(stats.threads, 24);
    }

    #[test]
    fn block_waves_respect_resident_blocks() {
        let s = sched(); // tiny: 2 SMs * (32/8) = 8 resident blocks
        let items: Vec<usize> = (0..17).collect();
        let stats = blocks(&s, &items, |_, _| {});
        assert_eq!(stats.waves, 3);
    }

    #[test]
    fn strided_distribution_covers_all_units() {
        let s = sched();
        let hits = counters(20);
        blocks(&s, &[()], |_, ctx| {
            ctx.for_each_strided(20, |k, m| {
                hits[k].fetch_add(1, Ordering::Relaxed);
                m.alu(&CostModel::default_gpu(), 1);
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn strided_work_balances_lanes() {
        let s = sched(); // block 8
        let stats = blocks(&s, &[()], |_, ctx| {
            ctx.for_each_strided(16, |_, m| m.alu(&CostModel::default_gpu(), 1));
        });
        // 16 units over 8 lanes = 2 each; perfectly balanced
        assert_eq!(stats.idle_cycles, 0);
        assert_eq!(stats.sim_cycles, 2);
    }

    #[test]
    fn barrier_aligns_lanes() {
        let s = sched();
        let stats = blocks(&s, &[()], |_, ctx| {
            let c = CostModel::default_gpu();
            ctx.lane(0).alu(&c, 9);
            ctx.barrier();
            // after barrier everyone is at 9; add one more on lane 1
            ctx.lane(1).alu(&c, 1);
        });
        assert_eq!(stats.sim_cycles, 10);
    }

    #[test]
    fn untouched_trailing_lanes_are_idle_not_busy() {
        // A block that only uses lane 0 and then hits a barrier must not
        // charge the 7 phantom lanes with lane 0's cycles: the barrier
        // aligns them while the block runs, but lanes that never executed
        // a metered op are dropped when the block retires.
        let s = sched(); // block 8, warp 4
        let stats = blocks(&s, &[()], |_, ctx| {
            ctx.lane(0).alu(&CostModel::default_gpu(), 9);
            ctx.barrier();
        });
        assert_eq!(stats.lane_cycles, 9); // lane 0 only
        assert_eq!(stats.idle_cycles, 27); // 3 idle lanes in warp 0; warp 1 empty
        assert_eq!(stats.sim_cycles, 9);
    }

    #[test]
    fn barrier_skips_explicitly_inactive_lanes() {
        // Lane 1 does some work and then exits (early return); the
        // barrier must not drag it up to the slowest active lane.
        let s = sched();
        let stats = blocks(&s, &[()], |_, ctx| {
            let c = CostModel::default_gpu();
            ctx.lane(1).alu(&c, 5);
            ctx.set_lane_active(1, false);
            assert!(!ctx.lane_active(1));
            ctx.lane(0).alu(&c, 9);
            ctx.barrier();
        });
        // lane 0 at 9, lane 1 keeps its 5; untouched lanes dropped
        assert_eq!(stats.lane_cycles, 14);
        assert_eq!(stats.sim_cycles, 9);
    }

    #[test]
    fn reduction_charges_log_steps() {
        let s = sched();
        let stats = blocks(&s, &[()], |_, ctx| ctx.charge_reduction(8));
        // log2(8) = 3 steps; each step: shared (1) + alu (1) = 2 cycles
        assert_eq!(stats.sim_cycles, 6);
    }

    #[test]
    fn reduction_of_one_is_free() {
        let s = sched();
        let stats = blocks(&s, &[()], |_, ctx| ctx.charge_reduction(1));
        assert_eq!(stats.sim_cycles, 0);
    }

    #[test]
    fn low_occupancy_reduces_throughput() {
        // two devices identical except for occupancy: the restricted one
        // must report proportionally more simulated cycles on a
        // throughput-bound (many equal warps) workload
        let mut full = DeviceConfig::a100();
        full.warp_size = 4; // keep the test small
        full.block_size = 8;
        let restricted = full.with_shared_mem_per_thread(2048); // 82 threads/SM
        let items: Vec<usize> = (0..200_000).collect();
        let run = |d: DeviceConfig| {
            let s = WaveScheduler::new(d, CostModel::default_gpu());
            threads(&s, &items, |_, m| m.alu(&CostModel::default_gpu(), 10)).sim_cycles
        };
        let c_full = run(full);
        let c_restricted = run(restricted);
        assert!(
            c_restricted > 2 * c_full,
            "restricted {c_restricted} vs full {c_full}"
        );
    }

    #[test]
    fn traced_launch_emits_kernel_and_wave_spans() {
        let s = sched(); // tiny: 64 resident threads
        let items: Vec<usize> = (0..130).collect();
        let mut sink = nulpa_obs::RecordingSink::new();
        let stats = s.launch_thread_per_item(
            "kernel:test",
            100,
            &mut sink,
            &items,
            || (),
            |_, m, _| m.alu(&CostModel::default_gpu(), 1),
            |_, _| {},
        );
        // 1 kernel span + 3 wave spans
        assert_eq!(sink.span_counts(), (4, 4, 0));
        assert_eq!(sink.begin_names()[0], "kernel:test");
        assert_eq!(sink.begin_names()[1..], ["wave", "wave", "wave"]);
        // kernel span ends at t0 + sim_cycles
        let last = sink.events.last().unwrap();
        match last {
            nulpa_obs::TraceEvent::End { name, ts, .. } => {
                assert_eq!(name, "kernel:test");
                assert_eq!(*ts, 100 + stats.sim_cycles);
            }
            other => panic!("expected kernel End, got {other:?}"),
        }
        // warp-cost histogram flushed (probe hist empty: no probes made)
        assert!(sink.hists.contains_key("warp_cost"));
        assert!(!sink.hists.contains_key("probe_len"));
        assert_eq!(sink.hists["warp_cost"].count, stats.warp_cost_hist.count);
    }

    #[test]
    fn recording_sink_does_not_change_stats() {
        let s = sched();
        let items: Vec<usize> = (0..100).collect();
        let kernel = |it: usize, m: &mut LaneMeter, _: &mut ()| {
            m.alu(&CostModel::default_gpu(), (it % 7) as u64);
            m.global_read(&CostModel::default_gpu(), it * 3, Width::W32);
        };
        let mut sink = nulpa_obs::RecordingSink::new();
        let traced = s.launch_thread_per_item("k", 0, &mut sink, &items, || (), kernel, |_, _| {});
        let plain =
            s.launch_thread_per_item("k", 0, &mut NullSink, &items, || (), kernel, |_, _| {});
        assert_eq!(plain, traced);
    }

    #[test]
    fn block_traced_launch_spans() {
        let s = sched(); // 8 resident blocks
        let items: Vec<usize> = (0..9).collect();
        let mut sink = nulpa_obs::RecordingSink::new();
        let stats = s.launch_block_per_item(
            "kernel:block",
            0,
            &mut sink,
            &items,
            || (),
            |_, ctx, _| ctx.for_each_strided(4, |_, m| m.alu(&CostModel::default_gpu(), 2)),
            |_, _| {},
        );
        assert_eq!(stats.waves, 2);
        assert_eq!(sink.span_counts(), (3, 3, 0)); // kernel + 2 waves
    }

    #[test]
    fn probe_done_reaches_kernel_hist() {
        let s = sched();
        let stats = threads(&s, &[0usize, 1, 2], |it, m| {
            m.probe();
            m.probe_done(1 + it as u64);
        });
        assert_eq!(stats.probe_hist.count, 3);
        assert_eq!(stats.probe_hist.max, 3);
        assert_eq!(stats.probes, 3);
    }

    fn thread_kernel_for_shards(it: usize, m: &mut LaneMeter, shard: &mut Vec<usize>) {
        let c = CostModel::default_gpu();
        m.alu(&c, (it % 5) as u64);
        m.global_read(&c, it * 7, Width::W32);
        if it.is_multiple_of(3) {
            shard.push(it);
        }
    }

    fn run_sharded_thread(threads: usize, items: &[usize]) -> (Vec<usize>, Vec<u64>, KernelStats) {
        let s = sched().with_threads(threads);
        let mut order = Vec::new();
        let mut waves = Vec::new();
        let stats = s.launch_thread_per_item(
            "k",
            0,
            &mut NullSink,
            items,
            Vec::new,
            thread_kernel_for_shards,
            |w, shards: &mut [Vec<usize>]| {
                waves.push(w);
                for sh in shards.iter_mut() {
                    order.append(sh);
                }
            },
        );
        (order, waves, stats)
    }

    #[test]
    fn thread_launch_is_bitwise_identical_across_thread_counts() {
        let items: Vec<usize> = (0..500).collect();
        let (o1, w1, s1) = run_sharded_thread(1, &items);
        for threads in [2, 4, 7] {
            let (o, w, s) = run_sharded_thread(threads, &items);
            assert_eq!(o, o1, "staged order diverged at {threads} threads");
            assert_eq!(w, w1);
            assert_eq!(s, s1, "stats diverged at {threads} threads");
        }
        // shards merged in lane order == serial staging order
        let expect: Vec<usize> = items.iter().copied().filter(|i| i % 3 == 0).collect();
        assert_eq!(o1, expect);
    }

    #[test]
    fn block_launch_is_bitwise_identical_across_thread_counts() {
        let items: Vec<usize> = (0..40).collect();
        let run = |threads: usize| {
            let s = sched().with_threads(threads);
            let mut order = Vec::new();
            let stats = s.launch_block_per_item(
                "k",
                0,
                &mut NullSink,
                &items,
                Vec::new,
                |it: usize, ctx: &mut BlockCtx<'_>, shard: &mut Vec<usize>| {
                    ctx.for_each_strided(it % 9 + 1, |_, m| m.alu(&CostModel::default_gpu(), 2));
                    ctx.barrier();
                    shard.push(it);
                },
                |_, shards: &mut [Vec<usize>]| {
                    for sh in shards.iter_mut() {
                        order.append(sh);
                    }
                },
            );
            (order, stats)
        };
        let (o1, s1) = run(1);
        let (o4, s4) = run(4);
        assert_eq!(o1, items, "blocks must merge shards in block order");
        assert_eq!(o1, o4);
        assert_eq!(s1, s4);
    }

    #[test]
    fn trace_spans_are_identical_across_thread_counts() {
        let items: Vec<usize> = (0..130).collect();
        let trace = |threads: usize| {
            let s = sched().with_threads(threads);
            let mut sink = nulpa_obs::RecordingSink::new();
            s.launch_thread_per_item(
                "kernel:test",
                50,
                &mut sink,
                &items,
                || (),
                |it, m, _| m.alu(&CostModel::default_gpu(), (it % 7) as u64),
                |_, _| {},
            );
            sink.events
        };
        assert_eq!(trace(1), trace(4));
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(sched().with_threads(0).threads, 1);
        assert_eq!(sched().with_threads(3).threads, 3);
    }

    #[test]
    fn worker_panic_propagates() {
        let s = sched().with_threads(4);
        let items: Vec<usize> = (0..200).collect();
        let r = std::panic::catch_unwind(|| {
            threads(&s, &items, |it, _m| {
                if it == 137 {
                    panic!("lane fault");
                }
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn atomic_width_visible_in_stats() {
        let s = sched();
        let stats = threads(&s, &[0usize], |_, m| {
            m.atomic(&CostModel::default_gpu(), 0, Width::W64)
        });
        assert_eq!(stats.atomics, 1);
        assert!(stats.sim_cycles > 0);
    }
}

//! Wave scheduler: lockstep kernel launches.
//!
//! A *wave* is the set of threads (or blocks) co-resident on the device at
//! one time — on the A100 preset, 108 SMs × 2048 threads. The paper's
//! community-swap pathology (§4.1) arises because co-resident symmetric
//! vertices read each other's *pre-wave* labels; pair this scheduler with
//! [`crate::deferred::DeferredStore`] and that visibility rule holds
//! exactly: the `wave_end` callback is the flush point.
//!
//! The simulator executes lanes serially (deterministically) while
//! *modelling* parallel lockstep timing: each lane meters its own cost,
//! a warp costs the max of its lanes, a wave the max of its warps, and the
//! kernel the sum of its waves. Atomics performed by kernels against real
//! `AtomicU32`/[`crate::atomics::AtomicF32`] cells are immediate, as on
//! hardware.

use crate::cost::{Comp, CostModel, LaneMeter};
use crate::device::DeviceConfig;
use crate::stats::KernelStats;
use nulpa_obs::{track, NullSink, TraceSink, Value};
#[cfg(feature = "sancheck")]
use nulpa_sancheck::hooks;

/// `true` while a sancheck checker is installed (sharded launches fall
/// back to serial execution so hook order stays deterministic).
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

/// Run `work` over contiguous `chunk_len`-sized chunks of `items`, one
/// scoped host thread per chunk, and return the results in chunk order.
/// A worker panic is re-raised on the calling thread.
fn run_chunks<T, R, W>(items: &[T], chunk_len: usize, work: W) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Fn(&[T]) -> R + Sync,
{
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || work(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Minimum lanes per host-thread chunk in a sharded thread-per-item wave;
/// waves smaller than `2 × this` stay on one host thread (spawn cost would
/// dominate the lane work).
const MIN_LANES_PER_CHUNK: usize = 16;

/// Lockstep kernel launcher for a fixed device.
#[derive(Clone, Copy, Debug)]
pub struct WaveScheduler {
    /// Device being simulated.
    pub device: DeviceConfig,
    /// Cost model charged to lanes.
    pub cost: CostModel,
    /// Host threads the sharded launches may use (1 = serial). The
    /// classic `launch_*_per_item` entry points ignore this and always
    /// run serially; only the `*_sharded` variants parallelise.
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

    /// Builder-style setter for the host-thread count used by the sharded
    /// launches (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Thread-per-item launch: one lane per item (the paper's
    /// thread-per-vertex kernel for low-degree vertices).
    ///
    /// `kernel(item, lane)` is invoked once per item; `wave_end(wave_idx)`
    /// fires after all items of a wave ran — flush deferred stores there.
    pub fn launch_thread_per_item<T, F, G>(
        &self,
        items: &[T],
        kernel: F,
        wave_end: G,
    ) -> KernelStats
    where
        T: Copy,
        F: FnMut(T, &mut LaneMeter),
        G: FnMut(u64),
    {
        self.launch_thread_per_item_traced(
            "kernel:thread",
            0,
            &mut NullSink,
            items,
            kernel,
            wave_end,
        )
    }

    /// [`Self::launch_thread_per_item`] with tracing: emits a kernel span
    /// named `name` starting at simulated cycle `t0`, one span per wave
    /// (warp-cost max/sum and divergence in the args), and the launch's
    /// probe-length and warp-cost histograms into `sink`.
    pub fn launch_thread_per_item_traced<T, F, G>(
        &self,
        name: &str,
        t0: u64,
        sink: &mut dyn TraceSink,
        items: &[T],
        mut kernel: F,
        mut wave_end: G,
    ) -> KernelStats
    where
        T: Copy,
        F: FnMut(T, &mut LaneMeter),
        G: FnMut(u64),
    {
        let mut stats = KernelStats::new();
        let wave_cap = self.device.resident_threads();
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
            let mut meters: Vec<LaneMeter> = Vec::with_capacity(wave_items.len());
            for (i, &it) in wave_items.iter().enumerate() {
                hook_lane_ctx(i, warp);
                let mut m = LaneMeter::new();
                kernel(it, &mut m);
                meters.push(m);
            }
            let mut critical = 0u64;
            let mut warp_total = 0u64;
            for warp_lanes in meters.chunks(warp) {
                let c = stats.fold_warp(warp_lanes);
                critical = critical.max(c);
                warp_total += c;
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
            wave_end(w as u64);
            // The epoch advances after the user's wave_end callback so that
            // DeferredStore::flush commits land in the wave they belong to.
            #[cfg(feature = "sancheck")]
            hooks::wave_end();
        }
        #[cfg(feature = "sancheck")]
        hooks::kernel_end();
        self.finish_kernel_span(sink, name, t0, &stats);
        stats
    }

    /// Block-per-item launch: one cooperative block per item (the paper's
    /// block-per-vertex kernel for high-degree vertices).
    pub fn launch_block_per_item<T, F, G>(&self, items: &[T], kernel: F, wave_end: G) -> KernelStats
    where
        T: Copy,
        F: FnMut(T, &mut BlockCtx<'_>),
        G: FnMut(u64),
    {
        self.launch_block_per_item_traced("kernel:block", 0, &mut NullSink, items, kernel, wave_end)
    }

    /// [`Self::launch_block_per_item`] with tracing; see
    /// [`Self::launch_thread_per_item_traced`] for the span layout.
    pub fn launch_block_per_item_traced<T, F, G>(
        &self,
        name: &str,
        t0: u64,
        sink: &mut dyn TraceSink,
        items: &[T],
        mut kernel: F,
        mut wave_end: G,
    ) -> KernelStats
    where
        T: Copy,
        F: FnMut(T, &mut BlockCtx<'_>),
        G: FnMut(u64),
    {
        let mut stats = KernelStats::new();
        let wave_cap = self.device.resident_blocks();
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
            let mut critical = 0u64;
            let mut warp_total = 0u64;
            for (b, &it) in wave_items.iter().enumerate() {
                hook_block_ctx(b);
                let mut ctx = BlockCtx::new(self.device.block_size, warp, &self.cost);
                kernel(it, &mut ctx);
                // Lanes that never executed a metered op did no work in
                // this block: drop any barrier-alignment cycles they were
                // assigned so partially-filled trailing blocks are not
                // charged for phantom lanes.
                ctx.zero_untouched();
                let mut block_cost = 0u64;
                for warp_lanes in ctx.lanes.chunks(warp) {
                    let c = stats.fold_warp(warp_lanes);
                    block_cost = block_cost.max(c);
                    warp_total += c;
                }
                critical = critical.max(block_cost);
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
            wave_end(w as u64);
            #[cfg(feature = "sancheck")]
            hooks::wave_end();
        }
        #[cfg(feature = "sancheck")]
        hooks::kernel_end();
        self.finish_kernel_span(sink, name, t0, &stats);
        stats
    }

    /// Thread-per-item launch that may execute lanes on multiple host
    /// threads, with results bit-for-bit identical to the serial path.
    ///
    /// Lanes within a wave are independent by construction — reads see
    /// wave-start state, writes are staged — so the only ordering that can
    /// leak into results is the order in which staged writes are merged.
    /// The sharded launch pins that order: each wave is split into
    /// **contiguous** chunks of lanes, each chunk runs serially on one
    /// host thread against its own shard `S` (created by `make_shard`),
    /// and `wave_end` receives the shards **in chunk order**, which equals
    /// lane order. Concatenating the shards' staged writes therefore
    /// reproduces the serial staging order exactly, for any thread count.
    /// Per-lane meters are likewise collected in lane order and folded
    /// into warps serially, so `KernelStats` and trace spans are
    /// unchanged.
    ///
    /// Falls back to serial execution (one shard, identical results) when
    /// `threads <= 1` or a `sancheck` checker is installed — the checker's
    /// shadow state tracks one lane at a time and hooks would interleave
    /// nondeterministically across host threads.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_thread_per_item_sharded_traced<T, S, M, F, G>(
        &self,
        name: &str,
        t0: u64,
        sink: &mut dyn TraceSink,
        items: &[T],
        make_shard: M,
        kernel: F,
        mut wave_end: G,
    ) -> KernelStats
    where
        T: Copy + Sync,
        S: Send,
        M: Fn() -> S + Sync,
        F: Fn(T, &mut LaneMeter, &mut S) + Sync,
        G: FnMut(u64, &mut [S]),
    {
        let mut stats = KernelStats::new();
        let wave_cap = self.device.resident_threads();
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
        let serial = self.threads <= 1 || checker_active();
        for (w, wave_items) in items.chunks(wave_cap).enumerate() {
            let before = WaveSnapshot::of(&stats);
            #[cfg(feature = "sancheck")]
            hooks::wave_begin(w as u64);
            let (meters, mut shards) = if serial {
                self.run_lanes_serial(wave_items, &make_shard, &kernel)
            } else {
                self.run_lanes_parallel(wave_items, &make_shard, &kernel)
            };
            let mut critical = 0u64;
            let mut warp_total = 0u64;
            for warp_lanes in meters.chunks(warp) {
                let c = stats.fold_warp(warp_lanes);
                critical = critical.max(c);
                warp_total += c;
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
            #[cfg(feature = "sancheck")]
            hooks::wave_end();
        }
        #[cfg(feature = "sancheck")]
        hooks::kernel_end();
        self.finish_kernel_span(sink, name, t0, &stats);
        stats
    }

    /// Block-per-item counterpart of
    /// [`Self::launch_thread_per_item_sharded_traced`]: whole blocks are
    /// distributed over host threads (a block's lanes share a `BlockCtx`
    /// and must stay together), shards merge in block order.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_block_per_item_sharded_traced<T, S, M, F, G>(
        &self,
        name: &str,
        t0: u64,
        sink: &mut dyn TraceSink,
        items: &[T],
        make_shard: M,
        kernel: F,
        mut wave_end: G,
    ) -> KernelStats
    where
        T: Copy + Sync,
        S: Send,
        M: Fn() -> S + Sync,
        F: Fn(T, &mut BlockCtx<'_>, &mut S) + Sync,
        G: FnMut(u64, &mut [S]),
    {
        let mut stats = KernelStats::new();
        let wave_cap = self.device.resident_blocks();
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
        let serial = self.threads <= 1 || checker_active();
        for (w, wave_items) in items.chunks(wave_cap).enumerate() {
            let before = WaveSnapshot::of(&stats);
            #[cfg(feature = "sancheck")]
            hooks::wave_begin(w as u64);
            let (blocks, mut shards) = if serial {
                self.run_blocks_serial(wave_items, &make_shard, &kernel)
            } else {
                self.run_blocks_parallel(wave_items, &make_shard, &kernel)
            };
            let mut critical = 0u64;
            let mut warp_total = 0u64;
            for lanes in &blocks {
                let mut block_cost = 0u64;
                for warp_lanes in lanes.chunks(warp) {
                    let c = stats.fold_warp(warp_lanes);
                    block_cost = block_cost.max(c);
                    warp_total += c;
                }
                critical = critical.max(block_cost);
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
            #[cfg(feature = "sancheck")]
            hooks::wave_end();
        }
        #[cfg(feature = "sancheck")]
        hooks::kernel_end();
        self.finish_kernel_span(sink, name, t0, &stats);
        stats
    }

    /// One wave of thread-per-item lanes on the calling thread (the
    /// sancheck-compatible path: lane coordinates are reported per lane).
    fn run_lanes_serial<T, S, M, F>(
        &self,
        wave_items: &[T],
        make_shard: &M,
        kernel: &F,
    ) -> (Vec<LaneMeter>, Vec<S>)
    where
        T: Copy,
        M: Fn() -> S,
        F: Fn(T, &mut LaneMeter, &mut S),
    {
        let mut shard = make_shard();
        let mut meters = Vec::with_capacity(wave_items.len());
        for (i, &it) in wave_items.iter().enumerate() {
            hook_lane_ctx(i, self.device.warp_size);
            let mut m = LaneMeter::new();
            kernel(it, &mut m, &mut shard);
            meters.push(m);
        }
        (meters, vec![shard])
    }

    /// One wave of thread-per-item lanes split into contiguous chunks on
    /// scoped host threads; meters and shards return in chunk (= lane)
    /// order.
    fn run_lanes_parallel<T, S, M, F>(
        &self,
        wave_items: &[T],
        make_shard: &M,
        kernel: &F,
    ) -> (Vec<LaneMeter>, Vec<S>)
    where
        T: Copy + Sync,
        S: Send,
        M: Fn() -> S + Sync,
        F: Fn(T, &mut LaneMeter, &mut S) + Sync,
    {
        let n = wave_items.len();
        let nchunks = self.threads.min(n.div_ceil(MIN_LANES_PER_CHUNK)).max(1);
        if nchunks <= 1 {
            return self.run_lanes_serial(wave_items, make_shard, kernel);
        }
        let chunk_len = n.div_ceil(nchunks);
        let results = run_chunks(wave_items, chunk_len, |chunk| {
            let mut shard = make_shard();
            let mut ms = Vec::with_capacity(chunk.len());
            for &it in chunk {
                let mut m = LaneMeter::new();
                kernel(it, &mut m, &mut shard);
                ms.push(m);
            }
            (ms, shard)
        });
        let mut meters = Vec::with_capacity(n);
        let mut shards = Vec::with_capacity(results.len());
        for (ms, s) in results {
            meters.extend(ms);
            shards.push(s);
        }
        (meters, shards)
    }

    /// One wave of block-per-item blocks on the calling thread; returns
    /// each block's retired lane meters in block order.
    #[allow(clippy::type_complexity)]
    fn run_blocks_serial<T, S, M, F>(
        &self,
        wave_items: &[T],
        make_shard: &M,
        kernel: &F,
    ) -> (Vec<Vec<LaneMeter>>, Vec<S>)
    where
        T: Copy,
        M: Fn() -> S,
        F: Fn(T, &mut BlockCtx<'_>, &mut S),
    {
        let mut shard = make_shard();
        let mut blocks = Vec::with_capacity(wave_items.len());
        for (b, &it) in wave_items.iter().enumerate() {
            hook_block_ctx(b);
            let mut ctx = BlockCtx::new(self.device.block_size, self.device.warp_size, &self.cost);
            kernel(it, &mut ctx, &mut shard);
            ctx.zero_untouched();
            blocks.push(ctx.lanes);
        }
        (blocks, vec![shard])
    }

    /// One wave of block-per-item blocks split into contiguous chunks on
    /// scoped host threads; blocks and shards return in block order.
    #[allow(clippy::type_complexity)]
    fn run_blocks_parallel<T, S, M, F>(
        &self,
        wave_items: &[T],
        make_shard: &M,
        kernel: &F,
    ) -> (Vec<Vec<LaneMeter>>, Vec<S>)
    where
        T: Copy + Sync,
        S: Send,
        M: Fn() -> S + Sync,
        F: Fn(T, &mut BlockCtx<'_>, &mut S) + Sync,
    {
        let n = wave_items.len();
        let nchunks = self.threads.min(n).max(1);
        if nchunks <= 1 {
            return self.run_blocks_serial(wave_items, make_shard, kernel);
        }
        let chunk_len = n.div_ceil(nchunks);
        let results = run_chunks(wave_items, chunk_len, |chunk| {
            let mut shard = make_shard();
            let mut blocks = Vec::with_capacity(chunk.len());
            for &it in chunk {
                let mut ctx =
                    BlockCtx::new(self.device.block_size, self.device.warp_size, &self.cost);
                kernel(it, &mut ctx, &mut shard);
                ctx.zero_untouched();
                blocks.push(ctx.lanes);
            }
            (blocks, shard)
        });
        let mut blocks = Vec::with_capacity(n);
        let mut shards = Vec::with_capacity(results.len());
        for (bs, s) in results {
            blocks.extend(bs);
            shards.push(s);
        }
        (blocks, shards)
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
                ("frontier_compact", c.get(Comp::FrontierCompact)),
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

    fn sched() -> WaveScheduler {
        WaveScheduler::new(DeviceConfig::tiny(), CostModel::default_gpu())
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let s = sched();
        let items: Vec<usize> = (0..1000).collect();
        let mut seen = vec![0u32; 1000];
        s.launch_thread_per_item(&items, |it, _| seen[it] += 1, |_| {});
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn wave_count_matches_capacity() {
        let s = sched(); // tiny: 64 resident threads
        let items: Vec<usize> = (0..130).collect();
        let stats = s.launch_thread_per_item(&items, |_, _| {}, |_| {});
        assert_eq!(stats.waves, 3); // 64 + 64 + 2
        assert_eq!(stats.threads, 130);
    }

    #[test]
    fn wave_end_fires_per_wave_in_order() {
        let s = sched();
        let items: Vec<usize> = (0..65).collect();
        let mut ends = Vec::new();
        s.launch_thread_per_item(&items, |_, _| {}, |w| ends.push(w));
        assert_eq!(ends, vec![0, 1]);
    }

    #[test]
    fn sim_cycles_take_max_over_lanes() {
        let s = sched();
        // one warp (4 lanes in tiny config): one lane does 10 ALU, rest do 1
        let items: Vec<usize> = (0..4).collect();
        let stats = s.launch_thread_per_item(
            &items,
            |it, m| {
                let n = if it == 0 { 10 } else { 1 };
                m.alu(&CostModel::default_gpu(), n);
            },
            |_| {},
        );
        assert_eq!(stats.sim_cycles, 10);
        assert_eq!(stats.lane_cycles, 13);
    }

    #[test]
    fn idle_cycles_are_max_minus_lane() {
        let s = sched();
        let items: Vec<usize> = (0..4).collect();
        let stats = s.launch_thread_per_item(
            &items,
            |it, m| m.alu(&CostModel::default_gpu(), if it == 0 { 10 } else { 1 }),
            |_| {},
        );
        // idle = (10-10) + (10-1)*3 = 27
        assert_eq!(stats.idle_cycles, 27);
    }

    #[test]
    fn empty_launch_is_free() {
        let s = sched();
        let stats = s.launch_thread_per_item(&[] as &[usize], |_, _| {}, |_| {});
        assert_eq!(stats, KernelStats::new());
    }

    #[test]
    fn block_launch_runs_each_item_with_full_block() {
        let s = sched(); // block_size 8
        let items = [0usize, 1, 2];
        let mut lanes_seen = Vec::new();
        let stats =
            s.launch_block_per_item(&items, |_, ctx| lanes_seen.push(ctx.num_lanes()), |_| {});
        assert_eq!(lanes_seen, vec![8, 8, 8]);
        assert_eq!(stats.threads, 24);
    }

    #[test]
    fn block_waves_respect_resident_blocks() {
        let s = sched(); // tiny: 2 SMs * (32/8) = 8 resident blocks
        let items: Vec<usize> = (0..17).collect();
        let stats = s.launch_block_per_item(&items, |_, _| {}, |_| {});
        assert_eq!(stats.waves, 3);
    }

    #[test]
    fn strided_distribution_covers_all_units() {
        let s = sched();
        let mut hits = [0u32; 20];
        s.launch_block_per_item(
            &[()],
            |_, ctx| {
                ctx.for_each_strided(20, |k, m| {
                    hits[k] += 1;
                    m.alu(&CostModel::default_gpu(), 1);
                })
            },
            |_| {},
        );
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn strided_work_balances_lanes() {
        let s = sched(); // block 8
        let stats = s.launch_block_per_item(
            &[()],
            |_, ctx| {
                ctx.for_each_strided(16, |_, m| m.alu(&CostModel::default_gpu(), 1));
            },
            |_| {},
        );
        // 16 units over 8 lanes = 2 each; perfectly balanced
        assert_eq!(stats.idle_cycles, 0);
        assert_eq!(stats.sim_cycles, 2);
    }

    #[test]
    fn barrier_aligns_lanes() {
        let s = sched();
        let stats = s.launch_block_per_item(
            &[()],
            |_, ctx| {
                let c = CostModel::default_gpu();
                ctx.lane(0).alu(&c, 9);
                ctx.barrier();
                // after barrier everyone is at 9; add one more on lane 1
                ctx.lane(1).alu(&c, 1);
            },
            |_| {},
        );
        assert_eq!(stats.sim_cycles, 10);
    }

    #[test]
    fn untouched_trailing_lanes_are_idle_not_busy() {
        // A block that only uses lane 0 and then hits a barrier must not
        // charge the 7 phantom lanes with lane 0's cycles: the barrier
        // aligns them while the block runs, but lanes that never executed
        // a metered op are dropped when the block retires.
        let s = sched(); // block 8, warp 4
        let stats = s.launch_block_per_item(
            &[()],
            |_, ctx| {
                ctx.lane(0).alu(&CostModel::default_gpu(), 9);
                ctx.barrier();
            },
            |_| {},
        );
        assert_eq!(stats.lane_cycles, 9); // lane 0 only
        assert_eq!(stats.idle_cycles, 27); // 3 idle lanes in warp 0; warp 1 empty
        assert_eq!(stats.sim_cycles, 9);
    }

    #[test]
    fn barrier_skips_explicitly_inactive_lanes() {
        // Lane 1 does some work and then exits (early return); the
        // barrier must not drag it up to the slowest active lane.
        let s = sched();
        let stats = s.launch_block_per_item(
            &[()],
            |_, ctx| {
                let c = CostModel::default_gpu();
                ctx.lane(1).alu(&c, 5);
                ctx.set_lane_active(1, false);
                assert!(!ctx.lane_active(1));
                ctx.lane(0).alu(&c, 9);
                ctx.barrier();
            },
            |_| {},
        );
        // lane 0 at 9, lane 1 keeps its 5; untouched lanes dropped
        assert_eq!(stats.lane_cycles, 14);
        assert_eq!(stats.sim_cycles, 9);
    }

    #[test]
    fn reduction_charges_log_steps() {
        let s = sched();
        let stats = s.launch_block_per_item(&[()], |_, ctx| ctx.charge_reduction(8), |_| {});
        // log2(8) = 3 steps; each step: shared (1) + alu (1) = 2 cycles
        assert_eq!(stats.sim_cycles, 6);
    }

    #[test]
    fn reduction_of_one_is_free() {
        let s = sched();
        let stats = s.launch_block_per_item(&[()], |_, ctx| ctx.charge_reduction(1), |_| {});
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
            s.launch_thread_per_item(&items, |_, m| m.alu(&CostModel::default_gpu(), 10), |_| {})
                .sim_cycles
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
        let stats = s.launch_thread_per_item_traced(
            "kernel:test",
            100,
            &mut sink,
            &items,
            |_, m| m.alu(&CostModel::default_gpu(), 1),
            |_| {},
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
    fn traced_and_untraced_launch_agree() {
        let s = sched();
        let items: Vec<usize> = (0..100).collect();
        let kernel = |it: usize, m: &mut LaneMeter| {
            m.alu(&CostModel::default_gpu(), (it % 7) as u64);
            m.global_read(&CostModel::default_gpu(), it * 3, Width::W32);
        };
        let plain = s.launch_thread_per_item(&items, kernel, |_| {});
        let mut sink = nulpa_obs::RecordingSink::new();
        let traced = s.launch_thread_per_item_traced("k", 0, &mut sink, &items, kernel, |_| {});
        assert_eq!(plain, traced);
    }

    #[test]
    fn block_traced_launch_spans() {
        let s = sched(); // 8 resident blocks
        let items: Vec<usize> = (0..9).collect();
        let mut sink = nulpa_obs::RecordingSink::new();
        let stats = s.launch_block_per_item_traced(
            "kernel:block",
            0,
            &mut sink,
            &items,
            |_, ctx| ctx.for_each_strided(4, |_, m| m.alu(&CostModel::default_gpu(), 2)),
            |_| {},
        );
        assert_eq!(stats.waves, 2);
        assert_eq!(sink.span_counts(), (3, 3, 0)); // kernel + 2 waves
    }

    #[test]
    fn probe_done_reaches_kernel_hist() {
        let s = sched();
        let stats = s.launch_thread_per_item(
            &[0usize, 1, 2],
            |it, m| {
                m.probe();
                m.probe_done(1 + it as u64);
            },
            |_| {},
        );
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
        let stats = s.launch_thread_per_item_sharded_traced(
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
    fn sharded_thread_launch_is_bitwise_identical_across_thread_counts() {
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
    fn sharded_thread_launch_matches_classic_launch_stats() {
        let items: Vec<usize> = (0..300).collect();
        let classic = sched().launch_thread_per_item(
            &items,
            |it, m| {
                let mut unused = Vec::new();
                thread_kernel_for_shards(it, m, &mut unused);
            },
            |_| {},
        );
        let (_, _, sharded) = run_sharded_thread(4, &items);
        assert_eq!(classic, sharded);
    }

    #[test]
    fn sharded_block_launch_is_bitwise_identical_across_thread_counts() {
        let items: Vec<usize> = (0..40).collect();
        let run = |threads: usize| {
            let s = sched().with_threads(threads);
            let mut order = Vec::new();
            let stats = s.launch_block_per_item_sharded_traced(
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
    fn sharded_traced_spans_match_serial_launch() {
        let items: Vec<usize> = (0..130).collect();
        let trace = |threads: usize| {
            let s = sched().with_threads(threads);
            let mut sink = nulpa_obs::RecordingSink::new();
            s.launch_thread_per_item_sharded_traced(
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
            s.launch_thread_per_item_sharded_traced(
                "k",
                0,
                &mut NullSink,
                &items,
                || (),
                |it, _m, _| {
                    if it == 137 {
                        panic!("lane fault");
                    }
                },
                |_, _| {},
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn atomic_width_visible_in_stats() {
        let s = sched();
        let stats = s.launch_thread_per_item(
            &[0usize],
            |_, m| m.atomic(&CostModel::default_gpu(), 0, Width::W64),
            |_| {},
        );
        assert_eq!(stats.atomics, 1);
        assert!(stats.sim_cycles > 0);
    }
}

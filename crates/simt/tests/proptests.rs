//! Property-based tests for the SIMT simulator.

use nulpa_simt::{
    BlockCtx, CostModel, DeferredStore, DeviceConfig, KernelStats, LaneMeter, NullSink,
    WaveScheduler, Width,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Thread-per-item launch on `threads` host threads, no shards, no trace.
fn thread_launch<F>(sched: WaveScheduler, threads: usize, items: &[usize], kernel: F) -> KernelStats
where
    F: Fn(usize, &mut LaneMeter) + Sync,
{
    sched.with_threads(threads).launch_thread_per_item(
        "k",
        0,
        &mut NullSink,
        items,
        || (),
        |it, m, _| kernel(it, m),
        |_, _| {},
    )
}

/// Block-per-item launch on `threads` host threads, no shards, no trace.
fn block_launch<F>(sched: WaveScheduler, threads: usize, items: &[()], kernel: F) -> KernelStats
where
    F: Fn(&mut BlockCtx<'_>) + Sync,
{
    sched.with_threads(threads).launch_block_per_item(
        "k",
        0,
        &mut NullSink,
        items,
        || (),
        |_, ctx, _| kernel(ctx),
        |_, _| {},
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_item_runs_exactly_once_any_device(
        n_items in 0usize..5000,
        sm in 1usize..8,
        tps in 1usize..8,
        threads in 1usize..=4,
    ) {
        let device = DeviceConfig {
            sm_count: sm,
            warp_size: 4,
            block_size: 4,
            max_threads_per_sm: tps * 4,
            warp_schedulers: 1,
            shared_mem_per_sm: 1024,
            saturation_warps_per_sm: 1,
        };
        let sched = WaveScheduler::new(device, CostModel::default_gpu());
        let items: Vec<usize> = (0..n_items).collect();
        let hits: Vec<AtomicU32> = (0..n_items).map(|_| AtomicU32::new(0)).collect();
        let kernel = |i: usize, _: &mut LaneMeter| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        };
        let stats = thread_launch(sched, threads, &items, kernel);
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        prop_assert_eq!(stats.threads as usize, n_items);
        let expected_waves = n_items.div_ceil(device.resident_threads().max(1));
        prop_assert_eq!(stats.waves as usize, expected_waves);
        prop_assert_eq!(stats, thread_launch(sched, 1, &items, kernel));
    }

    #[test]
    fn sim_cycles_bounded_by_work(
        costs in proptest::collection::vec(0u64..200, 1..300),
        threads in 1usize..=4,
    ) {
        let sched = WaveScheduler::new(DeviceConfig::tiny(), CostModel::default_gpu());
        let items: Vec<usize> = (0..costs.len()).collect();
        let kernel = |i: usize, m: &mut LaneMeter| m.alu(&CostModel::default_gpu(), costs[i]);
        let stats = thread_launch(sched, threads, &items, kernel);
        prop_assert_eq!(&stats, &thread_launch(sched, 1, &items, kernel));
        // duration can never exceed total lockstep work nor undercut the
        // single slowest lane
        let max_cost = *costs.iter().max().unwrap();
        prop_assert!(stats.sim_cycles >= max_cost);
        prop_assert!(stats.sim_cycles <= stats.lane_cycles + stats.idle_cycles);
        // busy work is conserved exactly
        prop_assert_eq!(stats.lane_cycles, costs.iter().sum::<u64>());
    }

    #[test]
    fn deferred_store_last_write_wins(
        init in proptest::collection::vec(0u32..100, 1..50),
        writes in proptest::collection::vec((0usize..50, 0u32..100), 0..100),
    ) {
        let n = init.len();
        let mut store = DeferredStore::new(init.clone());
        let mut expected = init.clone();
        for &(i, v) in writes.iter().filter(|(i, _)| *i < n) {
            // reads always see the committed (pre-wave) state
            prop_assert_eq!(store.get(i), expected[i]);
            store.stage(i, v);
        }
        // model last-write-wins
        let mut last: Vec<u32> = init;
        for &(i, v) in writes.iter().filter(|(i, _)| *i < n) {
            last[i] = v;
        }
        store.flush();
        for (i, &want) in last.iter().enumerate() {
            prop_assert_eq!(store.get(i), want);
        }
        expected.clear(); // silence unused-assignment lint path
    }

    #[test]
    fn flush_matches_sequential_replay_and_collision_accounting(
        init in proptest::collection::vec(0u32..100, 1..40),
        waves in proptest::collection::vec(
            proptest::collection::vec((0usize..40, 0u32..100), 0..60),
            1..6,
        ),
    ) {
        // Across several waves, flush must (a) equal a sequential
        // last-write-wins replay of each wave's stream and (b) count
        // collisions exactly as the reference `writes - distinct cells`
        // accounting per wave, cumulatively.
        let n = init.len();
        let mut store = DeferredStore::new(init.clone());
        let mut replay = init;
        let mut expected_collisions = 0u64;
        for wave in &waves {
            let mut distinct = std::collections::HashSet::new();
            let mut writes = 0u64;
            for &(i, v) in wave.iter().filter(|(i, _)| *i < n) {
                store.stage(i, v);
                replay[i] = v;
                distinct.insert(i);
                writes += 1;
            }
            store.flush();
            expected_collisions += writes - distinct.len() as u64;
            prop_assert_eq!(store.as_slice(), replay.as_slice());
            prop_assert_eq!(store.staged_collisions(), expected_collisions);
        }
    }

    #[test]
    fn reduction_cost_is_exactly_log2_steps(
        count in 2usize..5000,
    ) {
        // charge_reduction models a tree reduction: ceil(log2(count))
        // steps, each costing one shared access + one ALU op = 2 cycles
        // on every participating lane, in lockstep.
        let sched = WaveScheduler::new(DeviceConfig::tiny(), CostModel::default_gpu());
        let stats = block_launch(sched, 1, &[()], |ctx| ctx.charge_reduction(count));
        let steps = (usize::BITS - (count - 1).leading_zeros()) as u64;
        prop_assert_eq!(steps, (count as f64).log2().ceil() as u64);
        prop_assert_eq!(stats.sim_cycles, 2 * steps);
    }

    #[test]
    fn lane_meter_counters_add_up(
        ops in proptest::collection::vec((0u8..4, 0usize..10_000), 0..200),
    ) {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        let (mut reads, mut writes, mut atomics) = (0u64, 0u64, 0u64);
        for &(kind, addr) in &ops {
            match kind {
                0 => {
                    m.global_read(&c, addr, Width::W32);
                    reads += 1;
                }
                1 => {
                    m.global_write(&c, addr, Width::W32);
                    writes += 1;
                }
                2 => {
                    m.atomic(&c, addr, Width::W32);
                    atomics += 1;
                }
                _ => m.alu(&c, 1),
            }
        }
        prop_assert_eq!(m.global_reads, reads);
        prop_assert_eq!(m.global_writes, writes);
        prop_assert_eq!(m.atomics, atomics);
        // every op costs something except zero-count alu
        let min_cost = (reads + writes + atomics) * c.global_near;
        prop_assert!(m.cycles >= min_cost);
    }

    #[test]
    fn block_launch_conserves_strided_work(
        count in 0usize..500,
        blocks in 1usize..20,
        threads in 1usize..=4,
    ) {
        let sched = WaveScheduler::new(DeviceConfig::tiny(), CostModel::default_gpu());
        let seen: Vec<AtomicU32> = (0..count).map(|_| AtomicU32::new(0)).collect();
        let kernel = |ctx: &mut BlockCtx<'_>| {
            ctx.for_each_strided(count, |k, m| {
                seen[k].fetch_add(1, Ordering::Relaxed);
                m.alu(&CostModel::default_gpu(), 1);
            });
        };
        let items = vec![(); blocks];
        let stats = block_launch(sched, threads, &items, kernel);
        prop_assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == blocks as u32));
        prop_assert_eq!(stats.lane_cycles, (count * blocks) as u64);
        prop_assert_eq!(stats, block_launch(sched, 1, &items, kernel));
    }
}

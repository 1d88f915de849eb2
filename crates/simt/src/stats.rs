//! Aggregated kernel statistics.

use crate::cost::{CompCycles, LaneMeter};
use nulpa_obs::Hist;

/// Statistics for one kernel launch (or a sum over launches).
///
/// `sim_cycles` is the simulated duration under lockstep semantics: per
/// wave, the maximum warp cost (warps run concurrently across SMs); per
/// warp, the maximum lane cost (lanes run in lockstep). `lane_cycles` is
/// the total useful work; `idle_cycles` is the lockstep waste — the gap
/// between each warp's duration × width and the work its lanes actually
/// did. The ratio `idle / (idle + lane)` is the divergence the paper's
/// probing-strategy experiment (Fig. 3) is designed to reduce.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Simulated kernel duration (cycles).
    pub sim_cycles: u64,
    /// Sum of per-lane busy cycles.
    pub lane_cycles: u64,
    /// Lockstep idle cycles (divergence + load imbalance within warps).
    pub idle_cycles: u64,
    /// Hash probes performed.
    pub probes: u64,
    /// Atomic operations performed.
    pub atomics: u64,
    /// Global reads.
    pub global_reads: u64,
    /// Global writes.
    pub global_writes: u64,
    /// Waves launched.
    pub waves: u64,
    /// Threads (lanes with work) launched.
    pub threads: u64,
    /// Log2 histogram of completed probe-sequence lengths (fed by
    /// [`LaneMeter::probe_done`] via the hashtable layer).
    pub probe_hist: Hist,
    /// Log2 histogram of per-warp lockstep costs (one sample per warp
    /// folded) — the divergence distribution behind `idle_cycles`.
    pub warp_cost_hist: Hist,
    /// Load-imbalance loss: per wave, the gap between the wave's critical
    /// path × folded lane slots and the lane slots actually occupied
    /// (`lane_cycles + idle_cycles`). Cycles where whole warps sat
    /// finished while the slowest warp/block of the wave was still
    /// running. Ledger: `lane + idle + imbalance = Σ critical × slots`.
    pub imbalance_cycles: u64,
    /// Issue-throughput stall: per wave, the duration beyond the critical
    /// path charged by the occupancy-degraded throughput term of
    /// `wave_duration`. Ledger: `sim_cycles = Σ critical + stall`.
    pub stall_cycles: u64,
    /// Per-component attribution of `lane_cycles`, tagged at charge time
    /// by [`LaneMeter`], so `comp.total()` equals `lane_cycles` exactly —
    /// the profiler's conservation law.
    pub comp: CompCycles,
}

impl KernelStats {
    /// Zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate another launch into this one (sequential composition:
    /// durations add).
    pub fn add(&mut self, other: &KernelStats) {
        self.sim_cycles += other.sim_cycles;
        self.lane_cycles += other.lane_cycles;
        self.idle_cycles += other.idle_cycles;
        self.probes += other.probes;
        self.atomics += other.atomics;
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
        self.waves += other.waves;
        self.threads += other.threads;
        self.probe_hist.merge(&other.probe_hist);
        self.warp_cost_hist.merge(&other.warp_cost_hist);
        self.imbalance_cycles += other.imbalance_cycles;
        self.stall_cycles += other.stall_cycles;
        self.comp.merge(&other.comp);
    }

    /// Fold one warp's lanes into the stats; returns the warp's cost
    /// (max lane cycles) for the caller's wave-level max-reduction.
    pub fn fold_warp(&mut self, lanes: &[LaneMeter]) -> u64 {
        let warp_cost = lanes.iter().map(|l| l.cycles).max().unwrap_or(0);
        for l in lanes {
            self.lane_cycles += l.cycles;
            self.idle_cycles += warp_cost - l.cycles;
            self.probes += l.probes;
            self.probe_hist.merge(&l.probe_hist);
            self.atomics += l.atomics;
            self.global_reads += l.global_reads;
            self.global_writes += l.global_writes;
            self.threads += 1;
            self.comp.merge(&l.comp);
        }
        if !lanes.is_empty() {
            self.warp_cost_hist.record(warp_cost);
        }
        warp_cost
    }

    /// Total occupied lane-slot cycles across waves: `lane_cycles +
    /// idle_cycles + imbalance_cycles`, which equals the sum over waves of
    /// the wave's critical path × folded lane slots.
    pub fn slot_cycles(&self) -> u64 {
        self.lane_cycles + self.idle_cycles + self.imbalance_cycles
    }

    /// Fraction of lockstep time wasted idle, in `[0, 1]`.
    pub fn divergence_ratio(&self) -> f64 {
        let total = self.lane_cycles + self.idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.idle_cycles as f64 / total as f64
        }
    }

    /// Fraction of lockstep time spent on useful work:
    /// `1 − divergence_ratio`.
    pub fn utilization(&self) -> f64 {
        1.0 - self.divergence_ratio()
    }

    /// Achieved occupancy in `[0, 1]`: mean fraction of the device's
    /// per-wave capacity (`wave_capacity` items) actually filled. A value
    /// well below 1 means the tail wave dominates or launches are small.
    pub fn occupancy(&self, wave_capacity: u64) -> f64 {
        let cap = self.waves * wave_capacity;
        if cap == 0 {
            0.0
        } else {
            self.threads as f64 / cap as f64
        }
    }

    /// Atomic operations per graph edge — the contention-pressure metric
    /// the paper's atomics discussion is phrased in (`edges` = directed
    /// edge count processed by the kernel).
    pub fn atomics_per_edge(&self, edges: u64) -> f64 {
        if edges == 0 {
            0.0
        } else {
            self.atomics as f64 / edges as f64
        }
    }

    /// Mean completed probe-sequence length (0 when no probes recorded).
    pub fn mean_probe_len(&self) -> f64 {
        self.probe_hist.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, LaneMeter};

    fn lane_with_cycles(n: u64) -> LaneMeter {
        let mut l = LaneMeter::new();
        l.alu(&CostModel::default_gpu(), n);
        l
    }

    #[test]
    fn fold_warp_takes_max_and_counts_idle() {
        let mut s = KernelStats::new();
        let lanes = vec![
            lane_with_cycles(10),
            lane_with_cycles(4),
            lane_with_cycles(7),
        ];
        let warp = s.fold_warp(&lanes);
        assert_eq!(warp, 10);
        assert_eq!(s.lane_cycles, 21);
        assert_eq!(s.idle_cycles, (10 - 4) + (10 - 7));
        assert_eq!(s.threads, 3);
    }

    #[test]
    fn divergence_ratio_balanced_is_zero() {
        let mut s = KernelStats::new();
        s.fold_warp(&[lane_with_cycles(5), lane_with_cycles(5)]);
        assert_eq!(s.divergence_ratio(), 0.0);
    }

    #[test]
    fn divergence_ratio_skewed() {
        let mut s = KernelStats::new();
        s.fold_warp(&[lane_with_cycles(10), lane_with_cycles(0)]);
        assert!((s.divergence_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_composes() {
        let mut a = KernelStats {
            sim_cycles: 5,
            waves: 1,
            ..Default::default()
        };
        let b = KernelStats {
            sim_cycles: 7,
            waves: 2,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.sim_cycles, 12);
        assert_eq!(a.waves, 3);
    }

    #[test]
    fn empty_warp_costs_nothing() {
        let mut s = KernelStats::new();
        assert_eq!(s.fold_warp(&[]), 0);
        assert_eq!(s.divergence_ratio(), 0.0);
    }
}

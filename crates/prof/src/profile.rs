//! Aggregation of collected launches into a per-kernel / per-iteration
//! profile, plus the conservation checks that pin the attribution to the
//! untagged `KernelStats` totals.

use crate::collect::{LaunchRec, ProfileSink};
use nulpa_simt::{Comp, CompCycles, KernelStats};

/// Cycle totals aggregated over a set of launches (one kernel name, one
/// iteration, or the whole run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelAgg {
    /// Kernel name (or `"total"` / an iteration label).
    pub name: String,
    /// Launches folded in.
    pub launches: u64,
    /// Simulated wall-clock cycles (durations add: launches are serial).
    pub sim_cycles: u64,
    /// Lane-busy cycles.
    pub lane_cycles: u64,
    /// Lockstep-idle (divergence) cycles.
    pub idle_cycles: u64,
    /// Load-imbalance cycles (wave critical path minus warp finish).
    pub imbalance_cycles: u64,
    /// Issue-throughput stall cycles (duration minus critical path).
    pub stall_cycles: u64,
    /// Waves launched.
    pub waves: u64,
    /// Lane slots folded.
    pub threads: u64,
    /// Hash probes performed.
    pub probes: u64,
    /// Per-component attribution of `lane_cycles`.
    pub comp: CompCycles,
}

impl KernelAgg {
    fn absorb(&mut self, l: &LaunchRec) {
        self.launches += 1;
        self.sim_cycles += l.metric("sim_cycles");
        self.lane_cycles += l.metric("lane_cycles");
        self.idle_cycles += l.metric("idle_cycles");
        self.imbalance_cycles += l.metric("imbalance_cycles");
        self.stall_cycles += l.metric("stall_cycles");
        self.waves += l.metric("waves");
        self.threads += l.metric("threads");
        self.probes += l.metric("probes");
        for c in Comp::all() {
            self.comp.add(c, l.metric(c.label()));
        }
    }

    /// Occupied lane-slot cycles: `lane + idle + imbalance`, the ledger
    /// total `Σ critical × slots` over the aggregated waves.
    pub fn slot_cycles(&self) -> u64 {
        self.lane_cycles + self.idle_cycles + self.imbalance_cycles
    }

    /// Useful-work fraction of occupied lane slots, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let slots = self.slot_cycles();
        if slots == 0 {
            0.0
        } else {
            self.lane_cycles as f64 / slots as f64
        }
    }

    /// Off-chip memory cycles: global + probe traffic + atomics.
    pub fn mem_cycles(&self) -> u64 {
        self.comp.get(Comp::GlobalNear)
            + self.comp.get(Comp::GlobalFar)
            + self.comp.get(Comp::ProbeNear)
            + self.comp.get(Comp::ProbeFar)
            + self.comp.get(Comp::Atomic)
    }

    /// On-chip compute cycles: ALU + shared memory.
    pub fn compute_cycles(&self) -> u64 {
        self.comp.get(Comp::Alu) + self.comp.get(Comp::Shared)
    }

    /// Compute-to-memory cycle ratio (arithmetic intensity analogue;
    /// `f64::INFINITY` for a kernel with no memory traffic).
    pub fn intensity(&self) -> f64 {
        let mem = self.mem_cycles();
        if mem == 0 {
            if self.compute_cycles() == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.compute_cycles() as f64 / mem as f64
        }
    }

    /// Roofline bound classification from the cycle balance.
    pub fn bound(&self) -> &'static str {
        if self.mem_cycles() >= self.compute_cycles() {
            "memory"
        } else {
            "compute"
        }
    }
}

/// Totals for one LPA iteration.
#[derive(Clone, Debug, Default)]
pub struct IterAgg {
    /// Iteration index (0-based).
    pub iter: u64,
    /// Aggregated totals over the iteration's launches.
    pub agg: KernelAgg,
}

/// A complete profile of one `(graph, backend)` run.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Graph label.
    pub graph: String,
    /// Backend (profiling configuration) label.
    pub backend: String,
    /// SMs of the simulated device (for the occupancy timeline).
    pub sm_count: u64,
    /// LPA iterations executed.
    pub iterations: u64,
    /// Whether the run converged.
    pub converged: bool,
    /// Per-kernel totals, hottest (most simulated cycles) first.
    pub kernels: Vec<KernelAgg>,
    /// Per-iteration totals, in iteration order.
    pub iters: Vec<IterAgg>,
    /// Whole-run totals.
    pub totals: KernelAgg,
    /// Raw launches, in launch order (feeds the occupancy timeline).
    pub launches: Vec<LaunchRec>,
}

impl Profile {
    /// Aggregate a collected sink into a profile.
    pub fn build(
        graph: &str,
        backend: &str,
        sm_count: usize,
        sink: ProfileSink,
        iterations: u64,
        converged: bool,
    ) -> Profile {
        let mut kernels: Vec<KernelAgg> = Vec::new();
        let mut iters: Vec<IterAgg> = Vec::new();
        let mut totals = KernelAgg {
            name: "total".to_string(),
            ..Default::default()
        };
        for l in &sink.launches {
            totals.absorb(l);
            match kernels.iter_mut().find(|k| k.name == l.name) {
                Some(k) => k.absorb(l),
                None => {
                    let mut k = KernelAgg {
                        name: l.name.clone(),
                        ..Default::default()
                    };
                    k.absorb(l);
                    kernels.push(k);
                }
            }
            match iters.iter_mut().find(|it| it.iter == l.iter) {
                Some(it) => it.agg.absorb(l),
                None => {
                    let mut it = IterAgg {
                        iter: l.iter,
                        agg: KernelAgg {
                            name: format!("iter {}", l.iter),
                            ..Default::default()
                        },
                    };
                    it.agg.absorb(l);
                    iters.push(it);
                }
            }
        }
        kernels.sort_by(|a, b| b.sim_cycles.cmp(&a.sim_cycles).then(a.name.cmp(&b.name)));
        iters.sort_by_key(|it| it.iter);
        Profile {
            graph: graph.to_string(),
            backend: backend.to_string(),
            sm_count: sm_count as u64,
            iterations,
            converged,
            kernels,
            iters,
            totals,
            launches: sink.launches,
        }
    }

    /// Verify the conservation laws against the untagged aggregate
    /// `KernelStats` the run returned, bit-for-bit:
    ///
    /// 1. every per-kernel component sum equals that kernel's lane cycles;
    /// 2. per kernel, the wave records close both ledgers
    ///    (`Σ critical×slots = lane + idle + imbalance`,
    ///    `Σ dur = sim_cycles`, `Σ stall = stall`, `Σ slots = threads`);
    /// 3. the run totals (cycles, losses, counts, every component) equal
    ///    the `KernelStats` the backend accumulated without the profiler's
    ///    help.
    pub fn verify(&self, expected: &KernelStats) -> Result<(), String> {
        for k in &self.kernels {
            if k.comp.total() != k.lane_cycles {
                return Err(format!(
                    "{}: component sum {} != lane_cycles {}",
                    k.name,
                    k.comp.total(),
                    k.lane_cycles
                ));
            }
        }
        // Wave-level ledgers, per launch.
        for l in &self.launches {
            let slot_cycles: u64 = l.waves.iter().map(|w| w.critical * w.slots).sum();
            let expect_slots =
                l.metric("lane_cycles") + l.metric("idle_cycles") + l.metric("imbalance_cycles");
            if slot_cycles != expect_slots {
                return Err(format!(
                    "{} (iter {}): wave slot-cycles {} != lane+idle+imbalance {}",
                    l.name, l.iter, slot_cycles, expect_slots
                ));
            }
            let dur: u64 = l.waves.iter().map(|w| w.dur).sum();
            if dur != l.metric("sim_cycles") {
                return Err(format!(
                    "{} (iter {}): wave durations {} != sim_cycles {}",
                    l.name,
                    l.iter,
                    dur,
                    l.metric("sim_cycles")
                ));
            }
            let stall: u64 = l.waves.iter().map(|w| w.stall).sum();
            if stall != l.metric("stall_cycles") {
                return Err(format!(
                    "{} (iter {}): wave stalls {} != stall_cycles {}",
                    l.name,
                    l.iter,
                    stall,
                    l.metric("stall_cycles")
                ));
            }
            let slots: u64 = l.waves.iter().map(|w| w.slots).sum();
            if slots != l.metric("threads") {
                return Err(format!(
                    "{} (iter {}): wave slots {} != threads {}",
                    l.name,
                    l.iter,
                    slots,
                    l.metric("threads")
                ));
            }
        }
        // Run totals against the untagged stats.
        let t = &self.totals;
        let checks: [(&str, u64, u64); 8] = [
            ("sim_cycles", t.sim_cycles, expected.sim_cycles),
            ("lane_cycles", t.lane_cycles, expected.lane_cycles),
            ("idle_cycles", t.idle_cycles, expected.idle_cycles),
            (
                "imbalance_cycles",
                t.imbalance_cycles,
                expected.imbalance_cycles,
            ),
            ("stall_cycles", t.stall_cycles, expected.stall_cycles),
            ("waves", t.waves, expected.waves),
            ("threads", t.threads, expected.threads),
            ("probes", t.probes, expected.probes),
        ];
        for (name, got, want) in checks {
            if got != want {
                return Err(format!("totals.{name}: profiled {got} != stats {want}"));
            }
        }
        if t.comp != expected.comp {
            return Err(format!(
                "totals.comp: profiled {:?} != stats {:?}",
                t.comp, expected.comp
            ));
        }
        if t.comp.total() != expected.lane_cycles {
            return Err(format!(
                "totals: component sum {} != lane_cycles {}",
                t.comp.total(),
                expected.lane_cycles
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn launch(name: &str, iter: u64, metrics: &[(&str, u64)]) -> LaunchRec {
        LaunchRec {
            name: name.to_string(),
            iter,
            metrics: metrics
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect::<BTreeMap<_, _>>(),
            ..Default::default()
        }
    }

    #[test]
    fn build_groups_by_kernel_and_iteration() {
        let sink = ProfileSink {
            launches: vec![
                launch("kernel:thread", 0, &[("sim_cycles", 10), ("alu", 3)]),
                launch("kernel:block", 0, &[("sim_cycles", 30)]),
                launch("kernel:thread", 1, &[("sim_cycles", 5)]),
            ],
            ..Default::default()
        };
        let p = Profile::build("g", "b", 108, sink, 2, true);
        assert_eq!(p.kernels.len(), 2);
        // hottest first
        assert_eq!(p.kernels[0].name, "kernel:block");
        assert_eq!(p.kernels[1].sim_cycles, 15);
        assert_eq!(p.kernels[1].launches, 2);
        assert_eq!(p.iters.len(), 2);
        assert_eq!(p.iters[0].agg.sim_cycles, 40);
        assert_eq!(p.totals.sim_cycles, 45);
        assert_eq!(p.totals.comp.get(Comp::Alu), 3);
    }

    #[test]
    fn verify_catches_leaked_cycles() {
        let sink = ProfileSink {
            launches: vec![launch(
                "kernel:thread",
                0,
                &[("lane_cycles", 10), ("alu", 9)], // 1 cycle unattributed
            )],
            ..Default::default()
        };
        let p = Profile::build("g", "b", 1, sink, 1, true);
        let err = p.verify(&KernelStats::new()).unwrap_err();
        assert!(err.contains("component sum"), "{err}");
    }

    #[test]
    fn utilization_and_bound() {
        let mut k = KernelAgg {
            lane_cycles: 50,
            idle_cycles: 30,
            imbalance_cycles: 20,
            ..Default::default()
        };
        k.comp.add(Comp::Alu, 10);
        k.comp.add(Comp::GlobalFar, 40);
        assert!((k.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(k.bound(), "memory");
        assert!((k.intensity() - 0.25).abs() < 1e-12);
    }
}

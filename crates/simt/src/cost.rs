//! Cycle-cost model for simulated kernels.
//!
//! The paper's relative-runtime figures (probing strategy, switch degree,
//! datatype, coalesced chaining) are all claims about memory traffic and
//! lockstep divergence. The model charges each *lane* for the operations
//! it performs; warp cost is the **maximum** over its lanes (lockstep),
//! which is what turns probe-count variance into the large slowdowns the
//! paper reports for high-clustering probe sequences.
//!
//! Memory locality: a global access within the same 128-byte line
//! (32 × 4-byte words) as the lane's previous access costs
//! [`CostModel::global_near`]; otherwise [`CostModel::global_far`]. This
//! preserves linear probing's cache advantage and double hashing's
//! scatter penalty. Wide (64-bit) operations cost twice their 32-bit
//! counterparts, which drives the Fig. 5 datatype ablation.

/// Words (4-byte units) per modelled cache line.
pub const LINE_WORDS: usize = 32;

/// Operation costs in abstract cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Register/ALU operation.
    pub alu: u64,
    /// Global access hitting the lane's current line.
    pub global_near: u64,
    /// Global access to a different line.
    pub global_far: u64,
    /// Additional latency of an atomic over a plain access.
    pub atomic_extra: u64,
    /// Shared-memory access.
    pub shared: u64,
}

impl CostModel {
    /// Default weights: far global ≈ 8× ALU, near global ≈ 2× ALU,
    /// atomics pay a contention surcharge, shared ≈ ALU.
    pub fn default_gpu() -> Self {
        CostModel {
            alu: 1,
            global_near: 2,
            global_far: 8,
            atomic_extra: 4,
            shared: 1,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::default_gpu()
    }
}

/// Width of a memory operand, for the Fig. 5 datatype ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Width {
    /// 32-bit operand (one word).
    W32,
    /// 64-bit operand (two words — charged double).
    W64,
}

impl Width {
    #[inline]
    fn factor(self) -> u64 {
        match self {
            Width::W32 => 1,
            Width::W64 => 2,
        }
    }
    #[inline]
    fn words(self) -> usize {
        match self {
            Width::W32 => 1,
            Width::W64 => 2,
        }
    }
}

use nulpa_obs::Hist;

/// Cycle-attribution component: where a charged cycle went. Every cycle a
/// [`LaneMeter`] charges belongs to exactly one component, so the
/// per-component totals partition `LaneMeter::cycles` — the conservation
/// law the profiler's tables rest on.
///
/// Memory charges made inside a hash-probe sequence (between
/// [`LaneMeter::probe_scope`]`(true)` and `(false)`) are attributed to the
/// probe components instead of the plain global ones; atomics keep their
/// own component even inside a probe scope, and the ALU work of computing
/// probe steps stays in [`Comp::Alu`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Comp {
    /// Register/ALU operations.
    Alu = 0,
    /// Global accesses hitting a warm line, outside probe sequences.
    GlobalNear = 1,
    /// Global accesses to a cold line, outside probe sequences.
    GlobalFar = 2,
    /// Atomic RMWs (memory cost plus contention surcharge).
    Atomic = 3,
    /// Probe-sequence global accesses hitting a warm line.
    ProbeNear = 4,
    /// Probe-sequence global accesses to a cold line.
    ProbeFar = 5,
    /// Shared-memory accesses.
    Shared = 6,
    /// Barrier alignment: cycles a lane waited at `__syncthreads()`.
    Barrier = 7,
    /// Frontier compaction: every cycle charged while a lane runs the
    /// sparse-frontier compaction kernel (flag reads, predicate ALU, and
    /// the warp-aggregated emit), regardless of operation kind.
    FrontierCompact = 8,
}

/// Number of [`Comp`] variants (length of a [`CompCycles`] array).
pub const NUM_COMPS: usize = 9;

impl Comp {
    /// All components, in display order.
    pub fn all() -> [Comp; NUM_COMPS] {
        [
            Comp::Alu,
            Comp::GlobalNear,
            Comp::GlobalFar,
            Comp::Atomic,
            Comp::ProbeNear,
            Comp::ProbeFar,
            Comp::Shared,
            Comp::Barrier,
            Comp::FrontierCompact,
        ]
    }

    /// Stable snake_case name used in metrics records and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Comp::Alu => "alu",
            Comp::GlobalNear => "global_near",
            Comp::GlobalFar => "global_far",
            Comp::Atomic => "atomic",
            Comp::ProbeNear => "probe_near",
            Comp::ProbeFar => "probe_far",
            Comp::Shared => "shared",
            Comp::Barrier => "barrier",
            Comp::FrontierCompact => "frontier_compact",
        }
    }
}

/// Per-component cycle totals, indexed by [`Comp`]. A plain fixed array so
/// it stays `Copy` and free to merge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompCycles(pub [u64; NUM_COMPS]);

impl CompCycles {
    /// Zeroed totals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cycles attributed to `comp`.
    #[inline]
    pub fn get(&self, comp: Comp) -> u64 {
        self.0[comp as usize]
    }

    /// Add `cycles` to `comp`.
    #[inline]
    pub fn add(&mut self, comp: Comp, cycles: u64) {
        self.0[comp as usize] += cycles;
    }

    /// Element-wise merge of another total into this one.
    #[inline]
    pub fn merge(&mut self, other: &CompCycles) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Sum over all components — equals the charged cycles they partition.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Per-lane meter: accumulates cycles and event counts for one simulated
/// thread (lane) during one kernel. Cheap to create; the wave scheduler
/// makes one per lane and folds them into [`crate::stats::KernelStats`].
#[derive(Clone, Debug, Default)]
pub struct LaneMeter {
    /// Accumulated cycles for this lane.
    pub cycles: u64,
    /// Hash-probe count (incremented by the hashtable layer).
    pub probes: u64,
    /// Completed probe-sequence lengths (one sample per
    /// [`LaneMeter::probe_done`] call from the hashtable layer).
    pub probe_hist: Hist,
    /// Atomic operations issued.
    pub atomics: u64,
    /// Global reads issued.
    pub global_reads: u64,
    /// Global writes issued.
    pub global_writes: u64,
    /// Tiny per-lane LRU of recently touched lines (models the L1/L2
    /// lines a thread keeps warm; one entry would make any alternation
    /// between two buffers — e.g. `H_k`/`H_v` — look uncached).
    recent_lines: [usize; 4],
    recent_len: u8,
    /// Per-component attribution of `cycles`.
    pub comp: CompCycles,
    /// Whether the lane is currently inside a probe sequence (see
    /// [`LaneMeter::probe_scope`]).
    in_probe: bool,
    /// Whether the lane is currently inside the frontier-compaction
    /// kernel (see [`LaneMeter::compact_scope`]).
    in_compact: bool,
}

impl LaneMeter {
    /// Fresh meter with zero cost.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attribute `cycles` to `comp`. Inside a compact scope every charge
    /// belongs to [`Comp::FrontierCompact`] instead.
    #[inline]
    pub(crate) fn tag(&mut self, comp: Comp, cycles: u64) {
        let comp = if self.in_compact {
            Comp::FrontierCompact
        } else {
            comp
        };
        self.comp.add(comp, cycles);
    }

    /// Attribute a plain memory charge, picking the near/far and
    /// global/probe component from the hit flag and the probe scope.
    #[inline]
    fn tag_mem(&mut self, near: bool, cycles: u64) {
        let comp = if self.in_compact {
            Comp::FrontierCompact
        } else {
            match (self.in_probe, near) {
                (false, true) => Comp::GlobalNear,
                (false, false) => Comp::GlobalFar,
                (true, true) => Comp::ProbeNear,
                (true, false) => Comp::ProbeFar,
            }
        };
        self.comp.add(comp, cycles);
    }

    /// Mark the start (`true`) / end (`false`) of a hash-probe sequence.
    /// While set, plain global charges are attributed to
    /// [`Comp::ProbeNear`]/[`Comp::ProbeFar`] instead of the global
    /// components. Called by the hashtable layer around its probe loops;
    /// cost-free in simulated cycles.
    #[inline]
    pub fn probe_scope(&mut self, on: bool) {
        self.in_probe = on;
    }

    /// Mark the start (`true`) / end (`false`) of the frontier-compaction
    /// kernel. While set, *every* charge (memory, ALU, atomic, shared,
    /// barrier) is attributed to [`Comp::FrontierCompact`], so the cost of
    /// building the sparse active set is a separate line in the profiler's
    /// tables. Cost-free in simulated cycles.
    #[inline]
    pub fn compact_scope(&mut self, on: bool) {
        self.in_compact = on;
    }

    /// Charge `n` ALU operations.
    #[inline]
    pub fn alu(&mut self, cost: &CostModel, n: u64) {
        self.cycles += cost.alu * n;
        self.tag(Comp::Alu, cost.alu * n);
    }

    /// Charge a global read of the word at index `addr` (in words).
    #[inline]
    pub fn global_read(&mut self, cost: &CostModel, addr: usize, width: Width) {
        self.global_reads += 1;
        let (c, near) = self.mem_cost(cost, addr, width);
        self.cycles += c;
        self.tag_mem(near, c);
    }

    /// Charge a global write.
    #[inline]
    pub fn global_write(&mut self, cost: &CostModel, addr: usize, width: Width) {
        self.global_writes += 1;
        let (c, near) = self.mem_cost(cost, addr, width);
        self.cycles += c;
        self.tag_mem(near, c);
    }

    /// Charge an atomic RMW (global access + surcharge). Attributed to
    /// [`Comp::Atomic`] as a whole, even inside a probe scope.
    #[inline]
    pub fn atomic(&mut self, cost: &CostModel, addr: usize, width: Width) {
        self.atomics += 1;
        let (mem, _near) = self.mem_cost(cost, addr, width);
        let c = mem + cost.atomic_extra * width.factor();
        self.cycles += c;
        self.tag(Comp::Atomic, c);
    }

    /// Charge a shared-memory access.
    #[inline]
    pub fn shared(&mut self, cost: &CostModel, width: Width) {
        self.cycles += cost.shared * width.factor();
        self.tag(Comp::Shared, cost.shared * width.factor());
    }

    /// Count one hash probe (cost is charged by the accompanying memory
    /// ops; this is a pure statistic).
    #[inline]
    pub fn probe(&mut self) {
        self.probes += 1;
    }

    /// Record the completion of one probe sequence of `len` probes. Called
    /// by the hashtable layer when a lookup/insert settles; feeds the
    /// probe-length histogram surfaced in `KernelStats` and traces.
    #[inline]
    pub fn probe_done(&mut self, len: u64) {
        self.probe_hist.record(len);
    }

    /// Memory charge for a global access; returns `(cycles, near)` so the
    /// caller can attribute the charge to a locality component.
    #[inline]
    fn mem_cost(&mut self, cost: &CostModel, addr: usize, width: Width) -> (u64, bool) {
        let line = addr / LINE_WORDS;
        // a 64-bit access straddling into the next line still counts as
        // near when either of its lines is warm
        let line2 = (addr + width.words() - 1) / LINE_WORDS;
        let near = self.touch(line) | (line2 != line && self.touch(line2));
        let c = if near {
            cost.global_near * width.factor()
        } else {
            cost.global_far * width.factor()
        };
        (c, near)
    }

    /// LRU lookup-and-insert; returns `true` on a hit.
    #[inline]
    fn touch(&mut self, line: usize) -> bool {
        let len = self.recent_len as usize;
        for i in 0..len {
            if self.recent_lines[i] == line {
                // move to front
                self.recent_lines[..=i].rotate_right(1);
                return true;
            }
        }
        let new_len = (len + 1).min(self.recent_lines.len());
        self.recent_lines[..new_len].rotate_right(1);
        self.recent_lines[0] = line;
        self.recent_len = new_len as u8;
        false
    }

    /// Merge another lane's counters into this one (used for folding).
    pub fn absorb(&mut self, other: &LaneMeter) {
        self.cycles += other.cycles;
        self.probes += other.probes;
        self.probe_hist.merge(&other.probe_hist);
        self.atomics += other.atomics;
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
        self.comp.merge(&other.comp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_access_is_near() {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        m.global_read(&c, 0, Width::W32); // first: far
        m.global_read(&c, 1, Width::W32); // same line: near
        m.global_read(&c, 2, Width::W32);
        assert_eq!(m.cycles, c.global_far + 2 * c.global_near);
        assert_eq!(m.global_reads, 3);
    }

    #[test]
    fn scattered_access_is_far() {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        for i in 0..6 {
            m.global_read(&c, i * 1000, Width::W32);
        }
        assert_eq!(m.cycles, 6 * c.global_far);
    }

    #[test]
    fn lru_keeps_a_few_lines_warm() {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        m.global_read(&c, 0, Width::W32); // far
        m.global_read(&c, 1000, Width::W32); // far
        m.global_read(&c, 5, Width::W32); // line 0 still warm: near
        assert_eq!(m.cycles, 2 * c.global_far + c.global_near);
        // evict with 4 fresh lines, then line 0 is cold again
        for i in 2..6 {
            m.global_read(&c, i * 1000, Width::W32);
        }
        let before = m.cycles;
        m.global_read(&c, 0, Width::W32);
        assert_eq!(m.cycles - before, c.global_far);
    }

    #[test]
    fn wide_ops_cost_double() {
        let c = CostModel::default_gpu();
        let mut narrow = LaneMeter::new();
        narrow.global_read(&c, 0, Width::W32);
        let mut wide = LaneMeter::new();
        wide.global_read(&c, 0, Width::W64);
        assert_eq!(wide.cycles, 2 * narrow.cycles);
    }

    #[test]
    fn atomic_surcharge() {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        m.atomic(&c, 0, Width::W32);
        assert_eq!(m.cycles, c.global_far + c.atomic_extra);
        assert_eq!(m.atomics, 1);
    }

    #[test]
    fn alu_and_shared() {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        m.alu(&c, 5);
        m.shared(&c, Width::W32);
        assert_eq!(m.cycles, 5 * c.alu + c.shared);
    }

    #[test]
    fn probes_are_pure_counts() {
        let mut m = LaneMeter::new();
        m.probe();
        m.probe();
        assert_eq!(m.probes, 2);
        assert_eq!(m.cycles, 0);
    }

    #[test]
    fn absorb_accumulates() {
        let c = CostModel::default_gpu();
        let mut a = LaneMeter::new();
        a.alu(&c, 1);
        let mut b = LaneMeter::new();
        b.global_read(&c, 0, Width::W32);
        b.probe();
        a.absorb(&b);
        assert_eq!(a.cycles, c.alu + c.global_far);
        assert_eq!(a.probes, 1);
    }

    #[test]
    fn line_straddle_counts_second_word_near() {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        m.global_read(&c, LINE_WORDS - 1, Width::W32); // end of line 0
        m.global_read(&c, LINE_WORDS - 1, Width::W64); // straddles into line 1
        assert_eq!(m.cycles, c.global_far + 2 * c.global_near);
    }

    #[test]
    fn components_partition_cycles() {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        m.alu(&c, 3);
        m.global_read(&c, 0, Width::W32); // far
        m.global_read(&c, 1, Width::W32); // near
        m.atomic(&c, 5000, Width::W64);
        m.shared(&c, Width::W32);
        m.probe_scope(true);
        m.global_read(&c, 9000, Width::W32); // probe far
        m.global_read(&c, 9001, Width::W32); // probe near
        m.probe_scope(false);
        m.global_write(&c, 9002, Width::W32); // back to plain global (near)
        assert_eq!(m.comp.total(), m.cycles);
        assert_eq!(m.comp.get(Comp::Alu), 3 * c.alu);
        assert_eq!(m.comp.get(Comp::GlobalFar), c.global_far);
        assert_eq!(m.comp.get(Comp::GlobalNear), 2 * c.global_near);
        assert_eq!(
            m.comp.get(Comp::Atomic),
            2 * (c.global_far + c.atomic_extra)
        );
        assert_eq!(m.comp.get(Comp::Shared), c.shared);
        assert_eq!(m.comp.get(Comp::ProbeFar), c.global_far);
        assert_eq!(m.comp.get(Comp::ProbeNear), c.global_near);
        assert_eq!(m.comp.get(Comp::Barrier), 0);
    }

    #[test]
    fn atomic_in_probe_scope_stays_atomic() {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        m.probe_scope(true);
        m.atomic(&c, 0, Width::W32);
        m.probe_scope(false);
        assert_eq!(m.comp.get(Comp::Atomic), m.cycles);
        assert_eq!(m.comp.get(Comp::ProbeFar), 0);
    }

    #[test]
    fn compact_scope_reroutes_every_charge() {
        let c = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        m.compact_scope(true);
        m.global_read(&c, 0, Width::W32);
        m.alu(&c, 3);
        m.atomic(&c, 5000, Width::W32);
        m.probe_scope(true); // compact wins over probe scope
        m.global_read(&c, 9000, Width::W32);
        m.probe_scope(false);
        m.compact_scope(false);
        m.alu(&c, 1); // outside the scope again
        assert_eq!(m.comp.get(Comp::FrontierCompact), m.cycles - c.alu);
        assert_eq!(m.comp.get(Comp::Alu), c.alu);
        assert_eq!(m.comp.total(), m.cycles);
    }

    #[test]
    fn absorb_merges_components() {
        let c = CostModel::default_gpu();
        let mut a = LaneMeter::new();
        a.alu(&c, 2);
        let mut b = LaneMeter::new();
        b.shared(&c, Width::W64);
        a.absorb(&b);
        assert_eq!(a.comp.get(Comp::Alu), 2 * c.alu);
        assert_eq!(a.comp.get(Comp::Shared), 2 * c.shared);
        assert_eq!(a.comp.total(), a.cycles);
    }

    #[test]
    fn comp_cycles_merge_and_labels() {
        let mut x = CompCycles::new();
        x.add(Comp::Alu, 5);
        let mut y = CompCycles::new();
        y.add(Comp::Alu, 2);
        y.add(Comp::Barrier, 7);
        x.merge(&y);
        assert_eq!(x.get(Comp::Alu), 7);
        assert_eq!(x.total(), 14);
        let labels: Vec<&str> = Comp::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), NUM_COMPS);
        // labels are unique and stable (JSON/metrics schema)
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), NUM_COMPS);
    }
}

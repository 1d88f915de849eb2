//! Symbolic kernel effect descriptors — the vocabulary of the static
//! verifier (`nulpa-check`).
//!
//! Every SIMT kernel the workspace launches declares an [`Effects`]
//! descriptor: which address-space regions it reads, writes, or updates
//! atomically, as interval-or-strided expressions over `(lane item,
//! vertex, CSR offsets)`; where its barriers sit and under which lane
//! predicate; and the termination bound of its hashtable probe loops.
//! The descriptors live next to the kernels (`nulpa-core` registers the
//! ν-LPA kernels, `nulpa-hashtab` contributes the probe bound), are
//! collected into an [`EffectsRegistry`], and are consumed by the
//! `nulpa-check` solver, which proves — for *all* inputs, not just the
//! graphs a dynamic run happens to visit — lane-pairwise disjointness,
//! staged-write discipline, barrier uniformity, probe-budget
//! conformance, and the confinement of immediate writes to
//! immediate-class kernels.
//!
//! The vocabulary deliberately mirrors the dynamic hazard taxonomy of
//! `nulpa-sancheck`: each static check discharges one of the checker's
//! runtime hazard classes (see DESIGN.md §9). This module only *describes*
//! kernels; all reasoning lives in `nulpa-check` so the simulator itself
//! carries no analysis code.

/// Named region of the simulated global address space, in [`AddrMap`]
/// order (labels, processed flags, CSR targets, CSR weights, hash keys,
/// hash values, the dedicated ΔN word), plus the per-block shared space.
///
/// Region extents are symbolic in `(n, m)` — see [`Region::extent`] —
/// and `nulpa-check` cross-validates them against the concrete
/// `AddrMap` layout in `nulpa-core`.
///
/// [`AddrMap`]: https://docs.rs/nulpa-core (crate `nulpa-core`, `addr::AddrMap`)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// Vertex labels, `n` words.
    Labels,
    /// Processed flags, `n` words.
    Processed,
    /// CSR edge targets, `m` words.
    Targets,
    /// CSR edge weights, `m` words.
    Weights,
    /// Hashtable key buffer, `2m` words.
    Keys,
    /// Hashtable value buffer, `2m` words.
    Values,
    /// The dedicated ΔN counter word.
    Dn,
    /// Per-block (or per-lane, in the thread kernel's shared-tables
    /// ablation) shared memory — private to one execution unit by
    /// construction.
    Shared,
}

impl Region {
    /// All global regions, in address order (excludes [`Region::Shared`],
    /// which is not part of the global address map).
    pub const GLOBAL: [Region; 7] = [
        Region::Labels,
        Region::Processed,
        Region::Targets,
        Region::Weights,
        Region::Keys,
        Region::Values,
        Region::Dn,
    ];

    /// Stable lower-case name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Region::Labels => "labels",
            Region::Processed => "processed",
            Region::Targets => "targets",
            Region::Weights => "weights",
            Region::Keys => "keys",
            Region::Values => "values",
            Region::Dn => "dn",
            Region::Shared => "shared",
        }
    }

    /// Symbolic extent in words for a graph with `n` vertices and `m`
    /// stored directed edges. [`Region::Shared`] has no global extent and
    /// returns 0.
    pub fn extent(self, n: usize, m: usize) -> usize {
        match self {
            Region::Labels | Region::Processed => n,
            Region::Targets | Region::Weights => m,
            Region::Keys | Region::Values => 2 * m,
            Region::Dn => 1,
            Region::Shared => 0,
        }
    }

    /// Whether the region holds *algorithm state* shared between lanes
    /// across the iteration (labels, processed flags, the ΔN counter) as
    /// opposed to per-lane scratch (the hashtable buffers, which the CSR
    /// layout tiles into lane-private slices) or read-only topology.
    pub fn is_shared_state(self) -> bool {
        matches!(self, Region::Labels | Region::Processed | Region::Dn)
    }

    /// Whether the region is read-only topology (never written by any
    /// kernel after graph construction).
    pub fn is_topology(self) -> bool {
        matches!(self, Region::Targets | Region::Weights)
    }
}

/// Symbolic word-index expression within a region, describing the set of
/// addresses *one lane* (execution unit) touches as a function of its
/// item `v`, the CSR offsets `off(·)`, and degrees `deg(·)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexExpr {
    /// `v` — the lane's own item id. Distinct per lane within a launch
    /// whenever the kernel declares [`Effects::distinct_items`].
    OwnVertex,
    /// `j ∈ N(v)` — any neighbour of the lane's item. Two lanes may share
    /// a neighbour, so cross-lane overlap is always possible.
    Neighbor,
    /// `c` — a *label value* loaded from memory; an arbitrary vertex id,
    /// aliasing any cell of a vertex-indexed region.
    LabelValue,
    /// `s·off(v) + k` for `k ∈ [0, e·deg(v))` — an interval carved from
    /// the CSR offsets with start scale `s` and extent scale `e`. CSR
    /// offsets are monotone with `off(v⁺) ≥ off(v) + deg(v)`, so the
    /// intervals of distinct items are disjoint iff `e ≤ s`, and the
    /// interval stays inside a region of extent `s·m` iff `e ≤ s` — the
    /// single inequality the solver discharges for both the overlap and
    /// the out-of-bounds check.
    CsrInterval {
        /// Start scale `s` (`2` for the hashtable buffers, `1` for the
        /// CSR target/weight arrays).
        start_scale: u32,
        /// Extent scale `e` (`2` for a vertex's full table reservation,
        /// `1` for its edge slice).
        extent_scale: u32,
    },
    /// The region's single dedicated word (only [`Region::Dn`]).
    Fixed,
}

impl IndexExpr {
    /// Render the expression the way findings report it.
    pub fn render(self, region: Region) -> String {
        let r = region.name();
        match self {
            IndexExpr::OwnVertex => format!("{r}[v]"),
            IndexExpr::Neighbor => format!("{r}[j], j ∈ N(v)"),
            IndexExpr::LabelValue => format!("{r}[c], c a label value"),
            IndexExpr::CsrInterval {
                start_scale,
                extent_scale,
            } => format!("{r}[{start_scale}·off(v) + 0..{extent_scale}·deg(v))"),
            IndexExpr::Fixed => format!("{r}[·]"),
        }
    }
}

/// A symbolic lane-relative address set: a region plus an index
/// expression into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddrExpr {
    /// Address-space region.
    pub region: Region,
    /// Word-index expression within the region.
    pub index: IndexExpr,
}

impl AddrExpr {
    /// Shorthand constructor.
    pub const fn new(region: Region, index: IndexExpr) -> Self {
        AddrExpr { region, index }
    }

    /// Render as `region[expr]` for findings.
    pub fn render(&self) -> String {
        self.index.render(self.region)
    }
}

/// When a write becomes visible to other lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visibility {
    /// Staged through a deferred store; committed at the wave boundary,
    /// so same-wave readers observe wave-start state.
    Staged,
    /// Plain immediate store, visible as soon as it executes.
    Immediate,
}

/// The kind of access one effect entry performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write {
        /// Staging class of the store.
        vis: Visibility,
        /// `true` when every possible writer stores the same value
        /// (e.g. the processed-flag clears, which always write `false`),
        /// making write–write overlap benign.
        idempotent: bool,
    },
    /// Atomic read-modify-write; immediate, as on hardware.
    Atomic,
}

/// One declared effect: an access of some kind to a symbolic address set,
/// labelled with the source site it describes.
#[derive(Clone, Copy, Debug)]
pub struct AccessEffect {
    /// Human-readable site label (e.g. `"label move"`, `"flag clear"`).
    pub site: &'static str,
    /// The addresses touched.
    pub addr: AddrExpr,
    /// How they are touched.
    pub kind: AccessKind,
}

/// Lane predicate dominating a barrier site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pred {
    /// Unconditional — every lane of the block reaches the barrier.
    Uniform,
    /// Guarded by a block-uniform condition (a property of the block's
    /// item, e.g. its degree): all lanes of a block agree, so the barrier
    /// is still uniform *within* each block.
    BlockUniform,
    /// Guarded by a lane-divergent condition (lane id or per-lane data):
    /// part of a warp can reach the barrier while the rest does not —
    /// undefined behaviour for `__syncthreads()` on hardware.
    LaneDivergent,
}

/// One `BlockCtx::barrier()` site with its dominating predicate.
#[derive(Clone, Copy, Debug)]
pub struct BarrierSite {
    /// Site label (e.g. `"post-clear"`).
    pub site: &'static str,
    /// Dominating lane predicate.
    pub pred: Pred,
}

/// Termination bound of a kernel's hashtable probe loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeBound {
    /// The kernel performs no hashtable probing.
    None,
    /// Probe loops take at most `budget` strategy-driven steps before
    /// falling back to a bounded linear scan (`fallback_linear`); total
    /// steps are then ≤ `budget + capacity`.
    Bounded {
        /// Maximum strategy-driven probe steps.
        budget: u32,
        /// Whether a linear fallback guarantees termination within
        /// capacity further steps.
        fallback_linear: bool,
    },
    /// No declared bound — always a finding.
    Unbounded,
}

/// Launch flavour of a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelFlavor {
    /// One lane per item ([`crate::WaveScheduler::launch_thread_per_item`]).
    ThreadPerItem,
    /// One cooperative block per item
    /// ([`crate::WaveScheduler::launch_block_per_item`]).
    BlockPerItem,
}

/// How the scheduler orders the kernel's lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneOrder {
    /// Lockstep-parallel wave semantics: lanes of a wave are unordered
    /// and must be pairwise independent.
    Lockstep,
    /// Deliberately serial lane execution (the Cross-Check revert pass):
    /// lane order is semantics-bearing and deterministic.
    Sequential,
}

/// Staging class of the kernel as a whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StagingClass {
    /// The kernel mutates shared state only through staged writes or
    /// atomics; plain immediate writes are confined to lane-private
    /// scratch.
    Staged,
    /// A separate-launch kernel whose writes take effect immediately
    /// (Cross-Check): permitted, but its immediate writes must be
    /// lane-disjoint or atomic, and they are confined to this launch.
    Immediate,
}

/// The full symbolic effect descriptor of one kernel.
#[derive(Clone, Debug)]
pub struct Effects {
    /// Launch name, exactly as passed to the wave scheduler
    /// (e.g. `"kernel:thread"`).
    pub kernel: &'static str,
    /// Launch flavour.
    pub flavor: KernelFlavor,
    /// Lane ordering semantics.
    pub order: LaneOrder,
    /// Staging class.
    pub staging: StagingClass,
    /// `true` when each item appears at most once per launch (ν-LPA's
    /// candidate sets guarantee this), making `OwnVertex` indices
    /// pairwise distinct.
    pub distinct_items: bool,
    /// Declared accesses.
    pub accesses: Vec<AccessEffect>,
    /// Barrier sites (empty for thread-per-item kernels).
    pub barriers: Vec<BarrierSite>,
    /// Probe-loop termination bound.
    pub probes: ProbeBound,
}

/// Registry of kernel effect descriptors, keyed by launch name.
#[derive(Clone, Debug, Default)]
pub struct EffectsRegistry {
    entries: Vec<Effects>,
}

impl EffectsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        EffectsRegistry::default()
    }

    /// Register a descriptor.
    ///
    /// # Panics
    /// Panics if a descriptor with the same kernel name is already
    /// registered — duplicate declarations would make `lookup` ambiguous.
    pub fn register(&mut self, e: Effects) {
        assert!(
            self.lookup(e.kernel).is_none(),
            "duplicate effects descriptor for kernel `{}`",
            e.kernel
        );
        self.entries.push(e);
    }

    /// Descriptor for a launch name, if registered.
    pub fn lookup(&self, kernel: &str) -> Option<&Effects> {
        self.entries.iter().find(|e| e.kernel == kernel)
    }

    /// All descriptors, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Effects> {
        self.entries.iter()
    }

    /// Number of registered descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(name: &'static str) -> Effects {
        Effects {
            kernel: name,
            flavor: KernelFlavor::ThreadPerItem,
            order: LaneOrder::Lockstep,
            staging: StagingClass::Staged,
            distinct_items: true,
            accesses: Vec::new(),
            barriers: Vec::new(),
            probes: ProbeBound::None,
        }
    }

    #[test]
    fn registry_register_and_lookup() {
        let mut r = EffectsRegistry::new();
        assert!(r.is_empty());
        r.register(minimal("kernel:a"));
        r.register(minimal("kernel:b"));
        assert_eq!(r.len(), 2);
        assert!(r.lookup("kernel:a").is_some());
        assert!(r.lookup("kernel:c").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate effects descriptor")]
    fn registry_rejects_duplicates() {
        let mut r = EffectsRegistry::new();
        r.register(minimal("kernel:a"));
        r.register(minimal("kernel:a"));
    }

    #[test]
    fn region_extents_are_the_addrmap_formulas() {
        let (n, m) = (100, 400);
        assert_eq!(Region::Labels.extent(n, m), 100);
        assert_eq!(Region::Processed.extent(n, m), 100);
        assert_eq!(Region::Targets.extent(n, m), 400);
        assert_eq!(Region::Weights.extent(n, m), 400);
        assert_eq!(Region::Keys.extent(n, m), 800);
        assert_eq!(Region::Values.extent(n, m), 800);
        assert_eq!(Region::Dn.extent(n, m), 1);
    }

    #[test]
    fn region_classification() {
        assert!(Region::Labels.is_shared_state());
        assert!(Region::Dn.is_shared_state());
        assert!(!Region::Keys.is_shared_state());
        assert!(Region::Targets.is_topology());
        assert!(!Region::Labels.is_topology());
    }

    #[test]
    fn render_is_stable() {
        let a = AddrExpr::new(
            Region::Keys,
            IndexExpr::CsrInterval {
                start_scale: 2,
                extent_scale: 2,
            },
        );
        assert_eq!(a.render(), "keys[2·off(v) + 0..2·deg(v))");
        assert_eq!(
            AddrExpr::new(Region::Labels, IndexExpr::Neighbor).render(),
            "labels[j], j ∈ N(v)"
        );
        assert_eq!(
            AddrExpr::new(Region::Dn, IndexExpr::Fixed).render(),
            "dn[·]"
        );
    }
}

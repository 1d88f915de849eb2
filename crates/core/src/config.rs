//! ν-LPA configuration (paper §4, "Our optimized LPA implementation").

use nulpa_hashtab::ProbeStrategy;
use nulpa_simt::{CostModel, DeviceConfig};

/// Community-swap mitigation (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapMode {
    /// No mitigation — the configuration whose non-convergence motivates
    /// §4.1.
    Off,
    /// Cross-Check: after an iteration, revert "bad" community changes
    /// (`C[c*] != c*`), every `every` iterations.
    CrossCheck {
        /// Apply every this many iterations (1–4 in the paper's sweep).
        every: u32,
    },
    /// Pick-Less: a vertex may only adopt a strictly smaller label,
    /// enforced every `every` iterations. The paper adopts `every = 4`
    /// (PL4).
    PickLess {
        /// Apply every this many iterations.
        every: u32,
    },
    /// Hybrid: both CC and PL on their own periods (the paper's 16-combo
    /// sweep).
    Hybrid {
        /// Cross-check period.
        cc_every: u32,
        /// Pick-less period.
        pl_every: u32,
    },
}

impl SwapMode {
    /// Is the Pick-Less gate active on iteration `iter` (0-based)?
    /// The paper enables it when `l_i mod ρ = 0` (Algorithm 1).
    pub fn pick_less_on(self, iter: u32) -> bool {
        match self {
            SwapMode::PickLess { every } => iter.is_multiple_of(every),
            SwapMode::Hybrid { pl_every, .. } => iter.is_multiple_of(pl_every),
            _ => false,
        }
    }

    /// Does a Cross-Check pass follow iteration `iter` (0-based)?
    pub fn cross_check_on(self, iter: u32) -> bool {
        match self {
            SwapMode::CrossCheck { every } => iter.is_multiple_of(every),
            SwapMode::Hybrid { cc_every, .. } => iter.is_multiple_of(cc_every),
            _ => false,
        }
    }

    /// Short label for figures ("PL4", "CC2", "H2,3", "Off").
    pub fn label(self) -> String {
        match self {
            SwapMode::Off => "Off".to_string(),
            SwapMode::CrossCheck { every } => format!("CC{every}"),
            SwapMode::PickLess { every } => format!("PL{every}"),
            SwapMode::Hybrid { cc_every, pl_every } => format!("H{cc_every},{pl_every}"),
        }
    }
}

/// Hashtable value datatype (Fig. 5 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ValueType {
    /// 32-bit floats — the paper's adopted configuration.
    #[default]
    F32,
    /// 64-bit floats — GVE-LPA's choice, slower on GPU.
    F64,
}

/// Full ν-LPA configuration. Defaults reproduce the paper's adopted
/// settings: 20 iterations max, per-iteration tolerance τ = 0.05,
/// Pick-Less every 4 iterations, switch degree 32, quadratic-double
/// probing, `f32` hashtable values, A100 device.
#[derive(Clone, Copy, Debug)]
pub struct LpaConfig {
    /// Iteration cap (paper: 20).
    pub max_iterations: u32,
    /// Per-iteration tolerance τ: converged when `ΔN/N < τ` on a
    /// non-Pick-Less iteration (paper: 0.05).
    pub tolerance: f64,
    /// Swap mitigation; the paper adopts `PickLess { every: 4 }`.
    pub swap_mode: SwapMode,
    /// Degree threshold between thread-per-vertex and block-per-vertex
    /// kernels (paper: 32, the warp size).
    pub switch_degree: u32,
    /// Hashtable collision resolution (paper: quadratic-double).
    pub probe: ProbeStrategy,
    /// Hashtable value datatype (paper: `f32`).
    pub value_type: ValueType,
    /// Vertex pruning (paper §4 feature 4): only vertices whose
    /// neighbourhood changed are reprocessed. Disable for the ablation
    /// bench — every iteration then scans all vertices.
    pub pruning: bool,
    /// Frontier (worklist) execution on the simulator: instead of
    /// launching all |V| vertices and filtering on the pruning flags,
    /// [`crate::lpa_gpu`] compacts an explicit active set carried over
    /// from the previous iteration (Traag & Šubelj's fast label
    /// propagation) and launches only it, so the sparse launch charges
    /// cycles proportional to the frontier, not |V|. [`crate::lpa_native`]
    /// and [`crate::lpa_seq`] ignore it: their dense pruned sweep gives
    /// the same labels and was measured faster (DESIGN.md). Requires
    /// `pruning` (the frontier *is* the pruning rule made explicit).
    pub frontier: bool,
    /// Shared-memory hashtables for low-degree vertices (paper §4.2: the
    /// authors "experimented with shared memory-based hashtables for
    /// low-degree vertices, but saw little to no performance gain" — off
    /// by default; the ablation bench turns it on). Table accesses become
    /// shared-memory cheap, but the thread kernel's occupancy drops to
    /// what the SM's shared memory can back.
    pub shared_tables: bool,
    /// Simulated device for the GPU backend.
    pub device: DeviceConfig,
    /// Cost model for the GPU backend.
    pub cost: CostModel,
    /// Host threads for the simulator's sharded wave execution. `0` (the
    /// default) resolves to `NULPA_THREADS` when set, else the machine's
    /// available parallelism. Results are bit-for-bit identical at every
    /// setting; see [`resolve_threads`]. At most [`MAX_THREADS`].
    pub threads: usize,
}

impl Default for LpaConfig {
    fn default() -> Self {
        LpaConfig {
            max_iterations: 20,
            tolerance: 0.05,
            swap_mode: SwapMode::PickLess { every: 4 },
            switch_degree: 32,
            probe: ProbeStrategy::QuadraticDouble,
            value_type: ValueType::F32,
            pruning: true,
            frontier: false,
            shared_tables: false,
            device: DeviceConfig::a100(),
            cost: CostModel::default_gpu(),
            threads: 0,
        }
    }
}

/// Largest host-thread count a run may use. Every host thread beyond the
/// first is an OS thread with its own O(|V|) scratch, so an unbounded
/// count would turn a typo into thousands of thread spawns.
pub const MAX_THREADS: usize = 1024;

/// Resolve a requested host-thread count to an effective one: an explicit
/// `requested > 0` wins; otherwise the `NULPA_THREADS` environment
/// variable (when set to an integer in `1..=MAX_THREADS`); otherwise the
/// machine's available parallelism. The result is clamped to
/// [`MAX_THREADS`]. Thread count never affects results — only host
/// wall-clock.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested.min(MAX_THREADS);
    }
    let auto = || {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(MAX_THREADS)
    };
    if let Ok(env) = std::env::var("NULPA_THREADS") {
        match env.trim().parse::<usize>() {
            Ok(t) if (1..=MAX_THREADS).contains(&t) => return t,
            _ => {
                let fallback = auto();
                warn_bad_threads_env(&env, fallback);
                return fallback;
            }
        }
    }
    auto()
}

/// One-line stderr warning for an unusable `NULPA_THREADS` value, emitted
/// at most once per process so bench loops that resolve the config per
/// run don't spam.
fn warn_bad_threads_env(value: &str, fallback: usize) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "warning: NULPA_THREADS={value:?} is not an integer in 1..={MAX_THREADS}; \
             falling back to available parallelism ({fallback})"
        );
    });
}

impl LpaConfig {
    /// Check parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_iterations == 0 {
            return Err("max_iterations must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.tolerance) {
            return Err(format!("tolerance {} outside [0, 1]", self.tolerance));
        }
        match self.swap_mode {
            SwapMode::CrossCheck { every } | SwapMode::PickLess { every } if every == 0 => {
                return Err("swap-mitigation period must be positive".into());
            }
            SwapMode::Hybrid { cc_every, pl_every } if cc_every == 0 || pl_every == 0 => {
                return Err("swap-mitigation periods must be positive".into());
            }
            _ => {}
        }
        if self.threads > MAX_THREADS {
            return Err(format!(
                "threads {} exceeds the maximum of {MAX_THREADS}",
                self.threads
            ));
        }
        if self.frontier && !self.pruning {
            return Err("frontier mode requires pruning (the worklist is the pruning rule)".into());
        }
        self.device.validate()
    }

    /// Builder-style setter for the swap mode.
    pub fn with_swap_mode(mut self, m: SwapMode) -> Self {
        self.swap_mode = m;
        self
    }

    /// Builder-style setter for the probe strategy.
    pub fn with_probe(mut self, p: ProbeStrategy) -> Self {
        self.probe = p;
        self
    }

    /// Builder-style setter for the switch degree.
    pub fn with_switch_degree(mut self, d: u32) -> Self {
        self.switch_degree = d;
        self
    }

    /// Builder-style setter for the value type.
    pub fn with_value_type(mut self, v: ValueType) -> Self {
        self.value_type = v;
        self
    }

    /// Builder-style setter for vertex pruning.
    pub fn with_pruning(mut self, p: bool) -> Self {
        self.pruning = p;
        self
    }

    /// Builder-style setter for frontier (worklist) execution.
    pub fn with_frontier(mut self, f: bool) -> Self {
        self.frontier = f;
        self
    }

    /// Builder-style setter for shared-memory tables.
    pub fn with_shared_tables(mut self, s: bool) -> Self {
        self.shared_tables = s;
        self
    }

    /// Builder-style setter for the iteration cap.
    pub fn with_max_iterations(mut self, it: u32) -> Self {
        self.max_iterations = it;
        self
    }

    /// Builder-style setter for the tolerance.
    pub fn with_tolerance(mut self, t: f64) -> Self {
        self.tolerance = t;
        self
    }

    /// Builder-style setter for the simulated device.
    pub fn with_device(mut self, d: DeviceConfig) -> Self {
        self.device = d;
        self
    }

    /// Builder-style setter for the host-thread count (`0` = auto; see
    /// [`resolve_threads`]).
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LpaConfig::default();
        assert_eq!(c.max_iterations, 20);
        assert_eq!(c.tolerance, 0.05);
        assert_eq!(c.swap_mode, SwapMode::PickLess { every: 4 });
        assert_eq!(c.switch_degree, 32);
        assert_eq!(c.probe, ProbeStrategy::QuadraticDouble);
        assert_eq!(c.value_type, ValueType::F32);
        assert!(c.pruning);
        assert!(!c.frontier);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn frontier_requires_pruning() {
        let c = LpaConfig::default().with_frontier(true);
        assert!(c.validate().is_ok());
        assert!(c.with_pruning(false).validate().is_err());
    }

    /// Serializes the tests that mutate `NULPA_THREADS` — the test
    /// harness runs tests on parallel threads and the env is process
    /// global.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_threads_env<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let saved = std::env::var("NULPA_THREADS").ok();
        match value {
            Some(v) => std::env::set_var("NULPA_THREADS", v),
            None => std::env::remove_var("NULPA_THREADS"),
        }
        let out = f();
        match saved {
            Some(v) => std::env::set_var("NULPA_THREADS", v),
            None => std::env::remove_var("NULPA_THREADS"),
        }
        out
    }

    #[test]
    fn resolve_threads_explicit_wins() {
        with_threads_env(Some("7"), || {
            assert_eq!(resolve_threads(3), 3);
            assert!(resolve_threads(0) >= 1);
        });
    }

    #[test]
    fn resolve_threads_env_positive_integer() {
        with_threads_env(Some("6"), || assert_eq!(resolve_threads(0), 6));
        // surrounding whitespace is tolerated
        with_threads_env(Some("  5\n"), || assert_eq!(resolve_threads(0), 5));
    }

    #[test]
    fn resolve_threads_unparsable_env_falls_back() {
        let auto = with_threads_env(None, || resolve_threads(0));
        with_threads_env(Some("abc"), || assert_eq!(resolve_threads(0), auto));
    }

    #[test]
    fn resolve_threads_zero_env_falls_back() {
        let auto = with_threads_env(None, || resolve_threads(0));
        with_threads_env(Some("0"), || assert_eq!(resolve_threads(0), auto));
    }

    #[test]
    fn resolve_threads_whitespace_env_falls_back() {
        let auto = with_threads_env(None, || resolve_threads(0));
        with_threads_env(Some("   "), || assert_eq!(resolve_threads(0), auto));
        with_threads_env(Some(""), || assert_eq!(resolve_threads(0), auto));
    }

    #[test]
    fn resolve_threads_env_above_max_falls_back() {
        let auto = with_threads_env(None, || resolve_threads(0));
        assert!((1..=MAX_THREADS).contains(&auto));
        with_threads_env(Some(&MAX_THREADS.to_string()), || {
            assert_eq!(resolve_threads(0), MAX_THREADS)
        });
        with_threads_env(Some("100000"), || assert_eq!(resolve_threads(0), auto));
    }

    #[test]
    fn thread_count_is_bounded() {
        let c = LpaConfig::default();
        assert!(c.with_threads(MAX_THREADS).validate().is_ok());
        let err = c.with_threads(MAX_THREADS + 1).validate().unwrap_err();
        assert!(err.contains("threads"), "{err}");
        assert_eq!(resolve_threads(100_000), MAX_THREADS);
    }

    #[test]
    fn with_threads_builder() {
        let c = LpaConfig::default();
        assert_eq!(c.threads, 0);
        assert_eq!(c.with_threads(4).threads, 4);
        assert!(c.with_threads(4).validate().is_ok());
    }

    #[test]
    fn pick_less_schedule() {
        let m = SwapMode::PickLess { every: 4 };
        assert!(m.pick_less_on(0));
        assert!(!m.pick_less_on(1));
        assert!(!m.pick_less_on(3));
        assert!(m.pick_less_on(4));
        assert!(m.pick_less_on(8));
        assert!(!m.cross_check_on(0));
    }

    #[test]
    fn cross_check_schedule() {
        let m = SwapMode::CrossCheck { every: 2 };
        assert!(m.cross_check_on(0));
        assert!(!m.cross_check_on(1));
        assert!(m.cross_check_on(2));
        assert!(!m.pick_less_on(0));
    }

    #[test]
    fn hybrid_schedules_both() {
        let m = SwapMode::Hybrid {
            cc_every: 2,
            pl_every: 3,
        };
        assert!(m.cross_check_on(2));
        assert!(!m.cross_check_on(3));
        assert!(m.pick_less_on(3));
        assert!(!m.pick_less_on(2));
    }

    #[test]
    fn off_never_fires() {
        for i in 0..10 {
            assert!(!SwapMode::Off.pick_less_on(i));
            assert!(!SwapMode::Off.cross_check_on(i));
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SwapMode::PickLess { every: 4 }.label(), "PL4");
        assert_eq!(SwapMode::CrossCheck { every: 1 }.label(), "CC1");
        assert_eq!(
            SwapMode::Hybrid {
                cc_every: 2,
                pl_every: 3
            }
            .label(),
            "H2,3"
        );
        assert_eq!(SwapMode::Off.label(), "Off");
    }

    #[test]
    fn validation_rejects_bad_params() {
        assert!(LpaConfig::default()
            .with_max_iterations(0)
            .validate()
            .is_err());
        assert!(LpaConfig::default().with_tolerance(1.5).validate().is_err());
        assert!(LpaConfig::default()
            .with_swap_mode(SwapMode::PickLess { every: 0 })
            .validate()
            .is_err());
        assert!(LpaConfig::default()
            .with_swap_mode(SwapMode::Hybrid {
                cc_every: 0,
                pl_every: 1
            })
            .validate()
            .is_err());
    }
}

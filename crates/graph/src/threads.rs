//! Host-thread count resolution, shared by the text readers' load lanes
//! and the `nulpa-core` backends (which re-export it).

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

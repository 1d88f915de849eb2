//! `nulpa-telemetry` — host-side telemetry for the ν-LPA stack.
//!
//! The simulator-side observability layers (`nulpa-obs` traces,
//! `nulpa-sancheck` hazards, `nulpa-prof` simulated cycles) answer "what
//! did the modelled device do"; this crate answers "what did the *host*
//! do": wall-clock phase timing, heap footprint, per-iteration
//! convergence quality, and where the native fast path's multi-core
//! time actually goes. Five pieces:
//!
//! * [`registry`] — a process-global registry of counters, gauges, and
//!   log2 histograms. Registration takes a short lock; every update after
//!   that is a single relaxed atomic, so instrumented hot loops stay
//!   lock-free.
//! * [`alloc`] — a counting [`GlobalAlloc`](std::alloc::GlobalAlloc) shim
//!   (installed per-binary with [`install_counting_alloc!`]) reporting
//!   current/peak heap bytes and allocation counts, plus `VmHWM` peak RSS
//!   from `/proc`.
//! * [`span`] — RAII wall-clock phase spans (`load`/`build`/`iterate`/
//!   `flush`/`merge`/…) that record duration and per-phase allocation
//!   deltas into the registry.
//! * [`convergence`] — a [`ConvergenceRecorder`] implementing
//!   [`nulpa_core::IterObserver`]: per-iteration ΔN, active-vertex
//!   fraction, community count/entropy, and an incrementally maintained
//!   modularity trajectory (Eq. 1 sums updated per label move, re-scored
//!   with [`nulpa_metrics::modularity_from_sums`]).
//! * [`hostprof`] — the host-parallel execution observatory over
//!   `nulpa_core`'s fast-path profiler: per-thread utilization tables,
//!   per-bucket work attribution, per-iteration schedules, Chrome-trace
//!   export of thread timelines, and the `results/hostprof_baseline.json`
//!   regression gate (`nulpa profile --host`).
//!
//! [`export`] renders registry snapshots as Prometheus text exposition or
//! JSONL; [`ledger`] appends provenance-stamped run records to the
//! append-only `results/history.jsonl` that `scripts/quality_gate.sh`
//! gates against.
//!
//! Telemetry is strictly opt-in at run time: nothing observes an LPA run
//! until a [`ConvergenceRecorder`] is attached or a [`PhaseSpan`] opened,
//! so untelemetered runs — including the golden-trace tests — produce
//! byte-identical output whether or not telemetry is used elsewhere in
//! the process.

#![deny(unsafe_code)]
#![warn(missing_docs)]

// The crate's sole unsafe-code site: the counting global allocator
// (`GlobalAlloc` is an unsafe trait; the shim delegates to `System` and
// only adds relaxed atomic accounting). Allowlisted in scripts/ci.sh.
#[allow(unsafe_code)]
pub mod alloc;
pub mod convergence;
pub mod export;
pub mod hostprof;
pub mod ledger;
pub mod registry;
pub mod span;

pub use alloc::{alloc_snapshot, heap_stats, peak_rss_bytes, CountingAlloc, HeapStats};
pub use convergence::{ConvergenceRecorder, IterationSample};
pub use export::{render_jsonl, render_prometheus, write_snapshot};
pub use hostprof::{HostRunReport, ThreadReport};
pub use ledger::{append_history, PhaseSample, RunRecord};
pub use registry::{global, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use span::{timed_phase, PhaseSpan};

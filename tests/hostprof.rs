//! Host-parallel profiler: neutrality and data-integrity tests.
//!
//! The observability contract of `lpa_native_hostprof` has two halves.
//! **Neutrality**: profiling must not change the algorithm — a profiled
//! run's `LpaResult` is bit-identical to the unprofiled run's on every
//! field, across thread counts and scheduling modes (picks are pure
//! functions of block-frozen labels; the profiler only changes *which
//! thread* computes a pick and how cursors are claimed, and at one
//! thread only cuts the fused sweep into blocks).
//! **Integrity**: when the recorder is compiled in (`telemetry` default
//! feature → `nulpa-core/hostprof`), the collected data must account
//! for exactly the work the run did — every candidate attributed to a
//! bucket, spans on every thread that worked, and repair statistics that
//! are identical at any thread count.

use nu_lpa::core::{lpa_native, lpa_native_hostprof, LpaConfig, LpaResult};
use nu_lpa::graph::gen::{caveman_weighted, erdos_renyi, two_cliques_light_bridge};
use nu_lpa::graph::Csr;

fn trio() -> Vec<(&'static str, Csr)> {
    vec![
        ("two-cliques-s6", two_cliques_light_bridge(6)),
        ("caveman-4x8", caveman_weighted(4, 8, 0.5)),
        ("erdos-renyi-256", erdos_renyi(256, 768, 42)),
    ]
}

fn assert_same_result(a: &LpaResult, b: &LpaResult, ctx: &str) {
    assert_eq!(a.labels, b.labels, "{ctx}: labels diverged");
    assert_eq!(a.iterations, b.iterations, "{ctx}: iterations diverged");
    assert_eq!(a.converged, b.converged, "{ctx}: converged diverged");
    assert_eq!(
        a.changed_per_iter, b.changed_per_iter,
        "{ctx}: dN series diverged"
    );
    assert_eq!(
        a.scanned_per_iter, b.scanned_per_iter,
        "{ctx}: scanned series diverged"
    );
    assert_eq!(a.stats, b.stats, "{ctx}: kernel stats diverged");
    assert_eq!(
        a.staged_collisions, b.staged_collisions,
        "{ctx}: staged collisions diverged"
    );
}

/// Profiled ≡ unprofiled on every `LpaResult` field, across the thread
/// ladder.
#[test]
fn profiled_run_is_bit_identical_to_unprofiled() {
    for (name, g) in &trio() {
        for threads in [1usize, 2, 4] {
            let cfg = LpaConfig::default().with_threads(threads);
            let plain = lpa_native(g, &cfg);
            let (profiled, _) = lpa_native_hostprof(g, &cfg);
            assert_same_result(&plain, &profiled, &format!("{name} threads={threads}"));
        }
    }
}

/// Frontier (worklist) scheduling keeps the same contract.
#[test]
fn profiled_frontier_run_is_bit_identical() {
    for (name, g) in &trio() {
        for threads in [1usize, 2, 4] {
            let cfg = LpaConfig::default()
                .with_threads(threads)
                .with_frontier(true);
            let plain = lpa_native(g, &cfg);
            let (profiled, _) = lpa_native_hostprof(g, &cfg);
            assert_same_result(
                &plain,
                &profiled,
                &format!("{name} frontier threads={threads}"),
            );
        }
    }
}

#[cfg(feature = "telemetry")]
mod data {
    //! Integrity of the collected data (needs the recorder compiled in,
    //! which the default `telemetry` feature provides transitively).

    use super::*;
    use nu_lpa::core::HostProfData;

    fn profile(g: &Csr, threads: usize) -> HostProfData {
        let cfg = LpaConfig::default().with_threads(threads);
        let (_, prof) = lpa_native_hostprof(g, &cfg);
        prof.expect("hostprof feature is on")
    }

    #[test]
    fn every_candidate_is_attributed_to_a_bucket() {
        for (name, g) in &trio() {
            for threads in [1usize, 2, 4] {
                let data = profile(g, threads);
                assert_eq!(data.threads, threads, "{name}");
                let swept: u64 = data.iters.iter().map(|i| i.candidates).sum();
                let attributed: u64 = data.bucket_totals().iter().map(|b| b.vertices).sum();
                // The single-thread path and the claim-loop path both
                // count per-chunk work, so attribution is exact.
                assert_eq!(attributed, swept, "{name} threads={threads}");
                let edges: u64 = data.bucket_totals().iter().map(|b| b.edges).sum();
                assert!(edges > 0, "{name}: no edges attributed");
            }
        }
    }

    /// At one thread the fused sweep records one commit span per block:
    /// the spans never overlap, stay inside the profiled wall time, and
    /// number exactly the blocks the repair statistics report.
    #[test]
    fn single_thread_block_spans_tile_the_sweep() {
        for (name, g) in &trio() {
            let data = profile(g, 1);
            let spans = &data.per_thread[0].spans;
            let blocks: u64 = data.iters.iter().map(|i| i.blocks as u64).sum();
            assert_eq!(spans.len() as u64, blocks, "{name}: one span per block");
            let mut end = 0u64;
            for s in spans {
                assert_eq!(s.kind, nu_lpa::core::SpanKind::Commit, "{name}");
                assert!(s.start_ns >= end, "{name}: spans overlap");
                end = s.start_ns + s.dur_ns;
            }
            assert!(end <= data.wall_ns, "{name}: spans run past wall_ns");
        }
    }

    #[test]
    fn spans_cover_every_thread_and_commits_stay_on_the_lead() {
        for (name, g) in &trio() {
            let data = profile(g, 4);
            assert_eq!(data.per_thread.len(), 4, "{name}");
            for (tid, t) in data.per_thread.iter().enumerate() {
                assert!(
                    !t.spans.is_empty(),
                    "{name}: thread {tid} recorded no spans"
                );
                let commits = t
                    .spans
                    .iter()
                    .filter(|s| s.kind == nu_lpa::core::SpanKind::Commit)
                    .count();
                if tid == 0 {
                    assert!(commits > 0, "{name}: lead thread has no commit spans");
                } else {
                    assert_eq!(commits, 0, "{name}: worker {tid} recorded commit spans");
                }
                // span timeline is monotone and busy time sums the durations
                let mut last = 0u64;
                let mut busy = 0u64;
                for s in &t.spans {
                    assert!(
                        s.start_ns >= last,
                        "{name}: thread {tid} spans out of order"
                    );
                    last = s.start_ns;
                    busy += s.dur_ns;
                }
                assert_eq!(busy, t.busy_ns, "{name}: thread {tid} busy_ns mismatch");
            }
        }
    }

    /// The commit schedule — and therefore every repair statistic — is a
    /// pure function of the candidate order, so profiles taken at
    /// different thread counts must agree on all deterministic fields.
    #[test]
    fn repair_statistics_are_thread_count_invariant() {
        for (name, g) in &trio() {
            let base = profile(g, 1);
            assert!(!base.iters.is_empty(), "{name}: no iterations recorded");
            for threads in [2usize, 4] {
                let other = profile(g, threads);
                assert_eq!(
                    base.iters.len(),
                    other.iters.len(),
                    "{name}: iteration count diverged at {threads} threads"
                );
                for (a, b) in base.iters.iter().zip(other.iters.iter()) {
                    assert!(
                        a.same_schedule(b),
                        "{name}: repair schedule diverged at {threads} threads: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    /// ΔN must be reflected exactly in the per-iteration `committed`
    /// counts — the profiler sees the same moves the result reports.
    #[test]
    fn committed_moves_match_the_result_series() {
        for (name, g) in &trio() {
            let cfg = LpaConfig::default().with_threads(2);
            let (result, prof) = lpa_native_hostprof(g, &cfg);
            let data = prof.unwrap();
            let committed: Vec<u64> = data.iters.iter().map(|i| i.committed).collect();
            let dn: Vec<u64> = result.changed_per_iter.iter().map(|&c| c as u64).collect();
            // the result series may carry a trailing zero-change iteration
            // that never entered the fast path's commit loop
            assert!(
                dn.starts_with(&committed) || dn == committed,
                "{name}: committed {committed:?} vs dN {dn:?}"
            );
        }
    }
}

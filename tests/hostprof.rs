//! Host-parallel profiler: neutrality and data-integrity tests.
//!
//! The observability contract of `lpa_native_hostprof` has two halves.
//! **Neutrality**: profiling must not change the algorithm — a profiled
//! run's `LpaResult` is bit-identical to the unprofiled run's on every
//! field, across thread counts (the recorder only times and counts what
//! each lane does).
//! **Integrity**: when the recorder is compiled in (`telemetry` default
//! feature → `nulpa-core/hostprof`), the collected data must account
//! for exactly the work the run did — every candidate attributed to a
//! bucket, one compute and one commit span per block on every thread,
//! and schedule statistics that are identical at any thread count.

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
                // Every lane counts its members of every block, so
                // attribution is exact.
                assert_eq!(attributed, swept, "{name} threads={threads}");
                let edges: u64 = data.bucket_totals().iter().map(|b| b.edges).sum();
                assert!(edges > 0, "{name}: no edges attributed");
            }
        }
    }

    /// At one thread the sweep records one compute and one commit span
    /// per block, in that order: the spans never overlap, stay inside the
    /// profiled wall time, and number exactly twice the blocks the
    /// schedule statistics report.
    #[test]
    fn single_thread_block_spans_tile_the_sweep() {
        use nu_lpa::core::SpanKind::{Commit, Compute};
        for (name, g) in &trio() {
            let data = profile(g, 1);
            let spans = &data.per_thread[0].spans;
            let blocks: u64 = data.iters.iter().map(|i| i.blocks as u64).sum();
            assert_eq!(
                spans.len() as u64,
                2 * blocks,
                "{name}: two spans per block"
            );
            let mut end = 0u64;
            for (k, s) in spans.iter().enumerate() {
                let kind = if k % 2 == 0 { Compute } else { Commit };
                assert_eq!(s.kind, kind, "{name}: span {k}");
                assert!(s.start_ns >= end, "{name}: spans overlap");
                end = s.start_ns + s.dur_ns;
            }
            assert!(end <= data.wall_ns, "{name}: spans run past wall_ns");
        }
    }

    /// Every thread records one compute and one commit span per block —
    /// the commit is parallel, so commits no longer stay on the lead.
    #[test]
    fn spans_cover_every_thread_with_one_compute_and_commit_per_block() {
        for (name, g) in &trio() {
            let data = profile(g, 4);
            assert_eq!(data.per_thread.len(), 4, "{name}");
            let blocks: usize = data.iters.iter().map(|i| i.blocks as usize).sum();
            for (tid, t) in data.per_thread.iter().enumerate() {
                let count = |kind| t.spans.iter().filter(|s| s.kind == kind).count();
                assert_eq!(
                    count(nu_lpa::core::SpanKind::Compute),
                    blocks,
                    "{name}: thread {tid} compute spans"
                );
                assert_eq!(
                    count(nu_lpa::core::SpanKind::Commit),
                    blocks,
                    "{name}: thread {tid} commit spans"
                );
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

    /// The block schedule — and therefore every schedule statistic — is a
    /// pure function of the candidate order, so profiles taken at
    /// different thread counts must agree on all deterministic fields,
    /// and nothing is ever repaired.
    #[test]
    fn repair_statistics_are_thread_count_invariant() {
        for (name, g) in &trio() {
            let base = profile(g, 1);
            assert!(!base.iters.is_empty(), "{name}: no iterations recorded");
            assert_eq!(base.repair_rate(), 0.0, "{name}: a pick was repaired");
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
                        "{name}: schedule diverged at {threads} threads: {a:?} vs {b:?}"
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
            assert_eq!(committed, dn, "{name}");
        }
    }
}

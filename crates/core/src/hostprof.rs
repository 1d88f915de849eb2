//! Host-parallel execution profiling for the native sweep.
//!
//! The sweep (`crates/core/src/fastpath.rs`) runs every block in two
//! phases split by a barrier: each lane computes its members' picks,
//! then commits its movers. Where multi-core time actually goes —
//! thread imbalance, barrier waits, the per-iteration prologue — is
//! invisible from the outside. This module is the measurement side: a
//! per-thread recorder threaded through the lane loop that captures
//!
//! * **per-thread span timelines** — one `compute` and one `commit` span
//!   per (thread, block), at every thread count, in nanoseconds since the
//!   run started, renderable as a Chrome trace; the gaps between a
//!   thread's spans are barrier waits and the iteration prologue, which
//!   every lane runs and whose decode and swaps the lead runs alone;
//! * **per-bucket work counters** — vertices and edges scanned, split by
//!   the low/mid/high degree buckets at the default thresholds;
//! * **per-iteration schedule statistics** — blocks, candidates and
//!   committed moves, plus the lead's commit wall time.
//!
//! Everything here is **provably neutral**: nothing is timed or counted
//! until a run is started through [`crate::lpa_native_hostprof`] — the
//! recorder only observes which thread did what, never what was
//! computed. Aggregation,
//! rendering, and the regression gate live in `nulpa-telemetry`'s
//! `hostprof` module; this side stays plain data.

use crate::placement;
use std::time::Instant;

/// Human-readable names of the three degree buckets, indexable by the
/// bucket id used throughout the host profiler.
pub const BUCKET_NAMES: [&str; 3] = ["low", "mid", "high"];

/// Work attributed to one degree bucket by one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketCounters {
    /// Candidate vertices whose pick this thread computed.
    pub vertices: u64,
    /// Stored (directed) edges scanned while computing those picks.
    pub edges: u64,
    /// (block, thread) work units that touched the bucket.
    pub chunks: u64,
    /// Work-claim CAS retries. Always 0: lanes own their members, so
    /// nothing is claimed.
    pub cas_retries: u64,
}

impl BucketCounters {
    /// Accumulate another thread's counters into this one.
    pub fn merge(&mut self, other: &BucketCounters) {
        self.vertices += other.vertices;
        self.edges += other.edges;
        self.chunks += other.chunks;
        self.cas_retries += other.cas_retries;
    }
}

/// What a recorded span covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Pick phase of one block: the lane's members read the labels as
    /// of the block's start.
    Compute,
    /// Commit phase of one block: the lane stores its movers' labels.
    Commit,
}

/// One timed span on a thread's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Iteration the block belonged to.
    pub iter: u32,
    /// Block index within the iteration.
    pub block: u32,
    /// Phase covered.
    pub kind: SpanKind,
    /// Start, in nanoseconds since the run began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Everything one thread recorded over a run. Thread 0 is the lead
/// thread, which also runs the serial steps of every iteration's
/// prologue (the shuffle's decode and swaps) and Cross-Check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadProfData {
    /// Span timeline in emission order (monotone `start_ns`).
    pub spans: Vec<SpanRec>,
    /// Per-bucket work counters (indexed like [`BUCKET_NAMES`]).
    pub buckets: [BucketCounters; 3],
    /// Total time inside spans, in nanoseconds.
    pub busy_ns: u64,
    /// The CPU the thread ran on when its lane finished (`None` when the
    /// host does not report it).
    pub cpu: Option<u32>,
    /// Time the thread spent runnable but waiting for a CPU while its
    /// lane ran, in nanoseconds (0 when the host does not report it). A
    /// wait near the thread's busy time means it shared its CPU.
    pub runq_wait_ns: u64,
}

/// Schedule statistics for one committed iteration. Every field except
/// `commit_ns` is a pure function of the candidate schedule, so these
/// records are deterministic *and* identical at any thread count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterRepairStats {
    /// Iteration index.
    pub iter: u32,
    /// Commit blocks the candidate list was cut into.
    pub blocks: u32,
    /// Candidates swept (the iteration's active set).
    pub candidates: u64,
    /// Picks recomputed at commit. Always 0: the block-synchronous
    /// commit never recomputes a pick.
    pub repaired: u64,
    /// Blocks that needed a recomputed pick. Always 0.
    pub repair_blocks: u32,
    /// Label moves committed (the iteration's ΔN).
    pub committed: u64,
    /// Wall time of the lead thread's commit phases, in nanoseconds.
    pub commit_ns: u64,
}

impl IterRepairStats {
    /// True when every deterministic field matches (`commit_ns`, the one
    /// wall-clock field, is ignored) — the thread-invariance predicate.
    pub fn same_schedule(&self, other: &IterRepairStats) -> bool {
        self.iter == other.iter
            && self.blocks == other.blocks
            && self.candidates == other.candidates
            && self.repaired == other.repaired
            && self.repair_blocks == other.repair_blocks
            && self.committed == other.committed
    }
}

/// The raw output of one profiled `lpa_native` run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostProfData {
    /// Resolved thread count the run used.
    pub threads: usize,
    /// Wall time from fast-path creation to collection, in nanoseconds.
    pub wall_ns: u64,
    /// One timeline per thread (index 0 is the lead).
    pub per_thread: Vec<ThreadProfData>,
    /// Per-iteration schedule statistics, in iteration order.
    pub iters: Vec<IterRepairStats>,
}

impl HostProfData {
    /// Mean per-thread busy time in nanoseconds (0 when empty).
    pub fn busy_ns_mean(&self) -> f64 {
        if self.per_thread.is_empty() {
            return 0.0;
        }
        self.per_thread
            .iter()
            .map(|t| t.busy_ns as f64)
            .sum::<f64>()
            / self.per_thread.len() as f64
    }

    /// Imbalance metric: max over mean per-thread busy time. 1.0 means
    /// perfectly balanced; `t` means the slowest thread carried `t`× the
    /// average load. Returns 1.0 when nothing was recorded.
    pub fn imbalance(&self) -> f64 {
        let mean = self.busy_ns_mean();
        if mean <= 0.0 {
            return 1.0;
        }
        let max = self.per_thread.iter().map(|t| t.busy_ns).max().unwrap_or(0) as f64;
        max / mean
    }

    /// Fraction of candidate picks recomputed at commit (0 when no
    /// candidates were swept). Deterministic and thread-count-invariant;
    /// 0 by construction under the block-synchronous commit.
    pub fn repair_rate(&self) -> f64 {
        let cands: u64 = self.iters.iter().map(|i| i.candidates).sum();
        if cands == 0 {
            return 0.0;
        }
        self.iters.iter().map(|i| i.repaired).sum::<u64>() as f64 / cands as f64
    }

    /// Per-bucket counters summed over all threads.
    pub fn bucket_totals(&self) -> [BucketCounters; 3] {
        let mut out: [BucketCounters; 3] = Default::default();
        for t in &self.per_thread {
            for (acc, b) in out.iter_mut().zip(t.buckets.iter()) {
                acc.merge(b);
            }
        }
        out
    }

    /// Total work-claim CAS retries across threads and buckets (0).
    pub fn cas_retries(&self) -> u64 {
        self.bucket_totals().iter().map(|b| b.cas_retries).sum()
    }
}

// The recorders. Recording is gated on the run-time `enabled` flag (the
// caller of `count_chunk` checks `enabled()`), so an unprofiled run does
// no timing and no counting.

/// Per-thread recorder handed to a sweep lane.
pub(crate) struct ThreadProf {
    enabled: bool,
    t0: Instant,
    span_start: u64,
    /// Run-queue wait when the lane started, if readable.
    runq_start: Option<u64>,
    data: ThreadProfData,
}

impl ThreadProf {
    /// Note where the lane starts, on the thread that runs it (no-op when
    /// disabled).
    pub(crate) fn start_lane(&mut self) {
        if self.enabled {
            self.runq_start = placement::runq_wait_ns();
        }
    }

    /// Record the lane's CPU and its run-queue wait since
    /// [`Self::start_lane`], on the thread that ran it (no-op when
    /// disabled).
    pub(crate) fn finish_lane(&mut self) {
        if self.enabled {
            self.data.cpu = placement::current_cpu();
            self.data.runq_wait_ns = match (self.runq_start, placement::runq_wait_ns()) {
                (Some(a), Some(b)) => b.saturating_sub(a),
                _ => 0,
            };
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span (no-op when disabled).
    #[inline]
    pub(crate) fn begin_span(&mut self) {
        if self.enabled {
            self.span_start = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Close the span opened by `begin_span`; returns its duration in
    /// nanoseconds (0 when disabled).
    #[inline]
    pub(crate) fn end_span(&mut self, kind: SpanKind, iter: u32, block: u32) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        let dur = now.saturating_sub(self.span_start);
        self.data.spans.push(SpanRec {
            iter,
            block,
            kind,
            start_ns: self.span_start,
            dur_ns: dur,
        });
        self.data.busy_ns += dur;
        dur
    }

    /// Attribute one work unit to a bucket.
    #[inline]
    pub(crate) fn count_chunk(&mut self, bucket: usize, vertices: u64, edges: u64) {
        let b = &mut self.data.buckets[bucket];
        b.vertices += vertices;
        b.edges += edges;
        b.chunks += 1;
    }
}

/// Run-level recorder owned by the fast-path state.
pub(crate) struct RunProf {
    enabled: bool,
    t0: Instant,
    iters: Vec<IterRepairStats>,
}

impl RunProf {
    pub(crate) fn new(enabled: bool) -> Self {
        RunProf {
            enabled,
            t0: Instant::now(),
            iters: Vec::new(),
        }
    }

    /// One recorder per thread, all sharing the run's time origin.
    pub(crate) fn thread_recorders(&self, threads: usize) -> Vec<ThreadProf> {
        (0..threads)
            .map(|_| ThreadProf {
                enabled: self.enabled,
                t0: self.t0,
                span_start: 0,
                runq_start: None,
                data: ThreadProfData::default(),
            })
            .collect()
    }

    /// Record one iteration's schedule statistics (no-op when
    /// disabled).
    pub(crate) fn record_iter(
        &mut self,
        iter: u32,
        blocks: u32,
        candidates: u64,
        committed: u64,
        commit_ns: u64,
    ) {
        if self.enabled {
            self.iters.push(IterRepairStats {
                iter,
                blocks,
                candidates,
                repaired: 0,
                repair_blocks: 0,
                committed,
                commit_ns,
            });
        }
    }

    /// Assemble the run's profile; `None` when profiling was off.
    pub(crate) fn collect(&mut self, threads: &mut [ThreadProf]) -> Option<HostProfData> {
        if !self.enabled {
            return None;
        }
        Some(HostProfData {
            threads: threads.len(),
            wall_ns: self.t0.elapsed().as_nanos() as u64,
            per_thread: threads
                .iter_mut()
                .map(|t| std::mem::take(&mut t.data))
                .collect(),
            iters: std::mem::take(&mut self.iters),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_with_busy(busy: &[u64]) -> HostProfData {
        HostProfData {
            threads: busy.len(),
            wall_ns: 1_000,
            per_thread: busy
                .iter()
                .map(|&b| ThreadProfData {
                    busy_ns: b,
                    ..Default::default()
                })
                .collect(),
            iters: Vec::new(),
        }
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(data_with_busy(&[100, 100]).imbalance(), 1.0);
        let d = data_with_busy(&[300, 100]);
        assert!((d.imbalance() - 1.5).abs() < 1e-12);
        // degenerate cases collapse to "balanced"
        assert_eq!(data_with_busy(&[]).imbalance(), 1.0);
        assert_eq!(data_with_busy(&[0, 0]).imbalance(), 1.0);
    }

    #[test]
    fn repair_rate_over_all_iterations() {
        let mut d = data_with_busy(&[1]);
        assert_eq!(d.repair_rate(), 0.0);
        for (iter, (cands, rep)) in [(100u64, 5u64), (50, 0)].into_iter().enumerate() {
            d.iters.push(IterRepairStats {
                iter: iter as u32,
                blocks: 4,
                candidates: cands,
                repaired: rep,
                repair_blocks: (rep > 0) as u32,
                committed: 10,
                commit_ns: 123,
            });
        }
        assert!((d.repair_rate() - 5.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_totals_merge_across_threads() {
        let mut d = data_with_busy(&[1, 2]);
        d.per_thread[0].buckets[0] = BucketCounters {
            vertices: 10,
            edges: 20,
            chunks: 2,
            cas_retries: 1,
        };
        d.per_thread[1].buckets[0] = BucketCounters {
            vertices: 5,
            edges: 8,
            chunks: 1,
            cas_retries: 3,
        };
        let t = d.bucket_totals();
        assert_eq!(t[0].vertices, 15);
        assert_eq!(t[0].edges, 28);
        assert_eq!(t[0].chunks, 3);
        assert_eq!(d.cas_retries(), 4);
    }

    #[test]
    fn same_schedule_ignores_commit_wall_time() {
        let a = IterRepairStats {
            iter: 0,
            blocks: 8,
            candidates: 100,
            repaired: 3,
            repair_blocks: 2,
            committed: 40,
            commit_ns: 1_000,
        };
        let mut b = a;
        b.commit_ns = 999_999;
        assert!(a.same_schedule(&b));
        b.repaired = 4;
        assert!(!a.same_schedule(&b));
    }
}

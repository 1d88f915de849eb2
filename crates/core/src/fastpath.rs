//! The hot loop of [`crate::lpa_native`]: the block-synchronous sweep
//! (DESIGN.md §10).
//!
//! Every vertex's pick is the label of maximum accumulated weight among
//! its neighbours, taken from a dense per-thread `Vec` indexed by label
//! and reset by generation stamp instead of clearing (`ScratchPad`).
//! Weight ties go to the **first-touched** label — the first maximum in
//! CSR neighbour order, GVE-LPA's strict pick — so the argmax is one
//! strictly-greater scan over the distinct labels seen.
//!
//! **Schedule.** An iteration's candidates are shuffled
//! (`seq::shuffle_candidates`) and cut into consecutive blocks
//! of [`SWEEP_BLOCK`] candidates. Every pick in a block reads the labels
//! as of the block's start (Jacobi within a block), and the block's moves
//! are stored before the next block starts (Gauss–Seidel across blocks):
//! the simulator's wave snapshot with deferred stores, at a fixed block
//! size. [`crate::lpa_seq`] is the one-thread definition of the same
//! schedule.
//!
//! **Lanes.** Each thread of the run (lane 0 is the calling thread) owns
//! a contiguous slice of the ascending candidate list and counting-sorts
//! it by block, so it handles each block's members in ascending id order
//! (order within a block cannot change a result). Each block runs in two
//! phases split by a barrier. *Compute* picks each member's label, pushes
//! its move to a lane-local list and clears the mover's neighbours'
//! `processed` flags. *Commit* stores the movers' labels and marks the
//! next block's members processed. Labels are only read during compute
//! and only written during commit, flags are only cleared during compute
//! and only set during commit, and every store is idempotent, so nothing
//! depends on which lane handles a vertex or in what order: labels and ΔN
//! are bit-identical at any `--threads N`. The workers are spawned once
//! per run and park on the barrier between iterations.

use crate::hostprof::{HostProfData, RunProf, SpanKind, ThreadProf};
use crate::seq::{shuffle_candidates, SWEEP_BLOCK};
use nulpa_graph::{Csr, VertexId};
use nulpa_hashtab::HashValue;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Degree thresholds splitting candidates into low-, mid- and
/// high-degree buckets. They steer nothing in the sweep; the host
/// profiler attributes work per bucket at the defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketThresholds {
    /// Largest degree still counted as "low" (default 32 — the warp
    /// size, matching the paper's kernel switch degree).
    pub low_max: u32,
    /// Largest degree still counted as "mid" (default 512). Anything
    /// above is a hub.
    pub mid_max: u32,
}

impl Default for BucketThresholds {
    fn default() -> Self {
        BucketThresholds {
            low_max: 32,
            mid_max: 512,
        }
    }
}

/// Degree bucket of a vertex: 0 (low), 1 (mid) or 2 (high).
fn bucket_of(degree: usize, t: BucketThresholds) -> usize {
    let d = degree as u32;
    if d <= t.low_max {
        0
    } else if d <= t.mid_max {
        1
    } else {
        2
    }
}

/// Split an ordered candidate list into low/mid/high-degree index
/// buckets. Returns index lists into `cands`: `degree <= low_max` →
/// bucket 0, `degree <= mid_max` → bucket 1, else bucket 2. The three
/// lists are a disjoint cover of `0..cands.len()` and each preserves
/// candidate order.
pub fn bucket_partition(g: &Csr, cands: &[VertexId], t: BucketThresholds) -> [Vec<usize>; 3] {
    let mut buckets: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (i, &v) in cands.iter().enumerate() {
        buckets[bucket_of(g.degree(v), t)].push(i);
    }
    buckets
}

/// Per-thread dense label-count scratch with generation-stamped reset:
/// a slot is live only when its stamp equals the current generation, so
/// "clearing" between vertices is one counter bump instead of an O(n)
/// fill. `touched` records the distinct labels seen for the current
/// vertex, in first-touched order, so the argmax scan is O(distinct).
struct ScratchPad<V> {
    counts: Vec<V>,
    stamp: Vec<u32>,
    gen: u32,
    touched: Vec<u32>,
}

impl<V: HashValue> ScratchPad<V> {
    fn new(n: usize) -> Self {
        ScratchPad {
            counts: vec![V::zero(); n],
            stamp: vec![0; n],
            gen: 0,
            touched: Vec::new(),
        }
    }

    /// Start accumulating for a new vertex. On the (rare) generation
    /// wrap the stamps are bulk-reset so a stale slot can never alias
    /// the new generation.
    fn begin(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.gen = 1;
        }
        self.touched.clear();
    }
}

/// How long a barrier waiter spins (yielding between rounds) before it
/// parks. Waking a parked lane took 0.5–1.5 ms on a 2-vCPU KVM guest,
/// longer than most imbalances between lanes, so a spin of about that
/// length keeps lanes off the slow path without burning a core on a long
/// serial prologue.
const SPIN_LIMIT: Duration = Duration::from_millis(1);

/// Spin-then-park barrier over the lanes of one run: a waiter spins on
/// the generation counter for up to [`SPIN_LIMIT`] — only when every lane
/// has a hardware thread of its own — yielding its core between rounds,
/// then parks on a condition variable.
/// A lane that panics abandons the barrier, so the others panic too
/// instead of waiting forever. The mutex guards no data, so a poisoned
/// lock is taken as is.
struct LaneBarrier {
    lanes: usize,
    spin: bool,
    arrived: AtomicUsize,
    gen: AtomicUsize,
    sleepers: AtomicUsize,
    abandoned: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl LaneBarrier {
    fn new(lanes: usize) -> Self {
        let spin =
            lanes > 1 && lanes <= std::thread::available_parallelism().map_or(1, |p| p.get());
        LaneBarrier {
            lanes,
            spin,
            arrived: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            abandoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    fn wait(&self) {
        if self.lanes == 1 {
            return;
        }
        // The AcqRel arrivals chain every lane's earlier (Relaxed) label
        // and flag stores into the releaser, whose store of `gen` pairs
        // with the waiters' Acquire (or SeqCst) loads of it: everything
        // a lane stored before the barrier is visible to all after it.
        let gen = self.gen.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.lanes {
            self.arrived.store(0, Ordering::Relaxed);
            self.gen.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
                self.wake.notify_all();
            }
            return;
        }
        if self.spin {
            let start = Instant::now();
            while start.elapsed() < SPIN_LIMIT {
                for _ in 0..64 {
                    if self.gen.load(Ordering::Acquire) != gen {
                        return;
                    }
                    std::hint::spin_loop();
                }
                // A lane whose core is shared with a lagging lane hands
                // it the core instead of spinning out its time slice.
                std::thread::yield_now();
                self.check();
            }
        }
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.gen.load(Ordering::SeqCst) == gen {
            self.check();
            guard = self.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn check(&self) {
        assert!(
            !self.abandoned.load(Ordering::SeqCst),
            "a sweep lane panicked"
        );
    }

    fn abandon(&self) {
        self.abandoned.store(true, Ordering::SeqCst);
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.wake.notify_all();
    }
}

/// Abandons the barrier when dropped during a panic.
struct AbandonOnPanic<'a>(&'a LaneBarrier);

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abandon();
        }
    }
}

/// One iteration's read-only inputs, published by the lead thread while
/// the workers are parked.
#[derive(Default)]
struct Job {
    iter: u32,
    pick_less: bool,
    stop: bool,
    /// The ascending candidate list.
    cands: Vec<VertexId>,
    /// `block[a]`: the block of `cands[a]`, i.e. its position in the
    /// shuffled candidate list divided by [`SWEEP_BLOCK`].
    block: Vec<u32>,
}

/// State every lane reads, plus the iteration's move count.
struct Shared<'a> {
    g: &'a Csr,
    labels: &'a [AtomicU32],
    processed: &'a [AtomicU8],
    barrier: LaneBarrier,
    job: RwLock<Job>,
    /// Moves committed this iteration, summed over the lanes.
    moved: AtomicUsize,
}

/// One thread's sweep state.
struct Lane<V> {
    id: usize,
    scratch: ScratchPad<V>,
    prof: ThreadProf,
    /// This lane's members of the current iteration, grouped by block
    /// and ascending within a block; block `b` is
    /// `items[starts[b]..starts[b + 1]]`.
    items: Vec<VertexId>,
    starts: Vec<usize>,
    moves: Vec<(VertexId, VertexId)>,
}

impl<V: HashValue> Lane<V> {
    fn new(id: usize, n: usize, prof: ThreadProf) -> Self {
        Lane {
            id,
            scratch: ScratchPad::new(n),
            prof,
            items: Vec::new(),
            starts: Vec::new(),
            moves: Vec::new(),
        }
    }

    /// Worker loop: wait for the lead to publish an iteration, sweep
    /// this lane's share of it, repeat until told to stop.
    fn serve(&mut self, sh: &Shared<'_>) {
        let _abandon = AbandonOnPanic(&sh.barrier);
        loop {
            sh.barrier.wait();
            {
                let job = sh.job.read().expect("a sweep lane panicked");
                if job.stop {
                    return;
                }
                self.sweep(sh, &job);
            }
            // Released the job first, so the lead's next write never
            // waits on a reader.
            sh.barrier.wait();
        }
    }

    /// Sweep this lane's share of one iteration, block by block, and add
    /// its moves to `sh.moved`; returns the time spent in commit spans.
    /// The caller then waits on the barrier every lane passes once the
    /// iteration is fully committed.
    ///
    /// A block's `processed` marks are stored before the barrier that
    /// opens its compute phase, so compute can clear a mover's
    /// neighbours' flags while the mover's adjacency is still in cache;
    /// the labels are stored after the barrier that closes it. Marks
    /// (and label stores) and clears are thus always split by a barrier,
    /// and the flags end exactly as if each block were marked, picked,
    /// stored and cleared in turn.
    fn sweep(&mut self, sh: &Shared<'_>, job: &Job) -> u64 {
        let Lane {
            id,
            scratch,
            prof,
            items,
            starts,
            moves,
        } = self;
        // Counting-sort this lane's slice of the ascending candidates by
        // block, so each block's members come out in ascending id order.
        let m = job.cands.len();
        let lanes = sh.barrier.lanes;
        let (lo, hi) = (*id * m / lanes, (*id + 1) * m / lanes);
        let blocks = m.div_ceil(SWEEP_BLOCK);
        starts.clear();
        if lanes == 1 {
            // The only lane owns every block whole.
            starts.extend((0..=blocks).map(|b| (b * SWEEP_BLOCK).min(m)));
        } else {
            starts.resize(blocks + 1, 0);
            for &b in &job.block[lo..hi] {
                starts[b as usize + 1] += 1;
            }
            for b in 0..blocks {
                starts[b + 1] += starts[b];
            }
        }
        items.resize(hi - lo, 0);
        for (&v, &b) in job.cands[lo..hi].iter().zip(&job.block[lo..hi]) {
            let next = &mut starts[b as usize];
            items[*next] = v;
            *next += 1;
        }
        // Each `starts[b]` now holds block `b`'s end, its successor's start.
        starts.rotate_right(1);
        starts[0] = 0;
        let members = |b: usize| &items[starts[b]..starts[b + 1]];
        let mark = |b: usize| {
            for &v in members(b) {
                sh.processed[v as usize].store(1, Ordering::Relaxed);
            }
        };
        let mut moved = 0;
        let mut commit_ns = 0;
        if blocks > 0 {
            mark(0);
        }
        for b in 0..blocks {
            sh.barrier.wait();
            prof.begin_span();
            for &v in members(b) {
                let Some(c) = compute_pick(sh.g, v, job.pick_less, sh.labels, scratch) else {
                    continue;
                };
                moves.push((v, c));
                for &j in sh.g.neighbor_ids(v) {
                    sh.processed[j as usize].store(0, Ordering::Relaxed);
                }
            }
            if prof.enabled() {
                let mut work = [(0u64, 0u64); 3];
                for &v in members(b) {
                    let d = sh.g.degree(v);
                    let w = &mut work[bucket_of(d, BucketThresholds::default())];
                    w.0 += 1;
                    w.1 += d as u64;
                }
                for (k, &(vertices, edges)) in work.iter().enumerate() {
                    if vertices > 0 {
                        prof.count_chunk(k, vertices, edges);
                    }
                }
            }
            prof.end_span(SpanKind::Compute, job.iter, b as u32);
            sh.barrier.wait();

            prof.begin_span();
            moved += moves.len();
            for (v, c) in moves.drain(..) {
                sh.labels[v as usize].store(c, Ordering::Relaxed);
            }
            if b + 1 < blocks {
                mark(b + 1);
            }
            commit_ns += prof.end_span(SpanKind::Commit, job.iter, b as u32);
        }
        sh.moved.fetch_add(moved, Ordering::Relaxed);
        commit_ns
    }
}

/// The lead's handle on a running sweep: one call per iteration.
pub(crate) struct Sweep<'s, 'a, V> {
    shared: &'s Shared<'a>,
    lead: Lane<V>,
    runprof: RunProf,
    /// Shuffle scratch: the shuffled order of the candidate indices.
    order: Vec<u32>,
}

impl<V: HashValue> Sweep<'_, '_, V> {
    /// One LPA iteration over the ascending `candidates` (lent to the
    /// lanes for the iteration); returns ΔN.
    pub(crate) fn run_iteration(
        &mut self,
        iter: u32,
        candidates: &mut Vec<VertexId>,
        pick_less: bool,
    ) -> usize {
        let sh = self.shared;
        {
            let mut job = sh.job.write().expect("a sweep lane panicked");
            job.iter = iter;
            job.pick_less = pick_less;
            // Shuffling the indices draws the same permutation as
            // shuffling the candidates themselves; invert it into blocks.
            let m = candidates.len();
            self.order.clear();
            self.order.extend(0..m as u32);
            shuffle_candidates(&mut self.order, iter);
            job.block.resize(m, 0);
            for (pos, &a) in self.order.iter().enumerate() {
                job.block[a as usize] = (pos / SWEEP_BLOCK) as u32;
            }
            std::mem::swap(&mut job.cands, candidates);
        }
        sh.barrier.wait();
        let commit_ns = {
            let job = sh.job.read().expect("a sweep lane panicked");
            self.lead.sweep(sh, &job)
        };
        sh.barrier.wait();
        let mut job = sh.job.write().expect("a sweep lane panicked");
        std::mem::swap(&mut job.cands, candidates);
        drop(job);
        // Every lane added its moves before the barrier above.
        let changed = sh.moved.swap(0, Ordering::Relaxed);
        self.runprof.record_iter(
            iter,
            candidates.len().div_ceil(SWEEP_BLOCK) as u32,
            candidates.len() as u64,
            changed as u64,
            commit_ns,
        );
        changed
    }
}

/// Start the run's lanes over `labels`/`processed`, hand the lead's
/// [`Sweep`] to `body`, then stop the workers. Returns `body`'s result and the host profile
/// (`None` unless `profile` is set).
pub(crate) fn with_lanes<V: HashValue, R>(
    g: &Csr,
    labels: &[AtomicU32],
    processed: &[AtomicU8],
    threads: usize,
    profile: bool,
    body: impl FnOnce(&mut Sweep<'_, '_, V>) -> R,
) -> (R, Option<HostProfData>) {
    let lanes = threads.max(1);
    let n = g.num_vertices();
    let runprof = RunProf::new(profile);
    let mut recorders = runprof.thread_recorders(lanes);
    let shared = Shared {
        g,
        labels,
        processed,
        barrier: LaneBarrier::new(lanes),
        job: RwLock::new(Job::default()),
        moved: AtomicUsize::new(0),
    };
    let sh = &shared;
    std::thread::scope(|s| {
        let workers: Vec<_> = recorders
            .drain(1..)
            .enumerate()
            .map(|(k, tp)| {
                s.spawn(move || {
                    let mut lane = Lane::<V>::new(k + 1, n, tp);
                    lane.serve(sh);
                    lane.prof
                })
            })
            .collect();
        let lead = Lane::new(0, n, recorders.pop().expect("one recorder per lane"));
        let mut sweep = Sweep {
            shared: sh,
            lead,
            runprof,
            order: Vec::new(),
        };
        let abandon = AbandonOnPanic(&sh.barrier);
        let r = body(&mut sweep);
        sh.job.write().expect("a sweep lane panicked").stop = true;
        sh.barrier.wait();
        drop(abandon);
        let mut profs = vec![sweep.lead.prof];
        profs.extend(
            workers
                .into_iter()
                .map(|w| w.join().expect("sweep lane panicked")),
        );
        (r, sweep.runprof.collect(&mut profs))
    })
}

/// Compute one vertex's pick against the current labels: accumulate
/// neighbour label weights into the dense scratch in CSR order, then
/// take the first maximum in first-touched order (a strictly-greater
/// scan of `touched`). The pick is a pure function of the label state.
fn compute_pick<V: HashValue>(
    g: &Csr,
    v: VertexId,
    pick_less: bool,
    labels: &[AtomicU32],
    scratch: &mut ScratchPad<V>,
) -> Option<VertexId> {
    scratch.begin();
    for (j, w) in g.neighbors(v) {
        if j == v {
            continue;
        }
        let c = labels[j as usize].load(Ordering::Relaxed);
        let ci = c as usize;
        if scratch.stamp[ci] != scratch.gen {
            scratch.stamp[ci] = scratch.gen;
            scratch.counts[ci] = V::zero();
            scratch.touched.push(c);
        }
        scratch.counts[ci] = scratch.counts[ci].add(V::from_weight(w));
    }
    let mut best: Option<(VertexId, V)> = None;
    for &c in &scratch.touched {
        let w = scratch.counts[c as usize];
        if best.is_none_or(|(_, bw)| w > bw) {
            best = Some((c, w));
        }
    }
    let (c_star, _) = best?;
    let cur = labels[v as usize].load(Ordering::Relaxed);
    (c_star != cur && (!pick_less || c_star < cur)).then_some(c_star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::{erdos_renyi, star};

    #[test]
    fn bucket_partition_is_disjoint_cover() {
        let g = erdos_renyi(150, 500, 3);
        let cands: Vec<VertexId> = (0..150).step_by(2).collect();
        let bk = bucket_partition(
            &g,
            &cands,
            BucketThresholds {
                low_max: 2,
                mid_max: 6,
            },
        );
        let mut seen = vec![false; cands.len()];
        for list in &bk {
            for &i in list {
                assert!(!seen[i], "index {i} in two buckets");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some candidate unbucketed");
    }

    #[test]
    fn bucket_partition_respects_thresholds() {
        let g = star(40); // hub degree 39, leaves degree 1
        let cands: Vec<VertexId> = (0..40).collect();
        let t = BucketThresholds {
            low_max: 1,
            mid_max: 10,
        };
        let bk = bucket_partition(&g, &cands, t);
        assert_eq!(bk[0].len(), 39, "leaves are low-degree");
        assert!(bk[1].is_empty());
        assert_eq!(bk[2], vec![0], "hub lands in the high bucket");
    }

    #[test]
    fn scratch_generation_wrap_resets_stamps() {
        let mut s = ScratchPad::<f32>::new(4);
        s.gen = u32::MAX - 1;
        s.begin(); // -> u32::MAX
        s.stamp[2] = s.gen;
        s.counts[2] = 7.0;
        s.begin(); // wraps: stamps bulk-cleared, gen = 1
        assert_eq!(s.gen, 1);
        assert!(
            s.stamp.iter().all(|&st| st == 0),
            "stale stamp survived wrap"
        );
    }

    #[test]
    fn scratch_reuse_does_not_leak_counts() {
        let g = nulpa_graph::GraphBuilder::new(4)
            .add_undirected_edge(0, 1, 1.0)
            .add_undirected_edge(0, 2, 1.0)
            .add_undirected_edge(1, 2, 1.0)
            .build();
        let labels: Vec<AtomicU32> = (0..4).map(AtomicU32::new).collect();
        let mut s = ScratchPad::<f32>::new(4);
        let a = compute_pick(&g, 0, false, &labels, &mut s);
        let b = compute_pick(&g, 0, false, &labels, &mut s);
        assert_eq!(a, b, "second use of the scratch must see fresh counts");
    }

    #[test]
    fn weight_tie_resolves_to_first_touched_label() {
        // Vertex 0's neighbours in CSR order are 1 then 2, carrying
        // labels 2 then 1 at equal weight. The first-touched label (2)
        // wins, not the smaller one.
        let g = nulpa_graph::GraphBuilder::new(3)
            .add_undirected_edge(0, 1, 1.0)
            .add_undirected_edge(0, 2, 1.0)
            .build();
        assert_eq!(g.neighbor_ids(0), &[1, 2]);
        let labels: Vec<AtomicU32> = [0, 2, 1].into_iter().map(AtomicU32::new).collect();
        let mut s = ScratchPad::<f32>::new(3);
        assert_eq!(compute_pick(&g, 0, false, &labels, &mut s), Some(2));
        // A strictly heavier label later in CSR order still wins.
        let g = nulpa_graph::GraphBuilder::new(3)
            .add_undirected_edge(0, 1, 1.0)
            .add_undirected_edge(0, 2, 1.5)
            .build();
        assert_eq!(compute_pick(&g, 0, false, &labels, &mut s), Some(1));
    }

    #[test]
    fn barrier_releases_every_round() {
        let barrier = LaneBarrier::new(3);
        let rounds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for r in 0..200 {
                        // nobody may start round r + 1 before all three
                        // have finished round r
                        assert!(rounds.load(Ordering::SeqCst) >= 3 * r);
                        rounds.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(rounds.into_inner(), 600);
    }
}

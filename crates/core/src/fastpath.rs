//! The hot loop of [`crate::lpa_native`]: the block-synchronous sweep
//! (DESIGN.md §10).
//!
//! Every vertex's pick is the label of maximum accumulated weight among
//! its neighbours. Like ν-LPA's two kernels, it has two paths split by
//! degree. A vertex of degree at most [`SMALL_PICK_DEGREE`] sums its
//! labels in a fixed-size table on the stack, searched linearly (the
//! thread-per-vertex kernel's small table). Any other vertex uses a dense
//! per-thread `Vec` indexed by label and reset by generation stamp
//! instead of clearing (`ScratchPad`). Both add the weights in CSR order
//! from zero and break weight ties to the **first-touched** label — the
//! first maximum in CSR neighbour order, GVE-LPA's strict pick — so the
//! argmax is one strictly-greater scan over the distinct labels seen, and
//! both paths pick the same label bit for bit.
//!
//! **Schedule.** An iteration's candidates are shuffled and cut into
//! consecutive blocks of [`SWEEP_BLOCK`] candidates. Every pick in a
//! block reads the labels as of the block's start (Jacobi within a
//! block), and the block's moves are stored before the next block starts
//! (Gauss–Seidel across blocks): the simulator's wave snapshot with
//! deferred stores, at a fixed block size. [`crate::lpa_seq`] is the
//! one-thread definition of the same schedule, and the shuffle is the one
//! `seq::shuffle_candidates` draws, word for word.
//!
//! **Lanes.** Each thread of the run (lane 0, the lead, is the calling
//! thread) runs the iteration's prologue alongside the others, in phases
//! split by barriers:
//!
//! 1. *Filter*: each lane collects the candidates of an equal share of
//!    the vertices, ascending.
//! 2. The lead sizes the iteration's buffers to the total.
//! 3. *Place*: each lane copies its candidates to their offset in the
//!    ascending list (a prefix sum of the lower lanes' counts), and takes
//!    an equal share of the shuffle's ChaCha8 words (`seq::shuffle_words`,
//!    positioned with `set_word_pos`). The workers store theirs; the
//!    lead decodes the first share into swap indices straight from the
//!    stream (`seq::decode_draws`).
//! 4. The lead decodes the stored words and applies the swaps
//!    backwards, which leaves each candidate's shuffled position, and so
//!    its block.
//!
//! Then each lane owns a contiguous slice of the ascending candidate list
//! (an equal candidate count) and counting-sorts it by block, so it
//! handles each block's members in ascending id order (order within a
//! block cannot change a result). Each block runs in two phases split by
//! a barrier. *Compute* picks each member's label, pushes its move to a
//! lane-local list and clears the mover's neighbours' `processed` flags.
//! *Commit* stores the movers' labels and marks the next block's members
//! processed. Labels are only read during compute and only written
//! during commit, flags are only cleared during compute and only set
//! during commit, and every store is idempotent, so nothing depends on
//! which lane handles a vertex or in what order: labels and ΔN are
//! bit-identical at any `--threads N`. The workers are spawned once per
//! run, each pinned to a CPU of its own when there are enough (see
//! `placement`), and park on the barrier between iterations.

use crate::hostprof::{HostProfData, RunProf, SpanKind, ThreadProf};
use crate::placement;
use crate::seq::{decode_draws, shuffle_word_budget, shuffle_words, SWEEP_BLOCK};
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
/// length keeps lanes off the slow path without burning a core through a
/// long serial step of the lead's.
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

/// One iteration's inputs and prologue buffers. The lead resizes them
/// while no lane holds the lock; the lanes fill them through relaxed
/// atomic stores at disjoint indices, and a barrier lies between every
/// store and the loads that read it (see `LaneBarrier::wait`).
#[derive(Default)]
struct Job {
    iter: u32,
    pick_less: bool,
    pruning: bool,
    stop: bool,
    /// The ascending candidate list.
    cands: Vec<AtomicU32>,
    /// The first `m` words of the shuffle stream, then the swap indices
    /// decoded from them.
    swaps: Vec<AtomicU32>,
    /// The words of the shuffle stream after those in `swaps`, then `pos[a]`:
    /// the position of `cands[a]` in the shuffled candidate list, whose
    /// block is `pos[a] / SWEEP_BLOCK`.
    pos: Vec<AtomicU32>,
}

/// State every lane reads, plus the iteration's counters.
struct Shared<'a> {
    g: &'a Csr,
    labels: &'a [AtomicU32],
    processed: &'a [AtomicU8],
    barrier: LaneBarrier,
    job: RwLock<Job>,
    /// Candidates each lane's filter found in its vertex range.
    filtered: Vec<AtomicUsize>,
    /// Moves committed this iteration, summed over the lanes.
    moved: AtomicUsize,
}

/// Lane `id`'s share `lo..hi` of `0..len`, in equal parts.
fn share(len: usize, id: usize, lanes: usize) -> (usize, usize) {
    (id * len / lanes, (id + 1) * len / lanes)
}

/// One thread's sweep state.
struct Lane<V> {
    id: usize,
    scratch: ScratchPad<V>,
    prof: ThreadProf,
    /// First this lane's filtered candidates, then its members of the
    /// current iteration, grouped by block and ascending within a
    /// block; block `b` is `items[starts[b]..starts[b + 1]]`.
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

    /// Worker loop: wait for the lead to publish an iteration, run this
    /// lane's part of it, repeat until told to stop.
    fn serve(&mut self, sh: &Shared<'_>) {
        let _abandon = AbandonOnPanic(&sh.barrier);
        loop {
            sh.barrier.wait();
            if self.iteration(sh).is_none() {
                return;
            }
        }
    }

    /// This lane's part of the published iteration, from the filter to
    /// the closing barrier; the lead (lane 0) also runs the two serial
    /// steps. Returns the candidate count and the lane's commit time,
    /// or `None` when the job says stop.
    ///
    /// Every lane filters a vertex range; the lead sizes the buffers to
    /// the total; every lane copies its candidates to their offset in
    /// the ascending list and draws its share of the shuffle's words;
    /// the lead turns the words into each candidate's shuffled position;
    /// then the lanes sweep. No lane holds the job's lock across the
    /// lead's resize or the closing barrier.
    fn iteration(&mut self, sh: &Shared<'_>) -> Option<(usize, u64)> {
        let lead = self.id == 0;
        {
            let job = sh.job.read().expect("a sweep lane panicked");
            if job.stop {
                return None;
            }
            self.filter(sh, job.pruning);
        }
        sh.barrier.wait();
        if lead {
            let m = sh.filtered.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            let job = &mut *sh.job.write().expect("a sweep lane panicked");
            for buf in [&mut job.cands, &mut job.swaps, &mut job.pos] {
                buf.resize_with(m, AtomicU32::default);
            }
        }
        sh.barrier.wait();
        let job = sh.job.read().expect("a sweep lane panicked");
        let m = job.cands.len();
        if m == 0 {
            return Some((0, 0));
        }
        let decoded = self.place(sh, &job);
        sh.barrier.wait();
        if lead {
            shuffle_positions(&job, sh.barrier.lanes, decoded);
        }
        sh.barrier.wait();
        let commit_ns = self.sweep(sh, &job);
        // Released the job first, so the lead's next write never waits
        // on a reader.
        drop(job);
        sh.barrier.wait();
        Some((m, commit_ns))
    }

    /// Collect the candidates among this lane's share of the vertices,
    /// ascending, into `items`, and publish their count.
    ///
    /// Isolated vertices start marked processed, so the pruned filter
    /// reads the flags alone: branch-free within a 64-flag chunk,
    /// because the flags are too irregular to predict, and skipping
    /// chunks without an unprocessed vertex, which late sweeps and
    /// dynamic updates consist mostly of.
    fn filter(&mut self, sh: &Shared<'_>, pruning: bool) {
        let flags = sh.processed;
        let (c0, c1) = share(flags.len().div_ceil(64), self.id, sh.barrier.lanes);
        self.items.clear();
        let mut ids = [0 as VertexId; 64];
        for (c, chunk) in flags.chunks(64).enumerate().take(c1).skip(c0) {
            let base = c * 64;
            if !pruning {
                self.items.extend(
                    (base..base + chunk.len())
                        .map(|v| v as VertexId)
                        .filter(|&v| sh.g.degree(v) > 0),
                );
                continue;
            }
            if chunk.iter().all(|f| f.load(Ordering::Relaxed) != 0) {
                continue;
            }
            let mut k = 0;
            for (i, f) in chunk.iter().enumerate() {
                ids[k] = (base + i) as VertexId;
                k += (f.load(Ordering::Relaxed) == 0) as usize;
            }
            self.items.extend_from_slice(&ids[..k]);
        }
        sh.filtered[self.id].store(self.items.len(), Ordering::Relaxed);
    }

    /// Copy this lane's candidates to their place in the ascending list
    /// (after every lower lane's), and take this lane's equal share of
    /// the shuffle's words. A worker stores its words: word `p` goes to
    /// `swaps[p]`, or past the end of `swaps` to `pos[p - m]`. The lead's
    /// share comes first, and the lead decodes it straight from the
    /// stream, which measured little dearer than drawing the words; it
    /// returns the draws decoded. Returns 0 on a worker.
    fn place(&self, sh: &Shared<'_>, job: &Job) -> usize {
        let offset: usize = sh.filtered[..self.id]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        for (slot, &v) in job.cands[offset..].iter().zip(&self.items) {
            slot.store(v, Ordering::Relaxed);
        }
        let m = job.cands.len();
        let (lo, hi) = share(shuffle_word_budget(m), self.id, sh.barrier.lanes);
        if self.id == 0 {
            let mut d = 0;
            let words = shuffle_words(job.iter, 0).take(hi);
            decode_draws(m, &mut d, words, put_swap(&job.swaps));
            return d;
        }
        let slots = job.swaps[lo.min(m)..hi.min(m)]
            .iter()
            .chain(&job.pos[lo.max(m) - m..hi.max(m) - m]);
        for (slot, w) in slots.zip(shuffle_words(job.iter, lo)) {
            slot.store(w, Ordering::Relaxed);
        }
        0
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
    // Kept out of `iteration`: inlined there, its pick loop compiled
    // slower (uk-2002@0.004 at one thread: 12 of 12 runs ≈10% slower).
    #[inline(never)]
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
        let (lo, hi) = share(m, *id, lanes);
        let blocks = m.div_ceil(SWEEP_BLOCK);
        let block_of = |a: usize| job.pos[a].load(Ordering::Relaxed) as usize / SWEEP_BLOCK;
        starts.clear();
        if lanes == 1 {
            // The only lane owns every block whole.
            starts.extend((0..=blocks).map(|b| (b * SWEEP_BLOCK).min(m)));
        } else {
            starts.resize(blocks + 1, 0);
            for a in lo..hi {
                starts[block_of(a) + 1] += 1;
            }
            for b in 0..blocks {
                starts[b + 1] += starts[b];
            }
        }
        items.resize(hi - lo, 0);
        for a in lo..hi {
            let next = &mut starts[block_of(a)];
            items[*next] = job.cands[a].load(Ordering::Relaxed);
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

/// Where the decode of draw `d` puts its swap index: over `swaps[d]`,
/// which holds word `d` of the stream or a word the decode has passed.
fn put_swap(swaps: &[AtomicU32]) -> impl Fn(usize, u32) + Copy + '_ {
    |d, j| swaps[d].store(j, Ordering::Relaxed)
}

/// The lead's serial prologue step. From draw `d` on (the draws the lead
/// decoded from its own share of the words), decode the words the
/// workers drew into swap indices (`seq::decode_draws`, continuing the
/// stream serially if they run out), then turn the indices into each
/// candidate's position in the order `seq::shuffle_candidates` draws.
///
/// The shuffle is the product of its swaps in draw order, so its inverse
/// is the same swaps in reverse order: applied backwards to the identity,
/// they leave `pos[a]`, the shuffled position of candidate `a`, with no
/// separate inversion pass.
fn shuffle_positions(job: &Job, lanes: usize, mut d: usize) {
    let (swaps, pos) = (&job.swaps, &job.pos);
    let m = swaps.len();
    let budget = shuffle_word_budget(m);
    let from = share(budget, 0, lanes).1;
    let word = |w: &AtomicU32| w.load(Ordering::Relaxed);
    let stored = swaps[from.min(m)..budget.min(m)].iter().map(word);
    decode_draws(m, &mut d, stored, put_swap(swaps));
    let stored = pos[from.max(m) - m..budget.max(m) - m].iter().map(word);
    decode_draws(m, &mut d, stored, put_swap(swaps));
    if d + 1 < m {
        decode_draws(m, &mut d, shuffle_words(job.iter, budget), put_swap(swaps));
    }
    for (a, slot) in pos.iter().enumerate() {
        slot.store(a as u32, Ordering::Relaxed);
    }
    for d in (0..m.saturating_sub(1)).rev() {
        let (i, j) = (m - 1 - d, word(&swaps[d]) as usize);
        let (x, y) = (word(&pos[i]), word(&pos[j]));
        pos[i].store(y, Ordering::Relaxed);
        pos[j].store(x, Ordering::Relaxed);
    }
}

/// The lead's handle on a running sweep: one call per iteration.
pub(crate) struct Sweep<'s, 'a, V> {
    shared: &'s Shared<'a>,
    lead: Lane<V>,
    runprof: RunProf,
}

/// What one swept iteration did.
pub(crate) struct Swept {
    /// Candidates swept.
    pub(crate) active: usize,
    /// Label moves committed (ΔN before Cross-Check).
    pub(crate) changed: usize,
}

impl<V: HashValue> Sweep<'_, '_, V> {
    /// One LPA iteration: filter the candidates (the unprocessed
    /// vertices when `pruning`, else every vertex with an edge), shuffle
    /// them into blocks and sweep them. `None` when there was no
    /// candidate, and so nothing was swept.
    pub(crate) fn run_iteration(
        &mut self,
        iter: u32,
        pruning: bool,
        pick_less: bool,
    ) -> Option<Swept> {
        let sh = self.shared;
        {
            let mut job = sh.job.write().expect("a sweep lane panicked");
            job.iter = iter;
            job.pick_less = pick_less;
            job.pruning = pruning;
        }
        sh.barrier.wait();
        let (active, commit_ns) = self
            .lead
            .iteration(sh)
            .expect("the lead never stops itself");
        if active == 0 {
            return None;
        }
        // Every lane added its moves before the closing barrier.
        let changed = sh.moved.swap(0, Ordering::Relaxed);
        self.runprof.record_iter(
            iter,
            active.div_ceil(SWEEP_BLOCK) as u32,
            active as u64,
            changed as u64,
            commit_ns,
        );
        Some(Swept { active, changed })
    }
}

/// Start the run's lanes over `labels`/`processed`, hand the lead's
/// [`Sweep`] to `body`, then stop the workers. Returns `body`'s result and the host profile
/// (`None` unless `profile` is set).
///
/// When every lane can have an allowed CPU of its own, each worker is
/// pinned to one other than the lead's (`placement::worker_plan`); the
/// lead stays where it is.
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
    let cpus = placement::worker_plan(lanes);
    let shared = Shared {
        g,
        labels,
        processed,
        barrier: LaneBarrier::new(lanes),
        job: RwLock::new(Job::default()),
        filtered: (0..lanes).map(|_| AtomicUsize::new(0)).collect(),
        moved: AtomicUsize::new(0),
    };
    let sh = &shared;
    std::thread::scope(|s| {
        let workers: Vec<_> = recorders
            .drain(1..)
            .enumerate()
            .map(|(k, mut tp)| {
                let cpu = cpus.as_ref().map(|c| c[k]);
                s.spawn(move || {
                    if let Some(cpu) = cpu {
                        // A failed call leaves the worker unpinned.
                        placement::pin_current_thread(cpu);
                    }
                    tp.start_lane();
                    let mut lane = Lane::<V>::new(k + 1, n, tp);
                    lane.serve(sh);
                    lane.prof.finish_lane();
                    lane.prof
                })
            })
            .collect();
        let mut lead_prof = recorders.pop().expect("one recorder per lane");
        lead_prof.start_lane();
        let mut sweep = Sweep {
            shared: sh,
            lead: Lane::new(0, n, lead_prof),
            runprof,
        };
        let abandon = AbandonOnPanic(&sh.barrier);
        let r = body(&mut sweep);
        sh.job.write().expect("a sweep lane panicked").stop = true;
        sh.barrier.wait();
        drop(abandon);
        sweep.lead.prof.finish_lane();
        let mut profs = vec![sweep.lead.prof];
        profs.extend(
            workers
                .into_iter()
                .map(|w| w.join().expect("sweep lane panicked")),
        );
        (r, sweep.runprof.collect(&mut profs))
    })
}

/// Largest degree whose pick comes from the small stack table
/// (`small_table_label`) instead of the dense scratch. ν-LPA switches from
/// thread- to block-per-vertex at degree 32; on the CPU the linear search
/// pays only below that (the sweep over 4/8/16/32 is in EXPERIMENTS.md,
/// "Low-degree picks from a small stack table").
pub const SMALL_PICK_DEGREE: usize = 8;

/// Compute one vertex's pick against the current labels: the heaviest
/// neighbour label, from the small table or the dense scratch by degree,
/// unless it is the vertex's own label (or, under `pick_less`, not
/// smaller). The pick is a pure function of the label state.
fn compute_pick<V: HashValue>(
    g: &Csr,
    v: VertexId,
    pick_less: bool,
    labels: &[AtomicU32],
    scratch: &mut ScratchPad<V>,
) -> Option<VertexId> {
    let c_star = if g.degree(v) <= SMALL_PICK_DEGREE {
        small_table_label::<V>(g, v, labels)
    } else {
        scratch_label(g, v, labels, scratch)
    }?;
    let cur = labels[v as usize].load(Ordering::Relaxed);
    (c_star != cur && (!pick_less || c_star < cur)).then_some(c_star)
}

/// The heaviest neighbour label of a vertex of degree at most
/// [`SMALL_PICK_DEGREE`]: sum its neighbours' weights per label in a
/// stack table kept in first-touched order, searched linearly.
fn small_table_label<V: HashValue>(g: &Csr, v: VertexId, labels: &[AtomicU32]) -> Option<VertexId> {
    let mut keys = [0 as VertexId; SMALL_PICK_DEGREE];
    let mut sums = [V::zero(); SMALL_PICK_DEGREE];
    let mut len = 0;
    for (j, w) in g.neighbors(v) {
        if j == v {
            continue;
        }
        let c = labels[j as usize].load(Ordering::Relaxed);
        let i = keys[..len].iter().position(|&k| k == c).unwrap_or_else(|| {
            keys[len] = c;
            len += 1;
            len - 1
        });
        sums[i] = sums[i].add(V::from_weight(w));
    }
    first_max(keys[..len].iter().copied().zip(sums[..len].iter().copied()))
}

/// The heaviest neighbour label of any vertex: sum its neighbours'
/// weights per label into the dense scratch, recording each label in
/// `touched` the first time it is seen.
fn scratch_label<V: HashValue>(
    g: &Csr,
    v: VertexId,
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
    let counts = &scratch.counts;
    first_max(scratch.touched.iter().map(|&c| (c, counts[c as usize])))
}

/// The first label of maximum weight among `(label, weight)` pairs in
/// first-touched order: a strictly-greater scan, so a tie goes to the
/// label seen first.
#[inline]
fn first_max<V: HashValue>(pairs: impl Iterator<Item = (VertexId, V)>) -> Option<VertexId> {
    let mut best: Option<(VertexId, V)> = None;
    for (c, w) in pairs {
        if best.is_none_or(|(_, bw)| w > bw) {
            best = Some((c, w));
        }
    }
    best.map(|(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::{erdos_renyi, star};
    use rand::{Rng, SeedableRng};

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
        // Above the small table's degree the dense scratch picks, with the
        // same rule: labels 9 and 8 both reach weight 2, 9 first.
        let d = SMALL_PICK_DEGREE + 2;
        let g = star(d + 1);
        assert!(g.degree(0) > SMALL_PICK_DEGREE);
        let labels: Vec<AtomicU32> = (0..=d as u32)
            .map(|j| match j {
                0 => 0,
                1 | 3 => 9,
                2 | 4 => 8,
                _ => j + 20,
            })
            .map(AtomicU32::new)
            .collect();
        let mut s = ScratchPad::<f32>::new(d + 30);
        assert_eq!(compute_pick(&g, 0, false, &labels, &mut s), Some(9));
    }

    /// A vertex 0 of degree `d` over neighbours drawn from `0..=d`:
    /// repeats are parallel edges and a 0 is a self loop. Weights come
    /// from a set small enough to tie and labels from a range small
    /// enough to repeat.
    fn random_neighbourhood(d: usize, rng: &mut impl Rng) -> (Csr, Vec<AtomicU32>) {
        let n = d + 1;
        let mut targets: Vec<VertexId> = (0..d).map(|_| rng.gen_range(0..n) as VertexId).collect();
        targets.sort_unstable();
        let weights = (0..d)
            .map(|_| [0.5, 1.0, 1.5][rng.gen_range(0..3)])
            .collect();
        let mut offsets = vec![0, d];
        offsets.resize(n + 1, d);
        let g = Csr::from_raw(offsets, targets, weights);
        let labels = (0..n)
            .map(|_| AtomicU32::new(rng.gen_range(0..n.min(4)) as u32))
            .collect();
        (g, labels)
    }

    fn small_table_matches_scratch<V: HashValue>(seed: u64) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..400 {
            for d in 0..=SMALL_PICK_DEGREE + 2 {
                let (g, labels) = random_neighbourhood(d, &mut rng);
                let case = (g.neighbor_ids(0), g.neighbor_weights(0), &labels);
                let mut s = ScratchPad::<V>::new(g.num_vertices());
                let dense = scratch_label(&g, 0, &labels, &mut s);
                if d <= SMALL_PICK_DEGREE {
                    let small = small_table_label::<V>(&g, 0, &labels);
                    assert_eq!(small, dense, "degree {d}: {case:?}");
                }
                let cur = labels[0].load(Ordering::Relaxed);
                let got = compute_pick(&g, 0, false, &labels, &mut s);
                assert_eq!(got, dense.filter(|&c| c != cur), "degree {d}: {case:?}");
            }
        }
    }

    #[test]
    fn small_table_pick_matches_scratch_pick() {
        small_table_matches_scratch::<f32>(7);
        small_table_matches_scratch::<f64>(8);
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

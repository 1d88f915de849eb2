//! The hot loop of [`crate::lpa_native`] (DESIGN.md §10).
//!
//! Every vertex's pick is the label of maximum accumulated weight among
//! its neighbours, taken from a dense per-thread `Vec` indexed by label
//! and reset by generation stamp instead of clearing (`ScratchPad`).
//! Weight ties go to the **first-touched** label — the first maximum in
//! CSR neighbour order, GVE-LPA's strict pick — so the argmax is one
//! strictly-greater scan over the distinct labels seen.
//!
//! **One thread** runs the fused asynchronous sweep: each shuffled
//! candidate's pick is computed against the live labels and committed on
//! the spot. No pick array, no blocks, no buckets.
//!
//! **Several threads** cut the shuffled candidate list into cache blocks
//! of bounded adjacency volume ([`nulpa_graph::blocks::candidate_blocks`])
//! and split each block into low/mid/high-degree buckets
//! ([`bucket_partition`]). Threads claim bucket chunks (large chunks of
//! cheap vertices, hubs one at a time) and compute *speculative* picks
//! against the labels frozen at the block's start; the coordinating
//! thread then commits the block sequentially in candidate order, and any
//! candidate with a neighbour that moved earlier in the same block is
//! recomputed on the spot against the live labels. A speculative pick is
//! used only when it provably equals the serial one.
//!
//! **Determinism.** Either way the committed trajectory is exactly the
//! fully sequential asynchronous sweep over the shuffled candidate list,
//! so labels, ΔN trajectories and frontier contents are bit-identical at
//! any `--threads N`.

use crate::config::BucketThresholds;
use crate::hostprof::{HostProfData, RunProf, SpanKind, ThreadProf};
use nulpa_graph::{blocks::candidate_blocks, Csr, VertexId};
use nulpa_hashtab::HashValue;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::Barrier;

/// Work-claim chunk sizes per bucket: low-degree vertices are claimed in
/// large runs (cheap, abundant), mid-degree in short runs, hubs one at a
/// time so one heavyweight vertex never hides a chunk of light ones.
const CHUNK_SIZES: [usize; 3] = [256, 16, 1];

/// Sentinel in the pick array: "no label change for this candidate".
const NO_MOVE: u32 = u32::MAX;

/// Floor for the number of commit blocks per iteration. The probability
/// that a candidate needs the serial repair path grows with the fraction
/// of the graph inside its block, so small graphs are cut into at least
/// this many blocks instead of one L2-sized block.
const MIN_BLOCKS: usize = 64;

/// Floor for the per-block adjacency budget, in stored edges.
const MIN_BLOCK_EDGES: usize = 64;

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

/// Reusable state for the native sweep, created once per `lpa_native`
/// run.
pub(crate) struct FastState<V> {
    threads: usize,
    thresholds: BucketThresholds,
    /// Upper bound on the per-block adjacency budget (L2 sizing).
    block_edges: usize,
    /// Per-candidate speculative pick (label to adopt, or [`NO_MOVE`]),
    /// indexed like the iteration's candidate list. Written by whichever
    /// thread computed the candidate, read by the committing thread after
    /// a barrier. Unused by the single-thread sweep.
    picks: Vec<AtomicU32>,
    /// One scratch pad per thread (index 0 is the coordinating thread).
    scratch: Vec<ScratchPad<V>>,
    /// `moved[v] == block_stamp` iff `v`'s label changed during the
    /// block currently being committed — the staleness test for the
    /// serial repair path. Empty for an unprofiled single-thread run.
    moved: Vec<u64>,
    block_stamp: u64,
    /// Host-profiling recorders (zero-sized no-ops unless the `hostprof`
    /// feature is on *and* the run asked for a profile): one per thread,
    /// parallel to `scratch`, plus the run-level repair ledger.
    prof: Vec<ThreadProf>,
    runprof: RunProf,
}

/// Frontier-mode bookkeeping threaded through the commit: a moving
/// vertex records itself and CAS-claims worklist pushes for its
/// neighbours, in commit order.
pub(crate) struct FrontierCtx<'a> {
    pub queued: &'a [AtomicU8],
    pub worklist: &'a mut Vec<VertexId>,
    pub movers: &'a mut Vec<VertexId>,
}

impl<V: HashValue> FastState<V> {
    pub(crate) fn new(
        n: usize,
        threads: usize,
        thresholds: BucketThresholds,
        block_edges: usize,
        profile: bool,
    ) -> Self {
        let threads = threads.max(1);
        let runprof = RunProf::new(profile);
        let prof = runprof.thread_recorders(threads);
        // Blocks (and their staleness stamps) exist for the claim/commit
        // path, and for the profiler's would-be repair count at 1 thread.
        let blocked = threads > 1 || prof[0].enabled();
        FastState {
            threads,
            thresholds,
            block_edges: block_edges.max(MIN_BLOCK_EDGES),
            picks: Vec::new(),
            scratch: (0..threads).map(|_| ScratchPad::new(n)).collect(),
            moved: vec![0; if blocked { n } else { 0 }],
            block_stamp: 0,
            prof,
            runprof,
        }
    }

    /// Hand over the recorded host profile (`None` when profiling was
    /// off or compiled out). Call once, after the last iteration.
    pub(crate) fn take_profile(&mut self) -> Option<HostProfData> {
        self.runprof.collect(&mut self.prof)
    }

    /// Per-block adjacency budget for this active set: at most the L2
    /// cap, but small enough to cut at least [`MIN_BLOCKS`] blocks so the
    /// serial repair path stays rare even on small graphs.
    fn budget(&self, total_edges: usize) -> usize {
        (total_edges / MIN_BLOCKS).clamp(MIN_BLOCK_EDGES, self.block_edges)
    }

    /// One LPA iteration over `candidates` (already shuffled); returns
    /// ΔN. Labels and `processed` flags are mutated exactly as a fully
    /// sequential sweep in candidate order would; in frontier mode the
    /// worklist/movers in `fr` are extended in that same deterministic
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_iteration(
        &mut self,
        g: &Csr,
        iter: u32,
        candidates: &[VertexId],
        pick_less: bool,
        labels: &[AtomicU32],
        processed: &[AtomicU8],
        mut fr: Option<FrontierCtx<'_>>,
    ) -> usize {
        if self.threads == 1 && !self.prof[0].enabled() {
            // The fused sweep: pick against the live labels, commit on
            // the spot.
            let scratch = &mut self.scratch[0];
            let mut changed = 0usize;
            for &v in candidates {
                processed[v as usize].store(1, Ordering::Relaxed);
                if let Some(c) = compute_pick(g, v, pick_less, labels, scratch) {
                    adopt(g, v, c, labels, processed, &mut fr);
                    changed += 1;
                }
            }
            return changed;
        }

        let total_edges: usize = candidates.iter().map(|&v| g.degree(v)).sum();
        let blocks = candidate_blocks(g, candidates, self.budget(total_edges));
        let mut changed = 0usize;
        let mut repaired = 0u64;
        let mut repair_blocks = 0u32;
        let mut commit_ns = 0u64;
        if self.threads == 1 {
            // Profiled single-thread run: the same fused sweep, cut into
            // the blocks a multi-thread run would use, so the per-bucket
            // work and the would-be repairs (the `IterRepairStats`) match
            // any thread count and the block spans tile the wall time.
            let lead = &mut self.scratch[0];
            let tp = &mut self.prof[0];
            for (bi, block) in blocks.iter().enumerate() {
                tp.begin_span();
                let mut work = [(0u64, 0u64); 3];
                for &v in &candidates[block.clone()] {
                    let d = g.degree(v);
                    let w = &mut work[bucket_of(d, self.thresholds)];
                    w.0 += 1;
                    w.1 += d as u64;
                }
                for (k, &(vertices, edges)) in work.iter().enumerate() {
                    if vertices > 0 {
                        tp.count_chunk(k, vertices, edges);
                    }
                }
                self.block_stamp += 1;
                let (c, rep) = commit_block(
                    g,
                    candidates,
                    block.clone(),
                    None,
                    pick_less,
                    labels,
                    processed,
                    lead,
                    &mut self.moved,
                    self.block_stamp,
                    &mut fr,
                );
                changed += c;
                repaired += rep;
                repair_blocks += (rep > 0) as u32;
                commit_ns += tp.end_span(SpanKind::Commit, iter, bi as u32);
            }
        } else {
            let buckets: Vec<[Vec<usize>; 3]> = blocks
                .iter()
                .map(|b| {
                    let mut bk = bucket_partition(g, &candidates[b.clone()], self.thresholds);
                    for list in bk.iter_mut() {
                        for i in list.iter_mut() {
                            *i += b.start;
                        }
                    }
                    bk
                })
                .collect();
            if self.picks.len() < candidates.len() {
                self.picks
                    .resize_with(candidates.len(), || AtomicU32::new(NO_MOVE));
            }
            let t = self.threads;
            let cursors: Vec<[AtomicUsize; 3]> =
                blocks.iter().map(|_| Default::default()).collect();
            let barrier = Barrier::new(t);
            let picks = &self.picks[..];
            let blocks = &blocks[..];
            let buckets = &buckets[..];
            let cursors = &cursors[..];
            let barrier = &barrier;
            let moved = &mut self.moved;
            let block_stamp = &mut self.block_stamp;
            let (lead, rest) = self.scratch.split_at_mut(1);
            let lead = &mut lead[0];
            let (plead, prest) = self.prof.split_at_mut(1);
            let plead = &mut plead[0];
            std::thread::scope(|s| {
                for (scratch, tp) in rest.iter_mut().zip(prest.iter_mut()) {
                    s.spawn(move || {
                        for bi in 0..blocks.len() {
                            barrier.wait();
                            tp.begin_span();
                            compute_block(
                                g,
                                candidates,
                                &buckets[bi],
                                &cursors[bi],
                                picks,
                                pick_less,
                                labels,
                                scratch,
                                tp,
                            );
                            tp.end_span(SpanKind::Compute, iter, bi as u32);
                            barrier.wait();
                        }
                    });
                }
                for (bi, block) in blocks.iter().enumerate() {
                    barrier.wait();
                    plead.begin_span();
                    compute_block(
                        g,
                        candidates,
                        &buckets[bi],
                        &cursors[bi],
                        picks,
                        pick_less,
                        labels,
                        lead,
                        plead,
                    );
                    plead.end_span(SpanKind::Compute, iter, bi as u32);
                    // Workers park at the next block's start barrier
                    // while the lead commits, so no thread reads labels
                    // concurrently with the sequential commit below.
                    barrier.wait();
                    *block_stamp += 1;
                    plead.begin_span();
                    let (c, rep) = commit_block(
                        g,
                        candidates,
                        block.clone(),
                        Some(picks),
                        pick_less,
                        labels,
                        processed,
                        lead,
                        moved,
                        *block_stamp,
                        &mut fr,
                    );
                    changed += c;
                    repaired += rep;
                    repair_blocks += (rep > 0) as u32;
                    commit_ns += plead.end_span(SpanKind::Commit, iter, bi as u32);
                }
            });
        }
        self.runprof.record_iter(
            iter,
            blocks.len() as u32,
            candidates.len() as u64,
            repaired,
            repair_blocks,
            changed as u64,
            commit_ns,
        );
        changed
    }
}

/// Claim-and-compute loop for one block: threads pull per-bucket chunks
/// off shared cursors until the block is drained. Every candidate index
/// is computed by exactly one thread; the stored pick is independent of
/// which thread that is (labels are frozen for the whole block).
#[allow(clippy::too_many_arguments)]
fn compute_block<V: HashValue>(
    g: &Csr,
    candidates: &[VertexId],
    buckets: &[Vec<usize>; 3],
    cursors: &[AtomicUsize; 3],
    picks: &[AtomicU32],
    pick_less: bool,
    labels: &[AtomicU32],
    scratch: &mut ScratchPad<V>,
    tp: &mut ThreadProf,
) {
    for (k, idxs) in buckets.iter().enumerate() {
        let chunk = CHUNK_SIZES[k];
        loop {
            let start = tp.claim(&cursors[k], k, chunk, idxs.len());
            if start >= idxs.len() {
                break;
            }
            let end = (start + chunk).min(idxs.len());
            for &i in &idxs[start..end] {
                let pick = compute_pick(g, candidates[i], pick_less, labels, scratch);
                picks[i].store(pick.unwrap_or(NO_MOVE), Ordering::Relaxed);
            }
            if tp.enabled() {
                let edges = idxs[start..end]
                    .iter()
                    .map(|&i| g.degree(candidates[i]) as u64)
                    .sum::<u64>();
                tp.count_chunk(k, (end - start) as u64, edges);
            }
        }
    }
}

/// Compute one vertex's pick against the current labels: accumulate
/// neighbour label weights into the dense scratch in CSR order, then
/// take the first maximum in first-touched order (a strictly-greater
/// scan of `touched`). The pick is a pure function of the label state,
/// so it cannot depend on bucket or chunk scheduling.
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

/// Commit `v`'s move to label `c`: store it, clear the neighbours'
/// `processed` flags, and — in frontier mode — record the mover and
/// CAS-claim the neighbours' worklist pushes.
fn adopt(
    g: &Csr,
    v: VertexId,
    c: VertexId,
    labels: &[AtomicU32],
    processed: &[AtomicU8],
    fr: &mut Option<FrontierCtx<'_>>,
) {
    labels[v as usize].store(c, Ordering::Relaxed);
    match fr {
        Some(ctx) => {
            ctx.movers.push(v);
            for &j in g.neighbor_ids(v) {
                processed[j as usize].store(0, Ordering::Relaxed);
                if ctx.queued[j as usize].swap(1, Ordering::Relaxed) == 0 {
                    ctx.worklist.push(j);
                }
            }
        }
        None => {
            for &j in g.neighbor_ids(v) {
                processed[j as usize].store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Sequentially commit one block in candidate order (lead thread only),
/// reproducing the fully sequential asynchronous sweep exactly: each
/// candidate is marked processed, its speculative pick is used unless a
/// neighbour moved earlier in this block (in which case the pick is
/// recomputed against the live labels), and a move is adopted on the
/// spot. With `picks == None` every pick is computed live and stale
/// candidates are only counted.
///
/// Returns `(ΔN, stale candidates)`. The stale count depends only on the
/// block partition and commit order — both deterministic — so it is
/// identical at any thread count.
#[allow(clippy::too_many_arguments)]
fn commit_block<V: HashValue>(
    g: &Csr,
    candidates: &[VertexId],
    block: Range<usize>,
    picks: Option<&[AtomicU32]>,
    pick_less: bool,
    labels: &[AtomicU32],
    processed: &[AtomicU8],
    scratch: &mut ScratchPad<V>,
    moved: &mut [u64],
    block_stamp: u64,
    fr: &mut Option<FrontierCtx<'_>>,
) -> (usize, u64) {
    let mut changed = 0usize;
    let mut repaired = 0u64;
    for i in block {
        let v = candidates[i];
        processed[v as usize].store(1, Ordering::Relaxed);
        let stale = g
            .neighbor_ids(v)
            .iter()
            .any(|&j| moved[j as usize] == block_stamp);
        repaired += stale as u64;
        let pick = match picks {
            Some(p) if !stale => {
                let p = p[i].load(Ordering::Relaxed);
                (p != NO_MOVE).then_some(p)
            }
            _ => compute_pick(g, v, pick_less, labels, scratch),
        };
        if let Some(c) = pick {
            adopt(g, v, c, labels, processed, fr);
            moved[v as usize] = block_stamp;
            changed += 1;
        }
    }
    (changed, repaired)
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
}

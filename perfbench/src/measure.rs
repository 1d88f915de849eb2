//! One benchmark run over the files a workload's generator wrote.
//!
//! The run drives the public functions `nulpa detect` uses, in its order:
//! the text reader and `GraphBuilder::build` (load), then `lpa_native`;
//! every workload then replays its edge batches through `lpa_dynamic`.
//!
//! Per-call times vary by 11–17% on a small shared host, so every timing
//! is the median of repeated calls within the run. Untimed warm-up calls
//! come first; each round then calls every timed function once, in a
//! fixed order, on identical work, so a slow stretch of the host hits
//! all metrics alike. Detect and update times also enter as per-round
//! ratios to the round's `gve_lpa` sweep on the same graph, which cancel
//! that drift. The traced pass (`--trace 1`) runs after the rounds and
//! feeds no end-to-end number.

use crate::checks::Checks;
use crate::metrics;
use crate::stats::Summary;
use crate::workload::{read_batches, InputFiles, Workload};
use nulpa_baselines::{gve_lpa, GveLpaConfig};
use nulpa_core::hostprof::{HostProfData, SpanKind};
use nulpa_core::{
    apply_batch, bucket_partition, frontier, lpa_dynamic, lpa_native, lpa_native_from_state,
    lpa_native_hostprof, BucketThresholds, EdgeBatch, LpaConfig,
};
use nulpa_graph::io::{read_binary, read_edge_list};
use nulpa_graph::{Csr, GraphBuilder, VertexId};
use nulpa_metrics::modularity;
use nulpa_telemetry::alloc::AllocSnapshot;
use nulpa_telemetry::{alloc_snapshot, heap_stats};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// Rounds made even when `--seconds` has run out, so the every-round
/// checks always compare at least two rounds.
const MIN_ROUNDS: usize = 2;
/// Profiled runs per thread count in the traced pass.
const TRACE_REPS: usize = 5;
const MIB: f64 = (1u64 << 20) as f64;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload whose inputs the directory holds.
    pub workload: Workload,
    /// Seed the inputs were generated from (reported in the manifest).
    pub seed: u64,
    /// How long the timed rounds run.
    pub seconds: f64,
    /// Per-layer run (`true`) or end-to-end run (`false`).
    pub trace: bool,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks made.
    pub checks: Checks,
    /// Metric values by name: exactly the list [`metrics::declared`]
    /// gives for the run's mode.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every value the run sampled (times, and the traced pass's
    /// imbalance and CAS retries), with its spread.
    pub samples: BTreeMap<&'static str, Summary>,
    /// Input facts: sizes, degree-bucket shares, host threads.
    pub manifest: BTreeMap<&'static str, f64>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Allocation calls and bytes between two snapshots.
fn alloc_delta(a: AllocSnapshot, b: AllocSnapshot) -> (f64, f64) {
    (
        (b.alloc_count - a.alloc_count) as f64,
        (b.total_allocated_bytes - a.total_allocated_bytes) as f64,
    )
}

/// Load a text edge list the way `nulpa detect` does.
fn load(path: &Path) -> Result<Csr, String> {
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_edge_list(BufReader::new(f), None, true).map_err(|e| format!("{}: {e}", path.display()))
}

/// One replay of the batch stream from the same start graph and labels.
struct Stream {
    graph: Csr,
    labels: Vec<VertexId>,
    batch_secs: Vec<f64>,
}

fn replay(g: &Csr, labels: &[VertexId], batches: &[EdgeBatch], cfg: &LpaConfig) -> Stream {
    let mut graph = g.clone();
    let mut labels = labels.to_vec();
    let mut batch_secs = Vec::with_capacity(batches.len());
    for b in batches {
        let ((g2, r), secs) = timed(|| lpa_dynamic(&graph, &labels, b, cfg));
        batch_secs.push(secs);
        graph = g2;
        labels = r.labels;
    }
    Stream {
        graph,
        labels,
        batch_secs,
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Where the lead thread's time went in one profiled run. The four parts
/// tile `[0, wall_ns]` of the lead's timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeadBreakdown {
    /// Inside compute spans.
    pub compute_ns: u64,
    /// Inside commit spans.
    pub commit_ns: u64,
    /// Before each iteration's first span, and after the last span: the
    /// serial candidate filter, shuffle, blocking and bucketing.
    pub prologue_ns: u64,
    /// Between spans of one iteration: waiting on the block barriers.
    pub idle_ns: u64,
}

impl LeadBreakdown {
    /// Sum of the four parts.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns + self.commit_ns + self.prologue_ns + self.idle_ns
    }
}

/// Split the lead's timeline into [`LeadBreakdown`] parts; `None` when
/// its spans overlap or run past `wall_ns`, i.e. cannot tile it.
pub fn lead_breakdown(p: &HostProfData) -> Option<LeadBreakdown> {
    let mut b = LeadBreakdown::default();
    let mut cursor = 0u64;
    let mut iter = None;
    for s in &p.per_thread.first()?.spans {
        let gap = s.start_ns.checked_sub(cursor)?;
        if iter == Some(s.iter) {
            b.idle_ns += gap;
        } else {
            b.prologue_ns += gap;
            iter = Some(s.iter);
        }
        match s.kind {
            SpanKind::Compute => b.compute_ns += s.dur_ns,
            SpanKind::Commit => b.commit_ns += s.dur_ns,
        }
        cursor = s.start_ns + s.dur_ns;
    }
    b.prologue_ns += p.wall_ns.checked_sub(cursor)?;
    Some(b)
}

/// Named sample lists.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn summaries(&self) -> BTreeMap<&'static str, Summary> {
        self.0
            .iter()
            .filter_map(|(&k, v)| Some((k, Summary::of(v)?)))
            .collect()
    }
}

/// Degree-bucket facts of the first iteration's candidates (every
/// vertex) at the default thresholds.
fn manifest(
    g: &Csr,
    opts: &Opts,
    file_bytes: u64,
    batches: &[EdgeBatch],
) -> BTreeMap<&'static str, f64> {
    let all: Vec<VertexId> = g.vertices().collect();
    let buckets = bucket_partition(g, &all, BucketThresholds::default());
    let n = g.num_vertices().max(1) as f64;
    let m = g.num_edges().max(1) as f64;
    let edges = |b: &[usize]| b.iter().map(|&i| g.degree(all[i])).sum::<usize>() as f64;
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let first = batches.first();
    BTreeMap::from([
        ("seed", opts.seed as f64),
        ("vertices", g.num_vertices() as f64),
        ("edges", g.num_edges() as f64),
        ("max_degree", g.max_degree() as f64),
        ("file_bytes", file_bytes as f64),
        ("share_low", buckets[0].len() as f64 / n),
        ("share_mid", buckets[1].len() as f64 / n),
        ("share_high", buckets[2].len() as f64 / n),
        ("edge_share_low", edges(&buckets[0]) / m),
        ("edge_share_mid", edges(&buckets[1]) / m),
        ("edge_share_high", edges(&buckets[2]) / m),
        ("batches", batches.len() as f64),
        (
            "batch_insertions",
            first.map_or(0, |b| b.insertions.len()) as f64,
        ),
        (
            "batch_deletions",
            first.map_or(0, |b| b.deletions.len()) as f64,
        ),
        ("hw_threads", hw as f64),
    ])
}

/// Run the benchmark over the inputs in `dir`.
///
/// The heap high-water mark cannot be reset, so the phases run in this
/// order: the binary reference CSR (no larger than the graph itself),
/// then warm-up detects, and only then the text loads and the batch
/// stream, whose transient edge lists would otherwise mask detect's peak.
pub fn measure(dir: &Path, opts: &Opts) -> Result<Outcome, String> {
    let files = InputFiles::in_dir(dir);
    let cfg1 = LpaConfig::default().with_threads(1);
    let cfg2 = LpaConfig::default().with_threads(2);
    let mut out = Outcome::default();
    let checks = &mut out.checks;

    let bin =
        File::open(&files.graph_bin).map_err(|e| format!("{}: {e}", files.graph_bin.display()))?;
    let g_ref = read_binary(BufReader::new(bin)).map_err(|e| e.to_string())?;
    let ref1 = lpa_native(&g_ref, &cfg1);
    let ref2 = lpa_native(&g_ref, &cfg2);
    let peak_heap = heap_stats()
        .ok_or("the counting allocator is not installed")?
        .peak_bytes;
    checks.valid_labels("detect t1", &g_ref, &ref1.labels);
    checks.same_labels("detect t2 vs t1", &ref2.labels, &ref1.labels);
    drop(ref2);

    let batches = read_batches(&files.batches, g_ref.num_vertices())?;
    let stream1 = replay(&g_ref, &ref1.labels, &batches, &cfg1);
    let stream2 = replay(&g_ref, &ref1.labels, &batches, &cfg2);
    checks.valid_labels("stream t1", &stream1.graph, &stream1.labels);
    checks.same_labels("stream t2 vs t1", &stream2.labels, &stream1.labels);
    drop(stream2);
    let q = modularity(&stream1.graph, &stream1.labels);

    let file_bytes = std::fs::metadata(&files.graph_txt)
        .map_err(|e| e.to_string())?
        .len();
    out.manifest = manifest(&g_ref, opts, file_bytes, &batches);
    let proto = opts.trace.then(|| {
        GraphBuilder::new(g_ref.num_vertices()).add_edges(
            g_ref
                .vertices()
                .flat_map(|u| g_ref.neighbors(u).map(move |(v, w)| (u, v, w))),
        )
    });
    let g = load(&files.graph_txt)?;
    checks.same_csr("loaded CSR (warm-up)", &g, &g_ref);
    drop(g);

    let mut s = Samples::default();
    let (mut load_alloc, mut build_alloc, mut detect_alloc) = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0));
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds {
        round += 1;
        let a0 = alloc_snapshot();
        let (g, secs) = timed(|| load(&files.graph_txt));
        load_alloc = alloc_delta(a0, alloc_snapshot());
        let mut g = g?;
        s.push("setup_s", secs);
        if !checks.same_csr("loaded CSR", &g, &g_ref) {
            // counted as failed; the round goes on with the reference
            g = g_ref.clone();
        }

        if let Some(proto) = &proto {
            let b = proto.clone();
            let a0 = alloc_snapshot();
            let (built, secs) = timed(|| b.build());
            build_alloc = alloc_delta(a0, alloc_snapshot());
            s.push("builder.build_s", secs);
            checks.same_csr("built CSR", &built, &g_ref);
        }

        let a0 = alloc_snapshot();
        let (r1, t1) = timed(|| lpa_native(&g, &cfg1));
        detect_alloc = alloc_delta(a0, alloc_snapshot());
        let (r2, t2) = timed(|| lpa_native(&g, &cfg2));
        checks.same_labels("detect t1 vs first round", &r1.labels, &ref1.labels);
        checks.same_labels("detect t2 vs t1", &r2.labels, &r1.labels);
        let (_, gve) = timed(|| gve_lpa(&g, &GveLpaConfig::default()));
        let st = replay(&g, &r1.labels, &batches, &cfg1);
        let update = mean(&st.batch_secs);
        checks.same_labels("stream vs first round", &st.labels, &stream1.labels);

        s.push("detect_s.t1", t1);
        s.push("detect_s.t2", t2);
        s.push("baselines.gve_lpa_s", gve);
        s.push("update_s", update);
        // The same round's reference sweep cancels host drift, which
        // moves every timing of a round alike (README.md).
        s.push("detect_vs_gve.t1", t1 / gve);
        s.push("detect_vs_gve.t2", t2 / gve);
        s.push("update_vs_gve", update / gve);
    }

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    if opts.trace {
        traced_pass(
            &g_ref,
            &ref1.labels,
            &batches,
            &stream1.labels,
            checks,
            &mut s,
            &mut m,
        )?;
        let t = s.summaries();
        let med = |k: &str| t[k].median;
        m.insert("io.self_s", med("setup_s") - med("builder.build_s"));
        m.insert("io.allocs", load_alloc.0 - build_alloc.0);
        m.insert("io.bytes", load_alloc.1 - build_alloc.1);
        m.insert("builder.build_s", med("builder.build_s"));
        m.insert("builder.allocs", build_alloc.0);
        for k in ["detect_s.t1", "detect_s.t2", "update_s"] {
            m.insert(k, med(k));
        }
        m.insert("native.iterations", ref1.iterations as f64);
        m.insert(
            "native.active",
            ref1.scanned_per_iter.iter().sum::<usize>() as f64,
        );
        m.insert(
            "native.changed",
            ref1.changed_per_iter.iter().sum::<usize>() as f64,
        );
        m.insert(
            "native.mevps.t1",
            m["native.edge_visits"] / med("detect_s.t1") / 1e6,
        );
        m.insert(
            "native.mevps.t2",
            m["native.edge_visits"] / med("detect_s.t2") / 1e6,
        );
        m.insert("native.allocs.t1", detect_alloc.0);
        m.insert("native.alloc_mib.t1", detect_alloc.1 / MIB);
        m.insert("baselines.gve_lpa_s", med("baselines.gve_lpa_s"));
        m.insert(
            "trace.overhead.t1",
            med("traced_s.t1") / med("untraced_s.t1"),
        );
        m.insert(
            "trace.overhead.t2",
            med("traced_s.t2") / med("untraced_s.t2"),
        );
        for k in [
            "fastpath.compute_s.t1",
            "fastpath.compute_s.t2",
            "fastpath.commit_s.t1",
            "fastpath.commit_s.t2",
            "fastpath.prologue_s.t1",
            "fastpath.prologue_s.t2",
            "fastpath.lead_idle_s.t1",
            "fastpath.lead_idle_s.t2",
            "fastpath.worker_idle_s.t2",
            "fastpath.unattributed_s.t1",
            "fastpath.unattributed_s.t2",
            "fastpath.imbalance.t2",
            "fastpath.cas_retries.t2",
            "dynamic.apply_s",
            "dynamic.lpa_s",
        ] {
            m.insert(k, med(k));
        }
    } else {
        let t = s.summaries();
        for k in [
            "setup_s",
            "detect_vs_gve.t1",
            "detect_vs_gve.t2",
            "update_vs_gve",
        ] {
            m.insert(k, t[k].median);
        }
        m.insert("modularity", q);
        m.insert("peak_heap_mib", peak_heap as f64 / MIB);
    }
    out.samples = s.summaries();
    out.manifest.insert("rounds", round as f64);

    let got: Vec<&str> = m.keys().copied().collect();
    let mut want: Vec<&str> = metrics::declared(opts.trace)
        .iter()
        .map(|&(k, _)| k)
        .collect();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "metric set {got:?} differs from the declared {want:?}"
        ));
    }
    out.metrics = m;
    Ok(out)
}

/// Sample names of one profiled run, at 1 and at 2 threads.
const TRACED_SAMPLES: [[&str; 7]; 2] = [
    [
        "fastpath.compute_s.t1",
        "fastpath.commit_s.t1",
        "fastpath.prologue_s.t1",
        "fastpath.lead_idle_s.t1",
        "fastpath.unattributed_s.t1",
        "traced_s.t1",
        "untraced_s.t1",
    ],
    [
        "fastpath.compute_s.t2",
        "fastpath.commit_s.t2",
        "fastpath.prologue_s.t2",
        "fastpath.lead_idle_s.t2",
        "fastpath.unattributed_s.t2",
        "traced_s.t2",
        "untraced_s.t2",
    ],
];

/// The per-layer pass: `lpa_native_hostprof` at 1 and 2 threads, each
/// after an untraced `lpa_native` twin, then the dynamic steps timed one
/// by one. Samples go into `s` (times) and `m` (counts, which repeat
/// exactly).
fn traced_pass(
    g: &Csr,
    labels: &[VertexId],
    batches: &[EdgeBatch],
    stream_labels: &[VertexId],
    checks: &mut Checks,
    s: &mut Samples,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let secs = |ns: u64| ns as f64 * 1e-9;
    for _ in 0..TRACE_REPS {
        let mut schedules = Vec::new();
        for threads in [1, 2] {
            let cfg = LpaConfig::default().with_threads(threads);
            // The untraced twin runs right before, so host drift between
            // the rounds and this pass does not enter the overhead ratio.
            let (_, untraced) = timed(|| lpa_native(g, &cfg));
            let t = Instant::now();
            let (r, prof) = lpa_native_hostprof(g, &cfg);
            let wall_ns = t.elapsed().as_nanos() as u64;
            let p = prof.ok_or("lpa_native_hostprof returned no profile")?;
            checks.same_labels("traced vs untraced detect", &r.labels, labels);
            let bd = lead_breakdown(&p);
            checks.check(bd.is_some_and(|b| b.total_ns() == p.wall_ns), || {
                format!("t{threads}: lead spans do not tile the profiled wall time")
            });
            checks.check(p.wall_ns <= wall_ns, || {
                format!("t{threads}: profiled wall exceeds the call's wall time")
            });
            let bd = bd.unwrap_or_default();
            let committed: Vec<usize> = p.iters.iter().map(|i| i.committed as usize).collect();
            checks.check(committed == r.changed_per_iter, || {
                format!("t{threads}: profiled commits differ from the ΔN series")
            });
            if threads == 1 {
                let edges: u64 = p.bucket_totals().iter().map(|b| b.edges).sum();
                m.insert("native.edge_visits", edges as f64);
                m.insert(
                    "fastpath.blocks",
                    p.iters.iter().map(|i| i.blocks as f64).sum(),
                );
                m.insert(
                    "fastpath.repaired",
                    p.iters.iter().map(|i| i.repaired as f64).sum(),
                );
                m.insert("fastpath.repair_rate", p.repair_rate());
            } else {
                let worker_busy: u64 = p.per_thread.iter().skip(1).map(|t| t.busy_ns).sum();
                let workers = p.per_thread.len().saturating_sub(1) as u64;
                s.push(
                    "fastpath.worker_idle_s.t2",
                    secs((workers * p.wall_ns).saturating_sub(worker_busy)),
                );
                s.push("fastpath.imbalance.t2", p.imbalance());
                s.push("fastpath.cas_retries.t2", p.cas_retries() as f64);
            }
            let [compute, commit, prologue, idle, unattributed, traced, twin] =
                TRACED_SAMPLES[threads - 1];
            s.push(compute, secs(bd.compute_ns));
            s.push(commit, secs(bd.commit_ns));
            s.push(prologue, secs(bd.prologue_ns));
            s.push(idle, secs(bd.idle_ns));
            s.push(unattributed, secs(wall_ns.saturating_sub(p.wall_ns)));
            s.push(traced, secs(wall_ns));
            s.push(twin, untraced);
            schedules.push(p.iters);
        }
        let same = schedules[0].len() == schedules[1].len()
            && schedules[0]
                .iter()
                .zip(&schedules[1])
                .all(|(a, b)| a.same_schedule(b));
        checks.check(same, || "repair schedule differs between t1 and t2".into());
    }

    let cfg = LpaConfig::default().with_threads(1);
    let per_batch = batches.len().max(1) as f64;
    for _ in 0..TRACE_REPS {
        let mut graph = g.clone();
        let mut cur = labels.to_vec();
        let (mut apply_s, mut lpa_s) = (0.0, 0.0);
        let (mut seeds, mut iterations, mut changed) = (0usize, 0u32, 0usize);
        for b in batches {
            let (g2, t) = timed(|| apply_batch(&graph, b));
            apply_s += t;
            let seed = frontier(b, &cur);
            let init = cur.clone();
            let (r, t) = timed(|| lpa_native_from_state(&g2, &cfg, init, &seed));
            lpa_s += t;
            seeds += seed.len();
            iterations += r.iterations;
            changed += r.total_changes();
            graph = g2;
            cur = r.labels;
        }
        checks.same_labels("dynamic steps vs lpa_dynamic", &cur, stream_labels);
        s.push("dynamic.apply_s", apply_s / per_batch);
        s.push("dynamic.lpa_s", lpa_s / per_batch);
        m.insert("dynamic.seed", seeds as f64 / per_batch);
        m.insert("dynamic.iterations", iterations as f64 / per_batch);
        m.insert("dynamic.changed", changed as f64 / per_batch);
    }
    Ok(())
}

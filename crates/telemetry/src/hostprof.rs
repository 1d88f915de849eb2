//! Host-parallel execution observatory: aggregation, rendering, and the
//! regression gate over [`nulpa_core::HostProfData`].
//!
//! `nulpa-core`'s `hostprof` module collects the raw per-thread
//! timelines, per-bucket work counters, and per-iteration schedule
//! statistics of a native sweep; this module is the reporting side:
//!
//! * [`summarize`] folds one run's raw data into a [`HostRunReport`] —
//!   per-thread busy time/utilization/span percentiles, per-bucket
//!   totals, imbalance (max/mean busy), and the repair rate;
//! * [`render_report`] formats reports as the text tables behind
//!   `nulpa profile --host`, [`report_json`] as the `--json` document;
//! * [`write_chrome_trace`] exports the raw span timelines as a
//!   Chrome/Perfetto trace with one track per worker thread;
//! * [`gate_row`] / [`GATE`] are the `results/hostprof_baseline.json`
//!   regression gate, one row per graph × thread count (see [`GATE`]);
//! * [`record_registry`] mirrors the headline numbers into the global
//!   metrics [`Registry`] so Prometheus/JSONL snapshots carry them.
//!
//! Everything here consumes the plain data the recorder inside
//! `nulpa-core` collects.

use crate::registry::{global, Registry};
use nulpa_core::{BucketCounters, HostProfData, IterRepairStats, SpanKind, BUCKET_NAMES};
use nulpa_obs::export::ChromeTraceSink;
use nulpa_obs::gate::{Gate, Row, Rule};
use nulpa_obs::json::{escape, fmt_f64};
use nulpa_obs::sink::{TraceSink, Value};
use nulpa_obs::{Hist, Percentiles};
use std::io::Write;

/// The hostprof gate. Iterations must match exactly (the schedule is
/// deterministic at any thread count); the repair rate may rise by
/// `max(10%, 0.01)`; imbalance may rise by `max(25%, 0.5)`, and only
/// gates when the run's mean per-thread busy time exceeds 50 ms —
/// below that, scheduler noise swamps the signal on small graphs and
/// single-core hosts.
pub const GATE: Gate = Gate {
    name: "hostprof",
    rules: &[
        Rule::exact("iterations"),
        Rule::lower("repair_rate", 0.10, 0.01),
        Rule::lower("imbalance", 0.25, 0.5).guarded("busy_ms_mean", 50.0),
    ],
};

/// One thread's row in the utilization table.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadReport {
    /// Thread index (0 is the lead thread).
    pub tid: usize,
    /// Total time inside spans, milliseconds.
    pub busy_ms: f64,
    /// `busy / wall` — fraction of the run this thread spent working.
    pub utilization: f64,
    /// Spans recorded.
    pub spans: usize,
    /// Span-duration percentiles, nanoseconds.
    pub span_ns: Percentiles,
    /// The CPU the thread ran on when its lane finished, if known.
    pub cpu: Option<u32>,
    /// Time the thread waited on a run queue during the run,
    /// milliseconds. Near `busy_ms`, the thread shared its CPU.
    pub runq_wait_ms: f64,
}

/// Aggregated view of one profiled `lpa_native` run.
#[derive(Clone, Debug, PartialEq)]
pub struct HostRunReport {
    /// Graph label the run was profiled on.
    pub graph: String,
    /// Resolved thread count.
    pub threads: usize,
    /// Wall time, milliseconds.
    pub wall_ms: f64,
    /// Iterations committed.
    pub iterations: usize,
    /// Max/mean per-thread busy time (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Fraction of picks recomputed at commit (0 by construction).
    pub repair_rate: f64,
    /// Mean per-thread busy time, milliseconds.
    pub busy_ms_mean: f64,
    /// Total work-claim CAS retries (0: nothing is claimed).
    pub cas_retries: u64,
    /// Per-thread utilization rows.
    pub per_thread: Vec<ThreadReport>,
    /// Per-bucket work totals, indexed like [`BUCKET_NAMES`].
    pub buckets: [BucketCounters; 3],
    /// Per-iteration schedule statistics (deterministic fields).
    pub iters: Vec<IterRepairStats>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Fold one run's raw profile into a report.
pub fn summarize(graph: &str, data: &HostProfData) -> HostRunReport {
    let wall_ns = data.wall_ns.max(1);
    let per_thread = data
        .per_thread
        .iter()
        .enumerate()
        .map(|(tid, t)| {
            let mut h = Hist::new();
            for s in &t.spans {
                h.record(s.dur_ns);
            }
            ThreadReport {
                tid,
                busy_ms: ms(t.busy_ns),
                utilization: t.busy_ns as f64 / wall_ns as f64,
                spans: t.spans.len(),
                span_ns: h.percentiles(),
                cpu: t.cpu,
                runq_wait_ms: ms(t.runq_wait_ns),
            }
        })
        .collect();
    HostRunReport {
        graph: graph.to_string(),
        threads: data.threads,
        wall_ms: ms(data.wall_ns),
        iterations: data.iters.len(),
        imbalance: data.imbalance(),
        repair_rate: data.repair_rate(),
        busy_ms_mean: data.busy_ns_mean() / 1e6,
        cas_retries: data.cas_retries(),
        per_thread,
        buckets: data.bucket_totals(),
        iters: data.iters.clone(),
    }
}

impl HostRunReport {
    /// A CPU that two of the run's threads finished on, if any: those
    /// lanes took turns on one core instead of running side by side.
    pub fn shared_cpu(&self) -> Option<u32> {
        let mut cpus: Vec<u32> = self.per_thread.iter().filter_map(|t| t.cpu).collect();
        cpus.sort_unstable();
        cpus.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    }
}

/// Render reports as the `nulpa profile --host` text tables.
pub fn render_report(reports: &[HostRunReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format!(
            "host profile: {}  threads={}  wall {:.2} ms  iters {}\n",
            r.graph, r.threads, r.wall_ms, r.iterations
        ));
        out.push_str(&format!(
            "  imbalance {:.2}x   repair rate {:.2}%\n",
            r.imbalance,
            r.repair_rate * 100.0
        ));
        out.push_str(
            "  thread      busy_ms   util%   spans   p50_us   p95_us   max_us  cpu  runq_ms\n",
        );
        for t in &r.per_thread {
            let label = if t.tid == 0 {
                "0 (lead)".to_string()
            } else {
                t.tid.to_string()
            };
            let cpu = t.cpu.map_or("-".to_string(), |c| c.to_string());
            out.push_str(&format!(
                "  {label:<10}{:>9.2}{:>8.1}{:>8}{:>9}{:>9}{:>9}{cpu:>5}{:>9.2}\n",
                t.busy_ms,
                t.utilization * 100.0,
                t.spans,
                t.span_ns.p50 / 1_000,
                t.span_ns.p95 / 1_000,
                t.span_ns.max / 1_000,
                t.runq_wait_ms,
            ));
        }
        if let Some(cpu) = r.shared_cpu() {
            out.push_str(&format!(
                "  warning: lanes shared CPU {cpu}; their times are not a parallel run's\n"
            ));
        }
        out.push_str("  bucket   vertices      edges\n");
        for (name, b) in BUCKET_NAMES.iter().zip(r.buckets.iter()) {
            out.push_str(&format!("  {name:<7}{:>11}{:>11}\n", b.vertices, b.edges));
        }
        out.push_str("  schedule (iter: moves/candidates in blocks):\n");
        for chunk in r.iters.chunks(4) {
            out.push_str("   ");
            for i in chunk {
                out.push_str(&format!(
                    " {}: {}/{} in {}",
                    i.iter, i.committed, i.candidates, i.blocks
                ));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

fn report_obj(r: &HostRunReport) -> String {
    let threads: Vec<String> = r
        .per_thread
        .iter()
        .map(|t| {
            format!(
                "{{\"tid\":{},\"busy_ms\":{},\"utilization\":{},\"spans\":{},\
                 \"p50_ns\":{},\"p95_ns\":{},\"max_ns\":{},\"cpu\":{},\"runq_wait_ms\":{}}}",
                t.tid,
                fmt_f64(t.busy_ms),
                fmt_f64(t.utilization),
                t.spans,
                t.span_ns.p50,
                t.span_ns.p95,
                t.span_ns.max,
                t.cpu.map_or("null".to_string(), |c| c.to_string()),
                fmt_f64(t.runq_wait_ms)
            )
        })
        .collect();
    let buckets: Vec<String> = BUCKET_NAMES
        .iter()
        .zip(r.buckets.iter())
        .map(|(name, b)| {
            format!(
                "{{\"name\":{},\"vertices\":{},\"edges\":{},\"chunks\":{},\"cas_retries\":{}}}",
                escape(name),
                b.vertices,
                b.edges,
                b.chunks,
                b.cas_retries
            )
        })
        .collect();
    let iters: Vec<String> = r
        .iters
        .iter()
        .map(|i| {
            format!(
                "{{\"iter\":{},\"blocks\":{},\"candidates\":{},\"repaired\":{},\
                 \"repair_blocks\":{},\"committed\":{},\"commit_ms\":{}}}",
                i.iter,
                i.blocks,
                i.candidates,
                i.repaired,
                i.repair_blocks,
                i.committed,
                fmt_f64(i.commit_ns as f64 / 1e6)
            )
        })
        .collect();
    format!(
        "{{\"graph\":{},\"threads\":{},\"wall_ms\":{},\"iterations\":{},\
         \"imbalance\":{},\"repair_rate\":{},\"busy_ms_mean\":{},\"cas_retries\":{},\
         \"shared_cpu\":{},\"per_thread\":[{}],\"buckets\":[{}],\"iters\":[{}]}}",
        escape(&r.graph),
        r.threads,
        fmt_f64(r.wall_ms),
        r.iterations,
        fmt_f64(r.imbalance),
        fmt_f64(r.repair_rate),
        fmt_f64(r.busy_ms_mean),
        r.cas_retries,
        r.shared_cpu().map_or("null".to_string(), |c| c.to_string()),
        threads.join(","),
        buckets.join(","),
        iters.join(",")
    )
}

/// Full JSON document for `nulpa profile --host --json`; `meta` is the
/// caller's provenance object (pass `"{}"` for none).
pub fn report_json(meta_json: &str, reports: &[HostRunReport]) -> String {
    let runs: Vec<String> = reports.iter().map(report_obj).collect();
    format!(
        "{{\"schema\":\"hostprof-report-v1\",\"meta\":{meta_json},\"runs\":[{}]}}\n",
        runs.join(",")
    )
}

/// A report's gate row, keyed `"<graph> threads=<n>"`.
pub fn gate_row(r: &HostRunReport) -> Row {
    Row::new(format!("{} threads={}", r.graph, r.threads))
        .with("iterations", r.iterations as f64)
        .with("repair_rate", r.repair_rate)
        .with("imbalance", r.imbalance)
        .with("busy_ms_mean", r.busy_ms_mean)
}

/// Export one run's raw span timelines as a Chrome/Perfetto trace with
/// one track per worker thread (timestamps in microseconds since the
/// run began). Span durations are also aggregated into `compute_ns` /
/// `commit_ns` histograms flushed at the end of the trace.
pub fn write_chrome_trace<W: Write>(
    out: W,
    graph: &str,
    data: &HostProfData,
) -> Result<W, std::io::Error> {
    let names: Vec<String> = (0..data.per_thread.len())
        .map(|t| {
            if t == 0 {
                "thread 0 (lead)".to_string()
            } else {
                format!("thread {t}")
            }
        })
        .collect();
    let tracks: Vec<(u32, &str)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (i as u32, n.as_str()))
        .collect();
    let mut sink =
        ChromeTraceSink::with_tracks(out, &format!("nu-lpa host profile: {graph}"), &tracks);
    for (tid, t) in data.per_thread.iter().enumerate() {
        for s in &t.spans {
            let (name, hist) = match s.kind {
                SpanKind::Compute => ("compute", "compute_ns"),
                SpanKind::Commit => ("commit", "commit_ns"),
            };
            sink.span_begin(
                tid as u32,
                name,
                s.start_ns / 1_000,
                &[
                    ("iter", Value::from(s.iter as u64)),
                    ("block", Value::from(s.block as u64)),
                ],
            );
            sink.span_end(tid as u32, name, (s.start_ns + s.dur_ns) / 1_000, &[]);
            sink.hist_sample(hist, s.dur_ns);
        }
    }
    sink.into_inner()
}

/// Mirror a report's headline numbers into `registry` (see
/// [`record_registry`] for the global variant).
pub fn record_into(registry: &Registry, r: &HostRunReport) {
    registry.counter("hostprof.runs").inc();
    registry.counter("hostprof.cas_retries").add(r.cas_retries);
    for (name, b) in BUCKET_NAMES.iter().zip(r.buckets.iter()) {
        registry
            .counter(&format!("hostprof.bucket.{name}.vertices"))
            .add(b.vertices);
        registry
            .counter(&format!("hostprof.bucket.{name}.edges"))
            .add(b.edges);
        registry
            .counter(&format!("hostprof.bucket.{name}.chunks"))
            .add(b.chunks);
    }
    registry
        .gauge("hostprof.last.imbalance_milli")
        .set((r.imbalance * 1e3) as i64);
    registry
        .gauge("hostprof.last.repair_rate_ppm")
        .set((r.repair_rate * 1e6) as i64);
    let busy = registry.histogram("hostprof.thread_busy_ms");
    for t in &r.per_thread {
        busy.record(t.busy_ms as u64);
    }
}

/// [`record_into`] the process-global registry.
pub fn record_registry(r: &HostRunReport) {
    record_into(global(), r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_core::{SpanRec, ThreadProfData};
    use nulpa_obs::json::parse;

    fn sample_data() -> HostProfData {
        let spans0 = vec![
            SpanRec {
                iter: 0,
                block: 0,
                kind: SpanKind::Compute,
                start_ns: 0,
                dur_ns: 2_000,
            },
            SpanRec {
                iter: 0,
                block: 0,
                kind: SpanKind::Commit,
                start_ns: 2_500,
                dur_ns: 1_000,
            },
        ];
        let spans1 = vec![SpanRec {
            iter: 0,
            block: 0,
            kind: SpanKind::Compute,
            start_ns: 100,
            dur_ns: 1_500,
        }];
        let mut t0 = ThreadProfData {
            spans: spans0,
            busy_ns: 3_000,
            ..Default::default()
        };
        t0.buckets[0] = BucketCounters {
            vertices: 60,
            edges: 120,
            chunks: 3,
            cas_retries: 2,
        };
        let mut t1 = ThreadProfData {
            spans: spans1,
            busy_ns: 1_500,
            ..Default::default()
        };
        t1.buckets[2] = BucketCounters {
            vertices: 40,
            edges: 400,
            chunks: 1,
            cas_retries: 0,
        };
        HostProfData {
            threads: 2,
            wall_ns: 4_000,
            per_thread: vec![t0, t1],
            iters: vec![IterRepairStats {
                iter: 0,
                blocks: 1,
                candidates: 100,
                repaired: 4,
                repair_blocks: 1,
                committed: 42,
                commit_ns: 1_000,
            }],
        }
    }

    #[test]
    fn summarize_computes_utilization_and_rates() {
        let r = summarize("g", &sample_data());
        assert_eq!(r.threads, 2);
        assert_eq!(r.iterations, 1);
        assert!((r.per_thread[0].utilization - 0.75).abs() < 1e-12);
        assert!((r.per_thread[1].utilization - 0.375).abs() < 1e-12);
        // imbalance = max 3000 / mean 2250
        assert!((r.imbalance - 3_000.0 / 2_250.0).abs() < 1e-12);
        assert!((r.repair_rate - 0.04).abs() < 1e-12);
        assert_eq!(r.cas_retries, 2);
        assert_eq!(r.buckets[0].vertices, 60);
        assert_eq!(r.buckets[2].edges, 400);
        assert_eq!(r.per_thread[0].spans, 2);
    }

    #[test]
    fn text_report_names_every_section() {
        let text = render_report(&[summarize("toy-graph", &sample_data())]);
        for needle in [
            "host profile: toy-graph",
            "threads=2",
            "imbalance",
            "repair rate",
            "0 (lead)",
            "bucket",
            "low",
            "high",
            "schedule",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn lane_placement_is_reported_and_a_shared_cpu_flagged() {
        let mut data = sample_data();
        data.per_thread[0].cpu = Some(1);
        data.per_thread[0].runq_wait_ns = 250_000;
        data.per_thread[1].cpu = Some(0);
        let r = summarize("g", &data);
        assert_eq!(r.per_thread[0].cpu, Some(1));
        assert!((r.per_thread[0].runq_wait_ms - 0.25).abs() < 1e-12);
        assert_eq!(r.shared_cpu(), None);
        let text = render_report(std::slice::from_ref(&r));
        assert!(
            text.contains("runq_ms") && !text.contains("shared CPU"),
            "{text}"
        );
        let doc = parse(&report_json("{}", std::slice::from_ref(&r))).unwrap();
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        let lead = &run.get("per_thread").unwrap().as_arr().unwrap()[0];
        assert_eq!(lead.get("cpu").unwrap().as_u64(), Some(1));

        data.per_thread[1].cpu = Some(1);
        let r = summarize("g", &data);
        assert_eq!(r.shared_cpu(), Some(1));
        let text = render_report(std::slice::from_ref(&r));
        assert!(text.contains("lanes shared CPU 1"), "{text}");
        // an unknown CPU is never taken for a shared one
        data.per_thread[0].cpu = None;
        data.per_thread[1].cpu = None;
        assert_eq!(summarize("g", &data).shared_cpu(), None);
    }

    #[test]
    fn report_json_parses_and_carries_runs() {
        let r = summarize("g", &sample_data());
        let doc = parse(&report_json("{}", &[r.clone(), r])).unwrap();
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("graph").unwrap().as_str(), Some("g"));
        assert_eq!(runs[0].get("threads").unwrap().as_u64(), Some(2));
        let threads = runs[0].get("per_thread").unwrap().as_arr().unwrap();
        assert_eq!(threads.len(), 2);
        let buckets = runs[0].get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].get("name").unwrap().as_str(), Some("low"));
    }

    #[test]
    fn gate_row_passes_against_itself() {
        let rows = vec![gate_row(&summarize("g", &sample_data()))];
        assert_eq!(rows[0].key, "g threads=2");
        let report = GATE.check(&rows, &rows);
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("1 rows matched"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_track_per_thread() {
        let data = sample_data();
        let buf = write_chrome_trace(Vec::new(), "g", &data).unwrap();
        let doc = parse(&String::from_utf8(buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .filter_map(|e| e.get("args").unwrap().get("name").unwrap().as_str())
            .collect();
        assert!(names.contains(&"thread 0 (lead)"));
        assert!(names.contains(&"thread 1"));
        let begins = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("E"))
            .count();
        assert_eq!(begins, 3);
        assert_eq!(begins, ends);
    }

    #[test]
    fn registry_recording_accumulates() {
        let reg = Registry::new();
        let r = summarize("g", &sample_data());
        record_into(&reg, &r);
        record_into(&reg, &r);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["hostprof.runs"], 2);
        assert_eq!(snap.counters["hostprof.cas_retries"], 4);
        assert_eq!(snap.counters["hostprof.bucket.low.vertices"], 120);
        assert_eq!(snap.gauges["hostprof.last.repair_rate_ppm"], 40_000);
        assert_eq!(snap.hists["hostprof.thread_busy_ms"].count, 4);
    }
}

//! The benchmark's own tests: its metric lists match `BENCHMARK.json`,
//! every run prints exactly the declared metrics, and doctored outputs or
//! inputs are counted as failures.

use nulpa_core::hostprof::{HostProfData, SpanKind, SpanRec, ThreadProfData};
use nulpa_obs::json::{parse, Json};
use nulpa_perfbench::checks::Checks;
use nulpa_perfbench::measure::{lead_breakdown, measure, Opts, Outcome};
use nulpa_perfbench::workload::{self, write_inputs, InputFiles, Workload};
use nulpa_perfbench::{metrics, report};
use std::path::PathBuf;

nulpa_telemetry::install_counting_alloc!();

/// Scale small enough for a debug build; every stand-in still has
/// hundreds of vertices.
const TINY: f64 = 1e-5;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn declared_in_json(key: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let mut out: Vec<(String, String)> = json
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn sorted(list: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = list
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    out.sort();
    out
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(sorted(metrics::END_TO_END), declared_in_json("end_to_end"));
    assert_eq!(sorted(metrics::PER_LAYER), declared_in_json("per_layer"));
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

/// A fresh directory holding `w`'s tiny inputs.
fn inputs(w: Workload, tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", w.name()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_inputs(&dir, w, TINY, 7).unwrap();
    dir
}

fn run(dir: &std::path::Path, w: Workload, trace: bool) -> Outcome {
    let opts = Opts {
        workload: w,
        seed: 7,
        seconds: 0.0,
        trace,
    };
    measure(dir, &opts).expect("measure runs")
}

#[test]
fn every_run_prints_exactly_the_declared_metrics() {
    for w in workload::ALL {
        let dir = inputs(w, "declared");
        for trace in [false, true] {
            let out = run(&dir, w, trace);
            assert!(out.checks.failures.is_empty(), "{:?}", out.checks.failures);
            let line = report::result_line(&out, trace).unwrap();
            let json = parse(&line).unwrap();
            let Json::Obj(fields) = &json else {
                panic!("result is not an object: {line}")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Obj(printed)) = json.get("metrics") else {
                panic!("no metrics object: {line}")
            };
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.get("unit").and_then(Json::as_str).unwrap().into(),
                    )
                })
                .collect();
            let want = if trace { "per_layer" } else { "end_to_end" };
            let mut got = printed.clone();
            got.sort();
            assert_eq!(got, declared_in_json(want), "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn truncated_input_file_is_a_failure() {
    let w = Workload::Kmer;
    let dir = inputs(w, "truncated");
    let txt = InputFiles::in_dir(&dir).graph_txt;
    let text = std::fs::read_to_string(&txt).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    std::fs::write(&txt, lines[..lines.len() / 2].join("\n")).unwrap();
    let out = run(&dir, w, false);
    assert!(out.checks.failed() > 0);
    assert!(out.checks.failures.iter().any(|f| f.contains("loaded CSR")));
    let line = report::result_line(&out, false).unwrap();
    assert_eq!(
        parse(&line).unwrap().get("correct"),
        Some(&Json::Bool(false))
    );
}

#[test]
fn perturbed_t2_labels_are_a_failure() {
    let t1: Vec<u32> = vec![0, 0, 2, 2];
    let mut t2 = t1.clone();
    let mut checks = Checks::default();
    checks.same_labels("detect t2 vs t1", &t2, &t1);
    assert_eq!((checks.attempted, checks.failed()), (1, 0));
    t2[3] = 3;
    checks.same_labels("detect t2 vs t1", &t2, &t1);
    assert_eq!((checks.attempted, checks.failed()), (2, 1));
    assert!(checks.failures[0].contains("first difference at Some(3)"));
}

fn span(iter: u32, kind: SpanKind, start_ns: u64, dur_ns: u64) -> SpanRec {
    SpanRec {
        iter,
        block: 0,
        kind,
        start_ns,
        dur_ns,
    }
}

#[test]
fn lead_breakdown_tiles_the_profiled_wall_time() {
    use SpanKind::{Commit, Compute};
    let lead = ThreadProfData {
        spans: vec![
            span(0, Compute, 10, 5),
            span(0, Commit, 17, 3),
            span(1, Compute, 30, 4),
            span(1, Commit, 34, 6),
        ],
        ..Default::default()
    };
    let mut p = HostProfData {
        threads: 1,
        wall_ns: 45,
        per_thread: vec![lead],
        iters: Vec::new(),
    };
    let b = lead_breakdown(&p).unwrap();
    assert_eq!(
        (b.compute_ns, b.commit_ns, b.prologue_ns, b.idle_ns),
        (9, 9, 25, 2)
    );
    assert_eq!(b.total_ns(), p.wall_ns);
    // spans past the wall time, or overlapping, cannot tile it
    p.wall_ns = 39;
    assert!(lead_breakdown(&p).is_none());
    p.wall_ns = 45;
    p.per_thread[0].spans[1].start_ns = 12;
    assert!(lead_breakdown(&p).is_none());
}

#[test]
fn batch_deletions_name_existing_edges() {
    let g = workload::generate_graph(Workload::RoadStream, TINY);
    let batches = workload::generate_batches(&g, 3, 11);
    assert_eq!(batches.len(), 3);
    let mut cur = g;
    for b in &batches {
        assert_eq!(b.insertions.len(), (cur.num_vertices() / 200).max(1));
        assert!(b.deletions.iter().all(|&(u, v)| cur.has_edge(u, v)));
        cur = nulpa_core::apply_batch(&cur, b);
    }
}

//! End-to-end tests of the `nulpa` command-line tool.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_nulpa");

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("nulpa-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn two_cliques_edge_list() -> String {
    // two triangles joined by a light bridge
    "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3 0.2\n".to_string()
}

#[test]
fn help_exits_zero() {
    let out = Command::new(BIN).arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn every_subcommand_prints_its_usage_on_help() {
    let commands = [
        "stats",
        "detect",
        "partition",
        "coarsen",
        "inspect",
        "predict",
        "generate",
        "trace",
        "sancheck",
        "check",
        "profile",
    ];
    for cmd in commands {
        for flag in ["--help", "-h"] {
            let out = Command::new(BIN).args([cmd, flag]).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{cmd} {flag}: {err}");
            assert!(err.contains("USAGE"), "{cmd} {flag}: {err}");
            assert!(
                err.contains(&format!("nulpa {cmd} ")),
                "{cmd} {flag}: {err}"
            );
            // the usage only: nothing ran
            assert!(out.stdout.is_empty(), "{cmd} {flag}");
        }
    }
    // also after other arguments
    let out = Command::new(BIN)
        .args(["detect", "missing.txt", "--threads", "2", "--help"])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn unknown_command_fails() {
    let out = Command::new(BIN).arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn stats_on_edge_list_file() {
    let path = tmp("stats.txt");
    std::fs::write(&path, two_cliques_edge_list()).unwrap();
    let out = Command::new(BIN).arg("stats").arg(&path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vertices:     6"), "{text}");
    assert!(text.contains("symmetric:    true"), "{text}");
}

#[test]
fn detect_finds_two_communities() {
    let path = tmp("detect.txt");
    std::fs::write(&path, two_cliques_edge_list()).unwrap();
    let out = Command::new(BIN)
        .args(["detect", path.to_str().unwrap(), "--quality"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let labels: Vec<u32> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    assert_eq!(labels.len(), 6);
    assert_eq!(labels[0], labels[1]);
    assert_eq!(labels[0], labels[2]);
    assert_eq!(labels[3], labels[4]);
    assert_ne!(labels[0], labels[3]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("2 communities"));
}

#[test]
fn detect_all_methods_run() {
    let path = tmp("methods.txt");
    std::fs::write(&path, two_cliques_edge_list()).unwrap();
    for method in [
        "nu-lpa",
        "nu-lpa-sim",
        "flpa",
        "networkit",
        "gunrock",
        "louvain",
        "leiden",
        "gve-lpa",
    ] {
        let out = Command::new(BIN)
            .args(["detect", path.to_str().unwrap(), "--method", method])
            .output()
            .unwrap();
        assert!(out.status.success(), "{method} failed");
        let n = String::from_utf8_lossy(&out.stdout).lines().count();
        assert_eq!(n, 6, "{method} wrote {n} labels");
    }
}

/// An unknown `--method` is rejected (exit 2, naming the method) before
/// the graph is opened: the path here does not exist.
#[test]
fn detect_rejects_an_unknown_method_before_loading() {
    let out = Command::new(BIN)
        .args(["detect", "no-such-graph.txt", "--method", "nu-lpa-gpu"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown method `nu-lpa-gpu`"), "{err}");
    assert!(!err.contains("no-such-graph"), "{err}");
}

/// An option `detect` does not know is rejected (exit 2, naming it)
/// before the graph is opened, so a retired flag never runs silently.
#[test]
fn detect_rejects_an_unknown_option() {
    for flag in ["--worklist", "--qualty", "-x"] {
        let out = Command::new(BIN)
            .args([
                "detect",
                "no-such-graph.txt",
                "--method",
                "nu-lpa-sim",
                flag,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option `{flag}`")), "{err}");
    }
}

/// A thread count above `MAX_THREADS` is a config error (exit 2), caught
/// before any thread is spawned.
#[test]
fn detect_rejects_an_unbounded_thread_count() {
    let path = tmp("threads.txt");
    std::fs::write(&path, two_cliques_edge_list()).unwrap();
    let out = Command::new(BIN)
        .args(["detect", path.to_str().unwrap(), "--threads", "100000"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("exceeds the maximum"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn detect_reads_stdin() {
    let mut child = Command::new(BIN)
        .args(["detect", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(two_cliques_edge_list().as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 6);
}

/// `generate | detect` keeps trailing isolated vertices: |V| comes from
/// the edge-list header, not from the largest id on an edge line.
#[test]
fn detect_sizes_graph_from_edge_list_header() {
    let mut child = Command::new(BIN)
        .args(["detect", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"# nu-lpa edge list: 8 vertices, 2 edges\n0 1 1\n1 0 1\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 8);
}

#[test]
fn partition_balances() {
    let path = tmp("part.txt");
    // a ring of 16 vertices
    let mut s = String::new();
    for i in 0..16 {
        s.push_str(&format!("{} {}\n", i, (i + 1) % 16));
    }
    std::fs::write(&path, s).unwrap();
    let out = Command::new(BIN)
        .args(["partition", path.to_str().unwrap(), "-k", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let parts: Vec<u32> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    assert_eq!(parts.len(), 16);
    assert!(parts.iter().all(|&p| p < 4));
}

#[test]
fn detect_labels_do_not_depend_on_the_load_lanes() {
    // large enough for several load lanes
    let gpath = tmp("lanes.txt");
    let out = Command::new(BIN)
        .args([
            "generate",
            "kmer_V1r",
            "--scale",
            "0.0001",
            "--output",
            gpath.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(std::fs::metadata(&gpath).unwrap().len() > 1 << 19);
    let labels = |threads: &str| {
        let out = Command::new(BIN)
            .args(["detect", gpath.to_str().unwrap(), "--threads", threads])
            .output()
            .unwrap();
        assert!(out.status.success());
        out.stdout
    };
    let one = labels("1");
    assert!(!one.is_empty());
    assert_eq!(labels("3"), one);
}

#[test]
fn generate_pipes_into_detect() {
    let gpath = tmp("gen.txt");
    let out = Command::new(BIN)
        .args([
            "generate",
            "asia_osm",
            "--scale",
            "0.00002",
            "--output",
            gpath.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(BIN)
        .args([
            "detect",
            gpath.to_str().unwrap(),
            "--method",
            "louvain",
            "--quality",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("modularity"));
}

/// `generate --output g.bin` writes the binary CSR format, and `detect`
/// reads it back to the same labels as the text round trip.
#[test]
fn generate_bin_is_binary_and_detects_like_text() {
    let mut labels = Vec::new();
    for name in ["gen-roundtrip.bin", "gen-roundtrip.txt"] {
        let gpath = tmp(name);
        let out = Command::new(BIN)
            .args(["generate", "kmer_V1r", "--scale", "0.00005", "--output"])
            .arg(&gpath)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&gpath).unwrap();
        assert_eq!(bytes.starts_with(b"NULPACSR"), name.ends_with(".bin"));
        let out = Command::new(BIN)
            .arg("detect")
            .arg(&gpath)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        labels.push(String::from_utf8(out.stdout).unwrap());
    }
    assert!(labels[0].lines().count() > 1);
    assert_eq!(labels[0], labels[1]);
}

#[test]
fn coarsen_shrinks_graph() {
    let path = tmp("coarsen-in.txt");
    // ring of 64 so coarsening has room to shrink
    let mut s = String::new();
    for i in 0..64 {
        s.push_str(&format!("{} {}\n", i, (i + 1) % 64));
    }
    std::fs::write(&path, s).unwrap();
    let out = Command::new(BIN)
        .args(["coarsen", path.to_str().unwrap(), "--target", "8"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("levels"), "{stderr}");
    // the coarsest edge list should be non-empty and smaller than input
    let lines = String::from_utf8_lossy(&out.stdout).lines().count();
    assert!(lines > 1 && lines < 129, "{lines}");
}

#[test]
fn predict_ranks_missing_clique_edge() {
    let path = tmp("predict-in.txt");
    // two 4-cliques, one missing edge (1-2) in the first
    let txt = "0 1\n0 2\n0 3\n1 3\n2 3\n4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n3 4 0.2\n";
    std::fs::write(&path, txt).unwrap();
    let out = Command::new(BIN)
        .args(["predict", path.to_str().unwrap(), "-k", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let top = String::from_utf8_lossy(&out.stdout);
    assert!(top.starts_with("1 2 "), "{top}");
}

#[test]
fn inspect_reports_top_communities() {
    let path = tmp("inspect-in.txt");
    std::fs::write(&path, two_cliques_edge_list()).unwrap();
    let out = Command::new(BIN)
        .args(["inspect", path.to_str().unwrap(), "--top", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 communities"), "{text}");
    assert!(text.contains("density"), "{text}");
}

/// `stats --write-baseline` → `stats --check` round-trips clean, and the
/// gate demonstrably fails when the baseline claims 2% more modularity
/// than the backends deliver (an injected quality regression).
#[test]
fn stats_quality_gate_passes_clean_and_fails_injected_regression() {
    let base = tmp("gate-baseline.json");
    let out = Command::new(BIN)
        .args(["stats", "--write-baseline", base.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(BIN)
        .args(["stats", "--check", base.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "clean gate should pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("quality gate: ok"));

    // Inject the regression: bump every baseline modularity by 2% so the
    // (deterministic) current runs all read as a >1% quality drop.
    let text = std::fs::read_to_string(&base).unwrap();
    let mut doctored = String::new();
    let mut rest = text.as_str();
    const KEY: &str = "\"modularity\":";
    while let Some(i) = rest.find(KEY) {
        let (head, tail) = rest.split_at(i + KEY.len());
        doctored.push_str(head);
        let end = tail.find([',', '}']).expect("number terminates");
        let q: f64 = tail[..end].trim().parse().expect("modularity parses");
        doctored.push_str(&format!("{}", q * 1.02));
        rest = &tail[end..];
    }
    doctored.push_str(rest);
    assert_ne!(doctored, text, "injection must change the baseline");
    let bad = tmp("gate-baseline-doctored.json");
    std::fs::write(&bad, doctored).unwrap();

    let out = Command::new(BIN)
        .args(["stats", "--check", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "doctored gate must fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("modularity"), "{err}");
    assert!(err.contains("dropped"), "{err}");
}

/// `profile --host --write-baseline` → `--check` passes, and a baseline
/// whose iteration counts are bumped fails naming `iterations`.
#[test]
fn host_gate_passes_clean_and_fails_injected_regression() {
    let base = tmp("host-gate-baseline.json");
    let out = Command::new(BIN)
        .args(["profile", "--host", "--write-baseline"])
        .arg(&base)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(BIN)
        .args(["profile", "--host", "--check"])
        .arg(&base)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "clean gate should pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("hostprof gate: ok"));

    let text = std::fs::read_to_string(&base).unwrap();
    let doctored = text.replace("\"iterations\":", "\"iterations\":1");
    assert_ne!(doctored, text, "injection must change the baseline");
    let bad = tmp("host-gate-baseline-doctored.json");
    std::fs::write(&bad, doctored).unwrap();
    let out = Command::new(BIN)
        .args(["profile", "--host", "--check"])
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success(), "doctored gate must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("iterations"), "{err}");
    assert!(err.contains("!= baseline"), "{err}");
}

/// `stats --json` emits one parseable object with per-run trajectories.
#[test]
fn stats_json_reports_all_backends() {
    let out = Command::new(BIN)
        .args(["stats", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = nu_lpa::obs::json::parse(text.trim()).expect("stats --json parses");
    let runs = doc.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(
        runs.len(),
        9,
        "3 graphs x 3 backends (seq, nu-lpa, nu-lpa-sim)"
    );
    for run in runs {
        assert!(!run.get("trajectory").unwrap().as_arr().unwrap().is_empty());
        assert!(run.get("modularity").unwrap().as_f64().is_some());
        // the binary installs the counting allocator, so peak heap is live
        assert!(run.get("peak_heap_bytes").unwrap().as_u64().unwrap() > 0);
    }
    assert!(doc.get("meta").unwrap().get("hw_threads").is_some());
}

/// `trace --json` emits a parseable summary; a garbage trace file exits
/// non-zero in both human and JSON modes.
#[test]
fn trace_json_and_parse_failure_exit() {
    let gpath = tmp("trace-json-in.txt");
    std::fs::write(&gpath, two_cliques_edge_list()).unwrap();
    let tpath = tmp("trace-json.trace");
    let out = Command::new(BIN)
        .args([
            "detect",
            gpath.to_str().unwrap(),
            "--method",
            "nu-lpa-sim",
            "--trace",
            tpath.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(BIN)
        .args(["trace", tpath.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = nu_lpa::obs::json::parse(text.trim()).expect("trace --json parses");
    assert!(doc.get("spans").is_some());
    assert!(doc.get("end_ts").unwrap().as_u64().is_some());

    let bad = tmp("trace-bad.json");
    std::fs::write(&bad, "this is not a trace\n").unwrap();
    for args in [
        vec!["trace", bad.to_str().unwrap()],
        vec!["trace", bad.to_str().unwrap(), "--json"],
    ] {
        let out = Command::new(BIN).args(&args).output().unwrap();
        assert!(!out.status.success(), "garbage trace must exit non-zero");
    }
}

#[test]
fn output_file_written() {
    let path = tmp("outfile-in.txt");
    let lpath = tmp("outfile-labels.txt");
    std::fs::write(&path, two_cliques_edge_list()).unwrap();
    let out = Command::new(BIN)
        .args([
            "detect",
            path.to_str().unwrap(),
            "--output",
            lpath.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let labels = std::fs::read_to_string(&lpath).unwrap();
    assert_eq!(labels.lines().count(), 6);
}

//! `nulpa` — command-line community detection and graph partitioning.
//!
//! ```text
//! nulpa stats     <graph>                       graph statistics
//! nulpa detect    <graph> [options]             community detection
//! nulpa partition <graph> -k <parts> [options]  balanced k-way partitioning
//! nulpa generate  <dataset> [options]           write a synthetic stand-in
//! ```
//!
//! Graphs are read as MatrixMarket (`.mtx`), binary CSR (`.bin`, as
//! `generate --output x.bin` writes it) or whitespace edge lists
//! (anything else); `-` reads an edge list from stdin. Outputs one label
//! per line in vertex order.
//!
//! `detect --trace <path>` writes a structured trace of the run:
//! `.jsonl` paths get a line-delimited event stream, anything else a
//! Chrome trace-event file loadable in Perfetto (`ui.perfetto.dev`).
//! `nulpa trace <path>` summarises either format.

use nu_lpa::baselines::{
    flpa, gunrock_lp, gve_lpa, leiden, louvain, networkit_plp, GunrockConfig, GveLpaConfig,
    LeidenConfig, LouvainConfig, PlpConfig,
};
use nu_lpa::core::{
    coarsen_lpa, lpa_gpu_traced, lpa_native, lpa_native_traced, pulp_partition, top_k_predictions,
    CoarsenConfig, LpaConfig, PulpConfig,
};
use nu_lpa::graph::datasets::spec_by_name;
use nu_lpa::graph::io::{
    read_binary, read_edge_list_on, read_matrix_market, write_binary, write_edge_list,
};
use nu_lpa::graph::stats::average_clustering;
use nu_lpa::graph::subgraph::community_subgraph;
use nu_lpa::graph::Csr;
use nu_lpa::metrics::{community_count, cut_fraction, imbalance, modularity_par};
use nu_lpa::obs::gate::{self, Gate, Row, Rule};
use nu_lpa::obs::{summary, ChromeTraceSink, Hist, JsonlSink, NullSink, TraceSink, Value};
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

// Meter the heap: every `nulpa` allocation goes through the counting
// shim so `stats`/`--telemetry` can report peak/current heap bytes.
nu_lpa::telemetry::install_counting_alloc!();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(lines) = command_help(&args) {
        eprintln!("USAGE:\n  {lines}");
        return ExitCode::SUCCESS;
    }
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("partition") => cmd_partition(&args[1..]),
        Some("coarsen") => cmd_coarsen(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("sancheck") => cmd_sancheck(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("--help") | Some("-h") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Each subcommand's usage lines, in the order `nulpa --help` lists them.
const COMMANDS: &[(&str, &str)] = &[
    (
        "stats",
        "nulpa stats [graph] [--backend B] [--json] [--history FILE] [--check BASELINE]\n              \
         [--write-baseline FILE] [--telemetry FILE]   convergence observatory",
    ),
    (
        "detect",
        "nulpa detect <graph> [--method M] [--threads N] [--output FILE] [--quality]\n              \
         [--trace FILE] [--telemetry FILE]",
    ),
    (
        "partition",
        "nulpa partition <graph> -k N [--balance F] [--output FILE]",
    ),
    ("coarsen", "nulpa coarsen <graph> --target N [--output FILE]"),
    ("inspect", "nulpa inspect <graph> [--top N]"),
    ("predict", "nulpa predict <graph> [-k N]"),
    (
        "generate",
        "nulpa generate <dataset> [--scale F] [--output FILE]   (.bin: binary CSR)",
    ),
    ("trace", "nulpa trace <tracefile> [--top K] [--json]"),
    (
        "sancheck",
        "nulpa sancheck [graph] [--json]   run backends under the hazard checker",
    ),
    (
        "check",
        "nulpa check [--json] [--inject]   static kernel effect verifier + workspace linter",
    ),
    (
        "profile",
        "nulpa profile [graph] [--json] [--backend NAME] [--check BASELINE]\n              \
         [--write-baseline FILE] [--telemetry FILE]   cycle-attribution profile\n  \
         nulpa profile --host [graph] [--json] [--trace FILE] [--check BASELINE]\n              \
         [--write-baseline FILE] [--telemetry FILE]   host-parallel observatory",
    ),
];

fn usage() {
    eprintln!("nulpa — nu-LPA community detection (paper reproduction)\n\nUSAGE:");
    for (_, lines) in COMMANDS {
        eprintln!("  {lines}");
    }
    eprintln!(
        "\n\
         HOST PROFILING: --host runs lpa_native's block-synchronous sweep\n  \
         at a 1/2/4 thread ladder with the host-parallel profiler: per-thread\n  \
         busy time/utilization, per-degree-bucket vertices/edges, and\n  \
         max/mean busy imbalance.\n  \
         --trace writes a Chrome/Perfetto trace of the last run's thread\n  \
         timelines; --check gates iterations, repair rate and imbalance\n  \
         against a committed baseline (results/hostprof_baseline.json).\n\n\
         STATS: runs the seq / nu-lpa / nu-lpa-sim\n  \
         backends with per-iteration convergence telemetry (dN, active\n  \
         fraction, entropy, modularity), wall-clock phase spans and heap\n  \
         accounting; --history appends run records to a JSONL ledger,\n  \
         --check gates against a committed baseline.\n\n\
         METHODS: nu-lpa (default), nu-lpa-sim (simulated A100), flpa,\n  \
         networkit, gunrock, louvain, leiden, gve-lpa\n\n\
         THREADS: --threads N (or NULPA_THREADS=N) sets the host threads\n  \
         loading a text edge list and driving nu-lpa / nu-lpa-sim; results\n  \
         are identical at any count.\n\n\
         TRACING: --trace x.jsonl writes a JSONL event stream; any other\n  \
         extension writes a Chrome trace-event file (open in Perfetto).\n  \
         Only nu-lpa and nu-lpa-sim are instrumented.\n\n\
         DATASETS: any Table-1 name, e.g. uk-2002, com-Orkut, asia_osm, kmer_A2a"
    );
}

/// `--help` or `-h` anywhere after a subcommand prints that subcommand's
/// usage instead of running it.
fn command_help(args: &[String]) -> Option<&'static str> {
    let (cmd, rest) = args.split_first()?;
    let (_, lines) = COMMANDS.iter().find(|(name, _)| name == cmd)?;
    rest.iter()
        .any(|a| a == "--help" || a == "-h")
        .then_some(lines)
}

/// Load a graph; a text edge list is parsed on `lanes` threads (0: as
/// [`nu_lpa::core::resolve_threads`] resolves it).
fn load_graph(path: &str, lanes: usize) -> Result<Csr, String> {
    if path == "-" {
        let stdin = std::io::stdin();
        return read_edge_list_on(stdin.lock(), None, true, lanes).map_err(|e| e.to_string());
    }
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let r = BufReader::new(f);
    if path.ends_with(".mtx") {
        read_matrix_market(r).map_err(|e| format!("{path}: {e}"))
    } else if path.ends_with(".bin") {
        read_binary(r).map_err(|e| format!("{path}: {e}"))
    } else {
        read_edge_list_on(r, None, true, lanes).map_err(|e| format!("{path}: {e}"))
    }
}

fn write_labels(labels: &[u32], output: Option<&str>) -> Result<(), String> {
    match output {
        None => Ok(()),
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut w = BufWriter::new(f);
            for l in labels {
                writeln!(w, "{l}").map_err(|e| e.to_string())?;
            }
            w.flush().map_err(|e| e.to_string())
        }
    }
}

fn opt_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// First positional (non-flag) argument, skipping the values consumed by
/// the listed value-taking flags.
fn positional<'a>(args: &'a [String], value_flags: &[&str]) -> Option<&'a String> {
    let mut skip_next = false;
    args.iter().find(|a| {
        if skip_next {
            skip_next = false;
            return false;
        }
        if value_flags.iter().any(|f| f == a) {
            skip_next = true;
            return false;
        }
        !a.starts_with("--")
    })
}

/// File-backed trace sink for `--trace`: format picked by extension
/// (`.jsonl` → JSONL event stream, anything else → Chrome trace-event
/// JSON for Perfetto).
enum FileSink {
    Jsonl(JsonlSink<BufWriter<std::fs::File>>),
    Chrome(ChromeTraceSink<BufWriter<std::fs::File>>),
}

impl FileSink {
    fn create(path: &str) -> Result<Self, String> {
        let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let w = BufWriter::new(f);
        Ok(if path.ends_with(".jsonl") {
            FileSink::Jsonl(JsonlSink::new(w))
        } else {
            FileSink::Chrome(ChromeTraceSink::new(w))
        })
    }

    /// Finalise, flush, and surface any deferred I/O error.
    fn close(self, path: &str) -> Result<(), String> {
        let err = |e: std::io::Error| format!("{path}: {e}");
        match self {
            FileSink::Jsonl(mut s) => {
                s.finish();
                if let Some(e) = s.take_error() {
                    return Err(err(e));
                }
                s.into_inner().map_err(&err)?.flush().map_err(&err)
            }
            FileSink::Chrome(mut s) => {
                s.finish();
                if let Some(e) = s.take_error() {
                    return Err(err(e));
                }
                s.into_inner().map_err(&err)?.flush().map_err(&err)
            }
        }
    }
}

impl TraceSink for FileSink {
    fn span_begin(&mut self, track: u32, name: &str, ts: u64, args: &[(&str, Value)]) {
        match self {
            FileSink::Jsonl(s) => s.span_begin(track, name, ts, args),
            FileSink::Chrome(s) => s.span_begin(track, name, ts, args),
        }
    }
    fn span_end(&mut self, track: u32, name: &str, ts: u64, args: &[(&str, Value)]) {
        match self {
            FileSink::Jsonl(s) => s.span_end(track, name, ts, args),
            FileSink::Chrome(s) => s.span_end(track, name, ts, args),
        }
    }
    fn counter(&mut self, name: &str, ts: u64, value: f64) {
        match self {
            FileSink::Jsonl(s) => s.counter(name, ts, value),
            FileSink::Chrome(s) => s.counter(name, ts, value),
        }
    }
    fn hist_sample(&mut self, name: &str, value: u64) {
        match self {
            FileSink::Jsonl(s) => s.hist_sample(name, value),
            FileSink::Chrome(s) => s.hist_sample(name, value),
        }
    }
    fn histogram(&mut self, name: &str, hist: &Hist) {
        match self {
            FileSink::Jsonl(s) => s.histogram(name, hist),
            FileSink::Chrome(s) => s.histogram(name, hist),
        }
    }
    fn finish(&mut self) {
        match self {
            FileSink::Jsonl(s) => s.finish(),
            FileSink::Chrome(s) => s.finish(),
        }
    }
}

/// Print the classic graph statistics block (kept stable — scripts and
/// the CLI tests match on these lines).
fn print_graph_stats(g: &Csr) {
    println!("vertices:     {}", g.num_vertices());
    println!(
        "edges:        {} directed ({} undirected)",
        g.num_edges(),
        g.num_edges() / 2
    );
    println!("avg degree:   {:.2}", g.avg_degree());
    println!("max degree:   {}", g.max_degree());
    println!("total weight: {:.1}", g.total_weight());
    println!("self loops:   {}", g.num_self_loops());
    println!("symmetric:    {}", g.is_symmetric());
}

/// `nulpa stats`: the convergence observatory. With a graph argument,
/// print its statistics and then run the telemetered backend matrix over
/// it; without one, use the built-in trio. Every run records wall-clock
/// phase spans, heap footprint, and the per-iteration convergence
/// trajectory (ΔN, active fraction, communities, entropy, incremental
/// modularity). `--history` appends run records to the JSONL ledger,
/// `--write-baseline`/`--check` drive the quality gate, `--telemetry`
/// dumps the metrics registry (`.prom` or JSONL).
fn cmd_stats(args: &[String]) -> Result<(), String> {
    use nu_lpa::core::resolve_threads;
    use nu_lpa::obs::meta::run_meta;
    use nu_lpa::telemetry::{
        append_history, global, heap_stats, peak_rss_bytes, write_snapshot, PhaseSpan, RunRecord,
    };

    const VALUE_FLAGS: &[&str] = &[
        "--backend",
        "--history",
        "--check",
        "--write-baseline",
        "--telemetry",
    ];
    let json = args.iter().any(|a| a == "--json");
    let backend_filter = opt_value(args, "--backend");
    let graphs: Vec<(String, Csr)> = match positional(args, VALUE_FLAGS) {
        Some(p) => {
            let span = PhaseSpan::new("load");
            let g = load_graph(p, 0)?;
            span.finish();
            vec![(p.clone(), g)]
        }
        None => {
            let span = PhaseSpan::new("load");
            let trio = nu_lpa::graph::gen::builtin_trio();
            span.finish();
            trio
        }
    };

    const BACKENDS: &[&str] = &["seq", "nu-lpa", "nu-lpa-sim"];
    let backends: Vec<&str> = BACKENDS
        .iter()
        .copied()
        .filter(|b| backend_filter.is_none_or(|f| *b == f))
        .collect();
    if backends.is_empty() {
        return Err(format!(
            "stats: unknown backend `{}` (available: {})",
            backend_filter.unwrap_or(""),
            BACKENDS.join(", ")
        ));
    }

    let cfg = LpaConfig::default();
    let meta = run_meta(&[
        ("threads", resolve_threads(cfg.threads).to_string()),
        ("device", cfg.device.preset_name()),
        ("probe", cfg.probe.label().to_string()),
        (
            "hw_threads",
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .to_string(),
        ),
    ]);

    let mut records = Vec::new();
    for (gname, g) in &graphs {
        if !json {
            println!("graph: {gname}");
            print_graph_stats(g);
        }
        for backend in &backends {
            let span = PhaseSpan::new("iterate");
            let run = run_observed(backend, g, &cfg)?;
            let iterate = span.finish();
            let wall_ms = iterate.wall_ns as f64 / 1e6;
            let heap = heap_stats();
            let record = RunRecord {
                meta: meta.clone(),
                graph: gname.clone(),
                backend: backend.to_string(),
                n: g.num_vertices(),
                m: g.num_edges(),
                wall_ms,
                phases: vec![iterate],
                peak_heap_bytes: heap.map(|h| h.peak_bytes),
                peak_rss_bytes: peak_rss_bytes(),
                iterations: run.result.iterations,
                converged: run.result.converged,
                communities: run.result.num_communities(),
                modularity: run.final_q,
                trajectory: run.samples,
            };
            if !json {
                print_run_record(&record);
            }
            records.push(record);
        }
        if !json {
            println!();
        }
    }

    if json {
        let runs: Vec<String> = records.iter().map(RunRecord::to_json).collect();
        println!(
            "{{\"meta\":{},\"runs\":[{}]}}",
            nu_lpa::obs::meta::meta_json(&meta),
            runs.join(",")
        );
    }
    if let Some(path) = opt_value(args, "--history") {
        append_history(path, &records)?;
        if !json {
            eprintln!("{} run records appended to {path}", records.len());
        }
    }
    if let Some(path) = opt_value(args, "--telemetry") {
        write_snapshot(path, &global().snapshot())?;
        if !json {
            eprintln!("telemetry snapshot written to {path}");
        }
    }
    let rows: Vec<Row> = records.iter().map(quality_row).collect();
    write_or_check_baseline(args, &QUALITY_GATE, &meta, &rows)
}

/// `--write-baseline FILE` writes `rows` as a `gate-v1` baseline;
/// `--check FILE` prints `gate`'s verdict table against that baseline
/// and fails on any regression.
fn write_or_check_baseline(
    args: &[String],
    gate: &Gate,
    meta: &[(String, String)],
    rows: &[Row],
) -> Result<(), String> {
    if let Some(path) = opt_value(args, "--write-baseline") {
        std::fs::write(path, gate::to_json(meta, rows)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{} baseline written to {path}", gate.name);
    }
    if let Some(path) = opt_value(args, "--check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report = gate.check_json(&text, rows)?;
        eprint!("{}", report.render());
        report.result()?;
    }
    Ok(())
}

/// One telemetered backend run: result, trajectory, final modularity.
struct ObservedRun {
    result: nu_lpa::core::LpaResult,
    samples: Vec<nu_lpa::telemetry::IterationSample>,
    final_q: f64,
}

fn run_observed(backend: &str, g: &Csr, cfg: &LpaConfig) -> Result<ObservedRun, String> {
    use nu_lpa::core::{lpa_gpu_observed, lpa_native_observed, lpa_seq_observed};
    use nu_lpa::telemetry::ConvergenceRecorder;

    let mut rec = ConvergenceRecorder::new(g);
    let mut sink = NullSink;
    let result = match backend {
        "seq" => lpa_seq_observed(g, cfg, &mut sink, &mut rec),
        "nu-lpa" => lpa_native_observed(g, cfg, &mut sink, &mut rec),
        "nu-lpa-sim" => lpa_gpu_observed(g, cfg, &mut sink, &mut rec),
        other => return Err(format!("stats: unknown backend `{other}`")),
    };
    let final_q = rec.final_modularity();
    Ok(ObservedRun {
        result,
        samples: rec.samples,
        final_q,
    })
}

/// Human-readable rendering of one run record: summary line, phase
/// breakdown, memory footprint, and the convergence trajectory table.
fn print_run_record(r: &nu_lpa::telemetry::RunRecord) {
    println!(
        "backend {}: {} iterations ({}), {} communities, Q = {:.4}, {:.2} ms",
        r.backend,
        r.iterations,
        if r.converged {
            "converged"
        } else {
            "iteration cap"
        },
        r.communities,
        r.modularity,
        r.wall_ms
    );
    for p in &r.phases {
        println!(
            "  phase {:<10} {:>10.3} ms  {:>12} bytes in {} allocs",
            p.name,
            p.wall_ns as f64 / 1e6,
            p.alloc_bytes,
            p.allocs
        );
    }
    match (r.peak_heap_bytes, r.peak_rss_bytes) {
        (Some(h), Some(rss)) => println!(
            "  peak heap: {:.2} MiB, peak RSS: {:.2} MiB",
            h as f64 / (1 << 20) as f64,
            rss as f64 / (1 << 20) as f64
        ),
        (Some(h), None) => println!("  peak heap: {:.2} MiB", h as f64 / (1 << 20) as f64),
        (None, _) => println!("  peak heap: unavailable (counting allocator not installed)"),
    }
    println!(
        "  {:>4} {:>8} {:>8} {:>7} {:>7} {:>9} {:>9}",
        "iter", "dN", "active", "frac", "comms", "entropy", "Q"
    );
    const MAX_ROWS: usize = 24;
    for (i, s) in r.trajectory.iter().enumerate() {
        if r.trajectory.len() > MAX_ROWS && i == MAX_ROWS / 2 {
            println!(
                "  ... ({} iterations elided) ...",
                r.trajectory.len() - MAX_ROWS
            );
        }
        if r.trajectory.len() > MAX_ROWS
            && (MAX_ROWS / 2..r.trajectory.len() - MAX_ROWS / 2).contains(&i)
        {
            continue;
        }
        println!(
            "  {:>4} {:>8} {:>8} {:>7.3} {:>7} {:>9.3} {:>9.4}",
            s.iter,
            s.delta_n,
            s.active,
            s.active_fraction,
            s.communities,
            s.entropy_bits,
            s.modularity
        );
    }
}

/// The quality gate. Modularity is deterministic per backend, so any
/// relative drop over 1% fails. Wall-clock and peak heap may grow 10%,
/// and only gate above 250 ms / 16 MiB: below those floors the built-in
/// trio measures scheduler noise, not the algorithm.
const QUALITY_GATE: Gate = Gate {
    name: "quality",
    rules: &[
        Rule::higher("modularity", 0.01, 0.0),
        Rule::lower("wall_ms", 0.10, 0.0).guarded("wall_ms", 250.0),
        Rule::lower("peak_heap_bytes", 0.10, 0.0).guarded("peak_heap_bytes", 16.0 * 1048576.0),
    ],
};

/// A run record's quality-gate row, keyed `graph/backend`.
fn quality_row(r: &nu_lpa::telemetry::RunRecord) -> Row {
    let row = Row::new(format!("{}/{}", r.graph, r.backend))
        .with("modularity", r.modularity)
        .with("wall_ms", r.wall_ms);
    match r.peak_heap_bytes {
        Some(b) => row.with("peak_heap_bytes", b as f64),
        None => row,
    }
}

/// Methods `nulpa detect --method` runs.
const DETECT_METHODS: &[&str] = &[
    "nu-lpa",
    "nu-lpa-sim",
    "flpa",
    "networkit",
    "gunrock",
    "louvain",
    "leiden",
    "gve-lpa",
];

fn cmd_detect(args: &[String]) -> Result<(), String> {
    const VALUE_FLAGS: &[&str] = &[
        "--method",
        "--threads",
        "--output",
        "--trace",
        "--telemetry",
    ];
    let (path, opts) = args.split_first().ok_or("detect: missing graph path")?;
    let mut it = opts.iter();
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            it.next();
        } else if a != "--quality" {
            return Err(format!("detect: unknown option `{a}`"));
        }
    }
    // 0 = resolve from NULPA_THREADS / available parallelism
    let threads: usize = opt_value(args, "--threads")
        .map(|s| {
            s.parse::<usize>()
                .ok()
                .filter(|&t| t > 0)
                .ok_or("detect: --threads needs a positive integer")
        })
        .transpose()?
        .unwrap_or(0);
    let telemetry_path = opt_value(args, "--telemetry");
    let method = opt_value(args, "--method").unwrap_or("nu-lpa");
    if !DETECT_METHODS.contains(&method) {
        return Err(format!(
            "unknown method `{method}` (available: {})",
            DETECT_METHODS.join(", ")
        ));
    }
    let output = opt_value(args, "--output");
    let quality = args.iter().any(|a| a == "--quality");
    let trace_path = opt_value(args, "--trace");
    let cfg = LpaConfig::default().with_threads(threads);
    cfg.validate()?;
    if trace_path.is_some() && !matches!(method, "nu-lpa" | "nu-lpa-sim") {
        return Err(format!(
            "--trace: method `{method}` is not instrumented (use nu-lpa or nu-lpa-sim)"
        ));
    }
    // The options are checked before the graph loads on `--threads`
    // lanes. Phase spans are opened only when telemetry output was
    // requested — untelemetered runs stay observation-free.
    let load_span = telemetry_path.map(|_| nu_lpa::telemetry::PhaseSpan::new("load"));
    let g = load_graph(path, threads)?;
    if let Some(span) = load_span {
        span.finish();
    }
    let mut file_sink = trace_path.map(FileSink::create).transpose()?;
    let mut null = NullSink;

    let iterate_span = telemetry_path.map(|_| nu_lpa::telemetry::PhaseSpan::new("iterate"));
    let t0 = Instant::now();
    // The iteration count is reported for the ν-LPA backends only.
    let (labels, iterations): (Vec<u32>, Option<u32>) = {
        let sink: &mut dyn TraceSink = match file_sink.as_mut() {
            Some(s) => s,
            None => &mut null,
        };
        match method {
            "nu-lpa" => {
                let r = lpa_native_traced(&g, &cfg, sink);
                (r.labels, Some(r.iterations))
            }
            "nu-lpa-sim" => {
                let r = lpa_gpu_traced(&g, &cfg, sink);
                eprintln!(
                    "simulated: {} cycles, {} waves, {:.1}% divergence, {} probes",
                    r.stats.sim_cycles,
                    r.stats.waves,
                    100.0 * r.stats.divergence_ratio(),
                    r.stats.probes
                );
                (r.labels, Some(r.iterations))
            }
            "flpa" => (flpa(&g, 1).labels, None),
            "networkit" => (networkit_plp(&g, &PlpConfig::default()).labels, None),
            "gunrock" => (gunrock_lp(&g, &GunrockConfig::default()).labels, None),
            "louvain" => (louvain(&g, &LouvainConfig::default()).labels, None),
            "leiden" => (leiden(&g, &LeidenConfig::default()).labels, None),
            "gve-lpa" => (gve_lpa(&g, &GveLpaConfig::default()).labels, None),
            other => unreachable!("method `{other}` checked against DETECT_METHODS"),
        }
    };
    let elapsed = t0.elapsed();
    if let Some(span) = iterate_span {
        span.finish();
    }
    if let (Some(s), Some(tp)) = (file_sink, trace_path) {
        s.close(tp)?;
        eprintln!("trace written to {tp}");
    }
    if let Some(tp) = telemetry_path {
        nu_lpa::telemetry::write_snapshot(tp, &nu_lpa::telemetry::global().snapshot())?;
        eprintln!("telemetry snapshot written to {tp}");
    }

    let iters = iterations
        .map(|it| format!(" ({it} iterations)"))
        .unwrap_or_default();
    eprintln!(
        "{} communities in {elapsed:.2?}{iters}",
        community_count(&labels)
    );
    if quality {
        eprintln!("modularity Q = {:.4}", modularity_par(&g, &labels));
    }
    match output {
        Some(_) => write_labels(&labels, output),
        None => {
            let out = std::io::stdout();
            let mut w = BufWriter::new(out.lock());
            for l in &labels {
                writeln!(w, "{l}").map_err(|e| e.to_string())?;
            }
            Ok(())
        }
    }
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("partition: missing graph path")?;
    let g = load_graph(path, 0)?;
    let k: usize = opt_value(args, "-k")
        .ok_or("partition: missing -k <parts>")?
        .parse()
        .map_err(|_| "partition: bad -k value")?;
    let balance: f64 = opt_value(args, "--balance")
        .map(|s| s.parse().map_err(|_| "partition: bad --balance"))
        .transpose()?
        .unwrap_or(1.05);

    let t0 = Instant::now();
    let r = pulp_partition(
        &g,
        &PulpConfig {
            num_parts: k,
            balance,
            ..Default::default()
        },
    );
    eprintln!(
        "{k}-way partition in {:.2?}: cut fraction {:.4}, imbalance {:.3}, {} sweeps",
        t0.elapsed(),
        cut_fraction(&g, &r.parts),
        imbalance(&r.parts, k),
        r.iterations
    );
    write_labels(&r.parts, opt_value(args, "--output"))?;
    if opt_value(args, "--output").is_none() {
        let out = std::io::stdout();
        let mut w = BufWriter::new(out.lock());
        for p in &r.parts {
            writeln!(w, "{p}").map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_coarsen(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("coarsen: missing graph path")?;
    let g = load_graph(path, 0)?;
    let target: usize = opt_value(args, "--target")
        .map(|s| s.parse().map_err(|_| "coarsen: bad --target"))
        .transpose()?
        .unwrap_or(64);
    let t0 = Instant::now();
    let h = coarsen_lpa(
        &g,
        &CoarsenConfig {
            target_vertices: target,
            ..Default::default()
        },
    );
    match h.coarsest() {
        None => {
            eprintln!("graph already at or below the target size; nothing to do");
            Ok(())
        }
        Some(coarsest) => {
            eprintln!(
                "{} levels in {:.2?}: {} -> {} vertices, {} -> {} edges",
                h.levels.len(),
                t0.elapsed(),
                g.num_vertices(),
                coarsest.num_vertices(),
                g.num_edges(),
                coarsest.num_edges(),
            );
            match opt_value(args, "--output") {
                Some(out) => {
                    let f = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
                    write_edge_list(coarsest, BufWriter::new(f)).map_err(|e| e.to_string())
                }
                None => {
                    let out = std::io::stdout();
                    write_edge_list(coarsest, BufWriter::new(out.lock())).map_err(|e| e.to_string())
                }
            }
        }
    }
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("inspect: missing graph path")?;
    let g = load_graph(path, 0)?;
    let top: usize = opt_value(args, "--top")
        .map(|s| s.parse().map_err(|_| "inspect: bad --top"))
        .transpose()?
        .unwrap_or(5);

    let labels = lpa_native(&g, &LpaConfig::default()).labels;
    let mut sizes: Vec<(u32, usize)> = nu_lpa::metrics::community_sizes(&labels)
        .into_iter()
        .enumerate()
        .filter(|&(_, s)| s > 0)
        .map(|(c, s)| (c as u32, s))
        .collect();
    sizes.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    println!(
        "{} communities, Q = {:.4}; top {}:",
        sizes.len(),
        modularity_par(&g, &labels),
        top.min(sizes.len())
    );
    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>12}",
        "community", "size", "edges", "density", "clustering"
    );
    for &(c, size) in sizes.iter().take(top) {
        let sub = community_subgraph(&g, &labels, c);
        let m = sub.graph.num_edges() / 2;
        let possible = size * size.saturating_sub(1) / 2;
        println!(
            "{:<12} {:>8} {:>10} {:>12.4} {:>12.4}",
            c,
            size,
            m,
            if possible == 0 {
                0.0
            } else {
                m as f64 / possible as f64
            },
            average_clustering(&sub.graph),
        );
    }
    Ok(())
}

fn cmd_predict(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("predict: missing graph path")?;
    let g = load_graph(path, 0)?;
    let k: usize = opt_value(args, "-k")
        .map(|s| s.parse().map_err(|_| "predict: bad -k"))
        .transpose()?
        .unwrap_or(10);
    let t0 = Instant::now();
    let labels = lpa_native(&g, &LpaConfig::default()).labels;
    let preds = top_k_predictions(&g, &labels, k);
    eprintln!(
        "{} predictions in {:.2?} (community-aware Adamic-Adar)",
        preds.len(),
        t0.elapsed()
    );
    let out = std::io::stdout();
    let mut w = BufWriter::new(out.lock());
    for (u, v, s) in preds {
        writeln!(w, "{u} {v} {s:.6}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("generate: missing dataset name")?;
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown dataset `{name}`"))?;
    let scale: f64 = opt_value(args, "--scale")
        .map(|s| s.parse().map_err(|_| "generate: bad --scale"))
        .transpose()?
        .unwrap_or(nu_lpa::graph::datasets::DEFAULT_SCALE);
    let d = spec.generate(scale);
    eprintln!(
        "{}: {} vertices, {} edges (stand-in for {} at scale {scale})",
        name,
        d.graph.num_vertices(),
        d.graph.num_edges(),
        spec.name
    );
    match opt_value(args, "--output") {
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut w = BufWriter::new(f);
            if path.ends_with(".bin") {
                write_binary(&d.graph, &mut w).map_err(|e| format!("{path}: {e}"))?;
            } else {
                write_edge_list(&d.graph, &mut w).map_err(|e| format!("{path}: {e}"))?;
            }
            w.flush().map_err(|e| format!("{path}: {e}"))
        }
        None => {
            let out = std::io::stdout();
            write_edge_list(&d.graph, BufWriter::new(out.lock())).map_err(|e| e.to_string())
        }
    }
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let path = positional(args, &["--top"]).ok_or("trace: missing trace file path")?;
    let json = args.iter().any(|a| a == "--json");
    let top: Option<usize> = opt_value(args, "--top")
        .map(|s| {
            s.parse::<usize>()
                .ok()
                .filter(|&k| k > 0)
                .ok_or("trace: --top needs a positive integer")
        })
        .transpose()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // A parse failure propagates as Err and exits non-zero in both modes.
    let s = summary::summarize(&text).map_err(|e| format!("{path}: {e}"))?;
    if json {
        println!("{}", summary::summary_to_json(&s));
    } else {
        match top {
            Some(k) => print!("{}", summary::render_top(&s, k)),
            None => print!("{}", summary::render(&s)),
        }
    }
    Ok(())
}

/// `nulpa profile`: `--host` profiles the native sweep's host-parallel
/// execution (per-thread/per-bucket attribution); otherwise the simulated
/// GPU backends run under the cycle-attribution profiler.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--host") {
        cmd_profile_host(args)
    } else {
        cmd_profile_sim(args)
    }
}

/// `nulpa profile --host`: the host-parallel execution observatory. Runs
/// `lpa_native` with the sweep profiler over the built-in trio (or one
/// graph) at a 1/2/4 thread ladder, and reports per-thread utilization,
/// per-degree-bucket work (vertices/edges), and the max/mean busy-time
/// imbalance. `--trace` writes a
/// Chrome/Perfetto trace of the last run's thread timelines;
/// `--write-baseline`/`--check` drive the hostprof regression gate.
fn cmd_profile_host(args: &[String]) -> Result<(), String> {
    use nu_lpa::core::lpa_native_hostprof;
    use nu_lpa::obs::meta::{meta_json, run_meta};
    use nu_lpa::telemetry::hostprof as hp;

    const VALUE_FLAGS: &[&str] = &["--trace", "--check", "--write-baseline", "--telemetry"];
    const THREAD_LADDER: &[usize] = &[1, 2, 4];

    let json = args.iter().any(|a| a == "--json");
    let graphs: Vec<(String, Csr)> = match positional(args, VALUE_FLAGS) {
        Some(p) => vec![(p.clone(), load_graph(p, 0)?)],
        None => nu_lpa::graph::gen::builtin_trio(),
    };

    let mut reports = Vec::new();
    let mut last_trace: Option<(String, nu_lpa::core::HostProfData)> = None;
    for (gname, g) in &graphs {
        for &threads in THREAD_LADDER {
            let cfg = LpaConfig::default().with_threads(threads);
            let (_result, prof) = lpa_native_hostprof(g, &cfg);
            let data = prof.expect("lpa_native_hostprof always returns a profile");
            let report = hp::summarize(gname, &data);
            hp::record_registry(&report);
            reports.push(report);
            last_trace = Some((gname.clone(), data));
        }
    }

    let meta = run_meta(&[(
        "hw_threads",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .to_string(),
    )]);
    if json {
        print!("{}", hp::report_json(&meta_json(&meta), &reports));
    } else {
        print!("{}", hp::render_report(&reports));
    }
    if let Some(path) = opt_value(args, "--trace") {
        let (gname, data) = last_trace.as_ref().expect("ladder ran at least once");
        let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut w = hp::write_chrome_trace(BufWriter::new(f), gname, data)
            .map_err(|e| format!("{path}: {e}"))?;
        w.flush().map_err(|e| format!("{path}: {e}"))?;
        if !json {
            eprintln!("chrome trace of {gname} (last ladder run) written to {path}");
        }
    }
    if let Some(path) = opt_value(args, "--telemetry") {
        nu_lpa::telemetry::write_snapshot(path, &nu_lpa::telemetry::global().snapshot())?;
        if !json {
            eprintln!("telemetry snapshot written to {path}");
        }
    }
    let rows: Vec<Row> = reports.iter().map(hp::gate_row).collect();
    write_or_check_baseline(args, &hp::GATE, &meta, &rows)
}

/// `nulpa profile` (without `--host`): run the simulated-GPU backend
/// matrix under the cycle-attribution profiler and print per-kernel
/// component breakdowns, a roofline summary and the per-SM occupancy
/// timeline. Without a graph argument the built-in trio is profiled;
/// `--backend NAME` restricts the backend matrix; `--json` prints the
/// machine-readable report; `--write-baseline`/`--check` drive the
/// cycle gate ([`nu_lpa::prof::json::CYCLE_GATE`]).
fn cmd_profile_sim(args: &[String]) -> Result<(), String> {
    use nu_lpa::core::resolve_threads;
    use nu_lpa::obs::meta::run_meta;
    use nu_lpa::prof::json::{gate_row, report_to_json, CYCLE_GATE};
    use nu_lpa::prof::{backends, profile_graph, render::render};

    const VALUE_FLAGS: &[&str] = &["--backend", "--check", "--write-baseline", "--telemetry"];
    let json = args.iter().any(|a| a == "--json");
    let backend_filter = opt_value(args, "--backend");
    let telemetry_path = opt_value(args, "--telemetry");
    let graph_path = positional(args, VALUE_FLAGS);
    let graphs: Vec<(String, Csr)> = match graph_path {
        Some(p) => vec![(p.clone(), load_graph(p, 0)?)],
        None => nu_lpa::graph::gen::builtin_trio(),
    };
    let specs: Vec<_> = backends()
        .into_iter()
        .filter(|s| backend_filter.is_none_or(|f| s.name == f))
        .collect();
    if specs.is_empty() {
        let names: Vec<&str> = backends().iter().map(|s| s.name).collect();
        return Err(format!(
            "profile: unknown backend `{}` (available: {})",
            backend_filter.unwrap_or(""),
            names.join(", ")
        ));
    }

    let mut profiles = Vec::new();
    let mut leaked = 0usize;
    for (gname, g) in &graphs {
        for spec in &specs {
            let span = telemetry_path.map(|_| nu_lpa::telemetry::PhaseSpan::new("iterate"));
            let gp = profile_graph(gname, g, spec);
            if let Some(span) = span {
                span.finish();
            }
            if !json {
                print!("{}", render(&gp.profile));
                match &gp.conservation {
                    Ok(()) => println!(
                        "conservation: ok (components sum to KernelStats totals exactly); \
                         {} communities\n",
                        gp.communities
                    ),
                    Err(e) => println!("conservation: FAILED: {e}\n"),
                }
            }
            if gp.conservation.is_err() {
                leaked += 1;
            }
            profiles.push(gp);
        }
    }
    let cfg = LpaConfig::default();
    let meta = run_meta(&[
        ("threads", resolve_threads(cfg.threads).to_string()),
        ("device", cfg.device.preset_name()),
        ("probe", cfg.probe.label().to_string()),
    ]);
    if json {
        println!("{}", report_to_json(&meta, &profiles));
    }
    if let Some(tp) = telemetry_path {
        nu_lpa::telemetry::write_snapshot(tp, &nu_lpa::telemetry::global().snapshot())?;
        if !json {
            eprintln!("telemetry snapshot written to {tp}");
        }
    }
    if leaked > 0 {
        return Err(format!(
            "profile: attribution leaked cycles in {leaked} of {} runs",
            profiles.len()
        ));
    }
    let rows: Vec<Row> = profiles.iter().map(gate_row).collect();
    write_or_check_baseline(args, &CYCLE_GATE, &meta, &rows)
}

/// `nulpa sancheck`: run the shipped backends under the dynamic hazard
/// checker (shadow-memory wave-race/invariant detection) and fail with a
/// non-zero exit if any hazard is reported. Without a graph argument a
/// built-in suite of small generated graphs is used; `--json` prints one
/// machine-readable report object per run.
fn cmd_sancheck(args: &[String]) -> Result<(), String> {
    use nu_lpa::core::{lpa_gpu, SwapMode};
    use nu_lpa::metrics::check_labels;
    use nu_lpa::obs::json::escape;
    use nu_lpa::sancheck::{install, uninstall, CheckerConfig};
    use nu_lpa::simt::DeviceConfig;

    let json = args.iter().any(|a| a == "--json");
    let graph_path = args.iter().find(|a| !a.starts_with("--"));
    let graphs: Vec<(String, Csr)> = match graph_path {
        Some(p) => vec![(p.clone(), load_graph(p, 0)?)],
        None => nu_lpa::graph::gen::builtin_trio(),
    };

    // Backend × device matrix. The CC1 run forces a Cross-Check pass after
    // every iteration, driving the atomic-exchange revert kernel; the tiny
    // device maximises wave count (and thus flush/epoch transitions) on
    // small graphs.
    let tiny = LpaConfig::default().with_device(DeviceConfig::tiny());
    let a100 = LpaConfig::default();
    let cc1 = tiny.with_swap_mode(SwapMode::CrossCheck { every: 1 });
    type RunFn = Box<dyn Fn(&Csr) -> Vec<u32>>;
    let runs: Vec<(&str, RunFn)> = vec![
        (
            "nu-lpa-sim/tiny",
            Box::new(move |g| lpa_gpu(g, &tiny).labels),
        ),
        (
            "nu-lpa-sim/a100",
            Box::new(move |g| lpa_gpu(g, &a100).labels),
        ),
        (
            "nu-lpa-sim/tiny+cc1",
            Box::new(move |g| lpa_gpu(g, &cc1).labels),
        ),
        (
            "nu-lpa",
            Box::new(|g| lpa_native(g, &LpaConfig::default()).labels),
        ),
        (
            "gunrock",
            Box::new(|g| gunrock_lp(g, &GunrockConfig::default()).labels),
        ),
    ];

    let mut total_hazards = 0u64;
    let mut failed_runs = 0usize;
    let mut json_rows = Vec::new();
    for (gname, g) in &graphs {
        for (bname, run) in &runs {
            install(CheckerConfig::default());
            let labels = run(g);
            let report = uninstall().expect("checker installed above");
            check_labels(g, &labels)
                .map_err(|e| format!("sancheck: {gname}/{bname}: invalid labels: {e}"))?;
            if json {
                json_rows.push(format!(
                    "{{\"graph\":{},\"backend\":{},\"report\":{}}}",
                    escape(gname),
                    escape(bname),
                    report.to_json()
                ));
            } else if report.is_clean() {
                println!(
                    "ok   {gname:<18} {bname:<20} {} accesses, 0 hazards",
                    report.accesses
                );
            } else {
                println!(
                    "FAIL {gname:<18} {bname:<20} {} hazards:",
                    report.total_hazards()
                );
                print!("{}", report.render());
            }
            total_hazards += report.total_hazards();
            if !report.is_clean() {
                failed_runs += 1;
            }
        }
    }
    if json {
        println!("[{}]", json_rows.join(","));
    }
    if total_hazards > 0 {
        return Err(format!(
            "sancheck: {total_hazards} hazards across {failed_runs} runs"
        ));
    }
    if !json {
        println!(
            "sancheck: {} runs clean ({} graphs x {} backends)",
            graphs.len() * runs.len(),
            graphs.len(),
            runs.len()
        );
    }
    Ok(())
}

/// `nulpa check [--json] [--inject] [--root DIR]` — run the static
/// kernel effect verifier and the workspace invariant linter. Exits
/// non-zero on any finding; `--inject` adds the fault-injection
/// descriptors (the gate must then fail — that is its self-test).
fn cmd_check(args: &[String]) -> Result<(), String> {
    use nu_lpa::check::{register_injected, run_check};

    let json = args.iter().any(|a| a == "--json");
    let inject = args.iter().any(|a| a == "--inject");
    let root = match opt_value(args, "--root") {
        Some(r) => std::path::PathBuf::from(r),
        None => workspace_root()?,
    };
    let mut registry = nu_lpa::core::shipped_effects();
    if inject {
        register_injected(&mut registry);
    }
    let report = run_check(&root, &registry);
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if !report.is_clean() {
        return Err(format!(
            "check: {} findings across {} kernels / {} files",
            report.total_findings(),
            report.kernels_checked,
            report.files_scanned
        ));
    }
    Ok(())
}

/// Locate the workspace root by walking up from the current directory
/// until a `Cargo.toml` containing a `[workspace]` table is found.
fn workspace_root() -> Result<std::path::PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(
                "check: no workspace Cargo.toml above the current directory \
                 (pass --root <dir>)"
                    .into(),
            );
        }
    }
}

//! Host-parallel scaling of the SIMT simulator and the native backend.
//!
//! Runs `nulpa`-style community detection on the largest benchmark graph
//! at 1, 2 and 4 host threads — first on the GPU-simulator backend,
//! then on the native sweep — records
//! median wall-clock per thread count, and cross-checks that every run
//! produces bit-identical labels (plus simulator statistics and
//! staged-write collision counts for the simulator runs): the
//! determinism contract of the sharded wave scheduler and of the
//! native block-synchronous sweep. Emits `results/parallel_scaling.json`.
//!
//! Speedup is only expected when the machine actually has that many
//! hardware threads. Every row carries a `degraded` flag — set when the
//! host has a single hardware thread or fewer hardware threads than the
//! row requested — so single-core CI numbers are never misread as a
//! scaling regression.
//!
//! `--check-scaling` turns the binary into a perf gate ([`SCALING_GATE`]):
//! it exits non-zero unless the native backend reaches a 1.15x speedup
//! at 2 threads (on a host with at least 2 hardware threads) and a 2x
//! speedup at 4 threads (with at least 4); a rule whose host is too
//! small has the verdict SKIP. Run it at the default scale: at `--quick`
//! scale the blocks are so few that barrier waits dominate the sweep.

use nulpa_bench::{print_header, timing_stats, BenchArgs, Report, Table, TimingStats};
use nulpa_core::{lpa_gpu, lpa_native, lpa_native_hostprof, LpaConfig};
use nulpa_graph::datasets::figure_specs;
use nulpa_obs::gate::{Gate, Row, Rule};
use nulpa_telemetry::hostprof::summarize;

// Meter the heap so the report's meta carries `alloc_peak_bytes`.
nulpa_telemetry::install_counting_alloc!();

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// `--check-scaling`: the native backend's speedups may not fall below
/// the code-built baseline row (`speedup_t2 = 1.15`, `speedup_t4 = 2`),
/// each enforced only when the host has a hardware thread per lane.
const SCALING_GATE: Gate = Gate {
    name: "scaling",
    rules: &[
        Rule::higher("speedup_t2", 0.0, 0.0).guarded("hw_threads", 1.0),
        Rule::higher("speedup_t4", 0.0, 0.0).guarded("hw_threads", 3.0),
    ],
};

fn main() {
    // `--check-scaling` is specific to this binary; strip it before the
    // shared parser (which rejects unknown flags) sees the rest.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let check_scaling = match raw.iter().position(|a| a == "--check-scaling") {
        Some(i) => {
            raw.remove(i);
            true
        }
        None => false,
    };
    let args = match BenchArgs::parse_from(raw) {
        Ok(Some(a)) => {
            if let Some(t) = a.threads {
                std::env::set_var("NULPA_THREADS", t.to_string());
            }
            a
        }
        Ok(None) => {
            println!("{} , --check-scaling (gate: fail unless the native backend reaches 1.15x at 2 threads and 2x at 4; each rule SKIPs without a hw thread per lane)", nulpa_bench::USAGE);
            return;
        }
        Err(e) => {
            eprintln!("{e}\n{}", nulpa_bench::USAGE);
            std::process::exit(2);
        }
    };

    let spec = figure_specs()
        .into_iter()
        .max_by_key(|s| s.scaled_vertices(args.scale))
        .expect("figure_specs is non-empty");
    let d = spec.generate(args.scale);
    let g = &d.graph;
    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    eprintln!(
        "largest bench graph: {} (|V|={}, |E|={}), host has {} hardware thread(s)",
        spec.name,
        g.num_vertices(),
        g.num_edges(),
        hw_threads
    );

    let degraded = |threads: usize| hw_threads == 1 || threads > hw_threads;

    // --- GPU-simulator ladder -------------------------------------------
    // (threads, p50 ms, stats) — the runs must be bit-identical across
    // thread counts (the deterministic-merge contract).
    let mut rows: Vec<(usize, f64, TimingStats)> = Vec::new();
    let mut reference = None;
    for &threads in &THREAD_COUNTS {
        // explicit thread count, overriding any NULPA_THREADS in the env
        let cfg = LpaConfig::default().with_threads(threads);
        let (stats, r) = timing_stats(args.repeats, || lpa_gpu(g, &cfg));
        match &reference {
            None => reference = Some(r),
            Some(base) => {
                assert_eq!(
                    r.labels, base.labels,
                    "labels diverged at {threads} threads"
                );
                assert_eq!(
                    r.stats, base.stats,
                    "simulator stats diverged at {threads} threads"
                );
                assert_eq!(
                    r.staged_collisions, base.staged_collisions,
                    "staged collisions diverged at {threads} threads"
                );
            }
        }
        rows.push((threads, stats.p50.as_secs_f64() * 1e3, stats));
    }

    // --- Native sweep ladder ----------------------------------------------
    // The block-synchronous sweep must keep labels bit-identical to the
    // single-thread run at every thread count.
    // Each thread count also gets one *profiled* run (outside the timing
    // loop, so recorder overhead never lands in the wall-clock columns)
    // attributing imbalance (max/mean busy) and the repair rate.
    let mut native_rows: Vec<(usize, f64, TimingStats, f64, f64)> = Vec::new();
    {
        let mut reference: Option<Vec<u32>> = None;
        for &threads in &THREAD_COUNTS {
            let cfg = LpaConfig::default().with_threads(threads);
            let (stats, r) = timing_stats(args.repeats, || lpa_native(g, &cfg));
            match &reference {
                None => reference = Some(r.labels),
                Some(base) => assert_eq!(
                    &r.labels, base,
                    "native labels diverged at {threads} threads"
                ),
            }
            let (pr, prof) = lpa_native_hostprof(g, &cfg);
            assert_eq!(
                &pr.labels,
                reference.as_ref().unwrap(),
                "profiled native labels diverged at {threads} threads"
            );
            let (imbalance, repair_rate) = prof
                .map(|d| {
                    let rep = summarize(spec.name, &d);
                    (rep.imbalance, rep.repair_rate)
                })
                .unwrap_or((1.0, 0.0));
            native_rows.push((
                threads,
                stats.p50.as_secs_f64() * 1e3,
                stats,
                imbalance,
                repair_rate,
            ));
        }
    }

    print_header(&format!(
        "Host-parallel scaling on {} ({} hw thread(s))",
        spec.name, hw_threads
    ));
    println!(
        "{:<10} {:<8} {:>12} {:>12} {:>12} {:>10} {:>9} {:>10} {:>8}",
        "mode",
        "threads",
        "min (ms)",
        "p50 (ms)",
        "p95 (ms)",
        "speedup",
        "degraded",
        "imbalance",
        "repair"
    );
    let base_ms = rows[0].1;
    for &(threads, ms, stats) in &rows {
        println!(
            "{:<10} {threads:<8} {:>12.2} {ms:>12.2} {:>12.2} {:>9.2}x {:>9} {:>10} {:>8}",
            "sim",
            stats.min.as_secs_f64() * 1e3,
            stats.p95.as_secs_f64() * 1e3,
            base_ms / ms.max(1e-9),
            if degraded(threads) { "yes" } else { "no" },
            "-",
            "-",
        );
    }
    let native_base_ms = native_rows[0].1;
    for &(threads, ms, stats, imbalance, repair_rate) in &native_rows {
        println!(
            "{:<10} {threads:<8} {:>12.2} {ms:>12.2} {:>12.2} {:>9.2}x {:>9} {:>9.2}x {:>7.2}%",
            "native",
            stats.min.as_secs_f64() * 1e3,
            stats.p95.as_secs_f64() * 1e3,
            native_base_ms / ms.max(1e-9),
            if degraded(threads) { "yes" } else { "no" },
            imbalance,
            repair_rate * 100.0,
        );
    }
    println!("\nall thread counts produced bit-identical labels (and simulator stats)");
    if THREAD_COUNTS.iter().any(|&t| degraded(t)) {
        eprintln!(
            "warning: host has {hw_threads} hardware thread(s) but the ladder requests up to {} — \
             degraded rows measure oversubscription, not scaling; rerun on a multi-core host",
            THREAD_COUNTS.iter().max().unwrap()
        );
    }

    let mut report = Report::new("parallel_scaling", &args);
    let mut t = Table::new(
        &format!("nulpa detect wall-clock on {}", spec.name),
        &[
            "threads",
            "min_ms",
            "wall_ms",
            "p95_ms",
            "speedup",
            "hw_threads",
            "degraded",
        ],
    );
    for &(threads, ms, stats) in &rows {
        t.row(
            &format!("sim:threads={threads}"),
            &[
                threads as f64,
                stats.min.as_secs_f64() * 1e3,
                ms,
                stats.p95.as_secs_f64() * 1e3,
                base_ms / ms.max(1e-9),
                hw_threads as f64,
                degraded(threads) as u8 as f64,
            ],
        );
        report.record_timing(&format!("{}::sim:threads={threads}", spec.name), stats);
    }
    report.push(t);

    let mut nt = Table::new(
        &format!("lpa_native wall-clock on {}", spec.name),
        &[
            "threads",
            "min_ms",
            "wall_ms",
            "p95_ms",
            "speedup",
            "hw_threads",
            "degraded",
            "imbalance",
            "repair_rate",
        ],
    );
    for &(threads, ms, stats, imbalance, repair_rate) in &native_rows {
        nt.row(
            &format!("native:threads={threads}"),
            &[
                threads as f64,
                stats.min.as_secs_f64() * 1e3,
                ms,
                stats.p95.as_secs_f64() * 1e3,
                native_base_ms / ms.max(1e-9),
                hw_threads as f64,
                degraded(threads) as u8 as f64,
                imbalance,
                repair_rate,
            ],
        );
        report.record_timing(&format!("{}::native:threads={threads}", spec.name), stats);
    }
    report.push(nt);

    match report.write(&args.json) {
        Ok(path) => eprintln!("json report written to {path}"),
        Err(e) => eprintln!("warning: could not write json report: {e}"),
    }
    match args.write_telemetry() {
        Ok(Some(path)) => eprintln!("telemetry snapshot written to {path}"),
        Ok(None) => {}
        Err(e) => eprintln!("warning: could not write telemetry snapshot: {e}"),
    }

    if check_scaling {
        let speedup = |threads: usize| {
            let row = native_rows
                .iter()
                .find(|(t, ..)| *t == threads)
                .expect("thread ladder includes 2 and 4");
            native_base_ms / row.1.max(1e-9)
        };
        let current = Row::new("native")
            .with("speedup_t2", speedup(2))
            .with("speedup_t4", speedup(4))
            .with("hw_threads", hw_threads as f64);
        let floor = Row::new("native")
            .with("speedup_t2", 1.15)
            .with("speedup_t4", 2.0);
        let report = SCALING_GATE.check(&[floor], &[current]);
        print!("{}", report.render());
        if let Err(e) = report.result() {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

//! Perf baseline for the cycle-attribution profiler.
//!
//! Default mode profiles the built-in graph trio across every profiling
//! backend and writes `results/prof_baseline.json` — the committed
//! `gate-v1` baseline the CI perf gate compares against: one row per
//! `(graph, backend)` with the total cycle ledger, every component's
//! cycles and the conservation flag. `--check` re-profiles the same
//! matrix, writes the current rows to `results/prof_current.json`, and
//! exits non-zero if any row fails [`CYCLE_GATE`]. Both modes also check
//! [`FRONTIER_GATE`]. The simulator is deterministic, so any drift is a
//! real cost-model or algorithm change, not noise.
//!
//! ```text
//! profile_baseline [--check] [--baseline PATH] [--out PATH] [--help]
//! ```

use nulpa_core::{resolve_threads, LpaConfig};
use nulpa_graph::gen::builtin_trio;
use nulpa_obs::gate::{self, Gate, Row, Rule};
use nulpa_obs::meta::run_meta;
use nulpa_prof::json::gate_row;
use nulpa_prof::{backends, profile_graph, GraphProfile};
use std::process::ExitCode;

const USAGE: &str = "profile_baseline: write or check the profiler perf baseline
options: --check (compare against the baseline instead of rewriting it),
--baseline <path> (default results/prof_baseline.json),
--out <path> (default results/prof_baseline.json, or results/prof_current.json with --check),
--help";

/// Every cycle total and component may grow at most 5% over the baseline;
/// attribution must stay conserved.
const CYCLE_GATE: Gate = Gate {
    name: "perf",
    rules: &[
        Rule::lower("sim_cycles", 0.05, 0.0),
        Rule::lower("lane_cycles", 0.05, 0.0),
        Rule::lower("idle_cycles", 0.05, 0.0),
        Rule::lower("imbalance_cycles", 0.05, 0.0),
        Rule::lower("stall_cycles", 0.05, 0.0),
        Rule::lower("alu", 0.05, 0.0),
        Rule::lower("global_near", 0.05, 0.0),
        Rule::lower("global_far", 0.05, 0.0),
        Rule::lower("atomic", 0.05, 0.0),
        Rule::lower("probe_near", 0.05, 0.0),
        Rule::lower("probe_far", 0.05, 0.0),
        Rule::lower("shared", 0.05, 0.0),
        Rule::lower("barrier", 0.05, 0.0),
        Rule::lower("frontier_compact", 0.05, 0.0),
        Rule::exact("conserved"),
    ],
};

/// The frontier acceptance lock: the compacted active-set mode must cut
/// at least 25% of its dense counterpart's simulated cycles on at least
/// one `(graph, device)` cell of the matrix. Its baseline is a row built
/// in code, not a file: `best_cut_pct = 25`.
const FRONTIER_GATE: Gate = Gate {
    name: "frontier",
    rules: &[Rule::higher("best_cut_pct", 0.0, 0.0)],
};

struct Args {
    check: bool,
    baseline: String,
    out: Option<String>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut a = Args {
        check: false,
        baseline: "results/prof_baseline.json".into(),
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--check" => a.check = true,
            "--baseline" => a.baseline = it.next().ok_or("--baseline needs a path")?,
            "--out" => a.out = Some(it.next().ok_or("--out needs a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(a))
}

fn run_matrix() -> Result<Vec<GraphProfile>, String> {
    let mut profiles = Vec::new();
    for (gname, g) in &builtin_trio() {
        for spec in &backends() {
            let gp = profile_graph(gname, g, spec);
            if let Err(e) = &gp.conservation {
                return Err(format!("{gname}/{}: conservation failed: {e}", spec.name));
            }
            profiles.push(gp);
        }
    }
    Ok(profiles)
}

/// The frontier gate's current row: the best reduction of simulated
/// cycles any `-frontier` backend achieves over its dense counterpart.
/// No frontier backends means no row, which the gate fails as missing.
fn frontier_row(profiles: &[GraphProfile]) -> Result<Vec<Row>, String> {
    let mut best: Option<f64> = None;
    for gp in profiles {
        let Some(dense_name) = gp.profile.backend.strip_suffix("-frontier") else {
            continue;
        };
        let dense = profiles
            .iter()
            .find(|d| d.profile.backend == dense_name && d.profile.graph == gp.profile.graph)
            .ok_or_else(|| {
                format!(
                    "frontier gate: no dense counterpart `{dense_name}` for {}/{}",
                    gp.profile.graph, gp.profile.backend
                )
            })?;
        let cut = 100.0
            * (1.0 - gp.profile.totals.sim_cycles as f64 / dense.profile.totals.sim_cycles as f64);
        println!(
            "frontier vs dense {:<18} {:<6} {:>+6.1}% sim cycles",
            gp.profile.graph, dense_name, -cut
        );
        best = Some(best.map_or(cut, |b: f64| b.max(cut)));
    }
    Ok(best
        .map(|b| Row::new("frontier").with("best_cut_pct", b))
        .into_iter()
        .collect())
}

fn write_report(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let profiles = run_matrix()?;
    let cfg = LpaConfig::default();
    let meta = run_meta(&[
        ("threads", resolve_threads(cfg.threads).to_string()),
        ("device", cfg.device.preset_name()),
        ("probe", cfg.probe.label().to_string()),
    ]);
    for gp in &profiles {
        println!(
            "profiled {:<18} {:<12} {:>10} cycles, {} iterations, {} communities",
            gp.profile.graph,
            gp.profile.backend,
            gp.profile.totals.sim_cycles,
            gp.profile.iterations,
            gp.communities,
        );
    }
    let floor = Row::new("frontier").with("best_cut_pct", 25.0);
    let frontier = FRONTIER_GATE.check(&[floor], &frontier_row(&profiles)?);
    print!("{}", frontier.render());
    frontier.result()?;

    let rows: Vec<Row> = profiles.iter().map(gate_row).collect();
    let text = gate::to_json(&meta, &rows);
    if !args.check {
        let out = args.out.clone().unwrap_or_else(|| args.baseline.clone());
        write_report(&out, &text)?;
        println!("baseline written to {out} ({} rows)", rows.len());
        return Ok(());
    }

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "results/prof_current.json".into());
    write_report(&out, &text)?;
    println!("current rows written to {out}");
    let baseline = std::fs::read_to_string(&args.baseline).map_err(|e| {
        format!(
            "{}: {e} (generate it with `profile_baseline`)",
            args.baseline
        )
    })?;
    let report = CYCLE_GATE.check_json(&baseline, &rows)?;
    print!("{}", report.render());
    report.result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_gate_rules_every_component() {
        for c in nulpa_simt::Comp::all() {
            assert!(
                CYCLE_GATE.rules.iter().any(|r| r.metric == c.label()),
                "no perf-gate rule for component {}",
                c.label()
            );
        }
    }
}

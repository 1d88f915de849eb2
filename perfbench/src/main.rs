//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed in a child process,
//! measures them in this one, and prints the manifest, the sample
//! spreads and, last, the result object. Exits 1 when a check failed and
//! 2 on any error.

use nulpa_perfbench::measure::{measure, Opts};
use nulpa_perfbench::report;
use nulpa_perfbench::workload::{write_inputs, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

nulpa_telemetry::install_counting_alloc!();

const USAGE: &str =
    "usage: perfbench --workload <kmer|web|road-stream> --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or(format!("missing {name}\n{USAGE}"))?;
    v.parse()
        .map_err(|_| format!("{name}: bad value `{v}`\n{USAGE}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = flag(&args, "--workload").ok_or(format!("missing --workload\n{USAGE}"))?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload `{name}`\n{USAGE}"))?;
    let seed: u64 = parsed(&args, "--seed")?;

    // Child mode: write the inputs.
    if let Some(dir) = flag(&args, "--generate-into") {
        write_inputs(Path::new(dir), workload, workload.scale(), seed)
            .map_err(|e| format!("{dir}: {e}"))?;
        return Ok(ExitCode::SUCCESS);
    }

    let seconds: f64 = parsed(&args, "--seconds")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number\n{USAGE}"));
    }
    let trace = match flag(&args, "--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err(format!("--trace must be 0 or 1\n{USAGE}")),
    };
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
    };

    // Inputs go next to the executable, inside the build directory.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir: PathBuf = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perfbench-work")
        .join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = generate(&exe, &dir, workload, seed).and_then(|()| measure(&dir, &opts));
    let _ = std::fs::remove_dir_all(&dir);
    let out = result?;

    let result = report::result_line(&out, trace)?;
    println!("{}", report::manifest_line(&out, workload.name()));
    println!("{}", report::samples_line(&out));
    for f in &out.checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{result}");
    Ok(if out.checks.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run this executable in child mode to write the inputs, so that the
/// generator's allocations stay out of the measuring process's heap peak.
fn generate(exe: &Path, dir: &Path, workload: Workload, seed: u64) -> Result<(), String> {
    let out = Command::new(exe)
        .arg("--generate-into")
        .arg(dir)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("input generator: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "input generator failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ))
    }
}

//! The append-only run ledger: `results/history.jsonl`.
//!
//! Every telemetered run appends one [`RunRecord`] line — provenance
//! meta (git revision, threads, device), the graph and backend, host
//! wall-clock and phase breakdown, heap/RSS footprint, and the
//! convergence outcome (iterations, communities, final modularity, and
//! the full per-iteration trajectory). Run-over-run history is what the
//! quality gate and every future perf PR is judged against: a
//! point-in-time `results/*.json` report can say "this run was fast",
//! only the ledger can say "this run was faster than last week's".

use crate::convergence::IterationSample;
use nulpa_obs::json::{escape, fmt_f64};
use nulpa_obs::meta::meta_json;
use std::io::Write;

/// One closed phase span (see [`crate::span::PhaseSpan`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSample {
    /// Phase name (`load`, `build`, `iterate`, `flush`, `merge`, …).
    pub name: String,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Bytes allocated while the span was open (0 without the counting
    /// allocator installed).
    pub alloc_bytes: u64,
    /// Allocation calls while the span was open.
    pub allocs: u64,
}

impl PhaseSample {
    /// Serialise as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"wall_ns\":{},\"alloc_bytes\":{},\"allocs\":{}}}",
            escape(&self.name),
            self.wall_ns,
            self.alloc_bytes,
            self.allocs
        )
    }
}

/// One run's ledger entry.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Provenance (`git_rev`, `threads`, `device`, `hw_threads`, …) from
    /// [`nulpa_obs::meta::run_meta`] plus host-environment keys.
    pub meta: Vec<(String, String)>,
    /// Graph name or path.
    pub graph: String,
    /// Backend name (`seq`, `nu-lpa`, `nu-lpa-sim`).
    pub backend: String,
    /// Vertices.
    pub n: usize,
    /// Directed edges.
    pub m: usize,
    /// Total wall-clock of the measured run, milliseconds.
    pub wall_ms: f64,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseSample>,
    /// Peak live heap bytes (counting allocator), if installed.
    pub peak_heap_bytes: Option<u64>,
    /// OS peak RSS bytes (`VmHWM`), if available.
    pub peak_rss_bytes: Option<u64>,
    /// Iterations performed.
    pub iterations: u32,
    /// Whether the tolerance test fired before the cap.
    pub converged: bool,
    /// Final community count.
    pub communities: usize,
    /// Final modularity `Q`.
    pub modularity: f64,
    /// Per-iteration convergence trajectory.
    pub trajectory: Vec<IterationSample>,
}

fn opt_u64(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "null".into())
}

impl RunRecord {
    /// Serialise as a single JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"meta\":");
        out.push_str(&meta_json(&self.meta));
        out.push_str(&format!(
            ",\"graph\":{},\"backend\":{},\"n\":{},\"m\":{},\"wall_ms\":{}",
            escape(&self.graph),
            escape(&self.backend),
            self.n,
            self.m,
            fmt_f64(self.wall_ms)
        ));
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.to_json());
        }
        out.push_str(&format!(
            "],\"peak_heap_bytes\":{},\"peak_rss_bytes\":{}",
            opt_u64(self.peak_heap_bytes),
            opt_u64(self.peak_rss_bytes)
        ));
        out.push_str(&format!(
            ",\"iterations\":{},\"converged\":{},\"communities\":{},\"modularity\":{}",
            self.iterations,
            self.converged,
            self.communities,
            fmt_f64(self.modularity)
        ));
        out.push_str(",\"trajectory\":[");
        for (i, s) in self.trajectory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"iter\":{},\"dN\":{},\"active\":{},\"active_fraction\":{},\
                 \"communities\":{},\"entropy_bits\":{},\"modularity\":{}}}",
                s.iter,
                s.delta_n,
                s.active,
                fmt_f64(s.active_fraction),
                s.communities,
                fmt_f64(s.entropy_bits),
                fmt_f64(s.modularity)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Append records to the JSONL ledger at `path` (created, along with its
/// parent directory, if missing). Returns the number of lines written.
pub fn append_history(path: &str, records: &[RunRecord]) -> Result<usize, String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    for r in records {
        writeln!(f, "{}", r.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_obs::json::parse;

    fn record() -> RunRecord {
        RunRecord {
            meta: vec![("git_rev".into(), "abc123".into())],
            graph: "two-cliques-s6".into(),
            backend: "seq".into(),
            n: 12,
            m: 62,
            wall_ms: 1.25,
            phases: vec![PhaseSample {
                name: "iterate".into(),
                wall_ns: 1_000_000,
                alloc_bytes: 4096,
                allocs: 10,
            }],
            peak_heap_bytes: Some(1 << 20),
            peak_rss_bytes: None,
            iterations: 3,
            converged: true,
            communities: 2,
            modularity: 0.4286,
            trajectory: vec![IterationSample {
                iter: 0,
                delta_n: 10,
                active: 12,
                active_fraction: 1.0,
                communities: 2,
                entropy_bits: 1.0,
                modularity: 0.4286,
            }],
        }
    }

    #[test]
    fn record_serialises_to_parseable_json() {
        let text = record().to_json();
        let v = parse(&text).expect("ledger line must parse");
        assert_eq!(v.get("backend").unwrap().as_str(), Some("seq"));
        assert_eq!(v.get("iterations").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("peak_heap_bytes").unwrap().as_u64(), Some(1 << 20));
        assert_eq!(v.get("peak_rss_bytes"), Some(&nulpa_obs::json::Json::Null));
        let traj = v.get("trajectory").unwrap().as_arr().unwrap();
        assert_eq!(traj.len(), 1);
        assert_eq!(traj[0].get("dN").unwrap().as_u64(), Some(10));
        let phases = v.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("name").unwrap().as_str(), Some("iterate"));
    }

    #[test]
    fn append_is_append_only() {
        let dir = std::env::temp_dir().join("nulpa-telemetry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history_append.jsonl");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_history(path, &[record()]).unwrap();
        append_history(path, &[record(), record()]).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            parse(line).expect("every ledger line parses");
        }
    }
}

//! Shared utilities for the figure/table binaries.

use nulpa_graph::datasets::{DEFAULT_SCALE, TEST_SCALE};
use nulpa_obs::json::{escape, fmt_f64};
use std::time::{Duration, Instant};

/// Flag summary printed by `--help` and appended to parse errors.
pub const USAGE: &str = "options: --scale <f> (fraction of the paper's graph sizes), \
--quick (tiny test scale), --repeats <n> (runs per measurement), \
--threads <n> (host threads for the simulator; also NULPA_THREADS), \
--json <path> (machine-readable results), \
--telemetry <path> (metrics-registry snapshot: .prom or JSONL), --help";

/// Command-line arguments shared by every harness binary.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// Fraction of the paper's dataset sizes to generate.
    pub scale: f64,
    /// Wall-clock repetitions per measurement (paper: 5).
    pub repeats: usize,
    /// Host threads for the simulator's sharded wave execution (`None` =
    /// auto). [`Self::parse`] exports this as `NULPA_THREADS` so every
    /// `LpaConfig::default()` in a harness picks it up.
    pub threads: Option<usize>,
    /// Override path for the machine-readable JSON report (binaries that
    /// emit one default to `results/<binary>.json`).
    pub json: Option<String>,
    /// Path for a metrics-registry snapshot written at exit via
    /// [`Self::write_telemetry`] (`.prom` → Prometheus text, else JSONL).
    pub telemetry: Option<String>,
}

impl BenchArgs {
    /// Parse `--scale <f>`, `--quick`, `--repeats <n>`, `--json <path>`
    /// from `std::env`. `--help`/`-h` prints usage and exits 0; a parse
    /// error prints usage and exits 2.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(Some(a)) => {
                if let Some(t) = a.threads {
                    // Export before any backend call so every
                    // `LpaConfig::default()` (threads = 0 → resolve via
                    // env) in this process honours the flag.
                    std::env::set_var("NULPA_THREADS", t.to_string());
                }
                a
            }
            Ok(None) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Testable parser over any argument iterator. `Ok(None)` means
    /// `--help` was requested.
    pub fn parse_from<I>(args: I) -> Result<Option<Self>, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut scale = DEFAULT_SCALE;
        let mut repeats = 5;
        let mut threads = None;
        let mut json = None;
        let mut telemetry = None;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--help" | "-h" => return Ok(None),
                "--quick" => {
                    scale = TEST_SCALE;
                    repeats = 2;
                }
                "--scale" => {
                    scale = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--scale needs a float")?;
                }
                "--repeats" => {
                    repeats = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--repeats needs an integer")?;
                    if repeats == 0 {
                        return Err(
                            "--repeats must be at least 1 (0 runs cannot produce a measurement)"
                                .into(),
                        );
                    }
                }
                "--threads" => {
                    let t: usize = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--threads needs a positive integer")?;
                    if t == 0 || t > nulpa_core::MAX_THREADS {
                        return Err(format!(
                            "--threads needs an integer in 1..={}",
                            nulpa_core::MAX_THREADS
                        ));
                    }
                    threads = Some(t);
                }
                "--json" => {
                    json = Some(args.next().ok_or("--json needs a path")?);
                }
                "--telemetry" => {
                    telemetry = Some(args.next().ok_or("--telemetry needs a path")?);
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Some(BenchArgs {
            scale,
            repeats,
            threads,
            json,
            telemetry,
        }))
    }

    /// Write a snapshot of the global metrics registry to the
    /// `--telemetry` path, if one was given. Returns the path written.
    pub fn write_telemetry(&self) -> Result<Option<&str>, String> {
        match &self.telemetry {
            None => Ok(None),
            Some(path) => {
                nulpa_telemetry::write_snapshot(path, &nulpa_telemetry::global().snapshot())?;
                Ok(Some(path))
            }
        }
    }
}

/// Wall-clock distribution over the repeats of one measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingStats {
    /// Fastest run.
    pub min: Duration,
    /// Median (p50; even counts take the midpoint of the middle pair).
    pub p50: Duration,
    /// 95th percentile (nearest-rank; equals the max below 20 repeats).
    pub p95: Duration,
    /// Slowest run.
    pub max: Duration,
    /// Number of runs measured.
    pub repeats: usize,
}

impl TimingStats {
    /// Compute from a non-empty sample set (sorts `times` in place).
    pub fn from_times(times: &mut [Duration]) -> Self {
        assert!(!times.is_empty());
        let p50 = median_duration(times); // sorts
        let n = times.len();
        // nearest-rank percentile: smallest sample covering 95% of runs
        let p95_idx = ((0.95 * n as f64).ceil() as usize).clamp(1, n) - 1;
        TimingStats {
            min: times[0],
            p50,
            p95: times[p95_idx],
            max: times[n - 1],
            repeats: n,
        }
    }
}

/// Time `repeats` runs of `f`, returning the full timing distribution
/// alongside the last result.
pub fn timing_stats<T>(repeats: usize, mut f: impl FnMut() -> T) -> (TimingStats, T) {
    assert!(repeats >= 1, "timing_stats needs at least one repeat");
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let out = f();
        times.push(t0.elapsed());
        last = Some(out);
    }
    (TimingStats::from_times(&mut times), last.unwrap())
}

/// Median wall time of `repeats` runs of `f` (the paper averages five
/// runs; the median is more robust on a shared machine). For an even
/// number of runs the median is the midpoint of the two middle samples —
/// taking the upper element would bias every even-`repeats` measurement
/// upward by up to half the inter-sample gap.
pub fn median_time<T>(repeats: usize, f: impl FnMut() -> T) -> (Duration, T) {
    let (stats, out) = timing_stats(repeats, f);
    (stats.p50, out)
}

/// Median of a non-empty set of durations; even counts take the midpoint
/// of the two middle elements. Sorts `times` in place.
fn median_duration(times: &mut [Duration]) -> Duration {
    times.sort();
    let mid = times.len() / 2;
    if times.len().is_multiple_of(2) {
        (times[mid - 1] + times[mid]) / 2
    } else {
        times[mid]
    }
}

/// Geometric mean of a series of positive ratios (the paper's "mean
/// relative runtime" aggregation). `None` on an empty series — there is
/// no meaningful mean of nothing, and benchmark sweeps can legitimately
/// produce empty series (e.g. `--scale` so small a dataset degenerates).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s: f64 = xs.iter().map(|&x| x.max(1e-300).ln()).sum();
    Some((s / xs.len() as f64).exp())
}

/// Print a figure/table header with a separator line.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
}

/// One labelled table of a machine-readable benchmark report.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title, e.g. `"Fig. 6a: runtime in seconds"`.
    pub title: String,
    /// Column names (one per value in each row).
    pub columns: Vec<String>,
    /// Rows: a label (graph or config name) plus one value per column.
    /// Non-finite values serialise as `null`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// New empty table.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, label: &str, values: &[f64]) -> &mut Self {
        self.rows.push((label.to_string(), values.to_vec()));
        self
    }
}

/// Machine-readable benchmark report: the same tables a figure binary
/// prints, serialised as hand-rolled JSON (the build is offline — no
/// serde). See EXPERIMENTS.md for the schema.
#[derive(Clone, Debug)]
pub struct Report {
    /// Report name; the default output path is `results/<name>.json`.
    pub name: String,
    /// Scale the datasets were generated at.
    pub scale: f64,
    /// Repetitions per measurement.
    pub repeats: usize,
    /// Run provenance (`git_rev`, `threads`, `device`, `probe`), stamped
    /// into the JSON as a `meta` object. [`Self::new`] records the
    /// defaults of the run; binaries that sweep a dimension can override
    /// with [`Self::set_meta`].
    pub meta: Vec<(String, String)>,
    /// The tables, in print order.
    pub tables: Vec<Table>,
    /// Labelled timing distributions ([`Self::record_timing`]),
    /// serialised as a `timings` array with min/p50/p95/median columns.
    pub timings: Vec<(String, TimingStats)>,
}

impl Report {
    /// New empty report carrying the run's arguments and default
    /// provenance: git revision, resolved host thread count, and the
    /// device preset / probe scheme of `LpaConfig::default()` (the
    /// baseline configuration every harness starts from).
    pub fn new(name: &str, args: &BenchArgs) -> Self {
        let cfg = nulpa_core::LpaConfig::default();
        let meta = nulpa_obs::meta::run_meta(&[
            (
                "threads",
                nulpa_core::resolve_threads(args.threads.unwrap_or(0)).to_string(),
            ),
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
        Report {
            name: name.to_string(),
            scale: args.scale,
            repeats: args.repeats,
            meta,
            tables: Vec::new(),
            timings: Vec::new(),
        }
    }

    /// Record one labelled timing distribution for the `timings` section,
    /// mirrored into the global metrics registry (as a
    /// `bench.<report>.<label>.us` histogram) so `--telemetry` snapshots
    /// carry the same numbers.
    pub fn record_timing(&mut self, label: &str, stats: TimingStats) -> &mut Self {
        let hist = nulpa_telemetry::global().histogram(&format!(
            "bench.{}.{}.us",
            self.name,
            label.replace([' ', ':'], "_")
        ));
        for d in [stats.min, stats.p50, stats.p95, stats.max] {
            hist.record(d.as_micros() as u64);
        }
        self.timings.push((label.to_string(), stats));
        self
    }

    /// Override or append one provenance key.
    pub fn set_meta(&mut self, key: &str, value: &str) -> &mut Self {
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some(kv) => kv.1 = value.to_string(),
            None => self.meta.push((key.to_string(), value.to_string())),
        }
        self
    }

    /// Append a table.
    pub fn push(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Serialise to a JSON document. Host memory peaks (counting
    /// allocator high-water, `VmHWM` RSS) are stamped into `meta` at
    /// serialisation time so they cover the whole measured run.
    pub fn to_json(&self) -> String {
        let mut meta = self.meta.clone();
        if let Some(h) = nulpa_telemetry::heap_stats() {
            meta.push(("alloc_peak_bytes".to_string(), h.peak_bytes.to_string()));
        }
        if let Some(rss) = nulpa_telemetry::peak_rss_bytes() {
            meta.push(("peak_rss_bytes".to_string(), rss.to_string()));
        }
        let mut out = String::new();
        out.push_str("{\n  \"name\": ");
        out.push_str(&escape(&self.name));
        out.push_str(",\n  \"scale\": ");
        out.push_str(&fmt_f64(self.scale));
        out.push_str(",\n  \"repeats\": ");
        out.push_str(&fmt_f64(self.repeats as f64));
        out.push_str(",\n  \"meta\": ");
        out.push_str(&nulpa_obs::meta::meta_json(&meta));
        out.push_str(",\n  \"timings\": [");
        for (i, (label, s)) in self.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"label\": ");
            out.push_str(&escape(label));
            out.push_str(&format!(
                ", \"repeats\": {}, \"min_ms\": {}, \"p50_ms\": {}, \"median_ms\": {}, \"p95_ms\": {}, \"max_ms\": {}}}",
                s.repeats,
                fmt_f64(s.min.as_secs_f64() * 1e3),
                fmt_f64(s.p50.as_secs_f64() * 1e3),
                fmt_f64(s.p50.as_secs_f64() * 1e3),
                fmt_f64(s.p95.as_secs_f64() * 1e3),
                fmt_f64(s.max.as_secs_f64() * 1e3),
            ));
        }
        if !self.timings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"tables\": [");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"title\": ");
            out.push_str(&escape(&t.title));
            out.push_str(", \"columns\": [");
            for (j, c) in t.columns.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&escape(c));
            }
            out.push_str("], \"rows\": [");
            for (j, (label, values)) in t.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      {\"label\": ");
                out.push_str(&escape(label));
                out.push_str(", \"values\": [");
                for (k, v) in values.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&fmt_f64(*v));
                }
                out.push_str("]}");
            }
            if !t.rows.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("]}");
        }
        if !self.tables.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Write the report to `args.json` if set, else `results/<name>.json`,
    /// creating the directory as needed. Returns the path written.
    pub fn write(&self, json_override: &Option<String>) -> Result<String, String> {
        let path = json_override
            .clone()
            .unwrap_or_else(|| format!("results/{}.json", self.name));
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        std::fs::write(&path, self.to_json()).map_err(|e| format!("{path}: {e}"))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_empty_is_none() {
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn median_time_returns_result() {
        let (d, v) = median_time(3, || 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() < 1_000_000_000);
    }

    #[test]
    fn median_even_count_is_midpoint_of_middle_pair() {
        // The old implementation returned the upper of the two middle
        // elements (40ms here), inflating every even-`repeats` run.
        let ms = Duration::from_millis;
        let mut times = vec![ms(100), ms(10), ms(40), ms(20)];
        assert_eq!(median_duration(&mut times), ms(30));
        let mut two = vec![ms(10), ms(20)];
        assert_eq!(median_duration(&mut two), ms(15));
    }

    #[test]
    fn median_odd_count_is_middle_element() {
        let ms = Duration::from_millis;
        let mut times = vec![ms(500), ms(10), ms(30)];
        assert_eq!(median_duration(&mut times), ms(30));
        let mut one = vec![ms(7)];
        assert_eq!(median_duration(&mut one), ms(7));
    }

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_defaults() {
        let a = BenchArgs::parse_from(strs(&[])).unwrap().unwrap();
        assert_eq!(a.scale, nulpa_graph::datasets::DEFAULT_SCALE);
        assert_eq!(a.repeats, 5);
        assert_eq!(a.json, None);
    }

    #[test]
    fn args_quick_and_overrides() {
        let a = BenchArgs::parse_from(strs(&["--quick"])).unwrap().unwrap();
        assert_eq!(a.scale, nulpa_graph::datasets::TEST_SCALE);
        assert_eq!(a.repeats, 2);
        let a = BenchArgs::parse_from(strs(&["--scale", "0.001", "--repeats", "7"]))
            .unwrap()
            .unwrap();
        assert_eq!(a.scale, 0.001);
        assert_eq!(a.repeats, 7);
    }

    #[test]
    fn args_help_is_not_an_error() {
        assert_eq!(BenchArgs::parse_from(strs(&["--help"])), Ok(None));
        assert_eq!(BenchArgs::parse_from(strs(&["-h"])), Ok(None));
        assert_eq!(BenchArgs::parse_from(strs(&["--quick", "-h"])), Ok(None));
    }

    #[test]
    fn args_threads_flag() {
        let a = BenchArgs::parse_from(strs(&["--threads", "4"]))
            .unwrap()
            .unwrap();
        assert_eq!(a.threads, Some(4));
        let a = BenchArgs::parse_from(strs(&[])).unwrap().unwrap();
        assert_eq!(a.threads, None);
        assert!(BenchArgs::parse_from(strs(&["--threads"])).is_err());
        assert!(BenchArgs::parse_from(strs(&["--threads", "0"])).is_err());
        assert!(BenchArgs::parse_from(strs(&["--threads", "x"])).is_err());
        assert!(BenchArgs::parse_from(strs(&["--threads", "100000"])).is_err());
    }

    #[test]
    fn args_json_flag() {
        let a = BenchArgs::parse_from(strs(&["--json", "out/x.json"]))
            .unwrap()
            .unwrap();
        assert_eq!(a.json.as_deref(), Some("out/x.json"));
        assert!(BenchArgs::parse_from(strs(&["--json"])).is_err());
    }

    #[test]
    fn args_errors() {
        assert!(BenchArgs::parse_from(strs(&["--scale"])).is_err());
        assert!(BenchArgs::parse_from(strs(&["--scale", "x"])).is_err());
        assert!(BenchArgs::parse_from(strs(&["--bogus"])).is_err());
    }

    #[test]
    fn args_zero_repeats_rejected_with_clear_error() {
        let err = BenchArgs::parse_from(strs(&["--repeats", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "unhelpful error: {err}");
        assert!(BenchArgs::parse_from(strs(&["--repeats", "1"])).is_ok());
    }

    #[test]
    fn args_telemetry_flag() {
        let a = BenchArgs::parse_from(strs(&["--telemetry", "out/m.prom"]))
            .unwrap()
            .unwrap();
        assert_eq!(a.telemetry.as_deref(), Some("out/m.prom"));
        assert!(BenchArgs::parse_from(strs(&["--telemetry"])).is_err());
    }

    #[test]
    fn timing_stats_percentiles() {
        let ms = Duration::from_millis;
        let mut times: Vec<Duration> = (1..=20).map(ms).collect();
        let s = TimingStats::from_times(&mut times);
        assert_eq!(s.min, ms(1));
        assert_eq!(s.p50, (ms(10) + ms(11)) / 2);
        assert_eq!(s.p95, ms(19)); // nearest rank: ceil(0.95*20)=19th
        assert_eq!(s.max, ms(20));
        assert_eq!(s.repeats, 20);
        // small sample: p95 degenerates to the max
        let mut five: Vec<Duration> = vec![ms(5), ms(1), ms(3), ms(2), ms(4)];
        let s = TimingStats::from_times(&mut five);
        assert_eq!(s.p50, ms(3));
        assert_eq!(s.p95, ms(5));
    }

    #[test]
    fn timing_stats_orders_invariant() {
        let (s, v) = timing_stats(6, || 2 + 2);
        assert_eq!(v, 4);
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max);
        assert_eq!(s.repeats, 6);
    }

    #[test]
    fn report_timings_serialise() {
        let args = BenchArgs::parse_from(strs(&["--quick"])).unwrap().unwrap();
        let mut rep = Report::new("unit_test", &args);
        let ms = Duration::from_millis;
        let mut times = vec![ms(10), ms(20), ms(30)];
        rep.record_timing("g1::threads=2", TimingStats::from_times(&mut times));
        let v = nulpa_obs::json::parse(&rep.to_json()).unwrap();
        let timings = v.get("timings").unwrap().as_arr().unwrap();
        assert_eq!(timings.len(), 1);
        let t = &timings[0];
        assert_eq!(t.get("label").unwrap().as_str(), Some("g1::threads=2"));
        assert_eq!(t.get("min_ms").unwrap().as_f64(), Some(10.0));
        assert_eq!(t.get("p50_ms").unwrap().as_f64(), Some(20.0));
        assert_eq!(t.get("median_ms").unwrap().as_f64(), Some(20.0));
        assert_eq!(t.get("p95_ms").unwrap().as_f64(), Some(30.0));
        // meta stamps hw_threads host info
        let meta = v.get("meta").unwrap();
        assert!(meta.get("hw_threads").and_then(|m| m.as_str()).is_some());
    }

    #[test]
    fn set_meta_overrides_and_appends() {
        let args = BenchArgs::parse_from(strs(&["--quick"])).unwrap().unwrap();
        let mut rep = Report::new("unit_test", &args);
        rep.set_meta("device", "tiny").set_meta("extra", "1");
        let v = nulpa_obs::json::parse(&rep.to_json()).unwrap();
        let meta = v.get("meta").unwrap();
        assert_eq!(meta.get("device").and_then(|m| m.as_str()), Some("tiny"));
        assert_eq!(meta.get("extra").and_then(|m| m.as_str()), Some("1"));
    }

    #[test]
    fn report_serialises_to_parseable_json() {
        let args = BenchArgs::parse_from(strs(&["--quick"])).unwrap().unwrap();
        let mut rep = Report::new("unit_test", &args);
        let mut t = Table::new("runtime", &["A", "B"]);
        t.row("g1", &[1.5, f64::NAN]).row("g2", &[2.0, 3.0]);
        rep.push(t);
        rep.push(Table::new("empty", &[]));
        let text = rep.to_json();
        let v = nulpa_obs::json::parse(&text).expect("report JSON must parse");
        assert_eq!(v.get("name").unwrap().as_str(), Some("unit_test"));
        let meta = v.get("meta").expect("meta object");
        assert!(meta.get("git_rev").and_then(|m| m.as_str()).is_some());
        assert!(meta.get("threads").is_some());
        assert_eq!(meta.get("device").and_then(|m| m.as_str()), Some("a100"));
        let tables = v.get("tables").unwrap().as_arr().unwrap();
        assert_eq!(tables.len(), 2);
        let rows = tables[0].get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("label").unwrap().as_str(), Some("g1"));
        let vals = rows[0].get("values").unwrap().as_arr().unwrap();
        assert_eq!(vals[0].as_f64(), Some(1.5));
        assert_eq!(vals[1], nulpa_obs::json::Json::Null); // NaN -> null
    }
}

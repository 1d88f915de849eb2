//! The one regression gate: keyed [`Row`]s of named metrics, checked
//! against baseline rows under [`Rule`]s that are constants in the
//! producing code (so a baseline refresh never loosens a bound).
//!
//! Every gate matches rows the same way: a baseline row or ruled metric
//! missing from the run fails, matching zero rows fails, current rows
//! absent from the baseline are listed as not gated, and moves beyond the
//! slack the good way are notes. Baselines share one schema, `gate-v1`:
//! `{"schema":"gate-v1","meta":{…},"rows":[{"key":…,"values":{…}}]}`.

use crate::json::{escape, fmt_f64, parse, Json};
use crate::meta::meta_json;

const SCHEMA: &str = "gate-v1";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Dir {
    Lower,
    Higher,
    Exact,
}

/// One gated metric: direction, relative/absolute slack, optional guard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rule {
    /// Metric name, looked up in both rows.
    pub metric: &'static str,
    dir: Dir,
    rel: f64,
    abs: f64,
    guard: Option<(&'static str, f64)>,
}

impl Rule {
    const fn new(metric: &'static str, dir: Dir, rel: f64, abs: f64) -> Rule {
        let guard = None;
        Rule {
            metric,
            dir,
            rel,
            abs,
            guard,
        }
    }

    /// Smaller is better: fail when `cur > base + max(rel·|base|, abs)`.
    pub const fn lower(metric: &'static str, rel: f64, abs: f64) -> Rule {
        Rule::new(metric, Dir::Lower, rel, abs)
    }

    /// Larger is better: fail when `cur < base − max(rel·|base|, abs)`.
    pub const fn higher(metric: &'static str, rel: f64, abs: f64) -> Rule {
        Rule::new(metric, Dir::Higher, rel, abs)
    }

    /// Any change fails.
    pub const fn exact(metric: &'static str) -> Rule {
        Rule::new(metric, Dir::Exact, 0.0, 0.0)
    }

    /// The same rule, applied only when the current row's `metric > min`.
    pub const fn guarded(self, metric: &'static str, min: f64) -> Rule {
        let guard = Some((metric, min));
        Rule { guard, ..self }
    }

    /// `(limit, verdict)`; moving more than the slack the good way is a
    /// note, except for fixed floors (no slack).
    fn judge(&self, base: f64, cur: f64) -> (f64, &'static str) {
        let slack = (self.rel * base.abs()).max(self.abs);
        let (limit, fail, note) = match self.dir {
            Dir::Lower => (base + slack, cur > base + slack, cur < base - slack),
            Dir::Higher => (base - slack, cur < base - slack, cur > base + slack),
            Dir::Exact => (base, cur != base, false),
        };
        let verdict = match (fail, note && slack > 0.0) {
            (true, _) => FAIL,
            (_, true) => "note",
            _ => "ok",
        };
        (limit, verdict)
    }
}

const FAIL: &str = "FAIL";
const SKIP: &str = "SKIP";

/// A keyed set of named metric values: one gated unit of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Row identity, matched verbatim between baseline and current.
    pub key: String,
    /// Metric values in insertion order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Empty row with `key`.
    pub fn new(key: impl Into<String>) -> Row {
        let key = key.into();
        Row {
            key,
            values: Vec::new(),
        }
    }

    /// Builder: append `metric = value`.
    pub fn with(mut self, metric: &str, value: f64) -> Row {
        self.values.push((metric.to_string(), value));
        self
    }

    /// Value of `metric`, if present.
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.values.iter().find(|(m, _)| m == metric).map(|v| v.1)
    }
}

/// Serialise rows as a `gate-v1` document, one row per line.
pub fn to_json(meta: &[(String, String)], rows: &[Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let values: Vec<String> = (r.values.iter())
                .map(|(m, v)| format!("{}:{}", escape(m), fmt_f64(*v)))
                .collect();
            let key = escape(&r.key);
            format!("  {{\"key\":{key},\"values\":{{{}}}}}", values.join(","))
        })
        .collect();
    let meta = meta_json(meta);
    let rows = rows.join(",\n");
    format!("{{\"schema\":\"{SCHEMA}\",\"meta\":{meta},\"rows\":[\n{rows}\n]}}\n")
}

/// Parse a `gate-v1` document back into rows.
pub fn from_json(text: &str) -> Result<Vec<Row>, String> {
    let doc = parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("baseline schema is not \"{SCHEMA}\""));
    }
    let rows = doc.get("rows").and_then(Json::as_arr);
    let rows = rows.ok_or("baseline has no \"rows\" array")?;
    rows.iter()
        .map(|r| {
            let key = r.get("key").and_then(Json::as_str);
            let key = key.ok_or("baseline row without a string \"key\"")?;
            let Some(Json::Obj(fields)) = r.get("values") else {
                return Err(format!("baseline row `{key}` has no \"values\" object"));
            };
            let mut row = Row::new(key);
            for (m, v) in fields {
                let v = v
                    .as_f64()
                    .ok_or(format!("baseline row `{key}`: `{m}` is not a number"))?;
                row = row.with(m, v);
            }
            Ok(row)
        })
        .collect()
}

fn num(v: Option<f64>) -> String {
    match v {
        None => "-".into(),
        Some(v) if v == v.trunc() && v.abs() < 1e15 => format!("{}", v as i64),
        Some(v) => format!("{v:.6}").trim_end_matches('0').to_string(),
    }
}

/// A named gate: the rule set one producer checks its rows against.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// Name printed in the verdict table and error messages.
    pub name: &'static str,
    /// Rules applied to every matched row.
    pub rules: &'static [Rule],
}

impl Gate {
    /// Check `current` against `baseline` rows.
    pub fn check(&self, baseline: &[Row], current: &[Row]) -> Report {
        let mut r = Report {
            gate: self.name,
            ..Report::default()
        };
        for b in baseline {
            let Some(c) = current.iter().find(|c| c.key == b.key) else {
                r.line(&b.key, "*", [None; 3], FAIL);
                r.failures
                    .push(format!("{}: row missing from current run", b.key));
                continue;
            };
            r.matched += 1;
            for rule in self.rules {
                let (key, metric) = (&b.key, rule.metric);
                let (Some(base), Some(cur)) = (b.get(metric), c.get(metric)) else {
                    let side = [b.get(metric), c.get(metric)];
                    r.line(key, metric, [side[0], side[1], None], FAIL);
                    let side = ["baseline", "current run"][side[1].is_none() as usize];
                    r.failures
                        .push(format!("{key}: {metric} missing from {side}"));
                    continue;
                };
                let (limit, mut verdict) = rule.judge(base, cur);
                if let Some((g, min)) = rule.guard {
                    if c.get(g).is_none_or(|v| v <= min) {
                        verdict = SKIP;
                    }
                }
                if verdict == FAIL {
                    let how = match rule.dir {
                        Dir::Lower => "rose above limit",
                        Dir::Higher => "dropped below limit",
                        Dir::Exact => "!= baseline",
                    };
                    let [cur_s, lim_s, base_s] = [cur, limit, base].map(|v| num(Some(v)));
                    r.failures.push(format!(
                        "{key}: {metric} {cur_s} {how} {lim_s} (baseline {base_s})"
                    ));
                }
                r.line(key, metric, [Some(base), Some(cur), Some(limit)], verdict);
            }
        }
        for c in current
            .iter()
            .filter(|c| !baseline.iter().any(|b| b.key == c.key))
        {
            r.lines
                .push(format!("{}: not gated (absent from the baseline)", c.key));
        }
        if r.matched == 0 {
            r.failures
                .push("no baseline row matched the current run".into());
        }
        r
    }

    /// [`Gate::check`] against a `gate-v1` baseline document.
    pub fn check_json(&self, baseline: &str, current: &[Row]) -> Result<Report, String> {
        let rows = from_json(baseline).map_err(|e| format!("{} gate: {e}", self.name))?;
        Ok(self.check(&rows, current))
    }
}

/// Result of a [`Gate`] run: the verdict table and the failures.
#[derive(Clone, Debug, Default)]
pub struct Report {
    gate: &'static str,
    lines: Vec<String>,
    failures: Vec<String>,
    matched: usize,
}

impl Report {
    fn line(&mut self, key: &str, metric: &str, [b, c, l]: [Option<f64>; 3], verdict: &str) {
        let [b, c, l] = [b, c, l].map(num);
        let line = format!("{key:<32} {metric:<18} {b:>14} {c:>14} {l:>14}  {verdict}");
        self.lines.push(line);
    }

    /// True when nothing failed and at least one row matched.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The verdict table every gate prints: key, metric, baseline,
    /// current, limit, verdict; then the not-gated rows and a summary.
    pub fn render(&self) -> String {
        let header = ["key", "metric", "baseline", "current", "limit"];
        let [k, m, b, c, l] = header;
        let mut out = format!("{k:<32} {m:<18} {b:>14} {c:>14} {l:>14}  verdict\n");
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        let count = |v: &str| self.lines.iter().filter(|l| l.ends_with(v)).count();
        out.push_str(&format!(
            "{} gate: {} ({} rows matched; {} fail, {} note, {} skip)\n",
            self.gate,
            if self.passed() { "ok" } else { "FAIL" },
            self.matched,
            self.failures.len(),
            count("  note"),
            count("  SKIP"),
        ));
        out
    }

    /// `Ok(())` when the gate passed, else one error listing every failure.
    pub fn result(&self) -> Result<(), String> {
        if self.passed() {
            return Ok(());
        }
        let (n, list) = (self.failures.len(), self.failures.join("\n  "));
        Err(format!("{} gate: {n} failure(s):\n  {list}", self.gate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLES: Gate = Gate {
        name: "test",
        rules: &[
            Rule::lower("sim_cycles", 0.05, 0.0),
            Rule::lower("alu", 0.05, 0.0),
        ],
    };

    fn cycles(sim: f64, alu: f64) -> Vec<Row> {
        vec![Row::new("g/b").with("sim_cycles", sim).with("alu", alu)]
    }

    #[test]
    fn identical_runs_pass() {
        let r = CYCLES.check(&cycles(1000.0, 400.0), &cycles(1000.0, 400.0));
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.lines.len(), 2);
    }

    #[test]
    fn drift_up_to_the_tolerance_passes() {
        let base = cycles(1000.0, 400.0);
        let r = CYCLES.check(&base, &cycles(1040.0, 410.0));
        assert!(r.passed(), "{:?}", r.failures);
        // exactly +5% is still within the limit
        let r = CYCLES.check(&base, &cycles(1050.0, 420.0));
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn inflated_run_fails() {
        let r = CYCLES.check(&cycles(1000.0, 400.0), &cycles(1100.0, 400.0));
        let f = r.failures.clone();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("sim_cycles"), "{f:?}");
        assert!(r.result().is_err());
    }

    #[test]
    fn inflated_component_fails_even_with_flat_total() {
        let f = CYCLES
            .check(&cycles(1000.0, 400.0), &cycles(1000.0, 500.0))
            .failures
            .to_vec();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("alu"), "{f:?}");
    }

    #[test]
    fn missing_row_fails() {
        let r = CYCLES.check(&cycles(1000.0, 400.0), &[]);
        let f = r.failures.clone();
        assert!(f.iter().any(|l| l.contains("row missing")), "{f:?}");
        assert!(r.render().contains("FAIL"));
    }

    #[test]
    fn missing_metric_fails_on_either_side() {
        let partial = vec![Row::new("g/b").with("sim_cycles", 1000.0)];
        let f = CYCLES
            .check(&cycles(1000.0, 400.0), &partial)
            .failures
            .to_vec();
        assert!(f[0].contains("alu missing from current run"), "{f:?}");
        let f = CYCLES
            .check(&partial, &cycles(1000.0, 400.0))
            .failures
            .to_vec();
        assert!(f[0].contains("alu missing from baseline"), "{f:?}");
    }

    #[test]
    fn large_improvement_is_a_note_not_a_failure() {
        let r = CYCLES.check(&cycles(1000.0, 400.0), &cycles(500.0, 200.0));
        assert!(r.passed());
        assert_eq!(r.lines.iter().filter(|l| l.ends_with("note")).count(), 2);
        assert!(r.render().contains("note"));
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(CYCLES.check_json("{", &cycles(1.0, 1.0)).is_err());
        assert!(CYCLES.check_json("{}", &cycles(1.0, 1.0)).is_err());
        let wrong_schema = "{\"schema\":\"other\",\"rows\":[]}";
        assert!(CYCLES.check_json(wrong_schema, &cycles(1.0, 1.0)).is_err());
    }

    #[test]
    fn zero_matched_rows_fails_and_lists_not_gated() {
        let base = cycles(1.0, 1.0);
        let renamed = vec![Row::new("other").with("sim_cycles", 1.0).with("alu", 1.0)];
        let r = CYCLES.check(&base, &renamed);
        assert!(!r.passed());
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("no baseline row matched")));
        assert!(r.render().contains("other: not gated"));
        assert!(!CYCLES.check(&[], &base).passed());
    }

    const HOST: Gate = Gate {
        name: "hostprof",
        rules: &[
            Rule::exact("iterations"),
            Rule::lower("repair_rate", 0.10, 0.01),
            Rule::lower("imbalance", 0.25, 0.5).guarded("busy_ms_mean", 50.0),
        ],
    };

    fn host(iterations: f64, repair_rate: f64, imbalance: f64, busy: f64) -> Vec<Row> {
        vec![Row::new("g threads=2")
            .with("iterations", iterations)
            .with("repair_rate", repair_rate)
            .with("imbalance", imbalance)
            .with("busy_ms_mean", busy)]
    }

    #[test]
    fn repair_rate_rise_fails() {
        let base = host(4.0, 0.04, 1.3, 0.01);
        // max(0.10 × 0.04, 0.01) = 0.01 of slack
        assert!(HOST.check(&base, &host(4.0, 0.05, 1.3, 0.01)).passed());
        let f = HOST
            .check(&base, &host(4.0, 0.5, 1.3, 0.01))
            .failures
            .to_vec();
        assert!(f.len() == 1 && f[0].contains("repair_rate"), "{f:?}");
    }

    #[test]
    fn iteration_change_fails() {
        let base = host(4.0, 0.04, 1.3, 0.01);
        let f = HOST
            .check(&base, &host(7.0, 0.04, 1.3, 0.01))
            .failures
            .to_vec();
        assert!(f.len() == 1 && f[0].contains("iterations"), "{f:?}");
    }

    #[test]
    fn imbalance_is_ignored_below_the_busy_floor_and_fails_above_it() {
        let base = host(4.0, 0.04, 1.3, 0.01);
        let r = HOST.check(&base, &host(4.0, 0.04, 100.0, 0.01));
        assert!(r.passed(), "{:?}", r.failures);
        assert!(r.lines[2].ends_with("SKIP"), "{}", r.render());
        let f = HOST
            .check(&base, &host(4.0, 0.04, 100.0, 100.0))
            .failures
            .to_vec();
        assert!(f.len() == 1 && f[0].contains("imbalance"), "{f:?}");
        // the slack is max(0.25 × base, 0.5), not their sum
        assert!(!HOST.check(&base, &host(4.0, 0.04, 1.81, 100.0)).passed());
    }

    #[test]
    fn code_built_floor_skips_unless_the_guard_holds() {
        const SCALING: Gate = Gate {
            name: "scaling",
            rules: &[Rule::higher("speedup_t4", 0.0, 0.0).guarded("hw_threads", 3.0)],
        };
        let floor = vec![Row::new("native").with("speedup_t4", 2.0)];
        let run = |speedup, hw| {
            vec![Row::new("native")
                .with("speedup_t4", speedup)
                .with("hw_threads", hw)]
        };
        let small_host = SCALING.check(&floor, &run(1.0, 2.0));
        assert!(small_host.passed());
        assert!(small_host.render().contains("SKIP"));
        assert!(!SCALING.check(&floor, &run(1.9, 4.0)).passed());
        assert!(SCALING.check(&floor, &run(2.0, 4.0)).passed());
    }

    #[test]
    fn higher_is_better_fails_on_a_drop() {
        const Q: Gate = Gate {
            name: "quality",
            rules: &[Rule::higher("modularity", 0.01, 0.0)],
        };
        let base = vec![Row::new("g/seq").with("modularity", 0.5)];
        let ok = vec![Row::new("g/seq").with("modularity", 0.496)];
        let bad = vec![Row::new("g/seq").with("modularity", 0.49)];
        assert!(Q.check(&base, &ok).passed());
        let f = Q.check(&base, &bad).failures.clone();
        assert!(
            f[0].contains("modularity") && f[0].contains("dropped"),
            "{f:?}"
        );
    }

    #[test]
    fn json_roundtrip_preserves_rows() {
        let rows = vec![
            Row::new("a/b").with("x", 1.0).with("y", 0.25),
            Row::new("c \"quoted\"").with("z", -3.5),
        ];
        let meta = vec![("git_rev".to_string(), "abc".to_string())];
        let text = to_json(&meta, &rows);
        assert!(text.starts_with("{\"schema\":\"gate-v1\""));
        assert_eq!(from_json(&text).unwrap(), rows);
        assert!(HOST.check_json(&to_json(&meta, &[]), &[]).is_ok());
    }
}

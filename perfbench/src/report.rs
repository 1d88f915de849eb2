//! The lines the benchmark prints. The last line of standard output is
//! the result object; the manifest and sample spreads precede it.

use crate::measure::Outcome;
use crate::metrics;
use nulpa_obs::json::{escape, fmt_f64};

fn object<'a>(fields: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields.map(|(k, v)| format!("{}: {v}", escape(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// `{"manifest": {...}}`: the input facts of the run.
pub fn manifest_line(out: &Outcome, workload: &str) -> String {
    let fields = out.manifest.iter().map(|(&k, &v)| (k, fmt_f64(v)));
    let manifest = object(std::iter::once(("workload", escape(workload))).chain(fields));
    format!("{{\"manifest\": {manifest}}}")
}

/// `{"samples": {...}}`: sample count, quartiles and median of every
/// sampled value, so a later reader can see the spread within the run.
pub fn samples_line(out: &Outcome) -> String {
    let fields = out.samples.iter().map(|(&k, s)| {
        let v = object(
            [
                ("n", s.n.to_string()),
                ("q1", fmt_f64(s.q1)),
                ("median", fmt_f64(s.median)),
                ("q3", fmt_f64(s.q3)),
            ]
            .into_iter(),
        );
        (k, v)
    });
    format!("{{\"samples\": {}}}", object(fields))
}

/// The result object: check tally plus every declared metric with its
/// unit. Errors if a metric is missing or not finite.
pub fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for &(name, unit) in metrics::declared(trace) {
        let v = *out
            .metrics
            .get(name)
            .ok_or(format!("metric {name} missing"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let value = format!("{{\"value\": {}, \"unit\": {}}}", fmt_f64(v), escape(unit));
        fields.push((name, value));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.checks.failed() == 0,
        out.checks.attempted,
        out.checks.failed(),
        object(fields.into_iter())
    ))
}

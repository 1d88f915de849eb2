//! Registry exporters: Prometheus text exposition and JSONL.
//!
//! The Prometheus format follows the text exposition conventions (one
//! `# TYPE` line per family, `_bucket{le="…"}`/`_sum`/`_count` for
//! histograms with cumulative buckets); metric names are sanitised to
//! `[a-zA-Z0-9_:]` and prefixed `nulpa_`. JSONL emits one object per
//! metric, consumable by the same hand-rolled parser the rest of the
//! workspace uses.

use crate::registry::MetricsSnapshot;
use nulpa_obs::json::{escape, fmt_f64};
use nulpa_obs::{bucket_bounds, HIST_BUCKETS};

/// Sanitise a registry key into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("nulpa_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Inclusive upper bound of log2 bucket `i` as a Prometheus `le` label.
fn bucket_le(i: usize) -> String {
    if i == HIST_BUCKETS - 1 {
        "+Inf".into()
    } else {
        (bucket_bounds(i).1 - 1).to_string()
    }
}

/// Render a snapshot as Prometheus text exposition.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
    }
    for (name, h) in &snap.hists {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for i in 0..HIST_BUCKETS {
            cumulative += h.buckets[i];
            // skip interior empty buckets to keep the exposition short,
            // but always emit +Inf
            if h.buckets[i] > 0 || i == HIST_BUCKETS - 1 {
                out.push_str(&format!(
                    "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_le(i)
                ));
            }
        }
        out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
    }
    out
}

/// Render a snapshot as JSONL: one `{"kind", "name", ...}` object per
/// metric, histograms carrying `[lo, count]` rows for non-empty buckets.
pub fn render_jsonl(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!(
            "{{\"kind\":\"counter\",\"name\":{},\"value\":{value}}}\n",
            escape(name)
        ));
    }
    for (name, value) in &snap.gauges {
        out.push_str(&format!(
            "{{\"kind\":\"gauge\",\"name\":{},\"value\":{value}}}\n",
            escape(name)
        ));
    }
    for (name, h) in &snap.hists {
        out.push_str(&format!(
            "{{\"kind\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\"buckets\":[",
            escape(name),
            h.count,
            h.sum,
            h.max,
            fmt_f64(h.mean()),
        ));
        let mut first = true;
        for (lo, _, c) in h.nonzero_buckets() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{lo},{c}]"));
        }
        out.push_str("]}\n");
    }
    out
}

/// Write a snapshot to `path`: `.prom` gets Prometheus text exposition,
/// anything else JSONL. Creates the parent directory as needed.
pub fn write_snapshot(path: &str, snap: &MetricsSnapshot) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let text = if path.ends_with(".prom") {
        render_prometheus(snap)
    } else {
        render_jsonl(snap)
    };
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("phase.load.wall_ns").add(1500);
        r.gauge("heap.current_bytes").set(4096);
        let h = r.histogram("phase.iterate.ns");
        h.record(0);
        h.record(3);
        h.record(1000);
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = render_prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE nulpa_phase_load_wall_ns counter"));
        assert!(text.contains("nulpa_phase_load_wall_ns 1500"));
        assert!(text.contains("# TYPE nulpa_heap_current_bytes gauge"));
        assert!(text.contains("# TYPE nulpa_phase_iterate_ns histogram"));
        assert!(text.contains("nulpa_phase_iterate_ns_count 3"));
        assert!(text.contains("nulpa_phase_iterate_ns_sum 1003"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 3"));
        // cumulative buckets are non-decreasing
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone buckets: {text}");
            last = v;
        }
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let text = render_jsonl(&sample_registry().snapshot());
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = nulpa_obs::json::parse(line).expect("jsonl line parses");
            assert!(v.get("kind").is_some());
        }
    }

    #[test]
    fn prom_name_sanitises() {
        assert_eq!(prom_name("phase.load.ns"), "nulpa_phase_load_ns");
        assert_eq!(prom_name("a-b c"), "nulpa_a_b_c");
    }

    #[test]
    fn write_snapshot_picks_format_by_extension() {
        let dir = std::env::temp_dir().join("nulpa-telemetry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let reg = sample_registry();
        let prom = dir.join("m.prom");
        let jsonl = dir.join("m.jsonl");
        write_snapshot(prom.to_str().unwrap(), &reg.snapshot()).unwrap();
        write_snapshot(jsonl.to_str().unwrap(), &reg.snapshot()).unwrap();
        assert!(std::fs::read_to_string(prom).unwrap().contains("# TYPE"));
        assert!(std::fs::read_to_string(jsonl)
            .unwrap()
            .contains("\"kind\":\"counter\""));
    }
}

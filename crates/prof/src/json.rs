//! JSON renderers for profiles: the full single-profile document behind
//! `nulpa profile --json`, the multi-profile report document, and the
//! per-profile [`gate_row`] the perf gate compares against the committed
//! baseline (`results/prof_baseline.json`).

use crate::profile::{KernelAgg, Profile};
use crate::run::GraphProfile;
use nulpa_obs::gate::{Gate, Row, Rule};
use nulpa_obs::json::{escape, fmt_f64};
use nulpa_simt::Comp;
use std::fmt::Write as _;

fn agg_json(k: &KernelAgg) -> String {
    let mut comp = String::from("{");
    for (i, c) in Comp::all().iter().enumerate() {
        if i > 0 {
            comp.push(',');
        }
        let _ = write!(comp, "{}:{}", escape(c.label()), k.comp.get(*c));
    }
    comp.push('}');
    format!(
        "{{\"name\":{},\"launches\":{},\"sim_cycles\":{},\"lane_cycles\":{},\
         \"idle_cycles\":{},\"imbalance_cycles\":{},\"stall_cycles\":{},\
         \"waves\":{},\"threads\":{},\"probes\":{},\"utilization\":{},\
         \"intensity\":{},\"bound\":{},\"components\":{}}}",
        escape(&k.name),
        k.launches,
        k.sim_cycles,
        k.lane_cycles,
        k.idle_cycles,
        k.imbalance_cycles,
        k.stall_cycles,
        k.waves,
        k.threads,
        k.probes,
        fmt_f64(k.utilization()),
        if k.intensity().is_finite() {
            fmt_f64(k.intensity())
        } else {
            "null".to_string()
        },
        escape(k.bound()),
        comp,
    )
}

/// Render one profile as a self-contained JSON object, including the
/// per-wave occupancy timeline.
pub fn profile_to_json(p: &Profile) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"graph\":{},\"backend\":{},\"sm_count\":{},\"iterations\":{},\"converged\":{}",
        escape(&p.graph),
        escape(&p.backend),
        p.sm_count,
        p.iterations,
        p.converged
    );
    let _ = write!(out, ",\"totals\":{}", agg_json(&p.totals));
    out.push_str(",\"kernels\":[");
    for (i, k) in p.kernels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&agg_json(k));
    }
    out.push_str("],\"iterations_detail\":[");
    for (i, it) in p.iters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"iter\":{},\"agg\":{}}}",
            it.iter,
            agg_json(&it.agg)
        );
    }
    out.push_str("],\"timeline\":[");
    let mut first = true;
    for l in &p.launches {
        for (w, wave) in l.waves.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"kernel\":{},\"iter\":{},\"wave\":{},\"t0\":{},\"dur\":{},\
                 \"items\":{},\"capacity\":{},\"slots\":{},\"critical\":{},\"stall\":{}}}",
                escape(&l.name),
                l.iter,
                w,
                wave.t0,
                wave.dur,
                wave.items,
                l.wave_capacity,
                wave.slots,
                wave.critical,
                wave.stall,
            );
        }
    }
    out.push_str("]}");
    out
}

/// The perf gate over [`gate_row`]s: every cycle total and component may
/// grow at most 5% over the baseline; attribution must stay conserved.
/// The simulator is deterministic, so any drift is a real cost-model or
/// algorithm change, not noise.
pub const CYCLE_GATE: Gate = Gate {
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
        Rule::exact("conserved"),
    ],
};

/// The perf gate's row for one profile, keyed `graph/backend`: the total
/// cycle ledger (`sim`, `lane`, `idle`, `imbalance`, `stall`), every
/// component's cycles, and `conserved` (1 when attribution conserved).
pub fn gate_row(gp: &GraphProfile) -> Row {
    let p = &gp.profile;
    let t = &p.totals;
    let mut row = Row::new(format!("{}/{}", p.graph, p.backend))
        .with("sim_cycles", t.sim_cycles as f64)
        .with("lane_cycles", t.lane_cycles as f64)
        .with("idle_cycles", t.idle_cycles as f64)
        .with("imbalance_cycles", t.imbalance_cycles as f64)
        .with("stall_cycles", t.stall_cycles as f64);
    for c in Comp::all() {
        row = row.with(c.label(), t.comp.get(c) as f64);
    }
    row.with("conserved", gp.conservation.is_ok() as u8 as f64)
}

/// Render a multi-profile report: run metadata plus one entry per
/// `(graph, backend)` with kernel and total attributions. `meta` is
/// rendered as a flat string map.
pub fn report_to_json(meta: &[(String, String)], profiles: &[GraphProfile]) -> String {
    let mut out = String::from("{\"meta\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", escape(k), escape(v));
    }
    out.push_str("},\"profiles\":[");
    for (i, gp) in profiles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let p = &gp.profile;
        let _ = write!(
            out,
            "{{\"graph\":{},\"backend\":{},\"iterations\":{},\"converged\":{},\
             \"conserved\":{},\"totals\":{},\"kernels\":[",
            escape(&p.graph),
            escape(&p.backend),
            p.iterations,
            p.converged,
            gp.conservation.is_ok(),
            agg_json(&p.totals),
        );
        for (j, k) in p.kernels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&agg_json(k));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{backends, profile_graph};
    use nulpa_graph::gen::two_cliques_light_bridge;

    #[test]
    fn profile_json_parses_back() {
        let g = two_cliques_light_bridge(4);
        let gp = profile_graph("tc", &g, &backends()[0]);
        let text = profile_to_json(&gp.profile);
        let doc = nulpa_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("graph").and_then(|v| v.as_str()), Some("tc"));
        let totals = doc.get("totals").expect("totals");
        assert!(totals.get("sim_cycles").and_then(|v| v.as_u64()).unwrap() > 0);
        let comp = totals.get("components").expect("components");
        assert!(comp.get("alu").and_then(|v| v.as_u64()).is_some());
        assert!(!doc.get("timeline").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn cycle_gate_rules_every_component() {
        for c in Comp::all() {
            assert!(
                CYCLE_GATE.rules.iter().any(|r| r.metric == c.label()),
                "no perf-gate rule for component {}",
                c.label()
            );
        }
    }

    #[test]
    fn report_json_parses_back() {
        let g = two_cliques_light_bridge(4);
        let gp = profile_graph("tc", &g, &backends()[0]);
        let meta = vec![("git_rev".to_string(), "abc123".to_string())];
        let text = report_to_json(&meta, &[gp]);
        let doc = nulpa_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("meta")
                .and_then(|m| m.get("git_rev"))
                .and_then(|v| v.as_str()),
            Some("abc123")
        );
        assert_eq!(doc.get("profiles").unwrap().as_arr().unwrap().len(), 1);
    }
}

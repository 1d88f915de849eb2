//! Integration tests for `nulpa check` — the static kernel effect
//! verifier and workspace invariant linter.
//!
//! Three claims are pinned here: the CLI gate is *clean* on the shipped
//! workspace, it is *non-vacuous* (a doctored effect declaration makes
//! it exit non-zero with exact attribution), and it is *sound where it
//! overlaps sancheck* — a static-clean verdict implies the dynamic
//! hazard checker also comes out clean on the built-in graph trio, for
//! every kernel the effect system describes.

use nu_lpa::check::{run_check, FindingKind};
use nu_lpa::obs::json;
use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn nulpa(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nulpa"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("run nulpa binary")
}

#[test]
fn cli_gate_is_clean_on_the_shipped_workspace() {
    let out = nulpa(&["check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "nulpa check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("check: clean"),
        "unexpected output: {stdout}"
    );
}

#[test]
fn cli_gate_exits_non_zero_on_doctored_declarations() {
    // --inject registers the fault descriptors: six violation classes
    // that a buggy kernel would have to declare. The gate must fail.
    let out = nulpa(&["check", "--inject"]);
    assert!(
        !out.status.success(),
        "nulpa check --inject unexpectedly passed — the gate is vacuous"
    );
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for kind in [
        "lane-write-race",
        "divergent-barrier",
        "unstaged-same-wave-read",
        "region-oob",
        "probe-budget-overrun",
        "immediate-write-escape",
    ] {
        assert!(stdout.contains(kind), "missing {kind} in:\n{stdout}");
    }
    // Exact attribution survives to the CLI surface: kernel name,
    // rendered address expression, and a concrete lane pair.
    assert!(stdout.contains("inject:lane-race"));
    assert!(stdout.contains("labels[j], j ∈ N(v)"));
    assert!(stdout.contains("lanes=(0,1)"));
}

#[test]
fn json_report_parses_and_matches_schema() {
    let out = nulpa(&["check", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(stdout.trim()).expect("valid JSON report");
    assert_eq!(v.get("total_findings").unwrap().as_u64(), Some(0));
    assert_eq!(v.get("kernels_checked").unwrap().as_u64(), Some(3));
    assert!(v.get("facts_checked").unwrap().as_u64().unwrap() > 50);
    assert!(v.get("files_scanned").unwrap().as_u64().unwrap() > 20);
    assert_eq!(v.get("findings").unwrap().as_arr().unwrap().len(), 0);
}

#[test]
fn json_report_carries_findings_under_injection() {
    let out = nulpa(&["check", "--json", "--inject"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(stdout.trim()).expect("valid JSON report");
    assert!(v.get("total_findings").unwrap().as_u64().unwrap() >= 6);
    let findings = v.get("findings").unwrap().as_arr().unwrap();
    assert!(findings.len() >= 6);
    // Every finding names a kernel, an address expression and a kind.
    for f in findings {
        assert!(f.get("kind").unwrap().as_str().is_some());
        assert!(!f.get("kernel").unwrap().as_str().unwrap().is_empty());
        assert!(!f.get("addr").unwrap().as_str().unwrap().is_empty());
    }
}

/// Static-clean ⇒ sancheck-clean: on the graphs where both checkers can
/// look at the same kernels, the static verdict must never be *weaker*
/// than the dynamic one. (The reverse is allowed — sancheck sees only
/// one schedule; the solver quantifies over all of them.)
#[test]
fn static_clean_implies_sancheck_clean_on_the_trio() {
    use nu_lpa::core::{lpa_gpu, LpaConfig, SwapMode};
    use nu_lpa::graph::gen::{caveman_weighted, erdos_renyi, two_cliques_light_bridge};
    use nu_lpa::sancheck::{install, uninstall, CheckerConfig};
    use nu_lpa::simt::DeviceConfig;

    // Layer 1 + 2 must be clean first — this is the hypothesis.
    let registry = nu_lpa::core::shipped_effects();
    let rep = run_check(workspace_root(), &registry);
    assert!(
        rep.is_clean(),
        "static check not clean, cross-validation is moot:\n{}",
        rep.render()
    );
    assert_eq!(rep.count_of(FindingKind::LaneWriteRace), 0);

    // ... then the dynamic checker must agree on every trio graph, with
    // the cross-check revert kernel forced on so all three described
    // kernels actually launch.
    let graphs = [
        ("two-cliques-s6", two_cliques_light_bridge(6)),
        ("caveman-4x8", caveman_weighted(4, 8, 0.5)),
        ("erdos-renyi-256", erdos_renyi(256, 768, 42)),
    ];
    let cfg = LpaConfig::default()
        .with_device(DeviceConfig::tiny())
        .with_swap_mode(SwapMode::CrossCheck { every: 1 });
    for (name, g) in &graphs {
        install(CheckerConfig::default());
        let _ = lpa_gpu(g, &cfg);
        let report = uninstall().expect("checker installed above");
        assert!(
            report.is_clean(),
            "{name}: static-clean but sancheck found hazards:\n{}",
            report.render()
        );
    }
}

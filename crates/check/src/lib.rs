//! `nulpa-check`: static kernel effect verifier + workspace invariant
//! linter.
//!
//! sancheck proves the execution-model invariants *dynamically*, by
//! shadowing one run of one graph. This crate proves a complementary
//! slice *statically*, from declared kernel effects — no graph, no run,
//! no luck involved:
//!
//! - **Layer 1 (solver, [`solver`])** — each kernel declares an
//!   [`Effects`](nulpa_simt::effects::Effects) descriptor: its reads,
//!   writes and atomics as symbolic address expressions over
//!   `(tid, vertex, CSR offsets)`, its barrier sites with dominating
//!   predicates, its staging class and probe bound. The solver
//!   discharges lane-pairwise disjointness, staged-write discipline,
//!   barrier uniformity, probe budgets and immediate-write confinement
//!   over *all* graphs at once, using only CSR monotonicity
//!   (`off(v′) ≥ off(v) + deg(v)` for consecutive vertices).
//! - **Layer 2 (linter, [`lint`])** — a lexical pass over the workspace
//!   source enforcing that the declarations cannot silently drift from
//!   the code: every production launch names a registered descriptor,
//!   staging primitives stay in kernel scope, the SIMT scheduler stays
//!   deterministic, and `unsafe` stays inside the committed manifest
//!   (`check/unsafe_allowlist.toml`).
//!
//! The declarations themselves are trusted input — the linter pins them
//! to launch sites, and the cross-validation test in `tests/check.rs`
//! pins them to reality by requiring static-clean ⇒ sancheck-clean on
//! the built-in graph trio. Fault-injection descriptors ([`inject`])
//! prove the solver actually rejects each violation class it claims to
//! cover, with exact (kernel, address-expression, lane-pair)
//! attribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inject;
pub mod lint;
pub mod manifest;
pub mod report;
pub mod scan;
pub mod solver;

pub use inject::{injected_faults, register_injected, InjectedFault};
pub use lint::{lint_workspace, ALLOWLIST_PATH};
pub use manifest::{parse_allowlist, AllowEntry, Allowlist};
pub use report::{CheckReport, Finding, FindingKind, LanePair};
pub use solver::{verify, verify_layout};

use nulpa_simt::effects::EffectsRegistry;
use std::path::Path;

/// Run both layers: verify every registered kernel's effects, then lint
/// the workspace rooted at `root`. This is what `nulpa check` runs.
pub fn run_check(root: &Path, registry: &EffectsRegistry) -> CheckReport {
    let mut report = solver::verify(registry);
    lint::lint_workspace(root, registry, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_workspace_is_statically_clean() {
        // The real repository, with the real shipped descriptors, must
        // pass both layers — this is the in-crate version of the CI
        // gate. CARGO_MANIFEST_DIR is crates/check; the workspace root
        // is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let registry = nulpa_core::shipped_effects();
        let rep = run_check(&root, &registry);
        assert!(
            rep.is_clean(),
            "shipped workspace has static findings:\n{}",
            rep.render()
        );
        assert_eq!(rep.kernels_checked, 3);
        assert!(rep.files_scanned > 20, "scanned {}", rep.files_scanned);
        assert!(rep.facts_checked > 50);
    }

    #[test]
    fn injected_registry_fails_the_gate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let mut registry = nulpa_core::shipped_effects();
        register_injected(&mut registry);
        let rep = run_check(&root, &registry);
        assert!(rep.total_findings() >= 6);
        assert!(!rep.is_clean());
    }
}

//! Layer 2: the workspace invariant linter.
//!
//! Four lexical passes over the workspace source (production code only —
//! `#[cfg(test)]` modules and `tests/` trees are exempt):
//!
//! 1. **Launch registration** — outside `crates/simt` (which defines the
//!    launchers), the first argument of every `.launch_*` call must be a
//!    string literal naming a kernel with a registered
//!    [`Effects`](nulpa_simt::effects::Effects) descriptor: a launch the
//!    effect system cannot see is a launch the solver cannot vouch for.
//!    Every launcher takes a kernel name and a trace sink, so the
//!    signature itself keeps a launch traced.
//! 2. **Staging confinement** — `.stage(` / `.flush_shards(` only inside
//!    `crates/simt` (the staging machinery itself) or the kernel module
//!    `crates/core/src/gpu.rs`. Staged writes flushed outside a kernel's
//!    wave loop would bypass the visibility discipline the solver proves.
//! 3. **Determinism** — no wall-clock or entropy sources inside
//!    `crates/simt/src`: the scheduler must be bitwise reproducible, so
//!    `Instant::now` / `SystemTime` / `thread_rng` / `from_entropy` are
//!    banned there (timing belongs to `nulpa-telemetry` on the host
//!    side).
//! 4. **Unsafe audit** — `unsafe` tokens allowed only in files listed in
//!    `check/unsafe_allowlist.toml`, each with a committed reason; stale
//!    entries (allowlisted files with no remaining `unsafe`) are
//!    findings too, so the list can only shrink deliberately. Crate
//!    roots named in the manifest's `[headers]` table must carry their
//!    `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]` headers.

use crate::manifest::{parse_allowlist, Allowlist};
use crate::report::{CheckReport, Finding, FindingKind};
use crate::scan::{has_token, line_of, mask_cfg_test, mask_source};
use nulpa_simt::effects::EffectsRegistry;
use std::fs;
use std::path::{Path, PathBuf};

/// Where the checked manifest lives, relative to the workspace root.
pub const ALLOWLIST_PATH: &str = "check/unsafe_allowlist.toml";

/// Wall-clock / entropy tokens banned inside `crates/simt/src`.
const NONDET_TOKENS: &[&str] = &[
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "rand::random",
];

/// One workspace source file, loaded and masked.
struct SourceFile {
    /// Workspace-relative path, forward slashes.
    rel: String,
    /// Original text (string contents intact).
    raw: String,
    /// Comments and literal bodies blanked; delimiters kept.
    masked: String,
    /// `masked` with `#[cfg(test)]` modules additionally blanked.
    prod: String,
}

/// Run all four lints over the workspace rooted at `root`. Findings are
/// appended to `report`; `report.files_scanned` is bumped per file.
pub fn lint_workspace(root: &Path, registry: &EffectsRegistry, report: &mut CheckReport) {
    let files = collect_sources(root);
    let allowlist = load_allowlist(root, report);
    for file in &files {
        report.files_scanned += 1;
        lint_launch_sites(file, registry, report);
        lint_staging_confinement(file, report);
        lint_determinism(file, report);
        if let Some(list) = &allowlist {
            lint_unsafe_file(file, list, report);
        }
    }
    if let Some(list) = &allowlist {
        lint_stale_entries(&files, list, report);
        lint_headers(root, list, report);
    }
}

fn load_allowlist(root: &Path, report: &mut CheckReport) -> Option<Allowlist> {
    let path = root.join(ALLOWLIST_PATH);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            report.push(Finding {
                kind: FindingKind::UnsafeAudit,
                kernel: ALLOWLIST_PATH.to_string(),
                addr: ALLOWLIST_PATH.to_string(),
                site: "manifest".to_string(),
                witness: None,
                detail: format!("cannot read unsafe allowlist: {e}"),
            });
            return None;
        }
    };
    match parse_allowlist(&text) {
        Ok(list) => Some(list),
        Err(e) => {
            report.push(Finding {
                kind: FindingKind::UnsafeAudit,
                kernel: ALLOWLIST_PATH.to_string(),
                addr: ALLOWLIST_PATH.to_string(),
                site: "manifest".to_string(),
                witness: None,
                detail: format!("malformed unsafe allowlist: {e}"),
            });
            None
        }
    }
}

/// Collect `.rs` files under `src/` and `crates/*/src/`, sorted by
/// relative path for deterministic reports. `tests/`, `benches/` and
/// `vendor/` trees are intentionally out of scope: the invariants are
/// about production kernel and scheduler code.
fn collect_sources(root: &Path) -> Vec<SourceFile> {
    let mut dirs: Vec<PathBuf> = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let src = e.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    let mut paths = Vec::new();
    for d in dirs {
        walk_rs(&d, &mut paths);
    }
    let mut files: Vec<SourceFile> = paths
        .into_iter()
        .filter_map(|p| {
            let raw = fs::read_to_string(&p).ok()?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let masked = mask_source(&raw);
            let prod = mask_cfg_test(&masked);
            Some(SourceFile {
                rel,
                raw,
                masked,
                prod,
            })
        })
        .collect();
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    files
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

fn in_simt(rel: &str) -> bool {
    rel.starts_with("crates/simt/")
}

fn lint_file_finding(
    kind: FindingKind,
    file: &SourceFile,
    offset: usize,
    site: &str,
    detail: String,
) -> Finding {
    Finding {
        kind,
        kernel: file.rel.clone(),
        addr: format!("{}:{}", file.rel, line_of(&file.prod, offset)),
        site: site.to_string(),
        witness: None,
        detail,
    }
}

/// Lint 1: launch sites must name registered kernels.
fn lint_launch_sites(file: &SourceFile, registry: &EffectsRegistry, report: &mut CheckReport) {
    if in_simt(&file.rel) {
        return; // the launcher definitions themselves
    }
    let b = file.prod.as_bytes();
    let mut from = 0;
    while let Some(pos) = find(b, b".launch_", from) {
        from = pos + 1;
        // Method name runs to the opening paren.
        let name_start = pos + 1;
        let mut i = name_start;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        if i >= b.len() || b[i] != b'(' {
            continue; // a mention, not a call
        }
        let method = &file.prod[name_start..i];
        // First argument must be a string literal; masking keeps the
        // quote delimiters, so read the value out of the original text.
        let mut j = i + 1;
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        if j >= b.len() || b[j] != b'"' {
            report.push(lint_file_finding(
                FindingKind::UnregisteredKernel,
                file,
                pos,
                method,
                format!(
                    "`{method}` kernel name is not a string literal: the static \
                     verifier cannot resolve a computed kernel name to an effect \
                     descriptor"
                ),
            ));
            continue;
        }
        let Some(close) = find(b, b"\"", j + 1) else {
            continue;
        };
        let kernel = &file.raw[j + 1..close];
        if registry.lookup(kernel).is_none() {
            report.push(lint_file_finding(
                FindingKind::UnregisteredKernel,
                file,
                pos,
                method,
                format!(
                    "launch of \"{kernel}\" has no registered effect descriptor; \
                     register one in crates/core/src/effects.rs"
                ),
            ));
        }
    }
}

/// Lint 2: staging primitives confined to kernel scope.
fn lint_staging_confinement(file: &SourceFile, report: &mut CheckReport) {
    if in_simt(&file.rel) || file.rel == "crates/core/src/gpu.rs" {
        return;
    }
    for needle in [".stage(", ".flush_shards("] {
        let mut from = 0;
        while let Some(pos) = find(file.prod.as_bytes(), needle.as_bytes(), from) {
            from = pos + 1;
            report.push(lint_file_finding(
                FindingKind::StageOutsideKernel,
                file,
                pos,
                needle.trim_matches(|c| c == '.' || c == '('),
                format!(
                    "`{}` outside kernel scope: staged writes must flush at wave \
                     boundaries inside crates/core/src/gpu.rs or crates/simt",
                    needle.trim_matches(|c| c == '.' || c == '(')
                ),
            ));
        }
    }
}

/// Lint 3: no wall-clock or entropy inside the SIMT scheduler.
fn lint_determinism(file: &SourceFile, report: &mut CheckReport) {
    if !file.rel.starts_with("crates/simt/src") {
        return;
    }
    for token in NONDET_TOKENS {
        if let Some(pos) = find(file.prod.as_bytes(), token.as_bytes(), 0) {
            // `Instant` must be a real token, not e.g. `InstantLike`.
            if token.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !has_token(&file.prod, token)
            {
                continue;
            }
            report.push(lint_file_finding(
                FindingKind::NondeterminismInSimt,
                file,
                pos,
                "determinism",
                format!(
                    "`{token}` inside crates/simt: the scheduler must be bitwise \
                     reproducible; wall-clock and entropy belong in nulpa-telemetry"
                ),
            ));
        }
    }
}

/// Lint 4a: per-file unsafe audit. Matches the CI policy: the whole file
/// including its test module is audited (unsafe in tests is still
/// unsafe), but comments and string literals are not.
fn lint_unsafe_file(file: &SourceFile, list: &Allowlist, report: &mut CheckReport) {
    if !has_token(&file.masked, "unsafe") || list.allows(&file.rel) {
        return;
    }
    let pos = first_token(&file.masked, "unsafe").unwrap_or(0);
    report.push(Finding {
        kind: FindingKind::UnsafeAudit,
        kernel: file.rel.clone(),
        addr: format!("{}:{}", file.rel, line_of(&file.masked, pos)),
        site: "unsafe-audit".to_string(),
        witness: None,
        detail: format!(
            "`unsafe` in a file not in {ALLOWLIST_PATH}; either remove it or add:\n\
             + [[allow]]\n\
             + path = \"{}\"\n\
             + reason = \"<why this unsafe is sound>\"",
            file.rel
        ),
    });
}

/// Lint 4b: stale allowlist entries — the list may only shrink with the
/// code it covers.
fn lint_stale_entries(files: &[SourceFile], list: &Allowlist, report: &mut CheckReport) {
    for entry in &list.allow {
        let Some(file) = files.iter().find(|f| f.rel == entry.path) else {
            report.push(Finding {
                kind: FindingKind::UnsafeAudit,
                kernel: entry.path.clone(),
                addr: ALLOWLIST_PATH.to_string(),
                site: "unsafe-audit".to_string(),
                witness: None,
                detail: format!(
                    "allowlist entry for a file that does not exist; remove:\n\
                     - path = \"{}\"",
                    entry.path
                ),
            });
            continue;
        };
        if !has_token(&file.masked, "unsafe") {
            report.push(Finding {
                kind: FindingKind::UnsafeAudit,
                kernel: entry.path.clone(),
                addr: ALLOWLIST_PATH.to_string(),
                site: "unsafe-audit".to_string(),
                witness: None,
                detail: format!(
                    "stale allowlist entry: {} no longer contains `unsafe`; remove:\n\
                     - path = \"{}\"\n\
                     - reason = \"{}\"",
                    entry.path, entry.path, entry.reason
                ),
            });
        }
    }
}

/// Lint 4c: crate roots must carry the policy headers the manifest
/// declares for them.
fn lint_headers(root: &Path, list: &Allowlist, report: &mut CheckReport) {
    let checks = [
        (&list.forbid_headers, "#![forbid(unsafe_code)]"),
        (&list.deny_headers, "#![deny(unsafe_code)]"),
    ];
    for (crates, header) in checks {
        for krate in crates.iter() {
            let lib = format!("{krate}/src/lib.rs");
            let text = fs::read_to_string(root.join(&lib)).unwrap_or_default();
            if !mask_source(&text).contains(header) {
                report.push(Finding {
                    kind: FindingKind::UnsafeAudit,
                    kernel: krate.clone(),
                    addr: format!("{lib}:1"),
                    site: "unsafe-audit".to_string(),
                    witness: None,
                    detail: format!("crate root missing `{header}` required by {ALLOWLIST_PATH}"),
                });
            }
        }
    }
}

fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= hay.len() || needle.is_empty() {
        return None;
    }
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

fn first_token(text: &str, word: &str) -> Option<usize> {
    let b = text.as_bytes();
    let w = word.as_bytes();
    let mut i = 0;
    while let Some(pos) = find(b, w, i) {
        let before_ok = pos == 0 || !(b[pos - 1].is_ascii_alphanumeric() || b[pos - 1] == b'_');
        let after = pos + w.len();
        let after_ok = after >= b.len() || !(b[after].is_ascii_alphanumeric() || b[after] == b'_');
        if before_ok && after_ok {
            return Some(pos);
        }
        i = pos + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CheckReport;
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nulpa-check-lint-{name}-{}", id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/fake/src")).unwrap();
        fs::create_dir_all(dir.join("check")).unwrap();
        fs::write(
            dir.join("check/unsafe_allowlist.toml"),
            "[headers]\nforbid = []\ndeny = []\n",
        )
        .unwrap();
        dir
    }

    fn id() -> u32 {
        std::process::id()
    }

    fn run(dir: &Path) -> CheckReport {
        let mut rep = CheckReport::new();
        let registry = nulpa_core::shipped_effects();
        lint_workspace(dir, &registry, &mut rep);
        rep
    }

    #[test]
    fn computed_kernel_name_outside_simt_is_flagged() {
        let dir = scratch("computed");
        fs::write(
            dir.join("crates/fake/src/lib.rs"),
            "fn go(s: &S, name: &str) { s.launch_thread_per_item(name, 0, t, &[], m, k, w); }",
        )
        .unwrap();
        let rep = run(&dir);
        assert_eq!(rep.count_of(FindingKind::UnregisteredKernel), 1);
        let f = rep.of_kind(FindingKind::UnregisteredKernel).next().unwrap();
        assert_eq!(f.kernel, "crates/fake/src/lib.rs");
        assert!(f.addr.ends_with(":1"), "addr was {}", f.addr);
        assert!(f.detail.contains("not a string literal"), "{}", f.detail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unregistered_kernel_name_is_flagged_registered_is_clean() {
        let dir = scratch("names");
        fs::write(
            dir.join("crates/fake/src/lib.rs"),
            "fn go(s: &S) {\n    s.launch_thread_per_item(\"kernel:mystery\", 0, t, &[], m, k, w);\n    s.launch_thread_per_item(\"kernel:thread\", 0, t, &[], m, k, w);\n}",
        )
        .unwrap();
        let rep = run(&dir);
        assert_eq!(rep.count_of(FindingKind::UnregisteredKernel), 1);
        let f = rep.of_kind(FindingKind::UnregisteredKernel).next().unwrap();
        assert!(f.detail.contains("kernel:mystery"));
        assert!(f.addr.ends_with(":2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn launches_in_test_modules_are_exempt() {
        let dir = scratch("testmod");
        fs::write(
            dir.join("crates/fake/src/lib.rs"),
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(s: &S, name: &str) { s.launch_thread_per_item(name, 0, t, &[], m, k, w); }\n}",
        )
        .unwrap();
        let rep = run(&dir);
        assert_eq!(rep.count_of(FindingKind::UnregisteredKernel), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_outside_kernel_scope_is_flagged() {
        let dir = scratch("stage");
        fs::write(
            dir.join("crates/fake/src/lib.rs"),
            "fn sneak(s: &mut StagedWrites) { s.stage(0, 1); }",
        )
        .unwrap();
        let rep = run(&dir);
        assert_eq!(rep.count_of(FindingKind::StageOutsideKernel), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nondeterminism_lint_only_applies_to_simt() {
        let dir = scratch("nondet");
        fs::create_dir_all(dir.join("crates/simt/src")).unwrap();
        fs::write(
            dir.join("crates/simt/src/lib.rs"),
            "fn t() -> Instant { Instant::now() }",
        )
        .unwrap();
        fs::write(
            dir.join("crates/fake/src/lib.rs"),
            "fn t() -> Instant { Instant::now() }",
        )
        .unwrap();
        let rep = run(&dir);
        assert_eq!(rep.count_of(FindingKind::NondeterminismInSimt), 1);
        let f = rep
            .of_kind(FindingKind::NondeterminismInSimt)
            .next()
            .unwrap();
        assert_eq!(f.kernel, "crates/simt/src/lib.rs");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unlisted_unsafe_is_flagged_with_diff_style_fix() {
        let dir = scratch("unsafe");
        fs::write(
            dir.join("crates/fake/src/lib.rs"),
            "fn f(p: *mut u8) { unsafe { *p = 0; } }",
        )
        .unwrap();
        let rep = run(&dir);
        assert_eq!(rep.count_of(FindingKind::UnsafeAudit), 1);
        let f = rep.of_kind(FindingKind::UnsafeAudit).next().unwrap();
        assert!(f.detail.contains("+ path = \"crates/fake/src/lib.rs\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_allowlist_entry_is_flagged() {
        let dir = scratch("stale");
        fs::write(
            dir.join("check/unsafe_allowlist.toml"),
            "[[allow]]\npath = \"crates/fake/src/lib.rs\"\nreason = \"was needed\"\n\n[headers]\nforbid = []\ndeny = []\n",
        )
        .unwrap();
        fs::write(dir.join("crates/fake/src/lib.rs"), "fn all_safe() {}").unwrap();
        let rep = run(&dir);
        assert_eq!(rep.count_of(FindingKind::UnsafeAudit), 1);
        let f = rep.of_kind(FindingKind::UnsafeAudit).next().unwrap();
        assert!(f.detail.contains("stale allowlist entry"));
        assert!(f.detail.contains("- path = \"crates/fake/src/lib.rs\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let dir = scratch("masked");
        fs::write(
            dir.join("crates/fake/src/lib.rs"),
            "// unsafe is discussed here\nfn f() -> &'static str { \"unsafe\" }",
        )
        .unwrap();
        let rep = run(&dir);
        assert_eq!(rep.count_of(FindingKind::UnsafeAudit), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_forbid_header_is_flagged() {
        let dir = scratch("headers");
        fs::write(
            dir.join("check/unsafe_allowlist.toml"),
            "[headers]\nforbid = [\"crates/fake\"]\ndeny = []\n",
        )
        .unwrap();
        fs::write(dir.join("crates/fake/src/lib.rs"), "fn no_header() {}").unwrap();
        let rep = run(&dir);
        assert_eq!(rep.count_of(FindingKind::UnsafeAudit), 1);
        let f = rep.of_kind(FindingKind::UnsafeAudit).next().unwrap();
        assert!(f.detail.contains("#![forbid(unsafe_code)]"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_itself_a_finding() {
        let dir = scratch("nomanifest");
        fs::remove_file(dir.join("check/unsafe_allowlist.toml")).unwrap();
        fs::write(dir.join("crates/fake/src/lib.rs"), "fn f() {}").unwrap();
        let rep = run(&dir);
        assert!(rep.count_of(FindingKind::UnsafeAudit) >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_fake_workspace_is_clean() {
        let dir = scratch("clean");
        fs::write(
            dir.join("crates/fake/src/lib.rs"),
            "pub fn fine() { helper(); }\nfn helper() {}",
        )
        .unwrap();
        let rep = run(&dir);
        assert!(rep.is_clean(), "unexpected findings:\n{}", rep.render());
        assert!(rep.files_scanned >= 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! The merge gate: the workspace at HEAD has no `columnsgd-lint`
//! finding (lock order, blocking under a lock, malformed or stale
//! `lint: allow` annotations). It lives in the root package so a plain
//! `cargo test` at the root fails on a new violation before CI even runs
//! the standalone binary. The rules clippy enforces gate in
//! `cargo clippy --workspace --all-targets -- -D warnings`.

use std::path::Path;

use columnsgd_lint::run_lint;

#[test]
fn live_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run_lint(root).expect("lint run");
    // The annotation rule walks all of `crates/`, well beyond the lock
    // scope's dirs.
    assert!(
        report.files_scanned > 50,
        "walk found the workspace ({} files)",
        report.files_scanned
    );
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{} [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        findings.join("\n")
    );
}

//! The merge gate: the workspace at HEAD, under the checked-in
//! `lint.toml`, has no `columnsgd-lint` deny finding. It lives in the root
//! package so a plain `cargo test` at the root fails on a new violation
//! before CI even runs the standalone binary.

use std::path::Path;

use columnsgd_lint::{load_config, run_lint, Severity};

#[test]
fn live_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(root.join("lint.toml").exists(), "lint.toml is checked in");
    let cfg = load_config(root).expect("lint.toml parses");
    let report = run_lint(root, &cfg).expect("lint run");
    assert!(
        report.files_scanned > 50,
        "walk found the workspace ({} files)",
        report.files_scanned
    );
    let denies: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .map(|f| format!("{}:{} [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        denies.is_empty(),
        "workspace must be lint-clean:\n{}",
        denies.join("\n")
    );
}

//! Fixture-file suite for `columnsgd-lint`: every rule must fire on its
//! known-bad fixture and stay silent on its known-good fixture. (The
//! live-workspace gate is the root package's `tests/lint_clean.rs`, so a
//! plain `cargo test` at the root runs it. The rules clippy enforces are
//! tested by `fixtures/clippy/check.sh`.)

use std::fs;
use std::path::{Path, PathBuf};

use columnsgd_lint as lint;
use lint::run_lint;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Builds a throwaway tree with the named fixtures under `dir` (a
/// `crates/...` path, inside or outside the lock scope). Each test passes
/// a distinct `test` tag so concurrent tests never share a directory.
fn inject_tree(test: &str, dir: &str, files: &[(&str, &str)]) -> PathBuf {
    let base = std::env::temp_dir().join(format!("columnsgd-lint-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let src = base.join(dir);
    fs::create_dir_all(&src).expect("mkdir");
    for (name, fixture_name) in files {
        fs::write(src.join(name), fixture(fixture_name)).expect("write fixture");
    }
    base
}

fn rule_messages(report: &lint::Report, rule: &str) -> Vec<String> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.message.clone())
        .collect()
}

#[test]
fn annotation_rule_fires_on_bad_and_suppresses_on_good() {
    let base = inject_tree(
        "annotation-bad",
        "crates/core/src",
        &[("a.rs", "annotation_bad.rs")],
    );
    let report = run_lint(&base).expect("run");
    let lines: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == "annotation")
        .map(|f| f.line)
        .collect();
    // Malformed (reason-less), unknown rule id, and a rule clippy owns now.
    assert_eq!(lines, vec![4, 6, 8], "{}", report.render());
    fs::remove_dir_all(&base).ok();

    let base = inject_tree(
        "annotation-good",
        "crates/core/src",
        &[("a.rs", "annotation_good.rs")],
    );
    let report = run_lint(&base).expect("run");
    assert!(
        report.findings.is_empty(),
        "well-formed allows suppress: {}",
        report.render()
    );
    assert_eq!(
        report.allows.len(),
        2,
        "both allow forms land in the summary"
    );
    fs::remove_dir_all(&base).ok();
}

/// Injecting a bad fixture into a scanned tree makes the run fail; the
/// good fixtures alone keep it passing. This exercises the full
/// walk → scan → check → report path.
#[test]
fn bad_fixture_injection_fails_the_run() {
    let goods = [
        ("lock_order_good.rs", "lock_order_good.rs"),
        ("blocking_good.rs", "blocking_good.rs"),
        ("annotation_good.rs", "annotation_good.rs"),
    ];
    let base = inject_tree("inject", "crates/core/src", &goods);
    let report = run_lint(&base).expect("run");
    assert!(
        !report.failed(),
        "good fixtures must pass: {}",
        report.render()
    );
    assert_eq!(report.files_scanned, 3);

    fs::write(
        base.join("crates/core/src/injected_bad.rs"),
        fixture("blocking_bad.rs"),
    )
    .expect("write bad fixture");
    let report = run_lint(&base).expect("run");
    assert!(report.failed(), "injected bad fixture must fail the run");
    assert!(report
        .findings
        .iter()
        .all(|f| f.path == "crates/core/src/injected_bad.rs"));
    fs::remove_dir_all(&base).ok();
}

/// The acceptance scenario: a deliberately introduced two-lock cycle
/// (direct and via one call-graph hop) is denied; a consistent global
/// order passes.
#[test]
fn lock_order_cycle_detected_direct_and_one_hop() {
    let base = inject_tree(
        "lock-bad",
        "crates/cluster/src",
        &[("locks.rs", "lock_order_bad.rs")],
    );
    let report = run_lint(&base).expect("run");
    let msgs = rule_messages(&report, "lock-order");
    assert!(
        msgs.iter()
            .any(|m| m.contains("lock-order cycle") && m.contains("`a`") && m.contains("`b`")),
        "the a/b cycle must be reported: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("via call to `take_b`")),
        "the one-hop edge through take_b must be part of a cycle: {msgs:?}"
    );
    fs::remove_dir_all(&base).ok();

    let base = inject_tree(
        "lock-good",
        "crates/cluster/src",
        &[("locks.rs", "lock_order_good.rs")],
    );
    let report = run_lint(&base).expect("run");
    assert!(
        rule_messages(&report, "lock-order").is_empty(),
        "a consistent a-before-b order is acyclic: {:?}",
        report.findings
    );
    fs::remove_dir_all(&base).ok();
}

#[test]
fn blocking_under_lock_detected_not_staged() {
    let base = inject_tree(
        "block-bad",
        "crates/telemetry/src",
        &[("q.rs", "blocking_bad.rs")],
    );
    let report = run_lint(&base).expect("run");
    let msgs = rule_messages(&report, "blocking-under-lock");
    assert!(
        msgs.iter()
            .any(|m| m.contains("`send`") && m.contains("`slots`")),
        "send under the bound guard must fire: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("`write_frame`")),
        "blocking call taking a temporary guard in its args must fire: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`write_prefixed_frame`") && m.contains("`writer`")),
        "a prefixed frame write under the writer guard must fire: {msgs:?}"
    );
    fs::remove_dir_all(&base).ok();

    let base = inject_tree(
        "block-good",
        "crates/telemetry/src",
        &[("q.rs", "blocking_good.rs")],
    );
    let report = run_lint(&base).expect("run");
    assert!(
        rule_messages(&report, "blocking-under-lock").is_empty(),
        "staged send after the guard's block (and try_send) are fine: {:?}",
        report.findings
    );
    fs::remove_dir_all(&base).ok();
}

/// Both lock rules cover exactly `LOCK_SCOPE`: the same bad fixtures in
/// a crate outside it (or in a skipped `tests` dir) are not findings.
#[test]
fn lock_rules_stay_inside_their_scope() {
    let files = [
        ("locks.rs", "lock_order_bad.rs"),
        ("q.rs", "blocking_bad.rs"),
    ];
    for dir in ["crates/bench/src", "crates/core/tests"] {
        let base = inject_tree("scope", dir, &files);
        let report = run_lint(&base).expect("run");
        assert!(!report.failed(), "{dir}: {}", report.render());
        fs::remove_dir_all(&base).ok();
    }
}

/// The JSON report must agree with the text report finding-for-finding
/// (CI's self-check step asserts the same thing with a real parser).
#[test]
fn json_report_agrees_with_text_report() {
    let base = inject_tree(
        "json-agree",
        "crates/rowsgd/src",
        &[("locks.rs", "lock_order_bad.rs")],
    );
    let report = run_lint(&base).expect("run");
    assert!(!report.findings.is_empty());

    let json = report.to_json();
    let text = report.render();
    assert_eq!(
        json.matches("{\"rule\": ").count(),
        report.findings.len(),
        "one JSON object per finding"
    );
    assert!(json.contains(&format!("\"deny\": {}", report.findings.len())));
    assert!(json.contains(&format!("\"files_scanned\": {}", report.files_scanned)));
    for f in &report.findings {
        assert!(
            text.contains(&format!("{}:{}", f.path, f.line)),
            "every JSON finding appears in the text report"
        );
    }
    fs::remove_dir_all(&base).ok();
}

/// Regression test for the platform-dependent walker: `read_dir` order
/// is filesystem-specific, so the walk sorts entries — two runs (and any
/// two platforms) must produce byte-identical reports with paths in
/// sorted order.
#[test]
fn walker_is_deterministic_and_sorted() {
    let base = std::env::temp_dir().join(format!("columnsgd-lint-walk-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    // Several crates and nested dirs, created in non-sorted order.
    for dir in [
        "crates/zeta/src",
        "crates/alpha/src",
        "crates/alpha/src/sub",
    ] {
        fs::create_dir_all(base.join(dir)).expect("mkdir");
    }
    for file in [
        "crates/zeta/src/lib.rs",
        "crates/alpha/src/z.rs",
        "crates/alpha/src/a.rs",
        "crates/alpha/src/sub/m.rs",
    ] {
        // One annotation finding per file, so ordering is observable.
        fs::write(
            base.join(file),
            "// lint: allow(no-such-rule) ordering probe\npub fn f() {}\n",
        )
        .expect("write");
    }
    let first = run_lint(&base).expect("run 1");
    let second = run_lint(&base).expect("run 2");
    assert_eq!(first.files_scanned, 4);
    assert_eq!(first.render(), second.render());
    assert_eq!(first.to_json(), second.to_json());
    let paths: Vec<&str> = first.findings.iter().map(|f| f.path.as_str()).collect();
    assert_eq!(
        paths,
        vec![
            "crates/alpha/src/a.rs",
            "crates/alpha/src/sub/m.rs",
            "crates/alpha/src/z.rs",
            "crates/zeta/src/lib.rs",
        ],
        "findings come out in sorted `/`-joined path order"
    );
    fs::remove_dir_all(&base).ok();
}

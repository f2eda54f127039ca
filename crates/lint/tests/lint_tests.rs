//! Fixture-file suite for `columnsgd-lint`: every rule must fire on its
//! known-bad fixture and stay silent on its known-good fixture. (The
//! live-workspace gate is the root package's `tests/lint_clean.rs`, so a
//! plain `cargo test` at the root runs it.)

use std::fs;
use std::path::{Path, PathBuf};

use columnsgd_lint as lint;
use lint::{run_lint, scan, Config, Severity};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Rules fired by `check_file` on a fixture, under a config where every
/// rule applies everywhere (the default for unknown rules).
fn fired(name: &str) -> Vec<String> {
    let scanned = scan::scan(&fixture(name));
    let cfg = Config::parse("").expect("empty config");
    let (findings, _) = lint::rules::check_file("crates/fixture/src/lib.rs", &scanned, &cfg);
    findings.into_iter().map(|f| f.rule).collect()
}

#[test]
fn determinism_time_fires_on_bad_not_good() {
    let bad = fired("determinism_time_bad.rs");
    assert!(
        bad.iter().filter(|r| *r == "determinism-time").count() >= 3,
        "Instant::now, SystemTime::now, and thread_rng must all fire: {bad:?}"
    );
    assert!(
        !fired("determinism_time_good.rs").contains(&"determinism-time".to_string()),
        "comments/strings mentioning timers must not fire"
    );
}

#[test]
fn determinism_iteration_fires_on_bad_not_good() {
    let bad = fired("determinism_iteration_bad.rs");
    assert!(
        bad.iter().filter(|r| *r == "determinism-iteration").count() >= 2,
        "HashMap and HashSet must both fire: {bad:?}"
    );
    assert!(!fired("determinism_iteration_good.rs").contains(&"determinism-iteration".to_string()));
}

#[test]
fn metering_fires_on_bad_not_good() {
    let bad = fired("metering_bad.rs");
    assert!(
        bad.iter().filter(|r| *r == "metering").count() >= 2,
        "crossbeam and mpsc must both fire: {bad:?}"
    );
    assert!(!fired("metering_good.rs").contains(&"metering".to_string()));
}

#[test]
fn panic_hygiene_fires_on_bad_not_good() {
    let bad = fired("panic_hygiene_bad.rs");
    assert!(
        bad.iter().filter(|r| *r == "panic-hygiene").count() >= 4,
        "unwrap, expect, panic!, unreachable! must all fire: {bad:?}"
    );
    let good = fired("panic_hygiene_good.rs");
    assert!(
        good.is_empty(),
        "unwrap_or / `expected` ident / strings must not fire: {good:?}"
    );
}

#[test]
fn annotation_rule_fires_on_bad_and_suppresses_on_good() {
    let bad = fired("annotation_bad.rs");
    // Malformed (reason-less) allow + unknown rule id are findings, and the
    // malformed allow does NOT suppress the unwrap under it.
    assert!(
        bad.iter().filter(|r| *r == "annotation").count() >= 2,
        "{bad:?}"
    );
    assert!(bad.contains(&"panic-hygiene".to_string()), "{bad:?}");

    let scanned = scan::scan(&fixture("annotation_good.rs"));
    let cfg = Config::parse("").expect("empty config");
    let (findings, used) = lint::rules::check_file("crates/fixture/src/lib.rs", &scanned, &cfg);
    assert!(
        findings.is_empty(),
        "well-formed allows suppress: {findings:?}"
    );
    assert_eq!(used.len(), 2, "both allow forms land in the summary");
}

/// Injecting any bad fixture into a scanned tree makes the run fail; the
/// good fixtures alone keep it passing. This exercises the full
/// walk → scan → check → report path, not just `check_file`.
#[test]
fn bad_fixture_injection_fails_the_run() {
    let base = std::env::temp_dir().join(format!("columnsgd-lint-inject-{}", std::process::id()));
    let src = base.join("crates/injected/src");
    fs::create_dir_all(&src).expect("mkdir");
    let cfg = Config::parse("[files]\ninclude = [\"crates\"]").expect("config");

    // Good fixtures only: clean run.
    for good in [
        "determinism_time_good.rs",
        "determinism_iteration_good.rs",
        "metering_good.rs",
        "panic_hygiene_good.rs",
        "annotation_good.rs",
    ] {
        fs::write(src.join(good), fixture(good)).expect("write good fixture");
    }
    let report = run_lint(&base, &cfg).expect("run");
    assert!(
        !report.failed(),
        "good fixtures must pass: {}",
        report.render()
    );
    assert_eq!(report.files_scanned, 5);
    assert_eq!(
        report.allows.len(),
        2,
        "annotation_good's allows summarized"
    );

    // Inject one bad fixture: the run must fail.
    fs::write(src.join("injected_bad.rs"), fixture("panic_hygiene_bad.rs"))
        .expect("write bad fixture");
    let report = run_lint(&base, &cfg).expect("run");
    assert!(report.failed(), "injected bad fixture must fail the run");
    assert!(report
        .findings
        .iter()
        .all(|f| f.path == "crates/injected/src/injected_bad.rs"));

    fs::remove_dir_all(&base).ok();
}

/// Builds a throwaway tree at `crates/injected/src/` from named
/// fixtures, for the cross-file rules that need `run_lint` (not just
/// `check_file`). Each test passes a distinct `test` tag so concurrent
/// tests never share a directory.
fn inject_tree(test: &str, files: &[(&str, &str)]) -> PathBuf {
    let base = std::env::temp_dir().join(format!("columnsgd-lint-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let src = base.join("crates/injected/src");
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

const PROTOCOL_CFG: &str = r#"
[files]
include = ["crates"]

[protocol.Msg]
def = "crates/injected/src/proto.rs"
encode = ["crates/injected/src/proto.rs::encode_body"]
decode = ["crates/injected/src/proto.rs::decode_body"]
handlers = ["crates/injected/src/proto.rs::handle"]
"#;

/// The acceptance scenario: a variant whose encode/decode/handler arms
/// were removed (hidden behind wildcards) is reported by
/// name at every site; the fully covered twin passes clean.
#[test]
fn protocol_conformance_names_the_missing_variant_per_site() {
    let cfg = Config::parse(PROTOCOL_CFG).expect("config");

    let base = inject_tree("proto-bad", &[("proto.rs", "protocol_bad.rs")]);
    let report = run_lint(&base, &cfg).expect("run");
    let msgs = rule_messages(&report, "protocol-conformance");
    for kind in ["encode", "decode", "handler"] {
        assert!(
            msgs.iter()
                .any(|m| m.contains("`Msg::Beta`") && m.contains(&format!("no {kind} arm"))),
            "missing {kind} arm for Msg::Beta must be reported: {msgs:?}"
        );
    }
    // Alpha and Gamma are covered everywhere — only Beta is reported.
    assert!(
        msgs.iter().all(|m| m.contains("`Msg::Beta`")),
        "covered variants must not fire: {msgs:?}"
    );
    assert!(report.failed(), "protocol-conformance is deny by default");
    fs::remove_dir_all(&base).ok();

    let base = inject_tree("proto-good", &[("proto.rs", "protocol_good.rs")]);
    let report = run_lint(&base, &cfg).expect("run");
    assert!(
        rule_messages(&report, "protocol-conformance").is_empty(),
        "explicit (including grouped `|`) arms are coverage: {:?}",
        report.findings
    );
    fs::remove_dir_all(&base).ok();
}

const CROSS_FILE_CFG: &str = "[files]\ninclude = [\"crates\"]";

/// The acceptance scenario: a deliberately introduced two-lock cycle
/// (direct and via one call-graph hop) is denied; a consistent global
/// order passes.
#[test]
fn lock_order_cycle_detected_direct_and_one_hop() {
    let cfg = Config::parse(CROSS_FILE_CFG).expect("config");

    let base = inject_tree("lock-bad", &[("locks.rs", "lock_order_bad.rs")]);
    let report = run_lint(&base, &cfg).expect("run");
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

    let base = inject_tree("lock-good", &[("locks.rs", "lock_order_good.rs")]);
    let report = run_lint(&base, &cfg).expect("run");
    assert!(
        rule_messages(&report, "lock-order").is_empty(),
        "a consistent a-before-b order is acyclic: {:?}",
        report.findings
    );
    fs::remove_dir_all(&base).ok();
}

#[test]
fn blocking_under_lock_detected_not_staged() {
    let cfg = Config::parse(CROSS_FILE_CFG).expect("config");

    let base = inject_tree("block-bad", &[("q.rs", "blocking_bad.rs")]);
    let report = run_lint(&base, &cfg).expect("run");
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

    let base = inject_tree("block-good", &[("q.rs", "blocking_good.rs")]);
    let report = run_lint(&base, &cfg).expect("run");
    assert!(
        rule_messages(&report, "blocking-under-lock").is_empty(),
        "staged send after the guard's block (and try_send) are fine: {:?}",
        report.findings
    );
    fs::remove_dir_all(&base).ok();
}

#[test]
fn atomics_ordering_warns_on_bad_not_good() {
    let cfg = Config::parse(
        "[files]\ninclude = [\"crates\"]\n\n[rules.atomics-ordering]\nseverity = \"warn\"\n",
    )
    .expect("config");
    let scanned = scan::scan(&fixture("atomics_bad.rs"));
    let (findings, _) = lint::rules::check_file("crates/injected/src/a.rs", &scanned, &cfg);
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "atomics-ordering")
        .collect();
    assert_eq!(hits.len(), 2, "fetch_add and load both fire: {findings:?}");
    assert!(
        hits.iter().all(|f| f.severity == Severity::Warn),
        "atomics-ordering is advisory: {hits:?}"
    );

    let scanned = scan::scan(&fixture("atomics_good.rs"));
    let (findings, _) = lint::rules::check_file("crates/injected/src/a.rs", &scanned, &cfg);
    assert!(
        !findings.iter().any(|f| f.rule == "atomics-ordering"),
        "Acquire/Release/SeqCst and comment/string mentions must not fire: {findings:?}"
    );
}

/// The JSON report must agree with the text report finding-for-finding
/// (CI's self-check step asserts the same thing with a real parser).
#[test]
fn json_report_agrees_with_text_report() {
    let cfg = Config::parse(PROTOCOL_CFG).expect("config");
    let base = inject_tree("json-agree", &[("proto.rs", "protocol_bad.rs")]);
    let report = run_lint(&base, &cfg).expect("run");
    assert!(!report.findings.is_empty());

    let json = report.to_json();
    let text = report.render();
    assert_eq!(
        json.matches("{\"rule\": ").count(),
        report.findings.len(),
        "one JSON object per finding"
    );
    assert!(json.contains(&format!("\"deny\": {}", report.deny_count())));
    assert!(json.contains(&format!("\"warn\": {}", report.warn_count())));
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
        // One panic-hygiene finding per file, so ordering is observable.
        fs::write(
            base.join(file),
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )
        .expect("write");
    }
    let cfg = Config::parse(CROSS_FILE_CFG).expect("config");
    let first = run_lint(&base, &cfg).expect("run 1");
    let second = run_lint(&base, &cfg).expect("run 2");
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

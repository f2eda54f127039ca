//! `columnsgd-lint` — the workspace's lock analysis.
//!
//! Everything clippy can express (determinism, metering, panic and
//! allocator hygiene, wildcard handler arms) is enforced by the root
//! `clippy.toml` and lint attributes (DESIGN.md §10). What is left needs
//! a cross-file view clippy does not have: a dependency-free analyzer over
//! the workspace's `.rs` files (excluding `third_party`, tests, examples
//! and fixtures):
//!
//! 1. **scan** — lexical token stream per file ([`scan`]);
//! 2. **symbols** — fn bodies, lock declarations/acquisitions and call
//!    sites ([`symbols`]);
//! 3. **locks** — `lock-order` and `blocking-under-lock` over the lock
//!    acquisition graph of [`locks::LOCK_SCOPE`] ([`locks`]);
//! 4. **annotation** — every `// lint: allow(<rule>) <reason>` must name
//!    one of those rules and give a reason, in every scanned file.
//!
//! See DESIGN.md §15 for the analysis and its soundness limits.

pub mod locks;
pub mod scan;
pub mod symbols;

use std::fs;
use std::path::{Path, PathBuf};

use scan::Allow;

/// Meta-rule id for malformed/unknown `lint: allow` annotations.
pub const ANNOTATION_RULE: &str = "annotation";

/// Directory names the walk skips anywhere under `crates/`.
const SKIP_DIRS: [&str; 5] = ["tests", "benches", "examples", "fixtures", "target"];

/// One reported violation. Every rule denies: any finding fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id that fired.
    pub rule: String,
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the match.
    pub message: String,
}

/// An allow annotation together with the file it appeared in.
#[derive(Debug, Clone)]
pub struct UsedAllow {
    /// Workspace-relative path.
    pub path: String,
    /// The annotation itself.
    pub allow: Allow,
}

/// One scanned file with its extracted symbols — the unit the lock
/// analysis consumes.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Token stream and allow annotations.
    pub scanned: scan::Scanned,
    /// Extracted symbols.
    pub symbols: symbols::FileSymbols,
}

/// The result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Every `lint: allow` annotation seen, sorted by (path, line).
    pub allows: Vec<UsedAllow>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run should exit non-zero.
    pub fn failed(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Renders the human-readable report (deterministic: inputs are
    /// sorted, so two runs over the same tree produce identical text).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "deny[{rule}] {path}:{line}: {msg}\n",
                rule = f.rule,
                path = f.path,
                line = f.line,
                msg = f.message
            ));
        }
        if !self.allows.is_empty() {
            out.push_str("\nsuppressions in effect:\n");
            for ua in &self.allows {
                out.push_str(&format!(
                    "  {path}:{line} allow({rule}) — {reason}\n",
                    path = ua.path,
                    line = ua.allow.line,
                    rule = ua.allow.rule,
                    reason = ua.allow.reason
                ));
            }
        }
        out.push_str(&format!(
            "\n{files} files scanned: {deny} deny, 0 warn, {allows} suppression(s)\n",
            files = self.files_scanned,
            deny = self.findings.len(),
            allows = self.allows.len()
        ));
        out
    }

    /// Renders the machine-readable JSON report. Hand-rolled (no serde:
    /// offline-vendoring constraint) and deterministic — same sorted
    /// inputs as [`Report::render`], stable key order, `\n` separators.
    /// Schema 1: `warn` stays in the schema and is always 0.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"deny\": {},\n", self.findings.len()));
        out.push_str("  \"warn\": 0,\n");
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"severity\": \"deny\", \"message\": {}}}",
                json_str(&f.rule),
                json_str(&f.path),
                f.line,
                json_str(&f.message)
            ));
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"suppressions\": [");
        for (i, ua) in self.allows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
                json_str(&ua.path),
                ua.allow.line,
                json_str(&ua.allow.rule),
                json_str(&ua.allow.reason)
            ));
        }
        out.push_str(if self.allows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// JSON string literal with the escapes the report can actually contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs the lint over every `.rs` file under `root/crates`.
pub fn run_lint(root: &Path) -> Result<Report, String> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    let base = root.join("crates");
    if base.exists() {
        collect_rs_files(root, &base, &mut files)?;
    }
    // Sort by the `/`-joined relative string (not PathBuf component
    // order) so report ordering is byte-identical across platforms and
    // filesystems.
    files.sort_by(|a, b| a.0.cmp(&b.0));

    let mut units = Vec::with_capacity(files.len());
    for (rel, path) in files {
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let scanned = scan::scan(&text);
        let symbols = symbols::FileSymbols::extract(&scanned);
        units.push(FileUnit {
            rel,
            scanned,
            symbols,
        });
    }

    let mut report = Report {
        files_scanned: units.len(),
        ..Report::default()
    };
    for unit in &units {
        report.findings.extend(check_annotations(unit));
        report
            .allows
            .extend(unit.scanned.allows.iter().map(|a| UsedAllow {
                path: unit.rel.clone(),
                allow: a.clone(),
            }));
    }
    report.findings.extend(locks::check(&units));

    report.findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    report.findings.dedup();
    report
        .allows
        .sort_by(|a, b| (&a.path, a.allow.line).cmp(&(&b.path, b.allow.line)));
    Ok(report)
}

/// The annotation meta-rule: malformed annotations and annotations naming
/// an unknown rule are findings themselves, so the suppression summary
/// stays auditable.
fn check_annotations(unit: &FileUnit) -> Vec<Finding> {
    let finding = |line, message| Finding {
        rule: ANNOTATION_RULE.to_string(),
        path: unit.rel.clone(),
        line,
        message,
    };
    let known = [ANNOTATION_RULE, locks::ORDER_RULE, locks::BLOCKING_RULE];
    let mut out: Vec<Finding> = unit
        .scanned
        .malformed_allows
        .iter()
        .map(|&line| {
            finding(
                line,
                "malformed `lint: allow` — expected `// lint: allow(<rule>) <reason>` \
                 with a non-empty reason"
                    .to_string(),
            )
        })
        .collect();
    for a in &unit.scanned.allows {
        if !known.contains(&a.rule.as_str()) {
            out.push(finding(
                a.line,
                format!("`lint: allow({})` names an unknown rule", a.rule),
            ));
        }
    }
    out
}

/// `/`-separated path of `file` relative to `root`.
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, PathBuf)>,
) -> Result<(), String> {
    // Sorted traversal: `read_dir` order is filesystem-dependent, and a
    // deterministic walk is what keeps the text/JSON reports
    // byte-identical across runs and platforms.
    let entries = fs::read_dir(dir).map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
    for path in paths {
        if path.is_dir() {
            let skip = path
                .file_name()
                .is_some_and(|n| SKIP_DIRS.iter().any(|d| n == *d));
            if !skip {
                collect_rs_files(root, &path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((relative_path(root, &path), path));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut report = Report {
            files_scanned: 2,
            ..Report::default()
        };
        report.findings.push(Finding {
            rule: "lock-order".into(),
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            message: "raw \"cycle\"".into(),
        });
        report
    }

    #[test]
    fn report_render_is_stable_and_counts() {
        let report = sample_report();
        assert!(report.failed());
        let text = report.render();
        assert!(text.contains("deny[lock-order] crates/x/src/lib.rs:3: raw \"cycle\""));
        assert!(text.contains("1 deny, 0 warn"));
    }

    #[test]
    fn clean_report_passes() {
        let report = Report::default();
        assert!(!report.failed());
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"deny\": 1"));
        assert!(json.contains("\"warn\": 0"));
        // Quotes inside messages are escaped.
        assert!(json.contains("raw \\\"cycle\\\""));
        // One JSON object per finding.
        assert_eq!(json.matches("\"rule\": ").count(), report.findings.len());
    }

    #[test]
    fn empty_json_report_has_empty_arrays() {
        let json = Report::default().to_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"suppressions\": []"));
    }

    fn annotations(src: &str) -> Vec<(String, u32)> {
        let scanned = scan::scan(src);
        let unit = FileUnit {
            rel: "crates/x/src/lib.rs".into(),
            symbols: symbols::FileSymbols::extract(&scanned),
            scanned,
        };
        check_annotations(&unit)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn lock_rules_are_known_to_annotations() {
        let fired = annotations(
            "// lint: allow(lock-order) writer is a leaf lock\nlet x = 1;\n// lint: allow(blocking-under-lock) staged\nlet y = 2;",
        );
        assert!(fired.is_empty(), "{fired:?}");
    }

    #[test]
    fn unknown_or_migrated_rule_in_allow_is_a_finding() {
        let fired = annotations(
            "// lint: allow(no-such-rule) some reason\nlet x = 1;\n// lint: allow(panic-hygiene) now a clippy expect\nx.unwrap();",
        );
        assert_eq!(
            fired,
            vec![("annotation".into(), 1), ("annotation".into(), 3)]
        );
    }

    #[test]
    fn malformed_allow_is_a_finding() {
        let fired = annotations("// lint: allow(lock-order)\nlet g = m.lock();");
        assert_eq!(fired, vec![("annotation".into(), 1)]);
    }
}

//! Protocol-conformance: every variant of every wire enum must be
//! covered at every configured site.
//!
//! Driven by `[protocol.<Enum>]` sections in `lint.toml`. Two coverage
//! modes:
//!
//! * **pattern** (`encode`, `handlers`): the variant must
//!   appear in *pattern position* — a `match` arm or a `let`-family
//!   pattern. Constructing a variant in an arm body (a worker building a
//!   `StatsReply` to send) is not coverage, and neither is a wildcard or
//!   bare-binding arm: that is exactly the drift this rule exists to
//!   catch — the explicit log-and-drop arm is required.
//! * **mention** (`decode`): decoders match on integer wire tags and
//!   construct variants in arm bodies, so coverage is "the path
//!   `Enum::Variant` appears anywhere in the site".
//!
//! Findings name the variant and the site; the anchor line is the
//! site fn's `fn` line (or the first relevant `match` for file-level
//! sites), so a single inline `// lint: allow(protocol-conformance)`
//! there can suppress a deliberate gap.

use crate::config::{Config, Severity, SiteRef};
use crate::rules::Finding;
use crate::symbols::EnumDef;
use crate::FileUnit;

/// Rule id.
pub const RULE: &str = "protocol-conformance";

enum Mode {
    Pattern,
    Mention,
}

/// Runs the protocol-conformance pass over the whole file set.
pub fn check(units: &[FileUnit], config: &Config) -> Vec<Finding> {
    let rc = config.rule(RULE);
    let mut findings = Vec::new();
    if rc.severity == Severity::Off {
        return findings;
    }
    let mut push = |path: &str, line: u32, message: String| {
        findings.push(Finding {
            rule: RULE.to_string(),
            path: path.to_string(),
            line,
            message,
            severity: rc.severity,
        });
    };
    for spec in &config.protocols {
        let Some(def_unit) = units.iter().find(|u| u.rel == spec.def) else {
            push(
                &spec.def,
                1,
                format!(
                    "protocol spec for `{}`: definition file was not scanned",
                    spec.enum_name
                ),
            );
            continue;
        };
        let Some(enum_def) = def_unit
            .symbols
            .enums
            .iter()
            .find(|e| e.name == spec.enum_name)
        else {
            push(
                &spec.def,
                1,
                format!("protocol spec: enum `{}` not found here", spec.enum_name),
            );
            continue;
        };
        for (kind, sites, mode) in [
            ("encode", &spec.encode, Mode::Pattern),
            ("decode", &spec.decode, Mode::Mention),
            ("handler", &spec.handlers, Mode::Pattern),
        ] {
            for site in sites {
                check_site(units, &rc, spec, enum_def, kind, site, &mode, &mut push);
            }
        }
    }
    findings
}

#[allow(clippy::too_many_arguments)]
fn check_site(
    units: &[FileUnit],
    rc: &crate::config::RuleConfig,
    spec: &crate::config::ProtocolSpec,
    enum_def: &EnumDef,
    kind: &str,
    site: &SiteRef,
    mode: &Mode,
    push: &mut dyn FnMut(&str, u32, String),
) {
    if !rc.applies_to(&site.path) {
        return;
    }
    let Some(unit) = units.iter().find(|u| u.rel == site.path) else {
        push(
            &site.path,
            1,
            format!(
                "protocol spec for `{}`: {kind} site file was not scanned",
                spec.enum_name
            ),
        );
        return;
    };
    // Token-index ranges the check is confined to: the named fn's
    // bodies, or the whole file.
    let ranges: Vec<(usize, usize)> = match &site.func {
        Some(f) => {
            let r: Vec<_> = unit
                .symbols
                .fns_named(f)
                .map(|fd| (fd.body_start, fd.body_end))
                .collect();
            if r.is_empty() {
                push(
                    &site.path,
                    1,
                    format!(
                        "protocol spec for `{}`: fn `{f}` not found in {kind} site",
                        spec.enum_name
                    ),
                );
                return;
            }
            r
        }
        None => vec![(0, unit.scanned.tokens.len())],
    };
    let in_range = |idx: usize| ranges.iter().any(|&(s, e)| idx >= s && idx <= e);

    let mut covered: Vec<&str> = Vec::new();
    let mut anchor: Option<u32> = None;
    match mode {
        Mode::Pattern => {
            for m in unit.symbols.matches.iter().filter(|m| in_range(m.idx)) {
                let mut relevant = false;
                for arm in &m.arms {
                    for (q, v) in &arm.paths {
                        if q == &spec.enum_name {
                            covered.push(v);
                            relevant = true;
                        }
                    }
                }
                if relevant && anchor.is_none() {
                    anchor = Some(m.line);
                }
            }
            for p in unit.symbols.pattern_uses.iter().filter(|p| in_range(p.idx)) {
                for (q, v) in &p.paths {
                    if q == &spec.enum_name {
                        covered.push(v);
                    }
                }
            }
        }
        Mode::Mention => {
            let toks = &unit.scanned.tokens;
            for i in 0..toks.len().saturating_sub(3) {
                if in_range(i)
                    && toks[i].text == spec.enum_name
                    && toks[i + 1].text == ":"
                    && toks[i + 2].text == ":"
                {
                    covered.push(&toks[i + 3].text);
                    if anchor.is_none() {
                        anchor = Some(toks[i].line);
                    }
                }
            }
        }
    }
    // Anchor: prefer the site fn's `fn` line so one allow covers the
    // whole site; fall back to the first relevant match/mention.
    let anchor_line = site
        .func
        .as_ref()
        .and_then(|f| unit.symbols.fns_named(f).next().map(|fd| fd.line))
        .or(anchor)
        .unwrap_or(1);

    let site_desc = match &site.func {
        Some(f) => format!("{}::{f}", site.path),
        None => site.path.clone(),
    };
    for v in &enum_def.variants {
        if covered.iter().any(|c| *c == v.name) {
            continue;
        }
        if unit.scanned.is_allowed(RULE, anchor_line) {
            continue;
        }
        push(
            &site.path,
            anchor_line,
            format!(
                "`{}::{}` has no {kind} arm in {site_desc} (declared at {}:{}); add an \
                 explicit arm (wildcards do not count as coverage)",
                spec.enum_name, v.name, spec.def, v.line
            ),
        );
    }
}

//! `lint.toml` — the checked-in configuration of the invariant checker.
//!
//! A deliberately tiny, hand-rolled TOML subset (sections, string values,
//! string arrays, `#` comments): pulling a real TOML crate would break the
//! offline-vendoring constraint, and the lint's configuration needs
//! nothing richer.
//!
//! ```toml
//! [files]
//! include = ["crates", "src"]
//! exclude_prefixes = ["third_party", "crates/lint/fixtures"]
//! exclude_dirs = ["tests", "benches", "examples", "fixtures", "target"]
//!
//! [rules.panic-hygiene]
//! severity = "deny"            # deny | warn | off
//! scope = ["crates/core/src"]  # prefixes where the rule applies (empty = everywhere)
//! allow_paths = []             # prefixes exempted inside the scope
//! ```

use std::collections::BTreeMap;

/// What a rule's findings do to the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Report and fail the run.
    Deny,
    /// Report, but do not fail the run.
    Warn,
    /// Rule disabled.
    Off,
}

impl Severity {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "deny" => Ok(Severity::Deny),
            "warn" => Ok(Severity::Warn),
            "off" => Ok(Severity::Off),
            other => Err(format!("unknown severity {other:?} (deny|warn|off)")),
        }
    }
}

/// Per-rule configuration.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Finding severity.
    pub severity: Severity,
    /// Path prefixes the rule applies to; empty means every scanned file.
    pub scope: Vec<String>,
    /// Path prefixes exempted from the rule (coarse, reasoned-in-config
    /// escape hatch; the fine-grained one is the inline annotation).
    pub allow_paths: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        Self {
            severity: Severity::Deny,
            scope: Vec::new(),
            allow_paths: Vec::new(),
        }
    }
}

impl RuleConfig {
    /// Whether the rule applies to `path` (workspace-relative, `/`-separated).
    pub fn applies_to(&self, path: &str) -> bool {
        if self.severity == Severity::Off {
            return false;
        }
        if !self.scope.is_empty() && !self.scope.iter().any(|p| path.starts_with(p.as_str())) {
            return false;
        }
        !self
            .allow_paths
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }
}

/// File-walking configuration.
#[derive(Debug, Clone)]
pub struct FilesConfig {
    /// Root-relative prefixes to walk (files or directories).
    pub include: Vec<String>,
    /// Root-relative prefixes to skip.
    pub exclude_prefixes: Vec<String>,
    /// Directory *names* to skip anywhere in the tree (`tests`, `benches`…).
    pub exclude_dirs: Vec<String>,
}

impl Default for FilesConfig {
    fn default() -> Self {
        Self {
            include: vec!["crates".into(), "src".into()],
            exclude_prefixes: vec!["third_party".into(), "target".into()],
            exclude_dirs: vec![
                "tests".into(),
                "benches".into(),
                "examples".into(),
                "fixtures".into(),
                "target".into(),
            ],
        }
    }
}

/// A site reference in a protocol spec: `"path"` or `"path::fn_name"`
/// (workspace-relative, `/`-separated path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRef {
    /// Workspace-relative file path.
    pub path: String,
    /// Function to restrict the check to; `None` means the whole file.
    pub func: Option<String>,
}

impl SiteRef {
    /// Parses `"crates/core/src/worker.rs::run_worker"` or a bare path.
    pub fn parse(s: &str) -> SiteRef {
        match s.rsplit_once("::") {
            Some((path, func)) if !func.is_empty() => SiteRef {
                path: path.to_string(),
                func: Some(func.to_string()),
            },
            _ => SiteRef {
                path: s.to_string(),
                func: None,
            },
        }
    }
}

/// One `[protocol.<Enum>]` section: where the enum is defined and which
/// sites must cover every variant. Empty site lists mean the check does
/// not apply to this enum (e.g. `FrameKind` has no `encode` site).
#[derive(Debug, Clone, Default)]
pub struct ProtocolSpec {
    /// Enum name (`ColMsg`).
    pub enum_name: String,
    /// File defining the enum.
    pub def: String,
    /// Sites where every variant needs an encode match arm.
    pub encode: Vec<SiteRef>,
    /// Sites where every variant must be constructed (decode coverage is
    /// mention-based: decoders match on integer tags and build variants
    /// in arm bodies).
    pub decode: Vec<SiteRef>,
    /// Receive loops where every variant needs an explicit handler (or
    /// log-and-drop) arm; wildcard arms do not count.
    pub handlers: Vec<SiteRef>,
}

/// The parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Which files are scanned.
    pub files: FilesConfig,
    /// Rule id → its configuration. Rules absent from the map run with
    /// [`RuleConfig::default`] (deny, everywhere).
    pub rules: BTreeMap<String, RuleConfig>,
    /// `[protocol.<Enum>]` specs for the protocol-conformance rule.
    pub protocols: Vec<ProtocolSpec>,
}

impl Config {
    /// The effective configuration of `rule`.
    pub fn rule(&self, rule: &str) -> RuleConfig {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Parses the `lint.toml` subset. Errors carry the offending line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((ln, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = Some(name.trim().to_string());
                continue;
            }
            let (key, mut value) = match line.split_once('=') {
                Some((k, v)) => (k.trim().to_string(), v.trim().to_string()),
                None => return Err(format!("line {}: expected `key = value`", ln + 1)),
            };
            // Multiline arrays: keep consuming until the closing bracket.
            while value.starts_with('[') && !value.ends_with(']') {
                match lines.next() {
                    Some((_, cont)) => {
                        value.push(' ');
                        value.push_str(strip_comment(cont).trim());
                    }
                    None => return Err(format!("line {}: unterminated array", ln + 1)),
                }
            }
            let section = section
                .as_deref()
                .ok_or_else(|| format!("line {}: key outside a section", ln + 1))?;
            apply(&mut cfg, section, &key, &value).map_err(|e| format!("line {}: {e}", ln + 1))?;
        }
        Ok(cfg)
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` never appears inside our string values (paths, severities).
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn apply(cfg: &mut Config, section: &str, key: &str, value: &str) -> Result<(), String> {
    if section == "files" {
        let list = parse_string_array(value)?;
        match key {
            "include" => cfg.files.include = list,
            "exclude_prefixes" => cfg.files.exclude_prefixes = list,
            "exclude_dirs" => cfg.files.exclude_dirs = list,
            other => return Err(format!("unknown [files] key {other:?}")),
        }
        return Ok(());
    }
    if let Some(rule) = section.strip_prefix("rules.") {
        let rc = cfg.rules.entry(rule.to_string()).or_default();
        match key {
            "severity" => rc.severity = Severity::parse(&parse_string(value)?)?,
            "scope" => rc.scope = parse_string_array(value)?,
            "allow_paths" => rc.allow_paths = parse_string_array(value)?,
            other => return Err(format!("unknown rule key {other:?}")),
        }
        return Ok(());
    }
    if let Some(enum_name) = section.strip_prefix("protocol.") {
        let spec = match cfg.protocols.iter_mut().find(|s| s.enum_name == enum_name) {
            Some(s) => s,
            None => {
                cfg.protocols.push(ProtocolSpec {
                    enum_name: enum_name.to_string(),
                    ..ProtocolSpec::default()
                });
                cfg.protocols.last_mut().expect("just pushed")
            }
        };
        let sites = |v: &str| -> Result<Vec<SiteRef>, String> {
            Ok(parse_string_array(v)?
                .iter()
                .map(|s| SiteRef::parse(s))
                .collect())
        };
        match key {
            "def" => spec.def = parse_string(value)?,
            "encode" => spec.encode = sites(value)?,
            "decode" => spec.decode = sites(value)?,
            "handlers" => spec.handlers = sites(value)?,
            other => return Err(format!("unknown protocol key {other:?}")),
        }
        return Ok(());
    }
    Err(format!("unknown section [{section}]"))
}

fn parse_string(value: &str) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got {v:?}"))
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array, got {v:?}"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_severities() {
        let cfg = Config::parse(
            r#"
# comment
[files]
include = ["crates"]
exclude_dirs = ["tests", "benches"]

[rules.panic-hygiene]
severity = "deny"
scope = [
    "crates/core/src",  # master/worker loops
    "crates/rowsgd/src",
]

[rules.metering]
severity = "warn"
allow_paths = ["crates/cluster/src"]
"#,
        )
        .expect("parse");
        assert_eq!(cfg.files.include, vec!["crates"]);
        assert_eq!(cfg.files.exclude_dirs, vec!["tests", "benches"]);
        let ph = cfg.rule("panic-hygiene");
        assert_eq!(ph.severity, Severity::Deny);
        assert_eq!(ph.scope.len(), 2);
        assert!(ph.applies_to("crates/core/src/engine.rs"));
        assert!(!ph.applies_to("crates/bench/src/lib.rs"));
        let m = cfg.rule("metering");
        assert_eq!(m.severity, Severity::Warn);
        assert!(m.applies_to("crates/core/src/engine.rs"));
        assert!(!m.applies_to("crates/cluster/src/router.rs"));
    }

    #[test]
    fn unknown_rule_defaults_to_deny_everywhere() {
        let cfg = Config::parse("").expect("parse");
        let r = cfg.rule("anything");
        assert_eq!(r.severity, Severity::Deny);
        assert!(r.applies_to("crates/ml/src/glm.rs"));
    }

    #[test]
    fn parses_protocol_sections() {
        let cfg = Config::parse(
            r#"
[protocol.ColMsg]
def = "crates/core/src/msg.rs"
encode = ["crates/core/src/codec.rs::encode_body"]
decode = ["crates/core/src/codec.rs::decode_body"]
handlers = [
    "crates/core/src/worker.rs::run_worker",
    "crates/core/src/elastic.rs",
]
"#,
        )
        .expect("parse");
        assert_eq!(cfg.protocols.len(), 1);
        let p = &cfg.protocols[0];
        assert_eq!(p.enum_name, "ColMsg");
        assert_eq!(p.def, "crates/core/src/msg.rs");
        assert_eq!(
            p.encode,
            vec![SiteRef {
                path: "crates/core/src/codec.rs".into(),
                func: Some("encode_body".into())
            }]
        );
        assert_eq!(p.handlers[1].func, None);
        assert_eq!(p.handlers[1].path, "crates/core/src/elastic.rs");
    }

    #[test]
    fn rejects_bad_severity_and_syntax() {
        assert!(Config::parse("[rules.x]\nseverity = \"loud\"").is_err());
        assert!(Config::parse("key = 1").is_err());
        assert!(Config::parse("[files]\nwhat = []").is_err());
    }
}

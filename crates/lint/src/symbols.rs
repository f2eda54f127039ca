//! AST-lite symbol extraction over the token stream.
//!
//! The cross-file rule families (protocol-conformance, lock-order) need
//! more structure than a flat token scan: which enum has which variants,
//! which `match` covers which variant paths, where function bodies start
//! and end, where lock guards live. This module recovers exactly that —
//! and no more — from the [`crate::scan`] token stream, without a real
//! parser (pulling in `syn` would break the offline-vendoring
//! constraint).
//!
//! Everything here is approximate by design. The known soundness limits
//! (documented in DESIGN.md §15):
//!
//! * guard extents are token-range approximations (binding → end of the
//!   enclosing block or an explicit `drop(guard)`, temporary → end of
//!   statement), not borrow-checker-accurate liveness;
//! * lock identity is keyed by the receiver's *field/variable name*, so
//!   two distinct locks that share a name alias into one node;
//! * the call graph resolves bare callee names within one crate, one hop
//!   deep — method calls resolve to any same-named `fn` in the crate.

use crate::scan::{Scanned, Tok};

/// One variant of an `enum` definition.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name (without the enum path).
    pub name: String,
    /// 1-based line of the variant.
    pub line: u32,
    /// Whether the variant carries a `#[cfg(...)]` attribute.
    pub cfg_gated: bool,
}

/// An `enum` definition with its variants.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variants in declaration order.
    pub variants: Vec<Variant>,
}

/// A `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the matching `}`.
    pub body_end: usize,
}

impl FnDef {
    /// Whether token index `idx` lies inside this fn's body.
    pub fn contains(&self, idx: usize) -> bool {
        idx > self.body_start && idx < self.body_end
    }
}

/// An `impl` block header (used to attribute codec fns to their type).
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The implemented-on type's final path segment (`ColMsg` in
    /// `impl WireCodec for ColMsg`).
    pub self_ty: String,
    /// The trait's final path segment, when a trait impl.
    pub trait_name: Option<String>,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the matching `}`.
    pub body_end: usize,
}

/// One arm of a `match` expression.
#[derive(Debug, Clone)]
pub struct MatchArm {
    /// 1-based line of the arm's pattern.
    pub line: u32,
    /// `(qualifier, name)` pairs from every `qualifier::name` path in
    /// pattern position (all segments of longer paths are paired, so
    /// `msg::ColMsg::Die` yields both `(msg, ColMsg)` and
    /// `(ColMsg, Die)`). `|`-patterns and `binding @ (..)` groups
    /// contribute every alternative.
    pub paths: Vec<(String, String)>,
    /// `_` or a bare binding: matches anything, provides explicit
    /// coverage of nothing.
    pub is_catch_all: bool,
    /// Whether the arm carries an `if` guard.
    pub has_guard: bool,
}

/// A `match` expression.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// Token index of the `match` keyword.
    pub idx: usize,
    /// Scrutinee token texts (between `match` and the body `{`).
    pub scrutinee: Vec<String>,
    /// Arms in source order.
    pub arms: Vec<MatchArm>,
}

/// Paths matched in a non-`match` pattern position: `if let`,
/// `while let`, `let ... else`, and plain destructuring `let`.
#[derive(Debug, Clone)]
pub struct PatternUse {
    /// 1-based line of the `let`.
    pub line: u32,
    /// Token index of the `let` keyword.
    pub idx: usize,
    /// `(qualifier, name)` path pairs, as in [`MatchArm::paths`].
    pub paths: Vec<(String, String)>,
}

/// A `Mutex`/`RwLock` declaration site (struct field, static, local
/// binding, or fn parameter). Lock identity downstream is keyed by
/// `name`.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Field/binding name holding the lock.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// `RwLock` (true) vs `Mutex` (false).
    pub is_rwlock: bool,
}

/// A lock acquisition site: `.lock()`, `.read()`, or `.write()` with its
/// approximate guard extent.
#[derive(Debug, Clone)]
pub struct LockOp {
    /// Receiver name (`local` in `self.inner.local.read()`), the lock's
    /// identity in the acquisition graph.
    pub name: String,
    /// `lock`, `read`, or `write`.
    pub op: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Token index of the `.` before the call.
    pub idx: usize,
    /// Token index where the guard's extent begins. Usually `idx`, but
    /// for a temporary guard passed as a call argument
    /// (`write_frame(&mut *w.lock(), ..)`) it is the statement start, so
    /// the enclosing call — executed while the guard is held — falls
    /// inside the extent.
    pub extent_start: usize,
    /// Token index one past the guard's approximate extent.
    pub extent_end: usize,
}

/// A call site (free fn, method, macro-free), used for one-hop call
/// graph propagation and blocking-call detection.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (final segment only: `send` in `ep.send(..)`).
    pub callee: String,
    /// 1-based line.
    pub line: u32,
    /// Token index of the callee identifier.
    pub idx: usize,
}

/// Everything the symbol pass extracts from one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// `enum` definitions.
    pub enums: Vec<EnumDef>,
    /// `fn` items (including nested ones; ranges may overlap).
    pub fns: Vec<FnDef>,
    /// `impl` block headers.
    pub impls: Vec<ImplDef>,
    /// `match` expressions (including nested ones).
    pub matches: Vec<MatchExpr>,
    /// `let`-family pattern uses.
    pub pattern_uses: Vec<PatternUse>,
    /// Lock declarations.
    pub lock_decls: Vec<LockDecl>,
    /// Lock acquisitions with guard extents.
    pub lock_ops: Vec<LockOp>,
    /// All call sites.
    pub calls: Vec<CallSite>,
}

impl FileSymbols {
    /// Extracts symbols from a scanned file.
    pub fn extract(scanned: &Scanned) -> FileSymbols {
        let toks = &scanned.tokens;
        FileSymbols {
            enums: extract_enums(toks),
            fns: extract_fns(toks),
            impls: extract_impls(toks),
            matches: extract_matches(toks),
            pattern_uses: extract_pattern_uses(toks),
            lock_decls: extract_lock_decls(toks),
            lock_ops: extract_lock_ops(toks),
            calls: extract_calls(toks),
        }
    }

    /// Fns with the given name (there may be several — methods on
    /// different types, nested fns).
    pub fn fns_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a FnDef> + 'a {
        self.fns.iter().filter(move |f| f.name == name)
    }

    /// The innermost fn whose body contains token index `idx`.
    pub fn innermost_fn(&self, idx: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.contains(idx))
            .max_by_key(|f| f.body_start)
    }
}

/// Identifier-shaped token that is not a numeric literal.
pub(crate) fn is_ident_tok(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "pub", "use", "mod", "impl", "enum", "struct", "trait", "where", "unsafe", "dyn",
    "move", "in", "as", "crate", "super", "true", "false",
];

/// Index one past the token matching `open` at `i` (`open`/`close` are
/// single-char brace kinds). Saturates at the end of the stream.
fn skip_balanced(toks: &[Tok], i: usize, open: &str, close: &str) -> usize {
    debug_assert_eq!(toks[i].text, open);
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = toks[j].text.as_str();
        if t == open {
            depth += 1;
        } else if t == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Index one past a generic-argument list starting at `<`. Understands
/// `>>` (two tokens) and skips the `>` of `->` arrows.
fn skip_angles(toks: &[Tok], i: usize) -> usize {
    debug_assert_eq!(toks[i].text, "<");
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" if j > 0 && toks[j - 1].text == "-" => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            // A generic list never contains these at depth > 0; bail out
            // rather than eat the rest of the file on a stray `<`.
            ";" | "{" => return j,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Index one past a `#[...]` attribute starting at `#`.
fn skip_attr(toks: &[Tok], mut i: usize) -> usize {
    debug_assert_eq!(toks[i].text, "#");
    i += 1;
    if i < toks.len() && toks[i].text == "[" {
        return skip_balanced(toks, i, "[", "]");
    }
    i
}

/// `(qualifier, name)` pairs for every `qualifier::name` in `toks`.
fn path_pairs(toks: &[Tok]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if toks.len() < 4 {
        return out;
    }
    for i in 0..toks.len() - 3 {
        if is_ident_tok(&toks[i].text)
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && is_ident_tok(&toks[i + 3].text)
        {
            out.push((toks[i].text.clone(), toks[i + 3].text.clone()));
        }
    }
    out
}

fn extract_enums(toks: &[Tok]) -> Vec<EnumDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "enum" {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if !is_ident_tok(&name_tok.text) {
            i += 1;
            continue;
        }
        let mut j = i + 2;
        if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
            j = skip_angles(toks, j);
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some("{") {
            i = j;
            continue;
        }
        let body_end = skip_balanced(toks, j, "{", "}") - 1;
        let mut variants = Vec::new();
        let mut k = j + 1;
        while k < body_end {
            let mut cfg_gated = false;
            while k < body_end && toks[k].text == "#" {
                let end = skip_attr(toks, k);
                if toks[k..end.min(toks.len())].iter().any(|t| t.text == "cfg") {
                    cfg_gated = true;
                }
                k = end;
            }
            if k >= body_end || !is_ident_tok(&toks[k].text) {
                k += 1;
                continue;
            }
            let vname = toks[k].text.clone();
            let vline = toks[k].line;
            k += 1;
            if k < body_end && toks[k].text == "(" {
                k = skip_balanced(toks, k, "(", ")");
            } else if k < body_end && toks[k].text == "{" {
                k = skip_balanced(toks, k, "{", "}");
            }
            // Discriminant or trailing tokens: skip to the comma.
            while k < body_end && toks[k].text != "," {
                k = match toks[k].text.as_str() {
                    "(" => skip_balanced(toks, k, "(", ")"),
                    "{" => skip_balanced(toks, k, "{", "}"),
                    _ => k + 1,
                };
            }
            if k < body_end {
                k += 1; // comma
            }
            variants.push(Variant {
                name: vname,
                line: vline,
                cfg_gated,
            });
        }
        out.push(EnumDef {
            name: name_tok.text.clone(),
            line: toks[i].line,
            variants,
        });
        i = body_end + 1;
    }
    out
}

fn extract_fns(toks: &[Tok]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if !is_ident_tok(&name_tok.text) {
            i += 1;
            continue;
        }
        // Scan the signature for the body `{` (or `;` for a bodiless
        // trait method) at bracket depth 0.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut body = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        match body {
            Some(bs) => {
                let be = skip_balanced(toks, bs, "{", "}") - 1;
                out.push(FnDef {
                    name: name_tok.text.clone(),
                    line: toks[i].line,
                    body_start: bs,
                    body_end: be,
                });
                // Continue *inside* the body so nested fns are found.
                i = bs + 1;
            }
            None => i = j,
        }
    }
    out
}

/// Final path segment of a type/trait spelled by `toks`, stopping at a
/// generic-argument list.
fn last_path_ident(toks: &[Tok]) -> Option<String> {
    let mut last = None;
    for t in toks {
        match t.text.as_str() {
            "<" => break,
            "&" | "dyn" | "mut" | ":" => {}
            s if is_ident_tok(s) => last = Some(s.to_string()),
            _ => {}
        }
    }
    last
}

fn extract_impls(toks: &[Tok]) -> Vec<ImplDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "impl" {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let mut j = i + 1;
        if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
            j = skip_angles(toks, j);
        }
        let seg_start = j;
        let mut for_pos = None;
        let mut header_end = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => {
                    header_end = Some(j);
                    break;
                }
                ";" => break, // e.g. `impl Trait for Ty;` (never in practice)
                "for" if toks.get(j + 1).map(|t| t.text.as_str()) == Some("<") => {
                    // HRTB `for<'a>`, not the trait/type separator.
                    j = skip_angles(toks, j + 1);
                    continue;
                }
                "for" if for_pos.is_none() => for_pos = Some(j),
                "where" => {
                    // Bounds follow; the body `{` still terminates.
                }
                "<" => {
                    j = skip_angles(toks, j);
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(bs) = header_end else {
            i = j;
            continue;
        };
        let be = skip_balanced(toks, bs, "{", "}") - 1;
        let (trait_name, ty_toks) = match for_pos {
            Some(fp) => (last_path_ident(&toks[seg_start..fp]), &toks[fp + 1..bs]),
            None => (None, &toks[seg_start..bs]),
        };
        if let Some(self_ty) = last_path_ident(ty_toks) {
            out.push(ImplDef {
                self_ty,
                trait_name,
                line,
                body_start: bs,
                body_end: be,
            });
        }
        i = bs + 1;
    }
    out
}

fn extract_matches(toks: &[Tok]) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "match" {
            continue;
        }
        if let Some(m) = parse_match(toks, i) {
            out.push(m);
        }
    }
    out
}

fn parse_match(toks: &[Tok], i: usize) -> Option<MatchExpr> {
    // Scrutinee: up to the body `{` at depth 0.
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" if depth == 0 => break,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return None; // `match` in a weird position
                }
            }
            ";" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() || j == i + 1 {
        return None;
    }
    let scrutinee: Vec<String> = toks[i + 1..j].iter().map(|t| t.text.clone()).collect();
    let body_start = j;
    let body_end = skip_balanced(toks, body_start, "{", "}") - 1;
    let mut arms = Vec::new();
    let mut k = body_start + 1;
    while k < body_end {
        while k < body_end && toks[k].text == "#" {
            k = skip_attr(toks, k);
        }
        if k >= body_end {
            break;
        }
        // Pattern (and optional guard) up to `=>` at depth 0.
        let pstart = k;
        let mut d = 0i32;
        let mut guard_at = None;
        let mut arrow = None;
        while k < body_end {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => d -= 1,
                "if" if d == 0 && guard_at.is_none() => guard_at = Some(k),
                "=" if d == 0
                    && toks.get(k + 1).map(|t| t.text.as_str()) == Some(">")
                    && (k == 0 || toks[k - 1].text != "=") =>
                {
                    arrow = Some(k);
                }
                _ => {}
            }
            if arrow.is_some() {
                break;
            }
            k += 1;
        }
        let Some(ar) = arrow else { break };
        let pend = guard_at.unwrap_or(ar);
        let ptoks = &toks[pstart..pend];
        let paths = path_pairs(ptoks);
        let is_catch_all = {
            let sig: Vec<&str> = ptoks
                .iter()
                .map(|t| t.text.as_str())
                .filter(|t| !matches!(*t, "ref" | "mut" | "&"))
                .collect();
            paths.is_empty() && sig.len() == 1 && (sig[0] == "_" || is_ident_tok(sig[0]))
        };
        arms.push(MatchArm {
            line: toks[pstart].line,
            paths,
            is_catch_all,
            has_guard: guard_at.is_some(),
        });
        // Arm body: a block, or an expression up to `,` at depth 0.
        k = ar + 2;
        if k < body_end && toks[k].text == "{" {
            k = skip_balanced(toks, k, "{", "}");
            if k < body_end && toks[k].text == "," {
                k += 1;
            }
        } else {
            let mut d = 0i32;
            while k < body_end {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" => d -= 1,
                    "}" => {
                        if d == 0 {
                            break;
                        }
                        d -= 1;
                    }
                    "," if d == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }
    Some(MatchExpr {
        line: toks[i].line,
        idx: i,
        scrutinee,
        arms,
    })
}

fn extract_pattern_uses(toks: &[Tok]) -> Vec<PatternUse> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "let" {
            continue;
        }
        let mut j = i + 1;
        let mut d = 0i32;
        let mut pend = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => {
                    d -= 1;
                    if d < 0 {
                        break;
                    }
                }
                "=" if d == 0
                    && toks[j - 1].text != "."
                    && toks[j - 1].text != "="
                    && toks.get(j + 1).map(|t| t.text.as_str()) != Some("=") =>
                {
                    pend = Some(j);
                    break;
                }
                ";" if d == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(pe) = pend else { continue };
        let paths = path_pairs(&toks[i + 1..pe]);
        if !paths.is_empty() {
            out.push(PatternUse {
                line: toks[i].line,
                idx: i,
                paths,
            });
        }
    }
    out
}

fn extract_lock_decls(toks: &[Tok]) -> Vec<LockDecl> {
    let mut out: Vec<LockDecl> = Vec::new();
    for i in 0..toks.len() {
        let is_rw = match toks[i].text.as_str() {
            "Mutex" => false,
            "RwLock" => true,
            _ => continue,
        };
        // Walk back over the type chain (`Arc < Mutex`, `std :: sync ::
        // Mutex`, `Option < Arc < RwLock`) looking for a single-colon
        // type ascription `name : ...`, or a `name = Mutex::new(..)`
        // binding.
        let mut p = i as isize - 1;
        let mut steps = 0;
        let mut name: Option<&Tok> = None;
        while p > 0 && steps < 24 {
            let pu = p as usize;
            let t = toks[pu].text.as_str();
            if t == ":" {
                let part_of_path = toks[pu - 1].text == ":" || toks[pu + 1].text == ":";
                if part_of_path {
                    p -= 1;
                    steps += 1;
                    continue;
                }
                if is_ident_tok(&toks[pu - 1].text) {
                    name = Some(&toks[pu - 1]);
                }
                break;
            }
            if t == "=" {
                if is_ident_tok(&toks[pu - 1].text) {
                    name = Some(&toks[pu - 1]);
                }
                break;
            }
            if is_ident_tok(t) || matches!(t, "<" | "&") {
                p -= 1;
                steps += 1;
                continue;
            }
            break;
        }
        if let Some(nt) = name {
            out.push(LockDecl {
                name: nt.text.clone(),
                line: toks[i].line,
                is_rwlock: is_rw,
            });
        }
    }
    out
}

fn extract_lock_ops(toks: &[Tok]) -> Vec<LockOp> {
    let mut out = Vec::new();
    for i in 1..toks.len() {
        if toks[i].text != "." {
            continue;
        }
        let op = match toks.get(i + 1).map(|t| t.text.as_str()) {
            Some(op @ ("lock" | "read" | "write")) => op.to_string(),
            _ => continue,
        };
        if toks.get(i + 2).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        // Receiver name: the identifier (or fn-call name) before the `.`.
        let r = i - 1;
        let (name, recv_idx) = if is_ident_tok(&toks[r].text) {
            (Some(toks[r].text.clone()), r)
        } else if toks[r].text == ")" {
            // `registry().lock()` — walk back to the call's open paren.
            let mut depth = 0i32;
            let mut q = r;
            let mut open = None;
            loop {
                match toks[q].text.as_str() {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            open = Some(q);
                            break;
                        }
                    }
                    _ => {}
                }
                if q == 0 {
                    break;
                }
                q -= 1;
            }
            match open {
                Some(o) if o > 0 && is_ident_tok(&toks[o - 1].text) => {
                    (Some(toks[o - 1].text.clone()), o - 1)
                }
                _ => (None, r),
            }
        } else {
            (None, r)
        };
        let Some(name) = name else { continue };

        let after_call = skip_balanced(toks, i + 2, "(", ")");
        // `.unwrap()` / `.expect(..)` still yield the guard.
        let mut c = after_call;
        while c + 2 < toks.len()
            && toks[c].text == "."
            && matches!(toks[c + 1].text.as_str(), "unwrap" | "expect")
            && toks[c + 2].text == "("
        {
            c = skip_balanced(toks, c + 2, "(", ")");
        }
        // Further chaining (`.len()`, `?`) consumes the guard within the
        // statement — it is a temporary regardless of any `let`.
        let chained_on = c < toks.len() && (toks[c].text == "." || toks[c].text == "?");

        // Chain root (`self` in `self.inner.local.read()`), then the
        // token before it decides binding vs scrutinee vs temporary.
        let mut root = recv_idx;
        while root >= 2 && toks[root - 1].text == "." && is_ident_tok(&toks[root - 2].text) {
            root -= 2;
        }
        let mut pre = root as isize - 1;
        while pre > 0 && matches!(toks[pre as usize].text.as_str(), "*" | "&" | "mut") {
            pre -= 1;
        }
        let pre_tok = (pre >= 0).then(|| toks[pre as usize].text.as_str());

        let (extent_start, extent_end) = if pre_tok == Some("match") {
            // Guard lives for the whole match body.
            (i, match_body_end(toks, after_call))
        } else if !chained_on && pre_tok == Some("=") {
            // `let g = m.lock();` (possibly via a pattern) — guard lives
            // to the end of the enclosing block or an explicit `drop`.
            let binding = binding_name(toks, pre as usize);
            (i, block_extent(toks, c, binding.as_deref()))
        } else {
            // Temporary: guard dropped at the end of the statement; the
            // extent opens at the statement start so an enclosing call
            // taking the guard as an argument is covered.
            (statement_start(toks, root), statement_extent(toks, c))
        };
        out.push(LockOp {
            name,
            op,
            line: toks[i + 1].line,
            idx: i,
            extent_start,
            extent_end,
        });
    }
    out
}

/// For a lock acquired as a match scrutinee: index of the match body's
/// closing brace (scan forward from the call to the body `{`).
fn match_body_end(toks: &[Tok], from: usize) -> usize {
    let mut j = from;
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" if depth == 0 => return skip_balanced(toks, j, "{", "}"),
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" => return j,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// The binding name of `let <pat> = ...`: the last plain identifier in
/// the pattern (skipping `Ok`/`Some`/`Err` wrappers and `mut`/`ref`).
fn binding_name(toks: &[Tok], eq: usize) -> Option<String> {
    let start = eq.saturating_sub(8);
    let let_pos = (start..eq).rev().find(|&p| toks[p].text == "let")?;
    toks[let_pos + 1..eq]
        .iter()
        .rfind(|t| {
            is_ident_tok(&t.text)
                && !matches!(t.text.as_str(), "Ok" | "Some" | "Err" | "mut" | "ref")
        })
        .map(|t| t.text.clone())
}

/// Extent of a let-bound guard: to the end of the enclosing block, or an
/// explicit `drop(<binding>)`.
fn block_extent(toks: &[Tok], from: usize, binding: Option<&str>) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            "drop"
                if depth >= 0
                    && toks.get(j + 1).map(|t| t.text.as_str()) == Some("(")
                    && binding.is_some()
                    && toks.get(j + 2).map(|t| t.text.as_str()) == binding
                    && toks.get(j + 3).map(|t| t.text.as_str()) == Some(")") =>
            {
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Start of the statement containing token `at`: one past the previous
/// `;`, `{`, or `}` (approximate; commas are not statement boundaries).
fn statement_start(toks: &[Tok], at: usize) -> usize {
    let mut j = at;
    while j > 0 {
        match toks[j - 1].text.as_str() {
            ";" | "{" | "}" => return j,
            _ => j -= 1,
        }
    }
    0
}

/// Extent of a temporary guard: to the end of the statement (`;` at
/// brace depth 0, or the closing brace of the enclosing block).
fn statement_extent(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

fn extract_calls(toks: &[Tok]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !is_ident_tok(&toks[i].text) || toks[i + 1].text != "(" {
            continue;
        }
        if KEYWORDS.contains(&toks[i].text.as_str()) {
            continue;
        }
        if i > 0 && toks[i - 1].text == "fn" {
            continue; // definition, not a call
        }
        out.push(CallSite {
            callee: toks[i].text.clone(),
            line: toks[i].line,
            idx: i,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn sym(src: &str) -> FileSymbols {
        FileSymbols::extract(&scan(src))
    }

    #[test]
    fn enum_with_unit_tuple_struct_variants() {
        let s = sym("pub enum Msg { Die, Load(Block), Stats { pid: u32, n: usize }, Last = 4 }");
        assert_eq!(s.enums.len(), 1);
        let e = &s.enums[0];
        assert_eq!(e.name, "Msg");
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["Die", "Load", "Stats", "Last"]);
    }

    #[test]
    fn cfg_gated_variant_is_flagged() {
        let s = sym("enum E { A, #[cfg(feature = \"x\")] B, C }");
        let e = &s.enums[0];
        assert!(!e.variants[0].cfg_gated);
        assert!(e.variants[1].cfg_gated);
        assert!(!e.variants[2].cfg_gated);
    }

    #[test]
    fn generic_enum_parses() {
        let s = sym("enum Either<L, R> { Left(L), Right(R) }");
        assert_eq!(s.enums[0].variants.len(), 2);
    }

    #[test]
    fn fn_boundaries_and_nesting() {
        let s = sym("fn outer() -> Result<(), E> { fn inner(x: u32) -> u32 { x } inner(1); Ok(()) }\nfn tail() {}");
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "tail"]);
        let outer = s.fns_named("outer").next().unwrap();
        let inner = s.fns_named("inner").next().unwrap();
        assert!(outer.body_start < inner.body_start && inner.body_end < outer.body_end);
        assert_eq!(s.innermost_fn(inner.body_start + 1).unwrap().name, "inner");
    }

    #[test]
    fn bodiless_trait_fn_is_skipped() {
        let s = sym("trait T { fn sig(&self) -> usize; fn with_body(&self) -> usize { 1 } }");
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_body"]);
    }

    #[test]
    fn impl_blocks_record_trait_and_self_ty() {
        let s = sym("impl WireCodec for ColMsg { fn kind(&self) -> usize { 0 } }\nimpl Helper { fn go(&self) {} }\nimpl fmt::Display for TrainError { }");
        assert_eq!(s.impls.len(), 3);
        assert_eq!(s.impls[0].self_ty, "ColMsg");
        assert_eq!(s.impls[0].trait_name.as_deref(), Some("WireCodec"));
        assert_eq!(s.impls[1].self_ty, "Helper");
        assert_eq!(s.impls[1].trait_name, None);
        assert_eq!(s.impls[2].self_ty, "TrainError");
        assert_eq!(s.impls[2].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn match_arms_with_or_patterns_and_bindings() {
        let s = sym(
            "fn f(m: Msg) { match m { Msg::A(b) | Msg::B(b) => go(b), Msg::C { x, .. } if x > 0 => {} , other @ (Msg::D | Msg::E) => drop(other), rest => log(rest) } }",
        );
        let m = &s.matches[0];
        assert_eq!(m.scrutinee, vec!["m"]);
        assert_eq!(m.arms.len(), 4);
        assert_eq!(
            m.arms[0].paths,
            vec![("Msg".into(), "A".into()), ("Msg".into(), "B".into())]
        );
        assert!(m.arms[1].has_guard);
        assert_eq!(m.arms[1].paths, vec![("Msg".into(), "C".into())]);
        assert_eq!(
            m.arms[2].paths,
            vec![("Msg".into(), "D".into()), ("Msg".into(), "E".into())]
        );
        assert!(!m.arms[2].is_catch_all);
        assert!(m.arms[3].is_catch_all);
        assert!(m.arms[3].paths.is_empty());
    }

    #[test]
    fn nested_matches_are_both_found() {
        let s = sym(
            "fn f(a: A, b: B) { match a { A::X => match b { B::Y => 1, _ => 2 }, A::Z => 3, } ; }",
        );
        assert_eq!(s.matches.len(), 2);
        let outer = &s.matches[0];
        let inner = &s.matches[1];
        assert_eq!(outer.arms.len(), 2);
        assert_eq!(outer.arms[0].paths, vec![("A".into(), "X".into())]);
        assert_eq!(inner.arms[0].paths, vec![("B".into(), "Y".into())]);
        assert!(inner.arms[1].is_catch_all);
    }

    #[test]
    fn cfg_gated_arm_and_range_patterns_parse() {
        let s = sym(
            "fn f(m: Msg, t: u8) { match m { #[cfg(unix)] Msg::A => {} , Msg::B => {} } match t { 0..=4 => a(), 5 => b(), _ => c(), } }",
        );
        assert_eq!(s.matches.len(), 2);
        assert_eq!(s.matches[0].arms.len(), 2);
        assert_eq!(s.matches[1].arms.len(), 3);
        // Numeric literal patterns are not catch-alls.
        assert!(!s.matches[1].arms[0].is_catch_all);
        assert!(!s.matches[1].arms[1].is_catch_all);
        assert!(s.matches[1].arms[2].is_catch_all);
    }

    #[test]
    fn macro_heavy_code_does_not_confuse_matches() {
        let s = sym(
            "fn f(m: Msg) { eprintln!(\"m {} {:?}\", 1, m); let v = vec![1, 2]; match m { Msg::A => println!(\"{v:?}\"), _ => {} } }",
        );
        assert_eq!(s.matches.len(), 1);
        assert_eq!(s.matches[0].arms.len(), 2);
        assert_eq!(s.matches[0].arms[0].paths, vec![("Msg".into(), "A".into())]);
    }

    #[test]
    fn let_family_pattern_uses() {
        let s = sym(
            "fn f() { if let Msg::A(x) = recv() { go(x) } let Msg::B { y } = peek() else { return }; while let Msg::C(z) = next() { go(z) } let plain = Msg::D; }",
        );
        let paths: Vec<&(String, String)> = s.pattern_uses.iter().flat_map(|p| &p.paths).collect();
        assert_eq!(paths.len(), 3, "{:?}", s.pattern_uses);
        assert_eq!(paths[0].1, "A");
        assert_eq!(paths[1].1, "B");
        assert_eq!(paths[2].1, "C");
        // `let plain = Msg::D` has no path in *pattern* position.
    }

    #[test]
    fn lock_decls_fields_statics_params_and_bindings() {
        let s = sym(
            "struct Inner { writer: Arc<Mutex<TcpStream>>, local: RwLock<LocalMap> }\nstatic LOCK: Mutex<()> = Mutex::new(());\nfn f(m: &Mutex<u32>) { let fresh = Mutex::new(0u32); }\nuse std::sync::Mutex;",
        );
        let mut names: Vec<(&str, bool)> = s
            .lock_decls
            .iter()
            .map(|d| (d.name.as_str(), d.is_rwlock))
            .collect();
        names.dedup();
        assert!(names.contains(&("writer", false)));
        assert!(names.contains(&("local", true)));
        assert!(names.contains(&("LOCK", false)));
        assert!(names.contains(&("m", false)));
        assert!(names.contains(&("fresh", false)));
        // The `use` import registers nothing.
        assert!(!names.iter().any(|(n, _)| *n == "sync" || *n == "std"));
    }

    #[test]
    fn lock_op_bound_guard_extends_to_block_end_or_drop() {
        let s = sym(
            "fn f(&self) { let g = self.inner.local.read(); use_it(&g); drop(g); after(); }\nfn h(&self) { let w = self.writer.lock(); w.flush(); }",
        );
        assert_eq!(s.lock_ops.len(), 2);
        let g = &s.lock_ops[0];
        assert_eq!((g.name.as_str(), g.op.as_str()), ("local", "read"));
        // Extent stops at drop(g): the `after()` call is outside.
        let after = s.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(after.idx > g.extent_end);
        let use_it = s.calls.iter().find(|c| c.callee == "use_it").unwrap();
        assert!(use_it.idx < g.extent_end);
        // `w` has no drop: extent runs to the end of fn h's block.
        let w = &s.lock_ops[1];
        let flush = s
            .calls
            .iter()
            .find(|c| c.callee == "flush")
            .expect("flush call");
        assert!(flush.idx < w.extent_end);
    }

    #[test]
    fn lock_op_temporary_ends_at_statement() {
        let s = sym("fn f(&self) { let n = self.map.lock().unwrap().len(); send(n); }");
        let op = &s.lock_ops[0];
        assert_eq!(op.name, "map");
        let send = s.calls.iter().find(|c| c.callee == "send").unwrap();
        assert!(
            send.idx > op.extent_end,
            "temporary guard must not span the next statement"
        );
    }

    #[test]
    fn lock_op_in_call_args_spans_the_statement() {
        let s = sym("fn f(&self) { write_frame(&mut *self.writer.lock(), &probe); next(); }");
        let op = &s.lock_ops[0];
        assert_eq!(op.name, "writer");
        let wf = s.calls.iter().find(|c| c.callee == "write_frame").unwrap();
        // The write_frame call itself is inside the guard's extent, even
        // though it lexically precedes the acquisition…
        assert!(wf.idx >= op.extent_start && wf.idx < op.extent_end);
        // …but the next statement is not.
        let next = s.calls.iter().find(|c| c.callee == "next").unwrap();
        assert!(next.idx > op.extent_end);
    }

    #[test]
    fn lock_op_match_scrutinee_spans_match_body() {
        let s = sym("fn f(&self) { match self.state.lock() { S::A => go(), S::B => {} } tail(); }");
        let op = &s.lock_ops[0];
        let go = s.calls.iter().find(|c| c.callee == "go").unwrap();
        let tail = s.calls.iter().find(|c| c.callee == "tail").unwrap();
        assert!(go.idx < op.extent_end);
        // extent_end is exclusive; the statement after the match body is
        // outside the guard.
        assert!(tail.idx >= op.extent_end);
    }

    #[test]
    fn fn_call_receiver_lock_is_named() {
        let s = sym("fn f() { registry().lock().push(1); }");
        assert_eq!(s.lock_ops[0].name, "registry");
    }

    #[test]
    fn calls_exclude_macros_and_defs() {
        let s = sym("fn f() { go(1); x.send(2); vec![3]; println!(\"{}\", 4); }");
        let callees: Vec<&str> = s.calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(callees.contains(&"go"));
        assert!(callees.contains(&"send"));
        assert!(!callees.contains(&"f"), "fn definition is not a call");
        assert!(!callees.contains(&"vec"));
        assert!(!callees.contains(&"println"));
    }
}

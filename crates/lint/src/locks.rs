//! Lock-order and blocking-under-lock analysis.
//!
//! Builds a lock acquisition graph over [`LOCK_SCOPE`]: a node per
//! lock *name* (see the aliasing caveat in [`crate::symbols`]), an edge
//! `a → b` when a guard of `a` is (approximately) live while `b` is
//! acquired — either directly in the same extent, or one call-graph hop
//! away (an extent calls a fn, resolved by bare name within the same
//! crate, whose body acquires `b`).
//!
//! * `lock-order` denies: an acquisition of a lock while a guard of the
//!   *same* name is live (self-deadlock under non-reentrant locks), and
//!   every edge that participates in a cycle (inconsistent global
//!   acquisition order). Inline-allowing an edge's site removes that
//!   edge from the graph before cycle detection.
//! * `blocking-under-lock` denies a channel `send`/`recv`, socket I/O,
//!   frame I/O, or `Transport::deliver` call inside a guard extent
//!   (direct extents only — no call-graph propagation, to keep the
//!   finding actionable at the reported line). `try_send`/`try_recv`
//!   are exempt by contract.

use std::collections::{BTreeMap, BTreeSet};

use crate::symbols::LockOp;
use crate::{FileUnit, Finding};

/// Source dirs the two lock rules cover (workspace-relative prefixes).
pub const LOCK_SCOPE: [&str; 4] = [
    "crates/cluster/src",
    "crates/telemetry/src",
    "crates/core/src",
    "crates/rowsgd/src",
];

/// Rule id for acquisition-order violations.
pub const ORDER_RULE: &str = "lock-order";
/// Rule id for blocking calls under a held guard.
pub const BLOCKING_RULE: &str = "blocking-under-lock";

/// Calls that can block indefinitely: channel ops, socket/frame I/O,
/// and the transport entry point.
const BLOCKING_CALLS: &[&str] = &[
    "send",
    "send_reliable",
    "recv",
    "recv_timeout",
    "deliver",
    "write_frame",
    "write_prefixed_frame",
    "write_envelope_to",
    "read_frame",
    "read_frame_into",
    "write_all",
    "read_exact",
    "flush",
    "accept",
    "connect",
    "join",
];

/// One lock-graph edge with the site that created it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: String,
    to: String,
    path: String,
    line: u32,
    via: Option<String>,
}

/// Runs both lock rules over the in-scope files of the set.
pub fn check(units: &[FileUnit]) -> Vec<Finding> {
    let units: Vec<&FileUnit> = units
        .iter()
        .filter(|u| LOCK_SCOPE.iter().any(|p| u.rel.starts_with(p)))
        .collect();
    let mut findings = Vec::new();

    // Lock identities: every Mutex/RwLock declaration name in scope.
    // Acquisition sites are filtered against this set so io::Read/Write
    // method calls and `stdout().lock()` never alias in.
    let mut mutex_names: BTreeSet<&str> = BTreeSet::new();
    let mut rwlock_names: BTreeSet<&str> = BTreeSet::new();
    for u in &units {
        for d in &u.symbols.lock_decls {
            if d.is_rwlock {
                rwlock_names.insert(&d.name);
            } else {
                mutex_names.insert(&d.name);
            }
        }
    }
    let is_lock = |op: &LockOp| match op.op.as_str() {
        "lock" => mutex_names.contains(op.name.as_str()) || rwlock_names.contains(op.name.as_str()),
        "read" | "write" => rwlock_names.contains(op.name.as_str()),
        _ => false,
    };

    // Per-crate fn tables for one-hop resolution: (crate, fn name) →
    // [(unit index, body start, body end)].
    type FnBodies = Vec<(usize, usize, usize)>;
    let crate_of = |rel: &str| -> String { rel.split('/').take(2).collect::<Vec<_>>().join("/") };
    let mut fn_table: BTreeMap<(String, String), FnBodies> = BTreeMap::new();
    for (ui, u) in units.iter().enumerate() {
        for f in &u.symbols.fns {
            fn_table
                .entry((crate_of(&u.rel), f.name.clone()))
                .or_default()
                .push((ui, f.body_start, f.body_end));
        }
    }

    let mut edges: Vec<Edge> = Vec::new();
    for u in &units {
        let acqs: Vec<&LockOp> = u.symbols.lock_ops.iter().filter(|o| is_lock(o)).collect();
        for a in &acqs {
            // Acquisitions ordered after `a` in its extent: token order
            // approximates evaluation order, so only later acquisitions
            // produce `a → b` edges.
            let acquired_under = |idx: usize| idx > a.idx && idx < a.extent_end;
            // Anything executed while the guard is live — including an
            // enclosing call that takes the fresh guard as an argument
            // (its token index precedes `a.idx`).
            let held = |idx: usize| idx != a.idx && idx >= a.extent_start && idx < a.extent_end;
            // Direct nested acquisitions → edges (and self-deadlocks).
            for b in &acqs {
                if acquired_under(b.idx) {
                    if b.name == a.name {
                        if !u.scanned.is_allowed(ORDER_RULE, b.line) {
                            findings.push(Finding {
                                rule: ORDER_RULE.to_string(),
                                path: u.rel.clone(),
                                line: b.line,
                                message: format!(
                                    "`{}` acquired while a guard of `{}` (line {}) is \
                                     still held — self-deadlock under a non-reentrant lock",
                                    b.name, a.name, a.line
                                ),
                            });
                        }
                    } else {
                        edges.push(Edge {
                            from: a.name.clone(),
                            to: b.name.clone(),
                            path: u.rel.clone(),
                            line: b.line,
                            via: None,
                        });
                    }
                }
            }
            // One-hop propagation: calls inside the extent whose
            // bodies acquire locks.
            let krate = crate_of(&u.rel);
            for call in u.symbols.calls.iter().filter(|c| held(c.idx)) {
                let Some(bodies) = fn_table.get(&(krate.clone(), call.callee.clone())) else {
                    continue;
                };
                for &(ui, bs, be) in bodies {
                    let target = &units[ui];
                    for b in target
                        .symbols
                        .lock_ops
                        .iter()
                        .filter(|o| is_lock(o) && o.idx > bs && o.idx < be)
                    {
                        if b.name != a.name {
                            edges.push(Edge {
                                from: a.name.clone(),
                                to: b.name.clone(),
                                path: u.rel.clone(),
                                line: call.line,
                                via: Some(call.callee.clone()),
                            });
                        }
                    }
                }
            }
            // Blocking calls inside the extent.
            for call in u.symbols.calls.iter().filter(|c| held(c.idx)) {
                if !BLOCKING_CALLS.contains(&call.callee.as_str()) {
                    continue;
                }
                if u.scanned.is_allowed(BLOCKING_RULE, call.line)
                    || u.scanned.is_allowed(BLOCKING_RULE, a.line)
                {
                    continue;
                }
                findings.push(Finding {
                    rule: BLOCKING_RULE.to_string(),
                    path: u.rel.clone(),
                    line: call.line,
                    message: format!(
                        "`{}` called while holding the `{}` guard (`.{}()` at line {}); \
                         clone/stage the data and release the guard before blocking",
                        call.callee, a.name, a.op, a.line
                    ),
                });
            }
        }
    }

    // Inline-allowed edges leave the graph before cycle detection.
    edges.retain(|e| {
        let unit = units.iter().find(|u| u.rel == e.path);
        !unit.is_some_and(|u| u.scanned.is_allowed(ORDER_RULE, e.line))
    });
    edges.sort();
    edges.dedup();
    findings.extend(cycle_findings(&edges));
    findings
}

/// Findings for every edge that participates in a cycle: `to` can reach
/// back to `from` through the edge set.
fn cycle_findings(edges: &[Edge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let reaches = |start: &str, goal: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if n == goal {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut out = Vec::new();
    let mut reported: BTreeSet<(String, String, String, u32)> = BTreeSet::new();
    for e in edges {
        if !reaches(&e.to, &e.from) {
            continue;
        }
        let key = (e.from.clone(), e.to.clone(), e.path.clone(), e.line);
        if !reported.insert(key) {
            continue;
        }
        let via = match &e.via {
            Some(f) => format!(" (via call to `{f}`)"),
            None => String::new(),
        };
        out.push(Finding {
            rule: ORDER_RULE.to_string(),
            path: e.path.clone(),
            line: e.line,
            message: format!(
                "lock-order cycle: acquiring `{}` while holding `{}`{via} closes a cycle \
                 (`{}` is also taken while `{}` is held elsewhere); pick one global order",
                e.to, e.from, e.from, e.to
            ),
        });
    }
    out
}

//! The token-level lint rules: the two determinism checks that follow a
//! call chain or a loop header, which neither rustc's lints nor clippy's
//! configuration can express.
//!
//! Each rule walks the token stream from [`crate::lexer`] and emits typed
//! diagnostics. Because matching happens on tokens, not text, the rules
//! are immune to the failure modes of the old grep lints: words inside
//! strings or comments never match, and call chains split across lines
//! match exactly like single-line ones.

use crate::lexer::{Token, TokenKind};

/// One finding: a rule, a place, and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule ID (stable, used in `lint: allow(...)`).
    pub rule: &'static str,
    /// File the finding is in (workspace-relative, forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// Typed `Transport` send methods returning `Result<_, RpcError>`.
const SEND_METHODS: &[&str] = &[
    "send",
    "send_with_service",
    "send_sized",
    "send_datagram",
    "send_multicast",
    "stream_bulk",
];
/// Deterministic-map type names tracked by the iteration rule.
const DET_MAP_TYPES: &[&str] = &["DetHashMap", "DetHashSet"];
/// Methods that begin an iteration over a map.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];
/// Chain adapters/consumers whose result does not depend on iteration
/// order (sorting adapters or commutative reductions).
const ORDER_SAFE_METHODS: &[&str] = &[
    "sorted",
    "sorted_by",
    "sorted_by_key",
    "sorted_unstable",
    "sorted_unstable_by",
    "count",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
    "len",
];
/// Calls that put work on the event queue or the wire; iterating an
/// unordered map into one of these makes the schedule order depend on
/// hash-iteration order.
const SCHED_CALLS: &[&str] = &[
    "schedule",
    "schedule_at",
    "schedule_periodic",
    "schedule_periodic_at",
    "send",
    "send_with_service",
    "send_sized",
    "send_datagram",
    "send_multicast",
    "stream_bulk",
    // Sharded-engine vocabulary: cell timers/sends and barrier seeding.
    // The conservative-parallel merge keeps the digest stream partition-
    // invariant only if what each cell feeds it is itself deterministic,
    // so hash-order iteration into these is just as fatal as into the
    // serial queue.
    "timer_at",
    "timer_in",
    "send_latency",
    "seed_timer",
];

/// All rule IDs, in reporting order.
pub const ALL_RULES: &[&str] = &[
    "no-unwrap-on-transport",
    "no-unordered-iteration-into-scheduling",
    "digest-field-coverage",
    "rpc-op-wire-coverage",
    "stats-merge-coverage",
    "unused-allow",
];

/// True if `path` (forward slashes) is inside directory `dir`.
fn in_dir(path: &str, dir: &str) -> bool {
    path == dir || path.starts_with(&format!("{dir}/"))
}

/// Index of the `)` matching the `(` at `open`, by depth counting.
fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Runs every rule over one file's token stream.
pub fn check_tokens(path: &str, toks: &[Token], out: &mut Vec<Diagnostic>) {
    no_unwrap_on_transport(path, toks, out);
    no_unordered_iteration(path, toks, out);
}

/// `no-unwrap-on-transport`: every `Transport` send returns
/// `Result<Delivery, RpcError>`; `unwrap()`/`expect()` anywhere in the
/// chain panics the simulation on an injected fault instead of exercising
/// the recovery paths. Matching is token-based, so chains split across
/// lines (the old grep's known false negative) are caught.
fn no_unwrap_on_transport(path: &str, toks: &[Token], out: &mut Vec<Diagnostic>) {
    if in_dir(path, "crates/lint") {
        return;
    }
    for i in 0..toks.len() {
        if !(toks[i].kind == TokenKind::Ident && SEND_METHODS.contains(&toks[i].text.as_str())) {
            continue;
        }
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(mut close) = matching_paren(toks, i + 1) else {
            continue;
        };
        // Walk the trailing method chain, skipping each link's arguments.
        while toks.get(close + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(close + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            && toks.get(close + 3).is_some_and(|t| t.is_punct('('))
        {
            let name = &toks[close + 2];
            if name.text == "unwrap" || name.text == "expect" {
                out.push(Diagnostic {
                    rule: "no-unwrap-on-transport",
                    file: path.to_string(),
                    line: name.line,
                    message: format!(
                        "{}() on a Transport {} result panics on injected faults; match or propagate the RpcError",
                        name.text, toks[i].text
                    ),
                });
                break;
            }
            match matching_paren(toks, close + 3) {
                Some(c) => close = c,
                None => break,
            }
        }
    }
}

/// `no-unordered-iteration-into-scheduling`: in a file that schedules
/// events or sends messages, looping over a `DetHashMap`/`DetHashSet`
/// feeds hash-iteration order into the event queue. The map's order is
/// stable across identical runs, but not across insertions — sort first.
/// Order-insensitive reductions (`count`, `min`, `sum`, …) and chains
/// that merely collect (to be sorted afterwards) stay legal; what is
/// flagged is order-dependent *consumption*: a `for` loop over the map
/// or an iteration chain ending in `for_each` without a sorting adapter.
fn no_unordered_iteration(path: &str, toks: &[Token], out: &mut Vec<Diagnostic>) {
    if in_dir(path, "crates/lint") {
        return;
    }
    // Only files that put work on the queue or the wire are in scope.
    let schedules = (0..toks.len()).any(|i| {
        toks[i].kind == TokenKind::Ident
            && SCHED_CALLS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
    });
    if !schedules {
        return;
    }
    let names = det_map_names(toks);
    if names.is_empty() {
        return;
    }
    let flag = |name: &Token, out: &mut Vec<Diagnostic>| {
        out.push(Diagnostic {
            rule: "no-unordered-iteration-into-scheduling",
            file: path.to_string(),
            line: name.line,
            message: format!(
                "looping over `{}` (a DetHashMap/DetHashSet) in a scheduling file feeds hash order into the event queue; sort the keys first",
                name.text
            ),
        });
    };
    // `for … in [&][mut] [self.]name …` loop headers.
    for i in 0..toks.len() {
        if !toks[i].is_ident("for") {
            continue;
        }
        // Find the `in` of this loop header (bounded scan).
        let Some(in_idx) = (i + 1..toks.len().min(i + 24)).find(|&j| toks[j].is_ident("in")) else {
            continue;
        };
        let mut j = in_idx + 1;
        while toks
            .get(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_ident("self"))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
        {
            j += 2;
        }
        if !toks
            .get(j)
            .is_some_and(|t| t.kind == TokenKind::Ident && names.contains(&t.text))
        {
            continue;
        }
        // Bare map (`for p in &ready {`)…
        if toks.get(j + 1).is_some_and(|t| t.is_punct('{')) {
            flag(&toks[j], out);
            continue;
        }
        // …or a method chain off it (`for pid in waiters.keys() {`): safe
        // only if some link launders the order before the body runs.
        if chain_is_order_dependent(toks, j, false) {
            flag(&toks[j], out);
        }
    }
    // Expression chains ending in `for_each` (`map.iter().for_each(…)`).
    for i in 0..toks.len() {
        if toks[i].kind == TokenKind::Ident
            && names.contains(&toks[i].text)
            && chain_is_order_dependent(toks, i, true)
        {
            flag(&toks[i], out);
        }
    }
}

/// Walks the method chain starting at `toks[start]` (the map name). With
/// `require_for_each`, the chain is order-dependent only if it reaches a
/// `for_each` link; otherwise any iteration chain counts. Either way, an
/// [`ORDER_SAFE_METHODS`] link neutralizes the chain.
fn chain_is_order_dependent(toks: &[Token], start: usize, require_for_each: bool) -> bool {
    // The chain must begin `name.ITER_METHOD(`.
    if !(toks.get(start + 1).is_some_and(|t| t.is_punct('.'))
        && toks
            .get(start + 2)
            .is_some_and(|t| t.kind == TokenKind::Ident && ITER_METHODS.contains(&t.text.as_str()))
        && toks.get(start + 3).is_some_and(|t| t.is_punct('(')))
    {
        return false;
    }
    let Some(mut close) = matching_paren(toks, start + 3) else {
        return false;
    };
    while toks.get(close + 1).is_some_and(|t| t.is_punct('.'))
        && toks
            .get(close + 2)
            .is_some_and(|t| t.kind == TokenKind::Ident)
        && toks.get(close + 3).is_some_and(|t| t.is_punct('('))
    {
        let link = toks[close + 2].text.as_str();
        if ORDER_SAFE_METHODS.contains(&link) {
            return false;
        }
        if link == "for_each" {
            return true;
        }
        match matching_paren(toks, close + 3) {
            Some(c) => close = c,
            None => return false,
        }
    }
    !require_for_each
}

/// Names declared with a `DetHashMap`/`DetHashSet` type annotation or
/// initialized from one of their constructors.
fn det_map_names(toks: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        // `name: [path::]DetHashMap<…>` (field or typed binding).
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && path_ends_in_det_type(toks, i + 2)
        {
            names.push(toks[i].text.clone());
        }
        // `name = [path::]DetHashMap::…` (constructor binding).
        if toks.get(i + 1).is_some_and(|t| t.is_punct('=')) && path_ends_in_det_type(toks, i + 2) {
            names.push(toks[i].text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// True if the tokens at `start` form a path whose final segment is a
/// deterministic-map type (`DetHashMap`, `sprite_sim::DetHashSet`, …).
fn path_ends_in_det_type(toks: &[Token], start: usize) -> bool {
    let mut j = start;
    loop {
        let Some(t) = toks.get(j) else {
            return false;
        };
        if t.kind != TokenKind::Ident {
            return false;
        }
        if DET_MAP_TYPES.contains(&t.text.as_str()) {
            return true;
        }
        // Continue only through `segment::`.
        if toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
        {
            j += 3;
        } else {
            return false;
        }
    }
}

//! Concurrency-discipline analyses: lock-order cycles, guards held across
//! blocking calls, and in-flight counter balance — CFG-based since v4.
//!
//! Three tree-level rule families share one pass over the ungated,
//! non-exempt workspace functions:
//!
//! - **`lock-order`** — every `.lock()` (and zero-argument `.read()` /
//!   `.write()`, the `RwLock` guard constructors) is attributed to a
//!   *named* lock (the last field, variable or accessor-fn identifier of
//!   its receiver chain: `self.failures.lock()` → `failures`,
//!   `self.links[i].queue.lock()` → `queue`). While a guard is live on
//!   some path, any further acquisition — directly or through a resolved
//!   workspace call that transitively locks — adds a
//!   may-hold-while-acquiring edge carrying the reader/writer mode. A
//!   cycle in that graph means two code paths can take the same locks in
//!   opposite orders; the finding carries the full witness path. A
//!   `.lock()` whose receiver cannot be named is itself a finding:
//!   unattributable guards would silently fall out of the proof.
//! - **`guard-across-blocking`** — a guard live on a path reaching a
//!   call whose name is in [`BLOCKING_CALLS`] (or that resolves to a
//!   workspace function which transitively makes one) is flagged: a
//!   blocked thread holds the lock and stalls every other party.
//! - **`in-flight-balance`** — for counters in [`BALANCED_COUNTERS`]:
//!   every CFG path from a `fetch_add` to an *early* exit (`return` or
//!   `?`) must pass a `fetch_sub` on the same counter or a call that
//!   transitively decrements it (closures count: their bodies are lifted
//!   as sub-functions credited at the definition site); the fall-through
//!   exit is the designated hand-off to the deliver side. A leak finding
//!   carries the witness path. A visibility call ([`VISIBILITY_CALLS`])
//!   with a path to the first `fetch_add` inverts the
//!   increment-before-visibility protocol; and a counter with adds but
//!   no subs anywhere in the tree (or vice versa) can never quiesce.
//!
//! Guard *liveness* is path-sensitive: the live region of a `let`-bound
//! guard is every token reachable from the acquisition without passing a
//! `drop(var)` or leaving the binding block — a guard dropped in one
//! `match` arm stays live in its siblings, and only there. Temporaries
//! and pattern bindings stay live to the end of their statement. Lock
//! identity is name-based and call resolution is an over-approximate
//! union by name (std method names in
//! [`crate::callgraph`]'s `CLEAN_METHODS` are never resolved into the
//! workspace); the residual approximations are spelled out in DESIGN.md §6.

use crate::callgraph::{is_call, FileGraphInput, CLEAN_METHODS, KEYWORDS};
use crate::cfg::{self, Cfg};
use crate::lex::{Token, TokenKind};
use crate::rules::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Call names treated as potentially blocking when a lock guard is live.
/// Sorted — looked up by binary search. Bare `read`/`write` are *not*
/// here: with no arguments they are `RwLock` guard constructors (tracked
/// as acquisitions), and the I/O forms (`read_exact`, `write_all`,
/// `write_vectored`, ...) carry buffers and keep their own entries.
pub const BLOCKING_CALLS: [&str; 18] = [
    "accept",
    "connect",
    "flush",
    "join",
    "park",
    "read_exact",
    "read_to_end",
    "recv",
    "recv_deadline",
    "recv_timeout",
    "send",
    "send_timeout",
    "sleep",
    "wait",
    "wait_timeout",
    "wait_timeout_while",
    "write_all",
    "write_vectored",
];

/// Calls that make an event visible to another thread — a balanced
/// counter must be incremented *before* any of these run, or a racing
/// quiescence check can observe zero while work is in flight.
pub const VISIBILITY_CALLS: [&str; 3] = ["send", "write", "write_all"];

/// Atomic counters whose `fetch_add`/`fetch_sub` sites must balance: the
/// live harness's quiescence invariant rests on `in_flight` reaching a
/// true zero.
pub const BALANCED_COUNTERS: [&str; 1] = ["in_flight"];

/// `(file index, item index)` — a function's identity across the pass.
/// Lifted closures get synthetic item indices past the file's real ones.
pub(crate) type Key = (usize, usize);

/// How a guard was constructed — `Mutex::lock`, `RwLock::read` or
/// `RwLock::write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GuardMode {
    Mutex,
    Read,
    Write,
}

impl GuardMode {
    fn word(self) -> &'static str {
        match self {
            GuardMode::Mutex => "guard",
            GuardMode::Read => "read guard",
            GuardMode::Write => "write guard",
        }
    }
}

/// One acquisition site and the bounds of its guard's life.
pub(crate) struct LockSite {
    /// Attributed lock name; `None` when the receiver cannot be named.
    name: Option<String>,
    mode: GuardMode,
    tok: usize,
    line: u32,
    /// Hard bound: the binding block's close (bound guards) or the end
    /// of the statement (temporaries), exclusive.
    scope_end: usize,
    /// Every `drop(var)` of the bound guard — path-sensitive kills.
    drops: Vec<usize>,
}

/// A call site that resolved to at least one workspace function (or a
/// lifted closure).
pub(crate) struct CallSite {
    tok: usize,
    line: u32,
    name: String,
    callees: Vec<Key>,
}

/// A call whose *name* is in [`BLOCKING_CALLS`], resolved or not.
pub(crate) struct BlockingSite {
    tok: usize,
    line: u32,
    name: String,
}

/// A `fetch_add`/`fetch_sub` on a balanced counter.
pub(crate) struct CounterSite {
    counter: String,
    tok: usize,
    line: u32,
}

/// A visibility call site ([`VISIBILITY_CALLS`]).
pub(crate) struct VisSite {
    tok: usize,
    line: u32,
    name: String,
}

/// Everything the analyses need from one function (or closure) body.
pub(crate) struct FnData {
    pub(crate) key: Key,
    pub(crate) file: usize,
    pub(crate) display: String,
    pub(crate) body: (usize, usize),
    pub(crate) cfg: Cfg,
    locks: Vec<LockSite>,
    pub(crate) calls: Vec<CallSite>,
    blocking: Vec<BlockingSite>,
    adds: Vec<CounterSite>,
    subs: Vec<CounterSite>,
    vis: Vec<VisSite>,
}

impl CallSite {
    pub(crate) fn tok(&self) -> usize {
        self.tok
    }
    pub(crate) fn callees(&self) -> &[Key] {
        &self.callees
    }
}

/// A may-hold-while-acquiring edge: `to` is (possibly transitively)
/// acquired while a guard of `from` is live.
struct Edge {
    from: String,
    from_mode: GuardMode,
    to: String,
    file: String,
    line: u32,
    holder: String,
    /// `" via `callee` (..)"` for edges through a call; empty for direct
    /// nested acquisitions.
    note: String,
}

/// Name-resolution tables over every ungated, non-exempt workspace `fn`
/// with a body.
pub(crate) struct Tables {
    by_qual: BTreeMap<(String, String), Vec<Key>>,
    by_name: BTreeMap<String, Vec<Key>>,
    free_by_name: BTreeMap<String, Vec<Key>>,
}

/// The scanned function set plus its index — shared by this pass and the
/// v4 [`crate::atomics`] / [`crate::growth`] passes.
pub(crate) struct Model {
    pub(crate) fns: Vec<FnData>,
    pub(crate) fn_index: BTreeMap<Key, usize>,
}

fn punct(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct(p)) => Some(p.as_str()),
        _ => None,
    }
}

fn ident(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Runs the concurrency pass over the scanned files.
pub fn analyze(files: &[FileGraphInput<'_>]) -> Vec<Finding> {
    let model = build_model(files);
    analyze_model(&model, files)
}

/// Scans every ungated, non-exempt function (and its lifted closures)
/// into the shared [`Model`].
pub(crate) fn build_model(files: &[FileGraphInput<'_>]) -> Model {
    let tables = build_tables(files);
    let mut fns: Vec<FnData> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if f.exempt {
            continue;
        }
        let mut next_sub = f.items.fns.len();
        for (ii, item) in f.items.fns.iter().enumerate() {
            if item.gated {
                continue;
            }
            let Some(body) = item.body else {
                continue;
            };
            scan_region(
                files,
                &tables,
                fi,
                &item.owner,
                item.display(),
                (body.0, body.1.min(f.tokens.len())),
                (fi, ii),
                &mut next_sub,
                &mut fns,
            );
        }
    }
    let mut fn_index: BTreeMap<Key, usize> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        fn_index.insert(f.key, i);
    }
    Model { fns, fn_index }
}

/// The lock-order / guard-across-blocking / in-flight checks over a
/// prebuilt model.
pub(crate) fn analyze_model(model: &Model, files: &[FileGraphInput<'_>]) -> Vec<Finding> {
    let fns = &model.fns;
    let fn_index = &model.fn_index;
    let may_block = may_block_fixpoint(files, fns, fn_index);
    let acquires = acquires_fixpoint(files, fns, fn_index);

    let mut findings: Vec<Finding> = Vec::new();
    let mut seen: BTreeSet<(String, u32, Rule, String)> = BTreeSet::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut edge_seen: BTreeSet<(String, String, String, u32)> = BTreeSet::new();

    for f in fns {
        let rel = files[f.file].rel;
        for s in &f.locks {
            let Some(from) = &s.name else {
                emit(
                    &mut findings,
                    &mut seen,
                    rel,
                    s.line,
                    Rule::LockOrder,
                    "anon",
                    format!(
                        "cannot attribute this acquisition to a named lock in `{}` — end the \
                         receiver chain in a field, variable or accessor fn, or waive with \
                         `allow(lock-order)`",
                        f.display
                    ),
                );
                continue;
            };
            // Path-sensitive liveness: tokens reachable from the
            // acquisition without passing a drop or leaving the scope.
            // The textual clamp `t > s.tok` matters under loops: a back
            // edge re-enters tokens *before* the acquisition, but those
            // run in the next iteration, where this iteration's guard is
            // already dead (RAII ends it at the binding block's close).
            let live = f.cfg.reachable_after(s.tok, s.scope_end, &s.drops);
            // Direct nested acquisitions on a live path.
            for s2 in &f.locks {
                if s2.tok > s.tok && live.contains(s2.tok) {
                    if let Some(to) = &s2.name {
                        push_edge(
                            &mut edges,
                            &mut edge_seen,
                            Edge {
                                from: from.clone(),
                                from_mode: s.mode,
                                to: to.clone(),
                                file: rel.to_string(),
                                line: s2.line,
                                holder: f.display.clone(),
                                note: String::new(),
                            },
                        );
                    }
                }
            }
            // Acquisitions and blocking behind calls on a live path.
            let mut blocked_lines: BTreeSet<u32> = BTreeSet::new();
            for b in &f.blocking {
                if b.tok > s.tok && live.contains(b.tok) {
                    blocked_lines.insert(b.line);
                    emit(
                        &mut findings,
                        &mut seen,
                        rel,
                        b.line,
                        Rule::GuardBlocking,
                        &format!("{from}:{}", b.name),
                        format!(
                            "`{}(..)` can block while the `{from}` {} (acquired line {}) is \
                             live in `{}` — a blocked thread holds the lock; drop or scope the \
                             guard first",
                            b.name,
                            s.mode.word(),
                            s.line,
                            f.display
                        ),
                    );
                }
            }
            for c in &f.calls {
                if c.tok <= s.tok || !live.contains(c.tok) {
                    continue;
                }
                for k in &c.callees {
                    if let Some(acq) = acquires.get(k) {
                        for (to, wit) in acq {
                            push_edge(
                                &mut edges,
                                &mut edge_seen,
                                Edge {
                                    from: from.clone(),
                                    from_mode: s.mode,
                                    to: to.clone(),
                                    file: rel.to_string(),
                                    line: c.line,
                                    holder: f.display.clone(),
                                    note: format!(" via `{}` ({wit})", disp(fns, fn_index, k)),
                                },
                            );
                        }
                    }
                }
                if !blocked_lines.contains(&c.line) {
                    if let Some((k, wit)) = c
                        .callees
                        .iter()
                        .find_map(|k| may_block.get(k).map(|w| (k, w)))
                    {
                        blocked_lines.insert(c.line);
                        emit(
                            &mut findings,
                            &mut seen,
                            rel,
                            c.line,
                            Rule::GuardBlocking,
                            &format!("{from}:{}", c.name),
                            format!(
                                "`{}(..)` resolves to `{}` which may block ({wit}) while the \
                                 `{from}` {} (acquired line {}) is live in `{}`",
                                c.name,
                                disp(fns, fn_index, k),
                                s.mode.word(),
                                s.line,
                                f.display
                            ),
                        );
                    }
                }
            }
        }
    }

    cycle_findings(&edges, &mut findings, &mut seen);
    in_flight_findings(files, fns, fn_index, &mut findings, &mut seen);
    findings
}

pub(crate) fn build_tables(files: &[FileGraphInput<'_>]) -> Tables {
    let mut t = Tables {
        by_qual: BTreeMap::new(),
        by_name: BTreeMap::new(),
        free_by_name: BTreeMap::new(),
    };
    for (fi, f) in files.iter().enumerate() {
        if f.exempt {
            continue;
        }
        for (ii, item) in f.items.fns.iter().enumerate() {
            if item.gated || item.body.is_none() {
                continue;
            }
            let id = (fi, ii);
            match &item.owner {
                Some(owner) => t
                    .by_qual
                    .entry((owner.clone(), item.name.clone()))
                    .or_default()
                    .push(id),
                None => t
                    .free_by_name
                    .entry(item.name.clone())
                    .or_default()
                    .push(id),
            }
            t.by_name.entry(item.name.clone()).or_default().push(id);
        }
    }
    t
}

/// Scans one body region (a function or a lifted closure) for lock
/// sites, resolved calls, blocking-name calls and balanced-counter
/// touches; recurses into lifted closures as sub-functions wired to the
/// enclosing region at their definition token.
#[allow(clippy::too_many_arguments)]
fn scan_region(
    files: &[FileGraphInput<'_>],
    tables: &Tables,
    fi: usize,
    owner: &Option<String>,
    display: String,
    body: (usize, usize),
    key: Key,
    next_sub: &mut usize,
    out: &mut Vec<FnData>,
) {
    let file = &files[fi];
    let toks = file.tokens;
    let (start, end) = body;
    let graph = cfg::build(toks, body);

    // Lifted sub-regions (closures and nested `fn`s) leave this region's
    // token walk entirely.
    let mut skip: Vec<(usize, usize)> = graph.lifted.iter().map(|l| l.body).collect();
    skip.sort_unstable();

    let mut data = FnData {
        key,
        file: fi,
        display: display.clone(),
        body,
        cfg: graph,
        locks: Vec::new(),
        calls: Vec::new(),
        blocking: Vec::new(),
        adds: Vec::new(),
        subs: Vec::new(),
        vis: Vec::new(),
    };

    let mut i = start;
    while i < end {
        if let Some(&(_, le)) = skip.iter().find(|&&(ls, le)| i >= ls && i < le) {
            i = le;
            continue;
        }
        let Some(name) = ident(toks, i) else {
            i += 1;
            continue;
        };
        let line = toks[i].line;
        // Macro invocation: skip the head, the body tokens still scan.
        if punct(toks, i + 1) == Some("!")
            && matches!(punct(toks, i + 2), Some("(") | Some("[") | Some("{"))
        {
            i += 2;
            continue;
        }
        if KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        if !is_call(toks, i, end) {
            i += 1;
            continue;
        }

        // Guard acquisitions: `.lock()`, and the `RwLock` constructors
        // — zero-argument `.read()` / `.write()` (the I/O forms always
        // carry a buffer argument).
        let acq = if name == "lock" {
            Some(GuardMode::Mutex)
        } else if (name == "read" || name == "write")
            && punct(toks, i + 1) == Some("(")
            && punct(toks, i + 2) == Some(")")
        {
            Some(if name == "read" {
                GuardMode::Read
            } else {
                GuardMode::Write
            })
        } else {
            None
        };
        if let Some(mode) = acq {
            if punct(toks, i.wrapping_sub(1)) == Some(".") && i >= 1 {
                let lock_name = receiver_name(toks, i);
                let scope = guard_scope(toks, start, end, i);
                data.locks.push(LockSite {
                    name: lock_name,
                    mode,
                    tok: i,
                    line,
                    scope_end: scope.end,
                    drops: scope.drops,
                });
                i += 1;
                continue;
            }
        }

        // Balanced-counter touches.
        if (name == "fetch_add" || name == "fetch_sub")
            && punct(toks, i.wrapping_sub(1)) == Some(".")
            && i >= 1
        {
            if let Some(recv) = receiver_name(toks, i) {
                if BALANCED_COUNTERS.contains(&recv.as_str()) {
                    let site = CounterSite {
                        counter: recv,
                        tok: i,
                        line,
                    };
                    if name == "fetch_add" {
                        data.adds.push(site);
                    } else {
                        data.subs.push(site);
                    }
                }
            }
            i += 1;
            continue;
        }

        if BLOCKING_CALLS.binary_search(&name).is_ok() {
            data.blocking.push(BlockingSite {
                tok: i,
                line,
                name: name.to_string(),
            });
        }
        if VISIBILITY_CALLS.contains(&name) && punct(toks, i.wrapping_sub(1)) == Some(".") && i >= 1
        {
            data.vis.push(VisSite {
                tok: i,
                line,
                name: name.to_string(),
            });
        }

        // Workspace resolution: `Type::name` and `Self::name` exactly,
        // `self.name(..)` preferring the enclosing `impl`, any other
        // `.name(..)` to the union of workspace functions with that name.
        let prev = punct(toks, i.wrapping_sub(1));
        let self_recv = i >= 2 && ident(toks, i - 2) == Some("self");
        let callees: Vec<Key> = match prev {
            Some(".") if i >= 1 => {
                if !self_recv && CLEAN_METHODS.binary_search(&name).is_ok() {
                    Vec::new()
                } else if self_recv {
                    owner
                        .as_ref()
                        .and_then(|o| tables.by_qual.get(&(o.clone(), name.to_string())))
                        .or_else(|| tables.by_name.get(name))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    tables.by_name.get(name).cloned().unwrap_or_default()
                }
            }
            Some("::") if i >= 2 => match ident(toks, i - 2) {
                Some("Self") => owner
                    .as_ref()
                    .and_then(|o| tables.by_qual.get(&(o.clone(), name.to_string())))
                    .cloned()
                    .unwrap_or_default(),
                Some(q) => tables
                    .by_qual
                    .get(&(q.to_string(), name.to_string()))
                    .cloned()
                    .unwrap_or_default(),
                None => Vec::new(),
            },
            _ => tables.free_by_name.get(name).cloned().unwrap_or_default(),
        };
        if !callees.is_empty() {
            data.calls.push(CallSite {
                tok: i,
                line,
                name: name.to_string(),
                callees,
            });
        }
        i += 1;
    }

    // Lifted closures become callable sub-functions, wired to this
    // region at their definition token; nested `fn`s are real items the
    // outer loop scans on its own, so they only leave the token walk.
    let lifted: Vec<(usize, u32, (usize, usize), bool)> = data
        .cfg
        .lifted
        .iter()
        .map(|l| (l.tok, l.line, l.body, l.is_closure))
        .collect();
    for (tok, line, lbody, is_closure) in lifted {
        if !is_closure {
            continue;
        }
        let sub_key = (fi, *next_sub);
        *next_sub += 1;
        data.calls.push(CallSite {
            tok,
            line,
            name: format!("{{closure@{line}}}"),
            callees: vec![sub_key],
        });
        scan_region(
            files,
            tables,
            fi,
            owner,
            format!("{display}::{{closure@{line}}}"),
            lbody,
            sub_key,
            next_sub,
            out,
        );
    }
    out.push(data);
}

/// The last named identifier of the receiver chain ending at the `.`
/// before token `i`: `self.failures.lock` → `failures`,
/// `self.links[i].queue.lock` → `queue`, `exclusivity().lock` →
/// `exclusivity`, `locks[i].lock` → `locks`. `?` and `await` hops in
/// the chain are skipped.
pub(crate) fn receiver_name(toks: &[Token], i: usize) -> Option<String> {
    receiver_ident(toks, i).and_then(|j| match &toks[j].kind {
        TokenKind::Ident(s) => Some(s.clone()),
        _ => None,
    })
}

/// Like [`receiver_name`], but returns the token *index* of the naming
/// identifier — callers that must keep walking the chain (the growth
/// rule's adapter skipping) restart from it.
pub(crate) fn receiver_ident(toks: &[Token], i: usize) -> Option<usize> {
    if i < 2 {
        return None;
    }
    let mut j = i - 2; // the token before the `.`
    loop {
        match toks.get(j).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) if s == "await" => {
                // `x.fut().await.lock()` — keep walking the chain.
                if j < 2 || punct(toks, j - 1) != Some(".") {
                    return None;
                }
                j -= 2;
            }
            Some(TokenKind::Ident(_)) => return Some(j),
            Some(TokenKind::Punct(p)) if p == "?" => {
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            Some(TokenKind::Punct(p)) if p == ")" || p == "]" => {
                let (open, close) = if p == ")" { ("(", ")") } else { ("[", "]") };
                let mut depth = 0i32;
                loop {
                    match punct(toks, j) {
                        Some(x) if x == close => depth += 1,
                        Some(x) if x == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        return None;
                    }
                    j -= 1;
                }
                // `j` is at the opening bracket; the name precedes it.
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            _ => return None,
        }
    }
}

/// The textual bounds of the guard born at the acquisition at token `i`.
struct GuardScope {
    /// Hard bound (exclusive): binding block close, or statement end
    /// for temporaries.
    end: usize,
    /// Every `drop(var)` position inside the bound — path-sensitive
    /// kills for [`Cfg::reachable_after`].
    drops: Vec<usize>,
}

fn guard_scope(toks: &[Token], body_start: usize, body_end: usize, i: usize) -> GuardScope {
    // Walk back to the start of the enclosing statement.
    let mut depth = 0i32;
    let mut j = i;
    let stmt_start = loop {
        if j == body_start {
            break j;
        }
        j -= 1;
        match punct(toks, j) {
            Some("}") if depth == 0 => {
                // A `}` at statement depth closes the *previous* statement's
                // block (`if {..}`, `match {..}`, a loop body): it cannot be
                // part of this statement's receiver chain, so the statement
                // starts right after it. Without this, the walk swallows the
                // whole preceding block, `let` is never seen, and the guard's
                // scope silently collapses at the first `;`.
                break j + 1;
            }
            Some(")") | Some("]") | Some("}") => depth += 1,
            Some("(") | Some("[") | Some("{") => {
                if depth == 0 {
                    break j + 1;
                }
                depth -= 1;
            }
            Some(";") | Some(",") if depth == 0 => break j + 1,
            _ => {}
        }
    };
    let bound_var = if ident(toks, stmt_start) == Some("let") {
        let mut k = stmt_start + 1;
        if ident(toks, k) == Some("mut") {
            k += 1;
        }
        match ident(toks, k) {
            Some(v)
                if v != "_"
                    && !KEYWORDS.contains(&v)
                    && matches!(punct(toks, k + 1), Some("=") | Some(":")) =>
            {
                Some(v.to_string())
            }
            _ => None,
        }
    } else {
        None
    };

    let mut depth = 0i32;
    let mut j = i;
    let mut drops = Vec::new();
    while j < body_end {
        match punct(toks, j) {
            Some("(") | Some("[") | Some("{") => depth += 1,
            Some(")") | Some("]") | Some("}") => {
                depth -= 1;
                if depth < 0 {
                    return GuardScope { end: j, drops };
                }
            }
            Some(";") | Some(",") if depth == 0 && bound_var.is_none() => {
                return GuardScope { end: j, drops }
            }
            _ => {}
        }
        if let Some(var) = &bound_var {
            if ident(toks, j) == Some("drop")
                && punct(toks, j + 1) == Some("(")
                && ident(toks, j + 2) == Some(var)
                && punct(toks, j + 3) == Some(")")
            {
                drops.push(j);
            }
        }
        j += 1;
    }
    GuardScope {
        end: body_end,
        drops,
    }
}

/// Functions that may block, with a witness: seeded by direct
/// blocking-name calls, propagated over resolved call edges (closure
/// sub-functions included).
fn may_block_fixpoint(
    files: &[FileGraphInput<'_>],
    fns: &[FnData],
    fn_index: &BTreeMap<Key, usize>,
) -> BTreeMap<Key, String> {
    let mut may_block: BTreeMap<Key, String> = BTreeMap::new();
    for f in fns {
        if let Some(b) = f.blocking.first() {
            may_block.insert(
                f.key,
                format!("calls `{}` at {}:{}", b.name, files[f.file].rel, b.line),
            );
        }
    }
    loop {
        let mut changed = false;
        for f in fns {
            if may_block.contains_key(&f.key) {
                continue;
            }
            'calls: for c in &f.calls {
                for k in &c.callees {
                    if may_block.contains_key(k) {
                        may_block.insert(
                            f.key,
                            format!(
                                "via `{}` at {}:{}",
                                disp(fns, fn_index, k),
                                files[f.file].rel,
                                c.line
                            ),
                        );
                        changed = true;
                        break 'calls;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    may_block
}

/// Lock names each function may acquire (transitively), with witnesses.
fn acquires_fixpoint(
    files: &[FileGraphInput<'_>],
    fns: &[FnData],
    fn_index: &BTreeMap<Key, usize>,
) -> BTreeMap<Key, BTreeMap<String, String>> {
    let mut acquires: BTreeMap<Key, BTreeMap<String, String>> = BTreeMap::new();
    for f in fns {
        for s in &f.locks {
            if let Some(n) = &s.name {
                acquires
                    .entry(f.key)
                    .or_default()
                    .entry(n.clone())
                    .or_insert_with(|| {
                        format!(
                            "takes the `{n}` {} at {}:{}",
                            s.mode.word(),
                            files[f.file].rel,
                            s.line
                        )
                    });
            }
        }
    }
    loop {
        let mut changed = false;
        for f in fns {
            for c in &f.calls {
                for k in &c.callees {
                    if *k == f.key {
                        continue;
                    }
                    let Some(callee_acq) = acquires.get(k) else {
                        continue;
                    };
                    let fresh: Vec<String> = callee_acq
                        .keys()
                        .filter(|n| {
                            acquires
                                .get(&f.key)
                                .is_none_or(|m| !m.contains_key(n.as_str()))
                        })
                        .cloned()
                        .collect();
                    if fresh.is_empty() {
                        continue;
                    }
                    let wit = format!(
                        "via `{}` at {}:{}",
                        disp(fns, fn_index, k),
                        files[f.file].rel,
                        c.line
                    );
                    let m = acquires.entry(f.key).or_default();
                    for n in fresh {
                        m.insert(n, wit.clone());
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    acquires
}

/// Reports every edge that participates in a cycle of the
/// may-hold-while-acquiring graph, with the full witness path.
fn cycle_findings(
    edges: &[Edge],
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(String, u32, Rule, String)>,
) {
    let mut adj: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        adj.entry(e.from.clone()).or_default().push(i);
    }
    for e in edges {
        if e.from == e.to {
            emit(
                findings,
                seen,
                &e.file,
                e.line,
                Rule::LockOrder,
                &format!("cycle:{}:{}", e.from, e.to),
                format!(
                    "re-entrant acquisition: `{}` is taken again while its {} is already held \
                     in `{}`{} — self-deadlock",
                    e.to,
                    e.from_mode.word(),
                    e.holder,
                    e.note
                ),
            );
            continue;
        }
        let Some(path) = find_path(edges, &adj, &e.to, &e.from) else {
            continue;
        };
        let mut msg = format!(
            "lock-order cycle: `{}` may be acquired while the `{}` {} is held in `{}`{}",
            e.to,
            e.from,
            e.from_mode.word(),
            e.holder,
            e.note
        );
        for &pi in &path {
            let pe = &edges[pi];
            msg.push_str(&format!(
                "; the opposite order runs `{}` → `{}` at {}:{} in `{}`{}",
                pe.from, pe.to, pe.file, pe.line, pe.holder, pe.note
            ));
        }
        msg.push_str(" — two threads taking these locks in opposite orders deadlock");
        emit(
            findings,
            seen,
            &e.file,
            e.line,
            Rule::LockOrder,
            &format!("cycle:{}:{}", e.from, e.to),
            msg,
        );
    }
}

/// BFS from `start` to `target` over the lock graph; returns the edge
/// path when reachable.
fn find_path(
    edges: &[Edge],
    adj: &BTreeMap<String, Vec<usize>>,
    start: &str,
    target: &str,
) -> Option<Vec<usize>> {
    let mut parent: BTreeMap<String, usize> = BTreeMap::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    queue.push_back(start.to_string());
    while let Some(u) = queue.pop_front() {
        let Some(outs) = adj.get(&u) else {
            continue;
        };
        for &ei in outs {
            let to = &edges[ei].to;
            if to == start || parent.contains_key(to) {
                continue;
            }
            parent.insert(to.clone(), ei);
            if to == target {
                let mut path = vec![ei];
                let mut node = edges[ei].from.clone();
                while node != start {
                    let &pe = parent.get(&node)?;
                    path.push(pe);
                    node = edges[pe].from.clone();
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(to.clone());
        }
    }
    None
}

/// Per-counter `(file, line)` sites of every `fetch_add` and `fetch_sub`
/// in the tree, for the pairing check.
type CounterTotals = BTreeMap<String, (Vec<(String, u32)>, Vec<(String, u32)>)>;

/// Counters each function (transitively) decrements — a call to such a
/// function credits a path, and a closure containing a `fetch_sub` is
/// credited at its definition site through its synthetic call edge.
fn subs_fixpoint(fns: &[FnData]) -> BTreeMap<Key, BTreeSet<String>> {
    let mut subs_of: BTreeMap<Key, BTreeSet<String>> = BTreeMap::new();
    for f in fns {
        for s in &f.subs {
            subs_of.entry(f.key).or_default().insert(s.counter.clone());
        }
    }
    loop {
        let mut changed = false;
        for f in fns {
            for c in &f.calls {
                for k in &c.callees {
                    if *k == f.key {
                        continue;
                    }
                    let fresh: Vec<String> = match subs_of.get(k) {
                        Some(cs) => cs
                            .iter()
                            .filter(|n| subs_of.get(&f.key).is_none_or(|m| !m.contains(n.as_str())))
                            .cloned()
                            .collect(),
                        None => continue,
                    };
                    if !fresh.is_empty() {
                        let m = subs_of.entry(f.key).or_default();
                        for n in fresh {
                            m.insert(n);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    subs_of
}

/// The three `in-flight-balance` checks: all-paths leak proofs with
/// witness paths, visibility ordering, and tree-wide add/sub pairing.
fn in_flight_findings(
    files: &[FileGraphInput<'_>],
    fns: &[FnData],
    fn_index: &BTreeMap<Key, usize>,
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(String, u32, Rule, String)>,
) {
    let subs_of = subs_fixpoint(fns);
    let mut totals: CounterTotals = BTreeMap::new();
    for f in fns {
        let rel = files[f.file].rel;
        let toks = files[f.file].tokens;
        for a in &f.adds {
            totals
                .entry(a.counter.clone())
                .or_default()
                .0
                .push((rel.to_string(), a.line));
            // Credits: a direct `fetch_sub` on the same counter, or a
            // call (including a lifted closure at its definition site)
            // that transitively decrements it.
            let mut credits: BTreeSet<usize> = f
                .subs
                .iter()
                .filter(|s| s.counter == a.counter)
                .map(|s| s.tok)
                .collect();
            for c in &f.calls {
                if c.callees
                    .iter()
                    .any(|k| subs_of.get(k).is_some_and(|cs| cs.contains(&a.counter)))
                {
                    credits.insert(c.tok);
                }
            }
            if let Some(w) = f.cfg.uncredited_exit(toks, a.tok, &credits) {
                let path = w
                    .path_lines
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(" → ");
                emit(
                    findings,
                    seen,
                    rel,
                    w.exit_line,
                    Rule::InFlightBalance,
                    &format!("leak:{}", a.counter),
                    format!(
                        "`{}.fetch_add` (line {}) can escape through the `{}` early exit on \
                         line {} without a matching `fetch_sub` in `{}` — witness path: lines \
                         {path} — the in-flight count leaks and quiescence never observes zero",
                        a.counter, a.line, w.exit_kind, w.exit_line, f.display
                    ),
                );
            }
        }
        for s in &f.subs {
            totals
                .entry(s.counter.clone())
                .or_default()
                .1
                .push((rel.to_string(), s.line));
        }
        // Increment-before-visibility: nothing may publish the event on
        // a path that later reaches the first add of this function. The
        // textual `v.tok < first.tok` guard keeps loop back edges from
        // pairing iteration N's publish with iteration N+1's increment.
        if let Some(first) = f.adds.first() {
            for v in &f.vis {
                if v.tok >= first.tok {
                    continue;
                }
                let after_vis = f.cfg.reachable_after(v.tok, usize::MAX, &[]);
                if after_vis.contains(first.tok) {
                    emit(
                        findings,
                        seen,
                        rel,
                        first.line,
                        Rule::InFlightBalance,
                        &format!("vis:{}", first.counter),
                        format!(
                            "`{}.fetch_add` happens after `{}(..)` on line {} in `{}` — \
                             increment before making the event visible, or a racing \
                             quiescence check can observe zero while work is in flight",
                            first.counter, v.name, v.line, f.display
                        ),
                    );
                    break;
                }
            }
        }
    }
    let _ = fn_index;
    for (counter, (adds, subs)) in &totals {
        if !adds.is_empty() && subs.is_empty() {
            let (file, line) = &adds[0];
            emit(
                findings,
                seen,
                file,
                *line,
                Rule::InFlightBalance,
                &format!("pair:{counter}"),
                format!(
                    "`{counter}.fetch_add` has no matching `{counter}.fetch_sub` anywhere in \
                     the tree — the count can only grow, so quiescence never completes"
                ),
            );
        }
        if adds.is_empty() && !subs.is_empty() {
            let (file, line) = &subs[0];
            emit(
                findings,
                seen,
                file,
                *line,
                Rule::InFlightBalance,
                &format!("pair:{counter}"),
                format!(
                    "`{counter}.fetch_sub` has no matching `{counter}.fetch_add` anywhere in \
                     the tree — the count can go negative and quiescence reports idle early"
                ),
            );
        }
    }
}

fn disp<'a>(fns: &'a [FnData], fn_index: &BTreeMap<Key, usize>, k: &Key) -> &'a str {
    fn_index.get(k).map_or("?", |&i| fns[i].display.as_str())
}

fn push_edge(edges: &mut Vec<Edge>, seen: &mut BTreeSet<(String, String, String, u32)>, e: Edge) {
    if seen.insert((e.from.clone(), e.to.clone(), e.file.clone(), e.line)) {
        edges.push(e);
    }
}

fn emit(
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(String, u32, Rule, String)>,
    file: &str,
    line: u32,
    rule: Rule,
    key: &str,
    message: String,
) {
    if seen.insert((file.to_string(), line, rule, key.to_string())) {
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule,
            message,
            waiver: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;
    use crate::parse::parse_items;

    fn analyze_src(src: &str) -> Vec<Finding> {
        let scan = lex::scan(src);
        let items = parse_items(&scan);
        let input = FileGraphInput {
            rel: "a.rs",
            tokens: &scan.tokens,
            items: &items,
            exempt: false,
        };
        analyze(&[input])
    }

    fn rules_of(f: &[Finding]) -> Vec<Rule> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn blocking_calls_is_sorted_for_binary_search() {
        assert!(BLOCKING_CALLS.windows(2).all(|w| w[0] < w[1]));
        assert!(!BLOCKING_CALLS.contains(&"read"));
        assert!(!BLOCKING_CALLS.contains(&"write"));
    }

    #[test]
    fn opposite_lock_orders_two_calls_deep_are_a_cycle() {
        let src = "struct P { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl P {\n\
             fn forward(&self) { let g = self.a.lock().unwrap_or_else(|e| e.into_inner()); \
             self.take_b(); drop(g); }\n\
             fn take_b(&self) { let h = self.b.lock().unwrap_or_else(|e| e.into_inner()); \
             let _ = h; }\n\
             fn backward(&self) { let g = self.b.lock().unwrap_or_else(|e| e.into_inner()); \
             self.take_a(); drop(g); }\n\
             fn take_a(&self) { let h = self.a.lock().unwrap_or_else(|e| e.into_inner()); \
             let _ = h; }\n\
             }";
        let f = analyze_src(src);
        let cycles: Vec<_> = f.iter().filter(|x| x.rule == Rule::LockOrder).collect();
        assert_eq!(cycles.len(), 2, "{f:?}");
        assert!(cycles[0].message.contains("lock-order cycle"), "{f:?}");
        assert!(cycles[0].message.contains("opposite order"), "{f:?}");
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "struct P { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl P {\n\
             fn one(&self) { let g = self.a.lock().unwrap_or_else(|e| e.into_inner()); \
             let h = self.b.lock().unwrap_or_else(|e| e.into_inner()); let _ = (g, h); }\n\
             fn two(&self) { let g = self.a.lock().unwrap_or_else(|e| e.into_inner()); \
             let h = self.b.lock().unwrap_or_else(|e| e.into_inner()); let _ = (g, h); }\n\
             }";
        let f = analyze_src(src);
        assert!(!rules_of(&f).contains(&Rule::LockOrder), "{f:?}");
    }

    #[test]
    fn reentrant_lock_is_a_self_deadlock() {
        let src = "struct P { a: Mutex<u32> }\n\
             impl P {\n\
             fn twice(&self) { let g = self.a.lock().unwrap_or_else(|e| e.into_inner()); \
             let h = self.a.lock().unwrap_or_else(|e| e.into_inner()); let _ = (g, h); }\n\
             }";
        let f = analyze_src(src);
        assert!(
            f.iter()
                .any(|x| x.rule == Rule::LockOrder && x.message.contains("re-entrant")),
            "{f:?}"
        );
    }

    #[test]
    fn rwlock_read_and_write_guards_are_acquisitions() {
        // Opposite orders through RwLock guards form a cycle, and the
        // messages carry the reader/writer mode.
        let src = "struct P { a: RwLock<u32>, b: RwLock<u32> }\n\
             impl P {\n\
             fn fwd(&self) { let g = self.a.read().unwrap_or_else(|e| e.into_inner()); \
             let h = self.b.write().unwrap_or_else(|e| e.into_inner()); let _ = (g, h); }\n\
             fn bwd(&self) { let g = self.b.read().unwrap_or_else(|e| e.into_inner()); \
             let h = self.a.write().unwrap_or_else(|e| e.into_inner()); let _ = (g, h); }\n\
             }";
        let f = analyze_src(src);
        let cycles: Vec<_> = f.iter().filter(|x| x.rule == Rule::LockOrder).collect();
        assert_eq!(cycles.len(), 2, "{f:?}");
        assert!(cycles[0].message.contains("read guard"), "{f:?}");
    }

    #[test]
    fn io_read_with_arguments_is_not_an_acquisition() {
        // `stream.read(&mut buf)` takes a buffer — it must not be
        // mistaken for an RwLock guard (and is no longer classified as
        // a blocking name either; `read_exact` et al. still are).
        let src = "fn pump(stream: &mut TcpStream, buf: &mut [u8]) -> usize {\n\
             stream.read(buf).unwrap_or(0)\n\
             }";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn rwlock_write_guard_across_blocking_is_flagged() {
        let src = "fn publish(state: &RwLock<Vec<u32>>, tx: &Sender<u32>, v: u32) {\n\
             let mut g = state.write().unwrap_or_else(|e| e.into_inner());\n\
             g.push(v);\n\
             let _ = tx.send(v);\n\
             }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::GuardBlocking], "{f:?}");
        assert!(f[0].message.contains("write guard"), "{f:?}");
    }

    #[test]
    fn guard_across_send_is_flagged_and_drop_releases() {
        let held = "fn publish(log: &Mutex<Vec<u32>>, tx: &Sender<u32>, v: u32) {\n\
             let mut held = log.lock().unwrap_or_else(|e| e.into_inner());\n\
             held.push(v);\n\
             let _ = tx.send(v);\n\
             }";
        let f = analyze_src(held);
        assert_eq!(rules_of(&f), vec![Rule::GuardBlocking], "{f:?}");
        assert_eq!(f[0].line, 4);

        let dropped = "fn publish(log: &Mutex<Vec<u32>>, tx: &Sender<u32>, v: u32) {\n\
             let mut held = log.lock().unwrap_or_else(|e| e.into_inner());\n\
             held.push(v);\n\
             drop(held);\n\
             let _ = tx.send(v);\n\
             }";
        assert!(analyze_src(dropped).is_empty());
    }

    #[test]
    fn guard_dropped_in_one_match_arm_stays_live_in_siblings() {
        // Path-sensitivity both ways: the arm that dropped the guard may
        // block freely; the sibling arm that still holds it may not.
        let src = "fn route(log: &Mutex<Vec<u32>>, tx: &Sender<u32>, v: u32) {\n\
             let g = log.lock().unwrap_or_else(|e| e.into_inner());\n\
             match v {\n\
             0 => { drop(g); let _ = tx.send(v); }\n\
             _ => { let _ = tx.send(v + 1); }\n\
             }\n\
             }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::GuardBlocking], "{f:?}");
        assert_eq!(f[0].line, 5, "only the still-holding sibling arm: {f:?}");
    }

    #[test]
    fn guard_bound_after_a_block_statement_still_tracks_scope() {
        // Regression: the backward walk to the statement start used to
        // swallow a preceding `if {..}` block, miss the `let`, and collapse
        // the guard's scope at the first `;` — hiding every
        // guard-across-blocking hazard in functions with an early return.
        let src = "fn publish(log: &Mutex<Vec<u32>>, tx: &Sender<u32>, v: u32) {\n\
             if v == 0 { return; }\n\
             let mut held = log.lock().unwrap_or_else(|e| e.into_inner());\n\
             held.push(v);\n\
             let _ = tx.send(v);\n\
             }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::GuardBlocking], "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn publish(log: &Mutex<Vec<u32>>, tx: &Sender<u32>, v: u32) {\n\
             log.lock().unwrap_or_else(|e| e.into_inner()).push(v);\n\
             let _ = tx.send(v);\n\
             }";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn blocking_behind_a_call_is_flagged_transitively() {
        let src = "fn outer(log: &Mutex<u32>) {\n\
             let g = log.lock().unwrap_or_else(|e| e.into_inner());\n\
             slow();\n\
             let _ = g;\n\
             }\n\
             fn slow() { std::thread::sleep(std::time::Duration::from_secs(1)); }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::GuardBlocking], "{f:?}");
        assert!(f[0].message.contains("may block"), "{f:?}");
        assert!(f[0].message.contains("`slow`"), "{f:?}");
    }

    #[test]
    fn blocking_inside_a_closure_is_charged_to_the_holder() {
        // The closure body is lifted, but its synthetic call edge at the
        // definition site keeps the transitive blocking charge.
        let src = "fn outer(log: &Mutex<u32>, xs: Vec<u32>) {\n\
             let g = log.lock().unwrap_or_else(|e| e.into_inner());\n\
             xs.iter().for_each(|x| { std::thread::sleep(d(*x)); });\n\
             let _ = g;\n\
             }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::GuardBlocking], "{f:?}");
        assert!(f[0].message.contains("closure"), "{f:?}");
    }

    #[test]
    fn unattributable_lock_is_reported() {
        let src = "fn odd(pair: (Mutex<u32>, u32)) { let g = (pair.0).lock(); let _ = g; }";
        let f = analyze_src(src);
        assert!(
            f.iter()
                .any(|x| x.rule == Rule::LockOrder && x.message.contains("cannot attribute")),
            "{f:?}"
        );
    }

    #[test]
    fn receiver_names_survive_index_and_call_chains() {
        let name = |src: &str| {
            let scan = lex::scan(src);
            let i = scan
                .tokens
                .iter()
                .position(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "lock"))
                .unwrap();
            receiver_name(&scan.tokens, i)
        };
        assert_eq!(
            name("fn f(&self) { self.links[i].queue.lock(); }"),
            Some("queue".to_string())
        );
        assert_eq!(
            name("fn f(&self) { self.links[idx(i)].lock(); }"),
            Some("links".to_string())
        );
        assert_eq!(
            name("fn f(&self) { self.link(i).lock(); }"),
            Some("link".to_string())
        );
        assert_eq!(
            name("fn f(&self) { self.link(i)?.queue.lock(); }"),
            Some("queue".to_string()),
            "`?` hops in the chain are skipped"
        );
        assert_eq!(
            name("fn f(&self) { self.get(i)?.lock(); }"),
            Some("get".to_string())
        );
        assert_eq!(name("fn f() { (pair.0).lock(); }"), None);
    }

    #[test]
    fn a_lock_reacquired_across_loop_iterations_is_not_reentrant() {
        // The guard dies at the iteration's end; the back edge must not
        // mark the acquisition site as live-while-held.
        let src = "fn pump(q: &Mutex<Vec<u32>>) {\n\
             loop {\n\
             let mut g = q.lock().unwrap_or_else(|e| e.into_inner());\n\
             if g.pop().is_none() { break; }\n\
             }\n\
             }";
        assert!(analyze_src(src).is_empty(), "{:?}", analyze_src(src));
    }

    #[test]
    fn a_temporary_guard_in_a_for_head_is_held_for_the_body_only() {
        // `for e in x.lock().iter()` holds the guard across the whole
        // loop body (temporary lifetime), but the back edge must not
        // turn the single acquisition into a re-entrant one — and a
        // blocking call in the body is still flagged.
        let clean = "fn collect(log: &Mutex<Vec<u32>>, out: &mut Vec<u32>) {\n\
             for e in log.lock().unwrap_or_else(|x| x.into_inner()).iter() {\n\
             out.push(*e);\n\
             }\n\
             }";
        assert!(analyze_src(clean).is_empty(), "{:?}", analyze_src(clean));

        let held = "fn relay(log: &Mutex<Vec<u32>>, tx: &Sender<u32>) {\n\
             for e in log.lock().unwrap_or_else(|x| x.into_inner()).iter() {\n\
             let _ = tx.send(*e);\n\
             }\n\
             }";
        let f = analyze_src(held);
        assert_eq!(rules_of(&f), vec![Rule::GuardBlocking], "{f:?}");
    }

    #[test]
    fn branch_dependent_leak_is_caught_with_a_witness_path() {
        // v3's textual scan saw a `fetch_sub` token *before* the second
        // `return` and called this balanced; only a path proof sees the
        // uncredited arm.
        let src = "fn send_event(in_flight: &AtomicI64, x: u8) -> Result<(), ()> {\n\
             in_flight.fetch_add(1, Ordering::SeqCst);\n\
             match x {\n\
             0 => { in_flight.fetch_sub(1, Ordering::SeqCst); return Err(()); }\n\
             _ => return Err(()),\n\
             }\n\
             }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::InFlightBalance], "{f:?}");
        assert_eq!(f[0].line, 5, "{f:?}");
        assert!(f[0].message.contains("witness path"), "{f:?}");
    }

    #[test]
    fn early_return_after_fetch_add_leaks() {
        let src = "fn send_event(in_flight: &AtomicI64, ready: bool) -> Result<(), ()> {\n\
             in_flight.fetch_add(1, Ordering::SeqCst);\n\
             if !ready { return Err(()); }\n\
             in_flight.fetch_sub(1, Ordering::SeqCst);\n\
             Ok(())\n\
             }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::InFlightBalance], "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("early exit"), "{f:?}");
    }

    #[test]
    fn decrement_before_the_exit_balances() {
        let src = "fn send_event(in_flight: &AtomicI64, ready: bool) -> Result<(), ()> {\n\
             in_flight.fetch_add(1, Ordering::SeqCst);\n\
             if !ready { in_flight.fetch_sub(1, Ordering::SeqCst); return Err(()); }\n\
             Ok(())\n\
             }\n\
             fn other(in_flight: &AtomicI64) { in_flight.fetch_sub(1, Ordering::SeqCst); }";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn closure_hidden_fetch_sub_is_credited() {
        // The decrement lives behind a closure boundary; the lifted
        // sub-function's summary credits the definition site.
        let src = "fn send_event(in_flight: &AtomicI64, ready: bool) -> Result<(), ()> {\n\
             in_flight.fetch_add(1, Ordering::SeqCst);\n\
             if !ready {\n\
             let undo = || { in_flight.fetch_sub(1, Ordering::SeqCst); };\n\
             undo();\n\
             return Err(());\n\
             }\n\
             Ok(())\n\
             }";
        assert!(analyze_src(src).is_empty(), "{:?}", analyze_src(src));
    }

    #[test]
    fn decrement_behind_a_named_call_is_credited() {
        let src = "fn send_event(in_flight: &AtomicI64, ready: bool) -> Result<(), ()> {\n\
             in_flight.fetch_add(1, Ordering::SeqCst);\n\
             if !ready { undo(in_flight); return Err(()); }\n\
             Ok(())\n\
             }\n\
             fn undo(in_flight: &AtomicI64) { in_flight.fetch_sub(1, Ordering::SeqCst); }";
        assert!(analyze_src(src).is_empty(), "{:?}", analyze_src(src));
    }

    #[test]
    fn try_exit_after_fetch_add_leaks() {
        let src = "fn send_event(in_flight: &AtomicI64) -> Result<(), ()> {\n\
             in_flight.fetch_add(1, Ordering::SeqCst);\n\
             publish()?;\n\
             in_flight.fetch_sub(1, Ordering::SeqCst);\n\
             Ok(())\n\
             }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::InFlightBalance], "{f:?}");
        assert!(f[0].message.contains("`?` early exit"), "{f:?}");
    }

    #[test]
    fn visibility_before_increment_is_flagged() {
        let src = "fn send_event(in_flight: &AtomicI64, tx: &Sender<u32>) {\n\
             let _ = tx.send(7);\n\
             in_flight.fetch_add(1, Ordering::SeqCst);\n\
             }\n\
             fn other(in_flight: &AtomicI64) { in_flight.fetch_sub(1, Ordering::SeqCst); }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::InFlightBalance], "{f:?}");
        assert!(
            f[0].message.contains("before making the event visible"),
            "{f:?}"
        );
    }

    #[test]
    fn visibility_in_a_sibling_branch_is_not_before() {
        // v3 compared token positions; a send in the *other* branch is
        // not on any path to the increment.
        let src = "fn send_event(in_flight: &AtomicI64, tx: &Sender<u32>, x: bool) {\n\
             if x { let _ = tx.send(7); } else { in_flight.fetch_add(1, Ordering::SeqCst); }\n\
             }\n\
             fn other(in_flight: &AtomicI64) { in_flight.fetch_sub(1, Ordering::SeqCst); }";
        assert!(analyze_src(src).is_empty(), "{:?}", analyze_src(src));
    }

    #[test]
    fn add_without_any_sub_in_the_tree_is_flagged() {
        let src = "fn only_up(in_flight: &AtomicI64) { in_flight.fetch_add(1, Ordering::SeqCst); }";
        let f = analyze_src(src);
        assert_eq!(rules_of(&f), vec![Rule::InFlightBalance], "{f:?}");
        assert!(f[0].message.contains("no matching"), "{f:?}");
    }

    #[test]
    fn unrelated_counters_are_ignored() {
        let src = "fn tick(next: &AtomicU64) { next.fetch_add(1, Ordering::Relaxed); }";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn accessor_fn_receivers_attribute_to_the_accessor_name() {
        let src = "fn install() {\n\
             let g = exclusivity().lock().unwrap_or_else(|e| e.into_inner());\n\
             let h = sink().lock().unwrap_or_else(|e| e.into_inner());\n\
             let _ = (g, h);\n\
             }";
        // One direction only: an edge, but no cycle.
        assert!(analyze_src(src).is_empty());
    }
}

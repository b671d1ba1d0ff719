//! `atomic-protocol`: ordering discipline for the reactor's readiness
//! idioms, machine-checked on the CFG.
//!
//! Two checks, both derived from the writer-kick protocol the runtime's
//! reactor transport depends on:
//!
//! - **Relaxed gate needs a confirming RMW.** A
//!   `x.load(Ordering::Relaxed)` used as a *positive* conjunct of an
//!   `if`/`while` condition is only a cheap pre-check: it synchronizes
//!   with nothing, so acting on it alone races the writer. The idiom is
//!   `if flag.load(Relaxed) && flag.swap(false, SeqCst) { .. }` — the
//!   Acquire-or-stronger read-modify-write on the *same* atomic
//!   confirms the hint before the side effects run. The check: from the
//!   Relaxed load, every path to a side-effecting call inside the
//!   then-branch must pass a confirming RMW (`swap`,
//!   `compare_exchange[_weak]`, `fetch_*`) on the same atomic with
//!   `Acquire`/`AcqRel`/`SeqCst` ordering. Negated conjuncts
//!   (`!shutdown.load(Relaxed)`) are exempt: continuing *because the
//!   flag is unset* is the benign advisory use.
//! - **Flag set before kick.** In a function that both writes an atomic
//!   flag and `unpark`s a peer, every path from entry to the `unpark`
//!   must pass a Release-or-stronger write (`store`/`swap`/`fetch_or`/
//!   ...) first — a kick with no visible flag (or a `Relaxed` one that
//!   can reorder after it) wakes a thread that re-parks with work
//!   pending. Functions with no atomic write at all are skipped: a pure
//!   kicker helper's ordering obligation sits with its callers.
//!
//! Both checks are name-based on the receiver chain (the same
//! attribution the lock rules use) and path-based on
//! [`crate::cfg::Cfg::reachable_after`] — `kills` are the confirming /
//! flag-writing tokens, so a surviving reachability witness *is* an
//! ordering hole on some path.

use crate::callgraph::{is_call, FileGraphInput, KEYWORDS};
use crate::concurrency::{self, receiver_name, Model};
use crate::lex::{Token, TokenKind};
use crate::rules::{Finding, Rule};
use std::collections::BTreeSet;

/// Read-modify-write methods that can confirm a Relaxed pre-check.
const CONFIRMING_RMWS: [&str; 9] = [
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_and",
    "fetch_or",
    "fetch_sub",
    "fetch_update",
    "fetch_xor",
    "swap",
];

/// Atomic write methods that count as "the flag is set" before a kick.
const FLAG_WRITES: [&str; 8] = [
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "store",
    "swap",
];

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

/// Whether the argument list opening at `open` (a `(`) contains one of
/// the given ordering identifiers; returns the index past the `)`.
fn args_contain(toks: &[Token], open: usize, names: &[&str]) -> (bool, usize) {
    if punct(toks, open) != Some("(") {
        return (false, open);
    }
    let mut d = 0i32;
    let mut i = open;
    let mut found = false;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct(p) if p == "(" => d += 1,
            TokenKind::Punct(p) if p == ")" => {
                d -= 1;
                if d == 0 {
                    return (found, i + 1);
                }
            }
            TokenKind::Ident(s) if names.contains(&s.as_str()) => found = true,
            _ => {}
        }
        i += 1;
    }
    (found, i)
}

const ACQUIRE_OR_STRONGER: [&str; 3] = ["AcqRel", "Acquire", "SeqCst"];
const RELEASE_OR_STRONGER: [&str; 3] = ["AcqRel", "Release", "SeqCst"];

/// Runs the atomic-protocol pass standalone (tests); production shares
/// the model via `analyze_model`.
pub fn analyze(files: &[FileGraphInput<'_>]) -> Vec<Finding> {
    let model = concurrency::build_model(files);
    analyze_model(&model, files)
}

pub(crate) fn analyze_model(model: &Model, files: &[FileGraphInput<'_>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen: BTreeSet<(usize, u32, String)> = BTreeSet::new();
    for f in &model.fns {
        let toks = files[f.file].tokens;
        let rel = files[f.file].rel;
        relaxed_gate_check(f, toks, rel, &mut findings, &mut seen);
        flag_before_kick_check(f, toks, rel, &mut findings, &mut seen);
    }
    findings
}

/// Conjunct segments of a condition range, split at `&&` (two `&`
/// puncts at bracket depth zero).
fn conjuncts(toks: &[Token], cond: (usize, usize)) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut d = 0i32;
    let mut seg = cond.0;
    let mut i = cond.0;
    while i < cond.1 {
        match punct(toks, i) {
            Some("(") | Some("[") | Some("{") => d += 1,
            Some(")") | Some("]") | Some("}") => d -= 1,
            Some("&") if d == 0 && punct(toks, i + 1) == Some("&") => {
                out.push((seg, i));
                i += 2;
                seg = i;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out.push((seg, cond.1));
    out
}

/// The Relaxed-gate check over every recorded `if`/`while` branch.
fn relaxed_gate_check(
    f: &concurrency::FnData,
    toks: &[Token],
    rel: &str,
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(usize, u32, String)>,
) {
    for br in &f.cfg.branches {
        for (cs, ce) in conjuncts(toks, br.cond) {
            // A negated conjunct (`!flag.load(Relaxed)`) is advisory use.
            if punct(toks, cs) == Some("!") {
                continue;
            }
            // Find `<chain>.load( .. Relaxed .. )` inside this conjunct.
            let mut i = cs;
            while i < ce {
                if ident(toks, i) != Some("load") || punct(toks, i.wrapping_sub(1)) != Some(".") {
                    i += 1;
                    continue;
                }
                let (relaxed, _) = args_contain(toks, i + 1, &["Relaxed"]);
                let Some(atomic) = receiver_name(toks, i) else {
                    i += 1;
                    continue;
                };
                if !relaxed {
                    i += 1;
                    continue;
                }
                check_gate(f, toks, rel, i, &atomic, br, findings, seen);
                i += 1;
            }
        }
    }
}

/// Verifies one Relaxed gate: every path from the load to a
/// side-effecting call in the then-branch must pass a confirming RMW on
/// the same atomic.
#[allow(clippy::too_many_arguments)]
fn check_gate(
    f: &concurrency::FnData,
    toks: &[Token],
    rel: &str,
    load_tok: usize,
    atomic: &str,
    br: &crate::cfg::Branch,
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(usize, u32, String)>,
) {
    // Confirming RMWs on the same atomic, in the condition tail or the
    // then-branch — these are the `kills` for the path query.
    let mut confirms: Vec<usize> = Vec::new();
    let mut t = load_tok + 1;
    while t < br.then_range.1 {
        if let Some(name) = ident(toks, t) {
            if CONFIRMING_RMWS.binary_search(&name).is_ok()
                && punct(toks, t.wrapping_sub(1)) == Some(".")
                && receiver_name(toks, t).as_deref() == Some(atomic)
            {
                let (strong, _) = args_contain(toks, t + 1, &ACQUIRE_OR_STRONGER);
                if strong {
                    confirms.push(t);
                }
            }
        }
        t += 1;
    }
    let reach = f.cfg.reachable_after(load_tok, usize::MAX, &confirms);
    // Side-effecting calls in the then-branch a confirm-free path reaches.
    let (ts, te) = br.then_range;
    let mut e = ts;
    while e < te {
        let Some(name) = ident(toks, e) else {
            e += 1;
            continue;
        };
        // Any call is a side effect here: CLEAN_METHODS deliberately
        // does NOT filter — that list means allocation-free, and a
        // `drain` on a stale gate is exactly the bug.
        if KEYWORDS.contains(&name) || name == "load" || !is_call(toks, e, te) || !reach.contains(e)
        {
            e += 1;
            continue;
        }
        let line = toks[load_tok].line;
        if seen.insert((f.file, line, format!("gate:{atomic}"))) {
            findings.push(Finding {
                file: rel.to_string(),
                line,
                rule: Rule::AtomicProtocol,
                message: format!(
                    "`{atomic}.load(Ordering::Relaxed)` gates `{name}(..)` (line {}) but no \
                     Acquire-or-stronger RMW on `{atomic}` confirms the hint on that path in \
                     `{}` — a stale Relaxed read races the writer; confirm with \
                     `{atomic}.swap(.., Ordering::SeqCst)` in the condition, as the reactor's \
                     dirty pre-check does",
                    toks[e].line, f.display
                ),
                waiver: None,
            });
        }
        return;
    }
}

/// The flag-set-before-kick check: in a function that both writes an
/// atomic and `unpark`s, no path may reach the `unpark` without a
/// Release-or-stronger write first.
fn flag_before_kick_check(
    f: &concurrency::FnData,
    toks: &[Token],
    rel: &str,
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(usize, u32, String)>,
) {
    let (start, end) = f.body;
    let mut kicks: Vec<usize> = Vec::new();
    let mut strong_writes: Vec<usize> = Vec::new();
    let mut any_write = false;
    let mut i = start;
    while i < end.min(toks.len()) {
        if f.cfg.block_of(i).is_none() {
            i += 1;
            continue; // lifted closure bodies are their own functions
        }
        if let Some(name) = ident(toks, i) {
            if name == "unpark" && punct(toks, i.wrapping_sub(1)) == Some(".") {
                kicks.push(i);
            } else if FLAG_WRITES.binary_search(&name).is_ok()
                && punct(toks, i.wrapping_sub(1)) == Some(".")
                && receiver_name(toks, i).is_some()
            {
                any_write = true;
                let (strong, _) = args_contain(toks, i + 1, &RELEASE_OR_STRONGER);
                if strong {
                    strong_writes.push(i);
                }
            }
        }
        i += 1;
    }
    if kicks.is_empty() || !any_write {
        return;
    }
    if start >= end.min(toks.len()) {
        return;
    }
    // Paths from entry that avoid every strong write. (The walk starts
    // after the first body token, which can never be a flag-write
    // method ident — those need a preceding `.`.)
    let unflagged = f.cfg.reachable_after(start, usize::MAX, &strong_writes);
    for &k in &kicks {
        if !unflagged.contains(k) {
            continue;
        }
        let line = toks[k].line;
        if seen.insert((f.file, line, "kick".to_string())) {
            findings.push(Finding {
                file: rel.to_string(),
                line,
                rule: Rule::AtomicProtocol,
                message: format!(
                    "`unpark()` is reachable without a Release-or-stronger flag write before \
                     it in `{}` — the woken thread can observe the flag unset and park again \
                     with work pending; store/swap the readiness flag (SeqCst) before kicking",
                    f.display
                ),
                waiver: None,
            });
        }
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

    #[test]
    fn rmw_and_write_tables_are_sorted() {
        assert!(CONFIRMING_RMWS.windows(2).all(|w| w[0] < w[1]));
        assert!(FLAG_WRITES.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn relaxed_gate_without_confirming_swap_is_flagged() {
        let src = "fn pump(link: &Link) {\n\
             if link.dirty.load(Ordering::Relaxed) {\n\
             flush_batch(link);\n\
             }\n\
             }\n\
             fn flush_batch(link: &Link) { let _ = link; }";
        let f = analyze_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::AtomicProtocol);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("no Acquire-or-stronger RMW"), "{f:?}");
    }

    #[test]
    fn the_reactor_precheck_swap_idiom_is_clean() {
        let src = "fn pump(link: &Link) {\n\
             if link.open && link.dirty.load(Ordering::Relaxed)\n\
             && link.dirty.swap(false, Ordering::SeqCst) {\n\
             flush_batch(link);\n\
             }\n\
             }\n\
             fn flush_batch(link: &Link) { let _ = link; }";
        assert!(analyze_src(src).is_empty(), "{:?}", analyze_src(src));
    }

    #[test]
    fn confirm_in_the_then_branch_covers_only_its_paths() {
        // The confirming swap sits in one arm; the sibling arm's side
        // effect still runs on a stale Relaxed read.
        let src = "fn pump(link: &Link, x: u8) {\n\
             if link.dirty.load(Ordering::Relaxed) {\n\
             match x {\n\
             0 => { if link.dirty.swap(false, Ordering::SeqCst) { flush_batch(link); } }\n\
             _ => flush_batch(link),\n\
             }\n\
             }\n\
             }\n\
             fn flush_batch(link: &Link) { let _ = link; }";
        let f = analyze_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn a_relaxed_confirmation_is_not_a_confirmation() {
        let src = "fn pump(link: &Link) {\n\
             if link.dirty.load(Ordering::Relaxed)\n\
             && link.dirty.swap(false, Ordering::Relaxed) {\n\
             flush_batch(link);\n\
             }\n\
             }\n\
             fn flush_batch(link: &Link) { let _ = link; }";
        let f = analyze_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn negated_relaxed_load_is_advisory_and_exempt() {
        let src = "fn run(shutdown: &AtomicBool) {\n\
             while !shutdown.load(Ordering::Relaxed) {\n\
             step();\n\
             }\n\
             }\n\
             fn step() {}";
        assert!(analyze_src(src).is_empty(), "{:?}", analyze_src(src));
    }

    #[test]
    fn acquire_load_gates_are_exempt() {
        let src = "fn pump(link: &Link) {\n\
             if link.dirty.load(Ordering::Acquire) {\n\
             flush_batch(link);\n\
             }\n\
             }\n\
             fn flush_batch(link: &Link) { let _ = link; }";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn empty_then_branch_has_no_side_effect_to_protect() {
        let src = "fn observe(flag: &AtomicBool, hits: &mut u64) {\n\
             if flag.load(Ordering::Relaxed) { *hits += 1; }\n\
             }";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn kick_without_flag_write_on_some_path_is_flagged() {
        let src = "fn notify(flag: &AtomicBool, thread: &Thread, urgent: bool) {\n\
             if urgent {\n\
             flag.store(true, Ordering::SeqCst);\n\
             }\n\
             thread.unpark();\n\
             }";
        let f = analyze_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("park again"), "{f:?}");
    }

    #[test]
    fn the_kick_coalescing_idiom_is_clean() {
        let src = "fn notify(flag: &AtomicBool, thread: &Thread) {\n\
             if !flag.swap(true, Ordering::SeqCst) {\n\
             thread.unpark();\n\
             }\n\
             }";
        assert!(analyze_src(src).is_empty(), "{:?}", analyze_src(src));
    }

    #[test]
    fn a_relaxed_flag_store_does_not_cover_the_kick() {
        let src = "fn notify(flag: &AtomicBool, thread: &Thread) {\n\
             flag.store(true, Ordering::Relaxed);\n\
             thread.unpark();\n\
             }";
        let f = analyze_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Release-or-stronger"), "{f:?}");
    }

    #[test]
    fn a_pure_kicker_helper_is_the_callers_problem() {
        let src = "fn kick(thread: &Thread) { thread.unpark(); }";
        assert!(analyze_src(src).is_empty());
    }
}

//! `unbounded-growth`: long-lived struct fields that only ever grow.
//!
//! The backpressure-leak shape: a `self.<field>` collection pushed or
//! extended on a path that runs repeatedly — inside a `loop`/`while`/
//! `for` body, or in a function (transitively) called from one — while
//! *nothing in the tree* ever drains, clears, truncates, pops, retains
//! or even measures that field. Such a field is a queue with no
//! consumer: it grows until the process dies, exactly the failure mode
//! the runtime's per-link out-buffers avoid by pairing every `extend`
//! with a drain on flush.
//!
//! The check is name-based on the field (the last identifier of the
//! receiver chain, shared with the lock-attribution rules) and
//! deliberately generous about what counts as a bound: any
//! drain/clear/truncate/pop/remove/retain/take/split_off *or* a
//! `len()`/`is_empty()` observation on the same field name anywhere in
//! the scanned tree kills the finding — a measured queue is assumed to
//! be bounded by whoever measures it. What survives is the
//! pushed-everywhere-drained-nowhere residue.

use crate::callgraph::FileGraphInput;
use crate::concurrency::{self, receiver_ident, Model};
use crate::lex::{Token, TokenKind};
use crate::rules::{Finding, Rule};
use std::collections::BTreeSet;

/// Methods that grow a collection in place. Sorted for binary search.
/// `insert` is deliberately absent: keyed maps overwrite in place and
/// are bounded by their key space far more often than queues are.
const GROW_METHODS: [&str; 6] = [
    "append",
    "extend",
    "extend_from_slice",
    "push",
    "push_back",
    "push_front",
];

/// Methods (and observations) that bound a collection. Sorted.
const BOUND_METHODS: [&str; 12] = [
    "clear",
    "dedup",
    "drain",
    "is_empty",
    "len",
    "pop",
    "pop_front",
    "remove",
    "retain",
    "split_off",
    "take",
    "truncate",
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

/// Chain adapters that return (a borrow of) an interior value of the
/// collection they were called on — skipped when resolving which field
/// actually grows or is drained, so `self.counts.entry(k).or_default()
/// .push_back(v)` attributes to `counts`, not `or_default`. Sorted.
const CHAIN_ADAPTERS: [&str; 13] = [
    "as_deref_mut",
    "as_mut",
    "back_mut",
    "entry",
    "expect",
    "front_mut",
    "get_mut",
    "last_mut",
    "or_default",
    "or_insert",
    "or_insert_with",
    "unwrap",
    "unwrap_or_else",
];

/// The struct field a grow/bound method ultimately addresses: walks the
/// receiver chain, skipping [`CHAIN_ADAPTERS`].
fn resolve_field(toks: &[Token], i: usize) -> Option<String> {
    let mut m = i;
    // Chains are finite; the cap only guards against pathological input.
    for _ in 0..16 {
        let j = receiver_ident(toks, m)?;
        let name = ident(toks, j)?;
        if CHAIN_ADAPTERS.binary_search(&name).is_ok() && j >= 1 && punct(toks, j - 1) == Some(".")
        {
            m = j;
            continue;
        }
        return Some(name.to_string());
    }
    None
}

/// Whether the receiver chain ending at the `.` before method token `i`
/// starts from `self` — the long-lived-struct-field test.
fn chain_starts_at_self(toks: &[Token], i: usize) -> bool {
    if i < 2 {
        return false;
    }
    let mut j = i - 2;
    loop {
        match toks.get(j).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) if s == "self" => return true,
            // A chain continues only through a further `.`.
            Some(TokenKind::Ident(_)) if j >= 2 && punct(toks, j - 1) == Some(".") => j -= 2,
            Some(TokenKind::Ident(_)) => return false,
            Some(TokenKind::Punct(p)) if p == "?" => {
                if j == 0 {
                    return false;
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
                        return false;
                    }
                    j -= 1;
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            _ => return false,
        }
    }
}

/// Runs the unbounded-growth pass standalone (tests); production shares
/// the model via `analyze_model`.
pub fn analyze(files: &[FileGraphInput<'_>]) -> Vec<Finding> {
    let model = concurrency::build_model(files);
    analyze_model(&model, files)
}

pub(crate) fn analyze_model(model: &Model, files: &[FileGraphInput<'_>]) -> Vec<Finding> {
    // Tree-wide bound evidence, by field name. Scanned over the *full*
    // token stream of every file (gated and exempt code included): a
    // drain that exists anywhere disarms the rule in the safe direction.
    let mut bounded: BTreeSet<String> = BTreeSet::new();
    for file in files {
        let toks = file.tokens;
        for i in 0..toks.len() {
            if let Some(name) = ident(toks, i) {
                if BOUND_METHODS.binary_search(&name).is_ok()
                    && punct(toks, i.wrapping_sub(1)) == Some(".")
                    && punct(toks, i + 1) == Some("(")
                {
                    if let Some(field) = resolve_field(toks, i) {
                        bounded.insert(field);
                    }
                }
            }
        }
    }

    // Functions whose bodies re-run: reachable from a call site that
    // sits inside some caller's loop body.
    let loop_called = loop_called_fixpoint(model);

    let mut findings = Vec::new();
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    for f in &model.fns {
        let toks = files[f.file].tokens;
        let rel = files[f.file].rel;
        let fn_loops = loop_called.contains(&f.key);
        let (start, end) = f.body;
        let mut i = start;
        while i < end.min(toks.len()) {
            let Some(name) = ident(toks, i) else {
                i += 1;
                continue;
            };
            if GROW_METHODS.binary_search(&name).is_err()
                || punct(toks, i.wrapping_sub(1)) != Some(".")
                || punct(toks, i + 1) != Some("(")
                || f.cfg.block_of(i).is_none()
                || !chain_starts_at_self(toks, i)
            {
                i += 1;
                continue;
            }
            if !fn_loops && !f.cfg.in_loop(i) {
                i += 1;
                continue;
            }
            let Some(field) = resolve_field(toks, i) else {
                i += 1;
                continue;
            };
            if bounded.contains(&field) {
                i += 1;
                continue;
            }
            if seen.insert((f.file, field.clone())) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: toks[i].line,
                    rule: Rule::UnboundedGrowth,
                    message: format!(
                        "`self.{field}.{name}(..)` runs on a loop-reachable path in `{}` but \
                         nothing in the tree ever drains, clears, truncates or measures \
                         `{field}` — the field grows without bound; pair the producer with a \
                         drain or an explicit cap",
                        f.display
                    ),
                    waiver: None,
                });
            }
            i += 1;
        }
    }
    findings
}

/// Fixpoint of "may execute repeatedly": seeded by callees of call
/// sites inside a loop body, closed over the call graph (a closure
/// defined in a loop re-runs too — its synthetic call site is its
/// definition token).
fn loop_called_fixpoint(model: &Model) -> BTreeSet<concurrency::Key> {
    let mut set: BTreeSet<concurrency::Key> = BTreeSet::new();
    loop {
        let mut changed = false;
        for f in &model.fns {
            let caller_loops = set.contains(&f.key);
            for c in &f.calls {
                if !caller_loops && !f.cfg.in_loop(c.tok()) {
                    continue;
                }
                for k in c.callees() {
                    if set.insert(*k) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    set
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
    fn method_tables_are_sorted_for_binary_search() {
        assert!(GROW_METHODS.windows(2).all(|w| w[0] < w[1]));
        assert!(BOUND_METHODS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn push_in_a_loop_with_no_drain_anywhere_is_flagged() {
        let src = "impl Node {\n\
             fn run(&mut self) {\n\
             loop {\n\
             self.backlog.push(poll());\n\
             }\n\
             }\n\
             }";
        let f = analyze_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnboundedGrowth);
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("backlog"), "{f:?}");
    }

    #[test]
    fn a_drained_sibling_field_is_bounded() {
        let src = "impl Node {\n\
             fn run(&mut self) {\n\
             loop {\n\
             self.backlog.push(poll());\n\
             self.flush();\n\
             }\n\
             }\n\
             fn flush(&mut self) {\n\
             for item in self.backlog.drain(..) { deliver(item); }\n\
             }\n\
             }";
        assert!(analyze_src(src).is_empty(), "{:?}", analyze_src(src));
    }

    #[test]
    fn a_measured_field_counts_as_bounded() {
        let src = "impl Node {\n\
             fn run(&mut self) {\n\
             loop {\n\
             if self.backlog.len() < CAP { self.backlog.push(poll()); }\n\
             }\n\
             }\n\
             }";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn push_in_a_fn_called_from_a_loop_is_loop_reachable() {
        let src = "impl Node {\n\
             fn run(&mut self) {\n\
             loop { self.enqueue(); }\n\
             }\n\
             fn enqueue(&mut self) {\n\
             self.backlog.push(poll());\n\
             }\n\
             }";
        let f = analyze_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn a_one_shot_push_outside_any_loop_is_fine() {
        let src = "impl Node {\n\
             fn seed(&mut self) {\n\
             self.backlog.push(init());\n\
             }\n\
             }";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn local_collections_are_not_long_lived() {
        let src = "fn collect() -> Vec<u32> {\n\
             let mut out = Vec::new();\n\
             loop {\n\
             out.push(poll());\n\
             if done() { break; }\n\
             }\n\
             out\n\
             }";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn nested_field_chains_attribute_to_the_leaf_field() {
        let src = "impl Node {\n\
             fn run(&mut self, i: usize) {\n\
             loop {\n\
             self.links[i].queue.push(poll());\n\
             }\n\
             }\n\
             }";
        let f = analyze_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`self.queue.push"), "{f:?}");
    }

    #[test]
    fn entry_chains_resolve_to_the_underlying_field() {
        // Growth through `.entry(k).or_default()` must attribute to
        // `counts`, which the eviction path's `remove` then bounds.
        let drained = "impl W {\n\
             fn insert(&mut self, k: u64, v: u64) {\n\
             loop {\n\
             self.counts.entry(k).or_default().push_back(v);\n\
             evict(&mut self.counts, k);\n\
             }\n\
             }\n\
             fn evict_one(&mut self, k: u64) { self.counts.remove(&k); }\n\
             }";
        assert!(
            analyze_src(drained).is_empty(),
            "{:?}",
            analyze_src(drained)
        );

        let leaky = "impl W {\n\
             fn insert(&mut self, k: u64, v: u64) {\n\
             loop {\n\
             self.counts.entry(k).or_default().push_back(v);\n\
             }\n\
             }\n\
             }";
        let f = analyze_src(leaky);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`counts`"), "{f:?}");
    }

    #[test]
    fn extend_in_a_closure_defined_in_a_loop_is_loop_reachable() {
        let src = "impl Node {\n\
             fn run(&mut self, xs: &[u32]) {\n\
             loop {\n\
             xs.iter().for_each(|x| { self.backlog.extend_from_slice(&[*x]); });\n\
             }\n\
             }\n\
             }";
        let f = analyze_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("closure"), "{f:?}");
    }
}

//! Item-structure recovery from the token stream.
//!
//! The tree-level passes need to know *which function* a token belongs
//! to, which `impl` block owns that function, and whether the whole thing
//! is compiled out of release builds. A full parser would be overkill —
//! this module recovers exactly that skeleton with a single linear walk
//! over the [`crate::lex`] token stream: a brace-frame stack tracks
//! `impl`, `trait` and `mod` nesting, and `#[cfg(test)]` /
//! `#[cfg(.. feature ..)]` attributes mark items as gated.
//!
//! Known (deliberate) approximations, all conservative for our use:
//!
//! - `fn` items nested inside another `fn` body stay part of the outer
//!   body's token range, so their calls are attributed to the outer
//!   function (over-approximates reachability).
//! - Any `cfg` attribute mentioning `test` or `feature` counts as gated —
//!   gated functions are excluded from call resolution, so a call never
//!   resolves to code that may not exist in a release build.

use crate::lex::{Scan, Token, TokenKind};

/// One `fn` item recovered from a file's token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name (`Window` in `impl Window` or
    /// `impl Probe for Window`); `None` for free functions.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, exclusive of its braces; `None` for
    /// bodyless signatures (trait methods, extern decls).
    pub body: Option<(usize, usize)>,
    /// Compiled out of release builds (`#[cfg(test)]`, feature gates, or
    /// inside a gated `mod`/`impl`) — excluded from call resolution.
    pub gated: bool,
}

impl FnItem {
    /// `Owner::name` for methods, bare `name` for free functions — the
    /// form used in findings.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Items recovered from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
}

/// A brace-delimited region and what it means for the items inside it.
struct Frame {
    owner: Option<String>,
    gated: bool,
    fn_idx: Option<usize>,
}

/// Item header seen but its `{` (or terminating `;`) not reached yet.
enum Pending {
    None,
    Impl { owner: Option<String>, gated: bool },
    Mod { gated: bool },
    Fn { idx: usize },
}

fn punct(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct(p)) => Some(p.as_str()),
        _ => None,
    }
}

/// Recovers the `fn`/`impl`/`mod` skeleton of one scanned file.
pub fn parse_items(scan: &Scan) -> FileItems {
    let toks = &scan.tokens;
    let mut items = FileItems::default();
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending = Pending::None;
    let mut attr_gated = false;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct(p) => match p.as_str() {
                "#" if punct(toks, i + 1) == Some("[") => {
                    let (gated, next) = scan_attr(toks, i + 1);
                    attr_gated |= gated;
                    i = next;
                    continue;
                }
                "{" => {
                    let frame = match std::mem::replace(&mut pending, Pending::None) {
                        Pending::Impl { owner, gated } => Frame {
                            owner,
                            gated,
                            fn_idx: None,
                        },
                        Pending::Mod { gated } => Frame {
                            owner: None,
                            gated,
                            fn_idx: None,
                        },
                        Pending::Fn { idx } => {
                            items.fns[idx].body = Some((i + 1, toks.len()));
                            Frame {
                                owner: None,
                                gated: false,
                                fn_idx: Some(idx),
                            }
                        }
                        Pending::None => Frame {
                            owner: None,
                            gated: false,
                            fn_idx: None,
                        },
                    };
                    stack.push(frame);
                }
                "}" => {
                    if let Some(f) = stack.pop() {
                        if let Some(idx) = f.fn_idx {
                            if let Some((s, _)) = items.fns[idx].body {
                                items.fns[idx].body = Some((s, i));
                            }
                        }
                    }
                }
                ";" => pending = Pending::None,
                _ => {}
            },
            TokenKind::Ident(kw) => {
                let in_fn_body = stack.iter().any(|f| f.fn_idx.is_some());
                match kw.as_str() {
                    "fn" if matches!(pending, Pending::None) => {
                        if let Some(TokenKind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                            let gated = attr_gated || stack.iter().any(|f| f.gated);
                            let owner = stack.iter().rev().find_map(|f| f.owner.clone());
                            items.fns.push(FnItem {
                                name: name.clone(),
                                owner,
                                line: toks[i].line,
                                body: None,
                                gated,
                            });
                            pending = Pending::Fn {
                                idx: items.fns.len() - 1,
                            };
                            attr_gated = false;
                            i += 2;
                            continue;
                        }
                        // `fn(..)` pointer type, not an item.
                        attr_gated = false;
                    }
                    "impl"
                        if matches!(pending, Pending::None)
                            && !in_fn_body
                            && at_item_position(toks, i) =>
                    {
                        pending = Pending::Impl {
                            owner: impl_owner(toks, i + 1),
                            gated: attr_gated,
                        };
                        attr_gated = false;
                    }
                    "trait"
                        if matches!(pending, Pending::None)
                            && !in_fn_body
                            && at_item_position(toks, i) =>
                    {
                        // Default methods in a trait body get the trait as
                        // their owner.
                        let owner = match toks.get(i + 1).map(|t| &t.kind) {
                            Some(TokenKind::Ident(n)) => Some(n.clone()),
                            _ => None,
                        };
                        pending = Pending::Impl {
                            owner,
                            gated: attr_gated,
                        };
                        attr_gated = false;
                    }
                    "mod" if matches!(pending, Pending::None) && !in_fn_body => {
                        pending = Pending::Mod { gated: attr_gated };
                        attr_gated = false;
                    }
                    "struct" | "enum" | "union" | "use" | "static" | "type" | "macro_rules" => {
                        // The pending attribute belonged to an item kind we
                        // don't analyze.
                        attr_gated = false;
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Close bodies left open by unbalanced input (best-effort lexing).
    for f in &mut items.fns {
        if let Some((s, e)) = f.body {
            if e > toks.len() {
                f.body = Some((s, toks.len()));
            }
        }
    }
    items
}

/// Scans an outer attribute starting at its `[` token. Returns whether it
/// is a `cfg` gate mentioning `test` or `feature`, plus the index just
/// past the closing `]`.
fn scan_attr(toks: &[Token], open: usize) -> (bool, usize) {
    let mut depth = 0i32;
    let mut has_cfg = false;
    let mut has_gate = false;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct(p) if p == "[" => depth += 1,
            TokenKind::Punct(p) if p == "]" => {
                depth -= 1;
                if depth == 0 {
                    return (has_cfg && has_gate, i + 1);
                }
            }
            TokenKind::Ident(s) if s == "cfg" => has_cfg = true,
            TokenKind::Ident(s) if s == "test" || s == "feature" => has_gate = true,
            _ => {}
        }
        i += 1;
    }
    (has_cfg && has_gate, i)
}

/// `impl`/`trait` only start an item at item position — this rules out
/// `-> impl Trait` return types and `x: impl Trait` argument positions.
fn at_item_position(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    match &toks[i - 1].kind {
        TokenKind::Punct(p) => matches!(p.as_str(), "{" | "}" | ";" | "]" | ")"),
        TokenKind::Ident(s) => matches!(s.as_str(), "pub" | "unsafe" | "default"),
        _ => false,
    }
}

/// The `Self` type name of an `impl` header: the last path segment at
/// angle-bracket depth zero before the body opens, taking the side after
/// `for` when present (`impl Probe for Window` → `Window`).
fn impl_owner(toks: &[Token], mut i: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut last: Option<String> = None;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct(p) => match p.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => break,
                ";" => break,
                _ => {}
            },
            TokenKind::Ident(s) if angle == 0 => match s.as_str() {
                "where" => break,
                "for" => last = None,
                _ => last = Some(s.clone()),
            },
            _ => {}
        }
        i += 1;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn parse(src: &str) -> FileItems {
        parse_items(&lex::scan(src))
    }

    #[test]
    fn recovers_free_and_impl_fns() {
        let src = "fn free() { a(); }\nstruct W;\nimpl W { fn m(&self) {} }\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].name, "free");
        assert_eq!(items.fns[0].owner, None);
        assert!(items.fns[0].body.is_some());
        assert_eq!(items.fns[1].display(), "W::m");
    }

    #[test]
    fn trait_impls_attribute_to_the_self_type() {
        let src = "impl Probe for Window { fn probe(&self) {} }";
        let items = parse(src);
        assert_eq!(items.fns[0].display(), "Window::probe");
    }

    #[test]
    fn generic_impl_headers_resolve_the_base_name() {
        let src = "impl<'a, T: Ord> Holder<'a, T> where T: Copy { fn get(&self) {} }";
        let items = parse(src);
        assert_eq!(items.fns[0].display(), "Holder::get");
    }

    #[test]
    fn cfg_gates_mark_fns_gated() {
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\n\
                   #[cfg(any(test, feature = \"reference\"))]\nfn gated() {}\nfn live() {}";
        let items = parse(src);
        let by_name = |n: &str| items.fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("t").gated);
        assert!(by_name("gated").gated);
        assert!(!by_name("live").gated);
    }

    #[test]
    fn return_position_impl_is_not_an_item() {
        let src = "fn f() -> impl Iterator<Item = u32> { (0..3) }\nfn g(x: impl Copy) {}";
        let items = parse(src);
        assert_eq!(items.fns.len(), 2);
        assert!(items.fns.iter().all(|f| f.owner.is_none()));
    }

    #[test]
    fn trait_signatures_have_no_body() {
        let src = "trait T { fn sig(&self); fn with_default(&self) { self.sig() } }";
        let items = parse(src);
        assert_eq!(items.fns[0].name, "sig");
        assert!(items.fns[0].body.is_none());
        assert_eq!(items.fns[1].name, "with_default");
        assert!(items.fns[1].body.is_some());
    }

    #[test]
    fn body_ranges_cover_exactly_the_braced_tokens() {
        let src = "fn f() { inner() }\nfn g() {}";
        let items = parse(src);
        let toks = lex::scan(src).tokens;
        let (s, e) = items.fns[0].body.unwrap();
        let names: Vec<_> = toks[s..e]
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["inner"]);
        let (s2, e2) = items.fns[1].body.unwrap();
        assert_eq!(s2, e2);
    }
}

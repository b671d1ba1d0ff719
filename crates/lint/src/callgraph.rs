//! Call-site vocabulary shared by the tree-level passes
//! ([`crate::concurrency`], [`crate::atomics`], [`crate::growth`]): what
//! one scanned file looks like to them, which identifiers can never head
//! a call, and which method names are taken as std rather than resolved
//! by name into the workspace.

use crate::lex::{Token, TokenKind};
use crate::parse::FileItems;

/// One scanned file, as the tree-level passes need it.
#[derive(Debug)]
pub struct FileGraphInput<'a> {
    /// Workspace-relative path (as reported in findings).
    pub rel: &'a str,
    /// The file's code tokens.
    pub tokens: &'a [Token],
    /// Recovered `fn` items.
    pub items: &'a FileItems,
    /// Test/bench/example code — excluded from the analyses entirely.
    pub exempt: bool,
}

/// Rust keywords — never call heads, even when followed by `(`
/// (`for (i, x) in ..`, `let (a, b) = ..`, `match (x) {..}`).
pub(crate) const KEYWORDS: [&str; 36] = [
    "Self", "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

/// Std/`rand` method names that a non-`self` method call is taken to
/// mean: resolving `.map(..)` or `.take(..)` by name union would drag
/// unrelated workspace functions that share a common iterator-style name
/// into every lock and counter summary. Sorted — looked up by binary
/// search.
pub(crate) const CLEAN_METHODS: [&str; 139] = [
    "abs",
    "all",
    "and_then",
    "any",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_slices",
    "as_str",
    "back",
    "ceil",
    "chain",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "clamp",
    "clear",
    "cmp",
    "contains",
    "copied",
    "copy_from_slice",
    "cos",
    "count",
    "count_ones",
    "dedup",
    "default",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "exp",
    "extend",
    "fetch_add",
    "fetch_sub",
    "fill",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fold",
    "from",
    "from_bits",
    "front",
    "gen",
    "gen_bool",
    "gen_range",
    "get",
    "get_mut",
    "hypot",
    "is_empty",
    "is_finite",
    "is_nan",
    "is_none",
    "is_none_or",
    "is_ok",
    "is_some",
    "is_some_and",
    "iter",
    "iter_mut",
    "keys",
    "last",
    "leading_zeros",
    "len",
    "ln",
    "log2",
    "map",
    "map_or",
    "map_or_else",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "mul_add",
    "ne",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "partial_cmp",
    "partition_point",
    "pop",
    "pop_back",
    "pop_front",
    "position",
    "pow",
    "powf",
    "powi",
    "push",
    "push_back",
    "push_front",
    "recip",
    "rem_euclid",
    "remove",
    "resize",
    "rev",
    "rotate_left",
    "rotate_right",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "seed_from_u64",
    "signum",
    "sin",
    "sin_cos",
    "skip",
    "sort_unstable",
    "sort_unstable_by",
    "split_at",
    "sqrt",
    "sum",
    "swap",
    "take",
    "then",
    "then_some",
    "to_bits",
    "total_cmp",
    "trailing_zeros",
    "truncate",
    "try_from",
    "try_into",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "windows",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "zip",
];

fn punct(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct(p)) => Some(p.as_str()),
        _ => None,
    }
}

/// `true` when the identifier at `i` heads a call: followed by `(`
/// directly or through a `::<..>` turbofish.
pub(crate) fn is_call(toks: &[Token], i: usize, limit: usize) -> bool {
    match punct(toks, i + 1) {
        Some("(") => true,
        Some("::") if punct(toks, i + 2) == Some("<") => {
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < limit.min(toks.len()) {
                match punct(toks, j) {
                    Some("<") => depth += 1,
                    Some(">") => {
                        depth -= 1;
                        if depth == 0 {
                            return punct(toks, j + 1) == Some("(");
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            false
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_methods_is_sorted_for_binary_search() {
        assert!(CLEAN_METHODS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let toks = crate::lex::scan("v.iter().sum::<f64>(); v.len; T::<u8>::X").tokens;
        let heads_call = |name: &str| {
            let i = toks
                .iter()
                .position(|t| matches!(&t.kind, TokenKind::Ident(s) if s == name))
                .expect("identifier present");
            is_call(&toks, i, toks.len())
        };
        assert!(heads_call("iter"));
        assert!(heads_call("sum"));
        assert!(!heads_call("len"));
        assert!(!heads_call("T"));
    }
}

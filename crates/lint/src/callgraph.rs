//! Intra-workspace call-graph construction and the transitive `hot-path`
//! rule family.
//!
//! Starting from analysis roots — functions carrying a
//! `// dsj-lint: hot-path` marker, plus the configured
//! [`HOT_PATH_ROOTS`] list in workspace mode — this pass walks the
//! transitive callee set *within the workspace* and flags every reachable
//! construct that would break the per-tuple hot-path invariants:
//!
//! - **`hot-path-alloc`** — heap allocation (`vec![]`, `format!`,
//!   `Vec::new`, `Box::new`, `.clone()`, `.collect()`, `.to_vec()`, ...);
//! - **`hot-path-panic`** — `.unwrap()`/`.expect()`/`panic!` and friends,
//!   *transitively* (a hot function calling a cold helper that unwraps is
//!   flagged at the helper's call-free construct site);
//! - **`hot-path-nondet`** — unseeded RNGs, `HashMap`/`HashSet`
//!   iteration order, wall clocks;
//! - **`hot-path-opaque-call`** — a call the resolver cannot follow
//!   (trait object, closure, unknown std method). Conservative by design:
//!   every opaque call must either be made resolvable or waived with
//!   `// dsj-lint: allow(hot-path-opaque-call) — <why it is clean>`.
//!
//! Call resolution is name-based and deliberately over-approximate:
//! `Type::method` and `Self::method` resolve exactly; `self.method(..)`
//! prefers the enclosing `impl`; any other `.method(..)` resolves to the
//! *union* of workspace functions with that name (every candidate is
//! analyzed). A small allowlist of std methods that neither allocate,
//! panic, nor introduce nondeterminism (`CLEAN_METHODS`) keeps the
//! opaque-call noise floor at zero; growth-amortized container calls
//! (`push`, `extend`, `resize`, `entry().or_default()`) are allowlisted
//! under the scratch-reuse policy documented in DESIGN.md §6.
//!
//! An `allow(hot-path-opaque-call)` pragma on a *resolvable* call line
//! additionally **cuts** the edge: the callee is not traversed and the
//! cut is reported as a (waived) opaque-call finding, so deliberate
//! cold-path escapes (`self.recompute()`, summary shipping) stay visible
//! in every waiver audit.

use crate::lex::{Token, TokenKind};
use crate::parse::FileItems;
use crate::rules::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Where the configured root list lives — findings about the list itself
/// (e.g. a root that no longer resolves) point here.
pub const ROOTS_FILE: &str = "crates/lint/src/callgraph.rs";

/// The per-tuple hot-path roots enforced in workspace mode, as
/// `Owner::name` (or bare `name` for free functions). Every entry must
/// resolve to at least one ungated workspace function; a rename that
/// orphans an entry is itself a finding.
pub const HOT_PATH_ROOTS: [&str; 10] = [
    "JoinNode::handle_arrival_into",
    "NodeEngine::on_arrival",
    "NodeEngine::on_frame",
    "PointDft::add",
    "RoundRobin::pick_into",
    "Router::route_into",
    "SlidingDft::push",
    "SlidingWindow::insert",
    "forwarding_probabilities_into",
    "sample_recipients_into",
];

/// One scanned file, as the call-graph pass needs it.
#[derive(Debug)]
pub struct FileGraphInput<'a> {
    /// Workspace-relative path (as reported in findings).
    pub rel: &'a str,
    /// The file's code tokens.
    pub tokens: &'a [Token],
    /// Recovered `fn` items.
    pub items: &'a FileItems,
    /// Test/bench/example code — excluded from the graph entirely.
    pub exempt: bool,
    /// Lines carrying an `allow(hot-path-opaque-call)` pragma: resolvable
    /// calls on these lines (or the line below) are cut instead of
    /// traversed.
    pub cut_lines: Vec<u32>,
}

/// Macros that unconditionally panic.
const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// Macros that allocate or format on every expansion.
const ALLOC_MACROS: [&str; 8] = [
    "vec", "format", "println", "print", "eprintln", "eprint", "write", "writeln",
];

/// Macros that are safe on the hot path (contract checks evaluate their
/// arguments, which are still scanned as part of the enclosing body).
const CLEAN_MACROS: [&str; 8] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "cfg",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "matches",
];

/// Method names that always heap-allocate a fresh owner.
const ALLOC_METHODS: [&str; 9] = [
    "clone",
    "collect",
    "concat",
    "into_boxed_slice",
    "into_owned",
    "join",
    "repeat",
    "to_owned",
    "to_vec",
];

/// Qualifiers whose associated constructors build owning containers.
const ALLOC_TYPES: [&str; 12] = [
    "Arc",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Box",
    "CString",
    "OsString",
    "PathBuf",
    "Rc",
    "String",
    "Vec",
    "VecDeque",
];

/// Calls that construct nondeterministically-seeded state.
const NONDET_CALLS: [&str; 3] = ["from_entropy", "from_os_rng", "thread_rng"];

/// Rust keywords — never call heads, even when followed by `(`
/// (`for (i, x) in ..`, `let (a, b) = ..`, `match (x) {..}`).
pub(crate) const KEYWORDS: [&str; 36] = [
    "Self", "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

/// Primitive qualifiers: `u64::from`, `f64::from_bits` and friends are
/// pure conversions.
const PRIM_TYPES: [&str; 17] = [
    "bool", "char", "f32", "f64", "i128", "i16", "i32", "i64", "i8", "isize", "str", "u128", "u16",
    "u32", "u64", "u8", "usize",
];

/// Std/`rand` methods known not to allocate, panic, or branch on
/// nondeterminism — consulted only for calls the workspace resolver could
/// not follow. Growth-amortized container calls (`push`, `extend`,
/// `resize`, `entry`/`or_default`, `remove`) are included under the
/// scratch-reuse policy (DESIGN.md §6): hot-path buffers are reused
/// across tuples, so steady-state growth is zero. Sorted — looked up by
/// binary search.
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

/// A function in the cross-file graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FnId {
    file: usize,
    item: usize,
}

/// Name-resolution tables over every ungated, non-exempt workspace `fn`.
struct Graph {
    by_qual: BTreeMap<(String, String), Vec<FnId>>,
    by_name: BTreeMap<String, Vec<FnId>>,
    free_by_name: BTreeMap<String, Vec<FnId>>,
}

/// How a call site names its callee.
enum Shape {
    /// `recv.name(..)`; `self_recv` when the receiver is literally `self`.
    Method { self_recv: bool },
    /// `Qualifier::name(..)`.
    Qualified(String),
    /// `name(..)`.
    Bare,
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

/// Runs the hot-path pass over the scanned files. When
/// `require_builtin_roots` is set (workspace mode), every entry of
/// [`HOT_PATH_ROOTS`] must resolve, and the resolved functions join the
/// marker-derived root set.
pub fn analyze(files: &[FileGraphInput<'_>], require_builtin_roots: bool) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    let mut graph = Graph {
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
            let id = FnId { file: fi, item: ii };
            match &item.owner {
                Some(owner) => graph
                    .by_qual
                    .entry((owner.clone(), item.name.clone()))
                    .or_default()
                    .push(id),
                None => graph
                    .free_by_name
                    .entry(item.name.clone())
                    .or_default()
                    .push(id),
            }
            graph.by_name.entry(item.name.clone()).or_default().push(id);
        }
    }

    let mut roots: Vec<FnId> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (ii, item) in f.items.fns.iter().enumerate() {
            if !item.hot_marker {
                continue;
            }
            let misuse = if f.exempt {
                Some("exempt (test/bench/example) code is never analyzed")
            } else if item.gated {
                Some("cfg-gated code is excluded from release builds")
            } else if item.body.is_none() {
                Some("a bodyless signature cannot be analyzed")
            } else {
                None
            };
            if let Some(why) = misuse {
                findings.push(pragma_finding(
                    f.rel,
                    item.line,
                    format!(
                        "hot-path marker on `{}` has no effect — {why}",
                        item.display()
                    ),
                ));
            } else {
                roots.push(FnId { file: fi, item: ii });
            }
        }
    }
    if require_builtin_roots {
        for spec in HOT_PATH_ROOTS {
            let ids = match spec.split_once("::") {
                Some((owner, name)) => graph.by_qual.get(&(owner.to_string(), name.to_string())),
                None => graph.free_by_name.get(spec),
            };
            match ids {
                Some(ids) if !ids.is_empty() => {
                    for id in ids {
                        if !roots.contains(id) {
                            roots.push(*id);
                        }
                    }
                }
                _ => findings.push(pragma_finding(
                    ROOTS_FILE,
                    1,
                    format!(
                        "configured hot-path root `{spec}` no longer resolves to an ungated \
                         workspace fn — update HOT_PATH_ROOTS if it was renamed or gated"
                    ),
                )),
            }
        }
    }

    // Breadth-first over call edges; each function is scanned once, under
    // the first root that reaches it.
    let mut root_of: BTreeMap<FnId, String> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for id in roots {
        root_of.entry(id).or_insert_with(|| {
            queue.push_back(id);
            files[id.file].items.fns[id.item].display()
        });
    }
    let mut seen: BTreeSet<(String, u32, Rule, String)> = BTreeSet::new();
    while let Some(id) = queue.pop_front() {
        let Some(root) = root_of.get(&id).cloned() else {
            continue;
        };
        let mut edges: Vec<FnId> = Vec::new();
        scan_fn(
            files,
            &graph,
            id,
            &root,
            &mut findings,
            &mut seen,
            &mut edges,
        );
        for callee in edges {
            root_of.entry(callee).or_insert_with(|| {
                queue.push_back(callee);
                root.clone()
            });
        }
    }
    findings
}

fn pragma_finding(file: &str, line: u32, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule: Rule::Pragma,
        message,
        waiver: None,
    }
}

/// Scans one function body: emits hot-path findings and collects resolved
/// call edges (unless cut by a pragma).
#[allow(clippy::too_many_arguments)]
fn scan_fn(
    files: &[FileGraphInput<'_>],
    graph: &Graph,
    id: FnId,
    root: &str,
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(String, u32, Rule, String)>,
    edges: &mut Vec<FnId>,
) {
    let file = &files[id.file];
    let item = &file.items.fns[id.item];
    let Some((start, end)) = item.body else {
        return;
    };
    let toks = file.tokens;
    let display = item.display();
    let ctx = if display == root {
        format!("in hot-path root `{root}`")
    } else {
        format!("in `{display}` (reachable from hot-path root `{root}`)")
    };
    let mut emit = |line: u32, rule: Rule, key: &str, message: String| {
        if seen.insert((file.rel.to_string(), line, rule, key.to_string())) {
            findings.push(Finding {
                file: file.rel.to_string(),
                line,
                rule,
                message,
                waiver: None,
            });
        }
    };
    let is_cut = |line: u32| file.cut_lines.iter().any(|&l| l == line || l + 1 == line);

    let mut i = start;
    while i < end.min(toks.len()) {
        let Some(name) = ident(toks, i) else {
            i += 1;
            continue;
        };
        if KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        let line = toks[i].line;

        // Macro invocation: `name!(..)`, `name![..]`, `name!{..}`.
        if punct(toks, i + 1) == Some("!")
            && matches!(punct(toks, i + 2), Some("(") | Some("[") | Some("{"))
        {
            if PANIC_MACROS.contains(&name) {
                emit(
                    line,
                    Rule::HotPathPanic,
                    name,
                    format!("`{name}!` {ctx} — a per-tuple panic kills the node thread"),
                );
            } else if ALLOC_MACROS.contains(&name) {
                emit(
                    line,
                    Rule::HotPathAlloc,
                    name,
                    format!("`{name}!` {ctx} — allocates/formats on every tuple"),
                );
            } else if !CLEAN_MACROS.contains(&name) {
                emit(
                    line,
                    Rule::HotPathOpaque,
                    name,
                    format!(
                        "macro `{name}!` {ctx} cannot be analyzed — waive with \
                         `allow(hot-path-opaque-call)` if its expansion is allocation- and \
                         panic-free"
                    ),
                );
            }
            i += 2;
            continue;
        }

        // Nondeterminism visible from a bare identifier.
        match name {
            "HashMap" | "HashSet" => emit(
                line,
                Rule::HotPathNondet,
                name,
                format!("`{name}` {ctx} — iteration order varies per process"),
            ),
            "OsRng" | "thread_rng" | "from_entropy" | "from_os_rng" => emit(
                line,
                Rule::HotPathNondet,
                name,
                format!("`{name}` {ctx} — unseeded randomness breaks replay"),
            ),
            "SystemTime" => emit(
                line,
                Rule::HotPathNondet,
                name,
                format!("`SystemTime` {ctx} — wall clocks must not reach the hot path"),
            ),
            _ => {}
        }

        if !is_call(toks, i, end) {
            i += 1;
            continue;
        }
        let shape = match punct(toks, i.wrapping_sub(1)) {
            Some(".") if i >= 1 => Shape::Method {
                self_recv: i >= 2 && ident(toks, i - 2) == Some("self"),
            },
            Some("::") if i >= 1 => match (i >= 2).then(|| ident(toks, i - 2)).flatten() {
                Some(q) => Shape::Qualified(q.to_string()),
                None => Shape::Method { self_recv: false },
            },
            _ => Shape::Bare,
        };

        if matches!(name, "unwrap" | "expect")
            && matches!(shape, Shape::Method { .. } | Shape::Qualified(_))
        {
            emit(
                line,
                Rule::HotPathPanic,
                name,
                format!("`.{name}(..)` {ctx} — a poisoned tuple would crash the node"),
            );
            i += 1;
            continue;
        }
        if matches!(shape, Shape::Method { .. }) && ALLOC_METHODS.contains(&name) {
            emit(
                line,
                Rule::HotPathAlloc,
                name,
                format!("`.{name}()` {ctx} — per-tuple heap allocation; reuse a scratch buffer"),
            );
            i += 1;
            continue;
        }
        if let Shape::Qualified(q) = &shape {
            if ALLOC_TYPES.contains(&q.as_str()) {
                emit(
                    line,
                    Rule::HotPathAlloc,
                    name,
                    format!("`{q}::{name}` {ctx} — constructs an owning container per tuple"),
                );
                i += 1;
                continue;
            }
            if (q == "Instant" || q == "SystemTime") && name == "now" {
                emit(
                    line,
                    Rule::HotPathNondet,
                    name,
                    format!("`{q}::now` {ctx} — wall clocks must not reach the hot path"),
                );
                i += 1;
                continue;
            }
        }
        if NONDET_CALLS.contains(&name) {
            // Already reported by the bare-identifier check above.
            i += 1;
            continue;
        }

        // A non-`self` method call whose name is an allowlisted std method
        // is taken as std: resolving it by name union would drag unrelated
        // workspace functions that happen to share a common iterator-style
        // name (`map`, `take`, ...) into the hot graph.
        if matches!(shape, Shape::Method { self_recv: false })
            && CLEAN_METHODS.binary_search(&name).is_ok()
        {
            i += 1;
            continue;
        }

        // Workspace resolution.
        let callees: &[FnId] = match &shape {
            Shape::Qualified(q) if q == "Self" => item
                .owner
                .as_ref()
                .and_then(|o| graph.by_qual.get(&(o.clone(), name.to_string())))
                .map_or(&[], Vec::as_slice),
            Shape::Qualified(q) => graph
                .by_qual
                .get(&(q.clone(), name.to_string()))
                .map_or(&[], Vec::as_slice),
            Shape::Method { self_recv: true } => item
                .owner
                .as_ref()
                .and_then(|o| graph.by_qual.get(&(o.clone(), name.to_string())))
                .or_else(|| graph.by_name.get(name))
                .map_or(&[], Vec::as_slice),
            Shape::Method { self_recv: false } => {
                graph.by_name.get(name).map_or(&[], Vec::as_slice)
            }
            Shape::Bare => graph.free_by_name.get(name).map_or(&[], Vec::as_slice),
        };

        if !callees.is_empty() {
            if is_cut(line) {
                emit(
                    line,
                    Rule::HotPathOpaque,
                    name,
                    format!("call to `{name}` {ctx} deliberately cut from traversal"),
                );
            } else {
                edges.extend_from_slice(callees);
            }
            i += 1;
            continue;
        }

        // Unresolved: allowlisted std call, constructor, or opaque.
        let clean = CLEAN_METHODS.binary_search(&name).is_ok()
            || matches!(&shape, Shape::Qualified(q) if PRIM_TYPES.contains(&q.as_str()))
            || name.starts_with(|c: char| c.is_ascii_uppercase());
        if !clean {
            emit(
                line,
                Rule::HotPathOpaque,
                name,
                format!(
                    "cannot resolve `{name}(..)` {ctx} — make it resolvable or waive with \
                     `// dsj-lint: allow(hot-path-opaque-call) — <why it is clean>`"
                ),
            );
        }
        i += 1;
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
    use crate::lex;
    use crate::parse::parse_items;

    fn analyze_src(src: &str) -> Vec<Finding> {
        let scan = lex::scan(src);
        let items = parse_items(&scan);
        let cut_lines = crate::rules::parse_pragmas("a.rs", &scan.comments)
            .0
            .into_iter()
            .filter(|p| p.rule == Rule::HotPathOpaque)
            .map(|p| p.line)
            .collect();
        let input = FileGraphInput {
            rel: "a.rs",
            tokens: &scan.tokens,
            items: &items,
            exempt: false,
            cut_lines,
        };
        analyze(&[input], false)
    }

    #[test]
    fn clean_methods_is_sorted_for_binary_search() {
        assert!(CLEAN_METHODS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn direct_alloc_in_root_is_flagged() {
        let f = analyze_src("// dsj-lint: hot-path\nfn hot() { let v = vec![1]; }");
        assert!(f.iter().any(|x| x.rule == Rule::HotPathAlloc), "{f:?}");
    }

    #[test]
    fn transitive_alloc_two_calls_deep_is_flagged() {
        let src = "// dsj-lint: hot-path\nfn hot() { mid(); }\n\
                   fn mid() { leaf(); }\n\
                   fn leaf() -> Vec<u32> { Vec::new() }";
        let f = analyze_src(src);
        let alloc: Vec<_> = f.iter().filter(|x| x.rule == Rule::HotPathAlloc).collect();
        assert_eq!(alloc.len(), 1, "{f:?}");
        assert_eq!(alloc[0].line, 4);
        assert!(alloc[0].message.contains("hot-path root `hot`"));
    }

    #[test]
    fn transitive_unwrap_through_a_method_is_flagged() {
        let src = "// dsj-lint: hot-path\nfn hot(w: W) { w.helper(); }\n\
                   struct W;\nimpl W { fn helper(&self) { None::<u32>.unwrap(); } }";
        let f = analyze_src(src);
        assert!(f.iter().any(|x| x.rule == Rule::HotPathPanic), "{f:?}");
    }

    #[test]
    fn unresolved_call_is_opaque_and_waivable() {
        let unwaived = analyze_src("// dsj-lint: hot-path\nfn hot() { mystery(); }");
        assert!(
            unwaived.iter().any(|x| x.rule == Rule::HotPathOpaque),
            "{unwaived:?}"
        );
        // Constructors and allowlisted std calls are not opaque.
        let ctor = analyze_src("// dsj-lint: hot-path\nfn hot() -> Option<u32> { Some(1) }");
        assert!(ctor.is_empty(), "{ctor:?}");
        let clean = analyze_src("// dsj-lint: hot-path\nfn hot(v: &[u32]) -> usize { v.len() }");
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn cut_pragma_stops_traversal_but_stays_visible() {
        let src = "// dsj-lint: hot-path\nfn hot() {\n    \
                   cold(); // dsj-lint: allow(hot-path-opaque-call) — cold path\n}\n\
                   fn cold() { let v = vec![1]; }";
        let f = analyze_src(src);
        // The allocation behind the cut is NOT reported...
        assert!(!f.iter().any(|x| x.rule == Rule::HotPathAlloc), "{f:?}");
        // ...but the cut itself is, as an opaque-call finding on the
        // pragma's line (waived later by the waiver pass).
        let opaque: Vec<_> = f.iter().filter(|x| x.rule == Rule::HotPathOpaque).collect();
        assert_eq!(opaque.len(), 1, "{f:?}");
        assert_eq!(opaque[0].line, 3);
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let f =
            analyze_src("// dsj-lint: hot-path\nfn hot(v: &[f64]) { v.iter().mystery::<f64>(); }");
        assert!(f.iter().any(|x| x.rule == Rule::HotPathOpaque), "{f:?}");
        let clean = analyze_src(
            "// dsj-lint: hot-path\nfn hot(v: &[f64]) -> f64 { v.iter().sum::<f64>() }",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn nondet_sources_are_flagged_transitively() {
        let src = "// dsj-lint: hot-path\nfn hot() { helper(); }\n\
                   fn helper() { let r = rand::thread_rng(); }";
        let f = analyze_src(src);
        assert!(f.iter().any(|x| x.rule == Rule::HotPathNondet), "{f:?}");
    }

    #[test]
    fn gated_fns_are_not_resolvable() {
        let src = "// dsj-lint: hot-path\nfn hot() { gated(); }\n\
                   #[cfg(test)]\nfn gated() { let v = vec![1]; }";
        let f = analyze_src(src);
        // The call cannot resolve into gated code: opaque, not alloc.
        assert!(f.iter().any(|x| x.rule == Rule::HotPathOpaque), "{f:?}");
        assert!(!f.iter().any(|x| x.rule == Rule::HotPathAlloc), "{f:?}");
    }

    #[test]
    fn marker_misuse_is_a_pragma_finding() {
        let f = analyze_src("// dsj-lint: hot-path\n#[cfg(test)]\nfn gated() {}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::Pragma);
        assert!(f[0].message.contains("no effect"), "{f:?}");
    }

    #[test]
    fn missing_builtin_root_is_reported_in_workspace_mode() {
        let scan = lex::scan("fn unrelated() {}");
        let items = parse_items(&scan);
        let input = FileGraphInput {
            rel: "a.rs",
            tokens: &scan.tokens,
            items: &items,
            exempt: false,
            cut_lines: Vec::new(),
        };
        let f = analyze(&[input], true);
        assert_eq!(f.len(), HOT_PATH_ROOTS.len(), "{f:?}");
        assert!(f
            .iter()
            .all(|x| x.rule == Rule::Pragma && x.file == ROOTS_FILE));
    }
}

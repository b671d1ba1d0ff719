//! The repo-specific rule passes and the waiver-pragma machinery.

use crate::lex::{self, Comment, Token, TokenKind};
use std::fmt;

/// Every rule `dsj-lint` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `.unwrap()` / `.expect(..)` / `panic!` / `todo!` / `unimplemented!`
    /// in library code (tests, benches and examples are exempt).
    Panic,
    /// `HashMap`/`HashSet` in a deterministic path — their iteration order
    /// varies run to run, which breaks byte-identical reproduction.
    HashIter,
    /// `Instant::now` / `SystemTime` outside the allowlisted timing
    /// modules — wall clocks must never leak into simulated results.
    WallClock,
    /// Unseeded RNG construction (`thread_rng`, `from_entropy`, `OsRng`).
    UnseededRng,
    /// `==`/`!=` against a floating-point literal; use an epsilon
    /// comparison helper instead.
    FloatEq,
    /// A crate root missing `#![forbid(unsafe_code)]` or
    /// `#![warn(missing_docs)]`.
    CrateAttrs,
    /// A heap allocation reachable from a hot-path root (call-graph pass).
    HotPathAlloc,
    /// A panic construct reachable from a hot-path root, transitively.
    HotPathPanic,
    /// A nondeterminism source (unseeded RNG, `HashMap` iteration, wall
    /// clock) reachable from a hot-path root.
    HotPathNondet,
    /// A call the hot-path resolver cannot follow (trait object, closure,
    /// unknown std method) — or a resolvable call deliberately cut from
    /// traversal by a waiver pragma.
    HotPathOpaque,
    /// A cycle in the may-hold-while-acquiring lock graph — two code paths
    /// that take the same named locks in opposite orders can deadlock
    /// (concurrency pass, [`crate::concurrency`]).
    LockOrder,
    /// A lock guard held across a blocking call (`send`/`recv`/`read`/
    /// `write`/`join`/`accept`, see [`crate::concurrency::BLOCKING_CALLS`]).
    GuardBlocking,
    /// An `in_flight.fetch_add` whose increment can escape without a
    /// matching `fetch_sub` (early-return leak, increment-after-visibility,
    /// or a counter with no decrement side at all) — breaks the quiescence
    /// invariant the live harness rests on.
    InFlightBalance,
    /// A wire enum variant (`Msg`/`SummaryPayload`) missing from one of
    /// its four mandatory homes: encode arm, decode arm, `wire_bytes`
    /// accounting arm, engine handling arm ([`crate::protocol`]).
    WireExhaustive,
    /// An `Ordering::Relaxed` load used as the sole gate before a side
    /// effect without an Acquire-or-stronger RMW confirming it on every
    /// path, or a thread kick (`unpark`) not preceded by a strong flag
    /// write ([`crate::atomics`]).
    AtomicProtocol,
    /// A long-lived `self` field pushed/extended on a loop-reachable
    /// path with no drain/clear/truncate/bound for it anywhere in the
    /// tree ([`crate::growth`]).
    UnboundedGrowth,
    /// A malformed or unused `dsj-lint: allow(..)` pragma. Cannot itself
    /// be waived.
    Pragma,
}

/// All waivable rules, in reporting order.
pub const RULES: [Rule; 16] = [
    Rule::Panic,
    Rule::HashIter,
    Rule::WallClock,
    Rule::UnseededRng,
    Rule::FloatEq,
    Rule::CrateAttrs,
    Rule::HotPathAlloc,
    Rule::HotPathPanic,
    Rule::HotPathNondet,
    Rule::HotPathOpaque,
    Rule::LockOrder,
    Rule::GuardBlocking,
    Rule::InFlightBalance,
    Rule::WireExhaustive,
    Rule::AtomicProtocol,
    Rule::UnboundedGrowth,
];

impl Rule {
    /// The rule's stable identifier, as used in waiver pragmas.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::UnseededRng => "unseeded-rng",
            Rule::FloatEq => "float-eq",
            Rule::CrateAttrs => "crate-attrs",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::HotPathNondet => "hot-path-nondet",
            Rule::HotPathOpaque => "hot-path-opaque-call",
            Rule::LockOrder => "lock-order",
            Rule::GuardBlocking => "guard-across-blocking",
            Rule::InFlightBalance => "in-flight-balance",
            Rule::WireExhaustive => "wire-exhaustive",
            Rule::AtomicProtocol => "atomic-protocol",
            Rule::UnboundedGrowth => "unbounded-growth",
            Rule::Pragma => "pragma",
        }
    }

    /// Parses a rule id (the name inside `allow(..)`).
    pub fn parse(id: &str) -> Option<Rule> {
        RULES.iter().copied().find(|r| r.id() == id)
    }

    /// `true` for the transitive hot-path rule family, which only the
    /// whole-tree pass ([`crate::lint_tree`]) can produce — single-file
    /// linting never treats their pragmas as stale.
    pub fn is_hot_path(self) -> bool {
        matches!(
            self,
            Rule::HotPathAlloc | Rule::HotPathPanic | Rule::HotPathNondet | Rule::HotPathOpaque
        )
    }

    /// `true` for every rule only the whole-tree pass can produce — the
    /// hot-path family plus the v3 concurrency/protocol families. Their
    /// pragmas are never reported stale by single-file linting.
    pub fn is_tree_level(self) -> bool {
        self.is_hot_path()
            || matches!(
                self,
                Rule::LockOrder
                    | Rule::GuardBlocking
                    | Rule::InFlightBalance
                    | Rule::WireExhaustive
                    | Rule::AtomicProtocol
                    | Rule::UnboundedGrowth
            )
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation (or waived violation) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// `Some(reason)` when a pragma waived this finding.
    pub waiver: Option<String>,
}

impl Finding {
    /// `true` when this finding still fails the build.
    pub fn is_violation(&self) -> bool {
        self.waiver.is_none()
    }
}

/// How a file is treated by the path-sensitive rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Test/bench/example code: exempt from `panic`, `wall-clock`,
    /// `float-eq` and `hash-iter` (but not `unseeded-rng`).
    pub exempt_code: bool,
    /// Inside a deterministic path: `hash-iter` applies.
    pub deterministic: bool,
    /// Allowlisted timing module: `wall-clock` does not apply.
    pub wall_clock_allowed: bool,
    /// A crate root (`src/lib.rs`): `crate-attrs` applies.
    pub crate_root: bool,
}

/// Paths (workspace-relative, `/`-separated prefixes) whose iteration
/// order feeds reproduced results: the simulator, the streaming substrate,
/// and the routing/flow layers of the core algorithms.
pub const DETERMINISTIC_PATHS: [&str; 4] = [
    "crates/simnet/src",
    "crates/stream/src",
    "crates/core/src/strategy",
    "crates/core/src/flow.rs",
];

/// Modules allowed to read wall clocks: observability timers and
/// reproduction/live-runtime measurement code.
pub const WALL_CLOCK_ALLOWLIST: [&str; 4] = [
    "crates/core/src/obs.rs",
    "crates/runtime/src/harness.rs",
    "crates/bench/src/table1.rs",
    "crates/bench/src/suite.rs",
];

/// Classifies a workspace-relative path for the path-sensitive rules.
pub fn classify_workspace(relpath: &str) -> FileClass {
    let exempt_code = relpath
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    FileClass {
        exempt_code,
        deterministic: DETERMINISTIC_PATHS.iter().any(|p| relpath.starts_with(p)),
        wall_clock_allowed: WALL_CLOCK_ALLOWLIST.contains(&relpath),
        crate_root: relpath == "src/lib.rs"
            || (relpath.starts_with("crates/") && relpath.ends_with("/src/lib.rs")),
    }
}

/// Fixture classification: every rule is live (used by the self-test
/// fixtures and when pointing `dsj-lint` at an arbitrary directory).
pub fn classify_fixture(relpath: &str) -> FileClass {
    FileClass {
        exempt_code: false,
        deterministic: true,
        wall_clock_allowed: false,
        crate_root: relpath.ends_with("src/lib.rs"),
    }
}

/// A parsed `// dsj-lint: allow(<rule>) — <reason>` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma sits on (it also covers the next line).
    pub line: u32,
    /// The rule this pragma waives.
    pub rule: Rule,
    /// The mandatory justification after the `)`.
    pub reason: String,
}

/// Lints one file's source. `relpath` is used for reporting and for the
/// path-sensitive rules via `class`.
///
/// This is the single-file view: the transitive hot-path rules need the
/// whole tree and only fire from [`crate::lint_tree`], so hot-path
/// pragmas are never reported stale here.
pub fn lint_source(relpath: &str, source: &str, class: FileClass) -> Vec<Finding> {
    let scan = lex::scan(source);
    let mut findings = token_findings(relpath, &scan, class);
    let (pragmas, mut pragma_findings) = parse_pragmas(relpath, &scan.comments);
    let mut hits = vec![0usize; pragmas.len()];
    apply_waivers(&mut findings, &pragmas, &mut hits);
    for (k, p) in pragmas.iter().enumerate() {
        if hits[k] == 0 && !p.rule.is_tree_level() {
            pragma_findings.push(stale_pragma_finding(relpath, p));
        }
    }
    findings.append(&mut pragma_findings);
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// The token-level rule passes over one scanned file — no pragma handling,
/// no waiver application.
pub fn token_findings(relpath: &str, scan: &lex::Scan, class: FileClass) -> Vec<Finding> {
    let mut findings = Vec::new();
    let test_regions = test_regions(&scan.tokens);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| line >= a && line <= b);

    let toks = &scan.tokens;
    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Punct(p)) => Some(p.as_str()),
            _ => None,
        }
    };

    for i in 0..toks.len() {
        let line = toks[i].line;
        let exempt = class.exempt_code || in_test(line);
        match &toks[i].kind {
            TokenKind::Ident(name) => match name.as_str() {
                "unwrap" | "expect"
                    if !exempt
                        && punct(i + 1) == Some("(")
                        && matches!(punct(i.wrapping_sub(1)), Some(".") | Some("::")) =>
                {
                    findings.push(Finding {
                        file: relpath.to_string(),
                        line,
                        rule: Rule::Panic,
                        message: format!(
                            "`.{name}(..)` in library code — return the crate's typed error \
                             (or restructure so the invariant is unreachable)"
                        ),
                        waiver: None,
                    });
                }
                "panic" | "todo" | "unimplemented" if !exempt && punct(i + 1) == Some("!") => {
                    findings.push(Finding {
                        file: relpath.to_string(),
                        line,
                        rule: Rule::Panic,
                        message: format!(
                            "`{name}!` in library code — errors must flow through typed error \
                             values, not node-thread panics"
                        ),
                        waiver: None,
                    });
                }
                "HashMap" | "HashSet" if class.deterministic && !exempt => {
                    findings.push(Finding {
                        file: relpath.to_string(),
                        line,
                        rule: Rule::HashIter,
                        message: format!(
                            "`{name}` in a deterministic path — iteration order varies per \
                             process; use `BTreeMap`/`BTreeSet` or explicitly sorted iteration"
                        ),
                        waiver: None,
                    });
                }
                "SystemTime" if !class.wall_clock_allowed && !exempt => {
                    findings.push(Finding {
                        file: relpath.to_string(),
                        line,
                        rule: Rule::WallClock,
                        message: "`SystemTime` outside the timing allowlist — results must \
                                  depend only on virtual time"
                            .to_string(),
                        waiver: None,
                    });
                }
                "Instant"
                    if !class.wall_clock_allowed
                        && !exempt
                        && punct(i + 1) == Some("::")
                        && ident(i + 2) == Some("now") =>
                {
                    findings.push(Finding {
                        file: relpath.to_string(),
                        line,
                        rule: Rule::WallClock,
                        message: "`Instant::now` outside the timing allowlist — wall clocks \
                                  must not leak into reproduced results"
                            .to_string(),
                        waiver: None,
                    });
                }
                "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng" => {
                    findings.push(Finding {
                        file: relpath.to_string(),
                        line,
                        rule: Rule::UnseededRng,
                        message: format!(
                            "`{name}` constructs an unseeded RNG — every stream must derive \
                             from an explicit seed (`StdRng::seed_from_u64`, `derive_seed`)"
                        ),
                        waiver: None,
                    });
                }
                _ => {}
            },
            TokenKind::Punct(op) if (op == "==" || op == "!=") && !exempt => {
                let float_neighbor =
                    matches!(
                        toks.get(i.wrapping_sub(1)).map(|t| &t.kind),
                        Some(TokenKind::Float)
                    ) || matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokenKind::Float));
                if float_neighbor {
                    findings.push(Finding {
                        file: relpath.to_string(),
                        line,
                        rule: Rule::FloatEq,
                        message: format!(
                            "float `{op}` comparison — use an epsilon helper \
                             (e.g. `dsj_dft::approx_eq`) instead of exact equality"
                        ),
                        waiver: None,
                    });
                }
            }
            _ => {}
        }
    }

    if class.crate_root {
        for (attr, inner) in [("forbid", "unsafe_code"), ("warn", "missing_docs")] {
            if !has_crate_attr(toks, attr, inner) {
                findings.push(Finding {
                    file: relpath.to_string(),
                    line: 1,
                    rule: Rule::CrateAttrs,
                    message: format!("crate root missing `#![{attr}({inner})]`"),
                    waiver: None,
                });
            }
        }
    }

    findings
}

/// Applies waivers in place: a pragma covers findings of its rule on its
/// own line and on the next line (so it can sit at the end of the
/// offending line or on its own line just above). `hits[k]` counts how
/// many findings pragma `k` waived — zero means the pragma is stale.
pub fn apply_waivers(findings: &mut [Finding], pragmas: &[Pragma], hits: &mut [usize]) {
    for f in findings {
        if let Some((k, p)) = pragmas
            .iter()
            .enumerate()
            .find(|(_, p)| p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line))
        {
            f.waiver = Some(p.reason.clone());
            hits[k] += 1;
        }
    }
}

/// The finding reported for a pragma that waived nothing.
pub fn stale_pragma_finding(relpath: &str, p: &Pragma) -> Finding {
    Finding {
        file: relpath.to_string(),
        line: p.line,
        rule: Rule::Pragma,
        message: format!(
            "stale pragma: `allow({})` waives nothing on this or the next line",
            p.rule
        ),
        waiver: None,
    }
}

/// Extracts well-formed pragmas and reports malformed ones as findings.
/// `// dsj-lint: hot-path` markers are a separate mechanism (handled by
/// [`crate::parse`]) and pass through silently.
pub fn parse_pragmas(relpath: &str, comments: &[Comment]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim_start().strip_prefix("dsj-lint:") else {
            continue;
        };
        if rest.trim() == crate::parse::HOT_MARKER {
            continue;
        }
        let bad = |msg: &str| Finding {
            file: relpath.to_string(),
            line: c.line,
            rule: Rule::Pragma,
            message: msg.to_string(),
            waiver: None,
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            findings.push(bad(
                "malformed pragma: expected `dsj-lint: allow(<rule>) — <reason>`",
            ));
            continue;
        };
        let Some((id, reason)) = rest.split_once(')') else {
            findings.push(bad("malformed pragma: unclosed `allow(`"));
            continue;
        };
        let Some(rule) = Rule::parse(id.trim()) else {
            findings.push(bad(&format!(
                "unknown rule `{}` in pragma (known: {})",
                id.trim(),
                RULES.map(Rule::id).join(", ")
            )));
            continue;
        };
        let reason = reason
            .trim_start_matches(|ch: char| ch.is_whitespace() || matches!(ch, '—' | '-' | ':'))
            .trim()
            .to_string();
        if reason.is_empty() {
            findings.push(bad("pragma without a reason: every waiver must say why"));
            continue;
        }
        pragmas.push(Pragma {
            line: c.line,
            rule,
            reason,
        });
    }
    (pragmas, findings)
}

/// Line ranges covered by `#[cfg(test)]` items (inclusive).
fn test_regions(toks: &[Token]) -> Vec<(u32, u32)> {
    let punct = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Punct(p)) => Some(p.as_str()),
            _ => None,
        }
    };
    let ident_is = |i: usize, s: &str| -> bool {
        matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Ident(x)) if x == s)
    };
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = punct(i) == Some("#")
            && punct(i + 1) == Some("[")
            && ident_is(i + 2, "cfg")
            && punct(i + 3) == Some("(")
            && ident_is(i + 4, "test")
            && punct(i + 5) == Some(")")
            && punct(i + 6) == Some("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip any further attributes on the same item.
        while punct(j) == Some("#") && punct(j + 1) == Some("[") {
            let mut depth = 0i32;
            j += 1;
            while j < toks.len() {
                match punct(j) {
                    Some("[") => depth += 1,
                    Some("]") => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Find the item's body: the first `{` before a top-level `;`.
        let mut depth = 0i32;
        let mut body = None;
        while j < toks.len() {
            match punct(j) {
                Some("(") | Some("[") => depth += 1,
                Some(")") | Some("]") => depth -= 1,
                Some(";") if depth == 0 => break,
                Some("{") if depth == 0 => {
                    body = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = body {
            let start_line = toks[i].line;
            let mut braces = 0i32;
            let mut k = open;
            let mut end_line = toks[open].line;
            while k < toks.len() {
                match punct(k) {
                    Some("{") => braces += 1,
                    Some("}") => {
                        braces -= 1;
                        if braces == 0 {
                            end_line = toks[k].line;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            if braces != 0 {
                end_line = toks.last().map_or(end_line, |t| t.line);
            }
            regions.push((start_line, end_line));
            i = k.max(i + 1);
        } else {
            i = j.max(i + 1);
        }
    }
    regions
}

/// Looks for `#![attr(inner)]` anywhere in the token stream.
fn has_crate_attr(toks: &[Token], attr: &str, inner: &str) -> bool {
    let punct = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Punct(p)) => Some(p.as_str()),
            _ => None,
        }
    };
    let ident_is = |i: usize, s: &str| -> bool {
        matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Ident(x)) if x == s)
    };
    (0..toks.len().saturating_sub(7)).any(|i| {
        punct(i) == Some("#")
            && punct(i + 1) == Some("!")
            && punct(i + 2) == Some("[")
            && ident_is(i + 3, attr)
            && punct(i + 4) == Some("(")
            && ident_is(i + 5, inner)
            && punct(i + 6) == Some(")")
            && punct(i + 7) == Some("]")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(src: &str) -> Vec<Finding> {
        lint_source(
            "crates/x/src/a.rs",
            src,
            classify_workspace("crates/x/src/a.rs"),
        )
    }

    fn det(src: &str) -> Vec<Finding> {
        lint_source(
            "crates/simnet/src/a.rs",
            src,
            classify_workspace("crates/simnet/src/a.rs"),
        )
    }

    #[test]
    fn unwrap_flagged_in_library_code_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Panic);
        // The same code inside #[cfg(test)] passes.
        let test_src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}";
        assert!(lint_lib(test_src).is_empty());
        // unwrap_or_else is not unwrap.
        assert!(lint_lib("fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }").is_empty());
    }

    #[test]
    fn panic_macros_flagged() {
        for m in ["panic!(\"boom\")", "todo!()", "unimplemented!()"] {
            let src = format!("fn f() {{ {m} }}");
            let f = lint_lib(&src);
            assert_eq!(f.len(), 1, "{m}");
            assert_eq!(f[0].rule, Rule::Panic);
        }
        // assert! remains allowed: it documents a contract.
        assert!(lint_lib("fn f(x: u32) { assert!(x > 0); }").is_empty());
    }

    #[test]
    fn hash_iter_only_in_deterministic_paths() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32,u32> = HashMap::new(); }";
        assert!(det(src).iter().all(|f| f.rule == Rule::HashIter));
        assert_eq!(det(src).len(), 3);
        // Outside the deterministic paths HashMap is fine.
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn wall_clock_allowlist() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(lint_lib(src).len(), 1);
        assert_eq!(lint_lib(src)[0].rule, Rule::WallClock);
        let allowed = lint_source(
            "crates/core/src/obs.rs",
            src,
            classify_workspace("crates/core/src/obs.rs"),
        );
        assert!(allowed.is_empty());
        // Storing an Instant handed in from outside is fine; only ::now is
        // construction.
        assert!(lint_lib("struct S { t: Instant }").is_empty());
    }

    #[test]
    fn unseeded_rng_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let r = rand::thread_rng(); }\n}";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnseededRng);
    }

    #[test]
    fn float_eq_flagged() {
        let f = lint_lib("fn f(x: f64) -> bool { x == 0.0 }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::FloatEq);
        assert!(lint_lib("fn f(x: u64) -> bool { x == 0 }").is_empty());
        let g = lint_lib("fn f(x: f64) -> bool { 1.5 != x }");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn crate_attrs_required_at_roots() {
        let bare = "//! Docs.\npub fn f() {}";
        let f = lint_source(
            "crates/x/src/lib.rs",
            bare,
            classify_workspace("crates/x/src/lib.rs"),
        );
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::CrateAttrs));
        let good = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}";
        assert!(lint_source(
            "crates/x/src/lib.rs",
            good,
            classify_workspace("crates/x/src/lib.rs")
        )
        .is_empty());
        // Non-root files are not checked for attrs.
        assert!(lint_lib(bare).is_empty());
    }

    #[test]
    fn pragma_waives_same_or_next_line() {
        let same = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // dsj-lint: allow(panic) — demo";
        let f = lint_lib(same);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].waiver.as_deref(), Some("demo"));
        assert!(!f[0].is_violation());

        let above = "// dsj-lint: allow(panic) — demo\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = lint_lib(above);
        assert_eq!(f.len(), 1);
        assert!(!f[0].is_violation());
    }

    #[test]
    fn bad_pragmas_are_findings() {
        // No reason.
        let f = lint_lib("fn f(x: Option<u32>) -> u32 { x.unwrap() } // dsj-lint: allow(panic)");
        assert!(f.iter().any(|x| x.rule == Rule::Pragma));
        assert!(f.iter().any(|x| x.rule == Rule::Panic && x.is_violation()));
        // Unknown rule.
        let f = lint_lib("fn f() {} // dsj-lint: allow(nonsense) — why");
        assert!(f.iter().any(|x| x.rule == Rule::Pragma));
        // Stale pragma that waives nothing.
        let f = lint_lib("fn f() {} // dsj-lint: allow(panic) — nothing here");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Pragma);
    }

    #[test]
    fn hot_path_marker_is_not_a_malformed_pragma() {
        assert!(lint_lib("// dsj-lint: hot-path\nfn f() {}").is_empty());
    }

    #[test]
    fn hot_path_pragmas_are_never_stale_in_single_file_mode() {
        // The hot-path rules only fire from the whole-tree pass, so a
        // single-file lint must not flag their pragmas as stale...
        let src = "fn f() {} // dsj-lint: allow(hot-path-opaque-call) — cut is tree-level";
        assert!(lint_lib(src).is_empty());
        // ...while classic-rule pragmas still go stale (pinned above in
        // `bad_pragmas_are_findings`).
    }

    #[test]
    fn fixture_mode_arms_every_rule() {
        let class = classify_fixture("hash_iter.rs");
        let f = lint_source("hash_iter.rs", "fn f() { let m = HashMap::new(); }", class);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HashIter);
    }

    #[test]
    fn exempt_dirs_skip_panic_rule() {
        for path in [
            "crates/x/tests/t.rs",
            "crates/x/benches/b.rs",
            "examples/e.rs",
            "tests/t.rs",
        ] {
            let f = lint_source(
                path,
                "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
                classify_workspace(path),
            );
            assert!(f.is_empty(), "{path}");
        }
    }
}

//! The rule ids, the finding type and the waiver-pragma machinery.

use crate::lex::Comment;
use std::fmt;

/// Every rule `dsj-lint` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
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
pub const RULES: [Rule; 5] = [
    Rule::LockOrder,
    Rule::GuardBlocking,
    Rule::InFlightBalance,
    Rule::AtomicProtocol,
    Rule::UnboundedGrowth,
];

impl Rule {
    /// The rule's stable identifier, as used in waiver pragmas.
    pub fn id(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock-order",
            Rule::GuardBlocking => "guard-across-blocking",
            Rule::InFlightBalance => "in-flight-balance",
            Rule::AtomicProtocol => "atomic-protocol",
            Rule::UnboundedGrowth => "unbounded-growth",
            Rule::Pragma => "pragma",
        }
    }

    /// Parses a rule id (the name inside `allow(..)`).
    pub fn parse(id: &str) -> Option<Rule> {
        RULES.iter().copied().find(|r| r.id() == id)
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
pub fn parse_pragmas(relpath: &str, comments: &[Comment]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim_start().strip_prefix("dsj-lint:") else {
            continue;
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    /// One `guard-across-blocking` finding on `line`, run through the
    /// pragmas of `src`: the waived finding plus the pragma errors.
    fn waive(src: &str, line: u32) -> (Finding, Vec<usize>, Vec<Finding>) {
        let (pragmas, errors) = parse_pragmas("a.rs", &lex::scan(src).comments);
        let mut findings = [Finding {
            file: "a.rs".to_string(),
            line,
            rule: Rule::GuardBlocking,
            message: String::new(),
            waiver: None,
        }];
        let mut hits = vec![0; pragmas.len()];
        apply_waivers(&mut findings, &pragmas, &mut hits);
        let [finding] = findings;
        (finding, hits, errors)
    }

    #[test]
    fn pragma_waives_same_or_next_line() {
        let same = "tx.send(v); // dsj-lint: allow(guard-across-blocking) — demo";
        let (f, hits, errors) = waive(same, 1);
        assert_eq!(f.waiver.as_deref(), Some("demo"));
        assert!(!f.is_violation());
        assert_eq!(hits, [1]);
        assert!(errors.is_empty());

        let above = "// dsj-lint: allow(guard-across-blocking) — demo\ntx.send(v);";
        assert!(!waive(above, 2).0.is_violation());
        // Two lines below is out of reach, and so is another rule's pragma.
        let (f, hits, _) = waive(above, 3);
        assert!(f.is_violation());
        assert_eq!(hits, [0]);
        assert!(waive("// dsj-lint: allow(lock-order) — demo", 1)
            .0
            .is_violation());
    }

    #[test]
    fn bad_pragmas_are_findings_and_waive_nothing() {
        for (src, what) in [
            (
                "// dsj-lint: allow(guard-across-blocking)",
                "without a reason",
            ),
            (
                "// dsj-lint: allow(nonsense) — why",
                "unknown rule `nonsense`",
            ),
            ("// dsj-lint: allow(guard-across-blocking — why", "unclosed"),
            ("// dsj-lint: hot-path", "malformed pragma"),
            // The pragma rule cannot itself be waived.
            ("// dsj-lint: allow(pragma) — why", "unknown rule `pragma`"),
        ] {
            let (f, hits, errors) = waive(src, 1);
            assert!(f.is_violation(), "{src}");
            assert!(hits.is_empty(), "{src}");
            assert_eq!(errors.len(), 1, "{src}");
            assert_eq!(errors[0].rule, Rule::Pragma);
            assert!(errors[0].message.contains(what), "{src}: {:?}", errors[0]);
        }
        // Ordinary comments are not pragmas.
        assert!(waive("// see dsj-lint docs", 1).2.is_empty());
    }
}

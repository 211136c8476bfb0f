//! The PLFS-specific invariant rules that clippy cannot state.
//!
//! The token-level rules here are pure functions over the token stream
//! produced by [`crate::lexer::lex`], returning raw findings (rule,
//! line, message). Test code — `#[cfg(test)]` modules, `#[test]`/
//! `#[bench]` functions — is exempt from every rule: tests may poke
//! backends directly.
//!
//! Rule catalogue (see DESIGN.md §5d for the rationale):
//!
//! * **swallowed-result** — an empty `_ => {}` arm in a `match` that
//!   handles `PlfsError`/`Issue` variants silently drops every variant
//!   added later, including failures a recovery path needed to see.
//! * **format-drift** — on-disk format constants must match the
//!   authoritative table in DESIGN.md (implemented in
//!   [`crate::drift`], driven by the doc, checked here per file).
//!
//! Two rules are *semantic*: they run on the statement/branch IR
//! ([`crate::ir`]) and the workspace call graph ([`crate::callgraph`])
//! in [`crate::locks`], and their findings carry counterexample traces
//! through the same pragma resolution.
//!
//! * **guard-across-io** — a `Mutex`/`RwLock` guard is live when a
//!   Backend/VFS call runs, directly or through any workspace call
//!   chain. This is the posix shim's founding bug: the descriptor-table
//!   mutex held across backend I/O serialized every writer in the mount.
//! * **lock-order-inversion** — an acquisition that breaks the
//!   DESIGN.md §5i lock hierarchy, or closes a cycle in it.
//!
//! Panics, `let _ =` and `.ok();` discards, and unreasoned `#[allow]`s
//! are clippy's: the workspace `[workspace.lints.clippy]` table denies
//! them, and [`clippy_expects`] counts the reasoned `#[expect]`s that
//! remain so the baseline can ratchet them. So is a per-op `Backend`
//! call outside the I/O plane: the root `clippy.toml` lists those
//! methods under `disallowed-methods`.

use crate::lexer::{Tok, TokKind};

/// Stable rule identifiers (these appear in pragmas, JSON output, and
/// the baseline file — do not rename casually).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    GuardAcrossIo,
    SwallowedResult,
    FormatDrift,
    LockOrderInversion,
}

impl RuleId {
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::GuardAcrossIo => "guard-across-io",
            RuleId::SwallowedResult => "swallowed-result",
            RuleId::FormatDrift => "format-drift",
            RuleId::LockOrderInversion => "lock-order-inversion",
        }
    }

    pub const fn all() -> [RuleId; 4] {
        [
            RuleId::GuardAcrossIo,
            RuleId::SwallowedResult,
            RuleId::FormatDrift,
            RuleId::LockOrderInversion,
        ]
    }

    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::all().into_iter().find(|r| r.as_str() == s)
    }
}

/// A rule hit before pragma resolution. `trace` carries the
/// counterexample trace for interprocedural findings (`file:line: note`
/// per step); token-level rules leave it empty.
#[derive(Debug, Clone)]
pub struct RawFinding {
    pub rule: RuleId,
    pub line: u32,
    pub message: String,
    pub trace: Vec<String>,
}

/// `Backend` trait operations that perform I/O against the underlying
/// file system (everything fallible; `exists` is excluded because it
/// returns `bool`).
pub const BACKEND_OPS: &[&str] = &[
    "mkdir",
    "mkdir_all",
    "create",
    "append",
    "read_at",
    "size",
    "kind",
    "list",
    "unlink",
    "remove_all",
    "rename",
];

/// Calls that reach backend I/O one level down — VFS entry points and
/// handle operations — for the guard-across-io rule. `read`/`write`
/// only count with arguments (the zero-argument forms are `RwLock`
/// guard acquisitions, recognised separately).
pub const VFS_OPS: &[&str] = &[
    "open_read",
    "open_write",
    "readdir",
    "read",
    "write",
    "flush_index",
    "close_in_place",
];

/// Token-index ranges (inclusive start, inclusive end) that are test
/// code: the body of any item annotated `#[test]`, `#[bench]`, or any
/// `#[cfg(...)]` attribute mentioning `test`.
pub fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is(TokKind::Punct, "#") && toks.get(i + 1).is_some_and(|t| t.is(TokKind::Punct, "[")) {
            // Collect idents inside the attribute brackets.
            let mut j = i + 2;
            let mut bracket = 1i32;
            let mut is_test_attr = false;
            while j < toks.len() && bracket > 0 {
                match (toks[j].kind, toks[j].text.as_str()) {
                    (TokKind::Punct, "[") => bracket += 1,
                    (TokKind::Punct, "]") => bracket -= 1,
                    (TokKind::Ident, "test") | (TokKind::Ident, "bench") => is_test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr {
                // The attributed item's body is the first `{`-block
                // before any item-terminating `;` (an attributed `use`
                // or extern declaration has no body).
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is(TokKind::Punct, ";") && toks[k].depth == toks[i].depth {
                        break;
                    }
                    if toks[k].is(TokKind::Punct, "{") {
                        let close = matching_close(toks, k);
                        ranges.push((k, close));
                        break;
                    }
                    k += 1;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    merge_ranges(ranges)
}

fn merge_ranges(mut ranges: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    ranges.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.0 <= last.1 => last.1 = last.1.max(r.1),
            _ => out.push(r),
        }
    }
    out
}

/// Index of the `}` that closes the `{` at `open` (or the last token if
/// the file is unbalanced).
pub fn matching_close(toks: &[Tok], open: usize) -> usize {
    let inner = toks[open].depth + 1;
    for (off, t) in toks[open + 1..].iter().enumerate() {
        if t.is(TokKind::Punct, "}") && t.depth == inner {
            return open + 1 + off;
        }
    }
    toks.len().saturating_sub(1)
}

pub fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
    ranges
        .binary_search_by(|&(s, e)| {
            if idx < s {
                std::cmp::Ordering::Greater
            } else if idx > e {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        })
        .is_ok()
}

/// swallowed-result: an empty `_ => {}` arm in a `match` that names
/// `PlfsError`/`Issue` variants. (`let _ = ..` and `.ok();` discards are
/// `clippy::let_underscore_must_use` and `clippy::unused_result_ok`;
/// `clippy::wildcard_enum_match_arm` cannot be scoped to these enums.)
pub fn swallowed_result(toks: &[Tok], tests: &[(usize, usize)]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is(TokKind::Ident, "match") || in_ranges(tests, i) {
            continue;
        }
        let Some(open_off) = toks[i + 1..]
            .iter()
            .position(|n| n.is(TokKind::Punct, "{"))
        else {
            continue;
        };
        let open = i + 1 + open_off;
        let body = &toks[open + 1..matching_close(toks, open)];
        let names_errors = body.windows(3).any(|w| {
            w[0].kind == TokKind::Ident
                && (w[0].text == "PlfsError" || w[0].text == "Issue")
                && w[1].is(TokKind::Punct, ":")
                && w[2].is(TokKind::Punct, ":")
        });
        if !names_errors {
            continue;
        }
        for w in body.windows(5) {
            let empty_block = w[3].is(TokKind::Punct, "{") && w[4].is(TokKind::Punct, "}");
            let empty_unit = w[3].is(TokKind::Punct, "(") && w[4].is(TokKind::Punct, ")");
            if w[0].is(TokKind::Ident, "_")
                && w[1].is(TokKind::Punct, "=")
                && w[2].is(TokKind::Punct, ">")
                && (empty_block || empty_unit)
            {
                out.push(RawFinding {
                    trace: Vec::new(),
                    rule: RuleId::SwallowedResult,
                    line: w[0].line,
                    message: "empty `_ => {}` arm in a match handling PlfsError/Issue silently \
                              swallows error variants; enumerate them or pragma with a reason"
                        .into(),
                });
            }
        }
    }
    out
}

/// The clippy lints named by each `#[expect(clippy::<lint>, ..)]` (or
/// inner `#![expect(..)]`) outside test code, one entry per lint per
/// attribute, as `clippy::<lint>`: the suppressions the baseline
/// budgets alongside the pragmas.
pub fn clippy_expects(toks: &[Tok], tests: &[(usize, usize)]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is(TokKind::Ident, "expect") || in_ranges(tests, i) {
            continue;
        }
        let back = |k: usize, p: &str| i >= k && toks[i - k].is(TokKind::Punct, p);
        let open_attr = back(1, "[") && (back(2, "#") || (back(2, "!") && back(3, "#")));
        if !open_attr || !toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "(")) {
            continue;
        }
        let args = toks[i + 2..]
            .iter()
            .take_while(|n| !n.is(TokKind::Punct, ")"))
            .collect::<Vec<_>>();
        for w in args.windows(4) {
            if w[0].is(TokKind::Ident, "clippy")
                && w[1].is(TokKind::Punct, ":")
                && w[2].is(TokKind::Punct, ":")
                && w[3].kind == TokKind::Ident
            {
                out.push(format!("clippy::{}", w[3].text));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run<F>(src: &str, f: F) -> Vec<RawFinding>
    where
        F: Fn(&[Tok], &[(usize, usize)]) -> Vec<RawFinding>,
    {
        let l = lex(src);
        let tests = test_ranges(&l.toks);
        f(&l.toks, &tests)
    }

    const SWALLOW: &str = "match e { Issue::A => fix(), _ => {} }";

    #[test]
    fn test_code_is_exempt_everywhere() {
        let src = format!(
            "fn lib() -> u32 {{ 1 }}\n#[cfg(test)]\nmod tests {{\n#[test]\nfn t() {{ {SWALLOW} b.append(p, c); }}\n}}"
        );
        assert!(run(&src, swallowed_result).is_empty());
    }

    #[test]
    fn test_fn_outside_test_mod_is_exempt() {
        let src = format!("#[test]\nfn t() {{ {SWALLOW} }}\nfn lib() {{ {SWALLOW} }}");
        let f = run(&src, swallowed_result);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn wildcard_arm_needs_error_context() {
        let harmless = "fn f(x: u8) { match x { 1 => a(), _ => {} } }";
        assert!(run(harmless, swallowed_result).is_empty());
        let bad = r#"
            fn f(e: &Issue) {
                match e {
                    Issue::OrphanDataLog { writer } => fix(writer),
                    _ => {}
                }
            }
        "#;
        let f = run(bad, swallowed_result);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn clippy_expects_name_each_lint_outside_tests() {
        let src = r#"
            #![expect(clippy::panic, reason = "crate-wide")]
            #[expect(clippy::expect_used, clippy::too_many_arguments, reason = "two")]
            fn f() {}
            #[expect(dead_code, reason = "not clippy")]
            fn g() { h.expect("not an attribute"); }
            #[cfg(test)]
            mod tests { fn t() { #[expect(clippy::unwrap_used, reason = "test")] let x = 1; } }
        "#;
        let l = lex(src);
        let got = clippy_expects(&l.toks, &test_ranges(&l.toks));
        assert_eq!(
            got,
            ["clippy::panic", "clippy::expect_used", "clippy::too_many_arguments"]
        );
    }
}

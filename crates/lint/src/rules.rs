//! The PLFS-specific invariant rules.
//!
//! Each rule is a pure function over the token stream produced by
//! [`crate::lexer::lex`], returning raw findings (rule, line, message).
//! Test code — `#[cfg(test)]` modules, `#[test]`/`#[bench]` functions —
//! is exempt from every rule: tests are allowed to unwrap, panic, and
//! poke backends directly.
//!
//! Rule catalogue (see DESIGN.md §5d for the rationale):
//!
//! * **guard-across-io** — a `let`-bound `Mutex`/`RwLock` guard is still
//!   live when a `Backend`/VFS call executes. This is the pre-fault-PR
//!   posix shim bug class: the descriptor-table mutex held across
//!   backend I/O serialized every writer in the mount.
//! * **swallowed-result** — `let _ = ...`, a statement-final `.ok();`,
//!   or an empty `_ => {}` arm in a `match` that handles
//!   `PlfsError`/`Issue` variants. Each of these silently drops a
//!   failure a recovery path needed to see.
//! * **panic-in-core** — `unwrap`/`expect`/`panic!`/`todo!`/
//!   `unimplemented!` in non-test library code. Middleware dies with its
//!   host application; it does not get to abort a checkpoint.
//! * **unretried-backend-call** — direct backend I/O on the write / read
//!   / fsck paths that bypasses `retry_transient`. Transient failures
//!   are guaranteed side-effect-free, so an unretried call turns a
//!   survivable blip into a failed recovery.
//! * **raw-backend-in-batch-path** — a per-op `Backend` call inside a
//!   loop body on a batched path. The I/O-plane refactor made
//!   multi-op call sites build an `IoOp` batch and `submit` it once;
//!   a raw call per iteration silently reverts to one-round-trip-per-op
//!   and dodges the plane's per-op counters and retry policy.
//! * **format-drift** — on-disk format constants must match the
//!   authoritative table in DESIGN.md (implemented in
//!   [`crate::drift`], driven by the doc, checked here per file).
//!
//! One further rule is *semantic*: **lock-order-inversion**
//! ([`crate::locks`], checked against the DESIGN.md §5i hierarchy) runs
//! on the statement/branch IR ([`crate::ir`]) and the workspace call
//! graph ([`crate::callgraph`]) rather than on this file's token
//! scanners. Its findings carry counterexample traces and flow through
//! the same pragma resolution.

use crate::lexer::{Tok, TokKind};

/// Stable rule identifiers (these appear in pragmas, JSON output, and
/// the baseline file — do not rename casually).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    GuardAcrossIo,
    SwallowedResult,
    PanicInCore,
    UnretriedBackendCall,
    RawBackendInBatchPath,
    FormatDrift,
    LockOrderInversion,
}

impl RuleId {
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::GuardAcrossIo => "guard-across-io",
            RuleId::SwallowedResult => "swallowed-result",
            RuleId::PanicInCore => "panic-in-core",
            RuleId::UnretriedBackendCall => "unretried-backend-call",
            RuleId::RawBackendInBatchPath => "raw-backend-in-batch-path",
            RuleId::FormatDrift => "format-drift",
            RuleId::LockOrderInversion => "lock-order-inversion",
        }
    }

    pub fn all() -> [RuleId; 7] {
        [
            RuleId::GuardAcrossIo,
            RuleId::SwallowedResult,
            RuleId::PanicInCore,
            RuleId::UnretriedBackendCall,
            RuleId::RawBackendInBatchPath,
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

fn is_method_call(toks: &[Tok], i: usize) -> bool {
    i > 0
        && toks[i - 1].is(TokKind::Punct, ".")
        && toks.get(i + 1).is_some_and(|t| t.is(TokKind::Punct, "("))
}

fn call_has_args(toks: &[Tok], i: usize) -> bool {
    // `i` is the method ident; `i+1` is `(`.
    toks.get(i + 2).is_some_and(|t| !t.is(TokKind::Punct, ")"))
}

/// panic-in-core: `.unwrap()`, `.expect(..)`, `panic!`, `todo!`,
/// `unimplemented!` outside test code.
pub fn panic_in_core(toks: &[Tok], tests: &[(usize, usize)]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_ranges(tests, i) {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" if is_method_call(toks, i) => out.push(RawFinding {
                trace: Vec::new(),
                rule: RuleId::PanicInCore,
                line: t.line,
                message: format!(
                    "`.{}(...)` in library code can abort the host application; return a typed `PlfsError` instead",
                    t.text
                ),
            }),
            "panic" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "!")) =>
            {
                out.push(RawFinding {
                    trace: Vec::new(),
                    rule: RuleId::PanicInCore,
                    line: t.line,
                    message: format!(
                        "`{}!` in library code can abort the host application; return a typed `PlfsError` instead",
                        t.text
                    ),
                })
            }
            _ => {}
        }
    }
    out
}

/// swallowed-result: `let _ = ...`, statement-final `.ok();`, and empty
/// `_ => {}` arms in matches that name `PlfsError`/`Issue` variants.
pub fn swallowed_result(toks: &[Tok], tests: &[(usize, usize)]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_ranges(tests, i) {
            continue;
        }
        // let _ = ...
        if t.is(TokKind::Ident, "let")
            && toks.get(i + 1).is_some_and(|n| n.is(TokKind::Ident, "_"))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is(TokKind::Punct, "=") || n.is(TokKind::Punct, ":"))
        {
            out.push(RawFinding {
                trace: Vec::new(),
                rule: RuleId::SwallowedResult,
                line: t.line,
                message: "`let _ = ...` discards a value (and any error inside it) without a trace; \
                          handle it, propagate with `?`, or pragma with a reason"
                    .into(),
            });
        }
        // .ok();
        if t.is(TokKind::Ident, "ok")
            && is_method_call(toks, i)
            && toks.get(i + 2).is_some_and(|n| n.is(TokKind::Punct, ")"))
            && toks.get(i + 3).is_some_and(|n| n.is(TokKind::Punct, ";"))
        {
            out.push(RawFinding {
                trace: Vec::new(),
                rule: RuleId::SwallowedResult,
                line: t.line,
                message: "statement-final `.ok();` throws the error away; handle it, propagate \
                          with `?`, or pragma with a reason"
                    .into(),
            });
        }
        // match over PlfsError/Issue with an empty wildcard arm.
        if t.is(TokKind::Ident, "match") {
            let Some(open_off) = toks[i + 1..]
                .iter()
                .position(|n| n.is(TokKind::Punct, "{"))
            else {
                continue;
            };
            let open = i + 1 + open_off;
            let close = matching_close(toks, open);
            let body = &toks[open + 1..close];
            let names_errors = body.windows(3).any(|w| {
                w[0].kind == TokKind::Ident
                    && (w[0].text == "PlfsError" || w[0].text == "Issue")
                    && w[1].is(TokKind::Punct, ":")
                    && w[2].is(TokKind::Punct, ":")
            });
            if !names_errors {
                continue;
            }
            for (off, w) in body.windows(5).enumerate() {
                let empty_block = w[3].is(TokKind::Punct, "{") && w[4].is(TokKind::Punct, "}");
                let empty_unit = w[3].is(TokKind::Punct, "(") && w[4].is(TokKind::Punct, ")");
                if w[0].is(TokKind::Ident, "_")
                    && w[1].is(TokKind::Punct, "=")
                    && w[2].is(TokKind::Punct, ">")
                    && (empty_block || empty_unit)
                    && !in_ranges(tests, open + 1 + off)
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
    }
    out
}

#[derive(Debug)]
struct Guard {
    name: Option<String>,
    /// Brace depth of the statement that bound the guard; the guard
    /// dies when that block closes.
    depth: u32,
    line: u32,
    /// Token index at which the binding statement ends (guard becomes
    /// live only after it).
    live_from: usize,
}

/// guard-across-io: a `let`-bound lock guard (`.lock()` / `.read()` /
/// `.write()` with no arguments) live across a Backend/VFS call.
pub fn guard_across_io(toks: &[Tok], tests: &[(usize, usize)]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        // Kill guards whose enclosing block closes.
        if t.is(TokKind::Punct, "}") {
            guards.retain(|g| g.depth < t.depth);
        }
        // drop(name) releases explicitly.
        if t.is(TokKind::Ident, "drop")
            && toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "("))
        {
            if let Some(name) = toks.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                if toks.get(i + 3).is_some_and(|n| n.is(TokKind::Punct, ")")) {
                    guards.retain(|g| g.name.as_deref() != Some(name.text.as_str()));
                }
            }
        }
        // New binding statement: scan for a guard acquisition.
        if t.is(TokKind::Ident, "let") && !in_ranges(tests, i) {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is(TokKind::Ident, "mut")) {
                j += 1;
            }
            // Simple binding only: `let [mut] name = ...` or `let name: T = ...`.
            let name = match (toks.get(j), toks.get(j + 1)) {
                (Some(n), Some(after))
                    if n.kind == TokKind::Ident
                        && (after.is(TokKind::Punct, "=") || after.is(TokKind::Punct, ":")) =>
                {
                    Some(n.text.clone())
                }
                _ => None,
            };
            // Scan the initializer up to the statement end (`;` at the
            // let's depth) or the first block opener at that depth
            // (if-let / match bodies end the scannable initializer).
            let mut acquired = false;
            let mut k = j;
            while let Some(tok) = toks.get(k) {
                if (tok.is(TokKind::Punct, ";") || tok.is(TokKind::Punct, "{")) && tok.depth == t.depth
                {
                    break;
                }
                if tok.kind == TokKind::Ident
                    && matches!(tok.text.as_str(), "lock" | "read" | "write")
                    && is_method_call(toks, k)
                    && !call_has_args(toks, k)
                {
                    acquired = true;
                }
                k += 1;
            }
            if acquired {
                // Shadowing re-binds: the old guard is dropped.
                if let Some(n) = &name {
                    guards.retain(|g| g.name.as_deref() != Some(n.as_str()));
                }
                guards.push(Guard {
                    name,
                    depth: t.depth,
                    line: t.line,
                    live_from: k,
                });
            }
        }
        // Flag I/O calls while any guard is live.
        if t.kind == TokKind::Ident && is_method_call(toks, i) && !in_ranges(tests, i) {
            let is_backend_op = BACKEND_OPS.contains(&t.text.as_str());
            let is_vfs_op = VFS_OPS.contains(&t.text.as_str());
            if !is_backend_op && !is_vfs_op {
                continue;
            }
            // Zero-arg `.read()` / `.write()` are guard acquisitions,
            // and `flush_index()` is the only genuine zero-arg I/O call.
            if !call_has_args(toks, i) && t.text != "flush_index" {
                continue;
            }
            if let Some(g) = guards.iter().find(|g| g.live_from <= i) {
                let gname = g.name.as_deref().unwrap_or("<pattern>");
                out.push(RawFinding {
                    trace: Vec::new(),
                    rule: RuleId::GuardAcrossIo,
                    line: t.line,
                    message: format!(
                        "backend/VFS call `.{}(...)` while lock guard `{}` (bound line {}) is live; \
                         drop the guard before I/O or pragma with a reason",
                        t.text, gname, g.line
                    ),
                });
            }
        }
    }
    out
}

/// unretried-backend-call: direct `Backend` calls outside a
/// `retry_transient` closure. Applied only to the data/recovery paths
/// (`writer.rs`, `reader.rs`, `fsck.rs` — see `LintConfig`).
pub fn unretried_backend_call(toks: &[Tok], tests: &[(usize, usize)]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let mut paren_depth = 0i64;
    let mut retry_exit: Option<i64> = None;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") => paren_depth += 1,
            (TokKind::Punct, ")") => {
                paren_depth -= 1;
                if retry_exit == Some(paren_depth) {
                    retry_exit = None;
                }
            }
            (TokKind::Ident, "retry_transient")
                if toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "("))
                    && retry_exit.is_none() =>
            {
                retry_exit = Some(paren_depth);
            }
            (TokKind::Ident, op)
                if BACKEND_OPS.contains(&op)
                    && retry_exit.is_none()
                    && is_method_call(toks, i)
                    && !in_ranges(tests, i) =>
            {
                out.push(RawFinding {
                    trace: Vec::new(),
                    rule: RuleId::UnretriedBackendCall,
                    line: t.line,
                    message: format!(
                        "direct backend call `.{op}(...)` on a data/recovery path bypasses \
                         `retry_transient`; a transient blip becomes a hard failure",
                    ),
                });
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Token ranges (inclusive) covering the bodies of `for`/`while`/`loop`
/// statements. The body is the first `{` at the keyword's brace depth
/// (loop headers cannot contain a bare block at that depth — closure
/// bodies inside the header sit behind `(` and are deeper once entered).
fn loop_body_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "for" | "while" | "loop") {
            continue;
        }
        // `.for_each` style idents are lexed as one token, so a bare
        // `for`/`while`/`loop` ident here really is the keyword unless
        // it is a method name (`.loop(` does not exist in this codebase,
        // but be safe) or a generic lifetime position (`for<'a>`).
        if i > 0 && toks[i - 1].is(TokKind::Punct, ".") {
            continue;
        }
        if toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "<")) {
            continue;
        }
        let Some(open_off) = toks[i + 1..]
            .iter()
            .position(|n| n.is(TokKind::Punct, "{") && n.depth == t.depth)
        else {
            continue;
        };
        let open = i + 1 + open_off;
        ranges.push((open, matching_close(toks, open)));
    }
    merge_ranges(ranges)
}

/// raw-backend-in-batch-path: a per-op `Backend` call inside a loop body
/// on a path that has a batched equivalent. Applied only to the files
/// the I/O-plane refactor converted to `IoOp` batches (see
/// `LintConfig`); the fix is to build the ops in the loop and `submit`
/// them once.
pub fn raw_backend_in_batch_path(toks: &[Tok], tests: &[(usize, usize)]) -> Vec<RawFinding> {
    let loops = loop_body_ranges(toks);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !BACKEND_OPS.contains(&t.text.as_str())
            || !is_method_call(toks, i)
            || in_ranges(tests, i)
            || !in_ranges(&loops, i)
        {
            continue;
        }
        out.push(RawFinding {
            trace: Vec::new(),
            rule: RuleId::RawBackendInBatchPath,
            line: t.line,
            message: format!(
                "per-op backend call `.{}(...)` inside a loop on a batched path; build an \
                 `IoOp` batch and `submit` it once (per-op round trips dodge the I/O plane's \
                 counters and retry policy)",
                t.text
            ),
        });
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

    #[test]
    fn test_code_is_exempt_everywhere() {
        let src = r#"
            fn lib() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { foo().unwrap(); let _ = bar(); }
            }
        "#;
        assert!(run(src, panic_in_core).is_empty());
        assert!(run(src, swallowed_result).is_empty());
    }

    #[test]
    fn test_fn_outside_test_mod_is_exempt() {
        let src = "#[test]\nfn t() { x().unwrap(); }\nfn lib() { y().unwrap(); }";
        let f = run(src, panic_in_core);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f() { a.unwrap_or_else(g); b.unwrap_or(0); c.unwrap_or_default(); }";
        assert!(run(src, panic_in_core).is_empty());
    }

    #[test]
    fn guard_dies_at_block_end_and_drop() {
        let src = r#"
            fn ok(&self) {
                {
                    let g = self.m.lock();
                    g.push(1);
                }
                self.backend.append(path, c);
                let h = self.m.lock();
                drop(h);
                self.backend.append(path, c);
            }
        "#;
        assert!(run(src, guard_across_io).is_empty());
    }

    #[test]
    fn guard_live_across_append_is_flagged() {
        let src = r#"
            fn bad(&self) {
                let mut table = self.table.lock();
                let phys = self.backend.append(path, c)?;
                table.insert(fd, phys);
            }
        "#;
        let f = run(src, guard_across_io);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::GuardAcrossIo);
    }

    #[test]
    fn rwlock_write_guard_counts_but_write_with_args_is_io() {
        let src = r#"
            fn f(&self) {
                let mut nodes = self.nodes.write();
                h.write(offset, content, ts);
            }
        "#;
        let f = run(src, guard_across_io);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn retry_wrapped_calls_pass_unretried() {
        let src = r#"
            fn f(&self) -> Result<()> {
                retry_transient(|| self.backend.append(&log, &bytes))?;
                self.backend.unlink(&old)?;
                Ok(())
            }
        "#;
        let f = run(src, unretried_backend_call);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unlink"));
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
}

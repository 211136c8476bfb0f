//! A lightweight statement/branch IR over the token stream.
//!
//! The token-level rules in [`crate::rules`] see one flat stream; the
//! interprocedural analyses ([`crate::locks`] and guard-across-io v2)
//! need function boundaries, statement boundaries,
//! and branch structure. This module parses each `fn` body into a small
//! event tree — still zero-dep, still recursive descent over
//! [`crate::lexer::lex`] output.
//!
//! The IR is deliberately approximate where precision buys nothing:
//!
//! * Events inside one statement appear in **token order**, not
//!   evaluation order. This errs toward *fewer* lock edges (a guard
//!   created in an argument list is not yet held at the enclosing
//!   call token) — acceptable for a linter that must not cry wolf.
//! * Closures are inlined at their definition site (treated as run
//!   exactly once, where they appear), matching how the token rules
//!   already treat `retry_transient` closures.
//! * `else if` chains become one [`Event::Branch`] whose later arms
//!   carry their condition events at the head of the arm body.

use crate::lexer::{Tok, TokKind};
use crate::rules::{in_ranges, matching_close, test_ranges};

/// One function, parsed.
#[derive(Debug)]
pub struct FnIr {
    /// Bare name (`append`).
    pub name: String,
    /// Enclosing `impl` type, when inside one (`Service`).
    pub impl_ty: Option<String>,
    /// Repo-relative path of the defining file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the body sits inside a `#[test]`/`#[cfg(test)]` range.
    pub is_test: bool,
    /// Body events, statement-grouped.
    pub body: Vec<Event>,
}

impl FnIr {
    /// `Type::name` when inside an impl, else the bare name.
    pub fn qual(&self) -> String {
        match &self.impl_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One IR event. `Stmt`/`Scope`/`Branch`/`Loop` carry nested events.
#[derive(Debug)]
pub enum Event {
    /// A call: `name(...)` or `recv.name(...)`. `recv` is the receiver
    /// identifier when syntactically recoverable (`self.table.lock()`
    /// → recv `table`; `registry().read()` → recv `registry`).
    Call {
        name: String,
        recv: Option<String>,
        has_args: bool,
        method: bool,
        line: u32,
    },
    /// `let` statement. `name` is `None` for destructuring patterns;
    /// `init` holds the initializer's events (including any trailing
    /// if/match blocks up to the terminating `;`).
    Bind {
        name: Option<String>,
        init: Vec<Event>,
        line: u32,
    },
    /// `drop(name)` — explicit release of a guard.
    DropCall { name: String, line: u32 },
    /// A non-`let`, non-control statement: its events die (for
    /// statement-temporary lock guards) when the statement ends.
    Stmt(Vec<Event>),
    /// A bare `{ ... }` block: bindings inside die at its end.
    Scope(Vec<Event>),
    /// `if`/`else if`/`else` chain or a `match`: exactly one arm runs.
    /// An `if` without `else` carries a trailing empty arm.
    Branch { arms: Vec<Vec<Event>>, line: u32 },
    /// `for`/`while`/`loop` body.
    Loop { body: Vec<Event>, line: u32 },
    /// An explicit `return` — this path ends here.
    Return { line: u32 },
}

/// Method names that are lock acquisitions when called with no
/// arguments: `m.lock()`, `rw.read()`, `rw.write()`.
pub fn is_acquire(name: &str, has_args: bool, method: bool) -> bool {
    method && !has_args && matches!(name, "lock" | "read" | "write")
}

/// Parse every function in a lexed file. Nested `fn`s get their own
/// entry and are skipped inside the enclosing body.
pub fn parse_file(file: &str, toks: &[Tok]) -> Vec<FnIr> {
    let tests = test_ranges(toks);
    let mut out = Vec::new();
    // (impl type, body close index) stack, innermost last.
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        impls.retain(|&(_, close)| i <= close);
        let t = &toks[i];
        if t.is(TokKind::Ident, "impl") {
            if let Some((ty, open)) = parse_impl_header(toks, i) {
                impls.push((ty, matching_close(toks, open)));
                i = open + 1;
                continue;
            }
        }
        if t.is(TokKind::Ident, "fn") {
            if let Some((name, open)) = fn_body(toks, i) {
                let close = matching_close(toks, open);
                out.push(FnIr {
                    name,
                    impl_ty: impls.last().map(|(ty, _)| ty.clone()),
                    file: file.to_string(),
                    line: t.line,
                    is_test: in_ranges(&tests, open),
                    body: parse_block(toks, open + 1, close),
                });
                // Keep scanning *inside* the body: nested `fn`s get
                // their own entry (parse_block skips them in the
                // parent's event tree).
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// `impl ... [for Type] { ...` → (type name, body-open index). The type
/// is the last generics-free identifier before the `{` (after `for` if
/// present, stopping at `where`).
fn parse_impl_header(toks: &[Tok], at: usize) -> Option<(String, usize)> {
    let depth = toks[at].depth;
    let mut angle = 0i32;
    let mut ty: Option<String> = None;
    let mut j = at + 1;
    while j < toks.len() {
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") if t.depth == depth && angle <= 0 => {
                return ty.map(|ty| (ty, j));
            }
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Ident, "where") if angle <= 0 => {
                // Type already collected; scan on for the `{` only.
                let open = toks[j..]
                    .iter()
                    .position(|t| t.is(TokKind::Punct, "{") && t.depth == depth)?;
                return ty.map(|ty| (ty, j + open));
            }
            (TokKind::Ident, "for" | "dyn") if angle <= 0 => {}
            (TokKind::Ident, _) if angle <= 0 => ty = Some(t.text.clone()),
            (TokKind::Punct, ";") if t.depth == depth => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// `fn` at `at` → (name, body-open index); `None` for bodiless
/// declarations (trait methods, extern blocks).
fn fn_body(toks: &[Tok], at: usize) -> Option<(String, usize)> {
    let name = toks.get(at + 1).filter(|t| t.kind == TokKind::Ident)?;
    let depth = toks[at].depth;
    let mut j = at + 2;
    while j < toks.len() {
        let t = &toks[j];
        if t.is(TokKind::Punct, ";") && t.depth == depth {
            return None;
        }
        if t.is(TokKind::Punct, "{") && t.depth == depth {
            return Some((name.text.clone(), j));
        }
        j += 1;
    }
    None
}

/// Is `toks[i]` the start of a call — ident followed by `(`?
fn is_call(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == TokKind::Ident
        && toks.get(i + 1).is_some_and(|t| t.is(TokKind::Punct, "("))
}

/// Receiver identifier of the method call at `i` (the ident before the
/// `.`, skipping one balanced `(...)` group: `registry().read()` →
/// `registry`).
fn call_receiver(toks: &[Tok], i: usize) -> Option<String> {
    if i < 2 || !toks[i - 1].is(TokKind::Punct, ".") {
        return None;
    }
    let mut j = i - 2;
    if toks[j].is(TokKind::Punct, ")") {
        // Skip back over the balanced group.
        let mut level = 1i32;
        while j > 0 && level > 0 {
            j -= 1;
            match toks[j].text.as_str() {
                ")" if toks[j].kind == TokKind::Punct => level += 1,
                "(" if toks[j].kind == TokKind::Punct => level -= 1,
                _ => {}
            }
        }
        if level != 0 || j == 0 {
            return None;
        }
        j -= 1;
    }
    (toks[j].kind == TokKind::Ident).then(|| toks[j].text.clone())
}

fn call_has_args(toks: &[Tok], i: usize) -> bool {
    toks.get(i + 2).is_some_and(|t| !t.is(TokKind::Punct, ")"))
}

/// Index just past the end of the statement starting at `from`: the
/// `;` at `depth` (consumed), or the close of a trailing block at
/// `depth` for block-ended statements, bounded by `end`.
fn stmt_end(toks: &[Tok], from: usize, depth: u32, end: usize) -> usize {
    let mut j = from;
    while j < end {
        let t = &toks[j];
        if t.is(TokKind::Punct, ";") && t.depth == depth {
            return j + 1;
        }
        if t.is(TokKind::Punct, "{") && t.depth == depth {
            let close = matching_close(toks, j);
            // `};` still belongs to the statement; a bare close ends it
            // unless an `else`/`.` chain continues the expression.
            let next = close + 1;
            if next < end
                && (toks[next].is(TokKind::Punct, ";")
                    || toks[next].is(TokKind::Ident, "else")
                    || toks[next].is(TokKind::Punct, ".")
                    || toks[next].is(TokKind::Punct, "?"))
            {
                j = next;
                continue;
            }
            return next.min(end);
        }
        j += 1;
    }
    end
}

/// Parse the token range `(start..end)` (exclusive of the enclosing
/// braces) into statement-grouped events.
fn parse_block(toks: &[Tok], start: usize, end: usize) -> Vec<Event> {
    let mut out = Vec::new();
    let depth = toks.get(start).map_or(0, |t| t.depth);
    let mut i = start;
    while i < end {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "fn") => {
                // Nested function: parsed separately by the file walker.
                match fn_body(toks, i) {
                    Some((_, open)) => i = matching_close(toks, open) + 1,
                    None => i += 1,
                }
            }
            (TokKind::Ident, "let") if !toks.get(i.wrapping_sub(1)).is_some_and(is_let_guard_pos) => {
                let (ev, next) = parse_let(toks, i, end);
                out.push(ev);
                i = next;
            }
            (TokKind::Ident, "if") => {
                let (ev, cond, next) = parse_if_chain(toks, i, end);
                if !cond.is_empty() {
                    // The condition is its own statement boundary:
                    // temporaries in it die before the arms run.
                    out.push(Event::Stmt(cond));
                }
                out.push(ev);
                i = next;
            }
            (TokKind::Ident, "match") => {
                let (ev, scrutinee, next) = parse_match(toks, i, end);
                if !scrutinee.is_empty() {
                    out.push(Event::Stmt(scrutinee));
                }
                if let Some(ev) = ev {
                    out.push(ev);
                }
                i = next;
            }
            (TokKind::Ident, "for" | "while" | "loop")
                if !toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is(TokKind::Punct, ".")) =>
            {
                let (ev, next) = parse_loop(toks, i, end);
                if let Some(ev) = ev {
                    out.push(ev);
                }
                i = next.max(i + 1);
            }
            (TokKind::Punct, "{") => {
                let close = matching_close(toks, i);
                out.push(Event::Scope(parse_block(toks, i + 1, close.min(end))));
                i = close + 1;
            }
            (TokKind::Punct, "}") => i += 1,
            _ => {
                // Expression statement: group its events so temporary
                // guards die at the `;`.
                let next = stmt_end(toks, i, depth, end);
                let events = parse_expr(toks, i, next, depth);
                if !events.is_empty() {
                    out.push(Event::Stmt(events));
                }
                i = next.max(i + 1);
            }
        }
    }
    out
}

/// True when the previous token means this `let` is inside `if let` /
/// `while let` (handled by the branch/loop parsers, not as a binding
/// statement).
fn is_let_guard_pos(prev: &Tok) -> bool {
    prev.is(TokKind::Ident, "if") || prev.is(TokKind::Ident, "while")
}

/// Extract flat events (calls, drops, returns, scopes) from
/// an expression range. Nested blocks become `Scope`s; `return <expr>`
/// emits the expression's events *before* the `Return`.
fn parse_expr(toks: &[Tok], start: usize, end: usize, _depth: u32) -> Vec<Event> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "return") => {
                let line = t.line;
                // Events of the returned expression run first.
                let inner = parse_expr(toks, i + 1, end, _depth);
                let had = !inner.is_empty();
                out.extend(inner);
                out.push(Event::Return { line });
                if had {
                    return out;
                }
                i += 1;
            }
            (TokKind::Ident, "if") => {
                let (ev, cond, next) = parse_if_chain(toks, i, end);
                out.extend(cond);
                out.push(ev);
                i = next;
            }
            (TokKind::Ident, "match") => {
                let (ev, scrutinee, next) = parse_match(toks, i, end);
                out.extend(scrutinee);
                if let Some(ev) = ev {
                    out.push(ev);
                }
                i = next;
            }
            (TokKind::Ident, "for" | "while" | "loop")
                if !toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is(TokKind::Punct, ".")) =>
            {
                let (ev, next) = parse_loop(toks, i, end);
                if let Some(ev) = ev {
                    out.push(ev);
                }
                i = next.max(i + 1);
            }
            (TokKind::Ident, "drop")
                if toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "("))
                    && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                    && toks.get(i + 3).is_some_and(|n| n.is(TokKind::Punct, ")")) =>
            {
                out.push(Event::DropCall {
                    name: toks[i + 2].text.clone(),
                    line: t.line,
                });
                i += 4;
            }
            (TokKind::Ident, _) if is_call(toks, i) => {
                out.push(Event::Call {
                    name: t.text.clone(),
                    recv: call_receiver(toks, i),
                    has_args: call_has_args(toks, i),
                    method: i > 0 && toks[i - 1].is(TokKind::Punct, "."),
                    line: t.line,
                });
                i += 1;
            }
            (TokKind::Punct, "{") => {
                let close = matching_close(toks, i);
                out.push(Event::Scope(parse_block(toks, i + 1, close.min(end))));
                i = close + 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// `let [mut] name = init ;` → `Bind`. Destructuring patterns get
/// `name: None`; the initializer is everything up to the statement end
/// (including trailing if/match blocks).
fn parse_let(toks: &[Tok], at: usize, end: usize) -> (Event, usize) {
    let depth = toks[at].depth;
    let mut j = at + 1;
    if toks.get(j).is_some_and(|n| n.is(TokKind::Ident, "mut")) {
        j += 1;
    }
    let name = match (toks.get(j), toks.get(j + 1)) {
        (Some(n), Some(after))
            if n.kind == TokKind::Ident
                && (after.is(TokKind::Punct, "=") || after.is(TokKind::Punct, ":")) =>
        {
            Some(n.text.clone())
        }
        _ => None,
    };
    let next = stmt_end(toks, at, depth, end);
    // Initializer events start strictly after the `=`: the pattern's
    // own tokens are binders, not part of the initializer.
    let eq = (j..next).find(|&k| {
        toks[k].is(TokKind::Punct, "=")
            && !toks.get(k + 1).is_some_and(|n| n.is(TokKind::Punct, "="))
            // `>` is NOT excluded: a type annotation can end with a
            // generic close (`let x: Vec<T> = ...`), and a real `>=`
            // can only occur after the initializer's own `=`.
            && !toks.get(k.wrapping_sub(1)).is_some_and(|p| {
                p.kind == TokKind::Punct && matches!(p.text.as_str(), "=" | "!" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
            })
    });
    let init = match eq {
        Some(eq) => parse_expr(toks, eq + 1, next, depth),
        None => Vec::new(),
    };
    (
        Event::Bind {
            name,
            init,
            line: toks[at].line,
        },
        next,
    )
}

/// `if cond { .. } [else if cond { .. }]* [else { .. }]` → one Branch.
/// Returns (branch, first-condition events, next index).
fn parse_if_chain(toks: &[Tok], at: usize, end: usize) -> (Event, Vec<Event>, usize) {
    let depth = toks[at].depth;
    let line = toks[at].line;
    let mut arms: Vec<Vec<Event>> = Vec::new();
    let mut first_cond: Vec<Event> = Vec::new();
    let mut i = at;
    let mut has_else = false;
    loop {
        // `i` points at `if`. Condition runs to the `{` at this depth.
        let Some(open_off) = toks[i + 1..end.min(toks.len())]
            .iter()
            .position(|t| t.is(TokKind::Punct, "{") && t.depth == depth)
        else {
            return (Event::Branch { arms, line }, first_cond, end);
        };
        let open = i + 1 + open_off;
        let cond = parse_expr(toks, i + 1, open, depth);
        let close = matching_close(toks, open);
        let mut arm = parse_block(toks, open + 1, close.min(end));
        if arms.is_empty() {
            first_cond = cond;
        } else {
            // Later conditions only evaluate on their own path.
            let mut with_cond = cond;
            with_cond.extend(arm);
            arm = with_cond;
        }
        arms.push(arm);
        let mut next = close + 1;
        if next < end && toks[next].is(TokKind::Ident, "else") {
            next += 1;
            if next < end && toks[next].is(TokKind::Ident, "if") {
                i = next;
                continue;
            }
            if next < end && toks[next].is(TokKind::Punct, "{") {
                let eclose = matching_close(toks, next);
                arms.push(parse_block(toks, next + 1, eclose.min(end)));
                has_else = true;
                next = eclose + 1;
            }
        }
        if !has_else {
            arms.push(Vec::new());
        }
        return (Event::Branch { arms, line }, first_cond, next.min(end));
    }
}

/// `match scrutinee { pat => expr, ... }` → Branch over the arm bodies.
/// Patterns are skipped (their idents are binders, not uses).
fn parse_match(toks: &[Tok], at: usize, end: usize) -> (Option<Event>, Vec<Event>, usize) {
    let depth = toks[at].depth;
    let line = toks[at].line;
    let Some(open_off) = toks[at + 1..end.min(toks.len())]
        .iter()
        .position(|t| t.is(TokKind::Punct, "{") && t.depth == depth)
    else {
        return (None, Vec::new(), at + 1);
    };
    let open = at + 1 + open_off;
    let scrutinee = parse_expr(toks, at + 1, open, depth);
    let close = matching_close(toks, open);
    let inner = toks[open].depth + 1;
    let mut arms: Vec<Vec<Event>> = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Find this arm's `=>` at the body depth.
        let Some(arrow_off) = toks[i..close].windows(2).position(|w| {
            w[0].is(TokKind::Punct, "=") && w[1].is(TokKind::Punct, ">") && w[0].depth == inner
        }) else {
            break;
        };
        let body_start = i + arrow_off + 2;
        // Arm body: a block, or an expression to the `,` at body depth.
        let (arm, next) = if toks
            .get(body_start)
            .is_some_and(|t| t.is(TokKind::Punct, "{"))
        {
            let bclose = matching_close(toks, body_start);
            let arm = parse_block(toks, body_start + 1, bclose.min(close));
            let mut next = bclose + 1;
            if toks.get(next).is_some_and(|t| t.is(TokKind::Punct, ",")) {
                next += 1;
            }
            (arm, next)
        } else {
            let mut j = body_start;
            while j < close && !(toks[j].is(TokKind::Punct, ",") && toks[j].depth == inner) {
                j += 1;
            }
            (parse_expr(toks, body_start, j, inner), j + 1)
        };
        arms.push(arm);
        i = next;
    }
    let next = close + 1;
    if arms.is_empty() {
        return (None, scrutinee, next);
    }
    (Some(Event::Branch { arms, line }), scrutinee, next)
}

/// `for pat in expr { .. }` / `while cond { .. }` / `loop { .. }`.
/// A `while` condition re-evaluates per iteration, so it goes at the
/// head of the body; a `for` header contributes no events.
fn parse_loop(toks: &[Tok], at: usize, end: usize) -> (Option<Event>, usize) {
    let depth = toks[at].depth;
    let line = toks[at].line;
    let kw = toks[at].text.as_str();
    if toks.get(at + 1).is_some_and(|n| n.is(TokKind::Punct, "<")) {
        // `for<'a>` HRTB, not a loop.
        return (None, at + 1);
    }
    let Some(open_off) = toks[at + 1..end.min(toks.len())]
        .iter()
        .position(|t| t.is(TokKind::Punct, "{") && t.depth == depth)
    else {
        return (None, at + 1);
    };
    let open = at + 1 + open_off;
    let close = matching_close(toks, open);
    let mut body = Vec::new();
    if kw == "while" {
        body.extend(parse_expr(toks, at + 1, open, depth));
    }
    body.extend(parse_block(toks, open + 1, close.min(end)));
    (Some(Event::Loop { body, line }), close + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn irs(src: &str) -> Vec<FnIr> {
        parse_file("crates/x/src/lib.rs", &lex(src).toks)
    }

    fn flat_calls(evs: &[Event], out: &mut Vec<String>) {
        for e in evs {
            match e {
                Event::Call { name, .. } => out.push(name.clone()),
                Event::Bind { init, .. } => flat_calls(init, out),
                Event::Stmt(es) | Event::Scope(es) => flat_calls(es, out),
                Event::Branch { arms, .. } => {
                    for a in arms {
                        flat_calls(a, out);
                    }
                }
                Event::Loop { body, .. } => flat_calls(body, out),
                _ => {}
            }
        }
    }

    #[test]
    fn functions_and_impl_types_are_found() {
        let src = r#"
            fn free() {}
            impl<B: Backend + Clone> PosixShim<B> {
                pub fn open(&self) -> Result<Fd> { helper() }
                fn entry(&self, fd: Fd) {}
            }
            impl Backend for Reactor<B> {
                fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> { x() }
            }
            trait T { fn decl_only(&self); }
        "#;
        let fns = irs(src);
        let quals: Vec<String> = fns.iter().map(|f| f.qual()).collect();
        assert_eq!(
            quals,
            vec![
                "free",
                "PosixShim::open",
                "PosixShim::entry",
                "Reactor::submit"
            ]
        );
    }

    #[test]
    fn nested_fns_are_separate_and_skipped_in_parent() {
        let src = "fn outer() { inner_call(); fn nested() { nested_call(); } after(); }";
        let fns = irs(src);
        assert_eq!(fns.len(), 2);
        let mut outer_calls = Vec::new();
        flat_calls(&fns[0].body, &mut outer_calls);
        assert_eq!(outer_calls, vec!["inner_call", "after"]);
    }

    #[test]
    fn branch_arms_fork_and_else_less_if_gets_empty_arm() {
        let src = r#"
            fn f() {
                if a() { b(); } else if c() { d(); } else { e(); }
                if g() { h(); }
            }
        "#;
        let fns = irs(src);
        let branches: Vec<&Event> = fns[0]
            .body
            .iter()
            .filter(|e| matches!(e, Event::Branch { .. }))
            .collect();
        assert_eq!(branches.len(), 2);
        if let Event::Branch { arms, .. } = branches[0] {
            assert_eq!(arms.len(), 3);
        }
        if let Event::Branch { arms, .. } = branches[1] {
            assert_eq!(arms.len(), 2, "implicit empty else arm");
            assert!(arms[1].is_empty());
        }
    }

    #[test]
    fn match_arms_and_scrutinee_split() {
        let src = r#"
            fn f(x: E) {
                match probe(x) {
                    E::A => handle_a(),
                    E::B { n } => { handle_b(n); }
                    _ => {}
                }
            }
        "#;
        let fns = irs(src);
        // scrutinee call first, then the branch.
        let mut saw_probe_before_branch = false;
        let mut arm_count = 0;
        for e in &fns[0].body {
            match e {
                Event::Stmt(es) => {
                    if es.iter().any(|e| matches!(e, Event::Call { name, .. } if name == "probe")) {
                        saw_probe_before_branch = arm_count == 0;
                    }
                }
                Event::Branch { arms, .. } => arm_count = arms.len(),
                _ => {}
            }
        }
        assert!(saw_probe_before_branch);
        assert_eq!(arm_count, 3);
    }

    #[test]
    fn receiver_extraction_handles_chains_and_paren_groups() {
        let src = r#"
            fn f(&self) {
                self.table.lock();
                registry().read();
                entry.lock();
            }
        "#;
        let fns = irs(src);
        let mut recvs = Vec::new();
        fn walk(evs: &[Event], out: &mut Vec<(String, Option<String>)>) {
            for e in evs {
                match e {
                    Event::Call { name, recv, .. } => out.push((name.clone(), recv.clone())),
                    Event::Stmt(es) | Event::Scope(es) => walk(es, out),
                    _ => {}
                }
            }
        }
        walk(&fns[0].body, &mut recvs);
        // (`registry()` itself is also a call event, receiver-less.)
        assert_eq!(
            recvs,
            vec![
                ("lock".into(), Some("table".into())),
                ("registry".into(), None),
                ("read".into(), Some("registry".into())),
                ("lock".into(), Some("entry".into())),
            ]
        );
    }

    #[test]
    fn return_expr_events_precede_the_return() {
        let src = "fn f() -> u32 { if a { return compute(); } other() }";
        let fns = irs(src);
        let Some(Event::Branch { arms, .. }) = fns[0].body.iter().find(|e| matches!(e, Event::Branch { .. }))
        else {
            panic!();
        };
        // The arm's `return compute();` is one statement group.
        let Some(Event::Stmt(es)) = arms[0].first() else {
            panic!("{:?}", arms[0]);
        };
        let pos_call = es.iter().position(|e| matches!(e, Event::Call { name, .. } if name == "compute"));
        let pos_ret = es.iter().position(|e| matches!(e, Event::Return { .. }));
        assert!(pos_call.unwrap() < pos_ret.unwrap(), "{es:?}");
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "#[test]\nfn t() { x(); }\nfn lib() { y(); }";
        let fns = irs(src);
        assert!(fns[0].is_test);
        assert!(!fns[1].is_test);
    }

    #[test]
    fn drop_events_appear() {
        let src = "fn f() { let g = m.lock(); fallible()?; drop(g); }";
        let fns = irs(src);
        fn saw_drop(evs: &[Event]) -> bool {
            evs.iter().any(|e| match e {
                Event::DropCall { name, .. } => name == "g",
                Event::Stmt(es) | Event::Scope(es) => saw_drop(es),
                Event::Bind { init, .. } => saw_drop(init),
                _ => false,
            })
        }
        assert!(saw_drop(&fns[0].body));
    }
}

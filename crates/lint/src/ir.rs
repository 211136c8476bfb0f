//! A lightweight statement/branch IR over the token stream.
//!
//! The token-level rules in [`crate::rules`] see one flat stream; the
//! interprocedural analyses in [`crate::locks`] (lock-order-inversion
//! and guard-across-io) need function boundaries, statement boundaries,
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
//!   exactly once, where they appear).
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

/// A call: `name(...)` or `recv.name(...)`.
#[derive(Debug)]
pub struct Call {
    pub name: String,
    /// The receiver identifier when syntactically recoverable
    /// (`self.table.lock()` → `table`; `registry().read()` →
    /// `registry`).
    pub recv: Option<String>,
    pub has_args: bool,
    /// `recv.name(..)` rather than a free `name(..)`.
    pub method: bool,
    pub line: u32,
}

impl Call {
    /// A lock acquisition: `m.lock()`, `rw.read()`, `rw.write()` with no
    /// arguments.
    pub fn is_acquire(&self) -> bool {
        self.method && !self.has_args && matches!(self.name.as_str(), "lock" | "read" | "write")
    }
}

/// One IR event. `Stmt`/`Scope`/`Branch`/`Loop` carry nested events.
#[derive(Debug)]
pub enum Event {
    Call(Call),
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

/// Every call in `evs`, recursively, in event order.
pub fn calls(evs: &[Event]) -> Vec<&Call> {
    let mut out = Vec::new();
    for e in evs {
        match e {
            Event::Call(c) => out.push(c),
            Event::Bind { init: es, .. } | Event::Stmt(es) | Event::Scope(es) | Event::Loop { body: es, .. } => {
                out.extend(calls(es));
            }
            Event::Branch { arms, .. } => out.extend(arms.iter().flat_map(|a| calls(a))),
            Event::DropCall { .. } | Event::Return { .. } => {}
        }
    }
    out
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

/// Change in `(`/`[` nesting at `t`: a `;` or `{` inside a call's
/// arguments or an array (`[0u8; 4]`, `f(|| { .. })`) is not the
/// statement's own.
fn nesting(t: &Tok) -> i32 {
    match (t.kind, t.text.as_str()) {
        (TokKind::Punct, "(" | "[") => 1,
        (TokKind::Punct, ")" | "]") => -1,
        _ => 0,
    }
}

/// Index just past the end of the statement starting at `from`: the
/// `;` at `depth` outside `(`/`[` (consumed), or the close of a
/// trailing block there for block-ended statements, bounded by `end`.
fn stmt_end(toks: &[Tok], from: usize, depth: u32, end: usize) -> usize {
    let mut level = 0i32;
    let mut j = from;
    while j < end {
        let t = &toks[j];
        level += nesting(t);
        if t.depth != depth || level > 0 {
            j += 1;
            continue;
        }
        if t.is(TokKind::Punct, ";") {
            return j + 1;
        }
        if t.is(TokKind::Punct, "{") {
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
            (TokKind::Ident, "let") => {
                i = parse_let(toks, i, end, &mut out);
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
                let events = parse_expr(toks, i, next);
                if !events.is_empty() {
                    out.push(Event::Stmt(events));
                }
                i = next.max(i + 1);
            }
        }
    }
    out
}

/// Extract flat events (calls, drops, returns, scopes) from
/// an expression range. Nested blocks become `Scope`s; `return <expr>`
/// emits the expression's events *before* the `Return`.
fn parse_expr(toks: &[Tok], start: usize, end: usize) -> Vec<Event> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "return") => {
                let line = t.line;
                // Events of the returned expression run first.
                let inner = parse_expr(toks, i + 1, end);
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
                out.push(Event::Call(Call {
                    name: t.text.clone(),
                    recv: call_receiver(toks, i),
                    has_args: call_has_args(toks, i),
                    method: i > 0 && toks[i - 1].is(TokKind::Punct, "."),
                    line: t.line,
                }));
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

/// The `=` that ends the pattern (and type) of a `let`, `if let` or
/// `while let` whose pattern starts at `from`: the first lone `=` at
/// `depth` outside generic brackets (`Iterator<Item = u8>`). A struct
/// pattern's braces sit deeper, so they are skipped; a `;` at the
/// statement's own nesting means there is no initializer.
fn pattern_eq(toks: &[Tok], from: usize, end: usize, depth: u32) -> Option<usize> {
    let (mut level, mut angle) = (0i32, 0i32);
    for k in from..end {
        let t = &toks[k];
        level += nesting(t);
        if t.depth != depth || t.kind != TokKind::Punct {
            continue;
        }
        let prev = toks[k - 1].text.as_str();
        match t.text.as_str() {
            "<" => angle += 1,
            ">" if prev != "-" => angle -= 1,
            ";" if level <= 0 => return None,
            // `>` may precede it (`let x: Vec<T> = ..`); `..=` is a
            // range pattern and compound operators only follow it.
            "=" if angle <= 0
                && !toks.get(k + 1).is_some_and(|n| n.is(TokKind::Punct, "="))
                && !matches!(prev, "=" | "!" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" | ".") =>
            {
                return Some(k)
            }
            _ => {}
        }
    }
    None
}

/// Where the expression of the `if`/`while`/`for` header at `at`
/// starts: past the pattern of `if let <pat> =`, `while let <pat> =`
/// or `for <pat> in`, whose own braces (`Foo { .. }`) are not the body.
fn header_expr(toks: &[Tok], at: usize, end: usize) -> usize {
    let depth = toks[at].depth;
    let sep = if toks[at].is(TokKind::Ident, "for") {
        (at + 1..end).find(|&k| toks[k].is(TokKind::Ident, "in") && toks[k].depth == depth)
    } else if toks.get(at + 1).is_some_and(|t| t.is(TokKind::Ident, "let")) {
        pattern_eq(toks, at + 2, end, depth)
    } else {
        None
    };
    sep.map_or(at + 1, |k| k + 1)
}

/// The `{` opening the body of a header whose expression starts at
/// `from`: the first `{` at `depth` outside parentheses and brackets
/// (a closure block in a call argument is not the body).
fn body_open(toks: &[Tok], from: usize, end: usize, depth: u32) -> Option<usize> {
    let mut level = 0i32;
    (from..end.min(toks.len())).find(|&k| {
        level += nesting(&toks[k]);
        level <= 0 && toks[k].is(TokKind::Punct, "{") && toks[k].depth == depth
    })
}

/// `let [mut] name = init ;` → `Bind`, pushed onto `out`; returns the
/// index past the statement. Destructuring patterns get `name: None`;
/// the initializer is everything up to the statement end (including
/// trailing if/match blocks). A let-else adds a `Branch` after the
/// `Bind`: fall through, or run the diverging `else` block.
fn parse_let(toks: &[Tok], at: usize, end: usize, out: &mut Vec<Event>) -> usize {
    let depth = toks[at].depth;
    let line = toks[at].line;
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
    // Initializer events start strictly after the `=`: the pattern's
    // own tokens are binders, not part of the initializer.
    let Some(eq) = pattern_eq(toks, j, end, depth) else {
        out.push(Event::Bind {
            name,
            init: Vec::new(),
            line,
        });
        return stmt_end(toks, at, depth, end);
    };
    let next = stmt_end(toks, eq + 1, depth, end);
    // A let-else initializer cannot end in `}`, so an `else` at the
    // let's depth that does not follow one starts the diverging block.
    let els = (eq + 1..next).find(|&k| {
        toks[k].is(TokKind::Ident, "else")
            && toks[k].depth == depth
            && !toks[k - 1].is(TokKind::Punct, "}")
    });
    out.push(Event::Bind {
        name,
        init: parse_expr(toks, eq + 1, els.unwrap_or(next)),
        line,
    });
    if let Some(k) = els.filter(|&k| toks.get(k + 1).is_some_and(|t| t.is(TokKind::Punct, "{"))) {
        let close = matching_close(toks, k + 1);
        out.push(Event::Branch {
            arms: vec![Vec::new(), parse_block(toks, k + 2, close.min(end))],
            line: toks[k].line,
        });
    }
    next
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
        // `i` points at `if`. Condition runs to the body's `{`.
        let from = header_expr(toks, i, end);
        let Some(open) = body_open(toks, from, end, depth) else {
            return (Event::Branch { arms, line }, first_cond, end);
        };
        let cond = parse_expr(toks, from, open);
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
    let Some(open) = body_open(toks, at + 1, end, depth) else {
        return (None, Vec::new(), at + 1);
    };
    let scrutinee = parse_expr(toks, at + 1, open);
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
            (parse_expr(toks, body_start, j), j + 1)
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
    let from = header_expr(toks, at, end);
    let Some(open) = body_open(toks, from, end, depth) else {
        return (None, at + 1);
    };
    let close = matching_close(toks, open);
    let mut body = Vec::new();
    if kw == "while" {
        body.extend(parse_expr(toks, from, open));
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

    fn calls_of(src: &str) -> Vec<String> {
        calls(&irs(src)[0].body).iter().map(|c| c.name.clone()).collect()
    }

    fn is_call(e: &Event, name: &str) -> bool {
        matches!(e, Event::Call(c) if c.name == name)
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
        assert_eq!(irs(src).len(), 2);
        assert_eq!(calls_of(src), ["inner_call", "after"]);
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
                    if es.iter().any(|e| is_call(e, "probe")) {
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
        let recvs: Vec<_> = calls(&fns[0].body)
            .iter()
            .map(|c| (c.name.clone(), c.recv.clone()))
            .collect();
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
        let pos_call = es.iter().position(|e| is_call(e, "compute"));
        let pos_ret = es.iter().position(|e| matches!(e, Event::Return { .. }));
        assert!(pos_call.unwrap() < pos_ret.unwrap(), "{es:?}");
    }

    #[test]
    fn let_struct_pattern_does_not_end_the_statement() {
        let src = "fn f(&self) { let Foo { a, b } = self.load(); after(a, b); }";
        let fns = irs(src);
        let Some(Event::Bind { init, name: None, .. }) = fns[0].body.first() else {
            panic!("{:?}", fns[0].body);
        };
        assert!(matches!(&init[..], [e] if is_call(e, "load")), "{init:?}");
        assert_eq!(calls_of(src), ["load", "after"]);
    }

    #[test]
    fn let_else_is_a_bind_then_a_diverging_branch() {
        let src = "fn f(&self) { let Some(S { x }) = self.get() else { return bail(); }; after(x); }";
        let fns = irs(src);
        let [Event::Bind { init, .. }, Event::Branch { arms, .. }, Event::Stmt(_)] = &fns[0].body[..] else {
            panic!("{:?}", fns[0].body);
        };
        assert!(matches!(&init[..], [e] if is_call(e, "get")), "{init:?}");
        assert!(arms[0].is_empty());
        assert!(matches!(arms[1].last(), Some(Event::Stmt(es)) if matches!(es.last(), Some(Event::Return { .. }))));
        assert_eq!(calls_of(src), ["get", "bail", "after"]);
    }

    #[test]
    fn if_let_struct_pattern_braces_are_not_the_body() {
        let src = "fn f(&self) { if let Foo { a } = self.probe() { inside(a); } after(); }";
        let fns = irs(src);
        let [Event::Stmt(cond), Event::Branch { arms, .. }, Event::Stmt(_)] = &fns[0].body[..] else {
            panic!("{:?}", fns[0].body);
        };
        assert!(matches!(&cond[..], [e] if is_call(e, "probe")), "{cond:?}");
        assert_eq!(arms.len(), 2);
        assert_eq!(calls_of(src), ["probe", "inside", "after"]);
    }

    #[test]
    fn loop_pattern_braces_are_not_the_body() {
        let src = "fn f(&self) { while let Some(Foo { a }) = it.next() { inside(a); } after(); }";
        assert_eq!(calls_of(src), ["next", "inside", "after"]);
        let src = "fn f(&self) { for Foo { a } in self.items() { inside(a); } after(); }";
        assert_eq!(calls_of(src), ["inside", "after"]);
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

//! ticket-leak / ticket-double-drain: path-sensitive dataflow over
//! async I/O tickets.
//!
//! A `let`-bound value whose initializer calls `submit_async` /
//! `submit_tracked` is a *ticket* (a `Vec` of them when the initializer
//! also `collect`s). The contract is linear: every path through the
//! function must consume each ticket exactly once — `wait()`,
//! `drain_retried(...)`, moving it into a collection or call all count,
//! as does an explicit `drop` (a *visible* abandon). Probe calls
//! (`is_complete`, `id`) do not consume.
//!
//! The walker forks the abstract state at every `if`/`match` arm,
//! checks `?` and `return` edges against the pending set, walks loop
//! bodies twice (the classic 2-iteration abstraction, so draining an
//! outer ticket *inside* a loop is caught as a double drain), and
//! treats a `for` loop whose header moves a ticket *collection* as a
//! draining loop: a `?` or `return` inside it abandons the tickets not
//! yet reached by the iterator — the exact shape of the
//! `read_logs_whole` bug this rule was built from.
//!
//! Deliberate approximations (kept because they err toward silence or
//! have no counterpart in this codebase): tickets received as function
//! parameters are not tracked; `break` is invisible, so a loop that
//! drains and then breaks looks like a double drain (none exist here);
//! `_`-prefixed bindings opt out.

use std::collections::{BTreeMap, HashSet};

use crate::ir::{Event, FnIr};
use crate::rules::{RawFinding, RuleId};

/// Abstract state of one tracked ticket on one path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum TState {
    Pending { sub_line: u32, collection: bool },
    Consumed { sub_line: u32, at: u32 },
}

type Path = BTreeMap<String, TState>;

const MAX_PATHS: usize = 64;

/// Method names that inspect a ticket without consuming it.
const PROBES: &[&str] = &["is_complete", "id"];

fn contains_call(evs: &[Event], names: &[&str]) -> bool {
    evs.iter().any(|e| match e {
        Event::Call { name, .. } => names.contains(&name.as_str()),
        Event::Bind { init, .. } => contains_call(init, names),
        Event::Stmt(es) | Event::Scope(es) => contains_call(es, names),
        Event::Branch { arms, .. } => arms.iter().any(|a| contains_call(a, names)),
        Event::Loop { body, .. } => contains_call(body, names),
        _ => false,
    })
}

struct Walker<'a> {
    f: &'a FnIr,
    findings: Vec<RawFinding>,
    emitted: HashSet<(RuleId, String, u32)>,
    /// Ticket collections being drained by enclosing `for` loops:
    /// (name, submit line, loop line).
    draining: Vec<(String, u32, u32)>,
}

impl<'a> Walker<'a> {
    fn emit(&mut self, rule: RuleId, key: &str, line: u32, message: String, trace: Vec<String>) {
        if self.emitted.insert((rule, key.to_string(), line)) {
            self.findings.push(RawFinding {
                rule,
                line,
                message,
                trace,
            });
        }
    }

    fn leak(&mut self, name: &str, sub_line: u32, line: u32, how: &str) {
        // A double-drain already reported for this ticket subsumes the
        // leak the zero-iteration loop path would add; one actionable
        // finding per ticket.
        if self
            .emitted
            .iter()
            .any(|(r, n, _)| *r == RuleId::TicketDoubleDrain && n == name)
        {
            return;
        }
        let file = self.f.file.clone();
        self.emit(
            RuleId::TicketLeak,
            name,
            line,
            format!(
                "async ticket `{name}` (submitted line {sub_line}) is leaked: {how} leaves it \
                 undrained — every path must consume it exactly once (wait / drain_retried / \
                 move, or an explicit drop)"
            ),
            vec![
                format!("{file}:{sub_line}: ticket `{name}` submitted here"),
                format!("{file}:{line}: this path exits with `{name}` still pending"),
            ],
        );
    }

    /// `?`/`return` while a draining loop is on the stack abandons the
    /// remainder of the moved collection.
    fn exit_checks(&mut self, paths: &[Path], line: u32, how: &str) {
        let mut pend: Vec<(String, u32)> = Vec::new();
        for p in paths {
            for (n, s) in p {
                if let TState::Pending { sub_line, .. } = s {
                    if !pend.iter().any(|(pn, _)| pn == n) {
                        pend.push((n.clone(), *sub_line));
                    }
                }
            }
        }
        for (n, sub_line) in pend {
            self.leak(&n, sub_line, line, how);
        }
        let drains = self.draining.clone();
        for (coll, sub_line, loop_line) in drains {
            let file = self.f.file.clone();
            self.emit(
                RuleId::TicketLeak,
                &coll,
                line,
                format!(
                    "{how} inside the loop (line {loop_line}) draining ticket collection \
                     `{coll}` (submitted line {sub_line}) abandons the tickets the iterator \
                     has not reached yet; drain every ticket before propagating the error"
                ),
                vec![
                    format!("{file}:{sub_line}: tickets `{coll}` submitted here"),
                    format!("{file}:{loop_line}: loop takes ownership of `{coll}`"),
                    format!("{file}:{line}: early exit abandons the undrained remainder"),
                ],
            );
        }
    }

    /// Consume `name` on every path (a mention = a move).
    fn consume(&mut self, paths: &mut [Path], name: &str, line: u32) {
        for p in paths.iter_mut() {
            match p.get(name) {
                Some(TState::Pending { sub_line, .. }) => {
                    let sub_line = *sub_line;
                    p.insert(
                        name.to_string(),
                        TState::Consumed { sub_line, at: line },
                    );
                }
                Some(TState::Consumed { sub_line, at }) => {
                    let (sub_line, at) = (*sub_line, *at);
                    let file = self.f.file.clone();
                    self.emit(
                        RuleId::TicketDoubleDrain,
                        name,
                        line,
                        format!(
                            "async ticket `{name}` (submitted line {sub_line}, drained line \
                             {at}) is drained again here; a ticket completes exactly once — \
                             the second wait blocks forever or observes a stale slot"
                        ),
                        vec![
                            format!("{file}:{sub_line}: ticket `{name}` submitted here"),
                            format!("{file}:{at}: first drained here"),
                            format!("{file}:{line}: drained again here"),
                        ],
                    );
                }
                None => {}
            }
        }
    }

    /// Walk events over a set of paths; returns the surviving
    /// (falling-through) paths — empty when every path returned.
    fn walk(&mut self, evs: &[Event], mut paths: Vec<Path>) -> Vec<Path> {
        let mut k = 0usize;
        while k < evs.len() {
            if paths.is_empty() {
                return paths;
            }
            match &evs[k] {
                Event::Mention { name, line } => {
                    // A mention directly followed by a probe call on the
                    // same name inspects without consuming.
                    if let Some(Event::Call {
                        name: cname,
                        recv: Some(r),
                        ..
                    }) = evs.get(k + 1)
                    {
                        if PROBES.contains(&cname.as_str()) && r == name {
                            k += 2;
                            continue;
                        }
                    }
                    self.consume(&mut paths, name, *line);
                }
                Event::Call { .. } => {}
                Event::Bind { name, init, line } => {
                    paths = self.walk(init, paths);
                    if contains_call(init, &["submit_async", "submit_tracked"]) {
                        if let Some(n) = name {
                            if !n.starts_with('_') {
                                let collection = contains_call(init, &["collect"]);
                                for p in paths.iter_mut() {
                                    if let Some(TState::Pending { sub_line, .. }) = p.get(n) {
                                        let sub_line = *sub_line;
                                        self.leak(
                                            n,
                                            sub_line,
                                            *line,
                                            "rebinding the name while it is still pending",
                                        );
                                    }
                                    p.insert(
                                        n.clone(),
                                        TState::Pending {
                                            sub_line: *line,
                                            collection,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                Event::DropCall { name, line } => {
                    // An explicit drop is a visible, deliberate abandon.
                    for p in paths.iter_mut() {
                        if let Some(TState::Pending { sub_line, .. }) = p.get(name) {
                            let sub_line = *sub_line;
                            p.insert(
                                name.clone(),
                                TState::Consumed {
                                    sub_line,
                                    at: *line,
                                },
                            );
                        }
                    }
                }
                Event::Stmt(es) | Event::Scope(es) => {
                    paths = self.walk(es, paths);
                }
                Event::Branch { arms, .. } => {
                    let mut merged: Vec<Path> = Vec::new();
                    for arm in arms {
                        for p in self.walk(arm, paths.clone()) {
                            if !merged.contains(&p) {
                                merged.push(p);
                            }
                        }
                    }
                    merged.truncate(MAX_PATHS);
                    paths = merged;
                }
                Event::Loop {
                    body,
                    header_mentions,
                    line,
                } => {
                    // A `for` header that moves a pending collection is
                    // a draining loop; a pending single ticket moved by
                    // the header is an ordinary consumption.
                    let mut opened = 0usize;
                    for h in header_mentions {
                        let is_coll = paths.iter().any(|p| {
                            matches!(
                                p.get(h),
                                Some(TState::Pending {
                                    collection: true,
                                    ..
                                })
                            )
                        });
                        if let Some(TState::Pending { sub_line, .. }) =
                            paths.first().and_then(|p| p.get(h)).cloned()
                        {
                            if is_coll {
                                self.draining.push((h.clone(), sub_line, *line));
                                opened += 1;
                            }
                        }
                        self.consume(&mut paths, h, *line);
                    }
                    // 2-iteration abstraction: zero, one, and two passes
                    // all remain live states.
                    let once = self.walk(body, paths.clone());
                    let twice = self.walk(body, once.clone());
                    for p in once.into_iter().chain(twice) {
                        if !paths.contains(&p) {
                            paths.push(p);
                        }
                    }
                    paths.truncate(MAX_PATHS);
                    for _ in 0..opened {
                        self.draining.pop();
                    }
                }
                Event::Try { line } => {
                    self.exit_checks(&paths, *line, "the `?` early-return edge here");
                }
                Event::Return { line } => {
                    self.exit_checks(&paths, *line, "the `return` here");
                    return Vec::new();
                }
            }
            k += 1;
        }
        paths
    }
}

/// Run the ticket-lifecycle rules over one function.
pub fn analyze_fn(f: &FnIr) -> Vec<RawFinding> {
    let mut w = Walker {
        f,
        findings: Vec::new(),
        emitted: HashSet::new(),
        draining: Vec::new(),
    };
    let survivors = w.walk(&f.body, vec![Path::new()]);
    let mut pend: Vec<(String, u32)> = Vec::new();
    for p in &survivors {
        for (n, s) in p {
            if let TState::Pending { sub_line, .. } = s {
                if !pend.iter().any(|(pn, _)| pn == n) {
                    pend.push((n.clone(), *sub_line));
                }
            }
        }
    }
    for (n, sub_line) in pend {
        w.leak(&n, sub_line, sub_line, "falling off the end of the function");
    }
    w.findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_file;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<RawFinding> {
        let toks = lex(src).toks;
        let fns = parse_file("crates/x/src/lib.rs", &toks);
        fns.iter().flat_map(analyze_fn).collect()
    }

    fn rules(f: &[RawFinding]) -> Vec<RuleId> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn drained_ticket_is_clean() {
        let src = r#"
            fn ok(&self) -> Result<()> {
                let t = self.backend.submit_async(&batch);
                let outcomes = t.wait();
                check(outcomes)
            }
        "#;
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn early_return_with_pending_ticket_leaks() {
        let src = r#"
            fn bad(&self, cold: bool) -> Result<()> {
                let t = self.backend.submit_async(&batch);
                if cold {
                    return Err(PlfsError::Backend);
                }
                let outcomes = t.wait();
                check(outcomes)
            }
        "#;
        let f = run(src);
        assert_eq!(rules(&f), vec![RuleId::TicketLeak], "{f:?}");
        assert!(f[0].message.contains("`return`"), "{}", f[0].message);
    }

    #[test]
    fn question_mark_with_pending_ticket_leaks() {
        let src = r#"
            fn bad(&self) -> Result<()> {
                let t = self.backend.submit_async(&batch);
                self.prepare()?;
                let outcomes = t.wait();
                check(outcomes)
            }
        "#;
        let f = run(src);
        assert_eq!(rules(&f), vec![RuleId::TicketLeak], "{f:?}");
    }

    #[test]
    fn fall_off_end_leaks_at_the_bind_line() {
        let src = "fn bad(&self) {\n let t = self.backend.submit_async(&b);\n}";
        let f = run(src);
        assert_eq!(rules(&f), vec![RuleId::TicketLeak]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn consumed_on_every_branch_is_clean() {
        let src = r#"
            fn ok(&self, fast: bool) {
                let t = submit_tracked(&self.backend, batch);
                if fast { tickets.push(t); } else { let o = t.wait(); }
            }
        "#;
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn consumed_on_one_branch_only_leaks() {
        let src = r#"
            fn bad(&self, fast: bool) {
                let t = submit_tracked(&self.backend, batch);
                if fast { let o = t.wait(); }
            }
        "#;
        let f = run(src);
        assert_eq!(rules(&f), vec![RuleId::TicketLeak], "{f:?}");
    }

    #[test]
    fn sequential_double_drain_is_flagged() {
        let src = r#"
            fn bad(&self) {
                let t = self.backend.submit_async(&b);
                let first = t.wait();
                let second = t.wait();
            }
        "#;
        let f = run(src);
        assert_eq!(rules(&f), vec![RuleId::TicketDoubleDrain], "{f:?}");
        assert_eq!(f[0].trace.len(), 3);
    }

    #[test]
    fn draining_outer_ticket_inside_a_loop_is_a_double_drain() {
        let src = r#"
            fn bad(&self) {
                let t = self.backend.submit_async(&b);
                for attempt in attempts {
                    let o = t.wait();
                }
            }
        "#;
        let f = run(src);
        assert_eq!(rules(&f), vec![RuleId::TicketDoubleDrain], "{f:?}");
    }

    #[test]
    fn question_mark_inside_collection_drain_loop_leaks_remainder() {
        let src = r#"
            fn bad(&self, chunks: &[Chunk]) -> Result<Vec<Entry>> {
                let tickets: Vec<Ticket> = chunks.iter().map(|c| submit_tracked(b, c)).collect();
                let mut out = Vec::new();
                for (chunk, ticket) in chunks.iter().zip(tickets) {
                    for outcome in drain_retried(b, rebuild(chunk), ticket) {
                        out.push(decode(as_data(outcome)?)?);
                    }
                }
                Ok(out)
            }
        "#;
        let f = run(src);
        assert!(
            f.iter().any(|x| x.rule == RuleId::TicketLeak && x.message.contains("abandons")),
            "{f:?}"
        );
    }

    #[test]
    fn deferred_error_drain_all_shape_is_clean() {
        let src = r#"
            fn ok(&self, chunks: &[Chunk]) -> Result<Vec<Entry>> {
                let tickets: Vec<Ticket> = chunks.iter().map(|c| submit_tracked(b, c)).collect();
                let mut out = Vec::new();
                let mut err = None;
                for (chunk, ticket) in chunks.iter().zip(tickets) {
                    for outcome in drain_retried(b, rebuild(chunk), ticket) {
                        match decode(outcome) {
                            Ok(e) => out.push(e),
                            Err(e) => { if err.is_none() { err = Some(e); } }
                        }
                    }
                }
                match err { Some(e) => Err(e), None => Ok(out) }
            }
        "#;
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn underscore_prefix_and_probes_are_exempt() {
        let src = r#"
            fn ok(&self) {
                let _fire_and_forget = self.backend.submit_async(&b);
                let t = self.backend.submit_async(&c);
                while !t.is_complete() { spin(); }
                let o = t.wait();
            }
        "#;
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn explicit_drop_counts_as_consumption() {
        let src = r#"
            fn ok(&self) {
                let t = self.backend.submit_async(&b);
                drop(t);
            }
        "#;
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn rebinding_a_pending_ticket_leaks_the_first() {
        let src = r#"
            fn bad(&self) {
                let t = self.backend.submit_async(&a);
                let t = self.backend.submit_async(&b);
                let o = t.wait();
            }
        "#;
        let f = run(src);
        assert_eq!(rules(&f), vec![RuleId::TicketLeak], "{f:?}");
        assert!(f[0].message.contains("rebinding"), "{}", f[0].message);
    }
}

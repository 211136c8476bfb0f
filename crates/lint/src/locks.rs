//! The semantic rules: lock-order-inversion and guard-across-io.
//!
//! lock-order-inversion is interprocedural lock-order checking against
//! the authoritative hierarchy in DESIGN.md §5i.
//!
//! Every production lock acquisition (`m.lock()` / `rw.read()` /
//! `rw.write()` with no arguments) must map to a *lock class* — a row
//! of the §5i table keyed by (file, receiver identifier). The analysis
//! then:
//!
//! 1. computes, per function, the set of classes it acquires
//!    *transitively* (through the [`crate::callgraph`] edges), with a
//!    shortest witness chain per class;
//! 2. walks each function path-sensitively — guards bound by `let`
//!    live until their scope closes, `drop(g)`, or shadowing; unbound
//!    statement temporaries die at the `;`; `if`/`match` arms fork the
//!    held set and non-returning arms merge back — recording an edge
//!    `A → B` whenever class `B` is acquired (directly or through a
//!    call) while a guard of class `A` is live;
//! 3. reports a finding at the acquiring site when an edge violates
//!    the rank order (held rank ≥ acquired rank), when a class is
//!    re-acquired while already held (self-deadlock with
//!    non-reentrant `std` locks), and one finding per *cycle* in the
//!    class digraph, with both call chains as a counterexample trace.
//!
//! Acquisition sites that match no row are themselves findings — the
//! table stays authoritative the same way the §5d–§5f tables do (the
//! reverse direction, stale rows, is checked by the caller via
//! [`LockReport::used_rows`]).
//!
//! The same path-sensitive walk also checks guard-across-io, blind to
//! lock classes: any live guard at a call that is backend I/O, or
//! reaches it through the call graph, is a finding.

use std::collections::{HashMap, HashSet};

use crate::callgraph::CallGraph;
use crate::drift::LockRow;
use crate::ir::{calls, Call, Event, FnIr};
use crate::rules::{RawFinding, RuleId, BACKEND_OPS, VFS_OPS};

/// Outcome of the workspace lock analysis.
pub struct LockReport {
    /// (file, finding) pairs, ready to merge into per-file lints.
    pub findings: Vec<(String, RawFinding)>,
    /// Row indices (into the §5i table) matched by at least one
    /// acquisition site — the complement is stale documentation.
    pub used_rows: HashSet<usize>,
}

/// A live guard on the abstract path. `row` is its §5i class; an
/// unclassified guard (`None`) still counts for guard-across-io.
#[derive(Clone)]
struct Held {
    row: Option<usize>,
    var: Option<String>,
    line: u32,
}

/// Witness that `fn` (transitively) acquires a class: the call chain
/// (qualified names, starting at the function itself) and the ultimate
/// acquisition site.
#[derive(Clone)]
struct AcqWit {
    chain: Vec<String>,
    file: String,
    line: u32,
}

/// Witness for one class edge `from → to`, kept first-come per edge
/// for cycle counterexamples.
struct EdgeWit {
    holder_qual: String,
    holder_file: String,
    held_line: u32,
    held_var: Option<String>,
    call_line: u32,
    acq: AcqWit,
}

fn classify(rows: &[LockRow], file: &str, recv: Option<&str>) -> Option<usize> {
    let recv = recv?;
    rows.iter().position(|r| {
        file.ends_with(r.file.as_str()) && r.receivers.iter().any(|x| x == recv)
    })
}

struct Walker<'a> {
    fns: &'a [FnIr],
    graph: &'a CallGraph<'a>,
    rows: &'a [LockRow],
    summary: &'a [HashMap<usize, AcqWit>],
    cur: usize,
    /// Whether guard-across-io applies to the current function.
    guard_io: bool,
    findings: Vec<(String, RawFinding)>,
    /// First witness per class edge, across the whole workspace.
    edges: HashMap<(usize, usize), EdgeWit>,
    /// Finding dedup: (from row, to row, line) for lock order, and
    /// (function, line) for guard-across-io.
    reported: HashSet<(usize, usize, u32)>,
    io_reported: HashSet<(usize, u32)>,
}

impl<'a> Walker<'a> {
    fn cur_fn(&self) -> &FnIr {
        &self.fns[self.cur]
    }

    /// Record an edge `held → to` from every classified live guard.
    fn edges_from(&mut self, held: &[Held], to: usize, call_line: u32, acq: &AcqWit) {
        for h in held {
            if let Some(from) = h.row {
                self.edge(h, from, to, call_line, acq);
            }
        }
    }

    /// Record the edge `from → to` (`from` is `held`'s class) and emit a
    /// rank/self finding when it violates the hierarchy. `call_line` is
    /// the site in the current function; `acq` describes where the
    /// acquisition finally happens.
    fn edge(&mut self, held: &Held, from: usize, to: usize, call_line: u32, acq: &AcqWit) {
        let f = &self.fns[self.cur];
        let (from_row, to_row) = (&self.rows[from], &self.rows[to]);
        self.edges.entry((from, to)).or_insert_with(|| EdgeWit {
            holder_qual: f.qual(),
            holder_file: f.file.clone(),
            held_line: held.line,
            held_var: held.var.clone(),
            call_line,
            acq: acq.clone(),
        });
        let violation = if from == to {
            Some(format!(
                "`{}` re-acquires lock class `{}` already held since line {} — \
                 std locks are not reentrant, this self-deadlocks",
                f.qual(),
                to_row.class,
                held.line
            ))
        } else if from_row.rank >= to_row.rank {
            Some(format!(
                "lock-order inversion: acquiring `{}` (rank {}) while holding `{}` \
                 (rank {}, guard `{}` bound line {}) — DESIGN.md §5i orders `{}` \
                 before `{}`",
                to_row.class,
                to_row.rank,
                from_row.class,
                from_row.rank,
                held.var.as_deref().unwrap_or("<temp>"),
                held.line,
                to_row.class,
                from_row.class
            ))
        } else {
            None
        };
        if let Some(message) = violation {
            if self.reported.insert((from, to, call_line)) {
                let mut trace = vec![format!(
                    "{}:{}: `{}` acquired here (guard `{}`)",
                    f.file,
                    held.line,
                    from_row.class,
                    held.var.as_deref().unwrap_or("<temp>")
                )];
                if acq.chain.len() > 1 {
                    trace.push(format!(
                        "{}:{}: call chain {} runs under the guard",
                        f.file,
                        call_line,
                        acq.chain.join(" -> ")
                    ));
                }
                trace.push(format!(
                    "{}:{}: `{}` acquired here",
                    acq.file, acq.line, to_row.class
                ));
                self.findings.push((
                    f.file.clone(),
                    RawFinding {
                        rule: RuleId::LockOrderInversion,
                        line: call_line,
                        message,
                        trace,
                    },
                ));
            }
        }
    }

    /// guard-across-io at a non-acquiring call while `held` (the first
    /// live guard) is live: flag the call when it is backend I/O itself,
    /// or reaches it through the call graph (the chain is the trace).
    fn guard_io_at(&mut self, held: &Held, call: &Call) {
        let (name, line) = (call.name.as_str(), call.line);
        let chain = if is_direct_io(call) {
            Vec::new()
        } else {
            let graph = self.graph;
            match graph.resolve(name).iter().find(|&&c| c != self.cur && graph.reaches_io[c]) {
                Some(&c) => graph.io_witness(c).unwrap_or_default(),
                None => return,
            }
        };
        if !self.io_reported.insert((self.cur, line)) {
            return;
        }
        let f = &self.fns[self.cur];
        let gname = held.var.as_deref().unwrap_or("<temp>");
        let mut trace = vec![format!(
            "{}:{}: lock guard `{}` bound here",
            f.file, held.line, gname
        )];
        let via = if chain.is_empty() {
            "directly".to_string()
        } else {
            trace.push(format!(
                "{}:{}: call chain {} reaches a backend submission",
                f.file,
                line,
                chain.join(" -> ")
            ));
            format!("via {}", chain.join(" -> "))
        };
        self.findings.push((
            f.file.clone(),
            RawFinding {
                rule: RuleId::GuardAcrossIo,
                line,
                message: format!(
                    "call `{name}(...)` reaches backend I/O ({via}) while lock guard `{gname}` \
                     (bound line {}) is live; drop the guard before I/O or pragma with a reason",
                    held.line
                ),
                trace,
            },
        ));
    }

    /// Walk events updating the held set; returns false when every
    /// continuation returns (the path does not fall through).
    fn walk(&mut self, evs: &[Event], held: &mut Vec<Held>) -> bool {
        for ev in evs {
            match ev {
                Event::Call(call) => {
                    let line = call.line;
                    if call.is_acquire() {
                        let file = self.cur_fn().file.clone();
                        // Unclassified sites are reported once, by
                        // `analyze` (this walker can visit a site on
                        // several paths).
                        let row = classify(self.rows, &file, call.recv.as_deref());
                        if let Some(row) = row {
                            let acq = AcqWit {
                                chain: vec![self.cur_fn().qual()],
                                file,
                                line,
                            };
                            self.edges_from(held, row, line, &acq);
                        }
                        held.push(Held {
                            row,
                            var: None,
                            line,
                        });
                    } else if let Some(first) = held.first().cloned() {
                        if self.guard_io {
                            self.guard_io_at(&first, call);
                        }
                        for c in self.graph.resolve(&call.name).to_vec() {
                            if c == self.cur {
                                continue;
                            }
                            for (to, wit) in self.summary[c].clone() {
                                let mut acq = wit;
                                acq.chain.insert(0, self.cur_fn().qual());
                                self.edges_from(held, to, line, &acq);
                            }
                        }
                    }
                }
                Event::Bind { name, init, .. } => {
                    let start = held.len();
                    let ft = self.walk(init, held);
                    for h in held[start..].iter_mut() {
                        if h.var.is_none() {
                            h.var = name.clone();
                        }
                    }
                    if let Some(n) = name.as_deref() {
                        // Shadowing drops the previous same-named guard.
                        let mut i = 0usize;
                        held.retain(|h| {
                            let stale = i < start && h.var.as_deref() == Some(n);
                            i += 1;
                            !stale
                        });
                    }
                    if !ft {
                        return false;
                    }
                }
                Event::DropCall { name, .. } => {
                    held.retain(|h| h.var.as_deref() != Some(name.as_str()));
                }
                Event::Stmt(es) => {
                    let start = held.len();
                    let ft = self.walk(es, held);
                    // Statement temporaries die at the `;`.
                    let mut i = 0usize;
                    held.retain(|h| {
                        let temp = i >= start && h.var.is_none();
                        i += 1;
                        !temp
                    });
                    if !ft {
                        return false;
                    }
                }
                Event::Scope(es) | Event::Loop { body: es, .. } => {
                    let start = held.len();
                    let ft = self.walk(es, held);
                    held.truncate(start);
                    if !ft && matches!(ev, Event::Scope(_)) {
                        return false;
                    }
                }
                Event::Branch { arms, .. } => {
                    let start = held.len();
                    let mut merged: Vec<Held> = Vec::new();
                    let mut any = false;
                    for arm in arms {
                        let mut fork = held.clone();
                        if self.walk(arm, &mut fork) {
                            any = true;
                            // Guards let-bound inside the arm die with
                            // it; unnamed acquisitions flow out (they
                            // are the value of an expression arm).
                            for (i, h) in fork.into_iter().enumerate() {
                                if i >= start && h.var.is_some() {
                                    continue;
                                }
                                if !merged.iter().any(|m| {
                                    m.row == h.row && m.var == h.var && m.line == h.line
                                }) {
                                    merged.push(h);
                                }
                            }
                        }
                    }
                    *held = merged;
                    if !any {
                        return false;
                    }
                }
                Event::Return { .. } => return false,
            }
        }
        true
    }
}

/// Run both semantic rules over every non-test function: the lock
/// analysis against `rows` (the parsed §5i table), and guard-across-io
/// in the functions `guard_scope` selects.
pub fn analyze(
    fns: &[FnIr],
    graph: &CallGraph<'_>,
    rows: &[LockRow],
    guard_scope: &dyn Fn(&FnIr) -> bool,
) -> LockReport {
    let mut findings: Vec<(String, RawFinding)> = Vec::new();
    let mut used_rows: HashSet<usize> = HashSet::new();

    // Direct acquisitions per function; unclassified sites are findings
    // in their own right.
    let mut summary: Vec<HashMap<usize, AcqWit>> = vec![HashMap::new(); fns.len()];
    for (i, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for site in calls(&f.body).into_iter().filter(|c| c.is_acquire()) {
            let line = site.line;
            match classify(rows, &f.file, site.recv.as_deref()) {
                Some(row) => {
                    used_rows.insert(row);
                    summary[i].entry(row).or_insert_with(|| AcqWit {
                        chain: vec![f.qual()],
                        file: f.file.clone(),
                        line,
                    });
                }
                None => findings.push((
                    f.file.clone(),
                    RawFinding {
                        rule: RuleId::LockOrderInversion,
                        line,
                        message: format!(
                            "lock acquisition `{}.{}()` has no class in the DESIGN.md §5i \
                             lock-hierarchy table; add a row for it (with a rank) so the \
                             deadlock analysis can order it",
                            site.recv.as_deref().unwrap_or("<expr>"),
                            site.name
                        ),
                        trace: Vec::new(),
                    },
                )),
            }
        }
    }

    // Transitive-acquire fixpoint over the call graph.
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..fns.len() {
            for &(c, _) in &graph.edges[i] {
                for (row, wit) in summary[c].clone() {
                    if !summary[i].contains_key(&row) {
                        let mut wit = wit;
                        wit.chain.insert(0, fns[i].qual());
                        summary[i].insert(row, wit);
                        changed = true;
                    }
                }
            }
        }
    }

    // Path-sensitive walk of every function.
    let mut w = Walker {
        fns,
        graph,
        rows,
        summary: &summary,
        cur: 0,
        guard_io: false,
        findings,
        edges: HashMap::new(),
        reported: HashSet::new(),
        io_reported: HashSet::new(),
    };
    for (i, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        w.cur = i;
        w.guard_io = guard_scope(f);
        let mut held = Vec::new();
        w.walk(&f.body, &mut held);
    }

    // Cycle detection over the class digraph: every cycle is a
    // potential deadlock; report one finding per canonical cycle with
    // both witness chains.
    let edge_keys: Vec<(usize, usize)> = {
        let mut v: Vec<_> = w.edges.keys().copied().collect();
        v.sort_unstable();
        v
    };
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for &(a, b) in &edge_keys {
        if a != b {
            adj.entry(a).or_default().push(b);
        }
    }
    let mut seen_cycles: HashSet<Vec<usize>> = HashSet::new();
    for &(start, _) in &edge_keys {
        // DFS from `start` looking for a path back to `start`.
        let mut stack = vec![(start, vec![start])];
        let mut visited: HashSet<usize> = HashSet::new();
        while let Some((n, path)) = stack.pop() {
            for &m in adj.get(&n).map_or(&[][..], |v| v.as_slice()) {
                if m == start && path.len() > 1 {
                    // Canonicalize: rotate so the smallest row leads.
                    let min_pos = path
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, r)| r)
                        .map_or(0, |(p, _)| p);
                    let mut canon = path[min_pos..].to_vec();
                    canon.extend_from_slice(&path[..min_pos]);
                    if !seen_cycles.insert(canon.clone()) {
                        continue;
                    }
                    let names: Vec<&str> =
                        canon.iter().map(|&r| rows[r].class.as_str()).collect();
                    let mut trace = Vec::new();
                    for k in 0..canon.len() {
                        let (a, b) = (canon[k], canon[(k + 1) % canon.len()]);
                        let e = &w.edges[&(a, b)];
                        trace.push(format!(
                            "{}:{}: chain {}: `{}` holds `{}` (guard `{}`, line {}) and acquires `{}` via {} ({}:{})",
                            e.holder_file,
                            e.call_line,
                            k + 1,
                            e.holder_qual,
                            rows[a].class,
                            e.held_var.as_deref().unwrap_or("<temp>"),
                            e.held_line,
                            rows[b].class,
                            e.acq.chain.join(" -> "),
                            e.acq.file,
                            e.acq.line,
                        ));
                    }
                    let first = &w.edges[&(canon[0], canon[1 % canon.len()])];
                    w.findings.push((
                        first.holder_file.clone(),
                        RawFinding {
                            rule: RuleId::LockOrderInversion,
                            line: first.call_line,
                            message: format!(
                                "lock-order cycle `{}` -> `{}`: two threads taking these \
                                 chains concurrently deadlock",
                                names.join("` -> `"),
                                rows[canon[0]].class
                            ),
                            trace,
                        },
                    ));
                } else if !path.contains(&m) && visited.insert(m) {
                    let mut p = path.clone();
                    p.push(m);
                    stack.push((m, p));
                }
            }
        }
    }

    LockReport {
        findings: w.findings,
        used_rows,
    }
}

/// Calls that are backend I/O at the call site: the blocking/async
/// submit entry points, and a method call named in
/// [`BACKEND_OPS`]/[`VFS_OPS`] with arguments, or `flush_index()` (the
/// zero-argument `read()`/`write()` are guard acquisitions).
fn is_direct_io(c: &Call) -> bool {
    let name = c.name.as_str();
    matches!(name, "submit_retried" | "submit_async")
        || (c.method
            && (name == "submit"
                || name == "flush_index"
                || (c.has_args && (BACKEND_OPS.contains(&name) || VFS_OPS.contains(&name)))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::ir::parse_file;
    use crate::lexer::lex;

    fn rows() -> Vec<LockRow> {
        let mk = |class: &str, rank: u32, recvs: &[&str]| LockRow {
            class: class.into(),
            rank,
            file: "lib.rs".into(),
            receivers: recvs.iter().map(|s| s.to_string()).collect(),
            doc_line: 1,
        };
        vec![
            mk("table", 10, &["table"]),
            mk("entry", 20, &["entry"]),
            mk("spans", 30, &["span_store"]),
        ]
    }

    fn run(src: &str) -> LockReport {
        let toks = lex(src).toks;
        let fns = parse_file("crates/x/src/lib.rs", &toks);
        let g = CallGraph::build(&fns);
        analyze(&fns, &g, &rows(), &|_| false)
    }

    fn msgs(r: &LockReport) -> Vec<&str> {
        r.findings.iter().map(|(_, f)| f.message.as_str()).collect()
    }

    #[test]
    fn ordered_nesting_is_clean_and_rows_are_used() {
        let r = run("fn f(&self) { let t = self.table.lock(); let e = self.entry.lock(); e.push(1); }");
        assert!(r.findings.is_empty(), "{:?}", msgs(&r));
        assert_eq!(r.used_rows.len(), 2);
    }

    #[test]
    fn rank_inversion_is_flagged_at_the_acquiring_site() {
        let r = run("fn f(&self) {\n let e = self.entry.lock();\n let t = self.table.lock();\n}");
        assert_eq!(r.findings.len(), 1, "{:?}", msgs(&r));
        let (_, f) = &r.findings[0];
        assert_eq!(f.rule, RuleId::LockOrderInversion);
        assert_eq!(f.line, 3);
        assert!(f.message.contains("rank"), "{}", f.message);
    }

    #[test]
    fn drop_and_scope_release_guards() {
        let src = r#"
            fn a(&self) { let e = self.entry.lock(); drop(e); let t = self.table.lock(); }
            fn b(&self) { { let e = self.entry.lock(); } let t = self.table.lock(); }
            fn c(&self) { self.entry.lock().bump(); let t = self.table.lock(); }
        "#;
        let r = run(src);
        assert!(r.findings.is_empty(), "{:?}", msgs(&r));
    }

    #[test]
    fn transitive_acquisition_through_a_call_is_an_edge() {
        let src = r#"
            fn helper(&self) { let t = self.table.lock(); t.bump(); }
            fn outer(&self) { let e = self.entry.lock(); self.helper(); }
        "#;
        let r = run(src);
        assert_eq!(r.findings.len(), 1, "{:?}", msgs(&r));
        let (_, f) = &r.findings[0];
        assert!(f.message.contains("`table`"), "{}", f.message);
        assert!(
            f.trace.iter().any(|l| l.contains("outer -> helper")),
            "{:?}",
            f.trace
        );
    }

    #[test]
    fn two_chain_cycle_reports_a_counterexample() {
        let src = r#"
            fn fwd(&self) { let t = self.table.lock(); let e = self.entry.lock(); }
            fn rev(&self) { let e = self.entry.lock(); let t = self.table.lock(); }
        "#;
        let r = run(src);
        // One rank violation (rev) + one cycle.
        let cycles: Vec<_> = r
            .findings
            .iter()
            .filter(|(_, f)| f.message.contains("cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", msgs(&r));
        let (_, f) = cycles[0];
        assert_eq!(f.trace.len(), 2, "{:?}", f.trace);
        assert!(f.trace[0].contains("chain 1"));
        assert!(f.trace[1].contains("chain 2"));
    }

    #[test]
    fn self_reacquire_is_a_deadlock_finding() {
        let r = run("fn f(&self) { let t = self.table.lock(); let t2 = self.table.lock(); }");
        assert_eq!(r.findings.len(), 1, "{:?}", msgs(&r));
        assert!(r.findings[0].1.message.contains("reentrant"));
    }

    #[test]
    fn branch_arms_fork_the_held_set() {
        // Guard dropped in one arm: the surviving path still holds it,
        // so the edge (and inversion) must be found.
        let src = r#"
            fn f(&self, c: bool) {
                let e = self.entry.lock();
                if c { drop(e); }
                let t = self.table.lock();
            }
        "#;
        let r = run(src);
        assert_eq!(r.findings.len(), 1, "{:?}", msgs(&r));
        // And a return-only arm does not leak its guard forward.
        let src2 = r#"
            fn f(&self, c: bool) {
                if c { let e = self.entry.lock(); return e.check(); }
                let t = self.table.lock();
            }
        "#;
        let r2 = run(src2);
        assert!(r2.findings.is_empty(), "{:?}", msgs(&r2));
    }

    #[test]
    fn unclassified_sites_are_reported() {
        let r = run("fn f(&self) { let g = self.mystery.lock(); g.poke(); }");
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].1.message.contains("no class"));
        assert!(r.used_rows.is_empty());
    }

    fn run_guard(src: &str) -> Vec<(String, RawFinding)> {
        let toks = lex(src).toks;
        let fns = parse_file("crates/core/src/x.rs", &toks);
        let g = CallGraph::build(&fns);
        let report = analyze(&fns, &g, &[], &|_| true);
        let guard = |(_, f): &(String, RawFinding)| f.rule == RuleId::GuardAcrossIo;
        report.findings.into_iter().filter(guard).collect()
    }

    #[test]
    fn guard_flags_transitive_io_under_a_guard() {
        let src = r#"
            fn flush(&self) { self.backend.append(p, c); }
            fn commit(&self) { let g = self.state.lock(); self.flush(); }
        "#;
        let f = run_guard(src);
        assert_eq!(f.len(), 1, "{:?}", f);
        assert_eq!(f[0].1.rule, RuleId::GuardAcrossIo);
        assert!(f[0].1.message.contains("via"), "{}", f[0].1.message);
        assert!(
            f[0].1.trace.iter().any(|l| l.contains("flush")),
            "{:?}",
            f[0].1.trace
        );
    }

    #[test]
    fn guard_flags_submit_family_directly() {
        let f = run_guard(
            "fn f(&self) { let g = self.state.lock(); let t = self.plane.submit_async(&ops); t.wait(); }",
        );
        assert_eq!(f.len(), 1, "{:?}", f);
        assert!(f[0].1.message.contains("submit_async"));
        let f = run_guard(
            "fn f(&self) { let g = self.state.lock(); let out = submit_retried(&self.backend, &ops); }",
        );
        assert_eq!(f.len(), 1, "{:?}", f);
        assert!(f[0].1.message.contains("submit_retried"));
    }

    #[test]
    fn guard_is_quiet_after_drop_and_for_pure_calls() {
        let src = r#"
            fn flush(&self) { self.backend.append(p, c); }
            fn pure_fn(&self) { self.counter.bump(); }
            fn a(&self) { let g = self.state.lock(); drop(g); self.flush(); self.backend.append(p, c); }
            fn b(&self) { let g = self.state.lock(); self.pure_fn(); }
            fn c(&self) { { let g = self.state.lock(); } self.flush(); self.backend.append(p, c); }
        "#;
        let f = run_guard(src);
        assert!(f.is_empty(), "{:?}", f);
    }

    #[test]
    fn guard_flags_a_direct_backend_call_once() {
        let f = run_guard("fn f(&self) { let g = self.state.lock(); self.backend.append(p, c); }");
        assert_eq!(f.len(), 1, "{:?}", f);
        assert!(f[0].1.message.contains("directly"), "{}", f[0].1.message);
    }

    #[test]
    fn rwlock_write_guard_counts_but_write_with_args_is_io() {
        let f = run_guard("fn f(&self) { let mut nodes = self.nodes.write(); h.write(offset, content, ts); }");
        assert_eq!(f.len(), 1, "{f:?}");
    }
}

//! Workspace-wide call graph over the [`crate::ir`] function set.
//!
//! Resolution is by bare name: a call to `flush_index` edges to every
//! non-test workspace function named `flush_index`. Names that are
//! ubiquitous standard-library methods (`new`, `len`, `insert`, …)
//! are on a deny list — resolving them would wire every function to
//! every collection helper and drown the analyses in false edges.
//! Backend I/O entry points (`Backend` trait ops, `submit`,
//! `submit_retried`) are treated as *opaque I/O*: they dispatch through
//! a trait object, so the graph does not chase them into any concrete
//! backend — they seed the reaches-I/O fixpoint instead.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::ir::{calls, Call, FnIr};
use crate::rules::BACKEND_OPS;

/// Call names never resolved to workspace functions: standard-library
/// and collection methods whose names collide with everything. `wait`
/// is here because condvar waits would otherwise resolve to
/// `Ticket::wait`, and `finish` because `Hasher::finish` would resolve
/// to `SpanIdxWriter::finish`; `read`/`write`/`lock` are guard
/// acquisitions.
const DENY_RESOLVE: &[&str] = &[
    "new", "default", "clone", "drop", "fmt", "len", "is_empty", "get", "get_mut",
    "get_or_init", "insert", "remove", "push", "push_back", "push_front", "pop",
    "pop_front", "pop_back", "next", "iter", "iter_mut", "into_iter", "collect",
    "map", "filter", "flatten", "and_then", "map_err", "unwrap_or", "unwrap_or_else",
    "unwrap_or_default", "ok_or", "ok_or_else", "ok", "err", "to_string", "to_vec",
    "as_str", "as_ref", "as_mut", "as_bytes", "as_deref", "from", "into", "take",
    "clear", "contains", "contains_key", "entry", "or_insert", "or_insert_with",
    "or_default", "extend", "with_capacity", "join", "wait", "notify_one",
    "notify_all", "lock", "read", "write", "min", "max", "cmp", "eq", "hash",
    "fetch_add", "fetch_sub", "load", "store", "swap", "split", "starts_with",
    "ends_with", "trim", "position", "any", "all", "find", "zip", "enumerate",
    "chunks", "windows", "rev", "sort", "sort_by", "sort_by_key", "retain",
    "drain", "truncate", "resize", "last", "first", "expect", "unwrap", "is_some",
    "is_none", "is_ok", "is_err", "cloned", "copied", "then", "clamp", "abs", "finish",
];

/// Calls that ARE backend I/O at the call site (dispatch through the
/// `Backend` trait object): never resolved into concrete backends.
/// Zero-arg `size`-alikes can't be backend ops (all take a path).
fn is_opaque_io(c: &Call) -> bool {
    c.name == "submit_retried"
        || (c.method && (c.name == "submit" || (c.has_args && BACKEND_OPS.contains(&c.name.as_str()))))
}

/// Calls that seed reaches-I/O: opaque I/O, and `Backend::submit_async`,
/// which also resolves into every impl, the reactor's included (a
/// reactor blocks while its in-flight window is full).
fn seeds_io(c: &Call) -> bool {
    is_opaque_io(c) || c.name == "submit_async"
}

/// The resolved graph. Functions are indexed by position in `fns`.
pub struct CallGraph<'a> {
    pub fns: &'a [FnIr],
    /// Resolved workspace call edges per function: (callee index, call line).
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Functions that perform (or transitively reach) backend I/O.
    pub reaches_io: Vec<bool>,
    by_name: HashMap<&'a str, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    pub fn build(fns: &'a [FnIr]) -> CallGraph<'a> {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            if !f.is_test {
                by_name.entry(f.name.as_str()).or_default().push(i);
            }
        }
        let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); fns.len()];
        let mut direct_io = vec![false; fns.len()];
        for (i, f) in fns.iter().enumerate() {
            let mut seen: HashSet<usize> = HashSet::new();
            for call in calls(&f.body) {
                direct_io[i] |= seeds_io(call);
                if DENY_RESOLVE.contains(&call.name.as_str()) || is_opaque_io(call) {
                    continue;
                }
                for &c in by_name.get(call.name.as_str()).into_iter().flatten() {
                    if c != i && seen.insert(c) {
                        edges[i].push((c, call.line));
                    }
                }
            }
        }
        // reaches_io fixpoint: propagate backwards over call edges.
        let mut reaches_io = direct_io.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..fns.len() {
                if reaches_io[i] {
                    continue;
                }
                if edges[i].iter().any(|&(c, _)| reaches_io[c]) {
                    reaches_io[i] = true;
                    changed = true;
                }
            }
        }
        CallGraph {
            fns,
            edges,
            reaches_io,
            by_name,
        }
    }

    /// Candidate indices for a bare call name, deny-list applied.
    pub fn resolve(&self, name: &str) -> &[usize] {
        if DENY_RESOLVE.contains(&name) {
            return &[];
        }
        self.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Shortest call chain (as `Type::fn` names) from `from` to a
    /// function that performs direct I/O, for counterexample traces.
    /// Includes `from` itself; `None` when `from` does not reach I/O.
    pub fn io_witness(&self, from: usize) -> Option<Vec<String>> {
        if !self.reaches_io[from] {
            return None;
        }
        // BFS toward any function whose body contains a direct I/O call.
        let mut prev: HashMap<usize, usize> = HashMap::new();
        let mut q = VecDeque::from([from]);
        let mut seen: HashSet<usize> = HashSet::from([from]);
        while let Some(n) = q.pop_front() {
            if calls(&self.fns[n].body).into_iter().any(seeds_io) {
                let mut chain = vec![n];
                let mut cur = n;
                while let Some(&p) = prev.get(&cur) {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                return Some(chain.iter().map(|&i| self.fns[i].qual()).collect());
            }
            for &(c, _) in &self.edges[n] {
                if self.reaches_io[c] && seen.insert(c) {
                    prev.insert(c, n);
                    q.push_back(c);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_file;
    use crate::lexer::lex;

    fn graph_src(src: &str) -> Vec<FnIr> {
        parse_file("crates/x/src/lib.rs", &lex(src).toks)
    }

    #[test]
    fn reaches_io_propagates_transitively() {
        let src = r#"
            fn leaf(&self) { self.backend.append(path, c); }
            fn mid(&self) { self.leaf(); }
            fn top(&self) { self.mid(); }
            fn pure_fn(&self) { helper(); }
            fn helper(&self) { compute(); }
            fn compute(&self) {}
        "#;
        let fns = graph_src(src);
        let g = CallGraph::build(&fns);
        let idx = |n: &str| fns.iter().position(|f| f.name == n).unwrap();
        assert!(g.reaches_io[idx("leaf")]);
        assert!(g.reaches_io[idx("mid")]);
        assert!(g.reaches_io[idx("top")]);
        assert!(!g.reaches_io[idx("pure_fn")]);
        let witness = g.io_witness(idx("top")).unwrap();
        assert_eq!(witness, vec!["top", "mid", "leaf"]);
    }

    #[test]
    fn deny_listed_names_do_not_resolve() {
        let src = r#"
            fn insert(&self) { self.backend.append(p, c); }
            fn caller(&self) { self.map.insert(k, v); }
        "#;
        let fns = graph_src(src);
        let g = CallGraph::build(&fns);
        let caller = fns.iter().position(|f| f.name == "caller").unwrap();
        assert!(!g.reaches_io[caller], "deny-listed `insert` must not edge");
    }

    #[test]
    fn hasher_finish_does_not_edge_to_a_writer_finish() {
        let src = r#"
            fn finish(&mut self) { self.backend.append(p, c); }
            fn shard(&self, key: &str) -> usize { let mut h = DefaultHasher::new(); key.hash(&mut h); h.finish() as usize }
        "#;
        let fns = graph_src(src);
        let g = CallGraph::build(&fns);
        let shard = fns.iter().position(|f| f.name == "shard").unwrap();
        assert!(g.edges[shard].is_empty());
        assert!(!g.reaches_io[shard]);
    }

    #[test]
    fn async_submissions_count_as_io() {
        let src = "fn f(&self) { let t = self.backend.submit_async(&ops); t.wait(); }";
        let fns = graph_src(src);
        let g = CallGraph::build(&fns);
        assert!(g.reaches_io[0]);
    }

    #[test]
    fn test_fns_are_not_resolution_targets() {
        let src = "#[test]\nfn helper() { b.append(p, c); }\nfn caller() { helper(); }";
        let fns = graph_src(src);
        let g = CallGraph::build(&fns);
        let caller = fns.iter().position(|f| f.name == "caller").unwrap();
        assert!(!g.reaches_io[caller]);
    }
}

//! In-memory backend storing real bytes.
//!
//! `MemFs` is the reference backend: every byte-verifying test runs over
//! it and five of the benchmark's seven workloads measure the middleware
//! through it — so an op must cost what it touches, or the benchmark
//! measures this file instead of PLFS.
//!
//! One `RwLock` around one flat `HashMap` from normalized path to node; a
//! `Dir` node carries the sorted names of its children. `submit` applies
//! a batch under one acquisition (shared iff every op is read-only),
//! which is what makes batched ≡ sequential, and so a replayed trace
//! prefix exactly the state a crash there leaves. **Cost contract:** a point op is one hash lookup of the
//! full path (plus the parent's when a name is added or dropped), and
//! `Append` / `ReadAt` / `Size` / `Kind` allocate nothing for a path
//! that arrives normalized; `remove_all` and `rename` walk the child
//! sets down from the target — O(subtree), never a scan of the map;
//! `append` copies each payload byte once.
//!
//! **Why still one lock and a flat map.** Both alternatives were built
//! and lost on the benchmark at 2 cores (DESIGN.md §5i, the
//! `memfs-nodes` row). A directory *tree* matched the subtree walk on
//! `meta_storm_mem` but cost `ckpt_n1_mem` 9–14% `ops_per_s` and creates
//! +33% latency: four or five short hashes per op cost more than one
//! long one. *Per-file
//! locks with appends under the shared namespace lock* cost
//! single-threaded `ckpt_n1_mem` 9–16% and took `writer.threads2_speedup`
//! 0.97 → 0.71: the vendored `parking_lot` wraps `std` locks, and two
//! cores contend on the reader count as hard as on the writer bit.

use crate::backend::{Backend, NodeKind};
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::ioplane::{IoOp, IoOutcome, IoValue};
use crate::path::{is_inside, join, parent, try_normalize, try_normalize_cow};
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap};

#[derive(Debug)]
enum Node {
    File(Vec<u8>),
    Dir(BTreeSet<String>),
}

/// An in-memory file system rooted at `/`.
#[derive(Debug)]
pub struct MemFs {
    nodes: RwLock<HashMap<String, Node>>,
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// An empty in-memory file system with just the root directory.
    pub fn new() -> Self {
        let mut nodes = HashMap::new();
        nodes.insert("/".to_string(), Node::Dir(BTreeSet::new()));
        MemFs {
            nodes: RwLock::new(nodes),
        }
    }

    /// Total bytes stored across all files (test/diagnostic helper).
    pub fn total_bytes(&self) -> u64 {
        self.nodes
            .read()
            .values()
            .map(|n| match n {
                Node::File(b) => b.len() as u64,
                Node::Dir(_) => 0,
            })
            .sum()
    }

    /// Number of nodes including the root directory.
    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    fn insert_child(nodes: &mut HashMap<String, Node>, path: &str, node: Node) -> Result<()> {
        let par = parent(path);
        match nodes.get_mut(&par) {
            Some(Node::Dir(children)) => {
                children.insert(crate::path::basename(path).to_string());
            }
            Some(Node::File(_)) => {
                return Err(PlfsError::WrongKind {
                    path: par,
                    expected: "directory",
                })
            }
            None => return Err(PlfsError::NotFound(par)),
        }
        nodes.insert(path.to_string(), node);
        Ok(())
    }

    // Per-op logic over an already-locked tree, run by the
    // one-lock-per-batch `submit` (and by `append` alone).

    fn do_mkdir(nodes: &mut HashMap<String, Node>, path: &str) -> Result<()> {
        let path = try_normalize(path)?;
        if nodes.contains_key(&path) {
            return Err(PlfsError::AlreadyExists(path));
        }
        Self::insert_child(nodes, &path, Node::Dir(BTreeSet::new()))
    }

    fn do_mkdir_all(nodes: &mut HashMap<String, Node>, path: &str) -> Result<()> {
        let path = try_normalize(path)?;
        let mut cur = String::new();
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur.push('/');
            cur.push_str(seg);
            match nodes.get(&cur) {
                Some(Node::Dir(_)) => {}
                Some(Node::File(_)) => {
                    return Err(PlfsError::WrongKind {
                        path: cur,
                        expected: "directory",
                    })
                }
                None => {
                    Self::insert_child(nodes, &cur.clone(), Node::Dir(BTreeSet::new()))?;
                }
            }
        }
        Ok(())
    }

    fn do_create(nodes: &mut HashMap<String, Node>, path: &str, exclusive: bool) -> Result<()> {
        let path = try_normalize(path)?;
        match nodes.get_mut(&path) {
            Some(Node::File(bytes)) => {
                if exclusive {
                    Err(PlfsError::AlreadyExists(path))
                } else {
                    bytes.clear();
                    Ok(())
                }
            }
            Some(Node::Dir(_)) => Err(PlfsError::WrongKind {
                path,
                expected: "file",
            }),
            None => Self::insert_child(nodes, &path, Node::File(Vec::new())),
        }
    }

    fn do_append(nodes: &mut HashMap<String, Node>, path: &str, content: &Content) -> Result<u64> {
        let path = try_normalize_cow(path)?;
        match nodes.get_mut(path.as_ref()) {
            Some(Node::File(bytes)) => {
                let off = bytes.len() as u64;
                bytes.extend_from_slice(&content.as_bytes());
                Ok(off)
            }
            Some(Node::Dir(_)) => Err(PlfsError::WrongKind {
                path: path.into_owned(),
                expected: "file",
            }),
            None => Err(PlfsError::NotFound(path.into_owned())),
        }
    }

    fn do_read_at(
        nodes: &HashMap<String, Node>,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<Content> {
        let path = try_normalize_cow(path)?;
        match nodes.get(path.as_ref()) {
            Some(Node::File(bytes)) => {
                let start = (offset as usize).min(bytes.len());
                let end = ((offset + len) as usize).min(bytes.len());
                Ok(Content::bytes(bytes[start..end].to_vec()))
            }
            Some(Node::Dir(_)) => Err(PlfsError::WrongKind {
                path: path.into_owned(),
                expected: "file",
            }),
            None => Err(PlfsError::NotFound(path.into_owned())),
        }
    }

    fn do_size(nodes: &HashMap<String, Node>, path: &str) -> Result<u64> {
        let path = try_normalize_cow(path)?;
        match nodes.get(path.as_ref()) {
            Some(Node::File(bytes)) => Ok(bytes.len() as u64),
            Some(Node::Dir(_)) => Err(PlfsError::WrongKind {
                path: path.into_owned(),
                expected: "file",
            }),
            None => Err(PlfsError::NotFound(path.into_owned())),
        }
    }

    fn do_kind(nodes: &HashMap<String, Node>, path: &str) -> Result<NodeKind> {
        let path = try_normalize_cow(path)?;
        match nodes.get(path.as_ref()) {
            Some(Node::File(_)) => Ok(NodeKind::File),
            Some(Node::Dir(_)) => Ok(NodeKind::Dir),
            None => Err(PlfsError::NotFound(path.into_owned())),
        }
    }

    fn do_list(nodes: &HashMap<String, Node>, path: &str) -> Result<Vec<String>> {
        let path = try_normalize(path)?;
        match nodes.get(&path) {
            Some(Node::Dir(children)) => Ok(children.iter().cloned().collect()),
            Some(Node::File(_)) => Err(PlfsError::WrongKind {
                path,
                expected: "directory",
            }),
            None => Err(PlfsError::NotFound(path)),
        }
    }

    fn do_unlink(nodes: &mut HashMap<String, Node>, path: &str) -> Result<()> {
        let path = try_normalize(path)?;
        match nodes.get(&path) {
            Some(Node::File(_)) => {}
            Some(Node::Dir(_)) => {
                return Err(PlfsError::WrongKind {
                    path,
                    expected: "file",
                })
            }
            None => return Err(PlfsError::NotFound(path)),
        }
        nodes.remove(&path);
        if let Some(Node::Dir(children)) = nodes.get_mut(&parent(&path)) {
            children.remove(crate::path::basename(&path));
        }
        Ok(())
    }

    /// `root` and every node below it — parents before children,
    /// siblings in name order — found by descending the directories'
    /// child sets, so the cost is the subtree's size, not the mount's.
    fn subtree(nodes: &HashMap<String, Node>, root: &str) -> Vec<String> {
        let mut out = vec![root.to_string()];
        let mut next = 0;
        while next < out.len() {
            if let Some(Node::Dir(children)) = nodes.get(&out[next]) {
                let below: Vec<String> = children.iter().map(|c| join(&out[next], c)).collect();
                out.extend(below);
            }
            next += 1;
        }
        out
    }

    fn do_remove_all(nodes: &mut HashMap<String, Node>, path: &str) -> Result<()> {
        let path = try_normalize(path)?;
        if path == "/" {
            return Err(PlfsError::InvalidArg("cannot remove root".into()));
        }
        if !nodes.contains_key(&path) {
            return Err(PlfsError::NotFound(path));
        }
        for victim in Self::subtree(nodes, &path) {
            nodes.remove(&victim);
        }
        if let Some(Node::Dir(children)) = nodes.get_mut(&parent(&path)) {
            children.remove(crate::path::basename(&path));
        }
        Ok(())
    }

    fn do_rename(nodes: &mut HashMap<String, Node>, from: &str, to: &str) -> Result<()> {
        let from = try_normalize(from)?;
        let to = try_normalize(to)?;
        // A path-only precondition, checked before any state: moving a
        // node below itself would leave its subtree reachable by point
        // lookup but attached to no directory.
        if is_inside(&to, &from) {
            return Err(PlfsError::InvalidArg(format!(
                "cannot rename {from} into itself ({to})"
            )));
        }
        if !nodes.contains_key(&from) {
            return Err(PlfsError::NotFound(from));
        }
        if nodes.contains_key(&to) {
            return Err(PlfsError::AlreadyExists(to));
        }
        if !matches!(nodes.get(&parent(&to)), Some(Node::Dir(_))) {
            return Err(PlfsError::NotFound(parent(&to)));
        }
        for old in Self::subtree(nodes, &from) {
            if let Some(node) = nodes.remove(&old) {
                nodes.insert(format!("{to}{}", &old[from.len()..]), node);
            }
        }
        if let Some(Node::Dir(children)) = nodes.get_mut(&parent(&from)) {
            children.remove(crate::path::basename(&from));
        }
        if let Some(Node::Dir(children)) = nodes.get_mut(&parent(&to)) {
            children.insert(crate::path::basename(&to).to_string());
        }
        Ok(())
    }

    /// Execute one op against the exclusively-locked tree.
    fn apply(nodes: &mut HashMap<String, Node>, op: &IoOp) -> IoOutcome {
        match op {
            IoOp::Mkdir { path } => Self::do_mkdir(nodes, path).map(|()| IoValue::Unit),
            IoOp::MkdirAll { path } => Self::do_mkdir_all(nodes, path).map(|()| IoValue::Unit),
            IoOp::Create { path, exclusive } => {
                Self::do_create(nodes, path, *exclusive).map(|()| IoValue::Unit)
            }
            IoOp::Append { path, content } => {
                Self::do_append(nodes, path, content).map(IoValue::Offset)
            }
            IoOp::Unlink { path } => Self::do_unlink(nodes, path).map(|()| IoValue::Unit),
            IoOp::RemoveAll { path } => Self::do_remove_all(nodes, path).map(|()| IoValue::Unit),
            IoOp::Rename { from, to } => Self::do_rename(nodes, from, to).map(|()| IoValue::Unit),
            ro => Self::apply_ro(nodes, ro),
        }
    }

    /// Execute a read-only op against the (at least shared-) locked tree.
    fn apply_ro(nodes: &HashMap<String, Node>, op: &IoOp) -> IoOutcome {
        match op {
            IoOp::ReadAt { path, offset, len } => {
                Self::do_read_at(nodes, path, *offset, *len).map(IoValue::Data)
            }
            IoOp::Size { path } => Self::do_size(nodes, path).map(IoValue::Size),
            IoOp::Kind { path } => Self::do_kind(nodes, path).map(IoValue::Kind),
            IoOp::Readdir { path } => Self::do_list(nodes, path).map(IoValue::Names),
            mutating => Err(PlfsError::InvalidArg(format!(
                "read-only batch dispatched a mutating op: {mutating:?}"
            ))),
        }
    }
}

impl Backend for MemFs {
    /// Native batched fast path: the whole batch runs under a single
    /// lock acquisition — shared if every op is read-only, exclusive
    /// otherwise — instead of one acquisition per op. Outcomes are
    /// identical to the sequential path (ops still execute in order on
    /// the same tree); only the locking cost changes.
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        if batch.is_empty() {
            return Vec::new();
        }
        let read_only = batch.iter().all(|op| {
            matches!(
                op,
                IoOp::ReadAt { .. } | IoOp::Size { .. } | IoOp::Kind { .. } | IoOp::Readdir { .. }
            )
        });
        if read_only {
            let nodes = self.nodes.read();
            batch.iter().map(|op| Self::apply_ro(&nodes, op)).collect()
        } else {
            let mut nodes = self.nodes.write();
            batch.iter().map(|op| Self::apply(&mut nodes, op)).collect()
        }
    }

    /// The writer's per-write append, served without building an op
    /// (DESIGN.md §5d).
    fn append(&self, path: &str, content: &Content) -> Result<u64> {
        Self::do_append(&mut self.nodes.write(), path, content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_submit_single_lock_matches_sequential() {
        let fs = MemFs::new();
        let batch = vec![
            IoOp::Mkdir { path: "/d".into() },
            IoOp::Create {
                path: "/d/f".into(),
                exclusive: true,
            },
            IoOp::Append {
                path: "/d/f".into(),
                content: Content::bytes(b"abc".to_vec()),
            },
            IoOp::Append {
                path: "/d/f".into(),
                content: Content::bytes(b"def".to_vec()),
            },
            IoOp::Size {
                path: "/d/f".into(),
            },
            IoOp::Unlink {
                path: "/missing".into(),
            },
            IoOp::Readdir { path: "/d".into() },
        ];
        let out = fs.submit(&batch);
        assert!(matches!(out[0], Ok(IoValue::Unit)));
        assert!(matches!(out[1], Ok(IoValue::Unit)));
        assert!(matches!(out[2], Ok(IoValue::Offset(0))));
        assert!(matches!(out[3], Ok(IoValue::Offset(3))));
        assert!(matches!(out[4], Ok(IoValue::Size(6))));
        assert!(matches!(out[5], Err(PlfsError::NotFound(_))));
        match &out[6] {
            Ok(IoValue::Names(names)) => assert_eq!(names, &["f".to_string()]),
            other => panic!("expected names, got {other:?}"),
        }
        // The batch left the same state sequential calls would.
        assert_eq!(fs.read_at("/d/f", 0, 16).unwrap().materialize(), b"abcdef");
    }

    #[test]
    fn read_only_batch_takes_shared_lock_path() {
        let fs = MemFs::new();
        fs.mkdir("/d").unwrap();
        fs.create("/d/f", true).unwrap();
        fs.append("/d/f", &Content::bytes(vec![7; 10])).unwrap();
        let batch = vec![
            IoOp::Size {
                path: "/d/f".into(),
            },
            IoOp::Kind { path: "/d".into() },
            IoOp::ReadAt {
                path: "/d/f".into(),
                offset: 2,
                len: 4,
            },
            IoOp::Readdir { path: "/d".into() },
        ];
        let out = fs.submit(&batch);
        assert!(matches!(out[0], Ok(IoValue::Size(10))));
        assert!(matches!(out[1], Ok(IoValue::Kind(NodeKind::Dir))));
        match &out[2] {
            Ok(IoValue::Data(c)) => assert_eq!(c.materialize(), vec![7; 4]),
            other => panic!("expected data, got {other:?}"),
        }
        assert!(matches!(out[3], Ok(IoValue::Names(_))));
    }

    /// `submit` is the only way into a `MemFs`, and the per-op methods
    /// and `ioplane::replay` lower onto it, so `apply`/`apply_ro` is the
    /// sequential reference of the batch proptests. This holds that
    /// op-to-`do_*` mapping to a second one written out here: each op alone
    /// through `submit` on one tree, its `do_*` on the other.
    #[test]
    fn submit_runs_each_op_through_its_own_do_call() {
        fn direct(fs: &MemFs, op: &IoOp) -> IoOutcome {
            use IoValue::{Data, Kind, Names, Offset, Size, Unit};
            let n = &mut *fs.nodes.write();
            match op {
                IoOp::Mkdir { path } => MemFs::do_mkdir(n, path).map(|()| Unit),
                IoOp::MkdirAll { path } => MemFs::do_mkdir_all(n, path).map(|()| Unit),
                IoOp::Create { path, exclusive } => {
                    MemFs::do_create(n, path, *exclusive).map(|()| Unit)
                }
                IoOp::Append { path, content } => MemFs::do_append(n, path, content).map(Offset),
                IoOp::ReadAt { path, offset, len } => {
                    MemFs::do_read_at(n, path, *offset, *len).map(Data)
                }
                IoOp::Size { path } => MemFs::do_size(n, path).map(Size),
                IoOp::Kind { path } => MemFs::do_kind(n, path).map(Kind),
                IoOp::Readdir { path } => MemFs::do_list(n, path).map(Names),
                IoOp::Unlink { path } => MemFs::do_unlink(n, path).map(|()| Unit),
                IoOp::RemoveAll { path } => MemFs::do_remove_all(n, path).map(|()| Unit),
                IoOp::Rename { from, to } => MemFs::do_rename(n, from, to).map(|()| Unit),
            }
        }
        let state = |fs: &MemFs| {
            let mut paths: Vec<String> = fs.nodes.read().keys().cloned().collect();
            paths.sort();
            (paths, fs.total_bytes())
        };
        let (via_submit, via_do) = (MemFs::new(), MemFs::new());
        for op in crate::backend::vocabulary() {
            let got = via_submit.submit(std::slice::from_ref(&op));
            assert_eq!(got, [direct(&via_do, &op)], "{op:?}");
            assert_eq!(state(&via_submit), state(&via_do), "{op:?}");
        }
    }

    #[test]
    fn mkdir_requires_parent() {
        let fs = MemFs::new();
        assert!(matches!(fs.mkdir("/a/b"), Err(PlfsError::NotFound(_))));
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        assert_eq!(fs.kind("/a/b").unwrap(), NodeKind::Dir);
    }

    #[test]
    fn mkdir_all_is_idempotent() {
        let fs = MemFs::new();
        fs.mkdir_all("/x/y/z").unwrap();
        fs.mkdir_all("/x/y/z").unwrap();
        assert_eq!(fs.list("/x").unwrap(), vec!["y"]);
    }

    #[test]
    fn create_append_read_roundtrip() {
        let fs = MemFs::new();
        fs.create("/f", true).unwrap();
        assert_eq!(fs.append("/f", &Content::bytes(vec![1, 2])).unwrap(), 0);
        assert_eq!(fs.append("/f", &Content::bytes(vec![3])).unwrap(), 2);
        assert_eq!(
            fs.read_at("/f", 0, 10).unwrap().materialize(),
            vec![1, 2, 3]
        );
        assert_eq!(fs.read_at("/f", 1, 1).unwrap().materialize(), vec![2]);
        assert_eq!(fs.size("/f").unwrap(), 3);
    }

    #[test]
    fn read_past_eof_is_short() {
        let fs = MemFs::new();
        fs.create("/f", true).unwrap();
        fs.append("/f", &Content::bytes(vec![9; 4])).unwrap();
        assert_eq!(fs.read_at("/f", 2, 10).unwrap().len(), 2);
        assert_eq!(fs.read_at("/f", 100, 10).unwrap().len(), 0);
    }

    #[test]
    fn exclusive_create_conflicts() {
        let fs = MemFs::new();
        fs.create("/f", true).unwrap();
        assert!(matches!(
            fs.create("/f", true),
            Err(PlfsError::AlreadyExists(_))
        ));
        // Non-exclusive create truncates.
        fs.append("/f", &Content::bytes(vec![1])).unwrap();
        fs.create("/f", false).unwrap();
        assert_eq!(fs.size("/f").unwrap(), 0);
    }

    #[test]
    fn synthetic_content_is_materialized() {
        let fs = MemFs::new();
        fs.create("/f", true).unwrap();
        fs.append("/f", &Content::synthetic(5, 64)).unwrap();
        let read = fs.read_at("/f", 0, 64).unwrap();
        assert!(read.same_bytes(&Content::synthetic(5, 64)));
    }

    #[test]
    fn list_is_sorted() {
        let fs = MemFs::new();
        fs.mkdir("/d").unwrap();
        for name in ["zeta", "alpha", "mid"] {
            fs.create(&join("/d", name), true).unwrap();
        }
        assert_eq!(fs.list("/d").unwrap(), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn unlink_removes_only_files() {
        let fs = MemFs::new();
        fs.mkdir("/d").unwrap();
        fs.create("/d/f", true).unwrap();
        assert!(matches!(fs.unlink("/d"), Err(PlfsError::WrongKind { .. })));
        fs.unlink("/d/f").unwrap();
        assert!(!fs.exists("/d/f"));
        assert!(fs.list("/d").unwrap().is_empty());
    }

    #[test]
    fn remove_all_removes_subtree() {
        let fs = MemFs::new();
        fs.mkdir_all("/a/b/c").unwrap();
        fs.create("/a/b/c/f", true).unwrap();
        fs.remove_all("/a/b").unwrap();
        assert!(!fs.exists("/a/b"));
        assert!(!fs.exists("/a/b/c/f"));
        assert!(fs.exists("/a"));
        assert!(fs.list("/a").unwrap().is_empty());
    }

    #[test]
    fn rename_moves_subtree() {
        let fs = MemFs::new();
        fs.mkdir_all("/a/b").unwrap();
        fs.create("/a/b/f", true).unwrap();
        fs.append("/a/b/f", &Content::bytes(vec![7])).unwrap();
        fs.mkdir("/z").unwrap();
        fs.rename("/a/b", "/z/b2").unwrap();
        assert!(!fs.exists("/a/b"));
        assert_eq!(fs.read_at("/z/b2/f", 0, 1).unwrap().materialize(), vec![7]);
        assert_eq!(fs.list("/a").unwrap(), Vec::<String>::new());
        assert_eq!(fs.list("/z").unwrap(), vec!["b2"]);
    }

    #[test]
    fn rename_into_own_subtree_is_rejected_before_any_mutation() {
        let fs = MemFs::new();
        fs.mkdir_all("/d/x").unwrap();
        fs.create("/d/x/y", true).unwrap();
        for to in ["/d/x", "/d/x/y", "/d/new", "/d/x/new"] {
            assert!(
                matches!(fs.rename("/d", to), Err(PlfsError::InvalidArg(_))),
                "/d -> {to}"
            );
        }
        assert!(matches!(
            fs.rename("/", "/r"),
            Err(PlfsError::InvalidArg(_))
        ));
        // Checked on the paths alone: the source need not exist.
        assert!(matches!(
            fs.rename("/gone", "/gone/x"),
            Err(PlfsError::InvalidArg(_))
        ));
        // A sibling whose name merely starts with the source's is fine.
        fs.rename("/d", "/dd").unwrap();
        fs.rename("/dd", "/d").unwrap();
        // Nothing moved: the tree is attached where it was.
        assert_eq!(fs.list("/").unwrap(), vec!["d"]);
        assert_eq!(fs.list("/d").unwrap(), vec!["x"]);
        assert_eq!(fs.kind("/d/x/y").unwrap(), NodeKind::File);
        assert_eq!(fs.node_count(), 4);
    }

    /// A directory of `siblings` containers-in-miniature, each a
    /// directory holding a subdirectory and two files with known bytes.
    fn crowded(siblings: usize) -> MemFs {
        let fs = MemFs::new();
        fs.mkdir("/big").unwrap();
        for i in 0..siblings {
            let d = format!("/big/c{i:05}");
            fs.mkdir_all(&format!("{d}/sub")).unwrap();
            for f in [format!("{d}/log"), format!("{d}/sub/log")] {
                fs.create(&f, true).unwrap();
                fs.append(&f, &Content::synthetic(i as u64, 16)).unwrap();
            }
        }
        fs
    }

    fn assert_sibling_intact(fs: &MemFs, i: usize) {
        let d = format!("/big/c{i:05}");
        assert_eq!(fs.list(&d).unwrap(), vec!["log", "sub"]);
        for f in [format!("{d}/log"), format!("{d}/sub/log")] {
            let got = fs.read_at(&f, 0, 64).unwrap();
            assert!(got.same_bytes(&Content::synthetic(i as u64, 16)), "{f}");
        }
    }

    #[test]
    fn subtree_walk_returns_exactly_the_targets_own_nodes() {
        // What pins O(subtree) without a clock: among 10,000 siblings
        // (40,002 nodes) the helper names the target's four nodes and
        // nothing else — not the sibling whose path has the target's as
        // a string prefix, and not a key planted under the target that
        // no directory lists, which only a scan of the keys could find.
        let fs = crowded(10_000);
        fs.mkdir("/big/c00042x").unwrap();
        let orphan = "/big/c00042/unlisted".to_string();
        fs.nodes.write().insert(orphan, Node::File(Vec::new()));
        let nodes = fs.nodes.read();
        assert_eq!(nodes.len(), 40_004);
        assert_eq!(
            MemFs::subtree(&nodes, "/big/c00042"),
            [
                "/big/c00042",
                "/big/c00042/log",
                "/big/c00042/sub",
                "/big/c00042/sub/log"
            ]
        );
        assert_eq!(
            MemFs::subtree(&nodes, "/big/c00042/log"),
            ["/big/c00042/log"]
        );
        assert_eq!(MemFs::subtree(&nodes, "/big").len(), 40_002);
    }

    #[test]
    fn subtree_ops_leave_every_sibling_byte_intact() {
        const N: usize = 64;
        let fs = crowded(N);
        fs.remove_all("/big/c00007").unwrap();
        fs.rename("/big/c00008", "/big/moved").unwrap();
        assert_eq!(fs.node_count(), 2 + 4 * (N - 1));
        let names = fs.list("/big").unwrap();
        assert_eq!(names.len(), N - 1);
        assert!(names.is_sorted());
        assert!(!fs.exists("/big/c00007/sub/log") && !fs.exists("/big/c00008/sub/log"));
        for i in (0..N).filter(|i| ![7, 8].contains(i)) {
            assert_sibling_intact(&fs, i);
        }
        // The moved subtree arrived whole, two levels deep.
        fs.rename("/big/moved", "/big/c00008").unwrap();
        assert_sibling_intact(&fs, 8);
    }

    #[test]
    fn rename_conflict_and_missing_target_dir() {
        let fs = MemFs::new();
        fs.create("/f", true).unwrap();
        fs.create("/g", true).unwrap();
        assert!(matches!(
            fs.rename("/f", "/g"),
            Err(PlfsError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.rename("/f", "/nodir/f"),
            Err(PlfsError::NotFound(_))
        ));
    }

    #[test]
    fn concurrent_appends_from_threads() {
        use std::sync::Arc;
        let fs = Arc::new(MemFs::new());
        fs.mkdir("/logs").unwrap();
        let mut handles = Vec::new();
        for w in 0..8 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                let p = format!("/logs/w{w}");
                fs.create(&p, true).unwrap();
                for i in 0..100u64 {
                    fs.append(&p, &Content::bytes(i.to_le_bytes().to_vec()))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for w in 0..8 {
            assert_eq!(fs.size(&format!("/logs/w{w}")).unwrap(), 800);
        }
    }

    #[test]
    fn diagnostics_count_bytes_and_nodes() {
        let fs = MemFs::new();
        fs.create("/f", true).unwrap();
        fs.append("/f", &Content::bytes(vec![0; 10])).unwrap();
        assert_eq!(fs.total_bytes(), 10);
        assert_eq!(fs.node_count(), 2); // root + file
    }
}

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
//! `append` copies each payload byte once; a `ReadAt` inside one sealed
//! chunk copies nothing.
//!
//! **A file is sealed chunks and a tail.** Its bytes are a list of full,
//! immutable 64 KiB chunks held as `Bytes`, then an owned `Vec<u8>`
//! tail that appends fill in place. A tail grows as a `Vec` does, but
//! never past 64 KiB, and until the first one fills it is the whole file
//! (a small file's node is no larger than a plain `Vec`'s); a full tail
//! is sealed into a chunk without a copy. A `ReadAt` that lies inside
//! one sealed chunk returns a `Bytes::slice` of it — a refcount bump, so
//! a restart read's only copy is the reader's into its caller's buffer —
//! and one that crosses chunks or touches the tail is one copy. A
//! returned read keeps its bytes whatever later happens to the file
//! (appends, truncation, unlink, rename): sealed chunks are never written
//! again, and tail bytes were copied out. The chunks live under the same
//! `nodes` lock as everything else (DESIGN.md §5i).
//!
//! **Why still one lock and a flat map.** Both alternatives were built
//! and lost on the benchmark at 2 cores (DESIGN.md §5i, the
//! `memfs-nodes` row). A directory *tree* matched the subtree walk on
//! `meta_storm_mem` but cost `ckpt_n1_mem` 9–14% `ops_per_s` and creates
//! +33% latency: four or five short hashes per op cost more than one
//! long one. *Per-file
//! locks with appends under the shared namespace lock* cost
//! single-threaded `ckpt_n1_mem` 9–16% and took `writer.threads2_speedup`
//! 0.97 → 0.71: the locks are `std` locks, and two cores contend on the
//! reader count as hard as on the writer bit.

use crate::backend::{Backend, NodeKind};
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::ioplane::{IoOp, IoOutcome, IoValue};
use crate::path::{is_inside, join, parent, try_normalize, try_normalize_cow};
use crate::sync::{class, RwLock};
use bytes::Bytes;
use std::collections::{BTreeSet, HashMap};

#[derive(Debug)]
enum Node {
    File(FileData),
    Dir(BTreeSet<String>),
}

/// Bytes per sealed chunk of a file.
const SEAL: usize = 64 << 10;

/// A file's bytes. A file that never filled a chunk is a plain `Vec`, so
/// a small file's node is no larger than before chunking; from its first
/// seal on it is sealed chunks and a tail, boxed together.
#[derive(Debug)]
enum FileData {
    Flat(Vec<u8>),
    Chunked(Box<Chunked>),
}

/// Chunks of exactly [`SEAL`] bytes each, then a `tail` of fewer.
#[derive(Debug)]
struct Chunked {
    sealed: Vec<Bytes>,
    tail: Vec<u8>,
}

impl FileData {
    /// The sealed chunks and the tail.
    fn parts(&self) -> (&[Bytes], &[u8]) {
        match self {
            FileData::Flat(tail) => (&[], tail),
            FileData::Chunked(c) => (&c.sealed, &c.tail),
        }
    }

    fn len(&self) -> usize {
        let (sealed, tail) = self.parts();
        sealed.len() * SEAL + tail.len()
    }

    /// Truncate to empty. Reads already handed out keep their bytes.
    fn clear(&mut self) {
        match self {
            FileData::Flat(tail) => tail.clear(),
            FileData::Chunked(_) => *self = FileData::Flat(Vec::new()),
        }
    }

    /// Copy `data` onto the end, sealing each tail that fills.
    fn extend(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let (sealed, tail) = match self {
                FileData::Flat(tail) => (None, tail),
                FileData::Chunked(c) => (Some(&mut c.sealed), &mut c.tail),
            };
            let (len, cap) = (tail.len(), tail.capacity());
            let (now, rest) = data.split_at(data.len().min(SEAL - len));
            if cap - len < now.len() {
                // Double as a `Vec` would, but never past a chunk.
                tail.reserve_exact((2 * cap).max(len + now.len()).clamp(8, SEAL) - len);
            }
            tail.extend_from_slice(now);
            data = rest;
            if tail.len() == SEAL {
                let full = Bytes::from(std::mem::take(tail));
                match sealed {
                    Some(sealed) => sealed.push(full),
                    None => {
                        *self = FileData::Chunked(Box::new(Chunked {
                            sealed: vec![full],
                            tail: Vec::new(),
                        }))
                    }
                }
            }
        }
    }

    /// `len` bytes at `offset`, clamped at the end of the file: a slice
    /// of the sealed chunk that holds them all, else one copy.
    fn range(&self, offset: u64, len: u64) -> Content {
        let (sealed, tail) = self.parts();
        let size = self.len() as u64;
        let start = offset.min(size) as usize;
        let end = offset.saturating_add(len).min(size) as usize;
        if start == end {
            return Content::Bytes(Bytes::new());
        }
        let first = start / SEAL;
        if first == (end - 1) / SEAL && first < sealed.len() {
            let base = first * SEAL;
            return Content::Bytes(sealed[first].slice(start - base..end - base));
        }
        let mut out = Vec::with_capacity(end - start);
        let mut pos = start;
        while pos < end {
            let chunk: &[u8] = sealed.get(pos / SEAL).map_or(tail, |c| c);
            let at = pos % SEAL;
            let n = (chunk.len() - at).min(end - pos);
            out.extend_from_slice(&chunk[at..at + n]);
            pos += n;
        }
        Content::bytes(out)
    }
}

/// An in-memory file system rooted at `/`.
#[derive(Debug)]
pub struct MemFs {
    nodes: RwLock<HashMap<String, Node>, class::MemfsNodes>,
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
                Node::File(f) => f.len() as u64,
                Node::Dir(_) => 0,
            })
            .sum()
    }

    /// Number of nodes including the root directory: every key of the
    /// map, so a subtree that no directory lists still counts.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
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
            Some(Node::File(file)) => {
                if exclusive {
                    Err(PlfsError::AlreadyExists(path))
                } else {
                    file.clear();
                    Ok(())
                }
            }
            Some(Node::Dir(_)) => Err(PlfsError::WrongKind {
                path,
                expected: "file",
            }),
            None => Self::insert_child(nodes, &path, Node::File(FileData::Flat(Vec::new()))),
        }
    }

    fn do_append(nodes: &mut HashMap<String, Node>, path: &str, content: &Content) -> Result<u64> {
        let path = try_normalize_cow(path)?;
        match nodes.get_mut(path.as_ref()) {
            Some(Node::File(file)) => {
                let off = file.len() as u64;
                file.extend(&content.as_bytes());
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
            Some(Node::File(file)) => Ok(file.range(offset, len)),
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
            Some(Node::File(file)) => Ok(file.len() as u64),
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
        let empty = Node::File(FileData::Flat(Vec::new()));
        fs.nodes.write().insert(orphan, empty);
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

    /// One step of the chunked-storage model test.
    enum Step {
        /// Append this many bytes at once.
        Append(usize),
        /// Many small appends in a row, so runs of them cross a seal.
        Burst(Vec<usize>),
        /// `ReadAt` of `(offset, len)`, kept to be checked at the end.
        Read(u64, u64),
        /// Non-exclusive `create`: truncate to empty.
        Truncate,
        /// `unlink`, then `create` the path afresh.
        Unlink,
        /// `rename` the file to the other name.
        Rename,
    }

    fn arb_step() -> impl proptest::Strategy<Value = Step> {
        use proptest::prelude::*;
        let seal = SEAL as u64;
        let sizes = [0, 1, SEAL - 1, SEAL, SEAL + 1, 3 * SEAL + 7];
        let lens = [0, 1, seal - 1, seal];
        let size = (0..8usize, 1..300usize);
        let burst = prop::collection::vec(1..2000usize, 1..120);
        // Anywhere in six chunks, or a byte either side of a boundary.
        let offset = (0..2u8, 0..6 * seal, 0..6u64, 0..3u64);
        let len = (0..6usize, 1..64u64, seal..3 * seal);
        (0..15u8, size, burst, offset, len).prop_map(
            move |(kind, (s, small), burst, (aligned, anywhere, k, d), (l, short, long))| {
                let offset = match aligned {
                    0 => anywhere,
                    _ => (k * seal + d).saturating_sub(1),
                };
                let len = match l {
                    4 => short,
                    5 => long,
                    i => lens[i],
                };
                match kind {
                    0..=3 => Step::Append(sizes.get(s).copied().unwrap_or(small)),
                    4..=5 => Step::Burst(burst),
                    6..=11 => Step::Read(offset, len),
                    12 => Step::Truncate,
                    13 => Step::Unlink,
                    _ => Step::Rename,
                }
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Chunked storage against a flat `Vec<u8>`: every size and read
        /// agrees with the model; a read inside one sealed chunk shares
        /// it (a second read of the range sees the same buffer) and any
        /// other read is a private copy; and every read handed out keeps
        /// its bytes through all that follows it — appends, truncation,
        /// unlink and rename included.
        #[test]
        fn chunked_files_match_a_flat_model(
            steps in proptest::collection::vec(arb_step(), 1..40)
        ) {
            use proptest::prop_assert_eq;
            let fs = MemFs::new();
            let (mut path, mut other) = ("/f", "/g");
            fs.create(path, true).unwrap();
            let mut model: Vec<u8> = Vec::new();
            let mut next = 0u64;
            let mut held: Vec<(Content, Vec<u8>)> = Vec::new();
            let seal = SEAL as u64;
            let mut append = |fs: &MemFs, model: &mut Vec<u8>, path: &str, n: usize| {
                let data: Vec<u8> = (next..next + n as u64).map(|i| (i % 251) as u8).collect();
                next += n as u64;
                let off = fs.append(path, &Content::bytes(data.clone())).unwrap();
                assert_eq!(off, model.len() as u64);
                model.extend_from_slice(&data);
            };
            for step in steps {
                match step {
                    Step::Append(n) => append(&fs, &mut model, path, n),
                    Step::Burst(ns) => {
                        ns.into_iter().for_each(|n| append(&fs, &mut model, path, n))
                    }
                    Step::Read(offset, len) => {
                        let size = model.len() as u64;
                        let (start, end) = (offset.min(size), (offset + len).min(size));
                        let want = model[start as usize..end as usize].to_vec();
                        let got = fs.read_at(path, offset, len).unwrap();
                        prop_assert_eq!(got.as_bytes(), &want[..]);
                        if start < end {
                            let in_one_chunk = start / seal == (end - 1) / seal
                                && end <= size - size % seal;
                            let again = fs.read_at(path, offset, len).unwrap();
                            let shared = got.as_bytes().as_ptr() == again.as_bytes().as_ptr();
                            prop_assert_eq!(shared, in_one_chunk, "[{start}, {end}) of {size}");
                        }
                        held.push((got, want));
                    }
                    Step::Truncate => {
                        fs.create(path, false).unwrap();
                        model.clear();
                    }
                    Step::Unlink => {
                        fs.unlink(path).unwrap();
                        fs.create(path, true).unwrap();
                        model.clear();
                    }
                    Step::Rename => {
                        fs.rename(path, other).unwrap();
                        (path, other) = (other, path);
                    }
                }
                prop_assert_eq!(fs.size(path).unwrap(), model.len() as u64);
            }
            prop_assert_eq!(fs.read_at(path, 0, u64::MAX).unwrap().as_bytes(), &model[..]);
            for (content, want) in &held {
                prop_assert_eq!(content.as_bytes(), &want[..]);
            }
        }
    }

    #[test]
    fn a_file_node_is_no_larger_than_a_flat_one() {
        // One `Node` per namespace entry: a `Node::File(Vec<u8>)` beside
        // `Node::Dir` took a `Vec` and a tag word, and a chunked file
        // must not grow every entry past that.
        let flat = std::mem::size_of::<Vec<u8>>() + std::mem::size_of::<usize>();
        assert!(std::mem::size_of::<Node>() <= flat);
    }

    #[test]
    fn a_files_tails_never_outgrow_a_chunk() {
        // 40 B records double a tail 40, 80, ..., 40,960 B; a plain `Vec`
        // would go on to 81,920 B before it held a chunk, and the sealed
        // chunk would keep the spare 16 KiB.
        let mut file = FileData::Flat(Vec::new());
        while file.len() + 40 <= SEAL {
            file.extend(&[7; 40]);
        }
        let FileData::Flat(tail) = &file else {
            panic!("sealed before a chunk filled")
        };
        assert_eq!(tail.capacity(), SEAL);
        file.extend(&[7; 40]);
        let FileData::Chunked(c) = &file else {
            panic!("a full chunk was not sealed")
        };
        assert_eq!((c.sealed.len(), c.tail.len()), (1, 40 - SEAL % 40));
        while file.len() + 40 <= 2 * SEAL {
            file.extend(&[7; 40]);
        }
        let FileData::Chunked(c) = &file else {
            unreachable!("a chunked file stays chunked")
        };
        assert_eq!(c.tail.capacity(), SEAL, "later tails double alike");
    }
}

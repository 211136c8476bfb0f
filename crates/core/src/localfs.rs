//! Backend over a real directory via `std::fs`.
//!
//! This is the deployment path a FUSE mount would use: PLFS containers are
//! real directories, data/index logs are real files, and anything written
//! through the middleware is durable on the host file system. The
//! `quickstart` example runs over this backend.

use crate::backend::{Backend, NodeKind};
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::ioplane::{IoOp, IoOutcome, IoValue};
use crate::path::{parent, try_normalize};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A backend rooted at a host directory.
///
/// The root must be on a file system with hard links: a no-replace
/// `Rename` of a file links the new name before it unlinks the old
/// (DESIGN.md §5c), so without them every file rename fails with an `Io`
/// error.
#[derive(Debug, Clone)]
pub struct LocalFs {
    root: PathBuf,
}

impl LocalFs {
    /// Create a backend rooted at `root`, creating the directory if needed.
    pub fn new(root: impl AsRef<Path>) -> Result<Self> {
        fs::create_dir_all(root.as_ref())?;
        Ok(LocalFs {
            root: root.as_ref().to_path_buf(),
        })
    }

    fn host(&self, path: &str) -> Result<PathBuf> {
        let norm = try_normalize(path)?;
        let mut p = self.root.clone();
        for seg in norm.split('/').filter(|s| !s.is_empty()) {
            p.push(seg);
        }
        Ok(p)
    }

    /// The error `MemFs` gives for the same failure on `path`: the OS's
    /// "not found" and "already exists" carry the PLFS path, and a path
    /// *through* a file (ENOTDIR) names nothing, so it is not found.
    fn os_err(e: std::io::Error, path: &str) -> PlfsError {
        use std::io::ErrorKind::{AlreadyExists, NotADirectory, NotFound};
        match e.kind() {
            NotFound | NotADirectory => PlfsError::NotFound(path.to_string()),
            AlreadyExists => PlfsError::AlreadyExists(path.to_string()),
            _ => e.into(),
        }
    }

    /// [`Self::os_err`] for an op that adds the name `path` (at `host`):
    /// there a parent that is a file is the wrong kind, as on `MemFs`.
    fn os_err_adding(e: std::io::Error, host: &Path, path: &str) -> PlfsError {
        if host.parent().is_some_and(Path::is_file) {
            PlfsError::WrongKind {
                path: parent(path),
                expected: "directory",
            }
        } else {
            Self::os_err(e, path)
        }
    }

    /// `NotFound`, or `WrongKind` when `path` is a directory: what an
    /// append to anything but a file answers.
    fn not_a_file(host: &Path, path: &str) -> PlfsError {
        if host.is_dir() {
            PlfsError::WrongKind {
                path: path.to_string(),
                expected: "file",
            }
        } else {
            PlfsError::NotFound(path.to_string())
        }
    }

    /// Execute a run of `Append { path, .. }` ops against one open
    /// descriptor instead of re-opening the file per op. On any failure
    /// the failing op gets its error and the rest of the run falls back
    /// to per-op dispatch, preserving per-op outcomes.
    fn append_run(&self, path: &str, run: &[IoOp], out: &mut Vec<IoOutcome>) {
        let opened = (|| -> Result<fs::File> {
            let host = self.host(path)?;
            if !host.is_file() {
                return Err(Self::not_a_file(&host, path));
            }
            Ok(fs::OpenOptions::new().append(true).open(&host)?)
        })();
        let mut f = match opened {
            Ok(f) => f,
            Err(e) => {
                // Report the open failure on the first op; the rest of
                // the run re-dispatches so each op observes its own error.
                out.push(Err(e));
                for op in &run[1..] {
                    out.push(self.os_apply(op));
                }
                return;
            }
        };
        let mut cursor = match f.seek(SeekFrom::End(0)) {
            Ok(off) => off,
            Err(e) => {
                out.push(Err(e.into()));
                for op in &run[1..] {
                    out.push(self.os_apply(op));
                }
                return;
            }
        };
        for (i, op) in run.iter().enumerate() {
            let IoOp::Append { content, .. } = op else {
                out.push(Err(PlfsError::InvalidArg(
                    "append run contained a non-append op".into(),
                )));
                continue;
            };
            match f.write_all(&content.as_bytes()) {
                Ok(()) => {
                    out.push(Ok(IoValue::Offset(cursor)));
                    cursor += content.len();
                }
                Err(e) => {
                    out.push(Err(e.into()));
                    drop(f);
                    for rest in &run[i + 1..] {
                        out.push(self.os_apply(rest));
                    }
                    return;
                }
            }
        }
    }

    /// Execute a run of `ReadAt { path, .. }` ops against one open file
    /// (one open + one metadata fetch for the whole run) instead of
    /// re-opening per op.
    fn read_run(&self, path: &str, run: &[IoOp], out: &mut Vec<IoOutcome>) {
        let opened = (|| -> Result<(fs::File, u64)> {
            let host = self.host(path)?;
            if host.is_dir() {
                return Err(PlfsError::WrongKind {
                    path: path.to_string(),
                    expected: "file",
                });
            }
            let f = fs::File::open(&host).map_err(|e| Self::os_err(e, path))?;
            let size = f.metadata()?.len();
            Ok((f, size))
        })();
        let (mut f, size) = match opened {
            Ok(v) => v,
            Err(e) => {
                out.push(Err(e));
                for op in &run[1..] {
                    out.push(self.os_apply(op));
                }
                return;
            }
        };
        for op in run {
            let IoOp::ReadAt { offset, len, .. } = op else {
                out.push(Err(PlfsError::InvalidArg(
                    "read run contained a non-read op".into(),
                )));
                continue;
            };
            let outcome = (|| -> Result<IoValue> {
                let start = (*offset).min(size);
                let end = (offset + len).min(size);
                let mut buf = vec![0u8; (end - start) as usize];
                f.seek(SeekFrom::Start(start))?;
                f.read_exact(&mut buf)?;
                Ok(IoValue::Data(Content::bytes(buf)))
            })();
            out.push(outcome);
        }
    }

    // One helper per op, behind `os_apply`.

    fn os_mkdir(&self, path: &str) -> Result<()> {
        let host = self.host(path)?;
        fs::create_dir(&host).map_err(|e| Self::os_err_adding(e, &host, path))
    }

    fn os_mkdir_all(&self, path: &str) -> Result<()> {
        let host = self.host(path)?;
        fs::create_dir_all(&host).map_err(|e| {
            // A file where a directory is needed, at the path or above it.
            if host.ancestors().any(|p| p.is_file()) {
                PlfsError::WrongKind {
                    path: path.to_string(),
                    expected: "directory",
                }
            } else {
                Self::os_err(e, path)
            }
        })
    }

    fn os_create(&self, path: &str, exclusive: bool) -> Result<()> {
        let host = self.host(path)?;
        let res = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .create_new(exclusive)
            .truncate(!exclusive)
            .open(&host);
        match res {
            Ok(_) => Ok(()),
            Err(_) if host.is_dir() => Err(PlfsError::WrongKind {
                path: path.to_string(),
                expected: "file",
            }),
            Err(e) => Err(Self::os_err_adding(e, &host, path)),
        }
    }

    fn os_append(&self, path: &str, content: &Content) -> Result<u64> {
        let host = self.host(path)?;
        if !host.is_file() {
            return Err(Self::not_a_file(&host, path));
        }
        let mut f = fs::OpenOptions::new().append(true).open(&host)?;
        let off = f.seek(SeekFrom::End(0))?;
        f.write_all(&content.as_bytes())?;
        Ok(off)
    }

    fn os_read_at(&self, path: &str, offset: u64, len: u64) -> Result<Content> {
        let host = self.host(path)?;
        if host.is_dir() {
            return Err(PlfsError::WrongKind {
                path: path.to_string(),
                expected: "file",
            });
        }
        let mut f = fs::File::open(&host).map_err(|e| Self::os_err(e, path))?;
        let size = f.metadata()?.len();
        let start = offset.min(size);
        let end = (offset + len).min(size);
        let mut buf = vec![0u8; (end - start) as usize];
        f.seek(SeekFrom::Start(start))?;
        f.read_exact(&mut buf)?;
        Ok(Content::bytes(buf))
    }

    fn os_size(&self, path: &str) -> Result<u64> {
        let host = self.host(path)?;
        let md = fs::metadata(&host).map_err(|e| Self::os_err(e, path))?;
        if md.is_dir() {
            return Err(PlfsError::WrongKind {
                path: path.to_string(),
                expected: "file",
            });
        }
        Ok(md.len())
    }

    fn os_kind(&self, path: &str) -> Result<NodeKind> {
        let host = self.host(path)?;
        let md = fs::metadata(&host).map_err(|e| Self::os_err(e, path))?;
        Ok(if md.is_dir() {
            NodeKind::Dir
        } else {
            NodeKind::File
        })
    }

    fn os_list(&self, path: &str) -> Result<Vec<String>> {
        let host = self.host(path)?;
        if host.is_file() {
            return Err(PlfsError::WrongKind {
                path: path.to_string(),
                expected: "directory",
            });
        }
        let rd = fs::read_dir(&host).map_err(|e| Self::os_err(e, path))?;
        let mut names: Vec<String> = rd
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        Ok(names)
    }

    fn os_unlink(&self, path: &str) -> Result<()> {
        let host = self.host(path)?;
        if host.is_dir() {
            return Err(PlfsError::WrongKind {
                path: path.to_string(),
                expected: "file",
            });
        }
        fs::remove_file(&host).map_err(|e| Self::os_err(e, path))
    }

    fn os_remove_all(&self, path: &str) -> Result<()> {
        let host = self.host(path)?;
        if !host.exists() {
            return Err(PlfsError::NotFound(path.to_string()));
        }
        if host.is_dir() {
            fs::remove_dir_all(&host)?;
        } else {
            fs::remove_file(&host)?;
        }
        Ok(())
    }

    fn os_rename(&self, from: &str, to: &str) -> Result<()> {
        let from_host = self.host(from)?;
        let to_host = self.host(to)?;
        // The OS says EINVAL here too, but as an untyped `Io`; `MemFs`
        // answers `InvalidArg`, and so does this, before any syscall.
        if to_host != from_host && to_host.starts_with(&from_host) {
            return Err(PlfsError::InvalidArg(format!(
                "cannot rename {from} into itself ({to})"
            )));
        }
        if !from_host.exists() {
            return Err(PlfsError::NotFound(from.to_string()));
        }
        // rename(2) replaces its target, so "no replace" cannot be an
        // `exists()` check before it: a racing rename onto the same name
        // lands in between. A file is hard-linked under its new name,
        // which fails with EEXIST, then unlinked under the old one — a
        // crash between the two leaves it under both (DESIGN.md §5c). A
        // directory is renamed: onto a non-empty one that is ENOTEMPTY.
        if !from_host.is_dir() {
            fs::hard_link(&from_host, &to_host).map_err(|e| Self::os_err(e, to))?;
            return match fs::remove_file(&from_host) {
                Ok(()) => Ok(()),
                // The old name would not go (a racing rename of the same
                // source took it first): take the new one back, so this
                // rename did not happen.
                Err(e) => match fs::remove_file(&to_host) {
                    Ok(()) => Err(Self::os_err(e, from)),
                    Err(undo) => Err(Self::os_err(undo, to)),
                },
            };
        }
        if to_host.exists() {
            return Err(PlfsError::AlreadyExists(to.to_string()));
        }
        fs::rename(&from_host, &to_host).map_err(|e| match e.kind() {
            std::io::ErrorKind::DirectoryNotEmpty => PlfsError::AlreadyExists(to.to_string()),
            _ => Self::os_err(e, to),
        })
    }

    /// Execute one op: what `submit` runs outside its append and read
    /// runs, and what a run falls back to once an op in it has failed.
    fn os_apply(&self, op: &IoOp) -> IoOutcome {
        match op {
            IoOp::Mkdir { path } => self.os_mkdir(path).map(|()| IoValue::Unit),
            IoOp::MkdirAll { path } => self.os_mkdir_all(path).map(|()| IoValue::Unit),
            IoOp::Create { path, exclusive } => {
                self.os_create(path, *exclusive).map(|()| IoValue::Unit)
            }
            IoOp::Append { path, content } => self.os_append(path, content).map(IoValue::Offset),
            IoOp::ReadAt { path, offset, len } => {
                self.os_read_at(path, *offset, *len).map(IoValue::Data)
            }
            IoOp::Size { path } => self.os_size(path).map(IoValue::Size),
            IoOp::Kind { path } => self.os_kind(path).map(IoValue::Kind),
            IoOp::Readdir { path } => self.os_list(path).map(IoValue::Names),
            IoOp::Unlink { path } => self.os_unlink(path).map(|()| IoValue::Unit),
            IoOp::RemoveAll { path } => self.os_remove_all(path).map(|()| IoValue::Unit),
            IoOp::Rename { from, to } => self.os_rename(from, to).map(|()| IoValue::Unit),
        }
    }
}

impl Backend for LocalFs {
    /// Native batched fast path: adjacent same-path appends share one
    /// open descriptor (the log-append pattern of `WriteHandle` flush)
    /// and adjacent same-path reads share one open + metadata fetch
    /// (the coalesced-read pattern of `ReadHandle`). A lone op runs
    /// through `os_apply`, so a one-op batch is the sequential reference
    /// the runs are checked against; outcomes are identical either way.
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        let mut out = Vec::with_capacity(batch.len());
        let mut i = 0;
        while i < batch.len() {
            let op = &batch[i];
            let same_run = |next: &IoOp| match (op, next) {
                (IoOp::Append { path, .. }, IoOp::Append { path: p, .. })
                | (IoOp::ReadAt { path, .. }, IoOp::ReadAt { path: p, .. }) => p == path,
                _ => false,
            };
            let j = i
                + 1
                + batch[i + 1..]
                    .iter()
                    .take_while(|next| same_run(next))
                    .count();
            match op {
                IoOp::Append { path, .. } if j > i + 1 => {
                    self.append_run(path, &batch[i..j], &mut out)
                }
                IoOp::ReadAt { path, .. } if j > i + 1 => {
                    self.read_run(path, &batch[i..j], &mut out)
                }
                _ => out.push(self.os_apply(op)),
            }
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> (LocalFs, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "plfs-localfs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // Pre-clean from an earlier run; only "nothing to remove" is OK.
        match fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        }
        (LocalFs::new(&dir).unwrap(), dir)
    }

    #[test]
    fn roundtrip_on_real_filesystem() {
        let (fs_, dir) = tmp();
        fs_.mkdir_all("/a/b").unwrap();
        fs_.create("/a/b/f", true).unwrap();
        fs_.append("/a/b/f", &Content::bytes(b"hello ".to_vec()))
            .unwrap();
        let off = fs_
            .append("/a/b/f", &Content::bytes(b"world".to_vec()))
            .unwrap();
        assert_eq!(off, 6);
        assert_eq!(
            fs_.read_at("/a/b/f", 0, 64).unwrap().materialize(),
            b"hello world".to_vec()
        );
        assert_eq!(fs_.size("/a/b/f").unwrap(), 11);
        assert_eq!(fs_.kind("/a/b").unwrap(), NodeKind::Dir);
        assert_eq!(fs_.list("/a/b").unwrap(), vec!["f"]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn errors_map_to_plfs_errors() {
        let (fs_, dir) = tmp();
        assert!(matches!(fs_.size("/missing"), Err(PlfsError::NotFound(_))));
        fs_.create("/f", true).unwrap();
        assert!(matches!(
            fs_.create("/f", true),
            Err(PlfsError::AlreadyExists(_))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rename_and_remove_all() {
        let (fs_, dir) = tmp();
        fs_.mkdir_all("/c/sub").unwrap();
        fs_.create("/c/sub/f", true).unwrap();
        fs_.rename("/c", "/c2").unwrap();
        assert!(fs_.exists("/c2/sub/f"));
        fs_.remove_all("/c2").unwrap();
        assert!(!fs_.exists("/c2"));
        fs::remove_dir_all(dir).unwrap();
    }

    /// Two sources renamed onto one target at once, many times over: one
    /// rename wins, the other gets `AlreadyExists` and keeps its source,
    /// and no byte of either is lost. Even rounds race two files, odd
    /// rounds two non-empty directories. Two threads, no more.
    #[test]
    fn racing_renames_onto_one_target_replace_nothing() {
        let (fs_, dir) = tmp();
        let start = std::sync::Barrier::new(2);
        for round in 0..200 {
            let srcs = [format!("/a{round}"), format!("/b{round}")];
            let to = format!("/t{round}");
            // The file whose bytes `path` holds: itself, or one inside it.
            let file = |path: &str| match round % 2 {
                0 => path.to_string(),
                _ => format!("{path}/f"),
            };
            for (len, src) in [8, 16].into_iter().zip(&srcs) {
                if round % 2 == 1 {
                    fs_.mkdir(src).unwrap();
                }
                fs_.create(&file(src), true).unwrap();
                fs_.append(&file(src), &Content::bytes(vec![len as u8; len]))
                    .unwrap();
            }
            let rename = |src: &str| {
                start.wait();
                fs_.rename(src, &to)
            };
            let outcomes = std::thread::scope(|s| {
                let other = s.spawn(|| rename(&srcs[1]));
                [rename(&srcs[0]), other.join().unwrap()]
            });
            let won = match &outcomes {
                [Ok(()), Err(PlfsError::AlreadyExists(_))] => 0,
                [Err(PlfsError::AlreadyExists(_)), Ok(())] => 1,
                other => panic!("round {round}: {other:?}"),
            };
            let (won_len, lost_len) = if won == 0 { (8, 16) } else { (16, 8) };
            let bytes = |path: &str| fs_.read_at(&file(path), 0, 16).unwrap().materialize();
            assert_eq!(bytes(&to), vec![won_len as u8; won_len]);
            assert_eq!(bytes(&srcs[1 - won]), vec![lost_len as u8; lost_len]);
            assert!(
                !fs_.exists(&srcs[won]),
                "round {round}: the winner's source stayed"
            );
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rename_into_own_subtree_is_invalid_arg_like_memfs() {
        let (fs_, dir) = tmp();
        fs_.mkdir_all("/d/x").unwrap();
        fs_.create("/d/x/y", true).unwrap();
        for to in ["/d/x", "/d/new", "/d/x/new"] {
            assert!(
                matches!(fs_.rename("/d", to), Err(PlfsError::InvalidArg(_))),
                "/d -> {to}"
            );
        }
        assert!(matches!(
            fs_.rename("/", "/r"),
            Err(PlfsError::InvalidArg(_))
        ));
        fs_.rename("/d", "/dd").unwrap();
        assert!(fs_.exists("/dd/x/y"));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn batched_submit_matches_sequential_semantics() {
        let (fs_, dir) = tmp();
        fs_.mkdir_all("/logs").unwrap();
        fs_.create("/logs/a", true).unwrap();
        fs_.create("/logs/b", true).unwrap();
        // Mixed batch: an append run on /logs/a, a lone append on
        // /logs/b, a metadata op, then a read run back over /logs/a.
        let batch = vec![
            IoOp::Append {
                path: "/logs/a".into(),
                content: Content::bytes(b"one".to_vec()),
            },
            IoOp::Append {
                path: "/logs/a".into(),
                content: Content::bytes(b"two".to_vec()),
            },
            IoOp::Append {
                path: "/logs/b".into(),
                content: Content::bytes(b"zzz".to_vec()),
            },
            IoOp::Size {
                path: "/logs/a".into(),
            },
            IoOp::ReadAt {
                path: "/logs/a".into(),
                offset: 0,
                len: 3,
            },
            IoOp::ReadAt {
                path: "/logs/a".into(),
                offset: 3,
                len: 100,
            },
        ];
        let out = fs_.submit(&batch);
        assert_eq!(out.len(), batch.len());
        assert!(matches!(out[0], Ok(IoValue::Offset(0))));
        assert!(matches!(out[1], Ok(IoValue::Offset(3))));
        assert!(matches!(out[2], Ok(IoValue::Offset(0))));
        assert!(matches!(out[3], Ok(IoValue::Size(6))));
        match (&out[4], &out[5]) {
            (Ok(IoValue::Data(a)), Ok(IoValue::Data(b))) => {
                assert_eq!(a.materialize(), b"one".to_vec());
                assert_eq!(b.materialize(), b"two".to_vec());
            }
            other => panic!("expected data outcomes, got {other:?}"),
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn batched_append_run_fails_per_op_not_per_batch() {
        let (fs_, dir) = tmp();
        fs_.create("/f", true).unwrap();
        let batch = vec![
            IoOp::Append {
                path: "/missing".into(),
                content: Content::bytes(b"x".to_vec()),
            },
            IoOp::Append {
                path: "/missing".into(),
                content: Content::bytes(b"y".to_vec()),
            },
            IoOp::Append {
                path: "/f".into(),
                content: Content::bytes(b"ok".to_vec()),
            },
        ];
        let out = fs_.submit(&batch);
        assert!(matches!(out[0], Err(PlfsError::NotFound(_))));
        assert!(matches!(out[1], Err(PlfsError::NotFound(_))));
        assert!(matches!(out[2], Ok(IoValue::Offset(0))));
        assert_eq!(fs_.read_at("/f", 0, 10).unwrap().materialize(), b"ok");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn read_past_eof_is_short() {
        let (fs_, dir) = tmp();
        fs_.create("/f", true).unwrap();
        fs_.append("/f", &Content::bytes(vec![1, 2, 3])).unwrap();
        assert_eq!(fs_.read_at("/f", 2, 100).unwrap().len(), 1);
        assert_eq!(fs_.read_at("/f", 50, 10).unwrap().len(), 0);
        fs::remove_dir_all(dir).unwrap();
    }
}

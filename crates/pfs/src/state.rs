//! Lightweight namespace state for the simulated file system.
//!
//! The simulator tracks *structure* (which files and directories exist,
//! their sizes), not payload bytes — byte-level correctness of the
//! middleware is proven separately by the `plfs` crate's tests over real
//! backends. Keeping sizes here lets the read path depend on what the
//! write phase actually produced (e.g. index-log sizes drive aggregation
//! cost) instead of on analytic guesses.

use std::collections::HashMap;

/// Stable identifier for a file (drives stripe → OSS placement).
pub type FileId = u64;

#[derive(Debug, Clone, Copy)]
pub struct FileState {
    pub id: FileId,
    pub size: u64,
}

/// Namespace: files with sizes, directories with child counts.
#[derive(Debug, Default)]
pub struct Namespace {
    files: HashMap<String, FileState>,
    dirs: HashMap<String, usize>,
    next_id: FileId,
}

impl Namespace {
    pub fn new() -> Self {
        let mut ns = Namespace::default();
        ns.dirs.insert("/".to_string(), 0);
        ns
    }

    /// Create a directory (idempotent; ancestors are created implicitly —
    /// the *cost* of each mkdir is charged by the caller, this is state
    /// only).
    pub fn mkdir(&mut self, path: &str) {
        if self.dirs.contains_key(path) {
            return;
        }
        self.dirs.insert(path.to_string(), 0);
        let parent = parent_of(path);
        self.bump_child_count(&parent);
    }

    /// Create a file of size zero; returns its id. Re-creating an
    /// existing file truncates it (non-exclusive create semantics).
    pub fn create_file(&mut self, path: &str) -> FileId {
        if let Some(fs) = self.files.get_mut(path) {
            fs.size = 0;
            return fs.id;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.files.insert(path.to_string(), FileState { id, size: 0 });
        let parent = parent_of(path);
        self.bump_child_count(&parent);
        id
    }

    #[expect(clippy::expect_used, reason = "mkdir(parent) on the line above inserted the key")]
    fn bump_child_count(&mut self, parent: &str) {
        if !self.dirs.contains_key(parent) {
            // Implicit ancestor creation keeps counting consistent.
            self.mkdir(parent);
        }
        *self.dirs.get_mut(parent).expect("just ensured") += 1;
    }

    pub fn file(&self, path: &str) -> Option<FileState> {
        self.files.get(path).copied()
    }

    pub fn file_exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    pub fn dir_exists(&self, path: &str) -> bool {
        self.dirs.contains_key(path)
    }

    /// Grow a file by an append of `len` bytes; returns the offset the
    /// append landed at. The file must exist.
    pub fn append(&mut self, path: &str, len: u64) -> u64 {
        #[expect(clippy::panic, reason = "DES contract — create precedes append; a miss is a workload bug worth halting the simulation")]
        let f = self
            .files
            .get_mut(path)
            .unwrap_or_else(|| panic!("append to missing file {path}"));
        let off = f.size;
        f.size += len;
        off
    }

    /// Extend a file to cover a write at `offset` of `len` bytes.
    pub fn write_extent(&mut self, path: &str, offset: u64, len: u64) {
        #[expect(clippy::panic, reason = "DES contract — create precedes write; a miss is a workload bug worth halting the simulation")]
        let f = self
            .files
            .get_mut(path)
            .unwrap_or_else(|| panic!("write to missing file {path}"));
        f.size = f.size.max(offset + len);
    }

    /// Children counted under a directory.
    pub fn child_count(&self, path: &str) -> usize {
        self.dirs.get(path).copied().unwrap_or(0)
    }

    pub fn unlink(&mut self, path: &str) -> bool {
        if self.files.remove(path).is_some() {
            if let Some(c) = self.dirs.get_mut(&parent_of(path)) {
                *c = c.saturating_sub(1);
            }
            true
        } else {
            false
        }
    }

    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    pub fn dir_count(&self) -> usize {
        self.dirs.len()
    }
}

fn parent_of(path: &str) -> String {
    match path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => path[..i].to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_append_track_sizes() {
        let mut ns = Namespace::new();
        ns.mkdir("/d");
        let id = ns.create_file("/d/f");
        assert_eq!(ns.append("/d/f", 100), 0);
        assert_eq!(ns.append("/d/f", 50), 100);
        assert_eq!(ns.file("/d/f").unwrap().size, 150);
        assert_eq!(ns.file("/d/f").unwrap().id, id);
    }

    #[test]
    fn recreate_truncates_but_keeps_id() {
        let mut ns = Namespace::new();
        let id = ns.create_file("/f");
        ns.append("/f", 10);
        let id2 = ns.create_file("/f");
        assert_eq!(id, id2);
        assert_eq!(ns.file("/f").unwrap().size, 0);
    }

    #[test]
    fn write_extent_grows_sparse_files() {
        let mut ns = Namespace::new();
        ns.create_file("/f");
        ns.write_extent("/f", 1000, 10);
        assert_eq!(ns.file("/f").unwrap().size, 1010);
        ns.write_extent("/f", 0, 5);
        assert_eq!(ns.file("/f").unwrap().size, 1010);
    }

    #[test]
    fn child_counts_follow_creates_and_unlinks() {
        let mut ns = Namespace::new();
        ns.mkdir("/d");
        assert_eq!(ns.child_count("/d"), 0);
        ns.create_file("/d/a");
        ns.create_file("/d/b");
        assert_eq!(ns.child_count("/d"), 2);
        assert!(ns.unlink("/d/a"));
        assert!(!ns.unlink("/d/a"));
        assert_eq!(ns.child_count("/d"), 1);
    }

    #[test]
    fn implicit_ancestors_appear() {
        let mut ns = Namespace::new();
        ns.create_file("/a/b/c/f");
        assert!(ns.dir_exists("/a/b/c"));
        assert!(ns.dir_exists("/a"));
    }

    #[test]
    fn distinct_files_get_distinct_ids() {
        let mut ns = Namespace::new();
        let a = ns.create_file("/a");
        let b = ns.create_file("/b");
        assert_ne!(a, b);
    }
}

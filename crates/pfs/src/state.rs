//! Lightweight namespace state for the simulated file system.
//!
//! The simulator tracks *structure* (which files and directories exist,
//! their sizes), not payload bytes — byte-level correctness of the
//! middleware is proven separately by the `plfs` crate's tests over real
//! backends. Keeping sizes here lets the read path depend on what the
//! write phase actually produced (e.g. index-log sizes drive aggregation
//! cost) instead of on analytic guesses.

use std::collections::HashMap;

/// Stable identifier for a file (drives stripe → OSS placement). Ids are
/// dense — the `n`th file ever created is `n` — and never reused, so
/// per-file state elsewhere in the model can live in a `Vec` indexed by
/// id.
pub type FileId = u64;

/// Namespace: files with sizes, directories with child counts. A path
/// resolves to its [`FileId`] once; everything after that is indexed by
/// id.
#[derive(Debug, Default)]
pub struct Namespace {
    ids: HashMap<String, FileId>,
    /// Size of every file ever created, indexed by id (an unlinked
    /// file's entry stays behind, unreachable by path).
    sizes: Vec<u64>,
    dirs: HashMap<String, usize>,
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
        self.bump_child_count(parent_of(path));
    }

    /// Create a file of size zero; returns its id. Re-creating an
    /// existing file truncates it (non-exclusive create semantics).
    pub fn create_file(&mut self, path: &str) -> FileId {
        if let Some(&id) = self.ids.get(path) {
            self.sizes[id as usize] = 0;
            return id;
        }
        let id = self.sizes.len() as FileId;
        self.sizes.push(0);
        self.ids.insert(path.to_string(), id);
        self.bump_child_count(parent_of(path));
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

    /// The id `path` resolves to, if the file exists.
    pub fn id(&self, path: &str) -> Option<FileId> {
        self.ids.get(path).copied()
    }

    /// Size of file `id`.
    pub fn size(&self, id: FileId) -> u64 {
        self.sizes[id as usize]
    }

    pub fn file_exists(&self, path: &str) -> bool {
        self.ids.contains_key(path)
    }

    pub fn dir_exists(&self, path: &str) -> bool {
        self.dirs.contains_key(path)
    }

    /// Extend file `id` to cover a write at `offset` of `len` bytes.
    pub(crate) fn write_extent(&mut self, id: FileId, offset: u64, len: u64) {
        let size = &mut self.sizes[id as usize];
        *size = (*size).max(offset + len);
    }

    /// Children counted under a directory.
    pub(crate) fn child_count(&self, path: &str) -> usize {
        self.dirs.get(path).copied().unwrap_or(0)
    }

    /// Remove `path`; returns the id it resolved to, if it existed.
    pub fn unlink(&mut self, path: &str) -> Option<FileId> {
        let id = self.ids.remove(path)?;
        if let Some(c) = self.dirs.get_mut(parent_of(path)) {
            *c = c.saturating_sub(1);
        }
        Some(id)
    }
}

/// The directory holding `path` (`/` for top-level entries).
pub(crate) fn parent_of(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_write_track_sizes() {
        let mut ns = Namespace::new();
        ns.mkdir("/d");
        let id = ns.create_file("/d/f");
        ns.write_extent(id, 0, 100);
        ns.write_extent(id, 100, 50);
        assert_eq!(ns.size(id), 150);
        assert_eq!(ns.id("/d/f"), Some(id));
    }

    #[test]
    fn recreate_truncates_but_keeps_id() {
        let mut ns = Namespace::new();
        let id = ns.create_file("/f");
        ns.write_extent(id, 0, 10);
        let id2 = ns.create_file("/f");
        assert_eq!(id, id2);
        assert_eq!(ns.size(id), 0);
    }

    #[test]
    fn write_extent_grows_sparse_files() {
        let mut ns = Namespace::new();
        let id = ns.create_file("/f");
        ns.write_extent(id, 1000, 10);
        assert_eq!(ns.size(id), 1010);
        ns.write_extent(id, 0, 5);
        assert_eq!(ns.size(id), 1010);
    }

    #[test]
    fn child_counts_follow_creates_and_unlinks() {
        let mut ns = Namespace::new();
        ns.mkdir("/d");
        assert_eq!(ns.child_count("/d"), 0);
        ns.create_file("/d/a");
        ns.create_file("/d/b");
        assert_eq!(ns.child_count("/d"), 2);
        assert!(ns.unlink("/d/a").is_some());
        assert!(ns.unlink("/d/a").is_none());
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

    #[test]
    fn unlink_then_recreate_gets_a_new_id() {
        let mut ns = Namespace::new();
        let a = ns.create_file("/f");
        assert_eq!(ns.unlink("/f"), Some(a));
        let b = ns.create_file("/f");
        assert_ne!(a, b);
        assert_eq!(ns.id("/f"), Some(b));
    }

    #[test]
    fn parent_of_borrows_the_directory() {
        assert_eq!(parent_of("/a/b/c"), "/a/b");
        assert_eq!(parent_of("/a"), "/");
        assert_eq!(parent_of("a"), "/");
    }
}

//! POSIX-like facade over PLFS containers — the role the FUSE mount plays
//! for real PLFS: users see logical files and directories; this layer maps
//! them onto containers, resolving federation and hiding shadow
//! directories.

use crate::backend::{Backend, NodeKind};
use crate::container::{Container, IndexProbe, GENERATION_FILE};
use crate::error::{PlfsError, Result};
use crate::federation::Federation;
use crate::index::{IndexSource, SpanCache};
use crate::indexcache::IndexCache;
use crate::ioplane::{self, IoOp};
use crate::path::{join, try_normalize};
use crate::reader::ReadHandle;
use crate::telemetry;
use crate::writer::{reject_read_write, IndexPolicy, WriteHandle};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a file is being opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only access.
    Read,
    /// Write-only access.
    Write,
    /// Rejected: PLFS does not support shared read-write access (the paper
    /// patched IOR and MADbench to drop it).
    ReadWrite,
}

/// What a logical path names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalKind {
    /// A logical file (physically a container directory).
    File,
    /// A logical directory.
    Dir,
}

/// Logical file attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Logical file size in bytes.
    pub size: u64,
    /// Whether the size came from cached metadir records (cheap) or
    /// required full index aggregation (expensive).
    pub from_cache: bool,
}

/// Mount-level configuration.
#[derive(Debug, Clone)]
pub struct PlfsConfig {
    /// Metadata namespaces and placement policy.
    pub federation: Federation,
    /// What writers do with index entries (buffer-to-close vs flatten).
    pub index_policy: IndexPolicy,
}

impl PlfsConfig {
    /// Single-namespace mount with sensible defaults.
    pub fn basic(root: &str) -> Self {
        PlfsConfig {
            federation: Federation::single(root, 4),
            index_policy: IndexPolicy::WriteClose,
        }
    }
}

/// A mounted PLFS file system.
///
/// # Examples
///
/// ```
/// use plfs::{Plfs, PlfsConfig, Content, MemFs};
/// use std::sync::Arc;
///
/// let fs = Plfs::new(Arc::new(MemFs::new()), PlfsConfig::basic("/panfs"))?;
///
/// // Two writers share one logical file (the classic N-1 pattern).
/// let mut a = fs.open_write("/ckpt", 0)?;
/// let mut b = fs.open_write("/ckpt", 1)?;
/// a.write(0, &Content::bytes(b"hello ".to_vec()), fs.timestamp())?;
/// b.write(6, &Content::bytes(b"world".to_vec()), fs.timestamp())?;
/// a.close(fs.timestamp())?;
/// b.close(fs.timestamp())?;
///
/// // The logical view is seamless.
/// let mut r = fs.open_read("/ckpt")?;
/// assert_eq!(r.read(0, 11)?, b"hello world");
/// assert_eq!(fs.stat("/ckpt")?.size, 11);
/// # Ok::<(), plfs::PlfsError>(())
/// ```
pub struct Plfs<B: Backend + Clone> {
    backend: B,
    config: PlfsConfig,
    /// Logical clock for write timestamps: monotone within this mount.
    /// Real PLFS uses synchronized wall clocks across the cluster; any
    /// monotone source with the same ordering works.
    clock: AtomicU64,
    /// One index per container state, shared by every reader this mount
    /// opens (`Service` opens through it too).
    indices: IndexCache,
    /// The record windows of every flattened index those readers share.
    spans: Arc<SpanCache>,
}

impl<B: Backend + Clone> Plfs<B> {
    /// Mount over `backend`, creating the federation's namespace roots.
    pub fn new(backend: B, config: PlfsConfig) -> Result<Self> {
        let batch: Vec<IoOp> = config
            .federation
            .namespaces()
            .iter()
            .map(|ns| IoOp::MkdirAll { path: ns.clone() })
            .collect();
        for outcome in ioplane::submit_retried(&backend, &batch) {
            ioplane::as_unit(outcome)?;
        }
        Ok(Plfs {
            backend,
            config,
            clock: AtomicU64::new(0),
            indices: IndexCache::new(),
            spans: Arc::new(SpanCache::new()),
        })
    }

    /// The mount's federation (namespaces + placement).
    pub fn federation(&self) -> &Federation {
        &self.config.federation
    }

    /// The underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Next write timestamp.
    pub fn timestamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The container backing a logical path.
    pub fn container(&self, logical: &str) -> Container {
        Container::new(logical, &self.config.federation)
    }

    /// Open a logical file for writing as `writer`. Creates the container
    /// if needed; many writers may open the same logical file.
    pub fn open_write(&self, logical: &str, writer: u64) -> Result<WriteHandle<B>> {
        WriteHandle::open(
            self.backend.clone(),
            self.container(logical),
            writer,
            self.config.index_policy,
        )
    }

    /// Open a logical file for reading. Readers of one container state
    /// share one index: the open fetches the container's stamp and loads
    /// only when no index built from an equal stamp is cached (DESIGN.md
    /// §5l) — a flattened container bounded, through the mount's span
    /// cache; logs by one aggregation.
    pub fn open_read(&self, logical: &str) -> Result<ReadHandle<B>> {
        let _span = telemetry::span(telemetry::SPAN_READ_OPEN);
        let c = self.container(logical);
        let (probe, index) = self.shared_index(&c)?;
        let handle = ReadHandle::open(self.backend.clone(), c, index);
        Ok(handle.with_data_logs(probe.data_logs()))
    }

    /// `c`'s index through the mount's cache, and the probe that stamped
    /// it; `NotFound` when there is no container there.
    fn shared_index(&self, c: &Container) -> Result<(IndexProbe, IndexSource)> {
        let Some(probe) = c.probe_index(&self.backend)? else {
            return Err(PlfsError::NotFound(c.logical_path().to_string()));
        };
        let index = self
            .indices
            .get_or_load(c.canonical_path(), probe.stamp(), || {
                probe.load(&self.backend, &self.spans)
            })?;
        Ok((probe, index))
    }

    /// Open with an explicit mode; `ReadWrite` is rejected.
    pub fn open_check_mode(&self, logical: &str, mode: OpenMode) -> Result<()> {
        match mode {
            OpenMode::ReadWrite => Err(reject_read_write()),
            OpenMode::Read => {
                if self.container(logical).exists(&self.backend) {
                    Ok(())
                } else {
                    Err(PlfsError::NotFound(try_normalize(logical)?))
                }
            }
            OpenMode::Write => Ok(()),
        }
    }

    /// Logical file attributes. Uses cached metadir records when any
    /// writer has closed; falls back to the index otherwise — the mount's
    /// shared one, so a `stat` loop on a file being written re-aggregates
    /// only when a log grew.
    pub fn stat(&self, logical: &str) -> Result<FileStat> {
        let c = self.container(logical);
        if !c.exists(&self.backend) {
            return Err(PlfsError::NotFound(try_normalize(logical)?));
        }
        if let Some(size) = c.cached_size(&self.backend)? {
            // Cached records only cover closed writers; if anyone still
            // has the file open the cache may understate, so aggregate.
            if c.open_writers(&self.backend)?.is_empty() {
                return Ok(FileStat {
                    size,
                    from_cache: true,
                });
            }
        }
        let (_, idx) = self.shared_index(&c)?;
        Ok(FileStat {
            size: idx.eof(),
            from_cache: false,
        })
    }

    /// Whether a logical path exists, and as what.
    pub fn lookup(&self, logical: &str) -> Option<LogicalKind> {
        // A path PLFS cannot even normalize certainly does not exist.
        let logical = try_normalize(logical).ok()?;
        let c = self.container(&logical);
        if c.exists(&self.backend) {
            return Some(LogicalKind::File);
        }
        // A logical directory exists if any namespace has it as a plain
        // dir: one Kind probe per namespace, all in one batch.
        let probes: Vec<IoOp> = self
            .config
            .federation
            .namespaces()
            .iter()
            .map(|ns| IoOp::Kind {
                path: phys_path(ns, &logical),
            })
            .collect();
        self.backend
            .submit(&probes)
            .into_iter()
            .any(|o| matches!(ioplane::as_kind(o), Ok(NodeKind::Dir)))
            .then_some(LogicalKind::Dir)
    }

    /// Create a logical directory (in every namespace, so listings and
    /// future container creates work wherever hashing lands them).
    pub fn mkdir(&self, logical: &str) -> Result<()> {
        let logical = try_normalize(logical)?;
        let batch: Vec<IoOp> = self
            .config
            .federation
            .namespaces()
            .iter()
            .map(|ns| IoOp::MkdirAll {
                path: phys_path(ns, &logical),
            })
            .collect();
        for outcome in ioplane::submit_retried(&self.backend, &batch) {
            ioplane::as_unit(outcome)?;
        }
        Ok(())
    }

    /// List a logical directory: containers appear as files, plain
    /// directories as directories, shadow internals are hidden. Unions
    /// across all namespaces (container spreading scatters entries).
    pub fn readdir(&self, logical: &str) -> Result<Vec<(String, LogicalKind)>> {
        let logical = try_normalize(logical)?;
        // Three plane round-trips regardless of fan-out: one Readdir per
        // namespace, one Kind per child, one marker probe per directory
        // child — instead of a metadata call per child per namespace.
        let phys: Vec<String> = self
            .config
            .federation
            .namespaces()
            .iter()
            .map(|ns| phys_path(ns, &logical))
            .collect();
        let list_ops: Vec<IoOp> = phys
            .iter()
            .map(|p| IoOp::Readdir { path: p.clone() })
            .collect();
        let mut children: Vec<(String, String)> = Vec::new();
        let mut found_any = false;
        for (p, outcome) in phys
            .iter()
            .zip(ioplane::submit_retried(&self.backend, &list_ops))
        {
            match ioplane::as_names(outcome) {
                Ok(names) => {
                    found_any = true;
                    for name in names {
                        if name.starts_with(".plfs_shadow") || name == GENERATION_FILE {
                            continue;
                        }
                        let child = join(p, &name);
                        children.push((name, child));
                    }
                }
                Err(PlfsError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if !found_any {
            return Err(PlfsError::NotFound(logical));
        }
        let kind_ops: Vec<IoOp> = children
            .iter()
            .map(|(_, child)| IoOp::Kind {
                path: child.clone(),
            })
            .collect();
        let mut kinds = Vec::with_capacity(children.len());
        for outcome in ioplane::submit_retried(&self.backend, &kind_ops) {
            kinds.push(ioplane::as_kind(outcome)?);
        }
        let dirs: Vec<usize> = (0..children.len())
            .filter(|&i| kinds[i] == NodeKind::Dir)
            .collect();
        let marker_ops: Vec<IoOp> = dirs
            .iter()
            .map(|&i| IoOp::Kind {
                path: join(&children[i].1, crate::container::ACCESS_FILE),
            })
            .collect();
        let mut is_container = vec![false; children.len()];
        for (&i, outcome) in dirs
            .iter()
            .zip(ioplane::submit_retried(&self.backend, &marker_ops))
        {
            is_container[i] = !matches!(ioplane::as_kind(outcome), Err(PlfsError::NotFound(_)));
        }
        let mut out: BTreeMap<String, LogicalKind> = BTreeMap::new();
        for (i, (name, _)) in children.into_iter().enumerate() {
            let kind = match kinds[i] {
                // Stray physical file (not PLFS-created); surface it.
                NodeKind::File => LogicalKind::File,
                NodeKind::Dir if is_container[i] => LogicalKind::File,
                NodeKind::Dir => LogicalKind::Dir,
            };
            match out.entry(name) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(kind);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    // A container in any namespace wins over a plain dir
                    // echo in another.
                    if kind == LogicalKind::File {
                        o.insert(kind);
                    }
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    /// Truncate a logical file to `size` bytes (see [`crate::truncate`]).
    pub fn truncate(&self, logical: &str, size: u64) -> Result<()> {
        crate::truncate::truncate(&self.backend, &self.container(logical), size)
    }

    /// Remove a logical file (its container and shadows).
    pub fn unlink(&self, logical: &str) -> Result<()> {
        let c = self.container(logical);
        if !c.exists(&self.backend) {
            return Err(PlfsError::NotFound(try_normalize(logical)?));
        }
        c.remove(&self.backend)
    }

    /// Rename a logical file. Federation makes this genuinely expensive:
    /// the canonical container may hash to a different namespace under the
    /// new name, and every shadow subdir must move and have its metalink
    /// rewritten — costs the N-1 create path never pays, which is why PLFS
    /// targets checkpoint (write-once) workloads.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let from = try_normalize(from)?;
        let to = try_normalize(to)?;
        if crate::path::is_inside(&to, &from) {
            // A logical file has no inside; and the shadow clean-up below
            // would take the new name's shadows with the old one's.
            return Err(PlfsError::InvalidArg(format!(
                "cannot rename {from} into itself ({to})"
            )));
        }
        let cf = self.container(&from);
        if !cf.exists(&self.backend) {
            return Err(PlfsError::NotFound(from));
        }
        let ct = self.container(&to);
        if ct.exists(&self.backend) {
            return Err(PlfsError::AlreadyExists(to));
        }
        let fed = &self.config.federation;

        // Subdirs are created lazily, so most may not exist at all — one
        // Kind batch finds the live ones. Every move below is a chain whose
        // later steps must not run (or retry) unless the earlier ones
        // committed, and each step leaves a state fsck rebuilds from the
        // static hash (DESIGN.md §5c).
        let (from_subdirs, to_subdirs) = (cf.subdir_entries(), ct.subdir_entries());
        let probe_ops: Vec<IoOp> = from_subdirs
            .iter()
            .map(|e| IoOp::Kind { path: e.clone() })
            .collect();
        let live: Vec<usize> = ioplane::submit_retried(&self.backend, &probe_ops)
            .into_iter()
            .enumerate()
            .filter(|(_, o)| !matches!(o, Err(PlfsError::NotFound(_))))
            .map(|(i, _)| i)
            .collect();

        // A shadow the new name keeps inside its container folds back while
        // it is still the old name's: its metalink goes, then it moves in.
        for &i in &live {
            let (old, new) = (
                fed.shadow_subdir_path(&from, i),
                fed.shadow_subdir_path(&to, i),
            );
            if let (Some(old), None) = (old, new) {
                // plfs-lint: allow(raw-backend-in-batch-path): unlink→rename swap; the rename must not run (or retry) unless the unlink committed
                self.backend.unlink(&from_subdirs[i])?;
                // plfs-lint: allow(raw-backend-in-batch-path): second half of the order-dependent swap above
                self.backend.rename(&old, &from_subdirs[i])?;
            }
        }

        // Move the canonical container (possibly across namespaces).
        self.backend
            .mkdir_all(&crate::path::parent(ct.canonical_path()))?;
        self.backend
            .rename(cf.canonical_path(), ct.canonical_path())?;

        // Every subdir the new name shadows moves to where it hashes — from
        // the old name's shadow, or out of the container — and then all of
        // their metalinks are pointed there at once.
        let mut moved = Vec::new();
        for &i in &live {
            let Some(new) = fed.shadow_subdir_path(&to, i) else {
                continue; // a plain dir, moved with the container
            };
            let src = fed
                .shadow_subdir_path(&from, i)
                .unwrap_or_else(|| to_subdirs[i].clone());
            // plfs-lint: allow(raw-backend-in-batch-path): order-dependent shadow-move chain; each step must commit before the next runs
            self.backend.mkdir_all(&crate::path::parent(&new))?;
            // plfs-lint: allow(raw-backend-in-batch-path): order-dependent shadow-move chain
            self.backend.rename(&src, &new)?;
            moved.push(i);
        }
        ct.point_metalinks(&self.backend, &moved)?;
        // Every live shadow has left: drop the old name's (now empty)
        // shadow container directories, one batch.
        for outcome in ioplane::submit_retried(&self.backend, &cf.shadow_removal_ops()) {
            match ioplane::as_unit(outcome) {
                Ok(()) | Err(PlfsError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        // Index logs left one path and arrived at another: a cached index
        // of either must not survive on sizes alone (§5l).
        cf.bump_generation(&self.backend)?;
        if ct.generation_path() != cf.generation_path() {
            ct.bump_generation(&self.backend)?;
        }
        Ok(())
    }
}

fn phys_path(ns: &str, logical: &str) -> String {
    if ns == "/" {
        logical.to_string()
    } else {
        format!("{ns}{logical}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Content;
    use crate::memfs::MemFs;
    use std::sync::Arc;

    fn mount() -> Plfs<Arc<MemFs>> {
        Plfs::new(Arc::new(MemFs::new()), PlfsConfig::basic("/ns")).unwrap()
    }

    fn federated_mount(nss: usize, subdirs: usize) -> Plfs<Arc<MemFs>> {
        let fed = Federation::new(
            (0..nss).map(|i| format!("/vol{i}")).collect(),
            subdirs,
            true,
            true,
        );
        Plfs::new(
            Arc::new(MemFs::new()),
            PlfsConfig {
                federation: fed,
                index_policy: IndexPolicy::WriteClose,
            },
        )
        .unwrap()
    }

    #[test]
    fn write_then_read_through_mount() {
        let fs = mount();
        let mut w = fs.open_write("/ckpt", 0).unwrap();
        let ts = fs.timestamp();
        w.write(0, &Content::bytes(b"hello".to_vec()), ts).unwrap();
        w.close(fs.timestamp()).unwrap();
        let mut r = fs.open_read("/ckpt").unwrap();
        assert_eq!(r.read(0, 5).unwrap(), b"hello");
        assert_eq!(
            fs.stat("/ckpt").unwrap(),
            FileStat {
                size: 5,
                from_cache: true
            }
        );
    }

    #[test]
    fn read_write_mode_is_rejected() {
        let fs = mount();
        assert!(matches!(
            fs.open_check_mode("/f", OpenMode::ReadWrite),
            Err(PlfsError::Unsupported(_))
        ));
    }

    #[test]
    fn missing_file_errors() {
        let fs = mount();
        assert!(matches!(fs.open_read("/nope"), Err(PlfsError::NotFound(_))));
        assert!(matches!(fs.stat("/nope"), Err(PlfsError::NotFound(_))));
        assert!(matches!(fs.unlink("/nope"), Err(PlfsError::NotFound(_))));
        assert_eq!(fs.lookup("/nope"), None);
    }

    #[test]
    fn stat_aggregates_while_writers_open() {
        let fs = mount();
        let mut w0 = fs.open_write("/f", 0).unwrap();
        w0.write(0, &Content::bytes(vec![0; 100]), 1).unwrap();
        w0.flush_index().unwrap();
        let mut w1 = fs.open_write("/f", 1).unwrap();
        w1.write(100, &Content::bytes(vec![0; 50]), 2).unwrap();
        w1.close(3).unwrap(); // writer 1 closed, writer 0 still open
        let st = fs.stat("/f").unwrap();
        assert!(!st.from_cache, "open writers force aggregation");
        assert_eq!(st.size, 150);
        w0.close(4).unwrap();
        let st = fs.stat("/f").unwrap();
        assert!(st.from_cache);
        assert_eq!(st.size, 150);
    }

    #[test]
    fn readdir_shows_logical_view() {
        let fs = mount();
        fs.mkdir("/out").unwrap();
        fs.open_write("/out/a", 0).unwrap().close(1).unwrap();
        fs.open_write("/out/b", 0).unwrap().close(1).unwrap();
        fs.mkdir("/out/subdir").unwrap();
        let entries = fs.readdir("/out").unwrap();
        assert_eq!(
            entries,
            vec![
                ("a".to_string(), LogicalKind::File),
                ("b".to_string(), LogicalKind::File),
                ("subdir".to_string(), LogicalKind::Dir),
            ]
        );
        assert!(matches!(
            fs.readdir("/missing"),
            Err(PlfsError::NotFound(_))
        ));
    }

    #[test]
    fn readdir_unions_federated_namespaces() {
        let fs = federated_mount(4, 4);
        fs.mkdir("/out").unwrap();
        for i in 0..12 {
            fs.open_write(&format!("/out/ckpt.{i}"), 0)
                .unwrap()
                .close(1)
                .unwrap();
        }
        let entries = fs.readdir("/out").unwrap();
        assert_eq!(entries.len(), 12);
        assert!(entries.iter().all(|(_, k)| *k == LogicalKind::File));
        // Containers really are spread across volumes.
        let spread: std::collections::BTreeSet<usize> = (0..12)
            .map(|i| {
                fs.federation()
                    .container_namespace(&format!("/out/ckpt.{i}"))
            })
            .collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn unlink_removes_container_and_shadows() {
        let fs = federated_mount(3, 6);
        let mut w = fs.open_write("/data", 0).unwrap();
        w.write(0, &Content::bytes(vec![1; 10]), 1).unwrap();
        w.close(2).unwrap();
        assert_eq!(fs.lookup("/data"), Some(LogicalKind::File));
        fs.unlink("/data").unwrap();
        assert_eq!(fs.lookup("/data"), None);
    }

    #[test]
    fn unlink_and_rename_reach_a_steady_node_count() {
        // Every subdir forced into existence, so every foreign namespace
        // that can hold a shadow container does.
        let fs = federated_mount(4, 8);
        let create = |name: &str| {
            for w in 0..8 {
                let mut h = fs.open_write(name, w).unwrap();
                h.write(w * 10, &Content::bytes(vec![w as u8; 10]), 1)
                    .unwrap();
                h.close(2).unwrap();
            }
        };
        let nodes = || fs.backend().node_count();
        // What may stay is each namespace's `.plfs_shadow` root, empty.
        let assert_no_shadows = || {
            for ns in fs.federation().namespaces() {
                let shadows = fs.backend().list(&join(ns, ".plfs_shadow"));
                assert!(
                    shadows.as_ref().map_or(true, Vec::is_empty),
                    "{ns}: {shadows:?}"
                );
            }
        };

        create("/data");
        fs.unlink("/data").unwrap();
        let after_first = nodes();
        create("/data");
        fs.unlink("/data").unwrap();
        assert_eq!(nodes(), after_first, "unlink left directories behind");
        assert_no_shadows();

        create("/data");
        fs.rename("/data", "/other").unwrap();
        fs.rename("/other", "/data").unwrap();
        let after_round_trip = nodes();
        fs.rename("/data", "/other").unwrap();
        fs.rename("/other", "/data").unwrap();
        assert_eq!(nodes(), after_round_trip, "rename left directories behind");
        assert_eq!(
            fs.open_read("/data").unwrap().read(70, 10).unwrap(),
            [7; 10]
        );
        fs.unlink("/data").unwrap();
        assert_no_shadows();
    }

    #[test]
    fn rename_preserves_contents_across_namespace_moves() {
        let fs = federated_mount(4, 8);
        let mut w = fs.open_write("/old_name", 3).unwrap();
        w.write(0, &Content::synthetic(77, 4096), 1).unwrap();
        w.write(8192, &Content::synthetic(78, 4096), 2).unwrap();
        w.close(3).unwrap();
        fs.mkdir("/dir").unwrap();
        fs.rename("/old_name", "/dir/new_name").unwrap();
        assert_eq!(fs.lookup("/old_name"), None);
        let mut r = fs.open_read("/dir/new_name").unwrap();
        assert_eq!(r.size(), 12288);
        assert_eq!(
            r.read(0, 4096).unwrap(),
            Content::synthetic(77, 4096).materialize()
        );
        assert_eq!(
            r.read(8192, 4096).unwrap(),
            Content::synthetic(78, 4096).materialize()
        );
        // Hole in the middle reads as zeros.
        assert_eq!(r.read(4096, 4096).unwrap(), vec![0u8; 4096]);
        // Writing again after rename still works.
        let mut w2 = fs.open_write("/dir/new_name", 9).unwrap();
        w2.write(4096, &Content::bytes(vec![5; 16]), 10).unwrap();
        w2.close(11).unwrap();
        let mut r2 = fs.open_read("/dir/new_name").unwrap();
        assert_eq!(r2.read(4096, 16).unwrap(), vec![5; 16]);
    }

    /// One writer, two 100-byte writes at the given offsets, closed.
    fn write_two(fs: &Plfs<Arc<MemFs>>, path: &str, first: u64, second: u64) {
        let mut w = fs.open_write(path, 0).unwrap();
        w.write(first, &Content::bytes(vec![1; 100]), fs.timestamp())
            .unwrap();
        w.write(second, &Content::bytes(vec![2; 100]), fs.timestamp())
            .unwrap();
        w.close(fs.timestamp()).unwrap();
    }

    #[test]
    fn readers_of_an_unchanged_file_share_one_index() {
        let fs = mount();
        write_two(&fs, "/f", 0, 100);
        let a = fs.open_read("/f").unwrap();
        let b = fs.open_read("/f").unwrap();
        assert!(Arc::ptr_eq(a.index().unwrap(), b.index().unwrap()));
        // Another writer closing is an append: the next open sees it.
        let mut w = fs.open_write("/f", 1).unwrap();
        w.write(200, &Content::bytes(vec![3; 50]), fs.timestamp())
            .unwrap();
        w.close(fs.timestamp()).unwrap();
        let mut c = fs.open_read("/f").unwrap();
        assert!(!Arc::ptr_eq(a.index().unwrap(), c.index().unwrap()));
        assert_eq!(c.size(), 250);
        assert_eq!(c.read(200, 50).unwrap(), vec![3; 50]);
    }

    #[test]
    fn rename_and_unlink_never_leave_a_same_sized_stale_index() {
        let fs = federated_mount(2, 2);
        // /a and /b: same writer, same record count, swapped placement.
        write_two(&fs, "/a", 0, 100);
        write_two(&fs, "/b", 100, 0);
        let before = fs.container("/a").probe_index(fs.backend()).unwrap();
        assert_eq!(
            fs.open_read("/a").unwrap().read(0, 100).unwrap(),
            vec![1; 100]
        );
        // Rename /a away and /b in: sizes at /a are what they were.
        fs.rename("/a", "/gone").unwrap();
        fs.rename("/b", "/a").unwrap();
        let after = fs.container("/a").probe_index(fs.backend()).unwrap();
        let (before, after) = (before.unwrap(), after.unwrap());
        assert_eq!(before.stamp().sizes(), after.stamp().sizes());
        assert_ne!(before.stamp(), after.stamp());
        assert_eq!(
            fs.open_read("/a").unwrap().read(0, 100).unwrap(),
            vec![2; 100]
        );
        // Unlink + re-create in the first order again.
        fs.unlink("/a").unwrap();
        write_two(&fs, "/a", 0, 100);
        assert_eq!(
            fs.open_read("/a").unwrap().read(0, 100).unwrap(),
            vec![1; 100]
        );
    }

    #[test]
    fn stat_of_a_file_being_written_shares_the_index_too() {
        let fs = mount();
        let mut w = fs.open_write("/f", 0).unwrap();
        w.write(0, &Content::bytes(vec![0; 100]), 1).unwrap();
        w.flush_index().unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 100);
        let r = fs.open_read("/f").unwrap();
        assert_eq!(Arc::strong_count(r.index().unwrap()), 2, "stat's and ours");
        w.write(100, &Content::bytes(vec![0; 50]), 2).unwrap();
        w.flush_index().unwrap();
        assert_eq!(
            fs.stat("/f").unwrap(),
            FileStat {
                size: 150,
                from_cache: false
            }
        );
    }

    #[test]
    fn the_generation_file_is_not_a_logical_entry() {
        let fs = mount();
        write_two(&fs, "/keep", 0, 100);
        write_two(&fs, "/drop", 0, 100);
        fs.unlink("/drop").unwrap();
        assert!(fs.backend().exists("/ns/.plfsgen"));
        assert_eq!(
            fs.readdir("/").unwrap(),
            vec![("keep".to_string(), LogicalKind::File)]
        );
    }

    #[test]
    fn rename_below_the_source_is_invalid() {
        let fs = federated_mount(4, 4);
        let mut w = fs.open_write("/a", 0).unwrap();
        w.write(0, &Content::bytes(vec![1; 8]), 1).unwrap();
        w.close(2).unwrap();
        assert!(matches!(
            fs.rename("/a", "/a/b"),
            Err(PlfsError::InvalidArg(_))
        ));
        assert_eq!(fs.open_read("/a").unwrap().read(0, 8).unwrap(), [1; 8]);
    }

    #[test]
    fn rename_conflicts_detected() {
        let fs = mount();
        fs.open_write("/a", 0).unwrap().close(1).unwrap();
        fs.open_write("/b", 0).unwrap().close(1).unwrap();
        assert!(matches!(
            fs.rename("/a", "/b"),
            Err(PlfsError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.rename("/zzz", "/c"),
            Err(PlfsError::NotFound(_))
        ));
    }

    #[test]
    fn timestamps_are_monotone() {
        let fs = mount();
        let a = fs.timestamp();
        let b = fs.timestamp();
        assert!(b > a);
    }

    #[test]
    fn a_writer_after_flatten_is_never_hidden_by_the_flattened_index() {
        let b = Arc::new(MemFs::new());
        let config = PlfsConfig {
            federation: Federation::single("/pfs", 2),
            index_policy: IndexPolicy::Flatten {
                threshold_entries: usize::MAX,
            },
        };
        let fs = Plfs::new(Arc::clone(&b), config.clone()).unwrap();
        let write = |w: u64| {
            let mut h = fs.open_write("/f", w).unwrap();
            let block = Content::bytes(vec![w as u8 + 1; 100]);
            h.write(w * 100, &block, fs.timestamp()).unwrap();
            h
        };
        let c = fs.container("/f");
        let flattened = vec![write(0), write(1)];
        assert!(crate::writer::flatten_close(&b, &c, flattened, fs.timestamp()).unwrap());
        let mut early = fs.open_read("/f").unwrap();
        assert!(early.index().is_none(), "read bounded");
        write(2).close(fs.timestamp()).unwrap();
        // A reader that opened before the writer finds its file gone and
        // reads through the logs instead.
        let acknowledged = [vec![1; 100], vec![2; 100]].concat();
        assert_eq!(early.read(0, 200).unwrap(), acknowledged);

        let fresh = Plfs::new(Arc::clone(&b), config).unwrap();
        assert_eq!(fresh.stat("/f").unwrap().size, 300);
        let mut r = fresh.open_read("/f").unwrap();
        assert_eq!(r.size(), 300);
        assert_eq!(r.read(200, 100).unwrap(), vec![3; 100]);
        assert!(crate::fsck::check(&*b, &c).unwrap().is_clean());
    }
}

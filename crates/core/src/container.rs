//! The PLFS container: the physical directory structure that backs one
//! logical file (Figure 1 of the paper).
//!
//! For a logical file `/ckpt/file1`, PLFS creates on the underlying
//! parallel file system a directory of the same name containing:
//!
//! ```text
//! /ckpt/file1/                      ← container (in its canonical namespace)
//!   .plfsaccess                     ← marks the dir as a container; ownership info
//!   metadir/                        ← cached logical-size records, one per closed writer
//!   openhosts/                      ← one entry per process with the file open for write
//!   flattened.index                 ← global index written by Index Flatten (optional)
//!   subdir.0 … subdir.K-1           ← hold the per-process logs; either real
//!                                     directories or *metalink* files pointing at a
//!                                     shadow directory in another metadata namespace
//!                                     (federated metadata management, Figure 6)
//! ```
//!
//! A shadowed `subdir.<i>` lives at `<ns>/.plfs_shadow<logical>/subdir.<i>`
//! in the namespace it hashes to; `<ns>/.plfs_shadow<logical>` is that
//! namespace's *shadow container*, created with the first subdir that
//! lands there and removed whole by unlink (and, for the old name, by
//! rename), so a deleted file leaves no directory behind in any namespace.
//!
//! Each subdir holds, per writer, `dropping.data.<id>` (the data log, only
//! ever appended) and `dropping.index.<id>` (the index log of
//! [`crate::index::IndexEntry`] records).

use crate::backend::{Backend, NodeKind};
use crate::content::Content;
use crate::error::{retry_transient, PlfsError, Result};
use crate::federation::Federation;
use crate::index::log::{self, LogRecord};
use crate::index::ondisk::{self, OnDiskIndex, SpanIdxWriter};
use crate::index::{self, GlobalIndex, IndexEntry, IndexSource, SpanCache, WriterId};
use crate::ioplane::{self, IoOp};
use crate::path::{basename, join, normalize, parent};
use crate::telemetry;
use std::sync::Arc;

/// Name of the marker file that distinguishes a container from a plain
/// directory. Real PLFS uses `.plfsaccess113918400`; we keep it short.
pub const ACCESS_FILE: &str = ".plfsaccess";
/// Directory of cached per-writer size records (`meta.<eof>.<bytes>.<id>`).
pub const METADIR: &str = "metadir";
/// Directory of open-for-write registrations (`host.<id>`).
pub const OPENHOSTS: &str = "openhosts";
/// File holding the flattened global index, when Index Flatten ran.
pub const FLATTENED_INDEX: &str = "flattened.index";
/// The per-namespace generation file, in each namespace root: its size
/// is the namespace's generation, advanced by every operation that
/// removes or rewrites an index log or a flattened index (see
/// [`IndexStamp`]).
pub const GENERATION_FILE: &str = ".plfsgen";
/// Prefix of the per-group subdir entries (`subdir.<i>`).
pub const SUBDIR_PREFIX: &str = "subdir.";
/// Prefix of per-writer data logs (`dropping.data.<id>`).
pub const DATA_PREFIX: &str = "dropping.data.";
/// Prefix of per-writer index logs (`dropping.index.<id>`).
pub const INDEX_PREFIX: &str = "dropping.index.";
/// Suffix of the staged copy `Container::rewrite_staged` writes before
/// swapping it in for the log it replaces. One left behind means the
/// rewrite died part-way: fsck reclaims it while its log is still there
/// and promotes it in the log's place when the log is gone.
pub const REALIGN_SUFFIX: &str = ".realign";
/// A handle to one logical file's container.
///
/// `Container` is cheap to construct: it resolves paths but touches the
/// backend only when asked. It is parameterized by the [`Federation`],
/// which decides in which namespace the canonical container and each
/// subdir physically live.
#[derive(Debug, Clone)]
pub struct Container {
    /// Normalized logical path of the file as the user sees it.
    logical: String,
    /// Physical path of the canonical container directory.
    canonical: String,
    fed: Federation,
}

impl Container {
    /// Resolve the container for a logical path under a federation.
    pub fn new(logical: &str, fed: &Federation) -> Self {
        let logical = normalize(logical);
        let canonical = fed.canonical_container_path(&logical);
        Container {
            logical,
            canonical,
            fed: fed.clone(),
        }
    }

    /// Normalized logical path of the file, as the user sees it.
    pub fn logical_path(&self) -> &str {
        &self.logical
    }

    /// Physical path of the canonical container directory.
    pub fn canonical_path(&self) -> &str {
        &self.canonical
    }

    /// Does a container exist for this logical file?
    pub fn exists<B: Backend>(&self, b: &B) -> bool {
        b.exists(&join(&self.canonical, ACCESS_FILE))
    }

    /// Create the container skeleton: the directory and its access-file
    /// marker, nothing more. Everything else — openhosts, metadir,
    /// subdirs, droppings — is created **lazily** at first use, as real
    /// PLFS does with its hostdirs. Lazy creation is what keeps N-N
    /// create storms cheap enough for federated metadata to beat a single
    /// metadata server (Figures 7/8).
    ///
    /// Safe to race: the first creator wins; everyone else sees
    /// `AlreadyExists` internally and succeeds.
    pub fn create<B: Backend>(&self, b: &B) -> Result<()> {
        // One batched submission (the batch executes in order, so the
        // marker create sees the directory the mkdir just made) instead
        // of three sequential round-trips; `AlreadyExists` from racing
        // creators stays tolerated per op.
        let batch = [
            IoOp::MkdirAll {
                path: parent(&self.canonical),
            },
            IoOp::Mkdir {
                path: self.canonical.clone(),
            },
            IoOp::Create {
                path: join(&self.canonical, ACCESS_FILE),
                exclusive: true,
            },
        ];
        let mut out = ioplane::submit_retried(b, &batch).into_iter();
        ioplane::as_unit(ioplane::take(&mut out))?;
        match ioplane::as_unit(ioplane::take(&mut out)) {
            Ok(()) | Err(PlfsError::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
        match ioplane::as_unit(ioplane::take(&mut out)) {
            Ok(()) | Err(PlfsError::AlreadyExists(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Ensure subdir `i` exists (directory in the canonical namespace, or
    /// shadow + metalink elsewhere) and return its physical path. Called
    /// by the first writer that lands in the subdir.
    pub fn ensure_subdir<B: Backend>(&self, b: &B, i: usize) -> Result<String> {
        let entry = self.subdir_entry(i);
        if b.exists(&entry) {
            return self.subdir_dir(b, i);
        }
        match self.fed.shadow_subdir_path(&self.logical, i) {
            None => match b.mkdir(&entry) {
                Ok(()) | Err(PlfsError::AlreadyExists(_)) => Ok(entry),
                Err(e) => Err(e),
            },
            Some(shadow) => {
                // Subdir lives in another namespace: create the shadow
                // directory there and a metalink here pointing at it.
                // Shadow mkdir and metalink create batch together; the
                // metalink *body* append stays conditional on winning the
                // exclusive create (appending to a raced metalink would
                // double its payload), so it cannot join the batch.
                let stage = [
                    IoOp::MkdirAll {
                        path: shadow.clone(),
                    },
                    IoOp::Create {
                        path: entry.clone(),
                        exclusive: true,
                    },
                ];
                let mut out = ioplane::submit_retried(b, &stage).into_iter();
                ioplane::as_unit(ioplane::take(&mut out))?;
                match ioplane::as_unit(ioplane::take(&mut out)) {
                    Ok(()) => {
                        telemetry::count(telemetry::CTR_FED_SHADOW_SUBDIRS, 1);
                        b.append(&entry, &Content::bytes(shadow.clone().into_bytes()))?;
                        Ok(shadow)
                    }
                    // Another writer raced us to the metalink.
                    Err(PlfsError::AlreadyExists(_)) => Ok(shadow),
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Ensure a container-internal directory (metadir/openhosts) exists,
    /// as the first op of a larger batch: returns the ops to prepend and
    /// the directory path (callers tolerate `AlreadyExists` per op).
    fn inner_dir_path(&self, name: &str) -> String {
        join(&self.canonical, name)
    }

    /// Physical directory that holds subdir `i`'s droppings, resolving a
    /// metalink if the subdir is shadowed in another namespace, through
    /// the retried batch resolver; `NotFound` if no writer created it.
    fn subdir_dir<B: Backend>(&self, b: &B, i: usize) -> Result<String> {
        let entries = [self.subdir_entry(i)];
        let kind = ioplane::submit_retried(b, &[IoOp::Kind { path: entries[0].clone() }]);
        match self.resolve_each(b, i, &entries, kind).pop() {
            Some(Ok(Some(dir))) => Ok(dir),
            Some(Err(e)) => Err(e),
            _ => Err(PlfsError::NotFound(entries[0].clone())),
        }
    }

    /// The `subdir.<i>` entry of the canonical container.
    fn subdir_entry(&self, i: usize) -> String {
        join(&self.canonical, &format!("{SUBDIR_PREFIX}{i}"))
    }

    /// The `subdir.<i>` entries of the canonical container, in order.
    pub(crate) fn subdir_entries(&self) -> Vec<String> {
        (0..self.fed.subdirs_per_container())
            .map(|i| self.subdir_entry(i))
            .collect()
    }

    /// Resolve the physical path of **every** subdir with batched
    /// submissions: one `Kind` probe batch over all entries, then (only
    /// for metalinked subdirs) one `Size` batch and one `ReadAt` batch —
    /// three plane round-trips for the whole container instead of one to
    /// three per subdir. `None` marks a subdir no writer has created yet;
    /// the first subdir that does not resolve fails the call.
    pub fn subdirs_phys_batch<B: Backend>(&self, b: &B) -> Result<Vec<Option<String>>> {
        self.subdirs_each(b).into_iter().collect()
    }

    /// [`Container::subdirs_phys_batch`] with one result per subdir, for a
    /// caller that must tell a broken subdir from the others (fsck).
    pub(crate) fn subdirs_each<B: Backend>(&self, b: &B) -> Vec<Result<Option<String>>> {
        let entries = self.subdir_entries();
        let probes: Vec<IoOp> = entries
            .iter()
            .map(|e| IoOp::Kind { path: e.clone() })
            .collect();
        self.resolve_each(b, 0, &entries, ioplane::submit_retried(b, &probes))
    }

    /// The rest of [`Container::subdirs_each`] once the `Kind` outcomes of
    /// `entries` are in hand (they may have ridden a larger batch):
    /// metalinked subdirs cost one `Size` and one `ReadAt` batch.
    /// `entries[k]` is `subdir.<first + k>`.
    fn resolve_each<B: Backend>(
        &self,
        b: &B,
        first: usize,
        entries: &[String],
        kinds: impl IntoIterator<Item = ioplane::IoOutcome>,
    ) -> Vec<Result<Option<String>>> {
        let mut resolved: Vec<Result<Option<String>>> = Vec::with_capacity(entries.len());
        let mut links: Vec<usize> = Vec::new();
        for (i, outcome) in kinds.into_iter().enumerate() {
            resolved.push(match ioplane::as_kind(outcome) {
                Ok(NodeKind::Dir) => Ok(Some(entries[i].clone())),
                Ok(NodeKind::File) => {
                    links.push(i);
                    Ok(None)
                }
                Err(PlfsError::NotFound(_)) => Ok(None),
                Err(e) => Err(e),
            });
        }
        let size_ops: Vec<IoOp> = links
            .iter()
            .map(|&i| IoOp::Size {
                path: entries[i].clone(),
            })
            .collect();
        let mut read_links = Vec::with_capacity(links.len());
        let mut read_ops = Vec::with_capacity(links.len());
        for (&i, outcome) in links.iter().zip(ioplane::submit_retried(b, &size_ops)) {
            match ioplane::as_size(outcome) {
                Ok(len) => {
                    read_links.push(i);
                    read_ops.push(IoOp::ReadAt {
                        path: entries[i].clone(),
                        offset: 0,
                        len,
                    });
                }
                Err(e) => resolved[i] = Err(e),
            }
        }
        for (&i, outcome) in read_links.iter().zip(ioplane::submit_retried(b, &read_ops)) {
            resolved[i] = ioplane::as_data(outcome)
                .and_then(|bytes| self.metalink_target(first + i, &entries[i], bytes))
                .map(Some);
        }
        resolved
    }

    /// The directory `subdir.<i>`'s metalink (at `entry`, holding `bytes`)
    /// names, if it can be that subdir's shadow: the path the federation
    /// hashes it to, or another path ending in `subdir.<i>` that is no
    /// prefix of that one — the old name's shadow, which a rename that
    /// died before moving it leaves behind. Anything else, a torn
    /// metalink (a prefix of the hashed path) included, is corrupt.
    fn metalink_target(&self, i: usize, entry: &str, bytes: Content) -> Result<String> {
        let hashed = self.fed.shadow_subdir_path(&self.logical, i);
        String::from_utf8(bytes.materialize())
            .ok()
            .filter(|t| match hashed.as_deref() {
                Some(h) if h == t => true,
                h => {
                    t.ends_with(&format!("/{SUBDIR_PREFIX}{i}"))
                        && !h.is_some_and(|h| h.starts_with(t.as_str()))
                }
            })
            .ok_or_else(|| {
                PlfsError::CorruptContainer(format!("metalink {entry} names no shadow of it"))
            })
    }

    /// [`Container::subdirs_each`] as fsck must see it: where subdirs
    /// spread over namespaces, a missing `subdir.<i>` whose hashed shadow
    /// directory exists is broken too — a first write or a rename died
    /// between the shadow and its metalink. That costs one `Kind` batch
    /// over such shadows, and nothing in a single namespace.
    pub(crate) fn scan_subdirs<B: Backend>(&self, b: &B) -> Vec<Result<Option<String>>> {
        let mut each = self.subdirs_each(b);
        let missing: Vec<(usize, String)> = (0..each.len())
            .filter(|&i| matches!(each[i], Ok(None)))
            .filter_map(|i| Some((i, self.fed.shadow_subdir_path(&self.logical, i)?)))
            .collect();
        let probes: Vec<IoOp> = missing
            .iter()
            .map(|(_, shadow)| IoOp::Kind {
                path: shadow.clone(),
            })
            .collect();
        for ((i, shadow), outcome) in missing.iter().zip(ioplane::submit_retried(b, &probes)) {
            if let Ok(NodeKind::Dir) = ioplane::as_kind(outcome) {
                each[*i] = Err(PlfsError::CorruptContainer(format!(
                    "subdir.{i} has no metalink to its shadow {shadow}"
                )));
            }
        }
        each
    }

    /// Rebuild each of the `broken` subdirs from the static hash: point its
    /// metalink at the shadow directory the federation places it in when
    /// that exists, and drop the entry when it does not — an unlink that
    /// died part-way took the shadow, and nothing reachable went with the
    /// entry. One `Kind` batch over the shadows, one `Unlink` batch, then
    /// [`Container::point_metalinks`].
    pub(crate) fn rebuild_subdirs<B: Backend>(&self, b: &B, broken: &[usize]) -> Result<()> {
        let shadowed: Vec<(usize, String)> = broken
            .iter()
            .filter_map(|&i| Some((i, self.fed.shadow_subdir_path(&self.logical, i)?)))
            .collect();
        let probes: Vec<IoOp> = shadowed
            .iter()
            .map(|(_, shadow)| IoOp::Kind {
                path: shadow.clone(),
            })
            .collect();
        let live: Vec<usize> = shadowed
            .iter()
            .zip(ioplane::submit_retried(b, &probes))
            .filter(|(_, kind)| matches!(kind, Ok(ioplane::IoValue::Kind(NodeKind::Dir))))
            .map(|((i, _), _)| *i)
            .collect();
        let entries = self.subdir_entries();
        let drops: Vec<IoOp> = broken
            .iter()
            .filter(|i| !live.contains(i))
            .map(|&i| IoOp::Unlink {
                path: entries[i].clone(),
            })
            .collect();
        for outcome in ioplane::submit_retried(b, &drops) {
            match ioplane::as_unit(outcome) {
                Ok(()) | Err(PlfsError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.point_metalinks(b, &live)
    }

    /// Point each of `subdirs`' metalinks (all of them shadowed) at the
    /// shadow directory the federation hashes it to, replacing whatever
    /// the entry held: one batch of truncating creates, then — only once
    /// every create landed — one batch of appends.
    pub(crate) fn point_metalinks<B: Backend>(&self, b: &B, subdirs: &[usize]) -> Result<()> {
        let entries = self.subdir_entries();
        let creates: Vec<IoOp> = subdirs
            .iter()
            .map(|&i| IoOp::Create {
                path: entries[i].clone(),
                exclusive: false,
            })
            .collect();
        for outcome in ioplane::submit_retried(b, &creates) {
            ioplane::as_unit(outcome)?;
        }
        let appends: Vec<IoOp> = subdirs
            .iter()
            .map(|&i| IoOp::Append {
                path: entries[i].clone(),
                content: Content::bytes(
                    self.fed
                        .shadow_subdir_path(&self.logical, i)
                        .unwrap_or_default()
                        .into_bytes(),
                ),
            })
            .collect();
        for outcome in ioplane::submit_retried(b, &appends) {
            ioplane::as_offset(outcome)?;
        }
        Ok(())
    }

    /// Replace the bytes of each `(path, content)` file without a window
    /// that loses them. Three batches: stage every new copy at
    /// `<path>`[`REALIGN_SUFFIX`] (a stale copy unlinked, an exclusive
    /// create, the append), then — only once every copy is whole — unlink
    /// the originals, then rename in the copies whose original's unlink
    /// landed. A crash leaves, per file, the original, its staged copy, or
    /// both; fsck keeps the original when it is there and promotes the
    /// copy when it is not (DESIGN.md §5c). Every rewrite of a log in
    /// place — the writer's realign, truncate, fsck's trims — goes through
    /// here.
    pub(crate) fn rewrite_staged<B: Backend>(b: &B, files: &[(String, Content)]) -> Result<()> {
        let copy = |path: &str| format!("{path}{REALIGN_SUFFIX}");
        let mut stage = Vec::with_capacity(files.len() * 3);
        for (path, content) in files {
            stage.push(IoOp::Unlink { path: copy(path) });
            stage.push(IoOp::Create {
                path: copy(path),
                exclusive: true,
            });
            if !content.is_empty() {
                stage.push(IoOp::Append {
                    path: copy(path),
                    content: content.clone(),
                });
            }
        }
        for (op, outcome) in stage.iter().zip(ioplane::submit_retried(b, &stage)) {
            match (op, outcome) {
                (_, Ok(_)) | (IoOp::Unlink { .. }, Err(PlfsError::NotFound(_))) => {}
                (_, Err(e)) => return Err(e),
            }
        }
        let unlinks: Vec<IoOp> = files
            .iter()
            .map(|(path, _)| IoOp::Unlink { path: path.clone() })
            .collect();
        let mut first_err = None;
        let mut renames = Vec::with_capacity(files.len());
        for ((path, _), outcome) in files.iter().zip(ioplane::submit_retried(b, &unlinks)) {
            match ioplane::as_unit(outcome) {
                Ok(()) => renames.push(IoOp::Rename {
                    from: copy(path),
                    to: path.clone(),
                }),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        for outcome in ioplane::submit_retried(b, &renames) {
            if let Err(e) = ioplane::as_unit(outcome) {
                first_err = first_err.or(Some(e));
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// The directory holding `writer`'s droppings among subdirs already
    /// resolved (a [`Container::subdirs_phys_batch`] result).
    pub(crate) fn writer_dir<'a>(
        &self,
        resolved: &'a [Option<String>],
        writer: WriterId,
    ) -> Result<&'a String> {
        resolved
            .get(self.subdir_for(writer))
            .and_then(Option::as_ref)
            .ok_or_else(|| {
                PlfsError::CorruptContainer(format!(
                    "writer {writer} found in an unresolved subdir"
                ))
            })
    }

    /// Which subdir a writer's droppings land in (static assignment).
    pub fn subdir_for(&self, writer: WriterId) -> usize {
        (writer % self.fed.subdirs_per_container() as u64) as usize
    }

    /// Subdirs this container's federation allows (for scanners).
    pub fn federation_subdirs(&self) -> usize {
        self.fed.subdirs_per_container()
    }

    /// Path of `writer`'s data log.
    pub fn data_log<B: Backend>(&self, b: &B, writer: WriterId) -> Result<String> {
        let dir = self.subdir_dir(b, self.subdir_for(writer))?;
        Ok(join(&dir, &format!("{DATA_PREFIX}{writer}")))
    }

    /// Path of `writer`'s index log.
    pub fn index_log<B: Backend>(&self, b: &B, writer: WriterId) -> Result<String> {
        let dir = self.subdir_dir(b, self.subdir_for(writer))?;
        Ok(join(&dir, &format!("{INDEX_PREFIX}{writer}")))
    }

    /// Mark `writer` as having the file open for write (creating the
    /// openhosts directory on first use). One two-op batch: the mkdir
    /// tolerates `AlreadyExists`, the host-entry create follows in order.
    pub fn register_open<B: Backend>(&self, b: &B, writer: WriterId) -> Result<()> {
        let dir = self.inner_dir_path(OPENHOSTS);
        let batch = [
            IoOp::Mkdir { path: dir.clone() },
            IoOp::Create {
                path: join(&dir, &format!("host.{writer}")),
                exclusive: false,
            },
        ];
        let mut out = ioplane::submit_retried(b, &batch).into_iter();
        match ioplane::as_unit(ioplane::take(&mut out)) {
            Ok(()) | Err(PlfsError::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
        ioplane::as_unit(ioplane::take(&mut out))
    }

    /// Remove `writer`'s openhosts entry (on close).
    pub fn unregister_open<B: Backend>(&self, b: &B, writer: WriterId) -> Result<()> {
        let p = join(&join(&self.canonical, OPENHOSTS), &format!("host.{writer}"));
        match b.unlink(&p) {
            Ok(()) | Err(PlfsError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Writers that currently have the file open for write.
    pub fn open_writers<B: Backend>(&self, b: &B) -> Result<Vec<WriterId>> {
        let names = match b.list(&join(&self.canonical, OPENHOSTS)) {
            Ok(n) => n,
            Err(PlfsError::NotFound(_)) => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        Ok(names
            .iter()
            .filter_map(|n| n.strip_prefix("host."))
            .filter_map(|s| s.parse().ok())
            .collect())
    }

    /// Record a closed writer's view of logical EOF in the metadir. These
    /// cached records make `stat` cheap: no index aggregation needed.
    pub fn record_meta<B: Backend>(
        &self,
        b: &B,
        writer: WriterId,
        eof: u64,
        bytes: u64,
    ) -> Result<()> {
        // Encode in the name, like real PLFS: meta.<eof>.<bytes>.<writer>
        let dir = self.inner_dir_path(METADIR);
        let batch = [
            IoOp::Mkdir { path: dir.clone() },
            IoOp::Create {
                path: join(&dir, &format!("meta.{eof}.{bytes}.{writer}")),
                exclusive: false,
            },
        ];
        let mut out = ioplane::submit_retried(b, &batch).into_iter();
        match ioplane::as_unit(ioplane::take(&mut out)) {
            Ok(()) | Err(PlfsError::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
        ioplane::as_unit(ioplane::take(&mut out))
    }

    /// Replace every metadir record with one for `eof` and `bytes` (writer
    /// id 0 by convention), once truncate or repair has changed what the
    /// index logs resolve to — so cached stat tells the truth again.
    pub(crate) fn reset_metadir<B: Backend>(&self, b: &B, eof: u64, bytes: u64) -> Result<()> {
        let metadir = self.inner_dir_path(METADIR);
        match retry_transient(|| b.list(&metadir)) {
            Ok(names) => {
                let stale: Vec<IoOp> = names
                    .iter()
                    .filter(|n| n.starts_with("meta."))
                    .map(|n| IoOp::Unlink {
                        path: join(&metadir, n),
                    })
                    .collect();
                for outcome in ioplane::submit_retried(b, &stale) {
                    ioplane::as_unit(outcome)?;
                }
            }
            Err(PlfsError::NotFound(_)) => {}
            Err(e) => return Err(e),
        }
        self.record_meta(b, 0, eof, bytes)
    }

    /// Batched close-time bookkeeping for one writer: metadir record and
    /// openhosts deregistration in a single three-op submission instead
    /// of three sequential round-trips (the write-close hot path —
    /// every writer of an N-1 job pays this at the same moment).
    pub fn finish_close<B: Backend>(
        &self,
        b: &B,
        writer: WriterId,
        eof: u64,
        bytes: u64,
    ) -> Result<()> {
        let metadir = self.inner_dir_path(METADIR);
        let batch = [
            IoOp::Mkdir {
                path: metadir.clone(),
            },
            IoOp::Create {
                path: join(&metadir, &format!("meta.{eof}.{bytes}.{writer}")),
                exclusive: false,
            },
            IoOp::Unlink {
                path: join(&self.inner_dir_path(OPENHOSTS), &format!("host.{writer}")),
            },
        ];
        let mut out = ioplane::submit_retried(b, &batch).into_iter();
        match ioplane::as_unit(ioplane::take(&mut out)) {
            Ok(()) | Err(PlfsError::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
        ioplane::as_unit(ioplane::take(&mut out))?;
        match ioplane::as_unit(ioplane::take(&mut out)) {
            Ok(()) | Err(PlfsError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Cheap logical size from metadir records: max EOF over closed
    /// writers. Returns `None` if no writer has closed yet (caller must
    /// fall back to index aggregation).
    pub fn cached_size<B: Backend>(&self, b: &B) -> Result<Option<u64>> {
        let names = match b.list(&join(&self.canonical, METADIR)) {
            Ok(n) => n,
            Err(PlfsError::NotFound(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut eof: Option<u64> = None;
        for n in &names {
            let mut parts = n.split('.');
            if parts.next() != Some("meta") {
                continue;
            }
            if let Some(Ok(e)) = parts.next().map(str::parse::<u64>) {
                eof = Some(eof.map_or(e, |cur| cur.max(e)));
            }
        }
        Ok(eof)
    }

    /// All writer ids that have droppings in this container, across all
    /// subdirs, sorted. One batched subdir resolution plus one `Readdir`
    /// batch over the resolved dirs (absent subdirs simply hold no
    /// droppings — lazy creation).
    pub fn list_writers<B: Backend>(&self, b: &B) -> Result<Vec<WriterId>> {
        self.writers_in(b, &self.subdirs_phys_batch(b)?)
    }

    /// [`Container::list_writers`] over subdirs already resolved.
    pub(crate) fn writers_in<B: Backend>(
        &self,
        b: &B,
        resolved: &[Option<String>],
    ) -> Result<Vec<WriterId>> {
        let mut ids = Vec::new();
        let lists: Vec<IoOp> = resolved
            .iter()
            .flatten()
            .map(|d| IoOp::Readdir { path: d.clone() })
            .collect();
        for outcome in ioplane::submit_retried(b, &lists) {
            for name in ioplane::as_names(outcome)? {
                if let Some(id) = name.strip_prefix(INDEX_PREFIX) {
                    if let Ok(w) = id.parse::<u64>() {
                        ids.push(w);
                    }
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Read and decode one writer's index log. Transient failures are
    /// retried with bounded backoff by the plane (index reads sit on the
    /// read-open critical path, where a dropped RPC should not fail the
    /// open).
    pub fn read_index_log<B: Backend>(&self, b: &B, writer: WriterId) -> Result<Vec<IndexEntry>> {
        let path = self.index_log(b, writer)?;
        Self::read_logs_whole(b, &[path], 1).map(|mut v| v.pop().unwrap_or_default())
    }

    /// [`Container::read_index_runs`] on the calling thread, with the
    /// logs concatenated in writer order.
    pub fn read_index_logs<B: Backend>(
        &self,
        b: &B,
        resolved: &[Option<String>],
        writers: &[WriterId],
    ) -> Result<Vec<IndexEntry>> {
        Ok(self.read_index_runs(b, resolved, writers, 1)?.concat())
    }

    /// Read and decode many writers' index logs through the plane: one
    /// run of entries per writer, in writer order, each in log order —
    /// the input shape of [`GlobalIndex::from_runs`]. `resolved` is a
    /// [`Container::subdirs_phys_batch`] result, so the subdir probes are
    /// paid once per aggregation, not once per writer. At most
    /// `max_threads` threads share the work; the batches submitted are
    /// the same at every thread count.
    pub fn read_index_runs<B: Backend>(
        &self,
        b: &B,
        resolved: &[Option<String>],
        writers: &[WriterId],
        max_threads: usize,
    ) -> Result<Vec<Vec<IndexEntry>>> {
        let paths = self.index_log_paths(resolved, writers)?;
        Self::read_logs_whole(b, &paths, max_threads)
    }

    /// Physical path of each of `writers`' index logs under subdirs
    /// already resolved.
    pub(crate) fn index_log_paths(
        &self,
        resolved: &[Option<String>],
        writers: &[WriterId],
    ) -> Result<Vec<String>> {
        writers
            .iter()
            .map(|&w| {
                Ok(join(
                    self.writer_dir(resolved, w)?,
                    &format!("{INDEX_PREFIX}{w}"),
                ))
            })
            .collect()
    }

    /// Size-then-read each path whole and decode its entries:
    /// [`Container::log_sizes`] then [`Container::read_logs_sized`],
    /// expanded.
    pub(crate) fn read_logs_whole<B: Backend>(
        b: &B,
        paths: &[String],
        max_threads: usize,
    ) -> Result<Vec<Vec<IndexEntry>>> {
        let sizes = Self::log_sizes(b, paths)?;
        let logs = Self::read_logs_sized(b, paths, &sizes, max_threads)?;
        Ok(logs.iter().map(|l| log::expand(l)).collect())
    }

    /// Current size of every path: one `Size` batch on the calling thread.
    fn log_sizes<B: Backend>(b: &B, paths: &[String]) -> Result<Vec<u64>> {
        let size_ops: Vec<IoOp> = paths
            .iter()
            .map(|p| IoOp::Size { path: p.clone() })
            .collect();
        ioplane::submit_retried(b, &size_ops)
            .into_iter()
            .map(ioplane::as_size)
            .collect()
    }

    /// Read exactly the first `sizes[i]` bytes of `paths[i]` and decode
    /// the records, each progression one [`LogRecord`] — bytes a log grew
    /// by after it was sized are not read.
    /// The `ReadAt`s go in [`INDEX_READ_CHUNK`]-op slices dealt in
    /// contiguous shares to at most `max_threads` scoped threads, so the
    /// round trips depend on the path count alone. Each shard thread
    /// reopens `index.aggregate` under the caller's span, so what it
    /// submits keeps its ancestry.
    fn read_logs_sized<B: Backend>(
        b: &B,
        paths: &[String],
        sizes: &[u64],
        max_threads: usize,
    ) -> Result<Vec<Vec<LogRecord>>> {
        let read_ops: Vec<IoOp> = paths
            .iter()
            .zip(sizes)
            .map(|(p, &len)| IoOp::ReadAt {
                path: p.clone(),
                offset: 0,
                len,
            })
            .collect();
        let chunks: Vec<&[IoOp]> = read_ops.chunks(INDEX_READ_CHUNK).collect();
        let threads = max_threads.clamp(1, chunks.len().max(1));
        if threads == 1 {
            return Self::read_chunks(b, &chunks);
        }
        let parent = telemetry::current_span_id();
        #[expect(clippy::expect_used, reason = "a panicked worker must propagate, not masquerade as an I/O error")]
        let shards: Vec<Result<Vec<Vec<LogRecord>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .chunks(chunks.len().div_ceil(threads))
                .map(|share| {
                    scope.spawn(move || {
                        let _span =
                            telemetry::span_with_parent(telemetry::SPAN_INDEX_AGGREGATE, parent);
                        Self::read_chunks(b, share)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("index aggregation thread panicked"))
                .collect()
        });
        let mut out = Vec::with_capacity(paths.len());
        for shard in shards {
            out.extend(shard?);
        }
        Ok(out)
    }

    /// Submit each `ReadAt` slice and decode it before the next, refusing
    /// a log that is not a whole number of records or has a record whose
    /// extents overflow ([`log::decode`]). A strided log decodes to one
    /// record, so its bytes are dropped before the next slice is read and
    /// the next slice's buffers reuse their memory: reading every slice
    /// first measured slower.
    fn read_chunks<B: Backend>(b: &B, chunks: &[&[IoOp]]) -> Result<Vec<Vec<LogRecord>>> {
        let mut out = Vec::with_capacity(chunks.iter().map(|c| c.len()).sum());
        for chunk in chunks {
            for (outcome, op) in ioplane::submit_retried(b, chunk).into_iter().zip(*chunk) {
                out.push(log::decode(
                    op.path(),
                    &ioplane::as_data(outcome)?.as_bytes(),
                )?);
            }
        }
        Ok(out)
    }

    /// Physical path of the flattened (spanidx) index file.
    pub fn flattened_path(&self) -> String {
        join(&self.canonical, FLATTENED_INDEX)
    }

    /// Write the flattened index (Index Flatten, done at write close by
    /// the root process after gathering buffered indices) in the
    /// binary-searchable spanidx format (DESIGN.md §5j), without
    /// materializing the merge: the entry runs stream through the
    /// resolve-and-compact kernel straight into a [`SpanIdxWriter`] —
    /// working set O(overlap window + chunk).
    pub fn write_flattened_runs<B: Backend>(&self, b: &B, runs: &[Vec<IndexEntry>]) -> Result<()> {
        let mut w = SpanIdxWriter::create(b, &self.flattened_path(), FLATTEN_CHUNK_ENTRIES)?;
        index::stream_runs(runs, FLATTEN_CHUNK_ENTRIES, |run| w.push_run(run))?;
        w.finish()?;
        Ok(())
    }

    /// Open the flattened index for memory-bounded lookups: fences and
    /// footer in memory, record windows fetched on demand through
    /// `cache`. `Ok(None)` when no structurally valid spanidx file is
    /// present (then fall back to log aggregation).
    pub fn open_ondisk_index<B: Backend>(
        &self,
        b: &B,
        cache: Arc<SpanCache>,
    ) -> Result<Option<OnDiskIndex>> {
        OnDiskIndex::open(b, &self.flattened_path(), cache)
    }

    /// Delete the flattened index (e.g. when fsck finds it stale).
    pub fn remove_flattened<B: Backend>(&self, b: &B) -> Result<()> {
        let path = join(&self.canonical, FLATTENED_INDEX);
        match b.unlink(&path) {
            Ok(()) | Err(PlfsError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The flattened index read whole, as its compacted resolution: the
    /// reference fsck's staleness check compares (readers open the file
    /// bounded, [`IndexProbe::load`]). `None` when absent; a file failing
    /// [`ondisk::verify_deep`] is `CorruptContainer` with the reason.
    pub fn read_flattened<B: Backend>(&self, b: &B) -> Result<Option<GlobalIndex>> {
        let path = self.flattened_path();
        let mut out = ioplane::submit_retried(b, &[IoOp::Size { path: path.clone() }]).into_iter();
        let Some(len) = absent_as_none(ioplane::as_size(ioplane::take(&mut out)))? else {
            return Ok(None);
        };
        let read = [IoOp::ReadAt {
            path,
            offset: 0,
            len,
        }];
        let mut out = ioplane::submit_retried(b, &read).into_iter();
        let data = ioplane::as_data(ioplane::take(&mut out))?;
        let bytes = data.as_bytes();
        ondisk::verify_deep(&bytes)?;
        let (_, records, _) = ondisk::parse_file(&bytes)?;
        let runs = [IndexEntry::decode_all(records)?];
        index::check_extents(&self.flattened_path(), &runs[0])?;
        Ok(Some(GlobalIndex::from_runs(&runs, true)))
    }

    /// Physical path of the generation file of this container's canonical
    /// namespace (see [`IndexStamp`]).
    pub fn generation_path(&self) -> String {
        let ns = &self.fed.namespaces()[self.fed.container_namespace(&self.logical)];
        join(ns, GENERATION_FILE)
    }

    /// The two ops that advance this container's namespace generation,
    /// for the tail of a batch that unlinked, renamed or truncated an
    /// index log or the flattened index: an exclusive create (callers
    /// tolerate `AlreadyExists`) and a one-byte append.
    pub(crate) fn generation_bump_ops(&self) -> [IoOp; 2] {
        let path = self.generation_path();
        [
            IoOp::Create {
                path: path.clone(),
                exclusive: true,
            },
            IoOp::Append {
                path,
                content: Content::bytes(vec![0]),
            },
        ]
    }

    /// Check the outcomes of [`Container::generation_bump_ops`].
    pub(crate) fn generation_bumped(
        outcomes: &mut std::vec::IntoIter<ioplane::IoOutcome>,
    ) -> Result<()> {
        match ioplane::as_unit(ioplane::take(outcomes)) {
            Ok(()) | Err(PlfsError::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
        ioplane::as_offset(ioplane::take(outcomes)).map(|_| ())
    }

    /// Advance this container's namespace generation on its own (one
    /// batch), for destructive paths with no batch of their own to ride.
    pub fn bump_generation<B: Backend>(&self, b: &B) -> Result<()> {
        let mut out = ioplane::submit_retried(b, &self.generation_bump_ops()).into_iter();
        Self::generation_bumped(&mut out)
    }

    /// What a mount's read-open starts with: one batch carrying the
    /// access-file probe, the namespace generation, the flattened index's
    /// size and the subdir probes, then the writer listing and one `Size`
    /// batch over the index logs — no log is read. `None` when there is
    /// no container here. The returned probe holds the [`IndexStamp`] to
    /// validate a cached index against and can [`IndexProbe::load`] the
    /// index that stamp describes.
    pub fn probe_index<B: Backend>(&self, b: &B) -> Result<Option<IndexProbe>> {
        let entries = self.subdir_entries();
        let flattened_path = self.flattened_path();
        let mut batch = vec![
            IoOp::Kind {
                path: join(&self.canonical, ACCESS_FILE),
            },
            IoOp::Size {
                path: self.generation_path(),
            },
            IoOp::Size {
                path: flattened_path.clone(),
            },
        ];
        batch.extend(entries.iter().map(|e| IoOp::Kind { path: e.clone() }));
        let mut out = ioplane::submit_retried(b, &batch).into_iter();
        // Only a definitive `NotFound` means "no container", as for
        // [`Backend::exists`].
        if let Err(PlfsError::NotFound(_)) = ioplane::as_kind(ioplane::take(&mut out)) {
            return Ok(None);
        }
        let generation = absent_as_none(ioplane::as_size(ioplane::take(&mut out)))?.unwrap_or(0);
        let flattened = absent_as_none(ioplane::as_size(ioplane::take(&mut out)))?;
        let resolved = self
            .resolve_each(b, 0, &entries, out)
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        let writers = self.writers_in(b, &resolved)?;
        let log_paths = self.index_log_paths(&resolved, &writers)?;
        let sizes = Self::log_sizes(b, &log_paths)?;
        Ok(Some(IndexProbe {
            stamp: IndexStamp {
                generation,
                flattened,
                logs: writers.into_iter().zip(sizes).collect(),
            },
            flattened_path,
            log_paths,
        }))
    }

    /// Remove the container and its shadow container directory in every
    /// other namespace (the shadow subdirs go with them, and no empty
    /// directory is left behind): one `RemoveAll` batch (shadows tolerate
    /// `NotFound`; the canonical tree does not) that ends by advancing
    /// the namespace generation — a container re-created at this path
    /// can repeat the old one's writer ids and log sizes exactly.
    pub fn remove<B: Backend>(&self, b: &B) -> Result<()> {
        let mut batch = self.shadow_removal_ops();
        let shadows = batch.len();
        batch.push(IoOp::RemoveAll {
            path: self.canonical.clone(),
        });
        batch.extend(self.generation_bump_ops());
        let mut out = ioplane::submit_retried(b, &batch).into_iter();
        for i in 0..=shadows {
            match ioplane::as_unit(ioplane::take(&mut out)) {
                Ok(()) => {}
                Err(PlfsError::NotFound(_)) if i < shadows => {}
                Err(e) => return Err(e),
            }
        }
        Self::generation_bumped(&mut out)
    }

    /// One `RemoveAll` per shadow container directory this container can
    /// own in other namespaces (callers tolerate `NotFound` per op);
    /// empty without subdir spreading.
    pub(crate) fn shadow_removal_ops(&self) -> Vec<IoOp> {
        self.fed
            .shadow_container_paths(&self.logical)
            .into_iter()
            .map(|path| IoOp::RemoveAll { path })
            .collect()
    }

    /// Does `name` inside a directory listing look like a container entry
    /// (used by readdir to present containers as logical files)?
    pub fn is_container_marker(name: &str) -> bool {
        name == ACCESS_FILE
    }

    /// The basename of the logical file (for directory listings).
    pub fn logical_name(&self) -> &str {
        basename(&self.logical)
    }
}

/// `NotFound` as `None`.
fn absent_as_none<T>(r: Result<T>) -> Result<Option<T>> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(PlfsError::NotFound(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// What the opening batches of an index acquisition learn about a
/// container before any log is read, and what a mount validates a shared
/// index against (DESIGN.md §5l).
///
/// Index logs are append-only within one incarnation of a container, so
/// an equal writer set with equal sizes means equal bytes and an equal
/// index: anything *appended* by any mount or process — a write-close, an
/// index flush, a new writer, a flatten — changes the stamp. What sizes
/// cannot see — a log removed or rewritten into the same length by
/// truncate, unlink + re-create, rename, fsck repair or a writer id
/// reopened — advances the namespace generation instead: each of those
/// paths appends one byte to the namespace's [`GENERATION_FILE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStamp {
    /// Size of the canonical namespace's generation file (0 if absent).
    generation: u64,
    /// Size of the flattened index, if there is one.
    flattened: Option<u64>,
    /// Every index log's writer and size, in writer order.
    logs: Vec<(WriterId, u64)>,
}

impl IndexStamp {
    /// Bytes this stamp occupies in a cache entry.
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.logs.len() * std::mem::size_of::<(WriterId, u64)>()) as u64
    }

    /// Everything but the generation: what sizes alone can tell.
    #[cfg(test)]
    pub(crate) fn sizes(&self) -> (Option<u64>, &[(WriterId, u64)]) {
        (self.flattened, &self.logs)
    }
}

/// An [`IndexStamp`] and what finishing the acquisition it began needs.
#[derive(Debug)]
pub struct IndexProbe {
    stamp: IndexStamp,
    flattened_path: String,
    log_paths: Vec<String>,
}

impl IndexProbe {
    /// The stamp these batches fetched.
    pub fn stamp(&self) -> &IndexStamp {
        &self.stamp
    }

    /// Each stamped writer's data log: beside its index log, whose subdir
    /// these batches already resolved.
    pub(crate) fn data_logs(&self) -> impl Iterator<Item = (WriterId, String)> + '_ {
        let logs = self.stamp.logs.iter().zip(&self.log_paths);
        logs.map(|(&(w, _), index_log)| (w, join(&parent(index_log), &format!("{DATA_PREFIX}{w}"))))
    }

    /// The index the stamp describes, byte for byte: the flattened index
    /// at the size stamped, opened bounded through `cache` when it parses
    /// ([`OnDiskIndex::open_sized`]: footer and fences, no `Size`), else
    /// the stamped prefix of every log aggregated (`IndexProbe::aggregate`).
    pub fn load<B: Backend>(&self, b: &B, cache: &Arc<SpanCache>) -> Result<IndexSource> {
        if let Some(len) = self.stamp.flattened {
            let odx = OnDiskIndex::open_sized(b, &self.flattened_path, len, Arc::clone(cache))?;
            if let Some(odx) = odx {
                return Ok(IndexSource::Disk(Arc::new(odx)));
            }
        }
        self.aggregate(b).map(IndexSource::from)
    }

    /// One-pass aggregation of exactly the stamped prefix of every log,
    /// compacted inline, never looking at a flattened index: an
    /// interleave group when the logs are an N-1 strided checkpoint's
    /// progressions ([`GlobalIndex::from_logs`]). Compaction happens
    /// only here, at the terminal aggregation, never to partial indices
    /// that may still be merged (DESIGN.md §5b).
    pub(crate) fn aggregate<B: Backend>(&self, b: &B) -> Result<GlobalIndex> {
        let _span = telemetry::span(telemetry::SPAN_INDEX_AGGREGATE);
        let sizes: Vec<u64> = self.stamp.logs.iter().map(|&(_, size)| size).collect();
        let threads = default_aggregation_threads();
        let logs = Container::read_logs_sized(b, &self.log_paths, &sizes, threads)?;
        Ok(GlobalIndex::from_logs(&logs))
    }
}

/// Index-log reads per `ReadAt` batch in [`Container::read_index_runs`]'s
/// whole-log fan-out, and so the unit aggregation threads share: a
/// fig4-shaped open (16 writers) is four batches, whatever the thread
/// count.
const INDEX_READ_CHUNK: usize = 4;

/// Entries buffered per spanidx append (and per streamed-merge emission)
/// during Index Flatten: 64Ki records ≈ 2.5 MiB per backend op — big
/// enough to amortize submission, small enough to keep flatten memory
/// far below the merged index it replaces.
const FLATTEN_CHUNK_ENTRIES: usize = 64 * 1024;

/// Pool width for threaded index aggregation: bounded so a reader on a
/// login node doesn't fan out past the machine, capped because log reads
/// on the in-process backends stop scaling long before core counts do.
fn default_aggregation_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfs::MemFs;

    fn fed1() -> Federation {
        Federation::single("/ns0", 4)
    }

    #[test]
    fn create_builds_minimal_skeleton() {
        let b = MemFs::new();
        let c = Container::new("/ckpt/f1", &fed1());
        c.create(&b).unwrap();
        assert!(c.exists(&b));
        assert_eq!(c.canonical_path(), "/ns0/ckpt/f1");
        // Lazy layout: only the marker exists until someone writes.
        let entries = b.list("/ns0/ckpt/f1").unwrap();
        assert_eq!(entries, vec![ACCESS_FILE.to_string()]);
        // Subdirs appear on demand.
        let sub = c.ensure_subdir(&b, 2).unwrap();
        assert_eq!(sub, "/ns0/ckpt/f1/subdir.2");
        assert!(b.exists(&sub));
        // ensure is idempotent.
        assert_eq!(c.ensure_subdir(&b, 2).unwrap(), sub);
    }

    #[test]
    fn create_is_idempotent_under_races() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        c.create(&b).unwrap();
        c.create(&b).unwrap(); // a second process creating concurrently
        assert!(c.exists(&b));
    }

    #[test]
    fn writers_map_to_subdirs_statically() {
        let c = Container::new("/f", &fed1());
        assert_eq!(c.subdir_for(0), 0);
        assert_eq!(c.subdir_for(5), 1);
        assert_eq!(c.subdir_for(7), 3);
    }

    #[test]
    fn open_registration_roundtrip() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        c.create(&b).unwrap();
        c.register_open(&b, 3).unwrap();
        c.register_open(&b, 9).unwrap();
        assert_eq!(c.open_writers(&b).unwrap(), vec![3, 9]);
        c.unregister_open(&b, 3).unwrap();
        assert_eq!(c.open_writers(&b).unwrap(), vec![9]);
        // Unregistering twice is fine.
        c.unregister_open(&b, 3).unwrap();
    }

    #[test]
    fn metadir_caches_size() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        c.create(&b).unwrap();
        assert_eq!(c.cached_size(&b).unwrap(), None);
        c.record_meta(&b, 0, 1000, 500).unwrap();
        c.record_meta(&b, 1, 4000, 500).unwrap();
        c.record_meta(&b, 2, 2000, 500).unwrap();
        assert_eq!(c.cached_size(&b).unwrap(), Some(4000));
    }

    #[test]
    fn index_logs_roundtrip_through_container() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        c.create(&b).unwrap();
        let e = IndexEntry {
            logical_offset: 0,
            length: 10,
            physical_offset: 0,
            writer: 6,
            timestamp: 1,
        };
        c.ensure_subdir(&b, c.subdir_for(6)).unwrap();
        let ipath = c.index_log(&b, 6).unwrap();
        b.create(&ipath, true).unwrap();
        b.append(&ipath, &Content::bytes(IndexEntry::encode_all(&[e])))
            .unwrap();
        assert_eq!(c.read_index_log(&b, 6).unwrap(), vec![e]);
        assert_eq!(c.list_writers(&b).unwrap(), vec![6]);
        assert_eq!(aggregate(&b, &c, 1).eof(), 10);
    }

    #[test]
    fn flattened_index_roundtrip() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        c.create(&b).unwrap();
        assert!(c.read_flattened(&b).unwrap().is_none());
        let idx = GlobalIndex::from_entries([IndexEntry {
            logical_offset: 5,
            length: 7,
            physical_offset: 0,
            writer: 1,
            timestamp: 2,
        }]);
        c.write_flattened_runs(&b, &[idx.to_entries()]).unwrap();
        assert_eq!(c.read_flattened(&b).unwrap(), Some(idx.clone()));
        // A read-open prefers the flattened copy, bounded.
        let source = load(&b, &c);
        assert!(source.mem().is_none());
        assert_eq!(source.eof(), idx.eof());
    }

    /// Every index log aggregated on at most `threads` threads, uncompacted.
    fn aggregate(b: &MemFs, c: &Container, threads: usize) -> GlobalIndex {
        let resolved = c.subdirs_phys_batch(b).unwrap();
        let writers = c.list_writers(b).unwrap();
        GlobalIndex::from_runs(&c.read_index_runs(b, &resolved, &writers, threads).unwrap(), false)
    }

    /// What a read-open of `c` loads.
    fn load(b: &MemFs, c: &Container) -> IndexSource {
        let probe = c.probe_index(b).unwrap().unwrap();
        probe.load(b, &Arc::new(SpanCache::new())).unwrap()
    }

    /// Populate `writers` index logs with a strided pattern.
    fn seed_index_logs(b: &MemFs, c: &Container, writers: u64, blocks: u64) {
        for w in 0..writers {
            c.ensure_subdir(b, c.subdir_for(w)).unwrap();
            let entries: Vec<IndexEntry> = (0..blocks)
                .map(|blk| IndexEntry {
                    logical_offset: (blk * writers + w) * 256,
                    length: 256,
                    physical_offset: blk * 256,
                    writer: w,
                    timestamp: 1 + (blk % 3),
                })
                .collect();
            let ipath = c.index_log(b, w).unwrap();
            b.create(&ipath, true).unwrap();
            b.append(&ipath, &Content::bytes(IndexEntry::encode_all(&entries)))
                .unwrap();
        }
    }

    #[test]
    fn parallel_aggregation_equals_serial() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        c.create(&b).unwrap();
        assert!(aggregate(&b, &c, 4).is_empty(), "no log yet");
        seed_index_logs(&b, &c, 13, 7);
        let serial = aggregate(&b, &c, 1);
        for threads in [2, 3, 8, 64] {
            let parallel = aggregate(&b, &c, threads);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn load_compacts_terminal_aggregation() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        c.create(&b).unwrap();
        // One writer, contiguous segments: aggregation yields 6 spans that
        // compact to 1.
        seed_index_logs(&b, &c, 1, 6);
        let loaded = load(&b, &c);
        let mut expect = aggregate(&b, &c, 1);
        assert_eq!(expect.span_count(), 6);
        expect.compact();
        assert_eq!(loaded.mem().map(|idx| &**idx), Some(&expect));
        assert_eq!(expect.span_count(), 1);
    }

    #[test]
    fn probe_stamps_what_load_then_reads() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        assert!(c.probe_index(&b).unwrap().is_none(), "no container yet");
        c.create(&b).unwrap();
        seed_index_logs(&b, &c, 3, 2);
        let probe = c.probe_index(&b).unwrap().unwrap();
        assert_eq!(probe.stamp().generation, 0, "no generation file yet");
        assert_eq!(
            probe.stamp().sizes(),
            (None, &[(0, 80), (1, 80), (2, 80)][..])
        );
        // A log that grows after the stamp is read only up to the stamp.
        let grown = c.index_log(&b, 1).unwrap();
        let extra = IndexEntry {
            logical_offset: 1 << 20,
            length: 1,
            physical_offset: 512,
            writer: 1,
            timestamp: 9,
        };
        b.append(&grown, &Content::bytes(IndexEntry::encode_all(&[extra])))
            .unwrap();
        let cache = Arc::new(SpanCache::new());
        let at_stamp = probe.load(&b, &cache).unwrap();
        assert_eq!(at_stamp.eof(), 6 * 256);
        let now = c.probe_index(&b).unwrap().unwrap();
        assert_ne!(now.stamp(), probe.stamp(), "an append changes the stamp");
        let mut whole = aggregate(&b, &c, 1);
        whole.compact();
        let loaded = now.load(&b, &cache).unwrap();
        assert_eq!(loaded.mem().map(|idx| &**idx), Some(&whole));
        assert_eq!(loaded.eof(), (1 << 20) + 1);
    }

    #[test]
    fn remove_advances_the_generation() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        let build = || {
            c.create(&b).unwrap();
            seed_index_logs(&b, &c, 2, 3);
            c.probe_index(&b).unwrap().unwrap()
        };
        let first = build();
        c.remove(&b).unwrap();
        assert_eq!(b.size(&c.generation_path()).unwrap(), 1);
        let second = build();
        assert_eq!(first.stamp().sizes(), second.stamp().sizes());
        assert_ne!(first.stamp(), second.stamp());
        // The generation file sits in the namespace root, outside every
        // container.
        assert_eq!(c.generation_path(), "/ns0/.plfsgen");
    }

    #[test]
    fn federated_subdirs_resolve_through_metalinks() {
        let b = MemFs::new();
        let fed = Federation::new(
            vec!["/vol0".into(), "/vol1".into(), "/vol2".into()],
            6,
            true,
            true,
        );
        let c = Container::new("/big/ckpt", &fed);
        c.create(&b).unwrap();
        // Every subdir must resolve to a real directory somewhere once
        // a writer forces it into existence.
        let mut namespaces_used = std::collections::BTreeSet::new();
        for i in 0..6 {
            let phys = c.ensure_subdir(&b, i).unwrap();
            assert_eq!(b.kind(&phys).unwrap(), crate::backend::NodeKind::Dir);
            namespaces_used.insert(phys.split('/').nth(1).unwrap().to_string());
        }
        // Static hashing over 6 subdirs and 3 volumes should hit >1 volume.
        assert!(namespaces_used.len() > 1, "subdirs all in one namespace");
        // Droppings land inside resolved subdirs and are discoverable.
        c.ensure_subdir(&b, c.subdir_for(4)).unwrap();
        let dpath = c.data_log(&b, 4).unwrap();
        let ipath = c.index_log(&b, 4).unwrap();
        b.create(&dpath, true).unwrap();
        b.create(&ipath, true).unwrap();
        assert_eq!(c.list_writers(&b).unwrap(), vec![4]);
        // remove() cleans shadows too.
        c.remove(&b).unwrap();
        for ns in ["/vol0", "/vol1", "/vol2"] {
            if b.exists(ns) {
                let leftover: Vec<String> = b.list(ns).unwrap();
                assert!(
                    leftover.iter().all(|n| !n.contains("ckpt")),
                    "shadow leftovers in {ns}: {leftover:?}"
                );
            }
        }
    }

    /// Write each of `logs` as writer `i`'s index log and aggregate them
    /// as a read-open does.
    fn aggregate_logs(logs: &[Vec<IndexEntry>]) -> GlobalIndex {
        let b = MemFs::new();
        let c = Container::new("/g", &fed1());
        c.create(&b).unwrap();
        for (w, log) in (0u64..).zip(logs) {
            c.ensure_subdir(&b, c.subdir_for(w)).unwrap();
            let ipath = c.index_log(&b, w).unwrap();
            b.create(&ipath, true).unwrap();
            b.append(&ipath, &Content::bytes(IndexEntry::encode_all(log)))
                .unwrap();
        }
        let probe = c.probe_index(&b).unwrap().unwrap();
        let resolved = c.subdirs_phys_batch(&b).unwrap();
        let writers = c.list_writers(&b).unwrap();
        assert_eq!(c.read_index_runs(&b, &resolved, &writers, 2).unwrap(), logs);
        probe.aggregate(&b).unwrap()
    }

    /// An N-1 strided checkpoint's logs: `writers` × `blocks` blocks of
    /// `len` bytes from `base`, writer `w`'s block `k` at `base + (k ·
    /// writers + w) · len`, each writer's clock stepping by `writers`.
    /// `shape` perturbs it: 0 none, 1 writer `j` a block short, 2 writer
    /// `j` a period late, 3 an extra overwriting record in writer `j`'s
    /// log, 4 a stride one block longer than a period.
    fn strided_logs(
        writers: u64,
        blocks: u64,
        len: u64,
        base: u64,
        shape: u8,
        j: u64,
    ) -> Vec<Vec<IndexEntry>> {
        let j = j % writers;
        let period = if shape == 4 { writers + 1 } else { writers };
        (0..writers)
            .map(|w| {
                let late = u64::from(shape == 2 && w == j);
                let count = blocks - u64::from(shape == 1 && w == j);
                let mut log: Vec<IndexEntry> = (0..count)
                    .map(|k| IndexEntry {
                        logical_offset: base + ((k + late) * period + w) * len,
                        length: len,
                        physical_offset: k * len,
                        writer: w,
                        timestamp: k * writers + w + 1,
                    })
                    .collect();
                if shape == 3 && w == j {
                    log.push(IndexEntry {
                        logical_offset: base + len / 2,
                        length: len,
                        physical_offset: count * len,
                        writer: w,
                        timestamp: u64::MAX,
                    });
                }
                log
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn aggregation_of_strided_logs_equals_the_expanded_kernel(
            writers in proptest::prop::sample::select(vec![1u64, 2, 3, 64, 128]),
            blocks in 1u64..7,
            len in 1u64..100,
            base in 0u64..5000,
            shape in 0u8..5,
            j in 0u64..128,
            probes in proptest::prop::collection::vec((0u64..1_000_000, 0u64..3000), 8..9),
        ) {
            let logs = strided_logs(writers, blocks, len, base, shape, j);
            let got = aggregate_logs(&logs);
            let want = GlobalIndex::from_runs(&logs, true);
            proptest::prop_assert_eq!(got.to_entries(), want.to_entries());
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!((got.eof(), got.span_count()), (want.eof(), want.span_count()));
            // The group forms exactly on an exact tiling of progressions
            // (writer 0 a period late still tiles), which takes two
            // blocks a writer to show a stride.
            let tiles = shape == 0 || (shape == 2 && j % writers == 0);
            let exact = tiles && writers >= 2 && blocks >= 2;
            proptest::prop_assert_eq!(got.is_group(), exact);
            if exact {
                proptest::prop_assert!(got.heap_bytes() <= writers * 64);
            }
            let eof = want.eof();
            for (at, n) in probes {
                // Before, inside, across the end of and past the file.
                let at = at % (eof + 2 * len + 1);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                got.lookup_into(at, n, &mut a);
                want.lookup_into(at, n, &mut b);
                proptest::prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn an_interleave_group_answers_like_its_spans() {
        let logs = strided_logs(4, 8, 10, 100, 0, 0);
        let group = aggregate_logs(&logs);
        assert!(group.is_group());
        let flat = GlobalIndex::from_runs(&logs, true);
        assert_eq!(group, flat);
        assert_eq!(group.span_count(), 32);
        assert!(!group.is_empty());
        // Reading across the start, a lane boundary inside an element and
        // the end.
        for (at, n) in [(0, 5000), (95, 20), (105, 17), (415, 30), (u64::MAX - 3, 9)] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            group.lookup_into(at, n, &mut a);
            flat.lookup_into(at, n, &mut b);
            assert_eq!(a, b, "lookup {at}+{n}");
        }
        // Merging and inserting expand it; compaction leaves it alone.
        let mut merged = group.clone();
        merged.merge(&GlobalIndex::from_entries([logs[0][0]]));
        assert_eq!(merged, flat);
        let mut inserted = group.clone();
        let over = IndexEntry {
            logical_offset: 105,
            length: 20,
            physical_offset: 500,
            writer: 9,
            timestamp: 1000,
        };
        inserted.insert(&over);
        let mut want = flat.clone();
        want.insert(&over);
        assert_eq!(inserted, want);
        let mut compacted = group.clone();
        compacted.compact();
        assert!(compacted.is_group());
        assert_eq!(
            GlobalIndex::merge_all([group.clone(), GlobalIndex::new()]),
            flat
        );
    }
}

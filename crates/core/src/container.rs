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
//!
//! This module owns that layout (DESIGN.md §5d): each name above is a
//! private constant behind one public builder ([`access_file`],
//! [`shadow_dir`], [`data_log_in`], …), and droppings are found by one
//! scan, parsed by one name parser (`Container::list_subdirs`).
#![deny(clippy::wildcard_enum_match_arm)]

use crate::backend::{Backend, NodeKind};
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::federation::Federation;
use crate::index::log::{self, LogRecord};
use crate::index::ondisk::{self, OnDiskIndex, SpanIdxWriter};
use crate::index::{self, GlobalIndex, IndexEntry, IndexSource, SpanCache, WriterId};
use crate::ioplane::{self, IoOp, IoOutcome};
use crate::path::{join, normalize, parent};
use crate::telemetry;
use std::fmt::Display;
use std::sync::Arc;

// ---------------------------------------------------------------------
// The layout: every name inside a container or a shadow. Nothing outside
// this section spells one (`tests/contracts.rs` checks).

/// Name of the marker file that distinguishes a container from a plain
/// directory. Real PLFS uses `.plfsaccess113918400`; we keep it short.
const ACCESS_FILE: &str = ".plfsaccess";
/// Directory of cached per-writer size records (`meta.<eof>.<bytes>.<id>`).
const METADIR: &str = "metadir";
/// Prefix of the size records in [`METADIR`].
const META_PREFIX: &str = "meta.";
/// Directory of open-for-write registrations (`host.<id>`).
const OPENHOSTS: &str = "openhosts";
/// Prefix of the registrations in [`OPENHOSTS`].
const HOST_PREFIX: &str = "host.";
/// File holding the flattened global index, when Index Flatten ran.
const FLATTENED_INDEX: &str = "flattened.index";
/// The per-namespace generation file, in each namespace root: its size
/// is the namespace's generation, advanced by every operation that
/// removes or rewrites an index log or a flattened index (see
/// [`IndexStamp`]).
const GENERATION_FILE: &str = ".plfsgen";
/// Prefix of the per-group subdir entries (`subdir.<i>`).
const SUBDIR_PREFIX: &str = "subdir.";
/// Prefix of a shadow container in a namespace root
/// (`<ns>/.plfs_shadow<logical>`).
const SHADOW_ROOT: &str = ".plfs_shadow";
/// Prefix of per-writer data logs (`dropping.data.<id>`).
const DATA_PREFIX: &str = "dropping.data.";
/// Prefix of per-writer index logs (`dropping.index.<id>`).
const INDEX_PREFIX: &str = "dropping.index.";
/// Suffix of the staged copy `Container::rewrite_staged` writes before
/// swapping it in for the log it replaces. One left behind means the
/// rewrite died part-way: fsck reclaims it while its log is still there
/// and promotes it in the log's place when the log is gone.
const REALIGN_SUFFIX: &str = ".realign";

/// The access file of the container at `canonical`.
pub fn access_file(canonical: &str) -> String {
    format!("{canonical}/{ACCESS_FILE}")
}

/// The openhosts directory of the container at `canonical`.
pub fn openhosts_dir(canonical: &str) -> String {
    format!("{canonical}/{OPENHOSTS}")
}

/// `writer`'s openhosts entry in the container at `canonical`.
pub fn host_entry(canonical: &str, writer: WriterId) -> String {
    format!("{canonical}/{OPENHOSTS}/{HOST_PREFIX}{writer}")
}

/// The metadir of the container at `canonical`.
pub fn metadir(canonical: &str) -> String {
    format!("{canonical}/{METADIR}")
}

/// The metadir record named `record` (`<eof>.<bytes>.<writer>`) of the
/// container at `canonical`.
pub fn meta_record(canonical: &str, record: impl Display) -> String {
    format!("{canonical}/{METADIR}/{META_PREFIX}{record}")
}

/// The flattened index of the container at `canonical`.
pub fn flattened_index(canonical: &str) -> String {
    format!("{canonical}/{FLATTENED_INDEX}")
}

/// The `subdir.<i>` entry of the container at `canonical`: the directory
/// itself, or the metalink to its shadow.
pub fn subdir_entry(canonical: &str, i: usize) -> String {
    format!("{canonical}/{SUBDIR_PREFIX}{i}")
}

/// Subdir `i` of `logical`'s shadow directory, or `None` when it hashes
/// to the canonical namespace and is a plain directory there.
pub fn shadow_dir(fed: &Federation, logical: &str, i: usize) -> Option<String> {
    let home = fed.subdir_namespace(logical, i);
    let ns = &fed.namespaces()[home];
    (home != fed.container_namespace(logical))
        .then(|| format!("{ns}/{SHADOW_ROOT}{logical}/{SUBDIR_PREFIX}{i}"))
}

/// `writer`'s data log in the subdir directory `dir`.
pub fn data_log_in(dir: &str, writer: WriterId) -> String {
    format!("{dir}/{DATA_PREFIX}{writer}")
}

/// `writer`'s index log in the subdir directory `dir`.
pub fn index_log_in(dir: &str, writer: WriterId) -> String {
    format!("{dir}/{INDEX_PREFIX}{writer}")
}

/// The staged copy `Container::rewrite_staged` writes beside `log`.
pub(crate) fn staged_copy(log: &str) -> String {
    format!("{log}{REALIGN_SUFFIX}")
}

/// The log a `staged_copy` at `copy` stands in for.
pub fn staged_log(copy: &str) -> Option<&str> {
    copy.strip_suffix(REALIGN_SUFFIX)
}

/// The generation file of the namespace holding `logical`'s canonical
/// container.
pub(crate) fn generation_file(fed: &Federation, logical: &str) -> String {
    join(
        &fed.namespaces()[fed.container_namespace(logical)],
        GENERATION_FILE,
    )
}

/// Whether `name`, listed in a logical directory, is PLFS's own — a
/// shadow container or the generation file — and never a logical file.
pub(crate) fn is_internal(name: &str) -> bool {
    name.starts_with(SHADOW_ROOT) || name == GENERATION_FILE
}

/// The `i` of a container entry named `subdir.<i>`.
pub fn subdir_index(name: &str) -> Option<usize> {
    name.strip_prefix(SUBDIR_PREFIX)?.parse().ok()
}

/// What one scan of a container's subdirs found ([`Container::list_subdirs`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Inventory {
    /// Each listed subdir's directory; `None` for one no writer has
    /// created, and for a broken one.
    pub(crate) subdirs: Vec<Option<String>>,
    /// The subdirs that do not resolve or could not be listed, and why,
    /// in the order the scan found them.
    pub(crate) broken: Vec<(usize, PlfsError)>,
    /// Each writer's droppings, in writer order.
    pub(crate) writers: Vec<Droppings>,
    /// Every staged copy, and whether the log it was staged for is
    /// beside it.
    pub(crate) staged: Vec<(String, bool)>,
    /// Droppings listed outside the subdir their writer's id places them
    /// in ([`Container::subdir_for`]): no reader names them there.
    pub(crate) misplaced: Vec<String>,
}

/// Which logs one writer has in its subdir.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Droppings {
    pub(crate) writer: WriterId,
    pub(crate) data: bool,
    pub(crate) index: bool,
}

impl Inventory {
    /// Writers with an index log, in writer order.
    pub(crate) fn indexed(&self) -> Vec<WriterId> {
        let indexed = self.writers.iter().filter(|d| d.index);
        indexed.map(|d| d.writer).collect()
    }
}

// ---------------------------------------------------------------------
// The container.

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
        ioplane::exists(b, &access_file(&self.canonical))
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
                path: access_file(&self.canonical),
                exclusive: true,
            },
        ];
        let mut out = ioplane::submit_retried(b, &batch).into_iter();
        ioplane::as_unit(ioplane::take(&mut out))?;
        existing_ok(ioplane::as_unit(ioplane::take(&mut out)))?;
        existing_ok(ioplane::as_unit(ioplane::take(&mut out)))
    }

    /// Ensure subdir `i` exists (directory in the canonical namespace, or
    /// shadow + metalink elsewhere) and return its physical path. Called
    /// by every writer that lands in the subdir: one `Kind` probe of the
    /// entry decides, and unless it is `NotFound` its outcome is resolved
    /// as `subdir_dir` would (a probe that still fails after its retries
    /// surfaces here).
    pub fn ensure_subdir<B: Backend>(&self, b: &B, i: usize) -> Result<String> {
        let entry = subdir_entry(&self.canonical, i);
        let probe = IoOp::Kind {
            path: entry.clone(),
        };
        let kind = ioplane::submit_one(b, probe);
        if !matches!(kind, Err(PlfsError::NotFound(_))) {
            return self.subdir_from_kind(b, i, kind);
        }
        match shadow_dir(&self.fed, &self.logical, i) {
            None => {
                let mkdir = IoOp::Mkdir {
                    path: entry.clone(),
                };
                existing_ok(ioplane::as_unit(ioplane::submit_one(b, mkdir))).map(|()| entry)
            }
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
                        let body = IoOp::Append {
                            path: entry,
                            content: Content::bytes(shadow.clone().into_bytes()),
                        };
                        ioplane::as_offset(ioplane::submit_one(b, body))?;
                        Ok(shadow)
                    }
                    // Another writer raced us to the metalink.
                    Err(PlfsError::AlreadyExists(_)) => Ok(shadow),
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Physical directory that holds subdir `i`'s droppings, resolving a
    /// metalink if the subdir is shadowed in another namespace, through
    /// the retried batch resolver; `NotFound` if no writer created it.
    fn subdir_dir<B: Backend>(&self, b: &B, i: usize) -> Result<String> {
        let probe = IoOp::Kind {
            path: subdir_entry(&self.canonical, i),
        };
        let kind = ioplane::submit_one(b, probe);
        self.subdir_from_kind(b, i, kind)
    }

    /// [`Container::subdir_dir`] once the `Kind` outcome of subdir `i`'s
    /// entry is in hand.
    fn subdir_from_kind<B: Backend>(&self, b: &B, i: usize, kind: IoOutcome) -> Result<String> {
        match self.resolve_subdirs(b, i, [kind]).pop() {
            Some(Ok(Some(dir))) => Ok(dir),
            Some(Err(e)) => Err(e),
            _ => Err(PlfsError::NotFound(subdir_entry(&self.canonical, i))),
        }
    }

    /// Resolve the physical path of **every** subdir with batched
    /// submissions: one `Kind` probe batch over all entries, then (only
    /// for metalinked subdirs) one `Size` batch and one `ReadAt` batch —
    /// three plane round-trips for the whole container instead of one to
    /// three per subdir. `None` marks a subdir no writer has created yet;
    /// the first subdir that does not resolve fails the call.
    pub fn subdirs_phys_batch<B: Backend>(&self, b: &B) -> Result<Vec<Option<String>>> {
        let kinds = self.scan(b, Vec::new());
        self.resolve_subdirs(b, 0, kinds).into_iter().collect()
    }

    /// The opening batch of every scan, submitted: `head`, then a `Kind`
    /// probe of each `subdir.<i>` entry. The caller takes `head`'s
    /// outcomes off the front and hands the rest to
    /// [`Container::resolve_subdirs`].
    pub(crate) fn scan<B: Backend>(&self, b: &B, mut head: Vec<IoOp>) -> std::vec::IntoIter<IoOutcome> {
        head.extend(
            (0..self.fed.subdirs_per_container()).map(|i| IoOp::Kind {
                path: subdir_entry(&self.canonical, i),
            }),
        );
        ioplane::submit_retried(b, &head).into_iter()
    }

    /// Each subdir from `first` on from the outcome of its probe in
    /// `kinds`: its directory, `None` if no writer created it, or why it
    /// does not resolve. Metalinked subdirs cost one `Size` and one
    /// `ReadAt` batch.
    pub(crate) fn resolve_subdirs<B: Backend>(
        &self,
        b: &B,
        first: usize,
        kinds: impl IntoIterator<Item = IoOutcome>,
    ) -> Vec<Result<Option<String>>> {
        let entry = |k: usize| subdir_entry(&self.canonical, first + k);
        let mut resolved: Vec<Result<Option<String>>> = Vec::new();
        let mut links: Vec<usize> = Vec::new();
        for (k, outcome) in kinds.into_iter().enumerate() {
            resolved.push(match ioplane::as_kind(outcome) {
                Ok(NodeKind::Dir) => Ok(Some(entry(k))),
                Ok(NodeKind::File) => {
                    links.push(k);
                    Ok(None)
                }
                Err(PlfsError::NotFound(_)) => Ok(None),
                Err(e) => Err(e),
            });
        }
        let size_ops: Vec<IoOp> = links.iter().map(|&k| IoOp::Size { path: entry(k) }).collect();
        let mut read_links = Vec::with_capacity(links.len());
        let mut read_ops = Vec::with_capacity(links.len());
        for (&k, outcome) in links.iter().zip(ioplane::submit_retried(b, &size_ops)) {
            match ioplane::as_size(outcome) {
                Ok(len) => {
                    read_links.push(k);
                    read_ops.push(IoOp::ReadAt {
                        path: entry(k),
                        offset: 0,
                        len,
                    });
                }
                Err(e) => resolved[k] = Err(e),
            }
        }
        for (&k, outcome) in read_links.iter().zip(ioplane::submit_retried(b, &read_ops)) {
            resolved[k] = ioplane::as_data(outcome)
                .and_then(|bytes| self.metalink_target(first + k, bytes))
                .map(Some);
        }
        resolved
    }

    /// The directory `subdir.<i>`'s metalink (holding `bytes`) names, if
    /// it can be that subdir's shadow: the path the federation hashes it
    /// to, or another path ending in `subdir.<i>` that is no prefix of
    /// that one — the old name's shadow, which a rename that died before
    /// moving it leaves behind. Anything else, a torn metalink (a prefix
    /// of the hashed path) included, is corrupt.
    fn metalink_target(&self, i: usize, bytes: Content) -> Result<String> {
        let hashed = shadow_dir(&self.fed, &self.logical, i);
        String::from_utf8(bytes.materialize())
            .ok()
            .filter(|t| match hashed.as_deref() {
                Some(h) if h == t => true,
                // `subdir_entry("", i)` is `/subdir.<i>`.
                h => {
                    t.ends_with(&subdir_entry("", i))
                        && !h.is_some_and(|h| h.starts_with(t.as_str()))
                }
            })
            .ok_or_else(|| {
                PlfsError::CorruptContainer(format!(
                    "metalink {} names no shadow of it",
                    subdir_entry(&self.canonical, i)
                ))
            })
    }

    /// As fsck must see `subdirs` (a [`Container::resolve_subdirs`]
    /// result): where subdirs spread over namespaces, a missing
    /// `subdir.<i>` whose hashed shadow directory exists is broken too — a
    /// first write or a rename died between the shadow and its metalink.
    /// That costs one `Kind` batch over such shadows, and nothing in a
    /// single namespace.
    pub(crate) fn flag_unlinked_shadows<B: Backend>(
        &self,
        b: &B,
        subdirs: &mut [Result<Option<String>>],
    ) {
        let missing: Vec<usize> = (0..subdirs.len())
            .filter(|&i| matches!(subdirs[i], Ok(None)))
            .collect();
        for (i, shadow) in self.live_shadows(b, &missing) {
            subdirs[i] = Err(PlfsError::CorruptContainer(format!(
                "{} has no metalink to its shadow {shadow}",
                subdir_entry(&self.canonical, i)
            )));
        }
    }

    /// Those of `subdirs` whose hashed shadow directory exists, with it:
    /// one `Kind` batch over the shadows.
    fn live_shadows<B: Backend>(&self, b: &B, subdirs: &[usize]) -> Vec<(usize, String)> {
        let shadowed: Vec<(usize, String)> = (subdirs.iter())
            .filter_map(|&i| Some((i, shadow_dir(&self.fed, &self.logical, i)?)))
            .collect();
        let probes: Vec<IoOp> = (shadowed.iter())
            .map(|(_, shadow)| IoOp::Kind {
                path: shadow.clone(),
            })
            .collect();
        let kinds = ioplane::submit_retried(b, &probes).into_iter();
        let live = shadowed.into_iter().zip(kinds);
        live.filter(|(_, kind)| matches!(kind, Ok(ioplane::IoValue::Kind(NodeKind::Dir))))
            .map(|(shadow, _)| shadow)
            .collect()
    }

    /// One `Readdir` batch over every subdir of `subdirs` that resolved,
    /// and the one parser of what the listings hold: each writer's data
    /// and index logs, staged copies, droppings outside their writer's
    /// subdir, and strays — names the layout does not make, which are
    /// skipped. A subdir that did not resolve, or whose listing fails, is
    /// broken.
    pub(crate) fn list_subdirs<B: Backend>(
        &self,
        b: &B,
        subdirs: Vec<Result<Option<String>>>,
    ) -> Inventory {
        let mut inv = Inventory::default();
        for (i, subdir) in subdirs.into_iter().enumerate() {
            inv.subdirs.push(subdir.unwrap_or_else(|e| {
                inv.broken.push((i, e));
                None
            }));
        }
        let (listed, ops): (Vec<usize>, Vec<IoOp>) = (inv.subdirs.iter().enumerate())
            .filter_map(|(i, dir)| Some((i, IoOp::Readdir { path: dir.clone()? })))
            .unzip();
        let listings = listed.into_iter().zip(&ops).zip(ioplane::submit_retried(b, &ops));
        for ((subdir, op), outcome) in listings {
            let names = match ioplane::as_names(outcome) {
                Ok(names) => names,
                Err(e) => {
                    inv.subdirs[subdir] = None;
                    inv.broken.push((subdir, e));
                    continue;
                }
            };
            for name in &names {
                let id = |prefix| name.strip_prefix(prefix)?.parse().ok();
                let (data, index) = (id(DATA_PREFIX), id(INDEX_PREFIX));
                if let Some(log) = staged_log(name) {
                    let beside = names.iter().any(|n| n == log);
                    inv.staged.push((join(op.path(), name), beside));
                } else if let Some(writer) = data.or(index) {
                    if self.subdir_for(writer) != subdir {
                        inv.misplaced.push(join(op.path(), name));
                        continue;
                    }
                    inv.writers.push(Droppings {
                        writer,
                        data: data.is_some(),
                        index: index.is_some(),
                    });
                }
            }
        }
        // One entry per writer: its data and index log listed together.
        inv.writers.sort_unstable_by_key(|d| d.writer);
        inv.writers.dedup_by(|next, kept| {
            let same = next.writer == kept.writer;
            if same {
                kept.data |= next.data;
                kept.index |= next.index;
            }
            same
        });
        inv
    }

    /// The rest of a scan whose subdirs must all resolve and list, once
    /// their probes' outcomes are in hand: the first that does not fails
    /// the call, and one that does not resolve fails it before the
    /// listing. So does a misplaced dropping.
    pub(crate) fn inventory<B: Backend>(
        &self,
        b: &B,
        kinds: impl IntoIterator<Item = IoOutcome>,
    ) -> Result<Inventory> {
        let subdirs = self.resolve_subdirs(b, 0, kinds);
        if let Some(Err(e)) = subdirs.iter().find(|s| s.is_err()) {
            return Err(e.clone());
        }
        let inventory = self.list_subdirs(b, subdirs);
        if let Some((_, e)) = inventory.broken.first() {
            return Err(e.clone());
        }
        match inventory.misplaced.first() {
            Some(path) => Err(PlfsError::CorruptContainer(format!("{path} is outside its subdir"))),
            None => Ok(inventory),
        }
    }

    /// Rebuild each of the `broken` subdirs from the static hash: point its
    /// metalink at the shadow directory the federation places it in when
    /// that exists, and drop the entry when it does not — an unlink that
    /// died part-way took the shadow, and nothing reachable went with the
    /// entry. One `Kind` batch over the shadows, one `Unlink` batch, then
    /// [`Container::point_metalinks`].
    pub(crate) fn rebuild_subdirs<B: Backend>(&self, b: &B, broken: &[usize]) -> Result<()> {
        let live: Vec<usize> = (self.live_shadows(b, broken).into_iter())
            .map(|(i, _)| i)
            .collect();
        let drops: Vec<IoOp> = broken
            .iter()
            .filter(|i| !live.contains(i))
            .map(|&i| IoOp::Unlink {
                path: subdir_entry(&self.canonical, i),
            })
            .collect();
        for outcome in ioplane::submit_retried(b, &drops) {
            absent_as_none(ioplane::as_unit(outcome))?;
        }
        self.point_metalinks(b, &live)
    }

    /// Point each of `subdirs`' metalinks (all of them shadowed) at the
    /// shadow directory the federation hashes it to, replacing whatever
    /// the entry held: one batch of truncating creates, then — only once
    /// every create landed — one batch of appends.
    pub(crate) fn point_metalinks<B: Backend>(&self, b: &B, subdirs: &[usize]) -> Result<()> {
        let creates: Vec<IoOp> = subdirs
            .iter()
            .map(|&i| IoOp::Create {
                path: subdir_entry(&self.canonical, i),
                exclusive: false,
            })
            .collect();
        for outcome in ioplane::submit_retried(b, &creates) {
            ioplane::as_unit(outcome)?;
        }
        let appends: Vec<IoOp> = subdirs
            .iter()
            .map(|&i| IoOp::Append {
                path: subdir_entry(&self.canonical, i),
                content: Content::bytes(
                    shadow_dir(&self.fed, &self.logical, i)
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
    /// that loses them. Three batches: stage every new copy at its
    /// [`staged_copy`] (a stale copy unlinked, an exclusive create, the
    /// append), then — only once every copy is whole — unlink the
    /// originals, then rename in the copies whose original's unlink
    /// landed. A crash leaves, per file, the original, its staged copy, or
    /// both; fsck keeps the original when it is there and promotes the
    /// copy when it is not (DESIGN.md §5c). Every rewrite of a log in
    /// place — the writer's realign, truncate, fsck's trims — goes through
    /// here.
    pub(crate) fn rewrite_staged<B: Backend>(b: &B, files: &[(String, Content)]) -> Result<()> {
        let mut stage = Vec::with_capacity(files.len() * 3);
        for (path, content) in files {
            stage.push(IoOp::Unlink {
                path: staged_copy(path),
            });
            stage.push(IoOp::Create {
                path: staged_copy(path),
                exclusive: true,
            });
            if !content.is_empty() {
                stage.push(IoOp::Append {
                    path: staged_copy(path),
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
                    from: staged_copy(path),
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
    fn writer_dir<'a>(&self, resolved: &'a [Option<String>], writer: WriterId) -> Result<&'a String> {
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

    /// `writer`'s data log among subdirs already resolved.
    pub(crate) fn data_log_at(&self, resolved: &[Option<String>], writer: WriterId) -> Result<String> {
        Ok(data_log_in(self.writer_dir(resolved, writer)?, writer))
    }

    /// `writer`'s index log among subdirs already resolved.
    pub(crate) fn index_log_at(&self, resolved: &[Option<String>], writer: WriterId) -> Result<String> {
        Ok(index_log_in(self.writer_dir(resolved, writer)?, writer))
    }

    /// Path of `writer`'s data log.
    pub fn data_log<B: Backend>(&self, b: &B, writer: WriterId) -> Result<String> {
        let dir = self.subdir_dir(b, self.subdir_for(writer))?;
        Ok(data_log_in(&dir, writer))
    }

    /// Path of `writer`'s index log.
    pub fn index_log<B: Backend>(&self, b: &B, writer: WriterId) -> Result<String> {
        let dir = self.subdir_dir(b, self.subdir_for(writer))?;
        Ok(index_log_in(&dir, writer))
    }

    /// Mark `writer` as having the file open for write (creating the
    /// openhosts directory on first use). One two-op batch: the mkdir
    /// tolerates `AlreadyExists`, the host-entry create follows in order.
    pub(crate) fn register_open<B: Backend>(&self, b: &B, writer: WriterId) -> Result<()> {
        let batch = [
            IoOp::Mkdir {
                path: openhosts_dir(&self.canonical),
            },
            IoOp::Create {
                path: host_entry(&self.canonical, writer),
                exclusive: false,
            },
        ];
        let mut out = ioplane::submit_retried(b, &batch).into_iter();
        existing_ok(ioplane::as_unit(ioplane::take(&mut out)))?;
        ioplane::as_unit(ioplane::take(&mut out))
    }

    /// What `stat` reads before any index, as one batch: the access-file
    /// probe, then the listings [`Container::cached_size_in`] and
    /// [`Container::open_writers_in`] take.
    pub(crate) fn stat_ops(&self) -> [IoOp; 3] {
        [
            IoOp::Kind {
                path: access_file(&self.canonical),
            },
            IoOp::Readdir {
                path: metadir(&self.canonical),
            },
            IoOp::Readdir {
                path: openhosts_dir(&self.canonical),
            },
        ]
    }

    /// `(cached size, open writers)` read as `Plfs::stat` reads them:
    /// [`Container::stat_ops`] through [`Container::cached_size_in`] and
    /// [`Container::open_writers_in`].
    #[cfg(test)]
    pub(crate) fn stat_listings<B: Backend>(&self, b: &B) -> Result<(Option<u64>, Vec<WriterId>)> {
        let mut out = ioplane::submit_retried(b, &self.stat_ops()).into_iter();
        let _access = ioplane::take(&mut out);
        let cached = Self::cached_size_in(ioplane::take(&mut out))?;
        Ok((cached, Self::open_writers_in(ioplane::take(&mut out))?))
    }

    /// Writers that currently have the file open for write, from the
    /// outcome of the openhosts `Readdir`.
    pub(crate) fn open_writers_in(listing: IoOutcome) -> Result<Vec<WriterId>> {
        let names = absent_as_none(ioplane::as_names(listing))?.unwrap_or_default();
        Ok(names
            .iter()
            .filter_map(|n| n.strip_prefix(HOST_PREFIX))
            .filter_map(|s| s.parse().ok())
            .collect())
    }

    /// Record a closed writer's view of logical EOF in the metadir. These
    /// cached records make `stat` cheap: no index aggregation needed.
    pub(crate) fn record_meta<B: Backend>(
        &self,
        b: &B,
        writer: WriterId,
        eof: u64,
        bytes: u64,
    ) -> Result<()> {
        let batch = self.meta_ops(writer, eof, bytes);
        Self::meta_recorded(&mut ioplane::submit_retried(b, &batch).into_iter())
    }

    /// The metadir's mkdir (callers tolerate `AlreadyExists`) and
    /// `writer`'s record, encoded in its name like real PLFS:
    /// `meta.<eof>.<bytes>.<writer>`.
    fn meta_ops(&self, writer: WriterId, eof: u64, bytes: u64) -> [IoOp; 2] {
        let record = meta_record(&self.canonical, format_args!("{eof}.{bytes}.{writer}"));
        [
            IoOp::Mkdir {
                path: metadir(&self.canonical),
            },
            IoOp::Create {
                path: record,
                exclusive: false,
            },
        ]
    }

    /// Check the outcomes of [`Container::meta_ops`].
    fn meta_recorded(out: &mut std::vec::IntoIter<IoOutcome>) -> Result<()> {
        existing_ok(ioplane::as_unit(ioplane::take(out)))?;
        ioplane::as_unit(ioplane::take(out))
    }

    /// Replace every metadir record with one for `eof` and `bytes` (writer
    /// id 0 by convention), once truncate or repair has changed what the
    /// index logs resolve to — so cached stat tells the truth again.
    pub(crate) fn reset_metadir<B: Backend>(&self, b: &B, eof: u64, bytes: u64) -> Result<()> {
        let dir = metadir(&self.canonical);
        let listing = IoOp::Readdir { path: dir.clone() };
        match ioplane::as_names(ioplane::submit_one(b, listing)) {
            Ok(names) => {
                let stale: Vec<IoOp> = names
                    .iter()
                    .filter(|n| n.starts_with(META_PREFIX))
                    .map(|n| IoOp::Unlink {
                        path: join(&dir, n),
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
    pub(crate) fn finish_close<B: Backend>(
        &self,
        b: &B,
        writer: WriterId,
        eof: u64,
        bytes: u64,
    ) -> Result<()> {
        let [mkdir, record] = self.meta_ops(writer, eof, bytes);
        let unlink = IoOp::Unlink {
            path: host_entry(&self.canonical, writer),
        };
        let mut out = ioplane::submit_retried(b, &[mkdir, record, unlink]).into_iter();
        Self::meta_recorded(&mut out)?;
        absent_as_none(ioplane::as_unit(ioplane::take(&mut out))).map(|_| ())
    }

    /// Cheap logical size from the outcome of the metadir `Readdir`: max
    /// EOF over closed writers' records. `None` if no writer has closed
    /// yet (caller must fall back to index aggregation).
    pub(crate) fn cached_size_in(listing: IoOutcome) -> Result<Option<u64>> {
        let names = absent_as_none(ioplane::as_names(listing))?.unwrap_or_default();
        let mut eof: Option<u64> = None;
        for n in &names {
            let Some(record) = n.strip_prefix(META_PREFIX) else {
                continue;
            };
            if let Some(Ok(e)) = record.split('.').next().map(str::parse::<u64>) {
                eof = Some(eof.map_or(e, |cur| cur.max(e)));
            }
        }
        Ok(eof)
    }

    /// All writer ids that have an index log in this container, across
    /// all subdirs, sorted: one scan — the subdir probes and one `Readdir`
    /// batch over the resolved dirs (absent subdirs simply hold no
    /// droppings — lazy creation).
    pub fn list_writers<B: Backend>(&self, b: &B) -> Result<Vec<WriterId>> {
        Ok(self.inventory(b, self.scan(b, Vec::new()))?.indexed())
    }

    /// Read and decode one writer's index log. Transient failures are
    /// retried with bounded backoff by the plane (index reads sit on the
    /// read-open critical path, where a dropped RPC should not fail the
    /// open).
    pub fn read_index_log<B: Backend>(&self, b: &B, writer: WriterId) -> Result<Vec<IndexEntry>> {
        let path = [self.index_log(b, writer)?];
        let logs = Self::read_logs_sized(b, &path, &Self::log_sizes(b, &path)?, 1)?;
        Ok(logs.iter().flat_map(|l| log::expand(l)).collect())
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
    /// paid once per aggregation, not once per writer. One `Size` batch,
    /// then at most `max_threads` threads share the reads; the batches
    /// submitted are the same at every thread count.
    pub fn read_index_runs<B: Backend>(
        &self,
        b: &B,
        resolved: &[Option<String>],
        writers: &[WriterId],
        max_threads: usize,
    ) -> Result<Vec<Vec<IndexEntry>>> {
        let paths = writers
            .iter()
            .map(|&w| self.index_log_at(resolved, w))
            .collect::<Result<Vec<_>>>()?;
        let sizes = Self::log_sizes(b, &paths)?;
        let logs = Self::read_logs_sized(b, &paths, &sizes, max_threads)?;
        Ok(logs.iter().map(|l| log::expand(l)).collect())
    }

    /// Current size of every path: one `Size` batch on the calling thread.
    pub(crate) fn log_sizes<B: Backend>(b: &B, paths: &[String]) -> Result<Vec<u64>> {
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
    /// reopens `index.aggregate` under the caller's span through a
    /// telemetry hand-off, so what it submits keeps its ancestry and
    /// records where the caller records.
    pub(crate) fn read_logs_sized<B: Backend>(
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
        let handoff = &telemetry::handoff();
        #[expect(clippy::expect_used, reason = "a panicked worker must propagate, not masquerade as an I/O error")]
        let shards: Vec<Result<Vec<Vec<LogRecord>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .chunks(chunks.len().div_ceil(threads))
                .map(|share| {
                    scope.spawn(move || {
                        let _span = handoff.span(telemetry::SPAN_INDEX_AGGREGATE);
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
        flattened_index(&self.canonical)
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
        let path = self.flattened_path();
        absent_as_none(ioplane::as_unit(ioplane::submit_one(b, IoOp::Unlink { path }))).map(|_| ())
    }

    /// The flattened index read whole, as its compacted resolution: the
    /// reference fsck's staleness check compares (readers open the file
    /// bounded, [`IndexProbe::load`]). `None` when absent; a file failing
    /// [`ondisk::verify_deep`] is `CorruptContainer` with the reason.
    pub(crate) fn read_flattened<B: Backend>(&self, b: &B) -> Result<Option<GlobalIndex>> {
        let path = self.flattened_path();
        let size = ioplane::submit_one(b, IoOp::Size { path: path.clone() });
        let Some(len) = absent_as_none(ioplane::as_size(size))? else {
            return Ok(None);
        };
        let read = IoOp::ReadAt {
            path,
            offset: 0,
            len,
        };
        let data = ioplane::as_data(ioplane::submit_one(b, read))?;
        let bytes = data.as_bytes();
        ondisk::verify_deep(&bytes)?;
        let (_, records, _) = ondisk::parse_file(&bytes)?;
        let runs = [IndexEntry::decode_all(records)?];
        index::check_extents(&self.flattened_path(), &runs[0])?;
        Ok(Some(GlobalIndex::from_runs(&runs, true)))
    }

    /// Physical path of the generation file of this container's canonical
    /// namespace (see [`IndexStamp`]).
    pub(crate) fn generation_path(&self) -> String {
        generation_file(&self.fed, &self.logical)
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
        outcomes: &mut std::vec::IntoIter<IoOutcome>,
    ) -> Result<()> {
        existing_ok(ioplane::as_unit(ioplane::take(outcomes)))?;
        ioplane::as_offset(ioplane::take(outcomes)).map(|_| ())
    }

    /// Advance this container's namespace generation on its own (one
    /// batch), for destructive paths with no batch of their own to ride.
    pub(crate) fn bump_generation<B: Backend>(&self, b: &B) -> Result<()> {
        let mut out = ioplane::submit_retried(b, &self.generation_bump_ops()).into_iter();
        Self::generation_bumped(&mut out)
    }

    /// What a mount's read-open starts with: one batch carrying the
    /// access-file probe, the namespace generation, the flattened index's
    /// size and the subdir probes, then the writer listing and one `Size`
    /// batch over the index logs — no log is read. `None` when there is
    /// no container here. The returned probe holds the `IndexStamp` to
    /// validate a cached index against and can [`IndexProbe::load`] the
    /// index that stamp describes.
    pub fn probe_index<B: Backend>(&self, b: &B) -> Result<Option<IndexProbe>> {
        let flattened_path = self.flattened_path();
        let head = vec![
            IoOp::Kind {
                path: access_file(&self.canonical),
            },
            IoOp::Size {
                path: self.generation_path(),
            },
            IoOp::Size {
                path: flattened_path.clone(),
            },
        ];
        let mut out = self.scan(b, head);
        // Only a definitive `NotFound` means "no container", as for
        // [`Backend::exists`].
        if let Err(PlfsError::NotFound(_)) = ioplane::as_kind(ioplane::take(&mut out)) {
            return Ok(None);
        }
        let generation = absent_as_none(ioplane::as_size(ioplane::take(&mut out)))?.unwrap_or(0);
        let flattened = absent_as_none(ioplane::as_size(ioplane::take(&mut out)))?;
        let inventory = self.inventory(b, out)?;
        let writers = inventory.indexed();
        let log_paths = writers
            .iter()
            .map(|&w| self.index_log_at(&inventory.subdirs, w))
            .collect::<Result<Vec<_>>>()?;
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
    /// own — one per foreign namespace that one of its subdirs hashes to,
    /// in namespace order (callers tolerate `NotFound` per op); empty
    /// without subdir spreading.
    pub(crate) fn shadow_removal_ops(&self) -> Vec<IoOp> {
        let (fed, logical) = (&self.fed, &self.logical);
        let home = fed.container_namespace(logical);
        let mut foreign: Vec<usize> = (0..fed.subdirs_per_container())
            .map(|i| fed.subdir_namespace(logical, i))
            .filter(|&ns| ns != home)
            .collect();
        foreign.sort_unstable();
        foreign.dedup();
        let root = |ns: usize| format!("{}/{SHADOW_ROOT}{logical}", fed.namespaces()[ns]);
        foreign.into_iter().map(|ns| IoOp::RemoveAll { path: root(ns) }).collect()
    }
}

/// `NotFound` as `None`.
pub(crate) fn absent_as_none<T>(r: Result<T>) -> Result<Option<T>> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(PlfsError::NotFound(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// `r`, with `AlreadyExists` as success: what it creates is there.
pub(crate) fn existing_ok(r: Result<()>) -> Result<()> {
    match r {
        Err(PlfsError::AlreadyExists(_)) => Ok(()),
        r => r,
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
/// paths appends one byte to the namespace's [`generation_file`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IndexStamp {
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

/// An `IndexStamp` and what finishing the acquisition it began needs.
#[derive(Debug)]
pub struct IndexProbe {
    stamp: IndexStamp,
    flattened_path: String,
    log_paths: Vec<String>,
}

impl IndexProbe {
    /// The stamp these batches fetched.
    pub(crate) fn stamp(&self) -> &IndexStamp {
        &self.stamp
    }

    /// Each stamped writer's data log: beside its index log, whose subdir
    /// these batches already resolved.
    pub(crate) fn data_logs(&self) -> impl Iterator<Item = (WriterId, String)> + '_ {
        let logs = self.stamp.logs.iter().zip(&self.log_paths);
        logs.map(|(&(w, _), index_log)| (w, data_log_in(&parent(index_log), w)))
    }

    /// The index the stamp describes, byte for byte: the flattened index
    /// at the size stamped, opened bounded through `cache` when it parses
    /// (`OnDiskIndex::open_sized`: footer and fences, no `Size`), else
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
    /// progressions (`GlobalIndex::from_logs`). Compaction happens
    /// only here, at the terminal aggregation, never to partial indices
    /// that may still be merged (DESIGN.md §5b).
    pub fn aggregate<B: Backend>(&self, b: &B) -> Result<GlobalIndex> {
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
    fn ensuring_an_existing_subdir_probes_it_once() {
        use crate::backend::TracingBackend;
        let fed = Federation::new(vec!["/vol0".into(), "/vol1".into()], 4, true, true);
        let b = TracingBackend::new(MemFs::new());
        let c = Container::new("/f", &fed);
        c.create(&b).unwrap();
        let mut shadowed = [false; 4];
        for (i, shadowed) in shadowed.iter_mut().enumerate() {
            let first = c.ensure_subdir(&b, i).unwrap();
            *shadowed = !first.starts_with(c.canonical_path());
            b.take_trace();
            assert_eq!(c.ensure_subdir(&b, i).unwrap(), first);
            let trace = b.take_trace();
            let probes = trace
                .iter()
                .filter(|op| matches!(op, IoOp::Kind { .. }))
                .count();
            // A directory is the probe alone; a metalink adds its body's
            // `Size` and `ReadAt`.
            assert_eq!(probes, 1, "subdir {i}: {trace:?}");
            assert_eq!(trace.len(), if *shadowed { 3 } else { 1 });
        }
        assert!(shadowed.contains(&true) && shadowed.contains(&false));
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
    fn shadow_dirs_are_per_subdir_and_sit_in_their_shadow_containers() {
        let fed = Federation::new((0..4).map(|i| format!("/vol{i}")).collect(), 16, true, true);
        let logical = "/dir/ckpt";
        let mut parents = std::collections::BTreeSet::new();
        for i in 0..16 {
            let shadow = shadow_dir(&fed, logical, i);
            if fed.subdir_namespace(logical, i) == fed.container_namespace(logical) {
                assert!(shadow.is_none());
            } else {
                let s = shadow.unwrap();
                assert!(s.ends_with(&format!("/.plfs_shadow/dir/ckpt/subdir.{i}")), "{s}");
                parents.insert(parent(&s));
            }
        }
        let roots = |fed: &Federation| {
            let ops = Container::new(logical, fed).shadow_removal_ops();
            ops.iter().map(|op| op.path().to_string()).collect::<Vec<_>>()
        };
        let got = roots(&fed);
        assert_eq!(got.len(), parents.len(), "one path per foreign namespace");
        assert_eq!(got.into_iter().collect::<std::collections::BTreeSet<_>>(), parents);
        // No subdir spreading, no shadows.
        assert!(roots(&Federation::new(vec!["/a".into(), "/b".into()], 8, true, false)).is_empty());
        assert_eq!(shadow_dir(&Federation::single("/ns", 4), logical, 3), None);
    }

    #[test]
    fn a_scan_sorts_listings_into_droppings_copies_and_strays() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        c.create(&b).unwrap();
        let dir = c.ensure_subdir(&b, 3).unwrap();
        for name in ["dropping.data.7", "dropping.index.7", "dropping.index.7.realign"] {
            b.create(&join(&dir, name), true).unwrap();
        }
        for stray in ["dropping.index.3", "dropping.data.x", "notes"] {
            b.create(&join(&dir, stray), true).unwrap();
        }
        let inv = c.inventory(&b, c.scan(&b, Vec::new())).unwrap();
        assert_eq!(inv.indexed(), [3, 7]);
        assert!(inv.writers[1].data && !inv.writers[0].data);
        assert_eq!(inv.staged, [(staged_copy(&index_log_in(&dir, 7)), true)]);
        assert_eq!(c.list_writers(&b).unwrap(), [3, 7]);
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
        assert_eq!(c.stat_listings(&b).unwrap().1, vec![3, 9]);
        c.finish_close(&b, 3, 0, 0).unwrap();
        assert_eq!(c.stat_listings(&b).unwrap().1, vec![9]);
        // Closing twice is fine.
        c.finish_close(&b, 3, 0, 0).unwrap();
    }

    #[test]
    fn metadir_caches_size() {
        let b = MemFs::new();
        let c = Container::new("/f", &fed1());
        c.create(&b).unwrap();
        assert_eq!(c.stat_listings(&b).unwrap().0, None);
        c.record_meta(&b, 0, 1000, 500).unwrap();
        c.record_meta(&b, 1, 4000, 500).unwrap();
        c.record_meta(&b, 2, 2000, 500).unwrap();
        assert_eq!(c.stat_listings(&b).unwrap().0, Some(4000));
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
        put_log(&b, &c, 6, &[e]);
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

    /// Write `entries` as writer `w`'s index log, creating its subdir.
    fn put_log(b: &MemFs, c: &Container, w: u64, entries: &[IndexEntry]) {
        c.ensure_subdir(b, c.subdir_for(w)).unwrap();
        let ipath = c.index_log(b, w).unwrap();
        b.create(&ipath, true).unwrap();
        b.append(&ipath, &Content::bytes(IndexEntry::encode_all(entries))).unwrap();
    }

    /// Populate `writers` index logs with a strided pattern.
    fn seed_index_logs(b: &MemFs, c: &Container, writers: u64, blocks: u64) {
        for w in 0..writers {
            let entries: Vec<IndexEntry> = (0..blocks)
                .map(|blk| IndexEntry {
                    logical_offset: (blk * writers + w) * 256,
                    length: 256,
                    physical_offset: blk * 256,
                    writer: w,
                    timestamp: 1 + (blk % 3),
                })
                .collect();
            put_log(b, c, w, &entries);
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
        let expect = aggregate(&b, &c, 1);
        assert_eq!(expect.span_count(), 6);
        let expect = GlobalIndex::from_runs(&[expect.to_entries()], true);
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
        let whole = GlobalIndex::from_runs(&[aggregate(&b, &c, 1).to_entries()], true);
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
            put_log(&b, &c, w, log);
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
        // Merging and inserting expand it.
        let merged = GlobalIndex::from_runs(&[group.to_entries(), vec![logs[0][0]]], false);
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
        assert_eq!(
            GlobalIndex::merge_all([group.clone(), GlobalIndex::new()]),
            flat
        );
    }

    /// Figure-4 read-open shape: 16 writers × 20 strided 4 KiB blocks into
    /// one 4-subdir container, written before recording starts.
    fn build_fig4(backend: &Arc<MemFs>, cont: &Container) {
        use crate::writer::{IndexPolicy, WriteHandle};
        const WRITERS: u64 = 16;
        const BLOCK: u64 = 4096;
        for w in 0..WRITERS {
            let mut h = WriteHandle::open(
                Arc::clone(backend),
                cont.clone(),
                w,
                IndexPolicy::WriteClose,
            )
            .unwrap();
            for k in 0..20 {
                h.write(
                    (k * WRITERS + w) * BLOCK,
                    &Content::synthetic(w, BLOCK),
                    k + 1,
                )
                .unwrap();
            }
            h.close(99).unwrap();
        }
    }

    /// Count spans named `name` anywhere in the forest.
    fn count_named(nodes: &[telemetry::SpanNode], name: &str) -> usize {
        nodes
            .iter()
            .map(|n| usize::from(n.name == name) + count_named(&n.children, name))
            .sum()
    }

    /// A mount's read-open of a fig-4 container records a `read.open` root
    /// whose subtree holds the index-aggregation fan-out, with the I/O plane
    /// underneath.
    #[test]
    fn fig4_read_open_span_tree() {
        use crate::telemetry::{SPAN_INDEX_AGGREGATE, SPAN_IOPLANE_SUBMIT, SPAN_READ_OPEN};
        let backend = Arc::new(MemFs::new());
        let federation = Federation::single("/panfs", 4);
        build_fig4(&backend, &Container::new("/fig4/ckpt", &federation));
        let config = crate::PlfsConfig {
            federation,
            index_policy: crate::writer::IndexPolicy::WriteClose,
        };
        let fs = crate::Plfs::new(backend, config).unwrap();
        let (opened, snap) = telemetry::capture(|| fs.open_read("/fig4/ckpt"));
        opened.unwrap();

        // Exactly one span tree: the read.open root on the opening thread.
        assert_eq!(snap.spans.len(), 1);
        let open = &snap.spans[0];
        assert_eq!(open.name, SPAN_READ_OPEN);
        assert_eq!(count_named(&snap.spans, SPAN_READ_OPEN), 1);

        // index.aggregate runs inside the open.
        let agg = open
            .children
            .iter()
            .find(|n| n.name == SPAN_INDEX_AGGREGATE)
            .expect("index.aggregate must be a child of read.open");
        assert!(agg.dur_ns <= open.dur_ns, "open covers aggregation");
        assert!(
            agg.start_ns >= open.start_ns,
            "aggregation starts inside the open"
        );

        // Subdir listings and index-log reads all go through submit — on
        // the opening thread or under a shard thread's nested
        // `index.aggregate` — and every one of them is in the tree.
        assert!(
            count_named(&snap.spans, SPAN_IOPLANE_SUBMIT) > 0,
            "read-open must hit the I/O plane"
        );
        assert_eq!(
            snap.span_stats[SPAN_IOPLANE_SUBMIT].count as usize,
            count_named(&snap.spans, SPAN_IOPLANE_SUBMIT)
        );
        assert_eq!(
            snap.counters[telemetry::CTR_IOPLANE_BATCHES],
            snap.span_stats[SPAN_IOPLANE_SUBMIT].count
        );

        // And the rollup agrees with the raw records.
        let stat = &snap.span_stats[SPAN_READ_OPEN];
        assert_eq!(stat.count, 1);
        assert_eq!(stat.max_ns, open.dur_ns);
    }

    /// Cross-thread ancestry that holds on one core: 16 index logs are four
    /// read slices, so a 4-thread aggregation runs four shard threads
    /// whatever the core count, and every `index.aggregate` and
    /// `ioplane.submit` they record nests under the caller's
    /// `index.aggregate` — no orphan root.
    #[test]
    fn fig4_parallel_aggregation_keeps_cross_thread_ancestry() {
        use crate::telemetry::{SPAN_INDEX_AGGREGATE, SPAN_IOPLANE_SUBMIT};
        let backend = Arc::new(MemFs::new());
        let cont = Container::new("/fig4/ckpt", &Federation::single("/panfs", 4));
        build_fig4(&backend, &cont);
        let resolved = cont.subdirs_phys_batch(&backend).unwrap();
        let writers = cont.list_writers(&backend).unwrap();
        let (aggregated, snap) = telemetry::capture(|| {
            let _caller = telemetry::span(SPAN_INDEX_AGGREGATE);
            cont.read_index_runs(&backend, &resolved, &writers, 4)
        });
        aggregated.unwrap();

        assert_eq!(snap.spans.len(), 1, "one caller root: {:?}", snap.spans);
        let root = &snap.spans[..1];
        assert_eq!(root[0].name, SPAN_INDEX_AGGREGATE);
        let shards = root[0]
            .children
            .iter()
            .filter(|n| n.name == SPAN_INDEX_AGGREGATE)
            .count();
        assert_eq!(shards, 4, "one nested index.aggregate per shard thread");
        assert_eq!(count_named(root, SPAN_INDEX_AGGREGATE), 5);
        // Each shard thread submits its one 4-log slice, nested under it.
        for shard in root[0]
            .children
            .iter()
            .filter(|n| n.name == SPAN_INDEX_AGGREGATE)
        {
            assert_eq!(count_named(&shard.children, SPAN_IOPLANE_SUBMIT), 1);
        }
        assert_eq!(
            snap.span_stats[SPAN_IOPLANE_SUBMIT].count as usize,
            count_named(root, SPAN_IOPLANE_SUBMIT)
        );
        // One `Size` per log on the caller, then one `ReadAt` per log: 20
        // records each.
        let c = |name| snap.counters[name];
        assert_eq!(c(telemetry::CTR_IOPLANE_BATCHES), 5);
        assert_eq!(c(telemetry::CTR_IOPLANE_OPS), 32);
        assert_eq!(
            c(telemetry::CTR_IOPLANE_BYTES_READ),
            16 * 20 * index::INDEX_RECORD_BYTES
        );
    }
}

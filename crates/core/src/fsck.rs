//! Container checking and repair — the `plfs_check`/`plfs_map` style
//! tooling an operator needs when a job dies mid-checkpoint.
//!
//! A PLFS container is only as good as its index logs: a writer killed
//! between appending data and flushing its index leaves a data log longer
//! than its index accounts for (harmless — the tail bytes were never
//! acknowledged), while a writer killed mid-index-append leaves a
//! truncated final record (repairable — drop the partial record). This
//! module detects:
//!
//! * missing/invalid container marker;
//! * subdirs that do not resolve: a metalink that is torn or dangles,
//!   or — where subdirs spread over namespaces — a missing metalink
//!   beside the shadow directory the federation hashes it to;
//! * index logs whose length is not a whole number of records;
//! * index entries pointing past the end of their data log;
//! * orphan data logs (no matching index log) and orphan index logs;
//! * droppings outside the subdir their writer's id places them in;
//! * a flattened index that disagrees with per-writer logs;
//! * stale `openhosts` entries left by dead writers (fsck runs on
//!   quiesced containers, so any surviving entry is stale);
//! * staged copies a log rewrite died with (reclaimed while their log
//!   is there, promoted in its place once it is gone);
//! * metadir size records disagreeing with the replayed indices;
//! * data-log tail bytes no index record references (reported as
//!   informational [`DataLogTail`]s, not issues — torn appends and
//!   clip-truncates leave them behind legitimately);
//!
//! and [`repair`] fixes everything mechanical, explicitly reporting
//! what it fixed and what it could not. Every log it rewrites goes
//! through the one staged rewrite (`Container::rewrite_staged`), so a
//! repair that dies part-way is itself repairable: `tests/crash_states.rs`
//! checks that in every crash state (DESIGN.md §5c).
#![deny(clippy::wildcard_enum_match_arm)]

use crate::backend::Backend;
use crate::container::{self, absent_as_none, Container, Inventory};
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::index::{self, log, GlobalIndex, IndexEntry, WriterId, INDEX_RECORD_BYTES};
use crate::ioplane::{self, IoOp};
use crate::telemetry;

/// One problem found in a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Issue {
    /// The directory exists but has no access marker.
    NotAContainer,
    /// A subdir does not resolve: its metalink is torn or names a
    /// directory that is gone, or it is missing although its hashed
    /// shadow directory exists. Repair rebuilds it from the static hash.
    BrokenSubdir {
        /// Which `subdir.<i>` entry is broken.
        index: usize,
        /// Why resolution failed.
        reason: String,
    },
    /// Index log length is not a multiple of the record size; the
    /// trailing partial record can be repaired away.
    TruncatedIndexLog {
        /// Owner of the index log.
        writer: WriterId,
        /// Whole records before the torn tail.
        valid_records: u64,
        /// Bytes of partial trailing record.
        trailing_bytes: u64,
    },
    /// An index entry references bytes beyond its data log's end, or
    /// names an extent that overflows `u64`.
    DanglingExtent {
        /// Owner of the entry.
        writer: WriterId,
        /// The offending index entry.
        entry: IndexEntry,
        /// Actual length of the data log it points past.
        data_log_size: u64,
    },
    /// Data log with no index log: none of its bytes are reachable.
    OrphanDataLog {
        /// Writer id parsed from the dropping name.
        writer: WriterId,
    },
    /// Index log with no data log.
    OrphanIndexLog {
        /// Writer id parsed from the dropping name.
        writer: WriterId,
    },
    /// A dropping sits outside the subdir its writer's id places it in,
    /// where no reader names it. Moving it could overwrite the writer's
    /// other droppings, so repair leaves it for human judgment.
    MisplacedDropping {
        /// Physical path of the dropping.
        path: String,
    },
    /// The flattened index disagrees with aggregation of the per-writer
    /// logs (stale after a post-flatten write).
    StaleFlattenedIndex,
    /// The flattened index file is not a structurally valid spanidx
    /// (DESIGN.md §5j): a crash tore the flatten mid-write, the file
    /// predates the format, or its records/fences/footer disagree.
    /// Readers already ignore it and aggregate; repair removes it.
    InvalidFlattenedIndex {
        /// What the format validation rejected.
        reason: String,
    },
    /// An `openhosts` entry survives with no live writer behind it. fsck
    /// only runs on quiesced containers, so the writer died without
    /// deregistering.
    StaleOpenHost {
        /// Writer the stale entry names.
        writer: WriterId,
    },
    /// A staged copy from `Container::rewrite_staged` survives: a log
    /// rewrite died part-way. While its log is there the copy is garbage
    /// (the log is only unlinked once the copy is whole); once the log is
    /// gone the copy *is* the log, and repair renames it in.
    StaleRealignTemp {
        /// Physical path of the staged copy.
        copy: String,
        /// Whether the log the copy was staged for is still there.
        log_present: bool,
    },
    /// The metadir's cached size disagrees with the EOF the replayed
    /// indices resolve to — `stat` would lie (typically a writer died
    /// after flushing index records but before recording its meta entry).
    MetadirDisagrees {
        /// EOF the metadir records claim.
        cached_eof: u64,
        /// EOF the replayed indices actually resolve to.
        actual_eof: u64,
    },
}

/// Data-log bytes past the last indexed extent: torn appends and dead
/// writers leave them. They were never acknowledged and are unreachable,
/// so this is informational (not an [`Issue`]) — `repair` reclaims them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataLogTail {
    /// Owner of the data log.
    pub writer: WriterId,
    /// Bytes the index actually references (end of the last extent).
    pub indexed_bytes: u64,
    /// Physical length of the data log.
    pub physical_bytes: u64,
}

/// Result of a container check.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Problems found (empty means clean).
    pub issues: Vec<Issue>,
    /// Unreferenced trailing bytes per data log (informational).
    pub tails: Vec<DataLogTail>,
    /// Writers with droppings in the container.
    pub writers: Vec<WriterId>,
    /// Logical file size the replayed indices resolve to.
    pub logical_size: u64,
    /// Spans in the replayed global index.
    pub spans: usize,
    /// The index logs [`repair`] rewrites — each torn or dangling one, as
    /// the whole records whose extents fit inside its data log.
    pub(crate) rewrites: Vec<(WriterId, Vec<IndexEntry>)>,
    /// Data-log bytes the replayed indices reference.
    pub(crate) live_bytes: u64,
    /// What the scan listed, for [`repair`] to name what it fixes.
    pub(crate) inventory: Inventory,
}

impl CheckReport {
    /// Whether the scan found no issues (tails are informational).
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Check a container for the problems listed in the module docs.
pub fn check<B: Backend>(b: &B, container: &Container) -> Result<CheckReport> {
    let _span = telemetry::span(telemetry::SPAN_FSCK_SCAN);
    let mut report = CheckReport::default();
    // Phase 1, one batch: the access probe, both listings and the subdir
    // probes.
    let mut out = container.scan(b, container.stat_ops().to_vec());
    if let Err(PlfsError::NotFound(_)) = ioplane::as_kind(ioplane::take(&mut out)) {
        report.issues.push(Issue::NotAContainer);
        telemetry::count(telemetry::CTR_FSCK_ISSUES, 1);
        return Ok(report);
    }
    let cached_eof = Container::cached_size_in(ioplane::take(&mut out))?;
    let open_hosts = Container::open_writers_in(ioplane::take(&mut out))?;

    // Phase 2: resolve every subdir and list the ones that resolve in one
    // `Readdir` batch, classifying one that does not as BrokenSubdir
    // without aborting the scan of the others.
    let mut subdirs = container.resolve_subdirs(b, 0, out);
    container.flag_unlinked_shadows(b, &mut subdirs);
    let inv = container.list_subdirs(b, subdirs);
    let data_log = |w| container.data_log_at(&inv.subdirs, w);
    let index_log = |w| container.index_log_at(&inv.subdirs, w);
    for (index, e) in &inv.broken {
        report.issues.push(Issue::BrokenSubdir {
            index: *index,
            reason: e.to_string(),
        });
    }
    for (copy, log_present) in &inv.staged {
        report.issues.push(Issue::StaleRealignTemp {
            copy: copy.clone(),
            log_present: *log_present,
        });
    }
    for path in &inv.misplaced {
        report.issues.push(Issue::MisplacedDropping { path: path.clone() });
    }
    for d in &inv.writers {
        if !d.index {
            report.issues.push(Issue::OrphanDataLog { writer: d.writer });
        } else if !d.data {
            report.issues.push(Issue::OrphanIndexLog { writer: d.writer });
        }
    }

    // Phase 3: validate index logs record by record. One `Size` batch
    // covers every index log and the data log beside it, then one batch
    // reads each index log's whole records — two plane submissions for
    // the container instead of three per writer.
    let indexed: Vec<(WriterId, bool)> = (inv.writers.iter())
        .filter(|d| d.index)
        .map(|d| (d.writer, d.data))
        .collect();
    let mut size_ops = Vec::with_capacity(2 * indexed.len());
    for &(w, data) in &indexed {
        size_ops.push(IoOp::Size { path: index_log(w)? });
        if data {
            size_ops.push(IoOp::Size { path: data_log(w)? });
        }
    }
    let mut sizes = ioplane::submit_retried(b, &size_ops).into_iter();
    let (mut read_ops, mut logs) = (Vec::with_capacity(indexed.len()), Vec::new());
    for &(w, data) in &indexed {
        let (whole, trailing) = index::whole_prefix(ioplane::as_size(ioplane::take(&mut sizes))?);
        let dsize = data.then(|| ioplane::as_size(ioplane::take(&mut sizes))).transpose()?;
        if trailing != 0 {
            report.issues.push(Issue::TruncatedIndexLog {
                writer: w,
                valid_records: whole / INDEX_RECORD_BYTES,
                trailing_bytes: trailing,
            });
        }
        read_ops.push(IoOp::ReadAt {
            path: index_log(w)?,
            offset: 0,
            len: whole,
        });
        logs.push((w, trailing != 0, dsize));
    }

    let mut entries: Vec<IndexEntry> = Vec::new();
    for ((w, torn, dsize), outcome) in logs.into_iter().zip(ioplane::submit_retried(b, &read_ops)) {
        let decoded = IndexEntry::decode_content(&ioplane::as_data(outcome)?)?;
        let (mut indexed_end, first, mut damaged) = (0u64, entries.len(), torn);
        for e in decoded {
            if !e.extents_fit() || e.physical_offset + e.length > dsize.unwrap_or(0) {
                damaged = true;
                report.issues.push(Issue::DanglingExtent {
                    writer: w,
                    entry: e,
                    data_log_size: dsize.unwrap_or(0),
                });
            } else {
                indexed_end = indexed_end.max(e.physical_offset + e.length);
                entries.push(e);
            }
        }
        if damaged {
            report.rewrites.push((w, entries[first..].to_vec()));
        }
        if let Some(dsize) = dsize.filter(|&d| d > indexed_end) {
            report.tails.push(DataLogTail {
                writer: w,
                indexed_bytes: indexed_end,
                physical_bytes: dsize,
            });
        }
    }

    // Validate the flattened index structurally (full spanidx deep
    // verification: footer, fences, record order), then compare it
    // against fresh aggregation — by *resolution*, not representation
    // (flatten compacts spans, so the mapping boundaries differ while
    // the bytes resolve identically).
    let fresh = GlobalIndex::from_runs(&[&entries], false);
    match container.read_flattened(b) {
        Ok(Some(flat)) if flat != GlobalIndex::from_runs(&[&entries], true) => {
            report.issues.push(Issue::StaleFlattenedIndex);
        }
        Ok(_) => {}
        Err(PlfsError::CorruptContainer(reason)) => {
            report.issues.push(Issue::InvalidFlattenedIndex { reason });
        }
        Err(e) => return Err(e),
    }

    // fsck only runs on quiesced containers, so any surviving openhosts
    // entry belongs to a writer that died without deregistering.
    for w in open_hosts {
        report.issues.push(Issue::StaleOpenHost { writer: w });
    }

    // A metadir record that disagrees with the replayed indices means
    // `stat` lies (writer died between index flush and meta record, or a
    // stale record survived a crashed truncate).
    if let Some(cached) = cached_eof {
        if cached != fresh.eof() {
            report.issues.push(Issue::MetadirDisagrees {
                cached_eof: cached,
                actual_eof: fresh.eof(),
            });
        }
    }

    report.writers = inv.indexed();
    report.logical_size = fresh.eof();
    report.spans = fresh.span_count();
    report.live_bytes = fresh.to_entries().iter().map(|e| e.length).sum();
    report.inventory = inv;
    telemetry::count(telemetry::CTR_FSCK_ISSUES, report.issues.len() as u64);
    Ok(report)
}

/// Physical space accounting for one container — the log-structured
/// overhead story in numbers: data logs hold every byte ever written
/// (including bytes later overwritten or truncated away), index logs add
/// 40 bytes per write, and the flattened index duplicates the merged
/// index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceUsage {
    /// Bytes across all data logs.
    pub data_bytes: u64,
    /// Bytes across all index logs.
    pub index_bytes: u64,
    /// Bytes in the flattened index, if present.
    pub flattened_bytes: u64,
    /// Logical file size (resolved EOF).
    pub logical_bytes: u64,
    /// Data-log bytes no index entry references (overwritten shadows,
    /// truncated tails) — reclaimable by rewriting the logs.
    pub dead_bytes: u64,
}

impl SpaceUsage {
    /// Total physical bytes the container consumes.
    pub fn physical_bytes(&self) -> u64 {
        self.data_bytes + self.index_bytes + self.flattened_bytes
    }
}

/// Measure a container's physical footprint against its logical size:
/// one scan (the flattened index's size rides the subdir probes), one
/// `Size` batch over every data and index log, then the index logs read
/// at those sizes.
pub fn space_usage<B: Backend>(b: &B, container: &Container) -> Result<SpaceUsage> {
    let flat = IoOp::Size {
        path: container.flattened_path(),
    };
    let mut out = container.scan(b, vec![flat]);
    let flattened = absent_as_none(ioplane::as_size(ioplane::take(&mut out)))?;
    let inv = container.inventory(b, out)?;
    let writers = inv.indexed();
    let ipaths = (writers.iter())
        .map(|&w| container.index_log_at(&inv.subdirs, w))
        .collect::<Result<Vec<_>>>()?;
    let mut size_ops = Vec::with_capacity(writers.len() * 2);
    for (&w, ipath) in writers.iter().zip(&ipaths) {
        size_ops.push(IoOp::Size { path: container.data_log_at(&inv.subdirs, w)? });
        size_ops.push(IoOp::Size { path: ipath.clone() });
    }
    let sizes = ioplane::submit_retried(b, &size_ops).into_iter().map(ioplane::as_size);
    let sizes = sizes.collect::<Result<Vec<u64>>>()?;
    let isizes: Vec<u64> = sizes.iter().skip(1).step_by(2).copied().collect();
    let mut usage = SpaceUsage {
        data_bytes: sizes.iter().step_by(2).sum(),
        index_bytes: isizes.iter().sum(),
        flattened_bytes: flattened.unwrap_or(0),
        ..SpaceUsage::default()
    };
    let logs = Container::read_logs_sized(b, &ipaths, &isizes, 1)?;
    let runs: Vec<Vec<IndexEntry>> = logs.iter().map(|l| log::expand(l)).collect();
    let idx = GlobalIndex::from_runs(&runs, false);
    usage.logical_bytes = idx.eof();
    // Live bytes = data-log bytes still referenced by the resolved index.
    let live: u64 = idx.to_entries().iter().map(|e| e.length).sum();
    usage.dead_bytes = usage.data_bytes.saturating_sub(live);
    Ok(usage)
}

/// What [`repair`] did — and, crucially, what it could *not* do. A
/// repair never reports success while known issues remain: check
/// [`RepairOutcome::fully_repaired`], not just the post-repair report.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Issues that were mechanically fixed.
    pub fixed: Vec<Issue>,
    /// Issues fsck cannot fix without losing or inventing data; they
    /// need human judgment and remain in the container.
    pub unrepaired: Vec<Issue>,
    /// Unreferenced data-log tails that were trimmed away.
    pub trimmed_tails: Vec<DataLogTail>,
    /// Fresh check after all repairs.
    pub post: CheckReport,
}

impl RepairOutcome {
    /// True only when nothing was left behind: no unrepairable issues
    /// and the post-repair check is clean.
    pub fn fully_repaired(&self) -> bool {
        self.unrepaired.is_empty() && self.post.is_clean()
    }
}

/// Repair what is mechanically repairable, without inventing data:
///
/// * broken subdirs are rebuilt from the static hash: a metalink is
///   pointed at the shadow directory the federation places the subdir
///   in when that exists, and dropped when it does not (an unlink that
///   died part-way took the shadow);
/// * a staged copy is reclaimed while its log is there and renamed in
///   its place once the log is gone;
/// * index logs with torn trailing records and/or dangling extents are
///   rewritten keeping exactly the whole records whose extents the data
///   log can satisfy, and unreferenced data-log tails are trimmed, all in
///   one staged rewrite;
/// * orphan index logs are deleted (their records reference a data log
///   that does not exist — nothing readable is lost);
/// * *empty* orphan data logs are deleted; non-empty ones are left for
///   human judgment (the bytes may be recoverable by other means) and
///   reported as unrepaired, as are misplaced droppings;
/// * stale `openhosts` entries and stale or structurally invalid
///   flattened indices are removed;
/// * a disagreeing metadir is rebuilt from the replayed indices.
///
/// Subdirs and staged copies are settled first, and the container
/// rescanned, because both change what the scan can see. Every issue of
/// that scan, and every structural issue settled before it, lands in
/// exactly one of [`RepairOutcome::fixed`] or
/// [`RepairOutcome::unrepaired`].
pub fn repair<B: Backend>(b: &B, container: &Container) -> Result<RepairOutcome> {
    let _span = telemetry::span(telemetry::SPAN_FSCK_REPAIR);
    let mut fixed = Vec::new();
    let mut unrepaired = Vec::new();
    let mut before = check(b, container)?;
    // Two rounds: a subdir rebuilt in the first can show the second a
    // staged copy. What the rescan no longer finds was fixed; what it
    // still finds is judged below with everything else.
    for _ in 0..2 {
        let structural: Vec<Issue> = before
            .issues
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Issue::BrokenSubdir { .. } | Issue::StaleRealignTemp { .. }
                )
            })
            .cloned()
            .collect();
        if structural.is_empty() {
            break;
        }
        settle(b, container, &structural)?;
        before = check(b, container)?;
        fixed.extend(
            structural
                .into_iter()
                .filter(|i| !before.issues.contains(i)),
        );
    }

    let mut drop_flattened = false;
    let mut refresh_metadir = false;
    let mut stale_hosts: Vec<WriterId> = Vec::new();
    let mut orphan_index: Vec<WriterId> = Vec::new();
    let mut orphan_data: Vec<(WriterId, Issue)> = Vec::new();
    for issue in before.issues.iter().cloned() {
        match issue {
            // No container, or structure the rounds above could not settle.
            Issue::NotAContainer | Issue::BrokenSubdir { .. } | Issue::StaleRealignTemp { .. } => {
                unrepaired.push(issue)
            }
            Issue::MisplacedDropping { .. } => unrepaired.push(issue),
            Issue::TruncatedIndexLog { .. } | Issue::DanglingExtent { .. } => fixed.push(issue),
            // Decided below, once sizes come back in one batch.
            Issue::OrphanDataLog { writer } => orphan_data.push((writer, issue)),
            Issue::OrphanIndexLog { writer } => {
                orphan_index.push(writer);
                fixed.push(issue);
            }
            Issue::StaleOpenHost { writer } => {
                stale_hosts.push(writer);
                fixed.push(issue);
            }
            Issue::MetadirDisagrees { .. } => {
                refresh_metadir = true;
                fixed.push(issue);
            }
            // A stale, torn or legacy flattened file carries no unique data
            // (the per-writer logs are authoritative), so dropping it is
            // safe.
            Issue::StaleFlattenedIndex | Issue::InvalidFlattenedIndex { .. } => {
                drop_flattened = true;
                fixed.push(issue);
            }
        }
    }

    // Every physical path the repair plans touch is a dropping the scan
    // listed.
    let inv = &before.inventory;
    let data_log = |w| container.data_log_at(&inv.subdirs, w);
    let index_log = |w| container.index_log_at(&inv.subdirs, w);

    // Orphan data logs: one size batch decides empty (reclaim) vs
    // non-empty (leave for a human — deleting would destroy possibly
    // recoverable data, keeping them readable would invent placement).
    let orphan_size_ops = (orphan_data.iter())
        .map(|(w, _)| Ok(IoOp::Size { path: data_log(*w)? }))
        .collect::<Result<Vec<_>>>()?;
    let mut reclaim_ops = Vec::new();
    let sizes = orphan_size_ops.iter().zip(ioplane::submit_retried(b, &orphan_size_ops));
    for ((_, issue), (op, outcome)) in orphan_data.into_iter().zip(sizes) {
        if ioplane::as_size(outcome)? == 0 {
            reclaim_ops.push(IoOp::Unlink {
                path: op.path().to_string(),
            });
            fixed.push(issue);
        } else {
            unrepaired.push(issue);
        }
    }

    // One staged rewrite covers every damaged index log, keeping what the
    // scan kept, and every data log with an unreferenced tail, keeping the
    // referenced prefix (read in one batch). The scan counted no record
    // the rewrite drops in a tail, so its tails already describe the logs
    // the rewrite leaves.
    let mut rewrites = Vec::with_capacity(before.rewrites.len() + before.tails.len());
    for (w, kept) in &before.rewrites {
        rewrites.push((index_log(*w)?, Content::bytes(IndexEntry::encode_all(kept))));
    }
    let keep_ops = (before.tails.iter())
        .map(|t| Ok(IoOp::ReadAt { path: data_log(t.writer)?, offset: 0, len: t.indexed_bytes }))
        .collect::<Result<Vec<_>>>()?;
    for (op, outcome) in keep_ops.iter().zip(ioplane::submit_retried(b, &keep_ops)) {
        rewrites.push((op.path().to_string(), ioplane::as_data(outcome)?));
    }
    Container::rewrite_staged(b, &rewrites)?;

    // Orphan index logs reference a data log that does not exist; their
    // records can never resolve to bytes, so deleting loses nothing.
    // Stale openhosts entries are pure garbage. All of it goes in one
    // unlink batch, together with the empty orphan data logs decided
    // above.
    for &w in &orphan_index {
        reclaim_ops.push(IoOp::Unlink {
            path: index_log(w)?,
        });
    }
    let host_start = reclaim_ops.len();
    for &w in &stale_hosts {
        reclaim_ops.push(IoOp::Unlink {
            path: container::host_entry(container.canonical_path(), w),
        });
    }
    let host_range = host_start..host_start + stale_hosts.len();
    for (j, outcome) in ioplane::submit_retried(b, &reclaim_ops)
        .into_iter()
        .enumerate()
    {
        match ioplane::as_unit(outcome) {
            Ok(()) => {}
            // A host entry already gone is a success (idempotent close).
            Err(PlfsError::NotFound(_)) if host_range.contains(&j) => {}
            Err(e) => return Err(e),
        }
    }

    if drop_flattened {
        container.remove_flattened(b)?;
    }

    // Rebuild the metadir from the replayed indices. The repaired logs
    // hold exactly the records the scan replayed (a dropped record was
    // never among them, and an orphan index log's records all dangle), so
    // its numbers are the repaired container's.
    if refresh_metadir {
        container.reset_metadir(b, before.logical_size, before.live_bytes)?;
    }

    // Index logs may have been rewritten or unlinked and the flattened
    // index dropped; a writer reusing a repaired log's id can grow it
    // back to the old size with other records.
    container.bump_generation(b)?;
    let post = check(b, container)?;
    Ok(RepairOutcome {
        fixed,
        unrepaired,
        trimmed_tails: before.tails,
        post,
    })
}

/// Settle the structural issues as [`repair`] describes: rebuild broken
/// subdirs, then reclaim or promote staged copies.
fn settle<B: Backend>(b: &B, container: &Container, issues: &[Issue]) -> Result<()> {
    let broken: Vec<usize> = (issues.iter())
        .filter_map(|i| if let Issue::BrokenSubdir { index, .. } = i { Some(*index) } else { None })
        .collect();
    container.rebuild_subdirs(b, &broken)?;
    let mut ops = Vec::new();
    for issue in issues {
        if let Issue::StaleRealignTemp { copy, log_present } = issue {
            ops.push(match (log_present, container::staged_log(copy)) {
                (false, Some(log)) => IoOp::Rename {
                    from: copy.clone(),
                    to: log.to_string(),
                },
                _ => IoOp::Unlink { path: copy.clone() },
            });
        }
    }
    for outcome in ioplane::submit_retried(b, &ops) {
        ioplane::as_unit(outcome)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::Federation;
    use crate::memfs::MemFs;
    use crate::writer::{flatten_close, IndexPolicy, WriteHandle};
    use std::sync::Arc;

    fn reader(b: &Arc<MemFs>, c: &Container) -> crate::reader::ReadHandle<Arc<MemFs>> {
        crate::reader::ReadHandle::open_bounded(Arc::clone(b), c.clone(), Arc::default()).unwrap()
    }

    fn healthy_container() -> (Arc<MemFs>, Container) {
        let b = Arc::new(MemFs::new());
        let cont = Container::new("/f", &Federation::single("/panfs", 4));
        for w in 0..3u64 {
            let mut h = WriteHandle::open(Arc::clone(&b), cont.clone(), w, IndexPolicy::WriteClose)
                .unwrap();
            for k in 0..5u64 {
                h.write((k * 3 + w) * 100, &Content::synthetic(w, 100), k + 1)
                    .unwrap();
            }
            h.close(9).unwrap();
        }
        (b, cont)
    }

    #[test]
    fn healthy_container_is_clean() {
        let (b, cont) = healthy_container();
        let r = check(&b, &cont).unwrap();
        assert!(r.is_clean(), "{:?}", r.issues);
        assert_eq!(r.writers, vec![0, 1, 2]);
        assert_eq!(r.logical_size, 1500);
        assert_eq!(r.spans, 15);
    }

    #[test]
    fn repair_advances_the_generation_and_check_ignores_its_file() {
        let (b, cont) = healthy_container();
        // Cut writer 1's data log under its last record: repair drops the
        // dangling record, then the log grows back to its old size with
        // another one.
        let dpath = cont.data_log(&b, 1).unwrap();
        let kept = b.read_at(&dpath, 0, 400).unwrap();
        b.create(&dpath, false).unwrap();
        b.append(&dpath, &kept).unwrap();
        let before = cont.probe_index(&b).unwrap().unwrap();
        // The post-repair check runs with the generation file in place.
        assert!(repair(&b, &cont).unwrap().fully_repaired());
        assert!(b.exists(&cont.generation_path()));
        let other = IndexEntry {
            logical_offset: 9000,
            length: 10,
            physical_offset: 0,
            writer: 1,
            timestamp: 30,
        };
        let ipath = cont.index_log(&b, 1).unwrap();
        b.append(&ipath, &Content::bytes(IndexEntry::encode_all(&[other])))
            .unwrap();
        let after = cont.probe_index(&b).unwrap().unwrap();
        assert_eq!(before.stamp().sizes(), after.stamp().sizes());
        assert_ne!(before.stamp(), after.stamp());
    }

    #[test]
    fn missing_marker_is_flagged() {
        let b = Arc::new(MemFs::new());
        let cont = Container::new("/nope", &Federation::single("/panfs", 2));
        let r = check(&b, &cont).unwrap();
        assert_eq!(r.issues, vec![Issue::NotAContainer]);
    }

    #[test]
    fn truncated_index_log_detected_and_repaired() {
        let (b, cont) = healthy_container();
        // Chop the last record in half by appending garbage.
        let ipath = cont.index_log(&b, 1).unwrap();
        b.append(&ipath, &Content::bytes(vec![0xFF; 17])).unwrap();
        let r = check(&b, &cont).unwrap();
        assert!(matches!(
            r.issues.as_slice(),
            [Issue::TruncatedIndexLog {
                writer: 1,
                valid_records: 5,
                trailing_bytes: 17
            }]
        ));
        let after = repair(&b, &cont).unwrap();
        assert!(after.fully_repaired(), "{after:?}");
        assert_eq!(after.fixed.len(), 1);
        assert!(after.unrepaired.is_empty());
        assert_eq!(after.post.logical_size, 1500);
    }

    #[test]
    fn orphan_droppings_detected_and_repaired() {
        let (b, cont) = healthy_container();
        // Fabricate an orphan data log and an orphan index log, each in
        // the subdir its writer id hashes to.
        b.create(&cont.data_log(&b, 77).unwrap(), true).unwrap();
        b.create(&cont.index_log(&b, 88).unwrap(), true).unwrap();
        let r = check(&b, &cont).unwrap();
        assert!(r.issues.contains(&Issue::OrphanDataLog { writer: 77 }));
        assert!(r.issues.contains(&Issue::OrphanIndexLog { writer: 88 }));
        // Both orphans are empty: repair removes them.
        let after = repair(&b, &cont).unwrap();
        assert!(after.fully_repaired(), "{after:?}");
        assert_eq!(after.fixed.len(), 2);
    }

    #[test]
    fn a_dropping_outside_its_writers_subdir_is_reported_and_left() {
        let (b, cont) = healthy_container();
        // Writer 6 belongs in subdir 2; its logs sit in writer 0's subdir.
        let dir = cont.subdirs_phys_batch(&*b).unwrap()[0].clone().unwrap();
        let logs = [container::data_log_in(&dir, 6), container::index_log_in(&dir, 6)];
        for path in &logs {
            b.create(path, true).unwrap();
        }
        let r = check(&*b, &cont).unwrap();
        let misplaced = logs.clone().map(|path| Issue::MisplacedDropping { path });
        assert_eq!(r.issues, misplaced);
        assert_eq!(r.writers, [0, 1, 2]);
        // Readers and truncate, which name logs by writer id, refuse it.
        let refused = |e| matches!(e, PlfsError::CorruptContainer(_));
        assert!(cont.list_writers(&*b).is_err_and(refused));
        assert!(crate::truncate::truncate(&*b, &cont, 0).is_err_and(refused));
        let after = repair(&*b, &cont).unwrap();
        assert_eq!(after.unrepaired, misplaced);
        assert!(!after.fully_repaired());
        assert!(logs.iter().all(|p| b.exists(p)));
    }

    #[test]
    fn nonempty_orphan_data_log_is_reported_unrepaired() {
        let (b, cont) = healthy_container();
        let path = cont.data_log(&b, 77).unwrap();
        b.create(&path, true).unwrap();
        b.append(&path, &Content::bytes(vec![5; 64])).unwrap();
        let after = repair(&b, &cont).unwrap();
        // Repair must not claim success while real bytes sit unindexed —
        // and must not delete them either.
        assert!(!after.fully_repaired());
        assert_eq!(after.unrepaired, vec![Issue::OrphanDataLog { writer: 77 }]);
        assert_eq!(b.size(&path).unwrap(), 64, "orphan bytes preserved");
        // And the issue is still visible in the post-repair check.
        assert!(after
            .post
            .issues
            .contains(&Issue::OrphanDataLog { writer: 77 }));
    }

    #[test]
    fn stale_open_host_detected_and_repaired() {
        let (b, cont) = healthy_container();
        // A writer that registered but died without deregistering.
        cont.register_open(&b, 42).unwrap();
        let r = check(&b, &cont).unwrap();
        assert_eq!(r.issues, vec![Issue::StaleOpenHost { writer: 42 }]);
        let after = repair(&b, &cont).unwrap();
        assert!(after.fully_repaired(), "{after:?}");
        assert!(cont.stat_listings(&b).unwrap().1.is_empty());
    }

    #[test]
    fn staged_copies_are_reclaimed_beside_their_log_and_promoted_without_it() {
        let (b, cont) = healthy_container();
        // A writer died between staging its realigned index log and the
        // swap; the staging copy survives next to the untouched log.
        let log = cont.index_log(&b, 0).unwrap();
        let staged = container::staged_copy(&log);
        b.create(&staged, true).unwrap();
        b.append(&staged, &Content::bytes(vec![0; 40])).unwrap();
        let copy = |log_present| Issue::StaleRealignTemp {
            copy: staged.clone(),
            log_present,
        };
        assert_eq!(check(&b, &cont).unwrap().issues, vec![copy(true)]);
        let after = repair(&b, &cont).unwrap();
        assert!(after.fully_repaired(), "{after:?}");
        assert!(!b.exists(&staged));
        // The real logs were untouched by the reclaim.
        assert_eq!(cont.read_index_log(&b, 0).unwrap().len(), 5);
        // Died after unlinking the log, before renaming a whole copy in:
        // the copy is the log now.
        b.create(&staged, true).unwrap();
        b.append(&staged, &b.read_at(&log, 0, 200).unwrap())
            .unwrap();
        b.unlink(&log).unwrap();
        assert!(check(&b, &cont).unwrap().issues.contains(&copy(false)));
        assert!(repair(&b, &cont).unwrap().fully_repaired());
        assert_eq!(cont.read_index_log(&b, 0).unwrap().len(), 5);
    }

    #[test]
    fn metadir_disagreement_detected_and_rebuilt() {
        let (b, cont) = healthy_container();
        // A bogus meta record claiming a larger file than the indices
        // resolve (e.g. left behind by a crashed truncate).
        cont.record_meta(&b, 9, 9_999, 0).unwrap();
        let r = check(&b, &cont).unwrap();
        assert_eq!(
            r.issues,
            vec![Issue::MetadirDisagrees {
                cached_eof: 9_999,
                actual_eof: 1500
            }]
        );
        let after = repair(&b, &cont).unwrap();
        assert!(after.fully_repaired(), "{after:?}");
        assert_eq!(cont.stat_listings(&b).unwrap().0, Some(1500));
    }

    #[test]
    fn unindexed_tail_is_informational_and_trimmed() {
        let (b, cont) = healthy_container();
        // Simulate a torn data append: bytes landed past the last
        // indexed extent, with no index record.
        let dpath = cont.data_log(&b, 2).unwrap();
        b.append(&dpath, &Content::bytes(vec![0xAB; 33])).unwrap();
        let r = check(&b, &cont).unwrap();
        // Never-acknowledged bytes are not damage...
        assert!(r.is_clean(), "{:?}", r.issues);
        assert_eq!(
            r.tails,
            vec![DataLogTail {
                writer: 2,
                indexed_bytes: 500,
                physical_bytes: 533
            }]
        );
        // ...but repair reclaims the space.
        let after = repair(&b, &cont).unwrap();
        assert_eq!(after.trimmed_tails.len(), 1);
        assert_eq!(b.size(&dpath).unwrap(), 500);
        assert!(after.post.tails.is_empty());
        assert_eq!(after.post.logical_size, 1500);
    }

    #[test]
    fn dead_writer_recovery_end_to_end() {
        // The canonical crash shape: a writer flushed some index records,
        // then died mid-append leaving a torn index record, a data-log
        // tail, a stale openhosts entry, and no meta record.
        let (b, cont) = healthy_container();
        let mut h =
            WriteHandle::open(Arc::clone(&b), cont.clone(), 7, IndexPolicy::WriteClose).unwrap();
        h.write(2000, &Content::synthetic(7, 100), 50).unwrap();
        h.flush_index().unwrap();
        // Died here: torn second index record + unindexed data bytes.
        h.write(2100, &Content::synthetic(7, 100), 51).unwrap();
        let ipath = cont.index_log(&b, 7).unwrap();
        let entry = IndexEntry {
            logical_offset: 2100,
            length: 100,
            physical_offset: 100,
            writer: 7,
            timestamp: 51,
        };
        b.append(&ipath, &Content::bytes(entry.to_bytes()[..23].to_vec()))
            .unwrap();
        drop(h); // the handle is gone; never closed

        let r = check(&b, &cont).unwrap();
        assert!(r.issues.contains(&Issue::TruncatedIndexLog {
            writer: 7,
            valid_records: 1,
            trailing_bytes: 23
        }));
        assert!(r.issues.contains(&Issue::StaleOpenHost { writer: 7 }));
        assert!(r
            .issues
            .iter()
            .any(|i| matches!(i, Issue::MetadirDisagrees { .. })));

        let after = repair(&b, &cont).unwrap();
        assert!(after.fully_repaired(), "{after:?}");
        // The flushed write survives; the torn one is gone; stat is honest.
        let mut reader = reader(&b, &cont);
        assert_eq!(reader.size(), 2100);
        assert_eq!(
            reader.read(2000, 100).unwrap(),
            Content::synthetic(7, 100).materialize()
        );
        assert_eq!(cont.stat_listings(&b).unwrap().0, Some(2100));
    }

    #[test]
    fn dangling_extent_detected() {
        let (b, cont) = healthy_container();
        // Append an index record pointing past the data log's end.
        let bogus = IndexEntry {
            logical_offset: 9000,
            length: 100,
            physical_offset: 100_000,
            writer: 0,
            timestamp: 50,
        };
        let ipath = cont.index_log(&b, 0).unwrap();
        b.append(&ipath, &Content::bytes(bogus.to_bytes().to_vec()))
            .unwrap();
        let r = check(&b, &cont).unwrap();
        assert!(matches!(
            r.issues.as_slice(),
            [Issue::DanglingExtent { writer: 0, .. }]
        ));
        // The dangling extent is excluded from the logical size.
        assert_eq!(r.logical_size, 1500);
    }

    /// Two writers' 50 bytes each, flatten-closed.
    fn flattened_pair() -> (Arc<MemFs>, Container) {
        let b = Arc::new(MemFs::new());
        let cont = Container::new("/f", &Federation::single("/panfs", 2));
        let policy = IndexPolicy::Flatten {
            threshold_entries: 100,
        };
        let handles = (0..2u64).map(|w| {
            let mut h = WriteHandle::open(Arc::clone(&b), cont.clone(), w, policy).unwrap();
            h.write(w * 50, &Content::synthetic(w, 50), w + 1).unwrap();
            h
        });
        assert!(flatten_close(&b, &cont, handles.collect(), 9).unwrap());
        (b, cont)
    }

    #[test]
    fn stale_flattened_index_detected_and_repaired() {
        let (b, cont) = flattened_pair();
        // Writer 9's open drops the flattened index and its write extends
        // the file; a flatten of writers 0 and 1 that raced the open
        // lands after it.
        let mut h =
            WriteHandle::open(Arc::clone(&b), cont.clone(), 9, IndexPolicy::WriteClose).unwrap();
        h.write(500, &Content::synthetic(9, 50), 99).unwrap();
        h.close(100).unwrap();
        let runs = [0, 1].map(|w| cont.read_index_log(&*b, w).unwrap());
        cont.write_flattened_runs(&*b, &runs).unwrap();
        let r = check(&b, &cont).unwrap();
        assert!(r.issues.contains(&Issue::StaleFlattenedIndex));

        let after = repair(&b, &cont).unwrap();
        assert!(after.fully_repaired(), "{after:?}");
        // Readers now aggregate and see the full file.
        let reader = reader(&b, &cont);
        assert_eq!(reader.size(), 550);
    }

    #[test]
    fn torn_flattened_index_detected_and_repaired() {
        let (b, cont) = flattened_pair();
        // Tear the spanidx mid-trailer, as a crash between the record
        // appends and the fence/footer append would.
        let fpath = cont.flattened_path();
        let torn = b.read_at(&fpath, 0, b.size(&fpath).unwrap() - 30).unwrap();
        b.unlink(&fpath).unwrap();
        b.create(&fpath, true).unwrap();
        b.append(&fpath, &torn).unwrap();
        // Readers fall back to aggregation and still see everything.
        let reader = reader(&b, &cont);
        assert_eq!(reader.size(), 100);
        let r = check(&b, &cont).unwrap();
        assert!(
            matches!(r.issues.as_slice(), [Issue::InvalidFlattenedIndex { .. }]),
            "{:?}",
            r.issues
        );
        let after = repair(&b, &cont).unwrap();
        assert!(after.fully_repaired(), "{after:?}");
        assert!(!b.exists(&fpath), "torn flattened file reclaimed");
    }

    #[test]
    fn compacted_flattened_index_is_not_stale() {
        // Segmented writes flatten into compacted spans; fsck must not
        // mistake the coarser representation for staleness.
        let b = Arc::new(MemFs::new());
        let cont = Container::new("/seg", &Federation::single("/panfs", 2));
        let mut handles = Vec::new();
        for w in 0..3u64 {
            let mut h = WriteHandle::open(
                Arc::clone(&b),
                cont.clone(),
                w,
                IndexPolicy::Flatten {
                    threshold_entries: 100,
                },
            )
            .unwrap();
            for k in 0..8u64 {
                h.write(w * 800 + k * 100, &Content::synthetic(w, 100), k + 1)
                    .unwrap();
            }
            handles.push(h);
        }
        assert!(flatten_close(&b, &cont, handles, 99).unwrap());
        let flat = cont.read_flattened(&b).unwrap().unwrap();
        assert_eq!(flat.span_count(), 3, "compacted");
        let r = check(&b, &cont).unwrap();
        assert!(r.is_clean(), "{:?}", r.issues);
    }

    #[test]
    fn space_usage_accounts_overhead_and_dead_bytes() {
        let (b, cont) = healthy_container();
        let u = space_usage(&b, &cont).unwrap();
        assert_eq!(u.logical_bytes, 1500);
        assert_eq!(u.data_bytes, 1500); // nothing overwritten yet
        assert_eq!(u.index_bytes, 15 * INDEX_RECORD_BYTES);
        assert_eq!(u.dead_bytes, 0);
        assert_eq!(u.physical_bytes(), 1500 + 600);

        // Overwrite a region: the shadowed bytes become dead.
        let mut h =
            WriteHandle::open(Arc::clone(&b), cont.clone(), 9, IndexPolicy::WriteClose).unwrap();
        h.write(0, &Content::synthetic(9, 500), 100).unwrap();
        h.close(101).unwrap();
        let u2 = space_usage(&b, &cont).unwrap();
        assert_eq!(u2.logical_bytes, 1500);
        assert_eq!(u2.data_bytes, 2000);
        assert_eq!(u2.dead_bytes, 500, "overwritten bytes are dead");
    }

    #[test]
    fn broken_metalinks_are_rebuilt_from_the_static_hash() {
        let b = Arc::new(MemFs::new());
        let fed = Federation::new(vec!["/v0".into(), "/v1".into()], 4, false, true);
        let cont = Container::new("/f", &fed);
        for w in 0..4u64 {
            let mut h = WriteHandle::open(Arc::clone(&b), cont.clone(), w, IndexPolicy::WriteClose)
                .unwrap();
            h.write(w * 10, &Content::synthetic(w, 10), 1).unwrap();
            h.close(2).unwrap();
        }
        let shadowed: Vec<usize> = (0..4)
            .filter(|&i| container::shadow_dir(&fed, "/f", i).is_some())
            .collect();
        assert!(!shadowed.is_empty());
        // The first shadowed subdir's metalink is torn to half its bytes;
        // every other one is gone, its shadow directory still there.
        for &i in &shadowed {
            let entry = format!("{}/subdir.{i}", cont.canonical_path());
            let target = b.read_at(&entry, 0, 1 << 10).unwrap().materialize();
            b.unlink(&entry).unwrap();
            if i == shadowed[0] {
                b.create(&entry, true).unwrap();
                let torn = Content::bytes(target[..target.len() / 2].to_vec());
                b.append(&entry, &torn).unwrap();
            }
        }
        let r = check(&b, &cont).unwrap();
        let broken = r
            .issues
            .iter()
            .filter(|i| matches!(i, Issue::BrokenSubdir { .. }));
        assert_eq!(broken.count(), shadowed.len(), "{:?}", r.issues);
        assert!(repair(&b, &cont).unwrap().fully_repaired());
        let mut reader = reader(&b, &cont);
        for w in 0..4u64 {
            let want = Content::synthetic(w, 10).materialize();
            assert_eq!(reader.read(w * 10, 10).unwrap(), want, "writer {w}");
        }
    }
}

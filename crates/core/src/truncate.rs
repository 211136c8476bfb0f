//! Logical truncation of PLFS files.
//!
//! Truncation is awkward for a log-structured design: the data is spread
//! across append-only logs that cannot be shortened in place. Real PLFS
//! handled `truncate(0)` by dropping the droppings and anything else by
//! rewriting indices; we implement both:
//!
//! * **truncate to 0** — remove every dropping, metadir record, and
//!   flattened index; the container remains, empty;
//! * **truncate to `size`** — rewrite each writer's index log through the
//!   one staged rewrite (`Container::rewrite_staged`), dropping entries
//!   entirely beyond `size` and clipping the one that straddles it, so a
//!   crash mid-truncate never loses a record below the cut. Data-log
//!   bytes past the cut become unreferenced (space is reclaimed by a later
//!   fsck/compaction pass, not here — exactly the log-structured trade).
//!
//! Concurrent writers are not supported during truncation (PLFS never
//! supported that either): callers must quiesce the file first.

use crate::backend::Backend;
use crate::container::{Container, DATA_PREFIX, INDEX_PREFIX};
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::index::IndexEntry;
use crate::ioplane::{self, IoOp};

/// Truncate the logical file backed by `container` to `size` bytes.
pub fn truncate<B: Backend>(b: &B, container: &Container, size: u64) -> Result<()> {
    if !container.exists(b) {
        return Err(PlfsError::NotFound(container.logical_path().to_string()));
    }
    if !container.open_writers(b)?.is_empty() {
        return Err(PlfsError::Unsupported(
            "cannot truncate a file with writers still open".into(),
        ));
    }
    if size == 0 {
        return truncate_to_zero(b, container);
    }

    // Rewrite every index log, clipping at `size`, and account what
    // survives: the physical bytes still referenced and the logical EOF
    // the clipped indices actually resolve to (less than `size` when the
    // cut lands in a hole or beyond the old EOF). The logs are read in
    // batches, then all rewritten in one staged rewrite.
    let resolved = container.subdirs_phys_batch(b)?;
    let ipaths = container.index_log_paths(&resolved, &container.writers_in(b, &resolved)?)?;
    let runs = Container::read_logs_whole(b, &ipaths, 1)?;
    let (mut surviving_bytes, mut surviving_eof) = (0u64, 0u64);
    let mut rewrites = Vec::with_capacity(ipaths.len());
    for (path, entries) in ipaths.into_iter().zip(runs) {
        let kept: Vec<IndexEntry> = entries
            .into_iter()
            .filter(|e| e.logical_offset < size)
            .map(|e| IndexEntry {
                length: e.length.min(size - e.logical_offset),
                ..e
            })
            .collect();
        for e in &kept {
            surviving_bytes += e.length;
            surviving_eof = surviving_eof.max(e.logical_offset + e.length);
        }
        rewrites.push((path, Content::bytes(IndexEntry::encode_all(&kept))));
    }
    Container::rewrite_staged(b, &rewrites)?;

    // Metadir records and any flattened index are now stale.
    refresh_metadata(b, container, surviving_eof, surviving_bytes)?;
    Ok(())
}

fn truncate_to_zero<B: Backend>(b: &B, container: &Container) -> Result<()> {
    // One listing batch over the live subdirs, one unlink batch over
    // every dropping they hold.
    let resolved = container.subdirs_phys_batch(b)?;
    let dirs: Vec<&String> = resolved.iter().flatten().collect();
    let list_ops: Vec<IoOp> = dirs
        .iter()
        .map(|d| IoOp::Readdir { path: (*d).clone() })
        .collect();
    let mut unlink_ops = Vec::new();
    for (dir, outcome) in dirs.iter().zip(ioplane::submit_retried(b, &list_ops)) {
        for name in ioplane::as_names(outcome)? {
            if name.starts_with(DATA_PREFIX) || name.starts_with(INDEX_PREFIX) {
                unlink_ops.push(IoOp::Unlink {
                    path: format!("{dir}/{name}"),
                });
            }
        }
    }
    for outcome in ioplane::submit_retried(b, &unlink_ops) {
        ioplane::as_unit(outcome)?;
    }
    refresh_metadata(b, container, 0, 0)?;
    Ok(())
}

/// Drop the stale flattened index and metadir records, and record the
/// new size *and* the physical bytes the clipped indices still reference
/// — the record feeds cached stat and space accounting, so writing
/// `bytes=0` here would make both lie after a clip-truncate. Last,
/// advance the namespace generation: the index logs were just rewritten.
fn refresh_metadata<B: Backend>(b: &B, container: &Container, eof: u64, bytes: u64) -> Result<()> {
    container.remove_flattened(b)?;
    container.reset_metadir(b, eof, bytes)?;
    // A clip that lands inside a record rewrites `length` only and keeps
    // every log's size; truncate(0) + re-write can repeat the old sizes.
    container.bump_generation(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::Federation;
    use crate::memfs::MemFs;
    use crate::reader::ReadHandle;
    use crate::writer::{IndexPolicy, WriteHandle};
    use std::sync::Arc;

    fn build() -> (Arc<MemFs>, Container) {
        let b = Arc::new(MemFs::new());
        let cont = Container::new("/t", &Federation::single("/panfs", 2));
        for w in 0..3u64 {
            let mut h = WriteHandle::open(Arc::clone(&b), cont.clone(), w, IndexPolicy::WriteClose)
                .unwrap();
            for k in 0..4u64 {
                // Strided 100-byte blocks: writer w owns blocks k*3+w.
                h.write(
                    (k * 3 + w) * 100,
                    &Content::synthetic(w, 400).slice(k * 100, 100),
                    k + 1,
                )
                .unwrap();
            }
            h.close(9).unwrap();
        }
        (b, cont)
    }

    #[test]
    fn truncate_to_zero_empties_the_file() {
        let (b, cont) = build();
        truncate(&b, &cont, 0).unwrap();
        let mut r = ReadHandle::open_bounded(Arc::clone(&b), cont.clone(), Arc::default()).unwrap();
        assert_eq!(r.size(), 0);
        assert!(r.read(0, 100).unwrap().is_empty());
        assert_eq!(cont.cached_size(&b).unwrap(), Some(0));
        // Droppings gone.
        assert!(cont.list_writers(&b).unwrap().is_empty());
        // The file can be written again afterwards.
        let mut h =
            WriteHandle::open(Arc::clone(&b), cont.clone(), 7, IndexPolicy::WriteClose).unwrap();
        h.write(0, &Content::bytes(vec![9; 10]), 100).unwrap();
        h.close(101).unwrap();
        let mut r2 = ReadHandle::open_bounded(Arc::clone(&b), cont, Arc::default()).unwrap();
        assert_eq!(r2.read(0, 10).unwrap(), vec![9; 10]);
    }

    #[test]
    fn truncate_mid_entry_clips_it() {
        let (b, cont) = build();
        // Full size is 1200; cut at 450 — mid-way through block 4
        // (offsets 400..500, owned by writer 1's k=1... block index 4 = k*3+w → k=1,w=1).
        truncate(&b, &cont, 450).unwrap();
        let mut r = ReadHandle::open_bounded(Arc::clone(&b), cont.clone(), Arc::default()).unwrap();
        assert_eq!(r.size(), 450);
        // Bytes below the cut are intact.
        let got = r.read(400, 50).unwrap();
        let want = Content::synthetic(1, 400).slice(100, 50).materialize();
        assert_eq!(got, want);
        // Reads past the cut return nothing.
        assert!(r.read(450, 100).unwrap().is_empty());
        // Stat agrees.
        assert_eq!(cont.cached_size(&b).unwrap(), Some(450));
    }

    #[test]
    fn a_clip_inside_a_record_keeps_every_size_and_advances_the_generation() {
        let (b, cont) = build();
        let before = cont.probe_index(&b).unwrap().unwrap();
        let cache = Arc::default();
        let index_before = before.load(&b, &cache).unwrap();
        // 1150 cuts the last block (1100..1200) in half: no record is
        // dropped, one is shortened, and every log keeps its length.
        truncate(&b, &cont, 1150).unwrap();
        let after = cont.probe_index(&b).unwrap().unwrap();
        assert_eq!(before.stamp().sizes(), after.stamp().sizes());
        assert_ne!(before.stamp(), after.stamp());
        let index_after = after.load(&b, &cache).unwrap();
        assert_ne!(index_before.mem(), index_after.mem());
    }

    #[test]
    fn truncate_records_surviving_bytes_in_metadir() {
        let (b, cont) = build();
        truncate(&b, &cont, 450).unwrap();
        // 450 logical bytes survive the clip (4 whole blocks + half of
        // block 4), and the single fresh record must say so — not 0.
        let metadir = format!("{}/metadir", cont.canonical_path());
        let names = crate::backend::Backend::list(&*b, &metadir).unwrap();
        assert_eq!(names, vec!["meta.450.450.0".to_string()]);
        // fsck agrees with the record.
        let report = crate::fsck::check(&b, &cont).unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
    }

    #[test]
    fn truncate_drops_whole_entries_beyond_cut() {
        let (b, cont) = build();
        truncate(&b, &cont, 300).unwrap();
        // Each writer's index log now holds only its block(s) below 300.
        let entries0 = cont.read_index_log(&b, 0).unwrap();
        assert_eq!(entries0.len(), 1); // writer 0's block at 0..100
        let entries2 = cont.read_index_log(&b, 2).unwrap();
        assert_eq!(entries2.len(), 1); // writer 2's block at 200..300
    }

    #[test]
    fn truncate_invalidates_flattened_index() {
        let b = Arc::new(MemFs::new());
        let cont = Container::new("/t", &Federation::single("/panfs", 2));
        let mut handles = Vec::new();
        for w in 0..2u64 {
            let mut h = WriteHandle::open(
                Arc::clone(&b),
                cont.clone(),
                w,
                IndexPolicy::Flatten {
                    threshold_entries: 10,
                },
            )
            .unwrap();
            h.write(w * 100, &Content::synthetic(w, 100), w + 1)
                .unwrap();
            handles.push(h);
        }
        assert!(crate::writer::flatten_close(&b, &cont, handles, 9).unwrap());
        truncate(&b, &cont, 100).unwrap();
        assert!(cont.read_flattened(&b).unwrap().is_none());
        let r = ReadHandle::open_bounded(Arc::clone(&b), cont.clone(), Arc::default()).unwrap();
        assert_eq!(r.size(), 100);
        // fsck agrees the container is consistent post-truncate.
        let report = crate::fsck::check(&b, &cont).unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
    }

    #[test]
    fn truncate_rejects_open_writers_and_missing_files() {
        let (b, cont) = build();
        let h =
            WriteHandle::open(Arc::clone(&b), cont.clone(), 9, IndexPolicy::WriteClose).unwrap();
        assert!(matches!(
            truncate(&b, &cont, 0),
            Err(PlfsError::Unsupported(_))
        ));
        h.close(99).unwrap();
        truncate(&b, &cont, 0).unwrap();

        let missing = Container::new("/nope", &Federation::single("/panfs", 2));
        assert!(matches!(
            truncate(&b, &missing, 0),
            Err(PlfsError::NotFound(_))
        ));
    }

    #[test]
    fn truncate_beyond_eof_is_a_noop_for_data() {
        let (b, cont) = build();
        truncate(&b, &cont, 10_000).unwrap();
        let mut r = ReadHandle::open_bounded(Arc::clone(&b), cont, Arc::default()).unwrap();
        // All original data still resolves.
        assert_eq!(r.size(), 1200);
        let got = r.read(0, 100).unwrap();
        assert_eq!(got, Content::synthetic(0, 400).slice(0, 100).materialize());
    }
}

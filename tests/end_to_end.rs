//! End-to-end byte-verified integration tests of the PLFS middleware over
//! real backends (MemFs and LocalFs), spanning container, index, writer,
//! reader, federation, and VFS layers together.

#![allow(
    clippy::unwrap_used,
    clippy::panic,
    clippy::disallowed_methods,
    reason = "test code: a failed unwrap or panic is the test's failure report; setup and checks call one backend op at a time"
)]

mod common;

use common::TempDir;
use plfs::backend::NodeKind;
use plfs::faults::{FaultBackend, FaultConfig};
use plfs::writer::{flatten_close, IndexPolicy, WriteHandle};
use plfs::reader::ReadHandle;
use plfs::vfs::LogicalKind;
use plfs::fsck::{self, Issue};
use plfs::{
    Backend, Container, Content, Federation, IndexEntry, LocalFs, MemFs, Plfs, PlfsConfig,
    PlfsError,
};
use std::sync::Arc;

/// The classic checkpoint: N writers, strided blocks, full read-back.
fn checkpoint_roundtrip<B: Backend + Clone>(backend: B, fed: &Federation) {
    let writers = 8u64;
    let blocks = 16u64;
    let block = 4096u64;
    let cont = Container::new("/run1/ckpt", fed);

    let mut handles = Vec::new();
    for w in 0..writers {
        let mut h =
            WriteHandle::open(backend.clone(), cont.clone(), w, IndexPolicy::WriteClose).unwrap();
        let stream = Content::synthetic(w, blocks * block);
        for k in 0..blocks {
            let logical = (k * writers + w) * block;
            h.write(logical, &stream.slice(k * block, block), k + 1).unwrap();
        }
        handles.push(h);
    }
    for h in handles {
        h.close(99).unwrap();
    }

    let mut r = ReadHandle::open_bounded(backend.clone(), cont, Arc::default()).unwrap();
    assert_eq!(r.size(), writers * blocks * block);
    // Every byte of every block comes back from the right writer.
    for w in 0..writers {
        for k in 0..blocks {
            let logical = (k * writers + w) * block;
            let got = r.read(logical, block).unwrap();
            let want = Content::synthetic(w, blocks * block).slice(k * block, block);
            assert!(
                Content::bytes(got).same_bytes(&want),
                "writer {w} block {k} mismatch"
            );
        }
    }
    // A giant read spanning everything also works.
    let all = r.read(0, writers * blocks * block).unwrap();
    assert_eq!(all.len() as u64, writers * blocks * block);
}

#[test]
fn checkpoint_roundtrip_memfs_single_namespace() {
    checkpoint_roundtrip(Arc::new(MemFs::new()), &Federation::single("/panfs", 4));
}

#[test]
fn checkpoint_roundtrip_memfs_federated() {
    let fed = Federation::new(
        (0..5).map(|i| format!("/vol{i}")).collect(),
        16,
        true,
        true,
    );
    checkpoint_roundtrip(Arc::new(MemFs::new()), &fed);
}

#[test]
fn checkpoint_roundtrip_localfs() {
    let dir = TempDir::new("plfs-e2e");
    let backend = LocalFs::new(dir.path()).unwrap();
    checkpoint_roundtrip(backend, &Federation::single("/", 4));
}

#[test]
fn all_read_strategies_see_identical_bytes() {
    // Write once with Flatten (so a flattened index exists), then read
    // four ways: flattened through a mount and without one (both
    // bounded), forced aggregation, and a "parallel" hierarchical merge —
    // all must agree byte-for-byte.
    let backend = Arc::new(MemFs::new());
    let fed = Federation::single("/panfs", 4);
    let cont = Container::new("/f", &fed);
    let writers = 6u64;
    let block = 1024u64;

    let mut handles = Vec::new();
    for w in 0..writers {
        let mut h = WriteHandle::open(
            Arc::clone(&backend),
            cont.clone(),
            w,
            IndexPolicy::Flatten {
                threshold_entries: 1000,
            },
        )
        .unwrap();
        for k in 0..10u64 {
            h.write((k * writers + w) * block, &Content::synthetic(w * 7 + 1, block), k)
                .unwrap();
        }
        handles.push(h);
    }
    assert!(flatten_close(&backend, &cont, handles, 50).unwrap());

    // 1: flattened, without a mount and through one.
    let cache = Arc::default();
    let mut r1 = ReadHandle::open_bounded(Arc::clone(&backend), cont.clone(), cache).unwrap();
    let fs = Plfs::new(Arc::clone(&backend), PlfsConfig::basic("/panfs")).unwrap();
    let mut r4 = fs.open_read("/f").unwrap();
    assert!(r4.index().is_none(), "the mount reads a flattened file bounded");
    // 2: forced per-log aggregation (Original).
    let resolved = cont.subdirs_phys_batch(&backend).unwrap();
    let writer_ids = cont.list_writers(&backend).unwrap();
    let runs = cont.read_index_runs(&backend, &resolved, &writer_ids, 1).unwrap();
    let idx2 = plfs::GlobalIndex::from_runs(&runs, false);
    let mut r2 = ReadHandle::open(Arc::clone(&backend), cont.clone(), idx2);
    // 3: hierarchical partial merges (Parallel Index Read, two groups).
    let group = |parity| {
        let logs: Vec<_> = (0..writers)
            .filter(|w| w % 2 == parity)
            .map(|w| cont.read_index_log(&backend, w).unwrap())
            .collect();
        plfs::GlobalIndex::from_runs(&logs, false).to_entries()
    };
    let idx3 = plfs::GlobalIndex::from_runs(&[group(0), group(1)], false);
    let mut r3 = ReadHandle::open(Arc::clone(&backend), cont.clone(), idx3);

    let total = writers * 10 * block;
    let a = r1.read(0, total).unwrap();
    let b = r2.read(0, total).unwrap();
    let c = r3.read(0, total).unwrap();
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(r4.read(0, total).unwrap(), a);
}

#[test]
fn vfs_full_lifecycle_over_federation() {
    let fed = Federation::new(
        (0..3).map(|i| format!("/vol{i}")).collect(),
        8,
        true,
        true,
    );
    let fs = Plfs::new(
        Arc::new(MemFs::new()),
        PlfsConfig {
            federation: fed,
            index_policy: IndexPolicy::WriteClose,
        },
    )
    .unwrap();

    fs.mkdir("/campaign").unwrap();
    // Several files, several writers each.
    for f in 0..6 {
        let path = format!("/campaign/ckpt.{f}");
        for w in 0..4u64 {
            let mut h = fs.open_write(&path, w).unwrap();
            h.write(w * 100, &Content::synthetic(w, 100), fs.timestamp())
                .unwrap();
            h.close(fs.timestamp()).unwrap();
        }
    }
    // Logical listing sees all six as files.
    let listing = fs.readdir("/campaign").unwrap();
    assert_eq!(listing.len(), 6);
    assert!(listing.iter().all(|(_, k)| *k == LogicalKind::File));

    // Stat and read each.
    for f in 0..6 {
        let path = format!("/campaign/ckpt.{f}");
        assert_eq!(fs.stat(&path).unwrap().size, 400);
        let mut r = fs.open_read(&path).unwrap();
        // A read spanning writers 1 and 2 stitches their streams.
        let bytes = r.read(150, 100).unwrap();
        let mut want = Content::synthetic(1, 100).slice(50, 50).materialize();
        want.extend(Content::synthetic(2, 100).slice(0, 50).materialize());
        assert_eq!(bytes, want);
        let b0 = r.read(0, 100).unwrap();
        assert!(Content::bytes(b0).same_bytes(&Content::synthetic(0, 100)));
    }

    // Rename one and delete another.
    fs.rename("/campaign/ckpt.0", "/campaign/final").unwrap();
    fs.unlink("/campaign/ckpt.1").unwrap();
    let names: Vec<String> = fs
        .readdir("/campaign")
        .unwrap()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(names.contains(&"final".to_string()));
    assert!(!names.contains(&"ckpt.0".to_string()));
    assert!(!names.contains(&"ckpt.1".to_string()));
    let r = fs.open_read("/campaign/final").unwrap();
    assert_eq!(r.size(), 400);
}

#[test]
fn overwrite_semantics_match_timestamps_across_writers() {
    let backend = Arc::new(MemFs::new());
    let fed = Federation::single("/panfs", 2);
    let cont = Container::new("/hot", &fed);
    // Writer 0 writes the whole region early; writer 1 overwrites the
    // middle later; writer 2 overwrites a sliver of writer 1 even later.
    let mut h0 = WriteHandle::open(Arc::clone(&backend), cont.clone(), 0, IndexPolicy::WriteClose).unwrap();
    let mut h1 = WriteHandle::open(Arc::clone(&backend), cont.clone(), 1, IndexPolicy::WriteClose).unwrap();
    let mut h2 = WriteHandle::open(Arc::clone(&backend), cont.clone(), 2, IndexPolicy::WriteClose).unwrap();
    h0.write(0, &Content::bytes(vec![0xAA; 1000]), 10).unwrap();
    h1.write(300, &Content::bytes(vec![0xBB; 400]), 20).unwrap();
    h2.write(450, &Content::bytes(vec![0xCC; 100]), 30).unwrap();
    h0.close(40).unwrap();
    h1.close(40).unwrap();
    h2.close(40).unwrap();

    let mut r = ReadHandle::open_bounded(Arc::clone(&backend), cont, Arc::default()).unwrap();
    let got = r.read(0, 1000).unwrap();
    assert!(got[..300].iter().all(|&b| b == 0xAA));
    assert!(got[300..450].iter().all(|&b| b == 0xBB));
    assert!(got[450..550].iter().all(|&b| b == 0xCC));
    assert!(got[550..700].iter().all(|&b| b == 0xBB));
    assert!(got[700..].iter().all(|&b| b == 0xAA));
}

#[test]
fn sparse_files_read_zeros_in_holes() {
    let fs = Plfs::new(Arc::new(MemFs::new()), PlfsConfig::basic("/panfs")).unwrap();
    let mut w = fs.open_write("/sparse", 0).unwrap();
    w.write(1 << 20, &Content::bytes(vec![1; 10]), 1).unwrap();
    w.close(2).unwrap();
    let mut r = fs.open_read("/sparse").unwrap();
    assert_eq!(r.size(), (1 << 20) + 10);
    let pre = r.read((1 << 20) - 100, 100).unwrap();
    assert_eq!(pre, vec![0u8; 100]);
}

#[test]
fn restart_with_different_reader_count_is_byte_faithful() {
    // Write with 8 "processes"; read back with 3 readers that partition
    // the logical file arbitrarily — the logical view is geometry-free.
    let backend = Arc::new(MemFs::new());
    let fed = Federation::single("/panfs", 4);
    let cont = Container::new("/geom", &fed);
    let writers = 8u64;
    let block = 512u64;
    let blocks = 6u64;
    for w in 0..writers {
        let mut h =
            WriteHandle::open(Arc::clone(&backend), cont.clone(), w, IndexPolicy::WriteClose)
                .unwrap();
        let stream = Content::synthetic(w, blocks * block);
        for k in 0..blocks {
            h.write((k * writers + w) * block, &stream.slice(k * block, block), k + 1)
                .unwrap();
        }
        h.close(99).unwrap();
    }
    let total = writers * blocks * block;
    // Three readers with ragged partitions.
    let cuts = [0u64, total / 3 + 7, 2 * total / 3 - 13, total];
    let mut assembled = Vec::new();
    for r in 0..3 {
        let mut reader =
            ReadHandle::open_bounded(Arc::clone(&backend), cont.clone(), Arc::default()).unwrap();
        assembled.extend(reader.read(cuts[r], cuts[r + 1] - cuts[r]).unwrap());
    }
    // Reference: one reader reading everything.
    let mut whole = ReadHandle::open_bounded(Arc::clone(&backend), cont, Arc::default()).unwrap();
    assert_eq!(assembled, whole.read(0, total).unwrap());
}

#[test]
fn service_over_a_real_directory() {
    use plfs::service::{Service, ServiceConfig};
    let dir = TempDir::new("plfs-svc");
    let svc = Service::new(LocalFs::new(dir.path()).unwrap(), ServiceConfig::basic("/")).unwrap();
    let open = |h: plfs::Result<plfs::Admitted<plfs::SvcHandle>>| h.unwrap().granted().unwrap();

    // Two "processes" open the same file and write interleaved regions.
    let a = open(svc.open_write("t", "/log"));
    let b = open(svc.open_write("t", "/log"));
    for k in 0..8u64 {
        let (pa, pb) = (vec![0xA0 + k as u8; 64], vec![0xB0 + k as u8; 64]);
        svc.append(a, k * 128, &Content::bytes(pa)).unwrap();
        svc.append(b, k * 128 + 64, &Content::bytes(pb)).unwrap();
    }
    svc.close(a).unwrap();
    svc.close(b).unwrap();

    let r = open(svc.open_read("t", "/log"));
    let read = |off| svc.read(r, off, 64).unwrap().granted().unwrap();
    for k in 0..8u64 {
        assert_eq!(read(k * 128), vec![0xA0 + k as u8; 64]);
        assert_eq!(read(k * 128 + 64), vec![0xB0 + k as u8; 64]);
    }
    svc.close(r).unwrap();
    assert_eq!(svc.open_handles(), 0);
}

#[test]
fn vfs_truncate_then_extend() {
    let fs = Plfs::new(Arc::new(MemFs::new()), PlfsConfig::basic("/panfs")).unwrap();
    let mut w = fs.open_write("/t", 0).unwrap();
    w.write(0, &Content::synthetic(1, 1000), 1).unwrap();
    w.close(2).unwrap();
    fs.truncate("/t", 400).unwrap();
    assert_eq!(fs.stat("/t").unwrap().size, 400);
    // Extend again past the cut: new data plus the preserved prefix.
    let mut w2 = fs.open_write("/t", 5).unwrap();
    w2.write(400, &Content::bytes(vec![7; 100]), 50).unwrap();
    w2.close(51).unwrap();
    let mut r = fs.open_read("/t").unwrap();
    assert_eq!(r.size(), 500);
    assert_eq!(
        r.read(0, 400).unwrap(),
        Content::synthetic(1, 1000).slice(0, 400).materialize()
    );
    assert_eq!(r.read(400, 100).unwrap(), vec![7; 100]);
}

/// An index record whose logical extent overflows `u64` is corrupt: a
/// read-open refuses it by log and record instead of serving a wrapped
/// EOF, fsck reports it as a dangling extent, and repair drops that
/// record alone.
#[test]
fn an_index_record_whose_extent_overflows_is_refused_then_repaired() {
    let backend = Arc::new(MemFs::new());
    let mount = || Plfs::new(Arc::clone(&backend), PlfsConfig::basic("/panfs")).unwrap();
    let data = Content::synthetic(3, 100);
    let mut w = mount().open_write("/f", 0).unwrap();
    w.write(0, &data, 1).unwrap();
    w.close(2).unwrap();
    let cont = mount().container("/f");
    let bad = IndexEntry {
        logical_offset: u64::MAX - 5,
        length: 10,
        physical_offset: 0,
        writer: 0,
        timestamp: 3,
    };
    let log = cont.index_log(&*backend, 0).unwrap();
    backend.append(&log, &Content::bytes(bad.to_bytes().to_vec())).unwrap();

    match mount().open_read("/f") {
        Err(PlfsError::CorruptContainer(why)) => {
            assert!(why.contains(&log) && why.contains("record 1"), "{why}")
        }
        other => panic!("open_read: {:?}", other.map(|r| r.size())),
    }
    let report = fsck::check(&*backend, &cont).unwrap();
    let dangling = Issue::DanglingExtent {
        writer: 0,
        entry: bad,
        data_log_size: 100,
    };
    assert_eq!(report.issues, vec![dangling]);
    assert_eq!(report.logical_size, 100);
    let outcome = fsck::repair(&*backend, &cont).unwrap();
    assert!(outcome.fully_repaired(), "{:?}", outcome.unrepaired);
    let mut r = mount().open_read("/f").unwrap();
    assert_eq!(r.size(), 100);
    assert!(Content::bytes(r.read(0, 100).unwrap()).same_bytes(&data));
}

/// A transient fault has no effect by contract, so it must not fail the
/// open of a writer that lands in a subdir another writer already
/// shadowed into a foreign namespace: the metalink is resolved through
/// the retried batch path like every other subdir probe. Nor may it fail
/// the first writer's open, which appends the metalink's body: that
/// append is retried like any other op, so it never leaves an empty
/// metalink for later writers and fsck to trip over.
#[test]
fn writer_open_in_a_shadowed_subdir_survives_transient_metalink_reads() {
    let namespaces = ["/ns0", "/ns1", "/ns2"].map(String::from).to_vec();
    let cont = Container::new("/f", &Federation::new(namespaces, 2, false, true));
    let flaky_cfg = |seed| FaultConfig {
        seed,
        transient_prob: 0.5,
        torn_append_prob: 0.0,
    };
    for seed in 0..40 {
        let mem = Arc::new(MemFs::new());
        let flaky = Arc::new(FaultBackend::new(Arc::clone(&mem), flaky_cfg(seed)));
        for w in 0..4 {
            // The first two writers create the metalinks through faults.
            let b: Arc<dyn Backend> = if w < 2 { flaky.clone() } else { mem.clone() };
            let h = WriteHandle::open(b, cont.clone(), w, IndexPolicy::WriteClose);
            assert!(h.is_ok(), "seed {seed}, writer {w}: {:?}", h.err());
            h.unwrap().close(1).unwrap();
        }
        let report = fsck::check(&*mem, &cont).unwrap();
        assert!(report.issues.is_empty(), "seed {seed}: {:?}", report.issues);
    }
    for seed in 0..40 {
        let mem = Arc::new(MemFs::new());
        for w in 0..2 {
            let h = WriteHandle::open(Arc::clone(&mem), cont.clone(), w, IndexPolicy::WriteClose);
            h.unwrap().close(1).unwrap();
        }
        for i in 0..2 {
            let entry = format!("/ns0/f/subdir.{i}");
            assert_eq!(mem.kind(&entry).unwrap(), NodeKind::File, "{entry} is a metalink");
        }
        let flaky = Arc::new(FaultBackend::new(Arc::clone(&mem), flaky_cfg(seed)));
        for w in 2..4 {
            let h = WriteHandle::open(Arc::clone(&flaky), cont.clone(), w, IndexPolicy::WriteClose);
            assert!(h.is_ok(), "seed {seed}, writer {w}: {:?}", h.err());
        }
    }
}

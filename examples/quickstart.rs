//! Quickstart: PLFS as a library over a real directory.
//!
//! Creates a PLFS mount backed by a temporary directory on your file
//! system, writes one logical checkpoint file from four concurrent
//! "processes" using the classic N-1 strided pattern, and reads it back —
//! then shows the container structure PLFS actually created underneath.
//!
//! Run with: `cargo run --example quickstart`

use plfs::writer::IndexPolicy;
use plfs::{Content, Federation, LocalFs, Plfs, PlfsConfig};
use std::sync::Arc;

fn main() -> plfs::Result<()> {
    let root = std::env::temp_dir().join(format!("plfs-quickstart-{}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root)?;
    }

    // Mount: one namespace, four subdirs per container.
    let backend = Arc::new(LocalFs::new(&root)?);
    let fs = Plfs::new(
        Arc::clone(&backend),
        PlfsConfig {
            federation: Federation::single("/", 4),
            index_policy: IndexPolicy::WriteClose,
        },
    )?;

    // --- N-1 write phase: 4 writers, strided 1 KiB blocks, 8 each ------
    const WRITERS: u64 = 4;
    const BLOCK: u64 = 1024;
    const BLOCKS_PER_WRITER: u64 = 8;

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let fs = &fs;
        let mut h = fs.open_write("/ckpt.0001", w)?;
        let stream = Content::synthetic(w, BLOCKS_PER_WRITER * BLOCK);
        for k in 0..BLOCKS_PER_WRITER {
            let logical = (k * WRITERS + w) * BLOCK;
            // Each writer's payload is a recognizable synthetic stream.
            h.write(logical, &stream.slice(k * BLOCK, BLOCK), fs.timestamp())?;
        }
        handles.push(h);
    }
    for h in handles {
        h.close(fs.timestamp())?;
    }
    println!("wrote /ckpt.0001: {} writers × {} blocks of {} B (N-1 strided)",
        WRITERS, BLOCKS_PER_WRITER, BLOCK);

    // --- read-back: logical view is intact ------------------------------
    let stat = fs.stat("/ckpt.0001")?;
    println!("logical size: {} bytes (from metadir cache: {})", stat.size, stat.from_cache);
    assert_eq!(stat.size, WRITERS * BLOCKS_PER_WRITER * BLOCK);

    let mut r = fs.open_read("/ckpt.0001")?;
    for w in 0..WRITERS {
        for k in 0..BLOCKS_PER_WRITER {
            let logical = (k * WRITERS + w) * BLOCK;
            let bytes = r.read(logical, BLOCK)?;
            let expect = Content::synthetic(w, BLOCKS_PER_WRITER * BLOCK).slice(k * BLOCK, BLOCK);
            assert!(
                Content::bytes(bytes).same_bytes(&expect),
                "block ({w},{k}) corrupted"
            );
        }
    }
    println!("read back all {} blocks: every byte matches its writer's stream", WRITERS * BLOCKS_PER_WRITER);
    if let Some(idx) = r.index() {
        println!("global index resolved {} spans", idx.span_count());
    }

    // --- what PLFS actually put on disk ---------------------------------
    println!("\ncontainer structure under {}:", root.display());
    let container = root.join("ckpt.0001");
    let mut entries: Vec<_> = std::fs::read_dir(&container)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    for e in &entries {
        println!("  ckpt.0001/{e}");
        let sub = container.join(e);
        if sub.is_dir() {
            let mut inner: Vec<_> = std::fs::read_dir(&sub)?
                .filter_map(|x| x.ok())
                .map(|x| format!("{} ({} B)", x.file_name().to_string_lossy(), x.metadata().map(|m| m.len()).unwrap_or(0)))
                .collect();
            inner.sort();
            for i in inner {
                println!("      {i}");
            }
        }
    }

    // The logical file is one name; readdir shows it as a file.
    let listing = fs.readdir("/")?;
    println!("\nlogical view: {listing:?}");

    std::fs::remove_dir_all(&root)?;
    println!("\nok: logical N-1 file stored as physical N-N logs, byte-verified.");
    Ok(())
}

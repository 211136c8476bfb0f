//! End-to-end demo of the middleware over a real directory, driven through
//! the mount API (`Plfs::{open_write, open_read, stat}`).
//!
//! N writers strided-write one shared logical file (the classic N-1
//! checkpoint pattern), then a reader opens it, which aggregates the
//! per-writer index logs into the global index and serves byte-verified
//! reads from the data logs.
//!
//! ```text
//! cargo run -p plfs --example localfs_demo -- <root-dir> [writers] [blocks] [block-bytes] [--corrupt]
//! ```
//!
//! With `--corrupt`, one data log is truncated on disk after the writers
//! close, demonstrating that a reader surfaces the damage as a
//! `CorruptContainer` error instead of returning short data.

use plfs::{Content, LocalFs, Plfs, PlfsConfig};
use std::time::Instant;

fn pattern(offset: u64) -> u8 {
    (offset % 251) as u8
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let corrupt = args.iter().any(|a| a == "--corrupt");
    let pos: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let Some(root) = pos.first() else {
        eprintln!("usage: localfs_demo <root-dir> [writers] [blocks] [block-bytes] [--corrupt]");
        std::process::exit(2);
    };
    let writers: u64 = pos.get(1).map_or(4, |s| s.parse().expect("writers"));
    let blocks: u64 = pos.get(2).map_or(8, |s| s.parse().expect("blocks"));
    let bs: u64 = pos.get(3).map_or(4096, |s| s.parse().expect("block-bytes"));

    let backend = LocalFs::new(root).expect("backend root");
    let fs = Plfs::new(backend, PlfsConfig::basic("/")).expect("mount");

    // Phase 1: N-1 strided write. Writer w owns every w-th block.
    let t0 = Instant::now();
    for w in 0..writers {
        let mut handle = fs.open_write("/ckpt", 1000 + w).expect("open write");
        for b in 0..blocks {
            let off = (b * writers + w) * bs;
            let buf: Vec<u8> = (off..off + bs).map(pattern).collect();
            handle
                .write(off, &Content::bytes(buf), fs.timestamp())
                .expect("write");
        }
        handle.close(fs.timestamp()).expect("close writer");
    }
    let total = writers * blocks * bs;
    println!(
        "wrote {total} bytes as {writers} writers x {blocks} blocks x {bs} B in {:?}",
        t0.elapsed()
    );

    if corrupt {
        // Truncate one data log behind the middleware's back.
        let victim = walk_find(root, "dropping.data").expect("find a data log");
        let len = std::fs::metadata(&victim).expect("stat").len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .expect("open victim");
        f.set_len(len / 2).expect("truncate");
        println!(
            "truncated {} from {len} to {} bytes",
            victim.display(),
            len / 2
        );
    }

    // Phase 2: open for read (aggregates the index) and verify every byte.
    let t1 = Instant::now();
    let mut reader = match fs.open_read("/ckpt") {
        Ok(reader) => reader,
        Err(e) => {
            println!("open for read failed: {e}");
            std::process::exit(1);
        }
    };
    let open_t = t1.elapsed();
    let size = fs.stat("/ckpt").expect("stat").size;
    let mut got = Vec::with_capacity(size as usize);
    let mut off = 0u64;
    while off < size {
        let chunk = (size - off).min(1 << 20);
        match reader.read(off, chunk) {
            Ok(buf) => {
                off += buf.len() as u64;
                got.extend_from_slice(&buf);
            }
            Err(e) => {
                println!("read at {off} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let bad = got
        .iter()
        .enumerate()
        .find(|(i, &b)| b != pattern(*i as u64));
    match bad {
        None => println!(
            "read {size} bytes back (open {open_t:?}, read {:?}): every byte verified",
            t1.elapsed() - open_t
        ),
        Some((i, &b)) => {
            println!("MISMATCH at {i}: got {b}, want {}", pattern(i as u64));
            std::process::exit(1);
        }
    }
}

/// Find a file whose name starts with `prefix` anywhere under `root`.
fn walk_find(root: &str, prefix: &str) -> Option<std::path::PathBuf> {
    let mut stack = vec![std::path::PathBuf::from(root)];
    while let Some(dir) = stack.pop() {
        for ent in std::fs::read_dir(&dir).ok()?.flatten() {
            let p = ent.path();
            if p.is_dir() {
                stack.push(p);
            } else if p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix))
            {
                return Some(p);
            }
        }
    }
    None
}

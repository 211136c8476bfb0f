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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let corrupt = args.iter().any(|a| a == "--corrupt");
    let pos: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let Some(root) = pos.first() else {
        eprintln!("usage: localfs_demo <root-dir> [writers] [blocks] [block-bytes] [--corrupt]");
        std::process::exit(2);
    };
    let writers = number(&pos, 1, "writers", 4)?;
    let blocks = number(&pos, 2, "blocks", 8)?;
    let bs = number(&pos, 3, "block-bytes", 4096)?;

    let backend = LocalFs::new(root)?;
    let fs = Plfs::new(backend, PlfsConfig::basic("/"))?;

    // Phase 1: N-1 strided write. Writer w owns every w-th block.
    let t0 = Instant::now();
    for w in 0..writers {
        let mut handle = fs.open_write("/ckpt", 1000 + w)?;
        for b in 0..blocks {
            let off = (b * writers + w) * bs;
            let buf: Vec<u8> = (off..off + bs).map(pattern).collect();
            handle.write(off, &Content::bytes(buf), fs.timestamp())?;
        }
        handle.close(fs.timestamp())?;
    }
    let total = writers * blocks * bs;
    println!(
        "wrote {total} bytes as {writers} writers x {blocks} blocks x {bs} B in {:?}",
        t0.elapsed()
    );

    if corrupt {
        // Truncate one data log behind the middleware's back.
        let victim = walk_find(root, "dropping.data").ok_or("no data log to truncate")?;
        let len = std::fs::metadata(&victim)?.len();
        let f = std::fs::OpenOptions::new().write(true).open(&victim)?;
        f.set_len(len / 2)?;
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
    let size = fs.stat("/ckpt")?.size;
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
    Ok(())
}

/// Positional argument `i` as a number, `default` when it is absent.
fn number(pos: &[&String], i: usize, name: &str, default: u64) -> Result<u64, String> {
    pos.get(i).map_or(Ok(default), |s| {
        s.parse().map_err(|e| format!("{name}: {e}"))
    })
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

//! `plfsctl` — inspect and repair PLFS containers on a real file system,
//! in the spirit of the original `plfs_map`/`plfs_check` tools.
//!
//! ```text
//! plfsctl ls    <mount-root>                 list logical files/dirs
//! plfsctl stat  <mount-root> <logical>       logical size and writer count
//! plfsctl map   <mount-root> <logical>       print the index the logs resolve to
//! plfsctl check <mount-root> <logical>       fsck one container
//! plfsctl repair <mount-root> <logical>      fsck + mechanical repairs
//! plfsctl cat   <mount-root> <logical>       write logical bytes to stdout
//! plfsctl truncate <mount-root> <logical> <size>   logical truncate
//! plfsctl du    <mount-root> <logical>       physical vs logical space
//! plfsctl index inspect <mount-root> <logical>   spanidx header/fence summary
//! plfsctl obs   [--json]                     telemetry demo: spans/counters/histograms
//! ```
//!
//! `obs` enables the telemetry plane (DESIGN.md §5f), drives a built-in
//! in-memory write/read round trip through the real middleware, and
//! prints the resulting span tree, counters, and latency histograms —
//! as a human-readable tree by default, or as machine-readable JSON
//! with `--json`.
//!
//! `--io-stats` (any command, any position) turns telemetry recording on
//! for the command and prints the I/O plane's totals to stderr after it:
//! ops vs batches (the coalesce ratio), transient retries, and bytes
//! moved.
//!
//! The mount root is an ordinary directory (single-namespace federation,
//! like a one-volume PLFS mount). Subdir count is auto-detected from the
//! container when possible.

use plfs::fsck;
use plfs::reader::ReadHandle;
use plfs::writer::{IndexPolicy, WriteHandle};
use plfs::{container, ioplane, Container, Federation, IoOp, LocalFs, Plfs, PlfsConfig, PlfsError};
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: plfsctl <ls|stat|map|check|repair|cat|truncate|du> <mount-root> [logical-path] [size]\n\
         \x20      plfsctl index inspect <mount-root> <logical-path>\n\
         \x20      plfsctl obs [--json]"
    );
    ExitCode::from(2)
}

/// `plfsctl obs`: run a built-in in-memory write/read round trip with the
/// telemetry plane enabled and print the captured snapshot (DESIGN.md §5f).
///
/// The workload is the classic strided checkpoint in miniature — 4 writers
/// each writing 8 interleaved 4 KiB blocks into one container, flatten-closed,
/// then read back in full *and* re-read through the memory-bounded open — so
/// the span tree shows the real write path
/// (`write.open`/`write.append`/`write.flush`/`write.close`), the read
/// fan-out (`read.open` → `index.aggregate` → `index.merge`), the I/O
/// plane underneath (`ioplane.submit` spans plus per-op latency histograms),
/// the `spancache.*` hit/miss/eviction counters of the bounded read
/// path (DESIGN.md §5j), the `index.cache.*` counters of two opens
/// through a mount (§5l), and — once the flattened index is dropped and
/// a third open aggregates the logs — the `index.progression_logs` that
/// aggregation decoded and the `index.interleave_groups` it formed
/// (§5b).
fn cmd_obs(args: &[String]) -> ExitCode {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            _ => return usage(),
        }
    }

    let writers = 4u64;
    let blocks = 8u64;
    let block = 4096u64;
    let backend = std::sync::Arc::new(plfs::MemFs::new());
    let fed = Federation::single("/", 2);
    let cont = Container::new("/obs/demo", &fed);

    plfs::telemetry::reset();
    plfs::telemetry::set_enabled(true);
    let run = (|| -> plfs::Result<()> {
        let mut handles = Vec::new();
        for w in 0..writers {
            let mut h = WriteHandle::open(
                std::sync::Arc::clone(&backend),
                cont.clone(),
                w,
                IndexPolicy::Flatten {
                    threshold_entries: 1024,
                },
            )?;
            let stream = plfs::Content::synthetic(w, blocks * block);
            for k in 0..blocks {
                let logical = (k * writers + w) * block;
                h.write(logical, &stream.slice(k * block, block), k + 1)?;
            }
            handles.push(h);
        }
        plfs::writer::flatten_close(&std::sync::Arc::clone(&backend), &cont, handles, 99)?;
        // Twice through a mount, whose readers share one index: the first
        // `read.open` opens the flattened index bounded
        // (`index.cache.misses`) and its reads miss the span cache; the
        // second only stamps (`index.cache.hits`) and reads the windows
        // the first fetched (DESIGN.md §5j, §5l).
        let fs = Plfs::new(
            std::sync::Arc::clone(&backend),
            PlfsConfig {
                federation: fed,
                index_policy: IndexPolicy::WriteClose,
            },
        )?;
        for _ in 0..2 {
            let mut r = fs.open_read("/obs/demo")?;
            let size = r.size();
            r.read(0, size)?;
        }
        cont.remove_flattened(&*backend)?;
        let mut r = fs.open_read("/obs/demo")?;
        let size = r.size();
        r.read(0, size)?;
        Ok(())
    })();
    plfs::telemetry::set_enabled(false);
    if let Err(e) = run {
        eprintln!("plfsctl obs: round trip failed: {e}");
        return ExitCode::FAILURE;
    }

    let snap = plfs::telemetry::snapshot();
    if json {
        print!("{}", snap.render_json());
    } else {
        print!("{}", snap.render_tree());
    }
    ExitCode::SUCCESS
}

/// `plfsctl index inspect`: print the spanidx header and fence summary
/// for one container's flattened index (DESIGN.md §5j) — what a
/// memory-bounded read open materializes, versus the whole index.
fn cmd_index(args: &[String]) -> ExitCode {
    let (Some(sub), Some(root), Some(logical)) = (args.first(), args.get(1), args.get(2)) else {
        return usage();
    };
    if sub != "inspect" || args.len() != 3 {
        return usage();
    }
    let backend = match LocalFs::new(root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("plfsctl: cannot open mount root {root}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cont = open_container(&backend, logical);
    let flat = cont.flattened_path();
    let size = ioplane::submit_one(&backend, IoOp::Size { path: flat.clone() });
    if let Err(PlfsError::NotFound(_)) = size {
        println!("{logical}: no flattened index (reads aggregate per-writer index logs)");
        return ExitCode::SUCCESS;
    }
    let read = |len| {
        let op = IoOp::ReadAt {
            path: flat.clone(),
            offset: 0,
            len,
        };
        ioplane::as_data(ioplane::submit_one(&backend, op))
    };
    let bytes = match ioplane::as_size(size).and_then(read) {
        Ok(c) => c.materialize(),
        Err(e) => {
            eprintln!("plfsctl: cannot read {flat}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match formats::spanidx::describe(&bytes) {
        Ok(summary) => {
            println!("{logical}: {flat}");
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{logical}: invalid flattened index: {e} (plfsctl repair removes it)");
            ExitCode::FAILURE
        }
    }
}

/// `logical`'s container under the mount root, its subdir count read off
/// the `subdir.<i>` entries it holds.
fn open_container(backend: &LocalFs, logical: &str) -> Container {
    let cont = Container::new(logical, &Federation::single("/", 1));
    let listing = IoOp::Readdir {
        path: cont.canonical_path().into(),
    };
    let names = ioplane::as_names(ioplane::submit_one(backend, listing)).unwrap_or_default();
    let subdirs = names.iter().filter_map(|e| container::subdir_index(e)).max();
    Container::new(logical, &Federation::single("/", subdirs.map_or(1, |i| i + 1)))
}

fn main() -> ExitCode {
    // `--io-stats` (any position): record the command, then print the I/O
    // plane's totals to stderr — batches vs ops shows how well the
    // command's backend traffic coalesced.
    let mut args: Vec<String> = std::env::args().collect();
    let io_stats = args.iter().any(|a| a == "--io-stats");
    args.retain(|a| a != "--io-stats");
    plfs::telemetry::set_enabled(io_stats);
    let code = dispatch(&args);
    if io_stats {
        let s = plfs::ioplane::stats();
        eprintln!(
            "io-plane: {} op(s) in {} batch(es) (coalesce {:.1}), {} retried, {} B written, {} B read",
            s.ops,
            s.batches,
            s.coalesce_ratio(),
            s.retries,
            s.bytes_written,
            s.bytes_read
        );
    }
    code
}

fn dispatch(args: &[String]) -> ExitCode {
    if args.get(1).map(String::as_str) == Some("obs") {
        return cmd_obs(&args[2..]);
    }
    if args.get(1).map(String::as_str) == Some("index") {
        return cmd_index(&args[2..]);
    }
    if args.len() < 3 {
        return usage();
    }
    let cmd = args[1].as_str();
    let root = &args[2];
    let backend = match LocalFs::new(root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("plfsctl: cannot open mount root {root}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match (cmd, args.get(3)) {
        ("ls", _) => {
            let logical = args.get(3).map(String::as_str).unwrap_or("/");
            let fs = match Plfs::new(backend, PlfsConfig::basic("/")) {
                Ok(fs) => fs,
                Err(e) => {
                    eprintln!("plfsctl: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match fs.readdir(logical) {
                Ok(entries) => {
                    for (name, kind) in entries {
                        let tag = match kind {
                            plfs::vfs::LogicalKind::File => "f",
                            plfs::vfs::LogicalKind::Dir => "d",
                        };
                        println!("{tag} {name}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("plfsctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("stat", Some(logical)) => {
            let cont = open_container(&backend, logical);
            match fsck::check(&backend, &cont) {
                Ok(r) => {
                    println!("logical size : {} bytes", r.logical_size);
                    println!("writers      : {}", r.writers.len());
                    println!("index spans  : {}", r.spans);
                    println!("issues       : {}", r.issues.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("plfsctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("map", Some(logical)) => {
            let cont = open_container(&backend, logical);
            // The logs at the sizes one probe stamps, never the flattened
            // index.
            let aggregated = cont.probe_index(&backend).and_then(|probe| match probe {
                Some(probe) => probe.aggregate(&backend),
                None => Err(PlfsError::NotFound(logical.clone())),
            });
            match aggregated {
                Ok(idx) => {
                    println!("# logical_offset length writer physical_offset");
                    for e in idx.to_entries() {
                        println!(
                            "{:>14} {:>8} {:>6} {:>14}",
                            e.logical_offset, e.length, e.writer, e.physical_offset
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("plfsctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("check", Some(logical)) => {
            let cont = open_container(&backend, logical);
            match fsck::check(&backend, &cont) {
                Ok(r) if r.is_clean() => {
                    println!("{logical}: clean ({} writers, {} bytes)", r.writers.len(), r.logical_size);
                    ExitCode::SUCCESS
                }
                Ok(r) => {
                    for issue in &r.issues {
                        println!("{logical}: {issue:?}");
                    }
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("plfsctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("repair", Some(logical)) => {
            let cont = open_container(&backend, logical);
            match fsck::repair(&backend, &cont) {
                Ok(r) => {
                    for issue in &r.fixed {
                        println!("{logical}: fixed {issue:?}");
                    }
                    for tail in &r.trimmed_tails {
                        println!(
                            "{logical}: trimmed {} unreferenced tail bytes from writer {}'s data log",
                            tail.physical_bytes - tail.indexed_bytes,
                            tail.writer
                        );
                    }
                    for issue in &r.unrepaired {
                        println!("{logical}: UNREPAIRED {issue:?}");
                    }
                    if r.fully_repaired() {
                        println!(
                            "{logical}: clean ({} writers, {} bytes)",
                            r.post.writers.len(),
                            r.post.logical_size
                        );
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("plfsctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("du", Some(logical)) => {
            let cont = open_container(&backend, logical);
            match fsck::space_usage(&backend, &cont) {
                Ok(u) => {
                    println!("logical    : {} bytes", u.logical_bytes);
                    println!("data logs  : {} bytes", u.data_bytes);
                    println!("index logs : {} bytes", u.index_bytes);
                    println!("flattened  : {} bytes", u.flattened_bytes);
                    println!("dead       : {} bytes", u.dead_bytes);
                    println!("physical   : {} bytes", u.physical_bytes());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("plfsctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("truncate", Some(logical)) => {
            let Some(size) = args.get(4).and_then(|s| s.parse::<u64>().ok()) else {
                return usage();
            };
            let cont = open_container(&backend, logical);
            match plfs::truncate::truncate(&backend, &cont, size) {
                Ok(()) => {
                    println!("{logical}: truncated to {size} bytes");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("plfsctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("cat", Some(logical)) => {
            let cont = open_container(&backend, logical);
            let mut r = match ReadHandle::open_bounded(backend, cont, Default::default()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("plfsctl: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let size = r.size();
            let mut out = std::io::stdout();
            let mut off = 0u64;
            while off < size {
                let chunk = (size - off).min(1 << 20);
                match r.read(off, chunk) {
                    Ok(bytes) => {
                        if out.write_all(&bytes).is_err() {
                            return ExitCode::FAILURE;
                        }
                    }
                    Err(e) => {
                        eprintln!("plfsctl: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                off += chunk;
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

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
//! plfsctl lint  [flags] [workspace-root]     run the static invariant checker
//! plfsctl obs   [--json]                     telemetry demo: spans/counters/histograms
//! ```
//!
//! `lint` flags: `--json` (machine-readable output), `--deny-warnings`
//! (warnings fail the gate), `--baseline <file>` (ratchet check against
//! committed pragma and `#[expect(clippy::..)]` counts),
//! `--write-baseline <file>` (regenerate the
//! baseline). Exit codes: 0 clean, 1 findings (or warnings under
//! `--deny-warnings`, or a baseline ratchet violation), 2 usage/config.
//!
//! `obs` enables the telemetry plane (DESIGN.md §5f), drives a built-in
//! in-memory write/read round trip through the real middleware, and
//! prints the resulting span tree, counters, and latency histograms —
//! as a human-readable tree by default, or as machine-readable JSON
//! with `--json`.
//!
//! `--io-stats` (any command, any position) prints the I/O plane's
//! per-op counters to stderr after the command: ops vs batches (the
//! coalesce ratio), transient retries, and bytes moved. Reading the
//! stats is non-destructive: the counters keep accumulating for the
//! life of the process. Pass `--reset` alongside it to zero the
//! counters *after* they are printed (the printed values are always
//! the pre-reset totals); `--reset` without `--io-stats` zeroes them
//! silently.
//!
//! The mount root is an ordinary directory (single-namespace federation,
//! like a one-volume PLFS mount). Subdir count is auto-detected from the
//! container when possible.

use plfs::fsck;
use plfs::reader::ReadHandle;
use plfs::writer::{IndexPolicy, WriteHandle};
use plfs::{Container, Federation, GlobalIndex, LocalFs, Plfs, PlfsConfig};
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: plfsctl <ls|stat|map|check|repair|cat|truncate|du> <mount-root> [logical-path] [size]\n\
         \x20      plfsctl index inspect <mount-root> <logical-path>\n\
         \x20      plfsctl lint [--json] [--deny-warnings] [--baseline <file>] [--write-baseline <file>] [--root <dir>] [--design <file>] [workspace-root]\n\
         \x20      plfsctl obs [--json]"
    );
    ExitCode::from(2)
}

/// `plfsctl lint`: run the workspace invariant checker (DESIGN.md §5d).
fn cmd_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut deny_warnings = false;
    let mut baseline: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut root: Option<String> = None;
    let mut design: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--baseline" => match it.next() {
                Some(f) => baseline = Some(f.clone()),
                None => return usage(),
            },
            "--write-baseline" => match it.next() {
                Some(f) => write_baseline = Some(f.clone()),
                None => return usage(),
            },
            "--root" => match it.next() {
                Some(d) => {
                    if root.replace(d.clone()).is_some() {
                        return usage();
                    }
                }
                None => return usage(),
            },
            "--design" => match it.next() {
                Some(f) => design = Some(f.clone()),
                None => return usage(),
            },
            flag if flag.starts_with('-') => return usage(),
            path => {
                if root.replace(path.to_string()).is_some() {
                    return usage();
                }
            }
        }
    }
    let mut cfg = plfs_lint::LintConfig::new(root.unwrap_or_else(|| ".".into()));
    cfg.design_doc = design.map(Into::into);
    let report = match plfs_lint::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("plfsctl lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &write_baseline {
        let text = plfs_lint::report::render_baseline(&report);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("plfsctl lint: cannot write baseline {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote baseline to {path}");
    }
    let mut ratchet_violations = Vec::new();
    if let Some(path) = &baseline {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let budgets = plfs_lint::report::parse_baseline(&text);
                ratchet_violations = plfs_lint::report::check_baseline(&report, &budgets);
            }
            Err(e) => {
                eprintln!("plfsctl lint: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
        for v in &ratchet_violations {
            println!("error[baseline]: {v}");
        }
    }
    let failed = !report.findings.is_empty()
        || !ratchet_violations.is_empty()
        || (deny_warnings && !report.warnings.is_empty());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
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
    let subdirs = detect_subdirs(&backend, logical);
    let cont = Container::new(logical, &Federation::single("/", subdirs));
    let flat = cont.flattened_path();
    use plfs::Backend as _;
    if !backend.exists(&flat) {
        println!("{logical}: no flattened index (reads aggregate per-writer index logs)");
        return ExitCode::SUCCESS;
    }
    let bytes = match backend.size(&flat).and_then(|len| backend.read_at(&flat, 0, len)) {
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

/// Detect how many subdirs a container uses by scanning its entries.
fn detect_subdirs(backend: &LocalFs, logical: &str) -> usize {
    let cont = Container::new(logical, &Federation::single("/", 1));
    let mut max = 0usize;
    if let Ok(entries) = plfs::Backend::list(backend, cont.canonical_path()) {
        for e in entries {
            if let Some(n) = e.strip_prefix("subdir.") {
                if let Ok(i) = n.parse::<usize>() {
                    max = max.max(i + 1);
                }
            }
        }
    }
    max.max(1)
}

fn main() -> ExitCode {
    // `--io-stats` (any position): after the command, print the I/O
    // plane's per-op counters to stderr — batches vs ops shows how well
    // the command's backend traffic coalesced. Reading the stats never
    // zeroes them; `--reset` zeroes the counters after any printing, so
    // the printed numbers are always the pre-reset totals.
    let mut args: Vec<String> = std::env::args().collect();
    let io_stats = args.iter().any(|a| a == "--io-stats");
    let reset = args.iter().any(|a| a == "--reset");
    args.retain(|a| a != "--io-stats" && a != "--reset");
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
    if reset {
        plfs::ioplane::reset_stats();
    }
    code
}

fn dispatch(args: &[String]) -> ExitCode {
    if args.get(1).map(String::as_str) == Some("lint") {
        return cmd_lint(&args[2..]);
    }
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
            let subdirs = detect_subdirs(&backend, logical);
            let cont = Container::new(logical, &Federation::single("/", subdirs));
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
            let subdirs = detect_subdirs(&backend, logical);
            let cont = Container::new(logical, &Federation::single("/", subdirs));
            let aggregated = cont.subdirs_phys_batch(&backend).and_then(|resolved| {
                let writers = cont.list_writers(&backend)?;
                let runs = cont.read_index_runs(&backend, &resolved, &writers, 1)?;
                Ok(GlobalIndex::from_runs(&runs, true))
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
            let subdirs = detect_subdirs(&backend, logical);
            let cont = Container::new(logical, &Federation::single("/", subdirs));
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
            let subdirs = detect_subdirs(&backend, logical);
            let cont = Container::new(logical, &Federation::single("/", subdirs));
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
            let subdirs = detect_subdirs(&backend, logical);
            let cont = Container::new(logical, &Federation::single("/", subdirs));
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
            let subdirs = detect_subdirs(&backend, logical);
            let cont = Container::new(logical, &Federation::single("/", subdirs));
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
            let subdirs = detect_subdirs(&backend, logical);
            let cont = Container::new(logical, &Federation::single("/", subdirs));
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

//! Integration test of the `plfsctl` CLI against a real on-disk mount.

#![allow(
    clippy::unwrap_used,
    clippy::panic,
    clippy::disallowed_methods,
    reason = "test code: a failed unwrap or panic is the test's failure report; setup and checks call one backend op at a time"
)]

mod common;

use common::TempDir;
use plfs::writer::{IndexPolicy, WriteHandle};
use plfs::{Container, Content, Federation, LocalFs};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_plfsctl")
}

/// A three-writer container on a mount of its own: the tests in this
/// file run in parallel and some of them corrupt or truncate it.
fn make_mount() -> TempDir {
    let dir = TempDir::new("plfsctl-test");
    let backend = LocalFs::new(dir.path()).unwrap();
    let fed = Federation::single("/", 4);
    let cont = Container::new("/ckpt", &fed);
    for w in 0..3u64 {
        let mut h = WriteHandle::open(backend.clone(), cont.clone(), w, IndexPolicy::WriteClose)
            .unwrap();
        for k in 0..4u64 {
            h.write((k * 3 + w) * 64, &Content::synthetic(w, 64), k + 1)
                .unwrap();
        }
        h.close(9).unwrap();
    }
    dir
}

#[test]
fn ls_stat_map_check_cat_roundtrip() {
    let dir = make_mount();
    let root = dir.path().to_str().unwrap();

    let ls = Command::new(bin()).args(["ls", root]).output().unwrap();
    assert!(ls.status.success());
    assert!(String::from_utf8_lossy(&ls.stdout).contains("f ckpt"));

    let stat = Command::new(bin())
        .args(["stat", root, "/ckpt"])
        .output()
        .unwrap();
    assert!(stat.status.success());
    let stat_out = String::from_utf8_lossy(&stat.stdout).to_string();
    assert!(stat_out.contains("logical size : 768 bytes"), "{stat_out}");
    assert!(stat_out.contains("writers      : 3"), "{stat_out}");

    let map = Command::new(bin())
        .args(["map", root, "/ckpt"])
        .output()
        .unwrap();
    assert!(map.status.success());
    // 12 spans: 3 writers × 4 blocks.
    assert_eq!(String::from_utf8_lossy(&map.stdout).lines().count(), 13);

    let check = Command::new(bin())
        .args(["check", root, "/ckpt"])
        .output()
        .unwrap();
    assert!(check.status.success());
    assert!(String::from_utf8_lossy(&check.stdout).contains("clean"));

    let cat = Command::new(bin())
        .args(["cat", root, "/ckpt"])
        .output()
        .unwrap();
    assert!(cat.status.success());
    assert_eq!(cat.stdout.len(), 768);
    // First 64 bytes are writer 0's stream head.
    assert_eq!(cat.stdout[..64], Content::synthetic(0, 64).materialize());
}

#[test]
fn check_flags_corruption_and_repair_fixes_it() {
    let dir = make_mount();
    let root = dir.path().to_str().unwrap();
    // Truncate an index log mid-record.
    let backend = LocalFs::new(dir.path()).unwrap();
    let cont = Container::new("/ckpt", &Federation::single("/", 4));
    let ipath = cont.index_log(&backend, 1).unwrap();
    use plfs::Backend;
    backend
        .append(&ipath, &Content::bytes(vec![0xAB; 7]))
        .unwrap();

    let check = Command::new(bin())
        .args(["check", root, "/ckpt"])
        .output()
        .unwrap();
    assert!(!check.status.success());
    assert!(String::from_utf8_lossy(&check.stdout).contains("TruncatedIndexLog"));

    let repair = Command::new(bin())
        .args(["repair", root, "/ckpt"])
        .output()
        .unwrap();
    assert!(repair.status.success(), "{:?}", repair);

    let again = Command::new(bin())
        .args(["check", root, "/ckpt"])
        .output()
        .unwrap();
    assert!(again.status.success());
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = Command::new(bin()).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn truncate_subcommand_works() {
    let dir = make_mount();
    let root = dir.path().to_str().unwrap();
    let out = Command::new(bin())
        .args(["truncate", root, "/ckpt", "300"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stat = Command::new(bin())
        .args(["stat", root, "/ckpt"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&stat.stdout).contains("logical size : 300 bytes"));
    // Missing size argument → usage error.
    let bad = Command::new(bin())
        .args(["truncate", root, "/ckpt"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn du_reports_overheads() {
    let dir = make_mount();
    let root = dir.path().to_str().unwrap();
    let out = Command::new(bin()).args(["du", root, "/ckpt"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("logical    : 768 bytes"), "{text}");
    assert!(text.contains("data logs  : 768 bytes"), "{text}");
    assert!(text.contains("index logs : 480 bytes"), "{text}"); // 12 records
    assert!(text.contains("dead       : 0 bytes"), "{text}");
}

#[test]
fn obs_emits_spans_counters_and_histograms() {
    // Human tree: the built-in round trip must surface at least one
    // span from each layer, plus counters and histograms.
    let out = Command::new(bin()).args(["obs"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for needle in [
        "spans:",
        "write.open",
        "read.open",
        "ioplane.submit",
        "counters:",
        "write.bytes",
        "index.progression_logs",
        "index.interleave_groups",
        "histograms:",
        "ioplane.batch",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    // Machine JSON: same acceptance (≥1 span, ≥1 counter, ≥1 histogram
    // for a write-read round trip), structurally sound enough to carry
    // the schema keys the README documents.
    let json = Command::new(bin()).args(["obs", "--json"]).output().unwrap();
    assert!(json.status.success(), "{json:?}");
    let text = String::from_utf8_lossy(&json.stdout).to_string();
    for needle in [
        "\"counters\"",
        "\"histograms\"",
        "\"span_stats\"",
        "\"spans\"",
        "\"dropped_spans\"",
        "\"write.bytes\"",
        "\"ioplane.batch\"",
        "\"read.open\"",
        "\"ge_ns\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    assert_eq!(
        text.matches('{').count(),
        text.matches('}').count(),
        "unbalanced JSON:\n{text}"
    );

    // Unknown flags are a usage error.
    let bad = Command::new(bin()).args(["obs", "--tree"]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn io_stats_flag_records_and_reports_the_commands_plane_totals() {
    let dir = make_mount();
    let root = dir.path().to_str().unwrap();
    // --io-stats (position-independent) turns recording on for the
    // command and prints the plane's totals to stderr after it; a stat
    // reads the container, so the totals cannot be zero.
    let out = Command::new(bin())
        .args(["stat", root, "--io-stats", "/ckpt"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("io-plane: "), "{err}");
    assert!(!err.contains("io-plane: 0 op(s)"), "{err}");
}

//! Trace fidelity: the simulation driver must issue the same *structural*
//! work as the real middleware.
//!
//! We run a small N-1 checkpoint + restart through the real `plfs` library
//! over a `TracingBackend` (counting metadata operations and data bytes),
//! then run the equivalent workload through the `mpio` PLFS simulation
//! driver, and compare:
//!
//! * **bytes written and read must match exactly** — the simulator moves
//!   the same data + index payload as the middleware;
//! * metadata operation counts must agree within a small tolerance
//!   (the library issues a few existence probes the cost model folds
//!   into neighbouring operations).
//!
//! This is the test that stops the cost model from silently drifting away
//! from what PLFS actually does.
//!
//! Known model differences, kept until the simulator runs the real
//! container code (ROADMAP item 14): both name container files with
//! `plfs::container`'s constants, but the simulator's metadir record is
//! `meta.<writer>`, the middleware's `meta.<eof>.<bytes>.<writer>` — the
//! simulator carries no sizes to encode in the name.

#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is the test's failure report"
)]

use mpio::ops::{FileTag, LogicalOp, Program, ReadSrc};
use mpio::{Ctx, Exec, Layout, PlfsDriver, PlfsDriverConfig, ReadStrategy};
use pfs::{PfsParams, SimPfs};
use plfs::reader::ReadHandle;
use plfs::writer::{IndexPolicy, WriteHandle};
use plfs::{Container, Content, Federation, IoOp, MemFs, Plfs, PlfsConfig, TracingBackend};
use simnet::{Interconnect, InterconnectParams};
use std::sync::Arc;

const WRITERS: usize = 4;
const BLOCKS: u64 = 10;
const BLOCK: u64 = 8192;

/// Run the checkpoint + restart through the real middleware; return
/// (metadata op count, data bytes appended, bytes read).
fn library_trace() -> (usize, u64, u64) {
    let traced = Arc::new(TracingBackend::new(MemFs::new()));
    let fed = Federation::single("/panfs", 4);
    let cont = Container::new("/ckpt", &fed);

    // Write phase: N writers, strided.
    let mut handles = Vec::new();
    for w in 0..WRITERS as u64 {
        let mut h =
            WriteHandle::open(Arc::clone(&traced), cont.clone(), w, IndexPolicy::WriteClose)
                .unwrap();
        for k in 0..BLOCKS {
            h.write(
                (k * WRITERS as u64 + w) * BLOCK,
                &Content::synthetic(w, BLOCK),
                k + 1,
            )
            .unwrap();
        }
        handles.push(h);
    }
    for h in handles {
        h.close(99).unwrap();
    }

    // Read phase, Original design: every reader mounts on its own and
    // aggregates every index log itself, then reads back the next rank's
    // blocks.
    for r in 0..WRITERS {
        let fs = Plfs::new(Arc::clone(&traced), PlfsConfig::basic("/panfs")).unwrap();
        let mut rh = fs.open_read("/ckpt").unwrap();
        let w = ((r + 1) % WRITERS) as u64;
        for k in 0..BLOCKS {
            let logical = (k * WRITERS as u64 + w) * BLOCK;
            rh.read(logical, BLOCK).unwrap();
        }
    }

    let trace = traced.take_trace();
    let meta_ops = trace.iter().filter(|op| op.is_metadata()).count();
    let written: u64 = trace
        .iter()
        .filter_map(|op| match op {
            IoOp::Append { content, .. } => Some(content.len()),
            _ => None,
        })
        .sum();
    let read: u64 = trace
        .iter()
        .filter_map(|op| match op {
            IoOp::ReadAt { len, .. } => Some(*len),
            _ => None,
        })
        .sum();
    (meta_ops, written, read)
}

/// The same checkpoint as a simulated job; returns (mds ops, bytes
/// written, bytes read) observed by the simulated file system.
fn simulated_trace() -> (u64, u64, u64) {
    let mut p = PfsParams::panfs_production(4);
    p.jitter_spread = 0.0;
    p.jitter_tail_prob = 0.0;
    let mut ctx = Ctx::new(
        SimPfs::new(p, 1),
        Interconnect::new(InterconnectParams::infiniband()),
        Layout::new(WRITERS, 1),
    );
    let fed = Federation::single("/panfs", 4);
    let mut d = PlfsDriver::new(PlfsDriverConfig::new(fed, ReadStrategy::Original));

    struct Ckpt;
    impl Program for Ckpt {
        fn len(&self, _r: usize) -> usize {
            7
        }
        fn op(&self, rank: usize, pc: usize) -> LogicalOp {
            let f = FileTag::shared("/ckpt");
            match pc {
                0 => LogicalOp::OpenWrite { file: f },
                1 => LogicalOp::Write {
                    file: f,
                    offset: rank as u64 * BLOCK,
                    len: BLOCK,
                    stride: WRITERS as u64 * BLOCK,
                    reps: BLOCKS,
                },
                2 => LogicalOp::CloseWrite { file: f },
                3 => LogicalOp::Barrier,
                4 => LogicalOp::OpenRead { file: f },
                5 => {
                    let w = ((rank + 1) % WRITERS) as u64;
                    LogicalOp::Read {
                        file: f,
                        offset: w * BLOCK,
                        len: BLOCK,
                        stride: WRITERS as u64 * BLOCK,
                        reps: BLOCKS,
                        src: Some(ReadSrc {
                            writer: w,
                            phys_offset: 0,
                        }),
                    }
                }
                _ => LogicalOp::CloseRead { file: f },
            }
        }
    }

    Exec::new(&Ckpt, &mut d, &mut ctx).run();
    // Metadata ops = everything the MDS served.
    let report = ctx.pfs.resource_report();
    let mds_ops: u64 = report
        .lines()
        .filter(|l| l.starts_with("mds["))
        .map(|l| {
            l.split("ops=")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0)
        })
        .sum();
    (mds_ops, ctx.pfs.bytes_written(), ctx.pfs.bytes_read())
}

#[test]
fn simulated_bytes_match_the_real_middleware_exactly() {
    let (_, lib_written, lib_read) = library_trace();
    let (_, sim_written, sim_read) = simulated_trace();
    assert_eq!(
        sim_written, lib_written,
        "simulated write bytes diverge from the real middleware"
    );
    assert_eq!(
        sim_read, lib_read,
        "simulated read bytes diverge from the real middleware"
    );
}

#[test]
fn simulated_metadata_op_count_tracks_the_real_middleware() {
    let (lib_meta, _, _) = library_trace();
    let (sim_meta, _, _) = simulated_trace();
    // The library issues extra existence probes (Kind/Size checks) the
    // cost model folds into neighbouring ops; allow a bounded gap.
    let lib = lib_meta as f64;
    let sim = sim_meta as f64;
    assert!(
        sim >= lib * 0.5 && sim <= lib * 1.5,
        "metadata op counts diverged: library {lib_meta}, simulated {sim_meta}"
    );
}

#[test]
fn library_trace_shows_n_squared_original_reads() {
    // Structural sanity of the trace itself: each of the N readers opens
    // and reads every one of the N index logs.
    let traced = Arc::new(TracingBackend::new(MemFs::new()));
    let fed = Federation::single("/panfs", 2);
    let cont = Container::new("/f", &fed);
    for w in 0..3u64 {
        let mut h =
            WriteHandle::open(Arc::clone(&traced), cont.clone(), w, IndexPolicy::WriteClose)
                .unwrap();
        h.write(w * 10, &Content::synthetic(w, 10), w).unwrap();
        h.close(9).unwrap();
    }
    traced.take_trace();
    for _ in 0..3 {
        let config = PlfsConfig {
            federation: fed.clone(),
            index_policy: IndexPolicy::WriteClose,
        };
        let fs = Plfs::new(Arc::clone(&traced), config).unwrap();
        fs.open_read("/f").unwrap();
    }
    let trace = traced.take_trace();
    let index_reads = trace
        .iter()
        .filter(|op| matches!(op, IoOp::ReadAt { path, .. } if path.contains("dropping.index")))
        .count();
    assert_eq!(index_reads, 9, "3 readers × 3 index logs");
}

#[test]
fn recorded_trace_replays_to_an_identical_op_sequence() {
    // The shared op vocabulary makes recordings replayable: feeding a
    // TracingBackend's trace back through `ioplane::replay` on a fresh
    // backend must issue the *same* op sequence (re-traced to prove it)
    // and reconstruct the same logical file.
    let record = |ops: Option<&[IoOp]>| -> (Vec<IoOp>, Vec<u8>) {
        let traced = Arc::new(TracingBackend::new(MemFs::new()));
        match ops {
            None => {
                let fed = Federation::single("/panfs", 2);
                let cont = Container::new("/f", &fed);
                for w in 0..3u64 {
                    let mut h = WriteHandle::open(
                        Arc::clone(&traced),
                        cont.clone(),
                        w,
                        IndexPolicy::WriteClose,
                    )
                    .unwrap();
                    h.write(w * 64, &Content::synthetic(w, 64), w + 1).unwrap();
                    h.close(9).unwrap();
                }
            }
            Some(ops) => {
                // Outcomes are deliberately not unwrapped: the recording
                // includes ops whose failure the middleware tolerated
                // (e.g. re-creating an existing container dir), and the
                // replay reproduces those failures identically.
                let _ = plfs::ioplane::replay(&*traced, ops);
            }
        }
        let trace = traced.take_trace();
        let fed = Federation::single("/panfs", 2);
        let c = Container::new("/f", &fed);
        let mut rh = ReadHandle::open_bounded(Arc::clone(&traced), c, Arc::default()).unwrap();
        let bytes = rh.read(0, 3 * 64).unwrap();
        (trace, bytes)
    };
    let (trace, bytes) = record(None);
    let (retrace, replay_bytes) = record(Some(&trace));
    assert_eq!(trace, retrace, "replay must issue the recorded op sequence");
    assert_eq!(bytes, replay_bytes, "replay must rebuild the same file");
}

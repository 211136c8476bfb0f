//! Crash a checkpoint writer mid-stream, then recover with fsck.
//!
//! A checkpoint layer earns its keep on the unhappy path. This example
//! records a strided N-1 checkpoint once over a [`plfs::TracingBackend`],
//! noting where in the trace each block was acknowledged as durable (its
//! index flushed). The middleware is synchronous, so a crash is a prefix
//! of that trace: the example cuts it at a chosen op, lands all but the
//! last byte of that op when it is an append (a torn final write),
//! replays the cut onto a fresh in-memory backend — the storage a killed
//! job leaves behind — and walks the operator's recovery playbook:
//!
//! 1. `fsck::check` — name the damage the dead writers left behind;
//! 2. `fsck::repair` — fix what is mechanical, report the rest;
//! 3. read back — every block acknowledged before the cut comes back
//!    byte-exact; nothing is invented.
//!
//! `tests/crash_states.rs` runs the same playbook on every cut of every
//! scenario; this is one of them, narrated.
//!
//! Run with: `cargo run --release --example crash_recovery [cut-op]`
//! (the default cut tears the job's last index flush).

use plfs::{fsck, ioplane, Content, IoOp, MemFs, Plfs, PlfsConfig, TracingBackend};
use std::sync::Arc;

const BLOCK: u64 = 4096;
const WRITERS: u64 = 4;
const ROUNDS: u64 = 8;

fn main() -> plfs::Result<()> {
    println!("== checkpointing: {WRITERS} writers, strided {BLOCK}-byte blocks ==");
    let traced = Arc::new(TracingBackend::new(MemFs::new()));
    let trace = traced.trace_handle();
    let fs = Plfs::new(Arc::clone(&traced), PlfsConfig::basic("/panfs"))?;
    let mut handles = (0..WRITERS)
        .map(|w| fs.open_write("/ckpt", w))
        .collect::<plfs::Result<Vec<_>>>()?;
    // A write is only durable once a flush_index covering it succeeded:
    // `(trace length at that flush, block)` for every durable block.
    let mut acked: Vec<(usize, u64)> = Vec::new();
    let mut buffered: Vec<Vec<u64>> = vec![Vec::new(); WRITERS as usize];
    for k in 0..ROUNDS {
        for w in 0..WRITERS as usize {
            let block = k * WRITERS + w as u64;
            let h = &mut handles[w];
            h.write(block * BLOCK, &Content::synthetic(block, BLOCK), block + 1)?;
            buffered[w].push(block);
            if k % 2 == 1 {
                h.flush_index()?;
                let at = trace.lock().len();
                acked.extend(buffered[w].drain(..).map(|b| (at, b)));
            }
        }
    }
    drop(handles); // the job dies before any writer closes
    let ops = traced.take_trace();

    let cut = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .or_else(|| {
            (0..ops.len()).rev().find(|&i| {
                matches!(&ops[i], IoOp::Append { path, .. } if path.contains("dropping.index."))
            })
        })
        .unwrap_or(ops.len())
        .min(ops.len());

    // The crash: `ops[..cut]` landed, and op `cut` but for its last byte
    // if it appends.
    let backend = Arc::new(MemFs::new());
    ioplane::replay(&*backend, &ops[..cut]);
    if let Some(IoOp::Append { path, content }) = ops.get(cut) {
        let (path, content) = (path.clone(), content.slice(0, content.len() - 1));
        println!("crashed inside op {cut} of {}: {path} torn", ops.len());
        ioplane::replay(&*backend, &[IoOp::Append { path, content }]);
    } else {
        println!("crashed before op {cut} of {}", ops.len());
    }

    let container = fs.container("/ckpt");
    println!("\n== fsck: what did the crash leave behind? ==");
    for issue in fsck::check(&backend, &container)?.issues {
        println!("  issue: {issue:?}");
    }

    println!("\n== repair ==");
    let outcome = fsck::repair(&backend, &container)?;
    for issue in &outcome.fixed {
        println!("  fixed: {issue:?}");
    }
    println!(
        "  trimmed {} unreferenced data-log tails",
        outcome.trimmed_tails.len()
    );
    assert!(
        outcome.fully_repaired(),
        "repair must converge: {outcome:?}"
    );

    println!("\n== restart: read back every durable block ==");
    let restarted = Plfs::new(Arc::clone(&backend), PlfsConfig::basic("/panfs"))?;
    let mut r = restarted.open_read("/ckpt")?;
    let durable = acked.iter().filter(|&&(at, _)| at <= cut).count() as u64;
    for &(_, block) in acked.iter().filter(|&&(at, _)| at <= cut) {
        let got = r.read(block * BLOCK, BLOCK)?;
        let want = Content::synthetic(block, BLOCK).materialize();
        assert_eq!(got, want, "durable block {block} must survive recovery");
    }
    let lost = WRITERS * ROUNDS - durable;
    println!("verified {durable} durable blocks byte-exact; {lost} blocks were never");
    println!("acknowledged, so recovery may drop them — lost work is bounded by the");
    println!("flush interval, and recovery never invents a byte.");
    Ok(())
}

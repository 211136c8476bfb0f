//! `ckpt_n1_mem` and `ckpt_restart_local`: the N-1 strided checkpoint
//! through `Plfs::open_write` / `write` / `close`.
//!
//! `ckpt_n1_mem` writes over a fresh `MemFs` per round, first under
//! `IndexPolicy::WriteClose`, then the same shape under
//! `IndexPolicy::Flatten` closed with `writer::flatten_close` — the
//! writer, its index buffering and the I/O plane against the cheapest
//! backend there is. `ckpt_restart_local` runs the same write path and
//! then a restart over `LocalFs` in a directory of the checkout, so the
//! backend does most of the work and the writer little: a win on one that
//! costs the other shows on the other. One thread issues for all the
//! logical writers (see `Ckpt::threads2_speedup` for why).

use super::{on_threads, under_root, Pattern, Round, Traced, Workload};
use crate::metrics::Metrics;
use crate::stats::{self, Samples};
use crate::timed::{CounterSnapshot, Role, TimedBackend, Trips};
use crate::trace;
use plfs::index::{GlobalIndex, IndexEntry};
use plfs::reader::ReadHandle;
use plfs::writer::{flatten_close, IndexPolicy, WriteHandle};
use plfs::{Backend, Federation, LocalFs, MemFs, Plfs, PlfsConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub(super) const PATH: &str = "/ckpt";
/// Bytes per `read` call of a restart or read-back.
pub(super) const READ_CHUNK: u64 = 1 << 20;

pub struct Ckpt {
    pat: Arc<Pattern>,
    /// Run the Flatten panel after the WriteClose panel.
    flatten_panel: bool,
    /// `LocalFs` root, and how many restart readers follow the write.
    local: Option<PathBuf>,
    readers: usize,
    round_no: u64,
    /// Byte-for-byte read-back of the most recent WriteClose container,
    /// run once after the last round.
    read_back: Option<Box<dyn FnOnce() -> (u64, u64)>>,
    // Sums over the traced rounds.
    device: CounterSnapshot,
    close_trips: Trips,
    open_trips: Trips,
    read_trips: Trips,
}

/// What one thread (or the restart) brought back from a panel.
#[derive(Default)]
pub(super) struct Part {
    pub lat: Vec<u64>,
    pub close_ns: u64,
    /// What the closes sent across the timed boundary.
    pub close_trips: Trips,
    pub attempted: u64,
    pub failed: u64,
}

impl Ckpt {
    /// 64 logical writers, 2,048 x 1 KiB blocks each: 128 MiB and 131,072
    /// index records per panel.
    pub fn n1_mem(seed: u64) -> Ckpt {
        Ckpt::new(Pattern::new(seed, 64, 2048, 1024), true, None, 0)
    }

    /// 16 writers, 128 x 64 KiB blocks each (128 MiB), then 2 readers
    /// that each open and read the whole file.
    pub fn restart_local(seed: u64) -> Ckpt {
        let root = PathBuf::from(format!("benchmark/out/local-{}", std::process::id()));
        Ckpt::new(Pattern::new(seed, 16, 128, 65536), false, Some(root), 2)
    }

    fn new(pat: Pattern, flatten_panel: bool, local: Option<PathBuf>, readers: usize) -> Ckpt {
        Ckpt {
            pat: Arc::new(pat),
            flatten_panel,
            local,
            readers,
            round_no: 0,
            read_back: None,
            device: CounterSnapshot::default(),
            close_trips: Trips::default(),
            open_trips: Trips::default(),
            read_trips: Trips::default(),
        }
    }

    pub(super) fn config(flatten: bool) -> PlfsConfig {
        PlfsConfig {
            federation: Federation::single("/pfs", 4),
            index_policy: if flatten {
                IndexPolicy::Flatten {
                    threshold_entries: usize::MAX,
                }
            } else {
                IndexPolicy::WriteClose
            },
        }
    }
}

/// Write the whole pattern through `fs` from `threads` threads; returns
/// what the threads gathered, the wall time from the first `open_write`
/// to the last close returning, and the `flatten_close` time. Without
/// `flatten` every writer closes on its own thread; with it the handles
/// come back and one `flatten_close` closes them all.
pub(super) fn write_panel<B: Backend + Clone>(
    fs: &Plfs<B>,
    pat: &Pattern,
    threads: usize,
    flatten: bool,
) -> (Part, u64, u64) {
    let t0 = Instant::now();
    let parts = on_threads(threads, |t| {
        let mut part = Part::default();
        let mine: Vec<u64> = (t as u64..pat.writers).step_by(threads).collect();
        let mut handles: Vec<(u64, WriteHandle<B>)> = Vec::with_capacity(mine.len());
        for &w in &mine {
            part.attempted += 1;
            match trace::timed("writer.open", || fs.open_write(PATH, w)).0 {
                Ok(h) => handles.push((w, h)),
                Err(_) => part.failed += 1,
            }
        }
        part.lat.reserve(handles.len() * pat.blocks as usize);
        for k in 0..pat.blocks {
            for (w, h) in &mut handles {
                let (r, ns) = trace::timed("writer.write", || {
                    h.write(pat.offset(*w, k), pat.payload(*w, k), fs.timestamp())
                });
                part.lat.push(ns);
                part.attempted += 1;
                part.failed += u64::from(r.is_err());
            }
        }
        if flatten {
            return (part, handles);
        }
        for (_, h) in handles.drain(..) {
            let (r, ns) = part
                .close_trips
                .around(|| trace::timed("writer.close", || h.close(fs.timestamp())));
            part.close_ns += ns;
            part.attempted += 1;
            part.failed += u64::from(r.is_err());
        }
        (part, handles)
    });
    let mut all = Part::default();
    let mut handles = Vec::new();
    for (p, h) in parts {
        all.lat.extend(p.lat);
        all.close_ns += p.close_ns;
        all.close_trips.add(p.close_trips);
        all.attempted += p.attempted;
        all.failed += p.failed;
        handles.extend(h.into_iter().map(|(_, h)| h));
    }
    let mut flatten_ns = 0;
    if flatten {
        let container = fs.container(PATH);
        let (r, ns) = under_root(|| {
            trace::timed("writer.flatten_close", || {
                flatten_close(fs.backend(), &container, handles, fs.timestamp())
            })
        });
        flatten_ns = ns;
        all.attempted += 1;
        all.failed += u64::from(!matches!(r, Ok(true)));
    }
    (all, t0.elapsed().as_nanos() as u64, flatten_ns)
}

impl Ckpt {
    /// Both panels (and the restart) of one round over backend `b`.
    fn run<B: Backend + Clone + 'static>(
        &mut self,
        mut mk: impl FnMut() -> B,
        traced: bool,
        lat: &mut Samples,
    ) -> Round {
        self.read_back = None;
        let t0 = Instant::now();
        let mut round = Round::default();
        let pat = Arc::clone(&self.pat);
        let mb = pat.file_bytes() as f64 / 1e6;

        let fs = Plfs::new(mk(), Ckpt::config(false)).expect("mount");
        let (part, write_ns, _) = write_panel(&fs, &pat, 1, false);
        lat.extend(&part.lat);
        round.ops = pat.writers * pat.blocks;
        round.ops_ns = write_ns;
        round.attempted += part.attempted;
        round.failed += part.failed;
        round
            .axis
            .push(("axis.write_mb_s", mb / (write_ns as f64 / 1e9)));
        round
            .axis
            .push(("axis.close_ms", part.close_ns as f64 / 1e6));
        if traced {
            self.close_trips.add(part.close_trips);
        }

        if self.readers > 0 {
            let r = restart(&fs, &pat, self.readers);
            round.attempted += r.attempted;
            round.failed += r.failed;
            round.axis.push(("axis.read_open_ms", r.open_ms()));
            round.axis.push((
                "axis.read_mb_s",
                r.read_mb_s(self.readers as u64 * pat.file_bytes()),
            ));
            if traced {
                self.open_trips.add(r.open_trips);
                self.read_trips.add(r.read_trips);
            }
        } else {
            let pat = Arc::clone(&pat);
            self.read_back = Some(Box::new(move || {
                let r = restart(&fs, &pat, 1);
                (r.attempted, r.failed)
            }));
        }

        if self.flatten_panel {
            let fs = Plfs::new(mk(), Ckpt::config(true)).expect("mount");
            let (part, _, flatten_ns) = write_panel(&fs, &pat, 1, true);
            round.attempted += part.attempted;
            round.failed += part.failed;
            round
                .axis
                .push(("axis.flatten_close_ms", flatten_ns as f64 / 1e6));
            // The flattened index is read back once per set-up, in the
            // warm-up round: it costs as much as the panel itself.
            if self.round_no == 0 {
                let r = restart(&fs, &self.pat, 1);
                round.attempted += r.attempted;
                round.failed += r.failed;
            }
        }
        self.round_no += 1;
        round.wall_ns = t0.elapsed().as_nanos() as u64;
        round
    }
}

/// What reading brought back: one entry per open, one per `read` call.
#[derive(Default)]
pub(super) struct ReadPart {
    pub open_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub open_trips: Trips,
    pub read_trips: Trips,
    pub attempted: u64,
    pub failed: u64,
}

impl ReadPart {
    /// Median open, milliseconds.
    pub fn open_ms(&self) -> f64 {
        stats::median(
            &self
                .open_ns
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// `bytes` over the time spent inside `read` calls, MB/s.
    pub fn read_mb_s(&self, bytes: u64) -> f64 {
        bytes as f64 / 1e6 / (self.read_ns.iter().sum::<u64>() as f64 / 1e9)
    }

    /// Time one open; a failed one is counted and yields nothing.
    pub fn open<R>(&mut self, open: impl FnOnce() -> plfs::Result<R>) -> Option<R> {
        let (opened, ns) = self.open_trips.around(|| trace::timed("reader.open", open));
        self.open_ns.push(ns);
        self.attempted += 1;
        self.failed += u64::from(opened.is_err());
        opened.ok()
    }

    /// Time one `read` of `len` bytes at `off` and compare every byte
    /// with the pattern.
    pub fn read<B: Backend>(&mut self, r: &mut ReadHandle<B>, pat: &Pattern, off: u64, len: u64) {
        let (data, ns) = self
            .read_trips
            .around(|| trace::timed("reader.read", || r.read(off, len)));
        self.read_ns.push(ns);
        self.attempted += 1;
        let good = matches!(&data, Ok(d) if d.len() as u64 == len && pat.matches(off, d));
        self.failed += u64::from(!good);
    }

    /// Open through `Plfs::open_read` (aggregating unless a flattened
    /// index exists), then read `[from, to)` in [`READ_CHUNK`] calls.
    pub fn open_and_read<B: Backend + Clone>(
        &mut self,
        fs: &Plfs<B>,
        pat: &Pattern,
        from: u64,
        to: u64,
    ) {
        let Some(mut r) = self.open(|| fs.open_read(PATH)) else {
            return;
        };
        let mut off = from;
        while off < to {
            let len = READ_CHUNK.min(to - off);
            self.read(&mut r, pat, off, len);
            off += len;
        }
    }
}

/// `readers` times, one after the other: open the file and read all of it.
fn restart<B: Backend + Clone>(fs: &Plfs<B>, pat: &Pattern, readers: usize) -> ReadPart {
    under_root(|| {
        let mut out = ReadPart::default();
        for _ in 0..readers {
            out.open_and_read(fs, pat, 0, pat.file_bytes());
        }
        out
    })
}

impl Ckpt {
    /// Write rate with the writers striped over two threads, over the
    /// rate with one thread issuing for all of them (untraced, WriteClose,
    /// alternating). The end-to-end rounds use one thread: two contend
    /// for the backend's lock, run at about half the one-thread rate, and
    /// which regime of that contention a process settles into moved the
    /// rate by a fifth from run to run. This ratio keeps the contended
    /// number on record without letting it set the bounded metrics.
    fn threads2_speedup(&self) -> f64 {
        let rate = |threads| {
            let fs = Plfs::new(Arc::new(MemFs::new()), Ckpt::config(false)).expect("mount");
            let (_, ns, _) = write_panel(&fs, &self.pat, threads, false);
            1e9 / ns as f64
        };
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            one.push(rate(1));
            two.push(rate(2));
        }
        stats::median(&two) / stats::median(&one)
    }

    /// `GlobalIndex::merge_streamed` called directly on this pattern's
    /// per-writer indices — what `flatten_close` spends on the index.
    fn merge_streamed_ms(&self) -> f64 {
        let pat = &self.pat;
        let partials: Vec<GlobalIndex> = (0..pat.writers)
            .map(|w| {
                GlobalIndex::from_entries((0..pat.blocks).map(|k| IndexEntry {
                    logical_offset: pat.offset(w, k),
                    length: pat.block,
                    physical_offset: k * pat.block,
                    writer: w,
                    timestamp: k * pat.writers + w + 1,
                }))
            })
            .collect();
        let ms: Vec<f64> = (0..3)
            .map(|_| {
                let parts = partials.clone();
                let t = Instant::now();
                // 64 Ki entries per chunk, as `write_flattened_streamed`.
                GlobalIndex::merge_streamed(parts, 64 * 1024, |run| {
                    std::hint::black_box(run);
                    Ok(())
                })
                .expect("merge");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        stats::median(&ms)
    }
}

impl Workload for Ckpt {
    fn round(&mut self, traced: bool, lat: &mut Samples) -> Round {
        match (self.local.clone(), traced) {
            (None, false) => self.run(|| Arc::new(MemFs::new()), false, lat),
            (None, true) => {
                let mut made = Vec::new();
                let mk = || {
                    let b = TimedBackend::new(MemFs::new(), Role::Device);
                    made.push(Arc::clone(b.counters()));
                    b
                };
                let round = self.run(mk, true, lat);
                for c in made {
                    self.device = self.device + c.snapshot();
                }
                round
            }
            (Some(root), _) => {
                let dir = root.join(format!("r{}", self.round_no));
                let local = LocalFs::new(&dir).expect("LocalFs root in the checkout");
                let round = if traced {
                    let b = TimedBackend::new(local, Role::Device);
                    let round = self.run(|| b.clone(), true, lat);
                    self.device = self.device + b.counters().snapshot();
                    round
                } else {
                    self.run(|| local.clone(), false, lat)
                };
                let _ = std::fs::remove_dir_all(&dir);
                round
            }
        }
    }

    fn verify(&mut self) -> (u64, u64) {
        self.read_back.take().map_or((0, 0), |f| f())
    }

    fn layers(&mut self, t: &Traced, m: &mut Metrics) {
        m.set("writer.write_self_us", t.self_us("writer.write"));
        m.set("writer.calls", t.per_round("writer.write"));
        m.set("writer.close_self_ms", t.self_ms_per_round("writer.close"));
        m.set(
            "writer.flatten_self_ms",
            t.self_ms_per_round("writer.flatten_close"),
        );
        m.set("ioplane.close_trips", self.close_trips.calls_per());
        m.set("ioplane.close_ops", self.close_trips.ops_per());
        m.set("reader.open_self_ms", t.self_us("reader.open") / 1e3);
        m.set("reader.read_self_us", t.self_us("reader.read"));
        m.set("ioplane.open_trips", self.open_trips.calls_per());
        m.set("ioplane.read_ops_per_call", self.read_trips.ops_per());
        if self.flatten_panel {
            m.set("writer.threads2_speedup", self.threads2_speedup());
            m.set("index.merge_streamed_ms", self.merge_streamed_ms());
        }
        let panels = 1 + u64::from(self.flatten_panel);
        t.backend_metrics(self.device, self.device, panels * self.pat.file_bytes(), m);
        m.set("trace.coverage_pct", t.coverage_pct(""));
    }
}

impl Drop for Ckpt {
    fn drop(&mut self) {
        if let Some(root) = &self.local {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_counts_one_bad_byte_as_failed() {
        let pat = Pattern::new(1, 4, 8, 4096);
        let fs = Plfs::new(Arc::new(MemFs::new()), Ckpt::config(false)).unwrap();
        let (written, _, _) = write_panel(&fs, &pat, 1, false);
        assert_eq!((written.attempted, written.failed), (4 + 32 + 4, 0));
        let good = restart(&fs, &pat, 1);
        assert_eq!((good.attempted, good.failed), (2, 0));

        // One byte of what writer 2 is expected to have written differs
        // from what the container holds.
        let mut expected = Pattern::new(1, 4, 8, 4096);
        expected.bufs[2][100] ^= 1;
        assert_eq!(restart(&fs, &expected, 1).failed, 1);
    }
}

//! Coherence of the mount's shared-index cache (DESIGN.md §5l): an index
//! a mount hands out is always the one an uncached open would build.
//!
//! Two cached mounts and an uncached oracle share one store: a
//! `ReadHandle::open` of the index built from the log runs, which never
//! looks at `flattened.index`. Arbitrary interleavings of everything
//! that changes a container — writer open / write / mid-write flush /
//! close, coordinated flatten close (sometimes followed by a new or a
//! reused writer id's write), clip-truncate and truncate(0), unlink and
//! re-create, rename away and rename in, `fsck::repair` after a torn
//! index append or a lost data log — run through either mount or beside
//! both. Mount A is compared with the
//! oracle after **every** step; mount B only when the generator says so
//! and at the end, so its cache keeps entries across whole destructive
//! sequences. Offsets, lengths and writer ids come from a small set: a
//! path often comes back with the writer ids and log sizes it had at B's
//! last look but another logical→physical mapping (two 100-byte writes in
//! the other order, a clip inside a record, a writer id reopened). Sizes
//! cannot tell those apart; the namespace generation must. The test
//! counts such collisions and fails if the generator produced none, and
//! likewise for looks the mounts served through a bounded (`Disk`)
//! flattened index.
//!
//! The 8-thread single-flight test lives here too.

#![allow(
    clippy::unwrap_used,
    clippy::panic,
    clippy::disallowed_methods,
    reason = "test code: a failed unwrap or panic is the test's failure report; setup and checks call one backend op at a time"
)]

use plfs::reader::ReadHandle;
use plfs::writer::{flatten_close, IndexPolicy, WriteHandle};
use plfs::{
    fsck, Backend, Content, Federation, GlobalIndex, IndexEntry, IoOp, MemFs, Plfs, PlfsConfig,
    PlfsError, TracingBackend,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const PATHS: [&str; 3] = ["/f", "/g", "/h"];
const BLOCK: u64 = 100;

#[derive(Debug, Clone)]
enum Step {
    /// Open `path` for write as `writer` through `mount`.
    OpenWrite {
        mount: usize,
        path: usize,
        writer: u64,
    },
    /// One block at `slot * BLOCK` through the `handle`-th open handle.
    Write {
        handle: usize,
        slot: u64,
    },
    Flush {
        handle: usize,
    },
    Close {
        handle: usize,
    },
    /// Coordinated close of every handle open on `path`; then, when
    /// `late` names a writer id, mount A looks and that writer lives a
    /// whole life on the path (id 2 is new to it, ids 0 and 1 are not).
    FlattenClose {
        path: usize,
        late: Option<u64>,
    },
    /// A writer's whole life in one step — open, `blocks` writes starting
    /// at slot `first`, close — so that a path is often rebuilt between
    /// two looks of the lazy mount.
    Lifecycle {
        mount: usize,
        path: usize,
        writer: u64,
        first: u64,
        blocks: u64,
    },
    Truncate {
        mount: usize,
        path: usize,
        size: u64,
    },
    Unlink {
        mount: usize,
        path: usize,
    },
    Rename {
        mount: usize,
        from: usize,
        to: usize,
    },
    /// A writer dies in its close-time index append, which lands a strict
    /// prefix of its records (`seed` picks the length); fsck repairs.
    TornRepair {
        path: usize,
        writer: u64,
        seed: u64,
    },
    /// A writer's data log is lost behind the middleware's back; fsck
    /// drops the index log that now points nowhere.
    LostLogRepair {
        path: usize,
        writer: u64,
    },
    /// Compare the lazy mount with the oracle.
    ReadLazy,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..26, 0usize..2, 0usize..3, 0u64..2, 0u64..4, 0u64..1000).prop_map(
        |(kind, mount, path, writer, small, seed)| match kind {
            0..=2 => Step::OpenWrite {
                mount,
                path: path % 2,
                writer,
            },
            3..=6 => Step::Write {
                handle: seed as usize,
                slot: small % 2,
            },
            7 => Step::Flush {
                handle: seed as usize,
            },
            8..=9 => Step::Close {
                handle: seed as usize,
            },
            10 => Step::FlattenClose {
                path: path % 2,
                late: [None, Some(2), Some(writer)][seed as usize % 3],
            },
            11..=14 => Step::Lifecycle {
                mount,
                path: path % 2,
                writer,
                first: small % 2,
                blocks: 1 + small / 2,
            },
            15..=16 => Step::Truncate {
                mount,
                path: path % 2,
                size: [0, BLOCK / 2, BLOCK, BLOCK + BLOCK / 2][small as usize],
            },
            17..=18 => Step::Unlink {
                mount,
                path: path % 2,
            },
            19..=20 => Step::Rename {
                mount,
                from: path,
                to: (path + 1 + small as usize % 2) % 3,
            },
            21 => Step::TornRepair {
                path: path % 2,
                writer,
                seed,
            },
            22 => Step::LostLogRepair {
                path: path % 2,
                writer,
            },
            _ => Step::ReadLazy,
        },
    )
}

/// The block written at tick `ts`. Every write carries its own byte, so a
/// stale mapping reads back wrong bytes, not just a wrong index.
fn block(ts: u64) -> Content {
    Content::bytes(vec![ts as u8; BLOCK as usize])
}

/// Two namespaces, containers and subdirs spread, so renames cross
/// namespaces and each path has its own generation file to depend on.
fn config(policy: IndexPolicy) -> PlfsConfig {
    PlfsConfig {
        federation: Federation::new(vec!["/v0".into(), "/v1".into()], 2, true, true),
        index_policy: policy,
    }
}

struct OpenHandle<B: Backend> {
    path: usize,
    writer: u64,
    handle: WriteHandle<B>,
}

/// What sizes alone can tell about a container — the stamp without its
/// generation, rebuilt from public calls.
type Sizes = (Option<u64>, Vec<(u64, u64)>);

struct World<B: Backend + Clone> {
    store: B,
    /// `[eager, lazy]`; the eager mount writes WriteClose, the lazy one
    /// Flatten, so `flatten_close` meets both kinds of handle.
    mounts: [Plfs<B>; 2],
    open: Vec<OpenHandle<B>>,
    clock: u64,
    /// Per path, what the lazy mount last saw: the sizes and the index.
    lazy_seen: HashMap<usize, (Sizes, GlobalIndex)>,
    collisions: u64,
    /// Writers that died in their close-time index append.
    torn_closes: u64,
    /// Looks a mount served through a bounded flattened index.
    disk_looks: u64,
}

impl<B: Backend + Clone> World<B> {
    fn new(store: B) -> World<B> {
        let flatten = IndexPolicy::Flatten {
            threshold_entries: 1000,
        };
        World {
            mounts: [
                Plfs::new(store.clone(), config(IndexPolicy::WriteClose)).unwrap(),
                Plfs::new(store.clone(), config(flatten)).unwrap(),
            ],
            store,
            open: Vec::new(),
            clock: 0,
            lazy_seen: HashMap::new(),
            collisions: 0,
            torn_closes: 0,
            disk_looks: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Close every handle open on `path` (destructive steps need the
    /// file quiesced, as the middleware documents).
    fn quiesce(&mut self, path: usize) {
        let (on_path, rest) = std::mem::take(&mut self.open)
            .into_iter()
            .partition(|h| h.path == path);
        self.open = rest;
        for h in on_path {
            let ts = self.tick();
            h.handle.close(ts).unwrap();
        }
    }

    fn apply(&mut self, step: &Step) {
        match *step {
            Step::OpenWrite {
                mount,
                path,
                writer,
            } => {
                // One process per writer id: reopening an id that is still
                // open would truncate the logs under the live handle.
                if self
                    .open
                    .iter()
                    .any(|h| h.path == path && h.writer == writer)
                {
                    return;
                }
                let handle = self.mounts[mount].open_write(PATHS[path], writer).unwrap();
                self.open.push(OpenHandle {
                    path,
                    writer,
                    handle,
                });
            }
            Step::Lifecycle {
                mount,
                path,
                writer,
                first,
                blocks,
            } => {
                if self
                    .open
                    .iter()
                    .any(|h| h.path == path && h.writer == writer)
                {
                    return;
                }
                let mut h = self.mounts[mount].open_write(PATHS[path], writer).unwrap();
                for k in 0..blocks {
                    let ts = self.tick();
                    h.write((first + k) % 2 * BLOCK, &block(ts), ts).unwrap();
                }
                let ts = self.tick();
                h.close(ts).unwrap();
            }
            Step::Write { handle, slot } => {
                if self.open.is_empty() {
                    return;
                }
                let ts = self.tick();
                let h = handle % self.open.len();
                self.open[h]
                    .handle
                    .write(slot * BLOCK, &block(ts), ts)
                    .unwrap();
            }
            Step::Flush { handle } => {
                if self.open.is_empty() {
                    return;
                }
                let h = handle % self.open.len();
                self.open[h].handle.flush_index().unwrap();
            }
            Step::Close { handle } => {
                if self.open.is_empty() {
                    return;
                }
                let h = self.open.swap_remove(handle % self.open.len());
                let ts = self.tick();
                h.handle.close(ts).unwrap();
            }
            Step::FlattenClose { path, late } => {
                let (on_path, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.open)
                    .into_iter()
                    .partition(|h| h.path == path);
                self.open = rest;
                if on_path.is_empty() {
                    return;
                }
                let ts = self.tick();
                let handles = on_path.into_iter().map(|h| h.handle).collect();
                let container = self.mounts[0].container(PATHS[path]);
                flatten_close(&self.store, &container, handles, ts).unwrap();
                if let Some(writer) = late {
                    self.check_mount(0);
                    self.apply(&Step::Lifecycle {
                        mount: 1,
                        path,
                        writer,
                        first: 1,
                        blocks: 1,
                    });
                }
            }
            Step::Truncate { mount, path, size } => {
                self.quiesce(path);
                match self.mounts[mount].truncate(PATHS[path], size) {
                    Ok(()) | Err(PlfsError::NotFound(_)) => {}
                    Err(e) => panic!("truncate: {e}"),
                }
            }
            Step::Unlink { mount, path } => {
                self.quiesce(path);
                match self.mounts[mount].unlink(PATHS[path]) {
                    Ok(()) | Err(PlfsError::NotFound(_)) => {}
                    Err(e) => panic!("unlink: {e}"),
                }
            }
            Step::Rename { mount, from, to } => {
                self.quiesce(from);
                self.quiesce(to);
                match self.mounts[mount].rename(PATHS[from], PATHS[to]) {
                    Ok(()) | Err(PlfsError::NotFound(_) | PlfsError::AlreadyExists(_)) => {}
                    Err(e) => panic!("rename: {e}"),
                }
            }
            Step::TornRepair { path, writer, seed } => {
                self.quiesce(path);
                let container = self.mounts[0].container(PATHS[path]);
                let policy = IndexPolicy::WriteClose;
                let mut h =
                    WriteHandle::open(self.store.clone(), container.clone(), writer, policy)
                        .unwrap();
                for slot in 0..2 {
                    let ts = self.tick();
                    h.write(slot * BLOCK, &block(ts), ts).unwrap();
                }
                let records = IndexEntry::encode_all(h.buffered_index());
                let torn = records[..seed as usize % records.len()].to_vec();
                let ipath = container.index_log(&self.store, writer).unwrap();
                self.store.append(&ipath, &Content::bytes(torn)).unwrap();
                drop(h);
                self.torn_closes += 1;
                let outcome = fsck::repair(&self.store, &container).unwrap();
                assert!(outcome.fully_repaired(), "{:?}", outcome.unrepaired);
            }
            Step::LostLogRepair { path, writer } => {
                self.quiesce(path);
                let container = self.mounts[0].container(PATHS[path]);
                let Ok(data_log) = container.data_log(&self.store, writer) else {
                    return;
                };
                if self.store.unlink(&data_log).is_ok() {
                    let outcome = fsck::repair(&self.store, &container).unwrap();
                    assert!(outcome.fully_repaired(), "{:?}", outcome.unrepaired);
                }
            }
            Step::ReadLazy => self.check_mount(1),
        }
    }

    fn sizes(&self, path: usize) -> Sizes {
        let c = self.mounts[0].container(PATHS[path]);
        let flattened = self.store.size(&c.flattened_path()).ok();
        let logs = c
            .list_writers(&self.store)
            .unwrap()
            .into_iter()
            .map(|w| {
                let log = c.index_log(&self.store, w).unwrap();
                (w, self.store.size(&log).unwrap())
            })
            .collect();
        (flattened, logs)
    }

    /// A cached open of every path on `mount` against the oracle: same
    /// existence, same index, same bytes.
    fn check_mount(&mut self, mount: usize) {
        for (path, name) in PATHS.into_iter().enumerate() {
            let fs = &self.mounts[mount];
            let c = fs.container(name);
            let cached = fs.open_read(name);
            if !c.exists(&self.store) {
                assert!(
                    matches!(cached, Err(PlfsError::NotFound(_))),
                    "{name}: no container, yet mount {mount} opened one"
                );
                continue;
            }
            let oracle = c.subdirs_phys_batch(&self.store).and_then(|resolved| {
                let writers = c.list_writers(&self.store)?;
                let runs = c.read_index_runs(&self.store, &resolved, &writers, 1)?;
                let index = GlobalIndex::from_runs(&runs, true);
                Ok(ReadHandle::open(self.store.clone(), c, index))
            });
            let (mut cached, mut oracle) = match (cached, oracle) {
                (Ok(c), Ok(o)) => (c, o),
                // A torn log fails both opens alike until it is repaired.
                (Err(_), Err(_)) => continue,
                (c, o) => panic!(
                    "{name}: mount {mount} open {:?}, oracle open {:?}",
                    c.err(),
                    o.err()
                ),
            };
            let index = GlobalIndex::clone(oracle.index().unwrap());
            match cached.index() {
                Some(shared) => assert_eq!(
                    **shared, index,
                    "{name}: mount {mount} served a stale index"
                ),
                None => self.disk_looks += 1,
            }
            let eof = oracle.size();
            assert_eq!(cached.size(), eof, "{name}: mount {mount} sized it otherwise");
            assert_eq!(
                cached.read(0, eof).ok(),
                oracle.read(0, eof).ok(),
                "{name}: mount {mount} read other bytes"
            );
            if mount == 1 {
                let now = (self.sizes(path), index);
                if let Some(seen) = self.lazy_seen.insert(path, now.clone()) {
                    // Same sizes as at the last look, another index: only
                    // the generation stood between B and a stale hit.
                    self.collisions += u64::from(seen.0 == now.0 && seen.1 != now.1);
                }
            }
        }
    }

    /// `(collisions, torn closes, bounded looks)` the steps produced.
    fn run(mut self, steps: &[Step]) -> (u64, u64, u64) {
        for step in steps {
            self.apply(step);
            self.check_mount(0);
        }
        (0..PATHS.len()).for_each(|path| self.quiesce(path));
        self.check_mount(0);
        self.check_mount(1);
        (self.collisions, self.torn_closes, self.disk_looks)
    }
}

/// Same-size, different-mapping re-incarnations the lazy mount met, and
/// repairs that followed a torn index append, across all cases.
static COLLISIONS: AtomicU64 = AtomicU64::new(0);
static TORN_CLOSES: AtomicU64 = AtomicU64::new(0);
static DISK_LOOKS: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    fn any_interleaving(steps in prop::collection::vec(step(), 8..40)) {
        let over_memfs = World::new(Arc::new(MemFs::new())).run(&steps);
        let over_tracing = World::new(Arc::new(TracingBackend::new(MemFs::new()))).run(&steps);
        prop_assert_eq!(over_memfs, over_tracing, "same steps, same outcome");
        COLLISIONS.fetch_add(over_memfs.0, Ordering::Relaxed);
        TORN_CLOSES.fetch_add(over_memfs.1, Ordering::Relaxed);
        DISK_LOOKS.fetch_add(over_memfs.2, Ordering::Relaxed);
    }
}

#[test]
fn cached_opens_equal_uncached_opens_under_any_interleaving() {
    any_interleaving();
    let collisions = COLLISIONS.load(Ordering::Relaxed);
    let torn = TORN_CLOSES.load(Ordering::Relaxed);
    let disk = DISK_LOOKS.load(Ordering::Relaxed);
    println!(
        "same-size re-incarnations the lazy mount met: {collisions}; torn closes repaired: {torn}; \
         looks served bounded: {disk}"
    );
    assert!(
        collisions > 0,
        "the generator produced no same-size, different-mapping re-incarnation"
    );
    assert!(torn > 0, "no writer died in its index append");
    assert!(disk > 0, "no mount served a flattened index");
}

/// The one destructive path the random walk reaches too rarely to pin:
/// fsck unlinks an index log whose data log was lost, and the writer id
/// comes back with a log of the same size.
#[test]
fn a_log_repaired_away_and_rewritten_to_its_old_size_is_not_served_stale() {
    let store = Arc::new(MemFs::new());
    let mut world = World::new(Arc::clone(&store));
    let life = |first| Step::Lifecycle {
        mount: 0,
        path: 0,
        writer: 1,
        first,
        blocks: 1,
    };
    world.apply(&life(0));
    world.check_mount(0);
    world.check_mount(1);
    let before = world.sizes(0);
    world.apply(&Step::LostLogRepair { path: 0, writer: 1 });
    world.apply(&life(1));
    assert_eq!(world.sizes(0), before, "the collision this test is about");
    world.check_mount(0);
    world.check_mount(1);
}

/// 8 threads open the same cold container at once: one aggregates, all
/// share its index.
#[test]
fn concurrent_first_opens_aggregate_once() {
    const THREADS: usize = 8;
    const WRITERS: u64 = 6;
    let store = Arc::new(TracingBackend::new(MemFs::new()));
    let fs = Plfs::new(Arc::clone(&store), PlfsConfig::basic("/ns")).unwrap();
    for w in 0..WRITERS {
        let mut h = fs.open_write("/ckpt", w).unwrap();
        for k in 0..4 {
            h.write(
                (k * WRITERS + w) * BLOCK,
                &Content::synthetic(w, BLOCK),
                fs.timestamp(),
            )
            .unwrap();
        }
        h.close(fs.timestamp()).unwrap();
    }
    let mut whole =
        ReadHandle::open_bounded(Arc::clone(&store), fs.container("/ckpt"), Arc::default())
            .unwrap();
    let eof = whole.size();
    let want = whole.read(0, eof).unwrap();
    drop(whole);

    store.take_trace();
    let start = Barrier::new(THREADS);
    let handles: Vec<_> = std::thread::scope(|scope| {
        let opens: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let mut r = fs.open_read("/ckpt").unwrap();
                    assert_eq!(r.read(0, eof).unwrap(), want);
                    r
                })
            })
            .collect();
        opens.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let index_reads = store
        .take_trace()
        .iter()
        .filter(|op| matches!(op, IoOp::ReadAt { path, .. } if path.contains("dropping.index.")))
        .count() as u64;
    assert_eq!(index_reads, WRITERS, "exactly one aggregation's log reads");
    let shared = handles[0].index().unwrap();
    assert!(handles
        .iter()
        .all(|h| Arc::ptr_eq(h.index().unwrap(), shared)));
    // One reference per handle and the cache's own.
    assert_eq!(Arc::strong_count(shared), THREADS + 1);
}

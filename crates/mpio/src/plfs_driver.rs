//! The PLFS ADIO driver: logical ops rewritten into container operations.
//!
//! This is the simulation twin of the `plfs` crate — it issues, against
//! the simulated parallel file system, the same *structural* sequence of
//! operations the real middleware issues against a real backend
//! (integration tests compare the two), and it implements the paper's
//! collective machinery that only exists at the MPI-IO layer:
//!
//! * collective shared-file open: rank 0 builds the container, everyone
//!   creates their droppings;
//! * **Index Flatten** (Fig. 3b): writers buffer index entries; at the
//!   collective close they are gathered to a root which writes one
//!   flattened index — making read-open nearly free at the cost of write
//!   close time;
//! * **Parallel Index Read** (Fig. 3c): at the collective read-open, each
//!   rank reads its share of the index logs (N opens total instead of N²)
//!   and the partial indices are merged hierarchically over the
//!   interconnect (group leaders exchange, then broadcast);
//! * **Original design** (Fig. 3a): nothing collective — every reader
//!   opens and reads every index log itself, N² opens on the underlying
//!   file system. Kept as the baseline the optimizations are measured
//!   against.
//!
//! Composite operations (container creation, per-reader index walks)
//! expand into **micro-plans** executed one physical op per simulation
//! event, so thousands of concurrent ranks interleave correctly on the
//! metadata servers instead of serializing in rank order.
//!
//! Federated metadata (§V) falls out of path placement: the `plfs`
//! crate's [`plfs::Federation`] decides which namespace (= which simulated
//! MDS) owns the canonical container and each subdir. Every path inside a
//! container or a shadow comes from the `plfs::container` builders the
//! middleware itself names its files with, so the two cannot drift apart
//! on a name; only the metadir record differs, `meta.<writer>` here
//! against the middleware's `meta.<eof>.<bytes>.<writer>`, because the
//! simulator carries no sizes to encode.

use crate::driver::{exec_io, generic_collective, Ctx, Driver, Step};
use crate::ops::{FileTag, LogicalOp};
use plfs::index::ondisk::{fences_for, SPANIDX_FENCE_BYTES, SPANIDX_FENCE_STRIDE, SPANIDX_FOOTER_BYTES};
use plfs::container;
use plfs::index::INDEX_RECORD_BYTES;
use pfs::cache::IdMap;
use pfs::state::FileId;
use pfs::SimPfs;
use plfs::{Content, Federation, IoOp};
use simcore::SimTime;
use std::collections::HashMap;

/// How a PLFS file's global index is obtained at read open (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStrategy {
    /// Every reader aggregates every writer's index log itself.
    Original,
    /// Aggregate at write close; readers fetch one flattened index.
    IndexFlatten,
    /// Aggregate at read open with a collective hierarchy (the PLFS
    /// default after this paper).
    ParallelIndexRead,
}

/// Configuration of the PLFS driver.
#[derive(Debug, Clone)]
pub struct PlfsDriverConfig {
    pub federation: Federation,
    pub strategy: ReadStrategy,
    /// Per-writer index buffering threshold (entries) for Index Flatten;
    /// any writer exceeding it disables flattening for the file.
    pub flatten_threshold_entries: u64,
    /// Group size for Parallel Index Read's hierarchy.
    pub group_size: usize,
    /// CPU cost of merging one index entry into a global index. The
    /// middleware's sorted-run zipper makes aggregation linear in entry
    /// count, so every strategy is charged `entries × merge_ns_per_entry`
    /// wherever it builds a global index: each Original reader for the
    /// whole file, the Index Flatten root at close, and the Parallel
    /// Index Read hierarchy at open.
    pub merge_ns_per_entry: u64,
    /// Model the memory-bounded read open (spanidx): an Index Flatten
    /// open fetches only the footer and fence pointers instead of the
    /// whole flattened index, and record windows are charged to the reads
    /// that touch them. Off by default — the classic whole-index fetch is
    /// what the paper's figures measure.
    pub bounded_read_open: bool,
    /// Fault knob: ranks that die just before their write close. A
    /// crashed rank flushes no index records, writes no metadir record,
    /// and never removes its openhosts entry — its unflushed entries are
    /// lost, exactly the damage `plfs::fsck` repairs on real backends.
    pub crash_at_close: std::collections::HashSet<u64>,
}

impl PlfsDriverConfig {
    pub fn new(federation: Federation, strategy: ReadStrategy) -> Self {
        PlfsDriverConfig {
            federation,
            strategy,
            flatten_threshold_entries: 1 << 20,
            group_size: 64,
            merge_ns_per_entry: 20,
            bounded_read_open: false,
            crash_at_close: std::collections::HashSet::new(),
        }
    }
}

/// Simulated per-file middleware state.
#[derive(Debug, Default)]
struct FileSim {
    /// writer rank → (index entries, data log bytes). A writer appears
    /// here once its first write has created its droppings.
    writers: IdMap<u64, (u64, u64)>,
    /// writer rank → its data log's id in the simulated file system,
    /// resolved at first use. It lives and dies with the slot: an
    /// unlink drops both, because a re-created container's logs get new
    /// ids.
    data_logs: IdMap<u64, FileId>,
    /// Any writer exceeded the flatten buffering threshold.
    overflowed: bool,
    /// A writer died before close (see `PlfsDriverConfig::crash_at_close`):
    /// close-time flattening cannot complete.
    dead_writer: bool,
    /// Total entries in the flattened index, if one was written.
    flattened_entries: Option<u64>,
    container_created: bool,
    // Lazily created container pieces (mirrors the plfs library).
    openhosts_created: bool,
    metadir_created: bool,
    subdirs_created: std::collections::HashSet<usize>,
}

impl FileSim {
    fn total_entries(&self) -> u64 {
        self.writers.values().map(|(e, _)| *e).sum()
    }

    fn writer_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.writers.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// One step of a composite op's micro-plan: either a physical op from the
/// shared `plfs::ioplane` vocabulary (annotated with the namespace that
/// owns it and an aggregation count), or client-side CPU work. The op
/// vocabulary itself is *not* redefined here — the simulator charges the
/// same [`IoOp`] values the real middleware submits to its backends.
#[derive(Debug, Clone)]
enum PlanItem {
    Io { ns: usize, reps: u64, op: IoOp },
    /// Client-side CPU work (e.g. index merging) — no PFS traffic.
    Cpu { nanos: u64 },
}

/// A single (non-aggregated) physical op in namespace `ns`.
fn io(ns: usize, op: IoOp) -> PlanItem {
    PlanItem::Io { ns, reps: 1, op }
}

/// A rank's open "descriptor": the file slot its logical path resolved
/// to, and once the rank has written, its own data log's id. The
/// steady-state write and read paths start from it and hash no path.
/// The rank's own close drops it; a collective close or an unlink drops
/// every rank's handle on the slot, and `FlushCaches` drops them all.
struct Handle {
    file: FileTag,
    /// Slot in [`PlfsDriver::file_states`].
    fs: u32,
    /// This rank's data log, set by its first write.
    dlog: Option<FileId>,
}

/// Drop every rank's handle whose slot `stale` picks out.
fn drop_handles(handles: &mut [Option<Handle>], stale: impl Fn(usize) -> bool) {
    for h in handles {
        if h.as_ref().is_some_and(|h| stale(h.fs as usize)) {
            *h = None;
        }
    }
}

/// The PLFS simulation driver.
pub struct PlfsDriver {
    cfg: PlfsDriverConfig,
    /// Logical path → slot in `file_states`. The hot data path never
    /// probes this: a [`Handle`] carries the slot index.
    files: HashMap<String, u32>,
    file_states: Vec<Option<FileSim>>,
    /// Per-rank descriptors (fd-style): steady-state writes go straight
    /// to the data log's id and the file slot, and reads to the slot's
    /// data-log ids, with no path formatting and no string-keyed probes.
    handles: Vec<Option<Handle>>,
    /// In-flight micro-plans, one slot per rank: (items, next index).
    /// Slot-indexed so each micro-step is an in-place advance, not a map
    /// move.
    plans: Vec<Option<(Vec<PlanItem>, usize)>>,
    /// Scratch buffer for building logical paths without allocating.
    logical_buf: String,
}

impl PlfsDriver {
    pub fn new(cfg: PlfsDriverConfig) -> Self {
        PlfsDriver {
            cfg,
            files: HashMap::new(),
            file_states: Vec::new(),
            handles: Vec::new(),
            plans: Vec::new(),
            logical_buf: String::new(),
        }
    }

    /// Slot of `logical`'s state, interning (and default-creating) on
    /// first use.
    fn file_slot(&mut self, logical: &str) -> usize {
        if let Some(&id) = self.files.get(logical) {
            return id as usize;
        }
        let id = self.file_states.len();
        self.file_states.push(Some(FileSim::default()));
        self.files.insert(logical.to_string(), id as u32);
        id
    }

    #[expect(clippy::expect_used, reason = "ids come from `file_slot`; unlink tombstones a slot but also drops its id, so a held id is live")]
    fn state_mut(&mut self, id: usize) -> &mut FileSim {
        self.file_states[id]
            .as_mut()
            .expect("live file slot")
    }

    fn file_or_default(&mut self, logical: &str) -> &mut FileSim {
        let id = self.file_slot(logical);
        self.state_mut(id)
    }

    fn file_get(&self, logical: &str) -> Option<&FileSim> {
        self.files
            .get(logical)
            .and_then(|&id| self.file_states[id as usize].as_ref())
    }

    fn install_handle(&mut self, rank: usize, file: &FileTag, fs: usize, dlog: Option<FileId>) {
        if self.handles.len() <= rank {
            self.handles.resize_with(rank + 1, || None);
        }
        self.handles[rank] = Some(Handle {
            file: file.clone(),
            fs: fs as u32,
            dlog,
        });
    }

    /// `rank`'s handle, if it names `file`.
    fn handle(&self, rank: usize, file: &FileTag) -> Option<&Handle> {
        self.handles
            .get(rank)
            .and_then(Option::as_ref)
            .filter(|h| h.file == *file)
    }

    /// Count `reps` writes of `len` bytes by `writer` into slot `fs`.
    fn record_write(&mut self, fs: usize, writer: u64, reps: u64, len: u64) {
        let threshold = self.cfg.flatten_threshold_entries;
        let f = self.state_mut(fs);
        let w = f.writers.entry(writer).or_insert((0, 0));
        w.0 += reps;
        w.1 += len * reps;
        if w.0 > threshold {
            f.overflowed = true;
        }
    }

    pub fn config(&self) -> &PlfsDriverConfig {
        &self.cfg
    }

    /// Whether a flattened index was produced for `logical` (test hook).
    pub fn flattened(&self, logical: &str) -> bool {
        self.file_get(logical)
            .and_then(|f| f.flattened_entries)
            .is_some()
    }

    // --- placement from the federation; every name from `plfs::container` ---

    fn canonical(&self, logical: &str) -> String {
        self.cfg.federation.canonical_container_path(logical)
    }

    fn container_ns(&self, logical: &str) -> usize {
        self.cfg.federation.container_namespace(logical)
    }

    fn subdir_of(&self, writer: u64) -> usize {
        (writer % self.cfg.federation.subdirs_per_container() as u64) as usize
    }

    fn subdir_ns(&self, logical: &str, i: usize) -> usize {
        self.cfg.federation.subdir_namespace(logical, i)
    }

    fn subdir_dir(&self, logical: &str, i: usize) -> String {
        container::shadow_dir(&self.cfg.federation, logical, i)
            .unwrap_or_else(|| container::subdir_entry(&self.canonical(logical), i))
    }

    fn data_log(&self, logical: &str, writer: u64) -> String {
        container::data_log_in(&self.subdir_dir(logical, self.subdir_of(writer)), writer)
    }

    fn index_log(&self, logical: &str, writer: u64) -> String {
        container::index_log_in(&self.subdir_dir(logical, self.subdir_of(writer)), writer)
    }

    fn flattened_path(&self, logical: &str) -> String {
        container::flattened_index(&self.canonical(logical))
    }

    /// The id of `writer`'s data log in `logical` (slot `fs`), cached in
    /// the slot once the log exists.
    fn data_log_id(&mut self, fs: usize, logical: &str, writer: u64, pfs: &SimPfs) -> Option<FileId> {
        if let Some(&id) = self.state_mut(fs).data_logs.get(&writer) {
            return Some(id);
        }
        let id = pfs.file_id(&self.data_log(logical, writer))?;
        self.state_mut(fs).data_logs.insert(writer, id);
        Some(id)
    }

    /// The id of `writer`'s data log in `rank`'s `file`, if the log
    /// exists. A rank's handle on the file makes this one integer probe.
    fn read_source(&mut self, rank: usize, file: &FileTag, writer: u64, pfs: &SimPfs) -> Option<FileId> {
        let cached = self
            .handle(rank, file)
            .and_then(|h| self.file_states[h.fs as usize].as_ref())
            .and_then(|f| f.data_logs.get(&writer).copied());
        if cached.is_some() {
            return cached;
        }
        let mut logical = std::mem::take(&mut self.logical_buf);
        file.path_into(rank, &mut logical);
        let id = match self.files.get(logical.as_str()) {
            Some(&fs) => {
                let fs = fs as usize;
                if self.handle(rank, file).is_none() {
                    self.install_handle(rank, file, fs, None);
                }
                self.data_log_id(fs, &logical, writer, pfs)
            }
            // A container this driver holds no state for: resolve by path.
            None => pfs.file_id(&self.data_log(&logical, writer)),
        };
        self.logical_buf = logical;
        id
    }

    fn entries_of(&self, logical: &str, writer: u64) -> u64 {
        self.file_get(logical)
            .and_then(|f| f.writers.get(&writer))
            .map(|(e, _)| *e)
            .unwrap_or(0)
    }

    #[expect(clippy::panic, reason = "simulated workloads create before reading; a miss is a workload-spec bug, not a runtime condition")]
    fn file_sim(&self, logical: &str) -> &FileSim {
        self.file_get(logical)
            .unwrap_or_else(|| panic!("PLFS read of never-written file {logical}"))
    }

    // --- micro-plan builders ---

    /// Container creation: mkdir + access marker only (everything else is
    /// lazy, mirroring `plfs::Container::create`). Subsequent openers just
    /// check the access file.
    fn plan_container_create(&mut self, logical: &str) -> Vec<PlanItem> {
        let cns = self.container_ns(logical);
        let canonical = self.canonical(logical);
        let entry = self.file_or_default(logical);
        if entry.container_created {
            return vec![io(
                cns,
                IoOp::Kind {
                    path: container::access_file(&canonical),
                },
            )];
        }
        entry.container_created = true;
        vec![
            io(
                cns,
                IoOp::Mkdir {
                    path: canonical.clone(),
                },
            ),
            io(
                cns,
                IoOp::Create {
                    path: container::access_file(&canonical),
                    exclusive: true,
                },
            ),
        ]
    }

    /// Openhosts registration (creating the openhosts dir on first use).
    fn plan_register_open(&mut self, logical: &str, writer: u64) -> Vec<PlanItem> {
        let cns = self.container_ns(logical);
        let canonical = self.canonical(logical);
        let entry = self.file_or_default(logical);
        let mut plan = Vec::with_capacity(2);
        if !entry.openhosts_created {
            entry.openhosts_created = true;
            plan.push(io(
                cns,
                IoOp::Mkdir {
                    path: container::openhosts_dir(&canonical),
                },
            ));
        }
        plan.push(io(
            cns,
            IoOp::Create {
                path: container::host_entry(&canonical, writer),
                exclusive: false,
            },
        ));
        plan
    }

    /// First-write dropping creation: subdir (dir or shadow + metalink) if
    /// this writer is the first into it, then the data and index logs.
    fn plan_droppings(&mut self, logical: &str, writer: u64) -> Vec<PlanItem> {
        let cns = self.container_ns(logical);
        let canonical = self.canonical(logical);
        let sub = self.subdir_of(writer);
        let sns = self.subdir_ns(logical, sub);
        let shadowed = sns != cns;
        let fid = self.file_slot(logical);
        let mut plan = Vec::with_capacity(4);
        if self.state_mut(fid).subdirs_created.insert(sub) {
            plan.push(io(
                sns,
                IoOp::Mkdir {
                    path: self.subdir_dir(logical, sub),
                },
            ));
            if shadowed {
                plan.push(io(
                    cns,
                    IoOp::Create {
                        path: container::subdir_entry(&canonical, sub),
                        exclusive: true,
                    },
                ));
            }
        }
        self.state_mut(fid).writers.entry(writer).or_insert((0, 0));
        plan.push(io(
            sns,
            IoOp::Create {
                path: self.data_log(logical, writer),
                exclusive: false,
            },
        ));
        plan.push(io(
            sns,
            IoOp::Create {
                path: self.index_log(logical, writer),
                exclusive: false,
            },
        ));
        plan
    }

    /// Per-writer close: flush the index log, record metadir (creating
    /// the metadir on first use), deregister.
    fn plan_close_writer(&mut self, logical: &str, writer: u64) -> Vec<PlanItem> {
        if self.cfg.crash_at_close.contains(&writer) {
            // The process died before close: no index flush, no metadir
            // record, and the openhosts entry stays behind. Its buffered
            // index entries are gone — readers resolve none of its data.
            let fs = self.file_or_default(logical);
            if let Some(w) = fs.writers.get_mut(&writer) {
                w.0 = 0;
            }
            fs.dead_writer = true;
            return Vec::new();
        }
        let cns = self.container_ns(logical);
        let canonical = self.canonical(logical);
        let sns = self.subdir_ns(logical, self.subdir_of(writer));
        let entries = self.entries_of(logical, writer);
        let mut plan = Vec::with_capacity(4);
        if entries > 0 {
            plan.push(io(
                sns,
                IoOp::Append {
                    path: self.index_log(logical, writer),
                    content: Content::Zeros {
                        len: entries * INDEX_RECORD_BYTES,
                    },
                },
            ));
        }
        let entry = self.file_or_default(logical);
        if !entry.metadir_created {
            entry.metadir_created = true;
            plan.push(io(
                cns,
                IoOp::Mkdir {
                    path: container::metadir(&canonical),
                },
            ));
        }
        plan.push(io(
            cns,
            IoOp::Create {
                path: container::meta_record(&canonical, writer),
                exclusive: false,
            },
        ));
        plan.push(io(
            cns,
            IoOp::Unlink {
                path: container::host_entry(&canonical, writer),
            },
        ));
        plan
    }

    /// Read-open discovery: check the access file, list every subdir that
    /// exists (lazy creation leaves the rest absent).
    fn plan_discover(&mut self, logical: &str) -> Vec<PlanItem> {
        let cns = self.container_ns(logical);
        let canonical = self.canonical(logical);
        let mut plan = vec![io(
            cns,
            IoOp::Kind {
                path: container::access_file(&canonical),
            },
        )];
        let created: Vec<usize> = self
            .file_get(logical)
            .map(|f| f.subdirs_created.iter().copied().collect())
            .unwrap_or_default();
        for i in created {
            plan.push(io(
                self.subdir_ns(logical, i),
                IoOp::Readdir {
                    path: self.subdir_dir(logical, i),
                },
            ));
        }
        plan
    }

    /// Open + read one writer's index log.
    fn plan_read_index(&mut self, logical: &str, writer: u64) -> Vec<PlanItem> {
        let ilog = self.index_log(logical, writer);
        let sns = self.subdir_ns(logical, self.subdir_of(writer));
        let entries = self.entries_of(logical, writer);
        vec![
            io(sns, IoOp::Kind { path: ilog.clone() }),
            io(
                sns,
                IoOp::ReadAt {
                    path: ilog,
                    offset: 0,
                    len: entries * INDEX_RECORD_BYTES,
                },
            ),
        ]
    }

    /// Container removal: list and unlink every dropping, the container
    /// control files, and the (shadow) subdirs.
    fn plan_remove_container(&mut self, logical: &str) -> Vec<PlanItem> {
        let cns = self.container_ns(logical);
        let canonical = self.canonical(logical);
        let mut plan = Vec::new();
        if let Some(fs) = self.file_get(logical) {
            let subdirs: Vec<usize> = fs.subdirs_created.iter().copied().collect();
            let writers = fs.writer_ids();
            for i in subdirs {
                plan.push(io(
                    self.subdir_ns(logical, i),
                    IoOp::Readdir {
                        path: self.subdir_dir(logical, i),
                    },
                ));
            }
            for w in writers {
                let sns = self.subdir_ns(logical, self.subdir_of(w));
                plan.push(io(
                    sns,
                    IoOp::Unlink {
                        path: self.data_log(logical, w),
                    },
                ));
                plan.push(io(
                    sns,
                    IoOp::Unlink {
                        path: self.index_log(logical, w),
                    },
                ));
            }
            if fs.flattened_entries.is_some() {
                plan.push(io(
                    cns,
                    IoOp::Unlink {
                        path: self.flattened_path(logical),
                    },
                ));
            }
        }
        plan.push(io(
            cns,
            IoOp::Unlink {
                path: container::access_file(&canonical),
            },
        ));
        plan
    }

    // --- plan execution ---

    /// Charge one plan item at `now` from `node`.
    fn exec_phys(ctx: &mut Ctx, node: usize, item: &PlanItem, now: SimTime) -> SimTime {
        match item {
            PlanItem::Io { ns, reps, op } => exec_io(ctx, node, *ns, *reps, op, now),
            PlanItem::Cpu { nanos } => now + simcore::SimDuration::from_nanos(*nanos),
        }
    }

    /// Execute a whole plan back-to-back (used inside collective handlers,
    /// where all participants share one arrival time and event-granular
    /// interleaving is unnecessary).
    fn exec_plan_chained(
        ctx: &mut Ctx,
        node: usize,
        plan: &[PlanItem],
        mut now: SimTime,
    ) -> SimTime {
        for item in plan {
            now = Self::exec_phys(ctx, node, item, now);
        }
        now
    }

    /// Run one item of `rank`'s in-flight plan per invocation. The plan
    /// advances in place in its per-rank slot — the seed moved the whole
    /// `(Vec, pos)` pair out of (and back into) a map on every micro-step.
    fn run_plan(&mut self, rank: usize, node: usize, ctx: &mut Ctx, now: SimTime) -> Step {
        #[expect(clippy::expect_used, reason = "run_plan is only stepped for ranks Step::Yield left a plan for")]
        let slot = self.plans[rank]
            .as_mut()
            .expect("plan in flight");
        let (plan, pos) = (&slot.0, slot.1);
        debug_assert!(pos < plan.len());
        let fin = Self::exec_phys(ctx, node, &plan[pos], now);
        if pos + 1 == plan.len() {
            self.plans[rank] = None;
            Step::Done(fin)
        } else {
            slot.1 = pos + 1;
            Step::Yield(fin)
        }
    }

    /// Start (or continue) a plan-backed composite op.
    fn composite(
        &mut self,
        rank: usize,
        node: usize,
        ctx: &mut Ctx,
        now: SimTime,
        build: impl FnOnce(&mut Self) -> Vec<PlanItem>,
    ) -> Step {
        if self.plans.len() <= rank {
            self.plans.resize_with(rank + 1, || None);
        }
        if self.plans[rank].is_none() {
            let plan = build(self);
            if plan.is_empty() {
                return Step::Done(now);
            }
            self.plans[rank] = Some((plan, 0));
        }
        self.run_plan(rank, node, ctx, now)
    }
}

impl Driver for PlfsDriver {
    fn step(&mut self, rank: usize, _pc: usize, op: &LogicalOp, now: SimTime, ctx: &mut Ctx) -> Step {
        let node = ctx.node_of(rank);
        match op {
            LogicalOp::OpenWrite { file } => match file {
                FileTag::Shared(_) => Step::Collective,
                FileTag::PerRank { .. } => {
                    // N-N through PLFS: every rank builds a container for
                    // its own file — the burden Figures 7/8b measure,
                    // offset by lazy layout and federated namespaces.
                    // Droppings are created here (at open), as in real
                    // PLFS — their subdir placement is what federated
                    // metadata spreads.
                    let logical = file.path(rank);
                    self.composite(rank, node, ctx, now, |d| {
                        let mut plan = d.plan_container_create(&logical);
                        plan.extend(d.plan_register_open(&logical, rank as u64));
                        plan.extend(d.plan_droppings(&logical, rank as u64));
                        plan
                    })
                }
            },
            LogicalOp::Write { file, len, reps, .. } => {
                // Whatever the logical pattern, PLFS appends to this
                // writer's data log: sequential, exclusive, lock-free.
                // The first write also creates the droppings (and possibly
                // the subdir) — lazy layout.
                if *reps == 0 {
                    return Step::Done(now);
                }
                // fd fast path: once this rank's droppings exist, its
                // handle carries the data log's id and the file slot — no
                // path formatting, no string-keyed probes.
                let fast = self
                    .handle(rank, file)
                    .and_then(|h| Some((h.fs as usize, h.dlog?)));
                if let Some((fid, dlog)) = fast {
                    let fin = ctx.pfs.append_batch_id(node, dlog, *reps, *len, now).1;
                    self.record_write(fid, rank as u64, *reps, *len);
                    return Step::Done(fin);
                }
                let mut logical = std::mem::take(&mut self.logical_buf);
                file.path_into(rank, &mut logical);
                let mut t = now;
                let fid = self.file_slot(&logical);
                let first_write = !self.state_mut(fid).writers.contains_key(&(rank as u64));
                if first_write {
                    let plan = self.plan_droppings(&logical, rank as u64);
                    t = Self::exec_plan_chained(ctx, node, &plan, t);
                }
                #[expect(clippy::panic, reason = "the droppings exist once the first write's plan ran; a missing data log is a driver bug worth halting the simulation")]
                let dlog = self
                    .data_log_id(fid, &logical, rank as u64, &ctx.pfs)
                    .unwrap_or_else(|| panic!("no data log for writer {rank} of {logical}"));
                let fin = ctx.pfs.append_batch_id(node, dlog, *reps, *len, t).1;
                self.record_write(fid, rank as u64, *reps, *len);
                self.install_handle(rank, file, fid, Some(dlog));
                self.logical_buf = logical;
                Step::Done(fin)
            }
            LogicalOp::CloseWrite { file } => {
                if file.is_shared() && self.cfg.strategy == ReadStrategy::IndexFlatten {
                    Step::Collective
                } else {
                    // The closer's descriptor goes; every other rank's
                    // stays valid.
                    if let Some(h) = self.handles.get_mut(rank) {
                        *h = None;
                    }
                    let logical = file.path(rank);
                    self.composite(rank, node, ctx, now, |d| {
                        d.plan_close_writer(&logical, rank as u64)
                    })
                }
            }
            LogicalOp::OpenRead { file } => match file {
                FileTag::PerRank { .. } => {
                    // Single-writer container: discovery + one index.
                    let logical = file.path(rank);
                    self.composite(rank, node, ctx, now, |d| {
                        let mut plan = d.plan_discover(&logical);
                        plan.extend(d.plan_read_index(&logical, rank as u64));
                        plan
                    })
                }
                FileTag::Shared(_) => match self.cfg.strategy {
                    ReadStrategy::IndexFlatten | ReadStrategy::ParallelIndexRead => {
                        Step::Collective
                    }
                    ReadStrategy::Original => {
                        // Uncoordinated: this rank itself walks every
                        // writer's index log — N ranks × N logs = N² opens
                        // on the underlying file system.
                        let logical = file.path(rank);
                        self.composite(rank, node, ctx, now, |d| {
                            let writers = d.file_sim(&logical).writer_ids();
                            let mut plan = d.plan_discover(&logical);
                            for w in writers {
                                plan.extend(d.plan_read_index(&logical, w));
                            }
                            // Every Original reader merges the whole
                            // global index by itself.
                            plan.push(PlanItem::Cpu {
                                nanos: d.file_sim(&logical).total_entries()
                                    * d.cfg.merge_ns_per_entry,
                            });
                            plan
                        })
                    }
                },
            },
            LogicalOp::Read {
                file,
                offset,
                len,
                reps,
                src,
                ..
            } => {
                // PLFS reads come from a writer's log, sequentially; a
                // log that does not exist holds nothing to read.
                let (writer, phys) = match src {
                    Some(s) => (s.writer, s.phys_offset),
                    None => (rank as u64, *offset),
                };
                let fin = match self.read_source(rank, file, writer, &ctx.pfs) {
                    Some(dlog) => ctx.pfs.read_batch_id(node, dlog, phys, len * reps, *reps, now),
                    None => now,
                };
                Step::Done(fin)
            }
            LogicalOp::CloseRead { .. } => {
                // Read close is client-side: drop the in-memory index.
                Step::Done(now + simcore::SimDuration::from_micros_f64(30.0))
            }
            LogicalOp::Compute { nanos } => {
                Step::Done(now + simcore::SimDuration::from_nanos(*nanos))
            }
            LogicalOp::Barrier
            | LogicalOp::Exchange { .. }
            | LogicalOp::FlushCaches
            | LogicalOp::Unlink { .. } => Step::Collective,
        }
    }

    fn collective(
        &mut self,
        _pc: usize,
        op: &LogicalOp,
        arrivals: &[SimTime],
        ctx: &mut Ctx,
    ) -> Vec<SimTime> {
        let n = arrivals.len();
        match op {
            // Collective shared open-for-write: rank 0 builds the
            // container skeleton; after a notify broadcast everyone
            // registers in openhosts (droppings wait for first writes).
            LogicalOp::OpenWrite { file } => {
                let logical = file.path(0);
                let sync = arrivals.iter().copied().max().unwrap_or(SimTime::ZERO);
                let root_plan = self.plan_container_create(&logical);
                let root_done =
                    Self::exec_plan_chained(ctx, ctx.layout.node_of(0), &root_plan, sync);
                let base = root_done + ctx.net.bcast(n, 64);
                (0..n)
                    .map(|r| {
                        let node = ctx.layout.node_of(r);
                        let mut plan = self.plan_register_open(&logical, r as u64);
                        plan.extend(self.plan_droppings(&logical, r as u64));
                        Self::exec_plan_chained(ctx, node, &plan, base)
                    })
                    .collect()
            }
            // Collective close with Index Flatten: per-writer close ops,
            // then gather buffered indices to a root that writes the
            // flattened index.
            LogicalOp::CloseWrite { file } => {
                let logical = file.path(0);
                let fid = self.file_slot(&logical);
                drop_handles(&mut self.handles, |fs| fs == fid);
                let closes: Vec<SimTime> = (0..n)
                    .map(|r| {
                        let node = ctx.layout.node_of(r);
                        let plan = self.plan_close_writer(&logical, r as u64);
                        Self::exec_plan_chained(ctx, node, &plan, arrivals[r])
                    })
                    .collect();
                let sync = closes.iter().copied().max().unwrap_or(SimTime::ZERO);
                let fs = self.state_mut(fid);
                if fs.overflowed || fs.dead_writer {
                    // Someone buffered too much — or died — so no
                    // flattened index; readers fall back to aggregation.
                    return closes;
                }
                let total_entries = fs.total_entries();
                let per_rank_bytes = total_entries * INDEX_RECORD_BYTES / n.max(1) as u64;
                // The root zips the gathered per-writer runs into one
                // flattened index before persisting it.
                let gathered = sync
                    + ctx.net.gather(n, per_rank_bytes)
                    + simcore::SimDuration::from_nanos(
                        total_entries * self.cfg.merge_ns_per_entry,
                    );
                let cns = self.container_ns(&logical);
                let fpath = self.flattened_path(&logical);
                let t = ctx.pfs.create_file(cns, &fpath, gathered);
                let t = ctx
                    .pfs
                    .append_batch(
                        ctx.layout.node_of(0),
                        &fpath,
                        1,
                        total_entries * INDEX_RECORD_BYTES,
                        t,
                    )
                    .1;
                self.state_mut(fid).flattened_entries = Some(total_entries);
                vec![t; n]
            }
            // Collective read open: Index Flatten fetch-and-broadcast, or
            // Parallel Index Read.
            LogicalOp::OpenRead { file } => {
                let logical = file.path(0);
                let sync = arrivals.iter().copied().max().unwrap_or(SimTime::ZERO);
                let flat_entries = self.file_get(&logical).and_then(|f| f.flattened_entries);
                match (self.cfg.strategy, flat_entries) {
                    (ReadStrategy::IndexFlatten, Some(entries)) => {
                        // Bounded opens bootstrap from the spanidx footer
                        // and fences only (no merge CPU either way — the
                        // flatten already paid it at close).
                        let bytes = if self.cfg.bounded_read_open {
                            SPANIDX_FOOTER_BYTES
                                + fences_for(entries, SPANIDX_FENCE_STRIDE) * SPANIDX_FENCE_BYTES
                        } else {
                            entries * INDEX_RECORD_BYTES
                        };
                        let cns = self.container_ns(&logical);
                        let fpath = self.flattened_path(&logical);
                        let t = ctx.pfs.open_file(cns, ctx.layout.node_of(0), &fpath, sync);
                        let t = ctx
                            .pfs
                            .read_batch(ctx.layout.node_of(0), &fpath, 0, bytes, 1, t);
                        vec![t + ctx.net.bcast(n, bytes); n]
                    }
                    // Parallel Index Read — also the fallback when a
                    // flattened index was expected but never materialized.
                    _ => {
                        let writers = self.file_sim(&logical).writer_ids();
                        let total_entries = self.file_sim(&logical).total_entries();
                        let global_bytes = total_entries * INDEX_RECORD_BYTES;
                        let per_rank_bytes = global_bytes / n.max(1) as u64;
                        let mut worst = sync;
                        for r in 0..n {
                            let node = ctx.layout.node_of(r);
                            let mut t = sync;
                            // Round-robin assignment: rank r reads writers
                            // r, r+n, r+2n, ...
                            let mut w = r;
                            while w < writers.len() {
                                let plan = self.plan_read_index(&logical, writers[w]);
                                t = Self::exec_plan_chained(ctx, node, &plan, t);
                                w += n;
                            }
                            worst = worst.max(t);
                        }
                        let hier = ctx.net.hierarchical_aggregate(
                            n,
                            self.cfg.group_size,
                            per_rank_bytes,
                            global_bytes,
                        );
                        // Merge CPU rides the hierarchy: the top-level
                        // zipper over all entries dominates the partial
                        // builds below it.
                        let merge = simcore::SimDuration::from_nanos(
                            total_entries * self.cfg.merge_ns_per_entry,
                        );
                        vec![worst + hier + merge; n]
                    }
                }
            }
            // Container removal: rank 0 walks the container, unlinking
            // droppings and metadata — log-structured cleanup is real
            // work, which is why checkpoint rotation matters.
            LogicalOp::Unlink { file } => {
                let sync = arrivals.iter().copied().max().unwrap_or(SimTime::ZERO);
                let node0 = ctx.layout.node_of(0);
                let mut t = sync;
                let logicals: Vec<String> = if file.is_shared() {
                    vec![file.path(0)]
                } else {
                    (0..n).map(|r| file.path(r)).collect()
                };
                for logical in logicals {
                    let plan = self.plan_remove_container(&logical);
                    t = Self::exec_plan_chained(ctx, node0, &plan, t);
                    if let Some(id) = self.files.remove(&logical) {
                        self.file_states[id as usize] = None;
                    }
                }
                // The removed slots' handles go with them (one sweep, not
                // one per logical file).
                drop_handles(&mut self.handles, |fs| self.file_states[fs].is_none());
                vec![t; n]
            }
            LogicalOp::FlushCaches => {
                // A restart job starts with no open descriptors.
                self.handles.clear();
                generic_collective(op, arrivals, ctx)
            }
            other => generic_collective(other, arrivals, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plfs::container::{data_log_in, host_entry, index_log_in, meta_record, subdir_entry};
    use crate::exec::Exec;
    use crate::layout::Layout;
    use crate::metrics::OpKind;
    use crate::ops::{FnProgram, Program, ReadSrc};
    use pfs::{PfsParams, SimPfs};
    use simnet::{Interconnect, InterconnectParams};

    fn quiet_ctx(nprocs: usize, ppn: usize, mds: usize) -> Ctx {
        let mut p = PfsParams::panfs_production(64);
        p.jitter_spread = 0.0;
        p.jitter_tail_prob = 0.0;
        p.mds_count = mds;
        Ctx::new(
            SimPfs::new(p, 7),
            Interconnect::new(InterconnectParams::infiniband()),
            Layout::new(nprocs, ppn),
        )
    }

    fn fed(namespaces: usize, subdirs: usize) -> Federation {
        if namespaces == 1 {
            Federation::single("/panfs", subdirs)
        } else {
            Federation::new(
                (0..namespaces).map(|i| format!("/vol{i}")).collect(),
                subdirs,
                true,
                true,
            )
        }
    }

    /// Full N-1 checkpoint + restart program: write strided, read back
    /// the data of the next rank (log-sequential under PLFS).
    fn checkpoint_restart(nprocs: usize, block: u64, reps: u64) -> impl Program {
        let file = FileTag::shared("/ckpt");
        FnProgram {
            count: 8,
            f: move |rank, pc| {
                let f = file.clone();
                match pc {
                    0 => LogicalOp::OpenWrite { file: f },
                    1 => LogicalOp::Write {
                        file: f,
                        offset: rank as u64 * block,
                        len: block,
                        stride: nprocs as u64 * block,
                        reps,
                    },
                    2 => LogicalOp::CloseWrite { file: f },
                    3 => LogicalOp::Barrier,
                    4 => LogicalOp::OpenRead { file: f },
                    5 => {
                        let shifted = (rank + 1) % nprocs;
                        LogicalOp::Read {
                            file: f,
                            offset: shifted as u64 * block,
                            len: block,
                            stride: nprocs as u64 * block,
                            reps,
                            src: Some(ReadSrc {
                                writer: shifted as u64,
                                phys_offset: 0,
                            }),
                        }
                    }
                    6 => LogicalOp::CloseRead { file: f },
                    _ => LogicalOp::Barrier,
                }
            },
        }
    }

    fn run(
        nprocs: usize,
        strategy: ReadStrategy,
        mds: usize,
    ) -> (crate::metrics::Metrics, PlfsDriver, Ctx) {
        let prog = checkpoint_restart(nprocs, 64 * 1024, 8);
        let mut ctx = quiet_ctx(nprocs, 16, mds);
        let mut cfg = PlfsDriverConfig::new(fed(mds, 4), strategy);
        cfg.group_size = 8;
        let mut d = PlfsDriver::new(cfg);
        let m = Exec::new(&prog, &mut d, &mut ctx).run().metrics;
        (m, d, ctx)
    }

    #[test]
    fn plfs_writes_take_no_stripe_locks() {
        let (_, _, ctx) = run(32, ReadStrategy::ParallelIndexRead, 1);
        assert_eq!(ctx.pfs.lock_transfers(), 0);
        // All data landed in per-writer logs.
        for w in 0..32 {
            let fs = ctx.pfs.namespace();
            let found = (0..4).any(|i| {
                fs.file_exists(&data_log_in(&subdir_entry("/panfs/ckpt", i), w))
            });
            assert!(found, "missing data log for writer {w}");
        }
    }

    #[test]
    fn data_logs_have_the_right_sizes() {
        let (_, _, ctx) = run(8, ReadStrategy::ParallelIndexRead, 1);
        for w in 0..8u64 {
            let sub = (w % 4) as usize;
            let path = data_log_in(&subdir_entry("/panfs/ckpt", sub), w);
            assert_eq!(ctx.pfs.file_size(&path), 8 * 64 * 1024, "writer {w}");
        }
    }

    #[test]
    fn index_logs_written_at_close() {
        let (_, _, ctx) = run(8, ReadStrategy::ParallelIndexRead, 1);
        for w in 0..8u64 {
            let sub = (w % 4) as usize;
            let path = index_log_in(&subdir_entry("/panfs/ckpt", sub), w);
            assert_eq!(
                ctx.pfs.file_size(&path),
                8 * INDEX_RECORD_BYTES,
                "writer {w}"
            );
        }
    }

    #[test]
    fn flatten_writes_flattened_index_and_speeds_read_open() {
        let (mf, df, _) = run(64, ReadStrategy::IndexFlatten, 1);
        assert!(df.flattened("/ckpt"));
        let (mo, _, _) = run(64, ReadStrategy::Original, 1);
        let flat_open = mf.mean_duration_s(OpKind::OpenRead);
        let orig_open = mo.mean_duration_s(OpKind::OpenRead);
        assert!(
            orig_open > 2.0 * flat_open,
            "original open {orig_open} vs flatten {flat_open}"
        );
        // ...but flatten pays at write close.
        let flat_close = mf.mean_duration_s(OpKind::CloseWrite);
        let orig_close = mo.mean_duration_s(OpKind::CloseWrite);
        assert!(
            flat_close > orig_close,
            "flatten close {flat_close} vs original {orig_close}"
        );
    }

    #[test]
    fn bounded_read_open_is_cheaper_than_whole_index_fetch() {
        let nprocs = 64;
        let mk = |bounded: bool| {
            let prog = checkpoint_restart(nprocs, 64 * 1024, 8);
            let mut ctx = quiet_ctx(nprocs, 16, 1);
            let mut cfg = PlfsDriverConfig::new(fed(1, 4), ReadStrategy::IndexFlatten);
            cfg.group_size = 8;
            cfg.bounded_read_open = bounded;
            let mut d = PlfsDriver::new(cfg);
            let m = Exec::new(&prog, &mut d, &mut ctx).run().metrics;
            assert!(d.flattened("/ckpt"));
            m.mean_duration_s(OpKind::OpenRead)
        };
        let whole = mk(false);
        let bounded = mk(true);
        // 64 ranks × 8 writes = 512 records (20 KiB) vs footer + 1 fence
        // (72 B): the bootstrap fetch and its broadcast must shrink.
        assert!(
            bounded < whole,
            "bounded open {bounded} vs whole-index open {whole}"
        );
    }

    #[test]
    fn crashed_rank_leaves_recovery_debris_and_suppresses_flatten() {
        let prog = checkpoint_restart(8, 64 * 1024, 8);
        let mut ctx = quiet_ctx(8, 16, 1);
        let mut cfg = PlfsDriverConfig::new(fed(1, 4), ReadStrategy::IndexFlatten);
        cfg.crash_at_close.insert(3);
        let mut d = PlfsDriver::new(cfg);
        Exec::new(&prog, &mut d, &mut ctx).run();

        // A dead writer means close-time aggregation cannot complete.
        assert!(!d.flattened("/ckpt"));
        let fs = ctx.pfs.namespace();
        // The crashed rank never flushed its index...
        assert_eq!(
            ctx.pfs
                .file_size(&index_log_in(&subdir_entry("/panfs/ckpt", 3), 3)),
            0,
            "dead writer's index log must stay empty"
        );
        // ...never recorded metadata, and never deregistered.
        assert!(!fs.file_exists(&meta_record("/panfs/ckpt", 3)));
        assert!(fs.file_exists(&host_entry("/panfs/ckpt", 3)));
        // Surviving ranks closed normally.
        for w in [0u64, 1, 2, 4, 5, 6, 7] {
            let sub = (w % 4) as usize;
            assert_eq!(
                ctx.pfs.file_size(&index_log_in(&subdir_entry("/panfs/ckpt", sub), w)),
                8 * INDEX_RECORD_BYTES,
                "writer {w}"
            );
            assert!(fs.file_exists(&meta_record("/panfs/ckpt", w)));
            assert!(!fs.file_exists(&host_entry("/panfs/ckpt", w)));
        }
    }

    #[test]
    fn merge_cpu_cost_is_charged_at_aggregation_points() {
        let mk = |ns_per_entry: u64| {
            let prog = checkpoint_restart(8, 64 * 1024, 8);
            let mut ctx = quiet_ctx(8, 16, 1);
            let mut cfg = PlfsDriverConfig::new(fed(1, 4), ReadStrategy::Original);
            cfg.merge_ns_per_entry = ns_per_entry;
            let mut d = PlfsDriver::new(cfg);
            Exec::new(&prog, &mut d, &mut ctx).run().metrics
        };
        let cheap = mk(0).mean_duration_s(OpKind::OpenRead);
        // 1 ms/entry × 8 ranks × 8 entries ⇒ ≥ 64 ms extra per open.
        let costly = mk(1_000_000).mean_duration_s(OpKind::OpenRead);
        assert!(
            costly > cheap + 0.05,
            "merge cost not charged: cheap {cheap} vs costly {costly}"
        );
    }

    #[test]
    fn parallel_index_read_beats_original_at_scale() {
        let (mp, _, _) = run(128, ReadStrategy::ParallelIndexRead, 1);
        let (mo, _, _) = run(128, ReadStrategy::Original, 1);
        let par = mp.mean_duration_s(OpKind::OpenRead);
        let orig = mo.mean_duration_s(OpKind::OpenRead);
        assert!(
            orig > 3.0 * par,
            "original open {orig} not ≫ parallel {par}"
        );
    }

    #[test]
    fn original_issues_n_squared_index_reads() {
        // 16 ranks → discovery + 16 index opens each; read accounting
        // shows N² index-log fetches.
        let nprocs = 16;
        let (_, _, ctx) = run(nprocs, ReadStrategy::Original, 1);
        let data = (nprocs * nprocs) as u64 * 8 * INDEX_RECORD_BYTES;
        assert!(ctx.pfs.bytes_read() >= data + (nprocs as u64 * 8 * 64 * 1024));
    }

    #[test]
    fn federated_mds_spread_subdir_creates() {
        // With 4 namespaces and subdir spreading, dropping creates land on
        // multiple MDS; with 1 namespace everything hits MDS 0.
        let (_, _, ctx_fed) = run(32, ReadStrategy::ParallelIndexRead, 4);
        // The federated run's namespace must contain shadow containers.
        let ns = ctx_fed.pfs.namespace();
        let shadows = (0..4).filter(|v| ns.dir_exists(&format!("/vol{v}"))).count();
        assert!(shadows >= 2, "expected shadows across volumes");
    }

    #[test]
    fn reads_are_log_sequential_and_cheap() {
        let (m, _, ctx) = run(32, ReadStrategy::ParallelIndexRead, 1);
        let read_bw = m.phase_bandwidth(OpKind::Read);
        assert!(read_bw > 0.0);
        // No strided seeking: the data phase should sustain a healthy
        // fraction of the network peak (cache hits may push it higher).
        assert!(
            read_bw > 0.2 * ctx.pfs.params().net.aggregate_bw,
            "read bw {read_bw}"
        );
    }

    #[test]
    fn nn_plfs_creates_one_container_per_rank() {
        let nprocs = 8;
        let prog = FnProgram {
            count: 3,
            f: move |_rank, pc| {
                let f = FileTag::per_rank("/out", 0);
                match pc {
                    0 => LogicalOp::OpenWrite { file: f },
                    1 => LogicalOp::Write {
                        file: f,
                        offset: 0,
                        len: 1 << 20,
                        stride: 1 << 20,
                        reps: 4,
                    },
                    _ => LogicalOp::CloseWrite { file: f },
                }
            },
        };
        let mut ctx = quiet_ctx(nprocs, 4, 1);
        let mut d = PlfsDriver::new(PlfsDriverConfig::new(
            fed(1, 2),
            ReadStrategy::ParallelIndexRead,
        ));
        Exec::new(&prog, &mut d, &mut ctx).run();
        for r in 0..nprocs {
            let canonical = format!("/panfs/out.r{r}.f0");
            assert!(ctx.pfs.namespace().dir_exists(&canonical), "{canonical}");
            assert!(ctx
                .pfs
                .namespace()
                .file_exists(&container::access_file(&canonical)));
        }
    }

    #[test]
    fn flatten_overflow_falls_back_gracefully() {
        let nprocs = 4;
        let prog = checkpoint_restart(nprocs, 1024, 64);
        let mut ctx = quiet_ctx(nprocs, 4, 1);
        let mut cfg = PlfsDriverConfig::new(fed(1, 2), ReadStrategy::IndexFlatten);
        cfg.flatten_threshold_entries = 16; // 64 reps ≫ threshold
        let mut d = PlfsDriver::new(cfg);
        Exec::new(&prog, &mut d, &mut ctx).run();
        assert!(!d.flattened("/ckpt"), "overflowed file must not flatten");
    }

    #[test]
    fn micro_plans_interleave_ranks_on_the_mds() {
        // The N-N create storm: with event-granular plans, many ranks'
        // container creates interleave, so the makespan approaches
        // total-MDS-work rather than sum-of-chains.
        let nprocs = 16;
        let prog = FnProgram {
            count: 2,
            f: move |_rank, pc| {
                let f = FileTag::per_rank("/storm", 0);
                match pc {
                    0 => LogicalOp::OpenWrite { file: f },
                    _ => LogicalOp::CloseWrite { file: f },
                }
            },
        };
        let mut ctx = quiet_ctx(nprocs, 4, 1);
        let mut d = PlfsDriver::new(PlfsDriverConfig::new(
            fed(1, 4),
            ReadStrategy::ParallelIndexRead,
        ));
        let res = Exec::new(&prog, &mut d, &mut ctx).run();
        // Per container: 1 mkdir + access + metadir + openhosts + 4 subdir
        // mkdirs + 3 dropping creates + close(2) ≈ 11 creates/mkdirs + 2.
        // All on one MDS: makespan ≈ serial total, and the mean open time
        // must be of the same order (everyone queues), not nprocs× it.
        let open_mean = res.metrics.mean_duration_s(OpKind::OpenWrite);
        assert!(open_mean < res.makespan.as_secs_f64());
        assert!(open_mean > res.makespan.as_secs_f64() * 0.2);
    }

    #[test]
    fn one_ranks_close_leaves_other_ranks_write_handles() {
        // Under Parallel Index Read a shared-file close is per rank: rank
        // 0 closing must not send rank 1's next write back through path
        // resolution.
        let file = FileTag::shared("/ckpt");
        let write = LogicalOp::Write {
            file: file.clone(),
            offset: 0,
            len: 1 << 20,
            stride: 1 << 20,
            reps: 4,
        };
        let mut ctx = quiet_ctx(2, 1, 1);
        let mut d = PlfsDriver::new(PlfsDriverConfig::new(fed(1, 4), ReadStrategy::ParallelIndexRead));
        let t = SimTime::ZERO;
        let open = LogicalOp::OpenWrite { file: file.clone() };
        assert_eq!(d.step(0, 0, &open, t, &mut ctx), Step::Collective);
        d.collective(0, &open, &[t, t], &mut ctx);
        for rank in 0..2 {
            assert!(matches!(d.step(rank, 1, &write, t, &mut ctx), Step::Done(_)));
        }
        let close = LogicalOp::CloseWrite { file: file.clone() };
        let mut step = d.step(0, 2, &close, t, &mut ctx);
        while let Step::Yield(at) = step {
            step = d.step(0, 2, &close, at, &mut ctx);
        }
        assert!(d.handle(0, &file).is_none(), "the closer's handle goes");
        let h1 = d.handle(1, &file).map(|h| (h.fs, h.dlog));
        assert!(matches!(h1, Some((_, Some(_)))), "rank 1's handle survives rank 0's close");

        // Rank 1's next write takes its handle and lands in its log.
        assert!(matches!(d.step(1, 3, &write, t, &mut ctx), Step::Done(_)));
        assert_eq!(d.handle(1, &file).map(|h| (h.fs, h.dlog)), h1);
        let dlog = data_log_in(&subdir_entry("/panfs/ckpt", 1), 1);
        assert_eq!(ctx.pfs.file_size(&dlog), 8 << 20);
        assert_eq!(ctx.pfs.file_id(&dlog), h1.and_then(|h| h.1));
    }

    #[test]
    fn unlink_and_recreate_resolves_new_data_logs() {
        // Unlinking a container and writing the path again gives its logs
        // new ids; reads after the re-create must see the new, shorter
        // logs, not the ids cached before the unlink.
        let nprocs = 2;
        let block = 1u64 << 20;
        let prog = FnProgram {
            count: 12,
            f: move |rank, pc| {
                let f = FileTag::shared("/gen");
                let write = |reps| LogicalOp::Write {
                    file: f.clone(),
                    offset: rank as u64 * block,
                    len: block,
                    stride: nprocs as u64 * block,
                    reps,
                };
                match pc {
                    0 | 5 => LogicalOp::OpenWrite { file: f },
                    1 => write(4),
                    6 => write(2),
                    2 | 7 => LogicalOp::CloseWrite { file: f },
                    3 => LogicalOp::OpenRead { file: f },
                    4 => LogicalOp::Unlink { file: f },
                    8 => LogicalOp::OpenRead { file: f },
                    9 => LogicalOp::Read {
                        file: f,
                        offset: 0,
                        len: 8 * block,
                        stride: 8 * block,
                        reps: 1,
                        src: Some(ReadSrc { writer: rank as u64, phys_offset: 0 }),
                    },
                    10 => LogicalOp::CloseRead { file: f },
                    _ => LogicalOp::Barrier,
                }
            },
        };
        let mut ctx = quiet_ctx(nprocs, 1, 1);
        let mut d = PlfsDriver::new(PlfsDriverConfig::new(fed(1, 4), ReadStrategy::ParallelIndexRead));
        Exec::new(&prog, &mut d, &mut ctx).run();
        // Both generations' index logs are written at close and read at open.
        let index_bytes = 6 * nprocs as u64 * INDEX_RECORD_BYTES;
        assert_eq!(ctx.pfs.bytes_written(), 6 * nprocs as u64 * block + index_bytes);
        // Each rank reads back its 2-block log, not the unlinked 4-block one.
        assert_eq!(ctx.pfs.bytes_read(), 2 * nprocs as u64 * block + index_bytes);
    }
}

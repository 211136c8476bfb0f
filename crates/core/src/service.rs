//! Multi-tenant service layer: one shared PLFS instance fronting many
//! concurrent clients.
//!
//! Everything below the service is a library one process drives at a
//! time; this module is the *shared-instance* front end the paper's
//! transformative-I/O thesis implies — a middleware layer absorbing
//! hostile write patterns from thousands of clients at once
//! (DESIGN.md §5k). Three pieces cooperate:
//!
//! * **Sharded open-handle table.** Handles live in
//!   `SVC_HANDLE_SHARDS` independently-locked shards
//!   (`svc-handle-shard`, rank 12 in the §5i hierarchy): a shard lock
//!   is held only for lookup/insert/remove, each open handle owns its
//!   own session lock
//!   (`svc-session`, rank 15), and no lock anywhere spans the whole
//!   table — clients on different handles never contend, clients on
//!   different shards never even touch the same cache line.
//! * **Admission control with per-tenant fairness.** Every tenant has
//!   a token bucket ([`admission::TokenBucket`]) pacing its op rate
//!   and a dirty-byte budget ([`admission::DirtyBudget`]) bounding the
//!   bytes its open writers have appended but not yet indexed in their
//!   index logs; both live in `SVC_TENANT_SHARDS` sharded maps
//!   (`svc-tenant-shard`, rank 18). A denied probe surfaces as
//!   [`Admitted::Throttled`] with a precise retry delay —
//!   backpressure, not an error — and an append that takes its tenant
//!   over the dirty budget flushes its own writer's index before it
//!   returns, rather than penalizing anyone else.
//! * **Tenant namespace isolation.** A tenant's logical paths are
//!   prefixed with its name, so two tenants' equal-named files land in
//!   different containers and a tenant crash mid-append can only ever
//!   damage containers under its own prefix (fsck repairs those; the
//!   isolation test pins this under a seeded [`FaultBackend`], and
//!   `tests/crash_states.rs` in every crash state of a two-tenant trace).
//!
//! Traffic shows up in the §5f telemetry vocabulary as the `svc.*`
//! counters and the `svc.op` latency histogram; the benchmark's
//! `svc_mixed` workload (BENCHMARK.json) measures sustained ops/sec and
//! p50/p99 latency of a 512-client trace.
//!
//! [`FaultBackend`]: crate::faults::FaultBackend
//!
//! # Example
//!
//! ```
//! use plfs::service::{Admitted, Service, ServiceConfig};
//! use plfs::{Content, MemFs};
//! use std::sync::Arc;
//!
//! let svc = Service::new(Arc::new(MemFs::new()), ServiceConfig::basic("/panfs"))?;
//! let h = match svc.open_write("alice", "/ckpt")? {
//!     Admitted::Granted(h) => h,
//!     Admitted::Throttled { .. } => unreachable!("fresh bucket starts full"),
//! };
//! svc.append(h, 0, &Content::bytes(b"hello".to_vec()))?;
//! svc.close(h)?;
//!
//! let h = match svc.open_read("alice", "/ckpt")? {
//!     Admitted::Granted(h) => h,
//!     Admitted::Throttled { .. } => unreachable!(),
//! };
//! if let Admitted::Granted(bytes) = svc.read(h, 0, 5)? {
//!     assert_eq!(bytes, b"hello");
//! }
//! svc.close(h)?;
//! # Ok::<(), plfs::PlfsError>(())
//! ```

pub mod admission;

use crate::backend::Backend;
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::reader::ReadHandle;
use crate::sync::{class, Mutex};
use crate::telemetry;
use crate::vfs::{Plfs, PlfsConfig};
use crate::writer::WriteHandle;
use admission::{DirtyBudget, Grant, TokenBucket};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Service-layer constants. DESIGN.md §5k is the authoritative table,
// checked against these both ways by `tests/contracts.rs`, like §5d/§5j.

/// Shards in the open-handle table. Handle ids spread across shards by
/// a multiplicative hash, so contention on one shard is 1/64th of the
/// open/close traffic even under adversarial id patterns.
pub(crate) const SVC_HANDLE_SHARDS: usize = 64;

/// Pre-reservation headroom per handle shard: each shard reserves
/// `expected_clients * SVC_HANDLE_LOAD_FACTOR / SVC_HANDLE_SHARDS`
/// slots at construction, so steady-state opens never rehash a shard
/// map under its lock even when hashing skews this factor against a
/// uniform spread.
pub(crate) const SVC_HANDLE_LOAD_FACTOR: usize = 4;

/// Shards in the per-tenant admission-state map. Tenant populations
/// are much smaller than handle populations (many handles per tenant),
/// so fewer, coarser shards suffice.
pub(crate) const SVC_TENANT_SHARDS: usize = 16;

/// Default sustained op rate per tenant, tokens (ops) per second.
pub(crate) const SVC_TOKEN_RATE: u64 = 65536;

/// Default token-bucket depth per tenant: how many ops a tenant may
/// burst above the sustained rate after banking idle time.
pub(crate) const SVC_TOKEN_BURST: u64 = 4096;

/// Default dirty-byte budget per tenant: bytes a tenant's open writers
/// may have appended without their index records reaching the index
/// logs before the service forces the appending writer's index flush.
pub(crate) const SVC_DIRTY_BUDGET: u64 = 8 * 1024 * 1024;

// ---------------------------------------------------------------------

/// A service-issued handle: one open session (writer or reader) in the
/// sharded handle table. Plain data — cheap to copy into per-client
/// state machines; stale after [`Service::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SvcHandle(u64);

impl SvcHandle {
    /// The raw handle id (diagnostics; ids are never reused).
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Outcome of an admission-controlled service call: the op ran, or the
/// tenant's token bucket deferred it.
///
/// Throttling is backpressure, not failure — nothing happened, and the
/// caller should retry after `wait_ns`. Errors (`Err`) remain real
/// failures from the I/O path underneath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admitted<T> {
    /// The op was admitted and completed, yielding its result.
    Granted(T),
    /// The tenant's bucket is empty; retry no sooner than `wait_ns`.
    Throttled {
        /// Nanoseconds until the tenant will have banked one token.
        wait_ns: u64,
    },
}

impl<T> Admitted<T> {
    /// The granted value, if the op was admitted.
    pub fn granted(self) -> Option<T> {
        match self {
            Admitted::Granted(v) => Some(v),
            Admitted::Throttled { .. } => None,
        }
    }
}

/// Shared-instance service configuration. Field defaults come from the
/// §5k constants; the traffic harness overrides rates to probe
/// specific regimes.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Mount configuration for the shared [`Plfs`] instance.
    pub plfs: PlfsConfig,
    /// Per-tenant sustained op rate, tokens/sec (`SVC_TOKEN_RATE`).
    pub token_rate: u64,
    /// Per-tenant token-bucket depth (`SVC_TOKEN_BURST`).
    pub token_burst: u64,
    /// Per-tenant unflushed-byte budget (`SVC_DIRTY_BUDGET`).
    pub dirty_budget: u64,
    /// Expected concurrent handle count, used with
    /// `SVC_HANDLE_LOAD_FACTOR` to pre-size the handle shards.
    pub expected_clients: usize,
}

impl ServiceConfig {
    /// Defaults from the §5k constants over a basic single-namespace
    /// mount at `root`.
    pub fn basic(root: &str) -> ServiceConfig {
        ServiceConfig {
            plfs: PlfsConfig::basic(root),
            token_rate: SVC_TOKEN_RATE,
            token_burst: SVC_TOKEN_BURST,
            dirty_budget: SVC_DIRTY_BUDGET,
            expected_clients: 1024,
        }
    }
}

/// One open session: the mode-specific handle plus the owning tenant
/// (admission is charged to the opener for the session's lifetime).
enum Session<B: Backend> {
    /// A writer session.
    Writer {
        /// The underlying write handle.
        handle: WriteHandle<B>,
        /// Owning tenant.
        tenant: String,
        /// Bytes this session has charged to its tenant's dirty budget
        /// and not yet released (by a flush, a close or an abandon).
        unflushed: u64,
    },
    /// A reader session.
    Reader {
        /// The underlying read handle.
        handle: ReadHandle<B>,
        /// Owning tenant.
        tenant: String,
    },
}

/// Per-tenant admission state: op pacing plus dirty accounting.
struct TenantState {
    bucket: TokenBucket,
    dirty: DirtyBudget,
}

type SessionSlot<B> = Arc<Mutex<Option<Session<B>>, class::SvcSession>>;

/// One handle-table shard: handle id → its session slot.
type HandleShard<B> = Mutex<HashMap<u64, SessionSlot<B>>, class::SvcHandleShard>;

/// One tenant-map shard: tenant name → its admission state.
type TenantShard = Mutex<HashMap<String, TenantState>, class::SvcTenantShard>;

/// The shared-instance front end. See the module docs for the
/// architecture; construction wires the §5k constants (overridable via
/// [`ServiceConfig`]) to a [`Plfs`] mount over `backend`.
pub struct Service<B: Backend + Clone> {
    fs: Plfs<B>,
    /// Sharded handle table: `svc-handle-shard` (§5i rank 12).
    handle_shards: Box<[HandleShard<B>]>,
    /// Sharded tenant admission state: `svc-tenant-shard` (§5i rank 18).
    tenant_shards: Box<[TenantShard]>,
    cfg: ServiceConfig,
    next_handle: AtomicU64,
    epoch: Instant,
}

impl<B: Backend + Clone> Service<B> {
    /// Mount a shared instance over `backend`.
    pub fn new(backend: B, cfg: ServiceConfig) -> Result<Service<B>> {
        let fs = Plfs::new(backend, cfg.plfs.clone())?;
        let per_shard =
            (cfg.expected_clients * SVC_HANDLE_LOAD_FACTOR).div_ceil(SVC_HANDLE_SHARDS);
        let handle_shards = (0..SVC_HANDLE_SHARDS)
            .map(|_| Mutex::new(HashMap::with_capacity(per_shard)))
            .collect();
        let tenant_shards = (0..SVC_TENANT_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        Ok(Service {
            fs,
            handle_shards,
            tenant_shards,
            cfg,
            next_handle: AtomicU64::new(1),
            epoch: Instant::now(),
        })
    }

    /// The shared mount underneath (e.g. for fsck or direct reads).
    pub fn fs(&self) -> &Plfs<B> {
        &self.fs
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Nanoseconds since service construction (the admission clock).
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The shard holding handle id `id` (multiplicative hash, so
    /// sequential and adversarial id patterns both spread).
    fn shard(&self, id: u64) -> &HandleShard<B> {
        let mixed = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        &self.handle_shards[mixed % SVC_HANDLE_SHARDS]
    }

    /// The shard holding tenant `tenant`'s admission state.
    fn tshard(&self, tenant: &str) -> &TenantShard {
        let mut h = DefaultHasher::new();
        tenant.hash(&mut h);
        &self.tenant_shards[h.finish() as usize % SVC_TENANT_SHARDS]
    }

    /// The logical path tenant `tenant` sees as `logical`: prefixed
    /// with the tenant name, so tenants land in disjoint containers.
    fn tenant_path(tenant: &str, logical: &str) -> Result<String> {
        if tenant.is_empty() || tenant.contains('/') {
            return Err(PlfsError::InvalidArg(format!(
                "tenant name `{tenant}` must be non-empty and slash-free"
            )));
        }
        if !logical.starts_with('/') {
            return Err(PlfsError::InvalidArg(format!(
                "logical path `{logical}` must be absolute"
            )));
        }
        Ok(format!("/{tenant}{logical}"))
    }

    /// Probe tenant `tenant`'s token bucket, creating its admission
    /// state on first contact. Also charges `dirty` bytes when the op
    /// is granted; the bool is the dirty budget's flush trigger.
    fn admit(&self, tenant: &str, dirty: u64) -> (Grant, bool) {
        let now = self.now_ns();
        let take = |state: &mut TenantState| {
            let grant = state.bucket.try_take(now);
            let must_flush = match grant {
                Grant::Granted if dirty > 0 => state.dirty.charge(dirty),
                _ => false,
            };
            (grant, must_flush)
        };
        let mut tshard = self.tshard(tenant).lock();
        // The tenant's name is copied only on its first contact.
        match tshard.get_mut(tenant) {
            Some(state) => take(state),
            None => take(tshard.entry(tenant.to_string()).or_insert_with(|| TenantState {
                bucket: TokenBucket::new(self.cfg.token_rate, self.cfg.token_burst),
                dirty: DirtyBudget::new(self.cfg.dirty_budget),
            })),
        }
    }

    /// Return `bytes` of tenant `tenant`'s dirty account: a writer
    /// session's records reached its index log, or the session ended.
    fn release_dirty(&self, tenant: &str, bytes: u64) {
        let mut tshard = self.tshard(tenant).lock();
        if let Some(state) = tshard.get_mut(tenant) {
            state.dirty.release(bytes);
        }
    }

    /// Look a live handle up, holding its shard lock only for the
    /// lookup (the session's own lock serializes the actual I/O).
    fn lookup(&self, h: SvcHandle) -> Result<SessionSlot<B>> {
        self.shard(h.0)
            .lock()
            .get(&h.0)
            .cloned()
            .ok_or_else(|| stale(h))
    }

    /// Open a writer session for `tenant` on its logical file
    /// `logical`. Costs one token; the writer identity is the handle
    /// id, so concurrent opens of one file are distinct PLFS writers.
    pub fn open_write(&self, tenant: &str, logical: &str) -> Result<Admitted<SvcHandle>> {
        let start = telemetry::enabled().then(Instant::now);
        let path = Self::tenant_path(tenant, logical)?;
        if let (Grant::Denied { wait_ns }, _) = self.admit(tenant, 0) {
            telemetry::count(telemetry::CTR_SVC_THROTTLED, 1);
            return Ok(Admitted::Throttled { wait_ns });
        }
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        let handle = self.fs.open_write(&path, id)?;
        let session = Session::Writer {
            handle,
            tenant: tenant.to_string(),
            unflushed: 0,
        };
        self.shard(id)
            .lock()
            .insert(id, Arc::new(Mutex::new(Some(session))));
        telemetry::count(telemetry::CTR_SVC_OPENS, 1);
        self.finish_op(start);
        Ok(Admitted::Granted(SvcHandle(id)))
    }

    /// Open a reader session for `tenant` on its logical file
    /// `logical`. Costs one token.
    pub fn open_read(&self, tenant: &str, logical: &str) -> Result<Admitted<SvcHandle>> {
        let start = telemetry::enabled().then(Instant::now);
        let path = Self::tenant_path(tenant, logical)?;
        if let (Grant::Denied { wait_ns }, _) = self.admit(tenant, 0) {
            telemetry::count(telemetry::CTR_SVC_THROTTLED, 1);
            return Ok(Admitted::Throttled { wait_ns });
        }
        let handle = self.fs.open_read(&path)?;
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        let session = Session::Reader {
            handle,
            tenant: tenant.to_string(),
        };
        self.shard(id)
            .lock()
            .insert(id, Arc::new(Mutex::new(Some(session))));
        telemetry::count(telemetry::CTR_SVC_OPENS, 1);
        self.finish_op(start);
        Ok(Admitted::Granted(SvcHandle(id)))
    }

    /// Append `content` at logical `offset` through writer session
    /// `h`. Costs one token and charges the tenant's dirty budget;
    /// crossing the budget flushes this writer's index to its index log
    /// before the call returns and releases what the writer had charged.
    pub fn append(&self, h: SvcHandle, offset: u64, content: &Content) -> Result<Admitted<()>> {
        let start = telemetry::enabled().then(Instant::now);
        let session = self.lookup(h)?;
        let mut session_guard = session.lock();
        let Some(Session::Writer {
            handle,
            tenant,
            unflushed,
        }) = session_guard.as_mut()
        else {
            return Err(wrong_mode(h, "writer"));
        };
        let (grant, must_flush) = self.admit(tenant, content.len());
        if let Grant::Denied { wait_ns } = grant {
            telemetry::count(telemetry::CTR_SVC_THROTTLED, 1);
            return Ok(Admitted::Throttled { wait_ns });
        }
        *unflushed += content.len();
        let ts = self.fs.timestamp();
        handle.write(offset, content, ts)?;
        if must_flush {
            handle.flush_index()?;
            telemetry::count(telemetry::CTR_SVC_DIRTY_FLUSHES, 1);
            self.release_dirty(tenant, std::mem::take(unflushed));
        }
        self.finish_op(start);
        Ok(Admitted::Granted(()))
    }

    /// Read `len` bytes at logical `offset` through reader session
    /// `h`. Costs one token.
    pub fn read(&self, h: SvcHandle, offset: u64, len: u64) -> Result<Admitted<Vec<u8>>> {
        let start = telemetry::enabled().then(Instant::now);
        let session = self.lookup(h)?;
        let mut session_guard = session.lock();
        let Some(Session::Reader { handle, tenant }) = session_guard.as_mut() else {
            return Err(wrong_mode(h, "reader"));
        };
        if let (Grant::Denied { wait_ns }, _) = self.admit(tenant, 0) {
            telemetry::count(telemetry::CTR_SVC_THROTTLED, 1);
            return Ok(Admitted::Throttled { wait_ns });
        }
        let bytes = handle.read(offset, len)?;
        self.finish_op(start);
        Ok(Admitted::Granted(bytes))
    }

    /// Close session `h`. Never throttled: admission paces work, not
    /// the release of its resources. Closing a writer is its
    /// acknowledgement point (final index flush + metadir record), so
    /// errors here are real — and a failed close keeps the handle in
    /// the table with its buffered index records, so the caller can
    /// retry instead of losing acknowledged appends. Once a close has
    /// succeeded the handle is stale.
    pub fn close(&self, h: SvcHandle) -> Result<()> {
        let start = telemetry::enabled().then(Instant::now);
        let session = self.lookup(h)?;
        let mut session_guard = session.lock();
        match session_guard.as_mut() {
            Some(Session::Writer { handle, .. }) => {
                let ts = self.fs.timestamp();
                handle.close_in_place(ts)?;
            }
            Some(Session::Reader { .. }) => {}
            // A concurrent close won the session lock and finished first.
            None => return Err(stale(h)),
        }
        let ended = session_guard.take();
        // A shard lock (rank 12) is never taken under a session (rank 15).
        drop(session_guard);
        self.shard(h.0).lock().remove(&h.0);
        self.release_session(ended);
        self.finish_op(start);
        Ok(())
    }

    /// Abandon session `h` without closing it — the tenant-crash
    /// model: the slot leaves the table but the writer underneath is
    /// dropped un-closed, exactly as if the client died mid-stream, and
    /// its charge leaves the tenant's dirty account with it. Returns
    /// whether the handle was live.
    pub fn abandon(&self, h: SvcHandle) -> bool {
        let Some(session) = self.shard(h.0).lock().remove(&h.0) else {
            return false;
        };
        let ended = session.lock().take();
        self.release_session(ended);
        true
    }

    /// Release an ended writer session's charge from its tenant's dirty
    /// account.
    fn release_session(&self, ended: Option<Session<B>>) {
        if let Some(Session::Writer {
            tenant, unflushed, ..
        }) = ended
        {
            self.release_dirty(&tenant, unflushed);
        }
    }

    /// Handles currently open across all shards (diagnostic).
    pub fn open_handles(&self) -> usize {
        self.handle_shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Tenant `tenant`'s currently-accounted dirty bytes (diagnostic).
    pub fn tenant_dirty(&self, tenant: &str) -> u64 {
        self.tshard(tenant)
            .lock()
            .get(tenant)
            .map_or(0, |s| s.dirty.dirty())
    }

    /// Record one completed (admitted) op in the `svc.*` telemetry, timed
    /// from `start`: each op reads the clock only while its thread
    /// records, so the untraced path reads none for telemetry.
    fn finish_op(&self, start: Option<Instant>) {
        let Some(start) = start else {
            return;
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        telemetry::record(|r| {
            r.count(telemetry::CTR_SVC_OPS, 1);
            r.record_ns(telemetry::HIST_SVC_OP, ns);
        });
    }
}

/// The error for a handle that is not (or no longer) in the table.
fn stale(h: SvcHandle) -> PlfsError {
    PlfsError::InvalidArg(format!("stale service handle {}", h.0))
}

/// Mode-mismatch error for a live handle of the wrong kind.
fn wrong_mode(h: SvcHandle, need: &str) -> PlfsError {
    PlfsError::InvalidArg(format!("service handle {} is not a {need} session", h.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfs::MemFs;

    fn svc() -> Service<Arc<MemFs>> {
        Service::new(Arc::new(MemFs::new()), ServiceConfig::basic("/panfs")).unwrap()
    }

    fn grant<T>(a: Admitted<T>) -> T {
        match a {
            Admitted::Granted(v) => v,
            Admitted::Throttled { wait_ns } => panic!("unexpected throttle ({wait_ns} ns)"),
        }
    }

    #[test]
    fn write_read_round_trip_per_tenant() {
        let s = svc();
        let h = grant(s.open_write("t0", "/f").unwrap());
        // A second open of the same path is a distinct PLFS writer.
        let h2 = grant(s.open_write("t0", "/f").unwrap());
        s.append(h, 0, &Content::bytes(b"abc".to_vec())).unwrap();
        s.append(h, 3, &Content::bytes(b"def".to_vec())).unwrap();
        s.append(h2, 6, &Content::bytes(b"ghi".to_vec())).unwrap();
        s.close(h).unwrap();
        s.close(h2).unwrap();
        let r = grant(s.open_read("t0", "/f").unwrap());
        assert_eq!(grant(s.read(r, 0, 9).unwrap()), b"abcdefghi");
        s.close(r).unwrap();
        assert_eq!(s.open_handles(), 0);
        let writers = s.fs().container("/t0/f").list_writers(s.fs().backend());
        assert_eq!(writers.unwrap(), vec![h.id(), h2.id()], "one data log each");
    }

    #[test]
    fn failed_close_keeps_handle_and_buffered_index_for_retry() {
        use crate::backend::Gated;
        use std::sync::atomic::AtomicBool;

        // The backend goes down between the appends and the close-time
        // index flush.
        let down = Arc::new(AtomicBool::new(false));
        let gate = {
            let down = Arc::clone(&down);
            move |_: &crate::ioplane::IoOp| match down.load(Ordering::Relaxed) {
                true => Err(PlfsError::Io("backend down".into())),
                false => Ok(()),
            }
        };
        let fb = Arc::new(Gated {
            inner: MemFs::new(),
            gate,
        });
        let s = Service::new(Arc::clone(&fb), ServiceConfig::basic("/panfs")).unwrap();
        let h = grant(s.open_write("t", "/f").unwrap());
        s.append(h, 0, &Content::bytes(b"acknowledged".to_vec())).unwrap();
        s.append(h, 12, &Content::bytes(b" data".to_vec())).unwrap();
        down.store(true, Ordering::Relaxed);
        assert!(
            s.close(h).is_err(),
            "index flush must fail while the backend is down"
        );
        // The handle survives the failed close...
        assert_eq!(s.open_handles(), 1);
        // ...and once the backend is back, the retry lands everything.
        down.store(false, Ordering::Relaxed);
        s.close(h).unwrap();
        assert_eq!(s.open_handles(), 0);
        let r = grant(s.open_read("t", "/f").unwrap());
        assert_eq!(grant(s.read(r, 0, 17).unwrap()), b"acknowledged data");
        s.close(r).unwrap();
        assert!(crate::fsck::check(&fb, &s.fs().container("/t/f")).unwrap().is_clean());
        // A close that succeeded is final: the handle is stale now.
        assert!(s.close(h).is_err());
    }

    #[test]
    fn tenants_are_namespace_isolated() {
        let s = svc();
        for t in ["alice", "bob"] {
            let h = grant(s.open_write(t, "/same").unwrap());
            s.append(h, 0, &Content::bytes(t.as_bytes().to_vec())).unwrap();
            s.close(h).unwrap();
        }
        let r = grant(s.open_read("alice", "/same").unwrap());
        assert_eq!(grant(s.read(r, 0, 5).unwrap()), b"alice");
        s.close(r).unwrap();
        let r = grant(s.open_read("bob", "/same").unwrap());
        assert_eq!(grant(s.read(r, 0, 3).unwrap()), b"bob");
        s.close(r).unwrap();
    }

    #[test]
    fn stale_and_wrong_mode_handles_error() {
        let s = svc();
        let h = grant(s.open_write("t", "/f").unwrap());
        assert!(s.read(h, 0, 1).is_err(), "writer handle cannot read");
        s.close(h).unwrap();
        assert!(s.append(h, 0, &Content::bytes(vec![1])).is_err());
        assert!(s.close(h).is_err());
        assert!(!s.abandon(h));
    }

    #[test]
    fn token_exhaustion_throttles_with_wait() {
        let mut cfg = ServiceConfig::basic("/panfs");
        cfg.token_rate = 1; // one op/sec: the burst is all we get
        cfg.token_burst = 3;
        let s = Service::new(Arc::new(MemFs::new()), cfg).unwrap();
        let h = grant(s.open_write("slow", "/f").unwrap()); // token 1
        s.append(h, 0, &Content::bytes(vec![7])).unwrap(); // token 2
        s.append(h, 1, &Content::bytes(vec![7])).unwrap(); // token 3
        let out = s.append(h, 2, &Content::bytes(vec![7])).unwrap();
        let Admitted::Throttled { wait_ns } = out else {
            panic!("fourth op inside one second must throttle");
        };
        assert!(wait_ns > 0 && wait_ns <= 1_000_000_000);
        // Other tenants are unaffected — fairness is per-tenant.
        let h2 = grant(s.open_write("fast", "/f").unwrap());
        assert!(s
            .append(h2, 0, &Content::bytes(vec![9]))
            .unwrap()
            .granted()
            .is_some());
    }

    #[test]
    fn throttled_append_has_no_effect() {
        let mut cfg = ServiceConfig::basic("/panfs");
        cfg.token_rate = 1;
        cfg.token_burst = 2;
        let s = Service::new(Arc::new(MemFs::new()), cfg).unwrap();
        let h = grant(s.open_write("t", "/f").unwrap());
        s.append(h, 0, &Content::bytes(vec![1])).unwrap();
        assert!(s
            .append(h, 1, &Content::bytes(vec![2]))
            .unwrap()
            .granted()
            .is_none());
        s.close(h).unwrap();
        // Read below the service (admission would throttle this tenant's
        // own probe): only the admitted byte ever landed.
        let mut r = s.fs().open_read("/t/f").unwrap();
        assert_eq!(r.size(), 1, "throttled byte never landed");
        assert_eq!(r.read(0, 1).unwrap(), vec![1]);
    }

    fn budget_64() -> Service<Arc<MemFs>> {
        let mut cfg = ServiceConfig::basic("/panfs");
        cfg.dirty_budget = 64;
        Service::new(Arc::new(MemFs::new()), cfg).unwrap()
    }

    /// Records in writer session `h`'s index log on the backend.
    fn logged(s: &Service<Arc<MemFs>>, path: &str, h: SvcHandle) -> usize {
        let c = s.fs().container(path);
        c.read_index_log(s.fs().backend(), h.id()).unwrap().len()
    }

    #[test]
    fn dirty_budget_forces_index_flush() {
        let s = budget_64();
        let h = grant(s.open_write("t", "/f").unwrap());
        s.append(h, 0, &Content::bytes(vec![1; 32])).unwrap();
        assert_eq!(s.tenant_dirty("t"), 32);
        assert_eq!(logged(&s, "/t/f", h), 0, "under budget: index stays buffered");
        s.append(h, 32, &Content::bytes(vec![2; 32])).unwrap();
        assert_eq!(s.tenant_dirty("t"), 0, "the flush releases the writer's charge");
        // Both records are in the index log before close...
        assert_eq!(logged(&s, "/t/f", h), 2);
        // ...so a reader opened mid-write sees the flushed prefix.
        let r = grant(s.open_read("t", "/f").unwrap());
        assert_eq!(grant(s.read(r, 0, 64).unwrap()), [[1; 32], [2; 32]].concat());
        s.close(r).unwrap();
        s.close(h).unwrap();
    }

    #[test]
    fn dirty_account_is_the_open_writers_unflushed_bytes() {
        let s = budget_64();
        let a = grant(s.open_write("t", "/a").unwrap());
        s.append(a, 0, &Content::bytes(vec![1; 48])).unwrap();
        s.close(a).unwrap();
        assert_eq!(s.tenant_dirty("t"), 0, "a closed writer holds no charge");
        let b = grant(s.open_write("t", "/b").unwrap());
        s.append(b, 0, &Content::bytes(vec![2; 32])).unwrap();
        assert_eq!(s.tenant_dirty("t"), 32);
        assert_eq!(logged(&s, "/t/b", b), 0, "no forced flush");
        // An abandoned writer's charge leaves with it.
        assert!(s.abandon(b));
        assert_eq!(s.tenant_dirty("t"), 0);
    }

    #[test]
    fn a_forced_flush_releases_only_the_flushing_writer() {
        let s = budget_64();
        let a = grant(s.open_write("t", "/a").unwrap());
        let b = grant(s.open_write("t", "/b").unwrap());
        s.append(a, 0, &Content::bytes(vec![1; 40])).unwrap();
        s.append(b, 0, &Content::bytes(vec![2; 24])).unwrap();
        // B crossed the line: B's records are flushed, A's still held.
        assert_eq!(logged(&s, "/t/b", b), 1);
        assert_eq!(logged(&s, "/t/a", a), 0);
        assert_eq!(s.tenant_dirty("t"), 40);
        s.close(a).unwrap();
        s.close(b).unwrap();
        assert_eq!(s.tenant_dirty("t"), 0);
    }

    #[test]
    fn abandoned_writer_leaves_other_tenants_readable() {
        let s = svc();
        let dead = grant(s.open_write("dead", "/ckpt").unwrap());
        s.append(dead, 0, &Content::bytes(vec![0xAA; 128])).unwrap();
        let live = grant(s.open_write("live", "/ckpt").unwrap());
        s.append(live, 0, &Content::bytes(vec![0xBB; 64])).unwrap();
        assert!(s.abandon(dead), "crash drops the handle un-closed");
        s.close(live).unwrap();
        let r = grant(s.open_read("live", "/ckpt").unwrap());
        assert_eq!(grant(s.read(r, 0, 64).unwrap()), vec![0xBB; 64]);
        s.close(r).unwrap();
    }

    #[test]
    fn handle_ids_spread_across_shards() {
        let s = svc();
        let mut handles = Vec::new();
        for i in 0..256 {
            handles.push(grant(s.open_write("t", &format!("/f{i}")).unwrap()));
        }
        let occupied = s.handle_shards.iter().filter(|m| !m.lock().is_empty()).count();
        assert!(occupied > SVC_HANDLE_SHARDS / 2, "only {occupied} shards used");
        for h in handles {
            s.close(h).unwrap();
        }
    }

    #[test]
    fn svc_telemetry_counts_ops_and_throttles() {
        use crate::telemetry::{self, CTR_SVC_OPENS, CTR_SVC_OPS, CTR_SVC_THROTTLED, HIST_SVC_OP};
        let mut cfg = ServiceConfig::basic("/panfs");
        cfg.token_rate = 1;
        cfg.token_burst = 2;
        let s = Service::new(Arc::new(MemFs::new()), cfg).unwrap();
        let ((), snap) = telemetry::capture(|| {
            let h = grant(s.open_write("t", "/f").unwrap());
            s.append(h, 0, &Content::bytes(vec![1])).unwrap();
            assert!(s
                .append(h, 1, &Content::bytes(vec![2]))
                .unwrap()
                .granted()
                .is_none());
        });
        assert_eq!(snap.counters[CTR_SVC_OPENS], 1);
        assert_eq!(snap.counters[CTR_SVC_THROTTLED], 1);
        assert_eq!(snap.counters[CTR_SVC_OPS], 2);
        assert_eq!(snap.histograms[HIST_SVC_OP].count(), 2);
    }
}

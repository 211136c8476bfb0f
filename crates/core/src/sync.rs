//! Ranked locks: the lock hierarchy of DESIGN.md §5i, as types.
//!
//! The middleware stacks interposition layers — service over mount over
//! I/O plane over backend — and each layer keeps locks of its own. Every
//! one of them is a [`Mutex`] or `RwLock` from this module, and its
//! type names the [`Class`] it belongs to (one of [`class::ALL`]). A
//! class carries a rank and an `io_ok` flag, and two rules keep the
//! stack free of deadlock and of serialisation behind storage:
//!
//! * **Order.** A thread acquires classes in strictly ascending rank. A
//!   descending acquisition, a second lock of a class the thread holds
//!   (`std` locks are not reentrant, and two shards of one class have no
//!   order between them) and so every cycle break it.
//! * **No guard across I/O.** A thread enters a backend only while every
//!   class it holds is `io_ok`: a guard held across a backend call
//!   queues everyone who needs that lock behind storage latency. Every
//!   path into a backend calls `check_io`.
//!
//! Debug builds check both with `debug_assert!` against a thread-local
//! list of the classes the thread holds, so they cover whatever the debug
//! test suite runs. A thread that joins another while holding a guard is
//! not seen: the joined thread's acquisitions are on its own list.
//! Release builds keep no list. A lock there is the `std` lock, and one
//! that a panicking thread poisoned is taken as it is, so one tenant's
//! panic does not wedge the locks every other tenant shares.
#![expect(
    clippy::disallowed_types,
    reason = "the one module that names the std locks; every other lock is ranked through it"
)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{self as std_sync, PoisonError};

/// What the hierarchy knows about a lock class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassInfo {
    /// The class's name in the DESIGN.md §5i table.
    pub name: &'static str,
    /// Acquisition order: a thread takes classes in ascending rank.
    pub rank: u8,
    /// Whether a guard of the class may be held into a backend call.
    pub io_ok: bool,
}

/// A lock class: a type that only names a row of the hierarchy.
pub trait Class {
    /// The row.
    const INFO: ClassInfo;
}

/// Declares each class as a unit type and lists every one in `ALL`, so a
/// class cannot be left off the list DESIGN.md §5i is checked against.
macro_rules! classes {
    ($($(#[doc = $doc:literal])+ $ty:ident = $name:literal, $rank:literal, $io_ok:literal;)+) => {
        $(
            $(#[doc = $doc])+
            #[derive(Debug)]
            pub struct $ty;

            impl super::Class for $ty {
                const INFO: super::ClassInfo =
                    super::ClassInfo { name: $name, rank: $rank, io_ok: $io_ok };
            }
        )+

        /// Every class, in rank order.
        pub const ALL: &[super::ClassInfo] = &[$(<$ty as super::Class>::INFO),+];
    };
}

/// The nine classes of DESIGN.md §5i: `Name = "name", rank, io_ok;`.
pub mod class {
    classes! {
        /// One shard of the service handle table (§5k); held only for a
        /// lookup, insert or remove.
        SvcHandleShard = "svc-handle-shard", 12, false;
        /// One open service session. It serialises that handle's I/O, so
        /// it is the one class held into backend calls.
        SvcSession = "svc-session", 15, true;
        /// One shard of the per-tenant admission map; token and dirty
        /// probes under a session lock.
        SvcTenantShard = "svc-tenant-shard", 18, false;
        /// `MemFs`'s whole namespace; every op or batch is one acquisition.
        MemfsNodes = "memfs-nodes", 30, false;
        /// A `FaultBackend`'s injection state; released before the inner
        /// backend runs.
        FaultState = "fault-state", 60, false;
        /// A `TracingBackend`'s op trace.
        RecordingTrace = "recording-trace", 70, false;
        /// One span-cache shard (§5j).
        SpancacheShard = "spancache-shard", 75, false;
        /// A mount's shared-index cache (§5l); released across the
        /// aggregation it single-flights.
        IndexCache = "index-cache", 77, false;
        /// One telemetry recorder: counters, histograms and finished spans.
        Telemetry = "telemetry", 80, false;
    }
}

#[cfg(debug_assertions)]
mod held {
    use super::ClassInfo;
    use std::cell::RefCell;

    thread_local! {
        /// The classes this thread holds, in ascending rank.
        static HELD: RefCell<Vec<ClassInfo>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(class: ClassInfo) {
        let top = HELD.with(|held| held.borrow().last().copied());
        if let Some(top) = top {
            debug_assert!(
                class.rank > top.rank,
                "lock order: `{}` (rank {}) acquired while holding `{}` (rank {})",
                class.name,
                class.rank,
                top.name,
                top.rank
            );
        }
        HELD.with(|held| held.borrow_mut().push(class));
    }

    pub(super) fn release(class: ClassInfo) {
        // Guards may drop in any order; a thread's list is already gone
        // only while the thread itself is being torn down.
        let removed = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            let at = held.iter().rposition(|c| *c == class);
            at.map(|at| held.remove(at))
        });
        debug_assert!(
            !matches!(removed, Ok(None)),
            "`{}` released but not held",
            class.name
        );
    }

    pub(super) fn check_io() {
        let blocking = HELD.with(|held| held.borrow().iter().find(|c| !c.io_ok).copied());
        debug_assert!(
            blocking.is_none(),
            "guard across I/O: `{}` is held into a backend call",
            blocking.map_or("", |c| c.name)
        );
    }
}

/// Debug builds: fail if this thread holds a class that is not `io_ok`.
/// Called on every path into a backend: `ioplane::submit_retried`, which
/// every other plane entry reaches, `ioplane::replay`, and the writer's
/// direct append in `error::retry_transient`.
#[inline]
pub(crate) fn check_io() {
    #[cfg(debug_assertions)]
    held::check_io();
}

/// This thread's hold on one class: checked and listed when made,
/// delisted when dropped. Empty in release builds.
struct Claim<C: Class>(PhantomData<C>);

impl<C: Class> Claim<C> {
    #[inline]
    fn take() -> Claim<C> {
        #[cfg(debug_assertions)]
        held::acquire(C::INFO);
        Claim(PhantomData)
    }
}

#[cfg(debug_assertions)]
impl<C: Class> Drop for Claim<C> {
    fn drop(&mut self) {
        held::release(C::INFO);
    }
}

/// A guard of class `C` over the `std` guard `G`: releases the lock, then
/// the class, when dropped.
pub struct Guard<G, C: Class> {
    inner: G,
    claim: Claim<C>,
}

/// A [`Mutex`]'s guard.
pub(crate) type MutexGuard<'a, T, C> = Guard<std_sync::MutexGuard<'a, T>, C>;

impl<G: Deref, C: Class> Deref for Guard<G, C> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut, C: Class> DerefMut for Guard<G, C> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// A mutual-exclusion lock of class `C`.
pub struct Mutex<T: ?Sized, C: Class> {
    class: PhantomData<C>,
    inner: std_sync::Mutex<T>,
}

impl<T, C: Class> Mutex<T, C> {
    /// A lock of class `C` around `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            class: PhantomData,
            inner: std_sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized, C: Class> Mutex<T, C> {
    /// Block until this thread holds the lock.
    pub fn lock(&self) -> MutexGuard<'_, T, C> {
        let claim = Claim::take();
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Guard { inner, claim }
    }
}

impl<T: Default, C: Class> Default for Mutex<T, C> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// A reader-writer lock of class `C`. A read is an acquisition like any
/// other: two reads of one class on one thread break the order, since a
/// writer queued between them would deadlock the thread.
pub(crate) struct RwLock<T: ?Sized, C: Class> {
    class: PhantomData<C>,
    inner: std_sync::RwLock<T>,
}

impl<T, C: Class> RwLock<T, C> {
    /// A lock of class `C` around `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            class: PhantomData,
            inner: std_sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized, C: Class> RwLock<T, C> {
    /// Block until this thread holds the lock shared.
    pub fn read(&self) -> Guard<std_sync::RwLockReadGuard<'_, T>, C> {
        let claim = Claim::take();
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        Guard { inner, claim }
    }

    /// Block until this thread holds the lock exclusively.
    pub fn write(&self) -> Guard<std_sync::RwLockWriteGuard<'_, T>, C> {
        let claim = Claim::take();
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        Guard { inner, claim }
    }
}

impl<T: ?Sized + fmt::Debug, C: Class> fmt::Debug for RwLock<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A condition variable over a [`Mutex`].
#[derive(Default)]
pub(crate) struct Condvar(std_sync::Condvar);

impl Condvar {
    /// A condition variable no thread waits on.
    pub const fn new() -> Condvar {
        Condvar(std_sync::Condvar::new())
    }

    /// Release `guard`'s lock, sleep until notified, and take it back.
    /// Taking it back is an acquisition like the first: it must still be
    /// above every class the thread holds.
    pub fn wait<'a, T, C: Class>(&self, guard: MutexGuard<'a, T, C>) -> MutexGuard<'a, T, C> {
        let Guard { inner, claim } = guard;
        drop(claim);
        let claim = Claim::take();
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        Guard { inner, claim }
    }

    /// Wake every waiter.
    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
#[cfg(debug_assertions)]
mod tests {
    use super::*;
    use crate::container::Container;
    use crate::content::Content;
    use crate::federation::Federation;
    use crate::index::SpanCache;
    use crate::ioplane::{self, IoOp};
    use crate::memfs::MemFs;
    use crate::writer::{IndexPolicy, WriteHandle};
    use crate::Backend;
    use std::sync::Arc;

    fn mkdir(path: &str) -> IoOp {
        IoOp::Mkdir { path: path.into() }
    }

    #[test]
    #[should_panic(expected = "guard across I/O: `svc-tenant-shard`")]
    fn a_guard_held_into_a_plane_submit_fails() {
        let b = MemFs::new();
        let tenants: Mutex<(), class::SvcTenantShard> = Mutex::new(());
        let _held = tenants.lock();
        ioplane::submit_retried(&b, &[mkdir("/d")]);
    }

    #[test]
    #[should_panic(expected = "guard across I/O: `spancache-shard`")]
    fn a_guard_held_into_the_direct_append_fails() {
        let c = Container::new("/f", &Federation::single("/ns", 1));
        let mut w =
            WriteHandle::open(Arc::new(MemFs::new()), c, 0, IndexPolicy::WriteClose).unwrap();
        let shard: Mutex<(), class::SpancacheShard> = Mutex::new(());
        let _held = shard.lock();
        // A buffered write's one backend call is the data append.
        w.write(0, &Content::bytes(vec![1; 8]), 1).unwrap();
    }

    #[test]
    #[should_panic(
        expected = "lock order: `memfs-nodes` (rank 30) acquired while holding `index-cache` (rank 77)"
    )]
    fn a_descending_acquisition_fails() {
        let b = MemFs::new();
        let cache: Mutex<(), class::IndexCache> = Mutex::new(());
        let _held = cache.lock();
        // Straight into the backend, past the plane's I/O check.
        b.submit(&[mkdir("/d")]);
    }

    #[test]
    fn held_guards_may_drop_in_any_order() {
        let (a, b, c): (
            Mutex<(), class::SvcHandleShard>,
            Mutex<(), class::SvcSession>,
            Mutex<(), class::SvcTenantShard>,
        ) = Default::default();
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        let gc = c.lock();
        drop(gb);
        drop(gc);
        drop(a.lock());
    }

    #[test]
    fn a_session_held_across_a_plane_submit_passes() {
        let b = MemFs::new();
        let session: Mutex<(), class::SvcSession> = Mutex::new(());
        let _held = session.lock();
        let out = ioplane::submit_retried(&b, &[mkdir("/d")]);
        assert!(out[0].is_ok());
    }

    #[test]
    fn a_condvar_wait_under_the_index_cache_passes() {
        let session: Mutex<(), class::SvcSession> = Mutex::new(());
        let landed: Arc<(Mutex<bool, class::IndexCache>, Condvar)> =
            Arc::new((Mutex::new(false), Condvar::new()));
        let _session = session.lock();
        let mut done = landed.0.lock();
        let leader = {
            let landed = Arc::clone(&landed);
            std::thread::spawn(move || {
                *landed.0.lock() = true;
                landed.1.notify_all();
            })
        };
        while !*done {
            done = landed.1.wait(done);
        }
        drop(done);
        leader.join().unwrap();
        // The guard the wait gave back delisted `index-cache` when it
        // dropped: a span-cache shard, ranked below it, is in order again.
        drop(SpanCache::new().get(0, 0));
    }

    #[test]
    #[should_panic(
        expected = "lock order: `index-cache` (rank 77) acquired while holding `telemetry` (rank 80)"
    )]
    fn a_condvar_wait_above_a_later_lock_fails() {
        let (cache, registry): (Mutex<(), class::IndexCache>, Mutex<(), class::Telemetry>) =
            Default::default();
        let landed = Condvar::new();
        let guard = cache.lock();
        let _later = registry.lock();
        drop(landed.wait(guard));
    }

    #[test]
    fn the_classes_ascend_and_only_a_session_is_io_ok() {
        assert!(class::ALL.windows(2).all(|w| w[0].rank < w[1].rank));
        let io_ok: Vec<&str> = class::ALL
            .iter()
            .filter(|c| c.io_ok)
            .map(|c| c.name)
            .collect();
        assert_eq!(io_ok, ["svc-session"]);
    }
}

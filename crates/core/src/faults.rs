//! Deterministic fault injection for the backend layer.
//!
//! PLFS exists to survive failure: a checkpoint layer that is only correct
//! on the happy path is not a checkpoint layer. [`FaultBackend`] wraps any
//! [`Backend`] and injects seeded, reproducible failures on the data path
//! (`append`/`read_at`), where the middleware installs its bounded
//! retries:
//!
//! * **transient errors** ([`PlfsError::Transient`]) — the operation had
//!   no effect and may be retried; models dropped RPCs and storage-server
//!   failover.
//! * **torn appends** — a strict prefix of the [`Content`] lands before
//!   the failure; models a node dying mid-stream or a partial RPC. The
//!   caller observes an error but the log has grown. Index-log tears leave
//!   the truncated records `fsck` repairs; data-log tears leave dead bytes
//!   no index entry will ever reference.
//!
//! All randomness comes from a single seeded generator behind a mutex, so
//! a `(seed, schedule)` pair replays byte-identically. Crash points are
//! not sampled here: `tests/crash_states.rs` enumerates every prefix of a
//! recorded trace instead (DESIGN.md §5c).

use crate::backend::{Backend, NodeKind};
use crate::content::Content;
use crate::error::{PlfsError, Result};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};

/// Knobs for one fault schedule. Probabilities are per data-path
/// operation; everything is driven by `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injection RNG. Same seed + same operation sequence =
    /// same faults.
    pub seed: u64,
    /// Probability that an `append`/`read_at` fails cleanly (nothing
    /// lands) with [`PlfsError::Transient`].
    pub transient_prob: f64,
    /// Probability that an `append` lands only a strict prefix of its
    /// content and then fails (non-transient: the caller must not blindly
    /// re-send).
    pub torn_append_prob: f64,
}

impl FaultConfig {
    /// No faults at all — `FaultBackend` becomes a transparent wrapper.
    pub fn off() -> Self {
        FaultConfig {
            seed: 0,
            transient_prob: 0.0,
            torn_append_prob: 0.0,
        }
    }

    /// A moderately hostile schedule: occasional transients and rare torn
    /// appends. Good default for soak-style tests.
    pub fn flaky(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_prob: 0.15,
            torn_append_prob: 0.02,
        }
    }
}

/// Counters for what was actually injected (diagnostics / assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Clean transient failures injected.
    pub transients: u64,
    /// Appends that landed a strict prefix.
    pub torn_appends: u64,
}

struct FaultState {
    rng: rand::rngs::SmallRng,
    stats: FaultStats,
    /// Set by [`FaultBackend::disarm`]: stop injecting entirely.
    disarmed: bool,
}

/// A [`Backend`] wrapper that injects the faults described in the module
/// docs. Metadata operations pass straight through; the stochastic
/// injection targets the data path, where the volume (and the
/// middleware's retry logic) lives.
pub struct FaultBackend<B> {
    inner: B,
    cfg: FaultConfig,
    state: Mutex<FaultState>,
}

impl<B: Backend> FaultBackend<B> {
    /// Wrap `inner` with fault injection seeded from `cfg`.
    pub fn new(inner: B, cfg: FaultConfig) -> Self {
        let rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed);
        FaultBackend {
            inner,
            cfg,
            state: Mutex::new(FaultState {
                rng,
                stats: FaultStats::default(),
                disarmed: false,
            }),
        }
    }

    /// The wrapped backend (e.g. to inspect surviving state directly).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Counts of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().stats
    }

    /// Stop injecting: every later operation reaches the wrapped backend
    /// untouched, so a test can inspect or recover over stable storage.
    pub fn disarm(&self) {
        self.state.lock().disarmed = true;
    }

    /// What should happen to the next data-path operation.
    fn data_gate(&self, is_append: bool, op: &str, path: &str) -> Result<Option<f64>> {
        let mut st = self.state.lock();
        if st.disarmed {
            return Ok(None);
        }
        if self.cfg.transient_prob > 0.0 && st.rng.gen_bool(self.cfg.transient_prob) {
            st.stats.transients += 1;
            return Err(PlfsError::Transient(format!(
                "injected transient failure ({op} {path})"
            )));
        }
        if is_append
            && self.cfg.torn_append_prob > 0.0
            && st.rng.gen_bool(self.cfg.torn_append_prob)
        {
            st.stats.torn_appends += 1;
            return Ok(Some(st.rng.gen_range(0.0..1.0)));
        }
        Ok(None)
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "a forwarding wrapper: each op reaches the same method inside, faulted or not"
)]
impl<B: Backend> Backend for FaultBackend<B> {
    fn mkdir(&self, path: &str) -> Result<()> {
        self.inner.mkdir(path)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.inner.mkdir_all(path)
    }

    fn create(&self, path: &str, exclusive: bool) -> Result<()> {
        self.inner.create(path, exclusive)
    }

    /// A torn append lands `frac` of the content (rounded down, strictly
    /// less than all of it), then fails.
    fn append(&self, path: &str, content: &Content) -> Result<u64> {
        let Some(frac) = self.data_gate(true, "append", path)? else {
            return self.inner.append(path, content);
        };
        let keep = ((content.len() as f64 * frac) as u64).min(content.len().saturating_sub(1));
        if keep > 0 {
            self.inner.append(path, &content.slice(0, keep))?;
        }
        Err(PlfsError::Io(format!(
            "torn append: {keep} of {} bytes landed on {path}",
            content.len()
        )))
    }

    fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Content> {
        self.data_gate(false, "read_at", path)?;
        self.inner.read_at(path, offset, len)
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.inner.size(path)
    }

    fn kind(&self, path: &str) -> Result<NodeKind> {
        self.inner.kind(path)
    }

    fn list(&self, path: &str) -> Result<Vec<String>> {
        self.inner.list(path)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.inner.unlink(path)
    }

    fn remove_all(&self, path: &str) -> Result<()> {
        self.inner.remove_all(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfs::MemFs;

    fn file(b: &impl Backend, path: &str) {
        b.create(path, true).unwrap();
    }

    #[test]
    fn off_config_is_transparent() {
        let f = FaultBackend::new(MemFs::new(), FaultConfig::off());
        file(&f, "/x");
        assert_eq!(f.append("/x", &Content::bytes(vec![1, 2, 3])).unwrap(), 0);
        assert_eq!(f.read_at("/x", 0, 3).unwrap().materialize(), vec![1, 2, 3]);
        assert_eq!(f.stats().transients, 0);
        assert_eq!(f.stats().torn_appends, 0);
    }

    #[test]
    fn same_seed_injects_identical_schedules() {
        let run = |seed: u64| {
            let f = FaultBackend::new(MemFs::new(), FaultConfig::flaky(seed));
            file(&f, "/x");
            let mut outcomes = Vec::new();
            for i in 0..200u64 {
                outcomes.push(f.append("/x", &Content::synthetic(i, 64)).is_ok());
            }
            (outcomes, f.stats())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds should differ");
        assert!(sa.transients > 0, "flaky schedule injected nothing");
    }

    #[test]
    fn torn_append_lands_strict_prefix() {
        let cfg = FaultConfig {
            seed: 7,
            transient_prob: 0.0,
            torn_append_prob: 1.0,
        };
        let f = FaultBackend::new(MemFs::new(), cfg);
        file(&f, "/x");
        let err = f.append("/x", &Content::bytes(vec![9; 100])).unwrap_err();
        assert!(matches!(err, PlfsError::Io(_)));
        let landed = f.inner().size("/x").unwrap();
        assert!(
            landed < 100,
            "torn append must land a strict prefix, got {landed}"
        );
    }

    #[test]
    fn transient_errors_have_no_effect() {
        let cfg = FaultConfig {
            seed: 11,
            transient_prob: 0.5,
            torn_append_prob: 0.0,
        };
        let f = FaultBackend::new(MemFs::new(), cfg);
        file(&f, "/x");
        let mut acked = 0u64;
        for i in 0..100u64 {
            if f.append("/x", &Content::synthetic(i, 10)).is_ok() {
                acked += 10;
            }
        }
        // Exactly the acknowledged bytes landed: transients are clean.
        assert_eq!(f.inner().size("/x").unwrap(), acked);
        assert!(f.stats().transients > 10);
    }
}

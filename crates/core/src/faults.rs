//! Deterministic fault injection for the backend layer.
//!
//! PLFS exists to survive failure: a checkpoint layer that is only correct
//! on the happy path is not a checkpoint layer. [`FaultBackend`] wraps any
//! [`Backend`] and injects seeded, reproducible failures on the data path
//! (`Append`/`ReadAt` ops), where the middleware installs its bounded
//! retries:
//!
//! * **transient errors** ([`PlfsError::Transient`]) — the operation had
//!   no effect and may be retried; models dropped RPCs and storage-server
//!   failover.
//! * **torn appends** — a strict prefix of the
//!   [`Content`](crate::content::Content) lands before the failure;
//!   models a node dying mid-stream or a partial RPC. The caller observes
//!   an error but the log has grown. Index-log tears leave the truncated
//!   records `fsck` repairs; data-log tears leave dead bytes no index
//!   entry will ever reference.
//!
//! All randomness comes from a single seeded generator behind a mutex, so
//! a `(seed, schedule)` pair replays byte-identically. Crash points are
//! not sampled here: `tests/crash_states.rs` enumerates every prefix of a
//! recorded trace instead (DESIGN.md §5c).

use crate::backend::Backend;
use crate::error::{PlfsError, Result};
use crate::ioplane::{self, IoOp, IoOutcome};
use crate::sync::{class, Mutex};
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
    state: Mutex<FaultState, class::FaultState>,
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

    /// One op: metadata passes straight through, a data op meets
    /// `data_gate` first, and a torn append lands `frac` of its content
    /// (rounded down, strictly less than all of it), then fails.
    fn run(&self, op: &IoOp) -> IoOutcome {
        let torn = match op {
            IoOp::Append { path, content } => self
                .data_gate(true, "append", path)?
                .map(|frac| (path, content, frac)),
            IoOp::ReadAt { path, .. } => {
                self.data_gate(false, "read_at", path)?;
                None
            }
            _ => None,
        };
        let Some((path, content, frac)) = torn else {
            return ioplane::lower(&self.inner, op);
        };
        let keep = ((content.len() as f64 * frac) as u64).min(content.len().saturating_sub(1));
        if keep > 0 {
            let (path, content) = (path.clone(), content.slice(0, keep));
            ioplane::lower(&self.inner, &IoOp::Append { path, content })?;
        }
        Err(PlfsError::Io(format!(
            "torn append: {keep} of {} bytes landed on {path}",
            content.len()
        )))
    }
}

impl<B: Backend> Backend for FaultBackend<B> {
    /// Gate each op in batch order and forward it to `inner` as soon as
    /// its gate decides, one op per inner `submit`: the schedule a seed
    /// draws does not depend on how the ops were batched, and a torn
    /// append lands its prefix before the ops after it run.
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        batch.iter().map(|op| self.run(op)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::per_op_call;
    use crate::content::Content;
    use crate::ioplane::IoValue;
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
        // Each append is followed by an ungated size probe and a read.
        let ops: Vec<IoOp> = (0..200u64)
            .flat_map(|i| {
                let path = if i % 3 == 0 { "/y" } else { "/x" };
                [
                    IoOp::Append {
                        path: path.into(),
                        content: Content::synthetic(i, 64),
                    },
                    IoOp::Size { path: path.into() },
                    IoOp::ReadAt {
                        path: path.into(),
                        offset: i * 16,
                        len: 64,
                    },
                ]
            })
            .collect();
        // The same ops as one batch (0), as one-op batches (1), or as
        // per-op calls lowered through `submit` (2).
        let run = |seed: u64, arrival: u8| {
            let f = FaultBackend::new(MemFs::new(), FaultConfig::flaky(seed));
            file(&f, "/x");
            file(&f, "/y");
            let outcomes: Vec<IoOutcome> = match arrival {
                0 => f.submit(&ops),
                1 => ops
                    .iter()
                    .flat_map(|op| f.submit(std::slice::from_ref(op)))
                    .collect(),
                _ => ops.iter().map(|op| per_op_call(&f, op)).collect(),
            };
            let bytes = ["/x", "/y"].map(|p| f.inner().read_at(p, 0, 1 << 20).unwrap());
            (outcomes, f.stats(), bytes)
        };
        let sigs = |o: &[IoOutcome]| o.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>();
        let (a, sa, bytes) = run(42, 0);
        for arrival in [1, 2] {
            let (b, sb, bytes_b) = run(42, arrival);
            assert_eq!(sigs(&a), sigs(&b), "outcomes, arrival {arrival}");
            assert_eq!(sa, sb, "fault stats, arrival {arrival}");
            assert_eq!(bytes, bytes_b, "final bytes, arrival {arrival}");
        }
        let (c, _, _) = run(43, 0);
        assert_ne!(sigs(&a), sigs(&c), "different seeds should differ");

        // Every op was gated before it reached the backend: an injected
        // transient left its file's size alone, a torn append landed a
        // strict prefix before the probe after it ran, and reads fault too.
        let is_transient = |o: &IoOutcome| matches!(o, Err(PlfsError::Transient(_)));
        let mut size = [0u64; 2];
        for (op, out) in ops.chunks(3).zip(a.chunks(3)) {
            let f = usize::from(op[0].path() == "/y");
            let Ok(IoValue::Size(now)) = out[1] else {
                panic!("size probe failed: {:?}", out[1]);
            };
            match &out[0] {
                Ok(IoValue::Offset(at)) => assert_eq!((*at, now), (size[f], size[f] + 64)),
                Err(PlfsError::Transient(_)) => assert_eq!(now, size[f]),
                torn => {
                    assert!(matches!(torn, Err(PlfsError::Io(_))), "{torn:?}");
                    assert!(size[f] <= now && now < size[f] + 64);
                }
            }
            size[f] = now;
        }
        let transients = a.iter().filter(|o| is_transient(o)).count() as u64;
        assert_eq!(sa.transients, transients);
        assert!(sa.torn_appends > 0, "flaky schedule tore nothing");
        assert!(
            a.iter().skip(2).step_by(3).any(is_transient),
            "no read was gated"
        );
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

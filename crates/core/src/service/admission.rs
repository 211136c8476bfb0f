//! Admission control primitives for the service layer: per-tenant
//! token buckets and dirty-byte budgets.
//!
//! Both types are pure state machines driven by caller-supplied
//! timestamps, so they are deterministic and directly testable; the
//! [`Service`](crate::service::Service) wires them to its monotonic
//! clock and to the DESIGN.md §5k constants. A token bucket paces a
//! tenant's *operation rate* (open/append/read each cost one token); a
//! dirty budget bounds how many appended bytes a tenant's open writers
//! may hold unindexed before the service forces an index flush.
//!
//! All arithmetic is integer: tokens are tracked in units of
//! 10⁻⁹ token (one "token-nano"), so a bucket refilling at `rate`
//! tokens/sec gains exactly `elapsed_ns * rate` token-nanos and a
//! grant costs exactly one scale unit (10⁹ token-nanos). Same inputs,
//! same grants, on every platform.

/// One token, in token-nanos (the bucket's internal fixed-point unit).
const TOKEN_SCALE: u64 = 1_000_000_000;

/// Outcome of one admission probe.
///
/// `Denied` carries the earliest time the probe could succeed, as a
/// delta from the probe's `now_ns`, so callers can back off precisely
/// instead of spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// The op may proceed; one token was consumed.
    Granted,
    /// The bucket is empty. Retry no sooner than `wait_ns` from now.
    Denied {
        /// Nanoseconds until one full token will have accumulated.
        wait_ns: u64,
    },
}

/// A classic token bucket: refills continuously at `rate` tokens per
/// second up to a `burst` ceiling; each admitted op drains one token.
///
/// # Examples
///
/// ```
/// use plfs::service::admission::{Grant, TokenBucket};
///
/// // 2 ops/sec sustained, at most 1 banked: the second probe at t=0
/// // is denied and told exactly when half a second will have passed.
/// let mut bucket = TokenBucket::new(2, 1);
/// assert_eq!(bucket.try_take(0), Grant::Granted);
/// assert_eq!(bucket.try_take(0), Grant::Denied { wait_ns: 500_000_000 });
/// assert_eq!(bucket.try_take(500_000_000), Grant::Granted);
///
/// // Idle time banks tokens, but never more than the burst ceiling.
/// let mut bucket = TokenBucket::new(1000, 4);
/// let later = 60 * 1_000_000_000;
/// for _ in 0..4 {
///     assert_eq!(bucket.try_take(later), Grant::Granted);
/// }
/// assert_ne!(bucket.try_take(later), Grant::Granted);
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Refill rate, tokens per second.
    rate: u64,
    /// Capacity in token-nanos.
    cap: u64,
    /// Current level in token-nanos.
    level: u64,
    /// Timestamp of the last refill, caller-clock nanoseconds.
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/sec holding at most `burst`
    /// tokens, initially full. `rate` and `burst` are clamped to ≥ 1:
    /// a zero-rate tenant would starve forever and a zero-burst bucket
    /// could never grant, and the service treats both as misconfiguration
    /// rather than a policy.
    pub fn new(rate: u64, burst: u64) -> TokenBucket {
        let cap = burst.max(1).saturating_mul(TOKEN_SCALE);
        TokenBucket {
            rate: rate.max(1),
            cap,
            level: cap,
            last_ns: 0,
        }
    }

    /// Refill for the time elapsed since the last probe. `now_ns` may
    /// repeat (many probes in one tick) but must not go backwards; a
    /// regressing clock is treated as no elapsed time.
    fn refill(&mut self, now_ns: u64) {
        let elapsed = now_ns.saturating_sub(self.last_ns);
        self.last_ns = self.last_ns.max(now_ns);
        let gained = (u128::from(elapsed) * u128::from(self.rate)).min(u128::from(u64::MAX)) as u64;
        self.level = self.level.saturating_add(gained).min(self.cap);
    }

    /// Probe for one token at caller-clock time `now_ns`.
    pub fn try_take(&mut self, now_ns: u64) -> Grant {
        self.refill(now_ns);
        if self.level >= TOKEN_SCALE {
            self.level -= TOKEN_SCALE;
            return Grant::Granted;
        }
        let deficit = TOKEN_SCALE - self.level;
        // ceil(deficit / rate): the first instant a whole token exists.
        let wait_ns = deficit.div_ceil(self.rate);
        Grant::Denied { wait_ns }
    }

    /// Whole tokens currently banked (diagnostics).
    pub fn available(&self) -> u64 {
        self.level / TOKEN_SCALE
    }
}

/// Bounded dirt: bytes a tenant has appended whose index records are
/// not yet in an index log.
///
/// [`DirtyBudget::charge`] returns `true` when the addition crosses the
/// limit — the caller's cue to force a flush and then
/// [`DirtyBudget::release`] what that flush persisted. Charging is never
/// refused: the byte that crosses the line is accepted and *then* the
/// flush is forced, so a single oversized append cannot wedge.
///
/// # Examples
///
/// ```
/// use plfs::service::admission::DirtyBudget;
///
/// let mut dirty = DirtyBudget::new(1024);
/// assert!(!dirty.charge(512));      // 512 dirty: under budget
/// assert!(dirty.charge(512));       // 1024 dirty: at the line — flush
/// dirty.release(512);               // one writer's 512 reached its log
/// assert_eq!(dirty.dirty(), 512);
/// dirty.drain();
/// assert_eq!(dirty.dirty(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct DirtyBudget {
    limit: u64,
    dirty: u64,
}

impl DirtyBudget {
    /// A budget of `limit` bytes (clamped to ≥ 1 so every budget
    /// eventually forces a flush).
    pub fn new(limit: u64) -> DirtyBudget {
        DirtyBudget {
            limit: limit.max(1),
            dirty: 0,
        }
    }

    /// Account `bytes` of new dirt; `true` means the budget is now met
    /// or exceeded and the caller must flush then [`DirtyBudget::drain`].
    pub fn charge(&mut self, bytes: u64) -> bool {
        self.dirty = self.dirty.saturating_add(bytes);
        self.dirty >= self.limit
    }

    /// `bytes` of accounted dirt were flushed (or their writer went
    /// away); never drops below zero.
    pub fn release(&mut self, bytes: u64) {
        self.dirty = self.dirty.saturating_sub(bytes);
    }

    /// Every accounted byte was flushed.
    pub fn drain(&mut self) {
        self.dirty = 0;
    }

    /// Bytes currently accounted as dirty.
    pub fn dirty(&self) -> u64 {
        self.dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_grants_burst_then_denies() {
        let mut b = TokenBucket::new(10, 3);
        assert_eq!(b.try_take(0), Grant::Granted);
        assert_eq!(b.try_take(0), Grant::Granted);
        assert_eq!(b.try_take(0), Grant::Granted);
        let Grant::Denied { wait_ns } = b.try_take(0) else {
            panic!("fourth probe at t=0 must be denied");
        };
        assert_eq!(wait_ns, 100_000_000, "1/rate seconds to the next token");
    }

    #[test]
    fn bucket_refills_exactly_at_rate() {
        let mut b = TokenBucket::new(1_000_000, 1);
        assert_eq!(b.try_take(0), Grant::Granted);
        // One token at 1M/sec takes exactly 1000 ns; 999 is too early.
        assert_ne!(b.try_take(999), Grant::Granted);
        assert_eq!(b.try_take(1000), Grant::Granted);
    }

    #[test]
    fn bucket_never_banks_past_burst() {
        let mut b = TokenBucket::new(1_000_000_000, 2);
        let granted = (0..100)
            .filter(|_| b.try_take(u64::MAX / 2) == Grant::Granted)
            .count();
        assert_eq!(granted, 2);
    }

    #[test]
    fn denied_wait_is_sufficient() {
        let mut b = TokenBucket::new(7, 1);
        assert_eq!(b.try_take(0), Grant::Granted);
        let Grant::Denied { wait_ns } = b.try_take(0) else {
            panic!("empty bucket must deny");
        };
        assert_eq!(
            b.try_take(wait_ns),
            Grant::Granted,
            "waiting wait_ns must suffice"
        );
    }

    #[test]
    fn clock_regression_is_inert() {
        let mut b = TokenBucket::new(1000, 1);
        assert_eq!(b.try_take(1_000_000_000), Grant::Granted);
        // Going backwards neither panics nor mints tokens.
        assert_ne!(b.try_take(0), Grant::Granted);
    }

    #[test]
    fn zero_rate_and_burst_are_clamped() {
        let mut b = TokenBucket::new(0, 0);
        assert_eq!(
            b.try_take(0),
            Grant::Granted,
            "clamped bucket starts with one token"
        );
        match b.try_take(0) {
            Grant::Denied { wait_ns } => assert_eq!(wait_ns, TOKEN_SCALE),
            g => panic!("expected denial, got {g:?}"),
        }
    }

    #[test]
    fn dirty_budget_is_level_triggered() {
        let mut d = DirtyBudget::new(100);
        assert!(!d.charge(99));
        assert!(d.charge(1));
        assert!(d.charge(1), "stays triggered until drained");
        d.drain();
        assert!(!d.charge(99));
        assert_eq!(d.dirty(), 99);
    }

    #[test]
    fn oversized_charge_is_accepted_then_flagged() {
        let mut d = DirtyBudget::new(10);
        assert!(d.charge(1 << 40));
        d.drain();
        assert_eq!(d.dirty(), 0);
    }
}

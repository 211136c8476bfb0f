//! Error type shared across the middleware.

use std::fmt;

/// Errors surfaced by PLFS and its backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlfsError {
    /// Path does not exist.
    NotFound(String),
    /// Exclusive create of a path that already exists.
    AlreadyExists(String),
    /// Directory operation on a file or vice versa.
    WrongKind {
        /// Path the operation targeted.
        path: String,
        /// Kind the operation needed ("file" or "dir").
        expected: &'static str,
    },
    /// Directory not empty on remove, or other structural violation.
    NotEmpty(String),
    /// Malformed container (missing access file, corrupt index record...).
    CorruptContainer(String),
    /// Read past EOF or otherwise invalid argument.
    InvalidArg(String),
    /// Operation the backend or mode does not support (e.g. read-write open
    /// of a shared PLFS file — the paper notes PLFS rejects this).
    Unsupported(String),
    /// Transient backend failure: the operation had no effect and may be
    /// retried (a dropped RPC, a failed-over storage server). The I/O
    /// plane ([`crate::ioplane::submit_retried`]) retries these with
    /// bounded backoff; one that outlasts the budget surfaces.
    Transient(String),
    /// Underlying OS error (LocalFs).
    Io(String),
}

impl PlfsError {
    /// Whether this error is safe to retry: the failed operation is
    /// guaranteed to have had no effect on the backend.
    pub fn is_transient(&self) -> bool {
        matches!(self, PlfsError::Transient(_))
    }
}

/// Default attempt budget of a transient retry: first try plus a
/// bounded number of retries. Small enough that a persistently failing
/// backend surfaces quickly; large enough that injected transient rates
/// up to ~50% almost never exhaust it. Lint-pinned by the DESIGN.md §5d
/// format table, like the backoff bounds below.
pub const DEFAULT_RETRY_ATTEMPTS: u32 = 8;

/// First retry delay in microseconds. Both transient-retry loops in the
/// workspace (the writer's data-append closure loop here and the batch
/// loop in `ioplane::submit_retried`) start from this value and step
/// with [`next_backoff_us`].
pub(crate) const RETRY_BACKOFF_START_US: u64 = 1;

/// Ceiling on the per-retry delay in microseconds. Doubling saturates
/// here, so an arbitrarily large attempt count can neither overflow the
/// delay arithmetic nor sleep unboundedly.
pub(crate) const RETRY_BACKOFF_CAP_US: u64 = 256;

/// Next step of the capped exponential backoff: doubles, saturating (no
/// wrap at `u64::MAX`), then clamps to [`RETRY_BACKOFF_CAP_US`]. Every
/// retry loop shares this one step function so the schedule cannot drift
/// between call sites.
#[inline]
pub(crate) fn next_backoff_us(backoff_us: u64) -> u64 {
    backoff_us.saturating_mul(2).min(RETRY_BACKOFF_CAP_US)
}

/// Run `op` up to [`DEFAULT_RETRY_ATTEMPTS`] times, retrying only
/// [`PlfsError::Transient`] failures with capped exponential backoff
/// (microseconds — these are in-process backends; the bound is what
/// matters, not the wait). Any non-transient error, or transient failure
/// on the final attempt, is returned to the caller.
///
/// Only the writer's per-write data append uses this: every other call
/// goes through the plane, whose batch loop has the same schedule.
pub(crate) fn retry_transient<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
    crate::sync::check_io();
    let mut backoff_us = RETRY_BACKOFF_START_US;
    for _ in 1..DEFAULT_RETRY_ATTEMPTS {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => {
                std::thread::sleep(std::time::Duration::from_micros(backoff_us));
                backoff_us = next_backoff_us(backoff_us);
            }
            Err(e) => return Err(e),
        }
    }
    // Final attempt: whatever happens is the caller's to see.
    op()
}

impl fmt::Display for PlfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlfsError::NotFound(p) => write!(f, "not found: {p}"),
            PlfsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            PlfsError::WrongKind { path, expected } => {
                write!(f, "{path}: expected {expected}")
            }
            PlfsError::NotEmpty(p) => write!(f, "not empty: {p}"),
            PlfsError::CorruptContainer(m) => write!(f, "corrupt container: {m}"),
            PlfsError::InvalidArg(m) => write!(f, "invalid argument: {m}"),
            PlfsError::Unsupported(m) => write!(f, "unsupported: {m}"),
            PlfsError::Transient(m) => write!(f, "transient backend error: {m}"),
            PlfsError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for PlfsError {}

impl From<std::io::Error> for PlfsError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::NotFound => PlfsError::NotFound(e.to_string()),
            std::io::ErrorKind::AlreadyExists => PlfsError::AlreadyExists(e.to_string()),
            _ => PlfsError::Io(e.to_string()),
        }
    }
}

/// Crate-wide result alias over [`PlfsError`].
pub type Result<T> = std::result::Result<T, PlfsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            PlfsError::NotFound("/a/b".into()).to_string(),
            "not found: /a/b"
        );
        assert_eq!(
            PlfsError::WrongKind {
                path: "/x".into(),
                expected: "directory"
            }
            .to_string(),
            "/x: expected directory"
        );
    }

    #[test]
    fn backoff_saturates_at_the_cap_without_overflow() {
        let mut us = RETRY_BACKOFF_START_US;
        // Walk far past any realistic attempt count: the delay must be
        // monotone up to the cap and then pinned there, never wrapping.
        let mut prev = 0;
        for _ in 0..10_000 {
            assert!(us >= prev, "backoff went backwards: {prev} -> {us}");
            assert!(us <= RETRY_BACKOFF_CAP_US);
            prev = us;
            us = next_backoff_us(us);
        }
        assert_eq!(us, RETRY_BACKOFF_CAP_US);
        // Even a poisoned huge input cannot overflow the doubling.
        assert_eq!(next_backoff_us(u64::MAX), RETRY_BACKOFF_CAP_US);
    }

    #[test]
    fn io_error_kind_maps() {
        let nf = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(matches!(PlfsError::from(nf), PlfsError::NotFound(_)));
        let ae = std::io::Error::new(std::io::ErrorKind::AlreadyExists, "there");
        assert!(matches!(PlfsError::from(ae), PlfsError::AlreadyExists(_)));
        let other = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no");
        assert!(matches!(PlfsError::from(other), PlfsError::Io(_)));
    }
}

//! Known-good fixture for `unretried-backend-call` (linted as if it
//! were `crates/core/src/fsck.rs`).
//!
//! Backend I/O on the recovery path goes through `retry_transient` (or
//! `submit_retried`, which applies it per op), so guaranteed-no-effect
//! failures are retried with backoff instead of failing the fsck — and
//! the per-entry sizes are one submitted batch, not a call per loop
//! iteration.

pub fn scan_subdir<B: Backend>(b: &B, dir: &str) -> Result<u64> {
    let names = retry_transient(|| b.list(dir))?;
    let size_ops: Vec<IoOp> = names
        .iter()
        .map(|name| IoOp::Size {
            path: join(dir, name),
        })
        .collect();
    let mut out = ioplane::submit_retried(b, &size_ops).into_iter();
    let mut total = 0;
    for _ in &names {
        total += ioplane::as_size(ioplane::take(&mut out))?;
    }
    Ok(total)
}

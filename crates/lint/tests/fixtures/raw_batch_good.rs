//! Fixture: the batched shape of `raw_batch_bad.rs` — ops are built in
//! the loop and submitted once, plus the pragma form for a genuinely
//! order-dependent chain.

pub fn scan(b: &dyn Backend, dirs: &[String]) -> Result<u64> {
    let size_ops: Vec<IoOp> = dirs
        .iter()
        .map(|d| IoOp::Size { path: d.clone() })
        .collect();
    let mut out = ioplane::submit_retried(b, &size_ops).into_iter();
    let mut total = 0;
    for _ in dirs {
        total += ioplane::as_size(ioplane::take(&mut out))?;
    }
    Ok(total)
}

pub fn swap(b: &dyn Backend, pairs: &[(String, String)]) -> Result<()> {
    for (old, new) in pairs {
        // plfs-lint: allow(raw-backend-in-batch-path): unlink→rename is order-dependent; the rename must not run (or retry) unless the unlink committed
        retry_transient(|| b.unlink(old))?;
        // plfs-lint: allow(raw-backend-in-batch-path): second half of the order-dependent swap above
        retry_transient(|| b.rename(new, old))?;
    }
    Ok(())
}

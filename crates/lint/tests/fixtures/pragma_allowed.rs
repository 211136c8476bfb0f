//! Fixture for pragma resolution: the finding below carries an explicit
//! `plfs-lint: allow` with a reason, so the file lints clean with the
//! hit accounted for in the allowed list.

pub fn cat<B: Backend>(b: &B, r: &mut ReadHandle, size: u64) -> Result<()> {
    let mut out = stdout().lock();
    // plfs-lint: allow(guard-across-io): stdout lock is not shared container state; holding it across reads is the point
    let bytes = r.read(0, size)?;
    out.write_all(&bytes)?;
    Ok(())
}

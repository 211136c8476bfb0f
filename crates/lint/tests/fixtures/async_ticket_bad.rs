//! Fixture: blocking round trips issued while an async ticket from the
//! same function is still in flight — the shape the write-behind port
//! almost shipped (a synchronous scratch probe between submitting a
//! staging flush and draining it).

pub fn stage_then_probe<B: Backend>(b: &B, batch: Vec<IoOp>, probe: Vec<IoOp>) -> Result<()> {
    let ticket = submit_tracked(b, batch);
    // BAD: blocking submit while `ticket` is outstanding.
    let outcomes = b.submit(&probe);
    record(outcomes);
    // BAD: the retried wrapper is just as blocking.
    let more = submit_retried(b, &probe);
    record(more);
    let drained = drain_retried(b, rebuilt(), ticket);
    account(drained);
    Ok(())
}

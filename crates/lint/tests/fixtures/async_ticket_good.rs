//! Fixture: the fixed shapes — drain the ticket (or hand it off) before
//! any blocking round trip.

pub fn drain_then_probe<B: Backend>(b: &B, batch: Vec<IoOp>, probe: Vec<IoOp>) -> Result<()> {
    let ticket = submit_tracked(b, batch);
    let drained = drain_retried(b, rebuilt(), ticket);
    account(drained);
    // Fine: nothing is in flight any more.
    let outcomes = b.submit(&probe);
    record(outcomes);
    Ok(())
}

pub fn scoped_ticket<B: Backend>(b: &B, batch: Vec<IoOp>, probe: Vec<IoOp>) -> Result<()> {
    {
        let t = b.submit_async(&batch);
        let outcomes = t.wait();
        record(outcomes.outcomes);
    }
    // Fine: the ticket died with its block.
    let after = submit_retried(b, &probe);
    record(after);
    Ok(())
}

pub fn handed_off<B: Backend>(b: &B, batch: Vec<IoOp>, probe: Vec<IoOp>) -> Result<()> {
    let t = submit_tracked(b, batch);
    // Moving the ticket into a collection hands ownership (and the
    // drain obligation) to whoever drains the queue.
    in_flight.push(t);
    let outcomes = b.submit(&probe);
    record(outcomes);
    Ok(())
}

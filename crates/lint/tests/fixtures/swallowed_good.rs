//! Known-good fixture for `swallowed-result`.
//!
//! The post-fault-PR fsck shape: every [`Issue`] variant is either
//! handled or explicitly forwarded as unfixable.

pub fn repair_one<B: Backend>(b: &B, container: &Container, issue: &Issue) -> Result<Fix> {
    match issue {
        Issue::TruncatedIndexLog { writer, .. } => clip_index_log(b, container, *writer),
        Issue::OrphanDataLog { writer } => reclaim_data_log(b, container, *writer),
        other => Ok(Fix::Unfixable(other.clone())),
    }
}

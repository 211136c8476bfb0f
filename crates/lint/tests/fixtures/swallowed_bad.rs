//! Known-bad fixture for `swallowed-result`.
//!
//! `repair_one` is the pre-fault-PR fsck shape: a match over [`Issue`]
//! whose wildcard arm is an empty block, so every issue variant added
//! later is silently "repaired" by doing nothing.

pub fn repair_one<B: Backend>(b: &B, container: &Container, issue: &Issue) {
    match issue {
        Issue::TruncatedIndexLog { writer, .. } => {
            clip_index_log(b, container, *writer);
        }
        _ => {}
    }
}

//! Job layout: how ranks map onto compute nodes.
//!
//! The paper's clusters pack ranks block-wise (ranks 0..15 on node 0,
//! 16..31 on node 1, ... for 16-core nodes). The mapping matters: client
//! page caches are per-node, so whether rank r+1's data is "local" to
//! rank r depends on it.

/// Placement of a job's ranks on the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Total MPI ranks in the job.
    pub nprocs: usize,
    /// Ranks per node (block placement).
    pub ppn: usize,
}

impl Layout {
    pub fn new(nprocs: usize, ppn: usize) -> Self {
        assert!(nprocs > 0 && ppn > 0);
        Layout { nprocs, ppn }
    }

    /// The node hosting `rank`.
    pub(crate) fn node_of(&self, rank: usize) -> usize {
        rank / self.ppn
    }

    /// Number of nodes the job spans.
    pub fn nodes(&self) -> usize {
        self.nprocs.div_ceil(self.ppn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement() {
        let l = Layout::new(64, 16);
        assert_eq!(l.node_of(0), 0);
        assert_eq!(l.node_of(15), 0);
        assert_eq!(l.node_of(16), 1);
        assert_eq!(l.nodes(), 4);
        assert_eq!(l.node_of(0), l.node_of(15));
        assert_ne!(l.node_of(15), l.node_of(16));
    }

    #[test]
    fn ragged_jobs_round_up() {
        let l = Layout::new(17, 16);
        assert_eq!(l.nodes(), 2);
        assert_eq!(l.node_of(16), 1);
    }

    #[test]
    fn one_rank_per_node() {
        let l = Layout::new(8, 1);
        assert_eq!(l.nodes(), 8);
        assert_ne!(l.node_of(0), l.node_of(1));
    }
}

//! The two evaluation platforms of the paper, as calibrated profiles.

use pfs::PfsParams;
use simnet::{Interconnect, InterconnectParams};

/// A compute cluster plus its attached parallel file system.
#[derive(Debug, Clone)]
pub struct ClusterProfile {
    pub name: &'static str,
    /// Compute nodes available.
    pub nodes: usize,
    /// Cores per node (nominal packing).
    pub cores_per_node: usize,
    pub interconnect: InterconnectParams,
    /// Parallel file system parameters, given the client node count.
    pub pfs: fn(usize) -> PfsParams,
}

impl ClusterProfile {
    /// The production cluster of §IV-C: 64 nodes × 16 AMD Opteron cores
    /// (1,024 processors), 32 GB/node, InfiniBand, 551 TB Panasas behind a
    /// 10 GigE storage network (1.25 GB/s theoretical peak). Figure 4 runs
    /// up to 2,048 concurrent streams — 2× oversubscribed.
    pub fn production_cluster() -> Self {
        ClusterProfile {
            name: "production-cluster",
            nodes: 64,
            cores_per_node: 16,
            interconnect: InterconnectParams::infiniband(),
            pfs: PfsParams::panfs_production,
        }
    }

    /// Cielo (§VI): Cray XE6, 8,894 nodes, 142,304 cores, Gemini
    /// interconnect, 10 PB Panasas.
    pub fn cielo() -> Self {
        ClusterProfile {
            name: "cielo",
            nodes: 8894,
            cores_per_node: 16,
            interconnect: InterconnectParams::gemini(),
            pfs: PfsParams::panfs_cielo,
        }
    }

    /// How a job of `nprocs` is placed: spread across all nodes first,
    /// then packed (ranks per node grows once the cluster is full).
    pub fn placement(&self, nprocs: usize) -> (usize, usize) {
        let nodes_used = nprocs.min(self.nodes);
        let ppn = nprocs.div_ceil(nodes_used.max(1));
        (nodes_used, ppn)
    }

    /// The interconnect cost model.
    pub fn net(&self) -> Interconnect {
        Interconnect::new(self.interconnect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_matches_paper_numbers() {
        let c = ClusterProfile::production_cluster();
        assert_eq!(c.nodes * c.cores_per_node, 1024);
        let p = (c.pfs)(64);
        assert!((p.net.aggregate_bw - 1.25e9).abs() < 1.0);
    }

    #[test]
    fn placement_spreads_then_packs() {
        let c = ClusterProfile::production_cluster();
        assert_eq!(c.placement(16), (16, 1));
        assert_eq!(c.placement(64), (64, 1));
        assert_eq!(c.placement(128), (64, 2));
        assert_eq!(c.placement(1024), (64, 16));
        assert_eq!(c.placement(2048), (64, 32)); // oversubscribed, like Fig. 4
    }

    #[test]
    fn cielo_scales_to_the_large_runs() {
        let c = ClusterProfile::cielo();
        let (nodes, ppn) = c.placement(65536);
        assert!(nodes <= c.nodes);
        assert!(ppn * nodes >= 65536);
    }
}

//! Tree-collective cost models over the cluster interconnect.
//!
//! All models are binomial-tree LogP-style estimates: a collective over
//! `p` participants takes `ceil(log2 p)` rounds; each round costs one
//! message latency plus the bytes moved that round over the sender's
//! injection bandwidth. These match the asymptotics of production MPI
//! implementations well enough to preserve the paper's comparisons (index
//! aggregation trades O(N²) file-system opens for O(log N) interconnect
//! rounds — the exact constants only shift the crossovers slightly).

use crate::params::InterconnectParams;
use simcore::SimDuration;

/// Cost model for the cluster's high-speed interconnect.
#[derive(Debug, Clone, Copy)]
pub struct Interconnect {
    params: InterconnectParams,
}

impl Interconnect {
    pub fn new(params: InterconnectParams) -> Self {
        Interconnect { params }
    }

    pub fn params(&self) -> &InterconnectParams {
        &self.params
    }

    fn hop(&self, bytes: u64) -> f64 {
        self.params.latency_s + self.params.sw_overhead_s + bytes as f64 / self.params.node_bw
    }

    /// Rounds in a binomial tree over `p` participants.
    pub fn rounds(p: usize) -> u32 {
        if p <= 1 {
            0
        } else {
            usize::BITS - (p - 1).leading_zeros()
        }
    }

    /// Barrier: an empty reduce followed by an empty broadcast.
    pub fn barrier(&self, p: usize) -> SimDuration {
        SimDuration::from_secs_f64(2.0 * Self::rounds(p) as f64 * self.hop(0))
    }

    /// Broadcast `bytes` from a root to `p` participants (each round
    /// forwards the full payload one tree level deeper).
    pub fn bcast(&self, p: usize, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(Self::rounds(p) as f64 * self.hop(bytes))
    }

    /// Gather `bytes_per_rank` from each of `p` ranks to a root.
    ///
    /// Binomial-tree gather: round k moves `2^k · b` bytes, so the total
    /// is `log2(p)` latencies plus `(p − 1) · b` bytes of bandwidth at the
    /// bottleneck (the root's link).
    pub fn gather(&self, p: usize, bytes_per_rank: u64) -> SimDuration {
        if p <= 1 {
            return SimDuration::ZERO;
        }
        let rounds = Self::rounds(p) as f64;
        let lat = rounds * (self.params.latency_s + self.params.sw_overhead_s);
        let bw = (p as f64 - 1.0) * bytes_per_rank as f64 / self.params.node_bw;
        SimDuration::from_secs_f64(lat + bw)
    }

    /// Allgather `bytes_per_rank` from everyone to everyone
    /// (recursive-doubling: log rounds, `(p−1)·b` bytes through each node).
    pub(crate) fn allgather(&self, p: usize, bytes_per_rank: u64) -> SimDuration {
        if p <= 1 {
            return SimDuration::ZERO;
        }
        let rounds = Self::rounds(p) as f64;
        let lat = rounds * (self.params.latency_s + self.params.sw_overhead_s);
        let bw = (p as f64 - 1.0) * bytes_per_rank as f64 / self.params.node_bw;
        SimDuration::from_secs_f64(lat + bw)
    }

    /// All-to-all personalized exchange, `bytes_per_pair` between every
    /// ordered pair. Pairwise-exchange algorithm: `p − 1` steps, each
    /// moving `bytes_per_pair` per node.
    pub fn alltoall(&self, p: usize, bytes_per_pair: u64) -> SimDuration {
        if p <= 1 {
            return SimDuration::ZERO;
        }
        let steps = (p - 1) as f64;
        let per_step = self.params.latency_s
            + self.params.sw_overhead_s
            + bytes_per_pair as f64 / self.params.node_bw;
        SimDuration::from_secs_f64(steps * per_step)
    }

    /// The paper's Parallel Index Read hierarchy (Fig. 3c): `p` ranks in
    /// groups of `group_size`; members send `bytes_per_rank` to leaders,
    /// leaders exchange aggregated group indices, leaders broadcast the
    /// global index (`global_bytes`) within their groups.
    pub fn hierarchical_aggregate(
        &self,
        p: usize,
        group_size: usize,
        bytes_per_rank: u64,
        global_bytes: u64,
    ) -> SimDuration {
        let group_size = group_size.max(1).min(p.max(1));
        let groups = p.div_ceil(group_size);
        // Phase 1: gather within each group (concurrent across groups).
        let within = self.gather(group_size, bytes_per_rank);
        // Phase 2: leaders allgather group indices.
        let group_bytes = bytes_per_rank.saturating_mul(group_size as u64);
        let exchange = self.allgather(groups, group_bytes);
        // Phase 3: leaders broadcast the merged global index in-group.
        let bcast = self.bcast(group_size, global_bytes);
        within + exchange + bcast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::InterconnectParams;

    fn net() -> Interconnect {
        Interconnect::new(InterconnectParams::infiniband())
    }

    #[test]
    fn rounds_are_ceil_log2() {
        assert_eq!(Interconnect::rounds(1), 0);
        assert_eq!(Interconnect::rounds(2), 1);
        assert_eq!(Interconnect::rounds(3), 2);
        assert_eq!(Interconnect::rounds(4), 2);
        assert_eq!(Interconnect::rounds(1024), 10);
        assert_eq!(Interconnect::rounds(65536), 16);
    }

    #[test]
    fn collectives_scale_logarithmically_in_latency() {
        let n = net();
        let b1k = n.bcast(1024, 0);
        let b64k = n.bcast(65536, 0);
        // 16/10 rounds ratio, not 64x.
        let ratio = b64k.as_secs_f64() / b1k.as_secs_f64();
        assert!((ratio - 1.6).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn gather_bandwidth_term_dominates_large_payloads() {
        let n = net();
        let d = n.gather(1024, 1 << 20); // 1 MiB per rank
        // (1023 MiB) / 3.2 GB/s ≈ 0.335 s
        let expect = 1023.0 * (1 << 20) as f64 / 3.2e9;
        assert!((d.as_secs_f64() - expect).abs() / expect < 0.01);
    }

    #[test]
    fn trivial_sizes_are_cheap_or_zero() {
        let n = net();
        assert_eq!(n.gather(1, 100), SimDuration::ZERO);
        assert_eq!(n.allgather(0, 100), SimDuration::ZERO);
        assert_eq!(n.alltoall(1, 100), SimDuration::ZERO);
        assert_eq!(n.barrier(1), SimDuration::ZERO);
        assert!(n.barrier(2) > SimDuration::ZERO);
    }

    #[test]
    fn alltoall_is_linear_in_p() {
        let n = net();
        let a = n.alltoall(64, 1024).as_secs_f64();
        let b = n.alltoall(128, 1024).as_secs_f64();
        let ratio = b / a;
        assert!((ratio - 127.0 / 63.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn hierarchy_beats_flat_gather_at_scale() {
        let n = net();
        let p = 4096;
        let per_rank = 40 * 1000; // 1000 index entries/rank
        let global = per_rank * p as u64;
        let flat = n.gather(p, per_rank) + n.bcast(p, global);
        let hier = n.hierarchical_aggregate(p, 64, per_rank, global);
        assert!(
            hier.as_secs_f64() < flat.as_secs_f64() * 1.05,
            "hier {hier} vs flat {flat}"
        );
    }

    #[test]
    fn hierarchical_handles_degenerate_groups() {
        let n = net();
        // group_size larger than p, and group_size zero.
        let a = n.hierarchical_aggregate(8, 1000, 100, 800);
        let b = n.hierarchical_aggregate(8, 0, 100, 800);
        assert!(a > SimDuration::ZERO);
        assert!(b > SimDuration::ZERO);
    }

    #[test]
    fn degenerate_group_equals_flat_composition() {
        // group_size == p: hierarchy is one gather + leader "exchange" of
        // one group + in-group bcast — the flat strategy.
        let n = net();
        let p = 256;
        let hier = n.hierarchical_aggregate(p, p, 1000, 256_000);
        let flat = n.gather(p, 1000) + n.allgather(1, 256_000) + n.bcast(p, 256_000);
        assert_eq!(hier, flat);
    }
}

//! Calibration parameters and named profiles for the simulated parallel
//! file system.
//!
//! The absolute numbers are commodity-hardware estimates for 2012-era
//! systems (spinning disks behind object storage servers, metadata
//! service rates in the low thousands of ops/second). They are *held
//! fixed* across every PLFS-vs-direct comparison, so the figures'
//! comparative shapes — not the absolute seconds — carry the result, as
//! DESIGN.md §7 states.

use simnet::StorageNetParams;

/// Metadata operation kinds with distinct service costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetaKind {
    /// Open an existing file (lookup + capability grant).
    Open,
    /// Remove a file.
    Unlink,
    /// List a directory of `entries` entries.
    Readdir { entries: usize },
}

/// Full parameter set for one simulated parallel file system.
#[derive(Debug, Clone)]
pub struct PfsParams {
    // --- metadata service (per MDS) ---
    /// Seconds to create a file.
    pub meta_create_s: f64,
    /// Seconds to open/lookup an existing file.
    pub meta_open_s: f64,
    /// Seconds for mkdir.
    pub meta_mkdir_s: f64,
    /// Seconds for unlink.
    pub meta_unlink_s: f64,
    /// Base seconds for readdir plus per-entry cost.
    pub meta_readdir_base_s: f64,
    pub meta_readdir_per_entry_s: f64,
    /// Directory contention threshold: creates into a directory slow
    /// down superlinearly once it grows past this size — service is
    /// scaled by `1 + (entries/threshold)²`. GIGA+ (cited by the paper)
    /// measured exactly this collapse for huge directories on one
    /// metadata server; below the threshold the penalty is negligible.
    pub dir_contention_entries: u64,
    /// Number of metadata servers (== namespaces the federation can use).
    pub mds_count: usize,

    // --- object storage ---
    /// Number of object storage servers.
    pub oss_count: usize,
    /// Streaming bandwidth of one OSS, bytes/second.
    pub oss_bw: f64,
    /// Stripe size in bytes.
    pub stripe_size: u64,
    /// How many object storage servers one file stripes over (PanFS-style
    /// RAID-group width). A single shared file can engage at most this
    /// many spindles — the mechanism behind the paper's observation that
    /// PLFS "spreads the I/O workload over many storage resources": many
    /// per-process logs engage every server, one shared file cannot.
    pub stripe_width: usize,
    /// Extra service time when an OSS stream seeks (non-sequential).
    pub seek_penalty_s: f64,
    /// Service multiplier for *partial-stripe writes*: RAID-backed object
    /// servers must read-modify-write parity when a write covers less
    /// than a full stripe unit — another reason sub-stripe strided N-1
    /// writes crawl while PLFS's full-stripe log appends stream.
    pub partial_stripe_write_factor: f64,
    /// Per-request overhead when the stream is sequential (prefetch hit).
    pub sequential_overhead_s: f64,

    // --- shared-file write locking ---
    /// Seconds to transfer stripe-lock ownership between client nodes.
    pub lock_transfer_s: f64,

    // --- storage network ---
    pub net: StorageNetParams,

    // --- client nodes ---
    /// Per-node page-cache capacity in bytes.
    pub client_cache_bytes: u64,
    /// Node memory bandwidth serving cache hits, bytes/second.
    pub client_mem_bw: f64,
    /// Number of client (compute) nodes.
    pub nodes: usize,

    // --- stochastics ---
    /// Uniform service-time jitter spread (e.g. 0.05 = ±5%).
    pub jitter_spread: f64,
    /// Probability and magnitude of straggler events.
    pub jitter_tail_prob: f64,
    pub jitter_tail_mag: f64,
}

impl PfsParams {
    /// PanFS-like profile on the 64-node production cluster (§IV-C):
    /// 551 TB behind a 10 GigE storage network, 1.25 GB/s theoretical peak.
    pub fn panfs_production(nodes: usize) -> Self {
        PfsParams {
            meta_create_s: 600e-6,
            meta_open_s: 350e-6,
            meta_mkdir_s: 500e-6,
            meta_unlink_s: 400e-6,
            meta_readdir_base_s: 400e-6,
            meta_readdir_per_entry_s: 4e-6,
            dir_contention_entries: 4800,
            mds_count: 1,
            oss_count: 64,
            oss_bw: 60e6,
            stripe_size: 64 * 1024,
            stripe_width: 10,
            seek_penalty_s: 4e-3,
            partial_stripe_write_factor: 2.5,
            sequential_overhead_s: 150e-6,
            lock_transfer_s: 1.5e-3,
            net: StorageNetParams::ten_gige(),
            client_cache_bytes: 2 * 1024 * 1024 * 1024,
            client_mem_bw: 2.5e9,
            nodes,
            jitter_spread: 0.04,
            jitter_tail_prob: 0.002,
            jitter_tail_mag: 4.0,
        }
    }

    /// PanFS at Cielo scale (§VI): 10 PB, far more spindles and fabric.
    pub fn panfs_cielo(nodes: usize) -> Self {
        PfsParams {
            mds_count: 1,
            oss_count: 1024,
            oss_bw: 80e6,
            net: StorageNetParams::cielo_fabric(),
            nodes,
            ..Self::panfs_production(nodes)
        }
    }

    /// Lustre-like profile: bigger stripes, somewhat faster MDS, more
    /// aggressive extent locking (larger transfer cost).
    pub fn lustre_like(nodes: usize) -> Self {
        PfsParams {
            meta_create_s: 500e-6,
            meta_open_s: 250e-6,
            stripe_size: 1024 * 1024,
            stripe_width: 4,
            lock_transfer_s: 2.5e-3,
            ..Self::panfs_production(nodes)
        }
    }

    /// GPFS-like profile: byte-range (token) locking modeled as a lower
    /// per-transfer cost but smaller effective stripes.
    pub fn gpfs_like(nodes: usize) -> Self {
        PfsParams {
            meta_create_s: 650e-6,
            stripe_size: 256 * 1024,
            stripe_width: 10,
            lock_transfer_s: 1.0e-3,
            ..Self::panfs_production(nodes)
        }
    }

    /// Service time for a metadata operation.
    pub(crate) fn meta_service(&self, kind: MetaKind) -> f64 {
        match kind {
            MetaKind::Open => self.meta_open_s,
            MetaKind::Unlink => self.meta_unlink_s,
            MetaKind::Readdir { entries } => {
                self.meta_readdir_base_s + entries as f64 * self.meta_readdir_per_entry_s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_the_right_relationships() {
        let p = PfsParams::panfs_production(64);
        // OSS aggregate must exceed the network peak (network is the cap).
        assert!(p.oss_count as f64 * p.oss_bw > p.net.aggregate_bw);
        // But one file's stripe group alone cannot reach the peak — the
        // spindle-engagement gap PLFS exploits.
        assert!((p.stripe_width as f64) * p.oss_bw < p.net.aggregate_bw);
        // Seeks are much dearer than sequential access.
        assert!(p.seek_penalty_s > 10.0 * p.sequential_overhead_s);
        let c = PfsParams::panfs_cielo(8894);
        assert!(c.net.aggregate_bw > p.net.aggregate_bw);
        assert!(c.oss_count > p.oss_count);
    }

    #[test]
    fn readdir_scales_with_entries() {
        let p = PfsParams::panfs_production(64);
        let small = p.meta_service(MetaKind::Readdir { entries: 10 });
        let big = p.meta_service(MetaKind::Readdir { entries: 10_000 });
        assert!(big > small * 10.0);
    }

    #[test]
    fn all_meta_kinds_have_positive_cost() {
        let p = PfsParams::panfs_production(64);
        for k in [
            MetaKind::Open,
            MetaKind::Unlink,
            MetaKind::Readdir { entries: 0 },
        ] {
            assert!(p.meta_service(k) > 0.0, "{k:?}");
        }
    }
}

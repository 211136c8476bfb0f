//! Batched transfer helpers.
//!
//! At 65,536 simulated processes, charging every 50 KB write as its own
//! event is needlessly slow; a rank's streaming phase can be charged as
//! one aggregated resource acquisition without changing what the figures
//! measure (phase completion time is governed by aggregate bytes over
//! aggregate bandwidth either way; see DESIGN.md). These helpers implement
//! that aggregation:
//!
//! * [`SimPfs::append_batch`] — `reps` sequential appends of `len` bytes;
//! * [`SimPfs::read_batch`] — a sequential read of `total` bytes;
//!   both resolve the path once and call their `_id` core
//!   ([`SimPfs::append_batch_id`], [`SimPfs::read_batch_id`]), which
//!   callers holding a [`FileId`] call directly;
//! * [`SimPfs::write_strided`] / [`SimPfs::read_strided`] — genuinely
//!   per-op loops for strided shared-file access, where per-op lock and
//!   seek behaviour *is* the phenomenon being measured (used at the
//!   smaller scales of Figures 4/5/7).

use crate::sim::{AccessMode, SimPfs};
use crate::state::FileId;
use simcore::{SimDuration, SimTime};

impl SimPfs {
    /// Charge `reps` back-to-back appends of `len` bytes each to `path`
    /// as one aggregated acquisition. Returns (first landing offset,
    /// finish). A path wrapper over [`SimPfs::append_batch_id`].
    pub fn append_batch(
        &mut self,
        node: usize,
        path: &str,
        reps: u64,
        len: u64,
        arrival: SimTime,
    ) -> (u64, SimTime) {
        let Some(file) = self.file_id(path) else {
            // Nothing to charge and nowhere to land — or a workload bug.
            assert!(reps * len == 0, "batch append on missing file {path}");
            return (0, arrival);
        };
        self.append_batch_id(node, file, reps, len, arrival)
    }

    /// [`SimPfs::append_batch`] on a file already resolved to its id.
    pub fn append_batch_id(
        &mut self,
        node: usize,
        file: FileId,
        reps: u64,
        len: u64,
        arrival: SimTime,
    ) -> (u64, SimTime) {
        let total = reps * len;
        let offset = self.namespace().size(file);
        if total == 0 {
            return (offset, arrival);
        }
        let finish = self.sequential_transfer(node, file, offset, total, reps, true, arrival);
        (offset, finish)
    }

    /// Charge a sequential read of `total` bytes at `offset` of `path`
    /// (client cache consulted block-wise, misses streamed from storage).
    /// A missing file reads nothing. A path wrapper over
    /// [`SimPfs::read_batch_id`].
    pub fn read_batch(
        &mut self,
        node: usize,
        path: &str,
        offset: u64,
        total: u64,
        reps: u64,
        arrival: SimTime,
    ) -> SimTime {
        match self.file_id(path) {
            Some(file) => self.read_batch_id(node, file, offset, total, reps, arrival),
            None => arrival,
        }
    }

    /// [`SimPfs::read_batch`] on a file already resolved to its id.
    pub fn read_batch_id(
        &mut self,
        node: usize,
        file: FileId,
        offset: u64,
        total: u64,
        reps: u64,
        arrival: SimTime,
    ) -> SimTime {
        let size = self.namespace().size(file);
        let total = total.min(size.saturating_sub(offset));
        if total == 0 {
            return arrival;
        }
        self.sequential_transfer(node, file, offset, total, reps.max(1), false, arrival)
    }

    /// `reps` writes of `len` bytes at `start + k·stride` by `client`,
    /// honoring stripe locks per write. This is the expensive, faithful
    /// path for strided N-1 workloads.
    #[expect(clippy::too_many_arguments, reason = "a strided access is its node, path, start, stride, length, count and arrival time; a struct would only rename them")]
    pub fn write_strided(
        &mut self,
        node: usize,
        client: u64,
        path: &str,
        start: u64,
        len: u64,
        stride: u64,
        reps: u64,
        mode: AccessMode,
        arrival: SimTime,
    ) -> SimTime {
        let mut now = arrival;
        for k in 0..reps {
            now = self.write_at(node, client, path, start + k * stride, len, mode, now);
        }
        now
    }

    /// `reps` reads of `len` bytes at `start + k·stride`.
    #[expect(clippy::too_many_arguments, reason = "a strided access is its node, path, start, stride, length, count and arrival time; a struct would only rename them")]
    pub fn read_strided(
        &mut self,
        node: usize,
        path: &str,
        start: u64,
        len: u64,
        stride: u64,
        reps: u64,
        arrival: SimTime,
    ) -> SimTime {
        let mut now = arrival;
        for k in 0..reps {
            now = self.read_at(node, path, start + k * stride, len, now);
        }
        now
    }

    /// Shared implementation for aggregated sequential transfers.
    #[expect(clippy::too_many_arguments, reason = "the shared transfer takes the same per-access parameters as its strided callers")]
    fn sequential_transfer(
        &mut self,
        node: usize,
        file: FileId,
        offset: u64,
        total: u64,
        reps: u64,
        is_write: bool,
        arrival: SimTime,
    ) -> SimTime {
        // Copy the scalar parameters this path needs up front instead of
        // cloning all of `PfsParams` per call — this runs once per batched
        // op for every rank, which at 65,536 ranks is the hot path.
        let p = self.params();
        let nodes = p.nodes;
        let client_mem_bw = p.client_mem_bw;
        let channel_bw = p.net.channel_bw();
        let rtt_s = p.net.rtt_s;
        let stripe_size = p.stripe_size;
        let sequential_overhead_s = p.sequential_overhead_s;
        let seek_penalty_s = p.seek_penalty_s;
        let oss_bw = p.oss_bw;
        let node = node % nodes.max(1);

        // Client cache: writes populate; reads split hit/miss.
        let (cached, stored) = if is_write {
            self.cache_insert(node, file, offset, total);
            (0, total)
        } else {
            let (hit, miss) = self.cache_lookup(node, file, offset, total);
            self.cache_insert(node, file, offset, total);
            (hit, miss)
        };

        let mut finish = arrival;
        if cached > 0 {
            let service = self.jitter_dur(SimDuration::for_bytes(cached, client_mem_bw));
            finish = finish.max(self.mem_acquire(node, arrival, service));
        }

        if stored > 0 {
            // Channel occupancy covers only the bytes; the per-request
            // round trips are latency the synchronous client waits out
            // (other clients' round trips overlap on the channel).
            let net_service = self.jitter_dur(SimDuration::from_secs_f64(
                stored as f64 / channel_bw,
            ));
            let rtt_latency = SimDuration::from_secs_f64(reps as f64 * rtt_s);
            let net_done = self.net_acquire(arrival, net_service) + rtt_latency;

            // Spread the stripes across the file's stripe group
            // analytically: each server in the group gets ~equal bytes and
            // visits; first visit may seek, the rest stream.
            let first_stripe = offset / stripe_size;
            let last_stripe = (offset + stored - 1) / stripe_size;
            let nstripes = last_stripe - first_stripe + 1;
            let width = self.stripe_width() as u64;
            let servers = nstripes.min(width);
            let bytes_per_oss = stored / servers.max(1);
            let visits_per_oss = nstripes.div_ceil(width).max(1);
            let mut worst = net_done;
            // Position in the stripe group of the server `stripe_idx` is on.
            let mut k = first_stripe % width;
            for s in 0..servers {
                let stripe_idx = first_stripe + s;
                let oss_idx = self.oss_at(file, k);
                let slot = self.stream_slot(file, k);
                k = if k + 1 == width { 0 } else { k + 1 };
                let seq = self.stream_continues(slot, stripe_idx * stripe_size);
                let overhead = if seq {
                    sequential_overhead_s * visits_per_oss as f64
                } else {
                    seek_penalty_s + sequential_overhead_s * (visits_per_oss - 1) as f64
                };
                let service = self.jitter_dur(SimDuration::from_secs_f64(
                    overhead + bytes_per_oss as f64 / oss_bw,
                ));
                let done = self.oss_acquire(oss_idx, net_done, service);
                self.stream_set(slot, offset + stored);
                worst = worst.max(done);
            }
            finish = finish.max(worst);
        }

        if is_write {
            self.namespace_mut().write_extent(file, offset, total);
            self.account_write(total);
        } else {
            self.account_read(total, cached);
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PfsParams;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn pfs() -> SimPfs {
        let mut p = PfsParams::panfs_production(64);
        p.jitter_spread = 0.0;
        p.jitter_tail_prob = 0.0;
        SimPfs::new(p, 1)
    }

    #[test]
    fn batch_append_matches_loop_within_tolerance() {
        // The aggregated charge should be close to the per-op loop for a
        // lone sequential writer.
        let mut a = pfs();
        a.create_file(0, "/f", t(0.0));
        let mut now = t(0.0);
        for _ in 0..100 {
            now = a.append(0, "/f", 512 * 1024, now).1;
        }
        let loop_time = now.as_secs_f64();

        let mut b = pfs();
        b.create_file(0, "/f", t(0.0));
        let (off, fin) = b.append_batch(0, "/f", 100, 512 * 1024, t(0.0));
        assert_eq!(off, 0);
        let batch_time = fin.as_secs_f64();
        let ratio = batch_time / loop_time;
        assert!(
            (0.5..2.0).contains(&ratio),
            "batch {batch_time} vs loop {loop_time}"
        );
        assert_eq!(b.file_size("/f"), 100 * 512 * 1024);
    }

    #[test]
    fn batch_read_uses_cache_for_same_node() {
        let mut fs = pfs();
        fs.create_file(0, "/f", t(0.0));
        let (_, w) = fs.append_batch(2, "/f", 10, 1 << 20, t(0.0));
        let hot_end = fs.read_batch(2, "/f", 0, 10 << 20, 10, w);
        let hot = hot_end.since(w).as_secs_f64();
        let cold_end = fs.read_batch(3, "/f", 0, 10 << 20, 10, hot_end);
        let cold = cold_end.since(hot_end).as_secs_f64();
        assert!(cold > hot * 2.0, "cold {cold} vs hot {hot}");
    }

    #[test]
    fn strided_shared_writes_pay_lock_transfers() {
        let mut fs = pfs();
        fs.create_file(0, "/shared", t(0.0));
        // Two nodes alternating within stripes.
        let mut now = t(0.0);
        for w in 0..2u64 {
            now = fs.write_strided(
                w as usize,
                w,
                "/shared",
                w * 32 * 1024,
                32 * 1024,
                64 * 1024,
                16,
                AccessMode::SharedFile,
                now,
            );
        }
        assert!(fs.lock_transfers() > 0);
    }

    #[test]
    fn zero_byte_batches_are_free() {
        let mut fs = pfs();
        fs.create_file(0, "/f", t(0.0));
        let (_, fin) = fs.append_batch(0, "/f", 0, 1024, t(1.0));
        assert_eq!(fin, t(1.0));
        assert_eq!(fs.read_batch(0, "/f", 0, 4096, 1, t(2.0)), t(2.0));
    }

    #[test]
    fn read_batch_truncates_at_eof() {
        let mut fs = pfs();
        fs.create_file(0, "/f", t(0.0));
        fs.append_batch(0, "/f", 1, 1000, t(0.0));
        // Read far past EOF costs nothing extra beyond the real bytes.
        let f1 = fs.read_batch(1, "/f", 0, 1_000_000, 1, t(1.0));
        let mut fs2 = pfs();
        fs2.create_file(0, "/f", t(0.0));
        fs2.append_batch(0, "/f", 1, 1000, t(0.0));
        let f2 = fs2.read_batch(1, "/f", 0, 1000, 1, t(1.0));
        assert_eq!(f1, f2);
    }
}

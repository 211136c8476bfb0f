//! Access-pattern geometry: who writes which logical bytes, and where
//! those bytes land in the writer's PLFS data log.

use mpio::ops::{FileTag, LogicalOp, ReadSrc};

/// Geometry of one checkpoint object.
#[derive(Debug, Clone, Copy)]
pub struct IoPattern {
    /// Ranks participating.
    pub nprocs: usize,
    /// Bytes each rank contributes.
    pub object_bytes: u64,
    /// Per-call transfer size.
    pub transfer: u64,
    /// Segmented (each rank owns one contiguous region) vs strided
    /// (transfers interleave round-robin across ranks).
    pub segmented: bool,
    /// N-N: every rank targets its own file, so logical offsets are
    /// 0-based within each file instead of rank-placed in a shared file.
    pub own_file: bool,
}

impl IoPattern {
    /// Number of transfers each rank performs.
    pub(crate) fn calls_per_rank(&self) -> u64 {
        self.object_bytes / self.transfer
    }

    /// Total logical file size.
    pub fn file_bytes(&self) -> u64 {
        self.object_bytes * self.nprocs as u64
    }

    /// Split `calls_per_rank` into `nbatches` batch ranges; returns the
    /// `[start, end)` call indices of batch `b`.
    pub(crate) fn batch_range(&self, b: u64, nbatches: u64) -> (u64, u64) {
        let calls = self.calls_per_rank();
        let per = calls.div_ceil(nbatches.max(1));
        let start = (b * per).min(calls);
        let end = ((b + 1) * per).min(calls);
        (start, end)
    }

    /// Logical offset of `rank`'s `k`-th transfer.
    pub fn logical_offset(&self, rank: usize, k: u64) -> u64 {
        if self.own_file {
            k * self.transfer
        } else if self.segmented {
            rank as u64 * self.object_bytes + k * self.transfer
        } else {
            (k * self.nprocs as u64 + rank as u64) * self.transfer
        }
    }

    /// Stride between consecutive transfers of one rank.
    pub(crate) fn rank_stride(&self) -> u64 {
        if self.segmented || self.own_file {
            self.transfer
        } else {
            self.nprocs as u64 * self.transfer
        }
    }

    /// The write burst for batch `b` of `nbatches` from `rank`.
    pub(crate) fn write_op(&self, file: &FileTag, rank: usize, b: u64, nbatches: u64) -> LogicalOp {
        let (start, end) = self.batch_range(b, nbatches);
        LogicalOp::Write {
            file: file.clone(),
            offset: self.logical_offset(rank, start),
            len: self.transfer,
            stride: self.rank_stride(),
            reps: end - start,
        }
    }

    /// The read burst for batch `b`: `rank` reads back the data that
    /// `(rank + shift) % nprocs` wrote, in the same pattern. The source
    /// hint locates those bytes in the writer's data log: the writer's
    /// `k`-th transfer sits at physical offset `k × transfer` (PLFS logs
    /// are pure appends).
    pub(crate) fn read_op(
        &self,
        file: &FileTag,
        rank: usize,
        shift: usize,
        b: u64,
        nbatches: u64,
    ) -> LogicalOp {
        let writer = (rank + shift) % self.nprocs.max(1);
        let (start, end) = self.batch_range(b, nbatches);
        LogicalOp::Read {
            file: file.clone(),
            offset: self.logical_offset(writer, start),
            len: self.transfer,
            stride: self.rank_stride(),
            reps: end - start,
            src: Some(ReadSrc {
                writer: writer as u64,
                phys_offset: start * self.transfer,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strided() -> IoPattern {
        IoPattern {
            nprocs: 4,
            object_bytes: 4096,
            transfer: 1024,
            segmented: false,
            own_file: false,
        }
    }

    #[test]
    fn strided_offsets_interleave() {
        let p = strided();
        assert_eq!(p.calls_per_rank(), 4);
        assert_eq!(p.file_bytes(), 16384);
        assert_eq!(p.logical_offset(0, 0), 0);
        assert_eq!(p.logical_offset(1, 0), 1024);
        assert_eq!(p.logical_offset(0, 1), 4096);
        assert_eq!(p.rank_stride(), 4096);
    }

    #[test]
    fn segmented_offsets_are_contiguous() {
        let p = IoPattern {
            segmented: true,
            ..strided()
        };
        assert_eq!(p.logical_offset(1, 0), 4096);
        assert_eq!(p.logical_offset(1, 1), 5120);
        assert_eq!(p.rank_stride(), 1024);
    }

    #[test]
    fn batches_tile_all_calls() {
        let p = IoPattern {
            nprocs: 2,
            object_bytes: 10240,
            transfer: 1024,
            segmented: false,
            own_file: false,
        };
        let f = FileTag::shared("/f");
        let mut covered = 0;
        for b in 0..3 {
            if let LogicalOp::Write { reps, .. } = p.write_op(&f, 0, b, 3) {
                covered += reps;
            } else {
                panic!();
            }
        }
        assert_eq!(covered, p.calls_per_rank());
    }

    #[test]
    fn uneven_batches_do_not_overflow() {
        let p = IoPattern {
            nprocs: 2,
            object_bytes: 7168, // 7 calls
            transfer: 1024,
            segmented: false,
            own_file: false,
        };
        let f = FileTag::shared("/f");
        let reps: Vec<u64> = (0..4)
            .map(|b| match p.write_op(&f, 1, b, 4) {
                LogicalOp::Write { reps, .. } => reps,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(reps.iter().sum::<u64>(), 7);
        assert_eq!(reps, vec![2, 2, 2, 1]);
    }

    #[test]
    fn read_src_points_into_writers_log() {
        let p = strided();
        let f = FileTag::shared("/f");
        match p.read_op(&f, 0, 1, 1, 2) {
            LogicalOp::Read {
                offset, src, reps, ..
            } => {
                let src = src.unwrap();
                assert_eq!(src.writer, 1);
                // Batch 1 of 2 starts at call 2 → phys 2×1024.
                assert_eq!(src.phys_offset, 2048);
                assert_eq!(offset, p.logical_offset(1, 2));
                assert_eq!(reps, 2);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn shift_wraps_around() {
        let p = strided();
        let f = FileTag::shared("/f");
        match p.read_op(&f, 3, 1, 0, 1) {
            LogicalOp::Read { src, .. } => assert_eq!(src.unwrap().writer, 0),
            _ => unreachable!(),
        }
    }
}

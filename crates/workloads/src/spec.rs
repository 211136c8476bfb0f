//! Parametric program construction.
//!
//! A [`Workload`] is a list of [`OpSpec`]s — phase descriptors that expand
//! into per-rank [`LogicalOp`]s lazily, so a 65,536-rank job never
//! materializes 65 M ops.

use crate::pattern::IoPattern;
use mpio::ops::{CompiledProgram, FileTag, LogicalOp, OpCode, Program, SrcSel};

/// One phase of a workload's program, expanded per rank on demand.
#[derive(Debug, Clone)]
pub enum OpSpec {
    OpenWrite(FileTag),
    /// One write batch (`batch` of `of`) following the pattern.
    WriteBatch {
        file: FileTag,
        batch: u64,
        of: u64,
    },
    CloseWrite(FileTag),
    OpenRead(FileTag),
    /// One read batch; `shift` picks whose data each rank reads back.
    ReadBatch {
        file: FileTag,
        shift: usize,
        batch: u64,
        of: u64,
    },
    CloseRead(FileTag),
    Barrier,
    /// Collective-buffering shuffle: every rank exchanges its share.
    Exchange { bytes_per_rank: u64 },
    /// Job boundary: client caches dropped (cold restart).
    FlushCaches,
    /// Delete a logical file (checkpoint rotation).
    Unlink(FileTag),
    /// Formatting-library header access: rank 0 writes `len` bytes at
    /// offset 0, everyone else contributes nothing (but stays in step).
    HeaderWrite { file: FileTag, len: u64 },
    /// Formatting-library header read at open: every rank reads the first
    /// `len` bytes (they live in rank 0's log under PLFS).
    HeaderRead { file: FileTag, len: u64 },
}

/// A complete workload: its pattern, program, and accounting.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub pattern: IoPattern,
    pub specs: Vec<OpSpec>,
}

impl Workload {
    pub fn new(name: impl Into<String>, pattern: IoPattern, specs: Vec<OpSpec>) -> Self {
        Workload {
            name: name.into(),
            pattern,
            specs,
        }
    }

    /// Total bytes the write phase moves (all ranks).
    pub fn write_bytes(&self) -> u64 {
        let batches: u64 = self
            .specs
            .iter()
            .filter(|s| matches!(s, OpSpec::WriteBatch { .. }))
            .count() as u64;
        if batches == 0 {
            0
        } else {
            self.pattern.file_bytes()
        }
    }

    /// Total bytes the read phase moves (all ranks).
    pub fn read_bytes(&self) -> u64 {
        let batches: u64 = self
            .specs
            .iter()
            .filter(|s| matches!(s, OpSpec::ReadBatch { .. }))
            .count() as u64;
        if batches == 0 {
            0
        } else {
            self.pattern.file_bytes()
        }
    }

    /// View as an executable program.
    pub fn program(&self) -> SpecProgram<'_> {
        SpecProgram { w: self }
    }

    /// Lower to bytecode: one shared [`OpCode`] stream plus an interned
    /// file table. Every pattern geometry reduces to the opcodes' affine
    /// `base + coeff·rank` offset form (see [`IoPattern::logical_offset`]:
    /// strided, segmented, and per-rank-file offsets are all linear in
    /// the rank), so the compiled program decodes each `(rank, pc)` with
    /// pure arithmetic — `compiled_program_matches_spec_program` in this
    /// module proves op-for-op equivalence with [`Workload::program`].
    pub fn compile(&self) -> CompiledProgram {
        let p = &self.pattern;
        let mut files: Vec<FileTag> = Vec::new();
        #[expect(clippy::panic, reason = "workloads intern a handful of tags, never 65k")]
        let intern = |files: &mut Vec<FileTag>, f: &FileTag| -> u16 {
            if let Some(i) = files.iter().position(|g| g == f) {
                i as u16
            } else {
                files.push(f.clone());
                u16::try_from(files.len() - 1).unwrap_or_else(|_| {
                    panic!("file table overflow: {} tags", files.len())
                })
            }
        };
        // Affine offset form for the `k`-th call of a rank (or writer):
        // `logical_offset(r, k) = base(k) + coeff · r`.
        let affine = |start: u64| -> (u64, u64) {
            if p.own_file {
                (start * p.transfer, 0)
            } else if p.segmented {
                (start * p.transfer, p.object_bytes)
            } else {
                (start * p.nprocs as u64 * p.transfer, p.transfer)
            }
        };
        let code = self
            .specs
            .iter()
            .map(|spec| match spec {
                OpSpec::OpenWrite(f) => OpCode::OpenWrite {
                    file: intern(&mut files, f),
                },
                OpSpec::WriteBatch { file, batch, of } => {
                    let (start, end) = p.batch_range(*batch, *of);
                    let (base, coeff) = affine(start);
                    OpCode::Write {
                        file: intern(&mut files, file),
                        base,
                        coeff,
                        len: p.transfer,
                        stride: p.rank_stride(),
                        reps: end - start,
                        rank0_only: false,
                    }
                }
                OpSpec::CloseWrite(f) => OpCode::CloseWrite {
                    file: intern(&mut files, f),
                },
                OpSpec::OpenRead(f) => OpCode::OpenRead {
                    file: intern(&mut files, f),
                },
                OpSpec::ReadBatch {
                    file,
                    shift,
                    batch,
                    of,
                } => {
                    let (start, end) = p.batch_range(*batch, *of);
                    let (base, coeff) = affine(start);
                    OpCode::Read {
                        file: intern(&mut files, file),
                        base,
                        coeff,
                        len: p.transfer,
                        stride: p.rank_stride(),
                        reps: end - start,
                        src: SrcSel::Shift {
                            shift: *shift as u32,
                            phys_offset: start * p.transfer,
                        },
                    }
                }
                OpSpec::CloseRead(f) => OpCode::CloseRead {
                    file: intern(&mut files, f),
                },
                OpSpec::Barrier => OpCode::Barrier,
                OpSpec::Exchange { bytes_per_rank } => OpCode::Exchange {
                    bytes_per_rank: *bytes_per_rank,
                },
                OpSpec::FlushCaches => OpCode::FlushCaches,
                OpSpec::Unlink(f) => OpCode::Unlink {
                    file: intern(&mut files, f),
                },
                OpSpec::HeaderWrite { file, len } => OpCode::Write {
                    file: intern(&mut files, file),
                    base: 0,
                    coeff: 0,
                    len: *len,
                    stride: *len,
                    reps: 1,
                    rank0_only: true,
                },
                OpSpec::HeaderRead { file, len } => OpCode::Read {
                    file: intern(&mut files, file),
                    base: 0,
                    coeff: 0,
                    len: *len,
                    stride: *len,
                    reps: 1,
                    src: SrcSel::Fixed {
                        writer: 0,
                        phys_offset: 0,
                    },
                },
            })
            .collect();
        CompiledProgram::new(files, code, p.nprocs)
    }

    /// Model a *cold restart*: the read-back happens in a fresh job with
    /// empty client caches. Inserts a cache flush right before the read
    /// open (after the post-write barrier). Used by the large-scale
    /// Figure 8a, where write and restart are separate jobs; the Figure 4
    /// runs stay warm (the paper observed client caching there).
    pub fn with_cold_restart(mut self) -> Workload {
        if let Some(i) = self
            .specs
            .iter()
            .position(|s| matches!(s, OpSpec::OpenRead(_)))
        {
            self.specs.insert(i, OpSpec::FlushCaches);
            self.name = format!("{}(cold)", self.name);
        }
        self
    }

    /// The checkpoint-write-only portion of this workload (drops
    /// everything from the read open onward). Used by write-bandwidth
    /// experiments like Figure 2.
    pub fn write_only(&self) -> Workload {
        let cut = self
            .specs
            .iter()
            .position(|s| matches!(s, OpSpec::OpenRead(_)))
            .unwrap_or(self.specs.len());
        Workload {
            name: format!("{}(write)", self.name),
            pattern: self.pattern,
            specs: self.specs[..cut].to_vec(),
        }
    }
}

/// [`Program`] adapter over a workload's specs.
pub struct SpecProgram<'a> {
    w: &'a Workload,
}

impl Program for SpecProgram<'_> {
    fn len(&self, _rank: usize) -> usize {
        self.w.specs.len()
    }

    fn op(&self, rank: usize, pc: usize) -> LogicalOp {
        let p = &self.w.pattern;
        match &self.w.specs[pc] {
            OpSpec::OpenWrite(f) => LogicalOp::OpenWrite { file: f.clone() },
            OpSpec::WriteBatch { file, batch, of } => p.write_op(file, rank, *batch, *of),
            OpSpec::CloseWrite(f) => LogicalOp::CloseWrite { file: f.clone() },
            OpSpec::OpenRead(f) => LogicalOp::OpenRead { file: f.clone() },
            OpSpec::ReadBatch {
                file,
                shift,
                batch,
                of,
            } => p.read_op(file, rank, *shift, *batch, *of),
            OpSpec::CloseRead(f) => LogicalOp::CloseRead { file: f.clone() },
            OpSpec::Barrier => LogicalOp::Barrier,
            OpSpec::Exchange { bytes_per_rank } => LogicalOp::Exchange {
                bytes_per_rank: *bytes_per_rank,
            },
            OpSpec::FlushCaches => LogicalOp::FlushCaches,
            OpSpec::Unlink(f) => LogicalOp::Unlink { file: f.clone() },
            OpSpec::HeaderWrite { file, len } => LogicalOp::Write {
                file: file.clone(),
                offset: 0,
                len: if rank == 0 { *len } else { 0 },
                stride: *len,
                reps: if rank == 0 { 1 } else { 0 },
            },
            OpSpec::HeaderRead { file, len } => LogicalOp::Read {
                file: file.clone(),
                offset: 0,
                len: *len,
                stride: *len,
                reps: 1,
                src: Some(mpio::ops::ReadSrc {
                    writer: 0,
                    phys_offset: 0,
                }),
            },
        }
    }
}

/// Standard phase list: write checkpoint, barrier, read it back.
pub fn checkpoint_restart_specs(
    file: &FileTag,
    write_batches: u64,
    read_batches: u64,
    read_shift: usize,
) -> Vec<OpSpec> {
    let mut specs = vec![OpSpec::OpenWrite(file.clone())];
    for b in 0..write_batches {
        specs.push(OpSpec::WriteBatch {
            file: file.clone(),
            batch: b,
            of: write_batches,
        });
    }
    specs.push(OpSpec::CloseWrite(file.clone()));
    specs.push(OpSpec::Barrier);
    specs.push(OpSpec::OpenRead(file.clone()));
    for b in 0..read_batches {
        specs.push(OpSpec::ReadBatch {
            file: file.clone(),
            shift: read_shift,
            batch: b,
            of: read_batches,
        });
    }
    specs.push(OpSpec::CloseRead(file.clone()));
    specs.push(OpSpec::Barrier);
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> Workload {
        let file = FileTag::shared("/ckpt");
        let pattern = IoPattern {
            nprocs: 4,
            object_bytes: 8192,
            transfer: 1024,
            segmented: false,
            own_file: false,
        };
        Workload::new(
            "test",
            pattern,
            checkpoint_restart_specs(&file, 2, 2, 1),
        )
    }

    #[test]
    fn program_shape_is_spmd() {
        let w = wl();
        let p = w.program();
        assert_eq!(p.len(0), p.len(3));
        // Open, 2 write batches, close, barrier, open, 2 reads, close, barrier.
        assert_eq!(p.len(0), 10);
        assert!(matches!(p.op(0, 0), LogicalOp::OpenWrite { .. }));
        assert!(matches!(p.op(2, 1), LogicalOp::Write { .. }));
        assert!(matches!(p.op(1, 3), LogicalOp::CloseWrite { .. }));
        assert!(matches!(p.op(1, 4), LogicalOp::Barrier));
        assert!(matches!(p.op(3, 9), LogicalOp::Barrier));
    }

    #[test]
    fn byte_accounting() {
        let w = wl();
        assert_eq!(w.write_bytes(), 4 * 8192);
        assert_eq!(w.read_bytes(), 4 * 8192);
    }

    /// The bytecode path must be op-for-op identical to the lazy spec
    /// decoder, for every kernel, pattern geometry, and rank — this is
    /// the contract that lets the harness run compiled programs.
    #[test]
    fn compiled_program_matches_spec_program() {
        use crate::kernels::{
            aramco, ior, lanl1, lanl3, madbench, mpiio_test, nn_checkpoint, pixie3d, Kernel,
        };
        let kernels: [(Kernel, &str); 8] = [
            (mpiio_test, "mpiio_test"),
            (ior, "ior"),
            (pixie3d, "pixie3d"),
            (aramco, "aramco"),
            (madbench, "madbench"),
            (lanl1, "lanl1"),
            (lanl3, "lanl3"),
            (nn_checkpoint, "nn_checkpoint"),
        ];
        for (k, name) in kernels {
            for nprocs in [3usize, 16, 64] {
                let w = k(nprocs).with_cold_restart();
                let spec = w.program();
                let compiled = w.compile();
                assert_eq!(compiled.len(0), spec.len(0), "{name}@{nprocs}");
                for rank in [0, 1, nprocs / 2, nprocs - 1] {
                    for pc in 0..spec.len(rank) {
                        assert_eq!(
                            compiled.op(rank, pc),
                            spec.op(rank, pc),
                            "{name}@{nprocs} rank {rank} pc {pc}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compile_interns_each_tag_once() {
        let w = wl();
        let compiled = w.compile();
        assert_eq!(compiled.files().len(), 1);
        assert_eq!(compiled.code().len(), w.specs.len());
    }

    #[test]
    fn header_ops_only_cost_rank0_writes() {
        let file = FileTag::shared("/f");
        let w = Workload::new(
            "hdr",
            IoPattern {
                nprocs: 2,
                object_bytes: 1024,
                transfer: 1024,
                segmented: true,
                own_file: false,
            },
            vec![
                OpSpec::HeaderWrite {
                    file: file.clone(),
                    len: 512,
                },
                OpSpec::HeaderRead { file, len: 512 },
            ],
        );
        let p = w.program();
        assert_eq!(p.op(0, 0).bytes(), 512);
        assert_eq!(p.op(1, 0).bytes(), 0);
        assert_eq!(p.op(1, 1).bytes(), 512);
    }
}

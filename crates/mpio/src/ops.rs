//! The logical I/O program vocabulary.
//!
//! Workloads describe, per rank, a sequence of *logical* operations — the
//! calls an application makes against its view of the file system. Drivers
//! (direct or PLFS) translate each into physical operations against the
//! simulated parallel file system. A `Write`/`Read` op describes a whole
//! strided or sequential burst (`reps` accesses of `len` bytes, `stride`
//! apart) so that large phases can be charged in aggregate.

use std::sync::Arc;

/// Names a logical file from a rank's point of view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FileTag {
    /// One file shared by every rank (N-1).
    Shared(Arc<str>),
    /// A distinct file per rank (N-N); `index` distinguishes multiple
    /// files per rank (metadata-storm workloads open many).
    PerRank { base: Arc<str>, index: u64 },
}

impl FileTag {
    pub fn shared(path: &str) -> Self {
        FileTag::Shared(Arc::from(path))
    }

    pub fn per_rank(base: &str, index: u64) -> Self {
        FileTag::PerRank {
            base: Arc::from(base),
            index,
        }
    }

    /// The logical path this tag denotes for `rank`.
    pub fn path(&self, rank: usize) -> String {
        match self {
            FileTag::Shared(p) => p.to_string(),
            FileTag::PerRank { base, index } => format!("{base}.r{rank}.f{index}"),
        }
    }

    /// Write the logical path for `rank` into `out` (cleared first).
    /// Hot-path form of [`FileTag::path`]: with a reused buffer the
    /// per-event path build stops allocating.
    pub(crate) fn path_into(&self, rank: usize, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        match self {
            FileTag::Shared(p) => out.push_str(p),
            FileTag::PerRank { base, index } => {
                if write!(out, "{base}.r{rank}.f{index}").is_err() {
                    unreachable!("fmt::Write to a String cannot fail")
                }
            }
        }
    }

    pub fn is_shared(&self) -> bool {
        matches!(self, FileTag::Shared(_))
    }
}

/// Where the bytes of a PLFS read physically live: which writer's data
/// log, and at what offset within it. Workload generators know this
/// because they generated the writes; the byte-level correctness of the
/// equivalent index lookup is proven by the `plfs` crate's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSrc {
    pub writer: u64,
    pub phys_offset: u64,
}

/// One logical operation in a rank's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalOp {
    /// Open (creating if needed) for write. Collective for shared files
    /// under MPI-IO; independent for per-rank files.
    OpenWrite { file: FileTag },
    /// `reps` writes of `len` bytes at `offset + k·stride` (logical).
    Write {
        file: FileTag,
        offset: u64,
        len: u64,
        stride: u64,
        reps: u64,
    },
    /// Close after writing (where index flushing / flattening happens).
    CloseWrite { file: FileTag },
    /// Open for read (where index aggregation happens).
    OpenRead { file: FileTag },
    /// `reps` reads of `len` bytes at `offset + k·stride` (logical).
    /// `src` locates the bytes in a writer's data log for PLFS files.
    Read {
        file: FileTag,
        offset: u64,
        len: u64,
        stride: u64,
        reps: u64,
        src: Option<ReadSrc>,
    },
    CloseRead { file: FileTag },
    /// Synchronize all ranks.
    Barrier,
    /// Local computation of fixed nanosecond duration.
    Compute { nanos: u64 },
    /// All-to-all data exchange (collective buffering's shuffle phase).
    Exchange { bytes_per_rank: u64 },
    /// Job boundary: drop all client-side caches (a restart job starts
    /// cold). Collective; costs nothing but the synchronization.
    FlushCaches,
    /// Delete a logical file (collective; rank 0 performs the removal —
    /// checkpoint rotation deletes old generations this way).
    Unlink { file: FileTag },
}

impl LogicalOp {
    /// Bytes moved by this op (for bandwidth accounting).
    pub fn bytes(&self) -> u64 {
        match self {
            LogicalOp::Write { len, reps, .. } | LogicalOp::Read { len, reps, .. } => len * reps,
            _ => 0,
        }
    }
}

/// A per-rank program generator. Programs are produced lazily so a
/// 65,536-rank job does not hold 65 M materialized ops.
pub trait Program: Sync {
    /// Number of ops in `rank`'s program. Every rank must have the same
    /// count of collective ops at the same positions (SPMD).
    fn len(&self, rank: usize) -> usize;

    /// The `pc`-th op of `rank`'s program.
    fn op(&self, rank: usize, pc: usize) -> LogicalOp;
}

/// Where a compiled `Read` finds its bytes (compact form of
/// [`ReadSrc`] resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// No source hint (direct I/O).
    None,
    /// A fixed writer (formatting-library headers live in rank 0's log).
    Fixed { writer: u32, phys_offset: u64 },
    /// Rank-shifted: rank `r` reads writer `(r + shift) % nprocs`.
    Shift { shift: u32, phys_offset: u64 },
}

/// One compiled instruction: a flat, `Copy` encoding of a program phase.
///
/// Logical files are interned — opcodes carry a `u16` index into the
/// [`CompiledProgram`]'s file table instead of owning a [`FileTag`].
/// Rank-dependent offsets are stored in affine form (`base + coeff ×
/// rank`), which all of [`crate::ops::Program`]'s workload geometries
/// (strided, segmented, per-rank-file) reduce to; decoding an op for a
/// rank is pure arithmetic plus one `Arc` refcount bump for the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCode {
    /// Open for write.
    OpenWrite { file: u16 },
    /// Write burst: `reps × len` at `base + coeff·rank`, `stride` apart.
    /// `rank0_only` zeroes the burst on every rank but 0 (header writes).
    Write {
        file: u16,
        base: u64,
        coeff: u64,
        len: u64,
        stride: u64,
        reps: u64,
        rank0_only: bool,
    },
    /// Close after writing.
    CloseWrite { file: u16 },
    /// Open for read.
    OpenRead { file: u16 },
    /// Read burst: `reps × len` at `base + coeff·writer`, `stride` apart,
    /// where `src` selects the writer whose data this rank reads back.
    Read {
        file: u16,
        base: u64,
        coeff: u64,
        len: u64,
        stride: u64,
        reps: u64,
        src: SrcSel,
    },
    /// Close after reading.
    CloseRead { file: u16 },
    /// Synchronize all ranks.
    Barrier,
    /// Local computation of fixed nanosecond duration.
    Compute { nanos: u64 },
    /// All-to-all exchange.
    Exchange { bytes_per_rank: u64 },
    /// Job boundary: drop client caches.
    FlushCaches,
    /// Delete a logical file.
    Unlink { file: u16 },
}

/// A program lowered to bytecode: one shared instruction stream (SPMD)
/// plus an interned file table. Ranks differ only through the affine
/// rank terms baked into each instruction, so a 65,536-rank job holds
/// one `Vec<OpCode>` of a few dozen entries — no per-rank op lists, no
/// per-op heap traffic beyond the interned tag's refcount.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    files: Vec<FileTag>,
    code: Vec<OpCode>,
    nprocs: usize,
}

impl CompiledProgram {
    /// Assemble from an interned file table and an instruction stream.
    ///
    /// # Panics
    /// Panics if an instruction names a file index outside the table.
    pub fn new(files: Vec<FileTag>, code: Vec<OpCode>, nprocs: usize) -> Self {
        for op in &code {
            if let Some(f) = op.file_index() {
                assert!(
                    (f as usize) < files.len(),
                    "opcode names file {f} but the table holds {}",
                    files.len()
                );
            }
        }
        CompiledProgram {
            files,
            code,
            nprocs,
        }
    }

    /// The instruction stream (bench/test introspection).
    pub fn code(&self) -> &[OpCode] {
        &self.code
    }

    /// The interned file table.
    pub fn files(&self) -> &[FileTag] {
        &self.files
    }

    /// Decode instruction `pc` for `rank` into the logical-op vocabulary.
    fn decode(&self, rank: usize, pc: usize) -> LogicalOp {
        match self.code[pc] {
            OpCode::OpenWrite { file } => LogicalOp::OpenWrite {
                file: self.files[file as usize].clone(),
            },
            OpCode::Write {
                file,
                base,
                coeff,
                len,
                stride,
                reps,
                rank0_only,
            } => {
                let masked = rank0_only && rank != 0;
                LogicalOp::Write {
                    file: self.files[file as usize].clone(),
                    offset: base + coeff * rank as u64,
                    len: if masked { 0 } else { len },
                    stride,
                    reps: if masked { 0 } else { reps },
                }
            }
            OpCode::CloseWrite { file } => LogicalOp::CloseWrite {
                file: self.files[file as usize].clone(),
            },
            OpCode::OpenRead { file } => LogicalOp::OpenRead {
                file: self.files[file as usize].clone(),
            },
            OpCode::Read {
                file,
                base,
                coeff,
                len,
                stride,
                reps,
                src,
            } => {
                let (writer, src) = match src {
                    SrcSel::None => (rank as u64, None),
                    SrcSel::Fixed {
                        writer,
                        phys_offset,
                    } => (
                        writer as u64,
                        Some(ReadSrc {
                            writer: writer as u64,
                            phys_offset,
                        }),
                    ),
                    SrcSel::Shift { shift, phys_offset } => {
                        let w = (rank + shift as usize) % self.nprocs.max(1);
                        (
                            w as u64,
                            Some(ReadSrc {
                                writer: w as u64,
                                phys_offset,
                            }),
                        )
                    }
                };
                LogicalOp::Read {
                    file: self.files[file as usize].clone(),
                    offset: base + coeff * writer,
                    len,
                    stride,
                    reps,
                    src,
                }
            }
            OpCode::CloseRead { file } => LogicalOp::CloseRead {
                file: self.files[file as usize].clone(),
            },
            OpCode::Barrier => LogicalOp::Barrier,
            OpCode::Compute { nanos } => LogicalOp::Compute { nanos },
            OpCode::Exchange { bytes_per_rank } => LogicalOp::Exchange { bytes_per_rank },
            OpCode::FlushCaches => LogicalOp::FlushCaches,
            OpCode::Unlink { file } => LogicalOp::Unlink {
                file: self.files[file as usize].clone(),
            },
        }
    }
}

impl OpCode {
    /// The file-table index this instruction touches, if any.
    pub(crate) fn file_index(&self) -> Option<u16> {
        match *self {
            OpCode::OpenWrite { file }
            | OpCode::Write { file, .. }
            | OpCode::CloseWrite { file }
            | OpCode::OpenRead { file }
            | OpCode::Read { file, .. }
            | OpCode::CloseRead { file }
            | OpCode::Unlink { file } => Some(file),
            _ => None,
        }
    }
}

impl Program for CompiledProgram {
    fn len(&self, _rank: usize) -> usize {
        self.code.len()
    }
    fn op(&self, rank: usize, pc: usize) -> LogicalOp {
        self.decode(rank, pc)
    }
}

/// A program computed per rank by a function (the common case for
/// workload generators).
pub struct FnProgram<F: Fn(usize, usize) -> LogicalOp + Sync> {
    pub count: usize,
    pub f: F,
}

impl<F: Fn(usize, usize) -> LogicalOp + Sync> Program for FnProgram<F> {
    fn len(&self, _rank: usize) -> usize {
        self.count
    }
    fn op(&self, rank: usize, pc: usize) -> LogicalOp {
        (self.f)(rank, pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_tags_resolve_per_rank() {
        let s = FileTag::shared("/ckpt");
        assert_eq!(s.path(0), "/ckpt");
        assert_eq!(s.path(9), "/ckpt");
        assert!(s.is_shared());
        let p = FileTag::per_rank("/out", 2);
        assert_eq!(p.path(3), "/out.r3.f2");
        assert_ne!(p.path(3), p.path(4));
        assert!(!p.is_shared());
    }

    #[test]
    fn op_bytes_accounting() {
        let w = LogicalOp::Write {
            file: FileTag::shared("/f"),
            offset: 0,
            len: 100,
            stride: 100,
            reps: 7,
        };
        assert_eq!(w.bytes(), 700);
        assert_eq!(LogicalOp::Barrier.bytes(), 0);
    }

    #[test]
    fn compiled_program_decodes_affine_and_interned() {
        let files = vec![FileTag::shared("/ckpt"), FileTag::per_rank("/out", 0)];
        let code = vec![
            OpCode::OpenWrite { file: 0 },
            OpCode::Write {
                file: 0,
                base: 100,
                coeff: 10,
                len: 10,
                stride: 40,
                reps: 3,
                rank0_only: false,
            },
            OpCode::Read {
                file: 0,
                base: 0,
                coeff: 10,
                len: 10,
                stride: 40,
                reps: 2,
                src: SrcSel::Shift {
                    shift: 1,
                    phys_offset: 20,
                },
            },
            OpCode::Barrier,
        ];
        let p = CompiledProgram::new(files, code, 4);
        assert_eq!(p.len(0), 4);
        assert_eq!(
            p.op(2, 1),
            LogicalOp::Write {
                file: FileTag::shared("/ckpt"),
                offset: 120,
                len: 10,
                stride: 40,
                reps: 3,
            }
        );
        // Rank 3's read wraps to writer 0.
        assert_eq!(
            p.op(3, 2),
            LogicalOp::Read {
                file: FileTag::shared("/ckpt"),
                offset: 0,
                len: 10,
                stride: 40,
                reps: 2,
                src: Some(ReadSrc {
                    writer: 0,
                    phys_offset: 20,
                }),
            }
        );
        assert_eq!(p.op(1, 3), LogicalOp::Barrier);
    }

    #[test]
    fn rank0_only_write_masks_other_ranks() {
        let p = CompiledProgram::new(
            vec![FileTag::shared("/f")],
            vec![OpCode::Write {
                file: 0,
                base: 0,
                coeff: 0,
                len: 512,
                stride: 512,
                reps: 1,
                rank0_only: true,
            }],
            2,
        );
        assert_eq!(p.op(0, 0).bytes(), 512);
        assert_eq!(p.op(1, 0).bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "opcode names file")]
    fn out_of_table_file_index_is_rejected() {
        CompiledProgram::new(vec![], vec![OpCode::OpenWrite { file: 0 }], 1);
    }

    #[test]
    fn fn_program_generates_lazily() {
        let p = FnProgram {
            count: 3,
            f: |rank, pc| LogicalOp::Compute {
                nanos: (rank * 10 + pc) as u64,
            },
        };
        assert_eq!(p.len(5), 3);
        assert_eq!(p.op(2, 1), LogicalOp::Compute { nanos: 21 });
    }
}

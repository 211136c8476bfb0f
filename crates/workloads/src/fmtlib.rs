//! Minimal data-formatting-library layers (pnetcdf-lite, hdf5-lite).
//!
//! The paper stresses that applications often do I/O through formatting
//! libraries (HDF5, Parallel-NetCDF) which *dictate* the access pattern,
//! and that PLFS intercepts those libraries' calls transparently (§I).
//! These wrappers reproduce the structural pattern such libraries impose
//! on top of the raw data payload:
//!
//! * a header/superblock written by rank 0 before data (attributes,
//!   dimension tables);
//! * a header read by **every** rank at file-open time during read-back —
//!   a tiny but fully serialized hot spot (everyone reads rank 0's
//!   bytes);
//! * for hdf5-lite, a metadata flush (header rewrite) at close.

use crate::spec::{OpSpec, Workload};
use mpio::ops::FileTag;

/// Header sizes modeled after typical checkpoint headers.
pub(crate) const PNETCDF_HEADER_BYTES: u64 = 8 * 1024;
pub(crate) const HDF5_SUPERBLOCK_BYTES: u64 = 64 * 1024;

#[expect(clippy::panic, reason = "fmtlib wraps only workloads built by this crate, all of which open for write")]
fn file_of(w: &Workload) -> FileTag {
    for s in &w.specs {
        if let OpSpec::OpenWrite(f) = s {
            return f.clone();
        }
    }
    panic!("workload {} has no OpenWrite phase", w.name);
}

/// Wrap a workload in Parallel-NetCDF-style behaviour: rank 0 writes the
/// header right after the collective open; every reader fetches the
/// header right after read-open.
pub(crate) fn with_pnetcdf_lite(mut w: Workload) -> Workload {
    let file = file_of(&w);
    insert_after_open_write(
        &mut w,
        OpSpec::HeaderWrite {
            file: file.clone(),
            len: PNETCDF_HEADER_BYTES,
        },
    );
    insert_after_open_read(
        &mut w,
        OpSpec::HeaderRead {
            file,
            len: PNETCDF_HEADER_BYTES,
        },
    );
    w.name = format!("{}+pnetcdf", w.name);
    w
}

/// Wrap a workload in HDF5-style behaviour: superblock write at open,
/// metadata flush (superblock rewrite) before close, superblock read at
/// read-open.
pub(crate) fn with_hdf5_lite(mut w: Workload) -> Workload {
    let file = file_of(&w);
    insert_after_open_write(
        &mut w,
        OpSpec::HeaderWrite {
            file: file.clone(),
            len: HDF5_SUPERBLOCK_BYTES,
        },
    );
    insert_before_close_write(
        &mut w,
        OpSpec::HeaderWrite {
            file: file.clone(),
            len: HDF5_SUPERBLOCK_BYTES,
        },
    );
    insert_after_open_read(
        &mut w,
        OpSpec::HeaderRead {
            file,
            len: HDF5_SUPERBLOCK_BYTES,
        },
    );
    w.name = format!("{}+hdf5", w.name);
    w
}

fn insert_after_open_write(w: &mut Workload, op: OpSpec) {
    #[expect(clippy::expect_used, reason = "fmtlib wraps only workloads built by this crate, all of which have this phase")]
    let i = w
        .specs
        .iter()
        .position(|s| matches!(s, OpSpec::OpenWrite(_)))
        .expect("OpenWrite phase");
    w.specs.insert(i + 1, op);
}

fn insert_before_close_write(w: &mut Workload, op: OpSpec) {
    #[expect(clippy::expect_used, reason = "fmtlib wraps only workloads built by this crate, all of which have this phase")]
    let i = w
        .specs
        .iter()
        .position(|s| matches!(s, OpSpec::CloseWrite(_)))
        .expect("CloseWrite phase");
    w.specs.insert(i, op);
}

fn insert_after_open_read(w: &mut Workload, op: OpSpec) {
    #[expect(clippy::expect_used, reason = "fmtlib wraps only workloads built by this crate, all of which have this phase")]
    let i = w
        .specs
        .iter()
        .position(|s| matches!(s, OpSpec::OpenRead(_)))
        .expect("OpenRead phase");
    w.specs.insert(i + 1, op);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IoPattern;
    use crate::spec::checkpoint_restart_specs;

    fn base() -> Workload {
        let file = FileTag::shared("/x");
        Workload::new(
            "base",
            IoPattern {
                nprocs: 4,
                object_bytes: 4096,
                transfer: 1024,
                segmented: false,
                own_file: false,
            },
            checkpoint_restart_specs(&file, 1, 1, 1),
        )
    }

    #[test]
    fn pnetcdf_adds_header_phases_in_order() {
        let w = with_pnetcdf_lite(base());
        assert_eq!(w.name, "base+pnetcdf");
        // Header write immediately follows the write-open.
        let open = w
            .specs
            .iter()
            .position(|s| matches!(s, OpSpec::OpenWrite(_)))
            .unwrap();
        assert!(matches!(w.specs[open + 1], OpSpec::HeaderWrite { .. }));
        // Header read immediately follows the read-open.
        let ropen = w
            .specs
            .iter()
            .position(|s| matches!(s, OpSpec::OpenRead(_)))
            .unwrap();
        assert!(matches!(w.specs[ropen + 1], OpSpec::HeaderRead { .. }));
    }

    #[test]
    fn hdf5_adds_flush_before_close() {
        let w = with_hdf5_lite(base());
        let close = w
            .specs
            .iter()
            .position(|s| matches!(s, OpSpec::CloseWrite(_)))
            .unwrap();
        assert!(matches!(w.specs[close - 1], OpSpec::HeaderWrite { .. }));
        // Three header ops total: open write, flush, read.
        let headers = w
            .specs
            .iter()
            .filter(|s| matches!(s, OpSpec::HeaderWrite { .. } | OpSpec::HeaderRead { .. }))
            .count();
        assert_eq!(headers, 3);
    }

    #[test]
    fn wrappers_preserve_collective_structure() {
        let plain = base();
        let wrapped = with_hdf5_lite(base());
        // Same number of barriers — headers are per-rank ops.
        let barriers = |w: &Workload| {
            w.specs
                .iter()
                .filter(|s| matches!(s, OpSpec::Barrier))
                .count()
        };
        assert_eq!(barriers(&plain), barriers(&wrapped));
    }
}

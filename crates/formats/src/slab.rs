//! Hyperslab → contiguous file runs.
//!
//! A slab `(start, count)` of a row-major variable decomposes into
//! `∏ count[..n-1]` contiguous runs of `count[n-1]` elements each. The
//! run list is what the format library hands to the I/O layer — i.e. the
//! access pattern the *library* dictates, which PLFS then transforms.

use crate::header::VarDef;
use crate::Result;
use plfs::PlfsError;

/// One contiguous byte run within the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub file_offset: u64,
    pub len: u64,
}

/// Decompose a hyperslab into file runs, validating bounds.
pub(crate) fn slab_runs(v: &VarDef, start: &[u64], count: &[u64]) -> Result<Vec<Run>> {
    let nd = v.shape.len();
    if start.len() != nd || count.len() != nd {
        return Err(PlfsError::InvalidArg(format!(
            "variable {} has rank {nd}, slab has rank {}/{}",
            v.name,
            start.len(),
            count.len()
        )));
    }
    for d in 0..nd {
        if count[d] == 0 {
            return Ok(Vec::new());
        }
        if start[d] + count[d] > v.shape[d] {
            return Err(PlfsError::InvalidArg(format!(
                "slab [{}, {}) exceeds dim {d} of {} (len {})",
                start[d],
                start[d] + count[d],
                v.name,
                v.shape[d]
            )));
        }
    }

    // Row-major strides in elements.
    let mut stride = vec![1u64; nd];
    for d in (0..nd.saturating_sub(1)).rev() {
        stride[d] = stride[d + 1] * v.shape[d + 1];
    }

    let es = v.elem_size as u64;
    let run_elems = count[nd - 1];
    let outer: u64 = count[..nd - 1].iter().product();
    let mut runs = Vec::with_capacity(outer as usize);
    // Iterate the outer index tuple.
    let mut idx = vec![0u64; nd.saturating_sub(1)];
    for _ in 0..outer {
        let mut elem_off = start[nd - 1] * stride[nd - 1];
        for d in 0..nd - 1 {
            elem_off += (start[d] + idx[d]) * stride[d];
        }
        runs.push(Run {
            file_offset: v.file_offset + elem_off * es,
            len: run_elems * es,
        });
        // Increment the outer tuple (odometer).
        for d in (0..nd - 1).rev() {
            idx[d] += 1;
            if idx[d] < count[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(shape: &[u64], elem: u32, off: u64) -> VarDef {
        VarDef {
            name: "v".into(),
            elem_size: elem,
            shape: shape.to_vec(),
            file_offset: off,
        }
    }

    #[test]
    fn one_dimensional_slab_is_one_run() {
        let v = var(&[100], 4, 1000);
        let runs = slab_runs(&v, &[10], &[20]).unwrap();
        assert_eq!(
            runs,
            vec![Run {
                file_offset: 1000 + 40,
                len: 80
            }]
        );
    }

    #[test]
    fn two_dimensional_slab_runs_per_row() {
        let v = var(&[4, 10], 1, 0);
        let runs = slab_runs(&v, &[1, 2], &[2, 5]).unwrap();
        assert_eq!(
            runs,
            vec![
                Run { file_offset: 12, len: 5 },
                Run { file_offset: 22, len: 5 },
            ]
        );
    }

    #[test]
    fn three_dimensional_odometer() {
        let v = var(&[2, 3, 4], 2, 100);
        // Whole variable: 6 runs of one row each.
        let runs = slab_runs(&v, &[0, 0, 0], &[2, 3, 4]).unwrap();
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[0], Run { file_offset: 100, len: 8 });
        assert_eq!(runs[1], Run { file_offset: 108, len: 8 });
        assert_eq!(runs[5], Run { file_offset: 140, len: 8 });
        // Interior sub-cube.
        let sub = slab_runs(&v, &[1, 1, 1], &[1, 2, 2]).unwrap();
        // offsets: (1*12 + 1*4 + 1) = 17 elems → 134; next row +4 elems → 142.
        assert_eq!(
            sub,
            vec![
                Run { file_offset: 134, len: 4 },
                Run { file_offset: 142, len: 4 },
            ]
        );
    }

    #[test]
    fn bounds_and_rank_checks() {
        let v = var(&[4, 4], 1, 0);
        assert!(slab_runs(&v, &[0], &[4]).is_err());
        assert!(slab_runs(&v, &[0, 2], &[1, 3]).is_err());
        assert!(slab_runs(&v, &[4, 0], &[1, 1]).is_err());
        // Zero count → empty, not an error (netCDF semantics).
        assert!(slab_runs(&v, &[0, 0], &[0, 4]).unwrap().is_empty());
    }

    #[test]
    fn full_rows_still_one_run_per_row() {
        // (Adjacent full rows are contiguous in the file; a smarter
        // implementation could coalesce them. We keep one run per row —
        // that per-row pattern is exactly what pnetcdf emits and what the
        // PLFS index absorbs.)
        let v = var(&[3, 8], 1, 0);
        let runs = slab_runs(&v, &[0, 0], &[3, 8]).unwrap();
        assert_eq!(runs.len(), 3);
        assert!(runs.windows(2).all(|w| w[0].file_offset + w[0].len == w[1].file_offset));
    }
}

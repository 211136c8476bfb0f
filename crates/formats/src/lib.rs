//! pnetcdf-lite: a working miniature of the Parallel-NetCDF data model,
//! doing all of its I/O through the PLFS middleware.
//!
//! The paper's introduction argues that applications often do I/O through
//! data-formatting libraries (HDF5, Parallel-NetCDF) whose layouts
//! *dictate* the access pattern, and that transformative middleware
//! intercepts those libraries transparently. This crate demonstrates the
//! claim end-to-end: a real (if small) array-format library — named
//! dimensions, typed variables, a serialized header, row-major variable
//! regions, per-rank hyperslab writes — whose every byte flows through
//! [`plfs::Plfs`] and lands in log-structured containers, and whose
//! read-back is byte-verified.
//!
//! Pattern-wise it reproduces what the paper's Pixie3D kernel does:
//! rank 0 writes the header; every rank writes its hyperslab of each
//! variable (a strided N-1 pattern determined by the array decomposition,
//! not by the programmer); readers fetch the header first, then slabs.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::disallowed_methods,
        reason = "unit tests: a failed unwrap is the test's failure report; setup and checks call one backend op at a time"
    )
)]

pub mod header;
pub mod slab;
pub mod spanidx;

use header::Header;
use plfs::backend::Backend;
use plfs::reader::ReadHandle;
use plfs::writer::WriteHandle;
use plfs::{Content, Plfs, PlfsError};
use slab::slab_runs;

/// Result alias (errors are PLFS errors plus format violations mapped to
/// `PlfsError::InvalidArg`/`CorruptContainer`).
pub type Result<T> = std::result::Result<T, PlfsError>;

/// Bytes reserved for the serialized header at the front of the file.
pub(crate) const HEADER_REGION: u64 = 8192;

/// A dataset being defined and written (the `NC_DEFINE` → `NC_WRITE`
/// lifecycle of netCDF).
pub struct NcWriter<B: Backend + Clone> {
    handle: WriteHandle<B>,
    header: Header,
    defined: bool,
    /// Writer 0 is the "root" that persists the header.
    is_root: bool,
    clock: u64,
}

impl<B: Backend + Clone> NcWriter<B> {
    /// Start creating a dataset at `path`; `writer` identifies this rank.
    pub fn create(fs: &Plfs<B>, path: &str, writer: u64) -> Result<Self> {
        Ok(NcWriter {
            handle: fs.open_write(path, writer)?,
            header: Header::new(),
            defined: false,
            is_root: writer == 0,
            clock: 0,
        })
    }

    /// Define a variable (collective: every rank must define identically,
    /// as in netCDF). Returns its variable id.
    pub fn def_var(&mut self, name: &str, elem_size: u32, shape: &[u64]) -> Result<usize> {
        if self.defined {
            return Err(PlfsError::InvalidArg(
                "def_var after enddef".to_string(),
            ));
        }
        self.header.def_var(name, elem_size, shape)
    }

    /// End define mode: compute the layout; the root rank persists the
    /// header into the file's header region.
    pub fn enddef(&mut self) -> Result<()> {
        if self.defined {
            return Ok(());
        }
        self.header.finalize(HEADER_REGION)?;
        self.defined = true;
        if self.is_root {
            let bytes = self.header.encode();
            if bytes.len() as u64 > HEADER_REGION {
                return Err(PlfsError::InvalidArg(format!(
                    "header needs {} bytes, region is {HEADER_REGION}",
                    bytes.len()
                )));
            }
            self.clock += 1;
            self.handle.write(0, &Content::bytes(bytes), self.clock)?;
        }
        Ok(())
    }

    /// Write a hyperslab of variable `var`: `start`/`count` per dimension,
    /// `data` in row-major order. Each contiguous run becomes one PLFS
    /// write — the library, not the caller, decides the file offsets.
    pub fn put_slab(&mut self, var: usize, start: &[u64], count: &[u64], data: &[u8]) -> Result<()> {
        if !self.defined {
            return Err(PlfsError::InvalidArg("put_slab before enddef".into()));
        }
        let v = self.header.var(var)?;
        let runs = slab_runs(v, start, count)?;
        let run_bytes: u64 = runs.iter().map(|r| r.len).sum();
        if run_bytes != data.len() as u64 {
            return Err(PlfsError::InvalidArg(format!(
                "slab is {run_bytes} bytes, got {}",
                data.len()
            )));
        }
        let mut cursor = 0usize;
        for run in runs {
            self.clock += 1;
            let piece = &data[cursor..cursor + run.len as usize];
            self.handle
                .write(run.file_offset, &Content::bytes(piece.to_vec()), self.clock)?;
            cursor += run.len as usize;
        }
        Ok(())
    }

    /// Close the dataset (flushes the PLFS index).
    pub fn close(self) -> Result<()> {
        let ts = self.clock.checked_add(1).ok_or_else(|| {
            PlfsError::InvalidArg("write clock overflow at close".into())
        })?;
        self.handle.close(ts)?;
        Ok(())
    }
}

/// A dataset opened for reading.
pub struct NcReader<B: Backend + Clone> {
    handle: ReadHandle<B>,
    header: Header,
}

impl<B: Backend + Clone> NcReader<B> {
    /// Open a dataset: reads and parses the header (the access every rank
    /// performs at open — the hot spot `fmtlib` models in the simulator).
    pub fn open(fs: &Plfs<B>, path: &str) -> Result<Self> {
        let mut handle = fs.open_read(path)?;
        let raw = handle.read(0, HEADER_REGION)?;
        let header = Header::decode(&raw)?;
        Ok(NcReader { handle, header })
    }

    /// Variable id by name.
    pub fn var_id(&self, name: &str) -> Option<usize> {
        self.header.var_id(name)
    }

    /// Shape of a variable.
    pub fn shape(&self, var: usize) -> Result<&[u64]> {
        Ok(&self.header.var(var)?.shape)
    }

    /// Read a hyperslab into a contiguous row-major buffer.
    pub fn get_slab(&mut self, var: usize, start: &[u64], count: &[u64]) -> Result<Vec<u8>> {
        let v = self.header.var(var)?;
        let runs = slab_runs(v, start, count)?;
        let total: u64 = runs.iter().map(|r| r.len).sum();
        let mut out = Vec::with_capacity(total as usize);
        for run in runs {
            out.extend(self.handle.read(run.file_offset, run.len)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plfs::{MemFs, PlfsConfig};
    use std::sync::Arc;

    fn mount() -> Plfs<Arc<MemFs>> {
        Plfs::new(Arc::new(MemFs::new()), PlfsConfig::basic("/panfs")).unwrap()
    }

    /// Deterministic cell value for (var, flat index).
    fn cell(var: u64, idx: u64) -> u8 {
        (var.wrapping_mul(131) ^ idx.wrapping_mul(31)) as u8
    }

    #[test]
    fn single_writer_roundtrip_2d() {
        let fs = mount();
        let mut w = NcWriter::create(&fs, "/pix", 0).unwrap();
        let t = w.def_var("temperature", 1, &[8, 16]).unwrap();
        w.enddef().unwrap();
        let data: Vec<u8> = (0..8 * 16).map(|i| cell(0, i)).collect();
        w.put_slab(t, &[0, 0], &[8, 16], &data).unwrap();
        w.close().unwrap();

        let mut r = NcReader::open(&fs, "/pix").unwrap();
        let t = r.var_id("temperature").unwrap();
        assert_eq!(r.shape(t).unwrap(), &[8, 16]);
        assert_eq!(r.get_slab(t, &[0, 0], &[8, 16]).unwrap(), data);
        // Sub-slab: rows 2..4, cols 5..9.
        let sub = r.get_slab(t, &[2, 5], &[2, 4]).unwrap();
        let want: Vec<u8> = (2..4)
            .flat_map(|row| (5..9).map(move |col| cell(0, row * 16 + col)))
            .collect();
        assert_eq!(sub, want);
    }

    #[test]
    fn parallel_decomposed_write_like_pixie3d() {
        // 4 ranks each own a row-block of a 2-D field: the library turns
        // that decomposition into the strided N-1 pattern underneath.
        let fs = mount();
        let rows = 16u64;
        let cols = 32u64;
        let ranks = 4u64;
        for rank in 0..ranks {
            let mut w = NcWriter::create(&fs, "/field", rank).unwrap();
            let v = w.def_var("rho", 1, &[rows, cols]).unwrap();
            w.enddef().unwrap();
            let my_rows = rows / ranks;
            let r0 = rank * my_rows;
            let data: Vec<u8> = (r0..r0 + my_rows)
                .flat_map(|row| (0..cols).map(move |c| cell(7, row * cols + c)))
                .collect();
            w.put_slab(v, &[r0, 0], &[my_rows, cols], &data).unwrap();
            w.close().unwrap();
        }
        let mut r = NcReader::open(&fs, "/field").unwrap();
        let v = r.var_id("rho").unwrap();
        let all = r.get_slab(v, &[0, 0], &[rows, cols]).unwrap();
        let want: Vec<u8> = (0..rows * cols).map(|i| cell(7, i)).collect();
        assert_eq!(all, want);
        // Under the hood there are 4 writers' logs plus the header
        // writer's — a genuine container, not a flat file.
        let writers = fs
            .container("/field")
            .list_writers(fs.backend())
            .unwrap();
        assert_eq!(writers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn multiple_variables_do_not_overlap() {
        let fs = mount();
        let mut w = NcWriter::create(&fs, "/multi", 0).unwrap();
        let a = w.def_var("a", 1, &[4, 4]).unwrap();
        let b = w.def_var("b", 2, &[3, 5]).unwrap();
        let c = w.def_var("c", 8, &[2]).unwrap();
        w.enddef().unwrap();
        w.put_slab(a, &[0, 0], &[4, 4], &[0xAA; 16]).unwrap();
        w.put_slab(b, &[0, 0], &[3, 5], &[0xBB; 30]).unwrap();
        w.put_slab(c, &[0], &[2], &[0xCC; 16]).unwrap();
        w.close().unwrap();
        let mut r = NcReader::open(&fs, "/multi").unwrap();
        assert_eq!(r.get_slab(a, &[0, 0], &[4, 4]).unwrap(), vec![0xAA; 16]);
        assert_eq!(r.get_slab(b, &[0, 0], &[3, 5]).unwrap(), vec![0xBB; 30]);
        assert_eq!(r.get_slab(c, &[0], &[2]).unwrap(), vec![0xCC; 16]);
    }

    #[test]
    fn misuse_is_rejected() {
        let fs = mount();
        let mut w = NcWriter::create(&fs, "/x", 0).unwrap();
        let v = w.def_var("v", 1, &[4]).unwrap();
        // put before enddef
        assert!(w.put_slab(v, &[0], &[4], &[0; 4]).is_err());
        w.enddef().unwrap();
        // def after enddef
        assert!(w.def_var("late", 1, &[1]).is_err());
        // wrong buffer size
        assert!(w.put_slab(v, &[0], &[4], &[0; 3]).is_err());
        // out-of-bounds slab
        assert!(w.put_slab(v, &[2], &[4], &[0; 4]).is_err());
        // bad var id
        assert!(w.put_slab(9, &[0], &[1], &[0]).is_err());
        // wrong rank
        assert!(w.put_slab(v, &[0, 0], &[1, 1], &[0]).is_err());
    }

    #[test]
    fn header_survives_on_disk_format() {
        // Corrupt header region detection: a non-dataset PLFS file fails
        // to open as a dataset.
        let fs = mount();
        let mut w = fs.open_write("/notnc", 0).unwrap();
        w.write(0, &Content::bytes(vec![0u8; 64]), 1).unwrap();
        w.close(2).unwrap();
        assert!(matches!(
            NcReader::open(&fs, "/notnc"),
            Err(PlfsError::CorruptContainer(_))
        ));
    }
}

//! Array checkpoint through the pnetcdf-lite formatting layer.
//!
//! Reproduces the Pixie3D pattern end-to-end on a real directory: four
//! "ranks" dump a 2-D field through a data-format library that decides
//! the file layout; PLFS underneath turns the library's strided N-1
//! pattern into per-rank logs; a restart with a *different* rank count
//! reads its decomposition back, byte-verified.
//!
//! Run with: `cargo run --release --example array_checkpoint`

use formats::{NcReader, NcWriter};
use plfs::writer::IndexPolicy;
use plfs::{Federation, LocalFs, Plfs, PlfsConfig, PlfsError};

const ROWS: u64 = 64;
const COLS: u64 = 128;

fn cell(row: u64, col: u64) -> u8 {
    (row.wrapping_mul(31) ^ col.wrapping_mul(7)) as u8
}

fn main() -> plfs::Result<()> {
    let root = std::env::temp_dir().join(format!("plfs-array-{}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root)?;
    }
    let fs = Plfs::new(
        LocalFs::new(&root)?,
        PlfsConfig {
            federation: Federation::single("/", 4),
            index_policy: IndexPolicy::WriteClose,
        },
    )?;

    // --- checkpoint: 4 writer ranks, row-block decomposition ----------
    let writers = 4u64;
    for rank in 0..writers {
        let mut w = NcWriter::create(&fs, "/dump.nc", rank)?;
        let var = w.def_var("field", 1, &[ROWS, COLS])?;
        w.enddef()?;
        let my_rows = ROWS / writers;
        let r0 = rank * my_rows;
        let data: Vec<u8> = (r0..r0 + my_rows)
            .flat_map(|r| (0..COLS).map(move |c| cell(r, c)))
            .collect();
        w.put_slab(var, &[r0, 0], &[my_rows, COLS], &data)?;
        w.close()?;
    }
    println!("checkpoint: 4 ranks wrote a {ROWS}x{COLS} field through pnetcdf-lite");

    // --- restart with a different decomposition: 8 reader ranks -------
    let readers = 8u64;
    for rank in 0..readers {
        let mut r = NcReader::open(&fs, "/dump.nc")?;
        let var = (r.var_id("field")).ok_or_else(|| PlfsError::NotFound("field".into()))?;
        assert_eq!(r.shape(var)?, &[ROWS, COLS]);
        let my_rows = ROWS / readers;
        let r0 = rank * my_rows;
        let got = r.get_slab(var, &[r0, 0], &[my_rows, COLS])?;
        for (i, b) in got.iter().enumerate() {
            let row = r0 + i as u64 / COLS;
            let col = i as u64 % COLS;
            assert_eq!(*b, cell(row, col), "rank {rank} at ({row},{col})");
        }
    }
    println!("restart: 8 ranks read their slabs back, every byte verified");

    // Show what the formatting library + PLFS actually produced.
    let report = plfs::fsck::check(fs.backend(), &fs.container("/dump.nc"))?;
    println!(
        "container: {} writers, {} logical bytes, {} index spans, clean = {}",
        report.writers.len(),
        report.logical_size,
        report.spans,
        report.is_clean()
    );
    std::fs::remove_dir_all(&root)?;
    Ok(())
}

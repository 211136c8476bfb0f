//! Property tests: arbitrary variable shapes and slab partitions always
//! round-trip byte-faithfully through pnetcdf-lite over PLFS.

#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is the test's failure report"
)]

use formats::{NcReader, NcWriter};
use plfs::{MemFs, Plfs, PlfsConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn mount() -> Plfs<Arc<MemFs>> {
    Plfs::new(Arc::new(MemFs::new()), PlfsConfig::basic("/panfs")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_2d_row_partitions_roundtrip(
        rows in 1u64..24,
        cols in 1u64..24,
        elem in prop::sample::select(vec![1u32, 2, 4, 8]),
        cut_seed in 0u64..1000,
    ) {
        let fs = mount();
        // Partition rows into 1..4 contiguous writer blocks.
        let writers = if rows == 1 { 1 } else { 1 + (cut_seed % 4).min(rows - 1) };
        let mut boundaries: Vec<u64> = (1..writers)
            .map(|i| 1 + (cut_seed.wrapping_mul(i + 7) % (rows - 1).max(1)))
            .collect();
        boundaries.push(0);
        boundaries.push(rows);
        boundaries.sort_unstable();
        boundaries.dedup();

        let value = |r: u64, c: u64, b: u64| -> u8 {
            (r.wrapping_mul(17) ^ c.wrapping_mul(3) ^ b) as u8
        };

        for (w, win) in boundaries.windows(2).enumerate() {
            let (r0, r1) = (win[0], win[1]);
            let mut nc = NcWriter::create(&fs, "/p", w as u64).unwrap();
            let v = nc.def_var("v", elem, &[rows, cols]).unwrap();
            nc.enddef().unwrap();
            let bytes_per = elem as u64;
            let data: Vec<u8> = (r0..r1)
                .flat_map(|r| (0..cols * bytes_per).map(move |i| value(r, i / bytes_per, i % bytes_per)))
                .collect();
            nc.put_slab(v, &[r0, 0], &[r1 - r0, cols], &data).unwrap();
            nc.close().unwrap();
        }

        let mut rd = NcReader::open(&fs, "/p").unwrap();
        let v = rd.var_id("v").unwrap();
        let all = rd.get_slab(v, &[0, 0], &[rows, cols]).unwrap();
        prop_assert_eq!(all.len() as u64, rows * cols * elem as u64);
        for (i, byte) in all.iter().enumerate() {
            let i = i as u64;
            let bytes_per = elem as u64;
            let r = i / (cols * bytes_per);
            let rem = i % (cols * bytes_per);
            prop_assert_eq!(*byte, value(r, rem / bytes_per, rem % bytes_per), "byte {}", i);
        }
    }

    #[test]
    fn random_sub_slabs_match_full_reads(
        rows in 2u64..16,
        cols in 2u64..16,
        sr in 0u64..8,
        sc in 0u64..8,
    ) {
        let fs = mount();
        let mut nc = NcWriter::create(&fs, "/q", 0).unwrap();
        let v = nc.def_var("v", 1, &[rows, cols]).unwrap();
        nc.enddef().unwrap();
        let data: Vec<u8> = (0..rows * cols).map(|i| (i * 7 % 251) as u8).collect();
        nc.put_slab(v, &[0, 0], &[rows, cols], &data).unwrap();
        nc.close().unwrap();

        let sr = sr % rows;
        let sc = sc % cols;
        let cr = 1 + (sr + sc) % (rows - sr);
        let cc = 1 + (sr ^ sc) % (cols - sc);

        let mut rd = NcReader::open(&fs, "/q").unwrap();
        let v = rd.var_id("v").unwrap();
        let sub = rd.get_slab(v, &[sr, sc], &[cr, cc]).unwrap();
        let want: Vec<u8> = (sr..sr + cr)
            .flat_map(|r| (sc..sc + cc).map(move |c| ((r * cols + c) * 7 % 251) as u8))
            .collect();
        prop_assert_eq!(sub, want);
    }
}

//! File content representation: real bytes or synthetic extents.
//!
//! The simulated evaluation runs at up to 65,536 ranks × 50 MB, which
//! cannot be stored as real bytes. [`Content::Synthetic`] describes a
//! deterministic pseudo-random byte stream by `(seed, start, len)`: byte
//! `i` of stream `seed` is a pure function of `(seed, start + i)`, so a
//! synthetic extent can be sliced, compared, and — in the real backends —
//! materialized into actual bytes and later verified, without any payload
//! ever being stored symbolically.
//!
//! Two ways to the bytes. [`Content::as_bytes`] is for code that only
//! *reads* them — a backend writing a payload out, a decoder, a
//! comparison: real bytes are borrowed (no allocation, no copy) and only
//! a synthetic or zero extent is generated. [`Content::materialize`] is
//! for code that needs to *own* a `Vec<u8>` (to hand on, or to turn into
//! a `String`); on real bytes it is a full copy.

use bytes::Bytes;
use std::borrow::Cow;

/// Contents of (part of) a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Content {
    /// Real bytes.
    Bytes(Bytes),
    /// A slice of the deterministic stream identified by `seed`,
    /// covering stream positions `[start, start + len)`.
    Synthetic {
        /// Which deterministic stream.
        seed: u64,
        /// First stream position covered.
        start: u64,
        /// Bytes covered.
        len: u64,
    },
    /// A run of zero bytes (unwritten holes read back as zeros).
    Zeros {
        /// Run length in bytes.
        len: u64,
    },
}

impl Content {
    /// Construct real-byte content from a vector. The content takes the
    /// vector's buffer as it is — no copy, spare capacity kept — and its
    /// clones and slices share that buffer.
    pub fn bytes(v: Vec<u8>) -> Self {
        Content::Bytes(Bytes::from(v))
    }

    /// Synthetic content starting at stream position 0.
    pub fn synthetic(seed: u64, len: u64) -> Self {
        Content::Synthetic {
            seed,
            start: 0,
            len,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Content::Bytes(b) => b.len() as u64,
            Content::Synthetic { len, .. } => *len,
            Content::Zeros { len } => *len,
        }
    }

    /// Whether the content covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sub-range `[off, off + len)` of this content.
    ///
    /// # Panics
    /// Panics if the range exceeds the content.
    pub fn slice(&self, off: u64, len: u64) -> Content {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len()),
            "slice [{off}, {off}+{len}) out of bounds (len {})",
            self.len()
        );
        match self {
            Content::Bytes(b) => Content::Bytes(b.slice(off as usize..(off + len) as usize)),
            Content::Synthetic { seed, start, .. } => Content::Synthetic {
                seed: *seed,
                start: start + off,
                len,
            },
            Content::Zeros { .. } => Content::Zeros { len },
        }
    }

    /// The bytes, borrowed when they are real and generated when the
    /// extent is synthetic or zeros. What every caller that only reads
    /// the bytes uses: on [`Content::Bytes`] it neither allocates nor
    /// copies.
    pub fn as_bytes(&self) -> Cow<'_, [u8]> {
        match self {
            Content::Bytes(b) => Cow::Borrowed(b),
            Content::Synthetic { seed, start, len } => Cow::Owned(synth_bytes(*seed, *start, *len)),
            Content::Zeros { len } => Cow::Owned(vec![0u8; *len as usize]),
        }
    }

    /// Materialize into owned real bytes (a copy of real bytes; synthetic
    /// extents are generated). Prefer [`Content::as_bytes`] unless the
    /// `Vec` itself is needed.
    pub fn materialize(&self) -> Vec<u8> {
        self.as_bytes().into_owned()
    }

    /// Whether two contents denote the same bytes (materializing as needed,
    /// but comparing synthetics structurally when both sides are synthetic
    /// with equal coordinates).
    pub fn same_bytes(&self, other: &Content) -> bool {
        match (self, other) {
            (
                Content::Synthetic {
                    seed: s1,
                    start: a1,
                    len: l1,
                },
                Content::Synthetic {
                    seed: s2,
                    start: a2,
                    len: l2,
                },
            ) if s1 == s2 && a1 == a2 => l1 == l2,
            _ => self.as_bytes() == other.as_bytes(),
        }
    }
}

/// Byte `pos` of synthetic stream `seed`.
pub fn synth_byte(seed: u64, pos: u64) -> u8 {
    let word = splitmix64(seed ^ (pos / 8).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (word >> ((pos % 8) * 8)) as u8
}

/// Generate `len` bytes of stream `seed` starting at `start`.
pub(crate) fn synth_bytes(seed: u64, start: u64, len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len as usize);
    let mut pos = start;
    let end = start + len;
    // Fill word-at-a-time where aligned; per-byte at the edges.
    while pos < end && !pos.is_multiple_of(8) {
        out.push(synth_byte(seed, pos));
        pos += 1;
    }
    while pos + 8 <= end {
        let word = splitmix64(seed ^ (pos / 8).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        out.extend_from_slice(&word.to_le_bytes());
        pos += 8;
    }
    while pos < end {
        out.push(synth_byte(seed, pos));
        pos += 1;
    }
    out
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_bytes_are_deterministic() {
        assert_eq!(synth_bytes(7, 0, 64), synth_bytes(7, 0, 64));
        assert_ne!(synth_bytes(7, 0, 64), synth_bytes(8, 0, 64));
    }

    #[test]
    fn synthetic_slicing_matches_materialized_slicing() {
        let c = Content::synthetic(42, 100);
        let full = c.materialize();
        for (off, len) in [(0u64, 100u64), (3, 20), (17, 1), (99, 1), (0, 0), (50, 50)] {
            let s = c.slice(off, len);
            assert_eq!(
                s.materialize(),
                full[off as usize..(off + len) as usize].to_vec(),
                "slice ({off},{len})"
            );
        }
    }

    #[test]
    fn unaligned_generation_matches_per_byte() {
        for start in 0..16u64 {
            let fast = synth_bytes(5, start, 33);
            let slow: Vec<u8> = (start..start + 33).map(|p| synth_byte(5, p)).collect();
            assert_eq!(fast, slow, "start {start}");
        }
    }

    #[test]
    fn zeros_and_bytes_roundtrip() {
        let z = Content::Zeros { len: 5 };
        assert_eq!(z.materialize(), vec![0; 5]);
        assert_eq!(z.slice(1, 3).len(), 3);
        let b = Content::bytes(vec![1, 2, 3, 4]);
        assert_eq!(b.slice(1, 2).materialize(), vec![2, 3]);
    }

    #[test]
    fn as_bytes_borrows_real_bytes_and_generates_the_rest() {
        let b = Content::bytes(vec![1, 2, 3, 4]);
        let Cow::Borrowed(view) = b.as_bytes() else {
            panic!("real bytes must be borrowed, not copied");
        };
        let Content::Bytes(inner) = &b else {
            unreachable!()
        };
        assert_eq!(view.as_ptr(), inner.as_ptr());
        for c in [
            Content::synthetic(3, 40).slice(5, 20),
            Content::Zeros { len: 9 },
        ] {
            assert!(matches!(c.as_bytes(), Cow::Owned(_)));
            assert_eq!(c.as_bytes(), c.materialize());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Content::bytes(vec![1, 2, 3]).slice(2, 2);
    }

    #[test]
    fn same_bytes_compares_across_kinds() {
        let s = Content::synthetic(9, 32);
        let b = Content::Bytes(Bytes::from(s.materialize()));
        assert!(s.same_bytes(&b));
        assert!(b.same_bytes(&s));
        assert!(!s.same_bytes(&Content::Zeros { len: 32 }));
        // Structural fast path.
        assert!(s.same_bytes(&Content::synthetic(9, 32)));
    }

    #[test]
    fn stream_is_position_addressable() {
        // Slicing at an offset equals generating from that offset.
        let whole = synth_bytes(3, 0, 100);
        let tail = synth_bytes(3, 40, 60);
        assert_eq!(&whole[40..], &tail[..]);
    }
}

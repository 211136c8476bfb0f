//! Dataset header: variable definitions and their file layout.
//!
//! On-disk format (little-endian):
//!
//! ```text
//! magic "NCL1" | var_count u32 |
//!   per var: name_len u32, name bytes, elem_size u32, ndims u32,
//!            dims u64×ndims, file_offset u64
//! ```

use plfs::{PlfsError};

use crate::Result;

/// One variable: name, element size, shape, and its region's offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VarDef {
    pub name: String,
    pub elem_size: u32,
    pub shape: Vec<u64>,
    /// Absolute file offset of the variable's row-major region (assigned
    /// by [`Header::finalize`]).
    pub file_offset: u64,
}

impl VarDef {
    /// Total bytes of the variable's region.
    pub(crate) fn byte_len(&self) -> u64 {
        self.shape.iter().product::<u64>() * self.elem_size as u64
    }
}

const MAGIC: &[u8; 4] = b"NCL1";

/// The dataset header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Header {
    vars: Vec<VarDef>,
    finalized: bool,
}

impl Header {
    pub(crate) fn new() -> Self {
        Header::default()
    }

    /// Define a variable; returns its id.
    pub fn def_var(&mut self, name: &str, elem_size: u32, shape: &[u64]) -> Result<usize> {
        if name.is_empty() || elem_size == 0 || shape.is_empty() {
            return Err(PlfsError::InvalidArg(
                "variable needs a name, element size, and at least one dimension".into(),
            ));
        }
        if shape.contains(&0) {
            return Err(PlfsError::InvalidArg(format!(
                "variable {name} has a zero-length dimension"
            )));
        }
        if self.vars.iter().any(|v| v.name == name) {
            return Err(PlfsError::AlreadyExists(name.to_string()));
        }
        self.vars.push(VarDef {
            name: name.to_string(),
            elem_size,
            shape: shape.to_vec(),
            file_offset: 0,
        });
        Ok(self.vars.len() - 1)
    }

    /// Assign file offsets: variables laid out back to back after the
    /// header region.
    pub(crate) fn finalize(&mut self, header_region: u64) -> Result<()> {
        let mut off = header_region;
        for v in &mut self.vars {
            v.file_offset = off;
            off += v.byte_len();
        }
        self.finalized = true;
        Ok(())
    }

    pub(crate) fn var(&self, id: usize) -> Result<&VarDef> {
        self.vars
            .get(id)
            .ok_or_else(|| PlfsError::InvalidArg(format!("no variable {id}")))
    }

    pub fn var_id(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.name == name)
    }

    /// Serialize.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 * self.vars.len() + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.vars.len() as u32).to_le_bytes());
        for v in &self.vars {
            out.extend_from_slice(&(v.name.len() as u32).to_le_bytes());
            out.extend_from_slice(v.name.as_bytes());
            out.extend_from_slice(&v.elem_size.to_le_bytes());
            out.extend_from_slice(&(v.shape.len() as u32).to_le_bytes());
            for &d in &v.shape {
                out.extend_from_slice(&d.to_le_bytes());
            }
            out.extend_from_slice(&v.file_offset.to_le_bytes());
        }
        out
    }

    /// Parse; tolerant of trailing padding (the header region is fixed).
    pub fn decode(bytes: &[u8]) -> Result<Header> {
        let mut c = Cursor { bytes, pos: 0 };
        let magic = c.take(4)?;
        if magic != MAGIC {
            return Err(PlfsError::CorruptContainer(
                "not a pnetcdf-lite dataset (bad magic)".into(),
            ));
        }
        let var_count = c.u32()? as usize;
        if var_count > 1_000_000 {
            return Err(PlfsError::CorruptContainer(format!(
                "implausible variable count {var_count}"
            )));
        }
        let mut vars = Vec::with_capacity(var_count);
        for _ in 0..var_count {
            let name_len = c.u32()? as usize;
            let name = String::from_utf8(c.take(name_len)?.to_vec())
                .map_err(|_| PlfsError::CorruptContainer("variable name not utf-8".into()))?;
            let elem_size = c.u32()?;
            let ndims = c.u32()? as usize;
            if ndims == 0 || ndims > 16 {
                return Err(PlfsError::CorruptContainer(format!(
                    "variable {name}: implausible rank {ndims}"
                )));
            }
            let mut shape = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                shape.push(c.u64()?);
            }
            let file_offset = c.u64()?;
            vars.push(VarDef {
                name,
                elem_size,
                shape,
                file_offset,
            });
        }
        Ok(Header {
            vars,
            finalized: true,
        })
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(PlfsError::CorruptContainer("header truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[expect(clippy::expect_used, reason = "take(4) returned exactly 4 bytes, the conversion cannot fail")]
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    #[expect(clippy::expect_used, reason = "take(8) returned exactly 8 bytes, the conversion cannot fail")]
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrips() {
        let mut h = Header::new();
        h.def_var("u", 8, &[10, 20, 30]).unwrap();
        h.def_var("pressure", 4, &[100]).unwrap();
        h.finalize(8192).unwrap();
        let decoded = Header::decode(&h.encode()).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(decoded.var(0).unwrap().file_offset, 8192);
        assert_eq!(
            decoded.var(1).unwrap().file_offset,
            8192 + 10 * 20 * 30 * 8
        );
    }

    #[test]
    fn decode_tolerates_padding() {
        let mut h = Header::new();
        h.def_var("x", 1, &[4]).unwrap();
        h.finalize(1024).unwrap();
        let mut bytes = h.encode();
        bytes.resize(1024, 0);
        assert_eq!(Header::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn bad_inputs_rejected() {
        let mut h = Header::new();
        assert!(h.def_var("", 1, &[1]).is_err());
        assert!(h.def_var("v", 0, &[1]).is_err());
        assert!(h.def_var("v", 1, &[]).is_err());
        assert!(h.def_var("v", 1, &[0]).is_err());
        h.def_var("v", 1, &[1]).unwrap();
        assert!(h.def_var("v", 1, &[1]).is_err(), "duplicate name");
        assert!(h.var(5).is_err());
        assert_eq!(h.var_id("v"), Some(0));
        assert_eq!(h.var_id("w"), None);
    }

    #[test]
    fn corrupt_headers_rejected() {
        assert!(Header::decode(b"JUNK").is_err());
        assert!(Header::decode(b"NC").is_err());
        let mut h = Header::new();
        h.def_var("v", 1, &[4]).unwrap();
        h.finalize(64).unwrap();
        let bytes = h.encode();
        // Truncate mid-variable.
        assert!(Header::decode(&bytes[..bytes.len() - 3]).is_err());
    }
}

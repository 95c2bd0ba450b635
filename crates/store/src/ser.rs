//! Little-endian, length-prefixed primitives for the index-metadata
//! region of a store file.
//!
//! Every index family serializes its memory-resident state (directories,
//! tree mirrors, prefix arrays) through [`MetaBuf`] and decodes it back
//! through [`MetaCursor`]. The cursor is fully bounds-checked: malformed
//! input yields [`StoreError::Meta`], never a panic — the metadata region
//! is checksummed, but the decoder does not rely on that.

use crate::StoreError;

/// An append-only byte buffer for index metadata.
#[derive(Debug, Default)]
pub struct MetaBuf {
    bytes: Vec<u8>,
}

impl MetaBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        MetaBuf {
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// The serialized bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The serialized bytes, without a copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an optional `u64` (presence byte + value).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends an optional `u32`.
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u32(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_vec_u64(&mut self, v: &[u64]) {
        self.put_len(v.len());
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_vec_u32(&mut self, v: &[u32]) {
        self.put_len(v.len());
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.bytes.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked reading cursor over serialized metadata.
#[derive(Debug)]
pub struct MetaCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> MetaCursor<'a> {
    /// A cursor over `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        MetaCursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Meta {
                what: format!("{what}: needed {n} bytes, {} left", self.remaining()),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length prefix, validated against the bytes remaining so a
    /// corrupted length cannot drive a huge allocation.
    pub fn get_len(&mut self, elem_bytes: usize) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        let cap = (self.remaining() / elem_bytes.max(1)) as u64;
        if v > cap {
            return Err(StoreError::Meta {
                what: format!("length {v} exceeds remaining input ({cap} elements)"),
            });
        }
        Ok(v as usize)
    }

    /// Reads a boolean byte (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StoreError::Meta {
                what: format!("boolean byte {b}"),
            }),
        }
    }

    /// Reads an optional `u64`.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, StoreError> {
        Ok(if self.get_bool()? {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    /// Reads an optional `u32`.
    pub fn get_opt_u32(&mut self) -> Result<Option<u32>, StoreError> {
        Ok(if self.get_bool()? {
            Some(self.get_u32()?)
        } else {
            None
        })
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn get_vec_u64(&mut self) -> Result<Vec<u64>, StoreError> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn get_vec_u32(&mut self) -> Result<Vec<u32>, StoreError> {
        let n = self.get_len(4)?;
        (0..n).map(|_| self.get_u32()).collect()
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let n = self.get_len(1)?;
        let b = self.take(n, "string")?;
        String::from_utf8(b.to_vec()).map_err(|_| StoreError::Meta {
            what: "non-UTF-8 string".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut b = MetaBuf::new();
        b.put_u8(7);
        b.put_u32(0xDEAD);
        b.put_u64(u64::MAX - 3);
        b.put_bool(true);
        b.put_opt_u64(Some(42));
        b.put_opt_u64(None);
        b.put_opt_u32(Some(5));
        b.put_vec_u64(&[1, 2, 3]);
        b.put_vec_u32(&[9, 8]);
        b.put_str("psi");
        let mut c = MetaCursor::new(b.bytes());
        assert_eq!(c.get_u8().unwrap(), 7);
        assert_eq!(c.get_u32().unwrap(), 0xDEAD);
        assert_eq!(c.get_u64().unwrap(), u64::MAX - 3);
        assert!(c.get_bool().unwrap());
        assert_eq!(c.get_opt_u64().unwrap(), Some(42));
        assert_eq!(c.get_opt_u64().unwrap(), None);
        assert_eq!(c.get_opt_u32().unwrap(), Some(5));
        assert_eq!(c.get_vec_u64().unwrap(), vec![1, 2, 3]);
        assert_eq!(c.get_vec_u32().unwrap(), vec![9, 8]);
        assert_eq!(c.get_str().unwrap(), "psi");
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors_not_panics() {
        let mut b = MetaBuf::new();
        b.put_u64(1);
        let mut c = MetaCursor::new(&b.bytes()[..3]);
        assert!(matches!(c.get_u64(), Err(StoreError::Meta { .. })));
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut b = MetaBuf::new();
        b.put_u64(u64::MAX); // absurd element count
        let mut c = MetaCursor::new(b.bytes());
        assert!(matches!(c.get_vec_u64(), Err(StoreError::Meta { .. })));
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut c = MetaCursor::new(&[2]);
        assert!(matches!(c.get_bool(), Err(StoreError::Meta { .. })));
    }
}

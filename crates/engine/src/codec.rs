//! The one little-endian byte codec under every binary format: the
//! [`store`](crate::store) blobs, the [`wal`](crate::wal) record frames
//! and the serve crate's wire protocol all read and write through
//! [`Writer`] and [`Reader`]. It also owns what those formats share:
//! the tuple encoding, the FNV-1a 64 checksum and the frame bound.
//!
//! A tuple is a tag byte and its constants: `0` = `R(u32)`,
//! `1` = `S(u8, u32, u32)`, `2` = `T(u32)`.

use intext_tid::TupleDesc;

/// Largest payload one frame may carry (64 MiB), for wire frames and
/// WAL records alike: big enough for any realistic snapshot, small
/// enough that a hostile length prefix cannot exhaust memory.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Why a [`Reader`] read failed. Each format maps it into its own error
/// type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the field being read.
    Truncated,
    /// A tuple tag byte is none of `R`/`S`/`T`.
    BadTupleTag(u8),
}

/// FNV-1a 64 over a byte slice — dependency-free corruption detection.
/// Not cryptographic: the checksum guards against bit rot and truncation,
/// not against an adversary forging a semantically wrong circuit (no
/// checksum could; see `DESIGN.md` §5 on the trust model).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A growing byte buffer; every integer is written little-endian.
#[derive(Debug, Default)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE 754 bits (lossless).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends `v` behind a `u32` length prefix.
    ///
    /// # Panics
    /// Panics if `v` is longer than `u32::MAX` bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("length fits a u32 prefix"));
        self.bytes.extend_from_slice(v);
    }

    /// Appends `v` as is, with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.bytes.extend_from_slice(v);
    }

    /// Appends one tuple: its tag, then its constants.
    pub fn tuple(&mut self, t: TupleDesc) {
        match t {
            TupleDesc::R(a) => {
                self.u8(0);
                self.u32(a);
            }
            TupleDesc::S(i, a, b) => {
                self.u8(1);
                self.u8(i);
                self.u32(a);
                self.u32(b);
            }
            TupleDesc::T(b) => {
                self.u8(2);
                self.u32(b);
            }
        }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// The finished buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// A cursor over a byte slice. Every read is bounds-checked and returns
/// [`CodecError::Truncated`] past the end, never a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes. On failure the cursor does not move.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its IEEE 754 bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads bytes written by [`Writer::bytes`]: a `u32` length, then
    /// that many bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32` count of items that take at least `min_item_bytes`
    /// each, rejecting a count the remaining input cannot hold — so a
    /// hostile count fails before anything is allocated for it.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(count)
    }

    /// Reads a tuple written by [`Writer::tuple`].
    pub fn tuple(&mut self) -> Result<TupleDesc, CodecError> {
        match self.u8()? {
            0 => Ok(TupleDesc::R(self.u32()?)),
            1 => Ok(TupleDesc::S(self.u8()?, self.u32()?, self.u32()?)),
            2 => Ok(TupleDesc::T(self.u32()?)),
            tag => Err(CodecError::BadTupleTag(tag)),
        }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_input_is_a_typed_error() {
        assert_eq!(Reader::new(&[7]).tuple(), Err(CodecError::BadTupleTag(7)));
        // A torn read leaves the cursor where it was: the WAL reports a
        // torn record's length from `remaining()` after a failed `take`.
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        assert_eq!(r.take(4), Err(CodecError::Truncated));
        assert_eq!(r.remaining(), 3);
        // A count the input cannot hold fails before any allocation.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0]);
        assert_eq!(r.count(1), Err(CodecError::Truncated));
        let mut r = Reader::new(&[2, 0, 0, 0, 0, 0]);
        assert_eq!(r.count(1), Ok(2));
    }
}

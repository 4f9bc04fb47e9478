//! Versioned binary wire format.
//!
//! Every serialized artifact in the system — checkpoint metadata records,
//! the object-store metadata journal, SLSFS directories, `sls send`
//! streams — is written with this codec. It is deliberately simple:
//! little-endian fixed-width integers, LEB128 varints for counts, and
//! length-prefixed byte strings, wrapped in tagged+versioned records so
//! that old images stay readable as the format evolves (the paper stresses
//! that checkpoints are self-contained and portable across machines).

use crate::error::{Error, Result};
use crate::hash::crc32c;

/// Bytes [`Encoder::varint`] writes for `v`: one per started 7 bits.
pub fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Encoder over a growable byte buffer.
///
/// # Examples
///
/// ```
/// use aurora_sim::{Encoder, Decoder};
///
/// let mut e = Encoder::new();
/// e.str("aurora");
/// e.varint(4096);
/// let bytes = e.finish();
///
/// let mut d = Decoder::new(&bytes);
/// assert_eq!(d.str().unwrap(), "aurora");
/// assert_eq!(d.varint().unwrap(), 4096);
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Creates an encoder with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finishes encoding and returns a plain vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes an LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.varint(v.len() as u64);
        self.raw(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes raw bytes with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes an `Option` as a presence byte plus payload.
    pub fn option<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            Some(inner) => {
                self.bool(true);
                f(self, inner);
            }
            None => self.bool(false),
        }
    }

    /// Writes a sequence as a varint count plus elements.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.varint(items.len() as u64);
        for item in items {
            f(self, item);
        }
    }

    /// Writes a tagged, versioned, CRC-protected record of `generation`.
    ///
    /// Layout: `tag:u16 version:u16 len:u32 generation:u64 payload
    /// crc32c:u32`, the CRC over the record's header and payload. This is
    /// the metadata journal's frame: recovery walks records and stops at
    /// the first whose CRC (a torn tail) or generation (a stale one)
    /// fails.
    pub fn record(&mut self, tag: u16, version: u16, generation: u64, payload: &[u8]) {
        let start = self.buf.len();
        self.u16(tag);
        self.u16(version);
        self.u32(payload.len() as u32);
        self.u64(generation);
        self.raw(payload);
        let crc = crc32c(self.buf.get(start..).unwrap_or_default());
        self.u32(crc);
    }
}

/// Decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// What a record's header claims before its CRC is checked (see
/// [`Encoder::record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Record type tag.
    pub tag: u16,
    /// Format version of this record.
    pub version: u16,
    /// The generation the record was written under.
    pub generation: u64,
    /// Payload bytes.
    pub payload_len: usize,
}

impl RecordHeader {
    /// Bytes of the whole record: the 16-byte header, the payload and
    /// the 4-byte CRC.
    pub fn record_len(&self) -> usize {
        16 + self.payload_len + 4
    }
}

/// A decoded record (see [`Encoder::record`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record<'a> {
    /// Record type tag.
    pub tag: u16,
    /// Format version of this record.
    pub version: u16,
    /// The generation the record was written under.
    pub generation: u64,
    /// Payload bytes (CRC already verified).
    pub payload: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::corrupt(format!(
                "short read: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads `N` bytes as an array, for the fixed-width integers.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any nonzero byte other than 1 is corruption.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::corrupt(format!("bad bool byte {b:#x}"))),
        }
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return Err(Error::corrupt("varint overflow"));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        let raw = self.bytes()?;
        core::str::from_utf8(raw).map_err(|_| Error::corrupt("invalid utf-8 string"))
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads an `Option`.
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a sequence written by [`Encoder::seq`].
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.varint()? as usize;
        // Guard against absurd counts from corrupt data before allocating.
        if n > self.remaining() {
            return Err(Error::corrupt(format!(
                "sequence count {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Reads a record's header (see [`Encoder::record`]) and nothing
    /// more.
    pub fn record_header(&mut self) -> Result<RecordHeader> {
        Ok(RecordHeader {
            tag: self.u16()?,
            version: self.u16()?,
            payload_len: self.u32()? as usize,
            generation: self.u64()?,
        })
    }

    /// Reads and CRC-verifies a record written by [`Encoder::record`].
    pub fn record(&mut self) -> Result<Record<'a>> {
        let start = self.pos;
        let header = self.record_header()?;
        let payload = self.take(header.payload_len)?;
        let covered = self.buf.get(start..self.pos).unwrap_or_default();
        if self.u32()? != crc32c(covered) {
            let tag = header.tag;
            return Err(Error::corrupt(format!("record tag {tag} failed CRC")));
        }
        Ok(Record {
            tag: header.tag,
            version: header.version,
            generation: header.generation,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.u8(0xAB);
        e.bool(true);
        e.u16(0x1234);
        e.u32(0xDEADBEEF);
        e.u64(u64::MAX - 5);
        e.i64(-42);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 0x1234);
        assert_eq!(d.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 5);
        assert_eq!(d.i64().unwrap(), -42);
        assert!(d.is_empty());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut e = Encoder::new();
            e.varint(v);
            let b = e.finish();
            assert_eq!(Decoder::new(&b).varint().unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn strings_and_options() {
        let mut e = Encoder::new();
        e.str("hello");
        e.option(Some(&7u64), |e, v| e.u64(*v));
        e.option::<u64>(None, |e, v| e.u64(*v));
        e.seq(&[1u32, 2, 3], |e, v| e.u32(*v));
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.option(|d| d.u64()).unwrap(), Some(7));
        assert_eq!(d.option(|d| d.u64()).unwrap(), None);
        assert_eq!(d.seq(|d| d.u32()).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn record_crc_detects_corruption() {
        let mut e = Encoder::new();
        e.u8(0xEE); // The CRC covers the record alone, not what precedes it.
        e.record(3, 1, 77, b"payload-bytes");
        let mut b = e.into_vec();
        // Clean decode first.
        let mut d = Decoder::new(&b);
        assert_eq!(d.u8().unwrap(), 0xEE);
        let rec = d.record().unwrap();
        assert_eq!(rec.tag, 3);
        assert_eq!(rec.version, 1);
        assert_eq!(rec.generation, 77);
        assert_eq!(rec.payload, b"payload-bytes");
        let header = Decoder::new(&b[1..]).record_header().unwrap();
        assert_eq!(header.record_len(), b.len() - 1);
        // Flip a generation bit, then a payload bit: CRC must fail.
        for at in [9, 20] {
            b[at] ^= 0x40;
            let mut d = Decoder::new(&b);
            d.u8().unwrap();
            assert!(d.record().is_err(), "flip at {at}");
            b[at] ^= 0x40;
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.u64(9);
        let b = e.finish();
        let mut d = Decoder::new(&b[..4]);
        assert!(d.u64().is_err());
        // A lying sequence count must not cause a huge allocation.
        let mut e = Encoder::new();
        e.varint(u32::MAX as u64);
        let b = e.finish();
        assert!(Decoder::new(&b).seq(|d| d.u8()).is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        assert!(Decoder::new(&[2]).bool().is_err());
    }
}

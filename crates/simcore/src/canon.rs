//! Canonical byte encoding (`spec_v1`) — the substrate of content-addressed
//! run caching.
//!
//! A *canonical* encoding is a stable, versioned, platform-independent byte
//! string: the same value always encodes to the same bytes, on every
//! machine, across releases of the same format version. Hashing the bytes
//! therefore keys a durable cache — two run specifications collide exactly
//! when they describe the same simulation.
//!
//! The format is deliberately minimal (this is not serde):
//!
//! * fixed-width little-endian integers (`u8`/`u16`/`u32`/`u64`/`i64`),
//! * `f64` as its IEEE-754 bit pattern (little-endian), so `-0.0`, subnormals
//!   and every other value encode distinctly,
//! * `bool` as one byte (`0`/`1`),
//! * enums as a one-byte discriminant tag followed by the variant payload,
//! * **no field names, no padding, no varints** — the bytes are the fields
//!   in declaration order, so two values that differ in any encoded field
//!   encode differently.
//!
//! Every behaviour-affecting type implements [`Canon`]; presentational
//! fields (labels, progress settings) are excluded by *not encoding them*,
//! which is what makes [`fnv1a64`] over the bytes a semantic hash.
//!
//! ```
//! use simcore::{fnv1a64, Canon, CanonWriter, Picos};
//!
//! let mut w = CanonWriter::new();
//! Picos::from_us(800).encode_canon(&mut w);
//! w.bool(true);
//! let bytes = w.finish();
//! assert_eq!(bytes, [0x00, 0x08, 0xaf, 0x2f, 0, 0, 0, 0, 1]);
//! assert_ne!(fnv1a64(&bytes), fnv1a64(&bytes[..8]));
//! ```
//!
//! Specs are only ever encoded. [`CanonReader`] reads the same primitives
//! back for formats that are parsed, such as the trace layer's records.

use std::fmt;

use crate::Picos;

/// Error produced when canonical bytes cannot be read (truncation, an
/// invalid `bool` byte, bytes left over, or a value the reader's format
/// does not describe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonError(String);

impl CanonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> CanonError {
        CanonError(msg.into())
    }
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "canonical decode failed: {}", self.0)
    }
}

impl std::error::Error for CanonError {}

/// Append-only writer of canonical bytes.
#[derive(Debug, Default)]
pub struct CanonWriter {
    buf: Vec<u8>,
}

impl CanonWriter {
    /// An empty writer.
    pub fn new() -> CanonWriter {
        CanonWriter::default()
    }

    /// Appends one raw byte (also used for enum discriminant tags).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends raw bytes as they are (the caller writes any length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the writer but keeps its allocation, so one writer can
    /// encode a stream of records without allocating per record.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer, returning the canonical bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over canonical bytes; every read is bounds-checked.
#[derive(Debug)]
pub struct CanonReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CanonReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> CanonReader<'a> {
        CanonReader { buf: bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        if self.pos + n > self.buf.len() {
            return Err(CanonError::new(format!(
                "truncated: wanted {n} bytes at offset {}, only {} left",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        self.take(n)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, CanonError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CanonError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CanonError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CanonError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CanonError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `bool`; bytes other than `0`/`1` are an error.
    pub fn bool(&mut self) -> Result<bool, CanonError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CanonError::new(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the reader consumed every byte — catches encodings that grew
    /// fields a decoder does not know about.
    pub fn finish(&self) -> Result<(), CanonError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CanonError::new(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }
}

/// A type with a stable canonical byte encoding. See the module docs for
/// the format rules; implementations must encode every behaviour-affecting
/// field, so that two values that behave differently never share bytes.
pub trait Canon {
    /// Appends this value's canonical bytes to `w`.
    fn encode_canon(&self, w: &mut CanonWriter);

    /// This value's canonical bytes on their own.
    fn canon_bytes(&self) -> Vec<u8> {
        let mut w = CanonWriter::new();
        self.encode_canon(&mut w);
        w.finish()
    }
}

impl Canon for Picos {
    fn encode_canon(&self, w: &mut CanonWriter) {
        w.u64(self.as_ps());
    }
}

/// Streaming FNV-1a 64-bit hasher — the workspace's one digest loop.
/// Feeding a byte string in any number of pieces yields the hash of the
/// whole, which is how the trace layer digests a run record by record.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64 {
    hash: u64,
    prime: u64,
}

impl Default for Fnv1a64 {
    /// Standard FNV-1a 64 (prime 2^40 + 0x1b3): [`finish`](Fnv1a64::finish)
    /// is [`fnv1a64`] of every byte written.
    fn default() -> Fnv1a64 {
        Fnv1a64 {
            hash: 0xcbf2_9ce4_8422_2325,
            prime: 0x100_0000_01b3,
        }
    }
}

impl Fnv1a64 {
    /// The trace digest's variant: the same offset basis and fold, but the
    /// multiplier is 2^44 + 0x1b3 — the FNV prime with one zero too many,
    /// as the trace layer first wrote it. Every golden digest and
    /// `benchmark/expected.json` pin this function's output, so it stays
    /// until a PR is allowed to re-pin them all at once.
    pub fn trace_variant() -> Fnv1a64 {
        Fnv1a64 {
            prime: 0x1000_0000_01b3,
            ..Fnv1a64::default()
        }
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(self.prime);
        }
    }

    /// The hash of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// FNV-1a 64-bit hash of `bytes`. Applied to a canonical encoding it
/// yields a content address.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = CanonWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(f64::MIN_POSITIVE / 2.0); // subnormal
        w.bool(true);
        w.u16(0xBEEF);
        w.i64(i64::MIN + 1);
        w.bytes(&[9, 8]);
        assert_eq!(w.as_bytes().len(), w.len());
        let bytes = w.finish();
        assert_eq!(bytes.len(), 1 + 4 + 8 + 8 + 8 + 1 + 2 + 8 + 2);

        let mut r = CanonReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u64().unwrap(), (-0.0f64).to_bits());
        assert_eq!(r.u64().unwrap(), (f64::MIN_POSITIVE / 2.0).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.i64().unwrap(), i64::MIN + 1);
        assert_eq!(r.bytes(2).unwrap(), [9, 8]);
        r.finish().unwrap();
    }

    #[test]
    fn a_cleared_writer_starts_over_in_the_same_buffer() {
        let mut w = CanonWriter::new();
        w.u64(1);
        let cap = w.buf.capacity();
        w.clear();
        assert!(w.is_empty());
        w.u16(0x0201);
        assert_eq!(w.as_bytes(), [1, 2]);
        assert_eq!(w.buf.capacity(), cap);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut r = CanonReader::new(&[1, 2]);
        assert!(r.u64().is_err());

        let r = CanonReader::new(&[1, 2]);
        assert!(r.finish().is_err());

        let mut r = CanonReader::new(&[2]);
        assert!(r.bool().is_err(), "bool must reject bytes beyond 0/1");
    }

    #[test]
    fn picos_round_trips() {
        // Picos encodes as its picosecond count, a little-endian u64, and
        // nothing else: reading that u64 back gives the value again.
        for t in [Picos::ZERO, Picos::new(1), Picos::from_us(800), Picos::MAX] {
            let bytes = t.canon_bytes();
            assert_eq!(bytes, t.as_ps().to_le_bytes());
            let mut r = CanonReader::new(&bytes);
            assert_eq!(Picos::new(r.u64().unwrap()), t);
            r.finish().unwrap();
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_hasher_equals_one_shot_for_any_split() {
        let mut rng = crate::Xoshiro256::new(0xf17a);
        for _ in 0..200 {
            let n = rng.next_below(64) as usize;
            let x: Vec<u8> = (0..n).map(|_| rng.next_below(256) as u8).collect();
            let mut h = Fnv1a64::default();
            let mut rest = &x[..];
            while !rest.is_empty() {
                // Zero-length pieces included.
                let (piece, tail) = rest.split_at(rng.next_below(rest.len() as u64 + 1) as usize);
                h.write(piece);
                rest = tail;
            }
            assert_eq!(h.finish(), fnv1a64(&x));
        }
        // The trace variant is a different function of the same bytes.
        let mut h = Fnv1a64::trace_variant();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), 0xf8ac_2471_f739_67e8);
    }
}

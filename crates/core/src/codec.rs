//! Binary encoding primitives shared by the checkpoint subsystem.
//!
//! Checkpoints must restore tracker state *bit-identically* — resumed runs
//! are proptested with `==` on floating-point provenance totals — so every
//! number is written in a fixed-width little-endian layout and every `f64`
//! round-trips through [`f64::to_bits`]/[`f64::from_bits`] without any
//! textual formatting in between. The writer side is a handful of free
//! functions appending to a `Vec<u8>`; the reader side is [`ByteReader`],
//! which carries the name of the checkpoint section being decoded so that
//! a short or malformed buffer surfaces as a diagnosable
//! [`TinError::CorruptCheckpoint`] rather than a generic I/O error.

use crate::error::{Result, TinError};

/// Append a single byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32` in little-endian byte order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian byte order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `usize` as a `u64` (checkpoints are portable across platforms
/// with different pointer widths).
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append an `f64` as its IEEE-754 bit pattern. Exact: NaN payloads, signed
/// zeros, and subnormals all survive the round-trip.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `bool` as one byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_usize(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Cursor over an encoded buffer that reports malformed input as
/// [`TinError::CorruptCheckpoint`], labelled with the section being decoded.
///
/// The `path` field of the raised errors is left empty; the file-level
/// reader patches in the real path before surfacing the error to callers.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: String,
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, labelling errors with `section`.
    pub fn new(buf: &'a [u8], section: &str) -> Self {
        ByteReader {
            buf,
            pos: 0,
            section: section.to_string(),
        }
    }

    /// Relabel the section for subsequent errors (the checkpoint file reader
    /// reuses one reader across sections).
    pub fn set_section(&mut self, section: &str) {
        self.section = section.to_string();
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Build the section-labelled corruption error for `reason`.
    pub fn corrupt(&self, reason: impl Into<String>) -> TinError {
        TinError::CorruptCheckpoint {
            path: String::new(),
            section: self.section.clone(),
            reason: reason.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "truncated: needed {n} bytes, {} remaining",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `usize` written by [`put_usize`], rejecting values that do not
    /// fit the platform's pointer width.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("length {v} overflows usize")))
    }

    /// Read an `f64` bit pattern written by [`put_f64`].
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool` written by [`put_bool`], rejecting bytes other than 0/1.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Read a length-prefixed byte string written by [`put_bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.usize()?;
        if self.remaining() < len {
            return Err(self.corrupt(format!(
                "truncated: byte string of length {len} with {} bytes remaining",
                self.remaining()
            )));
        }
        self.take(len)
    }

    /// Assert the reader consumed its whole buffer (catches trailing
    /// garbage appended to a section).
    pub fn expect_end(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt(format!("{} unexpected trailing bytes", self.remaining())))
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over `bytes` —
/// the per-section integrity check of the checkpoint file format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// [`crc32`] fed piece by piece: the CRC of the concatenation of every
/// slice passed to [`Self::update`], so a section can be checksummed from
/// the pieces it is written from without first being copied into one
/// buffer.
#[derive(Debug)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        const fn table() -> [u32; 256] {
            let mut t = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                    k += 1;
                }
                t[i] = c;
                i += 1;
            }
            t
        }
        const TABLE: [u32; 256] = table();
        let mut crc = self.0;
        for &b in bytes {
            crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_usize(&mut buf, 123_456);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_bool(&mut buf, true);
        put_bytes(&mut buf, b"tin");

        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.usize().unwrap(), 123_456);
        let z = r.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"tin");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_read_is_corrupt_checkpoint() {
        let buf = [1u8, 2];
        let mut r = ByteReader::new(&buf, "cursor");
        let err = r.u32().unwrap_err();
        match err {
            TinError::CorruptCheckpoint {
                section, reason, ..
            } => {
                assert_eq!(section, "cursor");
                assert!(reason.contains("truncated"));
            }
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn bad_bool_and_trailing_bytes_rejected() {
        let buf = [7u8, 9];
        let mut r = ByteReader::new(&buf, "states");
        assert!(matches!(r.bool(), Err(TinError::CorruptCheckpoint { .. })));
        assert!(matches!(
            r.expect_end(),
            Err(TinError::CorruptCheckpoint { .. })
        ));
    }

    #[test]
    fn oversized_byte_string_is_truncation_not_panic() {
        let mut buf = Vec::new();
        put_usize(&mut buf, 1_000_000);
        buf.extend_from_slice(&[0u8; 4]);
        let mut r = ByteReader::new(&buf, "states");
        assert!(matches!(r.bytes(), Err(TinError::CorruptCheckpoint { .. })));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"tin"), crc32(b"tim"));
    }

    #[test]
    fn crc32_fed_in_pieces_matches_one_pass() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for cuts in [
            vec![],
            vec![0, 1000],
            vec![1, 9, 500, 999],
            vec![333, 334, 335],
        ] {
            let mut crc = Crc32::new();
            let mut from = 0;
            for to in cuts.into_iter().chain([bytes.len()]) {
                crc.update(&bytes[from..to]);
                from = to;
            }
            assert_eq!(crc.finish(), crc32(&bytes));
        }
    }
}

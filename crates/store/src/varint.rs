//! LEB128 varints, zigzag signed mapping, and raw f64 bit I/O.
//!
//! Small unsigned values (record counts, run lengths, PoP indices)
//! dominate the store's integer columns, so LEB128 keeps them to one or
//! two bytes; deltas of near-monotone id sequences go through zigzag so
//! the occasional backward step stays cheap. Floats are stored as raw
//! little-endian IEEE-754 bits — bit-exact round-trips are what make
//! `--from-store` reproduce the direct pipeline's output byte for byte.
//!
//! The encoders come in two tiers: the scalar entry points ([`put_u64`],
//! [`put_i64`], [`put_f64`]) with a branch-minimal single-byte fast
//! path, and the block kernels ([`put_u64_block`], [`put_i64_block`],
//! [`put_f64_block`]) that size the output once per column with a
//! branch-free `leading_zeros` length computation and take a whole-word
//! fast path when an entire block fits in one byte per value. Both tiers
//! are byte-for-byte identical to the original byte-at-a-time encoders,
//! which survive in the test-only `scalar` module as the tests' oracle.

use crate::{Result, StoreError};

/// Append `v` as a LEB128 varint.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    put_u64_multi(out, v);
}

/// The multi-byte tail of [`put_u64`]: stage into a fixed stack buffer,
/// then append with one `extend_from_slice`.
#[inline]
fn put_u64_multi(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 10];
    let mut len = 0usize;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf[len] = byte;
            len += 1;
            break;
        }
        buf[len] = byte | 0x80;
        len += 1;
    }
    out.extend_from_slice(&buf[..len]);
}

/// Encoded LEB128 length of `v`, branch-free: one byte per started
/// 7-bit group (`v | 1` keeps `v = 0` at one byte).
#[inline]
pub fn encoded_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Zigzag-map a signed value onto the unsigned varint domain.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Append `v` zigzag-mapped then LEB128-encoded.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, zigzag(v));
}

/// Append the raw little-endian bits of `v`.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a whole u64 column as LEB128 varints.
///
/// Sizes the destination once (branch-free per-value length via
/// [`encoded_len`]); when every value in the block fits in one byte —
/// detected with a single OR-fold over the words — the bytes are laid
/// down in one resize-and-fill pass with no per-value branching.
pub fn put_u64_block(out: &mut Vec<u8>, values: &[u64]) {
    if values.is_empty() {
        return;
    }
    let fold = values.iter().fold(0u64, |acc, &v| acc | v);
    if fold < 0x80 {
        let start = out.len();
        out.resize(start + values.len(), 0);
        for (dst, &v) in out[start..].iter_mut().zip(values) {
            *dst = v as u8;
        }
        return;
    }
    let total: usize = values.iter().map(|&v| encoded_len(v)).sum();
    out.reserve(total);
    for &v in values {
        put_u64(out, v);
    }
}

/// Append a whole i64 column as zigzag varints (see [`put_u64_block`]).
pub fn put_i64_block(out: &mut Vec<u8>, values: &[i64]) {
    if values.is_empty() {
        return;
    }
    let fold = values.iter().fold(0u64, |acc, &v| acc | zigzag(v));
    if fold < 0x80 {
        let start = out.len();
        out.resize(start + values.len(), 0);
        for (dst, &v) in out[start..].iter_mut().zip(values) {
            *dst = zigzag(v) as u8;
        }
        return;
    }
    let total: usize = values.iter().map(|&v| encoded_len(zigzag(v))).sum();
    out.reserve(total);
    for &v in values {
        put_u64(out, zigzag(v));
    }
}

/// Append a whole f64 column as raw little-endian bits in one
/// resize-and-fill pass (the compiler turns the fixed-width copy loop
/// into wide moves on little-endian targets).
pub fn put_f64_block(out: &mut Vec<u8>, values: &[f64]) {
    let start = out.len();
    out.resize(start + values.len() * 8, 0);
    for (dst, &v) in out[start..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// A bounds-checked forward cursor over encoded bytes.
///
/// Every read error names the offset it failed at, so a truncated or
/// corrupt chunk produces an actionable message rather than a panic.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Context string prefixed to every error (e.g. `"chunk 12"`).
    context: &'a str,
}

impl<'a> Cursor<'a> {
    /// Wrap `bytes`, labelling errors with `context`.
    pub fn new(bytes: &'a [u8], context: &'a str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            context,
        }
    }

    /// Current offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn corrupt(&self, what: &str) -> StoreError {
        StoreError::Corrupt(format!(
            "{}: {} at offset {} (buffer is {} bytes)",
            self.context,
            what,
            self.pos,
            self.bytes.len()
        ))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.corrupt("unexpected end of input reading byte"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 varint. Single-byte values — the overwhelmingly
    /// common case in count and run-length columns — take the early
    /// return; the loop handles the multi-byte tail.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        if let Some(&b) = self.bytes.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.u64_multi()
    }

    fn u64_multi(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(self.corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a zigzag varint.
    pub fn i64(&mut self) -> Result<i64> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a varint and narrow it to `usize`, failing if it exceeds `cap`.
    pub fn len(&mut self, cap: usize, what: &str) -> Result<usize> {
        let v = self.u64()?;
        if v > cap as u64 {
            return Err(self.corrupt(&format!("{what} length {v} exceeds cap {cap}")));
        }
        Ok(v as usize)
    }

    /// Read raw little-endian f64 bits.
    pub fn f64(&mut self) -> Result<f64> {
        let bytes = self.take(8, "f64")?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Read a whole column of `n` raw-bit f64s into `out` — one bounds
    /// check for the entire block, then a fixed-width copy loop the
    /// compiler unrolls into wide loads.
    pub fn f64_block(&mut self, n: usize, out: &mut Vec<f64>) -> Result<()> {
        let total = n
            .checked_mul(8)
            .ok_or_else(|| self.corrupt("f64 column length overflows"))?;
        let bytes = self.take(total, "f64 column")?;
        out.extend(bytes.chunks_exact(8).map(|chunk| {
            let arr: [u8; 8] = chunk.try_into().expect("8-byte chunk");
            f64::from_bits(u64::from_le_bytes(arr))
        }));
        Ok(())
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                self.corrupt(&format!("unexpected end of input reading {n}-byte {what}"))
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Fail unless the cursor consumed every byte.
    pub fn expect_empty(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(StoreError::Corrupt(format!(
                "{}: {} trailing bytes after decoding",
                self.context,
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// The original byte-at-a-time encoders, kept verbatim as the reference
/// the fast-path and block kernels are tested against.
#[cfg(test)]
pub(crate) mod scalar {
    /// Append `v` as a LEB128 varint, one push per byte.
    pub(crate) fn put_u64(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Append `v` zigzag-mapped then LEB128-encoded.
    pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
        put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append the raw little-endian bits of `v`.
    pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_across_magnitudes() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX / 2, u64::MAX];
        for &v in &values {
            put_u64(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, "test");
        for &v in &values {
            assert_eq!(c.u64().unwrap(), v);
        }
        c.expect_empty().unwrap();
    }

    #[test]
    fn i64_round_trips_signed() {
        let mut buf = Vec::new();
        let values = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &values {
            put_i64(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, "test");
        for &v in &values {
            assert_eq!(c.i64().unwrap(), v);
        }
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        let mut buf = Vec::new();
        let values = [0.0f64, -0.0, 1.5, -1e300, f64::MIN_POSITIVE, 234.567];
        for &v in &values {
            put_f64(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, "test");
        for &v in &values {
            assert_eq!(c.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn fast_path_matches_scalar_reference() {
        // Every magnitude class, through both the scalar reference and
        // the fast-path encoder, byte for byte.
        let values = [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            1 << 20,
            1 << 62,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &values {
            let mut fast = Vec::new();
            put_u64(&mut fast, v);
            let mut reference = Vec::new();
            scalar::put_u64(&mut reference, v);
            assert_eq!(fast, reference, "value {v:#x}");
            assert_eq!(fast.len(), encoded_len(v), "encoded_len for {v:#x}");
        }
    }

    #[test]
    fn block_kernels_match_scalar_reference() {
        // A one-byte-per-value block (bulk fast path) and a mixed block
        // (length-summed slow path), for all three kernels.
        let small: Vec<u64> = (0..200).map(|i| i % 0x80).collect();
        let mixed: Vec<u64> = (0..200).map(|i| i * 0x0012_3456_789A).collect();
        for values in [&small, &mixed] {
            let mut block = Vec::new();
            put_u64_block(&mut block, values);
            let mut reference = Vec::new();
            for &v in values.iter() {
                scalar::put_u64(&mut reference, v);
            }
            assert_eq!(block, reference);
        }

        let signed: Vec<i64> = (-100..100).map(|i| i * 0x77_7777).collect();
        let mut block = Vec::new();
        put_i64_block(&mut block, &signed);
        let mut reference = Vec::new();
        for &v in &signed {
            scalar::put_i64(&mut reference, v);
        }
        assert_eq!(block, reference);

        let floats: Vec<f64> = (0..50).map(|i| (i as f64) * -3.25e100).collect();
        let mut block = Vec::new();
        put_f64_block(&mut block, &floats);
        let mut reference = Vec::new();
        for &v in &floats {
            scalar::put_f64(&mut reference, v);
        }
        assert_eq!(block, reference);
    }

    #[test]
    fn f64_block_decode_matches_scalar_decode() {
        let values = [0.0f64, -0.0, 1.5, -1e300, f64::MIN_POSITIVE, 234.567];
        let mut buf = Vec::new();
        put_f64_block(&mut buf, &values);
        let mut c = Cursor::new(&buf, "test");
        let mut col = Vec::new();
        c.f64_block(values.len(), &mut col).unwrap();
        c.expect_empty().unwrap();
        for (a, b) in col.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Truncated block fails with context.
        let mut c = Cursor::new(&buf[..buf.len() - 1], "chunk 9");
        let err = c.f64_block(values.len(), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("chunk 9"), "{err}");
    }

    #[test]
    fn truncated_input_errors_with_context() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 30);
        buf.truncate(buf.len() - 1);
        let mut c = Cursor::new(&buf, "chunk 3");
        let err = c.u64().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chunk 3"), "{msg}");
        assert!(msg.contains("unexpected end"), "{msg}");
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0xFFu8; 11];
        let mut c = Cursor::new(&buf, "test");
        assert!(c.u64().unwrap_err().to_string().contains("overflows"));
    }
}

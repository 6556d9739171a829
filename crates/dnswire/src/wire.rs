//! Byte-level reader and writer for the DNS wire format.
//!
//! The [`WireWriter`] tracks name-compression targets: every time a name is
//! written, the positions of its suffixes are remembered so later names can
//! emit 2-octet pointers instead of repeating labels (RFC 1035 §4.1.4).
//! The [`WireReader`] follows pointers with loop protection.

use crate::error::DnsError;
use crate::name::label_from_wire;
use crate::pool::{self, PooledBuf};
use bytes::{BufMut, BytesMut};

/// Maximum hops a reader will follow through compression pointers before
/// declaring a loop. RFC 1035 names have at most 128 labels, so any honest
/// chain is shorter.
const MAX_POINTER_HOPS: usize = 128;

/// Maximum encodable DNS message (TCP length prefix is 16-bit).
const MAX_MESSAGE_LEN: usize = 65_535;

/// Growable big-endian writer with compression bookkeeping.
///
/// Compression state is a list of suffix start offsets in insertion
/// order; lookups re-read the label sequence out of the buffer itself
/// (following pointers) and byte-compare. Offsets are unique per suffix —
/// a repeated suffix compresses to a pointer before it could ever be
/// recorded twice — so scanning in insertion order finds the *first*
/// occurrence, exactly like the suffix→offset map this replaced, with no
/// per-name string keys.
pub struct WireWriter {
    buf: BytesMut,
    /// Offsets at which a (pointer-addressable) name suffix was encoded.
    name_offsets: Vec<u16>,
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WireWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::with_buf(BytesMut::with_capacity(512))
    }

    /// Create a writer over a pooled buffer (see [`crate::pool`]); pair
    /// with [`finish_pooled`](Self::finish_pooled) to recycle it.
    pub fn pooled() -> Self {
        Self::with_buf(pool::take())
    }

    /// Create a writer over an existing buffer, reusing its capacity. The
    /// buffer is cleared first.
    pub fn with_buf(mut buf: BytesMut) -> Self {
        buf.clear();
        WireWriter {
            buf,
            name_offsets: Vec::new(),
        }
    }

    /// Current length of the encoded buffer.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and return the encoded bytes. The buffer is moved, not
    /// copied.
    pub fn finish(self) -> Result<Vec<u8>, DnsError> {
        Ok(Vec::from(self.into_buf()?))
    }

    /// Finish and return the backing buffer (for callers reusing their
    /// own allocation via [`with_buf`](Self::with_buf)).
    pub fn into_buf(self) -> Result<BytesMut, DnsError> {
        if self.buf.len() > MAX_MESSAGE_LEN {
            return Err(DnsError::MessageTooLong(self.buf.len()));
        }
        Ok(self.buf)
    }

    /// Finish a [`pooled`](Self::pooled) writer: the encoded bytes stay
    /// in the pooled buffer and recycle when the handle drops.
    pub fn finish_pooled(self) -> Result<PooledBuf, DnsError> {
        Ok(PooledBuf::new(self.into_buf()?))
    }

    /// Append a single octet.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Append raw bytes.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Overwrite a previously written big-endian u16 (e.g. RDLENGTH
    /// back-patching).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        let bytes = v.to_be_bytes();
        self.buf[offset] = bytes[0];
        self.buf[offset + 1] = bytes[1];
    }

    /// Write a domain name given as lowercase labels, using compression
    /// pointers for any suffix already present in the message.
    ///
    /// Accepts any label representation (`&[Box<str>]`, `&[String]`, …).
    pub fn put_name<L: AsRef<str>>(&mut self, labels: &[L]) -> Result<(), DnsError> {
        for start in 0..labels.len() {
            if let Some(offset) = self.find_suffix(&labels[start..]) {
                // Pointer: two octets, top bits 11.
                self.put_u16(0xC000 | offset);
                return Ok(());
            }
            // Record this suffix's position if it is pointer-addressable
            // (pointers are 14-bit).
            let here = self.buf.len();
            if here <= 0x3FFF {
                self.name_offsets.push(here as u16);
            }
            let bytes = labels[start].as_ref().as_bytes();
            if bytes.len() > 63 {
                return Err(DnsError::LabelTooLong(bytes.len()));
            }
            self.put_u8(bytes.len() as u8);
            self.put_slice(bytes);
        }
        self.put_u8(0); // root
        Ok(())
    }

    /// Earliest recorded offset whose encoded label sequence equals
    /// `labels`, if any.
    fn find_suffix<L: AsRef<str>>(&self, labels: &[L]) -> Option<u16> {
        self.name_offsets
            .iter()
            .copied()
            .find(|&off| self.suffix_matches(off as usize, labels))
    }

    /// Byte-compare the name encoded at `off` (following pointers)
    /// against `labels`.
    fn suffix_matches<L: AsRef<str>>(&self, mut off: usize, labels: &[L]) -> bool {
        let buf = &self.buf[..];
        let mut i = 0usize;
        loop {
            // Offsets recorded earlier in the *current* `put_name` call
            // belong to names still being written; walking off the end of
            // the buffer means the recorded suffix has strictly more
            // labels than the query, i.e. no match.
            let Some(&len) = buf.get(off) else {
                return false;
            };
            let len = len as usize;
            if len & 0xC0 == 0xC0 {
                // Recorded suffixes only ever point at earlier recorded
                // suffixes, so this cannot loop.
                off = ((len & 0x3F) << 8) | buf[off + 1] as usize;
                continue;
            }
            if len == 0 {
                return i == labels.len();
            }
            if i == labels.len() {
                return false;
            }
            let label = labels[i].as_ref().as_bytes();
            if label.len() != len || &buf[off + 1..off + 1 + len] != label {
                return false;
            }
            off += 1 + len;
            i += 1;
        }
    }
}

/// Bounds-checked big-endian reader over a full DNS message.
///
/// The reader keeps the entire message visible because compression pointers
/// may refer backwards to any earlier offset.
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap a message buffer.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Read one octet.
    pub fn get_u8(&mut self) -> Result<u8, DnsError> {
        let v = *self.data.get(self.pos).ok_or(DnsError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    /// Read a big-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, DnsError> {
        let hi = self.get_u8()? as u16;
        let lo = self.get_u8()? as u16;
        Ok(hi << 8 | lo)
    }

    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, DnsError> {
        let hi = self.get_u16()? as u32;
        let lo = self.get_u16()? as u32;
        Ok(hi << 16 | lo)
    }

    /// Read `n` raw bytes.
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], DnsError> {
        if self.remaining() < n {
            return Err(DnsError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Skip `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), DnsError> {
        if self.remaining() < n {
            return Err(DnsError::Truncated);
        }
        self.pos += n;
        Ok(())
    }

    /// Read a (possibly compressed) domain name, returning its lowercase
    /// labels. The cursor advances past the name as it appears
    /// at the current position; pointer targets are followed without
    /// moving the cursor.
    pub fn get_name(&mut self) -> Result<Vec<Box<str>>, DnsError> {
        let mut labels = Vec::new();
        let mut pos = self.pos;
        let mut followed_pointer = false;
        let mut hops = 0usize;
        let mut total_len = 0usize;
        loop {
            let len = *self.data.get(pos).ok_or(DnsError::Truncated)? as usize;
            if len & 0xC0 == 0xC0 {
                // Compression pointer.
                let second = *self.data.get(pos + 1).ok_or(DnsError::Truncated)? as usize;
                let target = ((len & 0x3F) << 8) | second;
                if target >= pos {
                    return Err(DnsError::BadCompressionPointer(target as u16));
                }
                if !followed_pointer {
                    self.pos = pos + 2;
                    followed_pointer = true;
                }
                pos = target;
                hops += 1;
                if hops > MAX_POINTER_HOPS {
                    return Err(DnsError::CompressionLoop);
                }
                continue;
            }
            if len & 0xC0 != 0 {
                // 0b01/0b10 prefixes are reserved.
                return Err(DnsError::UnsupportedValue("label type", len as u32));
            }
            if len == 0 {
                if !followed_pointer {
                    self.pos = pos + 1;
                }
                return Ok(labels);
            }
            if len > 63 {
                return Err(DnsError::LabelTooLong(len));
            }
            let start = pos + 1;
            let end = start + len;
            if end > self.data.len() {
                return Err(DnsError::Truncated);
            }
            total_len += len + 1;
            if total_len > 255 {
                return Err(DnsError::NameTooLong(total_len));
            }
            let label = &self.data[start..end];
            labels.push(label_from_wire(label));
            pos = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Labels as plain strings, for comparison with expectations.
    fn strs(labels: Vec<Box<str>>) -> Vec<String> {
        labels.into_iter().map(String::from).collect()
    }

    #[test]
    fn primitive_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_slice(b"xy");
        let buf = w.finish().unwrap();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_slice(2).unwrap(), b"xy");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = WireReader::new(&[0x01]);
        assert_eq!(r.get_u16(), Err(DnsError::Truncated));
        let mut r2 = WireReader::new(&[]);
        assert_eq!(r2.get_u8(), Err(DnsError::Truncated));
    }

    #[test]
    fn name_roundtrip_without_compression() {
        let labels = vec!["www".to_string(), "example".to_string(), "com".to_string()];
        let mut w = WireWriter::new();
        w.put_name(&labels).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf, b"\x03www\x07example\x03com\x00");
        let mut r = WireReader::new(&buf);
        assert_eq!(strs(r.get_name().unwrap()), labels);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn second_name_is_compressed() {
        let a = vec!["a".to_string(), "example".to_string(), "com".to_string()];
        let b = vec!["b".to_string(), "example".to_string(), "com".to_string()];
        let mut w = WireWriter::new();
        w.put_name(&a).unwrap();
        let len_after_first = w.len();
        w.put_name(&b).unwrap();
        let buf = w.finish().unwrap();
        // Second name is label "b" (2 bytes) + pointer (2 bytes).
        assert_eq!(buf.len(), len_after_first + 4);
        let mut r = WireReader::new(&buf);
        assert_eq!(strs(r.get_name().unwrap()), a);
        assert_eq!(strs(r.get_name().unwrap()), b);
    }

    #[test]
    fn identical_name_is_a_single_pointer() {
        let a = vec!["example".to_string(), "com".to_string()];
        let mut w = WireWriter::new();
        w.put_name(&a).unwrap();
        let first = w.len();
        w.put_name(&a).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), first + 2);
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer at offset 0 pointing to offset 0 (self-loop / forward).
        let buf = [0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            r.get_name(),
            Err(DnsError::BadCompressionPointer(_))
        ));
    }

    #[test]
    fn pointer_chain_is_followed() {
        // "com" at 0, then pointer to it at 5, then "www" + pointer to 5.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"\x03com\x00"); // offset 0..5
        buf.extend_from_slice(&[0xC0, 0x00]); // offset 5: -> 0
        buf.extend_from_slice(b"\x03www");
        buf.extend_from_slice(&[0xC0, 0x05]); // -> 5 -> 0
        let mut r = WireReader::new(&buf);
        assert_eq!(strs(r.get_name().unwrap()), vec!["com".to_string()]);
        assert_eq!(strs(r.get_name().unwrap()), vec!["com".to_string()]);
        assert_eq!(
            strs(r.get_name().unwrap()),
            vec!["www".to_string(), "com".to_string()]
        );
    }

    #[test]
    fn reserved_label_type_rejected() {
        let buf = [0x80, 0x01];
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            r.get_name(),
            Err(DnsError::UnsupportedValue(_, _))
        ));
    }

    #[test]
    fn overlong_label_rejected_on_write() {
        let mut w = WireWriter::new();
        let long = vec!["x".repeat(64)];
        assert!(matches!(w.put_name(&long), Err(DnsError::LabelTooLong(64))));
    }

    #[test]
    fn patch_u16_overwrites_in_place() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(7);
        w.patch_u16(0, 0xBEEF);
        let buf = w.finish().unwrap();
        assert_eq!(buf, vec![0xBE, 0xEF, 7]);
    }

    #[test]
    fn names_are_lowercased_on_read() {
        let buf = b"\x03WwW\x03CoM\x00";
        let mut r = WireReader::new(buf);
        assert_eq!(
            strs(r.get_name().unwrap()),
            vec!["www".to_string(), "com".to_string()]
        );
    }

    #[test]
    fn non_ascii_bytes_match_the_lossy_string_path() {
        let raw: &[u8] = &[0x46, 0xff, 0x6f]; // F <invalid> o
        let expected = String::from_utf8_lossy(raw).to_ascii_lowercase();
        assert_eq!(expected, "f\u{fffd}o");
        let mut buf = vec![raw.len() as u8];
        buf.extend_from_slice(raw);
        buf.push(0);
        let mut r = WireReader::new(&buf);
        assert_eq!(strs(r.get_name().unwrap()), vec![expected]);
    }

    #[test]
    fn repeated_leading_label_does_not_false_match_mid_write() {
        // "a.a": while writing, the suffix ["a"] must not match the
        // still-unterminated ["a", "a"] recorded one label earlier.
        let mut w = WireWriter::new();
        w.put_name(&["a".to_string(), "a".to_string()]).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf, b"\x01a\x01a\x00");
        let mut r = WireReader::new(&buf);
        assert_eq!(strs(r.get_name().unwrap()), vec!["a", "a"]);
    }
}

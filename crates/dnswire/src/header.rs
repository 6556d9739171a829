//! The 12-octet DNS message header (RFC 1035 §4.1.1).

use crate::error::DnsError;
use crate::types::{Opcode, RCode};
use crate::wire::{WireReader, WireWriter};

/// The flag bits of the header's second 16-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeaderFlags {
    /// Query (false) / response (true).
    pub qr: bool,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated (response exceeded transport size).
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authentic data (DNSSEC, RFC 4035).
    pub ad: bool,
    /// Checking disabled (DNSSEC).
    pub cd: bool,
}

/// A decoded header with section counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction id.
    pub id: u16,
    /// Flag bits.
    pub flags: HeaderFlags,
    /// Operation code.
    pub opcode: Opcode,
    /// Response code.
    pub rcode: RCode,
    /// Question count.
    pub qdcount: u16,
    /// Answer count.
    pub ancount: u16,
    /// Authority count.
    pub nscount: u16,
    /// Additional count.
    pub arcount: u16,
}

impl Header {
    /// A recursive query header.
    pub fn new_query(id: u16) -> Self {
        Header {
            id,
            flags: HeaderFlags {
                rd: true,
                ..HeaderFlags::default()
            },
            opcode: Opcode::Query,
            rcode: RCode::NoError,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
        }
    }

    /// A response header answering a query: copies id/opcode/rd, sets qr/ra.
    pub fn new_response(query: &Header, rcode: RCode) -> Self {
        Header {
            id: query.id,
            flags: HeaderFlags {
                qr: true,
                rd: query.flags.rd,
                ra: true,
                ..HeaderFlags::default()
            },
            opcode: query.opcode,
            rcode,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
        }
    }

    /// Encode the 12 octets.
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.id);
        let mut word: u16 = 0;
        if self.flags.qr {
            word |= 1 << 15;
        }
        word |= (self.opcode.to_u8() as u16 & 0x0F) << 11;
        if self.flags.aa {
            word |= 1 << 10;
        }
        if self.flags.tc {
            word |= 1 << 9;
        }
        if self.flags.rd {
            word |= 1 << 8;
        }
        if self.flags.ra {
            word |= 1 << 7;
        }
        if self.flags.ad {
            word |= 1 << 5;
        }
        if self.flags.cd {
            word |= 1 << 4;
        }
        word |= self.rcode.to_u8() as u16 & 0x0F;
        w.put_u16(word);
        w.put_u16(self.qdcount);
        w.put_u16(self.ancount);
        w.put_u16(self.nscount);
        w.put_u16(self.arcount);
    }

    /// Decode 12 octets from the reader.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, DnsError> {
        let id = r.get_u16()?;
        let word = r.get_u16()?;
        let flags = HeaderFlags {
            qr: word & (1 << 15) != 0,
            aa: word & (1 << 10) != 0,
            tc: word & (1 << 9) != 0,
            rd: word & (1 << 8) != 0,
            ra: word & (1 << 7) != 0,
            ad: word & (1 << 5) != 0,
            cd: word & (1 << 4) != 0,
        };
        let opcode = Opcode::from_u8(((word >> 11) & 0x0F) as u8);
        let rcode = RCode::from_u8((word & 0x0F) as u8);
        Ok(Header {
            id,
            flags,
            opcode,
            rcode,
            qdcount: r.get_u16()?,
            ancount: r.get_u16()?,
            nscount: r.get_u16()?,
            arcount: r.get_u16()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(h: Header) -> Header {
        let mut w = WireWriter::new();
        h.encode(&mut w);
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), 12);
        Header::decode(&mut WireReader::new(&buf)).unwrap()
    }

    #[test]
    fn query_header_roundtrip() {
        let h = Header::new_query(0xABCD);
        let d = roundtrip(h);
        assert_eq!(d, h);
        assert!(d.flags.rd);
        assert!(!d.flags.qr);
    }

    #[test]
    fn response_header_copies_identity() {
        let q = Header::new_query(42);
        let r = Header::new_response(&q, RCode::NxDomain);
        assert_eq!(r.id, 42);
        assert!(r.flags.qr);
        assert!(r.flags.ra);
        assert!(r.flags.rd);
        assert_eq!(r.rcode, RCode::NxDomain);
        let d = roundtrip(r);
        assert_eq!(d, r);
    }

    #[test]
    fn all_flags_roundtrip() {
        let mut h = Header::new_query(7);
        h.flags = HeaderFlags {
            qr: true,
            aa: true,
            tc: true,
            rd: true,
            ra: true,
            ad: true,
            cd: true,
        };
        h.rcode = RCode::Refused;
        h.qdcount = 1;
        h.ancount = 2;
        h.nscount = 3;
        h.arcount = 4;
        assert_eq!(roundtrip(h), h);
    }

    #[test]
    fn truncated_header_errors() {
        let buf = [0u8; 11];
        assert!(Header::decode(&mut WireReader::new(&buf)).is_err());
    }

    #[test]
    fn known_wire_bytes() {
        // id=1, RD query with one question.
        let mut h = Header::new_query(1);
        h.qdcount = 1;
        let mut w = WireWriter::new();
        h.encode(&mut w);
        let buf = w.finish().unwrap();
        assert_eq!(buf, vec![0, 1, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0]);
    }
}

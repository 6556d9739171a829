//! Questions and resource records.

use crate::error::DnsError;
use crate::name::DnsName;
use crate::rdata::RData;
use crate::types::{RecordClass, RecordType};
use crate::wire::{WireReader, WireWriter};

/// A question section entry (RFC 1035 §4.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub qname: DnsName,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class (almost always IN).
    pub qclass: RecordClass,
}

impl Question {
    /// An IN-class question.
    pub fn new(qname: DnsName, qtype: RecordType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RecordClass::In,
        }
    }

    /// Encode with name compression.
    pub fn encode(&self, w: &mut WireWriter) -> Result<(), DnsError> {
        w.put_name(self.qname.labels())?;
        w.put_u16(self.qtype.to_u16());
        w.put_u16(self.qclass.to_u16());
        Ok(())
    }

    /// Decode one question.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, DnsError> {
        let labels = r.get_name()?;
        let qname = DnsName::from_labels_unchecked(labels);
        let qtype = RecordType::from_u16(r.get_u16()?);
        let qclass = RecordClass::from_u16(r.get_u16()?);
        Ok(Question {
            qname,
            qtype,
            qclass,
        })
    }
}

/// A resource record (RFC 1035 §4.1.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: DnsName,
    /// Record type. Usually `rdata.natural_type()`, but kept explicit so
    /// unknown types decode losslessly.
    pub rtype: RecordType,
    /// Record class.
    pub rclass: RecordClass,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed payload.
    pub rdata: RData,
}

impl ResourceRecord {
    /// An IN-class record whose type is derived from the payload.
    pub fn new(name: DnsName, ttl: u32, rdata: RData) -> Self {
        let rtype = rdata.natural_type().unwrap_or(RecordType::Unknown(0));
        ResourceRecord {
            name,
            rtype,
            rclass: RecordClass::In,
            ttl,
            rdata,
        }
    }

    /// Encode: owner name (compressed), type, class, TTL, then RDATA with a
    /// back-patched RDLENGTH.
    pub fn encode(&self, w: &mut WireWriter) -> Result<(), DnsError> {
        w.put_name(self.name.labels())?;
        w.put_u16(self.rtype.to_u16());
        w.put_u16(self.rclass.to_u16());
        w.put_u32(self.ttl);
        let len_at = w.len();
        w.put_u16(0); // placeholder RDLENGTH
        let before = w.len();
        self.rdata.encode(w)?;
        let rdlen = w.len() - before;
        if rdlen > u16::MAX as usize {
            return Err(DnsError::MessageTooLong(rdlen));
        }
        w.patch_u16(len_at, rdlen as u16);
        Ok(())
    }

    /// Decode one record.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, DnsError> {
        let labels = r.get_name()?;
        let name = DnsName::from_labels_unchecked(labels);
        let rtype = RecordType::from_u16(r.get_u16()?);
        let rclass = RecordClass::from_u16(r.get_u16()?);
        let ttl = r.get_u32()?;
        let rdlen = r.get_u16()? as usize;
        if r.remaining() < rdlen {
            return Err(DnsError::Truncated);
        }
        let rdata = RData::decode(r, rtype, rdlen)?;
        Ok(ResourceRecord {
            name,
            rtype,
            rclass,
            ttl,
            rdata,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn question_roundtrip() {
        let q = Question::new(DnsName::parse("uuid.a.com").unwrap(), RecordType::A);
        let mut w = WireWriter::new();
        q.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let d = Question::decode(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(d, q);
    }

    #[test]
    fn record_roundtrip() {
        let rr = ResourceRecord::new(
            DnsName::parse("uuid.a.com").unwrap(),
            300,
            RData::A(Ipv4Addr::new(203, 0, 113, 7)),
        );
        let mut w = WireWriter::new();
        rr.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let d = ResourceRecord::decode(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(d, rr);
    }

    #[test]
    fn rdlength_is_backpatched_correctly() {
        let rr = ResourceRecord::new(
            DnsName::parse("x.y").unwrap(),
            60,
            RData::Txt(vec!["abc".into()]),
        );
        let mut w = WireWriter::new();
        rr.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        // name: 1x 1y 0 = 5 bytes (0x01 x 0x01 y 0x00), type 2, class 2, ttl 4 -> rdlength at 13.
        let rdlen = u16::from_be_bytes([buf[13], buf[14]]);
        assert_eq!(rdlen as usize, 4); // 1 length octet + "abc"
    }

    #[test]
    fn record_with_compressed_owner_decodes() {
        // Two records sharing a suffix; second owner is compressed.
        let rr1 = ResourceRecord::new(
            DnsName::parse("a.example.com").unwrap(),
            60,
            RData::A(Ipv4Addr::new(1, 1, 1, 1)),
        );
        let rr2 = ResourceRecord::new(
            DnsName::parse("b.example.com").unwrap(),
            60,
            RData::A(Ipv4Addr::new(2, 2, 2, 2)),
        );
        let mut w = WireWriter::new();
        rr1.encode(&mut w).unwrap();
        rr2.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let mut r = WireReader::new(&buf);
        assert_eq!(ResourceRecord::decode(&mut r).unwrap(), rr1);
        assert_eq!(ResourceRecord::decode(&mut r).unwrap(), rr2);
    }

    #[test]
    fn truncated_record_errors() {
        let rr = ResourceRecord::new(
            DnsName::parse("a.com").unwrap(),
            60,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        );
        let mut w = WireWriter::new();
        rr.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        for cut in 1..buf.len() {
            assert!(
                ResourceRecord::decode(&mut WireReader::new(&buf[..cut])).is_err(),
                "cut at {cut} should fail"
            );
        }
    }
}

//! Typed RDATA payloads.

use crate::error::DnsError;
use crate::name::DnsName;
use crate::types::RecordType;
use crate::wire::{WireReader, WireWriter};
use std::net::{Ipv4Addr, Ipv6Addr};

/// SOA record fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaData {
    /// Primary name server.
    pub mname: DnsName,
    /// Responsible mailbox.
    pub rname: DnsName,
    /// Zone serial.
    pub serial: u32,
    /// Refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expire limit, seconds.
    pub expire: u32,
    /// Negative-caching TTL, seconds.
    pub minimum: u32,
}

/// A decoded RDATA payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Name server.
    Ns(DnsName),
    /// Canonical name.
    Cname(DnsName),
    /// Pointer.
    Ptr(DnsName),
    /// Mail exchange (preference, host).
    Mx(u16, DnsName),
    /// Text segments (each at most 255 octets).
    Txt(Vec<String>),
    /// Start of authority.
    Soa(SoaData),
    /// Opaque payload for unimplemented types.
    Unknown(Vec<u8>),
}

impl RData {
    /// The record type this payload corresponds to (Unknown maps to the
    /// caller-supplied type at the record layer).
    pub fn natural_type(&self) -> Option<RecordType> {
        match self {
            RData::A(_) => Some(RecordType::A),
            RData::Aaaa(_) => Some(RecordType::Aaaa),
            RData::Ns(_) => Some(RecordType::Ns),
            RData::Cname(_) => Some(RecordType::Cname),
            RData::Ptr(_) => Some(RecordType::Ptr),
            RData::Mx(_, _) => Some(RecordType::Mx),
            RData::Txt(_) => Some(RecordType::Txt),
            RData::Soa(_) => Some(RecordType::Soa),
            RData::Unknown(_) => None,
        }
    }

    /// Encode the payload (without the RDLENGTH prefix; the record layer
    /// back-patches that).
    ///
    /// Note: names inside RDATA are written *without* compression, matching
    /// RFC 3597's requirement for forward compatibility.
    pub fn encode(&self, w: &mut WireWriter) -> Result<(), DnsError> {
        match self {
            RData::A(ip) => w.put_slice(&ip.octets()),
            RData::Aaaa(ip) => w.put_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => {
                encode_name_uncompressed(w, n)?;
            }
            RData::Mx(pref, n) => {
                w.put_u16(*pref);
                encode_name_uncompressed(w, n)?;
            }
            RData::Txt(segments) => {
                for seg in segments {
                    let bytes = seg.as_bytes();
                    if bytes.len() > 255 {
                        return Err(DnsError::TxtSegmentTooLong(bytes.len()));
                    }
                    w.put_u8(bytes.len() as u8);
                    w.put_slice(bytes);
                }
            }
            RData::Soa(soa) => {
                encode_name_uncompressed(w, &soa.mname)?;
                encode_name_uncompressed(w, &soa.rname)?;
                w.put_u32(soa.serial);
                w.put_u32(soa.refresh);
                w.put_u32(soa.retry);
                w.put_u32(soa.expire);
                w.put_u32(soa.minimum);
            }
            RData::Unknown(bytes) => w.put_slice(bytes),
        }
        Ok(())
    }

    /// Decode a payload of `len` octets of the given type. The reader must
    /// be positioned at the start of the RDATA.
    pub fn decode(r: &mut WireReader<'_>, rtype: RecordType, len: usize) -> Result<Self, DnsError> {
        let end = r.position() + len;
        let out = match rtype {
            RecordType::A => {
                let o = r.get_slice(4)?;
                RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RecordType::Aaaa => {
                let o = r.get_slice(16)?;
                let mut a = [0u8; 16];
                a.copy_from_slice(o);
                RData::Aaaa(Ipv6Addr::from(a))
            }
            RecordType::Ns => RData::Ns(read_name(r)?),
            RecordType::Cname => RData::Cname(read_name(r)?),
            RecordType::Ptr => RData::Ptr(read_name(r)?),
            RecordType::Mx => {
                let pref = r.get_u16()?;
                RData::Mx(pref, read_name(r)?)
            }
            RecordType::Txt => {
                let mut segments = Vec::new();
                while r.position() < end {
                    let slen = r.get_u8()? as usize;
                    let bytes = r.get_slice(slen)?;
                    segments.push(String::from_utf8_lossy(bytes).into_owned());
                }
                RData::Txt(segments)
            }
            RecordType::Soa => {
                let mname = read_name(r)?;
                let rname = read_name(r)?;
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial: r.get_u32()?,
                    refresh: r.get_u32()?,
                    retry: r.get_u32()?,
                    expire: r.get_u32()?,
                    minimum: r.get_u32()?,
                })
            }
            _ => RData::Unknown(r.get_slice(len)?.to_vec()),
        };
        if r.position() != end {
            return Err(DnsError::RdataLengthMismatch {
                declared: len,
                actual: len - (end - r.position()),
            });
        }
        Ok(out)
    }
}

fn read_name(r: &mut WireReader<'_>) -> Result<DnsName, DnsError> {
    Ok(DnsName::from_labels_unchecked(r.get_name()?))
}

fn encode_name_uncompressed(w: &mut WireWriter, name: &DnsName) -> Result<(), DnsError> {
    for label in name.labels() {
        let bytes = label.as_bytes();
        if bytes.len() > 63 {
            return Err(DnsError::LabelTooLong(bytes.len()));
        }
        w.put_u8(bytes.len() as u8);
        w.put_slice(bytes);
    }
    w.put_u8(0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rd: &RData, rtype: RecordType) -> RData {
        let mut w = WireWriter::new();
        rd.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        RData::decode(&mut WireReader::new(&buf), rtype, buf.len()).unwrap()
    }

    #[test]
    fn a_record_roundtrip() {
        let rd = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(roundtrip(&rd, RecordType::A), rd);
    }

    #[test]
    fn aaaa_record_roundtrip() {
        let rd = RData::Aaaa("2001:db8::1".parse().unwrap());
        assert_eq!(roundtrip(&rd, RecordType::Aaaa), rd);
    }

    #[test]
    fn name_records_roundtrip() {
        let name = DnsName::parse("ns1.example.com").unwrap();
        for rd in [
            RData::Ns(name.clone()),
            RData::Cname(name.clone()),
            RData::Ptr(name.clone()),
        ] {
            let rtype = rd.natural_type().unwrap();
            assert_eq!(roundtrip(&rd, rtype), rd);
        }
    }

    #[test]
    fn mx_roundtrip() {
        let rd = RData::Mx(10, DnsName::parse("mail.example.com").unwrap());
        assert_eq!(roundtrip(&rd, RecordType::Mx), rd);
    }

    #[test]
    fn txt_roundtrip_multiple_segments() {
        let rd = RData::Txt(vec!["hello".into(), "world".into(), String::new()]);
        assert_eq!(roundtrip(&rd, RecordType::Txt), rd);
    }

    #[test]
    fn txt_segment_too_long_rejected() {
        let rd = RData::Txt(vec!["x".repeat(256)]);
        let mut w = WireWriter::new();
        assert!(matches!(
            rd.encode(&mut w),
            Err(DnsError::TxtSegmentTooLong(256))
        ));
    }

    #[test]
    fn soa_roundtrip() {
        let rd = RData::Soa(SoaData {
            mname: DnsName::parse("ns1.a.com").unwrap(),
            rname: DnsName::parse("hostmaster.a.com").unwrap(),
            serial: 20_210_501,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        });
        assert_eq!(roundtrip(&rd, RecordType::Soa), rd);
    }

    #[test]
    fn unknown_type_preserved_as_bytes() {
        let rd = RData::Unknown(vec![1, 2, 3, 4, 5]);
        assert_eq!(roundtrip(&rd, RecordType::Unknown(999)), rd);
    }

    #[test]
    fn declared_length_mismatch_detected() {
        // A record declared as 5 bytes.
        let buf = [192, 0, 2, 1, 99];
        let err = RData::decode(&mut WireReader::new(&buf), RecordType::A, 5);
        assert!(matches!(err, Err(DnsError::RdataLengthMismatch { .. })));
    }

    #[test]
    fn truncated_rdata_errors() {
        let buf = [192, 0];
        assert!(RData::decode(&mut WireReader::new(&buf), RecordType::A, 4).is_err());
    }
}

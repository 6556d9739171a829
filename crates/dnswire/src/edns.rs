//! EDNS(0) — RFC 6891.
//!
//! The OPT pseudo-record rides in the additional section and carries the
//! requester's UDP payload size, an extended RCODE, and a version field,
//! all packed into the owner/class/TTL fields of a normal RR. Every
//! modern resolver (and all four DoH providers) negotiates EDNS, so the
//! wire implementation supports it even though the simulated measurements
//! only need vanilla queries.

use crate::error::DnsError;
use crate::message::Message;
use crate::name::DnsName;
use crate::rdata::RData;
use crate::record::ResourceRecord;
use crate::types::{RecordClass, RecordType};

/// Default EDNS buffer size advertised by this implementation (a common
/// middle ground that avoids fragmentation).
pub const DEFAULT_UDP_PAYLOAD_SIZE: u16 = 1232;

/// Decoded EDNS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdnsOptions {
    /// Requester's maximum UDP payload size (lives in the CLASS field).
    pub udp_payload_size: u16,
    /// Upper 8 bits of the extended RCODE (TTL byte 0).
    pub extended_rcode: u8,
    /// EDNS version (TTL byte 1); only version 0 exists.
    pub version: u8,
    /// The DO bit — DNSSEC OK (TTL bit 15 of the lower half).
    pub dnssec_ok: bool,
}

impl Default for EdnsOptions {
    fn default() -> Self {
        EdnsOptions {
            udp_payload_size: DEFAULT_UDP_PAYLOAD_SIZE,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
        }
    }
}

impl EdnsOptions {
    /// Render as an OPT resource record.
    pub fn to_record(&self) -> ResourceRecord {
        let mut ttl: u32 = (self.extended_rcode as u32) << 24;
        ttl |= (self.version as u32) << 16;
        if self.dnssec_ok {
            ttl |= 1 << 15;
        }
        ResourceRecord {
            name: DnsName::root(),
            rtype: RecordType::Opt,
            rclass: RecordClass::Unknown(self.udp_payload_size),
            ttl,
            rdata: RData::Unknown(Vec::new()),
        }
    }

    /// Parse from an OPT record. Rejects non-OPT records and non-zero
    /// EDNS versions (RFC 6891 §6.1.3 requires BADVERS handling, which
    /// the caller implements).
    pub fn from_record(rr: &ResourceRecord) -> Result<EdnsOptions, DnsError> {
        if rr.rtype != RecordType::Opt {
            return Err(DnsError::UnsupportedValue(
                "OPT rtype",
                rr.rtype.to_u16() as u32,
            ));
        }
        let version = ((rr.ttl >> 16) & 0xFF) as u8;
        if version != 0 {
            return Err(DnsError::UnsupportedValue("EDNS version", version as u32));
        }
        Ok(EdnsOptions {
            udp_payload_size: rr.rclass.to_u16(),
            extended_rcode: ((rr.ttl >> 24) & 0xFF) as u8,
            version,
            dnssec_ok: rr.ttl & (1 << 15) != 0,
        })
    }
}

/// Attach EDNS to a query (idempotent: replaces any existing OPT).
pub fn add_edns(message: &mut Message, options: EdnsOptions) {
    message.additionals.retain(|rr| rr.rtype != RecordType::Opt);
    message.additionals.push(options.to_record());
}

/// Extract EDNS options from a message, if present.
pub fn edns_of(message: &Message) -> Option<Result<EdnsOptions, DnsError>> {
    message
        .additionals
        .iter()
        .find(|rr| rr.rtype == RecordType::Opt)
        .map(EdnsOptions::from_record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RecordType as RT;

    #[test]
    fn edns_roundtrips_through_the_wire() {
        let mut q = Message::query(1, DnsName::parse("x.a.com").unwrap(), RT::A);
        add_edns(
            &mut q,
            EdnsOptions {
                udp_payload_size: 4096,
                extended_rcode: 0,
                version: 0,
                dnssec_ok: true,
            },
        );
        let wire = q.encode().unwrap();
        let decoded = Message::decode(&wire).unwrap();
        let opts = edns_of(&decoded).expect("OPT present").unwrap();
        assert_eq!(opts.udp_payload_size, 4096);
        assert!(opts.dnssec_ok);
        assert_eq!(opts.version, 0);
    }

    #[test]
    fn add_edns_is_idempotent() {
        let mut q = Message::query(2, DnsName::parse("x.a.com").unwrap(), RT::A);
        add_edns(&mut q, EdnsOptions::default());
        add_edns(
            &mut q,
            EdnsOptions {
                udp_payload_size: 512,
                ..EdnsOptions::default()
            },
        );
        let opts: Vec<_> = q
            .additionals
            .iter()
            .filter(|rr| rr.rtype == RT::Opt)
            .collect();
        assert_eq!(opts.len(), 1);
        assert_eq!(edns_of(&q).unwrap().unwrap().udp_payload_size, 512);
    }

    #[test]
    fn missing_edns_is_none() {
        let q = Message::query(3, DnsName::parse("x.a.com").unwrap(), RT::A);
        assert!(edns_of(&q).is_none());
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut rr = EdnsOptions::default().to_record();
        rr.ttl |= 1 << 16; // version 1
        assert!(EdnsOptions::from_record(&rr).is_err());
    }

    #[test]
    fn non_opt_record_rejected() {
        let rr = ResourceRecord::new(
            DnsName::parse("a.com").unwrap(),
            60,
            RData::A(std::net::Ipv4Addr::new(1, 2, 3, 4)),
        );
        assert!(EdnsOptions::from_record(&rr).is_err());
    }

    #[test]
    fn extended_rcode_packs_into_ttl() {
        let opts = EdnsOptions {
            extended_rcode: 0xAB,
            ..EdnsOptions::default()
        };
        let rr = opts.to_record();
        assert_eq!((rr.ttl >> 24) & 0xFF, 0xAB);
        assert_eq!(EdnsOptions::from_record(&rr).unwrap().extended_rcode, 0xAB);
    }
}

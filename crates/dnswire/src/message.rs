//! Full DNS messages.

use crate::error::DnsError;
use crate::header::Header;
use crate::name::DnsName;
use crate::pool::PooledBuf;
use crate::rdata::RData;
use crate::record::{Question, ResourceRecord};
use crate::types::{RCode, RecordType};
use crate::wire::{WireReader, WireWriter};
use bytes::BytesMut;
use std::net::Ipv4Addr;

/// A complete DNS message: header plus four sections.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Message header. Section counts are recomputed at encode time.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authorities: Vec<ResourceRecord>,
    /// Additional section.
    pub additionals: Vec<ResourceRecord>,
}

impl Message {
    /// Build a standard recursive query for `name`/`rtype`. The name is
    /// taken by value; callers that still need theirs clone explicitly.
    pub fn query(id: u16, name: DnsName, rtype: RecordType) -> Self {
        let mut header = Header::new_query(id);
        header.qdcount = 1;
        Message {
            header,
            questions: vec![Question::new(name, rtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Build a response to `query` with the given answers. The question
    /// section is echoed per convention.
    pub fn response(query: &Message, rcode: RCode, answers: Vec<ResourceRecord>) -> Self {
        let header = Header::new_response(&query.header, rcode);
        Message {
            header,
            questions: query.questions.clone(),
            answers,
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Shorthand: an A-record answer to `query`'s first question.
    pub fn answer_a(query: &Message, ip: Ipv4Addr, ttl: u32) -> Self {
        let name = query
            .questions
            .first()
            .map(|q| q.qname.clone())
            .unwrap_or_else(DnsName::root);
        Message::response(
            query,
            RCode::NoError,
            vec![ResourceRecord::new(name, ttl, RData::A(ip))],
        )
    }

    /// The first question, if present.
    pub fn first_question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// First A answer, if any.
    pub fn first_a(&self) -> Option<Ipv4Addr> {
        self.answers.iter().find_map(|rr| match rr.rdata {
            RData::A(ip) => Some(ip),
            _ => None,
        })
    }

    /// Encode the message, recomputing section counts.
    pub fn encode(&self) -> Result<Vec<u8>, DnsError> {
        let mut w = WireWriter::new();
        self.encode_with(&mut w)?;
        w.finish()
    }

    /// Encode into a caller-provided buffer, reusing its capacity. The
    /// buffer is cleared first and holds exactly the encoded message on
    /// return; on error its contents are unspecified.
    pub fn encode_into(&self, buf: &mut BytesMut) -> Result<(), DnsError> {
        let mut w = WireWriter::with_buf(std::mem::take(buf));
        self.encode_with(&mut w)?;
        *buf = w.into_buf()?;
        Ok(())
    }

    /// Encode into a per-thread pooled buffer (see [`crate::pool`]); the
    /// buffer recycles when the returned handle drops.
    pub fn encode_pooled(&self) -> Result<PooledBuf, DnsError> {
        let mut w = WireWriter::pooled();
        self.encode_with(&mut w)?;
        w.finish_pooled()
    }

    fn encode_with(&self, w: &mut WireWriter) -> Result<(), DnsError> {
        let mut header = self.header;
        header.qdcount = u16::try_from(self.questions.len())
            .map_err(|_| DnsError::MessageTooLong(self.questions.len()))?;
        header.ancount = u16::try_from(self.answers.len())
            .map_err(|_| DnsError::MessageTooLong(self.answers.len()))?;
        header.nscount = u16::try_from(self.authorities.len())
            .map_err(|_| DnsError::MessageTooLong(self.authorities.len()))?;
        header.arcount = u16::try_from(self.additionals.len())
            .map_err(|_| DnsError::MessageTooLong(self.additionals.len()))?;
        header.encode(w);
        for q in &self.questions {
            q.encode(w)?;
        }
        for rr in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            rr.encode(w)?;
        }
        Ok(())
    }

    /// Decode a complete message.
    pub fn decode(buf: &[u8]) -> Result<Self, DnsError> {
        let decoded = Self::decode_inner(buf);
        if decoded.is_err() {
            dohperf_telemetry::counter!("dnswire.parse_failures").inc();
        }
        decoded
    }

    fn decode_inner(buf: &[u8]) -> Result<Self, DnsError> {
        let mut r = WireReader::new(buf);
        let header = Header::decode(&mut r)?;
        let mut questions = Vec::with_capacity(header.qdcount as usize);
        for _ in 0..header.qdcount {
            questions.push(Question::decode(&mut r)?);
        }
        let mut read_section = |count: u16| -> Result<Vec<ResourceRecord>, DnsError> {
            let mut v = Vec::with_capacity(count as usize);
            for _ in 0..count {
                v.push(ResourceRecord::decode(&mut r)?);
            }
            Ok(v)
        };
        let answers = read_section(header.ancount)?;
        let authorities = read_section(header.nscount)?;
        let additionals = read_section(header.arcount)?;
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Conventional maximum UDP payload without EDNS (RFC 1035 §4.2.1).
    const CLASSIC_UDP_LIMIT: usize = 512;

    fn sample_query() -> Message {
        Message::query(
            0x4242,
            DnsName::parse("e4b1c2d3.a.com").unwrap(),
            RecordType::A,
        )
    }

    #[test]
    fn encode_into_and_pooled_match_encode() {
        let q = sample_query();
        let plain = q.encode().unwrap();
        let mut buf = bytes::BytesMut::new();
        q.encode_into(&mut buf).unwrap();
        assert_eq!(&buf[..], &plain[..]);
        // Reuse the same buffer for a different message.
        let resp = Message::answer_a(&q, Ipv4Addr::new(5, 6, 7, 8), 60);
        resp.encode_into(&mut buf).unwrap();
        assert_eq!(&buf[..], &resp.encode().unwrap()[..]);
        let pooled = q.encode_pooled().unwrap();
        assert_eq!(&pooled[..], &plain[..]);
    }

    #[test]
    fn query_roundtrip() {
        let q = sample_query();
        let buf = q.encode().unwrap();
        let d = Message::decode(&buf).unwrap();
        assert_eq!(d.header.id, 0x4242);
        assert_eq!(d.questions, q.questions);
        assert!(d.answers.is_empty());
        assert!(!d.header.flags.qr);
    }

    #[test]
    fn response_roundtrip_with_all_sections() {
        let q = sample_query();
        let mut resp = Message::answer_a(&q, Ipv4Addr::new(203, 0, 113, 9), 300);
        resp.authorities.push(ResourceRecord::new(
            DnsName::parse("a.com").unwrap(),
            3600,
            RData::Ns(DnsName::parse("ns1.a.com").unwrap()),
        ));
        resp.additionals.push(ResourceRecord::new(
            DnsName::parse("ns1.a.com").unwrap(),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 1)),
        ));
        let buf = resp.encode().unwrap();
        let d = Message::decode(&buf).unwrap();
        assert_eq!(d.header.ancount, 1);
        assert_eq!(d.header.nscount, 1);
        assert_eq!(d.header.arcount, 1);
        assert_eq!(d.answers, resp.answers);
        assert_eq!(d.authorities, resp.authorities);
        assert_eq!(d.additionals, resp.additionals);
        assert_eq!(d.first_a(), Some(Ipv4Addr::new(203, 0, 113, 9)));
    }

    #[test]
    fn counts_recomputed_on_encode() {
        let mut q = sample_query();
        q.header.qdcount = 99; // wrong on purpose
        let buf = q.encode().unwrap();
        let d = Message::decode(&buf).unwrap();
        assert_eq!(d.header.qdcount, 1);
    }

    #[test]
    fn compression_shrinks_response() {
        let q = sample_query();
        let resp = Message::answer_a(&q, Ipv4Addr::new(1, 2, 3, 4), 300);
        let buf = resp.encode().unwrap();
        // Without compression the owner name would repeat (16 bytes); with
        // compression it is a 2-byte pointer.
        let q_len = q.encode().unwrap().len();
        assert!(buf.len() < q_len + 2 + 2 + 2 + 4 + 2 + 4 + 10);
    }

    #[test]
    fn classic_udp_query_fits() {
        let q = sample_query();
        assert!(q.encode().unwrap().len() <= CLASSIC_UDP_LIMIT);
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let q = sample_query();
        let resp = Message::answer_a(&q, Ipv4Addr::new(9, 9, 9, 9), 60);
        let buf = resp.encode().unwrap();
        for cut in 0..buf.len() {
            assert!(Message::decode(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn answer_a_echoes_question_name() {
        let q = sample_query();
        let resp = Message::answer_a(&q, Ipv4Addr::new(7, 7, 7, 7), 1);
        assert_eq!(resp.answers[0].name, q.questions[0].qname);
        assert_eq!(resp.questions, q.questions);
        assert!(resp.header.flags.qr);
    }
}

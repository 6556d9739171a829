//! A miniature authoritative zone.

use dohperf_dns::message::Message;
use dohperf_dns::name::DnsName;
use dohperf_dns::rdata::RData;
use dohperf_dns::record::ResourceRecord;
use dohperf_dns::types::{RCode, RecordType};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock};

/// A thread-safe name → A-record map with wildcard support for the
/// measurement zone (`*.a.com` answers any UUID subdomain, as the
/// paper's authoritative server does).
#[derive(Debug, Clone, Default)]
pub struct Zone {
    inner: Arc<RwLock<ZoneInner>>,
}

#[derive(Debug, Default)]
struct ZoneInner {
    exact: HashMap<DnsName, Ipv4Addr>,
    wildcards: HashMap<DnsName, Ipv4Addr>,
    queries_served: u64,
}

impl Zone {
    /// An empty zone.
    pub fn new() -> Self {
        Zone::default()
    }

    /// Add an exact A record.
    pub fn insert(&self, name: &str, ip: Ipv4Addr) {
        let name = DnsName::parse(name).expect("valid zone name");
        self.inner.write().unwrap().exact.insert(name, ip);
    }

    /// Add a wildcard: any subdomain of `suffix` resolves to `ip`.
    pub fn insert_wildcard(&self, suffix: &str, ip: Ipv4Addr) {
        let name = DnsName::parse(suffix).expect("valid zone suffix");
        self.inner.write().unwrap().wildcards.insert(name, ip);
    }

    /// Look up a name.
    pub fn lookup(&self, name: &DnsName) -> Option<Ipv4Addr> {
        let inner = self.inner.read().unwrap();
        if let Some(&ip) = inner.exact.get(name) {
            return Some(ip);
        }
        inner
            .wildcards
            .iter()
            .find(|(suffix, _)| name.is_subdomain_of(suffix))
            .map(|(_, &ip)| ip)
    }

    /// Answer a query message: A answers for known names, NXDOMAIN
    /// otherwise, NOTIMP for non-A/AAAA queries.
    pub fn answer(&self, query: &Message) -> Message {
        self.inner.write().unwrap().queries_served += 1;
        let Some(question) = query.first_question() else {
            return Message::response(query, RCode::FormErr, Vec::new());
        };
        match question.qtype {
            RecordType::A => match self.lookup(&question.qname) {
                Some(ip) => {
                    let rr = ResourceRecord::new(question.qname.clone(), 60, RData::A(ip));
                    let mut resp = Message::response(query, RCode::NoError, vec![rr]);
                    resp.header.flags.aa = true;
                    resp
                }
                None => Message::response(query, RCode::NxDomain, Vec::new()),
            },
            RecordType::Aaaa => Message::response(query, RCode::NoError, Vec::new()),
            _ => Message::response(query, RCode::NotImp, Vec::new()),
        }
    }

    /// Total queries served since creation.
    pub fn queries_served(&self) -> u64 {
        self.inner.read().unwrap().queries_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_dns::message::Message;

    #[test]
    fn exact_and_wildcard_lookup() {
        let zone = Zone::new();
        zone.insert("www.a.com", Ipv4Addr::new(192, 0, 2, 1));
        zone.insert_wildcard("a.com", Ipv4Addr::new(192, 0, 2, 9));
        let www = DnsName::parse("www.a.com").unwrap();
        let uuid = DnsName::parse("deadbeef.a.com").unwrap();
        let other = DnsName::parse("example.net").unwrap();
        assert_eq!(zone.lookup(&www), Some(Ipv4Addr::new(192, 0, 2, 1)));
        assert_eq!(zone.lookup(&uuid), Some(Ipv4Addr::new(192, 0, 2, 9)));
        assert_eq!(zone.lookup(&other), None);
    }

    #[test]
    fn answers_are_authoritative() {
        let zone = Zone::new();
        zone.insert_wildcard("a.com", Ipv4Addr::new(203, 0, 113, 5));
        let q = Message::query(7, DnsName::parse("x1.a.com").unwrap(), RecordType::A);
        let resp = zone.answer(&q);
        assert_eq!(resp.header.rcode, RCode::NoError);
        assert!(resp.header.flags.aa);
        assert_eq!(resp.first_a(), Some(Ipv4Addr::new(203, 0, 113, 5)));
        assert_eq!(zone.queries_served(), 1);
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let zone = Zone::new();
        let q = Message::query(8, DnsName::parse("nope.example").unwrap(), RecordType::A);
        assert_eq!(zone.answer(&q).header.rcode, RCode::NxDomain);
    }

    #[test]
    fn unsupported_type_is_notimp() {
        let zone = Zone::new();
        let q = Message::query(9, DnsName::parse("a.com").unwrap(), RecordType::Mx);
        assert_eq!(zone.answer(&q).header.rcode, RCode::NotImp);
    }

    #[test]
    fn aaaa_gets_empty_noerror() {
        let zone = Zone::new();
        zone.insert_wildcard("a.com", Ipv4Addr::new(1, 2, 3, 4));
        let q = Message::query(10, DnsName::parse("x.a.com").unwrap(), RecordType::Aaaa);
        let resp = zone.answer(&q);
        assert_eq!(resp.header.rcode, RCode::NoError);
        assert!(resp.answers.is_empty());
    }
}

//! Property-based tests: encode/decode roundtrips over arbitrary inputs and
//! decoder robustness against fuzz bytes.

use dohperf_dns::base64url;
use dohperf_dns::prelude::*;
use dohperf_dns::rdata::SoaData;
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

/// A valid DNS label: 1-15 LDH characters.
fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,13}[a-z0-9])?").unwrap()
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 1..6)
        .prop_map(|labels| DnsName::parse(&labels.join(".")).expect("generated labels are valid"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(p, n)| RData::Mx(p, n)),
        proptest::collection::vec("[ -~]{0,40}", 0..4).prop_map(RData::Txt),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(m, r, s, re, rt, e, mi)| RData::Soa(SoaData {
                mname: m,
                rname: r,
                serial: s,
                refresh: re,
                retry: rt,
                expire: e,
                minimum: mi,
            })),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), any::<u32>(), arb_rdata())
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        proptest::collection::vec(arb_record(), 0..5),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(|(id, qname, answers, authorities, additionals)| {
            let mut m = Message::query(id, qname, RecordType::A);
            m.answers = answers;
            m.authorities = authorities;
            m.additionals = additionals;
            m
        })
}

proptest! {
    /// Names written then read come back identical (lowercased already).
    #[test]
    fn name_roundtrip(name in arb_name()) {
        let q = Message::query(1, name.clone(), RecordType::A);
        let buf = q.encode().unwrap();
        let d = Message::decode(&buf).unwrap();
        prop_assert_eq!(&d.questions[0].qname, &name);
    }

    /// Full messages roundtrip through the wire format.
    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let buf = msg.encode().unwrap();
        let d = Message::decode(&buf).unwrap();
        prop_assert_eq!(d.questions, msg.questions);
        prop_assert_eq!(d.answers, msg.answers);
        prop_assert_eq!(d.authorities, msg.authorities);
        prop_assert_eq!(d.additionals, msg.additionals);
    }

    /// Compression never changes semantics: a message with many records
    /// under one zone decodes to the same records.
    #[test]
    fn compression_is_transparent(
        zone in arb_name(),
        hosts in proptest::collection::vec(arb_label(), 1..8),
        ttl in any::<u32>(),
    ) {
        let mut msg = Message::query(9, zone.clone(), RecordType::A);
        for h in &hosts {
            if let Ok(name) = zone.prepend(h) {
                msg.answers.push(ResourceRecord::new(name, ttl, RData::A(Ipv4Addr::new(10, 0, 0, 1))));
            }
        }
        let buf = msg.encode().unwrap();
        let d = Message::decode(&buf).unwrap();
        prop_assert_eq!(d.answers, msg.answers);
    }

    /// The decoder never panics on arbitrary bytes — it returns an error or
    /// a message, but must not crash.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    /// base64url roundtrips all inputs.
    #[test]
    fn base64url_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let enc = base64url::encode(&bytes);
        prop_assert!(enc.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_'));
        prop_assert_eq!(base64url::decode(&enc).unwrap(), bytes);
    }

    /// base64url decode never panics on arbitrary ASCII.
    #[test]
    fn base64url_decode_never_panics(s in "[ -~]{0,64}") {
        let _ = base64url::decode(&s);
    }

    /// DoH GET and POST both recover the original question.
    #[test]
    fn doh_roundtrip(name in arb_name(), id in any::<u16>()) {
        let msg = Message::query(id, name, RecordType::A);
        let get = DohRequest::get(&msg).unwrap();
        prop_assert_eq!(&get.decode_message().unwrap().questions, &msg.questions);
        let post = DohRequest::post(&msg).unwrap();
        let back = post.decode_message().unwrap();
        prop_assert_eq!(&back.questions, &msg.questions);
        prop_assert_eq!(back.header.id, id);
    }
}

//! Property-based tests: encode/decode roundtrips over arbitrary inputs and
//! decoder robustness against fuzz bytes.
//!
//! The zone-file parser gets the same treatment: it never panics on
//! arbitrary text or on text built from the zone grammar; a valid record
//! line changed in exactly one way (an rdata field dropped or added, a
//! bad IPv4 or IPv6 address, a non-numeric TTL or SOA number, an
//! unquoted TXT segment) is always an `Err`; and `format_zone` output
//! parses back to the same records, TXT segments with spaces, `;` and
//! parentheses included.

use dohperf_dns::base64url;
use dohperf_dns::prelude::*;
use dohperf_dns::rdata::SoaData;
use dohperf_dns::{format_zone, parse_zone};
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

    /// Cache entries honour TTL boundaries exactly.
    #[test]
    fn cache_ttl_boundary(now in 0u64..1_000_000, ttl in 1u32..86_400) {
        let mut cache = DnsCache::new();
        let k = CacheKey { name: DnsName::parse("a.com").unwrap(), rtype: RecordType::A };
        let rr = ResourceRecord::new(DnsName::parse("a.com").unwrap(), ttl, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
        cache.insert(k.clone(), vec![rr], now, ttl);
        prop_assert!(cache.get(&k, now + u64::from(ttl) - 1).is_some());
        prop_assert!(cache.get(&k, now + u64::from(ttl)).is_none());
    }
}

/// `arb_rdata` as a zone file can hold it: TXT segments without `"` or
/// `\`, and at least one segment.
fn arb_zone_rdata() -> impl Strategy<Value = RData> {
    arb_rdata().prop_map(|rdata| match rdata {
        RData::Txt(segments) if segments.is_empty() => RData::Txt(vec![String::new()]),
        RData::Txt(segments) => RData::Txt(
            segments
                .into_iter()
                .map(|s| s.replace(['"', '\\'], ""))
                .collect(),
        ),
        other => other,
    })
}

/// Whole tokens of the zone grammar, valid and not, for structured junk.
#[rustfmt::skip]
const ZONE_TOKENS: &[&str] = &[
    "$ORIGIN", "$TTL", "$INCLUDE", "$", "@", "IN", "CH", "A", "AAAA", "NS", "CNAME", "PTR", "MX",
    "TXT", "SOA", "WKS", "a.com.", "www", "b.c", ".", "..", "a..b", "1.2.3.4", "1.2.3.256",
    "2001:db8::1", "::", ":::", "300", "0", "4294967296", "-1", "3x0", "\"x y\"", "\"\"", "\"",
    "\"(\"", "\";\"", ";", "(", ")", "é", "\u{0}", " ", "\t", "\n",
];

/// An address `Ipv4Addr` cannot parse.
fn bad_ipv4([a, b, c, d]: [u8; 4], pick: u64) -> String {
    match pick % 5 {
        0 => format!("{a}.{b}.{c}"),
        1 => format!("{a}.{b}.{c}.{d}.{a}"),
        2 => format!("{a}.{b}.{c}.{}", 256 + u32::from(d)),
        3 => format!("{a}.{b}.{c}.x"),
        _ => format!("{a}.{b}.{c}.{d}/24"),
    }
}

/// An address `Ipv6Addr` cannot parse, derived from the valid `ip`.
fn bad_ipv6(ip: &str, pick: u64) -> String {
    match pick % 4 {
        // A second `::`, or a ninth group.
        0 => format!("{ip}::1"),
        1 => format!("{ip}:g"),
        2 => format!(":{ip}:"),
        _ => "12345::1".to_string(),
    }
}

/// A token that is not a u32, derived from the valid number `n`.
fn bad_number(n: &str, pick: u64) -> String {
    match pick % 5 {
        0 => format!("{n}x"),
        1 => format!("{n}.5"),
        2 => format!("-{n}"),
        3 => format!("0x{n}"),
        _ => "4294967296".to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text, and text built from the grammar's tokens (which
    /// reaches the directive, owner, TTL/class and rdata branches), is
    /// parsed or rejected; it never panics.
    #[test]
    fn zone_parser_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        tokens in proptest::collection::vec(0..ZONE_TOKENS.len(), 0..32),
    ) {
        let origin = DnsName::parse("a.com").unwrap();
        let grammar: Vec<&str> = tokens.into_iter().map(|t| ZONE_TOKENS[t]).collect();
        for text in [String::from_utf8_lossy(&bytes).into_owned(), grammar.join(" "), grammar.concat()] {
            let _ = parse_zone(&text, None);
            let _ = parse_zone(&text, Some(&origin));
        }
    }

    /// A valid record line changed in exactly one way is rejected.
    #[test]
    fn zone_line_mutations_are_rejected(
        kind in 0u8..7,
        name in arb_name(),
        ttl in any::<u32>(),
        rdata in arb_rdata(),
        v4 in any::<[u8; 4]>(),
        v6 in any::<[u8; 16]>(),
        segments in proptest::collection::vec("[a-z0-9=.:()]{1,12}", 1..4),
        pick in any::<u64>(),
    ) {
        let rdata = match kind {
            2 => RData::A(Ipv4Addr::from(v4)),
            3 => RData::Aaaa(Ipv6Addr::from(v6)),
            6 => RData::Txt(segments),
            // TXT takes any number of fields, so dropping or adding one
            // is no error; the SOA numbers need an SOA.
            5 => { prop_assume!(matches!(rdata, RData::Soa(_))); rdata }
            _ => { prop_assume!(!matches!(rdata, RData::Txt(_))); rdata }
        };
        let rr = ResourceRecord::new(name, ttl, rdata);
        let valid = format_zone(std::slice::from_ref(&rr));
        prop_assert_eq!(parse_zone(&valid, None), Ok(vec![rr]));

        // Owner, TTL, class, type, then the rdata fields; no field
        // generated here holds whitespace.
        let mut tokens: Vec<String> = valid.split_whitespace().map(String::from).collect();
        let fields = tokens.len() - 4;
        let field = 4 + (pick % fields as u64) as usize;
        match kind {
            0 => { tokens.remove(field); }
            1 => tokens.insert(4 + (pick % (fields as u64 + 1)) as usize, "x1".to_string()),
            2 => tokens[4] = bad_ipv4(v4, pick),
            3 => tokens[4] = bad_ipv6(&tokens[4], pick),
            4 => tokens[1] = bad_number(&tokens[1], pick),
            // The five SOA numbers follow mname and rname.
            5 => {
                let at = 6 + (pick % 5) as usize;
                tokens[at] = bad_number(&tokens[at], pick / 5);
            }
            _ => tokens[field] = tokens[field].trim_matches('"').to_string(),
        }
        let line = tokens.join(" ");
        prop_assert!(parse_zone(&line, None).is_err(), "mutation {} accepted: {:?}", kind, line);
    }

    /// Formatting then parsing gives back the same records.
    #[test]
    fn format_zone_round_trips(
        records in proptest::collection::vec(
            (arb_name(), any::<u32>(), arb_zone_rdata())
                .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata)),
            1..6,
        ),
    ) {
        prop_assert_eq!(parse_zone(&format_zone(&records), None), Ok(records));
    }
}

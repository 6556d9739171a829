//! Property-based tests for the HTTP codec and timing-header grammar.

use dohperf_http::codec::{Headers, Method, Request, Response, StatusCode};
use dohperf_http::luminati::{ProxyTimeline, TunTimeline};
use dohperf_netsim::time::SimDuration;
use proptest::prelude::*;

fn arb_token() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9-]{0,20}").unwrap()
}

fn arb_header_value() -> impl Strategy<Value = String> {
    // Header values: printable ASCII minus CR/LF; trimmed by the parser,
    // so avoid leading/trailing spaces to keep equality exact.
    proptest::string::string_regex("[!-~]([ -~]{0,30}[!-~])?").unwrap()
}

/// A corrupt timeline value: missing `ms`, negative, NaN, infinite or
/// not a number. `v` is at least 0.001, so the negative form stays
/// negative after rounding to three decimals.
fn bad_value(which: usize, v: f64) -> String {
    match which % 7 {
        0 => format!("{v:.3}"),
        1 => format!("-{v:.3}ms"),
        2 => "NaNms".to_string(),
        3 => "infms".to_string(),
        4 => "abcms".to_string(),
        5 => "ms".to_string(),
        _ => format!("{v:.3}s"),
    }
}

/// Apply exactly one structure-aware mutation to field `field` of a
/// valid timeline header: drop it, duplicate it, rename its key to
/// `new_key`, or replace its value with `bad`.
fn mutate(header: &str, kind: usize, field: usize, new_key: &str, bad: &str) -> String {
    let mut parts: Vec<String> = header.split(',').map(str::to_string).collect();
    let i = field % parts.len();
    let (key, value) = parts[i].split_once(':').expect("valid header field");
    let (key, value) = (key.to_string(), value.to_string());
    match kind % 4 {
        0 => {
            parts.remove(i);
        }
        1 => parts.insert(i, parts[i].clone()),
        2 => parts[i] = format!("{new_key}:{value}"),
        _ => parts[i] = format!("{key}:{bad}"),
    }
    parts.join(",")
}

proptest! {
    /// Requests roundtrip through encode/decode for arbitrary targets,
    /// headers and bodies.
    #[test]
    fn request_roundtrip(
        target in proptest::string::string_regex("/[!-~&&[^ ]]{0,40}").unwrap(),
        names in proptest::collection::vec(arb_token(), 0..6),
        values in proptest::collection::vec(arb_header_value(), 0..6),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut req = Request::new(Method::Post, target.clone());
        for (n, v) in names.iter().zip(&values) {
            // Avoid clashing with the auto Content-Length and framing headers.
            prop_assume!(!n.eq_ignore_ascii_case("content-length"));
            prop_assume!(!n.eq_ignore_ascii_case("transfer-encoding"));
            req.headers.insert(n.clone(), v.clone());
        }
        let req = req.with_body(body.clone());
        let bytes = req.encode();
        let (decoded, consumed) = Request::decode(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded.target, target);
        prop_assert_eq!(decoded.body, body);
        for (n, v) in names.iter().zip(&values) {
            prop_assert_eq!(decoded.headers.get(n), Some(v.as_str()));
        }
    }

    /// Responses roundtrip for arbitrary status codes and bodies.
    #[test]
    fn response_roundtrip(code in 100u16..600, body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let resp = Response::new(StatusCode(code)).with_body(body.clone());
        let bytes = resp.encode();
        let (decoded, consumed) = Response::decode(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded.status, StatusCode(code));
        prop_assert_eq!(decoded.body, body);
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Truncating an encoded request anywhere never yields a spurious
    /// success claiming the full length was consumed.
    #[test]
    fn truncation_is_detected(
        body in proptest::collection::vec(any::<u8>(), 1..128),
        cut_frac in 0.0f64..1.0,
    ) {
        let req = Request::new(Method::Post, "/x").with_body(body);
        let bytes = req.encode();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        if let Ok((_, consumed)) = Request::decode(&bytes[..cut]) {
            prop_assert!(consumed <= cut);
        }
    }

    /// Timing-header grammar roundtrips for arbitrary millisecond values.
    #[test]
    fn timelines_roundtrip(
        dns in 0.0f64..10_000.0,
        connect in 0.0f64..10_000.0,
        a in 0.0f64..100.0,
        b in 0.0f64..100.0,
        c in 0.0f64..100.0,
        d in 0.0f64..100.0,
    ) {
        let tun = TunTimeline {
            dns: SimDuration::from_millis_f64(dns),
            connect: SimDuration::from_millis_f64(connect),
        };
        let parsed = TunTimeline::parse(&tun.to_header_value()).unwrap();
        prop_assert!((parsed.dns.as_millis_f64() - dns).abs() < 0.001);
        prop_assert!((parsed.connect.as_millis_f64() - connect).abs() < 0.001);

        let proxy = ProxyTimeline {
            auth: SimDuration::from_millis_f64(a),
            init: SimDuration::from_millis_f64(b),
            select_node: SimDuration::from_millis_f64(c),
            domain_check: SimDuration::from_millis_f64(d),
        };
        let parsed = ProxyTimeline::parse(&proxy.to_header_value()).unwrap();
        prop_assert!((parsed.total().as_millis_f64() - (a + b + c + d)).abs() < 0.01);
    }

    /// One mutation of a valid timeline header (a dropped, duplicated or
    /// renamed field, or a corrupt value) is always rejected, never
    /// parsed into a plausible timeline and never a panic.
    #[test]
    fn mutated_timelines_rejected(
        ms in proptest::collection::vec(0.0f64..10_000.0, 4..5),
        kind in 0usize..4,
        field in 0usize..4,
        new_key in proptest::string::string_regex("[a-z_]{1,12}").unwrap(),
        which_bad in 0usize..7,
        v in 0.001f64..10_000.0,
    ) {
        let d = SimDuration::from_millis_f64;
        let tun = TunTimeline { dns: d(ms[0]), connect: d(ms[1]) }.to_header_value();
        let proxy = ProxyTimeline {
            auth: d(ms[0]),
            init: d(ms[1]),
            select_node: d(ms[2]),
            domain_check: d(ms[3]),
        }
        .to_header_value();
        let bad = bad_value(which_bad, v);
        for (header, parse) in [
            (tun, (|s: &str| TunTimeline::parse(s).map(|_| ())) as fn(&str) -> _),
            (proxy, |s: &str| ProxyTimeline::parse(s).map(|_| ())),
        ] {
            let mutated = mutate(&header, kind, field, &new_key, &bad);
            // Renaming a key to itself is no mutation.
            prop_assume!(mutated != header);
            prop_assert!(parse(&mutated).is_err(), "accepted {:?}", mutated);
        }
    }

    /// The timeline parsers never panic on arbitrary strings, whether
    /// random bytes or text drawn from the grammar's own alphabet.
    #[test]
    fn timeline_parsers_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        text in proptest::string::string_regex("[a-z_:,. 0-9NIaf+-]{0,48}").unwrap(),
    ) {
        for s in [String::from_utf8_lossy(&bytes).into_owned(), text] {
            let _ = TunTimeline::parse(&s);
            let _ = ProxyTimeline::parse(&s);
        }
    }

    /// Header multimap: set replaces all, get is case-insensitive.
    #[test]
    fn headers_multimap_laws(name in arb_token(), v1 in arb_header_value(), v2 in arb_header_value()) {
        let mut h = Headers::new();
        h.insert(name.clone(), v1.clone());
        h.insert(name.to_ascii_uppercase(), v2.clone());
        prop_assert_eq!(h.get_all(&name).count(), 2);
        h.set(name.to_ascii_lowercase(), v2.clone());
        prop_assert_eq!(h.get_all(&name).count(), 1);
        prop_assert_eq!(h.get(&name.to_ascii_uppercase()), Some(v2.as_str()));
    }
}

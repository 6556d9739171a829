//! RFC 1035 §5 master-file (zone file) parsing.
//!
//! Supports the subset the measurement substrate needs — the same kind of
//! zone the authors loaded into BIND9 for `a.com`:
//!
//! * `$ORIGIN` and `$TTL` directives;
//! * relative and absolute owner names, `@` for the origin;
//! * blank owner fields inheriting the previous owner;
//! * comments (`;` to end of line);
//! * record types A, AAAA, NS, CNAME, PTR, MX, TXT (quoted), SOA
//!   (single-line);
//! * per-record TTLs and class `IN` (optional).
//!
//! Every type takes an exact number of fields (TXT takes one or more
//! quoted segments), so a dropped or trailing field is an error, never
//! silently ignored. Inside a quoted TXT segment, `;` and parentheses
//! are content, so [`format_zone`] output always parses back.
//!
//! Unsupported (rejected loudly): multi-line parentheses, `$INCLUDE`,
//! non-IN classes.

use crate::name::DnsName;
use crate::rdata::{RData, SoaData};
use crate::record::ResourceRecord;
use std::net::{Ipv4Addr, Ipv6Addr};

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneFileError {
    /// Line the error occurred on.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for ZoneFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zone file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ZoneFileError {}

fn err(line: usize, message: impl Into<String>) -> ZoneFileError {
    ZoneFileError {
        line,
        message: message.into(),
    }
}

/// Parse a master file into resource records.
pub fn parse_zone(
    text: &str,
    default_origin: Option<&DnsName>,
) -> Result<Vec<ResourceRecord>, ZoneFileError> {
    let mut origin: Option<DnsName> = default_origin.cloned();
    let mut default_ttl: u32 = 3600;
    let mut previous_owner: Option<DnsName> = None;
    let mut records = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line);
        if line.trim().is_empty() {
            continue;
        }
        if find_unquoted(line, |c| c == '(' || c == ')').is_some() {
            return Err(err(lineno, "multi-line parentheses are not supported"));
        }
        // Directives.
        if let Some(rest) = line.trim_start().strip_prefix("$ORIGIN") {
            let name = rest.trim();
            origin = Some(
                DnsName::parse(name)
                    .map_err(|e| err(lineno, format!("bad $ORIGIN {name:?}: {e}")))?,
            );
            continue;
        }
        if let Some(rest) = line.trim_start().strip_prefix("$TTL") {
            default_ttl = rest
                .trim()
                .parse()
                .map_err(|_| err(lineno, format!("bad $TTL {:?}", rest.trim())))?;
            continue;
        }
        if line.trim_start().starts_with('$') {
            return Err(err(lineno, format!("unsupported directive in {line:?}")));
        }

        // Owner: present iff the line does not start with whitespace.
        let starts_indented = line.starts_with(' ') || line.starts_with('\t');
        let mut tokens = tokenize(line);
        if tokens.is_empty() {
            continue;
        }
        let owner = if starts_indented {
            previous_owner
                .clone()
                .ok_or_else(|| err(lineno, "indented record with no previous owner"))?
        } else {
            let tok = tokens.remove(0);
            resolve_name(&tok, origin.as_ref()).map_err(|e| err(lineno, e))?
        };
        previous_owner = Some(owner.clone());

        // Optional TTL and class, in either order.
        let mut ttl = default_ttl;
        loop {
            match tokens.first().map(|s| s.as_str()) {
                Some("IN") => {
                    tokens.remove(0);
                }
                // No record type starts with a digit, so such a token
                // is a TTL or an error.
                Some(tok) if tok.starts_with(|c: char| c.is_ascii_digit()) => {
                    ttl = tok
                        .parse()
                        .map_err(|_| err(lineno, format!("bad TTL {tok:?}")))?;
                    tokens.remove(0);
                }
                Some(tok) if ["CH", "HS", "CS"].contains(&tok) => {
                    return Err(err(lineno, format!("unsupported class {tok}")));
                }
                _ => break,
            }
        }

        let Some(rtype_tok) = tokens.first().cloned() else {
            return Err(err(lineno, "missing record type"));
        };
        tokens.remove(0);
        let rdata =
            parse_rdata(&rtype_tok, &tokens, origin.as_ref()).map_err(|e| err(lineno, e))?;
        records.push(ResourceRecord::new(owner, ttl, rdata));
    }
    Ok(records)
}

/// Byte offset of the first character outside a quoted string that
/// matches `pred`: inside quotes, `;` and parentheses are content.
fn find_unquoted(line: &str, pred: impl Fn(char) -> bool) -> Option<usize> {
    let mut in_quote = false;
    for (i, c) in line.char_indices() {
        if c == '"' {
            in_quote = !in_quote;
        } else if !in_quote && pred(c) {
            return Some(i);
        }
    }
    None
}

fn strip_comment(line: &str) -> &str {
    match find_unquoted(line, |c| c == ';') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn tokenize(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_quote = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                current.push(c);
            }
            c if c.is_whitespace() && !in_quote => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

fn resolve_name(token: &str, origin: Option<&DnsName>) -> Result<DnsName, String> {
    if token == "@" {
        return origin
            .cloned()
            .ok_or_else(|| "@ used with no $ORIGIN".to_string());
    }
    if let Some(stripped) = token.strip_suffix('.') {
        return DnsName::parse(stripped).map_err(|e| format!("bad name {token:?}: {e}"));
    }
    // Relative: append the origin.
    let origin = origin.ok_or_else(|| format!("relative name {token:?} with no $ORIGIN"))?;
    let mut full = token.to_string();
    if !origin.is_root() {
        full.push('.');
        full.push_str(&origin.to_string());
    }
    DnsName::parse(&full).map_err(|e| format!("bad name {token:?}: {e}"))
}

fn parse_rdata(rtype: &str, args: &[String], origin: Option<&DnsName>) -> Result<RData, String> {
    let need = |n: usize| -> Result<(), String> {
        if args.len() != n {
            Err(format!("{rtype} takes {n} field(s), got {}", args.len()))
        } else {
            Ok(())
        }
    };
    match rtype {
        "A" => {
            need(1)?;
            let ip: Ipv4Addr = args[0]
                .parse()
                .map_err(|_| format!("bad IPv4 {:?}", args[0]))?;
            Ok(RData::A(ip))
        }
        "AAAA" => {
            need(1)?;
            let ip: Ipv6Addr = args[0]
                .parse()
                .map_err(|_| format!("bad IPv6 {:?}", args[0]))?;
            Ok(RData::Aaaa(ip))
        }
        "NS" => {
            need(1)?;
            Ok(RData::Ns(resolve_name(&args[0], origin)?))
        }
        "CNAME" => {
            need(1)?;
            Ok(RData::Cname(resolve_name(&args[0], origin)?))
        }
        "PTR" => {
            need(1)?;
            Ok(RData::Ptr(resolve_name(&args[0], origin)?))
        }
        "MX" => {
            need(2)?;
            let pref: u16 = args[0]
                .parse()
                .map_err(|_| format!("bad MX preference {:?}", args[0]))?;
            Ok(RData::Mx(pref, resolve_name(&args[1], origin)?))
        }
        "TXT" => {
            if args.is_empty() {
                return Err("TXT takes at least 1 field, got 0".to_string());
            }
            let mut segments = Vec::new();
            for arg in args {
                let seg = arg
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| format!("TXT segment {arg:?} must be quoted"))?;
                segments.push(seg.to_string());
            }
            Ok(RData::Txt(segments))
        }
        "SOA" => {
            need(7)?;
            let parse_u32 = |s: &str| -> Result<u32, String> {
                s.parse().map_err(|_| format!("bad SOA number {s:?}"))
            };
            Ok(RData::Soa(SoaData {
                mname: resolve_name(&args[0], origin)?,
                rname: resolve_name(&args[1], origin)?,
                serial: parse_u32(&args[2])?,
                refresh: parse_u32(&args[3])?,
                retry: parse_u32(&args[4])?,
                expire: parse_u32(&args[5])?,
                minimum: parse_u32(&args[6])?,
            }))
        }
        other => Err(format!("unsupported record type {other}")),
    }
}

/// Serialise records back to master-file text (round-trip support).
pub fn format_zone(records: &[ResourceRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for rr in records {
        let rdata = match &rr.rdata {
            RData::A(ip) => format!("A {ip}"),
            RData::Aaaa(ip) => format!("AAAA {ip}"),
            RData::Ns(n) => format!("NS {n}."),
            RData::Cname(n) => format!("CNAME {n}."),
            RData::Ptr(n) => format!("PTR {n}."),
            RData::Mx(p, n) => format!("MX {p} {n}."),
            RData::Txt(segs) => {
                let quoted: Vec<String> = segs.iter().map(|s| format!("\"{s}\"")).collect();
                format!("TXT {}", quoted.join(" "))
            }
            RData::Soa(soa) => format!(
                "SOA {}. {}. {} {} {} {} {}",
                soa.mname, soa.rname, soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum
            ),
            RData::Unknown(_) => continue,
        };
        let _ = writeln!(out, "{}. {} IN {}", rr.name, rr.ttl, rdata);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RecordType;

    const SAMPLE: &str = r#"
$ORIGIN a.com.
$TTL 300
@       IN SOA ns1 hostmaster 2021050101 7200 3600 1209600 300
@       IN NS  ns1
ns1     IN A   203.0.113.53    ; the authoritative server
www     600 IN A 203.0.113.80
        IN A   203.0.113.81    ; same owner as previous line
alias   IN CNAME www
mail    IN MX 10 mx1.mail.example.
txt     IN TXT "hello world" "second segment"
v6      IN AAAA 2001:db8::1
abs.example.net. IN A 192.0.2.7
"#;

    #[test]
    fn parses_the_sample_zone() {
        let records = parse_zone(SAMPLE, None).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(records[0].rtype, RecordType::Soa);
        assert_eq!(records[0].name.to_string(), "a.com");
        // www has two A records, one with explicit TTL, one inheriting
        // the owner from the previous line.
        let www: Vec<_> = records
            .iter()
            .filter(|r| r.name.to_string() == "www.a.com")
            .collect();
        assert_eq!(www.len(), 2);
        assert_eq!(www[0].ttl, 600);
        assert_eq!(www[1].ttl, 300); // $TTL default
    }

    #[test]
    fn relative_and_absolute_names() {
        let records = parse_zone(SAMPLE, None).unwrap();
        assert!(records
            .iter()
            .any(|r| r.name.to_string() == "abs.example.net"));
        assert!(records.iter().any(|r| r.name.to_string() == "ns1.a.com"));
    }

    #[test]
    fn cname_target_resolved_against_origin() {
        let records = parse_zone(SAMPLE, None).unwrap();
        let alias = records
            .iter()
            .find(|r| r.name.to_string() == "alias.a.com")
            .unwrap();
        assert_eq!(
            alias.rdata,
            RData::Cname(DnsName::parse("www.a.com").unwrap())
        );
    }

    #[test]
    fn txt_segments_and_quoted_semicolons() {
        let zone = "$ORIGIN z.\nx IN TXT \"a;b\" ; trailing comment\n";
        let records = parse_zone(zone, None).unwrap();
        assert_eq!(records[0].rdata, RData::Txt(vec!["a;b".to_string()]));
    }

    #[test]
    fn soa_fields() {
        let records = parse_zone(SAMPLE, None).unwrap();
        if let RData::Soa(soa) = &records[0].rdata {
            assert_eq!(soa.serial, 2021050101);
            assert_eq!(soa.minimum, 300);
            assert_eq!(soa.mname.to_string(), "ns1.a.com");
        } else {
            panic!("first record must be SOA");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let zone = "$ORIGIN a.\nx IN A not-an-ip\n";
        let e = parse_zone(zone, None).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad IPv4"));
    }

    #[test]
    fn relative_name_without_origin_rejected() {
        let e = parse_zone("x IN A 1.2.3.4\n", None).unwrap_err();
        assert!(e.message.contains("no $ORIGIN"));
    }

    #[test]
    fn unsupported_constructs_rejected() {
        assert!(parse_zone("$INCLUDE other.zone\n", None).is_err());
        assert!(parse_zone("$ORIGIN a.\nx IN SOA ( multi\n", None).is_err());
        assert!(parse_zone("$ORIGIN a.\nx CH A 1.2.3.4\n", None).is_err());
        assert!(parse_zone("$ORIGIN a.\nx IN WKS whatever\n", None).is_err());
    }

    #[test]
    fn trailing_fields_rejected() {
        let e = parse_zone("a.com. 300 IN A 1.2.3.4 junk\n", None).unwrap_err();
        assert_eq!(e.message, "A takes 1 field(s), got 2");
        let e = parse_zone("a.com. 300 IN CNAME b.com. c.com.\n", None).unwrap_err();
        assert_eq!(e.message, "CNAME takes 1 field(s), got 2");
        let e = parse_zone("a.com. 300 IN MX 10\n", None).unwrap_err();
        assert_eq!(e.message, "MX takes 2 field(s), got 1");
        let e = parse_zone("a.com. 300 IN TXT\n", None).unwrap_err();
        assert_eq!(e.message, "TXT takes at least 1 field, got 0");
    }

    #[test]
    fn quoted_parentheses_are_txt_content() {
        let records = parse_zone("a.com. 300 IN TXT \"v=spf1 (x)\"\n", None).unwrap();
        assert_eq!(records[0].rdata, RData::Txt(vec!["v=spf1 (x)".to_string()]));
        assert_eq!(parse_zone(&format_zone(&records), None).unwrap(), records);
        // Outside quotes they are still the unsupported multi-line form.
        let e = parse_zone("a.com. 300 IN TXT \"x\" (\n", None).unwrap_err();
        assert!(e.message.contains("multi-line"), "{}", e.message);
    }

    #[test]
    fn non_numeric_ttl_rejected_as_a_ttl() {
        let e = parse_zone("a.com. 3x0 IN A 1.2.3.4\n", None).unwrap_err();
        assert_eq!(e.message, "bad TTL \"3x0\"");
    }

    #[test]
    fn default_origin_parameter_is_used() {
        let origin = DnsName::parse("d.example").unwrap();
        let records = parse_zone("www IN A 1.2.3.4\n", Some(&origin)).unwrap();
        assert_eq!(records[0].name.to_string(), "www.d.example");
    }

    #[test]
    fn format_round_trips_through_parse() {
        let records = parse_zone(SAMPLE, None).unwrap();
        let text = format_zone(&records);
        let reparsed = parse_zone(&text, None).unwrap();
        assert_eq!(records.len(), reparsed.len());
        for (a, b) in records.iter().zip(&reparsed) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.rdata, b.rdata);
        }
    }
}

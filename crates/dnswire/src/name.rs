//! Domain names.
//!
//! [`DnsName`] owns a validated, lowercase label sequence. Comparison is
//! case-insensitive per RFC 1035 §2.3.3 (achieved by normalising at
//! construction). Hostname validation follows the LDH rule with underscores
//! additionally permitted (service labels like `_dns` appear in the wild).
//! Labels read off the wire skip that rule: any bytes decode, lossily, to
//! text (see `label_from_wire`).

use crate::error::DnsError;
use std::fmt;
use std::str::FromStr;

/// Maximum total encoded length of a name (RFC 1035 §3.1).
const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label.
const MAX_LABEL_LEN: usize = 63;

/// A validated, normalised (lowercase) domain name.
///
/// The name owns its labels and drops them with itself. Equality,
/// ordering and hashing compare the label text, most-specific label
/// first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DnsName {
    labels: Vec<Box<str>>,
}

/// One label as the wire reader hands it over: the bytes decoded as
/// UTF-8 (invalid sequences become U+FFFD) and ASCII lowercased.
pub(crate) fn label_from_wire(bytes: &[u8]) -> Box<str> {
    let mut label = String::from_utf8_lossy(bytes).into_owned();
    label.make_ascii_lowercase();
    label.into_boxed_str()
}

impl DnsName {
    /// The root name (empty label sequence).
    pub fn root() -> Self {
        DnsName { labels: Vec::new() }
    }

    /// Parse a dotted name. A single trailing dot (FQDN form) is accepted
    /// and ignored. The empty string and `"."` denote the root.
    pub fn parse(s: &str) -> Result<Self, DnsError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(DnsName::root());
        }
        let mut labels = Vec::new();
        for raw in s.split('.') {
            labels.push(Self::validate_label(raw)?);
        }
        let name = DnsName { labels };
        let encoded = name.encoded_len();
        if encoded > MAX_NAME_LEN {
            return Err(DnsError::NameTooLong(encoded));
        }
        Ok(name)
    }

    /// Build from pre-validated lowercase labels (used by the wire reader,
    /// which already enforces length limits).
    pub(crate) fn from_labels_unchecked(labels: Vec<Box<str>>) -> Self {
        DnsName { labels }
    }

    /// Validate one label and return its lowercase copy.
    fn validate_label(raw: &str) -> Result<Box<str>, DnsError> {
        if raw.is_empty() {
            return Err(DnsError::EmptyLabel);
        }
        if raw.len() > MAX_LABEL_LEN {
            return Err(DnsError::LabelTooLong(raw.len()));
        }
        let ok = raw
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
        if !ok {
            return Err(DnsError::InvalidLabel(raw.to_string()));
        }
        Ok(raw.to_ascii_lowercase().into_boxed_str())
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> &[Box<str>] {
        &self.labels
    }

    /// Total wire-encoded length (sum of length octets and label bytes plus
    /// the terminating root octet).
    pub fn encoded_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Prepend a label, returning a new child name (`child.prepend("www")`).
    pub fn prepend(&self, label: &str) -> Result<DnsName, DnsError> {
        let validated = Self::validate_label(label)?;
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(validated);
        labels.extend(self.labels.iter().cloned());
        let name = DnsName { labels };
        let encoded = name.encoded_len();
        if encoded > MAX_NAME_LEN {
            return Err(DnsError::NameTooLong(encoded));
        }
        Ok(name)
    }

    /// The parent name (everything after the first label); root's parent is
    /// root.
    pub fn parent(&self) -> DnsName {
        if self.labels.is_empty() {
            DnsName::root()
        } else {
            DnsName {
                labels: self.labels[1..].to_vec(),
            }
        }
    }

    /// True if `self` equals `other` or is a subdomain of it. Every name is
    /// under the root.
    pub fn is_subdomain_of(&self, other: &DnsName) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - other.labels.len();
        self.labels[offset..] == other.labels[..]
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            write!(f, ".")
        } else {
            for (i, label) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(".")?;
                }
                f.write_str(label)?;
            }
            Ok(())
        }
    }
}

impl FromStr for DnsName {
    type Err = DnsError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DnsName::parse("WWW.Example.COM").unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.labels().len(), 3);
    }

    #[test]
    fn wire_labels_lowercase_ascii() {
        assert_eq!(&*label_from_wire(b"WWW"), "www");
        assert_eq!(&*label_from_wire(b"MiXeD-09"), "mixed-09");
    }

    #[test]
    fn distinct_labels_differ() {
        let (alpha, beta) = (
            DnsName::parse("alpha").unwrap(),
            DnsName::parse("beta").unwrap(),
        );
        assert_ne!(alpha, beta);
        assert!(alpha < beta);
        // Ordering and equality read the text, whatever case it came in.
        assert_eq!(DnsName::parse("ALPHA").unwrap(), alpha);
        assert!(DnsName::parse("Alpha.beta").unwrap() < DnsName::parse("beta.alpha").unwrap());
    }

    #[test]
    fn trailing_dot_accepted() {
        assert_eq!(
            DnsName::parse("example.com.").unwrap(),
            DnsName::parse("example.com").unwrap()
        );
    }

    #[test]
    fn root_forms() {
        assert_eq!(DnsName::parse("").unwrap(), DnsName::root());
        assert_eq!(DnsName::parse(".").unwrap(), DnsName::root());
        assert_eq!(DnsName::root().to_string(), ".");
        assert_eq!(DnsName::root().encoded_len(), 1);
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(
            DnsName::parse("A.B.C").unwrap(),
            DnsName::parse("a.b.c").unwrap()
        );
    }

    #[test]
    fn invalid_labels_rejected() {
        assert!(DnsName::parse("exa mple.com").is_err());
        assert!(DnsName::parse("exa*mple.com").is_err());
        assert!(DnsName::parse("a..b").is_err());
        assert!(DnsName::parse(&format!("{}.com", "x".repeat(64))).is_err());
    }

    #[test]
    fn underscore_and_hyphen_permitted() {
        assert!(DnsName::parse("_dns.resolver.arpa").is_ok());
        assert!(DnsName::parse("my-host.example.com").is_ok());
    }

    #[test]
    fn overlong_name_rejected() {
        // 5 chars per label incl. dot -> 60 labels is 300 > 255.
        let long = vec!["abcd"; 60].join(".");
        assert!(matches!(
            DnsName::parse(&long),
            Err(DnsError::NameTooLong(_))
        ));
    }

    #[test]
    fn prepend_builds_subdomain() {
        let base = DnsName::parse("a.com").unwrap();
        let sub = base.prepend("uuid1234").unwrap();
        assert_eq!(sub.to_string(), "uuid1234.a.com");
        assert!(sub.is_subdomain_of(&base));
        assert!(!base.is_subdomain_of(&sub));
    }

    #[test]
    fn parent_walks_up() {
        let n = DnsName::parse("a.b.c").unwrap();
        assert_eq!(n.parent().to_string(), "b.c");
        assert_eq!(n.parent().parent().to_string(), "c");
        assert_eq!(n.parent().parent().parent(), DnsName::root());
        assert_eq!(DnsName::root().parent(), DnsName::root());
    }

    #[test]
    fn subdomain_relation() {
        let root = DnsName::root();
        let com = DnsName::parse("com").unwrap();
        let ex = DnsName::parse("example.com").unwrap();
        assert!(ex.is_subdomain_of(&com));
        assert!(ex.is_subdomain_of(&root));
        assert!(ex.is_subdomain_of(&ex));
        assert!(!com.is_subdomain_of(&ex));
        // Same suffix labels but not aligned: bexample.com is not under example.com.
        let similar = DnsName::parse("bexample.com").unwrap();
        assert!(!similar.is_subdomain_of(&ex));
    }

    #[test]
    fn encoded_len_matches_wire() {
        let n = DnsName::parse("www.example.com").unwrap();
        // 3www 7example 3com 0 -> 4+8+4+1 = 17
        assert_eq!(n.encoded_len(), 17);
    }

    #[test]
    fn fromstr_works() {
        let n: DnsName = "example.org".parse().unwrap();
        assert_eq!(n.labels().len(), 2);
    }
}

//! RFC 8484 DNS-over-HTTPS payload encodings.
//!
//! A DoH request carries a binary DNS message either as the unpadded
//! base64url `dns` query parameter of a GET, or as the body of a POST with
//! content type `application/dns-message`. The paper's measurements use the
//! GET form (§2), so that is the default here.

use crate::base64url;
use crate::error::DnsError;
use crate::message::Message;

/// The DoH media type (RFC 8484 §6).
pub const DNS_MESSAGE_CONTENT_TYPE: &str = "application/dns-message";

/// HTTP method used for the DoH exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DohMethod {
    /// `GET /dns-query?dns=<base64url>` — cache-friendly, used by browsers.
    Get,
    /// `POST /dns-query` with the message as the body.
    Post,
}

/// A DoH request ready to be carried over HTTP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DohRequest {
    /// HTTP method.
    pub method: DohMethod,
    /// Request path including any query string.
    pub path: String,
    /// Body (empty for GET).
    pub body: Vec<u8>,
}

impl DohRequest {
    /// Build a GET request for a DNS message against the conventional
    /// `/dns-query` endpoint.
    ///
    /// Per RFC 8484, the message id SHOULD be 0 for GET requests so that
    /// identical queries are HTTP-cacheable; we zero it here.
    pub fn get(message: &Message) -> Result<Self, DnsError> {
        let mut normalized = message.clone();
        normalized.header.id = 0;
        let wire = normalized.encode()?;
        Ok(DohRequest {
            method: DohMethod::Get,
            path: format!("/dns-query?dns={}", base64url::encode(&wire)),
            body: Vec::new(),
        })
    }

    /// Build a POST request.
    pub fn post(message: &Message) -> Result<Self, DnsError> {
        let body = message.encode()?;
        Ok(DohRequest {
            method: DohMethod::Post,
            path: "/dns-query".to_string(),
            body,
        })
    }

    /// Recover the DNS message from a request (server side).
    pub fn decode_message(&self) -> Result<Message, DnsError> {
        match self.method {
            DohMethod::Get => {
                let query = self
                    .path
                    .split_once('?')
                    .map(|(_, q)| q)
                    .ok_or_else(|| DnsError::BadDohRequest("missing query string".into()))?;
                let dns = query
                    .split('&')
                    .find_map(|kv| kv.strip_prefix("dns="))
                    .ok_or_else(|| DnsError::BadDohRequest("missing dns parameter".into()))?;
                let wire = base64url::decode(dns)?;
                Message::decode(&wire)
            }
            DohMethod::Post => {
                if self.body.is_empty() {
                    return Err(DnsError::BadDohRequest("empty POST body".into()));
                }
                Message::decode(&self.body)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DnsName;
    use crate::types::RecordType;

    /// Parse the `dns` parameter out of a raw path+query string.
    fn message_from_get_path(path: &str) -> Result<Message, DnsError> {
        let req = DohRequest {
            method: DohMethod::Get,
            path: path.to_string(),
            body: Vec::new(),
        };
        req.decode_message()
    }

    fn sample() -> Message {
        Message::query(0x77, DnsName::parse("abc123.a.com").unwrap(), RecordType::A)
    }

    #[test]
    fn get_roundtrip_zeroes_id() {
        let msg = sample();
        let req = DohRequest::get(&msg).unwrap();
        assert!(req.path.starts_with("/dns-query?dns="));
        assert!(req.body.is_empty());
        let decoded = req.decode_message().unwrap();
        assert_eq!(decoded.header.id, 0, "GET requests must zero the id");
        assert_eq!(decoded.questions, msg.questions);
    }

    #[test]
    fn post_roundtrip_preserves_id() {
        let msg = sample();
        let req = DohRequest::post(&msg).unwrap();
        assert_eq!(req.path, "/dns-query");
        let decoded = req.decode_message().unwrap();
        assert_eq!(decoded.header.id, 0x77);
        assert_eq!(decoded.questions, msg.questions);
    }

    #[test]
    fn get_without_dns_param_rejected() {
        let req = DohRequest {
            method: DohMethod::Get,
            path: "/dns-query?other=1".to_string(),
            body: Vec::new(),
        };
        assert!(req.decode_message().is_err());
        let req2 = DohRequest {
            method: DohMethod::Get,
            path: "/dns-query".to_string(),
            body: Vec::new(),
        };
        assert!(req2.decode_message().is_err());
    }

    #[test]
    fn empty_post_body_rejected() {
        let req = DohRequest {
            method: DohMethod::Post,
            path: "/dns-query".to_string(),
            body: Vec::new(),
        };
        assert!(req.decode_message().is_err());
    }

    #[test]
    fn get_path_with_extra_params_parses() {
        let msg = sample();
        let mut req = DohRequest::get(&msg).unwrap();
        req.path.push_str("&ct=application/dns-message");
        // dns= param comes first; parsing still succeeds.
        assert!(req.decode_message().is_ok());
    }

    #[test]
    fn message_from_get_path_helper() {
        let msg = sample();
        let req = DohRequest::get(&msg).unwrap();
        let decoded = message_from_get_path(&req.path).unwrap();
        assert_eq!(decoded.questions, msg.questions);
    }

    #[test]
    fn corrupted_base64_rejected() {
        let msg = sample();
        let req = DohRequest::get(&msg).unwrap();
        let bad = DohRequest {
            method: DohMethod::Get,
            path: format!("{}%%%", req.path),
            body: Vec::new(),
        };
        assert!(bad.decode_message().is_err());
    }
}

//! # dohperf-dns
//!
//! A from-scratch DNS implementation: the RFC 1035 wire format (names with
//! message compression, headers, questions, resource records) and the
//! RFC 8484 DNS-over-HTTPS payload encodings (base64url GET and POST).
//!
//! This crate is pure protocol logic — no sockets, no simulation. Its one
//! runtime caller is the real loopback stack in `dohperf-livenet`; the
//! simulated campaign is time-only and builds no DNS wire bytes.
//!
//! ## Example
//!
//! ```
//! use dohperf_dns::prelude::*;
//!
//! let query = Message::query(0x1234, DnsName::parse("example.com").unwrap(), RecordType::A);
//! let bytes = query.encode().unwrap();
//! let decoded = Message::decode(&bytes).unwrap();
//! assert_eq!(decoded.header.id, 0x1234);
//! assert_eq!(decoded.questions[0].qtype, RecordType::A);
//! ```

pub mod base64url;
pub mod doh;
pub mod error;
pub mod header;
pub mod message;
pub mod name;
pub mod pool;
pub mod rdata;
pub mod record;
pub mod types;
pub mod wire;

pub use doh::{DohMethod, DohRequest};
pub use error::DnsError;
pub use header::{Header, HeaderFlags};
pub use message::Message;
pub use name::DnsName;
pub use pool::PooledBuf;
pub use rdata::RData;
pub use record::{Question, ResourceRecord};
pub use types::{Opcode, RCode, RecordClass, RecordType};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::doh::{DohMethod, DohRequest};
    pub use crate::error::DnsError;
    pub use crate::header::{Header, HeaderFlags};
    pub use crate::message::Message;
    pub use crate::name::DnsName;
    pub use crate::rdata::RData;
    pub use crate::record::{Question, ResourceRecord};
    pub use crate::types::{Opcode, RCode, RecordClass, RecordType};
}

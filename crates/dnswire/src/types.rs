//! Typed protocol constants: record types, classes, opcodes, rcodes.

use std::fmt;

/// Resource record type (RFC 1035 §3.2.2 plus later additions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer (reverse DNS).
    Ptr,
    /// Mail exchange.
    Mx,
    /// Text strings.
    Txt,
    /// IPv6 host address (RFC 3596).
    Aaaa,
    /// EDNS(0) pseudo-record (RFC 6891).
    Opt,
    /// HTTPS binding (RFC 9460) — queried by modern browsers alongside A.
    Https,
    /// Anything else, preserved numerically.
    Unknown(u16),
}

impl RecordType {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Opt => 41,
            RecordType::Https => 65,
            RecordType::Unknown(v) => v,
        }
    }

    /// Parse a wire value (never fails; unknown values are preserved).
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            41 => RecordType::Opt,
            65 => RecordType::Https,
            other => RecordType::Unknown(other),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::Ns => write!(f, "NS"),
            RecordType::Cname => write!(f, "CNAME"),
            RecordType::Soa => write!(f, "SOA"),
            RecordType::Ptr => write!(f, "PTR"),
            RecordType::Mx => write!(f, "MX"),
            RecordType::Txt => write!(f, "TXT"),
            RecordType::Aaaa => write!(f, "AAAA"),
            RecordType::Opt => write!(f, "OPT"),
            RecordType::Https => write!(f, "HTTPS"),
            RecordType::Unknown(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// Record class. Only IN is used in practice; others preserved numerically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordClass {
    /// Internet.
    In,
    /// Chaos (used for server identification queries).
    Ch,
    /// Anything else.
    Unknown(u16),
}

impl RecordClass {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Ch => 3,
            RecordClass::Unknown(v) => v,
        }
    }

    /// Parse a wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::In,
            3 => RecordClass::Ch,
            other => RecordClass::Unknown(other),
        }
    }
}

/// Query opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status.
    Status,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
    /// Anything else.
    Unknown(u8),
}

impl Opcode {
    /// Wire value (4-bit field).
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(v) => v & 0x0F,
        }
    }

    /// Parse a wire value.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Unknown(other),
        }
    }
}

/// Response code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RCode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused by policy.
    Refused,
    /// Anything else.
    Unknown(u8),
}

impl RCode {
    /// Wire value (4-bit field).
    pub fn to_u8(self) -> u8 {
        match self {
            RCode::NoError => 0,
            RCode::FormErr => 1,
            RCode::ServFail => 2,
            RCode::NxDomain => 3,
            RCode::NotImp => 4,
            RCode::Refused => 5,
            RCode::Unknown(v) => v & 0x0F,
        }
    }

    /// Parse a wire value.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => RCode::NoError,
            1 => RCode::FormErr,
            2 => RCode::ServFail,
            3 => RCode::NxDomain,
            4 => RCode::NotImp,
            5 => RCode::Refused,
            other => RCode::Unknown(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_roundtrip() {
        for v in 0..70u16 {
            assert_eq!(RecordType::from_u16(v).to_u16(), v);
        }
        assert_eq!(RecordType::from_u16(1), RecordType::A);
        assert_eq!(RecordType::from_u16(28), RecordType::Aaaa);
        assert_eq!(RecordType::from_u16(41), RecordType::Opt);
        assert_eq!(RecordType::from_u16(9999), RecordType::Unknown(9999));
    }

    #[test]
    fn class_roundtrip() {
        for v in 0..10u16 {
            assert_eq!(RecordClass::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn opcode_roundtrip_masks_to_4_bits() {
        for v in 0..16u8 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
        }
        assert_eq!(Opcode::from_u8(0x10), Opcode::Query);
    }

    #[test]
    fn rcode_roundtrip() {
        for v in 0..16u8 {
            assert_eq!(RCode::from_u8(v).to_u8(), v);
        }
        assert_eq!(RCode::from_u8(3), RCode::NxDomain);
    }

    #[test]
    fn display_names() {
        assert_eq!(RecordType::A.to_string(), "A");
        assert_eq!(RecordType::Unknown(999).to_string(), "TYPE999");
    }
}

//! # dohperf-livenet
//!
//! Real networking over `std::net`, proving the protocol crates against
//! actual sockets rather than the simulator:
//!
//! * [`zone`] — the one authoritative zone model, shared by both servers.
//! * [`do53`] — a threaded Do53 server over UDP and a stub client with
//!   retry/timeout semantics (the loopback analogue of the paper's
//!   BIND9 + default-resolver setup).
//! * [`doh`] — a DoH server speaking RFC 8484 GET/POST over HTTP/1.1 on
//!   TCP, plus a client. TLS is intentionally omitted: the point is to
//!   drive the DNS and HTTP codecs end-to-end over real I/O; handshake
//!   *cost* modelling lives in the simulator.
//! * [`ConnectProxy`] — an HTTP CONNECT proxy that answers with real
//!   `X-Luminati-*` timing headers, so client → proxy → [`doh`] server
//!   is the paper's measurement path on loopback.
//!
//! Everything binds to `127.0.0.1:0` (ephemeral ports) so tests and
//! examples run anywhere without configuration.

mod connectproxy;
pub mod do53;
pub mod doh;
pub mod zone;

pub use connectproxy::{open_tunnel, ConnectProxy};
pub use do53::{Do53Client, Do53Server};
pub use doh::{DohClient, DohServer};
pub use zone::Zone;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::connectproxy::{open_tunnel, ConnectProxy};
    pub use crate::do53::{Do53Client, Do53Server};
    pub use crate::doh::{DohClient, DohServer};
    pub use crate::zone::Zone;
}

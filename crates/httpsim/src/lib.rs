//! # dohperf-http
//!
//! HTTP machinery for the measurement pipeline:
//!
//! * [`codec`] — a strict, allocation-light HTTP/1.1 request/response codec
//!   (used over real sockets by `dohperf-livenet`; the simulated transport
//!   is time-only and encodes no HTTP).
//! * [`connect`] — HTTP CONNECT tunnel semantics, the mechanism BrightData
//!   uses to splice the measurement client to an exit node.
//! * [`luminati`] — the `X-luminati-timeline` / `X-luminati-tun-timeline`
//!   response-header grammar the paper's Equations 5–7 consume.
//!
//! TLS handshake round trips are not modelled here: the one transport cost
//! model is `dohperf_netsim::connection`.

pub mod codec;
pub mod connect;
pub mod luminati;

pub use codec::{Headers, HttpError, Method, Request, Response, StatusCode};
pub use connect::{ConnectRequest, ConnectResponse};
pub use luminati::{ProxyTimeline, TunTimeline};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::codec::{Headers, HttpError, Method, Request, Response, StatusCode};
    pub use crate::connect::{ConnectRequest, ConnectResponse};
    pub use crate::luminati::{ProxyTimeline, TunTimeline};
}

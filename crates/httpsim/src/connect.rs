//! HTTP CONNECT tunnel semantics.
//!
//! BrightData clients open a tunnel to the exit node by sending
//! `CONNECT host:port` to the Super Proxy with the target country encoded
//! in the proxy credentials (we model it as an explicit header). The
//! response carries the Luminati timing headers.

use crate::codec::{HttpError, Method, Request, Response, StatusCode};
use crate::luminati::{ProxyTimeline, TunTimeline, TIMELINE_HEADER, TUN_TIMELINE_HEADER};

/// Header carrying the requested exit-node country (stand-in for the
/// `country-XX` username suffix of the real service).
const COUNTRY_HEADER: &str = "X-BrightData-Country";
/// Header carrying the session id used to pin an exit node across requests.
const SESSION_HEADER: &str = "X-BrightData-Session";

/// A parsed CONNECT request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectRequest {
    /// Target host (hostname or IP literal).
    pub host: String,
    /// Target port.
    pub port: u16,
    /// Requested exit-node country, if any.
    pub country: Option<String>,
    /// Session identifier, if any.
    pub session: Option<String>,
}

impl ConnectRequest {
    /// Build a CONNECT request.
    pub fn new(host: impl Into<String>, port: u16) -> Self {
        ConnectRequest {
            host: host.into(),
            port,
            country: None,
            session: None,
        }
    }

    /// Request an exit node in a specific country.
    pub fn with_country(mut self, cc: impl Into<String>) -> Self {
        self.country = Some(cc.into());
        self
    }

    /// Pin a session (reuse the same exit node across requests).
    pub fn with_session(mut self, session: impl Into<String>) -> Self {
        self.session = Some(session.into());
        self
    }

    /// Serialise to an HTTP request.
    pub fn to_request(&self) -> Request {
        let mut req = Request::new(Method::Connect, format!("{}:{}", self.host, self.port));
        req.headers.insert("Host", self.host.clone());
        if let Some(cc) = &self.country {
            req.headers.insert(COUNTRY_HEADER, cc.clone());
        }
        if let Some(sess) = &self.session {
            req.headers.insert(SESSION_HEADER, sess.clone());
        }
        req
    }

    /// Parse from an HTTP request.
    pub fn from_request(req: &Request) -> Result<Self, HttpError> {
        if req.method != Method::Connect {
            return Err(HttpError::UnsupportedMethod(req.method.to_string()));
        }
        let (host, port) = req
            .target
            .rsplit_once(':')
            .ok_or_else(|| HttpError::BadStartLine(req.target.clone()))?;
        let port: u16 = port
            .parse()
            .map_err(|_| HttpError::BadStartLine(req.target.clone()))?;
        Ok(ConnectRequest {
            host: host.to_string(),
            port,
            country: req.headers.get(COUNTRY_HEADER).map(str::to_string),
            session: req.headers.get(SESSION_HEADER).map(str::to_string),
        })
    }
}

/// The Super Proxy's answer to a CONNECT: 200 with timing headers on
/// success.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectResponse {
    /// Whether the tunnel was established.
    pub established: bool,
    /// Exit-node timings (present on success).
    pub tun_timeline: Option<TunTimeline>,
    /// BrightData processing timings (present on success).
    pub proxy_timeline: Option<ProxyTimeline>,
}

impl ConnectResponse {
    /// A successful tunnel with timing headers.
    pub fn established(tun: TunTimeline, proxy: ProxyTimeline) -> Self {
        ConnectResponse {
            established: true,
            tun_timeline: Some(tun),
            proxy_timeline: Some(proxy),
        }
    }

    /// A failed tunnel (no exit node available, target refused…).
    pub fn failed() -> Self {
        ConnectResponse {
            established: false,
            tun_timeline: None,
            proxy_timeline: None,
        }
    }

    /// Serialise to an HTTP response.
    pub fn to_response(&self) -> Response {
        if !self.established {
            return Response::new(StatusCode::BAD_GATEWAY);
        }
        let mut resp = Response::new(StatusCode::OK);
        if let Some(t) = &self.tun_timeline {
            resp.headers
                .insert(TUN_TIMELINE_HEADER, t.to_header_value());
        }
        if let Some(t) = &self.proxy_timeline {
            resp.headers.insert(TIMELINE_HEADER, t.to_header_value());
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_netsim::time::SimDuration;

    impl ConnectResponse {
        /// Parse from an HTTP response.
        fn from_response(resp: &Response) -> Self {
            if !resp.status.is_success() {
                return ConnectResponse::failed();
            }
            let tun = resp
                .headers
                .get(TUN_TIMELINE_HEADER)
                .and_then(|v| TunTimeline::parse(v).ok());
            let proxy = resp
                .headers
                .get(TIMELINE_HEADER)
                .and_then(|v| ProxyTimeline::parse(v).ok());
            ConnectResponse {
                established: true,
                tun_timeline: tun,
                proxy_timeline: proxy,
            }
        }
    }

    #[test]
    fn connect_request_roundtrip() {
        let cr = ConnectRequest::new("1.1.1.1", 443)
            .with_country("BR")
            .with_session("sess-42");
        let http = cr.to_request();
        let bytes = http.encode();
        let (decoded, _) = Request::decode(&bytes).unwrap();
        let back = ConnectRequest::from_request(&decoded).unwrap();
        assert_eq!(back, cr);
    }

    #[test]
    fn connect_without_optionals() {
        let cr = ConnectRequest::new("example.com", 80);
        let back = ConnectRequest::from_request(&cr.to_request()).unwrap();
        assert_eq!(back.country, None);
        assert_eq!(back.session, None);
        assert_eq!(back.port, 80);
    }

    #[test]
    fn non_connect_rejected() {
        let req = Request::new(Method::Get, "/x");
        assert!(ConnectRequest::from_request(&req).is_err());
    }

    #[test]
    fn bad_target_rejected() {
        let req = Request::new(Method::Connect, "no-port-here");
        assert!(ConnectRequest::from_request(&req).is_err());
        let req2 = Request::new(Method::Connect, "host:notaport");
        assert!(ConnectRequest::from_request(&req2).is_err());
    }

    #[test]
    fn connect_response_roundtrip() {
        let tun = TunTimeline {
            dns: SimDuration::from_millis(15),
            connect: SimDuration::from_millis(42),
        };
        let proxy = ProxyTimeline {
            auth: SimDuration::from_millis(1),
            init: SimDuration::from_millis(2),
            select_node: SimDuration::from_millis(3),
            domain_check: SimDuration::from_millis(4),
        };
        let cr = ConnectResponse::established(tun, proxy);
        let http = cr.to_response();
        let bytes = http.encode();
        let (decoded, _) = Response::decode(&bytes).unwrap();
        let back = ConnectResponse::from_response(&decoded);
        assert!(back.established);
        assert_eq!(
            back.tun_timeline.unwrap().total(),
            SimDuration::from_millis(57)
        );
        assert_eq!(
            back.proxy_timeline.unwrap().total(),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn failed_tunnel_is_502() {
        let cr = ConnectResponse::failed();
        let http = cr.to_response();
        assert_eq!(http.status, StatusCode::BAD_GATEWAY);
        let back = ConnectResponse::from_response(&http);
        assert!(!back.established);
    }
}

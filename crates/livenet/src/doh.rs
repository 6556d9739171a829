//! DoH over real TCP sockets on loopback (RFC 8484 semantics, plain HTTP
//! framing — TLS cost modelling lives in the simulator).

use crate::zone::Zone;
use dohperf_dns::doh::{DohRequest, DNS_MESSAGE_CONTENT_TYPE};
use dohperf_dns::message::Message;
use dohperf_http::codec::{HttpError, Method, Request, Response, StatusCode};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A threaded DoH server: accepts HTTP/1.1 connections, answers
/// `GET /dns-query?dns=…` and `POST /dns-query`.
pub struct DohServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl DohServer {
    /// Start the server.
    pub fn start(zone: Zone) -> io::Result<DohServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let zone = zone.clone();
                        std::thread::spawn(move || {
                            let _ = serve_connection(stream, zone);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(DohServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DohServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Largest request a loopback server buffers; a longer one gets a 400.
const MAX_REQUEST_BYTES: usize = 64 << 10;

/// Read from `stream` until `buf` starts with one whole request, and take
/// that request out of `buf`. `Ok(None)` means the peer closed first. A
/// malformed request, or one longer than [`MAX_REQUEST_BYTES`], is
/// answered `400 Bad Request` and returned as an `InvalidData` error, so
/// the caller closes the connection.
pub(crate) fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> io::Result<Option<Request>> {
    let mut chunk = [0u8; 4096];
    loop {
        let error = match Request::decode(buf) {
            Ok((request, consumed)) => {
                buf.drain(..consumed);
                return Ok(Some(request));
            }
            Err(HttpError::IncompleteBody { declared, .. }) if declared > MAX_REQUEST_BYTES => {
                format!("declared body of {declared} bytes exceeds {MAX_REQUEST_BYTES}")
            }
            Err(HttpError::IncompleteHead | HttpError::IncompleteBody { .. }) => {
                if buf.len() <= MAX_REQUEST_BYTES {
                    match stream.read(&mut chunk)? {
                        0 => return Ok(None),
                        n => buf.extend_from_slice(&chunk[..n]),
                    }
                    continue;
                }
                format!("request exceeds {MAX_REQUEST_BYTES} bytes")
            }
            Err(e) => e.to_string(),
        };
        stream.write_all(&Response::new(StatusCode::BAD_REQUEST).encode())?;
        return Err(io::Error::new(io::ErrorKind::InvalidData, error));
    }
}

/// Serve one connection: handles pipelined requests until EOF, a read
/// timeout or a malformed request.
fn serve_connection(mut stream: TcpStream, zone: Zone) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(1000)))?;
    let mut buf = Vec::new();
    while let Some(request) = read_request(&mut stream, &mut buf)? {
        let response = handle_request(&request, &zone);
        stream.write_all(&response.encode())?;
        if request
            .headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            break;
        }
    }
    Ok(())
}

fn handle_request(request: &Request, zone: &Zone) -> Response {
    let doh = match request.method {
        Method::Get => DohRequest {
            method: dohperf_dns::doh::DohMethod::Get,
            path: request.target.clone(),
            body: Vec::new(),
        },
        Method::Post => DohRequest {
            method: dohperf_dns::doh::DohMethod::Post,
            path: request.target.clone(),
            body: request.body.clone(),
        },
        _ => return Response::new(StatusCode::BAD_REQUEST),
    };
    if !request.target.starts_with("/dns-query") {
        return Response::new(StatusCode::NOT_FOUND);
    }
    let Ok(query) = doh.decode_message() else {
        return Response::new(StatusCode::BAD_REQUEST);
    };
    let answer = zone.answer(&query);
    match answer.encode() {
        Ok(wire) => {
            let mut resp = Response::new(StatusCode::OK).with_body(wire);
            resp.headers.set("Content-Type", DNS_MESSAGE_CONTENT_TYPE);
            resp
        }
        Err(_) => Response::new(StatusCode::INTERNAL_SERVER_ERROR),
    }
}

/// A DoH client over plain TCP.
pub struct DohClient {
    server: SocketAddr,
    /// I/O timeout.
    pub timeout: Duration,
}

impl DohClient {
    /// A client for one server.
    pub fn new(server: SocketAddr) -> DohClient {
        DohClient {
            server,
            timeout: Duration::from_millis(2000),
        }
    }

    /// Resolve one query via GET (the paper's measurement form).
    pub fn resolve_get(&self, query: &Message) -> io::Result<Message> {
        let doh = DohRequest::get(query)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut http = Request::new(Method::Get, doh.path);
        http.headers.set("Accept", DNS_MESSAGE_CONTENT_TYPE);
        http.headers.set("Connection", "close");
        self.exchange(&http)
    }

    /// Resolve one query via POST.
    pub fn resolve_post(&self, query: &Message) -> io::Result<Message> {
        let doh = DohRequest::post(query)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut http = Request::new(Method::Post, doh.path).with_body(doh.body);
        http.headers.set("Content-Type", DNS_MESSAGE_CONTENT_TYPE);
        http.headers.set("Connection", "close");
        self.exchange(&http)
    }

    /// Run several GET queries over one TCP connection (connection reuse,
    /// the DoHR scenario). Returns the responses in order.
    pub fn resolve_many_reused(&self, queries: &[Message]) -> io::Result<Vec<Message>> {
        let mut stream = TcpStream::connect(self.server)?;
        stream.set_read_timeout(Some(self.timeout))?;
        let mut responses = Vec::with_capacity(queries.len());
        for query in queries {
            let doh = DohRequest::get(query)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            let mut http = Request::new(Method::Get, doh.path);
            http.headers.set("Accept", DNS_MESSAGE_CONTENT_TYPE);
            stream.write_all(&http.encode())?;
            let response = read_response(&mut stream)?;
            responses.push(decode_dns_body(&response)?);
        }
        Ok(responses)
    }

    fn exchange(&self, http: &Request) -> io::Result<Message> {
        let mut stream = TcpStream::connect(self.server)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.write_all(&http.encode())?;
        let response = read_response(&mut stream)?;
        decode_dns_body(&response)
    }
}

pub(crate) fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Ok((response, _)) = Response::decode(&buf) {
            return Ok(response);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Response::decode(&buf)
                    .map(|(r, _)| r)
                    .map_err(|e| io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
}

fn decode_dns_body(response: &Response) -> io::Result<Message> {
    if response.status != StatusCode::OK {
        return Err(io::Error::other(format!("HTTP {}", response.status.0)));
    }
    Message::decode(&response.body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_dns::name::DnsName;
    use dohperf_dns::types::{RCode, RecordType};
    use std::net::Ipv4Addr;

    fn serving_zone() -> Zone {
        let zone = Zone::new();
        zone.insert_wildcard("a.com", Ipv4Addr::new(203, 0, 113, 77));
        zone
    }

    #[test]
    fn get_resolution_over_real_tcp() {
        let server = DohServer::start(serving_zone()).unwrap();
        let client = DohClient::new(server.addr());
        let q = Message::query(5, DnsName::parse("u1.a.com").unwrap(), RecordType::A);
        let resp = client.resolve_get(&q).unwrap();
        assert_eq!(resp.first_a(), Some(Ipv4Addr::new(203, 0, 113, 77)));
        server.shutdown();
    }

    #[test]
    fn post_resolution_preserves_id() {
        let server = DohServer::start(serving_zone()).unwrap();
        let client = DohClient::new(server.addr());
        let q = Message::query(0xBEEF, DnsName::parse("u2.a.com").unwrap(), RecordType::A);
        let resp = client.resolve_post(&q).unwrap();
        assert_eq!(resp.header.id, 0xBEEF);
        assert_eq!(resp.header.rcode, RCode::NoError);
    }

    #[test]
    fn connection_reuse_answers_all() {
        let server = DohServer::start(serving_zone()).unwrap();
        let client = DohClient::new(server.addr());
        let queries: Vec<Message> = (0..10)
            .map(|i| {
                Message::query(
                    i,
                    DnsName::parse(&format!("r{i}.a.com")).unwrap(),
                    RecordType::A,
                )
            })
            .collect();
        let responses = client.resolve_many_reused(&queries).unwrap();
        assert_eq!(responses.len(), 10);
        for resp in responses {
            assert_eq!(resp.first_a(), Some(Ipv4Addr::new(203, 0, 113, 77)));
        }
    }

    #[test]
    fn nxdomain_over_doh() {
        let server = DohServer::start(serving_zone()).unwrap();
        let client = DohClient::new(server.addr());
        let q = Message::query(6, DnsName::parse("nope.example").unwrap(), RecordType::A);
        let resp = client.resolve_get(&q).unwrap();
        assert_eq!(resp.header.rcode, RCode::NxDomain);
    }

    #[test]
    fn bad_paths_rejected() {
        let server = DohServer::start(serving_zone()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(1000)))
            .unwrap();
        let mut req = Request::new(Method::Get, "/other?dns=AAAA");
        req.headers.set("Connection", "close");
        stream.write_all(&req.encode()).unwrap();
        let resp = read_response(&mut stream).unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn malformed_dns_param_is_400() {
        let server = DohServer::start(serving_zone()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(1000)))
            .unwrap();
        let mut req = Request::new(Method::Get, "/dns-query?dns=!!!!");
        req.headers.set("Connection", "close");
        stream.write_all(&req.encode()).unwrap();
        let resp = read_response(&mut stream).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
    }

    #[test]
    fn malformed_or_oversized_requests_get_400_before_the_read_timeout() {
        let server = DohServer::start(serving_zone()).unwrap();
        let huge = format!(
            "POST /dns-query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            u64::MAX / 2
        );
        for head in ["GARBAGE\r\n\r\n", huge.as_str()] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            // Half the server's 1 s read timeout: a server that waits for
            // more bytes instead of answering fails here.
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            stream.write_all(head.as_bytes()).unwrap();
            let resp = read_response(&mut stream).unwrap();
            assert_eq!(resp.status, StatusCode::BAD_REQUEST, "{head:?}");
        }
    }
}

//! DNS over TCP (RFC 1035 §4.2.2) and the TC-bit fallback path.
//!
//! When a UDP answer arrives truncated (TC set), real stub resolvers
//! retry the query over TCP, where messages ride behind a two-octet
//! length prefix. [`Tcp53Server`] serves the same [`Zone`] over TCP;
//! [`FallbackClient`] tries UDP first and falls back automatically.

use crate::do53::Do53Client;
use crate::zone::Zone;
use dohperf_dns::message::Message;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A threaded DNS-over-TCP server.
pub struct Tcp53Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Tcp53Server {
    /// Start serving `zone` over TCP on an ephemeral loopback port.
    pub fn start(zone: Zone) -> io::Result<Tcp53Server> {
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
                            let _ = serve_tcp_connection(stream, zone);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(Tcp53Server {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving.
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

impl Drop for Tcp53Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_tcp_connection(mut stream: TcpStream, zone: Zone) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(1000)))?;
    loop {
        let Some(query_bytes) = read_framed(&mut stream)? else {
            return Ok(()); // clean EOF
        };
        let Ok(query) = Message::decode(&query_bytes) else {
            continue;
        };
        let response = zone.answer(&query);
        // TCP has no 512-byte limit; send the full message.
        let Ok(wire) = response.encode() else {
            continue;
        };
        write_framed(&mut stream, &wire)?;
    }
}

/// Read one length-prefixed message; `Ok(None)` on clean EOF.
pub fn read_framed(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 2];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            return Ok(None)
        }
        Err(e) => return Err(e),
    }
    let len = u16::from_be_bytes(len_buf) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Write one length-prefixed message.
pub fn write_framed(stream: &mut TcpStream, wire: &[u8]) -> io::Result<()> {
    let len = u16::try_from(wire.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "message too long for TCP DNS"))?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(wire)
}

/// One-shot DNS-over-TCP query.
pub fn query_tcp(server: SocketAddr, query: &Message, timeout: Duration) -> io::Result<Message> {
    let mut stream = TcpStream::connect(server)?;
    stream.set_read_timeout(Some(timeout))?;
    let wire = query
        .encode()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    write_framed(&mut stream, &wire)?;
    let body = read_framed(&mut stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no TCP response"))?;
    Message::decode(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A stub client implementing the classic UDP-then-TCP fallback.
pub struct FallbackClient {
    udp: Do53Client,
    tcp_addr: SocketAddr,
    /// TCP query timeout.
    pub tcp_timeout: Duration,
    /// Statistics: how many queries needed the TCP retry.
    pub tcp_fallbacks: std::cell::Cell<u64>,
}

impl FallbackClient {
    /// Build from a UDP server address and a TCP server address (usually
    /// the same host, different sockets here).
    pub fn new(udp_addr: SocketAddr, tcp_addr: SocketAddr) -> FallbackClient {
        FallbackClient {
            udp: Do53Client::new(udp_addr),
            tcp_addr,
            tcp_timeout: Duration::from_millis(1000),
            tcp_fallbacks: std::cell::Cell::new(0),
        }
    }

    /// Resolve: UDP first; on a TC-flagged response, retry over TCP.
    pub fn resolve(&self, query: &Message) -> io::Result<Message> {
        let udp_response = self.udp.resolve(query)?;
        if !udp_response.header.flags.tc {
            return Ok(udp_response);
        }
        self.tcp_fallbacks.set(self.tcp_fallbacks.get() + 1);
        query_tcp(self.tcp_addr, query, self.tcp_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::do53::Do53Server;
    use dohperf_dns::name::DnsName;
    use dohperf_dns::types::{RCode, RecordType};
    use std::net::Ipv4Addr;

    fn zone() -> Zone {
        let z = Zone::new();
        z.insert_wildcard("a.com", Ipv4Addr::new(203, 0, 113, 8));
        z
    }

    #[test]
    fn tcp_query_roundtrips() {
        let server = Tcp53Server::start(zone()).unwrap();
        let q = Message::query(1, DnsName::parse("t1.a.com").unwrap(), RecordType::A);
        let resp = query_tcp(server.addr(), &q, Duration::from_millis(1000)).unwrap();
        assert_eq!(resp.header.rcode, RCode::NoError);
        assert_eq!(resp.first_a(), Some(Ipv4Addr::new(203, 0, 113, 8)));
        server.shutdown();
    }

    #[test]
    fn multiple_queries_per_tcp_connection() {
        let server = Tcp53Server::start(zone()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(1000)))
            .unwrap();
        for i in 0..5u16 {
            let q = Message::query(
                i,
                DnsName::parse(&format!("m{i}.a.com")).unwrap(),
                RecordType::A,
            );
            write_framed(&mut stream, &q.encode().unwrap()).unwrap();
            let body = read_framed(&mut stream).unwrap().unwrap();
            let resp = Message::decode(&body).unwrap();
            assert_eq!(resp.header.id, i);
        }
    }

    #[test]
    fn fallback_client_stays_on_udp_for_small_answers() {
        let udp = Do53Server::start(zone()).unwrap();
        let tcp = Tcp53Server::start(zone()).unwrap();
        let client = FallbackClient::new(udp.addr(), tcp.addr());
        let q = Message::query(2, DnsName::parse("s.a.com").unwrap(), RecordType::A);
        let resp = client.resolve(&q).unwrap();
        assert!(!resp.header.flags.tc);
        assert_eq!(client.tcp_fallbacks.get(), 0);
        assert_eq!(resp.first_a(), Some(Ipv4Addr::new(203, 0, 113, 8)));
    }

    #[test]
    fn fallback_client_retries_over_tcp_on_tc() {
        // Synthetic-TC UDP server: always answers with TC set.
        let socket = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let udp_addr = socket.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 1500];
            while !flag.load(Ordering::Relaxed) {
                if let Ok((len, peer)) = socket.recv_from(&mut buf) {
                    if let Ok(query) = Message::decode(&buf[..len]) {
                        let mut resp = Message::response(&query, RCode::NoError, Vec::new());
                        resp.header.flags.tc = true;
                        let _ = socket.send_to(&resp.encode().unwrap(), peer);
                    }
                }
            }
        });

        let tcp = Tcp53Server::start(zone()).unwrap();
        let client = FallbackClient::new(udp_addr, tcp.addr());
        let q = Message::query(3, DnsName::parse("big.a.com").unwrap(), RecordType::A);
        let resp = client.resolve(&q).unwrap();
        assert!(!resp.header.flags.tc, "TCP answer must be complete");
        assert_eq!(resp.first_a(), Some(Ipv4Addr::new(203, 0, 113, 8)));
        assert_eq!(client.tcp_fallbacks.get(), 1);

        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }
}

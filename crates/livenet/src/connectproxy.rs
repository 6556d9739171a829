//! A real HTTP CONNECT proxy on loopback — the live analogue of the
//! BrightData Super Proxy.
//!
//! Clients send `CONNECT host:port HTTP/1.1`; the proxy dials the target,
//! replies `200 OK` carrying synthesized `X-Luminati-*` timing headers
//! (the DNS and TCP-connect stages it really performed), then splices
//! bytes in both directions. Combined with [`crate::doh::DohServer`],
//! this reproduces the paper's measurement path — client → proxy →
//! resolver — over actual sockets.

use crate::doh::read_request;
use dohperf_http::codec::{Response, StatusCode};
use dohperf_http::connect::ConnectRequest;
use dohperf_http::luminati::{ProxyTimeline, TunTimeline, TIMELINE_HEADER, TUN_TIMELINE_HEADER};
use dohperf_netsim::time::SimDuration;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A threaded CONNECT proxy.
pub struct ConnectProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// Tunnels established so far, read by the tests.
    #[cfg(test)]
    tunnels: Arc<AtomicU64>,
}

impl ConnectProxy {
    /// Start the proxy on an ephemeral loopback port.
    pub fn start() -> io::Result<ConnectProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let tunnels = Arc::new(AtomicU64::new(0));
        let flag = shutdown.clone();
        let counter = tunnels.clone();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let counter = counter.clone();
                        std::thread::spawn(move || {
                            let _ = serve_tunnel(stream, &counter);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(ConnectProxy {
            addr,
            shutdown,
            handle: Some(handle),
            #[cfg(test)]
            tunnels,
        })
    }

    /// The proxy's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting (existing tunnels drain on their own threads).
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

impl Drop for ConnectProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_tunnel(mut client: TcpStream, established: &AtomicU64) -> io::Result<()> {
    client.set_read_timeout(Some(Duration::from_millis(2000)))?;
    let Some(request) = read_request(&mut client, &mut Vec::new())? else {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no request"));
    };
    let Ok(connect) = ConnectRequest::from_request(&request) else {
        client.write_all(&Response::new(StatusCode::BAD_REQUEST).encode())?;
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "not CONNECT"));
    };

    // "DNS" stage: resolve the target (loopback literals resolve
    // instantly, but we time it like the real proxy does).
    let dns_start = Instant::now();
    let target = format!("{}:{}", connect.host, connect.port);
    let resolved: Vec<SocketAddr> = target
        .to_socket_addrs()
        .map_err(|e| io::Error::new(io::ErrorKind::AddrNotAvailable, e))?
        .collect();
    let dns_time = dns_start.elapsed();
    let Some(&upstream_addr) = resolved.first() else {
        client.write_all(&Response::new(StatusCode::BAD_GATEWAY).encode())?;
        return Err(io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "no address",
        ));
    };

    // "Connect" stage.
    let connect_start = Instant::now();
    let upstream = match TcpStream::connect_timeout(&upstream_addr, Duration::from_millis(1000)) {
        Ok(s) => s,
        Err(e) => {
            client.write_all(&Response::new(StatusCode::BAD_GATEWAY).encode())?;
            return Err(e);
        }
    };
    let connect_time = connect_start.elapsed();

    // 200 with timing headers, exactly the observables the paper reads.
    let tun = TunTimeline {
        dns: SimDuration::from_millis_f64(dns_time.as_secs_f64() * 1000.0),
        connect: SimDuration::from_millis_f64(connect_time.as_secs_f64() * 1000.0),
    };
    let proxy = ProxyTimeline {
        auth: SimDuration::from_micros(150),
        init: SimDuration::from_micros(80),
        select_node: SimDuration::from_micros(400),
        domain_check: SimDuration::from_micros(60),
    };
    let mut ok = Response::new(StatusCode::OK);
    ok.headers
        .insert(TUN_TIMELINE_HEADER, tun.to_header_value());
    ok.headers.insert(TIMELINE_HEADER, proxy.to_header_value());
    client.write_all(&ok.encode())?;
    // The tunnel is established the moment the 200 goes out.
    established.fetch_add(1, Ordering::Relaxed);

    // Splice both directions until either side closes.
    splice(client, upstream)
}

fn splice(a: TcpStream, b: TcpStream) -> io::Result<()> {
    let a2 = a.try_clone()?;
    let b2 = b.try_clone()?;
    let t1 = std::thread::spawn(move || copy_until_eof(a, b));
    let t2 = std::thread::spawn(move || copy_until_eof(b2, a2));
    let _ = t1.join();
    let _ = t2.join();
    Ok(())
}

fn copy_until_eof(mut from: TcpStream, mut to: TcpStream) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(3000)));
    let mut buf = [0u8; 8192];
    loop {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// Open a tunnel through `proxy` to `target`, returning the connected
/// stream (ready for application data) plus the proxy's timing headers.
pub fn open_tunnel(
    proxy: SocketAddr,
    target: SocketAddr,
) -> io::Result<(TcpStream, TunTimeline, ProxyTimeline)> {
    let mut stream = TcpStream::connect(proxy)?;
    stream.set_read_timeout(Some(Duration::from_millis(2000)))?;
    let connect = ConnectRequest::new(target.ip().to_string(), target.port());
    stream.write_all(&connect.to_request().encode())?;
    // Read the 200 response head.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 2048];
    let response = loop {
        if let Ok((resp, consumed)) = Response::decode(&buf) {
            // Any bytes past the head belong to the tunnel; there are
            // none in practice since we have not sent application data.
            buf.drain(..consumed);
            break resp;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "proxy closed"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if response.status != StatusCode::OK {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("proxy answered HTTP {}", response.status.0),
        ));
    }
    let tun = response
        .headers
        .get(TUN_TIMELINE_HEADER)
        .and_then(|v| TunTimeline::parse(v).ok())
        .unwrap_or_default();
    let proxy_tl = response
        .headers
        .get(TIMELINE_HEADER)
        .and_then(|v| ProxyTimeline::parse(v).ok())
        .unwrap_or_default();
    Ok((stream, tun, proxy_tl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doh::DohServer;
    use crate::zone::Zone;
    use dohperf_dns::doh::DohRequest;
    use dohperf_dns::message::Message;
    use dohperf_dns::name::DnsName;
    use dohperf_dns::types::RecordType;
    use dohperf_http::codec::Method;
    use std::net::Ipv4Addr;

    impl ConnectProxy {
        /// Tunnels successfully established so far.
        fn tunnels_established(&self) -> u64 {
            self.tunnels.load(Ordering::Relaxed)
        }
    }

    fn doh_backend() -> DohServer {
        let zone = Zone::new();
        zone.insert_wildcard("a.com", Ipv4Addr::new(203, 0, 113, 44));
        DohServer::start(zone).unwrap()
    }

    #[test]
    fn tunnel_carries_a_doh_exchange_end_to_end() {
        let backend = doh_backend();
        let proxy = ConnectProxy::start().unwrap();
        let (mut tunnel, tun, proxy_tl) = open_tunnel(proxy.addr(), backend.addr()).unwrap();
        // Timing headers were parsed from the wire.
        assert!(tun.connect.as_millis_f64() >= 0.0);
        assert!(proxy_tl.total().as_nanos() > 0);

        // Speak DoH through the tunnel.
        let query = Message::query(9, DnsName::parse("tun.a.com").unwrap(), RecordType::A);
        let doh = DohRequest::get(&query).unwrap();
        let mut http = dohperf_http::codec::Request::new(Method::Get, doh.path);
        http.headers.set("Connection", "close");
        tunnel.write_all(&http.encode()).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let resp = loop {
            if let Ok((r, _)) = Response::decode(&buf) {
                break r;
            }
            let n = tunnel.read(&mut chunk).unwrap();
            if n == 0 {
                panic!("tunnel closed before response");
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        assert_eq!(resp.status, StatusCode::OK);
        let answer = Message::decode(&resp.body).unwrap();
        assert_eq!(answer.first_a(), Some(Ipv4Addr::new(203, 0, 113, 44)));
        assert_eq!(proxy.tunnels_established(), 1);
    }

    #[test]
    fn unreachable_target_yields_502() {
        let proxy = ConnectProxy::start().unwrap();
        // Bind-and-drop a port so nothing listens there.
        let dead = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let err = open_tunnel(proxy.addr(), addr);
        assert!(err.is_err());
    }

    #[test]
    fn non_connect_requests_rejected() {
        let proxy = ConnectProxy::start().unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(2000)))
            .unwrap();
        let req = dohperf_http::codec::Request::new(Method::Get, "/x");
        stream.write_all(&req.encode()).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            if let Ok((resp, _)) = Response::decode(&buf) {
                assert_eq!(resp.status, StatusCode::BAD_REQUEST);
                break;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0);
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn multiple_sequential_tunnels() {
        let backend = doh_backend();
        let proxy = ConnectProxy::start().unwrap();
        for i in 0..5u16 {
            let (mut tunnel, _, _) = open_tunnel(proxy.addr(), backend.addr()).unwrap();
            let query = Message::query(
                i,
                DnsName::parse(&format!("seq{i}.a.com")).unwrap(),
                RecordType::A,
            );
            let doh = DohRequest::post(&query).unwrap();
            let mut http =
                dohperf_http::codec::Request::new(Method::Post, doh.path).with_body(doh.body);
            http.headers.set("Connection", "close");
            tunnel.write_all(&http.encode()).unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                if let Ok((resp, _)) = Response::decode(&buf) {
                    let answer = Message::decode(&resp.body).unwrap();
                    assert_eq!(answer.header.id, i);
                    break;
                }
                let n = tunnel.read(&mut chunk).unwrap();
                assert!(n > 0, "tunnel {i} closed early");
                buf.extend_from_slice(&chunk[..n]);
            }
        }
        assert_eq!(proxy.tunnels_established(), 5);
    }

    #[test]
    fn garbage_head_gets_400_before_the_read_timeout() {
        let proxy = ConnectProxy::start().unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        // Half the proxy's 2 s read timeout: a proxy that waits for more
        // bytes instead of answering fails here.
        stream
            .set_read_timeout(Some(Duration::from_millis(1000)))
            .unwrap();
        stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let resp = crate::doh::read_response(&mut stream).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        assert_eq!(proxy.tunnels_established(), 0);
    }
}

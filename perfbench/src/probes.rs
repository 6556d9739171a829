//! Layer probes: each times one layer's hot call on fixed inputs, at every
//! op boundary of a traced run. A probe's input is the same in every call
//! and every workload, so it moves only when the layer's code (or the
//! cache state the workload leaves behind) changes.

use crate::report::Samples;
use crate::trace::Tracer;
use dohperf_core::equations::DerivationBatch;
use dohperf_core::testbed::{format_subdomain, Testbed, SUBDOMAIN_BUF_LEN};
use dohperf_dns::prelude::{DnsName, Message, RecordType};
use dohperf_http::{
    ConnectRequest, ConnectResponse, ProxyTimeline, Request, Response, TunTimeline,
};
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::{EventQueue, SimDuration, SimTime};
use dohperf_providers::provider::ProviderKind;
use dohperf_proxy::exitnode::ExitNode;
use dohperf_proxy::DohObservation;
use dohperf_world::countries::country;
use dohperf_world::geoloc::GeolocationService;
use std::hint::black_box;
use std::time::Instant;

/// Events pending in the probed queue: the widest page DAG (32 nodes)
/// can have this many resolutions in flight.
const EVENT_DEPTH: u64 = 32;
const EVENT_ROUNDS: u64 = 50_000;
const CODEC_ROUNDS: u64 = 2_000;
const PARSE_ROUNDS: u64 = 20_000;
const OBSERVATIONS: usize = 256;
const DERIVE_ROUNDS: usize = 200;

/// A probe: its layer, its metric, and the call that times it.
type Probe = (&'static str, &'static str, fn(&mut Probes) -> f64);

const PROBES: [Probe; 5] = [
    ("netsim", "netsim.event_ns", Probes::event_queue),
    ("dnswire", "dnswire.codec_ns", Probes::dns_codec),
    ("httpsim", "httpsim.codec_ns", Probes::http_codec),
    (
        "httpsim",
        "httpsim.luminati_parse_ns",
        Probes::luminati_parse,
    ),
    ("core.equations", "equations.derive_ns", Probes::derive),
];

/// Inputs shared by every probe call.
pub struct Probes {
    seed: u64,
    observations: Vec<DohObservation>,
}

impl Probes {
    /// Build the inputs: Eq 6–8 observations from one simulated testbed.
    pub fn new(seed: u64) -> Self {
        let mut tb = Testbed::new(seed);
        let br = country("BR").expect("BR is in the country table");
        let mut geoloc = GeolocationService::new(SimRng::new(seed), 0.0, vec!["BR"]);
        let mut rng = SimRng::new(seed ^ 0x5eed);
        let exit = ExitNode::create(&mut tb.sim, &mut geoloc, br, 0, br.centroid(), 1, &mut rng);
        let pop = tb.deployments[0].nearest_index(&exit.position);
        let observations = (0..OBSERVATIONS)
            .map(|_| {
                tb.network.doh_measurement(
                    &mut tb.sim,
                    tb.client,
                    &exit,
                    ProviderKind::Cloudflare,
                    &tb.deployments[0],
                    pop,
                    tb.auth_ns,
                    &mut rng,
                )
            })
            .collect();
        Probes { seed, observations }
    }

    /// Run every probe once, each in its own span, and push one sample of
    /// each probe metric (nanoseconds per call).
    pub fn run(&mut self, tr: &mut Tracer, s: &mut Samples) {
        for (layer, metric, probe) in PROBES {
            let ns = tr.span(layer, metric, |_| probe(self));
            s.push(metric, "ns", ns);
        }
    }

    /// `EventQueue::schedule` + `pop` with a constant pending depth.
    fn event_queue(&mut self) -> f64 {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut fired = 0u64;
        for k in 0..EVENT_DEPTH {
            queue.schedule(SimTime::from_nanos(1 + k * 997), |c: &mut u64, _| *c += 1);
        }
        let mut x = self.seed | 1;
        let start = Instant::now();
        for _ in 0..EVENT_ROUNDS {
            let (at, action) = queue.pop().expect("the depth stays constant");
            action(&mut fired, at);
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let next = at.as_nanos() + 1 + (x >> 40) % 100_000;
            queue.schedule(SimTime::from_nanos(next), |c: &mut u64, _| *c += 1);
        }
        let ns = start.elapsed().as_nanos() as f64 / EVENT_ROUNDS as f64;
        black_box(fired);
        ns
    }

    /// `Message::query` → `encode_pooled` → `decode` → `answer_a`, with
    /// the campaign's fresh-subdomain query names.
    fn dns_codec(&mut self) -> f64 {
        let mut buf = [0u8; SUBDOMAIN_BUF_LEN];
        let start = Instant::now();
        for k in 0..CODEC_ROUNDS {
            let name = format_subdomain(self.seed.wrapping_add(k), &mut buf);
            let name = DnsName::parse(name).expect("formatted names parse");
            let query = Message::query(k as u16, name, RecordType::A);
            let wire = query.encode_pooled().expect("a one-question query encodes");
            let back = Message::decode(&wire).expect("own encoding decodes");
            let answer = Message::answer_a(&back, std::net::Ipv4Addr::new(203, 0, 113, 9), 300);
            black_box(answer);
        }
        start.elapsed().as_nanos() as f64 / CODEC_ROUNDS as f64
    }

    fn timelines() -> (TunTimeline, ProxyTimeline) {
        (
            TunTimeline {
                dns: SimDuration::from_millis_f64(12.345),
                connect: SimDuration::from_millis_f64(33.1),
            },
            ProxyTimeline {
                auth: SimDuration::from_millis_f64(1.2),
                init: SimDuration::from_millis_f64(0.8),
                select_node: SimDuration::from_millis_f64(6.0),
                domain_check: SimDuration::from_millis_f64(0.5),
            },
        )
    }

    /// CONNECT request and its `X-luminati-*` response, each through
    /// `encode_into` + `decode`.
    fn http_codec(&mut self) -> f64 {
        let (tun, proxy) = Probes::timelines();
        let request = ConnectRequest::new("1.1.1.1", 443)
            .with_country("BR")
            .with_session(format!("sess-{}", self.seed))
            .to_request();
        let response = ConnectResponse::established(tun, proxy).to_response();
        let mut buf = bytes::BytesMut::with_capacity(512);
        let start = Instant::now();
        for _ in 0..CODEC_ROUNDS {
            request.encode_into(&mut buf);
            black_box(Request::decode(&buf).expect("own encoding decodes"));
            response.encode_into(&mut buf);
            black_box(Response::decode(&buf).expect("own encoding decodes"));
        }
        start.elapsed().as_nanos() as f64 / CODEC_ROUNDS as f64
    }

    /// Parse both Luminati timing header values.
    fn luminati_parse(&mut self) -> f64 {
        let (tun, proxy) = Probes::timelines();
        let (tun, proxy) = (tun.to_header_value(), proxy.to_header_value());
        let start = Instant::now();
        for _ in 0..PARSE_ROUNDS {
            black_box(TunTimeline::parse(black_box(&tun)).expect("own value parses"));
            black_box(ProxyTimeline::parse(black_box(&proxy)).expect("own value parses"));
        }
        start.elapsed().as_nanos() as f64 / PARSE_ROUNDS as f64
    }

    /// `DerivationBatch` push + derive, per observation.
    fn derive(&mut self) -> f64 {
        let mut batch = DerivationBatch::with_capacity(self.observations.len());
        let start = Instant::now();
        for _ in 0..DERIVE_ROUNDS {
            batch.clear();
            for obs in &self.observations {
                batch.push(black_box(obs));
            }
            batch.derive();
            black_box(batch.t_dohr_ms());
        }
        start.elapsed().as_nanos() as f64 / (DERIVE_ROUNDS * self.observations.len()) as f64
    }
}

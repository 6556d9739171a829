//! The BrightData network choreography.
//!
//! Implements the 22-step Figure 2 timeline on the simulator and returns
//! the observables a real measurement client would see. Every leg of the
//! path is sampled from the latency model independently (with jitter), so
//! the paper's stability assumptions hold only approximately — exactly as
//! in the real network — and the §4 ground-truth validation becomes a
//! meaningful test of the Equation 7/8 derivation rather than a tautology.

use crate::exitnode::{ExitNode, BOOTSTRAP_CACHE_HIT_P};
use crate::lifecycle::{count_loss_stall, loss_stall, pop_answer};
use crate::observation::{Do53Observation, DohObservation};
use crate::superproxy::{nearest_super_proxy, SuperProxy};
use dohperf_http::luminati::TunTimeline;
use dohperf_netsim::connection::{DnsTransport, TlsVersion};
use dohperf_netsim::engine::Simulator;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::time::SimDuration;
use dohperf_netsim::topology::{GeoPoint, NodeId};
use dohperf_providers::pops::PopDeployment;
use dohperf_providers::provider::ProviderKind;
use dohperf_telemetry::flight;
use std::cell::Cell;

/// Knobs for ablation studies (§7 of the paper and DESIGN.md).
///
/// The defaults reproduce the paper's methodology exactly: TLS 1.3 and
/// guaranteed cache misses (fresh UUID subdomains).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementOptions {
    /// TLS version for the DoH session. The paper measures 1.3 only and
    /// notes 1.2 clients "will have slower DoH performance overall";
    /// selecting 1.2 adds the second handshake round trip — and, exactly
    /// as in the real methodology, Equation 7 then *overestimates* t_DoH
    /// by one tunnel RTT because the derivation hard-codes a one-RTT
    /// handshake.
    pub tls: TlsVersion,
    /// Probability the DoH provider answers from cache (no recursion to
    /// the authoritative). 0.0 = the paper's forced cache misses.
    pub doh_cache_hit_p: f64,
    /// Probability the ISP resolver answers from cache.
    pub do53_cache_hit_p: f64,
    /// Extra per-query packet-loss probability injected on the access
    /// link (ablation). Loss hurts the two transports asymmetrically:
    /// a lost Do53 datagram costs a full stub retransmission timeout
    /// (~1s), while a lost TCP segment inside a DoH exchange stalls the
    /// HTTP/2 connection head-of-line for
    /// [`DnsTransport::loss_stall_rtts`] round trips
    /// ([`crate::lifecycle::loss_stall`]).
    pub extra_loss_p: f64,
}

impl Default for MeasurementOptions {
    fn default() -> Self {
        MeasurementOptions {
            tls: TlsVersion::V1_3,
            doh_cache_hit_p: 0.0,
            do53_cache_hit_p: 0.0,
            extra_loss_p: 0.0,
        }
    }
}

/// Small per-pass forwarding overhead on BrightData boxes after tunnel
/// establishment. The paper's Assumption 2 says this is negligible; we
/// make it small-but-nonzero so the validation measures a real error.
fn forwarding_overhead(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_millis_f64(rng.lognormal_median(0.4, 0.4))
}

/// The deployed BrightData network.
#[derive(Debug)]
pub struct BrightDataNetwork {
    /// Super Proxy fleet (11 countries).
    super_proxies: Vec<SuperProxy>,
    /// The last client position served and its Super Proxy: a testbed
    /// measures from one fixed client, so this resolves it once.
    last_served: Cell<Option<(GeoPoint, SuperProxy)>>,
}

impl BrightDataNetwork {
    /// Deploy the Super Proxy fleet.
    pub fn deploy(sim: &mut Simulator) -> Self {
        BrightDataNetwork {
            super_proxies: SuperProxy::deploy_fleet(sim),
            last_served: Cell::new(None),
        }
    }

    /// The Super Proxy fleet (11 countries).
    pub fn super_proxies(&self) -> &[SuperProxy] {
        &self.super_proxies
    }

    /// The Super Proxy that will serve a given measurement client.
    pub fn super_proxy_for(&self, sim: &Simulator, client: NodeId) -> SuperProxy {
        let pos = sim.topology().node(client).spec.position;
        let same = |p: &GeoPoint| {
            p.lat.to_bits() == pos.lat.to_bits() && p.lon.to_bits() == pos.lon.to_bits()
        };
        match self.last_served.get() {
            Some((p, sp)) if same(&p) => sp,
            _ => {
                let sp = *nearest_super_proxy(&self.super_proxies, &pos);
                self.last_served.set(Some((pos, sp)));
                sp
            }
        }
    }

    /// Round trip of the CONNECT tunnel path: client ↔ Super Proxy ↔ exit.
    fn tunnel_rtt(sim: &mut Simulator, client: NodeId, sp: NodeId, exit: NodeId) -> SimDuration {
        sim.rtt(client, sp) + sim.rtt(sp, exit)
    }

    /// Run one DoH measurement through the tunnel (Figure 2, steps 1–22).
    ///
    /// * `client` — the measurement client (authors' machine in the US).
    /// * `exit` — the selected exit node.
    /// * `deployment`/`pop_index` — the provider PoP serving this client.
    /// * `auth` — the experiment's authoritative name server.
    #[allow(clippy::too_many_arguments)]
    pub fn doh_measurement(
        &self,
        sim: &mut Simulator,
        client: NodeId,
        exit: &ExitNode,
        provider: ProviderKind,
        deployment: &PopDeployment,
        pop_index: usize,
        auth: NodeId,
        rng: &mut SimRng,
    ) -> DohObservation {
        self.doh_measurement_with(
            sim,
            client,
            exit,
            provider,
            deployment,
            pop_index,
            auth,
            rng,
            &MeasurementOptions::default(),
        )
    }

    /// [`Self::doh_measurement`] with explicit [`MeasurementOptions`]
    /// (TLS version and cache behaviour) for ablation studies.
    #[allow(clippy::too_many_arguments)]
    pub fn doh_measurement_with(
        &self,
        sim: &mut Simulator,
        client: NodeId,
        exit: &ExitNode,
        provider: ProviderKind,
        deployment: &PopDeployment,
        pop_index: usize,
        auth: NodeId,
        rng: &mut SimRng,
        opts: &MeasurementOptions,
    ) -> DohObservation {
        let sp = self.super_proxy_for(sim, client);
        let pop = deployment.sites()[pop_index].node;
        dohperf_telemetry::counter!("proxy.connect_tunnels").inc();
        let recording = flight::active();

        // --- Steps 1–8: establish the TCP tunnel. ---
        let t_a = sim.now();
        let doh_span = if recording {
            flight::start_span(
                "proxy",
                format!("doh {}", provider.hostname()),
                t_a.as_nanos(),
            )
        } else {
            flight::SpanToken::NOOP
        };
        let connect_span =
            flight::start_span("proxy", "connect-tunnel (steps 1-8)", t_a.as_nanos());
        let proxy_timeline = SuperProxy::processing_timeline(rng);
        // t3+t4: bootstrap-resolve the provider hostname at the exit node.
        let dns_bootstrap =
            exit.do53_bootstrap(sim, pop, provider.hostname(), BOOTSTRAP_CACHE_HIT_P, rng);
        // t5+t6: exit connects to the DoH PoP.
        let tcp_connect = exit.tcp_connect(sim, pop);
        let tunnel_rtt_1 = Self::tunnel_rtt(sim, client, sp.node, exit.node);
        let phase1 = tunnel_rtt_1 + proxy_timeline.total() + dns_bootstrap + tcp_connect;
        sim.advance(phase1);
        let t_b = sim.now();
        if recording {
            flight::attr(
                connect_span,
                "tunnel_rtt_ms",
                format!("{}", tunnel_rtt_1.as_millis_f64()),
            );
            // Header timestamps as span events, offset from T_A: the
            // tunnel components from X-Luminati-Tun-Timeline and the
            // BrightData-box components from X-Luminati-Timeline.
            TunTimeline {
                dns: dns_bootstrap,
                connect: tcp_connect,
            }
            .annotate_flight(connect_span, t_a.as_nanos());
            proxy_timeline.annotate_flight(connect_span, t_a.as_nanos());
            flight::end_span(connect_span, t_b.as_nanos());
        }

        // --- Steps 9–14: the TLS handshake, one flight per round trip of
        // `opts.tls` (one for 1.3; the TLS 1.2 ablation pays a second). ---
        let t_c = t_b; // ClientHello is sent immediately.
        let tls_span = flight::start_span("proxy", "tls-handshake (steps 9-14)", t_c.as_nanos());
        let tunnel_rtt_2 = Self::tunnel_rtt(sim, client, sp.node, exit.node);
        let mut tls_leg = sim.rtt(exit.node, pop)
            + exit.https_overhead(rng)
            + exit.handshake_crypto_overhead(rng); // t11+t12
        sim.trace_packet(exit.node, pop, "tls", "ClientHello");
        let overhead_2 = forwarding_overhead(rng);
        sim.advance(tunnel_rtt_2 + tls_leg + overhead_2);
        for _ in 1..opts.tls.full_handshake_rtts() {
            // A further flight: another tunnel RTT and exit<->PoP leg.
            let tunnel_rtt_extra = Self::tunnel_rtt(sim, client, sp.node, exit.node);
            let flight_leg = sim.rtt(exit.node, pop);
            sim.trace_packet(exit.node, pop, "tls", "ClientKeyExchange");
            sim.advance(tunnel_rtt_extra + flight_leg);
            tls_leg += flight_leg;
        }
        if recording {
            flight::attr(tls_span, "tls_version", format!("{:?}", opts.tls));
            flight::attr(
                tls_span,
                "tls_leg_ms",
                format!("{}", tls_leg.as_millis_f64()),
            );
            flight::end_span(tls_span, sim.now().as_nanos());
        }

        // --- Steps 15–22: the DoH query itself. ---
        let query_start = sim.now();
        let query_span =
            flight::start_span("proxy", "doh-query (steps 15-22)", query_start.as_nanos());
        let tunnel_rtt_3 = Self::tunnel_rtt(sim, client, sp.node, exit.node);
        // t17 + t20, unscaled: DoH's framing factor is 1.
        let mut query_leg = sim.rtt(exit.node, pop) + exit.https_overhead(rng);
        if let Some(stall) = loss_stall(sim, exit, pop, DnsTransport::DoH, opts.extra_loss_p, rng) {
            count_loss_stall(DnsTransport::DoH);
            query_leg += stall;
        }
        // t18 + t19 and the provider's processing.
        let answer = pop_answer(sim, exit, pop, auth, provider, opts.doh_cache_hit_p, rng);
        sim.trace_packet(exit.node, pop, "http", "GET /dns-query");
        if !answer.cache_hit {
            sim.trace_packet(pop, auth, "dns/udp", "recursion");
        }
        let overhead_3 = forwarding_overhead(rng);
        sim.advance(tunnel_rtt_3 + query_leg + answer.elapsed() + overhead_3);
        let t_d = sim.now();
        if recording {
            flight::attr(query_span, "cache_hit", format!("{}", answer.cache_hit));
            flight::attr(
                query_span,
                "recursion_ms",
                format!("{}", answer.recursion.as_millis_f64()),
            );
            flight::attr(
                query_span,
                "processing_ms",
                format!("{}", answer.processing.as_millis_f64()),
            );
            flight::end_span(query_span, t_d.as_nanos());
            flight::attr(doh_span, "T_A_ns", format!("{}", t_a.as_nanos()));
            flight::attr(doh_span, "T_B_ns", format!("{}", t_b.as_nanos()));
            flight::attr(doh_span, "T_C_ns", format!("{}", t_c.as_nanos()));
            flight::attr(doh_span, "T_D_ns", format!("{}", t_d.as_nanos()));
            flight::end_span(doh_span, t_d.as_nanos());
        }

        // Ground truth per Equation 1 (never visible to the methodology).
        let truth_t_doh = dns_bootstrap + tcp_connect + tls_leg + query_leg + answer.elapsed();
        // Ground truth for a reused-connection query: a fresh, loss-free
        // exchange on the established TLS session.
        let truth_query_leg = sim.rtt(exit.node, pop) + exit.https_overhead(rng);
        let truth_answer = pop_answer(sim, exit, pop, auth, provider, opts.doh_cache_hit_p, rng);
        let truth_t_dohr = truth_query_leg + truth_answer.elapsed();

        DohObservation {
            t_a,
            t_b,
            t_c,
            t_d,
            tun: TunTimeline {
                dns: dns_bootstrap,
                connect: tcp_connect,
            },
            proxy: proxy_timeline,
            truth_t_doh,
            truth_t_dohr,
        }
    }

    /// Run one Do53 measurement: the exit node fetches
    /// `http://<uuid>.a.com/` through the tunnel, forcing a cache-miss
    /// Do53 resolution with its default resolver (§3.1). In Super Proxy
    /// countries the resolution happens *at the Super Proxy* (§3.5) and
    /// the header value does not reflect the exit node.
    #[allow(clippy::too_many_arguments)]
    pub fn do53_measurement(
        &self,
        sim: &mut Simulator,
        client: NodeId,
        exit: &ExitNode,
        web_server: NodeId,
        auth: NodeId,
        qname: &str,
        rng: &mut SimRng,
    ) -> Do53Observation {
        self.do53_measurement_with(
            sim,
            client,
            exit,
            web_server,
            auth,
            qname,
            rng,
            &MeasurementOptions::default(),
        )
    }

    /// [`Self::do53_measurement`] with explicit [`MeasurementOptions`]
    /// (cache behaviour) for ablation studies.
    #[allow(clippy::too_many_arguments)]
    pub fn do53_measurement_with(
        &self,
        sim: &mut Simulator,
        client: NodeId,
        exit: &ExitNode,
        web_server: NodeId,
        auth: NodeId,
        qname: &str,
        rng: &mut SimRng,
        opts: &MeasurementOptions,
    ) -> Do53Observation {
        let sp = self.super_proxy_for(sim, client);
        dohperf_telemetry::counter!("proxy.connect_tunnels").inc();
        let recording = flight::active();
        let do53_span = if recording {
            flight::start_span("proxy", format!("do53 fetch {qname}"), sim.now().as_nanos())
        } else {
            flight::SpanToken::NOOP
        };
        let fetch_start = sim.now();
        let proxy_timeline = SuperProxy::processing_timeline(rng);
        let hijacked = SuperProxy::resolves_dns_for(exit.country_iso);
        if hijacked {
            dohperf_telemetry::counter!("proxy.superproxy_dns_hijacks").inc();
        }

        // The exit node's *true* Do53 time exists either way (we need it
        // as ground truth); the header reports it only when resolution
        // actually happens at the exit node.
        let mut truth_t_do53 = if rng.chance(opts.do53_cache_hit_p) {
            // Cache hit at the ISP resolver: stub round trip plus a
            // cache-lookup-scale processing time.
            sim.rtt(exit.node, exit.resolver)
                + SimDuration::from_millis_f64(rng.lognormal_median(1.5, 0.3))
        } else {
            exit.do53_cache_miss(sim, auth, qname, rng)
        };
        // A lost datagram burns the stub's whole retransmission timer.
        let loss = opts.extra_loss_p;
        if let Some(timer) = loss_stall(sim, exit, exit.resolver, DnsTransport::Do53, loss, rng) {
            count_loss_stall(DnsTransport::Do53);
            truth_t_do53 += timer;
        }

        let header_dns = if hijacked {
            // Super Proxy resolves with its data-centre resolver: a stub
            // hop inside the PoP plus recursion from the SP to the
            // authoritative server.
            let stub = SimDuration::from_millis_f64(rng.lognormal_median(1.0, 0.3));
            let recursion = sim.rtt(sp.node, auth);
            let processing = SimDuration::from_millis_f64(rng.lognormal_median(2.0, 0.3));
            stub + recursion + processing
        } else {
            truth_t_do53
        };
        let tcp_connect = exit.tcp_connect(sim, web_server);
        let tunnel_rtt = Self::tunnel_rtt(sim, client, sp.node, exit.node);
        // The fetch itself (headers only care about dns/connect).
        let fetch_leg = sim.rtt(exit.node, web_server);
        sim.advance(tunnel_rtt + proxy_timeline.total() + header_dns + tcp_connect + fetch_leg);
        if recording {
            flight::attr(do53_span, "resolved_at_super_proxy", format!("{hijacked}"));
            flight::attr(
                do53_span,
                "truth_t_do53_ms",
                format!("{}", truth_t_do53.as_millis_f64()),
            );
            TunTimeline {
                dns: header_dns,
                connect: tcp_connect,
            }
            .annotate_flight(do53_span, fetch_start.as_nanos());
            proxy_timeline.annotate_flight(do53_span, fetch_start.as_nanos());
            flight::end_span(do53_span, sim.now().as_nanos());
        }

        Do53Observation {
            tun: TunTimeline {
                dns: header_dns,
                connect: tcp_connect,
            },
            proxy: proxy_timeline,
            resolved_at_super_proxy: hijacked,
            truth_t_do53,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_netsim::topology::{GeoPoint, NodeRole, NodeSpec};
    use dohperf_world::countries::country;
    use dohperf_world::geoloc::GeolocationService;

    struct Fixture {
        sim: Simulator,
        network: BrightDataNetwork,
        client: NodeId,
        auth: NodeId,
        web: NodeId,
        deployment: PopDeployment,
    }

    fn fixture() -> Fixture {
        let mut sim = Simulator::new(77);
        let network = BrightDataNetwork::deploy(&mut sim);
        let us = country("US").unwrap();
        let client = sim.add_node(
            NodeSpec::new(
                "measure-client",
                GeoPoint::new(40.1, -88.2),
                NodeRole::Server,
            )
            .with_infra(us.datacenter_profile()),
        );
        let auth = sim.add_node(
            NodeSpec::new(
                "auth-ns",
                GeoPoint::new(39.0, -77.5),
                NodeRole::AuthoritativeNs,
            )
            .with_infra(us.datacenter_profile()),
        );
        let web = sim.add_node(
            NodeSpec::new("web", GeoPoint::new(39.0, -77.5), NodeRole::Server)
                .with_infra(us.datacenter_profile()),
        );
        let deployment = PopDeployment::deploy(ProviderKind::Cloudflare, &mut sim);
        Fixture {
            sim,
            network,
            client,
            auth,
            web,
            deployment,
        }
    }

    fn exit_in(fx: &mut Fixture, iso: &str, id: u64) -> ExitNode {
        let c = country(iso).unwrap();
        let mut geoloc = GeolocationService::new(SimRng::new(id), 0.0, vec!["BR", "US"]);
        let mut rng = SimRng::new(id);
        ExitNode::create(&mut fx.sim, &mut geoloc, c, 0, c.centroid(), id, &mut rng)
    }

    #[test]
    fn doh_observation_is_ordered_and_plausible() {
        let mut fx = fixture();
        let exit = exit_in(&mut fx, "BR", 1);
        let pos = exit.position;
        let pop_index = fx.deployment.nearest_index(&pos);
        let mut rng = SimRng::new(5);
        let obs = fx.network.doh_measurement(
            &mut fx.sim,
            fx.client,
            &exit,
            ProviderKind::Cloudflare,
            &fx.deployment,
            pop_index,
            fx.auth,
            &mut rng,
        );
        assert!(obs.t_a < obs.t_b);
        assert!(obs.t_b <= obs.t_c);
        assert!(obs.t_c < obs.t_d);
        // Brazil exit through a nearby PoP: t_DoH should be a few hundred
        // ms at most; the truth components must be positive.
        let truth = obs.truth_t_doh.as_millis_f64();
        assert!(truth > 30.0 && truth < 2_000.0, "truth {truth}");
        assert!(obs.truth_t_dohr < obs.truth_t_doh);
        assert!(obs.tun.dns > SimDuration::ZERO);
        assert!(obs.tun.connect > SimDuration::ZERO);
    }

    #[test]
    fn do53_header_matches_truth_outside_sp_countries() {
        let mut fx = fixture();
        let exit = exit_in(&mut fx, "BR", 2);
        let mut rng = SimRng::new(6);
        let obs = fx.network.do53_measurement(
            &mut fx.sim,
            fx.client,
            &exit,
            fx.web,
            fx.auth,
            "uuid9.a.com",
            &mut rng,
        );
        assert!(!obs.resolved_at_super_proxy);
        assert_eq!(obs.tun.dns, obs.truth_t_do53);
    }

    #[test]
    fn do53_header_is_wrong_in_sp_countries() {
        let mut fx = fixture();
        let exit = exit_in(&mut fx, "IN", 3);
        let mut rng = SimRng::new(7);
        let obs = fx.network.do53_measurement(
            &mut fx.sim,
            fx.client,
            &exit,
            fx.web,
            fx.auth,
            "uuid10.a.com",
            &mut rng,
        );
        assert!(obs.resolved_at_super_proxy);
        // The header reports the Super Proxy's (US-side) resolution — far
        // faster than a genuine India -> US recursion.
        assert!(
            obs.tun.dns.as_millis_f64() < obs.truth_t_do53.as_millis_f64(),
            "header {} truth {}",
            obs.tun.dns,
            obs.truth_t_do53
        );
    }

    #[test]
    fn reused_queries_are_faster_than_first() {
        let mut fx = fixture();
        let exit = exit_in(&mut fx, "ID", 4);
        let pop_index = fx.deployment.nearest_index(&exit.position);
        let mut rng = SimRng::new(8);
        let mut faster = 0;
        for _ in 0..20 {
            let obs = fx.network.doh_measurement(
                &mut fx.sim,
                fx.client,
                &exit,
                ProviderKind::Cloudflare,
                &fx.deployment,
                pop_index,
                fx.auth,
                &mut rng,
            );
            if obs.truth_t_dohr < obs.truth_t_doh {
                faster += 1;
            }
        }
        // Handshake-free queries win overwhelmingly; allow rare unlucky
        // per-query draws to cross.
        assert!(faster >= 17, "DoHR faster only {faster}/20 times");
    }

    #[test]
    fn simulated_clock_advances_through_measurements() {
        let mut fx = fixture();
        let exit = exit_in(&mut fx, "BR", 5);
        let t0 = fx.sim.now();
        let pop_index = fx.deployment.nearest_index(&exit.position);
        let mut rng = SimRng::new(9);
        fx.network.doh_measurement(
            &mut fx.sim,
            fx.client,
            &exit,
            ProviderKind::Cloudflare,
            &fx.deployment,
            pop_index,
            fx.auth,
            &mut rng,
        );
        assert!(fx.sim.now() > t0);
    }
}

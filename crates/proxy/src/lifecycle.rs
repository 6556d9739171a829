//! Multi-transport measurement with an explicit connection lifecycle,
//! and the one handshake and query bill every measurement path charges.
//!
//! The [`crate::network`] choreography reproduces the paper's Figure 2
//! tunnel methodology for DoH and Do53. This module runs the extended
//! campaign's transport comparison: the same provider PoP is queried
//! over each of the four DNS transports — Do53 (plain UDP to the
//! provider's public resolver), DoH, DoT and DoQ — driving the
//! [`Connection`] state machine through its full lifecycle so every
//! observation records a **cold**, **warm** and **resumed** query on
//! the same (client, provider) pair. DoT versus DoH is measured here
//! and nowhere else (`repro --protocols do53,doh,dot transports`).
//!
//! The costs come from the tables of `dohperf_netsim::connection`;
//! [`handshake_bill`], [`query_leg`], [`loss_stall`] and [`pop_answer`]
//! turn them into sampled durations. They live here rather than in
//! netsim because the crypto and framing draws are [`ExitNode`]
//! methods. Every path that models a DNS query charges them: this
//! module's lifecycle, the page-load workload
//! (`dohperf_core::pageload`), and the [`crate::network`] tunnel, whose
//! DoH query takes the loss stall and the PoP answer from here (its
//! framing stays the raw, unscaled overhead draw). So a lost DoH
//! segment stalls [`DnsTransport::loss_stall_rtts`] head-of-line round
//! trips on every path, and each loss counter is named once, in
//! `count_loss_stall`.
//!
//! Unlike the tunnel methodology, these measurements are taken at the
//! exit node itself (the simulator can observe exit-local time
//! directly, so no header algebra is needed); the timestamp algebra
//! over the lifecycle phases lives in `dohperf_core::equations` as the
//! Eq 1–8 analogues for the new transports.
//!
//! Determinism contract (DESIGN.md §13): this path consumes only the
//! `SimRng` handed to it — campaigns pass a fresh
//! `fork_parts`-derived stream per (client, provider, transport) — and
//! the connection state machine itself consumes no randomness, so
//! enabling the extra transports never perturbs the legacy DoH/Do53
//! draw sequences.

use crate::exitnode::{ExitNode, BOOTSTRAP_CACHE_HIT_P};
use crate::network::BrightDataNetwork;
use dohperf_netsim::connection::{Acquired, Connection, DnsTransport, Warmth, UDP_RETRY_TIMEOUT};
use dohperf_netsim::engine::Simulator;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::time::{SimDuration, SimTime};
use dohperf_netsim::topology::NodeId;
use dohperf_providers::pops::PopDeployment;
use dohperf_providers::provider::ProviderKind;
use dohperf_telemetry::flight;

/// One transport's full connection-lifecycle observation for one
/// (client, provider) pair: timestamps bracketing the cold handshake
/// and the cold/warm/resumed queries, plus the per-phase framing
/// components (needed by the differential protocol tests, which assert
/// that warm DoT and warm DoH agree *minus the H2 framing delta*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportObservation {
    /// Which transport carried the queries.
    pub transport: DnsTransport,
    /// Lifecycle start: bootstrap resolution begins.
    pub t_a: SimTime,
    /// Bootstrap done; the cold handshake's first flight departs.
    pub t_bs: SimTime,
    /// Cold handshake complete; the connection is established.
    pub t_hs: SimTime,
    /// Cold query answered.
    pub t_cold_done: SimTime,
    /// Warm query issued on the established connection.
    pub t_warm_start: SimTime,
    /// Warm query answered.
    pub t_warm_done: SimTime,
    /// Resumed phase starts (the connection has idled out).
    pub t_resumed_start: SimTime,
    /// Abbreviated re-establishment complete.
    pub t_resumed_hs: SimTime,
    /// Resumed query answered.
    pub t_resumed_done: SimTime,
    /// Application-framing component of the cold query.
    pub cold_framing: SimDuration,
    /// Application-framing component of the warm query.
    pub warm_framing: SimDuration,
    /// Application-framing component of the resumed query.
    pub resumed_framing: SimDuration,
    /// Connection generation servicing the cold and warm queries.
    pub cold_generation: u32,
    /// Connection generation after the post-timeout re-establishment.
    pub resumed_generation: u32,
}

/// The network side of one query on an acquired connection.
#[derive(Debug, Clone, Copy)]
pub struct QueryLeg {
    /// The request round trip plus any loss recovery.
    pub leg: SimDuration,
    /// Application-framing component ([`DnsTransport::framing_factor`]).
    pub framing: SimDuration,
    /// The loss recovery inside `leg`, when a loss was drawn
    /// ([`loss_stall`]).
    pub stall: Option<SimDuration>,
}

/// Draw the network side of one query from the exit node to `pop`: the
/// request round trip, the framing overhead scaled by
/// [`DnsTransport::framing_factor`], then [`loss_stall`]. Does not
/// advance the clock; loss counters stay with the callers.
pub fn query_leg(
    sim: &mut Simulator,
    exit: &ExitNode,
    pop: NodeId,
    transport: DnsTransport,
    extra_loss_p: f64,
    rng: &mut SimRng,
) -> QueryLeg {
    let rtt = sim.rtt(exit.node, pop);
    let framing = exit.https_overhead(rng).mul_f64(transport.framing_factor());
    let stall = loss_stall(sim, exit, pop, transport, extra_loss_p, rng);
    QueryLeg {
        leg: rtt + stall.unwrap_or(SimDuration::ZERO),
        framing,
        stall,
    }
}

/// Draw whether one query loses a packet (probability `extra_loss_p`)
/// and what recovering it costs: [`DnsTransport::loss_stall_rtts`]
/// sampled exit↔`pop` round trips, or [`UDP_RETRY_TIMEOUT`] for Do53.
/// This is the one loss model: the tunnel methodology, the lifecycle
/// and page loads all charge it. Does not advance the clock.
pub fn loss_stall(
    sim: &mut Simulator,
    exit: &ExitNode,
    pop: NodeId,
    transport: DnsTransport,
    extra_loss_p: f64,
    rng: &mut SimRng,
) -> Option<SimDuration> {
    rng.chance(extra_loss_p).then(|| match transport {
        DnsTransport::Do53 => UDP_RETRY_TIMEOUT,
        _ => {
            let mut stall = SimDuration::ZERO;
            for _ in 0..transport.loss_stall_rtts() {
                stall += sim.rtt(exit.node, pop);
            }
            stall
        }
    })
}

/// Count one drawn [`loss_stall`] under its transport's counter. The
/// tunnel methodology and the lifecycle count per loss; page loads
/// count their head-of-line stalls once per page instead.
pub(crate) fn count_loss_stall(transport: DnsTransport) {
    match transport {
        DnsTransport::Do53 => dohperf_telemetry::counter!("proxy.transport_udp_timeouts").inc(),
        DnsTransport::DoH | DnsTransport::DoT => {
            dohperf_telemetry::counter!("proxy.h2_loss_stalls").inc()
        }
        DnsTransport::DoQ => dohperf_telemetry::counter!("proxy.quic_loss_stalls").inc(),
    }
}

/// How the provider answered one query at its PoP.
#[derive(Debug, Clone, Copy)]
pub struct PopAnswer {
    /// Answered from the PoP's cache, without recursion.
    pub cache_hit: bool,
    /// PoP ↔ authoritative round trip (zero on a cache hit).
    pub recursion: SimDuration,
    /// Provider processing: a cache lookup on a hit, otherwise
    /// [`ProviderKind::processing_time`] plus the client's
    /// [`ProviderKind::forwarding_penalty`].
    pub processing: SimDuration,
}

impl PopAnswer {
    /// Recursion plus processing.
    pub fn elapsed(&self) -> SimDuration {
        self.recursion + self.processing
    }
}

/// Draw the provider side of one query: a cache hit with probability
/// `cache_hit_p`, else recursion from `pop` to `auth`, then the
/// processing time. Does not advance the clock.
pub fn pop_answer(
    sim: &mut Simulator,
    exit: &ExitNode,
    pop: NodeId,
    auth: NodeId,
    provider: ProviderKind,
    cache_hit_p: f64,
    rng: &mut SimRng,
) -> PopAnswer {
    if rng.chance(cache_hit_p) {
        PopAnswer {
            cache_hit: true,
            recursion: SimDuration::ZERO,
            processing: SimDuration::from_millis_f64(rng.lognormal_median(1.5, 0.3)),
        }
    } else {
        PopAnswer {
            cache_hit: false,
            recursion: sim.rtt(pop, auth),
            processing: provider.processing_time(rng) + provider.forwarding_penalty(exit.id, rng),
        }
    }
}

/// Charge the handshake bill for one acquisition and advance the clock
/// by it: [`DnsTransport::handshake_rtts`] sampled round trips plus (on
/// full handshakes of encrypted transports) the endpoint crypto
/// overhead. Resumed handshakes are ticket-based and skip the
/// asymmetric crypto.
pub fn handshake_bill(
    sim: &mut Simulator,
    exit: &ExitNode,
    pop: NodeId,
    transport: DnsTransport,
    warmth: Warmth,
    rng: &mut SimRng,
) -> SimDuration {
    let mut cost = SimDuration::ZERO;
    for _ in 0..transport.handshake_rtts(warmth) {
        cost += sim.rtt(exit.node, pop);
    }
    if transport.is_encrypted() && warmth == Warmth::Cold {
        cost += exit.handshake_crypto_overhead(rng);
    }
    sim.advance(cost);
    cost
}

impl BrightDataNetwork {
    /// Measure one transport's full connection lifecycle against a
    /// provider PoP: cold handshake + query, warm reuse, deterministic
    /// idle timeout, resumed re-establishment + query.
    ///
    /// `rng` must be a dedicated fork — the campaign derives one per
    /// (client, provider, transport) so these draws never perturb the
    /// legacy measurement lineage.
    #[allow(clippy::too_many_arguments)]
    pub fn transport_measurement(
        &self,
        sim: &mut Simulator,
        exit: &ExitNode,
        provider: ProviderKind,
        deployment: &PopDeployment,
        pop_index: usize,
        auth: NodeId,
        transport: DnsTransport,
        extra_loss_p: f64,
        cache_hit_p: f64,
        rng: &mut SimRng,
    ) -> TransportObservation {
        let pop = deployment.sites()[pop_index].node;
        dohperf_telemetry::counter!("proxy.transport_measurements").inc();
        let recording = flight::active();
        let mut conn = Connection::new(transport);
        // One query on the acquired connection, advancing the clock:
        // returns the elapsed time and its framing component.
        let query = |sim: &mut Simulator, rng: &mut SimRng| {
            let q = query_leg(sim, exit, pop, transport, extra_loss_p, rng);
            if q.stall.is_some() {
                count_loss_stall(transport);
            }
            let answer = pop_answer(sim, exit, pop, auth, provider, cache_hit_p, rng);
            let elapsed = q.leg + q.framing + answer.elapsed();
            sim.advance(elapsed);
            (elapsed, q.framing)
        };
        // One handshake billed at `billed` warmth, in a span labelled
        // with what the connection reported for the acquisition.
        let handshake = |sim: &mut Simulator, rng: &mut SimRng, acq: Acquired, billed: Warmth| {
            let start = sim.now().as_nanos();
            let hs_span = if recording {
                let name = format!("{}-handshake ({})", transport.name(), billed.name());
                flight::start_span("proxy", name, start)
            } else {
                flight::SpanToken::NOOP
            };
            let cost = handshake_bill(sim, exit, pop, transport, billed, rng);
            if recording {
                let rtts = transport.handshake_rtts(billed);
                flight::attr(hs_span, "warmth", acq.warmth.name());
                flight::attr(hs_span, "generation", format!("{}", acq.generation));
                flight::attr(hs_span, "handshake_rtts", format!("{rtts}"));
                flight::attr(hs_span, "handshake_ms", format!("{}", cost.as_millis_f64()));
                flight::end_span(hs_span, sim.now().as_nanos());
            }
        };

        let t_a = sim.now();
        let span = if recording {
            flight::start_span(
                "proxy",
                format!("transport {} {}", transport.name(), provider.hostname()),
                t_a.as_nanos(),
            )
        } else {
            flight::SpanToken::NOOP
        };

        // Bootstrap: resolve the provider hostname (encrypted transports
        // only; plain Do53 targets the resolver address directly).
        let bootstrap = if transport.is_encrypted() {
            exit.do53_bootstrap(sim, pop, provider.hostname(), BOOTSTRAP_CACHE_HIT_P, rng)
        } else {
            SimDuration::ZERO
        };
        sim.advance(bootstrap);
        let t_bs = sim.now();

        // Cold handshake.
        let cold = conn.acquire(t_bs);
        debug_assert_eq!(cold.warmth, Warmth::Cold);
        handshake(sim, rng, cold, cold.warmth);
        let t_hs = sim.now();

        // Cold query on the new connection.
        let (_, cold_framing) = query(sim, rng);
        let t_cold_done = sim.now();

        // Warm reuse inside the keep-alive window.
        let t_warm_start = sim.now();
        let warm = conn.acquire(t_warm_start);
        debug_assert_eq!(warm.warmth, Warmth::Warm);
        debug_assert_eq!(warm.generation, cold.generation);
        let _ = warm;
        let (warm_elapsed, warm_framing) = query(sim, rng);
        let t_warm_done = sim.now();

        // Let the connection idle out, then resume with the session
        // ticket (TLS 1.3 PSK over a fresh TCP handshake; QUIC 0-RTT).
        // Do53 has no connection to expire: its "resumed" query is just
        // another stand-alone datagram after a short gap.
        let idle_gap = if transport.is_encrypted() {
            transport.idle_timeout() + SimDuration::from_millis(1)
        } else {
            SimDuration::from_millis(1)
        };
        sim.advance(idle_gap);
        let t_resumed_start = sim.now();
        let resumed = conn.acquire(t_resumed_start);
        debug_assert_eq!(
            resumed.warmth,
            if transport.is_encrypted() {
                Warmth::Resumed
            } else {
                Warmth::Warm
            }
        );
        handshake(sim, rng, resumed, Warmth::Resumed);
        let t_resumed_hs = sim.now();
        if transport.is_encrypted() {
            dohperf_telemetry::counter!("proxy.transport_resumptions").inc();
        }
        let (_, resumed_framing) = query(sim, rng);
        let t_resumed_done = sim.now();

        if recording {
            flight::attr(span, "transport", transport.name());
            flight::attr(span, "rfc", transport.rfc());
            flight::attr(
                span,
                "cold_ms",
                format!("{}", t_cold_done.saturating_since(t_a).as_millis_f64()),
            );
            flight::attr(span, "warm_ms", format!("{}", warm_elapsed.as_millis_f64()));
            flight::attr(
                span,
                "resumed_ms",
                format!(
                    "{}",
                    t_resumed_done
                        .saturating_since(t_resumed_start)
                        .as_millis_f64()
                ),
            );
            flight::end_span(span, t_resumed_done.as_nanos());
        }

        TransportObservation {
            transport,
            t_a,
            t_bs,
            t_hs,
            t_cold_done,
            t_warm_start,
            t_warm_done,
            t_resumed_start,
            t_resumed_hs,
            t_resumed_done,
            cold_framing,
            warm_framing,
            resumed_framing,
            cold_generation: cold.generation,
            resumed_generation: resumed.generation,
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
        auth: NodeId,
        deployment: PopDeployment,
    }

    /// Deterministic fixture: two fixtures built with the same seed are
    /// twin simulators with identical internal RNG state, which the
    /// differential tests rely on.
    fn fixture(seed: u64) -> Fixture {
        let mut sim = Simulator::new(seed);
        let network = BrightDataNetwork::deploy(&mut sim);
        let us = country("US").unwrap();
        let auth = sim.add_node(
            NodeSpec::new(
                "auth-ns",
                GeoPoint::new(39.0, -77.5),
                NodeRole::AuthoritativeNs,
            )
            .with_infra(us.datacenter_profile()),
        );
        let deployment = PopDeployment::deploy(ProviderKind::Cloudflare, &mut sim);
        Fixture {
            sim,
            network,
            auth,
            deployment,
        }
    }

    fn exit_in(fx: &mut Fixture, iso: &str, id: u64) -> ExitNode {
        let c = country(iso).unwrap();
        let mut geoloc = GeolocationService::new(SimRng::new(id), 0.0, vec!["BR", "US"]);
        let mut rng = SimRng::new(id);
        ExitNode::create(&mut fx.sim, &mut geoloc, c, 0, c.centroid(), id, &mut rng)
    }

    /// Run one lifecycle measurement on a fresh twin fixture.
    fn measure(
        seed: u64,
        rng_seed: u64,
        transport: DnsTransport,
        loss: f64,
    ) -> TransportObservation {
        let mut fx = fixture(seed);
        let exit = exit_in(&mut fx, "BR", 1);
        let pop_index = fx.deployment.nearest_index(&exit.position);
        let mut rng = SimRng::new(rng_seed);
        fx.network.transport_measurement(
            &mut fx.sim,
            &exit,
            ProviderKind::Cloudflare,
            &fx.deployment,
            pop_index,
            fx.auth,
            transport,
            loss,
            0.0,
            &mut rng,
        )
    }

    fn ms(d: SimDuration) -> f64 {
        d.as_millis_f64()
    }

    #[test]
    fn lifecycle_observation_is_ordered() {
        let obs = measure(77, 5, DnsTransport::DoT, 0.0);
        assert!(obs.t_a <= obs.t_bs);
        assert!(obs.t_bs < obs.t_hs, "cold handshake takes time");
        assert!(obs.t_hs < obs.t_cold_done);
        assert!(obs.t_warm_start < obs.t_warm_done);
        assert!(obs.t_resumed_start < obs.t_resumed_hs, "resumed TCP rtt");
        assert!(obs.t_resumed_hs < obs.t_resumed_done);
        assert_eq!(obs.cold_generation, 1);
        assert_eq!(obs.resumed_generation, 2, "timeout bumps the generation");
    }

    #[test]
    fn doq_resumption_is_zero_rtt() {
        let obs = measure(77, 5, DnsTransport::DoQ, 0.0);
        // 0-RTT: the re-establishment itself costs nothing; the query
        // rides in the first flight.
        assert_eq!(obs.t_resumed_start, obs.t_resumed_hs);
        assert_eq!(obs.resumed_generation, 2);
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = measure(21, 9, DnsTransport::DoQ, 0.1);
        let b = measure(21, 9, DnsTransport::DoQ, 0.1);
        assert_eq!(a, b);
    }

    /// Satellite (differential suite): with identical RNG lineage and a
    /// zero-loss network, warm DoT and warm DoH (a single H2 stream)
    /// derive the identical transport time minus the H2 framing delta —
    /// and the same holds for the cold and resumed queries, since
    /// DoH/DoT share the TCP+TLS handshake structure.
    #[test]
    fn warm_dot_equals_warm_doh_minus_framing_delta() {
        for (sim_seed, rng_seed) in [(77, 5), (21, 9), (1234, 42), (9, 1)] {
            let doh = measure(sim_seed, rng_seed, DnsTransport::DoH, 0.0);
            let dot = measure(sim_seed, rng_seed, DnsTransport::DoT, 0.0);

            let doh_warm = ms(doh.t_warm_done.saturating_since(doh.t_warm_start));
            let dot_warm = ms(dot.t_warm_done.saturating_since(dot.t_warm_start));
            // Identical draws, so the only difference is the framing.
            assert!(
                (doh_warm - ms(doh.warm_framing) - (dot_warm - ms(dot.warm_framing))).abs() < 1e-6,
                "seed ({sim_seed},{rng_seed}): doh {doh_warm} dot {dot_warm}"
            );
            assert!(
                ms(doh.warm_framing) > ms(dot.warm_framing),
                "H2 frames heavier"
            );

            let doh_cold = ms(doh.t_cold_done.saturating_since(doh.t_a));
            let dot_cold = ms(dot.t_cold_done.saturating_since(dot.t_a));
            assert!(
                (doh_cold - ms(doh.cold_framing) - (dot_cold - ms(dot.cold_framing))).abs() < 1e-6,
                "cold paths diverged beyond framing"
            );
        }
    }

    /// Satellite (differential suite): DoQ 0-RTT ≤ DoQ 1-RTT ≤ DoT cold
    /// handshake, pointwise on twin simulators (the shared draws make
    /// the comparison exact, not statistical).
    #[test]
    fn doq_handshake_monotonicity_pointwise() {
        for (sim_seed, rng_seed) in [(77, 5), (21, 9), (1234, 42), (9, 1), (400, 8)] {
            let doq = measure(sim_seed, rng_seed, DnsTransport::DoQ, 0.0);
            let dot = measure(sim_seed, rng_seed, DnsTransport::DoT, 0.0);
            let doq_zero_rtt = ms(doq.t_resumed_hs.saturating_since(doq.t_resumed_start));
            let doq_one_rtt = ms(doq.t_hs.saturating_since(doq.t_bs));
            let dot_cold = ms(dot.t_hs.saturating_since(dot.t_bs));
            assert!(
                doq_zero_rtt <= doq_one_rtt,
                "0-RTT {doq_zero_rtt} > 1-RTT {doq_one_rtt}"
            );
            assert!(
                doq_one_rtt <= dot_cold,
                "DoQ cold {doq_one_rtt} > DoT cold {dot_cold}"
            );
        }
    }

    /// Satellite (lifecycle suite): the fault injector's loss knob
    /// separates H2 from QUIC. The loss *pattern* is shared (the chance
    /// draws come from the aligned measurement rng), but each loss event
    /// stalls TCP-based DoH for ~2 RTTs versus ~1 for QUIC, so DoH's
    /// tail is strictly heavier.
    #[test]
    fn loss_separates_h2_from_quic_tails() {
        let loss = 0.35;
        let mut doh_warm = Vec::new();
        let mut doq_warm = Vec::new();
        for rng_seed in 0..60 {
            let doh = measure(500 + rng_seed, rng_seed, DnsTransport::DoH, loss);
            let doq = measure(500 + rng_seed, rng_seed, DnsTransport::DoQ, loss);
            // Subtract framing so only loss recovery and shared draws
            // remain in the comparison.
            doh_warm.push(
                ms(doh.t_warm_done.saturating_since(doh.t_warm_start)) - ms(doh.warm_framing),
            );
            doq_warm.push(
                ms(doq.t_warm_done.saturating_since(doq.t_warm_start)) - ms(doq.warm_framing),
            );
        }
        let tail = |xs: &mut Vec<f64>| {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            xs[(xs.len() as f64 * 0.9) as usize]
        };
        let doh_p90 = tail(&mut doh_warm);
        let doq_p90 = tail(&mut doq_warm);
        assert!(
            doh_p90 > doq_p90,
            "H2 tail {doh_p90} should exceed QUIC tail {doq_p90} under loss"
        );
    }

    #[test]
    fn zero_loss_never_stalls() {
        let sums: f64 = (0..10)
            .map(|s| {
                let doh = measure(600 + s, s, DnsTransport::DoH, 0.0);
                let doq = measure(600 + s, s, DnsTransport::DoQ, 0.0);
                ms(doh.t_warm_done.saturating_since(doh.t_warm_start))
                    + ms(doq.t_warm_done.saturating_since(doq.t_warm_start))
            })
            .sum();
        assert!(sums > 0.0);
        // No UDP timer is ever burned without loss.
        let obs = measure(700, 3, DnsTransport::Do53, 0.0);
        assert!(ms(obs.t_warm_done.saturating_since(obs.t_warm_start)) < 1000.0);
    }
}

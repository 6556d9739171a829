//! Property-based tests on the Figure 2 choreography: observables are
//! well-ordered and ground truth stays physically sensible for arbitrary
//! countries, providers and seeds.

use dohperf_netsim::engine::Simulator;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::topology::{GeoPoint, NodeId, NodeRole, NodeSpec};
use dohperf_providers::pops::PopDeployment;
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_proxy::exitnode::ExitNode;
use dohperf_proxy::network::BrightDataNetwork;
use dohperf_proxy::superproxy::{nearest_super_proxy, SuperProxy};
use dohperf_world::countries::all_countries;
use dohperf_world::geoloc::GeolocationService;
use proptest::prelude::*;

fn build(
    seed: u64,
    country_idx: usize,
    provider_idx: usize,
) -> (
    Simulator,
    BrightDataNetwork,
    ExitNode,
    PopDeployment,
    ProviderKind,
    NodeId,
    NodeId,
) {
    let mut sim = Simulator::new(seed);
    let network = BrightDataNetwork::deploy(&mut sim);
    let client = sim.add_node(NodeSpec::new(
        "mc",
        GeoPoint::new(40.1, -88.2),
        NodeRole::Server,
    ));
    let auth = sim.add_node(NodeSpec::new(
        "auth",
        GeoPoint::new(39.0, -77.5),
        NodeRole::AuthoritativeNs,
    ));
    let provider = ALL_PROVIDERS[provider_idx % ALL_PROVIDERS.len()];
    let deployment = PopDeployment::deploy(provider, &mut sim);
    let countries = all_countries();
    let c = &countries[country_idx % countries.len()];
    let mut geoloc = GeolocationService::new(SimRng::new(seed), 0.0, vec![c.iso]);
    let mut rng = SimRng::new(seed ^ 0xABCD);
    let exit = ExitNode::create(&mut sim, &mut geoloc, c, 0, c.centroid(), 1, &mut rng);
    (sim, network, exit, deployment, provider, client, auth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Timestamps are ordered, headers positive, ground truth physical.
    #[test]
    fn doh_observables_are_well_formed(
        seed in 0u64..10_000,
        ci in 0usize..240,
        pi in 0usize..4,
    ) {
        let (mut sim, network, exit, deployment, provider, client, auth) = build(seed, ci, pi);
        let pop_index = deployment.nearest_index(&exit.position);
        let mut rng = SimRng::new(seed ^ 0xF00D);
        let obs = network.doh_measurement(
            &mut sim, client, &exit, provider, &deployment, pop_index, auth, &mut rng,
        );
        prop_assert!(obs.t_a < obs.t_b);
        prop_assert!(obs.t_b <= obs.t_c);
        prop_assert!(obs.t_c < obs.t_d);
        prop_assert!(obs.tun.dns.as_millis_f64() > 0.0);
        prop_assert!(obs.tun.connect.as_millis_f64() > 0.0);
        prop_assert!(obs.proxy.total().as_millis_f64() > 0.0);
        // DoHR beats DoH1 in aggregate (handshake-free), but an unlucky
        // per-query draw can cross; require positivity here and check the
        // aggregate ordering below with repeated measurements.
        prop_assert!(obs.truth_t_dohr.as_millis_f64() > 0.0);
        // Physical bounds: below 20 seconds even in the worst market.
        prop_assert!(obs.truth_t_doh.as_millis_f64() < 20_000.0);
        // In expectation DoH1 exceeds DoHR by exactly the handshake
        // components; compare means so per-query noise (large for
        // NextDNS's heavy-tailed forwarding penalty) cannot flake.
        let mut sum_doh = 0.0;
        let mut sum_dohr = 0.0;
        for _ in 0..15 {
            let o = network.doh_measurement(
                &mut sim, client, &exit, provider, &deployment, pop_index, auth, &mut rng,
            );
            sum_doh += o.truth_t_doh.as_millis_f64();
            sum_dohr += o.truth_t_dohr.as_millis_f64();
        }
        prop_assert!(
            sum_dohr < sum_doh,
            "mean DoHR {:.1} should beat mean DoH1 {:.1}",
            sum_dohr / 15.0,
            sum_doh / 15.0
        );
    }

    /// The Equation 7 estimate tracks truth within jitter even at fleet
    /// scale: a crude bound of 150ms absolute (typical errors are ~5ms;
    /// residential device effects push the tail, never past this).
    #[test]
    fn derivation_stays_near_truth(
        seed in 0u64..10_000,
        ci in 0usize..240,
    ) {
        let (mut sim, network, exit, deployment, provider, client, auth) = build(seed, ci, 0);
        let pop_index = deployment.nearest_index(&exit.position);
        let mut rng = SimRng::new(seed ^ 0xBEEF);
        let obs = network.doh_measurement(
            &mut sim, client, &exit, provider, &deployment, pop_index, auth, &mut rng,
        );
        let derived = dohperf_core_shim::derive_t_doh_ms(&obs);
        let truth = obs.truth_t_doh.as_millis_f64();
        prop_assert!((derived - truth).abs() < 150.0, "derived {derived} truth {truth}");
    }

    /// Do53 headers equal ground truth exactly outside Super Proxy
    /// countries, and never do the measurement's country bookkeeping harm.
    #[test]
    fn do53_header_contract(
        seed in 0u64..10_000,
        ci in 0usize..240,
    ) {
        let (mut sim, network, exit, _dep, _p, client, auth) = build(seed, ci, 0);
        let web = sim.add_node(NodeSpec::new(
            "web",
            GeoPoint::new(39.0, -77.5),
            NodeRole::Server,
        ));
        let mut rng = SimRng::new(seed ^ 0xCAFE);
        let obs = network.do53_measurement(
            &mut sim, client, &exit, web, auth, "uuid.a.com", &mut rng,
        );
        if obs.resolved_at_super_proxy {
            prop_assert!(dohperf_world::countries::SUPER_PROXY_COUNTRIES
                .contains(&exit.country_iso));
        } else {
            prop_assert_eq!(obs.tun.dns, obs.truth_t_do53);
        }
        prop_assert!(obs.truth_t_do53.as_millis_f64() > 0.0);
    }
}

/// Test-only oracle: index of the first fleet member at the smallest
/// exact distance, by stable-sorting the whole fleet.
fn brute_force_nearest(fleet: &[SuperProxy], pos: &GeoPoint) -> usize {
    let mut all: Vec<(usize, f64)> = fleet
        .iter()
        .enumerate()
        .map(|(i, sp)| (i, pos.distance_km(&sp.position)))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
    all[0].0
}

/// A random position (probes 0–1), a fleet member's own position (2), its
/// antipode (3), a pole (4) or the ±180° meridian (5).
fn probe_position(fleet: &[SuperProxy], probe: usize, pick: usize, lat: f64, lon: f64) -> GeoPoint {
    let member = fleet[pick % fleet.len()].position;
    let sign = if pick.is_multiple_of(2) { 1.0 } else { -1.0 };
    match probe {
        2 => member,
        3 => GeoPoint::new(
            -member.lat,
            if member.lon > 0.0 {
                member.lon - 180.0
            } else {
                member.lon + 180.0
            },
        ),
        4 => GeoPoint::new(90.0 * sign, lon),
        5 => GeoPoint::new(lat, 180.0 * sign),
        _ => GeoPoint::new(lat, lon),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `nearest_super_proxy` is the brute-force nearest member, and the
    /// network's memoised `super_proxy_for` agrees with it as the client
    /// it serves moves between two positions.
    #[test]
    fn nearest_super_proxy_is_the_brute_force_nearest(
        probes in (0usize..6, 0usize..6),
        picks in (0usize..64, 0usize..64),
        lats in (-90.0f64..90.0, -90.0f64..90.0),
        lons in (-180.0f64..180.0, -180.0f64..180.0),
    ) {
        let mut sim = Simulator::new(1);
        let network = BrightDataNetwork::deploy(&mut sim);
        let fleet = network.super_proxies();
        let p = probe_position(fleet, probes.0, picks.0, lats.0, lons.0);
        let q = probe_position(fleet, probes.1, picks.1, lats.1, lons.1);
        let nearest = |pos: &GeoPoint| {
            let sp = nearest_super_proxy(fleet, pos);
            fleet.iter().position(|m| std::ptr::eq(m, sp)).expect("a fleet member")
        };
        prop_assert_eq!(nearest(&p), brute_force_nearest(fleet, &p));
        prop_assert_eq!(nearest(&q), brute_force_nearest(fleet, &q));
        let at_p = sim.add_node(NodeSpec::new("p", p, NodeRole::Server));
        let at_q = sim.add_node(NodeSpec::new("q", q, NodeRole::Server));
        for client in [at_p, at_p, at_q, at_p, at_q, at_q] {
            let pos = sim.topology().node(client).spec.position;
            let served = network.super_proxy_for(&sim, client);
            prop_assert_eq!(served.node, fleet[brute_force_nearest(fleet, &pos)].node);
        }
    }
}

/// Equations live in dohperf-core, which depends on this crate; re-derive
/// Equation 7 locally to avoid a circular dev-dependency.
mod dohperf_core_shim {
    use dohperf_proxy::observation::DohObservation;
    pub fn derive_t_doh_ms(obs: &DohObservation) -> f64 {
        let td_tc = obs.t_d.saturating_since(obs.t_c).as_millis_f64();
        let tb_ta = obs.t_b.saturating_since(obs.t_a).as_millis_f64();
        td_tc - 2.0 * tb_ta
            + 3.0 * obs.tun.total().as_millis_f64()
            + 2.0 * obs.proxy.total().as_millis_f64()
    }
}

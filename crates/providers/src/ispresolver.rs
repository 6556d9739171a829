//! The Do53 default-resolver model.
//!
//! Exit nodes resolve through whatever their OS is configured with —
//! almost always the ISP's recursive resolver (§4.3). Resolver quality is
//! the hidden variable behind two of the paper's findings:
//!
//! * **8.8% of countries speed up under DoH** (§5.3, e.g. Brazil −33%,
//!   Indonesia −179ms): some national ISP markets run chronically poor
//!   resolver fleets — tromboned through a foreign transit hub and/or
//!   overloaded — so even a full TLS handshake to a nearby anycast PoP
//!   beats the default path. We model a latent per-country resolver
//!   quality: a persistent ~10% of markets are "poor".
//! * **Speedup clients skew to good infrastructure** (§6.2: 84% of
//!   speedup clients have fast national broadband): poor resolver markets
//!   are *independent* of infrastructure investment, but only clients
//!   with a close, well-peered PoP can capitalise — so observed speedups
//!   concentrate in well-connected countries.
//!
//! Per client, the trombone (resolution abroad) and overload (slow,
//! oversubscribed resolver) flags are sticky: a machine keeps its ISP for
//! the whole campaign.

use dohperf_netsim::engine::Simulator;
use dohperf_netsim::rng::{fnv1a, SimRng};
use dohperf_netsim::time::SimDuration;
use dohperf_netsim::topology::{GeoPoint, NodeId, NodeRole, NodeSpec};
use dohperf_world::countries::Country;

/// Remote hubs where tromboned resolvers actually live (major transit
/// cities).
const TROMBONE_HUBS: [(f64, f64); 6] = [
    (50.11, 8.68),   // Frankfurt
    (51.51, -0.13),  // London
    (48.86, 2.35),   // Paris
    (39.04, -77.49), // Ashburn
    (1.35, 103.82),  // Singapore
    (25.20, 55.27),  // Dubai
];

/// Fraction of national markets with persistently poor resolver fleets.
const POOR_MARKET_FRACTION: u64 = 10; // percent

/// Trombone probability per client in a poor vs. normal market.
const P_TROMBONE_POOR: f64 = 0.75;
/// Trombone probability in a normal market.
const P_TROMBONE_NORMAL: f64 = 0.08;
/// Overload probability per client in a poor market.
const P_OVERLOAD_POOR: f64 = 0.70;
/// Overload probability in a normal market.
const P_OVERLOAD_NORMAL: f64 = 0.15;
/// Median processing time of an overloaded resolver (ms).
const OVERLOAD_MEDIAN_MS: f64 = 200.0;

/// One client's resolved ISP-resolver behaviour.
#[derive(Debug, Clone, Copy)]
pub struct IspResolverModel {
    /// Whether this client's recursion happens abroad.
    pub tromboned: bool,
    /// Whether this client's resolver is chronically overloaded.
    pub overloaded: bool,
    /// Median processing time of a healthy resolver here (ms).
    pub processing_median_ms: f64,
}

/// Is this country one of the persistently poor resolver markets?
///
/// Keyed by a stable hash of the ISO code: a market's quality is a fact
/// about the country, not about the simulation seed.
fn poor_resolver_market(country: &Country) -> bool {
    fnv1a(country.iso.as_bytes()) % 100 < POOR_MARKET_FRACTION
}

impl IspResolverModel {
    /// Resolve the sticky per-client flags for a client in `country`.
    pub fn for_client(country: &Country, client_rng: &mut SimRng) -> Self {
        let poor = poor_resolver_market(country);
        let (p_tr, p_ov) = if poor {
            (P_TROMBONE_POOR, P_OVERLOAD_POOR)
        } else {
            (P_TROMBONE_NORMAL, P_OVERLOAD_NORMAL)
        };
        let ases = f64::from(country.as_count.max(1));
        // Healthy resolvers are a little slower in thin markets (smaller
        // caches, less hardware); on top of the national tendency, each
        // ISP's fleet quality varies widely — residential resolver
        // performance is extremely heterogeneous in practice, and that
        // client-level spread is what keeps the paper's odds ratios in
        // the ~2x range rather than exploding.
        let national_median = (20.0 - 2.0 * ases.ln()).clamp(8.0, 20.0);
        let client_median = client_rng.lognormal_median(national_median, 0.8);
        IspResolverModel {
            tromboned: client_rng.chance(p_tr),
            overloaded: client_rng.chance(p_ov),
            processing_median_ms: client_median,
        }
    }

    /// Backwards-compatible constructor using a country-keyed stream, for
    /// callers that do not carry a client stream (tests, probes).
    pub fn for_country(country: &'static Country) -> Self {
        let mut rng = SimRng::new(fnv1a(country.iso.as_bytes()));
        Self::for_client(country, &mut rng)
    }

    /// Place this client's default resolver in the simulator, returning
    /// its node.
    pub fn place(
        &self,
        sim: &mut Simulator,
        country: &Country,
        client_pos: GeoPoint,
        client_rng: &mut SimRng,
    ) -> NodeId {
        let position = if self.tromboned {
            let (lat, lon) = *client_rng.choose(&TROMBONE_HUBS);
            GeoPoint::new(lat, lon)
        } else {
            // In-country: near the client with modest scatter.
            GeoPoint::new(
                client_pos.lat + client_rng.normal(0.0, 0.7),
                client_pos.lon + client_rng.normal(0.0, 0.7),
            )
        };
        sim.add_node(
            NodeSpec::new(
                format!("isp-resolver-{}", country.iso),
                position,
                NodeRole::IspResolver,
            )
            .with_infra(country.datacenter_profile())
            .with_country(country.iso_bytes()),
        )
    }

    /// Sample the resolver's processing time for one cache-miss recursion.
    pub fn processing_time(&self, rng: &mut SimRng) -> SimDuration {
        let median = if self.overloaded {
            OVERLOAD_MEDIAN_MS
        } else {
            self.processing_median_ms
        };
        SimDuration::from_millis_f64(rng.lognormal_median(median, 0.4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_world::countries::{all_countries, country};

    #[test]
    fn roughly_ten_percent_of_markets_are_poor() {
        let poor = all_countries()
            .iter()
            .filter(|c| poor_resolver_market(c))
            .count();
        let frac = poor as f64 / all_countries().len() as f64;
        assert!((0.04..0.20).contains(&frac), "poor fraction {frac}");
    }

    #[test]
    fn poor_markets_trombone_and_overload_more() {
        let poor = all_countries()
            .iter()
            .find(|c| poor_resolver_market(c))
            .expect("some poor market exists");
        let normal = all_countries()
            .iter()
            .find(|c| !poor_resolver_market(c))
            .expect("some normal market exists");
        let rate = |c: &'static Country| {
            let mut tromboned = 0;
            for i in 0..500u64 {
                let mut rng = SimRng::new(i).fork("client");
                if IspResolverModel::for_client(c, &mut rng).tromboned {
                    tromboned += 1;
                }
            }
            tromboned as f64 / 500.0
        };
        assert!(rate(poor) > 0.4, "poor {}", rate(poor));
        assert!(rate(normal) < 0.2, "normal {}", rate(normal));
    }

    #[test]
    fn processing_tends_to_order_by_infrastructure() {
        // Aggregate over many clients: thin markets (Chad) have slower
        // healthy-resolver medians than dense ones (Germany).
        let mean_median = |iso: &str| {
            let c = country(iso).unwrap();
            (0..400u64)
                .map(|i| {
                    let mut rng = SimRng::new(i).fork("m");
                    IspResolverModel::for_client(c, &mut rng).processing_median_ms
                })
                .sum::<f64>()
                / 400.0
        };
        assert!(mean_median("TD") > mean_median("DE"));
    }

    #[test]
    fn overloaded_resolvers_are_much_slower() {
        let healthy = IspResolverModel {
            tromboned: false,
            overloaded: false,
            processing_median_ms: 8.0,
        };
        let overloaded = IspResolverModel {
            overloaded: true,
            ..healthy
        };
        let mut rng = SimRng::new(5);
        let mean = |m: &IspResolverModel, rng: &mut SimRng| {
            (0..500)
                .map(|_| m.processing_time(rng).as_millis_f64())
                .sum::<f64>()
                / 500.0
        };
        assert!(mean(&overloaded, &mut rng) > 5.0 * mean(&healthy, &mut rng));
    }

    #[test]
    fn placement_is_sticky_and_trombones_land_abroad() {
        let c = country("BR").unwrap();
        let pos = GeoPoint::new(-23.55, -46.63);
        let mut sim = Simulator::new(4);
        let model = IspResolverModel {
            tromboned: true,
            overloaded: false,
            processing_median_ms: 8.0,
        };
        let n1 = model.place(&mut sim, c, pos, &mut SimRng::new(9).fork("r"));
        let n2 = model.place(&mut sim, c, pos, &mut SimRng::new(9).fork("r"));
        let p1 = sim.topology().node(n1).spec.position;
        let p2 = sim.topology().node(n2).spec.position;
        assert!((p1.lat - p2.lat).abs() < 1e-12);
        assert!(pos.distance_km(&p1) > 1500.0, "trombone should land abroad");
        let _ = p2;
    }

    #[test]
    fn local_placement_is_near_client() {
        let c = country("BR").unwrap();
        let pos = GeoPoint::new(-23.55, -46.63);
        let mut sim = Simulator::new(5);
        let model = IspResolverModel {
            tromboned: false,
            overloaded: false,
            processing_median_ms: 8.0,
        };
        let mut rng = SimRng::new(11);
        for _ in 0..50 {
            let node = model.place(&mut sim, c, pos, &mut rng);
            let rp = sim.topology().node(node).spec.position;
            assert!(pos.distance_km(&rp) < 500.0);
        }
    }

    #[test]
    fn flags_are_deterministic_per_client_stream() {
        let c = country("NG").unwrap();
        let a = IspResolverModel::for_client(c, &mut SimRng::new(7).fork("x"));
        let b = IspResolverModel::for_client(c, &mut SimRng::new(7).fork("x"));
        assert_eq!(a.tromboned, b.tromboned);
        assert_eq!(a.overloaded, b.overloaded);
    }
}

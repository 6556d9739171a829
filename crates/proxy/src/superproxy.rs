//! BrightData Super Proxies.
//!
//! The Super Proxy is the only thing a BrightData customer talks to: it
//! authenticates the client, selects an exit node in the requested
//! country, splices a CONNECT tunnel, and reports timing headers. The real
//! service operates Super Proxy servers in 11 countries (§3.5); clients
//! are served by a nearby one.

use dohperf_http::luminati::ProxyTimeline;
use dohperf_netsim::engine::Simulator;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::time::SimDuration;
use dohperf_netsim::topology::{GeoPoint, NodeId, NodeRole, NodeSpec};
use dohperf_world::countries::{country, SUPER_PROXY_COUNTRIES};

/// One Super Proxy instance.
#[derive(Debug, Clone, Copy)]
pub struct SuperProxy {
    /// Simulator node.
    pub node: NodeId,
    /// Country hosting this Super Proxy.
    pub country_iso: &'static str,
    /// Location.
    pub position: GeoPoint,
}

impl SuperProxy {
    /// Deploy one Super Proxy in each of the 11 documented countries.
    pub fn deploy_fleet(sim: &mut Simulator) -> Vec<SuperProxy> {
        SUPER_PROXY_COUNTRIES
            .iter()
            .map(|iso| {
                let c = country(iso).expect("super proxy country in table");
                let position = c.centroid();
                let node = sim.add_node(
                    NodeSpec::new(format!("superproxy-{iso}"), position, NodeRole::SuperProxy)
                        .with_infra(c.datacenter_profile())
                        .with_country(c.iso_bytes()),
                );
                SuperProxy {
                    node,
                    country_iso: c.iso,
                    position,
                }
            })
            .collect()
    }

    /// Sample the BrightData-box processing timeline for establishing one
    /// tunnel (client auth, proxy init, exit selection, domain check).
    /// Totals run 5–25ms, dominated by exit-node selection.
    pub fn processing_timeline(rng: &mut SimRng) -> ProxyTimeline {
        ProxyTimeline {
            auth: SimDuration::from_millis_f64(rng.lognormal_median(1.2, 0.3)),
            init: SimDuration::from_millis_f64(rng.lognormal_median(0.8, 0.3)),
            select_node: SimDuration::from_millis_f64(rng.lognormal_median(6.0, 0.5)),
            domain_check: SimDuration::from_millis_f64(rng.lognormal_median(0.5, 0.3)),
        }
    }

    /// Whether Do53 resolution is hijacked to the Super Proxy for exits in
    /// `country_iso` (the §3.5 limitation).
    pub fn resolves_dns_for(country_iso: &str) -> bool {
        SUPER_PROXY_COUNTRIES
            .iter()
            .any(|c| c.eq_ignore_ascii_case(country_iso))
    }
}

/// Pick the fleet member nearest to a client position (the first of
/// equally near members), one haversine per member.
pub fn nearest_super_proxy<'a>(fleet: &'a [SuperProxy], pos: &GeoPoint) -> &'a SuperProxy {
    fleet
        .iter()
        .map(|sp| (sp, pos.distance_km(&sp.position)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
        .expect("fleet is non-empty")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_covers_the_11_countries() {
        let mut sim = Simulator::new(1);
        let fleet = SuperProxy::deploy_fleet(&mut sim);
        assert_eq!(fleet.len(), 11);
        let isos: Vec<&str> = fleet.iter().map(|s| s.country_iso).collect();
        for iso in SUPER_PROXY_COUNTRIES {
            assert!(isos.contains(&iso), "{iso}");
        }
        assert_eq!(sim.topology().by_role(NodeRole::SuperProxy).count(), 11);
    }

    #[test]
    fn dns_hijack_only_in_sp_countries() {
        assert!(SuperProxy::resolves_dns_for("US"));
        assert!(SuperProxy::resolves_dns_for("us"));
        assert!(SuperProxy::resolves_dns_for("SG"));
        assert!(!SuperProxy::resolves_dns_for("BR"));
        assert!(!SuperProxy::resolves_dns_for("TD"));
    }

    #[test]
    fn nearest_selection() {
        let mut sim = Simulator::new(2);
        let fleet = SuperProxy::deploy_fleet(&mut sim);
        // A client in Brazil should be served from the US, not Japan.
        let sp = nearest_super_proxy(&fleet, &GeoPoint::new(-23.5, -46.6));
        assert_eq!(sp.country_iso, "US");
        // A client in Vietnam should get an Asian Super Proxy.
        let sp = nearest_super_proxy(&fleet, &GeoPoint::new(21.0, 105.8));
        assert!(matches!(sp.country_iso, "SG" | "JP" | "KR" | "IN"));
    }

    #[test]
    fn processing_timeline_plausible() {
        let mut rng = SimRng::new(3);
        for _ in 0..200 {
            let t = SuperProxy::processing_timeline(&mut rng);
            let total = t.total().as_millis_f64();
            assert!(total > 2.0 && total < 80.0, "total {total}");
        }
    }
}

//! The fixed experimental infrastructure of Figure 1.
//!
//! Everything the authors controlled: a measurement client, a web server
//! and the authoritative name server for the measurement zone `a.com`
//! (all hosted in the US), plus the deployed BrightData Super Proxy fleet
//! and the four DoH provider PoP fleets.

use dohperf_netsim::engine::Simulator;
use dohperf_netsim::topology::{GeoPoint, NodeId, NodeRole, NodeSpec};
use dohperf_providers::pops::PopDeployment;
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_proxy::network::BrightDataNetwork;
use dohperf_world::countries::country;

/// The measurement zone the authors control.
const MEASUREMENT_ZONE: &str = "a.com";

/// The assembled testbed.
pub struct Testbed {
    /// The simulator everything lives in.
    pub sim: Simulator,
    /// BrightData Super Proxy fleet.
    pub network: BrightDataNetwork,
    /// Provider PoP deployments, in [`ALL_PROVIDERS`] order.
    pub deployments: Vec<PopDeployment>,
    /// The authors' measurement client (Illinois).
    pub client: NodeId,
    /// The authors' web server (answers the Do53-triggering GETs).
    pub web_server: NodeId,
    /// The authoritative name server for `a.com`.
    pub auth_ns: NodeId,
    /// Node count after assembly — the first id available to per-client
    /// nodes. Campaign shards anchor client node ids at
    /// `base_nodes + 2 * in_country_offset` (each client adds exactly two
    /// nodes: exit host + resolver), so node ids are a pure function of
    /// the client's offset, not of which shard measured it.
    pub base_nodes: usize,
}

impl Testbed {
    /// Assemble the full testbed on a fresh simulator.
    pub fn new(seed: u64) -> Testbed {
        let mut sim = Simulator::new(seed);
        let network = BrightDataNetwork::deploy(&mut sim);
        let us = country("US").expect("US in table");
        let dc = us.datacenter_profile();
        // The authors ran from UIUC; the servers sit in a US data centre.
        let client = sim.add_node(
            NodeSpec::new(
                "measurement-client",
                GeoPoint::new(40.1, -88.2),
                NodeRole::Server,
            )
            .with_infra(dc)
            .with_country(*b"US"),
        );
        let web_server = sim.add_node(
            NodeSpec::new("web-server", GeoPoint::new(39.0, -77.5), NodeRole::Server)
                .with_infra(dc)
                .with_country(*b"US"),
        );
        let auth_ns = sim.add_node(
            NodeSpec::new(
                "auth-ns-a.com",
                GeoPoint::new(39.0, -77.5),
                NodeRole::AuthoritativeNs,
            )
            .with_infra(dc)
            .with_country(*b"US"),
        );
        let deployments = ALL_PROVIDERS
            .iter()
            .map(|&kind| PopDeployment::deploy(kind, &mut sim))
            .collect();
        let base_nodes = sim.next_node_index();
        Testbed {
            sim,
            network,
            deployments,
            client,
            web_server,
            auth_ns,
            base_nodes,
        }
    }

    /// The deployment for a provider.
    pub fn deployment(&self, kind: ProviderKind) -> &PopDeployment {
        let idx = ALL_PROVIDERS
            .iter()
            .position(|&k| k == kind)
            .expect("known provider");
        &self.deployments[idx]
    }

    /// Mint a fresh UUID-style subdomain of the measurement zone, one per
    /// request, defeating caches (§3.1).
    pub fn fresh_subdomain(&mut self) -> String {
        let mut buf = [0u8; SUBDOMAIN_BUF_LEN];
        format_subdomain(self.fresh_subdomain_id(), &mut buf).to_string()
    }

    /// Draw the id behind [`Self::fresh_subdomain`] — one RNG advance,
    /// exactly as the formatting path consumes — for callers that format
    /// the qname into their own stack buffer via [`format_subdomain`].
    pub fn fresh_subdomain_id(&mut self) -> u64 {
        self.sim.rng_mut().next_u64()
    }
}

/// Bytes needed to format a fresh subdomain: 16 hex digits, a dot, and
/// the measurement zone.
pub const SUBDOMAIN_BUF_LEN: usize = 17 + MEASUREMENT_ZONE.len();

/// Format `"{id:016x}.a.com"` into `buf` without allocating; returns the
/// string slice over the buffer.
pub fn format_subdomain(id: u64, buf: &mut [u8; SUBDOMAIN_BUF_LEN]) -> &str {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for i in 0..16 {
        buf[15 - i] = HEX[((id >> (4 * i)) & 0xF) as usize];
    }
    buf[16] = b'.';
    buf[17..].copy_from_slice(MEASUREMENT_ZONE.as_bytes());
    std::str::from_utf8(buf).expect("hex digits and zone are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_assembles_every_component() {
        let tb = Testbed::new(1);
        assert_eq!(tb.network.super_proxies().len(), 11);
        assert_eq!(tb.deployments.len(), 4);
        assert_eq!(tb.deployment(ProviderKind::Cloudflare).len(), 146);
        assert_eq!(tb.deployment(ProviderKind::Google).len(), 26);
        let topo = tb.sim.topology();
        assert_eq!(topo.node(tb.auth_ns).spec.role, NodeRole::AuthoritativeNs);
        assert_eq!(topo.node(tb.web_server).spec.role, NodeRole::Server);
    }

    #[test]
    fn fresh_subdomains_are_unique_and_in_zone() {
        let mut tb = Testbed::new(2);
        let a = tb.fresh_subdomain();
        let b = tb.fresh_subdomain();
        assert_ne!(a, b);
        assert!(a.ends_with(".a.com"));
    }

    #[test]
    fn format_subdomain_matches_format_macro() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX] {
            let mut buf = [0u8; SUBDOMAIN_BUF_LEN];
            assert_eq!(
                format_subdomain(id, &mut buf),
                format!("{id:016x}.{MEASUREMENT_ZONE}")
            );
        }
    }

    #[test]
    fn same_seed_same_testbed() {
        let a = Testbed::new(3);
        let b = Testbed::new(3);
        assert_eq!(a.sim.topology().len(), b.sim.topology().len());
    }
}

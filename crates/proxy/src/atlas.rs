//! A RIPE Atlas-style probe network.
//!
//! RIPE Atlas probes are volunteer-hosted residential devices that run
//! simple measurements directly — no proxy in the path — so their Do53
//! timings are trustworthy everywhere, including the 11 Super Proxy
//! countries where BrightData's headers are not (§3.5). The paper uses
//! Atlas for exactly that remedy and cross-validates the two platforms in
//! §4.4.

use dohperf_netsim::engine::Simulator;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::time::SimDuration;
use dohperf_netsim::topology::{GeoPoint, NodeId, NodeRole, NodeSpec};
use dohperf_providers::ispresolver::IspResolverModel;
use dohperf_world::countries::Country;

/// One Atlas probe: a residential device plus its default resolver.
#[derive(Debug, Clone)]
pub struct AtlasProbe {
    /// The probe device.
    pub node: NodeId,
    /// Country hosting the probe.
    pub country_iso: &'static str,
    /// The probe's default recursive resolver.
    pub resolver: NodeId,
    /// Resolver behaviour.
    pub resolver_model: IspResolverModel,
}

/// The probe network: pools of probes per country, created on demand.
#[derive(Debug, Default)]
pub struct AtlasNetwork {
    probes: Vec<AtlasProbe>,
}

impl AtlasNetwork {
    /// An empty network.
    pub fn new() -> Self {
        AtlasNetwork::default()
    }

    /// Deploy `count` probes in `country`, scattered around its centroid.
    pub fn deploy_probes(
        &mut self,
        sim: &mut Simulator,
        country: &'static Country,
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<usize> {
        dohperf_telemetry::counter!("proxy.atlas_probes_deployed").add(count as u64);
        let mut indices = Vec::with_capacity(count);
        for i in 0..count {
            let mut pr = rng.fork_indexed(&format!("atlas-{}", country.iso), i as u64);
            let position = GeoPoint::new(
                country.lat + pr.normal(0.0, 2.0),
                country.lon + pr.normal(0.0, 2.0),
            );
            let node = sim.add_node(
                NodeSpec::new(
                    format!("atlas-{}-{i}", country.iso),
                    position,
                    NodeRole::Client,
                )
                .with_infra(country.residential_profile())
                .with_country(country.iso_bytes()),
            );
            let resolver_model = IspResolverModel::for_client(country, &mut pr);
            let resolver = resolver_model.place(sim, country, position, &mut pr);
            indices.push(self.probes.len());
            self.probes.push(AtlasProbe {
                node,
                country_iso: country.iso,
                resolver,
                resolver_model,
            });
        }
        indices
    }

    /// All probes.
    pub fn probes(&self) -> &[AtlasProbe] {
        &self.probes
    }

    /// Run a direct Do53 cache-miss measurement at a probe: stub hop to
    /// its resolver, recursion to the authoritative server, processing.
    /// This is the same physical path an exit node's genuine Do53 takes,
    /// which is why the two platforms agree in §4.4.
    pub fn measure_do53(
        &self,
        sim: &mut Simulator,
        probe_index: usize,
        auth: NodeId,
        rng: &mut SimRng,
    ) -> SimDuration {
        dohperf_telemetry::counter!("proxy.atlas_remedy_queries").inc();
        let probe = &self.probes[probe_index];
        let stub = sim.rtt(probe.node, probe.resolver);
        let recursion = sim.rtt(probe.resolver, auth);
        let processing = probe.resolver_model.processing_time(rng);
        let total = stub + recursion + processing;
        sim.advance(total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_world::countries::country;

    impl AtlasNetwork {
        /// Probes in a country.
        fn probes_in<'a>(&'a self, iso: &'a str) -> impl Iterator<Item = &'a AtlasProbe> {
            self.probes
                .iter()
                .filter(move |p| p.country_iso.eq_ignore_ascii_case(iso))
        }
    }

    fn auth_node(sim: &mut Simulator) -> NodeId {
        sim.add_node(NodeSpec::new(
            "auth",
            GeoPoint::new(39.0, -77.5),
            NodeRole::AuthoritativeNs,
        ))
    }

    #[test]
    fn probes_deploy_in_country() {
        let mut sim = Simulator::new(31);
        let mut atlas = AtlasNetwork::new();
        let us = country("US").unwrap();
        let mut rng = SimRng::new(1);
        let idx = atlas.deploy_probes(&mut sim, us, 25, &mut rng);
        assert_eq!(idx.len(), 25);
        assert_eq!(atlas.probes_in("US").count(), 25);
        assert_eq!(atlas.probes_in("BR").count(), 0);
    }

    #[test]
    fn do53_measurement_is_plausible() {
        let mut sim = Simulator::new(32);
        let auth = auth_node(&mut sim);
        let mut atlas = AtlasNetwork::new();
        let de = country("DE").unwrap();
        let mut rng = SimRng::new(2);
        let idx = atlas.deploy_probes(&mut sim, de, 5, &mut rng);
        for &i in &idx {
            let d = atlas.measure_do53(&mut sim, i, auth, &mut rng);
            // Germany -> US recursion: tens to a couple hundred ms.
            let ms = d.as_millis_f64();
            assert!((40.0..600.0).contains(&ms), "{ms}");
        }
    }

    #[test]
    fn measurements_advance_clock() {
        let mut sim = Simulator::new(33);
        let auth = auth_node(&mut sim);
        let mut atlas = AtlasNetwork::new();
        let se = country("SE").unwrap();
        let mut rng = SimRng::new(3);
        let idx = atlas.deploy_probes(&mut sim, se, 1, &mut rng);
        let t0 = sim.now();
        atlas.measure_do53(&mut sim, idx[0], auth, &mut rng);
        assert!(sim.now() > t0);
    }

    #[test]
    fn deployment_is_deterministic() {
        let build = || {
            let mut sim = Simulator::new(34);
            let mut atlas = AtlasNetwork::new();
            let fr = country("FR").unwrap();
            let mut rng = SimRng::new(4);
            atlas.deploy_probes(&mut sim, fr, 3, &mut rng);
            atlas
                .probes()
                .iter()
                .map(|p| {
                    let _ = p;
                })
                .count()
        };
        assert_eq!(build(), build());
    }
}

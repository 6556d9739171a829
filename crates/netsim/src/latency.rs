//! The generative latency model.
//!
//! Latency between two Internet endpoints is modelled as
//!
//! ```text
//! RTT(a, b) = propagation(a, b) * inflation(a, b)   // speed of light in fibre
//!           + last_mile(a) + last_mile(b)           // access-network cost
//!           + jitter                                // per-sample noise
//! ```
//!
//! * **Propagation** is the geodesic round trip at ~200 km/ms one-way in
//!   fibre (i.e. RTT of ~1 ms per 100 km).
//! * **Inflation** captures that real Internet paths are not great circles:
//!   they detour through exchange points. Countries with dense peering (many
//!   ASes) have inflation near 1.4; poorly connected countries reach 3.4.
//!   This is the mechanism behind the paper's "number of ASes" covariate.
//! * **Last mile** is a lognormal per-endpoint cost; its median is derived
//!   from the national fixed-broadband speed (the Ookla covariate). Servers
//!   and PoPs sit in data centres with sub-millisecond last miles.
//! * **Jitter** is small lognormal noise making repeated samples realistic
//!   while keeping a *stable pair-wise base RTT* — the paper's Assumption 1
//!   (client↔exit RTT stability) must hold in the substrate for the
//!   methodology validation (§4) to be meaningful.

use crate::rng::SimRng;
use crate::time::SimDuration;
use crate::topology::{NodeId, Topology};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One-way speed of signal propagation in fibre, km per millisecond.
const FIBRE_KM_PER_MS: f64 = 200.0;

/// Infrastructure quality of the network surrounding a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfraProfile {
    /// Median last-mile RTT contribution in milliseconds.
    pub last_mile_median_ms: f64,
    /// Lognormal shape (sigma) of the last-mile distribution.
    pub last_mile_sigma: f64,
    /// Path-inflation factor over the geodesic (>= 1.0).
    pub path_inflation: f64,
    /// Scale of per-sample jitter in milliseconds.
    pub jitter_ms: f64,
    /// Probability that a datagram through this access network is lost.
    pub loss_rate: f64,
}

impl Default for InfraProfile {
    /// A well-connected data-centre profile.
    fn default() -> Self {
        InfraProfile {
            last_mile_median_ms: 0.5,
            last_mile_sigma: 0.1,
            path_inflation: 1.4,
            jitter_ms: 0.3,
            loss_rate: 0.0,
        }
    }
}

impl InfraProfile {
    /// A residential profile parameterised by national average fixed
    /// broadband download speed (Mbps) and the national AS count.
    ///
    /// Calibration notes:
    /// * last-mile median runs from ~6 ms on gigabit-class networks to
    ///   ~55 ms on sub-5 Mbps networks (satellite/DSL mixes);
    /// * inflation runs from 1.4 (>1000 ASes) to 3.4 (monopoly markets),
    ///   reflecting tromboning through remote exchange points.
    pub fn residential(bandwidth_mbps: f64, as_count: u32) -> Self {
        let bw = bandwidth_mbps.max(0.5);
        // Log-scaled interpolation: 1 Mbps -> ~55ms, 25 Mbps -> ~22ms,
        // 100 Mbps -> ~12ms, 250+ Mbps -> ~7ms.
        let last_mile = (60.0 / (1.0 + bw.ln().max(0.0))).clamp(6.0, 55.0);
        let ases = as_count.max(1) as f64;
        // 1 AS -> 3.4, 25 ASes -> ~2.3, 1000+ -> ~1.45.
        let inflation = (3.6 - 0.31 * ases.ln()).clamp(1.4, 3.4);
        // Loss grows as bandwidth shrinks: 0.1% on fast nets, up to 2%.
        let loss = (0.02 / (1.0 + (bw / 10.0))).clamp(0.001, 0.02);
        InfraProfile {
            last_mile_median_ms: last_mile,
            last_mile_sigma: 0.35,
            path_inflation: inflation,
            jitter_ms: (last_mile * 0.08).max(0.5),
            loss_rate: loss,
        }
    }

    /// A data-centre profile for ISP resolvers/servers in a country with
    /// the given AS count: transit from the data centre is reasonably
    /// provisioned, so inflation tops out well below residential levels.
    pub fn datacenter(as_count: u32) -> Self {
        let ases = as_count.max(1) as f64;
        InfraProfile {
            last_mile_median_ms: 0.5,
            last_mile_sigma: 0.1,
            path_inflation: (3.0 - 0.28 * ases.ln()).clamp(1.35, 2.6),
            jitter_ms: 0.3,
            loss_rate: 0.0005,
        }
    }

    /// A global-backbone profile for anycast PoPs: large DoH providers
    /// carry traffic on private backbones with near-optimal paths, so
    /// PoP-side inflation is minimal wherever the PoP sits. This is the
    /// mechanism behind Cloudflare's DoHR ≈ Do53 observation (Figure 4a):
    /// the local PoP recurses to the US authoritative over the backbone,
    /// not over local transit.
    pub fn backbone() -> Self {
        InfraProfile {
            last_mile_median_ms: 0.5,
            last_mile_sigma: 0.1,
            path_inflation: 1.35,
            jitter_ms: 0.3,
            loss_rate: 0.0002,
        }
    }
}

/// A latency oracle: samples the RTT between two nodes.
pub trait LatencyModel {
    /// Sample a round-trip time between `a` and `b`.
    fn rtt(&mut self, topo: &Topology, a: NodeId, b: NodeId) -> SimDuration;

    /// The stable (jitter-free) base RTT between `a` and `b`.
    fn base_rtt(&mut self, topo: &Topology, a: NodeId, b: NodeId) -> SimDuration;
}

/// A multiply-rotate hasher (the FxHash round) for [`PathModel`]'s node
/// pair keys. It is deterministic and costs a few cycles per key, where
/// the default SipHash costs tens of nanoseconds on every RTT sample.
/// Those keys are `NodeId`s of the simulator's own topology, never bytes
/// from a network, so a fixed hash invites no collision flood here.
#[derive(Default)]
struct PairHasher(u64);

impl PairHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The default geodesic + infrastructure model.
///
/// Base RTTs are memoised per unordered node pair so that repeated samples
/// between the same endpoints vary only by jitter — the stability property
/// the paper's Equation 1–8 derivation assumes.
pub struct PathModel {
    /// Construction-time stream. Never draws — it only forks the per-pair
    /// last-mile streams, so base RTTs are a pure function of the model's
    /// construction seed and the node pair, whatever else has happened.
    base_rng: SimRng,
    /// Per-sample jitter stream. Re-anchorable via [`PathModel::rejitter`]
    /// so campaign epochs can make jitter a pure per-client function.
    jitter_rng: SimRng,
    base_cache: HashMap<(NodeId, NodeId), SimDuration, BuildHasherDefault<PairHasher>>,
}

impl PathModel {
    /// Create a model with its own random stream.
    pub fn new(rng: SimRng) -> Self {
        PathModel {
            base_rng: rng.clone(),
            jitter_rng: rng,
            base_cache: HashMap::default(),
        }
    }

    /// Snapshot the jitter stream (for [`crate::Simulator`]'s RNG
    /// checkpointing; base-cache fills are fork-based and draw-free, so
    /// the jitter stream is the model's only mutable draw state).
    pub(crate) fn rng_snapshot(&self) -> SimRng {
        self.jitter_rng.clone()
    }

    /// Restore a snapshot taken by [`PathModel::rng_snapshot`].
    pub(crate) fn rng_restore(&mut self, rng: SimRng) {
        self.jitter_rng = rng;
    }

    /// Replace the jitter stream wholesale. Base RTTs are untouched — they
    /// fork from the construction stream — so re-anchoring jitter per
    /// campaign epoch preserves the paper's pair-stability assumption.
    pub(crate) fn rejitter(&mut self, rng: SimRng) {
        self.jitter_rng = rng;
    }

    fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Compute (and cache) the stable base RTT for a pair.
    fn base(&mut self, topo: &Topology, a: NodeId, b: NodeId) -> SimDuration {
        let key = Self::pair_key(a, b);
        if let Some(&d) = self.base_cache.get(&key) {
            return d;
        }
        // Cache fill: one-time work per node pair, exempt from the
        // steady-state allocation gate (the map may rehash on insert).
        let _cold = dohperf_telemetry::alloc::exempt_scope();
        let na = topo.node(a);
        let nb = topo.node(b);
        let dist_km = na.spec.position.distance_km(&nb.spec.position);
        let inflation = 0.5 * (na.spec.infra.path_inflation + nb.spec.infra.path_inflation);
        let propagation_ms = 2.0 * dist_km / FIBRE_KM_PER_MS * inflation;
        // Per-pair deterministic draw for the last miles: a given client has
        // *one* access network, so its contribution to the base RTT is fixed
        // per pair, not re-rolled per packet.
        let mut pair_rng = self
            .base_rng
            .fork_indexed("pair", (key.0.index() as u64) << 32 | key.1.index() as u64);
        let lm_a = pair_rng.lognormal_median(
            na.spec.infra.last_mile_median_ms.max(0.05),
            na.spec.infra.last_mile_sigma,
        );
        let lm_b = pair_rng.lognormal_median(
            nb.spec.infra.last_mile_median_ms.max(0.05),
            nb.spec.infra.last_mile_sigma,
        );
        let base = SimDuration::from_millis_f64(propagation_ms + lm_a + lm_b);
        self.base_cache.insert(key, base);
        base
    }
}

impl LatencyModel for PathModel {
    fn rtt(&mut self, topo: &Topology, a: NodeId, b: NodeId) -> SimDuration {
        let base = self.base(topo, a, b);
        let jitter_scale =
            0.5 * (topo.node(a).spec.infra.jitter_ms + topo.node(b).spec.infra.jitter_ms);
        let jitter = self.jitter_rng.exponential(jitter_scale.max(0.0));
        base + SimDuration::from_millis_f64(jitter)
    }

    fn base_rtt(&mut self, topo: &Topology, a: NodeId, b: NodeId) -> SimDuration {
        self.base(topo, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{GeoPoint, NodeRole, NodeSpec};

    fn two_node_topo(dist_deg: f64) -> (Topology, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add(NodeSpec::new(
            "a",
            GeoPoint::new(0.0, 0.0),
            NodeRole::Client,
        ));
        let b = topo.add(NodeSpec::new(
            "b",
            GeoPoint::new(0.0, dist_deg),
            NodeRole::Server,
        ));
        (topo, a, b)
    }

    #[test]
    fn base_rtt_scales_with_distance() {
        let (topo, a, b) = two_node_topo(10.0);
        let (topo2, c, d) = two_node_topo(60.0);
        let mut m = PathModel::new(SimRng::new(1));
        let near = m.base_rtt(&topo, a, b);
        let mut m2 = PathModel::new(SimRng::new(1));
        let far = m2.base_rtt(&topo2, c, d);
        assert!(far > near, "far {far} near {near}");
    }

    #[test]
    fn base_rtt_is_stable_and_symmetric() {
        let (topo, a, b) = two_node_topo(30.0);
        let mut m = PathModel::new(SimRng::new(2));
        let r1 = m.base_rtt(&topo, a, b);
        let r2 = m.base_rtt(&topo, b, a);
        let r3 = m.base_rtt(&topo, a, b);
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
    }

    #[test]
    fn sampled_rtt_at_least_base() {
        let (topo, a, b) = two_node_topo(30.0);
        let mut m = PathModel::new(SimRng::new(3));
        let base = m.base_rtt(&topo, a, b);
        for _ in 0..100 {
            assert!(m.rtt(&topo, a, b) >= base);
        }
    }

    #[test]
    fn jitter_is_small_relative_to_base_for_long_paths() {
        let (topo, a, b) = two_node_topo(90.0);
        let mut m = PathModel::new(SimRng::new(4));
        let base = m.base_rtt(&topo, a, b).as_millis_f64();
        let mean_sample: f64 = (0..200)
            .map(|_| m.rtt(&topo, a, b).as_millis_f64())
            .sum::<f64>()
            / 200.0;
        assert!(
            (mean_sample - base) / base < 0.15,
            "jitter dominates: base {base} mean {mean_sample}"
        );
    }

    #[test]
    fn residential_profile_orders_by_bandwidth() {
        let slow = InfraProfile::residential(3.0, 5);
        let fast = InfraProfile::residential(150.0, 800);
        assert!(slow.last_mile_median_ms > fast.last_mile_median_ms);
        assert!(slow.path_inflation > fast.path_inflation);
        assert!(slow.loss_rate > fast.loss_rate);
    }

    #[test]
    fn residential_profile_clamps_extremes() {
        let p = InfraProfile::residential(0.0, 0);
        assert!(p.last_mile_median_ms <= 55.0);
        assert!(p.path_inflation <= 3.4);
        let q = InfraProfile::residential(10_000.0, 1_000_000);
        assert!(q.last_mile_median_ms >= 6.0);
        assert!(q.path_inflation >= 1.4);
    }

    #[test]
    fn datacenter_profile_is_fast() {
        let p = InfraProfile::datacenter(500);
        assert!(p.last_mile_median_ms < 1.0);
        assert!(p.loss_rate < 0.001);
    }

    #[test]
    fn same_seed_reproduces_base_rtts() {
        let (topo, a, b) = two_node_topo(45.0);
        let mut m1 = PathModel::new(SimRng::new(99));
        let mut m2 = PathModel::new(SimRng::new(99));
        assert_eq!(m1.base_rtt(&topo, a, b), m2.base_rtt(&topo, a, b));
    }
}

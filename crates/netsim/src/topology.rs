//! Node and topology model.
//!
//! Nodes are points on the globe with a role (client, resolver PoP, proxy,
//! server, …) and an infrastructure profile describing the quality of the
//! network they sit in. The topology is deliberately *not* a graph of links:
//! at Internet scale the paper's latencies are governed by geodesic distance
//! and national infrastructure quality, so path latency is computed by the
//! [`crate::latency`] model from endpoint metadata instead of routed hops.

use crate::latency::InfraProfile;
use std::fmt;

/// Index of a node in the topology. Cheap to copy, stable for the lifetime
/// of the simulation (nodes are never removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index (for dense side-tables keyed by node).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node does in the measurement ecosystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// A residential end host (BrightData exit node or RIPE Atlas probe).
    Client,
    /// An ISP recursive resolver (Do53 default path).
    IspResolver,
    /// A public DoH provider point of presence.
    DohPop,
    /// A BrightData Super Proxy.
    SuperProxy,
    /// A generic server (the authors' web server / measurement client host).
    Server,
    /// The authoritative name server for the measurement domain.
    AuthoritativeNs,
}

/// A point on the globe in decimal degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude, degrees north, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude, degrees east, in `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Mean Earth radius in kilometres (IUGG).
    pub const EARTH_RADIUS_KM: f64 = 6371.0088;
    /// Kilometres per statute mile.
    pub const KM_PER_MILE: f64 = 1.609_344;

    /// Construct a point, clamping latitude and wrapping nothing — inputs
    /// are expected to be valid coordinates from the embedded datasets.
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint {
            lat: lat.clamp(-90.0, 90.0),
            lon,
        }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * Self::EARTH_RADIUS_KM * a.sqrt().min(1.0).asin()
    }

    /// Great-circle distance in statute miles (the paper reports miles).
    pub fn distance_miles(&self, other: &GeoPoint) -> f64 {
        self.distance_km(other) / Self::KM_PER_MILE
    }
}

/// Everything needed to create a node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Human-readable label (shows up in packet traces).
    pub label: String,
    /// Geographic position.
    pub position: GeoPoint,
    /// Role in the ecosystem.
    pub role: NodeRole,
    /// Infrastructure profile of the network the node sits in.
    pub infra: InfraProfile,
    /// ISO-3166 alpha-2 country code, when known.
    pub country: Option<[u8; 2]>,
}

impl NodeSpec {
    /// A spec with the default (well-connected) infrastructure profile.
    pub fn new(label: impl Into<String>, position: GeoPoint, role: NodeRole) -> Self {
        NodeSpec {
            label: label.into(),
            position,
            role,
            infra: InfraProfile::default(),
            country: None,
        }
    }

    /// Attach an infrastructure profile.
    pub fn with_infra(mut self, infra: InfraProfile) -> Self {
        self.infra = infra;
        self
    }

    /// Attach a country code (e.g. `b"US"`).
    pub fn with_country(mut self, cc: [u8; 2]) -> Self {
        self.country = Some(cc);
        self
    }
}

/// A materialised node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Identifier within the topology.
    pub id: NodeId,
    /// Creation spec (label, position, role, infra, country).
    pub spec: NodeSpec,
}

/// The set of all nodes in a simulation.
///
/// Storage is sparse: [`Topology::anchor_next_index`] lets a caller pin the
/// id of the *next* node added, leaving unfilled holes behind. This is what
/// makes sub-country campaign shards assign the same node ids a sequential
/// run would — a shard that starts at in-country client offset `k` anchors
/// the allocator to the id the `k`-th client would have received and never
/// materialises the earlier clients' nodes.
#[derive(Debug, Default)]
pub struct Topology {
    nodes: Vec<Option<Node>>,
    live: usize,
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Topology {
            nodes: Vec::new(),
            live: 0,
        }
    }

    /// Add a node, returning its id.
    pub fn add(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(Some(Node { id, spec }));
        self.live += 1;
        id
    }

    /// The id the next [`Topology::add`] call will return.
    pub fn next_index(&self) -> usize {
        self.nodes.len()
    }

    /// Pin the id of the next node added to `index`, padding the id space
    /// with holes. Anchors only move forward: `index` must be at least the
    /// next natural id.
    pub fn anchor_next_index(&mut self, index: usize) {
        assert!(
            index >= self.nodes.len(),
            "node-id anchor moves backwards: {} < {}",
            index,
            self.nodes.len()
        );
        self.nodes.resize_with(index, || None);
    }

    /// Look up a node. Panics on an id from another topology or on a hole
    /// left by [`Topology::anchor_next_index`].
    pub fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.index()]
            .as_ref()
            .expect("node id points at an anchored hole")
    }

    /// All live nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter_map(|n| n.as_ref())
    }

    /// Number of live nodes (holes excluded).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Geodesic distance between two nodes in kilometres.
    pub fn distance_km(&self, a: NodeId, b: NodeId) -> f64 {
        self.node(a)
            .spec
            .position
            .distance_km(&self.node(b).spec.position)
    }

    /// Nodes filtered by role.
    pub fn by_role(&self, role: NodeRole) -> impl Iterator<Item = &Node> {
        self.nodes().filter(move |n| n.spec.role == role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn haversine_known_distances() {
        // London <-> New York: ~5570 km.
        let london = GeoPoint::new(51.5074, -0.1278);
        let nyc = GeoPoint::new(40.7128, -74.0060);
        assert!(approx(london.distance_km(&nyc), 5570.0, 30.0));
        // Same point is zero.
        assert_eq!(london.distance_km(&london), 0.0);
    }

    #[test]
    fn haversine_antipodal() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let half_circumference = std::f64::consts::PI * GeoPoint::EARTH_RADIUS_KM;
        assert!(approx(a.distance_km(&b), half_circumference, 1.0));
    }

    #[test]
    fn miles_conversion() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 1.0);
        let km = a.distance_km(&b);
        assert!(approx(a.distance_miles(&b), km / 1.609344, 1e-9));
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(35.0, 139.0);
        let b = GeoPoint::new(-33.0, 151.0);
        assert!(approx(a.distance_km(&b), b.distance_km(&a), 1e-9));
    }

    #[test]
    fn latitude_clamps() {
        let p = GeoPoint::new(95.0, 10.0);
        assert_eq!(p.lat, 90.0);
    }

    #[test]
    fn topology_roles_and_lookup() {
        let mut topo = Topology::new();
        let c = topo.add(NodeSpec::new(
            "c",
            GeoPoint::new(0.0, 0.0),
            NodeRole::Client,
        ));
        let s = topo.add(
            NodeSpec::new("s", GeoPoint::new(1.0, 1.0), NodeRole::Server).with_country(*b"US"),
        );
        assert_eq!(topo.len(), 2);
        assert_eq!(topo.node(c).spec.label, "c");
        assert_eq!(topo.node(s).spec.country, Some(*b"US"));
        assert_eq!(topo.by_role(NodeRole::Client).count(), 1);
        assert!(topo.distance_km(c, s) > 100.0);
    }

    #[test]
    fn anchored_adds_skip_ids_and_keep_iteration_dense() {
        let mut topo = Topology::new();
        let a = topo.add(NodeSpec::new(
            "a",
            GeoPoint::new(0.0, 0.0),
            NodeRole::Client,
        ));
        topo.anchor_next_index(5);
        assert_eq!(topo.next_index(), 5);
        let b = topo.add(NodeSpec::new(
            "b",
            GeoPoint::new(1.0, 1.0),
            NodeRole::Server,
        ));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 5);
        assert_eq!(topo.len(), 2, "holes are not live nodes");
        assert!(!topo.is_empty());
        assert_eq!(topo.nodes().count(), 2);
        assert_eq!(topo.node(b).spec.label, "b");
        // Anchoring to the current next id is a no-op.
        topo.anchor_next_index(6);
        topo.anchor_next_index(6);
        assert_eq!(topo.next_index(), 6);
    }

    #[test]
    #[should_panic(expected = "anchor moves backwards")]
    fn anchor_never_moves_backwards() {
        let mut topo = Topology::new();
        topo.add(NodeSpec::new(
            "a",
            GeoPoint::new(0.0, 0.0),
            NodeRole::Client,
        ));
        topo.anchor_next_index(0);
    }
}

//! # dohperf-netsim
//!
//! A deterministic, discrete-event network simulator that serves as the
//! substrate for the `dohperf` reproduction of *"Measuring DNS-over-HTTPS
//! Performance Around the World"* (IMC 2021).
//!
//! The paper measured real-world DNS latency through the BrightData proxy
//! network. That substrate — residential last miles, transit backbones,
//! anycast points of presence, ISP resolvers — is unavailable here, so this
//! crate recreates it as a simulation with three design goals borrowed from
//! `smoltcp`:
//!
//! 1. **Simplicity and robustness** over cleverness: the engine is a binary
//!    heap of timestamped events plus a seeded RNG; there are no macro or
//!    type-level tricks.
//! 2. **Determinism**: every run with the same seed yields bit-identical
//!    event orderings and latencies, so experiments are exactly repeatable.
//! 3. **One transport cost model**: every handshake, framing and loss
//!    cost is a table of [`connection`], so DoH, DoT, DoQ and Do53 are
//!    compared inside one frame. Jitter comes from the [`latency`]
//!    model; extra packet loss is one per-query probability that the
//!    transports' loss tables turn into stalls or retransmission timers.
//!
//! ## Layers
//!
//! * [`time`] — virtual time ([`SimTime`], [`SimDuration`]) with nanosecond
//!   resolution.
//! * [`rng`] — deterministic random streams with stable per-component
//!   sub-seeding.
//! * [`event`] / [`engine`] — the discrete-event core: schedule closures at
//!   future instants and run them in timestamp order.
//! * [`topology`] — nodes with geographic positions and roles.
//! * [`latency`] — the generative latency model: geodesic propagation,
//!   infrastructure-dependent path inflation, last-mile distributions.
//! * [`connection`] — the transport cost model: TLS 1.2/1.3 handshake
//!   round trips, the Do53 retransmission timer, and the per-(client,
//!   provider) connection lifecycle for encrypted DNS transports
//!   (DoH/DoT/DoQ): cold, resumed and warm handshake costs, keep-alive
//!   reuse with deterministic idle timeout, generation-tagged
//!   re-establishment, and the H2-vs-QUIC loss-stall asymmetry.
//! * [`trace`] — a pcap-like event log used by the §4.3 experiment.
//!
//! ## Quick example
//!
//! ```
//! use dohperf_netsim::prelude::*;
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node(NodeSpec::new("client", GeoPoint::new(40.0, -88.0), NodeRole::Client));
//! let b = sim.add_node(NodeSpec::new("server", GeoPoint::new(37.4, -122.1), NodeRole::Server));
//! let rtt = sim.rtt(a, b);
//! assert!(rtt.as_millis_f64() > 0.0);
//! ```

pub mod connection;
pub mod engine;
pub mod event;
pub mod latency;
pub mod pcap;
pub mod rng;
pub mod time;
pub mod topology;
pub mod trace;

pub use connection::{Acquired, ConnState, Connection, DnsTransport, TlsVersion, Warmth};
pub use engine::Simulator;
pub use event::{EventId, EventQueue};
pub use latency::{InfraProfile, LatencyModel, PathModel};
pub use pcap::to_pcap;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{GeoPoint, NodeId, NodeRole, NodeSpec, Topology};
pub use trace::{PacketDirection, PacketRecord, TraceLog};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::connection::{
        Acquired, ConnState, Connection, DnsTransport, TlsVersion, Warmth,
    };
    pub use crate::engine::Simulator;
    pub use crate::latency::{InfraProfile, LatencyModel, PathModel};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{GeoPoint, NodeId, NodeRole, NodeSpec, Topology};
    pub use crate::trace::{PacketDirection, PacketRecord, TraceLog};
}

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
//! * [`event`] / [`engine`] — the discrete-event core: schedule typed
//!   event tokens at future instants and pop them in timestamp order.
//! * [`topology`] — nodes with geographic positions and roles.
//! * [`latency`] — the generative latency model: geodesic propagation,
//!   infrastructure-dependent path inflation, last-mile distributions.
//! * [`connection`] — the transport cost model: TLS 1.2/1.3 handshake
//!   round trips, the Do53 retransmission timer, and the per-(client,
//!   provider) connection lifecycle for encrypted DNS transports
//!   (DoH/DoT/DoQ): cold, resumed and warm handshake costs, keep-alive
//!   reuse with deterministic idle timeout, generation-tagged
//!   re-establishment, and the H2-vs-QUIC loss-stall asymmetry.
//! * [`trace`] — the packet log the §4.3 experiment inspects.
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
pub mod rng;
pub mod time;
pub mod topology;
pub mod trace;

pub use connection::{Acquired, ConnState, Connection, DnsTransport, TlsVersion, Warmth};
pub use engine::Simulator;
pub use event::{EventHeap, EventId, EventQueue};
pub use latency::{InfraProfile, LatencyModel, PathModel};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{GeoPoint, NodeId, NodeRole, NodeSpec, Topology};
pub use trace::{PacketRecord, TraceLog};

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
    pub use crate::trace::{PacketRecord, TraceLog};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Simulator::new(42);
        let mut b = Simulator::new(42);
        for _ in 0..100 {
            assert_eq!(a.rng_mut().next_u64(), b.rng_mut().next_u64());
        }
        let spec = |name| NodeSpec::new(name, GeoPoint::new(40.0, -88.0), NodeRole::Client);
        let (a0, a1) = (a.add_node(spec("c")), a.add_node(spec("s")));
        let (b0, b1) = (b.add_node(spec("c")), b.add_node(spec("s")));
        assert_eq!(a.rtt(a0, a1), b.rtt(b0, b1));
    }

    #[test]
    fn unit_f64_in_range_and_well_spread() {
        let mut rng = SimRng::new(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}

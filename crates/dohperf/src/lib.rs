//! # dohperf
//!
//! A full reproduction of *"Measuring DNS-over-HTTPS Performance Around
//! the World"* (Chhabra, Murley, Kumar, Bailey, Wang — IMC 2021) as a
//! Rust library.
//!
//! The paper measures DoH vs. Do53 resolution latency from 22,052
//! residential clients in 224 countries through the BrightData proxy
//! network. This crate re-creates the entire measurement ecosystem as a
//! deterministic simulation and implements the paper's methodology,
//! validation and analyses on top of it:
//!
//! * [`netsim`] — the discrete-event network simulator substrate.
//! * [`dns`] — the DNS wire format and RFC 8484 DoH payloads.
//! * [`http`] — HTTP/1.1, CONNECT tunnels, BrightData timing headers.
//! * [`world`] — countries, cities, geodesy, geolocation, population.
//! * [`providers`] — Cloudflare / Google / NextDNS / Quad9 PoP fleets,
//!   anycast policies, and the ISP default-resolver model.
//! * [`proxy`] — the BrightData Super Proxy network and RIPE Atlas.
//! * [`core`] — the paper's timing equations, campaign and validation.
//! * [`stats`] — descriptive statistics, OLS and logistic regression,
//!   bootstrap confidence intervals.
//! * [`analysis`] — every table and figure of §5–§6.
//! * [`store`] — the streaming columnar dataset store (chunked,
//!   checksummed, thread-count-invariant on disk).
//! * [`livenet`] — real loopback Do53/DoH servers and a CONNECT proxy over `std::net`.
//!
//! ## Quickstart
//!
//! ```
//! use dohperf::core::campaign::{Campaign, CampaignConfig};
//! use dohperf::analysis::headline::headline_stats;
//!
//! // A fast, reduced-scale campaign (use scale = 1.0 for the paper's 22k clients).
//! let dataset = Campaign::new(CampaignConfig::quick(42)).run();
//! let stats = headline_stats(&dataset);
//! assert!(stats.median_doh1_ms > stats.median_do53_ms);
//! ```

pub use dohperf_analysis as analysis;
pub use dohperf_core as core;
pub use dohperf_dns as dns;
pub use dohperf_http as http;
pub use dohperf_livenet as livenet;
pub use dohperf_netsim as netsim;
pub use dohperf_providers as providers;
pub use dohperf_proxy as proxy;
pub use dohperf_stats as stats;
pub use dohperf_store as store;
pub use dohperf_telemetry as telemetry;
pub use dohperf_world as world;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use dohperf_analysis::prelude::*;
    pub use dohperf_core::prelude::*;
    pub use dohperf_providers::prelude::*;
    pub use dohperf_world::prelude::*;
}

//! Measurement observables.
//!
//! A `DohObservation` is everything the paper's measurement client can see
//! for one DoH measurement: four local timestamps and the Super Proxy's
//! timing headers. A `Do53Observation` carries the header-reported DNS
//! value. Both also carry *hidden ground truth* — the actual durations at
//! the exit node — which the methodology must never read, but which the
//! §4 ground-truth validation (Tables 1 and 2) compares against.

use dohperf_http::luminati::{ProxyTimeline, TunTimeline};
use dohperf_netsim::time::{SimDuration, SimTime};

/// One tunnelled DoH measurement's observables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DohObservation {
    /// Client sends CONNECT (point A in Figure 2).
    pub t_a: SimTime,
    /// Client receives "200 OK" tunnel established (point B).
    pub t_b: SimTime,
    /// Client sends ClientHello (point C).
    pub t_c: SimTime,
    /// Client receives the DoH response (point D).
    pub t_d: SimTime,
    /// `X-luminati-tun-timeline`: exit-node DNS + connect times.
    pub tun: TunTimeline,
    /// `X-luminati-timeline`: BrightData box processing.
    pub proxy: ProxyTimeline,
    /// Hidden ground truth: the true DoH resolution time at the exit node
    /// (Equation 1's t_DoH). Only §4 validation may read this.
    pub truth_t_doh: SimDuration,
    /// Hidden ground truth: the true reused-connection query time.
    pub truth_t_dohr: SimDuration,
}

/// One tunnelled Do53 measurement's observables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Do53Observation {
    /// `X-luminati-tun-timeline`: the header's "DNS" value — the Do53
    /// query time the methodology extracts (§3.3).
    pub tun: TunTimeline,
    /// BrightData box processing.
    pub proxy: ProxyTimeline,
    /// Whether resolution happened at the Super Proxy instead of the exit
    /// node (the §3.5 limitation; the header value is then meaningless
    /// for the client's country).
    pub resolved_at_super_proxy: bool,
    /// Hidden ground truth: the exit node's real Do53 time.
    pub truth_t_do53: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_fields_are_plain_data() {
        let obs = Do53Observation {
            tun: TunTimeline::default(),
            proxy: ProxyTimeline::default(),
            resolved_at_super_proxy: false,
            truth_t_do53: SimDuration::from_millis(120),
        };
        assert!(!obs.resolved_at_super_proxy);
        assert_eq!(obs.truth_t_do53.as_millis(), 120);
    }

    #[test]
    fn doh_observation_timestamps_order() {
        let obs = DohObservation {
            t_a: SimTime::from_millis(0),
            t_b: SimTime::from_millis(100),
            t_c: SimTime::from_millis(100),
            t_d: SimTime::from_millis(400),
            tun: TunTimeline::default(),
            proxy: ProxyTimeline::default(),
            truth_t_doh: SimDuration::from_millis(300),
            truth_t_dohr: SimDuration::from_millis(200),
        };
        assert!(obs.t_a <= obs.t_b && obs.t_b <= obs.t_c && obs.t_c <= obs.t_d);
    }
}

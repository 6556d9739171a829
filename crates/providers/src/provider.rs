//! Provider identities and behavioural parameters.

use crate::anycast::AnycastPolicy;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::time::SimDuration;
use std::fmt;

/// The four public DoH services studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProviderKind {
    /// Cloudflare 1.1.1.1 — most PoPs (146 observed), best performance.
    Cloudflare,
    /// Google Public DNS — few PoPs (26 observed), well-routed.
    Google,
    /// NextDNS — 107 PoPs across 47 third-party ASes, near-optimal routing
    /// but slowest overall resolution.
    NextDns,
    /// Quad9 — mid-pack performance, strong African PoP presence but
    /// heavily suboptimal client-to-PoP assignment.
    Quad9,
}

/// All providers in the paper's presentation order.
pub const ALL_PROVIDERS: [ProviderKind; 4] = [
    ProviderKind::Cloudflare,
    ProviderKind::Google,
    ProviderKind::NextDns,
    ProviderKind::Quad9,
];

impl ProviderKind {
    /// Display name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            ProviderKind::Cloudflare => "Cloudflare",
            ProviderKind::Google => "Google",
            ProviderKind::NextDns => "NextDNS",
            ProviderKind::Quad9 => "Quad9",
        }
    }

    /// The DoH endpoint hostname the exit node must bootstrap-resolve.
    pub fn hostname(self) -> &'static str {
        match self {
            ProviderKind::Cloudflare => "cloudflare-dns.com",
            ProviderKind::Google => "dns.google",
            ProviderKind::NextDns => "dns.nextdns.io",
            ProviderKind::Quad9 => "dns.quad9.net",
        }
    }

    /// Number of PoPs to deploy, matching the paper's observations
    /// (§5.2; Quad9's count is not stated, but Figure 5 shows a fleet
    /// comparable to NextDNS with unusually strong African presence).
    pub fn pop_count(self) -> usize {
        match self {
            ProviderKind::Cloudflare => 146,
            ProviderKind::Google => 26,
            ProviderKind::NextDns => 107,
            ProviderKind::Quad9 => 120,
        }
    }

    /// Anycast assignment policy calibrated to Figure 6.
    pub fn anycast_policy(self) -> AnycastPolicy {
        match self {
            // 26% of clients could move >=1000mi closer; median 46mi —
            // a nonzero median means fewer than half of clients sit on
            // their exact nearest PoP even for the best-routed fleets.
            ProviderKind::Cloudflare => AnycastPolicy::new(0.46, 2, 0.22),
            // Only 10% >1000mi; median 44mi despite few PoPs.
            ProviderKind::Google => AnycastPolicy::new(0.48, 3, 0.07),
            // Median improvement 6mi: the dense deployment means the
            // second-nearest PoP is usually a handful of miles away.
            ProviderKind::NextDns => AnycastPolicy::new(0.47, 2, 0.02),
            // Only 21% of clients on the closest PoP; median 769mi.
            ProviderKind::Quad9 => AnycastPolicy::new(0.21, 14, 0.08),
        }
    }

    /// Sample the resolver-side processing time for one recursive
    /// resolution (queue + cache-miss recursion bookkeeping).
    ///
    /// NextDNS routes through third-party ASes and is the slowest service
    /// in the paper; Cloudflare is the fastest.
    pub fn processing_time(self, rng: &mut SimRng) -> SimDuration {
        let (median_ms, sigma) = match self {
            ProviderKind::Cloudflare => (6.0, 0.6),
            ProviderKind::Google => (10.0, 0.6),
            ProviderKind::NextDns => (34.0, 0.7),
            ProviderKind::Quad9 => (14.0, 0.6),
        };
        SimDuration::from_millis_f64(rng.lognormal_median(median_ms, sigma))
    }

    /// Extra per-query network penalty for providers that forward between
    /// ASes before answering (NextDNS's third-party architecture).
    ///
    /// NextDNS's 107 PoPs live in 47 different hosting ASes — including
    /// Google's and Cloudflare's — so the penalty is a property of *which
    /// AS hosts the client's PoP*: sticky per client, with a wide spread
    /// (some clients land on a first-party-grade host and pay almost
    /// nothing; others pay an extra inter-AS round trip every query).
    pub fn forwarding_penalty(self, client_id: u64, rng: &mut SimRng) -> SimDuration {
        match self {
            ProviderKind::NextDns => {
                // Per-client median keyed only by the client id.
                let mut sticky = SimRng::new(client_id ^ 0x6e64_7368); // "ndsh"
                let client_median = sticky.lognormal_median(42.0, 1.0);
                SimDuration::from_millis_f64(rng.lognormal_median(client_median, 0.3))
            }
            _ => SimDuration::ZERO,
        }
    }
}

impl fmt::Display for ProviderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deployed provider: identity plus its PoP deployment handle.
///
/// Construction happens in [`crate::pops::PopDeployment::deploy`]; this
/// type simply couples the pieces downstream code needs together.
#[derive(Debug)]
pub struct DohProvider {
    /// Which service this is.
    pub kind: ProviderKind,
    /// Deployed PoPs.
    pub deployment: crate::pops::PopDeployment,
}

impl DohProvider {
    /// Anycast policy shortcut.
    pub fn policy(&self) -> AnycastPolicy {
        self.kind.anycast_policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_counts_match_paper() {
        assert_eq!(ProviderKind::Cloudflare.pop_count(), 146);
        assert_eq!(ProviderKind::Google.pop_count(), 26);
        assert_eq!(ProviderKind::NextDns.pop_count(), 107);
        assert!(ProviderKind::Quad9.pop_count() >= 100);
    }

    #[test]
    fn hostnames_are_real_endpoints() {
        assert_eq!(ProviderKind::Cloudflare.hostname(), "cloudflare-dns.com");
        assert_eq!(ProviderKind::Google.hostname(), "dns.google");
        assert_eq!(ProviderKind::NextDns.hostname(), "dns.nextdns.io");
        assert_eq!(ProviderKind::Quad9.hostname(), "dns.quad9.net");
    }

    #[test]
    fn processing_time_ordering_matches_paper() {
        // Median over many samples: Cloudflare fastest, NextDNS slowest.
        let mut rng = SimRng::new(3);
        let median = |kind: ProviderKind, rng: &mut SimRng| {
            let mut xs: Vec<f64> = (0..2001)
                .map(|_| kind.processing_time(rng).as_millis_f64())
                .collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            xs[xs.len() / 2]
        };
        let cf = median(ProviderKind::Cloudflare, &mut rng);
        let gg = median(ProviderKind::Google, &mut rng);
        let nd = median(ProviderKind::NextDns, &mut rng);
        let q9 = median(ProviderKind::Quad9, &mut rng);
        assert!(
            cf < gg && gg < q9 && q9 < nd,
            "cf {cf} gg {gg} q9 {q9} nd {nd}"
        );
    }

    #[test]
    fn only_nextdns_pays_forwarding() {
        let mut rng = SimRng::new(4);
        assert_eq!(
            ProviderKind::Cloudflare.forwarding_penalty(7, &mut rng),
            SimDuration::ZERO
        );
        assert!(ProviderKind::NextDns.forwarding_penalty(7, &mut rng) > SimDuration::ZERO);
    }

    #[test]
    fn quad9_policy_is_least_optimal() {
        let q9 = ProviderKind::Quad9.anycast_policy();
        for other in [
            ProviderKind::Cloudflare,
            ProviderKind::Google,
            ProviderKind::NextDns,
        ] {
            assert!(q9.p_optimal < other.anycast_policy().p_optimal);
        }
    }

    #[test]
    fn provider_display() {
        assert_eq!(ProviderKind::NextDns.to_string(), "NextDNS");
        assert_eq!(ALL_PROVIDERS.len(), 4);
    }
}

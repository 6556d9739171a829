//! Anycast PoP-assignment policies.
//!
//! Real DoH services announce their service prefix via BGP anycast; which
//! PoP a client reaches depends on interdomain routing, not geography, and
//! the paper shows the gap can be enormous (a median Quad9 client has a
//! PoP 769 miles closer than the one serving it). The policy here captures
//! that with three parameters:
//!
//! * `p_optimal` — probability the client lands on its geographically
//!   nearest PoP (the paper reports this directly for Quad9: 21%);
//! * `candidate_pool` — when routing is suboptimal, the client lands on a
//!   uniformly random PoP among its `candidate_pool` nearest;
//! * `p_far_misroute` — probability of a *severe* misroute to a random PoP
//!   anywhere in the fleet (tromboning across continents, which produces
//!   Figure 6's long tails).
//!
//! Assignments are **sticky per client**: BGP routing changes on the scale
//! of days, not requests, so a client keeps its PoP for the whole
//! campaign. Stickiness comes from deriving the draw from a client-keyed
//! RNG.

use crate::pops::{PopDeployment, PopRanking};
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::topology::GeoPoint;

/// Parameters of a provider's anycast behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnycastPolicy {
    /// Probability of reaching the nearest PoP.
    pub p_optimal: f64,
    /// Pool size for mild misroutes.
    pub candidate_pool: usize,
    /// Probability of a severe (fleet-wide random) misroute.
    pub p_far_misroute: f64,
}

impl AnycastPolicy {
    /// Create a policy; probabilities are clamped to [0, 1].
    pub fn new(p_optimal: f64, candidate_pool: usize, p_far_misroute: f64) -> Self {
        AnycastPolicy {
            p_optimal: p_optimal.clamp(0.0, 1.0),
            candidate_pool: candidate_pool.max(1),
            p_far_misroute: p_far_misroute.clamp(0.0, 1.0),
        }
    }

    /// A perfect-routing policy (clients always reach the nearest PoP).
    pub fn perfect() -> Self {
        AnycastPolicy::new(1.0, 1, 0.0)
    }

    /// Assign a PoP index for a client at `pos`. `client_rng` must be the
    /// client's own stream so the assignment is sticky.
    pub fn assign(
        &self,
        deployment: &PopDeployment,
        pos: &GeoPoint,
        client_rng: &mut SimRng,
    ) -> usize {
        let mut ranking = PopRanking::default();
        deployment.rank_into(pos, self.ranking_depth(), &mut ranking);
        self.assign_ranked(&ranking, client_rng)
    }

    /// How many nearest PoPs [`Self::assign_ranked`] reads: the nearest
    /// one plus the `candidate_pool` alternatives.
    pub fn ranking_depth(&self) -> usize {
        self.candidate_pool + 1
    }

    /// [`Self::assign`] over a ranking of the client's position at least
    /// [`Self::ranking_depth`] deep (or the whole fleet).
    pub fn assign_ranked(&self, ranking: &PopRanking, client_rng: &mut SimRng) -> usize {
        let n = ranking.fleet_len();
        let pool = &ranking.ranked()[..self.ranking_depth().min(n)];
        // Severe misroute: anywhere in the fleet.
        if client_rng.chance(self.p_far_misroute) {
            return client_rng.index(n);
        }
        if client_rng.chance(self.p_optimal_renormalised()) {
            return pool[0].index;
        }
        // Mild misroute: one of the next-nearest PoPs, explicitly
        // *excluding* the nearest — the optimal-assignment probability is
        // exactly `p_optimal`, as Figure 6 reports it for Quad9 (21%).
        let alternatives = if pool.len() > 1 { &pool[1..] } else { pool };
        client_rng.choose(alternatives).index
    }

    /// `p_optimal` is defined unconditionally, but the severe branch is
    /// drawn first; renormalise so the overall optimum probability matches
    /// the configured value as closely as possible.
    fn p_optimal_renormalised(&self) -> f64 {
        if self.p_far_misroute >= 1.0 {
            0.0
        } else {
            (self.p_optimal / (1.0 - self.p_far_misroute)).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::ProviderKind;
    use dohperf_netsim::engine::Simulator;

    fn deployment(kind: ProviderKind) -> PopDeployment {
        let mut sim = Simulator::new(1);
        PopDeployment::deploy(kind, &mut sim)
    }

    #[test]
    fn perfect_policy_always_optimal() {
        let dep = deployment(ProviderKind::Google);
        let pos = GeoPoint::new(40.7, -74.0);
        let nearest = dep.nearest_index(&pos);
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(
                AnycastPolicy::perfect().assign(&dep, &pos, &mut rng),
                nearest
            );
        }
    }

    #[test]
    fn assignment_is_sticky_per_client() {
        let dep = deployment(ProviderKind::Quad9);
        let pos = GeoPoint::new(-1.29, 36.82);
        let policy = ProviderKind::Quad9.anycast_policy();
        // Same client stream (re-created) -> same assignment.
        let a = policy.assign(&dep, &pos, &mut SimRng::new(77).fork("anycast"));
        let b = policy.assign(&dep, &pos, &mut SimRng::new(77).fork("anycast"));
        assert_eq!(a, b);
    }

    #[test]
    fn quad9_rarely_optimal_nextdns_usually_optimal() {
        let q9 = deployment(ProviderKind::Quad9);
        let nd = deployment(ProviderKind::NextDns);
        let pos = GeoPoint::new(4.7, -74.1); // Bogota
        let mut q9_hits = 0;
        let mut nd_hits = 0;
        let n = 2000;
        for i in 0..n {
            let mut rng = SimRng::new(i).fork("client");
            if ProviderKind::Quad9
                .anycast_policy()
                .assign(&q9, &pos, &mut rng)
                == q9.nearest_index(&pos)
            {
                q9_hits += 1;
            }
            let mut rng = SimRng::new(i).fork("client");
            if ProviderKind::NextDns
                .anycast_policy()
                .assign(&nd, &pos, &mut rng)
                == nd.nearest_index(&pos)
            {
                nd_hits += 1;
            }
        }
        let q9_rate = q9_hits as f64 / n as f64;
        let nd_rate = nd_hits as f64 / n as f64;
        // Paper: Quad9 ~21% optimal; NextDNS far more often (and when it
        // misses, the second-nearest PoP is only miles away).
        assert!((0.13..=0.40).contains(&q9_rate), "quad9 {q9_rate}");
        assert!(nd_rate > 0.40, "nextdns {nd_rate}");
        assert!(nd_rate > q9_rate + 0.15);
    }

    #[test]
    fn severe_misroutes_occur_for_quad9() {
        let dep = deployment(ProviderKind::Quad9);
        let pos = GeoPoint::new(52.5, 13.4); // Berlin
        let policy = ProviderKind::Quad9.anycast_policy();
        let mut far = 0;
        let n = 2000;
        for i in 0..n {
            let mut rng = SimRng::new(i).fork("x");
            let idx = policy.assign(&dep, &pos, &mut rng);
            if dep.distance_miles(&pos, idx) > 3000.0 {
                far += 1;
            }
        }
        assert!(far > n / 20, "only {far} severe misroutes in {n}");
    }

    #[test]
    fn probabilities_clamp() {
        let p = AnycastPolicy::new(7.0, 0, -2.0);
        assert_eq!(p.p_optimal, 1.0);
        assert_eq!(p.candidate_pool, 1);
        assert_eq!(p.p_far_misroute, 0.0);
    }
}

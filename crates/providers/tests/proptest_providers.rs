//! Property-based tests for PoP deployments and anycast policies.

use dohperf_netsim::engine::Simulator;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::topology::GeoPoint;
use dohperf_providers::anycast::AnycastPolicy;
use dohperf_providers::pops::{PopDeployment, PopRanking};
use dohperf_providers::provider::ALL_PROVIDERS;
use proptest::prelude::*;
use std::sync::OnceLock;

fn arb_geo() -> impl Strategy<Value = GeoPoint> {
    (-60.0f64..70.0, -179.0f64..179.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

/// One deployment per provider, built once for every case.
fn deployments() -> &'static [PopDeployment] {
    static DEPLOYMENTS: OnceLock<Vec<PopDeployment>> = OnceLock::new();
    DEPLOYMENTS.get_or_init(|| {
        let mut sim = Simulator::new(1);
        ALL_PROVIDERS
            .iter()
            .map(|&kind| PopDeployment::deploy(kind, &mut sim))
            .collect()
    })
}

/// Test-only oracle: stable-sort every site by its exact distance.
fn stable_sort_oracle(dep: &PopDeployment, pos: &GeoPoint) -> Vec<(usize, u64)> {
    let mut all: Vec<(usize, f64)> = dep
        .sites()
        .iter()
        .enumerate()
        .map(|(i, s)| (i, pos.distance_km(&s.position)))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
    all.into_iter().map(|(i, km)| (i, km.to_bits())).collect()
}

/// A random position (probes 0–1) or an adversarial one: exactly on a
/// site (2), a site's antipode (3), a pole (4), the ±180° meridian (5),
/// or the great-circle midpoint of two sites (6). Sites come from the
/// deployment `pick.0`.
fn probe_position(probe: usize, pick: (usize, usize, usize), lat: f64, lon: f64) -> GeoPoint {
    let sites = deployments()[pick.0].sites();
    let a = sites[pick.1 % sites.len()].position;
    let b = sites[pick.2 % sites.len()].position;
    let sign = if pick.1.is_multiple_of(2) { 1.0 } else { -1.0 };
    match probe {
        2 => a,
        3 => GeoPoint::new(
            -a.lat,
            if a.lon > 0.0 {
                a.lon - 180.0
            } else {
                a.lon + 180.0
            },
        ),
        4 => GeoPoint::new(90.0 * sign, lon),
        5 => GeoPoint::new(lat, 180.0 * sign),
        6 => {
            let unit = |p: GeoPoint| {
                let (lat, lon) = (p.lat.to_radians(), p.lon.to_radians());
                [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
            };
            let (u, v) = (unit(a), unit(b));
            let m = [u[0] + v[0], u[1] + v[1], u[2] + v[2]];
            let lat = m[2].atan2(m[0].hypot(m[1])).to_degrees();
            GeoPoint::new(lat, m[1].atan2(m[0]).to_degrees())
        }
        _ => GeoPoint::new(lat, lon),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Anycast assignments are always valid indices, and the nearest PoP
    /// is never *farther* than the assigned one.
    #[test]
    fn assignment_valid_and_nearest_is_nearest(
        pos in arb_geo(),
        seed in any::<u64>(),
        pi in 0usize..4,
    ) {
        let mut sim = Simulator::new(1);
        let provider = ALL_PROVIDERS[pi];
        let dep = PopDeployment::deploy(provider, &mut sim);
        let mut rng = SimRng::new(seed).fork("anycast");
        let assigned = provider.anycast_policy().assign(&dep, &pos, &mut rng);
        prop_assert!(assigned < dep.len());
        let nearest = dep.nearest_index(&pos);
        prop_assert!(
            dep.distance_miles(&pos, nearest) <= dep.distance_miles(&pos, assigned) + 1e-6
        );
    }

    /// Ranked distances ascend, and k=1 equals nearest_index.
    #[test]
    fn nearest_k_sorted_and_consistent(pos in arb_geo(), k in 1usize..20, pi in 0usize..4) {
        let dep = &deployments()[pi];
        let mut ranking = PopRanking::default();
        dep.rank_into(&pos, k, &mut ranking);
        let ranked = ranking.ranked();
        prop_assert_eq!(ranked.len(), k.min(dep.len()));
        prop_assert_eq!(ranked[0].index, dep.nearest_index(&pos));
        for w in ranked.windows(2) {
            prop_assert!(w[0].km <= w[1].km);
        }
    }

    /// A perfect policy is deterministic and optimal regardless of the
    /// client stream.
    #[test]
    fn perfect_policy_is_optimal(pos in arb_geo(), seed in any::<u64>()) {
        let mut sim = Simulator::new(3);
        let dep = PopDeployment::deploy(ALL_PROVIDERS[0], &mut sim);
        let mut rng = SimRng::new(seed);
        prop_assert_eq!(
            AnycastPolicy::perfect().assign(&dep, &pos, &mut rng),
            dep.nearest_index(&pos)
        );
    }

    /// Sticky assignment: the same client stream gives the same PoP.
    #[test]
    fn assignment_sticky(pos in arb_geo(), seed in any::<u64>(), pi in 0usize..4) {
        let mut sim = Simulator::new(4);
        let provider = ALL_PROVIDERS[pi];
        let dep = PopDeployment::deploy(provider, &mut sim);
        let a = provider
            .anycast_policy()
            .assign(&dep, &pos, &mut SimRng::new(seed).fork("c"));
        let b = provider
            .anycast_policy()
            .assign(&dep, &pos, &mut SimRng::new(seed).fork("c"));
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The chord-prefiltered ranking is the stable sort of every site's
    /// exact distance, bit for bit, for every deployment and every depth,
    /// including on sites, at antipodes, at the poles, on the ±180°
    /// meridian and at great-circle midpoints between two sites.
    #[test]
    fn ranking_is_the_stable_sort_of_every_site(
        probe in 0usize..7,
        pick in (0usize..4, 0usize..4096, 0usize..4096),
        lat in -90.0f64..90.0,
        lon in -180.0f64..180.0,
    ) {
        let pos = probe_position(probe, pick, lat, lon);
        let mut ranking = PopRanking::default();
        for dep in deployments() {
            let oracle = stable_sort_oracle(dep, &pos);
            for k in 1..=dep.len() {
                dep.rank_into(&pos, k, &mut ranking);
                let ranked: Vec<(usize, u64)> =
                    ranking.ranked().iter().map(|r| (r.index, r.km.to_bits())).collect();
                prop_assert!(
                    ranked[..] == oracle[..k],
                    "{:?} at {:?}, k={}: ranking {:?} != oracle {:?}",
                    dep.kind, pos, k, ranked, &oracle[..k]
                );
            }
        }
    }
}

//! Point-of-presence deployments.
//!
//! PoP sets are derived deterministically from the embedded city table so
//! they reproduce the paper's observations:
//!
//! * **Cloudflare** (146): nearly every city in the table — including
//!   Dakar, the only PoP in Senegal among the four providers (§5.2).
//! * **Google** (26): major interconnection hubs only, none in Africa.
//! * **NextDNS** (107): broad city coverage via third-party hosting ASes.
//! * **Quad9** (~120): broad coverage with deliberately strong
//!   Sub-Saharan African presence (Figure 5d).

use crate::provider::ProviderKind;
use dohperf_netsim::engine::Simulator;
use dohperf_netsim::topology::{GeoPoint, NodeId, NodeRole, NodeSpec};
use dohperf_world::cities::{cities, City};
use dohperf_world::countries::{country, Region};

/// One deployed PoP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopSite {
    /// Simulator node.
    pub node: NodeId,
    /// City location.
    pub position: GeoPoint,
    /// City index into the world city table (for reporting).
    pub city_index: usize,
}

/// A provider's deployed PoP fleet.
#[derive(Debug)]
pub struct PopDeployment {
    /// Which provider.
    pub kind: ProviderKind,
    /// Deployed sites.
    sites: Vec<PopSite>,
    /// Unit vector of each site, in `sites` order (see [`unit_vector`]).
    units: Vec<[f64; 3]>,
}

/// Bound on the chord estimate's error, in haversine units. The two ways
/// of computing sin²(θ/2) — the chord `(1 − u·v)/2` from unit vectors and
/// the haversine term inside [`GeoPoint::distance_km`] — each land within
/// ~1e-15 of the exact value, so this leaves six orders of magnitude of
/// margin (DESIGN.md §4, "Nearest-PoP ranking").
const SLACK: f64 = 1e-9;

/// One entry of a [`PopRanking`]: a site and its exact distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedPop {
    /// Index into [`PopDeployment::sites`].
    pub index: usize,
    /// `pos.distance_km(&site.position)`, bit for bit.
    pub km: f64,
}

/// The `k` PoPs nearest a position, closest first, written by
/// [`PopDeployment::rank_into`]. It doubles as the ranking's scratch: a
/// ranking reused across calls stops allocating once its buffers have
/// grown to the fleet size.
#[derive(Debug, Clone, Default)]
pub struct PopRanking {
    /// Chord estimate per site, in site order.
    chord: Vec<f64>,
    /// A copy of `chord` that the k-th-smallest selection reorders.
    select: Vec<f64>,
    /// The shortlist, then the ranked prefix.
    ranked: Vec<RankedPop>,
    /// Fleet size of the deployment ranked last.
    fleet: usize,
}

impl PopRanking {
    /// A ranking whose buffers already hold fleets of up to `sites` PoPs.
    pub fn with_capacity(sites: usize) -> Self {
        PopRanking {
            chord: Vec::with_capacity(sites),
            select: Vec::with_capacity(sites),
            ranked: Vec::with_capacity(sites),
            fleet: 0,
        }
    }

    /// The ranked PoPs, closest first (ties by site index).
    pub fn ranked(&self) -> &[RankedPop] {
        &self.ranked
    }

    /// The nearest PoP.
    pub fn nearest(&self) -> RankedPop {
        *self.ranked.first().expect("ranking is filled")
    }

    /// Exact distance to site `index`, if it made the ranking.
    pub fn km_to(&self, index: usize) -> Option<f64> {
        self.ranked.iter().find(|r| r.index == index).map(|r| r.km)
    }

    /// Number of sites in the deployment ranked last.
    pub fn fleet_len(&self) -> usize {
        self.fleet
    }
}

/// Unit vector of a position: x toward (0°, 0°), z toward the north pole.
fn unit_vector(p: &GeoPoint) -> [f64; 3] {
    let (sin_lat, cos_lat) = p.lat.to_radians().sin_cos();
    let (sin_lon, cos_lon) = p.lon.to_radians().sin_cos();
    [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat]
}

/// Chord estimate of the haversine sin²(θ/2) between two unit vectors.
fn chord(u: &[f64; 3], v: &[f64; 3]) -> f64 {
    (1.0 - (u[0] * v[0] + u[1] * v[1] + u[2] * v[2])) / 2.0
}

/// Google's hub cities: the 26 interconnection points observed in the
/// paper (no African presence).
const GOOGLE_HUBS: [&str; 26] = [
    "Ashburn",
    "Chicago",
    "Dallas",
    "Los Angeles",
    "New York",
    "Seattle",
    "Atlanta",
    "Toronto",
    "Sao Paulo",
    "Santiago",
    "London",
    "Frankfurt",
    "Amsterdam",
    "Paris",
    "Madrid",
    "Milan",
    "Stockholm",
    "Warsaw",
    "Tokyo",
    "Osaka",
    "Seoul",
    "Taipei",
    "Hong Kong",
    "Singapore",
    "Mumbai",
    "Sydney",
];

impl PopDeployment {
    /// Select the city list for a provider (deterministic, no RNG).
    fn select_cities(kind: ProviderKind) -> Vec<(usize, &'static City)> {
        let all = cities();
        match kind {
            ProviderKind::Google => all
                .iter()
                .enumerate()
                .filter(|(_, c)| GOOGLE_HUBS.contains(&c.name))
                .collect(),
            ProviderKind::Cloudflare => {
                // Nearly everywhere: keep ~70% of the table, skipping
                // uniformly so the deployment stays global (Figure 5a),
                // and always keep Dakar — Cloudflare is the only provider
                // with a Senegal PoP in the paper.
                let mut chosen: Vec<(usize, &'static City)> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| !matches!(i % 10, 3 | 6 | 9) || c.name == "Dakar")
                    .collect();
                chosen.truncate(kind.pop_count());
                ensure_city(&mut chosen, all, "Dakar");
                chosen
            }
            ProviderKind::NextDns => {
                // Broad, but hosted in third-party ASes: every other city
                // plus all major hubs, truncated to 107. Skips much of
                // Africa beyond the biggest markets.
                let mut chosen: Vec<(usize, &'static City)> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| {
                        i % 2 == 0
                            || GOOGLE_HUBS.contains(&c.name)
                            || matches!(c.country, "US" | "DE" | "FR" | "GB" | "NL")
                    })
                    .collect();
                chosen.truncate(kind.pop_count());
                chosen
            }
            ProviderKind::Quad9 => {
                // Broad coverage with *all* African cities included first
                // (Figure 5d), then the rest of the world.
                let mut chosen: Vec<(usize, &'static City)> = all
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| country(c.country).map(|k| k.region) == Some(Region::Africa))
                    .collect();
                for (i, c) in all.iter().enumerate() {
                    if chosen.len() >= kind.pop_count() {
                        break;
                    }
                    if country(c.country).map(|k| k.region) != Some(Region::Africa) {
                        chosen.push((i, c));
                    }
                }
                chosen
            }
        }
    }

    /// Deploy PoP nodes into a simulator.
    pub fn deploy(kind: ProviderKind, sim: &mut Simulator) -> PopDeployment {
        let selected = Self::select_cities(kind);
        let mut sites = Vec::with_capacity(selected.len());
        for (city_index, city) in selected {
            // PoPs ride the provider's private backbone, not local transit.
            let infra = dohperf_netsim::latency::InfraProfile::backbone();
            let node = sim.add_node(
                NodeSpec::new(
                    format!("{}-pop-{}", kind.name(), city.name),
                    city.position(),
                    NodeRole::DohPop,
                )
                .with_infra(infra),
            );
            sites.push(PopSite {
                node,
                position: city.position(),
                city_index,
            });
        }
        let units = sites.iter().map(|s| unit_vector(&s.position)).collect();
        PopDeployment { kind, sites, units }
    }

    /// Deployed sites.
    pub fn sites(&self) -> &[PopSite] {
        &self.sites
    }

    /// Number of deployed PoPs.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when no PoPs are deployed.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Rank the `k` PoPs nearest `pos` (clamped to `1..=len`) into
    /// `out`: the same indices, order, ties and km bits as stable-sorting
    /// every site by `pos.distance_km(&site.position)` and keeping `k`.
    ///
    /// The chord estimate `(1 − u·v)/2` (three multiply-adds per site, no
    /// libm call) finds the k-th smallest estimate `t`; only sites within
    /// `t + 2·SLACK` get the exact haversine, and that shortlist is sorted
    /// by (km, index). A site beyond the cutoff sits at least `SLACK`
    /// further out in haversine terms than each of the `k` sites at or
    /// under `t`, and since d = 2R·asin(√h) has dd/dh ≥ 2R, that is at
    /// least 2R·SLACK ≈ 1.3e-5 km — six orders of magnitude above the
    /// rounding of `distance_km` — so it ranks strictly behind `k` sites
    /// and cannot be in the top `k`.
    pub fn rank_into(&self, pos: &GeoPoint, k: usize, out: &mut PopRanking) {
        let n = self.sites.len();
        assert!(n > 0, "deployment is non-empty");
        let k = k.clamp(1, n);
        let u = unit_vector(pos);
        out.chord.clear();
        out.chord.extend(self.units.iter().map(|v| chord(&u, v)));
        out.select.clear();
        out.select.extend_from_slice(&out.chord);
        let (_, kth, _) = out.select.select_nth_unstable_by(k - 1, f64::total_cmp);
        let cutoff = *kth + 2.0 * SLACK;
        out.ranked.clear();
        for (index, (&h, site)) in out.chord.iter().zip(&self.sites).enumerate() {
            if h <= cutoff {
                let km = pos.distance_km(&site.position);
                out.ranked.push(RankedPop { index, km });
            }
        }
        assert!(out.ranked.len() >= k, "ranking needs a finite position");
        out.ranked.sort_unstable_by(|a, b| {
            a.km.partial_cmp(&b.km)
                .expect("distances are finite")
                .then(a.index.cmp(&b.index))
        });
        out.ranked.truncate(k);
        out.fleet = n;
    }

    /// Index of the geographically nearest PoP to `pos` (the lowest index
    /// among equally near sites).
    pub fn nearest_index(&self, pos: &GeoPoint) -> usize {
        let mut ranking = PopRanking::default();
        self.rank_into(pos, 1, &mut ranking);
        ranking.nearest().index
    }

    /// Distance in miles from `pos` to PoP `index`.
    pub fn distance_miles(&self, pos: &GeoPoint, index: usize) -> f64 {
        pos.distance_miles(&self.sites[index].position)
    }
}

fn ensure_city(chosen: &mut Vec<(usize, &'static City)>, all: &'static [City], name: &str) {
    if chosen.iter().any(|(_, c)| c.name == name) {
        return;
    }
    if let Some((i, c)) = all.iter().enumerate().find(|(_, c)| c.name == name) {
        // Replace the last entry to keep the count.
        let slot = chosen.len() - 1;
        chosen[slot] = (i, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_world::countries::country as country_of;

    #[test]
    fn deployment_counts_match_paper() {
        for kind in crate::ALL_PROVIDERS {
            let selected = PopDeployment::select_cities(kind);
            assert_eq!(selected.len(), kind.pop_count(), "{kind}");
        }
    }

    #[test]
    fn google_has_no_african_pops() {
        let selected = PopDeployment::select_cities(ProviderKind::Google);
        for (_, city) in selected {
            let region = country_of(city.country).unwrap().region;
            assert_ne!(region, Region::Africa, "{}", city.name);
        }
    }

    #[test]
    fn cloudflare_covers_senegal() {
        let selected = PopDeployment::select_cities(ProviderKind::Cloudflare);
        assert!(
            selected.iter().any(|(_, c)| c.country == "SN"),
            "Cloudflare must keep its Dakar PoP"
        );
    }

    #[test]
    fn quad9_has_most_african_pops() {
        let count_africa = |kind: ProviderKind| {
            PopDeployment::select_cities(kind)
                .iter()
                .filter(|(_, c)| country_of(c.country).unwrap().region == Region::Africa)
                .count()
        };
        let q9 = count_africa(ProviderKind::Quad9);
        assert!(q9 > count_africa(ProviderKind::Cloudflare));
        assert!(q9 > count_africa(ProviderKind::NextDns));
        assert!(q9 > count_africa(ProviderKind::Google));
        assert!(q9 >= 20, "Quad9 Africa count {q9}");
    }

    #[test]
    fn deploy_creates_pop_nodes() {
        let mut sim = Simulator::new(1);
        let dep = PopDeployment::deploy(ProviderKind::Google, &mut sim);
        assert_eq!(dep.len(), 26);
        assert_eq!(sim.topology().by_role(NodeRole::DohPop).count(), 26);
    }

    #[test]
    fn nearest_index_is_truly_nearest() {
        let mut sim = Simulator::new(2);
        let dep = PopDeployment::deploy(ProviderKind::Cloudflare, &mut sim);
        let client = GeoPoint::new(48.8, 2.3); // Paris
        let nearest = dep.nearest_index(&client);
        let d_nearest = client.distance_km(&dep.sites()[nearest].position);
        for site in dep.sites() {
            assert!(client.distance_km(&site.position) >= d_nearest - 1e-9);
        }
        assert!(d_nearest < 500.0, "Paris should be near a Cloudflare PoP");
    }

    #[test]
    fn nearest_k_is_sorted_by_distance() {
        let mut sim = Simulator::new(3);
        let dep = PopDeployment::deploy(ProviderKind::Quad9, &mut sim);
        let pos = GeoPoint::new(-1.29, 36.82); // Nairobi
        let mut ranking = PopRanking::default();
        dep.rank_into(&pos, 5, &mut ranking);
        assert_eq!(ranking.ranked().len(), 5);
        for (r, w) in ranking.ranked().iter().zip(ranking.ranked().windows(2)) {
            assert_eq!(r.km, pos.distance_km(&dep.sites()[r.index].position));
            assert!(w[0].km <= w[1].km);
        }
    }

    #[test]
    fn deployments_are_deterministic() {
        let a = PopDeployment::select_cities(ProviderKind::Quad9);
        let b = PopDeployment::select_cities(ProviderKind::Quad9);
        assert_eq!(
            a.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            b.iter().map(|(i, _)| *i).collect::<Vec<_>>()
        );
    }
}

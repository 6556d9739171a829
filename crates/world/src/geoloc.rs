//! A Maxmind-style geolocation service over synthetic /24 prefixes.
//!
//! The measurement pipeline never handles raw client IPs (mirroring the
//! paper's ethics stance): clients are identified by their /24 prefix. The
//! campaign allocates synthetic prefixes per country; this service maps a
//! prefix back to a country, with a configurable error rate standing in
//! for real-world geolocation inaccuracy. The paper discarded 0.88% of
//! data points where BrightData's country and Maxmind's disagreed — the
//! same filter is reproduced in `dohperf-core`.

use dohperf_netsim::rng::SimRng;
use std::collections::HashMap;

/// A /24 IPv4 prefix, stored as its 24 leading bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix24(pub u32);

impl Prefix24 {
    /// Render as dotted-quad with a trailing `.0/24`.
    pub fn to_cidr(&self) -> String {
        let v = self.0 << 8;
        format!(
            "{}.{}.{}.0/24",
            (v >> 24) & 0xFF,
            (v >> 16) & 0xFF,
            (v >> 8) & 0xFF
        )
    }
}

/// The geolocation database plus allocator.
#[derive(Debug)]
pub struct GeolocationService {
    /// prefix -> true country (what an ideal database would say).
    assignments: HashMap<Prefix24, &'static str>,
    /// prefix -> reported country, possibly wrong.
    reported: HashMap<Prefix24, &'static str>,
    next_prefix: u32,
    error_rate: f64,
    rng: SimRng,
    countries: Vec<&'static str>,
}

impl GeolocationService {
    /// Create a service with the given database error rate (fraction of
    /// prefixes whose reported country is wrong). The paper's mismatch
    /// discard removed 0.88% of data points, so `0.0088` is the calibrated
    /// default used by the campaign.
    pub fn new(rng: SimRng, error_rate: f64, countries: Vec<&'static str>) -> Self {
        Self::with_prefix_base(rng, error_rate, countries, 0)
    }

    /// Like [`GeolocationService::new`], but the first allocated prefix is
    /// `base` slots past the start of the pool. Sharded campaigns give each
    /// shard its own service with `base` set to the shard's first global
    /// client index, so the prefixes every shard hands out are disjoint and
    /// match the layout a single sequential allocator would have produced.
    pub fn with_prefix_base(
        rng: SimRng,
        error_rate: f64,
        countries: Vec<&'static str>,
        base: u32,
    ) -> Self {
        GeolocationService {
            assignments: HashMap::new(),
            reported: HashMap::new(),
            next_prefix: 0x0A_00_00 + base, // start inside 10.0.0.0/8 territory
            error_rate: error_rate.clamp(0.0, 1.0),
            rng,
            countries,
        }
    }

    /// Allocate a fresh /24 for a client in `country`. The reported
    /// location is usually correct, but with probability `error_rate` it is
    /// a uniformly random *other* country — the mislabeling the campaign's
    /// mismatch filter must catch.
    ///
    /// The mislabel decision draws from a stream forked per prefix, so the
    /// reported country is a pure function of (service seed, prefix) —
    /// shards that allocate disjoint prefix ranges of the same pool agree
    /// exactly with a sequential allocator, draws included.
    pub fn allocate(&mut self, country: &'static str) -> Prefix24 {
        let prefix = Prefix24(self.next_prefix);
        self.next_prefix += 1;
        self.assignments.insert(prefix, country);
        let mut draw = self.rng.fork_indexed("mislabel", prefix.0 as u64);
        let reported = if draw.chance(self.error_rate) && self.countries.len() > 1 {
            loop {
                let candidate = *draw.choose(&self.countries);
                if candidate != country {
                    break candidate;
                }
            }
        } else {
            country
        };
        self.reported.insert(prefix, reported);
        prefix
    }

    /// The country the database reports for a prefix (Maxmind's answer).
    pub fn lookup(&self, prefix: Prefix24) -> Option<&'static str> {
        self.reported.get(&prefix).copied()
    }

    /// Number of allocated prefixes.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Fraction of allocated prefixes whose reported country is wrong.
    pub fn observed_error_rate(&self) -> f64 {
        if self.assignments.is_empty() {
            return 0.0;
        }
        let wrong = self
            .assignments
            .iter()
            .filter(|(p, truth)| self.reported.get(p) != Some(truth))
            .count();
        wrong as f64 / self.assignments.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GeolocationService {
        /// The ground-truth country for a prefix (for validation only).
        fn ground_truth(&self, prefix: Prefix24) -> Option<&'static str> {
            self.assignments.get(&prefix).copied()
        }
    }

    fn service(error: f64) -> GeolocationService {
        GeolocationService::new(SimRng::new(7), error, vec!["US", "BR", "DE", "NG", "JP"])
    }

    #[test]
    fn allocation_is_unique_and_lookupable() {
        let mut g = service(0.0);
        let a = g.allocate("US");
        let b = g.allocate("BR");
        assert_ne!(a, b);
        assert_eq!(g.lookup(a), Some("US"));
        assert_eq!(g.lookup(b), Some("BR"));
        assert_eq!(g.ground_truth(a), Some("US"));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn zero_error_rate_never_mislabels() {
        let mut g = service(0.0);
        for _ in 0..500 {
            g.allocate("DE");
        }
        assert_eq!(g.observed_error_rate(), 0.0);
    }

    #[test]
    fn error_rate_close_to_configured() {
        let mut g = service(0.2);
        for _ in 0..5000 {
            g.allocate("US");
        }
        let observed = g.observed_error_rate();
        assert!((observed - 0.2).abs() < 0.03, "observed {observed}");
    }

    #[test]
    fn mislabeled_prefix_reports_a_different_country() {
        let mut g = service(1.0);
        for _ in 0..100 {
            let p = g.allocate("US");
            assert_ne!(g.lookup(p), Some("US"));
        }
    }

    #[test]
    fn unknown_prefix_is_none() {
        let g = service(0.0);
        assert_eq!(g.lookup(Prefix24(999_999)), None);
        assert!(g.is_empty());
    }

    #[test]
    fn cidr_rendering() {
        let p = Prefix24(0x0A_00_00);
        assert_eq!(p.to_cidr(), "10.0.0.0/24");
        let q = Prefix24(0x0A_00_01);
        assert_eq!(q.to_cidr(), "10.0.1.0/24");
    }

    #[test]
    fn prefix_base_offsets_allocations() {
        let mut g = GeolocationService::with_prefix_base(SimRng::new(7), 0.0, vec!["US", "BR"], 42);
        let p = g.allocate("US");
        assert_eq!(p, Prefix24(0x0A_00_00 + 42));
        assert_eq!(p.to_cidr(), "10.0.42.0/24");
    }

    #[test]
    fn sharded_bases_reproduce_sequential_layout() {
        // Two shards with bases 0 and 3 must hand out the same prefixes as
        // one sequential allocator serving 3 + 2 clients.
        let mut seq = service(0.0);
        let sequential: Vec<Prefix24> = (0..5).map(|_| seq.allocate("US")).collect();
        let mut a = GeolocationService::with_prefix_base(SimRng::new(7), 0.0, vec!["US"], 0);
        let mut b = GeolocationService::with_prefix_base(SimRng::new(7), 0.0, vec!["US"], 3);
        let sharded: Vec<Prefix24> = (0..3)
            .map(|_| a.allocate("US"))
            .chain((0..2).map(|_| b.allocate("US")))
            .collect();
        assert_eq!(sequential, sharded);
    }

    #[test]
    fn sharded_bases_reproduce_sequential_mislabels() {
        // With a high error rate, the *reported* countries (mislabel draws
        // included) must also be split-invariant: the draw is a pure
        // function of (seed, prefix), not of allocation order.
        let countries = vec!["US", "BR", "DE", "NG", "JP"];
        let mut seq = GeolocationService::new(SimRng::new(7), 0.5, countries.clone());
        let sequential: Vec<_> = (0..40)
            .map(|_| {
                let p = seq.allocate("US");
                (p, seq.lookup(p))
            })
            .collect();
        for split in [1usize, 7, 20, 39] {
            let mut a =
                GeolocationService::with_prefix_base(SimRng::new(7), 0.5, countries.clone(), 0);
            let mut b = GeolocationService::with_prefix_base(
                SimRng::new(7),
                0.5,
                countries.clone(),
                split as u32,
            );
            let sharded: Vec<_> = (0..split)
                .map(|_| {
                    let p = a.allocate("US");
                    (p, a.lookup(p))
                })
                .chain((split..40).map(|_| {
                    let p = b.allocate("US");
                    (p, b.lookup(p))
                }))
                .collect();
            assert_eq!(sequential, sharded, "split at {split}");
        }
    }

    #[test]
    fn error_rate_clamped() {
        let g = GeolocationService::new(SimRng::new(1), 5.0, vec!["US", "BR"]);
        assert!(g.error_rate <= 1.0);
    }
}

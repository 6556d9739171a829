//! Property-based tests for the netsim substrate invariants.

use dohperf_netsim::prelude::*;
use proptest::prelude::*;

fn arb_geo() -> impl Strategy<Value = GeoPoint> {
    (-85.0f64..85.0, -179.0f64..179.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

proptest! {
    /// Haversine distance is a metric: non-negative, symmetric, zero on the
    /// diagonal, and satisfies the triangle inequality.
    #[test]
    fn distance_is_a_metric(a in arb_geo(), b in arb_geo(), c in arb_geo()) {
        let ab = a.distance_km(&b);
        let ba = b.distance_km(&a);
        let ac = a.distance_km(&c);
        let cb = c.distance_km(&b);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!(a.distance_km(&a) < 1e-9);
        prop_assert!(ab <= ac + cb + 1e-6);
    }

    /// Distance never exceeds half the Earth's circumference.
    #[test]
    fn distance_bounded_by_half_circumference(a in arb_geo(), b in arb_geo()) {
        let max = std::f64::consts::PI * GeoPoint::EARTH_RADIUS_KM;
        prop_assert!(a.distance_km(&b) <= max + 1e-6);
    }

    /// Duration arithmetic: from_millis_f64 and as_millis_f64 round-trip
    /// within a nanosecond for sane magnitudes.
    #[test]
    fn duration_roundtrip(ms in 0.0f64..1e9) {
        let d = SimDuration::from_millis_f64(ms);
        prop_assert!((d.as_millis_f64() - ms).abs() < 1e-5);
    }

    /// Saturating duration algebra never panics or underflows.
    #[test]
    fn duration_saturating_algebra(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        let sum = da + db;
        prop_assert!(sum >= da || sum == SimDuration::MAX);
        let diff = da - db;
        prop_assert!(diff <= da);
    }

    /// RTTs are strictly positive, symmetric in base, and grow with the
    /// geodesic distance for fixed profiles.
    #[test]
    fn rtt_positive_and_symmetric(a in arb_geo(), b in arb_geo(), seed in any::<u64>()) {
        let mut sim = Simulator::new(seed);
        let na = sim.add_node(NodeSpec::new("a", a, NodeRole::Client));
        let nb = sim.add_node(NodeSpec::new("b", b, NodeRole::Server));
        let fwd = sim.base_rtt(na, nb);
        let rev = sim.base_rtt(nb, na);
        prop_assert_eq!(fwd, rev);
        prop_assert!(fwd.as_millis_f64() > 0.0);
        let sample = sim.rtt(na, nb);
        prop_assert!(sample >= fwd);
    }

    /// The same seed always rebuilds identical base RTTs (determinism).
    #[test]
    fn determinism_across_rebuilds(a in arb_geo(), b in arb_geo(), seed in any::<u64>()) {
        let build = |s: u64| {
            let mut sim = Simulator::new(s);
            let na = sim.add_node(NodeSpec::new("a", a, NodeRole::Client));
            let nb = sim.add_node(NodeSpec::new("b", b, NodeRole::Server));
            sim.base_rtt(na, nb)
        };
        prop_assert_eq!(build(seed), build(seed));
    }

    /// Events scheduled at arbitrary times fire in non-decreasing time
    /// order, equal times in scheduling order.
    #[test]
    fn events_fire_in_order(times in proptest::collection::vec(0u64..1_000_000, 1..64)) {
        let mut sim = Simulator::new(1);
        for (i, &t) in times.iter().enumerate() {
            sim.schedule(SimTime::from_nanos(t), i as u32);
        }
        let fired: Vec<(SimTime, u32)> = std::iter::from_fn(|| sim.next_event()).collect();
        prop_assert_eq!(fired.len(), times.len());
        for &(at, token) in &fired {
            prop_assert_eq!(at, SimTime::from_nanos(times[token as usize]));
        }
        // Tokens are scheduling order, so ties must fire FIFO.
        for w in fired.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }
}

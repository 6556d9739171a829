//! Property-based tests for the netsim substrate invariants.

use dohperf_netsim::event::{EventHeap, EventId};
use dohperf_netsim::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_geo() -> impl Strategy<Value = GeoPoint> {
    (-85.0f64..85.0, -179.0f64..179.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

/// One step of a random event-queue script.
#[derive(Debug, Clone)]
enum QueueOp {
    Push(u64),
    /// Cancel the id issued by the push with this index (mod the count):
    /// live, fired or already cancelled.
    Cancel(usize),
    /// Cancel an id naming a slot this queue never allocated.
    CancelUnknown(usize),
    Pop,
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    (0u8..10, any::<u64>()).prop_map(|(kind, x)| match kind {
        0..=2 => QueueOp::Push(x % 2_000),
        3 => QueueOp::Push((1 << 48) + x % 1_000),
        4 | 5 => QueueOp::Cancel(x as usize),
        6 => QueueOp::CancelUnknown(x as usize),
        _ => QueueOp::Pop,
    })
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

    /// Random interleavings of push, cancel and pop match a reference
    /// map ordered by `(at, seq)`: every pop, every `len`, and a cancel of
    /// a fired, cancelled or unknown id changes nothing.
    #[test]
    fn queue_matches_an_ordered_map_reference(
        ops in proptest::collection::vec(arb_queue_op(), 0..100),
    ) {
        // At most 100 pushes allocate at most 100 slots, so the ids of
        // slots 100.. of another queue are unknown to this one.
        let unknown: Vec<EventId> = {
            let mut other = EventHeap::new();
            (0..128u32).map(|t| other.push(SimTime::ZERO, t)).collect::<Vec<_>>()[100..].to_vec()
        };
        let mut q: EventHeap<u32> = EventHeap::new();
        let mut model: BTreeMap<(SimTime, u32), ()> = BTreeMap::new();
        let mut issued: Vec<(EventId, SimTime)> = Vec::new();
        for op in ops {
            match op {
                QueueOp::Push(t) => {
                    let at = SimTime::from_nanos(t);
                    let token = issued.len() as u32;
                    issued.push((q.push(at, token), at));
                    model.insert((at, token), ());
                }
                QueueOp::Cancel(k) if !issued.is_empty() => {
                    let token = k % issued.len();
                    let (id, at) = issued[token];
                    q.cancel(id);
                    model.remove(&(at, token as u32));
                }
                QueueOp::Cancel(_) => {}
                QueueOp::CancelUnknown(k) => q.cancel(unknown[k % unknown.len()]),
                QueueOp::Pop => {
                    let want = model.pop_first().map(|(key, ())| key);
                    prop_assert_eq!(q.pop(), want);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        let drained: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        let want: Vec<(SimTime, u32)> = model.into_keys().collect();
        prop_assert_eq!(drained, want);
    }
}

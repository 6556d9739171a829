//! The simulation engine.
//!
//! [`Simulator`] owns the clock, topology, latency model, trace log and the
//! future-event list. The measurement choreographies are sequential: they
//! sample RTTs ([`Simulator::rtt`]) and advance the clock directly
//! ([`Simulator::advance`]). The event queue exists for concurrent
//! workloads: the page-load DAGs resolve many hostnames at once. Its
//! events are `u32` tokens that the caller encodes and decodes; the
//! caller drives them with [`Simulator::next_event`] in its own loop and
//! `match`es on what it popped.

use crate::event::{EventHeap, EventId};
use crate::latency::{LatencyModel, PathModel};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, NodeSpec, Topology};
use crate::trace::{PacketRecord, TraceLog};
use dohperf_telemetry::{alloc, flight};

/// A deterministic discrete-event network simulator.
pub struct Simulator {
    now: SimTime,
    topology: Topology,
    path: PathModel,
    rng: SimRng,
    trace: TraceLog,
    queue: EventHeap<u32>,
}

impl Simulator {
    /// Create a simulator from a master seed. All randomness (latency draws,
    /// loss, anycast noise) descends deterministically from this seed.
    pub fn new(seed: u64) -> Self {
        let rng = SimRng::new(seed);
        Simulator {
            now: SimTime::ZERO,
            topology: Topology::new(),
            path: PathModel::new(rng.fork("path")),
            rng: rng.fork("engine"),
            trace: TraceLog::disabled(),
            queue: EventHeap::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology (read access).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The trace log (read access).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Enable or disable packet tracing.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Mutable access to the engine's own stream (loss draws etc.).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Run `f` with the simulator's internal random streams
    /// checkpointed: every sim-internal draw `f` makes (per-sample RTT
    /// jitter, engine loss draws) is rolled back when it returns, so
    /// code after the call sees exactly the stream positions it would
    /// have seen had `f` never run. The clock and latency caches are
    /// *not* rolled back — virtual time still advances and base-RTT
    /// cache fills are draw-free, so keeping them is observationally
    /// neutral for duration measurements.
    ///
    /// This is what lets the extended-transport lifecycle measurements
    /// share a shard's simulator without perturbing the legacy DoH/Do53
    /// draw sequence (DESIGN.md §13).
    pub fn with_rng_checkpoint<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let path_rng = self.path.rng_snapshot();
        let engine_rng = self.rng.clone();
        let out = f(self);
        self.path.rng_restore(path_rng);
        self.rng = engine_rng;
        out
    }

    /// Begin a fresh measurement epoch: rewind the clock to zero and
    /// re-anchor every sim-internal random stream (per-sample RTT jitter,
    /// engine loss/id draws) onto forks of `epoch`. After this call, every
    /// draw and timestamp the simulator produces is a pure function of
    /// `epoch` — not of how many measurements ran before it. Base-RTT
    /// caches and the topology are deliberately kept: base RTTs are
    /// fork-derived from the construction seed (position-independent) and
    /// node ids are anchored separately via
    /// [`Simulator::anchor_next_node`].
    ///
    /// This is the primitive behind sub-country campaign sharding: a
    /// client measured as the first item of a shard sees bit-identical
    /// streams to the same client measured mid-shard (DESIGN.md §14).
    ///
    /// Panics if events are still pending — an epoch boundary with live
    /// timers would mean cross-epoch leakage.
    pub fn begin_epoch(&mut self, epoch: &SimRng) {
        assert!(
            self.queue.is_empty(),
            "begin_epoch with {} events pending",
            self.queue.len()
        );
        self.now = SimTime::ZERO;
        self.path.rejitter(epoch.fork("path"));
        self.rng = epoch.fork("engine");
    }

    /// Pin the id of the next node added (see
    /// [`crate::topology::Topology::anchor_next_index`]).
    pub fn anchor_next_node(&mut self, index: usize) {
        self.topology.anchor_next_index(index);
    }

    /// The id the next added node will receive.
    pub fn next_node_index(&self) -> usize {
        self.topology.next_index()
    }

    /// Add a node to the topology.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        self.topology.add(spec)
    }

    /// Sample an RTT between two nodes (base + jitter).
    pub fn rtt(&mut self, a: NodeId, b: NodeId) -> SimDuration {
        self.path.rtt(&self.topology, a, b)
    }

    /// The stable base RTT between two nodes.
    pub fn base_rtt(&mut self, a: NodeId, b: NodeId) -> SimDuration {
        self.path.base_rtt(&self.topology, a, b)
    }

    /// Record a trace entry at the current time. When a flight recording
    /// is armed on this thread, the packet also lands as a point event on
    /// the query's innermost open span.
    pub fn trace_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        proto: &'static str,
        note: impl Into<String>,
    ) {
        // Materialize the note only when someone is listening: with the
        // trace log off and no flight recorder attached (the steady-state
        // campaign), this returns before `note.into()` can allocate.
        if !self.trace.is_enabled() && !flight::active() {
            return;
        }
        let at = self.now;
        let note = note.into();
        if flight::active() {
            flight::event(
                format!("{proto} n{}->n{} {note}", src.0, dst.0),
                at.as_nanos(),
            );
        }
        self.trace.record(PacketRecord {
            at,
            src,
            dst,
            proto,
            note,
        });
    }

    /// Advance the clock directly (used by the sequential session facade).
    /// Time never moves backwards.
    pub fn advance(&mut self, by: SimDuration) -> SimTime {
        self.now += by;
        self.now
    }

    /// Jump the clock to an absolute instant, if it is in the future.
    fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            self.now = at;
        }
    }

    /// Schedule `token` to fire at an absolute instant. Tokens are opaque
    /// to the simulator; the caller that drains the queue decodes them.
    pub fn schedule(&mut self, at: SimTime, token: u32) -> EventId {
        let id = {
            let _hot = alloc::hot_scope();
            self.queue.push(at, token)
        };
        if flight::active() {
            flight::event(
                format!("netsim schedule {id:?} at {}ns", at.as_nanos()),
                self.now.as_nanos(),
            );
        }
        id
    }

    /// Cancel a scheduled event (a no-op if it already fired).
    pub fn cancel(&mut self, id: EventId) {
        let _hot = alloc::hot_scope();
        self.queue.cancel(id);
    }

    /// Pop the next event and move the clock to its firing time. Returns
    /// the firing time and the token, or `None` once the queue is empty.
    pub fn next_event(&mut self) -> Option<(SimTime, u32)> {
        let (at, token) = {
            let _hot = alloc::hot_scope();
            self.queue.pop()?
        };
        self.advance_to(at);
        if flight::active() {
            flight::event("netsim dispatch event", at.as_nanos());
        }
        Some((at, token))
    }

    /// Pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{GeoPoint, NodeRole};

    impl Simulator {
        /// Clear the trace log.
        fn clear_trace(&mut self) {
            self.trace.clear();
        }
    }

    fn sim_with_pair() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(11);
        let a = sim.add_node(NodeSpec::new(
            "a",
            GeoPoint::new(0.0, 0.0),
            NodeRole::Client,
        ));
        let b = sim.add_node(NodeSpec::new(
            "b",
            GeoPoint::new(0.0, 50.0),
            NodeRole::Server,
        ));
        (sim, a, b)
    }

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let (mut sim, _, _) = sim_with_pair();
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.advance(SimDuration::from_millis(5));
        assert_eq!(sim.now(), SimTime::from_millis(5));
        sim.advance_to(SimTime::from_millis(3)); // backwards jump ignored
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }

    /// Drain the queue, returning every popped `(time, token)`.
    fn drain(sim: &mut Simulator) -> Vec<(SimTime, u32)> {
        std::iter::from_fn(|| sim.next_event()).collect()
    }

    #[test]
    fn events_fire_in_order_and_advance_clock() {
        let (mut sim, _, _) = sim_with_pair();
        sim.schedule(SimTime::from_millis(10), 1);
        let mut fired = 0;
        while let Some((at, token)) = sim.next_event() {
            assert_eq!(sim.now(), at);
            if token == 1 {
                sim.schedule(at + SimDuration::from_millis(5), 2);
            }
            fired += 1;
        }
        assert_eq!(fired, 2);
        assert_eq!(sim.now(), SimTime::from_millis(15));
    }

    #[test]
    fn pending_events_count_what_has_not_fired() {
        let (mut sim, _, _) = sim_with_pair();
        sim.schedule(SimTime::from_millis(10), 1);
        sim.schedule(SimTime::from_millis(100), 2);
        assert_eq!(sim.next_event(), Some((SimTime::from_millis(10), 1)));
        assert_eq!(sim.pending_events(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn cancelled_event_skipped() {
        let (mut sim, _, _) = sim_with_pair();
        let id = sim.schedule(SimTime::from_millis(10), 1);
        sim.cancel(id);
        assert!(drain(&mut sim).is_empty());
    }

    #[test]
    fn rtt_positive_and_reproducible_across_seeds() {
        let (mut sim1, a, b) = sim_with_pair();
        let r1 = sim1.base_rtt(a, b);
        let (mut sim2, c, d) = sim_with_pair();
        let r2 = sim2.base_rtt(c, d);
        assert_eq!(r1, r2);
        assert!(r1.as_millis_f64() > 10.0);
    }

    #[test]
    fn tracing_records_packets() {
        let (mut sim, a, b) = sim_with_pair();
        sim.set_tracing(true);
        sim.trace_packet(a, b, "dns/udp", "query example.com");
        assert_eq!(sim.trace().len(), 1);
        assert_eq!(sim.trace().records()[0].proto, "dns/udp");
        sim.clear_trace();
        assert!(sim.trace().is_empty());
    }

    #[test]
    fn begin_epoch_makes_draws_position_independent() {
        // A simulator that has done arbitrary prior work produces, after
        // begin_epoch, exactly the draws of a fresh simulator given the
        // same epoch stream.
        let (mut sim1, a, b) = sim_with_pair();
        for _ in 0..17 {
            sim1.rtt(a, b); // burn jitter draws
        }
        sim1.rng_mut().next_u64(); // burn an engine draw
        sim1.advance(SimDuration::from_millis(123));
        sim1.begin_epoch(&SimRng::new(7).fork("client-epoch"));
        assert_eq!(sim1.now(), SimTime::ZERO);
        let r1 = sim1.rtt(a, b);
        let e1 = sim1.rng_mut().next_u64();

        let (mut sim2, c, d) = sim_with_pair();
        sim2.begin_epoch(&SimRng::new(7).fork("client-epoch"));
        assert_eq!(sim2.rtt(c, d), r1);
        assert_eq!(sim2.rng_mut().next_u64(), e1);
    }

    #[test]
    fn begin_epoch_keeps_base_rtts_stable() {
        let (mut sim, a, b) = sim_with_pair();
        let base = sim.base_rtt(a, b);
        sim.begin_epoch(&SimRng::new(99).fork("e"));
        assert_eq!(sim.base_rtt(a, b), base);
    }

    #[test]
    #[should_panic(expected = "begin_epoch with")]
    fn begin_epoch_rejects_pending_events() {
        let (mut sim, _, _) = sim_with_pair();
        sim.schedule(SimTime::from_millis(10), 1);
        sim.begin_epoch(&SimRng::new(1));
    }

    #[test]
    fn epoch_reset_allows_rescheduling_from_time_zero() {
        let (mut sim, _, _) = sim_with_pair();
        sim.schedule(SimTime::from_millis(10), 1);
        drain(&mut sim);
        assert_eq!(sim.now(), SimTime::from_millis(10));
        sim.begin_epoch(&SimRng::new(2));
        sim.schedule(SimTime::from_millis(5), 2);
        assert_eq!(drain(&mut sim), vec![(SimTime::from_millis(5), 2)]);
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }
}

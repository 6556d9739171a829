//! The discrete-event queue: an indexed binary min-heap over a slab.
//!
//! Events are payloads ordered by firing time, with a monotonically
//! increasing sequence number breaking ties so that two events scheduled
//! for the same instant fire in scheduling order (FIFO). This tie-break is
//! what makes the engine deterministic.
//!
//! [`EventHeap<P>`] is generic over its payload. The simulator's own
//! queue carries a `u32` token, which the page-load workload decodes into
//! a typed event (`core::pageload`), so scheduling there touches no
//! allocator: event bookkeeping lives in a slab of reusable slots
//! (`Vec<EventSlot>` plus a free list), and a `Copy` payload needs no
//! box. [`EventQueue<C>`] is the same heap carrying boxed closures
//! ([`EventAction`]); each of its events allocates the `Box`, so it suits
//! callers that want a callback API more than speed.
//!
//! ## Structure
//!
//! * Every pending event owns a slab slot holding its `(at, seq)` key.
//!   A freed slot goes on a LIFO free list and bumps its generation, so
//!   an [`EventId`] (slot, generation) is a function of the push / cancel
//!   / pop sequence alone, and a fired or cancelled id never matches again.
//! * A binary min-heap on `(at, seq)` holds the pending slots' indices.
//!   Each pending slot records its heap position, so `cancel` removes the
//!   event in place: no tombstones, and the heap never holds more than
//!   the pending events.
//!
//! The page-load workload never holds more than 33 pending events (one
//! per page node plus its sweep tick), so `O(log n)` sifts over a few
//! dozen indices cost less than any structure built for thousands of
//! timers.

use crate::time::SimTime;

/// A scheduled callback body: receives the context and the firing time.
pub type EventAction<C> = Box<dyn FnOnce(&mut C, SimTime)>;

/// A future-event list of boxed closures over a context `C`.
pub type EventQueue<C> = EventHeap<EventAction<C>>;

/// Opaque handle identifying a scheduled event; can be used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn pack(slot: u32, generation: u32) -> EventId {
        EventId(((slot as u64) << 32) | generation as u64)
    }

    fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// Null link in the slab's free list.
const NIL: u32 = u32::MAX;
/// Pending events a new queue has room for: a page holds at most one
/// event per node (32) plus its sweep tick.
const RESERVED_EVENTS: usize = 64;

struct EventSlot<P> {
    at: SimTime,
    seq: u64,
    generation: u32,
    /// The slot's heap position while pending; the next free slot while
    /// free.
    link: u32,
    /// `Some` exactly while the event is pending.
    payload: Option<P>,
}

/// A deterministic future-event list carrying payloads of type `P`.
pub struct EventHeap<P> {
    slots: Vec<EventSlot<P>>,
    free_head: u32,
    /// Pending slot indices, a binary min-heap on `(at, seq)`.
    heap: Vec<u32>,
    next_seq: u64,
}

impl<P> Default for EventHeap<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> EventQueue<C> {
    /// Schedule `action` to fire at `at`. Returns a handle for cancellation.
    pub fn schedule<F>(&mut self, at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut C, SimTime) + 'static,
    {
        self.push(at, Box::new(action))
    }
}

impl<P> EventHeap<P> {
    /// Create an empty queue. The slab and the heap start with room for
    /// 64 pending events, so a queue that never holds more allocates
    /// nothing after construction.
    pub fn new() -> Self {
        EventHeap {
            slots: Vec::with_capacity(RESERVED_EVENTS),
            free_head: NIL,
            heap: Vec::with_capacity(RESERVED_EVENTS),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `at`. Returns a handle for
    /// cancellation.
    pub fn push(&mut self, at: SimTime, payload: P) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc_slot(at, seq, payload);
        let pos = self.heap.len();
        self.heap.push(idx);
        self.sift_up(pos);
        EventId::pack(idx, self.slots[idx as usize].generation)
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired or
    /// unknown event is a no-op (idempotent), matching timer semantics in
    /// real network stacks.
    pub fn cancel(&mut self, id: EventId) {
        let (idx, generation) = id.unpack();
        let Some(slot) = self.slots.get(idx as usize) else {
            return;
        };
        if slot.generation != generation || slot.payload.is_none() {
            return; // already fired (generation bumped) or never existed
        }
        let pos = slot.link as usize;
        self.remove_at(pos);
        self.free_slot(idx);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Remove and return the next pending event.
    pub fn pop(&mut self) -> Option<(SimTime, P)> {
        let idx = *self.heap.first()?;
        self.remove_at(0);
        let at = self.slots[idx as usize].at;
        let payload = self.free_slot(idx);
        Some((at, payload))
    }

    // ---- slab ----------------------------------------------------------

    fn alloc_slot(&mut self, at: SimTime, seq: u64, payload: P) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.link;
            slot.at = at;
            slot.seq = seq;
            slot.payload = Some(payload);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(EventSlot {
                at,
                seq,
                generation: 0,
                link: NIL,
                payload: Some(payload),
            });
            idx
        }
    }

    /// Return a slot, already out of the heap, to the free list and hand
    /// back its payload.
    fn free_slot(&mut self, idx: u32) -> P {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.link = self.free_head;
        self.free_head = idx;
        slot.payload
            .take()
            .expect("freed a slot with no pending event")
    }

    // ---- heap ----------------------------------------------------------

    /// True when slot `a` fires before slot `b`.
    fn before(&self, a: u32, b: u32) -> bool {
        let (a, b) = (&self.slots[a as usize], &self.slots[b as usize]);
        (a.at, a.seq) < (b.at, b.seq)
    }

    fn place(&mut self, pos: usize, idx: u32) {
        self.heap[pos] = idx;
        self.slots[idx as usize].link = pos as u32;
    }

    /// Remove the entry at heap position `pos`: the last entry takes its
    /// place and sifts down or up to restore the heap order.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.pop().expect("remove from an empty heap");
        if pos < self.heap.len() {
            self.heap[pos] = last;
            self.sift_down(pos);
            self.sift_up(pos);
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        let idx = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.before(idx, self.heap[parent]) {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, idx);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let idx = self.heap[pos];
        loop {
            let left = 2 * pos + 1;
            let right = left + 1;
            let Some(&first) = self.heap.get(left) else {
                break;
            };
            let child = match self.heap.get(right) {
                Some(&r) if self.before(r, first) => right,
                _ => left,
            };
            if !self.before(self.heap[child], idx) {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn fires_in_time_order() {
        let mut q: EventQueue<Vec<u32>> = EventQueue::new();
        q.schedule(SimTime::from_millis(30), |log, _| log.push(3));
        q.schedule(SimTime::from_millis(10), |log, _| log.push(1));
        q.schedule(SimTime::from_millis(20), |log, _| log.push(2));
        let mut log = Vec::new();
        while let Some((at, action)) = q.pop() {
            action(&mut log, at);
        }
        assert_eq!(log, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q: EventQueue<Vec<u32>> = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule(t, move |log, _| log.push(i));
        }
        let mut log = Vec::new();
        while let Some((at, action)) = q.pop() {
            action(&mut log, at);
        }
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut q: EventQueue<Vec<u32>> = EventQueue::new();
        let keep = q.schedule(SimTime::from_millis(1), |log, _| log.push(1));
        let drop_ = q.schedule(SimTime::from_millis(2), |log, _| log.push(2));
        let _ = keep;
        q.cancel(drop_);
        let mut log = Vec::new();
        while let Some((at, action)) = q.pop() {
            action(&mut log, at);
        }
        assert_eq!(log, vec![1]);
    }

    #[test]
    fn cancel_is_idempotent_and_tolerates_fired_events() {
        let mut q: EventQueue<Vec<u32>> = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), |log, _| log.push(1));
        let mut log = Vec::new();
        let (at, action) = q.pop().unwrap();
        action(&mut log, at);
        q.cancel(id);
        q.cancel(id);
        assert!(q.pop().is_none());
        assert_eq!(log, vec![1]);
    }

    #[test]
    fn event_receives_fire_time() {
        let mut q: EventQueue<Vec<SimTime>> = EventQueue::new();
        q.schedule(SimTime::from_millis(17), |log, at| log.push(at));
        let mut log = Vec::new();
        let (at, action) = q.pop().unwrap();
        action(&mut log, at);
        assert_eq!(log, vec![SimTime::from_millis(17)]);
    }

    #[test]
    fn past_schedules_fire_before_future_ones_in_time_order() {
        // After popping t=10, events scheduled at or before it must still
        // fire in (at, seq) order.
        let mut q: EventQueue<Vec<u32>> = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), |log, _| log.push(0));
        let mut log = Vec::new();
        let (at, action) = q.pop().unwrap();
        action(&mut log, at);
        q.schedule(SimTime::from_nanos(5), |log, _| log.push(5));
        q.schedule(SimTime::from_nanos(3), |log, _| log.push(3));
        q.schedule(SimTime::from_nanos(12), |log, _| log.push(12));
        q.schedule(SimTime::from_nanos(10), |log, _| log.push(10));
        while let Some((at, action)) = q.pop() {
            action(&mut log, at);
        }
        assert_eq!(log, vec![0, 3, 5, 10, 12]);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q: EventQueue<Vec<u64>> = EventQueue::new();
        // Far beyond any page visit (about 36 years of simulated time).
        let far = 1u64 << 60;
        q.schedule(SimTime::from_nanos(far + 7), |log, _| log.push(3));
        q.schedule(SimTime::from_nanos(far), |log, _| log.push(2));
        q.schedule(SimTime::from_nanos(1), |log, _| log.push(1));
        assert_eq!(q.len(), 3);
        let mut log = Vec::new();
        while let Some((at, action)) = q.pop() {
            action(&mut log, at);
        }
        assert_eq!(log, vec![1, 2, 3]);
    }

    #[test]
    fn cancel_reaches_every_region() {
        let mut q: EventQueue<Vec<u64>> = EventQueue::new();
        q.schedule(SimTime::from_nanos(50), |log, _| log.push(50));
        let near = q.schedule(SimTime::from_millis(1), |log, _| log.push(1));
        let far = q.schedule(SimTime::from_nanos(1 << 60), |log, _| log.push(60));
        let mut log = Vec::new();
        let (at, action) = q.pop().unwrap(); // the last popped time is 50
        action(&mut log, at);
        let behind = q.schedule(SimTime::from_nanos(10), |log, _| log.push(10));
        assert_eq!(q.len(), 3);
        q.cancel(near);
        q.cancel(far);
        q.cancel(behind);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(log, vec![50]);
    }

    #[test]
    fn slots_are_reused_and_stale_ids_stay_dead() {
        let mut q: EventQueue<Vec<u32>> = EventQueue::new();
        let first = q.schedule(SimTime::from_nanos(1), |log, _| log.push(1));
        let (_, _action) = q.pop().unwrap();
        // The freed slot is reused; the stale id must not cancel the
        // replacement event.
        let second = q.schedule(SimTime::from_nanos(2), |log, _| log.push(2));
        q.cancel(first);
        assert_eq!(q.len(), 1);
        let mut log = Vec::new();
        let (at, action) = q.pop().unwrap();
        action(&mut log, at);
        assert_eq!(log, vec![2]);
        q.cancel(second); // fired: no-op
        assert!(q.is_empty());
    }

    /// Differential test: the queue must reproduce a reference (at, seq)
    /// sort over a large batch of colliding and spread-out times.
    #[test]
    fn matches_reference_order_on_mixed_workload() {
        let mut q: EventQueue<Vec<(u64, u64)>> = EventQueue::new();
        let mut expected: Vec<(u64, u64)> = Vec::new();
        let mut state: u64 = 0x243f_6a88_85a3_08d3;
        for seq in 0..500u64 {
            // xorshift for a deterministic, clumpy spread of times.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let t = match seq % 5 {
                0 => state % 64,                    // dense collisions
                1 => state % 4_096,                 // sparser collisions
                2 => 1_000,                         // heavy tie
                3 => state % 1_000_000_000,         // spread over a second
                _ => (1u64 << 40) + (state % 1024), // far ahead
            };
            expected.push((t, seq));
            q.schedule(SimTime::from_nanos(t), move |log, _| log.push((t, seq)));
        }
        expected.sort();
        let mut log = Vec::new();
        while let Some((at, action)) = q.pop() {
            action(&mut log, at);
        }
        assert_eq!(log, expected);
    }

    /// Interleaved schedule/pop: later schedules may land behind the last
    /// popped time and must still sort globally.
    #[test]
    fn interleaved_schedule_and_pop_sorts_globally() {
        let mut q: EventQueue<Vec<(u64, u64)>> = EventQueue::new();
        let mut fired: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let sched = |q: &mut EventQueue<Vec<(u64, u64)>>, t: u64, seq: &mut u64| {
            let s = *seq;
            *seq += 1;
            q.schedule(SimTime::from_nanos(t), move |log, _| log.push((t, s)));
        };
        for t in [100u64, 40, 40, 7_000, 100] {
            sched(&mut q, t, &mut seq);
        }
        for _ in 0..2 {
            let (at, action) = q.pop().unwrap();
            action(&mut fired, at);
        }
        // The last popped time is 40; these land at or behind it.
        for t in [10u64, 40, 39] {
            sched(&mut q, t, &mut seq);
        }
        while let Some((at, action)) = q.pop() {
            action(&mut fired, at);
        }
        assert_eq!(
            fired,
            vec![
                (40, 1),
                (40, 2),
                (10, 5),
                (39, 7),
                (40, 6),
                (100, 0),
                (100, 4),
                (7_000, 3),
            ]
        );
    }

    /// The reserve bounds the slab and the heap: a queue cycling through
    /// up to 64 pending events, pushed, cancelled and popped in a random
    /// mix, never grows either `Vec`.
    #[test]
    fn reserve_holds_64_pending_events_without_growing() {
        let mut q: EventHeap<u32> = EventHeap::new();
        let reserved = (q.slots.capacity(), q.heap.capacity());
        assert!(reserved.0 >= RESERVED_EVENTS && reserved.1 >= RESERVED_EVENTS);
        let mut live: Vec<EventId> = Vec::new();
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        for token in 0..5_000u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Fill to the reserve first, then mix all three operations.
            let at = SimTime::from_nanos((state >> 8) % 10_000);
            let fill = token < RESERVED_EVENTS as u32;
            if fill || (state.is_multiple_of(3) && q.len() < RESERVED_EVENTS) {
                live.push(q.push(at, token));
            } else if state % 3 == 1 && !live.is_empty() {
                q.cancel(live.swap_remove((state >> 8) as usize % live.len()));
            } else {
                q.pop();
            }
            assert!(q.len() <= RESERVED_EVENTS);
        }
        assert_eq!((q.slots.capacity(), q.heap.capacity()), reserved);
    }

    /// Pins the ids and the pop order of one fixed script: same-instant
    /// ties, a push behind the last popped time, a push 2^48 ns ahead,
    /// cancels of a live, a fired and a stale id, and pops. The literals
    /// are what the page-load golden trace's `EventId`s depend on.
    #[test]
    fn fixed_script_pins_ids_and_pop_order() {
        let mut q: EventHeap<u32> = EventHeap::new();
        let ns = SimTime::from_nanos;
        let a = q.push(ns(10), 0);
        let b = q.push(ns(10), 1);
        let c = q.push(ns(5), 2);
        let mut popped = vec![q.pop().unwrap(), q.pop().unwrap()];
        q.cancel(c);
        let d = q.push(ns(3), 3);
        let e = q.push(ns((1 << 48) + 100), 4);
        let f = q.push(ns(10), 5);
        let g = q.push(ns(1_000), 6);
        q.cancel(g);
        q.cancel(a);
        let h = q.push(ns(7), 7);
        q.cancel(g);
        let i = q.push(ns(10), 8);
        popped.push(q.pop().unwrap());
        q.cancel(c);
        let j = q.push(ns(1 << 48), 9);
        assert_eq!(q.len(), 6);
        popped.extend(std::iter::from_fn(|| q.pop()));
        q.cancel(b);
        assert!(q.is_empty());
        assert_eq!(
            [a, b, c, d, e, f, g, h, i, j].map(EventId::unpack),
            [
                (0, 0),
                (1, 0),
                (2, 0),
                (0, 1),
                (2, 1),
                (3, 0),
                (4, 0),
                (4, 1),
                (5, 0),
                (0, 2),
            ]
        );
        let popped: Vec<(u64, u32)> = popped.iter().map(|&(at, t)| (at.as_nanos(), t)).collect();
        assert_eq!(
            popped,
            [
                (5, 2),
                (10, 0),
                (3, 3),
                (7, 7),
                (10, 1),
                (10, 5),
                (10, 8),
                (1 << 48, 9),
                ((1 << 48) + 100, 4),
            ]
        );
    }

    /// The payload type is invisible to the heap: a `Copy` token heap
    /// and the boxed-closure queue, driven by one schedule / cancel / pop
    /// sequence, hand out the same [`EventId`]s and pop the same order.
    #[test]
    fn typed_and_boxed_wheels_agree_on_ids_and_order() {
        let mut typed: EventHeap<u32> = EventHeap::new();
        let mut boxed: EventQueue<Vec<u32>> = EventQueue::new();
        let mut log = Vec::new();
        let mut popped = Vec::new();
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut live: Vec<EventId> = Vec::new();
        for token in 0..400u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 4 {
                0 if !live.is_empty() => {
                    let id = live.swap_remove((state >> 8) as usize % live.len());
                    typed.cancel(id);
                    boxed.cancel(id);
                }
                1 => {
                    let (t, p) = typed
                        .pop()
                        .map_or((None, None), |(t, p)| (Some(t), Some(p)));
                    let b = boxed.pop().map(|(at, action)| {
                        action(&mut log, at);
                        at
                    });
                    assert_eq!(t, b);
                    popped.extend(p);
                }
                _ => {
                    let at = SimTime::from_nanos((state >> 16) % 5_000_000);
                    let id = typed.push(at, token);
                    assert_eq!(id, boxed.schedule(at, move |log, _| log.push(token)));
                    live.push(id);
                }
            }
        }
        while let Some((at, action)) = boxed.pop() {
            action(&mut log, at);
            popped.extend(typed.pop().map(|(_, p)| p));
        }
        assert!(typed.is_empty());
        assert_eq!(popped, log);
    }
}

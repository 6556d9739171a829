//! The discrete-event queue: a hierarchical timer wheel over a slab.
//!
//! Events are payloads ordered by firing time, with a monotonically
//! increasing sequence number breaking ties so that two events scheduled
//! for the same instant fire in scheduling order (FIFO). This tie-break is
//! what makes the engine deterministic.
//!
//! [`TimerWheel<P>`] is generic over its payload. The simulator's own
//! wheel carries a `u32` token, which the page-load workload decodes into
//! a typed event (`core::pageload`), so scheduling there touches no
//! allocator: event bookkeeping lives in a slab of reusable slots
//! (`Vec<EventSlot>` plus a free list), and a `Copy` payload needs no
//! box. [`EventQueue<C>`] is the same wheel carrying boxed closures
//! ([`EventAction`]); each of its events allocates the `Box`, so it suits
//! callers that want a callback API more than speed.
//!
//! ## Structure
//!
//! * `LEVELS` wheel levels of 64 buckets each; level `l` buckets span
//!   `64^l` ticks (1 tick = 1 ns), so the wheel covers `64^LEVELS` ns.
//!   Per-level occupancy bitmaps find the next occupied bucket with a
//!   `trailing_zeros`, never stepping tick-by-tick.
//! * Events beyond the wheel horizon sit in a **sorted overflow list**;
//!   events scheduled at or before the cursor sit in a sorted **due
//!   list**. Both are kept in descending `(at, seq)` order so the minimum
//!   pops from the back in O(1).
//! * `pop`/`peek_time` take the smallest `(at, seq)` across the three
//!   sources, cascading higher-level buckets down as the cursor advances.
//!   Level-0 buckets hold a single tick and are kept sorted by `seq`, so
//!   equal-time events drain in exactly the order a `(at, seq)` heap
//!   would produce — the replacement is observationally identical.

use crate::time::SimTime;

/// A scheduled callback body: receives the context and the firing time.
pub type EventAction<C> = Box<dyn FnOnce(&mut C, SimTime)>;

/// A future-event list of boxed closures over a context `C`.
pub type EventQueue<C> = TimerWheel<EventAction<C>>;

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

/// Number of wheel levels. 64^8 ticks at 1 ns/tick ≈ 78 hours of simulated
/// time before an event lands in the overflow list.
const LEVELS: usize = 8;
/// log2 of the per-level bucket count.
const LEVEL_BITS: u32 = 6;
const BUCKETS: usize = 1 << LEVEL_BITS;
/// Null link in the slab's intrusive lists.
const NIL: u32 = u32::MAX;
/// Pending events a new queue has room for. A page holds at most one
/// event per node (32) plus its sweep tick; most of them can sit in the
/// due list at once, because a cascade may move the cursor past them.
const RESERVED_EVENTS: usize = 64;

/// Where a live slot is currently filed (so `cancel` can unlink it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Wheel { level: u8, bucket: u8 },
    Due,
    Overflow,
    Free,
}

struct EventSlot<P> {
    at: SimTime,
    seq: u64,
    generation: u32,
    next: u32,
    loc: Loc,
    payload: Option<P>,
}

/// A deterministic future-event list carrying payloads of type `P`.
pub struct TimerWheel<P> {
    slots: Vec<EventSlot<P>>,
    free_head: u32,
    buckets: [[u32; BUCKETS]; LEVELS],
    occupancy: [u64; LEVELS],
    /// Slot indices with `at <= cursor`, descending `(at, seq)`.
    due: Vec<u32>,
    /// Slot indices beyond the wheel horizon, descending `(at, seq)`.
    overflow: Vec<u32>,
    /// The wheel's notion of "now": the tick of the last popped event (or
    /// of the last cascade). Only ever advances.
    cursor: u64,
    next_seq: u64,
    live: usize,
}

impl<P> Default for TimerWheel<P> {
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

impl<P> TimerWheel<P> {
    /// Create an empty queue. The slab and the due list start with room
    /// for 64 pending events, so a queue that never holds more, and never
    /// schedules past the wheel's ~78 h horizon, allocates nothing after
    /// construction.
    pub fn new() -> Self {
        TimerWheel {
            slots: Vec::with_capacity(RESERVED_EVENTS),
            free_head: NIL,
            buckets: [[NIL; BUCKETS]; LEVELS],
            occupancy: [0; LEVELS],
            due: Vec::with_capacity(RESERVED_EVENTS),
            overflow: Vec::new(),
            cursor: 0,
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `payload` to fire at `at`. Returns a handle for
    /// cancellation.
    pub fn push(&mut self, at: SimTime, payload: P) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc_slot(at, seq, payload);
        self.live += 1;
        self.file(idx);
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
        if slot.generation != generation || slot.loc == Loc::Free {
            return; // already fired (generation bumped) or never existed
        }
        self.unlink(idx);
        self.free_slot(idx);
        self.live -= 1;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Rewind the wheel's notion of "now" to zero so a fresh simulated
    /// epoch can schedule near time zero without everything landing on the
    /// due list. Only legal while the queue is empty — with no live slots
    /// every bucket, the due list and the overflow are empty, so the
    /// occupancy invariant (no occupied bucket behind the cursor) holds
    /// trivially at cursor 0. Slot generations are untouched: stale
    /// [`EventId`]s from before the reset stay dead.
    pub fn reset_time(&mut self) {
        assert!(self.is_empty(), "reset_time with {} live events", self.live);
        self.cursor = 0;
    }

    /// The firing time of the next live event, if any. May cascade wheel
    /// buckets internally (hence `&mut`), which never changes the order.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.min_slot().map(|idx| self.slots[idx as usize].at)
    }

    /// Remove and return the next live event.
    pub fn pop(&mut self) -> Option<(SimTime, P)> {
        let idx = self.min_slot()?;
        let slot = &self.slots[idx as usize];
        let at = slot.at;
        // The popped event is the global minimum, so every remaining wheel
        // entry is at or after it; advancing the cursor keeps the
        // occupancy invariant (no occupied bucket behind the cursor).
        self.cursor = self.cursor.max(at.as_nanos());
        self.unlink(idx);
        let payload = self.slots[idx as usize]
            .payload
            .take()
            .expect("event payload taken twice");
        self.free_slot(idx);
        self.live -= 1;
        Some((at, payload))
    }

    // ---- slab ----------------------------------------------------------

    fn alloc_slot(&mut self, at: SimTime, seq: u64, payload: P) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.at = at;
            slot.seq = seq;
            slot.next = NIL;
            slot.payload = Some(payload);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(EventSlot {
                at,
                seq,
                generation: 0,
                next: NIL,
                loc: Loc::Free,
                payload: Some(payload),
            });
            idx
        }
    }

    fn free_slot(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.payload = None;
        slot.loc = Loc::Free;
        slot.next = self.free_head;
        self.free_head = idx;
    }

    // ---- filing --------------------------------------------------------

    /// File a slot into the structure matching its tick relative to the
    /// cursor: the due list (at or before), a wheel bucket (within the
    /// horizon), or the overflow list.
    fn file(&mut self, idx: u32) {
        let tick = self.slots[idx as usize].at.as_nanos();
        if tick <= self.cursor {
            self.slots[idx as usize].loc = Loc::Due;
            let pos = self.sorted_pos(&self.due, idx);
            self.due.insert(pos, idx);
            return;
        }
        // Highest 6-bit group where the tick differs from the cursor
        // decides the level; within a level the group's value is the
        // bucket. (Equality was handled above, so the XOR is non-zero.)
        let group = (63 - (tick ^ self.cursor).leading_zeros()) / LEVEL_BITS;
        if group as usize >= LEVELS {
            self.slots[idx as usize].loc = Loc::Overflow;
            let pos = self.sorted_pos(&self.overflow, idx);
            self.overflow.insert(pos, idx);
            return;
        }
        let level = group as usize;
        let bucket = ((tick >> (LEVEL_BITS * group)) & 63) as usize;
        let slot = &mut self.slots[idx as usize];
        slot.loc = Loc::Wheel {
            level: level as u8,
            bucket: bucket as u8,
        };
        if level == 0 {
            // A level-0 bucket is a single tick: keep it sorted by seq so
            // equal-time events drain FIFO regardless of cascade order.
            let seq = slot.seq;
            let mut prev = NIL;
            let mut cur = self.buckets[0][bucket];
            while cur != NIL && self.slots[cur as usize].seq < seq {
                prev = cur;
                cur = self.slots[cur as usize].next;
            }
            self.slots[idx as usize].next = cur;
            if prev == NIL {
                self.buckets[0][bucket] = idx;
            } else {
                self.slots[prev as usize].next = idx;
            }
        } else {
            // Higher levels are unordered staging areas; prepend.
            self.slots[idx as usize].next = self.buckets[level][bucket];
            self.buckets[level][bucket] = idx;
        }
        self.occupancy[level] |= 1u64 << bucket;
    }

    /// Position at which `idx` belongs in a descending-`(at, seq)` list.
    fn sorted_pos(&self, list: &[u32], idx: u32) -> usize {
        let key = {
            let s = &self.slots[idx as usize];
            (s.at, s.seq)
        };
        list.partition_point(|&other| {
            let o = &self.slots[other as usize];
            (o.at, o.seq) > key
        })
    }

    /// Unlink a live slot from whatever structure holds it.
    fn unlink(&mut self, idx: u32) {
        match self.slots[idx as usize].loc {
            Loc::Wheel { level, bucket } => {
                let (level, bucket) = (level as usize, bucket as usize);
                let mut prev = NIL;
                let mut cur = self.buckets[level][bucket];
                while cur != idx {
                    debug_assert_ne!(cur, NIL, "slot missing from its bucket");
                    prev = cur;
                    cur = self.slots[cur as usize].next;
                }
                let next = self.slots[idx as usize].next;
                if prev == NIL {
                    self.buckets[level][bucket] = next;
                } else {
                    self.slots[prev as usize].next = next;
                }
                if self.buckets[level][bucket] == NIL {
                    self.occupancy[level] &= !(1u64 << bucket);
                }
            }
            Loc::Due => {
                let pos = self.list_pos(&self.due, idx);
                self.due.remove(pos);
            }
            Loc::Overflow => {
                let pos = self.list_pos(&self.overflow, idx);
                self.overflow.remove(pos);
            }
            Loc::Free => unreachable!("unlink of a free slot"),
        }
    }

    fn list_pos(&self, list: &[u32], idx: u32) -> usize {
        let start = self.sorted_pos(list, idx);
        debug_assert_eq!(list[start], idx, "slot missing from its sorted list");
        start
    }

    // ---- selection -----------------------------------------------------

    /// The slot index of the next event to fire, cascading wheel buckets
    /// until the wheel's own minimum (if any) sits in a level-0 bucket.
    fn min_slot(&mut self) -> Option<u32> {
        let wheel = self.settle_wheel();
        let due = self.due.last().copied();
        let overflow = self.overflow.last().copied();
        let mut best: Option<u32> = None;
        for candidate in [due, wheel, overflow].into_iter().flatten() {
            best = Some(match best {
                None => candidate,
                Some(b) => {
                    let bk = &self.slots[b as usize];
                    let ck = &self.slots[candidate as usize];
                    if (ck.at, ck.seq) < (bk.at, bk.seq) {
                        candidate
                    } else {
                        b
                    }
                }
            });
        }
        best
    }

    /// Cascade until the earliest wheel event (if any) is in a level-0
    /// bucket, and return its slot.
    fn settle_wheel(&mut self) -> Option<u32> {
        loop {
            let mut found = None;
            for level in 0..LEVELS {
                let cur = (self.cursor >> (LEVEL_BITS * level as u32)) & 63;
                // Buckets behind the cursor are never occupied: the cursor
                // only advances to a popped global minimum or a cascaded
                // bucket boundary, both at or before every remaining event.
                debug_assert_eq!(self.occupancy[level] & !(!0u64 << cur), 0);
                let masked = self.occupancy[level] & (!0u64 << cur);
                if masked != 0 {
                    found = Some((level, masked.trailing_zeros() as usize));
                    break;
                }
            }
            match found {
                None => return None,
                Some((0, bucket)) => return Some(self.buckets[0][bucket]),
                Some((level, bucket)) => {
                    // Advance the cursor to the bucket's span start, then
                    // re-file its events one level (or more) down.
                    let span = LEVEL_BITS * level as u32;
                    let above = self.cursor >> (span + LEVEL_BITS) << (span + LEVEL_BITS);
                    let start = above | ((bucket as u64) << span);
                    debug_assert!(start >= self.cursor);
                    self.cursor = start;
                    let mut node = self.buckets[level][bucket];
                    self.buckets[level][bucket] = NIL;
                    self.occupancy[level] &= !(1u64 << bucket);
                    while node != NIL {
                        let next = self.slots[node as usize].next;
                        self.slots[node as usize].next = NIL;
                        self.file(node);
                        node = next;
                    }
                }
            }
        }
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
    fn peek_time_skips_cancelled() {
        let mut q: EventQueue<()> = EventQueue::new();
        let first = q.schedule(SimTime::from_millis(1), |_, _| {});
        q.schedule(SimTime::from_millis(2), |_, _| {});
        q.cancel(first);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
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
        // Draining to t=10 moves the cursor; events then scheduled at or
        // before the cursor must still fire in (at, seq) order.
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
        // Beyond 64^8 ns: overflow territory.
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
        let wheel = q.schedule(SimTime::from_millis(1), |log, _| log.push(1));
        let over = q.schedule(SimTime::from_nanos(1 << 60), |log, _| log.push(60));
        let mut log = Vec::new();
        let (at, action) = q.pop().unwrap(); // cursor -> 50
        action(&mut log, at);
        let due = q.schedule(SimTime::from_nanos(10), |log, _| log.push(10));
        assert_eq!(q.len(), 3);
        q.cancel(wheel);
        q.cancel(over);
        q.cancel(due);
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

    /// Differential test: the wheel must reproduce a reference (at, seq)
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
                0 => state % 64,                    // collides at level 0
                1 => state % 4_096,                 // level 1
                2 => 1_000,                         // heavy tie
                3 => state % 1_000_000_000,         // spread over a second
                _ => (1u64 << 40) + (state % 1024), // deep wheel levels
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

    /// Interleaved schedule/pop with cursor movement: later schedules may
    /// land behind the cursor and must still sort globally.
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
        // Cursor is now at t=40; these land in the due list.
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

    /// The payload type is invisible to the wheel: a `Copy` token wheel
    /// and the boxed-closure queue, driven by one schedule / cancel / pop
    /// sequence, hand out the same [`EventId`]s and pop the same order.
    #[test]
    fn typed_and_boxed_wheels_agree_on_ids_and_order() {
        let mut typed: TimerWheel<u32> = TimerWheel::new();
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

//! Per-shard event wheel.
//!
//! A hybrid timing wheel: near-future events land in a ring of time
//! slots, far-future events in an overflow heap, and the slot currently
//! being drained in a small binary heap ordered by `(time, key)`. The
//! key (see [`LocalEvent::key`]) is a canonical, sharding-invariant
//! ordering, so the pop sequence — and therefore the simulation — is
//! identical for any slot width and any partitioning of the topology.

use super::shard::{EventKey, LocalEvent};
use crate::event::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Ring size; slots beyond the window overflow into a heap.
const SLOTS: usize = 256;

struct Entry {
    time: SimTime,
    key: EventKey,
    ev: LocalEvent,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted for earliest-(time, key)-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// Earliest-first pending-event store for one shard.
pub(crate) struct EventWheel {
    slot_ns: u64,
    /// `ring[s % SLOTS]` holds events of absolute slot `s` for
    /// `s` in `(cursor, cursor + SLOTS)`.
    ring: Vec<Vec<Entry>>,
    ring_len: usize,
    /// Events at slots at or beyond `cursor + SLOTS`.
    overflow: BinaryHeap<Entry>,
    /// Loaded events of slots `<= cursor`, min-first by `(time, key)`.
    current: BinaryHeap<Entry>,
    /// Absolute index of the most recently loaded slot.
    cursor: u64,
    len: usize,
}

impl EventWheel {
    /// An empty wheel with the given slot width (ns). Width only affects
    /// performance, never ordering.
    pub fn new(slot_ns: u64) -> Self {
        Self {
            slot_ns: slot_ns.max(1),
            ring: (0..SLOTS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            current: BinaryHeap::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Schedules `ev` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, ev: LocalEvent) {
        let key = ev.key();
        let slot = time / self.slot_ns;
        let e = Entry { time, key, ev };
        if slot <= self.cursor {
            self.current.push(e);
        } else if slot - self.cursor < SLOTS as u64 {
            self.ring[(slot % SLOTS as u64) as usize].push(e);
            self.ring_len += 1;
        } else {
            self.overflow.push(e);
        }
        self.len += 1;
    }

    /// Makes `current` hold the globally earliest pending event (if any
    /// events are pending at all) by advancing the cursor.
    fn refill(&mut self) {
        while self.current.is_empty() && (self.ring_len > 0 || !self.overflow.is_empty()) {
            if self.ring_len == 0 {
                // Ring empty: jump straight to the earliest overflow slot
                // instead of stepping through empty slots one by one.
                let t = self.overflow.peek().expect("overflow non-empty").time;
                self.cursor = self.cursor.max(t / self.slot_ns);
            } else {
                self.cursor += 1;
            }
            let idx = (self.cursor % SLOTS as u64) as usize;
            let drained = self.ring[idx].len();
            self.ring_len -= drained;
            for e in self.ring[idx].drain(..) {
                self.current.push(e);
            }
            while self
                .overflow
                .peek()
                .is_some_and(|e| e.time / self.slot_ns <= self.cursor)
            {
                let e = self.overflow.pop().expect("peeked");
                self.current.push(e);
            }
        }
    }

    /// Pops the earliest event strictly before `before` — the epoch
    /// boundary — in `(time, key)` order.
    pub fn pop_next(&mut self, before: SimTime) -> Option<(SimTime, LocalEvent)> {
        self.refill();
        if self.current.peek()?.time >= before {
            return None;
        }
        let e = self.current.pop().expect("peeked");
        self.len -= 1;
        Some((e.time, e.ev))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.refill();
        self.current.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(flow: usize) -> LocalEvent {
        LocalEvent::SourceEmit { flow }
    }

    #[test]
    fn pops_in_time_order_across_slots_and_overflow() {
        let mut w = EventWheel::new(100);
        // Same slot, next slot, far beyond the ring, and slot zero.
        for &t in &[250u64, 90, 1_000_000, 3, 255, 26_000] {
            w.schedule(t, emit(t as usize));
        }
        assert_eq!(w.len(), 6);
        assert_eq!(w.peek_time(), Some(3));
        let mut seen = Vec::new();
        while let Some((t, _)) = w.pop_next(SimTime::MAX) {
            seen.push(t);
        }
        assert_eq!(seen, vec![3, 90, 250, 255, 26_000, 1_000_000]);
        assert!(w.is_empty());
    }

    #[test]
    fn equal_times_pop_in_key_order_regardless_of_insertion() {
        let mut w = EventWheel::new(1_000);
        w.schedule(500, LocalEvent::TransmitDone { channel: 2, gen: 0 });
        w.schedule(500, emit(9));
        w.schedule(500, emit(1));
        let keys: Vec<EventKey> =
            std::iter::from_fn(|| w.pop_next(600).map(|(_, e)| e.key())).collect();
        // SourceEmit (class 0) by flow id, then TransmitDone (class 2).
        assert_eq!(keys, vec![(0, 1, 0), (0, 9, 0), (2, 2, 0)]);
    }

    #[test]
    fn pop_next_respects_the_epoch_boundary() {
        let mut w = EventWheel::new(10);
        w.schedule(5, emit(0));
        w.schedule(15, emit(1));
        assert_eq!(w.pop_next(10).map(|(t, _)| t), Some(5));
        assert!(w.pop_next(10).is_none(), "15 is at or past the boundary");
        assert_eq!(w.len(), 1);
        // Events scheduled mid-drain for the current slot still pop.
        w.schedule(15, emit(2));
        assert_eq!(w.pop_next(16).map(|(t, _)| t), Some(15));
        assert_eq!(w.pop_next(16).map(|(t, _)| t), Some(15));
        assert!(w.is_empty());
    }
}

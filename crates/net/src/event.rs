//! The simulator's time-ordered event queue and the coordinator's
//! control events.
//!
//! [`EventQueue`] is the engine's one event store: the coordinator keeps
//! its [`ControlEvent`]s in one, and every shard keeps its packet-level
//! events in another. Events at equal timestamps pop by [`EventRank`]
//! first, then in insertion order (a monotone sequence number breaks
//! the remaining ties). A shard's events rank by their canonical key
//! (`engine::shard`), which is unique at its timestamp, so insertion
//! order never decides between two of them; only the coordinator
//! schedules control events. Runs are therefore deterministic for a
//! fixed seed at any shard count.
//!
//! # Keys in the heap, payloads in a slab
//!
//! A shard's event can carry a whole in-flight packet, so it is large
//! (168 bytes for a `LocalEvent`), and a binary heap moves its entries
//! on every push and pop: a pop sifts an entry down about `log2(len)`
//! levels. The queue therefore keeps each payload in a slab — a `Vec`
//! of slots plus a free list of vacated ones — and its heap orders only
//! `(time, rank, seq, slot)` keys, 48 bytes for a shard's event. A
//! payload is written once when scheduled and read once when popped;
//! sifts move keys. Pop order is exactly the `(time, rank, insertion
//! order)` order of a heap holding the events themselves (the unit tests
//! diff the two), so reports do not depend on the layout.

use crate::engine::InFlightPdu;
use mpls_control::{LinkId, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in nanoseconds.
pub type SimTime = u64;

/// Coordinator-level events: everything that mutates shared state (the
/// control plane, channel liveness, fault records) or reads a globally
/// consistent snapshot. These run between shard epochs, never inside
/// one, so shards observe control-plane state frozen for the duration
/// of an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlEvent {
    /// A scheduled fault: the link's channels go dark.
    LinkDown {
        /// The failing link.
        link: LinkId,
    },
    /// A scheduled repair: the link's channels come back.
    LinkUp {
        /// The repaired link.
        link: LinkId,
    },
    /// The control plane learns of a failure (one detection delay after
    /// `LinkDown`) and starts recovery.
    FaultDetected {
        /// The detected link.
        link: LinkId,
    },
    /// A head-end re-signaling attempt completes.
    Resignal {
        /// Index into the engine's pending-resignal table.
        pending: usize,
    },
    /// A repaired link's hold-down timer expires; the control plane may
    /// route over it again.
    HoldDownExpired {
        /// The repaired link.
        link: LinkId,
    },
    /// A retired make-before-break husk's drain grace expires; its
    /// remaining state is released.
    TeardownLsp {
        /// The husk to tear down.
        lsp: mpls_control::LspId,
    },
    /// A periodic telemetry sample point: queue depths and utilization
    /// series take a reading. Only scheduled on telemetry-enabled runs,
    /// and only re-armed while other work than the LDP protocol's tick
    /// and deliveries is pending, so it never keeps sampling a run whose
    /// traffic and faults are over.
    TelemetrySample,
    /// The distributed control plane's hello/keepalive timer fires:
    /// every LDP speaker emits its periodic PDUs and expires silent
    /// sessions. Only scheduled when the run uses `--control ldp`.
    LdpTick,
    /// An in-flight LDP PDU reaches the far end of its channel.
    LdpDeliver {
        /// The PDU and the channel incarnation it left on.
        msg: InFlightPdu,
    },
    /// A node crashes: every incident link goes dark, its forwarding
    /// state is wiped (the FIB is cold) and — under `--control ldp` —
    /// all of its protocol state is lost.
    NodeDown {
        /// The crashing node.
        node: NodeId,
    },
    /// A crashed node restarts: incident links return and the node
    /// begins re-learning its forwarding state.
    NodeUp {
        /// The restarting node.
        node: NodeId,
    },
    /// The centralized control plane re-downloads a restarted node's
    /// configuration (one detection delay after [`ControlEvent::NodeUp`];
    /// the cold-FIB window ends here). LDP runs re-learn via the
    /// protocol instead.
    NodeReprovision {
        /// The node being reprovisioned.
        node: NodeId,
    },
    /// A control-channel partition begins on a link: control PDUs are
    /// dropped while data traffic keeps flowing — the failure mode that
    /// separates "the protocol died" from "the wire died".
    PartitionStart {
        /// The partitioned link.
        link: LinkId,
    },
    /// The control-channel partition heals.
    PartitionEnd {
        /// The healed link.
        link: LinkId,
    },
}

/// Tie-break class for events sharing a timestamp: lower ranks pop
/// first, and only then does insertion order decide.
///
/// A shard's local events rank by their canonical key
/// (`engine::shard`), unique at its timestamp. Among control events the
/// rule lives in the [`ControlEvent`] impl: an in-flight delivery
/// ([`ControlEvent::LdpDeliver`]) outranks every timer at the same
/// instant. A keepalive that lands exactly when the
/// receiver's hold timer would expire therefore refreshes the session
/// before [`ControlEvent::LdpTick`] inspects it — "the wire beats the
/// clock" — matching RFC 5036's intent that a session only expires
/// after genuine silence. Without the rank the winner would depend on
/// which event happened to be scheduled first, which in turn depends
/// on shard count.
pub trait EventRank {
    /// The ordering class; lower pops first.
    type Rank: Ord;

    /// Rank within a timestamp.
    fn rank(&self) -> Self::Rank;
}

impl EventRank for ControlEvent {
    type Rank = u8;

    fn rank(&self) -> u8 {
        match self {
            // Deliveries carry state that timers at the same instant
            // must observe.
            ControlEvent::LdpDeliver { .. } => 0,
            _ => 1,
        }
    }
}

/// The heap's view of one pending event: its ordering key and the slab
/// slot holding its payload.
struct Key<R> {
    time: SimTime,
    rank: R,
    seq: u64,
    slot: usize,
}

impl<R: Ord> PartialEq for Key<R> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<R: Ord> Eq for Key<R> {}
impl<R: Ord> PartialOrd for Key<R> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<R: Ord> Ord for Key<R> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, then
        // lowest-rank-first, then insertion order. Sequence numbers are
        // unique, so the slot never decides.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Earliest-first event queue with deterministic tie-breaking: pops in
/// `(time, rank, insertion order)` order.
///
/// The heap holds `Key`s; each payload waits in `slots` until its key
/// pops. A popped slot goes on the free list and the next `schedule`
/// reuses it, so the slab is as long as the most events ever pending at
/// once.
pub struct EventQueue<K: EventRank> {
    heap: BinaryHeap<Key<K::Rank>>,
    /// Payloads by slot; `None` marks a vacated slot.
    slots: Vec<Option<K>>,
    /// Vacated slots, reused last-in first-out.
    free: Vec<usize>,
    next_seq: u64,
}

impl<K: EventRank> Default for EventQueue<K> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }
}

impl<K: EventRank> EventQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, kind: K) {
        let rank = kind.rank();
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(kind);
                slot
            }
            None => {
                self.slots.push(Some(kind));
                self.slots.len() - 1
            }
        };
        self.heap.push(Key {
            time,
            rank,
            seq,
            slot,
        });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, K)> {
        let key = self.heap.pop()?;
        let kind = self.slots[key.slot]
            .take()
            .expect("a queued key owns its slot");
        self.free.push(key.slot);
        Some((key.time, kind))
    }

    /// Pops the earliest event if it is strictly before `bound` — the
    /// end of a shard's epoch.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, K)> {
        if self.heap.peek()?.time >= bound {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.time)
    }

    /// Removes every pending event for which `hit(time, event)` holds
    /// and returns how many went. The rest keep their pop order: keys
    /// are totally ordered, so the heap's new layout cannot reorder
    /// them. O(pending), for rare cancellations such as a link cut.
    pub fn cancel(&mut self, mut hit: impl FnMut(SimTime, &K) -> bool) -> usize {
        let before = self.heap.len();
        let (slots, free) = (&mut self.slots, &mut self.free);
        self.heap.retain(|key| {
            let kind = slots[key.slot]
                .as_ref()
                .expect("a queued key owns its slot");
            if !hit(key.time, kind) {
                return true;
            }
            slots[key.slot] = None;
            free.push(key.slot);
            false
        });
        before - self.heap.len()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The coordinator's [`EventQueue`] of control events, counting the LDP
/// protocol's own events ([`ControlEvent::LdpTick`] and
/// [`ControlEvent::LdpDeliver`]) as they are scheduled and popped. An LDP
/// run always has its next tick pending, so only this count tells whether
/// anything else waits (see [`Self::other_than_ldp`]).
#[derive(Default)]
pub(crate) struct ControlQueue {
    queue: EventQueue<ControlEvent>,
    /// Pending `LdpTick`s and `LdpDelivers`.
    ldp: usize,
}

impl ControlQueue {
    fn is_ldp(ev: &ControlEvent) -> bool {
        matches!(ev, ControlEvent::LdpTick | ControlEvent::LdpDeliver { .. })
    }

    /// Schedules `ev` at absolute time `time`.
    pub(crate) fn schedule(&mut self, time: SimTime, ev: ControlEvent) {
        self.ldp += usize::from(Self::is_ldp(&ev));
        self.queue.schedule(time, ev);
    }

    /// Pops the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, ControlEvent)> {
        let (time, ev) = self.queue.pop()?;
        self.ldp -= usize::from(Self::is_ldp(&ev));
        Some((time, ev))
    }

    /// Timestamp of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// True while an event other than an LDP tick or delivery is pending.
    pub(crate) fn other_than_ldp(&self) -> bool {
        self.queue.len() > self.ldp
    }
}

/// The fat-entry heap [`EventQueue`] replaced, kept as the oracle of a
/// differential test: each heap entry holds the event itself.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{EventQueue, EventRank, SimTime};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use std::fmt::Debug;

    struct Entry<K: EventRank> {
        time: SimTime,
        rank: K::Rank,
        seq: u64,
        kind: K,
    }

    impl<K: EventRank> PartialEq for Entry<K> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<K: EventRank> Eq for Entry<K> {}
    impl<K: EventRank> PartialOrd for Entry<K> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K: EventRank> Ord for Entry<K> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.rank.cmp(&self.rank))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Earliest-first queue popping in `(time, rank, insertion order)`.
    pub(crate) struct FatQueue<K: EventRank> {
        heap: BinaryHeap<Entry<K>>,
        next_seq: u64,
    }

    impl<K: EventRank> FatQueue<K> {
        pub(crate) fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        pub(crate) fn schedule(&mut self, time: SimTime, kind: K) {
            let rank = kind.rank();
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                time,
                rank,
                seq,
                kind,
            });
        }

        pub(crate) fn pop(&mut self) -> Option<(SimTime, K)> {
            self.heap.pop().map(|e| (e.time, e.kind))
        }

        pub(crate) fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, K)> {
            if self.heap.peek()?.time >= bound {
                return None;
            }
            self.pop()
        }

        pub(crate) fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        pub(crate) fn cancel(&mut self, mut hit: impl FnMut(SimTime, &K) -> bool) -> usize {
            let before = self.heap.len();
            self.heap.retain(|e| !hit(e.time, &e.kind));
            before - self.heap.len()
        }

        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }
    }

    /// Drives an [`EventQueue`] and a [`FatQueue`] through the same
    /// operations and fails at the first difference in what they pop or
    /// cancel, their lengths or their earliest times. Each op is `(kind,
    /// time, pick)`: kinds 0–2 schedule `make(op index, pick)` at `time`,
    /// 3 pops, 4 pops strictly before `time + 1`, and 5 cancels every
    /// event at or after `time` that ranks as `make(op index, pick)`
    /// does. Events compare by their `Debug` image. The slab must never
    /// hold more slots than the most events pending at once: popped and
    /// cancelled slots are reused.
    pub(crate) fn diff_against_oracle<K: EventRank + Debug>(
        ops: &[(u8, SimTime, u8)],
        make: impl Fn(usize, u8) -> K,
    ) -> Result<(), String> {
        let mut slab = EventQueue::new();
        let mut fat = FatQueue::new();
        let mut peak = 0;
        for (i, &(kind, time, pick)) in ops.iter().enumerate() {
            let (got, want) = match kind {
                0..=2 => {
                    slab.schedule(time, make(i, pick));
                    fat.schedule(time, make(i, pick));
                    (None, None)
                }
                3 => (slab.pop(), fat.pop()),
                4 => (slab.pop_before(time + 1), fat.pop_before(time + 1)),
                _ => {
                    let rank = make(i, pick).rank();
                    let hit = |t: SimTime, ev: &K| t >= time && ev.rank() == rank;
                    let (got, want) = (slab.cancel(hit), fat.cancel(hit));
                    if got != want {
                        return Err(format!("op {i}: cancelled {got}, oracle {want}"));
                    }
                    (None, None)
                }
            };
            let (got, want) = (format!("{got:?}"), format!("{want:?}"));
            if got != want {
                return Err(format!("op {i}: popped {got}, oracle {want}"));
            }
            if (slab.len(), slab.peek_time()) != (fat.len(), fat.peek_time()) {
                return Err(format!(
                    "op {i}: len/peek {:?}, oracle {:?}",
                    (slab.len(), slab.peek_time()),
                    (fat.len(), fat.peek_time())
                ));
            }
            peak = peak.max(slab.len());
            if slab.slots.len() != peak {
                return Err(format!(
                    "op {i}: {} slots for at most {peak} pending events",
                    slab.slots.len()
                ));
            }
        }
        // Whatever is left drains in the same order.
        loop {
            let (got, want) = (slab.pop(), fat.pop());
            let (g, w) = (format!("{got:?}"), format!("{want:?}"));
            if g != w {
                return Err(format!("drain: popped {g}, oracle {w}"));
            }
            if got.is_none() {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::diff_against_oracle;
    use super::*;
    use proptest::prelude::*;

    // Test payloads are unranked: every u32 ties, so insertion order
    // alone decides.
    impl EventRank for u32 {
        type Rank = ();

        fn rank(&self) {}
    }

    fn deliver(chan: usize) -> ControlEvent {
        ControlEvent::LdpDeliver {
            msg: InFlightPdu::for_test(chan),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3u32);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.peek_time(), Some(10));
        // An epoch ending at 20 takes only what lies strictly before it.
        assert_eq!(q.pop_before(20), Some((10, 1)));
        assert_eq!(q.pop_before(20), None, "20 is at the boundary");
        // Events scheduled mid-drain still pop, in time order, including
        // one at the instant of an event already pending.
        q.schedule(15, 4);
        q.schedule(20, 5);
        assert_eq!(q.pop_before(21), Some((15, 4)));
        assert_eq!(q.pop_before(21), Some((20, 2)));
        assert_eq!(q.pop_before(21), Some((20, 5)));
        assert_eq!(q.pop_before(21), None);
        let order: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(30, 3)]);
        // Four events were pending at most; the slab never grew past.
        assert_eq!(q.slots.len(), 4);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for flow in 0..5u32 {
            q.schedule(7, flow);
        }
        let mut flows = Vec::new();
        while let Some((_, flow)) = q.pop() {
            flows.push(flow);
        }
        assert_eq!(flows, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn deliveries_outrank_timers_at_equal_times() {
        // The tick is scheduled *first*, so insertion order alone would
        // expire the session before the keepalive lands; the rank flips
        // the outcome.
        let mut q = EventQueue::new();
        q.schedule(100, ControlEvent::LdpTick);
        q.schedule(100, deliver(7));
        q.schedule(100, ControlEvent::TelemetrySample);
        q.schedule(100, deliver(3));
        let order: Vec<ControlEvent> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                deliver(7),
                deliver(3),
                ControlEvent::LdpTick,
                ControlEvent::TelemetrySample,
            ]
        );
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(1, ControlEvent::TelemetrySample);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// A control event from `pick`, tagged with the op index `i` where
    /// the variant has room, so ties between equal ranks are visible.
    fn control_event(i: usize, pick: u8) -> ControlEvent {
        match pick % 4 {
            0 => deliver(i),
            1 => ControlEvent::Resignal { pending: i },
            2 => ControlEvent::LdpTick,
            _ => ControlEvent::LinkDown { link: i as LinkId },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random schedule/pop/pop_before/cancel interleavings over
        /// four timestamps, where deliveries (rank 0) and timers (rank 1)
        /// tie constantly: the slab queue pops and cancels what the
        /// fat-entry heap does.
        #[test]
        fn control_events_pop_as_the_fat_heap_pops(
            ops in proptest::collection::vec((0u8..6, 0u64..4, 0u8..4), 0..160)
        ) {
            let res = diff_against_oracle(&ops, control_event);
            prop_assert!(res.is_ok(), "{}", res.unwrap_err());
        }
    }
}

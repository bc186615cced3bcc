//! Directed transmission channels.
//!
//! Each physical link of the topology becomes two [`Channel`]s. A channel
//! serializes one packet at a time at its bandwidth, then the packet
//! propagates for the link's delay; packets offered while it is busy
//! wait their turn.
//!
//! # The departure timetable
//!
//! A FIFO or RED channel knows every admitted packet's departure when it
//! admits it. On an idle channel the packet starts at the offer and ends
//! its router latency plus its serialization time later. Behind a busy
//! channel it starts when the packet before it ends, without waiting out
//! its own router latency (that start is what completing the previous
//! packet used to give it). So the channel commits the packet at
//! admission: it rolls the packet's wire loss, in admission order, which
//! is transmission order, and the engine schedules its arrival at
//! `end + delay` at once.
//!
//! The channel keeps each committed packet's end and serialization time
//! in a timetable and retires entries lazily: once the clock has passed
//! an entry's end, the packet counts as transmitted and the next one as
//! started, its serialization joining `busy_ns`. A CoS-priority channel
//! commits a packet only when it starts, because a later packet of a
//! higher class can still overtake a waiting one.
//!
//! A `TransmitDone` event is left only where something still happens at
//! a serialization end: a wire-lost packet's accounting, a CoS channel
//! with packets waiting, and the stale completion a cut leaves behind.
//!
//! # Equal instants
//!
//! At one timestamp the coordinator's events run first, then arrivals,
//! then completions (the shard's canonical keys). So a packet offered at
//! the instant the last committed packet ends still queues behind it: a
//! channel is idle at `now` only when every committed packet ended
//! before `now`. A telemetry sample at `t` sees a packet serializing
//! when `start < t <= end`, and a cut at `t` catches every packet that
//! ends at or after `t`.

use crate::event::SimTime;
use crate::queue::{LinkQueue, QueueDiscipline};
use crate::sim::SimPacket;
use crate::stats::FlowId;
use mpls_control::NodeId;
use std::collections::VecDeque;

/// One committed packet in a channel's timetable.
#[derive(Debug, Clone, Copy)]
struct Departure {
    /// When its serialization ends.
    end: SimTime,
    /// Its serialization time, added to `busy_ns` when it starts.
    ser: u64,
    /// Its flow, charged if a cut catches it.
    flow: FlowId,
    /// The loss RNG's state before this packet's draw, restored when a
    /// cut catches the packet (the draw never happened then).
    rng_before: u64,
    /// Lost on the wire; counted at its `TransmitDone`.
    lost: bool,
    /// A `TransmitDone` is pending at `end`.
    done_pending: bool,
}

/// What the engine schedules for a channel after an offer or a
/// completion.
#[derive(Debug, Default)]
pub(crate) struct Departures {
    /// A committed packet's arrival at the receiving node, and when.
    pub arrive: Option<(SimTime, SimPacket)>,
    /// A `TransmitDone` due at this time.
    pub done: Option<SimTime>,
}

/// What a cut caught.
#[derive(Debug)]
pub(crate) struct Cut {
    /// The flows of the packets lost: the one serializing, the ones
    /// committed behind it, and the ones waiting.
    pub lost: Vec<FlowId>,
    /// The end of the packet caught serializing: its completion stays,
    /// stale, at this time.
    pub stale_done: Option<SimTime>,
}

/// One direction of a link.
#[derive(Debug)]
pub struct Channel {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay in nanoseconds.
    pub delay_ns: u64,
    /// Admission policy, and the packets waiting under CoS priority.
    queue: LinkQueue,
    /// Committed packets not yet retired, in transmission order: the
    /// first is serializing, each later one starts when the one before
    /// it ends.
    timetable: VecDeque<Departure>,
    /// Queue-drop counter.
    pub drops: u64,
    /// Packets fully transmitted.
    pub transmitted: u64,
    /// Cumulative serialization time (ns): busy-time for utilization.
    pub busy_ns: u64,
    /// Whether the channel is physically live. Dead channels drop every
    /// packet offered to them.
    pub up: bool,
    /// Incarnation counter, bumped on every [`Channel::take_down`]. Events
    /// scheduled against an older incarnation (a `TransmitDone`, or an
    /// arrival of a packet that was on the wire when the link was cut) are
    /// stale and must be ignored.
    pub gen: u64,
    /// Probability each transmitted packet is lost on the wire.
    pub loss_prob: f64,
    /// Packets dropped because the channel was down (offered while dead,
    /// flushed or caught in flight by a cut).
    pub fault_drops: u64,
    /// Packets lost to random wire loss.
    pub loss_drops: u64,
    /// xorshift64* state for the wire-loss draws. Seeded per channel by
    /// the simulation so loss outcomes depend only on the run seed, the
    /// channel and the order of its own transmissions — never on how
    /// events interleave across other channels (or engine shards).
    loss_rng: u64,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(
        from: NodeId,
        to: NodeId,
        bandwidth_bps: u64,
        delay_ns: u64,
        discipline: QueueDiscipline,
    ) -> Self {
        Self {
            from,
            to,
            bandwidth_bps,
            delay_ns,
            queue: LinkQueue::new(discipline),
            timetable: VecDeque::new(),
            drops: 0,
            transmitted: 0,
            busy_ns: 0,
            up: true,
            gen: 0,
            loss_prob: 0.0,
            fault_drops: 0,
            loss_drops: 0,
            loss_rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Seeds the wire-loss RNG (zero is mapped off the degenerate
    /// all-zero xorshift state).
    pub fn seed_loss_rng(&mut self, seed: u64) {
        self.loss_rng = seed | 1;
    }

    /// Next uniform value in [0, 1) from the channel's own loss RNG.
    fn loss_roll(&mut self) -> f64 {
        let mut x = self.loss_rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.loss_rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Serialization time for `bytes` at this channel's bandwidth.
    pub fn serialization_ns(&self, bytes: usize) -> u64 {
        // bits * 1e9 / bps, rounded up so zero-cost transmission never
        // occurs on finite links.
        let bits = bytes as u128 * 8;
        ((bits * 1_000_000_000).div_ceil(self.bandwidth_bps as u128)) as u64
    }

    /// Packets serializing or waiting: the queue depth telemetry samples.
    /// Exact once [`Self::retire_before`] has run for the sample's time.
    pub(crate) fn depth(&self) -> usize {
        self.timetable.len() + self.queue.len()
    }

    /// When the packet serializing now ends, if one is.
    pub(crate) fn head_end(&self) -> Option<SimTime> {
        self.timetable.front().map(|d| d.end)
    }

    /// Retires every committed packet whose serialization ended before
    /// `t`: each counts as transmitted and starts the one behind it.
    /// Returns the last retired packet's end.
    pub(crate) fn retire_before(&mut self, t: SimTime) -> Option<SimTime> {
        let mut last = None;
        while self.timetable.front().is_some_and(|d| d.end < t) {
            let d = self.pop_head();
            debug_assert!(
                !d.done_pending,
                "a pending completion retires its own packet"
            );
            last = Some(d.end);
        }
        last
    }

    fn pop_head(&mut self) -> Departure {
        let d = self.timetable.pop_front().expect("a committed packet");
        self.transmitted += 1;
        if let Some(next) = self.timetable.front() {
            self.busy_ns += next.ser;
        }
        d
    }

    /// Packets admitted at or before `now` that have not started: the
    /// queue length tail drop, RED and ECN marking see.
    pub(crate) fn waiting(&mut self, now: SimTime) -> usize {
        self.retire_before(now);
        if self.queue.holds_packets() {
            self.queue.len()
        } else {
            self.timetable.len().saturating_sub(1)
        }
    }

    /// Offers `p` at `now`, ready to serialize at `ready` (`now` plus the
    /// router's latency). Returns what to schedule, or `None` when the
    /// queue drops it. Must not be called on a dead channel — the
    /// simulator counts those drops before offering.
    pub(crate) fn offer(
        &mut self,
        now: SimTime,
        ready: SimTime,
        p: SimPacket,
    ) -> Option<Departures> {
        debug_assert!(self.up, "offer to a dead channel");
        let waiting = self.waiting(now);
        if !self.queue.admits(waiting, &p) {
            self.drops += 1;
            return None;
        }
        let Some(tail) = self.timetable.back() else {
            return Some(self.commit(p, ready));
        };
        if !self.queue.holds_packets() {
            let start = tail.end;
            return Some(self.commit(p, start));
        }
        self.queue.push(p);
        Some(Departures {
            arrive: None,
            done: self.await_head(),
        })
    }

    /// Makes sure a `TransmitDone` is due when the packet serializing
    /// ends, so a waiting packet can start then; returns its time when
    /// it must be scheduled.
    fn await_head(&mut self) -> Option<SimTime> {
        let head = self.timetable.front_mut().expect("a packet is serializing");
        (!std::mem::replace(&mut head.done_pending, true)).then_some(head.end)
    }

    /// Commits `p` to serialize from `start`: it rolls its wire loss and
    /// departs, arriving `delay_ns` after it ends, or, when lost, leaving
    /// a `TransmitDone` to count the loss.
    fn commit(&mut self, p: SimPacket, start: SimTime) -> Departures {
        let ser = self.serialization_ns(p.wire_len());
        let end = start + ser;
        let rng_before = self.loss_rng;
        let lost = self.loss_prob > 0.0 && self.loss_roll() < self.loss_prob;
        if self.timetable.is_empty() {
            self.busy_ns += ser;
        }
        self.timetable.push_back(Departure {
            end,
            ser,
            flow: p.flow,
            rng_before,
            lost,
            done_pending: lost,
        });
        if lost {
            Departures {
                arrive: None,
                done: Some(end),
            }
        } else {
            Departures {
                arrive: Some((end + self.delay_ns, p)),
                done: None,
            }
        }
    }

    /// The packet serializing ends at `now` and its `TransmitDone` fired
    /// on the current incarnation. Returns its flow when it was lost on
    /// the wire (`loss_drops` is bumped here), and what to schedule for
    /// the waiting packet that starts now, if any.
    pub(crate) fn complete(&mut self, now: SimTime) -> (Option<FlowId>, Departures) {
        self.retire_before(now);
        let d = self.pop_head();
        debug_assert_eq!(d.end, now, "a completion fires at its packet's end");
        if d.lost {
            self.loss_drops += 1;
        }
        let mut next = Departures::default();
        if let Some(p) = self.queue.pop() {
            next = self.commit(p, now);
            if !self.queue.is_empty() {
                if let Some(at) = self.await_head() {
                    next.done = Some(at);
                }
            }
        }
        (d.lost.then_some(d.flow), next)
    }

    /// Cuts the channel at `now`: marks it dead and bumps the
    /// incarnation, so the events of packets already on the wire go
    /// stale. Every packet that ends at or after `now`, and everything
    /// waiting, is lost on the spot (`fault_drops` is bumped here), and
    /// the loss RNG returns to its state before the first of them. The
    /// caller cancels their pending events and charges the losses.
    pub(crate) fn take_down(&mut self, now: SimTime) -> Cut {
        self.retire_before(now);
        self.up = false;
        self.gen += 1;
        let stale_done = self.head_end();
        if let Some(first) = self.timetable.front() {
            self.loss_rng = first.rng_before;
        }
        let mut lost: Vec<FlowId> = self.timetable.drain(..).map(|d| d.flow).collect();
        lost.extend(self.queue.drain().into_iter().map(|p| p.flow));
        self.fault_drops += lost.len() as u64;
        Cut { lost, stale_done }
    }

    /// Revives the channel, idle and empty.
    pub fn bring_up(&mut self) {
        self.up = true;
        debug_assert!(self.timetable.is_empty() && self.queue.is_empty());
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests_support::packet_with_cos;

    fn chan(discipline: QueueDiscipline) -> Channel {
        Channel::new(0, 1, 1_000_000_000, 500, discipline)
    }

    #[test]
    fn serialization_time() {
        let c = chan(QueueDiscipline::Fifo { capacity: 2 });
        // 1500 bytes at 1 Gb/s = 12 µs.
        assert_eq!(c.serialization_ns(1500), 12_000);
        // Rounds up.
        let c2 = Channel::new(0, 1, 3, 0, QueueDiscipline::Fifo { capacity: 1 });
        assert_eq!(c2.serialization_ns(1), 2_666_666_667);
    }

    /// A FIFO channel commits each packet at admission: an idle channel
    /// starts it after its router latency, a busy one when the packet
    /// before it ends, and a full queue drops it.
    #[test]
    fn fifo_commits_departures_at_admission() {
        let mut c = chan(QueueDiscipline::Fifo { capacity: 1 });
        let p = packet_with_cos(0, 1);
        let ser = c.serialization_ns(p.wire_len());
        let first = c.offer(100, 130, p).expect("idle channel admits");
        assert_eq!(first.arrive.as_ref().map(|a| a.0), Some(130 + ser + 500));
        assert_eq!(c.busy_ns, ser, "the packet started");
        // Offered at the instant the first ends: it still queues behind
        // it, and starts at that end, latency or not.
        let second = c.offer(130 + ser, 130 + ser + 40, packet_with_cos(0, 2));
        let second = second.expect("one packet may wait");
        assert_eq!(second.arrive.map(|a| a.0), Some(130 + 2 * ser + 500));
        assert_eq!(c.waiting(130 + ser), 1);
        assert!(c.offer(130 + ser, 200, packet_with_cos(0, 3)).is_none());
        assert_eq!(c.drops, 1);
        // The first retires once the clock passes its end.
        assert_eq!(c.retire_before(130 + ser + 1), Some(130 + ser));
        assert_eq!((c.transmitted, c.busy_ns, c.depth()), (1, 2 * ser, 1));
    }

    /// A CoS channel holds waiting packets until a completion starts the
    /// highest class.
    #[test]
    fn cos_commits_at_start() {
        let mut c = chan(QueueDiscipline::CosPriority { per_class: 4 });
        let ser = c.serialization_ns(packet_with_cos(0, 0).wire_len());
        assert!(c
            .offer(0, 0, packet_with_cos(0, 1))
            .is_some_and(|d| d.arrive.is_some()));
        let low = c.offer(1, 1, packet_with_cos(0, 2)).expect("admitted");
        assert_eq!((low.arrive.is_none(), low.done), (true, Some(ser)));
        let high = c.offer(2, 2, packet_with_cos(7, 3)).expect("admitted");
        assert!(
            high.arrive.is_none() && high.done.is_none(),
            "one completion is due"
        );
        let (lost, next) = c.complete(ser);
        assert_eq!(lost, None);
        assert_eq!(
            next.arrive.map(|(t, p)| (t, p.seq)),
            Some((2 * ser + 500, 3))
        );
        assert_eq!(next.done, Some(2 * ser), "the low packet still waits");
    }

    #[test]
    fn take_down_flushes_and_bumps_generation() {
        let mut c = chan(QueueDiscipline::Fifo { capacity: 4 });
        let ser = c.serialization_ns(packet_with_cos(0, 0).wire_len());
        for seq in 0..3 {
            c.offer(0, 0, packet_with_cos(0, seq));
        }
        // The first packet left the wire before the cut; the second is
        // caught serializing, the third waiting.
        let cut = c.take_down(ser + 1);
        assert_eq!(cut.lost.len(), 2);
        assert_eq!(cut.stale_done, Some(2 * ser));
        assert!(!c.up);
        assert_eq!(
            (c.gen, c.fault_drops, c.transmitted, c.depth()),
            (1, 2, 1, 0)
        );
        c.bring_up();
        assert!(c.up);
        assert_eq!(c.gen, 1, "bring_up keeps the incarnation");
    }
}

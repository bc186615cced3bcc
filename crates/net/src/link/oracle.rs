//! The channel the departure timetable replaced, kept as the oracle of a
//! differential test: every admitted packet waits in a queue that holds
//! packets, a completion event per packet rolls its wire loss, sends it
//! on and starts the next, and a cut flushes whatever has not finished
//! serializing.
//!
//! One small driver plays both channels through the same random offers,
//! cuts, bring-ups, telemetry samples and horizon, with the engine's
//! rules for equal instants (the coordinator's events, then arrivals,
//! then completions), and the test compares everything a report or a
//! telemetry export could see.

use super::{Channel, Departures};
use crate::event::{EventQueue, EventRank, SimTime};
use crate::queue::QueueDiscipline;
use crate::sim::SimPacket;
use crate::stats::FlowId;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// The queue as it was: it holds every admitted packet, under every
/// discipline.
struct OldQueue {
    discipline: QueueDiscipline,
    classes: Vec<VecDeque<SimPacket>>,
    rng: u64,
}

impl OldQueue {
    fn new(discipline: QueueDiscipline) -> Self {
        let classes = match discipline {
            QueueDiscipline::Fifo { .. } | QueueDiscipline::Red { .. } => 1,
            QueueDiscipline::CosPriority { .. } => 8,
        };
        Self {
            discipline,
            classes: (0..classes).map(|_| VecDeque::new()).collect(),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn uniform(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    fn push(&mut self, p: SimPacket) -> bool {
        if let QueueDiscipline::Red {
            capacity,
            min_th,
            max_th,
            max_p_percent,
        } = self.discipline
        {
            let len = self.classes[0].len();
            if len >= capacity || len >= max_th {
                return false;
            }
            if len >= min_th {
                let span = (max_th - min_th).max(1) as f64;
                let p_drop = max_p_percent as f64 / 100.0 * (len - min_th) as f64 / span;
                if self.uniform() < p_drop {
                    return false;
                }
            }
            self.classes[0].push_back(p);
            return true;
        }
        let (cap, class) = match self.discipline {
            QueueDiscipline::Fifo { capacity } => (capacity, 0),
            QueueDiscipline::CosPriority { per_class } => (per_class, p.cos_class() as usize),
            QueueDiscipline::Red { .. } => unreachable!("handled above"),
        };
        if self.classes[class].len() >= cap {
            return false;
        }
        self.classes[class].push_back(p);
        true
    }

    fn pop(&mut self) -> Option<SimPacket> {
        self.classes.iter_mut().rev().find_map(VecDeque::pop_front)
    }

    fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    fn drain(&mut self) -> Vec<SimPacket> {
        let mut out = Vec::new();
        for class in self.classes.iter_mut().rev() {
            out.extend(class.drain(..));
        }
        out
    }
}

/// The channel as it was.
struct OldChannel {
    delay_ns: u64,
    queue: OldQueue,
    busy: bool,
    in_flight: Option<SimPacket>,
    drops: u64,
    transmitted: u64,
    busy_ns: u64,
    up: bool,
    gen: u64,
    loss_prob: f64,
    fault_drops: u64,
    loss_drops: u64,
    loss_rng: u64,
}

/// One event of the driver's run.
#[derive(Debug)]
enum Ev {
    /// Op `i`, when it is a cut, a bring-up or a sample.
    Global(usize),
    /// Op `i`, when it is an offer.
    Offer(usize),
    /// A packet reaching the far end.
    Arrive { gen: u64, packet: SimPacket },
    /// A completion.
    Done { gen: u64 },
}

impl EventRank for Ev {
    type Rank = (u8, u64, u64);

    /// The coordinator's events first, then arrivals (offers in op
    /// order, then the far end's), then completions.
    fn rank(&self) -> (u8, u64, u64) {
        match *self {
            Ev::Global(i) => (0, i as u64, 0),
            Ev::Offer(i) => (1, i as u64, 0),
            Ev::Arrive { gen, .. } => (1, u64::MAX, gen),
            Ev::Done { gen } => (2, gen, 0),
        }
    }
}

/// Everything a report or a telemetry export could see of one channel.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    /// Deliveries at the far end: time, flow, sequence number.
    arrivals: Vec<(SimTime, FlowId, u64)>,
    /// Per-flow discards by cause.
    discards: BTreeMap<(FlowId, &'static str), u64>,
    /// `transmitted`, `drops`, `fault_drops`, `loss_drops`.
    counters: [u64; 4],
    /// Packets charged to each cut's fault record.
    record_losses: Vec<u64>,
    /// Each sample: time, depth, `busy_ns`.
    samples: Vec<(SimTime, usize, u64)>,
    /// Depth and `busy_ns` after the run.
    end: (usize, u64),
    /// The last event time at or before the horizon, completions
    /// included.
    elapsed: SimTime,
    /// The loss RNG after a run without a horizon.
    rng: Option<u64>,
}

impl Outcome {
    fn discard(&mut self, flow: FlowId, cause: &'static str) {
        *self.discards.entry((flow, cause)).or_default() += 1;
    }

    /// A packet lost to the link's outage, charged to its newest record.
    fn fault_loss(&mut self, flow: FlowId) {
        self.discard(flow, "fault");
        if let Some(rec) = self.record_losses.last_mut() {
            *rec += 1;
        }
    }
}

/// A channel as the driver plays it, with the engine's glue around it.
trait Backend {
    fn up(&self) -> bool;
    fn gen(&self) -> u64;
    fn bring_up(&mut self);
    fn fault_drop(&mut self);
    fn offer(
        &mut self,
        now: SimTime,
        ready: SimTime,
        p: SimPacket,
        q: &mut EventQueue<Ev>,
        out: &mut Outcome,
    );
    fn done(&mut self, now: SimTime, gen: u64, q: &mut EventQueue<Ev>, out: &mut Outcome);
    fn cut(&mut self, now: SimTime, q: &mut EventQueue<Ev>, out: &mut Outcome);
    /// Depth and `busy_ns` as a sample at `t` reads them.
    fn sample(&mut self, t: SimTime) -> (usize, u64);
    /// Settles the run at `horizon`; returns the last completion it
    /// accounts for.
    fn finish(&mut self, horizon: SimTime) -> Option<SimTime>;
    fn counters(&self) -> [u64; 4];
    fn rng(&self) -> u64;
}

impl Backend for OldChannel {
    fn up(&self) -> bool {
        self.up
    }

    fn gen(&self) -> u64 {
        self.gen
    }

    fn bring_up(&mut self) {
        self.up = true;
        self.busy = false;
    }

    fn fault_drop(&mut self) {
        self.fault_drops += 1;
    }

    fn offer(
        &mut self,
        _now: SimTime,
        ready: SimTime,
        p: SimPacket,
        q: &mut EventQueue<Ev>,
        out: &mut Outcome,
    ) {
        let flow = p.flow;
        if !self.queue.push(p) {
            self.drops += 1;
            out.discard(flow, "queue");
            return;
        }
        if self.busy {
            return;
        }
        let p = self.queue.pop().expect("just offered");
        let ser = serialization_ns(&p);
        self.busy = true;
        self.busy_ns += ser;
        self.in_flight = Some(p);
        q.schedule(ready + ser, Ev::Done { gen: self.gen });
    }

    fn done(&mut self, now: SimTime, gen: u64, q: &mut EventQueue<Ev>, out: &mut Outcome) {
        if gen != self.gen {
            return;
        }
        let p = self
            .in_flight
            .take()
            .expect("transmit completed with cargo");
        self.transmitted += 1;
        if let Some(next) = self.queue.pop() {
            let ser = serialization_ns(&next);
            self.busy_ns += ser;
            self.in_flight = Some(next);
            q.schedule(now + ser, Ev::Done { gen });
        } else {
            self.busy = false;
        }
        if self.loss_prob > 0.0 && roll(&mut self.loss_rng) < self.loss_prob {
            self.loss_drops += 1;
            out.discard(p.flow, "loss");
            return;
        }
        q.schedule(now + self.delay_ns, Ev::Arrive { gen, packet: p });
    }

    fn cut(&mut self, _now: SimTime, _q: &mut EventQueue<Ev>, out: &mut Outcome) {
        self.up = false;
        self.gen += 1;
        self.busy = false;
        let mut lost = self.queue.drain();
        lost.extend(self.in_flight.take());
        self.fault_drops += lost.len() as u64;
        for p in lost {
            out.fault_loss(p.flow);
        }
    }

    fn sample(&mut self, _t: SimTime) -> (usize, u64) {
        (
            self.queue.len() + usize::from(self.in_flight.is_some()),
            self.busy_ns,
        )
    }

    fn finish(&mut self, _horizon: SimTime) -> Option<SimTime> {
        None
    }

    fn counters(&self) -> [u64; 4] {
        [
            self.transmitted,
            self.drops,
            self.fault_drops,
            self.loss_drops,
        ]
    }

    fn rng(&self) -> u64 {
        self.loss_rng
    }
}

/// Schedules what the timetable channel committed, as the shard does.
fn depart(gen: u64, d: Departures, q: &mut EventQueue<Ev>) {
    if let Some(at) = d.done {
        q.schedule(at, Ev::Done { gen });
    }
    if let Some((at, packet)) = d.arrive {
        q.schedule(at, Ev::Arrive { gen, packet });
    }
}

impl Backend for Channel {
    fn up(&self) -> bool {
        self.up
    }

    fn gen(&self) -> u64 {
        self.gen
    }

    fn bring_up(&mut self) {
        Channel::bring_up(self);
    }

    fn fault_drop(&mut self) {
        self.fault_drops += 1;
    }

    fn offer(
        &mut self,
        now: SimTime,
        ready: SimTime,
        p: SimPacket,
        q: &mut EventQueue<Ev>,
        out: &mut Outcome,
    ) {
        let flow = p.flow;
        match Channel::offer(self, now, ready, p) {
            Some(d) => depart(self.gen, d, q),
            None => out.discard(flow, "queue"),
        }
    }

    fn done(&mut self, now: SimTime, gen: u64, q: &mut EventQueue<Ev>, out: &mut Outcome) {
        if gen != self.gen {
            return;
        }
        let (lost, next) = self.complete(now);
        if let Some(flow) = lost {
            out.discard(flow, "loss");
        }
        depart(gen, next, q);
    }

    /// As `Engine::cut_channel` does it.
    fn cut(&mut self, now: SimTime, q: &mut EventQueue<Ev>, out: &mut Outcome) {
        let (old, cutoff) = (self.gen, now + self.delay_ns);
        let cut = self.take_down(now);
        if let Some(end) = cut.stale_done {
            q.cancel(|_, ev| matches!(*ev, Ev::Done { gen } if gen == old));
            q.schedule(end, Ev::Done { gen: old });
            q.cancel(|t, ev| t >= cutoff && matches!(*ev, Ev::Arrive { gen, .. } if gen == old));
        }
        for flow in cut.lost {
            out.fault_loss(flow);
        }
    }

    fn sample(&mut self, t: SimTime) -> (usize, u64) {
        self.retire_before(t);
        (self.depth(), self.busy_ns)
    }

    fn finish(&mut self, horizon: SimTime) -> Option<SimTime> {
        self.retire_before(horizon.saturating_add(1))
    }

    fn counters(&self) -> [u64; 4] {
        [
            self.transmitted,
            self.drops,
            self.fault_drops,
            self.loss_drops,
        ]
    }

    fn rng(&self) -> u64 {
        self.loss_rng
    }
}

/// The wire-loss draw, as `Channel::loss_roll` makes it.
fn roll(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

/// At the test's 8 Gb/s a byte serializes in a nanosecond.
const BPS: u64 = 8_000_000_000;

fn serialization_ns(p: &SimPacket) -> u64 {
    p.wire_len() as u64
}

/// One driver op: `(time, kind, latency, bytes, cos, flow)`. Kinds 0–7
/// offer a packet of `bytes` bytes that the router held for `latency`
/// ns, 8 cuts the link, 9 brings it up and 10–11 take a sample.
type Op = (SimTime, u8, u64, u64, u8, usize);

/// Plays `ops` on `b` up to `horizon` (`None`: until nothing is left).
fn drive(mut b: impl Backend, ops: &[Op], horizon: Option<SimTime>) -> Outcome {
    let mut q = EventQueue::new();
    for (i, &(at, kind, ..)) in ops.iter().enumerate() {
        q.schedule(
            at,
            if kind < 8 {
                Ev::Offer(i)
            } else {
                Ev::Global(i)
            },
        );
    }
    let end = horizon.map_or(SimTime::MAX, |h| h + 1);
    let mut out = Outcome::default();
    while let Some((t, ev)) = q.pop_before(end) {
        out.elapsed = t;
        match ev {
            Ev::Offer(i) => {
                let (_, _, latency, bytes, cos, flow) = ops[i];
                let p = SimPacket {
                    flow,
                    stack: Default::default(),
                    seq: i as u64,
                    sent_ns: 0,
                    precedence: cos,
                    base_wire: bytes as u32,
                    ecn: false,
                };
                if b.up() {
                    b.offer(t, t + latency, p, &mut q, &mut out);
                } else {
                    b.fault_drop();
                    out.fault_loss(flow);
                }
            }
            Ev::Global(i) => match ops[i].1 {
                8 if b.up() => {
                    out.record_losses.push(0);
                    b.cut(t, &mut q, &mut out);
                }
                9 if !b.up() => b.bring_up(),
                10.. => {
                    let (depth, busy_ns) = b.sample(t);
                    out.samples.push((t, depth, busy_ns));
                }
                _ => {}
            },
            Ev::Arrive { gen, packet } => {
                if gen == b.gen() {
                    out.arrivals.push((t, packet.flow, packet.seq));
                } else {
                    b.fault_drop();
                    out.fault_loss(packet.flow);
                }
            }
            Ev::Done { gen } => b.done(t, gen, &mut q, &mut out),
        }
    }
    if let Some(last) = b.finish(horizon.unwrap_or(SimTime::MAX)) {
        out.elapsed = out.elapsed.max(last);
    }
    // The final scrape: nothing ends between the last completion and
    // the horizon, so this reads the state the horizon left.
    out.end = b.sample(out.elapsed.saturating_add(1));
    out.counters = b.counters();
    out.rng = horizon.is_none().then(|| b.rng());
    out
}

/// The discipline a test case draws: FIFO, CoS priority or RED, with
/// capacities small enough to overflow.
fn discipline((kind, cap, min_th, span, max_p): (u8, usize, usize, usize, u8)) -> QueueDiscipline {
    match kind {
        0 => QueueDiscipline::Fifo { capacity: cap },
        1 => QueueDiscipline::CosPriority { per_class: cap },
        _ => QueueDiscipline::Red {
            capacity: cap + 1,
            min_th,
            max_th: min_th + span,
            max_p_percent: max_p,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// The timetable channel and the completion-per-packet channel see
    /// the same arrivals, discards, counters, fault-record losses,
    /// samples, end state, elapsed time and loss RNG, under every
    /// discipline, with wire loss on or off, at every horizon. Times
    /// are a few nanoseconds apart, so offers, cuts, bring-ups and
    /// samples keep landing on serialization starts and ends.
    #[test]
    fn timetable_channel_matches_the_completion_per_packet_channel(
        queue in (0u8..3, 0usize..4, 0usize..3, 1usize..4, 1u8..101),
        loss in 0u8..3,
        delay in 0u64..6,
        horizon in 0u64..240,
        ops in proptest::collection::vec((0u64..120, 0u8..12, 0u64..4, 1u64..7, 0u8..8, 0usize..3), 0..48),
    ) {
        let disc = discipline(queue);
        let loss_prob = [0.0, 0.3, 0.7][loss as usize];
        let horizon = (horizon < 160).then_some(horizon);
        let old = OldChannel {
            delay_ns: delay,
            queue: OldQueue::new(disc),
            busy: false,
            in_flight: None,
            drops: 0,
            transmitted: 0,
            busy_ns: 0,
            up: true,
            gen: 0,
            loss_prob,
            fault_drops: 0,
            loss_drops: 0,
            loss_rng: 0x5EED | 1,
        };
        let mut new = Channel::new(0, 1, BPS, delay, disc);
        new.loss_prob = loss_prob;
        new.seed_loss_rng(0x5EED);
        let want = drive(old, &ops, horizon);
        let got = drive(new, &ops, horizon);
        prop_assert_eq!(got, want);
    }
}

//! One shard of the sharded engine: a subset of nodes, the channels
//! they transmit on, and a private event wheel.
//!
//! # Canonical event keys
//!
//! Within one timestamp, shard-local events execute in the order of
//! [`LocalEvent::key`] — `(class, a, b)` tuples built only from stable
//! identifiers (flow ids, node ids, global channel indices). The key
//! never encodes *which shard* scheduled the event or *when* it was
//! inserted, so a run partitioned into N shards pops exactly the same
//! event sequence per node as a single-shard run: byte-identical
//! reports at any shard count.
//!
//! Every key is unique at its timestamp: a flow emits at most once per
//! instant (inter-packet gaps are ≥ 1 ns), a channel completes at most
//! one serialization per instant per incarnation (serialization times
//! are ≥ 1 ns), and an `Arrive` is pinned to its (node, channel) lane —
//! a channel delivers at most one packet per instant for the same
//! reason.
//!
//! # What shards may touch
//!
//! During an epoch a shard mutates only its own state plus the shared
//! *read-only* snapshot in [`SharedCtx`]. Effects on other shards
//! (cross-shard arrivals) are buffered in `outbox`; effects on global
//! accounting (a foreign channel's drop counter, a fault record's loss
//! tally, telemetry) are buffered in commutative per-shard deltas the
//! coordinator folds in deterministically.

use super::wheel::EventWheel;
use crate::event::SimTime;
use crate::link::{Channel, OfferResult};
use crate::node::Node;
use crate::policer::TokenBucket;
use crate::sim::{FlowTemplate, SimPacket};
use crate::stats::{FlowId, FlowStats};
use crate::traffic::{ClosedLoopSpec, FlowSpec, TrafficPattern};
use mpls_control::{LinkId, NodeId};
use mpls_packet::MplsPacket;
use mpls_router::{Action, DiscardCause, Forwarding};
use mpls_telemetry::{Histogram, TelemetrySink};
use rand::rngs::StdRng;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;

/// Canonical ordering key for same-timestamp events: `(class, a, b)`.
pub(crate) type EventKey = (u8, u64, u64);

/// Lane marker distinguishing source-injected arrivals from wire
/// arrivals in the key's `b` component (channel indices stay below it).
/// Doubles as the port-space offset for source-injected packets, so a
/// router's per-ingress flow cache never conflates a source lane with a
/// wire channel.
const SOURCE_LANE: u64 = 1 << 32;

/// Up to how many same-instant arrivals for one node drain as a single
/// batch (`MPLS_SIM_BATCH`, default 32; 1 disables batching). A batch
/// resolves the node once and streams the packets through its data
/// plane back to back; the drain is a conditional peek at the wheel's
/// head, so the consumed event sequence — and therefore the report —
/// is identical at any batch bound.
pub(crate) fn batch_limit() -> usize {
    static B: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *B.get_or_init(|| {
        std::env::var("MPLS_SIM_BATCH")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&b| b >= 1)
            .unwrap_or(32)
    })
}

/// A shard-local event.
#[derive(Debug)]
pub(crate) enum LocalEvent {
    /// A traffic source emits its next packet.
    SourceEmit {
        /// Index into the flow table.
        flow: FlowId,
    },
    /// A packet reaches a node's input and is handed to its router.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// The packet.
        packet: SimPacket,
        /// The (global channel index, incarnation) the packet traveled,
        /// when it came over a wire rather than from a local source. If
        /// the channel's incarnation has moved on by delivery time, the
        /// link was cut while the packet was propagating and it is lost.
        via: Option<(usize, u64)>,
    },
    /// A channel finished serializing its current packet.
    TransmitDone {
        /// Global channel index.
        channel: usize,
        /// Channel incarnation at scheduling time; stale if it moved on.
        gen: u64,
    },
    /// A node's periodic tick (see [`Node::tick_interval`]).
    NodeTick {
        /// The ticking node.
        node: NodeId,
    },
    /// A closed-loop delivery acknowledgment reaching the flow's ingress:
    /// scheduled at delivery time plus the static shortest-path
    /// propagation delay back to the ingress (an uncongested, reliable
    /// reverse path — the forward direction is the one under test). The
    /// delay is never below the engine's cross-shard lookahead, so acks
    /// ride the normal outbox exchange safely.
    Ack {
        /// The acked flow.
        flow: FlowId,
        /// The acked emission's sequence number.
        seq: u64,
        /// Echoed congestion mark.
        ecn: bool,
    },
    /// A closed-loop transfer-arrival candidate (thinned nonhomogeneous
    /// Poisson process) at the flow's ingress.
    XferArrive {
        /// The flow whose subscriber aggregate the arrival belongs to.
        flow: FlowId,
    },
    /// A closed-loop retransmission-timeout check at the flow's ingress.
    RtoCheck {
        /// The flow under the timer.
        flow: FlowId,
    },
}

impl LocalEvent {
    /// The canonical same-timestamp ordering key. Emissions first, then
    /// arrivals, then transmit completions, then ticks — matching the
    /// causal chains `SourceEmit -> Arrive` and
    /// `Arrive -> TransmitDone` that occur at one instant.
    pub fn key(&self) -> EventKey {
        match *self {
            LocalEvent::SourceEmit { flow } => (0, flow as u64, 0),
            LocalEvent::Arrive {
                node,
                ref packet,
                via,
            } => {
                let lane = match via {
                    Some((chan, _)) => chan as u64,
                    // Offset by flow id: distinct flows sharing an ingress
                    // may inject at the same instant.
                    None => SOURCE_LANE + packet.flow as u64,
                };
                (1, node as u64, lane)
            }
            LocalEvent::TransmitDone { channel, gen } => (2, channel as u64, gen),
            LocalEvent::NodeTick { node } => (3, node as u64, 0),
            // Unique per timestamp: seqs are unique per flow, and the
            // chain/timer flags keep at most one XferArrive / RtoCheck
            // pending per flow.
            LocalEvent::Ack { flow, seq, .. } => (4, flow as u64, seq),
            LocalEvent::XferArrive { flow } => (5, flow as u64, 0),
            LocalEvent::RtoCheck { flow } => (6, flow as u64, 0),
        }
    }
}

/// Liveness snapshot of one channel, refreshed by the coordinator after
/// every global event — i.e. constant within an epoch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChanState {
    /// Whether the channel is live.
    pub up: bool,
    /// Current incarnation.
    pub gen: u64,
}

/// Shared tables every shard reads during an epoch. Immutable while
/// shards run; the coordinator owns the mutable masters.
pub(crate) struct SharedCtx<'a> {
    pub flows: &'a [FlowSpec],
    /// Interned per-flow packet constants, parallel to `flows`. Packets
    /// in flight carry only deltas; the wire image is materialized from
    /// here at the router boundary.
    pub templates: &'a [FlowTemplate],
    pub chan_index: &'a HashMap<(NodeId, NodeId), usize>,
    pub chan_link: &'a [LinkId],
    /// Per-global-channel liveness snapshot.
    pub chan_state: &'a [ChanState],
    /// `(owning shard, local index)` of every global channel.
    pub chan_owner: &'a [(usize, usize)],
    /// Shard owning each channel's *receiving* node.
    pub chan_dest_shard: &'a [usize],
    /// Most recent fault record per link.
    pub fault_of_link: &'a HashMap<LinkId, usize>,
    /// Shard owning each flow's ingress node — the destination of its
    /// delivery acks.
    pub flow_shard: &'a [usize],
    /// Per closed-loop ingress: static shortest-path propagation delay
    /// from every reachable node back to that ingress, over the full
    /// (fault-free) channel graph. Whenever the reverse path crosses
    /// shards it is at least the cross-shard lookahead, which is what
    /// makes ack scheduling conservative-safe (see
    /// `Engine::ack_distances`).
    pub ack_dist: &'a HashMap<NodeId, HashMap<NodeId, SimTime>>,
}

/// A flow's traffic source: its private RNG stream and edge policer.
/// Lives on the flow's ingress shard.
pub(crate) struct EmitState {
    /// Inter-packet gap RNG, seeded from (run seed, flow id) only, so
    /// the emission schedule is identical at any shard count. Closed-loop
    /// flows draw their arrival gaps, thinning accepts and transfer
    /// sizes from the same stream — the draw order is fixed by the
    /// canonical event order of this flow's own events, so it too is
    /// shard-invariant.
    pub rng: StdRng,
    /// Edge policer, if the flow is policed.
    pub policer: Option<TokenBucket>,
    /// Congestion-control state, for closed-loop flows only.
    pub cl: Option<ClosedLoopState>,
}

/// Sender-side state of one closed-loop flow: a serial server of
/// transfers under an AIMD congestion window.
///
/// Loss recovery is a Tahoe-style timeout: every emission carries a
/// fresh sequence number (retransmissions included), the receiver acks
/// whatever arrives, and the sender counts *acked packets* toward the
/// transfer rather than tracking which seq carried which chunk. A
/// stalled window (no ack within `rto_ns`) presumes everything in
/// flight lost, re-queues it for sending and collapses the window. A
/// spurious timeout can therefore complete a transfer with fewer
/// retransmitted deliveries than re-sends — the overshoot shows up
/// honestly in `sent`/`retransmits`, and the conservation identity is
/// untouched because every emission is tracked individually in the
/// data plane.
pub(crate) struct ClosedLoopState {
    /// Congestion window, in packets.
    pub cwnd: u64,
    /// Slow-start threshold.
    pub ssthresh: u64,
    /// Acks accumulated toward the next +1 in congestion avoidance.
    pub ca_acks: u64,
    /// Emissions outstanding (unacked, not yet presumed lost).
    pub inflight: u64,
    /// Packets of the current transfer still owed an emission
    /// (first-time sends plus presumed-lost re-sends).
    pub unsent: u64,
    /// Deliveries still owed before the current transfer completes.
    pub remaining: u64,
    /// Arrival time of the transfer in service (FCT includes queue wait).
    pub birth_ns: SimTime,
    /// Transfers waiting for service: (arrival time, size in packets).
    pub pending: VecDeque<(SimTime, u64)>,
    /// Whether a transfer is in service.
    pub active: bool,
    /// Whether an emission-chain `SourceEmit` is pending in the wheel.
    pub chain_live: bool,
    /// Whether an `RtoCheck` is pending in the wheel.
    pub rto_live: bool,
    /// Time of the last ack (or transfer start / timeout action) —
    /// the RTO stall reference.
    pub last_progress_ns: SimTime,
    /// ECN halvings only apply to acks of packets sent after the last
    /// halving: acks with `seq` below this barrier don't cut again.
    pub ecn_barrier_seq: u64,
}

impl ClosedLoopState {
    pub fn new(spec: &ClosedLoopSpec) -> Self {
        Self {
            cwnd: 1,
            ssthresh: spec.max_cwnd.max(2),
            ca_acks: 0,
            inflight: 0,
            unsent: 0,
            remaining: 0,
            birth_ns: 0,
            pending: VecDeque::new(),
            active: false,
            chain_live: false,
            rto_live: false,
            last_progress_ns: 0,
            ecn_barrier_seq: 0,
        }
    }

    /// Begins serving a transfer: fresh slow start, window of 1.
    fn start_transfer(&mut self, spec: &ClosedLoopSpec, birth: SimTime, size: u64, now: SimTime) {
        self.active = true;
        self.birth_ns = birth;
        self.remaining = size;
        self.unsent = size;
        self.inflight = 0;
        self.cwnd = 1;
        self.ssthresh = spec.max_cwnd.max(2);
        self.ca_acks = 0;
        self.last_progress_ns = now;
    }
}

/// Per-flow telemetry buffered shard-locally and folded into the sink
/// at the end of the run (sums and histogram merges commute).
pub(crate) struct FlowDelta {
    pub sent: u64,
    pub delivered: u64,
    pub conform: u64,
    pub exceed: u64,
    pub delay: Histogram,
    pub jitter: Histogram,
}

impl FlowDelta {
    pub fn new(bounds: &[u64]) -> Self {
        Self {
            sent: 0,
            delivered: 0,
            conform: 0,
            exceed: 0,
            delay: Histogram::new(bounds.to_vec()),
            jitter: Histogram::new(bounds.to_vec()),
        }
    }
}

/// One shard: its nodes, owned channels, event wheel and buffered
/// effects. The sink type parameter only carries
/// [`TelemetrySink::ENABLED`] so delta recording compiles away on
/// untelemetered runs; the sink itself stays with the coordinator.
pub(crate) struct ShardState<S> {
    pub id: usize,
    pub wheel: EventWheel,
    pub nodes: Vec<Box<dyn Node>>,
    pub node_local: HashMap<NodeId, usize>,
    /// Channels this shard transmits on (its nodes are the `from` ends).
    pub channels: Vec<Channel>,
    /// Traffic sources whose ingress lives here, by local index.
    pub emit: Vec<EmitState>,
    /// Flow id -> local emit index.
    pub emit_of_flow: HashMap<FlowId, usize>,
    /// Full-width per-flow stats; only the flows this shard touched are
    /// non-zero. Folded with [`FlowStats::absorb`] at the end.
    pub stats: Vec<FlowStats>,
    /// Cross-shard events buffered until the epoch barrier, tagged with
    /// their destination shard (wire arrivals go to the receiving
    /// node's shard; closed-loop acks to the flow's ingress shard).
    pub outbox: Vec<(SimTime, usize, LocalEvent)>,
    /// `fault_drops` owed to channels owned by other shards (stale-gen
    /// arrivals observed here), by global channel index.
    pub foreign_fault_drops: Vec<u64>,
    /// Packet losses owed to fault records, by record index.
    pub record_loss: HashMap<usize, u64>,
    /// Per-flow telemetry deltas; empty unless `S::ENABLED`.
    pub deltas: Vec<FlowDelta>,
    /// Events this shard executed (engine stats / conservation checks).
    pub events_processed: u64,
    /// Timestamp of the most recently executed event.
    pub last_time: SimTime,
    /// Batch drain bound (see [`batch_limit`]); reusable scratch
    /// buffers keep the hot loop allocation-free.
    pub batch: usize,
    pub batch_items: Vec<(SimPacket, Option<(usize, u64)>)>,
    pub batch_live: Vec<(MplsPacket, FlowId, u64, SimTime, bool, u64)>,
    pub batch_outs: Vec<(Forwarding, FlowId, u64, SimTime, bool)>,
    pub _sink: PhantomData<fn() -> S>,
}

impl<S: TelemetrySink> ShardState<S> {
    /// Executes every local event strictly before `end`.
    pub fn run_until(&mut self, end: SimTime, ctx: &SharedCtx<'_>) {
        while let Some((t, ev)) = self.wheel.pop_next(end) {
            self.events_processed += 1;
            self.last_time = t;
            match ev {
                LocalEvent::SourceEmit { flow } => self.on_source_emit(t, flow, ctx),
                LocalEvent::Arrive { node, packet, via } => {
                    // Same-instant arrivals for one node are consecutive
                    // in canonical pop order (class 1, keyed by node);
                    // drain them and stream the whole batch through the
                    // router in one go. Arrival processing only schedules
                    // later-class or later-time events, so nothing can
                    // slot in between — the event sequence is exactly the
                    // unbatched one.
                    let mut items = std::mem::take(&mut self.batch_items);
                    items.clear();
                    items.push((packet, via));
                    while items.len() < self.batch {
                        match self.wheel.pop_arrival_for(t, node as u64) {
                            Some(LocalEvent::Arrive { packet, via, .. }) => {
                                self.events_processed += 1;
                                items.push((packet, via));
                            }
                            _ => break,
                        }
                    }
                    self.on_arrive_batch(t, node, &mut items, ctx);
                    self.batch_items = items;
                }
                LocalEvent::TransmitDone { channel, gen } => {
                    self.on_transmit_done(t, channel, gen, ctx)
                }
                LocalEvent::NodeTick { node } => self.on_node_tick(t, node),
                LocalEvent::Ack { flow, seq, ecn } => self.on_ack(t, flow, seq, ecn, ctx),
                LocalEvent::XferArrive { flow } => self.on_xfer_arrive(t, flow, ctx),
                LocalEvent::RtoCheck { flow } => self.on_rto_check(t, flow, ctx),
            }
        }
    }

    fn on_source_emit(&mut self, now: SimTime, flow: FlowId, ctx: &SharedCtx<'_>) {
        let spec = &ctx.flows[flow];
        if let TrafficPattern::ClosedLoop(cl) = spec.pattern {
            return self.on_cl_emit(now, flow, &cl, ctx);
        }
        if now >= spec.stop_ns {
            return;
        }
        let seq = self.stats[flow].sent;
        self.stats[flow].on_sent();
        if S::ENABLED {
            self.deltas[flow].sent += 1;
        }
        let packet = ctx.templates[flow].emit(flow, seq, now);
        let li = self.emit_of_flow[&flow];
        // Edge policing: non-conforming packets never enter the network.
        let conforms = match &mut self.emit[li].policer {
            Some(bucket) => bucket.conform(now, packet.wire_len()),
            None => true,
        };
        if S::ENABLED && self.emit[li].policer.is_some() {
            if conforms {
                self.deltas[flow].conform += 1;
            } else {
                self.deltas[flow].exceed += 1;
            }
        }
        if conforms {
            self.wheel.schedule(
                now,
                LocalEvent::Arrive {
                    node: spec.ingress,
                    packet,
                    via: None,
                },
            );
        } else {
            self.stats[flow].policer_dropped += 1;
        }
        let gap = spec
            .pattern
            .next_gap(now - spec.start_ns, &mut self.emit[li].rng);
        let next = now.saturating_add(gap);
        if next < spec.stop_ns {
            self.wheel.schedule(next, LocalEvent::SourceEmit { flow });
        }
    }

    /// Emits one packet of a closed-loop flow's transfer in service, then
    /// continues the emission chain while the window has room. A chain is
    /// a series of `SourceEmit`s spaced `pacing_ns` apart; exactly one is
    /// pending per flow (`chain_live`), and restarts triggered by acks,
    /// arrivals or timeouts always land at `now + pacing` — never at
    /// `now` — so an instant's canonical order is never re-entered.
    fn on_cl_emit(&mut self, now: SimTime, flow: FlowId, cl: &ClosedLoopSpec, ctx: &SharedCtx<'_>) {
        let spec = &ctx.flows[flow];
        let li = self.emit_of_flow[&flow];
        let st = self.emit[li]
            .cl
            .as_mut()
            .expect("closed-loop flow has cl state");
        st.chain_live = false;
        if now >= spec.stop_ns || !st.active || st.unsent == 0 || st.inflight >= st.cwnd {
            return;
        }
        st.unsent -= 1;
        st.inflight += 1;
        let cwnd = st.cwnd;
        self.stats[flow].cwnd_peak = self.stats[flow].cwnd_peak.max(cwnd);
        let seq = self.stats[flow].sent;
        self.stats[flow].on_sent();
        if S::ENABLED {
            self.deltas[flow].sent += 1;
        }
        let packet = ctx.templates[flow].emit(flow, seq, now);
        let conforms = match &mut self.emit[li].policer {
            Some(bucket) => bucket.conform(now, packet.wire_len()),
            None => true,
        };
        if S::ENABLED && self.emit[li].policer.is_some() {
            if conforms {
                self.deltas[flow].conform += 1;
            } else {
                self.deltas[flow].exceed += 1;
            }
        }
        if conforms {
            self.wheel.schedule(
                now,
                LocalEvent::Arrive {
                    node: spec.ingress,
                    packet,
                    via: None,
                },
            );
        } else {
            // Still counted in flight: the RTO recovers the loss just
            // like any other unacked emission.
            self.stats[flow].policer_dropped += 1;
        }
        let st = self.emit[li].cl.as_mut().expect("cl state");
        // Lazily arm the stall timer whenever data is outstanding.
        if !st.rto_live {
            st.rto_live = true;
            self.wheel.schedule(
                now.saturating_add(cl.rto_ns.max(1)),
                LocalEvent::RtoCheck { flow },
            );
        }
        let st = self.emit[li].cl.as_mut().expect("cl state");
        if st.unsent > 0 && st.inflight < st.cwnd {
            let at = now.saturating_add(cl.pacing_ns.max(1));
            if at < spec.stop_ns {
                st.chain_live = true;
                self.wheel.schedule(at, LocalEvent::SourceEmit { flow });
            }
        }
    }

    /// A transfer-arrival candidate of the flow's thinned nonhomogeneous
    /// Poisson process. The RNG draw order per candidate is fixed — gap,
    /// accept, then size if accepted — so the stream stays shard-
    /// invariant.
    fn on_xfer_arrive(&mut self, now: SimTime, flow: FlowId, ctx: &SharedCtx<'_>) {
        let spec = &ctx.flows[flow];
        let TrafficPattern::ClosedLoop(cl) = spec.pattern else {
            return;
        };
        if now >= spec.stop_ns {
            return;
        }
        let li = self.emit_of_flow[&flow];
        let elapsed = now.saturating_sub(spec.start_ns);
        let gap = cl.next_arrival_gap(&mut self.emit[li].rng);
        let accepted = cl.accept(elapsed, &mut self.emit[li].rng);
        let next = now.saturating_add(gap);
        if next < spec.stop_ns {
            self.wheel.schedule(next, LocalEvent::XferArrive { flow });
        }
        if !accepted {
            return;
        }
        let size = cl.draw_size(&mut self.emit[li].rng);
        self.stats[flow].transfers_started += 1;
        let st = self.emit[li].cl.as_mut().expect("cl state");
        if st.active {
            st.pending.push_back((now, size));
            return;
        }
        st.start_transfer(&cl, now, size, now);
        let at = now.saturating_add(cl.pacing_ns.max(1));
        if at < spec.stop_ns && !st.chain_live {
            st.chain_live = true;
            self.wheel.schedule(at, LocalEvent::SourceEmit { flow });
        }
    }

    /// A delivery ack reaching the flow's ingress: window update, then
    /// transfer progress, then (maybe) a chain restart.
    fn on_ack(&mut self, now: SimTime, flow: FlowId, seq: u64, ecn: bool, ctx: &SharedCtx<'_>) {
        let spec = &ctx.flows[flow];
        let TrafficPattern::ClosedLoop(cl) = spec.pattern else {
            return;
        };
        let li = self.emit_of_flow[&flow];
        let st = self.emit[li].cl.as_mut().expect("cl state");
        if !st.active {
            // Late ack of a transfer a spurious RTO already finished (the
            // timeout's re-sends covered the tail): nothing left to credit.
            return;
        }
        st.inflight = st.inflight.saturating_sub(1);
        st.last_progress_ns = now;
        if ecn && seq >= st.ecn_barrier_seq {
            // One multiplicative decrease per window of marks: further
            // marks on packets sent before this point don't cut again.
            st.cwnd = (st.cwnd / 2).max(1);
            st.ssthresh = st.cwnd.max(2);
            st.ca_acks = 0;
            st.ecn_barrier_seq = self.stats[flow].sent;
            self.stats[flow].cwnd_cuts += 1;
        } else if !ecn {
            if st.cwnd < st.ssthresh {
                st.cwnd += 1;
            } else {
                st.ca_acks += 1;
                if st.ca_acks >= st.cwnd {
                    st.cwnd += 1;
                    st.ca_acks = 0;
                }
            }
            st.cwnd = st.cwnd.min(cl.max_cwnd.max(1));
        }
        if st.remaining > 0 {
            st.remaining -= 1;
            if st.remaining == 0 {
                // Transfer complete: FCT spans arrival (queue wait
                // included) to last ack.
                let fct = now.saturating_sub(st.birth_ns);
                st.active = false;
                st.inflight = 0;
                st.unsent = 0;
                let next = st.pending.pop_front();
                self.stats[flow].transfers_completed += 1;
                self.stats[flow].fct_sum_ns += fct;
                self.stats[flow].fct_hist.record(fct);
                if cl.sla_fct_ns > 0 && fct > cl.sla_fct_ns {
                    self.stats[flow].sla_violations += 1;
                }
                if let Some((birth, size)) = next {
                    let st = self.emit[li].cl.as_mut().expect("cl state");
                    st.start_transfer(&cl, birth, size, now);
                    let at = now.saturating_add(cl.pacing_ns.max(1));
                    if at < spec.stop_ns && !st.chain_live {
                        st.chain_live = true;
                        self.wheel.schedule(at, LocalEvent::SourceEmit { flow });
                    }
                }
                return;
            }
        }
        let st = self.emit[li].cl.as_mut().expect("cl state");
        if st.active && st.unsent > 0 && st.inflight < st.cwnd && !st.chain_live {
            let at = now.saturating_add(cl.pacing_ns.max(1));
            if at < spec.stop_ns {
                st.chain_live = true;
                self.wheel.schedule(at, LocalEvent::SourceEmit { flow });
            }
        }
    }

    /// The flow's lazy stall timer: if no ack landed within `rto_ns`,
    /// presume the whole window lost (Tahoe), re-queue it and collapse
    /// the window; either way re-arm while the run is still inside the
    /// flow's active window.
    fn on_rto_check(&mut self, now: SimTime, flow: FlowId, ctx: &SharedCtx<'_>) {
        let spec = &ctx.flows[flow];
        let TrafficPattern::ClosedLoop(cl) = spec.pattern else {
            return;
        };
        let li = self.emit_of_flow[&flow];
        let st = self.emit[li].cl.as_mut().expect("cl state");
        st.rto_live = false;
        if now >= spec.stop_ns {
            // Let the run drain: no timer outlives the flow's window.
            return;
        }
        if st.active && st.inflight > 0 && now.saturating_sub(st.last_progress_ns) >= cl.rto_ns {
            let lost = st.inflight;
            st.unsent += lost;
            st.inflight = 0;
            st.ssthresh = (st.cwnd / 2).max(2);
            st.cwnd = 1;
            st.ca_acks = 0;
            st.last_progress_ns = now;
            self.stats[flow].retransmits += lost;
            self.stats[flow].cwnd_cuts += 1;
            let st = self.emit[li].cl.as_mut().expect("cl state");
            if !st.chain_live {
                let at = now.saturating_add(cl.pacing_ns.max(1));
                if at < spec.stop_ns {
                    st.chain_live = true;
                    self.wheel.schedule(at, LocalEvent::SourceEmit { flow });
                }
            }
        }
        let st = self.emit[li].cl.as_mut().expect("cl state");
        if st.active && (st.inflight > 0 || st.unsent > 0) {
            st.rto_live = true;
            self.wheel.schedule(
                now.saturating_add(cl.rto_ns.max(1)),
                LocalEvent::RtoCheck { flow },
            );
        }
    }

    /// Processes a drained batch of same-instant arrivals at `node`:
    /// stale-incarnation losses are taken first, then the node's router
    /// is resolved *once* and the surviving packets stream through its
    /// data plane back to back, then the resulting actions apply in
    /// packet order. Each phase preserves the per-packet order of the
    /// unbatched loop, and no phase's effects feed an earlier phase, so
    /// the outcome is identical to processing one event at a time.
    fn on_arrive_batch(
        &mut self,
        now: SimTime,
        node: NodeId,
        items: &mut Vec<(SimPacket, Option<(usize, u64)>)>,
        ctx: &SharedCtx<'_>,
    ) {
        let mut live = std::mem::take(&mut self.batch_live);
        live.clear();
        for (packet, via) in items.drain(..) {
            // A packet that was on the wire when its link was cut never
            // arrives: the channel's incarnation has moved on.
            if let Some((chan, gen)) = via {
                if ctx.chan_state[chan].gen != gen {
                    let (owner, local) = ctx.chan_owner[chan];
                    if owner == self.id {
                        self.channels[local].fault_drops += 1;
                    } else {
                        self.foreign_fault_drops[chan] += 1;
                    }
                    self.count_fault_loss(ctx.chan_link[chan], packet.flow, ctx);
                    continue;
                }
            }
            let port = match via {
                Some((chan, _)) => chan as u64,
                // Same value as the event key's lane: stable across
                // shard counts, disjoint from wire channel indices.
                None => SOURCE_LANE + packet.flow as u64,
            };
            // The router boundary: materialize the wire packet from the
            // flow's interned template plus the in-flight delta. The ECN
            // mark rides alongside — routers don't read it.
            let inner = ctx.templates[packet.flow].materialize(&packet.stack, packet.seq);
            live.push((
                inner,
                packet.flow,
                packet.seq,
                packet.sent_ns,
                packet.ecn,
                port,
            ));
        }
        let mut outs = std::mem::take(&mut self.batch_outs);
        outs.clear();
        let li = self.node_local[&node];
        let router = &mut self.nodes[li];
        for (inner, flow, seq, sent_ns, ecn, port) in live.drain(..) {
            outs.push((
                router.on_packet_via(now, inner, port),
                flow,
                seq,
                sent_ns,
                ecn,
            ));
        }
        for (out, flow, seq, sent_ns, ecn) in outs.drain(..) {
            self.apply_forwarding(now, node, out, flow, seq, sent_ns, ecn, ctx);
        }
        self.batch_live = live;
        self.batch_outs = outs;
    }

    /// Applies one forwarding decision: transmit, deliver or account the
    /// drop.
    #[allow(clippy::too_many_arguments)]
    fn apply_forwarding(
        &mut self,
        now: SimTime,
        node: NodeId,
        out: Forwarding,
        flow: FlowId,
        seq: u64,
        sent_ns: SimTime,
        ecn: bool,
        ctx: &SharedCtx<'_>,
    ) {
        let done = now + out.latency_ns;
        match out.action {
            Action::Forward {
                next,
                packet: inner,
            } => {
                let Some(&chan) = ctx.chan_index.get(&(node, next)) else {
                    // Misconfigured next hop onto a non-adjacent node.
                    self.stats[flow].on_discarded(DiscardCause::NoNextHop);
                    return;
                };
                let (owner, local) = ctx.chan_owner[chan];
                debug_assert_eq!(owner, self.id, "a node transmits only on its own channels");
                // Back to delta form for the wire: only the stack (and
                // its derived EtherType) changed inside the router.
                let sp = ctx.templates[flow].delta_of(inner, flow, seq, sent_ns, ecn);
                if !ctx.chan_state[chan].up {
                    // Steered onto a dead link by stale forwarding state.
                    self.channels[local].fault_drops += 1;
                    self.count_fault_loss(ctx.chan_link[chan], flow, ctx);
                    return;
                }
                self.offer_to_channel(chan, local, sp, done, ctx);
            }
            Action::Deliver(inner) => {
                let wire = inner.wire_len();
                let delay = done - sent_ns;
                if S::ENABLED {
                    self.deltas[flow].delivered += 1;
                    self.deltas[flow].delay.record(delay);
                    // Jitter differences against the previous delivery's
                    // delay, so read it before on_delivered overwrites it.
                    if let Some(prev) = self.stats[flow].last_delay_ns() {
                        self.deltas[flow].jitter.record(prev.abs_diff(delay));
                    }
                }
                self.stats[flow].on_delivered(done, delay, wire);
                // Closed-loop delivery: echo an ack (with the congestion
                // mark) back to the ingress, arriving one static
                // shortest-path propagation delay later. The reverse
                // path is modeled reliable and uncongested; its delay is
                // never below the cross-shard lookahead on the route, so
                // the ack can cross shards through the normal outbox
                // without violating the epoch's conservative bound.
                if matches!(ctx.flows[flow].pattern, TrafficPattern::ClosedLoop(_)) {
                    let ingress = ctx.flows[flow].ingress;
                    let d = ctx
                        .ack_dist
                        .get(&ingress)
                        .and_then(|m| m.get(&node))
                        .copied();
                    if let Some(d) = d {
                        let at = done.saturating_add(d.max(1));
                        let ev = LocalEvent::Ack { flow, seq, ecn };
                        let dest = ctx.flow_shard[flow];
                        if dest == self.id {
                            self.wheel.schedule(at, ev);
                        } else {
                            self.outbox.push((at, dest, ev));
                        }
                    }
                    // A delivering node with no static path back to the
                    // ingress can't ack; the sender's RTO covers it, and
                    // the (deterministic) omission is identical at every
                    // shard count.
                }
            }
            Action::Discard(cause) => {
                self.stats[flow].on_discarded(cause);
            }
        }
    }

    fn offer_to_channel(
        &mut self,
        chan: usize,
        local: usize,
        mut packet: SimPacket,
        at: SimTime,
        ctx: &SharedCtx<'_>,
    ) {
        let flow = packet.flow;
        // ECN-style congestion marking: a closed-loop flow's packet gets
        // marked when it meets a queue at or past the flow's threshold.
        // Marked before the offer so a packet that ends up tail-dropped
        // was seen as congestion either way.
        if !packet.ecn {
            if let TrafficPattern::ClosedLoop(cl) = ctx.flows[flow].pattern {
                if cl.ecn_threshold > 0
                    && self.channels[local].queue.len() as u32 >= cl.ecn_threshold
                {
                    packet.ecn = true;
                    self.stats[flow].ecn_marks += 1;
                }
            }
        }
        let c = &mut self.channels[local];
        match c.offer(packet) {
            OfferResult::Dropped => {
                self.stats[flow].queue_dropped += 1;
            }
            OfferResult::Queued => {}
            OfferResult::StartTransmit => {
                let p = c.queue.pop().expect("just offered");
                let ser = c.serialization_ns(p.wire_len());
                c.busy = true;
                c.busy_ns += ser;
                let gen = c.gen;
                c.in_flight = Some(p);
                self.wheel
                    .schedule(at + ser, LocalEvent::TransmitDone { channel: chan, gen });
            }
        }
    }

    fn on_transmit_done(&mut self, now: SimTime, chan: usize, gen: u64, ctx: &SharedCtx<'_>) {
        let local = ctx.chan_owner[chan].1;
        let c = &mut self.channels[local];
        if c.gen != gen {
            // The link was cut mid-serialization; take_down already
            // flushed and counted the packet.
            return;
        }
        let p = c.in_flight.take().expect("transmit completed with cargo");
        c.transmitted += 1;
        let to = c.to;
        let delay = c.delay_ns;
        let cur_gen = c.gen;
        let loss_prob = c.loss_prob;
        // Start the next queued packet, if any.
        if let Some(next) = c.queue.pop() {
            let ser = c.serialization_ns(next.wire_len());
            c.busy_ns += ser;
            c.in_flight = Some(next);
            self.wheel.schedule(
                now + ser,
                LocalEvent::TransmitDone {
                    channel: chan,
                    gen: cur_gen,
                },
            );
        } else {
            c.busy = false;
        }
        // Random wire loss claims the packet after serialization. The
        // draw comes from the channel's private RNG, so the outcome is
        // a function of this channel's transmission sequence alone.
        if loss_prob > 0.0 && self.channels[local].loss_roll() < loss_prob {
            self.channels[local].loss_drops += 1;
            self.stats[p.flow].on_discarded(DiscardCause::LinkLoss);
            return;
        }
        let ev = LocalEvent::Arrive {
            node: to,
            packet: p,
            via: Some((chan, cur_gen)),
        };
        let at = now + delay;
        if ctx.chan_dest_shard[chan] == self.id {
            self.wheel.schedule(at, ev);
        } else {
            self.outbox.push((at, ctx.chan_dest_shard[chan], ev));
        }
    }

    fn on_node_tick(&mut self, now: SimTime, node: NodeId) {
        let li = self.node_local[&node];
        self.nodes[li].on_tick(now);
        if let Some(iv) = self.nodes[li].tick_interval() {
            self.wheel
                .schedule(now + iv.max(1), LocalEvent::NodeTick { node });
        }
    }

    /// Counts one packet lost to `link`'s outage against its flow and
    /// (via the shard-local delta) the link's current fault record.
    fn count_fault_loss(&mut self, link: LinkId, flow: FlowId, ctx: &SharedCtx<'_>) {
        // Mirror of the coordinator-side planted bug (see
        // `Engine::count_fault_loss`): conservation breaks on odd links
        // so the chaos oracles have something real to catch.
        #[cfg(feature = "chaos-bug")]
        if link % 2 == 1 {
            return;
        }
        self.stats[flow].on_discarded(DiscardCause::LinkDown);
        if let Some(&rec) = ctx.fault_of_link.get(&link) {
            *self.record_loss.entry(rec).or_insert(0) += 1;
        }
    }
}

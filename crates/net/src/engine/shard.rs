//! One shard of the sharded engine: a subset of nodes, the channels
//! they transmit on, and a private event queue.
//!
//! # Canonical event keys
//!
//! Within one timestamp, shard-local events execute in the order of
//! their canonical key, [`LocalEvent`]'s [`EventRank::rank`] —
//! `(class, a, b)` tuples built only from stable identifiers (flow ids,
//! node ids, global channel indices). The key never encodes *which
//! shard* scheduled the event or *when* it was inserted, so a run
//! partitioned into N shards pops exactly the same event sequence per
//! node as a single-shard run: byte-identical reports at any shard
//! count.
//!
//! Every key is unique at its timestamp. A flow emits at most once per
//! instant (inter-packet gaps are ≥ 1 ns). Within one incarnation a
//! channel's packets end serializing at strictly increasing times
//! (serialization times are ≥ 1 ns, and each packet starts no earlier
//! than the one before it ends), so a channel has at most one
//! `TransmitDone` per instant per incarnation, and an `Arrive` is pinned
//! to its (node, channel) lane: a channel delivers at most one packet
//! per instant, at its end plus the link delay. A cut keeps only the old
//! incarnation's arrivals due before `cut + delay`, and the new
//! incarnation's packets end after the cut. So the insertion order that
//! [`EventQueue`] falls back on never decides between two local events:
//! each shard pops in `(time, key)` order.
//!
//! # Local event kinds
//!
//! A hop costs one event: a channel schedules each packet's `Arrive` at
//! the far end when it commits the packet (see [`crate::link`]). The
//! `TransmitDone`s left mark a wire-lost packet's end, a CoS channel's
//! next start, or a completion a cut made stale.
//!
//! # What shards may touch
//!
//! During an epoch a shard mutates only its own state plus the shared
//! *read-only* snapshot in [`SharedCtx`]. Effects on other shards
//! (cross-shard arrivals) are buffered in `outbox`; effects on global
//! accounting (a foreign channel's drop counter, a fault record's loss
//! tally, telemetry) are buffered in commutative per-shard deltas the
//! coordinator folds in deterministically.

use crate::event::{EventQueue, EventRank, SimTime};
use crate::link::{Channel, Departures};
use crate::policer::TokenBucket;
use crate::sim::{octave_bounds, FlowTemplate, SimPacket};
use crate::stats::{FlowId, FlowStats};
use crate::traffic::{ClosedLoopSpec, FlowSpec, TrafficPattern};
use mpls_control::{LinkId, NodeId};
use mpls_router::{Action, DiscardCause, Forwarding, MplsForwarder};
use mpls_telemetry::Histogram;
use rand::rngs::StdRng;
use std::collections::{HashMap, VecDeque};

/// Canonical ordering key for same-timestamp events: `(class, a, b)`.
pub(crate) type EventKey = (u8, u64, u64);

/// Lane marker distinguishing source-injected arrivals from wire
/// arrivals in the key's `b` component (channel indices stay below it).
/// Doubles as the port-space offset for source-injected packets, so a
/// router's per-ingress flow cache never conflates a source lane with a
/// wire channel.
const SOURCE_LANE: u64 = 1 << 32;

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
    /// A channel finished serializing a packet that is lost on the wire
    /// or has packets waiting behind it under CoS priority (or, stale,
    /// one a cut caught).
    TransmitDone {
        /// Global channel index.
        channel: usize,
        /// Channel incarnation at scheduling time; stale if it moved on.
        gen: u64,
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

impl EventRank for LocalEvent {
    type Rank = EventKey;

    /// The canonical same-timestamp ordering key. Emissions first, then
    /// arrivals, then transmit completions — matching the causal chain
    /// `SourceEmit -> Arrive` at one instant, and letting a packet
    /// offered at the instant a channel's last packet ends queue behind
    /// it — then the closed-loop acks, transfer arrivals and timeout
    /// checks.
    fn rank(&self) -> EventKey {
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
            // Unique per timestamp: seqs are unique per flow, and the
            // chain/timer flags keep at most one XferArrive / RtoCheck
            // pending per flow.
            LocalEvent::Ack { flow, seq, .. } => (3, flow as u64, seq),
            LocalEvent::XferArrive { flow } => (4, flow as u64, 0),
            LocalEvent::RtoCheck { flow } => (5, flow as u64, 0),
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
    pub chan_link: &'a [LinkId],
    /// Per-global-channel liveness snapshot.
    pub chan_state: &'a [ChanState],
    /// `(owning shard, local index)` of every global channel.
    pub chan_owner: &'a [(usize, usize)],
    /// Shard owning each channel's *receiving* node.
    pub chan_dest_shard: &'a [usize],
    /// Local index of each channel's receiving router on that shard.
    pub chan_dest_local: &'a [usize],
    /// Most recent fault record per link.
    pub fault_of_link: &'a HashMap<LinkId, usize>,
    /// Shard owning each flow's ingress node — the destination of its
    /// delivery acks.
    pub flow_shard: &'a [usize],
    /// Local index of each flow's ingress router on that shard.
    pub flow_ingress_local: &'a [usize],
    /// Each flow's index into its ingress shard's `emit` table.
    pub flow_emit: &'a [usize],
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
    /// Whether an emission-chain `SourceEmit` is pending in the queue.
    pub chain_live: bool,
    /// Whether an `RtoCheck` is pending in the queue.
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

/// A flow's delay and jitter histograms of a telemetry run, buffered
/// shard-locally and merged into the registry at the end of the run
/// (histogram merges commute). The flow's counters need no buffer: the
/// coordinator writes them from the folded [`FlowStats`].
pub(crate) struct FlowDelta {
    pub delay: Histogram,
    pub jitter: Histogram,
}

impl FlowDelta {
    pub fn new() -> Self {
        Self {
            delay: Histogram::new(octave_bounds()),
            jitter: Histogram::new(octave_bounds()),
        }
    }
}

/// One shard: its nodes, owned channels, event queue and buffered
/// effects. The telemetry registry stays with the coordinator.
pub(crate) struct ShardState {
    pub id: usize,
    pub queue: EventQueue<LocalEvent>,
    /// The routers at this shard's nodes, by local index.
    pub nodes: Vec<Box<dyn MplsForwarder + Send>>,
    /// Node id -> local index, for the coordinator's per-node calls.
    /// The run loop finds routers through the dense tables in
    /// [`SharedCtx`] instead.
    pub node_local: HashMap<NodeId, usize>,
    /// Per router (parallel to `nodes`): `(neighbor, global channel)`
    /// sorted by neighbor id, one entry per neighbor.
    pub ports: Vec<Vec<(NodeId, usize)>>,
    /// Channels this shard transmits on (its nodes are the `from` ends).
    pub channels: Vec<Channel>,
    /// Traffic sources whose ingress lives here, by local index
    /// ([`SharedCtx::flow_emit`]).
    pub emit: Vec<EmitState>,
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
    /// Per-flow histograms of a telemetry run; empty without telemetry.
    pub deltas: Vec<FlowDelta>,
    /// Events this shard executed (engine stats / conservation checks).
    pub events_processed: u64,
    /// Timestamp of the most recently executed event.
    pub last_time: SimTime,
}

impl ShardState {
    /// Executes every local event strictly before `end`.
    pub fn run_until(&mut self, end: SimTime, ctx: &SharedCtx<'_>) {
        while let Some((t, ev)) = self.queue.pop_before(end) {
            self.events_processed += 1;
            self.last_time = t;
            match ev {
                LocalEvent::SourceEmit { flow } => self.on_source_emit(t, flow, ctx),
                LocalEvent::Arrive { node, packet, via } => {
                    self.on_arrive(t, node, packet, via, ctx)
                }
                LocalEvent::TransmitDone { channel, gen } => {
                    self.on_transmit_done(t, channel, gen, ctx)
                }
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
        let packet = ctx.templates[flow].emit(flow, seq, now);
        let li = ctx.flow_emit[flow];
        // Edge policing: non-conforming packets never enter the network.
        let conforms = match &mut self.emit[li].policer {
            Some(bucket) => bucket.conform(now, packet.wire_len()),
            None => true,
        };
        if conforms {
            self.queue.schedule(
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
            self.queue.schedule(next, LocalEvent::SourceEmit { flow });
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
        let li = ctx.flow_emit[flow];
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
        let packet = ctx.templates[flow].emit(flow, seq, now);
        let conforms = match &mut self.emit[li].policer {
            Some(bucket) => bucket.conform(now, packet.wire_len()),
            None => true,
        };
        if conforms {
            self.queue.schedule(
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
            self.queue.schedule(
                now.saturating_add(cl.rto_ns.max(1)),
                LocalEvent::RtoCheck { flow },
            );
        }
        let st = self.emit[li].cl.as_mut().expect("cl state");
        if st.unsent > 0 && st.inflight < st.cwnd {
            let at = now.saturating_add(cl.pacing_ns.max(1));
            if at < spec.stop_ns {
                st.chain_live = true;
                self.queue.schedule(at, LocalEvent::SourceEmit { flow });
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
        let li = ctx.flow_emit[flow];
        let elapsed = now.saturating_sub(spec.start_ns);
        let gap = cl.next_arrival_gap(&mut self.emit[li].rng);
        let accepted = cl.accept(elapsed, &mut self.emit[li].rng);
        let next = now.saturating_add(gap);
        if next < spec.stop_ns {
            self.queue.schedule(next, LocalEvent::XferArrive { flow });
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
            self.queue.schedule(at, LocalEvent::SourceEmit { flow });
        }
    }

    /// A delivery ack reaching the flow's ingress: window update, then
    /// transfer progress, then (maybe) a chain restart.
    fn on_ack(&mut self, now: SimTime, flow: FlowId, seq: u64, ecn: bool, ctx: &SharedCtx<'_>) {
        let spec = &ctx.flows[flow];
        let TrafficPattern::ClosedLoop(cl) = spec.pattern else {
            return;
        };
        let li = ctx.flow_emit[flow];
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
                        self.queue.schedule(at, LocalEvent::SourceEmit { flow });
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
                self.queue.schedule(at, LocalEvent::SourceEmit { flow });
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
        let li = ctx.flow_emit[flow];
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
                    self.queue.schedule(at, LocalEvent::SourceEmit { flow });
                }
            }
        }
        let st = self.emit[li].cl.as_mut().expect("cl state");
        if st.active && (st.inflight > 0 || st.unsent > 0) {
            st.rto_live = true;
            self.queue.schedule(
                now.saturating_add(cl.rto_ns.max(1)),
                LocalEvent::RtoCheck { flow },
            );
        }
    }

    /// One packet reaching `node`'s input. A packet that was on the wire
    /// when its link was cut is lost; any other goes through the node's
    /// router, and the router's decision is applied.
    fn on_arrive(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: SimPacket,
        via: Option<(usize, u64)>,
        ctx: &SharedCtx<'_>,
    ) {
        let (port, li) = match via {
            Some((chan, gen)) => {
                // The channel's incarnation moved on while the packet
                // propagated: the link was cut under it.
                if ctx.chan_state[chan].gen != gen {
                    let (owner, local) = ctx.chan_owner[chan];
                    if owner == self.id {
                        self.channels[local].fault_drops += 1;
                    } else {
                        self.foreign_fault_drops[chan] += 1;
                    }
                    self.count_fault_loss(ctx.chan_link[chan], packet.flow, ctx);
                    return;
                }
                (chan as u64, ctx.chan_dest_local[chan])
            }
            // Same value as the event key's lane: stable across shard
            // counts, disjoint from wire channel indices.
            None => (
                SOURCE_LANE + packet.flow as u64,
                ctx.flow_ingress_local[packet.flow],
            ),
        };
        debug_assert_eq!(self.nodes[li].node_id(), node, "dense router index");
        // The router boundary: materialize the wire packet from the
        // flow's interned template plus the in-flight delta. The ECN mark
        // rides alongside — routers don't read it.
        let inner = ctx.templates[packet.flow].materialize(&packet.stack, packet.seq);
        let out = self.nodes[li].handle_on_port(inner, port);
        self.apply_forwarding(now, node, li, out, &packet, ctx);
    }

    /// The channel the router at local index `li` transmits on toward
    /// `next`, or `None` when `next` is not a neighbor.
    pub fn port_to(&self, li: usize, next: NodeId) -> Option<usize> {
        let ports = &self.ports[li];
        let i = ports.binary_search_by_key(&next, |&(n, _)| n).ok()?;
        Some(ports[i].1)
    }

    /// Applies the forwarding decision `out` that the router at `node`
    /// (local index `li`) made for the in-flight `packet`: transmit,
    /// deliver or account the drop.
    fn apply_forwarding(
        &mut self,
        now: SimTime,
        node: NodeId,
        li: usize,
        out: Forwarding,
        packet: &SimPacket,
        ctx: &SharedCtx<'_>,
    ) {
        let SimPacket {
            flow,
            seq,
            sent_ns,
            ecn,
            ..
        } = *packet;
        let done = now + out.latency_ns;
        match out.action {
            Action::Forward {
                next,
                packet: inner,
            } => {
                let Some(chan) = self.port_to(li, next) else {
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
                self.offer_to_channel(chan, local, sp, now, done, ctx);
            }
            Action::Deliver(inner) => {
                let wire = inner.wire_len();
                let delay = done - sent_ns;
                if let Some(d) = self.deltas.get_mut(flow) {
                    d.delay.record(delay);
                    // Jitter differences against the previous delivery's
                    // delay, so read it before on_delivered overwrites it.
                    if let Some(prev) = self.stats[flow].last_delay_ns() {
                        d.jitter.record(prev.abs_diff(delay));
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
                            self.queue.schedule(at, ev);
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

    /// Offers `packet` to the channel at `now`, ready to serialize at
    /// `ready`, and schedules what the channel commits.
    fn offer_to_channel(
        &mut self,
        chan: usize,
        local: usize,
        mut packet: SimPacket,
        now: SimTime,
        ready: SimTime,
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
                    && self.channels[local].waiting(now) as u32 >= cl.ecn_threshold
                {
                    packet.ecn = true;
                    self.stats[flow].ecn_marks += 1;
                }
            }
        }
        match self.channels[local].offer(now, ready, packet) {
            Some(departures) => self.depart(chan, local, departures, ctx),
            None => self.stats[flow].queue_dropped += 1,
        }
    }

    /// Schedules what channel `chan` (local index `local`) committed: a
    /// packet's arrival at the far end, on whichever shard owns it, and
    /// a completion on this one.
    fn depart(&mut self, chan: usize, local: usize, departures: Departures, ctx: &SharedCtx<'_>) {
        let Departures { arrive, done } = departures;
        let (to, gen) = (self.channels[local].to, self.channels[local].gen);
        if let Some(at) = done {
            self.queue
                .schedule(at, LocalEvent::TransmitDone { channel: chan, gen });
        }
        if let Some((at, packet)) = arrive {
            let ev = LocalEvent::Arrive {
                node: to,
                packet,
                via: Some((chan, gen)),
            };
            let dest = ctx.chan_dest_shard[chan];
            if dest == self.id {
                self.queue.schedule(at, ev);
            } else {
                self.outbox.push((at, dest, ev));
            }
        }
    }

    /// A completion the channel still needs: a wire-lost packet's
    /// accounting, or (under CoS priority) the start of the next waiting
    /// packet. A stale one, left by a cut, does nothing.
    fn on_transmit_done(&mut self, now: SimTime, chan: usize, gen: u64, ctx: &SharedCtx<'_>) {
        let local = ctx.chan_owner[chan].1;
        let c = &mut self.channels[local];
        if c.gen != gen {
            // The link was cut mid-serialization; take_down already
            // counted the packet.
            return;
        }
        let (lost, next) = c.complete(now);
        if let Some(flow) = lost {
            // Random wire loss claims the packet after serialization.
            // The draw came from the channel's private RNG when it was
            // committed, in transmission order, so the outcome is a
            // function of this channel's transmission sequence alone.
            self.stats[flow].on_discarded(DiscardCause::LinkLoss);
        }
        self.depart(chan, local, next, ctx);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::oracle::diff_against_oracle;
    use proptest::prelude::*;

    fn arrive(node: NodeId, flow: FlowId, via: Option<(usize, u64)>, seq: u64) -> LocalEvent {
        let packet = SimPacket {
            flow,
            stack: Default::default(),
            seq,
            sent_ns: 0,
            precedence: 0,
            base_wire: 0,
            ecn: false,
        };
        LocalEvent::Arrive { node, packet, via }
    }

    /// Equal-time events pop in canonical-key order whatever order they
    /// were scheduled in: keys are unique at a timestamp, so the
    /// queue's insertion-order tie-break never decides.
    #[test]
    fn equal_time_events_pop_in_key_order_whatever_the_insertion_order() {
        let events = || {
            vec![
                LocalEvent::RtoCheck { flow: 0 },
                LocalEvent::TransmitDone { channel: 2, gen: 0 },
                arrive(1, 4, Some((3, 0)), 0),
                LocalEvent::SourceEmit { flow: 9 },
                arrive(1, 4, None, 0),
                LocalEvent::Ack {
                    flow: 0,
                    seq: 7,
                    ecn: false,
                },
                LocalEvent::SourceEmit { flow: 1 },
                LocalEvent::XferArrive { flow: 0 },
            ]
        };
        // Emissions by flow, arrivals by (node, lane) with wire lanes
        // before source lanes, then completions, acks, transfer
        // arrivals and timeout checks.
        let expected: Vec<EventKey> = vec![
            (0, 1, 0),
            (0, 9, 0),
            (1, 1, 3),
            (1, 1, SOURCE_LANE + 4),
            (2, 2, 0),
            (3, 0, 7),
            (4, 0, 0),
            (5, 0, 0),
        ];
        for reversed in [false, true] {
            for shift in 0..expected.len() {
                let mut order = events();
                if reversed {
                    order.reverse();
                }
                order.rotate_left(shift);
                let mut q = EventQueue::new();
                for ev in order {
                    q.schedule(500, ev);
                }
                let keys: Vec<EventKey> =
                    std::iter::from_fn(|| q.pop_before(600).map(|(_, e)| e.rank())).collect();
                assert_eq!(keys, expected, "reversed {reversed}, shift {shift}");
            }
        }
    }

    /// A local event from `pick`: one of six kinds with one of two ids,
    /// so equal keys at equal times are common. Arrivals carry the op
    /// index `i` as their packet's sequence number and acks its parity
    /// as their mark, so the order of two equal keys shows.
    fn local_event(i: usize, pick: u8) -> LocalEvent {
        let id = usize::from(pick / 6);
        match pick % 6 {
            0 => LocalEvent::SourceEmit { flow: id },
            1 => arrive(1, id, Some((id, 0)), i as u64),
            2 => arrive(1, id, None, i as u64),
            3 => LocalEvent::TransmitDone {
                channel: id,
                gen: 0,
            },
            4 => LocalEvent::Ack {
                flow: id,
                seq: 0,
                ecn: i % 2 == 1,
            },
            _ => LocalEvent::RtoCheck { flow: id },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random schedule/pop/pop_before/cancel interleavings over four
        /// timestamps and twelve keys: the slab queue pops and cancels
        /// what the fat-entry heap does, reusing the slots it vacates.
        #[test]
        fn local_events_pop_as_the_fat_heap_pops(
            ops in proptest::collection::vec((0u8..6, 0u64..4, 0u8..12), 0..160)
        ) {
            let res = diff_against_oracle(&ops, local_event);
            prop_assert!(res.is_ok(), "{}", res.unwrap_err());
        }
    }
}

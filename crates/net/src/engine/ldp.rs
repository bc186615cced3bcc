//! The engine's half of the distributed control plane: schedules the
//! fabric's PDUs over the simulated channels and folds its session
//! events into fault detection, convergence timing and telemetry.
//!
//! The [`mpls_ldp::LdpFabric`] itself is passive and lives entirely on
//! the coordinator; its PDUs travel as [`ControlEvent::LdpDeliver`]
//! globals, so shard determinism holds trivially — shards never see the
//! protocol, only the reprogrammed forwarding state between epochs.
//!
//! # Channel model
//!
//! Control PDUs ride a strict-priority control sub-channel of each
//! link: they pay the link's serialization time (at its bandwidth) and
//! propagation delay, transmit FIFO per channel (`busy_until` per
//! direction — LDP relies on in-order delivery within a session), but
//! do not contend with data packets for queue space. A PDU in flight
//! across a failing channel is lost: delivery checks the channel's
//! liveness generation, exactly like data packets.

use super::{stream_seed, Engine};
use crate::event::{ControlEvent, SimTime};
use crate::fault::PduChaos;
use crate::sim::{octave_bounds, ControlSummary};
use mpls_control::{NodeConfig, NodeId};
use mpls_ldp::{FecKey, LdpEvent, LdpFabric, LdpSend};
use mpls_packet::LdpPdu;
use std::collections::{BTreeMap, BTreeSet};

/// An LDP PDU on the wire: the payload of a
/// [`ControlEvent::LdpDeliver`], which owns it until delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlightPdu {
    from: NodeId,
    to: NodeId,
    /// Global channel index it is crossing.
    chan: usize,
    /// Channel liveness generation at transmit time; a mismatch at
    /// delivery means the link failed (or flapped) underneath it.
    gen: u64,
    pdu: LdpPdu,
    /// True for session/label messages (not hello/keepalive chatter):
    /// while any is in flight the protocol has not settled.
    protocol: bool,
    /// Bytes were flipped by a [`PduChaos`] window: at delivery the
    /// decoder is exercised on the damaged image and the PDU is handed
    /// to the fabric's malformed path instead of its semantic one.
    corrupted: bool,
}

#[cfg(test)]
impl InFlightPdu {
    /// A keepalive from node 0 to node 1 on channel `chan`.
    pub(crate) fn for_test(chan: usize) -> Self {
        Self {
            from: 0,
            to: 1,
            chan,
            gen: 0,
            pdu: LdpPdu {
                lsr_id: 0,
                msg_id: 0,
                message: mpls_packet::LdpMessage::KeepAlive,
            },
            protocol: false,
            corrupted: false,
        }
    }
}

/// An outage whose routing has not yet been covered again.
struct PendingRestore {
    /// Index of the fault record.
    rec: usize,
    /// Every routed `(node, FEC)` pair at the cut.
    snapshot: BTreeSet<(NodeId, FecKey)>,
    /// The `snapshot` pairs without a route now, kept current from the
    /// fabric's route changes. Empty at the cut.
    missing: BTreeSet<(NodeId, FecKey)>,
}

/// Everything the engine tracks for a `--control ldp` run.
pub(crate) struct LdpRuntime {
    pub(crate) fabric: LdpFabric,
    /// Hello/keepalive timer period.
    tick_ns: u64,
    /// In-flight session/label messages.
    live_protocol: usize,
    /// When each channel's control sub-channel frees up (FIFO per
    /// direction).
    chan_busy: Vec<SimTime>,
    /// Control-PDU chaos windows from the fault plan.
    pub(crate) chaos: Vec<PduChaos>,
    /// Per-channel xorshift state for chaos draws — a dedicated RNG
    /// stream (class 5) keyed by global channel index, so outcomes are
    /// independent of shard layout, exactly like wire loss.
    chaos_rng: Vec<u64>,
    /// Time of the last FIB change of the initial convergence, captured
    /// once the protocol first settles and frozen by the first fault.
    pub(crate) convergence_ns: Option<u64>,
    /// Outstanding reconvergence measurements, resolved at the first
    /// settled instant whose routing covers the cut's snapshot again.
    pending_restore: Vec<PendingRestore>,
    pub(crate) pdus_sent: u64,
    pub(crate) pdus_delivered: u64,
    pub(crate) pdus_lost: u64,
}

impl LdpRuntime {
    pub(crate) fn new(fabric: LdpFabric, nchans: usize, seed: u64) -> Self {
        let tick_ns = fabric.config().hello_interval_ns.max(1);
        Self {
            fabric,
            tick_ns,
            live_protocol: 0,
            chan_busy: vec![0; nchans],
            chaos: Vec::new(),
            // Zero is mapped off the degenerate all-zero xorshift state.
            chaos_rng: (0..nchans)
                .map(|g| stream_seed(seed, 5, g as u64) | 1)
                .collect(),
            convergence_ns: None,
            pending_restore: Vec::new(),
            pdus_sent: 0,
            pdus_delivered: 0,
            pdus_lost: 0,
        }
    }

    /// Next uniform value in [0, 1) from `chan`'s chaos stream.
    fn chaos_roll(&mut self, chan: usize) -> f64 {
        let mut x = self.chaos_rng[chan];
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.chaos_rng[chan] = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The chaos window covering `link` at `now`, if any (first match
    /// wins — windows on the same link should not overlap).
    fn chaos_at(&self, link: mpls_control::LinkId, now: SimTime) -> Option<PduChaos> {
        self.chaos
            .iter()
            .find(|c| c.link == link && c.from_ns <= now && now < c.until_ns)
            .copied()
    }

    /// Folds the fabric's route gains and losses into every pending
    /// outage: a lost snapshot pair goes missing, a regained one is
    /// covered again.
    fn track_route_changes(&mut self) {
        let changes = self.fabric.take_route_changes();
        for p in &mut self.pending_restore {
            for c in &changes {
                let pair = (c.node, c.fec);
                if c.routed {
                    p.missing.remove(&pair);
                } else if p.snapshot.contains(&pair) {
                    p.missing.insert(pair);
                }
            }
        }
    }

    /// The differential oracle for [`Self::track_route_changes`] against
    /// a full rebuild: every missing set equals its snapshot minus what
    /// the fabric routes now.
    #[cfg(debug_assertions)]
    fn assert_missing_sets(&self) {
        let routed = self.fabric.routed_pairs();
        for p in &self.pending_restore {
            let expected: BTreeSet<(NodeId, FecKey)> =
                p.snapshot.difference(&routed).copied().collect();
            assert_eq!(
                p.missing, expected,
                "route-change log diverged from routed_pairs() for fault record {}",
                p.rec
            );
        }
    }
}

impl Engine {
    /// The periodic protocol timer: hellos, keepalives, session
    /// initiation and hold-timer expiry. Re-arms unconditionally — the
    /// run ends at the horizon, not by queue drain, in ldp mode.
    pub(super) fn on_ldp_tick(&mut self) {
        let Some(mut rt) = self.ldp.take() else {
            return;
        };
        let (sends, events) = rt.fabric.tick(self.now);
        self.dispatch_ldp(&mut rt, sends);
        self.process_ldp_events(&mut rt, events);
        self.reprogram_ldp_dirty(&mut rt);
        self.ldp_settle_check(&mut rt);
        self.globals
            .schedule(self.now + rt.tick_ns, ControlEvent::LdpTick);
        self.ldp = Some(rt);
    }

    /// An LDP PDU arrives (or dies with the channel it was crossing).
    pub(super) fn on_ldp_deliver(&mut self, inflight: InFlightPdu) {
        let Some(mut rt) = self.ldp.take() else {
            return;
        };
        if inflight.protocol {
            rt.live_protocol -= 1;
        }
        let st = self.chan_state[inflight.chan];
        if !st.up
            || st.gen != inflight.gen
            || self.partitioned.contains(&self.chan_link[inflight.chan])
        {
            rt.pdus_lost += 1;
        } else if inflight.corrupted {
            rt.pdus_delivered += 1;
            // Exercise the decoder on the damaged wire image: flip a
            // byte (position from the channel's chaos stream) and also
            // try a truncated prefix. Both must return errors, never
            // panic — this is the fabric-layer panic-freedom proof the
            // per-peer malformed counter hangs off.
            let mut bytes = inflight.pdu.encode();
            if !bytes.is_empty() {
                let pos = (rt.chaos_roll(inflight.chan) * bytes.len() as f64) as usize;
                let pos = pos.min(bytes.len() - 1);
                bytes[pos] ^= 0xFF;
                let _ = LdpPdu::decode(&bytes);
                let _ = LdpPdu::decode(&bytes[..bytes.len() / 2]);
            }
            let (sends, events) = rt
                .fabric
                .note_malformed(self.now, inflight.from, inflight.to);
            self.dispatch_ldp(&mut rt, sends);
            self.process_ldp_events(&mut rt, events);
            self.reprogram_ldp_dirty(&mut rt);
        } else {
            rt.pdus_delivered += 1;
            let (sends, events) =
                rt.fabric
                    .deliver(self.now, inflight.from, inflight.to, &inflight.pdu);
            self.dispatch_ldp(&mut rt, sends);
            self.process_ldp_events(&mut rt, events);
            self.reprogram_ldp_dirty(&mut rt);
        }
        self.ldp_settle_check(&mut rt);
        self.ldp = Some(rt);
    }

    /// Called from `on_link_down`: snapshot what was routable so the
    /// settle check can tell when reconvergence has covered it again.
    pub(super) fn ldp_note_link_down(&mut self, rec: usize) {
        if let Some(rt) = &mut self.ldp {
            rt.pending_restore.push(PendingRestore {
                rec,
                snapshot: rt.fabric.routed_pairs(),
                missing: BTreeSet::new(),
            });
        }
    }

    /// Transmits the fabric's outgoing PDUs: serialization at link
    /// bandwidth, FIFO per channel, propagation delay, lost outright on
    /// a dark or partitioned channel. An active [`PduChaos`] window on
    /// the link may additionally drop, duplicate, delay (reorder) or
    /// corrupt each PDU, drawn from the channel's chaos stream.
    fn dispatch_ldp(&mut self, rt: &mut LdpRuntime, sends: Vec<LdpSend>) {
        for s in sends {
            let Some(&chan) = self.chan_index.get(&(s.from, s.to)) else {
                continue;
            };
            rt.pdus_sent += 1;
            let st = self.chan_state[chan];
            if !st.up || self.partitioned.contains(&self.chan_link[chan]) {
                rt.pdus_lost += 1;
                continue;
            }
            // Fixed draw order per PDU inside a window keeps the stream
            // aligned regardless of which effects fire.
            let mut copies = 1usize;
            let mut extra_ns = 0u64;
            let mut corrupted = false;
            if let Some(cz) = rt.chaos_at(self.chan_link[chan], self.now) {
                let lost = rt.chaos_roll(chan) < cz.loss;
                if rt.chaos_roll(chan) < cz.duplicate {
                    copies = 2;
                }
                let reordered = rt.chaos_roll(chan) < cz.reorder;
                corrupted = rt.chaos_roll(chan) < cz.corrupt;
                if lost {
                    rt.pdus_lost += 1;
                    continue;
                }
                if reordered {
                    // Held back long enough to overtake anything sent in
                    // the next few ticks — the FIFO promise is broken.
                    extra_ns = 2 * rt.tick_ns + (rt.chaos_roll(chan) * rt.tick_ns as f64) as u64;
                }
            }
            let c = self.chan(chan);
            let delay_ns = c.delay_ns;
            let ser = c.serialization_ns(s.pdu.wire_len());
            for _ in 0..copies {
                // A duplicate pays the wire twice: it is a real second
                // transmission, not a free copy.
                let start = self.now.max(rt.chan_busy[chan]);
                let deliver = start + ser + delay_ns + extra_ns;
                rt.chan_busy[chan] = start + ser;
                let protocol = s.pdu.message.is_protocol_work();
                if protocol {
                    rt.live_protocol += 1;
                }
                let msg = InFlightPdu {
                    from: s.from,
                    to: s.to,
                    chan,
                    gen: st.gen,
                    pdu: s.pdu.clone(),
                    protocol,
                    corrupted,
                };
                self.globals
                    .schedule(deliver, ControlEvent::LdpDeliver { msg });
            }
        }
    }

    /// Session transitions: telemetry events, and a hold-timer expiry
    /// on a physically dead link is this control plane's *detection* of
    /// the fault.
    fn process_ldp_events(&mut self, _rt: &mut LdpRuntime, events: Vec<LdpEvent>) {
        for ev in events {
            match ev {
                LdpEvent::SessionUp { at, peer, link } => {
                    self.trace("ldp_session_up", || format!("{at}-{peer} link{link}"));
                }
                LdpEvent::SessionDown { at, peer, link } => {
                    self.trace("ldp_session_down", || format!("{at}-{peer} link{link}"));
                    let [a, _] = self.channels_of(link);
                    if self.chan(a).up {
                        continue; // lossy-wire expiry, not an outage
                    }
                    if let Some(&rec) = self.fault_of_link.get(&link) {
                        if self.records[rec].detected_ns.is_none() {
                            self.records[rec].detected_ns = Some(self.now);
                            self.trace("fault_detected", || format!("link{link}"));
                        }
                    }
                }
            }
        }
    }

    /// Downloads fresh forwarding state into every node whose
    /// FIB-relevant protocol state changed, and folds the route changes
    /// into the pending outages. Runs after every fabric call, so the
    /// log is empty whenever a cut takes its snapshot.
    pub(super) fn reprogram_ldp_dirty(&mut self, rt: &mut LdpRuntime) {
        for id in rt.fabric.take_dirty() {
            let cfg = rt.fabric.config_for(id);
            for sh in &mut self.shards {
                if let Some(&l) = sh.node_local.get(&id) {
                    sh.nodes[l].reprogram(&cfg);
                }
            }
        }
        rt.track_route_changes();
    }

    /// A settled instant: no session/label message is in flight, so no
    /// further FIB change can occur without new stimulus (a timer
    /// expiry or a link event). Convergence and reconvergence times
    /// read the fabric's last-FIB-change clock here.
    fn ldp_settle_check(&mut self, rt: &mut LdpRuntime) {
        if rt.live_protocol > 0 {
            return;
        }
        let settled_at = rt.fabric.last_fib_change_ns();
        if self.records.is_empty() {
            // Still fault-free: the protocol's own bring-up. Overwritten
            // at every settled instant until the first fault freezes it.
            rt.convergence_ns = Some(settled_at);
        }
        if rt.pending_restore.is_empty() {
            return;
        }
        #[cfg(debug_assertions)]
        rt.assert_missing_sets();
        let mut restored: Vec<(usize, SimTime)> = Vec::new();
        rt.pending_restore.retain(|p| {
            let r = &self.records[p.rec];
            if r.restored_ns.is_some() {
                return false; // the link flapped back before detection
            }
            if r.detected_ns.is_none() {
                return true; // sessions still running on borrowed time
            }
            if p.missing.is_empty() {
                restored.push((p.rec, settled_at.max(r.down_ns)));
                return false;
            }
            true
        });
        for (rec, t) in restored {
            self.records[rec].restored_ns = Some(t);
            self.trace_restored(rec, t);
        }
    }

    /// Builds the report's control-plane summary and (in ldp mode) the
    /// converged per-node FIBs, and exports the protocol's telemetry:
    /// the bring-up convergence span, per-node session/label counters
    /// and the reconvergence histogram.
    pub(super) fn finish_control(
        &mut self,
    ) -> (ControlSummary, Option<BTreeMap<NodeId, NodeConfig>>) {
        if self.sr.is_some() {
            return self.finish_sr();
        }
        let Some(rt) = &self.ldp else {
            return (ControlSummary::default(), None);
        };
        let stats = rt.fabric.stats();
        let summary = ControlSummary {
            mode: crate::sim::ControlMode::Ldp,
            convergence_ns: rt.convergence_ns,
            sessions_established: stats.sessions_established,
            session_downs: stats.session_downs,
            pdus_sent: rt.pdus_sent,
            pdus_delivered: rt.pdus_delivered,
            pdus_lost: rt.pdus_lost,
            loop_rejections: stats.loop_rejections,
            session_retries: stats.session_retries,
            sequence_violations: stats.sequence_violations,
            malformed_pdus: stats.malformed_pdus,
            last_fib_change_ns: rt.fabric.last_fib_change_ns(),
        };
        let fibs: BTreeMap<NodeId, NodeConfig> = rt
            .fabric
            .node_ids()
            .into_iter()
            .map(|id| (id, rt.fabric.config_for(id)))
            .collect();
        if let Some(tel) = &mut self.telemetry {
            if let Some(t) = rt.convergence_ns {
                let span = tel.tracer().span_begin(0, "ldp.convergence");
                tel.tracer().span_end(t, span);
            }
            let hist = tel.histogram("ldp.reconverge_ns", octave_bounds());
            for r in &self.records {
                if let Some(ttr) = r.time_to_restore_ns() {
                    tel.hist_record(hist, ttr);
                }
            }
            for (id, s) in rt.fabric.node_stats() {
                for (name, value) in [
                    ("pdus_rx", s.pdus_rx),
                    ("mappings_rx", s.mappings_rx),
                    ("withdraws_rx", s.withdraws_rx),
                    ("releases_rx", s.releases_rx),
                    ("loop_rejections", s.loop_rejections),
                    ("session_ups", s.session_ups),
                    ("session_downs", s.session_downs),
                    ("session_retries", s.session_retries),
                    ("sequence_violations", s.sequence_violations),
                    ("malformed_pdus", s.malformed_pdus),
                ] {
                    super::count(tel, format!("node{id}.ldp.{name}"), value);
                }
            }
        }
        (summary, Some(fibs))
    }
}

//! The sharded discrete-event engine.
//!
//! The topology is partitioned into shards (see [`partition`]). The
//! coordinator and every shard each keep their pending events in an
//! [`EventQueue`], the one event store the engine has. The coordinator
//! alternates between two modes:
//!
//! * **Global events** ([`ControlEvent`]) — faults, recovery and
//!   telemetry samples — run on the coordinator thread with exclusive
//!   access to everything, in `(time, rank, insertion)` order.
//! * **Epochs** — between globals, shards execute their local events in
//!   parallel up to a conservative barrier
//!   `end = min(next_global, earliest_local + lookahead, horizon + 1)`,
//!   where `lookahead` is the minimum cross-shard propagation delay. An
//!   event at time `u >= earliest_local` can reach another shard no
//!   earlier than `u + lookahead >= end`, so nothing a shard does in an
//!   epoch can affect another shard *within* that epoch; cross-shard
//!   arrivals are exchanged at the barrier.
//!
//! At equal timestamps, globals run before locals — a fixed rule that
//! holds at every shard count. Combined with the canonical per-shard
//! event ordering (see [`shard`]) and sharding-invariant RNG streams
//! (per-flow gap RNGs, per-channel loss RNGs), a run's [`SimReport`]
//! and telemetry export are byte-identical for any `--shards` value.

mod ldp;
mod partition;
mod shard;
mod sr;

pub(crate) use ldp::{InFlightPdu, LdpRuntime};
pub(crate) use sr::SrRuntime;

use crate::event::{ControlEvent, ControlQueue, EventQueue, EventRank, SimTime};
use crate::fault::{FaultRecord, RecoveryMode, RestorationPolicy};
use crate::link::Channel;
use crate::sim::{ControlSummary, FlowTemplate, LinkUsage, SimInstruments, SimReport, Simulation};
use crate::stats::{FlowId, FlowStats};
use crate::traffic::{FlowSpec, TrafficPattern};
use mpls_control::{ControlPlane, LinkId, LspRequest, NodeConfig, NodeId};
use mpls_router::DiscardCause;
use mpls_telemetry::Registry;
use partition::partition;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shard::{ChanState, ClosedLoopState, EmitState, FlowDelta, LocalEvent, ShardState, SharedCtx};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};

/// The run's control plane: which routing program writes the routers'
/// label pairs, holding that program's state. A run has exactly one,
/// chosen before it starts. The centralized solver's state is the run's
/// own [`ControlPlane`], which every run keeps.
pub(crate) enum Control {
    /// The centralized solver, which programs every node before t=0.
    Centralized,
    /// In-band label distribution (see [`ldp`]).
    Ldp(LdpRuntime),
    /// Compiled segment-routing source routes (see [`sr`]).
    Sr(SrRuntime),
}

/// The link channel `g` belongs to: [`Simulation::build`] gives link `k`
/// channel `2k` from its `a` end and `2k + 1` from its `b` end.
pub(crate) fn link_of(g: usize) -> LinkId {
    (g / 2) as LinkId
}

/// The two channels of `link`, one per direction.
pub(crate) fn channels_of(link: LinkId) -> [usize; 2] {
    let g = 2 * link as usize;
    [g, g + 1]
}

/// The shard coordination scheme. There is one: the global epoch
/// barrier, where every shard advances to the same conservative bound
/// `min(next_global, earliest_local + lookahead, horizon + 1)` and
/// `lookahead` is the minimum cross-shard channel delay.
///
/// A one-variant enum is kept, together with [`EngineStats::kind`],
/// only because the standalone benchmark package under `perfbench/`
/// prints `report.engine.kind.name()` and must keep building unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The global epoch barrier.
    #[default]
    Barrier,
}

impl EngineKind {
    /// The canonical spelling, as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Barrier => "barrier",
        }
    }
}

/// How the engine executed a run: shard count, barrier statistics and
/// per-shard event counts. Not serialized — the simulation outcome is
/// identical at any shard count, so this is operational metadata only.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Coordination scheme the run used (always the epoch barrier).
    pub kind: EngineKind,
    /// Shards the run actually used (after degenerate fallbacks).
    pub shards: usize,
    /// Conservative lookahead: the minimum cross-shard channel delay
    /// that bounds every epoch. `None` when no channel crossed shards.
    pub lookahead_ns: Option<u64>,
    /// Parallel rounds (epochs) executed.
    pub epochs: u64,
    /// Coordinator (control) events executed.
    pub global_events: u64,
    /// Packet-level events executed, per shard.
    pub shard_events: Vec<u64>,
    /// Router rebuilds from a [`NodeConfig`] during the run, by any
    /// control plane: each one replaces a router's tables and empties its
    /// flow cache. Programming before the run is not counted.
    pub fib_downloads: u64,
    /// How often the run met the channel edges its departure timetables
    /// must get right.
    pub edges: ChannelEdges,
}

/// Counts of the channel edges a run met: the moments where committing
/// packets at admission, instead of completing each one with an event,
/// must still give the reports a completion per packet would. Operational
/// metadata, like the rest of [`EngineStats`]: tests read it to show what
/// a run exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelEdges {
    /// Channel cuts that caught a packet serializing.
    pub cut_serializing: u64,
    /// Channel cuts that also caught packets queued behind it.
    pub cut_queued: u64,
    /// Cuts of a lossy channel that caught packets whose wire-loss
    /// draws it then took back.
    pub cut_loss_rolls: u64,
    /// Channels still serializing when the run stopped.
    pub stopped_busy: u64,
    /// Channel readings a telemetry sample took at the instant a packet
    /// ended serializing.
    pub samples_at_end: u64,
}

impl EngineStats {
    /// Total events executed across the coordinator and every shard.
    pub fn total_events(&self) -> u64 {
        self.global_events + self.shard_events.iter().sum::<u64>()
    }
}

/// Mixes a (run seed, stream class, index) triple into an independent
/// RNG seed — splitmix64 finalization over the combined words. Stream
/// assignment depends only on stable ids, never on shard layout.
pub(crate) fn stream_seed(seed: u64, stream: u64, idx: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ idx.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Registers counter `name` on `tel` and adds `value` to it.
fn count(tel: &mut Registry, name: String, value: u64) {
    let id = tel.counter(name);
    tel.counter_add(id, value);
}

/// A head-end re-signaling attempt in progress (make-before-break: the
/// broken LSP keeps steering — and losing — traffic until the
/// replacement is up, then is torn down).
struct PendingResignal {
    /// Index into `Engine::records`.
    record: usize,
    /// The broken LSP, torn down once the replacement is established.
    old_lsp: mpls_control::LspId,
    /// The broken LSP's original request (explicit route dropped —
    /// restoration outranks pinning).
    request: LspRequest,
    /// Attempts completed so far.
    attempt: u32,
    /// Set once the LSP is re-established (or retries are exhausted).
    done: bool,
}

/// The coordinator: owns the shards, the global event queue, the
/// control plane and all fault/telemetry state.
pub(crate) struct Engine {
    shards: Vec<ShardState>,
    globals: ControlQueue,
    flows: Vec<FlowSpec>,
    /// Interned per-flow packet constants, parallel to `flows`.
    templates: Vec<FlowTemplate>,
    /// Node id -> `(shard, local index)` of its router, for the
    /// coordinator's per-node calls. The run loop finds routers through
    /// the dense tables in [`SharedCtx`] instead.
    node_home: HashMap<NodeId, (usize, usize)>,
    /// `(owning shard, local index)` per global channel index.
    chan_owner: Vec<(usize, usize)>,
    /// Shard of each channel's receiving node.
    chan_dest_shard: Vec<usize>,
    /// Local index of each channel's receiving router on that shard.
    chan_dest_local: Vec<usize>,
    /// Liveness snapshot shards read; refreshed after channel mutations.
    chan_state: Vec<ChanState>,
    lookahead: SimTime,
    /// Shard owning each flow's ingress node (ack destination).
    flow_shard: Vec<usize>,
    /// Local index of each flow's ingress router on that shard.
    flow_ingress_local: Vec<usize>,
    /// Each flow's index into its ingress shard's `emit` table.
    flow_emit: Vec<usize>,
    /// Per closed-loop ingress: static shortest-path delay from every
    /// node that can reach it back to the ingress (see
    /// [`Engine::ack_distances`]). Empty when no flow is closed-loop.
    ack_dist: HashMap<NodeId, HashMap<NodeId, SimTime>>,
    now: SimTime,
    cp: ControlPlane,
    policy: RestorationPolicy,
    records: Vec<FaultRecord>,
    /// Per-record count of broken LSPs still awaiting recovery.
    outstanding: Vec<usize>,
    /// Most recent fault record per link (kept after the link returns so
    /// straggler losses still attribute to the right outage).
    fault_of_link: HashMap<LinkId, usize>,
    pending: Vec<PendingResignal>,
    /// The run's control plane.
    control: Control,
    /// Nodes whose routers await a download from `control` (see
    /// [`Engine::flush_downloads`]).
    pending_downloads: BTreeSet<NodeId>,
    /// Nodes currently crashed: incident links stay down and stray
    /// `LinkUp` events cannot revive their ports.
    dead_nodes: HashSet<NodeId>,
    /// Links with an active control-channel partition: control PDUs
    /// drop (counted lost) while data traffic keeps flowing.
    partitioned: HashSet<LinkId>,
    /// Present on a telemetry run.
    telemetry: Option<Registry>,
    instr: SimInstruments,
    epochs: u64,
    global_events: u64,
    fib_downloads: u64,
    /// The run's horizon: completions at or before it happened.
    horizon: SimTime,
    edges: ChannelEdges,
}

impl Engine {
    /// Partitions `sim` into shards. The shard count resolves as
    /// [`Simulation::set_shards`], else the `MPLS_SIM_SHARDS` environment
    /// variable, else 1.
    pub fn new(sim: Simulation) -> Self {
        let Simulation {
            channels,
            nodes,
            cp,
            flows,
            policers,
            globals,
            seed,
            policy,
            telemetry,
            instr,
            requested_shards,
            shard_hints,
            mut control,
            pdu_chaos,
        } = sim;
        let requested = requested_shards
            .or_else(|| {
                std::env::var("MPLS_SIM_SHARDS")
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(1);
        let nflows = flows.len();
        let nchans = channels.len();
        let node_ids: Vec<NodeId> = nodes.iter().map(|n| n.node_id()).collect();
        let part = partition(&node_ids, requested, &shard_hints, &channels);
        let mut shards: Vec<ShardState> = (0..part.shards)
            .map(|id| ShardState {
                id,
                queue: EventQueue::new(),
                nodes: Vec::new(),
                ports: Vec::new(),
                channels: Vec::new(),
                emit: Vec::new(),
                stats: vec![FlowStats::default(); nflows],
                outbox: Vec::new(),
                foreign_fault_drops: vec![0; nchans],
                record_loss: HashMap::new(),
                // Shards buffer the per-flow histograms of a telemetry run.
                deltas: if telemetry.is_some() {
                    (0..nflows).map(|_| FlowDelta::new()).collect()
                } else {
                    Vec::new()
                },
                events_processed: 0,
                last_time: 0,
            })
            .collect();
        let mut node_home = HashMap::with_capacity(nodes.len());
        for node in nodes {
            let s = part.shard_of_node[&node.node_id()];
            let sh = &mut shards[s];
            node_home.insert(node.node_id(), (s, sh.nodes.len()));
            sh.nodes.push(node);
            sh.ports.push(Vec::new());
        }
        let ack_dist = Self::ack_distances(&flows, &channels);
        let flow_shard: Vec<usize> = flows
            .iter()
            .map(|spec| part.shard_of_node[&spec.ingress])
            .collect();
        let mut chan_owner = Vec::with_capacity(nchans);
        let mut chan_dest_shard = Vec::with_capacity(nchans);
        let mut chan_dest_local = Vec::with_capacity(nchans);
        let mut chan_state = Vec::with_capacity(nchans);
        for (g, c) in channels.into_iter().enumerate() {
            let (owner, from_local) = node_home[&c.from];
            shards[owner].ports[from_local].push((c.to, g));
            let (dest, dest_local) = node_home[&c.to];
            chan_dest_shard.push(dest);
            chan_dest_local.push(dest_local);
            chan_state.push(ChanState {
                up: c.up,
                gen: c.gen,
            });
            let sh = &mut shards[owner];
            chan_owner.push((owner, sh.channels.len()));
            sh.channels.push(c);
        }
        // The run loop's next-hop lookup: each router's ports, sorted by
        // neighbor, one per neighbor (a topology has no parallel links).
        for sh in &mut shards {
            for ports in &mut sh.ports {
                ports.sort_unstable();
            }
        }
        let mut flow_ingress_local = Vec::with_capacity(nflows);
        let mut flow_emit = Vec::with_capacity(nflows);
        for (f, (spec, policer)) in flows.iter().zip(policers).enumerate() {
            let (s, li) = node_home[&spec.ingress];
            let sh = &mut shards[s];
            flow_ingress_local.push(li);
            flow_emit.push(sh.emit.len());
            let cl = match spec.pattern {
                TrafficPattern::ClosedLoop(ref c) => Some(ClosedLoopState::new(c)),
                _ => None,
            };
            sh.emit.push(EmitState {
                rng: StdRng::seed_from_u64(stream_seed(seed, 1, f as u64)),
                policer,
                cl,
            });
            // Open-loop sources start emitting immediately; closed-loop
            // sources start their transfer-arrival process instead and
            // only emit once a transfer is in service.
            let ev = if matches!(spec.pattern, TrafficPattern::ClosedLoop(_)) {
                LocalEvent::XferArrive { flow: f }
            } else {
                LocalEvent::SourceEmit { flow: f }
            };
            sh.queue.schedule(spec.start_ns, ev);
        }
        if let Control::Ldp(rt) = &mut control {
            rt.chaos = pdu_chaos;
        }
        let templates = flows.iter().map(FlowTemplate::of).collect();
        Self {
            shards,
            globals,
            flows,
            templates,
            node_home,
            chan_owner,
            chan_dest_shard,
            chan_dest_local,
            chan_state,
            lookahead: part.lookahead,
            flow_shard,
            flow_ingress_local,
            flow_emit,
            ack_dist,
            now: 0,
            cp,
            policy,
            records: Vec::new(),
            outstanding: Vec::new(),
            fault_of_link: HashMap::new(),
            pending: Vec::new(),
            control,
            pending_downloads: BTreeSet::new(),
            dead_nodes: HashSet::new(),
            partitioned: HashSet::new(),
            telemetry,
            instr,
            epochs: 0,
            global_events: 0,
            fib_downloads: 0,
            horizon: SimTime::MAX,
            edges: ChannelEdges::default(),
        }
    }

    /// Static reverse-path delays for closed-loop acks: for each
    /// distinct closed-loop ingress, the shortest-path delay (by summed
    /// `delay_ns` over the full, fault-free channel graph) from every
    /// node that can reach it. One Dijkstra per ingress, over reversed
    /// edges.
    ///
    /// Causal safety of `ack at = delivery + dist`: when the delivering
    /// node and the ingress sit on different shards, the shortest node
    /// path between them crosses at least one cross-shard channel, so
    /// `dist` is at least the epoch `lookahead`. An ack delivered at
    /// `u >= earliest_local` therefore lands at or after the epoch's
    /// end and rides the ordinary outbox exchange.
    fn ack_distances(
        flows: &[FlowSpec],
        channels: &[Channel],
    ) -> HashMap<NodeId, HashMap<NodeId, SimTime>> {
        let ingresses: HashSet<NodeId> = flows
            .iter()
            .filter(|s| matches!(s.pattern, TrafficPattern::ClosedLoop(_)))
            .map(|s| s.ingress)
            .collect();
        let mut out = HashMap::new();
        if ingresses.is_empty() {
            return out;
        }
        // Reverse adjacency: a forward channel `from -> to` lets an ack
        // retrace `to -> from`.
        let mut radj: HashMap<NodeId, Vec<(NodeId, SimTime)>> = HashMap::new();
        for c in channels {
            radj.entry(c.to).or_default().push((c.from, c.delay_ns));
        }
        for &ing in &ingresses {
            let mut dist: HashMap<NodeId, SimTime> = HashMap::new();
            let mut heap = BinaryHeap::new();
            dist.insert(ing, 0);
            heap.push(Reverse((0u64, ing)));
            while let Some(Reverse((d, n))) = heap.pop() {
                if dist.get(&n) != Some(&d) {
                    continue;
                }
                if let Some(edges) = radj.get(&n) {
                    for &(m, w) in edges {
                        let nd = d.saturating_add(w);
                        if dist.get(&m).is_none_or(|&cur| nd < cur) {
                            dist.insert(m, nd);
                            heap.push(Reverse((nd, m)));
                        }
                    }
                }
            }
            out.insert(ing, dist);
        }
        out
    }

    /// Runs until every queue drains or `horizon_ns` passes, then
    /// merges the shards into a report. Each step either runs the next
    /// global event — globals run before locals at the same instant, at
    /// every shard count — or a round in which every shard advances to
    /// the same conservative bound
    /// `end = min(next_global, earliest_local + lookahead, horizon + 1)`
    /// where `lookahead` is the global minimum cross-shard delay.
    pub fn run(mut self, horizon_ns: SimTime) -> SimReport {
        self.horizon = horizon_ns;
        loop {
            let tg = self.globals.peek_time();
            let tl = self.shards.iter().filter_map(|s| s.queue.peek_time()).min();
            match (tg, tl) {
                (Some(g), _) if tl.is_none_or(|l| g <= l) => {
                    if g > horizon_ns {
                        break;
                    }
                    let (t, ev) = self.globals.pop().expect("peeked");
                    self.now = t;
                    self.global_events += 1;
                    if !ControlQueue::is_ldp(&ev) {
                        self.flush_downloads();
                    }
                    self.handle_global(ev);
                    // The centralized solver and SR download at the
                    // instant their state changes; LDP defers.
                    if !matches!(self.control, Control::Ldp(_)) {
                        self.flush_downloads();
                    }
                }
                (_, Some(l)) => {
                    if l > horizon_ns {
                        break;
                    }
                    let end = tg
                        .unwrap_or(SimTime::MAX)
                        .min(l.saturating_add(self.lookahead))
                        .min(horizon_ns.saturating_add(1));
                    self.flush_downloads();
                    #[cfg(debug_assertions)]
                    self.assert_ldp_downloads();
                    self.run_round(end);
                }
                // Both queues are empty.
                _ => break,
            }
        }
        self.finish()
    }

    /// One conservative round: every shard executes its local events
    /// strictly before `end` (in parallel when there are multiple
    /// shards), then cross-shard arrivals are exchanged at the round
    /// boundary.
    fn run_round(&mut self, end: SimTime) {
        self.epochs += 1;
        let ctx = SharedCtx {
            flows: &self.flows,
            templates: &self.templates,
            chan_state: &self.chan_state,
            chan_owner: &self.chan_owner,
            chan_dest_shard: &self.chan_dest_shard,
            chan_dest_local: &self.chan_dest_local,
            fault_of_link: &self.fault_of_link,
            flow_shard: &self.flow_shard,
            flow_ingress_local: &self.flow_ingress_local,
            flow_emit: &self.flow_emit,
            ack_dist: &self.ack_dist,
        };
        if self.shards.len() == 1 {
            self.shards[0].run_until(end, &ctx);
        } else {
            use rayon::prelude::*;
            self.shards
                .par_iter_mut()
                .for_each(|s| s.run_until(end, &ctx));
        }
        for i in 0..self.shards.len() {
            let outbox = std::mem::take(&mut self.shards[i].outbox);
            for (t, dest, ev) in outbox {
                debug_assert!(
                    matches!(
                        ev,
                        LocalEvent::Arrive { via: Some(_), .. } | LocalEvent::Ack { .. }
                    ),
                    "only wire arrivals and closed-loop acks cross shards"
                );
                self.shards[dest].queue.schedule(t, ev);
            }
        }
        if let Some(t) = self.shards.iter().map(|s| s.last_time).max() {
            self.now = self.now.max(t);
        }
    }

    fn handle_global(&mut self, ev: ControlEvent) {
        match ev {
            ControlEvent::LinkDown { link } => self.on_link_down(link),
            ControlEvent::LinkUp { link } => self.on_link_up(link),
            ControlEvent::FaultDetected { link } => self.on_fault_detected(link),
            ControlEvent::Resignal { pending } => self.on_resignal(pending),
            ControlEvent::HoldDownExpired { link } => self.on_hold_down_expired(link),
            ControlEvent::TeardownLsp { lsp } => self.on_teardown_lsp(lsp),
            ControlEvent::TelemetrySample => self.on_telemetry_sample(),
            ControlEvent::LdpTick => self.on_ldp_tick(),
            ControlEvent::LdpDeliver { msg } => self.on_ldp_deliver(msg),
            ControlEvent::NodeDown { node } => self.on_node_down(node),
            ControlEvent::NodeUp { node } => self.on_node_up(node),
            ControlEvent::NodeReprovision { node } => self.on_node_reprovision(node),
            ControlEvent::PartitionStart { link } => self.on_partition_start(link),
            ControlEvent::PartitionEnd { link } => self.on_partition_end(link),
        }
    }

    // ---- channel plumbing --------------------------------------------------

    fn chan(&self, g: usize) -> &Channel {
        let (s, l) = self.chan_owner[g];
        &self.shards[s].channels[l]
    }

    fn chan_mut(&mut self, g: usize) -> &mut Channel {
        let (s, l) = self.chan_owner[g];
        &mut self.shards[s].channels[l]
    }

    /// Re-freezes a channel's liveness snapshot after mutating it.
    fn refresh_chan_state(&mut self, g: usize) {
        let c = self.chan(g);
        let snap = ChanState {
            up: c.up,
            gen: c.gen,
        };
        self.chan_state[g] = snap;
    }

    // ---- fault machinery ---------------------------------------------------

    /// Marks `rec` restored now (first caller wins), closes its outage
    /// span and emits the restoration event.
    fn set_restored(&mut self, rec: usize) {
        if self.records[rec].restored_ns.is_some() {
            return;
        }
        self.records[rec].restored_ns = Some(self.now);
        self.trace_restored(rec, self.now);
    }

    /// Counts one packet lost to `link`'s outage against its flow and
    /// the link's current fault record. (Coordinator-side flow losses
    /// land in shard 0's stats table and merge with the rest.)
    fn count_fault_loss(&mut self, link: LinkId, flow: FlowId) {
        // A deliberately planted accounting bug for the chaos harness to
        // catch: losses on odd-numbered links vanish from the per-flow
        // stats, breaking packet conservation. Never enabled in normal
        // builds — it exists to prove the oracles and minimizer fire.
        #[cfg(feature = "chaos-bug")]
        if link % 2 == 1 {
            return;
        }
        self.shards[0].stats[flow].on_discarded(DiscardCause::LinkDown);
        if let Some(&rec) = self.fault_of_link.get(&link) {
            self.records[rec].packets_lost += 1;
        }
    }

    /// Replaces `node`'s forwarding state with `cfg`, counted in
    /// [`EngineStats::fib_downloads`]. Statistics survive; stale
    /// flow-cache entries do not. Only [`Self::flush_downloads`] and a
    /// crash's wipe call it.
    fn download(&mut self, node: NodeId, cfg: &NodeConfig) {
        let (s, l) = self.node_home[&node];
        self.shards[s].nodes[l].reprogram(cfg);
        self.fib_downloads += 1;
        #[cfg(debug_assertions)]
        if let Control::Ldp(rt) = &mut self.control {
            rt.downloaded.insert(node, cfg.clone());
        }
    }

    /// Downloads every pending node's forwarding state, rendered from the
    /// control plane now: the one way a control plane reaches the routers
    /// during a run. Four sources feed the pending set: the LDP fabric's
    /// dirty nodes, the SR fabric's, every router after the centralized
    /// solver changes state, and a reprovisioned node. Crashed nodes are
    /// skipped under every plane: their FIBs stay cold until they restart
    /// and relearn or reprovision. It runs before every shard round,
    /// before every coordinator event other than LDP's own, after every
    /// coordinator event of a centralized or SR run, and at the report
    /// fold (DESIGN.md, "Downloads").
    fn flush_downloads(&mut self) {
        let mut nodes = std::mem::take(&mut self.pending_downloads);
        match &mut self.control {
            Control::Centralized => {}
            Control::Ldp(rt) => nodes.extend(rt.fabric.take_dirty()),
            Control::Sr(rt) => {
                let dirty = rt.fabric.take_dirty();
                if dirty.iter().any(|id| !self.dead_nodes.contains(id)) {
                    rt.last_fib_change_ns = rt.last_fib_change_ns.max(self.now);
                }
                nodes.extend(dirty);
            }
        }
        for id in nodes {
            if self.dead_nodes.contains(&id) {
                continue;
            }
            let cfg = match &self.control {
                Control::Centralized => self.cp.config_for(id),
                Control::Ldp(rt) => rt.fabric.config_for(id),
                Control::Sr(rt) => rt.fabric.config_for(id),
            };
            self.download(id, &cfg);
        }
    }

    /// Marks every router pending after the centralized solver changed
    /// state: a failover, a re-signal or a husk teardown.
    fn download_every_router(&mut self) {
        self.pending_downloads
            .extend(self.node_home.keys().copied());
    }

    /// How long a retired LSP's transit state must outlive the
    /// switchover so packets already in its pipeline either deliver or
    /// hit the dead link (and are counted there): twice the path's
    /// propagation plus a queueing allowance.
    fn drain_grace_ns(&self, lsp: mpls_control::LspId) -> u64 {
        let Some(l) = self.cp.lsp(lsp) else {
            return 0;
        };
        let topo = self.cp.topology();
        let prop: u64 = topo
            .path_links(&l.path)
            .map(|links| {
                links
                    .iter()
                    .filter_map(|&k| topo.link(k).map(|s| s.delay_ns))
                    .sum()
            })
            .unwrap_or(0);
        2 * prop + 1_000_000
    }

    fn on_teardown_lsp(&mut self, lsp: mpls_control::LspId) {
        // The husk may already be gone (a later fault's standby sweep).
        if self.cp.lsp(lsp).is_some() {
            let _ = self.cp.teardown_lsp(lsp);
            self.download_every_router();
        }
    }

    fn on_link_down(&mut self, link: LinkId) {
        let [a, b] = channels_of(link);
        if !self.chan(a).up {
            return; // already down (overlapping schedules)
        }
        let rec = self.records.len();
        let (mode, detect) = match &mut self.control {
            Control::Centralized => (self.policy.mode, self.policy.mode != RecoveryMode::None),
            // Distributed mode: detection is the session hold-timer, and
            // recovery is the protocol's own withdraw/remap cascade.
            Control::Ldp(rt) => {
                rt.note_link_down(rec);
                (RecoveryMode::Ldp, false)
            }
            // SR detects every cut after the detection delay, whatever
            // the plan's recovery says, and recompiles.
            Control::Sr(_) => (RecoveryMode::Sr, true),
        };
        self.records.push(FaultRecord {
            link,
            down_ns: self.now,
            detected_ns: None,
            restored_ns: None,
            link_up_ns: None,
            packets_lost: 0,
            mode,
        });
        self.outstanding.push(0);
        self.fault_of_link.insert(link, rec);
        if let Some(tel) = &mut self.telemetry {
            let tracer = tel.tracer();
            tracer.event(self.now, "link_down", format!("link{link}"));
            let span = tracer.span_begin(self.now, &format!("outage.link{link}"));
            self.instr.fault_spans.insert(rec, span);
        }
        // Cut both directions: queued and in-flight packets are lost now.
        for chan in [a, b] {
            self.cut_channel(chan, link);
        }
        if detect {
            self.globals.schedule(
                self.now + self.policy.detection_delay_ns,
                ControlEvent::FaultDetected { link },
            );
        }
    }

    /// Cuts channel `chan` of `link` now. The packets it had committed
    /// or queued that had not finished serializing are lost here, counted
    /// against the link's new fault record, and their pending events
    /// are cancelled: the arrivals due at or after `now + delay` (the
    /// earlier ones left the wire before the cut and are caught at
    /// delivery by the generation check) and the completions. The packet
    /// caught serializing keeps one completion, stale, at its end.
    fn cut_channel(&mut self, chan: usize, link: LinkId) {
        let now = self.now;
        let c = self.chan(chan);
        let (old_gen, lossy, cutoff) = (c.gen, c.loss_prob > 0.0, now + c.delay_ns);
        let cut = self.chan_mut(chan).take_down(now);
        self.refresh_chan_state(chan);
        let Some(end) = cut.stale_done else {
            return;
        };
        // A completion's rank names its channel and incarnation.
        let stale = LocalEvent::TransmitDone {
            channel: chan,
            gen: old_gen,
        };
        let done = stale.rank();
        let owner = &mut self.shards[self.chan_owner[chan].0].queue;
        owner.cancel(|_, ev| ev.rank() == done);
        owner.schedule(end, stale);
        let via = Some((chan, old_gen));
        self.shards[self.chan_dest_shard[chan]]
            .queue
            .cancel(|t, ev| {
                t >= cutoff && matches!(ev, LocalEvent::Arrive { via: v, .. } if *v == via)
            });
        self.edges.cut_serializing += 1;
        self.edges.cut_queued += u64::from(cut.lost.len() > 1);
        self.edges.cut_loss_rolls += u64::from(lossy);
        for flow in cut.lost {
            self.count_fault_loss(link, flow);
        }
    }

    fn on_link_up(&mut self, link: LinkId) {
        let [a, b] = channels_of(link);
        if self.chan(a).up {
            return; // already up
        }
        {
            // A link cannot return while either endpoint is crashed; the
            // node's own restart brings its ports back.
            let c = self.chan(a);
            if self.dead_nodes.contains(&c.from) || self.dead_nodes.contains(&c.to) {
                return;
            }
        }
        for chan in [a, b] {
            self.chan_mut(chan).bring_up();
            self.refresh_chan_state(chan);
        }
        self.trace("link_up", || format!("link{link}"));
        let Some(&rec) = self.fault_of_link.get(&link) else {
            return;
        };
        self.records[rec].link_up_ns = Some(self.now);
        if self.records[rec].detected_ns.is_none() {
            // The control plane never reacted (flap shorter than the
            // detection delay, or no recovery configured): the stale
            // forwarding state simply works again.
            self.set_restored(rec);
        } else if !matches!(self.control, Control::Ldp(_)) {
            // Detection fired, so the control plane has the link marked
            // failed; hold it down before reusing it. (In ldp mode the
            // link returns to service by session re-formation instead.)
            self.globals.schedule(
                self.now + self.policy.hold_down_ns,
                ControlEvent::HoldDownExpired { link },
            );
        }
    }

    fn on_fault_detected(&mut self, link: LinkId) {
        let [a, _] = channels_of(link);
        if self.chan(a).up {
            return; // the flap cleared before anyone noticed
        }
        let Some(&rec) = self.fault_of_link.get(&link) else {
            return;
        };
        if self.records[rec].detected_ns.is_some() {
            return; // a probe from an earlier outage already reported it
        }
        self.records[rec].detected_ns = Some(self.now);
        self.trace("fault_detected", || format!("link{link}"));
        match &mut self.control {
            Control::Centralized => {}
            // Segment routing: recompile the source routes around the
            // cut. The record is restored in the same instant: the
            // ingress stacks are the only per-path state, and the
            // recompile rewrote them (downloaded as this event ends).
            Control::Sr(rt) => {
                rt.fabric.fail_link(link);
                self.set_restored(rec);
                return;
            }
            // Hold-timer expiry is LDP's detection; it schedules none.
            Control::Ldp(_) => return,
        }
        let affected = self.cp.fail_link(link);
        let mut changed = false;
        for id in affected {
            if self.cp.lsp_is_standby(id) {
                // A broken standby protects nothing; release it.
                let _ = self.cp.teardown_standby(id);
                changed = true;
                continue;
            }
            // Protection: fail over onto a pre-signaled disjoint backup —
            // service is back one detection delay after the cut. The
            // broken primary becomes a husk whose transit state drains
            // the pipeline, then is garbage-collected.
            if self.policy.mode == RecoveryMode::Protection {
                if let Some(backup) = self.cp.backup_of(id) {
                    if self.cp.lsp_is_intact(backup) {
                        let grace = self.drain_grace_ns(id);
                        self.cp.activate_backup(id);
                        self.globals
                            .schedule(self.now + grace, ControlEvent::TeardownLsp { lsp: id });
                        changed = true;
                        continue;
                    }
                }
            }
            // Restoration (or protection without a viable backup):
            // re-signal around the failure; the first attempt completes
            // one signaling latency from now. The broken LSP keeps
            // steering — and losing — traffic until then
            // (make-before-break), so outage loss stays attributed to
            // the dead link.
            let request = self
                .cp
                .lsp(id)
                .expect("fail_link reported a live LSP")
                .request
                .clone();
            self.outstanding[rec] += 1;
            let idx = self.pending.len();
            self.pending.push(PendingResignal {
                record: rec,
                old_lsp: id,
                request,
                attempt: 0,
                done: false,
            });
            self.globals.schedule(
                self.now + self.policy.resignal_delay_ns,
                ControlEvent::Resignal { pending: idx },
            );
        }
        if self.outstanding[rec] == 0 {
            // Nothing is waiting on re-signaling: every broken LSP failed
            // over (or none existed) — service restored at detection.
            self.set_restored(rec);
        }
        if changed {
            self.download_every_router();
        }
    }

    fn on_resignal(&mut self, pending: usize) {
        let (rec, old_lsp, attempt, request) = {
            let p = &self.pending[pending];
            if p.done {
                return;
            }
            (p.record, p.old_lsp, p.attempt, p.request.clone())
        };
        let mut request = request;
        request.explicit_route = None;
        match self.cp.establish_lsp(request) {
            Ok(_) => {
                // Break only after the make: the replacement is up; the
                // broken original retires to a husk (transit state keeps
                // draining the pipeline into the dead link, where loss is
                // counted) and is garbage-collected after the grace.
                let grace = self.drain_grace_ns(old_lsp);
                let _ = self.cp.retire_lsp(old_lsp);
                self.globals
                    .schedule(self.now + grace, ControlEvent::TeardownLsp { lsp: old_lsp });
                self.pending[pending].done = true;
                self.outstanding[rec] -= 1;
                if self.outstanding[rec] == 0 {
                    self.set_restored(rec);
                }
                self.download_every_router();
            }
            Err(_) => {
                let next_attempt = attempt + 1;
                if next_attempt > self.policy.max_retries {
                    // Gave up: the record stays unrestored.
                    self.pending[pending].done = true;
                    return;
                }
                self.pending[pending].attempt = next_attempt;
                let backoff = self.policy.resignal_delay_ns.saturating_mul(
                    (self.policy.backoff_factor.max(1) as u64).saturating_pow(next_attempt),
                );
                self.globals
                    .schedule(self.now + backoff, ControlEvent::Resignal { pending });
            }
        }
    }

    fn on_hold_down_expired(&mut self, link: LinkId) {
        let [a, _] = channels_of(link);
        if !self.chan(a).up {
            return; // failed again before the hold-down expired
        }
        match &mut self.control {
            Control::Centralized => self.cp.restore_link(link),
            // Recompile with the link usable again.
            Control::Sr(rt) => {
                rt.fabric.restore_link(link);
            }
            // LDP re-forms sessions instead; it holds nothing down.
            Control::Ldp(_) => {}
        }
    }

    // ---- node crash / restart ----------------------------------------------

    /// Links incident to `node`, in ascending id (the order their fault
    /// records are created in): the links of the node's ports.
    fn links_of_node(&self, node: NodeId) -> Vec<LinkId> {
        let (s, li) = self.node_home[&node];
        let mut links: Vec<LinkId> = self.shards[s].ports[li]
            .iter()
            .map(|&(_, g)| link_of(g))
            .collect();
        links.sort_unstable();
        links
    }

    /// A node crashes: its FIB is wiped cold, every incident link goes
    /// dark (queued and in-flight packets are lost and counted), and
    /// under `--control ldp` all of its protocol state is lost — peers
    /// notice by hold-timer silence, exactly as they would a dead LSR.
    fn on_node_down(&mut self, node: NodeId) {
        if !self.dead_nodes.insert(node) {
            return; // already down (overlapping schedules)
        }
        self.trace("node_down", || format!("node{node}"));
        self.download(node, &NodeConfig::default());
        for link in self.links_of_node(node) {
            self.on_link_down(link);
        }
        if let Control::Ldp(rt) = &mut self.control {
            rt.fabric.crash_node(self.now, node);
            rt.track_route_changes();
        }
    }

    /// A crashed node restarts cold: incident links return, but the FIB
    /// stays empty until the control plane reprovisions it — one
    /// detection delay later for the centralized solver, or however long
    /// session re-formation and label re-learning take under LDP. That
    /// gap is the cold-FIB window protection LSPs must cover.
    fn on_node_up(&mut self, node: NodeId) {
        if !self.dead_nodes.remove(&node) {
            return; // not down
        }
        self.trace("node_up", || format!("node{node}"));
        for link in self.links_of_node(node) {
            self.on_link_up(link);
        }
        let reprovision = match &mut self.control {
            Control::Centralized => self.policy.mode != RecoveryMode::None,
            Control::Ldp(rt) => {
                rt.fabric.restart_node(self.now, node);
                rt.track_route_changes();
                false
            }
            Control::Sr(_) => true,
        };
        if reprovision {
            self.globals.schedule(
                self.now + self.policy.detection_delay_ns,
                ControlEvent::NodeReprovision { node },
            );
        }
    }

    /// The centralized solver or SR re-downloads a restarted node's
    /// configuration as this event ends, closing its cold-FIB window.
    fn on_node_reprovision(&mut self, node: NodeId) {
        if self.dead_nodes.contains(&node) {
            return; // crashed again before the download landed
        }
        self.pending_downloads.insert(node);
        self.trace("node_reprovisioned", || format!("node{node}"));
    }

    // ---- control-channel partitions ----------------------------------------

    fn on_partition_start(&mut self, link: LinkId) {
        if self.partitioned.insert(link) {
            self.trace("partition_start", || format!("link{link}"));
        }
    }

    fn on_partition_end(&mut self, link: LinkId) {
        if self.partitioned.remove(&link) {
            self.trace("partition_end", || format!("link{link}"));
        }
    }

    // ---- telemetry ---------------------------------------------------------

    /// Records a trace event now on a telemetry run; `detail` runs only
    /// then.
    fn trace(&mut self, name: &str, detail: impl FnOnce() -> String) {
        if let Some(tel) = &mut self.telemetry {
            tel.tracer().event(self.now, name, detail());
        }
    }

    /// Records fault record `rec`'s restoration at `t` on a telemetry run
    /// and closes its outage span.
    fn trace_restored(&mut self, rec: usize, t: SimTime) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        let tracer = tel.tracer();
        tracer.event(
            t,
            "service_restored",
            format!("link{}", self.records[rec].link),
        );
        if let Some(span) = self.instr.fault_spans.remove(&rec) {
            tracer.span_end(t, span);
        }
    }

    /// Periodic sample point: read the channels, then re-arm only while
    /// other work is pending so sampling never keeps a finished run
    /// alive. The LDP protocol's own tick and deliveries do not count:
    /// the tick re-arms until the horizon, so they would keep the sampler
    /// reading idle channels after the last packet.
    fn on_telemetry_sample(&mut self) {
        self.sample_channels();
        let pending =
            self.shards.iter().any(|s| !s.queue.is_empty()) || self.globals.other_than_ldp();
        if pending {
            self.globals.schedule(
                self.now + self.instr.sample_interval_ns,
                ControlEvent::TelemetrySample,
            );
        }
    }

    /// Pushes one queue-depth and one utilization point per channel, in
    /// global channel order.
    fn sample_channels(&mut self) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        let dt = self.now.saturating_sub(self.instr.last_sample_ns);
        for g in 0..self.chan_owner.len() {
            let (s, l) = self.chan_owner[g];
            let c = &mut self.shards[s].channels[l];
            // Completions at this instant run after the sample.
            c.retire_before(self.now);
            self.edges.samples_at_end += u64::from(c.head_end() == Some(self.now));
            let depth = c.depth();
            let busy_ns = c.busy_ns;
            tel.series_push(self.instr.chan_depth[g], self.now, depth as f64);
            if dt > 0 {
                let busy = busy_ns.saturating_sub(self.instr.chan_busy_prev[g]);
                let util = (busy as f64 / dt as f64).min(1.0);
                tel.series_push(self.instr.chan_util[g], self.now, util);
                self.instr.chan_busy_prev[g] = busy_ns;
            }
        }
        self.instr.last_sample_ns = self.now;
    }

    /// Writes the per-flow counters from the folded `stats` and merges
    /// the shards' buffered histograms, in shard order.
    fn fold_flow_telemetry(&mut self, stats: &[FlowStats]) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        let instr = &self.instr;
        for (f, st) in stats.iter().enumerate() {
            tel.counter_add(instr.flow_sent[f], st.sent);
            tel.counter_add(instr.flow_delivered[f], st.delivered);
            // Every emission of a policed flow gets a verdict.
            if self.flows[f].police.is_some() {
                tel.counter_add(instr.policer_conform[f], st.sent - st.policer_dropped);
                tel.counter_add(instr.policer_exceed[f], st.policer_dropped);
            }
            for sh in &self.shards {
                tel.hist_merge(instr.flow_delay[f], &sh.deltas[f].delay);
                tel.hist_merge(instr.flow_jitter[f], &sh.deltas[f].jitter);
            }
        }
    }

    /// End-of-run scrape: final channel sample, per-router pipeline and
    /// FSM counters, per-channel totals. Mirrors reading a hardware
    /// device's counter block after the experiment.
    fn finalize_telemetry(&mut self) {
        self.sample_channels();
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        let elapsed = self.now.max(1);
        let mut nodes: Vec<(NodeId, (usize, usize))> = self
            .node_home
            .iter()
            .map(|(&id, &home)| (id, home))
            .collect();
        nodes.sort_unstable_by_key(|&(id, _)| id);
        for (node, (s, l)) in nodes {
            let router = &self.shards[s].nodes[l];
            let stats = router.stats();
            for (name, value) in [
                ("packets_in", stats.packets_in),
                ("forwarded", stats.forwarded),
                ("delivered", stats.delivered),
                ("discarded", stats.discarded),
                ("flow_installs", stats.flow_installs),
                ("total_cycles", stats.total_cycles),
            ] {
                count(tel, format!("node{node}.router.{name}"), value);
            }
            for (stage, cycles) in stats.stage_cycles.iter() {
                count(tel, format!("node{node}.pipeline.{stage}_cycles"), cycles);
            }
            if let Some(perf) = router.core_perf() {
                for (state, cycles) in perf.state_cycles() {
                    count(tel, format!("node{node}.fsm.{state}"), cycles);
                }
                tel.import_histogram(format!("node{node}.ib.search_depth"), &perf.search_depth);
                count(tel, format!("node{node}.ib.search_hits"), perf.search_hits);
                count(
                    tel,
                    format!("node{node}.ib.search_misses"),
                    perf.search_misses,
                );
            }
        }
        for &(s, l) in &self.chan_owner {
            let c = &self.shards[s].channels[l];
            let prefix = format!("link.{}->{}", c.from, c.to);
            for (name, value) in [
                ("transmitted", c.transmitted),
                ("queue_drops", c.drops),
                ("fault_drops", c.fault_drops),
                ("loss_drops", c.loss_drops),
            ] {
                count(tel, format!("{prefix}.{name}"), value);
            }
            let id = tel.gauge(format!("{prefix}.mean_utilization"));
            tel.gauge_set(id, c.busy_ns as f64 / elapsed as f64);
        }
        tel.tracer().event(self.now, "telemetry_end", String::new());
    }

    // ---- merge -------------------------------------------------------------

    /// Folds every shard's buffered effects together and assembles the
    /// report. Deltas are commutative (sums and histogram merges), and
    /// they are folded in a fixed order (shard index, then subject
    /// index), so the result does not depend on epoch timing.
    fn finish(mut self) -> SimReport {
        self.flush_downloads();
        #[cfg(debug_assertions)]
        self.assert_ldp_downloads();
        // Every serialization that ended by the horizon completed, and
        // the run's clock covers the last of them.
        let through = self.horizon.saturating_add(1);
        for g in 0..self.chan_owner.len() {
            let c = self.chan_mut(g);
            let last = c.retire_before(through);
            let busy = c.head_end().is_some();
            if let Some(end) = last {
                self.now = self.now.max(end);
            }
            self.edges.stopped_busy += u64::from(busy);
        }
        // Channel counters owed across shards must land before the
        // telemetry scrape reads the channels.
        for s in 0..self.shards.len() {
            let drops = std::mem::take(&mut self.shards[s].foreign_fault_drops);
            for (g, d) in drops.into_iter().enumerate() {
                if d > 0 {
                    self.chan_mut(g).fault_drops += d;
                }
            }
            let losses = std::mem::take(&mut self.shards[s].record_loss);
            for (rec, d) in losses {
                self.records[rec].packets_lost += d;
            }
        }
        let mut stats = vec![FlowStats::default(); self.flows.len()];
        for sh in &self.shards {
            for (f, st) in sh.stats.iter().enumerate() {
                stats[f].absorb(st);
            }
        }
        self.fold_flow_telemetry(&stats);
        let (control, fibs) = match &self.control {
            Control::Centralized => (ControlSummary::default(), None),
            Control::Ldp(rt) => rt.finish(&self.records, self.telemetry.as_mut()),
            Control::Sr(rt) => rt.finish(),
        };
        self.finalize_telemetry();
        let nchans = self.chan_owner.len();
        let elapsed = self.now.max(1);
        let mut queue_drops = 0;
        let mut link_drops = 0;
        let mut loss_drops = 0;
        let mut links = Vec::with_capacity(nchans);
        for g in 0..nchans {
            let c = self.chan(g);
            queue_drops += c.drops;
            link_drops += c.fault_drops;
            loss_drops += c.loss_drops;
            links.push(LinkUsage {
                from: c.from,
                to: c.to,
                transmitted: c.transmitted,
                drops: c.drops,
                fault_drops: c.fault_drops,
                loss_drops: c.loss_drops,
                utilization: c.busy_ns as f64 / elapsed as f64,
            });
        }
        let mut routers = BTreeMap::new();
        for sh in &self.shards {
            for node in &sh.nodes {
                routers.insert(node.node_id(), node.stats());
            }
        }
        let engine = EngineStats {
            kind: EngineKind::Barrier,
            shards: self.shards.len(),
            lookahead_ns: (self.lookahead != SimTime::MAX).then_some(self.lookahead),
            epochs: self.epochs,
            global_events: self.global_events,
            shard_events: self.shards.iter().map(|s| s.events_processed).collect(),
            fib_downloads: self.fib_downloads,
            edges: self.edges,
        };
        let telemetry = self.telemetry.as_ref().map(Registry::snapshot);
        SimReport {
            flows: self.flows.into_iter().zip(stats).collect(),
            routers,
            queue_drops,
            link_drops,
            loss_drops,
            links,
            faults: self.records,
            elapsed_ns: self.now,
            telemetry,
            engine,
            control,
            fibs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::queue::QueueDiscipline;
    use crate::sim::{RouterKind, Simulation};
    use mpls_control::{LinkSpec, RouterRole, Topology};
    use mpls_dataplane::ftn::Prefix;
    use mpls_packet::ipv4::parse_addr;
    use mpls_router::SwTimingModel;

    fn engine(topo: &Topology, shards: usize) -> Engine {
        let cp = ControlPlane::new(topo.clone());
        let kind = RouterKind::SoftwareHash {
            timing: SwTimingModel::default(),
        };
        let mut sim = Simulation::build(&cp, kind, QueueDiscipline::Fifo { capacity: 8 }, 1);
        // One flow entering at every node, so every shard emits.
        for node in topo.nodes() {
            sim.add_flow(FlowSpec {
                name: format!("f{}", node.id),
                ingress: node.id,
                src_addr: 1,
                dst_addr: 2,
                payload_bytes: 64,
                precedence: 0,
                pattern: TrafficPattern::Cbr { interval_ns: 1_000 },
                start_ns: 0,
                stop_ns: 10_000,
                police: None,
            });
        }
        sim.set_shards(shards);
        Engine::new(sim)
    }

    /// The run loop's dense tables name the routers and channels the
    /// topology names: every `(node, neighbor)` pair resolves through the
    /// ports to the channel of the link between them in that direction, a
    /// non-neighbor to none, every channel to its receiving router and
    /// every flow to its ingress router and its own traffic source.
    #[test]
    fn dense_lookups_resolve_as_the_maps_do() {
        let topo = &Topology::figure1_example();
        for shards in [1, 2, 3] {
            let eng = engine(topo, shards);
            for a in topo.nodes() {
                let (s, li) = eng.node_home[&a.id];
                assert_eq!(eng.shards[s].nodes[li].node_id(), a.id);
                for b in topo.nodes() {
                    let want = topo.link_between(a.id, b.id).map(|k| {
                        let [ab, ba] = channels_of(k);
                        if topo.link(k).unwrap().a == a.id {
                            ab
                        } else {
                            ba
                        }
                    });
                    let got = eng.shards[s].port_to(li, b.id);
                    assert_eq!(got, want, "{} -> {} at {shards} shards", a.id, b.id);
                    if let Some(g) = got {
                        assert_eq!((eng.chan(g).from, eng.chan(g).to), (a.id, b.id));
                    }
                }
            }
            for g in 0..eng.chan_owner.len() {
                let to = eng.shards[eng.chan_dest_shard[g]].nodes[eng.chan_dest_local[g]].node_id();
                assert_eq!(to, eng.chan(g).to, "channel {g} at {shards} shards");
            }
            for (f, spec) in eng.flows.iter().enumerate() {
                let sh = &eng.shards[eng.flow_shard[f]];
                assert_eq!(sh.nodes[eng.flow_ingress_local[f]].node_id(), spec.ingress);
                let same_shard = (0..f).filter(|&g| eng.flow_shard[g] == eng.flow_shard[f]);
                assert_eq!(eng.flow_emit[f], same_shard.count(), "flow {f}'s source");
            }
        }
    }

    /// Two packets, 10 µs apart, over a two-LER line whose only link
    /// takes milliseconds to serialize each: the second waits behind the
    /// first. `cut` cuts the link with no recovery; `loss` is its wire
    /// loss.
    fn two_slow_packets(cut: Option<SimTime>, loss: f64, horizon: SimTime) -> SimReport {
        let mut topo = Topology::new();
        topo.add_node(0, RouterRole::Ler, "west");
        topo.add_node(1, RouterRole::Ler, "east");
        topo.add_link(LinkSpec {
            a: 0,
            b: 1,
            cost: 1,
            bandwidth_bps: 1_000_000,
            delay_ns: 1_000,
        });
        let mut cp = ControlPlane::new(topo);
        let fec = Prefix::new(parse_addr("192.168.1.0").unwrap(), 24);
        cp.establish_lsp(LspRequest::best_effort(0, 1, fec))
            .unwrap();
        let kind = RouterKind::SoftwareHash {
            timing: SwTimingModel::default(),
        };
        let mut sim = Simulation::build(&cp, kind, QueueDiscipline::Fifo { capacity: 8 }, 1);
        let mut plan = FaultPlan::new(RestorationPolicy {
            mode: RecoveryMode::None,
            ..RestorationPolicy::default()
        });
        if let Some(at) = cut {
            plan.link_down(at, 0);
        }
        plan.random_loss(0, loss);
        sim.set_fault_plan(plan);
        sim.add_flow(FlowSpec {
            name: "pair".into(),
            ingress: 0,
            src_addr: 1,
            dst_addr: parse_addr("192.168.1.5").unwrap(),
            payload_bytes: 1_000,
            precedence: 0,
            pattern: TrafficPattern::Cbr {
                interval_ns: 10_000,
            },
            start_ns: 0,
            stop_ns: 20_000,
            police: None,
        });
        sim.run(horizon)
    }

    /// A cut mid-serialization loses both packets at the cut, and the
    /// completion it leaves, stale, at the first packet's serialization
    /// end is the run's last event, wherever the cut falls, even when
    /// both packets had drawn wire loss. A cut at that very end still
    /// catches the first packet, once. A completion at the horizon
    /// happened; one a nanosecond past it did not.
    #[test]
    fn cuts_leave_a_stale_completion_and_the_horizon_keeps_its_own() {
        let cut = two_slow_packets(Some(1_000_000), 0.0, SimTime::MAX);
        assert_eq!(cut.faults[0].packets_lost, 2);
        assert_eq!((cut.links[0].transmitted, cut.links[0].fault_drops), (0, 2));
        let end = cut.elapsed_ns;
        assert!(end > 8_000_000, "one packet serializes for over 8 ms");
        for (at, loss) in [(2_000_000, 0.0), (1_000_000, 1.0)] {
            let r = two_slow_packets(Some(at), loss, SimTime::MAX);
            assert_eq!(r.elapsed_ns, end, "cut at {at}, loss {loss}");
            assert_eq!((r.faults[0].packets_lost, r.loss_drops), (2, 0));
        }
        let at_end = two_slow_packets(Some(end), 0.0, SimTime::MAX);
        assert_eq!(at_end.faults[0].packets_lost, 2);
        assert_eq!((at_end.links[0].fault_drops, at_end.elapsed_ns), (2, end));
        let at = two_slow_packets(None, 0.0, end);
        assert_eq!((at.links[0].transmitted, at.elapsed_ns), (1, end));
        let before = two_slow_packets(None, 0.0, end - 1);
        assert_eq!(before.links[0].transmitted, 0);
        assert!(before.elapsed_ns < end);
    }
}

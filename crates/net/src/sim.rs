//! The simulation facade: builds the network from a control plane,
//! collects flows and fault plans, and hands everything to the sharded
//! engine in [`crate::engine`].
//!
//! # Runtime faults
//!
//! The simulation owns its own control plane, shared **copy-on-write**
//! with the plane it was built from: building shares the plane's large
//! tables instead of copying them, and the first runtime write to a
//! table copies that table into the simulation's plane (see
//! [`ControlPlane`]). Neither side ever sees the other's mutations.
//! Static failures (`ControlPlane::fail_link` *before*
//! [`Simulation::build`]) start the run with those links dark; to fail a
//! link *mid-run*, attach a [`FaultPlan`](crate::fault::FaultPlan) with
//! [`Simulation::set_fault_plan`]. The plan's link-down/up events run as
//! coordinator-level control events; the restoration policy then drives
//! the simulation's plane (detection → failover or re-signaling →
//! hold-down) and reprograms the routers in place.
//!
//! # Parallel execution
//!
//! [`Simulation::set_shards`] (or the `MPLS_SIM_SHARDS` environment
//! variable) splits the topology across shards that execute in
//! parallel between conservative epoch barriers. The report — and the
//! telemetry export — is byte-identical at any shard count; sharding is
//! purely a wall-clock optimization. See [`crate::engine`].

use crate::engine::{stream_seed, Engine, EngineStats, LdpRuntime, SrRuntime};
use crate::event::{ControlEvent, ControlQueue, SimTime};
use crate::fault::{FaultKind, FaultPlan, FaultRecord, RestorationPolicy};
use crate::link::Channel;
use crate::queue::QueueDiscipline;
use crate::stats::{FlowId, FlowStats};
use crate::traffic::FlowSpec;
use mpls_control::{ControlPlane, LinkId, NodeConfig, NodeId};
use mpls_ldp::{LdpConfig, LdpFabric};
use mpls_packet::{EtherType, EthernetFrame, Ipv4Header, MacAddr, MplsPacket};
pub use mpls_router::RouterKind;
use mpls_router::{MplsForwarder, RouterStats};
use mpls_telemetry::{
    CounterId, HistId, Registry, SeriesId, SpanId, TelemetryConfig, TelemetryReport,
};
use std::collections::{BTreeMap, HashMap};

/// The interned, per-flow constant part of every packet a flow emits.
///
/// All of a flow's packets share one Ethernet header, one IPv4 header
/// (modulo the per-emission `ident`), and one payload buffer. Cloning
/// a full [`MplsPacket`] through queues, channels and the event queues
/// would copy all of that per hop; instead each flow interns it *once*
/// here and packets in flight carry only the delta ([`SimPacket`]).
/// The wire packet is materialized exactly at the router boundary.
#[derive(Debug, Clone)]
pub(crate) struct FlowTemplate {
    eth: EthernetFrame,
    /// Header with `ident` zeroed; [`FlowTemplate::materialize`] stamps
    /// the per-emission value.
    ip: Ipv4Header,
    /// One shared zero-filled payload buffer — `Bytes` clones are
    /// reference bumps, so emission never allocates the payload again.
    payload: bytes::Bytes,
    /// IP precedence, cached for CoS classing of unlabeled packets.
    precedence: u8,
    /// Wire bytes with an empty label stack.
    base_wire: u32,
}

impl FlowTemplate {
    /// Interns the constant part of `spec`'s packets.
    pub fn of(spec: &FlowSpec) -> Self {
        let mut ip = Ipv4Header::new(
            spec.src_addr,
            spec.dst_addr,
            Ipv4Header::PROTO_UDP,
            64,
            spec.payload_bytes,
        );
        ip.tos = spec.precedence << 5;
        let eth = EthernetFrame {
            dst: MacAddr::from_node(spec.ingress, 0),
            src: MacAddr::from_node(u32::MAX, 0),
            ethertype: EtherType::Ipv4,
        };
        let base_wire = EthernetFrame::WIRE_LEN + Ipv4Header::WIRE_LEN + spec.payload_bytes;
        Self {
            eth,
            ip,
            payload: bytes::Bytes::from(vec![0u8; spec.payload_bytes]),
            precedence: ip.precedence(),
            base_wire: u32::try_from(base_wire).expect("payload fits u32"),
        }
    }

    /// Builds the wire packet for one router visit: template constants
    /// plus the in-flight delta (label stack, sequence number). Only
    /// header-sized copies and a payload refcount bump — no allocation.
    pub fn materialize(&self, stack: &mpls_packet::LabelStack, seq: u64) -> MplsPacket {
        let mut ip = self.ip;
        ip.ident = (seq & 0xffff) as u16;
        let mut p = MplsPacket::ipv4(self.eth, ip, self.payload.clone());
        p.splice_stack(stack.clone());
        p
    }

    /// Wraps a fresh, unlabeled emission as its in-flight delta.
    pub fn emit(&self, flow: FlowId, seq: u64, sent_ns: SimTime) -> SimPacket {
        SimPacket {
            flow,
            stack: mpls_packet::LabelStack::default(),
            seq,
            sent_ns,
            precedence: self.precedence,
            base_wire: self.base_wire,
            ecn: false,
        }
    }

    /// Re-wraps a router's output packet as its in-flight delta. Only
    /// the label stack can have changed — the routers rewrite stacks
    /// (and the EtherType derived from them) and nothing else. The
    /// congestion mark rides the delta across the router visit.
    pub fn delta_of(
        &self,
        packet: MplsPacket,
        flow: FlowId,
        seq: u64,
        sent_ns: SimTime,
        ecn: bool,
    ) -> SimPacket {
        debug_assert_eq!(
            usize::try_from(self.base_wire).unwrap() + packet.stack.wire_len(),
            packet.wire_len(),
            "router changed more than the label stack"
        );
        SimPacket {
            flow,
            stack: packet.stack,
            seq,
            sent_ns,
            precedence: self.precedence,
            base_wire: self.base_wire,
            ecn,
        }
    }
}

/// A packet in flight through the simulation: the per-packet *delta*
/// against its flow's interned [`FlowTemplate`].
///
/// Queues, channels and the event queues hold this compact form; the
/// full [`MplsPacket`] exists only inside a router visit (see
/// [`FlowTemplate::materialize`]). The template's CoS and size
/// constants are denormalized in so hot-path classing and
/// serialization-time math never consult the arena.
#[derive(Debug, Clone)]
pub struct SimPacket {
    /// Owning flow — also the index of its interned template.
    pub flow: FlowId,
    /// The live label stack, the only part of the wire image that
    /// forwarding rewrites.
    pub stack: mpls_packet::LabelStack,
    /// Per-flow sequence number.
    pub seq: u64,
    /// Emission timestamp.
    pub sent_ns: SimTime,
    /// Template constant: IP precedence (unlabeled CoS class).
    pub precedence: u8,
    /// Template constant: wire bytes with an empty label stack.
    pub base_wire: u32,
    /// ECN-style congestion mark: set when the packet was offered to a
    /// link queue at or past its flow's mark threshold, echoed back to
    /// closed-loop senders in the delivery ack.
    pub ecn: bool,
}

impl SimPacket {
    /// The CoS class used by priority queues: the top label's CoS bits, or
    /// the IP precedence for unlabeled packets.
    pub fn cos_class(&self) -> u8 {
        match self.stack.top() {
            Some(e) => e.cos.value(),
            None => self.precedence,
        }
    }

    /// Bytes on the wire.
    pub fn wire_len(&self) -> usize {
        self.base_wire as usize + self.stack.wire_len()
    }
}

/// Per-channel usage in a report.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct LinkUsage {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Packets fully transmitted.
    pub transmitted: u64,
    /// Packets tail-dropped at this channel's queue.
    pub drops: u64,
    /// Packets lost because the channel was down.
    pub fault_drops: u64,
    /// Packets lost to random wire loss.
    pub loss_drops: u64,
    /// Fraction of the run the channel spent serializing (0.0-1.0).
    pub utilization: f64,
}

/// Which control plane drove the run. Serializes to the exact strings
/// the stringly-typed field used (`"centralized"` / `"ldp"`), so every
/// existing report, golden and comparison is byte-identical — but the
/// type makes casing drift impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlMode {
    /// The omniscient centralized solver programs all FIBs before t=0.
    #[default]
    Centralized,
    /// In-band distributed label distribution (`--control ldp`).
    Ldp,
    /// Segment-routing source routes compiled before t=0
    /// (`--control sr`): no per-LSP signaling state in the network.
    Sr,
}

impl ControlMode {
    /// The wire/report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ControlMode::Centralized => "centralized",
            ControlMode::Ldp => "ldp",
            ControlMode::Sr => "sr",
        }
    }
}

impl serde::Serialize for ControlMode {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl core::fmt::Display for ControlMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// String comparisons keep working (`report.control.mode == "ldp"`).
impl PartialEq<&str> for ControlMode {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<ControlMode> for &str {
    fn eq(&self, other: &ControlMode) -> bool {
        *self == other.as_str()
    }
}

/// How the run's control plane behaved. For the default centralized
/// solver the mode is all there is to say; on a `--control ldp`
/// run the protocol's global counters and convergence time fill in.
/// All values derive from coordinator-level events only, so the summary
/// is shard-invariant and safe to serialize.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ControlSummary {
    /// Which control plane drove the run.
    pub mode: ControlMode,
    /// When the fault-free bring-up last changed any FIB — the initial
    /// convergence time. `None` for centralized runs (bindings exist
    /// before t=0) and for ldp runs that never settled.
    pub convergence_ns: Option<u64>,
    /// Sessions that reached `Operational` (each end counts one).
    pub sessions_established: u64,
    /// Sessions torn down by hold-timer expiry.
    pub session_downs: u64,
    /// Control PDUs handed to the wire.
    pub pdus_sent: u64,
    /// Control PDUs that arrived.
    pub pdus_delivered: u64,
    /// Control PDUs lost to dark or failing channels.
    pub pdus_lost: u64,
    /// Label mappings discarded by path-vector loop detection.
    pub loop_rejections: u64,
    /// Session re-initialization retries (backed-off re-sends of
    /// `Initialization` after the first attempt went unanswered).
    pub session_retries: u64,
    /// Sessions reset because a PDU arrived out of sequence — the
    /// simulated equivalent of the TCP transport breaking.
    pub sequence_violations: u64,
    /// PDUs that failed to decode at the fabric layer (truncated or
    /// corrupted on the wire), counted instead of silently discarded.
    pub malformed_pdus: u64,
    /// When any FIB last changed (ns). 0 for centralized runs (all
    /// programming happens before t=0). The chaos harness's quiesce
    /// oracle checks this stops moving once the last fault heals.
    pub last_fib_change_ns: u64,
}

impl Default for ControlSummary {
    fn default() -> Self {
        Self {
            mode: ControlMode::Centralized,
            convergence_ns: None,
            sessions_established: 0,
            session_downs: 0,
            pdus_sent: 0,
            pdus_delivered: 0,
            pdus_lost: 0,
            loop_rejections: 0,
            session_retries: 0,
            sequence_violations: 0,
            malformed_pdus: 0,
            last_fib_change_ns: 0,
        }
    }
}

/// The outcome of a run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SimReport {
    /// Per-flow specs and stats, index-aligned with flow ids.
    pub flows: Vec<(FlowSpec, FlowStats)>,
    /// Per-router data-plane statistics, ordered by node id.
    pub routers: BTreeMap<NodeId, RouterStats>,
    /// Total packets dropped at link queues.
    pub queue_drops: u64,
    /// Total packets lost to dead links.
    pub link_drops: u64,
    /// Total packets lost to random wire loss.
    pub loss_drops: u64,
    /// Per-channel usage.
    pub links: Vec<LinkUsage>,
    /// One record per injected outage, in occurrence order.
    pub faults: Vec<FaultRecord>,
    /// Simulated duration actually executed.
    pub elapsed_ns: SimTime,
    /// Metrics snapshot, present when the run was telemetry-enabled
    /// (see [`Simulation::with_telemetry`]).
    pub telemetry: Option<TelemetryReport>,
    /// How the engine executed the run (shard count, epochs). Excluded
    /// from serialization: the simulation outcome is shard-invariant.
    #[serde(skip)]
    pub engine: EngineStats,
    /// Control-plane mode and (for ldp) protocol counters and
    /// convergence time. Shard-invariant, so it serializes.
    pub control: ControlSummary,
    /// The converged per-node forwarding configurations of an ldp run,
    /// for fixed-point comparison against the centralized solver.
    /// `None` on centralized runs; not serialized (`NodeConfig` is an
    /// in-memory programming artifact, not a report row).
    #[serde(skip)]
    pub fibs: Option<BTreeMap<NodeId, NodeConfig>>,
}

impl SimReport {
    /// Finds a flow's stats by name.
    pub fn flow(&self, name: &str) -> Option<&FlowStats> {
        self.flows
            .iter()
            .find(|(spec, _)| spec.name == name)
            .map(|(_, s)| s)
    }
}

/// Per-flow and per-channel instrument handles for a telemetry-enabled
/// run. All vectors are index-aligned with their subject tables; on a
/// run without telemetry they stay empty and no record site runs.
#[derive(Default)]
pub(crate) struct SimInstruments {
    /// Queue-depth time series, one per channel.
    pub(crate) chan_depth: Vec<SeriesId>,
    /// Utilization time series, one per channel.
    pub(crate) chan_util: Vec<SeriesId>,
    /// `busy_ns` observed at the previous sample, for utilization deltas.
    pub(crate) chan_busy_prev: Vec<u64>,
    /// Timestamp of the previous sample point.
    pub(crate) last_sample_ns: SimTime,
    /// Sampling period.
    pub(crate) sample_interval_ns: u64,
    /// Per-LSP end-to-end delay histograms, one per flow.
    pub(crate) flow_delay: Vec<HistId>,
    /// Per-LSP inter-packet delay-variation histograms, one per flow.
    pub(crate) flow_jitter: Vec<HistId>,
    /// Packets emitted, one counter per flow.
    pub(crate) flow_sent: Vec<CounterId>,
    /// Packets delivered, one counter per flow.
    pub(crate) flow_delivered: Vec<CounterId>,
    /// Edge-policer conform verdicts, one counter per flow.
    pub(crate) policer_conform: Vec<CounterId>,
    /// Edge-policer exceed verdicts, one counter per flow.
    pub(crate) policer_exceed: Vec<CounterId>,
    /// Open outage spans keyed by fault-record index.
    pub(crate) fault_spans: HashMap<usize, SpanId>,
}

/// The per-flow delay and jitter histograms' bucket bounds, which LDP's
/// reconvergence histogram shares: 1 µs .. ~1 s in octaves, covering
/// FPGA pipelines through congested software paths.
pub(crate) fn octave_bounds() -> Vec<u64> {
    (0..21).map(|i| 1000u64 << i).collect()
}

/// The discrete-event simulation.
///
/// Telemetry is off unless [`Simulation::with_telemetry`] sets a live
/// [`Registry`], whose snapshot lands in [`SimReport::telemetry`].
pub struct Simulation {
    pub(crate) channels: Vec<Channel>,
    pub(crate) chan_index: HashMap<(NodeId, NodeId), usize>,
    /// `chan_link[i]` is the topology link channel `i` belongs to.
    pub(crate) chan_link: Vec<LinkId>,
    pub(crate) nodes: Vec<Box<dyn MplsForwarder + Send>>,
    /// The simulation's own control plane: shares the tables of the
    /// plane it was built from until a runtime fault first writes one,
    /// which copies that table (copy-on-write).
    pub(crate) cp: ControlPlane,
    pub(crate) flows: Vec<FlowSpec>,
    pub(crate) policers: Vec<Option<crate::policer::TokenBucket>>,
    pub(crate) globals: ControlQueue,
    pub(crate) seed: u64,
    pub(crate) policy: RestorationPolicy,
    /// Present on a telemetry run (see [`Self::with_telemetry`]).
    pub(crate) telemetry: Option<Registry>,
    pub(crate) instr: SimInstruments,
    pub(crate) requested_shards: Option<usize>,
    pub(crate) shard_hints: HashMap<NodeId, usize>,
    /// Present when the run uses the distributed control plane.
    pub(crate) ldp: Option<LdpRuntime>,
    /// Present when the run uses the segment-routing control plane.
    pub(crate) sr: Option<SrRuntime>,
    /// Control-PDU chaos windows from the fault plan; handed to the LDP
    /// runtime at engine assembly (plan and `enable_ldp` may arrive in
    /// either order).
    pub(crate) pdu_chaos: Vec<crate::fault::PduChaos>,
}

impl Simulation {
    /// Builds a simulation over the control plane's topology: every node
    /// gets a router of `kind` programmed with its configuration, every
    /// link two channels with `discipline` queues. Links already marked
    /// failed on `cp` start dark — packets steered onto them count as
    /// link drops. The simulation shares `cp` copy-on-write: building
    /// copies none of its per-LSP or per-node tables, later mutations of
    /// `cp` do not reach this simulation (use [`Self::set_fault_plan`]
    /// for runtime faults), and the run's own re-signaling never
    /// reaches `cp`.
    pub fn build(
        cp: &ControlPlane,
        kind: RouterKind,
        discipline: QueueDiscipline,
        seed: u64,
    ) -> Self {
        let topo = cp.topology();
        let mut channels = Vec::new();
        let mut chan_index = HashMap::new();
        let mut chan_link = Vec::new();
        for (link_id, spec) in topo.links().iter().enumerate() {
            for (from, to) in [(spec.a, spec.b), (spec.b, spec.a)] {
                let g = channels.len();
                chan_index.insert((from, to), g);
                let mut c = Channel::new(from, to, spec.bandwidth_bps, spec.delay_ns, discipline);
                // Statically failed links exist but start dark.
                c.up = !cp.link_is_failed(link_id as LinkId);
                // Wire loss draws from a per-channel stream: the outcome
                // depends only on (seed, channel), never on shard layout.
                c.seed_loss_rng(stream_seed(seed, 2, g as u64));
                channels.push(c);
                chan_link.push(link_id as LinkId);
            }
        }
        let nodes = topo
            .nodes()
            .iter()
            .map(|node| kind.build(node.id, node.role, &cp.config_for(node.id)))
            .collect();
        Self {
            channels,
            chan_index,
            chan_link,
            nodes,
            cp: cp.clone(),
            flows: Vec::new(),
            policers: Vec::new(),
            globals: ControlQueue::default(),
            seed,
            policy: RestorationPolicy::default(),
            telemetry: None,
            instr: SimInstruments::default(),
            requested_shards: None,
            shard_hints: HashMap::new(),
            ldp: None,
            sr: None,
            pdu_chaos: Vec::new(),
        }
    }

    /// Turns telemetry on: a live [`Registry`] is set, per-channel
    /// queue-depth and utilization series plus per-flow counters and
    /// latency histograms are registered, every router's FSM cycle
    /// counters are switched on, and periodic sample events start at
    /// `config.sample_interval_ns`. Call after `build` (flows added
    /// before or after it are both instrumented).
    ///
    /// # Panics
    ///
    /// On a second call: a run has one registry and one sample chain.
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        assert!(
            self.telemetry.is_none(),
            "with_telemetry called twice on one simulation"
        );
        let sample_interval_ns = config.sample_interval_ns.max(1);
        let mut registry = Registry::new(config);
        self.instr.sample_interval_ns = sample_interval_ns;
        for c in &self.channels {
            let depth = registry.series(format!("link.{}->{}.queue_depth", c.from, c.to));
            let util = registry.series(format!("link.{}->{}.utilization", c.from, c.to));
            self.instr.chan_depth.push(depth);
            self.instr.chan_util.push(util);
            self.instr.chan_busy_prev.push(c.busy_ns);
        }
        registry.tracer().event(0, "telemetry_start", String::new());
        self.telemetry = Some(registry);
        for flow in 0..self.flows.len() {
            self.register_flow_instruments(flow);
        }
        for node in &mut self.nodes {
            node.enable_perf();
        }
        self.globals
            .schedule(sample_interval_ns, ControlEvent::TelemetrySample);
        self
    }

    /// Requests a shard count for parallel execution. Overrides the
    /// `MPLS_SIM_SHARDS` environment variable; the engine may still use
    /// fewer shards (at most one per node, and partitionings without a
    /// usable lookahead fall back to one). The report is identical at
    /// any value — this only trades wall-clock time.
    pub fn set_shards(&mut self, shards: usize) {
        self.requested_shards = Some(shards);
    }

    /// Pins `node` to shard `hint % shards` instead of its default
    /// block placement, letting scenarios co-locate chatty neighbors.
    pub fn shard_hint(&mut self, node: NodeId, hint: usize) {
        self.shard_hints.insert(node, hint);
    }

    /// Attaches a fault plan: its link events run as control events, its
    /// loss probabilities program the channels, and its policy governs
    /// detection and recovery.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.policy = plan.policy;
        // A distributed-control run recovers via the protocol no matter
        // what the plan's policy says (call order must not matter), and
        // likewise a segment-routing run recompiles source routes.
        if self.ldp.is_some() {
            self.policy.mode = crate::fault::RecoveryMode::Ldp;
        }
        if self.sr.is_some() {
            self.policy.mode = crate::fault::RecoveryMode::Sr;
        }
        for ev in &plan.events {
            match ev.kind {
                FaultKind::LinkDown(link) => self
                    .globals
                    .schedule(ev.at_ns, ControlEvent::LinkDown { link }),
                FaultKind::LinkUp(link) => self
                    .globals
                    .schedule(ev.at_ns, ControlEvent::LinkUp { link }),
                FaultKind::NodeDown(node) => self
                    .globals
                    .schedule(ev.at_ns, ControlEvent::NodeDown { node }),
                FaultKind::NodeUp(node) => self
                    .globals
                    .schedule(ev.at_ns, ControlEvent::NodeUp { node }),
                FaultKind::PartitionStart(link) => self
                    .globals
                    .schedule(ev.at_ns, ControlEvent::PartitionStart { link }),
                FaultKind::PartitionEnd(link) => self
                    .globals
                    .schedule(ev.at_ns, ControlEvent::PartitionEnd { link }),
            }
        }
        self.pdu_chaos.extend(plan.pdu_chaos.iter().copied());
        for loss in &plan.losses {
            for (i, c) in self.channels.iter_mut().enumerate() {
                if self.chan_link[i] == loss.link {
                    c.loss_prob = loss.probability;
                }
            }
        }
    }

    /// Switches the run to the distributed control plane: the routers'
    /// centrally solved forwarding state is wiped and an [`LdpFabric`]
    /// takes over. Every established LSP's FEC is re-expressed as an
    /// egress origination (plus every attached route), so the protocol
    /// must discover the same reachability by exchanging label mapping
    /// PDUs in-band over the simulated links. Traffic started at t=0
    /// therefore blackholes until sessions form and mappings arrive —
    /// that window *is* the convergence time the report measures.
    ///
    /// The restoration policy switches to [`RecoveryMode::Ldp`]: link
    /// faults are detected by session hold-timer expiry and repaired by
    /// withdraw/re-advertise waves, not by the centralized solver.
    pub fn enable_ldp(&mut self, cfg: LdpConfig) {
        let mut fabric = LdpFabric::new(self.cp.topology(), cfg);
        for id in self.cp.lsp_ids() {
            let req = &self.cp.lsp(id).expect("listed lsp exists").request;
            fabric.originate(req.egress, req.fec, req.cos);
        }
        for route in self.cp.attached_routes() {
            fabric.originate(route.node, route.prefix, mpls_packet::CosBits::BEST_EFFORT);
        }
        self.policy.mode = crate::fault::RecoveryMode::Ldp;
        // Strip the omniscient programming: nodes start with only their
        // locally originated state and learn the rest over the wire.
        for node in &mut self.nodes {
            let cfg = fabric.config_for(node.node_id());
            node.reprogram(&cfg);
        }
        fabric.take_dirty();
        self.globals.schedule(0, ControlEvent::LdpTick);
        self.ldp = Some(LdpRuntime::new(fabric, self.channels.len(), self.seed));
    }

    /// Switches the run to the segment-routing control plane: every
    /// established LSP's request becomes an SR steering policy (same
    /// ingress, egress, FEC prefix and CoS) compiled into a label-stack
    /// source route, and the routers are reprogrammed from the compiled
    /// fabric — SID bindings, ECMP fan-outs and ingress policies replace
    /// the per-LSP hop labels. Programming happens before t=0, like the
    /// centralized solver; what changes is the *state model* (one node
    /// SID per node instead of per-LSP transit state) and fault recovery
    /// (a coordinator-side recompile instead of re-signaling).
    ///
    /// The restoration policy switches to
    /// [`crate::fault::RecoveryMode::Sr`].
    pub fn enable_sr(&mut self, cfg: mpls_sr::SrConfig) {
        let mut fabric = mpls_sr::SrFabric::new(self.cp.topology().clone(), cfg);
        for id in self.cp.lsp_ids() {
            let req = &self.cp.lsp(id).expect("listed lsp exists").request;
            fabric.add_policy(mpls_sr::SrPolicySpec {
                ingress: req.ingress,
                egress: req.egress,
                prefix: req.fec,
                cos: req.cos,
            });
        }
        for route in self.cp.attached_routes() {
            fabric.add_local(route.node, route.prefix);
        }
        fabric.compile();
        self.policy.mode = crate::fault::RecoveryMode::Sr;
        // Replace the centrally solved per-LSP state with the compiled
        // SR fabric's.
        for node in &mut self.nodes {
            let cfg = fabric.config_for(node.node_id());
            node.reprogram(&cfg);
        }
        fabric.take_dirty();
        self.sr = Some(SrRuntime::new(fabric));
    }

    /// The compiled SR fabric, when [`Self::enable_sr`] has run.
    pub fn sr_fabric(&self) -> Option<&mpls_sr::SrFabric> {
        self.sr.as_ref().map(|rt| &rt.fabric)
    }

    /// Registers a flow; its first packet is emitted at `spec.start_ns`.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = self.flows.len();
        self.policers
            .push(spec.police.map(crate::policer::TokenBucket::new));
        self.flows.push(spec);
        self.register_flow_instruments(id);
        id
    }

    /// Registers `flow`'s counters and latency histograms on a telemetry
    /// run.
    fn register_flow_instruments(&mut self, flow: FlowId) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        let name = &self.flows[flow].name;
        let instr = &mut self.instr;
        instr
            .flow_sent
            .push(tel.counter(format!("flow.{name}.sent")));
        instr
            .flow_delivered
            .push(tel.counter(format!("flow.{name}.delivered")));
        instr
            .policer_conform
            .push(tel.counter(format!("flow.{name}.policer_conform")));
        instr
            .policer_exceed
            .push(tel.counter(format!("flow.{name}.policer_exceed")));
        instr
            .flow_delay
            .push(tel.histogram(format!("lsp.{name}.delay_ns"), octave_bounds()));
        instr
            .flow_jitter
            .push(tel.histogram(format!("lsp.{name}.jitter_ns"), octave_bounds()));
    }

    /// Runs until the event queues drain or `horizon_ns` passes, then
    /// reports. The shard count resolves as [`Self::set_shards`], else
    /// the `MPLS_SIM_SHARDS` environment variable, else 1.
    pub fn run(self, horizon_ns: SimTime) -> SimReport {
        Engine::new(self).run(horizon_ns)
    }
}

/// Runs the same scenario across many seeds in parallel (rayon) and
/// returns one report per seed, in seed order. Simulations are
/// independent, so this is an embarrassingly parallel ensemble — the
/// standard way to put confidence intervals on stochastic workloads.
pub fn run_ensemble(
    cp: &ControlPlane,
    kind: RouterKind,
    discipline: QueueDiscipline,
    flows: &[FlowSpec],
    horizon_ns: SimTime,
    seeds: &[u64],
) -> Vec<SimReport> {
    use rayon::prelude::*;
    seeds
        .par_iter()
        .map(|&seed| {
            let mut sim = Simulation::build(cp, kind, discipline, seed);
            for f in flows {
                sim.add_flow(f.clone());
            }
            sim.run(horizon_ns)
        })
        .collect()
}

/// Mean and sample standard deviation of a metric across ensemble
/// reports.
pub fn ensemble_stat<F: Fn(&SimReport) -> f64>(reports: &[SimReport], metric: F) -> (f64, f64) {
    let n = reports.len() as f64;
    if reports.is_empty() {
        return (0.0, 0.0);
    }
    let values: Vec<f64> = reports.iter().map(metric).collect();
    let mean = values.iter().sum::<f64>() / n;
    if reports.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Helpers shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// A minimal unlabeled packet with the given IP precedence.
    pub fn packet_with_cos(precedence: u8, seq: u64) -> SimPacket {
        let spec = FlowSpec {
            name: "t".into(),
            ingress: 0,
            src_addr: 1,
            dst_addr: 2,
            payload_bytes: 64,
            precedence,
            pattern: crate::traffic::TrafficPattern::Cbr { interval_ns: 1 },
            start_ns: 0,
            stop_ns: 1,
            police: None,
        };
        FlowTemplate::of(&spec).emit(0, seq, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpls_control::{LspRequest, Topology};
    use mpls_core::ClockSpec;
    use mpls_dataplane::ftn::Prefix;
    use mpls_packet::ipv4::parse_addr;
    use mpls_router::SwTimingModel;

    fn plane_with_lsp() -> ControlPlane {
        let mut cp = ControlPlane::new(Topology::figure1_example());
        cp.establish_lsp(LspRequest::best_effort(
            0,
            1,
            Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
        ))
        .unwrap();
        cp
    }

    /// A simulation owns its plane: a run whose faults re-signal leaves
    /// the plane it was built from as it was, and a later simulation
    /// built from that plane runs as one built before.
    #[test]
    fn a_run_never_changes_the_callers_plane() {
        let cp = plane_with_lsp();
        let topo = cp.topology();
        let nodes: Vec<NodeId> = topo.nodes().iter().map(|n| n.id).collect();
        let links = 0..topo.links().len() as LinkId;
        let snapshot = |cp: &ControlPlane| {
            (
                cp.lsp_ids(),
                cp.labels_allocated(),
                links
                    .clone()
                    .map(|l| cp.link_is_failed(l))
                    .collect::<Vec<_>>(),
                nodes.iter().map(|&n| cp.config_for(n)).collect::<Vec<_>>(),
            )
        };
        let fault_free = |cp: &ControlPlane| {
            let mut sim = Simulation::build(
                cp,
                RouterKind::SoftwareHash {
                    timing: SwTimingModel::default(),
                },
                QueueDiscipline::Fifo { capacity: 64 },
                1,
            );
            sim.add_flow(cbr_flow("cbr", 100_000));
            serde_json::to_string(&sim.run(1_000_000_000)).expect("report serializes")
        };
        let before = snapshot(&cp);
        let report_before = fault_free(&cp);

        let mut sim = Simulation::build(
            &cp,
            RouterKind::SoftwareHash {
                timing: SwTimingModel::default(),
            },
            QueueDiscipline::Fifo { capacity: 64 },
            1,
        );
        let north = topo.link_between(2, 3).unwrap();
        let mut plan = FaultPlan::new(RestorationPolicy::default());
        plan.outage(north, 3_000_000, 6_000_000);
        sim.set_fault_plan(plan);
        sim.add_flow(cbr_flow("cbr", 100_000));
        let report = sim.run(1_000_000_000);
        assert_eq!(
            report.faults[0].restored_ns,
            Some(5_000_000),
            "the run re-signaled around the cut"
        );

        assert_eq!(snapshot(&cp), before, "the run reached the caller's plane");
        assert_eq!(fault_free(&cp), report_before);
    }

    fn cbr_flow(name: &str, interval_ns: u64) -> FlowSpec {
        FlowSpec {
            name: name.into(),
            ingress: 0,
            src_addr: parse_addr("10.0.0.1").unwrap(),
            dst_addr: parse_addr("192.168.1.5").unwrap(),
            payload_bytes: 146,
            precedence: 5,
            pattern: crate::traffic::TrafficPattern::Cbr { interval_ns },
            start_ns: 0,
            stop_ns: 10_000_000, // 10 ms
            police: None,
        }
    }

    #[test]
    fn end_to_end_delivery_over_embedded_routers() {
        let cp = plane_with_lsp();
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            1,
        );
        sim.add_flow(cbr_flow("cbr", 1_000_000)); // 1 packet/ms
        let report = sim.run(1_000_000_000);
        let s = report.flow("cbr").unwrap();
        assert_eq!(s.sent, 10);
        assert_eq!(s.delivered, 10, "all packets arrive");
        assert_eq!(s.router_dropped, 0);
        assert_eq!(s.queue_dropped, 0);
        // Three links at 0.5 ms propagation each dominate the delay.
        assert!(s.mean_delay_ns() > 1_500_000.0);
        assert!(s.mean_delay_ns() < 1_700_000.0, "{}", s.mean_delay_ns());
        // Routers saw traffic.
        assert!(report.routers[&0].packets_in >= 10);
        assert_eq!(report.routers[&1].delivered, 10);
        // A default run is sequential; MPLS_SIM_SHARDS changes the
        // default, so only check it when the variable is unset.
        if std::env::var_os("MPLS_SIM_SHARDS").is_none() {
            assert_eq!(report.engine.shards, 1);
        }
        assert!(report.engine.total_events() > 0);
    }

    #[test]
    fn software_routers_deliver_identically() {
        let cp = plane_with_lsp();
        let run = |kind| {
            let mut sim = Simulation::build(&cp, kind, QueueDiscipline::Fifo { capacity: 64 }, 1);
            sim.add_flow(cbr_flow("cbr", 1_000_000));
            sim.run(1_000_000_000)
        };
        let hw = run(RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        });
        let sw = run(RouterKind::SoftwareHash {
            timing: SwTimingModel::default(),
        });
        assert_eq!(
            hw.flow("cbr").unwrap().delivered,
            sw.flow("cbr").unwrap().delivered
        );
    }

    #[test]
    fn congestion_drops_in_fifo_queue() {
        let cp = plane_with_lsp();
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 4 },
            7,
        );
        // 1500-byte payloads every 10 µs ≈ 1.2 Gb/s offered onto 1 Gb/s
        // links: the first-hop queue must overflow.
        let mut f = cbr_flow("hot", 10_000);
        f.payload_bytes = 1500;
        sim.add_flow(f);
        let report = sim.run(50_000_000);
        let s = report.flow("hot").unwrap();
        assert!(s.queue_dropped > 0, "expected tail drops");
        assert!(s.delivered > 0);
    }

    #[test]
    fn unroutable_flow_is_router_dropped() {
        let cp = plane_with_lsp();
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 4 },
            7,
        );
        let mut f = cbr_flow("lost", 1_000_000);
        f.dst_addr = parse_addr("172.31.0.1").unwrap(); // no LSP, no route
        sim.add_flow(f);
        let report = sim.run(1_000_000_000);
        let s = report.flow("lost").unwrap();
        assert_eq!(s.delivered, 0);
        assert_eq!(s.router_dropped, s.sent);
    }

    #[test]
    fn midrun_outage_is_detected_and_restored() {
        let cp = plane_with_lsp();
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            1,
        );
        let north = cp.topology().link_between(2, 3).unwrap();
        let mut plan = crate::fault::FaultPlan {
            policy: crate::fault::RestorationPolicy {
                detection_delay_ns: 500_000,
                resignal_delay_ns: 500_000,
                backoff_factor: 2,
                max_retries: 4,
                hold_down_ns: 1_000_000,
                mode: crate::fault::RecoveryMode::Restoration,
            },
            ..Default::default()
        };
        // Out from 3 ms to 6 ms of a 10 ms flow.
        plan.outage(north, 3_000_000, 6_000_000);
        sim.set_fault_plan(plan);
        sim.add_flow(cbr_flow("cbr", 100_000)); // 1 packet / 100 µs
        let report = sim.run(1_000_000_000);

        assert_eq!(report.faults.len(), 1);
        let rec = &report.faults[0];
        assert_eq!(rec.down_ns, 3_000_000);
        assert_eq!(rec.detected_ns, Some(3_500_000));
        assert_eq!(rec.link_up_ns, Some(6_000_000));
        // Restored by re-signal onto the south path, one signaling
        // latency after detection.
        assert_eq!(rec.restored_ns, Some(4_000_000));
        assert_eq!(rec.time_to_restore_ns(), Some(1_000_000));
        let s = report.flow("cbr").unwrap();
        assert!(s.link_dropped > 0, "packets died during the outage");
        assert_eq!(s.link_dropped, rec.packets_lost);
        assert_eq!(
            s.sent,
            s.delivered + s.link_dropped,
            "every loss is a counted link drop"
        );
        // Loss spans packets emitted during [down, restored) — 10 at
        // this rate — plus those already inside the 1.5 ms-deep north
        // pipeline behind the cut (another ~10). Everything emitted
        // after restoration delivers.
        assert_eq!(s.link_dropped, 20, "outage-window loss only");
    }

    #[test]
    fn random_loss_is_counted_per_cause() {
        let cp = plane_with_lsp();
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            5,
        );
        let north = cp.topology().link_between(2, 3).unwrap();
        let mut plan = crate::fault::FaultPlan::default();
        plan.random_loss(north, 0.5);
        sim.set_fault_plan(plan);
        sim.add_flow(cbr_flow("cbr", 10_000)); // 1000 packets over 10 ms
        let report = sim.run(1_000_000_000);
        let s = report.flow("cbr").unwrap();
        assert!(
            s.loss_dropped > 300,
            "~half of 1000 lost: {}",
            s.loss_dropped
        );
        assert!(s.loss_dropped < 700, "{}", s.loss_dropped);
        assert_eq!(s.sent, s.delivered + s.loss_dropped);
        assert_eq!(
            s.drop_causes.get(mpls_router::DiscardCause::LinkLoss),
            s.loss_dropped
        );
        assert_eq!(report.loss_drops, s.loss_dropped);
    }

    #[test]
    fn ensemble_matches_sequential_runs() {
        let cp = plane_with_lsp();
        let flows = vec![cbr_flow("cbr", 1_000_000)];
        let seeds = [1u64, 2, 3, 4];
        let reports = run_ensemble(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            &flows,
            1_000_000_000,
            &seeds,
        );
        assert_eq!(reports.len(), 4);
        for (i, &seed) in seeds.iter().enumerate() {
            let mut sim = Simulation::build(
                &cp,
                RouterKind::Embedded {
                    clock: ClockSpec::STRATIX_50MHZ,
                },
                QueueDiscipline::Fifo { capacity: 64 },
                seed,
            );
            sim.add_flow(flows[0].clone());
            let seq = sim.run(1_000_000_000);
            assert_eq!(
                reports[i].flow("cbr").unwrap().delay_sum_ns,
                seq.flow("cbr").unwrap().delay_sum_ns,
                "seed {seed} diverged between parallel and sequential runs"
            );
        }
        let (mean, std) = ensemble_stat(&reports, |r| r.flow("cbr").unwrap().mean_delay_ns());
        assert!(mean > 0.0);
        assert!(std >= 0.0);
    }

    #[test]
    fn ensemble_stat_math() {
        // Degenerate cases.
        let empty: Vec<SimReport> = vec![];
        assert_eq!(ensemble_stat(&empty, |_| 1.0), (0.0, 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let cp = plane_with_lsp();
        let run = |seed| {
            let mut sim = Simulation::build(
                &cp,
                RouterKind::Embedded {
                    clock: ClockSpec::STRATIX_50MHZ,
                },
                QueueDiscipline::Fifo { capacity: 16 },
                seed,
            );
            let mut f = cbr_flow("p", 0);
            f.pattern = crate::traffic::TrafficPattern::Poisson {
                mean_interval_ns: 500_000,
            };
            sim.add_flow(f);
            let r = sim.run(20_000_000);
            let s = r.flow("p").unwrap();
            (s.sent, s.delivered, s.delay_sum_ns)
        };
        assert_eq!(run(3), run(3));
        // Different seeds explore different arrival processes. Any two
        // particular seeds can tie by chance, so check across a range.
        let outcomes: std::collections::HashSet<_> = (0..8).map(run).collect();
        assert!(outcomes.len() > 1, "all seeds produced identical runs");
    }

    #[test]
    fn sharded_run_is_byte_identical_to_sequential() {
        // A hostile mix for parallel determinism: stochastic arrivals,
        // an outage with re-signaling, random wire loss and telemetry,
        // all crossing shard boundaries.
        let cp = plane_with_lsp();
        let run = |shards: usize| {
            let mut sim = Simulation::build(
                &cp,
                RouterKind::Embedded {
                    clock: ClockSpec::STRATIX_50MHZ,
                },
                QueueDiscipline::Fifo { capacity: 16 },
                42,
            );
            sim.set_shards(shards);
            let north = cp.topology().link_between(2, 3).unwrap();
            let mut plan = crate::fault::FaultPlan {
                policy: crate::fault::RestorationPolicy {
                    detection_delay_ns: 500_000,
                    resignal_delay_ns: 500_000,
                    backoff_factor: 2,
                    max_retries: 4,
                    hold_down_ns: 1_000_000,
                    mode: crate::fault::RecoveryMode::Restoration,
                },
                ..Default::default()
            };
            plan.outage(north, 3_000_000, 6_000_000);
            plan.random_loss(north, 0.05);
            sim.set_fault_plan(plan);
            sim.add_flow(cbr_flow("cbr", 100_000));
            let mut pois = cbr_flow("pois", 0);
            pois.pattern = crate::traffic::TrafficPattern::Poisson {
                mean_interval_ns: 250_000,
            };
            sim.add_flow(pois);
            let sim = sim.with_telemetry(TelemetryConfig {
                sample_interval_ns: 100_000,
                ..TelemetryConfig::default()
            });
            let report = sim.run(1_000_000_000);
            (
                report.engine.shards,
                serde_json::to_string(&report).expect("report serializes"),
            )
        };
        let (n1, seq) = run(1);
        assert_eq!(n1, 1);
        for shards in [2, 4] {
            let (n, par) = run(shards);
            assert!(n > 1, "figure-1 topology supports {shards} shards");
            assert_eq!(seq, par, "{shards}-shard run diverged from sequential");
        }
    }

    #[test]
    fn telemetry_run_matches_plain_run_and_reports_instruments() {
        let cp = plane_with_lsp();
        let late_flow = || {
            let mut late = cbr_flow("late", 1_000_000);
            late.police = Some(crate::policer::PolicerSpec {
                rate_bps: 1_000_000,
                burst_bytes: 300,
            });
            late
        };
        let plain = {
            let mut sim = Simulation::build(
                &cp,
                RouterKind::Embedded {
                    clock: ClockSpec::STRATIX_50MHZ,
                },
                QueueDiscipline::Fifo { capacity: 64 },
                1,
            );
            sim.add_flow(cbr_flow("cbr", 100_000));
            sim.add_flow(late_flow());
            sim.run(1_000_000_000)
        };
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            1,
        );
        sim.add_flow(cbr_flow("cbr", 100_000));
        let mut sim = sim.with_telemetry(TelemetryConfig {
            sample_interval_ns: 100_000,
            ..TelemetryConfig::default()
        });
        // Flows added after conversion are instrumented too.
        sim.add_flow(late_flow());
        let report = sim.run(1_000_000_000);

        // Instrumentation must not perturb the simulation itself.
        let p = plain.flow("cbr").unwrap();
        let t = report.flow("cbr").unwrap();
        assert_eq!(p.sent, t.sent);
        assert_eq!(p.delivered, t.delivered);
        assert_eq!(p.delay_sum_ns, t.delay_sum_ns);
        assert!(plain.telemetry.is_none());

        let tel = report.telemetry.as_ref().expect("telemetry enabled");
        // Flow counters mirror FlowStats.
        assert_eq!(tel.counter("flow.cbr.sent"), Some(t.sent as f64));
        assert_eq!(tel.counter("flow.cbr.delivered"), Some(t.delivered as f64));
        let late_stats = report.flow("late").unwrap();
        assert_eq!(
            tel.counter("flow.late.policer_exceed"),
            Some(late_stats.policer_dropped as f64)
        );
        // Delay histogram saw every delivery; jitter one fewer (first
        // delivery has no predecessor).
        let delay = tel.histogram("lsp.cbr.delay_ns").unwrap();
        assert_eq!(delay.total, t.delivered);
        assert_eq!(delay.sum, t.delay_sum_ns);
        let jitter = tel.histogram("lsp.cbr.jitter_ns").unwrap();
        assert_eq!(jitter.total, t.delivered - 1);
        // Queue-depth series sampled the run.
        let depth = tel.series("link.0->2.queue_depth").unwrap();
        assert!(!depth.points.is_empty(), "periodic samples were taken");
        assert!(depth.points.last().unwrap().0 <= report.elapsed_ns);
        // FSM cycle counters and pipeline stages were scraped from the
        // ingress LER (node 0 runs the embedded modifier).
        assert!(tel.counter("node0.router.total_cycles").unwrap() > 0.0);
        assert!(tel.counter("node0.pipeline.update_cycles").unwrap() > 0.0);
        let fsm_total: f64 = tel
            .counters
            .iter()
            .filter(|c| c.name.starts_with("node0.fsm.main."))
            .map(|c| c.value)
            .sum();
        assert_eq!(fsm_total, tel.counter("node0.router.total_cycles").unwrap());
        let search = tel.histogram("node0.ib.search_depth").unwrap();
        assert!(search.total > 0, "ingress searches were recorded");
        // Start/end trace events frame the run.
        assert_eq!(tel.events.first().unwrap().name, "telemetry_start");
        assert_eq!(tel.events.last().unwrap().name, "telemetry_end");
    }

    #[test]
    fn ldp_control_converges_then_delivers() {
        let cp = plane_with_lsp();
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            1,
        );
        sim.enable_ldp(mpls_ldp::LdpConfig::default());
        // Start well after the protocol should have converged.
        let mut f = cbr_flow("cbr", 100_000);
        f.start_ns = 10_000_000;
        f.stop_ns = 20_000_000;
        sim.add_flow(f);
        let report = sim.run(30_000_000);

        assert_eq!(report.control.mode, "ldp");
        let conv = report.control.convergence_ns.expect("protocol converged");
        assert!(conv < 10_000_000, "converged late: {conv} ns");
        // Three bidirectional adjacencies on the north path alone; every
        // session counts both ends.
        assert!(report.control.sessions_established >= 6);
        assert_eq!(report.control.session_downs, 0);
        assert!(report.control.pdus_delivered > 0);
        let s = report.flow("cbr").unwrap();
        assert_eq!(s.delivered, s.sent, "post-convergence traffic delivers");
        let fibs = report.fibs.as_ref().expect("ldp run exposes its FIBs");
        assert_eq!(fibs.len(), cp.topology().nodes().len());
    }

    #[test]
    fn ldp_reconverges_around_a_link_fault() {
        let cp = plane_with_lsp();
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            1,
        );
        sim.enable_ldp(mpls_ldp::LdpConfig::default());
        // Cut the north path for good: the withdraw cascade must flip
        // traffic onto the south path with no centralized help. (The
        // plan's policy mode is deliberately not Ldp — set_fault_plan
        // must override it for a distributed run.)
        let north = cp.topology().link_between(2, 3).unwrap();
        let mut plan = crate::fault::FaultPlan::default();
        plan.link_down(20_000_000, north);
        sim.set_fault_plan(plan);
        let mut f = cbr_flow("cbr", 100_000);
        f.start_ns = 10_000_000;
        f.stop_ns = 50_000_000;
        sim.add_flow(f);
        let report = sim.run(80_000_000);

        assert_eq!(report.faults.len(), 1);
        let rec = &report.faults[0];
        assert_eq!(rec.mode, crate::fault::RecoveryMode::Ldp);
        assert_eq!(rec.down_ns, 20_000_000);
        let det = rec.detected_ns.expect("hold-timer expiry detected the cut");
        let hold = mpls_ldp::LdpConfig::default().hold_ns;
        assert!(det > 20_000_000, "detection follows the failure");
        assert!(
            det <= 20_000_000 + 2 * hold,
            "detection within two hold times: {det}"
        );
        let restored = rec.restored_ns.expect("withdraw wave reconverged");
        assert!(restored >= det);
        assert!(restored < 50_000_000, "reconverged while traffic ran");
        assert!(report.control.session_downs >= 2, "both ends expired");

        let s = report.flow("cbr").unwrap();
        assert!(s.link_dropped > 0, "stale FIB blackholed into the cut");
        assert_eq!(
            s.sent,
            s.delivered + s.link_dropped + s.router_dropped,
            "every loss is accounted to a cause"
        );
        // Traffic emitted after restoration rides the south path.
        let south_leg = report
            .links
            .iter()
            .find(|l| l.from == 4 && l.to == 5)
            .unwrap();
        assert!(south_leg.transmitted > 0, "south path carries traffic");
    }

    #[test]
    fn ldp_sharded_run_is_byte_identical_to_sequential() {
        let cp = plane_with_lsp();
        let run = |shards: usize| {
            let mut sim = Simulation::build(
                &cp,
                RouterKind::Embedded {
                    clock: ClockSpec::STRATIX_50MHZ,
                },
                QueueDiscipline::Fifo { capacity: 16 },
                42,
            );
            sim.set_shards(shards);
            sim.enable_ldp(mpls_ldp::LdpConfig::default());
            let north = cp.topology().link_between(2, 3).unwrap();
            let mut plan = crate::fault::FaultPlan::default();
            plan.outage(north, 20_000_000, 35_000_000);
            plan.random_loss(north, 0.05);
            sim.set_fault_plan(plan);
            let mut f = cbr_flow("cbr", 100_000);
            f.start_ns = 10_000_000;
            f.stop_ns = 40_000_000;
            sim.add_flow(f);
            let mut pois = cbr_flow("pois", 0);
            pois.pattern = crate::traffic::TrafficPattern::Poisson {
                mean_interval_ns: 250_000,
            };
            pois.start_ns = 10_000_000;
            pois.stop_ns = 40_000_000;
            sim.add_flow(pois);
            let sim = sim.with_telemetry(TelemetryConfig {
                sample_interval_ns: 100_000,
                ..TelemetryConfig::default()
            });
            let report = sim.run(60_000_000);
            (
                report.engine.shards,
                serde_json::to_string(&report).expect("report serializes"),
            )
        };
        let (n1, seq) = run(1);
        assert_eq!(n1, 1);
        for shards in [2, 4] {
            let (n, par) = run(shards);
            assert!(n > 1, "figure-1 topology supports {shards} shards");
            assert_eq!(seq, par, "{shards}-shard ldp run diverged");
        }
    }

    /// A run has one registry and one sample chain: a second call is
    /// refused rather than starting a second chain.
    #[test]
    #[should_panic(expected = "with_telemetry called twice")]
    fn with_telemetry_refuses_a_second_call() {
        let cp = plane_with_lsp();
        let sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            1,
        );
        let _ = sim
            .with_telemetry(TelemetryConfig::default())
            .with_telemetry(TelemetryConfig::default());
    }

    #[test]
    fn telemetry_traces_outage_lifecycle() {
        let cp = plane_with_lsp();
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            1,
        );
        let north = cp.topology().link_between(2, 3).unwrap();
        let mut plan = crate::fault::FaultPlan {
            policy: crate::fault::RestorationPolicy {
                detection_delay_ns: 500_000,
                resignal_delay_ns: 500_000,
                backoff_factor: 2,
                max_retries: 4,
                hold_down_ns: 1_000_000,
                mode: crate::fault::RecoveryMode::Restoration,
            },
            ..Default::default()
        };
        plan.outage(north, 3_000_000, 6_000_000);
        sim.set_fault_plan(plan);
        sim.add_flow(cbr_flow("cbr", 100_000));
        let report = sim
            .with_telemetry(TelemetryConfig::default())
            .run(1_000_000_000);

        let tel = report.telemetry.as_ref().unwrap();
        let at = |name: &str| {
            tel.events
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.t_ns)
                .unwrap_or_else(|| panic!("missing event {name}"))
        };
        assert_eq!(at("link_down"), 3_000_000);
        assert_eq!(at("fault_detected"), 3_500_000);
        assert_eq!(at("service_restored"), 4_000_000);
        assert_eq!(at("link_up"), 6_000_000);
        // The outage span opens at the cut and closes at restoration.
        let span = tel
            .spans
            .iter()
            .find(|s| s.name.starts_with("outage.link"))
            .expect("outage span recorded");
        assert_eq!(span.start_ns, 3_000_000);
        assert_eq!(span.end_ns, Some(4_000_000));
    }
}

//! JSON scenario schema and loader.
//!
//! A scenario file describes a complete experiment: topology, attached
//! prefixes, LSPs and tunnels to signal, traffic flows, router kind,
//! queue discipline, seed and horizon. `mpls-sim run <file>` executes it
//! and prints the per-flow report.

use mpls_control::{ControlPlane, LinkId, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_net::policer::PolicerSpec;
use mpls_net::subscriber::{SlaClass, SubscriberModel};
use mpls_net::traffic::{ClosedLoopSpec, FlowSpec, TrafficPattern};
use mpls_net::{
    FaultPlan, LdpConfig, QueueDiscipline, RecoveryMode, RestorationPolicy, RouterKind, Simulation,
    TelemetryConfig,
};
use mpls_packet::ipv4::parse_addr;
use mpls_packet::CosBits;
use mpls_router::SwTimingModel;
use mpls_sr::SrConfig;
use serde::{Deserialize, Serialize};

/// Errors while loading or running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// I/O failure reading the file.
    Io(std::io::Error),
    /// Malformed JSON or schema violation.
    Parse(serde_json::Error),
    /// Semantically invalid content.
    Invalid(String),
    /// LSP/tunnel signaling failed.
    Signal(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "cannot read scenario: {e}"),
            Self::Parse(e) => write!(f, "cannot parse scenario: {e}"),
            Self::Invalid(m) => write!(f, "invalid scenario: {m}"),
            Self::Signal(m) => write!(f, "signaling failed: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn parse_prefix(s: &str) -> Result<Prefix, ScenarioError> {
    let (addr, len) = s
        .split_once('/')
        .ok_or_else(|| ScenarioError::Invalid(format!("prefix {s:?} missing /len")))?;
    let addr =
        parse_addr(addr).ok_or_else(|| ScenarioError::Invalid(format!("bad address in {s:?}")))?;
    let len: u8 = len
        .parse()
        .map_err(|_| ScenarioError::Invalid(format!("bad length in {s:?}")))?;
    if len > 32 {
        return Err(ScenarioError::Invalid(format!("/{len} > 32 in {s:?}")));
    }
    Ok(Prefix::new(addr, len))
}

fn parse_ip(s: &str) -> Result<u32, ScenarioError> {
    parse_addr(s).ok_or_else(|| ScenarioError::Invalid(format!("bad address {s:?}")))
}

/// Top-level scenario document.
///
/// Implements `Serialize` as well: the chaos harness shrinks failing
/// scenarios and re-emits them as standalone repro files for
/// `mpls-sim run`.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// Nodes of the topology. May be empty when a `topology` section
    /// synthesizes the graph instead.
    #[serde(default)]
    pub nodes: Vec<NodeDecl>,
    /// Bidirectional links.
    #[serde(default)]
    pub links: Vec<LinkDecl>,
    /// Parametric topology synthesis: instead of enumerating nodes,
    /// links and LSPs, name a family (`"fat_tree"`, `"ring_of_rings"`)
    /// at a width and an LSP volume, and the streaming generator
    /// derives the whole workload from the scenario seed. Mutually
    /// exclusive with explicit `nodes`/`links`/`lsps`/`attached`.
    #[serde(default)]
    pub topology: Option<TopologyDecl>,
    /// Prefixes attached behind LERs (delivered locally).
    #[serde(default)]
    pub attached: Vec<AttachDecl>,
    /// LSPs to signal, in order.
    #[serde(default)]
    pub lsps: Vec<LspDecl>,
    /// Traffic flows.
    #[serde(default)]
    pub flows: Vec<FlowDecl>,
    /// Subscriber populations, each expanded into one closed-loop flow
    /// per SLA class (diurnal load, flash crowds, per-class CoS and
    /// FCT SLAs). Expanded flows follow the explicit `flows` in id
    /// order and are named `"<population>/<class>"`.
    #[serde(default)]
    pub subscribers: Vec<SubscriberDecl>,
    /// Router implementation.
    #[serde(default)]
    pub router: RouterDecl,
    /// Queue discipline.
    #[serde(default)]
    pub queue: QueueDecl,
    /// Runtime fault injection and restoration policy.
    #[serde(default)]
    pub faults: Option<FaultsDecl>,
    /// Control plane: `"centralized"` (default, the omniscient solver
    /// programs every node before t=0), `"ldp"` (nodes discover labels
    /// in-band by exchanging LDP PDUs over the simulated links), or
    /// `"sr"` (segment routing: per-node SIDs from an SRGB, source
    /// routes compiled at the ingress, no per-LSP transit state;
    /// `--control` overrides).
    #[serde(default)]
    pub control: Option<String>,
    /// LDP protocol timers, used when the control mode is `"ldp"`.
    #[serde(default)]
    pub ldp: Option<LdpDecl>,
    /// Segment-routing knobs, used when the control mode is `"sr"`.
    #[serde(default)]
    pub sr: Option<SrDecl>,
    /// Metrics collection. Omitting the section runs without telemetry
    /// (zero overhead); `--metrics-out` forces it on regardless.
    #[serde(default)]
    pub telemetry: Option<TelemetryDecl>,
    /// RNG seed.
    #[serde(default)]
    pub seed: u64,
    /// Simulated horizon in milliseconds.
    #[serde(default = "default_horizon_ms")]
    pub horizon_ms: u64,
    /// Engine shard count (default 1; `--shards` overrides). The report
    /// is identical at any value — sharding only trades wall-clock time.
    #[serde(default)]
    pub shards: Option<usize>,
}

fn default_horizon_ms() -> u64 {
    1000
}

/// The resolved control-plane mode of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlChoice {
    /// The omniscient solver programs every node before t=0.
    Centralized,
    /// Nodes discover labels in-band over LDP sessions.
    Ldp,
    /// Segment routing: compiled source routes, no transit LSP state.
    Sr,
}

/// A synthesized-topology workload (see [`mpls_net::ScaleSpec`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TopologyDecl {
    /// `"fat_tree"` or `"ring_of_rings"`.
    pub family: String,
    /// Fat-tree arity (even; default 4).
    #[serde(default = "default_k")]
    pub k: u32,
    /// LERs under each fat-tree edge switch (default 2).
    #[serde(default = "default_lers_per_edge")]
    pub lers_per_edge: u32,
    /// Backbone gateways for ring-of-rings (default 8).
    #[serde(default = "default_rings")]
    pub rings: u32,
    /// LERs per local ring (default 4).
    #[serde(default = "default_ring_size")]
    pub ring_size: u32,
    /// LSPs to signal, each riding a hierarchical tunnel with PHP.
    pub lsps_total: usize,
    /// Tunnel mesh density (stride classes per anchor; default 2).
    #[serde(default = "default_strides")]
    pub tunnel_strides: u32,
    /// Traffic flows over a sampled subset of the LSPs (default 0).
    #[serde(default)]
    pub flows: usize,
    /// Payload bytes per generated flow packet (default 256).
    #[serde(default = "default_scale_payload")]
    pub payload_bytes: usize,
    /// CBR inter-packet gap per generated flow, µs (default 100).
    #[serde(default = "default_scale_interval_us")]
    pub flow_interval_us: u64,
    /// Generated flows start at this time, ms (default 0).
    #[serde(default)]
    pub flow_start_ms: u64,
    /// Generated flows stop at this time, ms (default 50).
    #[serde(default = "default_scale_stop_ms")]
    pub flow_stop_ms: u64,
    /// Capacity of every synthesized link, Mb/s (default 10000).
    #[serde(default = "default_scale_bw_mbps")]
    pub bandwidth_mbps: u64,
    /// One-way delay of every synthesized link, µs (default 10).
    #[serde(default = "default_scale_delay_us")]
    pub delay_us: u64,
}

fn default_k() -> u32 {
    4
}
fn default_lers_per_edge() -> u32 {
    2
}
fn default_rings() -> u32 {
    8
}
fn default_ring_size() -> u32 {
    4
}
fn default_strides() -> u32 {
    2
}
fn default_scale_payload() -> usize {
    256
}
fn default_scale_interval_us() -> u64 {
    100
}
fn default_scale_stop_ms() -> u64 {
    50
}
fn default_scale_bw_mbps() -> u64 {
    10_000
}
fn default_scale_delay_us() -> u64 {
    10
}

impl TopologyDecl {
    /// Resolves to the streaming generator's spec; `seed` is the
    /// scenario seed, so the whole workload derives from it.
    pub fn to_spec(&self, seed: u64) -> Result<mpls_net::ScaleSpec, ScenarioError> {
        let family = match self.family.to_ascii_lowercase().as_str() {
            "fat_tree" => mpls_net::ScaleFamily::FatTree {
                k: self.k,
                lers_per_edge: self.lers_per_edge,
            },
            "ring_of_rings" => mpls_net::ScaleFamily::RingOfRings {
                rings: self.rings,
                ring_size: self.ring_size,
            },
            other => {
                return Err(ScenarioError::Invalid(format!(
                    "unknown topology family {other:?} (use \"fat_tree\" or \"ring_of_rings\")"
                )))
            }
        };
        Ok(mpls_net::ScaleSpec {
            family,
            lsps_total: self.lsps_total,
            tunnel_strides: self.tunnel_strides,
            flows: self.flows,
            payload_bytes: self.payload_bytes,
            flow_interval_ns: self.flow_interval_us * 1_000,
            flow_start_ns: self.flow_start_ms * 1_000_000,
            flow_stop_ns: self.flow_stop_ms * 1_000_000,
            bandwidth_bps: self.bandwidth_mbps * 1_000_000,
            delay_ns: self.delay_us * 1_000,
            seed,
        })
    }
}

/// One node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeDecl {
    /// Node id.
    pub id: u32,
    /// `"ler"` or `"lsr"`.
    pub role: String,
    /// Display name.
    #[serde(default)]
    pub name: Option<String>,
    /// Shard placement hint (taken modulo the shard count). Unhinted
    /// nodes fill contiguous blocks in declaration order.
    #[serde(default)]
    pub shard: Option<usize>,
}

/// One bidirectional link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkDecl {
    /// Endpoint A.
    pub a: u32,
    /// Endpoint B.
    pub b: u32,
    /// Routing cost (default 1).
    #[serde(default = "one")]
    pub cost: u32,
    /// Capacity in Mb/s.
    pub bandwidth_mbps: u64,
    /// One-way propagation delay in microseconds.
    pub delay_us: u64,
}

fn one() -> u32 {
    1
}

/// A locally attached prefix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttachDecl {
    /// The owning LER.
    pub node: u32,
    /// Prefix, e.g. `"192.168.1.0/24"`.
    pub prefix: String,
}

/// One LSP request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LspDecl {
    /// Ingress LER.
    pub ingress: u32,
    /// Egress LER.
    pub egress: u32,
    /// FEC prefix.
    pub fec: String,
    /// CoS 0–7 (default 0).
    #[serde(default)]
    pub cos: u8,
    /// Reserved bandwidth in Mb/s (default 0 = best effort).
    #[serde(default)]
    pub bandwidth_mbps: u64,
    /// Pinned route (node ids), optional.
    #[serde(default)]
    pub explicit_route: Option<Vec<u32>>,
    /// Penultimate-hop popping.
    #[serde(default)]
    pub php: bool,
    /// Pre-signal a link-disjoint standby backup (1:1 path protection).
    #[serde(default)]
    pub protected: bool,
}

/// Fault injection section: scheduled link events, random loss, and the
/// detection/recovery timing model.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultsDecl {
    /// Scheduled link state changes.
    #[serde(default)]
    pub events: Vec<FaultEventDecl>,
    /// Per-link random wire loss.
    #[serde(default)]
    pub loss: Vec<LinkLossDecl>,
    /// Per-link control-PDU chaos windows (loss/duplication/reorder/
    /// corruption of LDP PDUs only; data traffic is untouched).
    #[serde(default)]
    pub pdu_chaos: Vec<PduChaosDecl>,
    /// Failure-detection delay in microseconds (default 1000).
    #[serde(default = "thousand")]
    pub detection_delay_us: u64,
    /// Latency of one signaling attempt in microseconds (default 1000).
    #[serde(default = "thousand")]
    pub resignal_delay_us: u64,
    /// Exponential backoff multiplier between attempts (default 2).
    #[serde(default = "two")]
    pub backoff_factor: u32,
    /// Re-signal attempts after the first (default 8).
    #[serde(default = "eight")]
    pub max_retries: u32,
    /// Hold-down after physical repair, in milliseconds (default 5).
    #[serde(default = "five")]
    pub hold_down_ms: u64,
    /// `"none"`, `"restoration"` or `"protection"` (default
    /// `"restoration"`).
    #[serde(default = "default_recovery")]
    pub recovery: String,
}

impl Default for FaultsDecl {
    /// Matches the serde field defaults (an empty `"faults": {}` section).
    fn default() -> Self {
        Self {
            events: Vec::new(),
            loss: Vec::new(),
            pdu_chaos: Vec::new(),
            detection_delay_us: thousand(),
            resignal_delay_us: thousand(),
            backoff_factor: two(),
            max_retries: eight(),
            hold_down_ms: five(),
            recovery: default_recovery(),
        }
    }
}

fn thousand() -> u64 {
    1000
}
fn two() -> u32 {
    2
}
fn eight() -> u32 {
    8
}
fn five() -> u64 {
    5
}
fn default_recovery() -> String {
    "restoration".into()
}

/// LDP timer section.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LdpDecl {
    /// Hello/keepalive interval in microseconds (default 1000).
    #[serde(default = "thousand")]
    pub hello_interval_us: u64,
    /// Session hold time in microseconds (default 3500). A session with
    /// no PDU received for this long is torn down — this bounds failure
    /// detection.
    #[serde(default = "ldp_hold_us")]
    pub hold_us: u64,
    /// Cap on the re-initialization backoff exponent (default 5): the
    /// n-th unanswered attempt waits
    /// `max(hello_interval << min(n, cap), hold)` with ±25% jitter.
    #[serde(default = "ldp_backoff_exp")]
    pub max_backoff_exp: u32,
    /// Seed for the deterministic backoff jitter (default 0).
    #[serde(default)]
    pub jitter_seed: u64,
    /// Liberal retention TTL in microseconds (default 0 = conservative
    /// retention): bindings from a dead session keep serving traffic
    /// this long unless refreshed first.
    #[serde(default)]
    pub stale_ttl_us: u64,
}

impl Default for LdpDecl {
    /// Matches the serde field defaults (an empty `"ldp": {}` section).
    fn default() -> Self {
        Self {
            hello_interval_us: thousand(),
            hold_us: ldp_hold_us(),
            max_backoff_exp: ldp_backoff_exp(),
            jitter_seed: 0,
            stale_ttl_us: 0,
        }
    }
}

fn ldp_hold_us() -> u64 {
    3500
}
fn ldp_backoff_exp() -> u32 {
    LdpConfig::default().max_backoff_exp
}

/// Segment-routing section: SRGB placement, stack-depth budgets, and
/// the metadata LSEs the ingress appends below the source route.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SrDecl {
    /// First label of the Segment Routing Global Block (default 16000).
    #[serde(default = "sr_srgb_base")]
    pub srgb_base: u32,
    /// Readable Label Depth programmed into every node (default: the
    /// full wire stack).
    #[serde(default = "sr_depth")]
    pub rld: u8,
    /// Maximum labels an ingress pushes at once; longer routes get
    /// loose-hop compressed (default: the full wire stack).
    #[serde(default = "sr_depth")]
    pub max_push_depth: u8,
    /// Append an RFC 6790 ELI/EL entropy pair (default true).
    #[serde(default = "truthy")]
    pub entropy: bool,
    /// Append a minimal MNA network-action sub-stack (default false).
    #[serde(default)]
    pub mna: bool,
}

impl Default for SrDecl {
    /// Matches the serde field defaults (an empty `"sr": {}` section).
    fn default() -> Self {
        Self {
            srgb_base: sr_srgb_base(),
            rld: sr_depth(),
            max_push_depth: sr_depth(),
            entropy: true,
            mna: false,
        }
    }
}

fn sr_srgb_base() -> u32 {
    SrConfig::default().srgb_base
}
fn sr_depth() -> u8 {
    mpls_packet::MAX_STACK_DEPTH as u8
}

/// Telemetry section: turns on the instrument registry for the run and
/// tunes its sampling.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TelemetryDecl {
    /// Collect metrics for this run (default true when the section is
    /// present; a disabled section is handy for A/B-ing a scenario file).
    #[serde(default = "truthy")]
    pub enabled: bool,
    /// Spacing of queue-depth/utilization samples in microseconds
    /// (default 100).
    #[serde(default = "hundred")]
    pub sample_interval_us: u64,
    /// Points per time series before downsampling (default 4096).
    #[serde(default = "default_series_capacity")]
    pub series_capacity: usize,
    /// Trace event capacity (default 1024).
    #[serde(default = "default_event_capacity")]
    pub event_capacity: usize,
}

impl Default for TelemetryDecl {
    /// Matches the serde field defaults (an empty `"telemetry": {}`
    /// section).
    fn default() -> Self {
        Self {
            enabled: truthy(),
            sample_interval_us: hundred(),
            series_capacity: default_series_capacity(),
            event_capacity: default_event_capacity(),
        }
    }
}

fn truthy() -> bool {
    true
}
fn hundred() -> u64 {
    100
}
fn default_series_capacity() -> usize {
    TelemetryConfig::default().series_capacity
}
fn default_event_capacity() -> usize {
    TelemetryConfig::default().event_capacity
}

/// One scheduled link transition.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultEventDecl {
    /// The link between `a` and `b` fails at `at_ms`.
    LinkDown {
        /// When, in milliseconds.
        at_ms: u64,
        /// Endpoint A.
        a: u32,
        /// Endpoint B.
        b: u32,
    },
    /// The link between `a` and `b` is repaired at `at_ms`.
    LinkUp {
        /// When, in milliseconds.
        at_ms: u64,
        /// Endpoint A.
        a: u32,
        /// Endpoint B.
        b: u32,
    },
    /// `node` crashes at `at_ms`: full state loss, sessions torn down,
    /// incident links dark, FIB cold until re-learned.
    NodeDown {
        /// When, in milliseconds.
        at_ms: u64,
        /// The crashing node.
        node: u32,
    },
    /// `node` restarts at `at_ms` and rejoins with a cold FIB.
    NodeUp {
        /// When, in milliseconds.
        at_ms: u64,
        /// The restarting node.
        node: u32,
    },
    /// Control-channel partition on the link between `a` and `b` begins
    /// at `at_ms`: control PDUs drop, data traffic keeps flowing.
    PartitionStart {
        /// When, in milliseconds.
        at_ms: u64,
        /// Endpoint A.
        a: u32,
        /// Endpoint B.
        b: u32,
    },
    /// The control-channel partition between `a` and `b` heals at `at_ms`.
    PartitionEnd {
        /// When, in milliseconds.
        at_ms: u64,
        /// Endpoint A.
        a: u32,
        /// Endpoint B.
        b: u32,
    },
}

/// Random wire loss on one link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkLossDecl {
    /// Endpoint A.
    pub a: u32,
    /// Endpoint B.
    pub b: u32,
    /// Per-packet loss probability (0.0–1.0).
    pub probability: f64,
}

/// One control-PDU chaos window on one link. Each probability is drawn
/// independently per PDU from a seeded per-link stream, so the same
/// scenario always misbehaves identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PduChaosDecl {
    /// Endpoint A.
    pub a: u32,
    /// Endpoint B.
    pub b: u32,
    /// Per-PDU drop probability (0.0–1.0, default 0).
    #[serde(default)]
    pub loss: f64,
    /// Per-PDU duplication probability (default 0).
    #[serde(default)]
    pub duplicate: f64,
    /// Per-PDU reorder (extra-delay) probability (default 0).
    #[serde(default)]
    pub reorder: f64,
    /// Per-PDU byte-corruption probability (default 0).
    #[serde(default)]
    pub corrupt: f64,
    /// Window start, ms (default 0).
    #[serde(default)]
    pub from_ms: u64,
    /// Window end, ms.
    pub until_ms: u64,
}

/// One traffic flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowDecl {
    /// Flow name for the report.
    pub name: String,
    /// Ingress LER.
    pub ingress: u32,
    /// Source address.
    pub src: String,
    /// Destination address.
    pub dst: String,
    /// Payload bytes per packet.
    pub payload_bytes: usize,
    /// IP precedence 0–7 (default 0).
    #[serde(default)]
    pub precedence: u8,
    /// Traffic pattern.
    pub pattern: PatternDecl,
    /// Start time, ms (default 0).
    #[serde(default)]
    pub start_ms: u64,
    /// Stop time, ms.
    pub stop_ms: u64,
    /// Optional edge policer.
    #[serde(default)]
    pub police: Option<PoliceDecl>,
}

/// Traffic pattern declaration.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PatternDecl {
    /// Constant bit rate.
    Cbr {
        /// Inter-packet gap in microseconds.
        interval_us: u64,
    },
    /// Poisson arrivals.
    Poisson {
        /// Mean inter-packet gap in microseconds.
        mean_interval_us: u64,
    },
    /// Bursty on/off.
    OnOff {
        /// Burst length (µs).
        on_us: u64,
        /// Silence length (µs).
        off_us: u64,
        /// In-burst gap (µs).
        interval_us: u64,
    },
    /// Closed-loop congestion-controlled transfers (AIMD window,
    /// ECN-style marks, ack-clocked by reverse-path delivery). Fields
    /// mirror [`ClosedLoopDecl`]; serde's internally-tagged enums
    /// can't wrap a struct, so they are spelled out here.
    ClosedLoop {
        /// Mean transfer-arrival gap (µs) at the diurnal peak.
        #[serde(default = "default_cl_arrival_us")]
        mean_arrival_us: u64,
        /// Smallest transfer size in packets.
        #[serde(default = "default_cl_size_min")]
        size_min_pkts: u64,
        /// Largest transfer size in packets.
        #[serde(default = "default_cl_size_max")]
        size_max_pkts: u64,
        /// Pareto shape α in milli-units.
        #[serde(default = "default_cl_alpha_milli")]
        size_alpha_milli: u32,
        /// Congestion-window ceiling in packets.
        #[serde(default = "default_cl_max_cwnd")]
        max_cwnd: u64,
        /// Retransmission timeout (µs).
        #[serde(default = "default_cl_rto_us")]
        rto_us: u64,
        /// ECN-mark queue-depth threshold (0 disables).
        #[serde(default = "default_cl_ecn_threshold")]
        ecn_threshold: u32,
        /// Minimum emission gap (µs).
        #[serde(default = "default_cl_pacing_us")]
        pacing_us: u64,
        /// Flow-completion-time SLA (ms, 0 disables).
        #[serde(default)]
        sla_fct_ms: u64,
        /// Diurnal period (ms, 0 disables).
        #[serde(default)]
        diurnal_period_ms: u64,
        /// Trough rate, percent of peak.
        #[serde(default = "default_hundred_u8")]
        diurnal_trough_pct: u8,
        /// Flash-crowd start (ms).
        #[serde(default)]
        flash_start_ms: u64,
        /// Flash-crowd length (ms, 0 disables).
        #[serde(default)]
        flash_duration_ms: u64,
        /// Flash rate multiplier, percent.
        #[serde(default = "default_hundred_u32")]
        flash_multiplier_pct: u32,
    },
}

/// Knobs for a closed-loop pattern; every field except the arrival
/// rate defaults to the library's [`ClosedLoopSpec`] defaults.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClosedLoopDecl {
    /// Mean transfer-arrival gap (µs) at the diurnal peak.
    #[serde(default = "default_cl_arrival_us")]
    pub mean_arrival_us: u64,
    /// Smallest transfer size in packets.
    #[serde(default = "default_cl_size_min")]
    pub size_min_pkts: u64,
    /// Largest transfer size in packets (bounded-Pareto upper cut).
    #[serde(default = "default_cl_size_max")]
    pub size_max_pkts: u64,
    /// Pareto shape α in milli-units (1200 = α 1.2, heavy-tailed).
    #[serde(default = "default_cl_alpha_milli")]
    pub size_alpha_milli: u32,
    /// Congestion-window ceiling in packets.
    #[serde(default = "default_cl_max_cwnd")]
    pub max_cwnd: u64,
    /// Retransmission timeout (µs).
    #[serde(default = "default_cl_rto_us")]
    pub rto_us: u64,
    /// Queue depth at which packets are ECN-marked (0 disables).
    #[serde(default = "default_cl_ecn_threshold")]
    pub ecn_threshold: u32,
    /// Minimum gap between a flow's back-to-back emissions (µs).
    #[serde(default = "default_cl_pacing_us")]
    pub pacing_us: u64,
    /// Flow-completion-time SLA (ms, 0 disables).
    #[serde(default)]
    pub sla_fct_ms: u64,
    /// Diurnal rate-curve period (ms, 0 disables).
    #[serde(default)]
    pub diurnal_period_ms: u64,
    /// Arrival rate at the diurnal trough, percent of peak.
    #[serde(default = "default_hundred_u8")]
    pub diurnal_trough_pct: u8,
    /// Flash-crowd window start (ms).
    #[serde(default)]
    pub flash_start_ms: u64,
    /// Flash-crowd window length (ms, 0 disables).
    #[serde(default)]
    pub flash_duration_ms: u64,
    /// Arrival-rate multiplier inside the flash window, percent.
    #[serde(default = "default_hundred_u32")]
    pub flash_multiplier_pct: u32,
}

fn default_cl_arrival_us() -> u64 {
    2_000
}
fn default_cl_size_min() -> u64 {
    4
}
fn default_cl_size_max() -> u64 {
    256
}
fn default_cl_alpha_milli() -> u32 {
    1_200
}
fn default_cl_max_cwnd() -> u64 {
    32
}
fn default_cl_rto_us() -> u64 {
    20_000
}
fn default_cl_ecn_threshold() -> u32 {
    16
}
fn default_cl_pacing_us() -> u64 {
    2
}
fn default_hundred_u8() -> u8 {
    100
}
fn default_hundred_u32() -> u32 {
    100
}

impl Default for ClosedLoopDecl {
    fn default() -> Self {
        Self {
            mean_arrival_us: default_cl_arrival_us(),
            size_min_pkts: default_cl_size_min(),
            size_max_pkts: default_cl_size_max(),
            size_alpha_milli: default_cl_alpha_milli(),
            max_cwnd: default_cl_max_cwnd(),
            rto_us: default_cl_rto_us(),
            ecn_threshold: default_cl_ecn_threshold(),
            pacing_us: default_cl_pacing_us(),
            sla_fct_ms: 0,
            diurnal_period_ms: 0,
            diurnal_trough_pct: 100,
            flash_start_ms: 0,
            flash_duration_ms: 0,
            flash_multiplier_pct: 100,
        }
    }
}

impl ClosedLoopDecl {
    fn to_spec(self) -> ClosedLoopSpec {
        ClosedLoopSpec {
            mean_arrival_ns: self.mean_arrival_us * 1_000,
            size_min_pkts: self.size_min_pkts,
            size_max_pkts: self.size_max_pkts,
            size_alpha_milli: self.size_alpha_milli,
            max_cwnd: self.max_cwnd,
            rto_ns: self.rto_us * 1_000,
            ecn_threshold: self.ecn_threshold,
            pacing_ns: self.pacing_us * 1_000,
            sla_fct_ns: self.sla_fct_ms * 1_000_000,
            diurnal_period_ns: self.diurnal_period_ms * 1_000_000,
            diurnal_trough_pct: self.diurnal_trough_pct,
            flash_start_ns: self.flash_start_ms * 1_000_000,
            flash_duration_ns: self.flash_duration_ms * 1_000_000,
            flash_multiplier_pct: self.flash_multiplier_pct,
        }
    }
}

/// One subscriber population: a count of subscribers behind an ingress
/// LER, split into SLA classes, each class expanded into one aggregate
/// closed-loop flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubscriberDecl {
    /// Population name; expanded flows are `"<name>/<class>"`.
    pub name: String,
    /// Ingress LER.
    pub ingress: u32,
    /// Source address for the population's traffic.
    pub src: String,
    /// Destination address.
    pub dst: String,
    /// Population size.
    pub subscribers: u64,
    /// Mean per-subscriber think time between transfers (ms) at the
    /// diurnal peak.
    #[serde(default = "default_think_ms")]
    pub mean_think_ms: u64,
    /// Shared closed-loop knobs (transfer sizes, congestion control,
    /// diurnal curve, flash crowd). `mean_arrival_us` and `sla_fct_ms`
    /// here are ignored: the arrival rate comes from the population
    /// and the SLA from each class.
    #[serde(default)]
    pub base: ClosedLoopDecl,
    /// Service tiers; empty means the built-in three-tier
    /// residential mix (gold/silver/bronze).
    #[serde(default)]
    pub classes: Vec<ClassDecl>,
    /// Start time, ms (default 0).
    #[serde(default)]
    pub start_ms: u64,
    /// Stop time, ms.
    pub stop_ms: u64,
}

fn default_think_ms() -> u64 {
    1_000
}

/// One SLA class of a subscriber population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// IP precedence 0–7 (default 0) — the CoS hook.
    #[serde(default)]
    pub precedence: u8,
    /// Share of the population in this class, percent.
    pub weight_pct: u32,
    /// Flow-completion-time SLA (ms, 0 disables).
    #[serde(default)]
    pub sla_fct_ms: u64,
    /// Payload bytes per packet for this class.
    pub payload_bytes: usize,
}

/// Edge policer declaration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoliceDecl {
    /// Committed rate in Mb/s.
    pub rate_mbps: u64,
    /// Burst tolerance in bytes.
    pub burst_bytes: u64,
}

/// Router implementation declaration.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum RouterDecl {
    /// The cycle-accurate embedded router.
    Embedded {
        /// FPGA clock in MHz (default 50).
        #[serde(default = "fifty")]
        clock_mhz: f64,
    },
    /// Software router with hash lookups.
    SoftwareHash,
    /// Software router with linear lookups.
    SoftwareLinear,
    /// Software fast path: hash FIB with canonical (linear-equivalent)
    /// probe counts plus a per-ingress flow cache. Reports are
    /// byte-identical to `software_linear`; only the host runs faster.
    /// `MPLS_SIM_FLOW_CACHE=0` disables the cache,
    /// `MPLS_SIM_DIFF_LOOKUP=1` cross-checks every lookup against a
    /// shadow linear table.
    SoftwareFast,
}

fn fifty() -> f64 {
    50.0
}

impl Default for RouterDecl {
    fn default() -> Self {
        RouterDecl::Embedded { clock_mhz: 50.0 }
    }
}

/// Queue discipline declaration.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum QueueDecl {
    /// Tail-drop FIFO.
    Fifo {
        /// Capacity in packets.
        capacity: usize,
    },
    /// Strict priority by CoS.
    CosPriority {
        /// Capacity per class.
        per_class: usize,
    },
    /// Random early detection.
    Red {
        /// Hard capacity.
        capacity: usize,
        /// Early-drop onset.
        min_th: usize,
        /// Full-drop threshold.
        max_th: usize,
        /// Max drop probability in percent.
        max_p_percent: u8,
    },
}

impl Default for QueueDecl {
    fn default() -> Self {
        QueueDecl::Fifo { capacity: 64 }
    }
}

impl Scenario {
    /// Parses a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(text).map_err(ScenarioError::Parse)
    }

    /// Loads a scenario from a file.
    pub fn load(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(ScenarioError::Io)?;
        Self::from_json(&text)
    }

    /// Builds the control plane: topology, attachments, LSPs.
    pub fn build_control_plane(&self) -> Result<ControlPlane, ScenarioError> {
        if let Some(t) = &self.topology {
            if !self.nodes.is_empty() || !self.links.is_empty() {
                return Err(ScenarioError::Invalid(
                    "a topology section synthesizes the graph; drop explicit nodes/links".into(),
                ));
            }
            if !self.lsps.is_empty() || !self.attached.is_empty() {
                return Err(ScenarioError::Invalid(
                    "a topology section synthesizes the workload; drop explicit lsps/attached"
                        .into(),
                ));
            }
            let w = t
                .to_spec(self.seed)?
                .build()
                .map_err(|e| ScenarioError::Signal(format!("scale workload: {e:?}")))?;
            return Ok(w.cp);
        }
        if self.nodes.is_empty() {
            return Err(ScenarioError::Invalid(
                "scenario needs nodes or a topology section".into(),
            ));
        }
        let mut topo = Topology::new();
        for n in &self.nodes {
            let role = match n.role.to_ascii_lowercase().as_str() {
                "ler" => RouterRole::Ler,
                "lsr" => RouterRole::Lsr,
                other => {
                    return Err(ScenarioError::Invalid(format!(
                        "node {}: unknown role {other:?} (use \"ler\" or \"lsr\")",
                        n.id
                    )))
                }
            };
            let name = n.name.clone().unwrap_or_else(|| format!("node-{}", n.id));
            topo.add_node(n.id, role, name);
        }
        for l in &self.links {
            topo.add_link(LinkSpec {
                a: l.a,
                b: l.b,
                cost: l.cost,
                bandwidth_bps: l.bandwidth_mbps * 1_000_000,
                delay_ns: l.delay_us * 1_000,
            });
        }
        let mut cp = ControlPlane::new(topo);
        for a in &self.attached {
            cp.attach_prefix(a.node, parse_prefix(&a.prefix)?);
        }
        for (i, l) in self.lsps.iter().enumerate() {
            let req = LspRequest {
                ingress: l.ingress,
                egress: l.egress,
                fec: parse_prefix(&l.fec)?,
                cos: CosBits::new(l.cos)
                    .map_err(|e| ScenarioError::Invalid(format!("lsp #{i}: {e}")))?,
                bandwidth_bps: l.bandwidth_mbps * 1_000_000,
                explicit_route: l.explicit_route.clone(),
                php: l.php,
            };
            let id = cp
                .establish_lsp(req)
                .map_err(|e| ScenarioError::Signal(format!("lsp #{i}: {e:?}")))?;
            if l.protected {
                cp.protect_lsp(id)
                    .map_err(|e| ScenarioError::Signal(format!("lsp #{i} backup: {e:?}")))?;
            }
        }
        Ok(cp)
    }

    /// Translates the `faults` section against the built control plane
    /// (link endpoints resolve to link ids there).
    pub fn fault_plan(&self, cp: &ControlPlane) -> Result<Option<FaultPlan>, ScenarioError> {
        let Some(f) = &self.faults else {
            return Ok(None);
        };
        let mode = match f.recovery.to_ascii_lowercase().as_str() {
            "none" => RecoveryMode::None,
            "restoration" => RecoveryMode::Restoration,
            "protection" => RecoveryMode::Protection,
            other => {
                return Err(ScenarioError::Invalid(format!(
                    "unknown recovery {other:?} (use \"none\", \"restoration\" or \"protection\")"
                )))
            }
        };
        let link_of = |a: u32, b: u32| -> Result<LinkId, ScenarioError> {
            cp.topology()
                .link_between(a, b)
                .ok_or_else(|| ScenarioError::Invalid(format!("no link between {a} and {b}")))
        };
        let mut plan = FaultPlan::new(RestorationPolicy {
            detection_delay_ns: f.detection_delay_us * 1_000,
            resignal_delay_ns: f.resignal_delay_us * 1_000,
            backoff_factor: f.backoff_factor,
            max_retries: f.max_retries,
            hold_down_ns: f.hold_down_ms * 1_000_000,
            mode,
        });
        let node_of = |n: u32| -> Result<u32, ScenarioError> {
            if cp.topology().node(n).is_some() {
                Ok(n)
            } else {
                Err(ScenarioError::Invalid(format!("no node {n}")))
            }
        };
        for ev in &f.events {
            match *ev {
                FaultEventDecl::LinkDown { at_ms, a, b } => {
                    plan.link_down(at_ms * 1_000_000, link_of(a, b)?);
                }
                FaultEventDecl::LinkUp { at_ms, a, b } => {
                    plan.link_up(at_ms * 1_000_000, link_of(a, b)?);
                }
                FaultEventDecl::NodeDown { at_ms, node } => {
                    plan.node_down(at_ms * 1_000_000, node_of(node)?);
                }
                FaultEventDecl::NodeUp { at_ms, node } => {
                    plan.node_up(at_ms * 1_000_000, node_of(node)?);
                }
                FaultEventDecl::PartitionStart { at_ms, a, b } => {
                    // Window builders demand start < end; scheduled
                    // endpoints arrive separately here, so push the raw
                    // events instead.
                    plan.partition_start(at_ms * 1_000_000, link_of(a, b)?);
                }
                FaultEventDecl::PartitionEnd { at_ms, a, b } => {
                    plan.partition_end(at_ms * 1_000_000, link_of(a, b)?);
                }
            }
        }
        for l in &f.loss {
            if !(0.0..=1.0).contains(&l.probability) {
                return Err(ScenarioError::Invalid(format!(
                    "loss probability {} out of [0, 1]",
                    l.probability
                )));
            }
            plan.random_loss(link_of(l.a, l.b)?, l.probability);
        }
        for c in &f.pdu_chaos {
            for (name, p) in [
                ("loss", c.loss),
                ("duplicate", c.duplicate),
                ("reorder", c.reorder),
                ("corrupt", c.corrupt),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(ScenarioError::Invalid(format!(
                        "pdu_chaos {name} probability {p} out of [0, 1]"
                    )));
                }
            }
            if c.from_ms >= c.until_ms {
                return Err(ScenarioError::Invalid(format!(
                    "pdu_chaos window [{}, {}) is empty",
                    c.from_ms, c.until_ms
                )));
            }
            plan.pdu_chaos(mpls_net::PduChaos {
                link: link_of(c.a, c.b)?,
                loss: c.loss,
                duplicate: c.duplicate,
                reorder: c.reorder,
                corrupt: c.corrupt,
                from_ns: c.from_ms * 1_000_000,
                until_ns: c.until_ms * 1_000_000,
            });
        }
        Ok(Some(plan))
    }

    /// The router kind.
    pub fn router_kind(&self) -> RouterKind {
        match self.router {
            RouterDecl::Embedded { clock_mhz } => RouterKind::Embedded {
                clock: ClockSpec {
                    freq_hz: clock_mhz * 1e6,
                    device: "scenario clock",
                },
            },
            RouterDecl::SoftwareHash => RouterKind::SoftwareHash {
                timing: SwTimingModel::default(),
            },
            RouterDecl::SoftwareLinear => RouterKind::SoftwareLinear {
                timing: SwTimingModel::default(),
            },
            RouterDecl::SoftwareFast => RouterKind::SoftwareFast {
                timing: SwTimingModel::default(),
                cache: true,
            },
        }
    }

    /// The queue discipline.
    pub fn queue_discipline(&self) -> QueueDiscipline {
        match self.queue {
            QueueDecl::Fifo { capacity } => QueueDiscipline::Fifo { capacity },
            QueueDecl::CosPriority { per_class } => QueueDiscipline::CosPriority { per_class },
            QueueDecl::Red {
                capacity,
                min_th,
                max_th,
                max_p_percent,
            } => QueueDiscipline::Red {
                capacity,
                min_th,
                max_th,
                max_p_percent,
            },
        }
    }

    /// Converts the flow declarations; subscriber-population flows
    /// follow the explicit ones, then generated flows from a
    /// `topology` section. The order fixes flow ids, and with them
    /// RNG streams and canonical event keys.
    pub fn flow_specs(&self) -> Result<Vec<FlowSpec>, ScenarioError> {
        let mut flows = self.explicit_flow_specs()?;
        for s in &self.subscribers {
            let classes = if s.classes.is_empty() {
                SlaClass::residential_mix()
            } else {
                s.classes
                    .iter()
                    .map(|c| SlaClass {
                        name: c.name.clone(),
                        precedence: c.precedence & 0x7,
                        weight_pct: c.weight_pct,
                        sla_fct_ns: c.sla_fct_ms * 1_000_000,
                        payload_bytes: c.payload_bytes,
                    })
                    .collect()
            };
            let model = SubscriberModel {
                name: s.name.clone(),
                subscribers: s.subscribers,
                mean_think_ns: s.mean_think_ms * 1_000_000,
                base: s.base.to_spec(),
                classes,
            };
            flows.extend(model.flows(
                s.ingress,
                parse_ip(&s.src)?,
                parse_ip(&s.dst)?,
                s.start_ms * 1_000_000,
                s.stop_ms * 1_000_000,
            ));
        }
        if let Some(t) = &self.topology {
            flows.extend(t.to_spec(self.seed)?.flow_specs());
        }
        Ok(flows)
    }

    fn explicit_flow_specs(&self) -> Result<Vec<FlowSpec>, ScenarioError> {
        self.flows
            .iter()
            .map(|f| {
                Ok(FlowSpec {
                    name: f.name.clone(),
                    ingress: f.ingress,
                    src_addr: parse_ip(&f.src)?,
                    dst_addr: parse_ip(&f.dst)?,
                    payload_bytes: f.payload_bytes,
                    precedence: f.precedence & 0x7,
                    pattern: match f.pattern {
                        PatternDecl::Cbr { interval_us } => TrafficPattern::Cbr {
                            interval_ns: interval_us * 1_000,
                        },
                        PatternDecl::Poisson { mean_interval_us } => TrafficPattern::Poisson {
                            mean_interval_ns: mean_interval_us * 1_000,
                        },
                        PatternDecl::OnOff {
                            on_us,
                            off_us,
                            interval_us,
                        } => TrafficPattern::OnOff {
                            on_ns: on_us * 1_000,
                            off_ns: off_us * 1_000,
                            interval_ns: interval_us * 1_000,
                        },
                        PatternDecl::ClosedLoop {
                            mean_arrival_us,
                            size_min_pkts,
                            size_max_pkts,
                            size_alpha_milli,
                            max_cwnd,
                            rto_us,
                            ecn_threshold,
                            pacing_us,
                            sla_fct_ms,
                            diurnal_period_ms,
                            diurnal_trough_pct,
                            flash_start_ms,
                            flash_duration_ms,
                            flash_multiplier_pct,
                        } => TrafficPattern::ClosedLoop(
                            ClosedLoopDecl {
                                mean_arrival_us,
                                size_min_pkts,
                                size_max_pkts,
                                size_alpha_milli,
                                max_cwnd,
                                rto_us,
                                ecn_threshold,
                                pacing_us,
                                sla_fct_ms,
                                diurnal_period_ms,
                                diurnal_trough_pct,
                                flash_start_ms,
                                flash_duration_ms,
                                flash_multiplier_pct,
                            }
                            .to_spec(),
                        ),
                    },
                    start_ns: f.start_ms * 1_000_000,
                    stop_ns: f.stop_ms * 1_000_000,
                    police: f.police.as_ref().map(|p| PolicerSpec {
                        rate_bps: p.rate_mbps * 1_000_000,
                        burst_bytes: p.burst_bytes,
                    }),
                })
            })
            .collect()
    }

    /// The telemetry configuration for this run: `Some` when the
    /// scenario's `telemetry` section enables it or `force` is set
    /// (`--metrics-out`), `None` for a zero-overhead run.
    pub fn telemetry_config(&self, force: bool) -> Option<TelemetryConfig> {
        let defaults = TelemetryDecl::default();
        let decl = match &self.telemetry {
            // A disabled section still carries tuning; `force` overrides
            // only the switch.
            Some(t) if t.enabled || force => t,
            Some(_) => return None,
            None if force => &defaults,
            None => return None,
        };
        Some(TelemetryConfig {
            sample_interval_ns: decl.sample_interval_us * 1_000,
            series_capacity: decl.series_capacity,
            event_capacity: decl.event_capacity,
        })
    }

    /// Resolves the control mode: the `control_override` (the
    /// `--control` flag) beats the scenario's `control` field, which
    /// defaults to `"centralized"`.
    pub fn control_mode(
        &self,
        control_override: Option<&str>,
    ) -> Result<ControlChoice, ScenarioError> {
        let mode = control_override
            .or(self.control.as_deref())
            .unwrap_or("centralized");
        match mode.to_ascii_lowercase().as_str() {
            "centralized" => Ok(ControlChoice::Centralized),
            "ldp" => Ok(ControlChoice::Ldp),
            "sr" => Ok(ControlChoice::Sr),
            other => Err(ScenarioError::Invalid(format!(
                "unknown control mode {other:?} (use \"centralized\", \"ldp\" or \"sr\")"
            ))),
        }
    }

    /// Whether the resolved control mode is `"ldp"` (see
    /// [`Self::control_mode`]).
    pub fn uses_ldp(&self, control_override: Option<&str>) -> Result<bool, ScenarioError> {
        Ok(self.control_mode(control_override)? == ControlChoice::Ldp)
    }

    /// The segment-routing configuration (scenario `sr` section or
    /// defaults).
    pub fn sr_config(&self) -> SrConfig {
        let decl = self.sr.clone().unwrap_or_default();
        SrConfig {
            srgb_base: decl.srgb_base,
            rld: decl.rld,
            max_push_depth: decl.max_push_depth,
            entropy: decl.entropy,
            mna: decl.mna,
        }
    }

    /// The LDP timer configuration (scenario `ldp` section or defaults).
    pub fn ldp_config(&self) -> LdpConfig {
        let decl = self.ldp.clone().unwrap_or_default();
        LdpConfig {
            hello_interval_ns: decl.hello_interval_us * 1_000,
            hold_ns: decl.hold_us * 1_000,
            max_backoff_exp: decl.max_backoff_exp,
            jitter_seed: decl.jitter_seed,
            stale_ttl_ns: decl.stale_ttl_us * 1_000,
        }
    }

    /// Builds and runs the whole scenario. Telemetry is collected when
    /// the scenario's `telemetry` section asks for it.
    pub fn run(&self) -> Result<mpls_net::SimReport, ScenarioError> {
        self.run_with(false, None, None)
    }

    /// Like [`Self::run`], but collects telemetry even without a
    /// `telemetry` section (the `--metrics-out` path).
    pub fn run_with_telemetry(&self) -> Result<mpls_net::SimReport, ScenarioError> {
        self.run_with(true, None, None)
    }

    /// Like [`Self::run`], with the command-line overrides applied:
    /// `force_telemetry` for `--metrics-out`, `shards` for `--shards`
    /// (which beats the scenario's own `shards` field), and `control`
    /// for `--control` (which beats the scenario's `control` field).
    pub fn run_with_overrides(
        &self,
        force_telemetry: bool,
        shards: Option<usize>,
        control: Option<&str>,
    ) -> Result<mpls_net::SimReport, ScenarioError> {
        self.run_with(force_telemetry, shards, control)
    }

    fn run_with(
        &self,
        force_telemetry: bool,
        shards_override: Option<usize>,
        control_override: Option<&str>,
    ) -> Result<mpls_net::SimReport, ScenarioError> {
        let cp = self.build_control_plane()?;
        let mut sim =
            Simulation::build(&cp, self.router_kind(), self.queue_discipline(), self.seed);
        if let Some(shards) = shards_override.or(self.shards) {
            if shards == 0 {
                return Err(ScenarioError::Invalid("shards must be >= 1".into()));
            }
            sim.set_shards(shards);
        }
        for n in &self.nodes {
            if let Some(hint) = n.shard {
                sim.shard_hint(n.id, hint);
            }
        }
        match self.control_mode(control_override)? {
            ControlChoice::Centralized => {}
            ControlChoice::Ldp => sim.enable_ldp(self.ldp_config()),
            ControlChoice::Sr => sim.enable_sr(self.sr_config()),
        }
        if let Some(plan) = self.fault_plan(&cp)? {
            sim.set_fault_plan(plan);
        }
        for f in self.flow_specs()? {
            sim.add_flow(f);
        }
        // Generous drain margin past the horizon.
        let horizon = self.horizon_ms * 1_000_000 + 500_000_000;
        match self.telemetry_config(force_telemetry) {
            Some(config) => Ok(sim.with_telemetry(config).run(horizon)),
            None => Ok(sim.run(horizon)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = include_str!("../scenarios/example.json");

    #[test]
    fn example_scenario_parses_and_runs() {
        let sc = Scenario::from_json(EXAMPLE).expect("example parses");
        let report = sc.run().expect("example runs");
        let voip = report.flow("voip").expect("voip flow present");
        assert!(voip.sent > 0);
        assert_eq!(
            voip.sent,
            voip.delivered + voip.router_dropped + voip.queue_dropped + voip.policer_dropped
        );
    }

    #[test]
    fn bad_role_is_rejected() {
        let mut sc = Scenario::from_json(EXAMPLE).unwrap();
        sc.nodes[0].role = "switch".into();
        assert!(matches!(
            sc.build_control_plane(),
            Err(ScenarioError::Invalid(_))
        ));
    }

    #[test]
    fn bad_prefix_is_rejected() {
        assert!(parse_prefix("10.0.0.0").is_err());
        assert!(parse_prefix("10.0.0.0/33").is_err());
        assert!(parse_prefix("10.0.0/8").is_err());
        assert!(parse_prefix("10.0.0.0/8").is_ok());
    }

    #[test]
    fn unknown_fields_are_rejected() {
        // `engine` once picked a second scheduler; there is one now, so
        // asking for another must fail by name, not run silently.
        for (field, value) in [("warp_drive", "true"), ("engine", r#""merge""#)] {
            let bad = format!(r#"{{"nodes": [], "links": [], "{field}": {value}}}"#);
            let err = Scenario::from_json(&bad).expect_err("unknown field parses");
            assert!(matches!(err, ScenarioError::Parse(_)));
            assert!(err.to_string().contains(&format!("`{field}`")), "{err}");
        }
    }

    /// Figure-1 style two-path topology with a mid-run outage on the fast
    /// path. Restoration moves the LSP to the slow path; losses are
    /// confined to the outage and land in the link-drop counters.
    const FAULTY: &str = r#"{
        "nodes": [
            {"id": 0, "role": "ler"}, {"id": 1, "role": "ler"},
            {"id": 2, "role": "lsr"}, {"id": 3, "role": "lsr"},
            {"id": 4, "role": "lsr"}, {"id": 5, "role": "lsr"}
        ],
        "links": [
            {"a": 0, "b": 2, "bandwidth_mbps": 1000, "delay_us": 500},
            {"a": 2, "b": 3, "bandwidth_mbps": 1000, "delay_us": 500},
            {"a": 3, "b": 1, "bandwidth_mbps": 1000, "delay_us": 500},
            {"a": 0, "b": 4, "bandwidth_mbps": 100, "delay_us": 2000, "cost": 3},
            {"a": 4, "b": 5, "bandwidth_mbps": 100, "delay_us": 2000, "cost": 3},
            {"a": 5, "b": 1, "bandwidth_mbps": 100, "delay_us": 2000, "cost": 3}
        ],
        "lsps": [{"ingress": 0, "egress": 1, "fec": "192.168.1.0/24"}],
        "flows": [{
            "name": "cbr", "ingress": 0,
            "src": "10.0.0.10", "dst": "192.168.1.10",
            "payload_bytes": 500,
            "pattern": {"kind": "cbr", "interval_us": 100},
            "stop_ms": 20
        }],
        "faults": {
            "events": [
                {"kind": "link_down", "at_ms": 5, "a": 2, "b": 3},
                {"kind": "link_up", "at_ms": 12, "a": 2, "b": 3}
            ],
            "detection_delay_us": 500,
            "resignal_delay_us": 500,
            "recovery": "restoration"
        },
        "seed": 11,
        "horizon_ms": 40
    }"#;

    #[test]
    fn fault_scenario_restores_and_accounts_losses() {
        let sc = Scenario::from_json(FAULTY).expect("fault scenario parses");
        let report = sc.run().expect("fault scenario runs");
        let s = report.flow("cbr").expect("flow present");
        assert!(s.sent > 0);
        assert!(s.link_dropped > 0, "outage should drop packets");
        assert_eq!(
            s.sent,
            s.delivered
                + s.router_dropped
                + s.queue_dropped
                + s.policer_dropped
                + s.link_dropped
                + s.loss_dropped
        );
        assert_eq!(report.faults.len(), 1, "one fault record");
        let rec = &report.faults[0];
        assert_eq!(rec.down_ns, 5_000_000);
        assert_eq!(rec.detected_ns, Some(5_500_000));
        assert!(rec.restored_ns.is_some(), "LSP re-signaled onto south path");
        assert_eq!(rec.packets_lost, s.link_dropped);
    }

    #[test]
    fn bad_fault_sections_are_rejected() {
        let mut sc = Scenario::from_json(FAULTY).unwrap();
        let cp = sc.build_control_plane().unwrap();
        sc.faults.as_mut().unwrap().recovery = "prayer".into();
        assert!(matches!(sc.fault_plan(&cp), Err(ScenarioError::Invalid(_))));
        let mut sc = Scenario::from_json(FAULTY).unwrap();
        sc.faults.as_mut().unwrap().events[0] = FaultEventDecl::LinkDown {
            at_ms: 1,
            a: 0,
            b: 3,
        };
        assert!(matches!(sc.fault_plan(&cp), Err(ScenarioError::Invalid(_))));
        let mut sc = Scenario::from_json(FAULTY).unwrap();
        sc.faults.as_mut().unwrap().loss.push(LinkLossDecl {
            a: 2,
            b: 3,
            probability: 1.5,
        });
        assert!(matches!(sc.fault_plan(&cp), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn telemetry_section_enables_collection() {
        let mut sc = Scenario::from_json(EXAMPLE).unwrap();
        assert!(sc.telemetry_config(false).is_none(), "off by default");
        // --metrics-out forces it on with defaults.
        let forced = sc.telemetry_config(true).unwrap();
        assert_eq!(forced.sample_interval_ns, 100_000);

        sc.telemetry = Some(TelemetryDecl {
            sample_interval_us: 50,
            ..TelemetryDecl::default()
        });
        let cfg = sc.telemetry_config(false).unwrap();
        assert_eq!(cfg.sample_interval_ns, 50_000);
        let report = sc.run().unwrap();
        let tel = report.telemetry.expect("section turns telemetry on");
        assert!(tel.counter("flow.voip.sent").unwrap() > 0.0);
        assert!(tel
            .series
            .iter()
            .any(|s| s.name.ends_with(".queue_depth") && !s.points.is_empty()));

        // A disabled section keeps the run clean unless forced.
        sc.telemetry.as_mut().unwrap().enabled = false;
        assert!(sc.telemetry_config(false).is_none());
        let cfg = sc.telemetry_config(true).unwrap();
        assert_eq!(cfg.sample_interval_ns, 50_000, "tuning survives forcing");
        let report = sc.run().unwrap();
        assert!(report.telemetry.is_none());
        let report = sc.run_with_telemetry().unwrap();
        assert!(report.telemetry.is_some());
    }

    #[test]
    fn shard_overrides_do_not_change_the_report() {
        let sc = Scenario::from_json(FAULTY).unwrap();
        let baseline =
            serde_json::to_string(&sc.run_with_overrides(false, Some(1), None).unwrap()).unwrap();
        for shards in [2, 4] {
            let sharded =
                serde_json::to_string(&sc.run_with_overrides(false, Some(shards), None).unwrap())
                    .unwrap();
            assert_eq!(baseline, sharded, "--shards {shards} diverged");
        }
        // The scenario's own field works too, and 0 is rejected.
        let mut sc = Scenario::from_json(FAULTY).unwrap();
        sc.shards = Some(2);
        assert_eq!(
            baseline,
            serde_json::to_string(&sc.run().unwrap()).unwrap(),
            "scenario shards field diverged"
        );
        sc.shards = Some(0);
        assert!(matches!(sc.run(), Err(ScenarioError::Invalid(_))));
        // Hints relocate nodes without changing results either.
        let mut sc = Scenario::from_json(FAULTY).unwrap();
        sc.shards = Some(2);
        for (i, n) in sc.nodes.iter_mut().enumerate() {
            n.shard = Some(i % 2);
        }
        assert_eq!(
            baseline,
            serde_json::to_string(&sc.run().unwrap()).unwrap(),
            "shard hints diverged"
        );
    }

    #[test]
    fn control_mode_resolves_and_runs_ldp() {
        let mut sc = Scenario::from_json(FAULTY).unwrap();
        assert!(!sc.uses_ldp(None).unwrap(), "centralized by default");
        assert!(sc.uses_ldp(Some("ldp")).unwrap(), "--control wins");
        assert!(sc.uses_ldp(Some("warlock")).is_err());
        sc.control = Some("ldp".into());
        assert!(sc.uses_ldp(None).unwrap(), "scenario field works");
        assert!(!sc.uses_ldp(Some("centralized")).unwrap(), "override wins");

        // Give the protocol room to converge before traffic starts, then
        // let it reconverge around FAULTY's north-path outage.
        sc.flows[0].start_ms = 10;
        sc.flows[0].stop_ms = 40;
        sc.horizon_ms = 60;
        let report = sc.run().expect("ldp scenario runs");
        assert_eq!(report.control.mode, "ldp");
        let conv = report.control.convergence_ns.expect("converged");
        assert!(conv < 10_000_000, "{conv}");
        assert!(report.control.sessions_established >= 6);
        assert_eq!(report.faults.len(), 1);
        assert!(
            report.faults[0].restored_ns.is_some(),
            "withdraw wave rerouted traffic"
        );
        let s = report.flow("cbr").unwrap();
        assert!(s.delivered > 0);

        // The same run under the centralized override must converge
        // before t=0 (no control summary beyond the mode).
        let central = sc
            .run_with_overrides(false, None, Some("centralized"))
            .unwrap();
        assert_eq!(central.control.mode, "centralized");
        assert!(central.control.convergence_ns.is_none());
        assert!(central.fibs.is_none());
    }

    const SR_FABRIC: &str = include_str!("../scenarios/sr_fabric.json");

    #[test]
    fn sr_control_mode_resolves() {
        let mut sc = Scenario::from_json(FAULTY).unwrap();
        assert_eq!(
            sc.control_mode(None).unwrap(),
            ControlChoice::Centralized,
            "centralized by default"
        );
        assert_eq!(sc.control_mode(Some("sr")).unwrap(), ControlChoice::Sr);
        assert!(!sc.uses_ldp(Some("sr")).unwrap(), "sr is not ldp");
        sc.control = Some("sr".into());
        assert_eq!(sc.control_mode(None).unwrap(), ControlChoice::Sr);
        assert_eq!(
            sc.control_mode(Some("ldp")).unwrap(),
            ControlChoice::Ldp,
            "override wins"
        );
        assert!(sc.control_mode(Some("rsvp")).is_err());
    }

    #[test]
    fn sr_section_parses_and_defaults() {
        let sc = Scenario::from_json(SR_FABRIC).unwrap();
        let cfg = sc.sr_config();
        assert_eq!(cfg.max_push_depth, 3, "section field applies");
        assert_eq!(cfg.srgb_base, 16_000, "defaults fill the rest");
        assert!(cfg.entropy);
        assert!(!cfg.mna);
        // Unknown keys in the section are schema violations.
        let bad = SR_FABRIC.replace("\"max_push_depth\": 3", "\"stack_budget\": 3");
        assert!(matches!(
            Scenario::from_json(&bad),
            Err(ScenarioError::Parse(_))
        ));
    }

    /// The bundled SR scenario delivers everything over the diamond,
    /// spreads flows across both equal-cost paths via the entropy
    /// label, and reports byte-identically at any shard count (the CI
    /// smoke job re-checks this from the built binary).
    #[test]
    fn sr_scenario_runs_and_is_shard_invariant() {
        let sc = Scenario::from_json(SR_FABRIC).expect("sr scenario parses");
        let report = sc.run().expect("sr scenario runs");
        assert_eq!(report.control.mode, "sr");
        assert!(!report.flows.is_empty());
        for (spec, s) in &report.flows {
            assert_eq!(s.delivered, s.sent, "flow {} lost traffic", spec.name);
            assert!(s.sent > 0);
        }
        let ecmp: u64 = report.routers.values().map(|r| r.ecmp_decisions).sum();
        assert!(ecmp > 0, "loose-hop diamond must exercise ECMP");
        let baseline = serde_json::to_string(&report).unwrap();
        for shards in [2, 4] {
            let run = sc.run_with_overrides(false, Some(shards), None).unwrap();
            assert_eq!(
                baseline,
                serde_json::to_string(&run).unwrap(),
                "{shards} shards diverged"
            );
        }
    }

    const CLOSED_LOOP: &str = include_str!("../scenarios/closed_loop.json");

    #[test]
    fn closed_loop_pattern_defaults_fill_in() {
        let d: ClosedLoopDecl = serde_json::from_str(r#"{"kind": "closed_loop"}"#).unwrap();
        let spec = d.to_spec();
        assert_eq!(spec, ClosedLoopSpec::default());
        // Partial overrides keep the rest at library defaults.
        let d: ClosedLoopDecl =
            serde_json::from_str(r#"{"kind": "closed_loop", "max_cwnd": 8, "sla_fct_ms": 5}"#)
                .unwrap();
        let spec = d.to_spec();
        assert_eq!(spec.max_cwnd, 8);
        assert_eq!(spec.sla_fct_ns, 5_000_000);
        assert_eq!(spec.rto_ns, ClosedLoopSpec::default().rto_ns);
    }

    #[test]
    fn subscribers_expand_to_per_class_flows() {
        let sc = Scenario::from_json(CLOSED_LOOP).expect("closed-loop scenario parses");
        let flows = sc.flow_specs().expect("flows convert");
        // 2 explicit + 3 residential-mix classes.
        assert_eq!(flows.len(), 5);
        let names: Vec<&str> = flows.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "web",
                "background",
                "metro/gold",
                "metro/silver",
                "metro/bronze"
            ]
        );
        let TrafficPattern::ClosedLoop(gold) = flows[2].pattern else {
            panic!("subscriber flows are closed-loop");
        };
        assert_eq!(flows[2].precedence, 5);
        assert_eq!(gold.sla_fct_ns, 20_000_000);
        assert_eq!(gold.flash_multiplier_pct, 300);
        // 2000 subs, 10% gold share, 400ms think => 2ms aggregate gap.
        assert_eq!(gold.mean_arrival_ns, 2_000_000);
    }

    #[test]
    fn closed_loop_scenario_runs_and_is_shard_invariant() {
        let sc = Scenario::from_json(CLOSED_LOOP).expect("closed-loop scenario parses");
        let report = sc.run().expect("closed-loop scenario runs");
        let mut started = 0;
        let mut completed = 0;
        for (spec, s) in &report.flows {
            assert_eq!(
                s.sent,
                s.delivered
                    + s.router_dropped
                    + s.queue_dropped
                    + s.policer_dropped
                    + s.link_dropped
                    + s.loss_dropped,
                "flow {} leaks packets",
                spec.name
            );
            if matches!(spec.pattern, TrafficPattern::ClosedLoop(_)) {
                started += s.transfers_started;
                completed += s.transfers_completed;
                assert_eq!(s.fct_hist.count(), s.transfers_completed);
            }
        }
        assert!(started > 0, "closed-loop sources must start transfers");
        assert!(completed > 0, "some transfers must finish");
        let web = report.flow("web").expect("web flow present");
        assert!(web.cwnd_peak > 1, "window must open past slow-start");
        assert!(
            web.cwnd_cuts > 0 || web.retransmits > 0,
            "the outage window must provoke a congestion response"
        );
        let baseline = serde_json::to_string(&report).unwrap();
        for shards in [2, 4] {
            let run = sc.run_with_overrides(false, Some(shards), None).unwrap();
            assert_eq!(
                baseline,
                serde_json::to_string(&run).unwrap(),
                "{shards} shards diverged"
            );
        }
    }

    #[test]
    fn ldp_timer_section_parses() {
        let mut sc = Scenario::from_json(FAULTY).unwrap();
        let cfg = sc.ldp_config();
        assert_eq!(cfg.hello_interval_ns, 1_000_000);
        assert_eq!(cfg.hold_ns, 3_500_000);
        sc.ldp = Some(LdpDecl {
            hello_interval_us: 200,
            hold_us: 700,
            stale_ttl_us: 1_500,
            ..LdpDecl::default()
        });
        let cfg = sc.ldp_config();
        assert_eq!(cfg.hello_interval_ns, 200_000);
        assert_eq!(cfg.hold_ns, 700_000);
        assert_eq!(cfg.stale_ttl_ns, 1_500_000);
        assert_eq!(cfg.max_backoff_exp, LdpConfig::default().max_backoff_exp);
    }

    #[test]
    fn telemetry_rejects_unknown_fields() {
        let mut doc: String = EXAMPLE.trim_end().into();
        doc.truncate(doc.rfind('}').unwrap());
        doc.push_str(", \"telemetry\": {\"cadence\": 5}}");
        assert!(matches!(
            Scenario::from_json(&doc),
            Err(ScenarioError::Parse(_))
        ));
    }

    #[test]
    fn software_fast_router_parses_and_builds() {
        let minimal = r#"{
            "nodes": [{"id": 0, "role": "ler"}, {"id": 1, "role": "ler"}],
            "links": [{"a": 0, "b": 1, "bandwidth_mbps": 100, "delay_us": 100}],
            "router": {"kind": "software_fast"}
        }"#;
        let sc = Scenario::from_json(minimal).unwrap();
        assert!(matches!(sc.router, RouterDecl::SoftwareFast));
        assert!(matches!(
            sc.router_kind(),
            mpls_net::RouterKind::SoftwareFast { .. }
        ));
        sc.run().unwrap();
    }

    #[test]
    fn defaults_apply() {
        let minimal = r#"{
            "nodes": [{"id": 0, "role": "ler"}, {"id": 1, "role": "ler"}],
            "links": [{"a": 0, "b": 1, "bandwidth_mbps": 100, "delay_us": 100}]
        }"#;
        let sc = Scenario::from_json(minimal).unwrap();
        assert_eq!(sc.horizon_ms, 1000);
        assert!(matches!(sc.router, RouterDecl::Embedded { .. }));
        assert!(matches!(sc.queue, QueueDecl::Fifo { capacity: 64 }));
        let report = sc.run().unwrap();
        assert!(report.flows.is_empty());
    }

    #[test]
    fn topology_section_synthesizes_and_runs() {
        let doc = r#"{
            "topology": {
                "family": "fat_tree",
                "lsps_total": 128,
                "flows": 4,
                "flow_stop_ms": 2
            },
            "seed": 11,
            "horizon_ms": 20
        }"#;
        let sc = Scenario::from_json(doc).unwrap();
        let cp = sc.build_control_plane().unwrap();
        // k=4 default: 4 core + 8 agg + 8 edge + 16 LERs.
        assert_eq!(cp.topology().nodes().len(), 36);
        assert_eq!(cp.lsp_ids().len(), 128);
        let flows = sc.flow_specs().unwrap();
        assert_eq!(flows.len(), 4);
        let report = sc.run().unwrap();
        for f in &report.flows {
            assert_eq!(f.1.delivered, f.1.sent, "flow {} lost traffic", f.0.name);
            assert!(f.1.sent > 0);
        }
        // Byte-identical at any shard count, as everywhere else.
        let base = serde_json::to_string(&report).unwrap();
        let sharded = sc.run_with_overrides(false, Some(4), None).unwrap();
        assert_eq!(base, serde_json::to_string(&sharded).unwrap());
    }

    #[test]
    fn topology_section_rejects_explicit_graphs() {
        let doc = r#"{
            "nodes": [{"id": 0, "role": "ler"}],
            "links": [],
            "topology": {"family": "ring_of_rings", "lsps_total": 1}
        }"#;
        let sc = Scenario::from_json(doc).unwrap();
        assert!(matches!(
            sc.build_control_plane(),
            Err(ScenarioError::Invalid(_))
        ));
        let empty = Scenario::from_json("{}").unwrap();
        assert!(matches!(
            empty.build_control_plane(),
            Err(ScenarioError::Invalid(_))
        ));
    }
}

//! JSON scenario schema and loader.
//!
//! A scenario file describes a complete experiment: topology, attached
//! prefixes, LSPs and tunnels to signal, traffic flows, router kind,
//! queue discipline, seed and horizon. `mpls-sim run <file>` executes it
//! and prints the per-flow report.

use mpls_control::{ControlPlane, LinkId, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::{ClockSpec, LEVEL_CAPACITY};
use mpls_dataplane::ftn::Prefix;
use mpls_net::policer::PolicerSpec;
use mpls_net::subscriber::{SlaClass, SubscriberModel};
use mpls_net::traffic::{ClosedLoopSpec, FlowSpec, TrafficPattern};
use mpls_net::{
    FaultPlan, LdpConfig, QueueDiscipline, RecoveryMode, RestorationPolicy, RouterKind, ScaleError,
    Simulation, TelemetryConfig,
};
use mpls_packet::ipv4::parse_addr;
use mpls_packet::{CosBits, Ipv4Header};
use mpls_router::SwTimingModel;
use mpls_sr::SrConfig;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

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

/// Nanoseconds per microsecond.
const NS_PER_US: u64 = 1_000;
/// Nanoseconds per millisecond.
const NS_PER_MS: u64 = 1_000_000;
/// Bits per second per Mb/s.
const BPS_PER_MBPS: u64 = 1_000_000;
/// The largest payload whose IPv4 total length fits 16 bits.
const MAX_PAYLOAD_BYTES: usize = u16::MAX as usize - Ipv4Header::WIRE_LEN;

/// `value` converted to the engine's unit (`unit` of them per scenario
/// unit): every scenario field in µs, ms or Mb/s goes through here, so a
/// value too large for `u64` is an error naming `owner`'s `field`
/// instead of a product that wraps.
fn scaled(owner: &str, field: &str, value: u64, unit: u64) -> Result<u64, ScenarioError> {
    value
        .checked_mul(unit)
        .ok_or_else(|| ScenarioError::Invalid(format!("{owner}: {field} {value} is out of range")))
}

/// `Ok` when `ok` holds, else the error `message` describes.
fn require(ok: bool, message: impl FnOnce() -> String) -> Result<(), ScenarioError> {
    if ok {
        Ok(())
    } else {
        Err(ScenarioError::Invalid(message()))
    }
}

/// Rejects a zero inter-packet gap, which would emit a packet every
/// nanosecond for the flow's whole lifetime.
fn require_gap(owner: &str, field: &str, gap: u64) -> Result<(), ScenarioError> {
    require(gap > 0, || format!("{owner}: {field} must be at least 1"))
}

/// Rejects an IP precedence past its 3 bits, which would be masked.
fn check_precedence(owner: &str, precedence: u8) -> Result<(), ScenarioError> {
    require(precedence <= 7, || {
        format!("{owner}: precedence {precedence} exceeds 7")
    })
}

/// Rejects a payload past the 16-bit IPv4 total length, which would be
/// truncated.
fn check_payload(owner: &str, payload_bytes: usize) -> Result<(), ScenarioError> {
    require(payload_bytes <= MAX_PAYLOAD_BYTES, || {
        format!("{owner}: payload_bytes {payload_bytes} exceeds {MAX_PAYLOAD_BYTES}")
    })
}

/// Rejects a control plane that needs more than [`LEVEL_CAPACITY`] label
/// pairs at one information-base level of some node. An embedded router
/// cannot store the pairs past that, so the LSPs behind them would
/// discard every packet as `no_entry_found`.
fn check_info_base_capacity(cp: &ControlPlane) -> Result<(), ScenarioError> {
    for node in cp.topology().nodes() {
        let mut pairs = [0usize; 3];
        for b in &cp.config_for(node.id).bindings {
            // The level an embedded router writes the binding to.
            let level = match b.level {
                1 => 0,
                2 => 1,
                _ => 2,
            };
            pairs[level] += 1;
        }
        for (level, n) in (1..).zip(pairs) {
            require(n <= LEVEL_CAPACITY, || {
                format!(
                    "node {}: level {level} needs {n} label pairs, more than the \
                     {LEVEL_CAPACITY} an embedded router's information base holds",
                    node.id
                )
            })?;
        }
    }
    Ok(())
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

/// Everything a run takes from a scenario and its command-line
/// overrides, derived and checked by [`Scenario::validate`] (or
/// [`Scenario::validate_with_overrides`]); [`Scenario::run`] executes
/// only this plan, so validating and running cannot disagree about what
/// a scenario means.
pub struct RunPlan {
    /// The control-plane mode: `--control`, else the scenario's
    /// `control` field, else centralized.
    pub control: ControlChoice,
    /// The requested engine shard count (at least 1): `--shards`, else
    /// the scenario's `shards` field. `None` leaves the count to
    /// [`Simulation::run`]: `MPLS_SIM_SHARDS`, else 1.
    pub shards: Option<usize>,
    /// Per-node shard placement hints, `(node, hint)`.
    pub shard_hints: Vec<(u32, usize)>,
    /// The RNG seed.
    pub seed: u64,
    /// The signaled control plane.
    pub cp: ControlPlane,
    /// The router implementation.
    pub router: RouterKind,
    /// The queue discipline.
    pub queue: QueueDiscipline,
    /// Every flow in id order (see [`Scenario::flow_specs`]).
    pub flows: Vec<FlowSpec>,
    /// The `faults` section against `cp`.
    pub faults: Option<FaultPlan>,
    /// LDP timers, used when the control mode is `"ldp"`.
    pub ldp: LdpConfig,
    /// Segment-routing knobs, used when the control mode is `"sr"`.
    pub sr: SrConfig,
    /// Telemetry sampling: the `telemetry` section's, else the
    /// defaults `--metrics-out` collects with.
    pub telemetry: TelemetryConfig,
    /// Whether the `telemetry` section turns collection on.
    pub telemetry_on: bool,
    /// When the run stops: the horizon plus a drain margin.
    pub horizon_ns: u64,
}

impl RunPlan {
    /// Builds the simulation the plan describes and runs it. Telemetry
    /// is collected when the scenario asks for it or `force_telemetry`
    /// is set (the `--metrics-out` path).
    fn execute(self, force_telemetry: bool) -> mpls_net::SimReport {
        let mut sim = Simulation::build(&self.cp, self.router, self.queue, self.seed);
        if let Some(shards) = self.shards {
            sim.set_shards(shards);
        }
        for (node, hint) in self.shard_hints {
            sim.shard_hint(node, hint);
        }
        match self.control {
            ControlChoice::Centralized => {}
            ControlChoice::Ldp => sim.enable_ldp(self.ldp),
            ControlChoice::Sr => sim.enable_sr(self.sr),
        }
        if let Some(faults) = self.faults {
            sim.set_fault_plan(faults);
        }
        for f in self.flows {
            sim.add_flow(f);
        }
        if self.telemetry_on || force_telemetry {
            sim.with_telemetry(self.telemetry).run(self.horizon_ns)
        } else {
            sim.run(self.horizon_ns)
        }
    }
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
    /// scenario seed, so the whole workload derives from it. A field the
    /// generator cannot honor ([`mpls_net::ScaleSpec::check`]) is an
    /// invalid scenario naming that field.
    pub fn to_spec(&self, seed: u64) -> Result<mpls_net::ScaleSpec, ScenarioError> {
        let owner = "topology";
        require_gap(owner, "flow_interval_us", self.flow_interval_us)?;
        check_payload(owner, self.payload_bytes)?;
        require(self.bandwidth_mbps >= 1, || {
            format!("{owner}: bandwidth_mbps must be at least 1")
        })?;
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
        let spec = mpls_net::ScaleSpec {
            family,
            lsps_total: self.lsps_total,
            tunnel_strides: self.tunnel_strides,
            flows: self.flows,
            payload_bytes: self.payload_bytes,
            flow_interval_ns: scaled(owner, "flow_interval_us", self.flow_interval_us, NS_PER_US)?,
            flow_start_ns: scaled(owner, "flow_start_ms", self.flow_start_ms, NS_PER_MS)?,
            flow_stop_ns: scaled(owner, "flow_stop_ms", self.flow_stop_ms, NS_PER_MS)?,
            bandwidth_bps: scaled(owner, "bandwidth_mbps", self.bandwidth_mbps, BPS_PER_MBPS)?,
            delay_ns: scaled(owner, "delay_us", self.delay_us, NS_PER_US)?,
            seed,
        };
        spec.check()
            .map_err(|e| ScenarioError::Invalid(format!("{owner}: {e}")))?;
        Ok(spec)
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
    fn to_spec(self, owner: &str) -> Result<ClosedLoopSpec, ScenarioError> {
        let us = |field, value| scaled(owner, field, value, NS_PER_US);
        let ms = |field, value| scaled(owner, field, value, NS_PER_MS);
        Ok(ClosedLoopSpec {
            mean_arrival_ns: us("mean_arrival_us", self.mean_arrival_us)?,
            size_min_pkts: self.size_min_pkts,
            size_max_pkts: self.size_max_pkts,
            size_alpha_milli: self.size_alpha_milli,
            max_cwnd: self.max_cwnd,
            rto_ns: us("rto_us", self.rto_us)?,
            ecn_threshold: self.ecn_threshold,
            pacing_ns: us("pacing_us", self.pacing_us)?,
            sla_fct_ns: ms("sla_fct_ms", self.sla_fct_ms)?,
            diurnal_period_ns: ms("diurnal_period_ms", self.diurnal_period_ms)?,
            diurnal_trough_pct: self.diurnal_trough_pct,
            flash_start_ns: ms("flash_start_ms", self.flash_start_ms)?,
            flash_duration_ns: ms("flash_duration_ms", self.flash_duration_ms)?,
            flash_multiplier_pct: self.flash_multiplier_pct,
        })
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

    /// Builds the control plane: topology, attachments, LSPs. The
    /// declarations are checked first, so a graph the topology would
    /// refuse (a parallel link, a link without bandwidth) is a typed
    /// error here too.
    pub fn build_control_plane(&self) -> Result<ControlPlane, ScenarioError> {
        self.check_declarations()?;
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
            let w = t.to_spec(self.seed)?.build().map_err(|e| match e {
                ScaleError::Field { .. } => ScenarioError::Invalid(format!("topology: {e}")),
                ScaleError::Signal(e) => ScenarioError::Signal(format!("scale workload: {e:?}")),
            })?;
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
            let owner = format!("link {}-{}", l.a, l.b);
            topo.add_link(LinkSpec {
                a: l.a,
                b: l.b,
                cost: l.cost,
                bandwidth_bps: scaled(&owner, "bandwidth_mbps", l.bandwidth_mbps, BPS_PER_MBPS)?,
                delay_ns: scaled(&owner, "delay_us", l.delay_us, NS_PER_US)?,
            });
        }
        let mut cp = ControlPlane::new(topo);
        for a in &self.attached {
            cp.attach_prefix(a.node, parse_prefix(&a.prefix)?);
        }
        for (i, l) in self.lsps.iter().enumerate() {
            let owner = format!("lsp #{i}");
            let req = LspRequest {
                ingress: l.ingress,
                egress: l.egress,
                fec: parse_prefix(&l.fec)?,
                cos: CosBits::new(l.cos)
                    .map_err(|e| ScenarioError::Invalid(format!("{owner}: {e}")))?,
                bandwidth_bps: scaled(&owner, "bandwidth_mbps", l.bandwidth_mbps, BPS_PER_MBPS)?,
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

    /// Checks what building the topology and running the engine take
    /// for granted: node ids are unique, every link joins two distinct
    /// declared nodes and carries some bandwidth, no two links join the
    /// same two nodes, an embedded router's clock ticks and every queue
    /// holds a packet.
    ///
    /// Parallel links are refused because the run could not keep them
    /// apart: the control plane (CSPF reservations, a fault's `a`/`b`)
    /// means the first link between two nodes while traffic crosses the
    /// last, so a fault on the pair would cut a link that carries none
    /// of it.
    fn check_declarations(&self) -> Result<(), ScenarioError> {
        let mut ids = BTreeSet::new();
        for n in &self.nodes {
            if !ids.insert(n.id) {
                return Err(ScenarioError::Invalid(format!(
                    "node {} is declared twice",
                    n.id
                )));
            }
        }
        let mut pairs = BTreeMap::new();
        for (i, l) in self.links.iter().enumerate() {
            let link = format!("link {}-{}", l.a, l.b);
            if let Some(end) = [l.a, l.b].into_iter().find(|end| !ids.contains(end)) {
                return Err(ScenarioError::Invalid(format!("{link}: no node {end}")));
            }
            if l.a == l.b {
                return Err(ScenarioError::Invalid(format!(
                    "{link}: a link joins two distinct nodes"
                )));
            }
            let (lo, hi) = (l.a.min(l.b), l.a.max(l.b));
            if let Some(first) = pairs.insert((lo, hi), i) {
                return Err(ScenarioError::Invalid(format!(
                    "{link}: links #{first} and #{i} both join nodes {lo} and {hi}; \
                     parallel links are not supported"
                )));
            }
            if l.bandwidth_mbps == 0 {
                return Err(ScenarioError::Invalid(format!(
                    "{link}: bandwidth_mbps must be at least 1"
                )));
            }
        }
        if let RouterDecl::Embedded { clock_mhz } = self.router {
            if !(clock_mhz > 0.0 && clock_mhz.is_finite()) {
                return Err(ScenarioError::Invalid(format!(
                    "router clock_mhz {clock_mhz} must be positive"
                )));
            }
        }
        let (field, size) = match self.queue {
            QueueDecl::Fifo { capacity } | QueueDecl::Red { capacity, .. } => {
                ("capacity", capacity)
            }
            QueueDecl::CosPriority { per_class } => ("per_class", per_class),
        };
        require(size > 0, || format!("queue: {field} must be at least 1"))
    }

    /// Derives everything a run takes from the scenario's fields —
    /// checking declarations, ranges and unit conversions on the way —
    /// builds the control plane and checks that every flow and every
    /// subscriber population enters the network at one of its nodes.
    /// [`Self::run`] runs exactly this plan; `mpls-sim validate` stops
    /// here.
    pub fn validate(&self) -> Result<RunPlan, ScenarioError> {
        self.validate_with_overrides(None, None)
    }

    /// Like [`Self::validate`], with the command-line overrides applied
    /// first: `shards` for `--shards` (which beats the scenario's own
    /// `shards` field) and `control` for `--control` (which beats the
    /// scenario's `control` field).
    pub fn validate_with_overrides(
        &self,
        shards: Option<usize>,
        control: Option<&str>,
    ) -> Result<RunPlan, ScenarioError> {
        self.check_declarations()?;
        // Field checks come first: they are cheap, and signaling a
        // synthesized topology is not.
        let control = self.control_mode(control)?;
        let shards = shards.or(self.shards);
        require(shards != Some(0), || {
            "scenario: shards must be at least 1".to_string()
        })?;
        let flows = self.flow_specs()?;
        let ldp = self.ldp_config()?;
        let telemetry = self.telemetry_config()?;
        let horizon_ns = self.horizon_ns()?;
        let cp = self.build_control_plane()?;
        if let RouterDecl::Embedded { .. } = self.router {
            check_info_base_capacity(&cp)?;
        }
        let explicit = self.flows.iter().map(|f| ("flow", &f.name, f.ingress));
        let populations = self
            .subscribers
            .iter()
            .map(|s| ("subscriber population", &s.name, s.ingress));
        for (what, name, ingress) in explicit.chain(populations) {
            if cp.topology().node(ingress).is_none() {
                return Err(ScenarioError::Invalid(format!(
                    "{what} {name:?}: ingress {ingress} is not a node"
                )));
            }
        }
        Ok(RunPlan {
            control,
            shards,
            shard_hints: self
                .nodes
                .iter()
                .filter_map(|n| Some((n.id, n.shard?)))
                .collect(),
            seed: self.seed,
            faults: self.fault_plan(&cp)?,
            cp,
            router: self.router_kind(),
            queue: self.queue_discipline(),
            flows,
            ldp,
            sr: self.sr_config(),
            telemetry,
            telemetry_on: self.telemetry.as_ref().is_some_and(|t| t.enabled),
            horizon_ns,
        })
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
        let us = |field, value| scaled("faults", field, value, NS_PER_US);
        let ms = |field, value| scaled("faults", field, value, NS_PER_MS);
        let mut plan = FaultPlan::new(RestorationPolicy {
            detection_delay_ns: us("detection_delay_us", f.detection_delay_us)?,
            resignal_delay_ns: us("resignal_delay_us", f.resignal_delay_us)?,
            backoff_factor: f.backoff_factor,
            max_retries: f.max_retries,
            hold_down_ns: ms("hold_down_ms", f.hold_down_ms)?,
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
                    plan.link_down(ms("at_ms", at_ms)?, link_of(a, b)?);
                }
                FaultEventDecl::LinkUp { at_ms, a, b } => {
                    plan.link_up(ms("at_ms", at_ms)?, link_of(a, b)?);
                }
                FaultEventDecl::NodeDown { at_ms, node } => {
                    plan.node_down(ms("at_ms", at_ms)?, node_of(node)?);
                }
                FaultEventDecl::NodeUp { at_ms, node } => {
                    plan.node_up(ms("at_ms", at_ms)?, node_of(node)?);
                }
                FaultEventDecl::PartitionStart { at_ms, a, b } => {
                    // Window builders demand start < end; scheduled
                    // endpoints arrive separately here, so push the raw
                    // events instead.
                    plan.partition_start(ms("at_ms", at_ms)?, link_of(a, b)?);
                }
                FaultEventDecl::PartitionEnd { at_ms, a, b } => {
                    plan.partition_end(ms("at_ms", at_ms)?, link_of(a, b)?);
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
                from_ns: ms("from_ms", c.from_ms)?,
                until_ns: ms("until_ms", c.until_ms)?,
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

    /// Converts and range-checks the flow declarations;
    /// subscriber-population flows follow the explicit ones, then
    /// generated flows from a `topology` section. The order fixes flow
    /// ids, and with them RNG streams and canonical event keys.
    pub fn flow_specs(&self) -> Result<Vec<FlowSpec>, ScenarioError> {
        let mut flows = self.explicit_flow_specs()?;
        for s in &self.subscribers {
            let owner = format!("subscriber population {:?}", s.name);
            let ms = |field, value| scaled(&owner, field, value, NS_PER_MS);
            require_gap(&owner, "mean_think_ms", s.mean_think_ms)?;
            let classes = if s.classes.is_empty() {
                SlaClass::residential_mix()
            } else {
                s.classes
                    .iter()
                    .map(|c| {
                        let class = format!("{owner} class {:?}", c.name);
                        check_precedence(&class, c.precedence)?;
                        check_payload(&class, c.payload_bytes)?;
                        Ok(SlaClass {
                            name: c.name.clone(),
                            precedence: c.precedence,
                            weight_pct: c.weight_pct,
                            sla_fct_ns: scaled(&class, "sla_fct_ms", c.sla_fct_ms, NS_PER_MS)?,
                            payload_bytes: c.payload_bytes,
                        })
                    })
                    .collect::<Result<_, ScenarioError>>()?
            };
            let model = SubscriberModel {
                name: s.name.clone(),
                subscribers: s.subscribers,
                mean_think_ns: ms("mean_think_ms", s.mean_think_ms)?,
                base: s.base.to_spec(&owner)?,
                classes,
            };
            flows.extend(model.flows(
                s.ingress,
                parse_ip(&s.src)?,
                parse_ip(&s.dst)?,
                ms("start_ms", s.start_ms)?,
                ms("stop_ms", s.stop_ms)?,
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
                let owner = format!("flow {:?}", f.name);
                let us = |field, value| scaled(&owner, field, value, NS_PER_US);
                let ms = |field, value| scaled(&owner, field, value, NS_PER_MS);
                check_precedence(&owner, f.precedence)?;
                check_payload(&owner, f.payload_bytes)?;
                let pattern = match f.pattern {
                    PatternDecl::Cbr { interval_us } => {
                        require_gap(&owner, "interval_us", interval_us)?;
                        TrafficPattern::Cbr {
                            interval_ns: us("interval_us", interval_us)?,
                        }
                    }
                    PatternDecl::Poisson { mean_interval_us } => {
                        require_gap(&owner, "mean_interval_us", mean_interval_us)?;
                        TrafficPattern::Poisson {
                            mean_interval_ns: us("mean_interval_us", mean_interval_us)?,
                        }
                    }
                    PatternDecl::OnOff {
                        on_us,
                        off_us,
                        interval_us,
                    } => {
                        require_gap(&owner, "interval_us", interval_us)?;
                        TrafficPattern::OnOff {
                            on_ns: us("on_us", on_us)?,
                            off_ns: us("off_us", off_us)?,
                            interval_ns: us("interval_us", interval_us)?,
                        }
                    }
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
                    } => {
                        require_gap(&owner, "mean_arrival_us", mean_arrival_us)?;
                        TrafficPattern::ClosedLoop(
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
                            .to_spec(&owner)?,
                        )
                    }
                };
                let police = match &f.police {
                    Some(p) => {
                        require(p.rate_mbps > 0, || {
                            format!("{owner}: police rate_mbps must be at least 1")
                        })?;
                        Some(PolicerSpec {
                            rate_bps: scaled(
                                &owner,
                                "police rate_mbps",
                                p.rate_mbps,
                                BPS_PER_MBPS,
                            )?,
                            burst_bytes: p.burst_bytes,
                        })
                    }
                    None => None,
                };
                Ok(FlowSpec {
                    name: f.name.clone(),
                    ingress: f.ingress,
                    src_addr: parse_ip(&f.src)?,
                    dst_addr: parse_ip(&f.dst)?,
                    payload_bytes: f.payload_bytes,
                    precedence: f.precedence,
                    pattern,
                    start_ns: ms("start_ms", f.start_ms)?,
                    stop_ns: ms("stop_ms", f.stop_ms)?,
                    police,
                })
            })
            .collect()
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

    /// Telemetry sampling from the `telemetry` section, or the defaults
    /// (what `--metrics-out` collects with when the section is absent).
    fn telemetry_config(&self) -> Result<TelemetryConfig, ScenarioError> {
        let decl = self.telemetry.clone().unwrap_or_default();
        Ok(TelemetryConfig {
            sample_interval_ns: scaled(
                "telemetry",
                "sample_interval_us",
                decl.sample_interval_us,
                NS_PER_US,
            )?,
            series_capacity: decl.series_capacity,
            event_capacity: decl.event_capacity,
        })
    }

    /// When a run stops: `horizon_ms` plus a generous drain margin.
    fn horizon_ns(&self) -> Result<u64, ScenarioError> {
        scaled("scenario", "horizon_ms", self.horizon_ms, NS_PER_MS)?
            .checked_add(500_000_000)
            .ok_or_else(|| {
                ScenarioError::Invalid(format!(
                    "scenario: horizon_ms {} is out of range",
                    self.horizon_ms
                ))
            })
    }

    /// The LDP timer configuration (scenario `ldp` section or defaults).
    pub fn ldp_config(&self) -> Result<LdpConfig, ScenarioError> {
        let decl = self.ldp.clone().unwrap_or_default();
        let us = |field, value| scaled("ldp", field, value, NS_PER_US);
        Ok(LdpConfig {
            hello_interval_ns: us("hello_interval_us", decl.hello_interval_us)?,
            hold_ns: us("hold_us", decl.hold_us)?,
            max_backoff_exp: decl.max_backoff_exp,
            jitter_seed: decl.jitter_seed,
            stale_ttl_ns: us("stale_ttl_us", decl.stale_ttl_us)?,
        })
    }

    /// Builds and runs the whole scenario. Telemetry is collected when
    /// the scenario's `telemetry` section asks for it.
    pub fn run(&self) -> Result<mpls_net::SimReport, ScenarioError> {
        self.run_with_overrides(false, None, None)
    }

    /// Like [`Self::run`], but collects telemetry even without a
    /// `telemetry` section (the `--metrics-out` path).
    pub fn run_with_telemetry(&self) -> Result<mpls_net::SimReport, ScenarioError> {
        self.run_with_overrides(true, None, None)
    }

    /// Like [`Self::run`], with the command-line overrides applied:
    /// `force_telemetry` for `--metrics-out`, and `shards` and `control`
    /// as in [`Self::validate_with_overrides`].
    pub fn run_with_overrides(
        &self,
        force_telemetry: bool,
        shards: Option<usize>,
        control: Option<&str>,
    ) -> Result<mpls_net::SimReport, ScenarioError> {
        let plan = self.validate_with_overrides(shards, control)?;
        Ok(plan.execute(force_telemetry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = include_str!("../scenarios/example.json");
    const SCALE_SMOKE: &str = include_str!("../scenarios/scale_smoke.json");

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

    /// `build_control_plane` is public: it checks the declarations
    /// before the topology would panic on them.
    #[test]
    fn graphs_a_topology_refuses_are_typed_errors() {
        type Mutation = fn(&mut Scenario);
        let cases: [(Mutation, &str); 2] = [
            (
                |sc| sc.links.push(sc.links[1].clone()),
                "links #1 and #3 both join nodes 2 and 3",
            ),
            (
                |sc| sc.links[0].bandwidth_mbps = 0,
                "link 0-2: bandwidth_mbps must be at least 1",
            ),
        ];
        for (mutate, named) in cases {
            let mut sc = Scenario::from_json(EXAMPLE).unwrap();
            mutate(&mut sc);
            let err = sc.build_control_plane().expect_err(named);
            assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
            assert!(err.to_string().contains(named), "{err}");
        }
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
    fn ingress_outside_the_topology_is_rejected() {
        let mut flow = Scenario::from_json(EXAMPLE).unwrap();
        flow.flows[0].ingress = 9;
        let mut population =
            Scenario::from_json(include_str!("../scenarios/closed_loop.json")).unwrap();
        population.subscribers[0].ingress = 9;
        for (sc, named) in [
            (flow, r#"flow "voip": ingress 9"#),
            (population, r#"subscriber population "metro": ingress 9"#),
        ] {
            for err in [sc.run().map(drop), sc.validate().map(drop)] {
                let err = err.expect_err("no node 9 to enter at");
                assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
                assert!(err.to_string().contains(named), "{err}");
            }
        }
    }

    /// The example's chain with `lsps` LSPs from node 0 to node 1, each
    /// for its own /24, and one CBR flow to the last one's FEC.
    fn many_lsps(lsps: usize) -> Scenario {
        let mut sc = Scenario::from_json(EXAMPLE).unwrap();
        let template = sc.lsps[1].clone();
        sc.lsps = (0..lsps)
            .map(|i| LspDecl {
                fec: format!("10.{}.{}.0/24", i / 256, i % 256),
                ..template.clone()
            })
            .collect();
        let last = lsps - 1;
        sc.flows.truncate(1);
        sc.flows[0].dst = format!("10.{}.{}.1", last / 256, last % 256);
        sc.flows[0].pattern = PatternDecl::Cbr { interval_us: 100 };
        sc.flows[0].stop_ms = 2;
        sc.horizon_ms = 5;
        sc
    }

    /// An embedded router holds 1,024 label pairs per level. A plan that
    /// needs more is an error naming the node, the level and the count,
    /// instead of a run whose last LSPs discard every packet.
    #[test]
    fn embedded_info_base_overflow_is_rejected() {
        let full = many_lsps(1024);
        let report = full.run().expect("a full level still fits");
        assert_eq!(report.flow("voip").unwrap().delivered, 20);

        let sc = many_lsps(1100);
        for err in [sc.run().map(drop), sc.validate().map(drop)] {
            let err = err.expect_err("1,100 pairs do not fit one level");
            assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
            assert!(
                err.to_string()
                    .contains("node 1: level 2 needs 1100 label pairs"),
                "{err}"
            );
        }
        let mut software = sc;
        software.router = RouterDecl::SoftwareLinear;
        let report = software.run().expect("software routers have no such limit");
        assert_eq!(report.flow("voip").unwrap().delivered, 20);
    }

    /// One-field mutations that topology building or the engine cannot
    /// take: each is a typed error from `validate` and from `run`.
    #[test]
    fn declarations_the_engine_cannot_build_are_rejected() {
        type Mutation = fn(&mut Scenario);
        let cases: [(Mutation, &str); 5] = [
            (
                |sc| sc.nodes.push(sc.nodes[3].clone()),
                "node 3 is declared twice",
            ),
            (|sc| sc.links[1].b = 9, "link 2-9: no node 9"),
            (
                |sc| sc.links[1].b = 2,
                "link 2-2: a link joins two distinct nodes",
            ),
            (
                |sc| sc.links[1].bandwidth_mbps = 0,
                "link 2-3: bandwidth_mbps must be at least 1",
            ),
            (
                |sc| sc.router = RouterDecl::Embedded { clock_mhz: 0.0 },
                "router clock_mhz 0 must be positive",
            ),
        ];
        for (mutate, named) in cases {
            let mut sc = Scenario::from_json(EXAMPLE).unwrap();
            mutate(&mut sc);
            for err in [sc.validate().map(drop), sc.run().map(drop)] {
                let err = err.expect_err(named);
                assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
                assert!(err.to_string().contains(named), "{err}");
            }
        }
    }

    /// One-field mutations that `run` could only honor by never ending,
    /// by wrapping a unit conversion, or by silently changing the value,
    /// and an LSP that ends where it starts: each is a typed error naming
    /// the field, from `validate` first.
    #[test]
    fn fields_a_run_cannot_honor_are_rejected() {
        type Mutation = fn(&mut Scenario);
        const HUGE: u64 = 1 << 62;
        let cases: [(&str, Mutation, &str); 28] = [
            (
                EXAMPLE,
                |sc| sc.flows[0].pattern = PatternDecl::Cbr { interval_us: 0 },
                r#"flow "voip": interval_us must be at least 1"#,
            ),
            (
                EXAMPLE,
                |sc| {
                    sc.flows[0].pattern = PatternDecl::Poisson {
                        mean_interval_us: 0,
                    }
                },
                r#"flow "voip": mean_interval_us must be at least 1"#,
            ),
            (
                EXAMPLE,
                |sc| {
                    sc.flows[0].pattern = PatternDecl::OnOff {
                        on_us: 1_000,
                        off_us: 1_000,
                        interval_us: 0,
                    }
                },
                r#"flow "voip": interval_us must be at least 1"#,
            ),
            (
                CLOSED_LOOP,
                |sc| {
                    let PatternDecl::ClosedLoop {
                        mean_arrival_us, ..
                    } = &mut sc.flows[0].pattern
                    else {
                        panic!("web is closed-loop")
                    };
                    *mean_arrival_us = 0;
                },
                r#"flow "web": mean_arrival_us must be at least 1"#,
            ),
            (
                CLOSED_LOOP,
                |sc| sc.subscribers[0].mean_think_ms = 0,
                r#"subscriber population "metro": mean_think_ms must be at least 1"#,
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().flow_interval_us = 0,
                "topology: flow_interval_us must be at least 1",
            ),
            (
                EXAMPLE,
                |sc| sc.flows[0].pattern = PatternDecl::Cbr { interval_us: HUGE },
                r#"flow "voip": interval_us 4611686018427387904 is out of range"#,
            ),
            (
                EXAMPLE,
                |sc| sc.flows[0].stop_ms = HUGE,
                r#"flow "voip": stop_ms 4611686018427387904 is out of range"#,
            ),
            (
                EXAMPLE,
                |sc| sc.horizon_ms = HUGE,
                "scenario: horizon_ms 4611686018427387904 is out of range",
            ),
            (
                EXAMPLE,
                |sc| sc.flows[0].precedence = 9,
                r#"flow "voip": precedence 9 exceeds 7"#,
            ),
            (
                CLOSED_LOOP,
                |sc| {
                    sc.subscribers[0].classes.push(ClassDecl {
                        name: "tin".into(),
                        precedence: 9,
                        weight_pct: 100,
                        sla_fct_ms: 0,
                        payload_bytes: 100,
                    })
                },
                r#"subscriber population "metro" class "tin": precedence 9 exceeds 7"#,
            ),
            (
                EXAMPLE,
                |sc| sc.flows[0].payload_bytes = 100_000,
                r#"flow "voip": payload_bytes 100000 exceeds 65515"#,
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().payload_bytes = 100_000,
                "topology: payload_bytes 100000 exceeds 65515",
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().tunnel_strides = 0,
                "topology: tunnel_strides 0 must be from 1 to 30 for 32 anchors",
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().lsps_total = 0,
                "topology: lsps_total must be at least 1",
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().bandwidth_mbps = 0,
                "topology: bandwidth_mbps must be at least 1",
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().k = 0,
                "topology: k 0 must be an even number of at least 4",
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().k = 1,
                "topology: k 1 must be an even number of at least 4",
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().k = 2,
                "topology: k 2 must be an even number of at least 4",
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().k = 3,
                "topology: k 3 must be an even number of at least 4",
            ),
            (
                SCALE_SMOKE,
                |sc| sc.topology.as_mut().unwrap().lers_per_edge = 0,
                "topology: lers_per_edge must be at least 1",
            ),
            (
                SCALE_SMOKE,
                |sc| {
                    let t = sc.topology.as_mut().unwrap();
                    t.family = "ring_of_rings".into();
                    t.rings = 0;
                },
                "topology: rings 0 must be at least 4",
            ),
            (
                SCALE_SMOKE,
                |sc| {
                    let t = sc.topology.as_mut().unwrap();
                    t.family = "ring_of_rings".into();
                    t.ring_size = 0;
                },
                "topology: ring_size 0 must be at least 2",
            ),
            (
                EXAMPLE,
                |sc| sc.queue = QueueDecl::CosPriority { per_class: 0 },
                "queue: per_class must be at least 1",
            ),
            (
                EXAMPLE,
                |sc| {
                    sc.flows[0].police = Some(PoliceDecl {
                        rate_mbps: 0,
                        burst_bytes: 1_500,
                    })
                },
                r#"flow "voip": police rate_mbps must be at least 1"#,
            ),
            (
                EXAMPLE,
                |sc| sc.control = Some("bogus".into()),
                r#"unknown control mode "bogus""#,
            ),
            (
                EXAMPLE,
                |sc| sc.shards = Some(0),
                "scenario: shards must be at least 1",
            ),
            (
                EXAMPLE,
                |sc| {
                    let mut twin = sc.links[1].clone();
                    std::mem::swap(&mut twin.a, &mut twin.b);
                    sc.links.push(twin);
                },
                "link 3-2: links #1 and #3 both join nodes 2 and 3",
            ),
        ];
        for (text, mutate, named) in cases {
            let mut sc = Scenario::from_json(text).unwrap();
            mutate(&mut sc);
            // `validate` first: a run of an accepted mutation may not end.
            for run in [false, true] {
                let err = if run {
                    sc.run().map(drop)
                } else {
                    sc.validate().map(drop)
                };
                let err = err.expect_err(named);
                assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
                assert!(err.to_string().contains(named), "{err}");
            }
        }
        // An LSP from a node to itself, routed by CSPF or pinned to
        // `[0]`, has no hop to label: signaling refuses it by name.
        for route in [None, Some(vec![0])] {
            let mut sc = Scenario::from_json(EXAMPLE).unwrap();
            sc.lsps[1].egress = 0;
            sc.lsps[1].explicit_route = route;
            for err in [sc.validate().map(drop), sc.run().map(drop)] {
                let err = err.expect_err("an LSP from node 0 to itself");
                assert!(matches!(err, ScenarioError::Signal(_)), "{err}");
                assert!(
                    err.to_string().contains("lsp #1: IngressIsEgress(0)"),
                    "{err}"
                );
            }
        }
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

    /// Every LSP of a `topology:` fabric rides a tunnel and reserves only
    /// its access segments, yet a cut inside a tunnel breaks it:
    /// restoration re-signals those LSPs onto physical paths, so service
    /// returns one re-signal after detection and the loss does not grow
    /// with the outage.
    #[test]
    fn restoration_reroutes_the_lsps_riding_a_cut_tunnel() {
        let outage = |up_ms| {
            let mut sc =
                Scenario::from_json(include_str!("../scenarios/tunnel_restoration.json")).unwrap();
            sc.faults.as_mut().unwrap().events = vec![
                FaultEventDecl::LinkDown {
                    at_ms: 5,
                    a: 0,
                    b: 4,
                },
                FaultEventDecl::LinkUp {
                    at_ms: up_ms,
                    a: 0,
                    b: 4,
                },
            ];
            let report = sc.run().expect("the fabric runs");
            assert_eq!(report.faults.len(), 1);
            report.faults[0].clone()
        };
        let (short, long) = (outage(8), outage(20));
        for rec in [&short, &long] {
            let detected = rec.detected_ns.expect("the cut is detected");
            assert!(rec.restored_ns.expect("restored") > detected, "{rec:?}");
            assert!(rec.packets_lost > 0, "{rec:?}");
        }
        assert_eq!(short.packets_lost, long.packets_lost);
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
        let plan = sc.validate().unwrap();
        assert!(!plan.telemetry_on, "off by default");
        // --metrics-out forces it on with defaults.
        assert_eq!(plan.telemetry.sample_interval_ns, 100_000);

        sc.telemetry = Some(TelemetryDecl {
            sample_interval_us: 50,
            ..TelemetryDecl::default()
        });
        let plan = sc.validate().unwrap();
        assert!(plan.telemetry_on);
        assert_eq!(plan.telemetry.sample_interval_ns, 50_000);
        let report = sc.run().unwrap();
        let tel = report.telemetry.expect("section turns telemetry on");
        assert!(tel.counter("flow.voip.sent").unwrap() > 0.0);
        assert!(tel
            .series
            .iter()
            .any(|s| s.name.ends_with(".queue_depth") && !s.points.is_empty()));

        // A disabled section keeps the run clean unless forced.
        sc.telemetry.as_mut().unwrap().enabled = false;
        let plan = sc.validate().unwrap();
        assert!(!plan.telemetry_on);
        assert_eq!(
            plan.telemetry.sample_interval_ns, 50_000,
            "tuning survives forcing"
        );
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
        let spec = d.to_spec("flow").unwrap();
        assert_eq!(spec, ClosedLoopSpec::default());
        // Partial overrides keep the rest at library defaults.
        let d: ClosedLoopDecl =
            serde_json::from_str(r#"{"kind": "closed_loop", "max_cwnd": 8, "sla_fct_ms": 5}"#)
                .unwrap();
        let spec = d.to_spec("flow").unwrap();
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
        let cfg = sc.ldp_config().unwrap();
        assert_eq!(cfg.hello_interval_ns, 1_000_000);
        assert_eq!(cfg.hold_ns, 3_500_000);
        sc.ldp = Some(LdpDecl {
            hello_interval_us: 200,
            hold_us: 700,
            stale_ttl_us: 1_500,
            ..LdpDecl::default()
        });
        let cfg = sc.ldp_config().unwrap();
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

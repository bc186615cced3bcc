#![warn(missing_docs)]
//! Discrete-event network simulator for MPLS experiments.
//!
//! Models the surrounding network of the paper's Fig. 1 so the embedded
//! router can be exercised end to end: LERs bridging layer-2 traffic into
//! an LSR core, links with finite capacity and propagation delay, CoS-
//! aware queueing (the QoS motivation of §1), and traffic generators for
//! the workloads the paper's introduction names — VoIP and streaming
//! video against background bulk transfer.
//!
//! * [`event`] — the time-ordered event queue, and the coordinator's
//!   control events.
//! * [`queue`] — FIFO and CoS-priority link queues with tail drop.
//! * [`link`] — directed channels with serialization + propagation delay.
//! * [`traffic`] — CBR, Poisson, on/off and closed-loop generators.
//! * [`subscriber`] — subscriber populations expanded into per-SLA-class
//!   closed-loop flows (diurnal load, flash crowds).
//! * [`policer`] — token-bucket edge policing.
//! * [`stats`] — per-flow delay/jitter/loss/throughput accounting.
//! * [`histogram`] — the log-bucketed latency histogram behind the
//!   percentiles.
//! * [`fault`] — scheduled link failures and the timed-restoration model.
//! * [`scale`] — streaming synthesis of million-LSP workloads.
//! * [`engine`] — the sharded discrete-event engine (per-shard event
//!   queues, conservative epoch barriers, deterministic merge). Each
//!   vertex holds the boxed `MplsForwarder` that
//!   [`RouterKind::build`](mpls_router::RouterKind::build) returns, and
//!   every packet arrival is one `handle_on_port` call on it.
//! * [`sim`] — the facade tying routers (`mpls-router`) to the network.

pub mod engine;
pub mod event;
pub mod fault;
pub mod histogram;
pub mod link;
pub mod policer;
pub mod queue;
pub mod scale;
pub mod sim;
pub mod stats;
pub mod subscriber;
pub mod traffic;

pub use engine::{ChannelEdges, EngineKind, EngineStats};
pub use event::{ControlEvent, EventQueue, SimTime};
pub use fault::{FaultPlan, FaultRecord, PduChaos, RecoveryMode, RestorationPolicy};
pub use histogram::LatencyHistogram;
pub use link::Channel;
pub use policer::{PolicerSpec, TokenBucket};
pub use queue::{LinkQueue, QueueDiscipline};
pub use scale::{ScaleError, ScaleFamily, ScaleSpec, ScaleWorkload};
pub use sim::{ControlMode, ControlSummary, RouterKind, SimReport, Simulation};
pub use stats::{FlowId, FlowStats};
pub use subscriber::{SlaClass, SubscriberModel};
pub use traffic::{ClosedLoopSpec, FlowSpec, TrafficPattern};

// Telemetry surface, re-exported so simulator users don't need a direct
// `mpls-telemetry` dependency to configure a run or read its report.
pub use mpls_telemetry::{
    telemetry_to_csv, telemetry_to_json, Registry, TelemetryConfig, TelemetryReport,
};

// Distributed-control-plane configuration, re-exported for the same
// reason: `Simulation::enable_ldp` takes it.
pub use mpls_ldp::LdpConfig;

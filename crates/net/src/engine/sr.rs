//! The engine's half of the segment-routing control plane.
//!
//! Unlike LDP, SR keeps no per-LSP signaling state in the network: the
//! ingress carries the whole route in the label stack, so "recovery" is
//! just recompiling source routes on the coordinator and downloading
//! the handful of changed node configurations. Detection still costs
//! the centralized detection delay; once it fires, every reachable pair
//! is rerouted in the same instant — there is no withdraw/remap cascade
//! to wait out, which is exactly the operational story EXT-16 measures
//! against LDP. The engine's handlers call the fabric directly; its
//! dirty set reaches the routers through `Engine::flush_downloads`.

use crate::sim::{ControlMode, ControlSummary};
use mpls_control::{NodeConfig, NodeId};
use std::collections::BTreeMap;

/// Everything the engine tracks for a `--control sr` run.
pub(crate) struct SrRuntime {
    /// The compiled fabric: SIDs, source routes, ECMP sets.
    pub(crate) fabric: mpls_sr::SrFabric,
    /// When a recompile last changed a live node's configuration (ns).
    pub(crate) last_fib_change_ns: u64,
}

impl SrRuntime {
    pub(crate) fn new(fabric: mpls_sr::SrFabric) -> Self {
        Self {
            fabric,
            last_fib_change_ns: 0,
        }
    }

    /// The report's control summary and converged FIBs for an SR run.
    /// Bring-up happens before t=0 (like the centralized solver), so
    /// `convergence_ns` stays `None`; `last_fib_change_ns` advances only
    /// when a fault recompile actually changed a node, which is what the
    /// chaos quiesce oracle watches.
    pub(super) fn finish(&self) -> (ControlSummary, Option<BTreeMap<NodeId, NodeConfig>>) {
        let summary = ControlSummary {
            mode: ControlMode::Sr,
            last_fib_change_ns: self.last_fib_change_ns,
            ..ControlSummary::default()
        };
        (summary, Some(self.fabric.configs().clone()))
    }
}

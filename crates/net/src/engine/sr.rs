//! The engine's half of the segment-routing control plane.
//!
//! Unlike LDP, SR keeps no per-LSP signaling state in the network: the
//! ingress carries the whole route in the label stack, so "recovery" is
//! just recompiling source routes on the coordinator and downloading
//! the handful of changed node configurations. Detection still costs
//! the centralized detection delay; once it fires, every reachable pair
//! is rerouted in the same instant — there is no withdraw/remap cascade
//! to wait out, which is exactly the operational story EXT-16 measures
//! against LDP.

use super::Engine;
use crate::sim::{ControlMode, ControlSummary};
use mpls_control::{LinkId, NodeConfig, NodeId};
use std::collections::BTreeMap;

/// Everything the engine tracks for a `--control sr` run.
pub(crate) struct SrRuntime {
    /// The compiled fabric: SIDs, source routes, ECMP sets.
    pub(crate) fabric: mpls_sr::SrFabric,
    /// When a recompile last changed any node's configuration (ns).
    pub(crate) last_fib_change_ns: u64,
}

impl SrRuntime {
    pub(crate) fn new(fabric: mpls_sr::SrFabric) -> Self {
        Self {
            fabric,
            last_fib_change_ns: 0,
        }
    }
}

impl Engine {
    /// Downloads fresh forwarding state into every node whose compiled
    /// configuration changed. Crashed nodes are skipped — their FIBs
    /// stay cold until `NodeReprovision` fires, the same cold-FIB window
    /// the centralized solver leaves.
    pub(super) fn reprogram_sr_dirty(&mut self, rt: &mut SrRuntime) {
        let mut any = false;
        for id in rt.fabric.take_dirty() {
            if self.dead_nodes.contains(&id) {
                continue;
            }
            any = true;
            let cfg = rt.fabric.config_for(id);
            for sh in &mut self.shards {
                if let Some(&l) = sh.node_local.get(&id) {
                    sh.nodes[l].reprogram(&cfg);
                }
            }
        }
        if any {
            rt.last_fib_change_ns = rt.last_fib_change_ns.max(self.now);
        }
    }

    /// Detection fired on a dead link: recompile every source route with
    /// the link unusable and download the changed configurations. The
    /// record is restored in the same instant — the ingress stacks are
    /// the only per-path state, and they are already rewritten.
    pub(super) fn sr_fault_detected(&mut self, link: LinkId, rec: usize) {
        let Some(mut rt) = self.sr.take() else {
            return;
        };
        rt.fabric.fail_link(link);
        self.reprogram_sr_dirty(&mut rt);
        self.sr = Some(rt);
        self.set_restored(rec);
    }

    /// A held-down link returns to service: recompile with it usable.
    pub(super) fn sr_hold_down_expired(&mut self, link: LinkId) {
        let Some(mut rt) = self.sr.take() else {
            return;
        };
        rt.fabric.restore_link(link);
        self.reprogram_sr_dirty(&mut rt);
        self.sr = Some(rt);
    }

    /// The coordinator re-downloads a restarted node's compiled
    /// configuration, ending its cold-FIB window.
    pub(super) fn sr_reprovision(&mut self, node: NodeId) {
        let Some(rt) = &self.sr else {
            return;
        };
        let cfg = rt.fabric.config_for(node);
        self.reprogram_node(node, &cfg);
    }

    /// The report's control summary and converged FIBs for an SR run.
    /// Bring-up happens before t=0 (like the centralized solver), so
    /// `convergence_ns` stays `None`; `last_fib_change_ns` advances only
    /// when a fault recompile actually changed a node, which is what the
    /// chaos quiesce oracle watches.
    pub(super) fn finish_sr(&self) -> (ControlSummary, Option<BTreeMap<NodeId, NodeConfig>>) {
        let rt = self.sr.as_ref().expect("caller checked");
        let summary = ControlSummary {
            mode: ControlMode::Sr,
            last_fib_change_ns: rt.last_fib_change_ns,
            ..ControlSummary::default()
        };
        let fibs = rt.fabric.configs().clone();
        (summary, Some(fibs))
    }
}

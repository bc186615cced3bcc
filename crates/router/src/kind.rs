//! Router-model selection behind one constructor.
//!
//! Callers pick a [`RouterKind`] and get back a boxed [`MplsForwarder`]
//! without matching on router internals — the simulator, benches and CLI
//! all build nodes through [`RouterKind::build`], so adding a router
//! model is a change to this crate alone.

use crate::forwarding::MplsForwarder;
use crate::{EmbeddedRouter, SoftwareRouter, SwTimingModel};
use mpls_control::{NodeConfig, NodeId, RouterRole};
use mpls_core::ClockSpec;

/// Which router implementation populates a node.
#[derive(Debug, Clone, Copy)]
pub enum RouterKind {
    /// The embedded (hardware-model) router at a given clock.
    Embedded {
        /// FPGA clock.
        clock: ClockSpec,
    },
    /// Software router with hash-map lookups.
    SoftwareHash {
        /// Latency model.
        timing: SwTimingModel,
    },
    /// Software router with linear-scan lookups.
    SoftwareLinear {
        /// Latency model.
        timing: SwTimingModel,
    },
    /// Software fast path: open-addressed hash FIB reporting canonical
    /// (linear-equivalent) probe counts, plus a per-ingress flow cache.
    /// Produces a byte-identical report to [`RouterKind::SoftwareLinear`]
    /// while looking up in O(1) host time. `MPLS_SIM_DIFF_LOOKUP=1`
    /// cross-checks every lookup against a shadow linear table.
    SoftwareFast {
        /// Latency model.
        timing: SwTimingModel,
        /// Per-ingress flow cache on top of the hash FIB. The report is
        /// byte-identical either way.
        cache: bool,
    },
}

impl RouterKind {
    /// Instantiates a router of this kind for `node`, programmed with
    /// `config`.
    pub fn build(
        &self,
        node: NodeId,
        role: RouterRole,
        config: &NodeConfig,
    ) -> Box<dyn MplsForwarder + Send> {
        match *self {
            RouterKind::Embedded { clock } => {
                Box::new(EmbeddedRouter::new(node, role, config, clock))
            }
            RouterKind::SoftwareHash { timing } => {
                Box::new(SoftwareRouter::<mpls_dataplane::HashTable>::new(
                    node, role, config, timing,
                ))
            }
            RouterKind::SoftwareLinear { timing } => {
                Box::new(SoftwareRouter::<mpls_dataplane::LinearTable>::new(
                    node, role, config, timing,
                ))
            }
            RouterKind::SoftwareFast { timing, cache } => {
                Box::new(SoftwareRouter::<mpls_dataplane::HashFib>::with_options(
                    node, role, config, timing, cache,
                ))
            }
        }
    }
}

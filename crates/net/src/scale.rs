//! Streaming million-LSP workload synthesis.
//!
//! The scenario files under `examples/` enumerate every node, link and
//! LSP explicitly — fine at tens of LSPs, hopeless at a million. This
//! module synthesizes production-scale workloads *on the fly* from a
//! compact parametric spec: a topology family (`fat_tree`,
//! `ring_of_rings`), an LSP count, and a seed. Nothing about the
//! workload is stored ahead of time; the endpoint of LSP `i` is a pure
//! function of `(spec, i)`, so
//!
//! * bring-up streams — one [`LspRequest`] exists at a time, and
//! * the workload is reproducible — the same spec yields byte-identical
//!   control planes and flow tables, on any host, at any shard count.
//!
//! # Label budget
//!
//! A million LSPs cannot spend a label per hop from one shared 2^20
//! space. Every generated LSP therefore rides a hierarchical tunnel
//! between anchor switches with penultimate-hop popping. In the fat
//! tree, where every LER sits directly under its anchor, that costs
//! exactly **one** fresh label per LSP (the ingress push; the tunnel
//! head preserves it, the penultimate pops it). In the ring of rings
//! the access segments — the hops around the local ring between a
//! member LER and its gateway anchor — still allocate per hop, so
//! label cost grows with `ring_size` and the family's LSP budget must
//! shrink accordingly. The tunnel mesh itself is
//! `O(anchors · strides)` — a thousand-odd tunnels at a few labels
//! each — leaving headroom under the 2^20 ceiling at 1M fat-tree LSPs.

use crate::traffic::{FlowSpec, TrafficPattern};
use mpls_control::{ControlPlane, LspRequest, NodeId, SignalError, Topology, TunnelId};
use mpls_dataplane::ftn::Prefix;
use mpls_packet::splitmix64;

/// First generated FEC host address: `10.0.0.0`. LSP `i` owns
/// `BASE + i` as a /32 host FEC.
const FEC_BASE: u32 = 0x0A00_0000;

/// Source address stamped on generated flows: `172.16.0.1`.
const FLOW_SRC: u32 = 0xAC10_0001;

/// A parametric topology family at a chosen width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleFamily {
    /// `k`-ary fat tree with `lers_per_edge` LERs under every edge
    /// switch (see [`Topology::fat_tree`]).
    FatTree {
        /// Fat-tree arity (even, ≥ 2).
        k: u32,
        /// LERs grafted under each edge switch.
        lers_per_edge: u32,
    },
    /// Backbone ring of `rings` gateways, each anchoring a local ring
    /// of `ring_size` LERs (see [`Topology::ring_of_rings`]).
    RingOfRings {
        /// Backbone gateways (≥ 3).
        rings: u32,
        /// LERs per local ring (≥ 2).
        ring_size: u32,
    },
}

/// A complete streaming workload spec: topology family, LSP volume,
/// tunnel mesh density, attached traffic, and the seed everything is
/// derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleSpec {
    /// Topology family and width.
    pub family: ScaleFamily,
    /// LSPs to signal.
    pub lsps_total: usize,
    /// Tunnel mesh density: each core anchor gets one tunnel per stride
    /// class. Must be ≥ 1 and small enough that every stride stays a
    /// shortest path (enforced per family).
    pub tunnel_strides: u32,
    /// Traffic flows riding a sampled subset of the LSPs.
    pub flows: usize,
    /// Payload bytes per flow packet.
    pub payload_bytes: usize,
    /// CBR inter-packet gap per flow (ns).
    pub flow_interval_ns: u64,
    /// Flow emission window start (ns).
    pub flow_start_ns: u64,
    /// Flow emission window end (ns).
    pub flow_stop_ns: u64,
    /// Link capacity for every synthesized link (bits/s).
    pub bandwidth_bps: u64,
    /// One-way propagation delay for every synthesized link (ns).
    pub delay_ns: u64,
    /// Workload seed: drives endpoint and flow sampling only.
    pub seed: u64,
}

/// The synthesized workload: a fully signaled control plane plus the
/// traffic flows to attach.
pub struct ScaleWorkload {
    /// Control plane with the tunnel mesh and every LSP installed.
    pub cp: ControlPlane,
    /// Traffic flows, one per sampled LSP.
    pub flows: Vec<FlowSpec>,
    /// Tunnels established.
    pub tunnels: usize,
    /// LSPs established.
    pub lsps: usize,
}

/// Why a [`ScaleSpec`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleError {
    /// A spec field is outside what its family can honor; nothing was
    /// built. `field` is the field's name in [`ScaleSpec`] or
    /// [`ScaleFamily`], `message` says what it must be.
    Field {
        /// The offending field.
        field: &'static str,
        /// The field's value and the range it must lie in.
        message: String,
    },
    /// Signaling the synthesized workload failed.
    Signal(SignalError),
}

impl From<SignalError> for ScaleError {
    fn from(e: SignalError) -> Self {
        ScaleError::Signal(e)
    }
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleError::Field { field, message } => write!(f, "{field} {message}"),
            ScaleError::Signal(e) => write!(f, "signaling failed: {e:?}"),
        }
    }
}

impl std::error::Error for ScaleError {}

/// Fails with [`ScaleError::Field`] unless `ok`.
fn require(
    ok: bool,
    field: &'static str,
    message: impl FnOnce() -> String,
) -> Result<(), ScaleError> {
    if ok {
        Ok(())
    } else {
        Err(ScaleError::Field {
            field,
            message: message(),
        })
    }
}

/// The pure endpoint function: everything LSP `i` is, derived from the
/// spec alone.
#[derive(Debug, Clone, Copy)]
struct LspPlan {
    ingress: NodeId,
    egress: NodeId,
    /// Index into the tunnel mesh (dense, family-specific order).
    tunnel: usize,
    fec: Prefix,
}

impl ScaleSpec {
    /// Builds the topology for the spec's family.
    pub fn topology(&self) -> Topology {
        match self.family {
            ScaleFamily::FatTree { k, lers_per_edge } => {
                Topology::fat_tree(k, lers_per_edge, self.bandwidth_bps, self.delay_ns)
            }
            ScaleFamily::RingOfRings { rings, ring_size } => {
                Topology::ring_of_rings(rings, ring_size, self.bandwidth_bps, self.delay_ns)
            }
        }
    }

    /// Number of tunnel anchors (edge switches / gateways).
    fn anchors(&self) -> u64 {
        match self.family {
            ScaleFamily::FatTree { k, .. } => u64::from(k) * u64::from(k) / 2,
            ScaleFamily::RingOfRings { rings, .. } => u64::from(rings),
        }
    }

    /// The anchor pair `(head, tail)` of tunnel-mesh slot
    /// `(stride class s0, anchor a)`, as node ids.
    fn anchor_pair(&self, s0: u64, a: u64) -> (NodeId, NodeId) {
        let n = self.anchors();
        match self.family {
            ScaleFamily::FatTree { k, .. } => {
                let half = u64::from(k) / 2;
                let base = half * half + u64::from(k) * half; // cores + aggs
                let stride = s0 + 1; // strides 1..=S: distinct edges
                ((base + a) as NodeId, (base + (a + stride) % n) as NodeId)
            }
            ScaleFamily::RingOfRings { .. } => {
                // Strides 2..=S+1: adjacent gateways (stride 1) have a
                // 2-node path, too short for a PHP tunnel interior.
                let stride = s0 + 2;
                (a as NodeId, ((a + stride) % n) as NodeId)
            }
        }
    }

    /// Checks every precondition of [`Self::build`] and
    /// [`Self::flow_specs`], naming the first field that breaks one.
    ///
    /// * A fat tree needs an even `k` of at least 4 and `lers_per_edge`
    ///   ≥ 1. (`k = 2` is a valid fat tree, but its two edge switches
    ///   leave no tunnel stride.)
    /// * A ring of rings needs `rings` ≥ 4 (three gateways leave no
    ///   stride whose tunnel has an interior) and `ring_size` ≥ 2.
    /// * `tunnel_strides` must lie in `1..max`: a stride must stay below
    ///   half the anchor count (ring of rings) or below the anchor count
    ///   minus one (fat tree), so the canonical shortest path agrees with
    ///   the intended anchor pair.
    /// * `lsps_total` must be at least 1.
    /// * `bandwidth_bps` must be at least 1: a link without bandwidth
    ///   could never finish serializing a packet.
    pub fn check(&self) -> Result<(), ScaleError> {
        let max = match self.family {
            ScaleFamily::FatTree { k, lers_per_edge } => {
                require(k >= 4 && k.is_multiple_of(2), "k", || {
                    format!("{k} must be an even number of at least 4")
                })?;
                require(lers_per_edge >= 1, "lers_per_edge", || {
                    "must be at least 1".into()
                })?;
                self.anchors() - 1
            }
            ScaleFamily::RingOfRings { rings, ring_size } => {
                require(rings >= 4, "rings", || {
                    format!("{rings} must be at least 4")
                })?;
                require(ring_size >= 2, "ring_size", || {
                    format!("{ring_size} must be at least 2")
                })?;
                self.anchors() / 2
            }
        };
        let strides = self.tunnel_strides;
        require(
            strides >= 1 && u64::from(strides) < max,
            "tunnel_strides",
            || {
                format!(
                    "{strides} must be from 1 to {} for {} anchors",
                    max - 1,
                    self.anchors()
                )
            },
        )?;
        require(self.lsps_total >= 1, "lsps_total", || {
            "must be at least 1".into()
        })?;
        require(self.bandwidth_bps >= 1, "bandwidth_bps", || {
            "must be at least 1".into()
        })
    }

    /// The LER endpoints, tunnel slot and FEC of LSP `i` — a pure
    /// function of the spec.
    fn plan(&self, i: usize) -> LspPlan {
        let h = splitmix64(self.seed ^ (i as u64).wrapping_mul(0x0123_4567_89AB_CDEF));
        let n = self.anchors();
        let strides = u64::from(self.tunnel_strides);
        let s0 = h % strides;
        let a = (h >> 8) % n;
        let (head, tail) = self.anchor_pair(s0, a);
        let (ingress, egress) = match self.family {
            ScaleFamily::FatTree { k, lers_per_edge } => {
                let half = u64::from(k) / 2;
                let ler_base = half * half + 2 * u64::from(k) * half;
                let edge_base = half * half + u64::from(k) * half;
                let lpe = u64::from(lers_per_edge);
                let ler = |edge: u64, j: u64| (ler_base + edge * lpe + j) as NodeId;
                (
                    ler(u64::from(head) - edge_base, (h >> 40) % lpe),
                    ler(u64::from(tail) - edge_base, (h >> 52) % lpe),
                )
            }
            ScaleFamily::RingOfRings { rings, ring_size } => {
                let r = u64::from(rings);
                let rs = u64::from(ring_size);
                let member = |gw: u64, j: u64| (r + gw * rs + j) as NodeId;
                (
                    member(u64::from(head), (h >> 40) % rs),
                    member(u64::from(tail), (h >> 52) % rs),
                )
            }
        };
        let slot = (s0 * n + a) as usize;
        LspPlan {
            ingress,
            egress,
            tunnel: slot,
            fec: Prefix::new(FEC_BASE.wrapping_add(i as u32), 32),
        }
    }

    /// Synthesizes the full workload: topology, tunnel mesh, every LSP
    /// (streamed — no request list is ever materialized), and the
    /// sampled traffic flows. Checks the spec first ([`Self::check`]),
    /// so a bad field is an error before anything is built.
    pub fn build(&self) -> Result<ScaleWorkload, ScaleError> {
        self.check()?;
        let mut cp = ControlPlane::new(self.topology());

        // Tunnel mesh: slot (s0, a) -> tunnel id, dense.
        let n = self.anchors();
        let mut tunnel_ids: Vec<TunnelId> =
            Vec::with_capacity((u64::from(self.tunnel_strides) * n) as usize);
        for s0 in 0..u64::from(self.tunnel_strides) {
            for a in 0..n {
                let (head, tail) = self.anchor_pair(s0, a);
                tunnel_ids.push(cp.establish_tunnel(head, tail, 0, None)?);
            }
        }

        // Streamed LSP bring-up: the request for LSP i is derived,
        // signaled and dropped before i+1 exists.
        for i in 0..self.lsps_total {
            let p = self.plan(i);
            let mut req = LspRequest::best_effort(p.ingress, p.egress, p.fec);
            req.php = true;
            cp.establish_lsp_via_tunnel(req, tunnel_ids[p.tunnel])?;
        }

        Ok(ScaleWorkload {
            cp,
            flows: self.flow_specs(),
            tunnels: tunnel_ids.len(),
            lsps: self.lsps_total,
        })
    }

    /// The traffic flows of the workload, without building the control
    /// plane. Flows ride a deterministic sample of the LSPs; each plan
    /// is recomputed from the same pure endpoint function, never stored.
    /// The spec must pass [`Self::check`].
    pub fn flow_specs(&self) -> Vec<FlowSpec> {
        let mut flows = Vec::with_capacity(self.flows);
        for f in 0..self.flows {
            let i = (splitmix64(self.seed ^ 0xF10A ^ ((f as u64) << 32)) % self.lsps_total as u64)
                as usize;
            let p = self.plan(i);
            flows.push(FlowSpec {
                name: format!("scale-{f}"),
                ingress: p.ingress,
                src_addr: FLOW_SRC,
                dst_addr: p.fec.addr,
                payload_bytes: self.payload_bytes,
                precedence: 0,
                pattern: TrafficPattern::Cbr {
                    interval_ns: self.flow_interval_ns,
                },
                start_ns: self.flow_start_ns,
                stop_ns: self.flow_stop_ns,
                police: None,
            });
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_spec(family: ScaleFamily, lsps: usize, seed: u64) -> ScaleSpec {
        ScaleSpec {
            family,
            lsps_total: lsps,
            tunnel_strides: 2,
            flows: 4,
            payload_bytes: 64,
            flow_interval_ns: 100_000,
            flow_start_ns: 0,
            flow_stop_ns: 1_000_000,
            bandwidth_bps: 1_000_000_000,
            delay_ns: 10_000,
            seed,
        }
    }

    #[test]
    fn fat_tree_workload_builds_and_routes() {
        let spec = small_spec(
            ScaleFamily::FatTree {
                k: 4,
                lers_per_edge: 2,
            },
            64,
            7,
        );
        let w = spec.build().unwrap();
        assert_eq!(w.lsps, 64);
        assert_eq!(w.tunnels, 2 * 8);
        assert_eq!(w.flows.len(), 4);
        for f in &w.flows {
            assert!(w.cp.topology().node(f.ingress).is_some());
        }
    }

    #[test]
    fn ring_of_rings_workload_builds_and_routes() {
        let spec = small_spec(
            ScaleFamily::RingOfRings {
                rings: 8,
                ring_size: 4,
            },
            64,
            7,
        );
        let w = spec.build().unwrap();
        assert_eq!(w.tunnels, 2 * 8);
        assert_eq!(w.flows.len(), 4);
    }

    #[test]
    fn one_fresh_label_per_tunneled_lsp() {
        // The whole point of the PHP + tunnel-head-preservation design:
        // LSP volume, not path length, bounds label consumption.
        let fam = ScaleFamily::FatTree {
            k: 4,
            lers_per_edge: 2,
        };
        let a = small_spec(fam, 50, 3).build().unwrap();
        let b = small_spec(fam, 100, 3).build().unwrap();
        let labels = |w: &ScaleWorkload| w.cp.labels_allocated();
        assert_eq!(
            labels(&b) - labels(&a),
            50,
            "each additional LSP costs exactly one label"
        );
    }

    #[test]
    fn fields_the_generator_cannot_honor_are_typed_errors() {
        let fat = ScaleFamily::FatTree {
            k: 4,
            lers_per_edge: 2,
        };
        let rings = ScaleFamily::RingOfRings {
            rings: 8,
            ring_size: 4,
        };
        let cases = [
            (fat, 0, 2, "lsps_total"),
            (fat, 8, 0, "tunnel_strides"),
            (fat, 8, 7, "tunnel_strides"),
            (rings, 8, 4, "tunnel_strides"),
            (
                ScaleFamily::FatTree {
                    k: 2,
                    lers_per_edge: 2,
                },
                8,
                1,
                "k",
            ),
            (
                ScaleFamily::FatTree {
                    k: 5,
                    lers_per_edge: 2,
                },
                8,
                1,
                "k",
            ),
            (
                ScaleFamily::FatTree {
                    k: 4,
                    lers_per_edge: 0,
                },
                8,
                1,
                "lers_per_edge",
            ),
            (
                ScaleFamily::RingOfRings {
                    rings: 3,
                    ring_size: 4,
                },
                8,
                1,
                "rings",
            ),
            (
                ScaleFamily::RingOfRings {
                    rings: 8,
                    ring_size: 1,
                },
                8,
                1,
                "ring_size",
            ),
        ];
        let mut specs: Vec<(ScaleSpec, &str)> = cases
            .into_iter()
            .map(|(family, lsps, strides, named)| {
                let mut spec = small_spec(family, lsps, 7);
                spec.tunnel_strides = strides;
                (spec, named)
            })
            .collect();
        let mut dark = small_spec(fat, 8, 7);
        dark.bandwidth_bps = 0;
        specs.push((dark, "bandwidth_bps"));
        for (spec, named) in specs {
            match spec.build() {
                Err(ScaleError::Field { field, .. }) => assert_eq!(field, named, "{spec:?}"),
                other => panic!("{spec:?}: expected a {named} error, got {:?}", other.err()),
            }
        }
    }

    proptest! {
        /// Same spec ⇒ byte-identical workload; the generator is a pure
        /// function of the spec (satellite d).
        #[test]
        fn generation_is_pure_seeded(
            seed in 0u64..1000,
            fam in 0u32..2,
            lsps in 1usize..48,
        ) {
            let family = if fam == 0 {
                ScaleFamily::FatTree { k: 4, lers_per_edge: 2 }
            } else {
                ScaleFamily::RingOfRings { rings: 6, ring_size: 3 }
            };
            let spec = small_spec(family, lsps, seed);
            let w1 = spec.build().unwrap();
            let w2 = spec.build().unwrap();
            prop_assert_eq!(format!("{:?}", w1.flows), format!("{:?}", w2.flows));
            for node in w1.cp.topology().nodes() {
                let c1 = format!("{:?}", w1.cp.config_for(node.id));
                let c2 = format!("{:?}", w2.cp.config_for(node.id));
                prop_assert_eq!(c1, c2, "config diverged at node {}", node.id);
            }
        }
    }
}

//! The per-node forwarding configuration the control plane downloads into
//! the data planes.
//!
//! This is the boundary of the paper's Fig. 6: "Routing functionality
//! interacts with the MPLS \[architecture\] by reading and storing
//! information in the label stack modifier." A [`BindingEntry`] becomes a
//! `write_pair` into the hardware information base or a `bind` into the
//! software FIB; [`NextHopEntry`] and [`FecEntry`] configure the
//! ingress/egress packet processing around the modifier.

use crate::topology::NodeId;
use mpls_dataplane::ftn::Prefix;
use mpls_dataplane::LabelOp;
use mpls_packet::{CosBits, Label};
use serde::{Deserialize, Serialize};

/// One information-base label pair at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BindingEntry {
    /// The node to program.
    pub node: NodeId,
    /// Information-base level (1–3).
    pub level: u8,
    /// Packet identifier (level 1) or incoming label (levels 2–3).
    pub key: u64,
    /// Replacement/pushed label (ignored for pop).
    pub new_label: Label,
    /// The prescribed operation.
    pub op: LabelOp,
}

/// Where a processed packet goes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Hop {
    /// Forward to an adjacent node.
    Node(NodeId),
    /// Deliver to the attached layer-2 network (egress LER).
    Local,
}

/// Maps the *outgoing* top label to the next hop at one node. The egress
/// packet processing module consults this after the stack update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NextHopEntry {
    /// The node to program.
    pub node: NodeId,
    /// The label on top of the stack after the update; `None` keys the
    /// unlabeled case (stack popped empty, or IP fallthrough).
    pub label: Option<Label>,
    /// Where to send the packet.
    pub next: Hop,
}

/// Ingress FEC classification at an LER: packets matching `prefix` enter
/// the LSP whose first label is `push_label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FecEntry {
    /// The ingress LER.
    pub node: NodeId,
    /// Destination prefix defining the FEC.
    pub prefix: Prefix,
    /// First-hop label of the LSP.
    pub push_label: Label,
    /// CoS assigned to packets of this FEC.
    pub cos: CosBits,
}

/// An IP route consulted when a packet has no label: local delivery of
/// attached prefixes, or plain IP forwarding after penultimate-hop
/// popping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpRoute {
    /// The node holding the route.
    pub node: NodeId,
    /// Destination prefix.
    pub prefix: Prefix,
    /// Where matching unlabeled packets go.
    pub next: Hop,
}

/// A segment-routing steering policy at an ingress LER: packets matching
/// `prefix` get the whole `sids` source route pushed at once, plus any
/// entropy/MNA metadata LSEs below it. Compiled by the SR control plane;
/// there is no per-LSP transit state behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrPolicyEntry {
    /// The ingress LER.
    pub node: NodeId,
    /// Destination prefix steered onto this source route.
    pub prefix: Prefix,
    /// Node-SID labels, top-first (the first segment endpoint on top).
    pub sids: Vec<Label>,
    /// Append an RFC 6790 ELI/EL pair below the SIDs; the entropy label
    /// value is the ingress's flow hash.
    pub entropy: bool,
    /// Append a minimal MNA network-action sub-stack below the SIDs.
    pub mna: bool,
    /// CoS assigned to packets of this policy.
    pub cos: CosBits,
}

/// Equal-cost next-hop fan-out for one outgoing top label at one node.
/// The data plane picks a member by hashing the packet's entropy label;
/// without a readable entropy label it falls back to `nexts[0]` (which
/// equals the label's [`NextHopEntry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcmpEntry {
    /// The node to program.
    pub node: NodeId,
    /// The label on top of the stack after the update.
    pub label: Label,
    /// Equal-cost adjacent next hops, ascending by node id.
    pub nexts: Vec<NodeId>,
}

/// Everything one node needs: produced by
/// [`crate::ControlPlane::config_for`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeConfig {
    /// Information-base label pairs.
    pub bindings: Vec<BindingEntry>,
    /// Post-update next-hop table.
    pub next_hops: Vec<NextHopEntry>,
    /// Ingress FEC classification (LERs only).
    pub fecs: Vec<FecEntry>,
    /// Unlabeled-packet routes (longest prefix wins).
    pub ip_routes: Vec<IpRoute>,
    /// Segment-routing ingress policies (SR control plane only).
    pub sr_policies: Vec<SrPolicyEntry>,
    /// Entropy-hashed equal-cost fan-out per outgoing label.
    pub ecmp: Vec<EcmpEntry>,
    /// Readable Label Depth: how many stack entries this node's data
    /// plane can scan for an entropy pair. `None` means unlimited.
    pub rld: Option<u8>,
}

impl NodeConfig {
    /// True when nothing is programmed.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
            && self.next_hops.is_empty()
            && self.fecs.is_empty()
            && self.ip_routes.is_empty()
            && self.sr_policies.is_empty()
            && self.ecmp.is_empty()
    }

    /// The number of label pairs per information-base level: levels 1
    /// and 2 at indices 0 and 1, every other level at 2, as the routers
    /// place them. A router sizes each level once from it.
    pub fn bindings_per_level(&self) -> [usize; 3] {
        let mut n = [0; 3];
        for b in &self.bindings {
            n[match b.level {
                1 => 0,
                2 => 1,
                _ => 2,
            }] += 1;
        }
        n
    }

    /// Longest-prefix-match over the IP routes. Among identical
    /// prefixes the first route wins, as it does in both routers.
    pub fn ip_route_for(&self, addr: u32) -> Option<Hop> {
        // `max_by_key` answers the last of equal keys; scanning in
        // reverse makes that the first route in order.
        self.ip_routes
            .iter()
            .rev()
            .filter(|r| r.prefix.contains(addr))
            .max_by_key(|r| r.prefix.len)
            .map(|r| r.next)
    }

    /// Finds the next hop for an outgoing top label.
    pub fn next_hop_for(&self, label: Option<Label>) -> Option<Hop> {
        self.next_hops
            .iter()
            .find(|e| e.label == label)
            .map(|e| e.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_hop_lookup() {
        let l = Label::new(42).unwrap();
        let cfg = NodeConfig {
            bindings: vec![],
            next_hops: vec![
                NextHopEntry {
                    node: 1,
                    label: Some(l),
                    next: Hop::Node(2),
                },
                NextHopEntry {
                    node: 1,
                    label: None,
                    next: Hop::Local,
                },
            ],
            fecs: vec![],
            ip_routes: vec![],
            ..Default::default()
        };
        assert_eq!(cfg.next_hop_for(Some(l)), Some(Hop::Node(2)));
        assert_eq!(cfg.next_hop_for(None), Some(Hop::Local));
        assert_eq!(cfg.next_hop_for(Some(Label::new(1).unwrap())), None);
        assert!(!cfg.is_empty());
        assert!(NodeConfig::default().is_empty());
    }

    #[test]
    fn ip_route_longest_prefix_wins() {
        let cfg = NodeConfig {
            ip_routes: vec![
                IpRoute {
                    node: 1,
                    prefix: Prefix::new(0x0a00_0000, 8),
                    next: Hop::Node(9),
                },
                IpRoute {
                    node: 1,
                    prefix: Prefix::new(0x0a01_0000, 16),
                    next: Hop::Local,
                },
            ],
            ..Default::default()
        };
        assert_eq!(cfg.ip_route_for(0x0a01_0203), Some(Hop::Local));
        assert_eq!(cfg.ip_route_for(0x0a02_0203), Some(Hop::Node(9)));
        assert_eq!(cfg.ip_route_for(0x0b00_0001), None);
    }

    /// Two routes for the same prefix: the first in order wins, in
    /// either order, under a shorter route that must not interfere.
    #[test]
    fn identical_prefixes_answer_the_first_route() {
        let route = |prefix, next| IpRoute {
            node: 1,
            prefix,
            next,
        };
        let slash16 = Prefix::new(0x0a01_0000, 16);
        let slash8 = Prefix::new(0x0a00_0000, 8);
        for (first, second) in [(Hop::Node(2), Hop::Local), (Hop::Local, Hop::Node(2))] {
            let cfg = NodeConfig {
                ip_routes: vec![
                    route(slash8, Hop::Node(9)),
                    route(slash16, first),
                    route(slash16, second),
                ],
                ..Default::default()
            };
            assert_eq!(cfg.ip_route_for(0x0a01_0203), Some(first));
            assert_eq!(cfg.ip_route_for(0x0a02_0203), Some(Hop::Node(9)));
        }
    }
}

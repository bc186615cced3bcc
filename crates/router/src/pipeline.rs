//! Shared ingress/egress packet-processing state.
//!
//! Both router models surround their label stack engine with the same
//! tables: FEC classification for unlabeled arrivals (the ingress side of
//! Fig. 6), and the next-hop/IP-route tables the egress side consults
//! after the stack update.

use crate::forwarding::DiscardCause;
use mpls_control::{Hop, NodeConfig, NodeId, SrPolicyEntry};
use mpls_dataplane::ftn::{Prefix, PrefixFtn};
use mpls_dataplane::LabelBinding;
use mpls_packet::label::LabelStackEntry;
use mpls_packet::sr::{self, EntropyScan, MnaNas};
use mpls_packet::{CosBits, Ipv4Header, Label};
use std::collections::HashMap;

/// The source route a segment-routing `policy` imposes on a packet with
/// IP header `ip`, top first: the policy's SIDs, then the MNA sub-stack
/// and the entropy pair when the policy asks for them, every entry with
/// the policy's CoS and the packet's TTL.
pub fn sr_entries(policy: &SrPolicyEntry, ip: &Ipv4Header) -> Vec<LabelStackEntry> {
    let (cos, ttl) = (policy.cos, ip.ttl);
    let mut entries: Vec<LabelStackEntry> = policy
        .sids
        .iter()
        .map(|&sid| LabelStackEntry::new(sid, cos, false, ttl))
        .collect();
    if policy.mna {
        // The one in-stack action carried here attests the transport
        // segment count; the ancillary LSE carries that count as data.
        let nas = MnaNas::new(1, policy.sids.len() as u32).expect("opcode 1 is in range");
        entries.extend(nas.entries(cos, ttl));
    }
    if policy.entropy {
        let el = sr::entropy_label(ip.src, ip.dst);
        entries.extend(sr::entropy_entries(el, cos, ttl));
    }
    entries
}

/// How an egress resolution picked its next hop — the router folds this
/// into its per-node SR counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrPick {
    /// No equal-cost fan-out was involved (or fan-out of one).
    Single,
    /// An entropy-hashed ECMP decision was made.
    Ecmp,
    /// Fan-out existed but the entropy pair sat below this node's
    /// readable label depth: fell back to the canonical member.
    RldViolation,
}

/// The packet-processing tables derived from a [`NodeConfig`].
#[derive(Debug, Clone, Default)]
pub struct RouterTables {
    /// FEC classification: prefix -> (push label, cos).
    ftn: PrefixFtn,
    /// CoS per FEC prefix (PrefixFtn stores the binding; CoS kept aside).
    fec_cos: HashMap<(u32, u8), CosBits>,
    /// Outgoing top label -> next hop.
    next_hops: HashMap<Option<u32>, Hop>,
    /// Unlabeled routes, most specific first.
    ip_routes: Vec<(Prefix, Hop)>,
    /// Segment-routing ingress policies, most specific prefix first.
    sr_policies: Vec<SrPolicyEntry>,
    /// Equal-cost fan-out per outgoing top label (SR control plane).
    ecmp: HashMap<u32, Vec<NodeId>>,
    /// Readable label depth for the entropy scan.
    rld: usize,
}

impl RouterTables {
    /// Builds the tables from a control-plane node configuration.
    pub fn from_config(cfg: &NodeConfig) -> Self {
        let mut t = Self {
            rld: cfg.rld.map(usize::from).unwrap_or(usize::MAX),
            ..Self::default()
        };
        for fec in &cfg.fecs {
            t.ftn.insert(
                fec.prefix,
                LabelBinding::new(fec.push_label, mpls_dataplane::LabelOp::Push),
            );
            t.fec_cos.insert((fec.prefix.addr, fec.prefix.len), fec.cos);
        }
        for nh in &cfg.next_hops {
            t.next_hops.insert(nh.label.map(Label::value), nh.next);
        }
        for r in &cfg.ip_routes {
            t.ip_routes.push((r.prefix, r.next));
        }
        t.ip_routes.sort_by_key(|r| std::cmp::Reverse(r.0.len));
        t.sr_policies = cfg.sr_policies.clone();
        t.sr_policies
            .sort_by_key(|p| std::cmp::Reverse(p.prefix.len));
        for e in &cfg.ecmp {
            t.ecmp.insert(e.label.value(), e.nexts.clone());
        }
        t
    }

    /// Classifies an unlabeled packet's destination: the FEC's first-hop
    /// label and CoS, if any LSP covers it.
    pub fn classify(&self, dst: u32) -> Option<(Label, CosBits)> {
        let (prefix, binding) = self.ftn.lookup(dst)?;
        let cos = self
            .fec_cos
            .get(&(prefix.addr, prefix.len))
            .copied()
            .unwrap_or(CosBits::BEST_EFFORT);
        Some((binding.new_label, cos))
    }

    /// Longest-prefix IP route for an unlabeled packet.
    pub fn ip_route(&self, dst: u32) -> Option<Hop> {
        self.ip_routes
            .iter()
            .find(|(p, _)| p.contains(dst))
            .map(|&(_, h)| h)
    }

    /// Next hop after the stack update, keyed by the new top label
    /// (`None` = unlabeled).
    pub fn next_hop(&self, top: Option<Label>) -> Option<Hop> {
        self.next_hops.get(&top.map(Label::value)).copied()
    }

    /// Resolves the post-update step shared by both routers: where does a
    /// packet whose stack now has `top` go, given its IP destination?
    pub fn resolve_egress(&self, top: Option<Label>, dst: u32) -> Result<Hop, DiscardCause> {
        if let Some(hop) = self.next_hop(top) {
            return Ok(hop);
        }
        if top.is_none() {
            // Popped to empty: fall through to IP routing.
            if let Some(hop) = self.ip_route(dst) {
                return Ok(hop);
            }
        }
        Err(DiscardCause::NoNextHop)
    }

    /// Longest-prefix segment-routing ingress policy for a destination.
    pub fn sr_classify(&self, dst: u32) -> Option<&SrPolicyEntry> {
        self.sr_policies.iter().find(|p| p.prefix.contains(dst))
    }

    /// This node's readable label depth (entropy scan window).
    pub fn rld(&self) -> usize {
        self.rld
    }

    /// Egress resolution with equal-cost fan-out: when the new top label
    /// has an ECMP entry with more than one member, the member is picked
    /// by hashing the entropy label — if one is readable within this
    /// node's RLD. Otherwise falls back to [`Self::resolve_egress`].
    ///
    /// `entries` is the post-update stack, top first.
    pub fn resolve_egress_on(
        &self,
        top: Option<Label>,
        dst: u32,
        entries: &[LabelStackEntry],
    ) -> (Result<Hop, DiscardCause>, SrPick) {
        if let Some(l) = top {
            if let Some(nexts) = self.ecmp.get(&l.value()) {
                if nexts.len() > 1 {
                    return match sr::find_entropy(entries, self.rld) {
                        EntropyScan::Found(el) => {
                            let next = nexts[sr::ecmp_index(el.value(), nexts.len())];
                            (Ok(Hop::Node(next)), SrPick::Ecmp)
                        }
                        EntropyScan::BeyondRld => (Ok(Hop::Node(nexts[0])), SrPick::RldViolation),
                        EntropyScan::Absent => (Ok(Hop::Node(nexts[0])), SrPick::Single),
                    };
                }
            }
        }
        (self.resolve_egress(top, dst), SrPick::Single)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpls_control::{BindingEntry, FecEntry, IpRoute, NextHopEntry};
    use mpls_dataplane::LabelOp;

    fn lbl(v: u32) -> Label {
        Label::new(v).unwrap()
    }

    fn sample_config() -> NodeConfig {
        NodeConfig {
            bindings: vec![BindingEntry {
                node: 1,
                level: 2,
                key: 40,
                new_label: lbl(41),
                op: LabelOp::Swap,
            }],
            next_hops: vec![NextHopEntry {
                node: 1,
                label: Some(lbl(41)),
                next: Hop::Node(2),
            }],
            fecs: vec![FecEntry {
                node: 1,
                prefix: Prefix::new(0x0a010000, 16),
                push_label: lbl(40),
                cos: CosBits::EXPEDITED,
            }],
            ip_routes: vec![IpRoute {
                node: 1,
                prefix: Prefix::new(0xc0a80100, 24),
                next: Hop::Local,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn classification_returns_label_and_cos() {
        let t = RouterTables::from_config(&sample_config());
        let (l, cos) = t.classify(0x0a01ffff).unwrap();
        assert_eq!(l, lbl(40));
        assert_eq!(cos, CosBits::EXPEDITED);
        assert!(t.classify(0x0b000000).is_none());
    }

    #[test]
    fn next_hop_and_ip_fallthrough() {
        let t = RouterTables::from_config(&sample_config());
        assert_eq!(t.resolve_egress(Some(lbl(41)), 0), Ok(Hop::Node(2)));
        // Unknown label: no fallthrough.
        assert_eq!(
            t.resolve_egress(Some(lbl(99)), 0xc0a80101),
            Err(DiscardCause::NoNextHop)
        );
        // Unlabeled: IP route applies.
        assert_eq!(t.resolve_egress(None, 0xc0a80101), Ok(Hop::Local));
        assert_eq!(
            t.resolve_egress(None, 0x0b000001),
            Err(DiscardCause::NoNextHop)
        );
    }
}

//! Shared ingress/egress packet-processing state.
//!
//! Both router models surround their label stack engine with the same
//! tables: FEC classification for unlabeled arrivals (the ingress side of
//! Fig. 6), and the next-hop/IP-route tables the egress side consults
//! after the stack update.

use crate::forwarding::DiscardCause;
use mpls_control::{Hop, NodeConfig, NodeId, SrPolicyEntry};
use mpls_dataplane::ftn::PrefixTable;
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
///
/// The three prefix lookups are [`PrefixTable`]s, which cost one hash
/// probe per prefix length present, whatever the number of prefixes.
/// They answer exactly as a most-specific-first linear scan: debug builds
/// keep such scans beside them and check every lookup against them.
/// Simulated time never depends on the number of prefixes: the software
/// router charges a fixed probe count for these lookups, the embedded
/// router no cycles.
#[derive(Debug, Clone, Default)]
pub struct RouterTables {
    /// FEC classification: prefix -> (the LSP's first-hop label, CoS).
    /// The last `FecEntry` for an identical prefix wins.
    ftn: PrefixTable<(Label, CosBits)>,
    /// Outgoing top label -> next hop.
    next_hops: HashMap<Option<u32>, Hop>,
    /// Unlabeled routes. The first route for an identical prefix, in
    /// `NodeConfig` order, wins.
    ip_routes: PrefixTable<Hop>,
    /// Segment-routing ingress policies, in `NodeConfig` order.
    sr_policies: Vec<SrPolicyEntry>,
    /// Prefix -> index into `sr_policies`. The first policy for an
    /// identical prefix wins.
    sr_index: PrefixTable<usize>,
    /// Equal-cost fan-out per outgoing top label (SR control plane).
    ecmp: HashMap<u32, Vec<NodeId>>,
    /// Readable label depth for the entropy scan.
    rld: usize,
    /// The linear scans the prefix tables replaced.
    #[cfg(debug_assertions)]
    oracle: oracle::Scan,
}

impl RouterTables {
    /// Builds the tables from a control-plane node configuration.
    pub fn from_config(cfg: &NodeConfig) -> Self {
        let mut t = Self {
            rld: cfg.rld.map(usize::from).unwrap_or(usize::MAX),
            sr_policies: cfg.sr_policies.clone(),
            #[cfg(debug_assertions)]
            oracle: oracle::Scan::from_config(cfg),
            ..Self::default()
        };
        for fec in &cfg.fecs {
            t.ftn
                .insert_last_wins(fec.prefix, (fec.push_label, fec.cos));
        }
        for nh in &cfg.next_hops {
            t.next_hops.insert(nh.label.map(Label::value), nh.next);
        }
        for r in &cfg.ip_routes {
            t.ip_routes.insert_first_wins(r.prefix, r.next);
        }
        for (i, p) in cfg.sr_policies.iter().enumerate() {
            t.sr_index.insert_first_wins(p.prefix, i);
        }
        for e in &cfg.ecmp {
            t.ecmp.insert(e.label.value(), e.nexts.clone());
        }
        t
    }

    /// Classifies an unlabeled packet's destination: the FEC's first-hop
    /// label and CoS, if any LSP covers it.
    pub fn classify(&self, dst: u32) -> Option<(Label, CosBits)> {
        let hit = self.ftn.lookup(dst);
        #[cfg(debug_assertions)]
        assert_eq!(hit, self.oracle.classify(dst), "classify {dst:#010x}");
        hit.map(|(_, fec)| fec)
    }

    /// Longest-prefix IP route for an unlabeled packet.
    pub fn ip_route(&self, dst: u32) -> Option<Hop> {
        let hit = self.ip_routes.lookup(dst);
        #[cfg(debug_assertions)]
        assert_eq!(hit, self.oracle.ip_route(dst), "ip_route {dst:#010x}");
        hit.map(|(_, hop)| hop)
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
        let hit = self.sr_index.lookup(dst);
        #[cfg(debug_assertions)]
        assert_eq!(hit, self.oracle.sr_classify(dst), "sr_classify {dst:#010x}");
        hit.map(|(_, i)| &self.sr_policies[i])
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

/// The linear scans the prefix tables replaced, kept in debug builds as
/// their oracle: the FEC list with identical prefixes folded into one
/// entry (the last one's label and CoS), and the IP routes and SR
/// policies stable-sorted by descending length, each searched
/// most-specific first for the first prefix containing the address.
/// [`RouterTables`] asserts every lookup against them. Release builds
/// carry none of it.
#[cfg(debug_assertions)]
mod oracle {
    use mpls_control::{Hop, NodeConfig};
    use mpls_dataplane::ftn::Prefix;
    use mpls_packet::{CosBits, Label};
    use std::cmp::Reverse;

    #[derive(Debug, Clone, Default)]
    pub(super) struct Scan {
        /// One entry per distinct FEC prefix, by descending length.
        fecs: Vec<(Prefix, (Label, CosBits))>,
        /// Every IP route, by descending length, ties in config order.
        ip_routes: Vec<(Prefix, Hop)>,
        /// Every SR policy's prefix and index, by descending length,
        /// ties in config order.
        sr_policies: Vec<(Prefix, usize)>,
    }

    /// The first entry whose prefix contains `addr`.
    fn scan<V: Copy>(entries: &[(Prefix, V)], addr: u32) -> Option<(Prefix, V)> {
        entries.iter().find(|(p, _)| p.contains(addr)).copied()
    }

    impl Scan {
        pub(super) fn from_config(cfg: &NodeConfig) -> Self {
            let mut fecs: Vec<(Prefix, (Label, CosBits))> = Vec::new();
            for f in &cfg.fecs {
                let value = (f.push_label, f.cos);
                if let Some(e) = fecs.iter_mut().find(|(p, _)| *p == f.prefix) {
                    e.1 = value;
                } else {
                    let pos = fecs.partition_point(|(p, _)| p.len >= f.prefix.len);
                    fecs.insert(pos, (f.prefix, value));
                }
            }
            let mut ip_routes: Vec<_> = cfg.ip_routes.iter().map(|r| (r.prefix, r.next)).collect();
            ip_routes.sort_by_key(|(p, _)| Reverse(p.len));
            let mut sr_policies: Vec<_> = cfg
                .sr_policies
                .iter()
                .enumerate()
                .map(|(i, p)| (p.prefix, i))
                .collect();
            sr_policies.sort_by_key(|(p, _)| Reverse(p.len));
            Self {
                fecs,
                ip_routes,
                sr_policies,
            }
        }

        pub(super) fn classify(&self, addr: u32) -> Option<(Prefix, (Label, CosBits))> {
            scan(&self.fecs, addr)
        }

        pub(super) fn ip_route(&self, addr: u32) -> Option<(Prefix, Hop)> {
            scan(&self.ip_routes, addr)
        }

        pub(super) fn sr_classify(&self, addr: u32) -> Option<(Prefix, usize)> {
            scan(&self.sr_policies, addr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpls_control::{BindingEntry, FecEntry, IpRoute, NextHopEntry};
    use mpls_dataplane::ftn::Prefix;
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

    /// The prefix tables against the linear scans they replaced, for each
    /// of the three lookups under its tie rule. Prefixes of every length
    /// from 0 to 32 are cut from a few base addresses, and some are
    /// repeated with a new value, so identical prefixes with different
    /// values are common. Queries fall inside a prefix of the set or
    /// anywhere. Every lookup gives the same prefix and value.
    mod table_vs_scan {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The addresses prefixes are cut from.
        const BASES: [u32; 4] = [0x0a00_0000, 0x0a01_0203, 0xc0a8_0101, 0xffff_fffe];

        /// Prefixes with a value each: fresh cuts of the bases, then
        /// repeats of earlier prefixes with new values.
        fn prefixes() -> impl Strategy<Value = Vec<(Prefix, u32)>> {
            (
                vec((0..BASES.len(), 0u8..=32, 0u32..1000), 0..16),
                vec((any::<usize>(), 0u32..1000), 0..6),
            )
                .prop_map(|(fresh, repeats)| {
                    let mut v: Vec<(Prefix, u32)> = fresh
                        .into_iter()
                        .map(|(b, len, x)| (Prefix::new(BASES[b], len), x))
                        .collect();
                    for (i, x) in repeats {
                        if !v.is_empty() {
                            v.push((v[i % v.len()].0, x));
                        }
                    }
                    v
                })
        }

        fn config(
            fecs: &[(Prefix, u32)],
            routes: &[(Prefix, u32)],
            policies: &[(Prefix, u32)],
        ) -> NodeConfig {
            NodeConfig {
                fecs: fecs
                    .iter()
                    .map(|&(prefix, x)| FecEntry {
                        node: 1,
                        prefix,
                        push_label: lbl(16 + x),
                        cos: CosBits::new((x % 8) as u8).unwrap(),
                    })
                    .collect(),
                ip_routes: routes
                    .iter()
                    .map(|&(prefix, x)| IpRoute {
                        node: 1,
                        prefix,
                        next: if x % 5 == 0 { Hop::Local } else { Hop::Node(x) },
                    })
                    .collect(),
                sr_policies: policies
                    .iter()
                    .map(|&(prefix, x)| SrPolicyEntry {
                        node: 1,
                        prefix,
                        sids: vec![lbl(16 + x)],
                        entropy: false,
                        mna: false,
                        cos: CosBits::BEST_EFFORT,
                    })
                    .collect(),
                ..Default::default()
            }
        }

        /// An address inside one of `all`'s prefixes, or (one query in
        /// four, and every query of an empty set) anywhere.
        fn query(all: &[Prefix], i: usize, noise: u32) -> u32 {
            match all.get(i % (all.len() + all.len() / 3 + 1)) {
                Some(p) => p.addr | (noise & !Prefix::mask(p.len)),
                None => noise,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[cfg(debug_assertions)]
            #[test]
            fn tables_answer_as_the_scans(
                fecs in prefixes(),
                routes in prefixes(),
                policies in prefixes(),
                queries in vec((any::<usize>(), any::<u32>()), 1..24),
            ) {
                let cfg = config(&fecs, &routes, &policies);
                let t = RouterTables::from_config(&cfg);
                let scan = oracle::Scan::from_config(&cfg);
                let all: Vec<Prefix> = fecs
                    .iter()
                    .chain(&routes)
                    .chain(&policies)
                    .map(|&(p, _)| p)
                    .collect();
                for (i, noise) in queries {
                    let addr = query(&all, i, noise);
                    prop_assert_eq!(t.ftn.lookup(addr), scan.classify(addr), "FEC {:#010x}", addr);
                    prop_assert_eq!(t.ip_routes.lookup(addr), scan.ip_route(addr), "route {:#010x}", addr);
                    prop_assert_eq!(t.sr_index.lookup(addr), scan.sr_classify(addr), "SR {:#010x}", addr);
                }
            }

            /// `NodeConfig::ip_route_for`, which the chaos fixed-point
            /// oracle and the LDP convergence test trace packets with,
            /// answers what a router built from the same config answers,
            /// repeated prefixes included.
            #[test]
            fn ip_route_for_answers_as_the_router(
                routes in prefixes(),
                queries in vec((any::<usize>(), any::<u32>()), 1..24),
            ) {
                let cfg = config(&[], &routes, &[]);
                let t = RouterTables::from_config(&cfg);
                let all: Vec<Prefix> = routes.iter().map(|&(p, _)| p).collect();
                for (i, noise) in queries {
                    let addr = query(&all, i, noise);
                    prop_assert_eq!(t.ip_route(addr), cfg.ip_route_for(addr), "route {:#010x}", addr);
                }
            }
        }
    }
}

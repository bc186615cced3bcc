#![warn(missing_docs)]
//! The segment-routing control plane (SR-MPLS).
//!
//! Where the centralized solver and the LDP fabric signal *per-LSP*
//! transit state at every hop, segment routing keeps the core stateless:
//! every node owns one globally-known node SID allocated from a shared
//! SRGB, and an ingress LER steers a flow by pushing the whole source
//! route — a stack of node SIDs — onto the packet at once. Transit
//! behavior falls out of two operations:
//!
//! * **CONTINUE** — the top SID belongs to another node: swap it to
//!   itself (the SRGB is homogeneous, so the label value is a
//!   network-wide constant) and forward toward that node.
//! * **NEXT** — the top SID belongs to this node: pop it, exposing the
//!   next segment (or the metadata/empty bottom at the final endpoint).
//!
//! [`SrFabric`] compiles shortest-path trees ([`SptTree`], the same
//! delta-CSPF machinery the centralized signaling uses) into per-node
//! [`NodeConfig`]s: CONTINUE/NEXT bindings and next hops for every node
//! SID, equal-cost fan-out sets for entropy-hashed ECMP, and per-prefix
//! ingress policies. When a source route would exceed the ingress's
//! maximum push depth (metadata included), the compiler falls back to
//! *loose hops*: evenly spaced waypoint SIDs that let each intermediate
//! node shortest-path its way to the next waypoint — fewer labels, less
//! explicit path control. That trade is the paper's shallow-hardware
//! constraint made visible: an embedded LER with its three entry
//! registers can only originate heavily compressed routes.
//!
//! There is no signaling protocol and no per-LSP state: bring-up is one
//! compilation pass, and reconvergence after a topology change is a
//! recompilation touching only the nodes whose configuration actually
//! changed.

use mpls_control::{
    BindingEntry, EcmpEntry, Hop, IpRoute, LinkId, NextHopEntry, NodeConfig, NodeId, SptTree,
    SrPolicyEntry, Topology,
};
use mpls_dataplane::ftn::Prefix;
use mpls_dataplane::LabelOp;
use mpls_packet::sr::{ecmp_index, entropy_label, MNA_LEN};
use mpls_packet::{CosBits, Label, MAX_STACK_DEPTH};
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs of the SR control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrConfig {
    /// First label of the Segment Routing Global Block. Node SIDs are
    /// `srgb_base + index` with nodes indexed in ascending id order —
    /// the homogeneous-SRGB assumption that makes CONTINUE a
    /// swap-to-self.
    pub srgb_base: u32,
    /// Readable Label Depth programmed into every node: how many stack
    /// entries a data plane can scan for the entropy pair.
    pub rld: u8,
    /// Maximum number of labels (SIDs plus metadata LSEs) an ingress may
    /// push at once. Routes needing more get loose-hop compressed.
    pub max_push_depth: u8,
    /// Push an RFC 6790 ELI/EL entropy pair below every source route.
    pub entropy: bool,
    /// Push a minimal MNA network-action sub-stack below every source
    /// route.
    pub mna: bool,
}

impl Default for SrConfig {
    fn default() -> Self {
        Self {
            srgb_base: 16_000,
            rld: MAX_STACK_DEPTH as u8,
            max_push_depth: MAX_STACK_DEPTH as u8,
            entropy: true,
            mna: false,
        }
    }
}

/// One steering intent: traffic entering at `ingress` for `prefix`
/// follows a compiled source route to `egress`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrPolicySpec {
    /// Ingress LER.
    pub ingress: NodeId,
    /// Egress LER (the final segment endpoint).
    pub egress: NodeId,
    /// Destination prefix steered onto the route.
    pub prefix: Prefix,
    /// CoS stamped on the pushed labels.
    pub cos: CosBits,
}

/// Aggregate state footprint of a compiled fabric, for the SR-vs-LDP
/// comparison of EXT-16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrState {
    /// Labels allocated network-wide (one node SID per node).
    pub labels: usize,
    /// Total programmed FIB entries across all nodes (bindings, next
    /// hops, routes, policies and ECMP sets).
    pub fib_entries: usize,
    /// Compiled ingress policies.
    pub policies: usize,
}

/// The compiled segment-routing fabric.
#[derive(Debug, Clone)]
pub struct SrFabric {
    topo: Topology,
    cfg: SrConfig,
    policies: Vec<SrPolicySpec>,
    locals: Vec<(NodeId, Prefix)>,
    failed: BTreeSet<LinkId>,
    /// Node ids ascending; a node's SID is `srgb_base + position`.
    ids: Vec<NodeId>,
    compiled: BTreeMap<NodeId, NodeConfig>,
    dirty: BTreeSet<NodeId>,
}

impl SrFabric {
    /// Creates a fabric over `topo`, allocating one node SID per node
    /// from the SRGB. Panics if the SRGB cannot hold one SID per node —
    /// a configuration error, like a malformed topology.
    pub fn new(topo: Topology, cfg: SrConfig) -> Self {
        let mut ids: Vec<NodeId> = topo.nodes().iter().map(|n| n.id).collect();
        ids.sort_unstable();
        assert!(
            cfg.srgb_base >= Label::FIRST_UNRESERVED.value()
                && cfg.srgb_base as usize + ids.len() <= Label::MAX as usize + 1,
            "SRGB [{}, {}) out of label range",
            cfg.srgb_base,
            cfg.srgb_base as usize + ids.len()
        );
        Self {
            topo,
            cfg,
            policies: Vec::new(),
            locals: Vec::new(),
            failed: BTreeSet::new(),
            ids,
            compiled: BTreeMap::new(),
            dirty: BTreeSet::new(),
        }
    }

    /// The fabric's configuration.
    pub fn config(&self) -> &SrConfig {
        &self.cfg
    }

    /// The node SID label of `node`, if the node exists.
    pub fn sid_label(&self, node: NodeId) -> Option<Label> {
        let i = self.ids.binary_search(&node).ok()?;
        Some(Label::from_masked(self.cfg.srgb_base + i as u32))
    }

    /// The node owning a SID label, if it is in the SRGB.
    pub fn node_of_sid(&self, label: Label) -> Option<NodeId> {
        let off = label.value().checked_sub(self.cfg.srgb_base)? as usize;
        self.ids.get(off).copied()
    }

    /// Registers a steering intent. Call [`Self::compile`] afterwards.
    pub fn add_policy(&mut self, spec: SrPolicySpec) {
        self.policies.push(spec);
    }

    /// Registers a locally attached prefix delivered at `node`.
    pub fn add_local(&mut self, node: NodeId, prefix: Prefix) {
        self.locals.push((node, prefix));
    }

    /// Compiles every node's configuration from scratch and marks the
    /// changed nodes dirty. Returns the number of nodes whose
    /// configuration changed.
    pub fn compile(&mut self) -> usize {
        let fresh = self.compute_configs();
        let mut changed = 0;
        for id in &self.ids {
            if self.compiled.get(id) != fresh.get(id) {
                self.dirty.insert(*id);
                changed += 1;
            }
        }
        self.compiled = fresh;
        changed
    }

    /// The compiled configuration of one node (empty if never compiled).
    pub fn config_for(&self, node: NodeId) -> NodeConfig {
        self.compiled.get(&node).cloned().unwrap_or_default()
    }

    /// All compiled configurations.
    pub fn configs(&self) -> &BTreeMap<NodeId, NodeConfig> {
        &self.compiled
    }

    /// Drains the set of nodes whose configuration changed since the
    /// last call, ascending.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        let out: Vec<NodeId> = self.dirty.iter().copied().collect();
        self.dirty.clear();
        out
    }

    /// Marks a link failed and recompiles. Returns changed-node count.
    pub fn fail_link(&mut self, link: LinkId) -> usize {
        self.failed.insert(link);
        self.compile()
    }

    /// Marks a link restored and recompiles. Returns changed-node count.
    pub fn restore_link(&mut self, link: LinkId) -> usize {
        self.failed.remove(&link);
        self.compile()
    }

    /// Aggregate state footprint of the current compilation.
    pub fn state(&self) -> SrState {
        let fib_entries = self
            .compiled
            .values()
            .map(|c| {
                c.bindings.len()
                    + c.next_hops.len()
                    + c.fecs.len()
                    + c.ip_routes.len()
                    + c.sr_policies.len()
                    + c.ecmp.len()
            })
            .sum();
        SrState {
            labels: self.ids.len(),
            fib_entries,
            policies: self.policies.len(),
        }
    }

    // ---- compilation -----------------------------------------------------

    fn usable(&self, link: LinkId) -> bool {
        !self.failed.contains(&link)
    }

    /// The equal-cost next hops from `n` toward `d`, ascending by node
    /// id: every usable neighbor sitting on *some* shortest path.
    fn equal_cost_nexts(
        &self,
        trees: &BTreeMap<NodeId, SptTree>,
        n: NodeId,
        d: NodeId,
    ) -> Vec<NodeId> {
        let Some(total) = trees[&n].cost(&self.topo, d) else {
            return Vec::new();
        };
        let mut nexts: Vec<NodeId> = Vec::new();
        for &(nb, link) in self.topo.neighbors(n) {
            if !self.usable(link) {
                continue;
            }
            let w = self.topo.link(link).expect("valid adjacency").cost as u64;
            if w <= total && trees[&nb].cost(&self.topo, d) == Some(total - w) {
                nexts.push(nb);
            }
        }
        nexts.sort_unstable();
        nexts.dedup();
        nexts
    }

    /// Compiles the source-route SID stack (top-first) for one policy,
    /// loose-hop compressing when the strict per-hop stack plus metadata
    /// would not fit the ingress's max push depth.
    fn stack_for(
        &self,
        trees: &BTreeMap<NodeId, SptTree>,
        ingress: NodeId,
        egress: NodeId,
    ) -> Option<Vec<Label>> {
        let path = trees.get(&ingress)?.path(&self.topo, egress)?;
        if path.len() < 2 {
            return Some(Vec::new());
        }
        let metadata = if self.cfg.entropy {
            mpls_packet::sr::ENTROPY_LEN
        } else {
            0
        } + if self.cfg.mna { MNA_LEN } else { 0 };
        let budget = (self.cfg.max_push_depth as usize)
            .saturating_sub(metadata)
            .max(1);
        let hops = path.len() - 1;
        let waypoints: Vec<NodeId> = if hops <= budget {
            path[1..].to_vec()
        } else {
            // Evenly spaced loose hops ending at the egress. Integer
            // positions are strictly increasing because hops > budget.
            (1..=budget).map(|i| path[i * hops / budget]).collect()
        };
        Some(
            waypoints
                .iter()
                .map(|&w| self.sid_label(w).expect("path nodes exist"))
                .collect(),
        )
    }

    fn compute_configs(&self) -> BTreeMap<NodeId, NodeConfig> {
        let usable = |l: LinkId| self.usable(l);
        let trees: BTreeMap<NodeId, SptTree> = self
            .ids
            .iter()
            .map(|&n| (n, SptTree::build(&self.topo, n, &usable)))
            .collect();
        let mut out: BTreeMap<NodeId, NodeConfig> = self
            .ids
            .iter()
            .map(|&n| {
                (
                    n,
                    NodeConfig {
                        rld: Some(self.cfg.rld),
                        ..NodeConfig::default()
                    },
                )
            })
            .collect();
        // Full-mesh node-SID state: O(nodes) entries per node, no
        // per-LSP state anywhere — the footprint EXT-16 compares
        // against LDP's per-FEC mappings.
        for &d in &self.ids {
            let sid = self.sid_label(d).expect("listed node");
            for &n in &self.ids {
                let cfg = out.get_mut(&n).expect("listed node");
                if n == d {
                    // NEXT: pop the satisfied segment at its endpoint.
                    for level in [2u8, 3] {
                        cfg.bindings.push(BindingEntry {
                            node: n,
                            level,
                            key: sid.value() as u64,
                            new_label: sid,
                            op: LabelOp::Pop,
                        });
                    }
                    continue;
                }
                let nexts = self.equal_cost_nexts(&trees, n, d);
                let Some(&primary) = nexts.first() else {
                    continue; // unreachable: no state, packets discard
                };
                // CONTINUE: swap-to-self (homogeneous SRGB) and forward.
                for level in [2u8, 3] {
                    cfg.bindings.push(BindingEntry {
                        node: n,
                        level,
                        key: sid.value() as u64,
                        new_label: sid,
                        op: LabelOp::Swap,
                    });
                }
                cfg.next_hops.push(NextHopEntry {
                    node: n,
                    label: Some(sid),
                    next: Hop::Node(primary),
                });
                if nexts.len() > 1 {
                    cfg.ecmp.push(EcmpEntry {
                        node: n,
                        label: sid,
                        nexts,
                    });
                }
            }
        }
        for p in &self.policies {
            if let Some(sids) = self.stack_for(&trees, p.ingress, p.egress) {
                out.get_mut(&p.ingress)
                    .expect("policy ingress exists")
                    .sr_policies
                    .push(SrPolicyEntry {
                        node: p.ingress,
                        prefix: p.prefix,
                        sids,
                        entropy: self.cfg.entropy,
                        mna: self.cfg.mna,
                        cos: p.cos,
                    });
            }
            out.get_mut(&p.egress)
                .expect("policy egress exists")
                .ip_routes
                .push(IpRoute {
                    node: p.egress,
                    prefix: p.prefix,
                    next: Hop::Local,
                });
        }
        for &(node, prefix) in &self.locals {
            let cfg = out.get_mut(&node).expect("local node exists");
            let route = IpRoute {
                node,
                prefix,
                next: Hop::Local,
            };
            if !cfg.ip_routes.contains(&route) {
                cfg.ip_routes.push(route);
            }
        }
        out
    }

    // ---- prediction ------------------------------------------------------

    /// The node path a flow `src -> dst` entering at `ingress` follows
    /// under the *current* compilation, replicating the data plane's
    /// segment, ECMP and RLD decisions exactly. `None` when no policy
    /// matches or the route is broken. This is the oracle the chaos
    /// harness compares delivered paths against.
    pub fn predict_path(&self, ingress: NodeId, src: u32, dst: u32) -> Option<Vec<NodeId>> {
        Self::walk_configs(&self.compiled, ingress, src, dst)
    }

    /// Like [`Self::predict_path`] but walking an arbitrary config set
    /// (e.g. the FIBs a finished simulation reported). Mirrors the
    /// routers' resolution order: pop NEXT segments at their endpoint,
    /// resolve CONTINUE hops through the ECMP table with the entropy
    /// label as the only hash input, honoring each node's RLD.
    pub fn walk_configs(
        configs: &BTreeMap<NodeId, NodeConfig>,
        ingress: NodeId,
        src: u32,
        dst: u32,
    ) -> Option<Vec<NodeId>> {
        let policy = configs
            .get(&ingress)?
            .sr_policies
            .iter()
            .filter(|p| p.prefix.contains(dst))
            .max_by_key(|p| p.prefix.len)?;
        // Conceptual stack below the SIDs, as entry count: MNA sub-stack
        // then the entropy pair (see crate::sr stack layout).
        let mna_len = if policy.mna { MNA_LEN } else { 0 };
        let el = policy.entropy.then(|| entropy_label(src, dst));
        let mut sids = policy.sids.clone();
        let mut cur = ingress;
        let mut path = vec![ingress];
        // Bounded walk: a compiled fabric never loops, but a corrupted
        // config set must not hang the oracle.
        for _ in 0..configs.len() * (MAX_STACK_DEPTH + 1) {
            let Some(&top) = sids.first() else {
                return Some(path);
            };
            let cfg = configs.get(&cur)?;
            let owns = cfg
                .bindings
                .iter()
                .any(|b| b.level == 2 && b.key == top.value() as u64 && b.op == LabelOp::Pop);
            if owns {
                sids.remove(0);
                continue;
            }
            // CONTINUE: entropy-hashed ECMP, RLD permitting.
            let next = match cfg.ecmp.iter().find(|e| e.label == top) {
                Some(e) if e.nexts.len() > 1 => {
                    let rld = cfg.rld.map(usize::from).unwrap_or(usize::MAX);
                    // ELI index within the conceptual stack; both ELI
                    // and EL must be readable (see sr::find_entropy).
                    let readable = el.is_some() && sids.len() + mna_len + 1 < rld;
                    match el {
                        Some(el) if readable => e.nexts[ecmp_index(el.value(), e.nexts.len())],
                        _ => e.nexts[0],
                    }
                }
                _ => match cfg.next_hop_for(Some(top))? {
                    Hop::Node(n) => n,
                    Hop::Local => return None,
                },
            };
            cur = next;
            path.push(cur);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpls_control::RouterRole;

    fn fabric(topo: Topology, cfg: SrConfig) -> SrFabric {
        SrFabric::new(topo, cfg)
    }

    fn fig1_fabric(cfg: SrConfig) -> SrFabric {
        let mut f = fabric(Topology::figure1_example(), cfg);
        f.add_policy(SrPolicySpec {
            ingress: 0,
            egress: 1,
            prefix: Prefix::new(0x0a01_0000, 16),
            cos: CosBits::BEST_EFFORT,
        });
        f.compile();
        f
    }

    #[test]
    fn sids_are_dense_and_invertible() {
        let f = fig1_fabric(SrConfig::default());
        for n in 0..6u32 {
            let sid = f.sid_label(n).unwrap();
            assert_eq!(f.node_of_sid(sid), Some(n));
            assert!(!sid.is_reserved());
        }
        assert_eq!(f.sid_label(99), None);
    }

    #[test]
    fn strict_route_follows_the_fast_path() {
        let f = fig1_fabric(SrConfig::default());
        let cfg = f.config_for(0);
        assert_eq!(cfg.sr_policies.len(), 1);
        let sids = &cfg.sr_policies[0].sids;
        // Fast path 0-2-3-1: SIDs for 2, 3, 1 top-first.
        let expect: Vec<Label> = [2u32, 3, 1]
            .iter()
            .map(|&n| f.sid_label(n).unwrap())
            .collect();
        assert_eq!(sids, &expect);
        let path = f.predict_path(0, 0x0a00_0001, 0x0a01_0001).unwrap();
        assert_eq!(path, vec![0, 2, 3, 1]);
    }

    #[test]
    fn tight_push_budget_compresses_to_loose_hops() {
        let f = fig1_fabric(SrConfig {
            max_push_depth: 3,
            entropy: true, // 2 metadata LSEs -> budget of 1 SID
            ..SrConfig::default()
        });
        let cfg = f.config_for(0);
        let sids = &cfg.sr_policies[0].sids;
        assert_eq!(sids.len(), 1, "compressed to a single loose hop");
        assert_eq!(f.node_of_sid(sids[0]), Some(1), "waypoint is the egress");
        // The loose hop still shortest-paths to the egress.
        let path = f.predict_path(0, 0x0a00_0001, 0x0a01_0001).unwrap();
        assert_eq!(path, vec![0, 2, 3, 1]);
    }

    #[test]
    fn link_failure_recompiles_around_the_cut() {
        let mut f = fig1_fabric(SrConfig::default());
        let cut = f.topo.link_between(2, 3).unwrap();
        assert!(f.fail_link(cut) > 0);
        let path = f.predict_path(0, 0x0a00_0001, 0x0a01_0001).unwrap();
        assert_eq!(path, vec![0, 4, 5, 1], "south detour");
        assert!(f.restore_link(cut) > 0);
        let path = f.predict_path(0, 0x0a00_0001, 0x0a01_0001).unwrap();
        assert_eq!(path, vec![0, 2, 3, 1], "back to the fast path");
    }

    #[test]
    fn state_is_per_node_not_per_policy() {
        let mut f = fabric(Topology::figure1_example(), SrConfig::default());
        for i in 0..4u32 {
            f.add_policy(SrPolicySpec {
                ingress: 0,
                egress: 1,
                prefix: Prefix::new(0x0a00_0000 + (i << 8), 24),
                cos: CosBits::BEST_EFFORT,
            });
        }
        f.compile();
        let s = f.state();
        assert_eq!(s.labels, 6, "one SID per node");
        assert_eq!(s.policies, 4);
        // Transit state (bindings + next hops) is policy-independent.
        let transit: usize = f
            .configs()
            .values()
            .map(|c| c.bindings.len() + c.next_hops.len())
            .sum();
        let mut f1 = fabric(Topology::figure1_example(), SrConfig::default());
        f1.add_policy(SrPolicySpec {
            ingress: 0,
            egress: 1,
            prefix: Prefix::new(0x0a00_0000, 24),
            cos: CosBits::BEST_EFFORT,
        });
        f1.compile();
        let transit1: usize = f1
            .configs()
            .values()
            .map(|c| c.bindings.len() + c.next_hops.len())
            .sum();
        assert_eq!(transit, transit1);
    }

    #[test]
    fn ecmp_members_cover_equal_cost_fabrics() {
        // Two equal-cost parallel two-hop paths 0-1-3 and 0-2-3.
        let mut t = Topology::new();
        t.add_node(0, RouterRole::Ler, "in");
        t.add_node(3, RouterRole::Ler, "out");
        t.add_node(1, RouterRole::Lsr, "a");
        t.add_node(2, RouterRole::Lsr, "b");
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            t.add_link(mpls_control::LinkSpec {
                a,
                b,
                cost: 1,
                bandwidth_bps: 1_000_000_000,
                delay_ns: 1000,
            });
        }
        // A tight push budget compresses to the single loose egress SID,
        // which is what makes the fan-out at the ingress reachable: a
        // strict per-hop stack pins every segment to one next hop.
        let mut f = fabric(
            t,
            SrConfig {
                max_push_depth: 3,
                ..SrConfig::default()
            },
        );
        f.add_policy(SrPolicySpec {
            ingress: 0,
            egress: 3,
            prefix: Prefix::new(0x0a01_0000, 16),
            cos: CosBits::BEST_EFFORT,
        });
        f.compile();
        let cfg = f.config_for(0);
        let sid3 = f.sid_label(3).unwrap();
        let e = cfg.ecmp.iter().find(|e| e.label == sid3).expect("fan-out");
        assert_eq!(e.nexts, vec![1, 2]);
        // Different flows spread over both members; each path is valid.
        let mut seen = BTreeSet::new();
        for dst in 0x0a01_0001u32..0x0a01_0020 {
            let path = f.predict_path(0, 7, dst).unwrap();
            assert_eq!(path.len(), 3);
            assert_eq!(path[2], 3);
            seen.insert(path[1]);
        }
        assert_eq!(seen, BTreeSet::from([1, 2]), "entropy spreads the load");
    }

    #[test]
    fn rld_zero_disables_entropy_spreading() {
        let mut t = Topology::new();
        t.add_node(0, RouterRole::Ler, "in");
        t.add_node(3, RouterRole::Ler, "out");
        t.add_node(1, RouterRole::Lsr, "a");
        t.add_node(2, RouterRole::Lsr, "b");
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            t.add_link(mpls_control::LinkSpec {
                a,
                b,
                cost: 1,
                bandwidth_bps: 1_000_000_000,
                delay_ns: 1000,
            });
        }
        let mut f = fabric(
            t,
            SrConfig {
                rld: 1,
                max_push_depth: 3,
                ..SrConfig::default()
            },
        );
        f.add_policy(SrPolicySpec {
            ingress: 0,
            egress: 3,
            prefix: Prefix::new(0x0a01_0000, 16),
            cos: CosBits::BEST_EFFORT,
        });
        f.compile();
        for dst in 0x0a01_0001u32..0x0a01_0010 {
            let path = f.predict_path(0, 7, dst).unwrap();
            assert_eq!(path[1], 1, "RLD-blind nodes fall back to nexts[0]");
        }
    }
}

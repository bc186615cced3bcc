//! The network graph of the paper's Fig. 1: LERs on the edge, LSRs in the
//! core, bidirectional links with cost, capacity and propagation delay.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Node identifier.
pub type NodeId = u32;

/// A map keyed by [`NodeId`] that hashes with [`NodeIdHasher`].
pub(crate) type NodeMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeIdHasher>>;

/// Hashes a node id with the splitmix64 finalizer, the workspace's
/// standard mixer, instead of SipHash, because signaling looks one up
/// per hop. The trade: SipHash's per-process key stops keys crafted to
/// collide, and a scenario file could now pick ids that share low hash
/// bits and slow its own set-up; the simulator runs the scenarios its
/// user writes, so no one else's input reaches this map. The hash is
/// the same in every process, so iteration over a [`NodeMap`] is too;
/// nothing may depend on that order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id);
    }

    fn finish(&self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// Link identifier (index into the link table; each spec describes both
/// directions).
pub type LinkId = u32;

/// The role a node plays in the MPLS network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouterRole {
    /// Label Edge Router — attaches layer-2 networks, may push onto empty
    /// stacks.
    Ler,
    /// Label Switch Router — core transit only.
    Lsr,
}

/// A node declaration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Identifier, unique within the topology.
    pub id: NodeId,
    /// Role.
    pub role: RouterRole,
    /// Human-readable name for reports.
    pub name: String,
}

/// A bidirectional link declaration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Routing metric (lower is preferred).
    pub cost: u32,
    /// Capacity in bits per second (each direction).
    pub bandwidth_bps: u64,
    /// One-way propagation delay in nanoseconds.
    pub delay_ns: u64,
}

/// The network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    node_index: NodeMap<usize>,
    /// Adjacency by node index: `[(neighbor, link id)]`.
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node. Panics on duplicate ids — topology construction errors
    /// are programming errors in experiment setup.
    pub fn add_node(&mut self, id: NodeId, role: RouterRole, name: impl Into<String>) -> NodeId {
        assert!(!self.node_index.contains_key(&id), "duplicate node id {id}");
        self.node_index.insert(id, self.nodes.len());
        self.nodes.push(NodeSpec {
            id,
            role,
            name: name.into(),
        });
        self.adj.push(Vec::new());
        id
    }

    /// Adds a bidirectional link and returns its id.
    ///
    /// Panics on an unknown endpoint, a self-link, a link without
    /// bandwidth (it could never finish serializing a packet), or a
    /// second link between the same two nodes: the control plane names a
    /// link by its endpoints ([`Self::link_between`]), so a parallel link
    /// could be reserved or cut in place of the one carrying traffic.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        let a = self
            .index_of(spec.a)
            .unwrap_or_else(|| panic!("unknown node {}", spec.a));
        let b = self
            .index_of(spec.b)
            .unwrap_or_else(|| panic!("unknown node {}", spec.b));
        assert_ne!(spec.a, spec.b, "self-links are not allowed");
        assert!(
            spec.bandwidth_bps > 0,
            "link {}-{} has no bandwidth",
            spec.a,
            spec.b
        );
        assert!(
            self.link_between(spec.a, spec.b).is_none(),
            "nodes {} and {} are already linked; parallel links are not allowed",
            spec.a,
            spec.b
        );
        let id = self.links.len() as LinkId;
        self.links.push(spec);
        self.adj[a].push((spec.b, id));
        self.adj[b].push((spec.a, id));
        id
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> Option<&NodeSpec> {
        self.node_index.get(&id).map(|&i| &self.nodes[i])
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> Option<&LinkSpec> {
        self.links.get(id as usize)
    }

    /// Dense index of a node in [`Self::nodes`] — the array key the
    /// shortest-path trees and the control plane's per-node tables are
    /// stored under.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.node_index.get(&id).copied()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Neighbors of `id` with the connecting link.
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, LinkId)] {
        self.index_of(id).map_or(&[], |i| &self.adj[i])
    }

    /// The link connecting two adjacent nodes, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.neighbors(a)
            .iter()
            .find(|(n, _)| *n == b)
            .map(|&(_, l)| l)
    }

    /// Validates that `path` is a connected node sequence; returns the
    /// traversed link ids.
    pub fn path_links(&self, path: &[NodeId]) -> Option<Vec<LinkId>> {
        path.windows(2)
            .map(|w| self.link_between(w[0], w[1]))
            .collect()
    }

    /// Renders the topology in Graphviz DOT format: LERs as boxes, LSRs
    /// as circles, links labelled with cost and capacity.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph mpls {\n  layout=neato;\n");
        for n in &self.nodes {
            let shape = match n.role {
                RouterRole::Ler => "box",
                RouterRole::Lsr => "ellipse",
            };
            let _ = writeln!(out, "  n{} [label=\"{}\", shape={shape}];", n.id, n.name);
        }
        for l in &self.links {
            let _ = writeln!(
                out,
                "  n{} -- n{} [label=\"c{} {}M\"];",
                l.a,
                l.b,
                l.cost,
                l.bandwidth_bps / 1_000_000
            );
        }
        out.push_str("}\n");
        out
    }

    /// Builds a `k x k` grid of LSRs with one LER grafted onto each
    /// corner — a scalable stress topology. Node ids: LSR at (r, c) is
    /// `r * k + c`; the four LERs are `k*k .. k*k+3` attached clockwise
    /// from the top-left corner.
    pub fn grid(k: u32, bandwidth_bps: u64, delay_ns: u64) -> Topology {
        assert!(k >= 2, "grid needs k >= 2");
        let mut t = Topology::new();
        for r in 0..k {
            for c in 0..k {
                t.add_node(r * k + c, RouterRole::Lsr, format!("lsr-{r}-{c}"));
            }
        }
        let link = |a, b| LinkSpec {
            a,
            b,
            cost: 1,
            bandwidth_bps,
            delay_ns,
        };
        for r in 0..k {
            for c in 0..k {
                let id = r * k + c;
                if c + 1 < k {
                    t.add_link(link(id, id + 1));
                }
                if r + 1 < k {
                    t.add_link(link(id, id + k));
                }
            }
        }
        let corners = [0, k - 1, k * k - 1, k * (k - 1)];
        for (i, &corner) in corners.iter().enumerate() {
            let ler = k * k + i as u32;
            t.add_node(ler, RouterRole::Ler, format!("ler-{i}"));
            t.add_link(link(ler, corner));
        }
        t
    }

    /// Builds a `k`-ary fat tree — the canonical folded-Clos datacenter
    /// fabric — with `lers_per_edge` LERs grafted under every edge
    /// switch as traffic endpoints.
    ///
    /// `k` must be even and ≥ 2. The switch fabric is `(k/2)²` core,
    /// `k` pods of `k/2` aggregation and `k/2` edge switches each (all
    /// LSRs); every edge switch connects to every aggregation switch in
    /// its pod, and aggregation switch `a` of each pod connects to core
    /// switches `a·k/2 .. (a+1)·k/2`. All links cost 1.
    ///
    /// Node ids are dense and layered: cores first, then aggregations
    /// (pod-major), then edges (pod-major), then LERs (edge-major) —
    /// `k = 16`, `lers_per_edge = 6` yields 64 + 128 + 128 + 768 = 1088
    /// nodes.
    pub fn fat_tree(k: u32, lers_per_edge: u32, bandwidth_bps: u64, delay_ns: u64) -> Topology {
        assert!(k >= 2 && k.is_multiple_of(2), "fat tree needs even k >= 2");
        let half = k / 2;
        let ncore = half * half;
        let nagg = k * half;
        let nedge = k * half;
        let mut t = Topology::new();
        for c in 0..ncore {
            t.add_node(c, RouterRole::Lsr, format!("core-{c}"));
        }
        for p in 0..k {
            for a in 0..half {
                t.add_node(
                    ncore + p * half + a,
                    RouterRole::Lsr,
                    format!("agg-{p}-{a}"),
                );
            }
        }
        for p in 0..k {
            for e in 0..half {
                t.add_node(
                    ncore + nagg + p * half + e,
                    RouterRole::Lsr,
                    format!("edge-{p}-{e}"),
                );
            }
        }
        let link = |a, b| LinkSpec {
            a,
            b,
            cost: 1,
            bandwidth_bps,
            delay_ns,
        };
        for p in 0..k {
            for a in 0..half {
                let agg = ncore + p * half + a;
                for c in 0..half {
                    t.add_link(link(agg, a * half + c));
                }
                for e in 0..half {
                    t.add_link(link(ncore + nagg + p * half + e, agg));
                }
            }
        }
        for e in 0..nedge {
            for j in 0..lers_per_edge {
                let ler = ncore + nagg + nedge + e * lers_per_edge + j;
                t.add_node(ler, RouterRole::Ler, format!("ler-{e}-{j}"));
                t.add_link(link(ler, ncore + nagg + e));
            }
        }
        t
    }

    /// Builds a two-level ring hierarchy — a metro/backbone shape: a
    /// backbone ring of `rings` gateway LSRs, each anchoring a local
    /// access ring of `ring_size` LERs. All links cost 1.
    ///
    /// Node ids: gateway `g` is `g`; member `j` of `g`'s local ring is
    /// `rings + g·ring_size + j`. Each local ring runs gateway →
    /// member 0 → … → member `ring_size-1` → gateway. `rings = 32`,
    /// `ring_size = 32` yields 32 · 33 = 1056 nodes.
    pub fn ring_of_rings(
        rings: u32,
        ring_size: u32,
        bandwidth_bps: u64,
        delay_ns: u64,
    ) -> Topology {
        assert!(rings >= 3, "backbone needs >= 3 rings");
        assert!(ring_size >= 2, "local rings need >= 2 members");
        let mut t = Topology::new();
        for g in 0..rings {
            t.add_node(g, RouterRole::Lsr, format!("gw-{g}"));
        }
        let link = |a, b| LinkSpec {
            a,
            b,
            cost: 1,
            bandwidth_bps,
            delay_ns,
        };
        for g in 0..rings {
            t.add_link(link(g, (g + 1) % rings));
        }
        for g in 0..rings {
            let member = |j| rings + g * ring_size + j;
            for j in 0..ring_size {
                t.add_node(member(j), RouterRole::Ler, format!("acc-{g}-{j}"));
            }
            t.add_link(link(g, member(0)));
            for j in 0..ring_size - 1 {
                t.add_link(link(member(j), member(j + 1)));
            }
            t.add_link(link(member(ring_size - 1), g));
        }
        t
    }

    /// Builds the classic evaluation topology used throughout the
    /// examples and benchmarks: two LERs bridging layer-2 networks across
    /// a four-LSR core with a fast three-hop path and a slow two-hop
    /// alternative, mirroring Fig. 1.
    ///
    /// ```text
    ///            LSR2 --- LSR3
    ///           /             \
    /// LER0 --- +               + --- LER1
    ///           \             /
    ///            LSR4 --- LSR5        (higher cost, lower capacity)
    /// ```
    pub fn figure1_example() -> Topology {
        let mut t = Topology::new();
        t.add_node(0, RouterRole::Ler, "ler-west");
        t.add_node(1, RouterRole::Ler, "ler-east");
        t.add_node(2, RouterRole::Lsr, "lsr-north-a");
        t.add_node(3, RouterRole::Lsr, "lsr-north-b");
        t.add_node(4, RouterRole::Lsr, "lsr-south-a");
        t.add_node(5, RouterRole::Lsr, "lsr-south-b");
        let fast = |a, b| LinkSpec {
            a,
            b,
            cost: 1,
            bandwidth_bps: 1_000_000_000,
            delay_ns: 500_000,
        };
        let slow = |a, b| LinkSpec {
            a,
            b,
            cost: 3,
            bandwidth_bps: 100_000_000,
            delay_ns: 2_000_000,
        };
        t.add_link(fast(0, 2));
        t.add_link(fast(2, 3));
        t.add_link(fast(3, 1));
        t.add_link(slow(0, 4));
        t.add_link(slow(4, 5));
        t.add_link(slow(5, 1));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let t = Topology::figure1_example();
        assert_eq!(t.nodes().len(), 6);
        assert_eq!(t.links().len(), 6);
        assert_eq!(t.node(0).unwrap().role, RouterRole::Ler);
        assert_eq!(t.node(2).unwrap().role, RouterRole::Lsr);
        assert_eq!(t.neighbors(0).len(), 2);
        assert!(t.link_between(0, 2).is_some());
        assert!(t.link_between(0, 3).is_none());
    }

    #[test]
    #[should_panic(expected = "nodes 3 and 2 are already linked; parallel links are not allowed")]
    fn a_parallel_link_is_refused() {
        let mut t = Topology::figure1_example();
        let twin = t.links()[1];
        t.add_link(LinkSpec {
            a: twin.b,
            b: twin.a,
            ..twin
        });
    }

    #[test]
    #[should_panic(expected = "link 0-3 has no bandwidth")]
    fn a_link_without_bandwidth_is_refused() {
        let mut t = Topology::figure1_example();
        t.add_link(LinkSpec {
            a: 0,
            b: 3,
            cost: 1,
            bandwidth_bps: 0,
            delay_ns: 1_000,
        });
    }

    #[test]
    fn path_links_validates_connectivity() {
        let t = Topology::figure1_example();
        assert_eq!(t.path_links(&[0, 2, 3, 1]).unwrap().len(), 3);
        assert!(t.path_links(&[0, 3]).is_none());
        assert_eq!(t.path_links(&[0]).unwrap().len(), 0);
    }

    #[test]
    fn dot_export_mentions_every_node_and_link() {
        let t = Topology::figure1_example();
        let dot = t.to_dot();
        assert!(dot.starts_with("graph mpls {"));
        for n in t.nodes() {
            assert!(dot.contains(&format!("n{}", n.id)));
            assert!(dot.contains(&n.name));
        }
        assert_eq!(dot.matches(" -- ").count(), t.links().len());
        assert!(dot.contains("shape=box"), "LERs are boxes");
        assert!(dot.contains("shape=ellipse"), "LSRs are ellipses");
    }

    #[test]
    fn grid_topology_shape() {
        let t = Topology::grid(3, 1_000_000_000, 1000);
        // 9 LSRs + 4 LERs.
        assert_eq!(t.nodes().len(), 13);
        // 2*k*(k-1) grid links + 4 LER links.
        assert_eq!(t.links().len(), 12 + 4);
        // Corners have degree 3 (two grid neighbors + the LER).
        assert_eq!(t.neighbors(0).len(), 3);
        // Center has degree 4.
        assert_eq!(t.neighbors(4).len(), 4);
        // LERs have degree 1.
        assert_eq!(t.neighbors(9).len(), 1);
        assert_eq!(t.node(9).unwrap().role, RouterRole::Ler);
    }

    #[test]
    #[should_panic(expected = "grid needs k >= 2")]
    fn tiny_grid_panics() {
        Topology::grid(1, 1, 1);
    }

    #[test]
    fn fat_tree_shape() {
        let k = 4u32;
        let t = Topology::fat_tree(k, 2, 1_000_000_000, 1000);
        // (k/2)^2 core + k*k/2 agg + k*k/2 edge + 2 LERs per edge.
        assert_eq!(t.nodes().len(), 4 + 8 + 8 + 16);
        // Links: agg-core k*(k/2)*(k/2) + edge-agg k*(k/2)*(k/2) + LER.
        assert_eq!(t.links().len(), 16 + 16 + 16);
        // Core: one agg per pod (k). Agg: k/2 cores + k/2 edges (k).
        // Edge: k/2 aggs + its LERs. LERs hang off edges singly.
        for n in t.nodes() {
            match n.role {
                RouterRole::Lsr => {
                    let expected = if n.id < 4 + 8 { k } else { k / 2 + 2 };
                    assert_eq!(t.neighbors(n.id).len() as u32, expected, "node {}", n.id);
                }
                RouterRole::Ler => assert_eq!(t.neighbors(n.id).len(), 1),
            }
        }
        // Edge switches of one pod share every agg switch of that pod.
        assert!(t.link_between(12, 4).is_some(), "edge-0-0 to agg-0-0");
        assert!(t.link_between(12, 5).is_some(), "edge-0-0 to agg-0-1");
    }

    #[test]
    fn ring_of_rings_shape() {
        let t = Topology::ring_of_rings(4, 3, 1_000_000_000, 1000);
        assert_eq!(t.nodes().len(), 4 * (1 + 3));
        // Backbone 4 + per ring (1 + (ring_size-1) + 1) = 4 + 4*4.
        assert_eq!(t.links().len(), 4 + 4 * 4);
        for g in 0..4 {
            // Two backbone neighbors plus both local ring attachment points.
            assert_eq!(t.neighbors(g).len(), 4, "gateway {g}");
            assert_eq!(t.node(g).unwrap().role, RouterRole::Lsr);
        }
        for n in t.nodes().iter().filter(|n| n.id >= 4) {
            assert_eq!(n.role, RouterRole::Ler);
            assert_eq!(t.neighbors(n.id).len(), 2, "ring members sit in a cycle");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_panics() {
        let mut t = Topology::new();
        t.add_node(1, RouterRole::Ler, "a");
        t.add_node(1, RouterRole::Ler, "b");
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut t = Topology::new();
        t.add_node(1, RouterRole::Ler, "a");
        t.add_link(LinkSpec {
            a: 1,
            b: 1,
            cost: 1,
            bandwidth_bps: 1,
            delay_ns: 1,
        });
    }
}

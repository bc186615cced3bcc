//! Incrementally maintained shortest-path trees for delta CSPF.
//!
//! Signaling N LSPs from the same head end repeats the same Dijkstra N
//! times; at a million LSPs that is O(LSPs × graph) and dominates
//! bring-up. [`SptTree`] computes the full shortest-path tree for one
//! source once and then *repairs* it under link failures and
//! restorations, touching only the affected subtree — so steady-state
//! path queries are O(path length) and a topology delta costs
//! O(affected region), not O(graph) per signaled LSP.
//!
//! # The canonical-parent invariant
//!
//! [`crate::cspf::shortest_path`] runs Dijkstra with strict (`<`)
//! relaxation from a heap ordered by `(dist, node id)`. With all link
//! costs ≥ 1 every tight parent of a node pops strictly before the node
//! itself, so the parent that *first* relaxes `v` to its final distance
//! — the one `prev[v]` keeps — is exactly
//!
//! ```text
//! prev[v] = argmin over tight parents u of (dist[u], u)
//! ```
//!
//! an order-independent rule. `SptTree` maintains that same canonical
//! parent through every delta, which is what makes the tree's paths
//! byte-identical to a fresh `shortest_path` call at every moment (the
//! property the delta-vs-full proptest pins). Zero-cost links would
//! break the "tight parents pop first" argument, so the signaling layer
//! only engages the cache when every link cost is ≥ 1.

use crate::topology::{LinkId, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no parent" (the source, or an unreachable node).
const NO_NODE: NodeId = NodeId::MAX;

/// A shortest-path tree from one source, repairable under link deltas.
///
/// Distances and parents are stored per topology node index (dense
/// arrays, not maps — at 1000+ nodes the tree is the hot structure of
/// million-LSP bring-up).
#[derive(Debug, Clone)]
pub struct SptTree {
    src: NodeId,
    /// Distance from the source by node index; `u64::MAX` = unreachable.
    dist: Vec<u64>,
    /// Canonical parent by node index; `NO_NODE` for the source and
    /// unreachable nodes.
    prev: Vec<NodeId>,
}

impl SptTree {
    /// Builds the full tree from `src`. `usable` gates links (the
    /// signaling layer passes "not currently failed").
    pub fn build(topo: &Topology, src: NodeId, usable: &dyn Fn(LinkId) -> bool) -> Self {
        let n = topo.nodes().len();
        let mut tree = Self {
            src,
            dist: vec![u64::MAX; n],
            prev: vec![NO_NODE; n],
        };
        let Some(s) = topo.index_of(src) else {
            return tree;
        };
        tree.dist[s] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, src)));
        tree.propagate(topo, usable, &mut heap);
        tree
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.src
    }

    /// Distance to `to`, if reachable.
    pub fn cost(&self, topo: &Topology, to: NodeId) -> Option<u64> {
        let i = topo.index_of(to)?;
        (self.dist[i] != u64::MAX).then_some(self.dist[i])
    }

    /// The shortest path source → `to` (inclusive), exactly the node
    /// sequence `shortest_path` would return. `None` when unreachable.
    pub fn path(&self, topo: &Topology, to: NodeId) -> Option<Vec<NodeId>> {
        let mut path = Vec::new();
        self.path_into(topo, to, &mut path).then_some(path)
    }

    /// Appends [`Self::path`]`(topo, to)` to `out`, so a caller can
    /// route several segments into one `Vec`. Returns false, leaving
    /// `out` as it was, when `to` is unreachable.
    pub fn path_into(&self, topo: &Topology, to: NodeId, out: &mut Vec<NodeId>) -> bool {
        let Some(ti) = topo.index_of(to) else {
            return false;
        };
        if self.dist[ti] == u64::MAX {
            return false;
        }
        // Walk the parents back from `to`, then turn the walk around.
        let start = out.len();
        out.push(to);
        let mut cur = to;
        while cur != self.src {
            let i = topo.index_of(cur).expect("parents are known nodes");
            cur = self.prev[i];
            out.push(cur);
        }
        out[start..].reverse();
        true
    }

    /// Repairs the tree after `link` became unusable (`usable` must
    /// already report it as such). Only the subtree hanging off the
    /// broken tree edge is recomputed; non-tree edges are a no-op — a
    /// failed strict relaxation never set a `prev`, so removing one
    /// cannot change any distance.
    pub fn link_down(&mut self, topo: &Topology, link: LinkId, usable: &dyn Fn(LinkId) -> bool) {
        let Some(spec) = topo.link(link) else { return };
        // At most one direction is a tree edge (the tree is acyclic),
        // but re-check after the first repair for safety.
        for (u, v) in [(spec.a, spec.b), (spec.b, spec.a)] {
            let (Some(_), Some(vi)) = (topo.index_of(u), topo.index_of(v)) else {
                continue;
            };
            if self.prev[vi] != u {
                continue;
            }
            // Does v still achieve its distance over some usable edge
            // (another tight parent)?
            if self.best_incoming(topo, usable, v) == self.dist[vi] {
                self.prev[vi] = self.canonical_prev(topo, usable, v);
                continue;
            }
            // v's distance must grow: rebuild the affected subtree from
            // its boundary. Nodes outside the subtree keep their tree
            // paths (which avoid the broken edge by definition), so
            // their distances — and canonical parents — are stable.
            let affected = self.subtree_of(topo, vi);
            for &i in &affected {
                self.dist[i] = u64::MAX;
                self.prev[i] = NO_NODE;
            }
            let mut heap = BinaryHeap::new();
            for &i in &affected {
                let node = topo.nodes()[i].id;
                let best = self.best_incoming(topo, usable, node);
                if best < self.dist[i] {
                    self.dist[i] = best;
                    heap.push(Reverse((best, node)));
                }
            }
            self.propagate(topo, usable, &mut heap);
        }
    }

    /// Repairs the tree after `link` became usable again. Improvements
    /// seed from the link's endpoints and propagate only as far as they
    /// keep winning.
    pub fn link_up(&mut self, topo: &Topology, link: LinkId, usable: &dyn Fn(LinkId) -> bool) {
        let Some(spec) = topo.link(link) else { return };
        if !usable(link) {
            return;
        }
        let w = spec.cost as u64;
        let mut heap = BinaryHeap::new();
        for (u, v) in [(spec.a, spec.b), (spec.b, spec.a)] {
            let (Some(ui), Some(vi)) = (topo.index_of(u), topo.index_of(v)) else {
                continue;
            };
            if self.dist[ui] == u64::MAX {
                continue;
            }
            let nd = self.dist[ui] + w;
            if nd < self.dist[vi] {
                self.dist[vi] = nd;
                self.prev[vi] = u;
                heap.push(Reverse((nd, v)));
            } else if nd == self.dist[vi] {
                // Distance unchanged: only the canonical parent can move.
                self.prev[vi] = self.canonical_prev(topo, usable, v);
            }
        }
        self.propagate(topo, usable, &mut heap);
    }

    /// Dijkstra propagation from whatever is seeded in `heap`. When a
    /// node pops at its final distance its canonical parent is
    /// recomputed by scanning its (by then final) neighbors; nodes whose
    /// distance never changes but whose tight-parent set gains a member
    /// get the equal-distance fix-up inline.
    fn propagate(
        &mut self,
        topo: &Topology,
        usable: &dyn Fn(LinkId) -> bool,
        heap: &mut BinaryHeap<Reverse<(u64, NodeId)>>,
    ) {
        while let Some(Reverse((d, node))) = heap.pop() {
            let ni = topo.index_of(node).expect("heap holds known nodes");
            if d > self.dist[ni] {
                continue;
            }
            // Every neighbor with a smaller distance is final by the
            // heap's pop order, so the canonical parent is decidable now.
            self.prev[ni] = self.canonical_prev(topo, usable, node);
            for &(next, link) in topo.neighbors(node) {
                if !usable(link) {
                    continue;
                }
                let w = topo.link(link).expect("valid adjacency").cost as u64;
                let nd = d + w;
                let xi = topo.index_of(next).expect("valid adjacency");
                if nd < self.dist[xi] {
                    self.dist[xi] = nd;
                    self.prev[xi] = node;
                    heap.push(Reverse((nd, next)));
                } else if nd == self.dist[xi] {
                    let cur = self.prev[xi];
                    if cur != NO_NODE {
                        let ci = topo.index_of(cur).expect("parents are known nodes");
                        if (d, node) < (self.dist[ci], cur) {
                            self.prev[xi] = node;
                        }
                    }
                }
            }
        }
    }

    /// The best achievable distance of `node` over its usable incoming
    /// edges (`u64::MAX` when none).
    fn best_incoming(&self, topo: &Topology, usable: &dyn Fn(LinkId) -> bool, node: NodeId) -> u64 {
        if node == self.src {
            return 0;
        }
        let mut best = u64::MAX;
        for &(from, link) in topo.neighbors(node) {
            if !usable(link) {
                continue;
            }
            let fi = topo.index_of(from).expect("valid adjacency");
            if self.dist[fi] == u64::MAX {
                continue;
            }
            let w = topo.link(link).expect("valid adjacency").cost as u64;
            best = best.min(self.dist[fi] + w);
        }
        best
    }

    /// `argmin over tight parents u of (dist[u], u)` — the canonical
    /// parent rule (see module docs). `NO_NODE` for the source and
    /// unreachable nodes.
    fn canonical_prev(
        &self,
        topo: &Topology,
        usable: &dyn Fn(LinkId) -> bool,
        node: NodeId,
    ) -> NodeId {
        let ni = topo.index_of(node).expect("known node");
        let d = self.dist[ni];
        if d == 0 || d == u64::MAX {
            return NO_NODE;
        }
        let mut best = (u64::MAX, NO_NODE);
        for &(from, link) in topo.neighbors(node) {
            if !usable(link) {
                continue;
            }
            let fi = topo.index_of(from).expect("valid adjacency");
            let fd = self.dist[fi];
            if fd == u64::MAX {
                continue;
            }
            let w = topo.link(link).expect("valid adjacency").cost as u64;
            if fd + w == d && (fd, from) < best {
                best = (fd, from);
            }
        }
        best.1
    }

    /// Node indices of the tree subtree rooted at index `root`
    /// (inclusive), found by one pass grouping nodes under their parent.
    fn subtree_of(&self, topo: &Topology, root: usize) -> Vec<usize> {
        let n = self.prev.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &p) in self.prev.iter().enumerate() {
            if p != NO_NODE {
                let pi = topo.index_of(p).expect("parents are known nodes");
                children[pi].push(i);
            }
        }
        let mut out = vec![root];
        let mut k = 0;
        while k < out.len() {
            let cur = out[k];
            k += 1;
            out.extend_from_slice(&children[cur]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cspf::{shortest_path, Constraint};
    use crate::topology::{LinkSpec, RouterRole, Topology};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn reference(
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        failed: &HashSet<LinkId>,
    ) -> Option<Vec<NodeId>> {
        let constraint = Constraint {
            exclude_links: failed.clone(),
            ..Default::default()
        };
        shortest_path(topo, from, to, &constraint, &|_| u64::MAX).ok()
    }

    fn line3() -> Topology {
        let mut t = Topology::new();
        for i in 0..3 {
            t.add_node(i, RouterRole::Lsr, format!("n{i}"));
        }
        for (a, b) in [(0, 1), (1, 2)] {
            t.add_link(LinkSpec {
                a,
                b,
                cost: 1,
                bandwidth_bps: 1,
                delay_ns: 1,
            });
        }
        t
    }

    #[test]
    fn matches_full_dijkstra_on_figure1() {
        let topo = Topology::figure1_example();
        let none = HashSet::new();
        let tree = SptTree::build(&topo, 0, &|_| true);
        for n in topo.nodes() {
            assert_eq!(tree.path(&topo, n.id), reference(&topo, 0, n.id, &none));
        }
    }

    #[test]
    fn link_down_and_up_repair_to_the_full_answer() {
        let topo = Topology::figure1_example();
        let mut failed = HashSet::new();
        let mut tree = SptTree::build(&topo, 0, &|_| true);
        // Cut the north path's middle link (2-3), then restore it.
        let cut = topo.link_between(2, 3).unwrap();
        failed.insert(cut);
        tree.link_down(&topo, cut, &|l| !failed.contains(&l));
        assert_eq!(tree.path(&topo, 1), Some(vec![0, 4, 5, 1]));
        failed.remove(&cut);
        tree.link_up(&topo, cut, &|l| !failed.contains(&l));
        assert_eq!(tree.path(&topo, 1), Some(vec![0, 2, 3, 1]));
    }

    #[test]
    fn disconnection_is_reported_as_unreachable() {
        let topo = line3();
        let mut failed = HashSet::new();
        let mut tree = SptTree::build(&topo, 0, &|_| true);
        failed.insert(1); // link 1-2
        tree.link_down(&topo, 1, &|l| !failed.contains(&l));
        assert_eq!(tree.path(&topo, 2), None);
        assert_eq!(tree.cost(&topo, 2), None);
        assert_eq!(tree.path(&topo, 1), Some(vec![0, 1]));
    }

    #[test]
    fn trivial_paths() {
        let topo = line3();
        let tree = SptTree::build(&topo, 1, &|_| true);
        assert_eq!(tree.path(&topo, 1), Some(vec![1]));
        assert_eq!(tree.cost(&topo, 1), Some(0));
        assert_eq!(tree.path(&topo, 99), None);
    }

    /// Random graph + random fail/restore sequence: after every delta the
    /// repaired tree answers every pair exactly like a fresh
    /// `shortest_path` — the invariant the signaling cache relies on —
    /// through both `path` and `path_into`.
    fn random_topo(n: u32, extra: &[(u32, u32, u32)]) -> Topology {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_node(i, RouterRole::Lsr, format!("n{i}"));
        }
        // A ring keeps the base graph connected; extra chords add tie-rich
        // alternative paths (never a second link between two nodes,
        // which a topology refuses).
        for i in 0..n {
            t.add_link(LinkSpec {
                a: i,
                b: (i + 1) % n,
                cost: 1,
                bandwidth_bps: 1,
                delay_ns: 1,
            });
        }
        for &(a, b, cost) in extra {
            let (a, b) = (a % n, b % n);
            if a != b && t.link_between(a, b).is_none() {
                t.add_link(LinkSpec {
                    a,
                    b,
                    cost: cost.clamp(1, 4),
                    bandwidth_bps: 1,
                    delay_ns: 1,
                });
            }
        }
        t
    }

    proptest! {
        #[test]
        fn delta_tree_agrees_with_full_shortest_path(
            n in 4u32..12,
            extra in proptest::collection::vec((0u32..12, 0u32..12, 1u32..4), 0..10),
            deltas in proptest::collection::vec((0u32..32, 0u32..2), 1..12,),
            src in 0u32..12,
        ) {
            let topo = random_topo(n, &extra);
            let src = src % n;
            let mut failed: HashSet<LinkId> = HashSet::new();
            let mut tree = SptTree::build(&topo, src, &|_| true);
            for (pick, down) in deltas {
                let link = pick % topo.links().len() as u32;
                let down = down == 1;
                if down {
                    if failed.insert(link) {
                        tree.link_down(&topo, link, &|l| !failed.contains(&l));
                    }
                } else if failed.remove(&link) {
                    tree.link_up(&topo, link, &|l| !failed.contains(&l));
                }
                for node in topo.nodes() {
                    let want = reference(&topo, src, node.id, &failed);
                    prop_assert_eq!(
                        tree.path(&topo, node.id),
                        want.clone(),
                        "src {} to {} after {:?}",
                        src, node.id, failed
                    );
                    // `path_into` appends exactly that path behind what
                    // the vector already holds, and nothing when there
                    // is none.
                    let mut into = vec![NO_NODE, src];
                    let found = tree.path_into(&topo, node.id, &mut into);
                    prop_assert_eq!(found, want.is_some());
                    let mut expect = vec![NO_NODE, src];
                    expect.extend(want.unwrap_or_default());
                    prop_assert_eq!(into, expect);
                }
            }
        }
    }
}

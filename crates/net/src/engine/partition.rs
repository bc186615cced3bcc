//! Topology partitioning for the sharded engine.
//!
//! Nodes are split into shards; channels belong to the shard of their
//! transmitting node. The conservative lookahead is the minimum
//! propagation delay over *cross-shard* channels: an event executed at
//! time `u` can, at the earliest, influence another shard at
//! `u + lookahead`, so an epoch `[start, end)` with
//! `end <= earliest_pending + lookahead` is causally safe to run
//! without synchronization. Every shard runs to that same bound, so the
//! fastest cut channel sets the epoch width for all of them.
//!
//! # Min-cut refinement
//!
//! The initial assignment fills contiguous blocks in topology order,
//! then a deterministic Kernighan–Lin-style pass greedily moves nodes
//! between shards to reduce the weight of the cut. Edge weight is the
//! *reciprocal* of the channel delay: fast links are expensive to cut
//! (they'd pin the cross-shard lookahead low and carry the most chatty
//! traffic), slow links are the ones we want crossing shards. Every
//! accepted move strictly reduces the cut weight, so the result is
//! never worse than the contiguous blocks it started from. Hinted nodes
//! are pinned and never move.
//!
//! Which partition is chosen cannot affect the report — only wall-clock
//! time. Byte-identity across shard counts (and across partitioning
//! strategies) is the engine's invariant, certified by
//! `tests/shard_determinism.rs` and `tests/cross_shard_identity.rs`.

use crate::event::SimTime;
use crate::link::Channel;
use mpls_control::NodeId;
use std::collections::HashMap;

/// The result of partitioning a topology.
pub(crate) struct Partition {
    /// Shard of every node.
    pub shard_of_node: HashMap<NodeId, usize>,
    /// Effective shard count (may be lower than requested).
    pub shards: usize,
    /// Conservative lookahead: minimum cross-shard propagation delay,
    /// or `u64::MAX` when no channel crosses shards.
    pub lookahead: SimTime,
}

/// Weight of cutting a channel with this delay: reciprocal nanoseconds,
/// scaled so even multi-millisecond links keep a non-zero weight. A
/// zero-delay channel gets an effectively infinite weight — refinement
/// will trade anything to *uncut* it, since a zero-delay cut has no
/// usable lookahead and degrades the whole partitioning to one shard.
fn cut_weight(delay_ns: u64) -> u64 {
    match 1_000_000_000u64.checked_div(delay_ns) {
        None => 1 << 40,
        Some(w) => w.max(1),
    }
}

/// Total weight of the channels crossing shards under `shard_of`.
/// Exposed for the partitioner's own tests.
#[cfg(test)]
fn total_cut(shard_of: &HashMap<NodeId, usize>, channels: &[Channel]) -> u64 {
    channels
        .iter()
        .filter(|c| shard_of[&c.from] != shard_of[&c.to])
        .map(|c| cut_weight(c.delay_ns))
        .sum()
}

/// Splits `nodes` into (at most) `requested` shards. Hinted nodes go to
/// `hint % shards`; the rest seed contiguous blocks in topology order
/// and are then refined toward a minimum-weight cut (see the module
/// docs). A zero-delay cross-shard channel would force a zero
/// lookahead, so such partitionings degrade to a single shard.
pub(crate) fn partition(
    nodes: &[NodeId],
    requested: usize,
    hints: &HashMap<NodeId, usize>,
    channels: &[Channel],
) -> Partition {
    let shards = requested.max(1).min(nodes.len().max(1));
    if shards == 1 {
        return single_shard(nodes);
    }
    let block = nodes.len().div_ceil(shards);
    let mut shard_of: HashMap<NodeId, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, hints.get(&n).map_or(i / block, |&h| h % shards)))
        .collect();
    refine(nodes, shards, block, hints, channels, &mut shard_of);
    let lookahead = channels
        .iter()
        .filter(|c| shard_of[&c.from] != shard_of[&c.to])
        .map(|c| c.delay_ns)
        .min()
        .unwrap_or(SimTime::MAX);
    if lookahead == 0 {
        return single_shard(nodes);
    }
    Partition {
        shard_of_node: shard_of,
        shards,
        lookahead,
    }
}

/// Fiduccia–Mattheyses-style refinement: each pass builds a chain of
/// tentative single-node moves — always the best-gain legal move, even
/// when the gain is negative (that's how two full shards *swap* nodes:
/// one temporarily overfills by one, the counter-move restores balance)
/// — then keeps the chain prefix with the best cumulative gain among
/// balanced states and reverts the rest. Every kept prefix strictly
/// reduces the cut weight, so the result is never worse than the
/// contiguous-block seed. Deterministic throughout: nodes are scanned
/// in slice order, ties break toward the earlier node and lower shard
/// index — the partition is a pure function of the topology, never of
/// thread timing.
fn refine(
    nodes: &[NodeId],
    shards: usize,
    max_size: usize,
    hints: &HashMap<NodeId, usize>,
    channels: &[Channel],
    shard_of: &mut HashMap<NodeId, usize>,
) {
    // Undirected adjacency with per-channel weights. Duplex links
    // contribute both directions on their own; single-direction
    // channels are mirrored so the cut objective stays symmetric.
    let mut adj: HashMap<NodeId, Vec<(NodeId, u64)>> = HashMap::new();
    for c in channels {
        let w = cut_weight(c.delay_ns);
        adj.entry(c.from).or_default().push((c.to, w));
        if !channels.iter().any(|r| r.from == c.to && r.to == c.from) {
            adj.entry(c.to).or_default().push((c.from, w));
        }
    }
    let mut sizes = vec![0usize; shards];
    for &s in shard_of.values() {
        sizes[s] += 1;
    }
    // Per-shard capacity: the block ceiling, or the seed size when
    // hints already overfilled a shard (hints outrank balance).
    let caps: Vec<usize> = sizes.iter().map(|&n| n.max(max_size)).collect();
    let movable: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| !hints.contains_key(n))
        .collect();
    let mut affinity = vec![0i64; shards];
    let mut locked: HashMap<NodeId, bool> = HashMap::new();
    for _pass in 0..8 {
        for n in &movable {
            locked.insert(*n, false);
        }
        let mut chain: Vec<(NodeId, usize, usize)> = Vec::new();
        let mut cum: i64 = 0;
        let mut best: Option<(usize, i64)> = None; // (chain len, gain)
        loop {
            // The best-gain legal move over all unlocked nodes. A move
            // may overfill its destination by one (the swap slack); a
            // state only becomes a keepable prefix once balance is
            // restored.
            let mut pick: Option<(NodeId, usize, usize, i64)> = None;
            for &n in &movable {
                if locked[&n] {
                    continue;
                }
                let cur = shard_of[&n];
                if sizes[cur] <= 1 {
                    continue;
                }
                let Some(edges) = adj.get(&n) else { continue };
                affinity.iter_mut().for_each(|a| *a = 0);
                for &(peer, w) in edges {
                    affinity[shard_of[&peer]] += w as i64;
                }
                for (s, &aff) in affinity.iter().enumerate() {
                    if s == cur || sizes[s] > caps[s] {
                        continue;
                    }
                    let gain = aff - affinity[cur];
                    if pick.is_none_or(|(.., g)| gain > g) {
                        pick = Some((n, cur, s, gain));
                    }
                }
            }
            let Some((n, cur, dest, gain)) = pick else {
                break;
            };
            shard_of.insert(n, dest);
            sizes[cur] -= 1;
            sizes[dest] += 1;
            locked.insert(n, true);
            cum += gain;
            chain.push((n, cur, dest));
            let balanced = sizes.iter().zip(&caps).all(|(&sz, &cap)| sz <= cap);
            if balanced && cum > 0 && best.is_none_or(|(_, g)| cum > g) {
                best = Some((chain.len(), cum));
            }
        }
        let keep = best.map_or(0, |(len, _)| len);
        for &(n, cur, dest) in chain[keep..].iter().rev() {
            shard_of.insert(n, cur);
            sizes[dest] -= 1;
            sizes[cur] += 1;
        }
        if best.is_none() {
            break;
        }
    }
}

fn single_shard(nodes: &[NodeId]) -> Partition {
    Partition {
        shard_of_node: nodes.iter().map(|&n| (n, 0)).collect(),
        shards: 1,
        lookahead: SimTime::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueDiscipline;

    fn chan(from: NodeId, to: NodeId, delay_ns: u64) -> Channel {
        Channel::new(
            from,
            to,
            1_000_000_000,
            delay_ns,
            QueueDiscipline::Fifo { capacity: 4 },
        )
    }

    /// Both directions of a bidirectional link, as `Simulation::build`
    /// constructs them.
    fn duplex(a: NodeId, b: NodeId, delay_ns: u64) -> [Channel; 2] {
        [chan(a, b, delay_ns), chan(b, a, delay_ns)]
    }

    /// The contiguous-block seed on its own, for cut-weight baselines.
    fn blocks(nodes: &[NodeId], shards: usize) -> HashMap<NodeId, usize> {
        let block = nodes.len().div_ceil(shards);
        nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i / block))
            .collect()
    }

    fn assert_valid(p: &Partition, nodes: &[NodeId]) {
        assert_eq!(
            p.shard_of_node.len(),
            nodes.len(),
            "every node assigned exactly once"
        );
        for n in nodes {
            let s = p.shard_of_node[n];
            assert!(s < p.shards, "node {n} landed on out-of-range shard {s}");
        }
    }

    #[test]
    fn keeps_hot_link_internal_and_takes_min_cross_delay() {
        let nodes = [0, 1, 2, 3];
        // Line 0-1-2-3; the 300ns middle link is the heaviest-weight
        // edge, so refinement pulls {1,2} into one shard even though
        // the contiguous-block seed would cut straight through it.
        let channels = [chan(0, 1, 700), chan(1, 2, 300), chan(2, 3, 900)];
        let p = partition(&nodes, 2, &HashMap::new(), &channels);
        assert_valid(&p, &nodes);
        assert_eq!(p.shards, 2);
        assert_eq!(
            p.shard_of_node[&1], p.shard_of_node[&2],
            "hot 1-2 link must stay shard-internal"
        );
        assert_ne!(p.shard_of_node[&0], p.shard_of_node[&1]);
        assert_ne!(p.shard_of_node[&3], p.shard_of_node[&2]);
        // The cut now crosses 0->1 (700) and 2->3 (900): lookahead
        // widens to 700 from the 300 a contiguous split would give.
        assert_eq!(p.lookahead, 700);
    }

    #[test]
    fn hints_override_block_placement() {
        let nodes = [0, 1, 2, 3];
        let hints = HashMap::from([(0, 1), (3, 0)]);
        let channels = [chan(0, 3, 250)];
        let p = partition(&nodes, 2, &hints, &channels);
        assert_eq!(p.shard_of_node[&0], 1);
        assert_eq!(p.shard_of_node[&3], 0);
        assert_eq!(p.lookahead, 250);
    }

    #[test]
    fn degenerate_cases_fall_back_to_one_shard() {
        let nodes = [0, 1];
        // Zero-delay cross-shard link: no usable lookahead.
        let p = partition(&nodes, 2, &HashMap::new(), &[chan(0, 1, 0)]);
        assert_eq!(p.shards, 1);
        assert_eq!(p.lookahead, SimTime::MAX);
        // More shards than nodes clamps.
        let p = partition(&nodes, 8, &HashMap::new(), &[chan(0, 1, 5)]);
        assert!(p.shards <= 2);
        // No cross-shard channels: unbounded lookahead.
        let p = partition(&[7], 1, &HashMap::new(), &[]);
        assert_eq!(p.shards, 1);
        assert_eq!(p.lookahead, SimTime::MAX);
    }

    /// Heterogeneous-delay grid: rows are joined by fast links, the two
    /// halves by slow ones. Row-major ids make contiguous blocks decent
    /// but the refinement must never do worse — and the cut it keeps
    /// should cross slow links, widening the lookahead.
    #[test]
    fn grid_cut_no_worse_than_blocks() {
        let side = 4u32;
        let mut channels = Vec::new();
        let nodes: Vec<NodeId> = (0..side * side).collect();
        for r in 0..side {
            for c in 0..side {
                let id = r * side + c;
                if c + 1 < side {
                    channels.extend(duplex(id, id + 1, 5_000));
                }
                if r + 1 < side {
                    // Vertical links between the grid's top and bottom
                    // halves are long-haul.
                    let d = if r == 1 { 200_000 } else { 5_000 };
                    channels.extend(duplex(id, id + side, d));
                }
            }
        }
        let p = partition(&nodes, 2, &HashMap::new(), &channels);
        assert_valid(&p, &nodes);
        let refined = total_cut(&p.shard_of_node, &channels);
        let seeded = total_cut(&blocks(&nodes, 2), &channels);
        assert!(
            refined <= seeded,
            "refined cut {refined} worse than contiguous blocks {seeded}"
        );
        // The natural cut is the long-haul row: lookahead is the slow
        // delay, 40x what a fast-link cut would allow.
        assert_eq!(p.lookahead, 200_000);
    }

    /// A ring whose node ids interleave two tightly-coupled clusters:
    /// contiguous blocks split both clusters, refinement must regroup
    /// them and strictly beat the seed.
    #[test]
    fn interleaved_ring_cut_strictly_improves_on_blocks() {
        // Clusters {0,2,4,6} and {1,3,5,7}: fast links inside each
        // cluster, two slow bridges between them.
        let nodes: Vec<NodeId> = (0..8).collect();
        let mut channels = Vec::new();
        for ids in [[0u32, 2, 4, 6], [1, 3, 5, 7]] {
            for w in ids.windows(2) {
                channels.extend(duplex(w[0], w[1], 2_000));
            }
        }
        channels.extend(duplex(6, 1, 150_000));
        channels.extend(duplex(7, 0, 150_000));
        let p = partition(&nodes, 2, &HashMap::new(), &channels);
        assert_valid(&p, &nodes);
        let refined = total_cut(&p.shard_of_node, &channels);
        let seeded = total_cut(&blocks(&nodes, 2), &channels);
        assert!(
            refined < seeded,
            "interleaved clusters should strictly improve: {refined} vs {seeded}"
        );
        // Each cluster ends up whole on one shard.
        for ids in [[0u32, 2, 4, 6], [1, 3, 5, 7]] {
            let s = p.shard_of_node[&ids[0]];
            for id in ids {
                assert_eq!(p.shard_of_node[&id], s, "cluster split at node {id}");
            }
        }
        assert_eq!(p.lookahead, 150_000, "only the slow bridges are cut");
    }

    /// A two-pod fat-tree: pods are cheap to keep whole, the spine
    /// links are the natural cut. Blocks in id order already separate
    /// the pods; refinement must not regress, and per-node hints must
    /// still pin nodes wherever they ask.
    #[test]
    fn fat_tree_cut_no_worse_than_blocks_and_hints_pin() {
        // Nodes 0-3: pod A (2 edge + 2 agg), 4-7: pod B, 8-9: spine.
        let nodes: Vec<NodeId> = (0..10).collect();
        let mut channels = Vec::new();
        for pod in [0u32, 4] {
            for edge in [pod, pod + 1] {
                for agg in [pod + 2, pod + 3] {
                    channels.extend(duplex(edge, agg, 1_000));
                }
            }
            for agg in [pod + 2, pod + 3] {
                for spine in [8u32, 9] {
                    channels.extend(duplex(agg, spine, 50_000));
                }
            }
        }
        let p = partition(&nodes, 2, &HashMap::new(), &channels);
        assert_valid(&p, &nodes);
        let refined = total_cut(&p.shard_of_node, &channels);
        let seeded = total_cut(&blocks(&nodes, 2), &channels);
        assert!(
            refined <= seeded,
            "fat-tree cut regressed: {refined} vs {seeded}"
        );
        // Pods stay whole: every edge switch shares its aggs' shard.
        for pod in [0u32, 4] {
            let s = p.shard_of_node[&pod];
            for id in pod..pod + 4 {
                assert_eq!(p.shard_of_node[&id], s, "pod split at node {id}");
            }
        }

        // Hints survive refinement even when they fight the cut: pin an
        // aggregation switch away from its pod.
        let hints = HashMap::from([(2u32, 1usize), (8, 0), (9, 1)]);
        let p = partition(&nodes, 2, &hints, &channels);
        assert_valid(&p, &nodes);
        assert_eq!(p.shard_of_node[&2], 1, "hinted node moved off its shard");
        assert_eq!(p.shard_of_node[&8], 0);
        assert_eq!(p.shard_of_node[&9], 1);
    }

    /// Refinement respects the balance ceiling: no shard can absorb the
    /// whole topology just because the links are fast.
    #[test]
    fn refinement_keeps_shards_balanced() {
        let nodes: Vec<NodeId> = (0..12).collect();
        let mut channels = Vec::new();
        // A clique-ish hub: everything wants to be with node 0.
        for i in 1..12u32 {
            channels.extend(duplex(0, i, 1_000));
        }
        let p = partition(&nodes, 4, &HashMap::new(), &channels);
        assert_valid(&p, &nodes);
        let mut sizes = vec![0usize; p.shards];
        for &s in p.shard_of_node.values() {
            sizes[s] += 1;
        }
        let max = nodes.len().div_ceil(4);
        for (s, &n) in sizes.iter().enumerate() {
            assert!(n <= max, "shard {s} overfilled: {n} > {max}");
            assert!(n >= 1, "shard {s} emptied");
        }
    }
}

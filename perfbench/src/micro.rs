//! Per-layer microbenchmarks at workload state.
//!
//! Each loop is programmed from a workload's own `config_for` output and
//! fed the packets that really arrive at the measured node, found by
//! walking every LSP hop by hop through routers of the measured kind.
//! A loop reports the median ns/op over batches.

use mpls_control::{ControlPlane, NodeConfig, NodeId, RouterRole};
use mpls_core::{IbOperation, LabelStackModifier, Level, Outcome, RouterType};
use mpls_dataplane::{HashFib, LabelBinding, LabelOp, LookupStrategy};
use mpls_net::RouterKind;
use mpls_packet::{EtherType, EthernetFrame, Ipv4Header, MacAddr, MplsPacket};
use mpls_router::{Action, EmbeddedRouter, MplsForwarder, SoftwareRouter, SwTimingModel};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batches per loop.
const BATCHES: usize = 15;
/// A batch runs at least this long, so timer resolution does not count.
const MIN_BATCH: Duration = Duration::from_millis(3);
/// Packets collected per measured node.
const MAX_ARRIVALS: usize = 512;

/// One microbenchmark's result.
#[derive(Debug, Clone, Copy)]
pub struct Loop {
    /// Median over batches of the mean ns per operation.
    pub ns_per_op: f64,
    /// Batches timed.
    pub batches: usize,
    /// Operations per batch.
    pub ops_per_batch: usize,
}

/// Median of a non-empty sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Times `op(i)` for consecutive `i`: sizes a batch to at least
/// [`MIN_BATCH`], then reports the median ns/op over [`BATCHES`] batches.
pub fn measure(mut op: impl FnMut(usize)) -> Loop {
    let mut n = 16usize;
    loop {
        let t = Instant::now();
        (0..n).for_each(&mut op);
        if t.elapsed() >= MIN_BATCH || n >= 1 << 26 {
            break;
        }
        n *= 2;
    }
    let mut per_op = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        (b * n..(b + 1) * n).for_each(&mut op);
        per_op.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    Loop {
        ns_per_op: median(per_op),
        batches: BATCHES,
        ops_per_batch: n,
    }
}

/// The node of `role` with the most label bindings, with its config.
pub fn fullest_node(
    cp: &ControlPlane,
    role: Option<RouterRole>,
) -> (NodeId, RouterRole, NodeConfig) {
    cp.topology()
        .nodes()
        .iter()
        .filter(|n| role.is_none_or(|r| n.role == r))
        .map(|n| (n.id, n.role, cp.config_for(n.id)))
        .max_by_key(|(id, _, cfg)| (cfg.bindings.len(), std::cmp::Reverse(*id)))
        .expect("topology has nodes")
}

/// Bindings of `cfg` at `level` (1, 2 or 3).
fn level_count(cfg: &NodeConfig, level: u8) -> usize {
    cfg.bindings.iter().filter(|b| b.level == level).count()
}

/// The level holding most of `cfg`'s bindings, and its size.
pub fn largest_level(cfg: &NodeConfig) -> (u8, usize) {
    (1..=3u8)
        .map(|l| (l, level_count(cfg, l)))
        .max_by_key(|&(l, n)| (n, std::cmp::Reverse(l)))
        .expect("three levels")
}

/// An unlabeled packet as a layer-2 network hands it to LER `ingress`.
fn ipv4_packet(ingress: NodeId, dst: u32) -> MplsPacket {
    MplsPacket::ipv4(
        EthernetFrame {
            dst: MacAddr::from_node(ingress, 0),
            src: MacAddr::from_node(u32::MAX, 0),
            ethertype: EtherType::Ipv4,
        },
        Ipv4Header::new(0xAC10_0001, dst, Ipv4Header::PROTO_UDP, 64, 256),
        bytes::Bytes::from(vec![0u8; 256]),
    )
}

/// The packets that arrive at `target`, with the upstream node as the
/// arrival port: each LSP's FEC is walked from its ingress through
/// routers of `kind` until it reaches `target` or leaves the network.
pub fn arrivals(cp: &ControlPlane, kind: RouterKind, target: NodeId) -> Vec<(MplsPacket, u64)> {
    let mut routers: HashMap<NodeId, Box<dyn MplsForwarder + Send>> = HashMap::new();
    let mut found = Vec::new();
    for id in cp.lsp_ids() {
        if found.len() >= MAX_ARRIVALS {
            break;
        }
        let req = &cp.lsp(id).expect("listed LSP exists").request;
        let host = if req.fec.len >= 32 { 0 } else { 10 };
        let mut packet = ipv4_packet(req.ingress, req.fec.addr | host);
        let mut at = req.ingress;
        for _ in 0..64 {
            let router = routers.entry(at).or_insert_with(|| {
                let role = cp.topology().node(at).expect("node exists").role;
                kind.build(at, role, &cp.config_for(at))
            });
            match router.handle_on_port(packet, 0).action {
                Action::Forward { next, packet: out } if next == target => {
                    found.push((out, u64::from(at)));
                    break;
                }
                Action::Forward { next, packet: out } => {
                    at = next;
                    packet = out;
                }
                Action::Deliver(_) | Action::Discard(_) => break,
            }
        }
    }
    found
}

/// Host cost of one transit through `router` over `packets`, after one
/// warm-up pass (which fills a flow cache, if the router has one).
/// Panics if a warm-up packet is not forwarded.
pub fn transit<R: MplsForwarder>(router: &mut R, packets: &[(MplsPacket, u64)]) -> Loop {
    assert!(!packets.is_empty(), "no packets reach the measured node");
    for (p, port) in packets {
        let out = router.handle_on_port(p.clone(), *port);
        assert!(
            matches!(out.action, Action::Forward { .. } | Action::Deliver(_)),
            "warm-up packet not forwarded: {:?}",
            out.action
        );
    }
    measure(|i| {
        let (p, port) = &packets[i % packets.len()];
        black_box(
            router
                .handle_on_port(black_box(p.clone()), *port)
                .latency_ns,
        );
    })
}

/// `EmbeddedRouter::handle` at `node`, programmed from `cfg`.
pub fn embedded_transit(
    node: NodeId,
    role: RouterRole,
    cfg: &NodeConfig,
    packets: &[(MplsPacket, u64)],
) -> Loop {
    let clock = mpls_core::ClockSpec::STRATIX_50MHZ;
    transit(&mut EmbeddedRouter::new(node, role, cfg, clock), packets)
}

/// `SoftwareRouter<HashFib>::handle_on_port` at `node` with a warm flow
/// cache, programmed from `cfg`.
pub fn software_fast_transit(
    node: NodeId,
    role: RouterRole,
    cfg: &NodeConfig,
    packets: &[(MplsPacket, u64)],
) -> Loop {
    let mut r: SoftwareRouter<HashFib> =
        SoftwareRouter::with_options(node, role, cfg, SwTimingModel::default(), true);
    transit(&mut r, packets)
}

fn ib_op(op: LabelOp) -> IbOperation {
    match op {
        LabelOp::Nop => IbOperation::Nop,
        LabelOp::Push => IbOperation::Push,
        LabelOp::Pop => IbOperation::Pop,
        LabelOp::Swap => IbOperation::Swap,
    }
}

fn ib_level(level: u8) -> Level {
    match level {
        1 => Level::L1,
        2 => Level::L2,
        _ => Level::L3,
    }
}

/// `LabelStackModifier::lookup` over every level-`level` key of `cfg`,
/// with the info base programmed exactly as the embedded router does.
pub fn modifier_search(role: RouterRole, cfg: &NodeConfig, level: u8) -> Loop {
    let rtype = match role {
        RouterRole::Ler => RouterType::Ler,
        RouterRole::Lsr => RouterType::Lsr,
    };
    let mut m = LabelStackModifier::new(rtype);
    m.reset();
    for b in &cfg.bindings {
        m.write_pair(ib_level(b.level), b.key, b.new_label, ib_op(b.op));
    }
    let keys: Vec<u64> = cfg
        .bindings
        .iter()
        .filter(|b| b.level == level)
        .map(|b| b.key)
        .collect();
    assert!(!keys.is_empty(), "no level-{level} keys to search");
    let lvl = ib_level(level);
    for &k in &keys {
        let r = m.lookup(lvl, k);
        assert!(
            matches!(r.outcome, Outcome::LookupHit { .. }),
            "programmed key {k} missed"
        );
    }
    measure(|i| {
        black_box(m.lookup(lvl, black_box(keys[i % keys.len()])).cycles);
    })
}

/// `HashFib` lookups over every level-`level` key of `cfg`.
pub fn fib_get(cfg: &NodeConfig, level: u8) -> Loop {
    let mut fib = HashFib::with_diff(false);
    let mut keys = Vec::new();
    for b in cfg.bindings.iter().filter(|b| b.level == level) {
        fib.insert(b.key, LabelBinding::new(b.new_label, b.op));
        keys.push(b.key);
    }
    assert!(!keys.is_empty(), "no level-{level} keys to look up");
    for &k in &keys {
        assert!(fib.get(k).0.is_some(), "programmed key {k} missed");
    }
    measure(|i| {
        black_box(fib.get(black_box(keys[i % keys.len()])));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn measure_counts_every_batch() {
        let mut calls = 0usize;
        let l = measure(|_| calls += 1);
        assert_eq!(l.batches, BATCHES);
        assert!(calls >= BATCHES * l.ops_per_batch);
        assert!(l.ns_per_op >= 0.0);
    }
}

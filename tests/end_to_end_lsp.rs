//! The paper's Fig. 2 packet exchange, hop by hop at the router level:
//! "When the ingress LER receives layer 2 data, it is analyzed and a
//! label is added to the packet. ... Subsequent LSRs analyze the label,
//! remove it and attach a new label ... When the packet reaches the
//! egress LER, the label is removed and the packet is forwarded to the
//! appropriate layer 2 network."

use mpls_control::{ControlPlane, LspRequest, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_packet::ipv4::parse_addr;
use mpls_packet::{EtherType, EthernetFrame, Ipv4Header, MacAddr, MplsPacket};
use mpls_router::{Action, EmbeddedRouter, MplsForwarder, SoftwareRouter, SwTimingModel};

fn packet_to(dst: &str) -> MplsPacket {
    MplsPacket::ipv4(
        EthernetFrame {
            dst: MacAddr::from_node(0, 0),
            src: MacAddr::from_node(99, 0),
            ethertype: EtherType::Ipv4,
        },
        Ipv4Header::new(
            parse_addr("10.0.0.1").unwrap(),
            parse_addr(dst).unwrap(),
            Ipv4Header::PROTO_UDP,
            64,
            64,
        ),
        bytes::Bytes::from_static(&[0xAB; 64]),
    )
}

fn setup() -> ControlPlane {
    let mut cp = ControlPlane::new(Topology::figure1_example());
    cp.establish_lsp(LspRequest::best_effort(
        0,
        1,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .unwrap();
    cp
}

/// Walks a packet through a chain of routers, asserting forward decisions
/// match the expected node sequence, and returns the delivered packet.
fn walk<F: MplsForwarder>(
    routers: &mut [(u32, F)],
    expected_path: &[u32],
    packet: MplsPacket,
) -> MplsPacket {
    let mut current = packet;
    let mut at = expected_path[0];
    for hop in 1..expected_path.len() + 1 {
        let (_, router) = routers
            .iter_mut()
            .find(|(id, _)| *id == at)
            .expect("router exists");
        match router.handle(current) {
            mpls_router::Forwarding {
                action: Action::Forward { next, packet },
                ..
            } => {
                assert_eq!(
                    next, expected_path[hop],
                    "hop {hop}: expected {:?}",
                    expected_path
                );
                at = next;
                current = packet;
            }
            mpls_router::Forwarding {
                action: Action::Deliver(packet),
                ..
            } => {
                assert_eq!(at, *expected_path.last().unwrap(), "delivered early");
                return packet;
            }
            mpls_router::Forwarding {
                action: Action::Discard(cause),
                ..
            } => panic!("discarded at node {at}: {cause}"),
        }
    }
    panic!("walked past the path end without delivery");
}

#[test]
fn figure2_exchange_on_embedded_routers() {
    let cp = setup();
    let lsp = cp.lsp(1).unwrap().clone();
    assert_eq!(lsp.path, vec![0, 2, 3, 1]);

    let mut routers: Vec<(u32, EmbeddedRouter)> = [0u32, 2, 3, 1]
        .iter()
        .map(|&id| {
            let role = cp.topology().node(id).unwrap().role;
            (
                id,
                EmbeddedRouter::new(id, role, &cp.config_for(id), ClockSpec::STRATIX_50MHZ),
            )
        })
        .collect();

    let sent = packet_to("192.168.1.5");
    let delivered = walk(&mut routers, &[0, 2, 3, 1], sent.clone());

    // Delivered as plain IPv4, payload intact, unlabeled.
    assert!(delivered.stack.is_empty());
    assert_eq!(delivered.eth.ethertype, EtherType::Ipv4);
    assert_eq!(delivered.payload, sent.payload);
    assert_eq!(delivered.ip.dst, sent.ip.dst);

    // Each router did its part.
    let ingress = &routers[0].1;
    assert_eq!(ingress.stats().forwarded, 1);
    assert_eq!(ingress.stats().flow_installs, 1);
    let egress = &routers[3].1;
    assert_eq!(egress.stats().delivered, 1);
}

#[test]
fn labels_swap_and_ttl_decrements_along_path() {
    let cp = setup();
    let lsp = cp.lsp(1).unwrap().clone();
    let mut routers: Vec<(u32, EmbeddedRouter)> = [0u32, 2, 3]
        .iter()
        .map(|&id| {
            let role = cp.topology().node(id).unwrap().role;
            (
                id,
                EmbeddedRouter::new(id, role, &cp.config_for(id), ClockSpec::STRATIX_50MHZ),
            )
        })
        .collect();

    // Ingress.
    let Action::Forward { packet: p1, .. } = routers[0].1.handle(packet_to("192.168.1.5")).action
    else {
        panic!()
    };
    assert_eq!(p1.stack.depth(), 1);
    assert_eq!(p1.stack.top().unwrap().label, lsp.hop_labels[0]);
    assert_eq!(p1.stack.top().unwrap().ttl, 64, "ingress copies the IP TTL");

    // First LSR.
    let Action::Forward { packet: p2, .. } = routers[1].1.handle(p1).action else {
        panic!()
    };
    assert_eq!(p2.stack.top().unwrap().label, lsp.hop_labels[1]);
    assert_eq!(p2.stack.top().unwrap().ttl, 63);

    // Second LSR.
    let Action::Forward { packet: p3, .. } = routers[2].1.handle(p2).action else {
        panic!()
    };
    assert_eq!(p3.stack.top().unwrap().label, lsp.hop_labels[2]);
    assert_eq!(p3.stack.top().unwrap().ttl, 62);
}

/// Builds the software chain over the LSP's path with lookup strategy `S`.
fn software_chain<S: mpls_dataplane::LookupStrategy>(
    cp: &ControlPlane,
) -> Vec<(u32, SoftwareRouter<S>)> {
    [0u32, 2, 3, 1]
        .iter()
        .map(|&id| {
            let role = cp.topology().node(id).unwrap().role;
            (
                id,
                SoftwareRouter::new(id, role, &cp.config_for(id), SwTimingModel::default()),
            )
        })
        .collect()
}

#[test]
fn software_chain_delivers_the_same_packet() {
    let cp = setup();
    let mut hash = software_chain::<mpls_dataplane::HashTable>(&cp);
    let sw_delivered = walk(&mut hash, &[0, 2, 3, 1], packet_to("192.168.1.5"));
    let mut linear = software_chain::<mpls_dataplane::LinearTable>(&cp);
    let linear_delivered = walk(&mut linear, &[0, 2, 3, 1], packet_to("192.168.1.5"));
    assert_eq!(
        sw_delivered, linear_delivered,
        "lookup strategy changed the packet"
    );

    let mut hw_routers: Vec<(u32, EmbeddedRouter)> = [0u32, 2, 3, 1]
        .iter()
        .map(|&id| {
            let role = cp.topology().node(id).unwrap().role;
            (
                id,
                EmbeddedRouter::new(id, role, &cp.config_for(id), ClockSpec::STRATIX_50MHZ),
            )
        })
        .collect();
    let hw_delivered = walk(&mut hw_routers, &[0, 2, 3, 1], packet_to("192.168.1.5"));

    assert_eq!(
        sw_delivered, hw_delivered,
        "software and hardware chains must deliver byte-identical packets"
    );
}

#[test]
fn php_lsp_delivers_plain_ip_over_last_hop() {
    let mut cp = ControlPlane::new(Topology::figure1_example());
    let mut req =
        LspRequest::best_effort(0, 1, Prefix::new(parse_addr("192.168.1.0").unwrap(), 24));
    req.php = true;
    cp.establish_lsp(req).unwrap();

    let mut routers: Vec<(u32, EmbeddedRouter)> = [0u32, 2, 3, 1]
        .iter()
        .map(|&id| {
            let role = cp.topology().node(id).unwrap().role;
            (
                id,
                EmbeddedRouter::new(id, role, &cp.config_for(id), ClockSpec::STRATIX_50MHZ),
            )
        })
        .collect();

    // Walk manually to inspect the penultimate hop's output.
    let Action::Forward { packet: p1, .. } = routers[0].1.handle(packet_to("192.168.1.5")).action
    else {
        panic!()
    };
    let Action::Forward { packet: p2, .. } = routers[1].1.handle(p1).action else {
        panic!()
    };
    assert_eq!(p2.stack.depth(), 1);
    // Penultimate LSR pops: the packet leaves unlabeled.
    let Action::Forward { next, packet: p3 } = routers[2].1.handle(p2).action else {
        panic!()
    };
    assert_eq!(next, 1);
    assert!(p3.stack.is_empty(), "PHP removed the label early");
    assert_eq!(p3.eth.ethertype, EtherType::Ipv4);
    // Egress delivers without touching the modifier.
    let out = routers[3].1.handle(p3);
    assert!(matches!(out.action, Action::Deliver(_)));
    assert_eq!(out.latency_ns, 0, "no MPLS processing at the egress");
    assert_eq!(routers[3].1.stats().total_cycles, 0);
}

#[test]
fn roundtrip_lsps_coexist() {
    // Two LSPs in opposite directions share the core.
    let mut cp = ControlPlane::new(Topology::figure1_example());
    cp.establish_lsp(LspRequest::best_effort(
        0,
        1,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .unwrap();
    cp.establish_lsp(LspRequest::best_effort(
        1,
        0,
        Prefix::new(parse_addr("10.1.0.0").unwrap(), 16),
    ))
    .unwrap();

    let mk = |id: u32| {
        let role = cp.topology().node(id).unwrap().role;
        (
            id,
            EmbeddedRouter::new(id, role, &cp.config_for(id), ClockSpec::STRATIX_50MHZ),
        )
    };
    let mut routers: Vec<_> = [0u32, 2, 3, 1].iter().map(|&id| mk(id)).collect();

    let east = walk(&mut routers, &[0, 2, 3, 1], packet_to("192.168.1.9"));
    assert!(east.stack.is_empty());

    let mut west_pkt = packet_to("10.1.2.3");
    west_pkt.eth.dst = MacAddr::from_node(1, 0);
    let west = walk(&mut routers, &[1, 3, 2, 0], west_pkt);
    assert!(west.stack.is_empty());
}

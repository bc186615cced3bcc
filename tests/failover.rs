//! Link failure, blackholing, and restoration at the system level.

use mpls_control::{ControlPlane, LspRequest, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{QueueDiscipline, RouterKind, SimReport, Simulation};
use mpls_packet::ipv4::parse_addr;
use mpls_router::SwTimingModel;

const EMBEDDED: RouterKind = RouterKind::Embedded {
    clock: ClockSpec::STRATIX_50MHZ,
};

fn traffic() -> FlowSpec {
    FlowSpec {
        name: "app".into(),
        ingress: 0,
        src_addr: parse_addr("10.0.0.1").unwrap(),
        dst_addr: parse_addr("192.168.1.5").unwrap(),
        payload_bytes: 256,
        precedence: 0,
        pattern: TrafficPattern::Cbr {
            interval_ns: 1_000_000,
        },
        start_ns: 0,
        stop_ns: 20_000_000,
        police: None,
    }
}

fn run(cp: &ControlPlane, kind: RouterKind) -> SimReport {
    let mut sim = Simulation::build(cp, kind, QueueDiscipline::Fifo { capacity: 64 }, 3);
    sim.add_flow(traffic());
    sim.run(1_000_000_000)
}

#[test]
fn failure_blackholes_then_reroute_restores() {
    let mut cp = ControlPlane::new(Topology::figure1_example());
    let id = cp
        .establish_lsp(LspRequest::best_effort(
            0,
            1,
            Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
        ))
        .unwrap();

    // Healthy: lossless over the northern path, on every router kind.
    let timing = SwTimingModel::default();
    for kind in [
        RouterKind::SoftwareHash { timing },
        RouterKind::SoftwareLinear { timing },
    ] {
        let report = run(&cp, kind);
        let s = report.flow("app").unwrap();
        assert_eq!(s.delivered, s.sent, "{kind:?}");
    }
    let before = run(&cp, EMBEDDED);
    let s = before.flow("app").unwrap();
    assert_eq!(s.delivered, s.sent);
    let fast_delay = s.mean_delay_ns();

    // Failure: the stale forwarding state steers into the dead link,
    // which the simulation builds in the down state and counts against.
    let link = cp.topology().link_between(2, 3).unwrap();
    assert_eq!(cp.fail_link(link), vec![id]);
    let during = run(&cp, EMBEDDED);
    let s = during.flow("app").unwrap();
    assert_eq!(s.delivered, 0, "stale path must blackhole");
    assert_eq!(s.link_dropped, s.sent);

    // Restoration: reroute onto the southern path; lossless but slower.
    let new_id = cp.reroute_lsp(id).unwrap();
    assert_eq!(cp.lsp(new_id).unwrap().path, vec![0, 4, 5, 1]);
    let after = run(&cp, EMBEDDED);
    let s = after.flow("app").unwrap();
    assert_eq!(s.delivered, s.sent);
    assert!(
        s.mean_delay_ns() > 2.0 * fast_delay,
        "southern path is much slower ({} vs {})",
        s.mean_delay_ns(),
        fast_delay
    );

    // Repair: the link returns; a fresh LSP prefers the north again.
    cp.restore_link(link);
    let repaired = cp.reroute_lsp(new_id).unwrap();
    assert_eq!(cp.lsp(repaired).unwrap().path, vec![0, 2, 3, 1]);
    let healed = run(&cp, EMBEDDED);
    let s = healed.flow("app").unwrap();
    assert_eq!(s.delivered, s.sent);
    assert!((s.mean_delay_ns() - fast_delay).abs() < fast_delay * 0.1);
}

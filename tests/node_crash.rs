//! Node crash and restart at the system level: a crashed router loses
//! all state (sessions, FIB), its links go dark, and recovery must be
//! earned — LDP re-forms sessions and relearns labels, protection rides
//! the standby path through the cold-FIB window, and every packet stays
//! accounted for at any shard count.

use mpls_control::{ControlPlane, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_ldp::LdpConfig;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    ControlMode, FaultPlan, QueueDiscipline, RecoveryMode, RestorationPolicy, RouterKind,
    SimReport, Simulation,
};
use mpls_packet::ipv4::parse_addr;

const CRASH_NS: u64 = 30_000_000;
const RESTART_NS: u64 = 50_000_000;

/// The paper's two-path plane: north 0-2-3-1 (fast), south 0-4-5-1
/// (slow). Node 2 is the north LSR whose crash severs the fast path.
fn plane(protected: bool) -> ControlPlane {
    let mut cp = ControlPlane::new(Topology::figure1_example());
    let lsp = cp
        .establish_lsp(LspRequest::best_effort(
            0,
            1,
            Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
        ))
        .unwrap();
    if protected {
        cp.protect_lsp(lsp).unwrap();
    }
    cp
}

fn flow(name: &str, start_ns: u64, stop_ns: u64) -> FlowSpec {
    FlowSpec {
        name: name.into(),
        ingress: 0,
        src_addr: parse_addr("10.0.0.1").unwrap(),
        dst_addr: parse_addr("192.168.1.5").unwrap(),
        payload_bytes: 256,
        precedence: 0,
        pattern: TrafficPattern::Cbr {
            interval_ns: 200_000,
        },
        start_ns,
        stop_ns,
        police: None,
    }
}

fn crash_plan(mode: RecoveryMode) -> FaultPlan {
    let mut plan = FaultPlan::new(RestorationPolicy {
        detection_delay_ns: 1_000_000,
        resignal_delay_ns: 1_000_000,
        backoff_factor: 2,
        max_retries: 8,
        hold_down_ns: 2_000_000,
        mode,
    });
    plan.node_outage(2, CRASH_NS, RESTART_NS);
    plan
}

fn conserves(r: &SimReport, name: &str) -> u64 {
    let s = r.flow(name).unwrap();
    assert_eq!(
        s.sent,
        s.delivered
            + s.router_dropped
            + s.queue_dropped
            + s.policer_dropped
            + s.link_dropped
            + s.loss_dropped,
        "conservation broke for {name}"
    );
    s.sent
}

/// LDP: the crash tears sessions down at the survivors, the withdraw
/// wave reroutes onto the south path, and after restart the node
/// re-forms its sessions and relearns the fast path — traffic that
/// starts after reconvergence is delivered in full.
#[test]
fn ldp_sessions_reestablish_after_node_crash() {
    let cp = plane(false);
    let mut sim = Simulation::build(
        &cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 64 },
        17,
    );
    sim.enable_ldp(LdpConfig::default());
    sim.set_fault_plan(crash_plan(RecoveryMode::Restoration));
    // Before, across, and after the crash window.
    sim.add_flow(flow("early", 10_000_000, 25_000_000));
    sim.add_flow(flow("across", 25_000_000, 45_000_000));
    sim.add_flow(flow("late", 65_000_000, 90_000_000));
    let report = sim.run(120_000_000);

    assert_eq!(report.control.mode, ControlMode::Ldp);
    // figure1 has 6 links = 12 session ends at bring-up; the crash must
    // tear down both of node 2's sessions at the surviving ends and
    // re-establish all four ends after the restart.
    assert!(
        report.control.sessions_established >= 16,
        "sessions did not re-establish: {}",
        report.control.sessions_established
    );
    assert!(
        report.control.session_downs >= 2,
        "survivors never noticed the crash: {}",
        report.control.session_downs
    );

    for name in ["early", "across", "late"] {
        conserves(&report, name);
    }
    let early = report.flow("early").unwrap();
    assert_eq!(early.delivered, early.sent, "healthy window must be clean");
    let across = report.flow("across").unwrap();
    assert!(
        across.delivered > 0,
        "withdraw wave should reroute mid-crash traffic south"
    );
    assert!(
        across.delivered < across.sent,
        "the detection window must cost something"
    );
    let late = report.flow("late").unwrap();
    assert_eq!(
        late.delivered, late.sent,
        "post-restart traffic must be clean after reconvergence"
    );
}

/// Protection: with a standby LSP pre-signaled on the south path, the
/// crash costs only the detection window — traffic keeps flowing while
/// the crashed node's FIB is still cold, and the repair is hitless.
#[test]
fn protection_carries_traffic_through_cold_fib_window() {
    let cp = plane(true);
    let mut sim = Simulation::build(
        &cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 64 },
        17,
    );
    sim.set_fault_plan(crash_plan(RecoveryMode::Protection));
    sim.add_flow(flow("app", 0, 100_000_000));
    let report = sim.run(130_000_000);

    let sent = conserves(&report, "app");
    let s = report.flow("app").unwrap();
    // Losses are confined to the ~1 ms detection window (5 pkt/ms).
    assert!(
        s.link_dropped > 0,
        "the crash must cost the in-flight window"
    );
    assert!(
        s.delivered >= sent - 20,
        "protection should carry everything else: {} of {sent}",
        s.delivered
    );
    assert_eq!(report.faults.len(), 2, "one record per severed north link");
    assert!(
        report.faults.iter().any(|f| f.restored_ns.is_some()),
        "protection switch must restore service"
    );
}

/// The crash/restart machinery is coordinator-global, so the report must
/// stay byte-identical at any shard count.
#[test]
fn node_crash_report_is_shard_invariant() {
    let run = |shards: usize| -> String {
        let cp = plane(false);
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            17,
        );
        sim.enable_ldp(LdpConfig {
            stale_ttl_ns: 6_000_000,
            ..LdpConfig::default()
        });
        sim.set_shards(shards);
        sim.set_fault_plan(crash_plan(RecoveryMode::Restoration));
        sim.add_flow(flow("app", 5_000_000, 80_000_000));
        serde_json::to_string(&sim.run(120_000_000)).unwrap()
    };
    let sequential = run(1);
    assert_eq!(sequential, run(4), "4-shard crash run diverged");
}

/// Centralized restoration elsewhere in the network must not revive a
/// crashed node's FIB. The plane is Fig. 1 plus LER 6, linked to LSRs 2
/// and 4, with LSPs 0→1 and 6→1. Node 0 crashes; while it is down, the
/// cut of link 2–3 re-signals LSP 6→1 and reprograms the routers. Node
/// 0 must stay cold until its own reprovision, one detection delay
/// after it restarts: every packet its source offers meanwhile is a
/// `no_route` drop, not a `link_down` drop charged to the dead link
/// 0–2.
#[test]
fn unrelated_reroute_keeps_a_crashed_node_cold() {
    const INTERVAL_NS: u64 = 100_000;
    const DOWN_NS: u64 = 10_000_000;
    const UP_NS: u64 = 40_000_000;
    let mut topo = Topology::figure1_example();
    topo.add_node(6, RouterRole::Ler, "ler-south-west");
    for (b, cost) in [(2, 1), (4, 3)] {
        topo.add_link(LinkSpec {
            a: 6,
            b,
            cost,
            bandwidth_bps: 1_000_000_000,
            delay_ns: 500_000,
        });
    }
    let link_02 = topo.link_between(0, 2).unwrap();
    let link_23 = topo.link_between(2, 3).unwrap();
    let mut cp = ControlPlane::new(topo);
    let fec = Prefix::new(parse_addr("192.168.1.0").unwrap(), 24);
    for ingress in [0, 6] {
        cp.establish_lsp(LspRequest::best_effort(ingress, 1, fec))
            .unwrap();
    }
    let mut sim = Simulation::build(
        &cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 64 },
        17,
    );
    let policy = RestorationPolicy::default();
    let mut plan = FaultPlan::new(policy);
    plan.node_outage(0, DOWN_NS, UP_NS);
    plan.link_down(15_000_000, link_23);
    sim.set_fault_plan(plan);
    for (name, ingress) in [("west", 0), ("south-west", 6)] {
        sim.add_flow(FlowSpec {
            ingress,
            pattern: TrafficPattern::Cbr {
                interval_ns: INTERVAL_NS,
            },
            ..flow(name, 0, 60_000_000)
        });
    }
    let report = sim.run(100_000_000);

    conserves(&report, "west");
    conserves(&report, "south-west");
    let west = report.flow("west").unwrap();
    let cold_ns = UP_NS + policy.detection_delay_ns - DOWN_NS;
    assert_eq!(
        west.drop_causes.no_route,
        cold_ns / INTERVAL_NS,
        "node 0's FIB must stay cold from the crash to its reprovision"
    );
    let lost_02: u64 = report
        .faults
        .iter()
        .filter(|f| f.link == link_02)
        .map(|f| f.packets_lost)
        .sum();
    assert!(
        lost_02 < 10,
        "a revived FIB steered node 0's traffic onto the dead link 0-2: {lost_02} lost"
    );
}

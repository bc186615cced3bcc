//! Deadlock and starvation battery for the sharded engine.
//!
//! Conservative parallel simulation deadlocks when every shard waits on
//! a bound that never advances. The epoch barrier avoids this by
//! construction — each round's bound is computed from the earliest
//! pending event anywhere, so an empty queue never holds anyone back —
//! but that argument only holds if the implementation actually reads
//! every queue's head every round. These scenarios are built so a naive
//! bound computation WOULD stall: shards with permanently empty queues,
//! channels that only ever carry traffic one way, and partition windows
//! that silence the control plane mid-run. Every run executes under a
//! wall-clock watchdog and must still produce the 1-shard run's
//! byte-identical report.

use mpls_control::{ControlPlane, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_ldp::LdpConfig;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    FaultPlan, QueueDiscipline, RecoveryMode, RestorationPolicy, RouterKind, SimReport, Simulation,
};
use mpls_packet::ipv4::parse_addr;
use std::time::Duration;

/// Runs `f` on a helper thread and panics if it has not finished within
/// `secs` of wall-clock time — a deadlocked engine hangs forever, and a
/// starving one for long enough that this bound trips reliably even on
/// a loaded CI machine.
fn with_watchdog<T: Send + 'static>(
    what: &str,
    secs: u64,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let label = what.to_string();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => v,
        Err(_) => panic!("{label}: engine did not finish within {secs}s — deadlock or starvation"),
    }
}

/// A line 0-1-...-(n-1) with LERs at both ends and heterogeneous
/// delays: odd-indexed links are 20x slower, so cut channel delays
/// differ by more than an order of magnitude.
fn line(n: u32) -> ControlPlane {
    let last = n - 1;
    let mut topo = Topology::new();
    for id in 0..n {
        let role = if id == 0 || id == last {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("n{id}"));
    }
    for id in 0..last {
        topo.add_link(LinkSpec {
            a: id,
            b: id + 1,
            cost: 1,
            bandwidth_bps: 200_000_000,
            delay_ns: if id % 2 == 1 { 400_000 } else { 20_000 },
        });
    }
    let mut cp = ControlPlane::new(topo);
    cp.attach_prefix(last, Prefix::new(parse_addr("192.168.1.0").unwrap(), 24));
    cp.attach_prefix(0, Prefix::new(parse_addr("10.1.0.0").unwrap(), 16));
    cp.establish_lsp(LspRequest::best_effort(
        0,
        last,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .expect("forward LSP");
    cp.establish_lsp(LspRequest::best_effort(
        last,
        0,
        Prefix::new(parse_addr("10.1.0.0").unwrap(), 16),
    ))
    .expect("reverse LSP");
    cp
}

fn one_way_flow(ingress: u32) -> FlowSpec {
    FlowSpec {
        name: "fwd".into(),
        ingress,
        src_addr: parse_addr("10.1.0.5").unwrap(),
        dst_addr: parse_addr("192.168.1.5").unwrap(),
        payload_bytes: 400,
        precedence: 5,
        pattern: TrafficPattern::Cbr {
            interval_ns: 50_000,
        },
        start_ns: 0,
        stop_ns: 6_000_000,
        police: None,
    }
}

fn run(
    cp: &ControlPlane,
    flows: &[FlowSpec],
    plan: Option<FaultPlan>,
    hints: &[(u32, usize)],
    shards: usize,
    ldp: bool,
    horizon_ns: u64,
) -> SimReport {
    let mut sim = Simulation::build(
        cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 32 },
        7,
    );
    sim.set_shards(shards);
    for &(node, shard) in hints {
        sim.shard_hint(node, shard);
    }
    if ldp {
        sim.enable_ldp(LdpConfig::default());
    }
    if let Some(plan) = plan {
        sim.set_fault_plan(plan);
    }
    for f in flows {
        sim.add_flow(f.clone());
    }
    sim.run(horizon_ns)
}

fn assert_identical(baseline: &SimReport, report: &SimReport, what: &str) {
    let a = serde_json::to_string(baseline).expect("report serializes");
    let b = serde_json::to_string(report).expect("report serializes");
    assert_eq!(a, b, "{what}: report diverged from the sequential run");
}

/// Shards 2 and 3 hold only reactive routers that never see a packet:
/// their event queues are empty for the entire run. A bound computation that
/// waits for idle shards to "catch up" stalls here forever, because a
/// reactive router with no traffic never schedules anything.
#[test]
fn zero_traffic_shards_do_not_starve_the_busy_ones() {
    let reports = with_watchdog("zero-traffic shards", 60, || {
        // A line of 8 where BOTH LERs sit at the head: all traffic
        // crosses only the 0-1 boundary while nodes 2..8 never see a
        // packet — reactive routers, so their queues stay empty.
        let mut topo = Topology::new();
        topo.add_node(0, RouterRole::Ler, "n0");
        topo.add_node(1, RouterRole::Ler, "n1");
        for id in 2..8 {
            topo.add_node(id, RouterRole::Lsr, format!("n{id}"));
        }
        for id in 0..7u32 {
            topo.add_link(LinkSpec {
                a: id,
                b: id + 1,
                cost: 1,
                bandwidth_bps: 200_000_000,
                delay_ns: if id % 2 == 1 { 400_000 } else { 20_000 },
            });
        }
        let mut cp = ControlPlane::new(topo);
        cp.attach_prefix(1, Prefix::new(parse_addr("192.168.1.0").unwrap(), 24));
        cp.attach_prefix(0, Prefix::new(parse_addr("10.1.0.0").unwrap(), 16));
        cp.establish_lsp(LspRequest::best_effort(
            0,
            1,
            Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
        ))
        .expect("head LSP");
        let flow = one_way_flow(0);
        let hints: Vec<(u32, usize)> = vec![
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 3),
            (6, 3),
            (7, 3),
        ];
        let base = run(
            &cp,
            std::slice::from_ref(&flow),
            None,
            &[],
            1,
            false,
            20_000_000,
        );
        let sharded = run(&cp, &[flow], None, &hints, 4, false, 20_000_000);
        (base, sharded)
    });
    let (base, sharded) = reports;
    assert!(
        base.flow("fwd").unwrap().delivered > 0,
        "traffic must actually cross the busy boundary"
    );
    assert_identical(&base, &sharded, "zero-traffic shards");
}

/// Traffic crosses every shard boundary in one direction only, so the
/// reverse channels never carry an event. If the engine's bound only
/// advanced when a channel delivered something (no null-message
/// equivalent), the upstream shard would block on its silent inbound
/// channel forever.
#[test]
fn one_way_channels_do_not_deadlock() {
    let reports = with_watchdog("one-way channels", 60, || {
        let cp = line(8);
        let flow = one_way_flow(0);
        let base = run(
            &cp,
            std::slice::from_ref(&flow),
            None,
            &[],
            1,
            false,
            20_000_000,
        );
        let sharded = run(&cp, &[flow], None, &[], 4, false, 20_000_000);
        (base, sharded)
    });
    let (base, sharded) = reports;
    let s = base.flow("fwd").unwrap();
    assert!(s.delivered > 0, "one-way traffic must actually flow");
    assert_identical(&base, &sharded, "one-way channels");
}

/// A partition window under LDP silences the middle of the line while
/// sessions expire and reconverge: control traffic stops crossing the
/// cut, shards on the far side go quiet, and the engine must keep
/// advancing through the window on time alone.
#[test]
fn partition_window_under_ldp_keeps_advancing() {
    let reports = with_watchdog("ldp partition window", 120, || {
        let cp = line(6);
        let mid = cp.topology().link_between(2, 3).expect("link 2-3");
        let make_plan = || {
            let mut plan = FaultPlan::new(RestorationPolicy {
                detection_delay_ns: 300_000,
                resignal_delay_ns: 300_000,
                backoff_factor: 2,
                max_retries: 4,
                hold_down_ns: 1_000_000,
                mode: RecoveryMode::Restoration,
            });
            plan.partition(mid, 14_000_000, 26_000_000);
            plan
        };
        let flow = FlowSpec {
            start_ns: 10_000_000,
            stop_ns: 34_000_000,
            ..one_way_flow(0)
        };
        let horizon = 60_000_000;
        let base = run(
            &cp,
            std::slice::from_ref(&flow),
            Some(make_plan()),
            &[],
            1,
            true,
            horizon,
        );
        let sharded = run(&cp, &[flow], Some(make_plan()), &[], 4, true, horizon);
        (base, sharded)
    });
    let (base, sharded) = reports;
    assert!(
        base.control.sessions_established > 0,
        "LDP must come up before the partition"
    );
    assert_identical(&base, &sharded, "ldp partition window");
}

/// Eight shards on an eight-node line: every shard holds exactly one
/// node, so every channel is a cross-shard channel and the bound
/// computation is exercised on the densest possible dependency graph.
#[test]
fn one_node_per_shard_terminates() {
    let reports = with_watchdog("one node per shard", 60, || {
        let cp = line(8);
        let flow = one_way_flow(0);
        let base = run(
            &cp,
            std::slice::from_ref(&flow),
            None,
            &[],
            1,
            false,
            20_000_000,
        );
        let sharded = run(&cp, &[flow], None, &[], 8, false, 20_000_000);
        (base, sharded)
    });
    let (base, sharded) = reports;
    assert_eq!(sharded.engine.shards, 8, "line must actually split 8 ways");
    assert_identical(&base, &sharded, "one node per shard");
}

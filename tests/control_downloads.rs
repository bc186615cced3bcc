//! When centralized and segment-routing forwarding state reaches the
//! routers, and which plane a fault record names.
//!
//! The centralized solver downloads every live router after a failover,
//! a re-signal or a husk teardown, and a restarted node's configuration
//! when it reprovisions; segment routing downloads the nodes a recompile
//! changed, and a restarted node's configuration when it reprovisions.
//! Each download case below runs a 3x3 grid whose traffic crosses the
//! faults and pins, at 1 and 4 shards, the report digest and the run's
//! FIB download count.

use mpls_control::{ControlPlane, LinkId, LinkSpec, LspRequest, NodeId, RouterRole, Topology};
use mpls_dataplane::ftn::Prefix;
use mpls_ldp::LdpConfig;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    ControlMode, FaultPlan, QueueDiscipline, RecoveryMode, RestorationPolicy, RouterKind,
    SimReport, Simulation,
};
use mpls_packet::ipv4::parse_addr;
use mpls_router::SwTimingModel;
use mpls_sr::SrConfig;

/// A 3x3 grid with LERs in opposite corners, a prefix behind each and
/// one LSP each way.
fn grid() -> ControlPlane {
    let mut topo = Topology::new();
    for id in 0..9 {
        let role = if id == 0 || id == 8 {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("n{id}"));
    }
    for id in 0..9u32 {
        for nbr in [id + 1, id + 3] {
            if nbr < 9 && (nbr == id + 3 || nbr % 3 != 0) {
                topo.add_link(LinkSpec {
                    a: id,
                    b: nbr,
                    cost: 1 + (id + nbr) % 2,
                    bandwidth_bps: 100_000_000,
                    delay_ns: 30_000,
                });
            }
        }
    }
    let east = Prefix::new(parse_addr("192.168.1.0").unwrap(), 24);
    let west = Prefix::new(parse_addr("10.1.0.0").unwrap(), 16);
    let mut cp = ControlPlane::new(topo);
    cp.attach_prefix(8, east);
    cp.attach_prefix(0, west);
    cp.establish_lsp(LspRequest::best_effort(0, 8, east))
        .expect("eastbound LSP");
    cp.establish_lsp(LspRequest::best_effort(8, 0, west))
        .expect("westbound LSP");
    cp
}

/// The eastbound LSP's node path.
fn east_path(cp: &ControlPlane) -> Vec<NodeId> {
    let id = cp.lsp_ids()[0];
    cp.lsp(id).expect("eastbound LSP").path.clone()
}

/// A run of the grid under `control` at `shards` with `plan`, traffic
/// both ways from 1 ms to 15 ms. `plan_first` attaches the plan before
/// the control plane is enabled instead of after.
fn run(
    control: ControlMode,
    shards: usize,
    plan: FaultPlan,
    plan_first: bool,
    horizon_ns: u64,
) -> SimReport {
    let cp = grid();
    let kind = RouterKind::SoftwareFast {
        timing: SwTimingModel::default(),
        cache: true,
    };
    let mut sim = Simulation::build(&cp, kind, QueueDiscipline::Fifo { capacity: 32 }, 11);
    sim.set_shards(shards);
    let mut plan = Some(plan);
    if plan_first {
        sim.set_fault_plan(plan.take().expect("plan"));
    }
    match control {
        ControlMode::Centralized => {}
        ControlMode::Ldp => sim.enable_ldp(LdpConfig::default()),
        ControlMode::Sr => sim.enable_sr(SrConfig::default()),
    }
    if let Some(plan) = plan {
        sim.set_fault_plan(plan);
    }
    for (name, ingress, src, dst) in [
        ("east", 0, "10.1.0.5", "192.168.1.5"),
        ("west", 8, "192.168.1.9", "10.1.0.9"),
    ] {
        sim.add_flow(FlowSpec {
            name: name.into(),
            ingress,
            src_addr: parse_addr(src).unwrap(),
            dst_addr: parse_addr(dst).unwrap(),
            payload_bytes: 500,
            precedence: 0,
            pattern: TrafficPattern::Cbr {
                interval_ns: 200_000,
            },
            start_ns: 1_000_000,
            stop_ns: 15_000_000,
            police: None,
        });
    }
    sim.run(horizon_ns)
}

/// FNV-1a 64 over the report's JSON.
fn digest(report: &SimReport) -> u64 {
    let json = serde_json::to_string(report).expect("report serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the case at 1 and 4 shards, checks both against the pinned
/// (digest, FIB downloads) and returns the 1-shard report.
fn check(control: ControlMode, plan: impl Fn() -> FaultPlan, pin: (u64, u64)) -> SimReport {
    let mut first = None;
    for shards in [1, 4] {
        let report = run(control, shards, plan(), false, 30_000_000);
        assert_eq!(
            (
                format!("{:016x}", digest(&report)),
                report.engine.fib_downloads
            ),
            (format!("{:016x}", pin.0), pin.1),
            "(digest, FIB downloads) at {shards} shards"
        );
        first.get_or_insert(report);
    }
    first.expect("ran")
}

/// Under SR the grid's center crashes at 3 ms, and while it is down its
/// four links' detections at 4 ms and a cut of link 0-1 at 5 ms
/// (detected at 6 ms) recompile the source routes; the recompiles skip
/// the crashed node. It restarts at 8 ms and reprovisions at 9 ms, and
/// its links' hold-downs end at 13 ms, recompiling again. Link 0-1
/// returns at 14 ms and its hold-down ends at 19 ms, after the traffic:
/// that recompile is the last FIB change, stamped at its own instant
/// although no shard round follows it before a partition window opens
/// at 25 ms. 80 downloads.
#[test]
fn sr_recompiles_around_a_crashed_node_and_reprovisions_it() {
    let plan = || {
        let link = grid().topology().link_between(0, 1).unwrap();
        let mut plan = FaultPlan::default();
        plan.node_outage(4, 3_000_000, 8_000_000);
        plan.outage(link, 5_000_000, 14_000_000);
        plan.partition(link, 25_000_000, 26_000_000);
        plan
    };
    let report = check(ControlMode::Sr, plan, (0x56a6_3db9_429b_d1a0, 80));
    assert_eq!(report.faults.len(), 5);
    assert!(report.faults.iter().all(|r| r.mode == RecoveryMode::Sr));
    assert_eq!(report.control.last_fib_change_ns, 19_000_000);
}

/// Under centralized restoration a cut at 3 ms of the eastbound LSP's
/// second link, which the westbound LSP rides too, is detected at 4 ms.
/// Each LSP's re-signal at 5 ms downloads all nine routers, and so does
/// each broken LSP's husk teardown one drain grace later: 36 downloads.
#[test]
fn centralized_restoration_tears_its_husk_down_later() {
    let plan = || {
        let cp = grid();
        let path = east_path(&cp);
        let link = cp.topology().link_between(path[1], path[2]).unwrap();
        let mut plan = FaultPlan::default();
        plan.outage(link, 3_000_000, 8_000_000);
        plan
    };
    let report = check(ControlMode::Centralized, plan, (0xf092_ff93_bed1_bbc5, 36));
    assert_eq!(report.faults[0].restored_ns, Some(5_000_000));
}

/// Under centralized control a node on the eastbound path crashes at
/// 2.5 ms and restarts at 4 ms; its reprovision is due one detection
/// delay later, at 5 ms. The re-signal of the LSPs it broke lands at
/// 4.5 ms, inside that cold window, and its download of every live
/// router reaches the restarted node early. This pins that behaviour;
/// whether the controller should treat the node as down until it
/// reprovisions is still open. 56 downloads: the crash's wipe, the
/// reprovision, and six downloads of all nine routers by the re-signals
/// and teardowns.
#[test]
fn centralized_reroute_reaches_a_restarted_node_before_it_reprovisions() {
    let plan = || {
        let cp = grid();
        let mut plan = FaultPlan::default();
        plan.node_outage(east_path(&cp)[2], 2_500_000, 4_000_000);
        plan
    };
    let report = check(ControlMode::Centralized, plan, (0xb72d_62fc_ef6b_1091, 56));
    assert!(
        report
            .faults
            .iter()
            .any(|r| r.restored_ns == Some(4_500_000)),
        "a re-signal lands inside the cold window: {:?}",
        report.faults
    );
}

/// Attaching the fault plan before or after enabling LDP or SR gives the
/// same report, and every fault record names the enabled plane, whatever
/// the plan's own recovery mode says: here it asks for none, and both
/// planes detect the cut all the same.
#[test]
fn the_plan_and_the_plane_may_arrive_in_either_order() {
    let plan = || {
        let cp = grid();
        let mut plan = FaultPlan::new(RestorationPolicy {
            mode: RecoveryMode::None,
            ..RestorationPolicy::default()
        });
        let path: Vec<LinkId> = cp.topology().path_links(&east_path(&cp)).unwrap();
        plan.outage(path[1], 3_000_000, 8_000_000);
        plan
    };
    for (control, mode) in [
        (ControlMode::Ldp, RecoveryMode::Ldp),
        (ControlMode::Sr, RecoveryMode::Sr),
    ] {
        let after = run(control, 1, plan(), false, 30_000_000);
        let before = run(control, 1, plan(), true, 30_000_000);
        assert_eq!(
            serde_json::to_string(&before).unwrap(),
            serde_json::to_string(&after).unwrap(),
            "{control}: plan before and after the plane"
        );
        assert_eq!(after.control.mode, control);
        assert!(!after.faults.is_empty());
        assert!(after.faults.iter().all(|r| r.mode == mode), "{control}");
        assert!(after.faults.iter().all(|r| r.detected_ns.is_some()));
    }
}

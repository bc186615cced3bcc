//! System-level certification of the hash-FIB fast path: for the same
//! scenario, [`RouterKind::SoftwareFast`] (hash FIB + flow cache) must
//! serialize the *byte-identical* report that [`RouterKind::SoftwareLinear`]
//! does — cache on or off, at any shard count — including runs where the
//! forwarding state is rewritten mid-flight (fault-driven reroute,
//! LDP withdraw waves), which is exactly when a stale flow cache would
//! show up as diverging delivery counters.

use mpls_control::{ControlPlane, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_dataplane::ftn::Prefix;
use mpls_ldp::LdpConfig;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    ControlMode, FaultPlan, QueueDiscipline, RecoveryMode, RestorationPolicy, RouterKind,
    SimReport, Simulation, TelemetryConfig,
};
use mpls_packet::ipv4::parse_addr;
use mpls_router::SwTimingModel;

/// A `rows x cols` grid with LERs in the opposite corners, one LSP each
/// way, and a prefix behind each LER.
fn grid_plane(rows: u32, cols: u32) -> ControlPlane {
    let last = rows * cols - 1;
    let mut topo = Topology::new();
    for id in 0..=last {
        let role = if id == 0 || id == last {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("n{id}"));
    }
    let mut add = |a: u32, b: u32| {
        topo.add_link(LinkSpec {
            a,
            b,
            cost: 1 + ((a as u64 * 13 + b as u64 * 5) % 3) as u32,
            bandwidth_bps: 200_000_000,
            delay_ns: 20_000,
        });
    };
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                add(id, id + 1);
            }
            if r + 1 < rows {
                add(id, id + cols);
            }
        }
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

fn flows(start_ns: u64, stop_ns: u64, last: u32) -> Vec<FlowSpec> {
    vec![
        FlowSpec {
            name: "fwd".into(),
            ingress: 0,
            src_addr: parse_addr("10.1.0.5").unwrap(),
            dst_addr: parse_addr("192.168.1.5").unwrap(),
            payload_bytes: 400,
            precedence: 5,
            pattern: TrafficPattern::Cbr {
                interval_ns: 100_000,
            },
            start_ns,
            stop_ns,
            police: None,
        },
        FlowSpec {
            name: "rev".into(),
            ingress: last,
            src_addr: parse_addr("192.168.1.5").unwrap(),
            dst_addr: parse_addr("10.1.0.5").unwrap(),
            payload_bytes: 900,
            precedence: 0,
            pattern: TrafficPattern::Poisson {
                mean_interval_ns: 150_000,
            },
            start_ns,
            stop_ns,
            police: None,
        },
    ]
}

/// Every software lookup configuration under test: the linear baseline,
/// the hash FIB bare, and the hash FIB with the per-ingress flow cache.
fn variants() -> Vec<(&'static str, RouterKind)> {
    let timing = SwTimingModel::default();
    vec![
        ("linear", RouterKind::SoftwareLinear { timing }),
        (
            "hash/cache-off",
            RouterKind::SoftwareFast {
                timing,
                cache: false,
            },
        ),
        (
            "hash/cache-on",
            RouterKind::SoftwareFast {
                timing,
                cache: true,
            },
        ),
    ]
}

/// Mid-run link failure with timed restoration: the recovery path
/// retires the broken LSP and reprograms every router — the flow cache
/// must drop its bindings with the old forwarders or the fast path
/// would keep steering packets into the cut after the linear baseline
/// has rerouted, and the reports would diverge.
#[test]
fn fault_reroute_reports_are_byte_identical_across_lookup_paths() {
    let cp = grid_plane(3, 3);
    let cut = cp.topology().link_between(0, 1).expect("link 0-1");
    let run = |kind: RouterKind, shards: usize| -> (String, SimReport) {
        let mut sim = Simulation::build(&cp, kind, QueueDiscipline::Fifo { capacity: 32 }, 9);
        sim.set_shards(shards);
        let mut plan = FaultPlan::new(RestorationPolicy {
            detection_delay_ns: 300_000,
            resignal_delay_ns: 300_000,
            backoff_factor: 2,
            max_retries: 4,
            hold_down_ns: 1_000_000,
            mode: RecoveryMode::Restoration,
        });
        plan.link_down(4_000_000, cut);
        plan.link_up(12_000_000, cut);
        sim.set_fault_plan(plan);
        for f in flows(0, 20_000_000, 8) {
            sim.add_flow(f);
        }
        let report = sim
            .with_telemetry(TelemetryConfig {
                sample_interval_ns: 500_000,
                ..TelemetryConfig::default()
            })
            .run(40_000_000);
        let json = serde_json::to_string(&report).expect("report serializes");
        (json, report)
    };

    let (baseline, report) = run(variants()[0].1, 1);
    let s = report.flow("fwd").unwrap();
    assert!(s.delivered > 0, "reroute never restored service");
    assert!(
        report.faults[0].packets_lost > 0,
        "the fault never bit, so the stale-binding window was not exercised"
    );

    for (name, kind) in variants() {
        for shards in [1usize, 2, 4] {
            let (json, _) = run(kind, shards);
            assert_eq!(
                baseline, json,
                "{name} at {shards} shard(s) diverged from the linear baseline"
            );
        }
    }
}

/// In-band LDP withdraw wave: a permanent cut is detected by hold
/// expiry, labels are withdrawn and re-signaled hop by hop, and every
/// dirty router is reprogrammed. A flow cache that survived the
/// withdraw would forward on the revoked binding and split the
/// delivery counters between the paths.
#[test]
fn ldp_withdraw_invalidates_cached_flows_identically() {
    let cp = grid_plane(3, 3);
    let cut = cp.topology().link_between(0, 1).expect("link 0-1");
    let run = |kind: RouterKind, shards: usize| -> (String, SimReport) {
        let mut sim = Simulation::build(&cp, kind, QueueDiscipline::Fifo { capacity: 32 }, 7);
        sim.set_shards(shards);
        sim.enable_ldp(LdpConfig::default());
        let mut plan = FaultPlan::default();
        plan.link_down(20_000_000, cut);
        sim.set_fault_plan(plan);
        for f in flows(10_000_000, 60_000_000, 8) {
            sim.add_flow(f);
        }
        let report = sim.run(90_000_000);
        let json = serde_json::to_string(&report).expect("report serializes");
        (json, report)
    };

    let (baseline, report) = run(variants()[0].1, 1);
    assert_eq!(report.control.mode, ControlMode::Ldp);
    let s = report.flow("fwd").unwrap();
    assert!(s.delivered > 0, "withdraw wave never reconverged");
    assert!(
        s.link_dropped > 0,
        "no packets hit the stale binding before the withdraw"
    );

    for (name, kind) in variants() {
        for shards in [1usize, 2, 4] {
            let (json, _) = run(kind, shards);
            assert_eq!(
                baseline, json,
                "{name} at {shards} shard(s) diverged from the linear baseline"
            );
        }
    }
}

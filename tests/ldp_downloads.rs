//! When LDP forwarding state reaches the routers.
//!
//! The fabric marks a node dirty whenever a PDU changes its FIB-relevant
//! state; the engine downloads the node's configuration into its router
//! before anything other than the fabric reads or writes a router: a
//! shard round, a coordinator event that is not the protocol's own
//! (`LdpTick`, `LdpDeliver`), and the report fold. Each case below sits on
//! one edge of that rule, on a small grid whose traffic starts only after
//! the bring-up, so no shard round runs while the protocol converges and
//! every download made in that window is made at one of the edges. Each
//! pins, at 1 and 4 shards, the report digest of downloading after every
//! PDU and its own download count (the per-PDU count in its comment);
//! the debug build's download oracle checks every round start besides.

use mpls_control::{ControlPlane, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_dataplane::ftn::Prefix;
use mpls_ldp::LdpConfig;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{FaultPlan, QueueDiscipline, RouterKind, Simulation, TelemetryConfig};
use mpls_packet::ipv4::parse_addr;
use mpls_router::SwTimingModel;

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

/// Traffic starts well after the bring-up, which settles by 1.3 ms.
const TRAFFIC_NS: u64 = 10_000_000;

/// One LDP run of the grid at `shards`, with `plan` and, when
/// `sample_ns` is set, telemetry sampling at that interval. Returns the
/// report's digest (FNV-1a 64 over its JSON) and its FIB download count.
fn run(shards: usize, plan: FaultPlan, sample_ns: Option<u64>, horizon_ns: u64) -> (u64, u64) {
    let cp = grid();
    let kind = RouterKind::SoftwareFast {
        timing: SwTimingModel::default(),
        cache: true,
    };
    let mut sim = Simulation::build(&cp, kind, QueueDiscipline::Fifo { capacity: 32 }, 11);
    sim.enable_ldp(LdpConfig::default());
    sim.set_shards(shards);
    sim.set_fault_plan(plan);
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
            start_ns: TRAFFIC_NS,
            stop_ns: TRAFFIC_NS + 10_000_000,
            police: None,
        });
    }
    let sim = match sample_ns {
        Some(sample_interval_ns) => sim.with_telemetry(TelemetryConfig {
            sample_interval_ns,
            ..TelemetryConfig::default()
        }),
        None => sim,
    };
    let report = sim.run(horizon_ns);
    let json = serde_json::to_string(&report).expect("report serializes");
    let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (digest, report.engine.fib_downloads)
}

/// Runs the case at 1 and 4 shards and checks both against the pins.
fn check(plan: impl Fn() -> FaultPlan, sample_ns: Option<u64>, horizon_ns: u64, pin: (u64, u64)) {
    for shards in [1, 4] {
        let (digest, downloads) = run(shards, plan(), sample_ns, horizon_ns);
        assert_eq!(
            (format!("{digest:016x}"), downloads),
            (format!("{:016x}", pin.0), pin.1),
            "(digest, FIB downloads) at {shards} shards"
        );
    }
}

/// The grid's center crashes at 2.5 ms while the bring-up has left every
/// node's download pending, and restarts at 5 ms while the crash's own
/// wipe is pending; it relearns before the traffic starts. The crash
/// downloads all nine nodes, then wipes the center, the restart skips the
/// pending wipe of the still-crashed node, and the first round downloads
/// the three nodes the relearning changed: 13 downloads, against 26 after
/// every PDU.
#[test]
fn a_node_crashes_and_restarts_with_its_download_pending() {
    let plan = || {
        let mut plan = FaultPlan::default();
        plan.node_outage(4, 2_500_000, 5_000_000);
        plan
    };
    check(plan, None, 30_000_000, (0xb4fb_caec_ea14_58a8, 13));
}

/// Telemetry samples every 50 µs through the bring-up, so samples fall
/// between mappings that dirty the same node: nodes 5 and 7 are
/// downloaded at the 1.1 ms sample, dirtied again and downloaded at the
/// 1.2 ms one. 11 downloads, against 16 after every PDU.
#[test]
fn a_telemetry_sample_falls_between_two_pdus_that_dirty_one_node() {
    check(
        FaultPlan::default,
        Some(50_000),
        30_000_000,
        (0x497d_a31c_fbc3_dbb8, 11),
    );
}

/// The horizon falls after the bring-up but before the traffic, so no
/// shard round has run: all nine nodes' downloads are still pending when
/// the report folds, which makes them. 9 downloads, against 16 after
/// every PDU.
#[test]
fn the_horizon_ends_with_downloads_pending() {
    check(
        FaultPlan::default,
        None,
        2_500_000,
        (0x7934_5afa_4405_a84e, 9),
    );
}

//! Cross-shard identity under heterogeneous delays: for any random
//! topology, delay assignment, traffic mix, fault schedule and control
//! plane, the serialized report is byte-identical across shard counts
//! {1, 2, 4, 8} — the epoch barrier reorders wall-clock work, never
//! simulated history. Per-shard event counts must also sum to the
//! sequential total at every shard count: scheduling moves events
//! between threads, it never creates or destroys them.

use mpls_control::{ControlPlane, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_ldp::LdpConfig;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    EngineStats, FaultPlan, QueueDiscipline, RecoveryMode, RestorationPolicy, RouterKind,
    Simulation,
};
use mpls_packet::ipv4::parse_addr;
use proptest::prelude::*;

/// A `rows x cols` grid with LERs in opposite corners and *strongly*
/// heterogeneous link delays: every link gets salted jitter, and links
/// whose hash clears `stretch_mask` are stretched by `stretch`x. Wide
/// delay spreads make the partitioner's cut, and with it the epoch
/// lookahead, differ from run to run, so this is the regime where a
/// bound bug would actually misorder events.
fn hetero_grid(
    rows: u32,
    cols: u32,
    base_delay_us: u64,
    delay_salt: u64,
    stretch: u64,
) -> ControlPlane {
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
        let h = a as u64 * 31 + b as u64 * 7 + delay_salt;
        let mut delay_us = base_delay_us + h % 40;
        if h.is_multiple_of(3) {
            delay_us *= stretch;
        }
        topo.add_link(LinkSpec {
            a,
            b,
            cost: 1,
            bandwidth_bps: 200_000_000,
            delay_ns: delay_us * 1_000,
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

fn run_once(
    cp: &ControlPlane,
    flows: &[FlowSpec],
    plan: Option<&FaultPlan>,
    seed: u64,
    shards: usize,
    ldp: bool,
    horizon_ns: u64,
) -> (String, EngineStats) {
    let mut sim = Simulation::build(
        cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 32 },
        seed,
    );
    sim.set_shards(shards);
    if ldp {
        sim.enable_ldp(LdpConfig::default());
    }
    if let Some(plan) = plan {
        sim.set_fault_plan(plan.clone());
    }
    for f in flows {
        sim.add_flow(f.clone());
    }
    let report = sim.run(horizon_ns);
    let json = serde_json::to_string(&report).expect("report serializes");
    (json, report.engine)
}

/// Regression: a shard with no direct channel from any busy shard is
/// still reached through relays — each hop receives at one round
/// boundary and forwards at the next — so the round bound must hold
/// along whole channel paths, not just across direct edges. A bound
/// bug is only visible in order-sensitive state, so this scenario is a
/// miniature of the EXT-10 bench that once exposed a non-transitive
/// bound: four corner flows on a grid whose corner shards are mutually
/// non-adjacent, saturating every ingress FIFO, so each corner shard
/// drains its own backlog while cross-traffic is still in flight
/// through the middle. Running a corner's drain ahead of arrivals
/// routed through idle relays drops a different set of packets.
#[test]
fn congested_idle_relay_grid_is_shard_invariant() {
    const SIDE: u32 = 8;
    const CORNERS: [u32; 4] = [0, SIDE - 1, (SIDE - 1) * SIDE, SIDE * SIDE - 1];
    let mut topo = Topology::new();
    for id in 0..SIDE * SIDE {
        let role = if CORNERS.contains(&id) {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("n{id}"));
    }
    for r in 0..SIDE {
        for c in 0..SIDE {
            let id = r * SIDE + c;
            for (neighbor, vertical) in [
                (c + 1 < SIDE).then(|| (id + 1, false)),
                (r + 1 < SIDE).then(|| (id + SIDE, true)),
            ]
            .into_iter()
            .flatten()
            {
                let mut delay_us = 5 + (id as u64 * 31 + neighbor as u64 * 7) % 20;
                if vertical && (r == 2 || r == 5) {
                    delay_us *= 8;
                }
                topo.add_link(LinkSpec {
                    a: id,
                    b: neighbor,
                    cost: 1,
                    bandwidth_bps: 1_000_000_000,
                    delay_ns: delay_us * 1_000,
                });
            }
        }
    }
    let mut cp = ControlPlane::new(topo);
    let corner_prefix =
        |i: usize| Prefix::new(parse_addr(&format!("192.168.{}.0", i + 1)).unwrap(), 24);
    for (i, &corner) in CORNERS.iter().enumerate() {
        cp.attach_prefix(corner, corner_prefix(i));
    }
    for (i, &corner) in CORNERS.iter().enumerate() {
        cp.establish_lsp(LspRequest::best_effort(
            corner,
            CORNERS[3 - i],
            corner_prefix(3 - i),
        ))
        .expect("corner LSP signals");
    }
    let flows: Vec<FlowSpec> = CORNERS
        .iter()
        .enumerate()
        .map(|(i, &corner)| FlowSpec {
            name: format!("corner-{i}"),
            ingress: corner,
            src_addr: parse_addr(&format!("10.0.{i}.1")).unwrap(),
            dst_addr: parse_addr(&format!("192.168.{}.10", (3 - i) + 1)).unwrap(),
            payload_bytes: 500,
            precedence: 0,
            pattern: TrafficPattern::Poisson {
                mean_interval_ns: 8_000,
            },
            start_ns: 0,
            stop_ns: 10_000_000,
            police: None,
        })
        .collect();

    let (baseline, _) = run_once(&cp, &flows, None, 7, 1, false, 30_000_000);
    assert!(
        !baseline.contains("\"queue_dropped\":0"),
        "scenario must saturate the queues for order sensitivity"
    );
    for shards in [4usize, 8] {
        let (json, stats) = run_once(&cp, &flows, None, 7, shards, false, 30_000_000);
        assert_eq!(stats.shards, shards);
        assert_eq!(
            baseline, json,
            "{shards} shards diverged on the congested relay path"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn reports_are_byte_identical_at_1_2_4_8_shards(
        seed in 0u64..10_000,
        rows in 2u32..4,
        cols in 2u32..5,
        base_delay_us in 5u64..40,
        delay_salt in 0u64..1000,
        stretch in 4u64..12,
        interval_a_us in 20u64..200,
        interval_b_us in 20u64..200,
        poisson: bool,
        with_fault: bool,
        loss_pct in 0u32..10,
        ldp: bool,
    ) {
        let cp = hetero_grid(rows, cols, base_delay_us, delay_salt, stretch);
        let last = rows * cols - 1;
        // LDP runs need the control plane converged before traffic is
        // meaningful and take longer to settle, so give them more time.
        let (start_ns, stop_ns, horizon_ns) = if ldp {
            (10_000_000, 16_000_000, 40_000_000)
        } else {
            (0, 8_000_000, 30_000_000)
        };
        let pattern = |interval_ns| if poisson {
            TrafficPattern::Poisson { mean_interval_ns: interval_ns }
        } else {
            TrafficPattern::Cbr { interval_ns }
        };
        let flows = vec![
            FlowSpec {
                name: "fwd".into(),
                ingress: 0,
                src_addr: parse_addr("10.1.0.5").unwrap(),
                dst_addr: parse_addr("192.168.1.5").unwrap(),
                payload_bytes: 400,
                precedence: 5,
                pattern: pattern(interval_a_us * 1_000),
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
                pattern: pattern(interval_b_us * 1_000),
                start_ns: start_ns + 500_000,
                stop_ns,
                police: None,
            },
        ];
        let plan = (with_fault || loss_pct > 0).then(|| {
            let mut plan = FaultPlan::new(RestorationPolicy {
                detection_delay_ns: 300_000,
                resignal_delay_ns: 300_000,
                backoff_factor: 2,
                max_retries: 4,
                hold_down_ns: 1_000_000,
                mode: RecoveryMode::Restoration,
            });
            let row_link = cp.topology().link_between(0, 1).expect("link 0-1");
            if with_fault {
                plan.link_down(start_ns + 2_000_000, row_link);
                plan.link_up(start_ns + 5_000_000, row_link);
            }
            if loss_pct > 0 {
                let col_link = cp.topology().link_between(0, cols).expect("link 0-cols");
                plan.random_loss(col_link, loss_pct as f64 / 100.0);
            }
            plan
        });

        let (baseline, seq) = run_once(&cp, &flows, plan.as_ref(), seed, 1, ldp, horizon_ns);
        prop_assert_eq!(seq.shards, 1);
        let seq_total = seq.total_events();
        prop_assert!(seq_total > 0, "scenario generated no events");

        for shards in [2usize, 4, 8] {
            let (json, stats) =
                run_once(&cp, &flows, plan.as_ref(), seed, shards, ldp, horizon_ns);
            prop_assert_eq!(
                &baseline, &json,
                "report diverged at {} shards (effective {})", shards, stats.shards
            );
            prop_assert_eq!(
                stats.total_events(), seq_total,
                "event count changed at {} shards", shards
            );
            prop_assert_eq!(stats.shard_events.len(), stats.shards);
            prop_assert_eq!(
                stats.global_events + stats.shard_events.iter().sum::<u64>(),
                seq_total,
                "per-shard counts do not sum to the sequential total at {} shards",
                shards
            );
        }
    }
}

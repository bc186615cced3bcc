//! Determinism of the sharded engine across random scenarios: for any
//! topology, traffic mix, queue discipline and fault schedule, the
//! serialized report is byte-identical at 1, 2 and 4 shards, and the
//! per-shard event counts always sum to the sequential total —
//! partitioning moves work between threads, it never creates or
//! destroys events.

use mpls_control::{ControlPlane, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    EngineStats, FaultPlan, QueueDiscipline, RecoveryMode, RestorationPolicy, RouterKind,
    Simulation, TelemetryConfig,
};
use mpls_packet::ipv4::parse_addr;
use proptest::prelude::*;

/// A `rows x cols` grid with LERs in the two opposite corners and a
/// per-link delay spread derived from `delay_salt`, so shard cuts see
/// varying lookaheads.
fn grid_plane(rows: u32, cols: u32, base_delay_us: u64, delay_salt: u64) -> ControlPlane {
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
        let jitter = (a as u64 * 31 + b as u64 * 7 + delay_salt) % 40;
        topo.add_link(LinkSpec {
            a,
            b,
            cost: 1,
            bandwidth_bps: 200_000_000,
            delay_ns: (base_delay_us + jitter) * 1_000,
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

/// A queue small enough to overflow under the generated traffic, under
/// each discipline: FIFO tail drop, CoS priority, or RED.
fn small_queue(pick: u8) -> QueueDiscipline {
    match pick {
        0 => QueueDiscipline::Fifo { capacity: 4 },
        1 => QueueDiscipline::CosPriority { per_class: 2 },
        _ => QueueDiscipline::Red {
            capacity: 8,
            min_th: 2,
            max_th: 6,
            max_p_percent: 50,
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn run_once(
    cp: &ControlPlane,
    flows: &[FlowSpec],
    plan: Option<&FaultPlan>,
    queue: QueueDiscipline,
    seed: u64,
    shards: usize,
    telemetry: bool,
    horizon_ns: u64,
) -> (String, EngineStats) {
    let mut sim = Simulation::build(
        cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        queue,
        seed,
    );
    sim.set_shards(shards);
    if let Some(plan) = plan {
        sim.set_fault_plan(plan.clone());
    }
    for f in flows {
        sim.add_flow(f.clone());
    }
    let report = if telemetry {
        sim.with_telemetry(TelemetryConfig {
            sample_interval_ns: 200_000,
            ..TelemetryConfig::default()
        })
        .run(horizon_ns)
    } else {
        sim.run(horizon_ns)
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    (json, report.engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_scenario_is_byte_identical_at_any_shard_count(
        seed in 0u64..10_000,
        rows in 2u32..4,
        cols in 2u32..5,
        base_delay_us in 5u64..40,
        delay_salt in 0u64..1000,
        interval_a_us in 20u64..200,
        interval_b_us in 20u64..200,
        poisson: bool,
        with_fault: bool,
        loss_pct in 0u32..10,
        telemetry: bool,
        queue in 0u8..3,
    ) {
        let queue = small_queue(queue);
        let cp = grid_plane(rows, cols, base_delay_us, delay_salt);
        let last = rows * cols - 1;
        let stop_ns = 8_000_000;
        let horizon_ns = 30_000_000;
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
                start_ns: 0,
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
                start_ns: 500_000,
                stop_ns,
                police: None,
            },
        ];
        // Fault the first-row link 0-1 (always present) mid-run; lose a
        // few percent of packets on the first column link if asked.
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
                plan.link_down(2_000_000, row_link);
                plan.link_up(5_000_000, row_link);
            }
            if loss_pct > 0 {
                let col_link = cp.topology().link_between(0, cols).expect("link 0-cols");
                plan.random_loss(col_link, loss_pct as f64 / 100.0);
            }
            plan
        });

        let (baseline, seq) = run_once(
            &cp, &flows, plan.as_ref(), queue, seed, 1, telemetry, horizon_ns,
        );
        prop_assert_eq!(seq.shards, 1);
        let seq_total = seq.total_events();
        prop_assert!(seq_total > 0, "scenario generated no events");

        for shards in [2usize, 4] {
            let (json, engine) = run_once(
                &cp, &flows, plan.as_ref(), queue, seed, shards, telemetry, horizon_ns,
            );
            prop_assert_eq!(
                &baseline, &json,
                "report diverged at {} shards (effective {})", shards, engine.shards
            );
            prop_assert_eq!(
                engine.total_events(), seq_total,
                "event count changed at {} shards", shards
            );
            prop_assert_eq!(engine.shard_events.len(), engine.shards);
            prop_assert_eq!(
                engine.global_events + engine.shard_events.iter().sum::<u64>(),
                seq_total,
                "per-shard counts do not sum to the sequential total"
            );
        }
    }
}

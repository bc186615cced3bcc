//! Closed-loop traffic end to end: congestion windows react to load,
//! transfers complete, conservation holds with retransmissions
//! accounted, and — the hard part — the report is byte-identical across
//! shard counts {1, 2, 4}, random topologies and fault schedules
//! included.

use mpls_control::{ControlPlane, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_net::traffic::{ClosedLoopSpec, FlowSpec, TrafficPattern};
use mpls_net::{
    FaultPlan, QueueDiscipline, RecoveryMode, RestorationPolicy, RouterKind, SimReport, Simulation,
    SubscriberModel,
};
use mpls_packet::ipv4::parse_addr;
use proptest::prelude::*;

/// A `rows x cols` grid with LERs in opposite corners and per-link
/// delay spread, so shard cuts see varying lookaheads.
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

fn closed_loop_flow(name: &str, ingress: u32, dst: &str, cl: ClosedLoopSpec) -> FlowSpec {
    FlowSpec {
        name: name.into(),
        ingress,
        src_addr: parse_addr("10.1.0.5").unwrap(),
        dst_addr: parse_addr(dst).unwrap(),
        payload_bytes: 600,
        precedence: 3,
        pattern: TrafficPattern::ClosedLoop(cl),
        start_ns: 0,
        stop_ns: 8_000_000,
        police: None,
    }
}

fn run_once(
    cp: &ControlPlane,
    flows: &[FlowSpec],
    plan: Option<&FaultPlan>,
    seed: u64,
    shards: usize,
    horizon_ns: u64,
) -> SimReport {
    let mut sim = Simulation::build(
        cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 32 },
        seed,
    );
    sim.set_shards(shards);
    if let Some(plan) = plan {
        sim.set_fault_plan(plan.clone());
    }
    for f in flows {
        sim.add_flow(f.clone());
    }
    sim.run(horizon_ns)
}

/// Per-flow conservation with retransmissions: every emission —
/// original or re-send — is independently tracked, so
/// `sent = delivered + all per-cause discards` holds exactly, and the
/// retransmit count is bounded by emissions.
fn assert_conservation(report: &SimReport) {
    for (spec, st) in &report.flows {
        let drops = st.router_dropped
            + st.queue_dropped
            + st.policer_dropped
            + st.link_dropped
            + st.loss_dropped;
        assert_eq!(
            st.sent,
            st.delivered + drops,
            "conservation broke for {}: sent {} delivered {} drops {}",
            spec.name,
            st.sent,
            st.delivered,
            drops
        );
        assert!(st.retransmits <= st.sent);
    }
}

#[test]
fn transfers_complete_and_windows_open() {
    let cp = grid_plane(2, 3, 10, 0);
    let cl = ClosedLoopSpec {
        mean_arrival_ns: 400_000,
        ..ClosedLoopSpec::default()
    };
    let report = run_once(
        &cp,
        &[closed_loop_flow("cl", 0, "192.168.1.5", cl)],
        None,
        7,
        1,
        30_000_000,
    );
    let (_, st) = &report.flows[0];
    assert!(st.transfers_started > 0, "arrival process never fired");
    assert!(
        st.transfers_completed > 0,
        "no transfer completed: sent {} delivered {}",
        st.sent,
        st.delivered
    );
    assert!(st.sent > 0 && st.delivered > 0);
    // Slow start opened the window past its initial 1.
    assert!(
        st.cwnd_peak > 1,
        "window never opened: peak {}",
        st.cwnd_peak
    );
    assert!(st.fct_hist.count() == st.transfers_completed);
    assert!(st.mean_fct_ns() > 0.0);
    assert_conservation(&report);
}

#[test]
fn cwnd_reacts_to_a_fault_window_and_recovers() {
    let cp = grid_plane(2, 3, 10, 0);
    // Heavy aggregate so transfers are in flight when the link dies.
    let cl = ClosedLoopSpec {
        mean_arrival_ns: 150_000,
        size_min_pkts: 16,
        size_max_pkts: 128,
        rto_ns: 2_000_000,
        ..ClosedLoopSpec::default()
    };
    let flow = closed_loop_flow("cl", 0, "192.168.1.5", cl);
    let mut plan = FaultPlan::new(RestorationPolicy {
        detection_delay_ns: 300_000,
        resignal_delay_ns: 300_000,
        backoff_factor: 2,
        max_retries: 4,
        hold_down_ns: 1_000_000,
        mode: RecoveryMode::Restoration,
    });
    let link = cp.topology().link_between(0, 1).expect("link 0-1");
    plan.link_down(2_000_000, link);
    plan.link_up(5_000_000, link);

    let faulted = run_once(
        &cp,
        std::slice::from_ref(&flow),
        Some(&plan),
        7,
        1,
        40_000_000,
    );
    let clean = run_once(&cp, &[flow], None, 7, 1, 40_000_000);
    let (_, f) = &faulted.flows[0];
    let (_, c) = &clean.flows[0];
    // Decrease on loss: the outage strands in-flight packets, the RTO
    // presumes them lost, re-queues them and collapses the window — a
    // recovery the clean run never needs.
    assert!(f.link_dropped > 0, "outage never claimed a packet");
    assert!(f.retransmits > 0, "outage with in-flight data but no RTO");
    assert_eq!(c.retransmits, 0, "clean run should never time out");
    assert!(f.cwnd_cuts > 0, "loss never cut the window");
    // Recovery after restoration: transfers keep completing after the
    // link returns, and the window re-opens past its collapsed 1.
    assert!(f.transfers_completed > 0);
    assert!(f.cwnd_peak > 1);
    assert!(
        f.last_delivery_ns > 5_000_000,
        "no deliveries after restoration (last at {})",
        f.last_delivery_ns
    );
    assert_conservation(&faulted);
    assert_conservation(&clean);
}

#[test]
fn ecn_marks_halve_the_window_under_congestion() {
    let cp = grid_plane(2, 3, 10, 0);
    // A tiny mark threshold plus elephant transfers: slow start must
    // overrun the queue and take ECN cuts well before any loss.
    let cl = ClosedLoopSpec {
        mean_arrival_ns: 300_000,
        size_min_pkts: 64,
        size_max_pkts: 512,
        ecn_threshold: 2,
        pacing_ns: 500,
        ..ClosedLoopSpec::default()
    };
    let report = run_once(
        &cp,
        &[closed_loop_flow("cl", 0, "192.168.1.5", cl)],
        None,
        11,
        1,
        40_000_000,
    );
    let (_, st) = &report.flows[0];
    assert!(st.ecn_marks > 0, "queue never crossed the mark threshold");
    assert!(
        st.cwnd_cuts > 0,
        "marks were echoed but never cut the window"
    );
    assert_conservation(&report);
}

#[test]
fn subscriber_model_runs_all_classes() {
    let cp = grid_plane(2, 3, 10, 0);
    let model = SubscriberModel {
        name: "metro".into(),
        subscribers: 2000,
        mean_think_ns: 1_000_000_000,
        base: ClosedLoopSpec {
            diurnal_period_ns: 10_000_000,
            diurnal_trough_pct: 30,
            flash_start_ns: 4_000_000,
            flash_duration_ns: 2_000_000,
            flash_multiplier_pct: 400,
            ..ClosedLoopSpec::default()
        },
        classes: mpls_net::SlaClass::residential_mix(),
    };
    let flows = model.flows(
        0,
        parse_addr("10.1.0.9").unwrap(),
        parse_addr("192.168.1.9").unwrap(),
        0,
        8_000_000,
    );
    assert_eq!(flows.len(), 3);
    let report = run_once(&cp, &flows, None, 3, 1, 30_000_000);
    assert_conservation(&report);
    let started: u64 = report.flows.iter().map(|(_, s)| s.transfers_started).sum();
    assert!(started > 0, "population generated no transfers");
    // Every class fired (population shares are all non-zero).
    for (spec, st) in &report.flows {
        assert!(
            st.transfers_started > 0,
            "class {} never started a transfer",
            spec.name
        );
    }
}

/// Interval values at the edges the samplers must clamp: zero (would
/// stall or divide by zero), one, an ordinary value, and near-`u64::MAX`
/// sums (would overflow un-saturating arithmetic).
fn degenerate_ns() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1),
        Just(777),
        Just(u64::MAX / 2),
        Just(u64::MAX),
    ]
}

/// Every pattern kind with degenerate knobs plugged in.
fn degenerate_pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        degenerate_ns().prop_map(|interval_ns| TrafficPattern::Cbr { interval_ns }),
        degenerate_ns().prop_map(|mean_interval_ns| TrafficPattern::Poisson { mean_interval_ns }),
        (degenerate_ns(), degenerate_ns(), degenerate_ns()).prop_map(
            |(on_ns, off_ns, interval_ns)| {
                TrafficPattern::OnOff {
                    on_ns,
                    off_ns,
                    interval_ns,
                }
            }
        ),
        (degenerate_ns(), degenerate_ns(), degenerate_ns()).prop_map(
            |(mean_arrival_ns, pacing_ns, rto_ns)| {
                TrafficPattern::ClosedLoop(ClosedLoopSpec {
                    mean_arrival_ns,
                    pacing_ns,
                    rto_ns,
                    size_min_pkts: 0,
                    size_max_pkts: 3,
                    ecn_threshold: 1,
                    ..ClosedLoopSpec::default()
                })
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Degenerate intervals — zeros, ones, near-`u64::MAX` — must not
    /// panic, wrap, stall, or (the subtle failure) drift: clamping has
    /// to happen in the sampler, identically on every shard, so the
    /// report stays byte-identical across shards {1, 4}. The flows stop
    /// after 20 µs because a clamped zero interval emits every
    /// nanosecond.
    #[test]
    fn degenerate_intervals_are_shard_invariant(
        seed in 0u64..10_000,
        fwd in degenerate_pattern(),
        rev in degenerate_pattern(),
    ) {
        let cp = grid_plane(2, 2, 5, 0);
        let mk = |name: &str, ingress: u32, src: &str, dst: &str, pattern: &TrafficPattern| FlowSpec {
            name: name.into(),
            ingress,
            src_addr: parse_addr(src).unwrap(),
            dst_addr: parse_addr(dst).unwrap(),
            payload_bytes: 200,
            precedence: 0,
            pattern: *pattern,
            start_ns: 0,
            stop_ns: 20_000,
            police: None,
        };
        let flows = vec![
            mk("fwd", 0, "10.1.0.5", "192.168.1.5", &fwd),
            mk("rev", 3, "192.168.1.5", "10.1.0.5", &rev),
        ];
        let baseline = run_once(&cp, &flows, None, seed, 1, 2_000_000);
        assert_conservation(&baseline);
        let baseline_json = serde_json::to_string(&baseline).expect("serializes");
        let report = run_once(&cp, &flows, None, seed, 4, 2_000_000);
        let json = serde_json::to_string(&report).expect("serializes");
        prop_assert_eq!(
            &baseline_json, &json,
            "degenerate intervals diverged at 4 shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The determinism gauntlet: random topology × closed-loop knobs ×
    /// optional fault, byte-identical across shards {1,2,4}, conservation
    /// holding everywhere.
    #[test]
    fn closed_loop_is_byte_identical_across_shards_and_engines(
        seed in 0u64..10_000,
        rows in 2u32..4,
        cols in 2u32..5,
        base_delay_us in 5u64..40,
        delay_salt in 0u64..1000,
        mean_arrival_us in 150u64..600,
        max_cwnd in 4u64..48,
        ecn_threshold in 0u32..12,
        rto_us in 800u64..4000,
        with_fault: bool,
        diurnal: bool,
        flash: bool,
    ) {
        let cp = grid_plane(rows, cols, base_delay_us, delay_salt);
        let last = rows * cols - 1;
        let cl = ClosedLoopSpec {
            mean_arrival_ns: mean_arrival_us * 1_000,
            max_cwnd,
            ecn_threshold,
            rto_ns: rto_us * 1_000,
            diurnal_period_ns: if diurnal { 4_000_000 } else { 0 },
            diurnal_trough_pct: 25,
            flash_start_ns: 2_000_000,
            flash_duration_ns: if flash { 2_000_000 } else { 0 },
            flash_multiplier_pct: 300,
            ..ClosedLoopSpec::default()
        };
        // Closed-loop forward, open-loop reverse: acks share shards with
        // ordinary cross-traffic.
        let flows = vec![
            closed_loop_flow("cl-fwd", 0, "192.168.1.5", cl),
            FlowSpec {
                name: "rev".into(),
                ingress: last,
                src_addr: parse_addr("192.168.1.5").unwrap(),
                dst_addr: parse_addr("10.1.0.5").unwrap(),
                payload_bytes: 900,
                precedence: 0,
                pattern: TrafficPattern::Poisson { mean_interval_ns: 90_000 },
                start_ns: 500_000,
                stop_ns: 8_000_000,
                police: None,
            },
        ];
        let plan = with_fault.then(|| {
            let mut plan = FaultPlan::new(RestorationPolicy {
                detection_delay_ns: 300_000,
                resignal_delay_ns: 300_000,
                backoff_factor: 2,
                max_retries: 4,
                hold_down_ns: 1_000_000,
                mode: RecoveryMode::Restoration,
            });
            let link = cp.topology().link_between(0, 1).expect("link 0-1");
            plan.link_down(2_000_000, link);
            plan.link_up(5_000_000, link);
            plan
        });
        let horizon_ns = 30_000_000;

        let baseline = run_once(&cp, &flows, plan.as_ref(), seed, 1, horizon_ns);
        assert_conservation(&baseline);
        let (_, cl_stats) = &baseline.flows[0];
        prop_assert!(cl_stats.sent > 0, "closed-loop flow never emitted");
        let baseline_json = serde_json::to_string(&baseline).expect("serializes");

        for shards in [2usize, 4] {
            let report = run_once(&cp, &flows, plan.as_ref(), seed, shards, horizon_ns);
            let json = serde_json::to_string(&report).expect("serializes");
            prop_assert_eq!(
                &baseline_json, &json,
                "report diverged at {} shards", shards
            );
        }
    }
}

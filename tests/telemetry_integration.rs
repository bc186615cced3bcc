//! Telemetry integration: on a known congested scenario, every instrument
//! the registry scrapes must reconcile with the simulator's own
//! end-of-run aggregates — queue-depth series against channel limits,
//! per-link counters against `LinkUsage`, per-flow counters and latency
//! histograms against `FlowStats`, and the exporters against both.
//!
//! The net crate's unit tests pin the plumbing; this test pins the
//! *accounting identity*: telemetry is a second, independent view of the
//! same run, so any divergence means an instrument lies.

use mpls_control::{ControlPlane, LspRequest, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_net::policer::PolicerSpec;
use mpls_net::traffic::{ClosedLoopSpec, FlowSpec, TrafficPattern};
use mpls_net::{
    telemetry_to_csv, telemetry_to_json, QueueDiscipline, RouterKind, SimReport, Simulation,
    TelemetryConfig,
};
use mpls_packet::ipv4::parse_addr;

const RUN_NS: u64 = 20_000_000; // 20 ms of traffic
const QUEUE_CAPACITY: usize = 8;

fn flow(name: &str, payload: usize, interval_ns: u64, police: Option<PolicerSpec>) -> FlowSpec {
    FlowSpec {
        name: name.into(),
        ingress: 0,
        src_addr: parse_addr("10.0.0.1").unwrap(),
        dst_addr: parse_addr("192.168.1.5").unwrap(),
        payload_bytes: payload,
        precedence: 0,
        pattern: TrafficPattern::Cbr { interval_ns },
        start_ns: 0,
        stop_ns: RUN_NS,
        police,
    }
}

/// A probe, an oversubscribing bulk flow (1458 B every 10 µs ≈ 1.2 Gb/s of
/// wire bytes onto a 1 Gb/s first hop: the 8-deep queue must overflow),
/// and a hard-policed flow, so drops of every accountable kind occur.
fn run_scenario() -> SimReport {
    let mut cp = ControlPlane::new(Topology::figure1_example());
    cp.establish_lsp(LspRequest::best_effort(
        0,
        1,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .unwrap();
    let mut sim = Simulation::build(
        &cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo {
            capacity: QUEUE_CAPACITY,
        },
        7,
    );
    sim.add_flow(flow("probe", 256, 100_000, None));
    sim.add_flow(flow("bulk", 1458, 10_000, None));
    sim.add_flow(flow(
        "policed",
        512,
        50_000,
        Some(PolicerSpec {
            rate_bps: 1_000_000,
            burst_bytes: 600,
        }),
    ));
    sim.with_telemetry(TelemetryConfig {
        sample_interval_ns: 50_000,
        ..TelemetryConfig::default()
    })
    .run(RUN_NS + 500_000_000)
}

#[test]
fn telemetry_reconciles_with_simulation_aggregates() {
    let report = run_scenario();
    let tel = report.telemetry.as_ref().expect("telemetry enabled");

    // --- queue-depth series against the channel's hard limits ----------
    let depth = tel
        .series("link.0->2.queue_depth")
        .expect("first hop sampled");
    assert!(!depth.points.is_empty());
    let peak = depth.points.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    assert!(
        peak >= 2.0,
        "oversubscription must build a visible queue, peak {peak}"
    );
    // A channel holds at most `capacity` queued packets plus one on the
    // wire, and sample times never pass the end of the run.
    for &(t, v) in &depth.points {
        assert!(v >= 0.0 && v <= (QUEUE_CAPACITY + 1) as f64, "depth {v}");
        assert!(t <= report.elapsed_ns);
    }
    assert!(
        depth.points.windows(2).all(|w| w[0].0 < w[1].0),
        "sample timestamps strictly increase"
    );
    // Utilization is a fraction of wall time; the congested first hop
    // should be near saturation while traffic flows.
    let util = tel.series("link.0->2.utilization").unwrap();
    assert!(util.points.iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));
    let util_peak = util.points.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    assert!(util_peak > 0.9, "congested hop idle? peak {util_peak}");

    // --- per-link counters against LinkUsage ---------------------------
    let mut counted_queue_drops = 0.0;
    for link in &report.links {
        let prefix = format!("link.{}->{}", link.from, link.to);
        assert_eq!(
            tel.counter(&format!("{prefix}.transmitted")),
            Some(link.transmitted as f64),
            "{prefix}"
        );
        assert_eq!(
            tel.counter(&format!("{prefix}.queue_drops")),
            Some(link.drops as f64),
            "{prefix}"
        );
        counted_queue_drops += link.drops as f64;
        let gauge = tel
            .gauge(&format!("{prefix}.mean_utilization"))
            .expect("utilization gauge");
        assert!(
            (gauge - link.utilization).abs() < 1e-9,
            "{prefix}: gauge {gauge} vs usage {}",
            link.utilization
        );
    }
    assert_eq!(counted_queue_drops, report.queue_drops as f64);
    assert!(report.queue_drops > 0, "scenario must exercise tail drops");

    // --- per-flow counters and histograms against FlowStats ------------
    for (spec, stats) in &report.flows {
        let name = &spec.name;
        assert_eq!(
            tel.counter(&format!("flow.{name}.sent")),
            Some(stats.sent as f64)
        );
        assert_eq!(
            tel.counter(&format!("flow.{name}.delivered")),
            Some(stats.delivered as f64)
        );
        let delay = tel
            .histogram(&format!("lsp.{name}.delay_ns"))
            .expect("delay histogram");
        assert_eq!(delay.total, stats.delivered);
        assert_eq!(delay.sum, stats.delay_sum_ns);
        if stats.delivered > 0 {
            assert_eq!(delay.min, Some(stats.delay_min_ns));
            assert_eq!(delay.max, Some(stats.delay_max_ns));
            let jitter = tel.histogram(&format!("lsp.{name}.jitter_ns")).unwrap();
            assert_eq!(jitter.total, stats.delivered - 1);
            assert_eq!(jitter.sum, stats.jitter_sum_ns);
        }
    }
    let policed = report.flow("policed").unwrap();
    assert!(policed.policer_dropped > 0, "policer must fire");
    assert_eq!(
        tel.counter("flow.policed.policer_exceed"),
        Some(policed.policer_dropped as f64)
    );
    assert_eq!(
        tel.counter("flow.policed.policer_conform"),
        Some((policed.sent - policed.policer_dropped) as f64)
    );

    // --- exporters carry the same data ---------------------------------
    let json = telemetry_to_json(tel);
    assert!(json.contains("link.0->2.queue_depth"));
    assert!(json.contains("lsp.probe.delay_ns"));
    let csv = telemetry_to_csv(tel);
    assert!(csv.lines().any(|l| l.contains("queue_depth")));
    assert!(csv.lines().any(|l| l.contains("flow.bulk.sent")));
}

/// A policed closed-loop flow: the policer's drops leave packets unacked,
/// the flow's timeouts re-send them, and `sent` counts every re-send. At
/// 1 and 4 shards its four counters match its `FlowStats`, and the two
/// runs report the same bytes.
#[test]
fn policed_closed_loop_counters_match_flow_stats_at_1_and_4_shards() {
    let mut cp = ControlPlane::new(Topology::figure1_example());
    cp.establish_lsp(LspRequest::best_effort(
        0,
        1,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .unwrap();
    let run = |shards: usize| {
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo {
                capacity: QUEUE_CAPACITY,
            },
            7,
        );
        sim.set_shards(shards);
        let mut spec = flow("cl", 600, 0, None);
        spec.pattern = TrafficPattern::ClosedLoop(ClosedLoopSpec {
            mean_arrival_ns: 500_000,
            rto_ns: 1_000_000,
            ..ClosedLoopSpec::default()
        });
        spec.police = Some(PolicerSpec {
            rate_bps: 2_000_000,
            burst_bytes: 2_000,
        });
        sim.add_flow(spec);
        sim.with_telemetry(TelemetryConfig {
            sample_interval_ns: 50_000,
            ..TelemetryConfig::default()
        })
        .run(RUN_NS + 500_000_000)
    };
    let (one, four) = (run(1), run(4));
    let st = one.flow("cl").unwrap();
    assert!(st.policer_dropped > 0, "policer must fire");
    assert!(st.retransmits > 0, "timeouts must re-send");
    assert!(st.delivered > 0);
    for (shards, report) in [(1, &one), (4, &four)] {
        assert_eq!(report.engine.shards, shards);
        let st = report.flow("cl").unwrap();
        let tel = report.telemetry.as_ref().expect("telemetry enabled");
        let counter = |name: &str| tel.counter(&format!("flow.cl.{name}"));
        assert_eq!(counter("sent"), Some(st.sent as f64), "{shards} shards");
        assert_eq!(counter("delivered"), Some(st.delivered as f64));
        assert_eq!(
            counter("policer_conform"),
            Some((st.sent - st.policer_dropped) as f64)
        );
        assert_eq!(counter("policer_exceed"), Some(st.policer_dropped as f64));
    }
    assert_eq!(
        serde_json::to_string(&one).unwrap(),
        serde_json::to_string(&four).unwrap()
    );
}

/// On an LDP run the protocol's tick is always pending, so it must not
/// keep the sampler alive: once the last packet is delivered, at most
/// one more periodic sample is taken (the one that finds the shards
/// idle), though the run goes on ticking to its horizon and ends with
/// the end-of-run scrape.
#[test]
fn ldp_telemetry_takes_no_sample_after_its_last_shard_event() {
    const INTERVAL_NS: u64 = 20_000;
    const HORIZON_NS: u64 = 60_000_000;
    let fec = Prefix::new(parse_addr("192.168.1.0").unwrap(), 24);
    let mut cp = ControlPlane::new(Topology::figure1_example());
    cp.attach_prefix(1, fec);
    cp.establish_lsp(LspRequest::best_effort(0, 1, fec))
        .unwrap();
    let mut sim = Simulation::build(
        &cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo {
            capacity: QUEUE_CAPACITY,
        },
        7,
    );
    sim.enable_ldp(mpls_ldp::LdpConfig::default());
    // Traffic starts once the sessions are up and stops well before the
    // horizon.
    let mut spec = flow("probe", 256, 100_000, None);
    spec.start_ns = 10_000_000;
    spec.stop_ns = 15_000_000;
    sim.add_flow(spec);
    let report = sim
        .with_telemetry(TelemetryConfig {
            sample_interval_ns: INTERVAL_NS,
            ..TelemetryConfig::default()
        })
        .run(HORIZON_NS);
    let st = report.flow("probe").unwrap();
    assert!(st.sent > 0);
    assert_eq!(st.delivered, st.sent, "every packet is delivered");
    let last_event = st.last_delivery_ns;
    assert!(
        report.elapsed_ns > last_event + 10 * INTERVAL_NS,
        "the LDP tick runs on to the horizon"
    );
    let depth = &report
        .telemetry
        .as_ref()
        .expect("telemetry enabled")
        .series("link.0->2.queue_depth")
        .expect("first hop sampled")
        .points;
    let (&(scrape, _), periodic) = depth.split_last().expect("sampled");
    assert_eq!(scrape, report.elapsed_ns, "the end-of-run scrape");
    let last_sample = periodic.last().expect("periodic samples").0;
    assert!(
        last_sample > last_event && last_sample <= last_event + INTERVAL_NS,
        "last periodic sample at {last_sample} ns, last delivery at {last_event} ns"
    );
}

//! Guard for the telemetry overhead contract: a `NoopSink` simulation
//! must cost essentially nothing over the pre-telemetry baseline, because
//! every record site is behind `if S::ENABLED` with `S::ENABLED == false`
//! a compile-time constant.
//!
//! Wall-clock comparisons on shared CI hardware are noisy, so the timing
//! check compares min-of-N medians with a generous margin and the
//! structural checks (zero-sized sink, identical simulation outcomes) do
//! the precise work.

use mpls_bench::scenarios::figure1_with_lsp;
use mpls_core::ClockSpec;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    NoopSink, QueueDiscipline, RouterKind, SimReport, Simulation, TelemetryConfig, TelemetrySink,
};
use mpls_packet::ipv4::parse_addr;
use std::time::Instant;

fn flow() -> FlowSpec {
    FlowSpec {
        name: "cbr".into(),
        ingress: 0,
        src_addr: parse_addr("10.0.0.1").unwrap(),
        dst_addr: parse_addr("192.168.1.5").unwrap(),
        payload_bytes: 512,
        precedence: 0,
        pattern: TrafficPattern::Cbr {
            interval_ns: 20_000,
        },
        start_ns: 0,
        stop_ns: 10_000_000, // 500 packets over 10 ms
        police: None,
    }
}

fn run_noop(cp: &mpls_control::ControlPlane) -> SimReport {
    let mut sim = Simulation::build(
        cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 64 },
        1,
    );
    sim.add_flow(flow());
    sim.run(100_000_000)
}

fn run_telemetry(cp: &mpls_control::ControlPlane) -> SimReport {
    let mut sim = Simulation::build(
        cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 64 },
        1,
    );
    sim.add_flow(flow());
    sim.with_telemetry(TelemetryConfig::default())
        .run(100_000_000)
}

/// The structural half of the contract: the sink is a zero-sized type and
/// disabled at the type level, so record sites guarded by `S::ENABLED`
/// compile to nothing.
#[test]
fn noop_sink_is_zero_sized_and_disabled() {
    assert_eq!(std::mem::size_of::<NoopSink>(), 0);
    const { assert!(!NoopSink::ENABLED) }
}

/// Telemetry must observe, never perturb: identical seeds give identical
/// flow outcomes with and without a live registry, and the uncongested
/// Fig. 1 LSP delivers every packet either way.
#[test]
fn telemetry_does_not_change_simulation_outcomes() {
    let cp = figure1_with_lsp();
    let plain = run_noop(&cp);
    let instrumented = run_telemetry(&cp);
    let p = plain.flow("cbr").unwrap();
    let t = instrumented.flow("cbr").unwrap();
    assert_eq!(p.delivered, p.sent);
    assert_eq!(p.sent, t.sent);
    assert_eq!(p.delivered, t.delivered);
    assert_eq!(p.delay_sum_ns, t.delay_sum_ns);
    assert_eq!(p.jitter_sum_ns, t.jitter_sum_ns);
    // The instrumented run's clock may end slightly later (its final
    // periodic sample event), but never earlier.
    assert!(instrumented.elapsed_ns >= plain.elapsed_ns);
    assert!(plain.telemetry.is_none());
    assert!(instrumented.telemetry.is_some());
}

/// The timing half: a noop run must not be measurably slower than a
/// telemetry-enabled run. (If the `S::ENABLED` guards were broken and
/// noop paid for sampling anyway, the two would converge from the wrong
/// side; the margin keeps shared-runner noise from flaking the build.)
#[test]
fn noop_run_is_not_slower_than_telemetry_run() {
    let cp = figure1_with_lsp();
    // Warm up caches and the allocator before timing anything.
    run_noop(&cp);
    run_telemetry(&cp);

    let min_of = |f: &dyn Fn() -> SimReport| {
        (0..7)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let noop = min_of(&|| run_noop(&cp));
    let telemetry = min_of(&|| run_telemetry(&cp));
    // 1.25x margin: the enabled run does strictly more work (periodic
    // sampling events, counter updates, end-of-run scrape), so noop
    // should come in at or below it even on a noisy machine.
    assert!(
        noop.as_nanos() as f64 <= telemetry.as_nanos() as f64 * 1.25,
        "noop run ({noop:?}) slower than telemetry run ({telemetry:?}): \
         the zero-cost guards look broken"
    );
}

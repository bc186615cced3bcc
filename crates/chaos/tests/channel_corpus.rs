//! Channel edge corpus: generated runs whose report digests are pinned.
//!
//! Each run is a chaos case with its channels pushed to their edges:
//! small queues under every discipline (so packets wait, overflow and
//! meet RED's early drops), telemetry sampling every few microseconds
//! (so samples land on serialization ends), a horizon inside the traffic
//! window (so the run stops with packets serializing and queued), and
//! half the time narrower links plus wire loss on a link that a fault
//! cuts (so cuts catch busy channels that have rolled loss draws).
//!
//! `channel_corpus.digests` holds each run's FNV-1a 64 digest of its
//! serialized report, telemetry included, as a channel that schedules a
//! completion event per packet produced it. The test recomputes every
//! digest at 1 and at 4 shards. (Not built under `bug-demo`, whose
//! planted accounting bug changes the reports on purpose.)
#![cfg(not(feature = "bug-demo"))]

use mpls_chaos::{generate, Rng};
use mpls_cli::scenario::{
    ControlChoice, FaultEventDecl, LinkLossDecl, QueueDecl, Scenario, TelemetryDecl,
};
use mpls_net::{SimReport, Simulation};

const SEED: u64 = 0x0C4A_77E1_ED6E;
const RUNS: u64 = 128;
const DIGESTS: &str = include_str!("channel_corpus.digests");

/// The `idx`-th corpus run: chaos case `idx` with its channels varied,
/// and the run's horizon in ns.
fn case(idx: u64) -> (Scenario, u64) {
    let mut sc = generate(SEED, idx).scenario;
    let mut rng = Rng::new(SEED ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D));
    sc.queue = match idx % 3 {
        0 => QueueDecl::Fifo {
            capacity: rng.range(1, 6) as usize,
        },
        1 => QueueDecl::CosPriority {
            per_class: rng.range(1, 3) as usize,
        },
        _ => {
            let capacity = rng.range(3, 12) as usize;
            let min_th = rng.range(1, 2) as usize;
            QueueDecl::Red {
                capacity,
                min_th,
                max_th: rng.range(min_th as u64 + 1, capacity as u64) as usize,
                max_p_percent: rng.range(10, 100) as u8,
            }
        }
    };
    sc.telemetry = Some(TelemetryDecl {
        sample_interval_us: [2, 3, 7, 19][rng.range(0, 3) as usize],
        ..TelemetryDecl::default()
    });
    let start_ms = sc.flows.iter().map(|f| f.start_ms).max().unwrap_or(0);
    let horizon_ns = rng.range(start_ms + 1, 24) * 1_000_000 + rng.range(0, 999_999);
    if rng.chance(50) {
        for l in &mut sc.links {
            l.bandwidth_mbps = (l.bandwidth_mbps / rng.range(5, 20)).max(10);
        }
        if let Some(f) = &mut sc.faults {
            let cut = f.events.iter().find_map(|e| match *e {
                FaultEventDecl::LinkDown { a, b, .. } => Some((a, b)),
                _ => None,
            });
            if let Some((a, b)) = cut {
                f.loss.push(LinkLossDecl {
                    a,
                    b,
                    probability: 0.05 + rng.f64() * 0.25,
                });
            }
        }
    }
    (sc, horizon_ns)
}

/// Runs `sc` as `mpls-sim run` would, but stops at `horizon_ns` instead
/// of the scenario's horizon plus its drain margin, so the run ends
/// while traffic still flows.
fn run(sc: &Scenario, horizon_ns: u64, shards: usize) -> SimReport {
    let plan = sc
        .validate_with_overrides(Some(shards), None)
        .expect("a generated case validates");
    let mut sim = Simulation::build(&plan.cp, plan.router, plan.queue, plan.seed);
    sim.set_shards(shards);
    for (node, hint) in plan.shard_hints {
        sim.shard_hint(node, hint);
    }
    match plan.control {
        ControlChoice::Centralized => {}
        ControlChoice::Ldp => sim.enable_ldp(plan.ldp),
        ControlChoice::Sr => sim.enable_sr(plan.sr),
    }
    if let Some(faults) = plan.faults {
        sim.set_fault_plan(faults);
    }
    for f in plan.flows {
        sim.add_flow(f);
    }
    sim.with_telemetry(plan.telemetry).run(horizon_ns)
}

/// FNV-1a 64 over a serialized report.
fn digest(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pinned() -> Vec<u64> {
    DIGESTS
        .lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).expect("a hex digest per line"))
        .collect()
}

#[test]
fn reports_match_the_pinned_digests_at_1_and_4_shards() {
    let pinned = pinned();
    assert_eq!(pinned.len() as u64, RUNS, "one pinned digest per run");
    let mut wrong = Vec::new();
    // Runs that met each channel edge: a cut catching a packet
    // serializing, a cut catching packets queued behind it, a cut taking
    // back loss draws, a stop with a channel serializing, a sample at a
    // serialization end.
    let mut met = [0u64; 5];
    for idx in 0..RUNS {
        let (sc, horizon_ns) = case(idx);
        let mut seen = Vec::new();
        for shards in [1, 4] {
            let report = run(&sc, horizon_ns, shards);
            let got = digest(&serde_json::to_string(&report).expect("report serializes"));
            if got != pinned[idx as usize] {
                wrong.push(format!("run {idx} at {shards} shards: {got:016x}"));
            }
            seen.push((report.engine.edges, report.engine.total_events()));
        }
        assert_eq!(
            seen[0], seen[1],
            "run {idx}: edges and events at 1 and 4 shards"
        );
        let e = seen[0].0;
        let counts = [
            e.cut_serializing,
            e.cut_queued,
            e.cut_loss_rolls,
            e.stopped_busy,
            e.samples_at_end,
        ];
        for (m, c) in met.iter_mut().zip(counts) {
            *m += u64::from(c > 0);
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
    eprintln!("runs meeting each edge: {met:?}");
    assert!(met.iter().all(|&m| m > 0), "an edge no run meets: {met:?}");
}

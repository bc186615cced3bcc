//! The standard benchmark suite behind the `mpls-bench` entry point.
//!
//! Each `ext*` function runs one experiment's full measurement loop —
//! including its invariant asserts (byte-identity, conservation,
//! detection bounds) — and returns a [`Section`]: a rendered table for
//! humans plus machine-readable rows for the `BENCH_<n>.json`
//! trajectory files the CI regression gate compares. [`SECTIONS`] lists
//! them in run order; `mpls-bench --only <id>` runs a subset.

use crate::MarkdownTable;
use mpls_control::{ControlPlane, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_net::traffic::{ClosedLoopSpec, FlowSpec, TrafficPattern};
use mpls_net::{
    ControlMode, FaultPlan, LdpConfig, QueueDiscipline, RestorationPolicy, RouterKind, ScaleFamily,
    ScaleSpec, SimReport, Simulation, TelemetryConfig,
};
use mpls_packet::ipv4::parse_addr;
use mpls_router::SwTimingModel;
use mpls_sr::SrConfig;
use serde::Value;
use std::time::Instant;

/// One experiment's results: human table + trajectory rows.
pub struct Section {
    /// Stable bench identifier (`ext10-scaling`, ...).
    pub bench: &'static str,
    /// Configuration knobs the rows were measured under. The gate only
    /// compares rows whose section config matches, so points taken at
    /// different depths or horizons never get compared.
    pub config: Vec<(String, Value)>,
    /// One object per measured configuration. Rows with `events` and
    /// `events_per_sec` fields participate in the regression gate, which
    /// compares their time for fixed work (`events / events_per_sec`).
    pub rows: Vec<Value>,
    /// Rendered markdown table.
    pub table: String,
    /// Free-form observations printed under the table.
    pub notes: Vec<String>,
}

impl Section {
    /// The section as one JSON object: `bench`, the flattened config,
    /// then `rows`.
    pub fn to_json(&self) -> Value {
        let mut entries = vec![("bench".to_string(), Value::Str(self.bench.into()))];
        entries.extend(self.config.iter().cloned());
        entries.push(("rows".to_string(), Value::Seq(self.rows.clone())));
        Value::Map(entries)
    }
}

/// Runs one section at the quick (`true`) or full config.
pub type SectionFn = fn(bool) -> Section;

/// Every section in run order, keyed by the id `--only` selects it by:
/// the prefix of its [`Section::bench`].
pub const SECTIONS: [(&str, SectionFn); 6] = [
    ("ext10", ext10_scaling),
    ("ext11", ext11_convergence),
    ("ext12", ext12_throughput),
    ("ext15", ext15_scale),
    ("ext16", ext16_sr_vs_ldp),
    ("ext17", ext17_closed_loop),
];

/// The [`SECTIONS`] entries `ids` names, in run order, each once. An
/// unknown id is an error that lists the valid ids.
pub fn select(ids: &[&str]) -> Result<Vec<(&'static str, SectionFn)>, String> {
    if let Some(bad) = ids
        .iter()
        .find(|id| !SECTIONS.iter().any(|(known, _)| known == *id))
    {
        let valid: Vec<&str> = SECTIONS.iter().map(|(id, _)| *id).collect();
        return Err(format!(
            "unknown section {bad:?} (valid: {})",
            valid.join(", ")
        ));
    }
    Ok(SECTIONS
        .into_iter()
        .filter(|(id, _)| ids.contains(id))
        .collect())
}

/// A JSON object literal from `(key, value)` pairs.
fn obj(entries: &[(&str, Value)]) -> Value {
    Value::Map(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// Wall time every gated cell runs for, in repetitions, before its
/// fastest run is kept. A fixed best-of-3 timed a cell of a few
/// milliseconds within a few milliseconds of host time, so a slow spell
/// of the host (1.3–1.6×, lasting seconds on shared 2-vCPU runners)
/// could cover all three runs. A floor of seconds outlasts most spells.
const TIMING_FLOOR_S: f64 = 2.0;

/// Times one gated cell: `run` returns its result and its timed seconds.
/// The cell repeats at least `min_reps` times and until its runs have
/// taken [`TIMING_FLOOR_S`] of wall time, and the fastest run's time is
/// kept. The simulation is deterministic, so every repetition returns
/// the identical result, and the minimum is the least-noise estimate of
/// the code's cost. A cell that outlasts the floor runs `min_reps` times.
fn best_of<R>(min_reps: usize, mut run: impl FnMut() -> (R, f64)) -> (R, f64) {
    let start = Instant::now();
    let (mut result, mut secs) = run();
    let mut reps = 1;
    while reps < min_reps || start.elapsed().as_secs_f64() < TIMING_FLOOR_S {
        // Drop the previous result first: a repetition holds no more
        // memory than one run does.
        drop(result);
        let (r, s) = run();
        (result, secs) = (r, secs.min(s));
        reps += 1;
    }
    (result, secs)
}

/// Peak resident set size of this process in kilobytes, from
/// `/proc/self/status` (`VmHWM`). `None` off Linux.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

const SIDE: u32 = 8;
const CORNERS: [u32; 4] = [0, SIDE - 1, (SIDE - 1) * SIDE, SIDE * SIDE - 1];

// -----------------------------------------------------------------
// EXT-10: shard scaling on a heterogeneous-delay grid
// -----------------------------------------------------------------

/// 8×8 grid with *heterogeneous* link delays: per-link salted jitter
/// plus an 8x stretch on the row-2/3 and row-5/6 boundaries. The
/// min-cut partitioner steers its cuts through the slow links, so the
/// epoch lookahead depends on where the cuts land.
fn scaling_grid() -> ControlPlane {
    let mut topo = Topology::new();
    for id in 0..SIDE * SIDE {
        let role = if CORNERS.contains(&id) {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("grid-{id}"));
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
        let peer = 3 - i;
        cp.establish_lsp(LspRequest::best_effort(
            corner,
            CORNERS[peer],
            corner_prefix(peer),
        ))
        .expect("grid LSP signals");
    }
    cp
}

fn scaling_flows(run_ns: u64) -> Vec<FlowSpec> {
    CORNERS
        .iter()
        .enumerate()
        .map(|(i, &corner)| {
            let peer = 3 - i;
            FlowSpec {
                name: format!("corner-{i}"),
                ingress: corner,
                src_addr: parse_addr(&format!("10.0.{i}.1")).unwrap(),
                dst_addr: parse_addr(&format!("192.168.{}.10", peer + 1)).unwrap(),
                payload_bytes: 500,
                precedence: 0,
                // Poisson keeps per-flow RNG streams busy so determinism
                // is exercised, not just asserted.
                pattern: TrafficPattern::Poisson {
                    mean_interval_ns: 8_000,
                },
                start_ns: 0,
                stop_ns: run_ns,
                police: None,
            }
        })
        .collect()
}

/// EXT-10: the same heterogeneous-delay scenario at 1/2/4/8 shards.
/// Byte-identity against the sequential report is asserted for every
/// cell; the table reads off events/s and speedup.
pub fn ext10_scaling(quick: bool) -> Section {
    let run_ns: u64 = if quick { 10_000_000 } else { 50_000_000 };
    let horizon_ns = run_ns + 20_000_000;
    let shard_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cp = scaling_grid();

    let run_at = |shards: usize| {
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 64 },
            7,
        );
        sim.set_shards(shards);
        for f in scaling_flows(run_ns) {
            sim.add_flow(f);
        }
        let start = Instant::now();
        let report = sim.run(horizon_ns);
        (report, start.elapsed().as_secs_f64())
    };

    let mut t = MarkdownTable::new(&[
        "shards",
        "effective",
        "lookahead µs",
        "rounds",
        "events",
        "wall ms",
        "events/s",
        "speedup",
    ]);
    let mut rows = Vec::new();
    let mut baseline_json = String::new();
    let mut baseline_eps = 0.0;
    let mut eps4 = 0.0;
    for &shards in shard_counts {
        let (report, secs) = best_of(3, || run_at(shards));
        let json = serde_json::to_string(&report).expect("report serializes");
        let e = &report.engine;
        let events = e.total_events();
        let eps = events as f64 / secs;
        if baseline_json.is_empty() {
            baseline_json = json.clone();
            baseline_eps = eps;
        }
        assert_eq!(
            baseline_json, json,
            "report diverged from sequential at {shards} shards"
        );
        if shards == 4 {
            eps4 = eps;
        }
        t.row(&[
            shards.to_string(),
            e.shards.to_string(),
            e.lookahead_ns
                .map_or("-".into(), |ns| format!("{:.0}", ns as f64 / 1e3)),
            e.epochs.to_string(),
            events.to_string(),
            format!("{:.1}", secs * 1e3),
            format!("{:.0}", eps),
            format!("{:.2}x", eps / baseline_eps),
        ]);
        // The `engine` key keeps each row paired with its earlier
        // trajectory rows in the regression gate.
        rows.push(obj(&[
            ("engine", Value::Str(e.kind.name().into())),
            ("shards", Value::U64(shards as u64)),
            ("rounds", Value::U64(e.epochs)),
            ("events", Value::U64(events)),
            ("wall_ms", Value::F64(secs * 1e3)),
            ("events_per_sec", Value::F64(eps)),
        ]));
    }
    let mut notes = vec![
        "all shard counts byte-identical to the sequential report -- OK".into(),
        format!(
            "4 shards vs 1 shard: {:.2}x events/s on {} host core(s)",
            eps4 / baseline_eps,
            cores
        ),
    ];
    if cores < 2 {
        notes.push(
            "note: single-core host — shard speedup cannot exceed 1x here; \
             every multi-shard row pays coordination overhead with no cores \
             to spend it on"
                .into(),
        );
    }
    let config = vec![
        ("quick".to_string(), Value::Bool(quick)),
        ("run_ns".to_string(), Value::U64(run_ns)),
        ("delays".to_string(), Value::Str("heterogeneous".into())),
    ];
    Section {
        bench: "ext10-scaling",
        config,
        rows,
        table: t.render(),
        notes,
    }
}

// -----------------------------------------------------------------
// EXT-12: fast-path throughput
// -----------------------------------------------------------------

/// Pair `i`, LSP `k` → `10.(100 + 16i + k/256).(k%256).0/24`.
fn ext12_prefix(pair: usize, k: u32) -> Prefix {
    Prefix::new(
        parse_addr(&format!(
            "10.{}.{}.0",
            100 + pair * 16 + (k / 256) as usize,
            k % 256
        ))
        .unwrap(),
        24,
    )
}

/// The 8×8 grid with `lsps_per_pair` parallel LSPs per corner pair —
/// the knob that sets the linear info-base's depth.
fn throughput_grid(lsps_per_pair: u32) -> ControlPlane {
    let mut topo = Topology::new();
    for id in 0..SIDE * SIDE {
        let role = if CORNERS.contains(&id) {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("grid-{id}"));
    }
    for r in 0..SIDE {
        for c in 0..SIDE {
            let id = r * SIDE + c;
            for neighbor in [
                (c + 1 < SIDE).then(|| id + 1),
                (r + 1 < SIDE).then(|| id + SIDE),
            ]
            .into_iter()
            .flatten()
            {
                topo.add_link(LinkSpec {
                    a: id,
                    b: neighbor,
                    cost: 1,
                    bandwidth_bps: 1_000_000_000,
                    delay_ns: 10_000,
                });
            }
        }
    }
    let mut cp = ControlPlane::new(topo);
    for (i, &corner) in CORNERS.iter().enumerate() {
        let dst = CORNERS[3 - i];
        for k in 0..lsps_per_pair {
            cp.attach_prefix(dst, ext12_prefix(i, k));
            cp.establish_lsp(LspRequest::best_effort(corner, dst, ext12_prefix(i, k)))
                .expect("grid LSP signals");
        }
    }
    cp
}

/// One flow per corner pair, aimed at the pair's *last* signaled LSP —
/// the worst case for a linear scan.
fn throughput_flows(lsps_per_pair: u32, run_ns: u64) -> Vec<FlowSpec> {
    CORNERS
        .iter()
        .enumerate()
        .map(|(i, &corner)| FlowSpec {
            name: format!("corner-{i}"),
            ingress: corner,
            src_addr: parse_addr(&format!("10.0.{i}.1")).unwrap(),
            dst_addr: parse_addr(&format!(
                "10.{}.{}.5",
                100 + i * 16 + ((lsps_per_pair - 1) / 256) as usize,
                (lsps_per_pair - 1) % 256
            ))
            .unwrap(),
            payload_bytes: 500,
            precedence: 0,
            pattern: TrafficPattern::Poisson {
                mean_interval_ns: 10_000,
            },
            start_ns: 0,
            stop_ns: run_ns,
            police: None,
        })
        .collect()
}

/// EXT-12: hash FIB + flow cache vs the linear info-base. Reports must
/// stay byte-identical across lookup strategy, cache setting and shard
/// count.
pub fn ext12_throughput(quick: bool) -> Section {
    let lsps_per_pair: u32 = if quick { 32 } else { 4096 };
    let run_ns: u64 = if quick { 5_000_000 } else { 30_000_000 };
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let timing = SwTimingModel::default();
    let cp = throughput_grid(lsps_per_pair);

    let run_at = |kind: RouterKind, shards: usize| {
        let mut sim = Simulation::build(&cp, kind, QueueDiscipline::Fifo { capacity: 64 }, 7);
        sim.set_shards(shards);
        for f in throughput_flows(lsps_per_pair, run_ns) {
            sim.add_flow(f);
        }
        let sim = sim.with_telemetry(TelemetryConfig {
            sample_interval_ns: 1_000_000,
            ..TelemetryConfig::default()
        });
        let start = Instant::now();
        let report = sim.run(run_ns + 20_000_000);
        (report, start.elapsed().as_secs_f64())
    };

    let mut t = MarkdownTable::new(&[
        "lookup",
        "cache",
        "shards",
        "events",
        "wall ms",
        "events/s",
        "vs linear",
    ]);
    let mut baseline_json = String::new();
    let mut linear_eps = 0.0;
    let mut fast_eps_1shard = 0.0;
    let mut rows = Vec::new();
    let variants: Vec<(&str, &str, RouterKind)> = vec![
        ("linear", "-", RouterKind::SoftwareLinear { timing }),
        (
            "hash",
            "off",
            RouterKind::SoftwareFast {
                timing,
                cache: false,
            },
        ),
        (
            "hash",
            "on",
            RouterKind::SoftwareFast {
                timing,
                cache: true,
            },
        ),
    ];
    for (lookup, cache, kind) in variants {
        // The linear baseline only runs sequentially: it is the slow
        // side being measured, not the one under test for sharding.
        let counts: &[usize] = if lookup == "linear" {
            &shard_counts[..1]
        } else {
            shard_counts
        };
        for &shards in counts {
            let (report, secs) = best_of(3, || run_at(kind, shards));
            let json = serde_json::to_string(&report).expect("report serializes");
            if baseline_json.is_empty() {
                baseline_json = json.clone();
            }
            assert_eq!(
                baseline_json, json,
                "{lookup} (cache {cache}, {shards} shard(s)) diverged from the linear baseline"
            );
            let events = report.engine.total_events();
            let eps = events as f64 / secs;
            if lookup == "linear" {
                linear_eps = eps;
            }
            if lookup == "hash" && cache == "on" && shards == 1 {
                fast_eps_1shard = eps;
            }
            t.row(&[
                lookup.to_string(),
                cache.to_string(),
                shards.to_string(),
                events.to_string(),
                format!("{:.1}", secs * 1e3),
                format!("{:.0}", eps),
                format!("{:.2}x", eps / linear_eps),
            ]);
            rows.push(obj(&[
                ("lookup", Value::Str(lookup.into())),
                ("cache", Value::Str(cache.into())),
                ("shards", Value::U64(shards as u64)),
                ("events", Value::U64(events)),
                ("wall_ms", Value::F64(secs * 1e3)),
                ("events_per_sec", Value::F64(eps)),
            ]));
        }
    }
    let ratio = fast_eps_1shard / linear_eps;
    let mut notes = vec![
        "reports byte-identical across lookup strategy, cache setting and shard count -- OK".into(),
        format!("fast path (cache on, 1 shard) vs linear: {ratio:.2}x events/s"),
    ];
    if !quick && ratio < 3.0 {
        notes.push("warning: expected >= 3x on a deep table; host noise or shallow tables?".into());
    }
    let config = vec![
        ("quick".to_string(), Value::Bool(quick)),
        (
            "lsps_per_pair".to_string(),
            Value::U64(lsps_per_pair as u64),
        ),
        ("run_ns".to_string(), Value::U64(run_ns)),
    ];
    Section {
        bench: "ext12-throughput",
        config,
        rows,
        table: t.render(),
        notes,
    }
}

// -----------------------------------------------------------------
// EXT-11: LDP convergence
// -----------------------------------------------------------------

const EXT11_DOWN_NS: u64 = 20_000_000;
const EXT11_INTERVAL_NS: u64 = 100_000; // 10k pkt/s CBR probe
const EXT11_HORIZON_NS: u64 = 90_000_000;

fn convergence_grid(rows: u32, cols: u32) -> ControlPlane {
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
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            for next in [
                (c + 1 < cols).then(|| id + 1),
                (r + 1 < rows).then(|| id + cols),
            ]
            .into_iter()
            .flatten()
            {
                topo.add_link(LinkSpec {
                    a: id,
                    b: next,
                    cost: 1 + ((id as u64 * 13 + next as u64 * 5) % 3) as u32,
                    bandwidth_bps: 200_000_000,
                    delay_ns: 20_000,
                });
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
    .unwrap();
    cp.establish_lsp(LspRequest::best_effort(
        last,
        0,
        Prefix::new(parse_addr("10.1.0.0").unwrap(), 16),
    ))
    .unwrap();
    cp
}

fn convergence_sim(cp: &ControlPlane, hold_ns: u64) -> Simulation {
    let mut sim = Simulation::build(
        cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 64 },
        42,
    );
    sim.enable_ldp(LdpConfig {
        hello_interval_ns: hold_ns / 3,
        hold_ns,
        ..LdpConfig::default()
    });
    sim
}

/// Cold bring-up with no traffic: the report's convergence span is the
/// whole story.
fn run_bringup(cp: &ControlPlane, hold_ns: u64) -> SimReport {
    convergence_sim(cp, hold_ns).run(30_000_000)
}

/// Permanent cut of link 0-1 at `EXT11_DOWN_NS` under a CBR probe.
fn run_fault(cp: &ControlPlane, hold_ns: u64) -> SimReport {
    let mut sim = convergence_sim(cp, hold_ns);
    let cut = cp.topology().link_between(0, 1).unwrap();
    let mut plan = FaultPlan::default();
    plan.link_down(EXT11_DOWN_NS, cut);
    sim.set_fault_plan(plan);
    sim.add_flow(FlowSpec {
        name: "probe".into(),
        ingress: 0,
        src_addr: parse_addr("10.1.0.5").unwrap(),
        dst_addr: parse_addr("192.168.1.5").unwrap(),
        payload_bytes: 400,
        precedence: 0,
        pattern: TrafficPattern::Cbr {
            interval_ns: EXT11_INTERVAL_NS,
        },
        start_ns: 10_000_000,
        stop_ns: 60_000_000,
        police: None,
    });
    sim.run(EXT11_HORIZON_NS)
}

/// EXT-11: LDP bring-up and reconvergence across grid size x hold
/// time, with the timer-bound and monotonicity asserts inline.
pub fn ext11_convergence(quick: bool) -> Section {
    let grids: &[(u32, u32)] = if quick {
        &[(2, 2)]
    } else {
        &[(2, 2), (3, 3), (3, 4)]
    };
    let holds: &[u64] = if quick {
        &[3_500_000]
    } else {
        &[2_000_000, 3_500_000, 7_000_000]
    };

    let mut t = MarkdownTable::new(&[
        "grid",
        "hold (ms)",
        "bring-up (ms)",
        "detection (ms)",
        "reconverge (ms)",
        "pkts lost",
        "PDUs sent",
    ]);
    let mut rows = Vec::new();
    let mut detections: Vec<((u32, u32), u64, u64)> = Vec::new();
    for &(grows, gcols) in grids {
        let cp = convergence_grid(grows, gcols);
        for &hold in holds {
            let up = run_bringup(&cp, hold);
            assert_eq!(up.control.mode, ControlMode::Ldp);
            let bringup = up
                .control
                .convergence_ns
                .expect("fault-free bring-up settles");
            assert_eq!(up.control.session_downs, 0, "sessions flapped at bring-up");
            assert_eq!(
                up.control.pdus_lost, 0,
                "control PDUs lost on healthy links"
            );

            let report = run_fault(&cp, hold);
            let s = report.flow("probe").unwrap();
            assert_eq!(
                s.sent,
                s.delivered + s.link_dropped + s.router_dropped + s.queue_dropped + s.loss_dropped,
                "conservation violated at {grows}x{gcols}/hold {hold}"
            );
            let rec = &report.faults[0];
            let det = rec.detected_ns.expect("hold expiry detects the cut") - rec.down_ns;
            let reconverge = rec.restored_ns.expect("withdraw wave settles") - rec.down_ns;
            assert!(
                det <= 2 * hold,
                "detection {det} ns exceeds two hold times ({hold} ns)"
            );
            assert!(reconverge >= det, "cannot reroute before detecting");
            t.row(&[
                format!("{grows}x{gcols}"),
                format!("{:.1}", hold as f64 / 1e6),
                format!("{:.2}", bringup as f64 / 1e6),
                format!("{:.2}", det as f64 / 1e6),
                format!("{:.2}", reconverge as f64 / 1e6),
                format!("{}", rec.packets_lost),
                format!("{}", report.control.pdus_sent),
            ]);
            rows.push(obj(&[
                ("grid", Value::Str(format!("{grows}x{gcols}"))),
                ("hold_ms", Value::F64(hold as f64 / 1e6)),
                ("bringup_ms", Value::F64(bringup as f64 / 1e6)),
                ("detection_ms", Value::F64(det as f64 / 1e6)),
                ("reconverge_ms", Value::F64(reconverge as f64 / 1e6)),
                ("pkts_lost", Value::U64(rec.packets_lost)),
                ("pdus_sent", Value::U64(report.control.pdus_sent)),
            ]));
            detections.push(((grows, gcols), hold, det));
        }
    }

    // Detection is a timer property, not a topology property: for every
    // grid it sits inside [hold - hello, hold + hello] — one hold time
    // after the last hello that arrived before the cut.
    for &(grid, hold, det) in &detections {
        let hello = hold / 3;
        assert!(
            det >= hold - hello && det <= hold + hello,
            "detection {det} ns outside [{}, {}] ns at {grid:?}",
            hold - hello,
            hold + hello
        );
    }
    for &(grows, gcols) in grids {
        let mut per_grid: Vec<u64> = detections
            .iter()
            .filter(|(g, _, _)| *g == (grows, gcols))
            .map(|&(_, _, d)| d)
            .collect();
        let sorted = {
            let mut s = per_grid.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(
            per_grid, sorted,
            "detection not monotone in hold at {grows}x{gcols}"
        );
        per_grid.dedup();
        assert_eq!(per_grid.len(), holds.len(), "hold sweep collapsed");
    }

    let notes = vec![
        "observations:".into(),
        "  - bring-up is wave-propagation bound: a few hello intervals to".into(),
        "    form sessions, then one ordered-distribution sweep per FEC;".into(),
        "  - detection tracks the hold timer (one hold after the last".into(),
        "    pre-cut hello), independent of grid size;".into(),
        "  - reconvergence adds the withdraw/remap wave on top of".into(),
        "    detection, so probe loss is dominated by the timer choice.".into(),
        "".into(),
        "convergence claims hold -- OK".into(),
    ];
    let config = vec![
        ("quick".to_string(), Value::Bool(quick)),
        ("down_ns".to_string(), Value::U64(EXT11_DOWN_NS)),
        ("horizon_ns".to_string(), Value::U64(EXT11_HORIZON_NS)),
    ];
    Section {
        bench: "ext11-convergence",
        config,
        rows,
        table: t.render(),
        notes,
    }
}

// -----------------------------------------------------------------
// EXT-15: production-scale streaming workloads
// -----------------------------------------------------------------

/// One EXT-15 case: a family at a width, an LSP volume, and the CBR
/// probe window. Everything else is held constant so quick and full
/// points differ only in scale.
fn ext15_spec(family: ScaleFamily, lsps_total: usize, flows: usize, run_ns: u64) -> ScaleSpec {
    ScaleSpec {
        family,
        lsps_total,
        tunnel_strides: 4,
        flows,
        payload_bytes: 256,
        flow_interval_ns: 100_000,
        flow_start_ns: 0,
        flow_stop_ns: run_ns,
        bandwidth_bps: 10_000_000_000,
        delay_ns: 10_000,
        seed: 15,
    }
}

/// EXT-15: streaming bring-up of production-scale workloads, then the
/// probed data plane at 1 and 4 shards.
///
/// Quick keeps CI at ~256-node widths and tens of thousands of LSPs;
/// full is the paper-scale point — a 1088-node fat tree carrying one
/// million hierarchically tunneled LSPs and a 1056-node ring of rings
/// at 200k. Each family certifies:
///
/// * **bring-up** — the control plane signals every tunnel and LSP from
///   the pure `(spec, i)` endpoint function, one request alive at a
///   time; the row records the sustained signaling rate.
/// * **conservation + quiesce** — every probe flow's packets are fully
///   accounted for at the horizon: delivered or attributed to a drop
///   class, nothing in flight.
/// * **identity** — the serialized report is byte-identical across
///   shards {1, 4}.
pub fn ext15_scale(quick: bool) -> Section {
    let run_ns: u64 = if quick { 5_000_000 } else { 10_000_000 };
    let cases: Vec<(&'static str, ScaleSpec)> = if quick {
        vec![
            (
                "fat-tree",
                ext15_spec(
                    ScaleFamily::FatTree {
                        k: 8,
                        lers_per_edge: 6,
                    },
                    64_000,
                    16,
                    run_ns,
                ),
            ),
            (
                "ring-of-rings",
                ext15_spec(
                    ScaleFamily::RingOfRings {
                        rings: 16,
                        ring_size: 15,
                    },
                    16_000,
                    16,
                    run_ns,
                ),
            ),
        ]
    } else {
        vec![
            (
                "fat-tree",
                ext15_spec(
                    ScaleFamily::FatTree {
                        k: 16,
                        lers_per_edge: 6,
                    },
                    1_000_000,
                    32,
                    run_ns,
                ),
            ),
            // Access-ring hops cost a label each (only the fat tree's
            // LER-adjacent anchors hit the one-label-per-LSP floor), so
            // the ring point stays at 100k LSPs / short local rings to
            // fit the shared 2^20 label space. Measured: ~5.0 labels
            // per LSP here (502,308 / 100k at ring_size 10); the quick
            // ring_size-15 point pays ~7.6 — the per-LSP cost tracks
            // ring_size, it is not a constant.
            (
                "ring-of-rings",
                ext15_spec(
                    ScaleFamily::RingOfRings {
                        rings: 96,
                        ring_size: 10,
                    },
                    100_000,
                    32,
                    run_ns,
                ),
            ),
        ]
    };
    let timing = SwTimingModel::default();

    let mut t = MarkdownTable::new(&[
        "family",
        "nodes",
        "lsps",
        "labels",
        "bring-up s",
        "sig/s",
        "shards",
        "events",
        "wall ms",
        "events/s",
    ]);
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (label, spec) in &cases {
        let (w, build_secs) = best_of(1, || {
            let t0 = Instant::now();
            let w = spec.build().expect("scale workload signals");
            (w, t0.elapsed().as_secs_f64())
        });
        let labels = w.cp.labels_allocated();
        let nodes = w.cp.topology().nodes().len();
        let signaled = (w.tunnels + w.lsps) as u64;
        let sig_rate = signaled as f64 / build_secs;
        rows.push(obj(&[
            ("family", Value::Str((*label).into())),
            ("phase", Value::Str("bringup".into())),
            ("nodes", Value::U64(nodes as u64)),
            ("lsps", Value::U64(w.lsps as u64)),
            ("tunnels", Value::U64(w.tunnels as u64)),
            ("labels", Value::U64(labels as u64)),
            ("events", Value::U64(signaled)),
            ("wall_ms", Value::F64(build_secs * 1e3)),
            ("events_per_sec", Value::F64(sig_rate)),
        ]));

        let run_cell = |shards: usize| {
            let mut sim = Simulation::build(
                &w.cp,
                RouterKind::SoftwareFast {
                    timing,
                    cache: true,
                },
                QueueDiscipline::Fifo { capacity: 64 },
                15,
            );
            sim.set_shards(shards);
            for f in w.flows.clone() {
                sim.add_flow(f);
            }
            let start = Instant::now();
            let report = sim.run(run_ns + 20_000_000);
            (report, start.elapsed().as_secs_f64())
        };

        let mut baseline_json = String::new();
        for shards in [1usize, 4] {
            // At the full widths one cell is a whole-machine run that
            // outlasts the timing floor, so it runs once: the identity
            // assert is the point there, and events/s is informational.
            let (report, secs) = best_of(1, || run_cell(shards));
            let json = serde_json::to_string(&report).expect("report serializes");
            if baseline_json.is_empty() {
                baseline_json = json.clone();
            }
            assert_eq!(
                baseline_json, json,
                "{label}: report diverged at {shards} shards"
            );
            let mut delivered = 0u64;
            for (spec, s) in &report.flows {
                let accounted = s.delivered
                    + s.router_dropped
                    + s.queue_dropped
                    + s.policer_dropped
                    + s.link_dropped
                    + s.loss_dropped;
                assert_eq!(
                    s.sent, accounted,
                    "{label}: conservation violated on {:?}",
                    spec.name
                );
                assert!(
                    s.delivered > 0,
                    "{label}: {:?} delivered nothing",
                    spec.name
                );
                delivered += s.delivered;
            }
            assert!(delivered > 0, "{label}: no probe traffic delivered");
            let events = report.engine.total_events();
            let eps = events as f64 / secs;
            t.row(&[
                (*label).to_string(),
                nodes.to_string(),
                w.lsps.to_string(),
                labels.to_string(),
                format!("{build_secs:.1}"),
                format!("{sig_rate:.0}"),
                shards.to_string(),
                events.to_string(),
                format!("{:.1}", secs * 1e3),
                format!("{eps:.0}"),
            ]);
            // The `engine` key keeps each row paired with its earlier
            // trajectory rows in the regression gate.
            rows.push(obj(&[
                ("family", Value::Str((*label).into())),
                ("engine", Value::Str(report.engine.kind.name().into())),
                ("shards", Value::U64(shards as u64)),
                ("events", Value::U64(events)),
                ("wall_ms", Value::F64(secs * 1e3)),
                ("events_per_sec", Value::F64(eps)),
            ]));
        }
        notes.push(format!(
            "{label}: {nodes} nodes, {} tunnels + {} LSPs signaled in {build_secs:.1}s \
             ({sig_rate:.0} ops/s), {labels} labels allocated; reports byte-identical \
             across shards {{1,4}} -- OK",
            w.tunnels, w.lsps
        ));
    }
    notes.push(
        "single-shot wall times on a shared host; the identity and conservation \
         asserts are the certified claims, events/s is informational"
            .into(),
    );
    let config = vec![
        ("quick".to_string(), Value::Bool(quick)),
        ("run_ns".to_string(), Value::U64(run_ns)),
        ("seed".to_string(), Value::U64(15)),
    ];
    Section {
        bench: "ext15-scale",
        config,
        rows,
        table: t.render(),
        notes,
    }
}

// -----------------------------------------------------------------
// EXT-16: segment routing vs LDP on the same fat tree
// -----------------------------------------------------------------

/// The 36-node 4-ary fat tree (2 LERs per edge switch) with four
/// cross-pod LSPs between pods 0 and 3 — every route crosses the
/// full edge/agg/core/agg/edge diameter, so the ECMP fan-out and the
/// stack-depth sweep both have room to act. The same plane feeds the
/// LDP leg and every SR leg, so state-footprint and convergence
/// numbers compare like for like.
fn ext16_plane() -> ControlPlane {
    let topo = Topology::fat_tree(4, 2, 1_000_000_000, 10_000);
    let mut cp = ControlPlane::new(topo);
    // LERs are 20..35 edge-major: pod 0 owns 20..23, pod 3 owns 32..35.
    let pairs: [(u32, u32); 4] = [(20, 34), (21, 35), (22, 32), (23, 33)];
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let fec = Prefix::new(parse_addr(&format!("192.168.{}.0", i + 1)).unwrap(), 24);
        cp.attach_prefix(b, fec);
        cp.attach_prefix(
            a,
            Prefix::new(parse_addr(&format!("10.{}.0.0", i + 1)).unwrap(), 16),
        );
        cp.establish_lsp(LspRequest::best_effort(a, b, fec))
            .expect("cross-pod LSP signals");
    }
    cp
}

fn ext16_flows(stop_ns: u64) -> Vec<FlowSpec> {
    (0..4u32)
        .map(|i| FlowSpec {
            name: format!("x{i}"),
            ingress: [20u32, 21, 22, 23][i as usize],
            src_addr: parse_addr(&format!("10.{}.0.{}", i + 1, 7 + i)).unwrap(),
            dst_addr: parse_addr(&format!("192.168.{}.{}", i + 1, 9 + i)).unwrap(),
            payload_bytes: 256,
            precedence: 0,
            pattern: TrafficPattern::Cbr {
                interval_ns: 200_000,
            },
            start_ns: 0,
            stop_ns,
            police: None,
        })
        .collect()
}

/// Total programmed state across a config set, with the same counting
/// rule [`mpls_sr::SrFabric::state`] uses: every binding, next-hop,
/// FEC, IP route, SR policy and ECMP set is one FIB entry. Labels are
/// the level-2 bindings — one per label the owning node allocated.
fn ext16_footprint(
    configs: &std::collections::BTreeMap<mpls_control::NodeId, mpls_control::NodeConfig>,
) -> (u64, u64) {
    let mut labels = 0u64;
    let mut entries = 0u64;
    for c in configs.values() {
        labels += c.bindings.iter().filter(|b| b.level == 2).count() as u64;
        entries += (c.bindings.len()
            + c.next_hops.len()
            + c.fecs.len()
            + c.ip_routes.len()
            + c.sr_policies.len()
            + c.ecmp.len()) as u64;
    }
    (labels, entries)
}

/// EXT-16: source-routed SR against signaled LDP on the same fat tree.
///
/// One LDP leg, then SR legs over max push depth {3, 6, 12} × RLD
/// {2, 6} — the depth sweep moves routes from strict per-hop stacks
/// (no ECMP choice left) through loose-hop compression (entropy-hashed
/// fan-out across the Clos), and the RLD sweep toggles whether transit
/// nodes can read the entropy pair at all. Each leg reports:
///
/// * **state footprint** — labels allocated plus programmed FIB
///   entries network-wide: LDP pays per-FEC per-hop, SR pays one node
///   SID per node plus ingress policies;
/// * **bring-up / reconvergence** — LDP's hello+distribution wave vs
///   SR's pre-programmed t=0 start, and the service gap around a
///   mid-run link cut (LDP: withdraw wave; SR: coordinator recompile);
/// * **events/s** — data-plane throughput as a function of stack depth
///   and RLD, with per-flow conservation asserted;
/// * **identity** — every SR config's serialized report is
///   byte-identical across shards {1, 4}.
pub fn ext16_sr_vs_ldp(quick: bool) -> Section {
    let stop_ns: u64 = if quick { 10_000_000 } else { 30_000_000 };
    let down_ns: u64 = if quick { 3_000_000 } else { 8_000_000 };
    let up_ns: u64 = if quick { 8_000_000 } else { 20_000_000 };
    let horizon_ns = stop_ns + 100_000_000;
    let cp = ext16_plane();
    // The pod-0 edge switch under LERs 20/21 and its first aggregation
    // switch: on the compiled route of flows x0/x1, with an equal-cost
    // sibling for recovery to use.
    let cut = cp.topology().link_between(12, 4).expect("edge-agg link");
    let timing = SwTimingModel::default();

    let mut t = MarkdownTable::new(&[
        "control",
        "depth",
        "rld",
        "labels",
        "fib entries",
        "bring-up (ms)",
        "reconverge (ms)",
        "peak stack",
        "ecmp",
        "rld viol",
        "events/s",
    ]);
    let mut rows = Vec::new();
    let mut notes = Vec::new();

    let check_flows = |label: &str, report: &SimReport| {
        for (spec, s) in &report.flows {
            let accounted = s.delivered
                + s.router_dropped
                + s.queue_dropped
                + s.policer_dropped
                + s.link_dropped
                + s.loss_dropped;
            assert_eq!(
                s.sent, accounted,
                "{label}: conservation violated on {:?}",
                spec.name
            );
            assert!(
                s.delivered > 0,
                "{label}: {:?} delivered nothing",
                spec.name
            );
        }
    };

    // ---- LDP leg ----------------------------------------------------
    let run_ldp = || {
        let mut sim = Simulation::build(
            &cp,
            RouterKind::SoftwareHash { timing },
            QueueDiscipline::Fifo { capacity: 64 },
            16,
        );
        sim.enable_ldp(LdpConfig::default());
        let mut plan = FaultPlan::new(RestorationPolicy::default());
        plan.outage(cut, down_ns, up_ns);
        sim.set_fault_plan(plan);
        for f in ext16_flows(stop_ns) {
            sim.add_flow(f);
        }
        let start = Instant::now();
        let report = sim.run(horizon_ns);
        (report, start.elapsed().as_secs_f64())
    };
    let (ldp_report, ldp_secs) = best_of(3, run_ldp);
    assert_eq!(ldp_report.control.mode, ControlMode::Ldp);
    check_flows("ldp", &ldp_report);
    let ldp_bringup = ldp_report
        .control
        .convergence_ns
        .expect("LDP bring-up settles") as f64
        / 1e6;
    let ldp_rec = &ldp_report.faults[0];
    let ldp_reconverge =
        (ldp_rec.restored_ns.expect("withdraw wave reroutes") - ldp_rec.down_ns) as f64 / 1e6;
    let (ldp_labels, ldp_entries) =
        ext16_footprint(ldp_report.fibs.as_ref().expect("ldp exposes FIBs"));
    let ldp_events = ldp_report.engine.total_events();
    let ldp_eps = ldp_events as f64 / ldp_secs;
    t.row(&[
        "ldp".into(),
        "-".into(),
        "-".into(),
        ldp_labels.to_string(),
        ldp_entries.to_string(),
        format!("{ldp_bringup:.2}"),
        format!("{ldp_reconverge:.2}"),
        "1".into(),
        "-".into(),
        "-".into(),
        format!("{ldp_eps:.0}"),
    ]);
    rows.push(obj(&[
        ("control", Value::Str("ldp".into())),
        ("labels", Value::U64(ldp_labels)),
        ("fib_entries", Value::U64(ldp_entries)),
        ("bringup_ms", Value::F64(ldp_bringup)),
        ("reconverge_ms", Value::F64(ldp_reconverge)),
        ("events", Value::U64(ldp_events)),
        ("events_per_sec", Value::F64(ldp_eps)),
    ]));

    // ---- SR legs: depth x RLD sweep ---------------------------------
    let depths: [u8; 3] = [3, 6, 12];
    let rlds: [u8; 2] = [2, 6];
    for &depth in &depths {
        for &rld in &rlds {
            let cfg = SrConfig {
                max_push_depth: depth,
                rld,
                ..SrConfig::default()
            };
            let build = |shards: usize| {
                let mut sim = Simulation::build(
                    &cp,
                    RouterKind::SoftwareHash { timing },
                    QueueDiscipline::Fifo { capacity: 64 },
                    16,
                );
                sim.set_shards(shards);
                sim.enable_sr(cfg);
                let mut plan = FaultPlan::new(RestorationPolicy::default());
                plan.outage(cut, down_ns, up_ns);
                sim.set_fault_plan(plan);
                for f in ext16_flows(stop_ns) {
                    sim.add_flow(f);
                }
                sim
            };
            let state = {
                let sim = build(1);
                sim.sr_fabric().expect("sr enabled").state()
            };

            // Identity across shards {1, 4}; time the 1-shard cell
            // (best-of like every other leg).
            let run_cell = |shards: usize| {
                let sim = build(shards);
                let start = Instant::now();
                let report = sim.run(horizon_ns);
                (report, start.elapsed().as_secs_f64())
            };
            let (report, secs) = best_of(3, || run_cell(1));
            let (twin, _) = run_cell(4);
            assert_eq!(
                serde_json::to_string(&report).expect("report serializes"),
                serde_json::to_string(&twin).expect("report serializes"),
                "sr depth {depth} rld {rld}: report diverged at 4 shards"
            );

            assert_eq!(report.control.mode, ControlMode::Sr);
            check_flows(&format!("sr d{depth} r{rld}"), &report);
            let rec = &report.faults[0];
            let reconverge =
                (rec.restored_ns.expect("recompile restores") - rec.down_ns) as f64 / 1e6;
            let peak_stack = report
                .routers
                .values()
                .map(|r| r.peak_stack_depth)
                .max()
                .unwrap_or(0);
            let ecmp: u64 = report.routers.values().map(|r| r.ecmp_decisions).sum();
            let viol: u64 = report.routers.values().map(|r| r.rld_violations).sum();
            // The sweep's whole point. Depth 3 leaves one loose
            // 6-hop segment, so transit nodes face equal-cost choices:
            // ECMP engages when the RLD exposes the entropy pair, and
            // every hidden-pair lookup is counted instead. Depth 6's
            // budget (4 SIDs after the pair) cuts the route into <=2
            // hop segments — each has a unique shortest path in a fat
            // tree, so like the strict depth-12 stack there is no
            // choice left to hash over.
            if depth == 3 && rld > 2 {
                assert!(ecmp > 0, "depth {depth}/rld {rld}: loose segment must ECMP");
                assert_eq!(
                    viol, 0,
                    "depth {depth}/rld {rld}: readable pair, no violations"
                );
            }
            if depth == 3 && rld == 2 {
                assert!(
                    viol > 0,
                    "depth {depth}/rld 2: hidden pair must count violations"
                );
                assert_eq!(
                    ecmp, 0,
                    "depth {depth}/rld 2: unreadable pair must not hash"
                );
            }
            if depth >= 6 {
                assert_eq!(
                    ecmp, 0,
                    "depth {depth}: short segments leave no ECMP choice"
                );
                assert_eq!(viol, 0, "depth {depth}: no entropy lookups, no violations");
            }
            assert!(
                peak_stack as usize <= depth as usize || depth as usize >= 12,
                "depth {depth}: ingress exceeded its push budget ({peak_stack})"
            );
            let events = report.engine.total_events();
            let eps = events as f64 / secs;
            t.row(&[
                "sr".into(),
                depth.to_string(),
                rld.to_string(),
                (state.labels as u64).to_string(),
                (state.fib_entries as u64).to_string(),
                "0.00".into(),
                format!("{reconverge:.2}"),
                peak_stack.to_string(),
                ecmp.to_string(),
                viol.to_string(),
                format!("{eps:.0}"),
            ]);
            rows.push(obj(&[
                ("control", Value::Str("sr".into())),
                ("depth", Value::U64(depth as u64)),
                ("rld", Value::U64(rld as u64)),
                ("labels", Value::U64(state.labels as u64)),
                ("fib_entries", Value::U64(state.fib_entries as u64)),
                ("policies", Value::U64(state.policies as u64)),
                ("bringup_ms", Value::F64(0.0)),
                ("reconverge_ms", Value::F64(reconverge)),
                ("peak_stack", Value::U64(peak_stack)),
                ("ecmp_decisions", Value::U64(ecmp)),
                ("rld_violations", Value::U64(viol)),
                ("events", Value::U64(events)),
                ("events_per_sec", Value::F64(eps)),
            ]));
        }
    }

    notes.push("observations:".into());
    notes.push("  - state: SR allocates one node SID per node where LDP allocates a".into());
    notes.push("    label per (node, FEC) hop -- but SR pre-programs every node's".into());
    notes.push("    full SID table, so its FIB-entry floor is O(nodes^2) and larger".into());
    notes.push("    at this LSP count; LDP's grows with LSPs and crosses over at".into());
    notes.push("    scale (ext15 signals 64k LSPs on the same family);".into());
    notes.push("  - bring-up: SR routes are compiled and downloaded before t=0".into());
    notes.push("    (0 ms by construction); LDP spends its hello+distribution wave;".into());
    notes.push("  - recovery: the SR coordinator recompiles at detection, so the".into());
    notes.push("    gap is the detection delay alone; LDP adds the withdraw wave;".into());
    notes.push("  - depth sweep: depth 12 fits the strict per-hop stack and depth 6".into());
    notes.push("    still cuts the route into uniquely-routed <=2-hop segments, so".into());
    notes.push("    neither leaves an ECMP choice; depth 3 compresses to one loose".into());
    notes.push("    segment that hashes across the Clos when the RLD exposes the".into());
    notes.push("    entropy pair, and falls back to first-next-hop (counted) when not.".into());
    notes.push("".into());
    notes.push(
        "sr reports byte-identical across shards {1,4} at every depth/RLD point -- OK".into(),
    );
    let config = vec![
        ("quick".to_string(), Value::Bool(quick)),
        ("stop_ns".to_string(), Value::U64(stop_ns)),
        ("down_ns".to_string(), Value::U64(down_ns)),
        ("up_ns".to_string(), Value::U64(up_ns)),
        ("seed".to_string(), Value::U64(16)),
    ];
    Section {
        bench: "ext16-sr-vs-ldp",
        config,
        rows,
        table: t.render(),
        notes,
    }
}

/// Figure-1 plane (fast north path, slow southern detour) with one
/// best-effort LSP 0 -> 1; the EXT-17 flows all ride it.
fn ext17_plane() -> ControlPlane {
    let mut cp = ControlPlane::new(Topology::figure1_example());
    cp.establish_lsp(LspRequest::best_effort(
        0,
        1,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .expect("LSP signals");
    cp
}

/// EXT-17: open- vs closed-loop traffic through a fault/restoration
/// window.
///
/// Four parallel sources from LER 0 to LER 1, run once open-loop
/// (Poisson, rate-matched to the closed-loop offered load) and once
/// closed-loop (AIMD congestion windows, ack-clocked by reverse-path
/// delivery, bounded-Pareto transfer sizes, ECN-style marks at the
/// queue threshold), each with and without a mid-run cut of the
/// northern link. The closed-loop legs must show the window visibly
/// reacting — RTO-driven collapse and retransmissions only in the
/// faulted leg, recovery (deliveries and completions) after
/// restoration — while the open-loop source just keeps spraying into
/// the outage. Every leg asserts per-flow conservation (with
/// retransmissions accounted) and serialized-report byte-identity
/// across shards {1, 4}.
pub fn ext17_closed_loop(quick: bool) -> Section {
    let stop_ns: u64 = if quick { 25_000_000 } else { 60_000_000 };
    let (down_ns, up_ns): (u64, u64) = if quick {
        (6_000_000, 14_000_000)
    } else {
        (12_000_000, 30_000_000)
    };
    let horizon_ns = stop_ns + 60_000_000;
    let cp = ext17_plane();
    let cut = cp.topology().link_between(2, 3).expect("northern link");
    let payload_bytes = 500usize;

    // Closed-loop knobs sized to the figure-1 RTT (~3 ms north): the
    // RTO clears the clean-path RTT with slack but trips on the slow
    // southern detour, so the faulted leg shows real timeouts.
    let cl = ClosedLoopSpec {
        mean_arrival_ns: 300_000,
        size_min_pkts: 4,
        size_max_pkts: 32,
        max_cwnd: 16,
        rto_ns: 6_000_000,
        ecn_threshold: 5,
        sla_fct_ns: 15_000_000,
        ..ClosedLoopSpec::default()
    };
    // The open-loop twin offers roughly the same load: mean transfer
    // near 9 packets every 300 us per source ~= one packet per 33 us.
    let open = TrafficPattern::Poisson {
        mean_interval_ns: 33_000,
    };

    let flows = |pattern: &TrafficPattern| -> Vec<FlowSpec> {
        (0..4u32)
            .map(|i| FlowSpec {
                name: format!("app{i}"),
                ingress: 0,
                src_addr: parse_addr(&format!("10.0.0.{}", i + 1)).unwrap(),
                dst_addr: parse_addr(&format!("192.168.1.{}", i + 1)).unwrap(),
                payload_bytes,
                precedence: 0,
                pattern: *pattern,
                start_ns: 0,
                stop_ns,
                police: None,
            })
            .collect()
    };

    let mut t = MarkdownTable::new(&[
        "traffic",
        "faults",
        "sent",
        "delivered",
        "goodput (Mb/s)",
        "xfers",
        "mean FCT (ms)",
        "retx",
        "ecn",
        "cwnd cuts",
        "peak cwnd",
        "sla viol",
        "events/s",
    ]);
    let mut rows = Vec::new();
    let mut notes = Vec::new();

    for (kind, pattern) in [("open", open), ("closed", TrafficPattern::ClosedLoop(cl))] {
        for with_fault in [false, true] {
            let leg = format!("{kind}/{}", if with_fault { "fault" } else { "clean" });
            let specs = flows(&pattern);
            let build = |shards: usize| {
                let mut sim = Simulation::build(
                    &cp,
                    RouterKind::Embedded {
                        clock: ClockSpec::STRATIX_50MHZ,
                    },
                    QueueDiscipline::Fifo { capacity: 64 },
                    17,
                );
                sim.set_shards(shards);
                if with_fault {
                    let mut plan = FaultPlan::new(RestorationPolicy::default());
                    plan.outage(cut, down_ns, up_ns);
                    sim.set_fault_plan(plan);
                }
                for f in &specs {
                    sim.add_flow(f.clone());
                }
                sim
            };
            let run_cell = |shards: usize| {
                let sim = build(shards);
                let start = Instant::now();
                let report = sim.run(horizon_ns);
                (report, start.elapsed().as_secs_f64())
            };
            let (report, secs) = best_of(3, || run_cell(1));

            // Identity across shards {1, 4}.
            let (twin, _) = run_cell(4);
            assert_eq!(
                serde_json::to_string(&report).expect("report serializes"),
                serde_json::to_string(&twin).expect("report serializes"),
                "{leg}: report diverged at 4 shards"
            );

            // Conservation with retransmissions accounted, per flow.
            let mut sent = 0u64;
            let mut delivered = 0u64;
            let mut retx = 0u64;
            let mut ecn = 0u64;
            let mut cuts = 0u64;
            let mut peak = 0u64;
            let mut started = 0u64;
            let mut completed = 0u64;
            let mut fct_sum = 0u64;
            let mut sla = 0u64;
            let mut link_drops = 0u64;
            let mut last_delivery = 0u64;
            for (spec, s) in &report.flows {
                let drops = s.router_dropped
                    + s.queue_dropped
                    + s.policer_dropped
                    + s.link_dropped
                    + s.loss_dropped;
                assert_eq!(
                    s.sent,
                    s.delivered + drops,
                    "{leg}: conservation violated on {:?}",
                    spec.name
                );
                assert!(s.retransmits <= s.sent);
                sent += s.sent;
                delivered += s.delivered;
                retx += s.retransmits;
                ecn += s.ecn_marks;
                cuts += s.cwnd_cuts;
                peak = peak.max(s.cwnd_peak);
                started += s.transfers_started;
                completed += s.transfers_completed;
                fct_sum += s.fct_sum_ns;
                sla += s.sla_violations;
                link_drops += s.link_dropped;
                last_delivery = last_delivery.max(s.last_delivery_ns);
            }

            if kind == "closed" {
                assert!(started > 0 && completed > 0, "{leg}: no transfers moved");
                assert!(peak > 1, "{leg}: the window never opened past 1");
                if with_fault {
                    // Decrease on loss: the outage strands in-flight
                    // packets; the RTO collapses the window and re-sends.
                    assert!(link_drops > 0, "{leg}: outage claimed no packet");
                    assert!(retx > 0, "{leg}: outage provoked no retransmission");
                    assert!(cuts > 0, "{leg}: loss never cut a window");
                    // Recovery after restoration.
                    assert!(
                        last_delivery > up_ns,
                        "{leg}: no deliveries after restoration ({last_delivery})"
                    );
                } else {
                    assert_eq!(retx, 0, "{leg}: clean path must never time out");
                }
            } else if with_fault {
                assert!(link_drops > 0, "{leg}: outage claimed no packet");
            }

            let goodput_mbps =
                (delivered as f64 * payload_bytes as f64 * 8.0) / (stop_ns as f64 / 1e9) / 1e6;
            let mean_fct_ms = if completed > 0 {
                fct_sum as f64 / completed as f64 / 1e6
            } else {
                0.0
            };
            let events = report.engine.total_events();
            let eps = events as f64 / secs;
            t.row(&[
                kind.into(),
                if with_fault { "outage" } else { "none" }.into(),
                sent.to_string(),
                delivered.to_string(),
                format!("{goodput_mbps:.2}"),
                if kind == "closed" {
                    format!("{completed}/{started}")
                } else {
                    "-".into()
                },
                if kind == "closed" {
                    format!("{mean_fct_ms:.2}")
                } else {
                    "-".into()
                },
                retx.to_string(),
                ecn.to_string(),
                cuts.to_string(),
                peak.to_string(),
                sla.to_string(),
                format!("{eps:.0}"),
            ]);
            rows.push(obj(&[
                ("traffic", Value::Str(kind.into())),
                ("fault", Value::Bool(with_fault)),
                ("sent", Value::U64(sent)),
                ("delivered", Value::U64(delivered)),
                ("goodput_mbps", Value::F64(goodput_mbps)),
                ("transfers_started", Value::U64(started)),
                ("transfers_completed", Value::U64(completed)),
                ("mean_fct_ms", Value::F64(mean_fct_ms)),
                ("retransmits", Value::U64(retx)),
                ("ecn_marks", Value::U64(ecn)),
                ("cwnd_cuts", Value::U64(cuts)),
                ("cwnd_peak", Value::U64(peak)),
                ("sla_violations", Value::U64(sla)),
                ("events", Value::U64(events)),
                ("events_per_sec", Value::F64(eps)),
            ]));
        }
    }

    notes.push("observations:".into());
    notes.push("  - the open-loop source sprays at its configured rate regardless of".into());
    notes.push("    the outage: deliveries stop but emissions (and drops) continue;".into());
    notes.push("  - the closed-loop source reacts: stranded in-flight packets hit the".into());
    notes.push("    RTO, the window collapses to 1 and re-sends, so the same outage".into());
    notes.push("    converts into retransmissions + window cuts instead of raw loss;".into());
    notes.push("  - after restoration the closed-loop flows resume completing".into());
    notes.push("    transfers (deliveries past the link-up timestamp), the visible".into());
    notes.push("    recovery half of the AIMD story;".into());
    notes.push("  - ECN marks at the queue threshold halve windows at most once per".into());
    notes.push("    window even on the clean path, keeping clean-path retransmits at 0.".into());
    notes.push("".into());
    notes.push("all four legs byte-identical across shards {1,4} -- OK".into());

    let config = vec![
        ("quick".to_string(), Value::Bool(quick)),
        ("stop_ns".to_string(), Value::U64(stop_ns)),
        ("down_ns".to_string(), Value::U64(down_ns)),
        ("up_ns".to_string(), Value::U64(up_ns)),
        ("seed".to_string(), Value::U64(17)),
    ];
    Section {
        bench: "ext17-closed-loop",
        config,
        rows,
        table: t.render(),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(selected: &[(&'static str, SectionFn)]) -> Vec<&'static str> {
        selected.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn each_id_selects_exactly_its_section() {
        for (id, _) in SECTIONS {
            assert_eq!(ids(&select(&[id]).unwrap()), [id]);
        }
        let picked = select(&["ext17", "ext10", "ext17"]).unwrap();
        assert_eq!(ids(&picked), ["ext10", "ext17"]);
    }

    #[test]
    fn an_unknown_id_is_an_error_listing_the_valid_ids() {
        for bad in [&["nope"][..], &[""], &["ext10", ""], &["ext10-scaling"]] {
            let err = select(bad).unwrap_err();
            assert!(
                err.contains("valid: ext10, ext11, ext12, ext15, ext16, ext17"),
                "{bad:?}: {err}"
            );
        }
    }
}

//! The traced run: where host time goes, layer by layer.
//!
//! It has three parts, all timed from outside the library:
//!
//! 1. The three differential pairs, each on its home workload and in
//!    alternating order for several rounds: `rtl-grid` against its
//!    software-router twin, `fabric` at 1 shard against 2 shards (whose
//!    reports must be byte-identical), `ldp-churn` against its
//!    outage-free twin. The traced workload's pair adds a third leg, the
//!    same simulation with the span recorder off, so `trace.overhead`
//!    compares medians of traced and untraced runs taken in turn.
//! 2. The traced workload itself, once, with spans around every call:
//!    signaling, `config_for` over every node, `RouterKind::build` over
//!    every node, `Simulation::build`, `enable_ldp`, the fault plan, the
//!    flows and `Simulation::run`. Its report gives the workload's
//!    counters.
//! 3. Microbenchmarks at workload state: router transit per kind, the
//!    modifier search and the `HashFib` lookup.
//!
//! Parts 1 and 3 measure the same rows whichever workload is traced, so
//! every row is measured (never a placeholder) in every traced run.

use crate::micro::{self, median, Loop};
use crate::trace::Spans;
use crate::workload::{self, Plane, Size, Variant, Workload};
use mpls_control::RouterRole;
use mpls_net::{EngineStats, SimReport};
use serde::Value;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Differential rounds always run, even past the time budget.
const MIN_ROUNDS: usize = 3;
/// Differential rounds never exceed this.
const MAX_ROUNDS: usize = 9;

/// Metrics and diagnostics collected by the traced run.
#[derive(Default)]
struct Ledger {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts one simulation and records its check failures.
    fn checked(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        self.problems
            .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
    }

    fn loop_note(&mut self, name: &str, l: &Loop, at: String) {
        self.notes.push(format!(
            "{name}: {:.1} ns/op, median of {} batches x {} ops, {at}",
            l.ns_per_op, l.batches, l.ops_per_batch
        ));
    }
}

/// One simulation of `plane` under `variant`, with `setup` and `net.run`
/// spans under a fresh run id. Returns the report and `run_s`, timed
/// around the `net.run` span so that a recorder that is off and one that
/// is on are timed alike.
fn timed(
    w: Workload,
    plane: &Plane,
    variant: Variant,
    seed: u64,
    spans: &mut Spans,
) -> (SimReport, f64, u32) {
    let run = spans.next_run();
    let sim = spans.span("setup", |s| w.simulation(plane, variant, seed, s));
    let t = Instant::now();
    let report = spans.span("net.run", |_| sim.run(plane.horizon_ns));
    (report, t.elapsed().as_secs_f64(), run)
}

/// Part 2: the workload as defined, with every setup call spanned.
fn traced(w: Workload, size: &Size, seed: u64, spans: &mut Spans) -> (Plane, SimReport, u32) {
    let run = spans.next_run();
    let variant = w.variant();
    let (plane, sim) = spans.span("setup", |s| {
        let plane = w.plane(size, seed, s);
        // `Simulation::build` runs both passes internally; repeating them
        // from outside shows each layer's share of the build.
        let nodes = plane.cp.topology().nodes();
        let configs = s.span("control.config_for", |_| {
            nodes
                .iter()
                .map(|n| plane.cp.config_for(n.id))
                .collect::<Vec<_>>()
        });
        s.span("router.build", |_| {
            for (n, cfg) in nodes.iter().zip(&configs) {
                black_box(variant.kind.build(n.id, n.role, cfg));
            }
        });
        drop(configs);
        let sim = w.simulation(&plane, variant, seed, s);
        (plane, sim)
    });
    let report = spans.span("net.run", |_| sim.run(plane.horizon_ns));
    (plane, report, run)
}

/// One simulation in a differential round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// The workload as defined, spans on.
    Primary,
    /// The differential twin, spans on.
    Twin,
    /// The workload as defined, spans off (traced workload only).
    Untraced,
}

/// Run times of one differential pair over the rounds.
#[derive(Default)]
struct Pair {
    primary: Vec<f64>,
    twin: Vec<f64>,
    /// Primary runs with the span recorder off (traced workload only).
    untraced: Vec<f64>,
    /// `enable_ldp` span of every run (`ldp-churn` only).
    enable: Vec<f64>,
    /// Digest of the primary report; must not change between runs.
    digest: Option<u64>,
    /// Simulated cycles of the primary report.
    cycles: u64,
    /// Engine counters of the twin report (`fabric`: the 2-shard run).
    twin_engine: EngineStats,
}

/// Runs the traced run for `w`, writes its spans to `spans_path` and
/// prints its per-layer metrics.
pub fn run(w: Workload, seed: u64, seconds: f64, spans_path: &str) -> ExitCode {
    let (mut l, spans) = measure(w, &Size::FULL, seed, seconds);
    let spans_json = serde_json::to_string_pretty(&spans.to_json()).expect("spans serialize");
    if let Err(e) = std::fs::write(spans_path, spans_json) {
        l.problems
            .push(format!("writing spans to {spans_path}: {e}"));
    }
    print(w, seed, &l);
    if l.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        for p in &l.problems {
            eprintln!("check failed: {p}");
        }
        ExitCode::FAILURE
    }
}

/// The three parts of the traced run; part 1 keeps adding rounds while
/// `seconds` last.
fn measure(w: Workload, size: &Size, seed: u64, seconds: f64) -> (Ledger, Spans) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut spans = Spans::on();
    let mut l = Ledger::default();

    // ---- Part 1: the differential pairs on their home workloads -----
    let mut planes: Vec<(Workload, Plane)> = Vec::new();
    for h in Workload::ALL {
        spans.next_run();
        planes.push((h, h.plane(size, seed, &mut spans)));
    }
    let mut pairs: Vec<Pair> = (0..planes.len()).map(|_| Pair::default()).collect();
    let mut rounds = 0;
    let mut last_round = Duration::ZERO;
    while rounds < MIN_ROUNDS || (rounds < MAX_ROUNDS && started.elapsed() + last_round < budget) {
        let t = Instant::now();
        for ((h, plane), pair) in planes.iter().zip(&mut pairs) {
            let mut order = vec![(Leg::Primary, h.variant()), (Leg::Twin, h.twin())];
            if *h == w {
                order.push((Leg::Untraced, h.variant()));
            }
            if rounds % 2 == 1 {
                order.reverse();
            }
            let mut jsons = Vec::new();
            for (leg, v) in order {
                let mut off = Spans::off();
                let recorder = if leg == Leg::Untraced {
                    &mut off
                } else {
                    &mut spans
                };
                let (rep, run_s, run) = timed(*h, plane, v, seed, recorder);
                let what = match leg {
                    Leg::Primary => "run",
                    Leg::Twin => "twin",
                    Leg::Untraced => "untraced run",
                };
                l.checked(
                    &format!("{} {what}", h.name()),
                    workload::check(*h, v, plane, &rep),
                );
                let json = serde_json::to_string(&rep).expect("report serializes");
                if *h == Workload::LdpChurn && leg != Leg::Untraced {
                    pair.enable.push(spans.seconds(run, "ldp.enable"));
                }
                match leg {
                    Leg::Primary => pair.primary.push(run_s),
                    Leg::Twin => {
                        pair.twin.push(run_s);
                        pair.twin_engine = rep.engine.clone();
                    }
                    Leg::Untraced => pair.untraced.push(run_s),
                }
                if leg != Leg::Twin {
                    pair.cycles = rep.routers.values().map(|r| r.total_cycles).sum();
                    let d = workload::digest(&json);
                    if *pair.digest.get_or_insert(d) != d {
                        l.problems
                            .push(format!("{}: report changed between runs", h.name()));
                    }
                }
                if leg != Leg::Untraced {
                    jsons.push(json);
                }
            }
            // The identity contract: shard count never changes the report.
            if *h == Workload::Fabric && jsons[0] != jsons[1] {
                l.problems
                    .push("fabric: 1-shard and 2-shard reports differ".into());
            }
        }
        last_round = t.elapsed();
        rounds += 1;
    }
    // ---- Part 2: the traced workload itself ---------------------------
    let (plane, report, run) = traced(w, size, seed, &mut spans);
    l.checked(
        "traced run",
        workload::check(w, w.variant(), &plane, &report),
    );
    let traced_digest =
        workload::digest(&serde_json::to_string(&report).expect("report serializes"));
    workload_rows(&mut l, &spans, run, &plane, &report);
    // A second copy of one of `planes`; free it before the loops.
    drop((plane, report));

    let pair_of = |h: Workload| &pairs[Workload::ALL.iter().position(|x| *x == h).expect("known")];
    if pair_of(w).digest != Some(traced_digest) {
        l.problems
            .push("the traced report differs from the untraced one".into());
    }
    l.notes.push(format!("differential rounds: {rounds}"));

    let rtl = pair_of(Workload::RtlGrid);
    let (emb, sw) = (median(rtl.primary.clone()), median(rtl.twin.clone()));
    l.metric("router.embedded_share", 1.0 - sw / emb, "ratio");
    l.metric(
        "core.ns_per_cycle",
        (emb - sw) * 1e9 / rtl.cycles as f64,
        "ns/cycle",
    );
    l.notes.push(format!(
        "rtl-grid run_s: embedded {emb:.4} s, software twin {sw:.4} s, {} cycles",
        rtl.cycles
    ));
    let fab = pair_of(Workload::Fabric);
    let (one, two) = (median(fab.primary.clone()), median(fab.twin.clone()));
    l.metric("engine.speedup", one / two, "ratio");
    let e = &fab.twin_engine;
    l.metric("engine.rounds", e.epochs as f64, "count");
    let shard_sum: u64 = e.shard_events.iter().sum();
    let max = e.shard_events.iter().copied().max().unwrap_or(0);
    let imbalance = if shard_sum == 0 {
        0.0
    } else {
        max as f64 * e.shard_events.len() as f64 / shard_sum as f64
    };
    l.metric("engine.shard_imbalance", imbalance, "ratio");
    l.notes.push(format!(
        "fabric run_s: 1 shard {one:.4} s, 2 shards {two:.4} s; \
         2-shard rounds {}, per-shard events {:?}",
        e.epochs, e.shard_events
    ));
    let ldp = pair_of(Workload::LdpChurn);
    let (churn, calm) = (median(ldp.primary.clone()), median(ldp.twin.clone()));
    l.metric("ldp.enable_s", median(ldp.enable.clone()), "s");
    l.metric("ldp.reconverge_s", churn - calm, "s");
    l.notes.push(format!(
        "ldp-churn run_s: with outages {churn:.4} s, without {calm:.4} s"
    ));
    let own = pair_of(w);
    let (on, off) = (median(own.primary.clone()), median(own.untraced.clone()));
    l.metric("trace.overhead", on / off - 1.0, "ratio");
    l.notes.push(format!(
        "{} run_s: spans on {on:.4} s, spans off {off:.4} s",
        w.name()
    ));

    // ---- Part 3: microbenchmarks at workload state -------------------
    for (h, plane) in &planes {
        match h {
            Workload::RtlGrid => rtl_loops(&mut l, plane),
            Workload::Fabric => fabric_loops(&mut l, plane),
            Workload::LdpChurn => {}
        }
    }
    (l, spans)
}

/// Counters and span times of the traced workload itself.
fn workload_rows(l: &mut Ledger, spans: &Spans, run: u32, plane: &Plane, report: &SimReport) {
    let signal_s = spans.seconds(run, "control.signal");
    l.metric("control.signal_s", signal_s, "s");
    l.metric("control.lsps_per_s", plane.lsps as f64 / signal_s, "1/s");
    l.metric(
        "control.labels",
        plane.cp.labels_allocated() as f64,
        "count",
    );
    l.metric(
        "control.config_for_s",
        spans.seconds(run, "control.config_for"),
        "s",
    );
    l.metric("router.build_s", spans.seconds(run, "router.build"), "s");
    l.metric("net.build_s", spans.seconds(run, "net.build"), "s");

    let routers = report.routers.values();
    l.metric(
        "router.transits",
        workload::transits(report) as f64,
        "count",
    );
    l.metric(
        "core.cycles",
        routers.clone().map(|r| r.total_cycles).sum::<u64>() as f64,
        "count",
    );
    let lookups: u64 = routers.clone().map(|r| r.fib_lookups).sum();
    let hits: u64 = routers.clone().map(|r| r.cache_hits).sum();
    let misses: u64 = routers.map(|r| r.cache_misses).sum();
    l.metric("dataplane.fib_lookups", lookups as f64, "count");
    l.metric("dataplane.cache_hits", hits as f64, "count");
    l.metric("dataplane.cache_misses", misses as f64, "count");
    let probes = hits + misses;
    let ratio = if probes == 0 {
        0.0
    } else {
        hits as f64 / probes as f64
    };
    l.metric("dataplane.cache_hit_ratio", ratio, "ratio");
    l.notes
        .push(format!("flow cache: {hits} hits / {probes} probes"));

    let e = &report.engine;
    l.metric("engine.events", e.total_events() as f64, "count");
    l.metric("engine.global_events", e.global_events as f64, "count");
    l.notes.push(format!(
        "engine: {} kind, {} shard(s), per-shard events {:?}",
        e.kind.name(),
        e.shards,
        e.shard_events
    ));

    let sent: u64 = report.flows.iter().map(|(_, s)| s.sent).sum();
    let delivered: u64 = report.flows.iter().map(|(_, s)| s.delivered).sum();
    l.metric(
        "net.delivered_ratio",
        delivered as f64 / sent.max(1) as f64,
        "ratio",
    );
    l.metric("net.queue_drops", report.queue_drops as f64, "count");
    l.metric("net.link_drops", report.link_drops as f64, "count");
    l.notes
        .push(format!("traffic: {delivered} of {sent} packets delivered"));

    let c = &report.control;
    l.metric("ldp.pdus", c.pdus_sent as f64, "count");
    l.metric("ldp.pdus_lost", c.pdus_lost as f64, "count");
    l.metric("ldp.session_downs", c.session_downs as f64, "count");
}

/// `rtl-grid` loops at its busiest transit LSR.
fn rtl_loops(l: &mut Ledger, plane: &Plane) {
    let (node, role, cfg) = micro::fullest_node(&plane.cp, Some(RouterRole::Lsr));
    let packets = micro::arrivals(&plane.cp, workload::embedded(), node);
    let at = format!(
        "rtl-grid LSR {node}: {} level-2 pairs, {} arriving packets",
        cfg.bindings.iter().filter(|b| b.level == 2).count(),
        packets.len()
    );
    let transit = micro::embedded_transit(node, role, &cfg, &packets);
    l.metric("router.transit_ns.embedded", transit.ns_per_op, "ns");
    l.loop_note("router.transit_ns.embedded", &transit, at.clone());
    let search = micro::modifier_search(role, &cfg, 2);
    l.metric("core.search_ns", search.ns_per_op, "ns");
    l.loop_note("core.search_ns", &search, at);
}

/// `fabric` loops at its largest node table.
fn fabric_loops(l: &mut Ledger, plane: &Plane) {
    let (node, role, cfg) = micro::fullest_node(&plane.cp, None);
    let (level, entries) = micro::largest_level(&cfg);
    let packets = micro::arrivals(&plane.cp, workload::software_fast(), node);
    let at = format!(
        "fabric node {node}: level {level} holds {entries} entries, {} arriving packets",
        packets.len()
    );
    let transit = micro::software_fast_transit(node, role, &cfg, &packets);
    l.metric("router.transit_ns.software_fast", transit.ns_per_op, "ns");
    l.loop_note("router.transit_ns.software_fast", &transit, at.clone());
    let get = micro::fib_get(&cfg, level);
    l.metric("dataplane.fib_get_ns", get.ns_per_op, "ns");
    l.loop_note("dataplane.fib_get_ns", &get, at);
}

fn print(w: Workload, seed: u64, l: &Ledger) {
    let metrics = l
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let strings = |v: &[String]| Value::Seq(v.iter().map(|s| Value::Str(s.clone())).collect());
    let out = Value::Map(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::U64(seed)),
        ("attempted".into(), Value::U64(l.attempted)),
        ("failed".into(), Value::U64(l.failed)),
        ("metrics".into(), Value::Map(metrics)),
        ("notes".into(), strings(&l.notes)),
        ("problems".into(), strings(&l.problems)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&out).expect("ledger serializes")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer names and units `BENCHMARK.json` declares.
    fn declared() -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let rows = v
            .get("per_layer")
            .and_then(Value::as_seq)
            .expect("per_layer list");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
        rows.iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn traced_run_reports_every_declared_metric_and_passes_its_checks() {
        for w in [Workload::RtlGrid, Workload::LdpChurn] {
            let (l, spans) = measure(w, &Size::SMALL, 2, 0.0);
            assert!(l.problems.is_empty(), "{}: {:?}", w.name(), l.problems);
            assert_eq!(l.failed, 0);
            // Each round: a primary and a twin per workload, plus the
            // traced workload with spans off; then part 2's one run.
            let per_round = 2 * Workload::ALL.len() as u64 + 1;
            assert_eq!(
                l.attempted,
                MIN_ROUNDS as u64 * per_round + 1,
                "{}",
                w.name()
            );
            let mut got: Vec<(String, String)> = l
                .metrics
                .iter()
                .map(|&(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            let mut want = declared();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{}", w.name());
            assert!(l.metrics.iter().all(|m| m.1.is_finite()), "{}", w.name());
            let json = serde_json::to_string(&spans.to_json()).expect("spans serialize");
            for name in [
                "control.signal",
                "control.config_for",
                "router.build",
                "net.run",
            ] {
                assert!(
                    json.contains(&format!("\"{name}\"")),
                    "{}: no {name} span",
                    w.name()
                );
            }
        }
    }
}

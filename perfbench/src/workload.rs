//! The three benchmark workloads: inputs generated from a seed, driven
//! through the same public calls a user of the simulator makes.
//!
//! * `rtl-grid` — embedded (clocked RTL) routers on the EXT-10 8x8 grid,
//!   with deep level-2 tables at the transit LSRs;
//! * `fabric` — a 64k-LSP fat tree on software fast-path routers at one
//!   shard, with a two-shard twin for the traced run;
//! * `ldp-churn` — LDP on a small grid under a seed-drawn schedule of
//!   single-link outages.

use mpls_control::{ControlPlane, LinkId, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    FaultPlan, LdpConfig, QueueDiscipline, RestorationPolicy, RouterKind, ScaleFamily, ScaleSpec,
    SimReport, Simulation,
};
use mpls_router::SwTimingModel;

use crate::trace::Spans;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Embedded routers on the EXT-10 grid.
    RtlGrid,
    /// The EXT-15 quick fat tree on software fast-path routers.
    Fabric,
    /// LDP reconvergence under link churn.
    LdpChurn,
}

impl Workload {
    /// Every workload, in the order the ledger measures them.
    pub const ALL: [Workload; 3] = [Workload::RtlGrid, Workload::Fabric, Workload::LdpChurn];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RtlGrid => "rtl-grid",
            Workload::Fabric => "fabric",
            Workload::LdpChurn => "ldp-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The run configuration the workload is defined with: the router
    /// kind, the shard count, and whether the seed-drawn outages apply.
    pub fn variant(self) -> Variant {
        match self {
            Workload::RtlGrid => Variant {
                kind: embedded(),
                shards: 1,
                outages: true,
            },
            // One shard: on a host with two cores, a two-shard run slows
            // down twofold whenever anything else is runnable, so its time
            // measures the scheduler. The shard layer is measured by the
            // two-shard twin in the traced run.
            Workload::Fabric => Variant {
                kind: software_fast(),
                shards: 1,
                outages: true,
            },
            Workload::LdpChurn => Variant {
                kind: software_fast(),
                shards: 1,
                outages: true,
            },
        }
    }

    /// The differential twin the traced run compares against: `rtl-grid`
    /// on software routers, `fabric` at two shards, `ldp-churn` without
    /// its outages.
    pub fn twin(self) -> Variant {
        let v = self.variant();
        match self {
            Workload::RtlGrid => Variant {
                kind: software_fast(),
                ..v
            },
            Workload::Fabric => Variant { shards: 2, ..v },
            Workload::LdpChurn => Variant {
                outages: false,
                ..v
            },
        }
    }
}

/// The embedded router at the paper's 50 MHz Stratix clock.
pub fn embedded() -> RouterKind {
    RouterKind::Embedded {
        clock: ClockSpec::STRATIX_50MHZ,
    }
}

/// The software fast path (hash FIB plus flow cache), default timing.
pub fn software_fast() -> RouterKind {
    RouterKind::SoftwareFast {
        timing: SwTimingModel::default(),
        cache: true,
    }
}

/// The knobs one run sets; everything else stays at its default.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Router implementation at every node.
    pub kind: RouterKind,
    /// Requested shard count.
    pub shards: usize,
    /// Whether the workload's fault plan is attached.
    pub outages: bool,
}

impl Variant {
    /// Short router-kind name for printed configs.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            RouterKind::Embedded { .. } => "embedded",
            RouterKind::SoftwareFast { .. } => "software_fast",
            RouterKind::SoftwareHash { .. } => "software_hash",
            RouterKind::SoftwareLinear { .. } => "software_linear",
        }
    }
}

/// Workload dimensions. [`Size::FULL`] is what the benchmark measures;
/// [`Size::SMALL`] keeps the same shapes at a size the tests can afford.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `rtl-grid`: parallel LSPs per directed corner pair.
    pub rtl_lsps_per_pair: u32,
    /// `rtl-grid`: Poisson flows per directed corner pair.
    pub rtl_flows_per_pair: u32,
    /// `rtl-grid`: mean inter-packet gap of each flow (ns).
    pub rtl_mean_gap_ns: u64,
    /// `rtl-grid`: traffic duration (ns).
    pub rtl_traffic_ns: u64,
    /// `fabric`: fat-tree arity.
    pub fabric_k: u32,
    /// `fabric`: LSPs signaled by `ScaleSpec::build`.
    pub fabric_lsps: usize,
    /// `fabric`: CBR flows on sampled LSPs.
    pub fabric_flows: usize,
    /// `fabric`: CBR gap of each flow (ns).
    pub fabric_gap_ns: u64,
    /// `fabric`: traffic duration (ns).
    pub fabric_traffic_ns: u64,
    /// `ldp-churn`: grid side.
    pub ldp_side: u32,
    /// `ldp-churn`: prefixes attached at each LER, each an LDP FEC.
    pub ldp_prefixes_per_ler: u32,
    /// `ldp-churn`: CBR gap of each probe (ns).
    pub ldp_gap_ns: u64,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size {
        rtl_lsps_per_pair: 64,
        rtl_flows_per_pair: 16,
        rtl_mean_gap_ns: 128_000,
        rtl_traffic_ns: 12_000_000,
        fabric_k: 8,
        fabric_lsps: 64_000,
        fabric_flows: 256,
        fabric_gap_ns: 80_000,
        fabric_traffic_ns: 10_000_000,
        ldp_side: 4,
        ldp_prefixes_per_ler: 8,
        ldp_gap_ns: 200_000,
    };

    /// The same shapes, small enough for unit tests.
    #[cfg(test)]
    pub const SMALL: Size = Size {
        rtl_lsps_per_pair: 8,
        rtl_flows_per_pair: 4,
        rtl_mean_gap_ns: 64_000,
        rtl_traffic_ns: 1_000_000,
        fabric_k: 4,
        fabric_lsps: 500,
        fabric_flows: 8,
        fabric_gap_ns: 100_000,
        fabric_traffic_ns: 1_000_000,
        ldp_side: 3,
        ldp_prefixes_per_ler: 2,
        ldp_gap_ns: 200_000,
    };
}

/// splitmix64: every generated input is a pure function of the seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Independent draw streams derived from the benchmark seed, one per
/// kind of generated input.
#[derive(Debug, Clone, Copy)]
enum Stream {
    /// The simulation's own RNG seed (Poisson gaps, wire loss).
    Traffic = 1,
    /// Which LSPs the flows target.
    Targets = 2,
    /// `ScaleSpec.seed`.
    Scale = 3,
    /// The outage schedule.
    Outages = 4,
}

/// A deterministic draw sequence for one [`Stream`].
struct Draws(u64);

impl Draws {
    fn new(seed: u64, stream: Stream) -> Self {
        Draws(mix(
            seed ^ (stream as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Seed of the simulation's own RNG for benchmark seed `seed`.
fn sim_seed(seed: u64) -> u64 {
    Draws::new(seed, Stream::Traffic).next()
}

/// A signaled control plane plus everything else the seed generated:
/// the flows, the outage schedule and the horizon.
pub struct Plane {
    /// The control plane every variant is built from.
    pub cp: ControlPlane,
    /// Traffic to attach.
    pub flows: Vec<FlowSpec>,
    /// Seed-drawn outages, attached when the variant asks for them.
    pub faults: Option<FaultPlan>,
    /// LSPs signaled.
    pub lsps: usize,
    /// Simulated horizon passed to `Simulation::run`.
    pub horizon_ns: u64,
}

impl Workload {
    /// Topology and signaling, from the seed. Recorded as the
    /// `control.signal` span.
    pub fn plane(self, size: &Size, seed: u64, spans: &mut Spans) -> Plane {
        spans.span("control.signal", |_| match self {
            Workload::RtlGrid => rtl_plane(size, seed),
            Workload::Fabric => fabric_plane(size, seed),
            Workload::LdpChurn => ldp_plane(size, seed),
        })
    }

    /// A runnable simulation of `plane` under `variant`.
    pub fn simulation(
        self,
        plane: &Plane,
        variant: Variant,
        seed: u64,
        spans: &mut Spans,
    ) -> Simulation {
        let mut sim = spans.span("net.build", |_| {
            Simulation::build(
                &plane.cp,
                variant.kind,
                QueueDiscipline::Fifo { capacity: 64 },
                sim_seed(seed),
            )
        });
        sim.set_shards(variant.shards);
        if self == Workload::LdpChurn {
            spans.span("ldp.enable", |_| sim.enable_ldp(LdpConfig::default()));
        }
        if let (true, Some(plan)) = (variant.outages, &plane.faults) {
            spans.span("net.fault_plan", |_| sim.set_fault_plan(plan.clone()));
        }
        spans.span("net.add_flows", |_| {
            for f in &plane.flows {
                sim.add_flow(f.clone());
            }
        });
        sim
    }
}

// ---------------------------------------------------------------------
// rtl-grid
// ---------------------------------------------------------------------

const SIDE: u32 = 8;
const CORNERS: [u32; 4] = [0, SIDE - 1, (SIDE - 1) * SIDE, SIDE * SIDE - 1];

/// The EXT-10 grid: 8x8 LSRs with LERs at the corners, per-link salted
/// delays, and an 8x stretch on the row-2/3 and row-5/6 boundaries.
fn rtl_topology() -> Topology {
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
            let right = (c + 1 < SIDE).then(|| (id + 1, false));
            let down = (r + 1 < SIDE).then(|| (id + SIDE, true));
            for (neighbor, vertical) in [right, down].into_iter().flatten() {
                let mut delay_us = 5 + (u64::from(id) * 31 + u64::from(neighbor) * 7) % 20;
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
    topo
}

/// Directed corner pair `pair`, LSP `k` → `10.(100 + 16 pair + k/256).(k%256).0/24`.
fn rtl_prefix(pair: u32, k: u32) -> Prefix {
    let addr = (10 << 24) | ((100 + 16 * pair + k / 256) << 16) | ((k % 256) << 8);
    Prefix::new(addr, 24)
}

fn rtl_plane(size: &Size, seed: u64) -> Plane {
    let mut cp = ControlPlane::new(rtl_topology());
    let lsps = size.rtl_lsps_per_pair;
    for (pair, &ingress) in (0u32..).zip(CORNERS.iter()) {
        let egress = CORNERS[3 - pair as usize];
        for k in 0..lsps {
            cp.attach_prefix(egress, rtl_prefix(pair, k));
            cp.establish_lsp(LspRequest::best_effort(
                ingress,
                egress,
                rtl_prefix(pair, k),
            ))
            .expect("grid LSP signals");
        }
    }
    // Stratified targets: flow `f` rides a seed-drawn LSP of its own
    // slice of the pair's LSPs, so every seed spreads the flows over the
    // whole table and the mean search depth barely depends on the seed.
    let mut targets = Draws::new(seed, Stream::Targets);
    let flows_per_pair = size.rtl_flows_per_pair;
    let slice = (lsps / flows_per_pair).max(1);
    let mut flows = Vec::new();
    for (pair, &ingress) in (0u32..).zip(CORNERS.iter()) {
        for f in 0..flows_per_pair {
            let k = (f * slice + targets.below(u64::from(slice)) as u32) % lsps;
            flows.push(FlowSpec {
                name: format!("pair{pair}-flow{f}"),
                ingress,
                src_addr: (10 << 24) | (pair << 8) | (f + 1),
                dst_addr: rtl_prefix(pair, k).addr | 10,
                payload_bytes: 500,
                precedence: 0,
                pattern: TrafficPattern::Poisson {
                    mean_interval_ns: size.rtl_mean_gap_ns,
                },
                start_ns: 0,
                stop_ns: size.rtl_traffic_ns,
                police: None,
            });
        }
    }
    Plane {
        cp,
        flows,
        faults: None,
        lsps: (lsps * 4) as usize,
        horizon_ns: size.rtl_traffic_ns + 20_000_000,
    }
}

// ---------------------------------------------------------------------
// fabric
// ---------------------------------------------------------------------

fn fabric_plane(size: &Size, seed: u64) -> Plane {
    let spec = ScaleSpec {
        family: ScaleFamily::FatTree {
            k: size.fabric_k,
            lers_per_edge: 6,
        },
        lsps_total: size.fabric_lsps,
        tunnel_strides: if size.fabric_k >= 8 { 4 } else { 2 },
        flows: size.fabric_flows,
        payload_bytes: 256,
        flow_interval_ns: size.fabric_gap_ns,
        flow_start_ns: 0,
        flow_stop_ns: size.fabric_traffic_ns,
        bandwidth_bps: 10_000_000_000,
        delay_ns: 10_000,
        seed: Draws::new(seed, Stream::Scale).next(),
    };
    let w = spec.build().expect("scale workload signals");
    Plane {
        cp: w.cp,
        flows: w.flows,
        faults: None,
        lsps: w.lsps + w.tunnels,
        horizon_ns: size.fabric_traffic_ns + 20_000_000,
    }
}

// ---------------------------------------------------------------------
// ldp-churn
// ---------------------------------------------------------------------

/// First outage, after LDP bring-up has converged (ns).
const LDP_FIRST_OUTAGE_NS: u64 = 10_000_000;
/// Outage start-to-start spacing (ns).
const LDP_PERIOD_NS: u64 = 6_000_000;
/// Each outage's length (ns): past the default hold time plus a hello,
/// so every outage is detected and triggers a withdraw/remap wave.
const LDP_DOWN_NS: u64 = 5_000_000;

fn ldp_plane(size: &Size, seed: u64) -> Plane {
    let side = size.ldp_side;
    let topo = Topology::grid(side, 1_000_000_000, 20_000);
    let lers: Vec<u32> = (0..4).map(|i| side * side + i).collect();
    // LER access links stay up: cutting one would strand its LER, and
    // the schedule is meant to reconverge after every outage.
    let core_links: Vec<LinkId> = topo
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| !lers.contains(&l.a) && !lers.contains(&l.b))
        .map(|(i, _)| i as LinkId)
        .collect();
    let mut cp = ControlPlane::new(topo);
    // LER `j` owns `172.(16 + j).p.0/24` for every p; LDP originates each
    // as a FEC, so every outage withdraws and remaps all of them. The
    // probes ride p = 0.
    let prefix = |j: u32, p: u32| Prefix::new((172 << 24) | ((16 + j) << 16) | (p << 8), 24);
    let fec = |j: u32| prefix(j, 0);
    for (j, &ler) in (0u32..).zip(&lers) {
        for p in 0..size.ldp_prefixes_per_ler {
            cp.attach_prefix(ler, prefix(j, p));
        }
    }
    let mut flows = Vec::new();
    let mut lsps = 0;
    for (i, &from) in (0u32..).zip(&lers) {
        for (j, &to) in (0u32..).zip(&lers) {
            if i == j {
                continue;
            }
            cp.establish_lsp(LspRequest::best_effort(from, to, fec(j)))
                .expect("grid LSP signals");
            lsps += 1;
            flows.push(FlowSpec {
                name: format!("probe{i}-{j}"),
                ingress: from,
                src_addr: fec(i).addr | 5,
                dst_addr: fec(j).addr | 9,
                payload_bytes: 200,
                precedence: 0,
                pattern: TrafficPattern::Cbr {
                    interval_ns: size.ldp_gap_ns,
                },
                start_ns: 0,
                stop_ns: 0, // set below, once the schedule's end is known
                police: None,
            });
        }
    }
    // Every core link goes down exactly once, in a seed-drawn order, so
    // the seed moves the schedule but hardly the amount of work.
    let mut order = core_links;
    let mut draws = Draws::new(seed, Stream::Outages);
    for i in (1..order.len()).rev() {
        order.swap(i, draws.below(i as u64 + 1) as usize);
    }
    let mut plan = FaultPlan::new(RestorationPolicy::default());
    let mut at = LDP_FIRST_OUTAGE_NS;
    for link in order {
        plan.outage(link, at, at + LDP_DOWN_NS);
        at += LDP_PERIOD_NS;
    }
    let stop_ns = at + LDP_PERIOD_NS;
    for f in &mut flows {
        f.stop_ns = stop_ns;
    }
    Plane {
        cp,
        flows,
        faults: Some(plan),
        lsps,
        horizon_ns: stop_ns + 20_000_000,
    }
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/// Untimed output checks of one finished run; returns every violation.
///
/// * per-flow conservation: `sent` equals delivered plus every drop class;
/// * every flow delivers;
/// * on `ldp-churn` with outages: bring-up converges and every outage
///   record is restored.
pub fn check(
    workload: Workload,
    variant: Variant,
    plane: &Plane,
    report: &SimReport,
) -> Vec<String> {
    let mut bad = Vec::new();
    if report.flows.len() != plane.flows.len() {
        bad.push(format!(
            "{} flows reported, {} attached",
            report.flows.len(),
            plane.flows.len()
        ));
    }
    for (spec, s) in &report.flows {
        let accounted = s.delivered
            + s.router_dropped
            + s.queue_dropped
            + s.policer_dropped
            + s.link_dropped
            + s.loss_dropped;
        if s.sent != accounted {
            bad.push(format!(
                "flow {}: sent {} != accounted {accounted}",
                spec.name, s.sent
            ));
        }
        if s.delivered == 0 {
            bad.push(format!("flow {}: delivered nothing", spec.name));
        }
    }
    if workload == Workload::LdpChurn {
        if report.control.convergence_ns.is_none() {
            bad.push("ldp bring-up never converged".into());
        }
        let expected = if variant.outages {
            plane.faults.as_ref().map_or(0, |p| p.events.len() / 2)
        } else {
            0
        };
        if report.faults.len() != expected {
            bad.push(format!(
                "{} outage records, {expected} outages scheduled",
                report.faults.len()
            ));
        }
        for (i, rec) in report.faults.iter().enumerate() {
            if rec.restored_ns.is_none() {
                bad.push(format!("outage {i} on link {} never restored", rec.link));
            }
        }
    }
    bad
}

/// Router transits: the sum of every router's `packets_in`.
pub fn transits(report: &SimReport) -> u64 {
    report.routers.values().map(|r| r.packets_in).sum()
}

/// FNV-1a 64 over a report's serialized form. A change that only moves
/// speed must leave it unchanged.
pub fn digest(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(w: Workload, v: Variant, seed: u64) -> (Plane, SimReport) {
        let mut spans = Spans::off();
        let plane = w.plane(&Size::SMALL, seed, &mut spans);
        let sim = w.simulation(&plane, v, seed, &mut spans);
        let report = sim.run(plane.horizon_ns);
        (plane, report)
    }

    fn report_digest(report: &SimReport) -> u64 {
        digest(&serde_json::to_string(report).expect("report serializes"))
    }

    #[test]
    fn every_workload_and_twin_passes_its_checks_on_two_seeds() {
        for w in Workload::ALL {
            for seed in [1, 2] {
                for v in [w.variant(), w.twin()] {
                    let (plane, report) = run(w, v, seed);
                    let problems = check(w, v, &plane, &report);
                    assert!(
                        problems.is_empty(),
                        "{} seed {seed}: {problems:?}",
                        w.name()
                    );
                    assert!(
                        transits(&report) > 0,
                        "{} seed {seed}: no transits",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let (_, a) = run(w, w.variant(), 3);
            let (_, b) = run(w, w.variant(), 3);
            let (_, c) = run(w, w.variant(), 4);
            assert_eq!(report_digest(&a), report_digest(&b), "{}", w.name());
            assert_ne!(report_digest(&a), report_digest(&c), "{}", w.name());
        }
    }

    #[test]
    fn fabric_report_is_identical_at_one_and_two_shards() {
        let w = Workload::Fabric;
        let (_, two) = run(w, w.variant(), 5);
        let (_, one) = run(w, w.twin(), 5);
        assert_eq!(report_digest(&two), report_digest(&one));
    }

    #[test]
    fn outages_spare_ler_access_links_and_never_overlap() {
        let plane = ldp_plane(&Size::FULL, 9);
        let plan = plane.faults.expect("ldp-churn has outages");
        let topo = plane.cp.topology();
        let mut last_up = 0;
        for pair in plan.events.chunks(2) {
            let (down, up) = (pair[0], pair[1]);
            let link = match down.kind {
                mpls_net::fault::FaultKind::LinkDown(l) => l,
                other => panic!("expected a link outage, got {other:?}"),
            };
            let spec = topo.link(link).expect("link exists");
            for end in [spec.a, spec.b] {
                assert_eq!(topo.node(end).expect("node").role, RouterRole::Lsr);
            }
            assert!(down.at_ns >= last_up, "outages overlap");
            last_up = up.at_ns;
        }
    }
}

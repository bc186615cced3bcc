#![warn(missing_docs)]
//! Chaos harness for the simulator: a deterministic scenario fuzzer, a
//! suite of invariant oracles, and a greedy failure minimizer.
//!
//! The fuzzer composes topology families × fault schedules (link and
//! node outages, control partitions, PDU chaos, wire loss) × control
//! planes (centralized, LDP, segment routing) × LDP timers × traffic
//! mixes × router kinds into ordinary [`Scenario`] documents — the same
//! schema `mpls-sim run` executes — so every generated case, and every
//! shrunk repro, is a standalone JSON file anyone can replay.
//!
//! Every case is judged by six oracles:
//!
//! 1. **Conservation** — each flow's packets are all accounted for:
//!    `sent == delivered + router + queue + policer + link + loss drops`.
//! 2. **Shard identity** — the serialized report at 4 shards is
//!    byte-identical to 1 shard.
//! 3. **Linear/fast identity** — the `software_fast` router's report is
//!    byte-identical to `software_linear`'s.
//! 4. **Fixed point** — when every fault heals, converged LDP tables
//!    route each signaled FEC to the same egress at the same cost as
//!    the omniscient centralized solver.
//! 5. **Quiesce** — FIB churn stops within a bounded window of the last
//!    disturbance; nothing happens after the network goes quiet.
//! 6. **Source route** — on SR cases whose faults all heal, the path a
//!    probe of each flow takes through the reported FIBs equals the
//!    route an independently compiled fabric predicts (segments, ECMP
//!    hashing and RLD fallbacks included).
//!
//! On a violation, [`minimize`] greedily drops faults, flows, LSPs and
//! nodes while the violation persists, yielding a minimal repro.

use mpls_cli::scenario::{
    AttachDecl, ClosedLoopDecl, ControlChoice, FaultEventDecl, FaultsDecl, FlowDecl, LdpDecl,
    LinkDecl, LspDecl, NodeDecl, PatternDecl, PduChaosDecl, PoliceDecl, RouterDecl, Scenario,
    SrDecl, SubscriberDecl,
};
use mpls_control::{Hop, NodeConfig, NodeId, RouterRole, Topology};
use mpls_dataplane::LabelOp;
use mpls_net::SimReport;
use mpls_packet::ipv4::parse_addr;
use mpls_packet::Label;
use mpls_sr::{SrFabric, SrPolicySpec};
use std::collections::BTreeMap;

/// One oracle violation: which invariant broke and how.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Oracle name: `conservation`, `shard_identity`, `router_identity`,
    /// `fixed_point`, `quiesce`, `sr_source_route` or `runnable`.
    pub oracle: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// A deterministic splitmix64 stream; the whole harness is a pure
/// function of its seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

/// One generated case: a corpus index and the scenario it maps to.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Position in the corpus (stable for a given corpus seed).
    pub id: u64,
    /// The generated scenario.
    pub scenario: Scenario,
}

fn node(id: u32, role: &str) -> NodeDecl {
    NodeDecl {
        id,
        role: role.into(),
        name: None,
        shard: None,
    }
}

fn link(a: u32, b: u32, cost: u32, mbps: u64, delay_us: u64) -> LinkDecl {
    LinkDecl {
        a,
        b,
        cost,
        bandwidth_mbps: mbps,
        delay_us,
    }
}

/// Converts a synthesized [`Topology`] into scenario decls, re-rolling
/// per-link bandwidth and delay so the fuzzer still explores
/// heterogeneous channels. Endpoints are the first and last LERs, which
/// both family generators place in different pods/rings.
fn from_topology(t: &Topology, rng: &mut Rng) -> (Vec<NodeDecl>, Vec<LinkDecl>, u32, u32, bool) {
    let nodes: Vec<NodeDecl> = t
        .nodes()
        .iter()
        .map(|n| {
            node(
                n.id,
                if n.role == RouterRole::Ler {
                    "ler"
                } else {
                    "lsr"
                },
            )
        })
        .collect();
    let links = t
        .links()
        .iter()
        .map(|l| {
            link(
                l.a,
                l.b,
                l.cost,
                rng.range(1, 10) * 100,
                rng.range(100, 1500),
            )
        })
        .collect();
    let lers: Vec<u32> = t
        .nodes()
        .iter()
        .filter(|n| n.role == RouterRole::Ler)
        .map(|n| n.id)
        .collect();
    // A LER's attachment link in a fat tree is a bridge: no link-
    // disjoint standby exists, so these cases stay off protection.
    let protectable = !t
        .nodes()
        .iter()
        .any(|n| n.role == RouterRole::Ler && t.neighbors(n.id).len() < 2);
    (nodes, links, lers[0], *lers.last().unwrap(), protectable)
}

/// Topology families the fuzzer draws from. Each yields the node set,
/// link set, the two LER endpoints traffic runs between, and whether a
/// link-disjoint standby exists for protection.
fn topology(rng: &mut Rng) -> (Vec<NodeDecl>, Vec<LinkDecl>, u32, u32, bool) {
    match rng.range(0, 4) {
        // A line: no alternate path, faults on it are service-affecting.
        0 => {
            let n = rng.range(3, 6) as u32;
            let mut nodes = vec![node(0, "ler")];
            for id in 1..n - 1 {
                nodes.push(node(id, "lsr"));
            }
            nodes.push(node(n - 1, "ler"));
            let links = (0..n - 1)
                .map(|i| {
                    link(
                        i,
                        i + 1,
                        1 + (rng.range(0, 2) as u32),
                        rng.range(1, 10) * 100,
                        rng.range(100, 1500),
                    )
                })
                .collect();
            (nodes, links, 0, n - 1, false)
        }
        // The paper's two-path figure: a fast north path and a slower,
        // costlier south path — restoration and protection both have
        // somewhere to go.
        1 => {
            let nodes = vec![
                node(0, "ler"),
                node(1, "ler"),
                node(2, "lsr"),
                node(3, "lsr"),
                node(4, "lsr"),
                node(5, "lsr"),
            ];
            let south_cost = 2 + rng.range(0, 2) as u32;
            let links = vec![
                link(0, 2, 1, 1000, rng.range(200, 800)),
                link(2, 3, 1, 1000, rng.range(200, 800)),
                link(3, 1, 1, 1000, rng.range(200, 800)),
                link(0, 4, south_cost, 100, rng.range(1000, 2500)),
                link(4, 5, south_cost, 100, rng.range(1000, 2500)),
                link(5, 1, south_cost, 100, rng.range(1000, 2500)),
            ];
            (nodes, links, 0, 1, true)
        }
        // Small instances of the scale families EXT-15 streams at
        // 1000+ nodes: the same generators, kept narrow so the whole
        // corpus still runs in seconds. A LER's attachment link in a
        // fat tree is a bridge, so these cases stay on restoration.
        3 => {
            let t = Topology::fat_tree(4, 1 + rng.range(0, 1) as u32, 1_000_000_000, 1_000);
            from_topology(&t, rng)
        }
        4 => {
            let t = Topology::ring_of_rings(
                rng.range(3, 4) as u32,
                rng.range(2, 3) as u32,
                1_000_000_000,
                1_000,
            );
            from_topology(&t, rng)
        }
        // A ring: every node has two ways out.
        _ => {
            let n = rng.range(4, 7) as u32;
            let far = n / 2;
            let nodes = (0..n)
                .map(|id| node(id, if id == 0 || id == far { "ler" } else { "lsr" }))
                .collect();
            let links = (0..n)
                .map(|i| {
                    link(
                        i,
                        (i + 1) % n,
                        1 + (rng.range(0, 2) as u32),
                        rng.range(2, 10) * 100,
                        rng.range(100, 1200),
                    )
                })
                .collect();
            (nodes, links, 0, far, true)
        }
    }
}

/// Generates the `idx`-th scenario of the corpus under `corpus_seed`.
/// Every fault window closes before the horizon, so converged state is
/// comparable against the centralized fixed point.
pub fn generate(corpus_seed: u64, idx: u64) -> ChaosCase {
    let mut rng = Rng::new(corpus_seed ^ idx.wrapping_mul(0x5851_F42D_4C95_7F2D));
    let (nodes, mut links, ler_a, ler_b, protectable) = topology(&mut rng);

    // Heterogeneous propagation delays: stretch a subset of links by a
    // large factor so the partitioner's cut and the epoch lookahead
    // differ wildly from case to case — the regime where a buggy bound
    // computation would actually misorder events.
    if rng.chance(40) {
        for l in &mut links {
            if rng.chance(35) {
                l.delay_us *= rng.range(4, 12);
            }
        }
    }

    let attached = vec![
        AttachDecl {
            node: ler_b,
            prefix: "192.168.1.0/24".into(),
        },
        AttachDecl {
            node: ler_a,
            prefix: "10.1.0.0/16".into(),
        },
    ];
    // Control plane: the omniscient solver, in-band LDP, or compiled
    // segment-routing source routes.
    let control = match rng.range(0, 2) {
        0 => "centralized",
        1 => "ldp",
        _ => "sr",
    };
    let use_ldp = control == "ldp";
    let use_sr = control == "sr";
    let recovery = match rng.range(0, 2) {
        0 => "restoration",
        // Protection needs a link-disjoint standby; on a line (or past
        // a fat tree's bridge attachment links) there is none. LDP and
        // SR replace the recovery model wholesale.
        1 if protectable && !use_ldp && !use_sr => "protection",
        _ => "none",
    };
    let lsps = vec![
        LspDecl {
            ingress: ler_a,
            egress: ler_b,
            fec: "192.168.1.0/24".into(),
            cos: rng.range(0, 7) as u8,
            bandwidth_mbps: 0,
            explicit_route: None,
            php: rng.chance(30),
            protected: recovery == "protection",
        },
        LspDecl {
            ingress: ler_b,
            egress: ler_a,
            fec: "10.1.0.0/16".into(),
            cos: 0,
            bandwidth_mbps: 0,
            explicit_route: None,
            php: false,
            protected: false,
        },
    ];

    let mut flows = Vec::new();
    let nflows = rng.range(1, 3);
    for i in 0..nflows {
        let forward = i == 0 || rng.chance(60);
        let (ingress, dst) = if forward {
            (ler_a, format!("192.168.1.{}", rng.range(1, 250)))
        } else {
            (ler_b, format!("10.1.0.{}", rng.range(1, 250)))
        };
        let interval_us = rng.range(40, 400);
        let pattern = match rng.range(0, 3) {
            0 => PatternDecl::Cbr { interval_us },
            1 => PatternDecl::Poisson {
                mean_interval_us: interval_us,
            },
            2 => PatternDecl::OnOff {
                on_us: rng.range(300, 2000),
                off_us: rng.range(300, 2000),
                interval_us,
            },
            // Closed-loop sources self-clock off reverse-path acks, so
            // every generated fault window also stresses the AIMD
            // recovery path and the conservation oracle sees
            // retransmissions.
            _ => PatternDecl::ClosedLoop {
                mean_arrival_us: rng.range(300, 1500),
                size_min_pkts: 2,
                size_max_pkts: rng.range(8, 96),
                size_alpha_milli: rng.range(1050, 1900) as u32,
                max_cwnd: rng.range(4, 32),
                rto_us: rng.range(2_000, 12_000),
                ecn_threshold: rng.range(0, 12) as u32,
                pacing_us: rng.range(1, 5),
                sla_fct_ms: if rng.chance(30) { rng.range(5, 40) } else { 0 },
                diurnal_period_ms: if rng.chance(25) { rng.range(10, 40) } else { 0 },
                diurnal_trough_pct: rng.range(30, 100) as u8,
                flash_start_ms: rng.range(0, 15),
                flash_duration_ms: if rng.chance(25) { rng.range(3, 10) } else { 0 },
                flash_multiplier_pct: rng.range(100, 400) as u32,
            },
        };
        flows.push(FlowDecl {
            name: format!("f{i}"),
            ingress,
            src: if forward {
                "10.1.0.9".into()
            } else {
                "192.168.1.9".into()
            },
            dst,
            payload_bytes: rng.range(64, 900) as usize,
            precedence: rng.range(0, 7) as u8,
            pattern,
            start_ms: rng.range(0, 8),
            stop_ms: rng.range(25, 45),
            police: if rng.chance(20) {
                Some(PoliceDecl {
                    rate_mbps: rng.range(1, 40),
                    burst_bytes: rng.range(1500, 9000),
                })
            } else {
                None
            },
        });
    }

    // Fault schedule. Targets are exclusive: each link or node hosts at
    // most one scheduled fault, and a crashing node claims its incident
    // links too, so windows cannot half-revive each other.
    let mut faults = FaultsDecl {
        recovery: recovery.into(),
        detection_delay_us: rng.range(300, 1500),
        ..FaultsDecl::default()
    };
    let mut free_links: Vec<(u32, u32)> = links.iter().map(|l| (l.a, l.b)).collect();
    let mut free_nodes: Vec<u32> = nodes.iter().map(|n| n.id).collect();
    let nfaults = rng.range(0, 3);
    for _ in 0..nfaults {
        let down = rng.range(8, 20);
        let up = down + rng.range(3, 12);
        match rng.range(0, 3) {
            0 if !free_links.is_empty() => {
                let (a, b) =
                    free_links.swap_remove(rng.range(0, free_links.len() as u64 - 1) as usize);
                faults
                    .events
                    .push(FaultEventDecl::LinkDown { at_ms: down, a, b });
                faults
                    .events
                    .push(FaultEventDecl::LinkUp { at_ms: up, a, b });
            }
            1 if !free_nodes.is_empty() => {
                let n = free_nodes.swap_remove(rng.range(0, free_nodes.len() as u64 - 1) as usize);
                free_links.retain(|&(a, b)| a != n && b != n);
                faults.events.push(FaultEventDecl::NodeDown {
                    at_ms: down,
                    node: n,
                });
                faults
                    .events
                    .push(FaultEventDecl::NodeUp { at_ms: up, node: n });
            }
            2 if !free_links.is_empty() => {
                let (a, b) =
                    free_links.swap_remove(rng.range(0, free_links.len() as u64 - 1) as usize);
                faults
                    .events
                    .push(FaultEventDecl::PartitionStart { at_ms: down, a, b });
                faults
                    .events
                    .push(FaultEventDecl::PartitionEnd { at_ms: up, a, b });
            }
            _ => {}
        }
    }
    if use_ldp && rng.chance(40) && !links.is_empty() {
        let l = &links[rng.range(0, links.len() as u64 - 1) as usize];
        let from = rng.range(5, 15);
        faults.pdu_chaos.push(PduChaosDecl {
            a: l.a,
            b: l.b,
            loss: if rng.chance(60) { rng.f64() * 0.3 } else { 0.0 },
            duplicate: if rng.chance(40) { rng.f64() * 0.3 } else { 0.0 },
            reorder: if rng.chance(40) { rng.f64() * 0.3 } else { 0.0 },
            corrupt: if rng.chance(40) { rng.f64() * 0.2 } else { 0.0 },
            from_ms: from,
            until_ms: from + rng.range(5, 15),
        });
    }
    if rng.chance(25) && !links.is_empty() {
        let l = &links[rng.range(0, links.len() as u64 - 1) as usize];
        faults.loss.push(mpls_cli::scenario::LinkLossDecl {
            a: l.a,
            b: l.b,
            probability: rng.f64() * 0.05,
        });
    }
    let have_faults =
        !(faults.events.is_empty() && faults.loss.is_empty() && faults.pdu_chaos.is_empty());

    let router = if use_sr {
        // The embedded router's hardware stack holds three entries;
        // source routes plus metadata LSEs need the software data plane.
        if rng.chance(50) {
            RouterDecl::SoftwareHash
        } else {
            RouterDecl::SoftwareLinear
        }
    } else {
        match rng.range(0, 3) {
            0 => RouterDecl::Embedded {
                clock_mhz: [25.0, 50.0, 100.0][rng.range(0, 2) as usize],
            },
            1 => RouterDecl::SoftwareHash,
            _ => RouterDecl::SoftwareLinear,
        }
    };

    // SR knob sweep: deep and shallow push budgets (loose-hop
    // compression on and off), RLDs that sometimes hide the entropy
    // pair, and both metadata sub-stacks.
    let sr = SrDecl {
        rld: rng.range(2, 12) as u8,
        max_push_depth: rng.range(2, 12) as u8,
        entropy: rng.chance(70),
        mna: rng.chance(25),
        ..SrDecl::default()
    };

    let ldp = LdpDecl {
        hello_interval_us: [500, 1000][rng.range(0, 1) as usize],
        hold_us: rng.range(3500, 7000),
        max_backoff_exp: rng.range(3, 6) as u32,
        jitter_seed: rng.next_u64(),
        stale_ttl_us: if rng.chance(40) {
            rng.range(4000, 9000)
        } else {
            0
        },
    };

    // A fifth of the corpus adds a subscriber population behind the
    // forward ingress: three residential SLA classes expand into
    // closed-loop flows with a diurnal curve and (sometimes) a flash
    // crowd, so population-scale ack-clocked load rides through the
    // same fault windows and oracle battery.
    let subscribers = if rng.chance(20) {
        vec![SubscriberDecl {
            name: "pop".into(),
            ingress: ler_a,
            src: "10.0.2.1".into(),
            dst: format!("192.168.1.{}", rng.range(1, 250)),
            subscribers: rng.range(200, 3000),
            mean_think_ms: rng.range(200, 1200),
            base: ClosedLoopDecl {
                size_max_pkts: rng.range(8, 64),
                max_cwnd: rng.range(4, 24),
                rto_us: rng.range(2_000, 12_000),
                ecn_threshold: rng.range(0, 12) as u32,
                diurnal_period_ms: if rng.chance(50) { rng.range(10, 40) } else { 0 },
                diurnal_trough_pct: rng.range(30, 100) as u8,
                flash_start_ms: rng.range(0, 15),
                flash_duration_ms: if rng.chance(50) { rng.range(3, 10) } else { 0 },
                flash_multiplier_pct: rng.range(100, 400) as u32,
                ..ClosedLoopDecl::default()
            },
            classes: Vec::new(),
            start_ms: rng.range(0, 8),
            stop_ms: rng.range(25, 45),
        }]
    } else {
        Vec::new()
    };

    let last_fault_ms = faults
        .events
        .iter()
        .map(|e| match *e {
            FaultEventDecl::LinkDown { at_ms, .. }
            | FaultEventDecl::LinkUp { at_ms, .. }
            | FaultEventDecl::NodeDown { at_ms, .. }
            | FaultEventDecl::NodeUp { at_ms, .. }
            | FaultEventDecl::PartitionStart { at_ms, .. }
            | FaultEventDecl::PartitionEnd { at_ms, .. } => at_ms,
        })
        .chain(faults.pdu_chaos.iter().map(|c| c.until_ms))
        .max()
        .unwrap_or(0);
    let last_stop_ms = flows
        .iter()
        .map(|f| f.stop_ms)
        .chain(subscribers.iter().map(|s| s.stop_ms))
        .max()
        .unwrap_or(0);

    let scenario = Scenario {
        nodes,
        links,
        attached,
        lsps,
        flows,
        subscribers,
        router,
        queue: Default::default(),
        faults: have_faults.then_some(faults),
        control: Some(control.into()),
        ldp: use_ldp.then_some(ldp),
        sr: use_sr.then_some(sr),
        topology: None,
        telemetry: None,
        seed: rng.next_u64(),
        horizon_ms: last_fault_ms.max(last_stop_ms) + 100,
        shards: None,
    };
    ChaosCase { id: idx, scenario }
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// Extra settle time the quiesce oracle grants past the last scheduled
/// disturbance (plus hold time and stale TTL) before FIB churn counts
/// as a violation.
const QUIESCE_BUDGET_NS: u64 = 40_000_000;

/// LDP floods hop by hop, so settling time grows with the topology:
/// the base budget plus one slowest-link traversal per node covers the
/// worst flooding chain the corpus generates (the wide scale-family
/// cases) while staying tight on the small figures.
fn quiesce_budget_ns(sc: &Scenario) -> u64 {
    let max_delay_ns = sc
        .links
        .iter()
        .map(|l| l.delay_us * 1_000)
        .max()
        .unwrap_or(0);
    QUIESCE_BUDGET_NS + sc.nodes.len() as u64 * max_delay_ns
}

fn conservation(report: &SimReport) -> Result<(), Violation> {
    for (spec, s) in &report.flows {
        let accounted = s.delivered
            + s.router_dropped
            + s.queue_dropped
            + s.policer_dropped
            + s.link_dropped
            + s.loss_dropped;
        if s.sent != accounted {
            return Err(Violation {
                oracle: "conservation",
                detail: format!(
                    "flow {:?}: sent {} != accounted {} (delivered {} router {} queue {} \
                     policer {} link {} loss {})",
                    spec.name,
                    s.sent,
                    accounted,
                    s.delivered,
                    s.router_dropped,
                    s.queue_dropped,
                    s.policer_dropped,
                    s.link_dropped,
                    s.loss_dropped
                ),
            });
        }
    }
    Ok(())
}

/// True when every scheduled fault window closes: each downed link and
/// crashed node comes back and each partition heals, so the end state is
/// comparable against the fault-free fixed point.
fn all_faults_heal(sc: &Scenario) -> bool {
    let Some(f) = &sc.faults else { return true };
    let mut link_bal: BTreeMap<(u32, u32), i64> = BTreeMap::new();
    let mut node_bal: BTreeMap<u32, i64> = BTreeMap::new();
    let mut part_bal: BTreeMap<(u32, u32), i64> = BTreeMap::new();
    let key = |a: u32, b: u32| (a.min(b), a.max(b));
    for ev in &f.events {
        match *ev {
            FaultEventDecl::LinkDown { a, b, .. } => *link_bal.entry(key(a, b)).or_default() += 1,
            FaultEventDecl::LinkUp { a, b, .. } => *link_bal.entry(key(a, b)).or_default() -= 1,
            FaultEventDecl::NodeDown { node, .. } => *node_bal.entry(node).or_default() += 1,
            FaultEventDecl::NodeUp { node, .. } => *node_bal.entry(node).or_default() -= 1,
            FaultEventDecl::PartitionStart { a, b, .. } => {
                *part_bal.entry(key(a, b)).or_default() += 1
            }
            FaultEventDecl::PartitionEnd { a, b, .. } => {
                *part_bal.entry(key(a, b)).or_default() -= 1
            }
        }
    }
    link_bal.values().all(|&v| v <= 0)
        && node_bal.values().all(|&v| v <= 0)
        && part_bal.values().all(|&v| v <= 0)
}

fn last_disturbance_ns(sc: &Scenario) -> u64 {
    let Some(f) = &sc.faults else { return 0 };
    f.events
        .iter()
        .map(|e| match *e {
            FaultEventDecl::LinkDown { at_ms, .. }
            | FaultEventDecl::LinkUp { at_ms, .. }
            | FaultEventDecl::NodeDown { at_ms, .. }
            | FaultEventDecl::NodeUp { at_ms, .. }
            | FaultEventDecl::PartitionStart { at_ms, .. }
            | FaultEventDecl::PartitionEnd { at_ms, .. } => at_ms,
        })
        .chain(f.pdu_chaos.iter().map(|c| c.until_ms))
        .max()
        .unwrap_or(0)
        * 1_000_000
}

/// Traces an unlabeled packet for `dst` from `ingress` through per-node
/// forwarding tables. Returns the delivering node and total link cost,
/// `None` when it would be dropped, and an error on a forwarding loop.
fn trace(
    configs: &BTreeMap<NodeId, NodeConfig>,
    topo: &Topology,
    ingress: NodeId,
    dst: u32,
) -> Result<Option<(NodeId, u64)>, Violation> {
    let link_cost = |a: NodeId, b: NodeId| -> u64 {
        topo.link_between(a, b)
            .map(|id| topo.links()[id as usize].cost as u64)
            .unwrap_or(u64::MAX)
    };
    let Some(cfg) = configs.get(&ingress) else {
        return Ok(None);
    };
    let Some(fec) = cfg
        .fecs
        .iter()
        .filter(|f| f.prefix.contains(dst))
        .max_by_key(|f| f.prefix.len)
    else {
        return Ok(None);
    };
    let mut node = ingress;
    let mut label: Option<Label> = Some(fec.push_label);
    let Some(mut hop) = cfg.next_hop_for(label) else {
        return Ok(None);
    };
    let mut cost = 0u64;
    for _ in 0..=configs.len() {
        match hop {
            Hop::Local => return Ok(Some((node, cost))),
            Hop::Node(next) => {
                cost += link_cost(node, next);
                node = next;
                let Some(cfg) = configs.get(&node) else {
                    return Ok(None);
                };
                match label {
                    Some(l) => {
                        let Some(b) = cfg
                            .bindings
                            .iter()
                            .find(|b| b.level == 2 && b.key == l.value() as u64)
                        else {
                            return Ok(None);
                        };
                        match b.op {
                            LabelOp::Swap => {
                                label = Some(b.new_label);
                                match cfg.next_hop_for(label) {
                                    Some(h) => hop = h,
                                    None => return Ok(None),
                                }
                            }
                            LabelOp::Pop => {
                                label = None;
                                match cfg.ip_route_for(dst) {
                                    Some(h) => hop = h,
                                    None => return Ok(None),
                                }
                            }
                            _ => return Ok(None),
                        }
                    }
                    None => match cfg.ip_route_for(dst) {
                        Some(h) => hop = h,
                        None => return Ok(None),
                    },
                }
            }
        }
    }
    Err(Violation {
        oracle: "fixed_point",
        detail: format!("forwarding loop tracing {dst:#x} from {ingress}"),
    })
}

/// Runs every applicable oracle on `sc`. `Ok(())` means the case is
/// green; the first violation wins otherwise.
pub fn check(sc: &Scenario) -> Result<(), Violation> {
    let run = |shards: usize, s: &Scenario| -> Result<SimReport, Violation> {
        s.run_with_overrides(false, Some(shards), None)
            .map_err(|e| Violation {
                oracle: "runnable",
                detail: e.to_string(),
            })
    };
    let base = run(1, sc)?;

    // Oracle 1: packet conservation, per flow, per cause.
    conservation(&base)?;

    // Oracle 2: shard byte-identity (1 vs 4).
    let sharded = run(4, sc)?;
    let a = serde_json::to_string(&base).expect("report serializes");
    let b = serde_json::to_string(&sharded).expect("report serializes");
    if a != b {
        return Err(Violation {
            oracle: "shard_identity",
            detail: format!(
                "4-shard report diverged from sequential ({} vs {} bytes)",
                a.len(),
                b.len()
            ),
        });
    }

    // Oracle 3: the fast software path must match the linear reference
    // byte for byte.
    if matches!(sc.router, RouterDecl::SoftwareLinear) {
        let mut twin = sc.clone();
        twin.router = RouterDecl::SoftwareFast;
        let fast = run(1, &twin)?;
        let c = serde_json::to_string(&fast).expect("report serializes");
        if a != c {
            return Err(Violation {
                oracle: "router_identity",
                detail: "software_fast report diverged from software_linear".into(),
            });
        }
    }

    let mode = sc.control_mode(None).map_err(|e| Violation {
        oracle: "runnable",
        detail: e.to_string(),
    })?;

    // Oracle 6: on SR cases, once every fault heals the reported FIBs
    // must route a probe of each flow along exactly the source route an
    // independently compiled fabric predicts — same segments, same
    // entropy-hashed ECMP choices, same RLD fallbacks.
    if mode == ControlChoice::Sr {
        if all_faults_heal(sc) {
            let fibs = base.fibs.as_ref().ok_or_else(|| Violation {
                oracle: "sr_source_route",
                detail: "sr run exposed no FIBs".into(),
            })?;
            let cp = sc.build_control_plane().map_err(|e| Violation {
                oracle: "runnable",
                detail: e.to_string(),
            })?;
            let mut fabric = SrFabric::new(cp.topology().clone(), sc.sr_config());
            for id in cp.lsp_ids() {
                let req = &cp.lsp(id).expect("listed lsp exists").request;
                fabric.add_policy(SrPolicySpec {
                    ingress: req.ingress,
                    egress: req.egress,
                    prefix: req.fec,
                    cos: req.cos,
                });
            }
            for route in cp.attached_routes() {
                fabric.add_local(route.node, route.prefix);
            }
            fabric.compile();
            for f in &sc.flows {
                let (src, dst) = match (parse_addr(&f.src), parse_addr(&f.dst)) {
                    (Some(s), Some(d)) => (s, d),
                    _ => continue,
                };
                let want = fabric.predict_path(f.ingress, src, dst);
                let got = SrFabric::walk_configs(fibs, f.ingress, src, dst);
                if got != want {
                    return Err(Violation {
                        oracle: "sr_source_route",
                        detail: format!(
                            "flow {:?} ({} -> {}): delivered path {:?} != compiled route {:?}",
                            f.name, f.src, f.dst, got, want
                        ),
                    });
                }
            }
        }
        return Ok(());
    }
    if mode != ControlChoice::Ldp {
        return Ok(());
    }

    // Oracle 5: quiesce — the control plane must stop reprogramming
    // FIBs within a bounded window of the last scheduled disturbance.
    let ldp = sc.ldp_config().map_err(|e| Violation {
        oracle: "runnable",
        detail: e.to_string(),
    })?;
    let bound = last_disturbance_ns(sc) + ldp.hold_ns + ldp.stale_ttl_ns + quiesce_budget_ns(sc);
    if base.control.last_fib_change_ns > bound {
        return Err(Violation {
            oracle: "quiesce",
            detail: format!(
                "FIBs still changing at {} ns, {} ns past the quiesce bound",
                base.control.last_fib_change_ns,
                base.control.last_fib_change_ns - bound
            ),
        });
    }

    // Oracle 4: semantic fixed point vs the centralized solver — only
    // comparable when every fault healed, leaving the full topology.
    if all_faults_heal(sc) {
        let ldp_fibs = base.fibs.as_ref().ok_or_else(|| Violation {
            oracle: "fixed_point",
            detail: "ldp run exposed no FIBs".into(),
        })?;
        let cp = sc.build_control_plane().map_err(|e| Violation {
            oracle: "runnable",
            detail: e.to_string(),
        })?;
        let central: BTreeMap<NodeId, NodeConfig> = cp
            .topology()
            .nodes()
            .iter()
            .map(|n| (n.id, cp.config_for(n.id)))
            .collect();
        for l in &sc.lsps {
            let (addr, len) = l
                .fec
                .split_once('/')
                .and_then(|(a, l)| Some((parse_addr(a)?, l.parse::<u8>().ok()?)))
                .ok_or_else(|| Violation {
                    oracle: "runnable",
                    detail: format!("bad fec {:?}", l.fec),
                })?;
            // Probe one host inside the prefix.
            let probe = if len < 30 { addr | 5 } else { addr };
            let got = trace(ldp_fibs, cp.topology(), l.ingress, probe)?;
            let want = trace(&central, cp.topology(), l.ingress, probe)?;
            match (got, want) {
                (Some((ge, gc)), Some((we, wc))) => {
                    if ge != we || gc != wc {
                        return Err(Violation {
                            oracle: "fixed_point",
                            detail: format!(
                                "{}->{:?}: ldp delivers at node {ge} cost {gc}, \
                                 centralized at node {we} cost {wc}",
                                l.ingress, l.fec
                            ),
                        });
                    }
                }
                (None, Some(_)) => {
                    return Err(Violation {
                        oracle: "fixed_point",
                        detail: format!(
                            "{}->{:?}: centralized routes but converged LDP drops",
                            l.ingress, l.fec
                        ),
                    });
                }
                // Centralized can't route it either (a shrunk scenario
                // may have lost the egress) — nothing to compare.
                (_, None) => {}
            }
        }
    }
    Ok(())
}

/// `check` as an `Option`, treating unrunnable scenarios produced by
/// shrinking (e.g. a removed egress breaks signaling) as non-failing.
fn violates(sc: &Scenario) -> Option<Violation> {
    match check(sc) {
        Err(v) if v.oracle != "runnable" => Some(v),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// The number of scheduled faults in a scenario — the quantity the
/// minimizer drives toward zero.
pub fn fault_count(sc: &Scenario) -> usize {
    sc.faults
        .as_ref()
        .map(|f| f.events.len() + f.pdu_chaos.len() + f.loss.len())
        .unwrap_or(0)
}

/// Greedily minimizes a failing scenario: repeatedly drop one fault
/// event, chaos window, loss entry, flow, LSP or node (with its incident
/// links and references) and keep the removal whenever the violation
/// persists. Runs to a fixpoint. Returns the shrunk scenario and the
/// violation it still exhibits.
pub fn minimize(sc: &Scenario) -> (Scenario, Violation) {
    let mut best = sc.clone();
    let mut witness = violates(&best).expect("minimize requires a failing scenario");
    loop {
        let mut progressed = false;
        // Faults first: the repro should name as few as possible.
        let nev = best.faults.as_ref().map(|f| f.events.len()).unwrap_or(0);
        for i in (0..nev).rev() {
            let mut cand = best.clone();
            cand.faults.as_mut().unwrap().events.remove(i);
            if let Some(v) = violates(&cand) {
                best = cand;
                witness = v;
                progressed = true;
            }
        }
        let nch = best.faults.as_ref().map(|f| f.pdu_chaos.len()).unwrap_or(0);
        for i in (0..nch).rev() {
            let mut cand = best.clone();
            cand.faults.as_mut().unwrap().pdu_chaos.remove(i);
            if let Some(v) = violates(&cand) {
                best = cand;
                witness = v;
                progressed = true;
            }
        }
        let nls = best.faults.as_ref().map(|f| f.loss.len()).unwrap_or(0);
        for i in (0..nls).rev() {
            let mut cand = best.clone();
            cand.faults.as_mut().unwrap().loss.remove(i);
            if let Some(v) = violates(&cand) {
                best = cand;
                witness = v;
                progressed = true;
            }
        }
        if fault_count(&best) == 0 {
            if let Some(f) = &best.faults {
                if f.events.is_empty() && f.pdu_chaos.is_empty() && f.loss.is_empty() {
                    let mut cand = best.clone();
                    cand.faults = None;
                    if let Some(v) = violates(&cand) {
                        best = cand;
                        witness = v;
                        progressed = true;
                    }
                }
            }
        }
        for i in (0..best.flows.len()).rev() {
            let mut cand = best.clone();
            cand.flows.remove(i);
            if let Some(v) = violates(&cand) {
                best = cand;
                witness = v;
                progressed = true;
            }
        }
        for i in (0..best.subscribers.len()).rev() {
            let mut cand = best.clone();
            cand.subscribers.remove(i);
            if let Some(v) = violates(&cand) {
                best = cand;
                witness = v;
                progressed = true;
            }
        }
        for i in (0..best.lsps.len()).rev() {
            let mut cand = best.clone();
            cand.lsps.remove(i);
            if let Some(v) = violates(&cand) {
                best = cand;
                witness = v;
                progressed = true;
            }
        }
        // Nodes last: each removal also strips incident links and every
        // declaration that references the node.
        let ids: Vec<u32> = best.nodes.iter().map(|n| n.id).collect();
        for id in ids {
            let mut cand = best.clone();
            cand.nodes.retain(|n| n.id != id);
            cand.links.retain(|l| l.a != id && l.b != id);
            cand.attached.retain(|a| a.node != id);
            cand.lsps.retain(|l| {
                l.ingress != id
                    && l.egress != id
                    && l.explicit_route
                        .as_ref()
                        .map(|r| !r.contains(&id))
                        .unwrap_or(true)
            });
            cand.flows.retain(|f| f.ingress != id);
            cand.subscribers.retain(|s| s.ingress != id);
            if let Some(f) = &mut cand.faults {
                f.events.retain(|e| match *e {
                    FaultEventDecl::LinkDown { a, b, .. }
                    | FaultEventDecl::LinkUp { a, b, .. }
                    | FaultEventDecl::PartitionStart { a, b, .. }
                    | FaultEventDecl::PartitionEnd { a, b, .. } => a != id && b != id,
                    FaultEventDecl::NodeDown { node, .. } | FaultEventDecl::NodeUp { node, .. } => {
                        node != id
                    }
                });
                f.pdu_chaos.retain(|c| c.a != id && c.b != id);
                f.loss.retain(|l| l.a != id && l.b != id);
            }
            if cand.nodes.is_empty() {
                continue;
            }
            if let Some(v) = violates(&cand) {
                best = cand;
                witness = v;
                progressed = true;
            }
        }
        if !progressed {
            return (best, witness);
        }
    }
}

// ---------------------------------------------------------------------
// Corpus runner
// ---------------------------------------------------------------------

/// One corpus failure: the case, its violation, and the minimized repro.
#[derive(Debug)]
pub struct Failure {
    /// Corpus index of the failing case.
    pub case: u64,
    /// The violation the *minimized* scenario still exhibits.
    pub violation: Violation,
    /// The minimized scenario.
    pub minimized: Scenario,
    /// Scheduled faults left after shrinking.
    pub faults_left: usize,
}

/// Runs `n` generated cases under `corpus_seed`; failing cases are
/// shrunk. Calls `progress(done, total)` after each case.
pub fn run_corpus(corpus_seed: u64, n: u64, mut progress: impl FnMut(u64, u64)) -> Vec<Failure> {
    let mut failures = Vec::new();
    for idx in 0..n {
        let case = generate(corpus_seed, idx);
        if let Some(_v) = violates(&case.scenario) {
            let (minimized, violation) = minimize(&case.scenario);
            let faults_left = fault_count(&minimized);
            failures.push(Failure {
                case: idx,
                violation,
                minimized,
                faults_left,
            });
        }
        progress(idx + 1, n);
    }
    failures
}

/// Serializes a minimized repro as a standalone `mpls-sim run` scenario
/// file in `dir`, returning the path.
pub fn write_repro(dir: &std::path::Path, f: &Failure) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("chaos-repro-{}.json", f.case));
    let doc = serde_json::to_string_pretty(&f.minimized).expect("scenario serializes");
    std::fs::write(&path, format!("{doc}\n"))?;
    let meta = dir.join(format!("chaos-repro-{}.oracle.txt", f.case));
    std::fs::write(
        &meta,
        format!(
            "case: {}\noracle: {}\ndetail: {}\nfaults_left: {}\nreplay: mpls-sim run {}\n",
            f.case,
            f.violation.oracle,
            f.violation.detail,
            f.faults_left,
            path.display()
        ),
    )?;
    Ok(path)
}

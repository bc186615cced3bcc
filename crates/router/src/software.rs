//! The all-software MPLS router — the baseline architecture the paper's
//! hardware offload is motivated against.
//!
//! Label processing runs on `mpls-dataplane`'s forwarder; latency comes
//! from a calibrated cost model (a fixed per-packet overhead plus a
//! per-table-probe cost) rather than host wall-clock time, so network
//! simulations are deterministic and machine-independent. The defaults
//! approximate a mid-2000s software router to match the paper's era; the
//! benchmarks also measure real host time separately.

use crate::forwarding::{Action, DiscardCause, Forwarding, MplsForwarder, RouterStats};
use crate::pipeline::{sr_entries, RouterTables, SrPick};
use mpls_control::{Hop, NodeConfig, NodeId, RouterRole};
use mpls_dataplane::fib::FibLevel;
use mpls_dataplane::{Discard, LookupStrategy, ProcessResult, SoftwareForwarder, SwRouterType};
use mpls_packet::sr;
use mpls_packet::{label::LabelStackEntry, CosBits, LabelStack, MplsPacket};
use serde::{Deserialize, Serialize};

/// The software data plane's latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwTimingModel {
    /// Fixed cost per packet (parse, classify, splice), in nanoseconds.
    pub per_packet_ns: u64,
    /// Cost per lookup probe (one key comparison), in nanoseconds.
    pub per_probe_ns: u64,
}

impl Default for SwTimingModel {
    fn default() -> Self {
        // Roughly a 1 GHz era CPU spending ~500 instructions of fixed
        // work per packet and ~35 ns per probe including cache effects.
        Self {
            per_packet_ns: 500,
            per_probe_ns: 35,
        }
    }
}

fn to_cause(d: Discard) -> DiscardCause {
    match d {
        Discard::NoEntryFound => DiscardCause::NoEntryFound,
        Discard::TtlExpired => DiscardCause::TtlExpired,
        Discard::InconsistentOperation => DiscardCause::InconsistentOperation,
    }
}

/// A software MPLS router over a pluggable lookup strategy.
#[derive(Debug, Clone)]
pub struct SoftwareRouter<S: LookupStrategy> {
    node: NodeId,
    rtype: SwRouterType,
    forwarder: SoftwareForwarder<S>,
    tables: RouterTables,
    timing: SwTimingModel,
    stats: RouterStats,
    last_probes: u64,
    /// Whether reprogrammed forwarders get a (fresh, empty) flow cache.
    use_cache: bool,
}

/// Loads a fresh FIB from a node configuration. Building a new forwarder
/// is also how the router is *reprogrammed*, so any flow cache dies here
/// with the bindings it memoized — withdraw/release, fault rewrites and
/// LSP retirement all invalidate by construction.
fn load_fib<S: LookupStrategy>(
    rtype: SwRouterType,
    config: &NodeConfig,
    use_cache: bool,
) -> SoftwareForwarder<S> {
    let mut forwarder = SoftwareForwarder::new(rtype);
    if use_cache {
        forwarder = forwarder.with_flow_cache();
    }
    for b in &config.bindings {
        let level = match b.level {
            1 => FibLevel::L1,
            2 => FibLevel::L2,
            _ => FibLevel::L3,
        };
        let op = b.op;
        forwarder.bind(level, b.key, b.new_label, op);
    }
    forwarder
}

impl<S: LookupStrategy> SoftwareRouter<S> {
    /// Builds a router for `node` with `role`, loading the FIB from the
    /// control plane's `config`.
    pub fn new(node: NodeId, role: RouterRole, config: &NodeConfig, timing: SwTimingModel) -> Self {
        Self::with_options(node, role, config, timing, false)
    }

    /// [`Self::new`] with the per-ingress flow cache switched on or off.
    pub fn with_options(
        node: NodeId,
        role: RouterRole,
        config: &NodeConfig,
        timing: SwTimingModel,
        use_cache: bool,
    ) -> Self {
        let rtype = match role {
            RouterRole::Ler => SwRouterType::Ler,
            RouterRole::Lsr => SwRouterType::Lsr,
        };
        Self {
            node,
            rtype,
            forwarder: load_fib(rtype, config, use_cache),
            tables: RouterTables::from_config(config),
            timing,
            stats: RouterStats::default(),
            last_probes: 0,
            use_cache,
        }
    }

    /// The underlying forwarder.
    pub fn forwarder(&self) -> &SoftwareForwarder<S> {
        &self.forwarder
    }

    fn finish(&mut self, probes: u64, action: Action) -> Forwarding {
        let latency_ns = self.timing.per_packet_ns + probes * self.timing.per_probe_ns;
        self.stats.total_latency_ns += latency_ns;
        match &action {
            Action::Forward { .. } => self.stats.forwarded += 1,
            Action::Deliver(_) => self.stats.delivered += 1,
            Action::Discard(cause) => {
                self.stats.discarded += 1;
                self.stats.by_cause.record(*cause);
            }
        }
        Forwarding { action, latency_ns }
    }

    fn note_pick(&mut self, pick: SrPick) {
        match pick {
            SrPick::Ecmp => self.stats.ecmp_decisions += 1,
            SrPick::RldViolation => self.stats.rld_violations += 1,
            SrPick::Single => {}
        }
    }

    /// Segment-routing ingress of the source route `entries` (top first,
    /// see [`sr_entries`]): splices the stack in one pass and resolves
    /// the first hop (possibly over an ECMP fan-out).
    fn sr_ingress(&mut self, mut packet: MplsPacket, entries: &[LabelStackEntry]) -> Forwarding {
        let depth = entries.len() as u64;
        let Ok(stack) = LabelStack::from_entries(entries) else {
            return self.finish(1, Action::Discard(DiscardCause::InconsistentOperation));
        };
        packet.splice_stack(stack);
        self.stats.peak_stack_depth = self.stats.peak_stack_depth.max(depth);
        let dst = packet.ip.dst;
        let top = packet.stack.top().map(|e| e.label);
        let (res, pick) = self
            .tables
            .resolve_egress_on(top, dst, packet.stack.entries());
        self.note_pick(pick);
        match res {
            Ok(Hop::Node(next)) => self.finish(depth + 1, Action::Forward { next, packet }),
            Ok(Hop::Local) => self.finish(depth + 1, Action::Deliver(packet)),
            Err(cause) => self.finish(depth + 1, Action::Discard(cause)),
        }
    }
}

impl<S: LookupStrategy> MplsForwarder for SoftwareRouter<S> {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn handle(&mut self, packet: MplsPacket) -> Forwarding {
        self.handle_on_port(packet, 0)
    }

    fn handle_on_port(&mut self, mut packet: MplsPacket, port: u64) -> Forwarding {
        self.stats.packets_in += 1;
        self.stats.peak_stack_depth = self
            .stats
            .peak_stack_depth
            .max(packet.stack.entries().len() as u64);
        let dst = packet.ip.dst;

        if packet.stack.is_empty() {
            match self.tables.ip_route(dst) {
                Some(Hop::Local) => return self.finish(1, Action::Deliver(packet)),
                Some(Hop::Node(next)) => return self.finish(1, Action::Forward { next, packet }),
                None => {}
            }
            // Segment-routing ingress builds the whole source route in one
            // go, bypassing the single-op label forwarder.
            if let Some(policy) = self.tables.sr_classify(dst) {
                if packet.ip.ttl == 0 {
                    return self.finish(1, Action::Discard(DiscardCause::TtlExpired));
                }
                let entries = sr_entries(policy, &packet.ip);
                return self.sr_ingress(packet, &entries);
            }
            // Software ingress classifies by longest-prefix match
            // directly — no exact-match flow cache needed.
            let Some((push_label, cos)) = self.tables.classify(dst) else {
                return self.finish(1, Action::Discard(DiscardCause::NoRoute));
            };
            if packet.ip.ttl == 0 {
                return self.finish(1, Action::Discard(DiscardCause::TtlExpired));
            }
            let mut stack = packet.stack.clone();
            stack
                .push(LabelStackEntry::new(push_label, cos, false, packet.ip.ttl))
                .expect("empty stack");
            packet.splice_stack(stack);
            let top = packet.stack.top().map(|e| e.label);
            return match self.tables.resolve_egress(top, dst) {
                Ok(Hop::Node(next)) => self.finish(2, Action::Forward { next, packet }),
                Ok(Hop::Local) => self.finish(2, Action::Deliver(packet)),
                Err(cause) => self.finish(2, Action::Discard(cause)),
            };
        }

        // Labeled path: run the forwarder and charge its probes.
        let mut stack = packet.stack.clone();
        let before = self.forwarder.total_probes();
        let result = self.forwarder.process_on_port(
            &mut stack,
            dst,
            CosBits::BEST_EFFORT,
            packet.ip.ttl,
            port,
        );
        self.last_probes = self.forwarder.total_probes() - before;
        let probes = self.last_probes;
        match result {
            ProcessResult::Discarded(d) => self.finish(probes, Action::Discard(to_cause(d))),
            ProcessResult::Updated { .. } => {
                packet.splice_stack(stack);
                let top = packet.stack.top().map(|e| e.label);
                // Metadata exposed at the top means the last transport
                // segment ended here: strip the sub-stack (ELI/EL and the
                // MNA LSEs are meaningless past the final endpoint) and
                // route the bare packet by IP.
                if top.is_some_and(sr::is_metadata_indicator) {
                    packet.splice_stack(LabelStack::new());
                    return match self.tables.resolve_egress(None, dst) {
                        Ok(Hop::Node(next)) => {
                            self.finish(probes + 1, Action::Forward { next, packet })
                        }
                        Ok(Hop::Local) => self.finish(probes + 1, Action::Deliver(packet)),
                        Err(cause) => self.finish(probes + 1, Action::Discard(cause)),
                    };
                }
                let (res, pick) = self
                    .tables
                    .resolve_egress_on(top, dst, packet.stack.entries());
                self.note_pick(pick);
                match res {
                    Ok(Hop::Node(next)) => {
                        self.finish(probes + 1, Action::Forward { next, packet })
                    }
                    Ok(Hop::Local) => self.finish(probes + 1, Action::Deliver(packet)),
                    Err(cause) => self.finish(probes + 1, Action::Discard(cause)),
                }
            }
        }
    }

    fn stats(&self) -> RouterStats {
        // `self.stats` holds the totals of forwarders retired by
        // reprogram; add the live forwarder's share on top.
        let mut stats = self.stats;
        stats.fib_lookups += self.forwarder.fib_lookups();
        if let Some((hits, misses)) = self.forwarder.cache_stats() {
            stats.cache_hits += hits;
            stats.cache_misses += misses;
        }
        stats
    }

    fn reprogram(&mut self, config: &NodeConfig) {
        // Carry the fast-path diagnostics of the forwarder being retired
        // into the sticky stats (the serialized counters already live
        // there; these are the non-serialized ones).
        self.stats.fib_lookups += self.forwarder.fib_lookups();
        if let Some((hits, misses)) = self.forwarder.cache_stats() {
            self.stats.cache_hits += hits;
            self.stats.cache_misses += misses;
        }
        self.forwarder = load_fib(self.rtype, config, self.use_cache);
        self.tables = RouterTables::from_config(config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpls_control::{ControlPlane, LspRequest, Topology};
    use mpls_dataplane::ftn::Prefix;
    use mpls_dataplane::HashTable;
    use mpls_packet::ipv4::parse_addr;
    use mpls_packet::{EtherType, EthernetFrame, Ipv4Header, LabelStack, MacAddr};

    fn packet_to_ttl(dst: &str, ttl: u8) -> MplsPacket {
        MplsPacket::ipv4(
            EthernetFrame {
                dst: MacAddr::from_node(0, 0),
                src: MacAddr::from_node(9, 0),
                ethertype: EtherType::Ipv4,
            },
            Ipv4Header::new(
                parse_addr("10.9.0.1").unwrap(),
                parse_addr(dst).unwrap(),
                Ipv4Header::PROTO_UDP,
                ttl,
                16,
            ),
            bytes::Bytes::from_static(&[0u8; 16]),
        )
    }

    fn packet_to(dst: &str) -> MplsPacket {
        packet_to_ttl(dst, 64)
    }

    fn setup() -> (ControlPlane, u32) {
        let mut cp = ControlPlane::new(Topology::figure1_example());
        let id = cp
            .establish_lsp(LspRequest::best_effort(
                0,
                1,
                Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
            ))
            .unwrap();
        (cp, id)
    }

    #[test]
    fn full_path_ingress_transit_egress() {
        let (cp, id) = setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let mut ingress: SoftwareRouter<HashTable> = SoftwareRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            SwTimingModel::default(),
        );
        let out = ingress.handle(packet_to("192.168.1.5"));
        let Action::Forward { next, packet } = out.action else {
            panic!("expected forward");
        };
        assert_eq!(next, 2);
        assert_eq!(packet.stack.top().unwrap().label, lsp.hop_labels[0]);

        let mut transit: SoftwareRouter<HashTable> = SoftwareRouter::new(
            2,
            RouterRole::Lsr,
            &cp.config_for(2),
            SwTimingModel::default(),
        );
        let out = transit.handle(packet);
        let Action::Forward { next, packet } = out.action else {
            panic!("expected forward");
        };
        assert_eq!(next, 3);
        assert_eq!(packet.stack.top().unwrap().label, lsp.hop_labels[1]);
        assert_eq!(packet.stack.top().unwrap().ttl, 63);
    }

    #[test]
    fn latency_model_charges_probes() {
        let (cp, id) = setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let timing = SwTimingModel {
            per_packet_ns: 100,
            per_probe_ns: 10,
        };
        let mut transit: SoftwareRouter<HashTable> =
            SoftwareRouter::new(2, RouterRole::Lsr, &cp.config_for(2), timing);
        let mut p = packet_to("192.168.1.5");
        let mut s = LabelStack::new();
        s.push_parts(lsp.hop_labels[0], CosBits::BEST_EFFORT, 63)
            .unwrap();
        p.splice_stack(s);
        let out = transit.handle(p);
        // 1 hash probe + 1 next-hop resolution = 2 probes on top of fixed.
        assert_eq!(out.latency_ns, 100 + 2 * 10);
    }

    #[test]
    fn discards_match_hardware_reasons() {
        let (cp, _) = setup();
        let mut transit: SoftwareRouter<HashTable> = SoftwareRouter::new(
            2,
            RouterRole::Lsr,
            &cp.config_for(2),
            SwTimingModel::default(),
        );
        let mut p = packet_to("192.168.1.5");
        let mut s = LabelStack::new();
        s.push_parts(
            mpls_packet::Label::new(4242).unwrap(),
            CosBits::BEST_EFFORT,
            63,
        )
        .unwrap();
        p.splice_stack(s);
        assert_eq!(
            transit.handle(p).action,
            Action::Discard(DiscardCause::NoEntryFound)
        );

        let out = transit.handle(packet_to("172.16.0.9"));
        assert_eq!(out.action, Action::Discard(DiscardCause::NoRoute));
    }

    #[test]
    fn ingress_ttl_edges_match_the_embedded_model() {
        // TTL 0 dies before the push (after classification, so NoRoute
        // still wins for unroutable packets); TTL 1 pushes and survives
        // to die at the next hop — identical to the embedded router.
        let (cp, id) = setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let mut ingress: SoftwareRouter<HashTable> = SoftwareRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            SwTimingModel::default(),
        );
        assert_eq!(
            ingress.handle(packet_to_ttl("192.168.1.5", 0)).action,
            Action::Discard(DiscardCause::TtlExpired)
        );
        let out = ingress.handle(packet_to_ttl("192.168.1.5", 1));
        match out.action {
            Action::Forward { packet, .. } => {
                assert_eq!(packet.stack.top().unwrap().label, lsp.hop_labels[0]);
                assert_eq!(packet.stack.top().unwrap().ttl, 1);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn fast_path_reports_the_same_decisions_and_latency() {
        // The SoftwareFast configuration (HashFib + flow cache) must be
        // observably identical to the linear router, per packet: same
        // actions, same latencies. Only the non-serialized diagnostics
        // tell them apart.
        let (cp, id) = setup();
        let timing = SwTimingModel::default();
        let mut linear: SoftwareRouter<mpls_dataplane::LinearTable> =
            SoftwareRouter::new(2, RouterRole::Lsr, &cp.config_for(2), timing);
        let mut fast: SoftwareRouter<mpls_dataplane::HashFib> =
            SoftwareRouter::with_options(2, RouterRole::Lsr, &cp.config_for(2), timing, true);
        let lsp0 = cp.lsp(id).unwrap().clone();
        for _ in 0..4 {
            let mut p = packet_to("192.168.1.5");
            let mut s = LabelStack::new();
            s.push_parts(lsp0.hop_labels[0], CosBits::BEST_EFFORT, 63)
                .unwrap();
            p.splice_stack(s);
            let mut q = p.clone();
            q.splice_stack(p.stack.clone());
            let a = linear.handle(p);
            let b = fast.handle(q);
            assert_eq!(a, b);
        }
        let (ls, fs) = (linear.stats(), fast.stats());
        assert_eq!(ls.total_latency_ns, fs.total_latency_ns);
        assert_eq!(ls.forwarded, fs.forwarded);
        assert!(fs.cache_hits > 0, "repeat packets hit the flow cache");
        assert!(
            fs.fib_lookups < ls.fib_lookups || ls.fib_lookups == 0,
            "the cache absorbs repeat lookups"
        );
    }

    #[test]
    fn reprogram_structurally_drops_the_flow_cache() {
        // An SR recompile (or any control-plane rewrite) downloads fresh
        // state through `reprogram`, which rebuilds the forwarder — and
        // with it the flow cache. This pins that: a memoized binding for
        // a route the new configuration no longer carries must be
        // unreachable afterwards, never served stale.
        let (cp, id) = setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let timing = SwTimingModel::default();
        let mut transit: SoftwareRouter<mpls_dataplane::HashFib> =
            SoftwareRouter::with_options(2, RouterRole::Lsr, &cp.config_for(2), timing, true);
        let labeled = || {
            let mut p = packet_to("192.168.1.5");
            let mut s = LabelStack::new();
            s.push_parts(lsp.hop_labels[0], CosBits::BEST_EFFORT, 63)
                .unwrap();
            p.splice_stack(s);
            p
        };
        // Warm the cache: first packet misses, the repeat hits.
        assert!(matches!(
            transit.handle(labeled()).action,
            Action::Forward { next: 3, .. }
        ));
        assert!(matches!(
            transit.handle(labeled()).action,
            Action::Forward { next: 3, .. }
        ));
        let (hits, misses) = transit.forwarder().cache_stats().unwrap();
        assert!(
            hits >= 1 && misses >= 1,
            "cache must be warm ({hits}/{misses})"
        );

        // The LSP is retired: reprogram from a control plane that never
        // signaled it. The label's old next hop (3) is dead state now.
        let bare = ControlPlane::new(Topology::figure1_example());
        transit.reprogram(&bare.config_for(2));

        // A stale cache entry would still forward to 3; the rebuilt
        // forwarder must consult the new FIB and find nothing.
        assert_eq!(
            transit.handle(labeled()).action,
            Action::Discard(DiscardCause::NoEntryFound)
        );
        let (h2, _) = transit.forwarder().cache_stats().unwrap();
        assert_eq!(h2, 0, "the post-reprogram cache must start cold");
        // The retired forwarder's diagnostics fold into the sticky stats.
        let s = transit.stats();
        assert!(s.cache_hits >= hits && s.cache_misses >= misses);
    }

    #[test]
    fn egress_delivers_unlabeled() {
        let (cp, id) = setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let mut egress: SoftwareRouter<HashTable> = SoftwareRouter::new(
            1,
            RouterRole::Ler,
            &cp.config_for(1),
            SwTimingModel::default(),
        );
        let mut p = packet_to("192.168.1.5");
        let mut s = LabelStack::new();
        s.push_parts(lsp.hop_labels[2], CosBits::BEST_EFFORT, 61)
            .unwrap();
        p.splice_stack(s);
        let out = egress.handle(p);
        assert!(matches!(out.action, Action::Deliver(p) if p.stack.is_empty()));
    }
}

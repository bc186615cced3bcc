//! The embedded MPLS router: the Fig. 6 pipeline around the hardware
//! label stack modifier.
//!
//! Per-packet cost in clock cycles, all charged at the configured clock:
//!
//! * load: one `user push` (3 cycles) per arriving label-stack entry —
//!   "the ingress packet processing \[module\] is used to deliver the label
//!   stack and a packet identifier to the label stack modifier";
//! * update: the `update stack` cost (search + operation);
//! * unload: one `user pop` (3 cycles) per resulting entry, which also
//!   leaves the modifier's stack empty for the next packet;
//! * slow path: a `write label pair` (3 cycles) the first time a FEC-
//!   classified flow is seen, installing its exact level-1 pair (the
//!   hardware cannot longest-prefix match, so the ingress runs the
//!   level-1 memory as a flow cache).
//!
//! The modifier runs at transaction level ([`TxnModifier`]): each cost is
//! the Table 6 closed form, so no clock is stepped. Debug builds also
//! program the clocked [`LabelStackModifier`] with every write and drive
//! it through every packet, asserting that both give the same stage
//! cycles, verdict, output stack and performance counters.

use crate::forwarding::{Action, DiscardCause, Forwarding, MplsForwarder, RouterStats};
use crate::pipeline::{sr_entries, RouterTables, SrPick};
#[cfg(debug_assertions)]
use crate::txn::oracle;
use crate::txn::{Transaction, TxnModifier};
use mpls_control::{Hop, NodeConfig, NodeId, RouterRole};
#[cfg(debug_assertions)]
use mpls_core::LabelStackModifier;
use mpls_core::{ClockSpec, DiscardReason, Level, RouterType};
use mpls_dataplane::LabelOp;
use mpls_packet::sr;
use mpls_packet::EMBEDDED_STACK_DEPTH;
use mpls_packet::{label::LabelStackEntry, CosBits, Label, LabelStack, MplsPacket};

/// Maps hardware discard reasons onto router-level causes.
fn to_cause(r: DiscardReason) -> DiscardCause {
    match r {
        DiscardReason::NoEntryFound => DiscardCause::NoEntryFound,
        DiscardReason::TtlExpired => DiscardCause::TtlExpired,
        DiscardReason::InconsistentOperation => DiscardCause::InconsistentOperation,
    }
}

/// The information-base level a control-plane binding targets.
fn level_of(level: u8) -> Level {
    match level {
        1 => Level::L1,
        2 => Level::L2,
        _ => Level::L3,
    }
}

/// An MPLS router whose label operations run on the embedded hardware
/// model.
#[derive(Debug, Clone)]
pub struct EmbeddedRouter {
    node: NodeId,
    modifier: TxnModifier,
    /// The clocked modifier, written and driven beside `modifier` and
    /// checked against it.
    #[cfg(debug_assertions)]
    oracle: LabelStackModifier,
    tables: RouterTables,
    clock: ClockSpec,
    stats: RouterStats,
}

impl EmbeddedRouter {
    /// Builds a router for `node` with `role`, programming the information
    /// base from the control plane's `config`.
    pub fn new(node: NodeId, role: RouterRole, config: &NodeConfig, clock: ClockSpec) -> Self {
        let rtype = match role {
            RouterRole::Ler => RouterType::Ler,
            RouterRole::Lsr => RouterType::Lsr,
        };
        Self::programmed(node, rtype, config, clock)
    }

    /// A router of `rtype` with fresh statistics, its information base
    /// written from `config`.
    fn programmed(node: NodeId, rtype: RouterType, config: &NodeConfig, clock: ClockSpec) -> Self {
        let mut router = Self {
            node,
            modifier: TxnModifier::new(rtype),
            #[cfg(debug_assertions)]
            oracle: oracle::clocked(rtype),
            tables: RouterTables::from_config(config),
            clock,
            stats: RouterStats::default(),
        };
        for (level, n) in Level::ALL.into_iter().zip(config.bindings_per_level()) {
            router.modifier.reserve(level, n);
        }
        for b in &config.bindings {
            let stored = router.write_pair(level_of(b.level), b.key, b.new_label, b.op);
            debug_assert!(stored, "info base overflow at setup");
        }
        router
    }

    /// The configured clock.
    pub fn clock(&self) -> ClockSpec {
        self.clock
    }

    /// `write label pair`; false when the level is full.
    fn write_pair(&mut self, level: Level, key: u64, label: Label, op: LabelOp) -> bool {
        let stored = self.modifier.write_pair(level, key, label, op);
        #[cfg(debug_assertions)]
        {
            let r = self
                .oracle
                .write_pair(level, key, label, oracle::to_ib_op(op));
            let clocked_stored = r.outcome == mpls_core::Outcome::Done;
            assert_eq!(
                stored, clocked_stored,
                "node {}: {level} write of key {key} diverged from the clocked modifier",
                self.node
            );
        }
        stored
    }

    /// Runs the packet's stack through the modifier.
    fn transact(
        &mut self,
        stack: &mut LabelStack,
        dst: u32,
        push_cos: CosBits,
        ttl: u8,
    ) -> Transaction {
        #[cfg(debug_assertions)]
        let mut clocked_stack = stack.clone();
        let t = self.modifier.transact(stack, dst, push_cos, ttl);
        #[cfg(debug_assertions)]
        {
            let want = oracle::transact(&mut self.oracle, &mut clocked_stack, dst, push_cos, ttl);
            assert_eq!(
                (t, &*stack),
                (want, &clocked_stack),
                "node {}: transaction-level modifier diverged from the clocked one",
                self.node
            );
            assert_eq!(
                self.modifier.perf(),
                self.oracle.perf(),
                "node {}: closed-form perf counters diverged from the clocked ones",
                self.node
            );
        }
        t
    }

    fn finish(&mut self, cycles: u64, action: Action) -> Forwarding {
        let latency_ns = self.clock.cycles_to_duration(cycles).as_nanos() as u64;
        self.stats.total_cycles += cycles;
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

    /// Segment-routing ingress of the source route `entries` (top first).
    /// The embedded pipeline can hold at most [`EMBEDDED_STACK_DEPTH`]
    /// entries, so only source routes compressed to fit the entry
    /// registers can be assembled here — a deeper stack is an
    /// inconsistent operation for this hardware, exactly the cost
    /// boundary the RLD model captures. The assembled stack is delivered
    /// through the ingress module at one `user push` (3 cycles) per entry.
    fn sr_ingress(&mut self, mut packet: MplsPacket, entries: &[LabelStackEntry]) -> Forwarding {
        if entries.len() > EMBEDDED_STACK_DEPTH {
            return self.finish(0, Action::Discard(DiscardCause::InconsistentOperation));
        }
        let depth = entries.len() as u64;
        let stack = LabelStack::from_entries(entries).expect("depth checked above");
        packet.splice_stack(stack);
        self.stats.peak_stack_depth = self.stats.peak_stack_depth.max(depth);
        let cycles = 3 * depth;
        self.stats.stage_cycles.load += cycles;
        let dst = packet.ip.dst;
        let top = packet.stack.top().map(|e| e.label);
        let (res, pick) = self
            .tables
            .resolve_egress_on(top, dst, packet.stack.entries());
        self.note_pick(pick);
        match res {
            Ok(Hop::Node(next)) => self.finish(cycles, Action::Forward { next, packet }),
            Ok(Hop::Local) => self.finish(cycles, Action::Deliver(packet)),
            Err(cause) => self.finish(cycles, Action::Discard(cause)),
        }
    }

    /// The MPLS fast/slow path for a packet that must traverse the
    /// modifier.
    fn mpls_path(
        &mut self,
        mut packet: MplsPacket,
        push_cos: CosBits,
        cycles_in: u64,
    ) -> Forwarding {
        let dst = packet.ip.dst;
        let mut stack = std::mem::take(&mut packet.stack);
        let t = self.transact(&mut stack, dst, push_cos, packet.ip.ttl);
        let stages = &mut self.stats.stage_cycles;
        stages.load += t.load;
        stages.update += t.update;
        stages.unload += t.unload;
        let cycles = cycles_in + t.load + t.update + t.unload;
        if let Some(reason) = t.discard {
            return self.finish(cycles, Action::Discard(to_cause(reason)));
        }
        packet.splice_stack(stack);

        let top = packet.stack.top().map(|e| e.label);
        // A metadata indicator on top means the last transport segment
        // ended here: strip the sub-stack and route the bare packet.
        if top.is_some_and(sr::is_metadata_indicator) {
            packet.splice_stack(LabelStack::new());
            return match self.tables.resolve_egress(None, dst) {
                Ok(Hop::Node(next)) => self.finish(cycles, Action::Forward { next, packet }),
                Ok(Hop::Local) => self.finish(cycles, Action::Deliver(packet)),
                Err(cause) => self.finish(cycles, Action::Discard(cause)),
            };
        }
        let (res, pick) = self
            .tables
            .resolve_egress_on(top, dst, packet.stack.entries());
        self.note_pick(pick);
        match res {
            Ok(Hop::Node(next)) => self.finish(cycles, Action::Forward { next, packet }),
            Ok(Hop::Local) => self.finish(cycles, Action::Deliver(packet)),
            Err(cause) => self.finish(cycles, Action::Discard(cause)),
        }
    }
}

impl MplsForwarder for EmbeddedRouter {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn handle(&mut self, packet: MplsPacket) -> Forwarding {
        self.stats.packets_in += 1;
        self.stats.peak_stack_depth = self
            .stats
            .peak_stack_depth
            .max(packet.stack.entries().len() as u64);
        let dst = packet.ip.dst;

        // The entry registers hold EMBEDDED_STACK_DEPTH entries; a deeper
        // arriving stack cannot be loaded and is discarded before it
        // touches the modifier (no cycles spent).
        if packet.stack.entries().len() > EMBEDDED_STACK_DEPTH {
            return self.finish(0, Action::Discard(DiscardCause::InconsistentOperation));
        }

        if packet.stack.is_empty() {
            // Unlabeled arrival: local delivery and plain IP transit skip
            // the modifier entirely.
            match self.tables.ip_route(dst) {
                Some(Hop::Local) => return self.finish(0, Action::Deliver(packet)),
                Some(Hop::Node(next)) => return self.finish(0, Action::Forward { next, packet }),
                None => {}
            }
            // Ingress classification: find the FEC, install the exact
            // level-1 pair on first sight (slow path), then run the
            // hardware push.
            // Segment-routing ingress assembles the whole source route.
            if let Some(policy) = self.tables.sr_classify(dst) {
                if packet.ip.ttl == 0 {
                    return self.finish(0, Action::Discard(DiscardCause::TtlExpired));
                }
                let entries = sr_entries(policy, &packet.ip);
                return self.sr_ingress(packet, &entries);
            }
            let Some((push_label, cos)) = self.tables.classify(dst) else {
                return self.finish(0, Action::Discard(DiscardCause::NoRoute));
            };
            // TTL 0 cannot survive the hardware push (`VerifyInfo` kills
            // it), so discard before the slow path runs: a dead packet
            // must neither occupy a level-1 flow slot nor — when the
            // table is full — be misreported as `FlowTableFull`. This
            // mirrors the software router's check; the labeled TTL rules
            // stay inside the modifier, whose search-first order the
            // golden waveforms pin.
            if packet.ip.ttl == 0 {
                return self.finish(0, Action::Discard(DiscardCause::TtlExpired));
            }
            let mut cycles = 0;
            if !self.modifier.has_flow(dst) {
                cycles += mpls_core::table6::WRITE_PAIR;
                self.stats.stage_cycles.slow_path += mpls_core::table6::WRITE_PAIR;
                if !self.write_pair(Level::L1, dst as u64, push_label, LabelOp::Push) {
                    return self.finish(cycles, Action::Discard(DiscardCause::FlowTableFull));
                }
                self.stats.flow_installs += 1;
            }
            return self.mpls_path(packet, cos, cycles);
        }

        self.mpls_path(packet, CosBits::BEST_EFFORT, 0)
    }

    fn stats(&self) -> RouterStats {
        self.stats
    }

    fn reprogram(&mut self, config: &NodeConfig) {
        // Rebuild the information base from scratch — stale level-1 flow
        // entries must not survive a reroute, or they would keep pushing
        // labels of a torn-down LSP. Statistics carry over: reconvergence
        // does not reset counters, and the performance counter block (if
        // attached) survives the rebuild.
        let rtype = self.modifier.router_type();
        let mut fresh = Self::programmed(self.node, rtype, config, self.clock);
        fresh.modifier.set_perf(self.modifier.take_perf());
        #[cfg(debug_assertions)]
        fresh.oracle.set_perf(self.oracle.take_perf());
        fresh.stats = self.stats;
        *self = fresh;
    }

    fn enable_perf(&mut self) {
        self.modifier.enable_perf();
        #[cfg(debug_assertions)]
        self.oracle.enable_perf();
    }

    fn core_perf(&self) -> Option<&mpls_core::CorePerf> {
        self.modifier.perf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpls_control::{ControlPlane, LspRequest, Topology};
    use mpls_dataplane::ftn::Prefix;
    use mpls_packet::ipv4::parse_addr;
    use mpls_packet::{EtherType, EthernetFrame, Ipv4Header, Label, MacAddr};

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

    fn lsp_setup() -> (ControlPlane, u32) {
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
    fn ingress_labels_a_packet_with_flow_install() {
        let (cp, id) = lsp_setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let mut r = EmbeddedRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            ClockSpec::STRATIX_50MHZ,
        );
        let out = r.handle(packet_to("192.168.1.5"));
        match out.action {
            Action::Forward { next, packet } => {
                assert_eq!(next, 2);
                assert_eq!(packet.stack.depth(), 1);
                assert_eq!(packet.stack.top().unwrap().label, lsp.hop_labels[0]);
                assert_eq!(packet.eth.ethertype, EtherType::MplsUnicast);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        assert_eq!(r.stats().flow_installs, 1);
        // First packet: write pair (3) + update (search hit k=1: 8, +6
        // push-on-empty) + unload one entry (3) = 20 cycles.
        assert_eq!(r.stats().total_cycles, 3 + 8 + 6 + 3);
        assert_eq!(out.latency_ns, 20 * 20);

        // Second packet of the flow skips the slow path.
        let out2 = r.handle(packet_to("192.168.1.5"));
        assert!(matches!(out2.action, Action::Forward { .. }));
        assert_eq!(r.stats().flow_installs, 1);
        assert_eq!(out2.latency_ns, 17 * 20);
    }

    #[test]
    fn transit_swaps() {
        let (cp, id) = lsp_setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let mut r = EmbeddedRouter::new(
            2,
            RouterRole::Lsr,
            &cp.config_for(2),
            ClockSpec::STRATIX_50MHZ,
        );
        let mut p = packet_to("192.168.1.5");
        let mut s = LabelStack::new();
        s.push_parts(lsp.hop_labels[0], CosBits::BEST_EFFORT, 63)
            .unwrap();
        p.splice_stack(s);
        let out = r.handle(p);
        match out.action {
            Action::Forward { next, packet } => {
                assert_eq!(next, 3);
                assert_eq!(packet.stack.top().unwrap().label, lsp.hop_labels[1]);
                assert_eq!(packet.stack.top().unwrap().ttl, 62);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        // load 3 + update (8 + 6) + unload 3
        assert_eq!(r.stats().total_cycles, 3 + 8 + 6 + 3);
    }

    #[test]
    fn egress_pops_and_delivers() {
        let (cp, id) = lsp_setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let mut r = EmbeddedRouter::new(
            1,
            RouterRole::Ler,
            &cp.config_for(1),
            ClockSpec::STRATIX_50MHZ,
        );
        let mut p = packet_to("192.168.1.5");
        let mut s = LabelStack::new();
        s.push_parts(lsp.hop_labels[2], CosBits::BEST_EFFORT, 61)
            .unwrap();
        p.splice_stack(s);
        let out = r.handle(p);
        match out.action {
            Action::Deliver(packet) => {
                assert!(packet.stack.is_empty());
                assert_eq!(packet.eth.ethertype, EtherType::Ipv4);
            }
            other => panic!("expected deliver, got {other:?}"),
        }
    }

    #[test]
    fn unroutable_unlabeled_packet_discards() {
        let (cp, _) = lsp_setup();
        let mut r = EmbeddedRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            ClockSpec::STRATIX_50MHZ,
        );
        let out = r.handle(packet_to("172.16.0.1"));
        assert_eq!(out.action, Action::Discard(DiscardCause::NoRoute));
        assert_eq!(out.latency_ns, 0);
    }

    #[test]
    fn unknown_label_discards_via_hardware_miss() {
        let (cp, _) = lsp_setup();
        let mut r = EmbeddedRouter::new(
            2,
            RouterRole::Lsr,
            &cp.config_for(2),
            ClockSpec::STRATIX_50MHZ,
        );
        let mut p = packet_to("192.168.1.5");
        let mut s = LabelStack::new();
        s.push_parts(Label::new(99_999).unwrap(), CosBits::BEST_EFFORT, 63)
            .unwrap();
        p.splice_stack(s);
        let out = r.handle(p);
        assert_eq!(out.action, Action::Discard(DiscardCause::NoEntryFound));
        // Search miss over the one level-2 pair, after loading one entry.
        assert_eq!(r.stats().total_cycles, 3 + 3 + 7);
    }

    #[test]
    fn ttl_expiry_discards_at_transit() {
        let (cp, id) = lsp_setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let mut r = EmbeddedRouter::new(
            2,
            RouterRole::Lsr,
            &cp.config_for(2),
            ClockSpec::STRATIX_50MHZ,
        );
        for ttl in [0u8, 1] {
            let mut p = packet_to("192.168.1.5");
            let mut s = LabelStack::new();
            s.push_parts(lsp.hop_labels[0], CosBits::BEST_EFFORT, ttl)
                .unwrap();
            p.splice_stack(s);
            let out = r.handle(p);
            assert_eq!(
                out.action,
                Action::Discard(DiscardCause::TtlExpired),
                "ttl {ttl}: must expire before the swap is applied"
            );
        }
    }

    #[test]
    fn ttl_expiry_discards_at_php_pop() {
        let (cp, id) = lsp_setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let mut r = EmbeddedRouter::new(
            1,
            RouterRole::Ler,
            &cp.config_for(1),
            ClockSpec::STRATIX_50MHZ,
        );
        for ttl in [0u8, 1] {
            let mut p = packet_to("192.168.1.5");
            let mut s = LabelStack::new();
            s.push_parts(lsp.hop_labels[2], CosBits::BEST_EFFORT, ttl)
                .unwrap();
            p.splice_stack(s);
            let out = r.handle(p);
            assert_eq!(
                out.action,
                Action::Discard(DiscardCause::TtlExpired),
                "ttl {ttl}: must expire before the pop exposes the payload"
            );
        }
    }

    #[test]
    fn ttl_zero_at_ingress_discards_before_flow_install() {
        // Regression (ISSUE 5): the slow path used to install the level-1
        // flow *before* any TTL check, so a dead packet polluted the flow
        // table (and, with the table full, was misreported as
        // FlowTableFull instead of TtlExpired).
        let (cp, _) = lsp_setup();
        let mut r = EmbeddedRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            ClockSpec::STRATIX_50MHZ,
        );
        let out = r.handle(packet_to_ttl("192.168.1.5", 0));
        assert_eq!(out.action, Action::Discard(DiscardCause::TtlExpired));
        assert_eq!(out.latency_ns, 0, "no modifier interaction at all");
        let s = r.stats();
        assert_eq!(s.flow_installs, 0, "a dead packet must not install a flow");
        assert_eq!(s.stage_cycles.slow_path, 0);
        // The flow table is unpolluted: a live packet still installs and
        // forwards normally.
        let out = r.handle(packet_to("192.168.1.5"));
        assert!(matches!(out.action, Action::Forward { .. }));
        assert_eq!(r.stats().flow_installs, 1);
    }

    #[test]
    fn ttl_one_survives_ingress_push() {
        // TTL 1 is alive at the push point (the hardware writes the
        // control-path TTL verbatim); it dies at the *next* hop's swap.
        let (cp, id) = lsp_setup();
        let lsp = cp.lsp(id).unwrap().clone();
        let mut r = EmbeddedRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            ClockSpec::STRATIX_50MHZ,
        );
        let out = r.handle(packet_to_ttl("192.168.1.5", 1));
        match out.action {
            Action::Forward { packet, .. } => {
                assert_eq!(packet.stack.top().unwrap().label, lsp.hop_labels[0]);
                assert_eq!(packet.stack.top().unwrap().ttl, 1);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn full_flow_table_discards_new_flows_and_keeps_installed_ones() {
        let mut cp = ControlPlane::new(Topology::figure1_example());
        let fec = Prefix::new(parse_addr("10.8.0.0").unwrap(), 16);
        cp.establish_lsp(LspRequest::best_effort(0, 1, fec))
            .unwrap();
        let mut r = EmbeddedRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            ClockSpec::STRATIX_50MHZ,
        );
        let dst = |i: usize| format!("10.8.{}.{}", i / 256, i % 256);
        for i in 0..mpls_core::LEVEL_CAPACITY {
            let out = r.handle(packet_to(&dst(i)));
            assert!(
                matches!(out.action, Action::Forward { next: 2, .. }),
                "flow {i}"
            );
        }
        assert_eq!(r.stats().flow_installs, 1024);

        // Level 1 is full: the write is rejected after its 3 cycles.
        let before = r.stats();
        let out = r.handle(packet_to(&dst(1024)));
        assert_eq!(out.action, Action::Discard(DiscardCause::FlowTableFull));
        assert_eq!(out.latency_ns, 60);
        let after = r.stats();
        assert_eq!(
            after.stage_cycles.slow_path - before.stage_cycles.slow_path,
            3
        );
        assert_eq!(after.total_cycles - before.total_cycles, 3);
        assert_eq!(after.flow_installs, 1024);

        // An installed flow still hits: search at rank 8, push, unload.
        let out = r.handle(packet_to(&dst(7)));
        assert!(matches!(out.action, Action::Forward { next: 2, .. }));
        assert_eq!(out.latency_ns, 20 * (3 * 8 + 5 + 6 + 3));
    }

    #[test]
    fn discards_are_attributed_by_cause() {
        let (cp, _) = lsp_setup();
        let mut r = EmbeddedRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            ClockSpec::STRATIX_50MHZ,
        );
        r.handle(packet_to("172.16.0.1")); // NoRoute
        r.handle(packet_to("172.16.0.2")); // NoRoute
        let s = r.stats();
        assert_eq!(s.by_cause.get(DiscardCause::NoRoute), 2);
        assert_eq!(s.by_cause.total(), s.discarded);
    }

    #[test]
    fn stage_cycles_partition_total_cycles() {
        let (cp, _) = lsp_setup();
        let mut r = EmbeddedRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            ClockSpec::STRATIX_50MHZ,
        );
        r.handle(packet_to("192.168.1.5"));
        let s = r.stats();
        // First packet: slow path 3, update 8+6, unload 3, no load (the
        // packet arrived unlabeled).
        assert_eq!(s.stage_cycles.slow_path, 3);
        assert_eq!(s.stage_cycles.update, 14);
        assert_eq!(s.stage_cycles.unload, 3);
        assert_eq!(s.stage_cycles.load, 0);
        assert_eq!(s.stage_cycles.total(), s.total_cycles);

        r.handle(packet_to("192.168.1.5"));
        let s = r.stats();
        assert_eq!(s.stage_cycles.total(), s.total_cycles, "stays a partition");
        assert_eq!(s.stage_cycles.slow_path, 3, "second packet hits fast path");
    }

    #[test]
    fn perf_block_survives_reprogram() {
        let (cp, id) = lsp_setup();
        let mut r = EmbeddedRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            ClockSpec::STRATIX_50MHZ,
        );
        r.enable_perf();
        r.handle(packet_to("192.168.1.5"));
        let hits_before = r.core_perf().expect("perf enabled").search_hits;
        assert!(hits_before > 0, "the update stack searched level 1");

        let mut cp2 = cp.clone();
        cp2.teardown_lsp(id).unwrap();
        let mut req =
            LspRequest::best_effort(0, 1, Prefix::new(parse_addr("192.168.1.0").unwrap(), 24));
        req.explicit_route = Some(vec![0, 4, 5, 1]);
        cp2.establish_lsp(req).unwrap();
        r.reprogram(&cp2.config_for(0));

        r.handle(packet_to("192.168.1.5"));
        let p = r.core_perf().expect("perf survived reprogram");
        assert!(p.search_hits > hits_before, "counters kept accumulating");
    }

    #[test]
    fn reprogram_swaps_state_and_keeps_stats() {
        let (cp, id) = lsp_setup();
        let mut r = EmbeddedRouter::new(
            0,
            RouterRole::Ler,
            &cp.config_for(0),
            ClockSpec::STRATIX_50MHZ,
        );
        assert!(matches!(
            r.handle(packet_to("192.168.1.5")).action,
            Action::Forward { next: 2, .. }
        ));
        let before = r.stats();
        assert_eq!(before.flow_installs, 1);

        // Re-signal the LSP over the pinned southern path and reprogram.
        let mut cp2 = cp.clone();
        cp2.teardown_lsp(id).unwrap();
        let mut req =
            LspRequest::best_effort(0, 1, Prefix::new(parse_addr("192.168.1.0").unwrap(), 24));
        req.explicit_route = Some(vec![0, 4, 5, 1]);
        cp2.establish_lsp(req).unwrap();
        r.reprogram(&cp2.config_for(0));

        // Same flow now heads south through node 4, via a fresh slow-path
        // install (the stale flow-cache entry did not survive).
        let out = r.handle(packet_to("192.168.1.5"));
        assert!(matches!(out.action, Action::Forward { next: 4, .. }));
        let after = r.stats();
        assert_eq!(after.flow_installs, 2);
        assert!(after.packets_in > before.packets_in, "stats preserved");
    }
}

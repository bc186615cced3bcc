//! The software label stack processor — the pure-software twin of the
//! hardware label stack modifier.
//!
//! [`SoftwareForwarder::process`] implements exactly the per-packet update
//! the hardware performs (search the depth-selected level, then
//! push/pop/swap with TTL handling and discard rules), so the two planes
//! are interchangeable behind the router crate's forwarding trait and
//! differentially testable.
//!
//! # TTL ordering
//!
//! The checks run in the order of the hardware's `VerifyInfo` state:
//! search first (a miss is `NoEntryFound` even at TTL 0), then TTL, then
//! the operation. A labeled packet arriving with TTL ≤ 1 is discarded
//! with `TtlExpired` before swap, push or pop touches the stack, and an
//! unlabeled packet with TTL 0 before the ingress push installs anything,
//! so no discard path half-applies an operation. The `ttl_*` tests below
//! pin this at the push, swap and PHP-pop points.

use crate::cache::FlowCache;
use crate::fib::{Fib, FibLevel};
use crate::lookup::LookupStrategy;
use crate::types::{Discard, LabelBinding, LabelOp, SwRouterType};
use mpls_packet::{label::LabelStackEntry, CosBits, Label, LabelStack, Ttl, EMBEDDED_STACK_DEPTH};

/// Result of processing one packet's label stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessResult {
    /// The stack was updated by this operation.
    Updated {
        /// The applied operation.
        op: LabelOp,
    },
    /// The packet must be discarded; the stack has been cleared.
    Discarded(Discard),
}

/// A software MPLS forwarder over a pluggable lookup strategy.
#[derive(Debug, Clone, Default)]
pub struct SoftwareForwarder<S: LookupStrategy> {
    router_type_is_lsr: bool,
    fib: Fib<S>,
    /// Optional per-ingress flow cache (fast path only).
    cache: Option<FlowCache>,
    /// Cumulative *canonical* probe count — what the lookups charged the
    /// timing model, whether served by the FIB or replayed from the cache.
    probes: u64,
    /// FIB lookups actually executed (cache hits excluded) — the host-side
    /// work counter that distinguishes the paths in diagnostics.
    fib_lookups: u64,
    /// Packets processed.
    processed: u64,
    /// Packets discarded.
    discarded: u64,
}

impl<S: LookupStrategy> SoftwareForwarder<S> {
    /// Creates a forwarder of the given role.
    pub fn new(router_type: SwRouterType) -> Self {
        Self {
            router_type_is_lsr: matches!(router_type, SwRouterType::Lsr),
            fib: Fib::new(),
            cache: None,
            probes: 0,
            fib_lookups: 0,
            processed: 0,
            discarded: 0,
        }
    }

    /// Attaches a flow cache of the default capacity (the fast path).
    pub fn with_flow_cache(mut self) -> Self {
        self.cache = Some(FlowCache::default());
        self
    }

    /// `(hits, misses)` of the flow cache, if one is attached.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(FlowCache::stats)
    }

    /// The configured role.
    pub fn router_type(&self) -> SwRouterType {
        if self.router_type_is_lsr {
            SwRouterType::Lsr
        } else {
            SwRouterType::Ler
        }
    }

    /// The forwarding tables.
    pub fn fib(&self) -> &Fib<S> {
        &self.fib
    }

    /// Mutable access for the control plane. Conservatively flushes the
    /// flow cache: the borrower may rewrite any binding (withdraw, fault
    /// rewrite, LSP retirement), and a stale cached resolution must never
    /// forward a packet the rewritten FIB would not.
    pub fn fib_mut(&mut self) -> &mut Fib<S> {
        if let Some(cache) = &mut self.cache {
            cache.invalidate_all();
        }
        &mut self.fib
    }

    /// Convenience: bind `key -> (new_label, op)` at `level`. Flushes the
    /// flow cache like any other FIB mutation.
    pub fn bind(&mut self, level: FibLevel, key: u64, new_label: Label, op: LabelOp) {
        if let Some(cache) = &mut self.cache {
            cache.invalidate_all();
        }
        self.fib.bind(level, key, LabelBinding::new(new_label, op));
    }

    /// Cumulative *canonical* key comparisons charged to the timing model
    /// (cache hits replay the probes of the lookup they memoized).
    pub fn total_probes(&self) -> u64 {
        self.probes
    }

    /// FIB lookups actually executed — on the fast path this falls below
    /// `processed` by exactly the cache hits.
    pub fn fib_lookups(&self) -> u64 {
        self.fib_lookups
    }

    /// `(processed, discarded)` packet counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.processed, self.discarded)
    }

    /// Processes one packet: `stack` is updated in place (cleared on
    /// discard). `packet_id` keys the level-1 lookup for unlabeled
    /// packets; `push_cos`/`push_ttl` seed a fresh ingress push.
    pub fn process(
        &mut self,
        stack: &mut LabelStack,
        packet_id: u32,
        push_cos: CosBits,
        push_ttl: Ttl,
    ) -> ProcessResult {
        self.process_on_port(stack, packet_id, push_cos, push_ttl, 0)
    }

    /// [`Self::process`] with the arrival port made explicit; the flow
    /// cache keys on `(level, key, port)` so two ingress ports resolving
    /// the same label each get their own entry.
    pub fn process_on_port(
        &mut self,
        stack: &mut LabelStack,
        packet_id: u32,
        push_cos: CosBits,
        push_ttl: Ttl,
        port: u64,
    ) -> ProcessResult {
        self.processed += 1;
        let depth = stack.depth();
        let level = FibLevel::for_stack_depth(depth);
        let key = if depth == 0 {
            packet_id as u64
        } else {
            stack.top().expect("depth > 0").label.value() as u64
        };

        // Fast path: replay a memoized resolution (binding + the canonical
        // probes it was charged with) without touching the FIB; otherwise
        // do the real lookup and memoize a hit.
        let (binding, probes) = match self.cache.as_mut().and_then(|c| c.lookup(level, key, port)) {
            Some((binding, probes)) => (Some(binding), probes),
            None => {
                let (binding, probes) = self.fib.lookup(level, key);
                self.fib_lookups += 1;
                if let (Some(b), Some(cache)) = (binding, &mut self.cache) {
                    cache.install(level, key, port, b, probes);
                }
                (binding, probes)
            }
        };
        self.probes += probes as u64;
        let Some(binding) = binding else {
            return self.discard(stack, Discard::NoEntryFound);
        };

        if depth == 0 {
            return self.ingress_push(stack, binding, push_cos, push_ttl);
        }

        // Labeled path: remove the top, decrement its TTL, verify, apply.
        let top = *stack.top().expect("depth > 0");
        if top.ttl <= 1 {
            return self.discard(stack, Discard::TtlExpired);
        }
        let new_ttl = top.ttl - 1;

        match binding.op {
            LabelOp::Nop => self.discard(stack, Discard::InconsistentOperation),
            LabelOp::Swap => {
                stack.swap(binding.new_label).expect("non-empty");
                // swap keeps CoS; propagate the decremented TTL.
                let mut e = *stack.top().expect("non-empty");
                e.ttl = new_ttl;
                stack.pop().expect("non-empty");
                stack.push(e).expect("same depth");
                ProcessResult::Updated { op: LabelOp::Swap }
            }
            LabelOp::Pop => {
                stack.pop().expect("non-empty");
                // Uniform TTL model: write the decremented TTL into the
                // newly exposed entry, if any.
                if let Some(inner) = stack.top().copied() {
                    let mut e = inner;
                    e.ttl = new_ttl;
                    stack.pop().expect("non-empty");
                    stack.push(e).expect("same depth");
                }
                ProcessResult::Updated { op: LabelOp::Pop }
            }
            LabelOp::Push => {
                // Mirror the hardware's entry-register capacity, not the
                // wire maximum, so software and embedded data paths agree
                // on when a push is inconsistent.
                if depth + 1 > EMBEDDED_STACK_DEPTH {
                    return self.discard(stack, Discard::InconsistentOperation);
                }
                // Old entry keeps its label/CoS with the decremented TTL;
                // the new entry inherits CoS and TTL from it.
                let mut old = top;
                old.ttl = new_ttl;
                stack.pop().expect("non-empty");
                stack.push(old).expect("capacity checked");
                stack
                    .push(LabelStackEntry::new(
                        binding.new_label,
                        top.cos,
                        false,
                        new_ttl,
                    ))
                    .expect("capacity checked");
                ProcessResult::Updated { op: LabelOp::Push }
            }
        }
    }

    fn ingress_push(
        &mut self,
        stack: &mut LabelStack,
        binding: LabelBinding,
        push_cos: CosBits,
        push_ttl: Ttl,
    ) -> ProcessResult {
        // Only an LER may label an unlabeled packet, and only via push.
        if self.router_type_is_lsr || binding.op != LabelOp::Push {
            return self.discard(stack, Discard::InconsistentOperation);
        }
        if push_ttl == 0 {
            return self.discard(stack, Discard::TtlExpired);
        }
        stack
            .push(LabelStackEntry::new(
                binding.new_label,
                push_cos,
                false,
                push_ttl,
            ))
            .expect("empty stack");
        ProcessResult::Updated { op: LabelOp::Push }
    }

    fn discard(&mut self, stack: &mut LabelStack, reason: Discard) -> ProcessResult {
        self.discarded += 1;
        stack.clear();
        ProcessResult::Discarded(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::{HashTable, LinearTable};

    fn lbl(v: u32) -> Label {
        Label::new(v).unwrap()
    }

    fn labeled_stack(labels: &[(u32, u8, u8)]) -> LabelStack {
        // (label, cos, ttl) bottom-first.
        let mut s = LabelStack::new();
        for (l, c, t) in labels {
            s.push_parts(lbl(*l), CosBits::new(*c).unwrap(), *t)
                .unwrap();
        }
        s
    }

    #[test]
    fn swap_semantics() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        f.bind(FibLevel::L2, 100, lbl(200), LabelOp::Swap);
        let mut s = labeled_stack(&[(100, 5, 64)]);
        let r = f.process(&mut s, 0, CosBits::BEST_EFFORT, 0);
        assert_eq!(r, ProcessResult::Updated { op: LabelOp::Swap });
        let top = s.top().unwrap();
        assert_eq!(top.label.value(), 200);
        assert_eq!(top.ttl, 63);
        assert_eq!(top.cos.value(), 5);
        s.validate().unwrap();
    }

    #[test]
    fn pop_propagates_ttl() {
        let mut f: SoftwareForwarder<LinearTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        f.bind(FibLevel::L3, 20, lbl(0), LabelOp::Pop);
        let mut s = labeled_stack(&[(10, 0, 40), (20, 0, 30)]);
        let r = f.process(&mut s, 0, CosBits::BEST_EFFORT, 0);
        assert_eq!(r, ProcessResult::Updated { op: LabelOp::Pop });
        assert_eq!(s.depth(), 1);
        assert_eq!(s.top().unwrap().label.value(), 10);
        assert_eq!(s.top().unwrap().ttl, 29);
    }

    #[test]
    fn push_adds_level() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        f.bind(FibLevel::L2, 100, lbl(300), LabelOp::Push);
        let mut s = labeled_stack(&[(100, 3, 64)]);
        let r = f.process(&mut s, 0, CosBits::BEST_EFFORT, 0);
        assert_eq!(r, ProcessResult::Updated { op: LabelOp::Push });
        assert_eq!(s.depth(), 2);
        assert_eq!(s.entries()[0].label.value(), 300);
        assert_eq!(s.entries()[0].ttl, 63);
        assert_eq!(s.entries()[1].label.value(), 100);
        assert_eq!(s.entries()[1].ttl, 63);
    }

    #[test]
    fn ingress_push_on_ler() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Ler);
        f.bind(FibLevel::L1, 0x0a000001, lbl(777), LabelOp::Push);
        let mut s = LabelStack::new();
        let r = f.process(&mut s, 0x0a000001, CosBits::EXPEDITED, 63);
        assert_eq!(r, ProcessResult::Updated { op: LabelOp::Push });
        let top = s.top().unwrap();
        assert_eq!(top.label.value(), 777);
        assert_eq!(top.cos, CosBits::EXPEDITED);
        assert_eq!(top.ttl, 63);
    }

    #[test]
    fn lsr_rejects_unlabeled() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        f.bind(FibLevel::L1, 1, lbl(777), LabelOp::Push);
        let mut s = LabelStack::new();
        assert_eq!(
            f.process(&mut s, 1, CosBits::BEST_EFFORT, 64),
            ProcessResult::Discarded(Discard::InconsistentOperation)
        );
    }

    #[test]
    fn ttl_expiry_clears_stack() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        f.bind(FibLevel::L2, 9, lbl(10), LabelOp::Swap);
        for ttl in [0u8, 1] {
            let mut s = labeled_stack(&[(9, 0, ttl)]);
            assert_eq!(
                f.process(&mut s, 0, CosBits::BEST_EFFORT, 0),
                ProcessResult::Discarded(Discard::TtlExpired)
            );
            assert!(s.is_empty());
        }
    }

    #[test]
    fn miss_discards() {
        let mut f: SoftwareForwarder<LinearTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        let mut s = labeled_stack(&[(9, 0, 64)]);
        assert_eq!(
            f.process(&mut s, 0, CosBits::BEST_EFFORT, 0),
            ProcessResult::Discarded(Discard::NoEntryFound)
        );
        assert!(s.is_empty());
        assert_eq!(f.counters(), (1, 1));
    }

    #[test]
    fn nop_binding_discards() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        f.bind(FibLevel::L2, 9, lbl(10), LabelOp::Nop);
        let mut s = labeled_stack(&[(9, 0, 64)]);
        assert_eq!(
            f.process(&mut s, 0, CosBits::BEST_EFFORT, 0),
            ProcessResult::Discarded(Discard::InconsistentOperation)
        );
    }

    #[test]
    fn push_overflow_discards() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        f.bind(FibLevel::L3, 3, lbl(4), LabelOp::Push);
        let mut s = labeled_stack(&[(1, 0, 64), (2, 0, 64), (3, 0, 64)]);
        assert_eq!(
            f.process(&mut s, 0, CosBits::BEST_EFFORT, 0),
            ProcessResult::Discarded(Discard::InconsistentOperation)
        );
    }

    // TTL edge sweep (ISSUE 5 satellite): the expiry check must fire
    // *before* the operation is applied, at every operation point.

    #[test]
    fn ttl_one_succeeds_at_ingress_push() {
        // Push writes the control-plane TTL verbatim; only TTL 0 is dead.
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Ler);
        f.bind(FibLevel::L1, 1, lbl(7), LabelOp::Push);
        let mut s = LabelStack::new();
        assert_eq!(
            f.process(&mut s, 1, CosBits::BEST_EFFORT, 1),
            ProcessResult::Updated { op: LabelOp::Push }
        );
        assert_eq!(s.top().unwrap().ttl, 1);
    }

    #[test]
    fn ttl_zero_discards_at_ingress_push() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Ler);
        f.bind(FibLevel::L1, 1, lbl(7), LabelOp::Push);
        let mut s = LabelStack::new();
        assert_eq!(
            f.process(&mut s, 1, CosBits::BEST_EFFORT, 0),
            ProcessResult::Discarded(Discard::TtlExpired)
        );
        assert!(s.is_empty());
    }

    #[test]
    fn ttl_expiry_discards_before_php_pop() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        f.bind(FibLevel::L3, 20, lbl(0), LabelOp::Pop);
        for ttl in [0u8, 1] {
            let mut s = labeled_stack(&[(10, 0, 40), (20, 0, ttl)]);
            assert_eq!(
                f.process(&mut s, 0, CosBits::BEST_EFFORT, 0),
                ProcessResult::Discarded(Discard::TtlExpired),
                "ttl {ttl}: must expire before the pop exposes the inner entry"
            );
            assert!(s.is_empty());
        }
    }

    #[test]
    fn ttl_expiry_discards_before_mid_stack_push() {
        let mut f: SoftwareForwarder<HashTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        f.bind(FibLevel::L2, 100, lbl(300), LabelOp::Push);
        for ttl in [0u8, 1] {
            let mut s = labeled_stack(&[(100, 0, ttl)]);
            assert_eq!(
                f.process(&mut s, 0, CosBits::BEST_EFFORT, 0),
                ProcessResult::Discarded(Discard::TtlExpired),
                "ttl {ttl}: must expire before the push is applied"
            );
        }
    }

    // Flow-cache semantics.

    #[test]
    fn cache_hit_replays_canonical_probes() {
        let mut f: SoftwareForwarder<LinearTable> =
            SoftwareForwarder::new(SwRouterType::Lsr).with_flow_cache();
        for i in 1..=8u64 {
            f.bind(FibLevel::L2, i, lbl(500), LabelOp::Swap);
        }
        for _ in 0..3 {
            let mut s = labeled_stack(&[(8, 0, 64)]);
            f.process(&mut s, 0, CosBits::BEST_EFFORT, 0);
        }
        // Each pass charges the full linear rank even though only the
        // first touched the FIB — latency is identical, host work is not.
        assert_eq!(f.total_probes(), 24);
        assert_eq!(f.fib_lookups(), 1);
        assert_eq!(f.cache_stats(), Some((2, 1)));
    }

    #[test]
    fn cache_distinguishes_ports() {
        let mut f: SoftwareForwarder<HashTable> =
            SoftwareForwarder::new(SwRouterType::Lsr).with_flow_cache();
        f.bind(FibLevel::L2, 9, lbl(10), LabelOp::Swap);
        let mut s = labeled_stack(&[(9, 0, 64)]);
        f.process_on_port(&mut s, 0, CosBits::BEST_EFFORT, 0, 1);
        let mut s = labeled_stack(&[(9, 0, 64)]);
        f.process_on_port(&mut s, 0, CosBits::BEST_EFFORT, 0, 2);
        assert_eq!(f.fib_lookups(), 2, "each port fills its own entry");
    }

    #[test]
    fn stale_cache_after_withdraw_must_not_forward() {
        let mut f: SoftwareForwarder<LinearTable> =
            SoftwareForwarder::new(SwRouterType::Lsr).with_flow_cache();
        f.bind(FibLevel::L2, 9, lbl(10), LabelOp::Swap);
        let mut s = labeled_stack(&[(9, 0, 64)]);
        assert!(matches!(
            f.process(&mut s, 0, CosBits::BEST_EFFORT, 0),
            ProcessResult::Updated { .. }
        ));
        // Withdraw: the control plane rebuilds the level without label 9.
        f.fib_mut().clear_level(FibLevel::L2);
        let mut s = labeled_stack(&[(9, 0, 64)]);
        assert_eq!(
            f.process(&mut s, 0, CosBits::BEST_EFFORT, 0),
            ProcessResult::Discarded(Discard::NoEntryFound),
            "the cached resolution of a withdrawn label must not forward"
        );
    }

    #[test]
    fn rebinding_after_flush_serves_the_new_binding() {
        let mut f: SoftwareForwarder<HashTable> =
            SoftwareForwarder::new(SwRouterType::Lsr).with_flow_cache();
        f.bind(FibLevel::L2, 9, lbl(10), LabelOp::Swap);
        let mut s = labeled_stack(&[(9, 0, 64)]);
        f.process(&mut s, 0, CosBits::BEST_EFFORT, 0);
        f.fib_mut().clear_level(FibLevel::L2);
        f.bind(FibLevel::L2, 9, lbl(77), LabelOp::Swap);
        let mut s = labeled_stack(&[(9, 0, 64)]);
        f.process(&mut s, 0, CosBits::BEST_EFFORT, 0);
        assert_eq!(s.top().unwrap().label.value(), 77);
    }

    #[test]
    fn probe_accounting_accumulates() {
        let mut f: SoftwareForwarder<LinearTable> = SoftwareForwarder::new(SwRouterType::Lsr);
        for i in 1..=8u64 {
            f.bind(FibLevel::L2, i, lbl(500), LabelOp::Swap);
        }
        let mut s = labeled_stack(&[(8, 0, 64)]);
        f.process(&mut s, 0, CosBits::BEST_EFFORT, 0);
        assert_eq!(f.total_probes(), 8);
    }
}

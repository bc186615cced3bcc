//! The transaction-level label stack modifier: what the clocked
//! [`LabelStackModifier`](mpls_core::LabelStackModifier) computes for one
//! packet, computed without clocking it.
//!
//! Every cost the clocked model measures has a closed form in Table 6
//! ([`table6`]), given the position of the matching pair. [`HashFib`]
//! returns exactly that position as its canonical probe count: the
//! 1-based rank of the key's first insert on a hit, and the insert count
//! (shadowed duplicates included) on a miss. So one [`HashFib`] per
//! information-base level plus the Table 6 formulas give each packet's
//! output stack, discard reason, cycles per stage and — in closed form,
//! see [`CorePerf`]'s `count_*` methods — the per-state performance
//! counters, in O(1) host time.
//!
//! The clocked model stays the measurement and the oracle: the embedded
//! router drives it beside this one in every debug build and asserts that
//! both agree, and the tests below compare them exhaustively on small
//! programs and at realistic table sizes.

use mpls_core::perf::UpdateEnd;
use mpls_core::{table6, CorePerf, DiscardReason, Level, RouterType, LEVEL_CAPACITY};
use mpls_dataplane::{HashFib, LabelBinding, LabelOp, LookupStrategy};
use mpls_packet::label::LabelStackEntry;
use mpls_packet::{CosBits, Label, LabelStack, Ttl, EMBEDDED_STACK_DEPTH};

/// One packet's pass through the modifier: the cycles of each stage and
/// the verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Transaction {
    /// One `user push` (3 cycles) per arriving entry.
    pub load: u64,
    /// The `update stack` command: search plus operation.
    pub update: u64,
    /// One `user pop` (3 cycles) per resulting entry; 0 after a discard.
    pub unload: u64,
    /// Why the update discarded the packet, if it did.
    pub discard: Option<DiscardReason>,
}

/// The label stack modifier at transaction level: one [`HashFib`] per
/// information-base level and the Table 6 costs.
#[derive(Debug, Clone)]
pub struct TxnModifier {
    router_type: RouterType,
    levels: [HashFib; 3],
    perf: Option<Box<CorePerf>>,
}

impl TxnModifier {
    /// An empty modifier configured as `router_type`.
    pub fn new(router_type: RouterType) -> Self {
        Self {
            router_type,
            levels: Default::default(),
            perf: None,
        }
    }

    /// The configured router type.
    pub fn router_type(&self) -> RouterType {
        self.router_type
    }

    /// `write label pair` (3 cycles): stores `key -> (label, op)` at
    /// `level`, the key cut to the level's index width. Returns `false`,
    /// storing nothing, when the level already holds [`LEVEL_CAPACITY`]
    /// pairs — shadowed duplicates count, as they fill hardware slots.
    pub fn write_pair(&mut self, level: Level, key: u64, label: Label, op: LabelOp) -> bool {
        if let Some(p) = self.perf.as_deref_mut() {
            p.count_write_pair();
        }
        let fib = &mut self.levels[level.index()];
        if fib.len() >= LEVEL_CAPACITY {
            return false;
        }
        let width_mask = u64::MAX >> (64 - level.index_width());
        fib.insert(key & width_mask, LabelBinding::new(label, op));
        true
    }

    /// Makes room for `pairs` more writes at `level` — at most the
    /// level's [`LEVEL_CAPACITY`], since it stores no more — so
    /// programming a config sizes each level once.
    pub fn reserve(&mut self, level: Level, pairs: usize) {
        self.levels[level.index()].reserve(pairs.min(LEVEL_CAPACITY));
    }

    /// True when level 1 holds a pair for `packet_id`.
    pub fn has_flow(&self, packet_id: u32) -> bool {
        self.levels[Level::L1.index()]
            .get(packet_id as u64)
            .0
            .is_some()
    }

    /// Runs one packet's label stack through the modifier: loads it,
    /// updates it with `packet_id`, `push_cos` and `push_ttl` as the
    /// control-path inputs of an ingress push, and unloads the result
    /// into `stack`. After a discard `stack` is left as it arrived.
    pub fn transact(
        &mut self,
        stack: &mut LabelStack,
        packet_id: u32,
        push_cos: CosBits,
        push_ttl: Ttl,
    ) -> Transaction {
        let arriving = stack.depth() as u64;
        debug_assert!(
            stack.depth() <= EMBEDDED_STACK_DEPTH,
            "stack deeper than the entry registers"
        );
        let (update, probes, end) = self.update(stack, packet_id, push_cos, push_ttl);
        let discard = end.err();
        let leaving = if discard.is_some() {
            0
        } else {
            stack.depth() as u64
        };
        if let Some(p) = self.perf.as_deref_mut() {
            p.count_user_pushes(arriving);
            let shape = match end {
                Ok(shape) => shape,
                Err(DiscardReason::NoEntryFound) => UpdateEnd::Miss,
                Err(_) => UpdateEnd::Discard,
            };
            p.count_update(probes, shape);
            p.count_user_pops(leaving);
        }
        Transaction {
            load: table6::USER_PUSH * arriving,
            update,
            unload: table6::USER_POP * leaving,
            discard,
        }
    }

    /// `update stack`: searches the level the stack depth selects and
    /// applies the stored operation. Returns the cycles, the entries the
    /// search examined, and how the update ended.
    fn update(
        &self,
        stack: &mut LabelStack,
        packet_id: u32,
        push_cos: CosBits,
        push_ttl: Ttl,
    ) -> (u64, u64, Result<UpdateEnd, DiscardReason>) {
        let depth = stack.depth();
        let top = stack.top().copied();
        let key = top.map_or(packet_id as u64, |e| e.label.value() as u64);
        let (binding, probes) = self.levels[Level::for_stack_depth(depth).index()].get(key);
        let p = probes as u64;
        let Some(b) = binding else {
            return (table6::update_miss(p), p, Err(DiscardReason::NoEntryFound));
        };
        let discard = |reason| (table6::update_verify_discard(p), p, Err(reason));
        let hit = table6::search_hit_at(p);
        let Some(top) = top else {
            // Ingress push onto an empty stack: only an LER may label a
            // packet, only with a push, and with the control-path CoS and
            // TTL taken verbatim.
            if self.router_type == RouterType::Lsr || b.op != LabelOp::Push {
                return discard(DiscardReason::InconsistentOperation);
            }
            if push_ttl == 0 {
                return discard(DiscardReason::TtlExpired);
            }
            push(
                stack,
                LabelStackEntry::new(b.new_label, push_cos, false, push_ttl),
            );
            return (hit + table6::PUSH_FROM_IB_EMPTY, p, Ok(UpdateEnd::Rewrite));
        };
        // The removed entry's TTL: 0 is malformed, 1 decrements to 0.
        if top.ttl <= 1 {
            return discard(DiscardReason::TtlExpired);
        }
        let ttl = top.ttl - 1;
        let new = LabelStackEntry::new(b.new_label, top.cos, false, ttl);
        let (cost, end) = match b.op {
            LabelOp::Nop => return discard(DiscardReason::InconsistentOperation),
            LabelOp::Push if depth == EMBEDDED_STACK_DEPTH => {
                return discard(DiscardReason::InconsistentOperation)
            }
            LabelOp::Swap => {
                pop(stack);
                push(stack, new);
                (table6::SWAP_FROM_IB, UpdateEnd::Rewrite)
            }
            LabelOp::Pop => {
                // The decremented TTL propagates into the exposed entry.
                pop(stack);
                if let Some(exposed) = stack.top().copied() {
                    pop(stack);
                    push(stack, LabelStackEntry { ttl, ..exposed });
                }
                (table6::POP_FROM_IB, UpdateEnd::Pop)
            }
            LabelOp::Push => {
                pop(stack);
                push(stack, LabelStackEntry { ttl, ..top });
                push(stack, new);
                (table6::PUSH_FROM_IB, UpdateEnd::Push)
            }
        };
        (hit + cost, p, Ok(end))
    }

    /// Attaches a fresh performance counter block (no-op if one is
    /// already attached).
    pub fn enable_perf(&mut self) {
        if self.perf.is_none() {
            self.perf = Some(Box::default());
        }
    }

    /// The attached counter block, if any.
    pub fn perf(&self) -> Option<&CorePerf> {
        self.perf.as_deref()
    }

    /// Detaches and returns the counter block.
    pub fn take_perf(&mut self) -> Option<Box<CorePerf>> {
        self.perf.take()
    }

    /// Re-attaches a counter block.
    pub fn set_perf(&mut self, perf: Option<Box<CorePerf>>) {
        self.perf = perf;
    }
}

fn push(stack: &mut LabelStack, entry: LabelStackEntry) {
    stack
        .push(entry)
        .expect("modifier stack within depth bounds");
}

fn pop(stack: &mut LabelStack) {
    stack.pop().expect("modifier stack is not empty");
}

/// The clocked modifier as the oracle of [`TxnModifier`]: the embedded
/// router's debug-build shadow and the tests below drive it through
/// these.
#[cfg(any(test, debug_assertions))]
pub(crate) mod oracle {
    use super::Transaction;
    use mpls_core::{IbOperation, LabelStackModifier, Outcome, RouterType};
    use mpls_dataplane::LabelOp;
    use mpls_packet::{CosBits, LabelStack, Ttl};

    /// A clocked modifier fresh out of reset.
    pub(crate) fn clocked(router_type: RouterType) -> LabelStackModifier {
        let mut m = LabelStackModifier::new(router_type);
        m.reset();
        m
    }

    /// Maps control-plane operations onto the hardware encoding.
    pub(crate) fn to_ib_op(op: LabelOp) -> IbOperation {
        match op {
            LabelOp::Nop => IbOperation::Nop,
            LabelOp::Push => IbOperation::Push,
            LabelOp::Pop => IbOperation::Pop,
            LabelOp::Swap => IbOperation::Swap,
        }
    }

    /// Drives the clocked modifier through one packet as
    /// [`TxnModifier::transact`](super::TxnModifier::transact) models
    /// it: one `user push` per entry, bottom first, then `update stack`,
    /// then `user pop` until the stack is empty.
    pub(crate) fn transact(
        modifier: &mut LabelStackModifier,
        stack: &mut LabelStack,
        packet_id: u32,
        push_cos: CosBits,
        push_ttl: Ttl,
    ) -> Transaction {
        assert_eq!(modifier.stack_depth(), 0, "modifier not drained");
        let mut t = Transaction::default();
        for e in stack.entries().iter().rev() {
            let r = modifier.user_push(*e);
            assert_eq!(r.outcome, Outcome::Done, "stack within the entry registers");
            t.load += r.cycles;
        }
        let r = modifier.update_stack(packet_id, push_cos, push_ttl);
        t.update = r.cycles;
        if let Outcome::Discarded(reason) = r.outcome {
            t.discard = Some(reason);
            return t;
        }
        let mut top_first = Vec::with_capacity(modifier.stack_depth());
        while modifier.stack_depth() > 0 {
            let r = modifier.user_pop();
            t.unload += r.cycles;
            match r.outcome {
                Outcome::Popped(e) => top_first.push(e),
                other => unreachable!("pop of non-empty stack returned {other:?}"),
            }
        }
        *stack = LabelStack::from_entries(&top_first).expect("hardware stack within depth bounds");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{clocked, to_ib_op};
    use super::*;
    use mpls_core::{LabelStackModifier, Outcome};
    use proptest::prelude::*;

    const OPS: [LabelOp; 4] = [LabelOp::Nop, LabelOp::Push, LabelOp::Pop, LabelOp::Swap];
    const TTLS: [Ttl; 4] = [0, 1, 2, 255];
    const PUSH_COS: CosBits = CosBits::from_masked(6);

    fn label(v: u64) -> Label {
        Label::from_masked(v as u32)
    }

    /// The transaction-level modifier and the clocked one, fed the same
    /// writes and packets and compared after each.
    struct Twins {
        txn: TxnModifier,
        rtl: LabelStackModifier,
    }

    impl Twins {
        fn new(rtype: RouterType) -> Self {
            Self {
                txn: TxnModifier::new(rtype),
                rtl: clocked(rtype),
            }
        }

        fn enable_perf(&mut self) {
            self.txn.enable_perf();
            self.rtl.enable_perf();
        }

        /// Rebuilds both empty, keeping their counter blocks.
        fn reprogram(&mut self) {
            let mut fresh = Self::new(self.txn.router_type());
            fresh.txn.set_perf(self.txn.take_perf());
            fresh.rtl.set_perf(self.rtl.take_perf());
            *self = fresh;
        }

        fn write(&mut self, level: Level, key: u64, label: Label, op: LabelOp) -> bool {
            let stored = self.txn.write_pair(level, key, label, op);
            let r = self.rtl.write_pair(level, key, label, to_ib_op(op));
            assert_eq!(r.cycles, table6::WRITE_PAIR);
            assert_eq!(stored, r.outcome == Outcome::Done, "{level} key {key:#x}");
            assert_eq!(self.txn.perf(), self.rtl.perf(), "after writing {key:#x}");
            stored
        }

        fn check(&mut self, stack: &LabelStack, packet_id: u32, push_ttl: Ttl) -> Transaction {
            let (mut got, mut want) = (stack.clone(), stack.clone());
            let t = self.txn.transact(&mut got, packet_id, PUSH_COS, push_ttl);
            let w = oracle::transact(&mut self.rtl, &mut want, packet_id, PUSH_COS, push_ttl);
            assert_eq!(
                (t, &got),
                (w, &want),
                "stack {stack}, packet id {packet_id:#x}, push TTL {push_ttl}"
            );
            assert_eq!(self.txn.perf(), self.rtl.perf(), "stack {stack}");
            t
        }
    }

    /// A stack of `depth` entries whose top carries `top` and `ttl`; the
    /// entries below it carry other labels, CoS and TTLs, so a pop or a
    /// push shows which entry's fields it kept.
    fn stack(depth: usize, top: u32, ttl: Ttl) -> LabelStack {
        let mut s = LabelStack::new();
        for i in 1..depth {
            let e = LabelStackEntry::new(
                label(900 + i as u64),
                CosBits::from_masked(2),
                false,
                60 + i as u8,
            );
            s.push(e).unwrap();
        }
        if depth > 0 {
            s.push(LabelStackEntry::new(
                label(top as u64),
                CosBits::EXPEDITED,
                false,
                ttl,
            ))
            .unwrap();
        }
        s
    }

    /// Every program of up to three pairs over a four-key domain, each
    /// pair with any operation.
    fn programs(keys: &[u64]) -> Vec<Vec<(u64, LabelOp)>> {
        let pairs: Vec<(u64, LabelOp)> = keys
            .iter()
            .flat_map(|&k| OPS.iter().map(move |&op| (k, op)))
            .collect();
        let mut all = vec![vec![]];
        let mut last = vec![vec![]];
        for _ in 0..3 {
            last = last
                .iter()
                .flat_map(|p: &Vec<(u64, LabelOp)>| {
                    pairs.iter().map(move |&pair| {
                        let mut q = p.clone();
                        q.push(pair);
                        q
                    })
                })
                .collect();
            all.extend(last.iter().cloned());
        }
        all
    }

    /// Every router type, level, program of up to three pairs, operation,
    /// stack depth, hit and miss, and TTL in {0, 1, 2, 255}: cycles,
    /// discard reason, output stack and performance counters all equal
    /// the clocked model's.
    #[test]
    fn matches_the_clocked_modifier_exhaustively() {
        // Keys 0x10_0002 and 0x1_0000_0001 are wider than a label level
        // (they alias 2 and 1 there); the second is wider than level 1
        // too (it aliases packet id 1).
        let keys = [1, 2, 0x10_0002, 0x1_0000_0001];
        let programs = programs(&keys);
        assert_eq!(programs.len(), 1 + 16 + 256 + 4096);
        let mut updates = 0;
        for rtype in [RouterType::Ler, RouterType::Lsr] {
            for program in &programs {
                let mut m = Twins::new(rtype);
                m.enable_perf();
                for level in Level::ALL {
                    for (i, &(key, op)) in program.iter().enumerate() {
                        assert!(m.write(level, key, label(100 + i as u64), op));
                    }
                }
                for depth in 0..=EMBEDDED_STACK_DEPTH {
                    // Packet ids at level 1, labels elsewhere; 3 misses.
                    let queries: &[u32] = if depth == 0 {
                        &[1, 2, 0x10_0002, 3]
                    } else {
                        &[1, 2, 3]
                    };
                    for &q in queries {
                        for ttl in TTLS {
                            m.check(&stack(depth, q, ttl), q, ttl);
                            updates += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(updates, 2 * programs.len() * (16 + 3 * 12));
    }

    #[test]
    fn a_full_level_rejects_writes_and_charges_a_full_miss() {
        let mut m = Twins::new(RouterType::Lsr);
        m.enable_perf();
        for k in 0..LEVEL_CAPACITY as u64 {
            assert!(m.write(Level::L2, k % 700, label(k + 1), LabelOp::Swap));
        }
        assert!(!m.write(Level::L2, 5_000, label(1), LabelOp::Swap));
        let t = m.check(&stack(1, 5_000, 64), 0, 0);
        assert_eq!(t.discard, Some(DiscardReason::NoEntryFound));
        assert_eq!(t.update, table6::update_miss(LEVEL_CAPACITY as u64));
        // Key 699's first insert was the 700th; its duplicate is shadowed.
        let t = m.check(&stack(1, 699, 64), 0, 0);
        assert_eq!(t.update, table6::search_hit_at(700) + table6::SWAP_FROM_IB);
    }

    /// Packet fields drawn for the proptest: stack depth, key, TTL.
    fn packet() -> impl Strategy<Value = (usize, u32, Ttl)> {
        (
            0usize..=EMBEDDED_STACK_DEPTH,
            0u32..1600,
            prop_oneof![0u8..3, any::<u8>()],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Realistic table sizes: up to a full level (and past it) per
        /// level, shadowed duplicates and keys wider than the level, with
        /// the modifiers rebuilt between rounds of packets.
        #[test]
        fn matches_the_clocked_modifier_at_scale(
            lsr in any::<bool>(),
            rounds in proptest::collection::vec(
                (
                    (0usize..1100, 0usize..1100, 0usize..1100),
                    any::<u64>(),
                    proptest::collection::vec(packet(), 1..24),
                ),
                1..4,
            ),
        ) {
            let rtype = if lsr { RouterType::Lsr } else { RouterType::Ler };
            let mut m = Twins::new(rtype);
            m.enable_perf();
            for ((l1, l2, l3), seed, packets) in rounds {
                m.reprogram();
                let mut rng = seed;
                let mut next = move || {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    rng >> 33
                };
                for (level, n) in [(Level::L1, l1), (Level::L2, l2), (Level::L3, l3)] {
                    for _ in 0..n {
                        // Keys from 0..1536 repeat; one in eight carries
                        // bits past the level's width.
                        let r = next();
                        let key = (r % 1536) | if r % 8 == 0 { 1 << 32 | 1 << 20 } else { 0 };
                        m.write(level, key, label(next() % 4000 + 16), OPS[(next() % 4) as usize]);
                    }
                }
                for (depth, key, ttl) in packets {
                    m.check(&stack(depth, key, ttl), key, ttl);
                }
            }
        }
    }
}

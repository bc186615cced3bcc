//! Pluggable lookup strategies for one forwarding table level.
//!
//! The strategy abstraction lets the benchmarks compare, on identical
//! configurations:
//!
//! * the hardware's algorithm run in software ([`LinearTable`]), and
//! * the algorithm real software forwarders use ([`HashTable`]).
//!
//! Both preserve *first-binding-wins* semantics for duplicate keys — the
//! hardware search stops at the first matching slot, so a later write with
//! the same key never takes effect until the table is rebuilt. The control
//! plane relies on this contract when it refreshes bindings.

use crate::types::LabelBinding;
use std::collections::HashMap;

/// One key → binding table with instrumented lookups.
pub trait LookupStrategy: Default + Clone + core::fmt::Debug {
    /// Appends a binding; keeps the existing one when `key` is already
    /// bound (first-binding-wins).
    fn insert(&mut self, key: u64, binding: LabelBinding);

    /// Finds the binding for `key`; the second element counts the key
    /// comparisons ("probes") spent, the unit the scaling benchmarks plot.
    fn get(&self, key: u64) -> (Option<LabelBinding>, usize);

    /// Number of stored bindings.
    fn len(&self) -> usize;

    /// Makes room for `additional` more inserts, so a table loaded from
    /// a config of known size is sized once instead of growing
    /// ([`crate::HashFib`]). The default, which the scan table keeps,
    /// does nothing.
    fn reserve(&mut self, _additional: usize) {}

    /// True when no bindings are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every binding.
    fn clear(&mut self);

    /// Strategy name for reports.
    fn name() -> &'static str;
}

/// First-match linear scan over insertion order — the software twin of the
/// hardware search FSM.
///
/// Struct-of-arrays layout: the scan touches only the dense key array —
/// one cache line holds eight candidate keys, the way the hardware's
/// index memory holds keys apart from result memory — and the binding
/// array is read exactly once, on a hit.
#[derive(Debug, Clone, Default)]
pub struct LinearTable {
    keys: Vec<u64>,
    bindings: Vec<LabelBinding>,
}

impl LookupStrategy for LinearTable {
    fn insert(&mut self, key: u64, binding: LabelBinding) {
        // Duplicates may be appended; they are unreachable by lookup, the
        // same dead-slot behaviour the hardware exhibits.
        self.keys.push(key);
        self.bindings.push(binding);
    }

    fn get(&self, key: u64) -> (Option<LabelBinding>, usize) {
        if let Some(i) = self.keys.iter().position(|&k| k == key) {
            return (Some(self.bindings[i]), i + 1);
        }
        // Miss accounting (audited, ISSUE 5): a miss probes *exactly* the
        // occupancy — every stored slot, dead duplicates included, and
        // nothing more. This is the `n` of the hardware's 3n+5-cycle
        // failed search (Table 6), so the cycle-reconciliation sweep and
        // the timing model both depend on the count being occupancy, not
        // occupancy ± 1.
        (None, self.keys.len())
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.bindings.clear();
    }

    fn name() -> &'static str {
        "linear"
    }
}

/// Hash-map lookup — the optimized software baseline.
#[derive(Debug, Clone, Default)]
pub struct HashTable {
    map: HashMap<u64, LabelBinding>,
    /// Count of logical entries including shadowed duplicates, so `len()`
    /// reports the same occupancy as a [`LinearTable`] fed identically.
    inserted: usize,
}

impl LookupStrategy for HashTable {
    fn insert(&mut self, key: u64, binding: LabelBinding) {
        self.map.entry(key).or_insert(binding);
        self.inserted += 1;
    }

    fn get(&self, key: u64) -> (Option<LabelBinding>, usize) {
        (self.map.get(&key).copied(), 1)
    }

    fn len(&self) -> usize {
        self.inserted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.inserted = 0;
    }

    fn name() -> &'static str {
        "hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LabelOp;
    use mpls_packet::Label;
    use proptest::prelude::*;

    fn b(l: u32) -> LabelBinding {
        LabelBinding::new(Label::new(l).unwrap(), LabelOp::Swap)
    }

    fn strategies_agree<A: LookupStrategy, B: LookupStrategy>(
        inserts: &[(u64, u32)],
        queries: &[u64],
    ) {
        let mut a = A::default();
        let mut bt = B::default();
        for (k, l) in inserts {
            a.insert(*k, b(*l));
            bt.insert(*k, b(*l));
        }
        assert_eq!(a.len(), bt.len());
        for q in queries {
            assert_eq!(a.get(*q).0, bt.get(*q).0, "key {q}");
        }
    }

    #[test]
    fn linear_first_match_wins() {
        let mut t = LinearTable::default();
        t.insert(5, b(100));
        t.insert(5, b(200));
        assert_eq!(t.get(5).0.unwrap().new_label.value(), 100);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn hash_first_binding_wins_too() {
        let mut t = HashTable::default();
        t.insert(5, b(100));
        t.insert(5, b(200));
        assert_eq!(t.get(5).0.unwrap().new_label.value(), 100);
        assert_eq!(t.len(), 2, "occupancy counts shadowed duplicates");
    }

    #[test]
    fn linear_probe_counts() {
        // Probe counts are the `k`/`n` of the hardware's Table 6 search
        // cost (hit at rank k: 3k+5 cycles; miss among n: 3n+5), so they
        // must reconcile exactly: hit = insertion rank, miss = occupancy.
        let mut t = LinearTable::default();
        assert_eq!(t.get(1).1, 0, "empty table: a miss probes nothing");
        for k in 1..=10u64 {
            t.insert(k, b(k as u32));
        }
        assert_eq!(t.get(1).1, 1);
        assert_eq!(t.get(10).1, 10);
        assert_eq!(t.get(99).1, 10, "miss probes the whole table, no more");
        // Dead slots (shadowed duplicates) still cost a probe on a miss —
        // the hardware cannot skip them — but a hit stops at the winner.
        t.insert(1, b(500));
        assert_eq!(t.len(), 11);
        assert_eq!(t.get(99).1, 11, "miss == occupancy including dead slots");
        assert_eq!(t.get(1).1, 1, "hit rank unchanged by its duplicate");
    }

    #[test]
    fn hash_probes_constant() {
        let mut t = HashTable::default();
        for k in 1..=100u64 {
            t.insert(k, b(1));
        }
        assert_eq!(t.get(50).1, 1);
        assert_eq!(t.get(999).1, 1);
    }

    #[test]
    fn clear_resets_both() {
        let mut l = LinearTable::default();
        let mut h = HashTable::default();
        l.insert(1, b(1));
        h.insert(1, b(1));
        l.clear();
        h.clear();
        assert!(l.is_empty());
        assert!(h.is_empty());
        assert_eq!(l.get(1).0, None);
        assert_eq!(h.get(1).0, None);
    }

    proptest! {
        #[test]
        fn linear_and_hash_agree(
            inserts in proptest::collection::vec((0u64..32, 1u32..1000), 0..64),
            queries in proptest::collection::vec(0u64..40, 0..32),
        ) {
            strategies_agree::<LinearTable, HashTable>(&inserts, &queries);
        }
    }
}

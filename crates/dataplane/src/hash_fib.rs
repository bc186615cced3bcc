//! Open-addressed exact-match hash FIB with *canonical* probe counts.
//!
//! [`HashFib`] is the production-style fast path the ROADMAP asks for: an
//! open-addressed table (power-of-two capacity, u64 keys, linear probing
//! over a splitmix64-finalized hash) that answers lookups in O(1) host
//! time. The subtlety is what it reports as "probes spent".
//!
//! The simulator charges lookup latency from the probe count
//! (`SwTimingModel`: `per_packet_ns + probes · per_probe_ns`), so a
//! strategy that truthfully reported its own O(1) probes would produce a
//! *different simulation* than the linear information base — different
//! latencies, different queue dynamics, a different report. [`HashFib`]
//! therefore returns the probe count the hardware's linear search would
//! have spent on the same query against an identically-programmed table:
//!
//! * **hit** — the insertion rank of the key's first (winning) insert,
//!   i.e. how deep a first-match linear scan would have probed;
//! * **miss** — the total number of inserts, shadowed duplicates
//!   included, i.e. a full-table scan over every slot the hardware would
//!   hold (dead slots count — the hardware cannot skip them).
//!
//! With that contract, swapping [`crate::LinearTable`] for [`HashFib`]
//! changes host wall-clock only: simulated time, every latency, and the
//! whole report stay byte-identical. The linear table remains the
//! conformance oracle; set `MPLS_SIM_DIFF_LOOKUP=1` to carry a shadow
//! linear table inside every [`HashFib`] and assert, on every single
//! lookup, that binding *and* probe count agree.

use crate::lookup::{LinearTable, LookupStrategy};
use crate::types::LabelBinding;
use mpls_packet::splitmix64;
use std::sync::OnceLock;

/// True when `MPLS_SIM_DIFF_LOOKUP=1`: every [`HashFib`] carries a shadow
/// [`LinearTable`] and cross-checks each lookup against it.
pub fn diff_lookup_enabled() -> bool {
    static DIFF: OnceLock<bool> = OnceLock::new();
    *DIFF.get_or_init(|| {
        std::env::var("MPLS_SIM_DIFF_LOOKUP")
            .is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
    })
}

/// Filler for empty/never-read binding slots in the SoA layout.
const EMPTY_BINDING: LabelBinding =
    LabelBinding::new(mpls_packet::Label::IPV4_EXPLICIT_NULL, crate::LabelOp::Swap);

/// Exact-match hash FIB reporting linear-equivalent probe counts.
///
/// Struct-of-arrays layout: keys, ranks and bindings live in three
/// parallel arrays instead of one array of boxed/optional slot structs.
/// The probe walk touches only the key and rank arrays (`rank == 0`
/// marks an empty slot — real ranks are 1-based); the binding array is
/// read once on a hit. No per-entry indirection, no `Option`
/// discriminant padding — the layout a pipeline-friendly dataplane
/// would use.
#[derive(Debug, Clone)]
pub struct HashFib {
    keys: Vec<u64>,
    /// 1-based insertion rank of each slot's key's *first* insert —
    /// exactly the probe count a first-match linear scan would report
    /// for a hit. `0` = the slot is empty.
    ranks: Vec<u32>,
    bindings: Vec<LabelBinding>,
    mask: u64,
    /// Distinct live keys (reachable bindings).
    live: usize,
    /// Total inserts including shadowed duplicates — the occupancy a
    /// [`LinearTable`] fed identically would report, and the probe count
    /// of a miss.
    inserted: usize,
    /// Differential oracle, populated when diff mode is on.
    shadow: Option<Box<LinearTable>>,
}

impl Default for HashFib {
    fn default() -> Self {
        Self::with_diff(diff_lookup_enabled())
    }
}

impl HashFib {
    const INITIAL_SLOTS: usize = 16;

    /// An empty table; `diff` forces the shadow oracle on or off
    /// independently of the environment (tests use this).
    pub fn with_diff(diff: bool) -> Self {
        Self {
            keys: vec![0; Self::INITIAL_SLOTS],
            ranks: vec![0; Self::INITIAL_SLOTS],
            bindings: vec![EMPTY_BINDING; Self::INITIAL_SLOTS],
            mask: Self::INITIAL_SLOTS as u64 - 1,
            live: 0,
            inserted: 0,
            shadow: diff.then(|| Box::new(LinearTable::default())),
        }
    }

    /// Distinct reachable keys (excludes shadowed duplicates).
    pub fn live_keys(&self) -> usize {
        self.live
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Linear probe from the hashed home slot; the table is never full
        // (grown at 3/4 load), so the walk terminates. Only the key and
        // rank arrays are touched.
        // splitmix64 avalanches sequential label keys.
        let mut i = (splitmix64(key) & self.mask) as usize;
        loop {
            if self.ranks[i] == 0 || self.keys[i] == key {
                return i;
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// Rehashes every key into `new_len` slots (a power of two).
    fn resize(&mut self, new_len: usize) {
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_len]);
        let old_ranks = std::mem::replace(&mut self.ranks, vec![0; new_len]);
        let old_bindings = std::mem::replace(&mut self.bindings, vec![EMPTY_BINDING; new_len]);
        self.mask = new_len as u64 - 1;
        for (i, rank) in old_ranks.into_iter().enumerate() {
            if rank == 0 {
                continue;
            }
            let j = self.slot_of(old_keys[i]);
            self.keys[j] = old_keys[i];
            self.ranks[j] = rank;
            self.bindings[j] = old_bindings[i];
        }
    }

    /// True when `live` keys fill `slots` to the 3/4 load the table
    /// grows at.
    fn full(live: usize, slots: usize) -> bool {
        live * 4 >= slots * 3
    }
}

impl LookupStrategy for HashFib {
    fn insert(&mut self, key: u64, binding: LabelBinding) {
        if let Some(shadow) = &mut self.shadow {
            shadow.insert(key, binding);
        }
        // Every insert occupies a hardware slot, so it always bumps the
        // linear-equivalent occupancy — even when shadowed.
        self.inserted += 1;
        let i = self.slot_of(key);
        if self.ranks[i] != 0 {
            return; // first-binding-wins: the duplicate is a dead slot
        }
        self.keys[i] = key;
        self.ranks[i] = u32::try_from(self.inserted).expect("FIB occupancy fits u32");
        self.bindings[i] = binding;
        self.live += 1;
        if Self::full(self.live, self.keys.len()) {
            self.resize(self.keys.len() * 2);
        }
    }

    /// Sizes the table once for `additional` more keys: the slot count
    /// doubling on inserts would reach, so they never rehash. Placement
    /// never reaches an answer — a hit reports its rank, a miss the
    /// insert count — so a reserved table answers exactly as a grown
    /// one.
    fn reserve(&mut self, additional: usize) {
        let mut slots = self.keys.len();
        while Self::full(self.live + additional, slots) {
            slots *= 2;
        }
        if slots > self.keys.len() {
            self.resize(slots);
        }
    }

    fn get(&self, key: u64) -> (Option<LabelBinding>, usize) {
        let i = self.slot_of(key);
        let got = if self.ranks[i] != 0 && self.keys[i] == key {
            (Some(self.bindings[i]), self.ranks[i] as usize)
        } else {
            (None, self.inserted)
        };
        if let Some(shadow) = &self.shadow {
            let want = shadow.get(key);
            assert_eq!(
                got, want,
                "MPLS_SIM_DIFF_LOOKUP: hash FIB diverged from the linear \
                 info-base on key {key}: hash {got:?} vs linear {want:?}"
            );
        }
        got
    }

    fn len(&self) -> usize {
        self.inserted
    }

    fn clear(&mut self) {
        self.ranks.iter_mut().for_each(|r| *r = 0);
        self.live = 0;
        self.inserted = 0;
        if let Some(shadow) = &mut self.shadow {
            shadow.clear();
        }
    }

    fn name() -> &'static str {
        "hash-fib"
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

    #[test]
    fn hit_probes_equal_linear_rank() {
        let mut t = HashFib::default();
        for k in 1..=10u64 {
            t.insert(k, b(k as u32));
        }
        assert_eq!(t.get(1).1, 1, "first insert probes once");
        assert_eq!(t.get(7).1, 7);
        assert_eq!(t.get(10).1, 10);
    }

    #[test]
    fn miss_probes_equal_total_occupancy() {
        let mut t = HashFib::default();
        assert_eq!(t.get(5), (None, 0), "empty table: zero probes on miss");
        for k in 1..=10u64 {
            t.insert(k, b(k as u32));
        }
        t.insert(3, b(999)); // shadowed duplicate still occupies a slot
        assert_eq!(t.get(99).1, 11, "miss scans every slot, dead ones too");
    }

    #[test]
    fn first_binding_wins_and_keeps_its_rank() {
        let mut t = HashFib::default();
        t.insert(5, b(100));
        t.insert(6, b(101));
        t.insert(5, b(200));
        let (got, probes) = t.get(5);
        assert_eq!(got.unwrap().new_label.value(), 100);
        assert_eq!(probes, 1, "rank of the winning insert, not the duplicate");
        assert_eq!(t.len(), 3, "occupancy counts shadowed duplicates");
        assert_eq!(t.live_keys(), 2);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = HashFib::default();
        for k in 0..500u64 {
            t.insert(k, b((k % 999 + 1) as u32));
        }
        for k in 0..500u64 {
            let (got, probes) = t.get(k);
            assert_eq!(got.unwrap().new_label.value(), (k % 999 + 1) as u32);
            assert_eq!(probes, k as usize + 1);
        }
        assert_eq!(t.get(1_000_000).1, 500);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = HashFib::with_diff(true);
        t.insert(1, b(1));
        t.insert(1, b(2));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(1), (None, 0));
        t.insert(1, b(3));
        assert_eq!(t.get(1), (Some(b(3)), 1), "ranks restart after clear");
    }

    #[test]
    #[should_panic(expected = "diverged from the linear info-base")]
    fn diff_mode_catches_a_planted_divergence() {
        let mut t = HashFib::with_diff(true);
        t.insert(1, b(1));
        // Corrupt the hash side behind the shadow's back.
        for r in t.ranks.iter_mut().filter(|r| **r != 0) {
            *r = 42;
        }
        let _ = t.get(1);
    }

    proptest! {
        /// A table reserved once for its inserts answers exactly as one
        /// grown insert by insert: every query — hits, misses and keys
        /// bound twice — gets the same binding and probe count, and the
        /// occupancy and live-key counts agree. Both carry the shadow
        /// oracle. Some tables reserve more than they get, some reserve
        /// after inserts have begun.
        #[test]
        fn reserved_answers_as_grown(
            inserts in proptest::collection::vec((0u64..400, 1u32..1000), 0..300),
            queries in proptest::collection::vec(0u64..450, 0..64),
            extra in 0usize..40,
            before in 0usize..20,
        ) {
            let mut grown = HashFib::with_diff(true);
            let mut reserved = HashFib::with_diff(true);
            let before = before.min(inserts.len());
            for &(k, v) in &inserts[..before] {
                grown.insert(k, b(v));
                reserved.insert(k, b(v));
            }
            reserved.reserve(inserts.len() - before + extra);
            let slots = reserved.keys.len();
            for &(k, v) in &inserts[before..] {
                grown.insert(k, b(v));
                reserved.insert(k, b(v));
            }
            prop_assert_eq!(reserved.keys.len(), slots, "a reserved table never grows");
            prop_assert_eq!(reserved.len(), grown.len());
            prop_assert_eq!(reserved.live_keys(), grown.live_keys());
            for q in inserts.iter().map(|&(k, _)| k).chain(queries) {
                prop_assert_eq!(reserved.get(q), grown.get(q), "key {}", q);
            }
        }

        /// The canonical-probe contract under insert/clear churn: bindings,
        /// probe counts, and occupancy all match the linear oracle exactly —
        /// this is the invariant that keeps reports byte-identical.
        #[test]
        fn hash_and_linear_agree(
            rounds in proptest::collection::vec(
                (
                    proptest::collection::vec((0u64..32, 1u32..1000), 0..48),
                    proptest::collection::vec(0u64..40, 0..32),
                ),
                1..4,
            ),
        ) {
            // Diff mode exercises the built-in shadow assert on the same
            // walk; the external LinearTable is a second, independent check.
            let mut h = HashFib::with_diff(true);
            let mut l = LinearTable::default();
            for (inserts, queries) in rounds {
                for (k, v) in &inserts {
                    h.insert(*k, b(*v));
                    l.insert(*k, b(*v));
                }
                prop_assert_eq!(h.len(), l.len());
                for q in &queries {
                    prop_assert_eq!(h.get(*q), l.get(*q), "key {}", q);
                }
                // Withdraw churn: the control plane rebuilds a level by
                // clearing it (first-binding-wins makes in-place edits
                // ineffective); ranks must restart identically.
                h.clear();
                l.clear();
                prop_assert_eq!(h.get(0), l.get(0));
            }
        }
    }
}

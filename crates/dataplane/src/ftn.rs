//! Prefix-based FEC-to-NHLFE (FTN) classification.
//!
//! The hardware architecture keys its level-1 lookups on the exact 32-bit
//! packet identifier. A production ingress LER instead classifies packets
//! into Forwarding Equivalence Classes by longest-prefix match on the
//! destination address (RFC 3031 §3.1) and then expands each covered host
//! route into the exact-match table the hardware can search. This module
//! provides that classification step for the control plane and the
//! network simulator. [`PrefixTable`] matches prefixes exactly too, one
//! map per prefix length, and the routers use it for FEC
//! classification, unlabeled IP routes and segment-routing steering.

use mpls_packet::BuildSplitMix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An IPv4 prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prefix {
    /// Network address (host bits zeroed at construction).
    pub addr: u32,
    /// Prefix length, 0–32.
    pub len: u8,
}

impl Prefix {
    /// Creates a prefix, zeroing host bits.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Self {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// The netmask for a prefix length.
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// True when `addr` falls inside this prefix.
    pub fn contains(&self, addr: u32) -> bool {
        addr & Self::mask(self.len) == self.addr
    }
}

impl core::fmt::Display for Prefix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}/{}", b[0], b[1], b[2], b[3], self.len)
    }
}

/// A longest-prefix-match table: one exact-match map per prefix length.
///
/// Layout: for each prefix length present, a map from the masked
/// network address to the value, the lengths kept in descending order.
/// [`Self::lookup`] masks the address to each length in turn and returns
/// the first hit, so it costs one hash probe per distinct length however
/// many prefixes the table holds. An insert is one probe into its
/// length's map, so building a table of `n` prefixes is O(n).
///
/// The first hit is the longest match: two prefixes of one length are
/// disjoint unless they are identical, so each length holds at most one
/// prefix containing the address.
///
/// Identical prefixes keep one value, and the caller names which at the
/// insert:
/// * [`Self::insert_last_wins`] replaces it. FEC classification uses
///   this: the last `FecEntry` for a prefix gives its label and CoS.
/// * [`Self::insert_first_wins`] keeps it. Unlabeled IP routes and
///   segment-routing policies use this: the first entry in `NodeConfig`
///   order wins.
///
/// The maps hash with the workspace's splitmix64 hasher
/// ([`mpls_packet::SplitMixHasher`]), not SipHash: a router probes one
/// per unlabeled packet. Prefixes come from scenario files, so a file
/// could choose prefixes whose addresses share low hash bits and slow
/// its own run; SipHash's per-process key would stop that, but no one
/// else's input reaches these tables.
#[derive(Debug, Clone)]
pub struct PrefixTable<V> {
    /// `(prefix length, masked address -> value)`, by descending length,
    /// one element per length present.
    lengths: Vec<(u8, HashMap<u32, V, BuildSplitMix>)>,
}

impl<V> Default for PrefixTable<V> {
    fn default() -> Self {
        Self {
            lengths: Vec::new(),
        }
    }
}

impl<V: Copy> PrefixTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map of one prefix length, created on first use.
    fn length(&mut self, len: u8) -> &mut HashMap<u32, V, BuildSplitMix> {
        let pos = self.lengths.partition_point(|&(l, _)| l > len);
        if self.lengths.get(pos).map(|&(l, _)| l) != Some(len) {
            self.lengths.insert(pos, (len, HashMap::default()));
        }
        &mut self.lengths[pos].1
    }

    /// Inserts a prefix; a later insert of an identical prefix replaces
    /// its value.
    pub fn insert_last_wins(&mut self, prefix: Prefix, value: V) {
        self.length(prefix.len).insert(prefix.addr, value);
    }

    /// Inserts a prefix unless an identical one is present, whose value
    /// then stays.
    pub fn insert_first_wins(&mut self, prefix: Prefix, value: V) {
        self.length(prefix.len).entry(prefix.addr).or_insert(value);
    }

    /// Longest-prefix-match lookup: the matching prefix and its value.
    pub fn lookup(&self, addr: u32) -> Option<(Prefix, V)> {
        self.lengths.iter().find_map(|(len, map)| {
            let prefix = Prefix::new(addr, *len);
            map.get(&prefix.addr).map(|&v| (prefix, v))
        })
    }

    /// Number of distinct prefixes.
    pub fn len(&self) -> usize {
        self.lengths.iter().map(|(_, map)| map.len()).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LabelBinding, LabelOp};
    use mpls_packet::ipv4::parse_addr;
    use mpls_packet::Label;
    use proptest::prelude::*;

    fn b(l: u32) -> LabelBinding {
        LabelBinding::new(Label::new(l).unwrap(), LabelOp::Push)
    }

    #[test]
    fn prefix_normalizes_host_bits() {
        let p = Prefix::new(parse_addr("10.1.2.3").unwrap(), 16);
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert!(p.contains(parse_addr("10.1.200.7").unwrap()));
        assert!(!p.contains(parse_addr("10.2.0.1").unwrap()));
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTable::new();
        t.insert_last_wins(Prefix::new(0, 0), b(1));
        assert_eq!(t.lookup(0xdead_beef), Some((Prefix::new(0, 0), b(1))));
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = PrefixTable::new();
        t.insert_last_wins(Prefix::new(parse_addr("10.0.0.0").unwrap(), 8), b(100));
        t.insert_last_wins(Prefix::new(parse_addr("10.1.0.0").unwrap(), 16), b(200));
        t.insert_last_wins(Prefix::new(parse_addr("10.1.5.0").unwrap(), 24), b(300));
        let hit = |a: &str| {
            let (p, binding) = t.lookup(parse_addr(a).unwrap()).unwrap();
            (p.to_string(), binding.new_label.value())
        };
        assert_eq!(hit("10.1.5.9"), ("10.1.5.0/24".into(), 300));
        assert_eq!(hit("10.1.9.9"), ("10.1.0.0/16".into(), 200));
        assert_eq!(hit("10.9.9.9"), ("10.0.0.0/8".into(), 100));
        assert!(t.lookup(parse_addr("11.0.0.1").unwrap()).is_none());
    }

    #[test]
    fn each_insert_names_its_tie_rule() {
        let p = Prefix::new(parse_addr("10.0.0.0").unwrap(), 8);
        let addr = parse_addr("10.0.0.1").unwrap();
        let mut last = PrefixTable::new();
        let mut first = PrefixTable::new();
        for label in [1, 2] {
            last.insert_last_wins(p, b(label));
            first.insert_first_wins(p, b(label));
        }
        assert_eq!((last.len(), first.len()), (1, 1));
        assert_eq!(last.lookup(addr), Some((p, b(2))));
        assert_eq!(first.lookup(addr), Some((p, b(1))));
    }

    #[test]
    fn mask_edges() {
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(32), u32::MAX);
        assert_eq!(Prefix::mask(8), 0xFF00_0000);
    }

    proptest! {
        /// Both tie rules against a brute-force search over every
        /// distinct prefix kept: the same matched prefix and the same
        /// binding. Half the queries fall inside a prefix of the set.
        #[test]
        fn lookup_agrees_with_brute_force(
            prefixes in proptest::collection::vec((any::<u32>(), 0u8..=32, 16u32..1000), 1..24),
            addr: u32,
            inside in 0usize..48,
        ) {
            let mut last = PrefixTable::new();
            let mut first = PrefixTable::new();
            let mut raw_last: Vec<(Prefix, LabelBinding)> = Vec::new();
            let mut raw_first: Vec<(Prefix, LabelBinding)> = Vec::new();
            for &(a, l, label) in &prefixes {
                let p = Prefix::new(a, l);
                last.insert_last_wins(p, b(label));
                first.insert_first_wins(p, b(label));
                raw_last.retain(|(q, _)| *q != p);
                raw_last.push((p, b(label)));
                if raw_first.iter().all(|(q, _)| *q != p) {
                    raw_first.push((p, b(label)));
                }
            }
            // Keep the host bits of `addr` under one prefix of the set.
            let addr = match prefixes.get(inside) {
                Some(&(a, l, _)) => (a & Prefix::mask(l)) | (addr & !Prefix::mask(l)),
                None => addr,
            };
            let brute = |raw: &[(Prefix, LabelBinding)]| {
                raw.iter()
                    .filter(|(p, _)| p.contains(addr))
                    .max_by_key(|(p, _)| p.len)
                    .copied()
            };
            prop_assert_eq!(last.lookup(addr), brute(&raw_last));
            prop_assert_eq!(first.lookup(addr), brute(&raw_first));
            prop_assert_eq!(last.len(), raw_last.len());
        }
    }
}

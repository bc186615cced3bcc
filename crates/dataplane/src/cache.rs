//! Per-ingress flow cache: `(level, in-label/key, in-port)` → resolved
//! binding.
//!
//! Classic LSR fast paths memoize the FIB resolution of recently seen
//! flows so steady-state traffic never touches the information base.
//! [`FlowCache`] is that memo: a small direct-mapped table whose entries
//! carry the binding *and* the canonical probe count the FIB charged when
//! the entry was filled, so a cache hit replays the exact latency the
//! full lookup would have produced — the report stays byte-identical
//! with the cache on or off, only host time changes.
//!
//! Invalidation is wholesale and conservative: any FIB mutation — an LDP
//! withdraw/release reprogram, a fault-driven rewrite, `retire_lsp` —
//! flushes the cache ([`FlowCache::invalidate_all`]). Routers are
//! reprogrammed by replacing the whole forwarder (cache included), and
//! direct `fib_mut()` access flushes on borrow, so a stale entry can
//! never outlive the binding it resolved. Only hits are cached; a miss
//! discards the packet anyway, and negative entries would have to be
//! invalidated on *insert* too.

use crate::fib::FibLevel;
use crate::types::LabelBinding;

#[derive(Debug, Clone, Copy)]
struct Entry {
    level: FibLevel,
    key: u64,
    port: u64,
    binding: LabelBinding,
    probes: u32,
}

/// A direct-mapped resolved-lookup cache.
#[derive(Debug, Clone)]
pub struct FlowCache {
    slots: Vec<Option<Entry>>,
    /// Set by [`Self::install`], cleared by a flush: an empty cache
    /// flushes without touching its slots.
    filled: bool,
    mask: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Default for FlowCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_SLOTS)
    }
}

impl FlowCache {
    /// Default capacity: big enough for the flow counts the experiments
    /// run, small enough to stay cache-resident on the host.
    pub const DEFAULT_SLOTS: usize = 256;

    /// An empty cache with `slots` entries (rounded up to a power of two).
    pub fn new(slots: usize) -> Self {
        let n = slots.max(1).next_power_of_two();
        Self {
            slots: vec![None; n],
            filled: false,
            mask: n as u64 - 1,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    #[inline]
    fn index(&self, level: FibLevel, key: u64, port: u64) -> usize {
        // splitmix64-style mix over the whole tuple; levels and ports must
        // not alias (an L2 label equals many L1 packet ids numerically).
        let mut x = key ^ (port << 48) ^ ((level as u64) << 61);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((x ^ (x >> 31)) & self.mask) as usize
    }

    /// Looks up a resolved flow; returns the binding and the canonical
    /// probe count charged when the entry was filled.
    #[inline]
    pub fn lookup(
        &mut self,
        level: FibLevel,
        key: u64,
        port: u64,
    ) -> Option<(LabelBinding, usize)> {
        match &self.slots[self.index(level, key, port)] {
            Some(e) if e.level == level && e.key == key && e.port == port => {
                self.hits += 1;
                Some((e.binding, e.probes as usize))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs a resolved flow (direct-mapped: evicts whatever shared the
    /// slot).
    #[inline]
    pub fn install(
        &mut self,
        level: FibLevel,
        key: u64,
        port: u64,
        binding: LabelBinding,
        probes: usize,
    ) {
        let i = self.index(level, key, port);
        self.filled = true;
        self.slots[i] = Some(Entry {
            level,
            key,
            port,
            binding,
            probes: probes.min(u32::MAX as usize) as u32,
        });
    }

    /// Drops every entry. Called on any FIB mutation — withdraw, fault
    /// rewrite, LSP retirement, direct table access. O(1) while nothing
    /// was installed since the last flush, as when a fresh forwarder
    /// loads its bindings one by one.
    pub fn invalidate_all(&mut self) {
        if self.filled {
            self.slots.iter_mut().for_each(|s| *s = None);
            self.filled = false;
        }
        self.invalidations += 1;
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of wholesale flushes.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Live entries (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LabelOp;
    use mpls_packet::Label;

    fn b(l: u32) -> LabelBinding {
        LabelBinding::new(Label::new(l).unwrap(), LabelOp::Swap)
    }

    #[test]
    fn hit_replays_the_installed_probes() {
        let mut c = FlowCache::new(64);
        assert_eq!(c.lookup(FibLevel::L2, 100, 3), None);
        c.install(FibLevel::L2, 100, 3, b(7), 42);
        assert_eq!(c.lookup(FibLevel::L2, 100, 3), Some((b(7), 42)));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn keys_are_level_and_port_qualified() {
        let mut c = FlowCache::new(64);
        c.install(FibLevel::L2, 100, 0, b(7), 1);
        assert_eq!(c.lookup(FibLevel::L3, 100, 0), None, "other level");
        assert_eq!(c.lookup(FibLevel::L2, 100, 9), None, "other port");
        assert_eq!(c.lookup(FibLevel::L2, 100, 0), Some((b(7), 1)));
    }

    #[test]
    fn invalidate_all_empties_the_cache() {
        let mut c = FlowCache::new(8);
        for k in 0..8u64 {
            c.install(FibLevel::L1, k, 0, b(1), 1);
        }
        assert!(c.occupancy() > 0);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.invalidations(), 1);
        assert_eq!(c.lookup(FibLevel::L1, 0, 0), None);
    }

    #[test]
    fn a_second_flush_after_reinstall_still_empties_the_cache() {
        let mut c = FlowCache::new(8);
        for round in 0..2 {
            for k in 0..8u64 {
                c.install(FibLevel::L2, k, 0, b(1), 1);
            }
            c.invalidate_all();
            assert_eq!(c.invalidations(), round + 1);
        }
        c.invalidate_all(); // already empty: counted, nothing to clear
        assert_eq!(c.invalidations(), 3);
        for k in 0..8u64 {
            assert_eq!(c.lookup(FibLevel::L2, k, 0), None, "key {k}");
        }
        assert_eq!(c.stats(), (0, 8));
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let mut c = FlowCache::new(1); // every key maps to the single slot
        c.install(FibLevel::L2, 1, 0, b(1), 1);
        c.install(FibLevel::L2, 2, 0, b(2), 2);
        assert_eq!(c.lookup(FibLevel::L2, 1, 0), None, "evicted");
        assert_eq!(c.lookup(FibLevel::L2, 2, 0), Some((b(2), 2)));
    }
}

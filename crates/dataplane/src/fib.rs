//! The three-level forwarding information base of the software plane.
//!
//! Mirrors the hardware information base's organization: level 1 is keyed
//! by the 32-bit packet identifier (the FTN role of RFC 3031), levels 2
//! and 3 by 20-bit labels (the ILM role), selected by stack depth.

use crate::lookup::LookupStrategy;
use crate::types::LabelBinding;
use mpls_packet::Label;

/// Level selector, numerically compatible with the hardware levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum FibLevel {
    /// Packet-identifier-keyed (ingress classification).
    L1 = 1,
    /// Label-keyed, stack depth 1.
    L2 = 2,
    /// Label-keyed, stack depth 2–3.
    L3 = 3,
}

impl FibLevel {
    /// All levels.
    pub const ALL: [FibLevel; 3] = [FibLevel::L1, FibLevel::L2, FibLevel::L3];

    /// The level a stack of `depth` entries consults — identical to the
    /// hardware's `Level::for_stack_depth`.
    pub const fn for_stack_depth(depth: usize) -> Self {
        match depth {
            0 => FibLevel::L1,
            1 => FibLevel::L2,
            _ => FibLevel::L3,
        }
    }

    fn index(self) -> usize {
        self as usize - 1
    }
}

/// The software FIB: three independent tables behind one lookup strategy.
#[derive(Debug, Clone, Default)]
pub struct Fib<S: LookupStrategy> {
    levels: [S; 3],
}

impl<S: LookupStrategy> Fib<S> {
    /// Creates an empty FIB.
    pub fn new() -> Self {
        Self {
            levels: [S::default(), S::default(), S::default()],
        }
    }

    /// Binds `key -> binding` at `level`. Keys wider than the level's index
    /// memory are masked exactly like the hardware bus would truncate them
    /// (20 bits for the label-keyed levels).
    pub fn bind(&mut self, level: FibLevel, key: u64, binding: LabelBinding) {
        let key = match level {
            FibLevel::L1 => key & 0xFFFF_FFFF,
            FibLevel::L2 | FibLevel::L3 => key & Label::MAX as u64,
        };
        self.levels[level.index()].insert(key, binding);
    }

    /// Makes room for `additional` more bindings at `level` (see
    /// [`LookupStrategy::reserve`]).
    pub fn reserve(&mut self, level: FibLevel, additional: usize) {
        self.levels[level.index()].reserve(additional);
    }

    /// Looks `key` up at `level`, returning the binding and the probes
    /// spent.
    pub fn lookup(&self, level: FibLevel, key: u64) -> (Option<LabelBinding>, usize) {
        self.levels[level.index()].get(key)
    }

    /// Occupancy of one level.
    pub fn occupancy(&self, level: FibLevel) -> usize {
        self.levels[level.index()].len()
    }

    /// Total bindings across all levels.
    pub fn total_occupancy(&self) -> usize {
        FibLevel::ALL.iter().map(|&l| self.occupancy(l)).sum()
    }

    /// Clears one level (the control plane rebuilds a level atomically when
    /// bindings change, because first-binding-wins makes in-place updates
    /// ineffective).
    pub fn clear_level(&mut self, level: FibLevel) {
        self.levels[level.index()].clear();
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        for l in &mut self.levels {
            l.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::{HashTable, LinearTable};
    use crate::types::LabelOp;

    fn b(l: u32) -> LabelBinding {
        LabelBinding::new(Label::new(l).unwrap(), LabelOp::Swap)
    }

    #[test]
    fn levels_are_independent() {
        let mut fib: Fib<LinearTable> = Fib::new();
        fib.bind(FibLevel::L2, 9, b(100));
        assert_eq!(fib.lookup(FibLevel::L2, 9).0, Some(b(100)));
        assert_eq!(fib.lookup(FibLevel::L3, 9).0, None);
        assert_eq!(fib.lookup(FibLevel::L1, 9).0, None);
    }

    #[test]
    fn label_levels_mask_keys_to_20_bits() {
        let mut fib: Fib<HashTable> = Fib::new();
        fib.bind(FibLevel::L3, 0xFF_0000_0005, b(42));
        // The masked key collides with a plain 20-bit key.
        assert_eq!(fib.lookup(FibLevel::L3, 5).0, Some(b(42)));
    }

    #[test]
    fn level1_keeps_32_bits() {
        let mut fib: Fib<HashTable> = Fib::new();
        fib.bind(FibLevel::L1, 0xC0A8_0101, b(1));
        assert_eq!(fib.lookup(FibLevel::L1, 0xC0A8_0101).0, Some(b(1)));
        assert_eq!(fib.lookup(FibLevel::L1, 0x0101).0, None);
    }

    #[test]
    fn depth_mapping_matches_hardware() {
        assert_eq!(FibLevel::for_stack_depth(0), FibLevel::L1);
        assert_eq!(FibLevel::for_stack_depth(1), FibLevel::L2);
        assert_eq!(FibLevel::for_stack_depth(2), FibLevel::L3);
        assert_eq!(FibLevel::for_stack_depth(3), FibLevel::L3);
    }

    #[test]
    fn clear_level_only_touches_that_level() {
        let mut fib: Fib<LinearTable> = Fib::new();
        fib.bind(FibLevel::L2, 1, b(1));
        fib.bind(FibLevel::L3, 2, b(2));
        fib.clear_level(FibLevel::L2);
        assert_eq!(fib.occupancy(FibLevel::L2), 0);
        assert_eq!(fib.occupancy(FibLevel::L3), 1);
        assert_eq!(fib.total_occupancy(), 1);
    }
}

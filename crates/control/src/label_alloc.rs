//! Per-node downstream label allocation.
//!
//! In MPLS, labels are allocated by the *downstream* router (the receiver
//! of the labeled packet) and advertised upstream. Each node draws from
//! its own 20-bit space, skipping the IETF reserved range `0..=15`.

use crate::topology::{NodeId, NodeMap};
use mpls_packet::Label;

/// Allocates labels per node, sequentially from 16.
#[derive(Debug, Clone, Default)]
pub struct LabelAllocator {
    next: NodeMap<u32>,
    freed: NodeMap<Vec<u32>>,
}

/// The label space of one node is exhausted — with 2^20 − 16 usable
/// labels this only occurs in adversarial tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelSpaceExhausted(pub NodeId);

impl LabelAllocator {
    /// Creates an allocator with every node's space untouched.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh label in `node`'s space, reusing freed labels
    /// first.
    pub fn allocate(&mut self, node: NodeId) -> Result<Label, LabelSpaceExhausted> {
        if let Some(freed) = self.freed.get_mut(&node) {
            if let Some(v) = freed.pop() {
                return Ok(Label::new(v).expect("freed labels were valid"));
            }
        }
        let next = self
            .next
            .entry(node)
            .or_insert(Label::FIRST_UNRESERVED.value());
        if *next > Label::MAX {
            return Err(LabelSpaceExhausted(node));
        }
        let v = *next;
        *next += 1;
        Ok(Label::new(v).expect("bounded by Label::MAX"))
    }

    /// Returns a label to `node`'s pool.
    pub fn release(&mut self, node: NodeId, label: Label) {
        self.freed.entry(node).or_default().push(label.value());
    }

    /// Labels currently allocated (net of releases) at `node`.
    pub fn allocated_count(&self, node: NodeId) -> usize {
        let issued = self
            .next
            .get(&node)
            .map(|n| (n - Label::FIRST_UNRESERVED.value()) as usize)
            .unwrap_or(0);
        let freed = self.freed.get(&node).map(Vec::len).unwrap_or(0);
        issued - freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_from_16_per_node() {
        let mut a = LabelAllocator::new();
        assert_eq!(a.allocate(1).unwrap().value(), 16);
        assert_eq!(a.allocate(1).unwrap().value(), 17);
        assert_eq!(a.allocate(2).unwrap().value(), 16, "independent spaces");
    }

    #[test]
    fn never_allocates_reserved_labels() {
        let mut a = LabelAllocator::new();
        for _ in 0..64 {
            assert!(!a.allocate(7).unwrap().is_reserved());
        }
    }

    #[test]
    fn release_enables_reuse() {
        let mut a = LabelAllocator::new();
        let l = a.allocate(1).unwrap();
        a.allocate(1).unwrap();
        a.release(1, l);
        assert_eq!(a.allocated_count(1), 1);
        assert_eq!(a.allocate(1).unwrap(), l);
        assert_eq!(a.allocated_count(1), 2);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut a = LabelAllocator::new();
        // Fast-forward the counter to the end of the space.
        a.next.insert(5, Label::MAX);
        assert!(a.allocate(5).is_ok());
        assert_eq!(a.allocate(5), Err(LabelSpaceExhausted(5)));
    }
}

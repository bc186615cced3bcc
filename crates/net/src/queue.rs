//! Link output queues.
//!
//! "The CoS bits affect the scheduling and or discard algorithms applied
//! to the packet as it is transmitted through the network" (paper §2) —
//! this module is where that happens. Three disciplines:
//!
//! * [`QueueDiscipline::Fifo`] — one tail-drop queue, CoS ignored (the
//!   plain-IP baseline);
//! * [`QueueDiscipline::CosPriority`] — strict priority by the packet's
//!   CoS (top label's CoS bits, or the IP precedence for unlabeled
//!   packets), each class with its own tail-drop capacity;
//! * [`QueueDiscipline::Red`] — one queue with random early drops.
//!
//! A [`LinkQueue`] decides admission and, under CoS priority, holds the
//! packets waiting to start. A FIFO or RED queue holds none: its order
//! is arrival order, so the channel fixes each admitted packet's
//! departure when it admits it (see [`crate::link`]) and tells the queue
//! how many admitted packets have not started yet. That count is the
//! queue length tail drop and RED judge.

use crate::sim::SimPacket;
use std::collections::VecDeque;

/// Queue discipline selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Single FIFO holding at most `capacity` packets.
    Fifo {
        /// Maximum queued packets.
        capacity: usize,
    },
    /// Eight strict-priority classes (CoS 7 first), each holding at most
    /// `per_class` packets.
    CosPriority {
        /// Maximum queued packets per class.
        per_class: usize,
    },
    /// Random Early Detection over a single queue ("congestion
    /// avoidance", paper §1): below `min_th` every packet is accepted,
    /// above `max_th` every packet is dropped, in between packets are
    /// dropped with probability rising linearly to `max_p_percent`.
    /// Uses the instantaneous queue length (the EWMA of classic RED is
    /// omitted as a documented simplification).
    Red {
        /// Hard capacity.
        capacity: usize,
        /// Early-drop onset.
        min_th: usize,
        /// Full-drop threshold.
        max_th: usize,
        /// Drop probability at `max_th`, in percent (1–100).
        max_p_percent: u8,
    },
}

/// A link's admission policy, plus the packets waiting under CoS
/// priority.
#[derive(Debug)]
pub struct LinkQueue {
    discipline: QueueDiscipline,
    /// Waiting packets by CoS class; empty (no classes) unless the
    /// discipline is CoS priority.
    classes: Vec<VecDeque<SimPacket>>,
    /// xorshift64 state for RED's probabilistic drops; seeded from the
    /// discipline so runs stay deterministic.
    rng: u64,
}

impl LinkQueue {
    /// Creates a queue with the given discipline.
    pub fn new(discipline: QueueDiscipline) -> Self {
        let classes = match discipline {
            QueueDiscipline::CosPriority { .. } => 8,
            QueueDiscipline::Fifo { .. } | QueueDiscipline::Red { .. } => 0,
        };
        Self {
            discipline,
            classes: (0..classes).map(|_| VecDeque::new()).collect(),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Whether admitted packets wait here until they start (CoS
    /// priority: a later packet of a higher class may still overtake
    /// them) instead of being committed at admission.
    pub(crate) fn holds_packets(&self) -> bool {
        !self.classes.is_empty()
    }

    /// Next uniform value in [0, 1) from the internal xorshift64.
    fn uniform(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether `p` is admitted when `waiting` packets have been admitted
    /// and not yet started: tail drop at capacity (per class under CoS
    /// priority, which counts its own waiting packets), or a RED drop.
    pub(crate) fn admits(&mut self, waiting: usize, p: &SimPacket) -> bool {
        match self.discipline {
            QueueDiscipline::Fifo { capacity } => waiting < capacity,
            QueueDiscipline::CosPriority { per_class } => {
                self.classes[p.cos_class() as usize].len() < per_class
            }
            QueueDiscipline::Red {
                capacity,
                min_th,
                max_th,
                max_p_percent,
            } => {
                if waiting >= capacity || waiting >= max_th {
                    return false;
                }
                if waiting >= min_th {
                    let span = (max_th - min_th).max(1) as f64;
                    let p_drop = max_p_percent as f64 / 100.0 * (waiting - min_th) as f64 / span;
                    if self.uniform() < p_drop {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Holds an admitted packet until it starts (CoS priority only).
    pub(crate) fn push(&mut self, p: SimPacket) {
        debug_assert!(self.holds_packets(), "only CoS priority holds packets");
        let class = p.cos_class() as usize;
        self.classes[class].push_back(p);
    }

    /// The next packet to start: highest CoS class first, FIFO within a
    /// class.
    pub(crate) fn pop(&mut self) -> Option<SimPacket> {
        self.classes.iter_mut().rev().find_map(VecDeque::pop_front)
    }

    /// Packets waiting here.
    pub fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// True when no packet waits here.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties every class, returning the flushed packets (highest CoS
    /// first, FIFO within a class). Used when a link goes down and its
    /// waiting packets are lost.
    pub(crate) fn drain(&mut self) -> Vec<SimPacket> {
        let mut out = Vec::with_capacity(self.len());
        for class in self.classes.iter_mut().rev() {
            out.extend(class.drain(..));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests_support::packet_with_cos;

    #[test]
    fn fifo_drops_at_capacity_and_holds_nothing() {
        let mut q = LinkQueue::new(QueueDiscipline::Fifo { capacity: 2 });
        let p = packet_with_cos(7, 1);
        assert!(q.admits(0, &p) && q.admits(1, &p));
        assert!(!q.admits(2, &p), "tail drop at capacity, whatever the CoS");
        assert!(!q.holds_packets() && q.is_empty());
        let mut empty = LinkQueue::new(QueueDiscipline::Fifo { capacity: 0 });
        assert!(!empty.admits(0, &p), "a zero-capacity queue admits nothing");
    }

    #[test]
    fn priority_pops_high_cos_first() {
        let mut q = LinkQueue::new(QueueDiscipline::CosPriority { per_class: 8 });
        assert!(q.holds_packets());
        q.push(packet_with_cos(0, 1));
        q.push(packet_with_cos(5, 2));
        q.push(packet_with_cos(0, 3));
        q.push(packet_with_cos(7, 4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|p| p.seq)).collect();
        assert_eq!(order, vec![4, 2, 1, 3]);
    }

    #[test]
    fn red_accepts_below_min_threshold() {
        let mut q = LinkQueue::new(QueueDiscipline::Red {
            capacity: 32,
            min_th: 8,
            max_th: 24,
            max_p_percent: 50,
        });
        for waiting in 0..8 {
            assert!(
                q.admits(waiting, &packet_with_cos(0, 0)),
                "below min_th never drops"
            );
        }
    }

    #[test]
    fn red_always_drops_at_max_threshold() {
        let mut q = LinkQueue::new(QueueDiscipline::Red {
            capacity: 32,
            min_th: 2,
            max_th: 6,
            max_p_percent: 100,
        });
        for _ in 0..100 {
            assert!(
                !q.admits(6, &packet_with_cos(0, 0)),
                "at max_th always drops"
            );
        }
    }

    #[test]
    fn red_drops_probabilistically_in_between() {
        let mut q = LinkQueue::new(QueueDiscipline::Red {
            capacity: 1000,
            min_th: 10,
            max_th: 900,
            max_p_percent: 50,
        });
        // A queue that grows by every admitted packet, as a channel's
        // would while its head stays on the wire.
        let mut waiting = 0;
        for i in 0..800u64 {
            if q.admits(waiting, &packet_with_cos(0, i)) {
                waiting += 1;
            }
        }
        assert!(waiting < 800, "some early drops must occur");
        assert!(waiting > 400, "but not a total drop");
    }

    #[test]
    fn priority_drops_per_class() {
        let mut q = LinkQueue::new(QueueDiscipline::CosPriority { per_class: 1 });
        let (low, high) = (packet_with_cos(0, 1), packet_with_cos(5, 3));
        assert!(q.admits(0, &low));
        q.push(low);
        assert!(!q.admits(1, &packet_with_cos(0, 2)), "class 0 full");
        assert!(q.admits(1, &high), "class 5 still open");
        q.push(high);
        assert_eq!(q.len(), 2);
        assert_eq!(q.drain().len(), 2);
        assert!(q.is_empty());
    }
}

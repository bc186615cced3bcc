//! The hardware label stack of the data path (paper Fig. 12, `STACK`
//! block).
//!
//! Three 32-bit entry registers plus a 2-bit item counter ("Number of stack
//! items"). Operations are staged through the `stckctrl` control signals
//! and commit on the clock edge, like every other sequential component.

use mpls_packet::{label::LabelStackEntry, LabelStack, EMBEDDED_STACK_DEPTH};
use mpls_rtl::Clocked;

/// Staged stack control (`stckctrl`, Table 3: "Used to add or remove
/// entries from the stack").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum StackCtl {
    #[default]
    Hold,
    Push(u32),
    Pop,
    /// Overwrite the top entry in place (the pop path's `UPDATE TOP`).
    WriteTop(u32),
    Clear,
}

/// The hardware label stack: entry 0 is the top of the stack.
#[derive(Debug, Clone, Default)]
pub struct HwStack {
    entries: [u32; EMBEDDED_STACK_DEPTH],
    size: u8,
    ctl: StackCtl,
    /// Sticky overflow/underflow indicator for the last committed edge;
    /// real hardware would drive an error pin. Cleared on the next staged
    /// operation.
    fault: bool,
}

impl HwStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// `Number of stack items` output.
    pub fn size(&self) -> usize {
        self.size as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// True when all three entry registers are occupied.
    pub fn is_full(&self) -> bool {
        self.size() == EMBEDDED_STACK_DEPTH
    }

    /// Raw 32-bit word of the top entry (undefined-as-zero when empty,
    /// like reading an undriven bus that idles low).
    pub fn top_bits(&self) -> u32 {
        if self.is_empty() {
            0
        } else {
            self.entries[0]
        }
    }

    /// Decoded top entry.
    pub fn top(&self) -> Option<LabelStackEntry> {
        (!self.is_empty()).then(|| LabelStackEntry::from_bits(self.entries[0]))
    }

    /// True if the last committed operation overflowed or underflowed.
    pub fn fault(&self) -> bool {
        self.fault
    }

    /// Stages a push of a raw 32-bit entry.
    pub fn stage_push(&mut self, bits: u32) {
        self.ctl = StackCtl::Push(bits);
    }

    /// Stages a pop of the top entry.
    pub fn stage_pop(&mut self) {
        self.ctl = StackCtl::Pop;
    }

    /// Stages an in-place overwrite of the top entry.
    pub fn stage_write_top(&mut self, bits: u32) {
        self.ctl = StackCtl::WriteTop(bits);
    }

    /// Stages a full clear ("the label stack is reset" on discard).
    pub fn stage_clear(&mut self) {
        self.ctl = StackCtl::Clear;
    }

    /// Snapshot as the software-level [`LabelStack`] type. The S bits held
    /// in the entry registers are reported verbatim; `validate()` on the
    /// result checks the hardware maintained them correctly.
    pub fn snapshot(&self) -> LabelStack {
        let mut out = LabelStack::new();
        // Rebuild bottom-up so push() recomputes S bits identically to the
        // values the hardware ought to hold.
        for i in (0..self.size()).rev() {
            out.push(LabelStackEntry::from_bits(self.entries[i]))
                .expect("hardware stack never exceeds EMBEDDED_STACK_DEPTH");
        }
        out
    }
}

impl Clocked for HwStack {
    fn tick(&mut self) {
        let ctl = core::mem::take(&mut self.ctl);
        self.fault = false;
        match ctl {
            StackCtl::Hold => {}
            StackCtl::Push(bits) => {
                if self.is_full() {
                    self.fault = true;
                } else {
                    let n = self.size();
                    for i in (0..n).rev() {
                        self.entries[i + 1] = self.entries[i];
                    }
                    self.entries[0] = bits;
                    self.size += 1;
                }
            }
            StackCtl::Pop => {
                if self.is_empty() {
                    self.fault = true;
                } else {
                    let n = self.size();
                    for i in 1..n {
                        self.entries[i - 1] = self.entries[i];
                    }
                    self.size -= 1;
                }
            }
            StackCtl::WriteTop(bits) => {
                if self.is_empty() {
                    self.fault = true;
                } else {
                    self.entries[0] = bits;
                }
            }
            StackCtl::Clear => {
                self.size = 0;
            }
        }
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpls_packet::{CosBits, Label};

    fn bits(label: u32, bottom: bool, ttl: u8) -> u32 {
        LabelStackEntry::new(
            Label::new(label).unwrap(),
            CosBits::BEST_EFFORT,
            bottom,
            ttl,
        )
        .to_bits()
    }

    #[test]
    fn staged_push_commits_on_edge() {
        let mut s = HwStack::new();
        s.stage_push(bits(10, true, 64));
        assert_eq!(s.size(), 0, "pre-edge");
        s.tick();
        assert_eq!(s.size(), 1);
        assert_eq!(s.top().unwrap().label.value(), 10);
    }

    #[test]
    fn push_pop_lifo() {
        let mut s = HwStack::new();
        for (i, l) in [1u32, 2, 3].iter().enumerate() {
            s.stage_push(bits(*l, i == 0, 64));
            s.tick();
        }
        assert!(s.is_full());
        assert_eq!(s.top().unwrap().label.value(), 3);
        s.stage_pop();
        s.tick();
        assert_eq!(s.top().unwrap().label.value(), 2);
        assert_eq!(s.size(), 2);
    }

    #[test]
    fn overflow_and_underflow_raise_fault() {
        let mut s = HwStack::new();
        s.stage_pop();
        s.tick();
        assert!(s.fault());
        for i in 0..3 {
            s.stage_push(bits(i + 1, i == 0, 64));
            s.tick();
            assert!(!s.fault());
        }
        s.stage_push(bits(9, false, 64));
        s.tick();
        assert!(s.fault());
        assert_eq!(s.size(), 3, "overflowing push dropped");
    }

    #[test]
    fn write_top_overwrites_in_place() {
        let mut s = HwStack::new();
        s.stage_push(bits(5, true, 10));
        s.tick();
        s.stage_write_top(bits(5, true, 9));
        s.tick();
        assert_eq!(s.top().unwrap().ttl, 9);
        assert_eq!(s.size(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut s = HwStack::new();
        s.stage_push(bits(5, true, 10));
        s.tick();
        s.stage_clear();
        s.tick();
        assert!(s.is_empty());
        assert_eq!(s.top_bits(), 0);
    }

    #[test]
    fn snapshot_matches_software_stack() {
        let mut s = HwStack::new();
        s.stage_push(bits(100, true, 7));
        s.tick();
        s.stage_push(bits(200, false, 8));
        s.tick();
        let snap = s.snapshot();
        snap.validate().unwrap();
        assert_eq!(snap.depth(), 2);
        assert_eq!(snap.entries()[0].label.value(), 200);
        assert_eq!(snap.entries()[1].label.value(), 100);
    }

    #[test]
    fn hold_preserves_state() {
        let mut s = HwStack::new();
        s.stage_push(bits(3, true, 1));
        s.tick();
        s.tick();
        s.tick();
        assert_eq!(s.size(), 1);
    }
}

//! Segment-routing metadata label stack entries: the RFC 6790 entropy
//! label pair and a minimal MPLS Network Actions (MNA) sub-stack.
//!
//! Both ride *below* the node-SID transport labels of a segment-routed
//! source route, so they survive every NEXT (pop) operation until the
//! final segment endpoint strips them:
//!
//! ```text
//!  top  +----------------+
//!       |  SID  (seg 1)  |   transport: popped/continued per segment
//!       |  SID  (seg 2)  |
//!       |      ...       |
//!       |  bSPL     (4)  |   MNA network action sub-stack (optional)
//!       |  opcode LSE    |
//!       |  ancillary LSE |
//!       |  ELI      (7)  |   entropy pair (optional, RFC 6790)
//!  bot  |  EL            |
//!       +----------------+
//! ```
//!
//! Transit routers hash the entropy label — and only the entropy label —
//! to pick among equal-cost next hops, but may only scan the stack down
//! to their Readable Label Depth (RLD). [`find_entropy`] models exactly
//! that: an entropy pair deeper than the RLD is reported as
//! [`EntropyScan::BeyondRld`] so the data plane can count the violation
//! and fall back to its canonical next hop.
//!
//! The MNA encoding is a deliberately minimal rendition of
//! draft-ietf-mpls-mna-hdr: an indicator LSE carrying
//! [`Label::MNA_BSPL`], one in-stack action LSE whose label field holds a
//! 4-bit opcode, and one ancillary-data LSE whose label field carries 20
//! bits of action data.

use crate::error::PacketError;
use crate::label::{CosBits, Label, LabelStackEntry, Ttl};

/// Number of LSEs an encoded entropy pair occupies (ELI + EL).
pub const ENTROPY_LEN: usize = 2;

/// Number of LSEs an encoded MNA sub-stack occupies (bSPL + opcode +
/// ancillary data).
pub const MNA_LEN: usize = 3;

/// Largest in-stack action opcode (4 bits).
pub const MAX_OPCODE: u8 = 15;

/// Decode failures of the segment-routing metadata encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrError {
    /// Fewer LSEs than the encoding needs.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// LSEs required.
        need: usize,
        /// LSEs present.
        have: usize,
    },
    /// The first LSE does not carry the expected indicator label.
    BadIndicator {
        /// What was being decoded.
        what: &'static str,
        /// The label actually found.
        found: Label,
    },
    /// The action LSE's opcode exceeds [`MAX_OPCODE`].
    OpcodeOutOfRange(u32),
    /// The entropy label is a reserved value (RFC 6790 forbids them).
    ReservedEntropyLabel(Label),
}

impl core::fmt::Display for SrError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SrError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} LSEs, have {have}")
            }
            SrError::BadIndicator { what, found } => {
                write!(
                    f,
                    "{what} does not start with its indicator (found {found})"
                )
            }
            SrError::OpcodeOutOfRange(op) => write!(f, "MNA opcode {op} exceeds {MAX_OPCODE}"),
            SrError::ReservedEntropyLabel(l) => write!(f, "entropy label {l} is reserved"),
        }
    }
}

impl std::error::Error for SrError {}

/// Computes the entropy label for a flow, per RFC 6790 §4.2: the ingress
/// LER hashes whatever flow keys it likes into one label so transit
/// routers need not look past the stack. Here the keys are the IPv4
/// source and destination addresses. The result is always outside the
/// reserved range, and the function is pure — the same flow hashes to
/// the same label on every shard, engine and run.
pub fn entropy_label(src: u32, dst: u32) -> Label {
    let h = crate::splitmix64(((src as u64) << 32) | dst as u64);
    fold_unreserved(h as u32)
}

/// Truncates an arbitrary hash to label width and folds it out of the
/// reserved range. RFC 6790 §4.2 forbids reserved values (0–15) as
/// entropy labels, but `hash & Label::MAX` alone can land on them 16
/// times in 2^20 — those collapse onto the first 16 unreserved labels
/// instead. The fold never overflows label width: a reserved value is
/// < 16, so the shifted result is at most 31.
pub fn fold_unreserved(hash: u32) -> Label {
    let v = hash & Label::MAX;
    if v < Label::FIRST_UNRESERVED.value() {
        Label::from_masked(v + Label::FIRST_UNRESERVED.value())
    } else {
        Label::from_masked(v)
    }
}

/// Picks an equal-cost member from the entropy label value alone. The
/// label is re-mixed first so that consecutive label values spread over
/// the members instead of striding.
pub fn ecmp_index(entropy: u32, fanout: usize) -> usize {
    debug_assert!(fanout > 0);
    (crate::splitmix64(entropy as u64) % fanout as u64) as usize
}

/// Encodes an entropy pair: the ELI followed by the entropy label.
/// Bottom bits are left clear; pushing through
/// [`crate::LabelStack::push`] re-establishes the S-bit invariant.
pub fn entropy_entries(el: Label, cos: CosBits, ttl: Ttl) -> [LabelStackEntry; ENTROPY_LEN] {
    [
        LabelStackEntry::new(Label::ENTROPY_INDICATOR, cos, false, ttl),
        LabelStackEntry::new(el, cos, false, ttl),
    ]
}

/// Decodes an entropy pair from the top of `entries`.
pub fn parse_entropy(entries: &[LabelStackEntry]) -> Result<Label, SrError> {
    if entries.len() < ENTROPY_LEN {
        return Err(SrError::Truncated {
            what: "entropy pair",
            need: ENTROPY_LEN,
            have: entries.len(),
        });
    }
    if entries[0].label != Label::ENTROPY_INDICATOR {
        return Err(SrError::BadIndicator {
            what: "entropy pair",
            found: entries[0].label,
        });
    }
    let el = entries[1].label;
    if el.is_reserved() {
        return Err(SrError::ReservedEntropyLabel(el));
    }
    Ok(el)
}

/// What scanning a stack for its entropy label found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntropyScan {
    /// A valid entropy pair, fully within the readable label depth.
    Found(Label),
    /// An entropy pair exists but (part of) it sits below the readable
    /// label depth — the router cannot hash it and must count an RLD
    /// violation.
    BeyondRld,
    /// No entropy pair in the stack.
    Absent,
}

/// Scans top-first `entries` for an RFC 6790 entropy pair, honoring a
/// readable label depth of `rld` entries: both the ELI and the EL must
/// sit within the first `rld` entries to be usable.
///
/// An MNA sub-stack is skipped whole when its bSPL is seen: the
/// in-stack opcode LSE can legitimately carry the value 7 (and the
/// ancillary LSE any 20-bit value), so scanning *into* the sub-stack
/// would mistake opcode 7 for an ELI and hash the ancillary data.
/// The skipped LSEs still consume readable depth — the router read
/// them to get past them.
pub fn find_entropy(entries: &[LabelStackEntry], rld: usize) -> EntropyScan {
    let mut i = 0;
    while let Some(e) = entries.get(i) {
        if e.label == Label::MNA_BSPL {
            i += MNA_LEN;
            continue;
        }
        if e.label != Label::ENTROPY_INDICATOR {
            i += 1;
            continue;
        }
        let Some(el) = entries.get(i + 1) else {
            return EntropyScan::Absent;
        };
        if el.label.is_reserved() {
            return EntropyScan::Absent;
        }
        if i + 1 < rld {
            return EntropyScan::Found(el.label);
        }
        return EntropyScan::BeyondRld;
    }
    EntropyScan::Absent
}

/// A minimal MPLS network action sub-stack: one in-stack action opcode
/// plus one LSE of ancillary data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MnaNas {
    /// 4-bit action opcode.
    pub opcode: u8,
    /// 20 bits of ancillary data.
    pub data: u32,
}

impl MnaNas {
    /// Creates a network action sub-stack, validating field widths.
    pub fn new(opcode: u8, data: u32) -> Result<Self, PacketError> {
        if opcode > MAX_OPCODE {
            return Err(PacketError::LabelOutOfRange(opcode as u32));
        }
        if data > Label::MAX {
            return Err(PacketError::LabelOutOfRange(data));
        }
        Ok(Self { opcode, data })
    }

    /// Encodes the sub-stack: bSPL indicator, action LSE, ancillary LSE.
    pub fn entries(self, cos: CosBits, ttl: Ttl) -> [LabelStackEntry; MNA_LEN] {
        [
            LabelStackEntry::new(Label::MNA_BSPL, cos, false, ttl),
            LabelStackEntry::new(Label::from_masked(self.opcode as u32), cos, false, ttl),
            LabelStackEntry::new(Label::from_masked(self.data), cos, false, ttl),
        ]
    }

    /// Decodes a sub-stack from the top of `entries`.
    pub fn parse(entries: &[LabelStackEntry]) -> Result<Self, SrError> {
        if entries.len() < MNA_LEN {
            return Err(SrError::Truncated {
                what: "MNA sub-stack",
                need: MNA_LEN,
                have: entries.len(),
            });
        }
        if entries[0].label != Label::MNA_BSPL {
            return Err(SrError::BadIndicator {
                what: "MNA sub-stack",
                found: entries[0].label,
            });
        }
        let op = entries[1].label.value();
        if op > MAX_OPCODE as u32 {
            return Err(SrError::OpcodeOutOfRange(op));
        }
        Ok(Self {
            opcode: op as u8,
            data: entries[2].label.value(),
        })
    }
}

/// True when `label` marks segment-routing metadata (an entropy pair or
/// an MNA sub-stack) rather than a forwarding label. A segment endpoint
/// whose NEXT operation exposes one of these owns the rest of the stack.
pub fn is_metadata_indicator(label: Label) -> bool {
    label == Label::ENTROPY_INDICATOR || label == Label::MNA_BSPL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_labels_are_unreserved_and_deterministic() {
        let a = entropy_label(0x0a00_0001, 0x0a00_0002);
        let b = entropy_label(0x0a00_0001, 0x0a00_0002);
        assert_eq!(a, b);
        assert!(!a.is_reserved());
        // Different flows should (for these inputs) hash differently.
        assert_ne!(a, entropy_label(0x0a00_0002, 0x0a00_0001));
    }

    #[test]
    fn fold_is_exhaustively_unreserved_over_the_masked_range() {
        // Every 20-bit truncation, including all 16 reserved values and
        // both boundaries, must come out unreserved and in label range.
        for v in 0..=Label::MAX {
            let l = fold_unreserved(v);
            assert!(!l.is_reserved(), "hash {v:#07x} folded to reserved {l}");
            assert!(l.value() <= Label::MAX);
            if v >= Label::FIRST_UNRESERVED.value() {
                assert_eq!(l.value(), v, "unreserved values must pass unchanged");
            } else {
                assert_eq!(
                    l.value(),
                    v + Label::FIRST_UNRESERVED.value(),
                    "reserved values must shift onto the first unreserved block"
                );
            }
        }
        // Bits above label width are truncated, not folded twice.
        assert_eq!(fold_unreserved(u32::MAX).value(), Label::MAX);
        assert_eq!(
            fold_unreserved(0xFFF0_0000),
            fold_unreserved(0),
            "only the low 20 bits may matter"
        );
    }

    #[test]
    fn entropy_pair_round_trip() {
        let el = entropy_label(1, 2);
        let e = entropy_entries(el, CosBits::BEST_EFFORT, 64);
        assert_eq!(parse_entropy(&e), Ok(el));
        assert!(matches!(
            parse_entropy(&e[..1]),
            Err(SrError::Truncated {
                need: 2,
                have: 1,
                ..
            })
        ));
        assert!(matches!(
            parse_entropy(&[e[1], e[1]]),
            Err(SrError::BadIndicator { .. })
        ));
    }

    #[test]
    fn rld_gates_the_entropy_scan() {
        let el = entropy_label(7, 9);
        let mut entries = vec![
            LabelStackEntry::new(Label::new(17).unwrap(), CosBits::BEST_EFFORT, false, 64),
            LabelStackEntry::new(Label::new(18).unwrap(), CosBits::BEST_EFFORT, false, 64),
        ];
        entries.extend(entropy_entries(el, CosBits::BEST_EFFORT, 64));
        // Pair occupies indices 2 and 3: readable at rld >= 4 only.
        assert_eq!(find_entropy(&entries, 4), EntropyScan::Found(el));
        assert_eq!(find_entropy(&entries, 3), EntropyScan::BeyondRld);
        assert_eq!(find_entropy(&entries, 2), EntropyScan::BeyondRld);
        assert_eq!(find_entropy(&entries[..2], 4), EntropyScan::Absent);
    }

    #[test]
    fn entropy_scan_skips_an_mna_substack() {
        // Opcode 7 aliases the ELI value; the scan must not read it.
        let nas = MnaNas::new(7, 0x12345).unwrap();
        let mut entries = nas.entries(CosBits::BEST_EFFORT, 64).to_vec();
        let el = entropy_label(3, 4);
        entries.extend(entropy_entries(el, CosBits::BEST_EFFORT, 64));
        // Real pair sits at indices 3 and 4, below the sub-stack.
        assert_eq!(find_entropy(&entries, 8), EntropyScan::Found(el));
        assert_eq!(find_entropy(&entries, 4), EntropyScan::BeyondRld);
        // Sub-stack alone: no pair, even with opcode 7 in the stack.
        let sub = nas.entries(CosBits::BEST_EFFORT, 64);
        assert_eq!(find_entropy(&sub, 8), EntropyScan::Absent);
    }

    #[test]
    fn mna_round_trip_and_rejection() {
        let nas = MnaNas::new(5, 0xABCDE).unwrap();
        let e = nas.entries(CosBits::BEST_EFFORT, 64);
        assert_eq!(MnaNas::parse(&e), Ok(nas));
        assert!(MnaNas::new(16, 0).is_err());
        assert!(MnaNas::new(0, Label::MAX + 1).is_err());
        let mut bad = e;
        bad[1].label = Label::new(16).unwrap();
        assert_eq!(MnaNas::parse(&bad), Err(SrError::OpcodeOutOfRange(16)));
        assert!(matches!(
            MnaNas::parse(&e[..2]),
            Err(SrError::Truncated {
                need: 3,
                have: 2,
                ..
            })
        ));
    }

    #[test]
    fn ecmp_index_is_in_range() {
        for fanout in 1..6usize {
            for el in [16u32, 17, 9999, Label::MAX] {
                assert!(ecmp_index(el, fanout) < fanout);
            }
        }
    }
}

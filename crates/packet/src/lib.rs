#![warn(missing_docs)]
//! MPLS wire formats.
//!
//! This crate defines the data-plane vocabulary shared by every other crate
//! in the workspace:
//!
//! * [`Label`] — a 20-bit MPLS label with the reserved values of RFC 3032.
//! * [`LabelStackEntry`] — the 32-bit generic label format of the paper's
//!   Fig. 5 (label, CoS, bottom-of-stack bit, TTL).
//! * [`LabelStack`] — an ordered stack of entries (Fig. 4) with push/pop/
//!   swap semantics and the invariant that exactly the bottom entry carries
//!   the S bit.
//! * [`Ipv4Header`] / [`EthernetFrame`] — the minimal layer-3/layer-2
//!   framing needed to exercise a Label Edge Router: enough to extract the
//!   *packet identifier* (the IPv4 destination address, §3 of the paper)
//!   and to splice a label stack between the L2 header and the IP payload.
//! * [`MplsPacket`] — a parsed view of an Ethernet frame carrying an MPLS
//!   label stack and an IPv4 payload.
//!
//! All encodings are big-endian network byte order and round-trip exactly;
//! see the property tests in each module.

pub mod error;
pub mod ethernet;
pub mod ipv4;
pub mod label;
pub mod ldp;
pub mod packet;
pub mod sr;
pub mod stack;

pub use error::PacketError;
pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use ipv4::Ipv4Header;
pub use label::{CosBits, Label, LabelStackEntry, Ttl};
pub use ldp::{LdpFec, LdpMessage, LdpPdu};
pub use packet::MplsPacket;
pub use sr::{ecmp_index, entropy_label, EntropyScan, MnaNas, SrError};
pub use stack::LabelStack;

/// The splitmix64 finalizer: adds the golden-ratio increment, then mixes
/// to full avalanche. The workspace's one bit mixer — entropy labels,
/// hash-FIB and flow-cache slots, the maps built on [`SplitMixHasher`],
/// LDP backoff jitter, streaming-workload sampling and the chaos
/// generator all hash with it.
#[inline]
pub const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`Hasher`](std::hash::Hasher) for integer keys built on
/// [`splitmix64`]: each write folds one integer in as
/// `state = splitmix64(state ^ x)`, and `finish` returns the state. A
/// key of one integer hashes to `splitmix64(x)`; a key of several
/// integers (a tuple, an `Option`'s discriminant and value) hashes each
/// in turn, so `(a, b)` and `(c, b)` differ, as do `None` and
/// `Some(0)`.
///
/// The trade against the standard library's SipHash: SipHash's
/// per-process key stops keys crafted to collide, and this hash is the
/// same in every process, so a scenario file could pick node ids,
/// labels or prefixes that share low hash bits and slow its own run.
/// The simulator runs the scenarios its user writes, so no one else's
/// input reaches these maps. Iteration over a map using it is also the
/// same in every process; nothing may depend on that order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitMixHasher(u64);

/// Builds [`SplitMixHasher`]s for `HashMap::with_hasher` and friends.
pub type BuildSplitMix = std::hash::BuildHasherDefault<SplitMixHasher>;

impl SplitMixHasher {
    #[inline]
    fn fold(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }
}

impl std::hash::Hasher for SplitMixHasher {
    /// Byte strings fold eight bytes at a time. The map keys in use
    /// (`u32` ids, labels and addresses, `Option` discriminants) take
    /// the integer writes below instead.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Number of stack entries the embedded hardware data path provisions.
///
/// "A typical MPLS network does not use more than two or three levels of
/// nested paths and consequently, label stacks do not normally exceed two
/// or three labels" (§2). The hardware label stack modifier holds exactly
/// three 32-bit entry registers, and the software forwarder mirrors that
/// limit for hardware/software parity. Segment-routed source routes
/// (see [`sr`]) deliberately exceed it — that excess is the cost model
/// the EXT-16 benchmark measures.
pub const EMBEDDED_STACK_DEPTH: usize = 3;

/// Maximum label stack depth the wire format and simulator carry.
///
/// Deep segment-routing stacks (node-SID source routes plus entropy and
/// MNA metadata, RFC 8986 / RFC 6790 / draft-ietf-mpls-mna-hdr) need more
/// room than the embedded hardware's three entry registers
/// ([`EMBEDDED_STACK_DEPTH`]). [`LabelStack`] provisions this many
/// in-line entries; routers with shallower hardware discard or compress
/// beyond their own limit.
pub const MAX_STACK_DEPTH: usize = 12;

#[cfg(test)]
mod tests {
    use super::{splitmix64, BuildSplitMix};
    use std::hash::BuildHasher;

    /// The reference outputs of splitmix64 seeded at 0: the first draw
    /// of a stream whose state starts at 0 is `splitmix64(0)`.
    #[test]
    fn splitmix64_matches_the_reference_stream() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }

    /// Every write folds into the hash: a tuple's first field is not
    /// overwritten by its second, and an `Option`'s discriminant keeps
    /// `None` apart from `Some(0)`. A single integer hashes to its
    /// splitmix64.
    #[test]
    fn the_shared_hasher_folds_every_write() {
        let build = BuildSplitMix::default();
        for (a, b, c) in [(1u32, 2u32, 3u32), (0, 0, 1), (7, 7, 8)] {
            assert_ne!(build.hash_one((a, b)), build.hash_one((c, b)), "({a}, {b})");
        }
        assert_ne!(build.hash_one(None::<u32>), build.hash_one(Some(0u32)));
        assert_ne!(build.hash_one(Some(1u32)), build.hash_one(Some(2u32)));
        assert_eq!(build.hash_one(42u32), splitmix64(42));
    }
}

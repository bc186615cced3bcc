#![warn(missing_docs)]
//! MPLS router models implementing the paper's Fig. 6 architecture.
//!
//! "The architecture consists of two packet processing \[modules\], and a
//! separate \[module\] to modify the label stack": the **ingress packet
//! processing** extracts the label stack and packet identifier, the
//! **label stack modifier** (hardware — `mpls-core`) rewrites the stack,
//! and the **egress packet processing** splices the new stack into the
//! packet. Routing functionality (here: the tables produced by
//! `mpls-control`) programs the information base.
//!
//! Two interchangeable routers implement [`MplsForwarder`]:
//!
//! * [`EmbeddedRouter`] — hosts the label stack modifier at transaction
//!   level ([`txn::TxnModifier`]): per-packet latency is the exact cycle
//!   count of the cycle-accurate model, computed from Table 6, at a
//!   configurable clock.
//!   Because the hardware can only match exact 32-bit packet identifiers,
//!   its ingress runs a *flow cache*: the first packet of a flow takes a
//!   software-assisted slow path that installs the exact level-1 pair
//!   (one `write label pair` = 3 cycles), and subsequent packets hit in
//!   hardware.
//! * [`SoftwareRouter`] — the all-software baseline over
//!   `mpls-dataplane`, with a calibrated per-packet + per-probe latency
//!   model.

pub mod embedded;
pub mod forwarding;
pub mod kind;
pub mod pipeline;
pub mod software;
pub mod txn;

pub use embedded::EmbeddedRouter;
pub use forwarding::{
    Action, CauseCounts, DiscardCause, Forwarding, MplsForwarder, RouterStats, StageCycles,
};
pub use kind::RouterKind;
pub use pipeline::RouterTables;
pub use software::{SoftwareRouter, SwTimingModel};

#![warn(missing_docs)]
//! Software MPLS data plane.
//!
//! "Most existing MPLS solutions are entirely software based" (paper §1,
//! abstract) — this crate is that baseline: a pure-software label
//! forwarder with the same observable semantics as the hardware label
//! stack modifier in `mpls-core`, plus the longest-prefix-match table
//! ([`ftn::PrefixTable`]) that ingress LERs classify FECs with.
//!
//! Two lookup strategies are provided so the benchmarks can separate the
//! *architecture* comparison from the *algorithm* comparison:
//!
//! * [`lookup::LinearTable`] — first-match linear scan, the same algorithm
//!   the hardware search FSM implements (`3n + 5` cycles there, `O(n)`
//!   probes here);
//! * [`lookup::HashTable`] — the hash map an optimized software forwarder
//!   would use (`O(1)` probes, honestly reported — a *different* timing
//!   model than the linear scan);
//! * [`hash_fib::HashFib`] — the production fast path: `O(1)` host-time
//!   lookups that report the *canonical* (linear-equivalent) probe count,
//!   so swapping it in leaves the simulated timing — and the whole report
//!   — byte-identical, optionally cross-checked against a shadow linear
//!   table (`MPLS_SIM_DIFF_LOOKUP=1`). Pair with [`cache::FlowCache`] for
//!   the per-ingress flow cache.
//!
//! The differential test suite in the workspace root drives random
//! programs through both this forwarder and the cycle-accurate hardware
//! model and asserts identical outcomes.

pub mod cache;
pub mod fib;
pub mod forwarder;
pub mod ftn;
pub mod hash_fib;
pub mod lookup;
pub mod types;

pub use cache::FlowCache;
pub use fib::{Fib, FibLevel};
pub use forwarder::{ProcessResult, SoftwareForwarder};
pub use ftn::PrefixTable;
pub use hash_fib::{diff_lookup_enabled, HashFib};
pub use lookup::{HashTable, LinearTable, LookupStrategy};
pub use types::{Discard, LabelBinding, LabelOp, SwRouterType};

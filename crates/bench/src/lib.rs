//! Shared scenario setup and reporting helpers for the benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (or one early extension experiment from DESIGN.md); `mpls-bench` runs
//! the EXT trajectory sections of [`suite`].

pub mod figure_print;
pub mod report;
pub mod scenarios;
pub mod suite;

pub use report::MarkdownTable;

#![warn(missing_docs)]
//! Library half of the `mpls-sim` command-line tool: the JSON scenario
//! schema ([`scenario::Scenario`]) and the report formatter, kept in a
//! lib so integration tests and other tools can reuse them.

pub mod report;
pub mod scenario;

pub use report::format_report;
pub use scenario::{RunPlan, Scenario, ScenarioError};

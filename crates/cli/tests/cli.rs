//! The `mpls-sim` binary's argument handling, driven as a user would.

use std::process::Command;

const EXAMPLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/example.json");

/// The retired scheduler knob. There is one scheduler now, so its flag
/// must be refused instead of running with the knob silently ignored.
const KNOB: &str = "engine";

#[test]
fn retired_engine_flag_is_a_usage_error() {
    let flag = format!("--{KNOB}");
    let out = Command::new(env!("CARGO_BIN_EXE_mpls-sim"))
        .args(["run", &flag, "merge", EXAMPLE])
        .output()
        .expect("mpls-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("unknown option {flag}")),
        "{stderr}"
    );
    assert!(stderr.contains("usage: mpls-sim"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

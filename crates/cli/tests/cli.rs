//! The `mpls-sim` binary's argument handling, driven as a user would.

use std::process::Command;

const EXAMPLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/example.json");

/// The retired scheduler knob. There is one scheduler now, so its flag
/// must be refused instead of running with the knob silently ignored.
const KNOB: &str = "engine";

/// A flow entering at a node the topology does not have is an invalid
/// scenario for both commands: an error naming the flow, never a panic
/// in `run` or an `ok` from `validate`.
#[test]
fn flow_ingress_outside_the_topology_is_rejected() {
    let text = std::fs::read_to_string(EXAMPLE).expect("example readable");
    let voip = "\"name\": \"voip\",\n      \"ingress\": 0,";
    assert!(text.contains(voip), "example flow layout changed");
    let bad = text.replace(voip, &voip.replace(": 0,", ": 9,"));
    let path = std::env::temp_dir().join(format!("mpls-sim-ingress-{}.json", std::process::id()));
    std::fs::write(&path, bad).expect("scenario written");
    for cmd in ["run", "validate"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mpls-sim"))
            .args([cmd, path.to_str().expect("utf-8 path")])
            .output()
            .expect("mpls-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.contains(r#"invalid scenario: flow "voip": ingress 9 is not a node"#),
            "{cmd}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{cmd} printed a result");
    }
    let _ = std::fs::remove_file(&path);
}

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

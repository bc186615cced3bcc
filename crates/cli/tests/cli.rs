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

/// Duplicate ids, dangling or self-looped links, a zero-bandwidth link
/// and a stopped clock are invalid scenarios for both commands: exit 1
/// with an error, never a panic in either or an `ok` from `validate`.
#[test]
fn declarations_the_engine_cannot_build_are_rejected() {
    let text = std::fs::read_to_string(EXAMPLE).expect("example readable");
    let link23 = r#"{ "a": 2, "b": 3, "bandwidth_mbps": 1000"#;
    let mutations = [
        (
            r#""id": 3, "role": "lsr", "name": "lsr-b" }"#,
            r#""id": 3, "role": "lsr" }, { "id": 3, "role": "lsr" }"#,
            "node 3 is declared twice",
        ),
        (
            link23,
            r#"{ "a": 2, "b": 9, "bandwidth_mbps": 1000"#,
            "no node 9",
        ),
        (
            link23,
            r#"{ "a": 2, "b": 2, "bandwidth_mbps": 1000"#,
            "two distinct",
        ),
        (
            link23,
            r#"{ "a": 2, "b": 3, "bandwidth_mbps": 0"#,
            "bandwidth_mbps",
        ),
        (r#""clock_mhz": 50"#, r#""clock_mhz": 0"#, "clock_mhz"),
    ];
    for (i, (from, to, named)) in mutations.into_iter().enumerate() {
        assert!(text.contains(from), "example layout changed: {from}");
        let path = std::env::temp_dir().join(format!(
            "mpls-sim-declaration-{}-{i}.json",
            std::process::id()
        ));
        std::fs::write(&path, text.replace(from, to)).expect("scenario written");
        for cmd in ["validate", "run"] {
            let out = Command::new(env!("CARGO_BIN_EXE_mpls-sim"))
                .args([cmd, path.to_str().expect("utf-8 path")])
                .output()
                .expect("mpls-sim runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {named}: {stderr}");
            assert!(stderr.contains("invalid scenario"), "{cmd}: {stderr}");
            assert!(stderr.contains(named), "{cmd}: {stderr}");
            assert!(out.stdout.is_empty(), "{cmd} {named} printed a result");
        }
        let _ = std::fs::remove_file(&path);
    }
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

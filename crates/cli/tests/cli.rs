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

/// One-field mutations that `run` could honor only by never ending, by
/// wrapping a unit conversion or by silently changing the value, and
/// values (in the file or on the command line) that `run` cannot use,
/// such as a `topology:` section the generator cannot build or an LSP
/// that ends where it starts: `validate` refuses each with exit 1 and an
/// error naming the field, just as `run` does.
#[test]
fn fields_a_run_cannot_honor_are_rejected() {
    let scale = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/scale_smoke.json");
    let stop = r#""flow_stop_ms": 10"#;
    let seed = r#""seed": 7"#;
    let bogus = r#"unknown control mode "bogus""#;
    let family = r#""family": "fat_tree""#;
    let link23 = r#"{ "a": 2, "b": 3, "bandwidth_mbps": 1000, "delay_us": 500 },"#;
    let parallel = format!("{link23} {}", link23.replace("1000", "100"));
    let mutations: [(&str, &str, &str, &[&str], &str); 22] = [
        (
            EXAMPLE,
            r#""interval_us": 2000"#,
            r#""interval_us": 0"#,
            &[],
            "interval_us",
        ),
        (
            EXAMPLE,
            r#""mean_interval_us": 50"#,
            r#""mean_interval_us": 0"#,
            &[],
            "mean_interval_us",
        ),
        (
            scale,
            stop,
            r#""flow_stop_ms": 10, "flow_interval_us": 0"#,
            &[],
            "flow_interval_us",
        ),
        (
            EXAMPLE,
            r#""interval_us": 2000"#,
            r#""interval_us": 4611686018427387904"#,
            &[],
            "interval_us 4611686018427387904 is out of range",
        ),
        (
            EXAMPLE,
            r#""precedence": 5"#,
            r#""precedence": 9"#,
            &[],
            "precedence 9",
        ),
        (
            EXAMPLE,
            r#""payload_bytes": 146"#,
            r#""payload_bytes": 100000"#,
            &[],
            "payload_bytes 100000",
        ),
        (
            EXAMPLE,
            r#""per_class": 64"#,
            r#""per_class": 0"#,
            &[],
            "per_class",
        ),
        (
            EXAMPLE,
            r#""rate_mbps": 200"#,
            r#""rate_mbps": 0"#,
            &[],
            "rate_mbps",
        ),
        (
            EXAMPLE,
            seed,
            r#""seed": 7, "control": "bogus""#,
            &[],
            bogus,
        ),
        (
            EXAMPLE,
            seed,
            r#""seed": 7, "shards": 0"#,
            &[],
            "shards must be at least 1",
        ),
        (EXAMPLE, seed, seed, &["--control", "bogus"], bogus),
        (
            scale,
            r#""tunnel_strides": 4"#,
            r#""tunnel_strides": 0"#,
            &[],
            "topology: tunnel_strides 0",
        ),
        (
            scale,
            r#""lsps_total": 64000"#,
            r#""lsps_total": 0"#,
            &[],
            "topology: lsps_total",
        ),
        (
            scale,
            stop,
            r#""flow_stop_ms": 10, "bandwidth_mbps": 0"#,
            &[],
            "topology: bandwidth_mbps must be at least 1",
        ),
        (scale, r#""k": 8"#, r#""k": 0"#, &[], "topology: k 0"),
        (scale, r#""k": 8"#, r#""k": 1"#, &[], "topology: k 1"),
        (scale, r#""k": 8"#, r#""k": 2"#, &[], "topology: k 2"),
        (scale, r#""k": 8"#, r#""k": 3"#, &[], "topology: k 3"),
        (
            scale,
            r#""lers_per_edge": 5"#,
            r#""lers_per_edge": 0"#,
            &[],
            "topology: lers_per_edge",
        ),
        (
            scale,
            family,
            r#""family": "ring_of_rings", "rings": 0"#,
            &[],
            "topology: rings 0",
        ),
        (
            scale,
            family,
            r#""family": "ring_of_rings", "ring_size": 0"#,
            &[],
            "topology: ring_size 0",
        ),
        (
            EXAMPLE,
            link23,
            &parallel,
            &[],
            "links #1 and #2 both join nodes 2 and 3",
        ),
    ];
    for (i, (file, from, to, flags, named)) in mutations.into_iter().enumerate() {
        let text = std::fs::read_to_string(file).expect("scenario readable");
        assert!(text.contains(from), "scenario layout changed: {from}");
        let path =
            std::env::temp_dir().join(format!("mpls-sim-field-{}-{i}.json", std::process::id()));
        std::fs::write(&path, text.replacen(from, to, 1)).expect("scenario written");
        for cmd in ["validate", "run"] {
            let out = Command::new(env!("CARGO_BIN_EXE_mpls-sim"))
                .arg(cmd)
                .args(flags)
                .arg(&path)
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
    // An LSP from a node to itself, routed by CSPF or pinned to `[0]`,
    // has no hop to label: signaling refuses it and names the node.
    let text = std::fs::read_to_string(EXAMPLE).expect("example readable");
    let lsp = r#"{ "ingress": 0, "egress": 1, "fec": "192.168.2.0/24" }"#;
    assert!(text.contains(lsp), "example layout changed: {lsp}");
    for (i, to) in [
        r#"{ "ingress": 0, "egress": 0, "fec": "192.168.2.0/24" }"#,
        r#"{ "ingress": 0, "egress": 0, "fec": "192.168.2.0/24", "explicit_route": [0] }"#,
    ]
    .into_iter()
    .enumerate()
    {
        let path =
            std::env::temp_dir().join(format!("mpls-sim-self-lsp-{}-{i}.json", std::process::id()));
        std::fs::write(&path, text.replacen(lsp, to, 1)).expect("scenario written");
        for cmd in ["validate", "run"] {
            let out = Command::new(env!("CARGO_BIN_EXE_mpls-sim"))
                .args([cmd, path.to_str().expect("utf-8 path")])
                .output()
                .expect("mpls-sim runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {to}: {stderr}");
            assert!(
                stderr.contains("signaling failed: lsp #1: IngressIsEgress(0)"),
                "{cmd} {to}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{cmd} {to} printed a result");
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The example's chain with 1,100 LSPs from node 0 to node 1: their
/// label pairs overflow a level of an embedded router's information
/// base, so both commands refuse the file instead of running with the
/// pairs past 1,024 dropped. The same file with software routers runs.
#[test]
fn embedded_info_base_overflow_is_rejected() {
    let text = std::fs::read_to_string(EXAMPLE).expect("example readable");
    let (head, tail) = text.split_at(text.find(r#""lsps""#).expect("example has lsps"));
    let router = &tail[tail.find(r#""router""#).expect("example has a router")..];
    let lsps: Vec<String> = (0..1100)
        .map(|i| {
            format!(
                r#"{{ "ingress": 0, "egress": 1, "fec": "10.{}.{}.0/24" }}"#,
                i / 256,
                i % 256
            )
        })
        .collect();
    let flow = r#"{ "name": "last", "ingress": 0, "src": "10.0.0.10", "dst": "10.4.75.1",
        "payload_bytes": 64, "pattern": { "kind": "cbr", "interval_us": 100 }, "stop_ms": 2 }"#;
    let scenario = format!(
        r#"{head}"lsps": [{}], "flows": [{flow}], {router}"#,
        lsps.join(",\n")
    );
    let path = std::env::temp_dir().join(format!("mpls-sim-overflow-{}.json", std::process::id()));
    for (router, code) in [
        (r#""kind": "embedded""#, 1),
        (r#""kind": "software_linear""#, 0),
    ] {
        let file = scenario.replace(r#""kind": "embedded", "clock_mhz": 50"#, router);
        std::fs::write(&path, file).expect("scenario written");
        for cmd in ["validate", "run"] {
            let out = Command::new(env!("CARGO_BIN_EXE_mpls-sim"))
                .args([cmd, path.to_str().expect("utf-8 path")])
                .output()
                .expect("mpls-sim runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(code), "{cmd} {router}: {stderr}");
            if code == 1 {
                assert!(
                    stderr.contains("invalid scenario: node 1: level 2 needs 1100 label pairs"),
                    "{cmd}: {stderr}"
                );
                assert!(out.stdout.is_empty(), "{cmd} printed a result");
            }
        }
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

//! `mpls-bench`'s argument handling, driven as a user would.

use std::process::Command;

/// An unknown section id, a flag missing its value or an unknown flag is
/// a usage error: exit 2 with the usage line, never a panic, and no
/// section runs.
#[test]
fn bad_arguments_are_usage_errors() {
    for (args, says) in [
        (
            &["--only", "nope"][..],
            "valid: ext10, ext11, ext12, ext15, ext16, ext17",
        ),
        (&["--only"], "--only needs a section id"),
        (&["--all", "--json"], "--json needs a path"),
        (&["--quick"], "unexpected argument \"--quick\""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mpls-bench"))
            .args(args)
            .output()
            .expect("mpls-bench runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: mpls-bench"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a section");
    }
}

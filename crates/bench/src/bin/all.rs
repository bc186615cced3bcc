//! `mpls-bench` — the one entry point of the EXT benchmark suite.
//!
//! Runs the trajectory experiments (EXT-10 shard scaling, EXT-11 LDP
//! convergence, EXT-12 fast-path throughput, EXT-15 streaming scale,
//! EXT-16 SR vs LDP, EXT-17 open- vs closed-loop traffic) at the
//! standard quick configs, prints each table, and — with
//! `--json <path>` — writes one combined `BENCH_<n>.json` trajectory
//! point including the process's peak resident set size:
//!
//! ```text
//! mpls-bench [--only <id>[,<id>...]] [--full] [--json <path>]
//! cargo run --release -p mpls-bench --bin mpls-bench -- --all --json BENCH_7.json
//! cargo run --release -p mpls-bench --bin mpls-bench -- --only ext12
//! ```
//!
//! `--only` runs just the named sections (`ext10`, `ext11`, `ext12`,
//! `ext15`, `ext16`, `ext17`); the others never run. `--all`, the
//! default, runs every section. `--full` switches every section to its
//! full (non-quick) config; the committed trajectory files always use
//! the quick configs so points stay comparable PR over PR. The
//! `bench-gate` binary consumes these files and fails CI on a >10%
//! events/s regression between the two most recent points.

use mpls_bench::suite::{self, Section, SectionFn, SECTIONS};
use serde::Value;
use std::process::ExitCode;

const USAGE: &str = "usage: mpls-bench [--all | --only <id>[,<id>...]] [--full] [--json <path>]";

/// What the command line asks for.
struct Args {
    sections: Vec<(&'static str, SectionFn)>,
    quick: bool,
    json_path: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut only: Vec<&str> = Vec::new();
    let mut quick = true;
    let mut json_path = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            // Every section is the default; CI and older base commits
            // still spell it out.
            "--all" => {}
            "--full" => quick = false,
            "--only" => only.extend(rest.next().ok_or("--only needs a section id")?.split(',')),
            "--json" => json_path = Some(rest.next().ok_or("--json needs a path")?.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let sections = if only.is_empty() {
        SECTIONS.to_vec()
    } else {
        suite::select(&only)?
    };
    Ok(Args {
        sections,
        quick,
        json_path,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        sections,
        quick,
        json_path,
    } = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ids: Vec<&str> = sections.iter().map(|(id, _)| *id).collect();
    println!(
        "=== mpls-bench: {} ({} configs, {} host core(s)) ===\n",
        ids.join(", "),
        if quick { "quick" } else { "full" },
        cores
    );

    let sections: Vec<Section> = sections
        .into_iter()
        .map(|(id, run)| {
            let s = run(quick);
            assert!(s.bench.starts_with(id), "{id} ran {}", s.bench);
            println!("--- {} ---\n", s.bench);
            println!("{}", s.table);
            for note in &s.notes {
                println!("{note}");
            }
            println!();
            s
        })
        .collect();

    let peak_rss_kb = suite::peak_rss_kb();
    if let Some(kb) = peak_rss_kb {
        println!("peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }
    if let Some(path) = json_path {
        let doc = Value::Map(vec![
            ("bench".into(), Value::Str("all".into())),
            ("quick".into(), Value::Bool(quick)),
            (
                "peak_rss_kb".into(),
                peak_rss_kb.map_or(Value::Null, Value::U64),
            ),
            (
                "sections".into(),
                Value::Seq(sections.iter().map(Section::to_json).collect()),
            ),
        ]);
        let body = serde_json::to_string_pretty(&doc).expect("bench report serializes");
        std::fs::write(&path, body + "\n").expect("bench json written");
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_select_sections_config_and_output() {
        for args in [&[][..], &["--all"]] {
            let a = parse_strs(args).unwrap();
            assert_eq!(a.sections.len(), SECTIONS.len());
            assert!(a.quick);
            assert!(a.json_path.is_none());
        }
        let a = parse_strs(&["--only", "ext16,ext11", "--full", "--json", "b.json"]).unwrap();
        let ids: Vec<&str> = a.sections.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ["ext11", "ext16"]);
        assert!(!a.quick);
        assert_eq!(a.json_path.as_deref(), Some("b.json"));
    }
}

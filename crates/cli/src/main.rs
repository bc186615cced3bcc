//! `mpls-sim` — run JSON-described MPLS scenarios.
//!
//! ```text
//! mpls-sim run <scenario.json>          execute a scenario, print the report
//! mpls-sim run --json <scenario.json>   ... as machine-readable JSON
//! mpls-sim run --metrics-out <path> <scenario.json>
//!                                       ... collect telemetry, write it to
//!                                       <path> (.csv for CSV, else JSON)
//! mpls-sim run --shards <n> <scenario.json>
//!                                       ... execute on <n> engine shards
//!                                       (same report, less wall-clock)
//! mpls-sim run --control <mode> <scenario.json>
//!                                       ... force the control plane:
//!                                       "centralized", "ldp" or "sr"
//! mpls-sim validate <scenario.json>     parse + signal without running traffic
//! mpls-sim example                      print the bundled example scenario
//! ```

use mpls_cli::{format_report, Scenario};
use mpls_net::{telemetry_to_csv, telemetry_to_json};
use std::path::Path;
use std::process::ExitCode;

const EXAMPLE: &str = include_str!("../scenarios/example.json");

fn usage() -> ExitCode {
    eprintln!(
        "usage: mpls-sim <run|validate> [--json] [--metrics-out <path>] [--shards <n>] \
         [--control <centralized|ldp|sr>] <scenario.json> | \
         mpls-sim example"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("example") => {
            println!("{EXAMPLE}");
            ExitCode::SUCCESS
        }
        Some(cmd @ ("run" | "validate")) => {
            let mut json = false;
            let mut metrics_out: Option<String> = None;
            let mut shards: Option<usize> = None;
            let mut control: Option<String> = None;
            let mut path: Option<String> = None;
            let mut rest = args.iter().skip(1);
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--metrics-out" => match rest.next() {
                        Some(p) => metrics_out = Some(p.clone()),
                        None => {
                            eprintln!("error: --metrics-out needs a path");
                            return usage();
                        }
                    },
                    "--shards" => match rest.next().and_then(|n| n.parse::<usize>().ok()) {
                        Some(n) if n >= 1 => shards = Some(n),
                        _ => {
                            eprintln!("error: --shards needs a count >= 1");
                            return usage();
                        }
                    },
                    "--control" => match rest.next() {
                        Some(m) => control = Some(m.clone()),
                        None => {
                            eprintln!("error: --control needs a mode (centralized, ldp or sr)");
                            return usage();
                        }
                    },
                    other if other.starts_with("--") => {
                        eprintln!("error: unknown option {other}");
                        return usage();
                    }
                    other if path.is_none() => path = Some(other.to_string()),
                    other => {
                        eprintln!("error: unexpected argument {other:?}");
                        return usage();
                    }
                }
            }
            let Some(path) = path else {
                return usage();
            };
            let scenario = match Scenario::load(Path::new(&path)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if cmd == "validate" {
                match scenario.build_control_plane() {
                    Ok(cp) => {
                        println!(
                            "ok: {} nodes, {} links, {} LSPs signaled",
                            cp.topology().nodes().len(),
                            cp.topology().links().len(),
                            cp.lsp_ids().len()
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                }
            } else {
                let result =
                    scenario.run_with_overrides(metrics_out.is_some(), shards, control.as_deref());
                match result {
                    Ok(report) => {
                        if let Some(out) = &metrics_out {
                            let tel = report
                                .telemetry
                                .as_ref()
                                .expect("telemetry was forced on for --metrics-out");
                            let text = if out.ends_with(".csv") {
                                telemetry_to_csv(tel)
                            } else {
                                telemetry_to_json(tel)
                            };
                            if let Err(e) = std::fs::write(out, text) {
                                eprintln!("error: cannot write {out}: {e}");
                                return ExitCode::FAILURE;
                            }
                            eprintln!("metrics written to {out}");
                        }
                        if json {
                            match serde_json::to_string_pretty(&report) {
                                Ok(text) => println!("{text}"),
                                Err(e) => {
                                    eprintln!("error: cannot serialize report: {e}");
                                    return ExitCode::FAILURE;
                                }
                            }
                        } else {
                            println!("simulated {:.1} ms\n", report.elapsed_ns as f64 / 1e6);
                            print!("{}", format_report(&report));
                        }
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
        }
        _ => usage(),
    }
}
